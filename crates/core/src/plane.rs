//! The execution plane the golden search ([`crate::sbp::golden_search`])
//! runs on.
//!
//! The paper's claim is that EDiSt (Algs. 4–5) *is* sequential SBP
//! (Algs. 1–2) with the block and vertex loops restricted to an owned set
//! plus one allgather per sync. [`Plane`] is that restriction and nothing
//! else: which vertices and blocks this participant works on, how the
//! replicated blockmodel is built from the graph, how accepted moves and
//! merge candidates reach the other participants, and how a control-flow
//! value is agreed on. The search itself — bracket, phases, convergence rule,
//! cancellation, checkpoints, events — is written once against it.
//!
//! [`LocalPlane`] is the `n = 1` plane: one participant owning every
//! vertex and block of a whole [`Graph`], every method an identity.
//! `sbp-dist` implements the trait once more over a communicator.

use crate::blockmodel::Blockmodel;
use crate::mcmc::AcceptedMove;
use crate::merge::{propose_merges, MergeCandidate};
use sbp_graph::{Graph, Vertex};
use sbp_mpi::Wire;
use std::convert::Infallible;

/// One participant's view of a run. Methods that talk to other
/// participants are *matched by call order*: every participant makes the
/// same sequence of calls (the golden search guarantees it by branching
/// only on [`Plane::agree`]d values).
pub trait Plane {
    /// Why a matched call failed (a dead peer, a corrupt payload). The
    /// search stops at the first error and returns best-so-far with it.
    type Error;

    /// Whether this participant records solver metrics, writes
    /// checkpoints and supplies the values of [`Plane::agree`].
    fn is_root(&self) -> bool;

    /// Global vertex count.
    fn num_vertices(&self) -> usize;

    /// Global total edge weight (with the vertex count, the checkpoint
    /// fingerprint).
    fn total_edge_weight(&self) -> i64;

    /// Graph the sweeps walk; complete at least for
    /// [`Plane::owned_vertices`].
    fn sweep_graph(&self) -> &Graph;

    /// Vertices this participant sweeps, in sweep order.
    fn owned_vertices(&self) -> Vec<Vertex>;

    /// The whole graph, where this participant holds it. Only debug
    /// assertions read it (a carried model against its rebuild); a plane
    /// over part of a graph answers `None` and is checked by its tests.
    fn whole_graph(&self) -> Option<&Graph>;

    /// The graph, when this plane is a [`LocalPlane`] over it in all but
    /// type: every call local, nothing to exchange, no state besides its
    /// clock. The search may then run a probe ahead of the bracket on a
    /// pool worker, over a `LocalPlane` of this graph (`crate::sbp`,
    /// "Overlapped probes"). `None`, the default, keeps every call of a
    /// search on the thread that started it and in call order — what a
    /// plane matched by call order with its peers needs.
    fn local_graph(&self) -> Option<&Graph> {
        None
    }

    /// The blockmodel of `assignment`, built from the graph; identical on
    /// every participant. The start-up, resume and cache-miss constructor:
    /// a search calls it for its seed, for the first iteration after a
    /// resume, and for a bracket entry whose model it did not keep — every
    /// other model of a solve is folded from one the participant already
    /// holds ([`Blockmodel::merged`]), which costs no graph walk and, on a
    /// plane where this is a collective, no collective.
    fn build(&self, assignment: Vec<u32>, num_blocks: usize) -> Result<Blockmodel, Self::Error>;

    /// Every participant's merge proposals for the blocks it owns,
    /// combined.
    fn merge_candidates(
        &self,
        bm: &Blockmodel,
        proposals_per_block: usize,
        seed: u64,
    ) -> Result<Vec<MergeCandidate>, Self::Error>;

    /// MCMC-phase entry: `bm` is agreed on by every participant. A plane
    /// whose [`Plane::sync`] is phrased against the last agreed assignment
    /// copies it into `prev` here.
    fn begin_phase(&self, _bm: &Blockmodel, _prev: &mut Vec<u32>) {}

    /// One sync point: ships `pending` (this participant's moves since
    /// the last sync, already applied to `bm`), applies everyone else's
    /// to `bm`, advances `prev`, and returns the global move count.
    fn sync(
        &self,
        bm: &mut Blockmodel,
        prev: &mut Vec<u32>,
        pending: &[AcceptedMove],
    ) -> Result<usize, Self::Error>;

    /// Every participant returns the value `on_root` produced on the root
    /// (the only place it is evaluated), so control flow never diverges —
    /// in particular not on a cancellation racing a sync point.
    fn agree<T: Clone + Send + Wire + 'static>(
        &self,
        on_root: impl FnOnce() -> T,
    ) -> Result<T, Self::Error>;

    /// Seconds on this participant's run clock — what the work done on
    /// this thread cost. [`crate::RunOutcome::virtual_seconds`] is this
    /// plus the worker-thread CPU of every overlapped probe the search
    /// committed (a dropped one adds nothing), so it keeps meaning "the
    /// CPU of the committed trajectory" when a probe ran ahead on the pool.
    fn clock(&self) -> f64;
}

/// The single-participant plane over a whole graph: thread-CPU clock, no
/// peers, nothing to exchange.
pub struct LocalPlane<'a> {
    graph: &'a Graph,
    t0: f64,
}

impl<'a> LocalPlane<'a> {
    /// The plane over `graph`; its clock starts now.
    pub fn new(graph: &'a Graph) -> Self {
        LocalPlane {
            graph,
            t0: sbp_mpi::thread_cpu_time(),
        }
    }
}

impl Plane for LocalPlane<'_> {
    type Error = Infallible;

    fn is_root(&self) -> bool {
        true
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn total_edge_weight(&self) -> i64 {
        self.graph.total_edge_weight()
    }

    fn sweep_graph(&self) -> &Graph {
        self.graph
    }

    fn owned_vertices(&self) -> Vec<Vertex> {
        (0..self.graph.num_vertices() as Vertex).collect()
    }

    fn whole_graph(&self) -> Option<&Graph> {
        Some(self.graph)
    }

    fn local_graph(&self) -> Option<&Graph> {
        Some(self.graph)
    }

    fn build(&self, assignment: Vec<u32>, num_blocks: usize) -> Result<Blockmodel, Infallible> {
        Ok(Blockmodel::from_assignment(
            self.graph, assignment, num_blocks,
        ))
    }

    fn merge_candidates(
        &self,
        bm: &Blockmodel,
        proposals_per_block: usize,
        seed: u64,
    ) -> Result<Vec<MergeCandidate>, Infallible> {
        let blocks: Vec<u32> = (0..bm.num_blocks() as u32).collect();
        Ok(propose_merges(bm, &blocks, proposals_per_block, seed))
    }

    fn sync(
        &self,
        _bm: &mut Blockmodel,
        _prev: &mut Vec<u32>,
        pending: &[AcceptedMove],
    ) -> Result<usize, Infallible> {
        Ok(pending.len())
    }

    fn agree<T: Clone + Send + Wire + 'static>(
        &self,
        on_root: impl FnOnce() -> T,
    ) -> Result<T, Infallible> {
        Ok(on_root())
    }

    fn clock(&self) -> f64 {
        sbp_mpi::thread_cpu_time() - self.t0
    }
}
