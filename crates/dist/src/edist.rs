//! EDiSt — exact distributed stochastic block partitioning (paper
//! Algs. 4–5) — as a [`Plane`] of the one golden search.
//!
//! The paper's claim is that EDiSt *is* sequential SBP with the block and
//! vertex loops restricted to an owned set plus one allgather per sync.
//! This module is that sentence as code: [`sbp_core::sbp::golden_search`]
//! is the only search loop in the workspace, and `DistPlane` is what it
//! runs on here — every rank holds a replica of the blockmodel, and only
//! the *work* is partitioned:
//!
//! 1. **Merge phase** (Alg. 4): rank `r` evaluates merge proposals for
//!    the blocks it owns (`b mod n == r`), the candidate lists are
//!    allgathered — the phase's one collective — and every rank applies
//!    the identical best merge set to the replica it holds: the candidate
//!    order is normalized by `merge_labels`' total-order sort, and
//!    `Blockmodel::merged` folds the replica's own lines through the
//!    resulting relabelling, so replicas stay bit-identical without
//!    exchanging a cell.
//! 2. **MCMC phase** (Alg. 5): rank `r` sweeps the vertices it owns
//!    against its replica, accepted moves are allgathered every
//!    `sync_period` sweeps (after each chunk of a `Batch` sweep), and
//!    each rank applies its peers' moves. Since a vertex is moved only by
//!    its owner, the post-sync assignment — and therefore the blockmodel,
//!    a pure function of the assignment — is identical on every rank.
//!
//! **Rank-count-invariant randomness.** Every RNG stream is derived from
//! the master seed and a *vertex or block key* — never from the rank id.
//! A proposal therefore draws the same randomness no matter which rank
//! evaluates it, so a single-rank EDiSt run is sequential SBP by
//! construction, and under the `Batch` strategy — each chunk of a sweep
//! decided against the state synced after the previous one, chunks split
//! by vertex id — the whole trajectory is bit-identical across rank
//! counts (see the backend-equivalence tests in the facade crate).
//!
//! Convergence and cancellation decisions use values broadcast from rank
//! 0 ([`Plane::agree`]). Replicas holding the same integer state compute
//! bit-identical floating-point sums in both storage regimes
//! (`sbp_core::line`), so the broadcast is not papering over drift — it is
//! there because a cancellation racing a collective must never make ranks
//! disagree on control flow (that would mismatch the collective
//! schedule), and as defense in depth for the DL.
//!
//! How the replica is built from the graph (a search's seed, a resume, a
//! bracket entry whose model was let go) and how peers' moves reach it is
//! the one thing that differs between a replicated graph and `.sbps` shards; that
//! is `EdistData`, with `ReplicatedData` here and
//! [`crate::sharded`]'s plane over shards.

use crate::error::{guard_collectives, DecodeError, DistError};
use crate::exchange::{check_moves, decode_moves, encode_moves, ExchangeStats};
use crate::ownership::{owned_blocks, OwnershipStrategy};
use sbp_core::mcmc::AcceptedMove;
use sbp_core::merge::{propose_merges, MergeCandidate};
use sbp_core::plane::Plane;
use sbp_core::Blockmodel;
use sbp_graph::{Graph, Vertex};
use sbp_mpi::{Communicator, Wire};
use std::cell::RefCell;
use std::time::Instant;

/// The data a rank runs against: how the replicated blockmodel is built
/// from the graph and how peers' moves reach the replica. Everything else —
/// control flow, collective schedule, events — is shared, so a change to
/// the schedule cannot desynchronize one deployment but not the other.
/// [`crate::dcsbp`]'s driver runs over the same data for the same reason.
pub(crate) trait EdistData {
    /// Global vertex count.
    fn num_vertices(&self) -> usize;
    /// Global total edge weight (the checkpoint fingerprint — must match
    /// what a monolithic view of the graph would report).
    fn total_edge_weight(&self) -> i64;
    /// Graph used for owned-vertex sweeps and own-move application. The
    /// sharded plane's graph is complete only for owned vertices — the
    /// sweeps never walk further.
    fn sweep_graph(&self) -> &Graph;
    /// Vertices this rank sweeps.
    fn my_vertices(&self) -> &[Vertex];
    /// The whole graph, when this rank holds it (DC-SBP's root-side
    /// fine-tuning needs it; the sharded plane has none to give).
    fn whole_graph(&self) -> Option<&Graph>;
    /// The replicated blockmodel implied by `assignment`; identical on
    /// every rank (a collective on the sharded plane, which can fail on
    /// a corrupted cell payload).
    fn build_blockmodel<C: Communicator>(
        &self,
        comm: &C,
        assignment: Vec<u32>,
        num_blocks: usize,
    ) -> Result<Blockmodel, DistError>;
    /// Executes one sync point: ships this rank's pending moves (plus
    /// whatever else the plane needs — the sharded plane piggybacks its
    /// cell-delta and cut-arc sections onto the same buffer, so every
    /// sync costs **one** allgather on either plane), applies the
    /// gathered peer moves to the replica, and returns the total move
    /// count across ranks. `prev` holds the globally-agreed assignment
    /// at the previous sync and must be advanced (the replicated plane
    /// can ignore it). `xstats` records the move-section bytes (delta +
    /// varint payloads — see [`crate::exchange`]; the encoding is
    /// lossless, so exactness is untouched). A malformed peer payload
    /// surfaces as a [`DistError`].
    fn exchange_moves<C: Communicator>(
        &self,
        comm: &C,
        bm: &mut Blockmodel,
        prev: &mut Vec<u32>,
        pending: &[AcceptedMove],
        xstats: &mut ExchangeStats,
    ) -> Result<usize, DistError>;
}

/// The fully-replicated data plane: every rank holds the whole graph
/// (the paper's EDiSt deployment).
pub(crate) struct ReplicatedData<'a> {
    graph: &'a Graph,
    mine: Vec<Vertex>,
    /// Every vertex's rank, from the partition `mine` comes from: a
    /// peer's move is checked against it before anything is applied.
    owner: Vec<u32>,
}

impl<'a> ReplicatedData<'a> {
    /// This rank's plane over `graph`, sweeping its share under `ownership`.
    pub(crate) fn new<C: Communicator>(
        graph: &'a Graph,
        ownership: OwnershipStrategy,
        comm: &C,
    ) -> Self {
        let mut parts = ownership.partition(graph, comm.size());
        let mut owner = vec![0u32; graph.num_vertices()];
        for (rank, part) in parts.iter().enumerate() {
            for &v in part {
                owner[v as usize] = rank as u32;
            }
        }
        let mine = parts.swap_remove(comm.rank());
        ReplicatedData { graph, mine, owner }
    }
}

impl EdistData for ReplicatedData<'_> {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn total_edge_weight(&self) -> i64 {
        self.graph.total_edge_weight()
    }

    fn sweep_graph(&self) -> &Graph {
        self.graph
    }

    fn my_vertices(&self) -> &[Vertex] {
        &self.mine
    }

    fn whole_graph(&self) -> Option<&Graph> {
        Some(self.graph)
    }

    fn build_blockmodel<C: Communicator>(
        &self,
        _comm: &C,
        assignment: Vec<u32>,
        num_blocks: usize,
    ) -> Result<Blockmodel, DistError> {
        Ok(Blockmodel::from_assignment(
            self.graph, assignment, num_blocks,
        ))
    }

    fn exchange_moves<C: Communicator>(
        &self,
        comm: &C,
        bm: &mut Blockmodel,
        _prev: &mut Vec<u32>,
        pending: &[AcceptedMove],
        xstats: &mut ExchangeStats,
    ) -> Result<usize, DistError> {
        let payload = encode_moves(pending);
        xstats.record(pending.len(), payload.len());
        let payloads = xstats.allgather(comm, payload);
        apply_moves(self.graph, &self.owner, comm.rank(), bm, payloads)
    }
}

/// Applies a replicated sync point's gathered move lists — one per rank,
/// in rank order — to `rank`'s replica `bm` of `graph`. Every list is
/// decoded and checked against the replica's vertex and block counts and
/// against `owner` (each vertex's rank) before one is applied, so on an
/// error `bm` is as it was. Returns the total move count.
pub fn apply_moves(
    graph: &Graph,
    owner: &[u32],
    rank: usize,
    bm: &mut Blockmodel,
    payloads: Vec<Vec<u8>>,
) -> Result<usize, DistError> {
    let (vertices, blocks) = (graph.num_vertices(), bm.num_blocks());
    let gathered = payloads
        .into_iter()
        .enumerate()
        .map(|(from, bytes)| {
            let moves = decode_moves(&bytes)?;
            check_moves(&moves, vertices, blocks, from, |v| {
                owner[v as usize] as usize
            })?;
            Ok(moves)
        })
        .collect::<Result<Vec<Vec<AcceptedMove>>, DecodeError>>()?;
    let mut moves = 0usize;
    for (from_rank, peer_moves) in gathered.into_iter().enumerate() {
        moves += peer_moves.len();
        if from_rank == rank {
            continue; // already applied during the sweep
        }
        for m in peer_moves {
            bm.move_vertex(graph, m.v, m.to);
        }
    }
    Ok(moves)
}

/// Per-rank wire counters, recorded at the sync points (observe-only: no
/// extra collectives, no extra wire bytes). The rank id is folded into
/// the metric name so simulated ranks sharing one process registry stay
/// distinguishable.
struct WireMetrics {
    syncs: std::sync::Arc<sbp_metrics::Counter>,
    moves: std::sync::Arc<sbp_metrics::Counter>,
    bytes_raw: std::sync::Arc<sbp_metrics::Counter>,
    bytes_encoded: std::sync::Arc<sbp_metrics::Counter>,
    sync_ns: std::sync::Arc<sbp_metrics::Counter>,
    sync_wait_ns: std::sync::Arc<sbp_metrics::Counter>,
}

impl WireMetrics {
    fn new(rank: usize) -> Self {
        let name = |base: &str| sbp_metrics::labeled(base, "rank", rank);
        WireMetrics {
            syncs: sbp_metrics::counter(&name("sbp_wire_syncs_total")),
            moves: sbp_metrics::counter(&name("sbp_wire_moves_total")),
            bytes_raw: sbp_metrics::counter(&name("sbp_wire_move_bytes_raw_total")),
            bytes_encoded: sbp_metrics::counter(&name("sbp_wire_move_bytes_encoded_total")),
            sync_ns: sbp_metrics::counter(&name("sbp_wire_sync_ns_total")),
            sync_wait_ns: sbp_metrics::counter(&name("sbp_wire_sync_wait_ns_total")),
        }
    }

    /// Records one sync point: the moves this rank shipped, what
    /// `exchange_moves` added to the run's accounting (bytes, and time
    /// inside its allgather), and how long the whole sync took from
    /// `started` — the difference is this rank's own bookkeeping.
    fn record_sync(
        &self,
        shipped: usize,
        before: ExchangeStats,
        after: ExchangeStats,
        started: Instant,
    ) {
        self.syncs.inc();
        self.moves.add(shipped as u64);
        self.bytes_raw
            .add(after.move_bytes_raw - before.move_bytes_raw);
        self.bytes_encoded
            .add(after.move_bytes_encoded - before.move_bytes_encoded);
        self.sync_ns.add(started.elapsed().as_nanos() as u64);
        self.sync_wait_ns
            .add(after.sync_wait_ns - before.sync_wait_ns);
    }
}

/// One rank of a distributed run as the golden search sees it: rank 0 is
/// the root, blocks and vertices are restricted to what this rank owns,
/// and every method that talks to peers is a collective.
///
/// ## Coordinated unwind
///
/// Each of those methods is one [`guard_collectives`] region: a local
/// failure (malformed peer payload, injected [`crate::fault::RankDeath`])
/// or an observed peer abort ([`sbp_mpi::PeerAborted`]) surfaces as the
/// plane's [`DistError`] instead of a panic. The search stops there and
/// hands its best-so-far bracket entry back with the error; the caller
/// (`run::drive`) poisons the peers — waking anyone blocked in a
/// collective — and marks the outcome degraded. The rank that *detects* a
/// failure reports its specific reason; ranks that merely observe the
/// cascade report `RankFailure`.
pub(crate) struct DistPlane<'a, C, D> {
    comm: &'a C,
    data: &'a D,
    xstats: RefCell<ExchangeStats>,
    wire: Option<WireMetrics>,
}

impl<'a, C: Communicator, D: EdistData> DistPlane<'a, C, D> {
    pub(crate) fn new(comm: &'a C, data: &'a D) -> Self {
        DistPlane {
            comm,
            data,
            xstats: RefCell::default(),
            wire: sbp_metrics::enabled().then(|| WireMetrics::new(comm.rank())),
        }
    }

    /// Move-exchange byte accounting of the run so far.
    pub(crate) fn xstats(&self) -> ExchangeStats {
        *self.xstats.borrow()
    }
}

impl<C: Communicator, D: EdistData> Plane for DistPlane<'_, C, D> {
    type Error = DistError;

    fn is_root(&self) -> bool {
        self.comm.rank() == 0
    }

    fn num_vertices(&self) -> usize {
        self.data.num_vertices()
    }

    fn total_edge_weight(&self) -> i64 {
        self.data.total_edge_weight()
    }

    fn sweep_graph(&self) -> &Graph {
        self.data.sweep_graph()
    }

    fn owned_vertices(&self) -> Vec<Vertex> {
        self.data.my_vertices().to_vec()
    }

    fn whole_graph(&self) -> Option<&Graph> {
        self.data.whole_graph()
    }

    fn build(&self, assignment: Vec<u32>, num_blocks: usize) -> Result<Blockmodel, DistError> {
        guard_collectives(|| {
            self.data
                .build_blockmodel(self.comm, assignment, num_blocks)
        })
    }

    fn merge_candidates(
        &self,
        bm: &Blockmodel,
        proposals_per_block: usize,
        seed: u64,
    ) -> Result<Vec<MergeCandidate>, DistError> {
        let blocks = owned_blocks(bm.num_blocks(), self.comm.rank(), self.comm.size());
        let mine = propose_merges(bm, &blocks, proposals_per_block, seed);
        guard_collectives(|| Ok(self.comm.allgatherv(mine).into_iter().flatten().collect()))
    }

    fn begin_phase(&self, bm: &Blockmodel, prev: &mut Vec<u32>) {
        prev.clear();
        prev.extend_from_slice(bm.assignment());
    }

    fn sync(
        &self,
        bm: &mut Blockmodel,
        prev: &mut Vec<u32>,
        pending: &[AcceptedMove],
    ) -> Result<usize, DistError> {
        guard_collectives(|| {
            let started = self.wire.as_ref().map(|wire| (wire, Instant::now()));
            let mut xstats = self.xstats.borrow_mut();
            let before = *xstats;
            let moves = self
                .data
                .exchange_moves(self.comm, bm, prev, pending, &mut xstats)?;
            if let Some((wire, started)) = started {
                wire.record_sync(pending.len(), before, *xstats, started);
            }
            Ok(moves)
        })
    }

    fn agree<T: Clone + Send + Wire + 'static>(
        &self,
        on_root: impl FnOnce() -> T,
    ) -> Result<T, DistError> {
        guard_collectives(|| Ok(self.comm.broadcast(0, self.is_root().then(on_root))))
    }

    fn clock(&self) -> f64 {
        self.comm.virtual_time()
    }
}

#[cfg(test)]
mod tests {
    use super::{DistPlane, ReplicatedData};
    use crate::run::ShardedBackend;
    use crate::solver::DistSolver;
    use sbp_core::plane::LocalPlane;
    use sbp_core::run::{NoProgress, ProgressEvent, ProgressFn, RunConfig, RunOutcome, Solver};
    use sbp_core::sbp::golden_search;
    use sbp_core::{McmcStrategy, SbpConfig};
    use sbp_graph::fixtures::two_cliques;
    use sbp_graph::{Graph, OwnershipStrategy};
    use sbp_mpi::{CostModel, SelfComm};

    /// The one cancellation contract (`ProgressEvent::Cancelled`): a sink
    /// that cancels on the k-th `Sweep` event stops the single-node plane
    /// and the distributed plane at the same point — the sync after the
    /// *next* sweep, or the next iteration top — with the interrupted
    /// iteration recorded and named.
    #[test]
    fn cancelling_on_the_kth_sweep_stops_both_planes_identically() {
        let g = two_cliques(8);
        for strategy in [McmcStrategy::MetropolisHastings, McmcStrategy::Batch] {
            for k in [1usize, 2, 5, 9] {
                let run = |distributed: bool| {
                    let cfg = RunConfig::from_sbp(SbpConfig {
                        seed: 11,
                        strategy,
                        ..SbpConfig::default()
                    });
                    let token = cfg.cancel.clone();
                    let (mut sweeps, mut at_k, mut last, mut named) = (0usize, None, None, None);
                    let mut sink = ProgressFn(|e: &ProgressEvent| match e {
                        ProgressEvent::Sweep { iteration, .. } => {
                            sweeps += 1;
                            last = Some(*iteration);
                            if sweeps == k {
                                at_k = last;
                                token.cancel();
                            }
                        }
                        ProgressEvent::Cancelled { iteration } => named = Some(*iteration),
                        _ => {}
                    });
                    let out = if distributed {
                        let comm = SelfComm::new();
                        let data = ReplicatedData::new(&g, OwnershipStrategy::default(), &comm);
                        golden_search(&DistPlane::new(&comm, &data), None, &cfg, 1, &mut sink).0
                    } else {
                        golden_search(&LocalPlane::new(&g), None, &cfg, 1, &mut sink).0
                    };
                    let _ = sink;
                    assert!(out.cancelled, "{strategy:?} k={k}: fixture converged first");
                    let (at_k, last, named) = (at_k.unwrap(), last.unwrap(), named.unwrap());
                    if sweeps == k {
                        // The k-th sweep closed its phase: the next
                        // iteration top observed the token.
                        assert_eq!(named, at_k + 1, "{strategy:?} k={k}");
                    } else {
                        // One more sweep ran, its sync observed the token,
                        // and the cut-short iteration was still recorded.
                        assert_eq!((sweeps, named), (k + 1, last), "{strategy:?} k={k}");
                    }
                    assert_eq!(out.iterations.len(), last + 1, "{strategy:?} k={k}");
                    (out.iterations.len(), named, out.assignment)
                };
                assert_eq!(run(false), run(true), "{strategy:?} k={k}");
            }
        }
    }

    /// Rank 1 of a replicated 2-rank plane over `two_cliques(6)` (modulo
    /// ownership: vertex `v` on rank `v % 2`) ships a well-formed move of
    /// vertex 0, which rank 0 owns. Rank 0 would count the move as applied
    /// in-sweep and never relabel its replica while rank 1 did, and the
    /// replicas would part silently; it must come back with a typed
    /// `ValueOutOfRange`, its replica and `prev` as they were.
    #[test]
    fn a_peer_move_of_a_vertex_it_does_not_own_is_a_typed_error() {
        use crate::edist::EdistData;
        use crate::error::{DecodeError, DistError};
        use crate::exchange::{encode_moves, ExchangeStats};
        use sbp_core::mcmc::AcceptedMove;
        use sbp_core::Blockmodel;
        use sbp_mpi::thread::ThreadComm;
        use sbp_mpi::{Communicator, ThreadCluster};
        let g = two_cliques(6);
        let labels: Vec<u32> = (0..12).map(|v| v % 4).collect();
        let foreign = encode_moves(&[AcceptedMove { v: 0, to: 1 }]);
        let out = ThreadCluster::run(2, CostModel::zero(), |comm: &ThreadComm| {
            let data = ReplicatedData::new(&g, OwnershipStrategy::Modulo, comm);
            if comm.rank() == 1 {
                comm.allgatherv(foreign.clone());
                return None;
            }
            let mut bm = Blockmodel::from_assignment(&g, labels.clone(), 4);
            let before = bm.clone();
            let mut prev = labels.clone();
            let synced =
                data.exchange_moves(comm, &mut bm, &mut prev, &[], &mut ExchangeStats::default());
            Some((synced, bm.same_state(&before), prev == labels))
        });
        let (synced, replica_kept, prev_kept) = out
            .ranks
            .into_iter()
            .find_map(|r| r.result)
            .expect("rank 0");
        match synced {
            Err(DistError::Decode(DecodeError::ValueOutOfRange { what })) => {
                assert_eq!(what, "move vertex owner")
            }
            other => panic!("expected a typed owner error, got {other:?}"),
        }
        assert!(replica_kept, "the replica was touched");
        assert!(prev_kept, "prev was advanced");
    }

    fn solve(graph: &Graph, solver: DistSolver) -> RunOutcome {
        solver.solve(graph, &RunConfig::default(), &mut NoProgress)
    }

    fn edist(ranks: usize) -> DistSolver {
        DistSolver::new(ShardedBackend::Edist { sync_period: 1 }, ranks)
    }

    #[test]
    fn single_rank_recovers_two_cliques() {
        let res = solve(&two_cliques(8), edist(1));
        assert_eq!(res.num_blocks, 2);
        assert_eq!(res.assignment[0], res.assignment[7]);
        assert_ne!(res.assignment[0], res.assignment[8]);
    }

    #[test]
    fn sync_period_two_still_converges() {
        let solver = DistSolver::new(ShardedBackend::Edist { sync_period: 2 }, 3);
        assert_eq!(solve(&two_cliques(8), solver).num_blocks, 2);
    }

    #[test]
    fn modulo_ownership_works_too() {
        let solver = DistSolver {
            ownership: OwnershipStrategy::Modulo,
            ..edist(2)
        };
        let res = solve(&two_cliques(8), solver);
        assert_eq!(res.assignment.len(), 16);
        assert_eq!(res.num_blocks, 2);
    }

    #[test]
    fn empty_graph_is_handled() {
        let res = solve(&Graph::from_edges(0, Vec::new()), edist(3));
        assert!(res.assignment.is_empty());
        assert_eq!(res.num_blocks, 0);
    }
}
