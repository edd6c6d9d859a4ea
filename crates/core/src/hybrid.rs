//! The sweep schedules: one plan of chunks per search, two sweep bodies.
//!
//! A sweep runs its [`sweep_plan`] chunk after chunk. A chunk is swept one
//! of two ways: one vertex after another, each decided against the state
//! its predecessors left ([`keyed_mh_sweep`], exact Metropolis–Hastings),
//! or all of it against the state frozen at the chunk's start, applying
//! every accepted move afterwards ([`batch_sweep`]). Each chunk also says
//! whether a sweep that syncs ([`crate::sbp::golden_search`]'s sync
//! points) syncs after it. Every decision draws from the vertex's `(seed,
//! sweep, vertex)` stream, so a sweep is deterministic under thread
//! scheduling. The three [`McmcStrategy`] schedules are three plans:
//!
//! * **Metropolis–Hastings** — one MH chunk, the whole swept set, which
//!   syncs: one sync round per sweep (paper Alg. 2).
//! * **Hybrid** (paper §II-B, citing Wanye et al. ICPP'22) — the swept
//!   set sorted by degree, highest first; the first [`HYBRID_HEAD_FRACTION`]
//!   of it, too informative for stale evaluation, is one MH chunk, and the
//!   low-degree rest is asynchronous Gibbs in frozen chunks of
//!   [`HYBRID_CHUNK`], whose evaluation fans out over the pool. Only the
//!   last chunk syncs: one sync round per sweep. A distributed rank plans
//!   its own owned set, so its head is its own top 10 %.
//! * **Batch** — the [`BATCH_CHUNKS`] residue lists of the swept set by
//!   vertex id ([`batch_chunks`]), each frozen and each synced: three sync
//!   rounds per sweep. Chunk membership and every decision depend on the
//!   vertex id and the synced state alone — never on which participant
//!   evaluates the vertex — so Batch is the schedule whose trajectory is
//!   the same bit for bit at every rank count: the exact one EDiSt's claim
//!   rests on. A whole sweep against one frozen state (the python
//!   reference's parallelism, kept in [`crate::naive`]) flips vertices
//!   back and forth and can stall far above the planted block count; the
//!   chunk syncs are the price of converging.

use crate::blockmodel::Blockmodel;
use crate::delta::{with_scratch, DeltaScratch};
use crate::mcmc::{keyed_mh_sweep, AcceptedMove, SweepOutcome};
use crate::propose::propose_for_vertex;
use crate::sbp::McmcStrategy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use sbp_graph::{Graph, Vertex};
use std::cmp::Reverse;

/// Derives the `(seed, sweep, vertex)`-keyed RNG stream shared by every
/// keyed sweep body (batch and keyed MH). Keying by vertex — never by
/// rank or thread — is what makes sweep schedules deterministic under
/// thread scheduling and invariant to how the distributed drivers
/// partition the vertex set.
pub(crate) fn vertex_rng(seed: u64, sweep: usize, v: Vertex) -> SmallRng {
    // SplitMix-style mixing of the three stream coordinates.
    let mut z = seed
        ^ (sweep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (v as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    SmallRng::seed_from_u64(z ^ (z >> 31))
}

/// What evaluating one vertex's proposal came to.
pub(crate) enum Evaluation {
    /// Nothing to decide: an isolated vertex, a single block, or a
    /// proposal of the vertex's own block.
    Skipped,
    /// A move was proposed and rejected.
    Rejected,
    /// A move was proposed and accepted.
    Accepted(AcceptedMove),
}

impl Evaluation {
    /// The accepted move, if any.
    #[inline]
    pub(crate) fn accepted(self) -> Option<AcceptedMove> {
        match self {
            Evaluation::Accepted(m) => Some(m),
            _ => None,
        }
    }
}

/// The one proposal-evaluation body behind every sweep variant: draws a
/// proposal, and only when it names another block — at small block counts
/// about half do not — gathers `v`'s neighbour blocks, evaluates `(ΔS, H)`
/// in O(deg) and runs the Metropolis–Hastings acceptance test against the
/// current (possibly frozen) blockmodel. The gather draws nothing, so the
/// RNG stream is the one a gather-first evaluation consumes.
/// Allocation-free via the caller's scratch.
pub(crate) fn evaluate_vertex<R: Rng + ?Sized>(
    graph: &Graph,
    bm: &Blockmodel,
    v: Vertex,
    beta: f64,
    rng: &mut R,
    scratch: &mut DeltaScratch,
) -> Evaluation {
    if graph.degree(v) == 0 {
        return Evaluation::Skipped;
    }
    let to = match propose_for_vertex(rng, graph, bm, v) {
        Some(to) if to != bm.block_of(v) => to,
        _ => return Evaluation::Skipped,
    };
    scratch.gather_vertex(graph, bm, v);
    let (ds, hastings) = scratch.evaluate_move(graph, bm, v, to);
    let p_accept = ((-beta * ds).exp() * hastings).min(1.0);
    if rng.random::<f64>() < p_accept {
        Evaluation::Accepted(AcceptedMove { v, to })
    } else {
        Evaluation::Rejected
    }
}

/// Evaluates every vertex of `vertices` against the frozen `bm` and
/// returns the accepted moves in input order. With enough vertices to pay
/// for it, evaluation fans out over the persistent pool, each worker
/// through its own thread-local scratch (a caller that wants one thread
/// sets the width, `crate::with_threads(1, ..)`); each decision is a pure
/// function of the frozen state and the vertex's `(seed, sweep, vertex)`
/// stream, so the result is identical at any thread count.
fn evaluate_frozen(
    graph: &Graph,
    bm: &Blockmodel,
    vertices: &[Vertex],
    beta: f64,
    seed: u64,
    sweep_idx: usize,
) -> Vec<AcceptedMove> {
    let evaluate = |v: Vertex, scratch: &mut DeltaScratch| {
        let mut rng = vertex_rng(seed, sweep_idx, v);
        evaluate_vertex(graph, bm, v, beta, &mut rng, scratch).accepted()
    };
    if vertices.len() >= 32 {
        vertices
            .par_iter()
            .filter_map(|&v| with_scratch(|scratch| evaluate(v, scratch)))
            .collect()
    } else {
        with_scratch(|scratch| {
            vertices
                .iter()
                .filter_map(|&v| evaluate(v, scratch))
                .collect()
        })
    }
}

/// How many chunks a Batch sweep runs as. Chunk `c` holds the swept
/// vertices with `v % BATCH_CHUNKS == c`, and each chunk is evaluated
/// against the state synced after the previous one, so a sweep costs
/// `BATCH_CHUNKS` sync points where a whole-sweep batch costs one. Fewer
/// chunks leave each decision staler — one chunk stalls at thousands of
/// blocks on hard challenge graphs — and more pay more sync rounds for
/// less; two, three and four all converge there, and three finished
/// first most often. A constant, not a knob: the trajectory a seed names,
/// and a checkpoint's strategy tag, depend on it.
pub const BATCH_CHUNKS: usize = 3;

/// The share of a Hybrid sweep's vertices, highest degree first, swept as
/// exact Metropolis–Hastings: the head is `⌈len · 0.1⌉` vertices, computed
/// in `f64`. A constant, not a knob, for the same reason as
/// [`BATCH_CHUNKS`].
pub const HYBRID_HEAD_FRACTION: f64 = 0.1;

/// The most vertices one frozen chunk of a Hybrid sweep's tail holds.
pub const HYBRID_CHUNK: usize = 256;

/// Splits `vertices` into the [`BATCH_CHUNKS`] residue lists of a Batch
/// sweep, each in input order. Always `BATCH_CHUNKS` lists, empty ones
/// included: every participant of a distributed run syncs after each
/// chunk, whether it owns a vertex of it or not.
pub fn batch_chunks(vertices: &[Vertex]) -> Vec<Vec<Vertex>> {
    let mut chunks = vec![Vec::new(); BATCH_CHUNKS];
    for &v in vertices {
        chunks[v as usize % BATCH_CHUNKS].push(v);
    }
    chunks
}

/// One step of a sweep's plan: its vertices in sweep order, how they are
/// decided, and whether a sweep that syncs syncs after it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// The vertices, in sweep order.
    pub vertices: Vec<Vertex>,
    /// Decided all against the state at the chunk's start
    /// ([`batch_sweep`]) rather than one after another
    /// ([`keyed_mh_sweep`]).
    pub frozen: bool,
    /// Whether a sweep that ends in a sync point syncs after this chunk.
    pub syncs: bool,
}

impl Chunk {
    /// Sweeps this chunk's vertices in `bm`, applying every accepted move.
    pub fn sweep(
        &self,
        graph: &Graph,
        bm: &mut Blockmodel,
        beta: f64,
        seed: u64,
        sweep_idx: usize,
    ) -> SweepOutcome {
        if self.frozen {
            batch_sweep(graph, bm, &self.vertices, beta, seed, sweep_idx)
        } else {
            keyed_mh_sweep(graph, bm, &self.vertices, beta, seed, sweep_idx)
        }
    }
}

/// The chunks every sweep of a search over `vertices` runs, in order (the
/// module docs give each strategy's). `graph` supplies the degrees the
/// Hybrid head is chosen by. At least one chunk syncs, even over an empty
/// set: every participant of a distributed run takes part in every sync.
pub fn sweep_plan(strategy: McmcStrategy, graph: &Graph, vertices: &[Vertex]) -> Vec<Chunk> {
    let chunk = |vertices: Vec<Vertex>, frozen, syncs| Chunk {
        vertices,
        frozen,
        syncs,
    };
    match strategy {
        McmcStrategy::MetropolisHastings => vec![chunk(vertices.to_vec(), false, true)],
        McmcStrategy::Batch => batch_chunks(vertices)
            .into_iter()
            .map(|vs| chunk(vs, true, true))
            .collect(),
        McmcStrategy::Hybrid => {
            let mut head = vertices.to_vec();
            head.sort_by_key(|&v| (Reverse(graph.degree(v)), v));
            let n_head = ((head.len() as f64) * HYBRID_HEAD_FRACTION).ceil() as usize;
            let tail = head.split_off(n_head);
            let mut plan = vec![chunk(head, false, false)];
            plan.extend(
                tail.chunks(HYBRID_CHUNK)
                    .map(|vs| chunk(vs.to_vec(), true, false)),
            );
            if let Some(last) = plan.last_mut() {
                last.syncs = true;
            }
            plan
        }
    }
}

/// One batch pass over `vertices`: evaluate *all* of them against the
/// frozen state, then apply every accepted move — a frozen [`Chunk`]'s
/// sweep. A Batch sweep is [`BATCH_CHUNKS`] of these, a Hybrid sweep's
/// tail one per [`HYBRID_CHUNK`] vertices.
///
/// Evaluation fans out over the persistent pool (see `evaluate_frozen`),
/// so the pass — and every trajectory built on it — is bit-identical to
/// the serial evaluation at any thread count.
pub fn batch_sweep(
    graph: &Graph,
    bm: &mut Blockmodel,
    vertices: &[Vertex],
    beta: f64,
    seed: u64,
    sweep_idx: usize,
) -> SweepOutcome {
    let mut out = SweepOutcome {
        proposals: vertices.len(),
        ..Default::default()
    };
    for m in evaluate_frozen(graph, bm, vertices, beta, seed, sweep_idx) {
        bm.move_vertex(graph, m.v, m.to);
        out.moves.push(m);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_graph::Graph;

    fn two_triangles() -> Graph {
        Graph::from_edges(
            6,
            vec![
                (0, 1, 2),
                (1, 2, 2),
                (2, 0, 2),
                (3, 4, 2),
                (4, 5, 2),
                (5, 3, 2),
                (2, 3, 1),
            ],
        )
    }

    /// One sweep of `plan`, every chunk against the state the one before
    /// left: what a sweep with nobody to sync with runs.
    fn plan_sweep(
        g: &Graph,
        bm: &mut Blockmodel,
        plan: &[Chunk],
        seed: u64,
        sweep: usize,
    ) -> Vec<AcceptedMove> {
        plan.iter()
            .flat_map(|chunk| chunk.sweep(g, bm, 3.0, seed, sweep).moves)
            .collect()
    }

    #[test]
    fn hybrid_plan_sweeps_are_deterministic_given_seed() {
        let g = two_triangles();
        let vertices: Vec<u32> = (0..6).collect();
        let plan = sweep_plan(McmcStrategy::Hybrid, &g, &vertices);
        let run = || {
            let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
            let mut all_moves = Vec::new();
            for sweep in 0..5 {
                all_moves.extend(plan_sweep(&g, &mut bm, &plan, 77, sweep));
            }
            (bm.assignment().to_vec(), all_moves)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hybrid_plan_sweeps_keep_invariants() {
        let g = two_triangles();
        let vertices: Vec<u32> = (0..6).collect();
        let plan = sweep_plan(McmcStrategy::Hybrid, &g, &vertices);
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
        for sweep in 0..10 {
            plan_sweep(&g, &mut bm, &plan, 5, sweep);
            bm.validate(&g).unwrap();
        }
    }

    #[test]
    fn batch_sweep_improves_bad_partition() {
        let g = two_triangles();
        let vertices: Vec<u32> = (0..6).collect();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
        let before = bm.description_length();
        for sweep in 0..20 {
            batch_sweep(&g, &mut bm, &vertices, 3.0, 13, sweep);
            bm.validate(&g).unwrap();
        }
        assert!(bm.description_length() < before);
    }

    /// Chunk membership is a function of the vertex id alone: splitting
    /// each rank's owned set and gathering chunk `c` across ranks gives
    /// the chunk `c` of the whole set, at any rank count — which is why a
    /// chunked Batch sweep is the same at every rank count. At 3 modulo
    /// ranks each rank owns exactly one chunk.
    #[test]
    fn chunks_of_owned_sets_gather_to_the_chunks_of_the_whole() {
        let all: Vec<Vertex> = (0..20).collect();
        let whole = batch_chunks(&all);
        for ranks in 1..=4u32 {
            let owned: Vec<Vec<Vertex>> = (0..ranks)
                .map(|r| all.iter().copied().filter(|v| v % ranks == r).collect())
                .collect();
            for (c, want) in whole.iter().enumerate() {
                let mut got: Vec<Vertex> = owned
                    .iter()
                    .flat_map(|o| batch_chunks(o)[c].clone())
                    .collect();
                got.sort_unstable();
                assert_eq!(&got, want, "{ranks} ranks, chunk {c}");
            }
        }
        for r in 0..3u32 {
            let owned: Vec<Vertex> = all.iter().copied().filter(|v| v % 3 == r).collect();
            let held = batch_chunks(&owned)
                .iter()
                .filter(|c| !c.is_empty())
                .count();
            assert_eq!(held, 1, "rank {r}");
        }
    }

    #[test]
    fn subset_sweeps_do_not_touch_other_vertices() {
        let g = two_triangles();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
        let before = bm.assignment().to_vec();
        for strategy in [
            McmcStrategy::MetropolisHastings,
            McmcStrategy::Hybrid,
            McmcStrategy::Batch,
        ] {
            let plan = sweep_plan(strategy, &g, &[0, 2]);
            for sweep in 0..5 {
                plan_sweep(&g, &mut bm, &plan, 21, sweep);
                for v in [1usize, 3, 4, 5] {
                    assert_eq!(bm.assignment()[v], before[v], "{strategy:?}");
                }
            }
        }
    }
}
