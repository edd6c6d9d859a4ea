//! Hybrid shared-memory parallel MCMC (paper §II-B, citing Wanye et al.
//! ICPP'22), plus the batch schedule.
//!
//! The hybrid scheme processes the informative, high-degree vertices
//! sequentially (exact Metropolis–Hastings) and the low-degree majority in
//! parallel chunks of asynchronous Gibbs: proposals within a chunk are
//! evaluated concurrently against a frozen blockmodel snapshot, accepted
//! moves are applied between chunks. Determinism is preserved by deriving
//! each vertex's RNG stream from `(seed, sweep, vertex)`, independent of
//! thread scheduling.
//!
//! The batch schedule evaluates a chunk of vertices against the frozen
//! state and then applies all accepted moves ([`batch_sweep`]). A Batch
//! sweep runs as [`BATCH_CHUNKS`] such chunks, split by vertex id
//! ([`batch_chunks`]), each against the state synced after the one before.
//! Chunk membership and every decision depend on the vertex id and the
//! synced state alone — never on which participant evaluates the vertex —
//! so Batch is the schedule whose trajectory is the same bit for bit at
//! every rank count: the exact one EDiSt's claim rests on. A whole sweep
//! against one frozen state (the python reference's parallelism, kept in
//! [`crate::naive`]) flips vertices back and forth and can stall far above
//! the planted block count; the chunk syncs are the price of converging.

use crate::blockmodel::Blockmodel;
use crate::delta::{with_scratch, DeltaScratch};
use crate::mcmc::{AcceptedMove, SweepOutcome};
use crate::propose::propose_for_vertex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use sbp_graph::{Graph, Vertex};

/// Configuration of the hybrid MCMC sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HybridConfig {
    /// Fraction of the (degree-sorted) vertex set processed sequentially,
    /// from the top. The ICPP'22 hybrid treats high-degree vertices as too
    /// informative for stale evaluation.
    pub sequential_fraction: f64,
    /// Chunk size for the asynchronous-Gibbs portion; state is refreshed
    /// between chunks.
    pub chunk_size: usize,
    /// Evaluate chunk proposals with rayon. With `false` the schedule is
    /// identical but single-threaded (useful when many simulated MPI ranks
    /// already saturate the machine).
    pub parallel: bool,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            sequential_fraction: 0.1,
            chunk_size: 256,
            parallel: true,
        }
    }
}

/// Derives the `(seed, sweep, vertex)`-keyed RNG stream shared by every
/// keyed sweep implementation (hybrid, batch, and keyed MH). Keying by
/// vertex — never by rank or thread — is what makes sweep schedules
/// deterministic under thread scheduling and invariant to how the
/// distributed drivers partition the vertex set.
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

/// One hybrid sweep over `vertices` (which EDiSt passes as the rank's owned
/// set). High-degree head: sequential exact MH. Low-degree tail: chunked
/// asynchronous Gibbs.
pub fn hybrid_sweep(
    graph: &Graph,
    bm: &mut Blockmodel,
    vertices: &[Vertex],
    beta: f64,
    cfg: &HybridConfig,
    seed: u64,
    sweep_idx: usize,
) -> SweepOutcome {
    let mut order: Vec<Vertex> = vertices.to_vec();
    order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let n_seq = ((order.len() as f64) * cfg.sequential_fraction).ceil() as usize;
    let n_seq = n_seq.min(order.len());
    let (head, tail) = order.split_at(n_seq);

    let mut out = SweepOutcome::default();

    // Sequential high-degree portion.
    with_scratch(|scratch| {
        for &v in head {
            let mut rng = vertex_rng(seed, sweep_idx, v);
            out.proposals += 1;
            if let Some(m) = evaluate_vertex(graph, bm, v, beta, &mut rng, scratch).accepted() {
                bm.move_vertex(graph, v, m.to);
                out.moves.push(m);
            }
        }
    });

    // Chunked asynchronous Gibbs over the low-degree tail.
    let chunk_size = cfg.chunk_size.max(1);
    for chunk in tail.chunks(chunk_size) {
        out.proposals += chunk.len();
        for m in evaluate_frozen(graph, bm, chunk, beta, seed, sweep_idx, cfg.parallel) {
            // Asynchronous Gibbs: apply even though the decision was made
            // against a (slightly) stale snapshot.
            bm.move_vertex(graph, m.v, m.to);
            out.moves.push(m);
        }
    }
    out
}

/// Evaluates every vertex of `vertices` against the frozen `bm` and
/// returns the accepted moves in input order. With `parallel` (and enough
/// vertices to pay for it) evaluation fans out over the persistent pool,
/// each worker through its own thread-local scratch; each decision is a
/// pure function of the frozen state and the vertex's `(seed, sweep,
/// vertex)` stream, so the result is identical at any thread count.
fn evaluate_frozen(
    graph: &Graph,
    bm: &Blockmodel,
    vertices: &[Vertex],
    beta: f64,
    seed: u64,
    sweep_idx: usize,
    parallel: bool,
) -> Vec<AcceptedMove> {
    let evaluate = |v: Vertex, scratch: &mut DeltaScratch| {
        let mut rng = vertex_rng(seed, sweep_idx, v);
        evaluate_vertex(graph, bm, v, beta, &mut rng, scratch).accepted()
    };
    if parallel && vertices.len() >= 32 {
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

/// One batch pass over `vertices`: evaluate *all* of them against the
/// frozen state, then apply every accepted move. A Batch sweep is
/// [`BATCH_CHUNKS`] of these, one per [`batch_chunks`] list.
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
    for m in evaluate_frozen(graph, bm, vertices, beta, seed, sweep_idx, true) {
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

    #[test]
    fn hybrid_sweep_is_deterministic_given_seed() {
        let g = two_triangles();
        let vertices: Vec<u32> = (0..6).collect();
        let cfg = HybridConfig::default();
        let run = || {
            let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
            let mut all_moves = Vec::new();
            for sweep in 0..5 {
                let out = hybrid_sweep(&g, &mut bm, &vertices, 3.0, &cfg, 77, sweep);
                all_moves.extend(out.moves);
            }
            (bm.assignment().to_vec(), all_moves)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hybrid_sweep_keeps_invariants() {
        let g = two_triangles();
        let vertices: Vec<u32> = (0..6).collect();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
        for sweep in 0..10 {
            hybrid_sweep(
                &g,
                &mut bm,
                &vertices,
                3.0,
                &HybridConfig::default(),
                5,
                sweep,
            );
            bm.validate(&g).unwrap();
        }
    }

    #[test]
    fn sequential_fraction_one_is_pure_mh() {
        // With fraction 1.0, every vertex goes through the sequential path;
        // the sweep must behave like plain MH (state always fresh).
        let g = two_triangles();
        let vertices: Vec<u32> = (0..6).collect();
        let cfg = HybridConfig {
            sequential_fraction: 1.0,
            chunk_size: 1,
            parallel: false,
        };
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
        let before = bm.description_length();
        for sweep in 0..20 {
            hybrid_sweep(&g, &mut bm, &vertices, 3.0, &cfg, 9, sweep);
        }
        bm.validate(&g).unwrap();
        assert!(bm.description_length() <= before);
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
        hybrid_sweep(&g, &mut bm, &[0, 2], 3.0, &HybridConfig::default(), 21, 0);
        for v in [1usize, 3, 4, 5] {
            assert_eq!(bm.assignment()[v], before[v]);
        }
    }
}
