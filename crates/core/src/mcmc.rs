//! The Metropolis–Hastings MCMC phase (paper Alg. 2).
//!
//! `keyed_mh_sweep` performs one sequential pass over an explicit vertex
//! subset (EDiSt calls it with a rank's owned vertices, Alg. 5 lines
//! 4–15) drawing each vertex's proposal randomness from a
//! `(seed, sweep, vertex)`-keyed stream, so the same vertex draws the
//! same randomness no matter which rank sweeps it; `mh_sweep` is the
//! explicit-RNG variant for callers that manage their own stream.
//! [`ConvergenceCheck`] is the paper's convergence rule — stop when the
//! moving average of the last three per-sweep ΔDL values falls below
//! `threshold × initial DL`; the phase loop that feeds it lives in
//! [`crate::sbp`], once, for every backend.
//!
//! Proposal draws, acceptance tests, and the per-sweep DL the convergence
//! rule consumes all flow through canonical-order line iteration
//! ([`crate::line`]), so a sweep over a given blockmodel state is a pure
//! function of `(state, seed, sweep, vertex set)` — never of the storage
//! layout's history. Distributed planes inherit sparse-regime
//! bit-identity from exactly this property.

use crate::blockmodel::Blockmodel;
use crate::delta::with_scratch;
use crate::hybrid::{evaluate_vertex, vertex_rng, Evaluation};
use rand::Rng;
use sbp_graph::{Graph, Vertex};

/// A move accepted during a sweep, in application order. This is exactly
/// the payload EDiSt allgathers between ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AcceptedMove {
    /// The vertex that moved.
    pub v: Vertex,
    /// Its new block.
    pub to: u32,
}

/// Outcome of a single sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepOutcome {
    /// Accepted moves in order.
    pub moves: Vec<AcceptedMove>,
    /// Number of proposals evaluated.
    pub proposals: usize,
}

/// One sequential Metropolis–Hastings pass over `vertices`, applying
/// accepted moves to `bm` immediately (Alg. 2 lines 3–10).
///
/// Zero-degree vertices are skipped: their block membership does not
/// affect the likelihood, so proposals would be wasted work. `proposals`
/// counts the moves actually evaluated — a draw of the vertex's own block
/// is not one. Evaluation is the same body as the keyed sweeps'
/// ([`crate::hybrid`]), through the thread-local
/// [`crate::delta::DeltaScratch`], so the per-proposal hot path performs
/// no heap allocation.
pub fn mh_sweep<R: Rng + ?Sized>(
    graph: &Graph,
    bm: &mut Blockmodel,
    vertices: &[Vertex],
    beta: f64,
    rng: &mut R,
) -> SweepOutcome {
    with_scratch(|scratch| {
        let mut out = SweepOutcome::default();
        for &v in vertices {
            match evaluate_vertex(graph, bm, v, beta, rng, scratch) {
                Evaluation::Skipped => {}
                Evaluation::Rejected => out.proposals += 1,
                Evaluation::Accepted(m) => {
                    out.proposals += 1;
                    bm.move_vertex(graph, v, m.to);
                    out.moves.push(m);
                }
            }
        }
        out
    })
}

/// One sequential Metropolis–Hastings pass over `vertices` with
/// per-vertex keyed RNG streams: vertex `v`'s proposal randomness is a
/// pure function of `(seed, sweep_idx, v)`, independent of sweep order,
/// history, and — in the distributed drivers — of which rank owns `v`.
/// Accepted moves are applied to `bm` immediately, exactly like
/// [`mh_sweep`].
pub fn keyed_mh_sweep(
    graph: &Graph,
    bm: &mut Blockmodel,
    vertices: &[Vertex],
    beta: f64,
    seed: u64,
    sweep_idx: usize,
) -> SweepOutcome {
    with_scratch(|scratch| {
        let mut out = SweepOutcome::default();
        for &v in vertices {
            if graph.degree(v) == 0 {
                continue;
            }
            out.proposals += 1;
            let mut rng = vertex_rng(seed, sweep_idx, v);
            if let Some(m) = evaluate_vertex(graph, bm, v, beta, &mut rng, scratch).accepted() {
                bm.move_vertex(graph, v, m.to);
                out.moves.push(m);
            }
        }
        out
    })
}

/// The sweep-loop convergence controller: feeds per-sweep ΔDL values and
/// answers whether the phase should stop.
#[derive(Clone, Debug)]
pub struct ConvergenceCheck {
    initial_dl: f64,
    prev_dl: f64,
    window: [f64; 3],
    filled: usize,
    threshold: f64,
}

impl ConvergenceCheck {
    /// Starts a check from the DL at phase entry with the given relative
    /// threshold (paper Alg. 2 line 12: `ΔDL < t × DL`).
    pub fn new(initial_dl: f64, threshold: f64) -> Self {
        ConvergenceCheck {
            initial_dl,
            prev_dl: initial_dl,
            window: [0.0; 3],
            filled: 0,
            threshold,
        }
    }

    /// Records the DL after a sweep; returns true when the moving average
    /// of the last three per-sweep improvements is below threshold.
    pub fn record(&mut self, dl: f64) -> bool {
        let delta = self.prev_dl - dl;
        self.prev_dl = dl;
        self.window[self.filled % 3] = delta;
        self.filled += 1;
        if self.filled < 3 {
            return false;
        }
        let avg = self.window.iter().sum::<f64>() / 3.0;
        avg.abs() < self.threshold * self.initial_dl.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
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
    fn sweep_repairs_a_misassigned_vertex() {
        // Only vertex 0 is misassigned and only vertex 0 is swept: its
        // neighbors anchor proposals at its home block, and at high beta
        // the improving move is accepted. (Sweeping everything can descend
        // into a different local optimum on a graph this small — that is
        // expected MCMC behavior, not a defect.)
        let g = two_triangles();
        let mut bm = Blockmodel::from_assignment(&g, vec![1, 0, 0, 1, 1, 1], 2);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..30 {
            mh_sweep(&g, &mut bm, &[0], 10.0, &mut rng);
            if bm.block_of(0) == 0 {
                break;
            }
        }
        assert_eq!(bm.block_of(0), 0, "vertex 0 never returned home");
        bm.validate(&g).unwrap();
    }

    #[test]
    fn ground_truth_is_stable_at_high_beta() {
        let g = two_triangles();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let truth = bm.assignment().to_vec();
        let mut rng = SmallRng::seed_from_u64(16);
        let vertices: Vec<u32> = (0..6).collect();
        for _ in 0..30 {
            mh_sweep(&g, &mut bm, &vertices, 12.0, &mut rng);
        }
        assert_eq!(bm.assignment(), &truth[..], "truth destabilized");
    }

    #[test]
    fn sweep_keeps_blockmodel_consistent() {
        let g = two_triangles();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
        let mut rng = SmallRng::seed_from_u64(12);
        let vertices: Vec<u32> = (0..6).collect();
        for _ in 0..20 {
            mh_sweep(&g, &mut bm, &vertices, 3.0, &mut rng);
            bm.validate(&g).unwrap();
        }
    }

    #[test]
    fn sweep_over_subset_only_moves_subset() {
        let g = two_triangles();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
        let before = bm.assignment().to_vec();
        let mut rng = SmallRng::seed_from_u64(13);
        let out = mh_sweep(&g, &mut bm, &[0, 1], 3.0, &mut rng);
        for m in &out.moves {
            assert!(m.v <= 1);
        }
        for (v, &b) in before.iter().enumerate().skip(2) {
            assert_eq!(bm.assignment()[v], b, "vertex {v} moved");
        }
    }

    #[test]
    fn zero_degree_vertices_are_skipped() {
        let g = Graph::from_edges(3, vec![(0, 1, 1), (1, 0, 1)]);
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0], 2);
        let mut rng = SmallRng::seed_from_u64(14);
        let out = mh_sweep(&g, &mut bm, &[2], 3.0, &mut rng);
        assert_eq!(out.proposals, 0);
        assert!(out.moves.is_empty());
    }

    #[test]
    fn keyed_mh_sweep_is_deterministic_and_stateless_across_runs() {
        // The stream for vertex v in sweep s is a pure function of
        // (seed, s, v): re-running the whole schedule reproduces the
        // exact move sequence, with no hidden RNG state carried over.
        let g = two_triangles();
        let run = || {
            let mut bm = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
            let vertices: Vec<u32> = (0..6).collect();
            let mut all_moves = Vec::new();
            for sweep in 0..5 {
                all_moves.extend(keyed_mh_sweep(&g, &mut bm, &vertices, 3.0, 7, sweep).moves);
            }
            (bm.assignment().to_vec(), all_moves)
        };
        assert_eq!(run(), run());
    }

    /// One vertex's decision from the retained line-walk free functions —
    /// the pre-PR 13 evaluation, draw for draw.
    fn reference_decision(
        g: &Graph,
        bm: &Blockmodel,
        v: Vertex,
        beta: f64,
        rng: &mut SmallRng,
    ) -> Option<AcceptedMove> {
        use crate::delta::{delta_entropy, hastings_for_delta, vertex_move_delta};
        if g.degree(v) == 0 {
            return None;
        }
        let to = crate::propose::propose_for_vertex(rng, g, bm, v)?;
        if to == bm.block_of(v) {
            return None;
        }
        let d = vertex_move_delta(g, bm, v, to);
        let p_accept =
            ((-beta * delta_entropy(bm, &d)).exp() * hastings_for_delta(g, bm, v, &d)).min(1.0);
        (rng.random::<f64>() < p_accept).then_some(AcceptedMove { v, to })
    }

    /// Four planted communities of 30 with weighted, partly reciprocal
    /// arcs, a few self-loops and an isolated vertex.
    fn planted() -> (Graph, Vec<Vertex>) {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 121u32;
        let mut edges = Vec::new();
        for v in 0..n - 1 {
            for u in 0..n - 1 {
                let p = if v / 30 == u / 30 { 5 } else { 60 };
                if next() % p == 0 && (u != v || next() % 4 == 0) {
                    edges.push((v, u, 1 + (next() % 3) as i64));
                }
            }
        }
        (Graph::from_edges(n as usize, edges), (0..n).collect())
    }

    /// Decision equivalence: sweeps through the O(deg) kernel accept
    /// exactly the move list of a reference sweep built from the retained
    /// line-walk free functions, on both storages, for the sequential
    /// (state always fresh) and the batch (frozen state) schedules — from
    /// a 12-block start, and from a 3-block start where over 30 % of the
    /// draws name the vertex's own block and are skipped before anything
    /// is gathered: the reference draws the same proposals from the same
    /// streams, so equal move lists show the skip consumes what it did
    /// when the gather came first.
    #[test]
    fn sweeps_accept_the_reference_move_list() {
        use crate::blockmodel::StorageKind;
        use crate::hybrid::batch_sweep;
        let (g, vertices) = planted();
        for (blocks, min_skipped_share) in [(12u32, 0.0), (3, 0.3)] {
            let start: Vec<u32> = vertices
                .iter()
                .map(|&v| (v * 7 + v / 30) % blocks)
                .collect();
            for kind in [StorageKind::Dense, StorageKind::Sparse] {
                let fresh =
                    || Blockmodel::from_assignment_with(&g, start.clone(), blocks as usize, kind);
                let (mut keyed, mut keyed_ref) = (fresh(), fresh());
                let (mut batch, mut batch_ref) = (fresh(), fresh());
                let (mut moved, mut drawn, mut skipped) = (0, 0, 0);
                for sweep in 0..6 {
                    let got = keyed_mh_sweep(&g, &mut keyed, &vertices, 3.0, 41, sweep).moves;
                    let mut want = Vec::new();
                    for &v in &vertices {
                        let mut rng = vertex_rng(41, sweep, v);
                        if let Some(m) = reference_decision(&g, &keyed_ref, v, 3.0, &mut rng) {
                            keyed_ref.move_vertex(&g, v, m.to);
                            want.push(m);
                        }
                    }
                    assert_eq!(got, want, "keyed sweep {sweep} {kind:?} C={blocks}");
                    moved += got.len();

                    // What the batch sweep below makes of each vertex.
                    with_scratch(|scratch| {
                        for &v in vertices.iter().filter(|&&v| g.degree(v) > 0) {
                            let mut rng = vertex_rng(43, sweep, v);
                            let made = evaluate_vertex(&g, &batch, v, 3.0, &mut rng, scratch);
                            drawn += 1;
                            skipped += usize::from(matches!(made, Evaluation::Skipped));
                        }
                    });
                    let got = batch_sweep(&g, &mut batch, &vertices, 3.0, 43, sweep).moves;
                    let want: Vec<AcceptedMove> = vertices
                        .iter()
                        .filter_map(|&v| {
                            let mut rng = vertex_rng(43, sweep, v);
                            reference_decision(&g, &batch_ref, v, 3.0, &mut rng)
                        })
                        .collect();
                    for m in &want {
                        batch_ref.move_vertex(&g, m.v, m.to);
                    }
                    assert_eq!(got, want, "batch sweep {sweep} {kind:?} C={blocks}");
                    moved += got.len();
                }
                assert!(
                    moved > 100,
                    "fixture too quiet to prove anything: {moved} moves at C={blocks}"
                );
                assert!(
                    skipped as f64 > min_skipped_share * drawn as f64,
                    "{skipped} of {drawn} proposals skipped at C={blocks}"
                );
            }
        }
    }

    #[test]
    fn convergence_check_stops_on_plateau() {
        let mut c = ConvergenceCheck::new(1000.0, 1e-4);
        assert!(!c.record(900.0)); // big improvement
        assert!(!c.record(899.99));
        // The third record fills the window; by the fourth, three
        // consecutive tiny deltas must trigger convergence.
        let third = c.record(899.989);
        let fourth = c.record(899.9889);
        assert!(third || fourth, "plateau not detected");
    }

    #[test]
    fn convergence_check_needs_three_sweeps() {
        let mut c = ConvergenceCheck::new(1000.0, 0.5);
        assert!(!c.record(999.0));
        assert!(!c.record(998.0));
        // From sweep 3 on the window is full and the (huge) threshold fires.
        assert!(c.record(997.0));
    }
}
