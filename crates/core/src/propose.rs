//! The proposal distribution and Metropolis–Hastings correction.
//!
//! Follows the Graph-Challenge reference formulation (Peixoto '14; paper
//! §II-B): to propose a new block for vertex `v`, pick a random neighbor
//! `u` (edge-weight proportional), let `t = b(u)`; with probability
//! `B/(d_t + B)` propose a uniformly random block, otherwise propose a
//! block drawn proportionally to row + column `t` of the blockmodel. The
//! same machinery proposes merge targets for blocks (`agg = true`), where
//! the current block is excluded.
//!
//! The weighted scans walk matrix lines in canonical (ascending) order —
//! see [`crate::line`] — so a given random draw selects the same block on
//! every replica holding the same logical blockmodel, whatever storage
//! layout or move history produced it. This is one of the three
//! iteration sites the sharded ≡ monolithic bit-identity depends on (the
//! others are the ΔS kernels and the entropy sum).

use crate::blockmodel::Blockmodel;
use crate::delta::LineDelta;
use rand::Rng;
use sbp_graph::{Graph, Vertex, Weight};

/// Proposes a new block for vertex `v` (non-agglomerative: the current
/// block may be proposed, yielding a no-op move). `self_w` is `v`'s
/// self-loop weight (zero without one) as returned by
/// [`crate::delta::DeltaScratch::gather_vertex`] — a self-loop tells us
/// nothing about other blocks, so it is excluded from the neighbor draw.
///
/// Returns `None` for graphs with a single block (nothing to propose).
pub fn propose_for_vertex<R: Rng + ?Sized>(
    rng: &mut R,
    graph: &Graph,
    bm: &Blockmodel,
    v: Vertex,
    self_w: Weight,
) -> Option<u32> {
    let b = bm.num_blocks() as u32;
    if b <= 1 {
        return None;
    }
    debug_assert_eq!(
        self_w,
        graph
            .out_edges(v)
            .iter()
            .find(|e| e.0 == v)
            .map_or(0, |e| e.1),
        "self-loop weight of vertex {v}"
    );
    let d_excl = graph.degree(v) - 2 * self_w;
    if d_excl <= 0 {
        // Isolated (or self-loop-only) vertex: uniform proposal.
        return Some(rng.random_range(0..b));
    }
    // Pick the neighbor edge weight-proportionally via a two-pass scan.
    let mut x = rng.random_range(0..d_excl);
    let mut t = None;
    for &(u, w) in graph.out_edges(v).iter().chain(graph.in_edges(v)) {
        if u == v {
            continue;
        }
        if x < w {
            t = Some(bm.block_of(u));
            break;
        }
        x -= w;
    }
    let t = t.expect("weighted scan must terminate within total weight");
    Some(propose_from_anchor(rng, bm, t, None))
}

/// Proposes a merge target for block `r` (agglomerative: `r` itself is
/// excluded). Returns `None` when no distinct block exists.
pub fn propose_for_block<R: Rng + ?Sized>(rng: &mut R, bm: &Blockmodel, r: u32) -> Option<u32> {
    let b = bm.num_blocks() as u32;
    if b <= 1 {
        return None;
    }
    // Neighbor blocks of r with weights M[r][t] + M[t][r], diagonal
    // excluded: row r and column r sum to the block's degrees.
    let total = bm.d_total(r) - 2 * bm.get(r, r);
    debug_assert_eq!(
        total,
        bm.row_iter(r)
            .chain(bm.col_iter(r))
            .filter(|&(t, _)| t != r)
            .map(|(_, m)| m)
            .sum::<Weight>(),
        "off-diagonal mass of block {r}"
    );
    if total <= 0 {
        // Isolated block: uniform among the others.
        return Some(uniform_excluding(rng, b, r));
    }
    let mut x = rng.random_range(0..total);
    let mut t = None;
    'outer: {
        for (c, m) in bm.row_iter(r) {
            if c == r {
                continue;
            }
            if x < m {
                t = Some(c);
                break 'outer;
            }
            x -= m;
        }
        for (y, m) in bm.col_iter(r) {
            if y == r {
                continue;
            }
            if x < m {
                t = Some(y);
                break 'outer;
            }
            x -= m;
        }
    }
    let t = t.expect("weighted scan must terminate within total weight");
    Some(propose_from_anchor(rng, bm, t, Some(r)))
}

/// The second proposal stage shared by vertex moves and merges: given the
/// anchor block `t` (the block of the sampled neighbor), either jump
/// uniformly (probability `B/(d_t + B)`) or follow a random edge incident
/// to `t` in the blockmodel. `exclude` implements the agglomerative rule
/// that a block cannot merge into itself.
fn propose_from_anchor<R: Rng + ?Sized>(
    rng: &mut R,
    bm: &Blockmodel,
    t: u32,
    exclude: Option<u32>,
) -> u32 {
    let b = bm.num_blocks() as u32;
    let dt = bm.d_total(t);
    let uniform_p = b as f64 / (dt as f64 + b as f64);
    if dt == 0 || rng.random::<f64>() < uniform_p {
        return match exclude {
            Some(r) => uniform_excluding(rng, b, r),
            None => rng.random_range(0..b),
        };
    }
    // Multinomial over row t ++ col t (total mass d_total(t)).
    let mut x = rng.random_range(0..dt);
    let mut s = None;
    'outer: {
        for (c, m) in bm.row_iter(t) {
            if x < m {
                s = Some(c);
                break 'outer;
            }
            x -= m;
        }
        for (y, m) in bm.col_iter(t) {
            if x < m {
                s = Some(y);
                break 'outer;
            }
            x -= m;
        }
    }
    let s = s.expect("weighted scan must terminate within d_total(t)");
    match exclude {
        Some(r) if s == r => uniform_excluding(rng, b, r),
        _ => s,
    }
}

fn uniform_excluding<R: Rng + ?Sized>(rng: &mut R, b: u32, excl: u32) -> u32 {
    debug_assert!(b >= 2);
    let s = rng.random_range(0..b - 1);
    if s >= excl {
        s + 1
    } else {
        s
    }
}

/// The Metropolis–Hastings correction `p(s→r) / p(r→s)` for moving vertex
/// `v` from `r = delta.from` to `s = delta.to` (Graph-Challenge reference
/// formulation):
///
/// `p(r→s) ∝ Σ_t w_t · (M[t][s] + M[s][t] + 1) / (d_t + B)`
///
/// with `t` ranging over the blocks of `v`'s (non-self) neighbors, `w_t`
/// the edge weight between `v` and block `t`, forward evaluated on the
/// current matrix and backward on the post-move matrix implied by `delta`.
///
/// Thin wrapper over the reference kernel in [`crate::delta`]; sweep loops
/// get the same value from [`crate::delta::DeltaScratch::evaluate_move`].
pub fn hastings_correction(graph: &Graph, bm: &Blockmodel, v: Vertex, delta: &LineDelta) -> f64 {
    crate::delta::hastings_for_delta(graph, bm, v, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::vertex_move_delta;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn two_triangles() -> Graph {
        Graph::from_edges(
            6,
            vec![
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
                (2, 3, 1),
            ],
        )
    }

    #[test]
    fn vertex_proposals_are_in_range() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..500 {
            for v in 0..6u32 {
                let s = propose_for_vertex(&mut rng, &g, &bm, v, 0).unwrap();
                assert!(s < 2);
            }
        }
    }

    #[test]
    fn block_proposals_never_return_self() {
        let g = two_triangles();
        let bm = Blockmodel::identity(&g);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..500 {
            for r in 0..6u32 {
                let s = propose_for_block(&mut rng, &bm, r).unwrap();
                assert_ne!(s, r);
                assert!(s < 6);
            }
        }
    }

    #[test]
    fn single_block_proposals_return_none() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![0; 6], 1);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(propose_for_vertex(&mut rng, &g, &bm, 0, 0).is_none());
        assert!(propose_for_block(&mut rng, &bm, 0).is_none());
    }

    #[test]
    fn isolated_vertex_gets_uniform_proposals() {
        let g = Graph::from_edges(4, vec![(0, 1, 1), (1, 0, 1)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 1, 2, 3], 4);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..400 {
            seen[propose_for_vertex(&mut rng, &g, &bm, 3, 0).unwrap() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform proposal missed a block");
    }

    #[test]
    fn proposals_favor_connected_blocks() {
        // Vertex 2 sits in block 0 with an edge into block 1; block 2 is a
        // far-away clique it has no contact with. Proposals should hit
        // block 1 much more often than block 2.
        let mut edges = vec![
            (0, 1, 5),
            (1, 2, 5),
            (2, 0, 5),
            (3, 4, 5),
            (4, 5, 5),
            (5, 3, 5),
            (2, 3, 5),
        ];
        // A third clique 6,7,8 disconnected from everything.
        edges.extend_from_slice(&[(6, 7, 5), (7, 8, 5), (8, 6, 5)]);
        let g = Graph::from_edges(9, edges);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[propose_for_vertex(&mut rng, &g, &bm, 2, 0).unwrap() as usize] += 1;
        }
        assert!(
            counts[1] > 3 * counts[2],
            "connected block not favored: {counts:?}"
        );
    }

    #[test]
    fn hastings_correction_is_reciprocal() {
        // The correction for r→s evaluated pre-move must be the reciprocal
        // of the s→r correction evaluated post-move.
        let g = two_triangles();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let v = 2u32;
        let d_fwd = vertex_move_delta(&g, &bm, v, 1);
        let h_fwd = hastings_correction(&g, &bm, v, &d_fwd);
        bm.move_vertex(&g, v, 1);
        let d_bwd = vertex_move_delta(&g, &bm, v, 0);
        let h_bwd = hastings_correction(&g, &bm, v, &d_bwd);
        assert!(
            (h_fwd * h_bwd - 1.0).abs() < 1e-9,
            "h_fwd={h_fwd} h_bwd={h_bwd}"
        );
    }

    #[test]
    fn hastings_correction_positive_and_finite() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2], 3);
        for v in 0..6u32 {
            for to in 0..3u32 {
                if to == bm.block_of(v) {
                    continue;
                }
                let d = vertex_move_delta(&g, &bm, v, to);
                let h = hastings_correction(&g, &bm, v, &d);
                assert!(h.is_finite() && h > 0.0, "v={v} to={to}: h={h}");
            }
        }
    }

    #[test]
    fn uniform_excluding_never_returns_excluded() {
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..200 {
            for excl in 0..5u32 {
                let s = uniform_excluding(&mut rng, 5, excl);
                assert_ne!(s, excl);
                assert!(s < 5);
            }
        }
    }
}
