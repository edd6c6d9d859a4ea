//! Shared test fixtures.
//!
//! These graphs appear in test suites across the workspace (core, dist,
//! sample, and the facade's equivalence suite); defining them once here
//! keeps every suite testing the *same* structure. [`two_cliques`] is the
//! dense-regime fixture (`2k ≤ 64` keeps the blockmodel on flat storage
//! for the whole run); [`clique_ring`] is its sparse-regime dual, sized
//! so the golden-search trajectory never *leaves* sparse storage — the
//! regime the canonical-line bit-identity suites exercise.

use crate::Graph;

/// Two directed `k`-cliques joined by a single bridge arc `0 → k`:
/// `2k` vertices whose planted partition is
/// `[0; k] ++ [1; k]`. The canonical well-separated fixture — every
/// sane seed recovers exactly two blocks.
pub fn two_cliques(k: u32) -> Graph {
    let mut edges = Vec::new();
    for i in 0..k {
        for j in 0..k {
            if i != j {
                edges.push((i, j, 1));
                edges.push((k + i, k + j, 1));
            }
        }
    }
    edges.push((0, k, 1));
    Graph::from_edges(2 * k as usize, edges)
}

/// A ring of `n` directed triangles: 3n vertices, each triangle fully
/// wired (6 arcs) plus one bridge arc to the next triangle — the
/// canonical **sparse-regime** fixture, dual to [`two_cliques`].
///
/// Its arc count is `7n` against an identity partition of `C = 3n`
/// blocks, so the early agglomerative iterations run far below the
/// auto-dense occupancy bar (`E ≥ C²/8`). The sparse-regime bit-identity
/// suites run the golden search with `max_iterations` capped at the
/// first two halvings, so the *entire executed trajectory*
/// (`C ∈ {3n, 3n/2, 3n/4}`) stays above the `C > 64` cutoff on sparse
/// storage — at `n = 120` (360 vertices, 840 arcs) the lowest visited
/// count is `C = 90`, whose dense bar `90²/8 = 1012` still exceeds `E`.
/// The suites assert this trajectory property rather than assuming it.
/// Uncapped, the search descends through the storage switch into a
/// dense endgame (the DL optimum of a test-sized graph sits below 64
/// blocks — the DCSBM resolution limit), which is exactly what the
/// mixed-regime equivalence test wants.
pub fn clique_ring(n: u32) -> Graph {
    assert!(n >= 2, "a ring needs at least two triangles");
    let mut edges = Vec::new();
    for t in 0..n {
        let base = 3 * t;
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    edges.push((base + i, base + j, 1));
                }
            }
        }
        edges.push((base, (base + 3) % (3 * n), 1));
    }
    Graph::from_edges(3 * n as usize, edges)
}

/// The planted partition of [`clique_ring`]: vertex `v` belongs to block
/// `v / 3`.
pub fn clique_ring_truth(n: u32) -> Vec<u32> {
    (0..3 * n).map(|v| v / 3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cliques_shape() {
        let g = two_cliques(4);
        assert_eq!(g.num_vertices(), 8);
        // 2 · k·(k−1) intra-clique arcs + 1 bridge.
        assert_eq!(g.num_arcs(), 2 * 12 + 1);
        assert_eq!(g.degree(0), g.degree(1) + 1, "bridge endpoint is heavier");
    }

    #[test]
    fn clique_ring_shape() {
        let g = clique_ring(120);
        assert_eq!(g.num_vertices(), 360);
        // 6 intra-triangle arcs + 1 bridge per triangle.
        assert_eq!(g.num_arcs(), 840);
        let truth = clique_ring_truth(120);
        assert_eq!(truth.len(), 360);
        assert_eq!(truth[0], truth[2]);
        assert_ne!(truth[2], truth[3]);
        // The sparse-regime property the fixture exists for: every block
        // count the capped golden search visits (identity 360 down to the
        // second halving at 90) is above the dense cutoff with occupancy
        // below the auto-dense bar. This hand-copies the auto rule
        // because sbp-graph sits below sbp-core in the crate graph; the
        // authoritative check against `sbp_core::auto_picks_dense` runs
        // in the facade's sparse-regime suites (tests/common/mod.rs),
        // which would fail loudly if the rule ever drifted from this.
        let e = g.total_edge_weight();
        for c in 90..=360i64 {
            assert!(c > 64 && 4 * e < c * c, "C={c} would go dense");
        }
    }

    #[test]
    fn clique_ring_wraps_around() {
        let g = clique_ring(3);
        // Last triangle bridges back to vertex 0.
        assert!(g.out_edges(6).any(|(d, _)| d == 0), "ring must close");
    }
}
