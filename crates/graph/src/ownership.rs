//! Vertex-ownership schemes (paper §III-B), shared by the distributed
//! drivers in `sbp-dist` and the shard planner in [`crate::shard`].
//!
//! EDiSt partitions *work*, not data: the ownership scheme decides which
//! rank proposes moves for which vertices, which controls load balance and
//! therefore the BSP makespan. The sharded ingest path reuses the same
//! schemes to decide which rank's `.sbps` shard an edge lands in (an edge
//! belongs to the owner of its source vertex), so a distributed load ends
//! with exactly the vertex sets an in-memory EDiSt run would own.

use crate::{Graph, Vertex};

/// How vertices are assigned to ranks (or shards).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OwnershipStrategy {
    /// `v mod n` — cheap, oblivious to degree skew; identical to DC-SBP's
    /// round-robin distribution.
    Modulo,
    /// Sorted-degree balanced (the paper's scheme): vertices are sorted by
    /// descending degree and greedily assigned to the rank with the least
    /// accumulated degree mass — an LPT bound on per-rank work imbalance.
    #[default]
    SortedBalanced,
}

impl OwnershipStrategy {
    /// Materializes the per-rank owned vertex lists.
    pub fn partition(self, graph: &Graph, n_parts: usize) -> Vec<Vec<Vertex>> {
        match self {
            OwnershipStrategy::Modulo => modulo_ownership(graph.num_vertices(), n_parts),
            OwnershipStrategy::SortedBalanced => balanced_ownership(graph, n_parts),
        }
    }

    /// Stable one-byte code used by the `.sbps` shard header.
    pub fn code(self) -> u8 {
        match self {
            OwnershipStrategy::Modulo => 0,
            OwnershipStrategy::SortedBalanced => 1,
        }
    }

    /// Inverts [`OwnershipStrategy::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(OwnershipStrategy::Modulo),
            1 => Some(OwnershipStrategy::SortedBalanced),
            _ => None,
        }
    }
}

/// `v mod n` ownership; identical to DC-SBP's round-robin distribution.
pub fn modulo_ownership(num_vertices: usize, n_parts: usize) -> Vec<Vec<Vertex>> {
    crate::subgraph::round_robin_parts(num_vertices, n_parts)
}

/// Sorted-degree balanced ownership: descending-degree greedy assignment to
/// the rank with the smallest accumulated (weighted) degree. Deterministic:
/// ties break on the lower vertex id and the lower rank id. Each returned
/// part is sorted ascending.
pub fn balanced_ownership(graph: &Graph, n_parts: usize) -> Vec<Vec<Vertex>> {
    balanced_ownership_by_degree(graph.num_vertices(), |v| graph.degree(v), n_parts)
}

/// The same LPT scheme over an explicit degree function instead of a
/// materialized [`Graph`] — the building block for two-pass streamed
/// balanced sharding (count degrees, then bucket; a ROADMAP open item).
/// [`balanced_ownership`] is a thin wrapper over it.
pub fn balanced_ownership_by_degree(
    num_vertices: usize,
    degree: impl Fn(Vertex) -> crate::Weight,
    n_parts: usize,
) -> Vec<Vec<Vertex>> {
    assert!(n_parts > 0, "need at least one part");
    let mut order: Vec<Vertex> = (0..num_vertices as Vertex).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v));
    let mut load = vec![0i64; n_parts];
    let mut parts: Vec<Vec<Vertex>> = vec![Vec::with_capacity(num_vertices / n_parts + 1); n_parts];
    for v in order {
        let target = (0..n_parts)
            .min_by_key(|&p| (load[p], p))
            .expect("n_parts > 0");
        // Count degree-0 vertices as one unit so islands also spread.
        load[target] += degree(v).max(1);
        parts[target].push(v);
    }
    for part in &mut parts {
        part.sort_unstable();
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_plus_path() -> Graph {
        // Vertex 0 is a hub of degree 6; 7..10 form a light path.
        let mut edges = vec![];
        for i in 1..7u32 {
            edges.push((0, i, 1));
        }
        edges.push((7, 8, 1));
        edges.push((8, 9, 1));
        Graph::from_edges(10, edges)
    }

    #[test]
    fn balanced_covers_every_vertex_exactly_once() {
        let g = star_plus_path();
        let parts = balanced_ownership(&g, 3);
        let mut all: Vec<Vertex> = parts.concat();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn balanced_spreads_degree_mass_better_than_modulo() {
        let g = star_plus_path();
        let mass = |parts: &[Vec<Vertex>]| -> (i64, i64) {
            let loads: Vec<i64> = parts
                .iter()
                .map(|p| p.iter().map(|&v| g.degree(v)).sum())
                .collect();
            (
                loads.iter().copied().max().unwrap_or(0),
                loads.iter().copied().min().unwrap_or(0),
            )
        };
        let (bal_max, _) = mass(&balanced_ownership(&g, 2));
        let (mod_max, _) = mass(&modulo_ownership(g.num_vertices(), 2));
        assert!(
            bal_max <= mod_max,
            "balanced ({bal_max}) worse than modulo ({mod_max})"
        );
    }

    #[test]
    fn balanced_is_deterministic() {
        let g = star_plus_path();
        assert_eq!(balanced_ownership(&g, 4), balanced_ownership(&g, 4));
    }

    #[test]
    fn single_part_owns_everything() {
        let g = star_plus_path();
        let parts = balanced_ownership(&g, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn strategies_partition_every_vertex() {
        let g = Graph::from_edges(4, vec![(0, 1, 5), (2, 3, 1)]);
        let parts = OwnershipStrategy::SortedBalanced.partition(&g, 2);
        let mut all: Vec<u32> = parts.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert_eq!(modulo_ownership(4, 2), vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(balanced_ownership(&g, 2).len(), 2);
    }

    #[test]
    fn degree_table_variant_matches_graph_variant() {
        let g = star_plus_path();
        let by_table = balanced_ownership_by_degree(g.num_vertices(), |v| g.degree(v), 3);
        assert_eq!(by_table, balanced_ownership(&g, 3));
    }

    #[test]
    fn strategy_codes_roundtrip() {
        for s in [OwnershipStrategy::Modulo, OwnershipStrategy::SortedBalanced] {
            assert_eq!(OwnershipStrategy::from_code(s.code()), Some(s));
        }
        assert_eq!(OwnershipStrategy::from_code(9), None);
    }
}
