//! Island-vertex census (paper Fig. 2).
//!
//! The paper attributes DC-SBP's convergence failures to *island vertices*:
//! vertices that lose every incident edge when the graph is split into
//! induced round-robin subgraphs. This module computes that census without
//! materializing the subgraphs.

use crate::{Graph, Vertex};

/// Summary of the islands induced by a round-robin distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IslandReport {
    /// Number of parts the graph was (virtually) split into.
    pub n_parts: usize,
    /// Vertices with zero surviving edges across all parts.
    pub islands: usize,
    /// Total vertices.
    pub vertices: usize,
}

impl IslandReport {
    /// Island fraction in `[0, 1]`; the paper reports NMI collapsing past
    /// roughly 20% islands.
    pub fn fraction(&self) -> f64 {
        if self.vertices == 0 {
            0.0
        } else {
            self.islands as f64 / self.vertices as f64
        }
    }
}

/// Number of vertices of `graph` that have no incident edges at all
/// (degree-0 in the undirected sense).
pub fn island_count(graph: &Graph) -> usize {
    (0..graph.num_vertices() as Vertex)
        .filter(|&v| graph.degree(v) == 0)
        .count()
}

/// Counts the vertices that become islands when the graph is split into
/// `n_parts` induced subgraphs by the round-robin rule `part(v) = v mod n`.
///
/// A vertex is an island iff it has no neighbor (in either direction) in its
/// own part. Self-loops keep a vertex non-island (the edge survives).
pub fn island_fraction_round_robin(graph: &Graph, n_parts: usize) -> IslandReport {
    assert!(n_parts > 0);
    let n = graph.num_vertices();
    let mut islands = 0usize;
    for v in 0..n as Vertex {
        let part = v as usize % n_parts;
        let has_internal = graph
            .out_edges(v)
            .chain(graph.in_edges(v))
            .any(|(u, _)| u as usize % n_parts == part);
        if !has_internal {
            islands += 1;
        }
    }
    IslandReport {
        n_parts,
        islands,
        vertices: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::{induced_subgraph, round_robin_parts};

    #[test]
    fn isolated_vertices_are_islands() {
        let g = Graph::from_edges(4, vec![(0, 1, 1)]);
        assert_eq!(island_count(&g), 2); // vertices 2 and 3
    }

    #[test]
    fn self_loop_is_not_an_island() {
        let g = Graph::from_edges(2, vec![(0, 0, 1)]);
        assert_eq!(island_count(&g), 1); // only vertex 1
        let rep = island_fraction_round_robin(&g, 2);
        assert_eq!(rep.islands, 1);
    }

    #[test]
    fn one_part_matches_plain_island_count() {
        let g = Graph::from_edges(5, vec![(0, 1, 1), (2, 3, 1)]);
        let rep = island_fraction_round_robin(&g, 1);
        assert_eq!(rep.islands, island_count(&g));
        assert_eq!(rep.islands, 1);
    }

    #[test]
    fn path_graph_two_parts_all_islands() {
        // 0->1->2->3: under 2 parts {0,2} and {1,3}, every edge is cut.
        let g = Graph::from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let rep = island_fraction_round_robin(&g, 2);
        assert_eq!(rep.islands, 4);
        assert!((rep.fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn census_matches_materialized_subgraphs() {
        // Random-ish fixed graph; verify the O(E) census equals actually
        // building the induced subgraphs and counting degree-0 vertices.
        let edges = vec![
            (0, 1, 1),
            (1, 2, 1),
            (2, 0, 1),
            (3, 4, 1),
            (4, 5, 1),
            (5, 3, 1),
            (0, 3, 1),
            (6, 0, 1),
            (7, 7, 1),
        ];
        let g = Graph::from_edges(9, edges);
        for n_parts in 1..=5 {
            let rep = island_fraction_round_robin(&g, n_parts);
            let mut expected = 0usize;
            for part in round_robin_parts(g.num_vertices(), n_parts) {
                let sub = induced_subgraph(&g, &part);
                expected += island_count(&sub.graph);
            }
            assert_eq!(rep.islands, expected, "n_parts={n_parts}");
        }
    }

    #[test]
    fn empty_graph_report() {
        let g = Graph::from_edges(0, Vec::new());
        let rep = island_fraction_round_robin(&g, 3);
        assert_eq!(rep.fraction(), 0.0);
    }
}
