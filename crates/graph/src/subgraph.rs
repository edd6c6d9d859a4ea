//! Induced subgraphs and the round-robin vertex distribution of DC-SBP.

use crate::{Graph, Vertex, Weight};

/// An induced subgraph together with the vertex maps relating it to its
/// parent graph.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The subgraph, with vertices relabeled `0..k`.
    pub graph: Graph,
    /// `local_to_global[new_id] = old_id` (sorted ascending).
    pub local_to_global: Vec<Vertex>,
}

impl InducedSubgraph {
    /// Maps a local vertex id back to the parent graph.
    #[inline]
    pub fn to_global(&self, local: Vertex) -> Vertex {
        self.local_to_global[local as usize]
    }
}

/// Builds the subgraph induced by `vertices` (need not be sorted; duplicates
/// are removed). Only edges with **both** endpoints in the set survive —
/// this is exactly the DC-SBP data distribution semantics that creates
/// island vertices on sparse graphs (paper §V-B).
pub fn induced_subgraph(graph: &Graph, vertices: &[Vertex]) -> InducedSubgraph {
    let mut local_to_global: Vec<Vertex> = vertices.to_vec();
    local_to_global.sort_unstable();
    local_to_global.dedup();

    // Dense old→new map; u32::MAX marks "absent".
    let mut global_to_local = vec![u32::MAX; graph.num_vertices()];
    for (new, &old) in local_to_global.iter().enumerate() {
        global_to_local[old as usize] = new as u32;
    }

    let mut edges: Vec<(Vertex, Vertex, Weight)> = Vec::new();
    for &old in &local_to_global {
        let src = global_to_local[old as usize];
        for (dst_old, w) in graph.out_edges(old) {
            let dst = global_to_local[dst_old as usize];
            if dst != u32::MAX {
                edges.push((src, dst, w));
            }
        }
    }
    let graph = Graph::from_edges(local_to_global.len(), edges);
    InducedSubgraph {
        graph,
        local_to_global,
    }
}

/// The round-robin vertex distribution of DC-SBP (Alg. 3 line 1): vertex `v`
/// is assigned to part `v mod n_parts`. Returns one sorted vertex list per
/// part; every part is non-empty as long as `n_parts <= num_vertices`.
pub fn round_robin_parts(num_vertices: usize, n_parts: usize) -> Vec<Vec<Vertex>> {
    assert!(n_parts > 0, "need at least one part");
    let mut parts = vec![Vec::with_capacity(num_vertices / n_parts + 1); n_parts];
    for v in 0..num_vertices as Vertex {
        parts[v as usize % n_parts].push(v);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        // 0 -> 1 -> 2 -> 3
        Graph::from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    }

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = path4();
        let sub = induced_subgraph(&g, &[1, 2]);
        assert_eq!(sub.graph.num_vertices(), 2);
        // Only 1->2 survives; relabeled as 0->1.
        assert_eq!(sub.graph.arcs().collect::<Vec<_>>(), vec![(0, 1, 1)]);
        assert_eq!(sub.to_global(0), 1);
        assert_eq!(sub.to_global(1), 2);
        assert_eq!(sub.local_to_global, vec![1, 2]);
    }

    #[test]
    fn induced_handles_unsorted_duplicate_input() {
        let g = path4();
        let sub = induced_subgraph(&g, &[3, 1, 3, 2]);
        assert_eq!(sub.local_to_global, vec![1, 2, 3]);
        assert_eq!(sub.graph.total_edge_weight(), 2); // 1->2, 2->3
    }

    #[test]
    fn induced_creates_islands_from_cut_edges() {
        let g = path4();
        // Vertices 0 and 2 share no edge: both become islands.
        let sub = induced_subgraph(&g, &[0, 2]);
        assert_eq!(sub.graph.total_edge_weight(), 0);
        assert_eq!(sub.graph.degree(0), 0);
        assert_eq!(sub.graph.degree(1), 0);
    }

    #[test]
    fn round_robin_covers_all_vertices_once() {
        let parts = round_robin_parts(10, 3);
        assert_eq!(parts.len(), 3);
        let mut all: Vec<Vertex> = parts.concat();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert_eq!(parts[0], vec![0, 3, 6, 9]);
        assert_eq!(parts[1], vec![1, 4, 7]);
        assert_eq!(parts[2], vec![2, 5, 8]);
    }

    #[test]
    fn round_robin_more_parts_than_vertices() {
        let parts = round_robin_parts(2, 4);
        assert_eq!(parts[0], vec![0]);
        assert_eq!(parts[1], vec![1]);
        assert!(parts[2].is_empty() && parts[3].is_empty());
    }

    #[test]
    fn induced_on_empty_set() {
        let g = path4();
        let sub = induced_subgraph(&g, &[]);
        assert_eq!(sub.graph.num_vertices(), 0);
    }
}
