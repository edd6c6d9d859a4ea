//! Incremental graph construction.

use crate::{Graph, Vertex, Weight};

/// Accumulates edges (with automatic vertex-count tracking) and freezes them
/// into an immutable [`Graph`].
///
/// The builder is the mutation boundary of the crate: everything downstream
/// of [`GraphBuilder::build`] works on immutable CSR data, which is what
/// lets rank threads in the distributed algorithms share one `Arc<Graph>`
/// without synchronization.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(Vertex, Vertex, Weight)>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that will produce a graph with at least
    /// `num_vertices` vertices even if some of them have no edges.
    pub fn with_vertices(num_vertices: usize) -> Self {
        GraphBuilder {
            edges: Vec::new(),
            min_vertices: num_vertices,
        }
    }

    /// Pre-allocates space for `n` additional edges.
    pub fn reserve(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Adds a weighted arc. Duplicates are merged at build time.
    pub fn add_edge(&mut self, src: Vertex, dst: Vertex, weight: Weight) -> &mut Self {
        self.edges.push((src, dst, weight));
        self
    }

    /// Adds an unweighted arc (weight 1).
    pub fn add_arc(&mut self, src: Vertex, dst: Vertex) -> &mut Self {
        self.add_edge(src, dst, 1)
    }

    /// Ensures the built graph has at least `n` vertices.
    pub fn ensure_vertices(&mut self, n: usize) -> &mut Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Number of (unmerged) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Freezes into an immutable [`Graph`]. The vertex count is the maximum
    /// of `with_vertices`/`ensure_vertices` and `1 + max endpoint id`.
    pub fn build(self) -> Graph {
        let max_endpoint = self
            .edges
            .iter()
            .map(|&(s, d, _)| s.max(d) as usize + 1)
            .max()
            .unwrap_or(0);
        let n = self.min_vertices.max(max_endpoint);
        Graph::from_edges(n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_vertex_count() {
        let mut b = GraphBuilder::new();
        b.add_arc(0, 7).add_arc(7, 3);
        let g = b.build();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.total_edge_weight(), 2);
    }

    #[test]
    fn builder_respects_min_vertices() {
        let mut b = GraphBuilder::with_vertices(10);
        b.add_arc(0, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn builder_merges_duplicates() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 2).add_edge(0, 1, 3);
        let g = b.build();
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, 5)]);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn ensure_vertices_grows_only() {
        let mut b = GraphBuilder::with_vertices(5);
        b.ensure_vertices(3);
        assert_eq!(b.clone().build().num_vertices(), 5);
        b.ensure_vertices(12);
        assert_eq!(b.build().num_vertices(), 12);
    }
}
