//! Partition extension: propagating block labels from a sampled subgraph
//! to the full graph.
//!
//! After SBP runs on the sample, every unsampled vertex receives the label
//! held by the weighted majority of its already-labeled neighbors,
//! processed in BFS order from the labeled frontier (so labels flow
//! outward through the graph). Vertices in components with no labeled
//! vertex at all fall back to the globally most common block — they carry
//! no structural information either way.

use sbp_graph::{Graph, Vertex};
use std::collections::{BTreeMap, VecDeque};

/// Extends a partial labeling to all vertices of `graph`.
///
/// * `sampled` — sorted vertex ids that already have labels;
/// * `sample_labels` — label of each sampled vertex (parallel array).
///
/// Returns a full assignment of length `graph.num_vertices()` whose labels
/// use the same label space.
///
/// # Panics
/// Panics if the input arrays differ in length or mention out-of-range
/// vertices.
pub fn extend_partition(graph: &Graph, sampled: &[Vertex], sample_labels: &[u32]) -> Vec<u32> {
    assert_eq!(
        sampled.len(),
        sample_labels.len(),
        "one label per sampled vertex"
    );
    let n = graph.num_vertices();
    let mut label: Vec<Option<u32>> = vec![None; n];
    for (&v, &l) in sampled.iter().zip(sample_labels.iter()) {
        assert!((v as usize) < n, "sampled vertex {v} out of range");
        label[v as usize] = Some(l);
    }
    if n == 0 {
        return Vec::new();
    }

    // BFS outward from every labeled vertex.
    let mut queue: VecDeque<Vertex> = sampled.iter().copied().collect();
    while let Some(v) = queue.pop_front() {
        let Some(_) = label[v as usize] else { continue };
        for (u, _) in graph.out_edges(v).chain(graph.in_edges(v)) {
            if label[u as usize].is_none() {
                if let Some(l) = majority_neighbor_label(graph, &label, u) {
                    label[u as usize] = Some(l);
                    queue.push_back(u);
                }
            }
        }
    }

    // Fallback for label-free components: the most common block.
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for l in label.iter().flatten() {
        *counts.entry(*l).or_insert(0) += 1;
    }
    let fallback = counts
        .iter()
        .max_by_key(|&(l, c)| (*c, std::cmp::Reverse(*l)))
        .map(|(&l, _)| l)
        .unwrap_or(0);
    label.into_iter().map(|l| l.unwrap_or(fallback)).collect()
}

/// The weighted majority label among `u`'s labeled neighbors (ties broken
/// toward the smaller label for determinism); `None` if no neighbor is
/// labeled yet.
fn majority_neighbor_label(graph: &Graph, label: &[Option<u32>], u: Vertex) -> Option<u32> {
    let mut votes: BTreeMap<u32, i64> = BTreeMap::new();
    for (w, wt) in graph.out_edges(u).chain(graph.in_edges(u)) {
        if let Some(l) = label[w as usize] {
            *votes.entry(l).or_insert(0) += wt;
        }
    }
    votes
        .into_iter()
        .max_by_key(|&(l, c)| (c, std::cmp::Reverse(l)))
        .map(|(l, _)| l)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by one edge.
    fn two_cliques() -> Graph {
        let k = 4u32;
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
        Graph::from_edges(8, edges)
    }

    #[test]
    fn extension_fills_every_vertex() {
        let g = two_cliques();
        let full = extend_partition(&g, &[0, 4], &[0, 1]);
        assert_eq!(full.len(), 8);
        // Each clique inherits its seed's label.
        assert!(full[..4].iter().all(|&l| l == 0), "{full:?}");
        assert!(full[4..].iter().all(|&l| l == 1), "{full:?}");
    }

    #[test]
    fn already_labeled_vertices_keep_labels() {
        let g = two_cliques();
        let sampled: Vec<u32> = (0..8).collect();
        let labels: Vec<u32> = vec![0, 0, 0, 0, 1, 1, 1, 1];
        assert_eq!(extend_partition(&g, &sampled, &labels), labels);
    }

    #[test]
    fn unreachable_component_gets_majority_fallback() {
        // Vertices 4..6 are an unlabeled separate component.
        let g = Graph::from_edges(7, vec![(0, 1, 1), (1, 2, 1), (4, 5, 1), (5, 6, 1)]);
        let full = extend_partition(&g, &[0, 1, 2, 3], &[7, 7, 7, 2]);
        assert_eq!(&full[..4], &[7, 7, 7, 2]);
        // Majority label is 7.
        assert!(full[4..].iter().all(|&l| l == 7), "{full:?}");
    }

    #[test]
    fn weighted_majority_wins() {
        // Vertex 2 has one heavy edge to label-1 vertex 1 and two light
        // edges to label-0 vertices 0 and 3.
        let g = Graph::from_edges(4, vec![(1, 2, 10), (0, 2, 1), (3, 2, 1)]);
        let full = extend_partition(&g, &[0, 1, 3], &[0, 1, 0]);
        assert_eq!(full[2], 1);
    }

    #[test]
    fn empty_graph_and_empty_sample() {
        let g = Graph::from_edges(0, Vec::new());
        assert!(extend_partition(&g, &[], &[]).is_empty());
        let g = Graph::from_edges(3, vec![(0, 1, 1)]);
        // No labels at all → everything falls back to label 0.
        assert_eq!(extend_partition(&g, &[], &[]), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "one label per sampled vertex")]
    fn mismatched_inputs_panic() {
        let g = two_cliques();
        extend_partition(&g, &[0, 1], &[0]);
    }
}
