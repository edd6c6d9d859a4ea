//! The immutable CSR graph used throughout the workspace.

use crate::{Vertex, Weight};

/// The largest total edge weight `E` a [`Graph`] may carry: `2³² − 1`.
///
/// An arc, and a cell of a blockmodel, which counts a subset of the arcs,
/// never weigh more than `E`; under this bound each fits the 32 bits a
/// [`Graph`] arc and a blockmodel cell, dense or sparse, store per weight. Each door
/// a graph arrives through rejects a heavier one with a typed error — the
/// file readers in [`crate::io`], the sharded loader,
/// [`Graph::apply_edge_deltas`] — and [`Graph::from_edges`] asserts it.
pub const MAX_TOTAL_EDGE_WEIGHT: Weight = u32::MAX as Weight;

/// `total + w` while the sum stays within [`MAX_TOTAL_EDGE_WEIGHT`]:
/// `None` once a running edge-weight total would pass it.
#[inline]
pub fn add_edge_weight(total: Weight, w: Weight) -> Option<Weight> {
    total.checked_add(w).filter(|&t| t <= MAX_TOTAL_EDGE_WEIGHT)
}

/// A signed change to one arc's weight: `delta > 0` adds weight (creating
/// the arc if absent), `delta < 0` removes weight (deleting the arc when
/// the result reaches zero). Used by [`Graph::apply_edge_deltas`] and the
/// `sbp-serve` ingest path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Source endpoint.
    pub src: Vertex,
    /// Destination endpoint.
    pub dst: Vertex,
    /// Signed weight change; must be non-zero.
    pub delta: Weight,
}

/// Why a batch of [`EdgeDelta`]s was rejected. The graph is left untouched
/// on error — deltas are validated against the merged result before any
/// mutation happens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphDeltaError {
    /// An endpoint is `>= num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: Vertex,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// A delta has `delta == 0`, which is meaningless and almost certainly
    /// an encoding bug upstream.
    ZeroDelta {
        /// Source endpoint of the offending delta.
        src: Vertex,
        /// Destination endpoint of the offending delta.
        dst: Vertex,
    },
    /// Applying the batch would drive an arc's weight below zero.
    NegativeWeight {
        /// Source endpoint of the offending arc.
        src: Vertex,
        /// Destination endpoint of the offending arc.
        dst: Vertex,
        /// The (negative) weight the arc would end up with.
        resulting: Weight,
    },
    /// Applying the batch would take the total edge weight past
    /// [`MAX_TOTAL_EDGE_WEIGHT`]. A batch holding a single delta beyond
    /// that bound in magnitude is refused the same way, whatever its sum:
    /// no arc can absorb it.
    TotalWeightOverflow {
        /// `E` plus every delta of the batch.
        total: i128,
    },
}

impl std::fmt::Display for GraphDeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphDeltaError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for {num_vertices} vertices"
            ),
            GraphDeltaError::ZeroDelta { src, dst } => {
                write!(f, "zero-weight delta on arc ({src}, {dst})")
            }
            GraphDeltaError::NegativeWeight {
                src,
                dst,
                resulting,
            } => write!(
                f,
                "arc ({src}, {dst}) would end up with negative weight {resulting}"
            ),
            GraphDeltaError::TotalWeightOverflow { total } => write!(
                f,
                "batch would take the total edge weight to {total}, past the limit \
                 {MAX_TOTAL_EDGE_WEIGHT} (no delta may exceed it in magnitude either)"
            ),
        }
    }
}

impl std::error::Error for GraphDeltaError {}

/// One stored arc: the other endpoint and the weight in 32 bits (see
/// [`Graph`] for why the weight fits).
type Arc = (Vertex, u32);

const _: () = assert!(std::mem::size_of::<Arc>() == 8);

/// Widens a stored arc to the `(neighbor, Weight)` pair the API hands out.
#[inline]
fn widen(&(u, w): &Arc) -> (Vertex, Weight) {
    (u, Weight::from(w))
}

/// A directed, integer-weighted graph in compressed sparse row form.
///
/// Both the forward (out-edge) and the reverse (in-edge) adjacency are
/// stored, because blockmodel inference needs to walk a vertex's in- and
/// out-neighborhood for every proposal (paper §II-C: "the algorithm needs
/// access to at least two rows and two columns of the SBM matrix").
///
/// An arc is stored as `(neighbor: u32, weight: u32)`, 8 bytes, once in
/// each direction. The weight is narrowed when an arc is written and
/// widened to [`Weight`] when it is read, so every caller sees `i64`s. The
/// narrowing is sound because an arc weighs at most the total edge weight,
/// which every graph holds to [`MAX_TOTAL_EDGE_WEIGHT`] `= u32::MAX`.
///
/// Invariants (checked in debug builds and by `validate`):
/// * adjacency lists are sorted by neighbor id and contain no duplicates
///   (parallel edges are merged into weights at construction);
/// * all weights are strictly positive;
/// * the reverse adjacency is exactly the transpose of the forward one;
/// * `total_edge_weight == Σ out_degree == Σ in_degree ≤ MAX_TOTAL_EDGE_WEIGHT`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    num_vertices: usize,
    /// `out_adj[out_offsets[v]..out_offsets[v+1]]` = out-edges of `v`.
    out_offsets: Vec<usize>,
    out_adj: Vec<Arc>,
    in_offsets: Vec<usize>,
    in_adj: Vec<Arc>,
    out_degree: Vec<Weight>,
    in_degree: Vec<Weight>,
    total_edge_weight: Weight,
}

impl Graph {
    /// Builds a graph from an edge stream. Duplicate `(src, dst)` arcs are
    /// merged by summing their weights. Self-loops are allowed and count
    /// toward both the out- and in-degree of their vertex.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= num_vertices`, any weight is `<= 0`,
    /// or the weights sum past [`MAX_TOTAL_EDGE_WEIGHT`].
    pub fn from_edges<I>(num_vertices: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (Vertex, Vertex, Weight)>,
    {
        let mut list: Vec<(Vertex, Vertex, Weight)> = edges.into_iter().collect();
        let mut total: Weight = 0;
        for &(s, d, w) in &list {
            assert!(
                (s as usize) < num_vertices && (d as usize) < num_vertices,
                "edge ({s}, {d}) out of range for {num_vertices} vertices"
            );
            assert!(w > 0, "edge ({s}, {d}) has non-positive weight {w}");
            total = add_edge_weight(total, w).unwrap_or_else(|| {
                panic!("edge ({s}, {d}) takes the total weight past {MAX_TOTAL_EDGE_WEIGHT}")
            });
        }
        list.sort_unstable_by_key(|&(s, d, _)| (s, d));
        // Merge parallel arcs.
        let mut merged: Vec<(Vertex, Vertex, Weight)> = Vec::with_capacity(list.len());
        for (s, d, w) in list {
            match merged.last_mut() {
                Some(&mut (ps, pd, ref mut pw)) if ps == s && pd == d => *pw += w,
                _ => merged.push((s, d, w)),
            }
        }
        Self::from_sorted_dedup_edges(num_vertices, merged)
    }

    fn from_sorted_dedup_edges(num_vertices: usize, merged: Vec<(Vertex, Vertex, Weight)>) -> Self {
        let n = num_vertices;
        let mut out_counts = vec![0usize; n];
        let mut in_counts = vec![0usize; n];
        let mut out_degree = vec![0 as Weight; n];
        let mut in_degree = vec![0 as Weight; n];
        let mut total = 0 as Weight;
        for &(s, d, w) in &merged {
            out_counts[s as usize] += 1;
            in_counts[d as usize] += 1;
            out_degree[s as usize] += w;
            in_degree[d as usize] += w;
            total += w;
        }
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        out_offsets.push(0);
        for c in &out_counts {
            acc += c;
            out_offsets.push(acc);
        }
        let mut in_offsets = Vec::with_capacity(n + 1);
        acc = 0;
        in_offsets.push(0);
        for c in &in_counts {
            acc += c;
            in_offsets.push(acc);
        }
        // Forward adjacency: `merged` is already sorted by (src, dst).
        let narrow = |w| u32::try_from(w).expect("an arc weighs at most E ≤ MAX_TOTAL_EDGE_WEIGHT");
        let out_adj: Vec<Arc> = merged.iter().map(|&(_, d, w)| (d, narrow(w))).collect();
        // Reverse adjacency by counting sort on dst; sources arrive in
        // ascending order because `merged` is sorted by (src, dst), so each
        // in-list ends up sorted by source id.
        let mut in_adj: Vec<Arc> = vec![(0, 0); merged.len()];
        let mut cursor = in_offsets.clone();
        for (&(s, d, _), &(_, w)) in merged.iter().zip(&out_adj) {
            let slot = cursor[d as usize];
            in_adj[slot] = (s, w);
            cursor[d as usize] += 1;
        }
        let g = Graph {
            num_vertices: n,
            out_offsets,
            out_adj,
            in_offsets,
            in_adj,
            out_degree,
            in_degree,
            total_edge_weight: total,
        };
        debug_assert!(g.validate().is_ok());
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of distinct arcs (merged parallel edges count once).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out_adj.len()
    }

    /// Total edge weight `E` — the paper's edge count (parallel edges
    /// contribute their multiplicity).
    #[inline]
    pub fn total_edge_weight(&self) -> Weight {
        self.total_edge_weight
    }

    /// Out-edges of `v` as `(target, weight)` pairs, sorted by target.
    #[inline]
    pub fn out_edges(
        &self,
        v: Vertex,
    ) -> impl ExactSizeIterator<Item = (Vertex, Weight)> + Clone + '_ {
        arcs_of(&self.out_offsets, &self.out_adj, v)
            .iter()
            .map(widen)
    }

    /// In-edges of `v` as `(source, weight)` pairs, sorted by source.
    #[inline]
    pub fn in_edges(
        &self,
        v: Vertex,
    ) -> impl ExactSizeIterator<Item = (Vertex, Weight)> + Clone + '_ {
        arcs_of(&self.in_offsets, &self.in_adj, v).iter().map(widen)
    }

    /// Weighted out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: Vertex) -> Weight {
        self.out_degree[v as usize]
    }

    /// Weighted in-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: Vertex) -> Weight {
        self.in_degree[v as usize]
    }

    /// Weighted total degree of `v` (out + in; a self-loop counts twice,
    /// consistent with the DCSBM degree convention).
    #[inline]
    pub fn degree(&self, v: Vertex) -> Weight {
        self.out_degree[v as usize] + self.in_degree[v as usize]
    }

    /// Weight of the arc `(v, v)`, zero without one: one binary search of
    /// `v`'s out-edges, which are sorted by target.
    #[inline]
    pub fn self_loop_weight(&self, v: Vertex) -> Weight {
        arc_slot(&self.out_offsets, &self.out_adj, v, v).map_or(0, |i| self.out_adj[i].1.into())
    }

    /// Iterator over all arcs as `(src, dst, weight)`.
    pub fn arcs(&self) -> impl Iterator<Item = (Vertex, Vertex, Weight)> + '_ {
        (0..self.num_vertices as Vertex)
            .flat_map(move |v| self.out_edges(v).map(move |(d, w)| (v, d, w)))
    }

    /// Applies a batch of signed arc-weight deltas. Deltas on the same arc
    /// accumulate; an arc whose merged weight reaches exactly zero is
    /// removed. A batch that only re-weights existing arcs (every net delta
    /// lands on an arc and leaves it at weight ≥ 1 — a resident daemon's
    /// steady state) is written into the CSR arrays and degree vectors where
    /// they are; one that inserts or removes an arc rebuilds them.
    ///
    /// Validation is all-or-nothing: the batch is checked against the merged
    /// result first, and on any error the graph is left exactly as it was.
    /// A valid batch leaves `E + Σ delta` as the total edge weight, so that
    /// sum is held to [`MAX_TOTAL_EDGE_WEIGHT`] before anything else.
    pub fn apply_edge_deltas(&mut self, deltas: &[EdgeDelta]) -> Result<(), GraphDeltaError> {
        let n = self.num_vertices;
        for d in deltas {
            for v in [d.src, d.dst] {
                if (v as usize) >= n {
                    return Err(GraphDeltaError::VertexOutOfRange {
                        vertex: v,
                        num_vertices: n,
                    });
                }
            }
            if d.delta == 0 {
                return Err(GraphDeltaError::ZeroDelta {
                    src: d.src,
                    dst: d.dst,
                });
            }
        }
        let total = deltas.iter().map(|d| i128::from(d.delta)).sum::<i128>()
            + i128::from(self.total_edge_weight);
        let oversized = |d: &EdgeDelta| d.delta.unsigned_abs() > MAX_TOTAL_EDGE_WEIGHT as u64;
        if total > i128::from(MAX_TOTAL_EDGE_WEIGHT) || deltas.iter().any(oversized) {
            return Err(GraphDeltaError::TotalWeightOverflow { total });
        }
        // Collapse the batch to one net delta per arc.
        let mut net: Vec<(Vertex, Vertex, Weight)> =
            deltas.iter().map(|d| (d.src, d.dst, d.delta)).collect();
        net.sort_unstable_by_key(|&(s, d, _)| (s, d));
        net.dedup_by(|cur, acc| {
            if acc.0 == cur.0 && acc.1 == cur.1 {
                acc.2 += cur.2;
                true
            } else {
                false
            }
        });
        net.retain(|&(_, _, w)| w != 0);
        if net.is_empty() {
            return Ok(());
        }
        // No arc appears or disappears: the offsets stand, only weights and
        // degrees move. Every slot is found before any is written. A weight
        // outside `1..=u32::MAX` goes to the rebuild below. One past
        // `u32::MAX` cannot stand there either: if every other arc stayed
        // positive, it would outweigh the total the check above held to
        // the limit, so some arc goes negative and the batch is refused.
        let slots: Option<Vec<(usize, u32)>> = net
            .iter()
            .map(|&(s, d, dw)| {
                let i = arc_slot(&self.out_offsets, &self.out_adj, s, d)?;
                let weight = Weight::from(self.out_adj[i].1).checked_add(dw)?;
                let weight = u32::try_from(weight).ok()?;
                (weight >= 1).then_some((i, weight))
            })
            .collect();
        if let Some(slots) = slots {
            for (&(s, d, dw), &(i, weight)) in net.iter().zip(&slots) {
                let j = arc_slot(&self.in_offsets, &self.in_adj, d, s)
                    .expect("the reverse adjacency is the transpose of the forward one");
                self.out_adj[i].1 = weight;
                self.in_adj[j].1 = weight;
                self.out_degree[s as usize] += dw;
                self.in_degree[d as usize] += dw;
                self.total_edge_weight += dw;
            }
            debug_assert!(self.validate().is_ok());
            return Ok(());
        }
        // Merge with the existing sorted arc stream, checking signs before
        // touching `self`.
        let mut merged: Vec<(Vertex, Vertex, Weight)> =
            Vec::with_capacity(self.num_arcs() + net.len());
        let mut di = net.iter().peekable();
        for (s, d, w) in self.arcs() {
            while let Some(&&(ds, dd, dw)) = di.peek() {
                if (ds, dd) < (s, d) {
                    // Pure insertion: the arc does not exist yet.
                    if dw < 0 {
                        return Err(GraphDeltaError::NegativeWeight {
                            src: ds,
                            dst: dd,
                            resulting: dw,
                        });
                    }
                    merged.push((ds, dd, dw));
                    di.next();
                } else {
                    break;
                }
            }
            let w = match di.peek() {
                Some(&&(ds, dd, dw)) if (ds, dd) == (s, d) => {
                    di.next();
                    let new_w = w + dw;
                    if new_w < 0 {
                        return Err(GraphDeltaError::NegativeWeight {
                            src: s,
                            dst: d,
                            resulting: new_w,
                        });
                    }
                    new_w
                }
                _ => w,
            };
            if w > 0 {
                merged.push((s, d, w));
            }
        }
        for &(ds, dd, dw) in di {
            if dw < 0 {
                return Err(GraphDeltaError::NegativeWeight {
                    src: ds,
                    dst: dd,
                    resulting: dw,
                });
            }
            merged.push((ds, dd, dw));
        }
        *self = Self::from_sorted_dedup_edges(n, merged);
        Ok(())
    }

    /// Checks every structural invariant; returns a description of the first
    /// violation. Intended for tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices;
        let sides = [
            ("out", &self.out_offsets, &self.out_adj, &self.out_degree),
            ("in", &self.in_offsets, &self.in_adj, &self.in_degree),
        ];
        for (side, offsets, adj, degree) in sides {
            if offsets.len() != n + 1
                || offsets[0] != 0
                || offsets[n] != adj.len()
                || offsets.windows(2).any(|o| o[0] > o[1])
                || degree.len() != n
            {
                return Err(format!("{side}-offsets/degrees do not fit {n} vertices"));
            }
            for v in 0..n as Vertex {
                let arcs = arcs_of(offsets, adj, v);
                let weight: Weight = arcs.iter().map(|&(_, w)| Weight::from(w)).sum();
                if arcs.windows(2).any(|a| a[0].0 >= a[1].0)
                    || arcs.iter().any(|&(u, w)| u as usize >= n || w == 0)
                    || weight != degree[v as usize]
                {
                    return Err(format!("bad {side}-adjacency or {side}-degree at {v}"));
                }
            }
            if degree.iter().sum::<Weight>() != self.total_edge_weight {
                return Err(format!("Σ {side}-degree ≠ total edge weight"));
            }
        }
        if self.total_edge_weight > MAX_TOTAL_EDGE_WEIGHT {
            return Err("total edge weight past the limit".into());
        }
        if self.in_adj.len() != self.out_adj.len() {
            return Err("in- and out-adjacency hold different numbers of arcs".into());
        }
        // Every out-arc is among the in-arcs with its weight. The lists are
        // sorted and de-duplicated, so that match is one-to-one, and there
        // are as many in-arcs as out-arcs: the in-lists hold nothing else.
        for v in 0..n as Vertex {
            for &(d, w) in arcs_of(&self.out_offsets, &self.out_adj, v) {
                let found =
                    arc_slot(&self.in_offsets, &self.in_adj, d, v).map(|i| self.in_adj[i].1);
                if found != Some(w) {
                    return Err(format!("arc ({v},{d}) missing/mismatched in transpose"));
                }
            }
        }
        Ok(())
    }
}

/// `v`'s arcs: its slice of `adj` under `offsets`.
#[inline]
fn arcs_of<'a>(offsets: &[usize], adj: &'a [Arc], v: Vertex) -> &'a [Arc] {
    &adj[offsets[v as usize]..offsets[v as usize + 1]]
}

/// Index into `adj` of `v`'s edge to (or from) `other`, if it has one: a
/// binary search of `v`'s slice, which is sorted by the other endpoint.
#[inline]
fn arc_slot(offsets: &[usize], adj: &[Arc], v: Vertex, other: Vertex) -> Option<usize> {
    arcs_of(offsets, adj, v)
        .binary_search_by_key(&other, |e| e.0)
        .ok()
        .map(|i| offsets[v as usize] + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, vec![(0, 1, 1), (1, 2, 2), (2, 0, 3)])
    }

    #[test]
    fn basic_construction() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_arcs(), 3);
        assert_eq!(g.total_edge_weight(), 6);
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, 1)]);
        assert_eq!(g.in_edges(0).collect::<Vec<_>>(), [(2, 3)]);
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.degree(1), 3);
        g.validate().unwrap();
    }

    #[test]
    fn parallel_edges_merge() {
        let g = Graph::from_edges(2, vec![(0, 1, 1), (0, 1, 4), (1, 0, 2)]);
        assert_eq!(g.num_arcs(), 2);
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, 5)]);
        assert_eq!(g.total_edge_weight(), 7);
        g.validate().unwrap();
    }

    #[test]
    fn self_loop_counts_twice_in_degree() {
        let g = Graph::from_edges(1, vec![(0, 0, 2)]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 2);
        assert_eq!(g.degree(0), 4);
        g.validate().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(5, Vec::new());
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.total_edge_weight(), 0);
        assert_eq!(g.out_edges(3).len(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::from_edges(0, Vec::new());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.arcs().count(), 0);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, vec![(0, 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "non-positive weight")]
    fn zero_weight_panics() {
        Graph::from_edges(2, vec![(0, 1, 0)]);
    }

    #[test]
    fn arcs_iterator_matches_adjacency() {
        let g = triangle();
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(0, 1, 1), (1, 2, 2), (2, 0, 3)]);
    }

    #[test]
    fn in_adjacency_sorted_by_source() {
        let g = Graph::from_edges(4, vec![(3, 0, 1), (1, 0, 1), (2, 0, 1)]);
        assert_eq!(g.in_edges(0).collect::<Vec<_>>(), [(1, 1), (2, 1), (3, 1)]);
        g.validate().unwrap();
    }

    fn delta(src: Vertex, dst: Vertex, delta: Weight) -> EdgeDelta {
        EdgeDelta { src, dst, delta }
    }

    #[test]
    fn deltas_add_remove_and_adjust_arcs() {
        let mut g = triangle();
        g.apply_edge_deltas(&[
            delta(0, 2, 4),  // new arc
            delta(1, 2, -2), // remove arc (weight 2 → 0)
            delta(2, 0, -1), // adjust arc (weight 3 → 2)
        ])
        .unwrap();
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, 1), (2, 4)]);
        assert_eq!(g.out_edges(1).len(), 0);
        assert_eq!(g.out_edges(2).collect::<Vec<_>>(), [(0, 2)]);
        assert_eq!(g.total_edge_weight(), 7);
        assert_eq!(g.out_degree(0), 5);
        assert_eq!(g.in_degree(2), 4);
        g.validate().unwrap();
    }

    #[test]
    fn deltas_on_same_arc_accumulate() {
        let mut g = Graph::from_edges(2, vec![(0, 1, 1)]);
        g.apply_edge_deltas(&[
            delta(0, 1, 3),
            delta(0, 1, -2),
            delta(1, 0, 1),
            delta(1, 0, -1),
        ])
        .unwrap();
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, 2)]);
        assert_eq!(g.out_edges(1).len(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn delta_errors_leave_graph_untouched() {
        let mut g = triangle();
        let before = g.clone();
        assert_eq!(
            g.apply_edge_deltas(&[delta(0, 3, 1)]),
            Err(GraphDeltaError::VertexOutOfRange {
                vertex: 3,
                num_vertices: 3
            })
        );
        assert_eq!(
            g.apply_edge_deltas(&[delta(0, 1, 0)]),
            Err(GraphDeltaError::ZeroDelta { src: 0, dst: 1 })
        );
        assert_eq!(
            g.apply_edge_deltas(&[delta(0, 1, 5), delta(1, 2, -3)]),
            Err(GraphDeltaError::NegativeWeight {
                src: 1,
                dst: 2,
                resulting: -1
            })
        );
        assert_eq!(
            g.apply_edge_deltas(&[delta(0, 0, -1)]),
            Err(GraphDeltaError::NegativeWeight {
                src: 0,
                dst: 0,
                resulting: -1
            })
        );
        assert_eq!(g, before);
    }

    #[test]
    #[should_panic(expected = "takes the total weight past")]
    fn from_edges_asserts_the_total_weight_limit() {
        Graph::from_edges(2, vec![(0, 1, MAX_TOTAL_EDGE_WEIGHT), (1, 0, 1)]);
    }

    /// A batch that would take `E` past the limit is refused whole — by
    /// its sum, or by one delta too large for any arc — and the graph is
    /// left as it was; a batch landing exactly on the limit applies.
    #[test]
    fn deltas_past_the_total_weight_limit_leave_graph_untouched() {
        let mut g = triangle();
        let before = g.clone();
        let room = MAX_TOTAL_EDGE_WEIGHT - g.total_edge_weight();
        let overflow = |total: Weight| GraphDeltaError::TotalWeightOverflow {
            total: i128::from(total),
        };
        assert_eq!(
            g.apply_edge_deltas(&[delta(0, 1, room), delta(1, 2, 1)]),
            Err(overflow(MAX_TOTAL_EDGE_WEIGHT + 1))
        );
        assert_eq!(
            g.apply_edge_deltas(&[
                delta(0, 1, MAX_TOTAL_EDGE_WEIGHT + 1),
                delta(0, 1, -MAX_TOTAL_EDGE_WEIGHT)
            ]),
            Err(overflow(7))
        );
        assert_eq!(
            g.apply_edge_deltas(&[delta(0, 1, i64::MAX), delta(0, 1, i64::MAX)]),
            Err(GraphDeltaError::TotalWeightOverflow {
                total: 2 * i128::from(i64::MAX) + 6
            })
        );
        assert_eq!(g, before);
        g.apply_edge_deltas(&[delta(0, 1, room)]).unwrap();
        assert_eq!(g.total_edge_weight(), MAX_TOTAL_EDGE_WEIGHT);
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, 1 + room)]);
    }

    /// An arc, and separately a self-loop, weighing exactly the limit —
    /// the widest weight an 8-byte arc stores — reads back whole through
    /// every accessor.
    #[test]
    fn arcs_at_the_weight_limit_round_trip() {
        let max = MAX_TOTAL_EDGE_WEIGHT;
        let g = Graph::from_edges(3, vec![(0, 1, max)]);
        g.validate().unwrap();
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, max)]);
        assert_eq!(g.in_edges(1).collect::<Vec<_>>(), [(0, max)]);
        assert_eq!((g.self_loop_weight(0), g.self_loop_weight(1)), (0, 0));
        assert_eq!((g.degree(0), g.degree(1), g.degree(2)), (max, max, 0));
        assert_eq!(g.arcs().collect::<Vec<_>>(), [(0, 1, max)]);

        let g = Graph::from_edges(2, vec![(1, 1, max)]);
        g.validate().unwrap();
        assert_eq!(g.out_edges(1).collect::<Vec<_>>(), [(1, max)]);
        assert_eq!(g.in_edges(1).collect::<Vec<_>>(), [(1, max)]);
        assert_eq!(g.self_loop_weight(1), max);
        assert_eq!(g.degree(1), 2 * max);
        assert_eq!(g.arcs().collect::<Vec<_>>(), [(1, 1, max)]);
    }

    /// In-place re-weighting takes an arc and a self-loop up to the limit
    /// and back down, landing on what `from_edges` builds each time. Net
    /// deltas that would take one arc past 32 bits while another goes
    /// negative are refused, with the graph untouched.
    #[test]
    fn reweighting_in_place_reaches_the_weight_limit_and_back() {
        let max = MAX_TOTAL_EDGE_WEIGHT;
        for (s, d) in [(0, 1), (1, 1)] {
            let start = Graph::from_edges(2, vec![(s, d, 1)]);
            let mut g = start.clone();
            g.apply_edge_deltas(&[delta(s, d, max - 1)]).unwrap();
            assert_eq!(g, Graph::from_edges(2, vec![(s, d, max)]));
            assert_eq!(g.out_edges(s).collect::<Vec<_>>(), [(d, max)]);
            g.apply_edge_deltas(&[delta(s, d, 1 - max)]).unwrap();
            assert_eq!(g, start);
        }

        let mut g = Graph::from_edges(3, vec![(0, 1, 1), (1, 2, max - 1)]);
        let before = g.clone();
        assert_eq!(
            g.apply_edge_deltas(&[
                delta(0, 1, max),
                delta(0, 1, max),
                delta(1, 2, -max),
                delta(1, 2, -max),
            ]),
            Err(GraphDeltaError::NegativeWeight {
                src: 1,
                dst: 2,
                resulting: -max - 1
            })
        );
        assert_eq!(g, before);
    }

    /// `validate` holds the in-lists to exactly the transpose: a stray
    /// in-arc, with the in-degree bumped to match it or with zero weight,
    /// is caught although every out-arc is still found among the in-arcs.
    #[test]
    fn validate_rejects_a_stray_in_arc() {
        let g = triangle();
        // In-lists of the triangle: 0 ← 2 (3), 1 ← 0 (1), 2 ← 1 (2).
        let stray = Graph {
            in_offsets: vec![0, 2, 3, 4],
            in_adj: vec![(1, 4), (2, 3), (0, 1), (1, 2)],
            in_degree: vec![7, 1, 2],
            ..g.clone()
        };
        assert!(stray.validate().is_err());
        let zero = Graph {
            in_offsets: vec![0, 2, 3, 4],
            in_adj: vec![(1, 0), (2, 3), (0, 1), (1, 2)],
            ..g
        };
        assert!(zero.validate().is_err());
    }

    /// A batch that only re-weights existing arcs is written in place; the
    /// same batch with an arc insertion riding along (taken out again by a
    /// second batch) goes through the merge-and-rebuild path twice. Both
    /// must land on the graph `from_edges` builds from the expected arcs.
    #[test]
    fn reweighting_in_place_equals_the_rebuild() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for round in 0..40 {
            let n = 12u32;
            let mut edges: Vec<(Vertex, Vertex, Weight)> = (0..50)
                .map(|_| {
                    (
                        next(n as u64) as Vertex,
                        next(n as u64) as Vertex,
                        1 + next(4) as Weight,
                    )
                })
                .collect();
            edges.retain(|&(s, d, _)| (s, d) != (0, 1));
            let start = Graph::from_edges(n as usize, edges);
            let arcs: Vec<_> = start.arcs().collect();
            // Up to three deltas per picked arc, never below weight 1 in
            // total; self-loops and repeated arcs included.
            let mut left: Vec<Weight> = arcs.iter().map(|a| a.2).collect();
            let mut batch = Vec::new();
            for _ in 0..1 + next(12) {
                let i = next(arcs.len() as u64) as usize;
                let dw = if left[i] > 1 && next(2) == 0 {
                    -(1 + next(left[i] as u64 - 1) as Weight)
                } else {
                    1 + next(3) as Weight
                };
                left[i] += dw;
                batch.push(delta(arcs[i].0, arcs[i].1, dw));
            }
            let want = Graph::from_edges(
                n as usize,
                arcs.iter().zip(&left).map(|(a, &w)| (a.0, a.1, w)),
            );

            let mut in_place = start.clone();
            in_place.apply_edge_deltas(&batch).unwrap();
            in_place.validate().unwrap();
            assert_eq!(in_place, want, "round {round}, in place");

            let mut rebuilt = start.clone();
            batch.push(delta(0, 1, 1));
            rebuilt.apply_edge_deltas(&batch).unwrap();
            rebuilt.apply_edge_deltas(&[delta(0, 1, -1)]).unwrap();
            rebuilt.validate().unwrap();
            assert_eq!(rebuilt, want, "round {round}, rebuilt");
        }
    }

    /// A batch whose first arcs could be re-weighted in place and whose
    /// last one cannot be applied at all changes nothing.
    #[test]
    fn rejected_reweighting_leaves_graph_untouched() {
        let mut g = triangle();
        let before = g.clone();
        assert_eq!(
            g.apply_edge_deltas(&[delta(0, 1, 2), delta(1, 2, 1), delta(2, 0, -4)]),
            Err(GraphDeltaError::NegativeWeight {
                src: 2,
                dst: 0,
                resulting: -1
            })
        );
        assert_eq!(
            g.apply_edge_deltas(&[delta(0, 1, 2), delta(2, 0, -1), delta(1, 3, 1)]),
            Err(GraphDeltaError::VertexOutOfRange {
                vertex: 3,
                num_vertices: 3
            })
        );
        assert_eq!(g, before);
        // The same arcs, within what they hold: applied, and in place.
        g.apply_edge_deltas(&[delta(0, 1, 2), delta(1, 2, 1), delta(2, 0, -2)])
            .unwrap();
        assert_eq!(
            g,
            Graph::from_edges(3, vec![(0, 1, 3), (1, 2, 3), (2, 0, 1)])
        );
    }

    #[test]
    fn deltas_rebuild_matches_from_edges() {
        let mut g = Graph::from_edges(5, vec![(0, 1, 2), (1, 2, 1), (4, 0, 3)]);
        g.apply_edge_deltas(&[delta(2, 3, 1), delta(4, 0, -3), delta(0, 1, 1)])
            .unwrap();
        let rebuilt = Graph::from_edges(5, vec![(0, 1, 3), (1, 2, 1), (2, 3, 1)]);
        assert_eq!(g, rebuilt);
    }
}
