//! Canonical sparse matrix lines: iteration order is a pure function of
//! the line's *contents*, never of its mutation history.
//!
//! ## Why canonical order is load-bearing
//!
//! Three observable computations iterate block-matrix lines: the weighted
//! proposal scans ([`crate::propose`]), the ΔS/Hastings kernels
//! ([`crate::delta`]), and the f64 entropy/description-length sums
//! ([`crate::Blockmodel::entropy`]). With hash-map rows those iterations
//! visit cells in layout order — a function of insertion history — so two
//! replicas holding the *same integers* could consume different weighted-
//! scan prefixes and accumulate the same entropy terms in different f64
//! order. That made the sharded ≡ monolithic EDiSt guarantee hold only in
//! the dense regime (`C ≤ 64`), where the flat array fixes the order.
//!
//! [`CanonicalLine`] closes that gap: a sorted `(key, weight)` vector whose
//! iteration is always ascending by key — exactly the order a dense line
//! scan produces — so every observable line walk is identical across
//! storage layouts and move histories.
//!
//! ## Why a sorted vector (and not a hash map with a sorted snapshot)
//!
//! Two canonical-line designs were benchmarked before this type shipped
//! (the `line/*` rows of the PR 4 addendum in `benchmarks/summary.md`
//! record the numbers; the losing `SnapshotLine` implementation was
//! retired once the design settled):
//!
//! * **sorted vec** (this type): O(log n) point lookups, O(n) memmove
//!   inserts, contiguous O(n) iteration;
//! * **hash map + sorted snapshot**: O(1) lookups/mutations, but
//!   iteration must rebuild a sorted snapshot whenever the key set
//!   changed — and the MCMC loop mutates the four affected lines between
//!   every pair of scans, so the snapshot is nearly always stale and the
//!   rebuild dominates (3.4× slower at 512-cell lines).
//!
//! Sparse lines in SBP are short (`E/C` cells on average; the identity
//! partition's lines are single-vertex adjacency lists), so the sorted
//! vec's O(n) insert is a small memmove while its iteration — the
//! operation the ΔS snapshot, proposal scans and entropy sums hammer —
//! is a linear slice walk with no hashing. The bulk constructor
//! ([`CanonicalLine::from_unsorted`]) amortizes the sort at
//! `compacted()`/rebuild boundaries, where every line is rebuilt anyway.

use sbp_graph::Weight;

/// A sparse matrix line (row or column) holding `(key, weight)` cells
/// sorted ascending by key. All weights are kept strictly positive —
/// a cell that reaches zero is removed, so iteration never yields zeros
/// and `len` counts exactly the nonzero cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CanonicalLine {
    cells: Vec<(u32, Weight)>,
}

impl CanonicalLine {
    /// An empty line.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a line from unsorted, possibly-duplicated contributions by
    /// sort-and-fold — O(n log n) once, instead of O(n²) repeated sorted
    /// inserts. Entries with the same key accumulate; keys that fold to
    /// zero (or arrive as zero) are dropped.
    ///
    /// This is the rebuild-boundary constructor: `from_assignment` /
    /// `from_parts` gather each line's raw contributions and sort here,
    /// so full-matrix construction costs one sort per line.
    pub fn from_unsorted(mut raw: Vec<(u32, Weight)>) -> Self {
        raw.sort_unstable_by_key(|e| e.0);
        let mut cells: Vec<(u32, Weight)> = Vec::with_capacity(raw.len());
        for (k, w) in raw {
            match cells.last_mut() {
                Some(last) if last.0 == k => last.1 += w,
                _ => cells.push((k, w)),
            }
        }
        cells.retain(|&(k, w)| {
            debug_assert!(w >= 0, "cell {k} folded to negative weight {w}");
            w != 0
        });
        CanonicalLine { cells }
    }

    /// Wraps cells that are already canonical — strictly ascending keys,
    /// positive weights — keeping the vector's allocation as it is.
    pub fn from_sorted(cells: Vec<(u32, Weight)>) -> Self {
        debug_assert!(cells.windows(2).all(|w| w[0].0 < w[1].0), "keys ascending");
        debug_assert!(cells.iter().all(|&(_, w)| w > 0), "weights positive");
        CanonicalLine { cells }
    }

    /// Drops the capacity inserts left beyond the line's length.
    pub fn shrink_to_fit(&mut self) {
        self.cells.shrink_to_fit();
    }

    /// Weight at `key` (zero when absent). O(log n).
    #[inline]
    pub fn get(&self, key: u32) -> Weight {
        match self.cells.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => self.cells[i].1,
            Err(_) => 0,
        }
    }

    /// Adds `w > 0` to the cell at `key`, inserting it when absent.
    /// O(log n) search plus an O(n) shift on insert.
    #[inline]
    pub fn add(&mut self, key: u32, w: Weight) {
        debug_assert!(w > 0, "add must receive positive weight, got {w}");
        match self.cells.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => self.cells[i].1 += w,
            Err(i) => self.cells.insert(i, (key, w)),
        }
    }

    /// Subtracts `w > 0` from the cell at `key`, removing it when it
    /// reaches zero.
    ///
    /// # Panics
    /// Panics if the cell is absent; debug-panics if it would go negative
    /// — both mean the caller's bookkeeping is broken.
    #[inline]
    pub fn sub(&mut self, key: u32, w: Weight) {
        debug_assert!(w > 0, "sub must receive positive weight, got {w}");
        let i = self
            .cells
            .binary_search_by_key(&key, |e| e.0)
            .unwrap_or_else(|_| panic!("subtracting from empty cell {key}"));
        let e = &mut self.cells[i].1;
        *e -= w;
        debug_assert!(*e >= 0, "cell {key} went negative");
        if *e == 0 {
            self.cells.remove(i);
        }
    }

    /// The cells as a sorted slice — the canonical iteration order.
    #[inline]
    pub fn as_slice(&self) -> &[(u32, Weight)] {
        &self.cells
    }

    /// Iterates `(key, weight)` ascending by key.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, (u32, Weight)> {
        self.cells.iter()
    }

    /// Number of nonzero cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the line has no nonzero cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl<'a> IntoIterator for &'a CanonicalLine {
    type Item = &'a (u32, Weight);
    type IntoIter = std::slice::Iter<'a, (u32, Weight)>;
    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_unsorted_folds_and_sorts() {
        let line = CanonicalLine::from_unsorted(vec![(5, 2), (1, 1), (5, 3), (9, 4), (1, -1)]);
        assert_eq!(line.as_slice(), &[(5, 5), (9, 4)]);
        assert_eq!(line.get(5), 5);
        assert_eq!(line.get(1), 0);
        assert_eq!(line.len(), 2);
    }

    #[test]
    fn add_keeps_sorted_order() {
        let mut line = CanonicalLine::new();
        for k in [7u32, 2, 9, 2, 0] {
            line.add(k, 1);
        }
        assert_eq!(line.as_slice(), &[(0, 1), (2, 2), (7, 1), (9, 1)]);
    }

    #[test]
    fn sub_removes_exhausted_cells() {
        let mut line = CanonicalLine::from_unsorted(vec![(1, 2), (3, 1)]);
        line.sub(1, 1);
        assert_eq!(line.get(1), 1);
        line.sub(1, 1);
        assert_eq!(line.as_slice(), &[(3, 1)]);
        assert!(!line.is_empty());
        line.sub(3, 1);
        assert!(line.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty cell")]
    fn sub_from_absent_cell_panics() {
        let mut line = CanonicalLine::new();
        line.sub(4, 1);
    }

    /// The canonical guarantee itself: any insertion history with the
    /// same net contents iterates identically.
    #[test]
    fn iteration_is_insertion_order_invariant() {
        let mut a = CanonicalLine::new();
        for k in [9u32, 1, 5, 3, 7] {
            a.add(k, i64::from(k) + 1);
        }
        let mut b = CanonicalLine::new();
        for k in [3u32, 7, 9, 5, 1] {
            b.add(k, i64::from(k) + 1);
        }
        // A third history: over-add then subtract back down.
        let mut c = CanonicalLine::new();
        for k in [5u32, 9, 3, 1, 7] {
            c.add(k, i64::from(k) + 3);
            c.sub(k, 2);
        }
        let canon: Vec<_> = a.iter().copied().collect();
        assert_eq!(canon, b.iter().copied().collect::<Vec<_>>());
        assert_eq!(canon, c.iter().copied().collect::<Vec<_>>());
        assert_eq!(
            canon,
            CanonicalLine::from_unsorted(vec![(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)])
                .iter()
                .copied()
                .collect::<Vec<_>>()
        );
    }
}
