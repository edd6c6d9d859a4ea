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
//!
//! ## Why a cell is 8 bytes
//!
//! A stored [`Cell`] is a `u32` key and a `u32` weight. A cell of the
//! block matrix counts a subset of the graph's arcs, so it never exceeds
//! the total edge weight `E`, and every graph is held to
//! `E ≤` [`sbp_graph::MAX_TOTAL_EDGE_WEIGHT`] `= 2³² − 1` where its input
//! arrives (the loaders and the delta ingest reject a heavier graph with a
//! typed error; `Graph::from_edges` and `Blockmodel::from_parts` assert
//! it). The line still speaks [`Weight`] (`i64`) at its boundary: reads
//! widen, writes narrow through a checked conversion and checked
//! arithmetic, which panic rather than wrap. So the kernels see the same
//! integers in the same order as with a 16-byte `(u32, i64)` cell, in half
//! the bytes — and every rank of a distributed run holds a full replica of
//! these lines, twice (rows and the transpose).
//!
//! The same invariant covers the dense storage of [`crate::Blockmodel`]:
//! a dense cell is the `u32` weight alone (its key is its slot), read and
//! written the same way, so the `C×C` matrix and its transpose take
//! `2·C²·4` bytes where `i64` cells took twice that.
//!
//! ## How much room a line keeps
//!
//! A line never holds more than `2·len + 8` cells of capacity. Three
//! constants set how, not a setting:
//!
//! * an insert into a full line reserves `max(len / 4, 4)` more cells — a
//!   quarter, where `Vec` would double;
//! * a fold ([`CanonicalLine::from_unsorted`], behind every rebuild and
//!   every merge) keeps its raw buffer, and a removal the line's, unless
//!   that leaves more than `2·len + 8` cells of capacity: then the line
//!   shrinks in place to `room(len) = len + max(len / 4, 4)`.
//!
//! So `capacity ≤ 2·len + 8` holds for every line at all times, asserted
//! after every change in debug builds and checked by
//! [`crate::Blockmodel::validate`]. Every rank of a distributed run holds a
//! full replica of these lines, so capacity is what the sparse phases pay
//! in memory. While inserts doubled and lines never shrank, the swept
//! `C = 750` model of a 3 000-vertex challenge graph held 0.71 MiB of
//! cells in 2.11 MiB of lines; it holds them in CAP750 MiB now.
//!
//! Doubling was dropped because a doubled line idles at up to half its
//! capacity, while a quarter more is still a geometric step, so inserts
//! stay amortised O(1). A fold shrinks only past the bound, not to
//! `room(len)` every time: shrinking every folded line cost a `realloc`
//! per line (a `C = 1 500` rebuild ran 14 % slower) and left merged lines
//! little headroom for the sweeps that follow, for no measurable change in
//! any benchmark workload's peak.
//!
//! A shrink leaves `room(len)`, never the exact length: a line cut to its
//! length reallocates on its first insert, and when the golden search once
//! carried such lines into its `C = 1 500` phase, the phase ran 10–35 %
//! slower. Only [`CanonicalLine::shrink_to_fit`] cuts a line exact, for a
//! model that is kept rather than swept (the search's resident bracket
//! models); the first insert into such a line then grows it by a quarter.
//! The model a search hands back is swept again (the daemon seeds its
//! next warm round from it), so [`CanonicalLine::restore_room`] gives its
//! lines `room(len)` back first; and a copy of a line keeps the room of
//! the line it copies.

use sbp_graph::Weight;

/// One stored cell: `(key, weight)`, the weight in `1..=u32::MAX`.
pub type Cell = (u32, u32);

/// `w` as a stored cell weight.
///
/// # Panics
/// Panics if `w` is outside `0..=u32::MAX`, which no cell of a graph
/// within [`sbp_graph::MAX_TOTAL_EDGE_WEIGHT`] can be.
#[inline]
pub(crate) fn narrow(w: Weight) -> u32 {
    u32::try_from(w).unwrap_or_else(|_| panic!("weight {w} does not fit a 32-bit cell"))
}

/// Adds `w` to a stored cell weight.
///
/// # Panics
/// Panics if the cell would pass `u32::MAX`.
#[inline]
pub(crate) fn add_to_cell(cell: &mut u32, w: u32) {
    *cell = cell.checked_add(w).expect("cell weight past u32::MAX");
}

/// Headroom, in quarters of the line's length, a line keeps.
const HEADROOM_DIVISOR: usize = 4;
/// The least headroom a line keeps, in cells.
const MIN_HEADROOM: usize = 4;
/// A fold or a removal that leaves more than `2·len + SHRINK_SLACK` cells of
/// capacity shrinks the line.
const SHRINK_SLACK: usize = 8;

/// Cells of headroom a line of `len` cells keeps.
fn headroom(len: usize) -> usize {
    (len / HEADROOM_DIVISOR).max(MIN_HEADROOM)
}

/// The capacity a line of `len` cells keeps: `len + max(len / 4, 4)`.
pub(crate) fn room(len: usize) -> usize {
    len + headroom(len)
}

/// Whether a line of `len` cells may hold `capacity`: the invariant
/// `capacity ≤ 2·len + 8` every [`CanonicalLine`] keeps.
pub(crate) fn within_room(len: usize, capacity: usize) -> bool {
    capacity <= 2 * len + SHRINK_SLACK
}

/// A sparse matrix line (row or column) holding `(key, weight)` cells
/// sorted ascending by key. All weights are kept strictly positive —
/// a cell that reaches zero is removed, so iteration never yields zeros
/// and `len` counts exactly the nonzero cells.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CanonicalLine {
    cells: Vec<Cell>,
}

/// A copy keeps the line's room, not just its cells: a copied model is
/// swept like the one it copies, and a line cut to its length reallocates
/// on its first insert.
impl Clone for CanonicalLine {
    fn clone(&self) -> Self {
        let mut cells = Vec::with_capacity(self.cells.capacity());
        cells.extend_from_slice(&self.cells);
        CanonicalLine { cells }
    }
}

impl CanonicalLine {
    /// An empty line.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a line from unsorted, possibly-duplicated positive
    /// contributions by sort-and-fold, in place — O(n log n) once, instead
    /// of O(n²) repeated sorted inserts, and no second buffer: the line
    /// keeps `raw`'s allocation, shrunk in place to `room(len)` when it
    /// holds more than `2·len + 8` cells. Entries with the same key
    /// accumulate.
    ///
    /// This is the rebuild-boundary constructor: `from_assignment` /
    /// `from_parts` gather each line's raw contributions and sort here,
    /// so full-matrix construction costs one sort per line.
    ///
    /// # Panics
    /// Panics if a key's contributions sum past `u32::MAX`.
    pub fn from_unsorted(mut raw: Vec<Cell>) -> Self {
        raw.sort_unstable_by_key(|e| e.0);
        raw.dedup_by(|cell, run| {
            let same = cell.0 == run.0;
            if same {
                add_to_cell(&mut run.1, cell.1);
            }
            same
        });
        Self::from_sorted(raw)
    }

    /// Wraps cells that are already canonical — strictly ascending keys,
    /// positive weights — keeping the vector's allocation, shrunk in place
    /// to `room(len)` when it holds more than `2·len + 8` cells.
    pub fn from_sorted(cells: Vec<Cell>) -> Self {
        debug_assert!(cells.windows(2).all(|w| w[0].0 < w[1].0), "keys ascending");
        debug_assert!(cells.iter().all(|&(_, w)| w > 0), "weights positive");
        let mut line = CanonicalLine { cells };
        line.trim();
        line
    }

    /// Shrinks the line in place to `room(len)` if it holds more than
    /// `2·len + 8` cells of capacity.
    fn trim(&mut self) {
        let len = self.cells.len();
        if !within_room(len, self.cells.capacity()) {
            self.cells.shrink_to(room(len));
        }
        self.debug_assert_room();
    }

    /// Wraps `cells` as they are, in any order — a line no public
    /// constructor can make, for tests of the checks that must reject it.
    #[cfg(test)]
    pub(crate) fn unchecked(cells: Vec<Cell>) -> Self {
        CanonicalLine { cells }
    }

    /// Drops the capacity inserts left beyond the line's length.
    pub fn shrink_to_fit(&mut self) {
        self.cells.shrink_to_fit();
    }

    /// Gives a line [`CanonicalLine::shrink_to_fit`] cut back the room a
    /// fold leaves it, `room(len)`, for a kept model that is swept again.
    pub fn restore_room(&mut self) {
        let len = self.cells.len();
        if self.cells.capacity() < room(len) {
            self.cells.reserve_exact(room(len) - len);
        }
    }

    /// Cells the line has room for without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cells.capacity()
    }

    #[inline]
    fn debug_assert_room(&self) {
        debug_assert!(
            within_room(self.cells.len(), self.cells.capacity()),
            "a line of {} cells holds capacity {}",
            self.cells.len(),
            self.cells.capacity()
        );
    }

    /// Weight at `key` (zero when absent). O(log n).
    #[inline]
    pub fn get(&self, key: u32) -> Weight {
        match self.cells.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => Weight::from(self.cells[i].1),
            Err(_) => 0,
        }
    }

    /// Adds `w > 0` to the cell at `key`, inserting it when absent.
    /// O(log n) search plus an O(n) shift on insert.
    ///
    /// # Panics
    /// Panics if the cell would pass `u32::MAX`.
    #[inline]
    pub fn add(&mut self, key: u32, w: Weight) {
        debug_assert!(w > 0, "add must receive positive weight, got {w}");
        let w = narrow(w);
        match self.cells.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => add_to_cell(&mut self.cells[i].1, w),
            Err(i) => {
                let len = self.cells.len();
                if len == self.cells.capacity() {
                    self.cells.reserve_exact(headroom(len));
                }
                self.cells.insert(i, (key, w));
                self.debug_assert_room();
            }
        }
    }

    /// Subtracts `w > 0` from the cell at `key`, removing it when it
    /// reaches zero — and shrinking the line back to `room(len)` when
    /// the removal leaves it holding more than `2·len + 8` cells.
    ///
    /// # Panics
    /// Panics if the cell is absent or would go negative — both mean the
    /// caller's bookkeeping is broken.
    #[inline]
    pub fn sub(&mut self, key: u32, w: Weight) {
        debug_assert!(w > 0, "sub must receive positive weight, got {w}");
        let i = self
            .cells
            .binary_search_by_key(&key, |e| e.0)
            .unwrap_or_else(|_| panic!("subtracting from empty cell {key}"));
        let e = &mut self.cells[i].1;
        *e = e
            .checked_sub(narrow(w))
            .unwrap_or_else(|| panic!("cell {key} went negative"));
        if *e == 0 {
            self.cells.remove(i);
            self.trim();
        }
    }

    /// The stored cells as a sorted slice — the canonical iteration order,
    /// for walks that widen the weights themselves.
    #[inline]
    pub fn as_slice(&self) -> &[Cell] {
        &self.cells
    }

    /// Iterates `(key, weight)` ascending by key.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, Weight)> + '_ {
        self.cells.iter().map(|&(k, w)| (k, Weight::from(w)))
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

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: Weight = u32::MAX as Weight;

    #[test]
    fn from_unsorted_folds_and_sorts() {
        let line = CanonicalLine::from_unsorted(vec![(5, 2), (1, 1), (5, 3), (9, 4), (1, 6)]);
        assert_eq!(line.as_slice(), &[(1, 7), (5, 5), (9, 4)]);
        assert_eq!(line.get(5), 5);
        assert_eq!(line.get(2), 0);
        assert_eq!(line.len(), 3);
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

    #[test]
    #[should_panic(expected = "went negative")]
    fn sub_past_zero_panics() {
        let mut line = CanonicalLine::from_unsorted(vec![(4, 2)]);
        line.sub(4, 3);
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
        let canon: Vec<_> = a.iter().collect();
        assert_eq!(canon, b.iter().collect::<Vec<_>>());
        assert_eq!(canon, c.iter().collect::<Vec<_>>());
        assert_eq!(
            canon,
            CanonicalLine::from_unsorted(vec![(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)])
                .iter()
                .collect::<Vec<_>>()
        );
    }

    /// A copy keeps the room of the line it copies; a cut line gets its
    /// room back.
    #[test]
    fn a_copy_keeps_the_room_and_a_cut_line_gets_it_back() {
        let mut line = CanonicalLine::from_unsorted(vec![(3, 1), (1, 1), (2, 1), (1, 2)]);
        let room = line.capacity();
        assert!(room > line.len());
        assert_eq!(line.clone().capacity(), room);
        line.shrink_to_fit();
        assert_eq!(line.clone().capacity(), line.len());
        line.restore_room();
        assert_eq!(line.capacity(), super::room(line.len()));
        assert_eq!(line.as_slice(), &[(1, 3), (2, 1), (3, 1)]);
    }

    #[test]
    fn a_stored_cell_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 8);
        let line = CanonicalLine::from_unsorted(vec![(3, 1), (1, 1), (2, 1)]);
        assert_eq!(std::mem::size_of_val(line.as_slice()), 3 * 8);
    }

    /// A cell folding to exactly `u32::MAX` — the heaviest a graph within
    /// the edge-weight limit can make — round-trips through every entry
    /// point and reads back exactly.
    #[test]
    fn a_cell_at_u32_max_round_trips() {
        let half = u32::MAX / 2;
        let line = CanonicalLine::from_unsorted(vec![(7, half), (2, 1), (7, half + 1)]);
        assert_eq!(line.get(7), MAX);
        assert_eq!(line.iter().collect::<Vec<_>>(), vec![(2, 1), (7, MAX)]);

        let mut line = CanonicalLine::new();
        line.add(7, MAX - 1);
        line.add(7, 1);
        assert_eq!(line.get(7), MAX);
        line.sub(7, MAX);
        assert!(line.is_empty());
        line.add(7, MAX);
        assert_eq!(line.as_slice(), &[(7, u32::MAX)]);
        line.sub(7, 1);
        assert_eq!(line.get(7), MAX - 1);
    }

    #[test]
    #[should_panic(expected = "past u32::MAX")]
    fn add_past_u32_max_panics_instead_of_wrapping() {
        let mut line = CanonicalLine::new();
        line.add(7, MAX);
        line.add(7, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit a 32-bit cell")]
    fn a_weight_past_u32_max_does_not_narrow() {
        CanonicalLine::new().add(0, MAX + 1);
    }

    #[test]
    #[should_panic(expected = "past u32::MAX")]
    fn a_fold_past_u32_max_panics() {
        CanonicalLine::from_unsorted(vec![(1, u32::MAX), (1, 1)]);
    }

    #[test]
    fn room_is_a_quarter_more_and_at_least_four() {
        for (len, want) in [(0, 4), (1, 5), (16, 20), (19, 23), (20, 25), (100, 125)] {
            assert_eq!(room(len), want, "len {len}");
        }
        assert!((0..10_000).all(|len| within_room(len, room(len))));
        assert!(within_room(10, 28) && !within_room(10, 29));
    }

    /// A fold keeps its raw buffer in place while that holds at most
    /// `2·len + 8` cells, and shrinks it to `room(len)` past that — however
    /// much the raw cells outnumber the folded ones.
    #[test]
    fn a_fold_shrinks_to_room_only_past_the_bound() {
        for (len, copies, shrinks) in [
            (0usize, 3usize, false),
            (1, 1, false),
            (1, 40, true),
            (7, 2, false),
            (64, 2, false),
            (64, 3, true),
            (300, 4, true),
        ] {
            let mut raw = Vec::with_capacity(len * copies + 3);
            for copy in 0..copies {
                raw.extend((0..len as u32).rev().map(|k| (k * 3, 1 + copy as u32)));
            }
            let held = raw.capacity();
            let line = CanonicalLine::from_unsorted(raw);
            assert_eq!(line.len(), len, "len {len} x {copies}");
            let want = if shrinks { room(len) } else { held };
            assert_eq!(line.capacity(), want, "len {len} x {copies}");
            assert!(within_room(len, line.capacity()));
        }
        let mut wide = Vec::with_capacity(100);
        wide.extend([(1, 1), (4, 2)]);
        assert_eq!(CanonicalLine::from_sorted(wide).capacity(), room(2));
    }

    /// Random add/sub sequences against a `BTreeMap`, cell for cell, with
    /// the room invariant after every operation — over lines that grow to
    /// hundreds of cells and drain back to none.
    #[test]
    fn random_churn_matches_a_btreemap_and_keeps_its_room() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = SmallRng::seed_from_u64(33);
        for round in 0..40u32 {
            let keys = 1 + rng.random_range(0..600u32);
            // Early rounds lean to adds (lines grow), later ones to subs.
            let add_share = if round % 2 == 0 { 0.7 } else { 0.35 };
            let mut line = if round % 3 == 0 {
                CanonicalLine::new()
            } else {
                let raw: Vec<Cell> = (0..rng.random_range(0..200usize))
                    .map(|_| (rng.random_range(0..keys), rng.random_range(1..4u32)))
                    .collect();
                CanonicalLine::from_unsorted(raw)
            };
            let mut reference: BTreeMap<u32, Weight> = line.iter().collect();
            for _ in 0..3_000 {
                let key = rng.random_range(0..keys);
                let held = reference.get(&key).copied().unwrap_or(0);
                if held == 0 || rng.random_bool(add_share) {
                    let w = rng.random_range(1..4i64);
                    line.add(key, w);
                    *reference.entry(key).or_insert(0) += w;
                } else {
                    let w = rng.random_range(1..=held);
                    line.sub(key, w);
                    if w == held {
                        reference.remove(&key);
                    } else {
                        reference.insert(key, held - w);
                    }
                }
                assert!(
                    within_room(line.len(), line.capacity()),
                    "round {round}: {} cells in capacity {}",
                    line.len(),
                    line.capacity()
                );
                assert_eq!(line.len(), reference.len());
            }
            let want: Vec<(u32, Weight)> = reference.iter().map(|(&k, &w)| (k, w)).collect();
            assert_eq!(line.iter().collect::<Vec<_>>(), want, "round {round}");
            // Drain the line to nothing: every removal keeps the room.
            for (k, w) in want {
                line.sub(k, w);
                assert!(within_room(line.len(), line.capacity()));
            }
            assert!(line.is_empty());
        }
    }

    /// An insert into a full line reserves a quarter more (at least four
    /// cells), not double.
    #[test]
    fn a_full_line_grows_by_a_quarter() {
        let mut line = CanonicalLine::new();
        let mut capacities = vec![line.capacity()];
        for k in 0..200u32 {
            line.add(k, 1);
            if line.capacity() != *capacities.last().expect("seeded") {
                capacities.push(line.capacity());
            }
        }
        assert_eq!(
            capacities,
            [0, 4, 8, 12, 16, 20, 25, 31, 38, 47, 58, 72, 90, 112, 140, 175, 218]
        );
        line.shrink_to_fit();
        assert_eq!(line.capacity(), 200);
        line.add(500, 1);
        assert_eq!(line.capacity(), 250);
    }
}
