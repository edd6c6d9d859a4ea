//! The degree-corrected stochastic blockmodel state, with **adaptive**
//! dense/sparse storage for the inter-block edge-count matrix `M`.
//!
//! ## Storage layer
//!
//! The agglomerative search spends most of its wall-clock time at small
//! block counts (the endgame after the first few halvings), where a flat
//! `C×C` array beats per-row sparse structures on every axis: O(1) `get`,
//! contiguous line scans for the ΔS kernel, and zero per-cell allocation.
//! At large `C` (early iterations start at `C = V`) the dense array would
//! be quadratic in memory, so rows are [`crate::line::CanonicalLine`]s —
//! sorted vectors of 8-byte `(block, weight)` cells — with a stored
//! transpose: the paper's §III-A optimizations (a) and (b).
//!
//! Either way a stored weight is a `u32` (the module docs of
//! [`crate::line`] say why it cannot overflow): a dense cell is 4 bytes, so
//! the matrix and its transpose take `2·C²·4` bytes (1.07 MiB at
//! `C = 375`), and every rank of a distributed run holds a replica. Every
//! accessor speaks [`Weight`]: reads widen, writes narrow through checked
//! arithmetic, which panics rather than wraps — and a cell driven below
//! zero panics in every build, naming the cell, on either storage.
//!
//! [`Blockmodel::from_assignment`] picks the representation from the block
//! count `C` and total edge weight `E` alone — dense iff `C ≤ 64`, or
//! `C ≤ 1024` and `4·E ≥ C²` (see [`auto_picks_dense`]) — and
//! [`Blockmodel::merged`], which folds a model into the one a merge phase
//! leaves behind, picks by the same rule on the new `C`.
//! Since the representation is fixed at construction, the switch happens
//! exactly at those boundaries between iterations — never mid-sweep. Both
//! representations expose the same iteration API
//! ([`Blockmodel::row_iter`] / [`Blockmodel::col_iter`]) and are checked
//! against each other by property tests.
//!
//! ## Canonical line iteration
//!
//! Every iteration over a matrix line visits cells **ascending by block
//! id**, under either representation, whatever sequence of moves produced
//! the state. This is a correctness guarantee, not a convenience: the
//! weighted proposal scans, the ΔS/Hastings kernels, and the f64 entropy
//! sums all consume line iterations, so a history-dependent order would
//! make floating-point results depend on storage layout — which is what
//! previously limited the sharded ≡ monolithic EDiSt bit-identity to the
//! dense regime (`C ≤ 64`). With canonical lines the guarantee is
//! unconditional; `prop_core` asserts iteration-order invariance and
//! dense/sparse agreement down to the bit.
//!
//! ## Cached logarithms
//!
//! Every ΔS term needs `ln(d_out)`/`ln(d_in)` of the blocks on its line.
//! Degrees change only for the two blocks involved in a move, so the `ln`
//! vectors are maintained incrementally by [`Blockmodel::move_vertex`] and
//! the hot path pays one `ln` per *cell* (for `ln M_ij`) instead of three.
//!
//! Invariant maintained by every mutator: the storage, degree vectors and
//! `ln` caches always equal what [`Blockmodel::from_assignment`] would
//! rebuild from the current assignment. `validate` checks this in tests.

use crate::line::{add_to_cell, narrow, room, within_room, CanonicalLine, Cell};
use crate::model_description_length;
use rayon::prelude::*;
use sbp_graph::{EdgeDelta, Graph, Vertex, Weight};

/// Rows per chunk of the fixed-shape entropy reduction (see
/// [`Blockmodel::entropy`]). The chunk layout is a function of the block
/// count **only** — never of the worker count — so the f64 combination
/// order, and therefore every entropy/DL bit, is identical at any
/// `SBP_THREADS`. 64 rows keeps single-chunk (bit-for-bit legacy) sums
/// for the dense endgame while giving large sparse matrices enough
/// chunks to parallelize.
const ENTROPY_CHUNK_ROWS: usize = 64;

/// At or below this block count [`StorageKind::Auto`] is always dense: the
/// endgame regime, where matrix and transpose are 32 KiB at most.
const DENSE_ALWAYS_BLOCKS: usize = 64;

/// Above this block count [`StorageKind::Auto`] is always sparse: a dense
/// blockmodel is `2·C²·4` bytes (8 MiB here).
const DENSE_MAX_BLOCKS: usize = 1024;

/// What [`StorageKind::Auto`] selects for a blockmodel of `num_blocks`
/// blocks over `total_edge_weight`: dense iff `C ≤ 64`, or `C ≤ 1024` and
/// `4·E ≥ C²` (mean cell occupancy `E/C²` of at least ¼ — a dense line scan
/// only beats sparse-line iteration when the lines are populated; the
/// identity partition at `C = V` must stay sparse).
///
/// The rule reads nothing but its two integer arguments, and that is
/// load-bearing: a merge ΔS rounds differently on the two storages
/// (`crate::delta`, "the accumulation-order contract") and merge candidates
/// are ranked by it, so replicas of one blockmodel — ranks of a cluster, a
/// same-seed rerun, a `--resume` in a fresh process — stay bit-identical
/// only because the same `(C, E)` picks the same storage in every process.
///
/// The single source of truth for the rule, exposed so the sparse-regime
/// test suites can assert "this trajectory ran on sparse storage" against
/// the real predicate instead of a hand-copied formula.
pub fn auto_picks_dense(num_blocks: usize, total_edge_weight: Weight) -> bool {
    Storage::pick_dense(StorageKind::Auto, num_blocks, total_edge_weight)
}

/// Which matrix representation a [`Blockmodel`] should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StorageKind {
    /// Pick the representation from the block count and total edge weight
    /// by the [`auto_picks_dense`] rule.
    #[default]
    Auto,
    /// Flat row-major `C×C` array plus its transpose.
    Dense,
    /// One sorted [`CanonicalLine`] per row plus one per column (the
    /// stored transpose).
    Sparse,
}

#[derive(Clone, Debug, PartialEq)]
enum Storage {
    Dense {
        c: usize,
        /// Row-major `C×C` edge counts.
        m: Vec<u32>,
        /// Column-major copy (`mt[c*C + r] == m[r*C + c]`) so column scans
        /// are contiguous.
        mt: Vec<u32>,
    },
    Sparse {
        rows: Vec<CanonicalLine>,
        cols: Vec<CanonicalLine>,
    },
}

impl Storage {
    /// The dense/sparse selection rule shared by the in-place and bulk
    /// construction paths.
    fn pick_dense(kind: StorageKind, num_blocks: usize, total_edge_weight: Weight) -> bool {
        match kind {
            // `4·E ≥ C²` as `E ≥ ⌈C²/4⌉`: `C² ≤ 2²⁰` on this arm, and `E`
            // is never multiplied, so no weight can overflow the test.
            StorageKind::Auto => {
                num_blocks <= DENSE_ALWAYS_BLOCKS
                    || (num_blocks <= DENSE_MAX_BLOCKS
                        && total_edge_weight >= (num_blocks * num_blocks).div_ceil(4) as Weight)
            }
            StorageKind::Dense => true,
            StorageKind::Sparse => false,
        }
    }

    #[inline]
    fn get(&self, r: u32, col: u32) -> Weight {
        match self {
            Storage::Dense { c, m, .. } => Weight::from(m[r as usize * c + col as usize]),
            Storage::Sparse { rows, .. } => rows[r as usize].get(col),
        }
    }

    #[inline]
    fn add(&mut self, r: u32, col: u32, w: Weight) {
        match self {
            Storage::Dense { c, m, mt } => {
                let cell = &mut m[r as usize * *c + col as usize];
                add_to_cell(cell, narrow(w));
                mt[col as usize * *c + r as usize] = *cell;
            }
            Storage::Sparse { rows, cols } => {
                rows[r as usize].add(col, w);
                cols[col as usize].add(r, w);
            }
        }
    }

    #[inline]
    fn sub(&mut self, r: u32, col: u32, w: Weight) {
        match self {
            Storage::Dense { c, m, mt } => {
                let cell = &mut m[r as usize * *c + col as usize];
                *cell = cell
                    .checked_sub(narrow(w))
                    .unwrap_or_else(|| panic!("cell ({r}, {col}) went negative"));
                mt[col as usize * *c + r as usize] = *cell;
            }
            Storage::Sparse { rows, cols } => {
                rows[r as usize].sub(col, w);
                cols[col as usize].sub(r, w);
            }
        }
    }

    #[inline]
    fn row_iter(&self, r: u32) -> LineIter<'_> {
        match self {
            Storage::Dense { c, m, .. } => LineIter::Dense {
                line: &m[r as usize * c..(r as usize + 1) * c],
                next: 0,
            },
            Storage::Sparse { rows, .. } => LineIter::Sparse(rows[r as usize].as_slice().iter()),
        }
    }

    #[inline]
    fn col_iter(&self, col: u32) -> LineIter<'_> {
        match self {
            Storage::Dense { c, mt, .. } => LineIter::Dense {
                line: &mt[col as usize * c..(col as usize + 1) * c],
                next: 0,
            },
            Storage::Sparse { cols, .. } => LineIter::Sparse(cols[col as usize].as_slice().iter()),
        }
    }

    fn kind(&self) -> StorageKind {
        match self {
            Storage::Dense { .. } => StorageKind::Dense,
            Storage::Sparse { .. } => StorageKind::Sparse,
        }
    }

    /// This matrix folded through a block relabelling: every cell `(r, c)`
    /// lands on `(label[r], label[c])` of a `num_blocks`-wide matrix, cells
    /// that meet are summed. The caller has checked `label` at every block
    /// that has a cell ([`Blockmodel::merged`]).
    ///
    /// A dense target accumulates in place. A sparse target is built the
    /// way a rebuild builds one ([`accumulate`]): the rows gather their
    /// cells and fold in place, and the columns are one walk of the folded
    /// rows (ascending by row, because the walk is), each allocated once
    /// with the [`room`] of its folded length, so no cell list wider than
    /// the lines themselves is ever held.
    fn relabelled(&self, label: &[u32], num_blocks: usize, dense: bool) -> Storage {
        let cells = || {
            (0..label.len() as u32).flat_map(|r| {
                let to = label[r as usize];
                self.row_iter(r)
                    .map(move |(col, w)| (to, label[col as usize], w))
            })
        };
        if dense {
            return Storage::dense_from(num_blocks, cells());
        }
        let mut row_room = vec![0usize; num_blocks];
        for (r, _, _) in cells() {
            row_room[r as usize] += 1;
        }
        let mut rows = roomy(row_room);
        for (r, col, w) in cells() {
            rows[r as usize].push((col, narrow(w)));
        }
        let rows = fold_lines(rows);
        let mut col_len = vec![0usize; num_blocks];
        for row in &rows {
            for &(col, _) in row.as_slice() {
                col_len[col as usize] += 1;
            }
        }
        let mut cols = roomy(col_len.into_iter().map(room).collect());
        for (r, row) in rows.iter().enumerate() {
            for &(col, w) in row.as_slice() {
                cols[col as usize].push((r as u32, w));
            }
        }
        let cols = cols.into_iter().map(CanonicalLine::from_sorted).collect();
        Storage::Sparse { rows, cols }
    }

    /// The dense `num_blocks × num_blocks` matrix of a cell stream, cells
    /// that meet summed in place (O(1) per cell).
    fn dense_from(num_blocks: usize, cells: impl Iterator<Item = (u32, u32, Weight)>) -> Storage {
        let c = num_blocks;
        let (mut m, mut mt) = (vec![0; c * c], vec![0; c * c]);
        // The transpose copies each updated cell: one checked add per cell.
        for (r, col, w) in cells {
            let cell = &mut m[r as usize * c + col as usize];
            add_to_cell(cell, narrow(w));
            mt[col as usize * c + r as usize] = *cell;
        }
        Storage::Dense { c, m, mt }
    }

    /// Applies `f` to every sparse line, rows and columns.
    fn each_line(&mut self, f: fn(&mut CanonicalLine)) {
        if let Storage::Sparse { rows, cols } = self {
            rows.iter_mut().chain(cols).for_each(f);
        }
    }

    #[inline]
    fn dense_row(&self, r: u32) -> Option<&[u32]> {
        match self {
            Storage::Dense { c, m, .. } => Some(&m[r as usize * c..(r as usize + 1) * c]),
            Storage::Sparse { .. } => None,
        }
    }

    #[inline]
    fn dense_col(&self, col: u32) -> Option<&[u32]> {
        match self {
            Storage::Dense { c, mt, .. } => Some(&mt[col as usize * c..(col as usize + 1) * c]),
            Storage::Sparse { .. } => None,
        }
    }
}

// A stored dense cell is 4 bytes. The width is read off the element type
// `Storage::dense_row` hands out, so widening the storage fails the build.
const _: () = {
    const fn cell_bytes<T>(_: fn(&Storage, u32) -> Option<&[T]>) -> usize {
        std::mem::size_of::<T>()
    }
    assert!(cell_bytes(Storage::dense_row) == 4);
};

/// Empty sparse lines, each with room for the given number of cells: the
/// raw cells a line gathers before it folds. The fold keeps that buffer
/// for the sweeps to insert into unless it holds more than `2·len + 8`
/// cells (see the `line` module docs).
fn roomy(room: Vec<usize>) -> Vec<Vec<Cell>> {
    room.into_iter().map(Vec::with_capacity).collect()
}

/// Sorts and folds every line's raw cells in place. Each line is
/// independent integer work, so the lines fan out over the pool; ordered
/// collection keeps the result identical to a serial fold at any thread
/// count.
fn fold_lines(lines: Vec<Vec<Cell>>) -> Vec<CanonicalLine> {
    lines
        .into_par_iter()
        .map(CanonicalLine::from_unsorted)
        .collect()
}

/// The matrix and the block degrees `(d_out, d_in)` of the cell stream
/// `cells()`, at a rebuild boundary.
///
/// A dense target accumulates in place (O(1) per cell). A sparse target
/// walks the stream twice — once to size every line ([`roomy`]), once to
/// fill it with 8-byte cells — and then sorts and folds each line in place
/// ([`fold_lines`]): repeated sorted inserts would be quadratic in line
/// occupancy, which matters for hub rows at `C = V` where a line is a
/// vertex's whole adjacency.
fn accumulate<I>(
    kind: StorageKind,
    num_blocks: usize,
    total_edge_weight: Weight,
    cells: impl Fn() -> I,
) -> (Storage, (Vec<Weight>, Vec<Weight>))
where
    I: Iterator<Item = (u32, u32, Weight)>,
{
    let mut d_out = vec![0 as Weight; num_blocks];
    let mut d_in = vec![0 as Weight; num_blocks];
    if Storage::pick_dense(kind, num_blocks, total_edge_weight) {
        let dense = Storage::dense_from(
            num_blocks,
            cells().inspect(|&(r, c, w)| {
                d_out[r as usize] += w;
                d_in[c as usize] += w;
            }),
        );
        return (dense, (d_out, d_in));
    }
    let (mut row_room, mut col_room) = (vec![0usize; num_blocks], vec![0usize; num_blocks]);
    for (r, c, w) in cells() {
        row_room[r as usize] += 1;
        col_room[c as usize] += 1;
        d_out[r as usize] += w;
        d_in[c as usize] += w;
    }
    let (mut rows, mut cols) = (roomy(row_room), roomy(col_room));
    for (r, c, w) in cells() {
        let w = narrow(w);
        rows[r as usize].push((c, w));
        cols[c as usize].push((r, w));
    }
    let (rows, cols) = rayon::join(|| fold_lines(rows), || fold_lines(cols));
    (Storage::Sparse { rows, cols }, (d_out, d_in))
}

/// Iterator over the nonzero `(other_block, weight)` entries of one matrix
/// line (a row, or a column via the stored transpose), **ascending by
/// block id** under either storage representation — the canonical order
/// every observable line walk shares (see the module docs).
pub enum LineIter<'a> {
    /// Dense scan of a contiguous line, skipping zeros, each weight widened
    /// to [`Weight`] as it is read.
    Dense {
        /// The line's cells, indexed by the other block id.
        line: &'a [u32],
        /// Next index to inspect.
        next: usize,
    },
    /// Sparse iteration over a sorted [`CanonicalLine`]'s stored cells,
    /// widened to [`Weight`] as they are read.
    Sparse(std::slice::Iter<'a, Cell>),
}

impl Iterator for LineIter<'_> {
    type Item = (u32, Weight);

    #[inline]
    fn next(&mut self) -> Option<(u32, Weight)> {
        match self {
            LineIter::Dense { line, next } => {
                while *next < line.len() {
                    let i = *next;
                    *next += 1;
                    let w = line[i];
                    if w != 0 {
                        return Some((i as u32, Weight::from(w)));
                    }
                }
                None
            }
            LineIter::Sparse(it) => it.next().map(|&(k, w)| (k, Weight::from(w))),
        }
    }
}

/// Sparse [`Blockmodel::cross_cells`] fetches by position when its four
/// lines hold at most this many cells per asked-for block, and by point
/// lookup above that. Streaming costs ≈ 1.25 ns per line cell whatever the
/// number of blocks; a lookup costs four binary searches per block. On
/// synthetic lines (`k` ∈ 1..64 blocks × 4..512 cells per line) the two
/// cross between 25 and 56 cells per block; inside the solver, where the
/// searches' branches arrive cold, the crossover sits higher — the 2-rank
/// sparse benchmark input spends 1 108 cycles per fetch at 32, 846 at 64,
/// 1 004 at 128 and 1 339 when it always streams. A typical proposal is
/// far below it (≈ 8 at C = 750: 37 neighbour blocks against 300 cells);
/// a leaf vertex attached to a hub block is far above (2 blocks against
/// 2 560 cells stream 23× slower than they look up). Both sides read the
/// same integers, so the choice never shows in a result.
const STREAM_CELLS_PER_BLOCK: usize = 64;

/// The positional fetch behind sparse [`Blockmodel::cross_cells`]: `out[j][l]`
/// becomes line `l`'s weight at `blocks[j]` (zero where the line has no such
/// cell) without comparing a single key. `slot` is a block-indexed map, all
/// `u32::MAX` on entry and on return; in between it holds `j` at
/// `blocks[j]`, so every line streams through once with one unconditional
/// store per cell — cells of blocks nobody asked for land in a dummy row.
/// No data-dependent branch, hence nothing to mispredict: the
/// sorted-line join this replaced paid one mispredicted loop exit per
/// (block, line), ≈ 16 cycles per cell on lines that were already in cache.
///
/// The `{r, s}²` corners are cells of rows `r` and `s` (`lines[0]`,
/// `lines[1]`), so they come out of the same pass: `r` and `s` take rows
/// `k` and `k + 1` of `out` when they are not among `blocks` (the dummy is
/// row `k + 2`), and the corners are read off wherever the two ended up.
fn fetch_positional(
    lines: [&[Cell]; 4],
    (r, s): (usize, usize),
    blocks: &[u32],
    slot: &mut [u32],
    out: &mut Vec<[Weight; 4]>,
) -> [Weight; 4] {
    let k = blocks.len() as u32;
    out.resize(blocks.len() + 3, [0; 4]);
    for (j, &t) in blocks.iter().enumerate() {
        slot[t as usize] = j as u32;
    }
    // A block nobody asked for still reads `u32::MAX` here. When `r == s`,
    // `slot[s]` already holds `r`'s row and keeps it.
    slot[r] = slot[r].min(k);
    slot[s] = slot[s].min(k + 1);
    for (l, line) in lines.iter().enumerate() {
        for &(key, w) in *line {
            out[slot[key as usize].min(k + 2) as usize][l] = Weight::from(w);
        }
    }
    let (at_r, at_s) = (out[slot[r] as usize], out[slot[s] as usize]);
    for &t in blocks {
        slot[t as usize] = u32::MAX;
    }
    slot[r] = u32::MAX;
    slot[s] = u32::MAX;
    out.truncate(blocks.len());
    [at_r[0], at_s[0], at_r[1], at_s[1]]
}

#[inline]
fn ln_or_zero(w: Weight) -> f64 {
    crate::lntab::ln_int(w)
}

/// The blockmodel: a vertex→block assignment plus the inter-block
/// edge-count matrix `M` in adaptive dense/sparse form (see module docs),
/// with incrementally maintained block degree vectors and their cached
/// logarithms.
#[derive(Clone, Debug)]
pub struct Blockmodel {
    assignment: Vec<u32>,
    num_blocks: usize,
    storage: Storage,
    d_out: Vec<Weight>,
    d_in: Vec<Weight>,
    ln_d_out: Vec<f64>,
    ln_d_in: Vec<f64>,
    num_vertices: usize,
    total_edge_weight: Weight,
}

/// The relabelling that packs the occupied labels of `assignment` (all
/// `< width`) into the dense range `0..C`, ascending by old label: `map[old]`
/// is the new label, `u32::MAX` where no vertex carries `old`. Returns the
/// map and `C`.
///
/// # Panics
/// Panics if a label is `>= width`.
fn compact_map(assignment: &[u32], width: usize) -> (Vec<u32>, usize) {
    let mut map = vec![u32::MAX; width];
    for &b in assignment {
        assert!((b as usize) < width, "label out of range");
        map[b as usize] = 0;
    }
    let mut next = 0u32;
    for slot in map.iter_mut().filter(|slot| **slot == 0) {
        *slot = next;
        next += 1;
    }
    (map, next as usize)
}

/// Relabels the occupied labels of `assignment` (all `< width`) to the
/// dense range `0..C`, ascending by old label. Returns the relabeled
/// assignment and `C`. Needs no graph, so a plane that holds only part
/// of one can compact before it builds.
///
/// # Panics
/// Panics if a label is `>= width`.
pub fn compact_labels(mut assignment: Vec<u32>, width: usize) -> (Vec<u32>, usize) {
    let (map, num_blocks) = compact_map(&assignment, width);
    for b in &mut assignment {
        *b = map[*b as usize];
    }
    (assignment, num_blocks)
}

impl Blockmodel {
    /// Builds the blockmodel implied by `assignment` over `graph`, picking
    /// the storage representation automatically from the block count.
    ///
    /// # Panics
    /// Panics if the assignment length differs from the vertex count or any
    /// label is `>= num_blocks`.
    pub fn from_assignment(graph: &Graph, assignment: Vec<u32>, num_blocks: usize) -> Self {
        Self::from_assignment_with(graph, assignment, num_blocks, StorageKind::Auto)
    }

    /// Builds the blockmodel with an explicit storage representation —
    /// benchmarks and the dense/sparse agreement property tests force one.
    pub fn from_assignment_with(
        graph: &Graph,
        assignment: Vec<u32>,
        num_blocks: usize,
        kind: StorageKind,
    ) -> Self {
        assert_eq!(
            assignment.len(),
            graph.num_vertices(),
            "assignment must label every vertex"
        );
        assert!(
            assignment.iter().all(|&b| (b as usize) < num_blocks),
            "assignment label out of range"
        );
        let (storage, degrees) = accumulate(kind, num_blocks, graph.total_edge_weight(), || {
            graph
                .arcs()
                .map(|(src, dst, w)| (assignment[src as usize], assignment[dst as usize], w))
        });
        Self::assemble(
            assignment,
            storage,
            degrees,
            graph.num_vertices(),
            graph.total_edge_weight(),
        )
    }

    /// The one place a model is put together from its integers: the `ln`
    /// caches are a function of the degree vectors and nothing else, so
    /// every constructor lands on the same cache bits.
    fn assemble(
        assignment: Vec<u32>,
        storage: Storage,
        (d_out, d_in): (Vec<Weight>, Vec<Weight>),
        num_vertices: usize,
        total_edge_weight: Weight,
    ) -> Self {
        Blockmodel {
            assignment,
            num_blocks: d_out.len(),
            storage,
            ln_d_out: d_out.iter().map(|&w| ln_or_zero(w)).collect(),
            ln_d_in: d_in.iter().map(|&w| ln_or_zero(w)).collect(),
            d_out,
            d_in,
            num_vertices,
            total_edge_weight,
        }
    }

    /// The identity blockmodel: every vertex in its own block (`C = V`),
    /// the starting point of the agglomerative search.
    pub fn identity(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        Self::from_assignment(graph, (0..n as u32).collect(), n)
    }

    /// Number of blocks `C` (the label-space size; empty blocks count until
    /// [`Blockmodel::compacted`] relabels).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Which representation this blockmodel currently uses ([`StorageKind::
    /// Dense`] or [`StorageKind::Sparse`], never `Auto`).
    #[inline]
    pub fn storage_kind(&self) -> StorageKind {
        self.storage.kind()
    }

    /// The assignment vector.
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Consumes self, returning the assignment vector.
    pub fn into_assignment(self) -> Vec<u32> {
        self.assignment
    }

    /// Block of vertex `v`.
    #[inline]
    pub fn block_of(&self, v: Vertex) -> u32 {
        self.assignment[v as usize]
    }

    /// Number of vertices of the underlying graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Total edge weight `E` of the underlying graph.
    #[inline]
    pub fn total_edge_weight(&self) -> Weight {
        self.total_edge_weight
    }

    /// Edge count between blocks `r` and `c` (`M[r][c]`).
    #[inline]
    pub fn get(&self, r: u32, c: u32) -> Weight {
        self.storage.get(r, c)
    }

    /// Nonzero entries of row `r` as `(col, weight)`, ascending by `col`
    /// — the canonical order, identical under both representations and
    /// independent of move history.
    #[inline]
    pub fn row_iter(&self, r: u32) -> LineIter<'_> {
        self.storage.row_iter(r)
    }

    /// Nonzero entries of column `c` as `(row, weight)`, ascending by
    /// `row` — the canonical order, identical under both representations
    /// and independent of move history.
    #[inline]
    pub fn col_iter(&self, c: u32) -> LineIter<'_> {
        self.storage.col_iter(c)
    }

    /// The cells a move between blocks `r` and `s` shares with the
    /// strictly ascending `blocks`: `out[j] = [M[r][t], M[s][t], M[t][r],
    /// M[t][s]]` for `t = blocks[j]`, and, returned, the `{r, s}²` corners
    /// `[M[r][r], M[r][s], M[s][r], M[s][s]]` — cells of the two rows the
    /// fetch reads anyway. Dense storage indexes the four contiguous
    /// lines; sparse storage streams each of the four sorted lines once
    /// through the block-indexed `slot` map ([`fetch_positional`]; the
    /// caller keeps `slot` between calls and never writes it), or looks
    /// the few blocks up when the lines are long for them
    /// ([`STREAM_CELLS_PER_BLOCK`]).
    pub(crate) fn cross_cells(
        &self,
        r: u32,
        s: u32,
        blocks: &[u32],
        slot: &mut Vec<u32>,
        out: &mut Vec<[Weight; 4]>,
    ) -> [Weight; 4] {
        debug_assert!(blocks.windows(2).all(|w| w[0] < w[1]), "blocks ascending");
        out.clear();
        let (r, s) = (r as usize, s as usize);
        match &self.storage {
            Storage::Dense { c, m, mt } => {
                let (row_r, row_s) = (&m[r * c..(r + 1) * c], &m[s * c..(s + 1) * c]);
                let (col_r, col_s) = (&mt[r * c..(r + 1) * c], &mt[s * c..(s + 1) * c]);
                out.extend(blocks.iter().map(|&t| {
                    let t = t as usize;
                    [row_r[t], row_s[t], col_r[t], col_s[t]].map(Weight::from)
                }));
                [row_r[r], row_r[s], row_s[r], row_s[s]].map(Weight::from)
            }
            Storage::Sparse { rows, cols } => {
                let lines = [&rows[r], &rows[s], &cols[r], &cols[s]];
                let cells: usize = lines.iter().map(|l| l.len()).sum();
                if cells <= STREAM_CELLS_PER_BLOCK * blocks.len() {
                    if slot.len() < self.num_blocks {
                        slot.resize(self.num_blocks, u32::MAX);
                    }
                    fetch_positional(lines.map(|l| l.as_slice()), (r, s), blocks, slot, out)
                } else {
                    out.extend(blocks.iter().map(|&t| lines.map(|l| l.get(t))));
                    let ([row_r, row_s, ..], r, s) = (lines, r as u32, s as u32);
                    [row_r.get(r), row_r.get(s), row_s.get(r), row_s.get(s)]
                }
            }
        }
    }

    /// Row `r` as a contiguous slice (dense storage only) — the ΔS
    /// kernel's fast path.
    #[inline]
    pub(crate) fn dense_row(&self, r: u32) -> Option<&[u32]> {
        self.storage.dense_row(r)
    }

    /// Column `c` of the stored transpose as a contiguous slice (dense
    /// storage only).
    #[inline]
    pub(crate) fn dense_col(&self, c: u32) -> Option<&[u32]> {
        self.storage.dense_col(c)
    }

    /// Weighted out-degree of block `r`.
    #[inline]
    pub fn d_out(&self, r: u32) -> Weight {
        self.d_out[r as usize]
    }

    /// Weighted in-degree of block `c`.
    #[inline]
    pub fn d_in(&self, c: u32) -> Weight {
        self.d_in[c as usize]
    }

    /// Cached `ln(d_out(r))` (0.0 when the degree is zero).
    #[inline]
    pub fn ln_d_out(&self, r: u32) -> f64 {
        self.ln_d_out[r as usize]
    }

    /// Cached `ln(d_in(c))` (0.0 when the degree is zero).
    #[inline]
    pub fn ln_d_in(&self, c: u32) -> f64 {
        self.ln_d_in[c as usize]
    }

    /// Weighted total degree of block `b`.
    #[inline]
    pub fn d_total(&self, b: u32) -> Weight {
        self.d_out[b as usize] + self.d_in[b as usize]
    }

    /// The full `ln(d_out)` cache (per-cell vector for the ΔS passes).
    #[inline]
    pub(crate) fn ln_d_out_all(&self) -> &[f64] {
        &self.ln_d_out
    }

    /// The full `ln(d_in)` cache (per-cell vector for the ΔS passes).
    #[inline]
    pub(crate) fn ln_d_in_all(&self) -> &[f64] {
        &self.ln_d_in
    }

    /// Moves vertex `v` to block `to`, incrementally updating the matrix,
    /// its transpose, the degree vectors and the `ln` caches. No-op if `v`
    /// is already there.
    pub fn move_vertex(&mut self, graph: &Graph, v: Vertex, to: u32) {
        let from = self.assignment[v as usize];
        if from == to {
            return;
        }
        debug_assert!((to as usize) < self.num_blocks);
        for (u, w) in graph.out_edges(v) {
            if u == v {
                // Self-loop: both endpoints move together. Handled once
                // here; skipped in the in-edge loop below.
                self.storage.sub(from, from, w);
                self.storage.add(to, to, w);
            } else {
                let t = self.assignment[u as usize];
                self.storage.sub(from, t, w);
                self.storage.add(to, t, w);
            }
        }
        for (u, w) in graph.in_edges(v) {
            if u == v {
                continue;
            }
            let t = self.assignment[u as usize];
            self.storage.sub(t, from, w);
            self.storage.add(t, to, w);
        }
        let (ov, iv) = (graph.out_degree(v), graph.in_degree(v));
        self.d_out[from as usize] -= ov;
        self.d_out[to as usize] += ov;
        self.d_in[from as usize] -= iv;
        self.d_in[to as usize] += iv;
        // Incremental ln-cache invalidation: only the two touched blocks.
        self.ln_d_out[from as usize] = ln_or_zero(self.d_out[from as usize]);
        self.ln_d_out[to as usize] = ln_or_zero(self.d_out[to as usize]);
        self.ln_d_in[from as usize] = ln_or_zero(self.d_in[from as usize]);
        self.ln_d_in[to as usize] = ln_or_zero(self.d_in[to as usize]);
        self.assignment[v as usize] = to;
    }

    // ---------------------------------------------- distributed maintenance
    //
    // EDiSt over sharded graph ingest replicates the *blockmodel* on every
    // rank while no rank holds the whole graph, so the matrix cannot always
    // be (re)built from a local `Graph`. These two methods are the escape
    // hatch: construction from explicit cells, and batched application of
    // externally-summed deltas. Both preserve the crate invariant — the
    // state always equals what `from_assignment` would rebuild from the
    // current assignment over the *global* graph — provided the caller's
    // cells/deltas are exact, which the integer-summed collectives in
    // `sbp-dist` guarantee.

    /// Builds a blockmodel from explicit matrix cells instead of a local
    /// [`Graph`] — the distributed construction path, where each rank
    /// contributes the cells of its owned out-edges and the summed result
    /// is identical on every rank.
    ///
    /// `cells` entries accumulate (the same `(row, col)` may appear more
    /// than once); block degrees are derived from the cells. Pass the
    /// *global* `num_vertices` / `total_edge_weight` so the
    /// description-length model term and the dense/sparse selection match
    /// a monolithic [`Blockmodel::from_assignment`] build exactly.
    ///
    /// # Panics
    /// Panics if a label or cell index is out of range, a weight is not
    /// positive, or the cells weigh more than
    /// [`sbp_graph::MAX_TOTAL_EDGE_WEIGHT`] together.
    pub fn from_parts(
        num_vertices: usize,
        total_edge_weight: Weight,
        assignment: Vec<u32>,
        num_blocks: usize,
        cells: &[(u32, u32, Weight)],
    ) -> Self {
        assert_eq!(
            assignment.len(),
            num_vertices,
            "assignment must label every vertex"
        );
        assert!(
            assignment.iter().all(|&b| (b as usize) < num_blocks),
            "assignment label out of range"
        );
        let mut total: Weight = 0;
        for &(r, c, w) in cells {
            assert!(
                (r as usize) < num_blocks && (c as usize) < num_blocks,
                "cell ({r}, {c}) out of range for {num_blocks} blocks"
            );
            assert!(w > 0, "cell ({r}, {c}) has non-positive weight {w}");
            total = sbp_graph::add_edge_weight(total, w)
                .expect("cells weigh more than MAX_TOTAL_EDGE_WEIGHT");
        }
        let (storage, degrees) =
            accumulate(StorageKind::Auto, num_blocks, total_edge_weight, || {
                cells.iter().copied()
            });
        Self::assemble(
            assignment,
            storage,
            degrees,
            num_vertices,
            total_edge_weight,
        )
    }

    /// Applies one synchronized batch of externally-computed updates: peer
    /// relabels (no local matrix effect — their matrix contribution
    /// arrives via `cell_deltas`), pre-aggregated matrix cell deltas, and
    /// per-block degree deltas. Refreshes the `ln` caches of every block
    /// whose degree changed.
    ///
    /// `cell_deltas` must contain **at most one entry per cell**, already
    /// summed: per-cell application order is unspecified, so un-aggregated
    /// deltas could transiently drive a cell negative.
    ///
    /// # Panics
    /// Panics if a delta drives a cell or a block degree negative (naming
    /// the cell or the block) — the caller's bookkeeping is broken, not
    /// the input graph.
    pub fn apply_dist_sync(
        &mut self,
        relabels: &[(Vertex, u32)],
        cell_deltas: impl IntoIterator<Item = (u32, u32, Weight)>,
        degree_deltas: impl IntoIterator<Item = (u32, Weight, Weight)>,
    ) {
        for &(v, to) in relabels {
            debug_assert!((to as usize) < self.num_blocks);
            self.assignment[v as usize] = to;
        }
        for (r, c, dw) in cell_deltas {
            match dw.cmp(&0) {
                std::cmp::Ordering::Greater => self.storage.add(r, c, dw),
                std::cmp::Ordering::Less => self.storage.sub(r, c, -dw),
                std::cmp::Ordering::Equal => {}
            }
        }
        for (b, d_out, d_in) in degree_deltas {
            let b = b as usize;
            self.d_out[b] += d_out;
            self.d_in[b] += d_in;
            assert!(
                self.d_out[b] >= 0 && self.d_in[b] >= 0,
                "block {b} degree went negative"
            );
            self.ln_d_out[b] = ln_or_zero(self.d_out[b]);
            self.ln_d_in[b] = ln_or_zero(self.d_in[b]);
        }
    }

    /// The DCSBM entropy `S = −Σ M_ij ln(M_ij/(d_out_i · d_in_j))` — the
    /// negative log-likelihood of Eq. 1. Natural log; minimized.
    ///
    /// Computed as a **fixed-shape chunked reduction**: rows are grouped
    /// into `ENTROPY_CHUNK_ROWS`-row chunks (a function of the block
    /// count only), each chunk accumulates row-major with every row in
    /// canonical (ascending) order, and the chunk partials are combined
    /// left to right. Chunks evaluate on the persistent pool when it has
    /// more than one worker, but the summation *shape* never depends on
    /// the worker count, so the f64 sum is bit-identical for any two
    /// blockmodels holding the same integer state — across storage
    /// representations, move histories, and `SBP_THREADS` settings alike.
    pub fn entropy(&self) -> f64 {
        self.entropy_impl(ENTROPY_CHUNK_ROWS)
    }

    /// [`entropy`](Self::entropy) with an explicit chunk size — the
    /// `ENTROPY_CHUNK_ROWS` retune study's bench hook. Changing the chunk
    /// size re-associates the f64 chunk combination, so different chunk
    /// sizes legitimately produce different bits.
    #[doc(hidden)]
    pub fn entropy_with_chunk(&self, chunk_rows: usize) -> f64 {
        self.entropy_impl(chunk_rows)
    }

    fn entropy_impl(&self, chunk_rows: usize) -> f64 {
        let c = self.num_blocks;
        if c <= chunk_rows {
            return self.entropy_rows(0, c as u32);
        }
        let bounds: Vec<u32> = (0..c).step_by(chunk_rows).map(|r| r as u32).collect();
        let partials: Vec<f64> = bounds
            .par_iter()
            .map(|&lo| self.entropy_rows(lo, ((lo as usize + chunk_rows).min(c)) as u32))
            .collect();
        partials.into_iter().sum()
    }

    /// Entropy terms of rows `lo..hi`, accumulated row-major in canonical
    /// order — one chunk of the fixed-shape reduction. Both storages walk
    /// [`row_iter`](Self::row_iter), which yields a row's nonzero cells in
    /// ascending column order either way, so the same integer state sums
    /// the same terms in the same order.
    fn entropy_rows(&self, lo: u32, hi: u32) -> f64 {
        let mut s = 0.0f64;
        for r in lo..hi {
            if self.d_out[r as usize] == 0 {
                continue;
            }
            let ldr = self.ln_d_out[r as usize];
            for (c, m) in self.row_iter(r) {
                debug_assert!(m > 0 && self.d_in[c as usize] > 0);
                let mf = m as f64;
                s -= mf * (crate::lntab::ln_int(m) - ldr - self.ln_d_in[c as usize]);
            }
        }
        s
    }

    /// Full description length (paper Eq. 2):
    /// `DL = E·h(C²/E) + V·ln(C) + S`.
    pub fn description_length(&self) -> f64 {
        model_description_length(self.num_vertices, self.total_edge_weight, self.num_blocks)
            + self.entropy()
    }

    /// Marks which blocks currently have at least one member.
    fn occupied_blocks(&self) -> Vec<bool> {
        let mut seen = vec![false; self.num_blocks];
        for &b in &self.assignment {
            seen[b as usize] = true;
        }
        seen
    }

    /// Counts blocks that currently have at least one member.
    pub fn num_nonempty_blocks(&self) -> usize {
        self.occupied_blocks().iter().filter(|&&x| x).count()
    }

    /// This model with its blocks relabelled through `label` (`label[b]` is
    /// block `b`'s new id, `< num_blocks`; several blocks may share one —
    /// that is a merge): the model of the assignment `label ∘ assignment`,
    /// folded from this model's own lines without reading the graph.
    ///
    /// The result **equals** `from_assignment(graph, label ∘ assignment,
    /// num_blocks)` in every integer, in line order, in storage kind (the
    /// same [`auto_picks_dense`] rule on the same `(C′, E)`) and in every
    /// `ln`-cache bit — the crate invariant, reached from the other side:
    /// a cell of the new matrix is the sum of the old cells its blocks were
    /// made of, and integer sums do not care how the arcs were grouped on
    /// the way. Cost is O(nnz log nnz) in this model's nonzero cells, not
    /// O(E) in the graph's arcs, and a replica that has no whole graph
    /// (`sbp-dist`'s sharded plane) folds just the same.
    ///
    /// `label` is read only where a block has weight or members, so an
    /// empty block may map anywhere (the `u32::MAX` a compaction map leaves
    /// there included).
    ///
    /// # Panics
    /// Panics if `label` is not one entry per block, or sends an occupied
    /// or weighted block to `>= num_blocks`.
    pub fn merged(&self, label: &[u32], num_blocks: usize) -> Blockmodel {
        assert_eq!(label.len(), self.num_blocks, "one new label per block");
        let assignment: Vec<u32> = self.assignment.iter().map(|&b| label[b as usize]).collect();
        assert!(
            assignment.iter().all(|&b| (b as usize) < num_blocks),
            "assignment label out of range"
        );
        let mut d_out = vec![0 as Weight; num_blocks];
        let mut d_in = vec![0 as Weight; num_blocks];
        for (b, &to) in label.iter().enumerate() {
            if self.d_out[b] != 0 || self.d_in[b] != 0 {
                d_out[to as usize] += self.d_out[b];
                d_in[to as usize] += self.d_in[b];
            }
        }
        let dense = Storage::pick_dense(StorageKind::Auto, num_blocks, self.total_edge_weight);
        Self::assemble(
            assignment,
            self.storage.relabelled(label, num_blocks, dense),
            (d_out, d_in),
            self.num_vertices,
            self.total_edge_weight,
        )
    }

    /// Returns a copy with blocks relabeled to the dense range
    /// `0..num_nonempty_blocks` (ascending by old label, see
    /// [`compact_labels`]) — a [`merged`](Self::merged) that merges
    /// nothing, re-running the dense/sparse selection for the new block
    /// count.
    pub fn compacted(&self) -> Blockmodel {
        let (map, num_blocks) = compact_map(&self.assignment, self.num_blocks);
        self.merged(&map, num_blocks)
    }

    /// Cuts every sparse line to its exact length, giving back the
    /// headroom a line keeps for inserts (see the `line` module docs).
    /// For a model that is kept rather than swept — the golden search's
    /// resident bracket models.
    pub fn shrink_to_fit(&mut self) {
        self.storage.each_line(CanonicalLine::shrink_to_fit);
    }

    /// Gives every sparse line back the room [`Blockmodel::shrink_to_fit`]
    /// took: for a kept model that is about to be swept again.
    pub(crate) fn restore_room(&mut self) {
        self.storage.each_line(CanonicalLine::restore_room);
    }

    /// Folds edge-weight deltas that the graph has just taken
    /// ([`Graph::apply_edge_deltas`]) into this model in O(deltas), with no
    /// graph walk. Each `(src, dst, δ)` moves cell `(b[src], b[dst])`,
    /// `d_out[b[src]]`, `d_in[b[dst]]` and `E` by `δ`, and the `ln` caches
    /// of the blocks whose degrees moved follow. The result is
    /// [`Blockmodel::from_assignment`] on the changed graph in every
    /// integer and every cache bit, with one exception. If the new `E`
    /// moves `(C, E)` across [`auto_picks_dense`], a fold cannot change
    /// the storage. It then returns `false` and leaves the model as it
    /// was, for the caller to rebuild.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, or a cell goes negative:
    /// deltas the graph would not have taken.
    #[must_use]
    pub fn fold_edge_deltas(&mut self, deltas: &[EdgeDelta]) -> bool {
        let total = self.total_edge_weight + deltas.iter().map(|d| d.delta).sum::<Weight>();
        let dense = matches!(self.storage, Storage::Dense { .. });
        if Storage::pick_dense(StorageKind::Auto, self.num_blocks, total) != dense {
            return false;
        }
        // Every addition before any removal: a batch the graph took nets
        // each arc to at least zero, so no cell dips below zero on the way.
        for sign in [1, -1] {
            for d in deltas.iter().filter(|d| d.delta.signum() == sign) {
                let (r, c) = (self.block_of(d.src), self.block_of(d.dst));
                if sign > 0 {
                    self.storage.add(r, c, d.delta);
                } else {
                    self.storage.sub(r, c, -d.delta);
                }
                self.d_out[r as usize] += d.delta;
                self.d_in[c as usize] += d.delta;
            }
        }
        for d in deltas {
            let (r, c) = (self.block_of(d.src) as usize, self.block_of(d.dst) as usize);
            self.ln_d_out[r] = ln_or_zero(self.d_out[r]);
            self.ln_d_in[c] = ln_or_zero(self.d_in[c]);
        }
        self.total_edge_weight = total;
        true
    }

    /// Whether `other` holds the very same state: assignment, every cell
    /// in line order through rows and columns, storage kind, degrees, and
    /// the `ln` caches bit for bit. Two models that agree here are
    /// interchangeable for every computation in the crate — what "a carried
    /// model equals a rebuild" means in the tests and debug assertions.
    pub fn same_state(&self, other: &Blockmodel) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        self.storage == other.storage
            && self.assignment == other.assignment
            && (&self.d_out, &self.d_in) == (&other.d_out, &other.d_in)
            && bits(&self.ln_d_out) == bits(&other.ln_d_out)
            && bits(&self.ln_d_in) == bits(&other.ln_d_in)
            && self.num_vertices == other.num_vertices
            && self.total_edge_weight == other.total_edge_weight
    }

    /// All nonzero cells as `(row, col, weight)` in row-major iteration
    /// order — ascending by `(r, c)` when every row is canonical, which
    /// `validate` checks before it compares these sequences.
    fn cells_canonical(&self) -> Vec<(u32, u32, Weight)> {
        let mut cells = Vec::new();
        for r in 0..self.num_blocks as u32 {
            for (c, m) in self.row_iter(r) {
                cells.push((r, c, m));
            }
        }
        cells
    }

    /// Checks every line, row and column, for what each walk of it relies
    /// on: keys strictly ascending (the order `pick_weighted` and the
    /// kernels consume), weights positive, and a sparse line's capacity
    /// within its room (`line::within_room`).
    fn lines_canonical(&self) -> Result<(), String> {
        for b in 0..self.num_blocks as u32 {
            for (side, line) in [("row", self.row_iter(b)), ("column", self.col_iter(b))] {
                let mut last = None;
                for (k, w) in line {
                    if w <= 0 || last >= Some(k) {
                        return Err(format!("{side} {b} out of canonical order at ({k}, {w})"));
                    }
                    last = Some(k);
                }
            }
        }
        if let Storage::Sparse { rows, cols } = &self.storage {
            for (side, lines) in [("row", rows), ("column", cols)] {
                if let Some((b, line)) = lines
                    .iter()
                    .enumerate()
                    .find(|(_, l)| !within_room(l.len(), l.capacity()))
                {
                    return Err(format!(
                        "{side} {b} holds capacity {} for {} cells",
                        line.capacity(),
                        line.len()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Same as [`cells_canonical`](Self::cells_canonical), but gathered
    /// through the column side and sorted row-major (transpose
    /// consistency).
    fn cells_sorted_via_cols(&self) -> Vec<(u32, u32, Weight)> {
        let mut cells = Vec::new();
        for c in 0..self.num_blocks as u32 {
            for (r, m) in self.col_iter(c) {
                cells.push((r, c, m));
            }
        }
        cells.sort_unstable();
        cells
    }

    /// Verifies every incremental invariant against a from-scratch rebuild,
    /// after checking that every line is canonical.
    pub fn validate(&self, graph: &Graph) -> Result<(), String> {
        self.lines_canonical()?;
        let rebuilt = Blockmodel::from_assignment_with(
            graph,
            self.assignment.clone(),
            self.num_blocks,
            self.storage_kind(),
        );
        if self.cells_canonical() != rebuilt.cells_canonical() {
            return Err("matrix rows out of sync with assignment".into());
        }
        if self.cells_sorted_via_cols() != self.cells_canonical() {
            return Err("transpose out of sync with rows".into());
        }
        if self.d_out != rebuilt.d_out || self.d_in != rebuilt.d_in {
            return Err("degree vectors out of sync".into());
        }
        for b in 0..self.num_blocks {
            if (self.ln_d_out[b] - ln_or_zero(self.d_out[b])).abs() > 1e-12
                || (self.ln_d_in[b] - ln_or_zero(self.d_in[b])).abs() > 1e-12
            {
                return Err(format!("ln cache stale for block {b}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Two triangles joined by one edge: a classic 2-community graph.
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

    fn two_block_assignment() -> Vec<u32> {
        vec![0, 0, 0, 1, 1, 1]
    }

    /// Runs a check under both storage representations.
    fn for_both_kinds(f: impl Fn(StorageKind)) {
        f(StorageKind::Dense);
        f(StorageKind::Sparse);
    }

    #[test]
    fn from_assignment_counts_edges() {
        for_both_kinds(|kind| {
            let g = two_triangles();
            let bm = Blockmodel::from_assignment_with(&g, two_block_assignment(), 2, kind);
            assert_eq!(bm.get(0, 0), 3);
            assert_eq!(bm.get(1, 1), 3);
            assert_eq!(bm.get(0, 1), 1);
            assert_eq!(bm.get(1, 0), 0);
            assert_eq!(bm.d_out(0), 4);
            assert_eq!(bm.d_in(0), 3);
            assert_eq!(bm.d_total(1), 7);
        });
    }

    #[test]
    fn auto_storage_rule_is_exact_at_every_boundary() {
        // (C, E, dense?) on both sides of each edge of the rule:
        // dense iff C ≤ 64, or C ≤ 1024 and 4·E ≥ C².
        let quarter = |c: usize| (c * c).div_ceil(4) as Weight;
        let mut table = vec![
            (0, 0, true),
            (64, 0, true),
            (65, 0, false),
            (1024, 0, false),
            (1024, Weight::MAX, true),
            (1025, Weight::MAX, false),
            (usize::MAX, Weight::MAX, false),
            (65, Weight::MAX - 1, true),
            // Occupancy 0.2 — short of ¼.
            (100, 2000, false),
        ];
        for c in [65, 100, 533, 1024] {
            table.push((c, quarter(c) - 1, false));
            table.push((c, quarter(c), true));
        }
        for (c, e, dense) in table {
            assert_eq!(auto_picks_dense(c, e), dense, "(C, E) = ({c}, {e})");
        }
        // `quarter` is the integer form of 4·E ≥ C², odd C² included.
        assert_eq!((quarter(65), quarter(533)), (1057, 71_023));

        // Auto goes through the same rule; an explicit kind bypasses it.
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, two_block_assignment(), 2);
        assert_eq!(bm.storage_kind(), StorageKind::Dense);
        let bm =
            Blockmodel::from_assignment_with(&g, two_block_assignment(), 2, StorageKind::Sparse);
        assert_eq!(bm.storage_kind(), StorageKind::Sparse);
    }

    #[test]
    fn row_and_col_iters_agree_across_kinds() {
        // Exact sequence equality, NOT sorted-then-compared: canonical
        // iteration means the sparse walk reproduces the dense walk
        // element for element.
        let g = two_triangles();
        let dense =
            Blockmodel::from_assignment_with(&g, two_block_assignment(), 2, StorageKind::Dense);
        let sparse =
            Blockmodel::from_assignment_with(&g, two_block_assignment(), 2, StorageKind::Sparse);
        for r in 0..2u32 {
            let a: Vec<_> = dense.row_iter(r).collect();
            let b: Vec<_> = sparse.row_iter(r).collect();
            assert_eq!(a, b, "row {r}");
            assert!(a.is_sorted(), "row {r} not canonical");
            let a: Vec<_> = dense.col_iter(r).collect();
            let b: Vec<_> = sparse.col_iter(r).collect();
            assert_eq!(a, b, "col {r}");
            assert!(a.is_sorted(), "col {r} not canonical");
        }
    }

    /// `cross_cells` against `get`, on both sides of the sparse fetch's
    /// stream-or-look-up choice: blocks 0 and 1 are hubs whose four lines
    /// hold ≈ 850 cells between them, so the short block lists are looked
    /// up and the long ones streamed — with the move's own two blocks
    /// among the asked-for ones and not. One slot map serves every call
    /// and must come back clean from each.
    #[test]
    fn cross_cells_matches_get_on_long_lines() {
        let n = 300u32;
        let mut edges = Vec::new();
        for u in 2..n {
            edges.push((0, u, 1 + i64::from(u % 3)));
            edges.push((u, 0, 1));
            if u % 2 == 0 {
                edges.push((1, u, 2));
            }
            if u % 3 == 0 {
                edges.push((u, 1, 1));
            }
        }
        edges.push((0, 1, 4));
        edges.push((1, 1, 2));
        let g = Graph::from_edges(n as usize, edges);
        let labels: Vec<u32> = (0..n).collect();
        let dense = Blockmodel::from_assignment_with(&g, labels.clone(), 300, StorageKind::Dense);
        let sparse = Blockmodel::from_assignment_with(&g, labels, 300, StorageKind::Sparse);
        let block_lists: [Vec<u32>; 8] = [
            vec![],
            vec![0, 1],
            vec![5],
            vec![2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 299],
            vec![150, 298],
            (0..n).step_by(7).collect(),
            (1..n).step_by(7).collect(),
            (0..n).collect(),
        ];
        let (mut from_dense, mut from_sparse, mut slot) = (Vec::new(), Vec::new(), Vec::new());
        let corners = [
            dense.get(0, 0),
            dense.get(0, 1),
            dense.get(1, 0),
            dense.get(1, 1),
        ];
        for blocks in &block_lists {
            let on_dense = dense.cross_cells(0, 1, blocks, &mut slot, &mut from_dense);
            let on_sparse = sparse.cross_cells(0, 1, blocks, &mut slot, &mut from_sparse);
            assert_eq!(on_dense, corners, "blocks {blocks:?}");
            assert_eq!(on_sparse, corners, "blocks {blocks:?}");
            assert_eq!(from_dense, from_sparse, "blocks {blocks:?}");
            assert_eq!(from_dense.len(), blocks.len());
            assert!(slot.iter().all(|&j| j == u32::MAX), "stamps left behind");
            for (&t, cells) in blocks.iter().zip(&from_dense) {
                let want = [
                    dense.get(0, t),
                    dense.get(1, t),
                    dense.get(t, 0),
                    dense.get(t, 1),
                ];
                assert_eq!(*cells, want, "block {t} of {blocks:?}");
            }
        }
        assert_eq!(slot.len(), 300, "the long lists streamed");
    }

    /// The tentpole guarantee at unit scale: after an arbitrary move
    /// history, sparse lines still iterate in ascending order and the
    /// entropy sum is bit-identical to a fresh rebuild of the same state.
    #[test]
    fn sparse_iteration_is_canonical_after_moves() {
        let g = two_triangles();
        let mut bm =
            Blockmodel::from_assignment_with(&g, two_block_assignment(), 2, StorageKind::Sparse);
        for (v, to) in [(2u32, 1u32), (5, 0), (2, 0), (0, 1), (5, 1), (0, 0)] {
            bm.move_vertex(&g, v, to);
        }
        let rebuilt =
            Blockmodel::from_assignment_with(&g, bm.assignment().to_vec(), 2, StorageKind::Sparse);
        for r in 0..2u32 {
            let moved: Vec<_> = bm.row_iter(r).collect();
            assert!(moved.is_sorted(), "row {r} lost canonical order");
            assert_eq!(
                moved,
                rebuilt.row_iter(r).collect::<Vec<_>>(),
                "row {r} depends on move history"
            );
        }
        assert_eq!(bm.entropy().to_bits(), rebuilt.entropy().to_bits());
        assert_eq!(
            bm.description_length().to_bits(),
            rebuilt.description_length().to_bits()
        );
    }

    #[test]
    fn identity_blockmodel() {
        let g = two_triangles();
        let bm = Blockmodel::identity(&g);
        assert_eq!(bm.num_blocks(), 6);
        assert_eq!(bm.get(0, 1), 1);
        assert_eq!(bm.get(1, 0), 0);
        bm.validate(&g).unwrap();
    }

    #[test]
    fn move_vertex_keeps_invariants() {
        for_both_kinds(|kind| {
            let g = two_triangles();
            let mut bm = Blockmodel::from_assignment_with(&g, two_block_assignment(), 2, kind);
            bm.move_vertex(&g, 2, 1);
            bm.validate(&g).unwrap();
            assert_eq!(bm.block_of(2), 1);
            // Edges with both endpoints in {2,3,4,5}: 3->4, 4->5, 5->3, 2->3.
            assert_eq!(bm.get(1, 1), 4);
        });
    }

    #[test]
    fn move_vertex_roundtrip_restores_state() {
        for_both_kinds(|kind| {
            let g = two_triangles();
            let mut bm = Blockmodel::from_assignment_with(&g, two_block_assignment(), 2, kind);
            let before_entropy = bm.entropy();
            bm.move_vertex(&g, 0, 1);
            bm.move_vertex(&g, 0, 0);
            bm.validate(&g).unwrap();
            assert!((bm.entropy() - before_entropy).abs() < 1e-12);
        });
    }

    #[test]
    fn move_is_noop_when_same_block() {
        let g = two_triangles();
        let mut bm = Blockmodel::from_assignment(&g, two_block_assignment(), 2);
        let s = bm.entropy();
        bm.move_vertex(&g, 0, 0);
        assert_eq!(bm.entropy(), s);
        bm.validate(&g).unwrap();
    }

    #[test]
    fn self_loops_move_correctly() {
        for_both_kinds(|kind| {
            let g = Graph::from_edges(3, vec![(0, 0, 2), (0, 1, 1), (2, 0, 1)]);
            let mut bm = Blockmodel::from_assignment_with(&g, vec![0, 1, 1], 2, kind);
            assert_eq!(bm.get(0, 0), 2);
            bm.move_vertex(&g, 0, 1);
            bm.validate(&g).unwrap();
            assert_eq!(bm.get(1, 1), 4); // self-loop + 0->1 + 2->0 all inside block 1
            assert_eq!(bm.get(0, 0), 0);
        });
    }

    #[test]
    fn entropy_matches_manual_computation() {
        for_both_kinds(|kind| {
            let g = two_triangles();
            let bm = Blockmodel::from_assignment_with(&g, two_block_assignment(), 2, kind);
            // Cells: (0,0)=3 (d 4,3), (0,1)=1 (4,4), (1,1)=3 (3,4)
            let manual = -(3.0 * (3.0f64 / (4.0 * 3.0)).ln()
                + 1.0 * (1.0f64 / (4.0 * 4.0)).ln()
                + 3.0 * (3.0f64 / (3.0 * 4.0)).ln());
            assert!((bm.entropy() - manual).abs() < 1e-12);
        });
    }

    #[test]
    fn description_length_adds_model_term() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, two_block_assignment(), 2);
        let expected = crate::model_description_length(6, 7, 2) + bm.entropy();
        assert!((bm.description_length() - expected).abs() < 1e-12);
    }

    #[test]
    fn ground_truth_has_lower_dl_than_bad_partition() {
        let g = two_triangles();
        let good = Blockmodel::from_assignment(&g, two_block_assignment(), 2);
        let bad = Blockmodel::from_assignment(&g, vec![0, 1, 0, 1, 0, 1], 2);
        assert!(good.description_length() < bad.description_length());
    }

    #[test]
    fn compacted_relabels_densely() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![5, 5, 5, 2, 2, 2], 8);
        assert_eq!(bm.num_nonempty_blocks(), 2);
        let c = bm.compacted();
        assert_eq!(c.num_blocks(), 2);
        // Ascending by old label: old 2 -> 0, old 5 -> 1.
        assert_eq!(c.assignment(), &[1, 1, 1, 0, 0, 0]);
        c.validate(&g).unwrap();
    }

    #[test]
    fn entropy_of_identity_on_simple_graph() {
        // Single edge between two singleton blocks: S = -1*ln(1/(1*1)) = 0.
        let g = Graph::from_edges(2, vec![(0, 1, 1)]);
        let bm = Blockmodel::identity(&g);
        assert!(bm.entropy().abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_assignment_panics() {
        let g = two_triangles();
        Blockmodel::from_assignment(&g, vec![0, 0, 0, 2, 2, 2], 2);
    }

    #[test]
    fn from_parts_matches_from_assignment() {
        let g = two_triangles();
        let assignment = two_block_assignment();
        let whole = Blockmodel::from_assignment(&g, assignment.clone(), 2);
        // Feed the arc-derived cells in two interleaved halves with
        // repeated keys — accumulation must land on the same state.
        let cells: Vec<(u32, u32, i64)> = g
            .arcs()
            .map(|(s, d, w)| (assignment[s as usize], assignment[d as usize], w))
            .collect();
        let parts = Blockmodel::from_parts(
            g.num_vertices(),
            g.total_edge_weight(),
            assignment,
            2,
            &cells,
        );
        for r in 0..2u32 {
            for c in 0..2u32 {
                assert_eq!(whole.get(r, c), parts.get(r, c));
            }
            assert_eq!(whole.d_out(r), parts.d_out(r));
            assert_eq!(whole.d_in(r), parts.d_in(r));
            assert_eq!(whole.ln_d_out(r).to_bits(), parts.ln_d_out(r).to_bits());
        }
        assert_eq!(
            whole.description_length().to_bits(),
            parts.description_length().to_bits()
        );
        parts.validate(&g).unwrap();
    }

    #[test]
    #[should_panic(expected = "MAX_TOTAL_EDGE_WEIGHT")]
    fn from_parts_asserts_the_total_weight_limit() {
        let max = sbp_graph::MAX_TOTAL_EDGE_WEIGHT;
        Blockmodel::from_parts(2, max, vec![0, 1], 2, &[(0, 1, max), (1, 0, 1)]);
    }

    /// Every read a kernel makes of a two-block model, dense against its
    /// sparse twin: cells, both line walks, the cross-cell fetch, weighted
    /// picks across the whole mass, and the entropy bits.
    fn assert_reads_as_sparse(dense: &Blockmodel, sparse: &Blockmodel) {
        assert_eq!(dense.storage_kind(), StorageKind::Dense);
        assert_eq!(sparse.storage_kind(), StorageKind::Sparse);
        for r in 0..2u32 {
            for c in 0..2u32 {
                assert_eq!(dense.get(r, c), sparse.get(r, c), "cell ({r}, {c})");
            }
            let rows = [dense, sparse].map(|bm| bm.row_iter(r).collect::<Vec<_>>());
            let cols = [dense, sparse].map(|bm| bm.col_iter(r).collect::<Vec<_>>());
            assert_eq!(rows[0], rows[1], "row {r}");
            assert_eq!(cols[0], cols[1], "col {r}");
            let total = dense.d_total(r);
            let max = sbp_graph::MAX_TOTAL_EDGE_WEIGHT;
            let drawn = [0, max - 1, max, total - 1];
            for x in drawn.into_iter().filter(|x| (0..total).contains(x)) {
                assert_eq!(
                    crate::propose::pick_weighted(dense, r, x, None),
                    crate::propose::pick_weighted(sparse, r, x, None),
                    "pick from {r} at {x}"
                );
            }
        }
        let (mut slot, mut on_dense, mut on_sparse) = (Vec::new(), Vec::new(), Vec::new());
        for blocks in [&[][..], &[0], &[1], &[0, 1]] {
            assert_eq!(
                dense.cross_cells(0, 1, blocks, &mut slot, &mut on_dense),
                sparse.cross_cells(0, 1, blocks, &mut slot, &mut on_sparse),
                "corners, blocks {blocks:?}"
            );
            assert_eq!(on_dense, on_sparse, "blocks {blocks:?}");
        }
        assert_eq!(dense.entropy().to_bits(), sparse.entropy().to_bits());
    }

    /// A dense cell holding exactly `MAX_TOTAL_EDGE_WEIGHT` — one arc of
    /// that weight, or a self-loop of it — reads as its sparse twin built
    /// through `from_assignment`, `from_parts` and a sparse → dense
    /// `merged`, and again after the vertex moves away and back.
    #[test]
    fn dense_cells_at_the_weight_limit_read_as_sparse_ones() {
        let max = sbp_graph::MAX_TOTAL_EDGE_WEIGHT;
        for arc in [(0, 1, max), (0, 0, max)] {
            let g = Graph::from_edges(2, vec![arc]);
            let cells: Vec<_> = g.arcs().collect();
            let sparse =
                |a: Vec<u32>| Blockmodel::from_assignment_with(&g, a, 2, StorageKind::Sparse);
            let three_blocks =
                Blockmodel::from_assignment_with(&g, vec![0, 2], 3, StorageKind::Sparse);
            for mut dense in [
                Blockmodel::from_assignment_with(&g, vec![0, 1], 2, StorageKind::Dense),
                Blockmodel::from_parts(2, max, vec![0, 1], 2, &cells),
                three_blocks.merged(&[0, u32::MAX, 1], 2),
            ] {
                assert_eq!(dense.get(arc.0, arc.1), max);
                assert_reads_as_sparse(&dense, &sparse(vec![0, 1]));
                dense.move_vertex(&g, 0, 1);
                assert_eq!(dense.get(1, 1), max);
                assert_reads_as_sparse(&dense, &sparse(vec![1, 1]));
                dense.move_vertex(&g, 0, 0);
                assert_reads_as_sparse(&dense, &sparse(vec![0, 1]));
                dense.validate(&g).unwrap();
            }
        }
    }

    /// A sync delta larger than its cell is broken bookkeeping. Both
    /// storages panic, naming the cell, in release builds as well: the
    /// dense one used to check it with a `debug_assert!` only.
    #[test]
    fn a_sync_delta_past_its_cell_panics_on_both_storages() {
        for_both_kinds(|kind| {
            let mut bm =
                Blockmodel::from_assignment_with(&two_triangles(), two_block_assignment(), 2, kind);
            assert_eq!(bm.get(0, 1), 1);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bm.apply_dist_sync(&[], [(0, 1, -2)], [])
            }))
            .expect_err("a delta of -2 on a cell of 1");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains("went negative"), "{kind:?}: {message}");
        });
    }

    /// A peer degree delta larger than the block's degree is broken
    /// bookkeeping: it panics, naming the block, in release builds as well
    /// (a negative degree would read as `ln 0 = 0` and skew every later DL
    /// without a sign).
    #[test]
    fn a_sync_degree_delta_past_its_block_panics() {
        for_both_kinds(|kind| {
            for deltas in [[(1, -8, 0)], [(1, 0, -8)]] {
                let mut bm = Blockmodel::from_assignment_with(
                    &two_triangles(),
                    two_block_assignment(),
                    2,
                    kind,
                );
                assert_eq!((bm.d_out(1), bm.d_in(1)), (3, 4));
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    bm.apply_dist_sync(&[], [], deltas)
                }))
                .expect_err("a degree delta of -8 on a block of degree 3 or 4");
                let message = panic.downcast_ref::<String>().expect("a formatted message");
                assert!(
                    message.contains("block 1 degree went negative"),
                    "{kind:?}: {message}"
                );
            }
        });
    }

    /// `validate` checks that every line walks in canonical order: a column
    /// holding the right cells in the wrong order — which every walk of it
    /// (`pick_weighted` reads row `t` then column `t`) would observe — is
    /// rejected, although the column side still sums to the rows.
    #[test]
    fn validate_rejects_a_column_out_of_canonical_order() {
        fn column(bm: &mut Blockmodel, b: usize) -> &mut CanonicalLine {
            let Storage::Sparse { cols, .. } = &mut bm.storage else {
                unreachable!("sparse storage was asked for")
            };
            &mut cols[b]
        }
        let g = two_triangles();
        let mut bm = Blockmodel::from_assignment_with(&g, (0..6).collect(), 6, StorageKind::Sparse);
        bm.validate(&g).expect("a fresh build is canonical");
        let b = (0..6)
            .find(|&b| column(&mut bm, b).len() >= 2)
            .expect("a column with two cells");
        let canonical = column(&mut bm, b).as_slice().to_vec();
        *column(&mut bm, b) = CanonicalLine::unchecked(canonical.iter().rev().copied().collect());
        let err = bm.validate(&g).expect_err("a column out of order");
        assert!(
            err.contains(&format!("column {b} out of canonical order")),
            "{err}"
        );
        // The right cells in the right order, in more capacity than a
        // line may keep, are rejected too.
        let mut roomy = Vec::with_capacity(2 * canonical.len() + 9);
        roomy.extend_from_slice(&canonical);
        *column(&mut bm, b) = CanonicalLine::unchecked(roomy);
        let err = bm.validate(&g).expect_err("a column past its room");
        assert!(err.contains(&format!("column {b} holds capacity")), "{err}");
    }

    /// Applies `moves` (distinct vertices) once through `move_vertex` and
    /// once as one batch of externally-computed deltas; states must agree.
    fn assert_sync_equals_moves(
        g: &Graph,
        prev: &[u32],
        moves: &[(Vertex, u32)],
        blocks: usize,
        kind: StorageKind,
    ) {
        use std::collections::BTreeMap;
        let mut via_move = Blockmodel::from_assignment_with(g, prev.to_vec(), blocks, kind);
        let mut via_sync = via_move.clone();
        let mut next = prev.to_vec();
        let mut degrees: BTreeMap<u32, (Weight, Weight)> = BTreeMap::new();
        for &(v, to) in moves {
            via_move.move_vertex(g, v, to);
            next[v as usize] = to;
            let (dout, din) = (g.out_degree(v), g.in_degree(v));
            let from = degrees.entry(prev[v as usize]).or_insert((0, 0));
            *from = (from.0 - dout, from.1 - din);
            let to = degrees.entry(to).or_insert((0, 0));
            *to = (to.0 + dout, to.1 + din);
        }
        let mut deltas: BTreeMap<(u32, u32), Weight> = BTreeMap::new();
        for (s, d, w) in g.arcs() {
            *deltas
                .entry((prev[s as usize], prev[d as usize]))
                .or_insert(0) -= w;
            *deltas
                .entry((next[s as usize], next[d as usize]))
                .or_insert(0) += w;
        }
        via_sync.apply_dist_sync(
            moves,
            deltas.into_iter().map(|((r, c), dw)| (r, c, dw)),
            degrees.into_iter().map(|(b, (o, i))| (b, o, i)),
        );
        assert_eq!(via_move.assignment(), via_sync.assignment());
        assert_eq!(via_move.cells_canonical(), via_sync.cells_canonical());
        for b in 0..blocks as u32 {
            assert_eq!(via_move.d_out(b), via_sync.d_out(b), "{kind:?}");
            assert_eq!(via_move.d_in(b), via_sync.d_in(b), "{kind:?}");
            assert_eq!(
                via_move.ln_d_out(b).to_bits(),
                via_sync.ln_d_out(b).to_bits()
            );
            assert_eq!(via_move.ln_d_in(b).to_bits(), via_sync.ln_d_in(b).to_bits());
        }
        via_sync.validate(g).unwrap();
    }

    #[test]
    fn apply_dist_sync_equals_move_vertex() {
        for_both_kinds(|kind| {
            // Vertex 2 crossing between the two triangles.
            assert_sync_equals_moves(
                &two_triangles(),
                &two_block_assignment(),
                &[(2, 1)],
                2,
                kind,
            );
            // Random graphs (self-loops and heavy arcs included), random
            // batches: every third vertex or so moves, some onto its own
            // block, some emptying or refilling a block.
            let mut rng = SmallRng::seed_from_u64(18);
            for _ in 0..25 {
                let (n, blocks) = (40u32, 6u32);
                let edges: Vec<_> = (0..150)
                    .map(|_| {
                        (
                            rng.random_range(0..n),
                            rng.random_range(0..n),
                            rng.random_range(1..=3i64),
                        )
                    })
                    .collect();
                let g = Graph::from_edges(n as usize, edges);
                let prev: Vec<u32> = (0..n).map(|_| rng.random_range(0..blocks)).collect();
                let mut moves: Vec<(Vertex, u32)> = Vec::new();
                for v in 0..n {
                    if rng.random_bool(0.35) {
                        moves.push((v, rng.random_range(0..blocks)));
                    }
                }
                assert_sync_equals_moves(&g, &prev, &moves, blocks as usize, kind);
            }
        });
    }

    /// A random graph of `n` vertices and `arcs` unit arcs, self-loops
    /// included, under a random `blocks`-block partition.
    fn random_labelled(rng: &mut SmallRng, n: u32, arcs: usize, blocks: u32) -> (Graph, Vec<u32>) {
        let edges: Vec<_> = (0..arcs)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n), 1))
            .collect();
        let labels = (0..n).map(|_| rng.random_range(0..blocks)).collect();
        (Graph::from_edges(n as usize, edges), labels)
    }

    /// Folding a batch the graph took equals rebuilding on the changed
    /// graph, on either storage: re-weights, new arcs and self-loops,
    /// arcs driven to weight 0, and removals that only net out after the
    /// batch's additions.
    #[test]
    fn folded_deltas_equal_a_rebuild_on_both_storages() {
        let mut rng = SmallRng::seed_from_u64(41);
        for (n, arcs, blocks, kind) in [
            (30, 90, 5, StorageKind::Dense),
            (200, 300, 100, StorageKind::Sparse),
        ] {
            let mut checked = 0;
            for round in 0..20 {
                let (mut g, labels) = random_labelled(&mut rng, n, arcs, blocks);
                let mut bm = Blockmodel::from_assignment(&g, labels.clone(), blocks as usize);
                assert_eq!(bm.storage_kind(), kind);
                let present: Vec<_> = g.arcs().collect();
                let mut deltas: Vec<EdgeDelta> = Vec::new();
                for _ in 0..8 {
                    let (src, dst, w) = present[rng.random_range(0..present.len())];
                    // In half the batches a removal past the arc's weight,
                    // which the batch's own addition, listed first, nets out.
                    let extra = i64::from(round % 2 == 0);
                    if extra > 0 {
                        deltas.insert(0, EdgeDelta { src, dst, delta: 1 });
                    }
                    deltas.push(EdgeDelta {
                        src,
                        dst,
                        delta: -(w + extra),
                    });
                    let v = rng.random_range(0..n);
                    let u = if rng.random_bool(0.3) {
                        v
                    } else {
                        rng.random_range(0..n)
                    };
                    deltas.push(EdgeDelta {
                        src: v,
                        dst: u,
                        delta: rng.random_range(1..=3),
                    });
                }
                if g.apply_edge_deltas(&deltas).is_err() {
                    continue; // an arc sampled twice, removed past its weight
                }
                assert!(bm.fold_edge_deltas(&deltas), "{kind:?} round {round}");
                let rebuilt = Blockmodel::from_assignment(&g, labels, blocks as usize);
                assert!(bm.same_state(&rebuilt), "{kind:?} round {round}");
                bm.validate(&g).unwrap();
                checked += 1;
            }
            assert!(checked >= 10, "{kind:?}: {checked} folds checked");
        }
    }

    /// A fold that would move `(C, E)` over the storage pick declines and
    /// leaves the model as it was.
    #[test]
    fn a_fold_across_the_storage_pick_declines() {
        let mut rng = SmallRng::seed_from_u64(7);
        let (g, labels) = random_labelled(&mut rng, 200, 300, 100);
        let mut bm = Blockmodel::from_assignment(&g, labels, 100);
        assert_eq!(bm.storage_kind(), StorageKind::Sparse);
        let (src, dst, _) = g.arcs().next().unwrap();
        let heavy = [EdgeDelta {
            src,
            dst,
            delta: 2_500 - g.total_edge_weight(),
        }];
        assert!(auto_picks_dense(100, 2_500));
        let before = bm.clone();
        assert!(!bm.fold_edge_deltas(&heavy));
        assert!(bm.same_state(&before));
    }
}
