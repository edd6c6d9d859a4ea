//! Change-in-entropy and Metropolis–Hastings evaluation of proposals
//! (paper §III-A optimization c) with a **zero-allocation hot path**.
//!
//! Two kernels live here, with different cost models on purpose.
//!
//! ## Vertex moves: O(deg) — [`DeltaScratch::gather_vertex`] +
//! [`DeltaScratch::evaluate_move`]
//!
//! The MCMC inner loop evaluates one proposal per vertex per sweep —
//! millions per run. Moving `v` from block `r` to `s` changes at most
//! `4k + 4` matrix cells, `k` being the number of distinct blocks among
//! `v`'s neighbours: `(r,t) (s,t) (t,r) (t,s)` for every neighbour block
//! `t`, and the four `{r,s}²` corners. Because row sums are block degrees,
//! the entropy factors exactly:
//!
//! ```text
//! S = −Σ M ln M + Σ_b d_out_b ln d_out_b + Σ_b d_in_b ln d_in_b
//! ```
//!
//! so with `f(x) = x ln x`
//!
//! ```text
//! ΔS = Σ_changed [f(M) − f(M+δ)]
//!    + Σ_{b∈{r,s}} [f(d'_out) − f(d_out) + f(d'_in) − f(d_in)]
//! ```
//!
//! and nothing outside the changed cells is read. A sweep draws the
//! proposal *first* ([`crate::hybrid`]'s `evaluate_vertex`, with the
//! self-loop weight asked of the graph, [`Graph::self_loop_weight`]) and
//! evaluates only a draw that names another block — a draw of the vertex's
//! own block, 40–50 % of them at `C ≤ 23`, costs the draw and nothing
//! below. One evaluation is:
//!
//! 1. **gather** — one pass over `v`'s adjacency accumulates
//!    `w_out[t]`/`w_in[t]` per neighbour block in a block-indexed
//!    accumulator and inserts every edge's block into a 64-ary
//!    hierarchical bitset (`blockset.rs`; the insert is idempotent, so no
//!    "seen this block yet?" test — a coin flip at large `C` — guards
//!    it), whose drain hands the blocks back ascending — everything
//!    downstream runs ascending in `t` — without a comparison sort; the
//!    self-loop weight falls out of the same pass (debug builds check it
//!    against the graph's answer the proposal was drawn with). The bitset
//!    is fitted to the current `C` and keeps its top word in a local, so
//!    an insert writes `levels − 1` words of memory — none at `C ≤ 64`:
//!    O(deg·levels), `levels = ⌈log₆₄ C⌉`;
//! 2. **one fetch, one `t` loop** — `Blockmodel::cross_cells` returns
//!    `M[r][t] M[s][t] M[t][r] M[t][s]` for every neighbour block and,
//!    out of the same read of rows `r` and `s`, the four `{r,s}²`
//!    corners; the loop feeds both the ΔS terms and the Hastings
//!    forward/backward sums from those four values: O(k). It adds all
//!    four ΔS pairs of a block whichever of `w_out[t]`, `w_in[t]` is zero
//!    (most neighbour blocks hold one arc, so a test would mispredict
//!    half the time): a pair with nothing to move is `x − x = +0.0`, and
//!    `+0.0` added to a sum that is never `−0.0` changes no bit.
//!    Dense storage indexes the four contiguous lines. Sparse storage
//!    fetches **by position**: it stamps `slot[t] = j` for the `k` blocks
//!    — and for `r` and `s`, as two extra positions, when they are not
//!    among them — into a block-indexed map kept in the scratch, streams
//!    each of the four sorted lines once with one unconditional store per
//!    cell (`out[min(slot[key], k + 2)][line] = w`, the last row a
//!    dummy), and un-stamps — no key is compared, so there is no branch
//!    to mispredict. When the lines are long for the few blocks asked of
//!    them (a leaf vertex on a hub block: more than 64 line cells per
//!    block) it looks the blocks — and the corners — up instead, four
//!    binary searches each.
//!
//! | regime | line-delta kernel (before PR 13) | now |
//! |---|---|---|
//! | sparse storage | two adjacency sorts, six binary searches per neighbour block, and `ln` terms for every cell of all four lines: O(deg·log deg + nnz of four lines) | O(deg·levels + k), plus one store per cell of the four lines — or 4k + 4 binary searches, whichever the line lengths make cheaper |
//! | dense storage | O(deg) delta build, then four full line scans: O(deg + 4C) | O(deg·levels + k) |
//! | a draw of the vertex's own block | the same as any other | nothing: it is skipped before the gather |
//!
//! The fetch is **branch-bound, not cache-bound**. Until PR 16 it was a
//! lock-step join of the four sorted lines against the sorted neighbour
//! blocks (step over short gaps, gallop over long ones) and was taken to
//! be waiting on memory. Timed in place on the `single_challenge` input
//! (k ≈ 37 blocks against ≈ 300 line cells at the sparse block counts) it
//! cost ≈ 5 400 cycles per evaluation, of which pulling all four lines
//! into cache accounts for ≈ 700: the rest was one mispredicted loop exit
//! per (block, line), ≈ 16 cycles per cell on lines that were already hot.
//! The positional fetch reads the same cells for ≈ 1 200. The per-stage
//! tables are in `benchmarks/summary.md` (PR 16 and PR 23 addenda).
//!
//! **Exactness.** The factored form is an algebraic identity, not an
//! approximation. It rounds differently from a line walk (last ulps of
//! ΔS), and ΔS enters the chain only through
//! `u < min(1, exp(−β·ΔS)·H)`, so a decision differs from the line-walk
//! kernel's only when `u` lands inside an interval of relative width
//! β·|rounding error| — 1e-12 to 1e-10, growing with the block degrees
//! whose `f(d') − f(d)` cancels. The Hastings sums keep the expression and
//! ascending-`t` order of [`hastings_for_delta`] op for op, so `H` is
//! `to_bits`-equal to it.
//!
//! **Determinism.** ΔS accumulates in one fixed order — the four corners,
//! then `t` ascending with a fixed per-`t` term order, then the four
//! degree terms — and every operand is an integer of the logical state,
//! so two replicas holding the same integers produce bit-identical ΔS and
//! `H` whatever their storage representation or move history.
//!
//! ## Block merges: one walk of the canonical lines —
//! [`DeltaScratch::gather_block`] + [`GatheredBlock::evaluate_merge`]
//!
//! Merging block `r` into `s` empties every cell of row and column `r`,
//! adds `M[r][c]` to `(s,c)` and `M[x][r]` to `(x,s)`, and folds
//! `M[r][r] + M[r][s] + M[s][r]` into `(s,s)`. So the per-cell delta of
//! the `s` lines *is* the `r` lines, and because every line iterates
//! ascending (see [`crate::line`]) ΔS is a two-pointer join of row `r`
//! against row `s` and of column `r` against column `s`: no delta vector
//! is built, nothing is sorted, and no cell is searched for (the one
//! exception: `M[r][s]` and `M[s][r]`, two point lookups per proposal for
//! the folded diagonal). The merge phase draws `x = 10` targets per block,
//! so everything that depends on `r` alone is gathered once per block by
//! `gather_block` — the nonzero cells of its two lines, the old entropy
//! terms of row `r` as a running sum and of column `r` as a term list —
//! and `evaluate_merge` walks only the `s` lines.
//!
//! **The accumulation-order contract.** Merge candidates are *ranked* by
//! ΔS, and the identity partition is full of mathematically tied
//! candidates whose order is decided by the last ulps, so the walk is
//! pinned op for op: `ΔS = new − old`, two separate accumulators, every
//! term `−m·(ln m − (ln d_out + ln d_in))` over integers of the logical
//! state.
//!
//! * `old` sums the current terms of row `r`, row `s`, column `r` without
//!   rows `{r, s}`, column `s` without rows `{r, s}` — each line ascending,
//!   the lines in that order. Row `r` comes first, which is what lets its
//!   sum be hoisted; column `r` comes after row `s`, so its *terms* are
//!   hoisted and re-added per target.
//! * `new` sums the post-merge terms of the surviving cells. On **sparse**
//!   storage: the existing cells of row `s`, then of column `s`, then the
//!   *created* cells (the `r` line has a cell where the `s` line has none)
//!   in ascending `(row, col)` order — `(x,s)` for `x < s`, `(s,c)`
//!   ascending (with `(s,s)` in its place when only the folded diagonal
//!   fills it), `(x,s)` for `x > s`. Created cells come last because a
//!   sparse line cannot be asked for a cell it does not hold: the join
//!   meets them out of band and parks their terms until both walks are
//!   done. On **dense** storage a line scan visits every slot, so created
//!   cells are summed inline, at their slot: row `s`, then column `s`,
//!   through the local `delta_line_pass`, fed the dense `r` line as the
//!   delta line. The two storages therefore round a merge ΔS differently, as
//!   they always have; replicas agree because they pick the same storage
//!   for the same integers — [`crate::auto_picks_dense`] reads `(C, E)` and
//!   nothing else.
//!
//! [`merge_delta`] + [`delta_entropy`] are the kernel this walk replaced:
//! the delta as a sorted `(cell, delta)` vector ([`LineDelta`]), ΔS by
//! re-evaluating the four affected lines under it (sparse: a snapshot of
//! their cells, one binary search each). The walk is `to_bits`-equal to
//! them on every merge — that is its test — so candidate ranking,
//! tie-breaks and trajectories did not move when it replaced them.
//!
//! The free functions ([`vertex_move_delta`], [`merge_delta`],
//! [`delta_entropy`], [`hastings_for_delta`]) run moves and merges
//! through that line-delta kernel and allocate what they need. Nothing on
//! the hot path calls them; they are the independent reference the two
//! kernels above are tested against.
//!
//! Degree logarithms come from the blockmodel's incrementally maintained
//! cache ([`Blockmodel::ln_d_out`]/[`ln_d_in`](Blockmodel::ln_d_in)), and
//! the integer `ln M` and `M ln M` values from the compile-time tables of
//! [`crate::lntab`].

use crate::blockmodel::{Blockmodel, LineIter};
use crate::blockset::BlockSet;
use crate::line::{narrow, CanonicalLine, Cell};
use crate::lntab::{ln_int, xlnx_int};
use sbp_graph::{Graph, Vertex, Weight};
use std::cell::RefCell;

#[inline]
fn pack(r: u32, c: u32) -> u64 {
    ((r as u64) << 32) | c as u64
}

#[inline]
fn unpack(k: u64) -> (u32, u32) {
    ((k >> 32) as u32, k as u32)
}

/// −m·(ln m − ln_deg_sum); callers guarantee `m > 0`.
#[inline]
pub(crate) fn term(m: Weight, ln_deg_sum: f64) -> f64 {
    -(m as f64) * (ln_int(m) - ln_deg_sum)
}

/// `f(x) = x ln x` with `f(0) = 0` — the factored entropy's only term.
#[inline]
fn xlnx(m: Weight) -> f64 {
    debug_assert!(m >= 0, "count went negative");
    xlnx_int(m)
}

/// A sparse description of how a vertex move or block merge changes the
/// blockmodel: per-cell edge-count deltas (all cells lie in rows/columns
/// `{from, to}`) plus the degree mass shifted from `from` to `to`.
///
/// Cell deltas are stored as a sorted vector keyed by the packed
/// `(row, col)` pair — point lookups are a binary search over a handful of
/// entries, iteration is a linear scan, and reuse across proposals needs
/// only a `clear()`.
#[derive(Clone, Debug, Default)]
pub struct LineDelta {
    /// Source block.
    pub from: u32,
    /// Destination block.
    pub to: u32,
    /// Sorted `(packed cell, delta)` entries. Opposite-sign contributions
    /// may fold to an explicit zero entry; those are harmless to the
    /// kernels and filtered from the public iterator.
    cells: Vec<(u64, Weight)>,
    /// Out-degree mass moving from `from` to `to`.
    pub dout_shift: Weight,
    /// In-degree mass moving from `from` to `to`.
    pub din_shift: Weight,
}

impl LineDelta {
    /// Delta applied to cell `(r, c)` (zero when untouched).
    #[inline]
    pub fn cell_delta(&self, r: u32, c: u32) -> Weight {
        let k = pack(r, c);
        match self.cells.binary_search_by_key(&k, |e| e.0) {
            Ok(i) => self.cells[i].1,
            Err(_) => 0,
        }
    }

    /// Iterates the nonzero cell deltas as `((row, col), delta)`.
    pub fn cells(&self) -> impl Iterator<Item = ((u32, u32), Weight)> + '_ {
        self.cells
            .iter()
            .filter(|&&(_, d)| d != 0)
            .map(|&(k, d)| (unpack(k), d))
    }

    /// Rebuilds `cells` from an unsorted contribution stream by
    /// sort-and-fold — O(n log n) regardless of how many distinct cells a
    /// high-degree vertex touches (a sorted per-cell insert would be
    /// quadratic for hubs at large block counts).
    fn fold_from(&mut self, raw: &mut [(u64, Weight)]) {
        raw.sort_unstable_by_key(|e| e.0);
        self.cells.clear();
        for &(k, d) in raw.iter() {
            match self.cells.last_mut() {
                Some(last) if last.0 == k => last.1 += d,
                _ => self.cells.push((k, d)),
            }
        }
    }
}

/// Reusable per-proposal buffers: evaluate a vertex move's `(ΔS, H)` or a
/// merge's `ΔS` without heap allocation.
///
/// One scratch per thread; [`with_scratch`] hands out the thread-local
/// instance, which is how the sweep loops (frozen-state sweeps evaluate on
/// pool workers) and the parallel merge phase share it.
#[derive(Debug, Default)]
pub struct DeltaScratch {
    /// Block-indexed `(w_out, w_in)` of the gathered vertex towards each
    /// block (self-loop excluded); nonzero exactly at `touched`.
    acc: Vec<(Weight, Weight)>,
    /// The gathered vertex's neighbour blocks, ascending.
    touched: Vec<u32>,
    /// Orders `touched` without a sort: first touches go in, the drain
    /// comes out ascending. Empty between gathers.
    order: BlockSet,
    /// Block-indexed scratch of sparse `Blockmodel::cross_cells`; all
    /// `u32::MAX` between calls.
    slot: Vec<u32>,
    /// The gathered vertex's self-loop weight.
    self_w: Weight,
    /// `[M[r][t], M[s][t], M[t][r], M[t][s]]` per neighbour block `t` of
    /// the move under evaluation.
    cross: Vec<[Weight; 4]>,
    /// The gathered block `r` (the one being merged away).
    from: u32,
    /// Nonzero cells of row `r` as `(col, M[r][col])`, ascending.
    row_r: Vec<(u32, Weight)>,
    /// Nonzero cells of column `r` as `(row, M[row][r])`, ascending.
    col_r: Vec<(u32, Weight)>,
    /// `M[r][r]`.
    m_rr: Weight,
    /// Sum of row `r`'s current entropy terms, ascending — the head of
    /// every merge's `old` accumulator.
    row_r_old: f64,
    /// Current entropy term of each `col_r` cell.
    col_r_old: Vec<f64>,
    /// Sparse storage: parked terms of the created cells `(s, c)`,
    /// ascending in `c`, `(s, s)` excluded.
    created_row: Vec<f64>,
    /// Sparse storage: parked terms of the created cells `(x, s)`,
    /// ascending in `x`.
    created_col: Vec<f64>,
}

thread_local! {
    static TLS_SCRATCH: RefCell<DeltaScratch> = RefCell::new(DeltaScratch::default());
}

/// Runs `f` with this thread's [`DeltaScratch`].
pub fn with_scratch<R>(f: impl FnOnce(&mut DeltaScratch) -> R) -> R {
    TLS_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

impl DeltaScratch {
    /// Fresh scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// Gathers vertex `v`'s neighbour-block weights and its self-loop
    /// weight for the [`evaluate_move`](Self::evaluate_move) calls that
    /// follow (against the same `bm`), in one pass over its adjacency.
    pub fn gather_vertex(&mut self, graph: &Graph, bm: &Blockmodel, v: Vertex) {
        for &t in &self.touched {
            self.acc[t as usize] = (0, 0);
        }
        self.touched.clear();
        if self.acc.len() < bm.num_blocks() {
            self.acc.resize(bm.num_blocks(), (0, 0));
        }
        self.order.fit(bm.num_blocks());
        self.self_w = 0;
        let acc = &mut self.acc;
        let mut order = self.order.gather();
        let mut first_touches = 0usize;
        // Every edge inserts its block: the insert is idempotent, and a
        // "first touch?" test is a coin flip where a sweep is dearest (most
        // edges of a vertex reach a block of their own at large C). Weights
        // are strictly positive, so a zero slot is a first touch — counted
        // for the debug check below only.
        let mut add = |u: Vertex, w_out: Weight, w_in: Weight| {
            let t = bm.block_of(u);
            let slot = &mut acc[t as usize];
            first_touches += usize::from(*slot == (0, 0));
            order.insert(t);
            slot.0 += w_out;
            slot.1 += w_in;
        };
        for (u, w) in graph.out_edges(v) {
            if u == v {
                self.self_w = w;
            } else {
                add(u, w, 0);
            }
        }
        for (u, w) in graph.in_edges(v) {
            if u != v {
                add(u, 0, w);
            }
        }
        order.drain_into(&mut self.touched);
        // Strictly ascending, one entry per first touch, each with weight:
        // exactly the sorted list of first-touched blocks.
        debug_assert!(self.touched.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(self.touched.len(), first_touches);
        debug_assert!(self.touched.iter().all(|&t| self.acc[t as usize] != (0, 0)));
        // The proposal was drawn with the graph's own answer.
        debug_assert_eq!(self.self_w, graph.self_loop_weight(v));
    }

    /// The neighbour blocks of the last gathered vertex, ascending.
    #[doc(hidden)]
    pub fn neighbour_blocks(&self) -> &[u32] {
        &self.touched
    }

    /// The rest of what the last gather found: the block-indexed
    /// `(w_out, w_in)` towards each block (nonzero exactly at the
    /// neighbour blocks) and the self-loop weight — for the
    /// micro-benchmark's reference evaluation.
    #[doc(hidden)]
    pub fn neighbour_weights(&self) -> (&[(Weight, Weight)], Weight) {
        (&self.acc, self.self_w)
    }

    /// `Blockmodel::cross_cells` through this scratch's buffers, for the
    /// tests and micro-benchmarks outside the crate: the `{r, s}²` corners
    /// and the per-block cells.
    #[doc(hidden)]
    pub fn cross_cells(
        &mut self,
        bm: &Blockmodel,
        r: u32,
        s: u32,
        blocks: &[u32],
    ) -> ([Weight; 4], &[[Weight; 4]]) {
        let corners = bm.cross_cells(r, s, blocks, &mut self.slot, &mut self.cross);
        (corners, &self.cross)
    }

    /// `(ΔS, H)` for moving the vertex `v` of the last
    /// [`gather_vertex`](Self::gather_vertex) call into block `to`, in
    /// O(distinct neighbour blocks) — see the module docs for the identity
    /// and the accumulation order.
    ///
    /// `ΔS = S_after − S_before`; negative is an improvement (the
    /// description length decreases by the same amount since the
    /// model-complexity term is unaffected by moves at fixed block count).
    /// `H = p(s→r) / p(r→s)` is the Metropolis–Hastings correction in the
    /// Graph-Challenge reference formulation,
    ///
    /// `p(r→s) ∝ Σ_t w_t · (M[t][s] + M[s][t] + 1) / (d_t + B)`
    ///
    /// with `t` ranging over the blocks of `v`'s (non-self) neighbors,
    /// `w_t` the edge weight between `v` and block `t`, forward evaluated
    /// on the current matrix and backward on the post-move matrix. A
    /// vertex without non-self neighbors is proposed uniformly in both
    /// directions, so its correction is 1.
    pub fn evaluate_move(
        &mut self,
        graph: &Graph,
        bm: &Blockmodel,
        v: Vertex,
        to: u32,
    ) -> (f64, f64) {
        let (r, s) = (bm.block_of(v), to);
        if r == s {
            return (0.0, 1.0);
        }
        debug_assert!(
            self.acc.len() >= bm.num_blocks(),
            "gather_vertex against this blockmodel first"
        );
        let (wo_r, wi_r) = self.acc[r as usize];
        let (wo_s, wi_s) = self.acc[s as usize];
        // One fetch serves the whole evaluation: the {r,s}² corners
        // (r,r) (r,s) (s,r) (s,s) and the four cells per neighbour block.
        let m = bm.cross_cells(r, s, &self.touched, &mut self.slot, &mut self.cross);
        debug_assert_eq!(
            m,
            [bm.get(r, r), bm.get(r, s), bm.get(s, r), bm.get(s, s)],
            "corners of the move {r} -> {s}"
        );
        let d = [
            -(wo_r + wi_r + self.self_w),
            wi_r - wo_s,
            wo_r - wi_s,
            wo_s + wi_s + self.self_w,
        ];
        let mut ds = 0.0f64;
        for (&m, &d) in m.iter().zip(&d) {
            ds += xlnx(m) - xlnx(m + d);
        }
        let (dout, din) = (graph.out_degree(v), graph.in_degree(v));
        let shift = dout + din;
        let b = bm.num_blocks() as f64;
        let mut fwd = 0.0f64;
        let mut bwd = 0.0f64;
        for (&t, &[m_rt, m_st, m_tr, m_ts]) in self.touched.iter().zip(&self.cross) {
            let (wo, wi) = self.acc[t as usize];
            let base = bm.d_total(t);
            // (M[t][s] + M[s][t], post-move M[t][r], post-move M[r][t],
            // post-move d_t)
            let (m_s, nc_tr, nc_rt, ndt) = if t == r {
                (m[1] + m[2], m[0] + d[0], m[0] + d[0], base - shift)
            } else if t == s {
                (m[3] + m[3], m[2] + d[2], m[1] + d[1], base + shift)
            } else {
                // All four pairs, whichever of `wo`, `wi` is zero: most
                // neighbour blocks hold one arc, so testing for it is a
                // coin flip, and a pair with nothing to move is
                // `x − x = +0.0`, which leaves `ds` — never `−0.0`, no
                // term being — the bits it had.
                ds += xlnx(m_rt) - xlnx(m_rt - wo);
                ds += xlnx(m_st) - xlnx(m_st + wo);
                ds += xlnx(m_tr) - xlnx(m_tr - wi);
                ds += xlnx(m_ts) - xlnx(m_ts + wi);
                (m_ts + m_st, m_tr - wi, m_rt - wo, base)
            };
            let wf = (wo + wi) as f64;
            fwd += wf * (m_s as f64 + 1.0) / (base as f64 + b);
            bwd += wf * (nc_tr as f64 + nc_rt as f64 + 1.0) / (ndt as f64 + b);
        }
        for (deg, ln_deg, shift) in [
            (bm.d_out(r), bm.ln_d_out(r), -dout),
            (bm.d_out(s), bm.ln_d_out(s), dout),
            (bm.d_in(r), bm.ln_d_in(r), -din),
            (bm.d_in(s), bm.ln_d_in(s), din),
        ] {
            ds += xlnx(deg + shift) - deg as f64 * ln_deg;
        }
        let hastings = if self.touched.is_empty() {
            1.0
        } else {
            debug_assert!(fwd > 0.0);
            bwd / fwd
        };
        (ds, hastings)
    }

    /// Gathers what every merge of block `r` shares — the nonzero cells of
    /// row and column `r`, and their current entropy terms — and returns
    /// the handle that evaluates merges of `r` against them. The handle
    /// borrows `bm`, so the gathered lines cannot go stale under it.
    pub fn gather_block<'a>(&'a mut self, bm: &'a Blockmodel, r: u32) -> GatheredBlock<'a> {
        self.from = r;
        self.row_r.clear();
        self.row_r.extend(bm.row_iter(r));
        self.col_r.clear();
        self.col_r.extend(bm.col_iter(r));
        self.m_rr = line_get(&self.row_r, r);
        let (ln_do_r, ln_di_r) = (bm.ln_d_out(r), bm.ln_d_in(r));
        self.row_r_old = 0.0;
        for &(c, m) in &self.row_r {
            self.row_r_old += term(m, ln_do_r + bm.ln_d_in(c));
        }
        self.col_r_old.clear();
        self.col_r_old.extend(
            self.col_r
                .iter()
                .map(|&(x, m)| term(m, bm.ln_d_out(x) + ln_di_r)),
        );
        GatheredBlock { scratch: self, bm }
    }

    fn evaluate_merge(&mut self, bm: &Blockmodel, s: u32) -> f64 {
        let r = self.from;
        assert_ne!(r, s, "cannot merge a block into itself");
        let m_sr = line_get(&self.col_r, s);
        let target = MergeTarget {
            s,
            m_sr,
            diag: self.m_rr + line_get(&self.row_r, s) + m_sr,
            ln_ndo_s: ln_int(bm.d_out(s) + bm.d_out(r)),
            ln_ndi_s: ln_int(bm.d_in(s) + bm.d_in(r)),
        };
        match (bm.row_iter(s), bm.col_iter(s)) {
            (LineIter::Sparse(row_s), LineIter::Sparse(col_s)) => {
                self.walk_sparse(bm, &target, row_s.as_slice(), col_s.as_slice())
            }
            (LineIter::Dense { line: row_s, .. }, LineIter::Dense { line: col_s, .. }) => {
                self.walk_dense(bm, &target, row_s, col_s)
            }
            _ => unreachable!("a blockmodel has one storage kind"),
        }
    }

    /// `old` plus column `r`'s current terms, ascending, without rows `r`
    /// and `s` (the row walks count those cells).
    fn add_col_r_old(&self, s: u32, mut old: f64) -> f64 {
        for (&(x, _), &old_term) in self.col_r.iter().zip(&self.col_r_old) {
            if x != self.from && x != s {
                old += old_term;
            }
        }
        old
    }

    /// The sparse-storage merge walk: joins row `r` against row `s` and
    /// column `r` against column `s`, parking the created cells' terms
    /// until both are done (module docs: the accumulation-order contract).
    fn walk_sparse(
        &mut self,
        bm: &Blockmodel,
        t: &MergeTarget,
        row_s: &[Cell],
        col_s: &[Cell],
    ) -> f64 {
        let (r, s) = (self.from, t.s);
        let (ln_do_s, ln_di_s) = (bm.ln_d_out(s), bm.ln_d_in(s));
        let mut old = self.row_r_old;
        let mut new = 0.0f64;

        // Row s. The corner cells of row r never pair up: (r,r) and (r,s)
        // are part of the folded diagonal.
        let created = &mut self.created_row;
        created.clear();
        let (mut before_diag, mut has_ss) = (0usize, false);
        join_merge_lines(
            &self.row_r,
            row_s,
            |c, m_rc| {
                if c != r && c != s {
                    before_diag += usize::from(c < s);
                    created.push(term(m_rc, t.ln_ndo_s + bm.ln_d_in(c)));
                }
            },
            |c, m, m_rc| {
                old += term(m, ln_do_s + bm.ln_d_in(c));
                if c == s {
                    has_ss = true;
                    new += term(m + t.diag, t.ln_ndo_s + t.ln_ndi_s);
                } else if c != r {
                    new += term(m + m_rc, t.ln_ndo_s + bm.ln_d_in(c));
                }
            },
        );

        // Column r, then column s: rows r and s were counted above.
        old = self.add_col_r_old(s, old);
        let created = &mut self.created_col;
        created.clear();
        let mut above_s = 0usize;
        join_merge_lines(
            &self.col_r,
            col_s,
            |x, m_xr| {
                if x != r && x != s {
                    above_s += usize::from(x < s);
                    created.push(term(m_xr, bm.ln_d_out(x) + t.ln_ndi_s));
                }
            },
            |x, m, m_xr| {
                if x != r && x != s {
                    old += term(m, bm.ln_d_out(x) + ln_di_s);
                    new += term(m + m_xr, bm.ln_d_out(x) + t.ln_ndi_s);
                }
            },
        );

        // Created cells, ascending by (row, col).
        let (col_above, col_below) = self.created_col.split_at(above_s);
        let (row_left, row_right) = self.created_row.split_at(before_diag);
        let diag_term = (t.diag > 0 && !has_ss).then(|| term(t.diag, t.ln_ndo_s + t.ln_ndi_s));
        for &created_term in col_above
            .iter()
            .chain(row_left)
            .chain(&diag_term)
            .chain(row_right)
            .chain(col_below)
        {
            new += created_term;
        }
        new - old
    }

    /// The dense-storage merge walk: two slot-by-slot line passes, created
    /// cells inline, the `r` lines as the delta lines.
    fn walk_dense(&self, bm: &Blockmodel, t: &MergeTarget, row_s: &[u32], col_s: &[u32]) -> f64 {
        let (r, s) = (self.from, t.s);
        let row_r = bm.dense_row(r).expect("dense storage");
        let col_r = bm.dense_col(r).expect("dense storage");
        let mut old = self.row_r_old;
        let mut new = 0.0f64;
        // Row s gains row r cell for cell, except at the two corner
        // columns: (s,r) empties and (s,s) takes the folded diagonal.
        delta_line_pass(
            row_s,
            row_r,
            bm.ln_d_in_all(),
            bm.ln_d_out(s),
            t.ln_ndo_s,
            // Column r of the merged row is empty: `ln_r` is never read.
            &LineFix::Substitute {
                r,
                s,
                dm_r: -t.m_sr,
                dm_s: t.diag,
                ln_r: 0.0,
                ln_s: t.ln_ndi_s,
            },
            &mut old,
            &mut new,
        );
        old = self.add_col_r_old(s, old);
        // Column s gains column r as is: the pass skips rows r and s.
        delta_line_pass(
            col_s,
            col_r,
            bm.ln_d_out_all(),
            bm.ln_d_in(s),
            t.ln_ndi_s,
            &LineFix::Skip { r, s },
            &mut old,
            &mut new,
        );
        new - old
    }
}

/// Block `r` of a blockmodel, gathered by [`DeltaScratch::gather_block`]
/// for merging: every [`evaluate_merge`](Self::evaluate_merge) walks one
/// target's lines against the same gathered `r` lines.
#[derive(Debug)]
pub struct GatheredBlock<'a> {
    scratch: &'a mut DeltaScratch,
    bm: &'a Blockmodel,
}

impl GatheredBlock<'_> {
    /// `ΔS = S_after − S_before` for merging the gathered block into block
    /// `to`, in one walk of row and column `to` against the gathered lines
    /// — see the module docs for what is walked and the accumulation
    /// order. Negative is an improvement.
    ///
    /// # Panics
    /// Panics if `to` is the gathered block.
    pub fn evaluate_merge(&mut self, to: u32) -> f64 {
        self.scratch.evaluate_merge(self.bm, to)
    }
}

/// What one merge target `s` contributes to the walk besides its lines.
struct MergeTarget {
    s: u32,
    /// `M[s][r]`.
    m_sr: Weight,
    /// `M[r][r] + M[r][s] + M[s][r]`, the mass folded into `(s, s)`.
    diag: Weight,
    /// Post-merge `ln(d_out(s))`.
    ln_ndo_s: f64,
    /// Post-merge `ln(d_in(s))`.
    ln_ndi_s: f64,
}

/// Weight at `key` of a sorted line (zero when absent).
#[inline]
fn line_get(line: &[(u32, Weight)], key: u32) -> Weight {
    match line.binary_search_by_key(&key, |e| e.0) {
        Ok(i) => line[i].1,
        Err(_) => 0,
    }
}

/// Two-pointer join of a merge's gathered `r` line against the stored `s`
/// line, both ascending: `on_s(k, m_s, m_r)` for every cell of the `s`
/// line (`m_r` zero where the `r` line has none there), `only_r(k, m_r)`
/// for every cell the `r` line alone holds — all in ascending `k`.
#[inline]
fn join_merge_lines(
    r_line: &[(u32, Weight)],
    s_line: &[Cell],
    mut only_r: impl FnMut(u32, Weight),
    mut on_s: impl FnMut(u32, Weight, Weight),
) {
    let mut rest = r_line;
    for &(k, m_s) in s_line {
        let m_s = Weight::from(m_s);
        let lead = rest.iter().take_while(|e| e.0 < k).count();
        for &(k_r, m_r) in &rest[..lead] {
            only_r(k_r, m_r);
        }
        rest = &rest[lead..];
        let m_r = match rest.first() {
            Some(&(k_r, m_r)) if k_r == k => {
                rest = &rest[1..];
                m_r
            }
            _ => 0,
        };
        on_s(k, m_s, m_r);
    }
    for &(k_r, m_r) in rest {
        only_r(k_r, m_r);
    }
}

/// How a line pass treats the moved pair's two special indices `r`/`s`.
enum LineFix {
    /// Row pass: at columns `r`/`s` the delta is the one given here, not
    /// the delta line's, and the *new* term uses the post-move `ln(d_in)`
    /// instead of the cached per-column value.
    Substitute {
        /// Source block of the move.
        r: u32,
        /// Destination block of the move.
        s: u32,
        /// Delta of cell `r`.
        dm_r: Weight,
        /// Delta of cell `s`.
        dm_s: Weight,
        /// Post-move `ln(d_in(r))`.
        ln_r: f64,
        /// Post-move `ln(d_in(s))`.
        ln_s: f64,
    },
    /// Column pass: rows `r`/`s` are skipped entirely (already counted
    /// by the row passes).
    Skip {
        /// Source block of the move.
        r: u32,
        /// Destination block of the move.
        s: u32,
    },
}

/// Cells per chunk of a [`delta_line_pass`] run.
const RUN_CHUNK: usize = 64;

/// Accumulates the old/new entropy terms of one affected dense matrix
/// line under a cell delta, slot by slot in ascending order — the line
/// pass behind the dense merge walk and the line-delta reference kernel.
/// `line` is the stored dense line; `delta` holds its per-cell delta (read
/// everywhere but at the two special indices of `fix`) — the model's own
/// `r` line in a merge walk, a signed line in the line-delta reference —
/// and both widen to [`Weight`] as they are read; `ln_vec` the per-cell
/// cached `ln(degree)`
/// (`ln_d_in` for row passes, `ln_d_out` for column passes); `ln_old` /
/// `ln_new` are the line's own pre-/post-move `ln(degree)`.
///
/// The special indices cut the line into three runs. A run lists, chunk
/// by chunk and without a branch, the cells each sum takes — `m > 0` for
/// `old`, `m + δ > 0` for `new` — and then adds exactly those: which
/// cells are empty is data, not a pattern a branch predictor could learn.
/// Each sum still takes its terms in ascending cell order.
#[allow(clippy::too_many_arguments)]
fn delta_line_pass<D: Copy + Into<Weight>>(
    line: &[u32],
    delta: &[D],
    ln_vec: &[f64],
    ln_old: f64,
    ln_new: f64,
    fix: &LineFix,
    old_sum: &mut f64,
    new_sum: &mut f64,
) {
    let (delta, ln_vec) = (&delta[..line.len()], &ln_vec[..line.len()]);
    let old_at = |i: usize| Weight::from(line[i]);
    let new_at = |i: usize| old_at(i) + delta[i].into();
    let run = |lo: usize, hi: usize, old_sum: &mut f64, new_sum: &mut f64| {
        let (mut olds, mut news) = ([0usize; RUN_CHUNK], [0usize; RUN_CHUNK]);
        for start in (lo..hi).step_by(RUN_CHUNK) {
            let (mut n_old, mut n_new) = (0, 0);
            for i in start..hi.min(start + RUN_CHUNK) {
                let (m, m2) = (old_at(i), new_at(i));
                debug_assert!(m2 >= 0, "cell {i} went negative in delta");
                olds[n_old] = i;
                n_old += usize::from(m > 0);
                news[n_new] = i;
                n_new += usize::from(m2 > 0);
            }
            for &i in &olds[..n_old] {
                *old_sum += term(old_at(i), ln_old + ln_vec[i]);
            }
            for &i in &news[..n_new] {
                *new_sum += term(new_at(i), ln_new + ln_vec[i]);
            }
        }
    };
    let (LineFix::Substitute { r, s, .. } | LineFix::Skip { r, s }) = *fix;
    let (lo, hi) = (r.min(s) as usize, r.max(s) as usize);
    run(0, lo, old_sum, new_sum);
    for (i, next) in [(lo, hi), (hi, line.len())] {
        if let LineFix::Substitute {
            dm_r,
            dm_s,
            ln_r,
            ln_s,
            ..
        } = *fix
        {
            let (dm, ln_cell) = if i == r as usize {
                (dm_r, ln_r)
            } else {
                (dm_s, ln_s)
            };
            let m = old_at(i);
            if m > 0 {
                *old_sum += term(m, ln_old + ln_vec[i]);
            }
            let m2 = m + dm;
            debug_assert!(m2 >= 0, "cell {i} went negative in delta");
            if m2 > 0 {
                *new_sum += term(m2, ln_new + ln_cell);
            }
        }
        run(i + 1, next, old_sum, new_sum);
    }
}

/// Post-move `ln(degree)` helpers shared by the ΔS kernels.
struct NewDegreeLns {
    r: u32,
    s: u32,
    ln_ndo_r: f64,
    ln_ndo_s: f64,
    ln_ndi_r: f64,
    ln_ndi_s: f64,
}

impl NewDegreeLns {
    fn compute(bm: &Blockmodel, delta: &LineDelta) -> Self {
        let (r, s) = (delta.from, delta.to);
        NewDegreeLns {
            r,
            s,
            ln_ndo_r: ln_int(bm.d_out(r) - delta.dout_shift),
            ln_ndo_s: ln_int(bm.d_out(s) + delta.dout_shift),
            ln_ndi_r: ln_int(bm.d_in(r) - delta.din_shift),
            ln_ndi_s: ln_int(bm.d_in(s) + delta.din_shift),
        }
    }

    #[inline]
    fn ln_dout(&self, bm: &Blockmodel, x: u32) -> f64 {
        if x == self.r {
            self.ln_ndo_r
        } else if x == self.s {
            self.ln_ndo_s
        } else {
            bm.ln_d_out(x)
        }
    }

    #[inline]
    fn ln_din(&self, bm: &Blockmodel, y: u32) -> f64 {
        if y == self.r {
            self.ln_ndi_r
        } else if y == self.s {
            self.ln_ndi_s
        } else {
            bm.ln_d_in(y)
        }
    }
}

/// The line-delta ΔS kernel: re-evaluates the four affected lines under a
/// sorted cell delta, on either storage representation. Reference only —
/// it allocates its snapshot and per-line delta buffers.
fn delta_entropy_cells(bm: &Blockmodel, delta: &LineDelta) -> f64 {
    let (r, s) = (delta.from, delta.to);
    if r == s {
        return 0.0;
    }
    let lns = NewDegreeLns::compute(bm, delta);

    // Dense storage: the four affected lines are contiguous slices, so
    // scatter each line's deltas into a dense delta line and walk every
    // slot with the shared [`delta_line_pass`] — no snapshot, no binary
    // searches; newly created cells are covered by the full-line scan.
    if bm.storage_kind() == crate::blockmodel::StorageKind::Dense {
        let mut dline = vec![0 as Weight; bm.num_blocks()];
        let mut old_sum = 0.0f64;
        let mut new_sum = 0.0f64;
        for (x, ln_do_new) in [(r, lns.ln_ndo_r), (s, lns.ln_ndo_s)] {
            dline.fill(0);
            for &(k, d) in &delta.cells {
                let (row, col) = unpack(k);
                if row == x {
                    dline[col as usize] = d;
                }
            }
            let fix = LineFix::Substitute {
                r,
                s,
                dm_r: dline[r as usize],
                dm_s: dline[s as usize],
                ln_r: lns.ln_ndi_r,
                ln_s: lns.ln_ndi_s,
            };
            delta_line_pass(
                bm.dense_row(x).expect("dense storage"),
                &dline,
                bm.ln_d_in_all(),
                bm.ln_d_out(x),
                ln_do_new,
                &fix,
                &mut old_sum,
                &mut new_sum,
            );
        }
        for (y, ln_di_new) in [(r, lns.ln_ndi_r), (s, lns.ln_ndi_s)] {
            dline.fill(0);
            for &(k, d) in &delta.cells {
                let (row, col) = unpack(k);
                if col == y {
                    dline[row as usize] = d;
                }
            }
            delta_line_pass(
                bm.dense_col(y).expect("dense storage"),
                &dline,
                bm.ln_d_out_all(),
                bm.ln_d_in(y),
                ln_di_new,
                &LineFix::Skip { r, s },
                &mut old_sum,
                &mut new_sum,
            );
        }
        return new_sum - old_sum;
    }

    // Sparse storage: snapshot every currently-nonzero cell in the
    // affected lines exactly once — rows r and s in full, columns r and s
    // excluding rows r/s; disjoint by construction, so no dedup pass.
    // Canonical line iteration makes this snapshot (and hence the ΔS
    // summation order) deterministic given the logical state.
    let mut affected: Vec<(u64, Weight)> = Vec::new();
    for (c, m) in bm.row_iter(r) {
        affected.push((pack(r, c), m));
    }
    for (c, m) in bm.row_iter(s) {
        affected.push((pack(s, c), m));
    }
    for (x, m) in bm.col_iter(r) {
        if x != r && x != s {
            affected.push((pack(x, r), m));
        }
    }
    for (x, m) in bm.col_iter(s) {
        if x != r && x != s {
            affected.push((pack(x, s), m));
        }
    }

    let mut used = vec![false; delta.cells.len()];
    let mut old_sum = 0.0f64;
    let mut new_sum = 0.0f64;
    for &(k, m) in affected.iter() {
        let (x, y) = unpack(k);
        old_sum += term(m, bm.ln_d_out(x) + bm.ln_d_in(y));
        let dm = match delta.cells.binary_search_by_key(&k, |e| e.0) {
            Ok(i) => {
                used[i] = true;
                delta.cells[i].1
            }
            Err(_) => 0,
        };
        let m2 = m + dm;
        debug_assert!(m2 >= 0, "cell ({x}, {y}) went negative in delta");
        if m2 > 0 {
            new_sum += term(m2, lns.ln_dout(bm, x) + lns.ln_din(bm, y));
        }
    }
    // Delta cells absent from the snapshot are newly created (old mass
    // zero).
    for (i, &(k, dm)) in delta.cells.iter().enumerate() {
        if used[i] || dm == 0 {
            continue;
        }
        let (x, y) = unpack(k);
        debug_assert!(
            x == r || x == s || y == r || y == s,
            "delta cell outside affected lines"
        );
        debug_assert!(dm > 0, "negative delta on an empty cell ({x}, {y})");
        new_sum += term(dm, lns.ln_dout(bm, x) + lns.ln_din(bm, y));
    }
    new_sum - old_sum
}

/// Fills `delta` with the sorted cell representation of moving `v` to
/// block `to`, using `raw` as the unsorted gather buffer.
fn build_vertex_move_cells(
    graph: &Graph,
    bm: &Blockmodel,
    v: Vertex,
    to: u32,
    delta: &mut LineDelta,
    raw: &mut Vec<(u64, Weight)>,
) {
    let from = bm.block_of(v);
    raw.clear();
    if from != to {
        for (u, w) in graph.out_edges(v) {
            if u == v {
                raw.push((pack(from, from), -w));
                raw.push((pack(to, to), w));
            } else {
                let t = bm.block_of(u);
                raw.push((pack(from, t), -w));
                raw.push((pack(to, t), w));
            }
        }
        for (u, w) in graph.in_edges(v) {
            if u == v {
                continue;
            }
            let t = bm.block_of(u);
            raw.push((pack(t, from), -w));
            raw.push((pack(t, to), w));
        }
    }
    delta.fold_from(raw);
    delta.from = from;
    delta.to = to;
    delta.dout_shift = graph.out_degree(v);
    delta.din_shift = graph.in_degree(v);
}

/// Builds the [`LineDelta`] for moving vertex `v` into block `to`
/// (allocating wrapper used by tests, benchmarks and external callers).
pub fn vertex_move_delta(graph: &Graph, bm: &Blockmodel, v: Vertex, to: u32) -> LineDelta {
    let mut delta = LineDelta::default();
    let mut raw = Vec::new();
    build_vertex_move_cells(graph, bm, v, to, &mut delta, &mut raw);
    delta
}

/// Builds the [`LineDelta`] for merging block `from` into block `to`: row
/// `from` folds into row `to`, column `from` into column `to`, and all of
/// `from`'s degree mass moves. Allocating; with [`delta_entropy`], the
/// reference [`GatheredBlock::evaluate_merge`] is tested `to_bits`-equal
/// against.
///
/// # Panics
/// Panics if `from == to`.
pub fn merge_delta(bm: &Blockmodel, from: u32, to: u32) -> LineDelta {
    assert_ne!(from, to, "cannot merge a block into itself");
    let mut raw = Vec::new();
    for (c, m) in bm.row_iter(from) {
        raw.push((pack(from, c), -m));
        let c2 = if c == from { to } else { c };
        raw.push((pack(to, c2), m));
    }
    for (r, m) in bm.col_iter(from) {
        if r == from {
            continue; // diagonal already handled via the row pass
        }
        raw.push((pack(r, from), -m));
        if r == to {
            raw.push((pack(to, to), m));
        } else {
            raw.push((pack(r, to), m));
        }
    }
    let mut delta = LineDelta {
        from,
        to,
        dout_shift: bm.d_out(from),
        din_shift: bm.d_in(from),
        ..LineDelta::default()
    };
    delta.fold_from(&mut raw);
    delta
}

/// Computes `ΔS = S_after − S_before` for an externally held delta through
/// the line-delta kernel, in O(nnz of the four affected lines). Negative
/// is an improvement. Allocating — the reference for both hot-path
/// kernels.
pub fn delta_entropy(bm: &Blockmodel, delta: &LineDelta) -> f64 {
    delta_entropy_cells(bm, delta)
}

/// The Metropolis–Hastings correction `p(s→r) / p(r→s)` for moving vertex
/// `v` along an externally held delta (formula in
/// [`DeltaScratch::evaluate_move`]): neighbor-block weights by
/// sort-and-fold, one matrix lookup per cell. Allocating; the reference
/// `evaluate_move`'s `H` is tested `to_bits`-equal against.
pub fn hastings_for_delta(graph: &Graph, bm: &Blockmodel, v: Vertex, delta: &LineDelta) -> f64 {
    let (r, s) = (delta.from, delta.to);
    if r == s {
        return 1.0;
    }
    let neighbors = graph.out_edges(v).chain(graph.in_edges(v));
    let wt = CanonicalLine::from_unsorted(
        neighbors
            .filter(|&(u, _)| u != v)
            .map(|(u, w)| (bm.block_of(u), narrow(w)))
            .collect(),
    );
    if wt.is_empty() {
        return 1.0; // both directions proposed uniformly
    }
    let b = bm.num_blocks() as f64;
    let new_cell = |x: u32, y: u32| (bm.get(x, y) + delta.cell_delta(x, y)) as f64;
    let shift = delta.dout_shift + delta.din_shift;
    let new_d_total = |t: u32| -> f64 {
        let base = bm.d_total(t);
        (if t == r {
            base - shift
        } else if t == s {
            base + shift
        } else {
            base
        }) as f64
    };
    let mut fwd = 0.0;
    let mut bwd = 0.0;
    for (t, w) in wt.iter() {
        let wf = w as f64;
        fwd += wf * ((bm.get(t, s) + bm.get(s, t)) as f64 + 1.0) / (bm.d_total(t) as f64 + b);
        bwd += wf * (new_cell(t, r) + new_cell(r, t) + 1.0) / (new_d_total(t) + b);
    }
    debug_assert!(fwd > 0.0);
    bwd / fwd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockmodel::StorageKind;

    /// The per-cell loop [`delta_line_pass`] must equal to the bit: every
    /// slot in ascending order, each sum adding only its nonzero cells.
    fn line_pass_per_cell(
        line: &[u32],
        delta: &[Weight],
        ln_vec: &[f64],
        ln_old: f64,
        ln_new: f64,
        fix: &LineFix,
    ) -> (f64, f64) {
        let (mut old, mut new) = (0.0f64, 0.0f64);
        for (i, m) in line.iter().map(|&m| Weight::from(m)).enumerate() {
            let (dm, ln_cell) = match *fix {
                LineFix::Skip { r, s } if i == r as usize || i == s as usize => continue,
                LineFix::Substitute { r, dm_r, ln_r, .. } if i == r as usize => (dm_r, ln_r),
                LineFix::Substitute { s, dm_s, ln_s, .. } if i == s as usize => (dm_s, ln_s),
                _ => (delta[i], ln_vec[i]),
            };
            if m > 0 {
                old += term(m, ln_old + ln_vec[i]);
            }
            if m + dm > 0 {
                new += term(m + dm, ln_new + ln_cell);
            }
        }
        (old, new)
    }

    #[test]
    fn delta_line_pass_is_the_per_cell_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Both delta lines a pass is fed: a signed one (the line-delta
        // reference) and a stored `u32` one (a merge walk's `r` line).
        fn assert_is_per_cell<D: Copy + Into<Weight>>(
            line: &[u32],
            delta: &[D],
            ln_vec: &[f64],
            fix: &LineFix,
            at: &str,
        ) {
            let (mut old, mut new) = (0.0f64, 0.0f64);
            delta_line_pass(line, delta, ln_vec, 1.5, 2.5, fix, &mut old, &mut new);
            let wide: Vec<Weight> = delta.iter().map(|&d| d.into()).collect();
            let (want_old, want_new) = line_pass_per_cell(line, &wide, ln_vec, 1.5, 2.5, fix);
            assert_eq!(old.to_bits(), want_old.to_bits(), "old {at}");
            assert_eq!(new.to_bits(), want_new.to_bits(), "new {at}");
        }
        for n in [2usize, 3, 63, 64, 65, 129, 513] {
            // Mostly empty cells, a few past the `ln` table, deltas that
            // keep every cell non-negative.
            let mut cell = || match next() % 10 {
                0..=5 => 0,
                6..=8 => (next() % 1_000) as u32,
                _ => (next() % 70_000) as u32,
            };
            let line: Vec<u32> = (0..n).map(|_| cell()).collect();
            let grow: Vec<u32> = (0..n).map(|_| cell()).collect();
            let delta: Vec<Weight> = line
                .iter()
                .map(|&m| match next() % 4 {
                    0 => -Weight::from(m.min(3)),
                    1 => (next() % 5) as Weight,
                    _ => 0,
                })
                .collect();
            let ln_vec: Vec<f64> = (0..n).map(|_| (next() % 1000) as f64 / 171.0).collect();
            let last = n as u32 - 1;
            for (r, s) in [
                (0, last),
                (last, 0),
                (0, 1),
                (last - 1, last),
                (n as u32 / 2, 1),
            ]
            .into_iter()
            .filter(|(r, s)| r != s)
            {
                // A merge empties cell r; a vertex move leaves both special
                // cells holding weight.
                let (m_r, m_s) = (
                    Weight::from(line[r as usize]),
                    Weight::from(line[s as usize]),
                );
                let substitute = |dm_r, dm_s| LineFix::Substitute {
                    r,
                    s,
                    dm_r,
                    dm_s,
                    ln_r: 0.123,
                    ln_s: 4.56,
                };
                for fix in [
                    substitute(-m_r, m_r + 2),
                    substitute(3, 1 - m_s.min(1)),
                    LineFix::Skip { r, s },
                ] {
                    let at = format!("n={n} r={r} s={s}");
                    assert_is_per_cell(&line, &delta, &ln_vec, &fix, &at);
                    assert_is_per_cell(&line, &grow, &ln_vec, &fix, &at);
                }
            }
        }
    }

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

    /// ΔS computed sparsely must equal full recomputation after the move —
    /// under both storage representations.
    #[test]
    fn vertex_move_delta_matches_recompute() {
        let g = two_triangles();
        for kind in [StorageKind::Dense, StorageKind::Sparse] {
            let bm = Blockmodel::from_assignment_with(&g, vec![0, 0, 0, 1, 1, 1], 2, kind);
            for v in 0..6u32 {
                for to in 0..2u32 {
                    let d = vertex_move_delta(&g, &bm, v, to);
                    let ds = delta_entropy(&bm, &d);
                    let mut after = bm.clone();
                    after.move_vertex(&g, v, to);
                    let exact = after.entropy() - bm.entropy();
                    assert!(
                        (ds - exact).abs() < 1e-9,
                        "v={v} to={to} kind={kind:?}: sparse {ds}, exact {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_delta_matches_recompute() {
        let g = two_triangles();
        for kind in [StorageKind::Dense, StorageKind::Sparse] {
            let bm = Blockmodel::from_assignment_with(&g, vec![0, 1, 1, 2, 2, 3], 4, kind);
            for from in 0..4u32 {
                for to in 0..4u32 {
                    if from == to {
                        continue;
                    }
                    let d = merge_delta(&bm, from, to);
                    let ds = delta_entropy(&bm, &d);
                    // Exact: rebuild with merged assignment.
                    let merged: Vec<u32> = bm
                        .assignment()
                        .iter()
                        .map(|&b| if b == from { to } else { b })
                        .collect();
                    let after = Blockmodel::from_assignment(&g, merged, 4);
                    let exact = after.entropy() - bm.entropy();
                    assert!(
                        (ds - exact).abs() < 1e-9,
                        "merge {from}->{to} kind={kind:?}: sparse {ds}, exact {exact}"
                    );
                }
            }
        }
    }

    /// `(ΔS, H)` from the O(deg) kernel through a reused scratch.
    fn evaluate(s: &mut DeltaScratch, g: &Graph, bm: &Blockmodel, v: u32, to: u32) -> (f64, f64) {
        s.gather_vertex(g, bm, v);
        s.evaluate_move(g, bm, v, to)
    }

    /// The O(deg) kernel agrees with the line-walk free functions for
    /// every (vertex, target) pair under both storages — ΔS to rounding,
    /// H to the bit — through one reused scratch.
    #[test]
    fn factored_kernel_matches_line_walk_reference() {
        let g = two_triangles();
        for kind in [StorageKind::Dense, StorageKind::Sparse] {
            let bm = Blockmodel::from_assignment_with(&g, vec![0, 0, 1, 1, 2, 2], 3, kind);
            let mut scratch = DeltaScratch::new();
            for v in 0..6u32 {
                for to in 0..3u32 {
                    let (ds, h) = evaluate(&mut scratch, &g, &bm, v, to);
                    let d = vertex_move_delta(&g, &bm, v, to);
                    let ds_ref = delta_entropy(&bm, &d);
                    assert!(
                        (ds - ds_ref).abs() < 1e-12,
                        "v={v} to={to} kind={kind:?}: factored {ds} vs line walk {ds_ref}"
                    );
                    assert_eq!(
                        h.to_bits(),
                        hastings_for_delta(&g, &bm, v, &d).to_bits(),
                        "v={v} to={to} kind={kind:?}"
                    );
                }
            }
        }
    }

    /// Self-loop, reciprocal arcs, a parallel-weight arc, a target `v` is
    /// not adjacent to, and a `from` block that empties — each against a
    /// full entropy recompute, dense ≡ sparse to the bit.
    #[test]
    fn factored_kernel_handles_corner_cells_and_emptied_blocks() {
        let g = Graph::from_edges(
            5,
            vec![
                (0, 0, 2),
                (0, 1, 3),
                (1, 0, 1),
                (0, 2, 1),
                (2, 3, 4),
                (3, 2, 4),
                (4, 3, 1),
            ],
        );
        let assignment = vec![0, 1, 1, 2, 3];
        let dense = Blockmodel::from_assignment_with(&g, assignment.clone(), 4, StorageKind::Dense);
        let sparse = Blockmodel::from_assignment_with(&g, assignment, 4, StorageKind::Sparse);
        let mut scratch = DeltaScratch::new();
        for v in 0..5u32 {
            for to in 0..4u32 {
                let (ds, h) = evaluate(&mut scratch, &g, &dense, v, to);
                let (ds_sparse, h_sparse) = evaluate(&mut scratch, &g, &sparse, v, to);
                assert_eq!(ds.to_bits(), ds_sparse.to_bits(), "v={v} to={to}");
                assert_eq!(h.to_bits(), h_sparse.to_bits(), "v={v} to={to}");
                let mut after = dense.clone();
                after.move_vertex(&g, v, to);
                let exact = after.entropy() - dense.entropy();
                assert!((ds - exact).abs() < 1e-9, "v={v} to={to}: {ds} vs {exact}");
                assert!(h.is_finite() && h > 0.0, "v={v} to={to}: h={h}");
            }
        }
    }

    /// A vertex whose only arc is a self-loop is proposed uniformly both
    /// ways: correction exactly 1, and the gather finds the loop.
    #[test]
    fn self_loop_only_vertex_has_unit_correction() {
        let g = Graph::from_edges(3, vec![(0, 0, 2), (1, 2, 1)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 1, 1], 2);
        let mut scratch = DeltaScratch::new();
        scratch.gather_vertex(&g, &bm, 0);
        assert_eq!(scratch.self_w, 2);
        assert_eq!(scratch.evaluate_move(&g, &bm, 0, 1).1, 1.0);
        scratch.gather_vertex(&g, &bm, 1);
        assert_eq!(scratch.self_w, 0);
    }

    #[test]
    fn cell_delta_lookup_matches_iteration() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let d = vertex_move_delta(&g, &bm, 2, 1);
        for ((r, c), dm) in d.cells() {
            assert_eq!(d.cell_delta(r, c), dm);
        }
        assert_eq!(d.cell_delta(9, 9), 0);
    }

    #[test]
    fn move_to_same_block_is_zero() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let d = vertex_move_delta(&g, &bm, 0, 0);
        assert_eq!(delta_entropy(&bm, &d), 0.0);
        assert_eq!(d.cells().count(), 0);
    }

    #[test]
    fn self_loops_in_deltas() {
        let g = Graph::from_edges(3, vec![(0, 0, 2), (0, 1, 1), (2, 1, 1)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 1, 1], 2);
        let d = vertex_move_delta(&g, &bm, 0, 1);
        let ds = delta_entropy(&bm, &d);
        let mut after = bm.clone();
        after.move_vertex(&g, 0, 1);
        let exact = after.entropy() - bm.entropy();
        assert!((ds - exact).abs() < 1e-9, "sparse {ds}, exact {exact}");
    }

    #[test]
    fn improving_move_has_negative_delta() {
        // Vertex 2 misplaced in block 1; moving it home must improve S.
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 1, 1], 2);
        let d = vertex_move_delta(&g, &bm, 2, 0);
        assert!(delta_entropy(&bm, &d) < 0.0);
    }

    #[test]
    #[should_panic(expected = "into itself")]
    fn merge_self_panics() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        merge_delta(&bm, 1, 1);
    }
}
