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
//! and nothing outside the changed cells is read. One evaluation is:
//!
//! 1. **gather** — one pass over `v`'s adjacency accumulates
//!    `w_out[t]`/`w_in[t]` per neighbour block in a block-indexed
//!    accumulator with a touched list, which is then sorted so everything
//!    downstream runs ascending in `t`; the self-loop weight falls out of
//!    the same pass (the proposal draw reuses it): O(deg + k log k);
//! 2. **one `t` loop** — fetches `M[r][t] M[s][t] M[t][r] M[t][s]` once
//!    each (`Blockmodel::cross_cells`) and feeds both the ΔS terms and
//!    the Hastings forward/backward sums from the same four values: O(k).
//!    Dense storage indexes the four contiguous lines; sparse storage
//!    walks the four sorted lines side by side in lock-step with the
//!    sorted neighbour blocks, stepping over short gaps and galloping
//!    over long ones.
//!
//! | regime | line walk (before PR 13, and still the merge kernel) | now |
//! |---|---|---|
//! | sparse storage | two adjacency sorts, six binary searches per neighbour block, and `ln` terms for every cell of all four lines: O(deg·log deg + nnz of four lines) | O(deg + k log k), plus at most a compare per line cell passed |
//! | dense storage | O(deg) delta build, then four full line scans: O(deg + 4C) | O(deg + k log k) |
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
//! ## Block merges: line walk — [`DeltaScratch::merge_delta`] +
//! [`DeltaScratch::delta_entropy`]
//!
//! A merge folds a whole row and column, so its delta is O(nnz of block
//! `from`'s lines) cells kept as a sorted `(cell, delta)` vector
//! ([`LineDelta`]); ΔS re-evaluates the entropy terms of the four affected
//! lines under that delta (dense storage: four contiguous scans through
//! `simd::delta_line_pass`; sparse: a snapshot of the nonzero cells
//! merged by binary search, in canonical order — see [`crate::line`]).
//! The merge phase keeps this kernel deliberately: merge candidates are
//! *ranked* by ΔS, the identity partition is full of mathematically tied
//! candidates whose order is decided by the last ulps, and a factored
//! merge ΔS would re-break those ties and change every trajectory.
//!
//! The free functions ([`vertex_move_delta`], [`delta_entropy`],
//! [`hastings_for_delta`]) run vertex moves through the same line-walk
//! kernel as allocating wrappers. Nothing on the hot path calls them;
//! they are the independent reference the O(deg) kernel is tested
//! against.
//!
//! Degree logarithms come from the blockmodel's incrementally maintained
//! cache ([`Blockmodel::ln_d_out`]/[`ln_d_in`](Blockmodel::ln_d_in)) and
//! integer `ln M_ij` values from [`crate::lntab`].

use crate::blockmodel::Blockmodel;
use crate::lntab::ln_int;
use crate::simd::{self, LaneFix};
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

/// −m·(ln m − ln_deg_sum); callers guarantee `m > 0`. Shared with the
/// SIMD kernels ([`crate::simd`]), whose vector bodies replicate this op
/// sequence lane-wise.
#[inline]
pub(crate) fn term(m: Weight, ln_deg_sum: f64) -> f64 {
    -(m as f64) * (ln_int(m) - ln_deg_sum)
}

/// `f(x) = x ln x` with `f(0) = 0` — the factored entropy's only term.
#[inline]
fn xlnx(m: Weight) -> f64 {
    debug_assert!(m >= 0, "count went negative");
    m as f64 * ln_int(m)
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

    /// Number of cells with a nonzero delta.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cells.iter().filter(|&&(_, d)| d != 0).count()
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
    /// The gathered vertex's self-loop weight.
    self_w: Weight,
    /// `[M[r][t], M[s][t], M[t][r], M[t][s]]` per neighbour block `t` of
    /// the move under evaluation.
    cross: Vec<[Weight; 4]>,
    /// The current merge delta.
    delta: LineDelta,
    /// Unsorted build/sort buffer of the merge delta.
    raw: Vec<(u64, Weight)>,
    /// Snapshot of the currently-nonzero cells on the affected lines.
    affected: Vec<(u64, Weight)>,
    /// Marks delta cells consumed while walking `affected`.
    used: Vec<bool>,
    /// Per-line delta entries for the dense-storage line passes.
    colbuf: Vec<(u32, Weight)>,
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

    /// Gathers vertex `v`'s neighbour-block weights for the
    /// [`evaluate_move`](Self::evaluate_move) calls that follow (against
    /// the same `bm`), in one pass over its adjacency. Returns `v`'s
    /// self-loop weight (zero when it has none), which the proposal draw
    /// needs as well.
    pub fn gather_vertex(&mut self, graph: &Graph, bm: &Blockmodel, v: Vertex) -> Weight {
        for &t in &self.touched {
            self.acc[t as usize] = (0, 0);
        }
        self.touched.clear();
        if self.acc.len() < bm.num_blocks() {
            self.acc.resize(bm.num_blocks(), (0, 0));
        }
        self.self_w = 0;
        let (acc, touched) = (&mut self.acc, &mut self.touched);
        // Weights are strictly positive, so a zero slot means "first touch".
        let mut add = |u: Vertex, w_out: Weight, w_in: Weight| {
            let t = bm.block_of(u);
            let slot = &mut acc[t as usize];
            if *slot == (0, 0) {
                touched.push(t);
            }
            slot.0 += w_out;
            slot.1 += w_in;
        };
        for &(u, w) in graph.out_edges(v) {
            if u == v {
                self.self_w = w;
            } else {
                add(u, w, 0);
            }
        }
        for &(u, w) in graph.in_edges(v) {
            if u != v {
                add(u, 0, w);
            }
        }
        self.touched.sort_unstable();
        self.self_w
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
        // The {r,s}² corners: (r,r) (r,s) (s,r) (s,s) and their deltas.
        let m = [bm.get(r, r), bm.get(r, s), bm.get(s, r), bm.get(s, s)];
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
        bm.cross_cells(r, s, &self.touched, &mut self.cross);
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
                if wo != 0 {
                    ds += xlnx(m_rt) - xlnx(m_rt - wo);
                    ds += xlnx(m_st) - xlnx(m_st + wo);
                }
                if wi != 0 {
                    ds += xlnx(m_tr) - xlnx(m_tr - wi);
                    ds += xlnx(m_ts) - xlnx(m_ts + wi);
                }
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

    /// Builds the delta for merging block `from` into block `to`: row
    /// `from` folds into row `to`, column `from` into column `to`, and all
    /// of `from`'s degree mass moves. Merge deltas touch O(nnz of block
    /// `from`'s lines) cells, kept sorted (built with one sort instead of
    /// per-cell insertion).
    pub fn merge_delta(&mut self, bm: &Blockmodel, from: u32, to: u32) {
        assert_ne!(from, to, "cannot merge a block into itself");
        self.raw.clear();
        for (c, m) in bm.row_iter(from) {
            self.raw.push((pack(from, c), -m));
            let c2 = if c == from { to } else { c };
            self.raw.push((pack(to, c2), m));
        }
        for (r, m) in bm.col_iter(from) {
            if r == from {
                continue; // diagonal already handled via the row pass
            }
            self.raw.push((pack(r, from), -m));
            if r == to {
                self.raw.push((pack(to, to), m));
            } else {
                self.raw.push((pack(r, to), m));
            }
        }
        self.delta.fold_from(&mut self.raw);
        self.delta.from = from;
        self.delta.to = to;
        self.delta.dout_shift = bm.d_out(from);
        self.delta.din_shift = bm.d_in(from);
    }

    /// Computes `ΔS = S_after − S_before` for the delta built by the last
    /// [`merge_delta`](Self::merge_delta) call, in O(nnz of the four
    /// affected lines) with no allocation. Negative is an improvement.
    pub fn delta_entropy(&mut self, bm: &Blockmodel) -> f64 {
        self.delta_entropy_with(bm, simd::enabled())
    }

    /// [`delta_entropy`](Self::delta_entropy) forced onto the scalar
    /// kernels — the property tests' bit-identity reference.
    #[doc(hidden)]
    pub fn delta_entropy_scalar(&mut self, bm: &Blockmodel) -> f64 {
        self.delta_entropy_with(bm, false)
    }

    fn delta_entropy_with(&mut self, bm: &Blockmodel, use_simd: bool) -> f64 {
        let DeltaScratch {
            delta,
            affected,
            used,
            colbuf,
            ..
        } = self;
        delta_entropy_cells(bm, delta, affected, used, colbuf, use_simd)
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

/// ΔS kernel for a sorted cell delta, on either storage representation.
fn delta_entropy_cells(
    bm: &Blockmodel,
    delta: &LineDelta,
    affected: &mut Vec<(u64, Weight)>,
    used: &mut Vec<bool>,
    colbuf: &mut Vec<(u32, Weight)>,
    use_simd: bool,
) -> f64 {
    let (r, s) = (delta.from, delta.to);
    if r == s {
        return 0.0;
    }
    let lns = NewDegreeLns::compute(bm, delta);

    // Dense storage: the four affected lines are contiguous slices, so
    // walk every slot with a merge against the line's sorted delta pairs
    // (gathered into the reusable `colbuf`) — no snapshot, no binary
    // searches; newly created cells are covered by the full-line scan
    // itself. The walk itself is the shared [`simd::delta_line_pass`].
    if bm.storage_kind() == crate::blockmodel::StorageKind::Dense {
        let cells = &delta.cells;
        let ln_d_in = bm.ln_d_in_all();
        let ln_d_out = bm.ln_d_out_all();
        let mut old_sum = 0.0f64;
        let mut new_sum = 0.0f64;
        let row_fix = LaneFix::Substitute {
            r,
            s,
            ln_r: lns.ln_ndi_r,
            ln_s: lns.ln_ndi_s,
        };
        for (x, ln_do_new) in [(r, lns.ln_ndo_r), (s, lns.ln_ndo_s)] {
            let line = bm.dense_row(x).expect("dense storage");
            let base = (x as u64) << 32;
            let lo = cells.partition_point(|e| e.0 < base);
            let hi = cells.partition_point(|e| e.0 < base + (1u64 << 32));
            colbuf.clear();
            colbuf.extend(cells[lo..hi].iter().map(|&(k, d)| (k as u32, d)));
            simd::delta_line_pass(
                line,
                colbuf,
                ln_d_in,
                bm.ln_d_out(x),
                ln_do_new,
                &row_fix,
                &mut old_sum,
                &mut new_sum,
                use_simd,
            );
        }
        // The columns' delta entries are scattered across the row-sorted
        // cell list; gather each column's entries (already in ascending
        // row order) into the same reusable buffer, then merge-walk the
        // transpose.
        let col_fix = LaneFix::Skip { r, s };
        for (y, ln_di_new) in [(r, lns.ln_ndi_r), (s, lns.ln_ndi_s)] {
            let line = bm.dense_col(y).expect("dense storage");
            colbuf.clear();
            for &(k, d) in cells.iter() {
                let (x, col) = unpack(k);
                if col == y && x != r && x != s {
                    colbuf.push((x, d));
                }
            }
            simd::delta_line_pass(
                line,
                colbuf,
                ln_d_out,
                bm.ln_d_in(y),
                ln_di_new,
                &col_fix,
                &mut old_sum,
                &mut new_sum,
                use_simd,
            );
        }
        return new_sum - old_sum;
    }

    // Sparse storage: snapshot every currently-nonzero cell in the
    // affected lines exactly once — rows r and s in full, columns r and s
    // excluding rows r/s; disjoint by construction, so no dedup pass.
    // Canonical line iteration makes this snapshot (and hence the ΔS
    // summation order) deterministic given the logical state.
    affected.clear();
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

    used.clear();
    used.resize(delta.cells.len(), false);
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
        for &(u, w) in graph.out_edges(v) {
            if u == v {
                raw.push((pack(from, from), -w));
                raw.push((pack(to, to), w));
            } else {
                let t = bm.block_of(u);
                raw.push((pack(from, t), -w));
                raw.push((pack(to, t), w));
            }
        }
        for &(u, w) in graph.in_edges(v) {
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

/// Builds the [`LineDelta`] for merging block `from` into block `to`
/// (allocating wrapper around [`DeltaScratch::merge_delta`]).
pub fn merge_delta(bm: &Blockmodel, from: u32, to: u32) -> LineDelta {
    with_scratch(|s| {
        s.merge_delta(bm, from, to);
        s.delta.clone()
    })
}

/// Computes `ΔS` for an externally held delta. Uses the thread-local
/// scratch for the affected-line snapshot, so repeated calls do not
/// allocate after warm-up.
pub fn delta_entropy(bm: &Blockmodel, delta: &LineDelta) -> f64 {
    with_scratch(|s| {
        let DeltaScratch {
            affected,
            used,
            colbuf,
            ..
        } = s;
        delta_entropy_cells(bm, delta, affected, used, colbuf, simd::enabled())
    })
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
    let neighbors = graph.out_edges(v).iter().chain(graph.in_edges(v));
    let wt = crate::line::CanonicalLine::from_unsorted(
        neighbors
            .filter(|&&(u, _)| u != v)
            .map(|&(u, w)| (bm.block_of(u), w))
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
    for &(t, w) in &wt {
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
    /// ways: correction exactly 1, and the gather reports the loop.
    #[test]
    fn self_loop_only_vertex_has_unit_correction() {
        let g = Graph::from_edges(3, vec![(0, 0, 2), (1, 2, 1)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 1, 1], 2);
        let mut scratch = DeltaScratch::new();
        assert_eq!(scratch.gather_vertex(&g, &bm, 0), 2);
        assert_eq!(scratch.evaluate_move(&g, &bm, 0, 1).1, 1.0);
        assert_eq!(scratch.gather_vertex(&g, &bm, 1), 0);
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
        assert_eq!(d.num_cells(), 0);
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
