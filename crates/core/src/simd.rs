//! Runtime-dispatched AVX2 kernels for the dense-storage hot loops —
//! bit-identical to the scalar paths by construction.
//!
//! ## Why explicit intrinsics
//!
//! The merge-ΔS and entropy line walks cross contiguous `C`-cell lines
//! (dense rows and the stored transpose's columns) doing the same
//! four-step dance per cell: zero-skip, `lntab` lookup,
//! one multiply-subtract term, one accumulate. Auto-vectorization never
//! fires on it — the zero-skip branch and the table gather defeat it —
//! so this module hand-vectorizes the *term evaluation* with AVX2 while
//! keeping the **accumulation scalar and in-order**.
//!
//! ## The determinism contract, extended to lanes
//!
//! Every observable f64 sum in this crate has a fixed shape: terms are
//! added in canonical (ascending cell) order, so identical logical state
//! produces identical bits on every storage layout, thread count, and
//! rank count. The SIMD kernels preserve that shape *exactly*:
//!
//! * lanes are loaded in 4-cell blocks, but each lane's term is computed
//!   with the **same IEEE op sequence** as the scalar code (add, sub,
//!   mul, sign-flip — elementwise, never fused: scalar Rust emits no
//!   FMA here, so neither do the kernels), which makes the per-lane
//!   values bit-equal to the scalar terms;
//! * the four lane results are then folded into the running scalar
//!   accumulator **left to right** (lane 0 first), i.e. in ascending
//!   cell order — the same association order as the scalar loop;
//! * cells the scalar loop *skips* (zero `m` and delta) are masked to
//!   `+0.0` before the fold. Adding `+0.0` is a bitwise no-op for every
//!   accumulator value this crate can produce: the accumulators start at
//!   `+0.0` and a finite-sum accumulator can never become `-0.0`
//!   (`a + b == -0.0` requires both operands to be `-0.0`), so
//!   `acc + (+0.0) == acc` and `acc - (+0.0) == acc` bit-for-bit.
//!
//! Cells whose weights fall outside the `lntab` table bounds are handled
//! by running that 4-cell block through the scalar step — as are blocks
//! containing the moved pair's special columns/rows. Correctness never
//! depends on the vector path being taken.
//!
//! ## Dispatch
//!
//! [`enabled`] performs one-time runtime detection (`is_x86_feature_
//! detected!("avx2")`), overridable with `SBP_NO_SIMD=1`. Callers thread
//! the decision through an explicit `use_simd` argument — there is no
//! global toggle to race on — and the public API exposes `*_scalar`
//! twins (on [`crate::Blockmodel`] and [`crate::DeltaScratch`]) so the
//! property tests can assert `to_bits` equality between the two paths
//! in one process. On non-x86_64 targets every kernel compiles to the
//! scalar body and [`enabled`] is `false`.
//!
//! Only line walks are vectorized: the merge phase's ΔS line pass (two
//! per evaluated merge on dense storage, over the target's row and
//! column) and the entropy sum. Vertex-move proposals do not walk lines
//! (`crate::delta`'s O(deg) kernel), so there is nothing there to
//! vectorize.

use crate::delta::term;
use crate::lntab;
use sbp_graph::Weight;
use std::sync::OnceLock;

/// Whether the vectorized kernels should run in this process: AVX2
/// detected at runtime and not vetoed by `SBP_NO_SIMD=1`. Read once per
/// process; the scalar fallback is always available regardless.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var_os("SBP_NO_SIMD").is_some_and(|v| v == "1") {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Cursor over a line's sorted `(index, delta)` pairs (ascending by
/// index, every index below the line length), advanced in ascending cell
/// order by both the scalar loop and the 4-cell vector blocks.
struct DmCursor<'a> {
    pairs: &'a [(u32, Weight)],
    p: usize,
}

impl<'a> DmCursor<'a> {
    fn new(pairs: &'a [(u32, Weight)]) -> Self {
        DmCursor { pairs, p: 0 }
    }

    /// Delta of cell `i`; must be called with strictly ascending `i`.
    #[inline(always)]
    fn at(&mut self, i: usize) -> Weight {
        if self.p < self.pairs.len() && self.pairs[self.p].0 == i as u32 {
            let v = self.pairs[self.p].1;
            self.p += 1;
            v
        } else {
            0
        }
    }

    /// Deltas of cells `i..i + 4` as a fixed block.
    #[inline(always)]
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    fn block4(&mut self, i: usize) -> [Weight; 4] {
        let mut out = [0; 4];
        while self.p < self.pairs.len() {
            let (idx, v) = self.pairs[self.p];
            let idx = idx as usize;
            if idx >= i + 4 {
                break;
            }
            debug_assert!(idx >= i, "delta pairs out of order");
            out[idx - i] = v;
            self.p += 1;
        }
        out
    }

    /// Debug check: every sorted pair was consumed by the walk.
    fn finish(&self) {
        debug_assert_eq!(self.p, self.pairs.len(), "delta cells not consumed");
    }
}

/// How the moved pair's two special indices are treated by a line pass.
pub(crate) enum LaneFix {
    /// Row pass: the *new* term at columns `r`/`s` uses the post-move
    /// `ln(d_in)` instead of the cached per-column value.
    Substitute {
        /// Source block of the move.
        r: u32,
        /// Destination block of the move.
        s: u32,
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

impl LaneFix {
    #[inline(always)]
    fn special(&self) -> (u32, u32) {
        match *self {
            LaneFix::Substitute { r, s, .. } | LaneFix::Skip { r, s } => (r, s),
        }
    }
}

/// One cell of a ΔS line pass — the scalar source of truth.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn delta_step(
    i: usize,
    m: Weight,
    dm: Weight,
    lv: f64,
    ln_old: f64,
    ln_new: f64,
    fix: &LaneFix,
    old_sum: &mut f64,
    new_sum: &mut f64,
) {
    if m == 0 && dm == 0 {
        return;
    }
    let iu = i as u32;
    if let LaneFix::Skip { r, s } = fix {
        if iu == *r || iu == *s {
            return;
        }
    }
    if m > 0 {
        *old_sum += term(m, ln_old + lv);
    }
    let m2 = m + dm;
    debug_assert!(m2 >= 0, "cell {i} went negative in delta");
    if m2 > 0 {
        let ln_cell = match fix {
            LaneFix::Substitute { r, s, ln_r, ln_s } => {
                if iu == *r {
                    *ln_r
                } else if iu == *s {
                    *ln_s
                } else {
                    lv
                }
            }
            LaneFix::Skip { .. } => lv,
        };
        *new_sum += term(m2, ln_new + ln_cell);
    }
}

/// Accumulates the old/new entropy terms of one affected matrix line
/// under a cell delta — the line pass behind the dense merge walk and the
/// line-delta reference kernel. `dm` holds the line's sorted
/// `(index, delta)` pairs; `ln_vec` the per-cell cached `ln(degree)`
/// (`ln_d_in` for row passes, `ln_d_out` for column passes); `ln_old` /
/// `ln_new` are the line's own pre-/post-move `ln(degree)`.
///
/// A pair may carry a zero delta, and a [`LaneFix::Skip`] pass may be
/// handed pairs at its two skipped indices: both are consumed and change
/// nothing. The merge walk relies on it to pass block `r`'s own lines as
/// the pairs, unfiltered.
#[allow(clippy::too_many_arguments)]
pub(crate) fn delta_line_pass(
    line: &[Weight],
    dm: &[(u32, Weight)],
    ln_vec: &[f64],
    ln_old: f64,
    ln_new: f64,
    fix: &LaneFix,
    old_sum: &mut f64,
    new_sum: &mut f64,
    use_simd: bool,
) {
    debug_assert!(ln_vec.len() >= line.len());
    #[cfg(target_arch = "x86_64")]
    if use_simd && line.len() >= 4 {
        // The vector body loads `ln_vec[i..i + 4]` unchecked for every
        // full block of `line`.
        assert!(ln_vec.len() >= line.len(), "ln cache shorter than line");
        // SAFETY: `use_simd` is only true when `enabled()` detected AVX2,
        // and `ln_vec` covers `line` (asserted above).
        unsafe {
            avx2::delta_line_pass(line, dm, ln_vec, ln_old, ln_new, fix, old_sum, new_sum);
        }
        return;
    }
    let _ = use_simd;
    let mut cur = DmCursor::new(dm);
    for (i, (&m, &lv)) in line.iter().zip(ln_vec).enumerate() {
        let dmv = cur.at(i);
        delta_step(i, m, dmv, lv, ln_old, ln_new, fix, old_sum, new_sum);
    }
    cur.finish();
}

/// One cell of the dense entropy row walk — scalar source of truth,
/// replicating `Blockmodel::entropy_rows`' historical inner loop.
#[inline(always)]
fn entropy_step(i: usize, m: Weight, ln_vec: &[f64], ldr: f64, acc: &mut f64) {
    if m == 0 {
        return;
    }
    debug_assert!(m > 0, "matrix cell {i} is negative");
    let mf = m as f64;
    *acc -= mf * (lntab::ln_int(m) - ldr - ln_vec[i]);
}

/// Subtracts one dense row's entropy terms `m·(ln m − ln d_out(r) −
/// ln d_in(c))` from `acc`, in ascending column order. `ldr` is the
/// row's cached `ln(d_out)`; `ln_vec` the `ln_d_in` cache.
pub(crate) fn entropy_line(
    line: &[Weight],
    ln_vec: &[f64],
    ldr: f64,
    acc: &mut f64,
    use_simd: bool,
) {
    debug_assert!(ln_vec.len() >= line.len());
    #[cfg(target_arch = "x86_64")]
    if use_simd && line.len() >= 4 {
        // The vector body loads `ln_vec[i..i + 4]` unchecked for every
        // full block of `line`.
        assert!(ln_vec.len() >= line.len(), "ln cache shorter than line");
        // SAFETY: `use_simd` is only true when `enabled()` detected AVX2,
        // and `ln_vec` covers `line` (asserted above).
        unsafe {
            avx2::entropy_line(line, ln_vec, ldr, acc);
        }
        return;
    }
    let _ = use_simd;
    for (i, &m) in line.iter().enumerate() {
        entropy_step(i, m, ln_vec, ldr, acc);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 bodies. Every `#[target_feature]` function is only
    //! reachable through a `use_simd` flag derived from [`super::enabled`],
    //! which performed the runtime detection; the `#[inline(always)]`
    //! helpers exist only inside those two functions. Every function
    //! here is `unsafe fn` with the conditions under `# Safety`; the
    //! intrinsics in their bodies rely on exactly those.
    use super::*;
    use std::arch::x86_64::*;

    /// Packs the low 32 bits of each 64-bit lane into a 4×i32 vector.
    /// Exact for values in `[0, 2³¹)` — callers range-check first.
    ///
    /// # Safety
    /// AVX2 must be available (register-only otherwise: no memory access).
    #[inline(always)]
    unsafe fn low32(v: __m256i) -> __m128i {
        let shuf = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, shuf))
    }

    /// `ln` of four table indices.
    ///
    /// # Safety
    /// AVX2 must be available, `tab` must point at the first of
    /// [`lntab::TABLE_SIZE`] readable `f64`s, and every lane of `idx`
    /// must be in `[0, TABLE_SIZE)` — the gather reads `tab[idx[k]]`
    /// unchecked. Callers establish the range with [`any_outside`] first.
    #[inline(always)]
    unsafe fn ln4(tab: *const f64, idx: __m128i) -> __m256d {
        #[cfg(debug_assertions)]
        {
            let mut lanes = [0i32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr().cast(), idx);
            debug_assert!(lanes
                .iter()
                .all(|&k| (0..lntab::TABLE_SIZE as i64).contains(&i64::from(k))));
        }
        _mm256_i32gather_pd::<8>(tab, idx)
    }

    /// True when any 64-bit lane of `v` falls outside `[0, hi]`.
    ///
    /// # Safety
    /// AVX2 must be available (register-only otherwise: no memory access).
    #[inline(always)]
    unsafe fn any_outside(v: __m256i, hi: __m256i, zero: __m256i) -> bool {
        let bad = _mm256_or_si256(_mm256_cmpgt_epi64(v, hi), _mm256_cmpgt_epi64(zero, v));
        _mm256_testz_si256(bad, bad) == 0
    }

    /// Folds four lane results into the scalar accumulator in ascending
    /// lane order — the association order of the scalar loop.
    ///
    /// # Safety
    /// AVX2 must be available; the one store targets a local 4×`f64`
    /// array, exactly the 32 bytes `_mm256_storeu_pd` writes.
    #[inline(always)]
    unsafe fn fold_add(acc: &mut f64, v: __m256d) {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), v);
        *acc += lanes[0];
        *acc += lanes[1];
        *acc += lanes[2];
        *acc += lanes[3];
    }

    /// As [`fold_add`] but subtracting (the entropy accumulator's shape).
    ///
    /// # Safety
    /// As [`fold_add`].
    #[inline(always)]
    unsafe fn fold_sub(acc: &mut f64, v: __m256d) {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), v);
        *acc -= lanes[0];
        *acc -= lanes[1];
        *acc -= lanes[2];
        *acc -= lanes[3];
    }

    /// The per-block vector body: evaluates
    /// cells `i..i+4` given their weights `m` and deltas `d` already in
    /// vector registers. Returns `false` when the block needs the scalar
    /// source of truth (special columns/rows, out-of-table weights).
    ///
    /// # Safety
    /// AVX2 must be available, `i + 4 <= ln_vec.len()` (four `f64`s are
    /// loaded from `ln_vec[i..]` unchecked), and `k.tab` must satisfy
    /// [`ln4`]'s table condition; the index-range half of that condition
    /// is established here, by the `any_outside` checks, before any
    /// gather.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn delta_block(
        i: usize,
        m: __m256i,
        d: __m256i,
        k: &DeltaConsts,
        rb: usize,
        sb: usize,
        ln_vec: &[f64],
        old_sum: &mut f64,
        new_sum: &mut f64,
    ) -> bool {
        debug_assert!(i + 4 <= ln_vec.len());
        let m2 = _mm256_add_epi64(m, d);
        let blk = i / 4;
        if blk == rb
            || blk == sb
            || any_outside(m, k.max_idx, k.zero)
            || any_outside(m2, k.max_idx, k.zero)
        {
            return false;
        }
        // All weights in [0, TABLE_SIZE): the i32 truncation is exact,
        // so cvtepi32_pd reproduces `m as f64` bit-for-bit.
        let mi = low32(m);
        let m2i = low32(m2);
        let ln_m = ln4(k.tab, mi);
        let ln_m2 = ln4(k.tab, m2i);
        let mf = _mm256_cvtepi32_pd(mi);
        let m2f = _mm256_cvtepi32_pd(m2i);
        let lv = _mm256_loadu_pd(ln_vec.as_ptr().add(i));
        // term(m, lds) = -(m as f64) * (ln m - lds), lds = ln_line + ln_vec[i].
        // Same op sequence as the scalar `term`: add, sub, mul, negate.
        let t_old = _mm256_xor_pd(
            _mm256_mul_pd(mf, _mm256_sub_pd(ln_m, _mm256_add_pd(k.v_ln_old, lv))),
            k.sign,
        );
        let t_new = _mm256_xor_pd(
            _mm256_mul_pd(m2f, _mm256_sub_pd(ln_m2, _mm256_add_pd(k.v_ln_new, lv))),
            k.sign,
        );
        // Lanes the scalar loop skips (m == 0 / m2 == 0) are masked
        // to +0.0, a bitwise no-op on the accumulator (module docs).
        let old_mask = _mm256_castsi256_pd(_mm256_cmpgt_epi64(m, k.zero));
        let new_mask = _mm256_castsi256_pd(_mm256_cmpgt_epi64(m2, k.zero));
        fold_add(old_sum, _mm256_and_pd(t_old, old_mask));
        fold_add(new_sum, _mm256_and_pd(t_new, new_mask));
        true
    }

    /// Loop-invariant vector constants of a delta line pass.
    struct DeltaConsts {
        tab: *const f64,
        v_ln_old: __m256d,
        v_ln_new: __m256d,
        sign: __m256d,
        zero: __m256i,
        max_idx: __m256i,
    }

    /// The AVX2 body of [`super::delta_line_pass`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and `ln_vec.len() >= line.len()`: every
    /// full 4-cell block `i..i + 4 <= line.len()` is loaded unchecked
    /// from both `line` and `ln_vec` (the delta block comes from a local
    /// `[Weight; 4]`, the `ln` table pointer from [`lntab::table`]).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn delta_line_pass(
        line: &[Weight],
        dm: &[(u32, Weight)],
        ln_vec: &[f64],
        ln_old: f64,
        ln_new: f64,
        fix: &LaneFix,
        old_sum: &mut f64,
        new_sum: &mut f64,
    ) {
        let c = line.len();
        debug_assert!(ln_vec.len() >= c);
        let k = DeltaConsts {
            tab: lntab::table().as_ptr(),
            v_ln_old: _mm256_set1_pd(ln_old),
            v_ln_new: _mm256_set1_pd(ln_new),
            sign: _mm256_set1_pd(-0.0),
            zero: _mm256_setzero_si256(),
            max_idx: _mm256_set1_epi64x(lntab::TABLE_SIZE as i64 - 1),
        };
        let (r, s) = fix.special();
        let (rb, sb) = (r as usize / 4, s as usize / 4);
        let mut i = 0usize;
        let mut cur = DmCursor::new(dm);
        while i + 4 <= c {
            let dm4 = cur.block4(i);
            let m = _mm256_loadu_si256(line.as_ptr().add(i).cast());
            let d = _mm256_loadu_si256(dm4.as_ptr().cast());
            let nz = _mm256_or_si256(m, d);
            if _mm256_testz_si256(nz, nz) == 1 {
                // All four cells have zero weight and zero delta — the
                // scalar loop would `continue` through each.
                i += 4;
                continue;
            }
            if !delta_block(i, m, d, &k, rb, sb, ln_vec, old_sum, new_sum) {
                // Special columns/rows or out-of-table weights: run the
                // block through the scalar source of truth.
                for kk in 0..4 {
                    delta_step(
                        i + kk,
                        line[i + kk],
                        dm4[kk],
                        ln_vec[i + kk],
                        ln_old,
                        ln_new,
                        fix,
                        old_sum,
                        new_sum,
                    );
                }
            }
            i += 4;
        }
        while i < c {
            let dmv = cur.at(i);
            delta_step(
                i, line[i], dmv, ln_vec[i], ln_old, ln_new, fix, old_sum, new_sum,
            );
            i += 1;
        }
        cur.finish();
    }

    /// The AVX2 body of [`super::entropy_line`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and `ln_vec.len() >= line.len()`: every
    /// full 4-cell block `i..i + 4 <= line.len()` is loaded unchecked
    /// from both slices, and the `ln` table is gathered only for lanes
    /// `any_outside` proved to be in `[0, TABLE_SIZE)`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn entropy_line(line: &[Weight], ln_vec: &[f64], ldr: f64, acc: &mut f64) {
        let c = line.len();
        debug_assert!(ln_vec.len() >= c);
        let tab = lntab::table().as_ptr();
        let v_ldr = _mm256_set1_pd(ldr);
        let zero = _mm256_setzero_si256();
        let max_idx = _mm256_set1_epi64x(lntab::TABLE_SIZE as i64 - 1);
        let mut i = 0usize;
        while i + 4 <= c {
            let m = _mm256_loadu_si256(line.as_ptr().add(i).cast());
            if _mm256_testz_si256(m, m) == 1 {
                i += 4;
                continue;
            }
            if any_outside(m, max_idx, zero) {
                for k in 0..4 {
                    entropy_step(i + k, line[i + k], ln_vec, ldr, acc);
                }
                i += 4;
                continue;
            }
            let mi = low32(m);
            let ln_m = ln4(tab, mi);
            let mf = _mm256_cvtepi32_pd(mi);
            let lv = _mm256_loadu_pd(ln_vec.as_ptr().add(i));
            // mf * ((ln m - ldr) - ln_vec[i]) — two sequential subs, as
            // in the scalar row walk.
            let p = _mm256_mul_pd(mf, _mm256_sub_pd(_mm256_sub_pd(ln_m, v_ldr), lv));
            let mask = _mm256_castsi256_pd(_mm256_cmpgt_epi64(m, zero));
            // Subtracting the masked +0.0 lanes is a bitwise no-op for
            // every accumulator value (x - (+0.0) == x, all x).
            fold_sub(acc, _mm256_and_pd(p, mask));
            i += 4;
        }
        while i < c {
            entropy_step(i, line[i], ln_vec, ldr, acc);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_fixture(n: usize, seed: u64) -> (Vec<Weight>, Vec<Weight>, Vec<f64>) {
        // Deterministic pseudo-random line with plenty of zeros, a few
        // large cells, and deltas that keep m + dm >= 0.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut line = vec![0 as Weight; n];
        let mut dm = vec![0 as Weight; n];
        let mut lnv = vec![0.0f64; n];
        for i in 0..n {
            let roll = next() % 10;
            line[i] = match roll {
                0..=5 => 0,
                6..=7 => (next() % 7) as Weight,
                8 => (next() % 70_000) as Weight, // exercises table overflow
                _ => (next() % 1_000) as Weight,
            };
            dm[i] = match next() % 4 {
                0 => -(line[i].min(3)),
                1 => (next() % 5) as Weight,
                _ => 0,
            };
            lnv[i] = (next() % 1000) as f64 / 171.0;
        }
        (line, dm, lnv)
    }

    #[test]
    fn delta_line_pass_simd_matches_scalar_bitwise() {
        for seed in 0..8u64 {
            for n in [1usize, 3, 4, 5, 64, 169, 513] {
                let (line, dm, lnv) = line_fixture(n, seed);
                let pairs: Vec<(u32, Weight)> = dm
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d != 0)
                    .map(|(i, &d)| (i as u32, d))
                    .collect();
                let fixes = [
                    LaneFix::Substitute {
                        r: (seed as u32) % n as u32,
                        s: (seed as u32 * 7 + 3) % n as u32,
                        ln_r: 0.123,
                        ln_s: 4.56,
                    },
                    LaneFix::Skip {
                        r: (seed as u32) % n as u32,
                        s: (seed as u32 * 7 + 3) % n as u32,
                    },
                ];
                for fix in &fixes {
                    let (mut so, mut sn) = (0.0f64, 0.0f64);
                    delta_line_pass(&line, &pairs, &lnv, 1.5, 2.5, fix, &mut so, &mut sn, false);
                    let (mut vo, mut vn) = (0.0f64, 0.0f64);
                    delta_line_pass(
                        &line,
                        &pairs,
                        &lnv,
                        1.5,
                        2.5,
                        fix,
                        &mut vo,
                        &mut vn,
                        enabled(),
                    );
                    assert_eq!(so.to_bits(), vo.to_bits(), "old n={n} seed={seed}");
                    assert_eq!(sn.to_bits(), vn.to_bits(), "new n={n} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn entropy_line_simd_matches_scalar_bitwise() {
        for seed in 0..8u64 {
            for n in [1usize, 4, 63, 64, 65, 512] {
                let (line, _, lnv) = line_fixture(n, seed);
                let mut a = 0.0f64;
                entropy_line(&line, &lnv, 0.75, &mut a, false);
                let mut b = 0.0f64;
                entropy_line(&line, &lnv, 0.75, &mut b, enabled());
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} seed={seed}");
            }
        }
    }
}
