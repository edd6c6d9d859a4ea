//! Natural logarithms of small integers, and `x · ln x`, from tables built
//! at compile time.
//!
//! The ΔS kernel spends most of its time on `ln` terms: every affected
//! cell needs `M · ln M` for its old and new weight, and the degree caches
//! need `ln(d)` on every move. Matrix entries and block degrees are
//! integer edge counts, and on real graphs the overwhelming majority are
//! small — so a table of `ln(0..2¹⁶)` and one of `x · ln x` over the same
//! range turn the transcendental call (and the multiply) into one load.
//!
//! The tables are plain `static`s: `build.rs` writes their little-endian
//! bits and a `const fn` decodes them into `[f64; 2¹⁶]` during constant
//! evaluation, so nothing is initialised at run time and a lookup is one
//! unsigned compare and one load. Values outside the tables fall back to
//! `f64::ln`. Every entry equals the run-time expression to the bit
//! (`(i as f64).ln()` and `(i as f64) * (i as f64).ln()`, both `0.0` at
//! `i = 0`); the tests check all of them.

use sbp_graph::Weight;

/// Number of entries per table; weights in `[0, TABLE_SIZE)` are
/// table-resident. `build.rs` writes tables of this length.
const TABLE_SIZE: usize = 1 << 16;

/// `ln(i)`, `0.0` at `i = 0`.
static LN: [f64; TABLE_SIZE] = decode(include_bytes!(concat!(env!("OUT_DIR"), "/ln.bin")));

/// `i · ln(i)`, `0.0` at `i = 0`.
static XLNX: [f64; TABLE_SIZE] = decode(include_bytes!(concat!(env!("OUT_DIR"), "/xlnx.bin")));

/// The table whose entries have the little-endian bits `bytes`.
const fn decode(bytes: &[u8; TABLE_SIZE * 8]) -> [f64; TABLE_SIZE] {
    let (words, _) = bytes.as_chunks::<8>();
    let mut table = [0.0; TABLE_SIZE];
    let mut i = 0;
    while i < TABLE_SIZE {
        table[i] = f64::from_le_bytes(words[i]);
        i += 1;
    }
    table
}

/// `ln(w)` for a positive integer weight, `0.0` for `w <= 0` (the callers'
/// convention for empty blocks). Table lookup below 2¹⁶, `f64::ln` above.
#[inline]
pub fn ln_int(w: Weight) -> f64 {
    // A negative `w` wraps far above the table, into the fallback.
    if (w as u64) < TABLE_SIZE as u64 {
        LN[w as usize]
    } else if w > 0 {
        (w as f64).ln()
    } else {
        0.0
    }
}

/// `w · ln(w)`, to the bit `w as f64 * ln_int(w)` for every `w`. Table
/// lookup below 2¹⁶.
#[inline]
pub fn xlnx_int(w: Weight) -> f64 {
    if (w as u64) < TABLE_SIZE as u64 {
        XLNX[w as usize]
    } else {
        w as f64 * ln_int(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The run-time expressions the tables stand for.
    fn ln_at(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            (i as f64).ln()
        }
    }

    #[test]
    fn every_entry_is_the_run_time_expression() {
        for i in 0..TABLE_SIZE {
            let x = i as f64;
            assert_eq!(LN[i].to_bits(), ln_at(i).to_bits(), "ln({i})");
            assert_eq!(XLNX[i].to_bits(), (x * ln_at(i)).to_bits(), "xlnx({i})");
        }
    }

    #[test]
    fn matches_direct_ln() {
        for w in [1i64, 2, 3, 100, 65535, 65536, 1 << 40] {
            assert_eq!(ln_int(w), (w as f64).ln(), "w={w}");
        }
    }

    #[test]
    fn xlnx_is_the_product_on_both_sides_of_the_table() {
        for w in [0i64, 1, 2, 65_535, 65_536, 65_537, 1 << 40] {
            let want = w as f64 * ln_int(w);
            assert_eq!(xlnx_int(w).to_bits(), want.to_bits(), "w={w}");
        }
    }

    #[test]
    fn nonpositive_is_zero() {
        assert_eq!(ln_int(0), 0.0);
        assert_eq!(ln_int(-5), 0.0);
        assert_eq!(xlnx_int(0), 0.0);
    }
}
