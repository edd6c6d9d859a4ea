//! Precomputed natural logarithms of small integers.
//!
//! The ΔS kernel spends most of its time in `ln` calls: every affected
//! cell needs `ln(M_ij)` for its old and new weight, and the degree caches
//! need `ln(d)` on every move. Matrix entries and block degrees are
//! integer edge counts, and on real graphs the overwhelming majority are
//! small — so a one-time table of `ln(0..65536)` turns the transcendental
//! call into an L2-resident lookup. Values outside the table fall back to
//! `f64::ln`, bit-identical to the direct computation for every input
//! (the table itself is filled with `(i as f64).ln()`).

use sbp_graph::Weight;
use std::sync::OnceLock;

/// Number of precomputed entries; weights in `[0, TABLE_SIZE)` are
/// table-resident.
const TABLE_SIZE: usize = 1 << 16;

/// The shared log table.
fn table() -> &'static [f64; TABLE_SIZE] {
    static TABLE: OnceLock<Box<[f64; TABLE_SIZE]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = vec![0.0f64; TABLE_SIZE];
        for (i, slot) in t.iter_mut().enumerate().skip(1) {
            *slot = (i as f64).ln();
        }
        t.into_boxed_slice()
            .try_into()
            .expect("table has the declared size")
    })
}

/// `ln(w)` for a positive integer weight, `0.0` for `w <= 0` (the callers'
/// convention for empty blocks). Table lookup below 2¹⁶, `f64::ln` above.
#[inline]
pub fn ln_int(w: Weight) -> f64 {
    if (0..TABLE_SIZE as Weight).contains(&w) {
        table()[w as usize]
    } else if w > 0 {
        (w as f64).ln()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_direct_ln() {
        for w in [1i64, 2, 3, 100, 65535, 65536, 1 << 40] {
            assert_eq!(ln_int(w), (w as f64).ln(), "w={w}");
        }
    }

    #[test]
    fn nonpositive_is_zero() {
        assert_eq!(ln_int(0), 0.0);
        assert_eq!(ln_int(-5), 0.0);
    }
}
