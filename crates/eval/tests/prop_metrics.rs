//! Property-based tests for the evaluation metrics.

use proptest::prelude::*;
use sbp_eval::{adjusted_rand_index, nmi, nmi_variant, NmiNormalization};

fn arb_partition_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (2usize..60).prop_flat_map(|n| {
        let labels_a = proptest::collection::vec(0u32..6, n);
        let labels_b = proptest::collection::vec(0u32..6, n);
        (labels_a, labels_b)
    })
}

proptest! {
    #[test]
    fn nmi_in_unit_interval((a, b) in arb_partition_pair()) {
        let v = nmi(&a, &b);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn nmi_symmetric((a, b) in arb_partition_pair()) {
        prop_assert!((nmi(&a, &b) - nmi(&b, &a)).abs() < 1e-10);
    }

    #[test]
    fn nmi_self_is_one(a in proptest::collection::vec(0u32..6, 2..60)) {
        prop_assert!((nmi(&a, &a) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn nmi_invariant_under_relabeling(a in proptest::collection::vec(0u32..5, 2..60), offset in 1u32..100) {
        let b: Vec<u32> = a.iter().map(|&x| (x + offset) * 7).collect();
        prop_assert!((nmi(&a, &b) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn nmi_normalization_ordering((a, b) in arb_partition_pair()) {
        let vmin = nmi_variant(&a, &b, NmiNormalization::Min);
        let varith = nmi_variant(&a, &b, NmiNormalization::Arithmetic);
        let vsqrt = nmi_variant(&a, &b, NmiNormalization::Sqrt);
        let vmax = nmi_variant(&a, &b, NmiNormalization::Max);
        // min >= {sqrt, arithmetic} >= max (AM-GM gives sqrt >= arithmetic
        // is false in general; but both sit between min and max).
        prop_assert!(vmin + 1e-12 >= varith);
        prop_assert!(vmin + 1e-12 >= vsqrt);
        prop_assert!(varith + 1e-12 >= vmax);
        prop_assert!(vsqrt + 1e-12 >= vmax);
    }

    #[test]
    fn ari_symmetric((a, b) in arb_partition_pair()) {
        let d = adjusted_rand_index(&a, &b) - adjusted_rand_index(&b, &a);
        prop_assert!(d.abs() < 1e-10);
    }

    #[test]
    fn ari_self_is_one(a in proptest::collection::vec(0u32..6, 2..60)) {
        prop_assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn ari_at_most_one((a, b) in arb_partition_pair()) {
        prop_assert!(adjusted_rand_index(&a, &b) <= 1.0 + 1e-12);
    }
}

/// Scores are a pure function of the two labelings, to the bit: the
/// contingency table iterates its joint counts in key order, so every
/// construction adds the same f64 terms in the same order. (With the joint
/// counts in a `HashMap`, each instance summed in its own random order and
/// `nmi` of byte-equal assignments wobbled in the 16th digit.)
#[test]
fn scores_repeat_bit_for_bit_across_constructions() {
    // 9 × 8 labels over 1000 items, unevenly filled: up to 72 joint cells.
    let mut state = 12345u32;
    let mut next = move || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        state >> 16
    };
    let a: Vec<u32> = (0..1000).map(|_| next() % 9).collect();
    let b: Vec<u32> = a
        .iter()
        .map(|&x| (x + next() % 8 * (next() % 3)) % 8)
        .collect();
    assert!(sbp_eval::ContingencyTable::new(&a, &b).counts.len() >= 50);
    let scores = || {
        let p = sbp_eval::pairwise_scores(&a, &b);
        [
            nmi(&a, &b),
            adjusted_rand_index(&a, &b),
            p.precision,
            p.recall,
            p.f1,
        ]
        .map(f64::to_bits)
    };
    let first = scores();
    for _ in 0..100 {
        assert_eq!(scores(), first);
    }
}
