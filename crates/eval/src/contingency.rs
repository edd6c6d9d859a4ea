//! Contingency tables between two labelings.

use std::collections::{BTreeMap, HashMap};

/// A sparse contingency table between two partitions of the same item set.
///
/// Rows index distinct labels of partition `a`, columns distinct labels of
/// partition `b`; `counts[(i, j)]` is the number of items with label pair
/// `(a_i, b_j)`. Marginals are precomputed.
///
/// Label indices are assigned in order of first appearance and the joint
/// counts iterate ascending by `(row, col)`, so every f64 sum over the
/// table — mutual information, ARI, the pairwise scores — adds its terms
/// in an order fixed by the two labelings alone: equal inputs give
/// `to_bits`-equal scores, run after run.
#[derive(Clone, Debug)]
pub struct ContingencyTable {
    /// Sparse joint counts keyed by (row index, col index), in ascending
    /// key order.
    pub counts: BTreeMap<(usize, usize), u64>,
    /// Row marginals (items per `a`-label).
    pub row_sums: Vec<u64>,
    /// Column marginals (items per `b`-label).
    pub col_sums: Vec<u64>,
    /// Total number of items.
    pub n: u64,
}

impl ContingencyTable {
    /// Builds the table from two equal-length label vectors. Labels are
    /// compacted internally, so they may be arbitrary `u32` values.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn new(a: &[u32], b: &[u32]) -> Self {
        assert_eq!(a.len(), b.len(), "partitions must label the same items");
        let mut a_ids: HashMap<u32, usize> = HashMap::new();
        let mut b_ids: HashMap<u32, usize> = HashMap::new();
        let mut counts: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (&la, &lb) in a.iter().zip(b.iter()) {
            let next_a = a_ids.len();
            let ia = *a_ids.entry(la).or_insert(next_a);
            let next_b = b_ids.len();
            let ib = *b_ids.entry(lb).or_insert(next_b);
            *counts.entry((ia, ib)).or_insert(0) += 1;
        }
        let mut row_sums = vec![0u64; a_ids.len()];
        let mut col_sums = vec![0u64; b_ids.len()];
        for (&(i, j), &c) in &counts {
            row_sums[i] += c;
            col_sums[j] += c;
        }
        ContingencyTable {
            counts,
            row_sums,
            col_sums,
            n: a.len() as u64,
        }
    }

    /// Shannon entropy (nats) of the row marginal distribution.
    pub fn row_entropy(&self) -> f64 {
        marginal_entropy(&self.row_sums, self.n)
    }

    /// Shannon entropy (nats) of the column marginal distribution.
    pub fn col_entropy(&self) -> f64 {
        marginal_entropy(&self.col_sums, self.n)
    }

    /// Mutual information (nats) between the two labelings.
    pub fn mutual_information(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let mut mi = 0.0;
        for (&(i, j), &c) in &self.counts {
            let p = c as f64 / n;
            let pa = self.row_sums[i] as f64 / n;
            let pb = self.col_sums[j] as f64 / n;
            mi += p * (p / (pa * pb)).ln();
        }
        // Numerical noise can push MI a hair below zero.
        mi.max(0.0)
    }
}

fn marginal_entropy(sums: &[u64], n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    -sums
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            p * p.ln()
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_have_diagonal_table() {
        let a = vec![0, 0, 1, 1, 2];
        let t = ContingencyTable::new(&a, &a);
        assert_eq!(t.row_sums.len(), 3);
        assert_eq!(t.col_sums.len(), 3);
        assert_eq!(t.counts.len(), 3); // diagonal only
        assert!((t.mutual_information() - t.row_entropy()).abs() < 1e-12);
    }

    #[test]
    fn independent_partitions_have_zero_mi() {
        // Perfectly independent: every (row, col) combination equally likely.
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 1, 0, 1];
        let t = ContingencyTable::new(&a, &b);
        assert!(t.mutual_information().abs() < 1e-12);
    }

    #[test]
    fn non_contiguous_labels_are_compacted() {
        let a = vec![7, 7, 900, 900];
        let b = vec![3, 3, 5, 5];
        let t = ContingencyTable::new(&a, &b);
        assert_eq!(t.row_sums.len(), 2);
        assert_eq!(t.col_sums.len(), 2);
        assert!((t.mutual_information() - (2f64).ln().min(t.row_entropy())).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_uniform_k_labels() {
        let a: Vec<u32> = (0..8).map(|i| i / 2).collect(); // 4 labels × 2 items
        let t = ContingencyTable::new(&a, &a);
        assert!((t.row_entropy() - (4f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let t = ContingencyTable::new(&[], &[]);
        assert_eq!(t.n, 0);
        assert_eq!(t.mutual_information(), 0.0);
        assert_eq!(t.row_entropy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "same items")]
    fn length_mismatch_panics() {
        ContingencyTable::new(&[0, 1], &[0]);
    }
}
