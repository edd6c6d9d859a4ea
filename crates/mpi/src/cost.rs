//! The LogGP-style collective cost model.

/// Models the time a collective costs on the simulated interconnect:
/// `α · ⌈log₂ n⌉ + β · total_bytes`. The log term models the recursive-
/// doubling stages of tree-based MPI collectives; the linear term models
/// serialization of the gathered payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-stage latency α in seconds.
    pub latency: f64,
    /// Per-byte cost β in seconds (1/bandwidth).
    pub per_byte: f64,
}

impl CostModel {
    /// HDR-100 InfiniBand class (the paper's tinkercliffs interconnect):
    /// ~2 µs stage latency, ~12.5 GB/s effective bandwidth.
    pub fn hdr100() -> Self {
        CostModel {
            latency: 2e-6,
            per_byte: 8e-11,
        }
    }

    /// Free communication — isolates algorithmic load imbalance in
    /// ablation studies.
    pub fn zero() -> Self {
        CostModel {
            latency: 0.0,
            per_byte: 0.0,
        }
    }

    /// Cost of one collective over `n` ranks moving `total_bytes`.
    pub fn collective(&self, n: usize, total_bytes: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let stages = (n as f64).log2().ceil();
        self.latency * stages + self.per_byte * total_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_is_free() {
        assert_eq!(CostModel::hdr100().collective(1, 1_000_000), 0.0);
    }

    #[test]
    fn cost_grows_with_ranks_and_bytes() {
        let m = CostModel::hdr100();
        assert!(m.collective(4, 100) < m.collective(64, 100));
        assert!(m.collective(4, 100) < m.collective(4, 1_000_000));
    }

    #[test]
    fn zero_model_is_zero() {
        assert_eq!(CostModel::zero().collective(64, 1 << 30), 0.0);
    }

    #[test]
    fn log_stages_exact_for_powers_of_two() {
        let m = CostModel {
            latency: 1.0,
            per_byte: 0.0,
        };
        assert_eq!(m.collective(2, 0), 1.0);
        assert_eq!(m.collective(8, 0), 3.0);
        assert_eq!(m.collective(64, 0), 6.0);
    }
}
