//! Output checks: what makes a rep count as **failed**.
//!
//! A solve that converges to a useless partition is a failure, never a
//! slow success: `Backend::Batch` on `graph_challenge(12000, Hard)` is
//! known to stall at `C ≈ V/2` with `DL_norm > 1` for most solver seeds
//! (README, "Known traps"). [`judge`] is the single gate every rep of
//! every workload passes through.

use edist::prelude::{IterationStat, Run};

/// FNV-1a over the little-endian bytes of the labels: the identity two
/// runs must share to count as the same partition (label-for-label, not
/// up to permutation — EDiSt's exactness claim is bit-identity).
pub fn assignment_hash(assignment: &[u32]) -> u64 {
    fnv1a(assignment.iter().flat_map(|l| l.to_le_bytes()))
}

/// FNV-1a over `(blocks, dl bits, sweeps, moves)` of every iteration.
pub fn trajectory_hash(iterations: &[IterationStat]) -> u64 {
    fnv1a(iterations.iter().flat_map(|it| {
        [
            it.num_blocks as u64,
            it.dl.to_bits(),
            it.sweeps as u64,
            it.moves as u64,
        ]
        .into_iter()
        .flat_map(u64::to_le_bytes)
    }))
}

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a workload's inputs promise about a correct answer.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Non-empty planted communities of the generated graph.
    pub planted_blocks: usize,
    /// Lowest acceptable NMI against the planted truth.
    pub nmi_floor: f64,
}

/// The facts of one finished rep that [`judge`] rules on.
#[derive(Clone, Debug)]
pub struct RepFacts {
    /// `Run::degraded` was set.
    pub degraded: bool,
    /// `Run::cancelled` was set.
    pub cancelled: bool,
    /// Blocks in the returned partition.
    pub num_blocks: usize,
    /// Normalised description length (`< 1` beats the null model).
    pub dl_norm: f64,
    /// NMI against the planted truth.
    pub nmi: f64,
}

impl RepFacts {
    /// Facts of a library [`Run`] with its externally computed scores.
    pub fn of_run(run: &Run, dl_norm: f64, nmi: f64) -> RepFacts {
        RepFacts {
            degraded: run.degraded.is_some(),
            cancelled: run.cancelled,
            num_blocks: run.num_blocks,
            dl_norm,
            nmi,
        }
    }
}

/// `Ok` when the rep is a success; otherwise the reason it counts in
/// `failed`.
pub fn judge(facts: &RepFacts, limits: &Limits) -> Result<(), String> {
    if facts.degraded {
        return Err("run degraded (a rank failed)".into());
    }
    if facts.cancelled {
        return Err("run cancelled".into());
    }
    if facts.dl_norm.is_nan() || facts.dl_norm >= 1.0 {
        return Err(format!(
            "dl_norm {:.4} is not below the null model",
            facts.dl_norm
        ));
    }
    if facts.num_blocks == 0 || facts.num_blocks > 4 * limits.planted_blocks {
        return Err(format!(
            "{} blocks for {} planted (limit 4x)",
            facts.num_blocks, limits.planted_blocks
        ));
    }
    if facts.nmi.is_nan() || facts.nmi < limits.nmi_floor {
        return Err(format!(
            "nmi {:.4} under the workload floor {:.2}",
            facts.nmi, limits.nmi_floor
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_hash_is_order_and_value_sensitive() {
        let a = assignment_hash(&[0, 1, 2, 3]);
        assert_eq!(a, assignment_hash(&[0, 1, 2, 3]));
        assert_ne!(a, assignment_hash(&[0, 1, 3, 2]));
        assert_ne!(a, assignment_hash(&[0, 1, 2]));
        // A relabelled (permuted) partition is a different answer.
        assert_ne!(assignment_hash(&[0, 0, 1]), assignment_hash(&[1, 1, 0]));
        // Pinned against an independent FNV-1a-64 of the LE label bytes,
        // so results files stay comparable across benchmark versions.
        assert_eq!(assignment_hash(&[0, 0]), 0xa8c7_f832_281a_39c5);
        assert_eq!(assignment_hash(&[0, 1, 2]), 0x7562_41e1_be8c_9396);
    }

    #[test]
    fn trajectory_hash_sees_dl_bits() {
        let it = |dl: f64| IterationStat {
            num_blocks: 5,
            dl,
            sweeps: 3,
            moves: 7,
        };
        assert_eq!(trajectory_hash(&[it(1.5)]), trajectory_hash(&[it(1.5)]));
        assert_ne!(
            trajectory_hash(&[it(1.5)]),
            trajectory_hash(&[it(f64::from_bits(1.5f64.to_bits() + 1))])
        );
    }
}
