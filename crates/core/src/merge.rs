//! The agglomerative block-merge phase (paper Alg. 1).
//!
//! Every block proposes `x` candidate merges; the globally best candidates
//! are applied greedily until the block count is reduced by the requested
//! amount. Merge chains (`a→b` while `b→c`) are resolved with a union-find
//! pointer scheme — the paper's §III-A optimization (d).
//!
//! `propose_merges` accepts an explicit block subset so EDiSt can compute
//! proposals for only its owned blocks (Alg. 4 line 4) and allgather the
//! results; `merge_labels` is deterministic given the combined candidate
//! list, and every rank folds its own replica through the relabelling it
//! returns ([`Blockmodel::merged`]) — which is what keeps every rank's
//! blockmodel bit-identical without a collective after the merge. The
//! per-candidate ΔS values feeding the total order come from weighted
//! scans and delta kernels over canonical matrix lines, so candidate
//! ranking — and therefore the applied merge set — is identical on every
//! replica in the sparse regime too, not just on dense storage.
//!
//! The phase is `C · x` evaluations of one kernel, so its cost is that
//! kernel's: each block gathers its own two matrix lines once
//! ([`DeltaScratch::gather_block`](crate::delta::DeltaScratch::gather_block)),
//! then each of its `x` draws picks a target (the draw's total mass is
//! `d_r − 2·M[r][r]`, not a scan) and walks the target's two lines
//! against the gathered ones
//! ([`evaluate_merge`](crate::delta::GatheredBlock::evaluate_merge)) — no
//! delta vector, no sort, no per-cell search. The walk keeps the f64
//! accumulation order of the line-delta kernel it replaced
//! ([`crate::delta::merge_delta`] + [`crate::delta::delta_entropy`], now
//! the test reference), so ΔS, the ranking below and every trajectory are
//! bit-for-bit what they were.

use crate::blockmodel::Blockmodel;
use crate::delta::with_scratch;
use crate::propose::propose_for_block;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// A block's best merge proposal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeCandidate {
    /// The block to be absorbed.
    pub block: u32,
    /// The block it merges into.
    pub target: u32,
    /// Change in entropy if applied in isolation (model-complexity terms
    /// are identical across candidates at fixed block count, so ranking by
    /// ΔS equals ranking by ΔDL).
    pub delta_s: f64,
}

impl sbp_mpi::Wire for MergeCandidate {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        self.block.wire_write(buf);
        self.target.wire_write(buf);
        self.delta_s.wire_write(buf);
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, sbp_graph::frame::DecodeError> {
        Ok(MergeCandidate {
            block: u32::wire_read(buf, pos)?,
            target: u32::wire_read(buf, pos)?,
            delta_s: f64::wire_read(buf, pos)?,
        })
    }
}

/// Computes the best-of-`proposals_per_block` merge candidate for every
/// block in `blocks` (paper Alg. 1 lines 2–9 / Alg. 4 lines 3–14).
///
/// Proposals are evaluated in parallel across blocks; each block uses an
/// independent RNG stream derived from `seed`, so results are deterministic
/// regardless of thread scheduling. Each worker evaluates `ΔS` through its
/// thread-local [`crate::delta::DeltaScratch`], so the per-proposal path is
/// allocation-free.
pub fn propose_merges(
    bm: &Blockmodel,
    blocks: &[u32],
    proposals_per_block: usize,
    seed: u64,
) -> Vec<MergeCandidate> {
    let run = |&r: &u32| -> Option<MergeCandidate> {
        let mut rng = block_rng(seed, r);
        with_scratch(|scratch| {
            // Everything a merge of `r` needs that does not depend on the
            // target is gathered once, not once per draw.
            let mut gathered = scratch.gather_block(bm, r);
            let mut best: Option<MergeCandidate> = None;
            for _ in 0..proposals_per_block {
                let s = propose_for_block(&mut rng, bm, r)?;
                let ds = gathered.evaluate_merge(s);
                if best.is_none_or(|b| ds < b.delta_s) {
                    best = Some(MergeCandidate {
                        block: r,
                        target: s,
                        delta_s: ds,
                    });
                }
            }
            best
        })
    };
    // Parallelism only pays off on non-trivial block counts.
    if blocks.len() >= 64 {
        blocks.par_iter().filter_map(&run).collect()
    } else {
        blocks.iter().filter_map(run).collect()
    }
}

/// Block `r`'s private proposal stream for the phase seeded `seed`.
fn block_rng(seed: u64, r: u32) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(r as u64 + 1)))
}

/// Chooses the best `target_merges` merges from `candidates` (paper Alg. 1
/// lines 11–15) over `num_blocks` blocks, resolving chains with union-find.
/// Returns the block relabelling — `label[b]` is the dense id of the merged
/// block that absorbs `b`, roots numbered ascending by id — and the new
/// block count: what [`Blockmodel::merged`] folds a model through.
///
/// Deterministic: candidates are sorted by `(ΔS, block, target)` with a
/// total order, so every EDiSt rank chooses the identical merge set.
pub fn merge_labels(
    num_blocks: usize,
    mut candidates: Vec<MergeCandidate>,
    target_merges: usize,
) -> (Vec<u32>, usize) {
    candidates.sort_by(|a, b| {
        a.delta_s
            .total_cmp(&b.delta_s)
            .then(a.block.cmp(&b.block))
            .then(a.target.cmp(&b.target))
    });
    let mut parent: Vec<u32> = (0..num_blocks as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let gp = parent[parent[x as usize] as usize];
            parent[x as usize] = gp; // path halving
            x = gp;
        }
        x
    }

    let mut merged = 0usize;
    for cand in &candidates {
        if merged >= target_merges {
            break;
        }
        let a = find(&mut parent, cand.block);
        let b = find(&mut parent, cand.target);
        if a != b {
            parent[a as usize] = b;
            merged += 1;
        }
    }

    // Number the roots densely, ascending by root id (deterministic),
    // then hand every block its root's number.
    let mut root_label = vec![u32::MAX; num_blocks];
    let mut next = 0u32;
    for blk in 0..num_blocks as u32 {
        let root = find(&mut parent, blk);
        if root_label[root as usize] == u32::MAX {
            root_label[root as usize] = next;
            next += 1;
        }
    }
    let label = (0..num_blocks as u32)
        .map(|blk| root_label[find(&mut parent, blk) as usize])
        .collect();
    (label, next as usize)
}

/// [`merge_labels`] carried through to the vertices: the new dense
/// assignment and block count. The search itself folds the model
/// ([`Blockmodel::merged`]) and never comes through here; this is the
/// assignment-level view the tests and the micro-bench's rebuild reference
/// start from.
pub fn apply_merges(
    bm: &Blockmodel,
    candidates: Vec<MergeCandidate>,
    target_merges: usize,
) -> (Vec<u32>, usize) {
    let (label, num_blocks) = merge_labels(bm.num_blocks(), candidates, target_merges);
    let assignment = bm.assignment().iter().map(|&b| label[b as usize]).collect();
    (assignment, num_blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_graph::Graph;

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

    #[test]
    fn proposals_cover_requested_blocks() {
        let g = two_triangles();
        let bm = Blockmodel::identity(&g);
        let cands = propose_merges(&bm, &[0, 2, 4], 5, 7);
        assert_eq!(cands.len(), 3);
        let blocks: Vec<u32> = cands.iter().map(|c| c.block).collect();
        assert_eq!(blocks, vec![0, 2, 4]);
        for c in &cands {
            assert_ne!(c.block, c.target);
            assert!(c.delta_s.is_finite());
        }
    }

    #[test]
    fn proposals_deterministic_given_seed() {
        let g = two_triangles();
        let bm = Blockmodel::identity(&g);
        let blocks: Vec<u32> = (0..6).collect();
        let a = propose_merges(&bm, &blocks, 10, 42);
        let b = propose_merges(&bm, &blocks, 10, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn proposals_split_across_subsets_match_full_run() {
        // The EDiSt invariant: computing candidates for disjoint owned
        // subsets and concatenating equals the single-node computation.
        let g = two_triangles();
        let bm = Blockmodel::identity(&g);
        let full = propose_merges(&bm, &[0, 1, 2, 3, 4, 5], 10, 99);
        let mut split = propose_merges(&bm, &[0, 2, 4], 10, 99);
        split.extend(propose_merges(&bm, &[1, 3, 5], 10, 99));
        split.sort_by_key(|c| c.block);
        assert_eq!(full, split);
    }

    /// The whole candidate list — block, target and ΔS bits — equals the
    /// one the line-delta kernel produces from the same streams, on both
    /// storages and on both sides of the 64-block parallel cut-over.
    #[test]
    fn propose_merges_equals_reference_candidate_list() {
        use crate::blockmodel::StorageKind;
        use crate::delta::{delta_entropy, merge_delta};
        // A weighted ring with chords, self-loops and reciprocal arcs.
        let n = 240u32;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push((v, (v + 1) % n, 1 + i64::from(v % 3)));
            edges.push((v, (v * 7 + 3) % n, 1));
            if v % 5 == 0 {
                edges.push(((v + 1) % n, v, 2));
            }
            if v % 11 == 0 {
                edges.push((v, v, 1));
            }
        }
        let g = Graph::from_edges(n as usize, edges);
        for c in [40u32, 63, 64, 120] {
            let assignment: Vec<u32> = (0..n).map(|v| v % c).collect();
            for kind in [StorageKind::Dense, StorageKind::Sparse] {
                let bm = Blockmodel::from_assignment_with(&g, assignment.clone(), c as usize, kind);
                let blocks: Vec<u32> = (0..c).collect();
                let reference: Vec<MergeCandidate> = blocks
                    .iter()
                    .map(|&r| {
                        let mut rng = block_rng(17, r);
                        (0..10)
                            .map(|_| {
                                let s = propose_for_block(&mut rng, &bm, r)
                                    .expect("more than one block");
                                MergeCandidate {
                                    block: r,
                                    target: s,
                                    delta_s: delta_entropy(&bm, &merge_delta(&bm, r, s)),
                                }
                            })
                            .reduce(|best, cand| {
                                if cand.delta_s < best.delta_s {
                                    cand
                                } else {
                                    best
                                }
                            })
                            .expect("ten proposals")
                    })
                    .collect();
                let got = propose_merges(&bm, &blocks, 10, 17);
                assert_eq!(got.len(), reference.len());
                for (a, b) in got.iter().zip(&reference) {
                    assert_eq!(
                        (a.block, a.target, a.delta_s.to_bits()),
                        (b.block, b.target, b.delta_s.to_bits()),
                        "C={c} {kind:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn apply_merges_halves_block_count() {
        let g = two_triangles();
        let bm = Blockmodel::identity(&g);
        let cands = propose_merges(&bm, &[0, 1, 2, 3, 4, 5], 10, 1);
        let (assignment, c) = apply_merges(&bm, cands, 3);
        assert_eq!(c, 3);
        assert_eq!(assignment.len(), 6);
        assert!(assignment.iter().all(|&b| b < 3));
    }

    #[test]
    fn apply_merges_resolves_chains() {
        let g = two_triangles();
        let bm = Blockmodel::identity(&g);
        // Force a chain: 0→1, 1→2 : both applied, ending with {0,1,2} fused.
        let cands = vec![
            MergeCandidate {
                block: 0,
                target: 1,
                delta_s: -2.0,
            },
            MergeCandidate {
                block: 1,
                target: 2,
                delta_s: -1.0,
            },
        ];
        let (assignment, c) = apply_merges(&bm, cands, 2);
        assert_eq!(c, 4);
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[1], assignment[2]);
    }

    #[test]
    fn apply_merges_skips_cycles_without_counting() {
        let g = two_triangles();
        let bm = Blockmodel::identity(&g);
        // 0→1 then 1→0 is a cycle; the second must be skipped and the next
        // candidate applied instead.
        let cands = vec![
            MergeCandidate {
                block: 0,
                target: 1,
                delta_s: -3.0,
            },
            MergeCandidate {
                block: 1,
                target: 0,
                delta_s: -2.0,
            },
            MergeCandidate {
                block: 4,
                target: 5,
                delta_s: -1.0,
            },
        ];
        let (assignment, c) = apply_merges(&bm, cands, 2);
        assert_eq!(c, 4);
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[4], assignment[5]);
        assert_ne!(assignment[0], assignment[4]);
    }

    #[test]
    fn apply_zero_merges_is_identity_relabel() {
        let g = two_triangles();
        let bm = Blockmodel::identity(&g);
        let (assignment, c) = apply_merges(&bm, vec![], 0);
        assert_eq!(c, 6);
        assert_eq!(assignment, (0..6u32).collect::<Vec<_>>());
    }

    #[test]
    fn exhaustive_best_merge_targets_stay_within_cliques() {
        // For every singleton block of a two-clique graph, the exact best
        // merge target (by ΔS over all alternatives) lies inside its own
        // clique — the signal the merge phase exploits.
        use crate::delta::{delta_entropy, merge_delta};
        let k = 4u32;
        let mut edges = Vec::new();
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    edges.push((i, j, 1));
                    edges.push((k + i, k + j, 1));
                }
            }
        }
        edges.push((0, k, 1));
        let g = Graph::from_edges(2 * k as usize, edges);
        let bm = Blockmodel::identity(&g);
        for r in 0..2 * k {
            let best = (0..2 * k)
                .filter(|&s| s != r)
                .min_by(|&a, &b| {
                    let da = delta_entropy(&bm, &merge_delta(&bm, r, a));
                    let db = delta_entropy(&bm, &merge_delta(&bm, r, b));
                    da.total_cmp(&db)
                })
                .expect("candidates exist");
            let same_clique = (r < k) == (best < k);
            assert!(same_clique, "block {r} preferred cross-clique merge {best}");
        }
    }
}
