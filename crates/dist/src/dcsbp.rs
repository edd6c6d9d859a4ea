//! Divide-and-conquer SBP (paper Alg. 3) — the baseline EDiSt is measured
//! against.
//!
//! Each rank receives a round-robin vertex share, induces the subgraph on
//! it (edges with exactly one endpoint in the share are *dropped*, which is
//! what islands low-degree vertices on sparse graphs — the failure mode of
//! Tables VII and Fig. 2), runs full single-node SBP on its piece, and
//! sends the partial partition to the root. The root offsets the label
//! spaces, fine-tunes the combined partition (Alg. 3 line 23), and
//! broadcasts the result. The per-rank solves and the fine-tune are the
//! one golden search on the single-node plane ([`sbp_core::solve_sbp`]).
//!
//! Cancellation is rank-local during the per-rank solves (no collectives
//! run inside them, so ranks may stop their local searches at different
//! depths without desynchronizing) and honoured again by the root's
//! fine-tuning pass; the root's observed flag is broadcast with the
//! result so every rank reports the same outcome.

use crate::edist::EdistData;
use crate::error::{abort_empty, guard_collectives};
use crate::mix_seed;
use sbp_core::plane::{LocalPlane, Plane};
use sbp_core::run::{NoProgress, ProgressEvent, ProgressSink, RunConfig, RunOutcome};
use sbp_core::sbp::golden_search;
use sbp_core::{compact_labels, SbpConfig};
use sbp_graph::{induced_subgraph, Graph};
use sbp_mpi::Communicator;

/// Forwards the root fine-tuning pass's iteration-level events to the
/// run's sink.
struct FinetuneSink<'a> {
    sink: &'a mut dyn ProgressSink,
}

impl ProgressSink for FinetuneSink<'_> {
    fn on_event(&mut self, event: &ProgressEvent) {
        // The driver emits its own terminal events; forward only the
        // per-iteration trajectory of the nested solve.
        if matches!(
            event,
            ProgressEvent::Merged { .. } | ProgressEvent::Iteration { .. }
        ) {
            self.sink.on_event(event);
        }
    }
}

/// [`sbp_core::solve_sbp`] on this rank's thread, charging `comm` with
/// the part of the solve's `virtual_seconds` its thread-CPU clock cannot
/// see: the pool-worker CPU of the probes the search ran ahead and
/// committed. The rank's makespan then stays the CPU of the committed
/// trajectory, however wide its pool.
fn solve_on_rank<C: Communicator>(
    comm: &C,
    graph: &Graph,
    start: Option<(Vec<u32>, usize)>,
    cfg: &RunConfig,
    progress: &mut dyn ProgressSink,
) -> RunOutcome {
    let plane = LocalPlane::new(graph);
    let (outcome, _) = golden_search(&plane, start, cfg, 1, progress);
    // Negative when the search dropped a probe that ran on this thread:
    // its CPU leaves the rank's clock too.
    comm.charge(outcome.virtual_seconds - plane.clock());
    outcome
}

/// The DC-SBP driver over any [`EdistData`] plane, with trajectory
/// recording, rank-0 progress relay, and cancellation.
///
/// Each rank solves the induced subgraph of its share — which both planes
/// hold completely — and the root combines the partial partitions. With
/// the whole graph on the root (and fine-tuning not skipped) the root
/// fine-tunes and broadcasts the result; otherwise the combined partition
/// is compacted and its exact DL evaluated over the data plane, so the
/// replicated and sharded "no fine-tune" runs are bit-identical
/// ([`compact_labels`] is the relabeling `Blockmodel::compacted` applies).
///
/// The whole collective region runs guarded (coordinated unwind, see
/// [`crate::error`]): a dead peer, an injected kill, or a corrupted cell
/// payload degrades the run instead of crashing the cluster.
///
/// `skip_finetune` is the ablation switch: the combined partition is then
/// only compacted, as in the paper's "no fine-tune" variant. Only rank
/// 0's `progress` is a live sink.
pub(crate) fn dcsbp_driver<C: Communicator, D: EdistData>(
    comm: &C,
    data: &D,
    cfg: &RunConfig,
    skip_finetune: bool,
    progress: &mut dyn ProgressSink,
) -> RunOutcome {
    let n = data.num_vertices();
    if n == 0 {
        return RunOutcome::empty();
    }
    let cancel = &cfg.cancel;
    let run_cfg = |sbp: SbpConfig| RunConfig {
        sbp,
        cancel: cancel.clone(),
        ..RunConfig::default()
    };
    progress.on_event(&ProgressEvent::Started {
        num_vertices: n,
        num_blocks: n,
    });
    let result = guard_collectives(|| {
        let sub = induced_subgraph(data.sweep_graph(), data.my_vertices());

        progress.on_event(&ProgressEvent::PhaseStarted { phase: "local-sbp" });
        let mut sub_cfg = cfg.sbp.clone();
        sub_cfg.seed = mix_seed(cfg.sbp.seed, 0xDC00 + comm.rank() as u64);
        let local =
            solve_on_rank(comm, &sub.graph, None, &run_cfg(sub_cfg), &mut NoProgress).assignment;

        // (global vertex, local label) pairs travel to the root.
        let payload: Vec<(u32, u32)> = local
            .iter()
            .enumerate()
            .map(|(v, &b)| (sub.to_global(v as u32), b))
            .collect();
        let gathered = comm.gatherv(0, payload);

        let tune_on = data.whole_graph().filter(|_| !skip_finetune);
        let root_result = gathered.map(|parts| {
            progress.on_event(&ProgressEvent::PhaseStarted { phase: "combine" });
            let (combined, width) = combine_parts(parts, n);
            match tune_on {
                Some(graph) => {
                    progress.on_event(&ProgressEvent::PhaseStarted { phase: "finetune" });
                    let r = solve_on_rank(
                        comm,
                        graph,
                        Some((combined, width)),
                        &run_cfg(cfg.sbp.clone()),
                        &mut FinetuneSink { sink: progress },
                    );
                    (
                        r.assignment,
                        r.num_blocks,
                        r.description_length,
                        r.iterations,
                        r.cancelled,
                    )
                }
                None => {
                    let (compacted, num_blocks) = compact_labels(combined, width);
                    // The DL slot is filled over the data plane below.
                    let cancelled = cancel.is_cancelled();
                    (compacted, num_blocks, f64::NAN, Vec::new(), cancelled)
                }
            }
        });
        let (assignment, num_blocks, tuned_dl, iterations, cancelled) =
            comm.broadcast(0, root_result);
        let (assignment, description_length) = if tune_on.is_some() {
            (assignment, tuned_dl)
        } else {
            let bm = data.build_blockmodel(comm, assignment, num_blocks)?;
            // Rank 0's value, so every replica records the identical bits.
            let dl = comm.broadcast(0, (comm.rank() == 0).then(|| bm.description_length()));
            (bm.into_assignment(), dl)
        };
        if cancelled {
            progress.on_event(&ProgressEvent::Cancelled {
                iteration: iterations.len(),
            });
        } else {
            progress.on_event(&ProgressEvent::Finished {
                num_blocks,
                description_length,
            });
        }
        Ok(RunOutcome {
            assignment,
            num_blocks,
            description_length,
            iterations,
            cancelled,
            degraded: None,
            virtual_seconds: comm.virtual_time(),
            cluster: None,
            sampled_vertices: None,
            model: None,
        })
    });
    result.unwrap_or_else(|err| abort_empty(comm, &err))
}

/// The root-side combine (Alg. 3 lines 20–22): each rank's local label
/// space is shifted past its predecessors'. Returns the combined assignment and its label-space
/// width (`max(1)` on non-empty graphs so downstream blockmodels stay
/// valid even if every part came back empty).
pub(crate) fn combine_parts(parts: Vec<Vec<(u32, u32)>>, num_vertices: usize) -> (Vec<u32>, usize) {
    let mut combined = vec![0u32; num_vertices];
    let mut offset = 0u32;
    for part in parts {
        let width = part.iter().map(|&(_, b)| b + 1).max().unwrap_or(0);
        for (v, b) in part {
            combined[v as usize] = offset + b;
        }
        offset += width;
    }
    let num_blocks = (offset as usize).max(usize::from(!combined.is_empty()));
    (combined, num_blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::ShardedBackend;
    use crate::solver::DistSolver;
    use sbp_core::run::Solver;
    use sbp_graph::fixtures::two_cliques;
    use sbp_graph::Graph;

    fn solve(graph: &Graph, solver: DistSolver) -> RunOutcome {
        solver.solve(graph, &RunConfig::default(), &mut NoProgress)
    }

    fn dcsbp(ranks: usize) -> DistSolver {
        DistSolver::new(ShardedBackend::DcSbp, ranks)
    }

    #[test]
    fn single_rank_recovers_two_cliques() {
        let res = solve(&two_cliques(8), dcsbp(1));
        assert_eq!(res.num_blocks, 2);
        assert_eq!(res.assignment.len(), 16);
        assert!(res.cluster.expect("cluster report").makespan >= 0.0);
    }

    #[test]
    fn skip_finetune_still_returns_valid_partition() {
        let solver = DistSolver {
            skip_finetune: true,
            ..dcsbp(2)
        };
        let res = solve(&two_cliques(6), solver);
        assert_eq!(res.assignment.len(), 12);
        assert!(res.num_blocks >= 1);
        assert!(res
            .assignment
            .iter()
            .all(|&b| (b as usize) < res.num_blocks));
    }

    #[test]
    fn empty_graph_is_handled() {
        let res = solve(&Graph::from_edges(0, Vec::new()), dcsbp(2));
        assert!(res.assignment.is_empty());
        assert_eq!(res.num_blocks, 0);
    }

    #[test]
    fn combine_parts_offsets_label_spaces() {
        // Rank 0 labels {0,1} on vertices {0,2}; rank 1 labels {0} on {1,3}.
        let parts = vec![vec![(0u32, 0u32), (2, 1)], vec![(1, 0), (3, 0)]];
        let (combined, width) = combine_parts(parts, 4);
        assert_eq!(combined, vec![0, 2, 1, 2]);
        assert_eq!(width, 3);
        assert_eq!(combine_parts(vec![], 0), (vec![], 0));
        assert_eq!(combine_parts(vec![vec![]], 1), (vec![0], 1));
    }

    #[test]
    fn more_ranks_than_vertices() {
        let res = solve(&two_cliques(2), dcsbp(6));
        assert_eq!(res.assignment.len(), 4);
    }
}
