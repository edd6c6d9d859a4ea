//! [`Solver`] backends for the distributed algorithms on the in-process
//! thread cluster — thin callers of the one run path in [`crate::run`],
//! which streams rank 0's progress events to the caller's
//! [`ProgressSink`] and folds the per-rank outcomes.

use crate::fault::FaultPlan;
use crate::ownership::OwnershipStrategy;
use crate::run::{run_thread_cluster, RankJob, ShardedBackend, Source};
use sbp_core::run::{ProgressSink, RunConfig, RunOutcome, Solver};
use sbp_graph::Graph;
use sbp_mpi::CostModel;

/// The EDiSt backend (paper Algs. 4–5): full replication, partitioned
/// work, exact inference at any rank count.
#[derive(Clone, Debug)]
pub struct Edist {
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Interconnect cost model for the virtual clocks.
    pub cost: CostModel,
    /// Vertex-ownership scheme for the MCMC phase.
    pub ownership: OwnershipStrategy,
    /// Sweeps between move exchanges (1 = the paper's every-sweep
    /// allgather).
    pub sync_period: usize,
    /// Deterministic fault injection ([`crate::fault`]); empty = none.
    /// An injected kill/mangle degrades the run coordinately (all
    /// survivors return best-so-far with `degraded` set) instead of
    /// crashing it.
    pub fault: FaultPlan,
}

impl Edist {
    /// EDiSt on `ranks` simulated ranks with the default HDR-100
    /// interconnect and ownership scheme.
    pub fn new(ranks: usize) -> Self {
        Edist {
            ranks,
            cost: CostModel::hdr100(),
            ownership: OwnershipStrategy::default(),
            sync_period: 1,
            fault: FaultPlan::none(),
        }
    }
}

impl Default for Edist {
    fn default() -> Self {
        Edist::new(4)
    }
}

impl Solver for Edist {
    fn name(&self) -> String {
        format!("edist(ranks={})", self.ranks.max(1))
    }

    fn solve(&self, graph: &Graph, cfg: &RunConfig, progress: &mut dyn ProgressSink) -> RunOutcome {
        let job = RankJob {
            source: Source::Graph(graph),
            backend: ShardedBackend::Edist {
                sync_period: self.sync_period,
            },
            ownership: self.ownership,
            skip_finetune: false,
            cfg,
            fault: &self.fault,
        };
        run_thread_cluster(self.ranks.max(1), self.cost, &job, progress).outcome
    }
}

/// The DC-SBP backend (paper Alg. 3): round-robin data distribution,
/// independent per-rank inference, root-side combination + fine-tuning.
#[derive(Clone, Debug)]
pub struct DcSbp {
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Interconnect cost model for the virtual clocks.
    pub cost: CostModel,
    /// Skip the root-side fine-tuning pass (ablation switch).
    pub skip_finetune: bool,
    /// Deterministic fault injection, as on [`Edist::fault`].
    pub fault: FaultPlan,
}

impl DcSbp {
    /// DC-SBP on `ranks` simulated ranks with the default HDR-100
    /// interconnect.
    pub fn new(ranks: usize) -> Self {
        DcSbp {
            ranks,
            cost: CostModel::hdr100(),
            skip_finetune: false,
            fault: FaultPlan::none(),
        }
    }
}

impl Default for DcSbp {
    fn default() -> Self {
        DcSbp::new(4)
    }
}

impl Solver for DcSbp {
    fn name(&self) -> String {
        format!("dcsbp(ranks={})", self.ranks.max(1))
    }

    fn solve(&self, graph: &Graph, cfg: &RunConfig, progress: &mut dyn ProgressSink) -> RunOutcome {
        let job = RankJob {
            source: Source::Graph(graph),
            backend: ShardedBackend::DcSbp,
            ownership: OwnershipStrategy::default(),
            skip_finetune: self.skip_finetune,
            cfg,
            fault: &self.fault,
        };
        run_thread_cluster(self.ranks.max(1), self.cost, &job, progress).outcome
    }
}

/// Registers the distributed backends (`edist`, `dcsbp`) into a
/// name-keyed [`SolverRegistry`](sbp_core::registry::SolverRegistry), so
/// the CLI and the `sbp-serve` daemon can resolve them by name alongside
/// the single-node ones.
pub fn register_solvers(reg: &mut sbp_core::registry::SolverRegistry) {
    reg.register("edist", |spec| {
        if spec.ranks == 0 {
            return Err("ranks must be >= 1".into());
        }
        if spec.sync_period == 0 {
            return Err("sync period must be >= 1".into());
        }
        let mut solver = Edist::new(spec.ranks);
        solver.sync_period = spec.sync_period;
        Ok(Box::new(solver))
    });
    reg.register("dcsbp", |spec| {
        if spec.ranks == 0 {
            return Err("ranks must be >= 1".into());
        }
        Ok(Box::new(DcSbp::new(spec.ranks)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_core::registry::{SolverRegistry, SolverSpec};
    use sbp_core::run::{CancelToken, NoProgress, ProgressEvent, ProgressFn};
    use sbp_core::McmcStrategy;
    use sbp_graph::fixtures::two_cliques;

    #[test]
    fn edist_solver_recovers_and_reports_cluster() {
        let g = two_cliques(8);
        let out = Edist::new(3).solve(&g, &RunConfig::seeded(7), &mut NoProgress);
        assert_eq!(out.num_blocks, 2);
        assert!(!out.iterations.is_empty());
        let rep = out.cluster.expect("distributed backend reports cluster");
        assert_eq!(rep.ranks, 3);
        assert!(rep.collectives > 0);
        assert!(rep.makespan > 0.0);
        assert!(rep.max_rank_bytes <= rep.total_bytes);
        assert!((out.virtual_seconds - rep.makespan).abs() < 1e-12);
        // The move exchange travelled compressed and was accounted for.
        assert!(rep.move_bytes_raw > 0, "no moves exchanged?");
        assert!(
            rep.move_bytes_encoded < rep.move_bytes_raw,
            "varint exchange ({}) not smaller than raw ({})",
            rep.move_bytes_encoded,
            rep.move_bytes_raw
        );
    }

    #[test]
    fn dcsbp_solver_recovers_and_reports_cluster() {
        let g = two_cliques(8);
        let out = DcSbp::new(2).solve(&g, &RunConfig::seeded(1), &mut NoProgress);
        assert_eq!(out.assignment.len(), 16);
        assert_eq!(out.num_blocks, 2);
        assert_eq!(out.cluster.expect("cluster report").ranks, 2);
    }

    #[test]
    fn progress_events_stream_from_rank_zero() {
        let g = two_cliques(6);
        let mut iterations = 0usize;
        let mut started = 0usize;
        let mut sink = ProgressFn(|e: &ProgressEvent| match e {
            ProgressEvent::Iteration { .. } => iterations += 1,
            ProgressEvent::ClusterStarted { ranks } => started = *ranks,
            _ => {}
        });
        let out = Edist::new(2).solve(&g, &RunConfig::seeded(3), &mut sink);
        let _ = sink;
        assert_eq!(started, 2);
        assert_eq!(iterations, out.iterations.len());
        assert!(iterations > 0);
    }

    #[test]
    fn pre_cancelled_edist_returns_identity_on_all_ranks() {
        let g = two_cliques(6);
        let cfg = RunConfig::seeded(2);
        cfg.cancel.cancel();
        let out = Edist::new(3).solve(&g, &cfg, &mut NoProgress);
        assert!(out.cancelled);
        // Nothing ran: the seeded identity bracket entry comes back,
        // consistently on every rank (no collective mismatch / deadlock).
        assert_eq!(out.num_blocks, 12);
    }

    #[test]
    fn registry_resolves_distributed_backends() {
        let mut reg = SolverRegistry::with_core_backends();
        register_solvers(&mut reg);
        let spec = SolverSpec {
            ranks: 3,
            sync_period: 2,
        };
        let edist = reg.build("edist", &spec).unwrap();
        assert_eq!(edist.name(), "edist(ranks=3)");
        assert!(!edist.supports_warm_start());
        let dcsbp = reg.build("dcsbp", &spec).unwrap();
        assert_eq!(dcsbp.name(), "dcsbp(ranks=3)");
        // Registry-built EDiSt actually solves.
        let g = two_cliques(8);
        let out = edist.solve(&g, &RunConfig::seeded(7), &mut NoProgress);
        assert_eq!(out.num_blocks, 2);
        assert!(reg
            .build(
                "edist",
                &SolverSpec {
                    ranks: 0,
                    sync_period: 1
                }
            )
            .is_err());
    }

    #[test]
    fn cancelling_during_run_aborts_consistently() {
        // Cancel from the progress drain thread after the first recorded
        // iteration; the run must end without deadlock and be flagged.
        let g = two_cliques(8);
        let cfg = RunConfig {
            sbp: sbp_core::SbpConfig {
                seed: 5,
                strategy: McmcStrategy::Batch,
                ..Default::default()
            },
            cancel: CancelToken::new(),
            ..RunConfig::default()
        };
        let token = cfg.cancel.clone();
        let mut sink = ProgressFn(move |e: &ProgressEvent| {
            if matches!(e, ProgressEvent::Iteration { .. }) {
                token.cancel();
            }
        });
        let out = Edist::new(2).solve(&g, &cfg, &mut sink);
        // The run either finished just before the token landed or aborted
        // early; in both cases the partition must be coherent.
        assert_eq!(out.assignment.len(), 16);
        assert!(out.num_blocks >= 2);
    }
}
