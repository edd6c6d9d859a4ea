//! The one description of a distributed run, [`DistSolver`], and its one
//! launcher on the in-process thread cluster, [`DistSolver::run`] — a
//! thin caller of the run path in [`crate::run`], which streams rank 0's
//! progress events to the caller's [`ProgressSink`] and folds the
//! per-rank outcomes. A TCP process ([`crate::run_tcp_rank`]) runs the
//! same rank body from the same description.

use crate::distgraph::ShardIngestReport;
use crate::fault::FaultPlan;
use crate::run::{run_thread_cluster, ShardedBackend, Source};
use sbp_core::run::{ProgressSink, RunConfig, RunOutcome, Solver};
use sbp_graph::{Graph, OwnershipStrategy};

/// EDiSt (paper Algs. 4–5: full replication, partitioned work, exact
/// inference at any rank count) or DC-SBP (Alg. 3: round-robin data
/// distribution, independent per-rank inference, root-side combination
/// and fine-tuning) on `ranks` ranks. On the simulated cluster the
/// virtual clocks run on the HDR-100 interconnect model.
#[derive(Clone, Debug)]
pub struct DistSolver {
    /// Which driver runs, and EDiSt's sync period.
    pub backend: ShardedBackend,
    /// MPI ranks (one per shard over a shard directory).
    pub ranks: usize,
    /// EDiSt's vertex-ownership scheme for the MCMC phase over a whole
    /// graph; DC-SBP always distributes round-robin, and shards carry
    /// their own.
    pub ownership: OwnershipStrategy,
    /// Skip DC-SBP's root-side fine-tuning pass (ablation switch); over
    /// shards there is no whole graph to fine-tune on.
    pub skip_finetune: bool,
    /// Deterministic fault injection ([`crate::fault`]); empty = none.
    /// An injected kill/mangle degrades the run coordinately (all
    /// survivors return best-so-far with `degraded` set) instead of
    /// crashing it.
    pub fault: FaultPlan,
}

impl DistSolver {
    /// `backend` on `ranks` simulated ranks with the default ownership
    /// scheme, fine-tuning and no faults.
    pub fn new(backend: ShardedBackend, ranks: usize) -> Self {
        DistSolver {
            backend,
            ranks,
            ownership: OwnershipStrategy::default(),
            skip_finetune: false,
            fault: FaultPlan::none(),
        }
    }

    /// Runs on the simulated thread cluster over `source`: rank 0's
    /// progress events stream to `progress` live, `cfg.cancel` is honoured
    /// at the same checkpoints on either source, and the per-rank outcomes
    /// fold into one with the [`sbp_mpi::ClusterReport`] attached. The
    /// ingest report is `Some` for [`Source::Shards`].
    ///
    /// A shard directory should come from
    /// [`sbp_graph::shard::validate_shard_dir`] with `ranks` equal to its
    /// shard count; another rank count, or a shard file that disappears or
    /// mutates after that, degrades the run
    /// ([`sbp_core::run::DegradedReason::ShardLoadFailure`] on the
    /// detecting rank) via the coordinated unwind in [`crate::error`] — it
    /// never panics the cluster.
    pub fn run(
        &self,
        source: Source<'_>,
        cfg: &RunConfig,
        progress: &mut dyn ProgressSink,
    ) -> (RunOutcome, Option<ShardIngestReport>) {
        let result = run_thread_cluster(self, source, cfg, progress);
        (result.outcome, result.ingest)
    }
}

impl Solver for DistSolver {
    /// `edist(ranks=N)` or `dcsbp(ranks=N)`.
    fn name(&self) -> String {
        format!("{}(ranks={})", self.backend.name(), self.ranks.max(1))
    }

    fn solve(&self, graph: &Graph, cfg: &RunConfig, progress: &mut dyn ProgressSink) -> RunOutcome {
        self.run(Source::Graph(graph), cfg, progress).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_core::run::{CancelToken, NoProgress, ProgressEvent, ProgressFn};
    use sbp_core::McmcStrategy;
    use sbp_graph::fixtures::two_cliques;

    const EDIST: ShardedBackend = ShardedBackend::Edist { sync_period: 1 };

    #[test]
    fn edist_solver_recovers_and_reports_cluster() {
        let g = two_cliques(8);
        let solver = DistSolver::new(EDIST, 3);
        assert_eq!(solver.name(), "edist(ranks=3)");
        assert!(!solver.supports_warm_start());
        let out = solver.solve(&g, &RunConfig::seeded(7), &mut NoProgress);
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
        let solver = DistSolver::new(ShardedBackend::DcSbp, 2);
        assert_eq!(solver.name(), "dcsbp(ranks=2)");
        let out = solver.solve(&g, &RunConfig::seeded(1), &mut NoProgress);
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
        let out = DistSolver::new(EDIST, 2).solve(&g, &RunConfig::seeded(3), &mut sink);
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
        let out = DistSolver::new(EDIST, 3).solve(&g, &cfg, &mut NoProgress);
        assert!(out.cancelled);
        // Nothing ran: the seeded identity bracket entry comes back,
        // consistently on every rank (no collective mismatch / deadlock).
        assert_eq!(out.num_blocks, 12);
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
        let out = DistSolver::new(EDIST, 2).solve(&g, &cfg, &mut sink);
        // The run either finished just before the token landed or aborted
        // early; in both cases the partition must be coherent.
        assert_eq!(out.assignment.len(), 16);
        assert!(out.num_blocks >= 2);
    }
}
