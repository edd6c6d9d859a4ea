//! The one distributed run path: every {thread, TCP} × {replicated,
//! sharded} × {EDiSt, DC-SBP} run is assembled here and nowhere else
//! (source → rank body → search / driver → fold; diagram in the crate
//! docs).
//!
//! `run_rank` is the SPMD program of one rank, generic over the
//! [`Communicator`]: the thread simulator (`run_thread_cluster`, behind
//! the [`crate::DistSolver`] solver and [`run_sharded`])
//! and a real TCP process ([`crate::run_tcp_rank`]) execute it verbatim,
//! so their collective schedules cannot drift apart — which is what
//! EDiSt's exactness claim rests on.

use crate::dcsbp::dcsbp_driver;
use crate::distgraph::{load_dist_graph, ShardIngestReport};
use crate::edist::{DistPlane, EdistData, ReplicatedData};
use crate::error::{abort_empty, abort_schedule, guard_collectives};
use crate::exchange::ExchangeStats;
use crate::fault::{FaultComm, FaultPlan};
use crate::sharded::ShardedData;
use sbp_core::run::{NoProgress, ProgressEvent, ProgressSink, RunConfig, RunOutcome};
use sbp_core::sbp::golden_search;
use sbp_graph::shard::ShardHeader;
use sbp_graph::{Graph, OwnershipStrategy};
use sbp_mpi::thread::ThreadComm;
use sbp_mpi::{ClusterOutcome, ClusterReport, Communicator, CostModel, ThreadCluster};
use std::panic::resume_unwind;
use std::path::Path;
use std::sync::mpsc::Sender;
use std::sync::Mutex;

/// Where a rank reads its share of the graph from.
pub enum Source<'a> {
    /// Every rank holds the same monolithic graph (the replicated
    /// deployment of paper Algs. 4–5): work is partitioned, data is not.
    Graph(&'a Graph),
    /// A `.sbps` shard directory; each rank reads and decodes only its
    /// own shard ([`sbp_graph::ShardReader::open`]).
    Shards(&'a Path),
}

/// Which distributed driver a run launches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShardedBackend {
    /// EDiSt (exact; sharded runs are bit-identical to replicated ones —
    /// see [`crate::sharded`]).
    Edist {
        /// Sweeps between move exchanges (1 = the paper's every-sweep
        /// schedule).
        sync_period: usize,
    },
    /// DC-SBP. Over shards it always runs the "no fine-tune" variant: the
    /// root never holds the whole graph.
    DcSbp,
}

impl ShardedBackend {
    /// `edist` or `dcsbp`, the driver's `--backend` name.
    pub fn name(self) -> &'static str {
        match self {
            ShardedBackend::Edist { .. } => "edist",
            ShardedBackend::DcSbp => "dcsbp",
        }
    }
}

/// One distributed run as every rank sees it.
pub(crate) struct RankJob<'a> {
    pub source: Source<'a>,
    pub backend: ShardedBackend,
    /// EDiSt's MCMC vertex ownership over [`Source::Graph`]. Shards carry
    /// their own, and DC-SBP always distributes round-robin (Alg. 3).
    pub ownership: OwnershipStrategy,
    /// Skip DC-SBP's root-side fine-tuning over [`Source::Graph`].
    pub skip_finetune: bool,
    pub cfg: &'a RunConfig,
    /// Deterministic fault injection; empty = none.
    pub fault: &'a FaultPlan,
}

/// What one rank (and, after the fold, the cluster) returns.
pub(crate) struct RankResult {
    pub outcome: RunOutcome,
    pub xstats: ExchangeStats,
    /// `Some` for [`Source::Shards`].
    pub ingest: Option<ShardIngestReport>,
}

/// Rank 0's sink on the thread cluster: hands its progress events to the
/// channel draining on the caller thread, and announces the cluster right
/// after the run's `Started` event. Every other rank — and every TCP
/// rank, which has no caller thread to stream to — reports to
/// [`NoProgress`].
struct EventRelay<'a> {
    sender: &'a Mutex<Sender<ProgressEvent>>,
    ranks: usize,
}

impl ProgressSink for EventRelay<'_> {
    fn on_event(&mut self, event: &ProgressEvent) {
        let sender = self.sender.lock().expect("event relay poisoned");
        // A dropped receiver just means the caller stopped listening.
        let _ = sender.send(event.clone());
        if matches!(event, ProgressEvent::Started { .. }) {
            let _ = sender.send(ProgressEvent::ClusterStarted { ranks: self.ranks });
        }
    }
}

/// One rank's whole run. This is the only place a communicator gets
/// fault-decorated: an injected kill/mangle then degrades the run
/// coordinately (every survivor returns best-so-far with `degraded` set)
/// on any transport, source and backend.
pub(crate) fn run_rank<C: Communicator>(
    comm: &C,
    job: &RankJob<'_>,
    progress: &mut dyn ProgressSink,
) -> RankResult {
    if job.fault.is_empty() {
        rank_body(comm, job, progress)
    } else {
        rank_body(&FaultComm::new(comm, job.fault.clone()), job, progress)
    }
}

fn rank_body<C: Communicator>(
    comm: &C,
    job: &RankJob<'_>,
    progress: &mut dyn ProgressSink,
) -> RankResult {
    match job.source {
        Source::Graph(graph) => {
            let ownership = match job.backend {
                ShardedBackend::Edist { .. } => job.ownership,
                ShardedBackend::DcSbp => OwnershipStrategy::Modulo,
            };
            let data = ReplicatedData::new(graph, ownership, comm);
            drive(comm, &data, job, progress, None)
        }
        Source::Shards(dir) => {
            // The ingest itself runs guarded: a rank whose shard file
            // fails to read (or that observes a peer's ingest failure)
            // poisons the schedule and returns a degraded empty outcome
            // instead of panicking the cluster.
            let dg = match guard_collectives(|| load_dist_graph(comm, dir)) {
                Ok(dg) => dg,
                Err(err) => {
                    return RankResult {
                        outcome: abort_empty(comm, &err),
                        xstats: ExchangeStats::default(),
                        ingest: Some(ShardIngestReport::default()),
                    }
                }
            };
            let data = ShardedData { dg: &dg };
            drive(comm, &data, job, progress, Some(*dg.report()))
        }
    }
}

/// Runs the job's backend over `data`: EDiSt is the golden search on
/// this rank's [`DistPlane`], DC-SBP its own driver. A failed collective
/// ends the search with best-so-far; this is where the rank then poisons
/// its peers and marks the outcome degraded (coordinated unwind).
fn drive<C: Communicator, D: EdistData>(
    comm: &C,
    data: &D,
    job: &RankJob<'_>,
    progress: &mut dyn ProgressSink,
    ingest: Option<ShardIngestReport>,
) -> RankResult {
    let (outcome, xstats) = match job.backend {
        ShardedBackend::Edist { sync_period } => {
            let plane = DistPlane::new(comm, data);
            let (mut outcome, error) = golden_search(&plane, None, job.cfg, sync_period, progress);
            if let Some(err) = error {
                outcome.degraded = Some(abort_schedule(comm, &err));
            }
            (outcome, plane.xstats())
        }
        ShardedBackend::DcSbp => {
            let outcome = dcsbp_driver(comm, data, job.cfg, job.skip_finetune, progress);
            (outcome, ExchangeStats::default())
        }
    };
    RankResult {
        outcome,
        xstats,
        ingest,
    }
}

/// Runs `job` on `ranks` simulated ranks, each with `1 / ranks` of the
/// calling thread's pool width. The cluster runs on its own
/// scoped thread while the calling thread drains rank 0's events into
/// `progress`, so callbacks fire live (not after the run). Cancellation
/// flows the other way: rank 0 reads `job.cfg.cancel` and *broadcasts* it
/// at every check point, so all ranks observe the same decision at the
/// same collective and the schedule never desynchronizes.
pub(crate) fn run_thread_cluster(
    ranks: usize,
    cost: CostModel,
    job: &RankJob<'_>,
    progress: &mut dyn ProgressSink,
) -> RankResult {
    let (tx, rx) = std::sync::mpsc::channel::<ProgressEvent>();
    // Co-resident ranks share the caller's pool width instead of each
    // fanning out at full width (results are thread-count invariant).
    let width = (sbp_core::current_num_threads() / ranks).max(1);
    let out = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let relay_tx = Mutex::new(tx);
            ThreadCluster::run(ranks, cost, |comm: &ThreadComm| {
                sbp_core::with_threads(width, || {
                    if comm.rank() == 0 {
                        let sender = &relay_tx;
                        run_rank(comm, job, &mut EventRelay { sender, ranks })
                    } else {
                        run_rank(comm, job, &mut NoProgress)
                    }
                })
            })
        });
        // Live-drain until every sender is gone (i.e. the cluster ended).
        for event in rx.iter() {
            progress.on_event(&event);
        }
        handle.join().unwrap_or_else(|e| resume_unwind(e))
    });
    fold_ranks(out)
}

/// Folds the per-rank results into rank 0's, with the cluster-wide facts
/// attached as a [`ClusterReport`].
fn fold_ranks(out: ClusterOutcome<RankResult>) -> RankResult {
    let mut report = ClusterReport::from_outcome(&out);
    let mut cascade = None;
    for rank in &out.ranks {
        let r = &rank.result;
        // Move-exchange accounting is summed over every rank, like the
        // byte counters the report already carries.
        report.move_bytes_raw += r.xstats.move_bytes_raw;
        report.move_bytes_encoded += r.xstats.move_bytes_encoded;
        // The drivers read their clocks through the (possibly decorated)
        // communicator, so injected skew shows up in the per-rank
        // outcomes and not in the raw cluster records.
        report.makespan = report.makespan.max(r.outcome.virtual_seconds);
        // A degraded peer is a cluster-wide fact even when rank 0's own
        // schedule happened to complete before the failure could reach
        // it (the tail of a schedule can be all root-side broadcasts).
        cascade = cascade.or(r.outcome.degraded);
    }
    let mut result = out
        .ranks
        .into_iter()
        .next()
        .expect("at least one rank")
        .result;
    result.outcome.degraded = result.outcome.degraded.or(cascade);
    result.outcome.virtual_seconds = report.makespan;
    result.outcome.cluster = Some(report);
    result
}

/// Runs a sharded-ingest cluster over the `.sbps` directory `dir`: one
/// simulated rank per shard, each loading only its own shard (the ingest
/// collectives are part of the run and show up in the returned
/// [`ClusterReport`]). Rank 0's progress events stream to `progress`
/// live; `cfg.cancel` is honoured at the same checkpoints as over a
/// replicated graph.
///
/// `header` must come from [`sbp_graph::shard::validate_shard_dir`] on
/// the same `dir` — callers always need it anyway (to pick rank counts
/// and reject backend mismatches before spawning anything), so the
/// directory is scanned exactly once per run instead of once per layer.
/// A shard file that disappears or mutates *between* validation and the
/// per-rank load degrades the run
/// ([`sbp_core::run::DegradedReason::ShardLoadFailure`] on the detecting
/// rank) via the coordinated unwind in [`crate::error`] — it never
/// panics the cluster.
///
/// `fault` injects a deterministic fault plan (see [`crate::fault`]);
/// pass [`FaultPlan::none`] for a clean run.
///
/// Returns the rank-identical outcome plus the ingest report.
pub fn run_sharded(
    dir: &Path,
    header: &ShardHeader,
    backend: ShardedBackend,
    cost: CostModel,
    cfg: &RunConfig,
    fault: &FaultPlan,
    progress: &mut dyn ProgressSink,
) -> (RunOutcome, ShardIngestReport) {
    let job = RankJob {
        source: Source::Shards(dir),
        backend,
        ownership: header.strategy,
        skip_finetune: true,
        cfg,
        fault,
    };
    let result = run_thread_cluster(header.shard_count, cost, &job, progress);
    let ingest = result.ingest.expect("sharded ranks report their ingest");
    (result.outcome, ingest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_graph::fixtures::two_cliques;

    /// Every rank of the SPMD program returns the same result — the
    /// thread runner keeps only rank 0's, so check them all here.
    #[test]
    fn all_ranks_return_identical_results() {
        let graph = two_cliques(8);
        let cfg = RunConfig::default();
        for backend in [
            ShardedBackend::Edist { sync_period: 1 },
            ShardedBackend::DcSbp,
        ] {
            let job = RankJob {
                source: Source::Graph(&graph),
                backend,
                ownership: OwnershipStrategy::default(),
                skip_finetune: false,
                cfg: &cfg,
                fault: &FaultPlan::none(),
            };
            let out = ThreadCluster::run(4, CostModel::zero(), |comm: &ThreadComm| {
                run_rank(comm, &job, &mut NoProgress).outcome
            });
            let first = &out.ranks[0].result;
            assert_eq!(first.assignment.len(), 16, "{backend:?}");
            for rank in &out.ranks {
                assert_eq!(rank.result.assignment, first.assignment, "{backend:?}");
                assert_eq!(
                    rank.result.description_length.to_bits(),
                    first.description_length.to_bits(),
                    "{backend:?}"
                );
            }
        }
    }
}
