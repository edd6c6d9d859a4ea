//! The one distributed run path: every {thread, TCP} × {replicated,
//! sharded} × {EDiSt, DC-SBP} run is assembled here and nowhere else
//! (source → rank body → search / driver → fold; diagram in the crate
//! docs).
//!
//! A run is described once, by a [`DistSolver`], and launched over a
//! [`Source`]. `run_rank` is the SPMD program of one rank, generic over
//! the [`Communicator`]: the thread simulator (`run_thread_cluster`,
//! behind [`DistSolver::run`]) and a real TCP process
//! ([`crate::run_tcp_rank`]) execute it verbatim, so their collective
//! schedules cannot drift apart — which is what EDiSt's exactness claim
//! rests on.

use crate::dcsbp::dcsbp_driver;
use crate::distgraph::{load_dist_graph, ShardIngestReport};
use crate::edist::{DistPlane, EdistData, ReplicatedData};
use crate::error::{abort_empty, abort_schedule, guard_collectives};
use crate::exchange::ExchangeStats;
use crate::fault::FaultComm;
use crate::sharded::ShardedData;
use crate::solver::DistSolver;
use sbp_core::run::{NoProgress, ProgressEvent, ProgressSink, RunConfig, RunOutcome};
use sbp_core::sbp::golden_search;
use sbp_graph::{Graph, OwnershipStrategy};
use sbp_mpi::thread::ThreadComm;
use sbp_mpi::{ClusterOutcome, ClusterReport, Communicator, CostModel, ThreadCluster};
use std::panic::resume_unwind;
use std::path::Path;
use std::sync::mpsc::Sender;
use std::sync::Mutex;

/// Where a rank reads its share of the graph from.
#[derive(Clone, Copy)]
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

/// One rank's whole run of `solver` over `source`. This is the only
/// place a communicator gets fault-decorated: an injected kill/mangle
/// then degrades the run coordinately (every survivor returns
/// best-so-far with `degraded` set) on any transport, source and backend.
///
/// Over [`Source::Shards`] the solver's `ownership` and `skip_finetune`
/// have no effect: the shards carry their own ownership, and without the
/// whole graph DC-SBP has nothing to fine-tune on.
pub(crate) fn run_rank<C: Communicator>(
    comm: &C,
    solver: &DistSolver,
    source: Source<'_>,
    cfg: &RunConfig,
    progress: &mut dyn ProgressSink,
) -> RankResult {
    if solver.fault.is_empty() {
        rank_body(comm, solver, source, cfg, progress)
    } else {
        let comm = FaultComm::new(comm, solver.fault.clone());
        rank_body(&comm, solver, source, cfg, progress)
    }
}

fn rank_body<C: Communicator>(
    comm: &C,
    solver: &DistSolver,
    source: Source<'_>,
    cfg: &RunConfig,
    progress: &mut dyn ProgressSink,
) -> RankResult {
    match source {
        Source::Graph(graph) => {
            let ownership = match solver.backend {
                ShardedBackend::Edist { .. } => solver.ownership,
                ShardedBackend::DcSbp => OwnershipStrategy::Modulo,
            };
            let data = ReplicatedData::new(graph, ownership, comm);
            drive(comm, &data, solver, cfg, progress, None)
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
            drive(comm, &data, solver, cfg, progress, Some(*dg.report()))
        }
    }
}

/// Runs the solver's backend over `data`: EDiSt is the golden search on
/// this rank's [`DistPlane`], DC-SBP its own driver. A failed collective
/// ends the search with best-so-far; this is where the rank then poisons
/// its peers and marks the outcome degraded (coordinated unwind).
fn drive<C: Communicator, D: EdistData>(
    comm: &C,
    data: &D,
    solver: &DistSolver,
    cfg: &RunConfig,
    progress: &mut dyn ProgressSink,
    ingest: Option<ShardIngestReport>,
) -> RankResult {
    let (outcome, xstats) = match solver.backend {
        ShardedBackend::Edist { sync_period } => {
            let plane = DistPlane::new(comm, data);
            let (mut outcome, error) = golden_search(&plane, None, cfg, sync_period, progress);
            if let Some(err) = error {
                outcome.degraded = Some(abort_schedule(comm, &err));
            }
            (outcome, plane.xstats())
        }
        ShardedBackend::DcSbp => {
            let outcome = dcsbp_driver(comm, data, cfg, solver.skip_finetune, progress);
            (outcome, ExchangeStats::default())
        }
    };
    RankResult {
        outcome,
        xstats,
        ingest,
    }
}

/// Runs `solver` over `source` on `solver.ranks` (at least one)
/// simulated ranks, each with `1 / ranks` of the calling thread's pool
/// width, their virtual clocks on the HDR-100 interconnect model. The
/// cluster runs on its own scoped thread while the calling thread drains
/// rank 0's events into `progress`, so callbacks fire live (not after the
/// run). Cancellation flows the other way: rank 0 reads `cfg.cancel` and
/// *broadcasts* it at every check point, so all ranks observe the same
/// decision at the same collective and the schedule never desynchronizes.
pub(crate) fn run_thread_cluster(
    solver: &DistSolver,
    source: Source<'_>,
    cfg: &RunConfig,
    progress: &mut dyn ProgressSink,
) -> RankResult {
    let ranks = solver.ranks.max(1);
    let (tx, rx) = std::sync::mpsc::channel::<ProgressEvent>();
    // Co-resident ranks share the caller's pool width instead of each
    // fanning out at full width (results are thread-count invariant).
    let width = (sbp_core::current_num_threads() / ranks).max(1);
    let out = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let relay_tx = Mutex::new(tx);
            ThreadCluster::run(ranks, CostModel::hdr100(), |comm: &ThreadComm| {
                sbp_core::with_threads(width, || {
                    if comm.rank() == 0 {
                        let sender = &relay_tx;
                        let relay = &mut EventRelay { sender, ranks };
                        run_rank(comm, solver, source, cfg, relay)
                    } else {
                        run_rank(comm, solver, source, cfg, &mut NoProgress)
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

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_graph::fixtures::two_cliques;

    /// Every rank of the SPMD program returns the same result — the
    /// thread runner keeps only rank 0's, so check them all here, and
    /// that [`DistSolver::run`] hands back that result.
    #[test]
    fn all_ranks_return_identical_results() {
        let graph = two_cliques(8);
        let cfg = RunConfig::default();
        for backend in [
            ShardedBackend::Edist { sync_period: 1 },
            ShardedBackend::DcSbp,
        ] {
            let solver = DistSolver::new(backend, 4);
            let out = ThreadCluster::run(4, CostModel::zero(), |comm: &ThreadComm| {
                run_rank(comm, &solver, Source::Graph(&graph), &cfg, &mut NoProgress).outcome
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
            let (folded, ingest) = solver.run(Source::Graph(&graph), &cfg, &mut NoProgress);
            assert_eq!(folded.assignment, first.assignment, "{backend:?}");
            assert!(ingest.is_none(), "{backend:?}: a graph run reads no shards");
        }
    }
}
