//! One process = one rank: the real-cluster entrypoint over
//! [`sbp_mpi::TcpComm`].
//!
//! `run::run_rank` is already generic over [`Communicator`];
//! this module is the thin harness a real OS process runs: connect this
//! rank's [`TcpComm`], execute exactly the per-rank body the in-process
//! thread cluster executes, and attach a one-rank view of the
//! [`ClusterReport`]. Because EDiSt is exact, the *result* (assignment,
//! DL, trajectory) is bit-identical to a [`sbp_mpi::ThreadCluster`] run
//! with the same seed, backend, and rank count — only the
//! timing/byte-accounting side of the report differs (see
//! [`run_tcp_rank`] for the exact divergence).
//!
//! Fault handling is inherited unchanged: a peer process that dies
//! mid-run surfaces as a poisoned link inside a collective, the drivers'
//! coordinated unwind converts it into a degraded best-so-far outcome
//! ([`sbp_core::DegradedReason::RankFailure`]), and the bounded socket
//! read timeout guarantees the survivors return instead of hanging.

use crate::distgraph::ShardIngestReport;
use crate::fault::FaultPlan;
use crate::run::{run_rank, RankJob, RankResult, ShardedBackend};
use sbp_core::run::{NoProgress, RunConfig, RunOutcome};
use sbp_graph::OwnershipStrategy;
use sbp_mpi::{ClusterReport, Communicator, TcpComm, TcpConfig, TcpError};
use std::time::Instant;

/// Where one TCP rank reads its share of the graph from.
pub use crate::run::Source as TcpSource;

/// What [`run_tcp_rank`] returns: the rank-identical outcome with the
/// one-rank [`ClusterReport`] attached, plus the shard-ingest report
/// when the source was sharded.
pub struct TcpRun {
    /// The run result; bit-identical on every rank of the cluster
    /// (coordinated unwind keeps even degraded runs consistent).
    pub outcome: RunOutcome,
    /// Shard-ingest accounting — `Some` for [`TcpSource::Shards`].
    pub ingest: Option<ShardIngestReport>,
}

/// Runs this process's rank of a real multi-process cluster: performs
/// the TCP rendezvous described by `tcp`, executes the same per-rank
/// body the thread simulator runs, and returns the outcome.
///
/// The attached [`ClusterReport`] is necessarily a **one-rank view**: a
/// real process cannot observe its peers' counters without adding a
/// collective the simulator does not perform (which would break
/// schedule equivalence). Concretely, `collectives` / `total_bytes` /
/// `max_rank_bytes` cover this rank only, `makespan` is
/// `TcpComm::virtual_time` (the wall time elapsed since this rank
/// connected, not time spent on the wire), and `wall_seconds` spans
/// rendezvous through solve.
/// Tests therefore assert bit-identity of *results* across transports,
/// never of report counters.
///
/// `fault` decorates the TCP transport exactly as it does the thread
/// cluster's, so deterministic kill/mangle/delay plans exercise the
/// coordinated unwind over real sockets too — for both backends.
pub fn run_tcp_rank(
    tcp: &TcpConfig,
    source: TcpSource<'_>,
    backend: ShardedBackend,
    cfg: &RunConfig,
    fault: &FaultPlan,
) -> Result<TcpRun, TcpError> {
    let started = Instant::now();
    let comm = TcpComm::connect(tcp)?;
    let job = RankJob {
        source,
        backend,
        // The thread-backed `DistSolver`'s default; keeping it fixed
        // preserves bit-identity with `partition --backend edist` at the
        // same rank count.
        ownership: OwnershipStrategy::default(),
        skip_finetune: false,
        cfg,
        fault,
    };
    let RankResult {
        mut outcome,
        xstats,
        ingest,
    } = run_rank(&comm, &job, &mut NoProgress);
    let stats = comm.stats();
    let report = ClusterReport {
        makespan: outcome.virtual_seconds.max(comm.virtual_time()),
        collectives: stats.collectives,
        total_bytes: stats.bytes_sent + stats.bytes_received,
        max_rank_bytes: stats.bytes_sent,
        move_bytes_raw: xstats.move_bytes_raw,
        move_bytes_encoded: xstats.move_bytes_encoded,
        ranks: comm.size(),
        wall_seconds: started.elapsed().as_secs_f64(),
    };
    outcome.virtual_seconds = report.makespan;
    outcome.cluster = Some(report);
    Ok(TcpRun { outcome, ingest })
}
