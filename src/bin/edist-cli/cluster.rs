//! `partition --cluster tcp|tcp-local`: one rank of a real multi-process
//! cluster, and the launcher that runs a whole one on localhost. Both
//! end in the in-process paths' reporter, so a cluster's files equal the
//! thread simulator's at the same seed and rank count.

use crate::args::{flags, Args};
use crate::graphs::{graph_source, shard_header, GraphSource};
use crate::partition::{fault_plan, report_run, resolve_backend, sbp_config, IN_PROCESS};
use crate::sigint;
use edist::prelude::*;
use std::path::Path;
use std::time::Duration;

/// The flags of one rank of a hand-launched cluster, each headed by the
/// `--cluster` modes that take it; `tcp-local` picks `--rank`,
/// `--coordinator` and `--session` for its children itself.
pub const TCP: &str = "\
--rank I                  tcp: this process's rank, 0 binds the coordinator (required)
--coordinator HOST:PORT   tcp: where the ranks rendezvous (required)
--session N               tcp: id every rank of one cluster shares (default 0)
--tcp-timeout SECS        tcp, tcp-local: give up on a silent peer after SECS, at least 1 (default 120)
--handshake-timeout SECS  tcp, tcp-local: give up on the rendezvous after SECS, at least 1 (default 30)";

/// The flags a cluster refuses instead of ignoring: the golden-loop
/// snapshot, the metrics log and the progress stream are wired through
/// the in-process `Partitioner`, and sampling wraps a whole-graph solver.
pub fn in_process_only() -> impl Iterator<Item = &'static str> {
    flags(IN_PROCESS).map(|f| f.name).chain(["sample"])
}

fn refuse_in_process_flags(args: &Args) -> Result<(), String> {
    match in_process_only().find(|&flag| args.get(flag).is_some()) {
        Some(flag) => Err(format!(
            "--{flag} is not supported with --cluster tcp|tcp-local \
             (use the in-process --cluster thread)"
        )),
        None => Ok(()),
    }
}

/// `--handshake-timeout` and `--tcp-timeout`, each at least one second.
fn timeouts(args: &Args) -> Result<(Duration, Duration), String> {
    let handshake = args.positive("handshake-timeout", 30)?;
    let read = args.positive("tcp-timeout", 120)?;
    Ok((Duration::from_secs(handshake), Duration::from_secs(read)))
}

/// One rank of a real TCP cluster: rendezvous at `--coordinator`, run
/// the same per-rank body the thread simulator runs, report.
pub fn cmd_partition_tcp(args: &Args) -> Result<u8, String> {
    use edist::dist::{run_tcp_rank, TcpSource};
    use edist::mpi::TcpConfig;

    refuse_in_process_flags(args)?;
    let required = |key: &str| args.require(key).and_then(|_| args.num(key, 0usize));
    let (rank, ranks) = (required("rank")?, required("ranks")?);
    let coordinator = args.require("coordinator")?;
    let mut tcp = TcpConfig::new(args.num("session", 0u64)?, rank, ranks, coordinator);
    let (handshake, read) = timeouts(args)?;
    tcp.handshake_timeout = handshake;
    // The read timeout is the fault-tolerance backstop: a killed peer
    // never hangs a survivor longer than this.
    tcp.read_timeout = Some(read);

    let (backend, sync_period) = resolve_backend(args, "edist", ranks)?;
    let shard_count = |dir| shard_header(dir).map(|header| header.shard_count);
    let shards = args.get("sharded").map(shard_count).transpose()?;
    let (backend, _) = backend
        .distributed(sync_period, shards)
        .map_err(|e| e.to_string())?;
    let source = graph_source(args)?;
    let cfg = RunConfig::from_sbp(sbp_config(args)?);
    let _ = sigint::install(cfg.cancel.clone());

    let tcp_source = match &source {
        GraphSource::Mem(graph) => TcpSource::Graph(graph),
        GraphSource::Shards(dir) => TcpSource::Shards(Path::new(dir)),
    };
    let tcp_run = run_tcp_rank(&tcp, tcp_source, backend, &cfg, &fault_plan(args)?)
        .map_err(|e| format!("tcp cluster (rank {rank}): {e}"))?;
    let wall = tcp_run.outcome.cluster.map_or(0.0, |r| r.wall_seconds);
    let backend = format!("{}(ranks={ranks})+tcp", backend.name());
    let run = Run::from_outcome(backend, tcp_run.outcome, wall, tcp_run.ingest);
    report_run(args, &source, &run, Some(rank))
}

/// Launcher for a localhost TCP cluster: picks a free coordinator port
/// and a launch-unique session id, spawns one `--cluster tcp` child per
/// rank with the remaining flags passed through, and waits. Rank 0's
/// stdio is inherited (it prints the summary and the assignment);
/// other ranks' stdout is discarded, and per-rank output flags
/// (`--out`, `--trajectory-out`) stay with rank 0 so the children never
/// race on one file. The exit code is rank 0's,
/// unless a non-zero-rank child failed harder.
pub fn cmd_partition_tcp_local(args: &Args) -> Result<u8, String> {
    refuse_in_process_flags(args)?;
    // Refused once here, not by every child.
    let ranks: usize = args.num("ranks", 4usize)?;
    let (backend, sync_period) = resolve_backend(args, "edist", ranks)?;
    backend
        .distributed(sync_period, None)
        .map_err(|e| e.to_string())?;
    timeouts(args)?;
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))
        .map_err(|e| format!("picking a coordinator port: {e}"))?;
    let coordinator = listener
        .local_addr()
        .map_err(|e| format!("picking a coordinator port: {e}"))?
        .to_string();
    drop(listener);
    // Launch-unique session id so a stale rank from a previous launch
    // is rejected at the handshake instead of silently joining.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let session = nanos ^ ((std::process::id() as u64) << 32);
    let exe = std::env::current_exe().map_err(|e| format!("resolving own binary: {e}"))?;
    // The children share this machine: unless the user chose a width,
    // each gets `1 / ranks` of it instead of a full-width pool apiece.
    let child_width = std::env::var_os("SBP_THREADS").is_none().then(|| {
        let width = std::thread::available_parallelism().map_or(1, |n| n.get());
        (width / ranks).max(1)
    });

    let mut children = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("partition");
        for (key, value) in args.given() {
            // The launcher sets these itself below; a child refuses a
            // flag given twice.
            if matches!(key, "cluster" | "ranks") {
                continue;
            }
            if rank != 0 && matches!(key, "out" | "trajectory-out") {
                continue;
            }
            cmd.arg(format!("--{key}")).arg(value);
        }
        cmd.arg("--cluster")
            .arg("tcp")
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--ranks")
            .arg(ranks.to_string())
            .arg("--coordinator")
            .arg(&coordinator)
            .arg("--session")
            .arg(session.to_string());
        if let Some(width) = child_width {
            cmd.env("SBP_THREADS", width.to_string());
        }
        if rank != 0 {
            cmd.stdout(std::process::Stdio::null());
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning rank {rank}: {e}"))?;
        children.push((rank, child));
    }
    let mut code = 0u8;
    for (rank, mut child) in children {
        let status = child
            .wait()
            .map_err(|e| format!("waiting for rank {rank}: {e}"))?;
        // A signal-killed child has no code; report it as a hard error.
        let child_code = status.code().map(|c| c as u8).unwrap_or(1);
        // Rank 0's exit code wins; a failed other rank upgrades a clean 0.
        if rank == 0 || (child_code != 0 && code == 0) {
            code = child_code;
        }
    }
    Ok(code)
}
