//! One measured rep, run as a **fresh child process** of the bench
//! binary (`edist-bench rep <kind> …`).
//!
//! A CLI user pays pool start-up, `lntab` initialisation and mmap
//! faults on every run, so they belong inside the timing: the parent
//! times spawn → exit, and the child only reads the generated files,
//! calls the public library API, writes its assignment, and prints one
//! JSON report line (including its own `VmHWM`).

use crate::args::Args;
use crate::calib::{speed_factor, Calibrator};
use crate::check::{assignment_hash, trajectory_hash};
use crate::json::{hex, num, nums, obj, text, Value};
use crate::stats::{median, reportable_percentile};
use crate::trace::{write_jsonl, Tracer};
use crate::workload::{write_labels, RANKS};
use edist::core::auto_picks_dense;
use edist::dist::{run_tcp_rank, TcpSource};
use edist::graph::io::load_graph;
use edist::graph::EdgeDelta;
use edist::metrics::MetricValue;
use edist::mpi::TcpConfig;
use edist::prelude::*;
use edist::serve::protocol::RepartitionMode;
use edist::serve::serve;
use std::path::PathBuf;
use std::time::Instant;

/// The partition result in the shape every backend can fill.
struct Solved {
    assignment: Vec<u32>,
    num_blocks: usize,
    dl: f64,
    dl_norm: f64,
    iterations: Vec<IterationStat>,
    degraded: bool,
    cancelled: bool,
    cluster: Option<ClusterReport>,
    ingest: Option<ShardIngestReport>,
    total_edge_weight: i64,
}

/// The sparse twins' configuration: EDiSt's intra-rank sweeps are batch
/// sweeps, the strategy under which every rank count is bit-identical.
fn batch_config(seed: u64) -> SbpConfig {
    SbpConfig {
        strategy: McmcStrategy::Batch,
        seed,
        ..SbpConfig::default()
    }
}

fn ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 if unreadable.
fn vm_hwm_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

fn counter(snap: &edist::metrics::Snapshot, name: &str) -> f64 {
    match snap.metrics.get(name) {
        Some(MetricValue::Counter(n)) => *n as f64,
        _ => 0.0,
    }
}

/// `(sum, count)` of a histogram.
fn histogram(snap: &edist::metrics::Snapshot, name: &str) -> (f64, f64) {
    match snap.metrics.get(name) {
        Some(MetricValue::Histogram { sum, count, .. }) => (*sum, *count as f64),
        _ => (0.0, 0.0),
    }
}

/// The solver/pool counters of this process's metrics plane.
fn plane_counters() -> Value {
    let snap = edist::metrics::snapshot();
    let (dispatch_sum, dispatch_n) = histogram(&snap, "sbp_pool_dispatch_seconds");
    obj([
        (
            "iterations",
            num(counter(&snap, "sbp_solver_iterations_total")),
        ),
        ("sweeps", num(counter(&snap, "sbp_solver_sweeps_total"))),
        (
            "proposals",
            num(counter(&snap, "sbp_solver_proposals_total")),
        ),
        ("moves", num(counter(&snap, "sbp_solver_moves_total"))),
        (
            "merge_wall_s",
            num(histogram(&snap, "sbp_solver_merge_wall_seconds").0),
        ),
        (
            "mcmc_wall_s",
            num(histogram(&snap, "sbp_solver_mcmc_wall_seconds").0),
        ),
        (
            "pool_batches",
            num(counter(&snap, "sbp_pool_batches_total")),
        ),
        ("pool_dispatch_s", num(dispatch_sum)),
        ("pool_dispatches", num(dispatch_n)),
    ])
}

/// Entry point of `edist-bench rep <kind> …`; prints the report line.
pub fn rep_main(args: &Args, origin: Instant) -> Result<(), String> {
    let kind = args
        .positional
        .get(1)
        .ok_or("rep: missing kind")?
        .to_string();
    let report = match kind.as_str() {
        "serve_warm" => serve_rep(args)?,
        "replay" => crate::replay::replay_rep(args)?,
        _ => partition_rep(&kind, args, origin)?,
    };
    println!("{report}");
    Ok(())
}

/// Runs one partition rep of `kind` and returns its report.
fn partition_rep(kind: &str, args: &Args, origin: Instant) -> Result<Value, String> {
    let seed: u64 = args.num("seed", 0)?;
    let out = PathBuf::from(args.require("out")?);
    let trace_path = args.get("trace").map(PathBuf::from);
    let rep_index: usize = args.num("rep", 0)?;
    // Span 0 is the root `rep`; its end is set once the rep is done.
    let mut tracer = trace_path.as_ref().map(|_| {
        let mut t = Tracer::new(origin);
        t.push("rep", 0, 0, None);
        t
    });
    let rank: usize = args.num("rank", 0)?;

    let mut load_s = 0.0;
    let run_start;
    let run_end;
    let solved = match kind {
        // `batch_single` is the traced run's exactness cross-check: one
        // single-node `Backend::Batch` solve of the sparse graph.
        "single_challenge" | "batch_single" => {
            let path = PathBuf::from(args.require("graph")?);
            let t = ns(origin);
            let graph =
                load_graph(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
            load_s = (ns(origin) - t) as f64 * 1e-9;
            if let Some(tr) = tracer.as_mut() {
                tr.push("graph.load", t, ns(origin), Some(0));
            }
            let mut p = Partitioner::on(&graph).seed(seed);
            if kind == "batch_single" {
                p = p.backend(Backend::Batch);
            }
            if let Some(tr) = tracer.as_mut() {
                p = p.progress(move |e| tr.on_event(e));
            }
            run_start = ns(origin);
            let run = p.run().map_err(|e| format!("{kind}: {e}"))?;
            run_end = ns(origin);
            let dl_norm = run.dl_norm(&graph);
            solved_from_run(run, dl_norm, graph.total_edge_weight())
        }
        "edist_thread_sparse" => {
            let dir = PathBuf::from(args.require("shards")?);
            let mut p = Partitioner::on_sharded(&dir).config(batch_config(seed));
            if let Some(tr) = tracer.as_mut() {
                p = p.progress(move |e| tr.on_event(e));
            }
            run_start = ns(origin);
            let run = p.run().map_err(|e| format!("{kind}: {e}"))?;
            run_end = ns(origin);
            let dl_norm = run
                .dl_norm_sharded()
                .ok_or("sharded run carried no ingest report")?;
            let e = run.ingest.map_or(0, |i| i.total_edge_weight);
            solved_from_run(run, dl_norm, e)
        }
        "edist_tcp_sparse" => {
            let dir = PathBuf::from(args.require("shards")?);
            let port: u16 = args.num("port", 0)?;
            let session: u64 = args.num("session", 0)?;
            let tcp = TcpConfig::new(session, rank, RANKS, format!("127.0.0.1:{port}"));
            let cfg = RunConfig::from_sbp(batch_config(seed));
            run_start = ns(origin);
            let run = run_tcp_rank(
                &tcp,
                TcpSource::Shards(&dir),
                ShardedBackend::Edist { sync_period: 1 },
                &cfg,
                &FaultPlan::none(),
            )
            .map_err(|e| format!("{kind} rank {rank}: {e}"))?;
            run_end = ns(origin);
            let ingest = run.ingest.ok_or("TCP shard run carried no ingest report")?;
            let o = run.outcome;
            Solved {
                dl_norm: normalized_dl(
                    o.description_length,
                    ingest.num_vertices,
                    ingest.total_edge_weight,
                ),
                assignment: o.assignment,
                num_blocks: o.num_blocks,
                dl: o.description_length,
                iterations: o.iterations,
                degraded: o.degraded.is_some(),
                cancelled: o.cancelled,
                cluster: o.cluster,
                ingest: Some(ingest),
                total_edge_weight: ingest.total_edge_weight,
            }
        }
        other => return Err(format!("rep: unknown kind '{other}'")),
    };

    // Only rank 0 of a TCP cluster writes the (rank-identical) result.
    let write_start = ns(origin);
    if rank == 0 {
        write_labels(&out, &solved.assignment)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
    }
    let write_end = ns(origin);

    let mut fields = vec![
        ("assign_hash", hex(assignment_hash(&solved.assignment))),
        ("traj_hash", hex(trajectory_hash(&solved.iterations))),
        ("dl_bits", hex(solved.dl.to_bits())),
        ("dl_norm", num(solved.dl_norm)),
        ("blocks", num(solved.num_blocks as f64)),
        ("degraded", Value::Bool(solved.degraded)),
        ("cancelled", Value::Bool(solved.cancelled)),
        ("load_s", num(load_s)),
        ("solve_s", num((run_end - run_start) as f64 * 1e-9)),
        ("write_s", num((write_end - write_start) as f64 * 1e-9)),
    ];
    if let Some(c) = solved.cluster {
        fields.push((
            "cluster",
            obj([
                ("makespan", num(c.makespan)),
                ("collectives", num(c.collectives as f64)),
                ("bytes_total", num(c.total_bytes as f64)),
                ("bytes_max_rank", num(c.max_rank_bytes as f64)),
                ("move_bytes_raw", num(c.move_bytes_raw as f64)),
                ("move_bytes_encoded", num(c.move_bytes_encoded as f64)),
            ]),
        ));
    }
    if let Some(i) = solved.ingest {
        fields.push((
            "ingest",
            obj([
                ("cut_arcs", num(i.total_cut_arcs as f64)),
                ("max_rank_local_arcs", num(i.max_rank_local_arcs as f64)),
            ]),
        ));
    }
    if let (Some(mut tr), Some(path)) = (tracer, trace_path) {
        let started = tr.started_ns().unwrap_or(run_start);
        let finished = tr.finished_ns().unwrap_or(run_end);
        tr.push("api.prologue", run_start, started, Some(0));
        tr.close_solve(Some(0));
        tr.push("api.epilogue", finished, run_end, Some(0));
        tr.push("api.write", write_start, write_end, Some(0));
        let end = ns(origin);
        tr.set_end(0, end);
        let top: f64 = tr
            .spans()
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.seconds())
            .sum();
        let sweep_s = tr.durations("sweep[");
        let dense_s: f64 = solved
            .iterations
            .iter()
            .enumerate()
            .filter(|(_, it)| auto_picks_dense(it.num_blocks, solved.total_edge_weight))
            .map(|(i, _)| tr.total_seconds(&format!("iteration[{i}]")))
            .sum();
        fields.push((
            "trace",
            obj([
                ("child_wall_s", num(end as f64 * 1e-9)),
                ("attributed_s", num(top)),
                ("prologue_s", num((started - run_start) as f64 * 1e-9)),
                ("epilogue_s", num((run_end - finished) as f64 * 1e-9)),
                ("merge_s", num(tr.total_seconds("merge["))),
                ("mcmc_s", num(tr.total_seconds("mcmc["))),
                ("sweep_ms_p50", num(median(&sweep_s) * 1e3)),
                ("dense_s", num(dense_s)),
            ]),
        ));
        write_jsonl(&path, tr.spans(), rep_index)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    fields.push(("plane", plane_counters()));
    fields.push(("hwm_kb", num(vm_hwm_kb())));
    Ok(obj(fields))
}

fn solved_from_run(run: Run, dl_norm: f64, total_edge_weight: i64) -> Solved {
    Solved {
        degraded: run.degraded.is_some(),
        cancelled: run.cancelled,
        assignment: run.assignment,
        num_blocks: run.num_blocks,
        dl: run.description_length,
        dl_norm,
        iterations: run.iterations,
        cluster: run.cluster,
        ingest: run.ingest,
        total_edge_weight,
    }
}

// ------------------------------------------------------------ serve_warm

/// SplitMix64: the benchmark's own input generator (`serve_warm` deltas
/// and probes, the replay's seeded move lists).
pub(crate) struct SplitMix(pub(crate) u64);

impl SplitMix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// ±1 weight deltas per `Ingest` (half fresh +1, half −1 undoing the
/// previous round's): the one-hop dirty set is then ≈ 1/3 of V.
const DELTAS_PER_ROUND: usize = 8;
/// `Membership` probes after every warm round.
const MEMBERSHIPS_PER_ROUND: usize = 50;
/// `Stats` probes after every warm round.
const STATS_PER_ROUND: usize = 5;
/// Requests the client sends per round (`Ingest` + `Repartition` + probes).
pub const REQUESTS_PER_ROUND: usize = 2 + MEMBERSHIPS_PER_ROUND + STATS_PER_ROUND;
/// Vertex ids per `Membership` request.
const MEMBERSHIP_IDS: usize = 64;
/// Warm rounds between two calibration readings of the client.
const ROUNDS_PER_CALIBRATION: usize = 32;

/// One daemon session: cold start-up, then `--rounds` closed-loop rounds
/// of `Ingest` + `Repartition{Warm}` + membership and stats probes from
/// one client over a unix socket.
fn serve_rep(args: &Args) -> Result<Value, String> {
    let seed: u64 = args.num("seed", 0)?;
    let rounds: usize = args
        .require("rounds")?
        .parse()
        .map_err(|_| "bad value for --rounds".to_string())?;
    let cold_check = args.flag("cold-check");
    let graph_path = PathBuf::from(args.require("graph")?);
    let out = PathBuf::from(args.require("out")?);
    // Relative on purpose: a unix socket path is limited to ~100 bytes
    // and the parent starts this process inside the instance directory.
    let listen = Listen::Unix(PathBuf::from("daemon.sock"));

    // The client calibrates in-process (the daemon is idle while it
    // does), so each block of rounds is normalised by readings taken
    // within a second of it.
    let mut cal = Calibrator::new(1);
    let mut load_s = 0.0;
    let (started, cold_start_raw_s, cold_factor) = cal.around(|| {
        let t = Instant::now();
        let graph = load_graph(&graph_path)
            .map_err(|e| format!("loading {}: {e}", graph_path.display()))?;
        load_s = t.elapsed().as_secs_f64();
        let arcs: Vec<(u32, u32)> = graph.arcs().map(|(s, d, _)| (s, d)).collect();
        let options = ServerOptions {
            seed,
            ..ServerOptions::default()
        };
        Server::new(graph, options, default_registry())
            .map(|server| (server, arcs))
            .map_err(|e| format!("server: {e}"))
    });
    let (mut server, arcs) = started?;
    let n = server.graph().num_vertices();

    let mut rng = SplitMix(seed ^ 0x5e27_e000);
    let mut session = Session {
        warm_round_s: Vec::new(),
        warm_round_raw_s: Vec::new(),
        factors: vec![cold_factor],
        ingest_s: Vec::new(),
        membership_s: Vec::new(),
        stats_s: Vec::new(),
        swept: Vec::new(),
        requests: 0,
        failed: 0,
        first_error: None,
    };
    let mut warm_dl = f64::NAN;
    let mut warm_blocks = 0usize;
    let mut warm_labels: Vec<u32> = Vec::new();
    let mut final_labels: Vec<u32> = Vec::new();
    let mut cold: Option<(f64, f64)> = None; // (seconds, dl)

    let served = std::thread::scope(|scope| -> Result<(), String> {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let server_ref = &mut server;
        let listen_ref = &listen;
        let daemon = scope.spawn(move || {
            serve(server_ref, listen_ref, move |_| {
                let _ = ready_tx.send(());
            })
        });
        let client_result = (|| -> Result<(), String> {
            ready_rx
                .recv()
                .map_err(|_| "daemon stopped before it was listening".to_string())?;
            let mut client = Client::connect(&listen).map_err(|e| format!("connect: {e}"))?;
            // +1 on a fresh arc sample, −1 on the previous round's sample:
            // structure-preserving churn that never drives a weight < 1.
            let mut previous: Vec<(u32, u32)> = Vec::new();
            let mut reading = cal.measure();
            for round in 0..rounds {
                let fresh: Vec<(u32, u32)> = (0..DELTAS_PER_ROUND / 2)
                    .map(|_| arcs[rng.below(arcs.len())])
                    .collect();
                let deltas: Vec<EdgeDelta> = fresh
                    .iter()
                    .map(|&(src, dst)| EdgeDelta { src, dst, delta: 1 })
                    .chain(previous.iter().map(|&(src, dst)| EdgeDelta {
                        src,
                        dst,
                        delta: -1,
                    }))
                    .collect();
                previous = fresh;
                let t0 = Instant::now();
                let ack = session.call(&mut client, &Request::Ingest(deltas));
                let t1 = Instant::now();
                session.expect(matches!(ack, Some(Response::IngestAck { .. })), "Ingest");
                let done = session.call(
                    &mut client,
                    &Request::Repartition {
                        mode: RepartitionMode::Warm,
                        backend: String::new(),
                    },
                );
                let t2 = Instant::now();
                session.ingest_s.push((t1 - t0).as_secs_f64());
                session.warm_round_raw_s.push((t2 - t0).as_secs_f64());
                match done {
                    Some(Response::RepartitionDone {
                        num_blocks,
                        dl,
                        swept_vertices,
                        ..
                    }) => {
                        warm_dl = dl;
                        warm_blocks = num_blocks as usize;
                        session.swept.push(swept_vertices as f64 / n as f64);
                    }
                    _ => session.expect(false, "Repartition{Warm}"),
                }
                for _ in 0..MEMBERSHIPS_PER_ROUND {
                    let start = rng.below(n.saturating_sub(MEMBERSHIP_IDS).max(1));
                    let ids: Vec<u32> = (start..(start + MEMBERSHIP_IDS).min(n))
                        .map(|v| v as u32)
                        .collect();
                    let want = ids.len();
                    let t = Instant::now();
                    let reply = session.call(&mut client, &Request::Membership(ids));
                    session.membership_s.push(t.elapsed().as_secs_f64());
                    let ok = matches!(&reply, Some(Response::Membership(l))
                        if l.len() == want && l.iter().all(|&b| (b as usize) < warm_blocks));
                    session.expect(ok, "Membership");
                }
                for _ in 0..STATS_PER_ROUND {
                    let t = Instant::now();
                    let reply = session.call(&mut client, &Request::Stats);
                    session.stats_s.push(t.elapsed().as_secs_f64());
                    let ok = matches!(&reply, Some(Response::Stats(st))
                        if st.num_blocks as usize == warm_blocks
                            && st.pending_deltas == 0
                            && st.degraded == 0
                            && st.dl.to_bits() == warm_dl.to_bits());
                    session.expect(ok, "Stats");
                }
                if (round + 1) % ROUNDS_PER_CALIBRATION == 0 || round + 1 == rounds {
                    let next = cal.measure();
                    session.normalise_block(speed_factor(reading, next));
                    reading = next;
                }
            }
            warm_labels = session.all_labels(&mut client, n);
            final_labels = warm_labels.clone();
            if cold_check {
                let t = Instant::now();
                let reply = session.call(
                    &mut client,
                    &Request::Repartition {
                        mode: RepartitionMode::Cold,
                        backend: String::new(),
                    },
                );
                match reply {
                    Some(Response::RepartitionDone { dl, .. }) => {
                        cold = Some((t.elapsed().as_secs_f64(), dl));
                    }
                    _ => session.expect(false, "Repartition{Cold}"),
                }
                final_labels = session.all_labels(&mut client, n);
            }
            let bye = session.call(&mut client, &Request::Shutdown);
            session.expect(matches!(bye, Some(Response::ShutdownAck)), "Shutdown");
            Ok(())
        })();
        if client_result.is_err() {
            // The daemon may still be in `accept`; a throw-away client
            // that asks it to stop lets the scope join.
            if let Ok(mut c) = Client::connect(&listen) {
                let _ = c.request(&Request::Shutdown);
            }
        }
        let daemon_result = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        client_result?;
        daemon_result.map_err(|e| format!("serve: {e}"))
    });
    served?;

    // Replies over the wire must be the server's own in-process state.
    let membership_matches = final_labels == server.assignment();
    let e_final = server.graph().total_edge_weight();
    write_labels(&out, &warm_labels).map_err(|e| format!("writing {}: {e}", out.display()))?;

    let us = |xs: &[f64], p: f64| reportable_percentile(xs, p) * 1e6;
    let mut fields = vec![
        ("load_s", num(load_s)),
        ("cold_start_s", num(cold_start_raw_s * cold_factor)),
        ("cold_start_raw_s", num(cold_start_raw_s)),
        ("warm_round_s", nums(&session.warm_round_s)),
        ("warm_round_raw_s", nums(&session.warm_round_raw_s)),
        ("speed_factor", num(median(&session.factors))),
        ("ingest_us_p50", num(us(&session.ingest_s, 50.0))),
        ("membership_us_p50", num(us(&session.membership_s, 50.0))),
        ("membership_us_p99", num(us(&session.membership_s, 99.0))),
        ("membership_n", num(session.membership_s.len() as f64)),
        ("stats_us_p50", num(us(&session.stats_s, 50.0))),
        ("dirty_share", num(median(&session.swept))),
        ("requests", num(session.requests as f64)),
        ("failed_requests", num(session.failed as f64)),
        ("membership_matches", Value::Bool(membership_matches)),
        ("blocks", num(warm_blocks as f64)),
        ("dl", num(warm_dl)),
        ("dl_bits", hex(warm_dl.to_bits())),
        ("dl_norm", num(normalized_dl(warm_dl, n, e_final))),
        ("assign_hash", hex(assignment_hash(&warm_labels))),
        ("plane", plane_counters()),
    ];
    if let Some(e) = &session.first_error {
        fields.push(("first_error", text(e.clone())));
    }
    if let Some((s, dl)) = cold {
        fields.push(("cold_repartition_s", num(s)));
        fields.push(("cold_dl", num(dl)));
    }
    fields.push(("hwm_kb", num(vm_hwm_kb())));
    Ok(obj(fields))
}

/// Per-session request accounting and latency samples.
struct Session {
    /// Speed-normalised round times (filled a calibration block at a time).
    warm_round_s: Vec<f64>,
    warm_round_raw_s: Vec<f64>,
    factors: Vec<f64>,
    ingest_s: Vec<f64>,
    membership_s: Vec<f64>,
    stats_s: Vec<f64>,
    swept: Vec<f64>,
    requests: usize,
    failed: usize,
    first_error: Option<String>,
}

impl Session {
    /// Sends one request; a transport error or a typed `Error` reply
    /// counts as a failed request and yields `None`.
    fn call(&mut self, client: &mut Client, req: &Request) -> Option<Response> {
        self.requests += 1;
        match client.request(req) {
            Ok(Response::Error { code, message }) => {
                self.fail(format!("error reply {code}: {message}"));
                None
            }
            Ok(resp) => Some(resp),
            Err(e) => {
                self.fail(format!("request failed: {e}"));
                None
            }
        }
    }

    /// Counts the last request as failed when its reply was wrong.
    fn expect(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(format!("unexpected reply to {what}"));
        }
    }

    /// Normalises the raw rounds recorded since the last call by `factor`.
    fn normalise_block(&mut self, factor: f64) {
        let done = self.warm_round_s.len();
        self.warm_round_s
            .extend(self.warm_round_raw_s[done..].iter().map(|s| s * factor));
        self.factors.push(factor);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    /// The whole assignment, fetched `MEMBERSHIP_IDS` vertices at a time.
    fn all_labels(&mut self, client: &mut Client, n: usize) -> Vec<u32> {
        let mut labels = Vec::with_capacity(n);
        for start in (0..n).step_by(MEMBERSHIP_IDS) {
            let ids: Vec<u32> = (start..(start + MEMBERSHIP_IDS).min(n))
                .map(|v| v as u32)
                .collect();
            match self.call(client, &Request::Membership(ids)) {
                Some(Response::Membership(l)) => labels.extend(l),
                _ => self.expect(false, "Membership"),
            }
        }
        labels
    }
}
