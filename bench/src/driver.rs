//! The parent side: set up inputs, spawn measured reps as fresh child
//! processes, check their outputs, aggregate, print.
//!
//! Closed loop, one client everywhere: reps run strictly one after
//! another, and every child gets `ranks × SBP_THREADS ≤ nproc`.

use crate::calib::Calibrator;
use crate::check::{assignment_hash, judge, Limits, RepFacts};
use crate::json::{self, num, obj, text, Value};
use crate::rep::REQUESTS_PER_ROUND;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, Summary};
use crate::workload::{
    graph_seed, read_labels, setup_instance, solver_seed, Instance, Workload, RANKS,
};
use edist::prelude::nmi;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Input sets per traced run (each gets one untraced and one traced rep).
const TRACED_INSTANCES: usize = 3;
/// Daemon sessions per untraced `serve_warm` run: `setup_s` (which holds
/// the cold start-up solve, ±15 % from one trajectory to the next) is the
/// median over them.
const SERVE_SESSIONS: usize = 6;
/// Warm rounds per daemon session and second of `--seconds`.
const SERVE_ROUNDS_PER_SECOND: f64 = 4.0;

/// Reps of an untraced partition run: a fixed function of `--seconds`
/// (not a deadline), so quality metrics and counts repeat exactly for a
/// seed. One rep is sized to ≈2–2.5 s on the reference box, so
/// `0.4 × seconds` reps fill `--seconds`: 8 at the contract's 20 s.
///
/// Every rep gets an input set of its own (graph seed and solver seed
/// both move with the rep index): same-size graphs differ by ±10 % in E
/// and trajectories by as much again, and the median has to average
/// over both for two seeds' runs to agree. `setup_s` is the median of
/// as many set-ups.
fn partition_reps(seconds: f64) -> usize {
    ((0.4 * seconds).round() as usize).max(3)
}

/// What to run.
pub struct RunOptions {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Nominal measuring time; fixes the rep count.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// `bench/out`.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Reported {
    /// Unit string.
    pub unit: &'static str,
    /// Median with range and sample count.
    pub summary: Summary,
}

/// Everything one workload's run produced.
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Reps attempted (requests, for `serve_warm`).
    pub attempted: usize,
    /// Reps (requests) that failed a check.
    pub failed: usize,
    /// Why, for each failure and each violated cross-check.
    pub problems: Vec<String>,
    /// Metrics by name: the end-to-end set, or the per-layer set when
    /// traced.
    pub metrics: BTreeMap<String, Reported>,
    /// Raw (not speed-normalised) medians, for the human reader.
    pub notes: Vec<String>,
}

impl WorkloadResult {
    /// No failed rep and no violated cross-check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Metrics as `{name: {value, unit}}`, plus quartiles, range and `n`
    /// when `with_range`.
    fn metrics_obj(&self, with_range: bool) -> Value {
        let entries = self.metrics.iter().map(|(name, r)| {
            let mut entry = vec![("value", num(r.summary.median)), ("unit", text(r.unit))];
            if with_range {
                entry.push(("p25", num(r.summary.p25)));
                entry.push(("p75", num(r.summary.p75)));
                entry.push(("min", num(r.summary.min)));
                entry.push(("max", num(r.summary.max)));
                entry.push(("n", num(r.summary.n as f64)));
            }
            (name.as_str(), obj(entry))
        });
        obj(entries)
    }

    /// The driver-contract result line.
    pub fn result_line(&self) -> Value {
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", num(self.attempted.max(1) as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", self.metrics_obj(false)),
        ])
    }

    /// The richer `results.json` entry (quartiles, range, `n` per metric).
    pub fn results_entry(&self) -> Value {
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            (
                "problems",
                Value::Arr(self.problems.iter().map(|p| text(p.clone())).collect()),
            ),
            ("metrics", self.metrics_obj(true)),
        ])
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        for (name, r) in &self.metrics {
            let s = r.summary;
            println!(
                "{:<22} {:<30} {:>14.6} {:<6} (min {:.6}, max {:.6}, n={})",
                self.workload.name(),
                name,
                s.median,
                r.unit,
                s.min,
                s.max,
                s.n
            );
        }
        println!(
            "{:<22} attempted={} failed={} correct={}",
            self.workload.name(),
            self.attempted,
            self.failed,
            self.correct()
        );
        for n in &self.notes {
            println!("{:<22} note: {n}", self.workload.name());
        }
        for p in &self.problems {
            println!("{:<22} PROBLEM: {p}", self.workload.name());
        }
    }
}

// ------------------------------------------------------------ children

/// Cores the reps may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn spawn_rep(
    kind: &str,
    flags: &[(&str, String)],
    pool_width: usize,
    cwd: Option<&Path>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the bench binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("rep").arg(kind);
    for (key, value) in flags {
        cmd.arg(format!("--{key}")).arg(value);
    }
    if let Some(dir) = cwd {
        cmd.current_dir(dir);
    }
    cmd.env("SBP_THREADS", pool_width.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning rep {kind}: {e}"))
}

/// Waits for a rep child and parses the report on its last stdout line.
///
/// The inner `Err` is a **failed rep**: the child ran and exited non-zero
/// (the library call returned `Err`, or it panicked) or printed no
/// report. The outer `Err` is the harness itself failing (exit 2).
fn finish_rep(kind: &str, child: Child) -> Result<Result<Value, String>, String> {
    let output = child
        .wait_with_output()
        .map_err(|e| format!("waiting for rep {kind}: {e}"))?;
    if !output.status.success() {
        return Ok(Err(format!(
            "rep {kind} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    Ok(Value::parse(line).map_err(|e| format!("rep {kind} printed no report: {e:?}")))
}

fn path_flag(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// A loopback port that was free a moment ago.
fn free_port() -> Result<u16, String> {
    std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("finding a free port: {e}"))
}

/// A TCP session id no concurrent or earlier cluster on this host shares.
fn session_id(seed: u64, rep: usize) -> u64 {
    (u64::from(std::process::id()) << 32) ^ seed.rotate_left(17) ^ rep as u64
}

// ------------------------------------------------------ partition reps

/// One finished partition rep, checked.
struct RepOutcome {
    /// Spawn of the first process → exit of the last.
    wall_s: f64,
    /// Speed factor of the host around the rep (see `calib`).
    factor: f64,
    /// Max `VmHWM` over the rep's processes.
    hwm_mb: f64,
    /// Rank 0's (or the only process's) report.
    report: Value,
    /// Σ over processes, for the TCP twin's cluster counters.
    cluster_sum: Option<ClusterSum>,
    nmi: f64,
    /// `(assignment hash, DL bits, trajectory hash)`.
    identity: (String, String, String),
    verdict: Result<(), String>,
}

impl RepOutcome {
    /// A rep that produced no usable result; only its verdict is read.
    fn failed(wall_s: f64, why: String) -> RepOutcome {
        RepOutcome {
            wall_s,
            factor: 1.0,
            hwm_mb: f64::NAN,
            report: Value::Null,
            cluster_sum: None,
            nmi: f64::NAN,
            identity: Default::default(),
            verdict: Err(why),
        }
    }
}

/// The per-process one-rank `ClusterReport`s of a TCP rep, combined the
/// way `ClusterReport::from_outcome` combines simulated ranks.
#[derive(Clone, Copy, Default)]
struct ClusterSum {
    collectives: f64,
    bytes_total: f64,
    bytes_max_rank: f64,
    move_bytes_raw: f64,
    move_bytes_encoded: f64,
}

fn limits_for(workload: Workload, inst: &Instance) -> Limits {
    Limits {
        planted_blocks: inst.planted_blocks,
        nmi_floor: workload.nmi_floor(),
    }
}

fn identity_of(report: &Value) -> (String, String, String) {
    (
        json::s(report, "assign_hash").to_string(),
        json::s(report, "dl_bits").to_string(),
        json::s(report, "traj_hash").to_string(),
    )
}

/// Runs one rep of `kind` on `inst` and checks it. `kind` is a partition
/// workload's name or `batch_single`.
fn run_partition_rep(
    kind: &str,
    workload: Workload,
    inst: &Instance,
    seed: u64,
    rep: usize,
    trace_to: Option<&Path>,
) -> Result<RepOutcome, String> {
    let out = inst.dir.join(format!("assignment.{kind}.{rep}.txt"));
    let mut flags = vec![
        ("seed", solver_seed(seed, rep).to_string()),
        ("out", path_flag(&out)),
        ("rep", rep.to_string()),
    ];
    match &inst.shard_dir {
        Some(dir) if kind != "batch_single" => flags.push(("shards", path_flag(dir))),
        _ => flags.push(("graph", path_flag(&inst.graph_path))),
    }
    if let Some(path) = trace_to {
        flags.push(("trace", path_flag(path)));
    }
    let width = workload.pool_width(nproc());
    let started = Instant::now();
    let reports = if kind == Workload::EdistTcpSparse.name() {
        flags.push(("port", free_port()?.to_string()));
        flags.push(("session", session_id(seed, rep).to_string()));
        let mut children = Vec::new();
        for rank in 0..RANKS {
            let mut rank_flags = flags.clone();
            rank_flags.push(("rank", rank.to_string()));
            children.push(spawn_rep(kind, &rank_flags, width, None));
        }
        // Reap every spawned rank before reporting any failure.
        let results: Vec<Result<Result<Value, String>, String>> = children
            .into_iter()
            .map(|c| c.and_then(|c| finish_rep(kind, c)))
            .collect();
        results.into_iter().collect::<Result<Vec<_>, _>>()?
    } else {
        vec![finish_rep(kind, spawn_rep(kind, &flags, width, None)?)?]
    };
    let wall_s = started.elapsed().as_secs_f64();

    let reports = match reports.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(reports) => reports,
        Err(why) => return Ok(RepOutcome::failed(wall_s, why)),
    };
    let report = reports[0].clone();
    let labels = match read_labels(&out) {
        Ok(labels) => labels,
        Err(why) => return Ok(RepOutcome::failed(wall_s, why)),
    };
    let score = nmi(&labels, &inst.truth);
    let facts = RepFacts {
        degraded: reports
            .iter()
            .any(|r| r.get("degraded") != Some(&Value::Bool(false))),
        cancelled: reports
            .iter()
            .any(|r| r.get("cancelled") != Some(&Value::Bool(false))),
        num_blocks: json::f(&report, "blocks") as usize,
        dl_norm: json::f(&report, "dl_norm"),
        nmi: score,
    };
    let identity = identity_of(&report);
    let mut verdict = judge(&facts, &limits_for(workload, inst));
    if verdict.is_ok() && format!("{:016x}", assignment_hash(&labels)) != identity.0 {
        verdict = Err("the assignment file differs from the in-memory result".into());
    }
    if verdict.is_ok() && labels.len() != inst.num_vertices {
        verdict = Err(format!(
            "{} labels for {} vertices",
            labels.len(),
            inst.num_vertices
        ));
    }
    if verdict.is_ok() && reports.iter().any(|r| identity_of(r) != identity) {
        verdict = Err("TCP ranks returned different outcomes".into());
    }
    let cluster_sum = (reports.len() > 1).then(|| {
        let mut sum = ClusterSum::default();
        for c in reports.iter().filter_map(|r| r.get("cluster")) {
            // A real rank only sees itself: `bytes_max_rank` is its own
            // sent bytes, which is what the simulator sums and maxes.
            let sent = json::f(c, "bytes_max_rank");
            sum.collectives += json::f(c, "collectives");
            sum.bytes_total += sent;
            sum.bytes_max_rank = sum.bytes_max_rank.max(sent);
            sum.move_bytes_raw += json::f(c, "move_bytes_raw");
            sum.move_bytes_encoded += json::f(c, "move_bytes_encoded");
        }
        sum
    });
    Ok(RepOutcome {
        wall_s,
        factor: 1.0,
        hwm_mb: reports
            .iter()
            .map(|r| json::f(r, "hwm_kb") / 1024.0)
            .fold(0.0, f64::max),
        report,
        cluster_sum,
        nmi: score,
        identity,
        verdict,
    })
}

/// Samples and bookkeeping shared by the workload runners.
struct Tally {
    /// Brackets the reps; as wide as the workload's busy threads.
    cal: Calibrator,
    /// Brackets input generation, which is single-threaded everywhere.
    setup_cal: Calibrator,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// Speed-normalised samples (what the end-to-end metrics report).
    setup_s: Vec<f64>,
    partition_s: Vec<f64>,
    /// Raw wall samples and the factors that normalised them.
    partition_raw_s: Vec<f64>,
    factors: Vec<f64>,
    hwm_mb: Vec<f64>,
    nmi: Vec<f64>,
    dl_norm: Vec<f64>,
}

impl Tally {
    /// Bookkeeping for one run of `workload` (`ranks × pool width` of the
    /// twins is 2; the single-process solves are mostly one thread).
    fn new(workload: Workload) -> Tally {
        Tally {
            cal: Calibrator::new(if workload.sharded() { RANKS } else { 1 }),
            setup_cal: Calibrator::new(1),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            setup_s: Vec::new(),
            partition_s: Vec::new(),
            partition_raw_s: Vec::new(),
            factors: Vec::new(),
            hwm_mb: Vec::new(),
            nmi: Vec::new(),
            dl_norm: Vec::new(),
        }
    }

    /// Generates one input set; its `setup_s` comes back speed-normalised.
    fn setup(
        &mut self,
        workload: Workload,
        data_dir: &Path,
        index: usize,
        seed: u64,
    ) -> Result<Instance, String> {
        let (inst, _, factor) = self
            .setup_cal
            .around_fresh(|| setup_instance(workload, data_dir, index, graph_seed(seed, index)));
        let mut inst = inst?;
        inst.setup_s *= factor;
        // The first rep must not pair with a reading from before set-up.
        self.cal.measure();
        Ok(inst)
    }

    /// Runs one rep between two calibration readings and counts it.
    fn timed_rep(
        &mut self,
        what: &str,
        rep: impl FnOnce() -> Result<RepOutcome, String>,
    ) -> Result<RepOutcome, String> {
        let (outcome, _, factor) = self.cal.around(rep);
        let mut outcome = outcome?;
        outcome.factor = factor;
        self.count(what, &outcome);
        Ok(outcome)
    }

    /// Exactness: `other` — the same inputs and seeds solved by another
    /// route (`what`) — must succeed and equal `rep` bit for bit.
    fn check_same(&mut self, what: &str, rep: &RepOutcome, other: &RepOutcome) {
        match &other.verdict {
            Err(why) => self.problems.push(format!("{what}: {why}")),
            Ok(()) if rep.verdict.is_ok() && other.identity != rep.identity => {
                self.problems.push(format!(
                    "{what} result {:?} differs from {:?}",
                    other.identity, rep.identity
                ));
            }
            Ok(()) => {}
        }
    }

    /// Counts one partition rep; failed reps stay out of the medians.
    fn count(&mut self, what: &str, rep: &RepOutcome) {
        self.attempted += 1;
        match &rep.verdict {
            Ok(()) => {
                self.partition_s.push(rep.wall_s * rep.factor);
                self.partition_raw_s.push(rep.wall_s);
                self.factors.push(rep.factor);
                self.hwm_mb.push(rep.hwm_mb);
                self.nmi.push(rep.nmi);
                self.dl_norm.push(json::f(&rep.report, "dl_norm"));
            }
            Err(why) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {why}"));
            }
        }
    }

    fn into_result(
        self,
        workload: Workload,
        metrics: BTreeMap<String, Reported>,
    ) -> WorkloadResult {
        let notes = vec![format!(
            "raw wall partition_s median {:.6} s; host speed factor median {:.3} (min {:.3}, max {:.3})",
            median(&self.partition_raw_s),
            median(&self.factors),
            self.factors.iter().copied().fold(f64::INFINITY, f64::min),
            self.factors.iter().copied().fold(0.0, f64::max),
        )];
        WorkloadResult {
            workload,
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
            notes,
        }
    }

    fn end_to_end(&self) -> BTreeMap<String, Reported> {
        let samples: [&[f64]; 5] = [
            &self.setup_s,
            &self.partition_s,
            &self.hwm_mb,
            &self.nmi,
            &self.dl_norm,
        ];
        END_TO_END
            .iter()
            .zip(samples)
            .map(|(m, xs)| {
                let reported = Reported {
                    unit: m.unit,
                    summary: Summary::of(xs),
                };
                (m.name.to_string(), reported)
            })
            .collect()
    }
}

/// Per-layer values by name; names missing at the end read 0 ("layer not
/// on this workload's path").
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        if value.is_finite() {
            self.0.insert(name, value);
        }
    }

    /// Copies every key of a replay report that is a per-layer metric.
    fn absorb(&mut self, report: &Value) {
        for m in &PER_LAYER {
            if let Some(v) = report.get(m.name).and_then(Value::as_f64) {
                self.put(m.name, v);
            }
        }
    }

    fn finish(self) -> BTreeMap<String, Reported> {
        PER_LAYER
            .iter()
            .map(|m| {
                let value = self.0.get(m.name).copied().unwrap_or(0.0);
                let reported = Reported {
                    unit: m.unit,
                    summary: Summary::exact(value),
                };
                (m.name.to_string(), reported)
            })
            .collect()
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The counters every workload reads from a child's metrics plane.
fn put_plane(layers: &mut Layers, report: &Value) {
    let Some(plane) = report.get("plane") else {
        return;
    };
    let proposals = json::f(plane, "proposals");
    let moves = json::f(plane, "moves");
    layers.put("core.iterations", json::f(plane, "iterations"));
    layers.put("core.sweeps", json::f(plane, "sweeps"));
    layers.put("core.proposals", proposals);
    layers.put("core.moves_accepted", moves);
    layers.put("core.accept_ratio", ratio(moves, proposals));
    layers.put("pool.batches", json::f(plane, "pool_batches"));
    layers.put(
        "pool.dispatch_us_mean",
        ratio(
            json::f(plane, "pool_dispatch_s"),
            json::f(plane, "pool_dispatches"),
        ) * 1e6,
    );
}

fn put_cluster(layers: &mut Layers, rep: &RepOutcome) {
    if let Some(i) = rep.report.get("ingest") {
        layers.put("dist.cut_arcs", json::f(i, "cut_arcs"));
        layers.put(
            "dist.max_rank_local_arcs",
            json::f(i, "max_rank_local_arcs"),
        );
    }
    let Some(c) = rep.report.get("cluster") else {
        return;
    };
    let sum = rep.cluster_sum.unwrap_or(ClusterSum {
        collectives: json::f(c, "collectives"),
        bytes_total: json::f(c, "bytes_total"),
        bytes_max_rank: json::f(c, "bytes_max_rank"),
        move_bytes_raw: json::f(c, "move_bytes_raw"),
        move_bytes_encoded: json::f(c, "move_bytes_encoded"),
    });
    layers.put("mpi.collectives", sum.collectives);
    layers.put("mpi.bytes_total", sum.bytes_total);
    layers.put("mpi.bytes_max_rank", sum.bytes_max_rank);
    layers.put("dist.move_bytes_raw", sum.move_bytes_raw);
    layers.put("dist.move_bytes_encoded", sum.move_bytes_encoded);
    layers.put(
        "dist.move_compression",
        ratio(sum.move_bytes_raw, sum.move_bytes_encoded),
    );
}

fn replay(
    workload: Workload,
    inst: &Instance,
    seed: u64,
    assignment: &Path,
    blocks: usize,
) -> Result<Result<Value, String>, String> {
    let mut flags = vec![
        ("workload", workload.name().to_string()),
        ("graph", path_flag(&inst.graph_path)),
        ("assignment", path_flag(assignment)),
        ("blocks", blocks.to_string()),
        ("seed", solver_seed(seed, 0).to_string()),
    ];
    if let Some(dir) = &inst.shard_dir {
        flags.push(("shards", path_flag(dir)));
    }
    if workload == Workload::EdistTcpSparse {
        flags.push(("port", free_port()?.to_string()));
        flags.push(("session", session_id(seed, usize::MAX).to_string()));
    }
    let child = spawn_rep("replay", &flags, workload.pool_width(nproc()), None)?;
    finish_rep("replay", child)
}

/// The end-to-end run of a partition workload.
fn partition_end_to_end(workload: Workload, opts: &RunOptions) -> Result<WorkloadResult, String> {
    let data_dir = opts.out_dir.join("data");
    let name = workload.name();
    let mut tally = Tally::new(workload);
    for rep in 0..partition_reps(opts.seconds) {
        let inst = tally.setup(workload, &data_dir, rep, opts.seed)?;
        tally.setup_s.push(inst.setup_s);
        let outcome = tally.timed_rep(&format!("rep {rep}"), || {
            run_partition_rep(name, workload, &inst, opts.seed, rep, None)
        })?;
        // Exactness, checked where it is cheap: the first TCP rep
        // must equal its thread twin bit for bit.
        if workload == Workload::EdistTcpSparse && rep == 0 {
            let twin = Workload::EdistThreadSparse;
            let thread = run_partition_rep(twin.name(), twin, &inst, opts.seed, rep, None)?;
            tally.check_same("thread twin of rep 0", &outcome, &thread);
        }
    }
    let metrics = tally.end_to_end();
    Ok(tally.into_result(workload, metrics))
}

/// The traced run of a partition workload: per input set one untraced
/// and one traced rep on the same seeds (their ratio is the tracer's
/// overhead), then the layer replay on input set 0. Counts come from
/// input set 0's traced rep.
fn partition_traced(workload: Workload, opts: &RunOptions) -> Result<WorkloadResult, String> {
    let data_dir = opts.out_dir.join("data");
    let name = workload.name();
    let mut tally = Tally::new(workload);
    let mut layers = Layers::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut shard_write_s = Vec::new();
    let mut untraced_raw_s = Vec::new();
    let mut traced_reps: Vec<(Instance, RepOutcome)> = Vec::new();
    for i in 0..TRACED_INSTANCES {
        let inst = tally.setup(workload, &data_dir, i, opts.seed)?;
        generate_s.push(inst.generate_s);
        shard_write_s.push(inst.shard_write_s);
        let plain = tally.timed_rep(&format!("untraced rep {i}"), || {
            run_partition_rep(name, workload, &inst, opts.seed, i, None)
        })?;
        // The TCP ranks relay no progress events, so there is nothing to
        // trace on them; their second rep only reads the metrics plane.
        let trace_path = trace_part(&opts.out_dir, name, i);
        let trace_to = (workload != Workload::EdistTcpSparse).then_some(trace_path.as_path());
        let traced = tally.timed_rep(&format!("traced rep {i}"), || {
            run_partition_rep(name, workload, &inst, opts.seed, i, trace_to)
        })?;
        tally.check_same(&format!("traced rep {i}"), &plain, &traced);
        untraced_s.push(plain.wall_s * plain.factor);
        untraced_raw_s.push(plain.wall_s);
        traced_s.push(traced.wall_s * traced.factor);
        traced_reps.push((inst, traced));
    }
    let (inst, traced) = &traced_reps[0];
    merge_trace_files(&opts.out_dir, name, TRACED_INSTANCES)?;

    layers.put("gen.generate_s", median(&generate_s));
    if workload.sharded() {
        layers.put("graph.shard_write_s", median(&shard_write_s));
        layers.put(
            "graph.shard_bytes_per_arc",
            ratio(inst.shard_bytes as f64, inst.num_arcs as f64),
        );
    }
    let report = &traced.report;
    let partition_s = traced.wall_s;
    layers.put("trace.partition_s", partition_s);
    layers.put("proc.speed_factor", median(&tally.factors));
    layers.put(
        "trace.overhead_share",
        ratio(median(&traced_s), median(&untraced_s)) - 1.0,
    );
    layers.put("graph.load_mtx_s", json::f(report, "load_s"));
    layers.put("api.write_s", json::f(report, "write_s"));
    put_plane(&mut layers, report);
    put_cluster(&mut layers, traced);
    let (merge_s, mcmc_s) = match report.get("trace") {
        Some(t) => {
            let child_wall = json::f(t, "child_wall_s");
            layers.put("api.prologue_s", json::f(t, "prologue_s"));
            layers.put("api.epilogue_s", json::f(t, "epilogue_s"));
            layers.put("proc.spawn_exit_s", (partition_s - child_wall).max(0.0));
            layers.put(
                "trace.unattributed_share",
                ratio(partition_s - json::f(t, "attributed_s"), partition_s),
            );
            layers.put("core.sweep_ms_p50", json::f(t, "sweep_ms_p50"));
            layers.put(
                "core.dense_storage_time_share",
                ratio(json::f(t, "dense_s"), json::f(report, "solve_s")),
            );
            (json::f(t, "merge_s"), json::f(t, "mcmc_s"))
        }
        // No spans (TCP): the phase clocks of rank 0's metrics plane.
        None => {
            let plane = report.get("plane").cloned().unwrap_or(Value::Null);
            (
                json::f(&plane, "merge_wall_s"),
                json::f(&plane, "mcmc_wall_s"),
            )
        }
    };
    layers.put("core.merge_s", merge_s);
    layers.put("core.mcmc_s", mcmc_s);
    layers.put("core.merge_share", ratio(merge_s, partition_s));
    layers.put("core.mcmc_share", ratio(mcmc_s, partition_s));

    match workload {
        Workload::EdistTcpSparse => {
            // A real rank cannot split its clock into compute and wire
            // from outside (`ClusterReport::makespan` of a TCP rank is
            // CPU + wire), so the price of the transport is measured as
            // the issue defines it: TCP minus the thread twin, same
            // shards, same seeds, speed-normalised.
            let twin = Workload::EdistThreadSparse;
            let mut twin_s = Vec::new();
            let mut sim_s = Vec::new();
            for (i, (inst, tcp)) in traced_reps.iter().enumerate() {
                let thread = tally.timed_rep(&format!("thread twin {i}"), || {
                    run_partition_rep(twin.name(), twin, inst, opts.seed, i, None)
                })?;
                tally.check_same(&format!("thread twin {i}"), tcp, &thread);
                twin_s.push(thread.wall_s * thread.factor);
                sim_s.push(
                    thread
                        .report
                        .get("cluster")
                        .map_or(0.0, |c| json::f(c, "makespan")),
                );
            }
            let tcp_s = median(&untraced_s);
            let price_s = tcp_s - median(&twin_s);
            layers.put("mpi.tcp_minus_thread_s", price_s);
            layers.put("mpi.wire_share", ratio(price_s, tcp_s));
            // The α–β virtual clock of the thread twin against raw TCP wall.
            layers.put("mpi.sim_makespan_s", median(&sim_s));
            layers.put(
                "mpi.sim_over_tcp",
                ratio(median(&sim_s), median(&untraced_raw_s)),
            );
        }
        Workload::EdistThreadSparse => {
            if let Some(c) = report.get("cluster") {
                layers.put("mpi.sim_makespan_s", json::f(c, "makespan"));
            }
            // The paper's exactness claim: 2-rank EDiSt over shards equals
            // one single-node Batch solve of the same graph.
            let single = run_partition_rep("batch_single", workload, inst, opts.seed, 0, None)?;
            tally.check_same("single-node Batch", traced, &single);
        }
        _ => {}
    }
    let final_assignment = inst.dir.join(format!("assignment.{name}.0.txt"));
    let blocks = json::f(report, "blocks") as usize;
    match replay(workload, inst, opts.seed, &final_assignment, blocks)? {
        Ok(report) => layers.absorb(&report),
        Err(why) => tally.problems.push(format!("layer replay: {why}")),
    }

    Ok(tally.into_result(workload, layers.finish()))
}

/// Where traced rep `rep` writes its spans until they are merged.
fn trace_part(out_dir: &Path, name: &str, rep: usize) -> PathBuf {
    out_dir.join(format!("trace_{name}.rep{rep}.jsonl"))
}

/// Concatenates the per-rep span files into `trace_<workload>.jsonl`.
fn merge_trace_files(out_dir: &Path, name: &str, reps: usize) -> Result<(), String> {
    let mut merged = String::new();
    for i in 0..reps {
        let part = trace_part(out_dir, name, i);
        if let Ok(text) = std::fs::read_to_string(&part) {
            merged.push_str(&text);
            let _ = std::fs::remove_file(&part);
        }
    }
    if merged.is_empty() {
        return Ok(());
    }
    let path = out_dir.join(format!("trace_{name}.jsonl"));
    std::fs::write(&path, merged).map_err(|e| format!("writing {}: {e}", path.display()))
}

// ----------------------------------------------------------- serve_warm

fn run_serve_workload(opts: &RunOptions) -> Result<WorkloadResult, String> {
    let workload = Workload::ServeWarm;
    let data_dir = opts.out_dir.join("data");
    let sessions = if opts.trace { 1 } else { SERVE_SESSIONS };
    let rounds = ((opts.seconds * SERVE_ROUNDS_PER_SECOND).round() as usize).max(10);
    let mut tally = Tally::new(workload);
    let mut layers = Layers::default();
    let mut generate_s = Vec::new();
    let mut first: Option<(Instance, Value)> = None;
    let mut per_session: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();

    for i in 0..sessions {
        let inst = tally.setup(workload, &data_dir, i, opts.seed)?;
        generate_s.push(inst.generate_s);
        let out = inst.dir.join("assignment.serve_warm.txt");
        let mut flags = vec![
            ("seed", solver_seed(opts.seed, i).to_string()),
            ("graph", path_flag(&inst.graph_path)),
            ("out", path_flag(&out)),
            ("rounds", rounds.to_string()),
        ];
        // One cold re-solve per run anchors the warm DL (session 0).
        if i == 0 {
            flags.push(("cold-check", "1".into()));
        }
        let width = workload.pool_width(nproc());
        let child = spawn_rep(workload.name(), &flags, width, Some(&inst.dir))?;
        let report = match finish_rep(workload.name(), child)? {
            Ok(report) => report,
            Err(why) => {
                // A session that died served none of the requests it was
                // to send.
                let requests = rounds * REQUESTS_PER_ROUND;
                tally.attempted += requests;
                tally.failed += requests;
                tally.problems.push(format!("session {i}: {why}"));
                continue;
            }
        };

        let requests = json::f(&report, "requests") as usize;
        let mut failed = json::f(&report, "failed_requests") as usize;
        let (score, mut verdict) = match read_labels(&out) {
            Ok(labels) => {
                let score = nmi(&labels, &inst.truth);
                let facts = RepFacts {
                    degraded: false,
                    cancelled: false,
                    num_blocks: json::f(&report, "blocks") as usize,
                    dl_norm: json::f(&report, "dl_norm"),
                    nmi: score,
                };
                (score, judge(&facts, &limits_for(workload, &inst)))
            }
            Err(why) => (f64::NAN, Err(why)),
        };
        if verdict.is_ok() && report.get("membership_matches") != Some(&Value::Bool(true)) {
            verdict = Err("Membership replies differ from the server's own assignment".into());
        }
        let (warm_dl, cold_dl) = (json::f(&report, "dl"), json::f(&report, "cold_dl"));
        if verdict.is_ok() && cold_dl.is_finite() && (warm_dl.is_nan() || warm_dl > cold_dl * 1.005)
        {
            verdict = Err(format!(
                "warm DL {warm_dl:.1} exceeds the cold re-solve's {cold_dl:.1} by more than 0.5 %"
            ));
        }
        if failed > 0 {
            tally.problems.push(format!(
                "session {i}: {failed} failed requests, first: {}",
                json::s(&report, "first_error")
            ));
        }
        if let Err(why) = &verdict {
            // A session whose end state is wrong served nothing useful.
            failed = requests;
            tally.problems.push(format!("session {i}: {why}"));
        }
        tally.attempted += requests;
        tally.failed += failed;
        if verdict.is_ok() {
            // The daemon's cold start-up solve is part of set-up; the
            // child normalised it against its own calibration readings.
            tally
                .setup_s
                .push(inst.setup_s + json::f(&report, "cold_start_s"));
            tally.partition_s.extend(json::arr(&report, "warm_round_s"));
            tally
                .partition_raw_s
                .extend(json::arr(&report, "warm_round_raw_s"));
            tally.factors.push(json::f(&report, "speed_factor"));
            tally.hwm_mb.push(json::f(&report, "hwm_kb") / 1024.0);
            tally.nmi.push(score);
            tally.dl_norm.push(json::f(&report, "dl_norm"));
            for key in [
                "cold_start_s",
                "dirty_share",
                "ingest_us_p50",
                "membership_us_p50",
                "membership_us_p99",
                "stats_us_p50",
            ] {
                per_session
                    .entry(key)
                    .or_default()
                    .push(json::f(&report, key));
            }
        }
        if first.is_none() {
            first = Some((inst, report));
        }
    }

    if !opts.trace {
        let metrics = tally.end_to_end();
        return Ok(tally.into_result(workload, metrics));
    }

    let Some((inst, report)) = first else {
        return Ok(tally.into_result(workload, layers.finish()));
    };
    let session = |key: &str| median(per_session.get(key).map_or(&[][..], Vec::as_slice));
    // Layer metrics are raw wall times, like every other span.
    let warm_s = median(&tally.partition_raw_s);
    let cold_s = json::f(&report, "cold_repartition_s");
    layers.put("gen.generate_s", median(&generate_s));
    layers.put("graph.load_mtx_s", json::f(&report, "load_s"));
    layers.put("trace.partition_s", warm_s);
    layers.put("proc.speed_factor", median(&tally.factors));
    layers.put("serve.cold_start_s", session("cold_start_s"));
    layers.put("serve.cold_repartition_s", cold_s);
    layers.put("serve.warm_over_cold", ratio(warm_s, cold_s));
    layers.put(
        "serve.warm_round_ms_p75",
        percentile(&tally.partition_raw_s, 75.0) * 1e3,
    );
    layers.put("serve.dirty_share", session("dirty_share"));
    layers.put("serve.ingest_us_p50", session("ingest_us_p50"));
    layers.put("serve.membership_us_p50", session("membership_us_p50"));
    layers.put("serve.membership_us_p99", session("membership_us_p99"));
    layers.put("serve.stats_us_p50", session("stats_us_p50"));
    put_plane(&mut layers, &report);
    if let Some(plane) = report.get("plane") {
        // Phase clocks of the daemon process: cold start-up, every warm
        // round, and the one cold re-solve together.
        layers.put("core.merge_s", json::f(plane, "merge_wall_s"));
        layers.put("core.mcmc_s", json::f(plane, "mcmc_wall_s"));
    }
    let blocks = json::f(&report, "blocks") as usize;
    let assignment = inst.dir.join("assignment.serve_warm.txt");
    match replay(workload, &inst, opts.seed, &assignment, blocks)? {
        Ok(report) => layers.absorb(&report),
        Err(why) => tally.problems.push(format!("layer replay: {why}")),
    }
    Ok(tally.into_result(workload, layers.finish()))
}

/// Runs one workload, end to end or traced.
pub fn run_workload(workload: Workload, opts: &RunOptions) -> Result<WorkloadResult, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    match workload {
        Workload::ServeWarm => run_serve_workload(opts),
        _ if opts.trace => partition_traced(workload, opts),
        _ => partition_end_to_end(workload, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Child {
        Command::new("sh")
            .args(["-c", script])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sh runs")
    }

    #[test]
    fn a_child_that_exits_non_zero_is_a_failed_rep_not_an_abort() {
        let why = finish_rep("x", sh("echo boom >&2; exit 2"))
            .expect("the harness itself is fine")
            .expect_err("the rep failed");
        assert!(why.contains("boom"), "{why}");
        assert!(finish_rep("x", sh("echo not json"))
            .expect("the harness itself is fine")
            .is_err());
        let report = finish_rep("x", sh(r#"echo noise; echo '{"blocks": 3}'"#))
            .expect("the harness itself is fine")
            .expect("the last line is the report");
        assert_eq!(json::f(&report, "blocks"), 3.0);

        // Counted in `failed`, left out of every median.
        let mut tally = Tally::new(Workload::SingleChallenge);
        tally.count("rep 0", &RepOutcome::failed(1.0, why));
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(tally.partition_s.is_empty() && tally.hwm_mb.is_empty());
        assert!(tally.problems[0].starts_with("rep 0: rep x exited with"));
    }
}
