//! `partition` and `report`: every in-process inference path runs
//! through the unified [`Partitioner`] builder, and every path —
//! `--cluster tcp` too (see [`crate::cluster`]) — ends in one reporter.

use crate::args::Args;
use crate::cluster;
use crate::graphs::{graph_source, shard_header, write_assignment, GraphSource};
use crate::sigint;
use edist::prelude::*;
use sbp_metrics::json::Value;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Exit code for a run that completed but degraded (a rank died, a
/// collective frame failed to decode, …) when `--fail-on-degraded` is
/// set. Distinct from 1 (hard error) so scripts can tell "no answer"
/// from "best-effort answer you asked to be warned about".
pub const EXIT_DEGRADED: u8 = 3;

pub const SEED: &str = "--seed N  solver seed (default 0)";

pub const SYNC_PERIOD: &str =
    "--sync-period N  EDiSt sweeps between move exchanges, at least 1 (default 1)";

/// Wired through the in-process [`Partitioner`] only: `--cluster
/// tcp|tcp-local` refuses these by name, and `--sample`.
pub const IN_PROCESS: &str = "\
--checkpoint FILE      snapshot the golden loop at sync boundaries
--checkpoint-every N   snapshot every Nth boundary only, at least 1 (default 1)
--resume FILE          restart bit-identically from a snapshot
--metrics-out FILE     stream the run's metrics as JSONL (see `report`)
--progress true|false  print phases, sweeps and iterations on stderr";

pub const PARTITION: &str = "\
--backend NAME                 sequential (default), sbp, hybrid, batch, dcsbp or edist
--ranks N                      ranks of dcsbp, edist or a cluster (default 4, or the shard count)
--cluster MODE                 thread (in-process, the default), tcp (one rank) or tcp-local
--sample F                     infer on a sampled fraction F of the vertices, then extend
--strategy NAME                uniform, degree, edge, fire or snowball sampler (default snowball)
--mcmc mh|batch                batch runs 3 synced chunks a sweep: one result at any rank count
--fault-plan SPEC              inject faults, e.g. seed:7,kill:1@3,mangle:0@2,delay:2@5:1.5
--fail-on-degraded true|false  exit 3, not 0, when a rank failed and the run degraded
--out FILE                     assignment to write, one label per line (default stdout)
--trajectory-out FILE          exact iteration trajectory, DL as f64 bits";

pub const REPORT: &str = "--out FILE  report to write (default RUN.html)";

/// This process's peak resident set so far in KiB — `VmHWM` from
/// `/proc/self/status` — or `None` where there is no procfs.
fn peak_rss_kib() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The run log behind both `--progress` (lines on stderr) and
/// `--metrics-out` (a JSONL stream). Lines are written as events arrive;
/// the first failed write is kept and surfaced once at the end instead of
/// aborting the run mid-solve.
struct RunLog {
    progress: bool,
    /// The `--metrics-out` writer and its path.
    metrics: Option<(BufWriter<File>, String)>,
    written: std::io::Result<()>,
}

impl RunLog {
    /// Opens `--metrics-out`, if given, and writes its `meta` line.
    fn open(args: &Args, source: &GraphSource, seed: u64) -> Result<Self, String> {
        let mut log = RunLog {
            progress: args.switch("progress"),
            metrics: None,
            written: Ok(()),
        };
        let Some(path) = args.get("metrics-out") else {
            return Ok(log);
        };
        // Zero the process-wide registry so the snapshot line at the end
        // covers exactly this run.
        sbp_metrics::reset();
        let file = File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        log.metrics = Some((BufWriter::new(file), path.to_string()));
        let (backend, vertices) = match source {
            GraphSource::Mem(graph) => ("sequential", graph.num_vertices()),
            GraphSource::Shards(dir) => ("edist", shard_header(dir)?.num_vertices),
        };
        log.line([
            ("type", "meta".into()),
            ("schema", Value::Num(1.0)),
            ("backend", args.get("backend").unwrap_or(backend).into()),
            ("seed", Value::Num(seed as f64)),
            ("vertices", Value::Num(vertices as f64)),
        ]);
        Ok(log)
    }

    /// One JSONL line, when there is a metrics stream.
    fn line<'k>(&mut self, entries: impl IntoIterator<Item = (&'k str, Value)>) {
        if let Some((writer, _)) = &mut self.metrics {
            if self.written.is_ok() {
                self.written = writeln!(writer, "{}", Value::obj(entries));
            }
        }
    }

    /// Closes the metrics stream with the run's `summary` and the
    /// registry's `snapshot`.
    fn finish(mut self, run: &Run) -> Result<(), String> {
        if self.metrics.is_none() {
            return Ok(());
        }
        self.line([
            ("type", "summary".into()),
            ("dl", Value::Num(run.description_length)),
            ("blocks", Value::Num(run.num_blocks as f64)),
            ("wall_seconds", Value::Num(run.wall_seconds)),
            ("virtual_seconds", Value::Num(run.virtual_seconds)),
        ]);
        let snapshot = sbp_metrics::snapshot().to_json();
        self.line([("type", "snapshot".into()), ("metrics", snapshot)]);
        let Some((mut writer, path)) = self.metrics else {
            return Ok(());
        };
        self.written
            .and_then(|()| writer.flush())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics written to {path}");
        Ok(())
    }
}

impl ProgressSink for RunLog {
    fn on_event(&mut self, event: &ProgressEvent) {
        let num = |n: usize| Value::Num(n as f64);
        match event {
            ProgressEvent::ClusterStarted { ranks } if self.progress => {
                eprintln!("spawning {ranks} simulated ranks");
            }
            ProgressEvent::PhaseStarted { phase } if self.progress => {
                eprintln!("phase: {phase}");
            }
            &ProgressEvent::Sweep {
                iteration,
                sweep,
                dl,
                proposed,
                accepted,
            } => {
                if self.progress {
                    eprintln!(
                        "  iter {iteration:>3} sweep {sweep:>3}: DL {dl:.2}  \
                         ({accepted}/{proposed} proposals accepted)"
                    );
                }
                self.line([
                    ("type", "sweep".into()),
                    ("iteration", num(iteration)),
                    ("sweep", num(sweep)),
                    ("dl", Value::Num(dl)),
                    ("proposed", num(proposed)),
                    ("accepted", num(accepted)),
                ]);
            }
            ProgressEvent::Iteration { iteration, stat } => {
                if self.progress {
                    eprintln!(
                        "iter {iteration:>3}: {:>6} blocks  DL {:.2}  ({} sweeps, {} moves)",
                        stat.num_blocks, stat.dl, stat.sweeps, stat.moves
                    );
                }
                let peak = self.metrics.as_ref().and_then(|_| peak_rss_kib());
                let line = [
                    ("type", "iteration".into()),
                    ("iteration", num(*iteration)),
                    ("blocks", num(stat.num_blocks)),
                    ("dl", Value::Num(stat.dl)),
                ];
                self.line(
                    line.into_iter()
                        .chain(peak.map(|kib| ("peak_rss_kib", Value::Num(kib as f64)))),
                );
            }
            _ => {}
        }
    }
}

pub fn parse_strategy(name: &str) -> Result<SamplingStrategy, String> {
    Ok(match name {
        "uniform" => SamplingStrategy::UniformNode,
        "degree" => SamplingStrategy::DegreeWeightedNode,
        "edge" => SamplingStrategy::RandomEdge,
        "fire" => SamplingStrategy::ForestFire {
            burn_probability_pct: 70,
        },
        "snowball" => SamplingStrategy::ExpansionSnowball,
        other => return Err(format!("unknown strategy '{other}'")),
    })
}

/// `--seed` and the `--mcmc mh|batch` sweep-strategy override (the
/// transport-equivalence tests sweep both strategies through the same
/// flag on every path). `batch` is the chunked, rank-count-invariant
/// schedule (`sbp_core::hybrid::BATCH_CHUNKS`).
pub fn sbp_config(args: &Args) -> Result<SbpConfig, String> {
    let mut sbp = SbpConfig {
        seed: args.num("seed", 0u64)?,
        ..SbpConfig::default()
    };
    match args.get("mcmc") {
        None => {}
        Some("mh") => sbp.strategy = McmcStrategy::MetropolisHastings,
        Some("batch") => sbp.strategy = McmcStrategy::Batch,
        Some(other) => return Err(format!("unknown --mcmc strategy '{other}' (mh, batch)")),
    }
    Ok(sbp)
}

/// The rank count of a distributed run: `--ranks`, or over `--sharded`
/// without it one rank per shard, else 4.
pub fn rank_count(args: &Args) -> Result<usize, String> {
    match (args.get("sharded"), args.get("ranks")) {
        (Some(dir), None) => Ok(shard_header(dir)?.shard_count),
        _ => args.num("ranks", 4usize),
    }
}

/// `--backend NAME` (`default` without it) on `ranks` ranks, and
/// `--sync-period N` (default 1), EDiSt's sweeps between move exchanges:
/// the one check of these flags that every `partition` path (thread,
/// `tcp`, `tcp-local`) and `serve` make. A period of 0 and zero ranks get
/// the facade's own errors; a flag the backend would ignore — `--mcmc` on
/// a single-node backend, `--sync-period` on any but edist — is refused
/// by name.
pub fn resolve_backend(
    args: &Args,
    default: &str,
    ranks: usize,
) -> Result<(Backend, usize), String> {
    let name = args.get("backend").unwrap_or(default);
    let backend = Backend::parse(name, ranks)?;
    let sync_period = match args.num("sync-period", 1usize)? {
        0 => return Err(PartitionError::ZeroSyncPeriod.to_string()),
        period => period,
    };
    if let single @ (Backend::Sequential | Backend::Hybrid | Backend::Batch) = backend {
        if let Some(mcmc) = args.get("mcmc") {
            return Err(format!(
                "--mcmc {mcmc} sets the sweep schedule of the dcsbp and edist backends; the \
                 {single} backend runs its own: pick it with --backend batch|hybrid|sequential"
            ));
        }
    }
    match (args.get("sync-period"), backend) {
        (_, Backend::Edist { .. }) | (None, _) => {}
        (Some(period), _) => {
            return Err(format!(
                "--sync-period {period} sets how often the edist backend exchanges moves; \
                 the {name} backend exchanges none"
            ))
        }
    }
    if let Backend::Edist { .. } | Backend::DcSbp { .. } = backend {
        backend
            .distributed(sync_period, None)
            .map_err(|e| e.to_string())?;
    }
    Ok((backend, sync_period))
}

pub fn fault_plan(args: &Args) -> Result<FaultPlan, String> {
    let parse = |spec| FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"));
    args.get("fault-plan").map_or(Ok(FaultPlan::none()), parse)
}

/// Builds the `Partitioner`, runs it, reports, writes the assignment.
/// Ctrl-C is wired to the run's `CancelToken` so a long search returns
/// best-so-far instead of dying.
fn run_partitioner(
    args: &Args,
    source: &GraphSource,
    backend: Backend,
    sync_period: usize,
) -> Result<u8, String> {
    let sbp = sbp_config(args)?;
    let seed = sbp.seed;
    let every = args.positive("checkpoint-every", 1)?;
    if args.get("checkpoint-every").is_some() && args.get("checkpoint").is_none() {
        return Err(
            "--checkpoint-every thins the snapshots of --checkpoint; pass both or neither".into(),
        );
    }
    let mut partitioner = match source {
        GraphSource::Mem(graph) => Partitioner::on(graph),
        GraphSource::Shards(dir) => Partitioner::on_sharded(dir),
    }
    .backend(backend)
    .config(sbp)
    .sync_period(sync_period)
    .fault_plan(fault_plan(args)?)
    .checkpoint_every(every as usize);
    if args.get("sample").is_some() {
        let strategy = parse_strategy(args.get("strategy").unwrap_or("snowball"))?;
        partitioner = partitioner.sample(strategy, args.num("sample", 0.5f64)?);
    }
    if let Some(path) = args.get("checkpoint") {
        partitioner = partitioner.checkpoint_to(path);
    }
    if let Some(path) = args.get("resume") {
        partitioner = partitioner.resume_from(path);
    }
    let token = CancelToken::new();
    if sigint::install(token.clone()) {
        partitioner = partitioner.cancel_token(token);
    }
    let mut log = RunLog::open(args, source, seed)?;
    let run = partitioner
        .progress(|event| log.on_event(event))
        .run()
        .map_err(|e| e.to_string())?;
    log.finish(&run)?;
    report_run(args, source, &run, None)
}

/// The one reporter behind every `partition` path: run notes
/// and the summary line on stderr, `--trajectory-out`, the assignment.
/// `tcp_rank` is `Some` for one rank of a real cluster, whose view of
/// the [`ClusterReport`] is rank-local; results are bit-identical across
/// the cluster's ranks, so every rank may write its own `--out` /
/// `--trajectory-out`, but only rank 0 speaks for the run on stderr and
/// prints the assignment when there is no `--out` (a `tcp-local` launch
/// then emits it exactly once).
pub fn report_run(
    args: &Args,
    source: &GraphSource,
    run: &Run,
    tcp_rank: Option<usize>,
) -> Result<u8, String> {
    let lead = tcp_rank.is_none_or(|rank| rank == 0);
    if let Some(reason) = run.degraded {
        let who = tcp_rank.map(|r| format!("rank {r}: ")).unwrap_or_default();
        eprintln!("{who}degraded ({reason}): writing the best partition found before the failure");
    }
    if lead {
        report_summary(source, run, tcp_rank.is_some());
    }
    if let Some(path) = args.get("trajectory-out") {
        write_trajectory(
            path,
            &run.iterations,
            run.num_blocks,
            run.description_length,
        )?;
    }
    if lead || args.get("out").is_some() {
        write_assignment(args.get("out"), &run.assignment)?;
    }
    // Degraded runs still wrote their best partition, so the default
    // stays 0; `--fail-on-degraded true` asks for the distinct code.
    if run.degraded.is_some() && args.switch("fail-on-degraded") {
        Ok(EXIT_DEGRADED)
    } else {
        Ok(0)
    }
}

fn report_summary(source: &GraphSource, run: &Run, tcp: bool) {
    if run.cancelled {
        eprintln!("cancelled: writing the best partition found so far");
    }
    if let Some(ingest) = &run.ingest {
        eprintln!(
            "sharded ingest: V={} E={} over {} ranks (busiest rank read {} of {} arcs, \
             holds {}; {} cut arcs exchanged)",
            ingest.num_vertices,
            ingest.total_edge_weight,
            ingest.ranks,
            ingest.max_rank_shard_edges,
            ingest.total_arcs,
            ingest.max_rank_local_arcs,
            ingest.total_cut_arcs
        );
    }
    if let Some(report) = &run.cluster {
        if tcp {
            eprintln!(
                "tcp cluster (rank-local view): {:.3}s elapsed rank-local wall time over {} \
                 collectives \
                 ({} bytes through this rank)",
                report.makespan, report.collectives, report.total_bytes
            );
        } else {
            eprintln!(
                "simulated runtime: {:.3}s over {} collectives ({} bytes, busiest rank {} bytes)",
                report.makespan, report.collectives, report.total_bytes, report.max_rank_bytes
            );
        }
        if report.move_bytes_raw > 0 {
            eprintln!(
                "move exchange: {} bytes varint-encoded vs {} raw ({:.1}% saved)",
                report.move_bytes_encoded,
                report.move_bytes_raw,
                100.0 * (1.0 - report.move_bytes_encoded as f64 / report.move_bytes_raw as f64)
            );
        }
    }
    if let Some(sampled) = run.sampled_vertices {
        eprintln!("sampled {sampled} vertices");
    }
    let dl_norm = match source {
        GraphSource::Mem(graph) => run.dl_norm(graph),
        GraphSource::Shards(_) => run.dl_norm_sharded().unwrap_or(f64::NAN),
    };
    eprintln!(
        "backend: {}  blocks: {}  DL: {:.2}  DL_norm: {:.4}  wall: {:.2}s",
        run.backend, run.num_blocks, run.description_length, dl_norm, run.wall_seconds
    );
}

pub fn cmd_partition(args: &Args) -> Result<u8, String> {
    if args.get("strategy").is_some() && args.get("sample").is_none() {
        return Err("--strategy picks the sampler of --sample; pass both or neither".into());
    }
    // A real multi-process cluster peels off before the in-process
    // simulator paths: `tcp` runs ONE rank of it in this process,
    // `tcp-local` is the launcher that spawns N such processes on
    // localhost and waits for them.
    let mode = args.get("cluster").unwrap_or("thread");
    if !matches!(mode, "thread" | "tcp" | "tcp-local") {
        return Err(format!(
            "unknown --cluster mode '{mode}' (thread, tcp, tcp-local)"
        ));
    }
    args.refuse_other_modes(cluster::TCP, "cluster", mode)?;
    match mode {
        "tcp" => return cluster::cmd_partition_tcp(args),
        "tcp-local" => return cluster::cmd_partition_tcp_local(args),
        _ => {}
    }
    // A sharded source runs EDiSt unless --backend says otherwise (the
    // facade refuses a rank count that is not the shard count); a file
    // source runs sequential by default.
    let default = args.get("sharded").map_or("sequential", |_| "edist");
    let (backend, sync_period) = resolve_backend(args, default, rank_count(args)?)?;
    let source = graph_source(args)?;
    run_partitioner(args, &source, backend, sync_period)
}

/// Writes the run's iteration trajectory in an exact, diff-friendly
/// form: one `blocks dl_bits sweeps moves` line per golden-loop
/// iteration — DL as hex `f64` bits, so file equality means
/// bit-identity rather than rounded-string identity — then a
/// `final blocks dl_bits` line.
fn write_trajectory(
    path: &str,
    iterations: &[IterationStat],
    blocks: usize,
    dl: f64,
) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut text = String::new();
    for it in iterations {
        let _ = writeln!(
            text,
            "{} {:016x} {} {}",
            it.num_blocks,
            it.dl.to_bits(),
            it.sweeps,
            it.moves
        );
    }
    let _ = writeln!(text, "final {} {:016x}", blocks, dl.to_bits());
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// `edist-cli report run.jsonl [--out report.html]`: render a
/// `--metrics-out` JSONL file as a self-contained HTML report (inline
/// SVG charts, no external assets). Without `--out` the report lands
/// next to the input with an `.html` extension.
pub fn cmd_report(args: &Args) -> Result<u8, String> {
    let input = args
        .positional()
        .ok_or("usage: report RUN.jsonl [--out FILE]")?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let mut lines = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = sbp_metrics::json::Value::parse(line)
            .map_err(|e| format!("{input}:{}: {e}", idx + 1))?;
        lines.push(value);
    }
    let html = sbp_metrics::report::render(&lines).map_err(|e| format!("{input}: {e}"))?;
    let out = match args.get("out") {
        Some(out) => out.to_string(),
        None => Path::new(input)
            .with_extension("html")
            .to_string_lossy()
            .into_owned(),
    };
    std::fs::write(&out, html).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("report written to {out}");
    Ok(0)
}
