//! `edist-cli` — command-line interface to the EDiSt stack.
//!
//! ```text
//! edist-cli generate  --family challenge|param|scaling|realworld --out g.mtx [--truth t.txt]
//!                     [--vertices N] [--id TTT33|1M|Amazon|...] [--difficulty easy|hard]
//!                     [--scale F] [--seed N]
//! edist-cli shard     --graph g.mtx --ranks N --out shards/ [--strategy modulo|balanced]
//! edist-cli partition --graph g.mtx | --sharded shards/
//!                     [--backend sequential|hybrid|batch|dcsbp|edist]
//!                     [--ranks N] [--seed N] [--sample F]
//!                     [--strategy uniform|degree|edge|fire|snowball]
//!                     [--checkpoint s.sbpc] [--checkpoint-every N]
//!                     [--resume s.sbpc] [--fault-plan SPEC]
//!                     [--mcmc mh|batch] [--sync-period N] [--trajectory-out t.txt]
//!                     [--cluster thread|tcp|tcp-local]
//!                     [--rank I] [--coordinator HOST:PORT] [--session S]
//!                     [--tcp-timeout SECS] [--handshake-timeout SECS]
//!                     [--progress true] [--out assignment.txt]
//! edist-cli sample    --graph g.mtx --fraction F [--strategy uniform|degree|edge|fire|snowball]
//!                     [--seed N] [--out assignment.txt]
//! edist-cli evaluate  --pred a.txt --truth b.txt
//! edist-cli islands   --graph g.mtx --ranks 1,2,4,8
//! edist-cli stats     --graph g.mtx
//! ```
//!
//! Every in-process inference path runs through the unified
//! [`Partitioner`] builder (`sample` is shorthand for
//! `partition --sample F`); `--cluster tcp` runs one rank of a real
//! cluster through `edist::dist::run_tcp_rank`. All of them share one
//! option assembly and one reporter.
//!
//! `shard` splits a graph into per-rank binary `.sbps` shards;
//! `partition --sharded` then runs EDiSt (or DC-SBP) with one simulated
//! rank per shard, each rank loading only its own shard — the monolithic
//! graph never materializes. Long `partition` runs handle Ctrl-C: the
//! first interrupt cancels cooperatively and writes the best partition
//! found so far, a second one kills the process.
//!
//! `--checkpoint s.sbpc` snapshots the golden loop at sync boundaries
//! (`--checkpoint-every N` thins the cadence); `--resume s.sbpc` restarts
//! from a snapshot bit-identically. `--fault-plan
//! "seed:7,kill:1@3,mangle:0@2,delay:2@5:1.5"` injects deterministic
//! faults into the simulated cluster (testing/chaos harness; degraded
//! runs still write the best partition found before the failure).
//!
//! Graphs load by extension: `.mtx` = Matrix Market, anything else =
//! `src dst [weight]` edge list. Assignments are one label per line.

#![deny(clippy::undocumented_unsafe_blocks)]

use edist::graph::io::load_graph;
use edist::graph::shard::{shard_graph, validate_shard_dir};
use edist::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// SIGINT → [`CancelToken`] bridge, in the same hand-rolled-FFI spirit as
/// the `clock_gettime` shim in `sbp-mpi` (the container has no `ctrlc`
/// crate). The handler only flips an atomic; one process-wide watcher
/// thread (spawned on first install, never per run) does the cancelling
/// against whichever token the *current* run registered. The handler
/// re-arms SIGINT to its default disposition so a second Ctrl-C
/// terminates immediately.
#[cfg(unix)]
mod sigint {
    use edist::prelude::CancelToken;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, Once, OnceLock};
    use std::time::Duration;

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);
    /// Token of the run the next interrupt should cancel.
    static CURRENT: OnceLock<Mutex<CancelToken>> = OnceLock::new();
    static WATCHER: Once = Once::new();

    const SIGINT: i32 = 2;
    /// POSIX `sighandler_t`; `None` is `SIG_DFL` (the null pointer, via
    /// the guaranteed `Option<fn>` niche optimization).
    type SigHandler = Option<extern "C" fn(i32)>;
    const SIG_DFL: SigHandler = None;
    /// `SIG_ERR` is `(sighandler_t)-1`; the return travels as a plain
    /// address so it can be compared against it.
    const SIG_ERR: usize = usize::MAX;

    extern "C" {
        /// POSIX `signal(2)`; the C library std links against provides it.
        /// The previous handler comes back as a raw address (possibly
        /// `SIG_ERR`), never called — so receiving it as `usize` is sound.
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    /// Async-signal-safe by construction: one atomic store plus a
    /// re-arm via `signal`, which POSIX lists as safe to call from a
    /// handler.
    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
        // SAFETY: `signal` is on POSIX's async-signal-safe list, SIGINT
        // is a valid signal number and `SIG_DFL` (the null handler) a
        // valid disposition; the returned previous handler is discarded,
        // never called.
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    /// Registers `token` as the interrupt target and ensures the handler
    /// plus the single watcher thread exist. Interrupts are consumed: one
    /// SIGINT cancels the currently-registered token exactly once, so a
    /// finished run's stale token can never eat a later run's interrupt.
    /// Returns false when no handler could be installed (e.g. a sandbox
    /// filtering `signal(2)`) — the run then simply stays
    /// non-interruptible instead of promising a best-so-far exit it
    /// cannot deliver.
    pub fn install(token: CancelToken) -> bool {
        // SAFETY: `on_sigint` is async-signal-safe (see above) and stays
        // alive for the process lifetime; SIGINT is a valid signal.
        if unsafe { signal(SIGINT, Some(on_sigint)) } == SIG_ERR {
            return false;
        }
        let current = CURRENT.get_or_init(|| Mutex::new(token.clone()));
        *current.lock().expect("sigint token lock") = token;
        WATCHER.call_once(|| {
            std::thread::spawn(|| loop {
                if INTERRUPTED.swap(false, Ordering::SeqCst) {
                    eprintln!("interrupt: finishing at the next checkpoint (Ctrl-C again to kill)");
                    if let Some(current) = CURRENT.get() {
                        current.lock().expect("sigint token lock").cancel();
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            });
        });
        true
    }

    #[cfg(test)]
    pub fn trigger_for_test() {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
}

#[cfg(not(unix))]
mod sigint {
    use edist::prelude::CancelToken;

    /// No signal shim off Unix; runs are not Ctrl-C-cancellable there.
    pub fn install(_token: CancelToken) -> bool {
        false
    }
}

/// Exit code for a run that completed but degraded (a rank died, a
/// collective frame failed to decode, …) when `--fail-on-degraded` is
/// set. Distinct from 1 (hard error) so scripts can tell "no answer"
/// from "best-effort answer you asked to be warned about".
const EXIT_DEGRADED: u8 = 3;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `edist-cli help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Dispatches a parsed command line; `Ok(code)` is the process exit
/// code (0, or [`EXIT_DEGRADED`] under `--fail-on-degraded`).
fn run(argv: &[String]) -> Result<u8, String> {
    let Some(cmd) = argv.first() else {
        return Err("missing subcommand".into());
    };
    if cmd == "report" {
        // `report` takes a positional JSONL path, which Args rejects.
        return cmd_report(&argv[1..]).map(|()| 0);
    }
    let args = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "generate" => cmd_generate(&args).map(|()| 0),
        "shard" => cmd_shard(&args).map(|()| 0),
        "partition" => cmd_partition(&args),
        "sample" => cmd_sample(&args),
        "evaluate" => cmd_evaluate(&args).map(|()| 0),
        "islands" => cmd_islands(&args).map(|()| 0),
        "stats" => cmd_stats(&args).map(|()| 0),
        "serve" => cmd_serve(&args).map(|()| 0),
        "connect" => cmd_connect(&args),
        "help" | "--help" | "-h" => {
            println!("{}", HELP);
            Ok(0)
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

const HELP: &str = "edist-cli — exact distributed stochastic block partitioning

subcommands:
  generate   synthesize a dataset-family graph (writes .mtx/.txt + truth)
  shard      split a graph into per-rank binary .sbps shards
  partition  infer communities (--backend sequential|hybrid|batch|dcsbp|edist;
             --sharded DIR runs distributed backends over .sbps shards;
             --checkpoint/--resume snapshot and restore the golden loop;
             --fault-plan injects deterministic faults for testing;
             --metrics-out run.jsonl streams the run's metrics as JSONL;
             --mcmc mh|batch overrides the sweep strategy (batch: every
             sweep in 3 chunks, each decided against the state synced
             after the last — the same result at every rank count);
             --sync-period N exchanges EDiSt moves every N sweeps (default 1);
             --trajectory-out FILE writes the exact iteration trajectory;
             --cluster tcp-local --ranks N runs a REAL multi-process
             cluster on localhost, and --cluster tcp --rank I --ranks N
             --coordinator HOST:PORT [--session S] [--tcp-timeout SECS]
             runs one rank of a hand-launched cluster — results are
             bit-identical to the in-process simulator at the same seed
             and rank count)
  report     render a --metrics-out JSONL file as a self-contained HTML
             report (report run.jsonl [--out report.html])
  sample     sampling-based inference (sample -> infer -> extend)
  evaluate   score a predicted labeling against ground truth
  islands    island-vertex census under round-robin distribution
  stats      basic graph statistics
  serve      run the resident partition daemon in-process
             (--graph FILE | --sharded DIR, --listen unix:PATH|tcp:ADDR,
              [--backend NAME] [--ranks N] [--sync-period N] [--seed N]
              [--resume s.sbpc] [--checkpoint s.sbpc])
  connect    one request against a running daemon (--to unix:PATH|tcp:ADDR, then
             one of --ingest \"s,d,w;s,d,w\" | --repartition warm|cold
             | --membership \"v,v,...\" | --stats true | --metrics true
             | --checkpoint PATH | --shutdown true | --badframe true;
             --json true prints stats/metrics replies as JSON)
  help       this message

partition/sample exit codes: 0 ok; 1 error; 3 when the run degraded and
--fail-on-degraded true was passed (default keeps the historical 0).";

/// Minimal `--key value` argument map (flags must all take values).
struct Args {
    map: BTreeMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{key}'"));
            };
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args { map })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: '{v}'")),
        }
    }
}

/// One `--key value` entry from a JSONL builder tuple list.
fn jobj(entries: Vec<(&str, sbp_metrics::json::Value)>) -> sbp_metrics::json::Value {
    sbp_metrics::json::Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

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

fn jnum(x: f64) -> sbp_metrics::json::Value {
    sbp_metrics::json::Value::Num(x)
}

fn jstr(s: &str) -> sbp_metrics::json::Value {
    sbp_metrics::json::Value::Str(s.to_string())
}

/// Streaming JSONL sink behind `partition --metrics-out`. Lines are
/// written as events arrive; a failed write is remembered and surfaced
/// once at the end instead of aborting the run mid-solve.
struct MetricsLog {
    writer: std::io::BufWriter<std::fs::File>,
    path: String,
    failed: bool,
}

impl MetricsLog {
    fn create(path: &str) -> Result<Self, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        Ok(MetricsLog {
            writer: std::io::BufWriter::new(file),
            path: path.to_string(),
            failed: false,
        })
    }

    fn line(&mut self, value: sbp_metrics::json::Value) {
        use std::io::Write;
        if !self.failed && writeln!(self.writer, "{value}").is_err() {
            self.failed = true;
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        use std::io::Write;
        if self.failed {
            return Err(format!(
                "writing {}: a metrics line failed to write",
                self.path
            ));
        }
        self.writer
            .flush()
            .map_err(|e| format!("flushing {}: {e}", self.path))
    }
}

fn load(args: &Args) -> Result<Graph, String> {
    let path = args.require("graph")?;
    load_graph(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))
}

fn write_assignment(path: Option<&str>, assignment: &[u32]) -> Result<(), String> {
    let text: String = assignment.iter().map(|l| format!("{l}\n")).collect();
    match path {
        Some(p) => std::fs::write(p, text).map_err(|e| format!("writing {p}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn read_assignment(path: &str) -> Result<Vec<u32>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.trim()
                .parse::<u32>()
                .map_err(|e| format!("bad label '{l}' in {path}: {e}"))
        })
        .collect()
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let family = args.get("family").unwrap_or("challenge");
    let seed: u64 = args.num("seed", 42u64)?;
    let scale: f64 = args.num("scale", 0.05f64)?;
    let planted = match family {
        "challenge" => {
            let v: usize = args.num("vertices", 2000usize)?;
            let difficulty = match args.get("difficulty").unwrap_or("hard") {
                "easy" => Difficulty::Easy,
                "hard" => Difficulty::Hard,
                other => return Err(format!("unknown difficulty '{other}'")),
            };
            graph_challenge(v, difficulty, seed)
        }
        "param" => {
            let id = args.get("id").unwrap_or("TTT33");
            let spec = ParamStudySpec::all()
                .into_iter()
                .find(|s| s.id() == id)
                .ok_or_else(|| format!("unknown param-study id '{id}'"))?;
            param_study(spec, scale, seed)
        }
        "scaling" => {
            let id = args.get("id").unwrap_or("1M");
            let which = ScalingGraph::all()
                .into_iter()
                .find(|w| w.id() == id)
                .ok_or_else(|| format!("unknown scaling graph '{id}'"))?;
            scaling_graph(which, scale, seed)
        }
        "realworld" => {
            let id = args.get("id").unwrap_or("Amazon");
            let which = RealWorldStandIn::all()
                .into_iter()
                .find(|w| w.id() == id)
                .ok_or_else(|| format!("unknown real-world stand-in '{id}'"))?;
            realworld(which, scale, seed)
        }
        other => return Err(format!("unknown family '{other}'")),
    };
    let out = args.require("out")?;
    edist::graph::io::save_graph(&planted.graph, Path::new(out))
        .map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "wrote {out}: V={} E={} C={}",
        planted.graph.num_vertices(),
        planted.graph.total_edge_weight(),
        planted.num_nonempty_communities()
    );
    if let Some(tp) = args.get("truth") {
        write_assignment(Some(tp), &planted.ground_truth)?;
        eprintln!("wrote ground truth to {tp}");
    }
    Ok(())
}

fn cmd_shard(args: &Args) -> Result<(), String> {
    let graph = load(args)?;
    let ranks: usize = args.num("ranks", 4usize)?;
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let strategy = match args.get("strategy").unwrap_or("balanced") {
        "modulo" => OwnershipStrategy::Modulo,
        "balanced" => OwnershipStrategy::SortedBalanced,
        other => return Err(format!("unknown ownership strategy '{other}'")),
    };
    let out = args.require("out")?;
    let paths = shard_graph(&graph, Path::new(out), ranks, strategy)
        .map_err(|e| format!("sharding into {out}: {e}"))?;
    let total_bytes: u64 = paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    eprintln!(
        "wrote {} shards to {out}: V={} arcs={} ({} bytes, {:.2} bytes/arc; raw triples {} bytes)",
        paths.len(),
        graph.num_vertices(),
        graph.num_arcs(),
        total_bytes,
        total_bytes as f64 / graph.num_arcs().max(1) as f64,
        graph.num_arcs() * 16,
    );
    Ok(())
}

fn parse_backend(name: &str, ranks: usize) -> Result<Backend, String> {
    Ok(match name {
        // `sbp` is the registry's second name for the sequential backend.
        "sequential" | "sbp" => Backend::Sequential,
        "hybrid" => Backend::Hybrid,
        "batch" => Backend::Batch,
        "dcsbp" => Backend::DcSbp { ranks },
        "edist" => Backend::Edist { ranks },
        other => {
            return Err(format!(
                "unknown backend '{other}' (known: {})",
                default_registry().names().join(", ")
            ))
        }
    })
}

fn parse_strategy(name: &str) -> Result<SamplingStrategy, String> {
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

/// Where `partition` reads its graph from.
enum GraphSource {
    /// In-memory graph loaded from one file.
    Mem(Graph),
    /// `.sbps` shard directory; each simulated rank loads only its shard.
    Shards(String),
}

/// `--seed` and the `--mcmc mh|batch` sweep-strategy override (the
/// transport-equivalence tests sweep both strategies through the same
/// flag on every path). `batch` is the chunked, rank-count-invariant
/// schedule (`sbp_core::hybrid::BATCH_CHUNKS`).
fn sbp_config(args: &Args) -> Result<SbpConfig, String> {
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

/// `--sync-period N` (default 1), EDiSt's sweeps between move exchanges:
/// read here once for the in-process, TCP-rank and daemon paths alike,
/// so each honours it and each refuses 0 with the facade's own error.
fn sync_period(args: &Args) -> Result<usize, String> {
    match args.num("sync-period", 1usize)? {
        0 => Err(PartitionError::ZeroSyncPeriod.to_string()),
        period => Ok(period),
    }
}

/// `--graph FILE` xor `--sharded DIR`.
fn graph_source(args: &Args) -> Result<GraphSource, String> {
    match args.get("sharded") {
        // Running over one of them while the other silently names a
        // different (possibly stale) graph would partition the wrong
        // input without warning.
        Some(_) if args.get("graph").is_some() => {
            Err("pass either --graph or --sharded, not both".into())
        }
        Some(dir) => Ok(GraphSource::Shards(dir.to_string())),
        None => Ok(GraphSource::Mem(load(args)?)),
    }
}

fn fault_plan(args: &Args) -> Result<FaultPlan, String> {
    match args.get("fault-plan") {
        Some(spec) => FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}")),
        None => Ok(FaultPlan::none()),
    }
}

/// Fails on the first of `flags` that was passed: a path that cannot
/// honour a flag says so instead of silently ignoring it.
fn reject_flags(args: &Args, flags: &[&str], context: &str) -> Result<(), String> {
    match flags.iter().find(|flag| args.get(flag).is_some()) {
        Some(flag) => Err(format!("--{flag} is not supported {context}")),
        None => Ok(()),
    }
}

/// Shared by `partition` and `sample`: build the `Partitioner`, run it,
/// report, write the assignment. Ctrl-C is wired to the run's
/// `CancelToken` so a long search returns best-so-far instead of dying.
fn run_partitioner(
    args: &Args,
    source: &GraphSource,
    backend: Option<Backend>,
    sample: Option<f64>,
) -> Result<u8, String> {
    let sbp = sbp_config(args)?;
    let seed = sbp.seed;
    let mut partitioner = match source {
        GraphSource::Mem(graph) => Partitioner::on(graph),
        GraphSource::Shards(dir) => Partitioner::on_sharded(dir),
    }
    .config(sbp)
    .sync_period(sync_period(args)?)
    .fault_plan(fault_plan(args)?);
    if let Some(backend) = backend {
        partitioner = partitioner.backend(backend);
    }
    if let Some(fraction) = sample {
        let strategy = parse_strategy(args.get("strategy").unwrap_or("snowball"))?;
        partitioner = partitioner.sample(strategy, fraction);
    }
    if let Some(path) = args.get("checkpoint") {
        partitioner = partitioner.checkpoint_to(path);
    }
    partitioner = partitioner.checkpoint_every(args.num("checkpoint-every", 1usize)?.max(1));
    if let Some(path) = args.get("resume") {
        partitioner = partitioner.resume_from(path);
    }
    let token = CancelToken::new();
    if sigint::install(token.clone()) {
        partitioner = partitioner.cancel_token(token);
    }
    let show_progress = args.get("progress").is_some_and(|v| v != "false");
    let mlog = match args.get("metrics-out") {
        Some(path) => {
            // Zero the process-wide registry so the snapshot line at the
            // end covers exactly this run.
            sbp_metrics::reset();
            let log = MetricsLog::create(path)?;
            Some(std::rc::Rc::new(std::cell::RefCell::new(log)))
        }
        None => None,
    };
    if let Some(m) = &mlog {
        let backend_name = args.get("backend").unwrap_or(match source {
            GraphSource::Mem(_) => "sequential",
            GraphSource::Shards(_) => "edist",
        });
        let vertices = match source {
            GraphSource::Mem(graph) => graph.num_vertices(),
            GraphSource::Shards(_) => 0, // not known before ingest
        };
        m.borrow_mut().line(jobj(vec![
            ("type", jstr("meta")),
            ("schema", jnum(1.0)),
            ("backend", jstr(backend_name)),
            ("seed", jnum(seed as f64)),
            ("vertices", jnum(vertices as f64)),
        ]));
    }
    if show_progress || mlog.is_some() {
        let mlog = mlog.clone();
        partitioner = partitioner.progress(move |event| {
            if show_progress {
                match event {
                    ProgressEvent::ClusterStarted { ranks } => {
                        eprintln!("spawning {ranks} simulated ranks");
                    }
                    ProgressEvent::PhaseStarted { phase } => eprintln!("phase: {phase}"),
                    ProgressEvent::Sweep {
                        iteration,
                        sweep,
                        dl,
                        proposed,
                        accepted,
                    } => eprintln!(
                        "  iter {iteration:>3} sweep {sweep:>3}: DL {dl:.2}  \
                         ({accepted}/{proposed} proposals accepted)"
                    ),
                    ProgressEvent::Iteration { iteration, stat } => eprintln!(
                        "iter {iteration:>3}: {:>6} blocks  DL {:.2}  ({} sweeps, {} moves)",
                        stat.num_blocks, stat.dl, stat.sweeps, stat.moves
                    ),
                    _ => {}
                }
            }
            if let Some(m) = &mlog {
                match event {
                    ProgressEvent::Sweep {
                        iteration,
                        sweep,
                        dl,
                        proposed,
                        accepted,
                    } => m.borrow_mut().line(jobj(vec![
                        ("type", jstr("sweep")),
                        ("iteration", jnum(*iteration as f64)),
                        ("sweep", jnum(*sweep as f64)),
                        ("dl", jnum(*dl)),
                        ("proposed", jnum(*proposed as f64)),
                        ("accepted", jnum(*accepted as f64)),
                    ])),
                    ProgressEvent::Iteration { iteration, stat } => {
                        let mut line = vec![
                            ("type", jstr("iteration")),
                            ("iteration", jnum(*iteration as f64)),
                            ("blocks", jnum(stat.num_blocks as f64)),
                            ("dl", jnum(stat.dl)),
                        ];
                        if let Some(kib) = peak_rss_kib() {
                            line.push(("peak_rss_kib", jnum(kib as f64)));
                        }
                        m.borrow_mut().line(jobj(line))
                    }
                    _ => {}
                }
            }
        });
    }
    let run = partitioner.run().map_err(|e| e.to_string())?;
    if let Some(m) = &mlog {
        let mut m = m.borrow_mut();
        m.line(jobj(vec![
            ("type", jstr("summary")),
            ("dl", jnum(run.description_length)),
            ("blocks", jnum(run.num_blocks as f64)),
            ("wall_seconds", jnum(run.wall_seconds)),
            ("virtual_seconds", jnum(run.virtual_seconds)),
        ]));
        m.line(jobj(vec![
            ("type", jstr("snapshot")),
            ("metrics", sbp_metrics::snapshot().to_json()),
        ]));
        m.finish()?;
        eprintln!("metrics written to {}", m.path);
    }
    report_run(args, source, &run, None)
}

/// The one reporter behind every `partition`/`sample` path: run notes
/// and the summary line on stderr, `--trajectory-out`, the assignment.
/// `tcp_rank` is `Some` for one rank of a real cluster, whose view of
/// the [`ClusterReport`] is rank-local; results are bit-identical across
/// the cluster's ranks, so every rank may write its own `--out` /
/// `--trajectory-out`, but only rank 0 speaks for the run on stderr and
/// prints the assignment when there is no `--out` (a `tcp-local` launch
/// then emits it exactly once).
fn report_run(
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
    Ok(degraded_exit_code(args, run.degraded.is_some()))
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
                "tcp cluster (rank-local view): {:.3}s wire time over {} collectives \
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

/// Exit code for a completed run: [`EXIT_DEGRADED`] only when the run
/// degraded AND `--fail-on-degraded true` was passed. The default stays
/// 0 — degraded runs still wrote their best partition, and existing
/// scripts depend on that.
fn degraded_exit_code(args: &Args, degraded: bool) -> u8 {
    let fail = args
        .get("fail-on-degraded")
        .is_some_and(|v| v != "false" && v != "0");
    if degraded && fail {
        EXIT_DEGRADED
    } else {
        0
    }
}

fn cmd_partition(args: &Args) -> Result<u8, String> {
    // A real multi-process cluster peels off before the in-process
    // simulator paths: `tcp` runs ONE rank of it in this process,
    // `tcp-local` is the launcher that spawns N such processes on
    // localhost and waits for them.
    match args.get("cluster") {
        None | Some("thread") => {}
        Some("tcp") => return cmd_partition_tcp(args),
        Some("tcp-local") => return cmd_partition_tcp_local(args),
        Some(other) => {
            return Err(format!(
                "unknown --cluster mode '{other}' (thread, tcp, tcp-local)"
            ));
        }
    }
    let ranks: usize = args.num("ranks", 4usize)?;
    let name = args.get("backend");
    let source = graph_source(args)?;
    let backend = match (&source, name, args.get("ranks")) {
        // A sharded source defaults to EDiSt on one rank per shard; a
        // file source keeps the historical sequential default.
        (GraphSource::Shards(_), None, None) => None,
        // An explicit --ranks travels into the backend so the facade's
        // shard-count check rejects mismatches with its own message.
        (GraphSource::Shards(_), None, Some(_)) => Some(Backend::Edist { ranks }),
        (GraphSource::Shards(_), Some(name), Some(_)) => Some(parse_backend(name, ranks)?),
        // Only a named backend WITHOUT --ranks needs the shard count up
        // front — the single case the CLI pre-reads the headers for
        // (the facade validates once more when it runs).
        (GraphSource::Shards(dir), Some(name), None) => {
            let header =
                validate_shard_dir(Path::new(dir)).map_err(|e| format!("--sharded {dir}: {e}"))?;
            Some(parse_backend(name, header.shard_count)?)
        }
        (GraphSource::Mem(_), None, _) => Some(Backend::Sequential),
        (GraphSource::Mem(_), Some(name), _) => Some(parse_backend(name, ranks)?),
    };
    let sample = match args.get("sample") {
        Some(_) => Some(args.num("sample", 0.5f64)?),
        None => None,
    };
    run_partitioner(args, &source, backend, sample)
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

/// Flags the real-cluster paths cannot honour: the golden-loop snapshot,
/// the metrics log and the progress stream are wired through the
/// in-process `Partitioner`, and sampling wraps a whole-graph solver.
fn reject_tcp_flags(args: &Args) -> Result<(), String> {
    reject_flags(
        args,
        &["checkpoint", "resume", "metrics-out", "progress", "sample"],
        "with --cluster tcp|tcp-local (use the in-process --cluster thread)",
    )
}

/// One rank of a real TCP cluster: rendezvous at `--coordinator`, run
/// the same per-rank body the thread simulator runs, report.
fn cmd_partition_tcp(args: &Args) -> Result<u8, String> {
    use edist::dist::{run_tcp_rank, ShardedBackend, TcpSource};
    use edist::mpi::TcpConfig;
    use std::time::Duration;

    reject_tcp_flags(args)?;
    let required = |key: &str| args.require(key).and_then(|_| args.num(key, 0usize));
    let (rank, ranks) = (required("rank")?, required("ranks")?);
    let coordinator = args.require("coordinator")?;
    let mut tcp = TcpConfig::new(args.num("session", 0u64)?, rank, ranks, coordinator);
    tcp.handshake_timeout = Duration::from_secs(args.num("handshake-timeout", 30u64)?.max(1));
    // The read timeout is the fault-tolerance backstop: a killed peer
    // never hangs a survivor longer than this.
    tcp.read_timeout = Some(Duration::from_secs(args.num("tcp-timeout", 120u64)?.max(1)));

    let name = args.get("backend").unwrap_or("edist");
    let period = sync_period(args)?;
    let backend = match name {
        "edist" => ShardedBackend::Edist {
            sync_period: period,
        },
        "dcsbp" => ShardedBackend::DcSbp,
        other => {
            return Err(format!(
                "--cluster tcp supports --backend edist|dcsbp, got '{other}'"
            ));
        }
    };
    let source = graph_source(args)?;
    if let GraphSource::Shards(dir) = &source {
        let header =
            validate_shard_dir(Path::new(dir)).map_err(|e| format!("--sharded {dir}: {e}"))?;
        if header.shard_count != ranks {
            return Err(format!(
                "--sharded {dir} holds {} shards but --ranks is {ranks}",
                header.shard_count
            ));
        }
    }
    let cfg = RunConfig::from_sbp(sbp_config(args)?);
    let _ = sigint::install(cfg.cancel.clone());

    let tcp_source = match &source {
        GraphSource::Mem(graph) => TcpSource::Graph(graph),
        GraphSource::Shards(dir) => TcpSource::Shards(Path::new(dir)),
    };
    let tcp_run = run_tcp_rank(&tcp, tcp_source, backend, &cfg, &fault_plan(args)?)
        .map_err(|e| format!("tcp cluster (rank {rank}): {e}"))?;
    let wall = tcp_run.outcome.cluster.map_or(0.0, |r| r.wall_seconds);
    let backend = format!("{name}(ranks={ranks})+tcp");
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
fn cmd_partition_tcp_local(args: &Args) -> Result<u8, String> {
    reject_tcp_flags(args)?;
    sync_period(args)?; // refused once here, not by every child
    let ranks: usize = args.num("ranks", 4usize)?;
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
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
        for (key, value) in &args.map {
            if matches!(key.as_str(), "cluster" | "rank" | "coordinator" | "session") {
                continue;
            }
            if rank != 0 && matches!(key.as_str(), "out" | "trajectory-out") {
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

fn cmd_sample(args: &Args) -> Result<u8, String> {
    let graph = load(args)?;
    let fraction: f64 = args.num("fraction", 0.5f64)?;
    run_partitioner(
        args,
        &GraphSource::Mem(graph),
        Some(Backend::Sequential),
        Some(fraction),
    )
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let pred = read_assignment(args.require("pred")?)?;
    let truth = read_assignment(args.require("truth")?)?;
    if pred.len() != truth.len() {
        return Err(format!(
            "length mismatch: {} predictions vs {} truth labels",
            pred.len(),
            truth.len()
        ));
    }
    println!("NMI: {:.4}", nmi(&pred, &truth));
    println!("ARI: {:.4}", adjusted_rand_index(&pred, &truth));
    let pr = edist::eval::pairwise::pairwise_scores(&pred, &truth);
    println!(
        "pairwise precision: {:.4}  recall: {:.4}  F1: {:.4}",
        pr.precision, pr.recall, pr.f1
    );
    Ok(())
}

fn cmd_islands(args: &Args) -> Result<(), String> {
    let graph = load(args)?;
    let ranks_spec = args.get("ranks").unwrap_or("1,2,4,8,16,32,64");
    println!("{:>8} {:>10} {:>10}", "ranks", "islands", "fraction");
    for tok in ranks_spec.split(',') {
        let n: usize = match tok.trim().parse() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("bad rank count '{tok}' (at least 1)")),
        };
        let rep = island_fraction_round_robin(&graph, n);
        println!("{:>8} {:>10} {:>10.4}", n, rep.islands, rep.fraction());
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let g = load(args)?;
    let n = g.num_vertices();
    let mut degs: Vec<i64> = (0..n as u32).map(|v| g.degree(v)).collect();
    degs.sort_unstable();
    let quantile = |q: f64| -> i64 {
        if degs.is_empty() {
            0
        } else {
            degs[((degs.len() - 1) as f64 * q) as usize]
        }
    };
    println!("vertices:        {n}");
    println!("arcs:            {}", g.num_arcs());
    println!("total weight:    {}", g.total_edge_weight());
    println!(
        "avg out-degree:  {:.2}",
        g.total_edge_weight() as f64 / n.max(1) as f64
    );
    println!(
        "degree p50/p90/p99/max: {}/{}/{}/{}",
        quantile(0.5),
        quantile(0.9),
        quantile(0.99),
        degs.last().copied().unwrap_or(0)
    );
    println!(
        "isolated:        {}",
        (0..n as u32).filter(|&v| g.degree(v) == 0).count()
    );
    Ok(())
}

/// `edist-cli report run.jsonl [--out report.html]`: render a
/// `--metrics-out` JSONL file as a self-contained HTML report (inline
/// SVG charts, no external assets). Without `--out` the report lands
/// next to the input with an `.html` extension.
fn cmd_report(argv: &[String]) -> Result<(), String> {
    let mut input: Option<&str> = None;
    let mut out: Option<String> = None;
    let mut it = argv.iter();
    while let Some(tok) = it.next() {
        if tok == "--out" {
            out = Some(it.next().ok_or("flag --out needs a value")?.to_string());
        } else if tok.starts_with("--") {
            return Err(format!("unknown report flag '{tok}'"));
        } else if input.is_none() {
            input = Some(tok);
        } else {
            return Err(format!("unexpected extra argument '{tok}'"));
        }
    }
    let input = input.ok_or("usage: report run.jsonl [--out report.html]")?;
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
    let out = out.unwrap_or_else(|| {
        let p = Path::new(input);
        p.with_extension("html").to_string_lossy().into_owned()
    });
    std::fs::write(&out, html).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("report written to {out}");
    Ok(())
}

/// `edist-cli serve`: run the resident partition daemon in-process.
/// Thin wrapper over `sbp-serve` — same flags, same wire protocol, so
/// one binary covers both the one-shot and the resident workflow.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let listen = edist::serve::Listen::parse(args.require("listen")?).map_err(|e| e.to_string())?;
    let graph = match (args.get("graph"), args.get("sharded")) {
        (Some(_), Some(_)) => return Err("pass either --graph or --sharded, not both".into()),
        (Some(path), None) => {
            load_graph(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?
        }
        (None, Some(dir)) => edist::graph::shard::unshard_graph(Path::new(dir))
            .map_err(|e| format!("loading shard dir {dir}: {e}"))?,
        (None, None) => return Err("one of --graph or --sharded is required".into()),
    };
    let options = ServerOptions {
        backend: args.get("backend").unwrap_or("sequential").to_string(),
        spec: SolverSpec {
            ranks: args.num("ranks", 1usize)?,
            sync_period: sync_period(args)?,
        },
        seed: args.num("seed", 0u64)?,
        resume: args.get("resume").map(std::path::PathBuf::from),
        checkpoint_on_shutdown: args.get("checkpoint").map(std::path::PathBuf::from),
    };
    eprintln!(
        "serve: loaded graph with {} vertices, solving with backend '{}'...",
        graph.num_vertices(),
        options.backend
    );
    let mut server = Server::new(graph, options, default_registry()).map_err(|e| e.to_string())?;
    eprintln!(
        "serve: warm partition ready ({} blocks, DL {:.4})",
        server.num_blocks(),
        server.description_length()
    );
    edist::serve::serve(&mut server, &listen, |l| {
        let addr = match l {
            edist::serve::Listen::Unix(p) => format!("unix:{}", p.display()),
            edist::serve::Listen::Tcp(a) => format!("tcp:{a}"),
        };
        println!("listening on {addr}");
    })
    .map_err(|e| e.to_string())
}

/// Parses `--ingest "src,dst,delta;src,dst,delta;..."`.
fn parse_deltas(spec: &str) -> Result<Vec<edist::graph::EdgeDelta>, String> {
    spec.split(';')
        .filter(|t| !t.trim().is_empty())
        .map(|triple| {
            let parts: Vec<&str> = triple.split(',').map(str::trim).collect();
            let [src, dst, delta] = parts.as_slice() else {
                return Err(format!("bad delta '{triple}' (want src,dst,delta)"));
            };
            Ok(edist::graph::EdgeDelta {
                src: src.parse().map_err(|_| format!("bad src '{src}'"))?,
                dst: dst.parse().map_err(|_| format!("bad dst '{dst}'"))?,
                delta: delta.parse().map_err(|_| format!("bad delta '{delta}'"))?,
            })
        })
        .collect()
}

/// `edist-cli connect`: one request against a running daemon, result on
/// stdout. An `Error` reply from the daemon exits 1 with its code and
/// message; `--badframe true` expects an error reply (that is the test)
/// and exits 0 on receiving one.
fn cmd_connect(args: &Args) -> Result<u8, String> {
    let listen = edist::serve::Listen::parse(args.require("to")?).map_err(|e| e.to_string())?;
    let mut client = Client::connect(&listen).map_err(|e| format!("connecting: {e}"))?;
    if args.get("badframe").is_some_and(|v| v != "false") {
        // Deliberately hostile bytes: the frame tag and a tiny length,
        // then garbage where the checksum belongs. The daemon must answer
        // with a typed error frame and keep running — never die.
        let mut probe = vec![edist::serve::protocol::FRAME_TAG, 4];
        probe.extend_from_slice(b"garbage-bytes");
        let reply = client
            .send_raw(&probe)
            .map_err(|e| format!("badframe probe: {e}"))?;
        return match reply {
            Response::Error { code, message } => {
                println!("daemon survived the bad frame: error code {code}: {message}");
                Ok(0)
            }
            other => Err(format!("expected an error frame, got {other:?}")),
        };
    }
    let request = if let Some(spec) = args.get("ingest") {
        Request::Ingest(parse_deltas(spec)?)
    } else if let Some(mode) = args.get("repartition") {
        let mode = match mode {
            "warm" => edist::serve::protocol::RepartitionMode::Warm,
            "cold" => edist::serve::protocol::RepartitionMode::Cold,
            other => return Err(format!("--repartition must be warm or cold, got '{other}'")),
        };
        Request::Repartition {
            mode,
            backend: args.get("backend").unwrap_or("").to_string(),
        }
    } else if let Some(ids) = args.get("membership") {
        let mut vs: Vec<u32> = ids
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| t.trim().parse().map_err(|_| format!("bad vertex '{t}'")))
            .collect::<Result<_, _>>()?;
        vs.sort_unstable();
        vs.dedup();
        Request::Membership(vs)
    } else if args.get("stats").is_some_and(|v| v != "false") {
        Request::Stats
    } else if args.get("metrics").is_some_and(|v| v != "false") {
        Request::Metrics
    } else if let Some(path) = args.get("checkpoint") {
        Request::Checkpoint(path.to_string())
    } else if args.get("shutdown").is_some_and(|v| v != "false") {
        Request::Shutdown
    } else {
        return Err(
            "pass one of --ingest, --repartition, --membership, --stats true, \
             --metrics true, --checkpoint PATH, --shutdown true, --badframe true"
                .into(),
        );
    };
    let as_json = args.get("json").is_some_and(|v| v != "false");
    let ids_echo = match &request {
        Request::Membership(ids) => ids.clone(),
        _ => Vec::new(),
    };
    let reply = client
        .request(&request)
        .map_err(|e| format!("request failed: {e}"))?;
    match reply {
        Response::Error { code, message } => Err(format!("daemon error {code}: {message}")),
        Response::IngestAck { pending_deltas } => {
            println!("ingested: {pending_deltas} deltas pending");
            Ok(0)
        }
        Response::RepartitionDone {
            num_blocks,
            dl,
            iterations,
            swept_vertices,
        } => {
            println!(
                "repartitioned: {num_blocks} blocks  DL {dl:.2}  \
                 ({iterations} iterations, {swept_vertices} vertices swept)"
            );
            Ok(0)
        }
        Response::Membership(labels) => {
            for (v, label) in ids_echo.iter().zip(&labels) {
                println!("{v} {label}");
            }
            Ok(0)
        }
        Response::Stats(stats) => {
            if as_json {
                let trajectory = sbp_metrics::json::Value::Arr(
                    stats
                        .trajectory_tail
                        .iter()
                        .map(|p| {
                            jobj(vec![
                                ("blocks", jnum(p.num_blocks as f64)),
                                ("dl", jnum(p.dl)),
                            ])
                        })
                        .collect(),
                );
                println!(
                    "{}",
                    jobj(vec![
                        ("vertices", jnum(stats.num_vertices as f64)),
                        ("blocks", jnum(stats.num_blocks as f64)),
                        ("dl", jnum(stats.dl)),
                        ("pending_deltas", jnum(stats.pending_deltas as f64)),
                        ("degraded", jnum(f64::from(stats.degraded))),
                        ("backend", jstr(&stats.backend)),
                        ("uptime_seconds", jnum(stats.uptime_seconds)),
                        ("ingests", jnum(stats.ingests as f64)),
                        ("repartitions", jnum(stats.repartitions as f64)),
                        ("trajectory_tail", trajectory),
                    ])
                );
            } else {
                println!("vertices:       {}", stats.num_vertices);
                println!("blocks:         {}", stats.num_blocks);
                println!("DL:             {:.2}", stats.dl);
                println!("pending deltas: {}", stats.pending_deltas);
                println!("degraded:       {}", stats.degraded);
                println!("backend:        {}", stats.backend);
                println!("uptime:         {:.1}s", stats.uptime_seconds);
                println!("ingests:        {}", stats.ingests);
                println!("repartitions:   {}", stats.repartitions);
                for p in &stats.trajectory_tail {
                    println!("  trajectory: {} blocks  DL {:.2}", p.num_blocks, p.dl);
                }
            }
            Ok(0)
        }
        Response::Metrics {
            snapshot_json,
            prometheus,
        } => {
            if as_json {
                println!("{snapshot_json}");
            } else {
                print!("{prometheus}");
            }
            Ok(0)
        }
        Response::CheckpointDone { bytes } => {
            println!("checkpoint written ({bytes} bytes)");
            Ok(0)
        }
        Response::ShutdownAck => {
            println!("daemon shut down");
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn args_parse_pairs() {
        let a = Args::parse(&argv(&["--x", "1", "--name", "foo"])).unwrap();
        assert_eq!(a.get("x"), Some("1"));
        assert_eq!(a.require("name").unwrap(), "foo");
        assert_eq!(a.num::<u32>("x", 0).unwrap(), 1);
        assert_eq!(a.num::<u32>("missing", 9).unwrap(), 9);
    }

    #[test]
    fn args_reject_bad_shapes() {
        assert!(Args::parse(&argv(&["positional"])).is_err());
        assert!(Args::parse(&argv(&["--dangling"])).is_err());
        let a = Args::parse(&argv(&["--x", "abc"])).unwrap();
        assert!(a.num::<u32>("x", 0).is_err());
        assert!(a.require("nope").is_err());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&[])).is_err());
        assert!(run(&argv(&["help"])).is_ok());
    }

    #[test]
    fn unknown_backend_is_an_error() {
        assert!(parse_backend("quantum", 2).is_err());
        assert!(parse_backend("edist", 2).is_ok());
        // The typed spellings and the registry's names are one list.
        for name in default_registry().names() {
            assert!(parse_backend(&name, 2).is_ok(), "registry name '{name}'");
        }
        assert!(parse_strategy("telepathy").is_err());
    }

    #[test]
    fn generate_partition_evaluate_roundtrip() {
        let dir = std::env::temp_dir();
        let gpath = dir.join("edist_cli_test.mtx");
        let tpath = dir.join("edist_cli_truth.txt");
        let apath = dir.join("edist_cli_assign.txt");
        run(&argv(&[
            "generate",
            "--family",
            "challenge",
            "--vertices",
            "300",
            "--difficulty",
            "easy",
            "--out",
            gpath.to_str().unwrap(),
            "--truth",
            tpath.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "partition",
            "--graph",
            gpath.to_str().unwrap(),
            "--backend",
            "edist",
            "--ranks",
            "2",
            "--progress",
            "true",
            "--out",
            apath.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "evaluate",
            "--pred",
            apath.to_str().unwrap(),
            "--truth",
            tpath.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "islands",
            "--graph",
            gpath.to_str().unwrap(),
            "--ranks",
            "1,4",
        ]))
        .unwrap();
        run(&argv(&["stats", "--graph", gpath.to_str().unwrap()])).unwrap();
        for p in [&gpath, &tpath, &apath] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn shard_partition_sharded_roundtrip() {
        let dir = std::env::temp_dir();
        let gpath = dir.join("edist_cli_shard_test.mtx");
        let tpath = dir.join("edist_cli_shard_truth.txt");
        let sdir = dir.join(format!("edist_cli_shards_{}", std::process::id()));
        let apath = dir.join("edist_cli_shard_assign.txt");
        let _ = std::fs::remove_dir_all(&sdir);
        run(&argv(&[
            "generate",
            "--family",
            "challenge",
            "--vertices",
            "300",
            "--difficulty",
            "easy",
            "--out",
            gpath.to_str().unwrap(),
            "--truth",
            tpath.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "shard",
            "--graph",
            gpath.to_str().unwrap(),
            "--ranks",
            "2",
            "--strategy",
            "balanced",
            "--out",
            sdir.to_str().unwrap(),
        ]))
        .unwrap();
        // Default backend over shards is EDiSt on one rank per shard.
        run(&argv(&[
            "partition",
            "--sharded",
            sdir.to_str().unwrap(),
            "--progress",
            "true",
            "--out",
            apath.to_str().unwrap(),
        ]))
        .unwrap();
        let labels = read_assignment(apath.to_str().unwrap()).unwrap();
        assert_eq!(labels.len(), 300);
        run(&argv(&[
            "evaluate",
            "--pred",
            apath.to_str().unwrap(),
            "--truth",
            tpath.to_str().unwrap(),
        ]))
        .unwrap();
        // Explicit dcsbp backend over the same shards also works.
        run(&argv(&[
            "partition",
            "--sharded",
            sdir.to_str().unwrap(),
            "--backend",
            "dcsbp",
            "--out",
            apath.to_str().unwrap(),
        ]))
        .unwrap();
        // Conflicting --ranks is rejected up front.
        assert!(run(&argv(&[
            "partition",
            "--sharded",
            sdir.to_str().unwrap(),
            "--ranks",
            "5",
        ]))
        .is_err());
        // Unknown strategy and missing dir are surfaced as errors.
        assert!(run(&argv(&[
            "shard",
            "--graph",
            gpath.to_str().unwrap(),
            "--strategy",
            "quantum",
            "--out",
            sdir.to_str().unwrap(),
        ]))
        .is_err());
        assert!(run(&argv(&["partition", "--sharded", "/no/such/dir"])).is_err());
        // --graph and --sharded are mutually exclusive.
        assert!(run(&argv(&[
            "partition",
            "--graph",
            gpath.to_str().unwrap(),
            "--sharded",
            sdir.to_str().unwrap(),
        ]))
        .is_err());
        for p in [&gpath, &tpath, &apath] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// Asserts `partition --cluster MODE` rejects each flag by name,
    /// before touching the graph or the network.
    fn assert_tcp_rejects(flags: &[(&str, &str)]) {
        for mode in ["tcp", "tcp-local"] {
            for &(flag, value) in flags {
                let err = run(&argv(&[
                    "partition",
                    "--graph",
                    "/no/such/graph.mtx",
                    "--cluster",
                    mode,
                    &format!("--{flag}"),
                    value,
                ]))
                .expect_err("an unsupported flag must not be silently ignored");
                assert!(err.contains(&format!("--{flag}")), "{mode}: {err}");
            }
        }
    }

    #[test]
    fn tcp_rejects_checkpoint_and_resume() {
        assert_tcp_rejects(&[("checkpoint", "s.sbpc"), ("resume", "s.sbpc")]);
    }

    #[test]
    fn tcp_rejects_metrics_out_and_progress() {
        assert_tcp_rejects(&[("metrics-out", "run.jsonl"), ("progress", "true")]);
    }

    #[test]
    fn tcp_rejects_sample() {
        assert_tcp_rejects(&[("sample", "0.5")]);
    }

    /// `--sync-period 0` is refused with the facade's error on every
    /// path, never clamped to 1 on one of them.
    #[test]
    fn zero_sync_period_is_one_error_on_every_path() {
        let gpath = std::env::temp_dir().join("edist_cli_sync0.txt");
        std::fs::write(&gpath, "0 1\n1 2\n2 0\n").unwrap();
        let g = gpath.to_str().unwrap();
        let want = PartitionError::ZeroSyncPeriod.to_string();
        let partition = ["partition", "--graph", g, "--backend", "edist"];
        let tcp = [
            "--cluster",
            "tcp",
            "--rank",
            "0",
            "--ranks",
            "1",
            "--coordinator",
            "127.0.0.1:1",
        ];
        for extra in [&[][..], &tcp, &["--cluster", "tcp-local"]] {
            let args = [&partition[..], extra, &["--sync-period", "0"]].concat();
            assert_eq!(run(&argv(&args)), Err(want.clone()), "{extra:?}");
        }
        let serve = [
            "serve",
            "--graph",
            g,
            "--listen",
            "unix:/no/such/dir/d.sock",
        ];
        assert_eq!(
            run(&argv(&[&serve[..], &["--sync-period", "0"]].concat())),
            Err(want)
        );
        let _ = std::fs::remove_file(&gpath);
    }

    /// `partition --ranks 0` is the facade's zero-ranks error for both
    /// distributed backends, never a run at one rank.
    #[test]
    fn zero_ranks_partition_is_refused() {
        let gpath = std::env::temp_dir().join("edist_cli_ranks0.txt");
        std::fs::write(&gpath, "0 1\n1 2\n2 0\n").unwrap();
        let g = gpath.to_str().unwrap();
        let partition = ["partition", "--graph", g, "--ranks", "0", "--backend"];
        for backend in ["edist", "dcsbp"] {
            let args = [&partition[..], &[backend]].concat();
            assert_eq!(
                run(&argv(&args)),
                Err(PartitionError::ZeroRanks.to_string()),
                "{backend}"
            );
        }
        let _ = std::fs::remove_file(&gpath);
    }

    /// `islands --ranks` refuses a zero rank count instead of printing a
    /// row computed at one rank.
    #[test]
    fn zero_ranks_islands_is_refused() {
        let gpath = std::env::temp_dir().join("edist_cli_islands0.txt");
        std::fs::write(&gpath, "0 1\n1 2\n2 0\n").unwrap();
        let g = gpath.to_str().unwrap();
        let got = run(&argv(&["islands", "--graph", g, "--ranks", "0,2"]));
        assert_eq!(got, Err("bad rank count '0' (at least 1)".to_string()));
        assert!(run(&argv(&["islands", "--graph", g, "--ranks", "1,2"])).is_ok());
        let _ = std::fs::remove_file(&gpath);
    }

    #[cfg(unix)]
    #[test]
    fn sigint_watcher_cancels_token() {
        // Other tests in this binary also call install() (through
        // run_partitioner) and may swap the current token concurrently,
        // so re-register and re-trigger each attempt instead of racing a
        // single 50ms watcher poll.
        let token = CancelToken::new();
        assert!(sigint::install(token.clone()));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !token.is_cancelled() && std::time::Instant::now() < deadline {
            sigint::install(token.clone());
            sigint::trigger_for_test();
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(token.is_cancelled(), "watcher never cancelled the token");
    }

    #[test]
    fn sample_subcommand_works() {
        let dir = std::env::temp_dir();
        let gpath = dir.join("edist_cli_sample.mtx");
        run(&argv(&[
            "generate",
            "--family",
            "challenge",
            "--vertices",
            "300",
            "--out",
            gpath.to_str().unwrap(),
        ]))
        .unwrap();
        let apath = dir.join("edist_cli_sample_assign.txt");
        run(&argv(&[
            "sample",
            "--graph",
            gpath.to_str().unwrap(),
            "--fraction",
            "0.5",
            "--strategy",
            "uniform",
            "--out",
            apath.to_str().unwrap(),
        ]))
        .unwrap();
        let labels = read_assignment(apath.to_str().unwrap()).unwrap();
        assert_eq!(labels.len(), 300);
        let _ = std::fs::remove_file(&gpath);
        let _ = std::fs::remove_file(&apath);
    }
}
