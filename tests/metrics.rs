//! The observe-only determinism contract: solver output is
//! **bit-identical** with metrics recording enabled or disabled.
//!
//! Three layers of evidence:
//!
//! * **In-process**, toggling the process-wide switch
//!   (`sbp_metrics::set_enabled`) around full [`Run`]s — assignments,
//!   DL bits, and per-iteration trajectories compared for the
//!   `Sequential`, `Hybrid`, and `Batch` backends under 1 and 4 pooled
//!   workers, for `Edist` at 1, 2, and 4 simulated ranks (whose
//!   rank threads read the same global flag), for a search whose
//!   golden-search probes run ahead on the pool, and for a daemon's warm
//!   round, whose every request is timed.
//! * **Cross-process**, via the CLI: the same graph partitioned with
//!   `SBP_METRICS=0` and with `--metrics-out` streaming the full JSONL
//!   feed, under `SBP_THREADS` 1 and 4 — all four assignments must
//!   match byte for byte. The emitted JSONL is then schema-checked
//!   line by line and fed to the HTML report renderer.
//! * **Property tests** over the JSONL encoding: event lines and
//!   whole snapshots round-trip through the canonical writer and the
//!   hostile-input parser unchanged.
//!
//! The enable flag is process-global, so every test that toggles it
//! holds a file-local mutex and restores the default (on) before
//! releasing it.

use std::collections::BTreeMap;
use std::sync::Mutex;

use edist::graph::fixtures::{clique_ring, two_cliques};
use edist::metrics::json::Value;
use edist::metrics::{MetricValue, Snapshot};
use edist::prelude::*;
use proptest::prelude::*;

#[allow(dead_code)] // only `assert_bit_identical` is used here
mod common;
use common::assert_bit_identical;

/// Serializes the tests that flip the process-global enable flag.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs a backend with metrics recording forced on or off, under a
/// scoped worker count, restoring the default (enabled) afterwards.
fn run_with_metrics(
    g: &Graph,
    cfg: SbpConfig,
    backend: Backend,
    threads: usize,
    metrics_on: bool,
) -> Run {
    edist::metrics::set_enabled(metrics_on);
    let run = rayon::with_threads(threads, || {
        Partitioner::on(g)
            .backend(backend)
            .config(cfg)
            .run()
            .expect("partition run failed")
    });
    edist::metrics::set_enabled(true);
    run
}

#[test]
fn metrics_on_and_off_runs_are_bit_identical_single_node() {
    let _serial = serial();
    let g = two_cliques(8);
    for (name, backend, strategy) in [
        (
            "sequential",
            Backend::Sequential,
            McmcStrategy::MetropolisHastings,
        ),
        ("hybrid", Backend::Hybrid, McmcStrategy::Hybrid),
        ("batch", Backend::Batch, McmcStrategy::Batch),
    ] {
        let cfg = SbpConfig {
            strategy,
            seed: 11,
            ..SbpConfig::default()
        };
        for threads in [1usize, 4] {
            let on = run_with_metrics(&g, cfg.clone(), backend, threads, true);
            let off = run_with_metrics(&g, cfg.clone(), backend, threads, false);
            assert_bit_identical(
                &on,
                &off,
                &format!("{name}/{threads} threads: metrics on vs off"),
            );
        }
    }
}

#[test]
fn metrics_on_and_off_runs_are_bit_identical_edist_ranks() {
    let _serial = serial();
    let g = two_cliques(8);
    let cfg = SbpConfig {
        seed: 11,
        ..SbpConfig::default()
    };
    for ranks in [1usize, 2, 4] {
        let backend = Backend::Edist { ranks };
        let on = run_with_metrics(&g, cfg.clone(), backend, 4, true);
        let off = run_with_metrics(&g, cfg.clone(), backend, 4, false);
        assert_bit_identical(
            &on,
            &off,
            &format!("edist/{ranks} ranks: metrics on vs off"),
        );
    }
}

/// The overlap and the daemon's request timings are observe-only too. A
/// search that runs probes ahead on the pool — and commits one — and a
/// daemon's warm round are bit-identical with recording on and off; with
/// it on, the run counts the committed probe and the daemon times every
/// request kind it served.
#[test]
fn metrics_on_and_off_agree_where_probes_run_ahead_and_requests_are_timed() {
    use edist::metrics::{counter, histogram, labeled, TIME_BUCKETS};
    use edist::serve::protocol::RepartitionMode;
    let _serial = serial();
    let g = clique_ring(24);
    let cfg = SbpConfig {
        seed: 1,
        ..SbpConfig::default()
    };
    let committed = || {
        counter(&labeled(
            "sbp_solver_overlapped_iterations_total",
            "outcome",
            "committed",
        ))
        .get()
    };
    let before = committed();
    let on = run_with_metrics(&g, cfg.clone(), Backend::Sequential, 4, true);
    let ran_ahead = committed() - before;
    let off = run_with_metrics(&g, cfg, Backend::Sequential, 4, false);
    assert_bit_identical(&on, &off, "probes run ahead: metrics on vs off");
    assert!(ran_ahead > 0, "the fixture committed no probe run ahead");

    let timed = |kind: &str| {
        histogram(
            &labeled("sbp_daemon_request_seconds", "kind", kind),
            &TIME_BUCKETS,
        )
        .count()
    };
    let round = |metrics_on: bool| -> Vec<Response> {
        edist::metrics::set_enabled(metrics_on);
        let replies = rayon::with_threads(4, || {
            let options = ServerOptions {
                seed: 1,
                ..ServerOptions::default()
            };
            let mut server = Server::new(g.clone(), options, default_registry()).expect("startup");
            [
                Request::Ingest(vec![edist::graph::EdgeDelta {
                    src: 0,
                    dst: 1,
                    delta: 1,
                }]),
                Request::Repartition {
                    mode: RepartitionMode::Warm,
                    backend: String::new(),
                },
                Request::Membership((0..g.num_vertices() as u32).collect()),
            ]
            .into_iter()
            .map(|req| server.handle(req).0)
            .collect()
        });
        edist::metrics::set_enabled(true);
        replies
    };
    let kinds = ["ingest", "repartition", "membership"];
    let before: Vec<u64> = kinds.iter().map(|k| timed(k)).collect();
    let on = round(true);
    let after: Vec<u64> = kinds.iter().map(|k| timed(k)).collect();
    assert_eq!(on, round(false), "daemon replies: metrics on vs off");
    for ((kind, b), a) in kinds.iter().zip(before).zip(after) {
        assert_eq!(a, b + 1, "{kind} requests timed");
    }
}

// ---------------------------------------------------------------- CLI / JSONL

/// Runs `edist-cli` with the given args and environment overrides,
/// returning its stderr (where the run summary is printed).
fn cli(args: &[&str], envs: &[(&str, &str)]) -> String {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_edist-cli"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("failed to run edist-cli");
    assert!(
        out.status.success(),
        "edist-cli {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A `--sharded` run's meta line names the graph's vertex count, read
/// from the shard headers before ingest.
#[test]
fn cli_sharded_metrics_meta_names_the_vertex_count() {
    let dir = std::env::temp_dir().join(format!("sbp_metrics_meta_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (graph, shards, jsonl) = (path("g.mtx"), path("shards"), path("run.jsonl"));
    cli(
        &[
            "generate",
            "--family",
            "challenge",
            "--vertices",
            "120",
            "--out",
            &graph,
        ],
        &[],
    );
    cli(
        &["shard", "--graph", &graph, "--ranks", "2", "--out", &shards],
        &[],
    );
    cli(
        &[
            "partition",
            "--sharded",
            &shards,
            "--metrics-out",
            &jsonl,
            "--out",
            &path("a.txt"),
        ],
        &[],
    );
    let text = std::fs::read_to_string(&jsonl).expect("metrics file written");
    let meta = Value::parse(text.lines().next().expect("a meta line")).expect("meta parses");
    assert_eq!(meta.get("type").and_then(Value::as_str), Some("meta"));
    assert_eq!(meta.get("vertices").and_then(Value::as_f64), Some(120.0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `DL:`-prefixed token of the CLI summary line.
fn dl_token(stderr: &str) -> String {
    stderr
        .lines()
        .find_map(|l| {
            let (_, rest) = l.split_once("DL: ")?;
            Some(rest.split_whitespace().next().unwrap_or("").to_string())
        })
        .unwrap_or_else(|| panic!("no DL in CLI output:\n{stderr}"))
}

/// `--metrics-out` must not perturb the partition (cross-process, both
/// thread widths), and the JSONL it writes must be schema-valid: a
/// `meta` header, `sweep` lines carrying proposal tallies, `iteration`
/// lines, exactly one `summary`, and one final `snapshot` that decodes
/// back into a [`Snapshot`] covering the solver layer. The stream must
/// also render to a self-contained HTML report.
#[test]
fn cli_metrics_out_is_bit_invariant_and_schema_valid() {
    let dir = std::env::temp_dir().join(format!("sbp_metrics_inv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.mtx");
    cli(
        &[
            "generate",
            "--family",
            "challenge",
            "--vertices",
            "120",
            "--difficulty",
            "easy",
            "--seed",
            "9",
            "--out",
            graph.to_str().unwrap(),
        ],
        &[],
    );

    let mut results: Vec<(Vec<u8>, String)> = Vec::new();
    let mut jsonl_path = None;
    for threads in ["1", "4"] {
        for metrics in [false, true] {
            let tag = format!("{threads}_{}", if metrics { "on" } else { "off" });
            let out_file = dir.join(format!("a_{tag}.txt"));
            let mut args = vec![
                "partition".to_string(),
                "--graph".to_string(),
                graph.to_str().unwrap().to_string(),
                "--backend".to_string(),
                "edist".to_string(),
                "--ranks".to_string(),
                "2".to_string(),
                "--seed".to_string(),
                "5".to_string(),
                "--out".to_string(),
                out_file.to_str().unwrap().to_string(),
            ];
            let mut envs = vec![("SBP_THREADS", threads)];
            let mpath = dir.join(format!("run_{tag}.jsonl"));
            if metrics {
                args.push("--metrics-out".to_string());
                args.push(mpath.to_str().unwrap().to_string());
                jsonl_path = Some(mpath.clone());
            } else {
                envs.push(("SBP_METRICS", "0"));
            }
            let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
            let stderr = cli(&argrefs, &envs);
            let assignment = std::fs::read(&out_file).expect("assignment written");
            results.push((assignment, dl_token(&stderr)));
        }
    }
    for (i, r) in results.iter().enumerate().skip(1) {
        assert_eq!(
            results[0].0, r.0,
            "assignment {i} diverged between metrics/thread configurations"
        );
        assert_eq!(
            results[0].1, r.1,
            "DL {i} diverged between metrics/thread configurations"
        );
    }

    // Schema-check the last emitted JSONL stream.
    let jsonl_path = jsonl_path.expect("a metrics-enabled run happened");
    let text = std::fs::read_to_string(&jsonl_path).expect("metrics file written");
    let lines: Vec<Value> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .collect();
    assert!(!lines.is_empty(), "metrics stream is empty");

    let kind = |v: &Value| v.get("type").and_then(Value::as_str).map(str::to_string);
    assert_eq!(
        kind(&lines[0]).as_deref(),
        Some("meta"),
        "stream must open with the meta header"
    );
    assert_eq!(lines[0].get("schema").and_then(Value::as_f64), Some(1.0));
    assert!(lines[0].get("backend").and_then(Value::as_str).is_some());

    let of_type = |t: &str| -> Vec<&Value> {
        lines
            .iter()
            .filter(|v| kind(v).as_deref() == Some(t))
            .collect()
    };
    let sweeps = of_type("sweep");
    assert!(!sweeps.is_empty(), "no sweep lines in the stream");
    for s in &sweeps {
        for field in ["iteration", "sweep", "dl", "proposed", "accepted"] {
            assert!(
                s.get(field).and_then(Value::as_f64).is_some(),
                "sweep line missing numeric {field:?}: {s}"
            );
        }
    }
    let iterations = of_type("iteration");
    assert!(!iterations.is_empty(), "no iteration lines in the stream");
    for it in &iterations {
        for field in ["iteration", "blocks", "dl"] {
            assert!(it.get(field).and_then(Value::as_f64).is_some());
        }
    }
    // Where procfs exists, each iteration line carries the process's peak
    // resident set so far, which can only grow.
    if std::path::Path::new("/proc/self/status").exists() {
        let peaks: Vec<f64> = iterations
            .iter()
            .map(|it| {
                it.get("peak_rss_kib")
                    .and_then(Value::as_f64)
                    .expect("peak_rss_kib")
            })
            .collect();
        assert!(
            peaks[0] > 0.0 && peaks.windows(2).all(|p| p[0] <= p[1]),
            "{peaks:?}"
        );
    }
    let dls: Vec<f64> = iterations
        .iter()
        .map(|it| it.get("dl").and_then(Value::as_f64).expect("dl"))
        .collect();
    let summaries = of_type("summary");
    assert_eq!(summaries.len(), 1, "exactly one summary line expected");
    for field in ["dl", "blocks", "wall_seconds", "virtual_seconds"] {
        assert!(summaries[0].get(field).and_then(Value::as_f64).is_some());
    }
    let snapshots = of_type("snapshot");
    assert_eq!(snapshots.len(), 1, "exactly one snapshot line expected");
    let snap = Snapshot::from_json(snapshots[0].get("metrics").expect("snapshot has metrics"))
        .expect("snapshot decodes");
    assert!(
        matches!(
            snap.metrics.get("sbp_solver_sweeps_total"),
            Some(MetricValue::Counter(n)) if *n > 0
        ),
        "snapshot must cover the solver layer"
    );
    assert!(
        matches!(
            snap.metrics.get("sbp_merge_proposals_total"),
            Some(MetricValue::Counter(n)) if *n > 0
        ),
        "merge_wall / merge_proposals must be readable from any run"
    );
    // "How many times did this run walk the graph?" is a number the run
    // answers: every iteration folds the model it starts from, and only
    // these are built — the seed; the `mid` of the probe that establishes
    // the bracket (the first to come out worse than the one before it),
    // unless the search ends there; and at most one dropped bracket `hi`.
    let count = |name: &str| match snap.metrics.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        other => panic!("{name}: {other:?}"),
    };
    let iterations = count("sbp_solver_iterations_total");
    assert!(iterations > 1, "fixture too small: {iterations} iterations");
    assert_eq!(count("sbp_solver_folds_total"), iterations);
    let builds = count("sbp_solver_graph_builds_total");
    let established = (1..dls.len())
        .find(|&k| dls[k] > dls[k - 1])
        .expect("bracket established");
    let named = 1 + u64::from(established + 1 < dls.len());
    assert!(
        (named..=named + 1).contains(&builds),
        "{builds} graph builds"
    );
    assert!(
        snap.metrics
            .keys()
            .any(|k| k.starts_with("sbp_wire_syncs_total")),
        "snapshot must cover the wire layer for a distributed run"
    );
    // Where a sync point's time went, per rank: the allgather (wire +
    // waiting) is a part of the whole sync.
    for rank in 0..2 {
        let ns = |base: &str| match snap
            .metrics
            .get(&edist::metrics::labeled(base, "rank", rank))
        {
            Some(MetricValue::Counter(n)) => *n,
            other => panic!("{base} of rank {rank}: {other:?}"),
        };
        let (sync, wait) = (
            ns("sbp_wire_sync_ns_total"),
            ns("sbp_wire_sync_wait_ns_total"),
        );
        assert!(0 < wait && wait <= sync, "rank {rank}: {wait} of {sync} ns");
    }

    // The same stream must render to a self-contained report, both via
    // the library and via `edist-cli report`.
    let html = edist::metrics::report::render(&lines).expect("report renders");
    assert!(
        html.contains("<svg"),
        "report should embed inline SVG charts"
    );
    let report_path = dir.join("report.html");
    cli(
        &[
            "report",
            jsonl_path.to_str().unwrap(),
            "--out",
            report_path.to_str().unwrap(),
        ],
        &[],
    );
    let written = std::fs::read_to_string(&report_path).expect("report written");
    assert!(written.contains("<html"));

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------- schema roundtrip

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

proptest! {
    /// Event lines (the `sweep` shape — the densest in the stream)
    /// survive writer → parser unchanged for any field values.
    #[test]
    fn sweep_lines_roundtrip(
        iteration in 0u32..10_000,
        sweep in 0u32..10_000,
        dl in 0.0f64..1e12,
        proposed in 0u32..1_000_000,
        accepted in 0u32..1_000_000,
    ) {
        let line = obj(vec![
            ("type", Value::Str("sweep".into())),
            ("iteration", Value::Num(f64::from(iteration))),
            ("sweep", Value::Num(f64::from(sweep))),
            ("dl", Value::Num(dl)),
            ("proposed", Value::Num(f64::from(proposed))),
            ("accepted", Value::Num(f64::from(accepted))),
        ]);
        let back = Value::parse(&line.to_string())
            .map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert_eq!(back, line);
    }

    /// Whole snapshots — counters, gauges, and histograms with
    /// arbitrary bucket shapes — round-trip through the canonical JSON
    /// encoding and back through [`Snapshot::from_json`].
    #[test]
    fn snapshots_roundtrip(
        counter in 0u64..(1 << 53),
        gauge in -1e9f64..1e9,
        (nbounds, seedc, sum) in (0usize..6).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec(0u64..1_000_000, n + 1), 0.0f64..1e9)
        }),
    ) {
        let bounds: Vec<f64> = (0..nbounds).map(|i| (i as f64 + 1.0) * 1.5).collect();
        let count = seedc.iter().sum();
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "sbp_solver_proposals_total{rank=\"0\"}".to_string(),
            MetricValue::Counter(counter),
        );
        metrics.insert("sbp_daemon_uptime_seconds".to_string(), MetricValue::Gauge(gauge));
        metrics.insert(
            "sbp_solver_block_size".to_string(),
            MetricValue::Histogram { bounds, counts: seedc, sum, count },
        );
        let snap = Snapshot { metrics };
        let encoded = snap.to_json().to_string();
        let parsed = Value::parse(&encoded)
            .map_err(|e| TestCaseError::Fail(e.to_string()))?;
        let back = Snapshot::from_json(&parsed)
            .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(back, snap);
    }
}
