//! Thread-count invariance: the repo's signature guarantee under the
//! persistent pool — results are **bit-identical** whatever the worker
//! count.
//!
//! Two layers of evidence:
//!
//! * **In-process**, via the shim's scoped parallelism override
//!   (`rayon::with_threads`): full [`Run`]s — assignments, DL bits, and
//!   per-iteration trajectories — compared between a forced-serial
//!   execution and 4 pooled workers, for the `Sequential`, `Hybrid`
//!   and `Batch` backends, in both the dense
//!   regime (`two_cliques`, flat matrix end to end) and the sparse
//!   regime (`clique_ring` capped trajectories, where the fixed-shape
//!   chunked entropy reduction and the parallel line rebuilds actually
//!   span multiple chunks).
//! * **Cross-process**, via the `SBP_THREADS` environment variable the
//!   pool reads once at startup: the CLI partitions the same graph under
//!   `SBP_THREADS=1` and `SBP_THREADS=4` for every backend including
//!   `Edist { ranks: 2 }` (whose simulated rank threads cannot see a
//!   test-local override), and the written assignments must match byte
//!   for byte. The `sequential` cell at width 4 runs golden-search probes
//!   ahead on the pool (read back from its `--metrics-out` snapshot), so
//!   it also proves that overlap off ≡ on.
//!
//! Plus a pool stress test: many OS threads (standing in for simulated
//! MPI ranks) submitting to the shared pool concurrently.

use edist::graph::fixtures::{clique_ring, two_cliques};
use edist::prelude::*;

mod common;
use common::{assert_bit_identical, assert_sparse_trajectory, sparse_regime_cfg, SPARSE_RING};

/// Runs a backend under a forced thread count (scoped to this thread —
/// exactly where the single-node backends evaluate their parallel
/// regions).
fn run_with_threads(g: &Graph, cfg: SbpConfig, backend: Backend, threads: usize) -> Run {
    rayon::with_threads(threads, || {
        Partitioner::on(g)
            .backend(backend)
            .config(cfg)
            .run()
            .expect("partition run failed")
    })
}

fn backends() -> Vec<(&'static str, Backend, McmcStrategy)> {
    vec![
        (
            "sequential",
            Backend::Sequential,
            McmcStrategy::MetropolisHastings,
        ),
        ("hybrid", Backend::Hybrid, McmcStrategy::Hybrid),
        ("batch", Backend::Batch, McmcStrategy::Batch),
    ]
}

#[test]
fn serial_and_pooled_runs_are_bit_identical_dense_regime() {
    let g = two_cliques(8);
    for (name, backend, strategy) in backends() {
        let cfg = SbpConfig {
            strategy,
            seed: 7,
            ..SbpConfig::default()
        };
        let serial = run_with_threads(&g, cfg.clone(), backend, 1);
        let pooled = run_with_threads(&g, cfg.clone(), backend, 4);
        assert_bit_identical(&serial, &pooled, &format!("dense/{name}: 1 vs 4 threads"));
        // A third width, to catch chunk-shape leaks rather than luck.
        let pooled3 = run_with_threads(&g, cfg, backend, 3);
        assert_bit_identical(&serial, &pooled3, &format!("dense/{name}: 1 vs 3 threads"));
    }
}

#[test]
fn serial_and_pooled_runs_are_bit_identical_sparse_regime() {
    // The sparse trajectory (C ∈ {360, 180, 90}) runs the chunked
    // entropy reduction across multiple chunks and the parallel per-line
    // sort-and-fold on every rebuild — the paths whose f64 sums would
    // drift under a thread-dependent reduction shape.
    let g = clique_ring(SPARSE_RING);
    for (name, strategy) in [
        ("mh", McmcStrategy::MetropolisHastings),
        ("batch", McmcStrategy::Batch),
        ("hybrid", McmcStrategy::Hybrid),
    ] {
        let cfg = sparse_regime_cfg(strategy, 3);
        let serial =
            rayon::with_threads(1, || Partitioner::on(&g).config(cfg.clone()).run().unwrap());
        assert_sparse_trajectory(&serial, &g);
        let pooled =
            rayon::with_threads(4, || Partitioner::on(&g).config(cfg.clone()).run().unwrap());
        assert_bit_identical(&serial, &pooled, &format!("sparse/{name}: 1 vs 4 threads"));
    }
}

#[test]
fn thread_ranks_split_the_callers_width_without_changing_results() {
    // Co-resident thread ranks each get `width / ranks` of the caller's
    // pool (1, 2 and 3 workers per rank here) — and the split, like every
    // other width, must not show in the result. Hybrid too: the figure
    // harness runs it at width 1 to keep each rank's sweep on its clock.
    let g = clique_ring(SPARSE_RING);
    let backend = Backend::Edist { ranks: 2 };
    for (name, strategy) in [
        ("batch", McmcStrategy::Batch),
        ("hybrid", McmcStrategy::Hybrid),
    ] {
        let cfg = sparse_regime_cfg(strategy, 3);
        let serial = run_with_threads(&g, cfg.clone(), backend, 1);
        for width in [4, 6] {
            let pooled = run_with_threads(&g, cfg.clone(), backend, width);
            let label = format!("edist×2 {name}: 1 vs {width} threads");
            assert_bit_identical(&serial, &pooled, &label);
        }
    }
}

#[test]
fn concurrent_submitters_share_the_pool() {
    // Four OS threads (standing in for simulated MPI ranks) hammer the
    // shared pool at once; every thread must get its own correct,
    // ordered results back.
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                rayon::with_threads(4, || {
                    let xs: Vec<u64> = (0..2048).map(|i| i + t).collect();
                    let expect: Vec<u64> = xs.iter().map(|&x| x.wrapping_mul(x)).collect();
                    for _ in 0..50 {
                        let got: Vec<u64> = {
                            use rayon::prelude::*;
                            xs.par_iter().map(|&x| x.wrapping_mul(x)).collect()
                        };
                        assert_eq!(got, expect, "submitter {t} got misordered results");
                    }
                })
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread panicked");
    }
}

// ---------------------------------------------------------------- CLI / env

/// Runs `edist-cli` with the given args and `SBP_THREADS`, returning its
/// stderr (where the run summary is printed).
fn cli(args: &[&str], threads: Option<&str>) -> String {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_edist-cli"));
    cmd.args(args);
    if let Some(t) = threads {
        cmd.env("SBP_THREADS", t);
    }
    let out = cmd.output().expect("failed to run edist-cli");
    assert!(
        out.status.success(),
        "edist-cli {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The `DL:`-prefixed token of the CLI summary line (wall time varies
/// run to run, so the whole line cannot be compared).
fn dl_token(stderr: &str) -> String {
    stderr
        .lines()
        .find_map(|l| {
            let (_, rest) = l.split_once("DL: ")?;
            Some(rest.split_whitespace().next().unwrap_or("").to_string())
        })
        .unwrap_or_else(|| panic!("no DL in CLI output:\n{stderr}"))
}

/// `sbp_solver_overlapped_iterations_total` by outcome, `[committed,
/// dropped]`, from the final snapshot of a `--metrics-out` file.
fn overlapped(jsonl: &std::path::Path) -> [u64; 2] {
    use edist::metrics::json::Value;
    use edist::metrics::{MetricValue, Snapshot};
    let text = std::fs::read_to_string(jsonl).expect("metrics file written");
    let snapshot = text
        .lines()
        .filter_map(|l| Value::parse(l).ok())
        .find(|v| v.get("type").and_then(Value::as_str) == Some("snapshot"))
        .expect("a snapshot line");
    let snap = Snapshot::from_json(snapshot.get("metrics").expect("metrics")).expect("decodes");
    ["committed", "dropped"].map(|outcome| {
        let name =
            edist::metrics::labeled("sbp_solver_overlapped_iterations_total", "outcome", outcome);
        match snap.metrics.get(&name) {
            Some(MetricValue::Counter(n)) => *n,
            other => panic!("{name}: {other:?}"),
        }
    })
}

#[test]
fn sbp_threads_env_is_bit_invariant_for_every_backend() {
    let dir = std::env::temp_dir().join(format!("sbp_threads_inv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Two inputs: a graph solved on dense storage throughout, and one
    // whose search crosses the auto rule (C = 600, 300 sparse; 150, 75
    // dense) — every run below is its own process, so they agree only if
    // each process picks the same storage for the same (C, E).
    for (vertices, difficulty) in [("120", "easy"), ("600", "hard")] {
        let graph = dir.join(format!("g{vertices}.mtx"));
        cli(
            &[
                "generate",
                "--family",
                "challenge",
                "--vertices",
                vertices,
                "--difficulty",
                difficulty,
                "--seed",
                "9",
                "--out",
                graph.to_str().unwrap(),
            ],
            None,
        );
        // `edist` runs 2 simulated ranks — the case the in-process override
        // cannot reach, since rank threads read the process-wide default.
        for backend in ["sequential", "hybrid", "batch", "edist"] {
            let mut results: Vec<(Vec<u8>, String)> = Vec::new();
            for threads in ["1", "4"] {
                let out_file = dir.join(format!("a{vertices}_{backend}_{threads}.txt"));
                let metrics = dir.join(format!("m{vertices}_{backend}_{threads}.jsonl"));
                let mut args = vec![
                    "partition",
                    "--graph",
                    graph.to_str().unwrap(),
                    "--backend",
                    backend,
                    "--ranks",
                    "2",
                    "--seed",
                    "5",
                    "--out",
                    out_file.to_str().unwrap(),
                ];
                let watch_overlap = backend == "sequential" && threads == "4";
                if watch_overlap {
                    args.extend(["--metrics-out", metrics.to_str().unwrap()]);
                }
                let stdout = cli(&args, Some(threads));
                let assignment = std::fs::read(&out_file).expect("assignment written");
                results.push((assignment, dl_token(&stdout)));
                if watch_overlap {
                    // Not vacuous: at width 4 the search ran probes ahead —
                    // the hard graph commits some (the easy one drops its
                    // two) — and still matches the width-1 run below.
                    let [committed, dropped] = overlapped(&metrics);
                    assert!(committed + dropped > 0, "V={vertices}: nothing ran ahead");
                    if difficulty == "hard" {
                        assert!(committed > 0, "V={vertices}: no probe run ahead committed");
                    }
                }
            }
            assert_eq!(
                results[0].0, results[1].0,
                "V={vertices} {backend}: assignments differ between SBP_THREADS=1 and 4"
            );
            assert_eq!(
                results[0].1, results[1].1,
                "V={vertices} {backend}: DL differs between SBP_THREADS=1 and 4"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
