//! `edist-bench run | rep | compare` — see `bench/README.md`.

use edist_bench::args::Args;
use edist_bench::compare::compare_files;
use edist_bench::driver::{nproc, run_workload, RunOptions, WorkloadResult};
use edist_bench::json::{num, obj, Value};
use edist_bench::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
edist-bench — end-to-end, layer-attributed benchmark for edist

  run [--seed N] [--seconds S] [--trace [0|1]] [--workload NAME]
      Generates inputs from the seed, runs the workloads through the
      public library API, checks the outputs, prints every metric and
      writes bench/out/results.json. With --workload: that workload only,
      end-to-end metrics (--trace 0) or per-layer metrics (--trace 1),
      and the last stdout line is the driver's JSON result object.
      Without: all four; --trace adds the traced run of each.
  compare A.json B.json [--spec BENCHMARK.json]
      One row per (workload, end-to-end metric); exits 1 when B is worse
      beyond a bound, lacks something A has, or had failed reps.
  rep ...   (internal: one measured rep in a fresh child process)
";

/// `bench/out`, next to this package's manifest. `cargo run` exports the
/// manifest directory at run time; the compile-time value covers a
/// binary started directly.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("out")
}

fn run(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.num("seed", 42)?;
    let seconds: f64 = args.num("seconds", 20.0)?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    let out_dir = out_dir();
    let options = |trace| RunOptions {
        seed,
        seconds,
        trace,
        out_dir: out_dir.clone(),
    };
    let mut results: Vec<(Workload, &str, WorkloadResult)> = Vec::new();
    let single = match args.get("workload") {
        Some(name) => {
            Some(Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?)
        }
        None => None,
    };
    match single {
        Some(w) => {
            let trace = args.flag("trace");
            let mode = if trace { "per_layer" } else { "end_to_end" };
            results.push((w, mode, run_workload(w, &options(trace))?));
        }
        None => {
            for w in Workload::ALL {
                results.push((w, "end_to_end", run_workload(w, &options(false))?));
                results.last().expect("just pushed").2.print();
                if args.flag("trace") {
                    results.push((w, "per_layer", run_workload(w, &options(true))?));
                    results.last().expect("just pushed").2.print();
                }
            }
        }
    }

    let mut workloads = std::collections::BTreeMap::new();
    for (w, mode, result) in &results {
        let entry = workloads
            .entry(w.name().to_string())
            .or_insert_with(|| Value::Obj(Default::default()));
        if let Value::Obj(map) = entry {
            map.insert(mode.to_string(), result.results_entry());
        }
    }
    let file = obj([
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("nproc", num(nproc() as f64)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = out_dir.join("results.json");
    std::fs::write(&path, format!("{file}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let correct = results.iter().all(|(_, _, r)| r.correct());
    if single.is_some() {
        let result = &results[0].2;
        result.print();
        // The driver reads the last stdout line.
        println!("{}", result.result_line());
    } else {
        println!("wrote {}", path.display());
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&tokens);
    let outcome = match args.positional.first().map(String::as_str) {
        Some("run") => run(&args),
        Some("rep") => edist_bench::rep::rep_main(&args, origin).map(|()| true),
        Some("compare") => match (args.positional.get(1), args.positional.get(2)) {
            (Some(a), Some(b)) => {
                let spec = args.get("spec").unwrap_or("BENCHMARK.json");
                compare_files(Path::new(a), Path::new(b), Path::new(spec)).map(|bad| bad == 0)
            }
            _ => Err("compare needs two results files".into()),
        },
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(true)
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("edist-bench: {message}");
            ExitCode::from(2)
        }
    }
}
