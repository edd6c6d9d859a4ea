//! Regenerates the paper's tables and figures — all of them, or the ones
//! named on the command line — and prints a paper-vs-measured headline.
//!
//! ```text
//! cargo run --release -p sbp-bench --bin all_experiments [table6 table7 table8 fig2 … fig6]
//! ```

use sbp_bench::{Artifacts, BenchConfig, ARTIFACTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names
        .iter()
        .find(|name| !ARTIFACTS.iter().any(|(known, _)| known == name))
    {
        let known: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "all_experiments: unknown artifact '{unknown}' (known: {})",
            known.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let cfg = BenchConfig::from_env();
    eprintln!(
        "all_experiments: scale={} max_ranks={} seed={}",
        cfg.scale, cfg.max_ranks, cfg.seed
    );
    let mut artifacts = Artifacts::new(cfg);
    for (name, emit) in ARTIFACTS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            emit(&mut artifacts);
        }
    }
    artifacts.headline();
    ExitCode::SUCCESS
}
