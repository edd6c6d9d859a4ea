//! # sbp-bench — the experiment harness
//!
//! Regenerates the paper's evaluation, Table VI–VIII and Fig. 2–6. Each
//! artifact is declared once in [`artifacts`] — its table, its CSV under
//! `target/experiments/` and its summary — over the structured rows
//! [`experiments`] computes. One binary runs any subset of them, sharing
//! intermediate results (Fig. 2 reuses the Table VII sweep, Fig. 5 reuses
//! Fig. 4's runs):
//!
//! ```text
//! cargo run --release -p sbp-bench --bin all_experiments [table6 table7 table8 fig2 … fig6]
//! ```
//!
//! With no names it runs all of them; an unknown name is refused before
//! any work. `ablation` runs the design-choice ablations, which are not
//! paper artifacts.
//!
//! **What the runtime columns are.** Table VI times two single-node
//! engines on the calling thread's CPU clock: the optimized Hybrid engine
//! at pool width 1 and [`naive`], the serial python-equivalent baseline
//! that lives here because the harness is its only caller. Every other
//! runtime (Table VII/VIII, Fig. 3–6) is α–β virtual-clock model output of
//! the simulated cluster (`sbp_mpi::CostModel::hdr100`), not a measured
//! network.
//!
//! All experiments honor these environment variables:
//!
//! * `EDIST_SCALE` — global multiplier (default 1.0) on the built-in
//!   laptop-scale graph sizes; raise toward the paper's sizes on a bigger
//!   machine.
//! * `EDIST_MAX_RANKS` — cap on the simulated rank counts (default 64).
//! * `EDIST_SEED` — master seed (default 42).

#![forbid(unsafe_code)]

pub mod artifacts;
pub mod experiments;
pub mod harness;
pub mod naive;

pub use artifacts::*;
pub use experiments::*;
pub use harness::*;
