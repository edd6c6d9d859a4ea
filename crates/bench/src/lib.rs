//! # sbp-bench — the experiment harness
//!
//! One library function per paper artifact (Table VI–VIII, Fig. 2–6), each
//! returning structured rows that the `table*`/`fig*` binaries print as
//! paper-style tables and write as CSV under `target/experiments/`.
//! `all_experiments` runs the whole evaluation in one pass, sharing
//! intermediate results (Fig. 2 reuses the Table VII sweep, Fig. 5 reuses
//! Fig. 4's runs).
//!
//! All experiments honor these environment variables:
//!
//! * `EDIST_SCALE` — global multiplier (default 1.0) on the built-in
//!   laptop-scale graph sizes; raise toward the paper's sizes on a bigger
//!   machine.
//! * `EDIST_MAX_RANKS` — cap on the simulated rank counts (default 64).
//! * `EDIST_SEED` — master seed (default 42).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;

pub use experiments::*;
pub use harness::*;
