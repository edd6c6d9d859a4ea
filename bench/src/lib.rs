//! # edist-bench — the end-to-end, layer-attributed benchmark
//!
//! One command generates inputs from a seed, runs four named workloads
//! through `edist`'s **public library API only**, checks the outputs,
//! and prints every metric by name with its unit. See `README.md` for
//! the glossary and `../BENCHMARK.json` for the contract.
//!
//! Module map: [`workload`] (names, sizing, input generation), [`rep`]
//! (the fresh child process that runs one measured rep), [`driver`]
//! (spawns reps, aggregates, prints), [`replay`] (timed direct calls
//! into single layers for the traced run), [`trace`] (spans),
//! [`check`] (what counts as a failed rep), [`stats`] (medians and
//! percentiles), [`calib`] (host-speed normalisation), [`compare`] (`compare A.json B.json`), [`spec`] (the
//! metric names shared with `BENCHMARK.json`).

pub mod args;
pub mod calib;
pub mod check;
pub mod compare;
pub mod driver;
pub mod json;
pub mod rep;
pub mod replay;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
