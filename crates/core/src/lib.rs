//! # sbp-core — stochastic block partitioning
//!
//! A from-scratch Rust implementation of the degree-corrected stochastic
//! blockmodel (DCSBM) inference engine the paper builds on — the shared
//! foundation of sequential SBP, shared-memory Hybrid SBP, DC-SBP and
//! EDiSt:
//!
//! * [`Blockmodel`] — the inter-block edge-count matrix with **adaptive
//!   storage**: a flat dense `C×C` array (plus transpose) when
//!   [`auto_picks_dense`] says so — small or well-occupied matrices — and
//!   sparse [`line::CanonicalLine`] rows (sorted vectors of 8-byte cells)
//!   plus a stored transpose otherwise (the paper's §III-A optimizations a
//!   and b).
//!   Every line iterates in canonical ascending order regardless of
//!   storage or move history — the property the distributed drivers'
//!   unconditional bit-identity rests on. Incremental vertex moves,
//!   cached `ln(degree)` vectors, and exact description-length (Eq. 2)
//!   evaluation;
//! * [`delta`] — change-in-entropy computation (optimization c): an
//!   O(deg) kernel for vertex moves that gathers the vertex's neighbour
//!   blocks once and reads only the changed cells for ΔS and the Hastings
//!   correction together, and an O(affected-lines) walk for block merges —
//!   both through the reusable per-thread [`DeltaScratch`], so the MCMC
//!   inner loop performs zero heap allocation per proposal;
//! * [`propose`] — the Graph-Challenge proposal distribution and
//!   Metropolis–Hastings correction;
//! * [`merge`] — the agglomerative block-merge phase (Alg. 1) with
//!   union-find merge resolution (optimization d);
//! * [`mcmc`] — the Metropolis–Hastings sweeps (Alg. 2) and the
//!   sweep-loop convergence rule;
//! * [`hybrid`] — the sweep schedules: the plan of chunks a search's
//!   sweeps run (Metropolis–Hastings, Hybrid SBP's sequential high-degree
//!   head + frozen low-degree chunks, Batch's synced residue chunks) and
//!   the frozen-chunk sweep body;
//! * [`golden`] — the golden-ratio search over the number of communities;
//! * [`run`] — the unified backend API: the object-safe [`Solver`] trait,
//!   the shared [`RunConfig`]/[`RunOutcome`] types, progress events, and
//!   cooperative cancellation via [`CancelToken`];
//! * [`mod@sbp`] — the golden-ratio search ([`sbp::golden_search`]): the
//!   one merge+MCMC loop, checkpoint writer and outcome assembly every
//!   backend runs, written against a [`plane::Plane`];
//! * [`plane`] — that trait and its single-node implementation
//!   ([`solve_sbp`] is the search on it).
//!
//! The sweep and proposal functions accept explicit vertex/block subsets,
//! so a distributed plane restricts them to what it owns: EDiSt in
//! `sbp-dist` is the same search with the owned subset swept and one
//! allgather per sync point.
//!
//! ## Shared-memory parallelism and the determinism contract
//!
//! Merge-phase proposals, Hybrid chunk evaluation, Batch sweeps,
//! sparse-matrix rebuilds, and the full
//! entropy/DL reductions all run on the persistent work-stealing pool
//! behind the `rayon` shim (worker count from `SBP_THREADS`, read once
//! per process; default: available parallelism). Workers persist, so
//! each one's thread-local [`DeltaScratch`] is allocated once and reused
//! across every parallel region. Results are **bit-identical at any
//! thread count**: parallel collections preserve input order, RNG
//! streams are keyed by `(seed, sweep, vertex)` or block id (never by
//! thread or rank), and [`Blockmodel::entropy`] is a fixed-shape chunked
//! reduction whose f64 summation layout depends only on the block count
//! — enforced end to end by the root `tests/threads.rs` suite.

#![forbid(unsafe_code)]

pub mod blockmodel;
mod blockset;
pub mod checkpoint;
pub mod delta;
pub mod golden;
pub mod hybrid;
pub mod line;
pub mod lntab;
pub mod mcmc;
pub mod merge;
pub mod plane;
pub mod propose;
pub mod run;
pub mod sbp;

pub use blockmodel::{auto_picks_dense, compact_labels, Blockmodel, LineIter, StorageKind};
pub use checkpoint::{CheckpointError, CheckpointState};
pub use delta::{
    delta_entropy, merge_delta, vertex_move_delta, with_scratch, DeltaScratch, LineDelta,
};
pub use golden::{GoldenBracket, NextStep};
pub use mcmc::{keyed_mh_sweep, mh_sweep, AcceptedMove};
pub use merge::{apply_merges, merge_labels, propose_merges, MergeCandidate};
pub use propose::{propose_for_block, propose_for_vertex};
pub use run::{
    CancelToken, CheckpointSpec, DegradedReason, NoProgress, ProgressEvent, ProgressFn,
    ProgressSink, RunConfig, RunOutcome, SingleNode, Solver, WarmStart,
};
pub use sbp::{solve_sbp, IterationStat, McmcStrategy, SbpConfig};

/// The pool-width controls of the `rayon` shim behind every parallel
/// region of this crate, for callers that run several solves side by side
/// and must share the width among them (`sbp-dist`'s co-resident thread
/// ranks). Results never depend on the width — see the determinism
/// contract above.
pub use rayon::{current_num_threads, with_threads};

/// `h(x) = (1+x)·ln(1+x) − x·ln(x)`, the model-complexity kernel of the
/// description length (paper Eq. 2).
pub fn h(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        (1.0 + x) * (1.0 + x).ln() - x * x.ln()
    }
}

/// Model-complexity part of the description length for a graph with `e`
/// total edge weight and `v` vertices partitioned into `c` blocks:
/// `E·h(C²/E) + V·ln(C)`.
pub fn model_description_length(v: usize, e: i64, c: usize) -> f64 {
    if e <= 0 || c == 0 {
        return 0.0;
    }
    let (v, e, c) = (v as f64, e as f64, c as f64);
    e * h(c * c / e) + v * c.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_matches_eval_crate_convention() {
        assert_eq!(h(0.0), 0.0);
        assert!((h(1.0) - 2.0 * 2f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn model_dl_increases_with_blocks() {
        let a = model_description_length(100, 1000, 2);
        let b = model_description_length(100, 1000, 50);
        assert!(b > a);
    }

    #[test]
    fn model_dl_degenerate_inputs() {
        assert_eq!(model_description_length(10, 0, 3), 0.0);
        assert_eq!(model_description_length(10, 5, 0), 0.0);
    }
}
