//! The unified-API contract tests: backend equivalence, progress
//! events, cancellation, and legacy-shim compatibility.
//!
//! The equivalence suite is the repo's strongest exactness statement:
//!
//! * `Sequential` and `Edist { ranks: 1 }` share every RNG stream
//!   (merge seeds, `(sweep, vertex)`-keyed proposal streams) and every
//!   control-flow decision, so their runs are **bit-identical**.
//! * Under the frozen-state `Batch` strategy, a vertex's decision
//!   depends only on the state synced after the previous chunk of its
//!   sweep (chunks split by vertex id) and its own keyed RNG stream —
//!   never on which rank evaluates it or on intra-chunk ordering — so
//!   EDiSt trajectories are bit-identical across rank counts
//!   (n = 1, 2, 3, 4) *and* to the single-node `Batch` backend. At 3
//!   modulo ranks each rank owns exactly one chunk of every sweep.
//! * Under Metropolis–Hastings, multi-rank EDiSt explores the same
//!   state space but interleaves in-sweep move visibility differently
//!   (a vertex's decision sees same-rank moves immediately and peer
//!   moves at the next sync), so bit-equality across rank counts is not
//!   expected — that is inherent to immediate-application MH, not an
//!   RNG artifact.

use edist::graph::fixtures::{clique_ring, two_cliques};
use edist::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

mod common;
use common::{assert_bit_identical, assert_sparse_trajectory, sparse_regime_cfg, SPARSE_RING};

// NOTE: the `two_cliques(k)` fixtures keep `2k ≤ 64` so those runs stay
// on dense storage end to end — they are the dense half of the
// equivalence story. Canonical sparse-line iteration made the same
// bit-identity hold on sparse storage; the `*_in_sparse_regime` tests
// below cover that half with `clique_ring` trajectories that never leave
// the sparse representation.

#[test]
fn sequential_is_bit_identical_to_single_rank_edist() {
    let g = two_cliques(8);
    for seed in [0u64, 7, 42] {
        let seq = Partitioner::on(&g)
            .backend(Backend::Sequential)
            .seed(seed)
            .run()
            .unwrap();
        let ed = Partitioner::on(&g)
            .backend(Backend::Edist { ranks: 1 })
            .seed(seed)
            .run()
            .unwrap();
        assert_eq!(seq.assignment, ed.assignment, "seed {seed}");
        assert_eq!(seq.num_blocks, ed.num_blocks, "seed {seed}");
        assert_eq!(
            seq.description_length.to_bits(),
            ed.description_length.to_bits(),
            "seed {seed}: DL must match to the last bit"
        );
        // Same golden-search trajectory, sweep for sweep.
        assert_eq!(seq.iterations.len(), ed.iterations.len(), "seed {seed}");
        for (a, b) in seq.iterations.iter().zip(ed.iterations.iter()) {
            assert_eq!(a.num_blocks, b.num_blocks, "seed {seed}");
            assert_eq!(a.dl.to_bits(), b.dl.to_bits(), "seed {seed}");
            assert_eq!(a.sweeps, b.sweeps, "seed {seed}");
        }
    }
}

#[test]
fn batch_edist_is_rank_count_invariant() {
    let g = two_cliques(8);
    let batch_cfg = || SbpConfig {
        strategy: McmcStrategy::Batch,
        seed: 11,
        ..SbpConfig::default()
    };
    let base = Partitioner::on(&g)
        .backend(Backend::Batch)
        .config(batch_cfg())
        .run()
        .unwrap();
    for ranks in [1usize, 2, 3, 4] {
        let ed = Partitioner::on(&g)
            .backend(Backend::Edist { ranks })
            .config(batch_cfg())
            .run()
            .unwrap();
        assert_eq!(
            base.assignment, ed.assignment,
            "EDiSt at {ranks} ranks diverged from the single-node batch run"
        );
        assert_eq!(base.num_blocks, ed.num_blocks, "ranks {ranks}");
        assert_eq!(
            base.description_length.to_bits(),
            ed.description_length.to_bits(),
            "ranks {ranks}: DL must match to the last bit"
        );
    }
}

/// `Sequential` ≡ `Edist { ranks: 1 }` extended beyond the dense regime:
/// the shared RNG streams were never rank-dependent, and with canonical
/// line iteration the sparse-storage phases are bit-reproducible too.
#[test]
fn sequential_is_bit_identical_to_single_rank_edist_in_sparse_regime() {
    let g = clique_ring(SPARSE_RING);
    for seed in [0u64, 7, 42] {
        let cfg = sparse_regime_cfg(McmcStrategy::MetropolisHastings, seed);
        let seq = Partitioner::on(&g)
            .backend(Backend::Sequential)
            .config(cfg.clone())
            .run()
            .unwrap();
        let ed = Partitioner::on(&g)
            .backend(Backend::Edist { ranks: 1 })
            .config(cfg)
            .run()
            .unwrap();
        assert_bit_identical(&seq, &ed, &format!("sparse seed {seed}"));
        assert_sparse_trajectory(&seq, &g);
    }
}

/// Batch EDiSt rank-count invariance extended to sparse storage: a
/// frozen-state decision depends only on the replica state and the keyed
/// RNG stream, and canonical lines make the replica's f64 observables a
/// pure function of that state.
#[test]
fn batch_edist_is_rank_count_invariant_in_sparse_regime() {
    let g = clique_ring(SPARSE_RING);
    let cfg = sparse_regime_cfg(McmcStrategy::Batch, 11);
    let base = Partitioner::on(&g)
        .backend(Backend::Batch)
        .config(cfg.clone())
        .run()
        .unwrap();
    assert_sparse_trajectory(&base, &g);
    for ranks in [1usize, 2, 3, 4] {
        for ownership in [OwnershipStrategy::SortedBalanced, OwnershipStrategy::Modulo] {
            let ed = Partitioner::on(&g)
                .backend(Backend::Edist { ranks })
                .ownership(ownership)
                .config(cfg.clone())
                .run()
                .unwrap();
            let ctx = format!("sparse batch × {ranks} ranks × {ownership:?}");
            assert_bit_identical(&base, &ed, &ctx);
        }
    }
}

#[test]
fn mh_edist_agrees_on_structure_across_rank_counts() {
    // MH is not trajectory-invariant across rank counts (see module
    // docs), but on a well-separated graph every rank count must land in
    // the same partition.
    let g = two_cliques(8);
    let base = Partitioner::on(&g)
        .backend(Backend::Edist { ranks: 1 })
        .seed(3)
        .run()
        .unwrap();
    for ranks in [2usize, 4] {
        let ed = Partitioner::on(&g)
            .backend(Backend::Edist { ranks })
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(ed.num_blocks, base.num_blocks, "ranks {ranks}");
        // Same partition up to label permutation.
        assert!(
            (nmi(&ed.assignment, &base.assignment) - 1.0).abs() < 1e-9,
            "ranks {ranks} found a different partition"
        );
    }
}

#[test]
fn cancellation_mid_golden_search_returns_best_so_far() {
    let g = two_cliques(16); // 32 vertices: several golden iterations
    let token = CancelToken::new();
    let cancel_handle = token.clone();
    let run = Partitioner::on(&g)
        .backend(Backend::Sequential)
        .seed(3)
        .cancel_token(token)
        .progress(move |event| {
            // Cancel as soon as the first iteration lands: the next
            // golden-loop checkpoint must abort the search.
            if matches!(event, ProgressEvent::Iteration { .. }) {
                cancel_handle.cancel();
            }
        })
        .run()
        .unwrap();
    assert!(run.cancelled, "token must mark the run as cancelled");
    assert_eq!(run.iterations.len(), 1, "aborted after the first iteration");

    // The best-so-far bracket entry is a coherent partition…
    assert_eq!(run.assignment.len(), 32);
    let bm = Blockmodel::from_assignment(&g, run.assignment.clone(), run.num_blocks);
    assert!((bm.description_length() - run.description_length).abs() < 1e-9);

    // …and sits strictly above the full search's optimum in block count
    // (the search was stopped while still agglomerating).
    let full = Partitioner::on(&g)
        .backend(Backend::Sequential)
        .seed(3)
        .run()
        .unwrap();
    assert!(!full.cancelled);
    assert_eq!(full.num_blocks, 2);
    assert!(
        run.num_blocks > full.num_blocks,
        "cancelled at {} blocks, full search reached {}",
        run.num_blocks,
        full.num_blocks
    );
}

#[test]
fn pre_cancelled_distributed_run_aborts_on_every_rank() {
    let g = two_cliques(8);
    let token = CancelToken::new();
    token.cancel();
    let run = Partitioner::on(&g)
        .backend(Backend::Edist { ranks: 3 })
        .cancel_token(token)
        .run()
        .unwrap();
    // The broadcast-coordinated check aborts all ranks at iteration 0
    // without a collective mismatch; the seed (identity) entry returns.
    assert!(run.cancelled);
    assert_eq!(run.num_blocks, 16);
    assert!(run.iterations.is_empty());
}

#[test]
fn progress_event_stream_is_ordered_and_complete() {
    let g = two_cliques(6);
    let events: Rc<RefCell<Vec<String>>> = Rc::default();
    let sink = Rc::clone(&events);
    let run = Partitioner::on(&g)
        .backend(Backend::Edist { ranks: 2 })
        .seed(1)
        .progress(move |event| {
            sink.borrow_mut().push(
                match event {
                    ProgressEvent::Started { .. } => "started",
                    ProgressEvent::ClusterStarted { .. } => "cluster",
                    ProgressEvent::PhaseStarted { .. } => "phase",
                    ProgressEvent::Merged { .. } => "merged",
                    ProgressEvent::Sweep { .. } => "sweep",
                    ProgressEvent::Iteration { .. } => "iteration",
                    ProgressEvent::Cancelled { .. } => "cancelled",
                    ProgressEvent::Finished { .. } => "finished",
                }
                .to_string(),
            );
        })
        .run()
        .unwrap();
    let events = events.borrow();
    assert_eq!(events.first().map(String::as_str), Some("started"));
    assert_eq!(events.get(1).map(String::as_str), Some("cluster"));
    assert_eq!(events.last().map(String::as_str), Some("finished"));
    let iterations = events.iter().filter(|e| *e == "iteration").count();
    assert_eq!(iterations, run.iterations.len());
    assert!(iterations > 0);
    // Sweep-level events: one per sync point, at least one per recorded
    // iteration (EDiSt syncs every sweep), and the total sweep count the
    // trajectory reports is exactly what was emitted.
    let sweeps = events.iter().filter(|e| *e == "sweep").count();
    let expected: usize = run.iterations.iter().map(|s| s.sweeps).sum();
    assert_eq!(sweeps, expected, "one Sweep event per sync point");
    assert!(sweeps >= iterations);
}

/// EDiSt on one rank runs the single-node search itself — one golden
/// loop on two planes — so it emits the same event stream (the cluster
/// announcement aside) and returns the same outcome, for every sweep
/// strategy, cold and resumed from a snapshot.
#[test]
fn single_rank_edist_is_the_single_node_run_event_for_event() {
    let g = two_cliques(16);
    let dir = std::env::temp_dir().join(format!("api_one_loop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (tag, strategy) in [
        ("mh", McmcStrategy::MetropolisHastings),
        ("hybrid", McmcStrategy::Hybrid),
        ("batch", McmcStrategy::Batch),
    ] {
        let cfg = SbpConfig {
            strategy,
            seed: 21,
            ..SbpConfig::default()
        };
        let snapshot = dir.join(format!("{tag}.sbpc"));
        Partitioner::on(&g)
            .config(SbpConfig {
                max_iterations: 2,
                ..cfg.clone()
            })
            .checkpoint_to(&snapshot)
            .run()
            .expect("snapshot at iteration 2");
        for resumed in [false, true] {
            let run = |backend: Option<Backend>| {
                let mut events = Vec::new();
                let mut p = Partitioner::on(&g).config(cfg.clone());
                if let Some(backend) = backend {
                    p = p.backend(backend);
                }
                if resumed {
                    p = p.resume_from(&snapshot);
                }
                let run = p
                    .progress(|event| {
                        if !matches!(event, ProgressEvent::ClusterStarted { .. }) {
                            events.push(format!("{event:?}"));
                        }
                    })
                    .run()
                    .expect("run");
                (run, events)
            };
            let ctx = format!("{tag}, resumed: {resumed}");
            let (single, single_events) = run(None);
            let (edist, edist_events) = run(Some(Backend::Edist { ranks: 1 }));
            assert!(
                single.iterations.len() > 2,
                "{ctx}: resume would be vacuous"
            );
            assert!(single_events.len() > single.iterations.len());
            assert_eq!(single_events, edist_events, "{ctx}");
            assert_bit_identical(&edist, &single, &ctx);
            assert_eq!((edist.cancelled, edist.degraded), (false, None), "{ctx}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampling_composes_with_distributed_backends() {
    let g = two_cliques(10);
    let run = Partitioner::on(&g)
        .backend(Backend::Edist { ranks: 2 })
        .sample(SamplingStrategy::DegreeWeightedNode, 0.8)
        .seed(9)
        .run()
        .unwrap();
    assert_eq!(run.assignment.len(), 20);
    assert_eq!(run.sampled_vertices, Some(16));
    assert!(run.cluster.is_some(), "inner cluster report is surfaced");
    assert!(run.backend.starts_with("sampled(edist"));
}

#[test]
fn unspecified_backend_follows_the_configured_strategy() {
    // `.config(cfg).run()` ≡ the engine called directly with `cfg`, for
    // EVERY strategy, not just the MH default: without an explicit
    // `.backend(…)`, the builder must pick the single-node backend
    // matching `cfg.strategy`.
    let g = two_cliques(8);
    for strategy in [
        McmcStrategy::MetropolisHastings,
        McmcStrategy::Hybrid,
        McmcStrategy::Batch,
    ] {
        let cfg = SbpConfig {
            strategy,
            seed: 6,
            ..SbpConfig::default()
        };
        let direct = solve_sbp(&g, None, &RunConfig::from_sbp(cfg.clone()), &mut NoProgress);
        let new = Partitioner::on(&g).config(cfg).run().unwrap();
        assert_eq!(direct.assignment, new.assignment, "{strategy:?}");
        assert_eq!(
            direct.description_length.to_bits(),
            new.description_length.to_bits(),
            "{strategy:?}"
        );
    }
}

#[test]
fn sampled_run_emits_exactly_one_terminal_event_pair() {
    let g = two_cliques(10);
    let events: Rc<RefCell<Vec<String>>> = Rc::default();
    let sink = Rc::clone(&events);
    Partitioner::on(&g)
        .sample(SamplingStrategy::ExpansionSnowball, 0.6)
        .seed(2)
        .progress(move |event| {
            sink.borrow_mut().push(
                match event {
                    ProgressEvent::Started { .. } => "started",
                    ProgressEvent::Finished { .. } => "finished",
                    ProgressEvent::Cancelled { .. } => "cancelled",
                    _ => "other",
                }
                .to_string(),
            );
        })
        .run()
        .unwrap();
    let events = events.borrow();
    // The inner subgraph solve's terminal events are filtered: a sink
    // treating Finished as end-of-run sees exactly one, at the end.
    assert_eq!(events.iter().filter(|e| *e == "started").count(), 1);
    assert_eq!(events.iter().filter(|e| *e == "finished").count(), 1);
    assert_eq!(events.first().map(String::as_str), Some("started"));
    assert_eq!(events.last().map(String::as_str), Some("finished"));
}
