//! Fault-injection matrix: deterministic injected failures (rank death,
//! corrupted collective frames, virtual-clock delays) must degrade a
//! distributed run *coordinately* — every rank returns its best-so-far
//! partition with [`RunOutcome::degraded`] set, no rank panics, and no
//! rank deadlocks in a collective its dead peer will never join.
//!
//! The plans are seed-keyed and counted in collective sync points, so
//! every scenario here replays exactly; a hang would surface as a test
//! timeout, a panic as a test failure.

use edist::graph::fixtures::two_cliques;
use edist::prelude::*;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fault_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SEED: u64 = 11;

fn cfg() -> SbpConfig {
    SbpConfig {
        seed: SEED,
        ..SbpConfig::default()
    }
}

fn kill(rank: usize, at_sync: u64) -> FaultPlan {
    FaultPlan {
        seed: 7,
        faults: vec![Fault::Kill { rank, at_sync }],
    }
}

fn run_with(g: &Graph, ranks: usize, plan: FaultPlan) -> Run {
    Partitioner::on(g)
        .backend(Backend::Edist { ranks })
        .config(cfg())
        .fault_plan(plan)
        .run()
        .expect("a fault-injected run degrades; it must not error out")
}

// --------------------------------------------------------- rank death

/// Kill every rank at a spread of sync points, on 2- and 3-rank
/// clusters: every combination must return (no deadlock), report
/// `RankFailure` on the surviving schedule, and carry either a full
/// best-so-far assignment or — when the death lands inside cluster
/// init, before any bracket exists — an explicitly empty one.
#[test]
fn killing_any_rank_at_any_sync_point_degrades_coordinately() {
    let g = two_cliques(10);
    for ranks in [2usize, 3] {
        for rank in 0..ranks {
            for at_sync in [0u64, 1, 2, 3, 5, 8] {
                let run = run_with(&g, ranks, kill(rank, at_sync));
                assert_eq!(
                    run.degraded,
                    Some(DegradedReason::RankFailure),
                    "ranks={ranks} kill {rank}@{at_sync}"
                );
                assert!(
                    run.assignment.is_empty() || run.assignment.len() == g.num_vertices(),
                    "ranks={ranks} kill {rank}@{at_sync}: partial assignment"
                );
            }
        }
    }
}

/// A late rank death returns genuine best-so-far state: the recorded
/// trajectory is a prefix of the clean run's, and the partition is
/// full-size and coherent.
#[test]
fn late_rank_death_returns_best_so_far() {
    let g = two_cliques(10);
    let ranks = 3usize;
    let clean = Partitioner::on(&g)
        .backend(Backend::Edist { ranks })
        .config(cfg())
        .run()
        .expect("clean run");
    // `collectives` sums participations over ranks, and the schedule is
    // rank-symmetric, so this is the per-rank sync-point count.
    let per_rank = clean.cluster.as_ref().expect("cluster report").collectives / ranks as u64;
    assert!(
        per_rank > 10,
        "fixture too small to die late (only {per_rank} syncs)"
    );
    let run = run_with(&g, ranks, kill(1, per_rank - 2));
    assert_eq!(run.degraded, Some(DegradedReason::RankFailure));
    assert_eq!(run.assignment.len(), g.num_vertices());
    assert!(!run.iterations.is_empty(), "late death lost the trajectory");
    assert!(run.iterations.len() <= clean.iterations.len());
    for (i, (hurt, ok)) in run
        .iterations
        .iter()
        .zip(clean.iterations.iter())
        .enumerate()
    {
        assert_eq!(hurt.num_blocks, ok.num_blocks, "iteration {i} diverged");
        assert_eq!(
            hurt.dl.to_bits(),
            ok.dl.to_bits(),
            "iteration {i} DL diverged"
        );
    }
}

// ------------------------------------------------- corrupted payloads

/// Mangle the frames rank 0 receives, one sync point at a time. Byte
/// collectives hit by the mangler must surface as a typed decode
/// failure on the detecting rank (never a panic); sync points that
/// carry no mangleable payload pass through clean. At least one sync
/// point in the scanned window must actually detonate, or the wall is
/// vacuous.
#[test]
fn mangled_frames_surface_as_decode_failure_on_the_detector() {
    let g = two_cliques(10);
    let mut detonated = Vec::new();
    for at_sync in 0..30u64 {
        let plan = FaultPlan {
            seed: 1234,
            faults: vec![Fault::MangleRecv { rank: 0, at_sync }],
        };
        let run = run_with(&g, 2, plan);
        match run.degraded {
            // Rank 0 detected the corruption itself.
            Some(DegradedReason::DecodeFailure) => detonated.push(at_sync),
            // The corrupted frame made rank 0's *peer* abort first
            // (e.g. a poisoned follow-up collective) — still coordinated.
            Some(DegradedReason::RankFailure) => {}
            Some(other) => panic!("mangle@{at_sync}: unexpected reason {other:?}"),
            None => {} // nothing decodable carried at this sync point
        }
    }
    assert!(
        !detonated.is_empty(),
        "no sync point in 0..30 produced a decode failure — mangler not reaching payloads"
    );
}

/// The same corruption aimed at rank 1 must reach rank 0 as a peer
/// failure: the detector aborts the schedule and its survivors report
/// `RankFailure`, not a mystery hang.
#[test]
fn peer_observes_mangle_as_rank_failure() {
    let g = two_cliques(10);
    // Find a sync point where corruption detonates (scanning rank 0's
    // schedule; the schedule is rank-symmetric).
    let mut target = None;
    for at_sync in 0..30u64 {
        let plan = FaultPlan {
            seed: 1234,
            faults: vec![Fault::MangleRecv { rank: 0, at_sync }],
        };
        if run_with(&g, 2, plan).degraded == Some(DegradedReason::DecodeFailure) {
            target = Some(at_sync);
            break;
        }
    }
    let at_sync = target.expect("no detonating sync point found");
    let plan = FaultPlan {
        seed: 1234,
        faults: vec![Fault::MangleRecv { rank: 1, at_sync }],
    };
    let run = run_with(&g, 2, plan);
    assert_eq!(
        run.degraded,
        Some(DegradedReason::RankFailure),
        "rank 0 should observe rank 1's decode abort as a peer failure"
    );
}

// ------------------------------------------------------- clock skew

/// A delay fault perturbs only the virtual clock: results stay
/// bit-identical and the cluster makespan shifts by exactly the
/// injected skew.
#[test]
fn delay_skews_virtual_time_without_touching_results() {
    let g = two_cliques(10);
    let clean = Partitioner::on(&g)
        .backend(Backend::Edist { ranks: 2 })
        .config(cfg())
        .run()
        .expect("clean run");
    let plan = FaultPlan {
        seed: 7,
        faults: vec![Fault::Delay {
            rank: 1,
            at_sync: 2,
            virtual_seconds: 5.0,
        }],
    };
    let delayed = run_with(&g, 2, plan);
    assert_eq!(delayed.degraded, None, "a delay is not a failure");
    assert_eq!(delayed.assignment, clean.assignment);
    assert_eq!(
        delayed.description_length.to_bits(),
        clean.description_length.to_bits()
    );
    let clean_makespan = clean.cluster.expect("report").makespan;
    let delayed_makespan = delayed.cluster.expect("report").makespan;
    // The baseline makespan carries measured-CPU jitter in the
    // millisecond range; the injected five seconds must dominate it.
    let skew = delayed_makespan - clean_makespan;
    assert!(
        (4.5..5.5).contains(&skew),
        "makespan moved {clean_makespan} → {delayed_makespan}, expected ≈ +5.0"
    );
}

// ---------------------------------------------------- sharded cluster

/// The sharded driver rides the same decorator: a rank killed mid-run
/// degrades the whole sharded cluster coordinately.
#[test]
fn sharded_run_degrades_on_rank_death() {
    let g = two_cliques(10);
    let dir = temp_dir("shards");
    shard_graph(&g, &dir, 2, OwnershipStrategy::SortedBalanced).expect("shard");
    let run = Partitioner::on_sharded(&dir)
        .config(cfg())
        .fault_plan(kill(1, 6))
        .run()
        .expect("sharded degraded run");
    assert_eq!(run.degraded, Some(DegradedReason::RankFailure));
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------- DC-SBP

/// DC-SBP rides the same decorator and the same guarded driver: a rank
/// killed at either of its sync points (the gather, the broadcast)
/// degrades the run coordinately instead of panicking the cluster.
#[test]
fn dcsbp_run_degrades_on_rank_death() {
    let g = two_cliques(6);
    for at_sync in [0u64, 1] {
        let run = Partitioner::on(&g)
            .backend(Backend::DcSbp { ranks: 2 })
            .config(cfg())
            .fault_plan(kill(0, at_sync))
            .run()
            .expect("a fault-injected run degrades; it must not error out");
        assert_eq!(
            run.degraded,
            Some(DegradedReason::RankFailure),
            "kill 0@{at_sync}"
        );
    }
}

// ------------------------------------------------------- plan routing

/// Fault plans only make sense where there is a cluster to hurt:
/// single-node backends reject them up front instead of silently
/// ignoring the plan.
#[test]
fn fault_plans_are_rejected_off_the_edist_backends() {
    let g = two_cliques(6);
    for backend in [Backend::Sequential, Backend::Batch] {
        let err = Partitioner::on(&g)
            .backend(backend)
            .config(cfg())
            .fault_plan(kill(0, 0))
            .run()
            .expect_err("fault plan must be rejected");
        assert!(
            matches!(err, PartitionError::FaultUnsupported(_)),
            "{backend:?}: expected FaultUnsupported, got {err:?}"
        );
    }
}

/// An empty plan is the documented no-op: results are bit-identical to
/// an undecorated run.
#[test]
fn empty_fault_plan_is_a_no_op() {
    let g = two_cliques(10);
    let clean = Partitioner::on(&g)
        .backend(Backend::Edist { ranks: 2 })
        .config(cfg())
        .run()
        .expect("clean run");
    let decorated = Partitioner::on(&g)
        .backend(Backend::Edist { ranks: 2 })
        .config(cfg())
        .fault_plan(FaultPlan::none())
        .run()
        .expect("no-op plan run");
    assert_eq!(decorated.assignment, clean.assignment);
    assert_eq!(
        decorated.description_length.to_bits(),
        clean.description_length.to_bits()
    );
    assert_eq!(decorated.degraded, None);
}
