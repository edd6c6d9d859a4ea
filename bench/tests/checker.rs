//! Failure detection has teeth: a solve that "succeeds" into a useless
//! partition must count as failed, never as a slow success.
//!
//! The fabricated runs mirror the trap recorded in README "Known traps":
//! `Backend::Batch` on `graph_challenge(12000, Hard)` converging to
//! `C ≈ V/2` with `DL_norm = 1.126`.

use edist::prelude::*;
use edist_bench::check::{judge, Limits, RepFacts};

/// A `Run` as the library would return it, with the fields the checker
/// reads set by hand.
fn fabricated_run(graph: &Graph, num_blocks: usize, dl_norm: f64) -> Run {
    let null_dl = edist::eval::dlnorm::dl_null(graph.num_vertices(), graph.total_edge_weight());
    Run {
        backend: "batch".into(),
        assignment: (0..graph.num_vertices() as u32)
            .map(|v| v % num_blocks as u32)
            .collect(),
        num_blocks,
        description_length: dl_norm * null_dl,
        iterations: Vec::new(),
        cancelled: false,
        wall_seconds: 50.0,
        virtual_seconds: 50.0,
        cluster: None,
        sampled_vertices: None,
        ingest: None,
        degraded: None,
    }
}

fn verdict(run: &Run, graph: &Graph, truth: &[u32], planted_blocks: usize) -> Result<(), String> {
    let facts = RepFacts::of_run(run, run.dl_norm(graph), nmi(&run.assignment, truth));
    judge(
        &facts,
        &Limits {
            planted_blocks,
            nmi_floor: 0.0,
        },
    )
}

#[test]
fn worse_than_null_model_is_rejected() {
    let planted = graph_challenge(400, Difficulty::Hard, 42);
    let c = planted.num_nonempty_communities();
    let stalled = fabricated_run(&planted.graph, c, 1.126);
    assert!((stalled.dl_norm(&planted.graph) - 1.126).abs() < 1e-9);
    let err = verdict(&stalled, &planted.graph, &planted.ground_truth, c).unwrap_err();
    assert!(err.contains("dl_norm"), "{err}");
    // Exactly the null model is not "below" it either.
    let null = fabricated_run(&planted.graph, c, 1.0);
    assert!(verdict(&null, &planted.graph, &planted.ground_truth, c).is_err());
}

#[test]
fn block_count_far_above_planted_is_rejected() {
    let planted = graph_challenge(400, Difficulty::Hard, 42);
    let c = planted.num_nonempty_communities();
    // The trap's shape: C ≈ V/2 for a handful of planted communities.
    let stalled = fabricated_run(&planted.graph, 200, 0.95);
    let err = verdict(&stalled, &planted.graph, &planted.ground_truth, c).unwrap_err();
    assert!(err.contains("blocks"), "{err}");
    // 4× planted is still tolerated, 4× + 1 is not.
    assert!(verdict(
        &fabricated_run(&planted.graph, 4 * c, 0.95),
        &planted.graph,
        &planted.ground_truth,
        c
    )
    .is_ok());
    assert!(verdict(
        &fabricated_run(&planted.graph, 4 * c + 1, 0.95),
        &planted.graph,
        &planted.ground_truth,
        c
    )
    .is_err());
}

#[test]
fn degraded_cancelled_and_low_nmi_are_rejected() {
    let planted = graph_challenge(400, Difficulty::Hard, 42);
    let c = planted.num_nonempty_communities();
    let good = fabricated_run(&planted.graph, c, 0.9);
    assert!(verdict(&good, &planted.graph, &planted.ground_truth, c).is_ok());

    let mut degraded = good.clone();
    degraded.degraded = Some(DegradedReason::RankFailure);
    assert!(verdict(&degraded, &planted.graph, &planted.ground_truth, c).is_err());

    let mut cancelled = good.clone();
    cancelled.cancelled = true;
    assert!(verdict(&cancelled, &planted.graph, &planted.ground_truth, c).is_err());

    // `v % c` labels share nothing with the planted truth.
    let facts = RepFacts::of_run(&good, 0.9, nmi(&good.assignment, &planted.ground_truth));
    let strict = Limits {
        planted_blocks: c,
        nmi_floor: 0.85,
    };
    assert!(judge(&facts, &strict).unwrap_err().contains("nmi"));
    // NaN scores never pass.
    let nan = RepFacts {
        dl_norm: f64::NAN,
        ..facts
    };
    assert!(judge(&nan, &strict).is_err());
}
