//! Checkpoint/resume contract tests: a `.sbpc` snapshot taken at any
//! sync boundary resumes to a run bit-identical to the uninterrupted
//! one, on every backend that supports checkpointing — and hostile or
//! mismatched snapshots are rejected with typed errors before any
//! solver starts.
//!
//! The equivalence argument is the same one behind EDiSt's exactness
//! claim: every RNG stream is a pure function of
//! `(seed, iteration, sweep, vertex)`, so restoring the golden bracket,
//! trajectory, and next-iteration index is restoring the *entire* run
//! state. These suites verify it empirically by interrupting at every
//! boundary rather than trusting the argument.

use edist::core::CheckpointState;
use edist::graph::fixtures::two_cliques;
use edist::prelude::*;
use std::path::PathBuf;

#[allow(dead_code)] // this binary uses only the bit-identity helper
mod common;
use common::assert_bit_identical;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

const SEED: u64 = 33;

fn cfg() -> SbpConfig {
    SbpConfig {
        seed: SEED,
        ..SbpConfig::default()
    }
}

fn fixture() -> Graph {
    two_cliques(12)
}

// ------------------------------------ resume ≡ uninterrupted, per backend

/// Interrupts a run at every sync boundary (by capping `max_iterations`
/// at `k` with a checkpoint armed, so the last snapshot written is the
/// boundary-`k` one) and asserts the resumed run is bit-identical to the
/// uninterrupted baseline.
fn assert_resume_matches_everywhere(backend: Backend, tag: &str) {
    let g = fixture();
    let dir = temp_dir(tag);
    let baseline = Partitioner::on(&g)
        .backend(backend)
        .config(cfg())
        .run()
        .expect("baseline");
    let n = baseline.iterations.len();
    assert!(
        n >= 2,
        "{tag}: fixture converged in {n} iterations — suite is vacuous"
    );
    for k in 1..=n {
        let path = dir.join(format!("boundary_{k}.sbpc"));
        let truncated = Partitioner::on(&g)
            .backend(backend)
            .config(SbpConfig {
                max_iterations: k,
                ..cfg()
            })
            .checkpoint_to(&path)
            .run()
            .expect("truncated run");
        assert_eq!(
            truncated.iterations.len(),
            k,
            "{tag}: truncation at {k} recorded a different trajectory length"
        );
        let state = CheckpointState::read_from(&path).expect("snapshot readable");
        assert_eq!(state.next_iter, k as u64, "{tag}: snapshot boundary");
        let mut started = None;
        let resumed = Partitioner::on(&g)
            .backend(backend)
            .config(cfg())
            .resume_from(&path)
            .progress(|event| {
                if let ProgressEvent::Started { num_blocks, .. } = event {
                    started = Some(*num_blocks);
                }
            })
            .run()
            .expect("resumed run");
        assert_eq!(
            started,
            state.mid.as_ref().map(|best| best.num_blocks),
            "{tag}: a resumed run starts at the snapshot's block count"
        );
        assert_eq!(resumed.degraded, None, "{tag}: resume must not degrade");
        assert_bit_identical(&resumed, &baseline, &format!("{tag} boundary {k}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_matches_uninterrupted_sequential() {
    assert_resume_matches_everywhere(Backend::Sequential, "seq");
}

#[test]
fn resume_matches_uninterrupted_batch() {
    assert_resume_matches_everywhere(Backend::Batch, "batch");
}

#[test]
fn resume_matches_uninterrupted_edist_every_rank_count() {
    for ranks in [1usize, 2, 4] {
        assert_resume_matches_everywhere(Backend::Edist { ranks }, &format!("edist{ranks}"));
    }
}

/// A snapshot is backend-portable along the exactness equivalence: the
/// Batch strategy explores the same trajectory at every rank count, so
/// a single-node Batch checkpoint resumed under a 2-rank EDiSt cluster
/// lands on the identical run (the paper's exactness claim, applied
/// across the interruption *and* a backend switch).
#[test]
fn batch_snapshot_resumes_bit_identically_under_edist() {
    let g = fixture();
    let dir = temp_dir("cross");
    let baseline = Partitioner::on(&g)
        .backend(Backend::Batch)
        .config(cfg())
        .run()
        .expect("baseline");
    let path = dir.join("batch.sbpc");
    Partitioner::on(&g)
        .backend(Backend::Batch)
        .config(SbpConfig {
            max_iterations: 1,
            ..cfg()
        })
        .checkpoint_to(&path)
        .run()
        .expect("truncated batch run");
    let resumed = Partitioner::on(&g)
        .backend(Backend::Edist { ranks: 2 })
        .config(SbpConfig {
            strategy: McmcStrategy::Batch,
            ..cfg()
        })
        .resume_from(&path)
        .run()
        .expect("resume under edist");
    assert_bit_identical(&resumed, &baseline, "batch snapshot → edist resume");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sharded driver writes and resumes the same snapshots: interrupt a
/// sharded EDiSt run at the first boundary and resume it shard-side.
#[test]
fn sharded_run_resumes_bit_identically() {
    let g = fixture();
    let dir = temp_dir("shards");
    shard_graph(&g, &dir, 2, OwnershipStrategy::SortedBalanced).expect("shard");
    let baseline = Partitioner::on_sharded(&dir)
        .config(cfg())
        .run()
        .expect("sharded baseline");
    let path = dir.join("sharded.sbpc");
    Partitioner::on_sharded(&dir)
        .config(SbpConfig {
            max_iterations: 1,
            ..cfg()
        })
        .checkpoint_to(&path)
        .run()
        .expect("truncated sharded run");
    let resumed = Partitioner::on_sharded(&dir)
        .config(cfg())
        .resume_from(&path)
        .run()
        .expect("sharded resume");
    assert_bit_identical(&resumed, &baseline, "sharded resume");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `edist-cli` to completion, asserting success.
fn cli(args: &[&str]) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_edist-cli"))
        .args(args)
        .output()
        .expect("failed to run edist-cli");
    assert!(
        out.status.success(),
        "edist-cli {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Crash in one process, resume in another. A fault plan kills rank 1 of
/// a 2-rank `edist-cli` run during its second iteration, leaving the
/// boundary-1 snapshot (`C = 300`, sparse storage) on disk; a second
/// `edist-cli` process resumes it and walks `C = 300 → 150 → 75 → …`,
/// crossing the auto storage rule on its own. Its assignment and
/// trajectory files must equal the uninterrupted process's byte for byte —
/// which holds only if both processes pick the same storage at each `C`.
#[test]
fn snapshot_written_by_one_process_resumes_bit_identically_in_another() {
    let dir = temp_dir("cross_process");
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (graph, snapshot) = (at("g.mtx"), at("crash.sbpc"));
    cli(&[
        "generate",
        "--family",
        "challenge",
        "--vertices",
        "600",
        "--difficulty",
        "hard",
        "--seed",
        "9",
        "--out",
        &graph,
    ]);
    let partition = |extra: &[&str], tag: &str| {
        let (out, traj) = (at(&format!("{tag}.txt")), at(&format!("{tag}.traj")));
        let mut args = vec!["partition", "--graph", &graph, "--backend", "edist"];
        args.extend(["--ranks", "2", "--seed", "5"]);
        args.extend(["--out", &out, "--trajectory-out", &traj]);
        args.extend(extra);
        cli(&args);
        (
            std::fs::read(out).expect("assignment written"),
            std::fs::read(traj).expect("trajectory written"),
        )
    };
    let baseline = partition(&[], "baseline");
    let crashed = partition(
        &["--checkpoint", &snapshot, "--fault-plan", "kill:1@45"],
        "crashed",
    );
    assert_ne!(
        crashed, baseline,
        "the fault plan did not interrupt the run"
    );

    let state = CheckpointState::read_from(std::path::Path::new(&snapshot)).expect("snapshot");
    let e = state.total_edge_weight as i64;
    let last = state.iterations.last().expect("one boundary reached");
    assert!(
        !edist::core::auto_picks_dense(last.num_blocks, e),
        "snapshot taken at C = {}, already on dense storage — suite is vacuous",
        last.num_blocks
    );

    let resumed = partition(&["--resume", &snapshot], "resumed");
    assert_eq!(resumed.0, baseline.0, "assignment files differ");
    assert_eq!(resumed.1, baseline.1, "trajectory files differ");
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------- snapshot cadence

#[test]
fn checkpoint_every_skips_intermediate_boundaries() {
    let g = fixture();
    let dir = temp_dir("stride");
    let path = dir.join("even.sbpc");
    Partitioner::on(&g)
        .config(cfg())
        .checkpoint_to(&path)
        .checkpoint_every(2)
        .run()
        .expect("run");
    let state = CheckpointState::read_from(&path).expect("snapshot written");
    assert_eq!(
        state.next_iter % 2,
        0,
        "stride-2 checkpointing wrote an odd boundary ({})",
        state.next_iter
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------ rejected resume inputs

fn checkpoint_at_boundary_one(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("good.sbpc");
    Partitioner::on(&fixture())
        .config(SbpConfig {
            max_iterations: 1,
            ..cfg()
        })
        .checkpoint_to(&path)
        .run()
        .expect("checkpointing run");
    path
}

#[test]
fn missing_resume_file_is_a_load_error() {
    let dir = temp_dir("missing");
    let err = Partitioner::on(&fixture())
        .config(cfg())
        .resume_from(dir.join("nope.sbpc"))
        .run()
        .expect_err("missing snapshot must be rejected");
    assert!(
        matches!(err, PartitionError::CheckpointLoad(_)),
        "expected CheckpointLoad, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_resume_file_is_a_load_error() {
    let dir = temp_dir("garbage");
    let path = dir.join("junk.sbpc");
    std::fs::write(&path, b"not a checkpoint at all").expect("write junk");
    let err = Partitioner::on(&fixture())
        .config(cfg())
        .resume_from(&path)
        .run()
        .expect_err("garbage snapshot must be rejected");
    assert!(matches!(err, PartitionError::CheckpointLoad(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_snapshot_fails_its_checksum() {
    let dir = temp_dir("corrupt");
    let path = checkpoint_at_boundary_one(&dir);
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite");
    let err = Partitioner::on(&fixture())
        .config(cfg())
        .resume_from(&path)
        .run()
        .expect_err("bit-flipped snapshot must be rejected");
    assert!(matches!(err, PartitionError::CheckpointLoad(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_wrong_seed_is_a_mismatch() {
    let dir = temp_dir("seed");
    let path = checkpoint_at_boundary_one(&dir);
    let err = Partitioner::on(&fixture())
        .config(SbpConfig {
            seed: SEED + 1,
            ..cfg()
        })
        .resume_from(&path)
        .run()
        .expect_err("wrong seed must be rejected");
    assert!(
        matches!(err, PartitionError::CheckpointMismatch(_)),
        "{err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_against_a_different_graph_is_a_mismatch() {
    let dir = temp_dir("graph");
    let path = checkpoint_at_boundary_one(&dir);
    let other = two_cliques(13);
    let err = Partitioner::on(&other)
        .config(cfg())
        .resume_from(&path)
        .run()
        .expect_err("different graph must be rejected");
    assert!(
        matches!(err, PartitionError::CheckpointMismatch(_)),
        "{err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_under_a_different_strategy_is_a_mismatch() {
    let dir = temp_dir("strategy");
    let path = checkpoint_at_boundary_one(&dir); // written under MH
    let err = Partitioner::on(&fixture())
        .backend(Backend::Batch)
        .config(cfg())
        .resume_from(&path)
        .run()
        .expect_err("strategy change must be rejected");
    assert!(
        matches!(err, PartitionError::CheckpointMismatch(_)),
        "{err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Batch snapshot written before Batch sweeps ran in synced chunks
/// carries strategy tag 2. It still decodes, but resuming it would put
/// the old schedule's bracket on the new schedule's trajectory, so it is
/// refused as a mismatch.
#[test]
fn a_batch_snapshot_of_the_unchunked_schedule_is_a_mismatch() {
    let dir = temp_dir("batch_tag2");
    let path = dir.join("batch.sbpc");
    Partitioner::on(&fixture())
        .backend(Backend::Batch)
        .config(SbpConfig {
            max_iterations: 1,
            ..cfg()
        })
        .checkpoint_to(&path)
        .run()
        .expect("checkpointing run");
    let mut snapshot =
        CheckpointState::decode(&std::fs::read(&path).expect("read")).expect("decode");
    assert_eq!(snapshot.strategy_tag, 3, "Batch's tag");
    snapshot.strategy_tag = 2;
    std::fs::write(&path, snapshot.encode()).expect("rewrite");
    let err = Partitioner::on(&fixture())
        .backend(Backend::Batch)
        .config(cfg())
        .resume_from(&path)
        .run()
        .expect_err("a tag-2 snapshot must be refused");
    assert!(
        matches!(err, PartitionError::CheckpointMismatch(_)),
        "{err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_checkpoint_path_is_rejected_up_front() {
    let dir = temp_dir("path");
    let err = Partitioner::on(&fixture())
        .config(cfg())
        .checkpoint_to(dir.join("no_such_subdir").join("a.sbpc"))
        .run()
        .expect_err("missing parent dir must be rejected before the run");
    assert!(matches!(err, PartitionError::CheckpointPath(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero cadence is refused at `run()`, as a zero sync period is, never
/// clamped to every boundary.
#[test]
fn zero_checkpoint_every_is_refused() {
    let dir = temp_dir("every0");
    let path = dir.join("a.sbpc");
    let err = Partitioner::on(&fixture())
        .config(cfg())
        .checkpoint_to(&path)
        .checkpoint_every(0)
        .run()
        .expect_err("checkpoint_every(0) must be refused");
    assert_eq!(err, PartitionError::ZeroCheckpointEvery);
    assert!(!path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointing_is_rejected_on_unsupported_pipelines() {
    let dir = temp_dir("unsupported");
    let path = dir.join("a.sbpc");
    let err = Partitioner::on(&fixture())
        .sample(SamplingStrategy::UniformNode, 0.5)
        .config(cfg())
        .checkpoint_to(&path)
        .run()
        .expect_err("sampling pipelines cannot checkpoint");
    assert!(
        matches!(err, PartitionError::CheckpointUnsupported(_)),
        "{err:?}"
    );
    let err = Partitioner::on(&fixture())
        .backend(Backend::DcSbp { ranks: 2 })
        .config(cfg())
        .checkpoint_to(&path)
        .run()
        .expect_err("DC-SBP cannot checkpoint");
    assert!(
        matches!(err, PartitionError::CheckpointUnsupported(_)),
        "{err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
