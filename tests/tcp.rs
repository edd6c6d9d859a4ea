//! The real cluster: multi-process EDiSt over localhost TCP, proven
//! **byte-identical** to the in-process thread simulator.
//!
//! Every test here drives the `edist-cli` binary as real OS processes —
//! one per rank — rendezvousing over `127.0.0.1` sockets, because the
//! whole point of `TcpComm` is that nothing about the algorithm changes
//! when the ranks stop sharing an address space:
//!
//! * **Transport equivalence matrix** — ranks {1, 2, 4} × MCMC
//!   {Metropolis-Hastings, Batch} × {monolithic `--graph`, `--sharded`}
//!   (× DC-SBP at 2 ranks), plus the `tcp-local` launcher at
//!   `--sync-period` 1 and 3: the assignment file AND the exact
//!   trajectory file (per-iteration block counts, DL as raw `f64` bits,
//!   sweeps, moves) written by *every* TCP rank must equal the thread
//!   simulator's byte for byte.
//! * **Handshake hostility** — a wrong session id, a duplicated rank
//!   claim, and a dead coordinator each produce a typed error and a
//!   prompt nonzero exit on every involved process. No hangs.
//! * **Fault tolerance** — SIGKILL one rank of a live 3-process
//!   cluster mid-run; the survivors detect the dead peer, cascade the
//!   poison, and exit with the degraded code (3 under
//!   `--fail-on-degraded`) and their best-so-far partition, within a
//!   bounded timeout.
//!
//! The per-rank *results* are compared, never the `ClusterReport`
//! counters: a real process can only see its own rank's byte/collective
//! accounting (documented divergence in `sbp_dist::tcprun`).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Path of the compiled CLI under test.
fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_edist-cli")
}

/// Runs the CLI to completion, asserting success; returns stderr.
fn cli_ok(args: &[&str]) -> String {
    let out = Command::new(exe())
        .args(args)
        .output()
        .expect("failed to run edist-cli");
    assert!(
        out.status.success(),
        "edist-cli {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory keyed by test name + pid.
fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbp_tcp_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shared CLI fixture: a small planted-partition challenge graph.
fn fixture(dir: &Path, vertices: &str, difficulty: &str) -> PathBuf {
    let graph = dir.join("g.mtx");
    cli_ok(&[
        "generate",
        "--family",
        "challenge",
        "--vertices",
        vertices,
        "--difficulty",
        difficulty,
        "--seed",
        "9",
        "--out",
        graph.to_str().unwrap(),
    ]);
    graph
}

/// Splits the fixture into an `N`-shard `.sbps` directory.
fn shard_fixture(dir: &Path, graph: &Path, ranks: usize) -> PathBuf {
    let shards = dir.join(format!("shards{ranks}"));
    cli_ok(&[
        "shard",
        "--graph",
        graph.to_str().unwrap(),
        "--ranks",
        &ranks.to_string(),
        "--strategy",
        "balanced",
        "--out",
        shards.to_str().unwrap(),
    ]);
    shards
}

/// A localhost address with a just-freed port for the coordinator.
fn free_addr() -> String {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

/// Launch-unique session ids so concurrent tests (and stale processes
/// from a crashed earlier test run) can never join each other's mesh.
fn fresh_session() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    ((std::process::id() as u64) << 32) ^ 0x7C9A_0000 ^ n
}

/// Spawns one `--cluster tcp` rank with piped stdio.
fn spawn_rank(args: &[&str]) -> Child {
    Command::new(exe())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn edist-cli rank")
}

/// One exited rank: its status plus captured stderr.
struct Finished {
    code: Option<i32>,
    stderr: String,
}

/// Waits for every child within `secs` seconds, killing the stragglers
/// and panicking on timeout — the "no hang" half of every assertion
/// below. Returns per-child exit codes and stderr in spawn order.
fn wait_all_bounded(mut children: Vec<Child>, secs: u64, ctx: &str) -> Vec<Finished> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut done = vec![false; children.len()];
    while done.iter().any(|d| !d) {
        for (i, child) in children.iter_mut().enumerate() {
            if !done[i] && child.try_wait().expect("try_wait failed").is_some() {
                done[i] = true;
            }
        }
        if Instant::now() > deadline {
            for child in &mut children {
                let _ = child.kill();
            }
            panic!("{ctx}: cluster still running after {secs}s — a rank hung");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    children
        .into_iter()
        .map(|child| {
            let out = child.wait_with_output().expect("wait_with_output failed");
            Finished {
                code: out.status.code(),
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            }
        })
        .collect()
}

fn read_bytes(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Asserts two output files are byte-identical (assignments and
/// trajectories are written in exact formats, so `==` IS bit-identity
/// of the underlying labels / DL f64 bits).
fn assert_same_file(reference: &Path, got: &Path, ctx: &str) {
    assert_eq!(
        read_bytes(reference),
        read_bytes(got),
        "{ctx}: {} differs from {}",
        got.display(),
        reference.display()
    );
}

/// Launches a full N-rank TCP cluster against `source_args`, every rank
/// writing its own `--out` / `--trajectory-out`, and waits for all of
/// them to succeed. Returns the per-rank (assignment, trajectory) paths.
fn run_tcp_cluster(
    dir: &Path,
    tag: &str,
    ranks: usize,
    mcmc: &str,
    source_args: &[&str],
) -> Vec<(PathBuf, PathBuf)> {
    let coordinator = free_addr();
    let session = fresh_session().to_string();
    let ranks_s = ranks.to_string();
    let mut children = Vec::with_capacity(ranks);
    let mut outputs = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let assignment = dir.join(format!("{tag}_r{rank}.txt"));
        let trajectory = dir.join(format!("{tag}_r{rank}.traj"));
        let rank_s = rank.to_string();
        let mut args: Vec<&str> = vec![
            "partition",
            "--cluster",
            "tcp",
            "--rank",
            &rank_s,
            "--ranks",
            &ranks_s,
            "--coordinator",
            &coordinator,
            "--session",
            &session,
            "--seed",
            "5",
            "--mcmc",
            mcmc,
        ];
        args.extend_from_slice(source_args);
        let assignment_s = assignment.to_str().unwrap().to_string();
        let trajectory_s = trajectory.to_str().unwrap().to_string();
        args.extend_from_slice(&["--out", &assignment_s, "--trajectory-out", &trajectory_s]);
        children.push(spawn_rank(&args));
        outputs.push((assignment, trajectory));
    }
    let finished = wait_all_bounded(children, 120, tag);
    for (rank, f) in finished.iter().enumerate() {
        assert_eq!(
            f.code,
            Some(0),
            "{tag}: rank {rank} failed (exit {:?}):\n{}",
            f.code,
            f.stderr
        );
    }
    outputs
}

// ------------------------------------------------- transport equivalence

/// The tentpole claim: a real multi-process TCP cluster is bit-identical
/// to the in-process thread simulator at the same rank count, seed, and
/// strategy — for monolithic and sharded sources alike, on every
/// rank's independently written output.
#[test]
fn tcp_cluster_is_bit_identical_to_thread_simulator() {
    let dir = temp("matrix");
    let graph = fixture(&dir, "120", "easy");
    for ranks in [1usize, 2, 4] {
        let shards = shard_fixture(&dir, &graph, ranks);
        // DC-SBP runs the same rank body; one rank count covers its
        // column (its per-rank solves are plain single-node SBP).
        let backends: &[&str] = if ranks == 2 {
            &["edist", "dcsbp"]
        } else {
            &["edist"]
        };
        for mcmc in ["mh", "batch"] {
            for &backend in backends {
                let cell = format!("{backend}_{ranks}_{mcmc}");
                // Thread-simulator references, monolithic and sharded.
                let ref_mono = dir.join(format!("thread_mono_{cell}.txt"));
                let ref_mono_traj = dir.join(format!("thread_mono_{cell}.traj"));
                cli_ok(&[
                    "partition",
                    "--graph",
                    graph.to_str().unwrap(),
                    "--backend",
                    backend,
                    "--ranks",
                    &ranks.to_string(),
                    "--seed",
                    "5",
                    "--mcmc",
                    mcmc,
                    "--out",
                    ref_mono.to_str().unwrap(),
                    "--trajectory-out",
                    ref_mono_traj.to_str().unwrap(),
                ]);
                let ref_shard = dir.join(format!("thread_shard_{cell}.txt"));
                let ref_shard_traj = dir.join(format!("thread_shard_{cell}.traj"));
                cli_ok(&[
                    "partition",
                    "--sharded",
                    shards.to_str().unwrap(),
                    "--backend",
                    backend,
                    "--ranks",
                    &ranks.to_string(),
                    "--seed",
                    "5",
                    "--mcmc",
                    mcmc,
                    "--out",
                    ref_shard.to_str().unwrap(),
                    "--trajectory-out",
                    ref_shard_traj.to_str().unwrap(),
                ]);

                // Real processes, monolithic source.
                let tag = format!("tcp_mono_{cell}");
                let mono = run_tcp_cluster(
                    &dir,
                    &tag,
                    ranks,
                    mcmc,
                    &["--graph", graph.to_str().unwrap(), "--backend", backend],
                );
                for (rank, (assignment, trajectory)) in mono.iter().enumerate() {
                    let ctx = format!("{tag} rank {rank} vs thread");
                    assert_same_file(&ref_mono, assignment, &ctx);
                    assert_same_file(&ref_mono_traj, trajectory, &ctx);
                }

                // Real processes, each ingesting only its own shard.
                let tag = format!("tcp_shard_{cell}");
                let shard = run_tcp_cluster(
                    &dir,
                    &tag,
                    ranks,
                    mcmc,
                    &["--sharded", shards.to_str().unwrap(), "--backend", backend],
                );
                for (rank, (assignment, trajectory)) in shard.iter().enumerate() {
                    let ctx = format!("{tag} rank {rank} vs thread");
                    assert_same_file(&ref_shard, assignment, &ctx);
                    assert_same_file(&ref_shard_traj, trajectory, &ctx);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Batch across rank counts and transports at once: single-node
/// `--backend batch`, the 3-rank thread simulator and a real 3-process
/// TCP cluster over the same modulo shards write the same assignment. At 3
/// modulo ranks each rank owns exactly one chunk of every Batch sweep and
/// ships nothing at the other two chunks' sync points.
#[test]
fn batch_at_three_tcp_ranks_equals_single_node_batch() {
    let dir = temp("batch3");
    let graph = fixture(&dir, "120", "easy");
    let shards = dir.join("modulo3");
    cli_ok(&[
        "shard",
        "--graph",
        graph.to_str().unwrap(),
        "--ranks",
        "3",
        "--strategy",
        "modulo",
        "--out",
        shards.to_str().unwrap(),
    ]);
    let single = dir.join("single.txt");
    cli_ok(&[
        "partition",
        "--graph",
        graph.to_str().unwrap(),
        "--backend",
        "batch",
        "--seed",
        "5",
        "--out",
        single.to_str().unwrap(),
    ]);
    let (thread, thread_traj) = (dir.join("thread.txt"), dir.join("thread.traj"));
    cli_ok(&[
        "partition",
        "--sharded",
        shards.to_str().unwrap(),
        "--backend",
        "edist",
        "--ranks",
        "3",
        "--seed",
        "5",
        "--mcmc",
        "batch",
        "--out",
        thread.to_str().unwrap(),
        "--trajectory-out",
        thread_traj.to_str().unwrap(),
    ]);
    assert_same_file(&single, &thread, "3 thread ranks vs single-node batch");
    let tcp = run_tcp_cluster(
        &dir,
        "tcp_batch3",
        3,
        "batch",
        &["--sharded", shards.to_str().unwrap(), "--backend", "edist"],
    );
    for (rank, (assignment, trajectory)) in tcp.iter().enumerate() {
        let ctx = format!("tcp rank {rank} vs 3 thread ranks");
        assert_same_file(&thread, assignment, &ctx);
        assert_same_file(&thread_traj, trajectory, &ctx);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `tcp-local` launcher end to end: one command spawns the whole
/// localhost cluster and its (rank-0) outputs equal the simulator's — on
/// a graph solved on dense storage throughout, and on one whose search
/// crosses the auto storage rule (`C` = 600, 300 sparse; 150, 75 dense),
/// where every rank process must make the same pick from `(C, E)`. On the
/// first graph `--sync-period 3` must reach both transports too: their
/// outputs agree with each other and differ from the every-sweep run's.
#[test]
fn tcp_local_launcher_matches_thread_simulator() {
    for (vertices, difficulty, periods) in
        [("120", "easy", &["1", "3"][..]), ("600", "hard", &["1"])]
    {
        let dir = temp(&format!("launcher{vertices}"));
        let graph = fixture(&dir, vertices, difficulty);
        let mut trajectories = Vec::new();
        for &period in periods {
            let reference = dir.join(format!("thread{period}.txt"));
            let ref_traj = dir.join(format!("thread{period}.traj"));
            cli_ok(&[
                "partition",
                "--graph",
                graph.to_str().unwrap(),
                "--backend",
                "edist",
                "--ranks",
                "3",
                "--seed",
                "5",
                "--sync-period",
                period,
                "--out",
                reference.to_str().unwrap(),
                "--trajectory-out",
                ref_traj.to_str().unwrap(),
            ]);
            let local = dir.join(format!("local{period}.txt"));
            let local_traj = dir.join(format!("local{period}.traj"));
            let stderr = cli_ok(&[
                "partition",
                "--graph",
                graph.to_str().unwrap(),
                "--cluster",
                "tcp-local",
                "--ranks",
                "3",
                "--seed",
                "5",
                "--sync-period",
                period,
                "--out",
                local.to_str().unwrap(),
                "--trajectory-out",
                local_traj.to_str().unwrap(),
            ]);
            let ctx = format!("V={vertices} sync period {period}: tcp-local vs thread");
            assert_same_file(&reference, &local, &ctx);
            assert_same_file(&ref_traj, &local_traj, &format!("{ctx} trajectory"));
            assert!(
                stderr.contains("edist(ranks=3)+tcp"),
                "launcher summary should name the tcp backend:\n{stderr}"
            );
            trajectories.push(read_bytes(&ref_traj));
        }
        if let [every_sweep, every_third] = &trajectories[..] {
            assert_ne!(
                every_sweep, every_third,
                "V={vertices}: --sync-period 3 wrote the --sync-period 1 trajectory"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Over shards `tcp-local` picks its rank count as the thread path does:
/// without `--ranks`, one rank per shard and the thread run's files; a
/// rank count other than the shard count is refused once, before any
/// rank is spawned.
#[test]
fn tcp_local_over_shards_runs_one_rank_per_shard() {
    let dir = temp("local_shards");
    let graph = fixture(&dir, "120", "easy");
    let shards = shard_fixture(&dir, &graph, 2);
    let shards = shards.to_str().unwrap();
    let (thread, local) = (dir.join("thread.txt"), dir.join("local.txt"));
    for (cluster, out) in [("thread", &thread), ("tcp-local", &local)] {
        let out = out.to_str().unwrap();
        let line = [
            "--sharded",
            shards,
            "--cluster",
            cluster,
            "--seed",
            "5",
            "--out",
            out,
        ];
        cli_ok(&[&["partition"][..], &line].concat());
    }
    assert_same_file(&thread, &local, "2 shards: tcp-local vs thread");
    let out = Command::new(exe())
        .args(["partition", "--sharded", shards, "--cluster", "tcp-local"])
        .args(["--ranks", "3", "--seed", "5"])
        .output()
        .expect("failed to run edist-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let refusal = "backend wants 3 ranks but the directory holds 2 shards";
    assert_eq!(stderr.matches(refusal).count(), 1, "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------ handshake failures

/// A rank joining with the wrong session id is rejected with a typed
/// error on BOTH sides — the joiner and the coordinator — promptly.
#[test]
fn wrong_session_is_rejected_typed_on_both_sides() {
    let dir = temp("wrong_session");
    let graph = fixture(&dir, "120", "easy");
    let coordinator = free_addr();
    let good = fresh_session().to_string();
    let bad = fresh_session().to_string();
    let g = graph.to_str().unwrap();
    let base = |rank: &'static str, session: &str| -> Vec<String> {
        [
            "partition",
            "--graph",
            g,
            "--cluster",
            "tcp",
            "--rank",
            rank,
            "--ranks",
            "2",
            "--coordinator",
            &coordinator,
            "--session",
            session,
            "--handshake-timeout",
            "10",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    };
    let rank0: Vec<String> = base("0", &good);
    let rank1: Vec<String> = base("1", &bad);
    let children = vec![
        spawn_rank(&rank0.iter().map(|s| s.as_str()).collect::<Vec<_>>()),
        spawn_rank(&rank1.iter().map(|s| s.as_str()).collect::<Vec<_>>()),
    ];
    let finished = wait_all_bounded(children, 60, "wrong-session handshake");
    for (who, f) in finished.iter().enumerate() {
        assert_ne!(
            f.code,
            Some(0),
            "rank {who} should fail the wrong-session handshake:\n{}",
            f.stderr
        );
        assert!(
            f.stderr.contains("error:"),
            "rank {who} should print a typed error:\n{}",
            f.stderr
        );
    }
    // The coordinator names the mismatch; the joiner sees the typed
    // rejection frame it was sent before the coordinator bailed.
    assert!(
        finished[0].stderr.contains("session mismatch"),
        "coordinator stderr:\n{}",
        finished[0].stderr
    );
    assert!(
        finished[1].stderr.contains("rejected handshake") || finished[1].stderr.contains("session"),
        "joiner stderr:\n{}",
        finished[1].stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two processes claiming the same rank: the coordinator rejects the
/// second claim with a typed DUPLICATE_RANK error and fails fast, so
/// every process in the (incomplete) rendezvous exits — no hang.
#[test]
fn duplicate_rank_is_rejected_typed() {
    let dir = temp("dup_rank");
    let graph = fixture(&dir, "120", "easy");
    let coordinator = free_addr();
    let session = fresh_session().to_string();
    let g = graph.to_str().unwrap();
    // World of 3 so the rendezvous window stays open: rank 2 never
    // arrives; instead rank 1 arrives twice.
    let spawn = |rank: &str| -> Child {
        spawn_rank(&[
            "partition",
            "--graph",
            g,
            "--cluster",
            "tcp",
            "--rank",
            rank,
            "--ranks",
            "3",
            "--coordinator",
            &coordinator,
            "--session",
            &session,
            "--handshake-timeout",
            "10",
        ])
    };
    let coord = spawn("0");
    let first = spawn("1");
    // Let the first rank-1 claim land before the imposter's.
    std::thread::sleep(Duration::from_millis(500));
    let imposter = spawn("1");
    let finished = wait_all_bounded(vec![coord, first, imposter], 60, "duplicate-rank handshake");
    for (who, f) in finished.iter().enumerate() {
        assert_ne!(
            f.code,
            Some(0),
            "process {who} should fail the duplicate-rank handshake:\n{}",
            f.stderr
        );
    }
    let all: String = finished.iter().map(|f| f.stderr.as_str()).collect();
    assert!(
        all.contains("rank 1"),
        "someone should name the contested rank:\n{all}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dialing a coordinator that never existed fails with a typed connect
/// error within the handshake budget — it does not hang.
#[test]
fn dead_coordinator_fails_bounded() {
    let dir = temp("dead_coord");
    let graph = fixture(&dir, "120", "easy");
    let coordinator = free_addr(); // bound once, then closed: nobody home
    let started = Instant::now();
    let child = spawn_rank(&[
        "partition",
        "--graph",
        graph.to_str().unwrap(),
        "--cluster",
        "tcp",
        "--rank",
        "1",
        "--ranks",
        "2",
        "--coordinator",
        &coordinator,
        "--session",
        &fresh_session().to_string(),
        "--handshake-timeout",
        "2",
    ]);
    let finished = wait_all_bounded(vec![child], 45, "dead coordinator");
    let f = &finished[0];
    assert_ne!(f.code, Some(0), "joining a dead coordinator must fail");
    assert!(
        f.stderr.contains("could not connect") || f.stderr.contains("timed out"),
        "expected a typed connect/timeout error:\n{}",
        f.stderr
    );
    assert!(
        started.elapsed() < Duration::from_secs(45),
        "dead-coordinator failure took too long"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------- fault path

/// SIGKILL one real process of a 3-rank cluster mid-run: the survivors
/// observe the dead link, cascade the poison, and exit with the
/// degraded code (3 under `--fail-on-degraded`) carrying their
/// best-so-far partition — within a bounded timeout, never a hang.
///
/// The kill delay is a ladder, not a single guess: run durations vary
/// ~10× between dev and release profiles, so each attempt classifies
/// its outcome (too early → handshake error, too late → clean exit 0)
/// and retries with a longer delay until the kill lands mid-run.
#[test]
fn killed_rank_degrades_survivors_within_bounded_time() {
    let dir = temp("kill");
    // Hard difficulty + more vertices: a run long enough to kill into.
    let graph = fixture(&dir, "600", "hard");
    let g = graph.to_str().unwrap();
    let mut landed = false;
    'ladder: for (attempt, delay_ms) in [40u64, 80, 150, 400, 1000, 2500].into_iter().enumerate() {
        let coordinator = free_addr();
        let session = fresh_session().to_string();
        let spawn = |rank: &str, out: &str| -> Child {
            spawn_rank(&[
                "partition",
                "--graph",
                g,
                "--cluster",
                "tcp",
                "--rank",
                rank,
                "--ranks",
                "3",
                "--coordinator",
                &coordinator,
                "--session",
                &session,
                "--seed",
                "5",
                "--tcp-timeout",
                "10",
                "--fail-on-degraded",
                "true",
                "--out",
                out,
            ])
        };
        let out0 = dir.join(format!("a{attempt}_r0.txt"));
        let out1 = dir.join(format!("a{attempt}_r1.txt"));
        let survivors = vec![
            spawn("0", out0.to_str().unwrap()),
            spawn("1", out1.to_str().unwrap()),
        ];
        let mut victim = spawn(
            "2",
            dir.join(format!("a{attempt}_r2.txt")).to_str().unwrap(),
        );
        std::thread::sleep(Duration::from_millis(delay_ms));
        victim.kill().expect("SIGKILL of victim rank failed");
        let _ = victim.wait();
        // Bounded: the 10s read timeout is the backstop; allow slack
        // for the remaining solve + exit on slow machines.
        let finished = wait_all_bounded(survivors, 90, "killed-rank survivors");
        let codes: Vec<Option<i32>> = finished.iter().map(|f| f.code).collect();
        if codes.iter().all(|c| *c == Some(0)) {
            continue 'ladder; // killed too late: the run had finished
        }
        if codes.iter().any(|c| *c != Some(3)) {
            continue 'ladder; // killed too early: died in the handshake
        }
        for (who, f) in finished.iter().enumerate() {
            assert!(
                f.stderr.contains("degraded (rank failure)"),
                "survivor {who} should report the rank failure:\n{}",
                f.stderr
            );
        }
        // Best-so-far partitions were still written by both survivors.
        assert!(out0.exists() && std::fs::metadata(&out0).unwrap().len() > 0);
        assert!(out1.exists() && std::fs::metadata(&out1).unwrap().len() > 0);
        landed = true;
        break;
    }
    assert!(
        landed,
        "no kill delay landed mid-run: survivors either always finished \
         cleanly or always failed the handshake"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The DC-SBP row of the kill drill. DC-SBP has two sync points (the
/// gather, the broadcast) and nothing to SIGKILL into between them, so
/// the death is injected deterministically: over a *replicated* graph a
/// killed rank must degrade the whole `tcp-local` cluster — exit 3 under
/// `--fail-on-degraded`, best-so-far partition written — not panic it.
#[test]
fn killed_rank_degrades_dcsbp_over_a_replicated_graph() {
    let dir = temp("kill_dcsbp");
    let graph = fixture(&dir, "120", "easy");
    let out = dir.join("out.txt");
    let result = Command::new(exe())
        .args([
            "partition",
            "--graph",
            graph.to_str().unwrap(),
            "--cluster",
            "tcp-local",
            "--backend",
            "dcsbp",
            "--ranks",
            "2",
            "--seed",
            "5",
            "--tcp-timeout",
            "10",
            "--fault-plan",
            "seed:7,kill:1@0",
            "--fail-on-degraded",
            "true",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("failed to run edist-cli");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(3), "expected exit 3:\n{stderr}");
    assert!(
        stderr.contains("degraded (rank failure)"),
        "rank 0 should report the rank failure:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "a rank panicked:\n{stderr}");
    assert!(out.exists(), "best-so-far partition was not written");
    let _ = std::fs::remove_dir_all(&dir);
}
