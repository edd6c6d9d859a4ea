//! Layer replay for the traced run: timed direct calls into single
//! layers' public functions, on the workload's own graph.
//!
//! Two blockmodel states bracket what a solve sees: **hiC**, the state
//! one `merge_phase` from `Blockmodel::identity` produces (`C = V/2`,
//! sparse storage, where the search spends its first iterations), and
//! **loC**, the run's final partition (dense storage, where it spends
//! its last). Runs in its own child process so the pool width matches
//! the workload's (`SBP_THREADS`).

use crate::args::Args;
use crate::json::{num, Value};
use crate::rep::SplitMix;
use crate::stats::median;
use crate::workload::{read_labels, RANKS};
use edist::core::golden::BracketEntry;
use edist::core::hybrid::batch_sweep;
use edist::core::mcmc::AcceptedMove;
use edist::core::sbp::{mcmc_phase_seed, merge_phase};
use edist::core::{keyed_mh_sweep, Blockmodel};
use edist::dist::exchange::{decode_moves, encode_cells, encode_moves};
use edist::graph::io::load_graph;
use edist::graph::shard::shard_paths;
use edist::graph::Graph;
use edist::mpi::{TcpComm, TcpConfig};
use edist::prelude::*;
use edist::serve::protocol;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median seconds of `reps` calls of `f` (results are black-boxed).
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Bytes of one replayed collective payload.
const ALLGATHER_BYTES: usize = 64 * 1024;
/// Collectives per transport replay.
const ALLGATHER_REPS: usize = 200;

fn allgather_loop<C: Communicator>(comm: &C) -> f64 {
    let payload = vec![7u8; ALLGATHER_BYTES];
    let t = Instant::now();
    for _ in 0..ALLGATHER_REPS {
        black_box(comm.allgatherv(payload.clone()));
    }
    t.elapsed().as_secs_f64() / ALLGATHER_REPS as f64
}

/// `(connect_s, allgather_s)` over two loopback `TcpComm`s, one per
/// thread of this process.
fn tcp_replay(port: u16, session: u64) -> Result<(f64, f64), String> {
    let rank = |r: usize| -> Result<(f64, f64), String> {
        let cfg = TcpConfig::new(session, r, RANKS, format!("127.0.0.1:{port}"));
        let t = Instant::now();
        let comm = TcpComm::connect(&cfg).map_err(|e| format!("tcp replay rank {r}: {e}"))?;
        let connect_s = t.elapsed().as_secs_f64();
        Ok((connect_s, allgather_loop(&comm)))
    };
    std::thread::scope(|scope| {
        let peers: Vec<_> = (1..RANKS).map(|r| scope.spawn(move || rank(r))).collect();
        let root = rank(0);
        for p in peers {
            p.join().map_err(|_| "tcp replay peer panicked")??;
        }
        root
    })
}

/// The solver-layer replay shared by every workload.
fn core_replay(
    out: &mut BTreeMap<String, Value>,
    graph: &Graph,
    labels: Vec<u32>,
    blocks: usize,
    seed: u64,
    batch: bool,
    scratch: &Path,
) -> Result<(), String> {
    let n = graph.num_vertices();
    let vertices: Vec<u32> = (0..n as u32).collect();
    let cfg = SbpConfig {
        seed,
        ..SbpConfig::default()
    };
    let sweep_seed = mcmc_phase_seed(seed, 0);
    let sweep = |bm: &mut Blockmodel| {
        if batch {
            batch_sweep(graph, bm, &vertices, cfg.beta, sweep_seed, 0)
        } else {
            keyed_mh_sweep(graph, bm, &vertices, cfg.beta, sweep_seed, 0)
        }
    };
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), num(v));
    };

    let identity = Blockmodel::identity(graph);
    let mut hi = None;
    put(
        "core.merge_phase_ms_hiC",
        timed(3, || {
            hi = Some(merge_phase(graph, &identity, n / 2, &cfg, 0))
        }) * 1e3,
    );
    let hi = hi.expect("merge_phase ran");
    put(
        "core.sweep_ms_hiC",
        timed(3, || sweep(&mut hi.clone()).moves.len()) * 1e3,
    );
    put(
        "core.rebuild_ms_hiC",
        timed(5, || {
            Blockmodel::from_assignment(graph, hi.assignment().to_vec(), hi.num_blocks())
        }) * 1e3,
    );
    put(
        "core.rebuild_ms_loC",
        timed(9, || {
            Blockmodel::from_assignment(graph, labels.clone(), blocks)
        }) * 1e3,
    );
    let lo = Blockmodel::from_assignment(graph, labels.clone(), blocks);
    put(
        "core.sweep_ms_loC",
        timed(5, || sweep(&mut lo.clone()).moves.len()) * 1e3,
    );
    put("core.entropy_us_loC", timed(101, || lo.entropy()) * 1e6);

    let entry = BracketEntry {
        assignment: labels,
        num_blocks: blocks,
        dl: lo.description_length(),
    };
    let state = CheckpointState {
        seed,
        strategy_tag: 0,
        num_vertices: n as u64,
        total_edge_weight: graph.total_edge_weight().max(0) as u64,
        next_iter: 1,
        iterations: Vec::new(),
        hi: Some(entry.clone()),
        mid: Some(entry),
        lo: None,
    };
    let path = scratch.join("replay.sbpc");
    let mut write_error = None;
    put(
        "core.checkpoint_write_ms",
        timed(5, || {
            if let Err(e) = state.write_to(&path) {
                write_error = Some(e.to_string());
            }
        }) * 1e3,
    );
    if let Some(e) = write_error {
        return Err(format!("checkpoint write to {}: {e}", path.display()));
    }
    put("core.checkpoint_bytes", state.encode().len() as f64);
    Ok(())
}

/// `edist-bench rep replay --workload W --graph G --assignment A
/// --blocks C --seed S [--shards DIR --port P --session N]`.
pub fn replay_rep(args: &Args) -> Result<Value, String> {
    let workload = args.require("workload")?.to_string();
    let graph_path = PathBuf::from(args.require("graph")?);
    let labels = read_labels(Path::new(args.require("assignment")?))?;
    let blocks: usize = args.num("blocks", 1)?;
    let seed: u64 = args.num("seed", 0)?;
    let graph =
        load_graph(&graph_path).map_err(|e| format!("loading {}: {e}", graph_path.display()))?;
    let scratch = graph_path.parent().unwrap_or(Path::new(".")).to_path_buf();
    let mut out = BTreeMap::new();
    let sharded = workload.starts_with("edist_");
    core_replay(&mut out, &graph, labels, blocks, seed, sharded, &scratch)?;
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), num(v));
    };

    if sharded {
        let dir = PathBuf::from(args.require("shards")?);
        let paths = shard_paths(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut open_error = None;
        put(
            "graph.shard_open_s",
            timed(9, || {
                for p in &paths {
                    match ShardReader::open(p) {
                        Ok(r) => {
                            black_box(r.edges().len());
                        }
                        Err(e) => open_error = Some(format!("{}: {e}", p.display())),
                    }
                }
            }),
        );
        if let Some(e) = open_error {
            return Err(e);
        }
        let mut ingest_error = None;
        put(
            "dist.ingest_s",
            timed(3, || {
                let outcome = ThreadCluster::run(RANKS, CostModel::hdr100(), |comm| {
                    load_dist_graph(comm, &dir)
                        .map(|dg| dg.local_arcs())
                        .map_err(|e| e.to_string())
                });
                if let Some(e) = outcome.ranks.into_iter().find_map(|r| r.result.err()) {
                    ingest_error = Some(e);
                }
            }),
        );
        if let Some(e) = ingest_error {
            return Err(format!("ingest replay: {e}"));
        }

        // V/4 seeded moves / cells: the size of an early-sweep exchange.
        let n = graph.num_vertices();
        let mut rng = SplitMix(seed ^ 0x00c0_dec5);
        let mut moves: Vec<AcceptedMove> = (0..n / 4)
            .map(|_| AcceptedMove {
                v: rng.below(n) as u32,
                to: rng.below(n / 2) as u32,
            })
            .collect();
        moves.sort_by_key(|m| m.v);
        let cells: Vec<(u32, u32, i64)> = (0..n / 4)
            .map(|_| {
                let (r, c) = (rng.below(n / 2) as u32, rng.below(n / 2) as u32);
                (r, c, rng.below(5) as i64 - 2)
            })
            .collect();
        let encoded = encode_moves(&moves);
        put(
            "dist.encode_moves_us",
            timed(101, || encode_moves(&moves)) * 1e6,
        );
        put(
            "dist.decode_moves_us",
            timed(101, || decode_moves(&encoded).map(|m| m.len())) * 1e6,
        );
        put(
            "dist.encode_cells_us",
            timed(101, || encode_cells(&cells)) * 1e6,
        );

        if workload == "edist_thread_sparse" {
            let outcome = ThreadCluster::run(RANKS, CostModel::hdr100(), allgather_loop);
            put("mpi.thread_allgather_us", outcome.root() * 1e6);
        } else {
            let (connect_s, allgather_s) =
                tcp_replay(args.num("port", 0)?, args.num("session", 1)?)?;
            put("mpi.tcp_connect_s", connect_s);
            put("mpi.tcp_allgather_us", allgather_s * 1e6);
        }
    }

    if workload == "serve_warm" {
        // One `Membership(64 ids)` request through the daemon's framing.
        let payload = Request::Membership((0..64).collect()).encode();
        let mut codec_error = None;
        put(
            "serve.frame_codec_us",
            timed(1001, || {
                let frame = protocol::encode_frame(&payload);
                match protocol::decode_frame(&frame) {
                    Ok((body, _)) => body.len(),
                    Err(e) => {
                        codec_error = Some(e.to_string());
                        0
                    }
                }
            }) * 1e6,
        );
        if let Some(e) = codec_error {
            return Err(format!("frame codec replay: {e}"));
        }
    }
    Ok(Value::Obj(out))
}
