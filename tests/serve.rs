//! Incremental-equivalence suite for the resident partition server.
//!
//! The contract under test: after a batch of random edge deltas, a
//! **warm** repartition (seeded from the pre-delta partition, sweeping
//! only the dirty one-hop neighborhood) must reach a description length
//! no worse than a **cold** run over the same mutated graph, and must
//! recover the planted communities just as well — while the daemon's
//! `Membership`/`Stats` replies stay exactly consistent with an
//! equivalent in-process run. The socket layer is tested end-to-end
//! over a real unix socket, including a malformed-frame probe that the
//! daemon must survive.

use edist::core::run::SingleNode;
use edist::graph::fixtures::{clique_ring, clique_ring_truth, two_cliques};
use edist::graph::{EdgeDelta, Graph};
use edist::prelude::*;
use edist::serve::protocol::RepartitionMode;
use edist::serve::{dirty_set, Client, Listen, Request, Response, Server, ServerOptions};
use std::path::PathBuf;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A valid batch of `count` random deltas for `graph`: additions of
/// fresh weight anywhere, removals only from arcs that exist (so the
/// batch always applies cleanly).
fn random_deltas(graph: &Graph, count: usize, seed: u64) -> Vec<EdgeDelta> {
    let n = graph.num_vertices() as u64;
    let arcs: Vec<(u32, u32, i64)> = graph.arcs().collect();
    let mut rng = seed;
    let mut deltas = Vec::with_capacity(count);
    for _ in 0..count {
        if splitmix(&mut rng).is_multiple_of(3) && !arcs.is_empty() {
            let (src, dst, w) = arcs[(splitmix(&mut rng) as usize) % arcs.len()];
            deltas.push(EdgeDelta {
                src,
                dst,
                delta: -w.min(1),
            });
        } else {
            let src = (splitmix(&mut rng) % n) as u32;
            let dst = (splitmix(&mut rng) % n) as u32;
            deltas.push(EdgeDelta { src, dst, delta: 1 });
        }
    }
    // Collapse duplicate arcs to one net delta so a removal sampled
    // twice cannot over-remove; drop zero nets.
    deltas.sort_unstable_by_key(|d| (d.src, d.dst));
    deltas.dedup_by(|next, acc| {
        if next.src == acc.src && next.dst == acc.dst {
            acc.delta += next.delta;
            true
        } else {
            false
        }
    });
    deltas.retain(|d| d.delta != 0);
    deltas
}

/// Weight-only perturbations (±1) on arcs that already exist, never
/// draining an arc's last unit — the support of the graph is unchanged.
///
/// This is the incremental serving regime the warm path is specified
/// for: the community structure (and so the optimal block count) is
/// preserved, and the warm search — which agglomerates *down* from its
/// seed but never splits above it — can always reach the mutated
/// optimum. A batch that rewrites the structure wholesale (new
/// communities appearing) is what `Repartition cold` is for.
fn weight_deltas(graph: &Graph, count: usize, seed: u64) -> Vec<EdgeDelta> {
    let arcs: Vec<(u32, u32, i64)> = graph.arcs().collect();
    let mut rng = seed;
    let mut deltas = Vec::with_capacity(count);
    for _ in 0..count {
        let (src, dst, w) = arcs[(splitmix(&mut rng) as usize) % arcs.len()];
        let delta = if splitmix(&mut rng).is_multiple_of(2) && w > 1 {
            -1
        } else {
            1
        };
        deltas.push(EdgeDelta { src, dst, delta });
    }
    deltas.sort_unstable_by_key(|d| (d.src, d.dst));
    deltas.dedup_by(|next, acc| {
        if next.src == acc.src && next.dst == acc.dst {
            acc.delta += next.delta;
            true
        } else {
            false
        }
    });
    deltas.retain(|d| d.delta != 0);
    deltas
}

fn nmi_or_one(a: &[u32], b: &[u32]) -> f64 {
    // NMI of a single-block partition against itself is defined as 0 by
    // convention in some formulations; both fixtures here have >1 block
    // so plain nmi applies.
    nmi(a, b)
}

/// The core equivalence check, shared by the dense- and sparse-regime
/// fixtures: warm-after-deltas must match cold-on-mutated quality.
fn check_incremental_equivalence(graph: Graph, truth: &[u32], seed: u64, deltas: Vec<EdgeDelta>) {
    // Cold solve on the original graph: the warm seed.
    let base = Partitioner::on(&graph)
        .seed(seed)
        .run()
        .expect("base cold run");

    assert!(!deltas.is_empty(), "delta generator produced nothing");
    let mut mutated = graph.clone();
    mutated
        .apply_edge_deltas(&deltas)
        .expect("generated deltas are valid");

    // Cold run over the mutated graph — the quality bar.
    let cold = Partitioner::on(&mutated)
        .seed(seed)
        .run()
        .expect("cold run on mutated graph");

    // Warm run: seeded from the pre-delta partition, sweeping only the
    // one-hop dirty neighborhood.
    let dirty = dirty_set(&mutated, &deltas);
    let warm_start = WarmStart::new(base.assignment.clone(), base.num_blocks).with_dirty(dirty);
    let warm = SingleNode(McmcStrategy::MetropolisHastings).solve(
        &mutated,
        &RunConfig::seeded(seed).warm_start(warm_start),
        &mut NoProgress,
    );

    assert!(
        warm.description_length <= cold.description_length + 1e-9,
        "warm DL {} worse than cold DL {}",
        warm.description_length,
        cold.description_length
    );
    let nmi_cold = nmi_or_one(&cold.assignment, truth);
    let nmi_warm = nmi_or_one(&warm.assignment, truth);
    assert!(
        nmi_warm >= nmi_cold - 1e-9,
        "warm NMI {nmi_warm} below cold NMI {nmi_cold}"
    );
    // The warm path must actually be incremental: fewer golden-loop
    // iterations than the from-C=V cold search.
    assert!(
        warm.iterations.len() <= cold.iterations.len(),
        "warm took {} iterations vs cold {}",
        warm.iterations.len(),
        cold.iterations.len()
    );
}

#[test]
fn incremental_equivalence_dense_regime() {
    // Two 8-cliques: small enough that blockmodels stay dense. The
    // clique structure is robust, so the batch may add arcs anywhere
    // and remove existing ones.
    let graph = two_cliques(8);
    let truth: Vec<u32> = (0..16).map(|v| v / 8).collect();
    let deltas = random_deltas(&graph, 12, 11 ^ 0xD17A);
    check_incremental_equivalence(graph, &truth, 11, deltas);
}

#[test]
fn incremental_equivalence_sparse_regime() {
    // A ring of 24 triangles (72 vertices): the cold search starts at
    // C = V = 72, above the sparse-storage threshold, so this exercises
    // the sparse blockmodel regime. Deltas perturb only existing-arc
    // weights (see `weight_deltas`) so the mutated optimum stays within
    // reach of the merge-only warm search.
    let graph = clique_ring(24);
    let truth = clique_ring_truth(24);
    let deltas = weight_deltas(&graph, 8, 23 ^ 0xD17A);
    check_incremental_equivalence(graph, &truth, 23, deltas);
}

#[test]
fn server_replies_match_in_process_run_exactly() {
    let graph = two_cliques(8);
    let seed = 7;
    // In-process reference: the same sequential backend and seed the
    // server's startup solve uses.
    let reference = Partitioner::on(&graph).seed(seed).run().expect("reference");

    let options = ServerOptions {
        seed,
        ..ServerOptions::default()
    };
    let mut server = Server::new(graph, options, default_registry()).expect("server startup solve");
    assert_eq!(server.assignment(), &reference.assignment[..]);
    assert_eq!(server.num_blocks(), reference.num_blocks);
    assert_eq!(
        server.description_length().to_bits(),
        reference.description_length.to_bits(),
        "server DL must be bit-identical to the in-process run"
    );

    let ids: Vec<u32> = (0..16).collect();
    let (reply, _) = server.handle(Request::Membership(ids.clone()));
    match reply {
        Response::Membership(labels) => {
            let expected: Vec<u32> = ids
                .iter()
                .map(|&v| reference.assignment[v as usize])
                .collect();
            assert_eq!(labels, expected);
        }
        other => panic!("expected Membership, got {other:?}"),
    }
    let (reply, _) = server.handle(Request::Stats);
    match reply {
        Response::Stats(stats) => {
            assert_eq!(stats.num_blocks as usize, reference.num_blocks);
            assert_eq!(stats.dl.to_bits(), reference.description_length.to_bits());
            assert_eq!(stats.pending_deltas, 0);
            let tail: Vec<(u64, u64)> = stats
                .trajectory_tail
                .iter()
                .map(|p| (p.num_blocks, p.dl.to_bits()))
                .collect();
            let expected: Vec<(u64, u64)> = reference
                .iterations
                .iter()
                .rev()
                .take(stats.trajectory_tail.len())
                .rev()
                .map(|s| (s.num_blocks as u64, s.dl.to_bits()))
                .collect();
            assert_eq!(tail, expected, "trajectory tail must mirror the run's");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// `count` fresh arcs between random vertex pairs, each of weight `weight`:
/// a batch heavy enough to pull vertices across blocks.
fn heavy_arcs(graph: &Graph, count: usize, weight: i64, seed: u64) -> Vec<EdgeDelta> {
    let n = graph.num_vertices() as u64;
    let mut rng = seed;
    (0..count)
        .map(|_| EdgeDelta {
            src: (splitmix(&mut rng) % n) as u32,
            dst: (splitmix(&mut rng) % n) as u32,
            delta: weight,
        })
        .collect()
}

/// The daemon's replies do not depend on its pool width. At two workers
/// the golden search may run a probe ahead beside the one it sweeps (the
/// startup solve on this graph does, and commits it), and a warm round
/// runs its first probe beside the refine pass. Rounds of both kinds —
/// ±1 re-weights, where the refine moves nothing and that probe is
/// committed, and heavy new arcs, where it moves vertices and the probe
/// is dropped — each followed by membership of every vertex and stats,
/// must reply exactly as at one worker, down to the DL bits.
#[test]
fn a_warm_round_replies_identically_at_one_and_two_workers() {
    let graph = clique_ring(24);
    let n = graph.num_vertices() as u32;
    // (batch, whether its refine pass moves a vertex)
    let rounds = [
        (weight_deltas(&graph, 8, 5), false),
        (heavy_arcs(&graph, 20, 30, 11), true),
        (weight_deltas(&graph, 8, 6), false),
        (heavy_arcs(&graph, 20, 30, 12), true),
        (weight_deltas(&graph, 8, 7), false),
    ];
    let session = |threads: usize| -> Vec<String> {
        rayon::with_threads(threads, || {
            let options = ServerOptions {
                seed: 1,
                ..ServerOptions::default()
            };
            let mut server =
                Server::new(graph.clone(), options, default_registry()).expect("startup solve");
            let mut replies = Vec::new();
            for (i, (deltas, refine_moves)) in rounds.iter().enumerate() {
                // The refine pass's entry opens the round's trajectory.
                let refine_at = server.checkpoint_state().iterations.len();
                for req in [
                    Request::Ingest(deltas.clone()),
                    Request::Repartition {
                        mode: RepartitionMode::Warm,
                        backend: String::new(),
                    },
                    Request::Membership((0..n).collect()),
                    Request::Stats,
                ] {
                    replies.push(match server.handle(req).0 {
                        // The only reply field that is a clock reading.
                        Response::Stats(stats) => format!(
                            "{:?}",
                            edist::serve::protocol::StatsReply {
                                uptime_seconds: 0.0,
                                ..stats
                            }
                        ),
                        // `Debug` prints every float to its last bit.
                        reply => format!("{reply:?}"),
                    });
                }
                let refine = &server.checkpoint_state().iterations[refine_at];
                assert_eq!(refine.moves > 0, *refine_moves, "round {i}: {refine:?}");
            }
            replies
        })
    };
    let serial = session(1);
    assert!(serial[1].starts_with("RepartitionDone"), "{}", serial[1]);
    assert_eq!(serial, session(2));
}

/// A pending batch that would take the total edge weight past
/// `2³² − 1` is answered `BAD_DELTA` when the repartition applies it; the
/// daemon keeps serving, and its next warm round — membership and DL —
/// equals a daemon that never saw that batch.
#[test]
fn a_batch_past_the_weight_limit_is_a_bad_delta_and_changes_nothing() {
    use edist::graph::MAX_TOTAL_EDGE_WEIGHT;
    use edist::serve::protocol::error_code;
    let graph = clique_ring(24);
    let (src, dst, _) = graph.arcs().next().expect("an arc");
    let room = MAX_TOTAL_EDGE_WEIGHT - graph.total_edge_weight();
    let heavy = vec![
        EdgeDelta {
            src,
            dst,
            delta: room,
        },
        EdgeDelta {
            src: dst,
            dst: src,
            delta: 1,
        },
    ];
    let deltas = weight_deltas(&graph, 8, 5);
    let n = graph.num_vertices() as u32;
    let warm = || Request::Repartition {
        mode: RepartitionMode::Warm,
        backend: String::new(),
    };
    let warm_round = |server: &mut Server| -> Vec<String> {
        [
            Request::Ingest(deltas.clone()),
            warm(),
            Request::Membership((0..n).collect()),
        ]
        .into_iter()
        .map(|req| format!("{:?}", server.handle(req).0))
        .collect()
    };
    let options = || ServerOptions {
        seed: 1,
        ..ServerOptions::default()
    };

    let mut server = Server::new(graph.clone(), options(), default_registry()).expect("startup");
    assert!(matches!(
        server.handle(Request::Ingest(heavy)).0,
        Response::IngestAck { pending_deltas: 2 }
    ));
    match server.handle(warm()).0 {
        Response::Error { code, message } => {
            assert_eq!(code, error_code::BAD_DELTA);
            assert!(message.contains("total edge weight"), "{message}");
        }
        other => panic!("expected BAD_DELTA, got {other:?}"),
    }
    let after_refusal = warm_round(&mut server);
    let dl = server.description_length();

    let mut fresh = Server::new(graph, options(), default_registry()).expect("startup");
    assert_eq!(after_refusal, warm_round(&mut fresh));
    assert!(
        after_refusal[1].starts_with("RepartitionDone"),
        "{}",
        after_refusal[1]
    );
    assert_eq!(dl.to_bits(), fresh.description_length().to_bits());
}

/// Spawns a daemon over a real unix socket and drives the full loop:
/// stats → ingest → membership-from-warm-partition → warm repartition →
/// membership → checkpoint → malformed-frame probe → shutdown.
#[test]
#[cfg(unix)]
fn unix_socket_end_to_end_with_malformed_frame_probe() {
    let dir = std::env::temp_dir().join(format!("edist_serve_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("daemon.sock");
    let ckpt = dir.join("state.sbpc");
    let listen = Listen::Unix(sock.clone());

    let graph = two_cliques(8);
    let pre_delta_reference = Partitioner::on(&graph).seed(3).run().expect("reference");

    let listen_thread = listen.clone();
    let handle = std::thread::spawn(move || {
        let options = ServerOptions {
            seed: 3,
            ..ServerOptions::default()
        };
        let mut server = Server::new(graph, options, default_registry()).expect("startup");
        edist::serve::serve(&mut server, &listen_thread, |_| {}).expect("serve loop");
    });

    // Poll until the socket is accepting.
    let mut client = loop {
        match Client::connect(&listen) {
            Ok(c) => break c,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    };

    // Stats before any change.
    let reply = client.request(&Request::Stats).unwrap();
    let Response::Stats(stats) = reply else {
        panic!("expected Stats, got {reply:?}");
    };
    assert_eq!(stats.num_vertices, 16);
    assert_eq!(stats.pending_deltas, 0);

    // Ingest queues without touching the warm partition...
    // Both deltas inside clique 1, so the one-hop dirty set is a strict
    // subset of the graph.
    let reply = client
        .request(&Request::Ingest(vec![
            EdgeDelta {
                src: 0,
                dst: 1,
                delta: 2,
            },
            EdgeDelta {
                src: 2,
                dst: 3,
                delta: 1,
            },
        ]))
        .unwrap();
    assert_eq!(reply, Response::IngestAck { pending_deltas: 2 });

    // ...so membership still answers from the pre-delta partition.
    let reply = client.request(&Request::Membership(vec![0, 9])).unwrap();
    assert_eq!(
        reply,
        Response::Membership(vec![
            pre_delta_reference.assignment[0],
            pre_delta_reference.assignment[9]
        ])
    );
    let reply = client.request(&Request::Stats).unwrap();
    let Response::Stats(stats) = reply else {
        panic!("expected Stats")
    };
    assert_eq!(stats.pending_deltas, 2, "queue depth visible in Stats");

    // Warm repartition applies the batch incrementally.
    let reply = client
        .request(&Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: String::new(),
        })
        .unwrap();
    let Response::RepartitionDone {
        num_blocks,
        swept_vertices,
        ..
    } = reply
    else {
        panic!("expected RepartitionDone, got {reply:?}");
    };
    assert_eq!(num_blocks, 2, "cliques stay recovered after the deltas");
    assert!(swept_vertices < 16, "dirty sweep, not a full sweep");

    // Membership now answers from the refreshed partition; the two
    // cliques are still separated.
    let reply = client
        .request(&Request::Membership(vec![0, 7, 8, 15]))
        .unwrap();
    let Response::Membership(labels) = reply else {
        panic!("expected Membership")
    };
    assert_eq!(labels[0], labels[1]);
    assert_eq!(labels[2], labels[3]);
    assert_ne!(labels[0], labels[2]);

    // Checkpoint over the wire.
    let reply = client
        .request(&Request::Checkpoint(ckpt.to_string_lossy().into_owned()))
        .unwrap();
    assert!(matches!(reply, Response::CheckpointDone { .. }));
    assert!(ckpt.is_file());

    // The daemon serves connections sequentially, so close this one
    // before probing from another.
    drop(client);

    // Malformed-frame probe on a fresh connection: typed error reply,
    // that connection closes, the daemon survives.
    let mut hostile = Client::connect(&listen).unwrap();
    let reply = hostile.send_raw(b"XX\xFF\xFF\xFF\xFFnot-a-frame").unwrap();
    assert!(
        matches!(reply, Response::Error { .. }),
        "expected an error frame, got {reply:?}"
    );
    drop(hostile);

    // Daemon still serving: a fresh connection gets real answers.
    let mut client = Client::connect(&listen).unwrap();
    let reply = client.request(&Request::Stats).unwrap();
    assert!(matches!(reply, Response::Stats(_)));

    // Clean shutdown.
    let reply = client.request(&Request::Shutdown).unwrap();
    assert_eq!(reply, Response::ShutdownAck);
    handle.join().expect("daemon thread exits cleanly");
    assert!(!sock.exists(), "socket file removed on shutdown");

    // The checkpoint written over the wire resumes a new server over the
    // *mutated* graph (fingerprint matches), and rejects the pre-delta
    // graph with a typed mismatch.
    let mut mutated = two_cliques(8);
    mutated
        .apply_edge_deltas(&[
            EdgeDelta {
                src: 0,
                dst: 1,
                delta: 2,
            },
            EdgeDelta {
                src: 2,
                dst: 3,
                delta: 1,
            },
        ])
        .unwrap();
    let resume_options = ServerOptions {
        seed: 3,
        resume: Some(PathBuf::from(&ckpt)),
        ..ServerOptions::default()
    };
    let resumed = Server::new(mutated, resume_options.clone(), default_registry())
        .expect("resume over the mutated graph");
    assert_eq!(resumed.num_blocks(), 2);
    match Server::new(two_cliques(8), resume_options, default_registry()) {
        Err(edist::serve::ServeError::CheckpointMismatch(_)) => {}
        Err(other) => panic!("expected CheckpointMismatch, got {other}"),
        Ok(_) => panic!("expected CheckpointMismatch, got a server"),
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A peer that stalls — `sent` is everything it ever writes — holds the
/// serial daemon for at most `CONNECTION_IO_TIMEOUT`: the next client in
/// line is answered instead of waiting forever behind it.
#[cfg(unix)]
fn assert_stalled_peer_is_dropped(tag: &str, sent: &[u8]) {
    use edist::serve::CONNECTION_IO_TIMEOUT;
    use std::io::Write;
    use std::sync::mpsc;

    let dir = std::env::temp_dir().join(format!("edist_serve_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let listen = Listen::Unix(dir.join("daemon.sock"));
    let listen_thread = listen.clone();
    let daemon = std::thread::spawn(move || {
        let mut server = Server::new(two_cliques(8), ServerOptions::default(), default_registry())
            .expect("startup");
        edist::serve::serve(&mut server, &listen_thread, |_| {}).expect("serve loop");
    });
    let Listen::Unix(sock) = &listen else {
        unreachable!()
    };
    let mut stalled = loop {
        match std::os::unix::net::UnixStream::connect(sock) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    };
    stalled.write_all(sent).unwrap();

    // The well-behaved client queues behind the stalled one. It runs on
    // its own thread so that a daemon that never drops the stalled peer
    // fails this test instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let listen_client = listen.clone();
    std::thread::spawn(move || {
        let mut client = Client::connect(&listen_client).unwrap();
        let _ = tx.send(client.request(&Request::Stats).is_ok());
        let _ = client.request(&Request::Shutdown);
    });
    let answered = rx.recv_timeout(3 * CONNECTION_IO_TIMEOUT);
    assert_eq!(
        answered,
        Ok(true),
        "{tag}: the client behind a stalled peer was never served"
    );
    daemon.join().expect("daemon thread exits cleanly");
    drop(stalled);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Slow loris: connects and never sends a byte.
#[test]
#[cfg(unix)]
fn silent_peer_is_dropped_after_the_io_timeout() {
    assert_stalled_peer_is_dropped("silent", b"");
}

/// Half a frame, then nothing: a valid header and the first payload
/// bytes of a frame that never completes.
#[test]
#[cfg(unix)]
fn half_frame_then_hang_is_dropped_after_the_io_timeout() {
    let frame = edist::serve::protocol::encode_frame(&Request::Stats.encode());
    assert_stalled_peer_is_dropped("halfframe", &frame[..frame.len() - 5]);
}

#[test]
fn registry_resolution_matches_typed_backends() {
    // The daemon's resolver and the typed Backend enum must produce
    // solvers with identical results — the resolver is a naming layer,
    // not a fork of the configuration.
    let resolve = default_registry();
    let graph = two_cliques(8);
    for name in Backend::NAMES {
        let typed = Backend::parse(name, 2).expect("a listed name parses");
        let solver = resolve(name, 2, 2).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(solver.name(), typed.to_string(), "{name}");
        let distributed = matches!(typed, Backend::Edist { .. } | Backend::DcSbp { .. });
        assert_eq!(solver.supports_warm_start(), !distributed, "{name}");
        let out = solver.solve(&graph, &RunConfig::seeded(1), &mut NoProgress);
        assert_eq!(out.num_blocks, 2, "{name}");
        assert_eq!(out.cluster.is_some(), distributed, "{name}");
    }
    let typed = Partitioner::on(&graph).seed(5).run().expect("typed run");
    let named = resolve("sequential", 1, 1).expect("resolved solver");
    let run = named.solve(&graph, &RunConfig::seeded(5), &mut NoProgress);
    assert_eq!(run.assignment, typed.assignment);
    assert_eq!(
        run.description_length.to_bits(),
        typed.description_length.to_bits()
    );
    // Bad ranks and sync periods get the facade's own errors.
    let zero_ranks = PartitionError::ZeroRanks.to_string();
    assert_eq!(resolve("edist", 0, 1).err(), Some(zero_ranks.clone()));
    assert_eq!(resolve("dcsbp", 0, 1).err(), Some(zero_ranks));
    let zero_period = PartitionError::ZeroSyncPeriod.to_string();
    assert_eq!(resolve("edist", 2, 0).err(), Some(zero_period));
    // Unknown names carry the full known-name list in the error.
    let unknown = resolve("quantum", 1, 1).err().expect("an unknown name");
    let known = Backend::NAMES.join(", ");
    assert_eq!(
        unknown,
        format!("unknown backend 'quantum' (known: {known})")
    );
}

/// `count` cliques of `k` vertices each (all ordered pairs inside a
/// clique), joined in a ring by one arc from each clique's first vertex
/// to the next clique's.
fn ring_of_cliques(count: u32, k: u32) -> Graph {
    let mut edges = Vec::new();
    for c in 0..count {
        let base = c * k;
        for i in 0..k {
            for j in (0..k).filter(|&j| j != i) {
                edges.push((base + i, base + j, 1));
            }
        }
        edges.push((base, (base + k) % (count * k), 1));
    }
    Graph::from_edges((count * k) as usize, edges)
}

/// 130 five-cliques in a ring, and a `.sbpc` snapshot at `path` whose
/// best entry is the planted partition: C = 130 blocks over E = 2 730,
/// on sparse storage (`4·E < C²`). A daemon settles far below that C —
/// a DL optimum of this graph is dense — so a session starts on sparse
/// storage by restoring this snapshot.
fn planted_clique_ring(path: &std::path::Path) -> Graph {
    use edist::core::checkpoint::CheckpointState;
    use edist::core::golden::BracketEntry;
    let (count, k) = (130, 5);
    let graph = ring_of_cliques(count, k);
    let assignment: Vec<u32> = (0..count * k).map(|v| v / k).collect();
    let dl = edist::core::Blockmodel::from_assignment(&graph, assignment.clone(), count as usize)
        .description_length();
    let entry = BracketEntry {
        assignment,
        num_blocks: count as usize,
        dl,
    };
    CheckpointState {
        seed: 3,
        strategy_tag: 0,
        num_vertices: graph.num_vertices() as u64,
        total_edge_weight: graph.total_edge_weight() as u64,
        next_iter: 0,
        iterations: Vec::new(),
        hi: Some(entry.clone()),
        mid: Some(entry),
        lo: None,
    }
    .write_to(path)
    .expect("writing the planted snapshot");
    graph
}

/// The resident model is the model `from_assignment` builds on the
/// server's current graph, in every integer, storage kind and cache bit.
fn assert_resident_model_is_rebuild(server: &Server, when: &str) {
    let rebuilt = edist::core::Blockmodel::from_assignment(
        server.graph(),
        server.assignment().to_vec(),
        server.num_blocks(),
    );
    assert!(
        server.model().same_state(&rebuilt),
        "{when}: the resident model differs from its rebuild"
    );
}

/// Ingests `deltas` (when there are any) and repartitions.
fn round(server: &mut Server, deltas: &[EdgeDelta], mode: RepartitionMode) {
    if !deltas.is_empty() {
        let (ack, _) = server.handle(Request::Ingest(deltas.to_vec()));
        assert!(matches!(ack, Response::IngestAck { .. }), "{ack:?}");
    }
    let (done, _) = server.handle(Request::Repartition {
        mode,
        backend: String::new(),
    });
    assert!(matches!(done, Response::RepartitionDone { .. }), "{done:?}");
}

/// Whether the next warm round's seed, the resident partition over the
/// graph with `pending` applied, is on dense storage.
fn seed_is_dense(server: &Server, pending: &[EdgeDelta]) -> bool {
    let e = server.graph().total_edge_weight() + pending.iter().map(|d| d.delta).sum::<i64>();
    edist::core::auto_picks_dense(server.num_blocks(), e)
}

/// The rounds of a daemon session, each a batch and a mode, on `graph`:
/// ±1 re-weights, an arc driven to weight 0, a new self-loop, a round
/// with no deltas (the full polish pass), a cold round, and warm rounds
/// after it.
fn session_rounds(graph: &Graph) -> Vec<(&'static str, Vec<EdgeDelta>, RepartitionMode)> {
    let (src, dst, w) = graph
        .arcs()
        .find(|&(s, d, _)| s != d)
        .expect("a non-loop arc");
    let delta = |src, dst, delta| EdgeDelta { src, dst, delta };
    let warm = RepartitionMode::Warm;
    vec![
        ("re-weight", weight_deltas(graph, 8, 1), warm),
        ("arc to weight 0", vec![delta(src, dst, -w)], warm),
        ("self-loop", vec![delta(src, src, 2)], warm),
        ("no deltas", Vec::new(), warm),
        ("cold", vec![delta(src, dst, 1)], RepartitionMode::Cold),
        ("re-weight after cold", weight_deltas(graph, 8, 2), warm),
        ("self-loop removed", vec![delta(src, src, -2)], warm),
    ]
}

/// A warm round folds its deltas into the resident blockmodel instead of
/// rebuilding it from the graph. After start-up or a restore, after every
/// round of a session, after a restore from the session's checkpoint and
/// a warm round on it, the resident model must equal its rebuild on the
/// current graph: on a graph whose first warm seed is dense, and on one
/// whose first warm seed is sparse.
#[test]
fn the_resident_model_equals_its_rebuild_after_every_round() {
    let dir = std::env::temp_dir().join(format!("edist_serve_resident_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let planted = dir.join("planted.sbpc");
    let sparse = planted_clique_ring(&planted);
    for (name, graph, resume, dense) in [
        ("two 8-cliques", two_cliques(8), None, true),
        ("130 five-cliques", sparse, Some(planted.clone()), false),
    ] {
        let options = ServerOptions {
            seed: 3,
            resume,
            ..ServerOptions::default()
        };
        let mut server = Server::new(graph.clone(), options.clone(), default_registry())
            .expect("start-up solve or restore");
        assert_resident_model_is_rebuild(&server, &format!("{name}, start-up"));
        let rounds = session_rounds(&graph);
        assert_eq!(seed_is_dense(&server, &rounds[0].1), dense, "{name}");
        for (what, deltas, mode) in rounds {
            round(&mut server, &deltas, mode);
            assert_resident_model_is_rebuild(&server, &format!("{name}, {what}"));
        }

        // A restore builds the model from the snapshot's partition; the
        // warm round after it folds into that one.
        let path = dir.join("session.sbpc");
        let (reply, _) = server.handle(Request::Checkpoint(path.to_string_lossy().into()));
        assert!(
            matches!(reply, Response::CheckpointDone { .. }),
            "{reply:?}"
        );
        let options = ServerOptions {
            resume: Some(path),
            ..options
        };
        let mut resumed =
            Server::new(server.graph().clone(), options, default_registry()).expect("restore");
        assert_eq!(resumed.assignment(), server.assignment());
        assert_resident_model_is_rebuild(&resumed, &format!("{name}, restored"));
        let deltas = weight_deltas(resumed.graph(), 8, 3);
        round(&mut resumed, &deltas, RepartitionMode::Warm);
        assert_resident_model_is_rebuild(&resumed, &format!("{name}, warm after restore"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A batch that moves the warm seed's `(C, E)` over the storage pick:
/// the fold declines, the search builds its seed on the other storage,
/// and the model it hands back is that rebuild's — as is the next
/// round's, folded on the new storage.
#[test]
fn a_warm_round_whose_deltas_flip_the_storage_hands_back_the_rebuild() {
    use edist::core::StorageKind;
    let dir = std::env::temp_dir().join(format!("edist_serve_flip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let planted = dir.join("planted.sbpc");
    let graph = planted_clique_ring(&planted);
    let options = ServerOptions {
        seed: 3,
        resume: Some(planted),
        ..ServerOptions::default()
    };
    let mut server = Server::new(graph, options, default_registry()).expect("restore");
    assert_eq!(server.model().storage_kind(), StorageKind::Sparse);
    let c = server.num_blocks() as i64;
    let (src, dst, _) = server.graph().arcs().next().expect("an arc");
    let flip = EdgeDelta {
        src,
        dst,
        delta: (c * c + 3) / 4 - server.graph().total_edge_weight(),
    };
    assert!(seed_is_dense(&server, &[flip]));
    round(&mut server, &[flip], RepartitionMode::Warm);
    assert_resident_model_is_rebuild(&server, "the flip round");
    let deltas = weight_deltas(server.graph(), 8, 4);
    round(&mut server, &deltas, RepartitionMode::Warm);
    assert_resident_model_is_rebuild(&server, "the round after the flip");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `sbp_solver_graph_builds_total` from a daemon's metrics plane.
fn graph_builds(client: &mut Client) -> u64 {
    let reply = client.request(&Request::Metrics).expect("metrics");
    let Response::Metrics { snapshot_json, .. } = reply else {
        panic!("expected Metrics, got {reply:?}");
    };
    let value = edist::metrics::json::Value::parse(&snapshot_json).expect("snapshot JSON");
    let snap = edist::metrics::Snapshot::from_json(&value).expect("a snapshot");
    match snap.metrics.get("sbp_solver_graph_builds_total") {
        Some(edist::metrics::MetricValue::Counter(n)) => *n,
        other => panic!("sbp_solver_graph_builds_total: {other:?}"),
    }
}

/// A spawned daemon, killed if the test fails before shutting it down.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A warm round walks no arc to build a model, read off the metrics
/// plane of an `edist-cli serve` process (one of its own, so no other
/// test's solve moves the process-wide counter): on a dense warm seed
/// and, restored from the planted snapshot, a sparse one.
#[test]
fn a_warm_round_adds_no_graph_build() {
    let dir = std::env::temp_dir().join(format!("edist_serve_builds_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let planted = dir.join("planted.sbpc");
    let sparse = planted_clique_ring(&planted);
    for (name, graph, resume) in [
        ("two 8-cliques", two_cliques(8), None),
        ("130 five-cliques", sparse, Some(&planted)),
    ] {
        let path = dir.join("g.mtx");
        edist::graph::io::save_graph(&graph, &path).expect("writing the graph");
        let sock = dir.join("d.sock");
        let mut serve = std::process::Command::new(env!("CARGO_BIN_EXE_edist-cli"));
        serve.args(["serve", "--graph", path.to_str().unwrap(), "--seed", "3"]);
        serve
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()));
        if let Some(snapshot) = resume {
            serve.arg("--resume").arg(snapshot);
        }
        let mut daemon = Daemon(
            serve
                .env_remove("SBP_METRICS")
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawning edist-cli serve"),
        );
        let listen = Listen::Unix(sock);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut client = loop {
            match Client::connect(&listen) {
                Ok(client) => break client,
                Err(e) if std::time::Instant::now() > deadline => panic!("{name}: {e}"),
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        };
        let rounds = session_rounds(&graph);
        let warm = rounds
            .iter()
            .filter(|(_, _, mode)| *mode == RepartitionMode::Warm)
            .take(4);
        for (what, deltas, mode) in warm {
            let before = graph_builds(&mut client);
            if !deltas.is_empty() {
                let ack = client.request(&Request::Ingest(deltas.clone())).unwrap();
                assert!(matches!(ack, Response::IngestAck { .. }), "{ack:?}");
            }
            let done = client
                .request(&Request::Repartition {
                    mode: *mode,
                    backend: String::new(),
                })
                .unwrap();
            assert!(matches!(done, Response::RepartitionDone { .. }), "{done:?}");
            assert_eq!(graph_builds(&mut client), before, "{name}, {what}");
        }
        let reply = client.request(&Request::Shutdown).unwrap();
        assert_eq!(reply, Response::ShutdownAck);
        assert!(daemon.0.wait().unwrap().success(), "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
