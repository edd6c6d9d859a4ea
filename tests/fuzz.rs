//! Hostile-input wall: every decoder that ever touches bytes from disk
//! or from a peer — the `.sbps` shard reader, the shared varint codec,
//! the collective payload codecs, the `.sbpc` checkpoint format, and the
//! one frame parser under both of its wire protocols — is fed pure
//! noise, mutated valid encodings, and crafted length prefixes. The
//! contract under fire: **a typed error or a valid value, never a panic,
//! never an allocation sized by attacker bytes.**
//!
//! Two generators drive the wall:
//!
//! * `proptest`-style properties over random byte soup (fixed
//!   deterministic case count);
//! * a seeded byte-mangler loop over *valid* corpus entries — bit
//!   flips, truncations, zeroed and spliced ranges, and huge varint
//!   counts stamped over the length prefix. The iteration count comes
//!   from `FUZZ_ITERS` (default 512; CI runs 10 000), so the same
//!   binary serves as both a fast local check and a deeper CI sweep.
//!
//! No `catch_unwind` anywhere: a panic in any decoder fails the test
//! run directly.

use edist::core::golden::BracketEntry;
use edist::core::mcmc::AcceptedMove;
use edist::core::Blockmodel;
use edist::core::{CheckpointState, IterationStat};
use edist::dist::edist::apply_moves;
use edist::dist::exchange::{
    concat_sections, decode_cells, decode_moves, encode_cells, encode_moves, split_sections,
};
use edist::dist::sharded::{apply_sync, sync_payload};
use edist::dist::{load_dist_graph, DecodeError, DistError, DistGraph, ExchangeStats};
use edist::graph::fixtures::two_cliques;
use edist::graph::frame::FrameError;
use edist::graph::shard::{shard_file_name, shard_graph, ShardReader};
use edist::graph::varint::{read_ascending_ids, read_u64, write_u64};
use edist::graph::EdgeDelta;
use edist::mpi::tcp as tcpwire;
use edist::mpi::thread::ThreadComm;
use edist::mpi::wire;
use edist::mpi::{CostModel, ThreadCluster};
use edist::prelude::OwnershipStrategy;
use edist::serve::protocol::{
    decode_frame, encode_frame, RepartitionMode, StatsReply, TrajectoryPoint, FRAME_TAG,
    MAX_PAYLOAD,
};
use edist::serve::{Request, Response};
use proptest::prelude::*;

/// Session id the TCP-frame corpora are sealed with (data-phase frames
/// mix the session into their checksum seed).
const TCP_SESSION: u64 = 0x7E57_5E55_0000_0001;

fn fuzz_iters() -> usize {
    std::env::var("FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
}

// ------------------------------------------------- seeded byte mangler

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_bytes(rng: &mut u64, max_len: usize) -> Vec<u8> {
    let len = (splitmix(rng) as usize) % (max_len + 1);
    (0..len).map(|_| splitmix(rng) as u8).collect()
}

/// One deterministic mutation of a valid encoding: flip bits, truncate,
/// zero a range, splice noise, or stamp a huge varint count over the
/// prefix (the classic crafted-length attack).
fn mutate(bytes: &[u8], rng: &mut u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match splitmix(rng) % 5 {
        0 => {
            for _ in 0..=(splitmix(rng) % 4) {
                if out.is_empty() {
                    break;
                }
                let i = (splitmix(rng) as usize) % out.len();
                out[i] ^= 1 << (splitmix(rng) % 8);
            }
        }
        1 => {
            if !out.is_empty() {
                let cut = (splitmix(rng) as usize) % out.len();
                out.truncate(cut);
            }
        }
        2 => {
            if !out.is_empty() {
                let start = (splitmix(rng) as usize) % out.len();
                let end = (start + 1 + (splitmix(rng) as usize) % 16).min(out.len());
                out[start..end].fill(0);
            }
        }
        3 => {
            let at = if out.is_empty() {
                0
            } else {
                (splitmix(rng) as usize) % out.len()
            };
            let noise = random_bytes(rng, 8);
            for (i, b) in noise.into_iter().enumerate() {
                out.insert(at + i, b);
            }
        }
        _ => {
            let mut prefix = Vec::new();
            write_u64(&mut prefix, splitmix(rng)); // usually astronomically large
            for (i, b) in prefix.into_iter().enumerate() {
                if i < out.len() {
                    out[i] = b;
                } else {
                    out.push(b);
                }
            }
        }
    }
    out
}

// ------------------------------------------------------ valid corpora

fn move_corpus() -> Vec<u8> {
    let moves: Vec<AcceptedMove> = (0..40u32)
        .map(|i| AcceptedMove {
            v: i * 3 % 97,
            to: i % 7,
        })
        .collect();
    encode_moves(&moves)
}

fn cell_corpus() -> Vec<u8> {
    let cells: Vec<(u32, u32, i64)> = (0..30u32)
        .map(|i| (i / 5, i % 5, i64::from(i) - 12))
        .collect();
    encode_cells(&cells)
}

fn section_corpus() -> Vec<u8> {
    concat_sections([&move_corpus()[..], &cell_corpus()[..], &[1, 2, 3]])
}

fn shard_corpus() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("fuzz_it_shard_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    shard_graph(&two_cliques(8), &dir, 2, OwnershipStrategy::SortedBalanced)
        .expect("shard fixture");
    let bytes = std::fs::read(dir.join(shard_file_name(0, 2))).expect("read shard");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn checkpoint_corpus() -> Vec<u8> {
    let entry = |blocks: usize| BracketEntry {
        assignment: (0..16u32).map(|v| v % blocks as u32).collect(),
        num_blocks: blocks,
        dl: 1234.5 + blocks as f64,
    };
    CheckpointState {
        seed: 33,
        strategy_tag: 0,
        num_vertices: 16,
        total_edge_weight: 48,
        next_iter: 3,
        iterations: vec![
            IterationStat {
                num_blocks: 8,
                dl: 1300.0,
                sweeps: 4,
                moves: 11,
            },
            IterationStat {
                num_blocks: 4,
                dl: 1250.0,
                sweeps: 3,
                moves: 7,
            },
        ],
        hi: Some(entry(8)),
        mid: Some(entry(4)),
        lo: Some(entry(2)),
    }
    .encode()
}

/// A framed wire request exercising every payload shape the `sbp-serve`
/// request decoder has: deltas, strings, ascending id runs.
fn wire_request_corpus() -> Vec<u8> {
    let deltas: Vec<EdgeDelta> = (0..24u32)
        .map(|i| EdgeDelta {
            src: i * 7 % 61,
            dst: i * 11 % 61,
            delta: i64::from(i % 5) - 2,
        })
        .filter(|d| d.delta != 0)
        .collect();
    encode_frame(&Request::Ingest(deltas).encode())
}

/// A framed wire response with the deepest nested payload (`Stats`).
fn wire_response_corpus() -> Vec<u8> {
    let stats = StatsReply {
        num_vertices: 1000,
        num_blocks: 12,
        dl: 54321.75,
        pending_deltas: 7,
        degraded: 1,
        trajectory_tail: (0..5u64)
            .map(|i| TrajectoryPoint {
                num_blocks: 40 - i * 6,
                dl: 60000.0 - i as f64 * 1000.0,
            })
            .collect(),
        backend: "edist".into(),
        uptime_seconds: 98.5,
        ingests: 42,
        repartitions: 6,
    };
    encode_frame(&Response::Stats(stats).encode())
}

/// A second request shape: strings and the ascending-id codec.
fn wire_misc_corpus() -> Vec<u8> {
    encode_frame(
        &Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: "hybrid".into(),
        }
        .encode(),
    )
}

/// The protocol-v2 metrics reply: two long JSON/exposition strings — a
/// different shape from everything else on the wire (big length-prefixed
/// text blocks), so the mangler gets to attack string limits too.
fn wire_metrics_corpus() -> Vec<u8> {
    let resp = Response::Metrics {
        snapshot_json: "{\"sbp_solver_sweeps_total\":{\"type\":\"counter\",\"value\":31}}".into(),
        prometheus: "# TYPE sbp_solver_sweeps_total counter\nsbp_solver_sweeps_total 31\n".into(),
    };
    encode_frame(&resp.encode())
}

/// A sealed data-phase TCP frame around a typical collective payload.
fn tcp_data_frame_corpus() -> Vec<u8> {
    let payload = wire::encode(&vec![1u64, 2, 3, 1 << 40]);
    tcpwire::encode_frame(TCP_SESSION, tcpwire::KIND_DATA, &payload)
}

/// A sealed DATA frame around raw bytes — the shape of every sync
/// payload (`Vec<u8>`: a count, then the bytes as they are).
fn tcp_bytes_frame_corpus() -> Vec<u8> {
    let payload = wire::encode(&section_corpus());
    tcpwire::encode_frame(TCP_SESSION, tcpwire::KIND_DATA, &payload)
}

/// A sealed DATA frame around nested byte runs (`Vec<Vec<u8>>`), one
/// empty, so the mangler meets counts inside counts.
fn tcp_nested_bytes_frame_corpus() -> Vec<u8> {
    let payload = wire::encode(&vec![move_corpus(), Vec::new(), cell_corpus()]);
    tcpwire::encode_frame(TCP_SESSION, tcpwire::KIND_DATA, &payload)
}

/// A sealed HELLO handshake frame (fixed public checksum seed, so a
/// foreign-session HELLO still decodes into a typed rejection).
fn tcp_hello_frame_corpus() -> Vec<u8> {
    let hello = tcpwire::Hello {
        session: TCP_SESSION,
        rank: 3,
        ranks: 8,
        listen: "127.0.0.1:54321".into(),
        version: tcpwire::WIRE_VERSION,
    };
    tcpwire::encode_frame(
        TCP_SESSION,
        tcpwire::KIND_HELLO,
        &tcpwire::encode_hello(&hello),
    )
}

/// A sealed WELCOME frame carrying a full rank → address map.
fn tcp_welcome_frame_corpus() -> Vec<u8> {
    let welcome = tcpwire::Welcome {
        session: TCP_SESSION,
        peers: (0..4)
            .map(|i| format!("127.0.0.1:{}", 40_000 + i))
            .collect(),
    };
    tcpwire::encode_frame(
        TCP_SESSION,
        tcpwire::KIND_WELCOME,
        &tcpwire::encode_welcome(&welcome),
    )
}

/// Feeds one buffer to every decoder under test. Only panics (or
/// runaway allocations, which surface as OOM aborts) can fail this —
/// both `Ok` and typed `Err` results are in-contract.
fn exercise_decoders(bytes: &[u8]) {
    let _ = ShardReader::decode(bytes);
    let _ = decode_moves(bytes);
    let _ = decode_cells(bytes);
    let _ = split_sections::<1>(bytes);
    let _ = split_sections::<3>(bytes);
    let _ = CheckpointState::decode(bytes);
    let mut pos = 0;
    while read_u64(bytes, &mut pos).is_some() && pos < bytes.len() {}
    let mut pos = 0;
    let _ = read_ascending_ids(bytes, &mut pos);
    // The sbp-serve wire stack: the frame layer, then both payload
    // decoders on the raw bytes AND on whatever payload a valid-enough
    // frame yields (a mutant can have a correct checksum over mutated
    // payload bytes).
    if let Ok((payload, _)) = decode_frame(bytes) {
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }
    let _ = Request::decode(bytes);
    let _ = Response::decode(bytes);
    // The TCP transport's pure decoders: the frame layer (which seals
    // data frames with the session and handshake frames with the fixed
    // public seed), then every handshake payload decoder on the raw
    // bytes AND on whatever payload a checksum-valid mutant yields.
    let _ = tcpwire::decode_hello(bytes);
    let _ = tcpwire::decode_welcome(bytes);
    let _ = tcpwire::decode_mesh(bytes);
    let _ = tcpwire::decode_error_frame(bytes);
    let _ = wire::decode::<Vec<u8>>(bytes);
    let _ = wire::decode::<Vec<Vec<u8>>>(bytes);
    if let Ok((_, payload)) = tcpwire::decode_frame(TCP_SESSION, bytes) {
        let _ = tcpwire::decode_hello(&payload);
        let _ = tcpwire::decode_welcome(&payload);
        let _ = tcpwire::decode_mesh(&payload);
        let _ = tcpwire::decode_error_frame(&payload);
        let _ = wire::decode::<Vec<u8>>(&payload);
        let _ = wire::decode::<Vec<Vec<u8>>>(&payload);
    }
    // The metrics-plane JSON parser sees bytes from `--metrics-out`
    // files the `report` subcommand reads back — same contract.
    let _ = edist::metrics::json::Value::parse(&String::from_utf8_lossy(bytes));
}

// -------------------------------------------------------- the wall

/// Mutated valid encodings, round-robined across all corpora. Each
/// mutant is fed to *every* decoder — a shard prefix landing in the
/// checkpoint decoder is exactly the kind of confusion a hostile input
/// produces.
#[test]
fn mutated_valid_encodings_never_panic_any_decoder() {
    let corpora = [
        move_corpus(),
        cell_corpus(),
        section_corpus(),
        shard_corpus(),
        checkpoint_corpus(),
        wire_request_corpus(),
        wire_response_corpus(),
        wire_misc_corpus(),
        wire_metrics_corpus(),
        tcp_data_frame_corpus(),
        tcp_hello_frame_corpus(),
        tcp_welcome_frame_corpus(),
        tcp_bytes_frame_corpus(),
        tcp_nested_bytes_frame_corpus(),
    ];
    // Mutating valid bytes must start from decodable corpora, or the
    // wall silently tests nothing but the error paths.
    assert!(decode_moves(&corpora[0]).is_ok());
    assert!(decode_cells(&corpora[1]).is_ok());
    assert!(split_sections::<3>(&corpora[2]).is_ok());
    assert!(ShardReader::decode(&corpora[3]).is_ok());
    assert!(CheckpointState::decode(&corpora[4]).is_ok());
    let (req_payload, _) = decode_frame(&corpora[5]).expect("request corpus frames");
    assert!(Request::decode(&req_payload).is_ok());
    let (resp_payload, _) = decode_frame(&corpora[6]).expect("response corpus frames");
    assert!(Response::decode(&resp_payload).is_ok());
    let (misc_payload, _) = decode_frame(&corpora[7]).expect("misc corpus frames");
    assert!(Request::decode(&misc_payload).is_ok());
    let (metrics_payload, _) = decode_frame(&corpora[8]).expect("metrics corpus frames");
    assert!(Response::decode(&metrics_payload).is_ok());
    let (kind, _) = tcpwire::decode_frame(TCP_SESSION, &corpora[9]).expect("tcp data frame");
    assert_eq!(kind, tcpwire::KIND_DATA);
    let (kind, hello) = tcpwire::decode_frame(TCP_SESSION, &corpora[10]).expect("tcp hello frame");
    assert_eq!(kind, tcpwire::KIND_HELLO);
    assert!(tcpwire::decode_hello(&hello).is_ok());
    let (kind, welcome) =
        tcpwire::decode_frame(TCP_SESSION, &corpora[11]).expect("tcp welcome frame");
    assert_eq!(kind, tcpwire::KIND_WELCOME);
    assert!(tcpwire::decode_welcome(&welcome).is_ok());
    let (_, bytes) = tcpwire::decode_frame(TCP_SESSION, &corpora[12]).expect("tcp bytes frame");
    assert_eq!(wire::decode::<Vec<u8>>(&bytes), Ok(section_corpus()));
    let (_, nested) = tcpwire::decode_frame(TCP_SESSION, &corpora[13]).expect("tcp nested frame");
    assert_eq!(
        wire::decode::<Vec<Vec<u8>>>(&nested).map(|v| v.len()),
        Ok(3)
    );

    let mut rng = 0x5EED_F00D_u64;
    for i in 0..fuzz_iters() {
        let base = &corpora[i % corpora.len()];
        let mutant = mutate(base, &mut rng);
        exercise_decoders(&mutant);
    }
}

/// FNV-1a: a fixed 64-bit fingerprint of an encoding, independent of
/// every checksum routine the formats themselves use.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The corpora's bytes are pinned: a cell list, a `.sbps` shard and a
/// `.sbpc` snapshot holding all three bracket entries each keep the
/// length and fingerprint they have always encoded to, so a codec change
/// that moves one byte fails here and not on a resumed run or a peer.
#[test]
fn corpus_bytes_are_pinned() {
    for (name, bytes, len, hash) in [
        ("cell list", cell_corpus(), 91, 0x75dd_e4b6_5ef5_4c08),
        (".sbps shard", shard_corpus(), 200, 0x71fe_e411_10f5_925a),
        (
            ".sbpc snapshot",
            checkpoint_corpus(),
            127,
            0x6711_ae4a_f88e_ae2b,
        ),
    ] {
        assert_eq!((bytes.len(), fnv1a(&bytes)), (len, hash), "{name}");
    }
}

/// Pure byte soup — no valid structure at all.
#[test]
fn random_byte_soup_never_panics_any_decoder() {
    let mut rng = 0xBAD5_EED5_u64;
    for _ in 0..fuzz_iters() {
        let bytes = random_bytes(&mut rng, 300);
        exercise_decoders(&bytes);
    }
}

/// Crafted length prefixes: a tiny buffer declaring an enormous element
/// count must be rejected by the count-vs-remaining-payload check, not
/// trusted into `Vec::with_capacity`; a frame header declaring more than
/// its cap — 2 GiB for cluster DATA, 1 MiB for the handshake, 16 MiB for
/// the daemon — must be refused by the one frame parser before it sizes
/// a buffer.
#[test]
fn crafted_length_prefixes_are_rejected_without_allocating() {
    let caps = [
        (tcpwire::KIND_DATA, tcpwire::MAX_FRAME_BYTES),
        (tcpwire::KIND_HELLO, tcpwire::MAX_HANDSHAKE_BYTES),
        (FRAME_TAG, MAX_PAYLOAD as u64),
    ];
    let mut rng = 0xC0FF_EE00_u64;
    for i in 0..fuzz_iters() {
        let declared = splitmix(&mut rng) | (1 << 40); // always huge
        let mut buf = Vec::new();
        write_u64(&mut buf, declared);
        buf.extend_from_slice(&random_bytes(&mut rng, 16));
        assert!(decode_moves(&buf).is_err(), "count {declared} accepted");
        assert!(decode_cells(&buf).is_err(), "count {declared} accepted");
        let mut pos = 0;
        assert!(
            read_ascending_ids(&buf, &mut pos).is_none(),
            "count {declared} accepted"
        );

        // At the cap a header passes and the short tail is truncation;
        // just past it, or anywhere above, it is refused outright.
        let (tag, cap) = caps[i % caps.len()];
        let over = if i % 2 == 0 {
            0
        } else {
            splitmix(&mut rng) % (u64::MAX - cap)
        };
        let tail = random_bytes(&mut rng, 16);
        let refusal = |declared: u64| {
            let mut frame = vec![tag];
            write_u64(&mut frame, declared);
            frame.extend_from_slice(&tail);
            match tag {
                FRAME_TAG => decode_frame(&frame).err(),
                _ => match tcpwire::decode_frame(TCP_SESSION, &frame) {
                    Err(tcpwire::TcpError::Frame(e)) => Some(e),
                    _ => None,
                },
            }
        };
        assert_eq!(refusal(cap), Some(FrameError::Truncated));
        let declared = cap + 1 + over;
        assert_eq!(refusal(declared), Some(FrameError::TooLarge(declared)));
    }
}

/// The two wire protocols share a parser, not a tag or a seed: a cluster
/// frame offered to the daemon, and a daemon frame offered to a cluster
/// rank, each get a typed error, never a payload.
#[test]
fn cluster_and_daemon_frames_are_refused_by_each_other() {
    let payload = Request::Stats.encode();
    for kind in tcpwire::KIND_DATA..=tcpwire::KIND_ERROR {
        let cluster = tcpwire::encode_frame(TCP_SESSION, kind, &payload);
        assert_eq!(decode_frame(&cluster), Err(FrameError::UnexpectedTag(kind)));
        // Even under the daemon's tag, the cluster seal does not verify.
        let mut retagged = cluster;
        retagged[0] = FRAME_TAG;
        assert_eq!(decode_frame(&retagged), Err(FrameError::ChecksumMismatch));
    }
    let daemon = encode_frame(&payload);
    assert_eq!(
        tcpwire::decode_frame(TCP_SESSION, &daemon),
        Err(tcpwire::TcpError::Frame(FrameError::UnexpectedTag(
            FRAME_TAG
        )))
    );
    let mut retagged = daemon;
    retagged[0] = tcpwire::KIND_HELLO;
    assert_eq!(
        tcpwire::decode_frame(TCP_SESSION, &retagged),
        Err(tcpwire::TcpError::Frame(FrameError::ChecksumMismatch))
    );
}

// ------------------------------------------------ the semantic wall

/// A value at or past `limit` that still fits a `u32`.
fn beyond(limit: u32, rng: &mut u64) -> u32 {
    let span = u64::from(u32::MAX - limit) + 1;
    limit + (splitmix(rng) % span) as u32
}

/// Well-formed but hostile sync payloads, next to the byte mangler: a real
/// sharded sync payload from rank 1, re-encoded with one value pushed out
/// of rank 0's reach — a vertex at or past V, a block at or past C, a
/// move or a cut arc from a vertex rank 1 does not own, a share cell or a
/// cut arc heavier than the graph's total edge weight E. The varints stay
/// valid, so every `decode_*` accepts the sections; the receiver must
/// refuse the payload with a typed `ValueOutOfRange`, its replica and
/// `prev` untouched — never panic, never apply.
#[test]
fn semantically_hostile_sync_payloads_are_typed_failures_on_the_receiver() {
    const BLOCKS: u32 = 6;
    let g = two_cliques(20);
    let n = g.num_vertices() as u32;
    let dir = std::env::temp_dir().join(format!("fuzz_it_sync_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    shard_graph(&g, &dir, 2, OwnershipStrategy::Modulo).expect("shard fixture");
    let dgs: Vec<DistGraph> = ThreadCluster::run(2, CostModel::zero(), |comm: &ThreadComm| {
        load_dist_graph(comm, &dir).expect("load")
    })
    .ranks
    .into_iter()
    .map(|r| r.result)
    .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let (mine, peer) = (dgs[0].owned().to_vec(), dgs[1].owned().to_vec());
    let e = g.total_edge_weight();

    let mut rng = 0x5EAA_1715_u64;
    let pick = |rng: &mut u64, from: &[u32]| from[splitmix(rng) as usize % from.len()];
    for i in 0..fuzz_iters() {
        // A real sync point: rank 1 has moved a few of its vertices, rank
        // 0 none, so rank 0's replica sits on the agreed `prev`.
        let prev: Vec<u32> = (0..n).map(|_| (splitmix(&mut rng) % 6) as u32).collect();
        let mut cur = prev.clone();
        let mut pending = Vec::new();
        for _ in 0..1 + splitmix(&mut rng) % 4 {
            let v = pick(&mut rng, &peer);
            let to = (cur[v as usize] + 1 + (splitmix(&mut rng) % 5) as u32) % BLOCKS;
            cur[v as usize] = to;
            pending.push(AcceptedMove { v, to });
        }
        let mut xstats = ExchangeStats::default();
        let ours = sync_payload(&dgs[0], 0, &prev, &prev, &[], &mut xstats);
        let theirs = sync_payload(&dgs[1], 1, &prev, &cur, &pending, &mut xstats);
        let replica = Blockmodel::from_assignment(&g, prev.clone(), BLOCKS as usize);
        if i % 64 == 0 {
            // The honest payload applies and lands on the peer's moves.
            let (mut bm, mut agreed) = (replica.clone(), prev.clone());
            apply_sync(
                &dgs[0],
                0,
                &mut bm,
                &mut agreed,
                vec![ours.clone(), theirs.clone()],
            )
            .expect("honest sync");
            assert_eq!(agreed, cur);
            bm.validate(&g).expect("replica on M(A_next)");
        }

        let [m, ce, cu] = split_sections::<3>(&theirs).expect("honest sections");
        let mut moves = decode_moves(m).expect("honest moves");
        let mut share = decode_cells(ce).expect("honest share");
        let mut cuts = decode_cells(cu).expect("honest cut arcs");
        let j = splitmix(&mut rng) as usize;
        let at = j % moves.len();
        // Past E by at least one, up to past a `u32` cell, either sign.
        let heavy = e + 1 + (splitmix(&mut rng) % (1 << 33)) as i64;
        match splitmix(&mut rng) % 9 {
            0 => moves[at].v = beyond(n, &mut rng),
            1 => moves[at].to = beyond(BLOCKS, &mut rng),
            2 => moves[at].v = pick(&mut rng, &mine),
            // A key with a part out of range collides with no honest one,
            // so a re-sort keeps every list strictly ascending.
            3 => share.push((beyond(BLOCKS, &mut rng), (j % 6) as u32, 1)),
            4 => share.push(((j % 6) as u32, beyond(BLOCKS, &mut rng), -1)),
            5 => cuts.push((pick(&mut rng, &peer), beyond(n, &mut rng), 1)),
            6 => cuts.push((pick(&mut rng, &mine), (j % n as usize) as u32, 1)),
            // Rank 1's moves may all have come home: no share, no cut arc.
            7 if share.is_empty() => share.push((0, 0, heavy)),
            7 => {
                let at = j % share.len();
                share[at].2 = if j.is_multiple_of(2) { heavy } else { -heavy };
            }
            _ if cuts.is_empty() => cuts.push((pick(&mut rng, &peer), 0, heavy)),
            _ => {
                let at = j % cuts.len();
                cuts[at].2 = heavy;
            }
        }
        share.sort_unstable_by_key(|&(r, c, _)| (r, c));
        cuts.sort_unstable_by_key(|&(s, d, _)| (s, d));
        let hostile = concat_sections([
            &encode_moves(&moves),
            &encode_cells(&share),
            &encode_cells(&cuts),
        ]);

        let (mut bm, mut agreed) = (replica.clone(), prev.clone());
        match apply_sync(&dgs[0], 0, &mut bm, &mut agreed, vec![ours, hostile]) {
            Err(DistError::Decode(DecodeError::ValueOutOfRange { .. })) => {}
            other => panic!("iteration {i}: expected a typed out-of-range error, got {other:?}"),
        }
        assert!(
            bm.same_state(&replica),
            "iteration {i}: the replica was touched"
        );
        assert_eq!(agreed, prev, "iteration {i}: prev was advanced");
    }
}

/// The semantic wall on the replicated plane, where a sync point ships
/// move lists alone: rank 1's real move list with one value pushed out of
/// rank 0's reach — a vertex at or past V, a block at or past C, a vertex
/// rank 1 does not own. Rank 0 must refuse it with a typed
/// `ValueOutOfRange`, its replica untouched.
#[test]
fn semantically_hostile_replicated_move_lists_are_typed_failures() {
    const BLOCKS: u32 = 6;
    let g = two_cliques(20);
    let n = g.num_vertices() as u32;
    // Modulo ownership over two ranks.
    let owner: Vec<u32> = (0..n).map(|v| v % 2).collect();
    let (mine, peer): (Vec<u32>, Vec<u32>) = (0..n).partition(|v| v % 2 == 0);
    let mut rng = 0x0EF1_1CA5_u64;
    let pick = |rng: &mut u64, from: &[u32]| from[splitmix(rng) as usize % from.len()];
    for i in 0..fuzz_iters() {
        let prev: Vec<u32> = (0..n).map(|_| (splitmix(&mut rng) % 6) as u32).collect();
        let mut cur = prev.clone();
        let mut moves = Vec::new();
        for _ in 0..1 + splitmix(&mut rng) % 4 {
            let v = pick(&mut rng, &peer);
            let to = (cur[v as usize] + 1 + (splitmix(&mut rng) % 5) as u32) % BLOCKS;
            cur[v as usize] = to;
            moves.push(AcceptedMove { v, to });
        }
        let ours = encode_moves(&[]);
        let replica = Blockmodel::from_assignment(&g, prev.clone(), BLOCKS as usize);
        if i % 64 == 0 {
            let mut bm = replica.clone();
            let payloads = vec![ours.clone(), encode_moves(&moves)];
            apply_moves(&g, &owner, 0, &mut bm, payloads).expect("honest sync");
            assert_eq!(bm.assignment(), &cur[..]);
            bm.validate(&g).expect("replica on M(A_next)");
        }

        let at = splitmix(&mut rng) as usize % moves.len();
        match splitmix(&mut rng) % 3 {
            0 => moves[at].v = beyond(n, &mut rng),
            1 => moves[at].to = beyond(BLOCKS, &mut rng),
            _ => moves[at].v = pick(&mut rng, &mine),
        }
        let mut bm = replica.clone();
        match apply_moves(&g, &owner, 0, &mut bm, vec![ours, encode_moves(&moves)]) {
            Err(DistError::Decode(DecodeError::ValueOutOfRange { .. })) => {}
            other => panic!("iteration {i}: expected a typed out-of-range error, got {other:?}"),
        }
        assert!(
            bm.same_state(&replica),
            "iteration {i}: the replica was touched"
        );
    }
}

// --------------------------------------- proptest-driven random soup

proptest! {
    /// The same no-panic contract under the proptest generator, which
    /// explores a different corner of input space than the mangler.
    #[test]
    fn decoders_survive_proptest_byte_soup(
        bytes in proptest::collection::vec(0u64..256, 0..200)
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        exercise_decoders(&bytes);
    }

    /// Round-trip sanity rides along: whatever the mangler says about
    /// hostile bytes, honest encodings must still decode exactly.
    #[test]
    fn honest_move_lists_roundtrip(
        raw in proptest::collection::vec(0u64..1u64 << 32, 0..64)
    ) {
        let moves: Vec<AcceptedMove> = raw
            .iter()
            .map(|&x| AcceptedMove {
                v: (x & 0xFFFF) as u32,
                to: (x >> 16) as u32 & 0xFFFF,
            })
            .collect();
        let decoded = decode_moves(&encode_moves(&moves)).expect("honest bytes");
        prop_assert_eq!(decoded, moves);
    }

    /// Honest wire frames round-trip through the strict decoder: frame →
    /// payload → the same request, for generated ingest batches.
    #[test]
    fn honest_wire_frames_roundtrip(
        raw in proptest::collection::vec(0u64..1u64 << 48, 0..48)
    ) {
        let deltas: Vec<EdgeDelta> = raw
            .iter()
            .map(|&x| EdgeDelta {
                src: (x & 0xFFFF) as u32,
                dst: (x >> 16) as u32 & 0xFFFF,
                delta: ((x >> 32) as i64 & 0xFF) - 128,
            })
            .filter(|d| d.delta != 0)
            .collect();
        let req = Request::Ingest(deltas);
        let frame = encode_frame(&req.encode());
        let (payload, consumed) = decode_frame(&frame).expect("honest frame");
        prop_assert_eq!(consumed, frame.len());
        let decoded = Request::decode(&payload).expect("honest payload");
        prop_assert_eq!(decoded, req);
    }
}
