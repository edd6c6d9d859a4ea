//! Sharded-ingest contract tests: the `.sbps` round trip, the
//! distributed loader's memory bound, and the headline exactness claim —
//! EDiSt over sharded ingest is bit-identical to EDiSt over a monolithic
//! load.
//!
//! The bit-identity suites cover **both storage regimes**. The dense
//! fixtures (`two_cliques`, `V ≤ 64`) predate canonical line iteration,
//! when bit-reproducibility required the flat matrix; the sparse-regime
//! matrix (`clique_ring`, every visited `C > 64` on sorted canonical
//! lines) is what makes the guarantee unconditional — plus a
//! mixed-regime run that crosses the storage switch mid-search. The
//! round-trip and memory-bound properties are storage-agnostic.

use edist::dist::load_dist_graph;
use edist::graph::fixtures::{clique_ring, two_cliques};
use edist::graph::shard::{shard_graph, unshard_graph, validate_shard_dir};
use edist::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

mod common;
use common::{assert_bit_identical, assert_sparse_trajectory, sparse_regime_cfg, SPARSE_RING};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shard_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn strategies() -> [OwnershipStrategy; 2] {
    [OwnershipStrategy::Modulo, OwnershipStrategy::SortedBalanced]
}

// ---------------------------------------------------------- round trips

proptest! {
    /// Graph → shards → reassembly is the identity, for random graphs,
    /// both strategies, and rank counts 1/2/4.
    #[test]
    fn shard_roundtrip_reassembles_random_graphs(
        n in 1usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40, 1i64..5), 0..120),
    ) {
        let edges: Vec<(u32, u32, i64)> = edges
            .into_iter()
            .map(|(s, d, w)| (s % n as u32, d % n as u32, w))
            .collect();
        let g = Graph::from_edges(n, edges);
        for strategy in strategies() {
            for ranks in [1usize, 2, 4] {
                let dir = temp_dir(&format!("prop_{ranks}_{}", strategy.code()));
                shard_graph(&g, &dir, ranks, strategy).unwrap();
                let back = unshard_graph(&dir).unwrap();
                prop_assert_eq!(&back, &g, "{:?} × {} ranks", strategy, ranks);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}

/// Graph → shards → `DistGraphLoader` at ranks 1/2/4 → reassembled from
/// the per-rank owned adjacency ≡ original (the loader-level round trip
/// the issue asks for, on a structured generated graph).
#[test]
fn dist_loader_roundtrip_at_multiple_rank_counts() {
    let planted = graph_challenge(400, Difficulty::Easy, 11);
    let g = &planted.graph;
    for strategy in strategies() {
        for ranks in [1usize, 2, 4] {
            let dir = temp_dir(&format!("loader_{ranks}_{}", strategy.code()));
            shard_graph(g, &dir, ranks, strategy).unwrap();
            let out = ThreadCluster::run(ranks, CostModel::zero(), |comm| {
                let dg = load_dist_graph(comm, &dir).expect("load");
                // Each rank contributes its owned out-adjacency; the
                // union must be exactly the original arc set.
                let mut arcs = Vec::new();
                for &v in dg.owned() {
                    for (d, w) in dg.local().out_edges(v) {
                        arcs.push((v, d, w));
                    }
                }
                (arcs, dg.local_arcs(), *dg.report())
            });
            let mut all_arcs = Vec::new();
            for r in &out.ranks {
                all_arcs.extend_from_slice(&r.result.0);
            }
            let reassembled = Graph::from_edges(g.num_vertices(), all_arcs);
            assert_eq!(&reassembled, g, "{strategy:?} × {ranks} ranks");

            // Memory bound: every rank retains exactly its shard plus the
            // cut edges addressed to it — never the whole graph (for
            // ranks ≥ 2 on this well-connected fixture).
            let report = out.ranks[0].result.2;
            assert_eq!(report.total_arcs, g.num_arcs());
            if ranks >= 2 {
                for (i, r) in out.ranks.iter().enumerate() {
                    assert!(
                        r.result.1 < g.num_arcs(),
                        "rank {i} holds {}/{} arcs at {ranks} ranks",
                        r.result.1,
                        g.num_arcs()
                    );
                }
                assert!(report.max_rank_local_arcs < g.num_arcs());
                // The advertised bound: shard share + exchanged cut arcs.
                assert!(
                    report.max_rank_local_arcs
                        <= report.max_rank_shard_edges + report.total_cut_arcs
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// An arc weighing exactly `E ≤ 2³² − 1`'s limit, and separately a
/// self-loop at it, survive the `.mtx` round trip and the shard round trip
/// at 2 ranks: the arc crosses the cut (vertex 0 and vertex 1 have
/// different owners), the self-loop stays on its owner.
#[test]
fn arcs_at_the_weight_limit_survive_mtx_and_shards() {
    use edist::graph::io::{load_graph, save_graph};
    use edist::graph::MAX_TOTAL_EDGE_WEIGHT;
    let max = MAX_TOTAL_EDGE_WEIGHT;
    for (tag, g) in [
        ("arc", Graph::from_edges(4, vec![(0, 1, max)])),
        ("loop", Graph::from_edges(4, vec![(1, 1, max)])),
    ] {
        let path = std::env::temp_dir().join(format!("limit_{tag}_{}.mtx", std::process::id()));
        save_graph(&g, &path).unwrap();
        assert_eq!(load_graph(&path).unwrap(), g, "{tag}: .mtx");
        std::fs::remove_file(&path).unwrap();

        let dir = temp_dir(&format!("limit_{tag}"));
        shard_graph(&g, &dir, 2, OwnershipStrategy::Modulo).unwrap();
        assert_eq!(unshard_graph(&dir).unwrap(), g, "{tag}: unshard");
        let out = ThreadCluster::run(2, CostModel::zero(), |comm| {
            let dg = load_dist_graph(comm, &dir).expect("load");
            assert_eq!(dg.total_edge_weight(), max);
            let mut seen = Vec::new();
            for &v in dg.owned() {
                let local = dg.local();
                assert!(local.out_edges(v).eq(g.out_edges(v)), "{tag}: out of {v}");
                assert!(local.in_edges(v).eq(g.in_edges(v)), "{tag}: in of {v}");
                assert_eq!(local.self_loop_weight(v), g.self_loop_weight(v));
                assert_eq!(local.degree(v), g.degree(v));
                seen.extend(local.out_edges(v).map(|(d, w)| (v, d, w)));
            }
            seen
        });
        let mut arcs: Vec<_> = out.ranks.into_iter().flat_map(|r| r.result).collect();
        arcs.sort_unstable();
        assert_eq!(arcs, g.arcs().collect::<Vec<_>>(), "{tag}: arcs");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// --------------------------------------------------------- bit identity

/// The acceptance headline: EDiSt over `DistGraphLoader` (ranks 2 and 4)
/// produces bit-identical assignments, DL, and trajectories to EDiSt
/// over a monolithic `load_graph` of the same graph+seed — while no rank
/// loads more than its shard + cut edges.
#[test]
fn sharded_edist_bit_identical_to_monolithic_load() {
    // Write the graph to disk and come back through the text loader, so
    // the comparison covers the full "file → partition" path on both
    // sides, exactly as a CLI user would hit it.
    let g = two_cliques(8);
    let dir = std::env::temp_dir();
    let gpath = dir.join(format!("shard_it_mono_{}.mtx", std::process::id()));
    edist::graph::io::save_graph(&g, &gpath).unwrap();
    let mono_graph = edist::graph::io::load_graph(&gpath).unwrap();
    assert_eq!(mono_graph, g);

    for strategy in strategies() {
        for ranks in [2usize, 4] {
            let sdir = temp_dir(&format!("bitid_{ranks}_{}", strategy.code()));
            shard_graph(&g, &sdir, ranks, strategy).unwrap();

            let sharded = Partitioner::on_sharded(&sdir)
                .backend(Backend::Edist { ranks })
                .seed(42)
                .run()
                .unwrap();
            let mono = Partitioner::on(&mono_graph)
                .backend(Backend::Edist { ranks })
                .ownership(strategy)
                .seed(42)
                .run()
                .unwrap();

            assert_eq!(
                sharded.assignment, mono.assignment,
                "{strategy:?} × {ranks}: assignments diverged"
            );
            assert_eq!(sharded.num_blocks, mono.num_blocks);
            assert_eq!(
                sharded.description_length.to_bits(),
                mono.description_length.to_bits(),
                "{strategy:?} × {ranks}: DL must match to the last bit"
            );
            assert_eq!(sharded.iterations.len(), mono.iterations.len());
            for (a, b) in sharded.iterations.iter().zip(mono.iterations.iter()) {
                assert_eq!(a.num_blocks, b.num_blocks);
                assert_eq!(a.dl.to_bits(), b.dl.to_bits());
                assert_eq!(a.sweeps, b.sweeps);
                assert_eq!(a.moves, b.moves);
            }

            // Memory bound rides along on every equivalence run.
            let ingest = sharded.ingest.expect("ingest report");
            assert!(
                ingest.max_rank_local_arcs <= ingest.max_rank_shard_edges + ingest.total_cut_arcs
            );
            assert!(ingest.max_rank_local_arcs < g.num_arcs());
            std::fs::remove_dir_all(&sdir).unwrap();
        }
    }
    let _ = std::fs::remove_file(&gpath);
}

/// Batch strategy, larger sync period, and a less regular graph: the
/// sharded sync algebra must stay exact under multi-sweep move batches
/// (several moves of the same vertex between syncs).
#[test]
fn sharded_edist_bit_identical_under_batch_and_sync_period() {
    let planted = generate(&SbmParams {
        num_vertices: 48,
        ..SbmParams::example()
    });
    let g = &planted.graph;
    for sync_period in [1usize, 3] {
        let sdir = temp_dir(&format!("batch_{sync_period}"));
        shard_graph(g, &sdir, 3, OwnershipStrategy::SortedBalanced).unwrap();
        let cfg = SbpConfig {
            strategy: McmcStrategy::Batch,
            seed: 7,
            ..SbpConfig::default()
        };
        let sharded = Partitioner::on_sharded(&sdir)
            .backend(Backend::Edist { ranks: 3 })
            .sync_period(sync_period)
            .config(cfg.clone())
            .run()
            .unwrap();
        let mono = Partitioner::on(g)
            .backend(Backend::Edist { ranks: 3 })
            .sync_period(sync_period)
            .config(cfg)
            .run()
            .unwrap();
        assert_eq!(sharded.assignment, mono.assignment, "period {sync_period}");
        assert_eq!(
            sharded.description_length.to_bits(),
            mono.description_length.to_bits(),
            "period {sync_period}"
        );
        std::fs::remove_dir_all(&sdir).unwrap();
    }
}

/// The headline test work of the canonical-line PR: sharded ≡ monolithic
/// EDiSt **in the sparse regime**, over the full equivalence matrix —
/// ranks {1, 2, 4} × {Modulo, SortedBalanced} × {MH, Batch} ×
/// sync_period {1, 3} — asserting bit-identical assignments, DL, and
/// trajectories, with every visited block count verified to have run on
/// sparse storage. Before canonical line iteration this matrix could not
/// hold: hash-map rows made weighted proposal scans and f64 entropy sums
/// depend on each replica's storage history.
#[test]
fn sharded_edist_bit_identical_in_sparse_regime_matrix() {
    let g = clique_ring(SPARSE_RING);
    for strategy in strategies() {
        for ranks in [1usize, 2, 4] {
            for (mcmc, mcmc_tag) in [
                (McmcStrategy::MetropolisHastings, "mh"),
                (McmcStrategy::Batch, "batch"),
            ] {
                for sync_period in [1usize, 3] {
                    let ctx =
                        format!("{strategy:?} × {ranks} ranks × {mcmc_tag} × sync {sync_period}");
                    let sdir = temp_dir(&format!(
                        "sparse_{ranks}_{mcmc_tag}_{sync_period}_{}",
                        strategy.code()
                    ));
                    shard_graph(&g, &sdir, ranks, strategy).unwrap();
                    let cfg = sparse_regime_cfg(mcmc, 42);
                    let sharded = Partitioner::on_sharded(&sdir)
                        .backend(Backend::Edist { ranks })
                        .sync_period(sync_period)
                        .config(cfg.clone())
                        .run()
                        .unwrap();
                    let mono = Partitioner::on(&g)
                        .backend(Backend::Edist { ranks })
                        .ownership(strategy)
                        .sync_period(sync_period)
                        .config(cfg)
                        .run()
                        .unwrap();
                    assert_bit_identical(&sharded, &mono, &ctx);
                    assert_sparse_trajectory(&sharded, &g);
                    std::fs::remove_dir_all(&sdir).unwrap();
                }
            }
        }
    }
}

/// Batch is rank-count invariant through shards as well: at 3 ranks under
/// modulo ownership each rank owns exactly one chunk of every sweep and
/// ships nothing at the other two chunks' syncs, and the sharded run
/// equals the single-node `Batch` backend bit for bit — under balanced
/// ownership too.
#[test]
fn sharded_batch_at_three_ranks_equals_single_node_batch() {
    let g = clique_ring(SPARSE_RING);
    let cfg = sparse_regime_cfg(McmcStrategy::Batch, 42);
    let base = Partitioner::on(&g)
        .backend(Backend::Batch)
        .config(cfg.clone())
        .run()
        .unwrap();
    for strategy in strategies() {
        let sdir = temp_dir(&format!("batch3_{}", strategy.code()));
        shard_graph(&g, &sdir, 3, strategy).unwrap();
        let sharded = Partitioner::on_sharded(&sdir)
            .backend(Backend::Edist { ranks: 3 })
            .config(cfg.clone())
            .run()
            .unwrap();
        assert_bit_identical(&base, &sharded, &format!("{strategy:?} × 3 shards"));
        std::fs::remove_dir_all(&sdir).unwrap();
    }
}

/// Uncapped run on the sparse fixture: the search descends through the
/// sparse→dense storage switch into its dense endgame, so sharded and
/// monolithic replicas must stay bit-identical *across* representation
/// changes, not just within one.
#[test]
fn sharded_edist_bit_identical_crossing_storage_regimes() {
    let g = clique_ring(SPARSE_RING);
    for (ranks, strategy, mcmc) in [
        (
            2usize,
            OwnershipStrategy::Modulo,
            McmcStrategy::MetropolisHastings,
        ),
        (
            4usize,
            OwnershipStrategy::SortedBalanced,
            McmcStrategy::Batch,
        ),
    ] {
        let sdir = temp_dir(&format!("mixed_{ranks}_{}", strategy.code()));
        shard_graph(&g, &sdir, ranks, strategy).unwrap();
        let cfg = SbpConfig {
            strategy: mcmc,
            seed: 7,
            ..SbpConfig::default()
        };
        let sharded = Partitioner::on_sharded(&sdir)
            .backend(Backend::Edist { ranks })
            .config(cfg.clone())
            .run()
            .unwrap();
        let mono = Partitioner::on(&g)
            .backend(Backend::Edist { ranks })
            .ownership(strategy)
            .config(cfg)
            .run()
            .unwrap();
        let ctx = format!("mixed-regime {strategy:?} × {ranks}");
        assert_bit_identical(&sharded, &mono, &ctx);
        // The run must actually cross the switch: sparse at the start,
        // dense at the end — checked against the production predicate.
        let e = g.total_edge_weight();
        let first = sharded.iterations.first().unwrap().num_blocks;
        let last = sharded.iterations.last().unwrap().num_blocks;
        assert!(!edist::core::auto_picks_dense(first, e), "never saw sparse");
        assert!(
            edist::core::auto_picks_dense(last, e),
            "never reached dense"
        );
        std::fs::remove_dir_all(&sdir).unwrap();
    }
}

/// Sharded DC-SBP ≡ monolithic DC-SBP (no-fine-tune) when the shards use
/// modulo ownership — the same round-robin distribution DC-SBP uses.
#[test]
fn sharded_dcsbp_matches_monolithic_no_finetune() {
    let g = two_cliques(8);
    let sdir = temp_dir("dcsbp_eq");
    shard_graph(&g, &sdir, 2, OwnershipStrategy::Modulo).unwrap();
    let sharded = Partitioner::on_sharded(&sdir)
        .backend(Backend::DcSbp { ranks: 2 })
        .seed(9)
        .run()
        .unwrap();
    let mono = Partitioner::on(&g)
        .backend(Backend::DcSbp { ranks: 2 })
        .skip_finetune(true)
        .seed(9)
        .run()
        .unwrap();
    assert_eq!(sharded.assignment, mono.assignment);
    assert_eq!(sharded.num_blocks, mono.num_blocks);
    assert_eq!(
        sharded.description_length.to_bits(),
        mono.description_length.to_bits()
    );
    std::fs::remove_dir_all(&sdir).unwrap();
}

// ------------------------------------------------- compression + events

/// The compressed move exchange must shrink wire bytes — both against
/// the raw baseline counter and against sending fixed-width pairs.
#[test]
fn move_exchange_compression_is_recorded_and_effective() {
    let planted = graph_challenge(300, Difficulty::Easy, 3);
    let run = Partitioner::on(&planted.graph)
        .backend(Backend::Edist { ranks: 2 })
        .seed(1)
        .run()
        .unwrap();
    let rep = run.cluster.expect("cluster report");
    assert!(rep.move_bytes_raw > 0);
    assert!(
        rep.move_bytes_encoded * 2 < rep.move_bytes_raw,
        "varint exchange {}B should be well under half of raw {}B",
        rep.move_bytes_encoded,
        rep.move_bytes_raw
    );
}

/// Sweep-level progress events arrive from sharded runs too, carrying
/// the broadcast DL of each sync point.
#[test]
fn sharded_runs_emit_sweep_events() {
    let g = two_cliques(8);
    let sdir = temp_dir("events");
    shard_graph(&g, &sdir, 2, OwnershipStrategy::SortedBalanced).unwrap();
    let mut sweeps = 0usize;
    let mut last_dl = f64::NAN;
    let run = Partitioner::on_sharded(&sdir)
        .seed(2)
        .progress(|event| {
            if let ProgressEvent::Sweep { dl, .. } = event {
                sweeps += 1;
                last_dl = *dl;
            }
        })
        .run()
        .unwrap();
    let expected: usize = run.iterations.iter().map(|s| s.sweeps).sum();
    assert_eq!(sweeps, expected, "one Sweep event per sync point");
    assert!(last_dl.is_finite());
    std::fs::remove_dir_all(&sdir).unwrap();
}

/// `validate_shard_dir` + `Partitioner::on_sharded` agree on rank counts
/// end to end (the CLI relies on this contract).
#[test]
fn shard_dir_headers_drive_rank_selection() {
    let g = two_cliques(6);
    let sdir = temp_dir("headers");
    shard_graph(&g, &sdir, 3, OwnershipStrategy::Modulo).unwrap();
    let header = validate_shard_dir(Path::new(&sdir)).unwrap();
    assert_eq!(header.shard_count, 3);
    assert_eq!(header.num_vertices, 12);
    assert_eq!(header.strategy, OwnershipStrategy::Modulo);
    let run = Partitioner::on_sharded(&sdir).seed(4).run().unwrap();
    assert_eq!(run.cluster.unwrap().ranks, 3);
    std::fs::remove_dir_all(&sdir).unwrap();
}

/// Writes `arcs`, sorted by `(src, dst)` without parallel arcs, as a
/// modulo-owned set of `shards` shards over `num_vertices` vertices —
/// with no `Graph` in between, so a set no `Graph` could hold can be
/// written.
fn write_modulo_shards(dir: &Path, num_vertices: usize, shards: usize, arcs: &[(u32, u32, i64)]) {
    use edist::graph::shard::shard_file_name;
    std::fs::create_dir_all(dir).unwrap();
    for shard in 0..shards {
        let owned: Vec<u32> = (0..num_vertices as u32)
            .filter(|v| *v as usize % shards == shard)
            .collect();
        let mut writer = ShardWriter::new(
            num_vertices,
            shard,
            shards,
            OwnershipStrategy::Modulo,
            &owned,
        );
        for &(src, dst, weight) in arcs.iter().filter(|a| a.0 as usize % shards == shard) {
            writer.push_edge(src, dst, weight);
        }
        writer
            .write_to(&dir.join(shard_file_name(shard, shards)))
            .unwrap();
    }
}

/// A shard set heavier than `E ≤ 2³² − 1` is a typed ingest error, never
/// a panic. Two 2³¹ arcs that stay on their owners' ranks: each rank's
/// share is inside the limit, so every rank reaches the degree table and
/// refuses the global total there, all with the same error. Two 2³¹ arcs
/// across a three-rank cut: the two ranks that hold both exceed the limit
/// before building their local graph, the third unwinds with them, and
/// the run comes back degraded.
#[test]
fn shard_sets_past_the_weight_limit_fail_typed_on_every_rank() {
    use edist::dist::DistError;
    use edist::graph::shard::ShardError;
    let half = 1i64 << 31;

    let dir = temp_dir("weight_global");
    write_modulo_shards(&dir, 4, 2, &[(0, 2, half), (1, 3, half)]);
    let out = ThreadCluster::run(2, CostModel::zero(), |comm| {
        match load_dist_graph(comm, &dir) {
            Err(DistError::Shard(ShardError::Malformed(reason))) => reason,
            other => panic!("expected a malformed shard set, got {other:?}"),
        }
    });
    for rank in &out.ranks {
        assert!(rank.result.contains("total edge weight"), "{}", rank.result);
    }
    assert!(unshard_graph(&dir).is_err());
    let run = Partitioner::on_sharded(&dir).seed(1).run().unwrap();
    assert_eq!(run.degraded, Some(DegradedReason::ShardLoadFailure));
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = temp_dir("weight_local");
    write_modulo_shards(&dir, 3, 3, &[(0, 1, half), (1, 0, half), (2, 2, 1)]);
    let run = Partitioner::on_sharded(&dir).seed(1).run().unwrap();
    assert_eq!(run.degraded, Some(DegradedReason::ShardLoadFailure));
    std::fs::remove_dir_all(&dir).unwrap();
}
