//! Criterion micro-benchmarks for the performance-critical kernels,
//! including the kernel-level ablations:
//!
//! * sparse ΔS vs the naive dense rescan (paper §III-A optimization c);
//! * proposal sampling;
//! * merge-phase proposal throughput, and the merge ΔS kernel alone
//!   against the line-delta reference it replaced (PR 15);
//! * the three line walks of a sweep proposal — cross-cell fetch,
//!   neighbour-block order, dense anchor pick — each alone (PR 16);
//! * one whole proposal evaluation against the four-lookup, branchy one it
//!   replaced, and a low-C MH sweep against a gather-first one (PR 23);
//! * MH vs hybrid vs batch sweeps;
//! * sorted-balanced vs modulo ownership (load balance proxy);
//! * simulated-cluster collective throughput;
//! * the sharded sync's cell fold against the `BTreeMap` it replaced (PR 18);
//! * blockmodel construction and incremental moves, and a merge's fold of
//!   the held model against the rebuild it replaced (PR 24);
//! * random add/sub churn over sparse lines, what their room policy costs
//!   (PR 33);
//! * the graph's build and one adjacency read per vertex (`graph/*`);
//! * the entropy chunk-size study on a dense C = V/4 blockmodel (PR 10);
//! * synthetic graph generation.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sbp_core::delta::{delta_entropy, merge_delta};
use sbp_core::hybrid::{batch_sweep, sweep_plan};
use sbp_core::line::{CanonicalLine, Cell};
use sbp_core::lntab::ln_int;
use sbp_core::mcmc::mh_sweep;
use sbp_core::merge::{apply_merges, merge_labels, propose_merges};
use sbp_core::naive::DenseBlockmodel;
use sbp_core::propose::{pick_by_cells, pick_weighted, propose_for_block, propose_for_vertex};
use sbp_core::sbp::{merge_phase, SbpConfig};
use sbp_core::{Blockmodel, DeltaScratch, McmcStrategy, StorageKind};
use sbp_dist::exchange::CellFold;
use sbp_dist::{balanced_ownership, modulo_ownership};
use sbp_gen::{graph_challenge, param_study, Difficulty, ParamStudySpec};
use sbp_graph::Graph;
use sbp_mpi::{Communicator, CostModel, ThreadCluster};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Duration;

fn bench_graph() -> (Graph, Vec<u32>, usize) {
    let spec = ParamStudySpec {
        truncate_min: true,
        truncate_max: true,
        duplicated: true,
        communities_base: 33,
    };
    // Scale 0.03 matches the seed-era baseline recorded in
    // BENCH_pr1.json, so before/after rows are directly comparable.
    let pg = param_study(spec, 0.03, 7);
    // A plausible mid-inference state: ~32 blocks from the ground truth
    // labels re-used as a partition.
    let c = pg
        .ground_truth
        .iter()
        .copied()
        .max()
        .map_or(1, |m| m as usize + 1);
    (pg.graph.clone(), pg.ground_truth.clone(), c)
}

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("edist");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g
}

fn bench_delta(c: &mut Criterion) {
    // Three regimes along the agglomerative trajectory: few blocks (the
    // late-inference endgame, where the adaptive layer selects the flat
    // dense matrix), many (C = V/4), and huge (identity partition, C = V,
    // where Auto's occupancy rule keeps the sparse representation).
    // Every id times the whole per-proposal evaluation — gather the
    // vertex's neighbour blocks, then ΔS and the Hastings correction in
    // one pass; the `delta_entropy/` prefix of the forced-sparse ids is
    // kept for continuity with the records since BENCH_pr1.json.
    // `proposal_eval/adaptive_*` is the production path (Auto storage),
    // `delta_entropy/sparse_*` forces the sparse representation —
    // canonical sorted lines since PR 4; the same ids were `hashmap_*` in
    // BENCH_pr1.json, which the bench-regression guard maps — and
    // `dense_naive_*` is the python-reference O(C) ΔS rescan baseline.
    // Table VI shows the same crossover at the whole-algorithm level.
    let (graph, truth_assignment, truth_nb) = bench_graph();
    let n = graph.num_vertices();
    let many_nb = (n / 4).max(4);
    let many_assignment: Vec<u32> = (0..n as u32).map(|v| v % many_nb as u32).collect();
    let identity_assignment: Vec<u32> = (0..n as u32).collect();
    let mut group = quick(c);
    for (label, assignment, nb) in [
        ("fewC", truth_assignment, truth_nb),
        ("manyC", many_assignment, many_nb),
        ("hugeC", identity_assignment, n),
    ] {
        let eval_pairs = |bm: &Blockmodel, scratch: &mut DeltaScratch| {
            let mut acc = 0.0;
            for v in (0..n as u32).step_by(37) {
                let to = (bm.block_of(v) + 1) % nb as u32;
                scratch.gather_vertex(&graph, bm, v);
                let (ds, hastings) = scratch.evaluate_move(&graph, bm, v, to);
                acc += ds + hastings;
            }
            acc
        };
        let auto = Blockmodel::from_assignment(&graph, assignment.clone(), nb);
        group.bench_function(format!("proposal_eval/adaptive_{label}"), |b| {
            let mut scratch = DeltaScratch::new();
            b.iter(|| black_box(eval_pairs(&auto, &mut scratch)))
        });
        let sparse =
            Blockmodel::from_assignment_with(&graph, assignment.clone(), nb, StorageKind::Sparse);
        group.bench_function(format!("delta_entropy/sparse_{label}"), |b| {
            let mut scratch = DeltaScratch::new();
            b.iter(|| black_box(eval_pairs(&sparse, &mut scratch)))
        });
        let dense = DenseBlockmodel::from_assignment(&graph, assignment, nb);
        group.bench_function(format!("delta_entropy/dense_naive_{label}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for v in (0..n as u32).step_by(37) {
                    let to = (dense.assignment()[v as usize] as usize + 1) % nb;
                    acc += dense.delta_entropy_move(&graph, v, to);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// The thread-spawn tax the persistent pool eliminates, measured
/// directly: dispatching one parallel region (16 chunks at width 4)
/// through the pooled executor vs spawning scoped OS threads per call —
/// the old shim's mechanism. The work itself is trivial so the numbers
/// isolate dispatch cost; multiply by the number of parallel regions per
/// inference run (one per merge phase + one per Hybrid chunk + one per
/// Batch sweep + reductions) for the end-to-end tax.
fn bench_pool_dispatch(c: &mut Criterion) {
    use rayon::prelude::*;
    let mut group = quick(c);
    let items: Vec<u64> = (0..16).collect();
    group.bench_function("pool/region_16x4_pooled", |b| {
        rayon::with_threads(4, || {
            b.iter(|| {
                let out: Vec<u64> = items.par_iter().map(|&x| x + 1).collect();
                black_box(out)
            })
        })
    });
    group.bench_function("pool/region_16x4_scoped_spawn", |b| {
        b.iter(|| {
            // What the pre-pool shim did per call: spawn scoped OS
            // threads, join, concatenate.
            let chunks: Vec<&[u64]> = items.chunks(4).collect();
            let parts: Vec<Vec<u64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|c| scope.spawn(move || c.iter().map(|&x| x + 1).collect::<Vec<u64>>()))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut out = Vec::with_capacity(items.len());
            for p in parts {
                out.extend(p);
            }
            black_box(out)
        })
    });
    group.finish();
}

fn bench_propose(c: &mut Criterion) {
    let (graph, assignment, nb) = bench_graph();
    let bm = Blockmodel::from_assignment(&graph, assignment, nb);
    let mut group = quick(c);
    let sampled: Vec<u32> = (0..graph.num_vertices() as u32).step_by(11).collect();
    group.bench_function("propose/vertex", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| {
            let mut acc = 0u32;
            for &v in &sampled {
                acc ^= propose_for_vertex(&mut rng, &graph, &bm, v).unwrap_or(0);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_merge_phase(c: &mut Criterion) {
    let (graph, _, _) = bench_graph();
    let bm = Blockmodel::identity(&graph);
    let blocks: Vec<u32> = (0..bm.num_blocks() as u32).collect();
    let mut group = quick(c);
    group.bench_function("merge/propose_all_blocks_x10", |b| {
        b.iter(|| black_box(propose_merges(&bm, &blocks, 10, 99)))
    });
    group.finish();
}

/// Blockmodels along the halving trajectory of the `single_challenge`
/// workload's graph (`graph_challenge(3000, Hard)`): the identity
/// partition, then a merge phase that halves the block count followed by
/// MH sweeps, twice and three times over — the states the per-kernel ids
/// below are timed on, storage kind asserted.
fn challenge_trajectory() -> &'static (Graph, [(&'static str, Blockmodel); 3]) {
    static TRAJECTORY: OnceLock<(Graph, [(&str, Blockmodel); 3])> = OnceLock::new();
    TRAJECTORY.get_or_init(build_challenge_trajectory)
}

fn build_challenge_trajectory() -> (Graph, [(&'static str, Blockmodel); 3]) {
    let graph = graph_challenge(3000, Difficulty::Hard, 42).graph;
    let vertices: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let cfg = SbpConfig::default();
    let mut bm = Blockmodel::identity(&graph);
    let fixtures = [
        (0, "sparse_C3000", StorageKind::Sparse),
        (2, "sparse_C750", StorageKind::Sparse),
        (3, "dense_C375", StorageKind::Dense),
    ]
    .map(|(iter_idx, label, kind)| {
        while bm.num_blocks() > 3000 >> iter_idx {
            let phase = 3000 / bm.num_blocks();
            bm = merge_phase(&graph, &bm, bm.num_blocks() / 2, &cfg, phase);
            let mut rng = SmallRng::seed_from_u64(phase as u64);
            for _ in 0..5 {
                mh_sweep(&graph, &mut bm, &vertices, cfg.beta, &mut rng);
            }
        }
        assert_eq!(
            bm.storage_kind(),
            kind,
            "{label}: storage at C = {}",
            bm.num_blocks()
        );
        (label, bm.clone())
    });
    (graph, fixtures)
}

/// The merge ΔS kernel alone, on the [`challenge_trajectory`] blockmodels.
/// Each id evaluates the ten drawn targets of 256 blocks spread over the
/// label range — one gather per block, as `propose_merges` does; the
/// `_reference` twin evaluates the same pairs through `merge_delta` +
/// `delta_entropy`, the kernel the walk replaced.
/// `scripts/check_bench_regression.py` guards the same-run ratio, which
/// means the same thing on any machine.
fn bench_merge_eval(c: &mut Criterion) {
    let (_, fixtures) = challenge_trajectory();
    let cfg = SbpConfig::default();
    let mut group = quick(c);
    for (label, bm) in fixtures {
        let mut rng = SmallRng::seed_from_u64(15);
        let step = bm.num_blocks().div_ceil(256);
        let pairs: Vec<(u32, Vec<u32>)> = (0..bm.num_blocks() as u32)
            .step_by(step)
            .map(|r| {
                let draws = (0..cfg.merge_proposals_per_block)
                    .map(|_| propose_for_block(&mut rng, bm, r).expect("C > 1"))
                    .collect();
                (r, draws)
            })
            .collect();
        group.bench_function(format!("merge_eval/{label}"), |b| {
            let mut scratch = DeltaScratch::new();
            b.iter(|| {
                let mut acc = 0.0;
                for (r, targets) in &pairs {
                    let mut gathered = scratch.gather_block(bm, *r);
                    for &s in targets {
                        acc += gathered.evaluate_merge(s);
                    }
                }
                black_box(acc)
            })
        });
        group.bench_function(format!("merge_eval/{label}_reference"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for (r, targets) in &pairs {
                    for &s in targets {
                        acc += delta_entropy(bm, &merge_delta(bm, *r, s));
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// One `cross_cells` fetch: the move `r → s` and the ascending blocks it
/// reads the four lines at.
type Fetch = (u32, u32, Vec<u32>);

/// The three walks every sweep proposal pays (PR 16), each alone, on the
/// [`challenge_trajectory`] blockmodels, with a `_reference` twin where the
/// walk has one:
///
/// * `cross_cells/sparse_C750` — the four-line fetch of every vertex's
///   drawn move at C = 750 (k ≈ 37 neighbour blocks against ≈ 300 line
///   cells): the positional fetch vs four `get()` lookups per block;
/// * `cross_cells/sparse_hubline_k2` — the shape a streaming fetch loses
///   on, two blocks asked of four 640-cell hub lines, where `cross_cells`
///   must choose lookups itself;
/// * `gather/order_C750` — the whole gather at C = 750, of which putting
///   the neighbour blocks in ascending order was a third;
/// * `propose/anchor_dense_C375` — the weighted pick along row ++ column
///   of a dense anchor block at C = 375: chunked vs slot by slot.
fn bench_sweep_walks(c: &mut Criterion) {
    let (graph, [_, (_, sparse), (_, dense)]) = challenge_trajectory();
    let mut group = quick(c);
    let mut scratch = DeltaScratch::new();
    let mut rng = SmallRng::seed_from_u64(16);

    let drawn: Vec<Fetch> = (0..graph.num_vertices() as u32)
        .filter_map(|v| {
            let to = propose_for_vertex(&mut rng, graph, sparse, v)?;
            scratch.gather_vertex(graph, sparse, v);
            Some((sparse.block_of(v), to, scratch.neighbour_blocks().to_vec()))
        })
        .collect();
    // Blocks 0 and 1 exchange arcs with 640 of 1280 singleton blocks each.
    let hub_arcs = (2..1282u32).flat_map(|u| {
        let hub = u % 2;
        [(hub, u, 1), (u, hub, 2)]
    });
    let hub_graph = Graph::from_edges(1282, hub_arcs);
    let hubs = Blockmodel::from_assignment_with(
        &hub_graph,
        (0..1282).collect(),
        1282,
        StorageKind::Sparse,
    );
    let hubline: Vec<Fetch> = (2..1280u32)
        .step_by(5)
        .map(|t| (0, 1, vec![t, t + 1]))
        .collect();
    for (label, bm, fetches) in [
        ("sparse_C750", sparse, &drawn),
        ("sparse_hubline_k2", &hubs, &hubline),
    ] {
        group.bench_function(format!("cross_cells/{label}"), |b| {
            b.iter(|| {
                let mut acc = 0;
                for (r, s, blocks) in fetches {
                    acc += scratch.cross_cells(bm, *r, *s, blocks).1.len();
                }
                black_box(acc)
            })
        });
        group.bench_function(format!("cross_cells/{label}_reference"), |b| {
            let mut out = Vec::new();
            b.iter(|| {
                let mut acc = 0;
                for &(r, s, ref blocks) in fetches {
                    out.clear();
                    out.extend(
                        blocks
                            .iter()
                            .map(|&t| [bm.get(r, t), bm.get(s, t), bm.get(t, r), bm.get(t, s)]),
                    );
                    acc += black_box(&out).len();
                }
                black_box(acc)
            })
        });
    }

    group.bench_function("gather/order_C750", |b| {
        b.iter(|| {
            let mut acc = 0;
            for v in 0..graph.num_vertices() as u32 {
                scratch.gather_vertex(graph, sparse, v);
                acc += scratch.neighbour_blocks().len();
            }
            black_box(acc)
        })
    });

    let picks: Vec<(u32, i64)> = (0..4096)
        .map(|_| {
            let t = rng.random_range(0..dense.num_blocks() as u32);
            (t, rng.random_range(0..dense.d_total(t)))
        })
        .collect();
    group.bench_function("propose/anchor_dense_C375", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &(t, x) in &picks {
                acc ^= pick_weighted(dense, t, x, None);
            }
            black_box(acc)
        })
    });
    group.bench_function("propose/anchor_dense_C375_reference", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &(t, x) in &picks {
                acc ^= pick_by_cells(dense, t, x, None).expect("x < d_total");
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// `DeltaScratch::evaluate_move` as it stood before PR 23, from the same
/// gather (`gathered`): the four `{r, s}²` corners by `get()` — four
/// binary searches on sparse storage — ahead of the fetch, and a ΔS pair
/// only where the vertex has weight in that direction, which is a coin
/// flip per neighbour block. `to_bits`-equal to `evaluate_move` (asserted
/// where the fixture is built); kept here, and only here, as its twin.
fn evaluate_move_reference(
    graph: &Graph,
    bm: &Blockmodel,
    v: u32,
    to: u32,
    gathered: &DeltaScratch,
    fetcher: &mut DeltaScratch,
) -> (f64, f64) {
    let xlnx = |m: i64| m as f64 * ln_int(m);
    let (r, s) = (bm.block_of(v), to);
    let touched = gathered.neighbour_blocks();
    let (acc, self_w) = gathered.neighbour_weights();
    let (wo_r, wi_r) = acc[r as usize];
    let (wo_s, wi_s) = acc[s as usize];
    let m = [bm.get(r, r), bm.get(r, s), bm.get(s, r), bm.get(s, s)];
    let d = [
        -(wo_r + wi_r + self_w),
        wi_r - wo_s,
        wo_r - wi_s,
        wo_s + wi_s + self_w,
    ];
    let mut ds = 0.0f64;
    for (&m, &d) in m.iter().zip(&d) {
        ds += xlnx(m) - xlnx(m + d);
    }
    let (dout, din) = (graph.out_degree(v), graph.in_degree(v));
    let shift = dout + din;
    let b = bm.num_blocks() as f64;
    let (_, cross) = fetcher.cross_cells(bm, r, s, touched);
    let (mut fwd, mut bwd) = (0.0f64, 0.0f64);
    for (&t, &[m_rt, m_st, m_tr, m_ts]) in touched.iter().zip(cross) {
        let (wo, wi) = acc[t as usize];
        let base = bm.d_total(t);
        let (m_s, nc_tr, nc_rt, ndt) = if t == r {
            (m[1] + m[2], m[0] + d[0], m[0] + d[0], base - shift)
        } else if t == s {
            (m[3] + m[3], m[2] + d[2], m[1] + d[1], base + shift)
        } else {
            if wo != 0 {
                ds += xlnx(m_rt) - xlnx(m_rt - wo);
                ds += xlnx(m_st) - xlnx(m_st + wo);
            }
            if wi != 0 {
                ds += xlnx(m_tr) - xlnx(m_tr - wi);
                ds += xlnx(m_ts) - xlnx(m_ts + wi);
            }
            (m_ts + m_st, m_tr - wi, m_rt - wo, base)
        };
        let wf = (wo + wi) as f64;
        fwd += wf * (m_s as f64 + 1.0) / (base as f64 + b);
        bwd += wf * (nc_tr as f64 + nc_rt as f64 + 1.0) / (ndt as f64 + b);
    }
    for (deg, ln_deg, shift) in [
        (bm.d_out(r), bm.ln_d_out(r), -dout),
        (bm.d_out(s), bm.ln_d_out(s), dout),
        (bm.d_in(r), bm.ln_d_in(r), -din),
        (bm.d_in(s), bm.ln_d_in(s), din),
    ] {
        ds += xlnx(deg + shift) - deg as f64 * ln_deg;
    }
    (ds, if touched.is_empty() { 1.0 } else { bwd / fwd })
}

/// One MH sweep that gathers every vertex before it draws for it — the
/// order `evaluate_vertex` had before PR 23, when a draw of the vertex's
/// own block was skipped only after its O(deg) gather had been paid. Same
/// draws, same moves as `mh_sweep`; returns the number of moves.
fn gather_first_sweep(
    graph: &Graph,
    bm: &mut Blockmodel,
    vertices: &[u32],
    beta: f64,
    rng: &mut SmallRng,
    scratch: &mut DeltaScratch,
) -> usize {
    let mut moves = 0;
    for &v in vertices {
        if graph.degree(v) == 0 {
            continue;
        }
        scratch.gather_vertex(graph, bm, v);
        let to = match propose_for_vertex(rng, graph, bm, v) {
            Some(to) if to != bm.block_of(v) => to,
            _ => continue,
        };
        let (ds, hastings) = scratch.evaluate_move(graph, bm, v, to);
        if rng.random::<f64>() < ((-beta * ds).exp() * hastings).min(1.0) {
            bm.move_vertex(graph, v, to);
            moves += 1;
        }
    }
    moves
}

/// What PR 23 took out of a sweep proposal, each against the twin above
/// that still pays it, same run:
///
/// * `evaluate/sparse_C750` — gather + `evaluate_move` of every vertex's
///   drawn move (own-block draws left out) on the C = 750 sparse
///   [`challenge_trajectory`] blockmodel: the corners out of the one fetch
///   and four unconditional ΔS pairs per neighbour block, against four
///   `get()`s and two tested pairs;
/// * `sweep/mh_lowC` — an MH sweep of the [`bench_graph`] from its planted
///   partition folded onto 20 blocks, where about half the draws name the
///   vertex's own block: drawn before anything is gathered, against
///   gathered first.
fn bench_proposal_paths(c: &mut Criterion) {
    let (graph, [_, (_, sparse), _]) = challenge_trajectory();
    let mut group = quick(c);
    let (mut scratch, mut fetcher) = (DeltaScratch::new(), DeltaScratch::new());
    let mut rng = SmallRng::seed_from_u64(23);
    let drawn: Vec<(u32, u32)> = (0..graph.num_vertices() as u32)
        .filter_map(|v| {
            let to = propose_for_vertex(&mut rng, graph, sparse, v)?;
            (to != sparse.block_of(v)).then_some((v, to))
        })
        .collect();
    for &(v, to) in &drawn {
        scratch.gather_vertex(graph, sparse, v);
        let want = evaluate_move_reference(graph, sparse, v, to, &scratch, &mut fetcher);
        let got = scratch.evaluate_move(graph, sparse, v, to);
        assert_eq!(
            (got.0.to_bits(), got.1.to_bits()),
            (want.0.to_bits(), want.1.to_bits()),
            "evaluate_move vs its reference twin at v={v} to={to}"
        );
    }
    group.bench_function("evaluate/sparse_C750", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(v, to) in &drawn {
                scratch.gather_vertex(graph, sparse, v);
                let (ds, hastings) = scratch.evaluate_move(graph, sparse, v, to);
                acc += ds + hastings;
            }
            black_box(acc)
        })
    });
    group.bench_function("evaluate/sparse_C750_reference", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(v, to) in &drawn {
                scratch.gather_vertex(graph, sparse, v);
                let (ds, hastings) =
                    evaluate_move_reference(graph, sparse, v, to, &scratch, &mut fetcher);
                acc += ds + hastings;
            }
            black_box(acc)
        })
    });

    let (graph, truth, _) = bench_graph();
    let vertices: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let low_c: Vec<u32> = truth.iter().map(|&b| b % 20).collect();
    let fresh = || Blockmodel::from_assignment(&graph, low_c.clone(), 20);
    group.bench_function("sweep/mh_lowC", |b| {
        b.iter_batched(
            fresh,
            |mut bm| {
                let mut rng = SmallRng::seed_from_u64(5);
                black_box(mh_sweep(&graph, &mut bm, &vertices, 3.0, &mut rng))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("sweep/mh_lowC_reference", |b| {
        b.iter_batched(
            fresh,
            |mut bm| {
                let mut rng = SmallRng::seed_from_u64(5);
                black_box(gather_first_sweep(
                    &graph,
                    &mut bm,
                    &vertices,
                    3.0,
                    &mut rng,
                    &mut scratch,
                ))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_sweeps(c: &mut Criterion) {
    let (graph, assignment, nb) = bench_graph();
    let vertices: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let mut group = quick(c);
    group.bench_function("sweep/metropolis_hastings", |b| {
        b.iter_batched(
            || Blockmodel::from_assignment(&graph, assignment.clone(), nb),
            |mut bm| {
                let mut rng = SmallRng::seed_from_u64(5);
                black_box(mh_sweep(&graph, &mut bm, &vertices, 3.0, &mut rng))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    // One Hybrid plan sweep, every chunk one after another, as a sweep
    // with nobody to sync with runs it: at width 1 here, and at the pool's
    // width in sweep/hybrid_parallel, where the frozen chunks' evaluation
    // fans out over the persistent workers (results are bit-identical by
    // the determinism contract; only wall time differs). On a single-core
    // box the pair measures pure pool overhead vs the serial schedule.
    let plan = sweep_plan(McmcStrategy::Hybrid, &graph, &vertices);
    let plan_sweep = |bm: &mut Blockmodel| {
        plan.iter()
            .map(|chunk| chunk.sweep(&graph, bm, 3.0, 5, 0).moves.len())
            .sum::<usize>()
    };
    group.bench_function("sweep/hybrid", |b| {
        b.iter_batched(
            || Blockmodel::from_assignment(&graph, assignment.clone(), nb),
            |mut bm| black_box(rayon::with_threads(1, || plan_sweep(&mut bm))),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("sweep/hybrid_parallel", |b| {
        b.iter_batched(
            || Blockmodel::from_assignment(&graph, assignment.clone(), nb),
            |mut bm| black_box(plan_sweep(&mut bm)),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("sweep/batch", |b| {
        b.iter_batched(
            || Blockmodel::from_assignment(&graph, assignment.clone(), nb),
            |mut bm| black_box(batch_sweep(&graph, &mut bm, &vertices, 3.0, 5, 0)),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_ownership(c: &mut Criterion) {
    let (graph, _, _) = bench_graph();
    let mut group = quick(c);
    for n in [4usize, 64] {
        group.bench_with_input(BenchmarkId::new("ownership/balanced", n), &n, |b, &n| {
            b.iter(|| black_box(balanced_ownership(&graph, n)))
        });
        group.bench_with_input(BenchmarkId::new("ownership/modulo", n), &n, |b, &n| {
            b.iter(|| black_box(modulo_ownership(graph.num_vertices(), n)))
        });
    }
    group.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = quick(c);
    for n in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("allgatherv_1k_u64", n), &n, |b, &n| {
            b.iter(|| {
                ThreadCluster::run(n, CostModel::zero(), |comm| {
                    black_box(comm.allgatherv(vec![comm.rank() as u64; 1024]).len())
                })
            })
        });
    }
    group.finish();
}

/// The aggregation of one sharded sync's delta share: 2 500 arcs, each
/// charged `−w` to its old cell and `+w` to its new one, over the cells of
/// a C = 300 blockmodel — many repeats, and every charge of an arc that
/// did not change cell cancels. `_reference` is the `BTreeMap` fed one
/// charge at a time that `sharded.rs` held until PR 18.
fn bench_cell_fold(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(18);
    let mut charges: Vec<(u32, u32, i64)> = Vec::with_capacity(5000);
    for _ in 0..2500 {
        let (r, col, w) = (
            rng.random_range(0..300u32),
            rng.random_range(0..300u32),
            rng.random_range(1..=3i64),
        );
        let to = if rng.random_bool(0.8) {
            rng.random_range(0..300u32)
        } else {
            r
        };
        charges.push((r, col, -w));
        charges.push((to, col, w));
    }
    let mut group = quick(c);
    group.bench_function("dist/cell_fold_5k", |b| {
        b.iter(|| {
            let mut fold = CellFold::default();
            fold.extend(charges.iter().copied());
            black_box(fold.finish().len())
        })
    });
    group.bench_function("dist/cell_fold_5k_reference", |b| {
        b.iter(|| {
            let mut tree: BTreeMap<(u32, u32), i64> = BTreeMap::new();
            for &(r, col, w) in &charges {
                *tree.entry((r, col)).or_insert(0) += w;
            }
            let cells: Vec<(u32, u32, i64)> = tree
                .into_iter()
                .filter(|&(_, w)| w != 0)
                .map(|((r, col), w)| (r, col, w))
                .collect();
            black_box(cells.len())
        })
    });
    group.finish();
}

fn bench_blockmodel(c: &mut Criterion) {
    let (graph, assignment, nb) = bench_graph();
    let mut group = quick(c);
    group.bench_function("blockmodel/from_assignment", |b| {
        b.iter(|| black_box(Blockmodel::from_assignment(&graph, assignment.clone(), nb)))
    });
    group.bench_function("blockmodel/entropy", |b| {
        let bm = Blockmodel::from_assignment(&graph, assignment.clone(), nb);
        b.iter(|| black_box(bm.entropy()))
    });
    // Sparse-regime rebuild + reduction kernels (identity partition,
    // C = V): the parallel per-line sort-and-fold and the fixed-shape
    // chunked entropy sum — the two full-matrix passes PR 5 parallelized.
    let identity: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let v = graph.num_vertices();
    group.bench_function("blockmodel/from_assignment_hugeC", |b| {
        b.iter(|| black_box(Blockmodel::from_assignment(&graph, identity.clone(), v)))
    });
    group.bench_function("blockmodel/entropy_hugeC", |b| {
        let bm = Blockmodel::from_assignment(&graph, identity.clone(), v);
        b.iter(|| black_box(bm.entropy()))
    });
    group.bench_function("blockmodel/move_vertex_roundtrip", |b| {
        let mut bm = Blockmodel::from_assignment(&graph, assignment.clone(), nb);
        b.iter(|| {
            for v in (0..graph.num_vertices() as u32).step_by(17) {
                let home = bm.block_of(v);
                let away = (home + 1) % nb as u32;
                bm.move_vertex(&graph, v, away);
                bm.move_vertex(&graph, v, home);
            }
        })
    });
    group.finish();
}

/// A merge phase's fold of the model it holds ([`Blockmodel::merged`],
/// PR 24) against the rebuild from the graph it replaced, on the same
/// target model: the identity partition of the `single_challenge` graph
/// halved, its C = 750 fixture halved (the sparse → dense fold after which
/// `single_challenge` reaches its peak memory; recorded, not guarded), and a
/// 40-block state of it halved. At C ≈ V the fold reads as many cells as
/// the graph has arcs, so the first pair is a "no worse" guard; at C = 40
/// the model has a few hundred cells against 71 k arcs — where a warm
/// daemon round lives — and the fold must win outright
/// (`scripts/check_bench_regression.py`).
fn bench_merged(c: &mut Criterion) {
    let (graph, fixtures) = challenge_trajectory();
    let cfg = SbpConfig::default();
    let vertices: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let mut low = merge_phase(
        graph,
        &fixtures[2].1,
        fixtures[2].1.num_blocks() - 40,
        &cfg,
        9,
    );
    let mut rng = SmallRng::seed_from_u64(9);
    for _ in 0..5 {
        mh_sweep(graph, &mut low, &vertices, cfg.beta, &mut rng);
    }
    let mut group = quick(c);
    for (bm, from, to) in [
        (&fixtures[0].1, 3000, 1500),
        (&fixtures[1].1, 750, 375),
        (&low, 40, 20),
    ] {
        assert_eq!(bm.num_blocks(), from);
        let blocks: Vec<u32> = (0..from as u32).collect();
        let cands = propose_merges(bm, &blocks, 10, 99);
        let (label, halved) = merge_labels(from, cands.clone(), from - to);
        let (assignment, _) = apply_merges(bm, cands, from - to);
        assert_eq!(halved, to);
        let rebuilt = Blockmodel::from_assignment(graph, assignment.clone(), to);
        assert!(bm.merged(&label, to).same_state(&rebuilt));
        group.bench_function(format!("blockmodel/merged_C{from}_to_{to}"), |b| {
            b.iter(|| black_box(bm.merged(&label, to)))
        });
        group.bench_function(format!("blockmodel/from_assignment_C{to}"), |b| {
            b.iter(|| black_box(Blockmodel::from_assignment(graph, assignment.clone(), to)))
        });
    }
    group.finish();
}

/// Point updates alone: the moves one MH sweep accepts on the
/// `single_challenge` graph, applied with `move_vertex` and then undone in
/// reverse, per iteration — at C = 1500 on sparse storage (the state the
/// [`challenge_trajectory`] passes through between its C = 3000 and C = 750
/// fixtures) and at C = 375 on dense storage (its last fixture). Recorded,
/// not guarded — the kernels a cell's width shows up in.
fn bench_apply_moves(c: &mut Criterion) {
    let (graph, fixtures) = challenge_trajectory();
    let cfg = SbpConfig::default();
    let vertices: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let mut sparse = merge_phase(graph, &fixtures[0].1, 1500, &cfg, 1);
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..5 {
        mh_sweep(graph, &mut sparse, &vertices, cfg.beta, &mut rng);
    }
    let mut group = quick(c);
    for (label, mut bm, kind) in [
        ("sparse_C1500", sparse, StorageKind::Sparse),
        ("dense_C375", fixtures[2].1.clone(), StorageKind::Dense),
    ] {
        assert_eq!(bm.storage_kind(), kind, "{label}");
        let mut swept = bm.clone();
        mh_sweep(graph, &mut swept, &vertices, cfg.beta, &mut rng);
        let moves: Vec<(u32, u32, u32)> = vertices
            .iter()
            .map(|&v| (v, bm.block_of(v), swept.block_of(v)))
            .filter(|&(_, from, to)| from != to)
            .collect();
        assert!(!moves.is_empty(), "{label}: the sweep accepted moves");
        group.bench_function(format!("blockmodel/move_vertex_{label}"), |b| {
            b.iter(|| {
                for &(v, _, to) in &moves {
                    bm.move_vertex(graph, v, to);
                }
                for &(v, from, _) in moves.iter().rev() {
                    bm.move_vertex(graph, v, from);
                }
            })
        });
    }
    group.finish();
}

/// Random add/sub churn over the rows of the C = 750 [`challenge_trajectory`]
/// model, each row folded from its cells split in two (the state a merge
/// leaves a line in): 20 000 charges of 1..=3 to random cells of random
/// rows, each taken back 2 000 charges later, then the last 2 000 taken
/// back — so lines grow by inserts and shrink by removals, and every
/// reallocation the room policy asks for is timed. Recorded, not guarded.
fn bench_line_churn(c: &mut Criterion) {
    const CHARGES: usize = 20_000;
    const LAG: usize = 2_000;
    let (_, [_, (_, model), _]) = challenge_trajectory();
    let blocks = model.num_blocks() as u32;
    let halves: Vec<Vec<Cell>> = (0..blocks)
        .map(|r| {
            model
                .row_iter(r)
                .flat_map(|(k, w)| {
                    let w = u32::try_from(w).expect("a cell fits u32");
                    [(k, w - w / 2), (k, w / 2)]
                })
                .filter(|&(_, w)| w > 0)
                .collect()
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(33);
    let charges: Vec<(usize, u32, i64)> = (0..CHARGES)
        .map(|_| {
            (
                rng.random_range(0..blocks) as usize,
                rng.random_range(0..blocks),
                rng.random_range(1..=3i64),
            )
        })
        .collect();
    let mut group = quick(c);
    group.bench_function("line/churn_sparse_C750", |b| {
        b.iter_batched(
            || {
                halves
                    .iter()
                    .cloned()
                    .map(CanonicalLine::from_unsorted)
                    .collect::<Vec<_>>()
            },
            |mut lines| {
                for (i, &(l, k, w)) in charges.iter().enumerate() {
                    lines[l].add(k, w);
                    if let Some(&(l, k, w)) = i.checked_sub(LAG).map(|j| &charges[j]) {
                        lines[l].sub(k, w);
                    }
                }
                for &(l, k, w) in &charges[CHARGES - LAG..] {
                    lines[l].sub(k, w);
                }
                lines
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The graph's own layer on the `single_challenge` graph (66 k arcs, each
/// stored once per direction): building it from its arc list, and one
/// `gather_vertex` per vertex against the C = 375 [`challenge_trajectory`]
/// blockmodel — a sweep's whole adjacency read, with the blockmodel side
/// held small. Recorded, not guarded — the kernels an arc's width shows
/// up in.
fn bench_graph_layer(c: &mut Criterion) {
    let (graph, [_, _, (_, dense)]) = challenge_trajectory();
    let arcs: Vec<_> = graph.arcs().collect();
    let mut group = quick(c);
    group.bench_function("graph/from_edges_challenge3000", |b| {
        b.iter(|| {
            black_box(Graph::from_edges(
                graph.num_vertices(),
                arcs.iter().copied(),
            ))
        })
    });
    group.bench_function("graph/gather_all_challenge3000", |b| {
        let mut scratch = DeltaScratch::new();
        b.iter(|| {
            let mut acc = 0;
            for v in 0..graph.num_vertices() as u32 {
                scratch.gather_vertex(graph, dense, v);
                acc += scratch.neighbour_blocks().len();
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// The entropy chunk-size study on a dense blockmodel.
fn bench_entropy_chunk(c: &mut Criterion) {
    let (graph, _, _) = bench_graph();
    let n = graph.num_vertices();
    // Force dense storage at C = V/4 (~169): well above the C ≤ 64
    // always-dense band, so every row walk crosses many zero slots.
    let nb = (n / 4).max(4);
    let assignment: Vec<u32> = (0..n as u32).map(|v| v % nb as u32).collect();
    let bm = Blockmodel::from_assignment_with(&graph, assignment, nb, StorageKind::Dense);
    let mut group = quick(c);
    // Entropy chunk-size study (ROADMAP carry-over from PR 5): the chunk
    // width re-associates the chunk partials, so these four are free to
    // differ in bits and wall time while the default stays pinned at 64
    // for fixture stability.
    for chunk in [32usize, 64, 128, 256] {
        group.bench_with_input(
            BenchmarkId::new("blockmodel/entropy_chunk", chunk),
            &chunk,
            |b, &chunk| b.iter(|| black_box(bm.entropy_with_chunk(chunk))),
        );
    }
    group.finish();
}

fn bench_generator(c: &mut Criterion) {
    let mut group = quick(c);
    group.bench_function("generator/param_study_small", |b| {
        let spec = ParamStudySpec {
            truncate_min: true,
            truncate_max: true,
            duplicated: true,
            communities_base: 33,
        };
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(param_study(spec, 0.02, seed).graph.num_arcs())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_delta,
    bench_pool_dispatch,
    bench_propose,
    bench_merge_phase,
    bench_merge_eval,
    bench_sweep_walks,
    bench_proposal_paths,
    bench_sweeps,
    bench_ownership,
    bench_collectives,
    bench_cell_fold,
    bench_blockmodel,
    bench_merged,
    bench_apply_moves,
    bench_line_churn,
    bench_graph_layer,
    bench_entropy_chunk,
    bench_generator
);
criterion_main!(benches);
