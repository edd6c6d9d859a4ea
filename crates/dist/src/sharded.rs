//! The **sharded** data plane: EDiSt and DC-SBP running against a
//! [`DistGraph`] — each rank holding only its owned adjacency — instead
//! of a replicated monolithic [`sbp_graph::Graph`]. The golden search and
//! the DC-SBP driver are the ones the replicated plane runs
//! (`sbp_core::sbp::golden_search` over `edist::DistPlane`,
//! `dcsbp::dcsbp_driver`); this module only supplies `ShardedData`.
//!
//! ## How EDiSt stays exact without the whole graph
//!
//! EDiSt replicates the *blockmodel*, not the graph. Everything a rank
//! does between sync points touches only (a) the replicated blockmodel,
//! (b) the replicated assignment vector, and (c) the adjacency of the
//! vertices it sweeps — which the sharded loader guarantees is complete
//! for owned vertices. The two places the monolithic driver walks the
//! whole graph are replaced by integer-exact collectives:
//!
//! * **Blockmodel (re)builds** (`Blockmodel::from_assignment` at
//!   iteration start and after merges): each rank derives the matrix
//!   cells of its owned out-arcs and one allgather sums them —
//!   [`Blockmodel::from_parts`] then yields the *identical integer
//!   matrix* on every rank, because integer addition is
//!   order-independent.
//! * **Peer move application** (`move_vertex` needs the mover's
//!   adjacency): ranks exchange pre-aggregated matrix **cell deltas**
//!   instead. With `A_prev` the assignment at the last sync, `own` this
//!   rank's moves and `A_next` the post-sync assignment, the ranks
//!   together reconstruct `M(A_next) − M(A_prev)` exactly, subtract the
//!   locally-known `M(A_prev + own) − M(A_prev)` correction (each
//!   replica already applied its own moves incrementally mid-sweep), and
//!   land every replica on exactly `M(A_next)` — the same integers the
//!   monolithic driver reaches by replaying peer moves. Block-degree
//!   updates need only the ghost-degree table. Since the single-payload
//!   sync, each rank's delta share is phrased so it depends on **its own
//!   moves only** (see `sharded_sync`'s per-arc decomposition), so the
//!   moves, the delta share, and the cut arcs needed for the cross-rank
//!   correction all ship in *one* allgather buffer per sync — half the
//!   collective latency of the original moves-then-deltas pair.
//!
//! Consequently a sharded EDiSt run is **bit-identical** — assignments,
//! DL, trajectories — to a monolithic EDiSt run with the same seed, rank
//! count, and ownership, **unconditionally**: sparse block-matrix lines
//! iterate in canonical order (`sbp_core::line`), so floating-point
//! summation order is a pure function of the replicated integer state in
//! both storage regimes, not just on the dense flat matrix as before.
//! The equivalence is asserted in `tests/shard.rs` across ranks ×
//! ownerships × MCMC strategies × sync periods, on dense-regime,
//! sparse-regime, and regime-crossing trajectories.
//!
//! DC-SBP composes with sharded ingest naturally — each rank's induced
//! subgraph is a subset of its owned adjacency — except for root-side
//! fine-tuning, which by construction needs the whole graph on rank 0;
//! the sharded variant therefore always behaves like the paper's
//! "no fine-tune" ablation (combine + compact + exact distributed DL).
//! Run EDiSt over the same shards to refine its output distributively.

use crate::distgraph::DistGraph;
use crate::edist::EdistData;
use crate::error::DistError;
use crate::exchange::{
    concat_sections, decode_cells, decode_moves, encode_cells, encode_moves, split_sections,
    ExchangeStats,
};
use sbp_core::mcmc::AcceptedMove;
use sbp_core::Blockmodel;
use sbp_graph::{Vertex, Weight};
use sbp_mpi::Communicator;
use std::collections::BTreeMap;

// ------------------------------------------------------------ blockmodel

/// This rank's matrix cells under `labels`: one entry per distinct
/// `(row, col)` over the owned out-arcs, sorted (BTreeMap order).
fn local_cells(dg: &DistGraph, labels: &[u32]) -> Vec<(u32, u32, Weight)> {
    let mut cells: BTreeMap<(u32, u32), Weight> = BTreeMap::new();
    for &v in dg.owned() {
        let r = labels[v as usize];
        for &(d, w) in dg.local().out_edges(v) {
            *cells.entry((r, labels[d as usize])).or_insert(0) += w;
        }
    }
    cells.into_iter().map(|((r, c), w)| (r, c, w)).collect()
}

/// Builds the replicated blockmodel from per-rank cell contributions —
/// the sharded stand-in for `Blockmodel::from_assignment`. Every rank
/// returns the identical integer state.
fn dist_blockmodel<C: Communicator>(
    comm: &C,
    dg: &DistGraph,
    assignment: Vec<u32>,
    num_blocks: usize,
) -> Result<Blockmodel, DistError> {
    let mine = encode_cells(&local_cells(dg, &assignment));
    let payloads = comm.allgatherv(mine);
    let mut total: BTreeMap<(u32, u32), Weight> = BTreeMap::new();
    for payload in payloads {
        for (r, c, w) in decode_cells(&payload)? {
            *total.entry((r, c)).or_insert(0) += w;
        }
    }
    Ok(Blockmodel::from_parts(
        dg.num_vertices(),
        dg.total_edge_weight(),
        assignment,
        num_blocks,
        total.into_iter().map(|((r, c), w)| (r, c, w)),
    ))
}

// ------------------------------------------------------------- move sync

/// Accumulates `±w` cell contributions for one arc under two labelings.
fn arc_delta(
    delta: &mut BTreeMap<(u32, u32), Weight>,
    s: Vertex,
    d: Vertex,
    w: Weight,
    before: &[u32],
    after: &[u32],
) {
    *delta
        .entry((before[s as usize], before[d as usize]))
        .or_insert(0) -= w;
    *delta
        .entry((after[s as usize], after[d as usize]))
        .or_insert(0) += w;
}

/// One sync point on the sharded plane, in a **single allgather**.
///
/// The shipped buffer has three sections (framed by
/// `concat_sections` with a tiny varint length header): this rank's
/// chronological moves, its locally-computable share of the matrix
/// delta, and the cut out-arcs of its net-moved vertices. The matrix
/// delta `M(A_next) − M(A_prev)` decomposes per arc `s → d` of weight
/// `w` — writing `p·`/`n·` for the pre-/post-sync labels and `e(r, c)`
/// for a `+w` charge to cell `(r, c)` — as
///
/// ```text
/// e(ns,nd) − e(ps,pd) = [e(ns,pd) − e(ps,pd)]            source term
///                     + [e(ps,nd) − e(ps,pd)]            dest term
///                     + [e(ns,nd) − e(ns,pd)
///                        − e(ps,nd) + e(ps,pd)]          cross term
/// ```
///
/// An arc with both endpoints on one rank ships its exact delta from
/// that rank. A cut arc's source term ships from the source owner and
/// its dest term from the dest owner — each is a pure function of that
/// rank's **own** moves plus the replicated `A_prev`, which is what lets
/// the delta share a buffer with the moves instead of being computed
/// after them. The cross term is nonzero only when *both* endpoints
/// net-moved (necessarily on different ranks, since a vertex moves only
/// on its owner); no single rank can precompute it, so the source owner
/// ships the cut arcs of its moved vertices and *every* rank
/// reconstructs the identical correction after the gather, when all
/// endpoint labels are known. Integer cell sums are order-independent,
/// so the per-cell deltas — and therefore the whole trajectory — are
/// exactly the original two-allgather scheme's, at half the collective
/// latency per sync. Relabels of peer-moved vertices and block-degree
/// fixes come from the move lists and the ghost-degree table as before.
///
/// `prev` is the globally-agreed assignment at the previous sync and is
/// advanced to the new agreement. Returns the total move count.
fn sharded_sync<C: Communicator>(
    comm: &C,
    dg: &DistGraph,
    bm: &mut Blockmodel,
    prev: &mut Vec<u32>,
    pending: &[AcceptedMove],
    xstats: &mut ExchangeStats,
) -> Result<usize, DistError> {
    let rank = comm.rank();
    // The replica currently sits at M(A_prev + own): own moves were
    // applied incrementally mid-sweep, peer moves arrive below.
    let cur = bm.assignment().to_vec();
    let mut own_moved: Vec<Vertex> = pending.iter().map(|m| m.v).collect();
    own_moved.sort_unstable();
    own_moved.dedup();
    own_moved.retain(|&v| cur[v as usize] != prev[v as usize]);
    let is_own_moved = |v: Vertex| dg.owner_of(v) == rank && cur[v as usize] != prev[v as usize];

    // This rank's delta share plus the cut arcs peers will need for the
    // cross terms — all derived from own moves only (see above).
    let mut contrib: BTreeMap<(u32, u32), Weight> = BTreeMap::new();
    let mut cuts: BTreeMap<(u32, u32), Weight> = BTreeMap::new();
    for &v in &own_moved {
        for &(d, w) in dg.local().out_edges(v) {
            if dg.owner_of(d) == rank {
                // Both endpoints' final labels are known locally (a
                // vertex is only moved by its owner): exact arc delta.
                arc_delta(&mut contrib, v, d, w, prev, &cur);
            } else {
                // Cut arc: source term now, cross term post-gather.
                *contrib
                    .entry((cur[v as usize], prev[d as usize]))
                    .or_insert(0) += w;
                *contrib
                    .entry((prev[v as usize], prev[d as usize]))
                    .or_insert(0) -= w;
                *cuts.entry((v, d)).or_insert(0) += w;
            }
        }
        for &(s, w) in dg.local().in_edges(v) {
            if s == v {
                continue; // self-loop charged once via the out-arc loop
            }
            if dg.owner_of(s) == rank {
                if !is_own_moved(s) {
                    // Unmoved owned source: the dest term is the exact
                    // delta (moved sources were charged by their own
                    // out-arc pass).
                    arc_delta(&mut contrib, s, v, w, prev, &cur);
                }
            } else {
                // Cut arc owned elsewhere: this side ships the dest term.
                *contrib
                    .entry((prev[s as usize], cur[v as usize]))
                    .or_insert(0) += w;
                *contrib
                    .entry((prev[s as usize], prev[v as usize]))
                    .or_insert(0) -= w;
            }
        }
    }
    let contrib: Vec<(u32, u32, Weight)> = contrib
        .into_iter()
        .filter(|&(_, w)| w != 0)
        .map(|((r, c), w)| (r, c, w))
        .collect();
    let cuts: Vec<(u32, u32, Weight)> = cuts.into_iter().map(|((s, d), w)| (s, d, w)).collect();

    let moves_buf = encode_moves(pending);
    xstats.record(pending.len(), moves_buf.len());
    let payload = concat_sections([&moves_buf, &encode_cells(&contrib), &encode_cells(&cuts)]);

    // The sync point's one collective.
    let payloads = comm.allgatherv(payload);

    let mut gathered: Vec<Vec<AcceptedMove>> = Vec::with_capacity(payloads.len());
    let mut delta: BTreeMap<(u32, u32), Weight> = BTreeMap::new();
    let mut all_cuts: Vec<(u32, u32, Weight)> = Vec::new();
    for p in &payloads {
        let [moves_sec, cells_sec, cuts_sec] = split_sections::<3>(p)?;
        gathered.push(decode_moves(moves_sec)?);
        for (r, c, w) in decode_cells(cells_sec)? {
            *delta.entry((r, c)).or_insert(0) += w;
        }
        all_cuts.extend(decode_cells(cuts_sec)?);
    }

    // A vertex is only ever moved by its owner, so applying the per-rank
    // lists in rank order (chronological within a rank) reproduces the
    // final label of every vertex.
    let mut next = prev.clone();
    let mut moves = 0usize;
    for peer_moves in &gathered {
        moves += peer_moves.len();
        for m in peer_moves {
            next[m.v as usize] = m.to;
        }
    }

    // Cross terms: every rank reconstructs them identically from the
    // shipped cut arcs plus the now-known global move set.
    for &(s, d, w) in &all_cuts {
        let (ps, ns) = (prev[s as usize], next[s as usize]);
        let (pd, nd) = (prev[d as usize], next[d as usize]);
        if pd == nd {
            continue; // dest did not net-move: cross term vanishes
        }
        debug_assert_ne!(ps, ns, "cut arcs ship for net-moved sources only");
        *delta.entry((ns, nd)).or_insert(0) += w;
        *delta.entry((ns, pd)).or_insert(0) -= w;
        *delta.entry((ps, nd)).or_insert(0) -= w;
        *delta.entry((ps, pd)).or_insert(0) += w;
    }

    // Own-move correction: subtract M(A_prev + own) − M(A_prev) —
    // computable locally since every arc incident to an owned vertex is
    // present — so the summed delta lands the matrix exactly on
    // M(A_next).
    let mut corr: BTreeMap<(u32, u32), Weight> = BTreeMap::new();
    for &v in &own_moved {
        for &(d, w) in dg.local().out_edges(v) {
            arc_delta(&mut corr, v, d, w, prev, &cur);
        }
        for &(s, w) in dg.local().in_edges(v) {
            if s != v && !is_own_moved(s) {
                arc_delta(&mut corr, s, v, w, prev, &cur);
            }
        }
    }
    for ((r, c), w) in corr {
        *delta.entry((r, c)).or_insert(0) -= w;
    }

    // Peer relabels + degree fixes (own moves already applied in-sweep).
    let mut moved: Vec<Vertex> = gathered
        .iter()
        .flatten()
        .map(|m| m.v)
        .filter(|&v| prev[v as usize] != next[v as usize])
        .collect();
    moved.sort_unstable();
    moved.dedup();
    let relabels: Vec<(Vertex, u32)> = moved
        .iter()
        .copied()
        .filter(|&v| dg.owner_of(v) != rank)
        .map(|v| (v, next[v as usize]))
        .collect();
    let mut degree_deltas: BTreeMap<u32, (Weight, Weight)> = BTreeMap::new();
    for &(v, to) in &relabels {
        let (dout, din) = (dg.out_degree(v), dg.in_degree(v));
        let from = prev[v as usize];
        let e = degree_deltas.entry(from).or_insert((0, 0));
        e.0 -= dout;
        e.1 -= din;
        let e = degree_deltas.entry(to).or_insert((0, 0));
        e.0 += dout;
        e.1 += din;
    }
    bm.apply_dist_sync(
        &relabels,
        delta.into_iter().map(|((r, c), w)| (r, c, w)),
        degree_deltas.into_iter().map(|(b, (o, i))| (b, o, i)),
    );
    *prev = next;
    Ok(moves)
}

// ------------------------------------------------------------ data plane

/// The sharded [`EdistData`] plane: sweeps run on the local (owned-only)
/// graph, blockmodel builds go through the summed-cell collective (the
/// identity start is already compact, so it is built like any other
/// assignment), and peer moves apply via the cell-delta sync. The control
/// loop is the replicated plane's, so the two can never drift apart.
pub(crate) struct ShardedData<'a> {
    pub(crate) dg: &'a DistGraph,
}

impl EdistData for ShardedData<'_> {
    fn num_vertices(&self) -> usize {
        self.dg.num_vertices()
    }

    fn total_edge_weight(&self) -> i64 {
        self.dg.total_edge_weight()
    }

    fn sweep_graph(&self) -> &sbp_graph::Graph {
        self.dg.local()
    }

    fn my_vertices(&self) -> &[Vertex] {
        self.dg.owned()
    }

    fn whole_graph(&self) -> Option<&sbp_graph::Graph> {
        None
    }

    fn build_blockmodel<C: Communicator>(
        &self,
        comm: &C,
        assignment: Vec<u32>,
        num_blocks: usize,
    ) -> Result<Blockmodel, DistError> {
        dist_blockmodel(comm, self.dg, assignment, num_blocks)
    }

    fn exchange_moves<C: Communicator>(
        &self,
        comm: &C,
        bm: &mut Blockmodel,
        prev: &mut Vec<u32>,
        pending: &[AcceptedMove],
        xstats: &mut ExchangeStats,
    ) -> Result<usize, DistError> {
        sharded_sync(comm, self.dg, bm, prev, pending, xstats)
    }
}

#[cfg(test)]
mod tests {
    use crate::distgraph::ShardIngestReport;
    use crate::fault::FaultPlan;
    use crate::run::{run_sharded, ShardedBackend};
    use crate::solver::Edist;
    use sbp_core::run::{CancelToken, NoProgress, RunConfig, RunOutcome, Solver};
    use sbp_core::SbpConfig;
    use sbp_graph::fixtures::two_cliques;
    use sbp_graph::shard::{shard_graph, validate_shard_dir};
    use sbp_graph::OwnershipStrategy;
    use sbp_mpi::CostModel;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sharded_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Validate-then-run, as every real caller does.
    fn run(
        dir: &std::path::Path,
        backend: ShardedBackend,
        cfg: &RunConfig,
    ) -> (RunOutcome, ShardIngestReport) {
        let header = validate_shard_dir(dir).expect("coherent shard dir");
        run_sharded(
            dir,
            &header,
            backend,
            CostModel::zero(),
            cfg,
            &FaultPlan::none(),
            &mut NoProgress,
        )
    }

    #[test]
    fn sharded_edist_recovers_two_cliques() {
        let g = two_cliques(8);
        let dir = temp_dir("recover");
        shard_graph(&g, &dir, 2, OwnershipStrategy::SortedBalanced).unwrap();
        let (out, ingest) = run(
            &dir,
            ShardedBackend::Edist { sync_period: 1 },
            &RunConfig::seeded(7),
        );
        assert_eq!(out.num_blocks, 2);
        assert_eq!(out.assignment[0], out.assignment[7]);
        assert_ne!(out.assignment[0], out.assignment[8]);
        assert_eq!(ingest.total_arcs, g.num_arcs());
        let rep = out.cluster.expect("cluster report");
        assert_eq!(rep.ranks, 2);
        assert!(rep.move_bytes_encoded <= rep.move_bytes_raw);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_edist_is_bit_identical_to_monolithic() {
        // Dense regime (V ≤ 64): the sharded cell-delta maintenance must
        // reproduce the monolithic trajectory bit for bit, at every rank
        // count and under both ownership schemes.
        let g = two_cliques(8);
        for strategy in [OwnershipStrategy::Modulo, OwnershipStrategy::SortedBalanced] {
            for ranks in [1usize, 2, 4] {
                let dir = temp_dir(&format!("bitid_{ranks}_{}", strategy.code()));
                shard_graph(&g, &dir, ranks, strategy).unwrap();
                let cfg = RunConfig::seeded(42);
                let (sharded, _) = run(&dir, ShardedBackend::Edist { sync_period: 1 }, &cfg);
                let mono = Edist {
                    ranks,
                    cost: CostModel::zero(),
                    ownership: strategy,
                    sync_period: 1,
                    fault: crate::fault::FaultPlan::none(),
                }
                .solve(&g, &RunConfig::seeded(42), &mut NoProgress);
                assert_eq!(sharded.assignment, mono.assignment, "{strategy:?}×{ranks}");
                assert_eq!(sharded.num_blocks, mono.num_blocks);
                assert_eq!(
                    sharded.description_length.to_bits(),
                    mono.description_length.to_bits(),
                    "{strategy:?}×{ranks}: DL must match to the last bit"
                );
                assert_eq!(sharded.iterations.len(), mono.iterations.len());
                for (a, b) in sharded.iterations.iter().zip(mono.iterations.iter()) {
                    assert_eq!(a.dl.to_bits(), b.dl.to_bits());
                    assert_eq!(a.sweeps, b.sweeps);
                    assert_eq!(a.moves, b.moves);
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn sharded_dcsbp_runs_and_reports() {
        let g = two_cliques(8);
        let dir = temp_dir("dcsbp");
        shard_graph(&g, &dir, 2, OwnershipStrategy::Modulo).unwrap();
        let (out, ingest) = run(&dir, ShardedBackend::DcSbp, &RunConfig::seeded(1));
        assert_eq!(out.assignment.len(), 16);
        assert!(out.num_blocks >= 1);
        assert!(out
            .assignment
            .iter()
            .all(|&b| (b as usize) < out.num_blocks));
        assert_eq!(ingest.ranks, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_shard_dir_fails_validation_before_spawning() {
        // Callers must validate first; an empty directory never reaches
        // run_sharded.
        let dir = temp_dir("bad");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(validate_shard_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_cancelled_sharded_run_aborts_consistently() {
        let g = two_cliques(6);
        let dir = temp_dir("cancel");
        shard_graph(&g, &dir, 3, OwnershipStrategy::SortedBalanced).unwrap();
        let cfg = RunConfig {
            sbp: SbpConfig::default(),
            cancel: CancelToken::new(),
            ..RunConfig::default()
        };
        cfg.cancel.cancel();
        let (out, _) = run(&dir, ShardedBackend::Edist { sync_period: 1 }, &cfg);
        assert!(out.cancelled);
        assert_eq!(out.num_blocks, 12, "identity bracket entry comes back");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
