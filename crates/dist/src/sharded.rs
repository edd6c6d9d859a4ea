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
//! * **The blockmodel build** (`Blockmodel::from_assignment`): each rank
//!   derives the matrix cells of its owned out-arcs and one allgather
//!   sums them — [`Blockmodel::from_parts`] then yields the *identical
//!   integer matrix* on every rank, because integer addition is
//!   order-independent. A search pays this for its seed, for the first
//!   iteration after a resume, for the `mid` of a cold bracket it has just
//!   established (a cold search lets that model go while it is still
//!   halving), and at most once more for a `hi` whose model it let go
//!   (`Plane::build`). It does **not** pay it per
//!   merge: as in the paper's Alg. 4, every rank applies the agreed merges
//!   to the replica it already holds — `Blockmodel::merged` folds the
//!   replica's own lines through the block relabelling, the same integers
//!   on every rank, no graph and no collective involved.
//! * **Peer move application** (`move_vertex` needs the mover's
//!   adjacency): ranks exchange pre-aggregated matrix **cell deltas**
//!   instead. With `A_prev` the assignment at the last sync and `A_next`
//!   the post-sync one, `M(A_next) − M(A_prev)` splits into one *share*
//!   per rank — a function of that rank's **own moves only** (see
//!   `sharded_sync`'s per-arc decomposition) — plus cross terms on the cut
//!   arcs whose two endpoints both moved. A rank's own share is exactly
//!   `M(A_prev + own) − M(A_prev)`, which its replica already holds (own
//!   moves are applied incrementally mid-sweep), so the share ships for
//!   the peers' benefit and is never applied at home: each replica adds
//!   the **sum of its peers' shares** and the cross terms, and lands on
//!   exactly `M(A_next)` — the same integers the monolithic driver reaches
//!   by replaying peer moves. Block-degree updates need only the
//!   ghost-degree table. Because a share depends on nothing a peer does,
//!   the moves, the share, and the cut arcs the cross terms are rebuilt
//!   from all travel in *one* allgather buffer per sync. A share arrives
//!   as an ascending cell list, so the receiver sums the peers' lists and
//!   its cross terms by a k-way merge as it applies them — no second
//!   buffer, no sort — and only after every section has been checked
//!   against its replica's vertex count, block count and owner map: a
//!   hostile or corrupted peer gets a typed error, never a panic or a
//!   silent divergence. [`sync_payload`] and [`apply_sync`] are the two
//!   halves around the gather.
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
use crate::error::{DecodeError, DistError};
use crate::exchange::{
    check_moves, concat_sections, decode_cells, decode_moves, encode_cells, encode_moves,
    merge_cells, split_sections, CellFold, ExchangeStats,
};
use sbp_core::mcmc::AcceptedMove;
use sbp_core::Blockmodel;
use sbp_graph::{Vertex, Weight};
use sbp_mpi::Communicator;

// ------------------------------------------------------------ blockmodel

/// A folded `(row, col, weight)` list, ascending — what [`encode_cells`]
/// ships.
type Cells = Vec<(u32, u32, Weight)>;

/// This rank's matrix cells under `labels`: one entry per distinct
/// `(row, col)` over the owned out-arcs.
fn local_cells(dg: &DistGraph, labels: &[u32]) -> Cells {
    let mut cells = CellFold::default();
    for &v in dg.owned() {
        let r = labels[v as usize];
        for (d, w) in dg.local().out_edges(v) {
            cells.add(r, labels[d as usize], w);
        }
    }
    cells.finish()
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
    // A cell two ranks both charge arrives twice; `from_parts` sums
    // repeated cells, so the per-rank lists chain as they are.
    let mut cells = Vec::new();
    for payload in comm.allgatherv(mine) {
        cells.extend(decode_cells(&payload)?);
    }
    Ok(Blockmodel::from_parts(
        dg.num_vertices(),
        dg.total_edge_weight(),
        assignment,
        num_blocks,
        &cells,
    ))
}

// ------------------------------------------------------------- move sync

/// Moves one arc's charge from its cell under `before` to its cell under
/// `after`.
fn arc_delta(delta: &mut CellFold, s: Vertex, d: Vertex, w: Weight, before: &[u32], after: &[u32]) {
    delta.add(before[s as usize], before[d as usize], -w);
    delta.add(after[s as usize], after[d as usize], w);
}

/// What `rank` ships besides its moves: its share of
/// `M(A_next) − M(A_prev)` and the cut out-arcs of its net-moved
/// vertices, both ascending. `cur` is the replica's assignment — `prev`
/// plus this rank's `pending` moves, peers' vertices still at their
/// `prev` labels (a replica relabels a peer's vertex only inside a sync,
/// where `prev` advances with it).
///
/// The share is the delta of every arc incident to a net-moved owned
/// vertex, `prev` → `cur`. For an arc with both endpoints owned that is
/// its exact delta; for a cut arc the peer endpoint reads the same label
/// on both sides, which makes it the source (out-arc) or dest (in-arc)
/// term of `sharded_sync`'s decomposition. Summed, it is
/// `M(A_prev + own) − M(A_prev)` — what the in-sweep `move_vertex` calls
/// already did to this replica.
fn own_share(
    dg: &DistGraph,
    rank: usize,
    prev: &[u32],
    cur: &[u32],
    pending: &[AcceptedMove],
) -> (Cells, Cells) {
    let is_own_moved = |v: Vertex| dg.owner_of(v) == rank && cur[v as usize] != prev[v as usize];
    let mut own_moved: Vec<Vertex> = pending.iter().map(|m| m.v).collect();
    own_moved.sort_unstable();
    own_moved.dedup();
    own_moved.retain(|&v| is_own_moved(v));

    // Sized from the moved vertices' arcs: an out-arc charges the share
    // twice and may ship as a cut arc, an in-arc charges it at most twice.
    let local = dg.local();
    let out: usize = own_moved.iter().map(|&v| local.out_edges(v).len()).sum();
    let arcs_in: usize = own_moved.iter().map(|&v| local.in_edges(v).len()).sum();
    let share_room = 2 * (out + arcs_in);
    let mut share = CellFold::with_capacity(share_room);
    let mut cuts = CellFold::with_capacity(out);
    for &v in &own_moved {
        for (d, w) in local.out_edges(v) {
            arc_delta(&mut share, v, d, w, prev, cur);
            if dg.owner_of(d) != rank {
                // Cut arc: the cross term needs it after the gather.
                debug_assert_eq!(cur[d as usize], prev[d as usize]);
                cuts.add(v, d, w);
            }
        }
        for (s, w) in local.in_edges(v) {
            // A self-loop, or an arc from another net-moved owned vertex,
            // was charged by its source's out-arc pass.
            if s != v && !is_own_moved(s) {
                arc_delta(&mut share, s, v, w, prev, cur);
            }
        }
    }
    debug_assert!(
        share.len() <= share_room && cuts.len() <= out,
        "own_share pushed past its sized capacity"
    );
    (share.finish(), cuts.finish())
}

/// One sync point on the sharded plane, in a **single allgather**.
///
/// The shipped buffer has three sections (framed by
/// `concat_sections` with a tiny varint length header): this rank's
/// chronological moves, its share of the matrix delta, and the cut
/// out-arcs of its net-moved vertices. The matrix delta
/// `M(A_next) − M(A_prev)` decomposes per arc `s → d` of weight `w` —
/// writing `p·`/`n·` for the pre-/post-sync labels and `e(r, c)` for a
/// `+w` charge to cell `(r, c)` — as
///
/// ```text
/// e(ns,nd) − e(ps,pd) = [e(ns,pd) − e(ps,pd)]            source term
///                     + [e(ps,nd) − e(ps,pd)]            dest term
///                     + [e(ns,nd) − e(ns,pd)
///                        − e(ps,nd) + e(ps,pd)]          cross term
/// ```
///
/// An arc with both endpoints on one rank is in that rank's share with
/// its exact delta. A cut arc's source term is in the source owner's
/// share and its dest term in the dest owner's — each is a pure function
/// of that rank's **own** moves plus the replicated `A_prev`, which is
/// what lets the share travel in the same buffer as the moves instead of
/// being computed after them. The cross term is nonzero only when *both*
/// endpoints net-moved (necessarily on different ranks, since a vertex
/// moves only on its owner); no single rank can precompute it, so the
/// source owner ships the cut arcs of its moved vertices and *every*
/// rank rebuilds the identical cross terms after the gather, when all
/// endpoint labels are known.
///
/// The replica enters the sync at `M(A_prev + own)` and a rank's share is
/// exactly `M(A_prev + own) − M(A_prev)` (`own_share`), so what is
/// applied is the **sum of the peers' shares** plus the cross terms: the
/// rank's own section of the gather is skipped, never subtracted back
/// out. Integer cell sums are order-independent, so the per-cell deltas —
/// and therefore the whole trajectory — are those of replaying the peer
/// moves one by one. Relabels of peer-moved vertices and block-degree
/// fixes come from the move lists and the ghost-degree table.
///
/// A peer's share arrives as a strictly ascending cell list (the delta
/// coding can carry nothing else), so [`apply_sync`] sums the peers'
/// shares and the folded cross terms by a k-way merge ([`merge_cells`])
/// as it applies them, once every section has passed [`check_section`].
///
/// `prev` is the globally-agreed assignment at the previous sync and is
/// advanced to the new agreement. Returns the total move count. The two
/// halves around the gather are [`sync_payload`] and [`apply_sync`].
fn sharded_sync<C: Communicator>(
    comm: &C,
    dg: &DistGraph,
    bm: &mut Blockmodel,
    prev: &mut [u32],
    pending: &[AcceptedMove],
    xstats: &mut ExchangeStats,
) -> Result<usize, DistError> {
    let rank = comm.rank();
    let payload = sync_payload(dg, rank, prev, bm.assignment(), pending, xstats);
    // The sync point's one collective.
    let payloads = xstats.allgather(comm, payload);
    apply_sync(dg, rank, bm, prev, payloads)
}

/// What `rank` ships at a sharded sync point: its chronological
/// `pending` moves, its share of the matrix delta and the cut out-arcs of
/// its net-moved vertices, framed as one buffer. `cur` is the replica's
/// assignment, `prev` the one agreed at the last sync. The share, the cut
/// arcs and the move buffer are dropped once they are framed, before the
/// gather brings in every peer's.
pub fn sync_payload(
    dg: &DistGraph,
    rank: usize,
    prev: &[u32],
    cur: &[u32],
    pending: &[AcceptedMove],
    xstats: &mut ExchangeStats,
) -> Vec<u8> {
    let (share, cuts) = own_share(dg, rank, prev, cur, pending);
    let moves_buf = encode_moves(pending);
    xstats.record(pending.len(), moves_buf.len());
    concat_sections([&moves_buf, &encode_cells(&share), &encode_cells(&cuts)])
}

/// Applies a sync point's gathered payloads — one per rank, in rank order,
/// each a [`sync_payload`] — to `rank`'s replica `bm`, and advances `prev`
/// to the new agreement. Every section is decoded and
/// checked against the replica before anything is applied, so on an error
/// `bm` and `prev` are as they were. Returns the total move count.
pub fn apply_sync(
    dg: &DistGraph,
    rank: usize,
    bm: &mut Blockmodel,
    prev: &mut [u32],
    payloads: Vec<Vec<u8>>,
) -> Result<usize, DistError> {
    let blocks = bm.num_blocks();
    let mut moves: Vec<AcceptedMove> = Vec::new();
    let mut shares: Vec<Cells> = Vec::with_capacity(payloads.len() + 1);
    let mut all_cuts: Cells = Vec::new();
    // Each frame is dropped once it is decoded.
    for (from, p) in payloads.into_iter().enumerate() {
        let [moves_sec, cells_sec, cuts_sec] = split_sections::<3>(&p)?;
        let section = Section {
            moves: decode_moves(moves_sec)?,
            share: if from == rank {
                Vec::new()
            } else {
                decode_cells(cells_sec)?
            },
            cuts: decode_cells(cuts_sec)?,
        };
        check_section(dg, from, blocks, &section)?;
        moves.extend(section.moves);
        shares.push(section.share);
        all_cuts.extend(section.cuts);
    }

    // The net-moved vertices with their post-sync labels, ascending. A
    // vertex is only ever moved by its owner, so its moves sit in one
    // rank's chronological list: walking the lists backwards, the first
    // entry of a vertex (kept by the stable sort + dedup) is its last move.
    let mut moved: Vec<(Vertex, u32)> = moves.iter().rev().map(|m| (m.v, m.to)).collect();
    moved.sort_by_key(|&(v, _)| v);
    moved.dedup_by_key(|&mut (v, _)| v);
    moved.retain(|&(v, to)| prev[v as usize] != to);
    let next = |v: Vertex| match moved.binary_search_by_key(&v, |&(u, _)| u) {
        Ok(i) => moved[i].1,
        Err(_) => prev[v as usize],
    };

    // Cross terms: every rank rebuilds them identically from the shipped
    // cut arcs plus the now-known global move set.
    let mut cross = CellFold::default();
    for (s, d, w) in all_cuts {
        let (pd, nd) = (prev[d as usize], next(d));
        if pd == nd {
            continue; // dest did not net-move: cross term vanishes
        }
        let (ps, ns) = (prev[s as usize], next(s));
        debug_assert_ne!(ps, ns, "cut arcs ship for net-moved sources only");
        cross.add(ns, nd, w);
        cross.add(ns, pd, -w);
        cross.add(ps, nd, -w);
        cross.add(ps, pd, w);
    }
    shares.push(cross.finish());

    // Peer relabels + degree fixes (own moves already applied in-sweep).
    // The degree deltas fold as a two-column matrix: col 0 out, col 1 in.
    let relabels: Vec<(Vertex, u32)> = moved
        .iter()
        .copied()
        .filter(|&(v, _)| dg.owner_of(v) != rank)
        .collect();
    let mut degrees = CellFold::default();
    for &(v, to) in &relabels {
        let from = prev[v as usize];
        for (col, deg) in [(0, dg.out_degree(v)), (1, dg.in_degree(v))] {
            degrees.add(from, col, -deg);
            degrees.add(to, col, deg);
        }
    }
    bm.apply_dist_sync(
        &relabels,
        merge_cells(shares),
        degrees
            .finish()
            .into_iter()
            .map(|(b, col, deg)| if col == 0 { (b, deg, 0) } else { (b, 0, deg) }),
    );
    for &(v, to) in &moved {
        prev[v as usize] = to;
    }
    Ok(moves.len())
}

/// One rank's decoded sync payload.
struct Section {
    moves: Vec<AcceptedMove>,
    /// Empty for the receiving rank's own section, which is never applied.
    share: Cells,
    cuts: Cells,
}

/// Rejects rank `from`'s decoded section unless a replica of `blocks`
/// blocks can apply it: every vertex below `V` and every block below
/// `blocks`, every move's vertex and cut arc's source owned by `from`
/// — a vertex moves only on its owner, and a replica that owned a vertex
/// a peer claims to move would advance `prev` without relabelling it —
/// and no share cell or cut arc heavier than the graph's total edge weight
/// `E`, which no honest delta of a cell in `[0, E]` can be and which
/// would drive a `u32` cell out of range.
fn check_section(
    dg: &DistGraph,
    from: usize,
    blocks: usize,
    section: &Section,
) -> Result<(), DecodeError> {
    let vertices = dg.num_vertices();
    let total = dg.total_edge_weight().unsigned_abs();
    let heavy = |w: Weight| w.unsigned_abs() > total;
    let out_of_range = |what| Err(DecodeError::ValueOutOfRange { what });
    check_moves(&section.moves, vertices, blocks, from, |v| dg.owner_of(v))?;
    for &(r, c, w) in &section.share {
        if r as usize >= blocks {
            return out_of_range("cell row");
        }
        if c as usize >= blocks {
            return out_of_range("cell col");
        }
        if heavy(w) {
            return out_of_range("cell weight");
        }
    }
    for &(s, d, w) in &section.cuts {
        if s as usize >= vertices || d as usize >= vertices {
            return out_of_range("cut arc endpoint");
        }
        if dg.owner_of(s) != from {
            return out_of_range("cut arc source owner");
        }
        if heavy(w) {
            return out_of_range("cut arc weight");
        }
    }
    Ok(())
}

// ------------------------------------------------------------ data plane

/// The sharded [`EdistData`] plane: sweeps run on the local (owned-only)
/// graph, a blockmodel build from the graph goes through the summed-cell
/// collective (the identity start is already compact, so it is built like
/// any other assignment), and peer moves apply via the cell-delta sync. The control
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
    use super::{dist_blockmodel, own_share, sharded_sync, Cells, ShardedData};
    use crate::distgraph::{load_dist_graph, DistGraph, ShardIngestReport};
    use crate::edist::DistPlane;
    use crate::error::DistError;
    use crate::exchange::{CellFold, ExchangeStats};
    use crate::run::{ShardedBackend, Source};
    use crate::solver::DistSolver;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sbp_core::hybrid::BATCH_CHUNKS;
    use sbp_core::mcmc::AcceptedMove;
    use sbp_core::merge::MergeCandidate;
    use sbp_core::plane::Plane;
    use sbp_core::run::{CancelToken, NoProgress, RunConfig, RunOutcome, Solver};
    use sbp_core::sbp::golden_search;
    use sbp_core::{Blockmodel, McmcStrategy, SbpConfig, StorageKind};
    use sbp_graph::fixtures::two_cliques;
    use sbp_graph::shard::{shard_graph, validate_shard_dir};
    use sbp_graph::{Graph, OwnershipStrategy, Vertex, Weight};
    use sbp_mpi::thread::ThreadComm;
    use sbp_mpi::{Communicator, CostModel, ThreadCluster, Wire};
    use std::cell::{Cell, RefCell};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sharded_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Shards `g` over `ranks` modulo-owned ranks and runs `body` on each
    /// rank's loaded view, inside the cluster.
    fn on_each_rank<T: Send>(
        tag: &str,
        g: &Graph,
        ranks: usize,
        body: impl Fn(&ThreadComm, &DistGraph) -> T + Sync,
    ) -> Vec<T> {
        let dir = temp_dir(tag);
        shard_graph(g, &dir, ranks, OwnershipStrategy::Modulo).unwrap();
        let out = ThreadCluster::run(ranks, CostModel::zero(), |comm: &ThreadComm| {
            body(comm, &load_dist_graph(comm, &dir).expect("load"))
        });
        std::fs::remove_dir_all(&dir).unwrap();
        out.ranks.into_iter().map(|r| r.result).collect()
    }

    /// `arcs` random arcs over `n` vertices — self-loops and repeated
    /// pairs (which `Graph::from_edges` merges into heavier arcs) included.
    fn random_graph(n: u32, arcs: usize, rng: &mut SmallRng) -> Graph {
        let edges: Vec<_> = (0..arcs)
            .map(|_| {
                (
                    rng.random_range(0..n),
                    rng.random_range(0..n),
                    rng.random_range(1..=3i64),
                )
            })
            .collect();
        Graph::from_edges(n as usize, edges)
    }

    /// One rank's moves between two syncs under `sync_period = 3`: three
    /// sweeps over its owned vertices, the first of which is made to move
    /// twice and the second to leave and come back home. Applies them to
    /// `cur` and returns them in order.
    fn three_sweeps_of_own_moves(
        owned: &[Vertex],
        cur: &mut [u32],
        blocks: u32,
        rng: &mut SmallRng,
    ) -> Vec<AcceptedMove> {
        let mut pending = Vec::new();
        for sweep in 0..3u32 {
            for (i, &v) in owned.iter().enumerate() {
                let at = cur[v as usize];
                let to = match (i, sweep) {
                    (0, 0) | (0, 1) | (1, 0) => (at + 1) % blocks,
                    (1, 2) => (at + blocks - 1) % blocks,
                    (0, _) | (1, _) => at,
                    _ => rng.random_range(0..blocks),
                };
                if to != at {
                    cur[v as usize] = to;
                    pending.push(AcceptedMove { v, to });
                }
            }
        }
        pending
    }

    /// The identity that lets a rank skip its own section of the gather:
    /// the share it ships is the difference of its local arcs' matrix
    /// under `cur` and under `prev` — what its in-sweep `move_vertex`
    /// calls already applied. Then the whole sync, cross terms included,
    /// must land every replica on `M(A_next)` — at 3 ranks and at 4, where
    /// the sync merges three peer shares and the cross terms.
    #[test]
    fn own_share_is_the_own_move_difference() {
        const BLOCKS: u32 = 4;
        let mut rng = SmallRng::seed_from_u64(18);
        for (round, ranks) in (0..40).map(|round| (round, 3 + round % 2)) {
            // Vertices 0 and 1 (ranks 0 and 1) both net-move: the arcs
            // between them are cut arcs with a cross term. Self-loops and
            // a repeated pair are planted, not left to chance.
            let mut edges: Vec<(Vertex, Vertex, Weight)> =
                random_graph(12, 40, &mut rng).arcs().collect();
            edges.extend([
                (0, 1, 2),
                (1, 0, 1),
                (0, 0, 1),
                (4, 4, 2),
                (3, 7, 1),
                (3, 7, 1),
            ]);
            let g = Graph::from_edges(12, edges);
            let prev: Vec<u32> = (0..12).map(|_| rng.random_range(0..BLOCKS)).collect();
            let seed = rng.random::<u64>();

            let replicas = on_each_rank(&format!("share{round}"), &g, ranks, |comm, dg| {
                let rank = comm.rank();
                let mut rng = SmallRng::seed_from_u64(seed ^ rank as u64);
                let mut cur = prev.clone();
                let pending = three_sweeps_of_own_moves(dg.owned(), &mut cur, BLOCKS, &mut rng);
                assert_eq!(cur[dg.owned()[1] as usize], prev[dg.owned()[1] as usize]);

                let (share, cuts) = own_share(dg, rank, &prev, &cur, &pending);
                let mut want = CellFold::default();
                for (s, d, w) in dg.local().arcs() {
                    want.add(prev[s as usize], prev[d as usize], -w);
                    want.add(cur[s as usize], cur[d as usize], w);
                }
                assert_eq!(share, want.finish(), "rank {rank} round {round}");
                let mut want_cuts = CellFold::default();
                for (s, d, w) in dg.local().arcs() {
                    let moved = cur[s as usize] != prev[s as usize];
                    if moved && dg.owner_of(s) == rank && dg.owner_of(d) != rank {
                        want_cuts.add(s, d, w);
                    }
                }
                assert_eq!(cuts, want_cuts.finish(), "rank {rank} round {round}");

                // The replica as the sweeps leave it, then the sync.
                let mut bm = Blockmodel::from_assignment(&g, prev.clone(), BLOCKS as usize);
                for m in &pending {
                    bm.move_vertex(dg.local(), m.v, m.to);
                }
                let mut agreed = prev.clone();
                let mut xstats = ExchangeStats::default();
                let moves = sharded_sync(comm, dg, &mut bm, &mut agreed, &pending, &mut xstats)
                    .expect("clean sync");
                bm.validate(&g).expect("replica sits on M(A_next)");
                assert_eq!(bm.assignment(), &agreed[..]);
                (moves, agreed)
            });
            assert!(replicas.windows(2).all(|p| p[0] == p[1]), "round {round}");
            assert_ne!(replicas[0].1[0], prev[0], "vertex 0 net-moved");
            assert_ne!(replicas[0].1[1], prev[1], "vertex 1 net-moved");
        }
    }

    /// Rank 1 ships `crafted` — moves, share and cut arcs in well-formed
    /// sections, so every decoder accepts them — while rank 0 syncs a
    /// replica of `two_cliques(6)` at four blocks (dense storage; vertex
    /// `v` on rank `v % 2`, in block `v % 4`). Rank 0 must come back with a
    /// typed `ValueOutOfRange` naming `what`, its replica and `prev` as they
    /// were.
    fn assert_rejected(tag: &str, crafted: (Vec<AcceptedMove>, Cells, Cells), what: &str) {
        use crate::exchange::{concat_sections, encode_cells, encode_moves};
        use sbp_graph::frame::DecodeError;
        let g = two_cliques(6);
        let labels: Vec<u32> = (0..12).map(|v| v % 4).collect();
        let (moves, share, cuts) = &crafted;
        let payload = concat_sections([
            &encode_moves(moves),
            &encode_cells(share),
            &encode_cells(cuts),
        ]);
        let out = on_each_rank(tag, &g, 2, |comm, dg| {
            if comm.rank() == 1 {
                comm.allgatherv(payload.clone());
                return None;
            }
            let mut bm = Blockmodel::from_assignment(&g, labels.clone(), 4);
            assert_eq!(bm.storage_kind(), StorageKind::Dense);
            let before = bm.clone();
            let mut prev = labels.clone();
            let synced = sharded_sync(
                comm,
                dg,
                &mut bm,
                &mut prev,
                &[],
                &mut ExchangeStats::default(),
            );
            Some((synced, bm.same_state(&before), prev == labels))
        });
        let (synced, replica_kept, prev_kept) = out.into_iter().flatten().next().expect("rank 0");
        match synced {
            Err(DistError::Decode(DecodeError::ValueOutOfRange { what: got })) => {
                assert_eq!(got, what, "{tag}")
            }
            other => panic!("{tag}: expected a typed {what:?} error, got {other:?}"),
        }
        assert!(replica_kept, "{tag}: the replica was touched");
        assert!(prev_kept, "{tag}: prev was advanced");
    }

    /// A move to block C would index past the block-degree table.
    #[test]
    fn a_peer_move_to_a_block_past_the_replica_is_a_typed_error() {
        let moves = vec![AcceptedMove { v: 1, to: 4 }];
        assert_rejected("hostile_target", (moves, vec![], vec![]), "move target");
    }

    /// A share cell in column C of a dense C × C matrix would land on the
    /// next row's first cell, then index past the transpose.
    #[test]
    fn a_peer_share_cell_past_the_replica_is_a_typed_error() {
        assert_rejected("hostile_col", (vec![], vec![(0, 4, 1)], vec![]), "cell col");
        assert_rejected("hostile_row", (vec![], vec![(4, 0, 1)], vec![]), "cell row");
    }

    /// A move of vertex V, or a cut arc reaching it, would index past the
    /// assignment.
    #[test]
    fn a_peer_vertex_past_the_graph_is_a_typed_error() {
        let moves = vec![AcceptedMove { v: 13, to: 0 }];
        assert_rejected("hostile_vertex", (moves, vec![], vec![]), "move vertex");
        let cuts = vec![(1, 12, 1)];
        assert_rejected(
            "hostile_cut_dest",
            (vec![], vec![], cuts),
            "cut arc endpoint",
        );
        let cuts = vec![(13, 0, 1)];
        assert_rejected(
            "hostile_cut_source",
            (vec![], vec![], cuts),
            "cut arc endpoint",
        );
    }

    /// A move of a vertex rank 0 owns: rank 0 would advance `prev` but
    /// never relabel its replica (it owns the vertex, so the move counts as
    /// applied in-sweep), and the replicas would part silently. A cut arc
    /// from a vertex the sender does not own is refused the same way.
    #[test]
    fn a_peer_move_of_a_vertex_it_does_not_own_is_a_typed_error() {
        let moves = vec![AcceptedMove { v: 0, to: 1 }];
        assert_rejected("foreign_move", (moves, vec![], vec![]), "move vertex owner");
        let cuts = vec![(2, 1, 1)];
        assert_rejected(
            "foreign_cut",
            (vec![], vec![], cuts),
            "cut arc source owner",
        );
    }

    /// A share cell or cut arc heavier than the graph's total edge weight
    /// `E` is no honest delta of a cell in `[0, E]`; applied, it would drive
    /// a `u32` cell past its range, or below zero, and panic.
    #[test]
    fn a_peer_weight_past_the_graph_total_is_a_typed_error() {
        let e = two_cliques(6).total_edge_weight();
        let share = vec![(0, 1, e + 1)];
        assert_rejected("heavy_cell", (vec![], share, vec![]), "cell weight");
        let share = vec![(1, 1, -(e + 1))];
        assert_rejected("light_cell", (vec![], share, vec![]), "cell weight");
        let cuts = vec![(1, 0, i64::from(u32::MAX) + 1)];
        assert_rejected("heavy_cut", (vec![], vec![], cuts), "cut arc weight");
    }

    /// A cell that two ranks both charge arrives twice in the gather; the
    /// build must still equal the monolithic one, on either storage.
    #[test]
    fn dist_blockmodel_sums_a_cell_charged_by_two_ranks() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = random_graph(200, 400, &mut rng);
        for (blocks, kind) in [(8u32, StorageKind::Dense), (100, StorageKind::Sparse)] {
            // Vertices 2k and 2k + 1 share a block and, under modulo
            // ownership, sit on different ranks: both ranks charge the
            // block's cells.
            let labels: Vec<u32> = (0..200u32).map(|v| v / 2 % blocks).collect();
            let whole = Blockmodel::from_assignment(&g, labels.clone(), blocks as usize);
            assert_eq!(whole.storage_kind(), kind);
            let built = on_each_rank(&format!("build{blocks}"), &g, 2, |comm, dg| {
                let keys: Vec<(u32, u32)> = super::local_cells(dg, &labels)
                    .iter()
                    .map(|&(r, c, _)| (r, c))
                    .collect();
                let bm = dist_blockmodel(comm, dg, labels.clone(), blocks as usize).expect("ok");
                (keys, bm)
            });
            let (keys0, keys1) = (&built[0].0, &built[1].0);
            assert!(keys0.iter().any(|k| keys1.contains(k)), "no shared cell");
            for (_, bm) in &built {
                assert_eq!(bm.storage_kind(), kind);
                bm.validate(&g)
                    .expect("equals the rebuild from the whole graph");
                assert_eq!(
                    bm.description_length().to_bits(),
                    whole.description_length().to_bits()
                );
            }
        }
    }

    /// A rank's [`DistPlane`] over shards as the golden search drives it,
    /// logging the rank's collective count at every `build` and at every
    /// iteration's merge-candidate gather, and holding each replica the
    /// search hands it — an iteration's start model, the folded model its
    /// MCMC phase opens on — to a monolithic build from the whole graph,
    /// which the test has and the rank does not.
    struct WatchedPlane<'a, C: Communicator> {
        inner: DistPlane<'a, C, ShardedData<'a>>,
        comm: &'a C,
        whole: &'a Graph,
        /// `(the block count of a build, or None at a merge-candidate
        /// gather; collectives issued before the call)`.
        log: RefCell<Vec<(Option<usize>, u64)>>,
        /// Sync points so far.
        syncs: Cell<usize>,
    }

    impl<C: Communicator> WatchedPlane<'_, C> {
        fn note(&self, build: Option<usize>) {
            let at = self.comm.stats().collectives;
            self.log.borrow_mut().push((build, at));
        }

        fn assert_is_monolithic(&self, bm: &Blockmodel) {
            bm.validate(self.whole).expect("replica equals a rebuild");
            let labels = bm.assignment().to_vec();
            let mono = Blockmodel::from_assignment(self.whole, labels, bm.num_blocks());
            assert!(bm.same_state(&mono), "replica at C = {}", bm.num_blocks());
        }
    }

    impl<C: Communicator> Plane for WatchedPlane<'_, C> {
        type Error = DistError;

        fn is_root(&self) -> bool {
            self.inner.is_root()
        }
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }
        fn total_edge_weight(&self) -> i64 {
            self.inner.total_edge_weight()
        }
        fn sweep_graph(&self) -> &Graph {
            self.inner.sweep_graph()
        }
        fn owned_vertices(&self) -> Vec<Vertex> {
            self.inner.owned_vertices()
        }
        fn whole_graph(&self) -> Option<&Graph> {
            self.inner.whole_graph()
        }
        fn build(&self, assignment: Vec<u32>, num_blocks: usize) -> Result<Blockmodel, DistError> {
            self.note(Some(num_blocks));
            self.inner.build(assignment, num_blocks)
        }
        fn merge_candidates(
            &self,
            bm: &Blockmodel,
            proposals_per_block: usize,
            seed: u64,
        ) -> Result<Vec<MergeCandidate>, DistError> {
            self.assert_is_monolithic(bm);
            self.note(None);
            self.inner.merge_candidates(bm, proposals_per_block, seed)
        }
        fn begin_phase(&self, bm: &Blockmodel, prev: &mut Vec<u32>) {
            self.assert_is_monolithic(bm);
            self.inner.begin_phase(bm, prev);
        }
        fn sync(
            &self,
            bm: &mut Blockmodel,
            prev: &mut Vec<u32>,
            pending: &[AcceptedMove],
        ) -> Result<usize, DistError> {
            self.syncs.set(self.syncs.get() + 1);
            self.inner.sync(bm, prev, pending)
        }
        fn agree<T: Clone + Send + Wire + 'static>(
            &self,
            on_root: impl FnOnce() -> T,
        ) -> Result<T, DistError> {
            self.inner.agree(on_root)
        }
        fn clock(&self) -> f64 {
            self.inner.clock()
        }
    }

    /// The collective schedule of a sharded search, pinned per iteration:
    /// from one iteration's merge-candidate allgather up to the next one's,
    /// a rank issues that allgather, the phase's opening DL agreement, per
    /// Batch sweep one allgather per chunk (`BATCH_CHUNKS`) and one
    /// agreement, the next iteration top's cancel agreement — and
    /// nothing else but the cell allgather of each
    /// build, every one of them named: the seed's (C = V), the `mid` of the
    /// probe that establishes the bracket, right after that probe (the
    /// search let it go while halving), and at most one dropped `hi`. Every
    /// replica the search starts from or folds equals the monolithic build
    /// (`WatchedPlane`), on a trajectory that crosses from sparse into
    /// dense storage.
    #[test]
    fn merges_fold_the_replica_without_a_collective() {
        let g = sbp_graph::fixtures::clique_ring(60);
        let n = g.num_vertices();
        let seed_dl =
            Blockmodel::from_assignment(&g, (0..n as u32).collect(), n).description_length();
        for ranks in [2usize, 3] {
            let cfg = RunConfig::from_sbp(SbpConfig {
                seed: 5,
                strategy: McmcStrategy::Batch,
                ..SbpConfig::default()
            });
            let per_rank = on_each_rank(&format!("fold{ranks}"), &g, ranks, |comm, dg| {
                let data = ShardedData { dg };
                let plane = WatchedPlane {
                    inner: DistPlane::new(comm, &data),
                    comm,
                    whole: &g,
                    log: RefCell::default(),
                    syncs: Cell::default(),
                };
                let (out, error) = golden_search(&plane, None, &cfg, 1, &mut NoProgress);
                assert!(error.is_none());
                (plane.log.into_inner(), out)
            });
            let (log, out) = &per_rank[0];
            assert!(
                per_rank.iter().all(|(l, _)| l == log),
                "ranks share a schedule"
            );
            assert!(out.iterations.len() >= 6, "fixture too small");
            assert_eq!(log[0].0, Some(n), "the seed is built first");

            let tops: Vec<usize> = (0..log.len()).filter(|&i| log[i].0.is_none()).collect();
            assert_eq!(tops.len(), out.iterations.len());
            // Every probe before the bracket is established starts from
            // the one before it (or the seed); the first that comes out
            // worse establishes it.
            let before = |k: usize| match k {
                0 => (n, seed_dl),
                _ => (out.iterations[k - 1].num_blocks, out.iterations[k - 1].dl),
            };
            let k = (0..out.iterations.len())
                .find(|&k| out.iterations[k].dl > before(k).1)
                .expect("the bracket is established");
            let mid = before(k).0;
            assert!(
                k + 1 < out.iterations.len(),
                "the search ends at establishment"
            );
            assert_eq!(
                log[tops[k] + 1].0,
                Some(mid),
                "the establishing probe's mid"
            );
            let builds: Vec<usize> = log.iter().filter_map(|&(build, _)| build).collect();
            assert!(builds.len() <= 3, "{ranks} ranks built {builds:?}");
            if let Some(&hi) = builds.get(2) {
                assert!(out.num_blocks < hi && hi < n, "{hi} is no hi");
            }

            for (i, pair) in tops.windows(2).enumerate() {
                let issued = log[pair[1]].1 - log[pair[0]].1;
                let built = (pair[0]..pair[1]).filter(|&j| log[j].0.is_some()).count() as u64;
                let sweeps = out.iterations[i].sweeps as u64;
                let per_sweep = BATCH_CHUNKS as u64 + 1;
                assert_eq!(
                    issued,
                    1 + 1 + per_sweep * sweeps + 1 + built,
                    "{ranks} ranks, iteration {i}"
                );
            }
            let kinds: Vec<bool> = out
                .iterations
                .iter()
                .map(|it| sbp_core::auto_picks_dense(it.num_blocks, g.total_edge_weight()))
                .collect();
            assert!(
                kinds.contains(&false) && kinds.contains(&true),
                "one regime only"
            );
        }
    }

    /// The chunk-boundary rule at `sync_period` 2: a Batch sweep syncs
    /// after each of its `BATCH_CHUNKS` chunks exactly when the sweep ends
    /// in a sync point — every second sweep, and a phase's last — and the
    /// sweeps in between run their chunks on each rank's own moves alone.
    /// The sharded plane still walks the replicated plane's trajectory bit
    /// for bit, at 3 modulo ranks, where each rank owns one chunk and has
    /// nothing to ship at the other two chunks' syncs.
    #[test]
    fn batch_chunks_sync_with_their_sweep_at_sync_period_two() {
        use crate::edist::ReplicatedData;
        use sbp_core::run::{ProgressEvent, ProgressFn};
        let g = sbp_graph::fixtures::clique_ring(60);
        let cfg = RunConfig::from_sbp(SbpConfig {
            seed: 5,
            strategy: McmcStrategy::Batch,
            ..SbpConfig::default()
        });
        let max_sweeps = cfg.sbp.max_sweeps;
        let per_rank = on_each_rank("period2", &g, 3, |comm, dg| {
            let data = ShardedData { dg };
            let plane = WatchedPlane {
                inner: DistPlane::new(comm, &data),
                comm,
                whole: &g,
                log: RefCell::default(),
                syncs: Cell::default(),
            };
            let mut synced = Vec::new();
            let mut sink = ProgressFn(|e: &ProgressEvent| {
                if let ProgressEvent::Sweep { sweep, .. } = e {
                    synced.push(*sweep);
                }
            });
            let (sharded, error) = golden_search(&plane, None, &cfg, 2, &mut sink);
            assert!(error.is_none());
            let replicated = ReplicatedData::new(&g, OwnershipStrategy::Modulo, comm);
            let (mono, error) = golden_search(
                &DistPlane::new(comm, &replicated),
                None,
                &cfg,
                2,
                &mut NoProgress,
            );
            assert!(error.is_none());
            (plane.syncs.get(), synced, sharded, mono)
        });
        let (syncs, synced, sharded, mono) = &per_rank[0];
        assert_eq!(*syncs, BATCH_CHUNKS * synced.len(), "a sync per chunk");
        assert!(synced
            .iter()
            .all(|&s| (s + 1) % 2 == 0 || s + 1 == max_sweeps));
        let sweeps: usize = sharded.iterations.iter().map(|it| it.sweeps).sum();
        assert!(sweeps > synced.len(), "no sweep ran without a sync");
        assert_eq!(sharded.assignment, mono.assignment);
        assert_eq!(
            sharded.description_length.to_bits(),
            mono.description_length.to_bits()
        );
        let trajectory = |out: &RunOutcome| -> Vec<(usize, u64, usize, usize)> {
            out.iterations
                .iter()
                .map(|it| (it.num_blocks, it.dl.to_bits(), it.sweeps, it.moves))
                .collect()
        };
        assert_eq!(trajectory(sharded), trajectory(mono));
    }

    /// Validate-then-run, as every real caller does: one rank per shard.
    fn run(
        dir: &std::path::Path,
        backend: ShardedBackend,
        cfg: &RunConfig,
    ) -> (RunOutcome, ShardIngestReport) {
        let header = validate_shard_dir(dir).expect("coherent shard dir");
        let solver = DistSolver::new(backend, header.shard_count);
        let (outcome, ingest) = solver.run(Source::Shards(dir), cfg, &mut NoProgress);
        (outcome, ingest.expect("sharded ranks report their ingest"))
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
                let mono = DistSolver {
                    ownership: strategy,
                    ..DistSolver::new(ShardedBackend::Edist { sync_period: 1 }, ranks)
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
        // `DistSolver::run`.
        let dir = temp_dir("bad");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(validate_shard_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_rank_count_other_than_the_shard_count_degrades() {
        let g = two_cliques(6);
        let dir = temp_dir("rank_count");
        shard_graph(&g, &dir, 2, OwnershipStrategy::SortedBalanced).unwrap();
        for ranks in [1usize, 3] {
            let solver = DistSolver::new(ShardedBackend::Edist { sync_period: 1 }, ranks);
            let (out, ingest) =
                solver.run(Source::Shards(&dir), &RunConfig::seeded(1), &mut NoProgress);
            assert_eq!(
                out.degraded,
                Some(sbp_core::run::DegradedReason::ShardLoadFailure),
                "{ranks} ranks over 2 shards"
            );
            assert!(out.assignment.is_empty());
            assert!(ingest.is_some());
        }
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
