//! Distributed graph ingest: each rank reads **only its own** `.sbps`
//! shard, exchanges cut edges point-to-point, and ends with exactly the
//! adjacency of the vertices it owns plus a global ("ghost") degree table
//! — the monolithic [`Graph`] never materializes on any rank.
//!
//! ## What a rank holds after loading
//!
//! * `local()` — a [`Graph`] over the **global** vertex id space whose arc
//!   set is exactly the arcs incident to this rank's owned vertices: all
//!   out-arcs come from the rank's own shard (an arc lives in the shard of
//!   its source's owner), and the in-arcs whose source is peer-owned
//!   arrive through one [`Communicator::alltoallv`] cut-edge exchange.
//!   For an owned vertex `v`, `local().out_edges(v)`, `in_edges(v)` and
//!   `degree(v)` are therefore *complete and identical* to the monolithic
//!   graph's — which is precisely the access pattern of every MCMC sweep
//!   and of `Blockmodel::move_vertex` for owned vertices. Ghost vertices
//!   have partial adjacency; the sharded drivers never walk them.
//! * `out_degree(v)` / `in_degree(v)` — the ghost-degree table: global
//!   weighted degrees of **every** vertex (one allgather of `O(V)`
//!   per-owned entries), needed for load-balanced ownership decisions and
//!   for applying peer moves to the replicated block-degree vectors.
//! * `owned()` / `owner_of(v)` — the ownership the shards were planned
//!   under, so a sharded EDiSt run sweeps exactly the vertex sets an
//!   in-memory run with the same strategy would own.
//!
//! The loader runs *inside* the simulated cluster: its collectives are
//! counted by the [`Communicator`]'s byte/makespan accounting, so shard
//! ingest shows up in [`sbp_mpi::ClusterReport`] like any other phase.

use crate::error::DistError;
use sbp_graph::shard::{shard_paths, total_weight, ShardError, ShardReader};
use sbp_graph::{Graph, OwnershipStrategy, Vertex, Weight};
use sbp_mpi::Communicator;
use std::path::Path;

/// Per-cluster summary of a sharded ingest, aggregated over ranks (every
/// rank holds the identical report after loading).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardIngestReport {
    /// Global vertex count.
    pub num_vertices: usize,
    /// Global total edge weight `E`.
    pub total_edge_weight: Weight,
    /// Global distinct arc count (Σ shard edges).
    pub total_arcs: usize,
    /// Largest number of edges any rank read from its shard — the
    /// disk-side peak. Compare with `total_arcs / ranks` for skew.
    pub max_rank_shard_edges: usize,
    /// Largest number of arcs any rank retained after the cut exchange
    /// (shard edges + received cut edges) — the memory-side peak the
    /// "no node holds the whole graph" property is asserted on.
    pub max_rank_local_arcs: usize,
    /// Cut arcs exchanged (arcs whose endpoints have different owners).
    pub total_cut_arcs: usize,
    /// Ranks that participated in the load.
    pub ranks: usize,
}

/// One rank's view of a sharded graph. See the module docs for exactly
/// which queries are global-exact.
#[derive(Clone, Debug)]
pub struct DistGraph {
    local: Graph,
    owned: Vec<Vertex>,
    owner_of: Vec<u32>,
    out_degree: Vec<Weight>,
    in_degree: Vec<Weight>,
    total_edge_weight: Weight,
    strategy: OwnershipStrategy,
    shard_edges: usize,
    report: ShardIngestReport,
}

impl DistGraph {
    /// The local graph: global vertex-id space, arcs incident to owned
    /// vertices only.
    #[inline]
    pub fn local(&self) -> &Graph {
        &self.local
    }

    /// Vertices this rank owns (ascending).
    #[inline]
    pub fn owned(&self) -> &[Vertex] {
        &self.owned
    }

    /// Owner rank of any vertex.
    #[inline]
    pub fn owner_of(&self, v: Vertex) -> usize {
        self.owner_of[v as usize] as usize
    }

    /// Global vertex count.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.local.num_vertices()
    }

    /// Global total edge weight `E`.
    #[inline]
    pub fn total_edge_weight(&self) -> Weight {
        self.total_edge_weight
    }

    /// Global weighted out-degree of any vertex (ghost-degree table).
    #[inline]
    pub fn out_degree(&self, v: Vertex) -> Weight {
        self.out_degree[v as usize]
    }

    /// Global weighted in-degree of any vertex (ghost-degree table).
    #[inline]
    pub fn in_degree(&self, v: Vertex) -> Weight {
        self.in_degree[v as usize]
    }

    /// Global weighted total degree of any vertex.
    #[inline]
    pub fn degree(&self, v: Vertex) -> Weight {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Ownership strategy the shards were planned under.
    #[inline]
    pub fn strategy(&self) -> OwnershipStrategy {
        self.strategy
    }

    /// Edges this rank read from its own shard file.
    #[inline]
    pub fn shard_edges(&self) -> usize {
        self.shard_edges
    }

    /// Arcs this rank retained after the cut exchange.
    #[inline]
    pub fn local_arcs(&self) -> usize {
        self.local.num_arcs()
    }

    /// Cluster-wide ingest report (identical on every rank).
    #[inline]
    pub fn report(&self) -> &ShardIngestReport {
        &self.report
    }
}

/// Loads the shard directory `dir` across the ranks of `comm`: rank `r`
/// reads shard `r`, cut edges are exchanged with one `alltoallv`, and the
/// ghost-degree table is assembled with one allgather. Collective calls
/// must be matched by every rank.
///
/// # Errors
/// I/O and format problems surface as [`DistError::Shard`]; shards that
/// disagree on ownership (the same vertex claimed twice, or a vertex no
/// shard claims) surface as [`DistError::OwnershipOverlap`] /
/// [`DistError::OwnershipGap`]. The shard count must equal `comm.size()`
/// — validate with [`sbp_graph::shard::validate_shard_dir`] *before*
/// spawning the cluster for a friendlier failure path. A failing rank
/// must abandon the collective schedule afterwards (the sharded runner
/// poisons its peers — see `crate::error`). A shard set heavier than
/// [`sbp_graph::MAX_TOTAL_EDGE_WEIGHT`] is a [`DistError::Shard`] too: on
/// a rank whose own arcs already pass the limit, before its local graph is
/// built, and on every rank once the degree table shows the global total
/// does.
pub fn load_dist_graph<C: Communicator>(comm: &C, dir: &Path) -> Result<DistGraph, DistError> {
    let (rank, size) = (comm.rank(), comm.size());
    let paths = shard_paths(dir).map_err(DistError::from)?;
    if paths.len() != size {
        return Err(ShardError::Malformed(format!(
            "{} shards in {} but {} ranks loading",
            paths.len(),
            dir.display(),
            size
        ))
        .into());
    }
    let shard = ShardReader::open(&paths[rank]).map_err(DistError::from)?;
    let header = shard.header().clone();
    if header.shard_index != rank || header.shard_count != size {
        return Err(ShardError::Malformed(format!(
            "{} claims shard {}/{}, expected {}/{}",
            paths[rank].display(),
            header.shard_index,
            header.shard_count,
            rank,
            size
        ))
        .into());
    }
    let n = header.num_vertices;
    let (_, owned, edges) = shard.into_parts();
    let shard_edges = edges.len();

    // Ownership table: every rank learns who owns what (O(V) total).
    let owned_lists = comm.allgatherv(owned.clone());
    let mut owner_of = vec![u32::MAX; n];
    for (r, list) in owned_lists.iter().enumerate() {
        for &v in list {
            if owner_of[v as usize] != u32::MAX {
                return Err(DistError::OwnershipOverlap { vertex: v as usize });
            }
            owner_of[v as usize] = r as u32;
        }
    }
    if let Some(v) = owner_of.iter().position(|&o| o == u32::MAX) {
        return Err(DistError::OwnershipGap { vertex: v });
    }

    // Cut-edge exchange: arc (s, d) lives in owner(s)'s shard; owner(d)
    // needs it as an in-arc. Point-to-point, so no rank sees arcs that are
    // not incident to its owned vertices.
    let mut per_dest: Vec<Vec<(Vertex, Vertex, Weight)>> = vec![Vec::new(); size];
    let mut cut_out = 0usize;
    for &(s, d, w) in &edges {
        let dest = owner_of[d as usize] as usize;
        if dest != rank {
            per_dest[dest].push((s, d, w));
            cut_out += 1;
        }
    }
    let received = comm.alltoallv(per_dest);

    // Local graph: own shard arcs + received cut in-arcs. The sets are
    // disjoint (received arcs have peer-owned sources), so no weight is
    // double-counted by the merge in `Graph::from_edges`.
    let mut local_edges = edges;
    for bucket in received {
        local_edges.extend(bucket);
    }
    total_weight(local_edges.iter().map(|e| e.2))?;
    let local_arcs = local_edges.len();
    let local = Graph::from_edges(n, local_edges);

    // Ghost-degree table: the local graph answers exact degrees for owned
    // vertices (full incident adjacency present); one allgather spreads
    // them to every rank.
    let mine: Vec<(Vertex, Weight, Weight)> = owned
        .iter()
        .map(|&v| (v, local.out_degree(v), local.in_degree(v)))
        .collect();
    let mut out_degree = vec![0 as Weight; n];
    let mut in_degree = vec![0 as Weight; n];
    for (v, dout, din) in comm.allgatherv(mine).into_iter().flatten() {
        out_degree[v as usize] = dout;
        in_degree[v as usize] = din;
    }
    let total_edge_weight = total_weight(out_degree.iter().copied())?;

    // Aggregate the ingest report (integer maxima/sums — identical on
    // every rank without a broadcast).
    let per_rank = comm.allgatherv(vec![(shard_edges, local_arcs, cut_out)]);
    let mut report = ShardIngestReport {
        num_vertices: n,
        total_edge_weight,
        total_arcs: 0,
        max_rank_shard_edges: 0,
        max_rank_local_arcs: 0,
        total_cut_arcs: 0,
        ranks: size,
    };
    for (se, la, co) in per_rank.into_iter().flatten() {
        report.total_arcs += se;
        report.max_rank_shard_edges = report.max_rank_shard_edges.max(se);
        report.max_rank_local_arcs = report.max_rank_local_arcs.max(la);
        report.total_cut_arcs += co;
    }

    Ok(DistGraph {
        local,
        owned,
        owner_of,
        out_degree,
        in_degree,
        total_edge_weight,
        strategy: header.strategy,
        shard_edges,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_graph::fixtures::two_cliques;
    use sbp_graph::shard::shard_graph;
    use sbp_mpi::{CostModel, ThreadCluster};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("distgraph_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn load_cluster(dir: &Path, n: usize) -> Vec<DistGraph> {
        let out = ThreadCluster::run(n, CostModel::zero(), |comm| {
            load_dist_graph(comm, dir).expect("load")
        });
        out.ranks.into_iter().map(|r| r.result).collect()
    }

    #[test]
    fn loaded_view_matches_monolith_for_owned_vertices() {
        let g = two_cliques(8);
        for strategy in [OwnershipStrategy::Modulo, OwnershipStrategy::SortedBalanced] {
            for n in [1usize, 2, 4] {
                let dir = temp_dir(&format!("view_{n}_{}", strategy.code()));
                shard_graph(&g, &dir, n, strategy).unwrap();
                let ranks = load_cluster(&dir, n);
                let expected_parts = strategy.partition(&g, n);
                for (r, dg) in ranks.iter().enumerate() {
                    assert_eq!(dg.owned(), &expected_parts[r][..], "rank {r}");
                    assert_eq!(dg.num_vertices(), g.num_vertices());
                    assert_eq!(dg.total_edge_weight(), g.total_edge_weight());
                    for &v in dg.owned() {
                        assert!(dg.local().out_edges(v).eq(g.out_edges(v)), "out of {v}");
                        assert!(dg.local().in_edges(v).eq(g.in_edges(v)), "in of {v}");
                    }
                    // Ghost-degree table is global-exact for EVERY vertex.
                    for v in 0..g.num_vertices() as Vertex {
                        assert_eq!(dg.out_degree(v), g.out_degree(v));
                        assert_eq!(dg.in_degree(v), g.in_degree(v));
                    }
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn no_rank_holds_the_whole_graph() {
        // Two cliques have almost no cut under balanced ownership... use
        // modulo, which cuts heavily, and still every rank must hold
        // strictly fewer arcs than the monolith once there are 2+ ranks.
        let g = two_cliques(12);
        let dir = temp_dir("bound");
        shard_graph(&g, &dir, 4, OwnershipStrategy::Modulo).unwrap();
        let ranks = load_cluster(&dir, 4);
        let report = ranks[0].report();
        assert_eq!(report.total_arcs, g.num_arcs());
        assert_eq!(report.ranks, 4);
        for dg in &ranks {
            assert_eq!(dg.report(), report, "report must be rank-identical");
            assert!(dg.shard_edges() <= dg.local_arcs());
            assert!(
                dg.local_arcs() < g.num_arcs(),
                "rank holds {} of {} arcs",
                dg.local_arcs(),
                g.num_arcs()
            );
        }
        assert!(report.max_rank_local_arcs < g.num_arcs());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_mismatch_is_an_error() {
        let g = two_cliques(4);
        let dir = temp_dir("mismatch");
        shard_graph(&g, &dir, 3, OwnershipStrategy::Modulo).unwrap();
        let out = ThreadCluster::run(2, CostModel::zero(), |comm| {
            load_dist_graph(comm, &dir).is_err()
        });
        assert!(out.ranks.iter().all(|r| r.result));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
