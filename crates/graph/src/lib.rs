//! # sbp-graph — graph substrate for stochastic block partitioning
//!
//! This crate provides the directed, integer-weighted graph representation
//! used by every other crate in the EDiSt reproduction:
//!
//! * [`Graph`] — an immutable CSR (compressed sparse row) structure holding
//!   both the forward (out-edge) and reverse (in-edge) adjacency, with
//!   weighted degrees precomputed. Parallel edges are merged into integer
//!   weights at construction, matching the micro-canonical edge-count
//!   semantics of the degree-corrected stochastic blockmodel. Each arc is
//!   stored in 8 bytes, a `u32` neighbor and a `u32` weight, and read back
//!   as a `(Vertex, Weight)` pair.
//! * [`io`] — plain edge-list and Matrix Market (SuiteSparse) readers and
//!   writers, so the real SNAP/SuiteSparse graphs evaluated in the paper can
//!   be dropped in when available.
//! * [`subgraph`] — induced subgraphs with old↔new vertex maps, and the
//!   round-robin vertex distribution used by divide-and-conquer SBP.
//! * [`islands`] — the island-vertex census used in Fig. 2 of the paper:
//!   vertices that lose every incident edge under a given data distribution.
//! * [`ownership`] — the modulo / sorted-balanced vertex-ownership schemes
//!   (paper §III-B), shared by the distributed drivers and the shard
//!   planner.
//! * [`varint`] — the zigzag + LEB128 + delta-run codec shared by the
//!   shard format and EDiSt's compressed move exchange.
//! * [`frame`] — the strict-decoding primitives every binary decoder
//!   shares: the one stream frame codec both wire protocols (the TCP
//!   cluster's and the daemon's) speak, the typed [`DecodeError`], and
//!   the varint section framing used by collective payloads.
//! * [`shard`] — the `.sbps` binary edge-shard format: a graph is split
//!   into per-rank shards (each holding the out-edges of one rank's owned
//!   vertices, delta+varint-encoded) so a distributed load never
//!   materializes the whole graph on one node; a rank reads its shard
//!   file with one `std::fs::read` and decodes it eagerly.
//!
//! ## Sharded graph workflow
//!
//! ```no_run
//! use sbp_graph::shard::{shard_graph, unshard_graph, validate_shard_dir};
//! use sbp_graph::{Graph, OwnershipStrategy};
//! use std::path::Path;
//!
//! # fn demo(graph: &Graph) -> Result<(), sbp_graph::shard::ShardError> {
//! // Split into 8 per-rank shards under the paper's balanced scheme.
//! shard_graph(graph, Path::new("shards/"), 8, OwnershipStrategy::SortedBalanced)?;
//! // Cheap pre-flight check (shard count, header coherence).
//! let header = validate_shard_dir(Path::new("shards/"))?;
//! assert_eq!(header.shard_count, 8);
//! // Single-node escape hatch; `sbp_dist::load_dist_graph` is the
//! // scalable per-rank path.
//! let roundtrip = unshard_graph(Path::new("shards/"))?;
//! assert_eq!(&roundtrip, graph);
//! # Ok(()) }
//! ```
//!
//! Vertex ids are `u32` (graphs up to ~4.2 B vertices). Edge weights are
//! `i64` in every API, so sums and signed deltas of them never overflow,
//! but a graph's total edge weight is held to [`MAX_TOTAL_EDGE_WEIGHT`]
//! (`2³² − 1`). So every stored arc and every blockmodel cell — a sum of
//! some of the arcs — fits in 32 bits.

#![forbid(unsafe_code)]

pub mod fixtures;
pub mod frame;
pub mod graph;
pub mod io;
pub mod islands;
pub mod ownership;
pub mod shard;
pub mod subgraph;
pub mod varint;

pub use frame::DecodeError;
pub use graph::{add_edge_weight, EdgeDelta, Graph, GraphDeltaError, MAX_TOTAL_EDGE_WEIGHT};
pub use islands::{island_count, island_fraction_round_robin, IslandReport};
pub use ownership::{balanced_ownership, modulo_ownership, OwnershipStrategy};
pub use shard::{shard_graph, ShardPlan, ShardReader, ShardWriter};
pub use subgraph::{induced_subgraph, round_robin_parts, InducedSubgraph};

/// Vertex identifier type used across the workspace.
pub type Vertex = u32;
/// Edge-weight / edge-count type used across the workspace.
pub type Weight = i64;
