//! `sbp-serve` — a resident partition server for SBP with incremental
//! re-partitioning over a strict binary wire protocol.
//!
//! The one-shot CLI re-solves from `C = V` on every invocation, which
//! is the wrong shape for a graph that changes a little at a time. This
//! crate keeps the solved state resident:
//!
//! - [`server::Server`] loads a graph once (monolithic edge list or a
//!   `.sbps` shard directory, via `edist-cli serve`), solves it cold — or
//!   restores a PR 6 `.sbpc` checkpoint — and then holds the best
//!   partition warm in memory.
//! - [`protocol`] binds the workspace's checksummed frame codec
//!   ([`sbp_graph::frame`], the TCP cluster's frame) to the daemon's tag
//!   and seed, and defines the request types (`Ingest`, `Repartition`,
//!   `Membership`, `Stats`, `Checkpoint`, `Shutdown`, `Metrics`) as
//!   [`sbp_mpi::Wire`] values, the codec of every cluster payload. Every
//!   decoder is strict: explicit size limits, canonical encodings, typed
//!   [`protocol::FrameError`]s and [`protocol::DecodeError`]s, and no
//!   panics on arbitrary bytes — the same hostile-input contract the rest
//!   of the workspace holds itself to.
//! - [`client::Client`] is the blocking counterpart used by
//!   `edist-cli connect` and the test suites, including a raw-bytes
//!   escape hatch for malformed-frame probes.
//!
//! Incremental re-partitioning is the point: `Ingest` queues signed
//! edge-weight deltas without touching the warm partition (membership
//! queries keep answering), and a warm `Repartition` applies the batch,
//! folds it into the blockmodel the server keeps resident
//! ([`sbp_core::Blockmodel::fold_edge_deltas`], O(deltas), no graph walk),
//! seeds the golden-ratio bracket from that model via
//! [`sbp_core::WarmStart::from_model`], and confines MCMC sweeps to the
//! vertices within one hop of the changed edges ([`server::dirty_set`])
//! while description length stays exact over the full blockmodel. The
//! search hands back the model of its result, which stays resident for
//! the next round. The model is built from the graph only at start-up,
//! on `--resume`, after a solve that hands none back, and in a warm round
//! whose deltas move `(C, E)` across [`sbp_core::auto_picks_dense`] (see
//! [`server`]). A cold `Repartition` falls back to the full `C = V`
//! search. Backends resolve by name through the [`server::Resolver`]
//! the server is built with (the `edist` facade's `default_registry`,
//! which knows every `--backend` name); warm mode is refused with a typed
//! error for backends that do not support it.

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{Request, Response};
pub use server::{
    dirty_set, serve, Listen, Resolver, ServeError, Server, ServerOptions, CONNECTION_IO_TIMEOUT,
};
