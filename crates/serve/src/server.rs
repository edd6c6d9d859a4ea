//! The resident partition daemon.
//!
//! A [`Server`] loads a graph once, solves it cold (or restores a
//! `.sbpc` snapshot), and then holds the blockmodel of its best partition
//! resident while serving [`Request`]s over a unix or TCP socket. Edge
//! deltas queue on ingest and apply at the next `Repartition`; membership
//! and stats queries answer from the resident partition immediately, so
//! ingest never blocks reads. A warm repartition folds the applied deltas
//! into the resident model ([`Blockmodel::fold_edge_deltas`], O(deltas)),
//! seeds the golden search from it without walking the graph, and sweeps
//! only vertices within one hop of the deltas ([`dirty_set`]); a cold one
//! re-runs from `C = V`. The search hands back the model of the partition
//! it settles on, which stays resident for the next round.
//!
//! The model is built from the graph once on each of these paths: at
//! start-up (the cold solve's seed), on `--resume` (from the snapshot's
//! partition), after a solve that hands no model back (DC-SBP, or a
//! search that let it go), and in the warm round whose deltas move
//! `(C, E)` across [`sbp_core::auto_picks_dense`] (the search builds its
//! seed, as a cold one does). `sbp_solver_graph_builds_total` counts
//! every one of them.
//!
//! A malformed frame gets a typed error reply and closes that
//! connection; the daemon itself survives and keeps accepting.

use crate::protocol::{
    encode_frame, error_code, read_frame, FrameError, RepartitionMode, Request, Response,
    StatsReply, TrajectoryPoint, MAX_DELTAS, MAX_TRAJECTORY,
};
use sbp_core::checkpoint::CheckpointState;
use sbp_core::golden::BracketEntry;
use sbp_core::run::{NoProgress, RunConfig, RunOutcome, Solver, WarmStart};
use sbp_core::sbp::build_model;
use sbp_core::{Blockmodel, IterationStat};
use sbp_graph::{EdgeDelta, Graph, Vertex};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where the daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Listen {
    /// A unix-domain socket at this path (removed and re-bound if a
    /// stale socket file exists).
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7171`.
    Tcp(String),
}

impl Listen {
    /// Parses `unix:PATH` or `tcp:ADDR`.
    pub fn parse(s: &str) -> Result<Self, ServeError> {
        if let Some(path) = s.strip_prefix("unix:") {
            Ok(Listen::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Ok(Listen::Tcp(addr.to_string()))
        } else {
            Err(ServeError::Config(format!(
                "listen address '{s}' must start with unix: or tcp:"
            )))
        }
    }
}

/// Why the daemon failed to start or stopped.
#[derive(Debug)]
pub enum ServeError {
    /// Bad daemon configuration (unknown backend, bad listen address…).
    Config(String),
    /// Graph load failed.
    GraphLoad(String),
    /// A `--resume` snapshot failed to load or decode.
    CheckpointLoad(String),
    /// A `--resume` snapshot does not match the loaded graph — e.g. the
    /// snapshot was written after edge deltas the current graph file
    /// never saw. Refusing is the contract: a typed error, never a
    /// silently wrong answer.
    CheckpointMismatch(String),
    /// Socket-level I/O failure while binding or accepting.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "config error: {m}"),
            ServeError::GraphLoad(m) => write!(f, "graph load failed: {m}"),
            ServeError::CheckpointLoad(m) => write!(f, "checkpoint load failed: {m}"),
            ServeError::CheckpointMismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Builds the solver a backend name stands for, on `ranks` ranks with
/// `sync_period` sweeps between EDiSt's move exchanges; the error names
/// what is wrong with the name or the two numbers.
pub type Resolver = fn(&str, usize, usize) -> Result<Box<dyn Solver>, String>;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Default backend name, resolved through the server's [`Resolver`].
    pub backend: String,
    /// Ranks of a distributed backend.
    pub ranks: usize,
    /// Sweeps between EDiSt's move exchanges.
    pub sync_period: usize,
    /// Master seed for every solve the daemon runs.
    pub seed: u64,
    /// Restore state from this `.sbpc` snapshot instead of solving cold
    /// at startup.
    pub resume: Option<PathBuf>,
    /// Write a `.sbpc` snapshot here on graceful shutdown.
    pub checkpoint_on_shutdown: Option<PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            backend: "sequential".into(),
            ranks: 1,
            sync_period: 1,
            seed: 0,
            resume: None,
            checkpoint_on_shutdown: None,
        }
    }
}

/// The vertices within one hop of a delta batch, on the mutated graph:
/// every delta endpoint plus its current in- and out-neighbors. This is
/// the dirty set a warm repartition sweeps — exactly the vertices whose
/// best block may have changed, while the DL is still evaluated over
/// the full blockmodel.
pub fn dirty_set(graph: &Graph, deltas: &[EdgeDelta]) -> Vec<Vertex> {
    let n = graph.num_vertices();
    let mut dirty: Vec<Vertex> = Vec::new();
    for d in deltas {
        for v in [d.src, d.dst] {
            if (v as usize) >= n {
                continue;
            }
            dirty.push(v);
            dirty.extend(graph.out_edges(v).map(|(u, _)| u));
            dirty.extend(graph.in_edges(v).map(|(u, _)| u));
        }
    }
    dirty.sort_unstable();
    dirty.dedup();
    dirty
}

/// The resident server: graph, the blockmodel of the warm partition,
/// pending deltas, and the [`Resolver`] every `Repartition` resolves
/// backends through.
pub struct Server {
    graph: Graph,
    /// The model of the current partition over `graph`, as of the last
    /// repartition (pending deltas are not in it). A warm round folds its
    /// deltas in and hands it to the search; between rounds nothing else
    /// holds it.
    model: Arc<Blockmodel>,
    dl: f64,
    trajectory: Vec<IterationStat>,
    pending: Vec<EdgeDelta>,
    degraded: u8,
    options: ServerOptions,
    resolve: Resolver,
    started: std::time::Instant,
    ingests: u64,
    repartitions: u64,
}

/// The `kind` label of a request in the daemon's metrics.
fn request_kind(req: &Request) -> &'static str {
    match req {
        Request::Ingest(_) => "ingest",
        Request::Repartition { .. } => "repartition",
        Request::Membership(_) => "membership",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Checkpoint(_) => "checkpoint",
        Request::Shutdown => "shutdown",
    }
}

fn degraded_byte(reason: Option<sbp_core::DegradedReason>) -> u8 {
    match reason {
        None => 0,
        Some(sbp_core::DegradedReason::RankFailure) => 1,
        Some(sbp_core::DegradedReason::DecodeFailure) => 2,
        Some(sbp_core::DegradedReason::ShardLoadFailure) => 3,
    }
}

impl Server {
    /// Builds a server over `graph`: resolves the default backend, then
    /// either restores the `--resume` snapshot (validating its graph
    /// fingerprint) or runs the initial cold solve.
    pub fn new(
        graph: Graph,
        options: ServerOptions,
        resolve: Resolver,
    ) -> Result<Self, ServeError> {
        let solver = resolve(&options.backend, options.ranks, options.sync_period)
            .map_err(ServeError::Config)?;
        let started = std::time::Instant::now();
        let mut outcome = match &options.resume {
            Some(path) => restore(&graph, path)?,
            None => solver.solve(&graph, &RunConfig::seeded(options.seed), &mut NoProgress),
        };
        Ok(Server {
            model: model_of(&graph, &mut outcome),
            graph,
            dl: outcome.description_length,
            trajectory: outcome.iterations,
            pending: Vec::new(),
            degraded: degraded_byte(outcome.degraded),
            options,
            resolve,
            started,
            ingests: 0,
            repartitions: 0,
        })
    }

    fn solver(&self, backend: &str) -> Result<Box<dyn Solver>, String> {
        let name = if backend.is_empty() {
            &self.options.backend
        } else {
            backend
        };
        (self.resolve)(name, self.options.ranks, self.options.sync_period)
    }

    fn adopt(&mut self, mut outcome: RunOutcome) {
        self.model = model_of(&self.graph, &mut outcome);
        self.dl = outcome.description_length;
        self.trajectory.extend(outcome.iterations);
        self.degraded = degraded_byte(outcome.degraded);
    }

    /// Packs the current server state into a `.sbpc` snapshot: the warm
    /// partition as the bracket's `mid`, the fingerprint of the current
    /// (post-delta) graph, and the accumulated trajectory.
    pub fn checkpoint_state(&self) -> CheckpointState {
        let entry = BracketEntry {
            assignment: self.model.assignment().to_vec(),
            num_blocks: self.model.num_blocks(),
            dl: self.dl,
        };
        CheckpointState {
            seed: self.options.seed,
            strategy_tag: 0,
            num_vertices: self.graph.num_vertices() as u64,
            total_edge_weight: self.graph.total_edge_weight().max(0) as u64,
            next_iter: self.trajectory.len() as u64,
            iterations: self.trajectory.clone(),
            hi: Some(entry.clone()),
            mid: Some(entry),
            lo: None,
        }
    }

    /// Current warm assignment (for tests and in-process embedding).
    pub fn assignment(&self) -> &[u32] {
        self.model.assignment()
    }

    /// Current block count.
    pub fn num_blocks(&self) -> usize {
        self.model.num_blocks()
    }

    /// The resident blockmodel of the current partition, over the graph
    /// as of the last repartition.
    pub fn model(&self) -> &Blockmodel {
        &self.model
    }

    /// Current description length.
    pub fn description_length(&self) -> f64 {
        self.dl
    }

    /// Edge deltas queued but not yet applied.
    pub fn pending_deltas(&self) -> usize {
        self.pending.len()
    }

    /// The resident graph (post any applied deltas).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Handles one request against the in-memory state. Returns the
    /// reply and whether the server should shut down afterwards. Pure
    /// state machine — the socket loop and tests share it.
    ///
    /// Counts the request by kind (`sbp_daemon_requests_total{kind}`) and
    /// times it (`sbp_daemon_request_seconds{kind}`: from the decoded
    /// request to the reply, the frame codec and socket excluded) —
    /// observe-only, the handler never reads either back.
    pub fn handle(&mut self, req: Request) -> (Response, bool) {
        let kind = request_kind(&req);
        if !sbp_metrics::enabled() {
            return self.serve_request(req);
        }
        sbp_metrics::counter(&sbp_metrics::labeled(
            "sbp_daemon_requests_total",
            "kind",
            kind,
        ))
        .inc();
        let started = std::time::Instant::now();
        let reply = self.serve_request(req);
        sbp_metrics::histogram(
            &sbp_metrics::labeled("sbp_daemon_request_seconds", "kind", kind),
            &sbp_metrics::TIME_BUCKETS,
        )
        .observe(started.elapsed().as_secs_f64());
        reply
    }

    fn serve_request(&mut self, req: Request) -> (Response, bool) {
        match req {
            Request::Ingest(deltas) => {
                let n = self.graph.num_vertices();
                for d in &deltas {
                    if (d.src as usize) >= n || (d.dst as usize) >= n {
                        return (
                            Response::Error {
                                code: error_code::BAD_DELTA,
                                message: format!(
                                    "delta endpoint out of range for {n} vertices: ({}, {})",
                                    d.src, d.dst
                                ),
                            },
                            false,
                        );
                    }
                }
                // The queue holds what one request may carry, no more: a
                // client that only ingests cannot grow the daemon without
                // bound.
                if self.pending.len() + deltas.len() > MAX_DELTAS {
                    return (
                        Response::Error {
                            code: error_code::BUSY,
                            message: format!(
                                "{} pending deltas plus {} would pass the limit {MAX_DELTAS}; \
                                 repartition first",
                                self.pending.len(),
                                deltas.len()
                            ),
                        },
                        false,
                    );
                }
                self.pending.extend(deltas);
                self.ingests += 1;
                if sbp_metrics::enabled() {
                    sbp_metrics::counter("sbp_daemon_ingests_total").inc();
                }
                (
                    Response::IngestAck {
                        pending_deltas: self.pending.len() as u64,
                    },
                    false,
                )
            }
            Request::Repartition { mode, backend } => (self.repartition(mode, &backend), false),
            Request::Membership(ids) => {
                let n = self.graph.num_vertices();
                if let Some(&bad) = ids.iter().find(|&&v| (v as usize) >= n) {
                    return (
                        Response::Error {
                            code: error_code::BAD_VERTEX,
                            message: format!("vertex {bad} out of range for {n} vertices"),
                        },
                        false,
                    );
                }
                let labels = ids.iter().map(|&v| self.model.block_of(v)).collect();
                (Response::Membership(labels), false)
            }
            Request::Stats => {
                let tail_start = self.trajectory.len().saturating_sub(MAX_TRAJECTORY);
                let trajectory_tail = self.trajectory[tail_start..]
                    .iter()
                    .map(|s| TrajectoryPoint {
                        num_blocks: s.num_blocks as u64,
                        dl: s.dl,
                    })
                    .collect();
                (
                    Response::Stats(StatsReply {
                        num_vertices: self.graph.num_vertices() as u64,
                        num_blocks: self.model.num_blocks() as u64,
                        dl: self.dl,
                        pending_deltas: self.pending.len() as u64,
                        degraded: self.degraded,
                        trajectory_tail,
                        backend: self.options.backend.clone(),
                        uptime_seconds: self.started.elapsed().as_secs_f64(),
                        ingests: self.ingests,
                        repartitions: self.repartitions,
                    }),
                    false,
                )
            }
            Request::Metrics => {
                if sbp_metrics::enabled() {
                    sbp_metrics::gauge("sbp_daemon_uptime_seconds")
                        .set(self.started.elapsed().as_secs_f64());
                }
                let snap = sbp_metrics::snapshot();
                (
                    Response::Metrics {
                        snapshot_json: snap.to_json().to_string(),
                        prometheus: snap.prometheus(),
                    },
                    false,
                )
            }
            Request::Checkpoint(path) => {
                let state = self.checkpoint_state();
                match state.write_to(Path::new(&path)) {
                    Ok(()) => (
                        Response::CheckpointDone {
                            bytes: state.encode().len() as u64,
                        },
                        false,
                    ),
                    Err(e) => (
                        Response::Error {
                            code: error_code::CHECKPOINT,
                            message: format!("checkpoint write to '{path}' failed: {e}"),
                        },
                        false,
                    ),
                }
            }
            Request::Shutdown => {
                if let Some(path) = self.options.checkpoint_on_shutdown.clone() {
                    let _ = self.checkpoint_state().write_to(&path);
                }
                (Response::ShutdownAck, true)
            }
        }
    }

    fn repartition(&mut self, mode: RepartitionMode, backend: &str) -> Response {
        let solver = match self.solver(backend) {
            Ok(s) => s,
            Err(message) => {
                return Response::Error {
                    code: error_code::BAD_BACKEND,
                    message,
                }
            }
        };
        if mode == RepartitionMode::Warm && !solver.supports_warm_start() {
            return Response::Error {
                code: error_code::WARM_UNSUPPORTED,
                message: format!("backend '{}' does not support warm starts", solver.name()),
            };
        }
        // Apply the pending batch. All-or-nothing: on failure the graph
        // and partition are untouched, and the batch is dropped so one
        // poisoned delta cannot wedge every future repartition.
        let deltas = std::mem::take(&mut self.pending);
        if let Err(e) = self.graph.apply_edge_deltas(&deltas) {
            return Response::Error {
                code: error_code::BAD_DELTA,
                message: format!("{e}; {} pending deltas discarded", deltas.len()),
            };
        }
        let mut cfg = RunConfig::seeded(self.options.seed);
        let swept_vertices;
        match mode {
            RepartitionMode::Warm => {
                // The batch folds into the resident model, the search's
                // seed; where it moves the storage pick, the search
                // builds the seed from the graph instead.
                let mut warm = if Arc::make_mut(&mut self.model).fold_edge_deltas(&deltas) {
                    WarmStart::from_model(Arc::clone(&self.model))
                } else {
                    WarmStart::new(self.model.assignment().to_vec(), self.model.num_blocks())
                };
                if deltas.is_empty() {
                    // Nothing changed: a full polish pass, not a no-op.
                    swept_vertices = self.graph.num_vertices() as u64;
                } else {
                    let dirty = dirty_set(&self.graph, &deltas);
                    swept_vertices = dirty.len() as u64;
                    warm = warm.with_dirty(dirty);
                }
                cfg = cfg.warm_start(warm);
            }
            RepartitionMode::Cold => {
                swept_vertices = self.graph.num_vertices() as u64;
            }
        }
        let outcome = solver.solve(&self.graph, &cfg, &mut NoProgress);
        let iterations = outcome.iterations.len() as u64;
        self.adopt(outcome);
        self.repartitions += 1;
        if sbp_metrics::enabled() {
            sbp_metrics::counter("sbp_daemon_repartitions_total").inc();
        }
        Response::RepartitionDone {
            num_blocks: self.model.num_blocks() as u64,
            dl: self.dl,
            iterations,
            swept_vertices,
        }
    }
}

/// The model of a solve's partition: the one the search handed back,
/// else built from `graph` (and counted).
fn model_of(graph: &Graph, outcome: &mut RunOutcome) -> Arc<Blockmodel> {
    let model = outcome
        .model
        .take()
        .unwrap_or_else(|| build_model(graph, outcome.assignment.clone(), outcome.num_blocks));
    Arc::new(model)
}

/// The partition a `.sbpc` snapshot holds, as the outcome of the solve
/// that wrote it, once its fingerprint matches `graph`.
fn restore(graph: &Graph, path: &Path) -> Result<RunOutcome, ServeError> {
    let state =
        CheckpointState::read_from(path).map_err(|e| ServeError::CheckpointLoad(e.to_string()))?;
    let total_edge_weight = graph.total_edge_weight().max(0) as u64;
    if let Some(reason) = state.graph_mismatch(graph.num_vertices(), total_edge_weight) {
        return Err(ServeError::CheckpointMismatch(reason));
    }
    let mid = state
        .mid
        .ok_or_else(|| ServeError::CheckpointLoad("snapshot has no best partition entry".into()))?;
    Ok(RunOutcome {
        assignment: mid.assignment,
        num_blocks: mid.num_blocks,
        description_length: mid.dl,
        iterations: state.iterations,
        ..RunOutcome::empty()
    })
}

// -------------------------------------------------------- socket plumbing

fn write_response<W: Write>(stream: &mut W, resp: &Response) -> std::io::Result<()> {
    stream.write_all(&encode_frame(&resp.encode()))?;
    stream.flush()
}

/// Serves one connection: a loop of frame → request → reply. Returns
/// true if a `Shutdown` request was honoured. A malformed frame gets an
/// error reply and closes this connection only. Requests are read
/// through a buffer, replies written straight to the socket.
fn serve_connection<S: Read + Write>(server: &mut Server, stream: &mut S) -> bool {
    let mut stream = BufReader::new(stream);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return false,
            // Socket failure or an expired read timeout: drop the
            // connection without a reply.
            Err(FrameError::Io(_)) => return false,
            Err(e) => {
                let _ = write_response(
                    stream.get_mut(),
                    &Response::Error {
                        code: error_code::MALFORMED,
                        message: format!("malformed frame: {e}"),
                    },
                );
                return false;
            }
        };
        let (resp, shutdown) = match Request::decode(&payload) {
            Ok(req) => server.handle(req),
            Err(wire) => (
                Response::Error {
                    code: error_code::MALFORMED,
                    message: format!("malformed request: {wire}"),
                },
                false,
            ),
        };
        if write_response(stream.get_mut(), &resp).is_err() {
            return false;
        }
        if shutdown {
            return true;
        }
    }
}

/// Read and write timeout of every accepted connection. The daemon
/// serves one connection at a time, so a peer that connects and sends
/// nothing, stalls inside a frame, or never drains its replies would
/// otherwise block every other client forever; after this long without
/// progress on a single read or write the connection is dropped. It
/// bounds each *gap*, not a request: a slow solve is the daemon's own
/// time, and a client idle between requests for longer simply
/// reconnects. A constant, not an option — no deployment needs a stalled
/// peer to be waited on.
pub const CONNECTION_IO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Serves accepted connections one after the other until a `Shutdown`
/// request is honoured. `bound` sets a connection's read and write
/// timeouts; one that cannot be bounded is not served.
fn accept_loop<S: Read + Write>(
    server: &mut Server,
    incoming: impl Iterator<Item = std::io::Result<S>>,
    bound: impl Fn(&S, Option<std::time::Duration>) -> std::io::Result<()>,
) {
    let timeout = Some(CONNECTION_IO_TIMEOUT);
    for mut stream in incoming.flatten() {
        if bound(&stream, timeout).is_ok() && serve_connection(server, &mut stream) {
            break;
        }
    }
}

/// Binds the listener and serves connections sequentially until a
/// `Shutdown` request arrives. `on_ready` runs once the socket is bound
/// and accepting — `edist-cli serve` prints its "listening" line there.
pub fn serve(
    server: &mut Server,
    listen: &Listen,
    on_ready: impl FnOnce(&Listen),
) -> Result<(), ServeError> {
    match listen {
        Listen::Unix(path) => {
            if path.exists() {
                let _ = std::fs::remove_file(path);
            }
            let listener = std::os::unix::net::UnixListener::bind(path)?;
            on_ready(listen);
            accept_loop(server, listener.incoming(), |s, t| {
                s.set_read_timeout(t).and(s.set_write_timeout(t))
            });
            let _ = std::fs::remove_file(path);
        }
        Listen::Tcp(addr) => {
            let listener = std::net::TcpListener::bind(addr.as_str())?;
            on_ready(listen);
            accept_loop(server, listener.incoming(), |s, t| {
                s.set_read_timeout(t).and(s.set_write_timeout(t))
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_core::run::SingleNode;
    use sbp_core::McmcStrategy;
    use sbp_dist::{DistSolver, ShardedBackend};
    use sbp_graph::fixtures::two_cliques;

    /// The two names these tests solve with; the facade's
    /// `default_registry` knows every backend.
    fn default_registry() -> Resolver {
        |name, ranks, sync_period| -> Result<Box<dyn Solver>, String> {
            match name {
                "sequential" => Ok(Box::new(SingleNode(McmcStrategy::MetropolisHastings))),
                "edist" => Ok(Box::new(DistSolver::new(
                    ShardedBackend::Edist { sync_period },
                    ranks,
                ))),
                other => Err(format!("unknown backend '{other}'")),
            }
        }
    }

    fn test_server(seed: u64) -> Server {
        let options = ServerOptions {
            seed,
            ..ServerOptions::default()
        };
        Server::new(two_cliques(8), options, default_registry()).unwrap()
    }

    #[test]
    fn startup_solves_cold_and_answers_membership() {
        let mut s = test_server(3);
        assert_eq!(s.num_blocks(), 2);
        let (resp, shutdown) = s.handle(Request::Membership(vec![0, 8, 15]));
        assert!(!shutdown);
        match resp {
            Response::Membership(labels) => {
                assert_eq!(labels.len(), 3);
                assert_eq!(labels[1], labels[2]);
                assert_ne!(labels[0], labels[1]);
            }
            other => panic!("expected Membership, got {other:?}"),
        }
    }

    #[test]
    fn ingest_queues_without_blocking_reads() {
        let mut s = test_server(3);
        let before = s.assignment().to_vec();
        let (resp, _) = s.handle(Request::Ingest(vec![EdgeDelta {
            src: 0,
            dst: 9,
            delta: 1,
        }]));
        assert_eq!(resp, Response::IngestAck { pending_deltas: 1 });
        // Membership still answers from the warm partition.
        let (resp, _) = s.handle(Request::Membership(vec![0]));
        assert_eq!(resp, Response::Membership(vec![before[0]]));
        // Stats reports the pending depth.
        let (resp, _) = s.handle(Request::Stats);
        match resp {
            Response::Stats(stats) => {
                assert_eq!(stats.pending_deltas, 1);
                assert_eq!(stats.num_blocks, 2);
                assert_eq!(stats.degraded, 0);
                assert!(!stats.trajectory_tail.is_empty());
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        assert_eq!(s.assignment(), &before[..]);
    }

    #[test]
    fn warm_repartition_applies_deltas() {
        let mut s = test_server(5);
        // Intra-clique delta: the one-hop dirty set is clique 1 only.
        let (_, _) = s.handle(Request::Ingest(vec![EdgeDelta {
            src: 2,
            dst: 3,
            delta: 1,
        }]));
        let e_before = s.graph().total_edge_weight();
        let (resp, _) = s.handle(Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: String::new(),
        });
        match resp {
            Response::RepartitionDone {
                num_blocks,
                swept_vertices,
                ..
            } => {
                assert_eq!(num_blocks, 2);
                // One-hop dirty set, not the whole graph.
                assert!(swept_vertices < 16, "swept {swept_vertices}");
                assert!(swept_vertices >= 2);
            }
            other => panic!("expected RepartitionDone, got {other:?}"),
        }
        assert_eq!(s.graph().total_edge_weight(), e_before + 1);
        assert_eq!(s.pending_deltas(), 0);
    }

    #[test]
    fn bad_deltas_get_typed_errors_and_server_survives() {
        let mut s = test_server(1);
        // Out-of-range endpoint rejected at ingest.
        let (resp, _) = s.handle(Request::Ingest(vec![EdgeDelta {
            src: 99,
            dst: 0,
            delta: 1,
        }]));
        assert!(matches!(
            resp,
            Response::Error {
                code: error_code::BAD_DELTA,
                ..
            }
        ));
        // Over-removal rejected at repartition; batch dropped.
        let (_, _) = s.handle(Request::Ingest(vec![EdgeDelta {
            src: 0,
            dst: 1,
            delta: -100,
        }]));
        let (resp, _) = s.handle(Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: String::new(),
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: error_code::BAD_DELTA,
                ..
            }
        ));
        assert_eq!(s.pending_deltas(), 0);
        // Still serving.
        let (resp, _) = s.handle(Request::Stats);
        assert!(matches!(resp, Response::Stats(_)));
    }

    #[test]
    fn an_ingest_past_the_queue_limit_is_busy_and_changes_nothing() {
        let mut s = test_server(2);
        let half = vec![
            EdgeDelta {
                src: 0,
                dst: 1,
                delta: 1,
            };
            MAX_DELTAS / 2 + 1
        ];
        let (resp, _) = s.handle(Request::Ingest(half.clone()));
        assert_eq!(
            resp,
            Response::IngestAck {
                pending_deltas: half.len() as u64
            }
        );
        let stats = |s: &mut Server| match s.handle(Request::Stats).0 {
            Response::Stats(stats) => (stats.pending_deltas, stats.ingests, stats.repartitions),
            other => panic!("expected Stats, got {other:?}"),
        };
        let before = (s.graph().clone(), stats(&mut s));
        let (resp, shutdown) = s.handle(Request::Ingest(half.clone()));
        assert!(!shutdown);
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: error_code::BUSY,
                    ..
                }
            ),
            "{resp:?}"
        );
        assert_eq!(s.pending_deltas(), half.len());
        assert_eq!((s.graph().clone(), stats(&mut s)), before);
        // A repartition drains the queue; the daemon keeps serving.
        let (resp, _) = s.handle(Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: String::new(),
        });
        assert!(matches!(resp, Response::RepartitionDone { .. }), "{resp:?}");
        assert_eq!(s.pending_deltas(), 0);
        let (resp, _) = s.handle(Request::Ingest(half.clone()));
        assert_eq!(
            resp,
            Response::IngestAck {
                pending_deltas: half.len() as u64
            }
        );
    }

    #[test]
    fn warm_rejected_for_backends_without_support() {
        let mut s = test_server(1);
        let (resp, _) = s.handle(Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: "edist".into(),
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: error_code::WARM_UNSUPPORTED,
                ..
            }
        ));
        // Cold through the same resolved backend works.
        let (resp, _) = s.handle(Request::Repartition {
            mode: RepartitionMode::Cold,
            backend: "edist".into(),
        });
        assert!(matches!(resp, Response::RepartitionDone { .. }));
        // Unknown name is a typed error.
        let (resp, _) = s.handle(Request::Repartition {
            mode: RepartitionMode::Cold,
            backend: "nope".into(),
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: error_code::BAD_BACKEND,
                ..
            }
        ));
    }

    #[test]
    fn checkpoint_roundtrip_and_fingerprint_mismatch() {
        let dir = std::env::temp_dir().join(format!("sbp_serve_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.sbpc");
        let mut s = test_server(9);
        let (resp, _) = s.handle(Request::Checkpoint(path.to_string_lossy().into_owned()));
        assert!(matches!(resp, Response::CheckpointDone { .. }));
        // Resume over the same graph restores the warm partition.
        let options = ServerOptions {
            seed: 9,
            resume: Some(path.clone()),
            ..ServerOptions::default()
        };
        let resumed = Server::new(two_cliques(8), options.clone(), default_registry()).unwrap();
        assert_eq!(resumed.assignment(), s.assignment());
        assert_eq!(resumed.num_blocks(), s.num_blocks());
        assert_eq!(
            resumed.description_length().to_bits(),
            s.description_length().to_bits()
        );
        // A different graph (as after unseen deltas) is a typed mismatch.
        match Server::new(two_cliques(9), options, default_registry()) {
            Err(ServeError::CheckpointMismatch(_)) => {}
            Err(other) => panic!("expected CheckpointMismatch, got {other:?}"),
            Ok(_) => panic!("expected CheckpointMismatch, got a server"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirty_set_is_one_hop_sorted_dedup() {
        let g = two_cliques(4); // vertices 0..8, cliques {0..4} and {4..8}
        let deltas = [EdgeDelta {
            src: 0,
            dst: 5,
            delta: 1,
        }];
        let dirty = dirty_set(&g, &deltas);
        assert!(dirty.contains(&0) && dirty.contains(&5));
        // 0's clique neighbors are in; a clique-1 vertex not adjacent to
        // 5 or 0 must not be (vertex 7 is adjacent to 5 in clique 2 —
        // pick one adjacent to neither endpoint... all of clique 2 is
        // adjacent to 5, so every vertex lands in the set here; assert
        // sortedness and bounds instead.
        assert!(dirty.windows(2).all(|w| w[0] < w[1]));
        assert!(dirty.iter().all(|&v| (v as usize) < 8));
    }

    #[test]
    fn stats_reports_uptime_and_cumulative_counters() {
        let mut s = test_server(4);
        let (_, _) = s.handle(Request::Ingest(vec![EdgeDelta {
            src: 0,
            dst: 1,
            delta: 1,
        }]));
        let (_, _) = s.handle(Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: String::new(),
        });
        let (resp, _) = s.handle(Request::Stats);
        match resp {
            Response::Stats(stats) => {
                assert_eq!(stats.ingests, 1);
                assert_eq!(stats.repartitions, 1);
                assert!(stats.uptime_seconds >= 0.0);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        // A failed repartition (unknown backend) is not counted.
        let (_, _) = s.handle(Request::Repartition {
            mode: RepartitionMode::Cold,
            backend: "nope".into(),
        });
        let (resp, _) = s.handle(Request::Stats);
        match resp {
            Response::Stats(stats) => assert_eq!(stats.repartitions, 1),
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn metrics_request_returns_json_and_exposition() {
        let mut s = test_server(4);
        let _ = s.handle(Request::Stats);
        let (resp, shutdown) = s.handle(Request::Metrics);
        assert!(!shutdown);
        match resp {
            Response::Metrics {
                snapshot_json,
                prometheus,
            } => {
                let value =
                    sbp_metrics::json::Value::parse(&snapshot_json).expect("valid JSON text");
                sbp_metrics::Snapshot::from_json(&value).expect("valid snapshot JSON");
                // The handler's own request counter, and the latency of
                // the request before it, must appear once metrics are
                // enabled (the default).
                if sbp_metrics::enabled() {
                    assert!(
                        prometheus.contains("sbp_daemon_requests_total"),
                        "missing daemon counter in: {prometheus}"
                    );
                    assert!(
                        prometheus.contains("sbp_daemon_request_seconds_count{kind=\"stats\"}"),
                        "missing daemon request latency in: {prometheus}"
                    );
                }
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_writes_configured_checkpoint() {
        let dir = std::env::temp_dir().join(format!("sbp_serve_shut_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("final.sbpc");
        let options = ServerOptions {
            seed: 2,
            checkpoint_on_shutdown: Some(path.clone()),
            ..ServerOptions::default()
        };
        let mut s = Server::new(two_cliques(6), options, default_registry()).unwrap();
        let (resp, shutdown) = s.handle(Request::Shutdown);
        assert_eq!(resp, Response::ShutdownAck);
        assert!(shutdown);
        let state = CheckpointState::read_from(&path).unwrap();
        assert_eq!(state.num_vertices, 12);
        assert_eq!(state.mid.unwrap().assignment, s.assignment());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
