//! `serve` and `connect`: the resident partition daemon (`sbp-serve`)
//! and one request against it — same wire protocol, so one binary covers
//! both the one-shot and the resident workflow.

use crate::args::{flags, Args, SWITCH};
use crate::graphs::{graph_source, GraphSource};
use crate::partition::resolve_backend;
use edist::prelude::*;
use edist::serve::protocol::RepartitionMode;
use edist::serve::Listen;
use sbp_metrics::json::Value;
use std::path::Path;

pub const SERVE: &str = "\
--listen ADDR      unix:PATH or tcp:HOST:PORT (required)
--backend NAME     backend to solve with, by partition's names (default sequential)
--ranks N          ranks of a distributed backend (default 1)
--resume FILE      boot from a snapshot of the same graph instead of solving
--checkpoint FILE  snapshot to write on shutdown";

pub const TO: &str = "--to ADDR  the daemon's unix:PATH or tcp:HOST:PORT (required)";

/// The requests `connect` sends; it takes exactly one of them.
pub const REQUESTS: &str = "\
--ingest S,D,W;...       queue edge-weight deltas (src,dst,delta triples)
--repartition warm|cold  apply the queued deltas and re-solve
--membership V,V,...     print the block of each vertex
--stats true|false       print the daemon's state and counters
--metrics true|false     print its metrics (Prometheus text)
--checkpoint FILE        have the daemon write a snapshot to FILE
--shutdown true|false    stop the daemon (it writes serve --checkpoint first)
--badframe true|false    send a malformed frame; the daemon must answer it and live on";

pub const CONNECT: &str = "\
--backend NAME     with --repartition: backend to solve with (default the daemon's)
--json true|false  print --stats and --metrics replies as JSON";

pub fn cmd_serve(args: &Args) -> Result<u8, String> {
    let listen = Listen::parse(args.require("listen")?).map_err(|e| e.to_string())?;
    let ranks = args.num("ranks", 1usize)?;
    let (_, sync_period) = resolve_backend(args, "sequential", ranks)?;
    let graph = match graph_source(args)? {
        GraphSource::Mem(graph) => graph,
        GraphSource::Shards(dir) => edist::graph::shard::unshard_graph(Path::new(&dir))
            .map_err(|e| format!("loading shard dir {dir}: {e}"))?,
    };
    let options = ServerOptions {
        backend: args.get("backend").unwrap_or("sequential").to_string(),
        ranks,
        sync_period,
        seed: args.num("seed", 0u64)?,
        resume: args.get("resume").map(std::path::PathBuf::from),
        checkpoint_on_shutdown: args.get("checkpoint").map(std::path::PathBuf::from),
    };
    eprintln!(
        "serve: loaded graph with {} vertices, solving with backend '{}'...",
        graph.num_vertices(),
        options.backend
    );
    let mut server = Server::new(graph, options, default_registry()).map_err(|e| e.to_string())?;
    eprintln!(
        "serve: warm partition ready ({} blocks, DL {:.4})",
        server.num_blocks(),
        server.description_length()
    );
    edist::serve::serve(&mut server, &listen, |l| {
        let addr = match l {
            Listen::Unix(p) => format!("unix:{}", p.display()),
            Listen::Tcp(a) => format!("tcp:{a}"),
        };
        // Scripts wait for this line; a daemon whose stdout is closed
        // still serves.
        let _ = crate::stdout(&format!("listening on {addr}\n"));
    })
    .map_err(|e| e.to_string())?;
    Ok(0)
}

/// Parses `--ingest "src,dst,delta;src,dst,delta;..."`.
fn parse_deltas(spec: &str) -> Result<Vec<edist::graph::EdgeDelta>, String> {
    spec.split(';')
        .filter(|t| !t.trim().is_empty())
        .map(|triple| {
            let parts: Vec<&str> = triple.split(',').map(str::trim).collect();
            let [src, dst, delta] = parts.as_slice() else {
                return Err(format!("bad delta '{triple}' (want src,dst,delta)"));
            };
            Ok(edist::graph::EdgeDelta {
                src: src.parse().map_err(|_| format!("bad src '{src}'"))?,
                dst: dst.parse().map_err(|_| format!("bad dst '{dst}'"))?,
                delta: delta.parse().map_err(|_| format!("bad delta '{delta}'"))?,
            })
        })
        .collect()
}

/// The one request flag given: a switch counts when it is `true`.
fn one_request(args: &Args) -> Result<&'static str, String> {
    let given: Vec<&str> = flags(REQUESTS)
        .filter(|f| match f.value {
            SWITCH => args.switch(f.name),
            _ => args.get(f.name).is_some(),
        })
        .map(|f| f.name)
        .collect();
    match given[..] {
        [one] => Ok(one),
        [] => {
            let names: Vec<String> = flags(REQUESTS).map(|f| format!("--{}", f.name)).collect();
            Err(format!("pass one of {}", names.join(", ")))
        }
        [first, second, ..] => Err(format!(
            "connect sends one request: pass --{first} or --{second}, not both"
        )),
    }
}

/// `edist-cli connect`: one request against a running daemon, result on
/// stdout. An `Error` reply from the daemon exits 1 with its code and
/// message; `--badframe true` expects an error reply (that is the test)
/// and exits 0 on receiving one.
pub fn cmd_connect(args: &Args) -> Result<u8, String> {
    let listen = Listen::parse(args.require("to")?).map_err(|e| e.to_string())?;
    let kind = one_request(args)?;
    let request = match kind {
        "badframe" => None,
        "ingest" => Some(Request::Ingest(parse_deltas(args.require(kind)?)?)),
        "repartition" => {
            let mode = match args.require(kind)? {
                "warm" => RepartitionMode::Warm,
                "cold" => RepartitionMode::Cold,
                other => return Err(format!("--repartition must be warm or cold, got '{other}'")),
            };
            Some(Request::Repartition {
                mode,
                backend: args.get("backend").unwrap_or("").to_string(),
            })
        }
        "membership" => {
            let mut vs: Vec<u32> = args
                .require(kind)?
                .split(',')
                .filter(|t| !t.trim().is_empty())
                .map(|t| t.trim().parse().map_err(|_| format!("bad vertex '{t}'")))
                .collect::<Result<_, _>>()?;
            vs.sort_unstable();
            vs.dedup();
            Some(Request::Membership(vs))
        }
        "stats" => Some(Request::Stats),
        "metrics" => Some(Request::Metrics),
        "checkpoint" => Some(Request::Checkpoint(args.require(kind)?.to_string())),
        "shutdown" => Some(Request::Shutdown),
        other => unreachable!("request flag --{other} has no request"),
    };
    let mut client = Client::connect(&listen).map_err(|e| format!("connecting: {e}"))?;
    let Some(request) = request else {
        // Deliberately hostile bytes: the frame tag and a tiny length,
        // then garbage where the checksum belongs. The daemon must answer
        // with a typed error frame and keep running — never die.
        let mut probe = vec![edist::serve::protocol::FRAME_TAG, 4];
        probe.extend_from_slice(b"garbage-bytes");
        let reply = client
            .send_raw(&probe)
            .map_err(|e| format!("badframe probe: {e}"))?;
        return match reply {
            Response::Error { code, message } => {
                outln!("daemon survived the bad frame: error code {code}: {message}");
                Ok(0)
            }
            other => Err(format!("expected an error frame, got {other:?}")),
        };
    };
    let as_json = args.switch("json");
    let ids_echo = match &request {
        Request::Membership(ids) => ids.clone(),
        _ => Vec::new(),
    };
    let reply = client
        .request(&request)
        .map_err(|e| format!("request failed: {e}"))?;
    match reply {
        Response::Error { code, message } => return Err(format!("daemon error {code}: {message}")),
        Response::IngestAck { pending_deltas } => {
            outln!("ingested: {pending_deltas} deltas pending");
        }
        Response::RepartitionDone {
            num_blocks,
            dl,
            iterations,
            swept_vertices,
        } => {
            outln!(
                "repartitioned: {num_blocks} blocks  DL {dl:.2}  \
                 ({iterations} iterations, {swept_vertices} vertices swept)"
            );
        }
        Response::Membership(labels) => {
            for (v, label) in ids_echo.iter().zip(&labels) {
                outln!("{v} {label}");
            }
        }
        Response::Stats(stats) => {
            if as_json {
                let num = |n: u64| Value::Num(n as f64);
                let tail = stats.trajectory_tail.iter();
                let trajectory = tail
                    .map(|p| Value::obj([("blocks", num(p.num_blocks)), ("dl", Value::Num(p.dl))]));
                let stats = Value::obj([
                    ("vertices", num(stats.num_vertices)),
                    ("blocks", num(stats.num_blocks)),
                    ("dl", Value::Num(stats.dl)),
                    ("pending_deltas", num(stats.pending_deltas)),
                    ("degraded", Value::Num(f64::from(stats.degraded))),
                    ("backend", stats.backend.as_str().into()),
                    ("uptime_seconds", Value::Num(stats.uptime_seconds)),
                    ("ingests", num(stats.ingests)),
                    ("repartitions", num(stats.repartitions)),
                    ("trajectory_tail", Value::Arr(trajectory.collect())),
                ]);
                outln!("{stats}");
            } else {
                outln!("vertices:       {}", stats.num_vertices);
                outln!("blocks:         {}", stats.num_blocks);
                outln!("DL:             {:.2}", stats.dl);
                outln!("pending deltas: {}", stats.pending_deltas);
                outln!("degraded:       {}", stats.degraded);
                outln!("backend:        {}", stats.backend);
                outln!("uptime:         {:.1}s", stats.uptime_seconds);
                outln!("ingests:        {}", stats.ingests);
                outln!("repartitions:   {}", stats.repartitions);
                for p in &stats.trajectory_tail {
                    outln!("  trajectory: {} blocks  DL {:.2}", p.num_blocks, p.dl);
                }
            }
        }
        Response::Metrics {
            snapshot_json,
            prometheus,
        } => {
            if as_json {
                outln!("{snapshot_json}");
            } else {
                crate::stdout(&prometheus)?;
            }
        }
        Response::CheckpointDone { bytes } => {
            outln!("checkpoint written ({bytes} bytes)");
        }
        Response::ShutdownAck => {
            outln!("daemon shut down");
        }
    }
    Ok(0)
}
