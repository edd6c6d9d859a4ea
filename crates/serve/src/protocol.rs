//! The `sbp-serve` wire protocol: strict length-prefixed binary frames.
//!
//! Every message — request or response — travels as one frame of the
//! workspace's frame codec ([`sbp_graph::frame`]), the one the TCP
//! cluster speaks, under the daemon's own tag and seed:
//!
//! ```text
//! +-----------+--------------------+---------------+----------------+
//! | FRAME_TAG | payload len varint | payload bytes | checksum u64le |
//! +-----------+--------------------+---------------+----------------+
//!      1 B           1–4 B              ≤ 16 MiB           8 B
//! ```
//!
//! The checksum seals the tag, the length and the payload under the
//! serve seed. The payload is a message tag byte followed by
//! tag-specific fields encoded with the [`sbp_graph::varint`] codec.
//! Decoding is strict and allocation-bounded: every count is validated
//! against the remaining payload before a vector is sized, strings have
//! hard length limits, vertex-id lists use the canonical ascending delta
//! encoding, and trailing bytes after a message are rejected. Every malformed input maps to a typed
//! [`WireError`] — decoders never panic, which the root `tests/fuzz.rs`
//! hostile-input wall enforces over both request and response decoders.

use sbp_graph::frame::{self, TagRule};
use sbp_graph::varint::{
    read_ascending_ids, read_i64, read_u64, write_ascending_ids, write_i64, write_u64,
};
use sbp_graph::{EdgeDelta, Vertex};

pub use sbp_graph::frame::FrameError;

/// Protocol revision: 2 added the `Metrics` pair and the [`StatsReply`]
/// uptime and cumulative counters; 3 moved frames from `"SF"[u32 len]`
/// to the cluster's layout under [`FRAME_TAG`], payloads unchanged.
/// Frames carry no version byte — client and server ship from one tree.
pub const PROTOCOL_VERSION: u32 = 3;

/// The tag byte of every frame: none of the cluster's kinds (1–6) and not
/// the `b'S'` of a protocol-2 frame, so both are refused at byte one.
pub const FRAME_TAG: u8 = 0x44;
/// Seed of the frame checksum.
const FRAME_SEED: u64 = 0x5EF5_EF5E_F5EF_5EF5;
/// Hard cap on a frame's payload size (16 MiB).
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;
/// Hard cap on edge deltas in one `Ingest` request.
pub const MAX_DELTAS: usize = 1 << 20;
/// Hard cap on vertex ids in one `Membership` request (and labels in
/// its reply).
pub const MAX_IDS: usize = 1 << 20;
/// Hard cap on a backend-name string, in bytes.
pub const MAX_NAME: usize = 64;
/// Hard cap on a checkpoint-path string, in bytes.
pub const MAX_PATH: usize = 4096;
/// Hard cap on an error-message string, in bytes.
pub const MAX_MESSAGE: usize = 1024;
/// Hard cap on each text block (snapshot JSON, Prometheus exposition)
/// in a `Metrics` reply, in bytes.
pub const MAX_METRICS_TEXT: usize = 1 << 20;
/// Trajectory entries carried in a `Stats` reply (the tail).
pub const MAX_TRAJECTORY: usize = 8;

/// Why a frame or message failed to decode. Every hostile input maps
/// here; decoders never panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame layer refused the bytes: another tag, over
    /// [`MAX_PAYLOAD`], truncated, or a checksum mismatch.
    Frame(FrameError),
    /// The payload ended before the declared structure did.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A varint field failed to decode.
    BadVarint,
    /// A string field is not valid UTF-8.
    BadString,
    /// A count or length field exceeds its protocol limit.
    LimitExceeded(&'static str),
    /// A field violates canonical encoding (e.g. a non-ascending vertex
    /// id list, a zero edge delta, or an out-of-range enum byte).
    NonCanonical(&'static str),
    /// Bytes remain after the end of a complete message.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "{e}"),
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadVarint => write!(f, "malformed varint field"),
            WireError::BadString => write!(f, "string field is not valid UTF-8"),
            WireError::LimitExceeded(what) => write!(f, "{what} exceeds its protocol limit"),
            WireError::NonCanonical(what) => write!(f, "non-canonical encoding: {what}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// The daemon's one tag, under its seed and [`MAX_PAYLOAD`].
fn frame_rule(tag: u8) -> Option<TagRule> {
    (tag == FRAME_TAG).then_some(TagRule {
        seed: FRAME_SEED,
        cap: MAX_PAYLOAD as u64,
    })
}

/// Wraps a payload in a frame: tag, length, payload, checksum.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — encoders bound their
/// output by the same limits decoders enforce, so this is unreachable
/// for any message this module builds.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "payload exceeds MAX_PAYLOAD");
    frame::encode_frame(FRAME_SEED, FRAME_TAG, payload)
}

/// Splits one frame off the front of `buf`: returns the payload and the
/// total bytes consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(Vec<u8>, usize), WireError> {
    let (_, payload, used) = frame::decode_frame(buf, frame_rule).map_err(WireError::Frame)?;
    Ok((payload, used))
}

/// Reads one frame's payload off `stream` (behind a buffer) — the read
/// loop of the daemon and the client; `Ok(None)` is a clean end of stream.
pub fn read_frame<R: std::io::Read + ?Sized>(
    stream: &mut R,
) -> Result<Option<Vec<u8>>, FrameError> {
    Ok(frame::read_frame(stream, frame_rule)?.map(|(_, payload)| payload))
}

// ------------------------------------------------------------- helpers

fn read_string(
    buf: &[u8],
    pos: &mut usize,
    max: usize,
    what: &'static str,
) -> Result<String, WireError> {
    let len = read_u64(buf, pos).ok_or(WireError::BadVarint)? as usize;
    if len > max {
        return Err(WireError::LimitExceeded(what));
    }
    if buf.len().saturating_sub(*pos) < len {
        return Err(WireError::Truncated);
    }
    let s = std::str::from_utf8(&buf[*pos..*pos + len]).map_err(|_| WireError::BadString)?;
    *pos += len;
    Ok(s.to_string())
}

fn write_string(buf: &mut Vec<u8>, s: &str) {
    write_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Writes `s` truncated to at most `max` bytes at a char boundary —
/// used by the reply encoders that must never fail (errors, metrics).
fn write_capped_string(buf: &mut Vec<u8>, s: &str, max: usize) {
    let mut s = s;
    while s.len() > max {
        let mut cut = max;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s = &s[..cut];
    }
    write_string(buf, s);
}

fn read_f64_bits(buf: &[u8], pos: &mut usize) -> Result<f64, WireError> {
    if buf.len().saturating_sub(*pos) < 8 {
        return Err(WireError::Truncated);
    }
    let bits = u64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
    *pos += 8;
    Ok(f64::from_bits(bits))
}

fn write_f64_bits(buf: &mut Vec<u8>, x: f64) {
    buf.extend_from_slice(&x.to_bits().to_le_bytes());
}

fn finish(buf: &[u8], pos: usize) -> Result<(), WireError> {
    if pos == buf.len() {
        Ok(())
    } else {
        Err(WireError::TrailingBytes)
    }
}

// ------------------------------------------------------------ requests

/// How a `Repartition` request restarts the golden search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepartitionMode {
    /// Warm-start from the current partition; only vertices within one
    /// hop of pending edge deltas re-enter MCMC sweeps.
    Warm,
    /// Full cold run from the identity partition (`C = V`).
    Cold,
}

/// A client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Queue edge deltas; they apply at the next `Repartition`.
    Ingest(Vec<EdgeDelta>),
    /// Apply pending deltas and re-run the golden search.
    Repartition {
        /// Warm or cold restart.
        mode: RepartitionMode,
        /// Backend name resolved through the server's solver registry;
        /// empty selects the server's configured default.
        backend: String,
    },
    /// Query block labels for a strictly ascending vertex-id list.
    Membership(Vec<Vertex>),
    /// Query DL, block count, trajectory tail, pending-delta count and
    /// the degraded flag.
    Stats,
    /// Write a `.sbpc` snapshot of the current server state to a
    /// server-side path.
    Checkpoint(String),
    /// Gracefully stop the server (writes the configured shutdown
    /// checkpoint first, if any).
    Shutdown,
    /// Query the process-wide metrics plane: a canonical-JSON snapshot
    /// plus a Prometheus-style text exposition.
    Metrics,
}

const TAG_INGEST: u8 = 0x01;
const TAG_REPARTITION: u8 = 0x02;
const TAG_MEMBERSHIP: u8 = 0x03;
const TAG_STATS: u8 = 0x04;
const TAG_CHECKPOINT: u8 = 0x05;
const TAG_SHUTDOWN: u8 = 0x06;
const TAG_METRICS: u8 = 0x07;

impl Request {
    /// Encodes the request payload (no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Ingest(deltas) => {
                buf.push(TAG_INGEST);
                write_u64(&mut buf, deltas.len() as u64);
                for d in deltas {
                    write_u64(&mut buf, u64::from(d.src));
                    write_u64(&mut buf, u64::from(d.dst));
                    write_i64(&mut buf, d.delta);
                }
            }
            Request::Repartition { mode, backend } => {
                buf.push(TAG_REPARTITION);
                buf.push(match mode {
                    RepartitionMode::Warm => 0,
                    RepartitionMode::Cold => 1,
                });
                write_string(&mut buf, backend);
            }
            Request::Membership(ids) => {
                buf.push(TAG_MEMBERSHIP);
                write_ascending_ids(&mut buf, ids);
            }
            Request::Stats => buf.push(TAG_STATS),
            Request::Checkpoint(path) => {
                buf.push(TAG_CHECKPOINT);
                write_string(&mut buf, path);
            }
            Request::Shutdown => buf.push(TAG_SHUTDOWN),
            Request::Metrics => buf.push(TAG_METRICS),
        }
        buf
    }

    /// Decodes a request payload. Strict: typed errors on any malformed,
    /// over-limit, non-canonical, or trailing input.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let (&tag, rest) = buf.split_first().ok_or(WireError::Truncated)?;
        let mut pos = 0usize;
        let req = match tag {
            TAG_INGEST => {
                let count = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)? as usize;
                if count > MAX_DELTAS {
                    return Err(WireError::LimitExceeded("ingest delta count"));
                }
                // ≥ 3 bytes per delta; reject crafted counts before sizing.
                if count > rest.len().saturating_sub(pos) / 3 + 1 {
                    return Err(WireError::Truncated);
                }
                let mut deltas = Vec::with_capacity(count);
                for _ in 0..count {
                    let src = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?;
                    let dst = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?;
                    let delta = read_i64(rest, &mut pos).ok_or(WireError::BadVarint)?;
                    if src > u64::from(u32::MAX) || dst > u64::from(u32::MAX) {
                        return Err(WireError::NonCanonical("vertex id exceeds u32"));
                    }
                    if delta == 0 {
                        return Err(WireError::NonCanonical("zero edge delta"));
                    }
                    deltas.push(EdgeDelta {
                        src: src as u32,
                        dst: dst as u32,
                        delta,
                    });
                }
                Request::Ingest(deltas)
            }
            TAG_REPARTITION => {
                let (&mode, rest2) = rest.split_first().ok_or(WireError::Truncated)?;
                let mode = match mode {
                    0 => RepartitionMode::Warm,
                    1 => RepartitionMode::Cold,
                    _ => return Err(WireError::NonCanonical("repartition mode byte")),
                };
                let backend = read_string(rest2, &mut pos, MAX_NAME, "backend name")?;
                finish(rest2, pos)?;
                return Ok(Request::Repartition { mode, backend });
            }
            TAG_MEMBERSHIP => {
                let ids = read_ascending_ids(rest, &mut pos).ok_or(WireError::BadVarint)?;
                if ids.len() > MAX_IDS {
                    return Err(WireError::LimitExceeded("membership id count"));
                }
                Request::Membership(ids)
            }
            TAG_STATS => Request::Stats,
            TAG_CHECKPOINT => {
                let path = read_string(rest, &mut pos, MAX_PATH, "checkpoint path")?;
                Request::Checkpoint(path)
            }
            TAG_SHUTDOWN => Request::Shutdown,
            TAG_METRICS => Request::Metrics,
            other => return Err(WireError::BadTag(other)),
        };
        finish(rest, pos)?;
        Ok(req)
    }
}

// ----------------------------------------------------------- responses

/// One trajectory entry in a [`Response::Stats`] reply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrajectoryPoint {
    /// Block count after the iteration.
    pub num_blocks: u64,
    /// Description length after the iteration.
    pub dl: f64,
}

/// The payload of a [`Response::Stats`] reply.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// Vertices in the resident graph (after applied deltas).
    pub num_vertices: u64,
    /// Blocks in the warm partition.
    pub num_blocks: u64,
    /// Description length of the warm partition.
    pub dl: f64,
    /// Edge deltas queued but not yet applied by a `Repartition`.
    pub pending_deltas: u64,
    /// Degraded flag: 0 = healthy; 1/2/3 mirror the run's
    /// `DegradedReason` (rank / decode / shard-load failure).
    pub degraded: u8,
    /// The last ≤ [`MAX_TRAJECTORY`] golden-loop iterations.
    pub trajectory_tail: Vec<TrajectoryPoint>,
    /// The server's default backend name.
    pub backend: String,
    /// Seconds since the daemon finished its startup solve
    /// (protocol v2).
    pub uptime_seconds: f64,
    /// Cumulative accepted `Ingest` requests since startup
    /// (protocol v2).
    pub ingests: u64,
    /// Cumulative successful `Repartition` runs since startup
    /// (protocol v2).
    pub repartitions: u64,
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The request failed; the connection stays usable unless the
    /// frame itself was malformed.
    Error {
        /// Coarse machine-readable code (see the README wire spec).
        code: u8,
        /// Human-readable detail, ≤ [`MAX_MESSAGE`] bytes.
        message: String,
    },
    /// `Ingest` accepted; reports the queue depth.
    IngestAck {
        /// Edge deltas now pending.
        pending_deltas: u64,
    },
    /// `Repartition` finished.
    RepartitionDone {
        /// Blocks in the new partition.
        num_blocks: u64,
        /// Description length of the new partition.
        dl: f64,
        /// Golden-loop iterations the run took.
        iterations: u64,
        /// Vertices that re-entered MCMC sweeps (`num_vertices` for a
        /// cold or full-warm run).
        swept_vertices: u64,
    },
    /// `Membership` labels, in the order of the requested ids.
    Membership(Vec<u32>),
    /// `Stats` snapshot.
    Stats(StatsReply),
    /// `Checkpoint` written.
    CheckpointDone {
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// Server is shutting down after this reply.
    ShutdownAck,
    /// `Metrics` snapshot: canonical JSON plus Prometheus-style text.
    Metrics {
        /// `sbp_metrics::Snapshot::to_json()` output, ≤
        /// [`MAX_METRICS_TEXT`] bytes.
        snapshot_json: String,
        /// `sbp_metrics::Snapshot::prometheus()` output, ≤
        /// [`MAX_METRICS_TEXT`] bytes.
        prometheus: String,
    },
}

const TAG_ERROR: u8 = 0x80;
const TAG_INGEST_ACK: u8 = 0x81;
const TAG_REPARTITION_DONE: u8 = 0x82;
const TAG_MEMBERSHIP_REPLY: u8 = 0x83;
const TAG_STATS_REPLY: u8 = 0x84;
const TAG_CHECKPOINT_DONE: u8 = 0x85;
const TAG_SHUTDOWN_ACK: u8 = 0x86;
const TAG_METRICS_REPLY: u8 = 0x87;

/// Error codes carried by [`Response::Error`].
pub mod error_code {
    /// The request frame or payload failed to decode.
    pub const MALFORMED: u8 = 1;
    /// The request referenced a vertex outside the graph or an invalid
    /// delta (e.g. negative resulting weight).
    pub const BAD_DELTA: u8 = 2;
    /// Unknown backend name or the backend rejected the spec.
    pub const BAD_BACKEND: u8 = 3;
    /// The backend does not support warm starts.
    pub const WARM_UNSUPPORTED: u8 = 4;
    /// A checkpoint write or load failed.
    pub const CHECKPOINT: u8 = 5;
    /// A membership query referenced an out-of-range vertex.
    pub const BAD_VERTEX: u8 = 6;
}

impl Response {
    /// Encodes the response payload (no frame). Strings longer than
    /// their limit are truncated at a char boundary rather than
    /// rejected — the server must always be able to reply.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Error { code, message } => {
                buf.push(TAG_ERROR);
                buf.push(*code);
                write_capped_string(&mut buf, message, MAX_MESSAGE);
            }
            Response::IngestAck { pending_deltas } => {
                buf.push(TAG_INGEST_ACK);
                write_u64(&mut buf, *pending_deltas);
            }
            Response::RepartitionDone {
                num_blocks,
                dl,
                iterations,
                swept_vertices,
            } => {
                buf.push(TAG_REPARTITION_DONE);
                write_u64(&mut buf, *num_blocks);
                write_f64_bits(&mut buf, *dl);
                write_u64(&mut buf, *iterations);
                write_u64(&mut buf, *swept_vertices);
            }
            Response::Membership(labels) => {
                buf.push(TAG_MEMBERSHIP_REPLY);
                write_u64(&mut buf, labels.len() as u64);
                for &l in labels {
                    write_u64(&mut buf, u64::from(l));
                }
            }
            Response::Stats(s) => {
                buf.push(TAG_STATS_REPLY);
                write_u64(&mut buf, s.num_vertices);
                write_u64(&mut buf, s.num_blocks);
                write_f64_bits(&mut buf, s.dl);
                write_u64(&mut buf, s.pending_deltas);
                buf.push(s.degraded);
                write_u64(&mut buf, s.trajectory_tail.len() as u64);
                for p in &s.trajectory_tail {
                    write_u64(&mut buf, p.num_blocks);
                    write_f64_bits(&mut buf, p.dl);
                }
                write_string(&mut buf, &s.backend);
                write_f64_bits(&mut buf, s.uptime_seconds);
                write_u64(&mut buf, s.ingests);
                write_u64(&mut buf, s.repartitions);
            }
            Response::CheckpointDone { bytes } => {
                buf.push(TAG_CHECKPOINT_DONE);
                write_u64(&mut buf, *bytes);
            }
            Response::ShutdownAck => buf.push(TAG_SHUTDOWN_ACK),
            Response::Metrics {
                snapshot_json,
                prometheus,
            } => {
                buf.push(TAG_METRICS_REPLY);
                write_capped_string(&mut buf, snapshot_json, MAX_METRICS_TEXT);
                write_capped_string(&mut buf, prometheus, MAX_METRICS_TEXT);
            }
        }
        buf
    }

    /// Decodes a response payload. As strict as [`Request::decode`] —
    /// the client trusts the server no more than the server trusts the
    /// client.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let (&tag, rest) = buf.split_first().ok_or(WireError::Truncated)?;
        let mut pos = 0usize;
        let resp = match tag {
            TAG_ERROR => {
                let (&code, rest2) = rest.split_first().ok_or(WireError::Truncated)?;
                let message = read_string(rest2, &mut pos, MAX_MESSAGE, "error message")?;
                finish(rest2, pos)?;
                return Ok(Response::Error { code, message });
            }
            TAG_INGEST_ACK => Response::IngestAck {
                pending_deltas: read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?,
            },
            TAG_REPARTITION_DONE => Response::RepartitionDone {
                num_blocks: read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?,
                dl: read_f64_bits(rest, &mut pos)?,
                iterations: read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?,
                swept_vertices: read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?,
            },
            TAG_MEMBERSHIP_REPLY => {
                let count = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)? as usize;
                if count > MAX_IDS {
                    return Err(WireError::LimitExceeded("membership label count"));
                }
                if count > rest.len().saturating_sub(pos) {
                    return Err(WireError::Truncated);
                }
                let mut labels = Vec::with_capacity(count);
                for _ in 0..count {
                    let l = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?;
                    if l > u64::from(u32::MAX) {
                        return Err(WireError::NonCanonical("label exceeds u32"));
                    }
                    labels.push(l as u32);
                }
                Response::Membership(labels)
            }
            TAG_STATS_REPLY => {
                let num_vertices = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?;
                let num_blocks = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?;
                let dl = read_f64_bits(rest, &mut pos)?;
                let pending_deltas = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?;
                if pos >= rest.len() {
                    return Err(WireError::Truncated);
                }
                let degraded = rest[pos];
                pos += 1;
                if degraded > 3 {
                    return Err(WireError::NonCanonical("degraded byte"));
                }
                let count = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)? as usize;
                if count > MAX_TRAJECTORY {
                    return Err(WireError::LimitExceeded("trajectory tail length"));
                }
                let mut trajectory_tail = Vec::with_capacity(count);
                for _ in 0..count {
                    let num_blocks = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?;
                    let dl = read_f64_bits(rest, &mut pos)?;
                    trajectory_tail.push(TrajectoryPoint { num_blocks, dl });
                }
                let backend = read_string(rest, &mut pos, MAX_NAME, "backend name")?;
                let uptime_seconds = read_f64_bits(rest, &mut pos)?;
                let ingests = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?;
                let repartitions = read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?;
                Response::Stats(StatsReply {
                    num_vertices,
                    num_blocks,
                    dl,
                    pending_deltas,
                    degraded,
                    trajectory_tail,
                    backend,
                    uptime_seconds,
                    ingests,
                    repartitions,
                })
            }
            TAG_CHECKPOINT_DONE => Response::CheckpointDone {
                bytes: read_u64(rest, &mut pos).ok_or(WireError::BadVarint)?,
            },
            TAG_SHUTDOWN_ACK => Response::ShutdownAck,
            TAG_METRICS_REPLY => Response::Metrics {
                snapshot_json: read_string(rest, &mut pos, MAX_METRICS_TEXT, "metrics json")?,
                prometheus: read_string(rest, &mut pos, MAX_METRICS_TEXT, "metrics exposition")?,
            },
            other => return Err(WireError::BadTag(other)),
        };
        finish(rest, pos)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let framed = encode_frame(&req.encode());
        let (payload, consumed) = decode_frame(&framed).unwrap();
        assert_eq!(consumed, framed.len());
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let framed = encode_frame(&resp.encode());
        let (payload, consumed) = decode_frame(&framed).unwrap();
        assert_eq!(consumed, framed.len());
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    /// The protocol-3 layout: [`FRAME_TAG`], the varint length, the
    /// payload, and the cluster's checksum under the serve seed.
    #[test]
    fn frame_bytes_are_pinned() {
        assert_eq!(
            encode_frame(&Request::Membership(vec![1, 2, 3]).encode()),
            [
                0x44, 0x05, 0x03, 0x03, 0x01, 0x00, 0x00, 0xe9, 0xc4, 0xf3, 0xe7, 0xf6, 0xb0, 0xdb,
                0x58
            ]
        );
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ingest(vec![
            EdgeDelta {
                src: 0,
                dst: 7,
                delta: 3,
            },
            EdgeDelta {
                src: 7,
                dst: 0,
                delta: -2,
            },
        ]));
        roundtrip_request(Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: String::new(),
        });
        roundtrip_request(Request::Repartition {
            mode: RepartitionMode::Cold,
            backend: "hybrid".into(),
        });
        roundtrip_request(Request::Membership(vec![0, 3, 4, 900]));
        roundtrip_request(Request::Membership(vec![]));
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Checkpoint("/tmp/x.sbpc".into()));
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Metrics);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Error {
            code: error_code::BAD_DELTA,
            message: "arc (0, 1) would end up with negative weight -1".into(),
        });
        roundtrip_response(Response::IngestAck { pending_deltas: 42 });
        roundtrip_response(Response::RepartitionDone {
            num_blocks: 8,
            dl: 123.456,
            iterations: 11,
            swept_vertices: 100,
        });
        roundtrip_response(Response::Membership(vec![1, 0, 1, 7]));
        roundtrip_response(Response::Stats(StatsReply {
            num_vertices: 1000,
            num_blocks: 8,
            dl: -0.0,
            pending_deltas: 3,
            degraded: 1,
            trajectory_tail: vec![
                TrajectoryPoint {
                    num_blocks: 16,
                    dl: 9.0,
                },
                TrajectoryPoint {
                    num_blocks: 8,
                    dl: 8.5,
                },
            ],
            backend: "sequential".into(),
            uptime_seconds: 12.75,
            ingests: 5,
            repartitions: 2,
        }));
        roundtrip_response(Response::CheckpointDone { bytes: 512 });
        roundtrip_response(Response::ShutdownAck);
        roundtrip_response(Response::Metrics {
            snapshot_json: "{\"sbp_daemon_ingests_total\":{\"type\":\"counter\",\"value\":5}}"
                .into(),
            prometheus: "# TYPE sbp_daemon_ingests_total counter\n\
                         sbp_daemon_ingests_total 5\n"
                .into(),
        });
    }

    #[test]
    fn oversized_metrics_text_truncates_at_char_boundary() {
        let resp = Response::Metrics {
            snapshot_json: "é".repeat(MAX_METRICS_TEXT),
            prometheus: String::new(),
        };
        match Response::decode(&resp.encode()).unwrap() {
            Response::Metrics {
                snapshot_json,
                prometheus,
            } => {
                assert!(snapshot_json.len() <= MAX_METRICS_TEXT);
                assert!(!snapshot_json.is_empty());
                assert!(prometheus.is_empty());
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    #[test]
    fn frame_rejects_foreign_tag_length_and_checksum() {
        let framed = encode_frame(&Request::Stats.encode());
        // A protocol-2 frame is refused at its first byte.
        assert_eq!(
            decode_frame(b"SF\x01\x00\x00\x00\x04"),
            Err(WireError::Frame(FrameError::UnexpectedTag(b'S')))
        );
        let mut bad = framed.clone();
        bad[1] = 0xFF;
        bad[2] = 0xFF;
        bad[3] = 0xFF;
        bad[4] = 0x7F;
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::Frame(FrameError::TooLarge { .. }))
        ));
        let mut bad = framed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert_eq!(
            decode_frame(&bad),
            Err(WireError::Frame(FrameError::ChecksumMismatch))
        );
        assert_eq!(
            decode_frame(&framed[..5]),
            Err(WireError::Frame(FrameError::Truncated))
        );
        // Flipping the payload byte trips the checksum.
        let mut bad = framed.clone();
        bad[2] ^= 0x40;
        assert_eq!(
            decode_frame(&bad),
            Err(WireError::Frame(FrameError::ChecksumMismatch))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Stats.encode();
        payload.push(0);
        assert_eq!(Request::decode(&payload), Err(WireError::TrailingBytes));
        let mut payload = Response::ShutdownAck.encode();
        payload.push(0);
        assert_eq!(Response::decode(&payload), Err(WireError::TrailingBytes));
    }

    #[test]
    fn hostile_counts_and_strings_are_rejected() {
        // Ingest with a crafted huge count.
        let mut payload = vec![0x01];
        sbp_graph::varint::write_u64(&mut payload, u64::MAX);
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::LimitExceeded(_) | WireError::Truncated)
        ));
        // Zero delta is non-canonical.
        let mut payload = vec![0x01];
        sbp_graph::varint::write_u64(&mut payload, 1);
        sbp_graph::varint::write_u64(&mut payload, 0);
        sbp_graph::varint::write_u64(&mut payload, 1);
        sbp_graph::varint::write_i64(&mut payload, 0);
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::NonCanonical("zero edge delta"))
        );
        // Over-long backend name.
        let req = Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: "x".repeat(MAX_NAME + 1),
        };
        assert_eq!(
            Request::decode(&req.encode()),
            Err(WireError::LimitExceeded("backend name"))
        );
        // Invalid UTF-8 in a checkpoint path.
        let mut payload = vec![0x05];
        sbp_graph::varint::write_u64(&mut payload, 2);
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Request::decode(&payload), Err(WireError::BadString));
        // Unknown tags, both directions.
        assert_eq!(Request::decode(&[0x77]), Err(WireError::BadTag(0x77)));
        assert_eq!(Response::decode(&[0x10]), Err(WireError::BadTag(0x10)));
        // Empty payloads.
        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Response::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn long_error_messages_truncate_at_char_boundary() {
        let resp = Response::Error {
            code: 1,
            message: "é".repeat(MAX_MESSAGE),
        };
        let decoded = Response::decode(&resp.encode()).unwrap();
        match decoded {
            Response::Error { message, .. } => {
                assert!(message.len() <= MAX_MESSAGE);
                assert!(!message.is_empty());
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }
}
