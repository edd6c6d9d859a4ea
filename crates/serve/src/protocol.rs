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
//! serve seed. The payload is a [`Request`] or [`Response`] as an
//! [`sbp_mpi::Wire`] value — the codec of every collective and TCP
//! handshake payload: a message tag byte, then the fields as varint
//! integers, zigzag `i64`s, LE `f64` bits, raw bytes and count-prefixed
//! strings and lists. The one field of its own is the `Membership`
//! request's id list, in the canonical ascending delta encoding.
//!
//! Decoding is strict and allocation-bounded: every count is checked
//! against its protocol limit and the remaining payload before a vector
//! is sized, strings have hard length limits, and trailing bytes after a
//! message are rejected. A malformed frame is a typed [`FrameError`], a
//! malformed message a typed [`DecodeError`] naming the field — decoders
//! never panic, which the root `tests/fuzz.rs` hostile-input wall
//! enforces over both request and response decoders.

use sbp_graph::frame::{self, TagRule};
use sbp_graph::varint::{read_ascending_ids, write_ascending_ids};
use sbp_graph::{EdgeDelta, Vertex};
use sbp_mpi::wire::{self, read_vec, Wire};

pub use sbp_graph::frame::{DecodeError, FrameError};

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
pub fn decode_frame(buf: &[u8]) -> Result<(Vec<u8>, usize), FrameError> {
    let (_, payload, used) = frame::decode_frame(buf, frame_rule)?;
    Ok((payload, used))
}

/// Reads one frame's payload off `stream` (behind a buffer) — the read
/// loop of the daemon and the client; `Ok(None)` is a clean end of stream.
pub fn read_frame<R: std::io::Read + ?Sized>(
    stream: &mut R,
) -> Result<Option<Vec<u8>>, FrameError> {
    Ok(frame::read_frame(stream, frame_rule)?.map(|(_, payload)| payload))
}

/// The typed refusal of a field outside the protocol's domain: an
/// unknown tag or enum byte, a zero delta, a count or length over its
/// limit.
fn out_of_range(what: &'static str) -> DecodeError {
    DecodeError::ValueOutOfRange { what }
}

/// Reads a string of at most `max` bytes (its bytes are checked against
/// the payload before they are copied).
fn read_capped(
    buf: &[u8],
    pos: &mut usize,
    max: usize,
    what: &'static str,
) -> Result<String, DecodeError> {
    let s = String::wire_read(buf, pos)?;
    if s.len() > max {
        return Err(out_of_range(what));
    }
    Ok(s)
}

/// `s` cut to at most `max` bytes at a char boundary — what the replies
/// that must never fail to encode (errors, metrics) send.
fn capped(s: &str, max: usize) -> String {
    let mut cut = s.len().min(max);
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    s[..cut].to_string()
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

/// One byte: 0 warm, 1 cold.
impl Wire for RepartitionMode {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            RepartitionMode::Warm => 0,
            RepartitionMode::Cold => 1,
        });
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        match u8::wire_read(buf, pos)? {
            0 => Ok(RepartitionMode::Warm),
            1 => Ok(RepartitionMode::Cold),
            _ => Err(out_of_range("repartition mode byte")),
        }
    }
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
        /// Backend name resolved through the server's [`Resolver`];
        /// empty selects the server's configured default.
        ///
        /// [`Resolver`]: crate::server::Resolver
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

impl Wire for Request {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ingest(deltas) => {
                buf.push(TAG_INGEST);
                deltas.wire_write(buf);
            }
            Request::Repartition { mode, backend } => {
                buf.push(TAG_REPARTITION);
                mode.wire_write(buf);
                backend.wire_write(buf);
            }
            Request::Membership(ids) => {
                buf.push(TAG_MEMBERSHIP);
                write_ascending_ids(buf, ids);
            }
            Request::Stats => buf.push(TAG_STATS),
            Request::Checkpoint(path) => {
                buf.push(TAG_CHECKPOINT);
                path.wire_write(buf);
            }
            Request::Shutdown => buf.push(TAG_SHUTDOWN),
            Request::Metrics => buf.push(TAG_METRICS),
        }
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        Ok(match u8::wire_read(buf, pos)? {
            TAG_INGEST => {
                let deltas: Vec<EdgeDelta> = read_vec(buf, pos, MAX_DELTAS, "ingest delta count")?;
                if deltas.iter().any(|d| d.delta == 0) {
                    return Err(out_of_range("zero edge delta"));
                }
                Request::Ingest(deltas)
            }
            TAG_REPARTITION => Request::Repartition {
                mode: RepartitionMode::wire_read(buf, pos)?,
                backend: read_capped(buf, pos, MAX_NAME, "backend name")?,
            },
            TAG_MEMBERSHIP => {
                let ids = read_ascending_ids(buf, pos).ok_or(out_of_range("membership id list"))?;
                if ids.len() > MAX_IDS {
                    return Err(out_of_range("membership id count"));
                }
                Request::Membership(ids)
            }
            TAG_STATS => Request::Stats,
            TAG_CHECKPOINT => {
                Request::Checkpoint(read_capped(buf, pos, MAX_PATH, "checkpoint path")?)
            }
            TAG_SHUTDOWN => Request::Shutdown,
            TAG_METRICS => Request::Metrics,
            _ => return Err(out_of_range("request tag")),
        })
    }
}

impl Request {
    /// Encodes the request payload (no frame).
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(self)
    }

    /// Decodes a request payload. Strict: typed errors on any malformed,
    /// over-limit, non-canonical, or trailing input.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        wire::decode(buf)
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

impl Wire for TrajectoryPoint {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        (self.num_blocks, self.dl).wire_write(buf);
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        let (num_blocks, dl) = Wire::wire_read(buf, pos)?;
        Ok(TrajectoryPoint { num_blocks, dl })
    }
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

impl Wire for StatsReply {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        (
            self.num_vertices,
            self.num_blocks,
            self.dl,
            self.pending_deltas,
        )
            .wire_write(buf);
        self.degraded.wire_write(buf);
        self.trajectory_tail.wire_write(buf);
        self.backend.wire_write(buf);
        (self.uptime_seconds, self.ingests, self.repartitions).wire_write(buf);
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        let (num_vertices, num_blocks, dl, pending_deltas) = Wire::wire_read(buf, pos)?;
        let degraded = u8::wire_read(buf, pos)?;
        if degraded > 3 {
            return Err(out_of_range("degraded byte"));
        }
        let trajectory_tail = read_vec(buf, pos, MAX_TRAJECTORY, "trajectory tail length")?;
        let backend = read_capped(buf, pos, MAX_NAME, "backend name")?;
        let (uptime_seconds, ingests, repartitions) = Wire::wire_read(buf, pos)?;
        Ok(StatsReply {
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
    /// An ingest would take the pending-delta queue past
    /// [`super::MAX_DELTAS`]; it was refused whole, and a repartition
    /// drains the queue.
    pub const BUSY: u8 = 7;
}

/// Strings longer than their limit are truncated at a char boundary
/// rather than rejected — the server must always be able to reply.
impl Wire for Response {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Error { code, message } => {
                buf.push(TAG_ERROR);
                (*code, capped(message, MAX_MESSAGE)).wire_write(buf);
            }
            Response::IngestAck { pending_deltas } => {
                buf.push(TAG_INGEST_ACK);
                pending_deltas.wire_write(buf);
            }
            Response::RepartitionDone {
                num_blocks,
                dl,
                iterations,
                swept_vertices,
            } => {
                buf.push(TAG_REPARTITION_DONE);
                (*num_blocks, *dl, *iterations, *swept_vertices).wire_write(buf);
            }
            Response::Membership(labels) => {
                buf.push(TAG_MEMBERSHIP_REPLY);
                labels.wire_write(buf);
            }
            Response::Stats(s) => {
                buf.push(TAG_STATS_REPLY);
                s.wire_write(buf);
            }
            Response::CheckpointDone { bytes } => {
                buf.push(TAG_CHECKPOINT_DONE);
                bytes.wire_write(buf);
            }
            Response::ShutdownAck => buf.push(TAG_SHUTDOWN_ACK),
            Response::Metrics {
                snapshot_json,
                prometheus,
            } => {
                buf.push(TAG_METRICS_REPLY);
                capped(snapshot_json, MAX_METRICS_TEXT).wire_write(buf);
                capped(prometheus, MAX_METRICS_TEXT).wire_write(buf);
            }
        }
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        Ok(match u8::wire_read(buf, pos)? {
            TAG_ERROR => Response::Error {
                code: u8::wire_read(buf, pos)?,
                message: read_capped(buf, pos, MAX_MESSAGE, "error message")?,
            },
            TAG_INGEST_ACK => Response::IngestAck {
                pending_deltas: u64::wire_read(buf, pos)?,
            },
            TAG_REPARTITION_DONE => {
                let (num_blocks, dl, iterations, swept_vertices) = Wire::wire_read(buf, pos)?;
                Response::RepartitionDone {
                    num_blocks,
                    dl,
                    iterations,
                    swept_vertices,
                }
            }
            TAG_MEMBERSHIP_REPLY => {
                Response::Membership(read_vec(buf, pos, MAX_IDS, "membership label count")?)
            }
            TAG_STATS_REPLY => Response::Stats(StatsReply::wire_read(buf, pos)?),
            TAG_CHECKPOINT_DONE => Response::CheckpointDone {
                bytes: u64::wire_read(buf, pos)?,
            },
            TAG_SHUTDOWN_ACK => Response::ShutdownAck,
            TAG_METRICS_REPLY => Response::Metrics {
                snapshot_json: read_capped(buf, pos, MAX_METRICS_TEXT, "metrics json")?,
                prometheus: read_capped(buf, pos, MAX_METRICS_TEXT, "metrics exposition")?,
            },
            _ => return Err(out_of_range("response tag")),
        })
    }
}

impl Response {
    /// Encodes the response payload (no frame).
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(self)
    }

    /// Decodes a response payload. As strict as [`Request::decode`] —
    /// the client trusts the server no more than the server trusts the
    /// client.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        wire::decode(buf)
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One frame per request kind, byte for byte: the payload layout
    /// (tag byte, varint / zigzag integers, LE `f64` bits, raw bytes,
    /// length-prefixed strings) is part of protocol v3, whichever codec
    /// writes it.
    #[test]
    fn request_frames_are_pinned_per_kind() {
        let cases = [
            (
                Request::Ingest(vec![
                    EdgeDelta {
                        src: 0,
                        dst: 7,
                        delta: 3,
                    },
                    EdgeDelta {
                        src: 300,
                        dst: 2,
                        delta: -2,
                    },
                ]),
                "44090102000706ac020203ce24839afefcb757",
            ),
            (
                Request::Repartition {
                    mode: RepartitionMode::Cold,
                    backend: "hybrid".into(),
                },
                "44090201066879627269645a1586840f16762d",
            ),
            (
                Request::Membership(vec![0, 3, 200]),
                "440603030002c401b30e60e41fa3929e",
            ),
            (Request::Stats, "44010452501c0ba70bd6f2"),
            (
                Request::Checkpoint("/tmp/x.sbpc".into()),
                "440d050b2f746d702f782e7362706322fbfa4f074f6c35",
            ),
            (Request::Shutdown, "4401061ddd68d1289b0476"),
            (Request::Metrics, "4401072f3f16c14521f0b8"),
        ];
        let got: Vec<String> = cases
            .iter()
            .map(|(req, _)| hex(&encode_frame(&req.encode())))
            .collect();
        assert_eq!(got, cases.map(|(_, want)| want));
    }

    /// One frame per response kind, as [`request_frames_are_pinned_per_kind`].
    #[test]
    fn response_frames_are_pinned_per_kind() {
        let cases = [
            (
                Response::Error {
                    code: error_code::BAD_DELTA,
                    message: "bad".into(),
                },
                "4406800203626164bbd39fa1bacc3758",
            ),
            (Response::IngestAck { pending_deltas: 300 }, "440381ac025192fa128246176c"),
            (
                Response::RepartitionDone {
                    num_blocks: 8,
                    dl: 123.5,
                    iterations: 11,
                    swept_vertices: 600,
                },
                "440d82080000000000e05e400bd804300c38eca4858cb8",
            ),
            (Response::Membership(vec![1, 0, 200]), "440683030100c80113a948185a1851ad"),
            (
                Response::Stats(StatsReply {
                    num_vertices: 1000,
                    num_blocks: 8,
                    dl: -0.0,
                    pending_deltas: 3,
                    degraded: 2,
                    trajectory_tail: vec![TrajectoryPoint {
                        num_blocks: 16,
                        dl: 9.0,
                    }],
                    backend: "edist".into(),
                    uptime_seconds: 12.75,
                    ingests: 5,
                    repartitions: 2,
                }),
                "442884e8070800000000000000800302011000000000000022400565646973740000000000802940050221decdb4308e0987",
            ),
            (Response::CheckpointDone { bytes: 512 }, "4403858004201065453650e328"),
            (Response::ShutdownAck, "4401865dcf137e37e3712a"),
            (
                Response::Metrics {
                    snapshot_json: "{}".into(),
                    prometheus: "# x\n".into(),
                },
                "440987027b7d042320780aeb9c5b8627f524e7",
            ),
        ];
        let got: Vec<String> = cases
            .iter()
            .map(|(resp, _)| hex(&encode_frame(&resp.encode())))
            .collect();
        assert_eq!(got, cases.map(|(_, want)| want));
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
            Err(FrameError::UnexpectedTag(b'S'))
        );
        let mut bad = framed.clone();
        bad[1] = 0xFF;
        bad[2] = 0xFF;
        bad[3] = 0xFF;
        bad[4] = 0x7F;
        assert!(matches!(decode_frame(&bad), Err(FrameError::TooLarge(_))));
        let mut bad = framed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert_eq!(decode_frame(&bad), Err(FrameError::ChecksumMismatch));
        assert_eq!(decode_frame(&framed[..5]), Err(FrameError::Truncated));
        // Flipping the payload byte trips the checksum.
        let mut bad = framed.clone();
        bad[2] ^= 0x40;
        assert_eq!(decode_frame(&bad), Err(FrameError::ChecksumMismatch));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let trailing = DecodeError::TrailingBytes { what: "wire value" };
        let mut payload = Request::Stats.encode();
        payload.push(0);
        assert_eq!(Request::decode(&payload), Err(trailing.clone()));
        let mut payload = Response::ShutdownAck.encode();
        payload.push(0);
        assert_eq!(Response::decode(&payload), Err(trailing));
    }

    #[test]
    fn hostile_counts_and_strings_are_rejected() {
        use sbp_graph::varint::{write_i64, write_u64};
        // Ingest with a crafted huge count: refused by the limit before
        // any vector is sized.
        let mut payload = vec![TAG_INGEST];
        write_u64(&mut payload, u64::MAX);
        assert_eq!(
            Request::decode(&payload),
            Err(out_of_range("ingest delta count"))
        );
        // Under the limit but over the payload.
        let mut payload = vec![TAG_INGEST];
        write_u64(&mut payload, 5);
        assert!(matches!(
            Request::decode(&payload),
            Err(DecodeError::CountExceedsPayload { declared: 5, .. })
        ));
        // Zero delta is non-canonical.
        let mut payload = vec![TAG_INGEST];
        write_u64(&mut payload, 1);
        write_u64(&mut payload, 0);
        write_u64(&mut payload, 1);
        write_i64(&mut payload, 0);
        assert_eq!(
            Request::decode(&payload),
            Err(out_of_range("zero edge delta"))
        );
        // Over-long backend name.
        let req = Request::Repartition {
            mode: RepartitionMode::Warm,
            backend: "x".repeat(MAX_NAME + 1),
        };
        assert_eq!(
            Request::decode(&req.encode()),
            Err(out_of_range("backend name"))
        );
        // Invalid UTF-8 in a checkpoint path.
        let mut payload = vec![TAG_CHECKPOINT];
        write_u64(&mut payload, 2);
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Request::decode(&payload), Err(out_of_range("wire utf8")));
        // Unknown tags, both directions.
        assert_eq!(Request::decode(&[0x77]), Err(out_of_range("request tag")));
        assert_eq!(Response::decode(&[0x10]), Err(out_of_range("response tag")));
        // Empty payloads.
        let empty = DecodeError::Truncated { what: "wire value" };
        assert_eq!(Request::decode(&[]), Err(empty.clone()));
        assert_eq!(Response::decode(&[]), Err(empty));
    }

    /// Every limit and canonical check the encoder cannot trip itself,
    /// crafted by hand: each is a typed error naming its field.
    #[test]
    fn every_protocol_limit_is_a_typed_error() {
        let request = |tag: u8, body: &dyn Fn(&mut Vec<u8>)| {
            let mut payload = vec![tag];
            body(&mut payload);
            Request::decode(&payload)
        };
        let response = |tag: u8, body: &dyn Fn(&mut Vec<u8>)| {
            let mut payload = vec![tag];
            body(&mut payload);
            Response::decode(&payload)
        };
        let text = |len: usize| "x".repeat(len);
        assert_eq!(
            request(TAG_REPARTITION, &|b| {
                b.push(2);
                String::new().wire_write(b);
            }),
            Err(out_of_range("repartition mode byte"))
        );
        assert_eq!(
            request(TAG_CHECKPOINT, &|b| text(MAX_PATH + 1).wire_write(b)),
            Err(out_of_range("checkpoint path"))
        );
        let ids: Vec<u32> = (0..=MAX_IDS as u32).collect();
        assert_eq!(
            request(TAG_MEMBERSHIP, &|b| write_ascending_ids(b, &ids)),
            Err(out_of_range("membership id count"))
        );
        assert_eq!(
            request(TAG_MEMBERSHIP, &|b| b.extend_from_slice(&[2, 0])),
            Err(out_of_range("membership id list"))
        );
        assert_eq!(
            response(TAG_ERROR, &|b| (1u8, text(MAX_MESSAGE + 1)).wire_write(b)),
            Err(out_of_range("error message"))
        );
        assert_eq!(
            response(TAG_MEMBERSHIP_REPLY, &|b| (MAX_IDS as u64 + 1)
                .wire_write(b)),
            Err(out_of_range("membership label count"))
        );
        assert_eq!(
            response(TAG_METRICS_REPLY, &|b| {
                (String::new(), text(MAX_METRICS_TEXT + 1)).wire_write(b)
            }),
            Err(out_of_range("metrics exposition"))
        );
        let stats = StatsReply {
            num_vertices: 1,
            num_blocks: 1,
            dl: 1.0,
            pending_deltas: 0,
            degraded: 0,
            trajectory_tail: vec![
                TrajectoryPoint {
                    num_blocks: 1,
                    dl: 1.0
                };
                MAX_TRAJECTORY + 1
            ],
            backend: text(MAX_NAME),
            uptime_seconds: 0.0,
            ingests: 0,
            repartitions: 0,
        };
        assert_eq!(
            response(TAG_STATS_REPLY, &|b| stats.wire_write(b)),
            Err(out_of_range("trajectory tail length"))
        );
        let stats = StatsReply {
            degraded: 4,
            trajectory_tail: Vec::new(),
            ..stats
        };
        assert_eq!(
            response(TAG_STATS_REPLY, &|b| stats.wire_write(b)),
            Err(out_of_range("degraded byte"))
        );
        let stats = StatsReply {
            degraded: 3,
            backend: text(MAX_NAME + 1),
            ..stats
        };
        assert_eq!(
            response(TAG_STATS_REPLY, &|b| stats.wire_write(b)),
            Err(out_of_range("backend name"))
        );
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
