//! `TcpComm`: a real multi-process transport over `std::net`.
//!
//! The thread cluster ([`crate::thread::ThreadCluster`]) simulates an
//! MPI job inside one process. This module is the *physical* twin: `n`
//! OS processes rendezvous over TCP, establish a full mesh, and run the
//! exact same [`Communicator`] collectives point-to-point. Because every
//! payload travels through the canonical [`crate::wire`] encoding, a TCP
//! cluster produces bit-identical results to the simulator at the same
//! rank count and seed — the property the `tcp` test tree asserts.
//!
//! ## Rendezvous
//!
//! Rank 0 is the coordinator: it binds `coordinator` and waits for one
//! `HELLO{session, rank, ranks, listen_addr, version}` from every other
//! rank. Peers bind their own mesh listener *first*, then dial the
//! coordinator (with bounded retry so start order does not matter) and
//! send HELLO. Once all ranks are present the coordinator answers every
//! peer with `WELCOME{session, peer_listen_addrs}`; invalid HELLOs (wire
//! version, wrong session, duplicate rank, rank out of range, ranks
//! mismatch) are answered with a typed `ERROR` frame and fail the whole
//! rendezvous — a misconfigured launch dies loudly on both ends instead
//! of hanging.
//!
//! After WELCOME, peers complete the mesh: rank `i` dials every rank
//! `j ∈ 1..i` (sending `MESH{session, from, version}`) and accepts
//! connections from every rank `> i`. Listeners exist before any dial
//! happens, so the kernel's listen backlog absorbs all ordering races.
//! Nobody dials rank 0 — the coordinator reuses the HELLO connections as
//! its links. A refused dial retries after 1 ms and an idle accept polls
//! again after 100 µs, each wait doubling up to 50 ms / 5 ms, so a launch
//! pays for the order its processes happened to start in, not a fixed
//! sleep.
//!
//! [`WIRE_VERSION`] names the payload encoding ([`crate::wire`]). HELLO
//! and MESH carry it, and a rank that speaks another version is answered
//! with a typed `ERROR` frame, so a hand-launched cluster that mixes
//! binaries fails at the handshake instead of mis-decoding its first
//! collective. The frame layer and the `ERROR` payload are the same in
//! every version, so an older build still reads why it was turned away.
//!
//! ## Collectives
//!
//! Every collective moves each payload over one link, from the rank that
//! owns it to the rank that needs it; nothing is relayed through a third
//! rank. `allgatherv` encodes and frames its contribution once and sends
//! that frame to every peer; `alltoallv` sends each peer its own frame.
//! Both then receive one frame from every peer in rank order, through one
//! exchange routine: each outgoing frame is first written without
//! blocking, and only what a kernel send buffer refused goes to a scoped
//! writer thread while this thread receives. Every rank therefore keeps
//! reading while its large frames drain, so no payload size deadlocks,
//! and the common small frame spawns nothing. `gatherv` and `broadcast`
//! are one-directional per link and write plainly.
//!
//! ## Frames
//!
//! Every message is one frame of [`sbp_graph::frame`] (the daemon's too),
//! its kind as the tag; this module binds each kind to a seed and a cap.
//! Handshake frames (HELLO/WELCOME/MESH/ERROR) use a fixed public seed so
//! a coordinator can decode a HELLO from a *different session* and reject
//! it with a typed error, while DATA/POISON frames are sealed with the
//! session id — frames from a stale or foreign run are rejected as
//! corrupt rather than silently decoded. Frame and handshake decoders are
//! strict and pure (exported for the fuzz harness): typed [`TcpError`]s,
//! never panics, and no allocation sized by hostile input before it is
//! bounds-checked.
//!
//! ## Failure semantics
//!
//! The coordinated-unwind protocol of the thread cluster carries over:
//! [`Communicator::poison`] writes a POISON frame to every peer, and a
//! rank observing poison unwinds with [`PeerAborted`]. A *link-level*
//! failure (EOF, reset, read timeout, corrupt frame) additionally
//! cascades poison to all other peers before unwinding — a SIGKILLed
//! process cannot poison anyone itself, so its neighbours do it on its
//! behalf, and survivors converge on `PeerAborted` within one bounded
//! read timeout instead of hanging.

use crate::comm::{CommStats, Communicator};
use crate::thread::PeerAborted;
use crate::wire::{self, Wire};
use sbp_graph::frame::{self, concat_sections, split_sections, DecodeError, FrameError, TagRule};
use std::cell::{Cell, RefCell};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::resume_unwind;
use std::time::{Duration, Instant};

/// Frame kind: a collective payload.
pub const KIND_DATA: u8 = 1;
/// Frame kind: coordinated-unwind notice (empty payload).
pub const KIND_POISON: u8 = 2;
/// Frame kind: peer → coordinator rendezvous request.
pub const KIND_HELLO: u8 = 3;
/// Frame kind: coordinator → peer rendezvous acceptance.
pub const KIND_WELCOME: u8 = 4;
/// Frame kind: mesh-connection introduction.
pub const KIND_MESH: u8 = 5;
/// Frame kind: typed rendezvous rejection.
pub const KIND_ERROR: u8 = 6;

/// Hard ceiling on a DATA frame payload (2 GiB). Collective payloads in
/// this workspace are far smaller; anything bigger is corruption.
pub const MAX_FRAME_BYTES: u64 = 1 << 31;

/// Ceiling on handshake frame payloads — a rank map is tiny, so a large
/// declared length on an unauthenticated connection is hostile.
pub const MAX_HANDSHAKE_BYTES: u64 = 1 << 20;

/// Checksum seed for handshake frames. Fixed and public by design: the
/// coordinator must be able to decode a HELLO carrying the *wrong*
/// session id in order to reject it with a typed error.
const HANDSHAKE_SEED: u64 = 0x5b70_7463_7073_6273; // "sbsp tcp" flavored

/// `ERROR` frame code: session id mismatch.
const CODE_WRONG_SESSION: u32 = 1;
/// `ERROR` frame code: two ranks claimed the same id.
const CODE_DUPLICATE_RANK: u32 = 2;
/// `ERROR` frame code: rank outside `0..ranks`.
const CODE_RANK_OUT_OF_RANGE: u32 = 3;
/// `ERROR` frame code: world-size disagreement.
const CODE_RANKS_MISMATCH: u32 = 4;
/// `ERROR` frame code: the peer speaks another [`WIRE_VERSION`].
const CODE_VERSION_MISMATCH: u32 = 5;

/// Version of the payload encoding this build speaks, carried by HELLO
/// and MESH. Version 2 sends byte sequences raw ([`crate::wire`]);
/// version 1 (varint per byte) predates the field, so a handshake without
/// it reads as 1.
pub const WIRE_VERSION: u32 = 2;

/// Anything that can go wrong establishing or using a TCP cluster.
#[derive(Clone, Debug, PartialEq)]
pub enum TcpError {
    /// An OS-level socket error (message carried as text so the error
    /// stays `Clone` + `PartialEq` for tests).
    Io(String),
    /// Could not reach a peer/coordinator within the retry budget.
    ConnectFailed {
        /// The address dialed.
        addr: String,
        /// The last OS error observed.
        detail: String,
    },
    /// A handshake phase exceeded its deadline.
    Timeout {
        /// Which phase timed out.
        what: &'static str,
    },
    /// A frame payload failed strict decoding.
    BadFrame(DecodeError),
    /// A frame failed the frame layer: truncated, a kind not expected
    /// here, over its cap, or sealed for another session.
    Frame(FrameError),
    /// HELLO/MESH carried a different session id.
    WrongSession {
        /// This process's session id.
        expected: u64,
        /// The session id on the wire.
        got: u64,
    },
    /// Two connections claimed the same rank.
    DuplicateRank {
        /// The contested rank.
        rank: usize,
    },
    /// A rank id outside `0..ranks`.
    RankOutOfRange {
        /// The claimed rank.
        rank: usize,
        /// The world size.
        ranks: usize,
    },
    /// Peers disagree about the world size.
    RanksMismatch {
        /// This process's world size.
        expected: usize,
        /// The world size on the wire.
        got: usize,
    },
    /// The coordinator rejected this rank's HELLO with a typed ERROR
    /// frame.
    Rejected {
        /// The machine-readable rejection code (`CODE_*`).
        code: u32,
        /// Human-readable detail from the coordinator.
        message: String,
    },
    /// The [`TcpConfig`] itself is unusable (bad rank/ranks/address).
    BadConfig(String),
    /// HELLO/MESH carried another [`WIRE_VERSION`]: the two processes
    /// run builds that encode payloads differently.
    VersionMismatch {
        /// This process's wire version.
        expected: u32,
        /// The wire version on the wire.
        got: u32,
    },
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(msg) => write!(f, "socket error: {msg}"),
            TcpError::ConnectFailed { addr, detail } => {
                write!(f, "could not connect to {addr}: {detail}")
            }
            TcpError::Timeout { what } => write!(f, "{what} timed out"),
            TcpError::BadFrame(e) => write!(f, "malformed frame: {e}"),
            TcpError::Frame(e) => write!(f, "{e}"),
            TcpError::WrongSession { expected, got } => {
                write!(
                    f,
                    "session mismatch: ours {expected:#x}, peer sent {got:#x}"
                )
            }
            TcpError::DuplicateRank { rank } => {
                write!(f, "two connections claimed rank {rank}")
            }
            TcpError::RankOutOfRange { rank, ranks } => {
                write!(f, "rank {rank} outside world of {ranks}")
            }
            TcpError::RanksMismatch { expected, got } => {
                write!(f, "world-size mismatch: ours {expected}, peer sent {got}")
            }
            TcpError::Rejected { code, message } => {
                write!(f, "coordinator rejected handshake (code {code}): {message}")
            }
            TcpError::BadConfig(msg) => write!(f, "bad cluster config: {msg}"),
            TcpError::VersionMismatch { expected, got } => {
                write!(f, "wire version mismatch: ours {expected}, peer sent {got}")
            }
        }
    }
}

impl std::error::Error for TcpError {}

impl From<io::Error> for TcpError {
    fn from(e: io::Error) -> Self {
        TcpError::Io(e.to_string())
    }
}

impl From<DecodeError> for TcpError {
    fn from(e: DecodeError) -> Self {
        TcpError::BadFrame(e)
    }
}

/// The seed and cap of a frame of `kind`: DATA/POISON are sealed with the
/// session id under [`MAX_FRAME_BYTES`], handshake frames with the public
/// seed under [`MAX_HANDSHAKE_BYTES`]; other kinds are refused.
fn frame_rule(session: u64, kind: u8) -> Option<TagRule> {
    let (seed, cap) = match kind {
        KIND_DATA | KIND_POISON => (session, MAX_FRAME_BYTES),
        KIND_HELLO..=KIND_ERROR => (HANDSHAKE_SEED, MAX_HANDSHAKE_BYTES),
        _ => return None,
    };
    Some(TagRule { seed, cap })
}

/// Encodes one frame of `kind` for `session`.
pub fn encode_frame(session: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    let seed = frame_rule(session, kind).map_or(HANDSHAKE_SEED, |rule| rule.seed);
    frame::encode_frame(seed, kind, payload)
}

/// Decodes exactly one frame from a byte slice, rejecting trailing bytes
/// (exported for the fuzz harness).
pub fn decode_frame(session: u64, buf: &[u8]) -> Result<(u8, Vec<u8>), TcpError> {
    match frame::decode_frame(buf, |kind| frame_rule(session, kind)).map_err(TcpError::Frame)? {
        (kind, payload, used) if used == buf.len() => Ok((kind, payload)),
        _ => Err(TcpError::BadFrame(DecodeError::TrailingBytes {
            what: "tcp frame",
        })),
    }
}

/// Reads one frame of one of `kinds` off a stream: any other kind is
/// refused before its payload is read, and a stream that ends first is
/// truncation.
fn read_frame<R: Read>(r: &mut R, session: u64, kinds: &[u8]) -> Result<(u8, Vec<u8>), TcpError> {
    let rule = |kind| frame_rule(session, kind).filter(|_| kinds.contains(&kind));
    frame::read_frame(r, rule)
        .and_then(|frame| frame.ok_or(FrameError::Truncated))
        .map_err(TcpError::Frame)
}

/// A peer's rendezvous request.
#[derive(Clone, Debug, PartialEq)]
pub struct Hello {
    /// Session id the peer was launched with.
    pub session: u64,
    /// The rank this connection claims.
    pub rank: usize,
    /// The world size the peer believes in.
    pub ranks: usize,
    /// Address the peer's mesh listener is bound to.
    pub listen: String,
    /// The [`WIRE_VERSION`] the peer speaks.
    pub version: u32,
}

/// Encodes a HELLO payload (session framing via [`concat_sections`]).
pub fn encode_hello(h: &Hello) -> Vec<u8> {
    let head = wire::encode(&(h.session, h.rank as u64, h.ranks as u64, h.version));
    concat_sections([&head, h.listen.as_bytes()])
}

/// Reads the version that ends a HELLO head or a MESH payload at `pos`.
/// A payload that ends before it comes from a build older than the
/// field, which spoke version 1.
fn read_version(buf: &[u8], mut pos: usize) -> Result<u32, TcpError> {
    if pos == buf.len() {
        return Ok(1);
    }
    let version = u32::wire_read(buf, &mut pos)?;
    if pos != buf.len() {
        return Err(TcpError::BadFrame(DecodeError::TrailingBytes {
            what: "handshake version",
        }));
    }
    Ok(version)
}

/// Strictly decodes a HELLO payload.
pub fn decode_hello(buf: &[u8]) -> Result<Hello, TcpError> {
    let [head, listen] = split_sections::<2>(buf)?;
    let mut pos = 0;
    let (session, rank, ranks) = <(u64, u64, u64)>::wire_read(head, &mut pos)?;
    let version = read_version(head, pos)?;
    let listen = std::str::from_utf8(listen)
        .map_err(|_| TcpError::BadFrame(DecodeError::ValueOutOfRange { what: "hello addr" }))?
        .to_string();
    let to_usize = |v: u64| {
        usize::try_from(v)
            .map_err(|_| TcpError::BadFrame(DecodeError::ValueOutOfRange { what: "hello rank" }))
    };
    Ok(Hello {
        session,
        rank: to_usize(rank)?,
        ranks: to_usize(ranks)?,
        listen,
        version,
    })
}

/// The coordinator's rendezvous acceptance: the full rank → listen-addr
/// map (slot 0 is empty; nobody dials the coordinator's mesh slot).
#[derive(Clone, Debug, PartialEq)]
pub struct Welcome {
    /// Session id, echoed for confirmation.
    pub session: u64,
    /// Mesh listener address of every rank, indexed by rank.
    pub peers: Vec<String>,
}

/// Encodes a WELCOME payload.
pub fn encode_welcome(w: &Welcome) -> Vec<u8> {
    concat_sections([&wire::encode(&w.session), &wire::encode(&w.peers)])
}

/// Strictly decodes a WELCOME payload.
pub fn decode_welcome(buf: &[u8]) -> Result<Welcome, TcpError> {
    let [head, peers] = split_sections::<2>(buf)?;
    Ok(Welcome {
        session: wire::decode(head)?,
        peers: wire::decode(peers)?,
    })
}

/// Encodes a MESH payload: `(session, from_rank, version)`.
fn encode_mesh(session: u64, from: u64, version: u32) -> Vec<u8> {
    wire::encode(&(session, from, version))
}

/// Strictly decodes a MESH payload into `(session, from_rank, version)`.
pub fn decode_mesh(buf: &[u8]) -> Result<(u64, u64, u32), TcpError> {
    let mut pos = 0;
    let (session, from) = <(u64, u64)>::wire_read(buf, &mut pos)?;
    Ok((session, from, read_version(buf, pos)?))
}

/// Strictly decodes an ERROR payload into `(code, message)`.
pub fn decode_error_frame(buf: &[u8]) -> Result<(u32, String), TcpError> {
    Ok(wire::decode(buf)?)
}

/// Configuration for joining a TCP cluster.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Shared session id; all ranks must agree (seeds DATA checksums).
    pub session: u64,
    /// This process's rank, `0..ranks`. Rank 0 is the coordinator.
    pub rank: usize,
    /// World size.
    pub ranks: usize,
    /// `host:port` the coordinator binds (rank 0) / dials (others).
    pub coordinator: String,
    /// Host the mesh listener binds on (always port 0 → ephemeral).
    pub listen_host: String,
    /// Deadline for the whole rendezvous + mesh establishment.
    pub handshake_timeout: Duration,
    /// Retry budget for dialing a not-yet-listening peer.
    pub connect_timeout: Duration,
    /// Post-handshake read/write backstop: a rank blocked longer than
    /// this on one peer treats the link as dead (poison-cascades and
    /// unwinds with [`PeerAborted`]). `None` means block forever.
    pub read_timeout: Option<Duration>,
}

impl TcpConfig {
    /// A config with production-grade default timeouts.
    pub fn new(session: u64, rank: usize, ranks: usize, coordinator: impl Into<String>) -> Self {
        TcpConfig {
            session,
            rank,
            ranks,
            coordinator: coordinator.into(),
            listen_host: "127.0.0.1".to_string(),
            handshake_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(10),
            read_timeout: Some(Duration::from_secs(120)),
        }
    }
}

/// One established peer connection. The writer half is the stream
/// itself; the reader half wraps a kernel-level clone in a `BufReader`,
/// because the frame parser reads the varint header a byte at a time.
struct Link {
    writer: TcpStream,
    reader: RefCell<BufReader<TcpStream>>,
}

impl Link {
    fn new(stream: TcpStream) -> Result<Link, TcpError> {
        let clone = stream.try_clone()?;
        Ok(Link {
            writer: stream,
            reader: RefCell::new(BufReader::new(clone)),
        })
    }
}

/// A real multi-process communicator over TCP. See the module docs for
/// the rendezvous and failure protocols.
pub struct TcpComm {
    rank: usize,
    size: usize,
    session: u64,
    /// Peer links indexed by rank; `None` at our own slot (and
    /// everywhere when `size == 1`).
    links: Vec<Option<Link>>,
    started: Instant,
    stats: Cell<CommStats>,
}

/// Dials `addr` with bounded retry, for peers that may not be listening
/// yet (start order is unconstrained).
fn dial_retry(addr: &str, budget: Duration) -> Result<TcpStream, TcpError> {
    let deadline = Instant::now() + budget;
    let mut last = String::from("no address resolved");
    let mut backoff = Duration::from_millis(1);
    loop {
        match addr.to_socket_addrs() {
            Ok(mut addrs) => {
                if let Some(sa) = addrs.next() {
                    let attempt = Duration::from_millis(250)
                        .min(deadline.saturating_duration_since(Instant::now()))
                        .max(Duration::from_millis(10));
                    match TcpStream::connect_timeout(&sa, attempt) {
                        Ok(s) => return Ok(s),
                        Err(e) => last = e.to_string(),
                    }
                }
            }
            Err(e) => {
                return Err(TcpError::BadConfig(format!("cannot resolve {addr}: {e}")));
            }
        }
        if Instant::now() >= deadline {
            return Err(TcpError::ConnectFailed {
                addr: addr.to_string(),
                detail: last,
            });
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_millis(50));
    }
}

/// Accepts one connection from a non-blocking listener before
/// `deadline`, returning the stream switched back to blocking mode.
fn accept_deadline(
    listener: &TcpListener,
    deadline: Instant,
    what: &'static str,
) -> Result<(TcpStream, SocketAddr), TcpError> {
    let mut backoff = Duration::from_micros(100);
    loop {
        match listener.accept() {
            Ok((stream, addr)) => {
                // Non-blocking status inheritance is platform-dependent:
                // force the accepted socket into blocking mode.
                stream.set_nonblocking(false)?;
                return Ok((stream, addr));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(TcpError::Timeout { what });
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(5));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

fn send_error_frame(stream: &mut TcpStream, code: u32, message: &str) {
    let payload = wire::encode(&(code, message.to_string()));
    let frame = encode_frame(0, KIND_ERROR, &payload);
    let _ = stream.write_all(&frame);
}

/// Rank 0: collect HELLOs, validate, answer with WELCOMEs. Returns the
/// per-rank links (slot 0 = `None`).
fn coordinator_handshake(cfg: &TcpConfig) -> Result<Vec<Option<Link>>, TcpError> {
    let listener = TcpListener::bind(&cfg.coordinator)
        .map_err(|e| TcpError::BadConfig(format!("cannot bind {}: {e}", cfg.coordinator)))?;
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + cfg.handshake_timeout;

    let mut hellos: Vec<Option<(TcpStream, String)>> = Vec::new();
    hellos.resize_with(cfg.ranks, || None);
    let mut present = 0usize;
    while present + 1 < cfg.ranks {
        let (mut stream, _) = accept_deadline(&listener, deadline, "rendezvous accept")?;
        stream.set_read_timeout(Some(cfg.handshake_timeout))?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let (_, payload) = read_frame(&mut reader, cfg.session, &[KIND_HELLO])?;
        let hello = decode_hello(&payload)?;
        if hello.version != WIRE_VERSION {
            let err = TcpError::VersionMismatch {
                expected: WIRE_VERSION,
                got: hello.version,
            };
            send_error_frame(&mut stream, CODE_VERSION_MISMATCH, &err.to_string());
            return Err(err);
        }
        if hello.session != cfg.session {
            let err = TcpError::WrongSession {
                expected: cfg.session,
                got: hello.session,
            };
            send_error_frame(&mut stream, CODE_WRONG_SESSION, &err.to_string());
            return Err(err);
        }
        if hello.rank == 0 || hello.rank >= cfg.ranks {
            let err = TcpError::RankOutOfRange {
                rank: hello.rank,
                ranks: cfg.ranks,
            };
            send_error_frame(&mut stream, CODE_RANK_OUT_OF_RANGE, &err.to_string());
            return Err(err);
        }
        if hello.ranks != cfg.ranks {
            let err = TcpError::RanksMismatch {
                expected: cfg.ranks,
                got: hello.ranks,
            };
            send_error_frame(&mut stream, CODE_RANKS_MISMATCH, &err.to_string());
            return Err(err);
        }
        if hellos[hello.rank].is_some() {
            let err = TcpError::DuplicateRank { rank: hello.rank };
            send_error_frame(&mut stream, CODE_DUPLICATE_RANK, &err.to_string());
            return Err(err);
        }
        hellos[hello.rank] = Some((stream, hello.listen));
        present += 1;
    }

    let mut peers = vec![String::new(); cfg.ranks];
    for (r, slot) in hellos.iter().enumerate().skip(1) {
        peers[r] = slot.as_ref().expect("all ranks present").1.clone();
    }
    let welcome = encode_frame(
        cfg.session,
        KIND_WELCOME,
        &encode_welcome(&Welcome {
            session: cfg.session,
            peers,
        }),
    );
    let mut links: Vec<Option<Link>> = Vec::new();
    links.resize_with(cfg.ranks, || None);
    for (r, slot) in hellos.into_iter().enumerate().skip(1) {
        let (mut stream, _) = slot.expect("all ranks present");
        stream.write_all(&welcome)?;
        links[r] = Some(Link::new(stream)?);
    }
    Ok(links)
}

/// Ranks 1..n: dial the coordinator, HELLO, await WELCOME, then build
/// the mesh (dial lower ranks, accept higher ranks).
fn peer_handshake(cfg: &TcpConfig) -> Result<Vec<Option<Link>>, TcpError> {
    // Bind the mesh listener *before* announcing its address.
    let listener = TcpListener::bind((cfg.listen_host.as_str(), 0u16))
        .map_err(|e| TcpError::BadConfig(format!("cannot bind {}: {e}", cfg.listen_host)))?;
    let listen = listener.local_addr()?.to_string();
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + cfg.handshake_timeout;

    let mut coord = dial_retry(&cfg.coordinator, cfg.connect_timeout)?;
    coord.set_nodelay(true)?;
    coord.set_read_timeout(Some(cfg.handshake_timeout))?;
    let hello = Hello {
        session: cfg.session,
        rank: cfg.rank,
        ranks: cfg.ranks,
        listen,
        version: WIRE_VERSION,
    };
    coord.write_all(&encode_frame(
        cfg.session,
        KIND_HELLO,
        &encode_hello(&hello),
    ))?;
    let mut coord_reader = BufReader::new(coord.try_clone()?);
    let welcome = match read_frame(&mut coord_reader, cfg.session, &[KIND_WELCOME, KIND_ERROR])? {
        (KIND_WELCOME, payload) => decode_welcome(&payload)?,
        (_, payload) => {
            let (code, message) = decode_error_frame(&payload)?;
            return Err(TcpError::Rejected { code, message });
        }
    };
    if welcome.session != cfg.session {
        return Err(TcpError::WrongSession {
            expected: cfg.session,
            got: welcome.session,
        });
    }
    if welcome.peers.len() != cfg.ranks {
        return Err(TcpError::RanksMismatch {
            expected: cfg.ranks,
            got: welcome.peers.len(),
        });
    }

    let mut links: Vec<Option<Link>> = Vec::new();
    links.resize_with(cfg.ranks, || None);
    // Dial every lower rank (but never rank 0 — that link already
    // exists: the HELLO connection).
    let mesh_payload = encode_mesh(cfg.session, cfg.rank as u64, WIRE_VERSION);
    for (j, slot) in links.iter_mut().enumerate().take(cfg.rank).skip(1) {
        let mut stream = dial_retry(&welcome.peers[j], cfg.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.write_all(&encode_frame(cfg.session, KIND_MESH, &mesh_payload))?;
        *slot = Some(Link::new(stream)?);
    }
    // Accept every higher rank, in whatever order they arrive.
    let mut expected = cfg.ranks - 1 - cfg.rank;
    while expected > 0 {
        let (mut stream, _) = accept_deadline(&listener, deadline, "mesh accept")?;
        stream.set_read_timeout(Some(cfg.handshake_timeout))?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let (_, payload) = read_frame(&mut reader, cfg.session, &[KIND_MESH])?;
        let (session, from, version) = decode_mesh(&payload)?;
        if version != WIRE_VERSION {
            let err = TcpError::VersionMismatch {
                expected: WIRE_VERSION,
                got: version,
            };
            send_error_frame(&mut stream, CODE_VERSION_MISMATCH, &err.to_string());
            return Err(err);
        }
        if session != cfg.session {
            return Err(TcpError::WrongSession {
                expected: cfg.session,
                got: session,
            });
        }
        let from = usize::try_from(from).unwrap_or(usize::MAX);
        if from <= cfg.rank || from >= cfg.ranks {
            return Err(TcpError::RankOutOfRange {
                rank: from,
                ranks: cfg.ranks,
            });
        }
        if links[from].is_some() {
            return Err(TcpError::DuplicateRank { rank: from });
        }
        links[from] = Some(Link {
            writer: stream,
            reader: RefCell::new(reader),
        });
        expected -= 1;
    }
    links[0] = Some(Link {
        writer: coord,
        reader: RefCell::new(coord_reader),
    });
    Ok(links)
}

impl TcpComm {
    /// Joins (or, for rank 0, coordinates) a TCP cluster. Blocks until
    /// the full mesh is established or a typed error is known.
    pub fn connect(cfg: &TcpConfig) -> Result<TcpComm, TcpError> {
        if cfg.ranks == 0 {
            return Err(TcpError::BadConfig("ranks must be >= 1".to_string()));
        }
        if cfg.rank >= cfg.ranks {
            return Err(TcpError::BadConfig(format!(
                "rank {} outside world of {}",
                cfg.rank, cfg.ranks
            )));
        }
        let links = if cfg.ranks == 1 {
            Vec::new()
        } else if cfg.rank == 0 {
            coordinator_handshake(cfg)?
        } else {
            peer_handshake(cfg)?
        };
        // Switch every link from handshake deadlines to the steady-state
        // backstop.
        for link in links.iter().flatten() {
            link.writer.set_read_timeout(cfg.read_timeout)?;
            link.writer.set_write_timeout(cfg.read_timeout)?;
        }
        Ok(TcpComm {
            rank: cfg.rank,
            size: cfg.ranks,
            session: cfg.session,
            links,
            started: Instant::now(),
            stats: Cell::new(CommStats::default()),
        })
    }

    fn link(&self, peer: usize) -> &Link {
        self.links[peer]
            .as_ref()
            .expect("no link to self or out-of-range peer")
    }

    fn bump(&self, sent: u64, received: u64) {
        let mut s = self.stats.get();
        s.bytes_sent += sent;
        s.bytes_received += received;
        self.stats.set(s);
    }

    fn bump_collective(&self) {
        let mut s = self.stats.get();
        s.collectives += 1;
        self.stats.set(s);
    }

    /// Writes POISON to every peer except `skip` (best-effort).
    fn poison_peers(&self, skip: Option<usize>) {
        let frame = encode_frame(self.session, KIND_POISON, &[]);
        for (r, link) in self.links.iter().enumerate() {
            if Some(r) == skip {
                continue;
            }
            if let Some(l) = link {
                let _ = (&l.writer).write_all(&frame);
            }
        }
    }

    /// Link-level failure on the connection to `from`: cascade poison to
    /// everyone else (the failed peer may be SIGKILLed and unable to
    /// poison anyone itself), then unwind.
    fn fail_link(&self, from: usize) -> ! {
        self.poison_peers(Some(from));
        resume_unwind(Box::new(PeerAborted { from }))
    }

    /// Sends one DATA frame carrying `payload` to `dest`.
    fn send_bytes(&self, dest: usize, payload: &[u8]) {
        let frame = encode_frame(self.session, KIND_DATA, payload);
        if (&self.link(dest).writer).write_all(&frame).is_err() {
            self.fail_link(dest);
        }
        self.bump(payload.len() as u64, 0);
    }

    /// Receives one DATA frame from `src`. POISON unwinds (no cascade —
    /// the originator reached every peer directly); any link failure
    /// cascades then unwinds.
    fn recv_bytes(&self, src: usize) -> Vec<u8> {
        let link = self.link(src);
        let mut reader = link.reader.borrow_mut();
        match read_frame(&mut *reader, self.session, &[KIND_DATA, KIND_POISON]) {
            Ok((KIND_DATA, payload)) => {
                drop(reader);
                self.bump(0, payload.len() as u64);
                payload
            }
            Ok((KIND_POISON, _)) => {
                drop(reader);
                resume_unwind(Box::new(PeerAborted { from: src }))
            }
            Ok(_) | Err(_) => {
                drop(reader);
                self.fail_link(src)
            }
        }
    }

    /// Decodes a received payload; corrupt data from an established peer
    /// is a link failure, not a recoverable error.
    fn decode_or_fail<T: Wire>(&self, src: usize, payload: &[u8]) -> T {
        match wire::decode(payload) {
            Ok(v) => v,
            Err(_) => self.fail_link(src),
        }
    }

    /// The exchange behind `allgatherv` and `alltoallv`: writes each
    /// `(dest, frame)` of `outgoing` to its peer and receives one payload
    /// from every peer in rank order, returning them by rank with `own`
    /// in this rank's slot.
    ///
    /// Every frame is first written without blocking. What a kernel send
    /// buffer refused goes to one scoped writer thread while this thread
    /// receives, so every rank keeps reading while its large frames drain
    /// and two ranks writing to each other cannot deadlock, whatever the
    /// sizes. Frames the kernel took whole, the usual case, spawn nothing.
    fn exchange<'a, T: Wire>(
        &self,
        own: Vec<T>,
        outgoing: impl IntoIterator<Item = (usize, &'a [u8])>,
    ) -> Vec<Vec<T>> {
        let mut rest: Vec<(&TcpStream, &[u8])> = Vec::new();
        for (dest, frame) in outgoing {
            let stream = &self.link(dest).writer;
            match write_nonblocking(stream, frame) {
                Ok(sent) if sent < frame.len() => rest.push((stream, &frame[sent..])),
                Ok(_) => {}
                Err(_) => self.fail_link(dest),
            }
        }
        if rest.is_empty() {
            return self.receive_all(own);
        }
        std::thread::scope(|scope| {
            let writer = scope.spawn(move || {
                rest.into_iter()
                    .all(|(mut stream, bytes)| stream.write_all(bytes).is_ok())
            });
            let received = self.receive_all(own);
            if !writer.join().unwrap_or(false) {
                // A write failed: some peer is gone. The reads above
                // happened to succeed, but the schedule is broken.
                self.poison_peers(None);
                resume_unwind(Box::new(PeerAborted { from: self.rank }));
            }
            received
        })
    }

    /// Receives and decodes one payload from every peer in rank order,
    /// with `own` in this rank's slot.
    fn receive_all<T: Wire>(&self, own: Vec<T>) -> Vec<Vec<T>> {
        let mut own = Some(own);
        (0..self.size)
            .map(|src| {
                if src == self.rank {
                    own.take().expect("own slot visited once")
                } else {
                    let payload = self.recv_bytes(src);
                    self.decode_or_fail(src, &payload)
                }
            })
            .collect()
    }
}

/// Writes as much of `bytes` as `stream` takes without blocking and
/// returns how much that was. The stream is in blocking mode again on
/// return (the flag is shared with the link's reader half).
fn write_nonblocking(stream: &TcpStream, bytes: &[u8]) -> io::Result<usize> {
    stream.set_nonblocking(true)?;
    let mut sent = 0;
    let result = loop {
        if sent == bytes.len() {
            break Ok(sent);
        }
        match (&*stream).write(&bytes[sent..]) {
            Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(sent),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    stream.set_nonblocking(false)?;
    result
}

impl Communicator for TcpComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn allgatherv<T: Clone + Send + Wire + 'static>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        self.bump_collective();
        if self.size == 1 {
            return vec![local];
        }
        let payload = wire::encode(&local);
        self.bump((self.size as u64 - 1) * payload.len() as u64, 0);
        let frame = encode_frame(self.session, KIND_DATA, &payload);
        drop(payload);
        let peers = (0..self.size).filter(|&dest| dest != self.rank);
        self.exchange(local, peers.map(|dest| (dest, &frame[..])))
    }

    fn alltoallv<T: Clone + Send + Wire + 'static>(&self, per_dest: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(per_dest.len(), self.size, "one destination vector per rank");
        self.bump_collective();
        if self.size == 1 {
            return per_dest;
        }
        let mut own = Vec::new();
        let mut frames: Vec<(usize, Vec<u8>)> = Vec::with_capacity(self.size - 1);
        for (dest, chunk) in per_dest.into_iter().enumerate() {
            if dest == self.rank {
                own = chunk;
            } else {
                let payload = wire::encode(&chunk);
                self.bump(payload.len() as u64, 0);
                frames.push((dest, encode_frame(self.session, KIND_DATA, &payload)));
            }
        }
        self.exchange(own, frames.iter().map(|(dest, frame)| (*dest, &frame[..])))
    }

    fn gatherv<T: Clone + Send + Wire + 'static>(
        &self,
        root: usize,
        local: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        assert!(root < self.size, "gather root out of range");
        self.bump_collective();
        if self.size == 1 {
            return Some(vec![local]);
        }
        if self.rank == root {
            let mut all: Vec<Vec<T>> = Vec::with_capacity(self.size);
            for src in 0..self.size {
                if src == root {
                    all.push(local.clone());
                } else {
                    let payload = self.recv_bytes(src);
                    all.push(self.decode_or_fail::<Vec<T>>(src, &payload));
                }
            }
            Some(all)
        } else {
            self.send_bytes(root, &wire::encode(&local));
            None
        }
    }

    fn broadcast<T: Clone + Send + Wire + 'static>(&self, root: usize, data: Option<T>) -> T {
        assert!(root < self.size, "broadcast root out of range");
        self.bump_collective();
        if self.rank == root {
            let value = data.expect("broadcast root must supply data");
            if self.size > 1 {
                let encoded = wire::encode(&value);
                for dest in 0..self.size {
                    if dest != root {
                        self.send_bytes(dest, &encoded);
                    }
                }
            }
            value
        } else {
            let payload = self.recv_bytes(root);
            self.decode_or_fail::<T>(root, &payload)
        }
    }

    fn virtual_time(&self) -> f64 {
        // On a real transport the "virtual" clock *is* wall time.
        self.started.elapsed().as_secs_f64()
    }

    fn stats(&self) -> CommStats {
        self.stats.get()
    }

    fn poison(&self) {
        self.poison_peers(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Reserves a localhost `host:port` by binding an ephemeral port and
    /// immediately releasing it.
    fn free_addr() -> String {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        l.local_addr().expect("local addr").to_string()
    }

    fn test_cfg(session: u64, rank: usize, ranks: usize, coordinator: &str) -> TcpConfig {
        let mut cfg = TcpConfig::new(session, rank, ranks, coordinator);
        cfg.handshake_timeout = Duration::from_secs(10);
        cfg.connect_timeout = Duration::from_secs(5);
        cfg.read_timeout = Some(Duration::from_secs(10));
        cfg
    }

    /// Runs `f` on `n` connected TCP ranks (threads in this process) and
    /// returns the per-rank results in rank order.
    fn tcp_cluster<R: Send>(n: usize, f: impl Fn(&TcpComm) -> R + Sync) -> Vec<R> {
        let coordinator = free_addr();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let coordinator = coordinator.clone();
                    let f = &f;
                    scope.spawn(move || {
                        let cfg = test_cfg(0xDEAD_BEEF, rank, n, &coordinator);
                        let comm = TcpComm::connect(&cfg).expect("connect");
                        f(&comm)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank"))
                .collect()
        })
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The cluster wire did not move when its frame moved to
    /// `sbp_graph::frame`: these are the bytes the codec that used to
    /// live in this module wrote, a DATA frame and a HELLO frame.
    #[test]
    fn frame_bytes_are_pinned() {
        let session = 0x0123_4567_89ab_cdef;
        let data = encode_frame(session, KIND_DATA, &wire::encode(&vec![1u64, 2, 300]));
        assert_eq!(hex(&data), "0105030102ac02ba3a19abbc6d6551");
        let hello = Hello {
            session,
            rank: 1,
            ranks: 2,
            listen: "127.0.0.1:7000".to_string(),
            version: WIRE_VERSION,
        };
        assert_eq!(
            hex(&encode_frame(session, KIND_HELLO, &encode_hello(&hello))),
            "031b0cef9bafcdf8acd191010102023132372e302e302e313a3730303077d5eec74efc84f4"
        );
    }

    /// The frame layer itself is `sbp_graph::frame`'s (truncation, bit
    /// flips, clean EOF are tested there); this module binds each kind to
    /// its seed and cap and forbids trailing bytes.
    #[test]
    fn frames_bind_each_kind_to_its_seed_and_cap() {
        let frame = encode_frame(7, KIND_DATA, b"hello frames");
        assert_eq!(
            decode_frame(7, &frame),
            Ok((KIND_DATA, b"hello frames".to_vec()))
        );
        // Data frames are sealed with the session, handshake frames not.
        assert_eq!(
            decode_frame(8, &frame),
            Err(TcpError::Frame(FrameError::ChecksumMismatch))
        );
        assert!(decode_frame(8, &encode_frame(7, KIND_HELLO, b"hi")).is_ok());
        let mut long = frame.clone();
        long.push(0);
        assert!(matches!(
            decode_frame(7, &long),
            Err(TcpError::BadFrame(DecodeError::TrailingBytes { .. }))
        ));
        assert_eq!(
            decode_frame(7, &[99, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(TcpError::Frame(FrameError::UnexpectedTag(99)))
        );
        // A known kind the protocol point does not expect is refused the
        // same way, before its payload is read.
        assert_eq!(
            read_frame(&mut &frame[..], 7, &[KIND_HELLO]),
            Err(TcpError::Frame(FrameError::UnexpectedTag(KIND_DATA)))
        );
        // A length past the handshake cap is refused on a HELLO header
        // alone; on a DATA header it is merely short of bytes.
        let over = MAX_HANDSHAKE_BYTES + 1;
        for (kind, want) in [
            (KIND_HELLO, FrameError::TooLarge(over)),
            (KIND_DATA, FrameError::Truncated),
        ] {
            let mut header = vec![kind];
            sbp_graph::varint::write_u64(&mut header, over);
            assert_eq!(decode_frame(7, &header), Err(TcpError::Frame(want)));
        }
    }

    #[test]
    fn handshake_payloads_roundtrip() {
        let h = Hello {
            session: 42,
            rank: 3,
            ranks: 8,
            listen: "127.0.0.1:5555".to_string(),
            version: WIRE_VERSION,
        };
        assert_eq!(decode_hello(&encode_hello(&h)).expect("hello"), h);
        let w = Welcome {
            session: 42,
            peers: vec![String::new(), "127.0.0.1:1".into(), "127.0.0.1:2".into()],
        };
        assert_eq!(decode_welcome(&encode_welcome(&w)).expect("welcome"), w);
        assert_eq!(
            decode_mesh(&encode_mesh(42, 3, WIRE_VERSION)).expect("mesh"),
            (42, 3, WIRE_VERSION)
        );
        // A build from before the version field sent neither; it reads as
        // version 1, so it is turned away by name, not mis-decoded.
        let (old_hello, old_mesh) = unversioned_handshake(&h);
        assert_eq!(decode_hello(&old_hello).expect("old hello").version, 1);
        assert_eq!(decode_mesh(&old_mesh).expect("old mesh"), (42, 3, 1));
        // Anything after the version is still trailing garbage.
        let mut long = encode_mesh(42, 3, WIRE_VERSION);
        long.push(0);
        assert!(matches!(
            decode_mesh(&long),
            Err(TcpError::BadFrame(DecodeError::TrailingBytes { .. }))
        ));
    }

    /// The HELLO and MESH payloads of a build that predates
    /// [`WIRE_VERSION`].
    fn unversioned_handshake(h: &Hello) -> (Vec<u8>, Vec<u8>) {
        let head = wire::encode(&(h.session, h.rank as u64, h.ranks as u64));
        (
            concat_sections([&head, h.listen.as_bytes()]),
            wire::encode(&(h.session, h.rank as u64)),
        )
    }

    /// Reads the `ERROR` frame a rejected handshake was answered with.
    fn read_rejection(stream: &TcpStream) -> (u32, String) {
        let (kind, payload) =
            read_frame(&mut BufReader::new(stream), 0, &[KIND_ERROR]).expect("an ERROR frame");
        assert_eq!(kind, KIND_ERROR);
        decode_error_frame(&payload).expect("ERROR payload")
    }

    #[test]
    fn version_mismatch_is_rejected_on_both_ends() {
        let hello = Hello {
            session: 11,
            rank: 1,
            ranks: 2,
            listen: "127.0.0.1:9".to_string(),
            version: WIRE_VERSION + 1,
        };
        let (unversioned, _) = unversioned_handshake(&hello);
        for (payload, got) in [(encode_hello(&hello), WIRE_VERSION + 1), (unversioned, 1)] {
            let coordinator = free_addr();
            let (coord_res, rejection) = std::thread::scope(|scope| {
                let c = coordinator.clone();
                let coord = scope.spawn(move || TcpComm::connect(&test_cfg(11, 0, 2, &c)));
                let mut peer =
                    dial_retry(&coordinator, Duration::from_secs(5)).expect("dial coordinator");
                peer.write_all(&encode_frame(11, KIND_HELLO, &payload))
                    .expect("send HELLO");
                (coord.join().expect("coord"), read_rejection(&peer))
            });
            assert_eq!(
                coord_res.err(),
                Some(TcpError::VersionMismatch {
                    expected: WIRE_VERSION,
                    got
                })
            );
            assert_eq!(rejection.0, CODE_VERSION_MISMATCH);
            assert!(rejection.1.contains("wire version"), "{}", rejection.1);
        }
    }

    #[test]
    fn mesh_version_mismatch_is_rejected_on_both_ends() {
        // Rank 2 is played by hand: a current HELLO gets it the WELCOME,
        // then it introduces itself to rank 1 with another version.
        let coordinator = free_addr();
        let session = 12;
        let (coord_res, rank1_res, rejection) = std::thread::scope(|scope| {
            let c = coordinator.clone();
            let coord = scope.spawn(move || TcpComm::connect(&test_cfg(session, 0, 3, &c)));
            let c = coordinator.clone();
            let rank1 = scope.spawn(move || TcpComm::connect(&test_cfg(session, 1, 3, &c)));
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let hello = Hello {
                session,
                rank: 2,
                ranks: 3,
                listen: listener.local_addr().expect("addr").to_string(),
                version: WIRE_VERSION,
            };
            let mut coord_link =
                dial_retry(&coordinator, Duration::from_secs(5)).expect("dial coordinator");
            coord_link
                .write_all(&encode_frame(session, KIND_HELLO, &encode_hello(&hello)))
                .expect("send HELLO");
            let (kind, payload) =
                read_frame(&mut BufReader::new(&coord_link), session, &[KIND_WELCOME])
                    .expect("WELCOME");
            assert_eq!(kind, KIND_WELCOME);
            let welcome = decode_welcome(&payload).expect("welcome");
            let mut mesh =
                dial_retry(&welcome.peers[1], Duration::from_secs(5)).expect("dial rank 1");
            mesh.write_all(&encode_frame(
                session,
                KIND_MESH,
                &encode_mesh(session, 2, WIRE_VERSION + 1),
            ))
            .expect("send MESH");
            (
                coord.join().expect("coord").map(|_| ()),
                rank1.join().expect("rank 1").map(|_| ()),
                read_rejection(&mesh),
            )
        });
        assert_eq!(coord_res, Ok(()));
        assert_eq!(
            rank1_res,
            Err(TcpError::VersionMismatch {
                expected: WIRE_VERSION,
                got: WIRE_VERSION + 1
            })
        );
        assert_eq!(rejection.0, CODE_VERSION_MISMATCH);
    }

    #[test]
    fn single_rank_needs_no_sockets() {
        let cfg = test_cfg(1, 0, 1, "127.0.0.1:1"); // never dialed
        let comm = TcpComm::connect(&cfg).expect("trivial cluster");
        assert_eq!(comm.allgatherv(vec![5u64]), vec![vec![5u64]]);
        assert_eq!(comm.broadcast(0, Some(9u32)), 9);
        assert_eq!(comm.stats().collectives, 2);
    }

    #[test]
    fn collectives_match_expected_topology() {
        let results = tcp_cluster(3, |comm| {
            let r = comm.rank() as u64;
            let gathered = comm.allgatherv(vec![r, r * 10]);
            let exchanged =
                comm.alltoallv(vec![vec![r * 100], vec![r * 100 + 1], vec![r * 100 + 2]]);
            let rooted = comm.gatherv(1, vec![r]);
            let bcast = comm.broadcast(2, if comm.rank() == 2 { Some(77u64) } else { None });
            comm.allgatherv::<u8>(vec![]);
            (gathered, exchanged, rooted, bcast, comm.stats())
        });
        for (rank, (gathered, exchanged, rooted, bcast, stats)) in results.iter().enumerate() {
            assert_eq!(
                *gathered,
                vec![vec![0, 0], vec![1, 10], vec![2, 20]],
                "rank {rank} allgatherv"
            );
            let r = rank as u64;
            assert_eq!(
                *exchanged,
                vec![vec![r], vec![100 + r], vec![200 + r]],
                "rank {rank} alltoallv"
            );
            if rank == 1 {
                assert_eq!(*rooted, Some(vec![vec![0], vec![1], vec![2]]));
            } else {
                assert_eq!(*rooted, None);
            }
            assert_eq!(*bcast, 77);
            assert_eq!(stats.collectives, 5, "rank {rank}");
            assert!(stats.bytes_sent > 0, "rank {rank} sent nothing");
        }
    }

    /// Pseudo-random bytes, about half of them ≥ 0x80 — the bytes a
    /// varint per byte would double.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    #[test]
    fn allgatherv_bytes_cross_the_wire_once_and_raw() {
        for ranks in [2usize, 3] {
            let results = tcp_cluster(ranks, |comm| {
                let local = noise(3000 + 7 * comm.rank(), comm.rank() as u64);
                let before = comm.stats();
                let gathered = comm.allgatherv(local.clone());
                let after = comm.stats();
                (
                    local,
                    gathered,
                    after.bytes_sent - before.bytes_sent,
                    after.bytes_received - before.bytes_received,
                )
            });
            let encoded: Vec<u64> = results
                .iter()
                .map(|(local, ..)| wire::encode(local).len() as u64)
                .collect();
            let total: u64 = encoded.iter().sum();
            for (rank, (local, gathered, sent, received)) in results.iter().enumerate() {
                assert!(encoded[rank] <= local.len() as u64 + 10, "rank {rank}");
                assert_eq!(
                    *sent,
                    (ranks as u64 - 1) * encoded[rank],
                    "rank {rank} sent"
                );
                assert_eq!(*received, total - encoded[rank], "rank {rank} received");
                let expect: Vec<Vec<u8>> = results.iter().map(|r| r.0.clone()).collect();
                assert_eq!(*gathered, expect, "rank {rank} ({ranks} ranks)");
            }
        }
    }

    #[test]
    fn payloads_beyond_the_socket_buffers_do_not_deadlock() {
        // Every rank writes 8 MiB at once in each collective, far past
        // what loopback buffers while nobody reads: the exchange must hand
        // the remainder to its writer thread and keep receiving.
        const MIB8: usize = 8 << 20;
        for ranks in [2usize, 4] {
            let ok = tcp_cluster(ranks, |comm| {
                let r = comm.rank();
                let gathered = comm.allgatherv(noise(MIB8, r as u64));
                let chunk = MIB8 / (ranks - 1);
                let per_dest: Vec<Vec<u8>> = (0..ranks)
                    .map(|d| noise(chunk, (r * ranks + d) as u64))
                    .collect();
                let exchanged = comm.alltoallv(per_dest);
                (0..ranks).all(|src| {
                    gathered[src] == noise(MIB8, src as u64)
                        && exchanged[src] == noise(chunk, (src * ranks + r) as u64)
                })
            });
            assert_eq!(ok, vec![true; ranks], "{ranks} ranks");
        }
    }

    #[test]
    fn wrong_session_is_rejected_on_both_ends() {
        let coordinator = free_addr();
        let (coord_res, peer_res) = std::thread::scope(|scope| {
            let c = coordinator.clone();
            let coord = scope.spawn(move || TcpComm::connect(&test_cfg(1, 0, 2, &c)));
            let c = coordinator.clone();
            let peer = scope.spawn(move || TcpComm::connect(&test_cfg(2, 1, 2, &c)));
            (coord.join().expect("coord"), peer.join().expect("peer"))
        });
        assert_eq!(
            coord_res
                .err()
                .map(|e| matches!(e, TcpError::WrongSession { .. })),
            Some(true)
        );
        assert!(matches!(
            peer_res.err(),
            Some(TcpError::Rejected {
                code: CODE_WRONG_SESSION,
                ..
            })
        ));
    }

    #[test]
    fn duplicate_rank_is_rejected() {
        let coordinator = free_addr();
        let (coord_res, dup_errs) = std::thread::scope(|scope| {
            let c = coordinator.clone();
            let coord = scope.spawn(move || TcpComm::connect(&test_cfg(5, 0, 3, &c)));
            let dups: Vec<_> = (0..2)
                .map(|_| {
                    let c = coordinator.clone();
                    scope.spawn(move || {
                        let mut cfg = test_cfg(5, 1, 3, &c);
                        // Keep the losers from waiting out the full
                        // handshake window once the coordinator dies.
                        cfg.handshake_timeout = Duration::from_secs(5);
                        TcpComm::connect(&cfg)
                    })
                })
                .collect();
            (
                coord.join().expect("coord"),
                dups.into_iter()
                    .map(|h| h.join().expect("dup"))
                    .collect::<Vec<_>>(),
            )
        });
        assert!(matches!(
            coord_res.err(),
            Some(TcpError::DuplicateRank { rank: 1 })
        ));
        // One of the two duplicates is told explicitly; the other sees
        // its connection die (coordinator exits) — both are typed errors,
        // neither hangs.
        assert!(dup_errs.iter().all(|r| r.is_err()));
        assert!(dup_errs.iter().any(|r| matches!(
            r.as_ref().err(),
            Some(TcpError::Rejected {
                code: CODE_DUPLICATE_RANK,
                ..
            })
        )));
    }

    #[test]
    fn dead_coordinator_yields_connect_failed() {
        let mut cfg = test_cfg(9, 1, 2, &free_addr());
        cfg.connect_timeout = Duration::from_millis(300);
        let started = Instant::now();
        let err = TcpComm::connect(&cfg)
            .map(|_| ())
            .expect_err("nobody listening");
        assert!(matches!(err, TcpError::ConnectFailed { .. }), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "retry unbounded"
        );
    }

    #[test]
    fn coordinator_times_out_without_peers() {
        let mut cfg = test_cfg(9, 0, 2, &free_addr());
        cfg.handshake_timeout = Duration::from_millis(300);
        let err = TcpComm::connect(&cfg)
            .map(|_| ())
            .expect_err("no peers ever arrive");
        assert!(matches!(err, TcpError::Timeout { .. }), "{err}");
    }

    #[test]
    fn poison_unwinds_blocked_peer() {
        let results = tcp_cluster(2, |comm| {
            if comm.rank() == 1 {
                comm.poison();
                return true; // abandoned the schedule
            }
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                comm.allgatherv(vec![1u64]);
            }));
            match unwound {
                Ok(_) => false,
                Err(payload) => payload.downcast_ref::<PeerAborted>().is_some(),
            }
        });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn dropped_peer_cascades_to_survivors() {
        // Rank 2 vanishes without poisoning (socket close = what the OS
        // does on SIGKILL). Rank 1 hits EOF and must cascade so rank 0
        // (blocked on rank 1's contribution, not rank 2's) unwinds too.
        let results = tcp_cluster(3, |comm| {
            if comm.rank() == 2 {
                return true; // drop the comm: closes every socket
            }
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                // Rank order makes rank 0 read rank 1 first while rank 1
                // is stuck on the dead rank 2.
                if comm.rank() == 1 {
                    let _ = comm.recv_bytes(2);
                }
                comm.allgatherv(vec![comm.rank() as u64]);
            }));
            match unwound {
                Ok(_) => false,
                Err(payload) => payload.downcast_ref::<PeerAborted>().is_some(),
            }
        });
        assert_eq!(results, vec![true, true, true]);
    }

    #[test]
    fn wall_clock_advances() {
        let cfg = test_cfg(1, 0, 1, "127.0.0.1:1");
        let comm = TcpComm::connect(&cfg).expect("trivial");
        let t0 = comm.virtual_time();
        std::thread::sleep(Duration::from_millis(10));
        assert!(comm.virtual_time() > t0);
    }
}
