//! Blocking client for the `sbp-serve` wire protocol.
//!
//! One [`Client`] holds one connection; [`Client::request`] frames a
//! [`Request`], sends it, and decodes the single framed [`Response`]
//! the daemon replies with. [`Client::send_raw`] ships arbitrary bytes
//! for hostile-input probes — the daemon must answer a malformed frame
//! with a typed error frame, never die.

use crate::protocol::{encode_frame, read_frame, DecodeError, FrameError, Request, Response};
use crate::server::Listen;
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write).
    Io(std::io::Error),
    /// The daemon's reply was not a well-formed frame.
    Frame(FrameError),
    /// The reply frame's payload was not a well-formed [`Response`].
    Decode(DecodeError),
    /// The daemon closed the connection without replying.
    ConnectionClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "bad reply frame: {e}"),
            ClientError::Decode(e) => write!(f, "bad reply: {e}"),
            ClientError::ConnectionClosed => write!(f, "connection closed before reply"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected unix or TCP socket.
trait Socket: Read + Write + Send + Sync {}
impl<S: Read + Write + Send + Sync> Socket for S {}

/// A blocking connection to a running `sbp-serve` daemon. Replies are
/// read through a buffer; requests go straight to the socket.
pub struct Client {
    stream: BufReader<Box<dyn Socket>>,
}

impl Client {
    fn over(socket: impl Socket + 'static) -> Self {
        Client {
            stream: BufReader::new(Box::new(socket)),
        }
    }

    /// Connects to a unix-domain socket.
    pub fn connect_unix(path: &Path) -> Result<Self, ClientError> {
        Ok(Self::over(std::os::unix::net::UnixStream::connect(path)?))
    }

    /// Connects to a TCP address like `127.0.0.1:7171`.
    pub fn connect_tcp(addr: &str) -> Result<Self, ClientError> {
        Ok(Self::over(std::net::TcpStream::connect(addr)?))
    }

    /// Connects to wherever `listen` points.
    pub fn connect(listen: &Listen) -> Result<Self, ClientError> {
        match listen {
            Listen::Unix(path) => Self::connect_unix(path),
            Listen::Tcp(addr) => Self::connect_tcp(addr),
        }
    }

    /// Sends one request and reads the daemon's framed reply.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send_raw(&encode_frame(&req.encode()))
    }

    /// Ships raw bytes down the socket verbatim (no framing added) and
    /// reads whatever framed reply comes back. For protocol probes.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<Response, ClientError> {
        let socket = self.stream.get_mut();
        socket.write_all(bytes)?;
        socket.flush()?;
        match read_frame(&mut self.stream) {
            Ok(Some(payload)) => Response::decode(&payload).map_err(ClientError::Decode),
            // The daemon replies exactly once per request: a stream that
            // ends before or inside the reply is a closed connection.
            Ok(None) | Err(FrameError::Truncated) => Err(ClientError::ConnectionClosed),
            Err(FrameError::Io(kind)) => Err(ClientError::Io(kind.into())),
            Err(e) => Err(ClientError::Frame(e)),
        }
    }
}
