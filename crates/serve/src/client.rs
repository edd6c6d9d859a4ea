//! Blocking client for the `sbp-serve` wire protocol.
//!
//! One [`Client`] holds one connection; [`Client::request`] frames a
//! [`Request`], sends it, and decodes the single framed [`Response`]
//! the daemon replies with. [`Client::send_raw`] ships arbitrary bytes
//! for hostile-input probes — the daemon must answer a malformed frame
//! with a typed error frame, never die.

use crate::protocol::{encode_frame, read_frame, FrameReadError, Request, Response, WireError};
use crate::server::Listen;
use std::io::{Read, Write};
use std::path::Path;

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write).
    Io(std::io::Error),
    /// The daemon's reply was not a well-formed frame.
    Wire(WireError),
    /// The daemon closed the connection without replying.
    ConnectionClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "bad reply frame: {e}"),
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

enum Stream {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl Stream {
    fn as_read(&mut self) -> &mut dyn Read {
        match self {
            Stream::Unix(s) => s,
            Stream::Tcp(s) => s,
        }
    }

    fn as_write(&mut self) -> &mut dyn Write {
        match self {
            Stream::Unix(s) => s,
            Stream::Tcp(s) => s,
        }
    }
}

/// A blocking connection to a running `sbp-serve` daemon.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connects to a unix-domain socket.
    pub fn connect_unix(path: &Path) -> Result<Self, ClientError> {
        Ok(Client {
            stream: Stream::Unix(std::os::unix::net::UnixStream::connect(path)?),
        })
    }

    /// Connects to a TCP address like `127.0.0.1:7171`.
    pub fn connect_tcp(addr: &str) -> Result<Self, ClientError> {
        Ok(Client {
            stream: Stream::Tcp(std::net::TcpStream::connect(addr)?),
        })
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
        let frame = encode_frame(&req.encode());
        self.stream.as_write().write_all(&frame)?;
        self.stream.as_write().flush()?;
        self.read_response()
    }

    /// Ships raw bytes down the socket verbatim (no framing added) and
    /// reads whatever framed reply comes back. For protocol probes.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<Response, ClientError> {
        self.stream.as_write().write_all(bytes)?;
        self.stream.as_write().flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        match read_frame(self.stream.as_read()) {
            Ok(Some(payload)) => Response::decode(&payload).map_err(ClientError::Wire),
            // The daemon replies exactly once per request: a stream that
            // ends before or inside the reply is a closed connection.
            Ok(None) | Err(FrameReadError::Wire(WireError::Truncated)) => {
                Err(ClientError::ConnectionClosed)
            }
            Err(FrameReadError::Wire(e)) => Err(ClientError::Wire(e)),
            Err(FrameReadError::Io(e)) => Err(ClientError::Io(e)),
        }
    }
}
