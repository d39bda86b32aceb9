//! A minimal blocking client for the `timepieced` protocol.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use timepiece_trace::json::{read_line_value, write_line_value, MAX_LINE_BYTES};
use timepiece_trace::Json;

use crate::protocol::{is_progress, Request};

/// One blocking connection to a `timepieced` server: write a frame, read
/// the reply, in strict alternation. The server's `progress` frames in
/// between are skipped.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a serving daemon.
    ///
    /// # Errors
    ///
    /// Any connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // a request is one small segment the server is waiting for: do not
        // let Nagle hold it back for the previous reply's ACK
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Declares the server dead when no frame — reply or `progress` —
    /// arrives for `liveness` (`None`: wait forever). A server heartbeats
    /// while it computes, so this bounds how long a death goes unnoticed,
    /// not how long a check may take.
    ///
    /// # Errors
    ///
    /// The socket-option write's I/O error.
    pub fn set_read_timeout(&self, liveness: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(liveness)
    }

    /// Sends one raw frame and reads the reply frame.
    ///
    /// # Errors
    ///
    /// I/O errors (a read timeout among them), and
    /// `InvalidData`/`UnexpectedEof` when the server's reply is unframable —
    /// NDJSON cannot resume a half-read line, so any of them ends the
    /// connection's usefulness.
    pub fn request(&mut self, frame: &Json) -> std::io::Result<Json> {
        write_line_value(&mut self.writer, frame)?;
        loop {
            match read_line_value(&mut self.reader, MAX_LINE_BYTES) {
                Ok(Some(frame)) if is_progress(&frame) => {}
                Ok(Some(reply)) => return Ok(reply),
                Ok(None) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "the server closed the connection before replying",
                    ))
                }
                Err(e) => {
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
                }
            }
        }
    }

    /// Sends one typed request and reads the reply frame.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn send(&mut self, request: &Request) -> std::io::Result<Json> {
        self.request(&request.to_json())
    }

    /// Is `TCP_NODELAY` set on this connection?
    ///
    /// # Errors
    ///
    /// The socket-option read's I/O error.
    pub fn nodelay(&self) -> std::io::Result<bool> {
        self.writer.nodelay()
    }
}
