//! A minimal blocking client for the `timepieced` protocol.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use timepiece_trace::json::{read_line_value, write_line_value, MAX_LINE_BYTES};
use timepiece_trace::Json;

use crate::protocol::Request;

/// One blocking connection to a `timepieced` server: write a frame, read
/// the reply, in strict alternation.
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

    /// Sends one raw frame and reads the reply frame.
    ///
    /// # Errors
    ///
    /// I/O errors, and `InvalidData`/`UnexpectedEof` when the server's
    /// reply is unframable.
    pub fn request(&mut self, frame: &Json) -> std::io::Result<Json> {
        write_line_value(&mut self.writer, frame)?;
        match read_line_value(&mut self.reader, MAX_LINE_BYTES) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "the server closed the connection before replying",
            )),
            Err(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())),
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
