//! A blocking protocol client and reply predicates.
//!
//! [`Client`] is one `std::net` connection that sends a request line and
//! reads back the one JSON response line; [`is_ok`] and
//! [`has_error_code`] classify that line without parsing it. The server
//! test suites, the `tcp_service` example and the standalone wire
//! benchmark all drive a running server through these.

use crate::protocol::ErrorCode;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A minimal blocking protocol client: one request line out, one JSON
/// response line back.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server address (e.g. from
    /// [`crate::ServerHandle::local_addr`]).
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Send one request line and read the one-line response (without the
    /// trailing newline).
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }
}

/// Whether a response line reports success.
pub fn is_ok(line: &str) -> bool {
    line.starts_with(r#"{"ok":true"#)
}

/// Whether a response line carries the given typed error code.
pub fn has_error_code(line: &str, code: ErrorCode) -> bool {
    line.contains(&format!(r#""code":"{}""#, code.as_str()))
}
