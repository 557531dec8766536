//! A minimal line-protocol client, used by the benchmark ladder, the
//! `sorete-server request` one-shot subcommand, and the differential tests.
//!
//! The client is deliberately fault-tolerant in exactly the ways the
//! server's fault-injection mode demands: garbage lines are skipped (the
//! next parseable object is the response) and a dropped connection
//! surfaces as an error the caller can retry after reconnecting.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use sorete_lang::json::{self, Json};

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Set a read deadline for responses (how long to wait on a stalled
    /// server before giving up).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one request line and read the response, skipping any garbage
    /// frames in between. `Err` means the connection is gone (or stalled
    /// past the read deadline) — reconnect to continue.
    pub fn request(&mut self, line: &str) -> std::io::Result<Json> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        loop {
            let mut resp = String::new();
            let n = self.reader.read_line(&mut resp)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "server closed the connection",
                ));
            }
            let trimmed = resp.trim();
            if trimmed.is_empty() {
                continue;
            }
            match json::parse(trimmed) {
                Ok(v) if v.as_obj().is_some() => return Ok(v),
                // Garbage frame: skip and keep reading.
                _ => continue,
            }
        }
    }
}
