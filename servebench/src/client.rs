//! Minimal loopback clients for the two protocols. They send payloads
//! rendered before the window and keep reply bytes as received: decoding
//! and checking happen after the window, outside the timed loop.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use privtree_engine::wire::{decode_hello_payload, MAX_FRAME, PREAMBLE, TAG_HELLO};
use privtree_store::frame::{encode_frame, parse_header, payload, FRAME_HEADER_LEN};

/// A reply that has not arrived after this long counts as a timeout.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    let reader = BufReader::with_capacity(256 * 1024, stream.try_clone()?);
    Ok((stream, reader))
}

/// A `privtree-wire v1` connection past negotiation.
pub struct WireConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl WireConn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let (mut stream, reader) = connect(addr)?;
        stream.write_all(&PREAMBLE)?;
        let mut conn = Self { stream, reader };
        let mut hello = Vec::new();
        conn.read_frame(&mut hello)?;
        let header = parse_header(&hello, MAX_FRAME)
            .map_err(io::Error::other)?
            .expect("read_frame returns whole frames");
        if header.tag != TAG_HELLO {
            return Err(io::Error::other("server did not answer HELO"));
        }
        let body = payload(&header, &hello).map_err(io::Error::other)?;
        decode_hello_payload(body).map_err(io::Error::other)?;
        Ok(conn)
    }

    /// Send one pre-encoded frame and append the whole reply frame, as
    /// received, to `out`.
    pub fn round_trip(&mut self, frame: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
        self.stream.write_all(frame)?;
        self.read_frame(out)
    }

    fn read_frame(&mut self, out: &mut Vec<u8>) -> io::Result<()> {
        let start = out.len();
        out.resize(start + FRAME_HEADER_LEN, 0);
        self.reader.read_exact(&mut out[start..])?;
        let header = parse_header(&out[start..], MAX_FRAME)
            .map_err(|e| io::Error::other(format!("bad reply frame: {e}")))?
            .expect("a whole header was read");
        out.resize(start + header.total_len(), 0);
        self.reader.read_exact(&mut out[start + FRAME_HEADER_LEN..])
    }

    pub fn quit(mut self) {
        let _ = self.stream.write_all(&encode_frame(*b"QUIT", &[], false));
    }
}

/// A text-protocol connection.
pub struct TextConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TextConn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let (stream, reader) = connect(addr)?;
        Ok(Self { stream, reader })
    }

    /// Send a pipelined payload and append `lines` reply lines, as
    /// received, to `out`.
    pub fn round_trip(&mut self, bytes: &[u8], lines: usize, out: &mut Vec<u8>) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        for _ in 0..lines {
            if self.reader.read_until(b'\n', out)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
        Ok(())
    }

    /// One command, one reply line (without its newline).
    pub fn command(&mut self, line: &str) -> io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.read_line()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end().to_string())
    }

    /// The server's `metrics` exposition, one `name{labels} value` line
    /// each.
    pub fn metrics(&mut self) -> io::Result<Vec<String>> {
        let header = self.command("metrics")?;
        let n: usize = header
            .strip_prefix("metrics ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad metrics header: {header}")))?;
        (0..n).map(|_| self.read_line()).collect()
    }

    pub fn quit(mut self) {
        let _ = self.stream.write_all(b"quit\n");
    }
}
