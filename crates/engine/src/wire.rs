//! `privtree-wire v1`: the binary query protocol.
//!
//! The text protocol spends most of a query's budget on encoding —
//! rendering `%.17e` coordinates, parsing them back, one reply line per
//! answer. This protocol carries the same queries as packed
//! little-endian `f64` boxes and the same answers as packed `f64`
//! vectors, framed with the store crate's length-prefixed CRC frames
//! ([`privtree_store::frame`]), so a batch costs two frames instead of
//! thousands of formatted lines. Answers are the **same bits** the text
//! protocol renders — both sides of the serving stack read from the
//! identical snapshot path.
//!
//! A binary client identifies itself by its first byte: it opens the
//! connection with the 4-byte [`PREAMBLE`], whose leading `0xB7` can
//! never begin a text-protocol command (it is not valid UTF-8), so one
//! listener serves both protocols. The server answers with a `HELO`
//! frame carrying the store's dimensionality, then answers each `QRYB`
//! query frame with an `ANSV` frame (or a typed `ERRF` frame — hostile
//! frames get an error, never a dead listener). See
//! `crates/engine/README.md` for the byte-by-byte specification.
//!
//! [`WireClient`] is the reference client, used by the round-trip,
//! hostile-peer and telemetry tests.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use privtree_spatial::query::RangeQuery;
use privtree_spatial::Rect;
use privtree_store::frame::{
    encode_frame, encode_frame_into, parse_header, payload, FrameHeader, FRAME_HEADER_LEN,
};

use crate::serve::MAX_BATCH;

/// The 4-byte connection preamble a binary client sends first:
/// `0xB7 'P' 'W' '1'`. The leading byte is outside ASCII (and not a
/// valid UTF-8 first byte), so no text-protocol line can ever start a
/// binary session by accident.
pub const PREAMBLE: [u8; 4] = [0xB7, b'P', b'W', b'1'];

/// Client → server: a batch of query boxes.
pub const TAG_QUERY: [u8; 4] = *b"QRYB";
/// Client → server: a metrics scrape (empty payload); the server
/// answers with a `METR` frame whose payload is the UTF-8 exposition —
/// the same sorted `name{label="v"} value` lines the text protocol's
/// `metrics` verb serves.
pub const TAG_METRICS: [u8; 4] = *b"METR";
/// Client → server: flush and close (the binary `quit`).
pub const TAG_QUIT: [u8; 4] = *b"QUIT";
/// Server → client: the negotiation reply (wire version, dims).
pub const TAG_HELLO: [u8; 4] = *b"HELO";
/// Server → client: a vector of answers, one `f64` per query.
pub const TAG_ANSWERS: [u8; 4] = *b"ANSV";
/// Server → client: a typed error.
pub const TAG_ERR: [u8; 4] = *b"ERRF";

/// The wire protocol version carried in the `HELO` frame.
pub const WIRE_VERSION: u32 = 1;

/// Default cap on one frame's payload (64 MiB): admits the
/// [`MAX_BATCH`]-query cap at typical dimensionalities while keeping a
/// forged length bounded — the same contract as the text protocol's
/// line cap, scaled to framed batches.
pub const MAX_FRAME: u32 = 64 << 20;

/// `ERRF` code: malformed frame (bad preamble, unknown tag or flags,
/// nonzero reserved bytes). The connection closes — the stream can no
/// longer be trusted to be aligned.
pub const ERR_BAD_FRAME: u16 = 1;
/// `ERRF` code: declared payload length above the frame cap. The
/// connection closes.
pub const ERR_OVERSIZED: u16 = 2;
/// `ERRF` code: payload failed its CRC-32. The connection continues
/// (the full frame was read, so the stream is still aligned).
pub const ERR_CHECKSUM: u16 = 3;
/// `ERRF` code: a well-framed query payload that does not decode
/// (count/length mismatch, over the batch cap, non-finite coordinate,
/// `lo > hi`). The connection continues.
pub const ERR_BAD_QUERY: u16 = 4;
/// `ERRF` code: the server hit an internal panic answering this frame;
/// the connection (and every other one) keeps serving.
pub const ERR_INTERNAL: u16 = 5;

/// Bytes per packed query box at `dims` dimensions: `lo` then `hi`
/// corner, `dims` little-endian `f64`s each.
pub fn query_stride(dims: usize) -> usize {
    dims * 2 * 8
}

/// Encode a complete `QRYB` frame: `count` as `u32`, then `count`
/// packed boxes.
pub fn encode_query_frame(queries: &[RangeQuery], dims: usize, with_crc: bool) -> Vec<u8> {
    let mut body = Vec::with_capacity(4 + queries.len() * query_stride(dims));
    body.extend_from_slice(&(queries.len() as u32).to_le_bytes());
    for q in queries {
        for c in q.rect.lo() {
            body.extend_from_slice(&c.to_le_bytes());
        }
        for c in q.rect.hi() {
            body.extend_from_slice(&c.to_le_bytes());
        }
    }
    encode_frame(TAG_QUERY, &body, with_crc)
}

/// Decode a `QRYB` payload into queries, validating **before**
/// constructing anything: the declared count against [`MAX_BATCH`], the
/// payload length against the count (exactly `4 + count * stride`
/// bytes), and every box against the same finite/`lo <= hi` rules the
/// text protocol's query parser enforces. The error strings mirror the
/// text protocol's `err` reasons.
pub fn decode_query_payload(body: &[u8], dims: usize) -> Result<Vec<RangeQuery>, String> {
    if body.len() < 4 {
        return Err("query frame shorter than its count field".into());
    }
    let count = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
    if count > MAX_BATCH {
        return Err(format!(
            "batch of {count} exceeds the {MAX_BATCH}-query cap"
        ));
    }
    let stride = query_stride(dims);
    let expected = 4 + count as u64 * stride as u64;
    if body.len() as u64 != expected {
        return Err(format!(
            "query frame is {} bytes but {count} boxes at {dims} dims imply {expected}",
            body.len()
        ));
    }
    let mut queries = Vec::with_capacity(count);
    let mut lo = vec![0.0f64; dims];
    let mut hi = vec![0.0f64; dims];
    for (i, bx) in body[4..].chunks_exact(stride).enumerate() {
        for k in 0..dims {
            lo[k] = f64::from_le_bytes(bx[k * 8..k * 8 + 8].try_into().expect("8 bytes"));
            let at = (dims + k) * 8;
            hi[k] = f64::from_le_bytes(bx[at..at + 8].try_into().expect("8 bytes"));
        }
        for k in 0..dims {
            if !lo[k].is_finite() || !hi[k].is_finite() {
                return Err(format!("non-finite coordinate in box {i}"));
            }
            if lo[k] > hi[k] {
                return Err(format!("lo > hi along dimension {k} in box {i}"));
            }
        }
        queries.push(RangeQuery::new(Rect::new(&lo, &hi)));
    }
    Ok(queries)
}

/// Append a complete `ANSV` frame (packed `f64` answers) to `out`.
pub fn encode_answer_frame_into(out: &mut Vec<u8>, answers: &[f64], with_crc: bool) {
    let mut body = Vec::with_capacity(answers.len() * 8);
    for a in answers {
        body.extend_from_slice(&a.to_le_bytes());
    }
    encode_frame_into(out, TAG_ANSWERS, &body, with_crc);
}

/// Decode an `ANSV` payload (length must be a multiple of 8).
pub fn decode_answer_payload(body: &[u8]) -> Result<Vec<f64>, String> {
    if !body.len().is_multiple_of(8) {
        return Err(format!(
            "answer frame payload of {} bytes is not a whole number of f64s",
            body.len()
        ));
    }
    Ok(body
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

/// Append a complete `METR` reply frame (the UTF-8 exposition text) to
/// `out`, CRC'd iff the request frame was.
pub fn encode_metrics_frame_into(out: &mut Vec<u8>, text: &str, with_crc: bool) {
    encode_frame_into(out, TAG_METRICS, text.as_bytes(), with_crc);
}

/// Decode a `METR` reply payload into the exposition text.
pub fn decode_metrics_payload(body: &[u8]) -> Result<String, String> {
    String::from_utf8(body.to_vec()).map_err(|_| "metrics frame payload is not UTF-8".into())
}

/// Append a complete `ERRF` frame (`code` as `u16`, then the UTF-8
/// message) to `out`. Error frames never carry a CRC.
pub fn encode_err_frame_into(out: &mut Vec<u8>, code: u16, message: &str) {
    let mut body = Vec::with_capacity(2 + message.len());
    body.extend_from_slice(&code.to_le_bytes());
    body.extend_from_slice(message.as_bytes());
    encode_frame_into(out, TAG_ERR, &body, false);
}

/// Decode an `ERRF` payload into its code and message.
pub fn decode_err_payload(body: &[u8]) -> (u16, String) {
    if body.len() < 2 {
        return (0, String::from_utf8_lossy(body).into_owned());
    }
    let code = u16::from_le_bytes(body[..2].try_into().expect("2 bytes"));
    (code, String::from_utf8_lossy(&body[2..]).into_owned())
}

/// Append the negotiation reply (`HELO`: wire version, store dims, both
/// `u32`) to `out`.
pub fn encode_hello_frame_into(out: &mut Vec<u8>, dims: usize) {
    let mut body = [0u8; 8];
    body[..4].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    body[4..].copy_from_slice(&(dims as u32).to_le_bytes());
    encode_frame_into(out, TAG_HELLO, &body, false);
}

/// Decode a `HELO` payload into `(wire_version, dims)`.
pub fn decode_hello_payload(body: &[u8]) -> Result<(u32, u32), String> {
    if body.len() != 8 {
        return Err(format!(
            "hello frame payload is {} bytes, not 8",
            body.len()
        ));
    }
    Ok((
        u32::from_le_bytes(body[..4].try_into().expect("4 bytes")),
        u32::from_le_bytes(body[4..].try_into().expect("4 bytes")),
    ))
}

/// A blocking `privtree-wire v1` client: sends the preamble, reads the
/// `HELO`, then answers query batches. The reference client for tests
/// and the benchmark's binary lanes.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    dims: usize,
    crc: bool,
}

impl WireClient {
    /// Connect, identify as a binary client, and read the negotiation
    /// reply. A server at its connection cap sheds with the text
    /// `err busy` line; that surfaces here as an error naming it.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&PREAMBLE)?;
        let mut client = Self {
            stream,
            dims: 0,
            crc: false,
        };
        let (header, body) = client.read_frame()?;
        if header.tag != TAG_HELLO {
            return Err(io::Error::other(frame_error(&header, &body)));
        }
        let (version, dims) = decode_hello_payload(&body).map_err(io::Error::other)?;
        if version != WIRE_VERSION {
            return Err(io::Error::other(format!(
                "server speaks wire version {version}, client speaks {WIRE_VERSION}"
            )));
        }
        client.dims = dims as usize;
        Ok(client)
    }

    /// Whether query frames (and so answer frames — the server mirrors
    /// the request's flag) carry CRC-32 trailers. Off by default.
    pub fn with_crc(mut self, on: bool) -> Self {
        self.crc = on;
        self
    }

    /// The store's dimensionality, from the `HELO` frame.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Answer one batch: send a `QRYB` frame, read the `ANSV` reply.
    /// An `ERRF` reply (or a protocol violation) surfaces as an error.
    pub fn query(&mut self, queries: &[RangeQuery]) -> io::Result<Vec<f64>> {
        let frame = encode_query_frame(queries, self.dims, self.crc);
        self.stream.write_all(&frame)?;
        let (header, body) = self.read_frame()?;
        if header.tag != TAG_ANSWERS {
            return Err(io::Error::other(frame_error(&header, &body)));
        }
        let answers = decode_answer_payload(&body).map_err(io::Error::other)?;
        if answers.len() != queries.len() {
            return Err(io::Error::other(format!(
                "server answered {} of {} queries",
                answers.len(),
                queries.len()
            )));
        }
        Ok(answers)
    }

    /// Scrape the server's metrics: send a `METR` frame, read the
    /// `METR` reply, and return the exposition text (sorted
    /// `name{label="v"} value` lines, byte-identical to the text
    /// protocol's `metrics` verb body).
    pub fn metrics(&mut self) -> io::Result<String> {
        let frame = encode_frame(TAG_METRICS, &[], self.crc);
        self.stream.write_all(&frame)?;
        let (header, body) = self.read_frame()?;
        if header.tag != TAG_METRICS {
            return Err(io::Error::other(frame_error(&header, &body)));
        }
        decode_metrics_payload(&body).map_err(io::Error::other)
    }

    /// Graceful close: send a `QUIT` frame and drop the connection.
    pub fn quit(mut self) -> io::Result<()> {
        self.stream.write_all(&encode_frame(TAG_QUIT, &[], false))
    }

    /// Read one complete frame (header-validated, CRC-verified).
    fn read_frame(&mut self) -> io::Result<(FrameHeader, Vec<u8>)> {
        let mut head = [0u8; FRAME_HEADER_LEN];
        self.stream.read_exact(&mut head)?;
        // a shed connection answered the text `err busy ...` line
        // before the protocols ever negotiated — surface it readably
        if head.starts_with(b"err ") {
            let mut rest = String::new();
            let _ = self.stream.read_to_string(&mut rest);
            let line = format!("{}{}", String::from_utf8_lossy(&head), rest);
            return Err(io::Error::other(format!(
                "server answered in text: {}",
                line.lines().next().unwrap_or_default()
            )));
        }
        let header = parse_header(&head, MAX_FRAME)
            .map_err(|e| io::Error::other(format!("bad reply frame: {e}")))?
            .expect("a full header was read");
        let mut frame = vec![0u8; header.total_len()];
        frame[..FRAME_HEADER_LEN].copy_from_slice(&head);
        self.stream.read_exact(&mut frame[FRAME_HEADER_LEN..])?;
        let body = payload(&header, &frame)
            .map_err(|e| io::Error::other(format!("bad reply frame: {e}")))?;
        Ok((header, body.to_vec()))
    }
}

/// Render an unexpected reply frame as an error message (an `ERRF`
/// carries its typed code and reason; anything else names its tag).
fn frame_error(header: &FrameHeader, body: &[u8]) -> String {
    if header.tag == TAG_ERR {
        let (code, message) = decode_err_payload(body);
        format!("server err {code}: {message}")
    } else {
        format!(
            "unexpected reply frame {:?}",
            String::from_utf8_lossy(&header.tag)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxes(n: usize, dims: usize) -> Vec<RangeQuery> {
        (0..n)
            .map(|i| {
                let lo: Vec<f64> = (0..dims).map(|k| (i * dims + k) as f64 * 0.01).collect();
                let hi: Vec<f64> = lo.iter().map(|c| c + 0.5).collect();
                RangeQuery::new(Rect::new(&lo, &hi))
            })
            .collect()
    }

    #[test]
    fn query_frames_roundtrip_bit_exact() {
        for dims in [1usize, 2, 3, 8] {
            for with_crc in [false, true] {
                let queries = boxes(17, dims);
                let frame = encode_query_frame(&queries, dims, with_crc);
                let header = parse_header(&frame, MAX_FRAME).unwrap().unwrap();
                assert_eq!(header.tag, TAG_QUERY);
                let body = payload(&header, &frame).unwrap();
                let decoded = decode_query_payload(body, dims).unwrap();
                assert_eq!(decoded.len(), queries.len());
                for (a, b) in queries.iter().zip(&decoded) {
                    assert_eq!(a.rect.lo(), b.rect.lo());
                    assert_eq!(a.rect.hi(), b.rect.hi());
                }
            }
        }
    }

    #[test]
    fn hostile_query_payloads_are_typed_errors() {
        // count field truncated
        assert!(decode_query_payload(&[1, 0], 2).is_err());
        // count does not match the byte count
        let mut frame = encode_query_frame(&boxes(3, 2), 2, false);
        let body_at = FRAME_HEADER_LEN;
        frame[body_at..body_at + 4].copy_from_slice(&100u32.to_le_bytes());
        let header = parse_header(&frame, MAX_FRAME).unwrap().unwrap();
        let body = payload(&header, &frame).unwrap();
        let err = decode_query_payload(body, 2).unwrap_err();
        assert!(err.contains("100 boxes"), "{err}");
        // a count over the batch cap is refused before any allocation
        frame[body_at..body_at + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let body = payload(&header, &frame).unwrap();
        let err = decode_query_payload(body, 2).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        // non-finite and inverted boxes mirror the text parser's rules
        let bad = vec![RangeQuery::new(Rect::new(&[0.0, 0.0], &[1.0, 1.0]))];
        let mut f = encode_query_frame(&bad, 2, false);
        f[body_at + 4..body_at + 12].copy_from_slice(&f64::NAN.to_le_bytes());
        let header = parse_header(&f, MAX_FRAME).unwrap().unwrap();
        let body = payload(&header, &f).unwrap();
        assert!(decode_query_payload(body, 2)
            .unwrap_err()
            .contains("non-finite"));
        let mut f = encode_query_frame(&bad, 2, false);
        f[body_at + 4..body_at + 12].copy_from_slice(&9.0f64.to_le_bytes());
        let header = parse_header(&f, MAX_FRAME).unwrap().unwrap();
        let body = payload(&header, &f).unwrap();
        assert!(decode_query_payload(body, 2)
            .unwrap_err()
            .contains("lo > hi"));
    }

    #[test]
    fn answers_errors_and_hello_roundtrip() {
        let answers = [0.0f64, -1.5, 1e300, f64::MIN_POSITIVE];
        let mut out = Vec::new();
        encode_answer_frame_into(&mut out, &answers, true);
        let header = parse_header(&out, MAX_FRAME).unwrap().unwrap();
        assert_eq!(header.tag, TAG_ANSWERS);
        let body = payload(&header, &out).unwrap();
        let decoded = decode_answer_payload(body).unwrap();
        assert_eq!(decoded, answers, "answers carry exact bits");

        let mut out = Vec::new();
        encode_err_frame_into(&mut out, ERR_BAD_QUERY, "lo > hi along dimension 0");
        let header = parse_header(&out, MAX_FRAME).unwrap().unwrap();
        let body = payload(&header, &out).unwrap();
        assert_eq!(
            decode_err_payload(body),
            (ERR_BAD_QUERY, "lo > hi along dimension 0".to_string())
        );

        let mut out = Vec::new();
        encode_hello_frame_into(&mut out, 5);
        let header = parse_header(&out, MAX_FRAME).unwrap().unwrap();
        let body = payload(&header, &out).unwrap();
        assert_eq!(decode_hello_payload(body).unwrap(), (WIRE_VERSION, 5));
    }

    #[test]
    #[allow(invalid_from_utf8)] // the invalidity IS the property under test
    fn preamble_cannot_be_a_text_command() {
        assert!(std::str::from_utf8(&PREAMBLE).is_err());
    }
}
