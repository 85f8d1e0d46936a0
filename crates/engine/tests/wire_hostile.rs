//! Hostile input against the `privtree-wire v1` decoder, through a
//! live listener: truncated frames, forged oversized lengths, corrupt
//! checksums, bad preambles, unknown tags, and malformed query
//! payloads must each answer a typed `ERRF` frame (or close cleanly)
//! with bounded memory — never a panic, never a dead listener, and
//! never a perturbed neighbor. The mirror of the store crate's decoder
//! fuzz suite (`crates/store/tests/fuzz_decode.rs`), aimed at the
//! stream framing instead of the file format.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_engine::serve::{spawn_tcp_with, ServeContext, ServeOptions, ServerHandle};
use privtree_engine::wire;
use privtree_engine::ReleaseStore;
use privtree_runtime::ShutdownSignal;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_spatial::FrozenSynopsis;
use privtree_store::frame::{encode_frame, parse_header, payload, FRAME_HEADER_LEN};
use rand::RngExt;

fn sample_release(seed: u64, points: usize) -> FrozenSynopsis {
    let mut rng = seeded(seed);
    let mut ps = PointSet::new(2);
    for _ in 0..points {
        ps.push(&[rng.random::<f64>(), rng.random::<f64>().powi(2)]);
    }
    privtree_spatial::synopsis::privtree_synopsis(
        &ps,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 0x7777),
    )
    .unwrap()
    .freeze()
}

fn spawn(seed: u64, opts: ServeOptions) -> (Arc<ServeContext>, ServerHandle) {
    let store = ReleaseStore::open([("main", sample_release(seed, 600))]).unwrap();
    let ctx = Arc::new(ServeContext::new(store));
    let server =
        spawn_tcp_with(Arc::clone(&ctx), "127.0.0.1:0", opts, ShutdownSignal::new()).unwrap();
    (ctx, server)
}

/// Open a raw binary-protocol connection: preamble sent, `HELO`
/// consumed and validated, socket returned with a generous read
/// timeout so a wedged server fails the test instead of hanging it.
fn open_wire(server: &ServerHandle) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&wire::PREAMBLE).unwrap();
    let (tag, body) = read_frame(&mut stream);
    assert_eq!(tag, wire::TAG_HELLO);
    let (version, dims) = wire::decode_hello_payload(&body).unwrap();
    assert_eq!(version, wire::WIRE_VERSION);
    assert_eq!(dims, 2);
    stream
}

/// Read one complete frame off a raw socket.
fn read_frame(stream: &mut TcpStream) -> ([u8; 4], Vec<u8>) {
    let mut head = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut head).unwrap();
    let header = parse_header(&head, wire::MAX_FRAME).unwrap().unwrap();
    let mut frame = vec![0u8; header.total_len()];
    frame[..FRAME_HEADER_LEN].copy_from_slice(&head);
    stream.read_exact(&mut frame[FRAME_HEADER_LEN..]).unwrap();
    let body = payload(&header, &frame).unwrap().to_vec();
    (header.tag, body)
}

/// EOF probe: the next read returns zero bytes (clean close).
fn assert_closed(stream: &mut TcpStream) {
    let mut sink = [0u8; 64];
    let mut n = stream.read(&mut sink).unwrap();
    // tolerate a final drained frame already asserted by the caller
    while n != 0 {
        n = stream.read(&mut sink).unwrap();
    }
}

fn queries(n: usize, seed: u64) -> Vec<RangeQuery> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| {
            let (a, b) = (rng.random::<f64>(), rng.random::<f64>());
            let (c, d) = (rng.random::<f64>(), rng.random::<f64>());
            RangeQuery::new(Rect::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)]))
        })
        .collect()
}

/// A frame cut off mid-payload (peer hangs up) closes the connection
/// cleanly — no reply target exists for half a frame — and the
/// listener keeps serving other clients.
#[test]
fn truncated_frame_closes_cleanly_and_listener_survives() {
    let (ctx, server) = spawn(301, ServeOptions::default());
    let mut stream = open_wire(&server);
    let frame = wire::encode_query_frame(&queries(8, 1), 2, false);
    stream.write_all(&frame[..frame.len() / 2]).unwrap();
    // half-close: the server sees EOF with a partial frame buffered
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert_closed(&mut stream);

    // the listener is unharmed: a fresh client round-trips bit-exactly
    let snap = ctx.store.snapshot();
    let mut client = wire::WireClient::connect(server.addr()).unwrap();
    let qs = queries(16, 2);
    let answers = client.query(&qs).unwrap();
    for (q, a) in qs.iter().zip(&answers) {
        assert_eq!(a.to_bits(), snap.answer(q).to_bits());
    }
    client.quit().unwrap();
    assert!(server.drain(Duration::from_secs(5)));
}

/// A header declaring a payload beyond the frame cap answers
/// `ERRF` code 2 **before buffering a single payload byte**, then
/// closes — a forged length cannot make the server allocate.
#[test]
fn oversized_frame_answers_typed_err_and_closes() {
    let (_ctx, server) = spawn(302, ServeOptions::default());
    let mut stream = open_wire(&server);
    let mut head = Vec::new();
    head.extend_from_slice(&wire::TAG_QUERY);
    head.extend_from_slice(&[0u8; 4]); // flags + reserved
    head.extend_from_slice(&(u32::MAX).to_le_bytes()); // forged length
    stream.write_all(&head).unwrap();
    let (tag, body) = read_frame(&mut stream);
    assert_eq!(tag, wire::TAG_ERR);
    let (code, message) = wire::decode_err_payload(&body);
    assert_eq!(code, wire::ERR_OVERSIZED);
    assert!(
        message.contains(&wire::MAX_FRAME.to_string()),
        "names the cap: {message}"
    );
    assert_closed(&mut stream);
    assert!(server.drain(Duration::from_secs(5)));
}

/// A corrupted CRC answers `ERRF` code 3 and the connection
/// **continues** — the full frame was consumed, so the stream is still
/// aligned and the next (valid) frames answer normally, an empty one
/// included.
#[test]
fn bad_crc_answers_err_and_the_stream_continues() {
    let (ctx, server) = spawn(303, ServeOptions::default());
    let mut stream = open_wire(&server);
    let qs = queries(5, 3);
    let mut frame = wire::encode_query_frame(&qs, 2, true);
    let last = frame.len() - 1;
    frame[last] ^= 0xFF; // corrupt the CRC trailer
    stream.write_all(&frame).unwrap();
    let (tag, body) = read_frame(&mut stream);
    assert_eq!(tag, wire::TAG_ERR);
    let (code, _) = wire::decode_err_payload(&body);
    assert_eq!(code, wire::ERR_CHECKSUM);

    // same socket, valid frame: answers arrive, CRC'd like the request
    let snap = ctx.store.snapshot();
    stream
        .write_all(&wire::encode_query_frame(&qs, 2, true))
        .unwrap();
    let (tag, body) = read_frame(&mut stream);
    assert_eq!(tag, wire::TAG_ANSWERS);
    let answers = wire::decode_answer_payload(&body).unwrap();
    for (q, a) in qs.iter().zip(&answers) {
        assert_eq!(a.to_bits(), snap.answer(q).to_bits());
    }

    // an empty query frame between two others, in one write: it still
    // gets its (empty) answer frame, in turn
    let mut frames = wire::encode_query_frame(&qs[..2], 2, false);
    frames.extend_from_slice(&wire::encode_query_frame(&[], 2, false));
    frames.extend_from_slice(&wire::encode_query_frame(&qs[2..3], 2, false));
    stream.write_all(&frames).unwrap();
    for expected in [&qs[..2], &[], &qs[2..3]] {
        let (tag, body) = read_frame(&mut stream);
        assert_eq!(tag, wire::TAG_ANSWERS);
        let answers = wire::decode_answer_payload(&body).unwrap();
        assert_eq!(answers.len(), expected.len());
        for (q, a) in expected.iter().zip(&answers) {
            assert_eq!(a.to_bits(), snap.answer(q).to_bits());
        }
    }
    stream
        .write_all(&encode_frame(wire::TAG_QUIT, &[], false))
        .unwrap();
    assert_closed(&mut stream);
    assert!(server.drain(Duration::from_secs(5)));
}

/// A first byte of `0xB7` promises the binary preamble; delivering
/// anything else is `ERRF` code 1 and a close. A first byte that is
/// ordinary text routes to the text protocol, where garbage answers
/// the text `err` line — the negotiation byte can never wedge either
/// decoder.
#[test]
fn bad_preamble_and_garbage_magic_take_their_protocols_error_paths() {
    let (_ctx, server) = spawn(304, ServeOptions::default());

    // 0xB7 then the wrong suffix: typed bad-frame error, closed
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&[wire::PREAMBLE[0], b'X', b'Y', b'Z'])
        .unwrap();
    let (tag, body) = read_frame(&mut stream);
    assert_eq!(tag, wire::TAG_ERR);
    let (code, _) = wire::decode_err_payload(&body);
    assert_eq!(code, wire::ERR_BAD_FRAME);
    assert_closed(&mut stream);

    // printable garbage negotiates as text and gets the text err line
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET / HTTP/1.1\n").unwrap();
    let mut reply = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        stream.read_exact(&mut byte).unwrap();
        if byte[0] == b'\n' {
            break;
        }
        reply.push(byte[0]);
    }
    let reply = String::from_utf8(reply).unwrap();
    assert!(
        reply.starts_with("err unknown command"),
        "text path answers: {reply}"
    );
    assert!(server.drain(Duration::from_secs(5)));
}

/// A well-framed query payload that fails validation (count over the
/// batch cap, length mismatch, `lo > hi`) answers `ERRF` code 4 with
/// the text protocol's error wording, and the connection continues.
#[test]
fn malformed_query_payloads_answer_err_and_continue() {
    let (ctx, server) = spawn(305, ServeOptions::default());
    let mut stream = open_wire(&server);

    // declared count disagrees with the byte count
    let mut body = Vec::new();
    body.extend_from_slice(&7u32.to_le_bytes());
    body.extend_from_slice(&[0u8; 32]); // one 2-d box, not seven
    stream
        .write_all(&encode_frame(wire::TAG_QUERY, &body, false))
        .unwrap();
    let (tag, b) = read_frame(&mut stream);
    assert_eq!(tag, wire::TAG_ERR);
    let (code, message) = wire::decode_err_payload(&b);
    assert_eq!(code, wire::ERR_BAD_QUERY);
    assert!(message.contains("7 boxes"), "{message}");

    // an inverted box mirrors the text parser's wording
    let inverted = [1.0f64, 1.0, 0.0, 0.0];
    let mut body = Vec::new();
    body.extend_from_slice(&1u32.to_le_bytes());
    for c in inverted {
        body.extend_from_slice(&c.to_le_bytes());
    }
    stream
        .write_all(&encode_frame(wire::TAG_QUERY, &body, false))
        .unwrap();
    let (tag, b) = read_frame(&mut stream);
    assert_eq!(tag, wire::TAG_ERR);
    let (code, message) = wire::decode_err_payload(&b);
    assert_eq!(code, wire::ERR_BAD_QUERY);
    assert!(message.contains("lo > hi"), "{message}");

    // an unknown tag is a framing violation: code 1, closed
    stream
        .write_all(&encode_frame(*b"NOPE", &[1, 2, 3], false))
        .unwrap();
    let (tag, b) = read_frame(&mut stream);
    assert_eq!(tag, wire::TAG_ERR);
    let (code, _) = wire::decode_err_payload(&b);
    assert_eq!(code, wire::ERR_BAD_FRAME);
    assert_closed(&mut stream);

    // through it all, a fresh client still answers bit-exactly
    let snap = ctx.store.snapshot();
    let mut client = wire::WireClient::connect(server.addr()).unwrap();
    let qs = queries(9, 5);
    let answers = client.query(&qs).unwrap();
    for (q, a) in qs.iter().zip(&answers) {
        assert_eq!(a.to_bits(), snap.answer(q).to_bits());
    }
    client.quit().unwrap();
    assert!(server.drain(Duration::from_secs(5)));
}

/// The connection cap sheds binary-intending clients with the same
/// pre-negotiation text `err busy` line the text protocol gets, and
/// [`wire::WireClient`] surfaces it as a readable error.
#[test]
fn connection_cap_sheds_binary_clients_with_err_busy() {
    let (_ctx, server) = spawn(
        306,
        ServeOptions {
            max_conns: 1,
            ..ServeOptions::default()
        },
    );
    let held = open_wire(&server);
    let refused = wire::WireClient::connect(server.addr());
    let err = refused.expect_err("the cap must shed the second client");
    assert!(
        err.to_string().contains("err busy"),
        "shed error names busy: {err}"
    );
    drop(held);
    assert!(server.drain(Duration::from_secs(5)));
}
