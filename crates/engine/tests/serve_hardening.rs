//! Connection-lifecycle guards on the serving protocol: oversized
//! lines answer `err line too long` and resync (never unbounded
//! buffering), stalled and hostile peers are shed or evicted without
//! perturbing a concurrent well-behaved client (bit-exact answers
//! throughout), the connection cap answers `err busy`, panicking verbs
//! are isolated per command, a pipelined swap cannot change the
//! dimensionality queries were decoded for, and a drain finishes inside
//! its deadline.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_engine::serve::{
    serve_lines, spawn_tcp, spawn_tcp_with, ServeContext, ServeOptions, MAX_LINE,
};
use privtree_engine::ReleaseStore;
use privtree_runtime::ShutdownSignal;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_spatial::serialize::release_to_text;
use privtree_spatial::FrozenSynopsis;
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

fn workload(n: usize, seed: u64) -> Vec<RangeQuery> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| {
            let (a, b) = (rng.random::<f64>(), rng.random::<f64>());
            let (c, d) = (rng.random::<f64>(), rng.random::<f64>());
            RangeQuery::new(Rect::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)]))
        })
        .collect()
}

fn query_line(q: &RangeQuery) -> String {
    let csv = |c: &[f64]| {
        c.iter()
            .map(|x| format!("{x:.17e}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!("{} {}", csv(q.rect.lo()), csv(q.rect.hi()))
}

fn test_context(seed: u64) -> Arc<ServeContext> {
    let store = ReleaseStore::open([("main", sample_release(seed, 800))]).unwrap();
    Arc::new(ServeContext::new(store))
}

/// Run a script through the stdin-style protocol loop, returning the
/// reply lines.
fn run_lines(ctx: &ServeContext, input: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    serve_lines(ctx, std::io::Cursor::new(input), &mut out).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// A multi-megabyte line answers one `err line too long` reply, the
/// stream resyncs at its newline, and the connection keeps serving —
/// with bounded memory (the buffer caps at `max_line`, pinned by the
/// fact this test's 8 MiB of garbage would otherwise all be buffered).
#[test]
fn oversized_line_answers_err_and_resyncs() {
    let ctx = test_context(101);
    let mut input = Vec::new();
    input.extend_from_slice(b"keys\n");
    input.extend_from_slice(&vec![b'x'; 8 << 20]);
    input.extend_from_slice(b"\nkeys\n");
    let replies = run_lines(&ctx, &input);
    assert_eq!(replies.len(), 3);
    assert_eq!(replies[0], "keys main");
    assert_eq!(
        replies[1],
        format!("err line too long (max {MAX_LINE} bytes)")
    );
    assert_eq!(replies[2], "keys main", "stream resynced past the flood");
}

/// A line of exactly the cap still parses; one byte past it does not.
#[test]
fn line_cap_boundary_is_exact() {
    let ctx = test_context(102);
    // pad an unknown command up to exactly MAX_LINE bytes
    let exact = format!("nosuch{}", "y".repeat(MAX_LINE - 6));
    assert_eq!(exact.len(), MAX_LINE);
    let over = format!("{exact}y");
    let input = format!("{exact}\n{over}\nkeys\n");
    let replies = run_lines(&ctx, input.as_bytes());
    assert_eq!(replies.len(), 3);
    assert!(
        replies[0].starts_with("err unknown command"),
        "at-cap line parses: {}",
        replies[0]
    );
    assert_eq!(
        replies[1],
        format!("err line too long (max {MAX_LINE} bytes)")
    );
    assert_eq!(replies[2], "keys main");
}

/// An oversized line *inside* a batch: exactly one `err` reply, every
/// batch line drained, and the stream stays aligned on the next
/// command.
#[test]
fn oversized_batch_line_keeps_the_stream_aligned() {
    let ctx = test_context(103);
    let q = query_line(&workload(1, 5)[0]);
    let mut input = Vec::new();
    input.extend_from_slice(format!("batch 3\n{q}\n").as_bytes());
    input.extend_from_slice(&vec![b'z'; 3 << 20]);
    input.extend_from_slice(format!("\n{q}\nkeys\n").as_bytes());
    let replies = run_lines(&ctx, &input);
    assert_eq!(replies.len(), 2, "one err for the batch, then keys");
    assert_eq!(
        replies[0],
        format!("err line too long (max {MAX_LINE} bytes)")
    );
    assert_eq!(replies[1], "keys main");
}

/// Beyond `max_conns`, a new connection is answered `err busy` and
/// closed; once a slot frees, connections are accepted again.
#[test]
fn connection_cap_sheds_with_err_busy() {
    let ctx = test_context(104);
    let server = spawn_tcp_with(
        ctx,
        "127.0.0.1:0",
        ServeOptions {
            max_conns: 1,
            ..ServeOptions::default()
        },
        ShutdownSignal::new(),
    )
    .unwrap();
    let addr = server.addr();

    let first = TcpStream::connect(addr).unwrap();
    let mut first_reader = BufReader::new(first.try_clone().unwrap());
    let mut first_writer = first;
    first_writer.write_all(b"keys\n").unwrap();
    let mut reply = String::new();
    first_reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "keys main");

    // the slot is held: the second connection is shed
    let second = TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut second_reader = BufReader::new(second);
    reply.clear();
    second_reader.read_line(&mut reply).unwrap();
    assert_eq!(
        reply.trim_end(),
        "err busy (connection cap reached, retry shortly)",
        "shed reply carries the retry hint"
    );
    reply.clear();
    assert_eq!(
        second_reader.read_line(&mut reply).unwrap(),
        0,
        "shed connection is closed"
    );

    // free the slot; a fresh connection is served again
    first_writer.write_all(b"quit\n").unwrap();
    drop(first_writer);
    drop(first_reader);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let third = TcpStream::connect(addr).unwrap();
        third
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut third_reader = BufReader::new(third.try_clone().unwrap());
        let mut third_writer = third;
        third_writer.write_all(b"keys\n").unwrap();
        reply.clear();
        third_reader.read_line(&mut reply).unwrap();
        if reply.trim_end() == "keys main" {
            break;
        }
        assert!(
            reply.starts_with("err busy"),
            "unexpected reply while the slot is held: {reply}"
        );
        assert!(
            Instant::now() < deadline,
            "slot never freed after the first client quit"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(server.drain(Duration::from_secs(5)));
}

/// A stalled (slowloris) peer and a flood-of-garbage peer run
/// concurrently with a well-behaved client; the client's answers stay
/// bit-exact against the library path, the stalled peer is evicted by
/// the read deadline, and the flooder only ever hurts itself.
#[test]
fn hostile_peers_cannot_perturb_a_normal_client() {
    let ctx = test_context(105);
    let snap = ctx.store.snapshot();
    let queries = workload(60, 9);
    let expected: Vec<String> = queries
        .iter()
        .map(|q| format!("{:.17e}", snap.answer(q)))
        .collect();
    let server = spawn_tcp_with(
        Arc::clone(&ctx),
        "127.0.0.1:0",
        ServeOptions {
            max_conns: 8,
            idle_timeout: Some(Duration::from_millis(400)),
        },
        ShutdownSignal::new(),
    )
    .unwrap();
    let addr = server.addr();

    // peer 1: connects and never sends a byte (slowloris)
    let stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // peer 2: floods multi-megabyte lines in a background thread
    let flooder = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let garbage = vec![b'g'; 3 << 20];
        let mut reply = String::new();
        for _ in 0..3 {
            writer.write_all(&garbage).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            reply.clear();
            reader.read_line(&mut reply).unwrap();
            assert!(
                reply.starts_with("err line too long"),
                "flooder got: {reply}"
            );
        }
    });

    // the well-behaved client, concurrent with both: every answer must
    // be bit-exact
    let client = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let mut writer = client;
    let mut reply = String::new();
    for (q, want) in queries.iter().zip(&expected) {
        writer
            .write_all(format!("count {}\n", query_line(q)).as_bytes())
            .unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), want, "answer diverged under attack");
    }
    writer.write_all(b"quit\n").unwrap();
    flooder.join().unwrap();

    // the stalled peer is evicted by the 400ms read deadline: its
    // socket reaches EOF well inside the generous 10s client timeout
    let mut sink = [0u8; 16];
    let evicted_at = Instant::now();
    let n = (&stalled).read(&mut sink).unwrap();
    assert_eq!(n, 0, "server must close the stalled connection");
    assert!(
        evicted_at.elapsed() < Duration::from_secs(8),
        "eviction took too long"
    );
    assert!(server.drain(Duration::from_secs(5)), "drain after attack");
}

/// A peer that sends a large batch and never reads the reply is
/// evicted by the idle deadline once the socket stops taking bytes: it
/// cannot pin a connection slot by leaving its replies unread. The
/// eviction is counted, and a fresh client is still served.
#[test]
fn stalled_reader_is_evicted_by_the_idle_deadline() {
    let ctx = test_context(107);
    let server = spawn_tcp_with(
        Arc::clone(&ctx),
        "127.0.0.1:0",
        ServeOptions {
            idle_timeout: Some(Duration::from_millis(300)),
            ..ServeOptions::default()
        },
        ShutdownSignal::new(),
    )
    .unwrap();
    let addr = server.addr();

    // ~10 MB of answers: far more than loopback socket buffers absorb
    let n = 400_000;
    let mut input = format!("batch {n}\n").into_bytes();
    for _ in 0..n {
        input.extend_from_slice(b"0,0 1,1\n");
    }
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(&input).unwrap();
    let sent_at = Instant::now();
    while ctx.metrics.conns_evicted.get() == 0 || server.active_connections() > 0 {
        assert!(
            sent_at.elapsed() < Duration::from_secs(10),
            "a peer that never reads must not hold its slot"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        sent_at.elapsed() < Duration::from_secs(5),
        "eviction took too long"
    );
    assert_eq!(ctx.metrics.conns_evicted.get(), 1);

    let client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let mut writer = client;
    writer.write_all(b"keys\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "keys main");
    drop(stalled);
    assert!(server.drain(Duration::from_secs(5)));
}

/// A `swap` to a release of another dimensionality is refused. A
/// `count` pipelined behind it in the same write was decoded for the
/// store's 2 dimensions before the swap ran, and it still answers from
/// the 2-d snapshot.
#[test]
fn pipelined_swap_cannot_change_the_dimensionality() {
    let ctx = test_context(108);
    let snap = ctx.store.snapshot();
    let cube = FrozenSynopsis::from_tree(
        &privtree_core::tree::Tree::with_root(Rect::unit(3)),
        &[9.0],
        "cube",
    );
    let path = std::env::temp_dir().join(format!(
        "privtree-hardening-{}-cube.txt",
        std::process::id()
    ));
    std::fs::write(&path, release_to_text(&cube, None)).unwrap();
    let server = spawn_tcp(Arc::clone(&ctx), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let script = format!("swap main {}\ncount 0,0 1,1\nquit\n", path.display());
    stream.write_all(script.as_bytes()).unwrap();
    let mut replies = String::new();
    stream.read_to_string(&mut replies).unwrap();
    let _ = std::fs::remove_file(&path);
    let whole = RangeQuery::new(Rect::unit(2));
    assert_eq!(
        replies.lines().collect::<Vec<_>>(),
        [
            "err cannot assemble shard set: mixed shard dimensionality: expected 2, found 3"
                .to_string(),
            format!("{:.17e}", snap.answer(&whole)),
        ]
    );
    assert_eq!(ctx.store.snapshot().version(), 1);
    assert!(server.drain(Duration::from_secs(5)));
}

/// Drain stops the accept loop, finishes in-flight replies, closes
/// idle connections at the next poll tick, and reports completion
/// inside the deadline.
#[test]
fn drain_completes_within_deadline() {
    let ctx = test_context(106);
    let server = spawn_tcp(ctx, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let mut writer = client;
    writer.write_all(b"keys\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "keys main");

    // the client is idle (blocked in its own read); drain must still
    // complete promptly — idle connections notice at the poll tick
    let started = Instant::now();
    assert!(server.drain(Duration::from_secs(5)), "drain timed out");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "drain of an idle connection should take ~one poll tick"
    );
    reply.clear();
    assert_eq!(
        reader.read_line(&mut reply).unwrap(),
        0,
        "drained server closes idle connections"
    );
    // and the listener is gone: a fresh connect is refused
    assert!(
        TcpStream::connect(addr).is_err(),
        "accept loop must be stopped after drain"
    );
}

// Fault-injection-driven regressions (panic isolation, lock-poison
// recovery, injected connection IO errors) live in their own test
// binary — `tests/serve_failpoints.rs` — because the failpoint
// registry is process-global and these tests must not share a process
// with the concurrent TCP tests above.
