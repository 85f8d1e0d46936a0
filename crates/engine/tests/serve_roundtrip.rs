//! End-to-end round trip through the `privtree-serve` binary: a
//! serialized release goes in, a stdin line-protocol workload streams
//! through, and every answer must equal the library's
//! `FrozenSynopsis::answer` output exactly (same `%.17e` rendering, which
//! round-trips `f64` bit-exactly). This is the CI smoke lane for the
//! serving binary; it also exercises the TCP mode and the runtime epoch
//! operations.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_spatial::serialize::release_to_text;
use privtree_spatial::sharded::{ShardHandle, ShardedSynopsis};
use privtree_spatial::synopsis::privtree_synopsis;
use privtree_spatial::{CellGrid, FrozenSynopsis};
use rand::RngExt;

/// The binary under test (cargo builds and points at it for integration
/// tests of this crate).
const BIN: &str = env!("CARGO_BIN_EXE_privtree-serve");

fn sample_release(domain: Rect, seed: u64, n: usize) -> FrozenSynopsis {
    let mut rng = seeded(seed);
    let mut ps = PointSet::new(2);
    for _ in 0..n {
        ps.push(&[
            domain.lo()[0] + rng.random::<f64>() * domain.side(0),
            domain.lo()[1] + rng.random::<f64>().powi(2) * domain.side(1),
        ]);
    }
    privtree_synopsis(
        &ps,
        domain,
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 0xabcd),
    )
    .unwrap()
    .freeze()
}

/// `arena` served as one shard with a grid at the default resolution,
/// built on the shared pool.
fn gridded_shard(arena: &FrozenSynopsis) -> ShardedSynopsis {
    let bins = CellGrid::default_bins(arena);
    let grid = CellGrid::build(arena, &bins, Some(privtree_runtime::global())).unwrap();
    ShardedSynopsis::from_handles(vec![ShardHandle::from_release(arena.clone(), Some(grid))])
        .unwrap()
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

/// A scratch file that cleans up after itself.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn write(name: &str, contents: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("privtree-serve-test-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp release");
        Self(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
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

/// Kill the child on drop so a failing assert cannot leak a process.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn stdin_round_trip_matches_library_answers() {
    let frozen = sample_release(Rect::unit(2), 5, 4000);
    let release_file = TempFile::write("release.txt", &release_to_text(&frozen, None));
    let queries = workload(200, 6);

    // workload: singles, one batch, and a stats probe
    let mut input = String::new();
    for q in &queries[..50] {
        input.push_str(&format!("count {}\n", query_line(q)));
    }
    input.push_str(&format!("batch {}\n", queries.len()));
    for q in &queries {
        input.push_str(&query_line(q));
        input.push('\n');
    }
    input.push_str("keys\nstats\nquit\n");

    let output = Command::new(BIN)
        .arg(format!("epoch0={}", release_file.path()))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("piped stdin")
                .write_all(input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("run privtree-serve");
    assert!(
        output.status.success(),
        "privtree-serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let stdout = String::from_utf8(output.stdout).expect("utf-8 answers");
    let mut lines = stdout.lines();
    // the diff against the library path: every answer line must be the
    // exact %.17e rendering of FrozenSynopsis::answer
    for q in &queries[..50] {
        let expect = format!("{:.17e}", frozen.answer(q));
        assert_eq!(
            lines.next(),
            Some(expect.as_str()),
            "single query {}",
            q.rect
        );
    }
    for q in &queries {
        let expect = format!("{:.17e}", frozen.answer(q));
        assert_eq!(
            lines.next(),
            Some(expect.as_str()),
            "batched query {}",
            q.rect
        );
    }
    assert_eq!(lines.next(), Some("keys epoch0"));
    let stats = lines.next().expect("stats line");
    assert!(stats.starts_with("stats "), "stats line: {stats}");
    assert!(stats.contains(" shards=1 "), "stats line: {stats}");
    assert!(stats.contains("version=1"), "stats line: {stats}");
    // key=path loads decode into process memory: storage reports owned
    assert!(stats.contains(" mapped_bytes=0"), "stats line: {stats}");
    assert!(
        stats.contains(" storage.epoch0=owned"),
        "stats line: {stats}"
    );
    assert_eq!(lines.next(), None, "no unexpected trailing output");
}

/// The `stats` verb reports each release's storage mode: `mapped:<n>`
/// (with the mapping's byte count) for zero-copy catalog opens; the
/// test above pins `owned` for copying `key=path` loads.
#[test]
fn stats_reports_per_release_storage_mode() {
    use privtree_store::{Catalog, ReleaseFormat};

    let dir = std::env::temp_dir().join(format!("privtree-serve-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut catalog = Catalog::open_or_create(&dir).unwrap();
    let frozen = sample_release(Rect::unit(2), 45, 2000);
    catalog
        .save("epoch0", &frozen, None, ReleaseFormat::Binary)
        .unwrap();
    let file_len = std::fs::metadata(dir.join(&catalog.entry("epoch0").unwrap().file))
        .unwrap()
        .len();
    drop(catalog);

    let output = Command::new(BIN)
        .args(["--catalog", dir.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("piped stdin")
                .write_all(b"stats\nquit\n")?;
            child.wait_with_output()
        })
        .expect("run privtree-serve");
    assert!(
        output.status.success(),
        "privtree-serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stats = String::from_utf8(output.stdout).expect("utf-8");
    if cfg!(unix) {
        assert!(
            stats.contains(&format!(" mapped_bytes={file_len}")),
            "mapped stats: {stats}"
        );
        assert!(
            stats.contains(&format!(" storage.epoch0=mapped:{file_len}")),
            "mapped stats: {stats}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed batch replies exactly one error line and leaves the stream
/// aligned: the remaining batch lines are drained, never re-parsed as
/// commands, and the next real command answers normally.
#[test]
fn bad_batch_line_does_not_desynchronize_the_protocol() {
    let frozen = sample_release(Rect::unit(2), 31, 1500);
    let release_file = TempFile::write("align-release.txt", &release_to_text(&frozen, None));
    let q = RangeQuery::new(Rect::new(&[0.1, 0.2], &[0.5, 0.6]));
    let input = format!(
        "batch 3\n\
         0.1,0.1 0.2,0.2\n\
         garbage line\n\
         0.3,0.3 0.4,0.4\n\
         count {}\n\
         batch 999999999999\n\
         quit\n",
        query_line(&q)
    );
    let output = Command::new(BIN)
        .arg(format!("epoch0={}", release_file.path()))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("piped stdin")
                .write_all(input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("run privtree-serve");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let mut lines = stdout.lines();
    let batch_err = lines.next().expect("batch error");
    assert!(batch_err.starts_with("err "), "batch reply: {batch_err}");
    assert_eq!(
        lines.next(),
        Some(format!("{:.17e}", frozen.answer(&q)).as_str()),
        "the command after a failed batch must answer normally"
    );
    let cap_err = lines.next().expect("cap error");
    assert!(
        cap_err.starts_with("err ") && cap_err.contains("cap"),
        "oversized batch reply: {cap_err}"
    );
    assert_eq!(lines.next(), None);
}

/// The liveness contract: malformed commands, bad arguments, failed
/// epoch operations, and even lines that are not valid UTF-8 must each
/// answer exactly one `err <reason>` line and leave the connection
/// serving — the stream only ends at EOF, `quit`, or a real I/O
/// failure. (Regression: `BufRead::lines` used to surface invalid UTF-8
/// as an `InvalidData` I/O error that tore the connection down.)
#[test]
fn protocol_errors_never_terminate_the_connection() {
    let frozen = sample_release(Rect::unit(2), 47, 1500);
    let release_file = TempFile::write("errs-release.txt", &release_to_text(&frozen, None));
    let q = RangeQuery::new(Rect::new(&[0.2, 0.1], &[0.6, 0.5]));

    // one connection, a gauntlet of malformed traffic, then a real query
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(b"definitely-not-a-command 1 2 3\n");
    input.extend_from_slice(b"count\n"); // missing arguments
    input.extend_from_slice(b"count 0.1,0.1 zz,0.9\n"); // bad coordinate
    input.extend_from_slice(b"count 0.5,0.5 0.1,0.1\n"); // lo > hi
    input.extend_from_slice(b"count inf,0.0 1.0,1.0\n"); // non-finite
    input.extend_from_slice(b"\xff\xfe garbage bytes\n"); // not UTF-8
    input.extend_from_slice(b"add broken /no/such/file.txt\n"); // failed add
    input.extend_from_slice(b"swap missing ");
    input.extend_from_slice(release_file.path().as_bytes()); // unknown key
    input.extend_from_slice(b"\nretire epoch0\n"); // last shard
    input.extend_from_slice(b"save epoch0\n"); // no catalog attached
    input.extend_from_slice(b"load epoch0\n"); // no catalog attached
    input.extend_from_slice(format!("count {}\nquit\n", query_line(&q)).as_bytes());

    let output = Command::new(BIN)
        .arg(format!("epoch0={}", release_file.path()))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .and_then(|mut child| {
            child.stdin.take().expect("piped stdin").write_all(&input)?;
            child.wait_with_output()
        })
        .expect("run privtree-serve");
    assert!(output.status.success(), "the process must exit cleanly");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let mut lines = stdout.lines();
    for expected in [
        "unknown command",
        "count needs",
        "bad coordinate",
        "lo > hi",
        "non-finite",
        "utf-8",
        "no/such/file",
        "no release named missing",
        "refusing to retire",
        "no catalog",
        "no catalog",
    ] {
        let reply = lines
            .next()
            .unwrap_or_else(|| panic!("missing err for {expected:?}"));
        assert!(
            reply.starts_with("err ") && reply.contains(expected),
            "expected an err mentioning {expected:?}, got: {reply}"
        );
    }
    assert_eq!(
        lines.next(),
        Some(format!("{:.17e}", frozen.answer(&q)).as_str()),
        "the connection must still answer after every err"
    );
    assert_eq!(lines.next(), None);
}

#[test]
fn epoch_operations_swap_releases_mid_stream() {
    let left = Rect::new(&[0.0, 0.0], &[0.5, 1.0]);
    let right = Rect::new(&[0.5, 0.0], &[1.0, 1.0]);
    let epoch_a = sample_release(left, 11, 2500);
    let epoch_b = sample_release(left, 12, 2500);
    let other = sample_release(right, 13, 2500);
    // the store runs with --grids, so a query inside the left region is
    // answered by that shard's grid-routed descent (entered with a zero
    // accumulator) — bit-identical to the same release served alone as
    // one shard with a grid at the default resolution
    let grid_a = gridded_shard(&epoch_a);
    let grid_b = gridded_shard(&epoch_b);
    let file_a = TempFile::write("epoch-a.txt", &release_to_text(&epoch_a, None));
    let file_b = TempFile::write("epoch-b.txt", &release_to_text(&epoch_b, None));
    let file_other = TempFile::write("other.txt", &release_to_text(&other, None));

    // a query strictly inside the left region is answered by that shard
    // alone, so the stream must see epoch A bits, then epoch B bits
    let q = RangeQuery::new(Rect::new(&[0.05, 0.1], &[0.4, 0.8]));
    let input = format!(
        "count {line}\n\
         add other {file_other}\n\
         swap left {file_b}\n\
         count {line}\n\
         retire other\n\
         keys\n\
         retire left\n\
         quit\n",
        line = query_line(&q),
        file_other = file_other.path(),
        file_b = file_b.path(),
    );
    let output = Command::new(BIN)
        .args(["--grids", &format!("left={}", file_a.path())])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("piped stdin")
                .write_all(input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("run privtree-serve");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some(format!("{:.17e}", grid_a.answer(&q)).as_str()),
        "pre-swap answer serves epoch A"
    );
    let add_line = lines.next().expect("add reply");
    assert!(
        add_line.starts_with("ok version=2") && add_line.contains("grids_built=1"),
        "add reply: {add_line}"
    );
    let swap_line = lines.next().expect("swap reply");
    assert!(
        swap_line.starts_with("ok version=3")
            && swap_line.contains("grids_built=1")
            && swap_line.contains("shards_reused=1"),
        "swap reply: {swap_line}"
    );
    assert_eq!(
        lines.next(),
        Some(format!("{:.17e}", grid_b.answer(&q)).as_str()),
        "post-swap answer serves epoch B"
    );
    assert!(lines
        .next()
        .expect("retire reply")
        .starts_with("ok version=4"));
    assert_eq!(lines.next(), Some("keys left"));
    let refuse = lines.next().expect("refusal");
    assert!(refuse.starts_with("err "), "last-shard retire: {refuse}");
}

#[test]
fn tcp_mode_serves_connections() {
    let frozen = sample_release(Rect::unit(2), 21, 2000);
    let release_file = TempFile::write("tcp-release.txt", &release_to_text(&frozen, None));
    let child = Command::new(BIN)
        .args([
            "--listen",
            "127.0.0.1:0",
            &format!("epoch0={}", release_file.path()),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn privtree-serve");
    let mut child = Reaper(child);
    let mut announce = String::new();
    BufReader::new(child.0.stdout.take().expect("piped stdout"))
        .read_line(&mut announce)
        .expect("read listen announcement");
    let addr = announce
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {announce}"));

    let queries = workload(40, 22);
    for round in 0..2 {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        for q in &queries {
            writeln!(writer, "count {}", query_line(q)).expect("send");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("receive");
            assert_eq!(
                reply.trim(),
                format!("{:.17e}", frozen.answer(q)),
                "round {round}, query {}",
                q.rect
            );
        }
        writeln!(writer, "quit").expect("send quit");
    }
}

/// One listener, both protocols at once: text clients stream
/// `count`/`batch` lines while binary clients stream `QRYB` frames on
/// concurrent connections. Every answer — parsed text or packed `f64`
/// — must be **bit-identical** to the library path, so coalesced
/// cross-connection dispatches are invisible at the answer level.
#[test]
fn mixed_text_and_binary_clients_answer_bit_exact() {
    use privtree_engine::wire::WireClient;

    let frozen = sample_release(Rect::unit(2), 61, 2500);
    let release_file = TempFile::write("mixed-release.txt", &release_to_text(&frozen, None));
    let child = Command::new(BIN)
        .args([
            "--listen",
            "127.0.0.1:0",
            &format!("epoch0={}", release_file.path()),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn privtree-serve");
    let mut child = Reaper(child);
    let mut announce = String::new();
    BufReader::new(child.0.stdout.take().expect("piped stdout"))
        .read_line(&mut announce)
        .expect("read listen announcement");
    let addr = announce
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {announce}"))
        .to_string();

    let frozen = std::sync::Arc::new(frozen);
    let mut workers = Vec::new();
    // two text + two binary clients, interleaved on the same reactor
    for t in 0..2u64 {
        let addr = addr.clone();
        let frozen = std::sync::Arc::clone(&frozen);
        workers.push(std::thread::spawn(move || {
            let queries = workload(60, 100 + t);
            let stream = std::net::TcpStream::connect(&addr).expect("connect text");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            // singles, then one batch over the same workload
            for q in &queries[..20] {
                writeln!(writer, "count {}", query_line(q)).expect("send");
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("receive");
                assert_eq!(reply.trim(), format!("{:.17e}", frozen.answer(q)));
            }
            writeln!(writer, "batch {}", queries.len()).expect("send batch");
            for q in &queries {
                writeln!(writer, "{}", query_line(q)).expect("send line");
            }
            for q in &queries {
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("batch answer");
                assert_eq!(
                    reply.trim(),
                    format!("{:.17e}", frozen.answer(q)),
                    "text batch answer diverged"
                );
            }
            writeln!(writer, "quit").expect("quit");
        }));
    }
    for t in 0..2u64 {
        let addr = addr.clone();
        let frozen = std::sync::Arc::clone(&frozen);
        workers.push(std::thread::spawn(move || {
            let queries = workload(60, 200 + t);
            let mut client = WireClient::connect(&addr)
                .expect("connect binary")
                .with_crc(t == 0); // one client CRC'd, one bare
            assert_eq!(client.dims(), 2);
            for chunk in queries.chunks(15) {
                let answers = client.query(chunk).expect("query frame");
                for (q, a) in chunk.iter().zip(&answers) {
                    assert_eq!(
                        a.to_bits(),
                        frozen.answer(q).to_bits(),
                        "binary answer diverged for {}",
                        q.rect
                    );
                }
            }
            client.quit().expect("quit frame");
        }));
    }
    for worker in workers {
        worker.join().expect("client thread");
    }
}

/// The `stats` verb reports the reactor's per-protocol telemetry:
/// current text/binary connection counts, frames decoded and written,
/// and the coalescing counters that prove queries ride pooled
/// dispatches.
#[test]
fn stats_reports_protocol_and_coalescing_counters() {
    use privtree_engine::wire::WireClient;

    let frozen = sample_release(Rect::unit(2), 71, 1500);
    let release_file = TempFile::write("stats-release.txt", &release_to_text(&frozen, None));
    let child = Command::new(BIN)
        .args([
            "--listen",
            "127.0.0.1:0",
            &format!("epoch0={}", release_file.path()),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn privtree-serve");
    let mut child = Reaper(child);
    let mut announce = String::new();
    BufReader::new(child.0.stdout.take().expect("piped stdout"))
        .read_line(&mut announce)
        .expect("read listen announcement");
    let addr = announce
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {announce}"));

    // a binary client answers two frames and stays connected
    let queries = workload(24, 72);
    let mut wire_client = WireClient::connect(addr).expect("connect binary");
    wire_client.query(&queries[..12]).expect("first frame");
    wire_client.query(&queries[12..]).expect("second frame");

    // a text client probes stats on its own (counted) connection
    let stream = std::net::TcpStream::connect(addr).expect("connect text");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(writer, "stats").expect("send stats");
    let mut stats = String::new();
    reader.read_line(&mut stats).expect("stats line");

    fn field(stats: &str, key: &str) -> u64 {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("stats missing {key}: {stats}"))
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric {key}: {stats}"))
    }
    assert_eq!(field(&stats, "conns_text"), 1, "the stats probe itself");
    assert_eq!(field(&stats, "conns_wire"), 1, "the resident binary client");
    assert_eq!(
        field(&stats, "wire_frames_in"),
        2,
        "two QRYB frames decoded"
    );
    assert_eq!(
        field(&stats, "wire_frames_out"),
        3,
        "one HELO and two ANSV frames written"
    );
    assert!(
        field(&stats, "coalesced_dispatches") >= 2,
        "each query frame rode a pooled dispatch: {stats}"
    );
    assert_eq!(
        field(&stats, "coalesced_queries"),
        24,
        "every query dispatched"
    );
    assert!(field(&stats, "coalesced_spans") >= 2, "stats: {stats}");

    // closing the binary client drops its connection count
    wire_client.quit().expect("quit frame");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        writeln!(writer, "stats").expect("send stats");
        stats.clear();
        reader.read_line(&mut stats).expect("stats line");
        if field(&stats, "conns_wire") == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "wire connection never released: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    writeln!(writer, "quit").expect("quit");
}
