//! Telemetry end-to-end over the serving protocols: the sorted `stats`
//! key set (a regression net over every pre-registry counter), the
//! `metrics` exposition (sorted, deterministic, same key set over text
//! and binary), the slow-query log with shard attribution, quarantine
//! gauges with free-text reasons, and the journal's append/fsync
//! distribution.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_engine::serve::{exposition_lines, serve_lines, spawn_tcp, ServeContext};
use privtree_engine::wire::WireClient;
use privtree_engine::ReleaseStore;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::RangeQuery;
use privtree_spatial::FrozenSynopsis;
use privtree_store::{Catalog, FsyncPolicy};
use rand::RngExt;

fn sample_release(seed: u64, points: usize) -> FrozenSynopsis {
    let mut rng = seeded(seed);
    let mut ps = PointSet::new(2);
    for _ in 0..points {
        ps.push(&[rng.random::<f64>(), rng.random::<f64>()]);
    }
    privtree_spatial::synopsis::privtree_synopsis(
        &ps,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 0x5a5a),
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

fn test_context(seed: u64) -> ServeContext {
    let store = ReleaseStore::open([("main", sample_release(seed, 800))]).unwrap();
    ServeContext::new(store)
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

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("privtree-telemetry-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Parse one `metrics <n>` scrape out of a reply-line iterator.
fn parse_scrape<'a>(it: &mut impl Iterator<Item = &'a String>) -> Vec<String> {
    let header = it.next().expect("metrics header");
    let n: usize = header
        .strip_prefix("metrics ")
        .unwrap_or_else(|| panic!("bad metrics header: {header}"))
        .parse()
        .expect("metric count");
    (0..n)
        .map(|_| it.next().expect("exposition line").clone())
        .collect()
}

/// The metric key of an exposition line (everything before the value).
fn key_of(line: &str) -> &str {
    line.rsplit_once(' ').expect("key value").0
}

fn assert_sorted(lines: &[String], what: &str) {
    assert!(
        lines.windows(2).all(|w| w[0] <= w[1]),
        "{what} not sorted: {lines:#?}"
    );
}

/// `stats` answers one deterministically sorted line whose key set is
/// pinned exactly — a counter renamed, dropped, or re-keyed by the
/// registry refactor fails here, not in a downstream scrape.
#[test]
fn stats_tokens_are_sorted_and_cover_the_full_key_set() {
    let ctx = test_context(901);
    let replies = run_lines(&ctx, b"stats\n");
    assert_eq!(replies.len(), 1);
    let tokens: Vec<&str> = replies[0]
        .strip_prefix("stats ")
        .expect("stats prefix")
        .split(' ')
        .collect();
    let mut sorted = tokens.clone();
    sorted.sort_unstable();
    assert_eq!(tokens, sorted, "stats tokens must be sorted");
    let keys: Vec<&str> = tokens
        .iter()
        .map(|t| t.split('=').next().unwrap())
        .collect();
    assert_eq!(
        keys,
        [
            "coalesced_dispatches",
            "coalesced_queries",
            "coalesced_spans",
            "conns_text",
            "conns_wire",
            "dims",
            "gridded",
            "grids_built",
            "journal",
            "mapped_bytes",
            "nodes",
            "publishes",
            "quarantined",
            "shards",
            "storage.main",
            "version",
            "wire_frames_in",
            "wire_frames_out",
        ],
        "stats key set changed: {}",
        replies[0]
    );
}

/// The `metrics` verb over the line protocol: a `metrics <n>` header,
/// n sorted lines, latency quantiles visible after queries ran, every
/// reactor stage histogram present (even untouched), and two scrapes
/// of identical state identical modulo the clock gauges.
#[test]
fn metrics_exposition_is_sorted_deterministic_and_complete() {
    let ctx = test_context(902);
    let mut input = String::new();
    for q in &workload(3, 903) {
        input.push_str(&format!("count {}\n", query_line(q)));
    }
    input.push_str("metrics\nmetrics\n");
    let replies = run_lines(&ctx, input.as_bytes());
    let mut it = replies.iter();
    for _ in 0..3 {
        it.next().expect("count answer");
    }
    let first = parse_scrape(&mut it);
    let second = parse_scrape(&mut it);
    assert!(it.next().is_none(), "no trailing output");

    assert_sorted(&first, "exposition");
    let stable = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .filter(|l| {
                !l.starts_with("uptime_seconds ") && !l.starts_with("snapshot_age_seconds ")
            })
            .cloned()
            .collect()
    };
    assert_eq!(
        stable(&first),
        stable(&second),
        "identical state must scrape identically (modulo clock gauges)"
    );

    // the three stdin `count`s landed in the text latency histogram:
    // p50/p99 are visible
    assert!(
        first.contains(&r#"request_us_count{proto="text"} 3"#.to_string()),
        "text request histogram count: {first:#?}"
    );
    for q in ["0.5", "0.99"] {
        assert!(
            first
                .iter()
                .any(|l| l.starts_with(&format!(r#"request_us{{proto="text",quantile="{q}"}} "#))),
            "missing request_us p{q} line"
        );
    }
    // every stage histogram is registered from the first scrape, even
    // with no reactor running
    for stage in ["decode", "coalesce", "dispatch", "scatter", "flush"] {
        assert!(
            first.contains(&format!(r#"reactor_stage_us_count{{stage="{stage}"}} 0"#)),
            "missing stage histogram for {stage}"
        );
    }
    for want in [
        r#"conns{proto="text"} 0"#,
        r#"conns{proto="wire"} 0"#,
        "store_shards 1",
        "store_version 1",
        "checkpoint_us_count 0",
        "slow_queries_total 0",
    ] {
        assert!(first.contains(&want.to_string()), "missing line: {want}");
    }
    assert!(
        first.iter().any(|l| l.starts_with("uptime_seconds ")),
        "missing uptime gauge"
    );
}

/// Both front ends serve the same exposition: the text `metrics` verb
/// and the binary `METR` frame scrape one registry, so their key sets
/// are identical and both are sorted.
#[test]
fn metrics_over_text_and_wire_share_one_key_set() {
    let ctx = Arc::new(test_context(904));
    let server = spawn_tcp(Arc::clone(&ctx), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // connect both clients first so each scrape sees both connections
    let mut wire = WireClient::connect(addr).expect("connect binary");
    assert_eq!(wire.dims(), 2);
    let stream = TcpStream::connect(addr).expect("connect text");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    writeln!(writer, "metrics").expect("send metrics");
    let mut header = String::new();
    reader.read_line(&mut header).expect("metrics header");
    let n: usize = header
        .trim()
        .strip_prefix("metrics ")
        .unwrap_or_else(|| panic!("bad header: {header}"))
        .parse()
        .expect("metric count");
    let mut text_lines = Vec::new();
    for _ in 0..n {
        let mut line = String::new();
        reader.read_line(&mut line).expect("exposition line");
        text_lines.push(line.trim_end().to_string());
    }

    let body = wire.metrics().expect("METR frame");
    assert!(
        body.ends_with('\n'),
        "wire exposition is newline-terminated"
    );
    let wire_lines: Vec<String> = body.lines().map(str::to_string).collect();

    assert_sorted(&text_lines, "text exposition");
    assert_sorted(&wire_lines, "wire exposition");
    let keys =
        |lines: &[String]| -> Vec<String> { lines.iter().map(|l| key_of(l).to_string()).collect() };
    assert_eq!(
        keys(&text_lines),
        keys(&wire_lines),
        "both protocols must expose the same metric key set"
    );
    for lines in [&text_lines, &wire_lines] {
        assert!(
            lines.contains(&r#"conns{proto="text"} 1"#.to_string()),
            "text connection visible: {lines:#?}"
        );
        assert!(
            lines.contains(&r#"conns{proto="wire"} 1"#.to_string()),
            "wire connection visible: {lines:#?}"
        );
        assert!(lines.contains(&"store_shards 1".to_string()));
    }

    writeln!(writer, "quit").expect("quit");
    wire.quit().expect("quit frame");
    drop((reader, writer));
    server.shutdown_signal().trigger();
}

/// Armed via [`ServeContext::with_slow_query_log`], a slow batch is
/// recorded with its protocol, query count, shard attribution, and
/// box; disarmed contexts answer the hint instead.
#[test]
fn slowlog_records_slow_queries_with_shard_attribution() {
    let disarmed = test_context(905);
    assert_eq!(
        run_lines(&disarmed, b"slowlog\n"),
        ["slowlog 0 (disarmed; start with --slow-query-log MS)"]
    );

    let store = ReleaseStore::open([("main", sample_release(906, 800))]).unwrap();
    let ctx = ServeContext::new(store).with_slow_query_log(Duration::from_micros(1));
    // a 64-query batch is comfortably past a 1µs threshold; its first
    // box covers the whole domain, so shard attribution hits `main`
    let mut queries = vec![RangeQuery::new(Rect::unit(2))];
    queries.extend(workload(63, 907));
    let mut input = format!("batch {}\n", queries.len());
    for q in &queries {
        input.push_str(&query_line(q));
        input.push('\n');
    }
    input.push_str("slowlog\nmetrics\n");
    let replies = run_lines(&ctx, input.as_bytes());
    let mut it = replies.iter();
    for _ in 0..queries.len() {
        it.next().expect("batch answer");
    }
    let header = it.next().expect("slowlog header");
    assert_eq!(header, "slowlog 1", "one batch job crossed the threshold");
    let entry = it.next().expect("slowlog entry");
    assert!(entry.starts_with("t=+"), "entry: {entry}");
    for want in [" proto=text ", " queries=64 ", " shards=main "] {
        assert!(entry.contains(want), "entry missing `{want}`: {entry}");
    }
    // latency starts when `batch <n>` decodes, so the wait covers the
    // query lines that followed it
    let field = |name: &str| -> u64 {
        entry
            .split(' ')
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("entry missing {name}: {entry}"))
            .parse()
            .expect("integer field")
    };
    let (total, wait, dispatch) = (field("total_us"), field("wait_us"), field("dispatch_us"));
    assert_eq!(wait + dispatch, total, "entry: {entry}");
    assert!(dispatch > 0, "entry: {entry}");
    assert!(entry.ends_with(" box=0,0 1,1"), "entry: {entry}");
    let scrape = parse_scrape(&mut it);
    assert!(
        scrape.contains(&"slow_queries_total 1".to_string()),
        "slow query counted: {scrape:#?}"
    );
}

/// A lossy warm start's quarantined keys surface as
/// `quarantined{key,reason}` gauges — reasons are free text, escaped
/// into the label — alongside the `stats` summary count.
#[test]
fn quarantined_keys_surface_in_exposition_with_reasons() {
    let store = ReleaseStore::open([("main", sample_release(908, 600))]).unwrap();
    let ctx = ServeContext::new(store).with_quarantined(vec![("ghost".into(), "bad crc".into())]);
    let lines = exposition_lines(&ctx);
    assert!(
        lines.contains(&r#"quarantined{key="ghost",reason="bad crc"} 1"#.to_string()),
        "quarantine gauge with reason: {lines:#?}"
    );
    let stats = &run_lines(&ctx, b"stats\n")[0];
    assert!(stats.contains(" quarantined=1 "), "stats: {stats}");
    assert!(stats.contains(" quarantined.ghost=1 "), "stats: {stats}");
}

/// With a journaling catalog attached, a journaled mutation lands in
/// the append/fsync histograms and counters the exposition serves.
#[test]
fn journal_append_and_fsync_land_in_the_exposition() {
    let dir = TempDir::new("journal");
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    catalog.enable_journal(FsyncPolicy::Always).unwrap();
    let store = ReleaseStore::open([("main", sample_release(909, 800))]).unwrap();
    let ctx = ServeContext::with_catalog(store, catalog);

    let replies = run_lines(&ctx, b"save main\nmetrics\n");
    assert!(
        replies[0].starts_with("ok "),
        "save must succeed: {}",
        replies[0]
    );
    let mut it = replies.iter();
    it.next();
    let scrape = parse_scrape(&mut it);
    let value = |name: &str| -> u64 {
        scrape
            .iter()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("missing {name}: {scrape:#?}"))
            .parse()
            .expect("integer value")
    };
    assert!(value("journal_appends_total") >= 1, "append counted");
    assert!(value("journal_fsyncs_total") >= 1, "fsync counted");
    assert!(
        value("journal_append_us_count") >= 1,
        "append latency observed"
    );
    assert!(
        value("journal_fsync_us_count") >= 1,
        "fsync latency observed"
    );
    assert_eq!(value("journal_replayed_ops_total"), 0, "fresh catalog");
    assert_eq!(value("catalog_checkpoints_total"), 0);
}

/// A scrape never waits on the writer lock: while a swap sits in its
/// persist hook (the step a journaled mutation spends in fsync), another
/// thread's `snapshot_age` and `metrics` exposition both return, and
/// still see the pre-swap snapshot.
#[test]
fn scrapes_do_not_wait_on_a_mutation_in_flight() {
    use std::sync::mpsc::channel;

    let ctx = &test_context(1301);
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let (scraped_tx, scraped_rx) = channel();
    std::thread::scope(|s| {
        let swapper = s.spawn(move || {
            ctx.store.swap_with("main", sample_release(1302, 800), |_| {
                entered_tx.send(()).unwrap();
                let _ = release_rx.recv();
                Ok(())
            })
        });
        entered_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the swap reached its persist hook");
        s.spawn(move || {
            let age = ctx.store.snapshot_age();
            let lines = exposition_lines(ctx);
            let _ = scraped_tx.send((age, lines));
        });
        let scraped = scraped_rx.recv_timeout(Duration::from_secs(5));
        // unblock the writer before asserting, so a failure cannot hang
        // the scope on the parked hook
        release_tx.send(()).unwrap();
        let (age, lines) = scraped.expect("a scrape returned while the swap was in flight");
        assert!(age < Duration::from_secs(3600));
        assert!(
            lines.iter().any(|l| l == "store_version 1"),
            "the scrape saw the pre-swap snapshot"
        );
        assert_eq!(swapper.join().unwrap().unwrap().version, 2);
    });
    assert_eq!(ctx.store.snapshot().version(), 2);
}
