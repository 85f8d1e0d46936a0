//! The serving protocols as a library: the line protocol the
//! `privtree-serve` binary speaks and the `privtree-wire v1` binary
//! protocol (see [`crate::wire`]), embeddable in tests and benchmarks.
//! Both protocols are decoded, executed, and rendered by one sans-IO
//! core (`crate::session`) with two thin drivers: [`spawn_tcp`] runs a
//! reactor thread (see `crate::reactor`) that multiplexes every TCP
//! connection and coalesces concurrently-arriving queries into single
//! pooled batch dispatches, and [`serve_lines`] serves one blocking
//! reader/writer pair, such as stdin/stdout. On either transport a
//! session whose first byte is the wire preamble's `0xB7` speaks binary
//! frames; anything else speaks the text protocol below.
//!
//! Text protocol (one command per line; one reply line per command,
//! except `batch` which replies with `n` answer lines):
//!
//! ```text
//! count <lo0,lo1,..> <hi0,hi1,..>   -> answer as %.17e
//! batch <n>                         -> reads n `<lo> <hi>` lines, then
//!                                      n answer lines (pooled batch)
//! add <key> <path>                  -> ok version=.. grids_built=.. ...
//! swap <key> <path>                 -> ok version=.. grids_built=.. ...
//! retire <key>                      -> ok version=.. ...
//! save <key>                        -> ok saved key=.. file=.. (catalog)
//! load <key>                        -> ok version=.. (add-or-swap from
//!                                      the catalog)
//! checkpoint                        -> ok checkpoint journal_seq=..
//!                                      (fold journal into the manifest)
//! keys                              -> keys <k1> <k2> ...
//! stats                             -> stats <key=value ...> (sorted)
//! metrics                           -> metrics <n>, then n sorted
//!                                      name{label="v"} value lines
//! slowlog                           -> slowlog <n>, then n slow-query
//!                                      lines (--slow-query-log MS)
//! quit                              -> closes the stream
//! ```
//!
//! With a **journaled catalog** (`--journal`), every `add`/`swap`/
//! `retire` persists a catalog generation and appends a write-ahead
//! record *before* the ok line is written — an acked mutation survives
//! a crash. See `crates/engine/README.md` for the full protocol
//! reference, every `err <reason>` string, and the journal-related
//! `stats` keys.
//!
//! **Errors never kill the stream**: every failed command — malformed
//! line, unparseable query, missing file, rejected `add`/`swap`, even a
//! line that is not valid UTF-8 — answers `err <reason>` and the
//! connection keeps serving. Only a real I/O failure (or EOF / `quit`)
//! ends a session. `crates/engine/tests/serve_roundtrip.rs` pins this.
//!
//! # Limits and lifecycle guards
//!
//! A listener is only as robust as its worst-behaved peer, so every
//! session runs under fixed caps and every TCP connection under
//! [`ServeOptions`]:
//!
//! * **Line cap** — a protocol line longer than [`MAX_LINE`] bytes
//!   (64 KiB) answers `err line too long ...` and the stream **resyncs
//!   to the next newline**; memory per connection stays bounded no
//!   matter what the peer sends.
//! * **Frame cap** — a binary-protocol frame declaring a payload
//!   longer than [`crate::wire::MAX_FRAME`] bytes is answered with a
//!   typed `ERRF` frame and the connection closes, before a single
//!   payload byte is buffered — the line cap's contract, scaled to
//!   framed batches.
//! * **Idle deadline** — [`ServeOptions::idle_timeout`] bounds how long
//!   a TCP peer may send nothing while idle, or take none of its
//!   pending replies. A peer that connects and trickles, stalls
//!   entirely (the slowloris pattern), or stops reading is evicted when
//!   the deadline passes; it can never pin a connection slot open.
//! * **Connection cap** — at most [`ServeOptions::max_conns`]
//!   concurrent connections; an accept beyond the cap is answered
//!   `err busy (connection cap reached, retry shortly)` and closed
//!   immediately instead of queueing unboundedly.
//! * **Panic isolation** — each command dispatch runs under
//!   `catch_unwind`: a panicking verb answers `err internal ...` and
//!   the connection (and every other connection) keeps serving.
//!   Shared state stays usable because every lock in the stack
//!   recovers from poisoning via `into_inner`.
//! * **Graceful drain** — [`spawn_tcp`] returns a [`ServerHandle`]
//!   whose [`ServerHandle::drain`] trips a [`ShutdownSignal`]: the
//!   reactor stops accepting (the listener closes), in-flight commands
//!   finish their replies, idle connections close at the next poll
//!   tick, and `drain` reports whether everything wound down inside
//!   the deadline.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use privtree_runtime::telemetry::{self, Counter, Gauge, Histogram, Registry, TickTrace, STAGES};
use privtree_runtime::{failpoints, ShutdownSignal};
use privtree_spatial::query::RangeQuery;
use privtree_spatial::serialize::release_from_text;
use privtree_spatial::sharded::ShardHandle;
use privtree_spatial::{Rect, MAX_DIMS};
use privtree_store::catalog::looks_binary;
use privtree_store::{decode_release, Catalog, CatalogMetrics, ReleaseFormat, StoreError};

use crate::session::{find_newline, run_jobs, Session};
use crate::{EngineError, EngineMetrics, ReleaseStore, Snapshot, SwapReport};

/// Largest accepted `batch <n>`: bounds the per-batch allocation against
/// hostile or mistyped counts (1M queries ≈ 70 MB of boxes — plenty for
/// a line protocol; stream several batches for more).
pub const MAX_BATCH: usize = 1 << 20;

/// Hard cap on one protocol line, in bytes (64 KiB). The widest
/// legitimate line is a `count`/batch query — two corners of
/// 17-significant-digit coordinates — which stays under a kilobyte even
/// at the format's maximum dimensionality, so 64 KiB is three orders of
/// magnitude of headroom. Anything longer answers
/// `err line too long ...` and the stream resyncs at the next newline.
pub const MAX_LINE: usize = 64 * 1024;

/// How often [`ServerHandle::join_then_drain`] polls for the shutdown
/// flag while parked.
const ACCEPT_TICK: Duration = Duration::from_millis(15);

/// Per-connection lifecycle limits of a TCP listener. `Default` is the
/// embedder profile — no idle deadline (a quiet REPL or test driver is
/// not a slowloris) — while the `privtree-serve` binary layers its flag
/// defaults on top (`--read-timeout 30`, `--max-conns 1024`).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Most concurrent connections before new accepts answer
    /// `err busy` and close.
    pub max_conns: usize,
    /// Longest a connection may go without reading a byte while idle,
    /// or without writing a byte while replies are pending, before it
    /// is evicted (`None`: never). Only that connection is affected —
    /// the reactor keeps serving everyone else either way.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_conns: 1024,
            idle_timeout: None,
        }
    }
}

/// Every metric one serving process records, registered in (and
/// rendered through) one per-context [`Registry`] — the `metrics` verb
/// is `registry.render()` plus a handful of gauges refreshed at scrape
/// time, and the `stats` verb is a sorted key=value view over the same
/// handles. Counters and gauges record unconditionally (they are one
/// atomic op); only latency clocks honor the [`telemetry::enabled`]
/// kill switch.
#[derive(Debug)]
pub struct ServeMetrics {
    /// The registry every handle below lives in. Per-context, not
    /// process-global: parallel in-process listeners (tests, embedders)
    /// must not see each other's counts.
    pub registry: Arc<Registry>,
    /// Text-protocol connections currently open (`conns{proto="text"}`).
    pub conns_text: Arc<Gauge>,
    /// Binary-protocol connections currently open (`conns{proto="wire"}`).
    pub conns_wire: Arc<Gauge>,
    /// Binary frames decoded off the wire, including refused ones
    /// (`wire_frames_total{dir="in"}`).
    pub wire_frames_in: Arc<Counter>,
    /// Binary frames written to the wire (`wire_frames_total{dir="out"}`).
    pub wire_frames_out: Arc<Counter>,
    /// Payload bytes read off sockets (`reactor_bytes_total{dir="in"}`).
    pub bytes_in: Arc<Counter>,
    /// Reply bytes written to sockets (`reactor_bytes_total{dir="out"}`).
    pub bytes_out: Arc<Counter>,
    /// Pooled batch dispatches the reactor has issued.
    pub coalesced_dispatches: Arc<Counter>,
    /// Queries answered through those dispatches.
    pub coalesced_queries: Arc<Counter>,
    /// Per-connection query jobs folded into those dispatches.
    pub coalesced_spans: Arc<Counter>,
    /// Accepts refused with `err busy` at the connection cap.
    pub conns_shed: Arc<Counter>,
    /// Connections evicted by a read or write deadline.
    pub conns_evicted: Arc<Counter>,
    /// Oversized lines discarded through their newline (the line cap's
    /// resync path).
    pub line_resyncs: Arc<Counter>,
    /// Jobs queued across every connection, sampled once per reactor
    /// tick after decode.
    pub queue_depth: Arc<Gauge>,
    /// Text-protocol query latency, decode to reply rendered, µs
    /// (`request_us{proto="text"}`).
    pub request_us_text: Arc<Histogram>,
    /// Binary-protocol query latency, µs (`request_us{proto="wire"}`).
    pub request_us_wire: Arc<Histogram>,
    /// Per-tick reactor stage wall time, µs, indexed like
    /// [`STAGES`] (`reactor_stage_us{stage=...}`).
    pub stage_us: [Arc<Histogram>; STAGES.len()],
    /// `checkpoint` verb wall time, µs.
    pub checkpoint_us: Arc<Histogram>,
    /// Queries that crossed the slow-query threshold.
    pub slow_queries: Arc<Counter>,
    /// Seconds since the context was built; refreshed at scrape time.
    pub uptime_seconds: Arc<Gauge>,
    /// Seconds since the store last published a snapshot; refreshed at
    /// scrape time.
    pub snapshot_age_seconds: Arc<Gauge>,
    /// Serving releases; refreshed at scrape time.
    pub store_shards: Arc<Gauge>,
    /// Synopsis nodes across every serving release; refreshed at
    /// scrape time.
    pub store_nodes: Arc<Gauge>,
    /// Bytes served borrowed from memory mappings; refreshed at scrape
    /// time.
    pub store_mapped_bytes: Arc<Gauge>,
    /// Snapshot version; refreshed at scrape time.
    pub store_version: Arc<Gauge>,
    /// The engine-side handles ([`ReleaseStore::attach_metrics`]):
    /// swap latency, publishes, grids built.
    pub engine: Arc<EngineMetrics>,
}

impl ServeMetrics {
    /// Register every serving metric in `registry` (names are listed in
    /// `crates/engine/README.md` under *Telemetry*).
    pub fn register(registry: Arc<Registry>) -> Self {
        let stage_us =
            STAGES.map(|s| registry.histogram("reactor_stage_us", &[("stage", s.name())]));
        Self {
            conns_text: registry.gauge("conns", &[("proto", "text")]),
            conns_wire: registry.gauge("conns", &[("proto", "wire")]),
            wire_frames_in: registry.counter("wire_frames_total", &[("dir", "in")]),
            wire_frames_out: registry.counter("wire_frames_total", &[("dir", "out")]),
            bytes_in: registry.counter("reactor_bytes_total", &[("dir", "in")]),
            bytes_out: registry.counter("reactor_bytes_total", &[("dir", "out")]),
            coalesced_dispatches: registry.counter("coalesced_dispatches_total", &[]),
            coalesced_queries: registry.counter("coalesced_queries_total", &[]),
            coalesced_spans: registry.counter("coalesced_spans_total", &[]),
            conns_shed: registry.counter("conns_shed_total", &[]),
            conns_evicted: registry.counter("conns_evicted_total", &[]),
            line_resyncs: registry.counter("line_resyncs_total", &[]),
            queue_depth: registry.gauge("reactor_queue_depth", &[]),
            request_us_text: registry.histogram("request_us", &[("proto", "text")]),
            request_us_wire: registry.histogram("request_us", &[("proto", "wire")]),
            stage_us,
            checkpoint_us: registry.histogram("checkpoint_us", &[]),
            slow_queries: registry.counter("slow_queries_total", &[]),
            uptime_seconds: registry.gauge("uptime_seconds", &[]),
            snapshot_age_seconds: registry.gauge("snapshot_age_seconds", &[]),
            store_shards: registry.gauge("store_shards", &[]),
            store_nodes: registry.gauge("store_nodes", &[]),
            store_mapped_bytes: registry.gauge("store_mapped_bytes", &[]),
            store_version: registry.gauge("store_version", &[]),
            engine: EngineMetrics::register(&registry),
            registry,
        }
    }
}

/// Slow-query entries retained (a ring: the newest
/// [`SLOWLOG_CAPACITY`] survive).
pub const SLOWLOG_CAPACITY: usize = 64;

/// One query the slow-query log caught: when it ran (seconds since the
/// context was built), which protocol carried it, how the time split
/// between waiting for its dispatch and the pooled batch itself, which
/// serving shards its box touched, and the box.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Seconds between context construction and the reply, ms
    /// precision.
    pub at_secs: f64,
    /// `"text"` or `"wire"`.
    pub proto: &'static str,
    /// Queries in the job (the box below is the first).
    pub queries: usize,
    /// Decode-to-reply wall time, µs.
    pub total_us: u64,
    /// Time before the pooled dispatch started, µs (queueing +
    /// coalescing).
    pub wait_us: u64,
    /// The pooled batch dispatch itself, µs.
    pub dispatch_us: u64,
    /// Serving keys whose shard box the query intersects (`-` if
    /// none).
    pub shards: String,
    /// The first query box, `lo0,lo1 hi0,hi1`.
    pub box_text: String,
}

impl SlowEntry {
    /// One `slowlog` reply line.
    fn render(&self) -> String {
        format!(
            "t=+{:.3}s proto={} queries={} total_us={} wait_us={} dispatch_us={} \
             shards={} box={}",
            self.at_secs,
            self.proto,
            self.queries,
            self.total_us,
            self.wait_us,
            self.dispatch_us,
            self.shards,
            self.box_text,
        )
    }
}

/// The slow-query ring: armed with a threshold (`--slow-query-log MS`
/// or [`ServeContext::with_slow_query_log`]), every query job whose
/// decode-to-reply time crosses it is recorded; the `slowlog` verb
/// dumps the newest [`SLOWLOG_CAPACITY`] oldest-first. Disarmed (the
/// default) it is one relaxed load per dispatch.
#[derive(Debug, Default)]
pub struct SlowLog {
    /// Threshold in µs; 0 means disarmed.
    threshold_us: AtomicU64,
    entries: Mutex<VecDeque<SlowEntry>>,
}

impl SlowLog {
    /// Threshold in µs, 0 when disarmed.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Arm (or re-arm) the log.
    pub fn set_threshold(&self, threshold: Duration) {
        self.threshold_us
            .store(threshold.as_micros().max(1) as u64, Ordering::Relaxed);
    }

    /// Record one slow query, evicting the oldest past capacity.
    pub fn record(&self, entry: SlowEntry) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() >= SLOWLOG_CAPACITY {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// Rendered entries, oldest first.
    pub fn render(&self) -> Vec<String> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.iter().map(SlowEntry::render).collect()
    }
}

/// Everything one serving process shares across its connections: the
/// epoch store plus, when warm-started from disk, the catalog the
/// `save`/`load` verbs operate on.
#[derive(Debug)]
pub struct ServeContext {
    /// The epoch-aware release store answering queries.
    pub store: ReleaseStore,
    /// The attached on-disk catalog, if any (`--catalog DIR`). Guarded:
    /// `save`/`load` may arrive on any connection thread.
    pub catalog: Option<Mutex<Catalog>>,
    /// Catalog keys a lossy warm start quarantined (key, reason).
    /// Surfaced through `stats` so an operator can see at the protocol
    /// level that the process booted degraded.
    pub quarantined: Vec<(String, String)>,
    /// Every metric this process records — protocol counters, latency
    /// histograms, reactor stage timings — in one per-context registry,
    /// surfaced by the `metrics` verb (and, as a sorted key=value view,
    /// by `stats`).
    pub metrics: ServeMetrics,
    /// The slow-query ring the `slowlog` verb dumps; disarmed unless
    /// [`ServeContext::with_slow_query_log`] armed it.
    pub slowlog: SlowLog,
    /// When the context was built (`uptime_seconds`, slowlog
    /// timestamps).
    started: Instant,
    /// Whether the attached catalog journals mutations — captured at
    /// construction (the flag never flips mid-flight), so the hot
    /// `add`/`swap`/`retire` dispatch can branch without taking the
    /// catalog lock first.
    journal: bool,
}

impl ServeContext {
    /// A context without an attached catalog (`save`/`load` answer
    /// `err`).
    pub fn new(store: ReleaseStore) -> Self {
        let metrics = ServeMetrics::register(Arc::new(Registry::new()));
        store.attach_metrics(Arc::clone(&metrics.engine));
        Self {
            store,
            catalog: None,
            quarantined: Vec::new(),
            metrics,
            slowlog: SlowLog::default(),
            started: Instant::now(),
            journal: false,
        }
    }

    /// A context with an attached catalog. When the catalog journals
    /// (see `Catalog::enable_journal`), every `add`/`swap`/`retire`
    /// verb persists its mutation through the catalog **before**
    /// acking.
    pub fn with_catalog(store: ReleaseStore, mut catalog: Catalog) -> Self {
        let mut ctx = Self::new(store);
        catalog.attach_metrics(CatalogMetrics::register(&ctx.metrics.registry));
        ctx.journal = catalog.journaling();
        ctx.catalog = Some(Mutex::new(catalog));
        ctx
    }

    /// Whether mutations are journaled through the attached catalog.
    pub fn journaled(&self) -> bool {
        self.journal
    }

    /// Record the keys a lossy warm start had to quarantine. Each key
    /// also registers a `quarantined{key="...",reason="..."} 1` gauge
    /// so the degraded boot — and why — is visible in the `metrics`
    /// exposition (reasons are free text; label escaping keeps the
    /// line format intact).
    pub fn with_quarantined(mut self, quarantined: Vec<(String, String)>) -> Self {
        for (key, reason) in &quarantined {
            self.metrics
                .registry
                .gauge("quarantined", &[("key", key), ("reason", reason)])
                .set(1);
        }
        self.quarantined = quarantined;
        self
    }

    /// Arm the slow-query log: any query job whose decode-to-reply
    /// time reaches `threshold` is recorded (box, touched shards,
    /// wait/dispatch split) in the ring the `slowlog` verb dumps.
    pub fn with_slow_query_log(self, threshold: Duration) -> Self {
        self.slowlog.set_threshold(threshold);
        self
    }

    /// Whether query paths need the clock: telemetry is on, or the
    /// slow-query log is armed (an explicit opt-in that must keep
    /// timing even when the telemetry switch is off).
    pub(crate) fn clocked(&self) -> bool {
        telemetry::enabled() || self.slowlog.threshold_us() > 0
    }

    /// Observe one finished query job: latency into the per-protocol
    /// histogram, and — past the armed threshold — a slow-query entry
    /// with shard attribution.
    pub(crate) fn observe_request(
        &self,
        snap: &Snapshot,
        proto: &'static str,
        queries: &[RangeQuery],
        total_us: u64,
        dispatch_us: u64,
    ) {
        let hist = match proto {
            "wire" => &self.metrics.request_us_wire,
            _ => &self.metrics.request_us_text,
        };
        hist.observe(total_us);
        let threshold = self.slowlog.threshold_us();
        if threshold == 0 || total_us < threshold {
            return;
        }
        self.metrics.slow_queries.inc();
        let (shards, box_text) = match queries.first() {
            Some(q) => (shard_keys_for(snap, q), rect_text(&q.rect)),
            None => ("-".into(), "-".into()),
        };
        self.slowlog.record(SlowEntry {
            at_secs: self.started.elapsed().as_millis() as f64 / 1000.0,
            proto,
            queries: queries.len(),
            total_us,
            wait_us: total_us.saturating_sub(dispatch_us),
            dispatch_us,
            shards,
            box_text,
        });
    }

    /// The attached catalog, poison-recovered: a verb that panicked
    /// while holding the lock (the catalog mutates in place, so its
    /// state is whatever the last completed step left — always
    /// consistent, because every on-disk step is atomic) must not lock
    /// out every later `save`/`load`.
    fn lock_catalog(&self) -> Option<MutexGuard<'_, Catalog>> {
        self.catalog
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Serving keys whose shard box the query intersects, comma-joined
/// (`-` when it clears every shard): the slow-query log's shard
/// attribution. Runs only for queries already past the slow threshold.
fn shard_keys_for(snap: &Snapshot, q: &RangeQuery) -> String {
    let mut hit: Vec<&str> = Vec::new();
    for (key, shard) in snap.keys().iter().zip(snap.synopsis().shards()) {
        let arena = shard.arena();
        if arena.node_count() == 0 {
            continue;
        }
        let root = Rect::new(arena.node_lo(0), arena.node_hi(0));
        if q.rect.intersects(&root) {
            hit.push(key);
        }
    }
    if hit.is_empty() {
        "-".into()
    } else {
        hit.join(",")
    }
}

/// `lo0,lo1 hi0,hi1` — the slowlog's box rendering.
fn rect_text(rect: &Rect) -> String {
    let join = |cs: &[f64]| {
        cs.iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!("{} {}", join(rect.lo()), join(rect.hi()))
}

/// The full Prometheus-style exposition the `metrics` verb serves on
/// both protocols: scrape-time gauges (uptime, snapshot age, store
/// shape) are refreshed, then the registry renders every metric as
/// sorted `name{label="v"} value` lines — two scrapes of identical
/// state are byte-identical.
pub fn exposition_lines(ctx: &ServeContext) -> Vec<String> {
    let m = &ctx.metrics;
    m.uptime_seconds.set(ctx.started.elapsed().as_secs());
    m.snapshot_age_seconds
        .set(ctx.store.snapshot_age().as_secs());
    let snap = ctx.store.snapshot();
    m.store_shards.set(snap.shard_count() as u64);
    m.store_nodes.set(snap.node_count() as u64);
    m.store_version.set(snap.version());
    let mapped: usize = snap
        .synopsis()
        .shards()
        .iter()
        .map(|s| s.mapped_bytes())
        .sum();
    m.store_mapped_bytes.set(mapped as u64);
    m.registry.render()
}

/// Load a release file as a shard handle, **sniffing the format**: a
/// `privtree-bin` magic means one-pass binary decode, anything else
/// parses as the text format. Either way a shipped grid section arrives
/// prebuilt.
pub fn load_release(path: &str) -> Result<ShardHandle, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let (arena, grid) = if looks_binary(&bytes) {
        decode_release(&bytes).map_err(|e| format!("{path}: {e}"))?
    } else {
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| format!("{path}: neither privtree-bin nor UTF-8 text"))?;
        release_from_text(text).map_err(|e| format!("{path}: {e}"))?
    };
    Ok(ShardHandle::from_release(arena, grid))
}

/// Parse `<lo0,lo1,..> <hi0,hi1,..>` into a range query over `dims`
/// dimensions. Every coordinate of `lo`, then of `hi`, is parsed before
/// the counts are checked, so the first unparseable or non-finite one is
/// the error, whatever the counts.
pub fn parse_query(dims: usize, lo: &str, hi: &str) -> Result<RangeQuery, String> {
    let mut lo_coords = [0.0; MAX_DIMS];
    let mut hi_coords = [0.0; MAX_DIMS];
    let lo_len = parse_corner(lo, &mut lo_coords)?;
    let hi_len = parse_corner(hi, &mut hi_coords)?;
    if lo_len != dims || hi_len != dims {
        return Err(format!(
            "expected {dims} coordinates per corner, got {lo_len}/{hi_len}"
        ));
    }
    let (lo, hi) = (&lo_coords[..dims], &hi_coords[..dims]);
    if let Some(k) = (0..dims).find(|&k| lo[k] > hi[k]) {
        return Err(format!("lo > hi along dimension {k}"));
    }
    Ok(RangeQuery::new(Rect::new(lo, hi)))
}

/// Parse one corner's comma-separated coordinates into `coords` and
/// return how many there were: every one is parsed and counted, and the
/// first [`MAX_DIMS`] are kept (more can never match a store's
/// dimensionality).
fn parse_corner(csv: &str, coords: &mut [f64; MAX_DIMS]) -> Result<usize, String> {
    let mut len = 0;
    for x in csv.split(',') {
        let v: f64 = x.parse().map_err(|_| format!("bad coordinate {x}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite coordinate {x}"));
        }
        if let Some(slot) = coords.get_mut(len) {
            *slot = v;
        }
        len += 1;
    }
    Ok(len)
}

/// Render a mutation report as the protocol's `ok` reply.
pub fn report_line(r: &SwapReport) -> String {
    format!(
        "ok version={} shards={} grids_built={} grid_cells_built={} \
         shards_reused={}",
        r.version, r.shard_count, r.grids_built, r.grid_cells_built, r.shards_reused
    )
}

/// Persist the serving release `key` into the attached catalog.
fn save_verb(ctx: &ServeContext, key: &str) -> Result<String, String> {
    let snap = ctx.store.snapshot();
    let idx = snap
        .keys()
        .iter()
        .position(|k| k == key)
        .ok_or_else(|| format!("no release named {key}"))?;
    let shard = &snap.synopsis().shards()[idx];
    let mut catalog = ctx
        .lock_catalog()
        .ok_or("no catalog attached (start with --catalog DIR)")?;
    let entry = catalog
        .save(
            key,
            shard.arena(),
            shard.grid().map(|g| g.as_ref()),
            ReleaseFormat::Binary,
        )
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "ok saved key={key} file={} format={} checksum=crc32:{:08x}",
        entry.file, entry.format, entry.checksum
    ))
}

/// Load `key` from the attached catalog (zero-copy, like the warm
/// start) and add-or-swap it into the store.
fn load_verb(ctx: &ServeContext, key: &str) -> Result<SwapReport, String> {
    let handle = ctx
        .lock_catalog()
        .ok_or("no catalog attached (start with --catalog DIR)")?
        .load_mapped(key)
        .map_err(|e| e.to_string())?;
    let serving = ctx.store.snapshot().keys().iter().any(|k| k == key);
    let op = if serving {
        ctx.store.swap(key, handle)
    } else {
        ctx.store.add(key, handle)
    };
    op.map_err(|e| e.to_string())
}

/// Execute one control verb — everything except the stream-coupled
/// `count`/`batch`/`quit` — and render its reply line. Every session
/// runs its control verbs through here, so mutations keep the same
/// journal-before-ack ordering on both transports: the returned `ok`
/// line exists only after the catalog persist inside the store op has
/// completed.
pub(crate) fn control_reply(ctx: &ServeContext, line: &str) -> String {
    let mut fields = line.split_whitespace();
    let command = fields.next().unwrap_or_default();
    match command {
        "add" | "swap" => match (fields.next(), fields.next()) {
            (Some(key), Some(path)) => {
                let outcome = load_release(path).and_then(|handle| {
                    // journal-before-ack: persist the staged shard into
                    // the catalog (one generation + one write-ahead
                    // record) as the mutation's last fallible step — the
                    // shard is saved after the snapshot build so its
                    // grid, shipped or built, lands in the catalog too
                    let persist = |next: &BTreeMap<String, ShardHandle>| {
                        if !ctx.journaled() {
                            return Ok(());
                        }
                        let shard = next.get(key).expect("the op staged this key");
                        let mut catalog = ctx.lock_catalog().expect("journaling implies a catalog");
                        catalog
                            .save(
                                key,
                                shard.arena(),
                                shard.grid().map(|g| g.as_ref()),
                                ReleaseFormat::Binary,
                            )
                            .map(|_| ())
                            .map_err(EngineError::Store)
                    };
                    let op = if command == "add" {
                        ctx.store.add_with(key, handle, persist)
                    } else {
                        ctx.store.swap_with(key, handle, persist)
                    };
                    op.map_err(|e| e.to_string())
                });
                match outcome {
                    Ok(report) => report_line(&report),
                    Err(e) => format!("err {e}"),
                }
            }
            _ => format!("err {command} needs <key> <path>"),
        },
        "retire" => match fields.next() {
            Some(key) => {
                let op = ctx.store.retire_with(key, |_| {
                    if !ctx.journaled() {
                        return Ok(());
                    }
                    let mut catalog = ctx.lock_catalog().expect("journaling implies a catalog");
                    match catalog.remove(key) {
                        // a key the catalog never held (nothing was
                        // journaled for it) has nothing to retire
                        // durably — recovery won't resurrect it
                        Ok(()) | Err(StoreError::UnknownKey { .. }) => Ok(()),
                        Err(e) => Err(EngineError::Store(e)),
                    }
                });
                match op {
                    Ok(report) => report_line(&report),
                    Err(e) => format!("err {e}"),
                }
            }
            None => "err retire needs <key>".into(),
        },
        "save" => match fields.next() {
            Some(key) => match save_verb(ctx, key) {
                Ok(ok) => ok,
                Err(e) => format!("err {e}"),
            },
            None => "err save needs <key>".into(),
        },
        "load" => match fields.next() {
            Some(key) => match load_verb(ctx, key) {
                Ok(report) => report_line(&report),
                Err(e) => format!("err {e}"),
            },
            None => "err load needs <key>".into(),
        },
        "checkpoint" => match ctx.lock_catalog() {
            None => "err no catalog attached (start with --catalog DIR)".into(),
            Some(mut catalog) => {
                let start = telemetry::enabled().then(Instant::now);
                let outcome = if catalog.journaling() {
                    // journaled mutations already persisted every
                    // serving release; fold the journal into the
                    // manifest and rotate the segment
                    match catalog.checkpoint() {
                        Ok(seq) => format!("ok checkpoint journal_seq={seq}"),
                        Err(e) => format!("err {e}"),
                    }
                } else {
                    // no journal: a checkpoint is a full persist of the
                    // serving snapshot (the manifest rewrites per save)
                    match ctx.store.persist_catalog(&mut catalog) {
                        Ok(saved) => format!("ok checkpoint saved={saved}"),
                        Err(e) => format!("err {e}"),
                    }
                };
                if let Some(t) = start {
                    ctx.metrics
                        .checkpoint_us
                        .observe(t.elapsed().as_micros() as u64);
                }
                outcome
            }
        },
        "keys" => {
            let snap = ctx.store.snapshot();
            format!("keys {}", snap.keys().join(" "))
        }
        "stats" => {
            // a thin, deterministically sorted view over the registry
            // (plus store-shape and durability-posture reads): the
            // counters come from the same handles the reactor records
            // into, so no pre-registry key can drift or regress
            let snap = ctx.store.snapshot();
            let m = &ctx.metrics;
            let shards = snap.synopsis().shards();
            let mapped_bytes: usize = shards.iter().map(|s| s.mapped_bytes()).sum();
            let mut pairs = vec![
                format!("shards={}", snap.shard_count()),
                format!("nodes={}", snap.node_count()),
                format!("dims={}", snap.dims()),
                format!("version={}", snap.version()),
                format!("gridded={}", ctx.store.gridded()),
                format!("publishes={}", m.engine.publishes.get()),
                format!("grids_built={}", m.engine.grids_built.get()),
                format!("mapped_bytes={mapped_bytes}"),
                format!("quarantined={}", ctx.quarantined.len()),
                format!("conns_text={}", m.conns_text.get()),
                format!("conns_wire={}", m.conns_wire.get()),
                format!("wire_frames_in={}", m.wire_frames_in.get()),
                format!("wire_frames_out={}", m.wire_frames_out.get()),
                format!("coalesced_dispatches={}", m.coalesced_dispatches.get()),
                format!("coalesced_queries={}", m.coalesced_queries.get()),
                format!("coalesced_spans={}", m.coalesced_spans.get()),
            ];
            for (key, shard) in snap.keys().iter().zip(shards) {
                pairs.push(if shard.is_mapped() {
                    format!("storage.{key}=mapped:{}", shard.mapped_bytes())
                } else {
                    format!("storage.{key}=owned")
                });
            }
            // a degraded boot is visible at the protocol level: how
            // many catalog keys the lossy warm start quarantined, and
            // which (reasons go to the startup log and the `metrics`
            // exposition — they have spaces)
            for (key, _) in &ctx.quarantined {
                pairs.push(format!("quarantined.{key}=1"));
            }
            // durability posture: whether mutations are journaled, how
            // far the journal has advanced, how much of the boot came
            // from replay, and how many older generations are retained
            match ctx.lock_catalog() {
                None => pairs.push("journal=0".into()),
                Some(catalog) => {
                    pairs.push(format!("journal={}", u8::from(catalog.journaling())));
                    pairs.push(format!("keep={}", catalog.keep_generations()));
                    pairs.push(format!("retained={}", catalog.retained_total()));
                    if catalog.journaling() {
                        pairs.push(format!("journal_seq={}", catalog.journal_seq()));
                        pairs.push(format!("checkpoint_seq={}", catalog.checkpoint_seq()));
                        pairs.push(format!("replayed={}", catalog.replayed_ops()));
                        pairs.push(format!(
                            "fsync={}",
                            catalog.fsync_policy().expect("journaling")
                        ));
                    }
                }
            }
            pairs.sort();
            format!("stats {}", pairs.join(" "))
        }
        "metrics" => {
            // the full exposition rides the line protocol the way a
            // batch reply does: a `metrics <n>` header, then n
            // `name{label="v"} value` lines
            let lines = exposition_lines(ctx);
            format!("metrics {}\n{}", lines.len(), lines.join("\n"))
        }
        "slowlog" => {
            let lines = ctx.slowlog.render();
            if ctx.slowlog.threshold_us() == 0 {
                "slowlog 0 (disarmed; start with --slow-query-log MS)".into()
            } else if lines.is_empty() {
                "slowlog 0".into()
            } else {
                format!("slowlog {}\n{}", lines.len(), lines.join("\n"))
            }
        }
        other => format!("err unknown command {other}"),
    }
}

/// Serve one session over a blocking input/output pair (stdin/stdout,
/// in-memory buffers) until EOF, `quit`, or an I/O failure. Either
/// protocol works: a first byte of `0xB7` negotiates `privtree-wire v1`
/// exactly as on TCP. At most one line is fed per read, and each
/// command's replies are written and flushed before the next read, so
/// an interactive peer sees every answer before it types the next
/// command.
pub fn serve_lines(
    ctx: &ServeContext,
    mut input: impl BufRead,
    mut out: impl Write,
) -> io::Result<()> {
    let mut session = Session::default();
    // the stage histograms are the reactor's; this trace is never
    // recorded
    let mut trace = TickTrace::new();
    let failpoint = |name| failpoints::check(name).map_err(|f| io::Error::other(f.to_string()));
    while !session.done() {
        failpoint("serve.read")?;
        // one line per read (nothing at EOF, which ends the input)
        let available = input.fill_buf()?;
        let n = find_newline(available).map_or(available.len(), |pos| pos + 1);
        session.feed(&available[..n]);
        input.consume(n);
        if !session.ingest(ctx) {
            return Err(io::Error::other("protocol decoder panicked"));
        }
        run_jobs(std::slice::from_mut(&mut session), ctx, &mut trace);
        let pending = session.output().len();
        if pending > 0 {
            failpoint("serve.write")?;
            out.write_all(session.output())?;
            out.flush()?;
            session.consume_output(pending);
        }
    }
    Ok(())
}

/// A running TCP listener: its bound address (resolving an OS-assigned
/// `:0` port), the reactor thread, and the drain machinery. Embedders
/// (the TCP benchmark lane, tests) can hold the handle for the life of
/// the process; the binary parks on [`ServerHandle::join_then_drain`]
/// and drains when a termination signal lands.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    join: std::thread::JoinHandle<()>,
    shutdown: ShutdownSignal,
    active: Arc<AtomicUsize>,
    /// Tripped by a timed-out [`ServerHandle::drain`]: tells the
    /// reactor to drop every remaining connection instead of waiting
    /// for their in-flight replies.
    abort: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The address the listener actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clone of the shutdown signal driving this listener; trip it
    /// (directly, or via `install_termination_handler`) to start a
    /// drain.
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        self.shutdown.clone()
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Block until the shutdown signal trips, then drain (see
    /// [`ServerHandle::drain`]).
    pub fn join_then_drain(self, deadline: Duration) -> bool {
        while !self.shutdown.is_triggered() {
            std::thread::sleep(ACCEPT_TICK);
        }
        self.drain(deadline)
    }

    /// Graceful shutdown: trip the signal (idempotent), stop accepting,
    /// let in-flight commands finish their replies, and wait up to
    /// `deadline` for every connection to close. Returns whether the
    /// drain completed inside the deadline (`false`: some connection
    /// was still mid-command; its socket is dropped without waiting for
    /// its reply).
    pub fn drain(self, deadline: Duration) -> bool {
        self.shutdown.trigger();
        let start = Instant::now();
        // the reactor notices the flag within one poll tick, closes the
        // listener, and winds connections down as their replies finish
        let mut completed = true;
        while self.active.load(Ordering::SeqCst) > 0 {
            if start.elapsed() >= deadline {
                completed = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !completed {
            // past the deadline: tell the reactor to drop whatever is
            // left so the join below cannot hang on a stuck peer
            self.abort.store(true, Ordering::SeqCst);
        }
        let _ = self.join.join();
        completed
    }
}

/// Bind `addr` and serve connections on the reactor thread (sharing
/// `ctx`) with default [`ServeOptions`].
pub fn spawn_tcp(ctx: Arc<ServeContext>, addr: &str) -> Result<ServerHandle, String> {
    spawn_tcp_with(ctx, addr, ServeOptions::default(), ShutdownSignal::new())
}

/// Bind `addr` and serve connections under the given lifecycle options,
/// draining when `shutdown` trips. All connections — text and binary —
/// are multiplexed onto one reactor thread (see `crate::reactor`)
/// that enforces [`ServeOptions::max_conns`] (excess accepts answer
/// `err busy` and close), evicts idle-deadline violators, and coalesces
/// concurrently-arriving queries into pooled batch dispatches.
pub fn spawn_tcp_with(
    ctx: Arc<ServeContext>,
    addr: &str,
    opts: ServeOptions,
    shutdown: ShutdownSignal,
) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("no local address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot poll listener: {e}"))?;
    let active = Arc::new(AtomicUsize::new(0));
    let abort = Arc::new(AtomicBool::new(false));
    let reactor_active = Arc::clone(&active);
    let reactor_abort = Arc::clone(&abort);
    let reactor_shutdown = shutdown.clone();
    let join = std::thread::spawn(move || {
        crate::reactor::run_reactor(
            listener,
            ctx,
            opts,
            reactor_shutdown,
            reactor_active,
            reactor_abort,
        );
    });
    Ok(ServerHandle {
        addr: local,
        join,
        shutdown,
        active,
        abort,
    })
}
