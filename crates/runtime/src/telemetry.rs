//! Lock-free metrics for the serving stack: counters, gauges,
//! log-scale histograms, and per-tick stage tracing.
//!
//! The serving layers (reactor, engine, store) record everything they
//! know about a running process here — request latencies, reactor
//! stage timings, journal fsync distributions, byte counts — and the
//! `metrics` verb renders the registry as a Prometheus-style text
//! exposition. Three design rules keep the module true to the rest of
//! the workspace:
//!
//! * **No dependencies, no locks on the hot path.** Recording into a
//!   [`Counter`], [`Gauge`], or [`Histogram`] is a handful of relaxed
//!   atomic ops; handles are plain `Arc`s that callers cache at setup
//!   time. The only mutex in the module guards metric *registration*
//!   (get-or-create), which happens once per metric per process.
//! * **Deterministic readout.** Histogram quantiles are reported as
//!   the upper boundary of the bucket holding the requested rank — an
//!   integer, never an interpolated float — and
//!   [`Registry::render`] returns lexicographically sorted lines, so
//!   two scrapes of the same state are byte-identical and tests can
//!   pin the exposition format.
//! * **Runtime kill switch, not a cargo feature.** [`set_enabled`]
//!   (or `PRIVTREE_TELEMETRY=0`) turns off the *clock reads* — the
//!   `Instant::now` pairs around reactor stages and request spans —
//!   while counters keep counting, so the `stats` verb never regresses
//!   and servebench's `runtime.telemetry.overhead_pct` can measure the
//!   timing cost alone.
//!   A cargo feature would instead zero the protocol counters in
//!   `--no-default-features` builds and break their tests.
//!
//! # Units
//!
//! Durations are recorded in **microseconds** and metric names end in
//! `_us`; byte distributions end in `_bytes`. Values are `u64` and
//! render as integers — no float formatting enters the exposition.
//!
//! # Histogram shape
//!
//! Fixed log-scale boundaries, identical for every histogram: values
//! 0–15 get exact unit buckets, and from 16 up each power-of-two
//! octave is split into 4 sub-buckets (relative error ≤ 25%, typically
//! ~12%), for [`BUCKETS`] = 256 buckets total covering all of `u64`.
//! Fixed boundaries make histograms mergeable by plain bucket-wise
//! addition — merging is associative and commutative, which the
//! property tests pin.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------- switch

/// 0 = uninitialised (consult `PRIVTREE_TELEMETRY`), 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether timing capture is on. Counters and gauges record
/// regardless; this gates only the clock reads (stage spans, request
/// latency). Defaults to on; `PRIVTREE_TELEMETRY=0` (or `off`/`false`)
/// starts the process with timing off.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !matches!(
                std::env::var("PRIVTREE_TELEMETRY").as_deref(),
                Ok("0") | Ok("off") | Ok("false")
            );
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turn timing capture on or off at runtime (servebench flips this to
/// measure the cost of the clock reads as
/// `runtime.telemetry.overhead_pct`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// -------------------------------------------------------------- primitives

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depth, mapped bytes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the value by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the value by `n` (saturating at zero: a release decrement
    /// racing a concurrent reader must never wrap to 2^64).
    pub fn sub(&self, n: u64) {
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets (fixed log-scale boundaries over `u64`).
pub const BUCKETS: usize = 256;

/// Bucket index for a recorded value. Values 0–15 map to exact unit
/// buckets; above that, each power-of-two octave splits into 4
/// sub-buckets keyed by the two bits below the leading one.
pub fn bucket_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (octave - 2)) & 3) as usize;
    16 + (octave - 4) * 4 + sub
}

/// Inclusive upper boundary of bucket `i` — the value a quantile
/// readout reports for ranks landing in that bucket.
pub fn bucket_upper(i: usize) -> u64 {
    assert!(i < BUCKETS, "bucket index out of range");
    if i < 16 {
        return i as u64;
    }
    let k = i - 16;
    let octave = 4 + k / 4;
    let sub = (k % 4) as u64;
    let width = 1u64 << (octave - 2);
    (1u64 << octave) + sub * width + (width - 1)
}

/// A fixed-boundary log-scale histogram with atomic buckets.
///
/// Recording is lock-free (one relaxed `fetch_add` per bucket/count/
/// sum plus a `fetch_max` for the max); readout goes through
/// [`Histogram::snapshot`]. Two histograms merge by bucket-wise
/// addition because every histogram shares the same boundaries.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Fold another histogram's recordings into this one.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy for readout and offline merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`Histogram`]: quantile readout and merging
/// without touching the live atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (same boundaries as every histogram).
    pub buckets: [u64; BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (the merge identity).
    pub fn empty() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The deterministic quantile readout: the upper boundary of the
    /// bucket holding rank `ceil(q * count)`, capped at the observed
    /// max. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Fold another snapshot into this one (bucket-wise addition —
    /// associative and commutative by construction).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------- registry

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// A named collection of metrics with a deterministic text readout.
///
/// `counter`/`gauge`/`histogram` are get-or-create: the first call for
/// a `(name, labels)` pair registers the metric, later calls hand back
/// the same `Arc`. Callers cache the handle and record lock-free from
/// then on. A server owns one registry per listener (parallel
/// in-process tests must not see each other's counts); the `privtree-
/// serve` binary effectively has one per process, and [`global`]
/// provides a shared instance for code with no context to thread.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name{labels}`.
    ///
    /// # Panics
    /// If the pair is already registered as a different metric kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, labels, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            _ => panic!("{name} is registered as a non-counter"),
        }
    }

    /// Get or create the gauge `name{labels}`.
    ///
    /// # Panics
    /// If the pair is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => panic!("{name} is registered as a non-gauge"),
        }
    }

    /// Get or create the histogram `name{labels}`.
    ///
    /// # Panics
    /// If the pair is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_insert(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            _ => panic!("{name} is registered as a non-histogram"),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return e.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            name: name.to_string(),
            labels,
            metric: metric.clone(),
        });
        metric
    }

    /// Render every metric as `name{label="v"} value` lines, sorted
    /// lexicographically — two scrapes of identical state are
    /// byte-identical. Histograms expand to `quantile="0.5"/"0.9"/
    /// "0.99"` lines plus `_count`/`_sum`/`_max`, all present even
    /// when empty so the exposition's key set is stable from the first
    /// scrape.
    pub fn render(&self) -> Vec<String> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut lines = Vec::with_capacity(entries.len() * 2);
        for e in entries.iter() {
            match &e.metric {
                Metric::Counter(c) => {
                    lines.push(format!(
                        "{} {}",
                        render_key(&e.name, &e.labels, None),
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    lines.push(format!(
                        "{} {}",
                        render_key(&e.name, &e.labels, None),
                        g.get()
                    ));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    for (q, v) in [
                        ("0.5", snap.quantile(0.5)),
                        ("0.9", snap.quantile(0.9)),
                        ("0.99", snap.quantile(0.99)),
                    ] {
                        lines.push(format!("{} {v}", render_key(&e.name, &e.labels, Some(q))));
                    }
                    let base =
                        |suffix: &str| render_key(&format!("{}{suffix}", e.name), &e.labels, None);
                    lines.push(format!("{} {}", base("_count"), snap.count));
                    lines.push(format!("{} {}", base("_sum"), snap.sum));
                    lines.push(format!("{} {}", base("_max"), snap.max));
                }
            }
        }
        lines.sort();
        lines
    }
}

/// Render `name{k="v",...}` (labels pre-sorted; a trailing
/// `quantile="q"` label for histogram quantile lines). Label values
/// are escaped so free-text reasons (quarantine errors) cannot break
/// the line format.
pub fn render_key(name: &str, labels: &[(String, String)], quantile: Option<&str>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    if let Some(q) = quantile {
        if !first {
            out.push(',');
        }
        out.push_str("quantile=\"");
        out.push_str(q);
        out.push('"');
    }
    out.push('}');
    out
}

/// Escape a label value for the exposition: backslash, double quote,
/// and newline, exactly as the Prometheus text format does.
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The process-wide registry, for code with no context to thread a
/// per-server registry through.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// -------------------------------------------------------------- tick spans

/// The reactor tick stages a [`TickTrace`] times, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading sockets and parsing bytes into jobs.
    Decode,
    /// Gathering per-connection query jobs into one dispatch.
    Coalesce,
    /// The pooled batch answer itself.
    Dispatch,
    /// Scattering answers back into per-connection reply buffers.
    Scatter,
    /// Writing reply buffers to sockets.
    Flush,
}

/// Every stage, in pipeline order (the exposition's label values).
pub const STAGES: [Stage; 5] = [
    Stage::Decode,
    Stage::Coalesce,
    Stage::Dispatch,
    Stage::Scatter,
    Stage::Flush,
];

impl Stage {
    /// The `stage=` label value.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Coalesce => "coalesce",
            Stage::Dispatch => "dispatch",
            Stage::Scatter => "scatter",
            Stage::Flush => "flush",
        }
    }
}

/// Per-tick stage timing accumulator.
///
/// The reactor creates one per tick, wraps each pipeline section in
/// [`TickTrace::time`] (or feeds pre-measured spans via
/// [`TickTrace::add_us`]) *only when that section had work*, and ends
/// the tick with [`TickTrace::observe_into`] — so idle ticks never
/// dilute the stage histograms. When telemetry is [`enabled`]`()==
/// false` the clock is never read and `time` is a plain call-through.
#[derive(Debug)]
pub struct TickTrace {
    enabled: bool,
    touched: u8,
    accum_us: [u64; STAGES.len()],
}

impl Default for TickTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl TickTrace {
    /// A fresh trace for one tick; samples the [`enabled`] switch once.
    pub fn new() -> Self {
        Self {
            enabled: enabled(),
            touched: 0,
            accum_us: [0; STAGES.len()],
        }
    }

    /// Whether this trace is capturing (callers can skip building
    /// span inputs when it is not).
    pub fn capturing(&self) -> bool {
        self.enabled
    }

    /// Run `f`, charging its wall time to `stage`.
    pub fn time<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add_us(stage, start.elapsed().as_micros() as u64);
        out
    }

    /// Charge a pre-measured span to `stage`.
    pub fn add_us(&mut self, stage: Stage, us: u64) {
        if !self.enabled {
            return;
        }
        self.touched |= 1 << stage as usize;
        self.accum_us[stage as usize] += us;
    }

    /// Microseconds charged to `stage` so far this tick.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.accum_us[stage as usize]
    }

    /// Whether any stage was touched this tick.
    pub fn any(&self) -> bool {
        self.touched != 0
    }

    /// Record every touched stage into its histogram (`hists` indexed
    /// like [`STAGES`]) and reset for the next tick.
    pub fn observe_into(&mut self, hists: &[Arc<Histogram>; STAGES.len()]) {
        if self.touched != 0 {
            for (i, h) in hists.iter().enumerate() {
                if self.touched & (1 << i) != 0 {
                    h.observe(self.accum_us[i]);
                }
            }
        }
        self.touched = 0;
        self.accum_us = [0; STAGES.len()];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0u64..16 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn boundaries_are_monotonic_and_cover_u64() {
        let mut prev = bucket_upper(0);
        for i in 1..BUCKETS {
            let upper = bucket_upper(i);
            assert!(upper > prev, "bucket {i} not increasing");
            prev = upper;
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn every_value_lands_at_or_below_its_bucket_upper() {
        for shift in 0..64u32 {
            for delta in [-1i64, 0, 1, 3] {
                let v = (1u64 << shift).wrapping_add_signed(delta);
                let i = bucket_index(v);
                assert!(v <= bucket_upper(i), "v={v} above bucket {i}");
                if i > 0 {
                    assert!(v > bucket_upper(i - 1), "v={v} below bucket {i}");
                }
            }
        }
    }

    #[test]
    fn quantiles_read_bucket_uppers_capped_at_max() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.99), 0);
        for v in 1..=100u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.max, 100);
        let p50 = snap.quantile(0.5);
        // rank 50 lands in the bucket covering 50; the readout is that
        // bucket's upper bound — within the 25% relative-error contract
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        assert!(snap.quantile(0.99) <= 100);
        assert!(snap.quantile(1.0) == 100, "p100 capped at observed max");
        assert!(snap.quantile(0.9) >= p50);
    }

    #[test]
    fn histograms_merge_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..50u64 {
            a.observe(v);
            b.observe(v * 1000);
        }
        a.merge_from(&b);
        let merged = a.snapshot();
        assert_eq!(merged.count, 100);
        assert_eq!(merged.max, 49_000);
        let mut by_snapshot = Histogram::new().snapshot();
        let c = Histogram::new();
        for v in 0..50u64 {
            c.observe(v);
        }
        let d = Histogram::new();
        for v in 0..50u64 {
            d.observe(v * 1000);
        }
        by_snapshot.merge(&c.snapshot());
        by_snapshot.merge(&d.snapshot());
        assert_eq!(merged, by_snapshot);
    }

    #[test]
    fn concurrent_observation_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per_thread {
                        h.observe(t * per_thread + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, threads * per_thread);
        assert_eq!(snap.buckets.iter().sum::<u64>(), threads * per_thread);
        assert_eq!(snap.max, threads * per_thread - 1);
    }

    #[test]
    fn gauge_sub_saturates() {
        let g = Gauge::new();
        g.add(3);
        g.sub(10);
        assert_eq!(g.get(), 0);
        g.set(42);
        g.sub(2);
        assert_eq!(g.get(), 40);
    }

    #[test]
    fn registry_returns_the_same_handle_and_renders_sorted() {
        let r = Registry::new();
        let c1 = r.counter("requests_total", &[("proto", "text")]);
        let c2 = r.counter("requests_total", &[("proto", "text")]);
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3);
        r.counter("requests_total", &[("proto", "wire")]).add(7);
        r.gauge("queue_depth", &[]).set(4);
        r.histogram("latency_us", &[("proto", "text")]).observe(100);
        let lines = r.render();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "render must be sorted");
        assert!(lines.contains(&"requests_total{proto=\"text\"} 3".to_string()));
        assert!(lines.contains(&"requests_total{proto=\"wire\"} 7".to_string()));
        assert!(lines.contains(&"queue_depth 4".to_string()));
        assert!(lines.contains(&"latency_us_count{proto=\"text\"} 1".to_string()));
        assert!(lines.contains(&"latency_us_sum{proto=\"text\"} 100".to_string()));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("latency_us{proto=\"text\",quantile=\"0.5\"}")));
        // a second scrape of unchanged state is byte-identical
        assert_eq!(lines, r.render());
    }

    #[test]
    fn empty_histogram_still_exposes_its_full_key_set() {
        let r = Registry::new();
        r.histogram("idle_us", &[]);
        let lines = r.render();
        for want in [
            "idle_us_count 0",
            "idle_us_sum 0",
            "idle_us_max 0",
            "idle_us{quantile=\"0.5\"} 0",
            "idle_us{quantile=\"0.9\"} 0",
            "idle_us{quantile=\"0.99\"} 0",
        ] {
            assert!(
                lines.contains(&want.to_string()),
                "missing {want}: {lines:?}"
            );
        }
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let r = Registry::new();
        r.gauge("quarantined", &[("key", "bad\"name")]).set(1);
        assert_eq!(
            r.render(),
            vec!["quarantined{key=\"bad\\\"name\"} 1".to_string()]
        );
    }

    #[test]
    fn labels_are_sorted_within_a_key() {
        let r = Registry::new();
        let a = r.counter("m", &[("b", "2"), ("a", "1")]);
        let b = r.counter("m", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1, "label order must not split the metric");
        assert_eq!(r.render(), vec!["m{a=\"1\",b=\"2\"} 1".to_string()]);
    }

    /// Serializes the tests that flip the process-global [`enabled`]
    /// switch (cargo runs tests on parallel threads).
    static SWITCH: Mutex<()> = Mutex::new(());

    #[test]
    fn tick_trace_accumulates_and_resets() {
        let _guard = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let mut trace = TickTrace::new();
        assert!(!trace.any());
        trace.time(Stage::Dispatch, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        trace.add_us(Stage::Decode, 5);
        trace.add_us(Stage::Decode, 7);
        assert!(trace.any());
        assert_eq!(trace.stage_us(Stage::Decode), 12);
        assert!(trace.stage_us(Stage::Dispatch) >= 2_000);
        let hists: [Arc<Histogram>; STAGES.len()] =
            std::array::from_fn(|_| Arc::new(Histogram::new()));
        trace.observe_into(&hists);
        assert!(!trace.any());
        assert_eq!(hists[Stage::Decode as usize].count(), 1);
        assert_eq!(hists[Stage::Dispatch as usize].count(), 1);
        // untouched stages record nothing — idle stages don't pollute
        assert_eq!(hists[Stage::Flush as usize].count(), 0);
        // a second observe after reset records nothing
        trace.observe_into(&hists);
        assert_eq!(hists[Stage::Decode as usize].count(), 1);
    }

    #[test]
    fn disabled_trace_never_reads_the_clock() {
        let _guard = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let mut trace = TickTrace::new();
        assert!(!trace.capturing());
        trace.time(Stage::Dispatch, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        trace.add_us(Stage::Decode, 99);
        assert!(!trace.any());
        set_enabled(true);
    }
}
