//! `servebench`: the serving benchmark.
//!
//! One run builds releases with PrivTree, saves them to an on-disk
//! catalog, boots them through the engine's public boot path, drives a
//! named workload over loopback TCP for `--seconds`, checks every answer
//! afterwards, and ends its standard output with one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. `--smoke` runs every workload briefly,
//! at reduced size, with full answer checks. See `servebench/README.md`.

mod boot;
mod client;
mod inputs;
mod layers;
mod load;
mod meta;
mod stats;
mod steal;
mod trace;
mod verify;

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use privtree_runtime::telemetry;
use privtree_spatial::synopsis::SpatialSynopsis;
use privtree_store::{decode_release, encode_release, Catalog, FsyncPolicy, ReleaseFormat};

use crate::boot::{boot, build_release, default_grid, Served};
use crate::client::{TextConn, REPLY_TIMEOUT};
use crate::inputs::{seeds, strip_region, Inputs, Proto, Workload, KEEP_GENERATIONS};
use crate::layers::{median_ms, parse_scrape, Scrape};
use crate::load::{
    epoch_dir, run_reader, Publish, PublishLog, Publisher, ReaderLog, Schedule, Window,
};
use crate::meta::{json_numbers, Obj};
use crate::stats::{median, quantile, quartiles, result_line, Metrics};
use crate::trace::Tracer;
use crate::verify::{check_text, check_wire, Checked, Epochs, Outcome};

const USAGE: &str = "usage: servebench --workload <wire-small|wire-road-large|text-publish> \
                     --seed <n> --seconds <s> --trace <0|1>\n       servebench --smoke";

/// Where runs keep catalogs, results, and span files (inside the
/// working directory, which must be on a disk-backed filesystem).
const OUT_DIR: &str = ".servebench";

/// `text-publish` publishes once per this period during the window.
const PUBLISH_PERIOD: Duration = Duration::from_millis(100);

/// How big and how long one run is.
struct Plan {
    /// Point counts are divided by this (smoke runs shrink the data).
    scale: usize,
    /// Set-ups per run; `setup_s` is the median of the least-stolen
    /// third.
    setup_reps: usize,
    warmup: Duration,
    /// Traced runs alternate untraced and traced slices of this length.
    slice: Duration,
    /// Publishes in the phase after the window: `wire-small`,
    /// `wire-road-large`.
    publish_phase: [usize; 2],
    /// `wire-small` telemetry on/off pairs, and each side's length.
    telemetry_pairs: usize,
    telemetry_slice: Duration,
}

impl Plan {
    const BENCH: Plan = Plan {
        scale: 1,
        setup_reps: 6,
        warmup: Duration::from_millis(500),
        slice: Duration::from_secs(1),
        publish_phase: [21, 9],
        telemetry_pairs: 12,
        telemetry_slice: Duration::from_millis(500),
    };

    const SMOKE: Plan = Plan {
        scale: 8,
        setup_reps: 1,
        warmup: Duration::from_millis(100),
        slice: Duration::from_millis(250),
        publish_phase: [2, 2],
        telemetry_pairs: 2,
        telemetry_slice: Duration::from_millis(100),
    };

    fn publish_phase(&self, w: Workload) -> usize {
        match w {
            Workload::WireSmall => self.publish_phase[0],
            Workload::WireRoadLarge => self.publish_phase[1],
            Workload::TextPublish => 0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--smoke"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s >= 1).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Some(Args {
            workload,
            seed,
            seconds,
            trace,
        })),
        _ => Err("--workload, --seed, --seconds and --trace are all required".into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
        Ok(None) => std::process::exit(smoke()),
        Ok(Some(a)) => {
            let r = run(a.workload, a.seed, a.seconds, a.trace, &Plan::BENCH);
            r.print();
        }
    }
}

/// Every workload, untraced and traced, briefly and at reduced size.
/// Exits non-zero unless every answer checked out.
fn smoke() -> i32 {
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for w in Workload::ALL {
        for traced in [false, true] {
            let r = run(w, 1, 1, traced, &Plan::SMOKE);
            println!("# smoke {} trace={}", w.name(), u8::from(traced));
            println!(
                "{}",
                result_line(r.correct, r.attempted, r.failed, &r.metrics)
            );
            correct &= r.correct;
            attempted += r.attempted;
            failed += r.failed;
        }
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, &Metrics::default())
    );
    i32::from(!correct)
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    meta: String,
}

impl RunResult {
    fn print(&self) {
        println!("# meta {}", self.meta);
        for m in &self.metrics.0 {
            println!("# {:<44} {:>16} {}", m.name, m.value, m.unit);
        }
        println!(
            "{}",
            result_line(self.correct, self.attempted, self.failed, &self.metrics)
        );
    }
}

fn scrape(addr: SocketAddr) -> Scrape {
    TextConn::connect(addr)
        .and_then(|mut conn| {
            let lines = conn.metrics();
            conn.quit();
            lines
        })
        .map(|lines| parse_scrape(&lines))
        .unwrap_or_default()
}

/// One run of one workload.
fn run(workload: Workload, seed: u64, seconds: u64, traced: bool, plan: &Plan) -> RunResult {
    let origin = Instant::now();
    let inputs = Inputs::generate(workload, seed, plan.scale);
    let out_dir = Path::new(OUT_DIR);
    let run_dir = out_dir.join(format!("{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let proto = workload.proto();

    // set-up, several times; the last one serves the run
    let mut tracer = Tracer::new(origin, traced);
    let reps = if traced { 1 } else { plan.setup_reps };
    let mut setup_secs = Vec::with_capacity(reps);
    let mut setup_steal = Vec::with_capacity(reps);
    let mut served = None;
    for rep in 0..reps {
        let dir = run_dir.join(format!("catalog-{rep}"));
        let (s, t, stolen) = boot(&inputs, &dir, &mut tracer);
        setup_secs.push(t.as_secs_f64());
        setup_steal.push(stolen);
        if rep + 1 == reps {
            served = Some(s);
        } else {
            drop(s);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let mut served = served.expect("at least one set-up");
    // the serving footprint is measured from here: set-up's transient
    // build memory is `setup_s`'s business
    meta::reset_peak_rss();

    // the window: closed-loop readers, plus the publisher in text-publish
    let before = if traced {
        scrape(served.addr)
    } else {
        Scrape::default()
    };
    let measure_from = origin.elapsed() + plan.warmup;
    let window = Window {
        origin,
        measure_from,
        end: measure_from + Duration::from_secs(seconds),
        slice: traced.then_some(plan.slice),
    };
    let draws = &inputs.draws;
    let build_epoch = |e: usize| -> SpatialSynopsis {
        build_release(
            &draws[e % draws.len()],
            strip_region(0),
            seeds::publish_build(seed, e),
        )
    };
    let rebuild = |e: usize| -> SpatialSynopsis {
        let r = &inputs.releases[0];
        build_release(&r.points, r.region, seeds::publish_build(seed, e))
    };
    let window_publisher = workload.publishes_while_reading().then(|| Publisher {
        addr: served.addr,
        key: workload.publish_key(),
        dir: epoch_dir(&run_dir),
        count: seconds as usize
            * (Duration::from_secs(1).as_millis() / PUBLISH_PERIOD.as_millis()) as usize,
        schedule: Schedule::Open {
            first: origin + measure_from,
            period: PUBLISH_PERIOD,
        },
        keep_arenas: true,
        build: &build_epoch,
    });
    let mut steal_pct = Vec::new();
    let (logs, window_publishes) = std::thread::scope(|s| {
        let readers: Vec<_> = inputs
            .streams
            .iter()
            .enumerate()
            .map(|(i, stream)| s.spawn(move || run_reader(proto, served.addr, i, stream, window)))
            .collect();
        let publisher = window_publisher
            .as_ref()
            .map(|p| s.spawn(move || p.run(origin, traced)));
        let steal = s.spawn(move || steal_per_slice(&window));
        let logs: Vec<ReaderLog> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        steal_pct = steal.join().expect("steal sampler");
        (logs, publisher.map(|h| h.join().expect("publisher thread")))
    });
    let after_window = if traced {
        scrape(served.addr)
    } else {
        Scrape::default()
    };
    let snap = served.ctx.store.snapshot();
    let grid_memory: usize = snap
        .synopsis()
        .shards()
        .iter()
        .filter_map(|s| s.grid().map(|g| g.memory_bytes()))
        .sum();
    let mapped: usize = snap
        .synopsis()
        .shards()
        .iter()
        .map(|s| s.mapped_bytes())
        .sum();
    drop(snap);

    // the wire workloads publish after their window, one after another
    let phase_publisher = (!workload.publishes_while_reading()).then(|| Publisher {
        addr: served.addr,
        key: workload.publish_key(),
        dir: epoch_dir(&run_dir),
        count: plan.publish_phase(workload),
        schedule: Schedule::BackToBack,
        keep_arenas: false,
        build: &rebuild,
    });
    let publishes: PublishLog = match (window_publishes, phase_publisher) {
        (Some(log), _) => log,
        (None, Some(p)) => p.run(origin, traced),
        (None, None) => unreachable!("every workload publishes"),
    };
    let after_publish = if traced {
        scrape(served.addr)
    } else {
        Scrape::default()
    };
    // what the readers keep for checking is the load generator's, not
    // the server's
    let kept = logs.iter().map(ReaderLog::kept_bytes).sum::<usize>();
    let peak_rss_mb = meta::peak_rss_mb() - kept as f64 / f64::from(1 << 20);

    // every answer is checked now, after the window
    let mut outcome = Outcome::default();
    let mut checked: Vec<Checked> = Vec::new();
    let mut epochs = Epochs::new(
        &served.reference,
        &served.handles,
        &publishes.arenas,
        if workload.publishes_while_reading() {
            &publishes.publishes
        } else {
            &[]
        },
    );
    for log in &logs {
        let stream = &inputs.streams[log.stream];
        let (o, c) = match proto {
            Proto::Wire => check_wire(log, stream, &served.reference),
            Proto::Text => check_text(log, stream, &mut epochs),
        };
        outcome.merge(o);
        checked.push(c);
        if log.requests.is_empty() {
            // a reader that could not even connect attempted once
            outcome.requests += 1;
            outcome.failed_requests += 1;
        }
        if outcome.first_failure.is_none() {
            outcome.first_failure = log.error.clone();
        }
    }
    drop(epochs);
    let publishes_failed = publishes.publishes.iter().filter(|p| !p.ok).count() as u64
        + u64::from(publishes.publishes.is_empty());
    let publishes_attempted = (publishes.publishes.len() as u64).max(1);
    if outcome.first_failure.is_none() {
        outcome.first_failure = publishes.error.clone();
    }
    let attempted = outcome.requests + publishes_attempted;
    let failed = outcome.failed_requests + publishes_failed;

    let mut metrics = Metrics::default();
    let mut slices_json = "null".to_string();
    if !traced {
        let in_window: &[Publish] = if workload.publishes_while_reading() {
            &publishes.publishes
        } else {
            &[]
        };
        let w = window_slices(&logs, &checked, in_window, &window);
        let kept = steal::least_stolen(&steal_pct);
        let pooled = |slices: &[Vec<f64>], q: f64| {
            let mut values: Vec<f64> = kept.iter().flat_map(|&k| &slices[k]).copied().collect();
            values.sort_by(f64::total_cmp);
            quantile(&values, q)
        };
        let kept_answers: u64 = kept.iter().map(|&k| w.answers[k]).sum();
        metrics.put(
            "qps",
            kept_answers as f64 / (w.slice_secs * kept.len() as f64),
            "queries/s",
        );
        metrics.put("request_p50_ms", pooled(&w.latencies, 0.5), "ms");
        metrics.put("request_p99_ms", pooled(&w.latencies, 0.99), "ms");
        if workload.publishes_while_reading() {
            metrics.put("publish_p50_ms", pooled(&w.publishes, 0.5), "ms");
            metrics.put("publish_p90_ms", pooled(&w.publishes, 0.9), "ms");
        } else {
            // the publish phase after the window: its least-stolen third
            let steals: Vec<Option<f64>> =
                publishes.publishes.iter().map(|p| p.steal_pct).collect();
            let mut kept_ms: Vec<f64> = steal::least_stolen(&steals)
                .into_iter()
                .map(|i| publish_ms(&publishes.publishes[i]))
                .collect();
            kept_ms.sort_by(f64::total_cmp);
            metrics.put("publish_p50_ms", quantile(&kept_ms, 0.5), "ms");
            metrics.put("publish_p90_ms", quantile(&kept_ms, 0.9), "ms");
        }
        let per_slice = |slices: &[Vec<f64>], q: f64| {
            json_numbers(
                slices
                    .iter()
                    .map(|l| (!l.is_empty()).then(|| quantile(l, q))),
            )
        };
        slices_json = Obj::default()
            .raw(
                "qps",
                json_numbers(w.answers.iter().map(|&a| Some(a as f64 / w.slice_secs))),
            )
            .raw("p50_ms", per_slice(&w.latencies, 0.5))
            .raw("p99_ms", per_slice(&w.latencies, 0.99))
            .raw("publish_p50_ms", per_slice(&w.publishes, 0.5))
            .raw("host_steal_pct", json_numbers(steal_pct.iter().copied()))
            .raw("kept", format!("{kept:?}"))
            .build();
        metrics.put(
            "ok_ops_pct",
            100.0 * (attempted - failed) as f64 / attempted as f64,
            "%",
        );
        let kept = steal::least_stolen(&setup_steal);
        metrics.put("setup_s", median(&steal::pick(&setup_secs, &kept)), "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
    } else {
        let (mut untraced_us, mut traced_us) = (Vec::new(), Vec::new());
        for (log, checked) in logs.iter().zip(&checked) {
            for (r, &(ok, _)) in log.requests.iter().zip(checked) {
                if ok {
                    let side = if r.traced {
                        &mut traced_us
                    } else {
                        &mut untraced_us
                    };
                    side.push(r.latency_ms() * 1e3);
                }
            }
        }
        let (u50, t50) = (median(&untraced_us), median(&traced_us));
        layers::replay(&served, &inputs, &logs, &mut tracer, u50, &mut metrics);
        metrics.put("trace.overhead_pct", 100.0 * (t50 / u50 - 1.0), "%");
        metrics.put("trace.untraced_request_p50_us", u50, "us");
        metrics.put("trace.traced_request_p50_us", t50, "us");
        layers::reactor_metrics(&before, &after_window, proto, &mut metrics);
        layers::store_metrics(&after_publish, &mut metrics);
        tracer.absorb(publishes.spans.clone());
        publish_path_metrics(
            &served,
            &publishes,
            &tracer,
            &run_dir,
            workload,
            &mut metrics,
        );
        metrics.put(
            "spatial.grid_route.memory_bytes",
            grid_memory as f64,
            "bytes",
        );
        metrics.put("store.view.mapped_bytes", mapped as f64, "bytes");
        setup_metrics(&served, &tracer, &mut metrics);
        let pairs = if workload == Workload::WireSmall {
            telemetry_overhead(&served, &inputs, plan)
        } else {
            Vec::new()
        };
        let (q1, q3) = quartiles(&pairs);
        metrics.put("runtime.telemetry.overhead_pct", median(&pairs), "%");
        metrics.put("runtime.telemetry.overhead_pct.q1", q1, "%");
        metrics.put("runtime.telemetry.overhead_pct.q3", q3, "%");
    }

    served.shutdown();
    let meta = Obj::default()
        .str("workload", workload.name())
        .num("seed", seed)
        .num("seconds", seconds)
        .num("trace", u8::from(traced))
        .num(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .num("pool_workers", privtree_runtime::global().workers())
        .str("git_revision", &meta::git_revision())
        .str("source_digest", &meta::source_digest())
        .str("rustc", &meta::rustc_version())
        .num("telemetry", u8::from(telemetry::enabled()))
        .str(
            "fsync",
            if workload.journaled() {
                "always"
            } else {
                "no journal"
            },
        )
        .num("keep_generations", KEEP_GENERATIONS)
        .str("catalog_fs", &meta::filesystem_of(&run_dir))
        .str("inputs_digest", &format!("{:016x}", inputs.digest))
        .num("query_pool", inputs.query_count())
        .raw("releases", releases_json(&served))
        .raw("setup_s_samples", format!("{setup_secs:?}"))
        .raw("setup_steal_pct", json_numbers(setup_steal.iter().copied()))
        .raw("slices", slices_json)
        .raw(
            "publish_ms",
            json_numbers(publishes.publishes.iter().map(|p| Some(p.latency_ms()))),
        )
        .raw(
            "publish_steal_pct",
            json_numbers(publishes.publishes.iter().map(|p| p.steal_pct)),
        )
        .num("requests", outcome.requests)
        .num("answers_correct", outcome.correct_answers)
        .num("publishes", publishes.publishes.len())
        .num("failed_ops_pct", 100.0 * failed as f64 / attempted as f64)
        .str(
            "first_failure",
            outcome.first_failure.as_deref().unwrap_or(""),
        )
        .build();
    drop(served);
    let _ = std::fs::remove_dir_all(&run_dir);
    let tag = format!(
        "{}-seed{seed}-trace{}-{}",
        workload.name(),
        u8::from(traced),
        std::process::id()
    );
    let result = result_line(failed == 0, attempted, failed, &metrics);
    let _ = std::fs::write(
        out_dir.join(format!("result-{tag}.json")),
        format!("{{\"meta\": {meta}, \"result\": {result}}}\n"),
    );
    if traced {
        let _ = tracer.write_jsonl(&out_dir.join(format!("trace-{tag}.jsonl")));
    }
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        meta,
    }
}

/// A failed request or publish counts as missing every latency limit:
/// it enters the percentiles at the reply timeout.
const FAILED_MS: f64 = REPLY_TIMEOUT.as_secs_f64() * 1e3;

/// The read window is cut into this many equal slices. Throughput and
/// latency percentiles pool the third of the slices with the least host
/// steal (see [`steal`]).
const SLICES: u32 = 30;

/// A failed publish enters the percentiles at the reply timeout.
fn publish_ms(p: &Publish) -> f64 {
    if p.ok {
        p.latency_ms()
    } else {
        FAILED_MS
    }
}

/// The read window cut into slices: each slice's verified answers, its
/// request latencies, and the latencies of the publishes due in it, all
/// sorted.
struct WindowSlices {
    slice_secs: f64,
    answers: Vec<u64>,
    latencies: Vec<Vec<f64>>,
    publishes: Vec<Vec<f64>>,
}

fn window_slices(
    logs: &[ReaderLog],
    checked: &[Checked],
    publishes: &[Publish],
    window: &Window,
) -> WindowSlices {
    let from = window.measure_from.as_nanos() as u64;
    let slice = (window.end - window.measure_from) / SLICES;
    let slice_ns = slice.as_nanos() as u64;
    let slice_of =
        |t_ns: u64| ((t_ns.saturating_sub(from) / slice_ns) as usize).min(SLICES as usize - 1);
    let mut w = WindowSlices {
        slice_secs: slice.as_secs_f64(),
        answers: vec![0; SLICES as usize],
        latencies: vec![Vec::new(); SLICES as usize],
        publishes: vec![Vec::new(); SLICES as usize],
    };
    for (log, checked) in logs.iter().zip(checked) {
        for (r, &(ok, correct)) in log.requests.iter().zip(checked) {
            let k = slice_of(r.start_ns);
            w.latencies[k].push(if ok { r.latency_ms() } else { FAILED_MS });
            w.answers[k] += u64::from(correct);
        }
    }
    for p in publishes {
        w.publishes[slice_of(p.scheduled_ns)].push(publish_ms(p));
    }
    for l in w.latencies.iter_mut().chain(w.publishes.iter_mut()) {
        l.sort_by(f64::total_cmp);
    }
    w
}

/// The host's steal during each slice of the window.
fn steal_per_slice(window: &Window) -> Vec<Option<f64>> {
    let slice = (window.end - window.measure_from) / SLICES;
    let mut marks = Vec::with_capacity(SLICES as usize + 1);
    for k in 0..=SLICES {
        let due = window.origin + window.measure_from + slice * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        marks.push(steal::ticks());
    }
    marks.windows(2).map(|m| steal::pct(m[0], m[1])).collect()
}

fn releases_json(served: &Served) -> String {
    let items: Vec<String> = served
        .releases
        .iter()
        .map(|r| {
            Obj::default()
                .str("key", &r.key)
                .num("points", r.points)
                .num("nodes", r.nodes)
                .num("depth", r.depth)
                .str(
                    "grid_bins",
                    &r.bins
                        .iter()
                        .map(|b| b.to_string())
                        .collect::<Vec<_>>()
                        .join("x"),
                )
                .num("grid_memory_bytes", r.grid_memory_bytes)
                .num("file_bytes", r.file_bytes)
                .build()
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Span durations in ms, summed over spans of one name.
fn total_ms(tracer: &Tracer, name: &str) -> f64 {
    tracer.durations_us(name).iter().sum::<f64>() / 1e3
}

/// Set-up layers of the traced run's single set-up.
fn setup_metrics(served: &Served, tracer: &Tracer, m: &mut Metrics) {
    let rel = &served.releases;
    m.put(
        "setup.core.build_ms",
        total_ms(tracer, "setup.core.build"),
        "ms",
    );
    m.put(
        "setup.core.nodes",
        rel.iter().map(|r| r.nodes).sum::<usize>() as f64,
        "count",
    );
    m.put(
        "setup.core.depth",
        rel.iter().map(|r| r.depth).max().unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "setup.spatial.frozen.freeze_ms",
        total_ms(tracer, "setup.spatial.frozen.freeze"),
        "ms",
    );
    m.put(
        "setup.spatial.grid_route.build_ms",
        total_ms(tracer, "setup.spatial.grid_route.build"),
        "ms",
    );
    m.put(
        "setup.spatial.grid_route.memory_bytes",
        rel.iter().map(|r| r.grid_memory_bytes).sum::<usize>() as f64,
        "bytes",
    );
    m.put(
        "setup.store.catalog.save_ms",
        total_ms(tracer, "setup.store.catalog.save"),
        "ms",
    );
    m.put(
        "setup.store.format.release_bytes",
        rel.iter().map(|r| r.file_bytes).sum::<u64>() as f64,
        "bytes",
    );
    m.put(
        "setup.store.catalog.open_ms",
        total_ms(tracer, "setup.store.catalog.open"),
        "ms",
    );
    m.put(
        "setup.store.view.mapped_bytes",
        served.mapped_bytes as f64,
        "bytes",
    );
    m.put(
        "setup.engine.listen_ms",
        total_ms(tracer, "setup.engine.listen"),
        "ms",
    );
    m.put(
        "setup.engine.first_answer_ms",
        total_ms(tracer, "setup.engine.first_answer"),
        "ms",
    );
}

/// The publish path: the publisher's own spans, the swap reply, and
/// replays of the server-side steps on the last epoch.
fn publish_path_metrics(
    served: &Served,
    log: &PublishLog,
    tracer: &Tracer,
    run_dir: &Path,
    workload: Workload,
    m: &mut Metrics,
) {
    let med_ms = |name: &str| median(&tracer.durations_us(name)) / 1e3;
    m.put("core.build_ms", med_ms("core.build"), "ms");
    m.put(
        "spatial.frozen.freeze_ms",
        med_ms("spatial.frozen.freeze"),
        "ms",
    );
    m.put(
        "store.format.encode_ms",
        med_ms("store.format.encode"),
        "ms",
    );
    let last: Option<&Publish> = log.publishes.last();
    m.put("core.nodes", last.map_or(0.0, |p| p.nodes as f64), "count");
    m.put(
        "core.depth",
        last.map_or(0.0, |p| f64::from(p.depth)),
        "count",
    );
    let bytes: Vec<f64> = log.publishes.iter().map(|p| p.bytes as f64).collect();
    m.put("store.format.release_bytes", median(&bytes), "bytes");
    let lags: Vec<f64> = log.publishes.iter().map(Publish::lag_ms).collect();
    m.put("publish.generator_lag_ms", median(&lags), "ms");
    m.put(
        "publish.generator_lag_max_ms",
        lags.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    let field = |key: &str| {
        log.publishes
            .iter()
            .rev()
            .find(|p| p.ok)
            .and_then(|p| {
                p.reply
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                    .and_then(|v| v.parse::<f64>().ok())
            })
            .unwrap_or(0.0)
    };
    m.put("engine.swap.shards_reused", field("shards_reused"), "count");
    m.put(
        "engine.swap.grid_cells_built",
        field("grid_cells_built"),
        "count",
    );

    // server-side steps of a publish, replayed on the last epoch
    m.put(
        "store.format.decode_ms",
        median_ms(5, || {
            std::hint::black_box(decode_release(&log.last_bytes).expect("epoch decodes"));
        }),
        "ms",
    );
    let snap = served.ctx.store.snapshot();
    let key = workload.publish_key();
    let at = snap
        .keys()
        .iter()
        .position(|k| k == key)
        .expect("published key serves");
    let shard = &snap.synopsis().shards()[at];
    m.put(
        "spatial.grid_route.build_ms",
        median_ms(3, || {
            std::hint::black_box(default_grid(shard.arena()));
        }),
        "ms",
    );
    let import_ms = if workload.journaled() {
        let dir = run_dir.join("import-replay");
        let mut catalog = Catalog::open_or_create(&dir).expect("replay catalog");
        catalog.set_retention(KEEP_GENERATIONS);
        catalog
            .enable_journal(FsyncPolicy::Always)
            .expect("replay journal");
        let bytes = encode_release(shard.arena(), shard.grid().map(|g| g.as_ref()));
        median_ms(5, || {
            catalog
                .import(key, &bytes, ReleaseFormat::Binary)
                .expect("replay import");
        })
    } else {
        0.0
    };
    m.put("store.catalog.import_ms", import_ms, "ms");
}

/// `wire-small` with the telemetry clock reads on and off, in
/// alternating order pair by pair: each pair's overhead is the share of
/// throughput lost with them on. Returns the least-stolen third.
fn telemetry_overhead(served: &Served, inputs: &Inputs, plan: &Plan) -> Vec<f64> {
    let stream = &inputs.streams[0];
    let mut pairs = Vec::with_capacity(plan.telemetry_pairs);
    let mut stolen = Vec::with_capacity(plan.telemetry_pairs);
    for pair in 0..plan.telemetry_pairs {
        let mut qps = [0.0f64; 2]; // [on, off]
        let order = if pair % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        let ticks = steal::ticks();
        for on in order {
            telemetry::set_enabled(on);
            let window = Window {
                origin: Instant::now(),
                measure_from: Duration::from_millis(50),
                end: Duration::from_millis(50) + plan.telemetry_slice,
                slice: None,
            };
            let log = run_reader(Proto::Wire, served.addr, 0, stream, window);
            let answered: usize = log
                .requests
                .iter()
                .filter(|r| r.reply.is_some())
                .map(|r| stream.queries[r.index].len())
                .sum();
            qps[usize::from(!on)] = answered as f64 / window.seconds();
        }
        stolen.push(steal::pct(ticks, steal::ticks()));
        pairs.push(100.0 * (qps[1] - qps[0]) / qps[1].max(f64::MIN_POSITIVE));
    }
    let out = steal::pick(&pairs, &steal::least_stolen(&stolen));
    telemetry::set_enabled(true);
    out
}
