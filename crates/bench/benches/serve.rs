//! Serving-engine throughput: the same PrivTree release answering
//! 10,000-query workloads through every read engine — the plain frozen
//! traversal (single-threaded and pool-chunked), the sharded re-layout,
//! and the grid-routed accelerator (summed-area interior + cell-anchored
//! boundary shell). Verifies
//! the equality contracts between configurations and writes a
//! machine-readable summary to `BENCH_serve.json` (including the
//! machine's core count — pool speedups are bounded by physical
//! parallelism; the grid-routed speedup is algorithmic, so it must show
//! even on one core). An **epoch-churn** lane drives the
//! `privtree-engine` `ReleaseStore`: per-snapshot qps before and after an
//! epoch swap, plus the swap latency itself (routing arena + one shard
//! grid — the incremental-rebuild contract is asserted in-bench). A
//! **load** lane times text parse vs `privtree-bin` decode of the same
//! release (plain and gridded; identical arrays asserted in-bench), and
//! a **concurrent-TCP** lane hammers an in-process `privtree-serve`
//! listener with 1/2/4/8 client threads over both protocols — text
//! `batch` commands and binary `privtree-wire` frames — and records the
//! reactor's cross-connection coalescing counters. A **telemetry** lane
//! prices timing capture (qps with the runtime switch on vs off,
//! target <2%) and scrapes the reactor's per-stage tick histograms off
//! the `metrics` verb into the record.
//! `cargo bench --bench serve -- --test` (or `PRIVTREE_BENCH_SMOKE=1`)
//! runs a quick smoke configuration and skips the JSON artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use privtree_datagen::spatial::gowalla_like;
use privtree_datagen::workload::{range_queries, QuerySize};
use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_engine::serve::{spawn_tcp, spawn_tcp_with, ServeContext, ServeOptions};
use privtree_engine::wire::WireClient;
use privtree_engine::ReleaseStore;
use privtree_runtime::{telemetry, ShutdownSignal, WorkerPool};
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::RangeQuery;
use privtree_spatial::sharded::ShardedSynopsis;
use privtree_spatial::synopsis::privtree_synopsis;
use privtree_spatial::{FrozenSynopsis, GridRoutedSynopsis};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Best-of-N wall clock of an arbitrary action.
fn best_time(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// [`best_time`] over an answer-producing workload, with the result
/// sunk through `black_box` so the answers are not optimized away.
fn best_secs(samples: usize, mut f: impl FnMut() -> Vec<f64>) -> f64 {
    best_time(samples, || {
        black_box(f());
    })
}

fn assert_bits_equal(label: &str, reference: &[f64], got: &[f64]) {
    assert_eq!(reference.len(), got.len(), "{label}");
    for (a, b) in reference.iter().zip(got) {
        assert_eq!(a.to_bits(), b.to_bits(), "{label} diverged");
    }
}

fn bench_serve(c: &mut Criterion) {
    let smoke = criterion::test_mode() || std::env::var_os("PRIVTREE_BENCH_SMOKE").is_some();
    let (points, per_workload, samples) = if smoke {
        (20_000, 500, 2)
    } else {
        (100_000, 10_000, 15)
    };

    let data = gowalla_like(points, 1);
    let domain = Rect::unit(2);
    let eps = Epsilon::new(1.0).unwrap();

    let frozen: FrozenSynopsis =
        privtree_synopsis(&data, domain, SplitConfig::full(2), eps, &mut seeded(2))
            .unwrap()
            .freeze();
    let sharded = ShardedSynopsis::from_frozen(&frozen, 2).unwrap();

    // PRIVTREE_GRID_BINS=<n> sweeps the resolution; default heuristic otherwise
    let bins_override = std::env::var("PRIVTREE_GRID_BINS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    let grid_build_start = Instant::now();
    let grid = match bins_override {
        Some(b) => GridRoutedSynopsis::with_bins(frozen.clone(), &[b, b]).unwrap(),
        None => GridRoutedSynopsis::build(frozen.clone()).unwrap(),
    };
    let grid_build_secs = grid_build_start.elapsed().as_secs_f64();

    let pool1 = WorkerPool::new(1);
    let pool4 = WorkerPool::new(4);
    let pool8 = WorkerPool::new(8);

    // the contracts first, on the medium workload: every frozen/sharded
    // configuration returns identical bits; grid-routed matches the plain
    // traversal numerically and is itself bit-stable across its batch paths
    let medium = range_queries(&domain, QuerySize::Medium, per_workload, 7);
    let reference = frozen.answer_batch_sequential(&medium);
    for (label, got) in [
        (
            "frozen_pool1",
            frozen.answer_batch_with_pool(&medium, &pool1),
        ),
        (
            "frozen_pool4",
            frozen.answer_batch_with_pool(&medium, &pool4),
        ),
        (
            "frozen_pool8",
            frozen.answer_batch_with_pool(&medium, &pool8),
        ),
        ("sharded_seq", sharded.answer_batch_sequential(&medium)),
        (
            "sharded_pool8",
            sharded.answer_batch_with_pool(&medium, &pool8),
        ),
    ] {
        assert_bits_equal(label, &reference, &got);
    }
    let grid_medium = grid.answer_batch_sequential(&medium);
    for (a, b) in reference.iter().zip(&grid_medium) {
        let tol = 1e-9 * a.abs().max(1.0);
        assert!((a - b).abs() <= tol, "grid_routed vs frozen: {a} vs {b}");
    }
    assert_bits_equal(
        "grid_pool8",
        &grid_medium,
        &grid.answer_batch_with_pool(&medium, &pool8),
    );

    c.bench_function("serve_frozen_sequential_medium", |b| {
        b.iter(|| black_box(frozen.answer_batch_sequential(&medium)))
    });
    c.bench_function("serve_grid_routed_medium", |b| {
        b.iter(|| black_box(grid.answer_batch_sequential(&medium)))
    });
    c.bench_function("serve_frozen_pool8_medium", |b| {
        b.iter(|| black_box(frozen.answer_batch_with_pool(&medium, &pool8)))
    });
    c.bench_function("serve_sharded_pool8_medium", |b| {
        b.iter(|| black_box(sharded.answer_batch_with_pool(&medium, &pool8)))
    });

    // wall-clock summary across the paper's three workload classes
    let mut workload_json = String::new();
    let mut medium_frozen_qps = 0.0;
    let mut medium_grid_qps = 0.0;
    for size in QuerySize::all() {
        let queries = range_queries(&domain, size, per_workload, 7);
        let frozen_ref = frozen.answer_batch_sequential(&queries);
        let grid_got = grid.answer_batch_sequential(&queries);
        for (a, b) in frozen_ref.iter().zip(&grid_got) {
            let tol = 1e-9 * a.abs().max(1.0);
            assert!((a - b).abs() <= tol, "{}: {a} vs {b}", size.name());
        }
        let t_frozen = best_secs(samples, || frozen.answer_batch_sequential(&queries));
        let t_grid = best_secs(samples, || grid.answer_batch_sequential(&queries));
        let n = queries.len() as f64;
        if size == QuerySize::Medium {
            medium_frozen_qps = n / t_frozen;
            medium_grid_qps = n / t_grid;
        }
        workload_json.push_str(&format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"frozen_seq_qps\": {:.1},\n",
                "      \"grid_routed_qps\": {:.1},\n",
                "      \"grid_speedup\": {:.3}\n",
                "    }}{}\n"
            ),
            size.name(),
            n / t_frozen,
            n / t_grid,
            t_frozen / t_grid,
            if size == QuerySize::Large { "" } else { "," },
        ));
    }

    // ---- epoch churn through the engine: answer / swap one shard /
    // answer. The store serves four strip releases with per-shard grids;
    // a swap must rebuild exactly one grid plus the 5-node routing arena,
    // retained snapshots must stay frozen, and the swapped store must
    // answer bit-identically to a from-scratch gridded rebuild. ----
    const STRIPS: usize = 4;
    let mut strip_sets: Vec<PointSet> = (0..STRIPS).map(|_| PointSet::new(2)).collect();
    for p in data.iter() {
        let s = ((p[0] * STRIPS as f64) as usize).min(STRIPS - 1);
        strip_sets[s].push(p);
    }
    let strip_release = |i: usize, seed: u64| -> FrozenSynopsis {
        let lo = i as f64 / STRIPS as f64;
        let hi = (i + 1) as f64 / STRIPS as f64;
        let region = Rect::new(&[lo, 0.0], &[hi, 1.0]);
        privtree_synopsis(
            &strip_sets[i],
            region,
            SplitConfig::full(2),
            eps,
            &mut seeded(seed),
        )
        .unwrap()
        .freeze()
    };
    let store = ReleaseStore::open_gridded(
        (0..STRIPS).map(|i| (format!("strip{i}"), strip_release(i, 100 + i as u64))),
    )
    .unwrap();
    let next_epochs = [strip_release(0, 200), strip_release(0, 201)];

    let churn_before = store.snapshot();
    let churn_reference = churn_before.synopsis().answer_batch_sequential(&medium);
    let t_churn_before = best_secs(samples, || {
        churn_before.synopsis().answer_batch_sequential(&medium)
    });
    let mut swap_best_secs = f64::INFINITY;
    let mut churn_report = None;
    for s in 0..samples.max(2) {
        let replacement = next_epochs[s % 2].clone();
        let swap_start = Instant::now();
        let report = store.swap("strip0", replacement).unwrap();
        swap_best_secs = swap_best_secs.min(swap_start.elapsed().as_secs_f64());
        assert_eq!(report.grids_built, 1, "swap must rebuild exactly one grid");
        assert_eq!(report.shards_reused, STRIPS - 1);
        churn_report = Some(report);
    }
    let churn_report = churn_report.expect("at least one swap ran");
    let churn_after = store.snapshot();
    let t_churn_after = best_secs(samples, || {
        churn_after.synopsis().answer_batch_sequential(&medium)
    });
    // retained snapshots are frozen across swaps
    assert_bits_equal(
        "epoch_churn_retained_snapshot",
        &churn_reference,
        &churn_before.synopsis().answer_batch_sequential(&medium),
    );
    // the incrementally swapped store equals a from-scratch gridded build
    let fresh = ShardedSynopsis::from_releases(
        (0..STRIPS)
            .map(|i| churn_after.synopsis().shards()[i].arena().clone())
            .collect(),
    )
    .unwrap()
    .with_shard_grids()
    .unwrap();
    assert_bits_equal(
        "epoch_churn_fresh_rebuild",
        &fresh.answer_batch_sequential(&medium),
        &churn_after.synopsis().answer_batch_sequential(&medium),
    );

    // ---- the load lane: text parse vs privtree-bin decode of the same
    // release, plain and gridded. The binary path must hand back the
    // exact arrays the text path produces (asserted), and it skips all
    // per-line float parsing — the speedup is the point of the format. ----
    use privtree_spatial::serialize::{frozen_to_text, release_from_text, release_to_text};
    use privtree_store::{decode_release, text_to_binary};
    let plain_text = frozen_to_text(&frozen);
    let plain_binary = text_to_binary(&plain_text).expect("text converts");
    let gridded_text = release_to_text(grid.frozen(), Some(grid.grid()));
    let gridded_binary = text_to_binary(&gridded_text).expect("gridded text converts");
    {
        let (t, tg) = release_from_text(&plain_text).unwrap();
        let (b, bg) = decode_release(&plain_binary).unwrap();
        assert!(tg.is_none() && bg.is_none());
        assert_eq!(t.lo_coords(), b.lo_coords(), "load lane: lo diverged");
        assert_eq!(t.hi_coords(), b.hi_coords(), "load lane: hi diverged");
        assert_eq!(t.first_child(), b.first_child());
        assert_eq!(t.child_count(), b.child_count());
        assert_eq!(t.counts(), b.counts(), "load lane: counts diverged");
        let (_, tg) = release_from_text(&gridded_text).unwrap();
        let (_, bg) = decode_release(&gridded_binary).unwrap();
        let (tg, bg) = (tg.unwrap(), bg.unwrap());
        assert_eq!(tg.anchors(), bg.anchors(), "load lane: anchors diverged");
        assert_eq!(tg.values(), bg.values(), "load lane: values diverged");
    }
    let load_samples = samples.max(3);
    let text_parse_secs = best_time(load_samples, || {
        black_box(release_from_text(black_box(&plain_text)).unwrap());
    });
    let binary_decode_secs = best_time(load_samples, || {
        black_box(decode_release(black_box(&plain_binary)).unwrap());
    });
    let gridded_text_parse_secs = best_time(load_samples, || {
        black_box(release_from_text(black_box(&gridded_text)).unwrap());
    });
    let gridded_binary_decode_secs = best_time(load_samples, || {
        black_box(decode_release(black_box(&gridded_binary)).unwrap());
    });

    // ---- the mmap sub-lane: catalog warm start through the zero-copy
    // path (map + header walk + whole-file CRC, columns borrowed from
    // the page cache, grid left staged) against the owned catalog load
    // (read + CRC + full decode + eager grid build) of the same gowalla
    // release. Mapped answers must be bit-identical to owned answers. ----
    use privtree_store::{Catalog, ReleaseFormat};
    let mmap_dir = std::env::temp_dir().join(format!("privtree-bench-mmap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&mmap_dir);
    let mut mmap_catalog = Catalog::open_or_create(&mmap_dir).expect("bench catalog");
    mmap_catalog
        .import("gowalla", &gridded_binary, ReleaseFormat::Binary)
        .expect("import the gowalla release");
    let mapped_release = mmap_catalog
        .load_mapped("gowalla")
        .expect("map the release");
    let mmap_mapped_bytes = mapped_release.mapped_bytes;
    drop(mapped_release);
    {
        let mapped = ReleaseStore::open_catalog_with(&mmap_catalog, true, true).unwrap();
        let owned = ReleaseStore::open_catalog_with(&mmap_catalog, true, false).unwrap();
        assert_bits_equal(
            "load lane: mmap-served vs owned-load answers",
            &owned.snapshot().synopsis().answer_batch_sequential(&medium),
            &mapped
                .snapshot()
                .synopsis()
                .answer_batch_sequential(&medium),
        );
    }
    let mmap_open_secs = best_time(load_samples, || {
        black_box(mmap_catalog.load_mapped("gowalla").unwrap());
    });
    let mmap_owned_load_secs = best_time(load_samples, || {
        black_box(mmap_catalog.load("gowalla").unwrap());
    });
    // First query on a fresh mapped open: the one-time cost a cold
    // replica actually pays, including the staged grid's lazy assembly.
    let first_query = std::slice::from_ref(&medium[0]);
    let mmap_first_query_secs = best_time(load_samples, || {
        let store = ReleaseStore::open_catalog_with(&mmap_catalog, true, true).unwrap();
        black_box(
            store
                .snapshot()
                .synopsis()
                .answer_batch_sequential(black_box(first_query)),
        );
    });
    let _ = std::fs::remove_dir_all(&mmap_dir);

    // ---- the sustained-churn lane: strip0 swapped every few ms under
    // continuous query load, with the durable mutation journal off and
    // on (fsync=always and fsync=every:8). Each swap in the journaled
    // configs goes journal-before-ack through the engine's persist
    // hook, exactly like a `--journal` server; the lane records swap
    // p99 and read qps per config, so the journal's overhead on both
    // the mutation path and the read path lands in the artifact. ----
    use privtree_spatial::sharded::ShardHandle;
    use privtree_store::FsyncPolicy;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let churn_interval = Duration::from_millis(if smoke { 1 } else { 5 });
    let churn_swaps = if smoke { 4 } else { 60 };
    let churn_queries = &medium[..medium.len().min(200)];
    let strip_frozen: Vec<FrozenSynopsis> = (0..STRIPS)
        .map(|i| strip_release(i, 100 + i as u64))
        .collect();
    let churn_lane = |tag: &str, policy: Option<FsyncPolicy>| -> (f64, f64) {
        let dir =
            std::env::temp_dir().join(format!("privtree-bench-churn-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut catalog = Catalog::open_or_create(&dir).expect("churn catalog");
        catalog.set_retention(2);
        for (i, frozen) in strip_frozen.iter().enumerate() {
            catalog
                .save(&format!("strip{i}"), frozen, None, ReleaseFormat::Binary)
                .unwrap();
        }
        if let Some(policy) = policy {
            catalog.enable_journal(policy).unwrap();
        }
        let store = ReleaseStore::open(strip_frozen.iter().enumerate().map(|(i, frozen)| {
            (
                format!("strip{i}"),
                ShardHandle::from_release(frozen.clone(), None),
            )
        }))
        .unwrap();
        let stop = AtomicBool::new(false);
        let answered = AtomicU64::new(0);
        let mut latencies = Vec::with_capacity(churn_swaps);
        let churn_start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let snap = store.snapshot();
                    black_box(snap.synopsis().answer_batch_sequential(churn_queries));
                    answered.fetch_add(churn_queries.len() as u64, Ordering::Relaxed);
                }
            });
            for s in 0..churn_swaps {
                let replacement = ShardHandle::from_release(next_epochs[s % 2].clone(), None);
                let swap_start = Instant::now();
                if policy.is_some() {
                    store
                        .swap_with("strip0", replacement, |next| {
                            let shard = next.get("strip0").expect("the swap staged strip0");
                            let bytes = privtree_store::encode_release(
                                shard.arena(),
                                shard.grid().map(|g| g.as_ref()),
                            );
                            catalog
                                .import("strip0", &bytes, ReleaseFormat::Binary)
                                .map(|_| ())
                                .map_err(privtree_engine::EngineError::Store)
                        })
                        .unwrap();
                } else {
                    store.swap("strip0", replacement).unwrap();
                }
                latencies.push(swap_start.elapsed().as_secs_f64());
                std::thread::sleep(churn_interval);
            }
            stop.store(true, Ordering::Relaxed);
        });
        let elapsed = churn_start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        latencies.sort_by(f64::total_cmp);
        let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
        (p99, answered.load(Ordering::Relaxed) as f64 / elapsed)
    };
    let (churn_off_p99, churn_off_qps) = churn_lane("off", None);
    let (churn_always_p99, churn_always_qps) =
        churn_lane("fsync-always", Some(FsyncPolicy::Always));
    let (churn_every8_p99, churn_every8_qps) =
        churn_lane("fsync-every8", Some(FsyncPolicy::EveryN(8)));
    let churn_overhead_pct = (churn_always_p99 - churn_off_p99) / churn_off_p99 * 100.0;

    // ---- the concurrent-TCP lane: an in-process privtree-serve
    // listener (gridded single-release store, every connection
    // multiplexed onto the reactor thread, shared global pool) hammered
    // by N client threads — text clients streaming `batch` commands and
    // binary clients streaming `privtree-wire` QRYB frames; every reply
    // is diffed against the library answer (text as its exact %.17e
    // rendering, binary bit for bit). The lane measures *protocol*
    // cost, so it uses the small-query workload (cheap grid-routed
    // answers — encode/decode dominates, which is what the two wire
    // formats differ in), and both clients pay their encode every
    // round: text renders its `batch` payload per round exactly like
    // the binary client packs its frame per round. ----
    let tcp_workload = range_queries(&domain, QuerySize::Small, per_workload, 11);
    let tcp_store = ReleaseStore::open_gridded([("gowalla", frozen.clone())]).unwrap();
    let tcp_expected_f64 = Arc::new(
        tcp_store
            .snapshot()
            .synopsis()
            .answer_batch_sequential(&tcp_workload),
    );
    let tcp_expected: Vec<String> = tcp_expected_f64
        .iter()
        .map(|a| format!("{a:.17e}"))
        .collect();
    let tcp_server = spawn_tcp(Arc::new(ServeContext::new(tcp_store)), "127.0.0.1:0")
        .expect("bind the bench listener");
    let tcp_addr = tcp_server.addr();
    let render_batch = |queries: &[RangeQuery]| {
        use std::fmt::Write as _;
        let mut payload = String::with_capacity(72 * queries.len() + 16);
        let _ = writeln!(payload, "batch {}", queries.len());
        for q in queries {
            for (i, c) in q.rect.lo().iter().enumerate() {
                if i > 0 {
                    payload.push(',');
                }
                let _ = write!(payload, "{c:.17e}");
            }
            payload.push(' ');
            for (i, c) in q.rect.hi().iter().enumerate() {
                if i > 0 {
                    payload.push(',');
                }
                let _ = write!(payload, "{c:.17e}");
            }
            payload.push('\n');
        }
        payload
    };
    let tcp_expected = Arc::new(tcp_expected);
    let tcp_rounds = if smoke { 1 } else { 4 };
    let run_sweep = |addr: std::net::SocketAddr| -> Vec<(usize, f64)> {
        let mut lanes = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let expected = Arc::clone(&tcp_expected);
                    let queries = &tcp_workload;
                    let render_batch = &render_batch;
                    scope.spawn(move || {
                        let stream =
                            std::net::TcpStream::connect(addr).expect("connect to bench listener");
                        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                        let mut writer = std::io::BufWriter::new(stream);
                        let mut reply = String::new();
                        for _ in 0..tcp_rounds {
                            let payload = render_batch(queries);
                            writer.write_all(payload.as_bytes()).expect("send batch");
                            writer.flush().expect("flush batch");
                            for want in expected.iter() {
                                reply.clear();
                                reader.read_line(&mut reply).expect("read reply");
                                assert_eq!(reply.trim_end(), want, "TCP answer diverged");
                            }
                        }
                        let _ = writer.write_all(b"quit\n");
                        let _ = writer.flush();
                    });
                }
            });
            let elapsed = start.elapsed().as_secs_f64();
            let total = (threads * tcp_rounds * tcp_workload.len()) as f64;
            lanes.push((threads, total / elapsed));
        }
        lanes
    };
    // the same sweep over the binary protocol: each client thread ships
    // the whole workload as a single privtree-wire QRYB frame per round
    // and checks the ANSV payload bit for bit against the library answer
    let run_wire_sweep = |addr: std::net::SocketAddr| -> Vec<(usize, f64)> {
        let mut lanes = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let expected = Arc::clone(&tcp_expected_f64);
                    let queries = &tcp_workload;
                    scope.spawn(move || {
                        let mut client =
                            WireClient::connect(addr).expect("connect to bench listener");
                        for _ in 0..tcp_rounds {
                            let answers = client.query(queries).expect("binary batch");
                            for (want, got) in expected.iter().zip(answers.iter()) {
                                assert_eq!(
                                    want.to_bits(),
                                    got.to_bits(),
                                    "binary TCP answer diverged"
                                );
                            }
                        }
                        let _ = client.quit();
                    });
                }
            });
            let elapsed = start.elapsed().as_secs_f64();
            let total = (threads * tcp_rounds * medium.len()) as f64;
            lanes.push((threads, total / elapsed));
        }
        lanes
    };
    let lanes_json = |lanes: &[(usize, f64)], indent: &str| {
        lanes
            .iter()
            .map(|(threads, qps)| format!("{indent}\"threads_{threads}_qps\": {qps:.1}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let tcp_lanes = run_sweep(tcp_addr);
    let wire_lanes = run_wire_sweep(tcp_addr);
    let tcp_json = lanes_json(&tcp_lanes, "      ");
    let wire_json = lanes_json(&wire_lanes, "      ");
    let binary_speedup_1_thread = wire_lanes[0].1 / tcp_lanes[0].1;

    // scrape the reactor's protocol counters off the shared listener so
    // the cross-connection coalescing behaviour lands in the JSON
    let tcp_stats = {
        let stream = std::net::TcpStream::connect(tcp_addr).expect("connect for stats");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = std::io::BufWriter::new(stream);
        writer.write_all(b"stats\nquit\n").expect("send stats");
        writer.flush().expect("flush stats");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read stats");
        line
    };
    let stat = |key: &str| -> f64 {
        let needle = format!("{key}=");
        tcp_stats
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&needle))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("stats reply missing {key}: {tcp_stats}"))
    };
    let coalesced_dispatches = stat("coalesced_dispatches");
    let coalesced_queries = stat("coalesced_queries");
    let coalesced_spans = stat("coalesced_spans");
    let spans_per_dispatch = coalesced_spans / coalesced_dispatches.max(1.0);

    // the same sweep against a fully-guarded listener — idle deadline
    // armed, connection cap enforced — then a graceful drain;
    // the lifecycle guards must cost <2% qps on the hot path
    let hard_store = ReleaseStore::open_gridded([("gowalla", frozen.clone())]).unwrap();
    let hard_server = spawn_tcp_with(
        Arc::new(ServeContext::new(hard_store)),
        "127.0.0.1:0",
        ServeOptions {
            max_conns: 64,
            idle_timeout: Some(Duration::from_secs(30)),
        },
        ShutdownSignal::new(),
    )
    .expect("bind the hardened bench listener");
    let hard_lanes = run_sweep(hard_server.addr());
    let hard_json = lanes_json(&hard_lanes, "    ");
    let drained = hard_server.drain(Duration::from_secs(5));
    assert!(drained, "hardened bench listener failed to drain");
    let overhead_pct = {
        let base = tcp_lanes.last().map(|(_, qps)| *qps).unwrap_or(1.0);
        let hard = hard_lanes.last().map(|(_, qps)| *qps).unwrap_or(1.0);
        (base - hard) / base * 100.0
    };

    // ---- telemetry overhead: the same small-query workload over the
    // binary protocol (the fastest serving path, so the clock reads are
    // the largest relative cost they can be) with timing capture on vs
    // off via the runtime switch. Counters record in both
    // configurations — only the Instant reads differ — and the target
    // is <2% qps. With timing back on, the reactor's per-stage tick
    // histograms are scraped off the `metrics` verb into the record. ----
    let telemetry_round = |addr: std::net::SocketAddr| -> f64 {
        let mut client = WireClient::connect(addr).expect("connect for telemetry lane");
        let start = Instant::now();
        for _ in 0..tcp_rounds {
            black_box(client.query(&tcp_workload).expect("telemetry lane batch"));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let _ = client.quit();
        (tcp_rounds * tcp_workload.len()) as f64 / elapsed
    };
    // one discarded warm-up round, then interleaved best-of reps so
    // neither configuration soaks up cold-cache cost for the other
    let telemetry_reps = if smoke { 2 } else { 5 };
    telemetry_round(tcp_addr);
    let (mut telemetry_on_qps, mut telemetry_off_qps) = (0.0f64, 0.0f64);
    for _ in 0..telemetry_reps {
        telemetry::set_enabled(true);
        telemetry_on_qps = telemetry_on_qps.max(telemetry_round(tcp_addr));
        telemetry::set_enabled(false);
        telemetry_off_qps = telemetry_off_qps.max(telemetry_round(tcp_addr));
    }
    telemetry::set_enabled(true);
    let telemetry_overhead_pct = (telemetry_off_qps - telemetry_on_qps) / telemetry_off_qps * 100.0;

    let exposition = WireClient::connect(tcp_addr)
        .expect("connect for metrics scrape")
        .metrics()
        .expect("METR scrape");
    let metric = |key: &str| -> f64 {
        exposition
            .lines()
            .find_map(|l| {
                l.strip_prefix(key)
                    .and_then(|rest| rest.trim_start().parse().ok())
            })
            .unwrap_or_else(|| panic!("exposition missing {key}"))
    };
    let stage_json = ["decode", "coalesce", "dispatch", "scatter", "flush"]
        .iter()
        .map(|stage| {
            let p50 = metric(&format!(
                "reactor_stage_us{{stage=\"{stage}\",quantile=\"0.5\"}}"
            ));
            let p99 = metric(&format!(
                "reactor_stage_us{{stage=\"{stage}\",quantile=\"0.99\"}}"
            ));
            let ticks = metric(&format!("reactor_stage_us_count{{stage=\"{stage}\"}}"));
            format!(
                "      \"{stage}\": {{ \"p50_us\": {p50}, \"p99_us\": {p99}, \"ticks\": {ticks} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let seq = best_secs(samples, || frozen.answer_batch_sequential(&medium));
    let p4 = best_secs(samples, || frozen.answer_batch_with_pool(&medium, &pool4));
    let p8 = best_secs(samples, || frozen.answer_batch_with_pool(&medium, &pool8));
    let sh_p8 = best_secs(samples, || sharded.answer_batch_with_pool(&medium, &pool8));

    let n = medium.len() as f64;
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let bins = grid
        .grid()
        .bins()
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join("x");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve\",\n",
            "  \"dataset\": \"gowalla_like_100k\",\n",
            "  \"queries_per_workload\": {},\n",
            "  \"nodes\": {},\n",
            "  \"shards\": {},\n",
            "  \"cores\": {},\n",
            "  \"grid_bins\": \"{}\",\n",
            "  \"grid_cells\": {},\n",
            "  \"grid_memory_bytes\": {},\n",
            "  \"grid_build_secs\": {:.6},\n",
            "  \"bit_identical\": true,\n",
            "  \"workloads\": {{\n",
            "{}",
            "  }},\n",
            "  \"epoch_churn\": {{\n",
            "    \"shards\": {},\n",
            "    \"swap_best_secs\": {:.6},\n",
            "    \"swap_grids_built\": {},\n",
            "    \"swap_grid_cells_built\": {},\n",
            "    \"swap_routing_nodes_rebuilt\": {},\n",
            "    \"snapshot_qps_before_swap\": {:.1},\n",
            "    \"snapshot_qps_after_swap\": {:.1}\n",
            "  }},\n",
            "  \"load\": {{\n",
            "    \"text_bytes\": {},\n",
            "    \"binary_bytes\": {},\n",
            "    \"text_parse_secs\": {:.6},\n",
            "    \"binary_decode_secs\": {:.6},\n",
            "    \"decode_speedup\": {:.2},\n",
            "    \"gridded_text_bytes\": {},\n",
            "    \"gridded_binary_bytes\": {},\n",
            "    \"gridded_text_parse_secs\": {:.6},\n",
            "    \"gridded_binary_decode_secs\": {:.6},\n",
            "    \"gridded_decode_speedup\": {:.2},\n",
            "    \"mmap\": {{\n",
            "      \"mapped_bytes\": {},\n",
            "      \"open_secs\": {:.6},\n",
            "      \"owned_load_secs\": {:.6},\n",
            "      \"first_query_secs\": {:.6},\n",
            "      \"speedup_vs_owned_decode\": {:.2}\n",
            "    }}\n",
            "  }},\n",
            "  \"sustained_churn\": {{\n",
            "    \"swaps_per_config\": {},\n",
            "    \"swap_interval_ms\": {},\n",
            "    \"journal_off\": {{ \"swap_p99_secs\": {:.6}, \"read_qps\": {:.1} }},\n",
            "    \"journal_fsync_always\": {{ \"swap_p99_secs\": {:.6}, \"read_qps\": {:.1} }},\n",
            "    \"journal_fsync_every8\": {{ \"swap_p99_secs\": {:.6}, \"read_qps\": {:.1} }},\n",
            "    \"journal_swap_overhead_pct\": {:.2}\n",
            "  }},\n",
            "  \"concurrent_tcp\": {{\n",
            "    \"query_size\": \"small\",\n",
            "    \"queries_per_batch\": {},\n",
            "    \"rounds_per_thread\": {},\n",
            "    \"text\": {{\n",
            "{}\n",
            "    }},\n",
            "    \"binary\": {{\n",
            "{}\n",
            "    }},\n",
            "    \"binary_speedup_1_thread\": {:.2},\n",
            "    \"coalesced_dispatches\": {},\n",
            "    \"coalesced_queries\": {},\n",
            "    \"coalesced_spans\": {},\n",
            "    \"spans_per_dispatch\": {:.2}\n",
            "  }},\n",
            "  \"hardening\": {{\n",
            "    \"idle_timeout_secs\": 30,\n",
            "    \"max_conns\": 64,\n",
            "    \"drained_within_5s\": {},\n",
            "{},\n",
            "    \"overhead_pct_threads_8\": {:.2}\n",
            "  }},\n",
            "  \"telemetry\": {{\n",
            "    \"query_size\": \"small\",\n",
            "    \"on_qps\": {:.1},\n",
            "    \"off_qps\": {:.1},\n",
            "    \"overhead_pct\": {:.2},\n",
            "    \"reactor_stage_us\": {{\n",
            "{}\n",
            "    }}\n",
            "  }},\n",
            "  \"frozen_seq_qps\": {:.1},\n",
            "  \"grid_routed_qps\": {:.1},\n",
            "  \"grid_speedup_medium\": {:.3},\n",
            "  \"frozen_pool4_qps\": {:.1},\n",
            "  \"frozen_pool8_qps\": {:.1},\n",
            "  \"sharded_pool8_qps\": {:.1},\n",
            "  \"pool4_speedup\": {:.3},\n",
            "  \"pool8_speedup\": {:.3}\n",
            "}}\n"
        ),
        per_workload,
        frozen.node_count(),
        sharded.shard_count(),
        cores,
        bins,
        grid.grid().cells(),
        grid.grid().memory_bytes(),
        grid_build_secs,
        workload_json,
        STRIPS,
        swap_best_secs,
        churn_report.grids_built,
        churn_report.grid_cells_built,
        churn_report.routing_nodes_rebuilt,
        medium.len() as f64 / t_churn_before,
        medium.len() as f64 / t_churn_after,
        plain_text.len(),
        plain_binary.len(),
        text_parse_secs,
        binary_decode_secs,
        text_parse_secs / binary_decode_secs,
        gridded_text.len(),
        gridded_binary.len(),
        gridded_text_parse_secs,
        gridded_binary_decode_secs,
        gridded_text_parse_secs / gridded_binary_decode_secs,
        mmap_mapped_bytes,
        mmap_open_secs,
        mmap_owned_load_secs,
        mmap_first_query_secs,
        mmap_owned_load_secs / mmap_open_secs,
        churn_swaps,
        churn_interval.as_millis(),
        churn_off_p99,
        churn_off_qps,
        churn_always_p99,
        churn_always_qps,
        churn_every8_p99,
        churn_every8_qps,
        churn_overhead_pct,
        tcp_workload.len(),
        tcp_rounds,
        tcp_json,
        wire_json,
        binary_speedup_1_thread,
        coalesced_dispatches,
        coalesced_queries,
        coalesced_spans,
        spans_per_dispatch,
        drained,
        hard_json,
        overhead_pct,
        telemetry_on_qps,
        telemetry_off_qps,
        telemetry_overhead_pct,
        stage_json,
        medium_frozen_qps,
        medium_grid_qps,
        medium_grid_qps / medium_frozen_qps,
        n / p4,
        n / p8,
        n / sh_p8,
        seq / p4,
        seq / p8,
    );
    if smoke {
        println!("smoke mode: skipping BENCH_serve.json\n{json}");
    } else {
        match std::fs::write("BENCH_serve.json", &json) {
            Ok(()) => println!("wrote BENCH_serve.json:\n{json}"),
            Err(e) => eprintln!("could not write BENCH_serve.json: {e}\n{json}"),
        }
    }
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
