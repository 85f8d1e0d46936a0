//! The traced run's per-layer measurements.
//!
//! Each sampled request of the traced slices is replayed through the
//! layers' public functions, in layer order:
//!
//! * L0 `spatial.frozen` — `FrozenSynopsis::answer_batch_sequential` on
//!   every served arena (a reference walk without the grids; not on the
//!   served path, so it is no one's child);
//! * L1 `spatial.sharded` — `ShardedSynopsis::answer_batch_sequential`;
//! * L2 `runtime.pool` — `answer_batch_with_pool` on the global pool;
//! * L3 `engine.wire` (decode → L2 → encode, nested for real) or
//!   `engine.serve` (`serve::serve_lines` over in-memory buffers);
//! * L4 `engine.reactor` — the request's own loopback round trip.
//!
//! Each replay is charged against the layer above it for the same
//! request (L1 at `1 / workers`, since the pool runs it on every worker
//! at once), so a layer's self time is what it adds on top of the layer
//! below.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use privtree_engine::serve::serve_lines;
use privtree_engine::wire::{decode_query_payload, encode_answer_frame_into, MAX_FRAME};
use privtree_spatial::query::RangeQuery;
use privtree_store::frame::{parse_header, payload};

use crate::boot::Served;
use crate::inputs::{Inputs, Proto};
use crate::load::{request_id, ReaderLog};
use crate::stats::{median, Metrics};
use crate::trace::{Span, Tracer};

/// At most this many traced requests are replayed.
const MAX_REPLAYS: usize = 2000;

/// Scraped `metrics` exposition: `name{labels}` → value.
pub type Scrape = HashMap<String, f64>;

pub fn parse_scrape(lines: &[String]) -> Scrape {
    lines
        .iter()
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn get(s: &Scrape, key: &str) -> f64 {
    s.get(key).copied().unwrap_or(0.0)
}

/// Per-request span indices of one replayed request.
struct Replayed {
    queries: usize,
    l4: usize,
    l3: usize,
    l2: usize,
    l1: usize,
    l0: usize,
    decode: Option<usize>,
    encode: Option<usize>,
}

/// Replay sampled traced requests and put the per-layer metrics, with
/// the share of `untraced_p50_us` they explain, into `out`.
pub fn replay(
    served: &Served,
    inputs: &Inputs,
    logs: &[ReaderLog],
    tracer: &mut Tracer,
    untraced_p50_us: f64,
    out: &mut Metrics,
) {
    let proto = inputs.workload.proto();
    // L4 spans, absorbed from the readers, indexed by request id
    let mut l4_of: HashMap<u64, usize> = HashMap::new();
    for log in logs {
        let base = tracer.absorb(log.spans.clone());
        for (i, s) in log.spans.iter().enumerate() {
            l4_of.insert(s.request, base + i);
        }
    }
    let mut traced: Vec<(usize, usize)> = Vec::new();
    for (li, log) in logs.iter().enumerate() {
        for (seq, r) in log.requests.iter().enumerate() {
            if r.traced && r.reply.is_some() {
                traced.push((li, seq));
            }
        }
    }
    let step = traced.len().div_ceil(MAX_REPLAYS).max(1);
    let snap = served.ctx.store.snapshot();
    let engine = snap.synopsis();
    let pool = privtree_runtime::global();
    let mut replayed = Vec::new();
    for &(li, seq) in traced.iter().step_by(step) {
        let log = &logs[li];
        let request = &log.requests[seq];
        let stream = &inputs.streams[log.stream];
        let queries: &[RangeQuery] = &stream.queries[request.index];
        let bytes = &stream.payloads[request.index];
        let id = request_id(log.stream, seq);
        let Some(&l4) = l4_of.get(&id) else { continue };
        let share = 1.0 / pool.workers().min(queries.len()).max(1) as f64;

        let (_, l0) = tracer.time("spatial.frozen", id, None, || {
            for shard in engine.shards() {
                black_box(shard.arena().answer_batch_sequential(queries));
            }
        });
        let (_, l1) = tracer.time("spatial.sharded", id, None, || {
            black_box(engine.answer_batch_sequential(queries))
        });
        let (l0, l1) = (l0.expect("tracing"), l1.expect("tracing"));
        tracer.spans[l1].share = share;
        let r = match proto {
            Proto::Wire => {
                let t0 = Instant::now();
                let header = parse_header(bytes, MAX_FRAME)
                    .expect("pre-encoded frame")
                    .expect("whole frame");
                let body = payload(&header, bytes).expect("pre-encoded frame");
                let decoded = decode_query_payload(body, engine.dims()).expect("valid queries");
                let t1 = Instant::now();
                let answers = engine.answer_batch_with_pool(&decoded, pool);
                let t2 = Instant::now();
                let mut frame = Vec::with_capacity(16 + answers.len() * 8);
                encode_answer_frame_into(&mut frame, &answers, false);
                let t3 = Instant::now();
                black_box(frame);
                let span = |tracer: &mut Tracer, name, parent, a, b| {
                    let (start_ns, end_ns) = (tracer.ns(a), tracer.ns(b));
                    tracer.push(Span {
                        name,
                        request: id,
                        parent,
                        start_ns,
                        end_ns,
                        share: 1.0,
                    })
                };
                let l3 = span(tracer, "engine.wire", Some(l4), t0, t3);
                let decode = span(tracer, "engine.wire.decode", Some(l3), t0, t1);
                let l2 = span(tracer, "runtime.pool", Some(l3), t1, t2);
                let encode = span(tracer, "engine.wire.encode", Some(l3), t2, t3);
                Replayed {
                    queries: queries.len(),
                    l4,
                    l3,
                    l2,
                    l1,
                    l0,
                    decode: Some(decode),
                    encode: Some(encode),
                }
            }
            Proto::Text => {
                let (_, l2) = tracer.time("runtime.pool", id, None, || {
                    black_box(engine.answer_batch_with_pool(queries, pool))
                });
                let (_, l3) = tracer.time("engine.serve", id, Some(l4), || {
                    let mut reply = Vec::with_capacity(queries.len() * 26);
                    serve_lines(&served.ctx, Cursor::new(bytes.as_slice()), &mut reply)
                        .expect("in-memory serve");
                    black_box(reply)
                });
                let (l2, l3) = (l2.expect("tracing"), l3.expect("tracing"));
                tracer.spans[l2].parent = Some(l3);
                Replayed {
                    queries: queries.len(),
                    l4,
                    l3,
                    l2,
                    l1,
                    l0,
                    decode: None,
                    encode: None,
                }
            }
        };
        tracer.spans[l1].parent = Some(r.l2);
        replayed.push(r);
    }

    let self_us = tracer.self_times_us();
    let dur = |i: usize| tracer.spans[i].dur_us();
    let per = |f: &dyn Fn(&Replayed) -> f64| median(&replayed.iter().map(f).collect::<Vec<_>>());
    let l1_wall = |r: &Replayed| dur(r.l1) * tracer.spans[r.l1].share;

    out.put(
        "spatial.frozen.query_us",
        per(&|r| dur(r.l0) / r.queries as f64),
        "us",
    );
    out.put(
        "spatial.sharded.query_us",
        per(&|r| dur(r.l1) / r.queries as f64),
        "us",
    );
    out.put("runtime.pool.request_us", per(&|r| dur(r.l2)), "us");
    out.put("runtime.pool.overhead_us", per(&|r| self_us[r.l2]), "us");
    let (wire_l3, wire_dec, wire_enc, serve_l3) = match proto {
        Proto::Wire => (
            per(&|r| dur(r.l3)),
            per(&|r| r.decode.map_or(0.0, dur)),
            per(&|r| r.encode.map_or(0.0, dur)),
            0.0,
        ),
        Proto::Text => (0.0, 0.0, 0.0, per(&|r| dur(r.l3))),
    };
    out.put("engine.wire.request_us", wire_l3, "us");
    out.put("engine.wire.decode_us", wire_dec, "us");
    out.put("engine.wire.encode_us", wire_enc, "us");
    out.put("engine.serve.request_us", serve_l3, "us");
    out.put("engine.reactor.socket_us", per(&|r| self_us[r.l4]), "us");

    // the layers' self times on the request path: socket and reactor,
    // protocol glue, codec, pool overhead, and routing at wall share
    let contributions: [&dyn Fn(&Replayed) -> f64; 6] = [
        &|r| self_us[r.l4],
        &|r| self_us[r.l3],
        &|r| r.decode.map_or(0.0, |i| self_us[i]),
        &|r| r.encode.map_or(0.0, |i| self_us[i]),
        &|r| self_us[r.l2],
        &l1_wall,
    ];
    let explained: f64 = contributions.iter().map(|f| per(*f)).sum();
    let explained_pct = if untraced_p50_us > 0.0 && !replayed.is_empty() {
        100.0 * explained / untraced_p50_us
    } else {
        0.0
    };
    out.put("trace.explained_pct", explained_pct, "%");
    out.put("trace.replayed_requests", replayed.len() as f64, "count");
}

/// The reactor's own view, from `metrics` scraped before and after the
/// window.
pub fn reactor_metrics(before: &Scrape, after: &Scrape, proto: Proto, out: &mut Metrics) {
    for stage in ["decode", "coalesce", "dispatch", "scatter", "flush"] {
        out.put(
            format!("engine.reactor.stage_us.{stage}"),
            get(
                after,
                &format!("reactor_stage_us{{stage=\"{stage}\",quantile=\"0.5\"}}"),
            ),
            "us",
        );
    }
    let proto = match proto {
        Proto::Wire => "wire",
        Proto::Text => "text",
    };
    out.put(
        "engine.reactor.server_request_us",
        get(
            after,
            &format!("request_us{{proto=\"{proto}\",quantile=\"0.5\"}}"),
        ),
        "us",
    );
    let delta = |k: &str| get(after, k) - get(before, k);
    let dispatches = delta("coalesced_dispatches_total").max(1.0);
    out.put(
        "runtime.coalesce.spans_per_dispatch",
        delta("coalesced_spans_total") / dispatches,
        "spans/dispatch",
    );
    out.put(
        "runtime.coalesce.queries_per_dispatch",
        delta("coalesced_queries_total") / dispatches,
        "queries/dispatch",
    );
}

/// Publish-path metrics the server records: journal and swap.
pub fn store_metrics(after: &Scrape, out: &mut Metrics) {
    out.put(
        "store.journal.append_us",
        get(after, "journal_append_us{quantile=\"0.5\"}"),
        "us",
    );
    out.put(
        "store.journal.fsync_us",
        get(after, "journal_fsync_us{quantile=\"0.5\"}"),
        "us",
    );
    out.put(
        "engine.swap_ms",
        get(after, "store_swap_us{quantile=\"0.5\"}") / 1e3,
        "ms",
    );
}

/// Median wall time (ms) of `reps` runs of `f`.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}
