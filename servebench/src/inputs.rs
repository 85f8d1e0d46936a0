//! The three workloads and the inputs each one generates from its seed.
//!
//! The server only ever receives what is generated here: release data,
//! pre-encoded request payloads, and (for `text-publish`) the fresh
//! draws its publisher builds new epochs from.

use std::fmt::Write as _;

use privtree_datagen::spatial::{gowalla_like, road_like};
use privtree_datagen::workload::{range_queries, QuerySize};
use privtree_dp::rng::derive_seed;
use privtree_engine::wire::encode_query_frame;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::query::RangeQuery;

/// The paper's road cardinality (Table 2).
const ROAD_POINTS: usize = 1_634_165;
/// Gowalla-like releases use 100k points (the paper's Gowalla has 107k).
const GOWALLA_POINTS: usize = 100_000;
/// Catalog generations kept per key.
pub const KEEP_GENERATIONS: usize = 2;
/// `text-publish` serves its data as this many vertical region strips.
pub const STRIPS: usize = 4;
/// Fresh strip-0 draws pre-generated for `text-publish`; publish `e`
/// builds from draw `e % DRAWS` with its own DP seed, so every epoch is
/// a distinct release.
const DRAWS: usize = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One wire connection, frames of 64 small-class queries against a
    /// 100k-point Gowalla-like release (front-end bound).
    WireSmall,
    /// Two wire connections, frames of 256 large-class queries against
    /// the paper-scale road-like release (routing bound, skewed).
    WireRoadLarge,
    /// A text-protocol reader plus an open-loop publisher swapping new
    /// epochs of one of four region strips into a journaled catalog.
    TextPublish,
}

/// How a workload's readers talk to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    Wire,
    Text,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WireSmall,
        Workload::WireRoadLarge,
        Workload::TextPublish,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire-small",
            Workload::WireRoadLarge => "wire-road-large",
            Workload::TextPublish => "text-publish",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn proto(self) -> Proto {
        match self {
            Workload::TextPublish => Proto::Text,
            _ => Proto::Wire,
        }
    }

    /// Whether a publisher swaps new epochs in *during* the read window.
    /// The wire workloads never write while reading; they publish in a
    /// separate phase after the window.
    pub fn publishes_while_reading(self) -> bool {
        self == Workload::TextPublish
    }

    /// Whether the catalog journals mutations (fsync on every append).
    pub fn journaled(self) -> bool {
        self == Workload::TextPublish
    }

    /// The key the publisher replaces.
    pub fn publish_key(self) -> &'static str {
        match self {
            Workload::WireSmall => "gowalla",
            Workload::WireRoadLarge => "road",
            Workload::TextPublish => "strip0",
        }
    }
}

/// One release to serve: its catalog key, region, and data.
#[derive(Debug)]
pub struct ReleaseData {
    pub key: String,
    pub region: Rect,
    pub points: PointSet,
}

/// One reader connection's request stream: the queries of each distinct
/// request and the bytes that carry them. Readers cycle through it.
#[derive(Debug)]
pub struct Stream {
    pub queries: Vec<Vec<RangeQuery>>,
    pub payloads: Vec<Vec<u8>>,
    /// Reply lines per request (text protocol; 0 for wire).
    pub reply_lines: usize,
}

/// Everything a run feeds the server, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Served at set-up, in key order.
    pub releases: Vec<ReleaseData>,
    /// Fresh draws of the published key's region (`text-publish`).
    pub draws: Vec<PointSet>,
    /// One per reader connection.
    pub streams: Vec<Stream>,
    /// FNV-1a over every generated coordinate and payload byte: equal
    /// seeds give equal digests.
    pub digest: u64,
}

/// Seed streams, so each input draws from its own generator.
pub mod seeds {
    use super::derive_seed;
    /// The datasets are fixed, as the paper's are: the run's seed drives
    /// the DP noise of every build, the query streams and the publish
    /// epochs, while the points stand still, so runs with different
    /// seeds measure the same data.
    pub const DATA: u64 = 0xda7a;
    pub fn queries(seed: u64, stream: usize) -> u64 {
        derive_seed(seed, 0x9e7 + stream as u64)
    }
    /// DP noise for the set-up build of release `i`.
    pub fn setup_build(seed: u64, i: usize) -> u64 {
        derive_seed(seed, 0xb0 + i as u64)
    }
    /// DP noise for publish `e`.
    pub fn publish_build(seed: u64, e: usize) -> u64 {
        derive_seed(seed, 0x10_000 + e as u64)
    }
}

impl Inputs {
    /// Generate a workload's inputs. `scale` shrinks the point counts
    /// (smoke runs); 1 is the benchmark's size.
    pub fn generate(workload: Workload, seed: u64, scale: usize) -> Self {
        let data_seed = seeds::DATA;
        let unit = Rect::unit(2);
        let (releases, draws, streams) = match workload {
            Workload::WireSmall => {
                let points = gowalla_like(GOWALLA_POINTS / scale, data_seed);
                let release = ReleaseData {
                    key: "gowalla".into(),
                    region: unit,
                    points,
                };
                let stream = wire_stream(QuerySize::Small, 64, 256, seeds::queries(seed, 0));
                (vec![release], Vec::new(), vec![stream])
            }
            Workload::WireRoadLarge => {
                let points = road_like(ROAD_POINTS / scale, data_seed);
                let release = ReleaseData {
                    key: "road".into(),
                    region: unit,
                    points,
                };
                let streams = (0..2)
                    .map(|s| wire_stream(QuerySize::Large, 256, 64, seeds::queries(seed, s)))
                    .collect();
                (vec![release], Vec::new(), streams)
            }
            Workload::TextPublish => {
                // one generator run, so every draw shares the first
                // 100k points' cities: points [0, n) are the served
                // data, each later block of n is a fresh draw
                let n = GOWALLA_POINTS / scale;
                let all = gowalla_like(n * (1 + DRAWS), data_seed);
                let block = |b: usize| {
                    let mut ps = PointSet::new(2);
                    for i in b * n..(b + 1) * n {
                        ps.push(all.point(i));
                    }
                    ps
                };
                let served = block(0);
                let releases = (0..STRIPS)
                    .map(|s| ReleaseData {
                        key: format!("strip{s}"),
                        region: strip_region(s),
                        points: strip_points(&served, s),
                    })
                    .collect();
                let draws = (1..=DRAWS).map(|b| strip_points(&block(b), 0)).collect();
                let stream = text_stream(64, 512, 32, seeds::queries(seed, 0));
                (releases, draws, vec![stream])
            }
        };
        let mut inputs = Inputs {
            workload,
            seed,
            releases,
            draws,
            streams,
            digest: 0,
        };
        inputs.digest = inputs.compute_digest();
        inputs
    }

    fn compute_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.workload.name().as_bytes());
        for r in &self.releases {
            h.bytes(r.key.as_bytes());
            h.points(&r.points);
        }
        for d in &self.draws {
            h.points(d);
        }
        for s in &self.streams {
            for p in &s.payloads {
                h.bytes(p);
            }
        }
        h.0
    }

    /// Every query a stream can send, in request order.
    pub fn query_count(&self) -> usize {
        self.streams
            .iter()
            .flat_map(|s| &s.queries)
            .map(Vec::len)
            .sum()
    }
}

/// Strip `s` of the unit square: `[s/4, (s+1)/4) × [0, 1)`.
pub fn strip_region(s: usize) -> Rect {
    let lo = s as f64 / STRIPS as f64;
    let hi = (s + 1) as f64 / STRIPS as f64;
    Rect::new(&[lo, 0.0], &[hi, 1.0])
}

fn strip_points(data: &PointSet, s: usize) -> PointSet {
    let mut out = PointSet::new(2);
    for p in data.iter() {
        if ((p[0] * STRIPS as f64) as usize).min(STRIPS - 1) == s {
            out.push(p);
        }
    }
    out
}

/// `requests` distinct wire frames of `per_request` queries each.
fn wire_stream(size: QuerySize, per_request: usize, requests: usize, seed: u64) -> Stream {
    let all = range_queries(&Rect::unit(2), size, per_request * requests, seed);
    let queries: Vec<Vec<RangeQuery>> = all.chunks(per_request).map(<[_]>::to_vec).collect();
    let payloads = queries
        .iter()
        .map(|q| encode_query_frame(q, 2, false))
        .collect();
    Stream {
        queries,
        payloads,
        reply_lines: 0,
    }
}

/// `rounds` distinct text rounds, each `counts` pipelined `count` lines
/// followed by one `batch` of `batch` medium-class queries, rendered as
/// `%.17e` coordinates (exact round trips of the generated boxes).
fn text_stream(counts: usize, batch: usize, rounds: usize, seed: u64) -> Stream {
    let per_round = counts + batch;
    let all = range_queries(&Rect::unit(2), QuerySize::Medium, per_round * rounds, seed);
    let queries: Vec<Vec<RangeQuery>> = all.chunks(per_round).map(<[_]>::to_vec).collect();
    let payloads = queries
        .iter()
        .map(|qs| {
            let mut text = String::with_capacity(per_round * 96);
            for q in &qs[..counts] {
                let _ = writeln!(text, "count {}", box_text(q));
            }
            let _ = writeln!(text, "batch {batch}");
            for q in &qs[counts..] {
                let _ = writeln!(text, "{}", box_text(q));
            }
            text.into_bytes()
        })
        .collect();
    Stream {
        queries,
        payloads,
        reply_lines: per_round,
    }
}

/// `lo0,lo1 hi0,hi1` at 17 significant decimals.
pub fn box_text(q: &RangeQuery) -> String {
    let corner = |cs: &[f64]| {
        cs.iter()
            .map(|c| format!("{c:.17e}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!("{} {}", corner(q.rect.lo()), corner(q.rect.hi()))
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Coordinates hashed as whole words (a byte loop over 26 MB of
    /// road points would dominate a small workload's input time).
    fn points(&mut self, ps: &PointSet) {
        for p in ps.iter() {
            for c in p {
                self.0 ^= c.to_bits();
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}
