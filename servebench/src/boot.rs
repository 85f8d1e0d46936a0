//! Set-up: build releases with PrivTree, save them to an on-disk
//! catalog, and boot them through the engine's public boot path
//! (`ReleaseStore::open_catalog_with` with grids and mmap on,
//! `ServeContext::with_catalog`, `serve::spawn_tcp`), ending at the
//! first answer verified over the socket.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_engine::serve::{spawn_tcp, ServeContext, ServerHandle};
use privtree_engine::ReleaseStore;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::grid_route::{CellGrid, GridRoutedSynopsis};
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::RangeQuery;
use privtree_spatial::sharded::{ShardHandle, ShardedSynopsis};
use privtree_spatial::synopsis::{privtree_synopsis, SpatialSynopsis};
use privtree_store::{Catalog, FsyncPolicy, ReleaseFormat};

use crate::client::{TextConn, WireConn};
use crate::inputs::{box_text, seeds, Inputs, Proto, KEEP_GENERATIONS};
use crate::steal;
use crate::trace::{Tracer, SETUP_REQUEST};

/// ε of every release.
pub const EPSILON: f64 = 1.0;

/// Build one PrivTree release over `points` in `region`.
pub fn build_release(points: &PointSet, region: Rect, dp_seed: u64) -> SpatialSynopsis {
    let eps = Epsilon::new(EPSILON).expect("ε = 1 is valid");
    privtree_synopsis(
        points,
        region,
        SplitConfig::full(2),
        eps,
        &mut seeded(dp_seed),
    )
    .expect("PrivTree builds on generated data")
}

/// The grid the engine itself would build for `arena`.
pub fn default_grid(arena: &privtree_spatial::FrozenSynopsis) -> CellGrid {
    let bins = GridRoutedSynopsis::default_bins(arena);
    CellGrid::build(arena, &bins, Some(privtree_runtime::global()))
        .expect("PrivTree releases are griddable")
}

/// Shape of one served release, for the run's metadata.
#[derive(Debug, Clone)]
pub struct ReleaseInfo {
    pub key: String,
    pub points: usize,
    pub nodes: usize,
    pub depth: u32,
    pub bins: Vec<usize>,
    pub file_bytes: u64,
    pub grid_memory_bytes: usize,
}

/// A booted server plus the library engine its answers are checked
/// against.
pub struct Served {
    pub ctx: Arc<ServeContext>,
    handle: Option<ServerHandle>,
    pub addr: SocketAddr,
    /// The served releases as handles, in key order — the same arenas
    /// and grids the server loaded from the catalog.
    pub handles: Vec<ShardHandle>,
    pub reference: ShardedSynopsis,
    pub releases: Vec<ReleaseInfo>,
    /// Bytes served borrowed from the catalog's mappings at boot.
    pub mapped_bytes: usize,
}

impl Served {
    /// Drain the listener (every client has closed by now).
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.drain(Duration::from_secs(10));
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Set up once in `dir` (created fresh). Returns the running server, the
/// set-up time (from the first build to the first verified answer), and
/// the host's steal meanwhile.
pub fn boot(inputs: &Inputs, dir: &Path, tracer: &mut Tracer) -> (Served, Duration, Option<f64>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the catalog directory");
    let workload = inputs.workload;
    let id = SETUP_REQUEST;
    let ticks = steal::ticks();
    let start = Instant::now();

    let mut built = Vec::with_capacity(inputs.releases.len());
    for (i, r) in inputs.releases.iter().enumerate() {
        let (synopsis, _) = tracer.time("setup.core.build", id, None, || {
            build_release(&r.points, r.region, seeds::setup_build(inputs.seed, i))
        });
        let depth = synopsis.max_depth();
        let (arena, _) = tracer.time("setup.spatial.frozen.freeze", id, None, || {
            synopsis.freeze()
        });
        let (grid, _) = tracer.time("setup.spatial.grid_route.build", id, None, || {
            default_grid(&arena)
        });
        built.push((r, arena, grid, depth));
    }

    let ((), _) = tracer.time("setup.store.catalog.save", id, None, || {
        let mut catalog = Catalog::open_or_create(dir).expect("create the catalog");
        catalog.set_retention(KEEP_GENERATIONS);
        for (r, arena, grid, _) in &built {
            catalog
                .save(&r.key, arena, Some(grid), ReleaseFormat::Binary)
                .expect("save the release");
        }
    });

    let (store_catalog, _) = tracer.time("setup.store.catalog.open", id, None, || {
        let mut catalog = Catalog::open(dir).expect("open the catalog");
        catalog.set_retention(KEEP_GENERATIONS);
        if workload.journaled() {
            catalog
                .enable_journal(FsyncPolicy::Always)
                .expect("enable the journal");
        }
        let store =
            ReleaseStore::open_catalog_with(&catalog, true, true).expect("boot the catalog");
        (store, catalog)
    });
    let (store, catalog) = store_catalog;

    let (server, _) = tracer.time("setup.engine.listen", id, None, || {
        let ctx = Arc::new(ServeContext::with_catalog(store, catalog));
        let handle = spawn_tcp(Arc::clone(&ctx), "127.0.0.1:0").expect("bind loopback");
        (ctx, handle)
    });
    let (ctx, handle) = server;
    let addr = handle.addr();

    let mut releases = Vec::with_capacity(built.len());
    let mut handles = Vec::with_capacity(built.len());
    for (r, arena, grid, depth) in built {
        releases.push(ReleaseInfo {
            key: r.key.clone(),
            points: r.points.len(),
            nodes: arena.node_count(),
            depth,
            bins: grid.bins().to_vec(),
            file_bytes: 0,
            grid_memory_bytes: grid.memory_bytes(),
        });
        handles.push(ShardHandle::from_release(arena, Some(grid)));
    }
    let reference =
        ShardedSynopsis::from_handles(handles.clone()).expect("the releases tile the domain");

    let first = &inputs.streams[0].queries[0][0];
    let ((), _) = tracer.time("setup.engine.first_answer", id, None, || {
        let want = reference.answer_batch_sequential(std::slice::from_ref(first))[0];
        let got = first_answer(workload.proto(), addr, first).expect("first answer");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "first answer over the socket differs from the library"
        );
    });
    let elapsed = start.elapsed();
    let stolen = steal::pct(ticks, steal::ticks());

    let snap = ctx.store.snapshot();
    let mapped_bytes = snap
        .synopsis()
        .shards()
        .iter()
        .map(|s| s.mapped_bytes())
        .sum();
    if let Some(catalog) = ctx.catalog.as_ref() {
        let catalog = catalog.lock().expect("catalog lock");
        for info in &mut releases {
            if let Some(entry) = catalog.entry(&info.key) {
                info.file_bytes = std::fs::metadata(dir.join(&entry.file))
                    .map(|m| m.len())
                    .unwrap_or(0);
            }
        }
    }
    let served = Served {
        ctx,
        handle: Some(handle),
        addr,
        handles,
        reference,
        releases,
        mapped_bytes,
    };
    (served, elapsed, stolen)
}

/// One query over a fresh connection of the workload's protocol.
fn first_answer(proto: Proto, addr: SocketAddr, q: &RangeQuery) -> std::io::Result<f64> {
    match proto {
        Proto::Wire => {
            let mut conn = WireConn::connect(addr)?;
            let mut reply = Vec::new();
            let frame =
                privtree_engine::wire::encode_query_frame(std::slice::from_ref(q), 2, false);
            conn.round_trip(&frame, &mut reply)?;
            conn.quit();
            let answers = crate::verify::wire_answers(&reply).map_err(std::io::Error::other)?;
            Ok(answers[0])
        }
        Proto::Text => {
            let mut conn = TextConn::connect(addr)?;
            let line = conn.command(&format!("count {}", box_text(q)))?;
            conn.quit();
            line.parse::<f64>()
                .map_err(|_| std::io::Error::other(format!("count replied {line}")))
        }
    }
}
