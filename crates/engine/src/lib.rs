//! Epoch-aware serving engine: a catalog of named releases behind an
//! atomically swapped read snapshot.
//!
//! PrivTree is a build-once/read-many synopsis (Section 2.2/3.4 of the
//! paper), and real deployments re-release per **epoch** or per
//! **region**: every hour (or every city) a fresh differentially private
//! release replaces its predecessor while queries keep flowing. The
//! library crates provide the read structures — `FrozenSynopsis`, and
//! `ShardedSynopsis` over per-shard `CellGrid`s — but no lifecycle; this
//! crate owns it:
//!
//! * [`ReleaseStore`] holds a catalog of **named releases** (epoch/region
//!   key → [`ShardHandle`], i.e. a frozen arena plus an optional
//!   per-shard cell grid) and publishes them as one
//!   [`ShardedSynopsis`]-backed [`Snapshot`].
//! * Readers call [`ReleaseStore::snapshot`], which is two atomic
//!   operations (an `Arc` clone through
//!   [`privtree_runtime::ArcCell`]) — no locks held while answering, and
//!   a snapshot taken before a swap keeps answering the *old* epoch's
//!   bits for as long as it is held.
//! * Writers call [`ReleaseStore::add`] / [`ReleaseStore::swap`] /
//!   [`ReleaseStore::retire`]. A mutation re-runs
//!   `ShardedSynopsis::from_handles` over the staged handles (checks
//!   only: nothing is copied) and — in a gridded store — builds the cell
//!   grid of **only** the release(s) it introduced; every surviving shard
//!   is reused by `Arc` pointer, grid included. The returned
//!   [`SwapReport`] instruments exactly that (`grids_built`,
//!   `grid_cells_built`, `shards_reused`), and the lifecycle tests assert
//!   on it.
//!
//! # Determinism contract
//!
//! The catalog is a `BTreeMap`, so shards are always answered in
//! **sorted key order**. A snapshot reached through *any* sequence of
//! add/swap/retire operations therefore answers **bit-identically** to a
//! from-scratch `ShardedSynopsis::from_releases` of the surviving shard
//! set assembled in sorted key order (gridded stores compare against a
//! gridded rebuild; grid precomputation is itself deterministic for
//! every worker count). `crates/engine/tests/lifecycle.rs` property-tests
//! this end to end.
//!
//! Failed mutations (unknown/duplicate key, overlapping regions, a
//! release of another dimensionality, ungriddable release, retiring the
//! last shard) leave the store — and every outstanding snapshot —
//! completely unchanged: mutations stage on a copy of the catalog and
//! publish only after every validation passed.
//!
//! A store serves one dimensionality for its whole life, fixed when it
//! opens ([`ReleaseStore::dims`]): queries are decoded against it before
//! they run (and the wire `HELO` announces it once per connection), so
//! an add, swap or `load` whose release has another one is refused with
//! `ShardError::MixedDims` — even a swap of the only shard.
//!
//! # Persistence
//!
//! Stores survive the process through `privtree-store`:
//! [`ReleaseStore::open_catalog`] warm-starts a store from an on-disk
//! release catalog (binary `privtree-bin v1` entries are memory-mapped
//! and validated in place, columns borrowing the mapping) and
//! [`ReleaseStore::persist_catalog`] writes every serving release back
//! (binary, grids included, atomic publish). Either direction preserves
//! answers bit for bit.
//!
//! The `privtree-serve` binary in this crate turns the store into a
//! process: it loads serialized releases (text or binary, sniffed;
//! shipped grid sections arrive prebuilt), answers a text or binary
//! query workload over stdin or a TCP socket through the pooled read
//! path, and accepts the same add/swap/retire — plus catalog save/load —
//! operations at runtime. The protocols are the [`serve`] module,
//! embeddable in tests and benchmarks: one sans-IO session core decodes
//! and renders both, driven by a TCP reactor or a blocking stdin loop.

mod reactor;
pub mod serve;
mod session;
pub mod wire;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use privtree_runtime::telemetry::{self, Counter, Histogram, Registry};
use privtree_runtime::ArcCell;
use privtree_spatial::grid_route::GridRouteError;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_spatial::sharded::{ShardError, ShardHandle, ShardedSynopsis};
use privtree_store::{Catalog, ReleaseFormat, StoreError};

/// Why a store operation was refused. Every error leaves the store and
/// all outstanding snapshots unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// `add` with a key that is already serving (use `swap` to replace).
    DuplicateKey(String),
    /// `swap`/`retire` with a key the catalog does not hold.
    UnknownKey(String),
    /// `retire` would leave the store with nothing to serve.
    WouldBeEmpty,
    /// The resulting shard set cannot be assembled (overlapping regions,
    /// or a release whose dimensionality differs from the store's).
    Shard(ShardError),
    /// A gridded store could not build the new release's cell grid (e.g.
    /// inconsistent counts — see `GridRouteError`).
    Grid(GridRouteError),
    /// The on-disk catalog refused (corrupt file, bad manifest, unknown
    /// key — see `privtree_store::StoreError`).
    Store(StoreError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DuplicateKey(key) => {
                write!(f, "release {key} already exists (swap it instead)")
            }
            EngineError::UnknownKey(key) => write!(f, "no release named {key}"),
            EngineError::WouldBeEmpty => {
                write!(
                    f,
                    "refusing to retire the last release; the store would be empty"
                )
            }
            EngineError::Shard(e) => write!(f, "cannot assemble shard set: {e}"),
            EngineError::Grid(e) => write!(f, "cannot grid-route release: {e}"),
            EngineError::Store(e) => write!(f, "release store: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ShardError> for EngineError {
    fn from(e: ShardError) -> Self {
        EngineError::Shard(e)
    }
}

impl From<GridRouteError> for EngineError {
    fn from(e: GridRouteError) -> Self {
        EngineError::Grid(e)
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// What one mutation actually rebuilt — the incremental-swap contract,
/// returned by every mutating call so tests (and operators) can verify
/// that a swap did not trigger a full recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapReport {
    /// Version of the snapshot this mutation published.
    pub version: u64,
    /// Shards serving after the mutation.
    pub shard_count: usize,
    /// Cell grids built by this mutation: 1 for an add/swap in a gridded
    /// store whose release arrives without a grid, however many shards
    /// survive; 0 in an ungridded store, for a retire, and for a release
    /// that ships its own grid.
    pub grids_built: usize,
    /// Total cells precomputed by this mutation's grid builds.
    pub grid_cells_built: usize,
    /// Surviving shards whose arena was adopted by pointer from the
    /// previous catalog (no rebuild of any kind).
    pub shards_reused: usize,
}

/// Cumulative counters across a store's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Snapshots published (the initial open counts as one).
    pub publishes: u64,
    /// Cell grids built, totalled over every publish.
    pub grids_built: u64,
    /// Grid cells precomputed, totalled over every publish.
    pub grid_cells_built: u64,
}

/// An immutable view of the store at one version: the published
/// [`ShardedSynopsis`] plus the catalog keys it serves. Snapshots are
/// shared (`Arc`), cheap to take, and never change after publication —
/// a reader holding one across a swap keeps answering from the epoch it
/// loaded.
#[derive(Debug)]
pub struct Snapshot {
    synopsis: ShardedSynopsis,
    keys: Vec<String>,
    version: u64,
    /// When this snapshot was published (drives the snapshot age gauge).
    /// Stamped while the snapshot is still unshared, so a scrape reads it
    /// without the writer lock.
    published_at: Instant,
}

impl Snapshot {
    /// The published read engine.
    pub fn synopsis(&self) -> &ShardedSynopsis {
        &self.synopsis
    }

    /// Catalog keys in shard order (sorted).
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// Monotone publication version (the open is version 1).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of shards served.
    pub fn shard_count(&self) -> usize {
        self.synopsis.shard_count()
    }

    /// Total nodes across every serving release.
    pub fn node_count(&self) -> usize {
        self.synopsis.node_count()
    }

    /// Dimensionality of the served domain.
    pub fn dims(&self) -> usize {
        self.synopsis.dims()
    }
}

impl RangeCountSynopsis for Snapshot {
    fn answer(&self, q: &RangeQuery) -> f64 {
        self.synopsis.answer(q)
    }

    fn answer_batch(&self, queries: &[RangeQuery]) -> Vec<f64> {
        self.synopsis.answer_batch(queries)
    }

    fn label(&self) -> &'static str {
        "EpochSnapshot"
    }
}

/// Telemetry handles for the epoch engine's mutation path. Registered
/// once per registry ([`EngineMetrics::register`]) and attached with
/// [`ReleaseStore::attach_metrics`]; counters record always, the
/// latency histogram only while `telemetry::enabled()`.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Wall time of one publishing mutation (stage + validate + grid
    /// build + persist hook + publish), µs.
    pub swap_us: Arc<Histogram>,
    /// Snapshots published (open counts as the first).
    pub publishes: Arc<Counter>,
    /// Per-shard cell grids built (open + incremental swaps).
    pub grids_built: Arc<Counter>,
}

impl EngineMetrics {
    /// Get-or-create the engine metric set in `registry`.
    pub fn register(registry: &Registry) -> Arc<Self> {
        Arc::new(Self {
            swap_us: registry.histogram("store_swap_us", &[]),
            publishes: registry.counter("store_publishes_total", &[]),
            grids_built: registry.counter("store_grids_built_total", &[]),
        })
    }
}

/// Catalog state guarded by the writer mutex.
#[derive(Debug)]
struct Inner {
    catalog: BTreeMap<String, ShardHandle>,
    version: u64,
    stats: StoreStats,
    /// Telemetry handles, when attached.
    metrics: Option<Arc<EngineMetrics>>,
}

/// The epoch engine: named releases in, atomically swapped snapshots out.
/// See the crate docs for the lifecycle and determinism contract.
#[derive(Debug)]
pub struct ReleaseStore {
    /// Writers stage and publish under this lock; readers never take it.
    inner: Mutex<Inner>,
    /// The published snapshot readers load.
    current: ArcCell<Snapshot>,
    /// Whether every release must carry a cell grid (built on the shared
    /// worker pool at add/swap time unless the handle already has one).
    grids: bool,
    /// The dimensionality every snapshot serves, fixed at open.
    dims: usize,
}

/// Build the snapshot for `catalog`, ensuring grids when requested.
/// Returns the snapshot, stamped as published now, plus (grids_built,
/// grid_cells_built).
fn build_snapshot(
    catalog: &mut BTreeMap<String, ShardHandle>,
    grids: bool,
    version: u64,
) -> Result<(Snapshot, usize, usize), EngineError> {
    let mut grids_built = 0usize;
    let mut grid_cells_built = 0usize;
    if grids {
        // validate the shard set (cheap: pairwise region checks, no
        // copies) before any grid precompute, so a rejected mutation —
        // overlap, mixed dims — never pays for a grid it would throw away
        ShardedSynopsis::from_handles(catalog.values().cloned().collect())?;
        for handle in catalog.values_mut() {
            if handle.ensure_grid(Some(privtree_runtime::global()))? {
                grids_built += 1;
                grid_cells_built += handle.grid().expect("grid was just built").cells();
            }
        }
    }
    let synopsis = ShardedSynopsis::from_handles(catalog.values().cloned().collect())?;
    let snapshot = Snapshot {
        synopsis,
        keys: catalog.keys().cloned().collect(),
        version,
        published_at: Instant::now(),
    };
    Ok((snapshot, grids_built, grid_cells_built))
}

impl ReleaseStore {
    /// Open a store over named releases, serving plain shard descents.
    pub fn open<K, H>(releases: impl IntoIterator<Item = (K, H)>) -> Result<Self, EngineError>
    where
        K: Into<String>,
        H: Into<ShardHandle>,
    {
        Self::build(releases, false)
    }

    /// Open a store whose shards are all grid-routed: releases that
    /// arrive without a grid get one built (default resolution, on the
    /// shared worker pool) at open/add/swap time.
    pub fn open_gridded<K, H>(
        releases: impl IntoIterator<Item = (K, H)>,
    ) -> Result<Self, EngineError>
    where
        K: Into<String>,
        H: Into<ShardHandle>,
    {
        Self::build(releases, true)
    }

    fn build<K, H>(
        releases: impl IntoIterator<Item = (K, H)>,
        grids: bool,
    ) -> Result<Self, EngineError>
    where
        K: Into<String>,
        H: Into<ShardHandle>,
    {
        let mut catalog: BTreeMap<String, ShardHandle> = BTreeMap::new();
        for (key, handle) in releases {
            let key = key.into();
            if catalog.insert(key.clone(), handle.into()).is_some() {
                return Err(EngineError::DuplicateKey(key));
            }
        }
        if catalog.is_empty() {
            return Err(EngineError::Shard(ShardError::Empty));
        }
        let (snapshot, grids_built, grid_cells_built) = build_snapshot(&mut catalog, grids, 1)?;
        Ok(Self {
            inner: Mutex::new(Inner {
                catalog,
                version: 1,
                stats: StoreStats {
                    publishes: 1,
                    grids_built: grids_built as u64,
                    grid_cells_built: grid_cells_built as u64,
                },
                metrics: None,
            }),
            dims: snapshot.dims(),
            current: ArcCell::new(Arc::new(snapshot)),
            grids,
        })
    }

    /// Warm-start a store from an on-disk catalog: every release in the
    /// catalog is loaded and served under its catalog key. `grids`
    /// behaves as in [`ReleaseStore::open_gridded`] — releases that
    /// arrive without a grid get one built. Binary releases open
    /// zero-copy: the file is memory-mapped (owned read fallback when
    /// mapping is unavailable) and columns borrow the mapping. Every
    /// release is validated as it opens, shipped grid included
    /// ([`Catalog::load_mapped`]), so a damaged release refuses the
    /// whole open with [`EngineError::Store`]; answers are bit-identical
    /// to an owned decode.
    pub fn open_catalog(catalog: &Catalog, grids: bool) -> Result<Self, EngineError> {
        Self::build(catalog.load_all_mapped()?, grids)
    }

    /// [`ReleaseStore::open_catalog`]. The third argument selects
    /// nothing: every catalog open maps. Kept only because
    /// `servebench/src/boot.rs` still calls it by this name.
    #[doc(hidden)]
    pub fn open_catalog_with(catalog: &Catalog, grids: bool, _: bool) -> Result<Self, EngineError> {
        Self::open_catalog(catalog, grids)
    }

    /// Persist every currently-serving release into `catalog` (binary
    /// format, grids included, atomic publish per release). Returns how
    /// many releases were written. Reopening the catalog via
    /// [`ReleaseStore::open_catalog`] reproduces this snapshot's answers
    /// bit for bit.
    pub fn persist_catalog(&self, catalog: &mut Catalog) -> Result<usize, EngineError> {
        let snap = self.snapshot();
        let shards = snap.synopsis().shards();
        for (key, shard) in snap.keys().iter().zip(shards) {
            catalog
                .save(
                    key,
                    shard.arena(),
                    shard.grid().map(|g| g.as_ref()),
                    ReleaseFormat::Binary,
                )
                .map_err(EngineError::Store)?;
        }
        Ok(snap.keys().len())
    }

    /// The current snapshot (two atomic ops; hold it as long as you
    /// like — later swaps never mutate it).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current.load()
    }

    /// Whether this store maintains per-shard grids.
    pub fn gridded(&self) -> bool {
        self.grids
    }

    /// The dimensionality every snapshot of this store serves: version
    /// 1's, fixed for life (a mutation to another is refused with
    /// `ShardError::MixedDims`). Read without loading a snapshot.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Catalog keys in shard (sorted) order.
    pub fn keys(&self) -> Vec<String> {
        self.snapshot().keys().to_vec()
    }

    /// Version of the currently published snapshot.
    pub fn version(&self) -> u64 {
        self.snapshot().version()
    }

    /// Cumulative build counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Time since the current snapshot was published. Never waits on
    /// a mutation in flight: the publish time travels in the snapshot.
    pub fn snapshot_age(&self) -> Duration {
        self.snapshot().published_at.elapsed()
    }

    /// Attach telemetry: mutations record their latency and counts
    /// through `metrics` from here on. The publishes/grids already
    /// counted (the open itself, pre-attach mutations) are folded in,
    /// so the registry's counters match [`ReleaseStore::stats`]
    /// whenever the attach happened.
    pub fn attach_metrics(&self, metrics: Arc<EngineMetrics>) {
        let mut inner = self.lock();
        metrics.publishes.add(inner.stats.publishes);
        metrics.grids_built.add(inner.stats.grids_built);
        inner.metrics = Some(metrics);
    }

    /// Serve a new release under a fresh key. Fails with
    /// [`EngineError::DuplicateKey`] if the key is taken.
    pub fn add(
        &self,
        key: impl Into<String>,
        release: impl Into<ShardHandle>,
    ) -> Result<SwapReport, EngineError> {
        self.add_with(key, release, |_| Ok(()))
    }

    /// [`ReleaseStore::add`] with a durability hook: `persist` runs
    /// after the staged catalog validated and the next snapshot built,
    /// but **before** publication — journal the mutation there and an
    /// ack can never outrun its record. A `persist` error aborts the
    /// whole mutation.
    pub fn add_with(
        &self,
        key: impl Into<String>,
        release: impl Into<ShardHandle>,
        persist: impl FnOnce(&BTreeMap<String, ShardHandle>) -> Result<(), EngineError>,
    ) -> Result<SwapReport, EngineError> {
        let key = key.into();
        let handle = release.into();
        self.mutate_with(
            move |catalog| {
                if catalog.contains_key(&key) {
                    return Err(EngineError::DuplicateKey(key));
                }
                catalog.insert(key, handle);
                Ok(())
            },
            persist,
        )
    }

    /// Replace the release serving under `key` — the epoch swap. Only
    /// the new release's grid (in a gridded store) is built; every other
    /// shard is reused. See [`SwapReport`].
    pub fn swap(
        &self,
        key: impl Into<String>,
        release: impl Into<ShardHandle>,
    ) -> Result<SwapReport, EngineError> {
        self.swap_with(key, release, |_| Ok(()))
    }

    /// [`ReleaseStore::swap`] with a durability hook; see
    /// [`ReleaseStore::add_with`].
    pub fn swap_with(
        &self,
        key: impl Into<String>,
        release: impl Into<ShardHandle>,
        persist: impl FnOnce(&BTreeMap<String, ShardHandle>) -> Result<(), EngineError>,
    ) -> Result<SwapReport, EngineError> {
        let key = key.into();
        let handle = release.into();
        self.mutate_with(
            move |catalog| {
                if !catalog.contains_key(&key) {
                    return Err(EngineError::UnknownKey(key));
                }
                catalog.insert(key, handle);
                Ok(())
            },
            persist,
        )
    }

    /// Stop serving `key`. The store refuses to become empty.
    pub fn retire(&self, key: &str) -> Result<SwapReport, EngineError> {
        self.retire_with(key, |_| Ok(()))
    }

    /// [`ReleaseStore::retire`] with a durability hook; see
    /// [`ReleaseStore::add_with`].
    pub fn retire_with(
        &self,
        key: &str,
        persist: impl FnOnce(&BTreeMap<String, ShardHandle>) -> Result<(), EngineError>,
    ) -> Result<SwapReport, EngineError> {
        self.mutate_with(
            |catalog| {
                if catalog.remove(key).is_none() {
                    return Err(EngineError::UnknownKey(key.to_string()));
                }
                Ok(())
            },
            persist,
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // a mutation never leaves `inner` partially written (publication
        // is the last step), so a poisoned lock is safe to adopt
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stage `op` on a copy of the catalog, validate (the staged shards
    /// keep the store's dimensionality, checked before any grid is
    /// built), build the next snapshot, run the `persist`
    /// durability hook, and only then publish. Any error — the op's, the
    /// build's, or `persist`'s — leaves the store exactly as it was.
    /// `persist` is deliberately the **last** fallible step: when it
    /// journals the mutation, a record exists for every published
    /// (acked) state, and no record exists for a state that failed
    /// validation.
    fn mutate_with(
        &self,
        op: impl FnOnce(&mut BTreeMap<String, ShardHandle>) -> Result<(), EngineError>,
        persist: impl FnOnce(&BTreeMap<String, ShardHandle>) -> Result<(), EngineError>,
    ) -> Result<SwapReport, EngineError> {
        let mut inner = self.lock();
        let mutation_start = (inner.metrics.is_some() && telemetry::enabled()).then(Instant::now);
        let mut next = inner.catalog.clone(); // Arc bumps, not array copies
        op(&mut next)?;
        if next.is_empty() {
            return Err(EngineError::WouldBeEmpty);
        }
        let expected = self.dims;
        if let Some(found) = next
            .values()
            .map(|h| h.arena().dims())
            .find(|&d| d != expected)
        {
            return Err(ShardError::MixedDims { expected, found }.into());
        }
        let version = inner.version + 1;
        let (mut snapshot, grids_built, grid_cells_built) =
            build_snapshot(&mut next, self.grids, version)?;
        persist(&next)?;
        let shards_reused = next
            .iter()
            .filter(|(key, handle)| {
                inner
                    .catalog
                    .get(*key)
                    .is_some_and(|old| Arc::ptr_eq(old.arena_arc(), handle.arena_arc()))
            })
            .count();
        let report = SwapReport {
            version,
            shard_count: next.len(),
            grids_built,
            grid_cells_built,
            shards_reused,
        };
        inner.catalog = next;
        inner.version = version;
        inner.stats.publishes += 1;
        inner.stats.grids_built += grids_built as u64;
        inner.stats.grid_cells_built += grid_cells_built as u64;
        snapshot.published_at = Instant::now();
        self.current.store(Arc::new(snapshot));
        if let Some(m) = &inner.metrics {
            m.publishes.inc();
            m.grids_built.add(grids_built as u64);
            if let Some(t) = mutation_start {
                m.swap_us.observe(t.elapsed().as_micros() as u64);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privtree_spatial::{FrozenSynopsis, Rect};

    /// A single-node release covering `region` with released count `c`.
    fn leaf_release(region: Rect, c: f64) -> FrozenSynopsis {
        FrozenSynopsis::from_tree(&privtree_core::tree::Tree::with_root(region), &[c], "leaf")
    }

    fn strip(i: usize) -> Rect {
        Rect::new(&[i as f64 * 0.25, 0.0], &[(i as f64 + 1.0) * 0.25, 1.0])
    }

    fn open_strips() -> ReleaseStore {
        ReleaseStore::open((0..4).map(|i| {
            (
                format!("strip{i}"),
                leaf_release(strip(i), 10.0 * (i as f64 + 1.0)),
            )
        }))
        .unwrap()
    }

    #[test]
    fn open_publishes_version_one() {
        let store = open_strips();
        let snap = store.snapshot();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.shard_count(), 4);
        assert_eq!(snap.keys(), ["strip0", "strip1", "strip2", "strip3"]);
        let whole = RangeQuery::new(Rect::unit(2));
        assert_eq!(snap.answer(&whole), 100.0);
    }

    #[test]
    fn swap_publishes_and_old_snapshots_keep_answering() {
        let store = open_strips();
        let before = store.snapshot();
        let report = store.swap("strip1", leaf_release(strip(1), 200.0)).unwrap();
        assert_eq!(report.version, 2);
        assert_eq!(report.shards_reused, 3);
        assert_eq!(report.shard_count, 4);
        let after = store.snapshot();
        let whole = RangeQuery::new(Rect::unit(2));
        assert_eq!(before.answer(&whole), 100.0, "old snapshot is frozen");
        assert_eq!(after.answer(&whole), 280.0);
        // untouched shards are adopted by pointer
        for key in ["strip0", "strip2", "strip3"] {
            let i = before.keys().iter().position(|k| k == key).unwrap();
            let j = after.keys().iter().position(|k| k == key).unwrap();
            assert!(Arc::ptr_eq(
                before.synopsis().shards()[i].arena_arc(),
                after.synopsis().shards()[j].arena_arc()
            ));
        }
    }

    #[test]
    fn add_and_retire_round_trip() {
        let store = open_strips();
        assert_eq!(
            store
                .add("strip0", leaf_release(strip(0), 1.0))
                .unwrap_err(),
            EngineError::DuplicateKey("strip0".into())
        );
        let r = store
            .add(
                "strip4",
                leaf_release(Rect::new(&[1.0, 0.0], &[1.25, 1.0]), 5.0),
            )
            .unwrap();
        assert_eq!(r.shard_count, 5);
        let r = store.retire("strip4").unwrap();
        assert_eq!(r.shard_count, 4);
        assert_eq!(
            store.retire("strip4").unwrap_err(),
            EngineError::UnknownKey("strip4".into())
        );
    }

    #[test]
    fn failed_mutations_leave_the_store_unchanged() {
        let store = open_strips();
        let before = store.snapshot();
        // overlapping region: rejected by shard assembly
        let overlapping = leaf_release(Rect::new(&[0.1, 0.0], &[0.6, 1.0]), 1.0);
        assert!(matches!(
            store.add("bad", overlapping),
            Err(EngineError::Shard(ShardError::OverlappingRegions { .. }))
        ));
        assert!(matches!(
            store.swap("missing", leaf_release(strip(0), 1.0)),
            Err(EngineError::UnknownKey(_))
        ));
        let after = store.snapshot();
        assert_eq!(after.version(), before.version());
        assert_eq!(store.keys(), ["strip0", "strip1", "strip2", "strip3"]);
    }

    #[test]
    fn swap_cannot_change_the_dimensionality() {
        // swapping the only shard leaves a consistent shard set, but not
        // one of the dimensionality queries were decoded for
        let store =
            ReleaseStore::open_gridded([("main", leaf_release(Rect::unit(2), 7.0))]).unwrap();
        assert_eq!(store.dims(), 2);
        let mut persisted = false;
        let refused = store.swap_with("main", leaf_release(Rect::unit(3), 7.0), |_| {
            persisted = true;
            Ok(())
        });
        assert_eq!(
            refused.unwrap_err(),
            EngineError::Shard(ShardError::MixedDims {
                expected: 2,
                found: 3
            })
        );
        assert!(!persisted, "a refused swap journals nothing");
        assert_eq!(store.stats().grids_built, 1, "nor builds a grid");
        assert_eq!(store.snapshot().version(), 1);
        assert_eq!(store.snapshot().dims(), 2);
        assert_eq!(store.dims(), 2, "the refused swap left the store's dims");

        // the dims fixed at open are every snapshot's, across a history
        let store = open_strips();
        assert_eq!(store.dims(), 2);
        let extra = leaf_release(Rect::new(&[1.0, 0.0], &[1.25, 1.0]), 5.0);
        store.add("strip4", extra).unwrap();
        assert_eq!(store.dims(), store.snapshot().dims());
        store.swap("strip1", leaf_release(strip(1), 3.0)).unwrap();
        assert_eq!(store.dims(), store.snapshot().dims());
        store.retire("strip4").unwrap();
        assert_eq!(store.dims(), store.snapshot().dims());
        assert_eq!(store.snapshot().version(), 4);
    }

    #[test]
    fn store_refuses_to_become_empty() {
        let store = ReleaseStore::open([("only", leaf_release(Rect::unit(2), 7.0))]).unwrap();
        assert_eq!(store.retire("only").unwrap_err(), EngineError::WouldBeEmpty);
        assert_eq!(store.snapshot().shard_count(), 1);
        assert!(matches!(
            ReleaseStore::open(Vec::<(String, FrozenSynopsis)>::new()),
            Err(EngineError::Shard(ShardError::Empty))
        ));
    }

    #[test]
    fn gridded_store_builds_one_grid_per_new_release() {
        let store = ReleaseStore::open_gridded(
            (0..4).map(|i| (format!("strip{i}"), leaf_release(strip(i), 4.0))),
        )
        .unwrap();
        assert_eq!(store.stats().grids_built, 4);
        let before = store.snapshot();
        let report = store.swap("strip2", leaf_release(strip(2), 9.0)).unwrap();
        assert_eq!(report.grids_built, 1, "only the swapped shard's grid");
        assert!(report.grid_cells_built > 0);
        assert_eq!(store.stats().grids_built, 5);
        // shard-set validation runs before any grid precompute: a release
        // that is both overlapping and ungriddable must fail with the
        // (cheap) shard error, not the (expensive) grid one
        let region = Rect::new(&[0.1, 0.0], &[0.6, 1.0]);
        let mut tree = privtree_core::tree::Tree::with_root(region);
        tree.add_children(tree.root(), region.bisect(&[0, 1]));
        let overlapping_and_inconsistent =
            FrozenSynopsis::from_tree(&tree, &[100.0, 1.0, 1.0, 1.0, 1.0], "bad");
        assert!(matches!(
            store.add("bad", overlapping_and_inconsistent),
            Err(EngineError::Shard(ShardError::OverlappingRegions { .. }))
        ));
        let after = store.snapshot();
        // untouched shards keep their grids by pointer
        for key in ["strip0", "strip1", "strip3"] {
            let i = before.keys().iter().position(|k| k == key).unwrap();
            let j = after.keys().iter().position(|k| k == key).unwrap();
            assert!(Arc::ptr_eq(
                before.synopsis().shards()[i].grid().unwrap(),
                after.synopsis().shards()[j].grid().unwrap()
            ));
        }
    }
}
