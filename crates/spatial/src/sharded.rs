//! Sharded frozen serving: many arenas, one query surface.
//!
//! A production deployment rarely serves a single monolithic release.
//! Releases arrive per **epoch** or per **region**, over pairwise-disjoint
//! regions. A [`ShardedSynopsis`] is the list of those releases, one
//! frozen arena per shard, and answers a query by descending every shard
//! in handle order with one *carried accumulator*. Each descent
//! classifies its own root first, so a shard the query misses adds
//! nothing and a shard the query covers adds its root count. The loop is
//! therefore the Section 2.2 walk of the one decomposition whose root's
//! children are the shard roots, in handle order (the *grafted tree*):
//! `tests/serving.rs` property-tests that a one-shard synopsis answers
//! bit for bit as its release, and a multi-shard one as its grafted tree.
//! The one exception is a shard region of zero volume lying on an edge of
//! the query: the shard's own walk finds it disjoint and adds nothing,
//! even when the query covers the grafted root.
//!
//! Shards are held as [`ShardHandle`]s — reference-counted pairs of a
//! frozen arena and an optional per-shard [`CellGrid`] — so an
//! epoch-lifecycle layer (see the `privtree-engine` crate) can replace
//! one shard and reuse every untouched handle by pointer, its grid
//! included. Cloning a handle is two `Arc` bumps, never a copy of node
//! arrays.
//!
//! [`ShardedSynopsis::from_releases`] wraps independent releases;
//! [`ShardedSynopsis::from_handles`] adopts already-shared handles, and
//! is the construction the engine runs for every snapshot. Construction
//! failures ([`ShardError`]: empty shard set, mixed dimensionalities,
//! overlapping regions) are reported as values, not panics.
//!
//! Batches go through the same worker-pool chunking as
//! [`FrozenSynopsis::answer_batch`], with one traversal stack per chunk
//! ([`ShardedSynopsis::answer_batch_with_pool`]).
//!
//! Shard descents can additionally be **grid-routed**: a handle that
//! carries a [`crate::grid_route::CellGrid`] ([`ShardHandle::from_release`],
//! [`ShardedSynopsis::with_shard_grids`]) resolves the walk inside the
//! shard through summed-area interior lookups, face-table lookups for the
//! boundary shell, and anchored walks where a shell cell's anchor is
//! internal or the cell is cut along two or more dimensions. This is the
//! one gridded engine: a single release is served gridded as a one-shard
//! synopsis. Grid-routed shard answers match the plain descent to float
//! reassociation error (≤ 1e-9 relative; the bit-identity pin applies to
//! the *ungridded* configuration).

use std::sync::Arc;

use privtree_runtime::WorkerPool;

use crate::frozen::{auto_batch, dispatch_batch, with_query_scratch, FrozenSynopsis};
use crate::geom::Rect;
use crate::grid_route::{CellGrid, GridRouteError};
use crate::query::{RangeCountSynopsis, RangeQuery};

/// Why a sharded synopsis could not be assembled.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// No shards were supplied — there is nothing to serve.
    Empty,
    /// Shard arenas disagree on the domain's dimensionality.
    MixedDims { expected: usize, found: usize },
    /// Two shard regions overlap, so a query inside the overlap would be
    /// double-counted (regions are half-open; shared edges are fine).
    OverlappingRegions { a: String, b: String },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Empty => write!(f, "at least one shard release is required"),
            ShardError::MixedDims { expected, found } => {
                write!(
                    f,
                    "mixed shard dimensionality: expected {expected}, found {found}"
                )
            }
            ShardError::OverlappingRegions { a, b } => {
                write!(f, "shard regions {a} and {b} overlap")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// One shard of a sharded synopsis: a reference-counted frozen arena plus
/// an optional reference-counted routing grid. Handles are how the
/// epoch-lifecycle layer shares untouched shards across rebuilds — two
/// synopses holding the same handle serve the exact same arrays, and
/// `Arc::ptr_eq` on [`ShardHandle::arena_arc`]/[`ShardHandle::grid`]
/// proves (in tests) that a swap did not recompute them.
#[derive(Debug, Clone)]
pub struct ShardHandle {
    arena: Arc<FrozenSynopsis>,
    grid: Option<Arc<CellGrid>>,
    /// Bytes of the memory mapping backing this shard's release file, or
    /// 0 when the release is process-owned.
    mapped_bytes: usize,
}

impl ShardHandle {
    /// Wrap a frozen release as an ungridded shard.
    pub fn new(arena: FrozenSynopsis) -> Self {
        Self::from_arc(Arc::new(arena))
    }

    /// Wrap an already-shared arena as an ungridded shard.
    pub fn from_arc(arena: Arc<FrozenSynopsis>) -> Self {
        Self {
            arena,
            grid: None,
            mapped_bytes: 0,
        }
    }

    /// Wrap a loaded release — arena plus optional grid — as a handle:
    /// the one constructor every deserialization path (text, binary,
    /// catalog) funnels through. The pairing is trusted: a grid built
    /// for a different arena answers garbage, so only pass a grid built
    /// for this arena ([`CellGrid::build`]) or validated against it by
    /// [`CellGrid::from_parts`] (every loader does).
    pub fn from_release(arena: FrozenSynopsis, grid: Option<CellGrid>) -> Self {
        Self {
            arena: Arc::new(arena),
            grid: grid.map(Arc::new),
            mapped_bytes: 0,
        }
    }

    /// Record the size of the memory mapping backing this shard's
    /// release (0 = process-owned storage).
    pub fn with_mapped_bytes(mut self, bytes: usize) -> Self {
        self.mapped_bytes = bytes;
        self
    }

    /// Build this shard's [`CellGrid`] at the default resolution (on
    /// `pool` when given) unless one is already attached — a grid the
    /// release shipped with counts as *not built*. Returns whether a
    /// grid was built — the lifecycle layer's instrumentation counts
    /// these to prove a swap rebuilt only the touched shard.
    pub fn ensure_grid(&mut self, pool: Option<&WorkerPool>) -> Result<bool, GridRouteError> {
        if self.grid.is_some() {
            return Ok(false);
        }
        let bins = CellGrid::default_bins(&self.arena);
        self.grid = Some(Arc::new(CellGrid::build(&self.arena, &bins, pool)?));
        Ok(true)
    }

    /// The shard's frozen arena.
    pub fn arena(&self) -> &FrozenSynopsis {
        &self.arena
    }

    /// The shared arena pointer (for `Arc::ptr_eq` reuse checks).
    pub fn arena_arc(&self) -> &Arc<FrozenSynopsis> {
        &self.arena
    }

    /// The shard's routing grid, when one is attached.
    pub fn grid(&self) -> Option<&Arc<CellGrid>> {
        self.grid.as_ref()
    }

    /// Bytes of the memory mapping backing this shard's release file
    /// (0 when the release is process-owned).
    pub fn mapped_bytes(&self) -> usize {
        self.mapped_bytes
    }

    /// Whether this shard serves from a memory-mapped release file.
    pub fn is_mapped(&self) -> bool {
        self.mapped_bytes > 0
    }
}

impl From<FrozenSynopsis> for ShardHandle {
    fn from(arena: FrozenSynopsis) -> Self {
        Self::new(arena)
    }
}

/// A list of frozen arenas over pairwise-disjoint regions, answered as
/// one decomposition.
#[derive(Debug, Clone)]
pub struct ShardedSynopsis {
    /// One handle (arena + optional grid) per independent release, in
    /// the order the carried accumulator visits them.
    shards: Vec<ShardHandle>,
}

impl ShardedSynopsis {
    /// Assemble independent releases over pairwise-disjoint regions. A
    /// query covering every region answers with the shard root counts
    /// summed in order; only the shards whose regions a query overlaps
    /// add to its answer.
    ///
    /// Fails with [`ShardError`] if `shards` is empty, dimensionalities
    /// differ, or two shard regions overlap.
    pub fn from_releases(shards: Vec<FrozenSynopsis>) -> Result<Self, ShardError> {
        Self::from_handles(shards.into_iter().map(ShardHandle::new).collect())
    }

    /// [`ShardedSynopsis::from_releases`] over already-shared
    /// [`ShardHandle`]s: the handles are checked and adopted as-is, so
    /// arenas and any attached grids are shared by reference. This is
    /// what makes an epoch swap cheap: replace one handle and re-run
    /// `from_handles`.
    ///
    /// Shards are answered **in handle order**, so callers that need
    /// bit-identity across rebuilds must present handles in a canonical
    /// order (the engine layer sorts by release key).
    pub fn from_handles(shards: Vec<ShardHandle>) -> Result<Self, ShardError> {
        let Some(first) = shards.first() else {
            return Err(ShardError::Empty);
        };
        let d = first.arena().dims();
        for s in &shards {
            if s.arena().dims() != d {
                return Err(ShardError::MixedDims {
                    expected: d,
                    found: s.arena().dims(),
                });
            }
        }
        let roots: Vec<Rect> = shards
            .iter()
            .map(|s| Rect::new(s.arena().node_lo(0), s.arena().node_hi(0)))
            .collect();
        for i in 0..roots.len() {
            for j in i + 1..roots.len() {
                if roots[i].intersects(&roots[j]) {
                    return Err(ShardError::OverlappingRegions {
                        a: roots[i].to_string(),
                        b: roots[j].to_string(),
                    });
                }
            }
        }
        Ok(Self { shards })
    }

    /// Attach a grid-routed accelerator to every shard arena that does
    /// not already carry one (default per-shard resolution, precomputed
    /// on the shared pool). Fails with [`GridRouteError`] when a shard
    /// cannot be grid-routed — e.g. inconsistent counts. The synopsis
    /// is consumed either way, so a caller that may need the plain
    /// configuration afterwards keeps a clone.
    pub fn with_shard_grids(mut self) -> Result<Self, GridRouteError> {
        for handle in &mut self.shards {
            handle.ensure_grid(Some(privtree_runtime::global()))?;
        }
        Ok(self)
    }

    /// The per-shard routing grids, when **every** shard carries one
    /// (indexed like [`ShardedSynopsis::shards`]); `None` as soon as any
    /// shard serves the plain descent.
    pub fn shard_grids(&self) -> Option<Vec<&CellGrid>> {
        self.shards
            .iter()
            .map(|h| h.grid().map(Arc::as_ref))
            .collect()
    }

    /// Number of shard arenas.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard handles (read-only).
    pub fn shards(&self) -> &[ShardHandle] {
        &self.shards
    }

    /// Total nodes across every shard's release.
    pub fn node_count(&self) -> usize {
        self.shards.iter().map(|s| s.arena().node_count()).sum()
    }

    /// Dimensionality of the domain.
    pub fn dims(&self) -> usize {
        self.shards[0].arena().dims()
    }

    /// The Section 2.2 traversal of the grafted tree: every shard's own
    /// descent in handle order — through the shard's cell grid when one
    /// is attached — carrying one accumulator.
    fn accumulate(&self, q: &Rect, stack: &mut Vec<u32>) -> f64 {
        debug_assert_eq!(q.dims(), self.dims());
        let (qlo, qhi) = (q.lo(), q.hi());
        self.shards
            .iter()
            .fold(0.0, |acc, handle| match handle.grid() {
                Some(grid) => grid.answer_span(handle.arena(), qlo, qhi, stack, acc),
                None => handle.arena().accumulate(q, stack, acc),
            })
    }

    /// Answer a workload on the calling thread with one reused traversal
    /// stack (the single-worker reference for the pooled path).
    pub fn answer_batch_sequential(&self, queries: &[RangeQuery]) -> Vec<f64> {
        let mut stack = Vec::with_capacity(64);
        queries
            .iter()
            .map(|q| self.accumulate(&q.rect, &mut stack))
            .collect()
    }

    /// Answer a workload chunked across `pool` with per-chunk traversal
    /// stacks; bit-identical to
    /// [`ShardedSynopsis::answer_batch_sequential`] for every worker
    /// count.
    pub fn answer_batch_with_pool(&self, queries: &[RangeQuery], pool: &WorkerPool) -> Vec<f64> {
        dispatch_batch(queries, pool, |chunk| self.answer_batch_sequential(chunk))
    }
}

impl RangeCountSynopsis for ShardedSynopsis {
    fn answer(&self, q: &RangeQuery) -> f64 {
        with_query_scratch(|stack| self.accumulate(&q.rect, stack))
    }

    fn answer_batch(&self, queries: &[RangeQuery]) -> Vec<f64> {
        auto_batch(queries, |chunk| self.answer_batch_sequential(chunk))
    }

    fn label(&self) -> &'static str {
        "ShardedSynopsis"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::PointSet;
    use crate::quadtree::SplitConfig;
    use crate::synopsis::privtree_synopsis;
    use privtree_dp::budget::Epsilon;
    use privtree_dp::rng::seeded;
    use rand::RngExt;

    fn clustered(n: usize, seed: u64) -> PointSet {
        let mut rng = seeded(seed);
        let mut ps = PointSet::new(2);
        for i in 0..n {
            if i % 5 == 0 {
                ps.push(&[rng.random::<f64>(), rng.random::<f64>()]);
            } else {
                ps.push(&[
                    0.2 + rng.random::<f64>() * 0.1,
                    0.55 + rng.random::<f64>() * 0.1,
                ]);
            }
        }
        ps
    }

    fn release(points: &PointSet, region: Rect, seed: u64) -> FrozenSynopsis {
        privtree_synopsis(
            points,
            region,
            SplitConfig::full(2),
            Epsilon::new(1.0).unwrap(),
            &mut seeded(seed),
        )
        .unwrap()
        .freeze()
    }

    fn sample_frozen(seed: u64) -> FrozenSynopsis {
        release(&clustered(5000, seed), Rect::unit(2), seed)
    }

    /// One release per vertical strip of the unit square, each over the
    /// clustered points that fall in its strip.
    fn strip_releases(strips: usize, seed: u64) -> Vec<FrozenSynopsis> {
        let ps = clustered(5000, seed);
        (0..strips)
            .map(|s| {
                let (x0, x1) = (s as f64 / strips as f64, (s + 1) as f64 / strips as f64);
                let region = Rect::new(&[x0, 0.0], &[x1, 1.0]);
                let mut mine = PointSet::new(2);
                for p in ps.iter().filter(|p| region.contains_point(p)) {
                    mine.push(p);
                }
                release(&mine, region, seed + s as u64)
            })
            .collect()
    }

    fn random_queries(n: usize, seed: u64) -> Vec<RangeQuery> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| {
                let cx = rng.random::<f64>() * 0.9;
                let cy = rng.random::<f64>() * 0.9;
                let w = 0.005 + rng.random::<f64>() * 0.4;
                RangeQuery::new(Rect::new(
                    &[cx, cy],
                    &[(cx + w).min(1.0), (cy + w).min(1.0)],
                ))
            })
            .collect()
    }

    #[test]
    fn one_shard_is_bit_identical_to_its_release() {
        let frozen = sample_frozen(11);
        let sharded = ShardedSynopsis::from_releases(vec![frozen.clone()]).unwrap();
        assert_eq!(sharded.node_count(), frozen.node_count());
        for q in &random_queries(300, 12) {
            let (a, b) = (frozen.answer(q), sharded.answer(q));
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b} on {}", q.rect);
        }
    }

    #[test]
    fn whole_domain_query_sums_shard_roots_in_order() {
        let strips = strip_releases(4, 3);
        let sum = strips.iter().fold(0.0, |acc, s| acc + s.counts()[0]);
        let sharded = ShardedSynopsis::from_releases(strips).unwrap();
        let whole = RangeQuery::new(Rect::unit(2));
        assert_eq!(sharded.answer(&whole).to_bits(), sum.to_bits());
    }

    #[test]
    fn from_releases_routes_by_region() {
        // two releases over the left and right halves of the unit square
        let left = FrozenSynopsis::from_tree(
            &privtree_core::tree::Tree::with_root(Rect::new(&[0.0, 0.0], &[0.5, 1.0])),
            &[10.0],
            "left",
        );
        let right = FrozenSynopsis::from_tree(
            &privtree_core::tree::Tree::with_root(Rect::new(&[0.5, 0.0], &[1.0, 1.0])),
            &[30.0],
            "right",
        );
        let sharded = ShardedSynopsis::from_releases(vec![left, right]).unwrap();
        assert_eq!(sharded.shard_count(), 2);
        assert_eq!(sharded.node_count(), 2);
        // a query inside the left region only sees the left shard
        let q = RangeQuery::new(Rect::new(&[0.0, 0.0], &[0.25, 1.0]));
        assert!((sharded.answer(&q) - 5.0).abs() < 1e-12);
        // the whole domain answers with the aggregate root count
        let whole = RangeQuery::new(Rect::unit(2));
        assert_eq!(sharded.answer(&whole), 40.0);
    }

    #[test]
    fn zero_width_shards_on_the_query_edge_add_nothing() {
        let leaf = |lo: &[f64], hi: &[f64], count: f64| {
            FrozenSynopsis::from_tree(
                &privtree_core::tree::Tree::with_root(Rect::new(lo, hi)),
                &[count],
                "leaf",
            )
        };
        let sharded = ShardedSynopsis::from_releases(vec![
            leaf(&[0.0, 0.0], &[0.5, 1.0], 10.0),
            leaf(&[1.0, 0.0], &[1.0, 1.0], 7.0),
            leaf(&[0.0, 0.0], &[0.0, 1.0], 3.0),
        ])
        .unwrap();
        // both zero-width shards lie on an edge of the unit square, which
        // their own walks find disjoint; a larger box contains them
        assert_eq!(sharded.answer(&RangeQuery::new(Rect::unit(2))), 10.0);
        let around = RangeQuery::new(Rect::new(&[-1.0, -1.0], &[2.0, 2.0]));
        assert_eq!(sharded.answer(&around), 20.0);
    }

    #[test]
    fn from_releases_rejects_overlapping_regions() {
        let a = FrozenSynopsis::from_tree(
            &privtree_core::tree::Tree::with_root(Rect::new(&[0.0, 0.0], &[0.6, 1.0])),
            &[1.0],
            "a",
        );
        let b = FrozenSynopsis::from_tree(
            &privtree_core::tree::Tree::with_root(Rect::new(&[0.5, 0.0], &[1.0, 1.0])),
            &[1.0],
            "b",
        );
        assert!(matches!(
            ShardedSynopsis::from_releases(vec![a, b]),
            Err(ShardError::OverlappingRegions { .. })
        ));
    }

    #[test]
    fn empty_and_mixed_dim_shard_sets_are_refused() {
        assert_eq!(
            ShardedSynopsis::from_releases(Vec::new()).unwrap_err(),
            ShardError::Empty
        );
        let flat = FrozenSynopsis::from_tree(
            &privtree_core::tree::Tree::with_root(Rect::new(&[0.0, 0.0], &[0.5, 1.0])),
            &[1.0],
            "2d",
        );
        let cube = FrozenSynopsis::from_tree(
            &privtree_core::tree::Tree::with_root(Rect::new(&[0.6, 0.0, 0.0], &[1.0, 1.0, 1.0])),
            &[1.0],
            "3d",
        );
        assert!(matches!(
            ShardedSynopsis::from_releases(vec![flat, cube]),
            Err(ShardError::MixedDims {
                expected: 2,
                found: 3
            })
        ));
    }

    #[test]
    fn from_handles_reuses_arenas_and_grids_by_pointer() {
        let left = FrozenSynopsis::from_tree(
            &privtree_core::tree::Tree::with_root(Rect::new(&[0.0, 0.0], &[0.5, 1.0])),
            &[10.0],
            "left",
        );
        let right = FrozenSynopsis::from_tree(
            &privtree_core::tree::Tree::with_root(Rect::new(&[0.5, 0.0], &[1.0, 1.0])),
            &[30.0],
            "right",
        );
        let a = ShardedSynopsis::from_releases(vec![left, right])
            .unwrap()
            .with_shard_grids()
            .unwrap();
        let b = ShardedSynopsis::from_handles(a.shards().to_vec()).unwrap();
        for (ha, hb) in a.shards().iter().zip(b.shards()) {
            assert!(Arc::ptr_eq(ha.arena_arc(), hb.arena_arc()));
            assert!(Arc::ptr_eq(ha.grid().unwrap(), hb.grid().unwrap()));
        }
        let q = RangeQuery::new(Rect::new(&[0.0, 0.0], &[0.25, 1.0]));
        assert_eq!(a.answer(&q).to_bits(), b.answer(&q).to_bits());
    }

    #[test]
    fn shard_grids_match_plain_sharding() {
        let queries = random_queries(400, 32);
        let plain = ShardedSynopsis::from_releases(strip_releases(4, 31)).unwrap();
        let gridded = plain.clone().with_shard_grids().unwrap();
        assert_eq!(
            gridded.shard_grids().map(|g| g.len()),
            Some(plain.shard_count())
        );
        assert!(plain.shard_grids().is_none());
        for q in &queries {
            let a = plain.answer(q);
            let b = gridded.answer(q);
            let tol = 1e-9 * a.abs().max(1.0);
            assert!((a - b).abs() <= tol, "{a} vs {b} on {}", q.rect);
        }
        // batch paths stay bit-identical to the gridded single-query path
        let batch = gridded.answer_batch_sequential(&queries);
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(gridded.answer(q).to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_paths_agree_with_single_answers() {
        let sharded = ShardedSynopsis::from_releases(strip_releases(4, 21)).unwrap();
        let queries = random_queries(700, 22);
        let sequential = sharded.answer_batch_sequential(&queries);
        for (q, s) in queries.iter().zip(&sequential) {
            assert_eq!(sharded.answer(q).to_bits(), s.to_bits());
        }
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let pooled = sharded.answer_batch_with_pool(&queries, &pool);
            assert_eq!(pooled.len(), sequential.len());
            for (a, b) in sequential.iter().zip(&pooled) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers = {workers}");
            }
        }
        // the trait entry point (possibly global-pooled) agrees too
        let auto = sharded.answer_batch(&queries);
        assert_eq!(auto.len(), sequential.len());
        for (a, b) in sequential.iter().zip(&auto) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
