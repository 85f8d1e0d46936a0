//! Sharded frozen serving: many arenas, one query surface.
//!
//! A production deployment rarely serves a single monolithic release.
//! Releases arrive per **epoch** or per **region**, and even one huge
//! release is easier to hold as bounded-size pieces. [`ShardedSynopsis`]
//! keeps *one frozen arena per shard* plus a small **top arena** that
//! routes queries by domain: the top is traversed like any frozen
//! synopsis, and where it reaches a shard-backed leaf whose region
//! overlaps the query, the matching shard arena is descended with the
//! *carried accumulator*. Shards whose regions are disjoint from the
//! query are never touched — that is the routing.
//!
//! Shards are held as [`ShardHandle`]s — reference-counted pairs of a
//! frozen arena and an optional per-shard [`CellGrid`] — so an
//! epoch-lifecycle layer (see the `privtree-engine` crate) can replace
//! one shard and rebuild **only** the small routing arena: every
//! untouched handle is reused by pointer, its grid included. Cloning a
//! handle is two `Arc` bumps, never a copy of node arrays.
//!
//! Three constructions:
//!
//! * [`ShardedSynopsis::from_frozen`] re-layouts one existing release,
//!   cutting its tree at a chosen depth; every subtree below the cut
//!   becomes its own arena. Because the carried accumulator preserves the
//!   exact `+=` order of the unsharded DFS (a cut node's whole subtree is
//!   consumed before the walk resumes above it), answers are
//!   **bit-identical** to the original [`FrozenSynopsis`] — not merely
//!   close — which `tests/serving.rs` property-tests.
//! * [`ShardedSynopsis::from_releases`] assembles independent releases
//!   over pairwise-disjoint regions (the epoch/region case) under a
//!   synthetic root whose count is the sum of the shard root counts.
//! * [`ShardedSynopsis::from_handles`] is the same assembly over
//!   already-shared handles — the incremental-rebuild entry point: only
//!   the routing arena (one synthetic root plus one leaf per shard) is
//!   constructed; arenas and grids are adopted as-is.
//!
//! Construction failures ([`ShardError`]: empty shard set, mixed
//! dimensionalities, overlapping regions) are reported as values, not
//! panics.
//!
//! Batches go through the same worker-pool chunking as
//! [`FrozenSynopsis::answer_batch`], with a pair of per-chunk traversal
//! stacks ([`ShardedSynopsis::answer_batch_with_pool`]).
//!
//! Shard descents can additionally be **grid-routed**: a handle that
//! carries a [`crate::grid_route::CellGrid`] ([`ShardHandle::from_release`],
//! [`ShardedSynopsis::with_shard_grids`]) resolves the heavy part of a
//! query — the walk inside the shard the query lands on — through
//! summed-area interior lookups, face-table lookups for the boundary
//! shell, and anchored walks where a shell cell's anchor is internal or
//! the cell is cut along two or more dimensions. This is the one gridded
//! engine: a single release is served gridded as a one-shard synopsis.
//! Grid-routed shard answers match the plain descent to float
//! reassociation error (≤ 1e-9 relative; the bit-identity pin applies to
//! the *ungridded* configuration).

use std::sync::Arc;

use privtree_runtime::WorkerPool;

use crate::frozen::{auto_batch, dispatch_batch, with_query_scratch, FrozenSynopsis, Overlap};
use crate::geom::Rect;
use crate::grid_route::{CellGrid, GridRouteError};
use crate::query::{RangeCountSynopsis, RangeQuery};

/// Sentinel in `shard_ref` for top nodes not backed by a shard.
const NO_SHARD: u32 = u32::MAX;

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

/// A collection of frozen arenas served behind one routing arena.
#[derive(Debug, Clone)]
pub struct ShardedSynopsis {
    /// The routing arena: the release's nodes above the cut, with each
    /// cut subtree replaced by a leaf that carries the subtree's root
    /// count and a reference into `shards`.
    top: FrozenSynopsis,
    /// Per top node: index into `shards`, or [`NO_SHARD`].
    shard_ref: Vec<u32>,
    /// One handle (arena + optional grid) per cut subtree / per
    /// independent release.
    shards: Vec<ShardHandle>,
    label: &'static str,
}

/// Extract the sub-arena reachable from `root`, stopping the descent at
/// nodes whose depth equals `stop_depth` (those become leaves of the
/// extracted arena). Returns the new arena's arrays plus, for each new
/// node, its index in the source arena — in the new arena's order, which
/// is a breadth-first re-layout (children blocks stay contiguous).
fn extract_arena(
    src: &FrozenSynopsis,
    root: usize,
    depth_of: &[u32],
    stop_depth: Option<u32>,
) -> (FrozenSynopsis, Vec<usize>) {
    let d = src.dims();
    let src_first = src.first_child();
    let src_kids = src.child_count();
    let mut old_ids: Vec<usize> = vec![root];
    let mut first_child: Vec<u32> = Vec::new();
    let mut child_count: Vec<u32> = Vec::new();
    let mut cursor = 0usize;
    while cursor < old_ids.len() {
        let old = old_ids[cursor];
        let kids = src_kids[old] as usize;
        let stopped = stop_depth.is_some_and(|s| depth_of[old] >= s);
        if kids > 0 && !stopped {
            first_child.push(old_ids.len() as u32);
            child_count.push(kids as u32);
            let first = src_first[old] as usize;
            old_ids.extend(first..first + kids);
        } else {
            first_child.push(0);
            child_count.push(0);
        }
        cursor += 1;
    }
    let mut lo = Vec::with_capacity(old_ids.len() * d);
    let mut hi = Vec::with_capacity(old_ids.len() * d);
    let mut counts = Vec::with_capacity(old_ids.len());
    for &old in &old_ids {
        lo.extend_from_slice(src.node_lo(old));
        hi.extend_from_slice(src.node_hi(old));
        counts.push(src.counts()[old]);
    }
    let arena = FrozenSynopsis::from_raw(d, lo, hi, first_child, child_count, counts, "shard");
    (arena, old_ids)
}

/// Depth of every node of a frozen arena (parents precede children, so a
/// single forward pass suffices).
fn depths(src: &FrozenSynopsis) -> Vec<u32> {
    let mut depth = vec![0u32; src.node_count()];
    let first = src.first_child();
    let kids = src.child_count();
    for i in 0..src.node_count() {
        let k = kids[i] as usize;
        for c in first[i] as usize..first[i] as usize + k {
            depth[c] = depth[i] + 1;
        }
    }
    depth
}

impl ShardedSynopsis {
    /// Re-layout one release into a top arena plus one shard per subtree
    /// rooted at depth `cut_depth` (subtrees that are single leaves stay
    /// in the top). Answers are bit-identical to `frozen`'s.
    ///
    /// The `Result` is part of the uniform construction surface
    /// ([`ShardError`]); a re-layout of a well-formed frozen arena
    /// currently cannot fail, so every error variant is reserved for the
    /// multi-release constructors.
    pub fn from_frozen(frozen: &FrozenSynopsis, cut_depth: u32) -> Result<Self, ShardError> {
        let depth_of = depths(frozen);
        let (top, top_old_ids) = extract_arena(frozen, 0, &depth_of, Some(cut_depth));
        let mut shard_ref = vec![NO_SHARD; top_old_ids.len()];
        let mut shards = Vec::new();
        for (new_id, &old) in top_old_ids.iter().enumerate() {
            if depth_of[old] >= cut_depth && frozen.child_count()[old] > 0 {
                shard_ref[new_id] = shards.len() as u32;
                let (shard, _) = extract_arena(frozen, old, &depth_of, None);
                shards.push(ShardHandle::new(shard));
            }
        }
        Ok(Self {
            top,
            shard_ref,
            shards,
            label: "ShardedSynopsis",
        })
    }

    /// Assemble independent releases over pairwise-disjoint regions under
    /// a synthetic root covering their bounding box; the root's count is
    /// the sum of the shard root counts, so a query covering everything
    /// answers with that aggregate. Queries route to the shards whose
    /// regions they overlap.
    ///
    /// Fails with [`ShardError`] if `shards` is empty, dimensionalities
    /// differ, or two shard regions overlap.
    pub fn from_releases(shards: Vec<FrozenSynopsis>) -> Result<Self, ShardError> {
        Self::from_handles(shards.into_iter().map(ShardHandle::new).collect())
    }

    /// [`ShardedSynopsis::from_releases`] over already-shared
    /// [`ShardHandle`]s: only the routing arena — one synthetic root plus
    /// one shard-backed leaf per handle — is built here; arenas and any
    /// attached grids are adopted by reference. This is what makes an
    /// epoch swap cheap: replace one handle, re-run `from_handles`, and
    /// the rebuilt state is `shards.len() + 1` routing nodes.
    ///
    /// The synthetic root's count sums the shard root counts **in handle
    /// order**, so callers that need bit-identity across rebuilds must
    /// present handles in a canonical order (the engine layer sorts by
    /// release key).
    pub fn from_handles(shards: Vec<ShardHandle>) -> Result<Self, ShardError> {
        if shards.is_empty() {
            return Err(ShardError::Empty);
        }
        let d = shards[0].arena().dims();
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
        let mut bbox_lo = roots[0].lo().to_vec();
        let mut bbox_hi = roots[0].hi().to_vec();
        for r in &roots[1..] {
            for k in 0..d {
                bbox_lo[k] = bbox_lo[k].min(r.lo()[k]);
                bbox_hi[k] = bbox_hi[k].max(r.hi()[k]);
            }
        }
        let n = shards.len();
        let mut lo = bbox_lo.clone();
        let mut hi = bbox_hi.clone();
        let mut counts = vec![shards.iter().map(|s| s.arena().counts()[0]).sum::<f64>()];
        let mut first_child = vec![1u32];
        let mut child_count = vec![n as u32];
        for (r, s) in roots.iter().zip(&shards) {
            lo.extend_from_slice(r.lo());
            hi.extend_from_slice(r.hi());
            counts.push(s.arena().counts()[0]);
            first_child.push(0);
            child_count.push(0);
        }
        let top = FrozenSynopsis::from_raw(d, lo, hi, first_child, child_count, counts, "top");
        let mut shard_ref = vec![NO_SHARD; n + 1];
        for (i, r) in shard_ref[1..].iter_mut().enumerate() {
            *r = i as u32;
        }
        Ok(Self {
            top,
            shard_ref,
            shards,
            label: "ShardedSynopsis",
        })
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

    /// Override the display label.
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Number of shard arenas.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard handles (read-only).
    pub fn shards(&self) -> &[ShardHandle] {
        &self.shards
    }

    /// Nodes in the routing arena — the only nodes
    /// [`ShardedSynopsis::from_handles`] actually constructs.
    pub fn routing_node_count(&self) -> usize {
        self.top.node_count()
    }

    /// Total nodes across the top and every shard.
    pub fn node_count(&self) -> usize {
        self.top.node_count()
            + self
                .shards
                .iter()
                .map(|s| s.arena().node_count())
                .sum::<usize>()
    }

    /// Dimensionality of the domain.
    pub fn dims(&self) -> usize {
        self.top.dims()
    }

    /// The Section 2.2 traversal over the top arena, descending into a
    /// shard arena (with the carried accumulator) wherever a shard-backed
    /// leaf partially overlaps the query. Mirrors
    /// [`FrozenSynopsis::accumulate`] case for case, so a re-layout of a
    /// single release answers bit-identically to the original.
    fn accumulate(&self, q: &Rect, top_stack: &mut Vec<u32>, shard_stack: &mut Vec<u32>) -> f64 {
        debug_assert_eq!(q.dims(), self.top.dims());
        let (qlo, qhi) = (q.lo(), q.hi());
        let first = self.top.first_child();
        let kids = self.top.child_count();
        let counts = self.top.counts();
        let mut acc = 0.0;
        top_stack.clear();
        top_stack.push(0);
        while let Some(v) = top_stack.pop() {
            let i = v as usize;
            match self.top.classify(i, qlo, qhi) {
                // case 1: disjoint — the query routes around this shard
                Overlap::Disjoint => {}
                // case 2: fully inside — the (shard root's) released count
                Overlap::Contained => acc += counts[i],
                Overlap::Partial => {
                    if self.shard_ref[i] != NO_SHARD {
                        // shard-backed leaf: descend the shard arena
                        // exactly where the unsharded DFS would descend
                        // the cut subtree, carrying the accumulator —
                        // through the shard's cell grid when one is
                        // attached
                        let s = self.shard_ref[i] as usize;
                        let handle = &self.shards[s];
                        acc = match handle.grid() {
                            Some(grid) => {
                                grid.answer_span(handle.arena(), qlo, qhi, shard_stack, acc)
                            }
                            None => handle.arena().accumulate(q, shard_stack, acc),
                        };
                    } else if kids[i] > 0 {
                        // case 3: internal — children in arena order
                        // (pushed reversed so they pop in order)
                        for c in (first[i]..first[i] + kids[i]).rev() {
                            top_stack.push(c);
                        }
                    } else if let Some(c) = self.top.leaf_contribution(i, qlo, qhi) {
                        // case 4: plain leaf — uniform assumption
                        acc += c;
                    }
                }
            }
        }
        acc
    }

    /// Answer a workload on the calling thread with one reused pair of
    /// traversal stacks (the single-worker reference for the pooled path).
    pub fn answer_batch_sequential(&self, queries: &[RangeQuery]) -> Vec<f64> {
        let mut top_stack = Vec::with_capacity(64);
        let mut shard_stack = Vec::with_capacity(64);
        queries
            .iter()
            .map(|q| self.accumulate(&q.rect, &mut top_stack, &mut shard_stack))
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
        with_query_scratch(|top_stack, shard_stack| {
            self.accumulate(&q.rect, top_stack, shard_stack)
        })
    }

    fn answer_batch(&self, queries: &[RangeQuery]) -> Vec<f64> {
        auto_batch(queries, |chunk| self.answer_batch_sequential(chunk))
    }

    fn label(&self) -> &'static str {
        self.label
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

    fn sample_frozen(seed: u64) -> FrozenSynopsis {
        privtree_synopsis(
            &clustered(5000, seed),
            Rect::unit(2),
            SplitConfig::full(2),
            Epsilon::new(1.0).unwrap(),
            &mut seeded(seed),
        )
        .unwrap()
        .freeze()
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
    fn from_frozen_is_bit_identical_at_every_cut_depth() {
        let frozen = sample_frozen(11);
        let queries = random_queries(300, 12);
        for cut_depth in 0..5 {
            let sharded = ShardedSynopsis::from_frozen(&frozen, cut_depth).unwrap();
            assert_eq!(
                sharded.node_count() - sharded.shard_count(),
                frozen.node_count(),
                "shard roots are duplicated into the top, nothing else"
            );
            for q in &queries {
                let a = frozen.answer(q);
                let b = sharded.answer(q);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "cut {cut_depth}: {a} vs {b} on {}",
                    q.rect
                );
            }
        }
    }

    #[test]
    fn whole_domain_query_matches_root_count() {
        let frozen = sample_frozen(3);
        let sharded = ShardedSynopsis::from_frozen(&frozen, 2).unwrap();
        let whole = RangeQuery::new(Rect::unit(2));
        assert_eq!(
            sharded.answer(&whole).to_bits(),
            frozen.answer(&whole).to_bits()
        );
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
        assert_eq!(sharded.routing_node_count(), 3);
        // a query inside the left region only sees the left shard
        let q = RangeQuery::new(Rect::new(&[0.0, 0.0], &[0.25, 1.0]));
        assert!((sharded.answer(&q) - 5.0).abs() < 1e-12);
        // the whole domain answers with the aggregate root count
        let whole = RangeQuery::new(Rect::unit(2));
        assert_eq!(sharded.answer(&whole), 40.0);
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
        assert_eq!(b.routing_node_count(), 3);
        for (ha, hb) in a.shards().iter().zip(b.shards()) {
            assert!(Arc::ptr_eq(ha.arena_arc(), hb.arena_arc()));
            assert!(Arc::ptr_eq(ha.grid().unwrap(), hb.grid().unwrap()));
        }
        let q = RangeQuery::new(Rect::new(&[0.0, 0.0], &[0.25, 1.0]));
        assert_eq!(a.answer(&q).to_bits(), b.answer(&q).to_bits());
    }

    #[test]
    fn shard_grids_match_plain_sharding() {
        let frozen = sample_frozen(31);
        let queries = random_queries(400, 32);
        let plain = ShardedSynopsis::from_frozen(&frozen, 2).unwrap();
        let gridded = ShardedSynopsis::from_frozen(&frozen, 2)
            .unwrap()
            .with_shard_grids()
            .unwrap();
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
        let frozen = sample_frozen(21);
        let sharded = ShardedSynopsis::from_frozen(&frozen, 2).unwrap();
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
