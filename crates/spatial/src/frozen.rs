//! A read-optimized, structure-of-arrays view of a released synopsis.
//!
//! [`crate::synopsis::SpatialSynopsis`] answers queries by walking a
//! `Tree<Rect>` — fine for one-off questions, but every visit chases a
//! node entry holding a padded [`Rect`] (two `[f64; MAX_DIMS]` corners)
//! plus tree bookkeeping. A serving system that answers millions of
//! range-count queries over one immutable release wants the opposite
//! layout: the release is frozen once into parallel flat arrays
//! (`lo`/`hi` coordinates packed at the *actual* dimensionality, child
//! ranges, counts) and every query runs an allocation-free iterative
//! traversal over them. Single queries borrow a thread-local traversal
//! stack, so even [`FrozenSynopsis::answer`] allocates nothing per call;
//! batches go further and chunk the workload across the persistent
//! `privtree-runtime` worker pool with one traversal stack per chunk
//! ([`FrozenSynopsis::answer_batch_with_pool`];
//! [`RangeCountSynopsis::answer_batch`] engages the shared global pool
//! automatically on large workloads). Every query is answered
//! independently by the same float operations, so pooled batch answers
//! are bit-identical to the sequential loop for every worker count
//! (property-tested in `tests/serving.rs`).
//!
//! Freezing is lossless: [`FrozenSynopsis::thaw`] reconstructs the exact
//! tree (same arena order), and the answers agree with the tree-walk to
//! floating-point reassociation error (≪ 1e-9; property-tested in
//! `tests/proptest_invariants.rs`).

use std::cell::RefCell;

use privtree_core::tree::{NodeId, Tree};
use privtree_runtime::WorkerPool;

use crate::columns::Column;
use crate::geom::Rect;
use crate::query::{RangeCountSynopsis, RangeQuery};
use crate::synopsis::SpatialSynopsis;

thread_local! {
    /// A pool of reusable traversal stacks for single-query entry points.
    /// A pool (rather than one fixed stack) makes [`with_query_scratch`]
    /// reentrant: each call *takes* a stack out of the `RefCell` and
    /// returns it afterwards, so a nested call — e.g. an engine whose
    /// `answer` consults another engine inside the closure — simply takes
    /// another instead of panicking on a double `borrow_mut`.
    static QUERY_SCRATCH: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a reusable traversal stack drawn from the calling
/// thread's scratch pool. Safe to nest: the `RefCell` is only borrowed
/// while checking the stack in and out, never across `f`. If `f` panics
/// the checked-out stack is dropped rather than returned — the pool
/// stays coherent, it just re-allocates on the next call.
pub(crate) fn with_query_scratch<R>(f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
    let mut stack = QUERY_SCRATCH.with(|cell| {
        cell.borrow_mut()
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(64))
    });
    let out = f(&mut stack);
    QUERY_SCRATCH.with(|cell| cell.borrow_mut().push(stack));
    out
}

/// The one copy of the pooled batch-dispatch policy, shared by the frozen,
/// grid-routed and sharded engines: cut the workload into two contiguous
/// ranges per computing thread (the caller counts as one) and answer each
/// chunk with `answer_chunk`, which sets up its own per-chunk traversal
/// scratch. The caller starts on the first range at once and helpers
/// claim the rest as they come free, so threads that finish early take
/// the ranges left behind a slow one. Falls back to one chunk on the
/// caller when the pool cannot help. Ordered collection keeps the output
/// bit-identical to `answer_chunk(queries)` for every worker count.
pub(crate) fn dispatch_batch(
    queries: &[RangeQuery],
    pool: &WorkerPool,
    answer_chunk: impl Fn(&[RangeQuery]) -> Vec<f64> + Sync,
) -> Vec<f64> {
    pool.map_chunks(queries.len(), pool.workers() * 2, |r| {
        answer_chunk(&queries[r])
    })
}

/// The shared global pool engages on `answer_batch` only for workloads at
/// least this large; below it dispatch overhead beats the win.
const BATCH_PARALLEL_THRESHOLD: usize = 512;

/// The one copy of every engine's `answer_batch` policy: large workloads
/// go through [`dispatch_batch`] on the shared global pool when it has
/// helpers, anything else runs as one chunk on the caller.
pub(crate) fn auto_batch(
    queries: &[RangeQuery],
    answer_chunk: impl Fn(&[RangeQuery]) -> Vec<f64> + Sync,
) -> Vec<f64> {
    let pool = privtree_runtime::global();
    if pool.workers() > 1 && queries.len() >= BATCH_PARALLEL_THRESHOLD {
        dispatch_batch(queries, pool, answer_chunk)
    } else {
        answer_chunk(queries)
    }
}

/// Dispatch a dimensionality-generic method over the supported
/// dimensionalities (1 through [`crate::MAX_DIMS`]), so hot per-node
/// loops compile with the dimension count known. Every instantiation
/// performs the same float operations in the same order — which arm runs
/// can never change an answer's bits.
macro_rules! dispatch_dims {
    ($dims:expr, $D:ident => $call:expr) => {
        match $dims {
            1 => {
                const $D: usize = 1;
                $call
            }
            2 => {
                const $D: usize = 2;
                $call
            }
            3 => {
                const $D: usize = 3;
                $call
            }
            4 => {
                const $D: usize = 4;
                $call
            }
            5 => {
                const $D: usize = 5;
                $call
            }
            6 => {
                const $D: usize = 6;
                $call
            }
            7 => {
                const $D: usize = 7;
                $call
            }
            8 => {
                const $D: usize = 8;
                $call
            }
            d => unreachable!("dimensionality {d} exceeds MAX_DIMS"),
        }
    };
}
pub(crate) use dispatch_dims;

/// Why a set of flat arrays is not a valid frozen arena. Returned by
/// [`FrozenSynopsis::from_flat_parts`], the constructor deserializers use
/// — a decoder handing over hostile bytes gets a typed refusal, never a
/// panic deeper in the read path.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatLayoutError {
    /// Zero nodes — there is no release to serve.
    Empty,
    /// Dimensionality outside `1..=MAX_DIMS`.
    BadDims { dims: usize },
    /// An array's length disagrees with the node count / dimensionality.
    LengthMismatch {
        array: &'static str,
        expected: usize,
        found: usize,
    },
    /// A node's box is not a finite `lo <= hi` rectangle.
    BadGeometry { node: usize },
    /// The child ranges do not tile the arena (children must be
    /// contiguous, appear after their parent, and cover nodes `1..n`
    /// exactly once; leaves must carry `first_child == 0`).
    BadChildRange { node: usize, reason: String },
}

impl std::fmt::Display for FlatLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlatLayoutError::Empty => write!(f, "zero-node arena"),
            FlatLayoutError::BadDims { dims } => {
                write!(f, "dimensionality {dims} outside 1..={}", crate::MAX_DIMS)
            }
            FlatLayoutError::LengthMismatch {
                array,
                expected,
                found,
            } => write!(
                f,
                "{array} array holds {found} entries, expected {expected}"
            ),
            FlatLayoutError::BadGeometry { node } => {
                write!(f, "node {node} is not a finite lo <= hi box")
            }
            FlatLayoutError::BadChildRange { node, reason } => {
                write!(f, "bad child range at node {node}: {reason}")
            }
        }
    }
}

impl std::error::Error for FlatLayoutError {}

/// How a node's box relates to a query box in the Section 2.2 traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Overlap {
    /// Case 1: no overlap — contributes nothing.
    Disjoint,
    /// Case 2: node fully inside the query — take its released count.
    Contained,
    /// Cases 3/4: partial overlap — descend or apply the uniform rule.
    Partial,
}

/// A flattened, immutable synopsis: one release, many fast reads.
#[derive(Debug, Clone)]
pub struct FrozenSynopsis {
    dims: usize,
    /// Lower corners, packed `dims` coordinates per node.
    lo: Column<f64>,
    /// Upper corners, packed `dims` coordinates per node.
    hi: Column<f64>,
    /// Arena index of each node's first child (0 for leaves).
    first_child: Column<u32>,
    /// Number of children (0 for leaves).
    child_count: Column<u32>,
    /// Released per-node counts, arena order.
    counts: Column<f64>,
    label: &'static str,
}

impl FrozenSynopsis {
    /// Flatten a released tree + arena-aligned counts.
    pub fn from_tree(tree: &Tree<Rect>, counts: &[f64], label: &'static str) -> Self {
        assert_eq!(tree.len(), counts.len(), "one count per node");
        let n = tree.len();
        let dims = tree.payload(tree.root()).dims();
        let mut lo = Vec::with_capacity(n * dims);
        let mut hi = Vec::with_capacity(n * dims);
        let mut first_child = Vec::with_capacity(n);
        let mut child_count = Vec::with_capacity(n);
        for id in tree.ids() {
            let rect = tree.payload(id);
            debug_assert_eq!(rect.dims(), dims, "mixed dimensionality");
            lo.extend_from_slice(rect.lo());
            hi.extend_from_slice(rect.hi());
            let mut kids = tree.children(id);
            match kids.next() {
                Some(first) => {
                    first_child.push(first.index() as u32);
                    child_count.push(1 + kids.count() as u32);
                }
                None => {
                    first_child.push(0);
                    child_count.push(0);
                }
            }
        }
        Self {
            dims,
            lo: lo.into(),
            hi: hi.into(),
            first_child: first_child.into(),
            child_count: child_count.into(),
            counts: counts.to_vec().into(),
            label,
        }
    }

    /// Freeze a tree-walk synopsis.
    pub fn freeze(synopsis: &SpatialSynopsis) -> Self {
        Self::from_tree(synopsis.tree(), synopsis.counts(), synopsis.label())
    }

    /// Number of nodes in the decomposition.
    pub fn node_count(&self) -> usize {
        self.counts.len()
    }

    /// Dimensionality of the domain.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Released per-node counts in arena order.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Lower corner of a node's region.
    pub fn node_lo(&self, index: usize) -> &[f64] {
        &self.lo[index * self.dims..(index + 1) * self.dims]
    }

    /// Upper corner of a node's region.
    pub fn node_hi(&self, index: usize) -> &[f64] {
        &self.hi[index * self.dims..(index + 1) * self.dims]
    }

    /// Arena index of each node's first child (0 for leaves). Together
    /// with [`FrozenSynopsis::child_count`] this is the whole tree
    /// structure — serializers persist exactly these arrays.
    pub fn first_child(&self) -> &[u32] {
        &self.first_child
    }

    /// Number of children per node (0 for leaves).
    pub fn child_count(&self) -> &[u32] {
        &self.child_count
    }

    /// Packed lower corners, `dims` coordinates per node in arena order
    /// (the raw column a serializer writes).
    pub fn lo_coords(&self) -> &[f64] {
        &self.lo
    }

    /// Packed upper corners, `dims` coordinates per node in arena order.
    pub fn hi_coords(&self) -> &[f64] {
        &self.hi
    }

    /// Whether any column borrows external storage (a mapped release
    /// file) instead of owning its elements.
    pub fn borrows_storage(&self) -> bool {
        self.lo.is_borrowed()
            || self.hi.is_borrowed()
            || self.first_child.is_borrowed()
            || self.child_count.is_borrowed()
            || self.counts.is_borrowed()
    }

    /// Assemble a frozen synopsis from untrusted flat arrays, validating
    /// every structural invariant the read path relies on: array lengths,
    /// finite `lo <= hi` boxes, and child ranges that are contiguous,
    /// parent-before-child, and tile nodes `1..n` exactly once (leaves
    /// must carry `first_child == 0`, the canonical form
    /// [`FrozenSynopsis::from_tree`] produces). This is the deserializer
    /// entry point — a corrupt file becomes a [`FlatLayoutError`], never
    /// a panic inside a traversal.
    ///
    /// The arrays may be owned `Vec`s or [`Column`]s borrowing a mapped
    /// release file — validation reads through the same slice view
    /// either way.
    #[allow(clippy::too_many_arguments)]
    pub fn from_flat_parts(
        dims: usize,
        lo: impl Into<Column<f64>>,
        hi: impl Into<Column<f64>>,
        first_child: impl Into<Column<u32>>,
        child_count: impl Into<Column<u32>>,
        counts: impl Into<Column<f64>>,
        label: &'static str,
    ) -> Result<Self, FlatLayoutError> {
        let (lo, hi) = (lo.into(), hi.into());
        let (first_child, child_count) = (first_child.into(), child_count.into());
        let counts = counts.into();
        let n = counts.len();
        if n == 0 {
            return Err(FlatLayoutError::Empty);
        }
        if dims == 0 || dims > crate::MAX_DIMS {
            return Err(FlatLayoutError::BadDims { dims });
        }
        for (array, found) in [("lo", lo.len()), ("hi", hi.len())] {
            if found != n * dims {
                return Err(FlatLayoutError::LengthMismatch {
                    array,
                    expected: n * dims,
                    found,
                });
            }
        }
        for (array, found) in [
            ("first_child", first_child.len()),
            ("child_count", child_count.len()),
        ] {
            if found != n {
                return Err(FlatLayoutError::LengthMismatch {
                    array,
                    expected: n,
                    found,
                });
            }
        }
        for i in 0..n {
            let ok = (0..dims).all(|k| {
                let (a, b) = (lo[i * dims + k], hi[i * dims + k]);
                a.is_finite() && b.is_finite() && a <= b
            });
            if !ok {
                return Err(FlatLayoutError::BadGeometry { node: i });
            }
        }
        // the child ranges of internal nodes, sorted by range start, must
        // tile [1, n) exactly, and each must start after its parent —
        // together that makes every node reachable from the root with no
        // cycles, which is all the iterative traversals assume
        let mut internal: Vec<usize> = (0..n).filter(|&i| child_count[i] > 0).collect();
        internal.sort_unstable_by_key(|&i| first_child[i]);
        let mut next = 1u64;
        for &i in &internal {
            let (first, kids) = (first_child[i] as u64, child_count[i] as u64);
            if first != next {
                return Err(FlatLayoutError::BadChildRange {
                    node: i,
                    reason: format!("children start at {first}, expected {next}"),
                });
            }
            if first <= i as u64 {
                return Err(FlatLayoutError::BadChildRange {
                    node: i,
                    reason: "parent appears after its children".into(),
                });
            }
            next = first + kids;
            if next > n as u64 {
                return Err(FlatLayoutError::BadChildRange {
                    node: i,
                    reason: format!("child range ends at {next}, past the {n}-node arena"),
                });
            }
        }
        if next != n as u64 {
            return Err(FlatLayoutError::BadChildRange {
                node: 0,
                reason: format!("child ranges cover nodes 1..{next}, arena holds {n}"),
            });
        }
        for i in 0..n {
            if child_count[i] == 0 && first_child[i] != 0 {
                return Err(FlatLayoutError::BadChildRange {
                    node: i,
                    reason: "leaf with a non-zero first_child".into(),
                });
            }
        }
        Ok(Self {
            dims,
            lo,
            hi,
            first_child,
            child_count,
            counts,
            label,
        })
    }

    /// Reconstruct the pointer-walk synopsis (exact inverse of
    /// [`FrozenSynopsis::freeze`], same arena order).
    pub fn thaw(&self) -> SpatialSynopsis {
        let rect_of = |i: usize| Rect::new(self.node_lo(i), self.node_hi(i));
        let mut tree = Tree::with_root(rect_of(0));
        // child blocks are appended in ascending first_child order, which
        // reproduces the original arena layout exactly
        let mut internal: Vec<usize> = (0..self.node_count())
            .filter(|&i| self.child_count[i] > 0)
            .collect();
        internal.sort_unstable_by_key(|&i| self.first_child[i]);
        for parent in internal {
            let first = self.first_child[parent] as usize;
            let count = self.child_count[parent] as usize;
            let children: Vec<Rect> = (first..first + count).map(rect_of).collect();
            let ids = tree.add_children(NodeId::from_index(parent), children);
            assert_eq!(
                ids.first().map(|id| id.index()),
                Some(first),
                "frozen child ranges are not a valid arena layout"
            );
        }
        SpatialSynopsis::from_parts(tree, self.counts.to_vec(), self.label)
    }

    /// Case 1 vs case 2 vs cases 3/4 of the Section 2.2 traversal for
    /// node `i` against the query box, monomorphized on the
    /// dimensionality so the per-dimension compares unroll (this
    /// predicate runs once per visited node — it is *the* hot
    /// instruction stream of every read engine). This predicate (and
    /// [`FrozenSynopsis::leaf_contribution_d`]) is the single copy of
    /// the float-critical per-node logic: the frozen walk and the grid's
    /// anchored walks both build on it, so their bit-identity contracts
    /// cannot drift apart.
    #[inline]
    pub(crate) fn classify_d<const D: usize>(&self, i: usize, qlo: &[f64], qhi: &[f64]) -> Overlap {
        debug_assert_eq!(self.dims, D);
        let nlo = &self.lo[i * D..(i + 1) * D];
        let nhi = &self.hi[i * D..(i + 1) * D];
        // case 1: disjoint (shared edges do not overlap)
        if (0..D).any(|k| nlo[k] >= qhi[k] || qlo[k] >= nhi[k]) {
            return Overlap::Disjoint;
        }
        // case 2: node fully inside the query
        if (0..D).all(|k| nlo[k] >= qlo[k] && nhi[k] <= qhi[k]) {
            return Overlap::Contained;
        }
        Overlap::Partial
    }

    /// Case 4: the uniform-assumption contribution of a partially
    /// overlapped leaf, or `None` for a degenerate (zero-volume) box;
    /// monomorphized like [`FrozenSynopsis::classify_d`].
    #[inline]
    pub(crate) fn leaf_contribution_d<const D: usize>(
        &self,
        i: usize,
        qlo: &[f64],
        qhi: &[f64],
    ) -> Option<f64> {
        debug_assert_eq!(self.dims, D);
        let nlo = &self.lo[i * D..(i + 1) * D];
        let nhi = &self.hi[i * D..(i + 1) * D];
        let mut volume = 1.0;
        let mut overlap = 1.0;
        for k in 0..D {
            volume *= nhi[k] - nlo[k];
            overlap *= nhi[k].min(qhi[k]) - nlo[k].max(qlo[k]);
        }
        (volume > 0.0).then(|| self.counts[i] * overlap / volume)
    }

    /// The Section 2.2 traversal over the flat arrays, with a
    /// caller-provided stack so batches allocate nothing per query, and a
    /// caller-provided starting accumulator. The carried accumulator is
    /// what lets [`crate::sharded::ShardedSynopsis`] chain its shard
    /// descents into one walk: every contribution is applied with `+=`
    /// in the order the walk of the grafted tree applies it.
    pub(crate) fn accumulate(&self, q: &Rect, stack: &mut Vec<u32>, init: f64) -> f64 {
        debug_assert_eq!(q.dims(), self.dims);
        self.accumulate_span(0, q.lo(), q.hi(), stack, init)
    }

    /// [`FrozenSynopsis::accumulate`] generalized to an **anchored
    /// entry**: the traversal starts at arena node `start` instead of the
    /// root, and the query box arrives as raw `lo`/`hi` spans (the
    /// grid-routed shell walk synthesizes per-cell boxes without paying
    /// [`Rect::new`]'s validation).
    ///
    /// When `start` is an *anchor* of a cell — the deepest node whose box
    /// fully covers it, with every off-path sibling disjoint from the
    /// cell (see [`crate::grid_route`]) — this is **bit-identical** to
    /// `accumulate_span(0, ...)` for any query box inside the cell:
    /// every skipped ancestor classifies as `Partial` (contributing
    /// nothing) and every skipped sibling as `Disjoint`, so the `+=`
    /// sequence is exactly the root traversal's.
    pub(crate) fn accumulate_span(
        &self,
        start: u32,
        qlo: &[f64],
        qhi: &[f64],
        stack: &mut Vec<u32>,
        init: f64,
    ) -> f64 {
        dispatch_dims!(self.dims, D => self.accumulate_span_d::<D>(start, qlo, qhi, stack, init))
    }

    /// [`FrozenSynopsis::accumulate_span`] monomorphized on the
    /// dimensionality (same walk, unrolled per-node compares).
    pub(crate) fn accumulate_span_d<const D: usize>(
        &self,
        start: u32,
        qlo: &[f64],
        qhi: &[f64],
        stack: &mut Vec<u32>,
        init: f64,
    ) -> f64 {
        let mut acc = init;
        stack.clear();
        stack.push(start);
        while let Some(v) = stack.pop() {
            let i = v as usize;
            match self.classify_d::<D>(i, qlo, qhi) {
                Overlap::Disjoint => {}
                Overlap::Contained => acc += self.counts[i],
                Overlap::Partial => {
                    let children = self.child_count[i];
                    if children > 0 {
                        // case 3: partial overlap, internal — visit
                        // children in arena order (pushed reversed so
                        // they pop in order, keeping the summation order
                        // of the tree walk)
                        let first = self.first_child[i];
                        for c in (first..first + children).rev() {
                            stack.push(c);
                        }
                    } else if let Some(c) = self.leaf_contribution_d::<D>(i, qlo, qhi) {
                        acc += c;
                    }
                }
            }
        }
        acc
    }

    /// Answer `q` with the traversal entered at arena node `start`
    /// (`start = 0` is [`RangeCountSynopsis::answer`]). This is the
    /// public face of the anchored entry the grid-routed engine uses for
    /// its boundary shell; exposed so the bit-identity contract —
    /// anchored answers equal root answers exactly when `start` covers
    /// the query — can be pinned from integration tests.
    ///
    /// Panics if `start` is out of bounds.
    pub fn answer_from(&self, start: usize, q: &RangeQuery) -> f64 {
        assert!(start < self.node_count(), "start node out of bounds");
        debug_assert_eq!(q.rect.dims(), self.dims);
        with_query_scratch(|stack| {
            self.accumulate_span(start as u32, q.rect.lo(), q.rect.hi(), stack, 0.0)
        })
    }

    /// Answer a workload on the calling thread with one reused traversal
    /// stack. This is the single-worker reference the pooled path is
    /// property-tested against.
    pub fn answer_batch_sequential(&self, queries: &[RangeQuery]) -> Vec<f64> {
        let mut stack = Vec::with_capacity(64);
        queries
            .iter()
            .map(|q| self.accumulate(&q.rect, &mut stack, 0.0))
            .collect()
    }

    /// Answer a workload chunked across `pool`, one traversal stack per
    /// chunk (so a worker allocates once per chunk, not per query).
    /// Results come back in input order and each query is computed by
    /// exactly the same float operations as the sequential path, so the
    /// output is bit-identical to [`FrozenSynopsis::answer_batch_sequential`]
    /// for every worker count.
    pub fn answer_batch_with_pool(&self, queries: &[RangeQuery], pool: &WorkerPool) -> Vec<f64> {
        dispatch_batch(queries, pool, |chunk| self.answer_batch_sequential(chunk))
    }
}

impl RangeCountSynopsis for FrozenSynopsis {
    fn answer(&self, q: &RangeQuery) -> f64 {
        with_query_scratch(|stack| self.accumulate(&q.rect, stack, 0.0))
    }

    fn answer_batch(&self, queries: &[RangeQuery]) -> Vec<f64> {
        auto_batch(queries, |chunk| self.answer_batch_sequential(chunk))
    }

    fn label(&self) -> &'static str {
        self.label
    }
}

impl From<&SpatialSynopsis> for FrozenSynopsis {
    fn from(synopsis: &SpatialSynopsis) -> Self {
        Self::freeze(synopsis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::PointSet;
    use crate::quadtree::SplitConfig;
    use crate::synopsis::{exact_synopsis, privtree_synopsis};
    use privtree_dp::budget::Epsilon;
    use privtree_dp::rng::seeded;
    use rand::RngExt;

    fn clustered(n: usize, seed: u64) -> PointSet {
        let mut rng = seeded(seed);
        let mut ps = PointSet::new(2);
        for i in 0..n {
            if i % 7 == 0 {
                ps.push(&[rng.random::<f64>(), rng.random::<f64>()]);
            } else {
                ps.push(&[
                    0.3 + rng.random::<f64>() * 0.05,
                    0.6 + rng.random::<f64>() * 0.05,
                ]);
            }
        }
        ps
    }

    fn sample_synopsis(seed: u64) -> SpatialSynopsis {
        privtree_synopsis(
            &clustered(4000, seed),
            Rect::unit(2),
            SplitConfig::full(2),
            Epsilon::new(1.0).unwrap(),
            &mut seeded(seed),
        )
        .unwrap()
    }

    fn random_queries(n: usize, seed: u64) -> Vec<RangeQuery> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| {
                let cx = rng.random::<f64>() * 0.8;
                let cy = rng.random::<f64>() * 0.8;
                let w = 0.01 + rng.random::<f64>() * 0.2;
                RangeQuery::new(Rect::new(&[cx, cy], &[cx + w, cy + w]))
            })
            .collect()
    }

    #[test]
    fn frozen_matches_tree_walk() {
        let syn = sample_synopsis(1);
        let frozen = FrozenSynopsis::freeze(&syn);
        assert_eq!(frozen.node_count(), syn.node_count());
        for q in random_queries(200, 2) {
            let a = syn.answer(&q);
            let b = frozen.answer(&q);
            assert!((a - b).abs() < 1e-9, "tree {a} vs frozen {b} on {}", q.rect);
        }
    }

    #[test]
    fn answer_batch_matches_answer() {
        let frozen = FrozenSynopsis::freeze(&sample_synopsis(3));
        let queries = random_queries(128, 4);
        let batch = frozen.answer_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(frozen.answer(q), *b, "batch diverges on {}", q.rect);
        }
    }

    #[test]
    fn thaw_round_trips_exactly() {
        let syn = sample_synopsis(5);
        let frozen = FrozenSynopsis::freeze(&syn);
        let thawed = frozen.thaw();
        assert_eq!(thawed.node_count(), syn.node_count());
        assert_eq!(thawed.counts(), syn.counts());
        let tree_a = syn.tree();
        let tree_b = thawed.tree();
        for id in tree_a.ids() {
            assert_eq!(tree_a.payload(id), tree_b.payload(id));
            assert_eq!(tree_a.parent(id), tree_b.parent(id));
            assert_eq!(
                tree_a.children(id).collect::<Vec<_>>(),
                tree_b.children(id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn exact_synopsis_stays_exact_when_frozen() {
        let ps = clustered(3000, 9);
        let syn = exact_synopsis(&ps, Rect::unit(2), SplitConfig::full(2), 20.0, None);
        let frozen = FrozenSynopsis::freeze(&syn);
        for q in [
            Rect::new(&[0.0, 0.0], &[0.5, 0.5]),
            Rect::new(&[0.25, 0.5], &[0.5, 0.75]),
            Rect::unit(2),
        ] {
            let est = frozen.answer(&RangeQuery::new(q));
            let truth = ps.count_in(&q) as f64;
            assert!((est - truth).abs() < 1e-9, "query {q}: {est} vs {truth}");
        }
    }

    #[test]
    fn query_scratch_supports_nested_use() {
        // an engine's `answer` may consult another engine from inside the
        // scratch closure (reentrancy); the pool hands out distinct
        // stacks per nesting level instead of double-borrowing
        let frozen = FrozenSynopsis::freeze(&sample_synopsis(13));
        let q = RangeQuery::new(Rect::new(&[0.1, 0.2], &[0.6, 0.7]));
        let direct = frozen.answer(&q);
        let nested = with_query_scratch(|outer| {
            outer.push(7); // sentinel state that must survive the nested call
            let inner = frozen.answer(&q); // re-enters with_query_scratch
            assert_eq!(outer.as_slice(), &[7]);
            inner
        });
        assert_eq!(direct.to_bits(), nested.to_bits());
        // two levels deep for good measure
        let deep = with_query_scratch(|_| with_query_scratch(|_| frozen.answer(&q)));
        assert_eq!(direct.to_bits(), deep.to_bits());
    }

    #[test]
    fn answer_from_root_matches_answer() {
        let frozen = FrozenSynopsis::freeze(&sample_synopsis(17));
        for q in random_queries(50, 18) {
            assert_eq!(
                frozen.answer(&q).to_bits(),
                frozen.answer_from(0, &q).to_bits()
            );
        }
    }

    #[test]
    fn single_node_release() {
        let tree = Tree::with_root(Rect::unit(2));
        let frozen = FrozenSynopsis::from_tree(&tree, &[7.5], "tiny");
        let whole = frozen.answer(&RangeQuery::new(Rect::unit(2)));
        assert_eq!(whole, 7.5);
        let half = frozen.answer(&RangeQuery::new(Rect::new(&[0.0, 0.0], &[0.5, 1.0])));
        assert!((half - 3.75).abs() < 1e-12, "uniform scaling on the root");
        let thawed = frozen.thaw();
        assert_eq!(thawed.node_count(), 1);
    }
}
