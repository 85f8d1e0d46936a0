//! Spatial substrate and the PrivTree application to spatial data
//! (Sections 2.2, 3, and 6.1 of the paper).
//!
//! * [`geom`] — d-dimensional axis-aligned rectangles (half-open boxes).
//! * [`columns`] — owned-or-borrowed column storage ([`columns::Column`])
//!   backing the frozen arrays, so releases can be served either from
//!   process-owned `Vec`s or zero-copy from memory-mapped catalog files.
//! * [`dataset`] — flat point storage with bounding boxes.
//! * [`index`] — a bucket-grid index for *exact* range counts (ground truth
//!   for the 10,000-query workloads of Section 6.1).
//! * [`quadtree`] — the quadtree / 2^i-ary [`privtree_core::TreeDomain`]
//!   with in-place point partitioning; `RefCell`-free, `Send`, and able
//!   to split a whole frontier level as one batch fanned out across the
//!   persistent `privtree-runtime` worker pool (bit-identical to
//!   sequential for every worker count).
//! * [`query`] — range-count queries and the `answer`/`answer_batch`
//!   synopsis interface.
//! * [`frozen`] — [`frozen::FrozenSynopsis`], the read-optimized
//!   structure-of-arrays flattening of a release for serving workloads:
//!   allocation-free single queries (thread-local traversal stack) and
//!   pool-chunked batches.
//! * [`grid_route`] — [`grid_route::CellGrid`], the grid-routed
//!   accelerator for a frozen arena: a dense uniform cell grid (per-cell
//!   anchors + summed-area table of exact cell contributions) answers
//!   the interior of a query in O(2^d) lookups. The boundary shell is
//!   face lookups plus anchored walks: each face answers its
//!   leaf-anchored cells from a per-dimension prefix table in
//!   O(2^(d−1)) lookups and walks its runs of internal-anchored cells
//!   from their anchors; cells cut along two or more dimensions take
//!   short cell-anchored traversals.
//! * [`sharded`] — [`sharded::ShardedSynopsis`], multi-arena serving with
//!   domain-based query routing: one frozen arena per epoch/region shard
//!   (or per cut subtree of one release, answering bit-identically to the
//!   unsharded arena), each shard descent grid-routed when its
//!   [`sharded::ShardHandle`] carries a grid. It is the one gridded
//!   engine; a single gridded release serves as a one-shard synopsis.
//! * [`serialize`] — the plain-text release format:
//!   [`serialize::release_to_text`]/[`serialize::release_from_text`]
//!   write and read an arena plus its optional cell grid.
//! * [`synopsis`] — private spatial synopses: PrivTree + noisy leaf counts
//!   (Section 3.4) or SimpleTree with its own per-node counts, answered
//!   with the 4-case top-down traversal of Section 2.2.

pub mod columns;
pub mod dataset;
pub mod frozen;
pub mod geom;
pub mod grid_route;
pub mod index;
pub mod quadtree;
pub mod query;
pub mod serialize;
pub mod sharded;
pub mod synopsis;

pub use columns::{Column, ColumnError, ColumnScalar, StableBytes};
pub use dataset::PointSet;
pub use frozen::{FlatLayoutError, FrozenSynopsis};
pub use geom::Rect;
pub use grid_route::{CellGrid, GridRouteError};
pub use index::GridIndex;
pub use quadtree::{QuadDomain, QuadNode, SplitConfig};
pub use query::{RangeCountSynopsis, RangeQuery};
pub use sharded::{ShardError, ShardHandle, ShardedSynopsis};
pub use synopsis::{exact_synopsis, privtree_synopsis, simple_tree_synopsis, SpatialSynopsis};

/// Maximum supported dimensionality (the paper's datasets are 2-d and 4-d;
/// fixed-size arrays keep geometry allocation-free).
pub const MAX_DIMS: usize = 8;
