//! Grid-routed frozen serving: cell-anchored traversals plus
//! summed-area interior counts.
//!
//! [`crate::frozen::FrozenSynopsis`] answers every query with a full
//! root-to-leaf traversal. That is already allocation-free, but on a
//! single core the only way to serve more queries per second is to walk
//! *fewer nodes per query*. [`GridRoutedSynopsis`] precomputes, once at
//! freeze time, a dense uniform grid over the release's root box; each
//! cell of the [`CellGrid`] stores
//!
//! * an **anchor** — the arena index of the deepest frozen node whose
//!   box fully covers the cell, so traversals for queries inside the
//!   cell can start mid-tree instead of at the root; and
//! * the **exact Section 2.2 contribution of the whole decomposition
//!   restricted to that cell** (the traversal answer for the cell box),
//!   aggregated into a d-dimensional summed-area table.
//!
//! A query then splits into an **interior block** — the cells it covers
//! completely, resolved in `O(2^d)` summed-area lookups — plus a thin
//! **boundary shell** of partially covered cells, each answered by a
//! short anchored traversal over `q ∩ cell` that reuses the frozen
//! engine's `classify`/`leaf_contribution`/carried-accumulator walk.
//!
//! # Why the answers match the tree walk
//!
//! Splitting `q` into per-cell pieces changes *which* nodes the
//! traversal takes whole: a node fully inside `q` contributes its
//! released count in one piece, while the cell-restricted walks sum its
//! leaves. Those agree exactly when every internal count equals the sum
//! of its children — which PrivTree releases guarantee by construction
//! (Section 3.4 step 3 sets each internal node to the sum of the noisy
//! leaf counts below it). [`CellGrid::build`] therefore **verifies
//! consistency** and refuses inconsistent releases (e.g. SimpleTree,
//! whose per-node counts are independently noisy) with
//! [`GridRouteError::InconsistentCounts`]; for accepted releases the
//! grid-routed answer equals the plain frozen traversal to float
//! reassociation error (≪ 1e-9 relative, property-tested in
//! `tests/grid_routed.rs`).
//!
//! The boundary shell is stronger than "numerically equal": an anchored
//! traversal is **bit-identical** to the root traversal of the same
//! `q ∩ cell` box. The anchor descent only steps from a node to a child
//! when the child's box covers the cell *and every other sibling is
//! disjoint from it*, so in the root walk each skipped ancestor
//! classifies `Partial` (contributing nothing) and each skipped sibling
//! `Disjoint` — the `+=` sequence is exactly the anchored one
//! ([`FrozenSynopsis::answer_from`] pins this from integration tests).

use privtree_runtime::WorkerPool;

use crate::columns::Column;
use crate::frozen::{auto_batch, dispatch_batch, with_query_scratch, FrozenSynopsis};
use crate::geom::Rect;
use crate::query::{RangeCountSynopsis, RangeQuery};
use crate::MAX_DIMS;

/// Why a grid could not be attached to a release.
#[derive(Debug, Clone, PartialEq)]
pub enum GridRouteError {
    /// The requested resolution is unusable (wrong dimensionality, zero
    /// bins, or more cells than the build is willing to materialize).
    BadResolution(String),
    /// The release's root box has a zero-length side, so no uniform grid
    /// over it can distinguish cells.
    DegenerateDomain { dim: usize },
    /// An internal node's released count differs from the sum of its
    /// children beyond float tolerance, so cell-decomposed answers would
    /// not match the plain traversal (SimpleTree releases look like
    /// this; PrivTree releases are consistent by construction).
    InconsistentCounts { node: usize, deviation: f64 },
}

impl std::fmt::Display for GridRouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridRouteError::BadResolution(reason) => {
                write!(f, "bad grid resolution: {reason}")
            }
            GridRouteError::DegenerateDomain { dim } => {
                write!(f, "root box has zero length along dimension {dim}")
            }
            GridRouteError::InconsistentCounts { node, deviation } => write!(
                f,
                "node {node}'s count differs from its children's sum by {deviation:e}; \
                 grid routing requires consistent counts"
            ),
        }
    }
}

impl std::error::Error for GridRouteError {}

/// Hard cap on materialized cells. A cell costs 36 bytes (see
/// [`CellGrid::memory_bytes`]), so this bounds a grid at ≈151 MB.
const MAX_CELLS: usize = 1 << 22;

/// Relative tolerance for the parent-equals-children consistency check.
/// Legitimate releases only deviate by float reassociation (≪ 1e-12);
/// independently noised per-node counts deviate by the noise scale.
const CONSISTENCY_TOL: f64 = 1e-9;

/// The uniform grid's geometry: the release's root box cut into
/// `bins[k]` half-open slabs per dimension.
#[derive(Debug, Clone)]
struct Geometry {
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Reciprocal cell widths (seed the boundary search without a
    /// division; exactness never depends on them — the canonical
    /// `bounds` comparisons correct the estimate).
    inv_width: Vec<f64>,
    bins: Vec<usize>,
    /// Row-major strides over `bins` (dimension 0 slowest).
    strides: Vec<usize>,
    /// Precomputed cell boundaries, all dimensions flattened
    /// (`bins[k] + 1` values per dimension starting at `bounds_off[k]`):
    /// the first and last boundaries are pinned to the domain edges and
    /// interior ones clamped, so consecutive cells share one bit-exact
    /// boundary value and together tile the domain without gaps or
    /// overlap.
    bounds: Vec<f64>,
    bounds_off: Vec<usize>,
}

impl Geometry {
    fn new(lo: Vec<f64>, hi: Vec<f64>, width: Vec<f64>, bins: Vec<usize>) -> Self {
        let d = bins.len();
        let inv_width: Vec<f64> = width.iter().map(|w| 1.0 / w).collect();
        let mut strides = vec![1usize; d];
        for k in (0..d.saturating_sub(1)).rev() {
            strides[k] = strides[k + 1] * bins[k + 1];
        }
        let mut bounds = Vec::with_capacity(bins.iter().map(|b| b + 1).sum());
        let mut bounds_off = Vec::with_capacity(d);
        for k in 0..d {
            bounds_off.push(bounds.len());
            bounds.push(lo[k]);
            for c in 1..bins[k] {
                bounds.push((lo[k] + width[k] * c as f64).min(hi[k]));
            }
            bounds.push(hi[k]);
        }
        Self {
            lo,
            hi,
            inv_width,
            bins,
            strides,
            bounds,
            bounds_off,
        }
    }

    /// The `c`-th cell boundary along dimension `k`, for `c` in
    /// `0..=bins[k]`.
    #[inline]
    fn boundary(&self, k: usize, c: usize) -> f64 {
        self.bounds[self.bounds_off[k] + c]
    }

    fn dims(&self) -> usize {
        self.bins.len()
    }

    fn cells(&self) -> usize {
        self.bins.iter().product()
    }

    fn decode(&self, idx: usize, coord: &mut [usize]) {
        let mut rem = idx;
        for (k, c) in coord.iter_mut().enumerate().take(self.dims()) {
            *c = rem / self.strides[k];
            rem %= self.strides[k];
        }
    }
}

/// The precomputed routing structure for one frozen arena: per-cell
/// anchors, per-cell exact contributions, and their summed-area table.
/// Held by [`GridRoutedSynopsis`] (one release) and by
/// [`crate::sharded::ShardedSynopsis`] (one grid per shard arena).
#[derive(Debug, Clone)]
pub struct CellGrid {
    geo: Geometry,
    /// Per cell (row-major): arena index of the deepest node whose box
    /// fully covers the cell.
    anchors: Column<u32>,
    /// Per cell: the decomposition's exact traversal answer for the cell
    /// box (kept alongside the table so serialization round-trips
    /// bit-exactly).
    values: Column<f64>,
    /// Per cell (row-major): the anchor's released count when the anchor
    /// is a leaf with positive volume, else unused. With `leaf_vol`,
    /// this keeps the leaf fast path entirely inside grid-local arrays —
    /// no node-array loads. (A degenerate zero-volume leaf stores
    /// count 0 / volume 1, reproducing its zero contribution.)
    leaf_count: Vec<f64>,
    /// Per cell (row-major): the anchor's box volume when the anchor is
    /// a leaf — computed by the exact multiply order of
    /// `leaf_contribution`, and stored as its *negated reciprocal* when
    /// the volume is a power of two (multiplying by the exact reciprocal
    /// is then bit-identical to dividing) — or `0.0` as the "anchor is
    /// internal, take the walk path" sentinel.
    leaf_vol: Vec<f64>,
    /// Padded inclusive prefix sums of `values`, shape `bins[k] + 1`.
    sat: Vec<f64>,
    sat_strides: Vec<usize>,
}

impl CellGrid {
    /// Precompute a grid of `bins[k]` cells per dimension over
    /// `frozen`'s root box. Cell anchors and values are computed in one
    /// pass, chunked across `pool` when given (pure per-cell work, so
    /// the result is identical for every worker count).
    pub fn build(
        frozen: &FrozenSynopsis,
        bins: &[usize],
        pool: Option<&WorkerPool>,
    ) -> Result<Self, GridRouteError> {
        let geo = Self::geometry(frozen, bins)?;
        check_consistency(frozen)?;
        let cells = geo.cells();
        let d = geo.dims();
        let work = |r: std::ops::Range<usize>| -> Vec<(u32, f64)> {
            let mut stack = Vec::with_capacity(64);
            let mut coord = [0usize; MAX_DIMS];
            let mut clo = [0.0f64; MAX_DIMS];
            let mut chi = [0.0f64; MAX_DIMS];
            r.map(|idx| {
                geo.decode(idx, &mut coord);
                for k in 0..d {
                    clo[k] = geo.boundary(k, coord[k]);
                    chi[k] = geo.boundary(k, coord[k] + 1);
                }
                let anchor = anchor_of_cell(frozen, &clo[..d], &chi[..d]);
                let value = frozen.accumulate_span(anchor, &clo[..d], &chi[..d], &mut stack, 0.0);
                (anchor, value)
            })
            .collect()
        };
        let per_cell = match pool {
            Some(pool) => pool.map_chunks(cells, pool.workers() * 4, work),
            None => work(0..cells),
        };
        let (anchors, values): (Vec<u32>, Vec<f64>) = per_cell.into_iter().unzip();
        Ok(Self::assemble(frozen, geo, anchors.into(), values.into()))
    }

    /// Re-assemble a grid from persisted parts, validating that the
    /// anchors are plausible (in range and covering their cells). The
    /// summed-area table is rebuilt deterministically from `values`, so
    /// a deserialized grid answers bit-identically to the one that was
    /// serialized. This is the entry point for every release loader
    /// (text and binary alike). The columns may be owned `Vec`s or
    /// [`Column`]s borrowing a mapped release file.
    pub fn from_parts(
        frozen: &FrozenSynopsis,
        bins: &[usize],
        anchors: impl Into<Column<u32>>,
        values: impl Into<Column<f64>>,
    ) -> Result<Self, GridRouteError> {
        let (anchors, values) = (anchors.into(), values.into());
        let geo = Self::geometry(frozen, bins)?;
        check_consistency(frozen)?;
        let cells = geo.cells();
        if anchors.len() != cells || values.len() != cells {
            return Err(GridRouteError::BadResolution(format!(
                "expected {cells} cells, got {} anchors / {} values",
                anchors.len(),
                values.len()
            )));
        }
        let d = geo.dims();
        let mut coord = [0usize; MAX_DIMS];
        for (idx, &a) in anchors.iter().enumerate() {
            if (a as usize) >= frozen.node_count() {
                return Err(GridRouteError::BadResolution(format!(
                    "cell {idx} anchor {a} out of range"
                )));
            }
            geo.decode(idx, &mut coord);
            let (nlo, nhi) = (frozen.node_lo(a as usize), frozen.node_hi(a as usize));
            for k in 0..d {
                if nlo[k] > geo.boundary(k, coord[k]) || nhi[k] < geo.boundary(k, coord[k] + 1) {
                    return Err(GridRouteError::BadResolution(format!(
                        "cell {idx} anchor {a} does not cover the cell"
                    )));
                }
            }
        }
        Ok(Self::assemble(frozen, geo, anchors, values))
    }

    fn geometry(frozen: &FrozenSynopsis, bins: &[usize]) -> Result<Geometry, GridRouteError> {
        let d = frozen.dims();
        if bins.len() != d || bins.contains(&0) {
            return Err(GridRouteError::BadResolution(format!(
                "need {d} non-zero bin counts, got {bins:?}"
            )));
        }
        let cells = bins.iter().try_fold(1usize, |acc, &b| {
            acc.checked_mul(b).filter(|&c| c <= MAX_CELLS)
        });
        if cells.is_none() {
            return Err(GridRouteError::BadResolution(format!(
                "{bins:?} exceeds the {MAX_CELLS}-cell cap"
            )));
        }
        let lo = frozen.node_lo(0).to_vec();
        let hi = frozen.node_hi(0).to_vec();
        let mut width = Vec::with_capacity(d);
        for k in 0..d {
            let side = hi[k] - lo[k];
            if side <= 0.0 {
                return Err(GridRouteError::DegenerateDomain { dim: k });
            }
            width.push(side / bins[k] as f64);
        }
        Ok(Geometry::new(lo, hi, width, bins.to_vec()))
    }

    fn assemble(
        frozen: &FrozenSynopsis,
        geo: Geometry,
        anchors: Column<u32>,
        values: Column<f64>,
    ) -> Self {
        let (sat, sat_strides) = build_sat(&geo.bins, &values);
        let d = geo.dims();
        let mut leaf_count = vec![0.0f64; anchors.len()];
        let mut leaf_vol = vec![0.0f64; anchors.len()];
        for (idx, &a) in anchors.iter().enumerate() {
            let a = a as usize;
            if frozen.child_count()[a] == 0 {
                // the exact volume product of `leaf_contribution`
                let (nlo, nhi) = (frozen.node_lo(a), frozen.node_hi(a));
                let mut vol = 1.0;
                for k in 0..d {
                    vol *= nhi[k] - nlo[k];
                }
                if vol > 0.0 {
                    leaf_count[idx] = frozen.counts()[a];
                    // a power-of-two volume (every leaf of a bisection
                    // tree over a power-of-two domain) divides by exact
                    // exponent scaling, so multiplying by the exact
                    // reciprocal is bit-identical to dividing — store
                    // the negated reciprocal as the multiply-path marker
                    let inv = 1.0 / vol;
                    let pow2 = vol.to_bits() & ((1u64 << 52) - 1) == 0;
                    if pow2 && inv.is_finite() && inv > 0.0 {
                        leaf_vol[idx] = -inv;
                    } else {
                        leaf_vol[idx] = vol;
                    }
                } else {
                    leaf_count[idx] = 0.0;
                    leaf_vol[idx] = -1.0; // degenerate leaf: contributes 0
                }
            }
        }
        Self {
            geo,
            anchors,
            values,
            leaf_count,
            leaf_vol,
            sat,
            sat_strides,
        }
    }

    /// Cells per dimension.
    pub fn bins(&self) -> &[usize] {
        &self.geo.bins
    }

    /// Total number of cells.
    pub fn cells(&self) -> usize {
        self.values.len()
    }

    /// Per-cell anchors, row-major (dimension 0 slowest).
    pub fn anchors(&self) -> &[u32] {
        &self.anchors
    }

    /// Per-cell exact traversal contributions, row-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Arena index anchoring the cell at `coord`.
    pub fn anchor_at(&self, coord: &[usize]) -> u32 {
        self.anchors[self.cell_index(coord)]
    }

    /// Geometry of the cell at `coord`.
    pub fn cell_rect(&self, coord: &[usize]) -> Rect {
        let d = self.geo.dims();
        assert_eq!(coord.len(), d);
        let mut lo = [0.0f64; MAX_DIMS];
        let mut hi = [0.0f64; MAX_DIMS];
        for k in 0..d {
            assert!(coord[k] < self.geo.bins[k], "cell coordinate out of range");
            lo[k] = self.geo.boundary(k, coord[k]);
            hi[k] = self.geo.boundary(k, coord[k] + 1);
        }
        Rect::new(&lo[..d], &hi[..d])
    }

    /// Bytes of precomputed routing state — the memory the accelerator
    /// costs on top of the frozen arena. Per cell that is a `u32` anchor
    /// and four `f64`s (value, leaf count, leaf volume, and one entry of
    /// the summed-area table, which is padded to `Π(bins[k] + 1)`
    /// entries): 36 bytes.
    pub fn memory_bytes(&self) -> usize {
        self.anchors.len() * std::mem::size_of::<u32>()
            + (self.values.len() + self.leaf_count.len() + self.leaf_vol.len() + self.sat.len())
                * std::mem::size_of::<f64>()
    }

    fn cell_index(&self, coord: &[usize]) -> usize {
        assert_eq!(coord.len(), self.geo.dims());
        coord
            .iter()
            .zip(&self.geo.bins)
            .fold(0usize, |acc, (&c, &b)| {
                assert!(c < b, "cell coordinate out of range");
                acc * b + c
            })
    }

    /// Sum of cell values over the block `[a, b)` via the summed-area
    /// table: `O(2^d)` lookups with inclusion–exclusion signs, with the
    /// dimensionality known at compile time.
    fn block_sum_d<const D: usize>(&self, a: &[usize], b: &[usize]) -> f64 {
        let mut total = 0.0;
        for mask in 0..(1usize << D) {
            let mut off = 0usize;
            let mut sign = 1.0;
            for k in 0..D {
                let idx = if (mask >> k) & 1 == 1 {
                    sign = -sign;
                    a[k]
                } else {
                    b[k]
                };
                off += idx * self.sat_strides[k];
            }
            total += sign * self.sat[off];
        }
        total
    }

    /// The grid-routed answer for the query span `[qlo, qhi)` against
    /// `frozen` (the arena this grid was built for), added onto `init`:
    /// summed-area interior block plus anchored boundary-shell
    /// traversals. Falls back to the plain traversal for degenerate
    /// queries (zero volume) and whole-domain queries, where the plain
    /// walk is already exact and O(1)-ish.
    pub(crate) fn answer_span(
        &self,
        frozen: &FrozenSynopsis,
        qlo: &[f64],
        qhi: &[f64],
        stack: &mut Vec<u32>,
        init: f64,
    ) -> f64 {
        debug_assert_eq!(qlo.len(), self.geo.dims());
        debug_assert_eq!(qhi.len(), self.geo.dims());
        // monomorphize on the dimensionality: the hot loops over `0..d`
        // unroll, which matters at shell-piece granularity. Every
        // instantiation runs the same float operations in the same
        // order, so answers do not depend on which one dispatches.
        crate::frozen::dispatch_dims!(
            self.geo.dims(),
            D => self.answer_span_d::<D>(frozen, qlo, qhi, stack, init)
        )
    }

    fn answer_span_d<const D: usize>(
        &self,
        frozen: &FrozenSynopsis,
        qlo: &[f64],
        qhi: &[f64],
        stack: &mut Vec<u32>,
        init: f64,
    ) -> f64 {
        let d = D;
        let mut degenerate = false;
        let mut covers_all = true;
        for k in 0..d {
            // same predicate as the root's `classify`: disjoint queries
            // contribute nothing
            if qlo[k] >= self.geo.hi[k] || qhi[k] <= self.geo.lo[k] {
                return init;
            }
            degenerate |= qlo[k] >= qhi[k];
            covers_all &= qlo[k] <= self.geo.lo[k] && qhi[k] >= self.geo.hi[k];
        }
        if degenerate || covers_all {
            return frozen.accumulate_span(0, qlo, qhi, stack, init);
        }

        // per-dimension overlapping cell range [lo_c, hi_c] (inclusive)
        // and whether the extreme cells are only partially covered
        let mut lo_c = [0usize; D];
        let mut hi_c = [0usize; D];
        let mut partial_lo = [false; D];
        let mut partial_hi = [false; D];
        let mut int_lo = [0usize; D];
        let mut int_hi = [0usize; D];
        let mut interior_nonempty = true;
        for k in 0..d {
            let b = self.geo.bins[k];
            let inv_w = self.geo.inv_width[k];
            let qlo_clip = qlo[k].max(self.geo.lo[k]);
            let qhi_clip = qhi[k].min(self.geo.hi[k]);
            // largest a with boundary(a) <= qlo_clip (float estimate,
            // then fix up against the canonical boundaries)
            let mut a = ((((qlo_clip - self.geo.lo[k]) * inv_w) as isize).clamp(0, b as isize - 1))
                as usize;
            while a + 1 < b && self.geo.boundary(k, a + 1) <= qlo_clip {
                a += 1;
            }
            while a > 0 && self.geo.boundary(k, a) > qlo_clip {
                a -= 1;
            }
            // smallest hb with boundary(hb + 1) >= qhi_clip
            let mut hb = (((((qhi_clip - self.geo.lo[k]) * inv_w).ceil() as isize) - 1)
                .clamp(0, b as isize - 1)) as usize;
            while hb + 1 < b && self.geo.boundary(k, hb + 1) < qhi_clip {
                hb += 1;
            }
            while hb > 0 && self.geo.boundary(k, hb) >= qhi_clip {
                hb -= 1;
            }
            debug_assert!(a <= hb, "inverted cell range");
            lo_c[k] = a;
            hi_c[k] = hb;
            partial_lo[k] = qlo[k] > self.geo.boundary(k, a);
            partial_hi[k] = qhi[k] < self.geo.boundary(k, hb + 1);
            int_lo[k] = a + partial_lo[k] as usize;
            let hi_excl = hb + 1 - partial_hi[k] as usize;
            if hi_excl <= int_lo[k] {
                interior_nonempty = false;
                int_hi[k] = int_lo[k];
            } else {
                int_hi[k] = hi_excl;
            }
        }

        // interior block: cells fully covered along every dimension
        let mut acc = init;
        if interior_nonempty {
            acc += self.block_sum_d::<D>(&int_lo[..d], &int_hi[..d]);
        }

        // boundary shell, partitioned by the first dimension where a
        // cell sits at a partial edge: dimensions before it stay in the
        // interior range, dimensions after it roam the full overlap
        // range (each shell cell is covered exactly once). Along the
        // innermost roaming dimension, consecutive cells sharing one
        // anchor are **merged into a single anchored traversal** over
        // their union (the anchor covers each cell, hence the union) —
        // this is what makes shell work track the *local* tree scale: a
        // coarse leaf spanning thirty cells costs one contribution, not
        // thirty.
        let anchors: &[u32] = &self.anchors;
        let mut coord = [0usize; D];
        let mut start = [0usize; D];
        let mut end = [0usize; D];
        let mut rlo = [0.0f64; D];
        let mut rhi = [0.0f64; D];
        for k in 0..d {
            let mut edges = [0usize; 2];
            let mut n_edges = 0;
            if partial_lo[k] {
                edges[n_edges] = lo_c[k];
                n_edges += 1;
            }
            if partial_hi[k] && (hi_c[k] != lo_c[k] || !partial_lo[k]) {
                edges[n_edges] = hi_c[k];
                n_edges += 1;
            }
            // innermost roaming dimension (none when d == 1)
            let run_dim = (0..d).rev().find(|&j| j != k);
            'edges: for &e in &edges[..n_edges] {
                coord[k] = e;
                rlo[k] = qlo[k].max(self.geo.boundary(k, e));
                rhi[k] = qhi[k].min(self.geo.boundary(k, e + 1)).max(rlo[k]);
                for j in 0..d {
                    if j == k {
                        continue;
                    }
                    let (s, t) = if j < k {
                        (int_lo[j], int_hi[j])
                    } else {
                        (lo_c[j], hi_c[j] + 1)
                    };
                    if s >= t {
                        continue 'edges; // an earlier dimension has no interior cells
                    }
                    start[j] = s;
                    end[j] = t;
                    coord[j] = s;
                }
                let Some(run_dim) = run_dim else {
                    // d == 1: the edge is a single cell
                    let anchor = anchors[e];
                    acc = self.shell_piece::<D>(frozen, anchor, &rlo[..d], &rhi[..d], stack, acc);
                    continue 'edges;
                };
                let run_stride = self.geo.strides[run_dim];
                'rows: loop {
                    // one contiguous run of cells along run_dim
                    let mut row_base = 0usize;
                    for j in 0..d {
                        if j != run_dim {
                            row_base += coord[j] * self.geo.strides[j];
                            if j != k {
                                rlo[j] = qlo[j].max(self.geo.boundary(j, coord[j]));
                                rhi[j] = qhi[j].min(self.geo.boundary(j, coord[j] + 1)).max(rlo[j]);
                            }
                        }
                    }
                    let t = end[run_dim];
                    let mut j0 = start[run_dim];
                    while j0 < t {
                        let idx = row_base + j0 * run_stride;
                        let anchor = anchors[idx];
                        let mut j1 = j0 + 1;
                        while j1 < t && anchors[row_base + j1 * run_stride] == anchor {
                            j1 += 1;
                        }
                        rlo[run_dim] = qlo[run_dim].max(self.geo.boundary(run_dim, j0));
                        rhi[run_dim] = qhi[run_dim]
                            .min(self.geo.boundary(run_dim, j1))
                            .max(rlo[run_dim]);
                        let lv = self.leaf_vol[idx];
                        if lv != 0.0 {
                            // leaf anchor with positive volume: r ⊆ anchor
                            // (the anchor covers the whole run box), so
                            // `leaf_contribution`'s overlap product
                            // collapses to |r| bitwise, and count/volume
                            // come from the precomputed grid-local arrays
                            // — no node-array loads at all. A zero-width
                            // r adds a signed zero where the walk adds
                            // nothing; values agree exactly either way.
                            let mut o = 1.0;
                            for j in 0..d {
                                o *= rhi[j] - rlo[j];
                            }
                            let c = self.leaf_count[idx] * o;
                            acc += if lv < 0.0 { c * (-lv) } else { c / lv };
                        } else {
                            // leaf_vol == 0.0 is the "internal anchor"
                            // sentinel (degenerate leaves store volume 1
                            // with count 0 and stay on the fast path)
                            debug_assert!(frozen.child_count()[anchor as usize] > 0);
                            acc = frozen.accumulate_span_d::<D>(
                                anchor,
                                &rlo[..d],
                                &rhi[..d],
                                stack,
                                acc,
                            );
                        }
                        j0 = j1;
                    }
                    // advance the odometer over dimensions != k, != run_dim
                    let mut j = d;
                    loop {
                        if j == 0 {
                            break 'rows;
                        }
                        j -= 1;
                        if j == k || j == run_dim {
                            continue;
                        }
                        coord[j] += 1;
                        if coord[j] < end[j] {
                            break;
                        }
                        coord[j] = start[j];
                    }
                }
            }
        }
        acc
    }

    /// One boundary-shell piece: the anchored traversal of `frozen` over
    /// `[rlo, rhi)` entered at `anchor`, with the single-`classify` case
    /// of a leaf anchor inlined (same float operations as the stack
    /// walk, so the inline is bit-identical to it).
    #[inline]
    fn shell_piece<const D: usize>(
        &self,
        frozen: &FrozenSynopsis,
        anchor: u32,
        rlo: &[f64],
        rhi: &[f64],
        stack: &mut Vec<u32>,
        acc: f64,
    ) -> f64 {
        let a = anchor as usize;
        if frozen.child_count()[a] == 0 {
            match frozen.classify_d::<D>(a, rlo, rhi) {
                crate::frozen::Overlap::Disjoint => acc,
                crate::frozen::Overlap::Contained => acc + frozen.counts()[a],
                crate::frozen::Overlap::Partial => {
                    match frozen.leaf_contribution_d::<D>(a, rlo, rhi) {
                        Some(c) => acc + c,
                        None => acc,
                    }
                }
            }
        } else {
            frozen.accumulate_span_d::<D>(anchor, rlo, rhi, stack, acc)
        }
    }
}

/// Power-of-two exponent for the default per-dimension resolution:
/// ~1 cell per node spread across `d` dimensions, capped so `2^(pow*d)`
/// can never exceed [`MAX_CELLS`] (for d ≥ 3 the total-cell cap binds
/// before the per-dimension ceiling of 1024 does).
fn default_pow(nodes: usize, d: usize) -> u32 {
    let per_dim = (nodes.clamp(64, MAX_CELLS) as f64).powf(1.0 / d as f64);
    let pow = per_dim.log2().ceil().max(0.0) as u32;
    pow.min(10).min(MAX_CELLS.ilog2() / d as u32)
}

/// Verify the parent-equals-children invariant grid routing relies on.
fn check_consistency(frozen: &FrozenSynopsis) -> Result<(), GridRouteError> {
    let first = frozen.first_child();
    let kids = frozen.child_count();
    let counts = frozen.counts();
    for i in 0..frozen.node_count() {
        if kids[i] == 0 {
            continue;
        }
        let sum: f64 = (first[i]..first[i] + kids[i])
            .map(|c| counts[c as usize])
            .sum();
        let deviation = (counts[i] - sum).abs();
        if deviation > CONSISTENCY_TOL * counts[i].abs().max(1.0) {
            return Err(GridRouteError::InconsistentCounts { node: i, deviation });
        }
    }
    Ok(())
}

/// The deepest arena node whose box fully covers the cell `[clo, chi)`,
/// found by descending from the root. The descent only steps into a
/// child that covers the cell when every *other* sibling is disjoint
/// from it (and stops when a node's box equals the cell exactly) —
/// exactly the preconditions under which an anchored traversal is
/// bit-identical to the root traversal for any query inside the cell,
/// for arbitrary trees (for the builders' partition trees the guards
/// never trigger and the descent reaches the unique deepest cover).
fn anchor_of_cell(frozen: &FrozenSynopsis, clo: &[f64], chi: &[f64]) -> u32 {
    let d = clo.len();
    let first = frozen.first_child();
    let kids = frozen.child_count();
    let covers = |node: usize| -> bool {
        let (nlo, nhi) = (frozen.node_lo(node), frozen.node_hi(node));
        (0..d).all(|k| nlo[k] <= clo[k] && nhi[k] >= chi[k])
    };
    let intersects = |node: usize| -> bool {
        let (nlo, nhi) = (frozen.node_lo(node), frozen.node_hi(node));
        (0..d).all(|k| nlo[k] < chi[k] && clo[k] < nhi[k])
    };
    let box_equals = |node: usize| -> bool {
        let (nlo, nhi) = (frozen.node_lo(node), frozen.node_hi(node));
        (0..d).all(|k| nlo[k] == clo[k] && nhi[k] == chi[k])
    };
    debug_assert!(covers(0), "root must cover every cell");
    let mut a = 0usize;
    loop {
        if kids[a] == 0 || box_equals(a) {
            return a as u32;
        }
        let mut found: Option<usize> = None;
        let mut blocked = false;
        for c in first[a]..first[a] + kids[a] {
            let c = c as usize;
            if covers(c) {
                if found.is_some() {
                    blocked = true; // degenerate double-cover: stop here
                    break;
                }
                found = Some(c);
            } else if intersects(c) {
                blocked = true; // a sibling touches the cell interior
                break;
            }
        }
        match found {
            Some(c) if !blocked => a = c,
            _ => return a as u32,
        }
    }
}

/// Padded d-dimensional summed-area table of `values` (row-major over
/// `bins`), shape `bins[k] + 1` per dimension. Deterministic in its
/// inputs, so persisted grids rebuild the exact same table.
fn build_sat(bins: &[usize], values: &[f64]) -> (Vec<f64>, Vec<usize>) {
    let d = bins.len();
    let sat_shape: Vec<usize> = bins.iter().map(|b| b + 1).collect();
    let mut sat_strides = vec![1usize; d];
    for k in (0..d.saturating_sub(1)).rev() {
        sat_strides[k] = sat_strides[k + 1] * sat_shape[k + 1];
    }
    let sat_total: usize = sat_shape.iter().product();
    let mut sat = vec![0.0f64; sat_total];

    // place values at offset +1 in every dimension
    let mut val_strides = vec![1usize; d];
    for k in (0..d.saturating_sub(1)).rev() {
        val_strides[k] = val_strides[k + 1] * bins[k + 1];
    }
    let mut coord = vec![0usize; d];
    for (i, v) in values.iter().enumerate() {
        let mut rem = i;
        for k in 0..d {
            coord[k] = rem / val_strides[k];
            rem %= val_strides[k];
        }
        let off: usize = (0..d).map(|k| (coord[k] + 1) * sat_strides[k]).sum();
        sat[off] = *v;
    }
    // cumulative sum along each dimension in turn
    for k in 0..d {
        let stride = sat_strides[k];
        let dim_len = sat_shape[k];
        let outer: usize = sat_shape[..k].iter().product();
        let inner: usize = sat_shape[k + 1..].iter().product();
        for o in 0..outer {
            for i in 1..dim_len {
                let base = o * stride * dim_len + i * stride;
                let prev = base - stride;
                for j in 0..inner {
                    sat[base + j] += sat[prev + j];
                }
            }
        }
    }
    (sat, sat_strides)
}

/// The persisted columns of a [`CellGrid`], staged for later assembly.
///
/// A zero-copy release open validates the arena eagerly but defers
/// [`CellGrid::from_parts`] — the dominant cost of a gridded decode — to
/// the moment the grid is first needed. Until then the grid's anchors and
/// values stay as [`Column`]s (typically borrowing the mapped file), and
/// [`CellGridParts::assemble`] turns them into a fully validated grid.
#[derive(Debug, Clone)]
pub struct CellGridParts {
    bins: Vec<usize>,
    anchors: Column<u32>,
    values: Column<f64>,
}

impl CellGridParts {
    /// Stage grid columns for later assembly.
    pub fn new(
        bins: Vec<usize>,
        anchors: impl Into<Column<u32>>,
        values: impl Into<Column<f64>>,
    ) -> Self {
        CellGridParts {
            bins,
            anchors: anchors.into(),
            values: values.into(),
        }
    }

    /// Cells per dimension.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// Per-cell anchors, row-major.
    pub fn anchors(&self) -> &[u32] {
        &self.anchors
    }

    /// Per-cell exact traversal answers, row-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Run full [`CellGrid::from_parts`] validation + assembly against
    /// `frozen`. Borrowed columns are cloned by Arc bump, not copied.
    pub fn assemble(&self, frozen: &FrozenSynopsis) -> Result<CellGrid, GridRouteError> {
        CellGrid::from_parts(
            frozen,
            &self.bins,
            self.anchors.clone(),
            self.values.clone(),
        )
    }
}

/// A frozen release plus its cell grid: the grid-routed serving engine.
#[derive(Debug, Clone)]
pub struct GridRoutedSynopsis {
    frozen: FrozenSynopsis,
    grid: CellGrid,
    label: &'static str,
}

impl GridRoutedSynopsis {
    /// Attach a grid at the default resolution (see
    /// [`GridRoutedSynopsis::default_bins`]), precomputed on the shared
    /// worker pool.
    pub fn build(frozen: FrozenSynopsis) -> Result<Self, GridRouteError> {
        let bins = Self::default_bins(&frozen);
        Self::with_bins(frozen, &bins)
    }

    /// Attach a grid with an explicit per-dimension resolution.
    pub fn with_bins(frozen: FrozenSynopsis, bins: &[usize]) -> Result<Self, GridRouteError> {
        Self::with_bins_and_pool(frozen, bins, Some(privtree_runtime::global()))
    }

    /// [`GridRoutedSynopsis::with_bins`] pinned to an explicit pool
    /// (`None` precomputes on the calling thread).
    pub fn with_bins_and_pool(
        frozen: FrozenSynopsis,
        bins: &[usize],
        pool: Option<&WorkerPool>,
    ) -> Result<Self, GridRouteError> {
        let grid = CellGrid::build(&frozen, bins, pool)?;
        Ok(Self::from_prebuilt(frozen, grid))
    }

    /// Wrap an arena with an already-validated grid (deserialization —
    /// e.g. a [`CellGrid::from_parts`] result, or the pieces of
    /// [`GridRoutedSynopsis::into_parts`]). The pairing is trusted the
    /// same way [`crate::sharded::ShardHandle::with_prebuilt_grid`]
    /// trusts it: a grid built for a *different* arena answers garbage.
    pub fn from_prebuilt(frozen: FrozenSynopsis, grid: CellGrid) -> Self {
        Self {
            frozen,
            grid,
            label: "GridRouted",
        }
    }

    /// Default resolution: aim for ~1 cell per tree node spread evenly
    /// across dimensions — cells at roughly the release's leaf scale —
    /// **snapped up to a power of two**. Dyadic cell boundaries coincide
    /// with the builders' bisection boundaries, so each cell nests inside
    /// the tree's boxes all the way down: the anchor descent reaches a
    /// leaf (or a node at the cell's own scale) instead of stopping at
    /// the first straddled coarse boundary, and boundary-shell work
    /// stays proportional to the local tree complexity. Non-dyadic
    /// resolutions remain *correct* (the equality contract never depends
    /// on alignment), just slower. Finer grids trade anchor-scan cache
    /// traffic for shallower shell walks; cells at about the leaf scale
    /// balance the two.
    pub fn default_bins(frozen: &FrozenSynopsis) -> Vec<usize> {
        let d = frozen.dims();
        vec![1usize << default_pow(frozen.node_count(), d); d]
    }

    /// The underlying frozen arena.
    pub fn frozen(&self) -> &FrozenSynopsis {
        &self.frozen
    }

    /// The routing grid.
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// Drop the grid, keeping the plain frozen engine.
    pub fn into_frozen(self) -> FrozenSynopsis {
        self.frozen
    }

    /// Take the engine apart into its arena and grid — e.g. to hand a
    /// deserialized release (grid included) to the sharded/epoch layer as
    /// one [`crate::sharded::ShardHandle`].
    pub fn into_parts(self) -> (FrozenSynopsis, CellGrid) {
        (self.frozen, self.grid)
    }

    /// Override the display label.
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Answer a workload on the calling thread in input order with one
    /// reused traversal stack — the reference every other batch path is
    /// compared against (per query the float operations are identical,
    /// so pool chunking stays bit-identical).
    pub fn answer_batch_sequential(&self, queries: &[RangeQuery]) -> Vec<f64> {
        let mut stack = Vec::with_capacity(64);
        queries
            .iter()
            .map(|q| {
                self.grid
                    .answer_span(&self.frozen, q.rect.lo(), q.rect.hi(), &mut stack, 0.0)
            })
            .collect()
    }

    /// Answer a workload chunked across `pool`. Bit-identical to the
    /// sequential path for every worker count.
    pub fn answer_batch_with_pool(&self, queries: &[RangeQuery], pool: &WorkerPool) -> Vec<f64> {
        dispatch_batch(queries, pool, |chunk| self.answer_batch_sequential(chunk))
    }
}

impl RangeCountSynopsis for GridRoutedSynopsis {
    fn answer(&self, q: &RangeQuery) -> f64 {
        with_query_scratch(|stack, _| {
            self.grid
                .answer_span(&self.frozen, q.rect.lo(), q.rect.hi(), stack, 0.0)
        })
    }

    fn answer_batch(&self, queries: &[RangeQuery]) -> Vec<f64> {
        auto_batch(queries, |chunk| self.answer_batch_sequential(chunk))
    }

    fn label(&self) -> &'static str {
        self.label
    }
}

impl FrozenSynopsis {
    /// Upgrade into the grid-routed engine at the default resolution.
    /// Fails (returning nothing but the error — freeze again to retry)
    /// when the release cannot be grid-routed; see [`GridRouteError`].
    pub fn grid_route(self) -> Result<GridRoutedSynopsis, GridRouteError> {
        GridRoutedSynopsis::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::PointSet;
    use crate::quadtree::SplitConfig;
    use crate::synopsis::{exact_synopsis, privtree_synopsis, simple_tree_synopsis};
    use privtree_dp::budget::Epsilon;
    use privtree_dp::rng::seeded;
    use rand::RngExt;

    fn clustered(n: usize, seed: u64) -> PointSet {
        let mut rng = seeded(seed);
        let mut ps = PointSet::new(2);
        for i in 0..n {
            if i % 6 == 0 {
                ps.push(&[rng.random::<f64>(), rng.random::<f64>()]);
            } else {
                ps.push(&[
                    0.4 + rng.random::<f64>() * 0.08,
                    0.1 + rng.random::<f64>() * 0.08,
                ]);
            }
        }
        ps
    }

    fn sample_frozen(seed: u64) -> FrozenSynopsis {
        privtree_synopsis(
            &clustered(4000, seed),
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
                let a: f64 = rng.random::<f64>() * 1.2 - 0.1;
                let b: f64 = rng.random::<f64>() * 1.2 - 0.1;
                let c: f64 = rng.random::<f64>() * 1.2 - 0.1;
                let d: f64 = rng.random::<f64>() * 1.2 - 0.1;
                RangeQuery::new(Rect::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)]))
            })
            .collect()
    }

    /// Boxes over at most 4 cells per dimension of `grid`, cycling through
    /// random sub-boxes of one cell, boxes straddling one cell boundary,
    /// and blocks of up to 4 cells per dimension: little or no interior,
    /// so the boundary shell answers almost all of each.
    fn few_cell_queries(grid: &CellGrid, n: usize, seed: u64) -> Vec<RangeQuery> {
        let bins = grid.bins();
        let d = bins.len();
        let mut rng = seeded(seed);
        (0..n)
            .map(|i| {
                let mut span = vec![1usize; d];
                match i % 3 {
                    0 => {}
                    1 => span[rng.random::<usize>() % d] = 2,
                    _ => span
                        .iter_mut()
                        .for_each(|s| *s = 1 + rng.random::<usize>() % 4),
                }
                let mut first = vec![0usize; d];
                let mut last = vec![0usize; d];
                for k in 0..d {
                    let s = span[k].min(bins[k]);
                    first[k] = rng.random::<usize>() % (bins[k] - s + 1);
                    last[k] = first[k] + s - 1;
                }
                let (a, b) = (grid.cell_rect(&first), grid.cell_rect(&last));
                let mut lo = vec![0.0; d];
                let mut hi = vec![0.0; d];
                for k in 0..d {
                    let (u, v) = (rng.random::<f64>(), rng.random::<f64>());
                    if first[k] == last[k] {
                        lo[k] = a.lo()[k] + u.min(v) * a.side(k);
                        hi[k] = a.lo()[k] + u.max(v) * a.side(k);
                    } else {
                        lo[k] = a.lo()[k] + u * a.side(k);
                        hi[k] = b.lo()[k] + v * b.side(k);
                    }
                }
                RangeQuery::new(Rect::new(&lo, &hi))
            })
            .collect()
    }

    fn assert_matches(frozen: &FrozenSynopsis, grid: &GridRoutedSynopsis, queries: &[RangeQuery]) {
        for q in queries {
            let a = frozen.answer(q);
            let b = grid.answer(q);
            let tol = 1e-9 * a.abs().max(1.0);
            assert!((a - b).abs() <= tol, "frozen {a} vs grid {b} on {}", q.rect);
        }
    }

    #[test]
    fn grid_matches_frozen_across_resolutions() {
        let frozen = sample_frozen(1);
        let queries = random_queries(250, 2);
        for bins in [[1usize, 1], [2, 3], [17, 17], [64, 64], [128, 31]] {
            let grid = GridRoutedSynopsis::with_bins(frozen.clone(), &bins).unwrap();
            assert_matches(&frozen, &grid, &queries);
        }
        for bins in [[13usize, 7], [64, 64], [128, 31]] {
            let grid = GridRoutedSynopsis::with_bins(frozen.clone(), &bins).unwrap();
            assert_matches(&frozen, &grid, &few_cell_queries(grid.grid(), 400, 3));
        }
    }

    #[test]
    fn default_build_matches_frozen() {
        let frozen = sample_frozen(3);
        let grid = frozen.clone().grid_route().unwrap();
        assert_eq!(grid.grid().bins().len(), 2);
        assert!(grid.grid().memory_bytes() > 0);
        assert_matches(&frozen, &grid, &random_queries(300, 4));
    }

    #[test]
    fn degenerate_and_whole_domain_queries_are_exact() {
        let frozen = sample_frozen(5);
        let grid = GridRoutedSynopsis::with_bins(frozen.clone(), &[13, 7]).unwrap();
        for q in [
            RangeQuery::new(Rect::unit(2)),                         // whole domain
            RangeQuery::new(Rect::new(&[-1.0, -1.0], &[2.0, 2.0])), // superset
            RangeQuery::new(Rect::new(&[0.3, 0.1], &[0.3, 0.9])),   // zero width
            RangeQuery::new(Rect::new(&[0.25, 0.5], &[0.25, 0.5])), // zero area
            RangeQuery::new(Rect::new(&[1.5, 1.5], &[1.8, 1.9])),   // disjoint
            RangeQuery::new(Rect::new(&[0.999, 0.999], &[1.0, 1.0])), // one-cell shell piece
        ] {
            assert_eq!(
                frozen.answer(&q).to_bits(),
                grid.answer(&q).to_bits(),
                "fallbacks and single-cell shell pieces must be bit-exact on {}",
                q.rect
            );
        }
    }

    #[test]
    fn anchored_shell_traversals_are_bit_identical() {
        let frozen = sample_frozen(7);
        let grid = GridRoutedSynopsis::with_bins(frozen.clone(), &[23, 29]).unwrap();
        let mut rng = seeded(8);
        for _ in 0..300 {
            let coord = [
                (rng.random::<f64>() * 23.0) as usize % 23,
                (rng.random::<f64>() * 29.0) as usize % 29,
            ];
            let cell = grid.grid().cell_rect(&coord);
            // a random sub-box of the cell
            let mut lo = [0.0; 2];
            let mut hi = [0.0; 2];
            for k in 0..2 {
                let (a, b) = (rng.random::<f64>(), rng.random::<f64>());
                lo[k] = cell.lo()[k] + a.min(b) * cell.side(k);
                hi[k] = cell.lo()[k] + a.max(b) * cell.side(k);
            }
            let q = RangeQuery::new(Rect::new(&lo, &hi));
            let anchor = grid.grid().anchor_at(&coord) as usize;
            assert_eq!(
                frozen.answer(&q).to_bits(),
                frozen.answer_from(anchor, &q).to_bits(),
                "anchored traversal diverged at cell {coord:?}"
            );
        }
    }

    #[test]
    fn cell_values_equal_root_traversal_of_cells() {
        let frozen = sample_frozen(9);
        let grid = GridRoutedSynopsis::with_bins(frozen.clone(), &[11, 5]).unwrap();
        for i in 0..11 {
            for j in 0..5 {
                let cell = grid.grid().cell_rect(&[i, j]);
                let expected = frozen.answer(&RangeQuery::new(cell));
                let got = grid.grid().values()[i * 5 + j];
                assert_eq!(expected.to_bits(), got.to_bits(), "cell ({i},{j})");
            }
        }
    }

    #[test]
    fn batch_paths_are_bit_identical() {
        let frozen = sample_frozen(11);
        let grid = GridRoutedSynopsis::with_bins(frozen, &[40, 40]).unwrap();
        let queries = random_queries(1224, 12);
        let reference = grid.answer_batch_sequential(&queries);
        for (q, r) in queries.iter().zip(&reference) {
            assert_eq!(grid.answer(q).to_bits(), r.to_bits());
        }
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let pooled = grid.answer_batch_with_pool(&queries, &pool);
            for (a, b) in reference.iter().zip(&pooled) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers = {workers}");
            }
        }
        let auto = grid.answer_batch(&queries);
        for (a, b) in reference.iter().zip(&auto) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pooled_build_matches_sequential_build() {
        let frozen = sample_frozen(13);
        let seq = CellGrid::build(&frozen, &[31, 31], None).unwrap();
        for workers in [2usize, 4, 8] {
            let pool = WorkerPool::new(workers);
            let pooled = CellGrid::build(&frozen, &[31, 31], Some(&pool)).unwrap();
            assert_eq!(seq.anchors(), pooled.anchors(), "workers = {workers}");
            let same_bits = seq
                .values()
                .iter()
                .zip(pooled.values())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bits, "cell values diverged at workers = {workers}");
        }
    }

    #[test]
    fn exact_release_stays_exact() {
        let ps = clustered(3000, 15);
        let frozen = exact_synopsis(&ps, Rect::unit(2), SplitConfig::full(2), 25.0, None).freeze();
        let grid = GridRoutedSynopsis::with_bins(frozen, &[32, 32]).unwrap();
        for q in [
            Rect::new(&[0.0, 0.0], &[0.5, 0.5]),
            Rect::new(&[0.125, 0.25], &[0.625, 0.875]),
        ] {
            let truth = ps.count_in(&q) as f64;
            let est = grid.answer(&RangeQuery::new(q));
            assert!((est - truth).abs() < 1e-9, "query {q}: {est} vs {truth}");
        }
    }

    #[test]
    fn inconsistent_release_is_refused() {
        let ps = clustered(3000, 17);
        let frozen = simple_tree_synopsis(
            &ps,
            Rect::unit(2),
            SplitConfig::full(2),
            Epsilon::new(1.0).unwrap(),
            5,
            30.0,
            &mut seeded(18),
        )
        .unwrap()
        .freeze();
        match GridRoutedSynopsis::build(frozen) {
            Err(GridRouteError::InconsistentCounts { .. }) => {}
            other => panic!("expected InconsistentCounts, got {other:?}"),
        }
    }

    #[test]
    fn default_resolution_never_exceeds_the_cell_cap() {
        for d in 1..=8usize {
            for nodes in [1usize, 64, 13_313, 2_000_000, usize::MAX / 2] {
                let pow = default_pow(nodes, d);
                let cells = (0..d).try_fold(1usize, |acc, _| acc.checked_mul(1 << pow));
                assert!(
                    cells.is_some_and(|c| c <= MAX_CELLS),
                    "d = {d}, nodes = {nodes}: 2^({pow}*{d}) exceeds MAX_CELLS"
                );
            }
        }
    }

    #[test]
    fn bad_resolutions_are_refused() {
        let frozen = sample_frozen(19);
        assert!(matches!(
            GridRoutedSynopsis::with_bins(frozen.clone(), &[0, 4]),
            Err(GridRouteError::BadResolution(_))
        ));
        assert!(matches!(
            GridRoutedSynopsis::with_bins(frozen.clone(), &[4]),
            Err(GridRouteError::BadResolution(_))
        ));
        assert!(matches!(
            GridRoutedSynopsis::with_bins(frozen, &[1 << 16, 1 << 16]),
            Err(GridRouteError::BadResolution(_))
        ));
    }

    #[test]
    fn three_dim_domain_matches_frozen() {
        let mut rng = seeded(21);
        let mut ps = PointSet::new(3);
        for _ in 0..3000 {
            ps.push(&[
                rng.random::<f64>() * 0.4,
                rng.random::<f64>(),
                0.5 + rng.random::<f64>() * 0.3,
            ]);
        }
        let frozen = privtree_synopsis(
            &ps,
            Rect::unit(3),
            SplitConfig::full(3),
            Epsilon::new(1.0).unwrap(),
            &mut seeded(22),
        )
        .unwrap()
        .freeze();
        let grid = GridRoutedSynopsis::with_bins(frozen.clone(), &[9, 6, 11]).unwrap();
        let mut rng = seeded(23);
        for _ in 0..120 {
            let mut lo = [0.0; 3];
            let mut hi = [0.0; 3];
            for k in 0..3 {
                let (a, b) = (rng.random::<f64>(), rng.random::<f64>());
                lo[k] = a.min(b);
                hi[k] = a.max(b);
            }
            let q = RangeQuery::new(Rect::new(&lo, &hi));
            let a = frozen.answer(&q);
            let b = grid.answer(&q);
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "3-d: {a} vs {b} on {}",
                q.rect
            );
        }
        assert_matches(&frozen, &grid, &few_cell_queries(grid.grid(), 400, 24));
    }

    #[test]
    fn single_node_release_grid() {
        let tree = privtree_core::tree::Tree::with_root(Rect::unit(2));
        let frozen = FrozenSynopsis::from_tree(&tree, &[8.0], "tiny");
        let grid = GridRoutedSynopsis::with_bins(frozen.clone(), &[4, 4]).unwrap();
        assert!(grid.grid().anchors().iter().all(|&a| a == 0));
        let q = RangeQuery::new(Rect::new(&[0.1, 0.1], &[0.6, 0.6]));
        let a = frozen.answer(&q);
        let b = grid.answer(&q);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
}
