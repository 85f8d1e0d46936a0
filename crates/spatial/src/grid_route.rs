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
//! **boundary shell** of partially covered cells.
//!
//! # The boundary shell: faces, corners, and anchored walks
//!
//! Let `S` be the set of dimensions along which a shell cell is only
//! partly covered. Cells with `|S| = 1` form the shell's **faces**: the
//! face normal to `k` at edge cell `e` holds the cells at coordinate `e`
//! along `k` and inside the interior range along every other dimension,
//! so the query cuts each of them to the same width `w_k` along `k` and
//! covers them whole along the rest.
//!
//! * **Leaf-anchored face cells** cost nothing per cell. Section 2.2
//!   answers a partly covered leaf under the uniformity assumption —
//!   `count × |q ∩ leaf| / |leaf|` — so a cell anchored at a leaf of
//!   positive volume contributes `w_k × count × Π_{j≠k} width_j / vol`,
//!   the cut width times a per-cell constant. A per-dimension **face
//!   prefix table** sums that constant along every dimension except `k`
//!   (`bins[k]` entries along `k`, `bins[j] + 1` along each other `j`),
//!   so a whole face's leaf part is `w_k` times one block sum of
//!   `2^(d−1)` lookups, as the summed-area table's block is.
//! * **Internal-anchored face cells** still need an anchored walk. A
//!   CSR **run index** lists, per line of cells along dimension `d − 1`
//!   (and, for the faces normal to `d − 1`, along `d − 2`), the maximal
//!   runs of equal internal anchor. A face binary-searches each of its
//!   lines for the first run overlapping its range and walks every run
//!   once over the union of its clipped cells.
//! * **Cells cut along two or more dimensions** — at most 4 corners in
//!   2-d, the 12 edges in 3-d — and every edge cell of a 1-d grid take
//!   the per-cell path: consecutive cells sharing an anchor merge into
//!   one anchored traversal over `q ∩ cells` that reuses the frozen
//!   engine's `classify`/`leaf_contribution`/carried-accumulator walk.
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
//! The face tables reassociate the same leaf contributions (one product
//! per cell, summed by prefix differences), so they stay within the
//! same reassociation error. The per-cell path is stronger than
//! "numerically equal": an anchored traversal is **bit-identical** to
//! the root traversal of the same `q ∩ cell` box. The anchor descent
//! only steps from a node to a child when the child's box covers the
//! cell *and every other sibling is disjoint from it*, so in the root
//! walk each skipped ancestor classifies `Partial` (contributing
//! nothing) and each skipped sibling `Disjoint` — the `+=` sequence is
//! exactly the anchored one ([`FrozenSynopsis::answer_from`] pins this
//! from integration tests).

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
    /// bins, or more cells or table bytes than the build is willing to
    /// materialize).
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

/// Hard cap on materialized cells (it also keeps every run-index entry
/// a `u32`). The cell count alone does not bound a grid's memory: the
/// summed-area and face tables are padded to `bins[j] + 1` entries per
/// dimension, so they reach `2^(d−1)` entries per cell when one
/// dimension holds all the bins. [`MAX_GRID_BYTES`] is the real bound.
const MAX_CELLS: usize = 1 << 22;

/// Hard cap on the bytes one grid allocates: anchors, values, the
/// summed-area table, the face tables, and the run index at its worst
/// case (see [`grid_bytes`]). [`CellGrid::build`] and
/// [`CellGrid::from_parts`] refuse a resolution over it before
/// allocating anything. Every default resolution fits, for every
/// dimensionality up to [`MAX_DIMS`]: the largest, 8 bins per dimension
/// in 7-d, needs ≈338 MiB, most of it face tables.
const MAX_GRID_BYTES: usize = 384 << 20;

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
/// anchors, per-cell exact contributions, their summed-area table, and
/// the boundary shell's face tables and run index.
/// Held by [`GridRoutedSynopsis`] (one release) and by
/// [`crate::sharded::ShardedSynopsis`] (one grid per shard arena).
#[derive(Debug, Clone)]
pub struct CellGrid {
    geo: Geometry,
    /// Per cell (row-major): arena index of the deepest node whose box
    /// fully covers the cell.
    anchors: Column<u32>,
    /// Per cell: the decomposition's exact traversal answer for the cell
    /// box (kept alongside the tables so serialization round-trips
    /// bit-exactly).
    values: Column<f64>,
    /// Summed-area table of `values`.
    sat: PrefixTable,
    /// Per dimension `k` (d ≥ 2, else empty): the face table of the
    /// leaf constant `count × Π_{j≠k} width_j / vol`, summed along every
    /// dimension except `k`.
    faces: Vec<PrefixTable>,
    /// Internal-anchor runs along the lines of dimension `d − 1` (`[0]`)
    /// and `d − 2` (`[1]`); empty for d = 1.
    runs: Vec<RunIndex>,
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
    /// summed-area table, the face tables and the run index are rebuilt
    /// deterministically from `anchors`, `values` and the arena, so a
    /// deserialized grid answers bit-identically to the one that was
    /// serialized. A resolution over the grid allocation bound is
    /// refused before anything is allocated. This is the entry point for
    /// every release loader (text and binary alike). The columns may be
    /// owned `Vec`s or [`Column`]s borrowing a mapped release file.
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
        if !fits_budget(bins) {
            return Err(GridRouteError::BadResolution(format!(
                "{bins:?} exceeds the {MAX_CELLS}-cell or {MAX_GRID_BYTES}-byte cap"
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

    /// Derive the tables from `anchors` and `values`: the summed-area
    /// table, and for d ≥ 2 one face table per dimension plus the run
    /// index. A few sequential passes, with no node-box loads: a
    /// leaf-anchored cell's value is `count × Π_j width_j / vol` (or the
    /// count, when the leaf is the cell), so `value / width_k` is its face
    /// constant along `k` up to rounding.
    fn assemble(
        frozen: &FrozenSynopsis,
        geo: Geometry,
        anchors: Column<u32>,
        values: Column<f64>,
    ) -> Self {
        let d = geo.dims();
        let kids = frozen.child_count();
        let sat = PrefixTable::build(&geo.bins, None, |idx, _| values[idx]);
        let (faces, runs) = if d >= 2 {
            let faces = (0..d)
                .map(|k| {
                    PrefixTable::build(&geo.bins, Some(k), |idx, coord| {
                        let width = geo.boundary(k, coord[k] + 1) - geo.boundary(k, coord[k]);
                        if width > 0.0 && kids[anchors[idx] as usize] == 0 {
                            values[idx] / width
                        } else {
                            0.0
                        }
                    })
                })
                .collect();
            let internal = |a: u32| kids[a as usize] > 0;
            let runs = vec![
                RunIndex::build(&geo, &anchors, d - 1, internal),
                RunIndex::build(&geo, &anchors, d - 2, internal),
            ];
            (faces, runs)
        } else {
            (Vec::new(), Vec::new())
        };
        Self {
            geo,
            anchors,
            values,
            sat,
            faces,
            runs,
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
    /// and `2 + d` `f64`s (the value, one entry of the summed-area table,
    /// and one entry of each face table, all tables padded by one entry
    /// per summed dimension): 20 + 8d bytes for d ≥ 2 (20 for d = 1),
    /// plus the run index's 12 bytes per internal-anchor run and 4 per
    /// line of cells.
    pub fn memory_bytes(&self) -> usize {
        let tables: usize = self.faces.iter().map(|t| t.data.len()).sum();
        let runs: usize = self.runs.iter().map(RunIndex::memory_bytes).sum();
        self.anchors.len() * std::mem::size_of::<u32>()
            + (self.values.len() + self.sat.data.len() + tables) * std::mem::size_of::<f64>()
            + runs
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
            acc += self.sat.block_sum_d::<D>(D, 0, &int_lo, &int_hi);
        }

        // the partly covered edge cells along each dimension (one when
        // the query starts and ends inside the same cell)
        let mut edges = [[0usize; 2]; D];
        let mut n_edges = [0usize; D];
        for k in 0..d {
            if partial_lo[k] {
                edges[k][n_edges[k]] = lo_c[k];
                n_edges[k] += 1;
            }
            if partial_hi[k] && (hi_c[k] != lo_c[k] || !partial_lo[k]) {
                edges[k][n_edges[k]] = hi_c[k];
                n_edges[k] += 1;
            }
        }
        let mut start = [0usize; D];
        let mut end = [0usize; D];

        if D == 1 {
            for &e in &edges[0][..n_edges[0]] {
                (start[0], end[0]) = (e, e + 1);
                acc = self.walk_block::<D>(frozen, qlo, qhi, &start, &end, 0, stack, acc);
            }
            return acc;
        }

        // faces: cells cut along k only, so every other dimension needs
        // interior cells
        for k in 0..d {
            if (0..d).any(|j| j != k && int_lo[j] == int_hi[j]) {
                continue;
            }
            for &e in &edges[k][..n_edges[k]] {
                (start, end) = (int_lo, int_hi);
                (start[k], end[k]) = (e, e + 1);
                acc = self.face::<D>(frozen, qlo, qhi, k, &start, &end, stack, acc);
            }
        }

        // cells cut along two or more dimensions, partitioned by the
        // first two such, k < m: dimensions before m (except k) stay in
        // the interior range, dimensions after m roam the full overlap
        // range, so each such cell is covered exactly once
        for k in 0..d {
            for m in k + 1..d {
                // merge equal anchors along the innermost free dimension
                let run_dim = (0..d).rev().find(|&j| j != k && j != m).unwrap_or(m);
                for &ek in &edges[k][..n_edges[k]] {
                    for &em in &edges[m][..n_edges[m]] {
                        for j in 0..d {
                            (start[j], end[j]) = if j == k {
                                (ek, ek + 1)
                            } else if j == m {
                                (em, em + 1)
                            } else if j < m {
                                (int_lo[j], int_hi[j])
                            } else {
                                (lo_c[j], hi_c[j] + 1)
                            };
                        }
                        if (0..d).all(|j| start[j] < end[j]) {
                            acc = self.walk_block::<D>(
                                frozen, qlo, qhi, &start, &end, run_dim, stack, acc,
                            );
                        }
                    }
                }
            }
        }
        acc
    }

    /// `[qlo, qhi) ∩` the cells `[s, t)` along dimension `k`, as a span
    /// (empty spans collapse to zero width).
    #[inline]
    fn clip(&self, qlo: &[f64], qhi: &[f64], k: usize, s: usize, t: usize) -> (f64, f64) {
        let lo = qlo[k].max(self.geo.boundary(k, s));
        (lo, qhi[k].min(self.geo.boundary(k, t)).max(lo))
    }

    /// One face of the boundary shell: the cells `[start, end)`, a single
    /// cell thick along `k` and inside the interior range along every
    /// other dimension. Leaf-anchored cells contribute the cut width
    /// times the face table's block sum; each internal-anchor run
    /// overlapping the face is walked once from its anchor.
    #[allow(clippy::too_many_arguments)]
    fn face<const D: usize>(
        &self,
        frozen: &FrozenSynopsis,
        qlo: &[f64],
        qhi: &[f64],
        k: usize,
        start: &[usize; D],
        end: &[usize; D],
        stack: &mut Vec<u32>,
        acc: f64,
    ) -> f64 {
        let mut rlo = [0.0f64; D];
        let mut rhi = [0.0f64; D];
        (rlo[k], rhi[k]) = self.clip(qlo, qhi, k, start[k], end[k]);
        let table = &self.faces[k];
        let leaves = table.block_sum_d::<D>(k, start[k] * table.strides[k], start, end);
        let mut acc = acc + (rhi[k] - rlo[k]) * leaves;

        // lines along d − 1, or along d − 2 for the faces normal to d − 1
        let runs = &self.runs[(k == D - 1) as usize];
        let w = runs.dim;
        let (s, t) = (start[w], end[w]);
        let mut coord = *start;
        loop {
            let mut line = 0usize;
            for j in 0..D {
                if j != w {
                    line += coord[j] * runs.line_strides[j];
                    if j != k {
                        (rlo[j], rhi[j]) = self.clip(qlo, qhi, j, coord[j], coord[j] + 1);
                    }
                }
            }
            for run in runs.overlapping(line, s, t) {
                let (a, b) = ((run.start as usize).max(s), (run.end as usize).min(t));
                (rlo[w], rhi[w]) = self.clip(qlo, qhi, w, a, b);
                acc = frozen.accumulate_span_d::<D>(run.anchor, &rlo, &rhi, stack, acc);
            }
            if !advance(&mut coord, start, end, w) {
                return acc;
            }
        }
    }

    /// The shell cells `[start, end)`, row by row along `run_dim`, with
    /// consecutive cells sharing an anchor merged into one anchored
    /// traversal over their union (the anchor covers each cell, hence
    /// the union): a coarse leaf spanning thirty cells costs one piece.
    #[allow(clippy::too_many_arguments)]
    fn walk_block<const D: usize>(
        &self,
        frozen: &FrozenSynopsis,
        qlo: &[f64],
        qhi: &[f64],
        start: &[usize; D],
        end: &[usize; D],
        run_dim: usize,
        stack: &mut Vec<u32>,
        mut acc: f64,
    ) -> f64 {
        let anchors: &[u32] = &self.anchors;
        let run_stride = self.geo.strides[run_dim];
        let mut rlo = [0.0f64; D];
        let mut rhi = [0.0f64; D];
        let mut coord = *start;
        loop {
            let mut row_base = 0usize;
            for j in 0..D {
                if j != run_dim {
                    row_base += coord[j] * self.geo.strides[j];
                    (rlo[j], rhi[j]) = self.clip(qlo, qhi, j, coord[j], coord[j] + 1);
                }
            }
            let t = end[run_dim];
            let mut j0 = start[run_dim];
            while j0 < t {
                let anchor = anchors[row_base + j0 * run_stride];
                let mut j1 = j0 + 1;
                while j1 < t && anchors[row_base + j1 * run_stride] == anchor {
                    j1 += 1;
                }
                (rlo[run_dim], rhi[run_dim]) = self.clip(qlo, qhi, run_dim, j0, j1);
                acc = self.shell_piece::<D>(frozen, anchor, &rlo, &rhi, stack, acc);
                j0 = j1;
            }
            if !advance(&mut coord, start, end, run_dim) {
                return acc;
            }
        }
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
/// ~1 cell per node spread across `d` dimensions, at most 1024 cells per
/// dimension, and capped so the grid fits [`MAX_CELLS`] and
/// [`MAX_GRID_BYTES`] (for d ≥ 3 the caps bind before the per-dimension
/// ceiling does).
fn default_pow(nodes: usize, d: usize) -> u32 {
    let per_dim = (nodes.clamp(64, MAX_CELLS) as f64).powf(1.0 / d as f64);
    let mut pow = (per_dim.log2().ceil().max(0.0) as u32).min(10);
    while pow > 0 && !fits_budget(&vec![1usize << pow; d]) {
        pow -= 1;
    }
    pow
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

/// A padded d-dimensional prefix-sum table over the grid's cells: along
/// every dimension except `skip` it holds `bins[j] + 1` entries, entry
/// `p_j` summing the cells `c_j < p_j`; along `skip` (the face tables'
/// normal) it keeps the `bins[skip]` cells apart. With no `skip` this is
/// the summed-area table.
#[derive(Debug, Clone)]
struct PrefixTable {
    data: Vec<f64>,
    /// Row-major strides over the padded shape.
    strides: [usize; MAX_DIMS],
}

impl PrefixTable {
    /// Fill with `value(cell index, cell coordinates)` in one row-major
    /// pass, then sum along each summed dimension in turn. Deterministic
    /// in its inputs, so persisted grids rebuild the exact same table.
    fn build(
        bins: &[usize],
        skip: Option<usize>,
        mut value: impl FnMut(usize, &[usize]) -> f64,
    ) -> Self {
        let d = bins.len();
        let mut pad = [0usize; MAX_DIMS];
        let mut shape = [0usize; MAX_DIMS];
        for j in 0..d {
            pad[j] = usize::from(Some(j) != skip);
            shape[j] = bins[j] + pad[j];
        }
        let mut strides = [0usize; MAX_DIMS];
        strides[d - 1] = 1;
        for j in (0..d - 1).rev() {
            strides[j] = strides[j + 1] * shape[j + 1];
        }
        let mut data = vec![0.0f64; strides[0] * shape[0]];

        // one contiguous row of cells along the last dimension at a time
        let last = d - 1;
        let mut coord = [0usize; MAX_DIMS];
        let mut idx = 0usize;
        for _ in 0..bins[..last].iter().product::<usize>() {
            let base: usize = (0..d).map(|j| (coord[j] + pad[j]) * strides[j]).sum();
            for (c, x) in data[base..base + bins[last]].iter_mut().enumerate() {
                coord[last] = c;
                *x = value(idx + c, &coord[..d]);
            }
            idx += bins[last];
            coord[last] = 0;
            for j in (0..last).rev() {
                coord[j] += 1;
                if coord[j] < bins[j] {
                    break;
                }
                coord[j] = 0;
            }
        }
        for k in (0..d).filter(|&k| pad[k] == 1) {
            let stride = strides[k];
            for block in data.chunks_exact_mut(stride * shape[k]) {
                if stride == 1 {
                    let mut sum = 0.0;
                    for x in block {
                        sum += *x;
                        *x = sum;
                    }
                    continue;
                }
                for i in 1..shape[k] {
                    let (done, rest) = block.split_at_mut(i * stride);
                    let prev = &done[(i - 1) * stride..];
                    for (x, p) in rest[..stride].iter_mut().zip(prev) {
                        *x += *p;
                    }
                }
            }
        }
        Self { data, strides }
    }

    /// Sum over the block `[a, b)` along every summed dimension, at the
    /// fixed offset `base` along `skip` (`D` for none): `2^(d−1)` or
    /// `2^d` lookups with inclusion–exclusion signs, with the
    /// dimensionality known at compile time.
    #[inline]
    fn block_sum_d<const D: usize>(
        &self,
        skip: usize,
        base: usize,
        a: &[usize],
        b: &[usize],
    ) -> f64 {
        let mut total = 0.0;
        for mask in 0..(1usize << D) {
            if (mask >> skip) & 1 == 1 {
                continue;
            }
            let mut off = base;
            let mut sign = 1.0;
            for k in 0..D {
                if k == skip {
                    continue;
                }
                let idx = if (mask >> k) & 1 == 1 {
                    sign = -sign;
                    a[k]
                } else {
                    b[k]
                };
                off += idx * self.strides[k];
            }
            total += sign * self.data[off];
        }
        total
    }
}

/// A maximal run `[start, end)` of cells along one line that share the
/// internal anchor `anchor`.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u32,
    end: u32,
    anchor: u32,
}

/// The internal-anchor runs of every line of cells along dimension
/// `dim`, in CSR form: line `l`'s runs are `runs[offsets[l]..offsets[l +
/// 1]]`, sorted by `start`. Leaf-anchored cells belong to no run.
#[derive(Debug, Clone)]
struct RunIndex {
    dim: usize,
    /// A cell's line is `Σ_{j≠dim} coord[j] × line_strides[j]`.
    line_strides: [usize; MAX_DIMS],
    offsets: Vec<u32>,
    runs: Vec<Run>,
}

impl RunIndex {
    fn build(geo: &Geometry, anchors: &[u32], dim: usize, internal: impl Fn(u32) -> bool) -> Self {
        let (len, stride) = (geo.bins[dim], geo.strides[dim]);
        let lines = geo.cells() / len;
        let mut line_strides = [0usize; MAX_DIMS];
        for (j, s) in line_strides.iter_mut().enumerate().take(geo.dims()) {
            *s = match j.cmp(&dim) {
                std::cmp::Ordering::Less => geo.strides[j] / len,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => geo.strides[j],
            };
        }
        let mut offsets = Vec::with_capacity(lines + 1);
        let mut runs = Vec::new();
        offsets.push(0);
        for line in 0..lines {
            let first = line / stride * len * stride + line % stride;
            let anchor = |c: usize| anchors[first + c * stride];
            let mut c = 0;
            while c < len {
                let a = anchor(c);
                let mut e = c + 1;
                while e < len && anchor(e) == a {
                    e += 1;
                }
                if internal(a) {
                    runs.push(Run {
                        start: c as u32,
                        end: e as u32,
                        anchor: a,
                    });
                }
                c = e;
            }
            offsets.push(runs.len() as u32);
        }
        Self {
            dim,
            line_strides,
            offsets,
            runs,
        }
    }

    /// The runs of `line` overlapping the cells `[s, t)`, found by
    /// binary search.
    #[inline]
    fn overlapping(&self, line: usize, s: usize, t: usize) -> impl Iterator<Item = &Run> {
        let runs = &self.runs[self.offsets[line] as usize..self.offsets[line + 1] as usize];
        let first = runs.partition_point(|r| r.end as usize <= s);
        runs[first..]
            .iter()
            .take_while(move |r| (r.start as usize) < t)
    }

    fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.runs.len() * std::mem::size_of::<Run>()
    }
}

/// Step `coord` through the block `[start, end)` in row-major order,
/// leaving dimension `skip` alone; `false` once the block is exhausted.
#[inline]
fn advance<const D: usize>(
    coord: &mut [usize; D],
    start: &[usize; D],
    end: &[usize; D],
    skip: usize,
) -> bool {
    for j in (0..D).rev() {
        if j == skip {
            continue;
        }
        coord[j] += 1;
        if coord[j] < end[j] {
            return true;
        }
        coord[j] = start[j];
    }
    false
}

/// The bytes [`CellGrid::assemble`] allocates for `bins`: anchors,
/// values, the summed-area table, the face tables, and the run index at
/// its worst case (every cell its own run, in both lists). `None` past
/// [`MAX_CELLS`] or on overflow.
fn grid_bytes(bins: &[usize]) -> Option<usize> {
    let d = bins.len();
    let cells = bins
        .iter()
        .try_fold(1usize, |acc, &b| acc.checked_mul(b))
        .filter(|&c| c <= MAX_CELLS)?;
    let padded = |skip: Option<usize>| {
        (0..d).try_fold(1usize, |acc, j| {
            acc.checked_mul(bins[j].checked_add(usize::from(Some(j) != skip))?)
        })
    };
    let mut f64s = cells.checked_add(padded(None)?)?;
    let mut bytes = cells * std::mem::size_of::<u32>();
    if d >= 2 {
        for k in 0..d {
            f64s = f64s.checked_add(padded(Some(k))?)?;
        }
        for dim in [d - 1, d - 2] {
            let lines = cells / bins[dim];
            bytes += cells * std::mem::size_of::<Run>() + (lines + 1) * std::mem::size_of::<u32>();
        }
    }
    bytes.checked_add(f64s.checked_mul(std::mem::size_of::<f64>())?)
}

/// Whether a grid of `bins` stays within [`MAX_CELLS`] and
/// [`MAX_GRID_BYTES`].
fn fits_budget(bins: &[usize]) -> bool {
    grid_bytes(bins).is_some_and(|b| b <= MAX_GRID_BYTES)
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
    /// the first straddled coarse boundary, so most shell cells are
    /// leaf-anchored and answered by the face tables, and the anchored
    /// walks that remain stay proportional to the local tree
    /// complexity. Non-dyadic resolutions remain *correct* (the equality
    /// contract never depends on alignment), just slower. A finer grid
    /// costs memory and build time (20 + 8d bytes per cell), not query
    /// time on the faces.
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
                let bins = vec![1usize << pow; d];
                assert!(
                    fits_budget(&bins),
                    "d = {d}, nodes = {nodes}: {bins:?} needs {:?} bytes",
                    grid_bytes(&bins)
                );
            }
        }
    }

    #[test]
    fn skewed_resolutions_are_refused_before_allocating() {
        // 2^22 cells is within MAX_CELLS, but tables padded along seven
        // one-bin dimensions would hold 2^7 entries per cell (≈4.3 GB each)
        let tree = privtree_core::tree::Tree::with_root(Rect::unit(8));
        let frozen = FrozenSynopsis::from_tree(&tree, &[8.0], "one node");
        let mut bins = vec![1usize; 8];
        bins[0] = 1 << 22;
        assert!(matches!(
            GridRoutedSynopsis::with_bins(frozen.clone(), &bins),
            Err(GridRouteError::BadResolution(_))
        ));
        // columns of the right length, as a decoded file would supply
        let cells = 1 << 22;
        assert!(matches!(
            CellGrid::from_parts(&frozen, &bins, vec![0u32; cells], vec![0.0f64; cells]),
            Err(GridRouteError::BadResolution(_))
        ));
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
    fn face_runs_match_frozen_at_every_range_end() {
        // a coarse, non-dyadic grid: cells straddling the tree's split
        // lines are anchored at internal nodes, in runs along both axes
        let frozen = sample_frozen(31);
        let bins = [7usize, 9];
        let grid = GridRoutedSynopsis::with_bins(frozen.clone(), &bins).unwrap();
        let g = grid.grid();
        let internal = |c: [usize; 2]| frozen.child_count()[g.anchor_at(&c) as usize] > 0;
        let long_run = |along: usize| {
            (0..bins[1 - along]).any(|e| {
                (1..bins[along]).any(|c| {
                    let (mut x, mut y) = ([0usize; 2], [0usize; 2]);
                    (x[along], x[1 - along], y[along], y[1 - along]) = (c - 1, e, c, e);
                    internal(x) && g.anchor_at(&x) == g.anchor_at(&y)
                })
            })
        };
        assert!(
            long_run(0) && long_run(1),
            "the grid needs multi-cell internal runs"
        );
        let bound = |k: usize, c: usize| {
            let mut coord = [0usize; 2];
            coord[k] = c.min(bins[k] - 1);
            let cell = g.cell_rect(&coord);
            if c < bins[k] {
                cell.lo()[k]
            } else {
                cell.hi()[k]
            }
        };
        let width = |k: usize, c: usize| bound(k, c + 1) - bound(k, c);
        let mut queries = Vec::new();
        for along in 0..2 {
            let cut = 1 - along;
            // every cell range [a, b) along one axis, each end aligned to
            // a cell boundary or cut inside its cell; a cut inside one
            // cell along the other, so the range is one face
            for a in 0..bins[along] {
                for b in a + 1..=bins[along] {
                    for (cut_lo, cut_hi) in
                        [(false, false), (true, false), (false, true), (true, true)]
                    {
                        let lo =
                            bound(along, a) + if cut_lo { 0.37 * width(along, a) } else { 0.0 };
                        let hi = if cut_hi {
                            bound(along, b - 1) + 0.61 * width(along, b - 1)
                        } else {
                            bound(along, b)
                        };
                        for e in 0..bins[cut] {
                            let (mut qlo, mut qhi) = ([0.0; 2], [0.0; 2]);
                            (qlo[along], qhi[along]) = (lo, hi);
                            qlo[cut] = bound(cut, e) + 0.25 * width(cut, e);
                            qhi[cut] = bound(cut, e) + 0.75 * width(cut, e);
                            queries.push(RangeQuery::new(Rect::new(&qlo, &qhi)));
                        }
                    }
                }
            }
        }
        assert_matches(&frozen, &grid, &queries);
    }

    #[test]
    fn one_and_three_dim_domains_match_frozen() {
        // every shell cell of a 1-d grid is an edge cell: it has no faces
        let one: &[&[usize]] = &[&[1], &[7], &[64], &[1000]];
        let three: &[&[usize]] = &[&[9, 6, 11]];
        for (dims, resolutions) in [(1usize, one), (3, three)] {
            let mut rng = seeded(21);
            let mut ps = PointSet::new(dims);
            for _ in 0..3000 {
                let p = [
                    rng.random::<f64>() * 0.4,
                    rng.random::<f64>(),
                    0.5 + rng.random::<f64>() * 0.3,
                ];
                ps.push(&p[..dims]);
            }
            let frozen = privtree_synopsis(
                &ps,
                Rect::unit(dims),
                SplitConfig::full(dims),
                Epsilon::new(1.0).unwrap(),
                &mut seeded(22),
            )
            .unwrap()
            .freeze();
            for &bins in resolutions {
                let grid = GridRoutedSynopsis::with_bins(frozen.clone(), bins).unwrap();
                let mut rng = seeded(23);
                let random: Vec<RangeQuery> = (0..120)
                    .map(|_| {
                        let mut lo = [0.0; 3];
                        let mut hi = [0.0; 3];
                        for k in 0..dims {
                            let (a, b) = (rng.random::<f64>(), rng.random::<f64>());
                            lo[k] = a.min(b);
                            hi[k] = a.max(b);
                        }
                        RangeQuery::new(Rect::new(&lo[..dims], &hi[..dims]))
                    })
                    .collect();
                assert_matches(&frozen, &grid, &random);
                assert_matches(&frozen, &grid, &few_cell_queries(grid.grid(), 400, 24));
            }
        }
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
