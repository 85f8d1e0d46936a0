//! Dense noisy grids with fast range-sum answering.
//!
//! Every grid-based baseline (UG, Privelet, DAWA, and the per-level grids
//! of Hierarchy) releases a value per cell of a uniform grid and answers a
//! range query as: full cells contribute their value, boundary cells
//! contribute `value · |q ∩ cell| / |cell|` (the same uniform assumption
//! PrivTree's leaves use). A d-dimensional summed-area table makes the
//! interior block O(2^d); only the boundary shell is walked cell by cell.
//!
//! Answering needs a handful of per-dimension index buffers. They live in
//! a [`GridScratch`] that [`NoisyGrid::answer_batch`] allocates once and
//! reuses across the whole workload, so grid-backed baselines (UG,
//! Privelet's and DAWA's released grids, Hierarchy's levels) serve
//! batches without per-query allocation — the same treatment the frozen
//! PrivTree read path gets.

use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};

/// Reusable per-query index buffers for [`NoisyGrid::answer_rect_with`].
/// All vectors are resized to the grid's dimensionality on use and keep
/// their capacity across queries.
#[derive(Debug, Clone, Default)]
pub struct GridScratch {
    lo_c: Vec<usize>,
    hi_c: Vec<usize>,
    partial_lo: Vec<bool>,
    partial_hi: Vec<bool>,
    int_lo: Vec<usize>,
    int_hi_excl: Vec<usize>,
    coord: Vec<usize>,
}

impl GridScratch {
    /// Fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, dims: usize) {
        self.lo_c.clear();
        self.lo_c.resize(dims, 0);
        self.hi_c.clear();
        self.hi_c.resize(dims, 0);
        self.partial_lo.clear();
        self.partial_lo.resize(dims, false);
        self.partial_hi.clear();
        self.partial_hi.resize(dims, false);
        self.int_lo.clear();
        self.int_lo.resize(dims, 0);
        self.int_hi_excl.clear();
        self.int_hi_excl.resize(dims, 0);
        self.coord.clear();
        self.coord.resize(dims, 0);
    }
}

/// The exact-histogram pass engages the shared pool only for datasets at
/// least this large; below it the scan is too cheap to amortize dispatch.
const HISTOGRAM_PARALLEL_THRESHOLD: usize = 1 << 16;

/// Exact histogram of `data` on a `bins`-per-dimension grid over `domain`
/// (row-major, dimension 0 slowest). Large datasets are scanned in chunks
/// across the shared `privtree-runtime` pool — the per-cell counts are
/// small integers, so float addition is exact in any order and the pooled
/// result is bit-identical to the sequential scan. This is
/// construction-side only: the per-cell noise draws of every grid
/// baseline stay a sequential pass in cell order, so releases are
/// unchanged.
pub fn histogram(data: &PointSet, domain: &Rect, bins: &[usize]) -> Vec<f64> {
    let pool = privtree_runtime::global();
    if pool.workers() > 1 && data.len() >= HISTOGRAM_PARALLEL_THRESHOLD {
        return histogram_with_pool(data, domain, bins, pool);
    }
    histogram_range(data, domain, bins, 0..data.len())
}

/// [`histogram`] chunked across an explicit pool: each worker scans a
/// contiguous point range into a partial histogram and the partials are
/// merged in chunk order. Bit-identical to the sequential scan for every
/// worker count (integer-valued adds are exact).
pub fn histogram_with_pool(
    data: &PointSet,
    domain: &Rect,
    bins: &[usize],
    pool: &privtree_runtime::WorkerPool,
) -> Vec<f64> {
    let ranges = privtree_runtime::chunk_ranges(data.len(), pool.workers() * 2);
    if pool.workers() <= 1 || ranges.len() <= 1 {
        return histogram_range(data, domain, bins, 0..data.len());
    }
    let partials = pool.map_vec(ranges, |r| histogram_range(data, domain, bins, r));
    let mut total = vec![0.0f64; bins.iter().product()];
    for part in partials {
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
    }
    total
}

/// The single copy of the binning scan, over one point range.
fn histogram_range(
    data: &PointSet,
    domain: &Rect,
    bins: &[usize],
    range: std::ops::Range<usize>,
) -> Vec<f64> {
    let d = data.dims();
    assert_eq!(bins.len(), d);
    let total: usize = bins.iter().product();
    let mut hist = vec![0.0f64; total];
    for i in range {
        let p = data.point(i);
        let mut idx = 0usize;
        for k in 0..d {
            let side = domain.side(k);
            let cell = if side > 0.0 {
                (((p[k] - domain.lo()[k]) / side) * bins[k] as f64) as isize
            } else {
                0
            };
            idx = idx * bins[k] + cell.clamp(0, bins[k] as isize - 1) as usize;
        }
        hist[idx] += 1.0;
    }
    hist
}

/// A released per-cell grid of (noisy) values with a summed-area table.
#[derive(Debug, Clone)]
pub struct NoisyGrid {
    domain: Rect,
    bins: Vec<usize>,
    values: Vec<f64>,
    /// padded inclusive prefix sums: `sat[i1..id]` = Σ of values over cells
    /// with coordinate vector < (i1..id); shape is `bins[k] + 1` per dim
    sat: Vec<f64>,
    sat_strides: Vec<usize>,
    label: &'static str,
}

impl NoisyGrid {
    /// Wrap released cell values (row-major, dimension 0 slowest).
    pub fn new(domain: Rect, bins: Vec<usize>, values: Vec<f64>, label: &'static str) -> Self {
        let d = bins.len();
        assert_eq!(domain.dims(), d);
        let total: usize = bins.iter().product();
        assert_eq!(values.len(), total);

        // padded SAT of shape (bins[k]+1)
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
        // cumulative sum along each dimension
        for k in 0..d {
            // iterate all indices; add predecessor along dim k
            let stride = sat_strides[k];
            let dim_len = sat_shape[k];
            // walk the array in blocks where dim k is the varying index
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
        Self {
            domain,
            bins,
            values,
            sat,
            sat_strides,
            label,
        }
    }

    /// The grid's domain.
    pub fn domain(&self) -> &Rect {
        &self.domain
    }

    /// Bins per dimension.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// Released cell values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Override the display label.
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    fn dims(&self) -> usize {
        self.bins.len()
    }

    #[inline]
    fn value_at(&self, coord: &[usize]) -> f64 {
        let idx = coord
            .iter()
            .zip(&self.bins)
            .fold(0usize, |acc, (c, b)| acc * b + c);
        self.values[idx]
    }

    /// Sum of values over the cell block `[a, b)` (per-dimension cell
    /// index ranges) via the SAT.
    fn block_sum(&self, a: &[usize], b: &[usize]) -> f64 {
        let d = self.dims();
        debug_assert!((0..d).all(|k| a[k] <= b[k] && b[k] <= self.bins[k]));
        let mut total = 0.0;
        for mask in 0..(1usize << d) {
            let mut off = 0usize;
            let mut sign = 1.0;
            for k in 0..d {
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

    /// Geometry of cell `coord`.
    fn cell_rect(&self, coord: &[usize]) -> Rect {
        let d = self.dims();
        let mut lo = vec![0.0; d];
        let mut hi = vec![0.0; d];
        for k in 0..d {
            let w = self.domain.side(k) / self.bins[k] as f64;
            lo[k] = self.domain.lo()[k] + w * coord[k] as f64;
            hi[k] = self.domain.lo()[k] + w * (coord[k] + 1) as f64;
        }
        Rect::new(&lo, &hi)
    }

    /// Answer a range query: SAT over fully covered cells plus fractional
    /// contributions from the boundary shell.
    pub fn answer_rect(&self, q: &Rect) -> f64 {
        self.answer_rect_with(q, &mut GridScratch::new())
    }

    /// [`NoisyGrid::answer_rect`] with caller-provided scratch, so a
    /// workload reuses the boundary-walk buffers across queries (see
    /// [`RangeCountSynopsis::answer_batch`] on this type).
    pub fn answer_rect_with(&self, q: &Rect, s: &mut GridScratch) -> f64 {
        let d = self.dims();
        s.reset(d);
        // overlapping cell index range [lo_c[k], hi_c[k]] inclusive, and
        // whether the low/high extreme cells are only partially covered
        let GridScratch {
            lo_c,
            hi_c,
            partial_lo,
            partial_hi,
            int_lo,
            int_hi_excl,
            coord,
        } = s;
        for k in 0..d {
            let side = self.domain.side(k);
            if side <= 0.0 {
                return 0.0;
            }
            let w = side / self.bins[k] as f64;
            let rel_lo = (q.lo()[k] - self.domain.lo()[k]) / w;
            let rel_hi = (q.hi()[k] - self.domain.lo()[k]) / w;
            if rel_hi <= 0.0 || rel_lo >= self.bins[k] as f64 || rel_lo >= rel_hi {
                return 0.0;
            }
            let a = rel_lo.floor().max(0.0) as usize;
            let b = (rel_hi.ceil() as usize).min(self.bins[k]) - 1;
            lo_c[k] = a.min(self.bins[k] - 1);
            hi_c[k] = b;
            // the extreme cells are partial iff the query edge cuts them
            partial_lo[k] = rel_lo > lo_c[k] as f64 && rel_lo > 0.0;
            partial_hi[k] = rel_hi < (hi_c[k] + 1) as f64 && rel_hi < self.bins[k] as f64;
        }

        // interior block (cells fully covered along every dimension)
        let mut interior_nonempty = true;
        for k in 0..d {
            int_lo[k] = lo_c[k] + partial_lo[k] as usize;
            let hi_excl = hi_c[k] + 1 - partial_hi[k] as usize;
            if hi_excl <= int_lo[k] {
                interior_nonempty = false;
                int_hi_excl[k] = int_lo[k];
            } else {
                int_hi_excl[k] = hi_excl;
            }
        }
        let mut total = if interior_nonempty {
            self.block_sum(int_lo, int_hi_excl)
        } else {
            0.0
        };

        // boundary shell: partition by the first dimension where the cell
        // sits at a partial edge; earlier dimensions stay interior, later
        // dimensions roam the full overlap range.
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
            for &e in &edges[..n_edges] {
                coord[k] = e;
                total += self.boundary_walk(q, k, 0, coord, int_lo, int_hi_excl, lo_c, hi_c);
            }
        }
        total
    }

    /// Recursive odometer over `dims != k`: dims before `fixed` iterate
    /// interior ranges, dims after iterate the full overlap range.
    #[allow(clippy::too_many_arguments)]
    fn boundary_walk(
        &self,
        q: &Rect,
        fixed: usize,
        dim: usize,
        coord: &mut [usize],
        int_lo: &[usize],
        int_hi_excl: &[usize],
        lo_c: &[usize],
        hi_c: &[usize],
    ) -> f64 {
        let d = self.dims();
        if dim == d {
            let cell = self.cell_rect(coord);
            let frac = cell.overlap_fraction(q);
            return self.value_at(coord) * frac;
        }
        if dim == fixed {
            return self.boundary_walk(q, fixed, dim + 1, coord, int_lo, int_hi_excl, lo_c, hi_c);
        }
        let (a, b_excl) = if dim < fixed {
            (int_lo[dim], int_hi_excl[dim])
        } else {
            (lo_c[dim], hi_c[dim] + 1)
        };
        let mut total = 0.0;
        for i in a..b_excl {
            coord[dim] = i;
            total += self.boundary_walk(q, fixed, dim + 1, coord, int_lo, int_hi_excl, lo_c, hi_c);
        }
        total
    }
}

impl RangeCountSynopsis for NoisyGrid {
    fn answer(&self, q: &RangeQuery) -> f64 {
        self.answer_rect(&q.rect)
    }

    /// One [`GridScratch`] serves the whole workload: no per-query
    /// allocation (the trait default would re-allocate the boundary-walk
    /// buffers on every call).
    fn answer_batch(&self, queries: &[RangeQuery]) -> Vec<f64> {
        let mut scratch = GridScratch::new();
        queries
            .iter()
            .map(|q| self.answer_rect_with(&q.rect, &mut scratch))
            .collect()
    }

    fn label(&self) -> &'static str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    fn random_points(n: usize, d: usize, seed: u64) -> PointSet {
        let mut rng = privtree_dp::rng::seeded(seed);
        let mut ps = PointSet::new(d);
        for _ in 0..n {
            let p: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
            ps.push(&p);
        }
        ps
    }

    #[test]
    fn histogram_totals_match() {
        let ps = random_points(1000, 2, 1);
        let h = histogram(&ps, &Rect::unit(2), &[8, 8]);
        assert_eq!(h.len(), 64);
        assert_eq!(h.iter().sum::<f64>(), 1000.0);
    }

    #[test]
    fn pooled_histogram_is_bit_identical_for_every_worker_count() {
        let ps = random_points(30_000, 2, 11);
        let bins = [16usize, 16];
        let reference = histogram(&ps, &Rect::unit(2), &bins);
        for workers in [1usize, 2, 4, 8] {
            let pool = privtree_runtime::WorkerPool::new(workers);
            let pooled = histogram_with_pool(&ps, &Rect::unit(2), &bins, &pool);
            assert_eq!(pooled.len(), reference.len());
            for (a, b) in reference.iter().zip(&pooled) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers = {workers}");
            }
        }
    }

    #[test]
    fn sat_block_sums_match_naive() {
        let ps = random_points(500, 2, 2);
        let bins = vec![7usize, 5];
        let h = histogram(&ps, &Rect::unit(2), &bins);
        let g = NoisyGrid::new(Rect::unit(2), bins.clone(), h.clone(), "test");
        for (a0, a1, b0, b1) in [(0, 0, 7, 5), (1, 2, 4, 4), (3, 0, 7, 1), (2, 2, 3, 3)] {
            let naive: f64 = (a0..b0)
                .flat_map(|i| (a1..b1).map(move |j| (i, j)))
                .map(|(i, j)| h[i * bins[1] + j])
                .sum();
            let fast = g.block_sum(&[a0, a1], &[b0, b1]);
            assert!(
                (naive - fast).abs() < 1e-9,
                "block ({a0},{a1})..({b0},{b1})"
            );
        }
    }

    /// Grid answers on an exact histogram must match brute-force counts
    /// for cell-aligned queries, and the fractional rule for others.
    #[test]
    fn aligned_queries_are_exact() {
        let ps = random_points(2000, 2, 3);
        let bins = vec![16usize, 16];
        let h = histogram(&ps, &Rect::unit(2), &bins);
        let g = NoisyGrid::new(Rect::unit(2), bins, h, "test");
        for (lo, hi) in [
            ([0.0, 0.0], [1.0, 1.0]),
            ([0.25, 0.5], [0.75, 1.0]),
            ([0.0625, 0.125], [0.5, 0.9375]),
        ] {
            let q = Rect::new(&lo, &hi);
            let truth = ps.count_in(&q) as f64;
            let est = g.answer_rect(&q);
            assert!((est - truth).abs() < 1e-9, "query {q}: {est} vs {truth}");
        }
    }

    #[test]
    fn fractional_boundary_matches_uniform_rule() {
        // single cell grid with value 10; query covering 30% of it
        let g = NoisyGrid::new(Rect::unit(2), vec![1, 1], vec![10.0], "test");
        let q = Rect::new(&[0.0, 0.0], &[0.6, 0.5]);
        assert!((g.answer_rect(&q) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unaligned_queries_match_naive_fractional_sum() {
        let ps = random_points(3000, 2, 4);
        let bins = vec![13usize, 9]; // deliberately non-dyadic
        let h = histogram(&ps, &Rect::unit(2), &bins);
        let g = NoisyGrid::new(Rect::unit(2), bins.clone(), h.clone(), "test");
        let mut rng = privtree_dp::rng::seeded(5);
        for _ in 0..100 {
            let a: f64 = rng.random();
            let b: f64 = rng.random();
            let c: f64 = rng.random();
            let d: f64 = rng.random();
            let q = Rect::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)]);
            // naive fractional sum over all cells
            let mut naive = 0.0;
            for i in 0..bins[0] {
                for j in 0..bins[1] {
                    let cell = g.cell_rect(&[i, j]);
                    naive += h[i * bins[1] + j] * cell.overlap_fraction(&q);
                }
            }
            let fast = g.answer_rect(&q);
            assert!(
                (naive - fast).abs() < 1e-6,
                "query {q}: fast {fast} vs naive {naive}"
            );
        }
    }

    #[test]
    fn unaligned_queries_match_naive_4d() {
        let ps = random_points(2000, 4, 6);
        let bins = vec![4usize, 3, 5, 4];
        let h = histogram(&ps, &Rect::unit(4), &bins);
        let g = NoisyGrid::new(Rect::unit(4), bins.clone(), h.clone(), "test");
        let mut rng = privtree_dp::rng::seeded(7);
        for _ in 0..40 {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            for _ in 0..4 {
                let a: f64 = rng.random();
                let b: f64 = rng.random();
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            let q = Rect::new(&lo, &hi);
            let mut naive = 0.0;
            let mut coord = [0usize; 4];
            for i0 in 0..bins[0] {
                for i1 in 0..bins[1] {
                    for i2 in 0..bins[2] {
                        for i3 in 0..bins[3] {
                            coord = [i0, i1, i2, i3];
                            let cell = g.cell_rect(&coord);
                            naive += g.value_at(&coord) * cell.overlap_fraction(&q);
                        }
                    }
                }
            }
            let _ = coord;
            let fast = g.answer_rect(&q);
            assert!(
                (naive - fast).abs() < 1e-6,
                "query {q}: fast {fast} vs naive {naive}"
            );
        }
    }

    #[test]
    fn answer_batch_scratch_reuse_matches_answer_bitwise() {
        use privtree_spatial::query::RangeQuery;
        let ps = random_points(2000, 2, 9);
        let bins = vec![11usize, 13];
        let h = histogram(&ps, &Rect::unit(2), &bins);
        let g = NoisyGrid::new(Rect::unit(2), bins, h, "test");
        let mut rng = privtree_dp::rng::seeded(10);
        let queries: Vec<RangeQuery> = (0..200)
            .map(|_| {
                let a: f64 = rng.random();
                let b: f64 = rng.random();
                let c: f64 = rng.random();
                let d: f64 = rng.random();
                RangeQuery::new(Rect::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)]))
            })
            .collect();
        let batch = g.answer_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(g.answer(q).to_bits(), got.to_bits());
        }
    }

    #[test]
    fn query_outside_domain_is_zero() {
        let g = NoisyGrid::new(Rect::unit(2), vec![2, 2], vec![1.0; 4], "test");
        assert_eq!(g.answer_rect(&Rect::new(&[2.0, 2.0], &[3.0, 3.0])), 0.0);
    }

    #[test]
    fn query_clipped_to_domain() {
        // value 4 spread over the unit square; a query covering the whole
        // domain plus slack outside must return the full total
        let g = NoisyGrid::new(Rect::unit(2), vec![2, 2], vec![1.0; 4], "test");
        let q = Rect::new(&[-1.0, -1.0], &[2.0, 2.0]);
        assert!((g.answer_rect(&q) - 4.0).abs() < 1e-12);
    }
}
