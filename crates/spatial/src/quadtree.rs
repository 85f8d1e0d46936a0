//! The quadtree-style [`TreeDomain`] for spatial data (Section 3).
//!
//! A node covers a box and owns a contiguous segment of a shared point
//! permutation; splitting bisects the box along `arity_log2` dimensions
//! (all of them for a true quadtree, fewer for the round-robin fanout
//! ablation of Appendix C / Figure 8) and partitions the segment in place.
//! Scores (point counts) are segment lengths — O(1) — and total memory
//! stays O(n) no matter how deep the tree grows.
//!
//! The permutation is a plain `Vec<u32>` owned by the domain (no
//! `RefCell`): [`TreeDomain::split`] takes `&mut self`, so [`QuadDomain`]
//! is `Send` and a whole frontier level can be split as one batch. The
//! segments of a frontier are pairwise disjoint and (in builder order)
//! ascending, so [`QuadDomain::split_frontier`] carves the permutation
//! into independent sub-slices and fans them out across the persistent
//! [`privtree_runtime::WorkerPool`] (deterministic: results are collected
//! in input order and no randomness is involved, so pooled builds are
//! bit-identical to sequential ones for every worker count). The shared
//! [`privtree_runtime::global`] pool engages automatically on large
//! levels; an explicit pool set via [`QuadDomain::with_pool`] is always
//! used.

use privtree_core::domain::TreeDomain;
use privtree_runtime::WorkerPool;

use crate::dataset::PointSet;
use crate::geom::Rect;

/// Splitting configuration for [`QuadDomain`].
#[derive(Debug, Clone, Copy)]
pub struct SplitConfig {
    /// Bisect `2^arity_log2` children per split. `arity_log2 = d` is the
    /// standard quadtree generalization (β = 2^d); smaller values split
    /// dimensions round-robin (Figure 8's β = 2^{d/2} and β = 2 variants).
    pub arity_log2: usize,
    /// Nodes at this depth are never split: a safety floor against
    /// unbounded recursion on coincident points. 2^-60 of the domain side
    /// is far below any meaningful resolution.
    pub depth_floor: u32,
}

impl SplitConfig {
    /// Standard full bisection: β = 2^d.
    pub fn full(dims: usize) -> Self {
        Self {
            arity_log2: dims,
            depth_floor: 60,
        }
    }

    /// Round-robin partial bisection with fanout `2^arity_log2`.
    pub fn partial(arity_log2: usize) -> Self {
        Self {
            arity_log2,
            depth_floor: 120,
        }
    }

    fn split_dims(&self, cursor: u8, dims: usize) -> Vec<usize> {
        (0..self.arity_log2)
            .map(|i| (cursor as usize + i) % dims)
            .collect()
    }
}

/// A node of the quadtree domain: a box plus a segment `[start, end)` of
/// the shared permutation, the node's depth, and the next dimension to
/// split (for round-robin fanouts).
#[derive(Debug, Clone)]
pub struct QuadNode {
    /// The region `dom(v)`.
    pub rect: Rect,
    start: u32,
    end: u32,
    depth: u32,
    axis_cursor: u8,
}

impl QuadNode {
    /// Number of data points in this node's region.
    #[inline]
    pub fn count(&self) -> usize {
        (self.end - self.start) as usize
    }
}

/// Partition one node's permutation segment by child region and emit the
/// children. Free function so batch splitting can run on disjoint
/// sub-slices without borrowing the whole domain.
fn split_segment(
    data: &PointSet,
    config: &SplitConfig,
    node: &QuadNode,
    seg: &mut [u32],
) -> Option<Vec<QuadNode>> {
    if node.depth >= config.depth_floor {
        return None;
    }
    debug_assert_eq!(seg.len(), node.count());
    let dims = config.split_dims(node.axis_cursor, data.dims());
    let child_rects = node.rect.bisect(&dims);
    let k = child_rects.len();

    // classify the node's points into children and rewrite the segment
    // grouped by child (counting sort, stable within groups)
    let mut sizes = vec![0u32; k];
    let mut labels = Vec::with_capacity(seg.len());
    for &pid in seg.iter() {
        let j = node.rect.child_index_of(&dims, data.point(pid as usize));
        labels.push(j as u8);
        sizes[j] += 1;
    }
    let mut offsets = vec![0u32; k + 1];
    for j in 0..k {
        offsets[j + 1] = offsets[j] + sizes[j];
    }
    let mut scratch = vec![0u32; seg.len()];
    let mut cursor = offsets.clone();
    for (i, &pid) in seg.iter().enumerate() {
        let j = labels[i] as usize;
        scratch[cursor[j] as usize] = pid;
        cursor[j] += 1;
    }
    seg.copy_from_slice(&scratch);

    let next_cursor = ((node.axis_cursor as usize + config.arity_log2) % data.dims()) as u8;
    Some(
        child_rects
            .into_iter()
            .enumerate()
            .map(|(j, rect)| QuadNode {
                rect,
                start: node.start + offsets[j],
                end: node.start + offsets[j + 1],
                depth: node.depth + 1,
                axis_cursor: next_cursor,
            })
            .collect(),
    )
}

/// The spatial [`TreeDomain`]. Holds the dataset by reference and owns
/// the point permutation that splits reorder in place.
pub struct QuadDomain<'a> {
    data: &'a PointSet,
    perm: Vec<u32>,
    root_rect: Rect,
    config: SplitConfig,
    pool: Option<&'a WorkerPool>,
}

impl<'a> QuadDomain<'a> {
    /// Domain over `data` with root region `root_rect`.
    pub fn new(data: &'a PointSet, root_rect: Rect, config: SplitConfig) -> Self {
        assert!(config.arity_log2 >= 1 && config.arity_log2 <= data.dims());
        assert_eq!(root_rect.dims(), data.dims());
        Self {
            data,
            perm: (0..data.len() as u32).collect(),
            root_rect,
            config,
            pool: None,
        }
    }

    /// Split frontier levels on `pool` instead of the shared global pool.
    /// An explicit pool is always used (even below the auto-parallelism
    /// size threshold), which is how the tests pin builds to specific
    /// worker counts.
    pub fn with_pool(mut self, pool: &'a WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Domain with the standard β = 2^d quadtree split.
    pub fn quadtree(data: &'a PointSet, root_rect: Rect) -> Self {
        Self::new(data, root_rect, SplitConfig::full(data.dims()))
    }

    /// The root region.
    pub fn root_rect(&self) -> Rect {
        self.root_rect
    }

    /// The dataset.
    pub fn data(&self) -> &PointSet {
        self.data
    }
}

impl TreeDomain for QuadDomain<'_> {
    type Node = QuadNode;

    fn root(&self) -> QuadNode {
        QuadNode {
            rect: self.root_rect,
            start: 0,
            end: self.data.len() as u32,
            depth: 0,
            axis_cursor: 0,
        }
    }

    fn fanout(&self) -> usize {
        1 << self.config.arity_log2
    }

    fn split(&mut self, node: &QuadNode) -> Option<Vec<QuadNode>> {
        let seg = &mut self.perm[node.start as usize..node.end as usize];
        split_segment(self.data, &self.config, node, seg)
    }

    /// Batch split: carve the permutation into the frontier's disjoint
    /// segments and process them independently. Builders present frontier
    /// nodes in arena order, which for this domain is ascending segment
    /// order; if a caller passes overlapping or unordered nodes we fall
    /// back to the sequential per-node path.
    fn split_frontier(&mut self, nodes: &[&QuadNode]) -> Vec<Option<Vec<QuadNode>>> {
        let disjoint_ascending = nodes.windows(2).all(|w| w[0].end <= w[1].start);
        if !disjoint_ascending {
            return nodes.iter().map(|n| self.split(n)).collect();
        }

        // carve pairwise-disjoint mutable sub-slices, one per node
        let mut jobs: Vec<(&QuadNode, &mut [u32])> = Vec::with_capacity(nodes.len());
        let mut rest = self.perm.as_mut_slice();
        let mut base = 0u32;
        for &node in nodes {
            let tmp = std::mem::take(&mut rest);
            let (_, tail) = tmp.split_at_mut((node.start - base) as usize);
            let (seg, tail) = tail.split_at_mut(node.count());
            jobs.push((node, seg));
            rest = tail;
            base = node.end;
        }

        run_split_jobs(self.data, &self.config, jobs, self.pool)
    }

    fn score(&self, node: &QuadNode) -> f64 {
        node.count() as f64
    }
}

/// Execute the per-segment split jobs, fanning them out across the worker
/// pool when one is available and the level carries enough work. Chunks
/// are balanced by *point* count, not node count — PrivTree levels are
/// heavily skewed (one dense segment can hold most of the data), so
/// equal-node chunks would serialize on one worker. Results are collected
/// in input order, so the output is identical to the sequential path for
/// every worker count.
fn run_split_jobs(
    data: &PointSet,
    config: &SplitConfig,
    jobs: Vec<(&QuadNode, &mut [u32])>,
    pool: Option<&WorkerPool>,
) -> Vec<Option<Vec<QuadNode>>> {
    /// The shared global pool engages only when a level moves at least
    /// this many points; an explicitly configured pool is always used.
    const PARALLEL_POINT_THRESHOLD: usize = 1 << 15;

    let total_points: usize = jobs.iter().map(|(_, seg)| seg.len()).sum();
    let explicit = pool.is_some();
    let pool = pool.unwrap_or_else(|| privtree_runtime::global());
    if pool.workers() > 1
        && jobs.len() > 1
        && (explicit || total_points >= PARALLEL_POINT_THRESHOLD)
    {
        pool.map_vec_weighted(
            jobs,
            |(_, seg)| seg.len().max(1),
            |(node, seg)| split_segment(data, config, node, seg),
        )
    } else {
        jobs.into_iter()
            .map(|(node, seg)| split_segment(data, config, node, seg))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privtree_core::domain::TreeDomain;
    use privtree_core::nonprivate::nonprivate_tree;
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

    /// The refactor's point: the domain no longer hides scratch state
    /// behind a `RefCell`, so it is `Send` (and `Sync`).
    #[test]
    fn quad_domain_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuadDomain<'static>>();
        assert_send_sync::<QuadNode>();
    }

    #[test]
    fn split_partitions_points_exactly() {
        let ps = random_points(1000, 2, 1);
        let mut dom = QuadDomain::quadtree(&ps, Rect::unit(2));
        let root = dom.root();
        assert_eq!(dom.score(&root), 1000.0);
        let kids = dom.split(&root).unwrap();
        assert_eq!(kids.len(), 4);
        let total: f64 = kids.iter().map(|k| dom.score(k)).sum();
        assert_eq!(total, 1000.0);
        // every child's points actually lie in its rect
        for child in &kids {
            for &pid in &dom.perm[child.start as usize..child.end as usize] {
                assert!(child.rect.contains_point(ps.point(pid as usize)));
            }
        }
    }

    #[test]
    fn deep_split_keeps_segments_consistent() {
        let ps = random_points(500, 2, 2);
        let mut dom = QuadDomain::quadtree(&ps, Rect::unit(2));
        // split three levels along the first child each time
        let mut node = dom.root();
        for _ in 0..3 {
            let kids = dom.split(&node).unwrap();
            // after splitting, the counts still partition the parent
            let total: usize = kids.iter().map(|k| k.count()).sum();
            assert_eq!(total, node.count());
            node = kids.into_iter().max_by_key(|k| k.count()).unwrap();
        }
        // every point in the final segment is inside its rect
        for &pid in &dom.perm[node.start as usize..node.end as usize] {
            assert!(node.rect.contains_point(ps.point(pid as usize)));
        }
    }

    /// Batch splitting a frontier gives the same children (and the same
    /// permutation) as splitting node by node.
    #[test]
    fn split_frontier_matches_sequential_splits() {
        let ps = random_points(4000, 2, 9);
        let mut batch_dom = QuadDomain::quadtree(&ps, Rect::unit(2));
        let mut seq_dom = QuadDomain::quadtree(&ps, Rect::unit(2));

        // two levels deep: frontier = all grandchildren of the root
        let root = batch_dom.root();
        let level1 = batch_dom.split(&root).unwrap();
        seq_dom.split(&seq_dom.root()).unwrap();
        let refs: Vec<&QuadNode> = level1.iter().collect();
        let batch = batch_dom.split_frontier(&refs);
        let sequential: Vec<Option<Vec<QuadNode>>> =
            level1.iter().map(|n| seq_dom.split(n)).collect();

        assert_eq!(batch.len(), sequential.len());
        for (b, s) in batch.iter().zip(&sequential) {
            let (b, s) = (b.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(b.len(), s.len());
            for (bn, sn) in b.iter().zip(s) {
                assert_eq!(bn.rect, sn.rect);
                assert_eq!((bn.start, bn.end), (sn.start, sn.end));
            }
        }
        assert_eq!(batch_dom.perm, seq_dom.perm, "permutations diverged");
    }

    #[test]
    fn split_frontier_handles_sparse_unordered_input() {
        let ps = random_points(2000, 2, 11);
        let mut dom = QuadDomain::quadtree(&ps, Rect::unit(2));
        let kids = dom.split(&dom.root()).unwrap();
        // reversed order exercises the sequential fallback
        let refs: Vec<&QuadNode> = kids.iter().rev().collect();
        let out = dom.split_frontier(&refs);
        for (node, children) in refs.iter().zip(&out) {
            let children = children.as_ref().unwrap();
            let total: usize = children.iter().map(|c| c.count()).sum();
            assert_eq!(total, node.count());
        }
    }

    #[test]
    fn round_robin_split_cycles_axes() {
        let ps = random_points(100, 4, 3);
        let mut dom = QuadDomain::new(&ps, Rect::unit(4), SplitConfig::partial(2));
        assert_eq!(dom.fanout(), 4);
        let root = dom.root();
        let kids = dom.split(&root).unwrap();
        assert_eq!(kids.len(), 4);
        // first split bisects dims {0,1}: children keep full extent in dims 2,3
        assert_eq!(kids[0].rect.side(2), 1.0);
        assert_eq!(kids[0].rect.side(3), 1.0);
        assert_eq!(kids[0].rect.side(0), 0.5);
        // next split starts at dim 2
        let gkids = dom.split(&kids[0]).unwrap();
        assert_eq!(gkids[0].rect.side(2), 0.5);
        assert_eq!(gkids[0].rect.side(0), 0.5);
    }

    #[test]
    fn depth_floor_stops_splits() {
        let ps = PointSet::from_flat(2, [0.5, 0.5].repeat(100));
        let mut dom = QuadDomain::new(
            &ps,
            Rect::unit(2),
            SplitConfig {
                arity_log2: 2,
                depth_floor: 2,
            },
        );
        let tree = nonprivate_tree(&mut dom, 0.0, None);
        assert!(tree.max_depth() <= 2);
    }

    #[test]
    fn nonprivate_quadtree_isolates_cluster() {
        // 900 points in one corner cell, 1 elsewhere; θ = 50 ⇒ the tree
        // keeps splitting the dense corner only
        let mut ps = PointSet::new(2);
        let mut rng = privtree_dp::rng::seeded(4);
        for _ in 0..900 {
            ps.push(&[rng.random::<f64>() * 0.1, rng.random::<f64>() * 0.1]);
        }
        ps.push(&[0.9, 0.9]);
        let mut dom = QuadDomain::quadtree(&ps, Rect::unit(2));
        let tree = nonprivate_tree(&mut dom, 50.0, None);
        assert!(tree.max_depth() >= 3, "depth = {}", tree.max_depth());
        // leaves partition the root count
        let leaf_total: f64 = tree.leaf_ids().map(|id| dom.score(tree.payload(id))).sum();
        assert_eq!(leaf_total, 901.0);
    }

    #[test]
    fn four_dim_quadtree_fanout_16() {
        let ps = random_points(2000, 4, 5);
        let mut dom = QuadDomain::quadtree(&ps, Rect::unit(4));
        assert_eq!(dom.fanout(), 16);
        let kids = dom.split(&dom.root()).unwrap();
        assert_eq!(kids.len(), 16);
        let total: usize = kids.iter().map(|k| k.count()).sum();
        assert_eq!(total, 2000);
    }
}
