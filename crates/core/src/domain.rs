//! The [`TreeDomain`] abstraction.
//!
//! Section 3.5 of the paper observes that PrivTree needs only two things
//! from its input: (i) a tree-structured way to split a domain into
//! sub-domains, and (ii) a *monotone* score function over sub-domains
//! (`score(child) ≤ score(parent)`), whose sensitivity to one tuple
//! insertion is bounded. Quadtrees with point counts (Section 3) and
//! prediction suffix trees with the Eq. (13) score (Section 4) are the two
//! instantiations shipped in this workspace; [`crate::taxonomy`] adds a
//! third.
//!
//! Splitting takes `&mut self`: domains that reorder shared scratch state
//! (the point permutation of the quadtree, the occurrence array of the
//! PST) mutate it directly instead of hiding it behind a `RefCell`, which
//! keeps every domain `Send` and lets [`TreeDomain::split_frontier`]
//! process a whole frontier level as one batch.

/// A domain that PrivTree (or SimpleTree) can decompose.
pub trait TreeDomain {
    /// Per-node payload: identifies a sub-domain and whatever bookkeeping
    /// the implementation needs to score and split it quickly (e.g. the
    /// indices of the data points it contains).
    type Node;

    /// The node covering the whole domain Ω.
    fn root(&self) -> Self::Node;

    /// The fanout β of the decomposition tree (number of children per
    /// split). For trees with variable fanout return the maximum; it is
    /// used only for parameter calibration.
    fn fanout(&self) -> usize;

    /// Split `node` into its children, or `None` if this node cannot be
    /// split (e.g. a PST node whose predictor string starts with `$`
    /// (condition C1), or a region at the resolution floor).
    ///
    /// Must be idempotent: splitting the same node twice yields the same
    /// children (the exact audits re-split nodes while enumerating
    /// shapes).
    fn split(&mut self, node: &Self::Node) -> Option<Vec<Self::Node>>;

    /// The raw score `c(v)` used in the split decision. Must be monotone
    /// along root-to-leaf paths and must change by at most the configured
    /// sensitivity when one tuple is inserted into the dataset.
    fn score(&self, node: &Self::Node) -> f64;

    /// Split every node of a frontier level as one batch, returning one
    /// entry per input in order. The default loops [`TreeDomain::split`];
    /// domains whose nodes own disjoint scratch segments override this to
    /// partition the batch (and, in `privtree-spatial`, fan the work out
    /// across the persistent `privtree-runtime` worker pool).
    fn split_frontier(&mut self, nodes: &[&Self::Node]) -> Vec<Option<Vec<Self::Node>>> {
        nodes.iter().map(|n| self.split(n)).collect()
    }

    /// Raw scores `c(v)` for a whole frontier level, one per input in
    /// order. This pass is noise-free: the builders call it *before*
    /// drawing any Laplace noise, so `Sync` domains with expensive scores
    /// (the PST's Eq. (13) histogram scans) override it to fan the reads
    /// out across the worker pool — results are collected in input order,
    /// so the level is bit-identical to the sequential loop, and the
    /// noise draws that follow stay a sequential arena-order pass.
    fn score_frontier(&self, nodes: &[&Self::Node]) -> Vec<f64> {
        nodes.iter().map(|n| self.score(n)).collect()
    }
}

/// Blanket access through mutable references, so builders can take
/// `&mut D` and callers can keep the domain afterwards.
impl<D: TreeDomain> TreeDomain for &mut D {
    type Node = D::Node;

    fn root(&self) -> Self::Node {
        (**self).root()
    }

    fn fanout(&self) -> usize {
        (**self).fanout()
    }

    fn split(&mut self, node: &Self::Node) -> Option<Vec<Self::Node>> {
        (**self).split(node)
    }

    fn score(&self, node: &Self::Node) -> f64 {
        (**self).score(node)
    }

    fn split_frontier(&mut self, nodes: &[&Self::Node]) -> Vec<Option<Vec<Self::Node>>> {
        (**self).split_frontier(nodes)
    }

    fn score_frontier(&self, nodes: &[&Self::Node]) -> Vec<f64> {
        (**self).score_frontier(nodes)
    }
}

/// A minimal 1-d test domain: points on the unit interval, regions are
/// dyadic sub-intervals, score is the point count, fanout 2.
///
/// Used by this crate's tests, the exact privacy audits, and the doc
/// examples; real applications live in `privtree-spatial` and
/// `privtree-markov`.
#[derive(Debug, Clone)]
pub struct LineDomain {
    points: Vec<f64>,
    /// Intervals narrower than this cannot be split (keeps enumeration
    /// finite in audits; `0.0` means unbounded depth).
    pub min_width: f64,
}

/// A dyadic interval `[lo, hi)` within [`LineDomain`].
#[derive(Debug, Clone, PartialEq)]
pub struct LineNode {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge.
    pub hi: f64,
}

impl LineDomain {
    /// Build from points, which must lie in `[0, 1)`.
    pub fn new(points: Vec<f64>) -> Self {
        assert!(
            points.iter().all(|p| (0.0..1.0).contains(p)),
            "points must lie in [0,1)"
        );
        Self {
            points,
            min_width: 0.0,
        }
    }

    /// Restrict splitting to intervals of at least `min_width`.
    pub fn with_min_width(mut self, min_width: f64) -> Self {
        self.min_width = min_width;
        self
    }

    /// Exact number of points in `[lo, hi)`.
    pub fn count(&self, lo: f64, hi: f64) -> usize {
        self.points.iter().filter(|p| **p >= lo && **p < hi).count()
    }
}

impl TreeDomain for LineDomain {
    type Node = LineNode;

    fn root(&self) -> LineNode {
        LineNode { lo: 0.0, hi: 1.0 }
    }

    fn fanout(&self) -> usize {
        2
    }

    fn split(&mut self, node: &LineNode) -> Option<Vec<LineNode>> {
        let width = node.hi - node.lo;
        if width / 2.0 < self.min_width {
            return None;
        }
        let mid = 0.5 * (node.lo + node.hi);
        Some(vec![
            LineNode {
                lo: node.lo,
                hi: mid,
            },
            LineNode {
                lo: mid,
                hi: node.hi,
            },
        ])
    }

    fn score(&self, node: &LineNode) -> f64 {
        self.count(node.lo, node.hi) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_domain_counts() {
        let d = LineDomain::new(vec![0.1, 0.2, 0.6, 0.61]);
        assert_eq!(d.count(0.0, 0.5), 2);
        assert_eq!(d.count(0.5, 1.0), 2);
        assert_eq!(d.count(0.6, 0.62), 2);
        let root = d.root();
        assert_eq!(d.score(&root), 4.0);
    }

    #[test]
    fn split_bisects() {
        let mut d = LineDomain::new(vec![]);
        let kids = d.split(&d.root()).unwrap();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0], LineNode { lo: 0.0, hi: 0.5 });
        assert_eq!(kids[1], LineNode { lo: 0.5, hi: 1.0 });
    }

    #[test]
    fn min_width_stops_splitting() {
        let mut d = LineDomain::new(vec![]).with_min_width(0.25);
        let kids = d.split(&d.root()).unwrap();
        let grandkids = d.split(&kids[0]).unwrap();
        assert!(d.split(&grandkids[0]).is_none());
    }

    #[test]
    fn score_is_monotone_under_split() {
        let pts: Vec<f64> = (0..100).map(|i| (i as f64) / 101.0).collect();
        let mut d = LineDomain::new(pts);
        let root = d.root();
        let kids = d.split(&root).unwrap();
        for k in &kids {
            assert!(d.score(k) <= d.score(&root));
        }
        // counts of children partition the parent's count
        let total: f64 = kids.iter().map(|k| d.score(k)).sum();
        assert_eq!(total, d.score(&root));
    }

    #[test]
    #[should_panic(expected = "points must lie in")]
    fn rejects_out_of_range_points() {
        LineDomain::new(vec![1.5]);
    }
}
