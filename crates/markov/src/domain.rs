//! The PST [`TreeDomain`]: prediction-suffix-tree contexts with the
//! Eq. (13) score.
//!
//! A node's predictor string `dom(v)` is stored reversed (`ctx\[0\]` is the
//! symbol immediately before the predicted position). Each node owns a
//! contiguous segment of a shared occurrence array of `(sequence,
//! position)` pairs: position `j` of a padded sequence belongs to node `v`
//! iff `dom(v)` matches the padded prefix ending at `j − 1`. Splitting a
//! node partitions its segment in place by the symbol one step further
//! back; occurrences whose context window ran past the sequence head
//! simply drop out (they belong to no child).
//!
//! Condition C1 of Section 4.2 — a predictor starting with `$` cannot be
//! extended — maps to `split() == None`.
//!
//! The shared occurrence array is a plain `Vec` owned by the domain (no
//! `RefCell`): splits take `&mut self` per the [`TreeDomain`] contract,
//! so [`PstDomain`] is `Send` and frontier levels can be split in batch.

use privtree_core::domain::TreeDomain;

use crate::data::SequenceDataset;

/// A PST node during construction.
#[derive(Debug, Clone)]
pub struct PstNode {
    /// The symbol this node prepended to its parent's predictor (`None`
    /// for the root). Symbol `alphabet + 1` encodes `$`.
    pub edge: Option<u8>,
    /// `true` once the predictor starts with `$` (condition C1).
    c1_blocked: bool,
    start: u32,
    end: u32,
    depth: u16,
}

impl PstNode {
    /// Number of occurrences of this node's predictor (with a following
    /// symbol) in the dataset — the magnitude `‖hist(v)‖₁`.
    pub fn occurrence_count(&self) -> usize {
        (self.end - self.start) as usize
    }
}

/// The PST domain over a [`SequenceDataset`].
pub struct PstDomain<'a> {
    data: &'a SequenceDataset,
    occ: Vec<(u32, u32)>,
}

impl<'a> PstDomain<'a> {
    /// Build the domain; the root's occurrences are every predicted
    /// position of every padded sequence.
    pub fn new(data: &'a SequenceDataset) -> Self {
        let mut occ = Vec::with_capacity(data.total_positions());
        for (i, p) in data.iter_padded().enumerate() {
            for j in 1..p.len() {
                occ.push((i as u32, j as u32));
            }
        }
        Self { data, occ }
    }

    /// The dataset.
    pub fn data(&self) -> &SequenceDataset {
        self.data
    }

    /// The prediction histogram of a node: counts over `I ∪ {&}`
    /// (index `alphabet` is `&`).
    pub fn hist(&self, node: &PstNode) -> Vec<f64> {
        let mut h = vec![0.0f64; self.data.alphabet() + 1];
        for &(seq, pos) in &self.occ[node.start as usize..node.end as usize] {
            let sym = self.data.padded(seq as usize)[pos as usize] as usize;
            debug_assert!(sym <= self.data.alphabet());
            h[sym] += 1.0;
        }
        h
    }

    /// The Eq. (13) score computed directly from a histogram.
    pub fn score_of_hist(hist: &[f64]) -> f64 {
        let total: f64 = hist.iter().sum();
        let max = hist.iter().copied().fold(0.0f64, f64::max);
        total - max
    }
}

impl TreeDomain for PstDomain<'_> {
    type Node = PstNode;

    fn root(&self) -> PstNode {
        PstNode {
            edge: None,
            c1_blocked: false,
            start: 0,
            end: self.occ.len() as u32,
            depth: 0,
        }
    }

    fn fanout(&self) -> usize {
        // |I| + 1 children: each symbol of I plus `$`
        self.data.alphabet() + 1
    }

    fn split(&mut self, node: &PstNode) -> Option<Vec<PstNode>> {
        // C1: predictors starting with $ cannot grow
        if node.c1_blocked {
            return None;
        }
        // predictors longer than any padded prefix are pointless
        if node.depth as usize > self.data.l_top() + 1 {
            return None;
        }
        let alphabet = self.data.alphabet();
        let start_sym = self.data.start_symbol();
        let k = alphabet + 1; // children: symbols 0..alphabet-1, then $
        let depth = node.depth as usize;

        let seg = &mut self.occ[node.start as usize..node.end as usize];

        // classify: child = symbol at pos − depth − 1, or drop if the
        // context window leaves the padded sequence
        let mut labels = Vec::with_capacity(seg.len());
        let mut sizes = vec![0u32; k + 1]; // last bucket = dropped
        for &(seq, pos) in seg.iter() {
            let back = pos as i64 - depth as i64 - 1;
            let label = if back < 0 {
                k
            } else {
                let sym = self.data.padded(seq as usize)[back as usize];
                if sym == start_sym {
                    alphabet // the `$` child is at index |I|
                } else {
                    sym as usize // regular symbol child (END can never
                                 // appear before another symbol)
                }
            };
            labels.push(label as u8);
            sizes[label] += 1;
        }
        let mut offsets = vec![0u32; k + 2];
        for j in 0..=k {
            offsets[j + 1] = offsets[j] + sizes[j];
        }
        let mut scratch = vec![(0u32, 0u32); seg.len()];
        let mut cursor = offsets.clone();
        for (i, &pair) in seg.iter().enumerate() {
            let j = labels[i] as usize;
            scratch[cursor[j] as usize] = pair;
            cursor[j] += 1;
        }
        seg.copy_from_slice(&scratch);

        Some(
            (0..k)
                .map(|j| {
                    let edge = if j == alphabet {
                        self.data.start_symbol()
                    } else {
                        j as u8
                    };
                    PstNode {
                        edge: Some(edge),
                        c1_blocked: j == alphabet,
                        start: node.start + offsets[j],
                        end: node.start + offsets[j + 1],
                        depth: node.depth + 1,
                    }
                })
                .collect(),
        )
    }

    fn score(&self, node: &PstNode) -> f64 {
        Self::score_of_hist(&self.hist(node))
    }

    /// Pool-backed batch scoring. Unlike the quadtree's O(1) segment
    /// lengths, the Eq. (13) score scans every occurrence of a node, so a
    /// frontier level is a real fan-out: each score is an independent
    /// noise-free read of shared state, chunked by occurrence count and
    /// collected in input order (bit-identical to the sequential loop for
    /// every worker count).
    fn score_frontier(&self, nodes: &[&PstNode]) -> Vec<f64> {
        /// Fan out only when the level scans at least this many
        /// occurrences; below it the loop is cheaper than the dispatch.
        const PARALLEL_OCC_THRESHOLD: usize = 1 << 14;

        let total: usize = nodes.iter().map(|n| n.occurrence_count()).sum();
        let pool = privtree_runtime::global();
        if pool.workers() <= 1 || nodes.len() <= 1 || total < PARALLEL_OCC_THRESHOLD {
            return nodes.iter().map(|n| self.score(n)).collect();
        }
        pool.map_vec_weighted(
            nodes.to_vec(),
            |n| n.occurrence_count().max(1),
            |n| Self::score_of_hist(&self.hist(n)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privtree_core::domain::TreeDomain;

    /// The Figure 3 dataset: s1=$B&, s2=$AB&, s3=$AAB&, s4=$AAAB& with
    /// I = {A, B} encoded as A=0, B=1.
    pub(crate) fn figure3_data() -> SequenceDataset {
        SequenceDataset::new(
            &[vec![1], vec![0, 1], vec![0, 0, 1], vec![0, 0, 0, 1]],
            2,
            50,
        )
    }

    #[test]
    fn root_histogram_matches_figure_3() {
        let data = figure3_data();
        let dom = PstDomain::new(&data);
        let root = dom.root();
        // v1: A:6 | B:4 | &:4
        assert_eq!(dom.hist(&root), vec![6.0, 4.0, 4.0]);
        // c(v1) = 14 − 6 = 8
        assert_eq!(dom.score(&root), 8.0);
    }

    #[test]
    fn first_level_histograms_match_figure_3() {
        let data = figure3_data();
        let mut dom = PstDomain::new(&data);
        let kids = dom.split(&dom.root()).unwrap();
        assert_eq!(kids.len(), 3); // A, B, $
                                   // v3: dom = A, hist A:3 | B:3 | &:0
        assert_eq!(dom.hist(&kids[0]), vec![3.0, 3.0, 0.0]);
        // v4: dom = B, hist A:0 | B:0 | &:4
        assert_eq!(dom.hist(&kids[1]), vec![0.0, 0.0, 4.0]);
        // v2: dom = $, hist A:3 | B:1 | &:0
        assert_eq!(dom.hist(&kids[2]), vec![3.0, 1.0, 0.0]);
    }

    #[test]
    fn second_level_histograms_match_figure_3() {
        let data = figure3_data();
        let mut dom = PstDomain::new(&data);
        let kids = dom.split(&dom.root()).unwrap();
        let a_kids = dom.split(&kids[0]).unwrap(); // children of dom = A
                                                   // v6: dom = AA, hist A:1 | B:2 | &:0
        assert_eq!(dom.hist(&a_kids[0]), vec![1.0, 2.0, 0.0]);
        // v7: dom = BA — never occurs: A:0 | B:0 | &:0
        assert_eq!(dom.hist(&a_kids[1]), vec![0.0, 0.0, 0.0]);
        // v5: dom = $A, hist A:2 | B:1 | &:0
        assert_eq!(dom.hist(&a_kids[2]), vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn dollar_children_are_c1_blocked() {
        let data = figure3_data();
        let mut dom = PstDomain::new(&data);
        let kids = dom.split(&dom.root()).unwrap();
        assert!(dom.split(&kids[2]).is_none(), "dom=$ must not split");
        assert!(dom.split(&kids[0]).is_some());
    }

    #[test]
    fn score_is_monotone_under_split() {
        let data = figure3_data();
        let mut dom = PstDomain::new(&data);
        let root = dom.root();
        let root_score = dom.score(&root);
        let kids = dom.split(&root).unwrap();
        for k in &kids {
            assert!(dom.score(k) <= root_score);
        }
        // and one level deeper
        for k in &kids {
            if let Some(gk) = dom.split(k) {
                for g in gk {
                    assert!(dom.score(&g) <= dom.score(k));
                }
            }
        }
    }

    #[test]
    fn child_magnitudes_do_not_exceed_parent() {
        let data = figure3_data();
        let mut dom = PstDomain::new(&data);
        let root = dom.root();
        let kids = dom.split(&root).unwrap();
        let child_sum: usize = kids.iter().map(|k| k.occurrence_count()).sum();
        // every position with a preceding symbol lands in exactly one
        // child (here all positions have one, since padding starts with $)
        assert_eq!(child_sum, root.occurrence_count());
    }

    #[test]
    fn eq13_score_properties() {
        // small magnitude ⇒ small score
        assert_eq!(PstDomain::score_of_hist(&[1.0, 0.0, 0.0]), 0.0);
        // skewed histogram ⇒ small score even with large magnitude
        assert_eq!(PstDomain::score_of_hist(&[100.0, 1.0, 1.0]), 2.0);
        // balanced histogram ⇒ large score
        assert_eq!(PstDomain::score_of_hist(&[50.0, 50.0, 50.0]), 100.0);
    }
}
