//! Range-count queries and the synopsis-answering interface.

use crate::geom::Rect;

/// A range-count query: "how many points fall in `rect`?"
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQuery {
    /// The query rectangle `q`.
    pub rect: Rect,
}

impl RangeQuery {
    /// Wrap a rectangle as a query.
    pub fn new(rect: Rect) -> Self {
        Self { rect }
    }

    /// The fraction of the domain's volume the query covers — the paper
    /// buckets workloads into small [0.01%, 0.1%), medium [0.1%, 1%), and
    /// large [1%, 10%) by this measure.
    pub fn coverage(&self, domain: &Rect) -> f64 {
        let dv = domain.volume();
        if dv <= 0.0 {
            return 0.0;
        }
        self.rect.volume() / dv
    }
}

/// Anything that can answer range-count queries: private synopses
/// (PrivTree, SimpleTree, UG, AG, Hierarchy, Privelet, DAWA) and the exact
/// ground truth alike. Answers are real-valued because noisy counts are.
pub trait RangeCountSynopsis {
    /// Estimated number of dataset points inside `q`.
    fn answer(&self, q: &RangeQuery) -> f64;

    /// Estimated counts for a whole workload, one answer per query in
    /// order. The default loops [`RangeCountSynopsis::answer`];
    /// read-optimized implementations (see
    /// [`crate::frozen::FrozenSynopsis`]) override this to amortize
    /// traversal scratch across the batch.
    fn answer_batch(&self, queries: &[RangeQuery]) -> Vec<f64> {
        queries.iter().map(|q| self.answer(q)).collect()
    }

    /// A short method label for experiment tables.
    fn label(&self) -> &'static str {
        "synopsis"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_fraction() {
        let dom = Rect::new(&[0.0, 0.0], &[10.0, 10.0]);
        let q = RangeQuery::new(Rect::new(&[0.0, 0.0], &[1.0, 1.0]));
        assert!((q.coverage(&dom) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn trait_object_usable() {
        struct Zero;
        impl RangeCountSynopsis for Zero {
            fn answer(&self, _q: &RangeQuery) -> f64 {
                0.0
            }
        }
        let syn: Box<dyn RangeCountSynopsis> = Box::new(Zero);
        let q = RangeQuery::new(Rect::unit(2));
        assert_eq!(syn.answer(&q), 0.0);
        assert_eq!(syn.label(), "synopsis");
        // answer_batch is object-safe and defaults to looping answer
        assert_eq!(syn.answer_batch(&[q, q, q]), vec![0.0, 0.0, 0.0]);
    }
}
