//! Gather-scatter bookkeeping for cross-source batch dispatch.
//!
//! The serve reactor decodes query batches from many connections, but
//! the worker pool is at its best answering one large batch (chunked
//! dispatch amortizes per-task overhead). A [`Coalescer`] is the queue
//! in between: `push` concatenates each source's items while
//! remembering the span they occupy, `items` hands the pool one
//! contiguous workload, and `scatter` walks the spans back out so every
//! source receives exactly its own results, in the order it queued
//! them.
//!
//! The merge is pure concatenation — item `i` of the combined batch is
//! item `i` of some source's queue — so any per-item batch operation
//! (the synopsis batch answerers are per-item and bit-identical across
//! worker counts) produces results identical to dispatching each
//! source alone.

use std::ops::Range;

/// A FIFO that concatenates per-source batches into one contiguous
/// workload and scatters the results back per source.
#[derive(Debug)]
pub struct Coalescer<K, T> {
    items: Vec<T>,
    spans: Vec<(K, Range<usize>)>,
}

impl<K, T> Default for Coalescer<K, T> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl<K, T> Coalescer<K, T> {
    /// An empty coalescer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue one source's batch under `key`. Empty batches still record
    /// a span: a source that asked for zero answers must still receive
    /// its (empty) reply in turn.
    pub fn push(&mut self, key: K, batch: Vec<T>) {
        let start = self.items.len();
        self.items.extend(batch);
        self.spans.push((key, start..self.items.len()));
    }

    /// Whether nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total queued items across all sources.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// How many per-source batches are queued.
    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    /// The combined workload, in queue order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The sources that queued batches, in queue order — for reporting
    /// a whole-dispatch failure back to every participant when there
    /// are no results to [`Coalescer::scatter`].
    pub fn sources(&self) -> impl Iterator<Item = &K> {
        self.spans.iter().map(|(key, _)| key)
    }

    /// Walk the per-source result slices back out, in queue order.
    /// `results` must hold exactly one result per queued item (the
    /// contract of every batch answerer).
    pub fn scatter<'a, R>(
        &'a self,
        results: &'a [R],
    ) -> impl Iterator<Item = (&'a K, &'a [R])> + 'a {
        assert_eq!(
            results.len(),
            self.items.len(),
            "batch dispatch must return one result per query"
        );
        self.spans
            .iter()
            .map(move |(key, span)| (key, &results[span.clone()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concatenates_and_scatters_in_queue_order() {
        let mut q: Coalescer<&str, u32> = Coalescer::new();
        assert!(q.is_empty());
        q.push("a", vec![1, 2]);
        q.push("b", vec![]);
        q.push("a", vec![3]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.spans(), 3);
        assert_eq!(q.items(), &[1, 2, 3]);

        let results: Vec<u32> = q.items().iter().map(|x| x * 10).collect();
        let scattered: Vec<(&str, Vec<u32>)> =
            q.scatter(&results).map(|(k, r)| (*k, r.to_vec())).collect();
        assert_eq!(
            scattered,
            vec![("a", vec![10, 20]), ("b", vec![]), ("a", vec![30])]
        );
    }

    #[test]
    #[should_panic(expected = "one result per query")]
    fn scatter_refuses_a_short_result_vector() {
        let mut q: Coalescer<u8, u8> = Coalescer::new();
        q.push(0, vec![1, 2, 3]);
        let _ = q.scatter(&[9u8]).count();
    }
}
