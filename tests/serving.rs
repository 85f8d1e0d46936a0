//! Serving-engine invariants: parallelism must never change output.
//!
//! The worker pool's contract (ordered collection of pure chunked tasks)
//! and the sharded read path's carried-accumulator traversal both promise
//! **bit-identical** results — not merely close ones. These tests pin
//! that promise across worker counts and shard sets: one shard answers
//! as its release, and releases on disjoint strips (with and without a
//! gap between them) answer as the frozen walk of their grafted tree —
//! the one decomposition whose root's children are the shard roots.

use std::collections::VecDeque;

use privtree_suite::core::params::PrivTreeParams;
use privtree_suite::core::privtree::build_privtree;
use privtree_suite::core::tree::Tree;
use privtree_suite::dp::budget::Epsilon;
use privtree_suite::dp::rng::seeded;
use privtree_suite::runtime::WorkerPool;
use privtree_suite::spatial::dataset::PointSet;
use privtree_suite::spatial::geom::Rect;
use privtree_suite::spatial::quadtree::{QuadDomain, QuadNode, SplitConfig};
use privtree_suite::spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_suite::spatial::sharded::ShardedSynopsis;
use privtree_suite::spatial::synopsis::privtree_synopsis;
use privtree_suite::spatial::FrozenSynopsis;
use proptest::prelude::*;
use rand::RngExt;

/// 2-d point set from a flat coordinate pool (odd trailing value dropped).
fn point_set(coords: &[f64]) -> PointSet {
    let n = coords.len() / 2 * 2;
    PointSet::from_flat(2, coords[..n].to_vec())
}

/// Range queries from a flat coordinate pool, four values each; every
/// third query is zero-width along one axis.
fn workload(coords: &[f64]) -> Vec<RangeQuery> {
    coords
        .chunks_exact(4)
        .enumerate()
        .map(|(i, c)| {
            let lo = [c[0].min(c[1]), c[2].min(c[3])];
            let mut hi = [c[0].max(c[1]), c[2].max(c[3])];
            if i % 3 == 2 {
                hi[i % 2] = lo[i % 2];
            }
            RangeQuery::new(Rect::new(&lo, &hi))
        })
        .collect()
}

/// The whole domain, a box around it, boxes outside it, and zero-width
/// boxes on its edges and across it.
fn edge_queries() -> Vec<RangeQuery> {
    [
        ([0.0, 0.0], [1.0, 1.0]),
        ([-1.0, -1.0], [2.0, 2.0]),
        ([1.0, 0.0], [2.0, 1.0]),
        ([-2.0, -2.0], [-1.0, -1.0]),
        ([0.5, 0.0], [0.5, 1.0]),
        ([0.0, 0.3], [1.0, 0.3]),
        ([1.0, 1.0], [1.0, 1.0]),
    ]
    .iter()
    .map(|(lo, hi)| RangeQuery::new(Rect::new(lo, hi)))
    .collect()
}

fn frozen_release(points: &PointSet, seed: u64) -> FrozenSynopsis {
    privtree_synopsis(
        points,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed),
    )
    .unwrap()
    .freeze()
}

/// One release per vertical strip of the unit square, over the points
/// that fall in it, with strip `skip` left out (a gap between strips
/// when it is an inner one; no strip is left out when `skip >= strips`).
fn strip_releases(points: &PointSet, strips: usize, skip: usize, seed: u64) -> Vec<FrozenSynopsis> {
    (0..strips)
        .filter(|&s| s != skip)
        .map(|s| {
            let (x0, x1) = (s as f64 / strips as f64, (s + 1) as f64 / strips as f64);
            let region = Rect::new(&[x0, 0.0], &[x1, 1.0]);
            let mut mine = PointSet::new(2);
            for p in points.iter().filter(|p| region.contains_point(p)) {
                mine.push(p);
            }
            privtree_synopsis(
                &mine,
                region,
                SplitConfig::full(2),
                Epsilon::new(1.0).unwrap(),
                &mut seeded(seed + s as u64),
            )
            .unwrap()
            .freeze()
        })
        .collect()
}

/// The grafted tree of a shard set: a root over the shards' bounding box
/// whose count is the shard root counts summed in order, and whose
/// children are the shard trees, in order.
fn grafted(shards: &[FrozenSynopsis]) -> FrozenSynopsis {
    let rect = |s: &FrozenSynopsis, i: usize| Rect::new(s.node_lo(i), s.node_hi(i));
    let (mut lo, mut hi) = (shards[0].node_lo(0).to_vec(), shards[0].node_hi(0).to_vec());
    for s in shards {
        for k in 0..lo.len() {
            lo[k] = lo[k].min(s.node_lo(0)[k]);
            hi[k] = hi[k].max(s.node_hi(0)[k]);
        }
    }
    let mut tree = Tree::with_root(Rect::new(&lo, &hi));
    let mut counts = vec![shards.iter().fold(0.0, |acc, s| acc + s.counts()[0])];
    let roots = tree.add_children(tree.root(), shards.iter().map(|s| rect(s, 0)).collect());
    // (shard, node in the shard, node in the grafted tree), breadth first,
    // so counts are pushed in the grafted arena's order
    let mut queue = VecDeque::new();
    for (s, id) in roots.into_iter().enumerate() {
        counts.push(shards[s].counts()[0]);
        queue.push_back((s, 0, id));
    }
    while let Some((s, i, id)) = queue.pop_front() {
        let shard = &shards[s];
        let first = shard.first_child()[i] as usize;
        let kids = first..first + shard.child_count()[i] as usize;
        if kids.is_empty() {
            continue;
        }
        let ids = tree.add_children(id, kids.clone().map(|c| rect(shard, c)).collect());
        for (c, id) in kids.zip(ids) {
            counts.push(shard.counts()[c]);
            queue.push_back((s, c, id));
        }
    }
    FrozenSynopsis::from_tree(&tree, &counts, "grafted")
}

/// Bit-level fingerprint of a built tree: every node's box and segment.
fn tree_fingerprint(tree: &Tree<QuadNode>) -> Vec<(Vec<u64>, Vec<u64>, usize)> {
    tree.ids()
        .map(|id| {
            let n = tree.payload(id);
            (
                n.rect.lo().iter().map(|x| x.to_bits()).collect(),
                n.rect.hi().iter().map(|x| x.to_bits()).collect(),
                n.count(),
            )
        })
        .collect()
}

proptest! {
    /// A release served as a one-shard synopsis answers every query with
    /// exactly the bits the unsharded frozen arena produces.
    #[test]
    fn sharded_answers_match_unsharded_exactly(
        coords in collection::vec(0.0f64..1.0, 8..400),
        qcoords in collection::vec(-0.25f64..1.25, 4..120),
        seed in 0u64..1000,
    ) {
        let ps = point_set(&coords);
        let frozen = frozen_release(&ps, seed);
        let sharded = ShardedSynopsis::from_releases(vec![frozen.clone()]).unwrap();
        for q in workload(&qcoords).iter().chain(&edge_queries()) {
            prop_assert_eq!(frozen.answer(q).to_bits(), sharded.answer(q).to_bits());
        }
    }

    /// Releases on disjoint strips, with or without a gap between them,
    /// answer every query with exactly the bits of the frozen walk of
    /// their grafted tree.
    #[test]
    fn sharded_answers_match_grafted_tree_exactly(
        coords in collection::vec(0.0f64..1.0, 8..600),
        qcoords in collection::vec(-0.25f64..1.25, 4..120),
        seed in 0u64..1000,
        strips in 2usize..6,
        skip in 0usize..8,
    ) {
        let shards = strip_releases(&point_set(&coords), strips, skip, seed);
        let tree = grafted(&shards);
        let sharded = ShardedSynopsis::from_releases(shards).unwrap();
        for q in workload(&qcoords).iter().chain(&edge_queries()) {
            let (a, b) = (tree.answer(q), sharded.answer(q));
            prop_assert!(a.to_bits() == b.to_bits(), "{} vs {} on {}", a, b, q.rect);
        }
    }

    /// Pool-backed batch answering is bit-identical to the sequential
    /// loop for every worker count, on both read engines (the sharded
    /// one over four strips).
    #[test]
    fn pooled_batches_bit_identical_across_worker_counts(
        coords in collection::vec(0.0f64..1.0, 8..400),
        qcoords in collection::vec(0.0f64..1.0, 4..160),
        seed in 0u64..1000,
    ) {
        let ps = point_set(&coords);
        let frozen = frozen_release(&ps, seed);
        let sharded = ShardedSynopsis::from_releases(strip_releases(&ps, 4, 4, seed)).unwrap();
        let queries = workload(&qcoords);
        let frozen_ref: Vec<u64> = frozen
            .answer_batch_sequential(&queries)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let sharded_ref: Vec<u64> = sharded
            .answer_batch_sequential(&queries)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let f: Vec<u64> = frozen
                .answer_batch_with_pool(&queries, &pool)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            prop_assert!(f == frozen_ref, "frozen batch diverged at workers = {}", workers);
            let s: Vec<u64> = sharded
                .answer_batch_with_pool(&queries, &pool)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            prop_assert!(s == sharded_ref, "sharded batch diverged at workers = {}", workers);
        }
    }

    /// Pool-backed frontier builds produce bit-identical trees for every
    /// worker count (an explicit pool always engages, bypassing the
    /// large-level threshold, so this exercises the pooled path even on
    /// small inputs).
    #[test]
    fn pooled_builds_bit_identical_across_worker_counts(
        coords in collection::vec(0.0f64..1.0, 8..600),
        seed in 0u64..1000,
    ) {
        let ps = point_set(&coords);
        let params = PrivTreeParams::from_epsilon(Epsilon::new(1.0).unwrap(), 4).unwrap();
        let reference = {
            let pool = WorkerPool::new(1);
            let mut dom = QuadDomain::quadtree(&ps, Rect::unit(2)).with_pool(&pool);
            tree_fingerprint(&build_privtree(&mut dom, &params, &mut seeded(seed)).unwrap())
        };
        for workers in [2usize, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut dom = QuadDomain::quadtree(&ps, Rect::unit(2)).with_pool(&pool);
            let tree = build_privtree(&mut dom, &params, &mut seeded(seed)).unwrap();
            prop_assert!(
                tree_fingerprint(&tree) == reference,
                "build diverged at workers = {}",
                workers
            );
        }
    }
}

/// The trait-level `answer_batch` (which may engage the shared global
/// pool on workloads this large) agrees bitwise with the sequential path.
#[test]
fn trait_answer_batch_matches_sequential_on_large_workload() {
    let mut rng = seeded(77);
    let mut ps = PointSet::new(2);
    for _ in 0..20_000 {
        ps.push(&[rng.random::<f64>() * 0.3, rng.random::<f64>() * 0.3 + 0.5]);
    }
    let frozen = frozen_release(&ps, 78);
    let sharded = ShardedSynopsis::from_releases(strip_releases(&ps, 4, 4, 78)).unwrap();
    let queries: Vec<RangeQuery> = (0..2048)
        .map(|_| {
            let cx = rng.random::<f64>() * 0.9;
            let cy = rng.random::<f64>() * 0.9;
            let w = 0.01 + rng.random::<f64>() * 0.3;
            RangeQuery::new(Rect::new(
                &[cx, cy],
                &[(cx + w).min(1.0), (cy + w).min(1.0)],
            ))
        })
        .collect();
    for (auto, seq) in frozen
        .answer_batch(&queries)
        .iter()
        .zip(frozen.answer_batch_sequential(&queries))
    {
        assert_eq!(auto.to_bits(), seq.to_bits());
    }
    for (auto, seq) in sharded
        .answer_batch(&queries)
        .iter()
        .zip(sharded.answer_batch_sequential(&queries))
    {
        assert_eq!(auto.to_bits(), seq.to_bits());
    }
}

/// A multi-release deployment: four quadrant releases served as shards
/// answer quadrant-local queries exactly as the standalone releases do.
#[test]
fn multi_release_sharding_routes_correctly() {
    let quadrants = [
        Rect::new(&[0.0, 0.0], &[0.5, 0.5]),
        Rect::new(&[0.5, 0.0], &[1.0, 0.5]),
        Rect::new(&[0.0, 0.5], &[0.5, 1.0]),
        Rect::new(&[0.5, 0.5], &[1.0, 1.0]),
    ];
    let mut releases = Vec::new();
    for (i, region) in quadrants.iter().enumerate() {
        let mut rng = seeded(100 + i as u64);
        let mut ps = PointSet::new(2);
        for _ in 0..2000 {
            ps.push(&[
                region.lo()[0] + rng.random::<f64>() * region.side(0),
                region.lo()[1] + rng.random::<f64>() * region.side(1),
            ]);
        }
        releases.push(
            privtree_synopsis(
                &ps,
                *region,
                SplitConfig::full(2),
                Epsilon::new(1.0).unwrap(),
                &mut seeded(200 + i as u64),
            )
            .unwrap()
            .freeze(),
        );
    }
    let sharded = ShardedSynopsis::from_releases(releases.clone()).unwrap();
    assert_eq!(sharded.shard_count(), 4);
    let mut rng = seeded(300);
    for (release, region) in releases.iter().zip(&quadrants) {
        for _ in 0..50 {
            let cx = region.lo()[0] + rng.random::<f64>() * region.side(0) * 0.8;
            let cy = region.lo()[1] + rng.random::<f64>() * region.side(1) * 0.8;
            let w = rng.random::<f64>() * 0.1;
            let q = RangeQuery::new(Rect::new(
                &[cx, cy],
                &[(cx + w).min(region.hi()[0]), (cy + w).min(region.hi()[1])],
            ));
            // a query inside one region is answered by that shard alone
            assert_eq!(sharded.answer(&q).to_bits(), release.answer(&q).to_bits());
        }
    }
}
