//! Epoch lifecycle invariants: any add/swap/retire history answers like a
//! from-scratch build of the surviving shard set, and published snapshots
//! are immutable.
//!
//! The store's determinism contract (see the `privtree-engine` crate
//! docs) is that the catalog is canonicalized by key, so the *history* of
//! mutations can never leak into answers: only the surviving set matters.
//! These tests drive arbitrary operation sequences against real PrivTree
//! releases — with and without per-shard grids — and compare every
//! answer **bitwise** against `ShardedSynopsis::from_releases` of the
//! survivors. The incremental-rebuild instrumentation ([`SwapReport`])
//! is pinned as well: one swap builds one grid, and every untouched
//! shard is shared by `Arc` pointer.

use std::collections::BTreeMap;
use std::sync::Arc;

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_engine::{EngineError, ReleaseStore, SwapReport};
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_spatial::sharded::ShardedSynopsis;
use privtree_spatial::FrozenSynopsis;
use proptest::prelude::*;
use rand::RngExt;

const REGIONS: usize = 4;

/// Vertical strip `i` of the unit square.
fn region(i: usize) -> Rect {
    Rect::new(&[i as f64 * 0.25, 0.0], &[(i as f64 + 1.0) * 0.25, 1.0])
}

/// A real PrivTree release over strip `i`, varying with `seed` (epoch).
fn release(i: usize, seed: u64, points: usize) -> FrozenSynopsis {
    let r = region(i);
    let mut rng = seeded(seed.wrapping_mul(31).wrapping_add(i as u64));
    let mut ps = PointSet::new(2);
    for _ in 0..points {
        ps.push(&[
            r.lo()[0] + rng.random::<f64>() * r.side(0),
            rng.random::<f64>().powi(2), // denser near y = 0
        ]);
    }
    privtree_synopsis_frozen(&ps, r, seed)
}

fn privtree_synopsis_frozen(ps: &PointSet, domain: Rect, seed: u64) -> FrozenSynopsis {
    privtree_spatial::synopsis::privtree_synopsis(
        ps,
        domain,
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 0x9e3779b9),
    )
    .unwrap()
    .freeze()
}

fn workload(n: usize, seed: u64) -> Vec<RangeQuery> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| {
            let (a, b) = (rng.random::<f64>(), rng.random::<f64>());
            let (c, d) = (rng.random::<f64>(), rng.random::<f64>());
            RangeQuery::new(Rect::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)]))
        })
        .collect()
}

/// Rebuild the surviving shard set from scratch, in the store's canonical
/// (sorted key) order.
fn fresh_rebuild(model: &BTreeMap<String, FrozenSynopsis>, gridded: bool) -> ShardedSynopsis {
    let sharded = ShardedSynopsis::from_releases(model.values().cloned().collect()).unwrap();
    if gridded {
        sharded.with_shard_grids().unwrap()
    } else {
        sharded
    }
}

proptest! {
    /// Any add/swap/retire sequence answers bit-identically to a fresh
    /// `from_releases` of the surviving shard set — ungridded and gridded.
    #[test]
    fn histories_answer_like_fresh_builds(
        ops in collection::vec(0u64..100_000, 1..7),
        gridded in 0u8..2,
        qseed in 0u64..1000,
    ) {
        let gridded = gridded == 1;
        let points = 150;
        let mut model: BTreeMap<String, FrozenSynopsis> = BTreeMap::new();
        let mut initial: Vec<(String, FrozenSynopsis)> = Vec::new();
        for i in 0..2 {
            let rel = release(i, 1, points);
            model.insert(format!("r{i}"), rel.clone());
            initial.push((format!("r{i}"), rel));
        }
        let store = if gridded {
            ReleaseStore::open_gridded(initial)
        } else {
            ReleaseStore::open(initial)
        }
        .unwrap();

        for &op in &ops {
            let kind = op % 3;
            let i = (op as usize / 3) % REGIONS;
            let epoch = op / 12;
            let key = format!("r{i}");
            match kind {
                // 0/1: install a fresh epoch for region i (add or swap,
                // whichever the catalog state calls for)
                0 | 1 => {
                    let rel = release(i, epoch, points);
                    let report = if model.contains_key(&key) {
                        store.swap(&key, rel.clone())
                    } else {
                        store.add(&key, rel.clone())
                    };
                    report.unwrap();
                    model.insert(key, rel);
                }
                // 2: retire region i when possible
                _ => {
                    if model.len() > 1 && model.contains_key(&key) {
                        store.retire(&key).unwrap();
                        model.remove(&key);
                    } else if !model.contains_key(&key) {
                        prop_assert_eq!(
                            store.retire(&key).unwrap_err(),
                            EngineError::UnknownKey(key)
                        );
                    } else {
                        prop_assert_eq!(
                            store.retire(&key).unwrap_err(),
                            EngineError::WouldBeEmpty
                        );
                    }
                }
            }
        }

        let snap = store.snapshot();
        let keys: Vec<&str> = model.keys().map(|k| k.as_str()).collect();
        prop_assert_eq!(snap.keys().iter().map(|k| k.as_str()).collect::<Vec<_>>(), keys);
        let fresh = fresh_rebuild(&model, gridded);
        for q in workload(60, qseed) {
            let a = snap.answer(&q);
            let b = fresh.answer(&q);
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "history diverged from fresh build: {} vs {} on {} (gridded={})",
                a,
                b,
                q.rect,
                gridded
            );
        }
        // batch path agrees with the single-query path bitwise
        let queries = workload(60, qseed ^ 1);
        let batch = snap.answer_batch(&queries);
        for (q, got) in queries.iter().zip(&batch) {
            prop_assert_eq!(snap.answer(q).to_bits(), got.to_bits());
        }
    }

    /// A snapshot taken before a swap keeps answering the old epoch's
    /// exact bits afterwards, while new snapshots serve the new epoch.
    #[test]
    fn old_snapshots_survive_swaps_unchanged(
        epoch in 1u64..500,
        gridded in 0u8..2,
        qseed in 0u64..1000,
    ) {
        let gridded = gridded == 1;
        let initial: Vec<(String, FrozenSynopsis)> = (0..3)
            .map(|i| (format!("r{i}"), release(i, 0, 150)))
            .collect();
        let store = if gridded {
            ReleaseStore::open_gridded(initial)
        } else {
            ReleaseStore::open(initial)
        }
        .unwrap();
        let queries = workload(50, qseed);
        let before = store.snapshot();
        let before_answers: Vec<u64> =
            queries.iter().map(|q| before.answer(q).to_bits()).collect();
        store.swap("r1", release(1, epoch, 150)).unwrap();
        store.retire("r2").unwrap();
        for (q, &expect) in queries.iter().zip(&before_answers) {
            prop_assert!(
                before.answer(q).to_bits() == expect,
                "retained snapshot changed after swap/retire"
            );
        }
        let after = store.snapshot();
        prop_assert_eq!(after.version(), before.version() + 2);
        prop_assert_eq!(after.shard_count(), 2);
    }
}

/// One swap in a gridded 4-shard store rebuilds exactly one grid; every
/// other shard — arena *and* grid — is adopted by pointer. This is the
/// incremental-swap acceptance proof.
#[test]
fn swap_rebuilds_only_the_touched_shard() {
    let store =
        ReleaseStore::open_gridded((0..REGIONS).map(|i| (format!("r{i}"), release(i, 0, 400))))
            .unwrap();
    let opened = store.stats();
    assert_eq!(opened.grids_built as usize, REGIONS);

    let before = store.snapshot();
    let replacement = release(2, 7, 400);
    let report: SwapReport = store.swap("r2", replacement).unwrap();

    // instrumentation: one grid, three reuses
    assert_eq!(report.grids_built, 1, "only the swapped shard's grid");
    assert_eq!(report.shards_reused, REGIONS - 1);
    assert_eq!(store.stats().grids_built as usize, REGIONS + 1);
    let after = store.snapshot();
    let swapped = after.keys().iter().position(|k| k == "r2").unwrap();
    assert_eq!(
        report.grid_cells_built,
        after.synopsis().shards()[swapped].grid().unwrap().cells(),
        "cells built == the swapped shard's grid, nothing more"
    );

    // pointer proof: untouched shards share arenas and grids
    for (i, key) in after.keys().iter().enumerate() {
        let j = before.keys().iter().position(|k| k == key).unwrap();
        let (old, new) = (
            &before.synopsis().shards()[j],
            &after.synopsis().shards()[i],
        );
        if key == "r2" {
            assert!(!Arc::ptr_eq(old.arena_arc(), new.arena_arc()));
        } else {
            assert!(Arc::ptr_eq(old.arena_arc(), new.arena_arc()));
            assert!(Arc::ptr_eq(old.grid().unwrap(), new.grid().unwrap()));
        }
    }

    // and the incrementally swapped snapshot still equals a from-scratch
    // gridded rebuild, bit for bit
    let model: BTreeMap<String, FrozenSynopsis> = after
        .keys()
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), after.synopsis().shards()[i].arena().clone()))
        .collect();
    let fresh = fresh_rebuild(&model, true);
    for q in workload(300, 99) {
        assert_eq!(
            after.answer(&q).to_bits(),
            fresh.answer(&q).to_bits(),
            "incremental swap diverged from scratch rebuild on {}",
            q.rect
        );
    }
}

/// Ungriddable releases (inconsistent counts) are rejected by a gridded
/// store without disturbing the published snapshot.
#[test]
fn gridded_store_rejects_ungriddable_releases() {
    use privtree_core::tree::Tree;
    let store =
        ReleaseStore::open_gridded((0..2).map(|i| (format!("r{i}"), release(i, 0, 200)))).unwrap();
    let before = store.snapshot();
    // a two-level release whose root count disagrees with its children
    let mut tree = Tree::with_root(region(2));
    let kids = region(2).bisect(&[0, 1]);
    tree.add_children(tree.root(), kids);
    let inconsistent =
        FrozenSynopsis::from_tree(&tree, &[100.0, 1.0, 1.0, 1.0, 1.0], "inconsistent");
    match store.add("r2", inconsistent) {
        Err(EngineError::Grid(_)) => {}
        other => panic!("expected a grid error, got {other:?}"),
    }
    let after = store.snapshot();
    assert_eq!(after.version(), before.version());
    assert_eq!(after.shard_count(), 2);
}
