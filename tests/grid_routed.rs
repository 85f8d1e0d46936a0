//! Grid-routed serving invariants: the accelerator must be invisible.
//!
//! A shard carrying a [`CellGrid`] answers with a summed-area interior
//! block plus cell-anchored boundary-shell traversals. Every engine here
//! is the one the server runs: a release and its grid served as a
//! one-shard [`ShardedSynopsis`]. These tests pin the two contracts of
//! `crates/spatial/src/grid_route.rs`:
//!
//! * **whole answers** equal the plain frozen traversal to ≤ 1e-9
//!   (relative), for every release, resolution (including 1×1 and
//!   resolutions coarser/finer than the leaves), query shape (empty,
//!   degenerate, full-domain), and dimensionality;
//! * **anchored traversals are bit-identical** to root traversals of the
//!   same box whenever the entry node covers it — the property the
//!   boundary shell is built on.

use privtree_suite::datagen::spatial::road_like;
use privtree_suite::datagen::workload::{range_queries, QuerySize};
use privtree_suite::dp::budget::Epsilon;
use privtree_suite::dp::rng::seeded;
use privtree_suite::runtime::WorkerPool;
use privtree_suite::spatial::dataset::PointSet;
use privtree_suite::spatial::geom::Rect;
use privtree_suite::spatial::grid_route::{CellGrid, GridRouteError};
use privtree_suite::spatial::quadtree::SplitConfig;
use privtree_suite::spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_suite::spatial::serialize::{release_from_text, release_to_text};
use privtree_suite::spatial::sharded::{ShardHandle, ShardedSynopsis};
use privtree_suite::spatial::synopsis::{privtree_synopsis, simple_tree_synopsis};
use privtree_suite::spatial::FrozenSynopsis;
use proptest::prelude::*;
use rand::RngExt;

fn point_set(dims: usize, coords: &[f64]) -> PointSet {
    let n = coords.len() / dims * dims;
    PointSet::from_flat(dims, coords[..n].to_vec())
}

fn release(dims: usize, points: &PointSet, seed: u64) -> FrozenSynopsis {
    privtree_synopsis(
        points,
        Rect::unit(dims),
        SplitConfig::full(dims),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed),
    )
    .unwrap()
    .freeze()
}

/// `frozen` and `grid` served as the server serves a gridded release:
/// one shard.
fn one_shard(frozen: FrozenSynopsis, grid: CellGrid) -> ShardedSynopsis {
    ShardedSynopsis::from_handles(vec![ShardHandle::from_release(frozen, Some(grid))]).unwrap()
}

/// [`one_shard`] with a grid of `bins` built on the shared pool.
fn served(frozen: &FrozenSynopsis, bins: &[usize]) -> ShardedSynopsis {
    let grid = CellGrid::build(frozen, bins, Some(privtree_suite::runtime::global())).unwrap();
    one_shard(frozen.clone(), grid)
}

/// Queries from a flat pool, `2 * dims` values each; every third query is
/// degenerated to zero width along one axis, exercising the fallback.
fn workload(dims: usize, coords: &[f64]) -> Vec<RangeQuery> {
    coords
        .chunks_exact(2 * dims)
        .enumerate()
        .map(|(i, c)| {
            let mut lo = Vec::with_capacity(dims);
            let mut hi = Vec::with_capacity(dims);
            for k in 0..dims {
                let (a, b) = (c[2 * k], c[2 * k + 1]);
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            if i % 3 == 2 {
                hi[i % dims] = lo[i % dims]; // zero-width
            }
            RangeQuery::new(Rect::new(&lo, &hi))
        })
        .collect()
}

fn assert_close(frozen: &FrozenSynopsis, grid: &ShardedSynopsis, q: &RangeQuery) {
    let a = frozen.answer(q);
    let b = grid.answer(q);
    let tol = 1e-9 * a.abs().max(1.0);
    assert!(
        (a - b).abs() <= tol,
        "frozen {a} vs grid-routed {b} on {}",
        q.rect
    );
}

proptest! {
    /// Grid-routed answers equal the plain frozen traversal for random
    /// 2-d releases, random resolutions from 1×1 up to well past the
    /// leaf scale, and queries including degenerate and out-of-domain
    /// boxes.
    #[test]
    fn grid_routed_matches_frozen(
        coords in proptest::collection::vec(0.0f64..1.0, 8..400),
        qcoords in proptest::collection::vec(-0.2f64..1.2, 8..160),
        seed in 0u64..1000,
        bins_x in 1usize..96,
        bins_y in 1usize..96,
    ) {
        let frozen = release(2, &point_set(2, &coords), seed);
        let grid = served(&frozen, &[bins_x, bins_y]);
        for q in workload(2, &qcoords) {
            let a = frozen.answer(&q);
            let b = grid.answer(&q);
            let tol = 1e-9 * a.abs().max(1.0);
            prop_assert!((a - b).abs() <= tol, "{} vs {} on {}", a, b, q.rect);
        }
        // the full domain answers with the root count, exactly
        let whole = RangeQuery::new(Rect::unit(2));
        prop_assert_eq!(frozen.answer(&whole).to_bits(), grid.answer(&whole).to_bits());
    }

    /// Anchored entry is bit-identical to the root traversal for any
    /// box the anchor's cell contains — the boundary-shell contract.
    #[test]
    fn anchored_traversals_bit_identical(
        coords in proptest::collection::vec(0.0f64..1.0, 8..400),
        cell_pool in proptest::collection::vec(0.0f64..1.0, 6..240),
        seed in 0u64..1000,
    ) {
        let frozen = release(2, &point_set(2, &coords), seed);
        let grid = CellGrid::build(&frozen, &[31, 17], None).unwrap();
        for chunk in cell_pool.chunks_exact(6) {
            let (cx, cy) = ((chunk[0] * 31.0) as usize % 31, (chunk[1] * 17.0) as usize % 17);
            let (a, b, c, d) = (chunk[2], chunk[3], chunk[4], chunk[5]);
            let cell = grid.cell_rect(&[cx, cy]);
            let lo = [
                cell.lo()[0] + a.min(b) * cell.side(0),
                cell.lo()[1] + c.min(d) * cell.side(1),
            ];
            let hi = [
                cell.lo()[0] + a.max(b) * cell.side(0),
                cell.lo()[1] + c.max(d) * cell.side(1),
            ];
            let q = RangeQuery::new(Rect::new(&lo, &hi));
            let anchor = grid.anchor_at(&[cx, cy]) as usize;
            prop_assert!(
                frozen.answer(&q).to_bits() == frozen.answer_from(anchor, &q).to_bits(),
                "anchored entry diverged at cell ({}, {})",
                cx,
                cy
            );
        }
    }

    /// Every batch path — sequential, pool-chunked at any worker count,
    /// and the trait's automatic dispatch — returns exactly the bits of
    /// the single-query path.
    #[test]
    fn batch_paths_bit_identical(
        coords in proptest::collection::vec(0.0f64..1.0, 8..300),
        qcoords in proptest::collection::vec(0.0f64..1.0, 8..200),
        seed in 0u64..1000,
        workers in 1usize..5,
    ) {
        let frozen = release(2, &point_set(2, &coords), seed);
        let grid = served(&frozen, &CellGrid::default_bins(&frozen));
        let queries = workload(2, &qcoords);
        let reference: Vec<u64> = queries.iter().map(|q| grid.answer(q).to_bits()).collect();
        let check = |label: &str, got: Vec<f64>| {
            let bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, reference, "{label}");
        };
        check("sequential", grid.answer_batch_sequential(&queries));
        check("auto", grid.answer_batch(&queries));
        let pool = WorkerPool::new(workers);
        check("pooled", grid.answer_batch_with_pool(&queries, &pool));
    }
}

/// Higher-dimensional domains: the interior/boundary split, anchored
/// and anchored traversals are all dimension-generic.
#[test]
fn three_and_four_dim_domains_match_frozen() {
    for (dims, bins) in [(3usize, vec![7usize, 4, 9]), (4, vec![3, 4, 2, 5])] {
        let mut rng = seeded(dims as u64);
        let mut ps = PointSet::new(dims);
        for _ in 0..4000 {
            let p: Vec<f64> = (0..dims)
                .map(|k| {
                    if k == 0 {
                        rng.random::<f64>() * 0.3
                    } else {
                        rng.random::<f64>()
                    }
                })
                .collect();
            ps.push(&p);
        }
        let frozen = release(dims, &ps, 77 + dims as u64);
        let grid = served(&frozen, &bins);
        let mut rng = seeded(99 + dims as u64);
        for _ in 0..150 {
            let mut lo = Vec::with_capacity(dims);
            let mut hi = Vec::with_capacity(dims);
            for _ in 0..dims {
                let (a, b) = (rng.random::<f64>(), rng.random::<f64>());
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            assert_close(&frozen, &grid, &RangeQuery::new(Rect::new(&lo, &hi)));
        }
        // degenerate and full-domain queries stay bit-exact (fallback)
        let whole = RangeQuery::new(Rect::unit(dims));
        assert_eq!(
            frozen.answer(&whole).to_bits(),
            grid.answer(&whole).to_bits()
        );
    }
}

/// The benchmark's release shape: a deep, skewed road-like release at
/// the serving benchmark's smoke scale (≈24.6k nodes on the default
/// 256×256 grid), under the three Section 6.1 query classes.
#[test]
fn road_release_matches_frozen() {
    let frozen = release(2, &road_like(204_270, 0xda7a), 401);
    let grid = served(&frozen, &CellGrid::default_bins(&frozen));
    assert_eq!(grid.shard_grids().unwrap()[0].bins(), &[256, 256]);
    for size in QuerySize::all() {
        for q in range_queries(&Rect::unit(2), size, 1000, 17) {
            assert_close(&frozen, &grid, &q);
        }
    }
}

/// SimpleTree's per-node counts are independently noisy (inconsistent),
/// so the build must refuse them rather than serve wrong interiors.
#[test]
fn inconsistent_counts_are_refused() {
    let mut rng = seeded(5);
    let mut ps = PointSet::new(2);
    for _ in 0..3000 {
        ps.push(&[rng.random::<f64>() * 0.4, rng.random::<f64>() * 0.4]);
    }
    let frozen = simple_tree_synopsis(
        &ps,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        5,
        30.0,
        &mut seeded(6),
    )
    .unwrap()
    .freeze();
    let bins = CellGrid::default_bins(&frozen);
    assert!(matches!(
        CellGrid::build(&frozen, &bins, Some(privtree_suite::runtime::global())),
        Err(GridRouteError::InconsistentCounts { .. })
    ));
}

/// Sharded serving with per-shard grids agrees with the plain sharded
/// engine (and therefore with the unsharded arena) to ≤ 1e-9.
#[test]
fn sharded_with_grids_matches_plain() {
    let mut rng = seeded(7);
    let mut ps = PointSet::new(2);
    for i in 0..8000 {
        if i % 4 == 0 {
            ps.push(&[rng.random::<f64>(), rng.random::<f64>()]);
        } else {
            ps.push(&[
                0.6 + rng.random::<f64>() * 0.1,
                0.2 + rng.random::<f64>() * 0.1,
            ]);
        }
    }
    let frozen = release(2, &ps, 8);
    let plain = ShardedSynopsis::from_frozen(&frozen, 2).unwrap();
    let gridded = ShardedSynopsis::from_frozen(&frozen, 2)
        .unwrap()
        .with_shard_grids()
        .unwrap();
    let mut rng = seeded(9);
    for _ in 0..300 {
        let (a, b) = (rng.random::<f64>(), rng.random::<f64>());
        let (c, d) = (rng.random::<f64>(), rng.random::<f64>());
        let q = RangeQuery::new(Rect::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)]));
        let x = plain.answer(&q);
        let y = gridded.answer(&q);
        let tol = 1e-9 * x.abs().max(1.0);
        assert!((x - y).abs() <= tol, "{x} vs {y} on {}", q.rect);
    }
}

/// A serialized grid-routed release answers bit-identically after a
/// round trip (the grid section ships the precomputation).
#[test]
fn serialized_grid_round_trips_bitwise() {
    let mut rng = seeded(11);
    let mut ps = PointSet::new(2);
    for _ in 0..5000 {
        ps.push(&[rng.random::<f64>() * 0.5, 0.3 + rng.random::<f64>() * 0.5]);
    }
    let frozen = release(2, &ps, 12);
    let grid =
        CellGrid::build(&frozen, &[13, 11], Some(privtree_suite::runtime::global())).unwrap();
    let text = release_to_text(&frozen, Some(&grid));
    let (arena, shipped) = release_from_text(&text).unwrap();
    let back = one_shard(arena, shipped.expect("grid section shipped"));
    let grid = one_shard(frozen, grid);
    let mut rng = seeded(13);
    for _ in 0..200 {
        let (a, b) = (rng.random::<f64>(), rng.random::<f64>());
        let (c, d) = (rng.random::<f64>(), rng.random::<f64>());
        let q = RangeQuery::new(Rect::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)]));
        assert_eq!(grid.answer(&q).to_bits(), back.answer(&q).to_bits());
    }
}
