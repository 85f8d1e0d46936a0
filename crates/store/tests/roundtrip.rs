//! The losslessness contract of `privtree-bin v1`: for random PrivTree
//! releases — gridded and ungridded — the binary path reproduces the
//! text path **exactly**. Text→binary→load answers every query with the
//! same bits as text→load, the decoded arrays equal the encoded ones,
//! and binary→text→binary is byte-identical (the text format's
//! 17-significant-digit rendering round-trips every `f64`).

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::grid_route::CellGrid;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_spatial::serialize::{release_from_text, release_to_text};
use privtree_spatial::sharded::{ShardHandle, ShardedSynopsis};
use privtree_spatial::FrozenSynopsis;
use privtree_store::{
    binary_to_text, decode_release, encode_release, text_to_binary, Catalog, ReleaseFormat,
};
use proptest::prelude::*;
use rand::RngExt;

/// A real PrivTree release over the unit square, shaped by `seed`.
fn sample_release(seed: u64, points: usize) -> FrozenSynopsis {
    let mut rng = seeded(seed);
    let mut ps = PointSet::new(2);
    for _ in 0..points {
        ps.push(&[rng.random::<f64>().powi(2), rng.random::<f64>() * 0.8]);
    }
    privtree_spatial::synopsis::privtree_synopsis(
        &ps,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 0x5151),
    )
    .unwrap()
    .freeze()
}

/// A grid of `bins` over `arena`, built on the shared pool.
fn build_grid(arena: &FrozenSynopsis, bins: &[usize]) -> CellGrid {
    CellGrid::build(arena, bins, Some(privtree_runtime::global())).unwrap()
}

/// `arena` and `grid` served the way the engine serves them: one
/// gridded shard.
fn served(arena: &FrozenSynopsis, grid: &CellGrid) -> ShardedSynopsis {
    let handle = ShardHandle::from_release(arena.clone(), Some(grid.clone()));
    ShardedSynopsis::from_handles(vec![handle]).unwrap()
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

proptest! {
    /// text → binary → load answers bit-identically to text → load, for
    /// releases with and without grids, and the conversions are
    /// byte-stable in both directions.
    #[test]
    fn binary_path_reproduces_text_path(
        seed in 0u64..10_000,
        points in 200usize..1200,
        gridded in 0u8..2,
        bins in 2usize..12,
        qseed in 0u64..1000,
    ) {
        let frozen = sample_release(seed, points);
        let text = if gridded == 1 {
            let grid = build_grid(&frozen, &[bins, bins + 1]);
            release_to_text(&frozen, Some(&grid))
        } else {
            release_to_text(&frozen, None)
        };

        // the reference: the text loader the serving path has always used
        let (text_arena, text_grid) = release_from_text(&text).unwrap();
        // the conversion under test
        let binary = text_to_binary(&text).unwrap();
        let (bin_arena, bin_grid) = decode_release(&binary).unwrap();

        // arrays are equal to the bit — not merely close
        prop_assert_eq!(text_arena.dims(), bin_arena.dims());
        prop_assert_eq!(text_arena.lo_coords(), bin_arena.lo_coords());
        prop_assert_eq!(text_arena.hi_coords(), bin_arena.hi_coords());
        prop_assert_eq!(text_arena.first_child(), bin_arena.first_child());
        prop_assert_eq!(text_arena.child_count(), bin_arena.child_count());
        prop_assert_eq!(text_arena.counts(), bin_arena.counts());
        prop_assert_eq!(text_grid.is_some(), bin_grid.is_some());

        // every query answers with the same bits through either loader,
        // grid-routed when a grid shipped, plain otherwise
        for q in &workload(40, qseed) {
            match (&text_grid, &bin_grid) {
                (Some(tg), Some(bg)) => {
                    prop_assert_eq!(tg.bins(), bg.bins());
                    prop_assert_eq!(tg.anchors(), bg.anchors());
                    prop_assert_eq!(tg.values(), bg.values());
                    let t = served(&text_arena, tg);
                    let b = served(&bin_arena, bg);
                    prop_assert_eq!(t.answer(q).to_bits(), b.answer(q).to_bits());
                }
                _ => {
                    prop_assert_eq!(
                        text_arena.answer(q).to_bits(),
                        bin_arena.answer(q).to_bits()
                    );
                }
            }
        }

        // byte-stability: encode(decode(b)) == b and t2b(b2t(b)) == b
        prop_assert_eq!(&encode_release(&bin_arena, bin_grid.as_ref()), &binary);
        let round_text = binary_to_text(&binary).unwrap();
        prop_assert_eq!(&text_to_binary(&round_text).unwrap(), &binary);
    }

    /// A catalog save/load cycle — binary and text entries alike — hands
    /// back the exact release, pinned by the whole-file checksum.
    #[test]
    fn catalog_round_trip_is_exact(
        seed in 0u64..10_000,
        gridded in 0u8..2,
        format in 0u8..2,
    ) {
        let frozen = sample_release(seed, 400);
        let (arena, grid) = if gridded == 1 {
            let grid = build_grid(&frozen, &[5, 4]);
            (frozen, Some(grid))
        } else {
            (frozen, None)
        };
        let format = if format == 0 {
            ReleaseFormat::Binary
        } else {
            ReleaseFormat::Text
        };
        let dir = std::env::temp_dir().join(format!(
            "privtree-catalog-prop-{}-{seed}-{gridded}-{}",
            std::process::id(),
            format.as_str()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cat = Catalog::open_or_create(&dir).unwrap();
        cat.save("release", &arena, grid.as_ref(), format).unwrap();

        // reopen from disk: the manifest is the only source of truth
        let reopened = Catalog::open(&dir).unwrap();
        let (back, back_grid) = reopened.load("release").unwrap();
        prop_assert_eq!(arena.lo_coords(), back.lo_coords());
        prop_assert_eq!(arena.hi_coords(), back.hi_coords());
        prop_assert_eq!(arena.first_child(), back.first_child());
        prop_assert_eq!(arena.child_count(), back.child_count());
        prop_assert_eq!(arena.counts(), back.counts());
        match (&grid, &back_grid) {
            (Some(g), Some(b)) => {
                prop_assert_eq!(g.anchors(), b.anchors());
                prop_assert_eq!(g.values(), b.values());
            }
            (None, None) => {}
            other => prop_assert!(false, "grid presence diverged: {:?}", other.1.is_some()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `load_all` hands back every release in sorted key order, and
/// `remove` / re-`save` keep the manifest and directory consistent.
#[test]
fn catalog_lifecycle_end_to_end() {
    let dir = std::env::temp_dir().join(format!("privtree-catalog-life-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cat = Catalog::open_or_create(&dir).unwrap();
    for (i, key) in ["west", "east", "north"].iter().enumerate() {
        let arena = sample_release(50 + i as u64, 300);
        cat.save(key, &arena, None, ReleaseFormat::Binary).unwrap();
    }
    assert_eq!(cat.len(), 3);
    let all = cat.load_all().unwrap();
    assert_eq!(
        all.iter().map(|(k, _, _)| k.as_str()).collect::<Vec<_>>(),
        ["east", "north", "west"],
        "sorted key order"
    );
    cat.remove("east").unwrap();
    assert!(matches!(
        cat.load("east"),
        Err(privtree_store::StoreError::UnknownKey { .. })
    ));
    // a replacement under the same key lands in a NEW file (the name
    // carries the content checksum) so the live generation is never
    // overwritten in place, and the superseded file is GC'd
    let entry_before = cat.entry("west").unwrap().clone();
    cat.save(
        "west",
        &sample_release(99, 300),
        None,
        ReleaseFormat::Binary,
    )
    .unwrap();
    let entry_after = cat.entry("west").unwrap();
    assert_ne!(entry_before.file, entry_after.file);
    assert_ne!(entry_before.checksum, entry_after.checksum);
    assert!(
        !dir.join(&entry_before.file).exists(),
        "the superseded generation is unlinked after the manifest lands"
    );
    // only live files + the manifest remain on disk
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files.len(), 3, "manifest + 2 releases: {files:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
