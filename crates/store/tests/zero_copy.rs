//! The zero-copy serving contract: a release opened through a memory
//! mapping answers every query **bitwise identically** to the owned
//! binary load and the text load — for plain and gridded releases — and
//! legacy (unpadded, pre-alignment) files still decode exactly, just
//! through the copy fallback.

use std::sync::Arc;

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::grid_route::CellGrid;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_spatial::serialize::{release_from_text, release_to_text};
use privtree_spatial::sharded::{ShardHandle, ShardedSynopsis};
use privtree_spatial::{FrozenSynopsis, StableBytes};
use privtree_store::{
    decode_release, encode_release, encode_release_unaligned, open_release_view, Catalog,
    ReleaseBytes, ReleaseFormat,
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

/// Assert two releases carry identical bits and answer identically.
fn assert_release_eq(
    label: &str,
    (a, ag): (&FrozenSynopsis, Option<&CellGrid>),
    (b, bg): (&FrozenSynopsis, Option<&CellGrid>),
    queries: &[RangeQuery],
) {
    assert_eq!(a.dims(), b.dims(), "{label}: dims");
    assert_eq!(a.lo_coords(), b.lo_coords(), "{label}: lo");
    assert_eq!(a.hi_coords(), b.hi_coords(), "{label}: hi");
    assert_eq!(a.first_child(), b.first_child(), "{label}: first_child");
    assert_eq!(a.child_count(), b.child_count(), "{label}: child_count");
    assert_eq!(a.counts(), b.counts(), "{label}: counts");
    assert_eq!(ag.is_some(), bg.is_some(), "{label}: grid presence");
    for q in queries {
        match (ag, bg) {
            (Some(ag), Some(bg)) => {
                assert_eq!(ag.bins(), bg.bins(), "{label}: bins");
                assert_eq!(ag.anchors(), bg.anchors(), "{label}: anchors");
                assert_eq!(ag.values(), bg.values(), "{label}: values");
                let ra = served(a, ag);
                let rb = served(b, bg);
                assert_eq!(
                    ra.answer(q).to_bits(),
                    rb.answer(q).to_bits(),
                    "{label}: gridded answer"
                );
            }
            _ => {
                assert_eq!(
                    a.answer(q).to_bits(),
                    b.answer(q).to_bits(),
                    "{label}: answer"
                );
            }
        }
    }
}

proptest! {
    /// mmap-opened == owned binary load == text load, to the bit, for
    /// releases with and without grids.
    #[test]
    fn mapped_view_reproduces_owned_and_text_loads(
        seed in 0u64..10_000,
        points in 200usize..900,
        gridded in 0u8..2,
        bins in 2usize..10,
        qseed in 0u64..1000,
    ) {
        let frozen = sample_release(seed, points);
        let (arena, grid) = if gridded == 1 {
            let grid = build_grid(&frozen, &[bins, bins + 1]);
            (frozen, Some(grid))
        } else {
            (frozen, None)
        };
        let bytes = encode_release(&arena, grid.as_ref());
        let text = release_to_text(&arena, grid.as_ref());

        // write the release out and map it back in
        let path = std::env::temp_dir().join(format!(
            "privtree-zc-{}-{seed}-{gridded}.ptbin",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let owner = ReleaseBytes::map(&path).unwrap();
        let mapped = owner.is_mapped();
        let owner: Arc<dyn StableBytes> = Arc::new(owner);
        let (view_arena, view_grid) = open_release_view(&owner, true).unwrap();
        let _ = std::fs::remove_file(&path);

        // on a little-endian host the aligned layout guarantees the
        // mapped columns borrow the mapping — that is the whole point
        if mapped && cfg!(target_endian = "little") {
            prop_assert!(view_arena.borrows_storage(), "columns should borrow the mapping");
        }

        let (own_arena, own_grid) = decode_release(&bytes).unwrap();
        let (text_arena, text_grid) = release_from_text(&text).unwrap();
        let queries = workload(25, qseed);
        assert_release_eq(
            "view vs owned",
            (&view_arena, view_grid.as_ref()),
            (&own_arena, own_grid.as_ref()),
            &queries,
        );
        assert_release_eq(
            "view vs text",
            (&view_arena, view_grid.as_ref()),
            (&text_arena, text_grid.as_ref()),
            &queries,
        );
    }

    /// Pre-alignment (v1.0, unpadded) files decode bit-identically
    /// through both the copying decoder and the zero-copy view — the
    /// view silently falls back to copying the misaligned sections.
    #[test]
    fn legacy_unaligned_files_decode_identically(
        seed in 0u64..10_000,
        gridded in 0u8..2,
        qseed in 0u64..1000,
    ) {
        let frozen = sample_release(seed, 400);
        let (arena, grid) = if gridded == 1 {
            let grid = build_grid(&frozen, &[5, 4]);
            (frozen, Some(grid))
        } else {
            (frozen, None)
        };
        let legacy = encode_release_unaligned(&arena, grid.as_ref());
        let aligned = encode_release(&arena, grid.as_ref());
        prop_assert!(legacy != aligned, "layouts should differ on disk");

        let (own_arena, own_grid) = decode_release(&legacy).unwrap();
        let owner: Arc<dyn StableBytes> = Arc::new(ReleaseBytes::from_vec(legacy));
        let (view_arena, view_grid) = open_release_view(&owner, true).unwrap();
        let (ref_arena, ref_grid) = decode_release(&aligned).unwrap();
        let queries = workload(25, qseed);
        assert_release_eq(
            "legacy owned vs aligned",
            (&own_arena, own_grid.as_ref()),
            (&ref_arena, ref_grid.as_ref()),
            &queries,
        );
        assert_release_eq(
            "legacy view vs aligned",
            (&view_arena, view_grid.as_ref()),
            (&ref_arena, ref_grid.as_ref()),
            &queries,
        );
    }
}

/// `Catalog::load_mapped` reports mapped storage and opens the exact
/// release the copying `Catalog::load` produces: the same arena, the
/// same grid (bins, anchors, values) and the same answers, bit for bit.
#[test]
fn catalog_load_mapped_is_exact_and_reports_storage() {
    let dir = std::env::temp_dir().join(format!("privtree-zc-cat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cat = Catalog::open_or_create(&dir).unwrap();

    let arena = sample_release(11, 600);
    let grid = build_grid(&arena, &[6, 6]);
    cat.save("gridded", &arena, Some(&grid), ReleaseFormat::Binary)
        .unwrap();
    cat.save("plain", &sample_release(12, 300), None, ReleaseFormat::Text)
        .unwrap();

    let loaded = cat.load_mapped("gridded").unwrap();
    if cfg!(unix) {
        assert!(loaded.is_mapped(), "binary catalog entries should map");
        let file_len = std::fs::metadata(dir.join(&cat.entry("gridded").unwrap().file))
            .unwrap()
            .len();
        assert_eq!(loaded.mapped_bytes() as u64, file_len);
    }
    let mapped_grid = loaded
        .grid()
        .expect("the shipped grid opens with the release");
    let (ref_arena, ref_grid) = cat.load("gridded").unwrap();
    assert_release_eq(
        "mapped catalog vs owned catalog",
        (loaded.arena(), Some(mapped_grid)),
        (&ref_arena, ref_grid.as_ref()),
        &workload(25, 77),
    );

    // text entries fall back to the copying loader, reported as owned
    let text_loaded = cat.load_mapped("plain").unwrap();
    assert!(!text_loaded.is_mapped());
    assert_eq!(text_loaded.mapped_bytes(), 0);
    assert!(text_loaded.grid().is_none());

    // load_all_mapped covers every entry in sorted order
    let all = cat.load_all_mapped().unwrap();
    assert_eq!(
        all.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        ["gridded", "plain"]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The mapping must outlive every borrower: columns cloned out of a
/// mapped release keep answering after the catalog entry — and the file
/// itself — are gone. (On unix the mapping pins the unlinked inode;
/// this is what makes atomic catalog swaps safe under zero-copy.)
#[test]
fn mapping_outlives_removed_catalog_entry() {
    let dir = std::env::temp_dir().join(format!("privtree-zc-unlink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cat = Catalog::open_or_create(&dir).unwrap();
    let arena = sample_release(21, 500);
    cat.save("epoch", &arena, None, ReleaseFormat::Binary)
        .unwrap();

    let loaded = cat.load_mapped("epoch").unwrap();
    let snapshot = loaded.arena().clone();
    cat.remove("epoch").unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // the release file is unlinked; the clone still answers exactly
    for q in &workload(25, 5) {
        assert_eq!(snapshot.answer(q).to_bits(), arena.answer(q).to_bits());
    }
}
