//! Degraded opens and crashed-writer recovery: a catalog with damaged
//! entries quarantines them (typed, per-key) instead of refusing to
//! load, surviving releases load **bit-identically** to a strict open,
//! and `Catalog::open` sweeps the residue a dying writer can leave
//! behind — stale `.tmp` siblings and orphaned release files — without
//! touching anything it does not manage.

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::grid_route::CellGrid;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::FrozenSynopsis;
use privtree_store::{Catalog, FsyncPolicy, ReleaseFormat, StoreError};
use rand::RngExt;

fn sample_release(seed: u64, points: usize) -> FrozenSynopsis {
    let mut rng = seeded(seed);
    let mut ps = PointSet::new(2);
    for _ in 0..points {
        ps.push(&[rng.random::<f64>(), rng.random::<f64>() * 0.7]);
    }
    privtree_spatial::synopsis::privtree_synopsis(
        &ps,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 0x9e37),
    )
    .unwrap()
    .freeze()
}

/// A scratch directory that cleans up after itself.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("privtree-recovery-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bits(counts: &[f64]) -> Vec<u64> {
    counts.iter().map(|c| c.to_bits()).collect()
}

/// Save `key` as a small release shipping the grid of a larger one:
/// every section CRC and the manifest checksum are valid, but the grid
/// does not fit the arena it ships with.
fn save_with_foreign_grid(catalog: &mut Catalog, key: &str) {
    let larger = sample_release(55, 2_000);
    let bins = CellGrid::default_bins(&larger);
    let grid = CellGrid::build(&larger, &bins, Some(privtree_runtime::global())).unwrap();
    catalog
        .save(
            key,
            &sample_release(44, 60),
            Some(&grid),
            ReleaseFormat::Binary,
        )
        .unwrap();
}

/// Each damaged entry quarantines its key — strict loads fail whole,
/// lossy loads serve everything else with the exact same bits. A grid
/// that does not fit its arena is damage too: the mapped open refuses
/// it exactly as the copying load does.
#[test]
fn lossy_load_quarantines_damaged_entries_and_serves_the_rest() {
    let dir = TempDir::new("lossy");
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    for (key, seed) in [("alpha", 11u64), ("beta", 22), ("gamma", 33)] {
        catalog
            .save(key, &sample_release(seed, 250), None, ReleaseFormat::Binary)
            .unwrap();
    }
    // the reference: every release as a clean open loads it
    let clean: Vec<(String, Vec<u64>)> = catalog
        .load_all()
        .unwrap()
        .into_iter()
        .map(|(k, arena, _)| (k, bits(arena.counts())))
        .collect();
    save_with_foreign_grid(&mut catalog, "delta");

    // flip one payload byte in beta's file (length unchanged, so only
    // the checksum can catch it) and delete gamma's file outright
    let beta_file = dir.0.join(&catalog.entry("beta").unwrap().file);
    let mut bytes = std::fs::read(&beta_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&beta_file, &bytes).unwrap();
    let gamma_file = dir.0.join(&catalog.entry("gamma").unwrap().file);
    std::fs::remove_file(&gamma_file).unwrap();
    drop(catalog);

    // NB: reopen *before* asserting — the recovery sweep must not
    // mistake the still-referenced (if damaged) files for orphans
    let catalog = Catalog::open(&dir.0).unwrap();
    assert!(catalog.recovery_sweep().is_clean());
    assert!(catalog.load_all().is_err(), "strict load must fail whole");
    assert!(catalog.load_all_mapped().is_err());
    let grid_refusal = catalog.load("delta").unwrap_err();
    assert!(
        matches!(grid_refusal, StoreError::Grid(_)),
        "a foreign grid is a grid refusal: {grid_refusal:?}"
    );
    assert_eq!(
        catalog.load_mapped("delta").unwrap_err(),
        grid_refusal,
        "the mapped open refuses the foreign grid like the copying load"
    );

    let (loaded, quarantined) = catalog.load_all_mapped_lossy();
    assert_eq!(
        loaded.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        ["alpha"],
        "only the undamaged release survives"
    );
    // the zero-copy survivor carries the owned strict load's exact bits
    assert_eq!(
        bits(loaded[0].1.arena().counts()),
        clean[0].1,
        "bit-identical"
    );
    assert_eq!(quarantined.len(), 3);
    let reason = |key: &str| {
        quarantined
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, e)| e.clone())
            .unwrap()
    };
    assert!(
        matches!(reason("beta"), StoreError::ChecksumMismatch { .. }),
        "torn payload pins the checksum: {:?}",
        reason("beta")
    );
    assert!(
        matches!(reason("gamma"), StoreError::Io { .. }),
        "missing file is an IO quarantine: {:?}",
        reason("gamma")
    );
    assert_eq!(reason("delta"), grid_refusal, "foreign grid quarantined");
}

/// `Catalog::open` removes a dead writer's residue — `.tmp` siblings
/// and orphaned release-shaped files — and leaves everything else
/// (live releases, unrelated files) alone.
#[test]
fn open_sweeps_stale_tmp_and_orphan_files() {
    let dir = TempDir::new("sweep");
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    let arena = sample_release(7, 250);
    catalog
        .save("live", &arena, None, ReleaseFormat::Binary)
        .unwrap();
    let live_counts = bits(arena.counts());
    drop(catalog);

    // residue a crashed writer could leave: a torn .tmp, an orphaned
    // release file no manifest entry references — plus a bystander
    // file the sweep must not touch
    std::fs::write(dir.0.join("live-00000000.ptbin.tmp"), b"torn").unwrap();
    std::fs::write(dir.0.join("ghost-deadbeef.ptbin"), b"orphan").unwrap();
    std::fs::write(dir.0.join("notes.md"), b"operator notes").unwrap();

    let catalog = Catalog::open(&dir.0).unwrap();
    let sweep = catalog.recovery_sweep();
    assert_eq!(sweep.tmp_files, 1, "stale .tmp swept");
    assert_eq!(sweep.orphan_files, 1, "orphan release swept");
    assert!(!sweep.is_clean());
    assert!(!dir.0.join("live-00000000.ptbin.tmp").exists());
    assert!(!dir.0.join("ghost-deadbeef.ptbin").exists());
    assert!(
        dir.0.join("notes.md").exists(),
        "the sweep only touches files it manages"
    );
    // the live release is untouched and still loads bit-identically
    let (back, _) = catalog.load("live").unwrap();
    assert_eq!(bits(back.counts()), live_counts);

    // a second open finds nothing left to do
    let again = Catalog::open(&dir.0).unwrap();
    assert!(again.recovery_sweep().is_clean());
}

/// A writer that dies mid-rotation can strand journal residue: a
/// half-written segment `.tmp`, or a rotated-out segment the manifest
/// no longer references. `Catalog::open` sweeps both, leaves the
/// **active** segment and every bystander alone, and the journaled
/// state still replays.
#[test]
fn open_sweeps_dead_writer_journal_residue() {
    let dir = TempDir::new("journal-residue");
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    catalog.enable_journal(FsyncPolicy::Always).unwrap();
    catalog
        .save("live", &sample_release(9, 250), None, ReleaseFormat::Binary)
        .unwrap();
    // rotate once so the active segment has a non-zero base sequence —
    // the sweep must key off the manifest reference, not the name
    catalog.checkpoint().unwrap();
    catalog
        .save(
            "live",
            &sample_release(10, 250),
            None,
            ReleaseFormat::Binary,
        )
        .unwrap();
    let active = catalog.journal_segment().unwrap().to_string();
    drop(catalog);

    // residue a dying writer could leave behind: a torn segment .tmp,
    // an orphaned rotated-out segment, and a bystander the sweep must
    // never touch
    std::fs::write(dir.0.join("journal-00000000000000ff.bin.tmp"), b"torn").unwrap();
    std::fs::write(dir.0.join("journal-00000000deadbeef.bin"), b"stale segment").unwrap();
    std::fs::write(dir.0.join("journal.log"), b"not ours").unwrap();

    let catalog = Catalog::open(&dir.0).unwrap();
    let sweep = catalog.recovery_sweep();
    assert_eq!(sweep.tmp_files, 1, "segment .tmp swept");
    assert_eq!(sweep.journal_files, 1, "orphaned rotated segment swept");
    assert_eq!(sweep.orphan_files, 0);
    assert!(!dir.0.join("journal-00000000000000ff.bin.tmp").exists());
    assert!(!dir.0.join("journal-00000000deadbeef.bin").exists());
    assert!(
        dir.0.join("journal.log").exists(),
        "only journal-<seq>.bin names are managed"
    );
    assert!(
        dir.0.join(&active).exists(),
        "the referenced active segment survives the sweep"
    );
    assert_eq!(catalog.replayed_ops(), 1, "the post-rotation op replays");

    // a second open finds nothing left to do
    let again = Catalog::open(&dir.0).unwrap();
    assert!(again.recovery_sweep().is_clean());
    assert_eq!(again.replayed_ops(), 1);
}
