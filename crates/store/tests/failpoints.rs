//! Crash-at-every-step fault injection (requires `--features
//! failpoints`): a publish or remove interrupted at **any** IO step —
//! tmp create, payload write (torn), fsync, rename, directory sync,
//! manifest write, superseded-file GC — must leave the catalog
//! loadable at exactly the old or the new generation, with no `.tmp`
//! residue surviving the next open. Injected *errors* (syscall
//! failure, process lives) must additionally leave the live handle
//! consistent with the manifest on disk. A property test drives random
//! operation sequences through random injection points.

#![cfg(feature = "failpoints")]

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_runtime::failpoints::{self, FailAction};
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::FrozenSynopsis;
use privtree_store::{Catalog, ReleaseFormat};
use proptest::prelude::*;
use rand::RngExt;

/// The failpoint registry is process-global: every test that arms
/// triggers serializes on this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn sample_release(seed: u64) -> FrozenSynopsis {
    let mut rng = seeded(seed);
    let mut ps = PointSet::new(2);
    for _ in 0..180 {
        ps.push(&[rng.random::<f64>(), rng.random::<f64>()]);
    }
    privtree_spatial::synopsis::privtree_synopsis(
        &ps,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 0x51f0),
    )
    .unwrap()
    .freeze()
}

/// Three distinct releases, built once (PrivTree runs are the slow
/// part; the sweep reuses them across every injection step).
fn releases() -> &'static [FrozenSynopsis; 3] {
    static RELEASES: OnceLock<[FrozenSynopsis; 3]> = OnceLock::new();
    RELEASES.get_or_init(|| [sample_release(1), sample_release(2), sample_release(3)])
}

fn bits(arena: &FrozenSynopsis) -> Vec<u64> {
    arena.counts().iter().map(|c| c.to_bits()).collect()
}

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("privtree-failpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A two-release catalog, built with fault injection disarmed.
fn seeded_catalog(dir: &Path) -> Catalog {
    failpoints::reset();
    let mut catalog = Catalog::open_or_create(dir).unwrap();
    catalog
        .save("alpha", &releases()[0], None, ReleaseFormat::Binary)
        .unwrap();
    catalog
        .save("beta", &releases()[1], None, ReleaseFormat::Binary)
        .unwrap();
    catalog
}

fn tmp_residue(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".tmp"))
        .collect()
}

fn file_count(dir: &Path) -> usize {
    std::fs::read_dir(dir).unwrap().flatten().count()
}

/// After any interruption + reopen: the catalog parses, every manifest
/// entry loads with a matching checksum, and no `.tmp` residue is left.
fn assert_recovered(dir: &Path) -> Catalog {
    let reopened = Catalog::open(dir).unwrap_or_else(|e| {
        panic!("interrupted catalog must reopen, got {e}");
    });
    assert!(
        tmp_residue(dir).is_empty(),
        "no .tmp residue survives recovery: {:?}",
        tmp_residue(dir)
    );
    for key in reopened.keys().map(str::to_string).collect::<Vec<_>>() {
        reopened
            .load(&key)
            .unwrap_or_else(|e| panic!("recovered entry {key} must load, got {e}"));
    }
    // directory holds exactly the manifest + one file per entry
    assert_eq!(
        file_count(dir),
        reopened.len() + 1,
        "no stray files after recovery"
    );
    reopened
}

/// Count how many failpoint traversals one clean `save`-replace makes,
/// so the sweep can crash at each of them in turn.
fn publish_step_count() -> u64 {
    let dir = TempDir::new("count-publish");
    let mut catalog = seeded_catalog(&dir.0);
    failpoints::reset();
    catalog
        .save("beta", &releases()[2], None, ReleaseFormat::Binary)
        .unwrap();
    let steps = failpoints::hits();
    failpoints::reset();
    steps
}

/// The tentpole sweep: crash a key-replacing publish at every IO step.
/// Whatever the step, the reopened catalog is loadable, tmp-free, and
/// serves `beta` at exactly the old or the new generation — never torn
/// — while `alpha` is untouched.
#[test]
fn publish_crashed_at_every_step_recovers_to_old_or_new() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let steps = publish_step_count();
    assert!(
        steps >= 7,
        "expected >=7 IO steps in a publish, got {steps}"
    );
    let old_beta = bits(&releases()[1]);
    let new_beta = bits(&releases()[2]);
    let alpha = bits(&releases()[0]);
    for step in 1..=steps {
        let dir = TempDir::new(&format!("publish-crash-{step}"));
        let mut catalog = seeded_catalog(&dir.0);
        failpoints::reset();
        failpoints::arm_global(step, FailAction::Crash);
        let result = catalog.save("beta", &releases()[2], None, ReleaseFormat::Binary);
        assert!(result.is_err(), "step {step}: injected crash must surface");
        drop(catalog); // the "process" died here
        failpoints::reset();

        let recovered = assert_recovered(&dir.0);
        let (alpha_back, _) = recovered.load("alpha").unwrap();
        assert_eq!(bits(&alpha_back), alpha, "step {step}: alpha untouched");
        let (beta_back, _) = recovered.load("beta").unwrap();
        let got = bits(&beta_back);
        assert!(
            got == old_beta || got == new_beta,
            "step {step}: beta must be exactly old or new, got neither"
        );
    }
}

/// Crash a `remove` at every IO step: the reopened catalog either
/// still serves the key (loadable) or no longer lists it — and sweeps
/// the then-orphaned file.
#[test]
fn remove_crashed_at_every_step_recovers() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let steps = {
        let dir = TempDir::new("count-remove");
        let mut catalog = seeded_catalog(&dir.0);
        failpoints::reset();
        catalog.remove("beta").unwrap();
        let steps = failpoints::hits();
        failpoints::reset();
        steps
    };
    assert!(steps >= 6, "expected >=6 IO steps in a remove, got {steps}");
    let old_beta = bits(&releases()[1]);
    for step in 1..=steps {
        let dir = TempDir::new(&format!("remove-crash-{step}"));
        let mut catalog = seeded_catalog(&dir.0);
        failpoints::reset();
        failpoints::arm_global(step, FailAction::Crash);
        let result = catalog.remove("beta");
        assert!(result.is_err(), "step {step}: injected crash must surface");
        drop(catalog);
        failpoints::reset();

        let recovered = assert_recovered(&dir.0);
        match recovered.entry("beta") {
            Some(_) => {
                let (beta_back, _) = recovered.load("beta").unwrap();
                assert_eq!(bits(&beta_back), old_beta, "step {step}");
            }
            None => {
                assert_eq!(recovered.len(), 1, "step {step}: only alpha remains");
            }
        }
    }
}

/// Injected *errors* (the syscall fails but the process lives) at
/// every step: the failed `save` must leave the **live handle**
/// serving an intact generation (old or new, never torn), the on-disk
/// view equally intact, and a plain retry on the same handle must
/// succeed and converge both views on the new generation.
#[test]
fn publish_errored_at_every_step_stays_consistent_and_retries_cleanly() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let steps = publish_step_count();
    let old_beta = bits(&releases()[1]);
    let new_beta = bits(&releases()[2]);
    for step in 1..=steps {
        let dir = TempDir::new(&format!("publish-err-{step}"));
        let mut catalog = seeded_catalog(&dir.0);
        failpoints::reset();
        failpoints::arm_global(step, FailAction::Error);
        let result = catalog.save("beta", &releases()[2], None, ReleaseFormat::Binary);
        assert!(result.is_err(), "step {step}: injected error must surface");
        failpoints::reset();

        // the live handle keeps serving: beta loads at old or new (the
        // gc/dirsync steps fail *after* the new generation landed, so
        // the handle may trail or lead the disk by one generation —
        // but neither view is ever torn)
        let (beta_live, _) = catalog.load("beta").unwrap();
        let live = bits(&beta_live);
        assert!(
            live == old_beta || live == new_beta,
            "step {step}: live handle torn"
        );
        let reopened = Catalog::open(&dir.0).unwrap();
        let (beta_disk, _) = reopened.load("beta").unwrap();
        let disk = bits(&beta_disk);
        assert!(
            disk == old_beta || disk == new_beta,
            "step {step}: on-disk view torn"
        );

        // a plain retry on the same handle succeeds and converges
        // handle and disk on the new generation
        catalog
            .save("beta", &releases()[2], None, ReleaseFormat::Binary)
            .unwrap_or_else(|e| panic!("step {step}: retry must succeed, got {e}"));
        let (beta_retry, _) = catalog.load("beta").unwrap();
        assert_eq!(bits(&beta_retry), new_beta, "step {step}: retry landed");
        let converged = assert_recovered(&dir.0);
        let (beta_final, _) = converged.load("beta").unwrap();
        assert_eq!(bits(&beta_final), new_beta, "step {step}: views converge");
    }
}

/// A zero-copy reader mapped **before** a publish crashes keeps
/// serving the exact generation it mapped — old bytes, never torn —
/// no matter which IO step killed the writer, and recovery never
/// sweeps the file a retained generation still references. (With
/// `keep = 2` the superseded generation stays catalog-live, so the
/// reader's file must survive on disk too, not merely as mapped
/// pages over an unlinked inode.)
#[test]
fn mapped_readers_survive_publishes_crashed_at_every_step() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // count under the same retention: keeping the old generation drops
    // the GC-unlink step a keep=1 replace would take
    let steps = {
        let dir = TempDir::new("count-mapped");
        let mut catalog = seeded_catalog(&dir.0);
        catalog.set_retention(2);
        failpoints::reset();
        catalog
            .save("beta", &releases()[2], None, ReleaseFormat::Binary)
            .unwrap();
        let steps = failpoints::hits();
        failpoints::reset();
        steps
    };
    assert!(steps >= 7, "expected >=7 IO steps, got {steps}");
    let old_beta = bits(&releases()[1]);
    let new_beta = bits(&releases()[2]);
    for step in 1..=steps {
        let dir = TempDir::new(&format!("mapped-crash-{step}"));
        let mut catalog = seeded_catalog(&dir.0);
        catalog.set_retention(2);
        let reader = catalog.load_mapped("beta").unwrap();
        let reader_file = catalog.entry("beta").unwrap().file.clone();
        failpoints::reset();
        failpoints::arm_global(step, FailAction::Crash);
        let result = catalog.save("beta", &releases()[2], None, ReleaseFormat::Binary);
        assert!(result.is_err(), "step {step}: injected crash must surface");
        drop(catalog); // the writer died; the reader lives on

        // mid-crash, before any recovery: the mapped view still reads
        // the generation it opened, bit-exact
        assert_eq!(
            bits(reader.arena()),
            old_beta,
            "step {step}: reader torn by the crashed writer"
        );
        failpoints::reset();

        let recovered = Catalog::open(&dir.0).unwrap();
        assert!(tmp_residue(&dir.0).is_empty(), "step {step}");
        let (beta_back, _) = recovered.load("beta").unwrap();
        let got = bits(&beta_back);
        assert!(
            got == old_beta || got == new_beta,
            "step {step}: beta must be exactly old or new"
        );
        // the reader's generation is catalog-live (current, or retained
        // under keep=2 once the new generation landed) — recovery and
        // GC must not have unlinked its file
        let reader_live = recovered.entry("beta").map(|e| e.file.as_str())
            == Some(reader_file.as_str())
            || recovered
                .retained_entries()
                .any(|(key, e)| key == "beta" && e.file == reader_file);
        assert!(
            reader_live,
            "step {step}: the mapped generation fell out of the catalog"
        );
        assert!(
            dir.0.join(&reader_file).exists(),
            "step {step}: GC unlinked a live generation under a mapped reader"
        );
        // and it still reads clean after the sweep
        assert_eq!(bits(reader.arena()), old_beta, "step {step}: reader torn");
    }
}

proptest! {
    /// Random operation sequences interrupted at a random step with a
    /// random action: whatever happened, the catalog reopens, sweeps
    /// clean, and every surviving entry loads with a verified checksum.
    /// Each op code packs a key (`op % 3`) and a kind (`op / 3`: save
    /// it, save a different generation of it, or remove it). A mapped
    /// reader opened on the seeded `beta` before the interrupted
    /// history must keep reading its opening bytes throughout.
    #[test]
    fn random_interrupted_histories_always_recover(
        ops in proptest::collection::vec(0usize..9, 1..5),
        step in 1u64..40,
        crash in 0u8..2,
    ) {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = TempDir::new("prop");
        let mut catalog = seeded_catalog(&dir.0);
        let reader = catalog.load_mapped("beta").unwrap();
        let reader_bits = bits(reader.arena());
        failpoints::reset();
        let action = if crash == 1 { FailAction::Crash } else { FailAction::Error };
        failpoints::arm_global(step, action);
        let keys = ["alpha", "beta", "gamma"];
        for &op in &ops {
            // operations may fail (the injection, or removing a key
            // that is not there) — the history keeps going either way
            let key = keys[op % 3];
            match op / 3 {
                0 => {
                    let _ = catalog.save(key, &releases()[op % 3], None, ReleaseFormat::Binary);
                }
                1 => {
                    let _ = catalog.save(
                        key,
                        &releases()[(op + 1) % 3],
                        None,
                        ReleaseFormat::Binary,
                    );
                }
                _ => {
                    let _ = catalog.remove(key);
                }
            }
        }
        drop(catalog);
        failpoints::reset();
        assert_recovered(&dir.0);
        // the interleaved mapped reader must never observe torn bytes
        prop_assert_eq!(bits(reader.arena()), reader_bits);
    }
}
