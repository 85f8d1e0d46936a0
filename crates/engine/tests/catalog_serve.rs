//! The binary-format serving lane: a text release is converted to
//! `privtree-bin v1`, published into an on-disk catalog, warm-started
//! through the `privtree-serve` binary via `--catalog`, and every
//! answer is diffed against the **text-loaded** library path — the
//! formats must be indistinguishable at the query level. Also drives
//! the `save`/`load` protocol verbs, a degraded boot over a damaged
//! catalog, the flag combinations the binary refuses, and the
//! library-level `open_catalog`/`persist_catalog` round trip.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_engine::{EngineError, ReleaseStore};
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_spatial::serialize::{release_from_text, release_to_text};
use privtree_spatial::sharded::{ShardHandle, ShardedSynopsis};
use privtree_spatial::{CellGrid, FrozenSynopsis};
use privtree_store::{text_to_binary, Catalog, ReleaseFormat, StoreError};
use rand::RngExt;

const BIN: &str = env!("CARGO_BIN_EXE_privtree-serve");

/// Run `privtree-serve` with `args`, feed `input` on stdin, and collect
/// its exit status and output.
fn serve(args: &[&str], input: &str) -> Output {
    Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("piped stdin")
                .write_all(input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("run privtree-serve")
}

fn sample_release(domain: Rect, seed: u64, n: usize) -> FrozenSynopsis {
    let mut rng = seeded(seed);
    let mut ps = PointSet::new(2);
    for _ in 0..n {
        ps.push(&[
            domain.lo()[0] + rng.random::<f64>() * domain.side(0),
            domain.lo()[1] + rng.random::<f64>().powi(2) * domain.side(1),
        ]);
    }
    privtree_spatial::synopsis::privtree_synopsis(
        &ps,
        domain,
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 0xabcd),
    )
    .unwrap()
    .freeze()
}

/// The grid the engine builds for `arena`: default resolution, shared
/// pool.
fn default_grid(arena: &FrozenSynopsis) -> CellGrid {
    let bins = CellGrid::default_bins(arena);
    CellGrid::build(arena, &bins, Some(privtree_runtime::global())).unwrap()
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

fn query_line(q: &RangeQuery) -> String {
    let csv = |c: &[f64]| {
        c.iter()
            .map(|x| format!("{x:.17e}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!("{} {}", csv(q.rect.lo()), csv(q.rect.hi()))
}

/// A scratch directory that cleans up after itself.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "privtree-catalog-serve-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The CI lane: text → binary → catalog → `privtree-serve --catalog`,
/// every answer diffed against the text-loaded library path (gridded
/// release, so the grid ships through the binary format too).
#[test]
fn catalog_served_binary_matches_text_loaded_library() {
    let frozen = sample_release(Rect::unit(2), 61, 4000);
    let text = release_to_text(&frozen, Some(&default_grid(&frozen)));

    // the reference: the text path, loaded exactly as the library would
    // and served as one gridded shard
    let (ref_arena, ref_grid) = release_from_text(&text).unwrap();
    let handle =
        ShardHandle::from_release(ref_arena, Some(ref_grid.expect("grid section shipped")));
    let reference = ShardedSynopsis::from_handles(vec![handle]).unwrap();

    // the lane under test: text → binary → catalog (validated import)
    let dir = TempDir::new("lane");
    let binary = text_to_binary(&text).expect("text converts to binary");
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    catalog
        .import("epoch0", &binary, ReleaseFormat::Binary)
        .expect("binary imports");
    drop(catalog);

    let queries = workload(150, 62);
    let mut input = String::new();
    for q in &queries[..40] {
        input.push_str(&format!("count {}\n", query_line(q)));
    }
    input.push_str(&format!("batch {}\n", queries.len()));
    for q in &queries {
        input.push_str(&query_line(q));
        input.push('\n');
    }
    input.push_str("keys\nquit\n");

    let output = serve(&["--catalog", dir.0.to_str().unwrap()], &input);
    assert!(
        output.status.success(),
        "privtree-serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 answers");
    let mut lines = stdout.lines();
    // single-shard stores route straight into the shard's grid-routed
    // descent, so the binary's answers must equal the text-loaded
    // grid-routed engine exactly — same %.17e bits
    for q in queries[..40].iter().chain(&queries) {
        let expect = format!("{:.17e}", reference.answer(q));
        assert_eq!(lines.next(), Some(expect.as_str()), "query {}", q.rect);
    }
    assert_eq!(lines.next(), Some("keys epoch0"));
    assert_eq!(lines.next(), None);
}

/// `save` persists a serving release into the catalog and `load` brings
/// one back (add-or-swap), over one stdin session.
#[test]
fn save_and_load_verbs_round_trip_through_the_catalog() {
    let left = Rect::new(&[0.0, 0.0], &[0.5, 1.0]);
    let right = Rect::new(&[0.5, 0.0], &[1.0, 1.0]);
    let west = sample_release(left, 71, 2500);
    let east = sample_release(right, 72, 2500);
    let q_west = RangeQuery::new(Rect::new(&[0.05, 0.1], &[0.45, 0.9]));

    let dir = TempDir::new("verbs");
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    catalog
        .save("west", &west, None, ReleaseFormat::Binary)
        .unwrap();
    drop(catalog);

    // east arrives as a key=path text file beside the cataloged west
    let east_path = dir.0.join("east-input.txt");
    std::fs::write(&east_path, release_to_text(&east, None)).unwrap();

    let input = format!(
        "keys\n\
         save east\n\
         retire east\n\
         keys\n\
         load east\n\
         stats\n\
         keys\n\
         count {west_q}\n\
         quit\n",
        west_q = query_line(&q_west),
    );
    let output = serve(
        &[
            "--catalog",
            dir.0.to_str().unwrap(),
            &format!("east={}", east_path.display()),
        ],
        &input,
    );
    assert!(
        output.status.success(),
        "privtree-serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("keys east west"));
    let saved = lines.next().expect("save reply");
    assert!(
        saved.starts_with("ok saved key=east") && saved.contains("format=binary"),
        "save reply: {saved}"
    );
    assert!(lines
        .next()
        .expect("retire reply")
        .starts_with("ok version=2"));
    assert_eq!(lines.next(), Some("keys west"));
    let loaded = lines.next().expect("load reply");
    assert!(loaded.starts_with("ok version=3"), "load reply: {loaded}");
    // the load verb opens the catalog release zero-copy, like the boot
    let stats = lines.next().expect("stats reply");
    if cfg!(unix) {
        assert!(stats.contains(" storage.east=mapped:"), "stats: {stats}");
    }
    assert_eq!(lines.next(), Some("keys east west"));
    // a query strictly inside west is answered by that shard alone
    assert_eq!(
        lines.next(),
        Some(format!("{:.17e}", west.answer(&q_west)).as_str())
    );
    assert_eq!(lines.next(), None);

    // the catalog on disk now holds both releases (east was saved)
    let reopened = Catalog::open(&dir.0).unwrap();
    assert_eq!(reopened.keys().collect::<Vec<_>>(), ["east", "west"]);
}

/// Flip one payload byte of a release file in place: the length stays,
/// so only the whole-file checksum can catch it.
fn flip_middle_byte(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(path, &bytes).unwrap();
}

/// Save `key` as a small release over `region` shipping the grid of a
/// larger release over the same region: every section CRC and the
/// manifest checksum are valid, but the grid does not fit the arena it
/// ships with.
fn save_with_foreign_grid(catalog: &mut Catalog, key: &str, region: Rect) {
    let grid = default_grid(&sample_release(region, 131, 1500));
    let arena = sample_release(region, 130, 60);
    catalog
        .save(key, &arena, Some(&grid), ReleaseFormat::Binary)
        .unwrap();
}

/// A degraded boot end to end: `privtree-serve --catalog` over a
/// catalog with one corrupt release, one missing release and one whose
/// shipped grid does not fit its arena quarantines all three, reports
/// them through `stats`, and serves the clean release with its exact
/// bits. The library warm start and the `load` verb refuse the foreign
/// grid too.
#[test]
fn catalog_boot_quarantines_damaged_releases_and_serves_the_rest() {
    let strips: Vec<(&str, FrozenSynopsis)> = ["alpha", "beta", "gamma"]
        .into_iter()
        .enumerate()
        .map(|(i, key)| {
            let lo = i as f64 / 3.0;
            let region = Rect::new(&[lo, 0.0], &[lo + 1.0 / 3.0, 1.0]);
            (key, sample_release(region, 100 + i as u64, 1500))
        })
        .collect();
    let dir = TempDir::new("degraded");
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    for (key, arena) in &strips {
        catalog
            .save(key, arena, None, ReleaseFormat::Binary)
            .unwrap();
    }
    // delta sits beside the strips, so it would serve if it loaded
    save_with_foreign_grid(
        &mut catalog,
        "delta",
        Rect::new(&[1.0, 0.0], &[4.0 / 3.0, 1.0]),
    );
    let grid_refusal = catalog.load("delta").unwrap_err();
    assert!(
        matches!(grid_refusal, StoreError::Grid(_)),
        "{grid_refusal:?}"
    );
    for grids in [true, false] {
        assert_eq!(
            ReleaseStore::open_catalog(&catalog, grids).err(),
            Some(EngineError::Store(grid_refusal.clone())),
            "open_catalog(grids={grids}) must refuse the foreign grid"
        );
    }
    let file = |key: &str| dir.0.join(&catalog.entry(key).unwrap().file);
    let alpha_len = std::fs::metadata(file("alpha")).unwrap().len();
    flip_middle_byte(&file("beta"));
    std::fs::remove_file(file("gamma")).unwrap();
    drop(catalog);

    let q = RangeQuery::new(Rect::new(&[0.05, 0.1], &[0.3, 0.9]));
    let input = format!("keys\nstats\ncount {}\nload delta\nquit\n", query_line(&q));
    let output = serve(&["--catalog", dir.0.to_str().unwrap()], &input);
    assert!(
        output.status.success(),
        "privtree-serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("keys alpha"));
    let stats = lines.next().expect("stats reply");
    for pair in [
        " quarantined=3",
        " quarantined.beta=1",
        " quarantined.delta=1",
        " quarantined.gamma=1",
    ] {
        assert!(stats.contains(pair), "missing {pair}: {stats}");
    }
    if cfg!(unix) {
        let mapped = format!(" storage.alpha=mapped:{alpha_len}");
        assert!(stats.contains(&mapped), "missing {mapped}: {stats}");
    }
    // a query strictly inside alpha: the clean release's exact bits
    assert_eq!(
        lines.next(),
        Some(format!("{:.17e}", strips[0].1.answer(&q)).as_str())
    );
    // the load verb refuses the foreign grid with the store's reason
    assert_eq!(lines.next(), Some(format!("err {grid_refusal}").as_str()));
    assert_eq!(lines.next(), None);
}

/// Releases were given, but every one of them is damaged: the binary
/// says that nothing is left to serve (not "no releases given" and the
/// usage text) and exits 1.
#[test]
fn catalog_boot_with_every_release_quarantined_says_so() {
    let dir = TempDir::new("all-damaged");
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    for (i, key) in ["alpha", "beta"].into_iter().enumerate() {
        let lo = i as f64 / 2.0;
        let region = Rect::new(&[lo, 0.0], &[lo + 0.5, 1.0]);
        let arena = sample_release(region, 110 + i as u64, 1000);
        catalog
            .save(key, &arena, None, ReleaseFormat::Binary)
            .unwrap();
        flip_middle_byte(&dir.0.join(&catalog.entry(key).unwrap().file));
    }
    drop(catalog);

    let output = serve(&["--catalog", dir.0.to_str().unwrap()], "");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("all 2 catalog release(s) were quarantined; nothing is left to serve"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("usage:"), "stderr: {stderr}");
}

/// A flag that only means something beside another flag is refused,
/// never silently dropped: each invocation would boot without it, and
/// with it exits 1 naming the missing prerequisite.
#[test]
fn flags_without_their_prerequisite_are_refused() {
    let dir = TempDir::new("flags");
    let arena = sample_release(Rect::unit(2), 120, 500);
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    catalog
        .save("west", &arena, None, ReleaseFormat::Binary)
        .unwrap();
    drop(catalog);
    let release_path = dir.0.join("west-input.txt");
    std::fs::write(&release_path, release_to_text(&arena, None)).unwrap();
    let release = format!("west={}", release_path.display());
    let catalog_dir = dir.0.to_str().unwrap();

    for (args, reason) in [
        (vec!["--journal", &release], "--journal requires --catalog"),
        (
            vec!["--keep-generations", "2", &release],
            "--keep-generations requires --catalog",
        ),
        (
            vec!["--catalog", catalog_dir, "--fsync", "never"],
            "--fsync requires --journal",
        ),
    ] {
        let output = serve(&args, "");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
    }
}

/// Library-level warm start: persist a gridded store, reopen it from
/// the catalog, and require bit-identical answers — grids adopted from
/// disk, not rebuilt.
#[test]
fn open_catalog_reproduces_a_persisted_store_exactly() {
    let strips: Vec<(String, FrozenSynopsis)> = (0..3)
        .map(|i| {
            let lo = i as f64 / 3.0;
            let region = Rect::new(&[lo, 0.0], &[lo + 1.0 / 3.0, 1.0]);
            (format!("strip{i}"), sample_release(region, 80 + i, 1500))
        })
        .collect();
    let store = ReleaseStore::open_gridded(strips).unwrap();
    let queries = workload(200, 81);
    let reference = store.snapshot().synopsis().answer_batch(&queries);

    let dir = TempDir::new("warm");
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    assert_eq!(store.persist_catalog(&mut catalog).unwrap(), 3);

    // reopen purely from disk
    let reopened_catalog = Catalog::open(&dir.0).unwrap();
    let warm = ReleaseStore::open_catalog(&reopened_catalog, true).unwrap();
    let snap = warm.snapshot();
    assert_eq!(snap.keys(), store.snapshot().keys());
    // grids shipped with the releases: the warm open built none
    assert_eq!(warm.stats().grids_built, 0, "grids must come from disk");
    if cfg!(unix) {
        for shard in snap.synopsis().shards() {
            assert!(shard.is_mapped(), "catalog shards should be mapped");
        }
    }
    let got = snap.synopsis().answer_batch(&queries);
    for (a, b) in reference.iter().zip(&got) {
        assert_eq!(a.to_bits(), b.to_bits(), "warm-start answers diverged");
    }
    // answering builds nothing either: the grids opened with the files
    assert_eq!(warm.stats().grids_built, 0, "answering is not a build");
}

/// Zero-copy swap safety: snapshots borrowed from a mapped store keep
/// answering — bit-identically — through swaps, retires, and even the
/// removal of the release files themselves (the mapping pins the
/// unlinked inodes until the last snapshot drops).
#[test]
fn mapped_snapshots_survive_swap_retire_and_file_removal() {
    let strips: Vec<(String, FrozenSynopsis)> = (0..2)
        .map(|i| {
            let lo = i as f64 / 2.0;
            let region = Rect::new(&[lo, 0.0], &[lo + 0.5, 1.0]);
            (format!("strip{i}"), sample_release(region, 90 + i, 1500))
        })
        .collect();
    let dir = TempDir::new("unlink");
    let mut catalog = Catalog::open_or_create(&dir.0).unwrap();
    for (key, arena) in &strips {
        catalog
            .save(key, arena, None, ReleaseFormat::Binary)
            .unwrap();
    }
    let warm = ReleaseStore::open_catalog(&catalog, true).unwrap();
    let queries = workload(120, 91);
    let old_snap = warm.snapshot();
    let reference = old_snap.synopsis().answer_batch(&queries);

    // swap one shard, retire nothing yet — then delete every release
    // file from under the store
    let fresh = sample_release(Rect::new(&[0.0, 0.0], &[0.5, 1.0]), 97, 1500);
    warm.swap("strip0", fresh).unwrap();
    catalog.remove("strip0").unwrap();
    catalog.remove("strip1").unwrap();
    drop(catalog);
    let _ = std::fs::remove_dir_all(&dir.0);

    // the pre-swap snapshot still answers from the (unlinked) mappings
    let again = old_snap.synopsis().answer_batch(&queries);
    for (a, b) in reference.iter().zip(&again) {
        assert_eq!(a.to_bits(), b.to_bits(), "old snapshot diverged");
    }
    // and the post-swap snapshot serves the surviving mapped shard plus
    // the fresh owned one
    let new_snap = warm.snapshot();
    assert_eq!(new_snap.version(), 2);
    let whole = RangeQuery::new(Rect::unit(2));
    assert!(new_snap.answer(&whole).is_finite());
}
