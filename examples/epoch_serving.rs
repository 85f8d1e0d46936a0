//! Epoch-aware serving: run a `ReleaseStore` in-process, persist it to
//! an on-disk catalog, warm-start a second store from that catalog, and
//! hand the same releases to the `privtree-serve` binary.
//!
//! ```sh
//! cargo run --release --example epoch_serving
//! ```
//!
//! The example builds two per-region PrivTree releases, serves them from
//! an epoch store (snapshots are immutable; a swap rebuilds only the
//! routing arena + the swapped shard's grid), persists every serving
//! release into a `privtree-store` catalog (binary `privtree-bin v1`
//! files behind a `catalog.toml` manifest, grids included), reopens the
//! catalog cold and verifies the warm-started store answers the same
//! bits, and finally prints the matching standalone-server commands:
//!
//! ```sh
//! # build the server once
//! cargo build --release -p privtree-engine
//! # warm-start straight from the catalog (save/load verbs enabled):
//! printf 'count 0.1,0.1 0.4,0.9\nstats\nquit\n' | \
//!   target/release/privtree-serve --grids --catalog /tmp/privtree-catalog
//! # or serve a single text release over TCP:
//! target/release/privtree-serve --listen 127.0.0.1:4780 west=/tmp/west-epoch0.txt
//! ```

use privtree_suite::datagen::spatial::gowalla_like;
use privtree_suite::dp::budget::Epsilon;
use privtree_suite::dp::rng::seeded;
use privtree_suite::engine::ReleaseStore;
use privtree_suite::spatial::dataset::PointSet;
use privtree_suite::spatial::geom::Rect;
use privtree_suite::spatial::quadtree::SplitConfig;
use privtree_suite::spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_suite::spatial::serialize::release_to_text;
use privtree_suite::spatial::synopsis::privtree_synopsis;
use privtree_suite::spatial::FrozenSynopsis;
use privtree_suite::store::Catalog;

/// An ε-DP release over one half of the domain for one epoch.
fn region_release(
    data: &PointSet,
    region: Rect,
    epoch: u64,
) -> Result<FrozenSynopsis, Box<dyn std::error::Error>> {
    let mut slice = PointSet::new(2);
    for p in data.iter().filter(|p| region.contains_point(p)) {
        slice.push(p);
    }
    Ok(privtree_synopsis(
        &slice,
        region,
        SplitConfig::full(2),
        Epsilon::new(1.0)?,
        &mut seeded(0xE90C ^ epoch),
    )?
    .freeze())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = gowalla_like(100_000, 42);
    let west = Rect::new(&[0.0, 0.0], &[0.5, 1.0]);
    let east = Rect::new(&[0.5, 0.0], &[1.0, 1.0]);

    // 1. Open the store: one release per region, each behind its own
    //    cell grid (built once, on the worker pool).
    let store = ReleaseStore::open_gridded([
        ("west", region_release(&data, west, 0)?),
        ("east", region_release(&data, east, 0)?),
    ])?;
    let q = RangeQuery::new(Rect::new(&[0.1, 0.1], &[0.4, 0.9]));
    let snapshot = store.snapshot();
    println!(
        "serving {} releases ({} nodes), v{}: answer = {:.1}",
        snapshot.shard_count(),
        snapshot.node_count(),
        snapshot.version(),
        snapshot.answer(&q)
    );

    // 2. Epoch swap: a fresh west release replaces the old one. Only the
    //    routing arena (shards + 1 = 3 nodes here) and the west shard's
    //    grid are rebuilt — the report proves it — and the pre-swap
    //    snapshot keeps answering epoch-0 bits for as long as we hold it.
    let held = store.snapshot();
    let held_answer = held.answer(&q);
    let report = store.swap("west", region_release(&data, west, 1)?)?;
    println!(
        "swapped west: v{}, rebuilt {} routing nodes + {} grid(s) \
         ({} cells), reused {} shard(s)",
        report.version,
        report.routing_nodes_rebuilt,
        report.grids_built,
        report.grid_cells_built,
        report.shards_reused
    );
    println!(
        "epoch 1 answer = {:.1}; retained epoch-0 snapshot still says {:.1}",
        store.snapshot().answer(&q),
        held.answer(&q)
    );
    assert_eq!(held.answer(&q).to_bits(), held_answer.to_bits());

    // 3. Persist the store: every serving release lands in an on-disk
    //    catalog as a privtree-bin v1 file (grids included) behind an
    //    atomically published catalog.toml manifest.
    let catalog_dir = std::env::temp_dir().join("privtree-catalog");
    let mut catalog = Catalog::open_or_create(&catalog_dir)?;
    let saved = store.persist_catalog(&mut catalog)?;
    println!(
        "\npersisted {saved} release(s) into {} ({} entries: {})",
        catalog_dir.display(),
        catalog.len(),
        catalog.keys().collect::<Vec<_>>().join(", ")
    );

    // 4. Warm start: reopen the catalog cold and rebuild the store from
    //    disk alone. Binary decode is one validated pass (no per-line
    //    parsing) and the shipped grids are adopted, not rebuilt — and
    //    the answers are bit-identical to the store we persisted.
    let reopened = Catalog::open(&catalog_dir)?;
    let warm = ReleaseStore::open_catalog(&reopened, true)?;
    assert_eq!(
        warm.snapshot().answer(&q).to_bits(),
        store.snapshot().answer(&q).to_bits(),
        "a warm-started store must answer the persisted epoch's exact bits"
    );
    println!(
        "warm-started {} release(s) from disk: answer = {:.1} (bit-identical), grids rebuilt: {}",
        warm.snapshot().shard_count(),
        warm.snapshot().answer(&q),
        warm.stats().grids_built
    );

    // 5. The same artifacts drive the standalone server: a text release
    //    for key=path serving, or the whole catalog via --catalog (which
    //    also enables the save/load protocol verbs).
    let path = std::env::temp_dir().join("west-epoch0.txt");
    std::fs::write(
        &path,
        release_to_text(&region_release(&data, west, 0)?, None),
    )?;
    println!("\nwrote {}; try:", path.display());
    println!(
        "  printf 'count 0.1,0.1 0.4,0.9\\nstats\\nquit\\n' | \\\n    \
         target/release/privtree-serve --grids west={}",
        path.display()
    );
    println!(
        "  printf 'keys\\nstats\\nquit\\n' | \\\n    \
         target/release/privtree-serve --grids --catalog {}",
        catalog_dir.display()
    );
    Ok(())
}
