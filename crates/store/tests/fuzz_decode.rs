//! Fuzz-style robustness of the `privtree-bin` readers: random byte
//! mutations — flips, truncations, extensions — of a **valid** release
//! file must come back from both the owned decoder
//! ([`decode_release`]) and the zero-copy view
//! ([`open_release_view`]) as a typed [`StoreError`], never a panic,
//! and never an allocation sized by attacker-controlled counts that
//! the payload cannot back. Hostile headers advertising billions of
//! nodes are rejected by arithmetic against the actual byte length
//! before any buffer is sized.

use std::sync::Arc;

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::grid_route::CellGrid;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::{FrozenSynopsis, StableBytes};
use privtree_store::{decode_release, encode_release, open_release_view, ReleaseBytes};
use proptest::prelude::*;
use rand::RngExt;

fn sample_release(seed: u64) -> FrozenSynopsis {
    let mut rng = seeded(seed);
    let mut ps = PointSet::new(2);
    for _ in 0..220 {
        ps.push(&[rng.random::<f64>(), rng.random::<f64>() * 0.8]);
    }
    privtree_spatial::synopsis::privtree_synopsis(
        &ps,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 0x6b45),
    )
    .unwrap()
    .freeze()
}

/// Two valid corpora: a plain release and one shipping a grid section
/// (so mutations also land in grid bins/anchors/values framing).
fn corpus() -> &'static [Vec<u8>; 2] {
    static CORPUS: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let plain = sample_release(3);
        let gridded = sample_release(4);
        let grid = CellGrid::build(&gridded, &[8, 8], None).unwrap();
        [
            encode_release(&plain, None),
            encode_release(&gridded, Some(&grid)),
        ]
    })
}

/// Feed one mutant through both read paths. The property is typed
/// failure: any `Err` is fine (it is a `StoreError` by construction
/// and must render), `Ok` is fine (the mutation missed every
/// checksummed byte — e.g. a zero-length truncation of trailing
/// garbage we appended); what must never happen is a panic or an
/// abort, which the test harness itself converts into a failure.
fn both_paths_fail_typed(bytes: &[u8]) {
    if let Err(e) = decode_release(bytes) {
        let _ = e.to_string();
    }
    let owner: Arc<dyn StableBytes> = Arc::new(ReleaseBytes::from_vec(bytes.to_vec()));
    if let Err(e) = open_release_view(&owner, true) {
        let _ = e.to_string();
    }
}

proptest! {
    /// Random XOR flips at random offsets (each code packs an offset
    /// and a non-zero mask).
    #[test]
    fn random_byte_flips_never_panic(
        which in 0usize..2,
        flips in proptest::collection::vec(0usize..100_000_000, 1..8),
    ) {
        let mut bytes = corpus()[which].clone();
        let len = bytes.len();
        for code in flips {
            let (offset, mask) = (code / 255, (code % 255 + 1) as u8);
            bytes[offset % len] ^= mask;
        }
        both_paths_fail_typed(&bytes);
    }

    /// Random truncations — including mid-header and mid-record — and
    /// random garbage extensions.
    #[test]
    fn truncations_and_extensions_never_panic(
        which in 0usize..2,
        cut in 0usize..1_000_000,
        extend in 0usize..64,
        fill in 0usize..256,
    ) {
        let valid = &corpus()[which];
        let mut bytes = valid[..cut % (valid.len() + 1)].to_vec();
        bytes.extend(std::iter::repeat_n(fill as u8, extend));
        both_paths_fail_typed(&bytes);
    }

    /// Flips targeted at the fixed header — version, dims, node/cell
    /// counts, section table — where a naive reader would size
    /// allocations straight from the mutated fields.
    #[test]
    fn header_flips_never_panic_or_overallocate(
        which in 0usize..2,
        offset in 0usize..64,
        mask in 1usize..256,
    ) {
        let mut bytes = corpus()[which].clone();
        let idx = offset % bytes.len().min(64);
        bytes[idx] ^= mask as u8;
        both_paths_fail_typed(&bytes);
    }
}

/// A hostile header advertising `u32::MAX` nodes over a tiny payload
/// must be rejected by length arithmetic — a typed error, not a
/// 100-GB reservation. (If the decoder sized buffers from the header
/// alone, this test would OOM or crash rather than fail an assert.)
#[test]
fn absurd_counts_are_rejected_before_allocation() {
    for which in 0..2 {
        let bytes = corpus()[which].clone();
        // the node-count field lives in the fixed header right after
        // magic + version; stamp every plausible u32 slot in the first
        // 32 bytes with u32::MAX and require typed failure each time
        for slot in (8..32).step_by(4) {
            let mut mutant = bytes.clone();
            mutant[slot..slot + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(
                decode_release(&mutant).is_err(),
                "corpus {which}: absurd count at {slot} must be rejected"
            );
            let owner: Arc<dyn StableBytes> = Arc::new(ReleaseBytes::from_vec(mutant));
            assert!(
                open_release_view(&owner, true).is_err(),
                "corpus {which}: view must reject absurd count at {slot}"
            );
        }
        // and the unmutated corpus still decodes — the corpus itself
        // is not the thing failing
        decode_release(&bytes).expect("pristine corpus decodes");
    }
}
