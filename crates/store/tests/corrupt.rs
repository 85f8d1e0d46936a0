//! Decoder robustness: hostile `privtree-bin` bytes must always come
//! back as a typed [`StoreError`] — never a panic, and never an
//! allocation sized from an unvalidated header. The corruptions are
//! table-driven: each case mutates a valid file and names the exact
//! error variant the decoder must refuse with, and every case runs
//! through **both** decoders — the copying [`decode_release`] and the
//! zero-copy [`open_release_view`] — which must refuse identically
//! (the zero-copy path may hand out borrowed slices of the hostile
//! bytes, so it gets no validation discount).

use std::sync::Arc;

use privtree_dp::budget::Epsilon;
use privtree_dp::rng::seeded;
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::grid_route::CellGrid;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::{FrozenSynopsis, StableBytes};
use privtree_store::{
    decode_release, encode_release, open_release_view, ReleaseBytes, StoreError, HEADER_LEN,
};
use rand::RngExt;

fn sample_release(seed: u64) -> FrozenSynopsis {
    let mut rng = seeded(seed);
    let mut ps = PointSet::new(2);
    for _ in 0..800 {
        ps.push(&[rng.random::<f64>() * 0.4, rng.random::<f64>()]);
    }
    privtree_spatial::synopsis::privtree_synopsis(
        &ps,
        Rect::unit(2),
        SplitConfig::full(2),
        Epsilon::new(1.0).unwrap(),
        &mut seeded(seed ^ 7),
    )
    .unwrap()
    .freeze()
}

/// A valid binary release without a grid.
fn plain_bytes() -> Vec<u8> {
    encode_release(&sample_release(3), None)
}

/// A valid binary release with a grid.
fn gridded_bytes() -> Vec<u8> {
    let arena = sample_release(4);
    let grid = CellGrid::build(&arena, &[6, 5], Some(privtree_runtime::global())).unwrap();
    encode_release(&arena, Some(&grid))
}

/// One section's location inside an encoded release, as discovered by
/// walking the actual bytes (honouring the aligned-layout flag), so the
/// corruption cases never hand-compute offsets that a layout revision
/// would silently invalidate.
#[derive(Debug, Clone, Copy)]
struct Section {
    /// Offset of the padding that precedes the frame (equals `frame`
    /// when the section needed none).
    pad: usize,
    /// Offset of the 12-byte tag+length frame.
    frame: usize,
    /// Offset of the first payload byte.
    payload: usize,
    /// Payload length in bytes.
    len: usize,
    /// Offset of the 4-byte CRC.
    crc: usize,
}

/// Walk every section frame in `bytes` (which must be a structurally
/// valid release) and return them in file order.
fn walk_sections(bytes: &[u8]) -> Vec<(String, Section)> {
    let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let aligned = flags & 2 != 0;
    let mut pos = HEADER_LEN;
    let mut out = Vec::new();
    while pos < bytes.len() {
        let pad = pos;
        if aligned {
            pos += (8 - ((pos + 12) % 8)) % 8;
        }
        let tag = String::from_utf8_lossy(&bytes[pos..pos + 4]).into_owned();
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        out.push((
            tag,
            Section {
                pad,
                frame: pos,
                payload: pos + 12,
                len,
                crc: pos + 12 + len,
            },
        ));
        pos += 12 + len + 4;
    }
    assert_eq!(pos, bytes.len(), "section walk must cover the whole file");
    out
}

/// The section carrying `tag`.
fn section(bytes: &[u8], tag: &str) -> Section {
    walk_sections(bytes)
        .into_iter()
        .find(|(t, _)| t == tag)
        .unwrap_or_else(|| panic!("no {tag} section"))
        .1
}

/// Overwrite `len` bytes at `at` with `patch`.
fn patched(mut bytes: Vec<u8>, at: usize, patch: &[u8]) -> Vec<u8> {
    bytes[at..at + patch.len()].copy_from_slice(patch);
    bytes
}

/// XOR-flip one byte.
fn flipped(mut bytes: Vec<u8>, at: usize) -> Vec<u8> {
    bytes[at] ^= 0xFF;
    bytes
}

/// Decode `bytes` through the zero-copy view path.
fn decode_view(bytes: &[u8]) -> Result<(), StoreError> {
    let owner: Arc<dyn StableBytes> = Arc::new(ReleaseBytes::from_vec(bytes.to_vec()));
    open_release_view(&owner, true).map(|_| ())
}

/// One corruption case: a label, the mutated bytes, and the acceptance
/// predicate for the decoder's refusal.
type Case = (&'static str, Vec<u8>, fn(&StoreError) -> bool);

#[test]
fn corrupt_inputs_are_typed_errors() {
    let plain = plain_bytes();
    let gridded = gridded_bytes();
    let lo = section(&plain, "NLOC");
    assert!(
        lo.frame > lo.pad,
        "the first section of an aligned file needs padding — if the \
         layout changes, pick another section for the padding case"
    );

    let cases: Vec<Case> = vec![
        ("empty file", Vec::new(), |e| {
            matches!(e, StoreError::SizeMismatch { .. })
        }),
        (
            "header torn mid-way",
            plain[..HEADER_LEN / 2].to_vec(),
            |e| matches!(e, StoreError::SizeMismatch { .. }),
        ),
        ("wrong magic", patched(plain.clone(), 0, b"NOTMYFMT"), |e| {
            matches!(e, StoreError::BadMagic)
        }),
        (
            "future version",
            patched(plain.clone(), 8, &9u32.to_le_bytes()),
            |e| matches!(e, StoreError::UnsupportedVersion { found: 9 }),
        ),
        (
            "unknown flag bits",
            patched(plain.clone(), 12, &0x80u32.to_le_bytes()),
            |e| matches!(e, StoreError::BadHeader { .. }),
        ),
        (
            "zero dims",
            patched(plain.clone(), 16, &0u32.to_le_bytes()),
            |e| matches!(e, StoreError::BadHeader { .. }),
        ),
        (
            "dims past MAX_DIMS",
            patched(plain.clone(), 16, &64u32.to_le_bytes()),
            |e| matches!(e, StoreError::BadHeader { .. }),
        ),
        (
            "reserved field set",
            patched(plain.clone(), 20, &1u32.to_le_bytes()),
            |e| matches!(e, StoreError::BadHeader { .. }),
        ),
        (
            "zero nodes",
            patched(plain.clone(), 24, &0u64.to_le_bytes()),
            |e| matches!(e, StoreError::BadHeader { .. }),
        ),
        (
            // the OOM guard: a header claiming 2^40 nodes implies a file
            // size that disagrees with reality, and the decoder must say
            // so before sizing any buffer from the count
            "hostile node count",
            patched(plain.clone(), 24, &(1u64 << 40).to_le_bytes()),
            |e| matches!(e, StoreError::SizeMismatch { .. }),
        ),
        (
            "overflowing node count",
            patched(plain.clone(), 24, &u64::MAX.to_le_bytes()),
            |e| {
                matches!(
                    e,
                    StoreError::BadHeader { .. } | StoreError::SizeMismatch { .. }
                )
            },
        ),
        (
            "cells without grid flag",
            patched(plain.clone(), 32, &16u64.to_le_bytes()),
            |e| matches!(e, StoreError::BadHeader { .. }),
        ),
        (
            "grid flag with zero cells",
            patched(gridded.clone(), 32, &0u64.to_le_bytes()),
            |e| matches!(e, StoreError::BadHeader { .. }),
        ),
        (
            "truncated mid-section",
            plain[..plain.len() - 21].to_vec(),
            |e| matches!(e, StoreError::SizeMismatch { .. }),
        ),
        (
            "trailing garbage",
            {
                let mut b = plain.clone();
                b.extend_from_slice(b"extra");
                b
            },
            |e| matches!(e, StoreError::SizeMismatch { .. }),
        ),
        (
            // an oversized section length cannot change the (validated)
            // whole-file size, so only the frame check can refuse it
            "oversized section length",
            patched(plain.clone(), lo.frame + 4, &(u64::MAX / 2).to_le_bytes()),
            |e| matches!(e, StoreError::BadSection { .. }),
        ),
        (
            // a garbage byte in the inter-section padding means the
            // payload offsets are not where the aligned layout promises
            "non-zero section padding",
            flipped(plain.clone(), lo.pad),
            |e| matches!(e, StoreError::BadSection { .. }),
        ),
        (
            "flipped payload byte",
            flipped(plain.clone(), lo.payload + 3),
            |e| {
                matches!(
                    e,
                    StoreError::ChecksumMismatch {
                        section: "node-lo",
                        ..
                    }
                )
            },
        ),
        ("flipped CRC byte", flipped(plain.clone(), lo.crc), |e| {
            matches!(
                e,
                StoreError::ChecksumMismatch {
                    section: "node-lo",
                    ..
                }
            )
        }),
        (
            "flipped grid value byte",
            {
                let gv = section(&gridded, "GVAL");
                flipped(gridded.clone(), gv.payload + gv.len - 3)
            },
            |e| {
                matches!(
                    e,
                    StoreError::ChecksumMismatch {
                        section: "grid-values",
                        ..
                    }
                )
            },
        ),
    ];

    for (label, bytes, expect) in cases {
        match decode_release(&bytes) {
            Ok(_) => panic!("{label}: decoded corrupt input"),
            Err(e) => assert!(expect(&e), "{label}: unexpected error {e:?}"),
        }
        match decode_view(&bytes) {
            Ok(_) => panic!("{label}: zero-copy decoded corrupt input"),
            Err(e) => assert!(expect(&e), "{label}: unexpected zero-copy error {e:?}"),
        }
    }
}

/// Structural corruption *with a valid checksum* — the CRC is recomputed
/// after the mutation, so only the layout validator can catch it. Both
/// decode paths must refuse: the zero-copy view runs the same arena and
/// grid validation over its borrowed columns.
#[test]
fn consistent_checksums_do_not_bless_bad_layouts() {
    let arena = sample_release(9);
    let n = arena.node_count();
    let bytes = encode_release(&arena, None);
    // break the child ranges: point the root's children past the arena
    let fc = section(&bytes, "NFCH");
    let mut bad = bytes.clone();
    bad[fc.payload..fc.payload + 4].copy_from_slice(&(n as u32).to_le_bytes());
    // fix up the CRC so only layout validation can refuse
    let crc = privtree_store::format::crc32(&bad[fc.payload..fc.payload + fc.len]);
    bad[fc.crc..fc.crc + 4].copy_from_slice(&crc.to_le_bytes());
    match decode_release(&bad) {
        Err(StoreError::Layout(_)) => {}
        other => panic!("expected a layout refusal, got {other:?}"),
    }
    match decode_view(&bad) {
        Err(StoreError::Layout(_)) => {}
        other => panic!("expected a zero-copy layout refusal, got {other:?}"),
    }

    // and a grid whose anchors were re-checksummed after corruption must
    // fail grid validation, not checksum validation
    let garena = sample_release(10);
    let grid = CellGrid::build(&garena, &[4, 4], Some(privtree_runtime::global())).unwrap();
    let gbytes = encode_release(&garena, Some(&grid));
    let ga = section(&gbytes, "GANC");
    let mut gbad = gbytes.clone();
    gbad[ga.payload..ga.payload + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let gcrc = privtree_store::format::crc32(&gbad[ga.payload..ga.payload + ga.len]);
    gbad[ga.crc..ga.crc + 4].copy_from_slice(&gcrc.to_le_bytes());
    match decode_release(&gbad) {
        Err(StoreError::Grid(_)) => {}
        other => panic!("expected a grid refusal, got {other:?}"),
    }
    match decode_view(&gbad) {
        Err(StoreError::Grid(_)) => {}
        other => panic!("expected a zero-copy grid refusal, got {other:?}"),
    }
}
