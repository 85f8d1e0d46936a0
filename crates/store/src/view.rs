//! Zero-copy release views: decode `privtree-bin` straight out of a
//! memory mapping (or any stable byte buffer) without materializing the
//! columns.
//!
//! The copying decoder ([`crate::decode_release`]) turns every section
//! into an owned `Vec`, so opening a release costs O(bytes) in copies
//! and each serving process holds a private copy of every release. The
//! zero-copy path instead keeps the file bytes alive behind an
//! `Arc<dyn StableBytes>` (usually a [`ReleaseBytes::Mapped`] mapping)
//! and hands the spatial layer [`Column`]s that *borrow* the payloads in
//! place:
//!
//! * the view and the copying decoder are one decoder (`decode_with` in
//!   `format.rs`) that differs only in how a payload becomes a column,
//!   so the header and whole-file size, section framing and CRCs, arena
//!   layout ([`FrozenSynopsis::from_flat_parts`]) and grid fit
//!   ([`CellGrid::from_parts`], which rebuilds the grid's derived tables
//!   from its borrowed anchors and values) are checked in the same
//!   order, and a hostile file is refused with the same typed
//!   [`StoreError`]. [`open_release_view`]'s `verify_sections` lets a
//!   catalog open that already verified the whole-file checksum skip
//!   the per-section CRC pass;
//! * each column borrows the payload when the host is little-endian and
//!   the payload is suitably aligned (guaranteed by the aligned file
//!   layout for mapped files), and silently falls back to the owned
//!   copy otherwise — legacy unpadded files therefore decode fine, just
//!   without the zero-copy win.
//!
//! Answers served from a view are bit-identical to the owned decode of
//! the same bytes: the columns hold the same values, and the grid is
//! assembled through the same `from_parts` entry point
//! (property-tested in `tests/zero_copy.rs`).

use std::path::Path;
use std::sync::Arc;

use privtree_spatial::grid_route::CellGrid;
use privtree_spatial::{Column, ColumnScalar, FrozenSynopsis, StableBytes};

use crate::format::{decode_with, f64_vec, u32_vec};
use crate::StoreError;

/// The backing bytes of one release file, kept alive for as long as any
/// column borrows from them.
#[derive(Debug)]
pub enum ReleaseBytes {
    /// A read-only shared mapping of the release file: the OS page cache
    /// holds the single physical copy.
    Mapped(privtree_mmap::Mmap),
    /// An owned in-memory copy (mapping failed, or the bytes came through
    /// [`ReleaseBytes::from_vec`]). Columns can still borrow from it
    /// zero-copy — there is just no page-cache sharing.
    Owned(Vec<u8>),
}

impl ReleaseBytes {
    /// Open `path` as a memory mapping, falling back to an owned read if
    /// mapping fails.
    pub fn map(path: &Path) -> Result<Self, StoreError> {
        if let Ok(map) = privtree_mmap::Mmap::open(path) {
            return Ok(ReleaseBytes::Mapped(map));
        }
        Ok(ReleaseBytes::Owned(std::fs::read(path).map_err(|e| {
            StoreError::io(format!("reading {}", path.display()), e)
        })?))
    }

    /// Wrap bytes already in memory.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        ReleaseBytes::Owned(bytes)
    }

    /// The release file bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            ReleaseBytes::Mapped(map) => map.bytes(),
            ReleaseBytes::Owned(buf) => buf,
        }
    }

    /// Bytes held by a memory mapping (0 for owned storage).
    pub fn mapped_len(&self) -> usize {
        match self {
            ReleaseBytes::Mapped(map) => map.len(),
            ReleaseBytes::Owned(_) => 0,
        }
    }

    /// Whether the storage is a memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.mapped_len() > 0
    }
}

// SAFETY: both variants hold heap/mapping storage whose address never
// changes while the value is alive, and nothing mutates it.
unsafe impl StableBytes for ReleaseBytes {
    fn stable_bytes(&self) -> &[u8] {
        self.bytes()
    }
}

/// Borrow `payload` (a subslice of `owner`'s bytes) as a typed column,
/// or `None` when borrowing is impossible (big-endian host, misaligned
/// payload).
fn borrow_column<T: ColumnScalar>(
    owner: &Arc<dyn StableBytes>,
    payload: &[u8],
) -> Option<Column<T>> {
    if !cfg!(target_endian = "little") {
        // on-disk columns are little-endian; a big-endian host must
        // byte-swap, i.e. copy
        return None;
    }
    let base = owner.stable_bytes().as_ptr() as usize;
    let offset = (payload.as_ptr() as usize).checked_sub(base)?;
    Column::borrowed(
        Arc::clone(owner),
        offset,
        payload.len() / std::mem::size_of::<T>(),
    )
    .ok()
}

/// `payload` as an `f64` column: borrowed when possible, copied
/// otherwise.
fn f64_column(owner: &Arc<dyn StableBytes>, payload: &[u8]) -> Column<f64> {
    borrow_column(owner, payload).unwrap_or_else(|| f64_vec(payload).into())
}

/// `payload` as a `u32` column: borrowed when possible, copied
/// otherwise.
fn u32_column(owner: &Arc<dyn StableBytes>, payload: &[u8]) -> Column<u32> {
    borrow_column(owner, payload).unwrap_or_else(|| u32_vec(payload).into())
}

/// Open a release over stable bytes with zero-copy columns: the
/// counterpart of [`crate::decode_release`], with the same validation
/// (header and whole-file size, section framing, section CRCs, arena
/// layout, grid assembly) and the same typed errors on every hostile
/// input — but the surviving columns borrow `owner`'s bytes instead of
/// copying them. Pass `verify_sections = false` only when the whole-file
/// checksum has already been verified against a trusted manifest, as
/// [`crate::Catalog::load_mapped`] does.
pub fn open_release_view(
    owner: &Arc<dyn StableBytes>,
    verify_sections: bool,
) -> Result<(FrozenSynopsis, Option<CellGrid>), StoreError> {
    decode_with(
        owner.stable_bytes(),
        verify_sections,
        |p| f64_column(owner, p),
        |p| u32_column(owner, p),
    )
}
