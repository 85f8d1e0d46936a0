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
//! * the header and whole-file size are validated exactly as in the
//!   copying path;
//! * each section is framed/walked identically, with per-section CRC
//!   verification on by default ([`open_release_view`]'s `verify`
//!   parameter lets catalog opens that already verified the whole-file
//!   checksum skip the second pass);
//! * each column borrows the payload when the host is little-endian and
//!   the payload is suitably aligned (guaranteed by the aligned file
//!   layout for mapped files), and silently falls back to the owned
//!   copy otherwise — legacy unpadded files therefore decode fine, just
//!   without the zero-copy win;
//! * arena validation (`FrozenSynopsis::from_flat_parts`) runs eagerly,
//!   but the grid's [`CellGrid::from_parts`] — the dominant cost of a
//!   gridded decode — is *staged* as [`CellGridParts`] and assembled on
//!   first use (see `ShardHandle::from_staged`), which is what makes a
//!   catalog warm start O(map + validate) instead of O(decode).
//!
//! Answers served from a view are bit-identical to the owned decode of
//! the same bytes: the columns hold the same values, and the staged grid
//! assembles through the same `from_parts` entry point
//! (property-tested in `tests/zero_copy.rs`).

use std::path::Path;
use std::sync::Arc;

use privtree_spatial::grid_route::{CellGrid, CellGridParts};
use privtree_spatial::{Column, ColumnScalar, FrozenSynopsis, StableBytes};

use crate::format::{
    decode_bins, f64_vec, parse_header, u32_vec, Reader, SEC_COUNTS, SEC_FIRST, SEC_GANCHORS,
    SEC_GBINS, SEC_GVALUES, SEC_HI, SEC_KIDS, SEC_LO,
};
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

/// A zero-copy open: the validated arena plus, for gridded releases,
/// the staged grid columns awaiting first-use assembly.
#[derive(Debug, Clone)]
pub struct ReleaseView {
    /// The validated frozen arena, columns borrowing the owner where
    /// possible.
    pub arena: FrozenSynopsis,
    /// The persisted grid columns, when the release ships a grid.
    pub grid: Option<CellGridParts>,
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

/// Open a release over stable bytes with zero-copy columns: validate
/// the header + whole-file size, walk the sections, verify their CRCs
/// (unless `verify_sections` is false — only pass `false` when the
/// whole-file checksum has already been verified against a trusted
/// manifest, as [`crate::Catalog::load_mapped`] does), run full arena
/// validation, and stage the grid columns for first-use assembly.
pub fn open_release_view(
    owner: &Arc<dyn StableBytes>,
    verify_sections: bool,
) -> Result<ReleaseView, StoreError> {
    let bytes = owner.stable_bytes();
    let header = parse_header(bytes)?;
    let (dims, nodes, cells) = (header.dims, header.nodes, header.cells);

    let mut reader = Reader::new(bytes, header.aligned, verify_sections);
    let coords = nodes * dims as u64 * 8;
    let lo = f64_column(owner, reader.section(SEC_LO, coords)?);
    let hi = f64_column(owner, reader.section(SEC_HI, coords)?);
    let first_child = u32_column(owner, reader.section(SEC_FIRST, nodes * 4)?);
    let child_count = u32_column(owner, reader.section(SEC_KIDS, nodes * 4)?);
    let counts = f64_column(owner, reader.section(SEC_COUNTS, nodes * 8)?);
    let arena = FrozenSynopsis::from_flat_parts(
        dims as usize,
        lo,
        hi,
        first_child,
        child_count,
        counts,
        "imported",
    )?;
    if !header.grid {
        return Ok(ReleaseView { arena, grid: None });
    }
    let bins = decode_bins(reader.section(SEC_GBINS, 4 * dims as u64)?, cells)?;
    let anchors = u32_column(owner, reader.section(SEC_GANCHORS, cells * 4)?);
    let values = f64_column(owner, reader.section(SEC_GVALUES, cells * 8)?);
    Ok(ReleaseView {
        arena,
        grid: Some(CellGridParts::new(bins, anchors, values)),
    })
}

/// The zero-copy counterpart of [`crate::decode_release`]: same full
/// validation (header, framing, section CRCs, arena layout, grid
/// assembly), same typed errors on every hostile input — but the
/// surviving columns borrow `owner`'s bytes instead of copying them.
pub fn decode_release_view(
    owner: &Arc<dyn StableBytes>,
) -> Result<(FrozenSynopsis, Option<CellGrid>), StoreError> {
    let view = open_release_view(owner, true)?;
    let grid = match &view.grid {
        Some(parts) => Some(parts.assemble(&view.arena)?),
        None => None,
    };
    Ok((view.arena, grid))
}
