//! Release persistence for the PrivTree serving stack.
//!
//! A PrivTree release is the private synopsis itself (Zhang et al.,
//! SIGMOD 2016): it is published once and then serves queries forever,
//! outliving the data that produced it. The `serialize` text format in
//! `privtree-spatial` makes releases portable, but a serving process
//! that warm-starts a multi-million-node catalog pays for per-line float
//! parsing on every boot. This crate owns the durable, fast-loading
//! store underneath the engine:
//!
//! * [`format`](mod@format) — the **`privtree-bin v1`** binary columnar
//!   format: a fixed header (dims / node count / cell count, so the
//!   loader preallocates exactly once) followed by length-prefixed,
//!   CRC-checksummed little-endian sections holding the frozen arena's
//!   structure-of-arrays columns and, optionally, the cell grid's
//!   anchors and contributions. The grid's derived tables — the
//!   summed-area table, the boundary shell's face tables and its run
//!   index — are never stored: they are rebuilt deterministically from
//!   `grid-anchors`, `grid-values` and the arena on load, exactly like
//!   the text path, so a file cannot supply table values, and a
//!   resolution whose tables would exceed the grid allocation bound is
//!   refused before anything is allocated.
//!   Decoding is one validated pass over the bytes — no per-line
//!   parsing, no intermediate strings. `crates/store/README.md`
//!   specifies the layout byte by byte.
//! * [`frame`] — the section convention lifted out of the file format
//!   as generic **stream frames**: `tag | flags | length | payload |
//!   optional CRC-32`, with the same validate-size-before-allocate
//!   contract. The engine's `privtree-wire v1` query protocol frames
//!   every message with these helpers.
//! * [`catalog`] — the **on-disk release catalog**: a directory with a
//!   `catalog.toml` manifest mapping release key → file, format, and
//!   whole-file checksum. Every publish (data file and manifest alike)
//!   is write-temp-then-rename, so a crashed writer can never leave a
//!   half-written catalog behind. Replaced releases keep their newest
//!   `keep` generations per key; the GC only unlinks files no live
//!   generation references.
//! * [`journal`] — the **write-ahead operation journal**: an
//!   append-only segment of CRC-framed add/swap/retire/checkpoint
//!   records beside the manifest. With journaling enabled a mutation
//!   is durable after one sequential append (fsynced per
//!   [`FsyncPolicy`]); `Catalog::open` replays the segment on top of
//!   the manifest, truncating torn tails, and `Catalog::checkpoint`
//!   folds the state back into the manifest and rotates the segment.
//! * [`view`] — **zero-copy loading**: [`ReleaseBytes`] memory-maps a
//!   release file (read-only, falling back to an owned read when
//!   mapping fails) and [`open_release_view`] runs the copying
//!   decoder's validation against the mapping, handing back a
//!   `FrozenSynopsis` whose columns borrow the mapped bytes directly —
//!   the page cache *is* the serving arena — plus the shipped grid,
//!   assembled over borrowed anchors and values. Misaligned or
//!   legacy-unpadded sections fall back to copying that column, never
//!   to an error.
//! * [`text_to_binary`] / [`binary_to_text`] — lossless conversion
//!   between the two formats. The binary loader reproduces the text
//!   loader's output *exactly* (same arrays, same bits), so a release
//!   answers every query identically whichever format carried it —
//!   property-tested over random releases with and without grids.
//!
//! Every failure is a typed [`StoreError`]; hostile or truncated input
//! can never panic the loader or force an unchecked preallocation (the
//! header is validated against the actual byte count before any buffer
//! is sized).

pub mod catalog;
pub mod format;
pub mod frame;
pub mod journal;
pub mod view;

pub use catalog::{Catalog, CatalogEntry, CatalogMetrics, RecoverySweep, ReleaseFormat};
pub use format::{
    decode_release, encode_release, encode_release_unaligned, encoded_len, HEADER_LEN, MAGIC,
    VERSION,
};
pub use journal::{FsyncPolicy, Journal, JournalMetrics, JournalOp, JournalRecord};
pub use view::{open_release_view, ReleaseBytes};

use privtree_spatial::frozen::FlatLayoutError;
use privtree_spatial::grid_route::GridRouteError;
use privtree_spatial::serialize::{release_from_text, release_to_text, ParseError};

/// Why a store operation failed. Variants are typed (and comparable) so
/// corrupt-input tests can pin the exact refusal, and so callers can
/// distinguish "file is damaged" from "catalog does not know this key".
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem failure; `context` names the path and operation.
    Io { context: String, message: String },
    /// The file does not start with the `privtree-bin` magic.
    BadMagic,
    /// The format version is newer than this reader.
    UnsupportedVersion { found: u32 },
    /// The fixed header is self-inconsistent (zero nodes, dims outside
    /// `1..=MAX_DIMS`, unknown flags, grid flag without cells, …).
    BadHeader { reason: String },
    /// The byte count the header implies disagrees with the actual file
    /// length — truncation, trailing garbage, or a hostile node count
    /// (checked before any allocation is sized from the header).
    SizeMismatch { expected: u64, found: u64 },
    /// A section's tag or length prefix is wrong.
    BadSection {
        section: &'static str,
        reason: String,
    },
    /// A section's payload does not match its stored CRC-32.
    ChecksumMismatch {
        section: &'static str,
        expected: u32,
        found: u32,
    },
    /// A text-format release failed to parse.
    Text(ParseError),
    /// The decoded arrays are not a valid frozen arena.
    Layout(FlatLayoutError),
    /// The decoded grid does not fit the decoded arena.
    Grid(GridRouteError),
    /// The catalog manifest is malformed (1-based line number).
    Manifest { line: usize, reason: String },
    /// A journal segment is unusable (bad header, wrong base sequence,
    /// wedged handle); `context` names the segment path.
    Journal { context: String, reason: String },
    /// The catalog holds no release under this key.
    UnknownKey { key: String },
    /// A release key longer than a journal record can carry
    /// ([`journal::MAX_STRING_BYTES`]); refused before any file is
    /// written, journaling or not.
    KeyTooLong { bytes: usize },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context, message } => write!(f, "{context}: {message}"),
            StoreError::BadMagic => write!(f, "not a privtree-bin file (bad magic)"),
            StoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "privtree-bin version {found} is not supported (reader speaks {VERSION})"
                )
            }
            StoreError::BadHeader { reason } => write!(f, "bad privtree-bin header: {reason}"),
            StoreError::SizeMismatch { expected, found } => write!(
                f,
                "file is {found} bytes but the header implies {expected} (truncated or corrupt)"
            ),
            StoreError::BadSection { section, reason } => {
                write!(f, "bad {section} section: {reason}")
            }
            StoreError::ChecksumMismatch {
                section,
                expected,
                found,
            } => write!(
                f,
                "{section} section checksum mismatch: stored {expected:08x}, computed {found:08x}"
            ),
            StoreError::Text(e) => write!(f, "text release: {e}"),
            StoreError::Layout(e) => write!(f, "invalid arena layout: {e}"),
            StoreError::Grid(e) => write!(f, "invalid grid: {e}"),
            StoreError::Manifest { line, reason } => {
                write!(f, "bad catalog manifest at line {line}: {reason}")
            }
            StoreError::Journal { context, reason } => {
                write!(f, "journal {context}: {reason}")
            }
            StoreError::UnknownKey { key } => write!(f, "catalog has no release named {key}"),
            StoreError::KeyTooLong { bytes } => write!(
                f,
                "release key is {bytes} bytes; the limit is {}",
                journal::MAX_STRING_BYTES
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ParseError> for StoreError {
    fn from(e: ParseError) -> Self {
        StoreError::Text(e)
    }
}

impl From<FlatLayoutError> for StoreError {
    fn from(e: FlatLayoutError) -> Self {
        StoreError::Layout(e)
    }
}

impl From<GridRouteError> for StoreError {
    fn from(e: GridRouteError) -> Self {
        StoreError::Grid(e)
    }
}

impl StoreError {
    /// Wrap an I/O failure with the path and operation it arose in.
    pub(crate) fn io(context: impl Into<String>, e: std::io::Error) -> Self {
        StoreError::Io {
            context: context.into(),
            message: e.to_string(),
        }
    }
}

/// Convert a text-format release to `privtree-bin v1`. The text is
/// parsed through the exact loader the serving path uses
/// (`release_from_text`), so the binary file reproduces the text load
/// bit for bit — grid section included, when the text carries one.
pub fn text_to_binary(text: &str) -> Result<Vec<u8>, StoreError> {
    let (arena, grid) = release_from_text(text)?;
    Ok(encode_release(&arena, grid.as_ref()))
}

/// Convert a `privtree-bin v1` release back to the text format. The
/// decoded arrays are re-emitted through `release_to_text`, so
/// `text_to_binary(binary_to_text(b)) == b` byte for byte (the text
/// format's 17-significant-digit rendering round-trips every `f64`).
pub fn binary_to_text(bytes: &[u8]) -> Result<String, StoreError> {
    let (arena, grid) = decode_release(bytes)?;
    Ok(release_to_text(&arena, grid.as_ref()))
}
