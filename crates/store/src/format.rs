//! The `privtree-bin v1` binary columnar release format.
//!
//! A release is the frozen arena's structure-of-arrays columns — packed
//! `lo`/`hi` coordinates, child ranges, released counts — plus,
//! optionally, the cell grid's per-cell anchors and exact contributions.
//! The text format re-derives those columns from node records one parsed
//! line at a time; this format stores them directly:
//!
//! ```text
//! header (40 bytes, all integers little-endian):
//!   [0..8)   magic  b"PRIVTBIN"
//!   [8..12)  version        u32  (currently 1)
//!   [12..16) flags          u32  (bit 0: grid sections present;
//!                                 bit 1: section payloads 8-aligned)
//!   [16..20) dims           u32  (1..=MAX_DIMS)
//!   [20..24) reserved       u32  (must be 0)
//!   [24..32) nodes          u64  (>= 1)
//!   [32..40) cells          u64  (grid cell count; 0 iff no grid)
//! then sections, each:
//!   zero padding (aligned flag only; see below)
//!   tag (4 ASCII bytes) | payload length u64 | payload | CRC-32 u32
//! ```
//!
//! When the **aligned** flag (bit 1, written by this crate since the v1
//! minor revision) is set, each section frame is preceded by 0–7 zero
//! bytes so that its *payload* starts at a file offset that is a
//! multiple of 8. The pad width is a pure function of the write
//! position — `(8 - ((pos + 12) % 8)) % 8` — so the layout stays fully
//! deterministic and the decoder re-derives it without any stored
//! offsets. Aligned payloads are what allow the zero-copy loader (see
//! [`crate::view`]) to reinterpret `f64`/`u32` columns directly inside a
//! memory-mapped file; legacy unpadded files remain fully decodable,
//! their columns simply take the copying path.
//!
//! Section order is fixed and every payload length is implied by the
//! header, so the decoder validates the *entire* file size against the
//! header before sizing a single buffer — a hostile node count is a
//! [`StoreError::SizeMismatch`], never an allocation. Each payload is
//! covered by a CRC-32 (IEEE), so a flipped byte anywhere is a
//! [`StoreError::ChecksumMismatch`] naming the damaged section. See
//! `crates/store/README.md` for the byte-by-byte specification.
//!
//! Decoding is one pass: slice each section, verify its checksum,
//! reinterpret the little-endian payload into its typed column, then
//! hand the columns to the same validated constructors the text loader
//! uses (`FrozenSynopsis::from_flat_parts`, `CellGrid::from_parts`). The
//! result is *identical* to a text load of the same release — same
//! arrays, same bits — which `tests/roundtrip.rs` property-tests.

use privtree_spatial::grid_route::CellGrid;
use privtree_spatial::{Column, FrozenSynopsis, MAX_DIMS};

use crate::StoreError;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"PRIVTBIN";

/// The format version this crate reads and writes.
pub const VERSION: u32 = 1;

/// Header flag bit: grid sections follow the arena sections.
const FLAG_GRID: u32 = 1;

/// Header flag bit: every section payload starts at a multiple of 8
/// bytes (zero padding precedes each section frame as needed). Written
/// by this crate's encoder; files without it decode via the copy path.
pub(crate) const FLAG_ALIGNED: u32 = 2;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 40;

/// Per-section framing overhead: 4-byte tag + 8-byte length + 4-byte CRC.
const SECTION_OVERHEAD: u64 = 16;

/// Zero bytes inserted before a section frame starting at `pos` so that
/// its payload (`pos + pad + 12`) lands on an 8-byte boundary.
pub(crate) fn pad_before(pos: u64) -> u64 {
    (8 - ((pos + 12) % 8)) % 8
}

/// Section tags and display names, in file order.
const SEC_LO: ([u8; 4], &str) = (*b"NLOC", "node-lo");
const SEC_HI: ([u8; 4], &str) = (*b"NHIC", "node-hi");
const SEC_FIRST: ([u8; 4], &str) = (*b"NFCH", "first-child");
const SEC_KIDS: ([u8; 4], &str) = (*b"NCCT", "child-count");
const SEC_COUNTS: ([u8; 4], &str) = (*b"NCNT", "counts");
const SEC_GBINS: ([u8; 4], &str) = (*b"GBIN", "grid-bins");
const SEC_GANCHORS: ([u8; 4], &str) = (*b"GANC", "grid-anchors");
const SEC_GVALUES: ([u8; 4], &str) = (*b"GVAL", "grid-values");

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`)
/// slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is
/// the classic byte-at-a-time table; `TABLES[k]` advances a byte `k`
/// positions further so the hot loop folds 8 input bytes per iteration
/// instead of one — decode time is CRC-bound, so this is what keeps
/// binary loads an order of magnitude ahead of text parsing.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Advance the raw (pre/post-inverted) CRC state over `bytes` with the
/// slicing-by-8 tables.
fn crc32_update_sw(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        c ^= u32::from_le_bytes(chunk[0..4].try_into().unwrap());
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(c & 0xFF) as usize]
            ^ CRC_TABLES[6][((c >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((c >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(c >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Carryless-multiply CRC folding (x86_64 `PCLMULQDQ`), detected at
/// runtime. The whole-file and per-section checksum passes dominate a
/// binary load — slicing-by-8 runs at ~1.5 GB/s while the folding
/// kernel runs at memory speed — so this is what keeps `validate` a
/// small fraction of a zero-copy open.
#[cfg(target_arch = "x86_64")]
mod crc_clmul {
    /// Whether the CPU supports the folding kernel (PCLMULQDQ + SSE4.1).
    pub(super) fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }

    /// Fold `bytes` (len >= 64 and a multiple of 16) into the raw CRC
    /// state `crc`. Constants are the standard folding/Barrett values
    /// for the reflected IEEE polynomial `0xEDB88320`:
    /// k1 = x^(4·128+32) mod P, k2 = x^(4·128-32) mod P,
    /// k3 = x^(128+32) mod P, k4 = x^(128-32) mod P, k5 = x^96 mod P,
    /// and µ/P' for the final Barrett reduction.
    ///
    /// # Safety
    ///
    /// Caller must ensure `available()` and the length contract.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        use std::arch::x86_64::*;
        debug_assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
        let k1k2 = _mm_set_epi64x(0x1c6e41596u64 as i64, 0x154442bd4u64 as i64);
        let k3k4 = _mm_set_epi64x(0x0ccaa009eu64 as i64, 0x1751997d0u64 as i64);
        let k5 = _mm_set_epi64x(0, 0x163cd6124u64 as i64);
        let poly_mu = _mm_set_epi64x(0x1f7011641u64 as i64, 0x1db710641u64 as i64);

        let mut ptr = bytes.as_ptr() as *const __m128i;
        let mut len = bytes.len();
        let mut x1 = _mm_loadu_si128(ptr);
        let mut x2 = _mm_loadu_si128(ptr.add(1));
        let mut x3 = _mm_loadu_si128(ptr.add(2));
        let mut x4 = _mm_loadu_si128(ptr.add(3));
        x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(crc as i32));
        ptr = ptr.add(4);
        len -= 64;

        // fold four 16-byte lanes in parallel across the bulk of the input
        while len >= 64 {
            let x5 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
            let x6 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
            let x7 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
            let x8 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
            x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
            x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
            x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), _mm_loadu_si128(ptr));
            x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), _mm_loadu_si128(ptr.add(1)));
            x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), _mm_loadu_si128(ptr.add(2)));
            x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), _mm_loadu_si128(ptr.add(3)));
            ptr = ptr.add(4);
            len -= 64;
        }

        // fold the four lanes into one
        for lane in [x2, x3, x4] {
            let x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), lane);
        }

        // remaining whole 16-byte blocks
        while len >= 16 {
            let x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), _mm_loadu_si128(ptr));
            ptr = ptr.add(1);
            len -= 16;
        }

        // fold 128 -> 64 bits
        let mask32 = _mm_set_epi32(0, -1, 0, -1);
        let x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
        x1 = _mm_srli_si128(x1, 8);
        x1 = _mm_xor_si128(x1, x2);
        // fold 64 -> 32 bits
        let x2 = _mm_srli_si128(x1, 4);
        x1 = _mm_and_si128(x1, mask32);
        x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
        x1 = _mm_xor_si128(x1, x2);
        // Barrett reduction to the final 32-bit remainder
        let mut x2 = _mm_and_si128(x1, mask32);
        x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x10);
        x2 = _mm_and_si128(x2, mask32);
        x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x00);
        x1 = _mm_xor_si128(x1, x2);
        _mm_extract_epi32(x1, 1) as u32
    }
}

/// Advance the raw CRC state over `bytes`, using the carryless-multiply
/// kernel when the CPU has it and the input is big enough to matter.
fn crc32_update(c: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64 && crc_clmul::available() {
        let folded = bytes.len() & !15;
        // SAFETY: feature detection passed and `folded` is >= 64 and a
        // multiple of 16.
        let c = unsafe { crc_clmul::update(c, &bytes[..folded]) };
        return crc32_update_sw(c, &bytes[folded..]);
    }
    crc32_update_sw(c, bytes)
}

/// CRC-32 (IEEE) of `bytes` — the checksum used for both section
/// payloads and the catalog's whole-file checksums. Hardware carryless
/// multiplication when available, slicing-by-8 otherwise; both compute
/// the identical function.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// The section payload sizes implied by a header, in file order. `None`
/// on arithmetic overflow.
fn payload_sizes(nodes: u64, dims: u32, cells: Option<u64>) -> Option<Vec<u64>> {
    let coords = nodes.checked_mul(dims as u64)?.checked_mul(8)?;
    let mut sizes = vec![
        coords,                // node-lo
        coords,                // node-hi
        nodes.checked_mul(4)?, // first-child
        nodes.checked_mul(4)?, // child-count
        nodes.checked_mul(8)?, // counts
    ];
    if let Some(cells) = cells {
        sizes.push(4 * dims as u64); // grid-bins
        sizes.push(cells.checked_mul(4)?); // grid-anchors
        sizes.push(cells.checked_mul(8)?); // grid-values
    }
    Some(sizes)
}

/// Walk the section layout and return the total file size. `None` on
/// arithmetic overflow — which is how the decoder rejects hostile
/// headers before any allocation.
pub(crate) fn encoded_len_with(
    nodes: u64,
    dims: u32,
    cells: Option<u64>,
    aligned: bool,
) -> Option<u64> {
    let mut total = HEADER_LEN as u64;
    for payload in payload_sizes(nodes, dims, cells)? {
        if aligned {
            total = total.checked_add(pad_before(total))?;
        }
        total = total.checked_add(SECTION_OVERHEAD)?.checked_add(payload)?;
    }
    Some(total)
}

/// The exact encoded size of a release with `nodes` nodes over `dims`
/// dimensions and (optionally) a grid of `cells` cells with one bin
/// count per dimension, in the aligned layout this crate writes. `None`
/// on arithmetic overflow.
pub fn encoded_len(nodes: u64, dims: u32, cells: Option<u64>) -> Option<u64> {
    encoded_len_with(nodes, dims, cells, true)
}

/// Append one framed section: alignment padding (aligned layout only),
/// tag, length, payload, CRC.
fn push_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8], aligned: bool) {
    if aligned {
        let pad = pad_before(out.len() as u64) as usize;
        out.resize(out.len() + pad, 0);
    }
    out.extend_from_slice(&tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Pack a `f64` slice little-endian.
fn f64_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Pack a `u32` slice little-endian.
fn u32_bytes(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encode a release (arena plus optional grid) as `privtree-bin v1` in
/// the aligned layout (every section payload at an 8-byte file offset).
pub fn encode_release(arena: &FrozenSynopsis, grid: Option<&CellGrid>) -> Vec<u8> {
    encode_release_with(arena, grid, true)
}

/// Encode a release in the legacy v1 layout without section padding.
/// Kept so compatibility tests can prove the decoder still accepts
/// pre-revision files; new files should use [`encode_release`].
pub fn encode_release_unaligned(arena: &FrozenSynopsis, grid: Option<&CellGrid>) -> Vec<u8> {
    encode_release_with(arena, grid, false)
}

fn encode_release_with(arena: &FrozenSynopsis, grid: Option<&CellGrid>, aligned: bool) -> Vec<u8> {
    let nodes = arena.node_count() as u64;
    let dims = arena.dims() as u32;
    let cells = grid.map(|g| g.cells() as u64);
    let capacity =
        encoded_len_with(nodes, dims, cells, aligned).expect("in-memory release fits the format");
    let mut flags = if grid.is_some() { FLAG_GRID } else { 0 };
    if aligned {
        flags |= FLAG_ALIGNED;
    }
    let mut out = Vec::with_capacity(capacity as usize);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&dims.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    out.extend_from_slice(&nodes.to_le_bytes());
    out.extend_from_slice(&cells.unwrap_or(0).to_le_bytes());
    push_section(&mut out, SEC_LO.0, &f64_bytes(arena.lo_coords()), aligned);
    push_section(&mut out, SEC_HI.0, &f64_bytes(arena.hi_coords()), aligned);
    push_section(
        &mut out,
        SEC_FIRST.0,
        &u32_bytes(arena.first_child()),
        aligned,
    );
    push_section(
        &mut out,
        SEC_KIDS.0,
        &u32_bytes(arena.child_count()),
        aligned,
    );
    push_section(&mut out, SEC_COUNTS.0, &f64_bytes(arena.counts()), aligned);
    if let Some(grid) = grid {
        let bins: Vec<u32> = grid.bins().iter().map(|&b| b as u32).collect();
        push_section(&mut out, SEC_GBINS.0, &u32_bytes(&bins), aligned);
        push_section(
            &mut out,
            SEC_GANCHORS.0,
            &u32_bytes(grid.anchors()),
            aligned,
        );
        push_section(&mut out, SEC_GVALUES.0, &f64_bytes(grid.values()), aligned);
    }
    debug_assert_eq!(out.len() as u64, capacity);
    out
}

/// A cursor over the section stream after the header.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Whether the aligned-layout flag was set: section frames are then
    /// preceded by deterministic zero padding (see [`pad_before`]).
    aligned: bool,
    /// Whether to verify each section's CRC. Catalog opens that already
    /// verified the whole-file checksum skip the per-section pass.
    verify: bool,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], aligned: bool, verify: bool) -> Self {
        Reader {
            bytes,
            pos: HEADER_LEN,
            aligned,
            verify,
        }
    }

    /// Slice the next section, which must carry `tag` and exactly
    /// `expected` payload bytes, and verify its CRC.
    fn section(
        &mut self,
        (tag, name): ([u8; 4], &'static str),
        expected: u64,
    ) -> Result<&'a [u8], StoreError> {
        // the whole-file size was validated against the header up front,
        // so these slices cannot run off the end — but a defensive check
        // keeps corruption of *this* logic from panicking
        let bad = |reason: String| StoreError::BadSection {
            section: name,
            reason,
        };
        if self.aligned {
            let pad = pad_before(self.pos as u64) as usize;
            let pad_end = self.pos + pad;
            if pad_end > self.bytes.len() {
                return Err(bad("section padding past end of file".into()));
            }
            if self.bytes[self.pos..pad_end].iter().any(|&b| b != 0) {
                return Err(bad("non-zero section padding".into()));
            }
            self.pos = pad_end;
        }
        let header_end = self.pos + 12;
        if header_end > self.bytes.len() {
            return Err(bad("section header past end of file".into()));
        }
        let found_tag = &self.bytes[self.pos..self.pos + 4];
        if found_tag != tag {
            return Err(bad(format!(
                "expected tag {:?}, found {:?}",
                String::from_utf8_lossy(&tag),
                String::from_utf8_lossy(found_tag)
            )));
        }
        let len = u64::from_le_bytes(self.bytes[self.pos + 4..header_end].try_into().unwrap());
        if len != expected {
            return Err(bad(format!(
                "payload length {len} disagrees with the header-implied {expected}"
            )));
        }
        let payload_end = header_end + len as usize;
        let crc_end = payload_end + 4;
        if crc_end > self.bytes.len() {
            return Err(bad("section payload past end of file".into()));
        }
        let payload = &self.bytes[header_end..payload_end];
        if self.verify {
            let stored = u32::from_le_bytes(self.bytes[payload_end..crc_end].try_into().unwrap());
            let computed = crc32(payload);
            if stored != computed {
                return Err(StoreError::ChecksumMismatch {
                    section: name,
                    expected: stored,
                    found: computed,
                });
            }
        }
        self.pos = crc_end;
        Ok(payload)
    }
}

/// Reinterpret a little-endian payload as `f64` values.
pub(crate) fn f64_vec(payload: &[u8]) -> Vec<f64> {
    payload
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Reinterpret a little-endian payload as `u32` values.
pub(crate) fn u32_vec(payload: &[u8]) -> Vec<u32> {
    payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// A fully validated `privtree-bin` header.
struct Header {
    dims: u32,
    nodes: u64,
    /// Grid cell count; 0 iff `grid` is false.
    cells: u64,
    grid: bool,
    aligned: bool,
}

/// Validate the header and the header-implied whole-file size. Every
/// decode path — copying and zero-copy alike — goes through this before
/// sizing a single buffer.
fn parse_header(bytes: &[u8]) -> Result<Header, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::SizeMismatch {
            expected: HEADER_LEN as u64,
            found: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let header_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let header_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let version = header_u32(8);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let flags = header_u32(12);
    let known = FLAG_GRID | FLAG_ALIGNED;
    if flags & !known != 0 {
        return Err(StoreError::BadHeader {
            reason: format!("unknown flag bits {:#x}", flags & !known),
        });
    }
    let dims = header_u32(16);
    if dims == 0 || dims as usize > MAX_DIMS {
        return Err(StoreError::BadHeader {
            reason: format!("dims {dims} outside 1..={MAX_DIMS}"),
        });
    }
    if header_u32(20) != 0 {
        return Err(StoreError::BadHeader {
            reason: "reserved header field is not zero".into(),
        });
    }
    let nodes = header_u64(24);
    if nodes == 0 {
        return Err(StoreError::BadHeader {
            reason: "zero-node release".into(),
        });
    }
    let cells = header_u64(32);
    let grid_present = flags & FLAG_GRID != 0;
    match (grid_present, cells) {
        (true, 0) => {
            return Err(StoreError::BadHeader {
                reason: "grid flag set but cell count is zero".into(),
            })
        }
        (false, c) if c != 0 => {
            return Err(StoreError::BadHeader {
                reason: format!("no grid flag but cell count is {c}"),
            })
        }
        _ => {}
    }
    let aligned = flags & FLAG_ALIGNED != 0;

    // one up-front size check covers truncation AND hostile counts: a
    // header claiming 2^60 nodes implies an impossible file size, so we
    // refuse before any `Vec::with_capacity` sees the number
    let expected = encoded_len_with(nodes, dims, grid_present.then_some(cells), aligned).ok_or(
        StoreError::BadHeader {
            reason: "header-implied size overflows".into(),
        },
    )?;
    if expected != bytes.len() as u64 {
        return Err(StoreError::SizeMismatch {
            expected,
            found: bytes.len() as u64,
        });
    }
    Ok(Header {
        dims,
        nodes,
        cells,
        grid: grid_present,
        aligned,
    })
}

/// Validate the grid-bins payload against the header cell count and
/// return the bin counts.
fn decode_bins(payload: &[u8], cells: u64) -> Result<Vec<usize>, StoreError> {
    let bins: Vec<usize> = u32_vec(payload).into_iter().map(|b| b as usize).collect();
    let product: Option<u64> = bins
        .iter()
        .try_fold(1u64, |acc, &b| acc.checked_mul(b as u64));
    if product != Some(cells) {
        return Err(StoreError::BadSection {
            section: SEC_GBINS.1,
            reason: format!("bin product {product:?} disagrees with header cell count {cells}"),
        });
    }
    Ok(bins)
}

/// Decode a `privtree-bin v1` release. Returns exactly what
/// `release_from_text` returns for the equivalent text file: the frozen
/// arena plus the shipped grid when one is present (its summed-area
/// table rebuilt deterministically). Every malformation — bad magic,
/// future version, hostile header, truncation, flipped bytes, invalid
/// arena layout, grid/arena mismatch — is a typed [`StoreError`].
///
/// This is the copying decoder: every column is materialized as an
/// owned `Vec`. The zero-copy counterpart lives in [`crate::view`].
pub fn decode_release(bytes: &[u8]) -> Result<(FrozenSynopsis, Option<CellGrid>), StoreError> {
    decode_with(bytes, true, |p| f64_vec(p).into(), |p| u32_vec(p).into())
}

/// The one decoder behind [`decode_release`] and
/// [`crate::open_release_view`]: validate the header, walk the sections
/// (checking their CRCs when `verify_sections`), and validate the arena
/// and then the grid, turning each payload into a column through `f64s`
/// or `u32s` — owned copies or borrowed views. Both paths therefore
/// refuse every input with the same typed error.
pub(crate) fn decode_with(
    bytes: &[u8],
    verify_sections: bool,
    f64s: impl Fn(&[u8]) -> Column<f64>,
    u32s: impl Fn(&[u8]) -> Column<u32>,
) -> Result<(FrozenSynopsis, Option<CellGrid>), StoreError> {
    let header = parse_header(bytes)?;
    let (dims, nodes, cells) = (header.dims, header.nodes, header.cells);

    let mut reader = Reader::new(bytes, header.aligned, verify_sections);
    let coords = nodes * dims as u64 * 8;
    let lo = f64s(reader.section(SEC_LO, coords)?);
    let hi = f64s(reader.section(SEC_HI, coords)?);
    let first_child = u32s(reader.section(SEC_FIRST, nodes * 4)?);
    let child_count = u32s(reader.section(SEC_KIDS, nodes * 4)?);
    let counts = f64s(reader.section(SEC_COUNTS, nodes * 8)?);
    // the label matches what the text loader produces, so a binary load
    // is indistinguishable from a text load of the same release
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
        return Ok((arena, None));
    }
    let bins = decode_bins(reader.section(SEC_GBINS, 4 * dims as u64)?, cells)?;
    let anchors = u32s(reader.section(SEC_GANCHORS, cells * 4)?);
    let values = f64s(reader.section(SEC_GVALUES, cells * 8)?);
    let grid = CellGrid::from_parts(&arena, &bins, anchors, values)?;
    Ok((arena, Some(grid)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // the standard IEEE check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_hardware_and_table_paths_agree() {
        // exercise every length class around the 64-byte kernel cutoff
        // and the 16-byte folding granularity, plus misaligned starts —
        // the carryless-multiply path must be indistinguishable from
        // slicing-by-8
        let mut state = 0x243F_6A88u32; // arbitrary deterministic seed
        let mut buf = Vec::with_capacity(5008);
        while buf.len() < 5008 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            buf.push((state >> 24) as u8);
        }
        for len in (0..200).chain([255, 256, 1023, 1024, 4096, 4999]) {
            for start in [0usize, 1, 7] {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    !crc32_update_sw(!0, slice),
                    "len={len} start={start}"
                );
            }
        }
    }

    #[test]
    fn encoded_len_overflow_is_none() {
        assert_eq!(encoded_len(u64::MAX, 8, None), None);
        assert_eq!(encoded_len(u64::MAX / 2, 2, Some(u64::MAX / 2)), None);
        // the legacy (unpadded) layout has the closed-form size…
        let unaligned = encoded_len_with(1, 2, None, false).unwrap();
        assert_eq!(unaligned, 40 + (16 + 16) * 2 + (16 + 4) * 2 + (16 + 8));
        // …and the aligned layout only ever adds 0–7 bytes per section
        let aligned = encoded_len(1, 2, None).unwrap();
        assert!(aligned >= unaligned && aligned <= unaligned + 5 * 7);
    }

    #[test]
    fn aligned_layout_puts_every_payload_on_an_eight_byte_offset() {
        // walk the simulated layout for a few header shapes and check
        // the invariant the zero-copy loader relies on
        for (nodes, dims, cells) in [(1u64, 1u32, None), (7, 2, Some(12u64)), (100, 3, Some(64))] {
            let mut pos = HEADER_LEN as u64;
            for payload in payload_sizes(nodes, dims, cells).unwrap() {
                pos += pad_before(pos);
                assert_eq!((pos + 12) % 8, 0, "payload start must be 8-aligned");
                pos += SECTION_OVERHEAD + payload;
            }
            assert_eq!(Some(pos), encoded_len(nodes, dims, cells));
        }
    }
}
