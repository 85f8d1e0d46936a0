//! The durable mutation journal: an append-only write-ahead log of
//! catalog operations, living beside `catalog.toml`.
//!
//! A journaled catalog makes every acked `add`/`swap`/`retire` durable
//! **without rewriting the manifest per mutation**: the operation is
//! appended (and, per [`FsyncPolicy`], fsynced) to the active journal
//! segment *before* the caller acks, and [`crate::Catalog::open`]
//! replays the segment on top of the manifest on boot. A `checkpoint`
//! folds the replayed state back into the manifest and rotates to a
//! fresh segment.
//!
//! # On-disk layout
//!
//! Segments are named `journal-<base_seq:016x>.bin`, where `base_seq`
//! is the sequence number the manifest covered when the segment was
//! created (records inside carry `base_seq + 1, base_seq + 2, ...`).
//! The file reuses the `privtree-bin` framing conventions:
//!
//! ```text
//! header (24 bytes):
//!   magic      8  b"PRIVTJNL"
//!   version    4  u32 LE, currently 1
//!   reserved   4  u32 LE, zero
//!   base_seq   8  u64 LE
//! record (repeated):
//!   len        4  u32 LE, byte length of `body`
//!   body       len   seq u64 LE | op u8 | op payload
//!   crc32      4  u32 LE over `body`
//! ```
//!
//! Op codes: `1` add, `2` swap (both carry generation `u64`, checksum
//! `u32`, format `u8`, then length-prefixed key and file name), `3`
//! retire (length-prefixed key), `4` checkpoint (empty payload). Length
//! prefixes are `u16`: a longer string is refused, never cut.
//!
//! # Torn-tail truncation
//!
//! A journaled process can die mid-append, so [`Journal::open`] scans
//! records strictly: the first record with a short or oversized length
//! prefix, a CRC mismatch, an unparseable body, or a non-consecutive
//! sequence number marks the **torn tail** — the file is truncated
//! there (then fsynced) and everything before it replays. Appends that
//! *error* while the process lives roll the file back to the record
//! boundary, so a failed append can be retried without corrupting the
//! log.
//!
//! Every IO step is threaded with deterministic failpoints
//! (`journal.append.write`, `journal.append.sync`, `journal.sync`,
//! `journal.truncate`, plus the five `journal.segment.*` steps of
//! segment creation); the engine's `journal_failpoints` suite crashes
//! at each of them and proves acked-prefix recovery.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::catalog::{atomic_write, fail_point, ReleaseFormat};
use crate::format::crc32;
use crate::StoreError;
use privtree_runtime::telemetry::{self, Counter, Histogram, Registry};

/// Telemetry handles for the journal's durability path. Registered
/// once per registry ([`JournalMetrics::register`]) and attached to a
/// journal (usually via `Catalog::attach_metrics`); appends and
/// fsyncs count always, while the `_us` histograms record only when
/// `telemetry::enabled()` — so the clock is never read on an
/// uninstrumented hot path.
#[derive(Debug)]
pub struct JournalMetrics {
    /// Wall time of one append (write + policy-driven fsync), µs.
    pub append_us: Arc<Histogram>,
    /// Wall time of one `fdatasync`, µs (policy-driven or explicit).
    pub fsync_us: Arc<Histogram>,
    /// Records appended.
    pub appends: Arc<Counter>,
    /// Explicit or policy-driven fsyncs issued.
    pub fsyncs: Arc<Counter>,
}

impl JournalMetrics {
    /// Get-or-create the journal metric set in `registry`.
    pub fn register(registry: &Registry) -> Arc<Self> {
        Arc::new(Self {
            append_us: registry.histogram("journal_append_us", &[]),
            fsync_us: registry.histogram("journal_fsync_us", &[]),
            appends: registry.counter("journal_appends_total", &[]),
            fsyncs: registry.counter("journal_fsyncs_total", &[]),
        })
    }
}

/// Magic bytes opening every journal segment.
pub const JOURNAL_MAGIC: [u8; 8] = *b"PRIVTJNL";

/// Journal format version this crate reads and writes.
pub const JOURNAL_VERSION: u32 = 1;

/// Byte length of the segment header.
pub const JOURNAL_HEADER_LEN: usize = 24;

/// Smallest legal record body: sequence number plus op code.
const MIN_BODY: usize = 9;

/// Largest accepted record body — keys and file names are protocol
/// lines, so a megabyte is orders of magnitude of headroom. A larger
/// length prefix is treated as a torn tail, never as an allocation.
const MAX_BODY: usize = 1 << 20;

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append: an acked mutation survives power
    /// loss. The default, and the only policy under which the crash
    /// contract is unconditional.
    Always,
    /// Sync every `n`-th append (counted, not timed, so tests are
    /// deterministic): bounded loss of the most recent un-synced
    /// records on power loss; a plain process crash loses nothing.
    EveryN(u32),
    /// Never sync explicitly; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    /// Parse the `--fsync` flag spelling: `always`, `never`, or
    /// `every:N` with `N >= 1`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => {
                let n: u32 = s.strip_prefix("every:")?.parse().ok()?;
                (n >= 1).then_some(FsyncPolicy::EveryN(n))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => f.write_str("always"),
            FsyncPolicy::EveryN(n) => write!(f, "every:{n}"),
            FsyncPolicy::Never => f.write_str("never"),
        }
    }
}

/// One journaled catalog mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// A release published under a fresh key.
    Add {
        key: String,
        file: String,
        format: ReleaseFormat,
        checksum: u32,
        generation: u64,
    },
    /// A release replacing the one serving under `key`.
    Swap {
        key: String,
        file: String,
        format: ReleaseFormat,
        checksum: u32,
        generation: u64,
    },
    /// `key` stopped serving (its last generation may be retained).
    Retire { key: String },
    /// The manifest was folded up to this record's sequence number and
    /// the journal rotated. A no-op on replay.
    Checkpoint,
}

/// One decoded record: the operation plus its sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Monotone sequence number (consecutive within a segment).
    pub seq: u64,
    /// The recorded operation.
    pub op: JournalOp,
}

/// The file name of the segment based at `base_seq`.
pub fn segment_name(base_seq: u64) -> String {
    format!("journal-{base_seq:016x}.bin")
}

/// Whether `name` looks like a catalog-managed journal segment
/// (`journal-<16 hex>.bin`) — the shape the recovery sweep may remove
/// when no manifest references it.
pub fn looks_like_segment(name: &str) -> bool {
    let Some(hex) = name
        .strip_prefix("journal-")
        .and_then(|rest| rest.strip_suffix(".bin"))
    else {
        return false;
    };
    hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit())
}

fn format_code(format: ReleaseFormat) -> u8 {
    match format {
        ReleaseFormat::Binary => 0,
        ReleaseFormat::Text => 1,
    }
}

fn format_from_code(code: u8) -> Option<ReleaseFormat> {
    match code {
        0 => Some(ReleaseFormat::Binary),
        1 => Some(ReleaseFormat::Text),
        _ => None,
    }
}

/// Longest key or file name a record can carry: its length prefix is a
/// `u16`.
pub const MAX_STRING_BYTES: usize = u16::MAX as usize;

/// Append `s` behind its `u16` length prefix; `None` when `s` is longer
/// than [`MAX_STRING_BYTES`] (cutting it would replay a different key,
/// or split a UTF-8 character and tear the record).
fn push_str(out: &mut Vec<u8>, s: &str) -> Option<()> {
    let len = u16::try_from(s.len()).ok()?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Some(())
}

/// Encode one record body (`seq | op | payload`), without framing;
/// `None` when a string does not fit its length prefix.
fn encode_body(seq: u64, op: &JournalOp) -> Option<Vec<u8>> {
    let mut body = Vec::with_capacity(64);
    body.extend_from_slice(&seq.to_le_bytes());
    match op {
        JournalOp::Add {
            key,
            file,
            format,
            checksum,
            generation,
        }
        | JournalOp::Swap {
            key,
            file,
            format,
            checksum,
            generation,
        } => {
            body.push(if matches!(op, JournalOp::Add { .. }) {
                1
            } else {
                2
            });
            body.extend_from_slice(&generation.to_le_bytes());
            body.extend_from_slice(&checksum.to_le_bytes());
            body.push(format_code(*format));
            push_str(&mut body, key)?;
            push_str(&mut body, file)?;
        }
        JournalOp::Retire { key } => {
            body.push(3);
            push_str(&mut body, key)?;
        }
        JournalOp::Checkpoint => body.push(4),
    }
    Some(body)
}

/// Frame one record: length prefix, body, CRC-32; `None` as for
/// [`encode_body`].
fn encode_record(seq: u64, op: &JournalOp) -> Option<Vec<u8>> {
    let body = encode_body(seq, op)?;
    let mut rec = Vec::with_capacity(body.len() + 8);
    rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
    rec.extend_from_slice(&body);
    rec.extend_from_slice(&crc32(&body).to_le_bytes());
    Some(rec)
}

/// A strict little-endian cursor over one record body; any overrun or
/// leftover byte means a torn (or corrupt) record.
struct BodyReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?)
            .ok()
            .map(str::to_string)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decode one record body. `None` means torn/corrupt (the caller
/// truncates there).
fn decode_body(body: &[u8]) -> Option<JournalRecord> {
    let mut r = BodyReader {
        bytes: body,
        pos: 0,
    };
    let seq = r.u64()?;
    let op = match r.u8()? {
        code @ (1 | 2) => {
            let generation = r.u64()?;
            let checksum = r.u32()?;
            let format = format_from_code(r.u8()?)?;
            let key = r.string()?;
            let file = r.string()?;
            if code == 1 {
                JournalOp::Add {
                    key,
                    file,
                    format,
                    checksum,
                    generation,
                }
            } else {
                JournalOp::Swap {
                    key,
                    file,
                    format,
                    checksum,
                    generation,
                }
            }
        }
        3 => JournalOp::Retire { key: r.string()? },
        4 => JournalOp::Checkpoint,
        _ => return None,
    };
    r.done().then_some(JournalRecord { seq, op })
}

fn journal_error(path: &Path, reason: impl Into<String>) -> StoreError {
    StoreError::Journal {
        context: path.display().to_string(),
        reason: reason.into(),
    }
}

/// An open journal segment positioned at its (validated) end, ready to
/// append. See the module docs for the format and crash contract.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    /// Validated byte length — appends land here.
    len: u64,
    /// Sequence number the next append will carry.
    next_seq: u64,
    policy: FsyncPolicy,
    /// Appends since the last explicit sync (drives `EveryN`).
    appends_since_sync: u32,
    /// Set when an append's rollback truncation failed: the tail past
    /// `len` is garbage we could not remove, so further appends would
    /// write an unreplayable log. Refuse them instead.
    wedged: bool,
    /// Telemetry handles, when the owning catalog attached them.
    metrics: Option<Arc<JournalMetrics>>,
}

impl Journal {
    /// The segment header for `base_seq`.
    fn header_bytes(base_seq: u64) -> Vec<u8> {
        let mut header = Vec::with_capacity(JOURNAL_HEADER_LEN);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&base_seq.to_le_bytes());
        header
    }

    /// Create a fresh segment at `path` covering sequence numbers
    /// `base_seq + 1 ..`. The header-only file is published atomically
    /// and durably (tmp → fsync → rename → dirsync, failpoints
    /// `journal.segment.*`), then opened for appends.
    pub fn create(path: &Path, base_seq: u64, policy: FsyncPolicy) -> Result<Self, StoreError> {
        atomic_write(path, &Self::header_bytes(base_seq), "journal.segment")?;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(format!("open {}", path.display()), e))?;
        let mut journal = Self {
            path: path.to_path_buf(),
            file,
            len: JOURNAL_HEADER_LEN as u64,
            next_seq: base_seq + 1,
            policy,
            appends_since_sync: 0,
            wedged: false,
            metrics: None,
        };
        journal
            .file
            .seek(SeekFrom::Start(journal.len))
            .map_err(|e| StoreError::io(format!("seek {}", path.display()), e))?;
        Ok(journal)
    }

    /// Open the segment at `path`, validate its header against the
    /// sequence number the manifest covers, **truncate any torn tail**,
    /// and return the journal (positioned to append) plus every intact
    /// record in order. Records are strictly consecutive from
    /// `base_seq + 1`; the first framing, CRC, parse, or sequence
    /// violation marks the tail.
    pub fn open(
        path: &Path,
        base_seq: u64,
        policy: FsyncPolicy,
    ) -> Result<(Self, Vec<JournalRecord>), StoreError> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(format!("open {}", path.display()), e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| StoreError::io(format!("read {}", path.display()), e))?;
        if buf.len() < JOURNAL_HEADER_LEN {
            return Err(journal_error(
                path,
                format!("{} bytes is too short for a segment header", buf.len()),
            ));
        }
        if buf[..8] != JOURNAL_MAGIC {
            return Err(journal_error(path, "bad journal magic"));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        if version != JOURNAL_VERSION {
            return Err(journal_error(
                path,
                format!(
                    "journal version {version} is not supported (reader speaks {JOURNAL_VERSION})"
                ),
            ));
        }
        let found_base = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        if found_base != base_seq {
            return Err(journal_error(
                path,
                format!("segment base {found_base} does not match the manifest's journal_seq {base_seq}"),
            ));
        }
        let mut records = Vec::new();
        let mut next = base_seq + 1;
        let mut pos = JOURNAL_HEADER_LEN;
        while pos < buf.len() {
            let remaining = buf.len() - pos;
            if remaining < 8 {
                break;
            }
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if !(MIN_BODY..=MAX_BODY).contains(&len) || len + 8 > remaining {
                break;
            }
            let body = &buf[pos + 4..pos + 4 + len];
            let stored = u32::from_le_bytes(
                buf[pos + 4 + len..pos + 8 + len]
                    .try_into()
                    .expect("4 bytes"),
            );
            if crc32(body) != stored {
                break;
            }
            let Some(record) = decode_body(body) else {
                break;
            };
            if record.seq != next {
                break;
            }
            next += 1;
            records.push(record);
            pos += 8 + len;
        }
        if pos < buf.len() {
            // a dying appender's torn tail: cut it off, durably, before
            // anything is appended after it
            fail_point("journal", "truncate").map_err(|f| StoreError::Io {
                context: format!("truncate torn tail of {}", path.display()),
                message: f.to_string(),
            })?;
            file.set_len(pos as u64)
                .map_err(|e| StoreError::io(format!("truncate {}", path.display()), e))?;
            file.sync_all()
                .map_err(|e| StoreError::io(format!("sync {}", path.display()), e))?;
        }
        file.seek(SeekFrom::Start(pos as u64))
            .map_err(|e| StoreError::io(format!("seek {}", path.display()), e))?;
        let journal = Self {
            path: path.to_path_buf(),
            file,
            len: pos as u64,
            next_seq: next,
            policy,
            appends_since_sync: 0,
            wedged: false,
            metrics: None,
        };
        Ok((journal, records))
    }

    /// The sequence number of the last appended (or replayed) record;
    /// the segment base when the segment is empty.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The active fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Change the fsync policy for subsequent appends.
    pub fn set_policy(&mut self, policy: FsyncPolicy) {
        self.policy = policy;
    }

    /// Attach telemetry handles; subsequent appends and fsyncs record
    /// through them.
    pub fn set_metrics(&mut self, metrics: Arc<JournalMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Append one record and make it durable per the fsync policy.
    /// Returns the record's sequence number. An op whose key or file
    /// name is longer than [`MAX_STRING_BYTES`] is refused before
    /// anything is written. On an append **error** the file is rolled
    /// back to the previous record boundary, so a retry re-appends the
    /// same sequence number; an injected **crash** leaves the torn bytes
    /// for the next open's truncation.
    pub fn append(&mut self, op: &JournalOp) -> Result<u64, StoreError> {
        if self.wedged {
            return Err(journal_error(
                &self.path,
                "journal is wedged by an earlier failed rollback; reopen the catalog",
            ));
        }
        let seq = self.next_seq;
        let record = encode_record(seq, op).ok_or_else(|| {
            journal_error(
                &self.path,
                format!("a key or file name exceeds the record's {MAX_STRING_BYTES}-byte limit"),
            )
        })?;
        let clocked = self.metrics.is_some() && telemetry::enabled();
        let append_start = clocked.then(Instant::now);
        if let Err(f) = fail_point("journal.append", "write") {
            if f.is_crash() {
                // model a torn append: half the record reached the disk
                let _ = self.file.write_all(&record[..record.len() / 2]);
            }
            return Err(StoreError::Io {
                context: format!("append to {}", self.path.display()),
                message: f.to_string(),
            });
        }
        if let Err(e) = self.file.write_all(&record) {
            self.rollback_to(self.len);
            return Err(StoreError::io(
                format!("append to {}", self.path.display()),
                e,
            ));
        }
        let appended = self.len + record.len() as u64;
        let should_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => (self.appends_since_sync + 1) >= n,
            FsyncPolicy::Never => false,
        };
        if should_sync {
            if let Err(f) = fail_point("journal.append", "sync") {
                if !f.is_crash() {
                    // the un-synced record is not acked: remove it so a
                    // retry does not duplicate its sequence number
                    self.rollback_to(self.len);
                }
                return Err(StoreError::Io {
                    context: format!("sync {}", self.path.display()),
                    message: f.to_string(),
                });
            }
            let sync_start = clocked.then(Instant::now);
            if let Err(e) = self.file.sync_data() {
                self.rollback_to(self.len);
                return Err(StoreError::io(format!("sync {}", self.path.display()), e));
            }
            if let Some(m) = &self.metrics {
                m.fsyncs.inc();
                if let Some(t) = sync_start {
                    m.fsync_us.observe(t.elapsed().as_micros() as u64);
                }
            }
            self.appends_since_sync = 0;
        } else {
            self.appends_since_sync += 1;
        }
        self.len = appended;
        self.next_seq += 1;
        if let Some(m) = &self.metrics {
            m.appends.inc();
            if let Some(t) = append_start {
                m.append_us.observe(t.elapsed().as_micros() as u64);
            }
        }
        Ok(seq)
    }

    /// Force an fsync regardless of policy (checkpoints call this so
    /// the rotation record is durable before the manifest moves on).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        fail_point("journal", "sync").map_err(|f| StoreError::Io {
            context: format!("sync {}", self.path.display()),
            message: f.to_string(),
        })?;
        let sync_start = (self.metrics.is_some() && telemetry::enabled()).then(Instant::now);
        self.file
            .sync_data()
            .map_err(|e| StoreError::io(format!("sync {}", self.path.display()), e))?;
        if let Some(m) = &self.metrics {
            m.fsyncs.inc();
            if let Some(t) = sync_start {
                m.fsync_us.observe(t.elapsed().as_micros() as u64);
            }
        }
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Best-effort rollback of a failed append to the last record
    /// boundary. If the truncation itself fails the journal is
    /// **wedged**: the un-removable garbage would corrupt any later
    /// append, so they are refused until the catalog reopens (whose
    /// torn-tail scan clears the garbage).
    fn rollback_to(&mut self, len: u64) {
        let restored = self
            .file
            .set_len(len)
            .and_then(|()| self.file.seek(SeekFrom::Start(len)).map(|_| ()));
        if restored.is_err() {
            self.wedged = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("privtree-journal-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            Self(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_ops() -> Vec<JournalOp> {
        vec![
            JournalOp::Add {
                key: "west".into(),
                file: "west-00000001.ptbin".into(),
                format: ReleaseFormat::Binary,
                checksum: 0xdead_beef,
                generation: 1,
            },
            JournalOp::Swap {
                key: "west".into(),
                file: "west-00000002.ptbin".into(),
                format: ReleaseFormat::Binary,
                checksum: 2,
                generation: 2,
            },
            JournalOp::Retire {
                key: "we\u{1F980}ird".into(),
            },
            JournalOp::Checkpoint,
        ]
    }

    #[test]
    fn records_round_trip_through_a_segment() {
        let dir = TempDir::new("roundtrip");
        let path = dir.0.join(segment_name(41));
        let mut journal = Journal::create(&path, 41, FsyncPolicy::Always).unwrap();
        for (i, op) in sample_ops().iter().enumerate() {
            assert_eq!(journal.append(op).unwrap(), 42 + i as u64);
        }
        assert_eq!(journal.last_seq(), 45);
        drop(journal);
        let (reopened, records) = Journal::open(&path, 41, FsyncPolicy::Never).unwrap();
        assert_eq!(reopened.last_seq(), 45);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            [42, 43, 44, 45]
        );
        assert_eq!(
            records.into_iter().map(|r| r.op).collect::<Vec<_>>(),
            sample_ops()
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = TempDir::new("torn");
        let path = dir.0.join(segment_name(0));
        let mut journal = Journal::create(&path, 0, FsyncPolicy::Always).unwrap();
        journal.append(&sample_ops()[0]).unwrap();
        journal.append(&sample_ops()[1]).unwrap();
        drop(journal);
        let intact = std::fs::metadata(&path).unwrap().len();
        // a dying appender: half a record past the intact prefix
        let torn = encode_record(3, &sample_ops()[2]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut reopened, records) = Journal::open(&path, 0, FsyncPolicy::Always).unwrap();
        assert_eq!(records.len(), 2, "the torn record does not replay");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        // appends continue exactly where the intact prefix ended
        assert_eq!(reopened.append(&JournalOp::Checkpoint).unwrap(), 3);
        let (_, records) = Journal::open(&path, 0, FsyncPolicy::Always).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].op, JournalOp::Checkpoint);
    }

    #[test]
    fn corrupt_record_marks_the_tail() {
        let dir = TempDir::new("corrupt");
        let path = dir.0.join(segment_name(0));
        let mut journal = Journal::create(&path, 0, FsyncPolicy::Always).unwrap();
        for op in sample_ops() {
            journal.append(&op).unwrap();
        }
        drop(journal);
        let clean = std::fs::read(&path).unwrap();
        // flip one byte inside the second record's body: records 2..
        // are untrusted from there on
        let second_start = JOURNAL_HEADER_LEN + 8 + encode_body(1, &sample_ops()[0]).unwrap().len();
        let mut bytes = clean.clone();
        bytes[second_start + 6] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, records) = Journal::open(&path, 0, FsyncPolicy::Always).unwrap();
        assert_eq!(records.len(), 1, "CRC pins the corruption");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            second_start,
            "the log is cut at the first untrusted record"
        );

        // a skipped sequence number is equally untrusted
        std::fs::write(&path, &clean).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_record(9, &JournalOp::Checkpoint).unwrap());
        std::fs::write(&path, &bytes).unwrap();
        let (_, records) = Journal::open(&path, 0, FsyncPolicy::Always).unwrap();
        assert_eq!(records.len(), 4, "seq 9 after 4 does not replay");
    }

    #[test]
    fn oversized_strings_are_refused_before_writing() {
        let dir = TempDir::new("oversized");
        let path = dir.0.join(segment_name(0));
        let mut journal = Journal::create(&path, 0, FsyncPolicy::Always).unwrap();
        let retire = |len: usize| JournalOp::Retire {
            key: "k".repeat(len),
        };
        assert!(matches!(
            journal.append(&retire(MAX_STRING_BYTES + 1)),
            Err(StoreError::Journal { .. })
        ));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            JOURNAL_HEADER_LEN as u64,
            "a refused record writes nothing"
        );
        // the longest key that fits replays intact, at the next sequence
        assert_eq!(journal.append(&retire(MAX_STRING_BYTES)).unwrap(), 1);
        drop(journal);
        let (_, records) = Journal::open(&path, 0, FsyncPolicy::Always).unwrap();
        assert_eq!(
            records.into_iter().map(|r| r.op).collect::<Vec<_>>(),
            [retire(MAX_STRING_BYTES)]
        );
    }

    #[test]
    fn header_mismatches_are_hard_errors() {
        let dir = TempDir::new("header");
        let path = dir.0.join(segment_name(7));
        Journal::create(&path, 7, FsyncPolicy::Always).unwrap();
        assert!(matches!(
            Journal::open(&path, 8, FsyncPolicy::Always),
            Err(StoreError::Journal { .. })
        ));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::open(&path, 7, FsyncPolicy::Always),
            Err(StoreError::Journal { .. })
        ));
        std::fs::write(&path, b"PRIVTJNL").unwrap();
        assert!(matches!(
            Journal::open(&path, 7, FsyncPolicy::Always),
            Err(StoreError::Journal { .. })
        ));
    }

    #[test]
    fn segment_names_round_trip_and_gate_the_sweep() {
        assert_eq!(segment_name(0), "journal-0000000000000000.bin");
        assert!(looks_like_segment(&segment_name(0x1f)));
        assert!(!looks_like_segment("journal-00.bin"));
        assert!(!looks_like_segment("journal-0000000000000000.bin.tmp"));
        assert!(!looks_like_segment("west-6a8c3f21.ptbin"));
    }

    #[test]
    fn fsync_policy_parses_the_flag_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("every:16"),
            Some(FsyncPolicy::EveryN(16))
        );
        assert_eq!(FsyncPolicy::parse("every:0"), None);
        assert_eq!(FsyncPolicy::parse("interval"), None);
        assert_eq!(FsyncPolicy::EveryN(4).to_string(), "every:4");
    }
}
