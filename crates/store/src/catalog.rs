//! The on-disk release catalog: a directory of release files behind a
//! `catalog.toml` manifest, optionally fronted by a write-ahead
//! operation journal.
//!
//! ```text
//! catalog-dir/
//!   catalog.toml                  # the manifest (always written last)
//!   journal-0000000000000010.bin  # the active journal segment, if any
//!   west-g3-6a8c3f21.ptbin        # one file per release generation
//!   east-g1-0f9d1e44.txt
//! ```
//!
//! The manifest maps each release key to its file, format, whole-file
//! CRC-32, and **generation number**, in a minimal TOML subset this
//! crate parses without dependencies:
//!
//! ```toml
//! # privtree-store catalog
//! version = 1
//! journal_seq = 16
//! journal = "journal-0000000000000010.bin"
//! keep = 2
//!
//! [[release]]
//! key = "west"
//! file = "west-g3-6a8c3f21.ptbin"
//! format = "binary"
//! checksum = "crc32:8f1d3a2b"
//! generation = 3
//!
//! [[retained]]
//! key = "west"
//! file = "west-g2-1b2c3d4e.ptbin"
//! format = "binary"
//! checksum = "crc32:1b2c3d4e"
//! generation = 2
//! ```
//!
//! (`journal_seq`/`journal` appear only on journaled catalogs, `keep`
//! only when retention is above 1, and `[[retained]]` tables only when
//! older generations are retained — a pre-generation manifest parses
//! unchanged.)
//!
//! **Atomic publish**: every write — data file and manifest alike — goes
//! to a `.tmp` sibling first and is then renamed into place, and the
//! manifest is rewritten only *after* its data file landed. Data file
//! names are **generation-unique** (they carry the content checksum),
//! so a publish never overwrites a live file in place — the manifest
//! always points at bytes that match its recorded checksum, whichever
//! side of the crash it landed on. (Generation-unique means the name
//! carries the generation *number*, not just the checksum — a CRC over
//! a file that ends in its own section CRC is blind to the final
//! section's payload, so checksums alone can collide across
//! generations.) A crash at any point therefore
//! leaves either the old catalog or the new one, never a manifest
//! pointing at a half-written release; whatever half-finished residue
//! remains (`.tmp` siblings, orphaned release files or journal segments
//! no manifest references) is swept by [`Catalog::open`]. Loads verify
//! the whole-file checksum before decoding, so a torn or bit-rotted
//! file is a typed error, not a wrong answer.
//!
//! **Generations and retention**: replacing a key's release bumps its
//! generation; [`Catalog::set_retention`] keeps the newest `keep`
//! generations per key (the current one plus `keep - 1` retained), and
//! the GC unlinks a file only when **no live generation — current or
//! retained — references it**. Retained generations survive reopens
//! through the `[[retained]]` manifest tables.
//!
//! **Journaling** ([`Catalog::enable_journal`]): mutations append one
//! CRC-framed record to the active journal segment (fsynced per
//! [`FsyncPolicy`]) *instead of* rewriting the manifest, so an acked
//! `save`/`import`/`remove` is durable at the cost of one sequential
//! append. [`Catalog::open`] replays the segment on top of the
//! manifest (torn tails truncate; see [`crate::journal`]), and
//! [`Catalog::checkpoint`] folds the state back into the manifest and
//! rotates the segment.
//!
//! Every step of this protocol is threaded with deterministic
//! failpoints (`privtree_runtime::failpoints`, compiled in only under
//! the `failpoints` feature); `crates/store/tests/failpoints.rs` and
//! `crates/engine/tests/journal_failpoints.rs` interrupt publishes,
//! removes, journal appends, and checkpoints at every single step and
//! prove the directory reopens at exactly the acked state.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use privtree_spatial::grid_route::CellGrid;
use privtree_spatial::serialize::{release_from_text, release_to_text};
use privtree_spatial::FrozenSynopsis;

use std::sync::Arc;

use privtree_spatial::sharded::ShardHandle;
use privtree_spatial::StableBytes;

use crate::format::{crc32, decode_release, encode_release, MAGIC};
use crate::journal::{self, FsyncPolicy, Journal, JournalMetrics, JournalOp, MAX_STRING_BYTES};
use crate::view::{open_release_view, ReleaseBytes};
use crate::StoreError;
use privtree_runtime::telemetry::{Counter, Registry};

/// Telemetry handles for catalog durability and recovery: the journal
/// set plus replay/GC/checkpoint counters. Registered once per
/// registry ([`CatalogMetrics::register`]) and attached with
/// [`Catalog::attach_metrics`].
#[derive(Debug)]
pub struct CatalogMetrics {
    /// Journal append/fsync handles (shared with the active segment).
    pub journal: Arc<JournalMetrics>,
    /// Journal records replayed on top of the manifest by opens.
    pub replayed_ops: Arc<Counter>,
    /// Superseded release files (and rotated segments) unlinked by GC.
    pub gc_unlinked: Arc<Counter>,
    /// Checkpoints folded into the manifest.
    pub checkpoints: Arc<Counter>,
}

impl CatalogMetrics {
    /// Get-or-create the catalog metric set in `registry`.
    pub fn register(registry: &Registry) -> Arc<Self> {
        Arc::new(Self {
            journal: JournalMetrics::register(registry),
            replayed_ops: registry.counter("journal_replayed_ops_total", &[]),
            gc_unlinked: registry.counter("catalog_gc_unlinked_total", &[]),
            checkpoints: registry.counter("catalog_checkpoints_total", &[]),
        })
    }
}

/// The manifest file name inside a catalog directory.
pub const MANIFEST_FILE: &str = "catalog.toml";

/// Manifest schema version this crate reads and writes.
const MANIFEST_VERSION: u64 = 1;

/// On-disk representation of one release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseFormat {
    /// `privtree-bin v1` (see [`crate::format`]).
    Binary,
    /// The line-oriented `privtree-synopsis v1` text format.
    Text,
}

impl ReleaseFormat {
    /// Manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ReleaseFormat::Binary => "binary",
            ReleaseFormat::Text => "text",
        }
    }

    /// File extension for new release files.
    fn extension(self) -> &'static str {
        match self {
            ReleaseFormat::Binary => "ptbin",
            ReleaseFormat::Text => "txt",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "binary" => Some(ReleaseFormat::Binary),
            "text" => Some(ReleaseFormat::Text),
            _ => None,
        }
    }
}

impl std::fmt::Display for ReleaseFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One manifest entry: where a release generation lives and how to
/// check it.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// File name relative to the catalog directory.
    pub file: String,
    /// How the file is encoded.
    pub format: ReleaseFormat,
    /// CRC-32 of the whole file, verified before every decode.
    pub checksum: u32,
    /// Monotone per-key generation number (1 for a key's first
    /// publish; bumped by every replacing publish).
    pub generation: u64,
}

/// What [`Catalog::open`] cleaned up while recovering the directory
/// from a possible crashed writer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySweep {
    /// Stale `.tmp` siblings removed (a writer died between create and
    /// rename).
    pub tmp_files: usize,
    /// Orphaned release files removed (present on disk, referenced by
    /// no current or retained generation — a writer died between
    /// landing the data file and the manifest/journal record, or
    /// between the record and the superseded file's unlink).
    pub orphan_files: usize,
    /// Orphaned journal segments removed (a rotation died between
    /// creating the fresh segment and the manifest, or between the
    /// manifest and the old segment's unlink).
    pub journal_files: usize,
}

impl RecoverySweep {
    /// Whether the sweep removed anything.
    pub fn is_clean(&self) -> bool {
        self.tmp_files == 0 && self.orphan_files == 0 && self.journal_files == 0
    }
}

/// An open catalog: the directory plus its parsed manifest, replayed
/// journal (if any), and retained older generations.
#[derive(Debug)]
pub struct Catalog {
    dir: PathBuf,
    entries: BTreeMap<String, CatalogEntry>,
    /// Older retained generations per key, oldest first (the current
    /// generation lives in `entries`).
    retained: BTreeMap<String, Vec<CatalogEntry>>,
    /// Newest generations kept per key (current + `keep - 1` retained).
    keep: usize,
    /// The open journal handle when journaling is enabled.
    journal: Option<Journal>,
    /// Active journal segment file name, as recorded in the manifest.
    journal_file: Option<String>,
    /// The sequence number the on-disk manifest covers (records with
    /// higher numbers replay on open).
    journal_seq: u64,
    /// Journal records applied by the last open.
    replayed: usize,
    sweep: RecoverySweep,
    /// Telemetry handles, when attached (see [`Catalog::attach_metrics`]).
    metrics: Option<Arc<CatalogMetrics>>,
}

/// Map a release key to a filesystem-safe stem: keep `[A-Za-z0-9._-]`,
/// replace the rest with `_`, and suffix the key's CRC-32 so distinct
/// keys can never collide on disk after sanitization.
fn file_stem(key: &str) -> String {
    let safe: String = key
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}-{:08x}", crc32(key.as_bytes()))
}

/// Escape a string for a double-quoted TOML value.
fn toml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Unescape a double-quoted TOML value (the subset [`toml_escape`]
/// emits).
fn toml_unescape(s: &str, line: usize) -> Result<String, StoreError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            other => {
                return Err(StoreError::Manifest {
                    line,
                    reason: format!("unsupported escape \\{}", other.unwrap_or(' ')),
                })
            }
        }
    }
    Ok(out)
}

/// Traverse the failpoint `{label}.{step}`. With the `failpoints`
/// feature off this compiles to nothing (no allocation, no lookup).
#[cfg(feature = "failpoints")]
pub(crate) fn fail_point(
    label: &str,
    step: &str,
) -> Result<(), privtree_runtime::failpoints::Failure> {
    privtree_runtime::failpoints::check(&format!("{label}.{step}"))
}

/// No-op stand-in when fault injection is compiled out.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub(crate) fn fail_point(
    _label: &str,
    _step: &str,
) -> Result<(), privtree_runtime::failpoints::Failure> {
    Ok(())
}

/// Write `bytes` to `path` atomically **and durably**: `.tmp` sibling
/// first, `fsync` it (so the data blocks are on disk before the rename
/// can make them visible), rename into place, then `fsync` the parent
/// directory so the rename itself survives power loss — without the
/// directory sync, a crash can persist the rename while the file is
/// still empty, exactly the torn state this module promises away.
///
/// `label` names the failpoints threaded through the five steps
/// (`{label}.create` / `.write` / `.sync` / `.rename` / `.dirsync`).
/// An injected **error** behaves like the real syscall failing — the
/// `.tmp` sibling is cleaned up; an injected **crash** returns without
/// any cleanup, leaving the disk exactly as a dying process would
/// (a torn `.tmp`, an un-synced rename), for [`Catalog::open`]'s
/// recovery sweep to deal with.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8], label: &str) -> Result<(), StoreError> {
    use std::io::Write as _;
    let tmp = path.with_extension(format!(
        "{}.tmp",
        path.extension().and_then(|e| e.to_str()).unwrap_or("dat")
    ));
    // an injected crash must leave the .tmp residue in place — the
    // process is modelled as dead, so no cleanup code would have run
    let injected = |f: privtree_runtime::failpoints::Failure| -> StoreError {
        if !f.is_crash() {
            let _ = std::fs::remove_file(&tmp);
        }
        StoreError::Io {
            context: format!("write {}", tmp.display()),
            message: f.to_string(),
        }
    };
    let cleanup_io = |context: String, e: std::io::Error| -> StoreError {
        let _ = std::fs::remove_file(&tmp);
        StoreError::io(context, e)
    };
    fail_point(label, "create").map_err(&injected)?;
    let mut file = std::fs::File::create(&tmp)
        .map_err(|e| cleanup_io(format!("create {}", tmp.display()), e))?;
    if let Err(f) = fail_point(label, "write") {
        if f.is_crash() {
            // model a torn write: half the payload reached the disk
            let _ = file.write_all(&bytes[..bytes.len() / 2]);
        }
        drop(file);
        return Err(injected(f));
    }
    file.write_all(bytes)
        .map_err(|e| cleanup_io(format!("write {}", tmp.display()), e))?;
    fail_point(label, "sync").map_err(&injected)?;
    file.sync_all()
        .map_err(|e| cleanup_io(format!("sync {}", tmp.display()), e))?;
    drop(file);
    fail_point(label, "rename").map_err(&injected)?;
    std::fs::rename(&tmp, path)
        .map_err(|e| cleanup_io(format!("rename {} into place", tmp.display()), e))?;
    fail_point(label, "dirsync").map_err(|f| StoreError::Io {
        // the rename already landed: nothing to clean up either way
        context: format!("sync directory of {}", path.display()),
        message: f.to_string(),
    })?;
    if let Some(parent) = path.parent() {
        std::fs::File::open(parent)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| StoreError::io(format!("sync directory {}", parent.display()), e))?;
    }
    Ok(())
}

/// Whether `name` looks like a catalog-managed release file: the
/// `.ptbin`/`.txt` extension plus the checksum suffix every
/// catalog-generated name carries. Only such files are candidates for
/// the orphan sweep — anything else in the directory is left alone.
fn looks_like_release_file(name: &str) -> bool {
    let stem = match name.rsplit_once('.') {
        Some((stem, "ptbin" | "txt")) => stem,
        _ => return false,
    };
    match stem.rsplit_once('-') {
        Some((_, suffix)) => suffix.len() == 8 && suffix.bytes().all(|b| b.is_ascii_hexdigit()),
        None => false,
    }
}

impl Catalog {
    /// Open an existing catalog: the directory must hold a manifest.
    ///
    /// Opening **recovers** the directory from a crashed writer: the
    /// active journal segment (if the manifest names one) is replayed
    /// on top of the manifest — torn tails truncate, records above the
    /// manifest's `journal_seq` re-apply, retained generations whose
    /// file a pre-crash GC already unlinked are dropped — then stale
    /// `.tmp` siblings, orphaned release files, and orphaned journal
    /// segments are removed. The result is reported through
    /// [`Catalog::recovery_sweep`]. The manifest itself is written
    /// atomically, so it always parses to either the old or the new
    /// generation.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        let manifest = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| StoreError::io(format!("read {}", manifest.display()), e))?;
        let parsed = parse_manifest(&text)?;
        let mut catalog = Self {
            dir,
            entries: parsed.entries,
            retained: parsed.retained,
            keep: parsed.keep,
            journal: None,
            journal_file: parsed.journal,
            journal_seq: parsed.journal_seq,
            replayed: 0,
            sweep: RecoverySweep::default(),
            metrics: None,
        };
        if let Some(name) = catalog.journal_file.clone() {
            // the replay must run before the sweep: a post-checkpoint
            // publish's data file is referenced only by its journal
            // record until the records are applied
            let path = catalog.dir.join(&name);
            let (journal, records) =
                Journal::open(&path, catalog.journal_seq, FsyncPolicy::Always)?;
            for record in records {
                if record.seq > catalog.journal_seq {
                    catalog.apply_replayed(record.op);
                    catalog.replayed += 1;
                }
            }
            catalog.journal = Some(journal);
        }
        // a retained generation whose file the dying writer's GC
        // already unlinked is gone for good — drop the entry rather
        // than carry a reference the sweep (and loads) cannot honour.
        // Current entries are never dropped here: a missing *current*
        // file is quarantine territory for the lossy loader.
        let dir = catalog.dir.clone();
        for list in catalog.retained.values_mut() {
            list.retain(|e| dir.join(&e.file).exists());
        }
        catalog.retained.retain(|_, list| !list.is_empty());
        catalog.sweep = catalog.run_sweep();
        Ok(catalog)
    }

    /// Open a catalog, creating the directory and an empty manifest when
    /// none exists yet.
    pub fn open_or_create(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        if dir.join(MANIFEST_FILE).exists() {
            return Self::open(dir);
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io(format!("create {}", dir.display()), e))?;
        let mut catalog = Self {
            dir,
            entries: BTreeMap::new(),
            retained: BTreeMap::new(),
            keep: 1,
            journal: None,
            journal_file: None,
            journal_seq: 0,
            replayed: 0,
            sweep: RecoverySweep::default(),
            metrics: None,
        };
        catalog.write_manifest()?;
        // a writer may have died before its first manifest landed —
        // clear its .tmp residue exactly like the open path would
        catalog.sweep = catalog.run_sweep();
        Ok(catalog)
    }

    /// What [`Catalog::open`] removed while recovering the directory
    /// ([`RecoverySweep::is_clean`] when there was nothing to do).
    pub fn recovery_sweep(&self) -> RecoverySweep {
        self.sweep
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of releases in the catalog (current generations only).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog holds no releases.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Release keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|k| k.as_str())
    }

    /// The manifest entry for `key`'s current generation, if any.
    pub fn entry(&self, key: &str) -> Option<&CatalogEntry> {
        self.entries.get(key)
    }

    /// Retained older generations of `key`, oldest first (the current
    /// generation is [`Catalog::entry`]).
    pub fn retained(&self, key: &str) -> &[CatalogEntry] {
        self.retained.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total retained generations across every key.
    pub fn retained_total(&self) -> usize {
        self.retained.values().map(Vec::len).sum()
    }

    /// Every retained generation, as `(key, entry)` pairs in sorted key
    /// order (oldest generation first within a key).
    pub fn retained_entries(&self) -> impl Iterator<Item = (&str, &CatalogEntry)> {
        self.retained
            .iter()
            .flat_map(|(key, list)| list.iter().map(move |e| (key.as_str(), e)))
    }

    /// Newest generations kept per key (see [`Catalog::set_retention`]).
    pub fn keep_generations(&self) -> usize {
        self.keep
    }

    /// Keep the newest `keep` generations per key: the current one plus
    /// `keep - 1` retained (clamped to at least 1 — today's
    /// replace-means-delete behaviour). Applied by subsequent
    /// mutations; already-retained generations beyond the new limit are
    /// trimmed the next time their key mutates. Persisted by the next
    /// manifest write (non-journaled mutation, [`Catalog::checkpoint`],
    /// or [`Catalog::enable_journal`]).
    pub fn set_retention(&mut self, keep: usize) {
        self.keep = keep.max(1);
    }

    /// Attach telemetry: journal appends/fsyncs, replays, GC unlinks,
    /// and checkpoints record through `metrics` from here on. Records
    /// the replay the last open already performed, so a registry
    /// attached right after [`Catalog::open`] still sees it.
    pub fn attach_metrics(&mut self, metrics: Arc<CatalogMetrics>) {
        metrics.replayed_ops.add(self.replayed as u64);
        if let Some(journal) = self.journal.as_mut() {
            journal.set_metrics(Arc::clone(&metrics.journal));
        }
        self.metrics = Some(metrics);
    }

    /// Whether mutations are journaled (see [`Catalog::enable_journal`]).
    pub fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// The active journal segment's file name, if journaling.
    pub fn journal_segment(&self) -> Option<&str> {
        self.journal_file.as_deref()
    }

    /// The sequence number of the last journaled operation (equals
    /// [`Catalog::checkpoint_seq`] when nothing was appended since the
    /// last checkpoint; 0 on a never-journaled catalog).
    pub fn journal_seq(&self) -> u64 {
        self.journal
            .as_ref()
            .map(Journal::last_seq)
            .unwrap_or(self.journal_seq)
    }

    /// The sequence number the on-disk manifest covers.
    pub fn checkpoint_seq(&self) -> u64 {
        self.journal_seq
    }

    /// Journal records the last [`Catalog::open`] replayed on top of
    /// the manifest (0 when the segment was empty or absent).
    pub fn replayed_ops(&self) -> usize {
        self.replayed
    }

    /// The journal's fsync policy, when journaling.
    pub fn fsync_policy(&self) -> Option<FsyncPolicy> {
        self.journal.as_ref().map(Journal::policy)
    }

    /// Turn on write-ahead journaling: create a fresh segment (atomic,
    /// durable), reference it from the manifest, and route every
    /// subsequent `save`/`import`/`remove` through an appended record
    /// instead of a manifest rewrite. Idempotent — on an
    /// already-journaling catalog (including one whose journal
    /// [`Catalog::open`] just replayed) this only updates the fsync
    /// policy.
    pub fn enable_journal(&mut self, policy: FsyncPolicy) -> Result<(), StoreError> {
        if let Some(journal) = self.journal.as_mut() {
            journal.set_policy(policy);
            return Ok(());
        }
        let name = journal::segment_name(self.journal_seq);
        let mut journal = Journal::create(&self.dir.join(&name), self.journal_seq, policy)?;
        if let Some(m) = &self.metrics {
            journal.set_metrics(Arc::clone(&m.journal));
        }
        let saved = self.journal_file.take();
        self.journal_file = Some(name);
        if let Err(e) = self.write_manifest() {
            // the fresh segment is an orphan; the next open sweeps it
            self.journal_file = saved;
            return Err(e);
        }
        self.journal = Some(journal);
        Ok(())
    }

    /// Fold the journaled state into the manifest and rotate the
    /// journal: append (and fsync) a checkpoint record, create the next
    /// segment, rewrite the manifest to cover everything up to the
    /// checkpoint, and unlink the old segment. Returns the checkpoint's
    /// sequence number. A crash at any step recovers to either side:
    /// the old manifest + old segment replay to the same state the new
    /// manifest records. On a non-journaled catalog this just rewrites
    /// the manifest (which per-mutation writes keep current anyway).
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        let Some(journal) = self.journal.as_mut() else {
            self.write_manifest()?;
            return Ok(self.journal_seq);
        };
        let seq = journal.append(&JournalOp::Checkpoint)?;
        journal.sync()?;
        let policy = journal.policy();
        let name = journal::segment_name(seq);
        let mut next = Journal::create(&self.dir.join(&name), seq, policy)?;
        if let Some(m) = &self.metrics {
            next.set_metrics(Arc::clone(&m.journal));
        }
        let saved_seq = self.journal_seq;
        let saved_file = self.journal_file.clone();
        self.journal_seq = seq;
        self.journal_file = Some(name);
        if let Err(e) = self.write_manifest() {
            // the fresh segment is an orphan (swept on the next open);
            // the old segment — checkpoint record included — stays
            // active and replays to exactly this state
            self.journal_seq = saved_seq;
            self.journal_file = saved_file;
            return Err(e);
        }
        self.journal = Some(next);
        if let Some(m) = &self.metrics {
            m.checkpoints.inc();
        }
        if let Some(old) = saved_file {
            fail_point("journal.gc", "unlink").map_err(|f| StoreError::Io {
                context: format!("unlink rotated segment {old}"),
                message: f.to_string(),
            })?;
            if std::fs::remove_file(self.dir.join(&old)).is_ok() {
                if let Some(m) = &self.metrics {
                    m.gc_unlinked.inc();
                }
            }
        }
        Ok(seq)
    }

    /// Persist a release under `key`: encode in `format`, publish the
    /// file atomically, then record the new generation (journal append
    /// when journaling, manifest rewrite otherwise). An existing entry
    /// for `key` is superseded; its file is retained or unlinked per
    /// the retention policy. A key longer than a journal record carries
    /// is refused with [`StoreError::KeyTooLong`] in every mode (the
    /// journal can be enabled later).
    pub fn save(
        &mut self,
        key: &str,
        arena: &FrozenSynopsis,
        grid: Option<&CellGrid>,
        format: ReleaseFormat,
    ) -> Result<CatalogEntry, StoreError> {
        let bytes = match format {
            ReleaseFormat::Binary => encode_release(arena, grid),
            ReleaseFormat::Text => release_to_text(arena, grid).into_bytes(),
        };
        self.publish(key, &bytes, format)
    }

    /// Ingest already-encoded release bytes under `key`, validating that
    /// they decode cleanly first (so the catalog can never point at a
    /// file its own loader rejects). This is how externally produced
    /// releases — e.g. a text release converted with
    /// [`crate::text_to_binary`] — enter a catalog. Keys are refused as
    /// in [`Catalog::save`].
    pub fn import(
        &mut self,
        key: &str,
        bytes: &[u8],
        format: ReleaseFormat,
    ) -> Result<CatalogEntry, StoreError> {
        match format {
            ReleaseFormat::Binary => {
                decode_release(bytes)?;
            }
            ReleaseFormat::Text => {
                let text = std::str::from_utf8(bytes).map_err(|_| {
                    StoreError::Text(privtree_spatial::serialize::ParseError::MissingSection {
                        section: "synopsis",
                        reason: "text release is not valid UTF-8".into(),
                    })
                })?;
                release_from_text(text)?;
            }
        }
        self.publish(key, bytes, format)
    }

    /// The generation the next publish of `key` gets: one past the
    /// newest live (current or retained) generation, so numbers stay
    /// monotone across retire/re-add cycles.
    fn next_generation(&self, key: &str) -> u64 {
        let current = self.entries.get(key).map(|e| e.generation).unwrap_or(0);
        let retained = self
            .retained
            .get(key)
            .and_then(|list| list.last())
            .map(|e| e.generation)
            .unwrap_or(0);
        current.max(retained) + 1
    }

    /// Whether any live generation — current or retained, any key —
    /// references `file`. The GC only unlinks files this returns
    /// `false` for.
    fn file_is_live(&self, file: &str) -> bool {
        self.entries.values().any(|e| e.file == file)
            || self.retained.values().flatten().any(|e| e.file == file)
    }

    /// Trim `key`'s retained list to the retention limit, returning the
    /// files the trim orphaned (deduplicated, live references
    /// excluded — ready for [`Catalog::gc_files`]).
    fn trim_retained(&mut self, key: &str) -> Vec<String> {
        let keep_old = self.keep.saturating_sub(1);
        let mut trimmed = Vec::new();
        if let Some(list) = self.retained.get_mut(key) {
            while list.len() > keep_old {
                trimmed.push(list.remove(0).file);
            }
            if list.is_empty() {
                self.retained.remove(key);
            }
        }
        let mut dead = Vec::new();
        for file in trimmed {
            if !dead.contains(&file) && !self.file_is_live(&file) {
                dead.push(file);
            }
        }
        dead
    }

    /// Unlink files no live generation references (pure GC, after the
    /// durable record landed). An injected failure surfaces as an
    /// error, but the committed state already excludes these files —
    /// the next open's sweep reclaims whatever was left behind.
    fn gc_files(&self, files: &[String]) -> Result<(), StoreError> {
        for file in files {
            fail_point("catalog.gc", "unlink").map_err(|f| StoreError::Io {
                context: format!("unlink superseded {file}"),
                message: f.to_string(),
            })?;
            if std::fs::remove_file(self.dir.join(file)).is_ok() {
                if let Some(m) = &self.metrics {
                    m.gc_unlinked.inc();
                }
            }
        }
        Ok(())
    }

    /// Make the staged entry/retained state durable: append a journal
    /// record when journaling, rewrite the manifest otherwise.
    fn record_mutation(&mut self, op: JournalOp) -> Result<(), StoreError> {
        match self.journal.as_mut() {
            Some(journal) => journal.append(&op).map(|_| ()),
            None => self.write_manifest(),
        }
    }

    /// Write the data file, then record the new generation — journal
    /// append or manifest rewrite, both atomic.
    ///
    /// The file name carries the generation number *and* the content
    /// checksum, so replacing a key writes a **new** file instead of
    /// renaming over the live one: until the record lands, the old
    /// generation's bytes still match the old record's checksum, and
    /// after it lands the new ones match the new — there is no window
    /// in which the catalog points at bytes it did not record. The
    /// generation qualifier is load-bearing, not decorative: a CRC of
    /// a stream that ends in its own CRC is a constant (the CRC
    /// residue), so two releases differing only in the *final*
    /// section's payload share a whole-file checksum — the checksum
    /// alone cannot name files uniquely. Superseded files beyond the
    /// retention limit are unlinked last (pure GC; a crash before the
    /// unlink leaves an orphan for the next open's recovery sweep).
    fn publish(
        &mut self,
        key: &str,
        bytes: &[u8],
        format: ReleaseFormat,
    ) -> Result<CatalogEntry, StoreError> {
        if key.len() > MAX_STRING_BYTES {
            return Err(StoreError::KeyTooLong { bytes: key.len() });
        }
        let checksum = crc32(bytes);
        let generation = self.next_generation(key);
        let file = format!(
            "{}-g{generation:x}-{checksum:08x}.{}",
            file_stem(key),
            format.extension()
        );
        atomic_write(&self.dir.join(&file), bytes, "catalog.data")?;
        let entry = CatalogEntry {
            file: file.clone(),
            format,
            checksum,
            generation,
        };
        let saved_entries = self.entries.clone();
        let saved_retained = self.retained.clone();
        let previous = self.entries.insert(key.to_string(), entry.clone());
        let fresh = previous.is_none();
        if let Some(prev) = previous {
            self.retained.entry(key.to_string()).or_default().push(prev);
        }
        let gc = self.trim_retained(key);
        let op = if fresh {
            JournalOp::Add {
                key: key.to_string(),
                file,
                format,
                checksum,
                generation,
            }
        } else {
            JournalOp::Swap {
                key: key.to_string(),
                file,
                format,
                checksum,
                generation,
            }
        };
        if let Err(e) = self.record_mutation(op) {
            // roll the in-memory maps back so this handle stays
            // consistent with the record that is actually on disk
            // (the new data file is an orphan; the sweep reclaims it)
            self.entries = saved_entries;
            self.retained = saved_retained;
            return Err(e);
        }
        self.gc_files(&gc)?;
        Ok(entry)
    }

    /// Load the release stored under `key`, verifying the whole-file
    /// checksum before decoding. Returns the same shape the serving
    /// loaders use: the frozen arena plus the shipped grid, if any.
    pub fn load(&self, key: &str) -> Result<(FrozenSynopsis, Option<CellGrid>), StoreError> {
        let entry = self
            .entries
            .get(key)
            .ok_or_else(|| StoreError::UnknownKey {
                key: key.to_string(),
            })?;
        let path = self.dir.join(&entry.file);
        let bytes = std::fs::read(&path)
            .map_err(|e| StoreError::io(format!("read {}", path.display()), e))?;
        let found = crc32(&bytes);
        if found != entry.checksum {
            return Err(StoreError::ChecksumMismatch {
                section: "file",
                expected: entry.checksum,
                found,
            });
        }
        match entry.format {
            ReleaseFormat::Binary => decode_release(&bytes),
            ReleaseFormat::Text => {
                let text = std::str::from_utf8(&bytes).map_err(|_| {
                    StoreError::Text(privtree_spatial::serialize::ParseError::MissingSection {
                        section: "synopsis",
                        reason: "text release is not valid UTF-8".into(),
                    })
                })?;
                Ok(release_from_text(text)?)
            }
        }
    }

    /// Load every release, in sorted key order — the warm-start path.
    #[allow(clippy::type_complexity)]
    pub fn load_all(&self) -> Result<Vec<(String, FrozenSynopsis, Option<CellGrid>)>, StoreError> {
        self.entries
            .keys()
            .map(|key| {
                let (arena, grid) = self.load(key)?;
                Ok((key.clone(), arena, grid))
            })
            .collect()
    }

    /// Load the release stored under `key` as a serving handle, with
    /// zero-copy storage when possible: binary releases are
    /// memory-mapped (falling back to an owned read when mapping fails),
    /// the whole-file checksum is verified against the manifest, and the
    /// columns borrow the mapping in place. Validation is
    /// [`Catalog::load`]'s, shipped grid included, so both refuse a
    /// damaged release with the same typed error. Text releases fall
    /// back to the copying [`Catalog::load`] path.
    pub fn load_mapped(&self, key: &str) -> Result<ShardHandle, StoreError> {
        let entry = self
            .entries
            .get(key)
            .ok_or_else(|| StoreError::UnknownKey {
                key: key.to_string(),
            })?;
        if entry.format == ReleaseFormat::Text {
            let (arena, grid) = self.load(key)?;
            return Ok(ShardHandle::from_release(arena, grid));
        }
        let path = self.dir.join(&entry.file);
        let owner = ReleaseBytes::map(&path)?;
        let found = crc32(owner.bytes());
        if found != entry.checksum {
            return Err(StoreError::ChecksumMismatch {
                section: "file",
                expected: entry.checksum,
                found,
            });
        }
        let mapped_bytes = owner.mapped_len();
        let owner: Arc<dyn StableBytes> = Arc::new(owner);
        // the whole-file CRC above already covers every section byte, so
        // the open skips the per-section CRC pass
        let (arena, grid) = open_release_view(&owner, false)?;
        Ok(ShardHandle::from_release(arena, grid).with_mapped_bytes(mapped_bytes))
    }

    /// [`Catalog::load_mapped`] for every release, in sorted key order —
    /// the zero-copy warm-start path.
    pub fn load_all_mapped(&self) -> Result<Vec<(String, ShardHandle)>, StoreError> {
        self.entries
            .keys()
            .map(|key| Ok((key.clone(), self.load_mapped(key)?)))
            .collect()
    }

    /// [`Catalog::load_all_mapped`], degraded: releases whose file is
    /// missing, torn, or corrupt — or whose shipped grid does not fit
    /// its arena — are **quarantined** (returned with their typed
    /// per-key error) instead of failing the whole load, so one bad
    /// release costs capacity, not availability. Surviving releases
    /// load bit-identically to the strict path, in sorted key order.
    #[allow(clippy::type_complexity)]
    pub fn load_all_mapped_lossy(&self) -> (Vec<(String, ShardHandle)>, Vec<(String, StoreError)>) {
        let mut loaded = Vec::new();
        let mut quarantined = Vec::new();
        for key in self.entries.keys() {
            match self.load_mapped(key) {
                Ok(release) => loaded.push((key.clone(), release)),
                Err(e) => quarantined.push((key.clone(), e)),
            }
        }
        (loaded, quarantined)
    }

    /// Drop `key` from the catalog: record first (journal append or
    /// manifest rewrite — so a crash leaves an orphan file, never a
    /// dangling entry), then unlink whatever the retention policy does
    /// not keep. With retention above 1 the retired generation is
    /// retained like a superseded one.
    pub fn remove(&mut self, key: &str) -> Result<(), StoreError> {
        if !self.entries.contains_key(key) {
            return Err(StoreError::UnknownKey {
                key: key.to_string(),
            });
        }
        let saved_entries = self.entries.clone();
        let saved_retained = self.retained.clone();
        let entry = self.entries.remove(key).expect("checked above");
        self.retained
            .entry(key.to_string())
            .or_default()
            .push(entry);
        let gc = self.trim_retained(key);
        if let Err(e) = self.record_mutation(JournalOp::Retire {
            key: key.to_string(),
        }) {
            self.entries = saved_entries;
            self.retained = saved_retained;
            return Err(e);
        }
        self.gc_files(&gc)?;
        Ok(())
    }

    /// Re-apply one replayed journal record to the in-memory maps.
    /// Never touches the disk: trims only drop entries (live GC already
    /// unlinked, or the sweep will), and the post-replay existence
    /// filter reconciles whatever a dying GC left half-done.
    fn apply_replayed(&mut self, op: JournalOp) {
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
                let entry = CatalogEntry {
                    file,
                    format,
                    checksum,
                    generation,
                };
                if let Some(prev) = self.entries.insert(key.clone(), entry) {
                    self.retained.entry(key.clone()).or_default().push(prev);
                }
                let _ = self.trim_retained(&key);
            }
            JournalOp::Retire { key } => {
                if let Some(prev) = self.entries.remove(&key) {
                    self.retained.entry(key.clone()).or_default().push(prev);
                }
                let _ = self.trim_retained(&key);
            }
            JournalOp::Checkpoint => {}
        }
    }

    /// Whether some live state — the manifest/journal bookkeeping or
    /// any generation — references the directory entry `name`.
    fn references_file(&self, name: &str) -> bool {
        self.journal_file.as_deref() == Some(name)
            || self.entries.values().any(|e| e.file == name)
            || self.retained.values().flatten().any(|e| e.file == name)
    }

    /// Remove crashed-writer residue from the directory: stale `.tmp`
    /// siblings, release-shaped files no generation references, and
    /// journal-shaped segments other than the active one. Sweep
    /// failures are ignored (recovery must never make an openable
    /// catalog unopenable); unremoved files are simply re-candidates
    /// next open.
    fn run_sweep(&self) -> RecoverySweep {
        let mut sweep = RecoverySweep::default();
        let Ok(read_dir) = std::fs::read_dir(&self.dir) else {
            return sweep;
        };
        for dirent in read_dir.flatten() {
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            if name == MANIFEST_FILE || self.references_file(name) {
                continue;
            }
            if name.ends_with(".tmp") {
                if std::fs::remove_file(dirent.path()).is_ok() {
                    sweep.tmp_files += 1;
                }
            } else if looks_like_release_file(name) {
                if std::fs::remove_file(dirent.path()).is_ok() {
                    sweep.orphan_files += 1;
                }
            } else if journal::looks_like_segment(name)
                && std::fs::remove_file(dirent.path()).is_ok()
            {
                sweep.journal_files += 1;
            }
        }
        sweep
    }

    /// Render and atomically replace `catalog.toml`.
    fn write_manifest(&self) -> Result<(), StoreError> {
        let mut out = String::from("# privtree-store catalog\n");
        out.push_str(&format!("version = {MANIFEST_VERSION}\n"));
        if let Some(journal) = &self.journal_file {
            out.push_str(&format!("journal_seq = {}\n", self.journal_seq));
            out.push_str(&format!("journal = \"{}\"\n", toml_escape(journal)));
        }
        if self.keep != 1 {
            out.push_str(&format!("keep = {}\n", self.keep));
        }
        let render = |out: &mut String, table: &str, key: &str, entry: &CatalogEntry| {
            out.push_str(&format!(
                "\n[[{table}]]\nkey = \"{}\"\nfile = \"{}\"\nformat = \"{}\"\nchecksum = \"crc32:{:08x}\"\ngeneration = {}\n",
                toml_escape(key),
                toml_escape(&entry.file),
                entry.format,
                entry.checksum,
                entry.generation,
            ));
        };
        for (key, entry) in &self.entries {
            render(&mut out, "release", key, entry);
        }
        for (key, list) in &self.retained {
            for entry in list {
                render(&mut out, "retained", key, entry);
            }
        }
        atomic_write(
            &self.dir.join(MANIFEST_FILE),
            out.as_bytes(),
            "catalog.manifest",
        )
    }
}

/// Everything [`parse_manifest`] extracts from `catalog.toml`.
struct ParsedManifest {
    entries: BTreeMap<String, CatalogEntry>,
    retained: BTreeMap<String, Vec<CatalogEntry>>,
    journal: Option<String>,
    journal_seq: u64,
    keep: usize,
}

/// Parse the manifest subset [`Catalog::write_manifest`] emits:
/// comments, top-level `version` / `journal_seq` / `journal` / `keep`
/// fields, `[[release]]` and `[[retained]]` table headers, and their
/// double-quoted string (plus integer `generation`) assignments.
/// Fields introduced by the generation/journal work are optional, so a
/// pre-generation manifest parses with defaults.
fn parse_manifest(text: &str) -> Result<ParsedManifest, StoreError> {
    struct Partial {
        line: usize,
        retained: bool,
        key: Option<String>,
        file: Option<String>,
        format: Option<ReleaseFormat>,
        checksum: Option<u32>,
        generation: Option<u64>,
    }
    let mut manifest = ParsedManifest {
        entries: BTreeMap::new(),
        retained: BTreeMap::new(),
        journal: None,
        journal_seq: 0,
        keep: 1,
    };
    let mut current: Option<Partial> = None;
    let mut version: Option<u64> = None;

    let finish = |p: Partial, manifest: &mut ParsedManifest| {
        let missing = |field: &str| StoreError::Manifest {
            line: p.line,
            reason: format!(
                "[[{}]] is missing {field}",
                if p.retained { "retained" } else { "release" }
            ),
        };
        let key = p.key.clone().ok_or_else(|| missing("key"))?;
        let entry = CatalogEntry {
            file: p.file.clone().ok_or_else(|| missing("file"))?,
            format: p.format.ok_or_else(|| missing("format"))?,
            checksum: p.checksum.ok_or_else(|| missing("checksum"))?,
            generation: p.generation.unwrap_or(1),
        };
        if p.retained {
            manifest.retained.entry(key).or_default().push(entry);
        } else if manifest.entries.insert(key.clone(), entry).is_some() {
            return Err(StoreError::Manifest {
                line: p.line,
                reason: format!("duplicate release key {key}"),
            });
        }
        Ok(())
    };

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[release]]" || line == "[[retained]]" {
            if let Some(p) = current.take() {
                finish(p, &mut manifest)?;
            }
            current = Some(Partial {
                line: line_no,
                retained: line == "[[retained]]",
                key: None,
                file: None,
                format: None,
                checksum: None,
                generation: None,
            });
            continue;
        }
        let (name, value) = line.split_once('=').ok_or_else(|| StoreError::Manifest {
            line: line_no,
            reason: format!("expected name = value, found: {line}"),
        })?;
        let (name, value) = (name.trim(), value.trim());
        let parse_int = |what: &str| -> Result<u64, StoreError> {
            value.parse().map_err(|_| StoreError::Manifest {
                line: line_no,
                reason: format!("bad {what} {value}"),
            })
        };
        if current.is_none() {
            match name {
                "version" => {
                    let v = parse_int("version")?;
                    if v != MANIFEST_VERSION {
                        return Err(StoreError::Manifest {
                            line: line_no,
                            reason: format!("manifest version {v} is not supported"),
                        });
                    }
                    version = Some(v);
                }
                "journal_seq" => manifest.journal_seq = parse_int("journal_seq")?,
                "keep" => {
                    let keep = parse_int("keep")?;
                    if keep == 0 {
                        return Err(StoreError::Manifest {
                            line: line_no,
                            reason: "keep must be at least 1".into(),
                        });
                    }
                    manifest.keep = keep as usize;
                }
                "journal" => {
                    let quoted = value
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| StoreError::Manifest {
                            line: line_no,
                            reason: "journal value must be double-quoted".into(),
                        })?;
                    manifest.journal = Some(toml_unescape(quoted, line_no)?);
                }
                other => {
                    return Err(StoreError::Manifest {
                        line: line_no,
                        reason: format!("unexpected top-level field {other}"),
                    })
                }
            }
            continue;
        }
        let p = current.as_mut().expect("inside a table");
        if name == "generation" {
            p.generation = Some(parse_int("generation")?);
            continue;
        }
        let quoted = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| StoreError::Manifest {
                line: line_no,
                reason: format!("{name} value must be double-quoted"),
            })?;
        let value = toml_unescape(quoted, line_no)?;
        match name {
            "key" => p.key = Some(value),
            "file" => p.file = Some(value),
            "format" => {
                p.format =
                    Some(
                        ReleaseFormat::parse(&value).ok_or_else(|| StoreError::Manifest {
                            line: line_no,
                            reason: format!("unknown format {value}"),
                        })?,
                    )
            }
            "checksum" => {
                let hex = value
                    .strip_prefix("crc32:")
                    .ok_or_else(|| StoreError::Manifest {
                        line: line_no,
                        reason: format!("checksum must be crc32:<hex>, found {value}"),
                    })?;
                p.checksum =
                    Some(
                        u32::from_str_radix(hex, 16).map_err(|_| StoreError::Manifest {
                            line: line_no,
                            reason: format!("bad checksum hex {hex}"),
                        })?,
                    );
            }
            other => {
                return Err(StoreError::Manifest {
                    line: line_no,
                    reason: format!("unknown release field {other}"),
                })
            }
        }
    }
    if let Some(p) = current.take() {
        finish(p, &mut manifest)?;
    }
    if version.is_none() {
        return Err(StoreError::Manifest {
            line: 1,
            reason: "no version field".into(),
        });
    }
    // retained lists replay oldest-first regardless of table order
    for list in manifest.retained.values_mut() {
        list.sort_by_key(|e| e.generation);
    }
    Ok(manifest)
}

/// Sniff whether `bytes` look like a `privtree-bin` file (vs text).
pub fn looks_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_stems_are_safe_and_distinct() {
        let a = file_stem("epoch/2026-07-27T00:00");
        assert!(a
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')));
        // sanitization collides, the checksum suffix does not
        assert_ne!(file_stem("a/b"), file_stem("a:b"));
        assert_eq!(file_stem("west"), file_stem("west"));
    }

    #[test]
    fn manifest_round_trips_awkward_keys() {
        let dir =
            std::env::temp_dir().join(format!("privtree-catalog-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cat = Catalog::open_or_create(&dir).unwrap();
        let tree = privtree_core::tree::Tree::with_root(privtree_spatial::Rect::unit(2));
        let arena = FrozenSynopsis::from_tree(&tree, &[7.5], "leaf");
        cat.save("we\"ird\\key", &arena, None, ReleaseFormat::Binary)
            .unwrap();
        let reopened = Catalog::open(&dir).unwrap();
        assert_eq!(reopened.keys().collect::<Vec<_>>(), ["we\"ird\\key"]);
        assert_eq!(reopened.entry("we\"ird\\key").unwrap().generation, 1);
        let (back, grid) = reopened.load("we\"ird\\key").unwrap();
        assert!(grid.is_none());
        assert_eq!(back.counts(), &[7.5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rejects_garbage() {
        assert!(matches!(
            parse_manifest("version = 1\nbogus = 3\n"),
            Err(StoreError::Manifest { line: 2, .. })
        ));
        assert!(matches!(
            parse_manifest("version = 2\n"),
            Err(StoreError::Manifest { line: 1, .. })
        ));
        assert!(matches!(
            parse_manifest("version = 1\nkeep = 0\n"),
            Err(StoreError::Manifest { line: 2, .. })
        ));
        assert!(matches!(
            parse_manifest("version = 1\n[[release]]\nkey = \"a\"\n"),
            Err(StoreError::Manifest { .. })
        ));
        assert!(parse_manifest("version = 1\n").unwrap().entries.is_empty());
    }

    #[test]
    fn manifest_parses_journal_retention_and_defaults() {
        // a pre-generation manifest (no generation / journal / keep
        // fields) parses with defaults
        let legacy = "version = 1\n\n[[release]]\nkey = \"west\"\nfile = \"west-00000001.ptbin\"\n\
                      format = \"binary\"\nchecksum = \"crc32:00000001\"\n";
        let parsed = parse_manifest(legacy).unwrap();
        assert_eq!(parsed.entries["west"].generation, 1);
        assert_eq!(parsed.keep, 1);
        assert!(parsed.journal.is_none());

        let full = "version = 1\njournal_seq = 16\njournal = \"journal-0000000000000010.bin\"\n\
                    keep = 3\n\n[[release]]\nkey = \"west\"\nfile = \"west-00000003.ptbin\"\n\
                    format = \"binary\"\nchecksum = \"crc32:00000003\"\ngeneration = 3\n\n\
                    [[retained]]\nkey = \"west\"\nfile = \"west-00000002.ptbin\"\n\
                    format = \"binary\"\nchecksum = \"crc32:00000002\"\ngeneration = 2\n\n\
                    [[retained]]\nkey = \"west\"\nfile = \"west-00000001.ptbin\"\n\
                    format = \"binary\"\nchecksum = \"crc32:00000001\"\ngeneration = 1\n";
        let parsed = parse_manifest(full).unwrap();
        assert_eq!(parsed.journal_seq, 16);
        assert_eq!(
            parsed.journal.as_deref(),
            Some("journal-0000000000000010.bin")
        );
        assert_eq!(parsed.keep, 3);
        assert_eq!(parsed.entries["west"].generation, 3);
        // retained sorts oldest-first whatever the table order
        assert_eq!(
            parsed.retained["west"]
                .iter()
                .map(|e| e.generation)
                .collect::<Vec<_>>(),
            [1, 2]
        );
    }

    #[test]
    fn retention_keeps_and_gcs_generations() {
        let dir =
            std::env::temp_dir().join(format!("privtree-catalog-keep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cat = Catalog::open_or_create(&dir).unwrap();
        cat.set_retention(2);
        let tree = privtree_core::tree::Tree::with_root(privtree_spatial::Rect::unit(2));
        let release = |c: f64| FrozenSynopsis::from_tree(&tree, &[c], "leaf");
        let gen1 = cat
            .save("west", &release(1.0), None, ReleaseFormat::Binary)
            .unwrap();
        let gen2 = cat
            .save("west", &release(2.0), None, ReleaseFormat::Binary)
            .unwrap();
        let gen3 = cat
            .save("west", &release(3.0), None, ReleaseFormat::Binary)
            .unwrap();
        assert_eq!(
            (gen1.generation, gen2.generation, gen3.generation),
            (1, 2, 3)
        );
        // keep=2: generation 2 is retained, generation 1 was GC'd
        assert_eq!(cat.retained("west").len(), 1);
        assert_eq!(cat.retained("west")[0].generation, 2);
        assert!(dir.join(&gen3.file).exists());
        assert!(dir.join(&gen2.file).exists());
        assert!(!dir.join(&gen1.file).exists());
        // the retained generation survives a reopen and its file
        // survives the sweep
        let reopened = Catalog::open(&dir).unwrap();
        assert!(reopened.recovery_sweep().is_clean());
        assert_eq!(reopened.retained("west").len(), 1);
        assert!(dir.join(&gen2.file).exists());
        // retiring with retention keeps the last generation around
        let mut reopened = reopened;
        reopened
            .save("east", &release(9.0), None, ReleaseFormat::Binary)
            .unwrap();
        reopened.remove("west").unwrap();
        assert!(reopened.entry("west").is_none());
        assert_eq!(reopened.retained("west").len(), 1);
        assert_eq!(reopened.retained("west")[0].generation, 3);
        assert!(dir.join(&gen3.file).exists());
        assert!(!dir.join(&gen2.file).exists(), "trimmed by the retire");
        // a re-add continues the generation sequence
        let gen4 = reopened
            .save("west", &release(4.0), None, ReleaseFormat::Binary)
            .unwrap();
        assert_eq!(gen4.generation, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for a latent PR 7 hazard: a CRC-32 over a stream
    /// that ends in its own CRC-32 is a constant (the CRC residue), so
    /// two releases differing only in the **final** section's payload
    /// share a whole-file checksum. Checksum-only file names would
    /// collide — the replacing publish would overwrite the live
    /// generation in place. Generation-qualified names keep both
    /// files distinct and both generations loadable.
    #[test]
    fn generations_with_colliding_checksums_get_distinct_files() {
        let dir = std::env::temp_dir().join(format!("privtree-catalog-crc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tree = privtree_core::tree::Tree::with_root(privtree_spatial::Rect::unit(2));
        // single-node releases differ only in the counts section — the
        // last section in the file — which is exactly the blind spot
        let a = FrozenSynopsis::from_tree(&tree, &[1.0], "leaf");
        let b = FrozenSynopsis::from_tree(&tree, &[2.0], "leaf");
        assert_eq!(
            crc32(&encode_release(&a, None)),
            crc32(&encode_release(&b, None)),
            "the residue property makes these whole-file CRCs collide"
        );
        let mut cat = Catalog::open_or_create(&dir).unwrap();
        cat.set_retention(2);
        let gen1 = cat.save("west", &a, None, ReleaseFormat::Binary).unwrap();
        let gen2 = cat.save("west", &b, None, ReleaseFormat::Binary).unwrap();
        assert_eq!(gen1.checksum, gen2.checksum, "colliding by construction");
        assert_ne!(
            gen1.file, gen2.file,
            "generation qualifier keeps names unique"
        );
        assert_eq!((gen1.generation, gen2.generation), (1, 2));
        let (current, _) = cat.load("west").unwrap();
        assert_eq!(current.counts(), &[2.0]);
        let retained = std::fs::read(dir.join(&gen1.file)).unwrap();
        assert_eq!(decode_release(&retained).unwrap().0.counts(), &[1.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_mutations_replay_on_open() {
        let dir = std::env::temp_dir().join(format!("privtree-catalog-jnl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tree = privtree_core::tree::Tree::with_root(privtree_spatial::Rect::unit(2));
        let release = |c: f64| FrozenSynopsis::from_tree(&tree, &[c], "leaf");
        let mut cat = Catalog::open_or_create(&dir).unwrap();
        cat.enable_journal(FsyncPolicy::Always).unwrap();
        assert!(cat.journaling());
        cat.save("west", &release(1.0), None, ReleaseFormat::Binary)
            .unwrap();
        cat.save("east", &release(2.0), None, ReleaseFormat::Binary)
            .unwrap();
        cat.save("west", &release(3.0), None, ReleaseFormat::Binary)
            .unwrap();
        cat.remove("east").unwrap();
        assert_eq!(cat.journal_seq(), 4);
        // the manifest still describes the (empty) checkpoint state;
        // the journal carries everything
        drop(cat);
        let reopened = Catalog::open(&dir).unwrap();
        assert_eq!(reopened.replayed_ops(), 4);
        assert_eq!(reopened.keys().collect::<Vec<_>>(), ["west"]);
        assert_eq!(reopened.entry("west").unwrap().generation, 2);
        let (back, _) = reopened.load("west").unwrap();
        assert_eq!(back.counts(), &[3.0]);
        assert!(
            reopened.recovery_sweep().is_clean(),
            "replay references all files"
        );

        // checkpoint folds into the manifest and rotates the segment
        let mut cat = reopened;
        let old_segment = cat.journal_segment().unwrap().to_string();
        let seq = cat.checkpoint().unwrap();
        assert_eq!(seq, 5, "the checkpoint record has its own seq");
        assert_ne!(cat.journal_segment().unwrap(), old_segment);
        assert!(!dir.join(&old_segment).exists(), "rotated segment unlinked");
        let reopened = Catalog::open(&dir).unwrap();
        assert_eq!(reopened.replayed_ops(), 0, "manifest covers everything");
        assert_eq!(reopened.checkpoint_seq(), 5);
        assert_eq!(reopened.keys().collect::<Vec<_>>(), ["west"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_replay_whole_or_are_refused() {
        let dir =
            std::env::temp_dir().join(format!("privtree-catalog-longkey-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tree = privtree_core::tree::Tree::with_root(privtree_spatial::Rect::unit(2));
        let release = FrozenSynopsis::from_tree(&tree, &[1.0], "leaf");
        let save =
            |cat: &mut Catalog, key: &str| cat.save(key, &release, None, ReleaseFormat::Binary);
        let files = || std::fs::read_dir(&dir).unwrap().count();
        let mut cat = Catalog::open_or_create(&dir).unwrap();
        // refused before any file is written, whether or not the
        // catalog journals yet
        let long = "k".repeat(70_000);
        for journaled in [false, true] {
            if journaled {
                cat.enable_journal(FsyncPolicy::Always).unwrap();
            }
            let present = files();
            assert_eq!(
                save(&mut cat, &long).unwrap_err(),
                StoreError::KeyTooLong { bytes: 70_000 }
            );
            let bytes = encode_release(&release, None);
            assert_eq!(
                cat.import(&long, &bytes, ReleaseFormat::Binary)
                    .unwrap_err(),
                StoreError::KeyTooLong { bytes: 70_000 }
            );
            assert_eq!(files(), present, "journaled = {journaled}");
        }
        // cut at 65,535 bytes this key would split its last "é" and
        // tear the record, and replay would drop the acked save after it
        save(&mut cat, "before").unwrap();
        assert_eq!(
            save(&mut cat, &"é".repeat(32_768)).unwrap_err(),
            StoreError::KeyTooLong { bytes: 65_536 }
        );
        save(&mut cat, "after").unwrap();
        let longest = "k".repeat(MAX_STRING_BYTES);
        save(&mut cat, &longest).unwrap();
        drop(cat);
        let reopened = Catalog::open(&dir).unwrap();
        assert_eq!(reopened.replayed_ops(), 3);
        assert_eq!(
            reopened.keys().collect::<Vec<_>>(),
            ["after", "before", longest.as_str()]
        );
        assert_eq!(reopened.load(&longest).unwrap().0.counts(), &[1.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
