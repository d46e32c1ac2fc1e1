//! Durable template journal: a write-ahead log that makes drift hot swaps crash-safe.
//!
//! The serving daemon learns templates at runtime (drift-triggered rediscovery,
//! [`crate::serve`]) — state that, before this module, lived only in memory: a crash or
//! restart silently fell back to the stale on-disk [`TemplateArtifact`].  The journal
//! gives the serving tier the same durability contract the artifact gives discovery:
//!
//! * **Append:** every hot swap's template *delta* (the genuinely new templates, plus the
//!   claimed snapshot version) is framed as a checksummed, length-prefixed entry and
//!   `fsync`'d to a journal file next to the artifact **before** the swap is published.
//! * **Replay:** restart = load the artifact + replay the journal.  Replay is
//!   torn-tail tolerant: it stops at the first bad length/checksum/payload and reports the
//!   torn offset; the recovered prefix is exactly the committed swaps, never an error and
//!   never a phantom template.  Recovery truncates the torn tail so later appends land on
//!   a clean end of file.
//! * **Compaction:** after `compact_every` swaps — and on clean shutdown — the merged
//!   template set is re-saved as a fresh artifact (atomically: `.tmp` + rename +
//!   directory `fsync`, the same pattern the CSV exporter uses) and the journal is reset.
//!   A crash *between* the artifact rename and the journal reset is harmless: replay is
//!   idempotent (deltas dedup by canonical string), so the journal entries already folded
//!   into the artifact apply as no-ops.
//!
//! ## On-disk format
//!
//! ```text
//! magic:  b"DMJRNL1\n"                           (8 bytes)
//! entry:  len: u32 LE | fnv1a64(payload): u64 LE | payload   (repeated)
//! ```
//!
//! The payload is a JSON document (`{"version": N, "templates": [...]}`) using the same
//! node encoding as the artifact.  FNV-1a 64 is the artifact's checksum function, so the
//! two durability layers share one integrity primitive.
//!
//! ## Crash points
//!
//! The chaos harness (`datamaran-serve/tests/serve_crash.rs`) kills the daemon at
//! injected points: when the `DATAMARAN_CRASH_POINT` environment variable names a point,
//! the process **aborts** (no unwinding, no destructors — a faithful `kill -9`) the
//! moment execution reaches it.  `journal.torn-append` additionally writes only half the
//! entry first, producing a real torn tail on disk.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::artifact::{node_from_json, node_to_json, TemplateArtifact};
use crate::error::{Error, Result};
use crate::json::JsonValue;
use crate::serve::{PersistenceStats, SwapPersistence, TemplateSnapshot};
use crate::structure::StructureTemplate;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The 8-byte magic every journal file starts with.
pub const JOURNAL_MAGIC: &[u8; 8] = b"DMJRNL1\n";

/// Upper bound on a single entry's payload; larger length prefixes are treated as torn
/// garbage, not allocation requests.
pub const MAX_ENTRY_BYTES: usize = 16 * 1024 * 1024;

/// Environment variable the chaos harness sets to name an injected crash point.
pub const CRASH_POINT_ENV: &str = "DATAMARAN_CRASH_POINT";

/// Whether the named crash point is armed via [`CRASH_POINT_ENV`].
pub(crate) fn crash_point_armed(name: &str) -> bool {
    std::env::var(CRASH_POINT_ENV)
        .map(|v| v == name)
        .unwrap_or(false)
}

/// Aborts the process (no unwinding — a faithful crash) if the named point is armed.
pub(crate) fn crash_point(name: &str) {
    if crash_point_armed(name) {
        eprintln!("datamaran: injected crash at point `{name}`");
        std::process::abort();
    }
}

/// `fsync` a directory so a just-renamed file inside it survives power loss.
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// One journaled hot swap: the snapshot version that was claimed and the templates the
/// swap **added** (the delta, not the full set — replay folds deltas into the artifact).
#[derive(Clone, Debug, PartialEq)]
pub struct SwapDelta {
    /// The snapshot version the swap published.
    pub version: u64,
    /// The templates the swap added over its predecessor.
    pub added: Vec<StructureTemplate>,
}

impl SwapDelta {
    /// Serializes the delta payload (the bytes inside one journal frame).
    pub fn to_json(&self) -> String {
        JsonValue::Object(vec![
            ("version".into(), JsonValue::Number(self.version as f64)),
            (
                "templates".into(),
                JsonValue::Array(
                    self.added
                        .iter()
                        .map(|t| {
                            JsonValue::Object(vec![(
                                "nodes".into(),
                                JsonValue::Array(t.nodes().iter().map(node_to_json).collect()),
                            )])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }

    /// Parses a delta payload written by [`to_json`](Self::to_json).
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = JsonValue::parse(text)
            .map_err(|e| Error::Journal(format!("entry payload is not valid JSON: {e:?}")))?;
        let version = doc
            .require("version")
            .and_then(JsonValue::as_usize)
            .map_err(|e| Error::Journal(format!("{e:?}")))? as u64;
        let entries = doc
            .require("templates")
            .and_then(JsonValue::as_array)
            .map_err(|e| Error::Journal(format!("{e:?}")))?;
        let mut added = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let nodes = entry
                .require("nodes")
                .and_then(JsonValue::as_array)
                .map_err(|e| Error::Journal(format!("delta template {i}: {e:?}")))?
                .iter()
                .map(node_from_json)
                .collect::<Result<Vec<_>>>()
                .map_err(|e| Error::Journal(format!("delta template {i}: {e}")))?;
            added.push(StructureTemplate::new(nodes));
        }
        Ok(SwapDelta { version, added })
    }
}

/// Where replay stopped early: the byte offset of the first unreadable frame and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first frame that could not be read (replay is valid up to here).
    pub offset: usize,
    /// Human-readable reason (short magic, truncated frame, checksum mismatch, ...).
    pub reason: String,
}

/// The outcome of replaying a journal byte stream.
#[derive(Clone, Debug, Default)]
pub struct JournalReplay {
    /// The committed swaps, in append order — always a prefix of what was appended.
    pub deltas: Vec<SwapDelta>,
    /// Length of the valid prefix (magic + whole entries); recovery truncates to this.
    pub valid_len: usize,
    /// Set when replay stopped before the end of the bytes.
    pub torn: Option<TornTail>,
}

/// Replays a journal byte stream.  **Never errors**: any unreadable frame — torn length
/// prefix, truncated payload, checksum mismatch, undecodable JSON — ends the replay at
/// that offset with the valid prefix intact.
pub fn replay_journal(bytes: &[u8]) -> JournalReplay {
    let mut out = JournalReplay::default();
    if bytes.is_empty() {
        return out;
    }
    if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        out.torn = Some(TornTail {
            offset: 0,
            reason: "missing or foreign journal magic".into(),
        });
        return out;
    }
    let mut pos = JOURNAL_MAGIC.len();
    out.valid_len = pos;
    loop {
        if pos == bytes.len() {
            return out; // clean end of journal
        }
        let tear = |reason: &str| {
            Some(TornTail {
                offset: pos,
                reason: reason.into(),
            })
        };
        if bytes.len() - pos < 12 {
            out.torn = tear("truncated frame header");
            return out;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let recorded = u64::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
            bytes[pos + 8],
            bytes[pos + 9],
            bytes[pos + 10],
            bytes[pos + 11],
        ]);
        if len > MAX_ENTRY_BYTES {
            out.torn = tear("implausible entry length");
            return out;
        }
        if bytes.len() - pos - 12 < len {
            out.torn = tear("truncated entry payload");
            return out;
        }
        let payload = &bytes[pos + 12..pos + 12 + len];
        if fnv1a64_bytes(payload) != recorded {
            out.torn = tear("entry checksum mismatch");
            return out;
        }
        let text = match std::str::from_utf8(payload) {
            Ok(text) => text,
            Err(_) => {
                out.torn = tear("entry payload is not UTF-8");
                return out;
            }
        };
        match SwapDelta::from_json(text) {
            Ok(delta) => out.deltas.push(delta),
            Err(_) => {
                out.torn = tear("entry payload does not decode");
                return out;
            }
        }
        pos += 12 + len;
        out.valid_len = pos;
    }
}

/// FNV-1a 64 over a whole byte slice (the artifact's checksum primitive).
fn fnv1a64_bytes(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The storage a [`TemplateJournal`] appends to.  The filesystem implementation is
/// [`FsJournalMedia`]; the fault harness ([`crate::fault::FailingJournalDir`]) wraps it
/// with injected disk-full / torn-write failures.
pub trait JournalMedia: Send {
    /// Appends `bytes` at the end of the medium.  A failed append may leave a **torn
    /// prefix** of the bytes behind (that is what replay tolerates).
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Forces everything appended so far to durable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Truncates the medium to `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Current length of the medium in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// Whether the medium currently holds zero bytes.
    fn is_empty(&mut self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// A real journal file.
pub struct FsJournalMedia {
    file: File,
}

impl FsJournalMedia {
    /// Opens (or creates) the journal file at `path` for appending.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FsJournalMedia { file })
    }
}

impl JournalMedia for FsJournalMedia {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len)).map(|_| ())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

/// An in-memory journal medium (tests): the buffer is shared, so the test keeps a handle
/// to the bytes the journal wrote.
#[derive(Clone, Default)]
pub struct MemJournalMedia {
    buf: std::sync::Arc<Mutex<Vec<u8>>>,
}

impl MemJournalMedia {
    /// A snapshot of the bytes appended so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl JournalMedia for MemJournalMedia {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .truncate(len as usize);
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.buf.lock().unwrap_or_else(|e| e.into_inner()).len() as u64)
    }
}

/// An append-only template WAL over a [`JournalMedia`].
pub struct TemplateJournal {
    media: Box<dyn JournalMedia>,
    entries: u64,
}

impl TemplateJournal {
    /// Starts a **fresh** journal on `media`: truncates it and writes the magic.
    pub fn fresh(mut media: Box<dyn JournalMedia>) -> Result<Self> {
        media.truncate(0).map_err(journal_io("reset"))?;
        media
            .append(JOURNAL_MAGIC)
            .and_then(|()| media.sync())
            .map_err(journal_io("write magic"))?;
        Ok(TemplateJournal { media, entries: 0 })
    }

    /// Resumes an already-recovered journal on `media` (the caller has truncated any torn
    /// tail; `entries` committed swaps are on the medium).
    pub fn resume(media: Box<dyn JournalMedia>, entries: u64) -> Self {
        TemplateJournal { media, entries }
    }

    /// Opens the journal file at `path`, replaying what is on disk: the committed swaps
    /// come back as deltas, a torn tail is **truncated** (and reported), and a journal
    /// whose magic is foreign is rotated aside to `<path>.corrupt` rather than trusted or
    /// destroyed.  Missing file = fresh journal.
    pub fn recover(path: &Path) -> Result<(Self, Vec<SwapDelta>, Option<String>)> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(Error::io_path(&e, path)),
        };
        let replay = replay_journal(&bytes);
        // A non-empty file with no readable magic is not "a torn tail" — the whole file
        // is foreign.  Preserve it for the operator and start fresh.
        if replay.valid_len == 0 && !bytes.is_empty() {
            let quarantine = path.with_extension("journal.corrupt");
            std::fs::rename(path, &quarantine).map_err(|e| Error::io_path(&e, path))?;
            let media = Box::new(FsJournalMedia::open(path).map_err(journal_io("open"))?);
            let journal = TemplateJournal::fresh(media)?;
            let reason = replay
                .torn
                .map(|t| t.reason)
                .unwrap_or_else(|| "unreadable journal".into());
            return Ok((
                journal,
                Vec::new(),
                Some(format!(
                    "journal unreadable ({reason}); rotated to {} and started fresh",
                    quarantine.display()
                )),
            ));
        }
        let mut media = Box::new(FsJournalMedia::open(path).map_err(journal_io("open"))?);
        if bytes.is_empty() {
            let journal = TemplateJournal::fresh(media)?;
            return Ok((journal, Vec::new(), None));
        }
        let mut note = None;
        if let Some(torn) = &replay.torn {
            media
                .truncate(replay.valid_len as u64)
                .and_then(|()| media.sync())
                .map_err(journal_io("truncate torn tail"))?;
            note = Some(format!(
                "torn journal tail at byte {} ({}); truncated to last durable entry",
                torn.offset, torn.reason
            ));
        }
        let entries = replay.deltas.len() as u64;
        Ok((TemplateJournal::resume(media, entries), replay.deltas, note))
    }

    /// Appends one swap delta: frame (length prefix + FNV-1a 64 checksum + payload),
    /// write, `fsync`.  The entry is durable when this returns `Ok`.
    pub fn append(&mut self, delta: &SwapDelta) -> Result<()> {
        let payload = delta.to_json();
        let payload = payload.as_bytes();
        if payload.len() > MAX_ENTRY_BYTES {
            return Err(Error::Journal(format!(
                "swap delta payload of {} bytes exceeds the {} byte frame cap",
                payload.len(),
                MAX_ENTRY_BYTES
            )));
        }
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64_bytes(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        // Chaos point: a crash that tears the entry mid-write.  Half the frame lands on
        // disk, then the process dies without unwinding.
        if crash_point_armed("journal.torn-append") {
            let half = frame.len() / 2;
            let _ = self.media.append(&frame[..half]);
            let _ = self.media.sync();
            eprintln!("datamaran: injected crash at point `journal.torn-append`");
            std::process::abort();
        }
        self.media.append(&frame).map_err(journal_io("append"))?;
        self.media.sync().map_err(journal_io("sync"))?;
        self.entries += 1;
        Ok(())
    }

    /// Resets the journal to empty (post-compaction): truncate, rewrite magic, `fsync`.
    pub fn reset(&mut self) -> Result<()> {
        self.media.truncate(0).map_err(journal_io("reset"))?;
        self.media
            .append(JOURNAL_MAGIC)
            .and_then(|()| self.media.sync())
            .map_err(journal_io("rewrite magic"))?;
        self.entries = 0;
        Ok(())
    }

    /// Committed entries currently in the journal.
    pub fn entries(&self) -> u64 {
        self.entries
    }
}

/// Maps a medium-level I/O failure into the journal error taxonomy.
fn journal_io(op: &'static str) -> impl Fn(io::Error) -> Error {
    move |e| Error::Journal(format!("{op} failed: {e}"))
}

/// Builds the restart snapshot: the artifact's templates plus the journal deltas, folded
/// in append order with canonical-string dedup (replay is idempotent — deltas already
/// compacted into the artifact apply as no-ops).  The snapshot version is `1 + deltas`,
/// so versions keep advancing across restarts within one journal generation.
pub fn recovered_snapshot(
    artifact: &TemplateArtifact,
    deltas: &[SwapDelta],
) -> Result<TemplateSnapshot> {
    let mut templates = artifact.templates.clone();
    let mut known: HashSet<String> = templates
        .iter()
        .map(StructureTemplate::canonical_string)
        .collect();
    for delta in deltas {
        for template in &delta.added {
            if known.insert(template.canonical_string()) {
                templates.push(template.clone());
            }
        }
    }
    TemplateSnapshot::from_templates(1 + deltas.len() as u64, templates, artifact.max_line_span)
}

/// How a [`JournalPersistence`] compacts.
#[derive(Clone, Copy, Debug)]
pub struct JournalConfig {
    /// Compact (atomically re-save the merged artifact and reset the journal) once this
    /// many swaps have accumulated since the last compaction.
    pub compact_every: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { compact_every: 8 }
    }
}

struct JournalInner {
    journal: TemplateJournal,
    since_compact: u64,
}

/// The filesystem-backed [`SwapPersistence`]: WAL-append each swap before it publishes,
/// compact into the artifact after [`JournalConfig::compact_every`] swaps or on clean
/// shutdown.
pub struct JournalPersistence {
    artifact_path: PathBuf,
    max_line_span: usize,
    config: JournalConfig,
    inner: Mutex<JournalInner>,
    appended: AtomicU64,
    compactions: AtomicU64,
    failures: AtomicU64,
    healthy: AtomicBool,
    last_error: Mutex<Option<String>>,
}

impl JournalPersistence {
    /// Opens (recovering if needed) the journal at `journal_path` for the artifact at
    /// `artifact_path`.  Returns the persistence layer, the replayed swap deltas (fold
    /// them into the initial snapshot with [`recovered_snapshot`]), and an optional
    /// recovery note (torn tail truncated, foreign journal rotated) for the operator log.
    pub fn open(
        artifact: &TemplateArtifact,
        artifact_path: &Path,
        journal_path: &Path,
        config: JournalConfig,
    ) -> Result<(Self, Vec<SwapDelta>, Option<String>)> {
        if config.compact_every == 0 {
            return Err(Error::InvalidConfig("compact_every must be >= 1".into()));
        }
        let (journal, deltas, note) = TemplateJournal::recover(journal_path)?;
        let since_compact = journal.entries();
        let persistence = JournalPersistence {
            artifact_path: artifact_path.to_path_buf(),
            max_line_span: artifact.max_line_span,
            config,
            inner: Mutex::new(JournalInner {
                journal,
                since_compact,
            }),
            appended: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            healthy: AtomicBool::new(true),
            last_error: Mutex::new(None),
        };
        Ok((persistence, deltas, note))
    }

    /// Test seam: a persistence layer whose journal lives on an arbitrary medium.
    pub fn with_media(
        artifact: &TemplateArtifact,
        artifact_path: &Path,
        media: Box<dyn JournalMedia>,
        config: JournalConfig,
    ) -> Result<Self> {
        let journal = TemplateJournal::fresh(media)?;
        Ok(JournalPersistence {
            artifact_path: artifact_path.to_path_buf(),
            max_line_span: artifact.max_line_span,
            config,
            inner: Mutex::new(JournalInner {
                journal,
                since_compact: 0,
            }),
            appended: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            healthy: AtomicBool::new(true),
            last_error: Mutex::new(None),
        })
    }

    /// The most recent append/compaction failure message, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn record_outcome(&self, result: &Result<()>) {
        match result {
            Ok(()) => self.healthy.store(true, Ordering::Relaxed),
            Err(e) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.healthy.store(false, Ordering::Relaxed);
                *self.last_error.lock().unwrap_or_else(|e| e.into_inner()) = Some(e.to_string());
            }
        }
    }

    /// Compacts with the lock already held: atomically re-save the merged artifact, then
    /// reset the journal.  A crash after the save but before the reset only makes replay
    /// idempotently re-apply the compacted deltas.
    fn compact_locked(&self, inner: &mut JournalInner, snapshot: &TemplateSnapshot) -> Result<()> {
        let artifact = TemplateArtifact::new(
            snapshot.templates().to_vec(),
            self.max_line_span,
            crate::config::MatchingBackend::default(),
        )?;
        artifact.save(&self.artifact_path)?;
        crash_point("compact.after-save");
        inner.journal.reset()?;
        inner.since_compact = 0;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl SwapPersistence for JournalPersistence {
    fn persist_swap(&self, old: &TemplateSnapshot, new: &TemplateSnapshot) -> Result<()> {
        let known: HashSet<String> = old
            .templates()
            .iter()
            .map(StructureTemplate::canonical_string)
            .collect();
        let added: Vec<StructureTemplate> = new
            .templates()
            .iter()
            .filter(|t| !known.contains(&t.canonical_string()))
            .cloned()
            .collect();
        if added.is_empty() {
            return Ok(());
        }
        let delta = SwapDelta {
            version: new.version(),
            added,
        };
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        crash_point("swap.before-persist");
        let result = inner.journal.append(&delta);
        if result.is_ok() {
            crash_point("swap.after-persist");
            self.appended.fetch_add(1, Ordering::Relaxed);
            inner.since_compact += 1;
            if inner.since_compact >= self.config.compact_every {
                let compacted = self.compact_locked(&mut inner, new);
                self.record_outcome(&compacted);
                return compacted;
            }
        }
        self.record_outcome(&result);
        result
    }

    fn compact(&self, current: &TemplateSnapshot) -> Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.journal.entries() == 0 {
            return Ok(());
        }
        let result = self.compact_locked(&mut inner, current);
        self.record_outcome(&result);
        result
    }

    fn stats(&self) -> PersistenceStats {
        PersistenceStats {
            appended: self.appended.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            healthy: self.healthy.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchingBackend;
    use crate::structure::Node;

    fn template(key: &str) -> StructureTemplate {
        StructureTemplate::new(vec![
            Node::Literal(format!("{key}=")),
            Node::Field,
            Node::Literal("\n".into()),
        ])
    }

    fn artifact(keys: &[&str]) -> TemplateArtifact {
        TemplateArtifact::new(
            keys.iter().map(|k| template(k)).collect(),
            5,
            MatchingBackend::Fused,
        )
        .unwrap()
    }

    fn canon(snapshot: &TemplateSnapshot) -> Vec<String> {
        let mut v: Vec<String> = snapshot
            .templates()
            .iter()
            .map(StructureTemplate::canonical_string)
            .collect();
        v.sort();
        v
    }

    #[test]
    fn append_replay_round_trips_the_committed_swaps() {
        let media = MemJournalMedia::default();
        let mut journal = TemplateJournal::fresh(Box::new(media.clone())).unwrap();
        let deltas = vec![
            SwapDelta {
                version: 2,
                added: vec![template("a"), template("b")],
            },
            SwapDelta {
                version: 3,
                added: vec![template("c")],
            },
        ];
        for d in &deltas {
            journal.append(d).unwrap();
        }
        let replay = replay_journal(&media.bytes());
        assert_eq!(replay.deltas, deltas);
        assert!(replay.torn.is_none());
        assert_eq!(replay.valid_len, media.bytes().len());
    }

    #[test]
    fn truncation_at_any_offset_yields_a_prefix_and_never_an_error() {
        let media = MemJournalMedia::default();
        let mut journal = TemplateJournal::fresh(Box::new(media.clone())).unwrap();
        let deltas: Vec<SwapDelta> = (0..4)
            .map(|i| SwapDelta {
                version: 2 + i as u64,
                added: vec![template(&format!("k{i}"))],
            })
            .collect();
        for d in &deltas {
            journal.append(d).unwrap();
        }
        let bytes = media.bytes();
        for cut in 0..=bytes.len() {
            let replay = replay_journal(&bytes[..cut]);
            assert!(
                replay.deltas.len() <= deltas.len(),
                "phantom entries at cut {cut}"
            );
            assert_eq!(
                replay.deltas[..],
                deltas[..replay.deltas.len()],
                "not a prefix at cut {cut}"
            );
            assert!(replay.valid_len <= cut);
            if cut < bytes.len() {
                // Anything short of the full journal either ends cleanly on an entry
                // boundary (torn header of length zero is impossible: 12-byte header) or
                // reports the tear.
                assert!(
                    replay.torn.is_some() || replay.valid_len == cut,
                    "cut {cut} neither clean nor torn"
                );
            }
        }
    }

    #[test]
    fn flipped_byte_in_payload_stops_replay_at_that_entry() {
        let media = MemJournalMedia::default();
        let mut journal = TemplateJournal::fresh(Box::new(media.clone())).unwrap();
        for i in 0..3 {
            journal
                .append(&SwapDelta {
                    version: 2 + i,
                    added: vec![template(&format!("k{i}"))],
                })
                .unwrap();
        }
        let mut bytes = media.bytes();
        // Corrupt a byte inside the second entry's payload.
        let first_entry_end = {
            let replay = replay_journal(&bytes);
            assert_eq!(replay.deltas.len(), 3);
            let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
            8 + 12 + len
        };
        bytes[first_entry_end + 20] ^= 0x5a;
        let replay = replay_journal(&bytes);
        assert_eq!(replay.deltas.len(), 1, "replay must stop at the corruption");
        assert!(replay.torn.unwrap().reason.contains("checksum"));
    }

    #[test]
    fn recovered_snapshot_is_idempotent_over_compacted_deltas() {
        // The artifact already contains template "a" (compaction crash landed after the
        // artifact rename but before the journal reset) — the journaled delta re-adding
        // "a" must be a no-op while "b" still applies.
        let art = artifact(&["a"]);
        let deltas = vec![SwapDelta {
            version: 2,
            added: vec![template("a"), template("b")],
        }];
        let snapshot = recovered_snapshot(&art, &deltas).unwrap();
        assert_eq!(snapshot.templates().len(), 2);
        assert_eq!(snapshot.version(), 2);
        let again = recovered_snapshot(&art, &deltas).unwrap();
        assert_eq!(canon(&snapshot), canon(&again));
    }

    #[test]
    fn fs_recover_truncates_a_torn_tail_and_resumes_appending() {
        let dir = std::env::temp_dir().join(format!("dm-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("templates.journal");
        std::fs::remove_file(&path).ok();
        {
            let (mut journal, deltas, note) = TemplateJournal::recover(&path).unwrap();
            assert!(deltas.is_empty());
            assert!(note.is_none());
            journal
                .append(&SwapDelta {
                    version: 2,
                    added: vec![template("a")],
                })
                .unwrap();
            journal
                .append(&SwapDelta {
                    version: 3,
                    added: vec![template("b")],
                })
                .unwrap();
        }
        // Tear the tail: chop 5 bytes off the last entry.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut journal, deltas, note) = TemplateJournal::recover(&path).unwrap();
        assert_eq!(deltas.len(), 1, "only the intact entry survives");
        assert_eq!(
            deltas[0].added[0].canonical_string(),
            template("a").canonical_string()
        );
        assert!(note.unwrap().contains("torn"));
        // The torn bytes were truncated: a new append lands on a clean boundary.
        journal
            .append(&SwapDelta {
                version: 3,
                added: vec![template("c")],
            })
            .unwrap();
        let replay = replay_journal(&std::fs::read(&path).unwrap());
        assert_eq!(replay.deltas.len(), 2);
        assert!(replay.torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_journal_is_rotated_aside_not_trusted() {
        let dir = std::env::temp_dir().join(format!("dm-journal-foreign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("templates.journal");
        std::fs::write(&path, b"this is not a journal at all").unwrap();
        let (journal, deltas, note) = TemplateJournal::recover(&path).unwrap();
        assert_eq!(journal.entries(), 0);
        assert!(deltas.is_empty());
        assert!(note.unwrap().contains("rotated"));
        assert!(path.with_extension("journal.corrupt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistence_compacts_after_the_configured_swap_count() {
        let dir = std::env::temp_dir().join(format!("dm-journal-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact_path = dir.join("templates.json");
        let art = artifact(&["a"]);
        art.save(&artifact_path).unwrap();
        let journal_path = dir.join("templates.journal");
        let (persistence, deltas, _) = JournalPersistence::open(
            &art,
            &artifact_path,
            &journal_path,
            JournalConfig { compact_every: 2 },
        )
        .unwrap();
        assert!(deltas.is_empty());
        let base = recovered_snapshot(&art, &[]).unwrap();
        let with_b = TemplateSnapshot::from_templates(
            2,
            vec![template("a"), template("b")],
            art.max_line_span,
        )
        .unwrap();
        persistence.persist_swap(&base, &with_b).unwrap();
        assert_eq!(persistence.stats().appended, 1);
        assert_eq!(persistence.stats().compactions, 0);
        let with_c = TemplateSnapshot::from_templates(
            3,
            vec![template("a"), template("b"), template("c")],
            art.max_line_span,
        )
        .unwrap();
        persistence.persist_swap(&with_b, &with_c).unwrap();
        // Second swap hit compact_every: the artifact now holds all three templates and
        // the journal is empty again.
        assert_eq!(persistence.stats().compactions, 1);
        let reloaded = TemplateArtifact::load(&artifact_path).unwrap();
        assert_eq!(reloaded.templates.len(), 3);
        let replay = replay_journal(&std::fs::read(&journal_path).unwrap());
        assert!(replay.deltas.is_empty());
        assert!(replay.torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_failure_degrades_health_and_recovers_on_success() {
        struct FlakyMedia {
            inner: MemJournalMedia,
            appends: usize,
            fail_at: usize,
        }
        impl JournalMedia for FlakyMedia {
            fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
                self.appends += 1;
                if self.appends == self.fail_at {
                    return Err(io::Error::other("no space left (injected)"));
                }
                self.inner.append(bytes)
            }
            fn sync(&mut self) -> io::Result<()> {
                self.inner.sync()
            }
            fn truncate(&mut self, len: u64) -> io::Result<()> {
                self.inner.truncate(len)
            }
            fn len(&mut self) -> io::Result<u64> {
                self.inner.len()
            }
        }
        let dir = std::env::temp_dir().join(format!("dm-journal-flaky-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let art = artifact(&["a"]);
        // Append 1 is the magic written by `fresh`; append 2 — the first swap — fails.
        let media = FlakyMedia {
            inner: MemJournalMedia::default(),
            appends: 0,
            fail_at: 2,
        };
        let persistence = JournalPersistence::with_media(
            &art,
            &dir.join("templates.json"),
            Box::new(media),
            JournalConfig { compact_every: 100 },
        )
        .unwrap();
        let base = recovered_snapshot(&art, &[]).unwrap();
        let next = TemplateSnapshot::from_templates(
            2,
            vec![template("a"), template("b")],
            art.max_line_span,
        )
        .unwrap();
        let err = persistence.persist_swap(&base, &next).unwrap_err();
        assert!(matches!(err, Error::Journal(_)), "{err:?}");
        assert!(!persistence.stats().healthy);
        assert_eq!(persistence.stats().failures, 1);
        assert!(persistence.last_error().unwrap().contains("no space"));
        // The flaky medium recovered: the next swap appends and health flips back.
        persistence.persist_swap(&base, &next).unwrap();
        assert!(persistence.stats().healthy);
        assert_eq!(persistence.stats().appended, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
