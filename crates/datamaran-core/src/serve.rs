//! The serving core of a resident ingest daemon: discover once, match forever, and
//! hot-swap the template set when the stream drifts.
//!
//! Batch extraction ([`crate::streaming`]) reads a stream it owns from start to end.  A
//! *service* is push-based and long-lived: lines arrive over sockets for days, the
//! template set must be shared by many connections, and the data eventually drifts away
//! from the templates that were discovered at deploy time.  This module supplies the three
//! pieces that turn the batch engine into that service:
//!
//! * [`TemplateSnapshot`] — an immutable, compiled template set (the PR 8 fused
//!   [`SpanLineMatcher`] plus its source templates) behind an `Arc`.  Matching takes
//!   `&self`; per-session [`SpanScratch`](crate::extract::SpanScratch) arenas carry all
//!   mutable state, so one snapshot serves any number of threads.
//! * [`SnapshotStore`] — the atomically swappable current snapshot.  Readers clone the
//!   `Arc` out of a read lock (held for nanoseconds — never across a match), writers
//!   install a new snapshot with [`swap`](SnapshotStore::swap), and a session's
//!   rediscovery merges its templates onto the current set, one publication at a time and
//!   in version order.  Sessions already holding the old `Arc` finish their window on it and
//!   pick up the new one at the next window boundary: no torn reads, no blocking of the
//!   hot path.
//! * [`ServeSession`] — the per-connection processor: buffers pushed lines, decides them
//!   window by window with the streaming engine's window loop (the safe-limit carry-over
//!   rule, record emission and per-window counters live there once), tracks the
//!   per-window unmatched rate ([`WindowUnmatched`](crate::streaming::WindowUnmatched)),
//!   accumulates unmatched lines in a bounded **residual buffer**, and — when the rate
//!   degrades past the configured threshold — re-runs discovery on that residual and
//!   publishes the merged template set as a new snapshot (*online inference*).
//!
//! The lifecycle hand-off in and out of this module is the [`TemplateArtifact`]: `discover
//! --save-templates` writes one, [`snapshot_from_artifact`] turns it into the initial
//! snapshot, and the serve path never runs discovery on the hot path again unless drift
//! forces it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::artifact::TemplateArtifact;
use crate::error::{Error, Result};
use crate::export::{stream_report, RecordSink};
use crate::extract::SpanLineMatcher;
use crate::json::JsonValue;
use crate::pipeline::Datamaran;
use crate::streaming::{StreamSummary, WindowLoop};
use crate::structure::StructureTemplate;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Tuning of the online-inference loop.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Lines buffered per decision window: larger windows amortize matching, smaller ones
    /// give a finer-grained drift signal.
    pub window_lines: usize,
    /// Unmatched-rate threshold (fraction in `(0, 1]`): a window whose rate reaches this
    /// triggers a rediscovery attempt on the residual buffer.
    pub drift_threshold: f64,
    /// Minimum residual lines before a rediscovery attempt — discovery on a handful of
    /// lines produces junk templates.
    pub min_residual_lines: usize,
    /// Byte cap of the residual buffer; when full, the oldest residual lines are dropped.
    /// It also bounds a window: one is decided once the bytes pushed since the last
    /// decision reach both it and the bytes carried over undecided, however few lines that
    /// is.
    pub residual_bytes: usize,
    /// Whether drift triggers rediscovery at all (`false` = monitor-only: the rate is
    /// still tracked, the snapshot never changes).
    pub rediscover: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            window_lines: 256,
            drift_threshold: 0.5,
            min_residual_lines: 64,
            residual_bytes: 1024 * 1024,
            rediscover: true,
        }
    }
}

impl ServeOptions {
    /// Validates the tuning, returning [`Error::InvalidConfig`] for out-of-range values.
    pub fn validate(&self) -> Result<()> {
        if self.window_lines == 0 {
            return Err(Error::InvalidConfig("window_lines must be >= 1".into()));
        }
        if !(self.drift_threshold > 0.0 && self.drift_threshold <= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "drift_threshold must be in (0, 1], got {}",
                self.drift_threshold
            )));
        }
        if self.min_residual_lines == 0 {
            return Err(Error::InvalidConfig(
                "min_residual_lines must be >= 1".into(),
            ));
        }
        if self.residual_bytes == 0 {
            return Err(Error::InvalidConfig("residual_bytes must be >= 1".into()));
        }
        Ok(())
    }

    /// Builder-style setter for the window size in lines.
    pub fn with_window_lines(mut self, lines: usize) -> Self {
        self.window_lines = lines;
        self
    }

    /// Builder-style setter for the drift threshold.
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = threshold;
        self
    }

    /// Builder-style setter for the minimum residual size.
    pub fn with_min_residual_lines(mut self, lines: usize) -> Self {
        self.min_residual_lines = lines;
        self
    }

    /// Builder-style setter for the rediscovery toggle.
    pub fn with_rediscover(mut self, on: bool) -> Self {
        self.rediscover = on;
        self
    }
}

/// One immutable, compiled template set.  Matching is `&self` (all mutable state lives in
/// the caller's [`SpanScratch`](crate::extract::SpanScratch)), so a snapshot behind an
/// `Arc` serves any number of sessions and threads simultaneously.
pub struct TemplateSnapshot {
    version: u64,
    templates: Vec<StructureTemplate>,
    matcher: SpanLineMatcher,
    max_line_span: usize,
}

impl TemplateSnapshot {
    /// Compiles a snapshot from templates under the engine's `max_line_span` bound.
    /// Empty sets are rejected.
    pub fn compile(
        version: u64,
        templates: Vec<StructureTemplate>,
        engine: &Datamaran,
    ) -> Result<Self> {
        Self::from_templates(version, templates, engine.config().max_line_span)
    }

    /// The snapshot's monotonically increasing version (1 = the initial snapshot).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The source templates, in match-priority order.
    pub fn templates(&self) -> &[StructureTemplate] {
        &self.templates
    }

    /// The compiled matcher.
    pub fn matcher(&self) -> &SpanLineMatcher {
        &self.matcher
    }

    /// The record-span bound the matcher was compiled under.
    pub fn max_line_span(&self) -> usize {
        self.max_line_span
    }

    /// Compiles a snapshot directly from templates and a record-span bound — the restart
    /// path ([`crate::journal::recovered_snapshot`]) and hot swaps, which keep the bound of
    /// the snapshot they replace.  Empty sets are rejected.
    pub fn from_templates(
        version: u64,
        templates: Vec<StructureTemplate>,
        max_line_span: usize,
    ) -> Result<Self> {
        if templates.is_empty() {
            return Err(Error::NoStructureFound);
        }
        let matcher = SpanLineMatcher::new(&templates, max_line_span);
        Ok(TemplateSnapshot {
            version,
            templates,
            matcher,
            max_line_span,
        })
    }
}

/// Counters a [`SwapPersistence`] layer exposes for metrics and readiness probes.
#[derive(Clone, Copy, Debug)]
pub struct PersistenceStats {
    /// Swap deltas durably appended to the journal.
    pub appended: u64,
    /// Compactions performed (journal folded into the artifact and reset).
    pub compactions: u64,
    /// Persist or compaction attempts that failed (the daemon degrades, it does not die).
    pub failures: u64,
    /// Whether the most recent persistence operation succeeded — the readiness signal.
    pub healthy: bool,
}

/// Durability hook a [`SnapshotStore`] invokes around hot swaps.
///
/// The store calls [`persist_swap`](Self::persist_swap) **before** publishing the new
/// snapshot (write-ahead semantics: the delta is durable before any session can observe
/// the swap).  A persistence failure never blocks serving — the store records it, the
/// swap still publishes in memory, and readiness degrades until the layer recovers.
/// The filesystem implementation is [`crate::journal::JournalPersistence`].
pub trait SwapPersistence: Send + Sync {
    /// Makes the `old` → `new` template delta durable.  Called with write-ahead ordering;
    /// must be idempotent under replay (restart folds deltas with canonical-string dedup).
    fn persist_swap(&self, old: &TemplateSnapshot, new: &TemplateSnapshot) -> Result<()>;
    /// Folds everything journaled so far into the primary artifact (clean-shutdown path).
    fn compact(&self, current: &TemplateSnapshot) -> Result<()>;
    /// Point-in-time counters.
    fn stats(&self) -> PersistenceStats;
}

/// Builds the initial snapshot (version 1) from a saved [`TemplateArtifact`] — the
/// `datamaran discover --save-templates` → `datamaran-serve --templates` hand-off.  The
/// matcher is recompiled with the artifact's own `max_line_span`, so serving behaves
/// byte-identically to the discovering engine.
pub fn snapshot_from_artifact(artifact: &TemplateArtifact) -> TemplateSnapshot {
    TemplateSnapshot {
        version: 1,
        templates: artifact.templates.clone(),
        matcher: artifact.matcher(),
        max_line_span: artifact.max_line_span,
    }
}

/// The atomically swappable current snapshot shared by every session of a daemon.
///
/// Readers take the read lock only long enough to clone the `Arc`; the write lock is held
/// only for the pointer swap.  Neither is ever held across matching or discovery, so
/// readers never block meaningfully and a swap is a single atomic publication point.
/// Publications take a separate lock from reading the current set to installing its
/// successor, so they apply one at a time, each on top of the one before, with
/// increasing versions.
pub struct SnapshotStore {
    inner: RwLock<Arc<TemplateSnapshot>>,
    publish: Mutex<()>,
    next_version: AtomicU64,
    persistence: Option<Arc<dyn SwapPersistence>>,
    persist_failures: AtomicU64,
    last_persist_error: Mutex<Option<String>>,
}

impl SnapshotStore {
    /// Creates a store serving `initial` with no durability layer (swaps live in memory
    /// only — a restart falls back to the saved artifact).
    pub fn new(initial: TemplateSnapshot) -> Self {
        let next = initial.version + 1;
        SnapshotStore {
            inner: RwLock::new(Arc::new(initial)),
            publish: Mutex::new(()),
            next_version: AtomicU64::new(next),
            persistence: None,
            persist_failures: AtomicU64::new(0),
            last_persist_error: Mutex::new(None),
        }
    }

    /// Creates a store whose swaps are made durable through `persistence` **before** they
    /// publish (write-ahead: no session can observe a swap whose delta is not on disk).
    pub fn with_persistence(
        initial: TemplateSnapshot,
        persistence: Arc<dyn SwapPersistence>,
    ) -> Self {
        let mut store = SnapshotStore::new(initial);
        store.persistence = Some(persistence);
        store
    }

    /// The current snapshot (cheap: one `Arc` clone under a read lock).
    pub fn current(&self) -> Arc<TemplateSnapshot> {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The current snapshot's version.
    pub fn version(&self) -> u64 {
        self.current().version
    }

    /// Claims the next snapshot version (unique across concurrent swappers).
    pub fn claim_version(&self) -> u64 {
        self.next_version.fetch_add(1, Ordering::Relaxed)
    }

    /// Atomically installs `next` as the current snapshot, returning the one it replaced.
    /// Sessions already holding the old `Arc` finish their window on it; they pick up
    /// `next` at their next window boundary.  A `next` whose version is not above the
    /// current one is refused with [`Error::InvalidConfig`], so versions only increase.
    ///
    /// With a persistence layer attached, the swap's template delta is journaled (and
    /// `fsync`'d) **first**; only then does the snapshot publish.  A persistence failure
    /// is recorded and degrades readiness but never blocks the swap — serving correctness
    /// beats durability of a delta that replay would reconstruct from the residual anyway.
    pub fn swap(&self, next: Arc<TemplateSnapshot>) -> Result<Arc<TemplateSnapshot>> {
        let _publishing = self.publish.lock().unwrap_or_else(|e| e.into_inner());
        self.publish_locked(next)
    }

    /// Merges `found` onto the **current** template set and publishes the result as the
    /// next version, compiled under the current snapshot's `max_line_span`; templates
    /// already in the set (by canonical string) are left out.  The publish lock is held
    /// from reading the current set to publishing, so a concurrent rediscovery is never
    /// overwritten and the journal's additions replay to the set being served.  Returns
    /// whether it published: `false` when nothing in `found` is new.
    pub(crate) fn publish_merged(&self, found: Vec<StructureTemplate>) -> Result<bool> {
        let _publishing = self.publish.lock().unwrap_or_else(|e| e.into_inner());
        let current = self.current();
        let known: HashSet<String> = current
            .templates()
            .iter()
            .map(StructureTemplate::canonical_string)
            .collect();
        let fresh: Vec<StructureTemplate> = found
            .into_iter()
            .filter(|t| !known.contains(&t.canonical_string()))
            .collect();
        if fresh.is_empty() {
            return Ok(false);
        }
        let mut merged = current.templates().to_vec();
        merged.extend(fresh);
        let next = TemplateSnapshot::from_templates(
            self.claim_version(),
            merged,
            current.max_line_span(),
        )?;
        self.publish_locked(Arc::new(next))?;
        Ok(true)
    }

    /// The body of [`swap`](Self::swap); the caller holds the publish lock.
    fn publish_locked(&self, next: Arc<TemplateSnapshot>) -> Result<Arc<TemplateSnapshot>> {
        let old = self.current();
        if next.version() <= old.version() {
            return Err(Error::InvalidConfig(format!(
                "snapshot version {} is not above the current version {}",
                next.version(),
                old.version()
            )));
        }
        if let Some(persistence) = &self.persistence {
            if let Err(e) = persistence.persist_swap(&old, &next) {
                self.persist_failures.fetch_add(1, Ordering::Relaxed);
                *self
                    .last_persist_error
                    .lock()
                    .unwrap_or_else(|e| e.into_inner()) = Some(e.to_string());
            }
        }
        let mut slot = self.inner.write().unwrap_or_else(|e| e.into_inner());
        Ok(std::mem::replace(&mut *slot, next))
    }

    /// Folds all journaled swaps into the primary artifact (clean-shutdown compaction).
    /// A no-op without a persistence layer.
    pub fn compact(&self) -> Result<()> {
        match &self.persistence {
            Some(persistence) => {
                let current = self.current();
                let result = persistence.compact(&current);
                if let Err(e) = &result {
                    self.persist_failures.fetch_add(1, Ordering::Relaxed);
                    *self
                        .last_persist_error
                        .lock()
                        .unwrap_or_else(|e| e.into_inner()) = Some(e.to_string());
                }
                result
            }
            None => Ok(()),
        }
    }

    /// `true` when the durability layer is absent or its last operation succeeded —
    /// the `/readyz` journal-writable signal.
    pub fn persistence_healthy(&self) -> bool {
        self.persistence.as_ref().is_none_or(|p| p.stats().healthy)
    }

    /// The durability layer's counters, when one is attached.
    pub fn persistence_stats(&self) -> Option<PersistenceStats> {
        self.persistence.as_ref().map(|p| p.stats())
    }

    /// Swaps whose persist call failed (the swap still published in memory).
    pub fn persist_failures(&self) -> u64 {
        self.persist_failures.load(Ordering::Relaxed)
    }

    /// The most recent persistence failure message, if any.
    pub fn last_persist_error(&self) -> Option<String> {
        self.last_persist_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// A point-in-time view of a session's serving counters (everything the `/metrics`
/// endpoint and the end-of-connection report expose).
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// The streaming counters, recent-window histories included — the same shape as a
    /// batch [`StreamSummary`], so [`stream_report`] serializes both.
    pub summary: StreamSummary,
    /// Version of the snapshot the session is currently matching with.
    pub snapshot_version: u64,
    /// Hot swaps this session performed (drift-triggered rediscoveries that published).
    pub swaps: u64,
    /// Rediscovery attempts that found no new structure (the residual keeps accumulating).
    pub rediscover_failures: u64,
    /// Lines currently in the residual buffer.
    pub residual_lines: usize,
    /// Bytes currently in the residual buffer.
    pub residual_bytes: usize,
    /// Residual lines dropped because the buffer was full.
    pub residual_dropped: usize,
}

impl ServeMetrics {
    /// Renders the metrics as one JSON document: a `stream` section written by
    /// [`stream_report`], the streaming CLI's JSON report, plus a `serve` section with the
    /// snapshot/drift counters.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// The metrics document as a [`JsonValue`], for callers that append their own
    /// sections (the daemon adds a `journal` section when a durability layer is attached).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("stream".into(), stream_report(&self.summary)),
            (
                "serve".into(),
                JsonValue::Object(vec![
                    (
                        "snapshot_version".into(),
                        JsonValue::Number(self.snapshot_version as f64),
                    ),
                    ("swaps".into(), JsonValue::Number(self.swaps as f64)),
                    (
                        "rediscover_failures".into(),
                        JsonValue::Number(self.rediscover_failures as f64),
                    ),
                    (
                        "residual_lines".into(),
                        JsonValue::Number(self.residual_lines as f64),
                    ),
                    (
                        "residual_bytes".into(),
                        JsonValue::Number(self.residual_bytes as f64),
                    ),
                    (
                        "residual_dropped".into(),
                        JsonValue::Number(self.residual_dropped as f64),
                    ),
                ]),
            ),
        ])
    }
}

/// Folds one session's finished counters into a daemon-wide aggregate (used by the
/// daemon's `/metrics` endpoint across connections).  Scalar counters and matcher totals
/// add, the recent-window histories keep the newest windows of both, the peak takes the
/// max, and the aggregate adopts the newer template set.
pub fn merge_summaries(total: &mut StreamSummary, part: &StreamSummary) {
    total.records += part.records;
    total.noise_lines += part.noise_lines;
    total.bytes_processed += part.bytes_processed;
    total.lines_processed += part.lines_processed;
    total.windows += part.windows;
    total.peak_window_bytes = total.peak_window_bytes.max(part.peak_window_bytes);
    total.sink_seconds += part.sink_seconds;
    total.match_seconds += part.match_seconds;
    total.quarantined_lines += part.quarantined_lines;
    total.quarantined_bytes += part.quarantined_bytes;
    total.invalid_utf8_lines += part.invalid_utf8_lines;
    total.oversized_lines += part.oversized_lines;
    total.append_windows(part);
    if !part.templates.is_empty() {
        total.templates = part.templates.clone();
    }
    if part.stopped_reason.is_some() {
        total.stopped_reason = part.stopped_reason;
    }
}

/// The per-connection serving processor: push lines in, records come out of the sink,
/// drift comes out as hot swaps.
///
/// The session holds its own `Arc` of the current snapshot and refreshes it from the
/// [`SnapshotStore`] at window boundaries — a swap published by any session (or an
/// external writer) propagates to every session without interrupting in-flight windows.
/// On every snapshot change the sink's [`begin`](RecordSink::begin) is re-invoked with the
/// new template set (serving sinks must tolerate re-begin; the JSON Lines sink does, the
/// CSV sink — whose column set is fixed at begin — does not and is not a serving sink).
pub struct ServeSession<'a> {
    engine: &'a Datamaran,
    store: &'a SnapshotStore,
    options: ServeOptions,
    snapshot: Arc<TemplateSnapshot>,
    window_loop: WindowLoop,
    /// Undecided window text (every line newline-terminated).
    buffer: String,
    pending_lines: usize,
    /// Bytes at the front of `buffer` carried over undecided from the last window.
    carried_bytes: usize,
    residual: Residual,
    summary: StreamSummary,
    swaps: u64,
    rediscover_failures: u64,
    begun_version: Option<u64>,
}

/// Unmatched lines accumulated for rediscovery: newline-terminated text capped at `cap`
/// bytes, oldest lines evicted first.  The kept lines are `text[head..]`: an eviction only
/// advances `head`, and the evicted prefix is compacted away once it outgrows the kept
/// text, so a line costs amortized time in its own length, not in the buffer's.
#[derive(Default)]
struct Residual {
    text: String,
    head: usize,
    lines: usize,
    dropped: usize,
    cap: usize,
}

impl Residual {
    /// The kept lines, oldest first.
    fn text(&self) -> &str {
        &self.text[self.head..]
    }

    /// Appends one unmatched line, dropping the oldest lines when the byte cap would be
    /// exceeded (a line larger than the whole cap is dropped outright).
    fn push(&mut self, line_text: &str) {
        if line_text.len() > self.cap {
            self.dropped += 1;
            return;
        }
        while self.text().len() + line_text.len() > self.cap && !self.text().is_empty() {
            let kept = self.text();
            self.head += kept.find('\n').map_or(kept.len(), |i| i + 1);
            self.lines = self.lines.saturating_sub(1);
            self.dropped += 1;
        }
        if self.head > self.text().len() {
            self.text.drain(..self.head);
            self.head = 0;
        }
        self.text.push_str(line_text);
        if !line_text.ends_with('\n') {
            self.text.push('\n');
        }
        self.lines += 1;
    }

    /// Empties the buffer (after a successful swap); the drop count stays.
    fn clear(&mut self) {
        self.text.clear();
        self.head = 0;
        self.lines = 0;
    }
}

impl<'a> ServeSession<'a> {
    /// Starts a session against `store`, using `engine` for drift-triggered rediscovery.
    pub fn new(
        engine: &'a Datamaran,
        store: &'a SnapshotStore,
        options: ServeOptions,
    ) -> Result<Self> {
        options.validate()?;
        let snapshot = store.current();
        let mut summary = StreamSummary::default();
        summary.templates = snapshot.templates().to_vec();
        Ok(ServeSession {
            engine,
            store,
            options,
            snapshot,
            window_loop: WindowLoop::default(),
            buffer: String::new(),
            pending_lines: 0,
            carried_bytes: 0,
            residual: Residual {
                cap: options.residual_bytes,
                ..Residual::default()
            },
            summary,
            swaps: 0,
            rediscover_failures: 0,
            begun_version: None,
        })
    }

    /// Pushes one line (with or without its terminator) into the session, processing a
    /// window when `window_lines` lines are buffered or the bytes pushed since the last
    /// window reach both `residual_bytes` and the carried bytes (so long lines can neither
    /// pile up `window_lines` deep nor make every line rescan the carried tail).
    pub fn push_line<S: RecordSink + ?Sized>(&mut self, line: &str, sink: &mut S) -> Result<()> {
        self.buffer.push_str(line);
        if !line.ends_with('\n') {
            self.buffer.push('\n');
        }
        self.pending_lines += 1;
        let pushed = self.buffer.len() - self.carried_bytes;
        if self.pending_lines >= self.options.window_lines
            || pushed >= self.options.residual_bytes.max(self.carried_bytes)
        {
            self.process_window(sink, false)?;
        }
        Ok(())
    }

    /// Decides everything currently buffered (end-of-input semantics for the carry-over
    /// tail).  Call between bursts or before reading [`metrics`](Self::metrics) at a
    /// quiescent point; [`finish`](Self::finish) calls it implicitly.
    pub fn flush<S: RecordSink + ?Sized>(&mut self, sink: &mut S) -> Result<()> {
        while !self.buffer.is_empty() {
            self.process_window(sink, true)?;
        }
        Ok(())
    }

    /// Flushes the session and finishes the sink, returning the final metrics.
    pub fn finish<S: RecordSink + ?Sized>(mut self, sink: &mut S) -> Result<ServeMetrics> {
        self.flush(sink)?;
        self.ensure_begun(sink)?;
        sink.finish()?;
        Ok(self.metrics())
    }

    /// A point-in-time copy of the session's counters.
    pub fn metrics(&self) -> ServeMetrics {
        ServeMetrics {
            summary: self.summary.clone(),
            snapshot_version: self.snapshot.version(),
            swaps: self.swaps,
            rediscover_failures: self.rediscover_failures,
            residual_lines: self.residual.lines,
            residual_bytes: self.residual.text().len(),
            residual_dropped: self.residual.dropped,
        }
    }

    /// The version of the snapshot the session is currently matching with.
    pub fn snapshot_version(&self) -> u64 {
        self.snapshot.version()
    }

    /// Adopts the store's current snapshot if it is newer, re-beginning the sink with the
    /// new template set.
    fn refresh_snapshot<S: RecordSink + ?Sized>(&mut self, sink: &mut S) -> Result<()> {
        let current = self.store.current();
        if current.version() != self.snapshot.version() {
            self.snapshot = current;
            self.summary.templates = self.snapshot.templates().to_vec();
            sink.begin(self.snapshot.templates())?;
            self.begun_version = Some(self.snapshot.version());
        }
        Ok(())
    }

    /// Invokes the sink's `begin` for the current snapshot if it has not seen it yet.
    fn ensure_begun<S: RecordSink + ?Sized>(&mut self, sink: &mut S) -> Result<()> {
        if self.begun_version != Some(self.snapshot.version()) {
            sink.begin(self.snapshot.templates())?;
            self.begun_version = Some(self.snapshot.version());
        }
        Ok(())
    }

    /// Decides one window of buffered lines with the streaming window loop, matching
    /// against the current snapshot and keeping unmatched lines in the residual buffer,
    /// then — when the drift trigger fires — rediscovers and hot-swaps.
    fn process_window<S: RecordSink + ?Sized>(&mut self, sink: &mut S, eof: bool) -> Result<()> {
        self.refresh_snapshot(sink)?;
        self.ensure_begun(sink)?;
        let matcher = self.snapshot.matcher();
        let residual = &mut self.residual;
        let (window, carried) = self.window_loop.decide(
            &mut self.buffer,
            eof,
            self.snapshot.max_line_span(),
            &mut self.summary,
            sink,
            |dataset, line, bufs| {
                matcher
                    .match_line_into(
                        dataset,
                        line,
                        &mut bufs.cells,
                        &mut bufs.reps,
                        &mut bufs.scratch,
                    )
                    .map(Into::into)
            },
            |_, text, _| {
                residual.push(text);
                Ok(())
            },
        )?;
        self.pending_lines = carried;
        self.carried_bytes = self.buffer.len();

        // The drift trigger: this window's unmatched rate reached the threshold and the
        // residual is large enough for discovery to be meaningful.
        if self.options.rediscover
            && window.lines > 0
            && window.unmatched_rate() >= self.options.drift_threshold
            && self.residual.lines >= self.options.min_residual_lines
        {
            self.try_rediscover(sink)?;
        }
        Ok(())
    }

    /// Runs discovery on the residual buffer; on success, publishes through
    /// [`SnapshotStore::publish_merged`] a new snapshot whose template set is the store's
    /// current set **plus** the newly discovered templates (the old format may still be
    /// interleaved with the new one), and clears the residual.  The successor keeps the
    /// current snapshot's `max_line_span`, so a swap never changes how records are matched
    /// — only which templates match.  A failed attempt (no structure in the residual, or
    /// nothing the current set lacks) leaves the snapshot and residual untouched and is
    /// counted.
    fn try_rediscover<S: RecordSink + ?Sized>(&mut self, sink: &mut S) -> Result<()> {
        let found = match self.engine.extract(self.residual.text()) {
            Ok(result) => result.templates().into_iter().cloned().collect(),
            Err(Error::NoStructureFound) | Err(Error::EmptyDataset) => {
                self.rediscover_failures += 1;
                return Ok(());
            }
            Err(other) => return Err(other),
        };
        if !self.store.publish_merged(found)? {
            self.rediscover_failures += 1;
            return Ok(());
        }
        self.swaps += 1;
        self.residual.clear();
        // Adopt the published snapshot immediately: the very next window should already
        // match the drifted lines.
        self.refresh_snapshot(sink)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{CountingSink, JsonLinesSink};
    use crate::extract::MatchStats;
    use crate::streaming::WindowUnmatched;
    use crate::structure::Node;

    fn kv_lines(prefix: &str, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("{prefix}=h{};cpu={}\n", i % 9, i % 100))
            .collect()
    }

    fn engine() -> Datamaran {
        Datamaran::with_defaults()
    }

    fn snapshot_for(engine: &Datamaran, text: &str) -> TemplateSnapshot {
        let result = engine.extract(text).unwrap();
        let templates: Vec<StructureTemplate> = result.templates().into_iter().cloned().collect();
        TemplateSnapshot::compile(1, templates, engine).unwrap()
    }

    #[test]
    fn session_matches_a_steady_stream_with_zero_discovery() {
        let engine = engine();
        let lines = kv_lines("host", 400);
        let text = lines.concat();
        // Batch extraction is the ground truth the serving path must reproduce.
        let batch = engine.extract(&text).unwrap();
        let batch_records: usize = batch.structures.iter().map(|s| s.records.len()).sum();
        let batch_noise = batch.noise_lines.len();
        let snapshot = snapshot_for(&engine, &text);
        let store = SnapshotStore::new(snapshot);
        let mut session = ServeSession::new(
            &engine,
            &store,
            ServeOptions::default().with_window_lines(64),
        )
        .unwrap();
        let mut sink = CountingSink::default();
        for line in &lines {
            session.push_line(line, &mut sink).unwrap();
        }
        let metrics = session.finish(&mut sink).unwrap();
        assert_eq!(metrics.summary.records, batch_records);
        assert_eq!(metrics.summary.noise_lines, batch_noise);
        assert_eq!(metrics.summary.lines_processed, 400);
        assert_eq!(metrics.swaps, 0);
        assert_eq!(metrics.snapshot_version, 1);
        assert_eq!(sink.records, batch_records);
        assert!(metrics.summary.windows > 1);
    }

    #[test]
    fn drift_triggers_rediscovery_and_recovers_the_unmatched_rate() {
        let engine = engine();
        let format_a = kv_lines("host", 300);
        let snapshot = snapshot_for(&engine, &format_a.concat());
        let store = SnapshotStore::new(snapshot);
        let options = ServeOptions::default()
            .with_window_lines(64)
            .with_drift_threshold(0.5)
            .with_min_residual_lines(64);
        let mut session = ServeSession::new(&engine, &store, options).unwrap();
        let mut sink = CountingSink::default();
        for line in &format_a {
            session.push_line(line, &mut sink).unwrap();
        }
        // Inject drift: a structurally different format the snapshot cannot match.
        let format_b: Vec<String> = (0..300)
            .map(|i| format!("{} | svc{} | {} | OK\n", 1700000000 + i, i % 5, i * 3))
            .collect();
        for line in &format_b {
            session.push_line(line, &mut sink).unwrap();
        }
        let metrics = session.finish(&mut sink).unwrap();
        assert!(metrics.swaps >= 1, "drift must publish a new snapshot");
        assert!(metrics.snapshot_version > 1);
        assert_eq!(store.version(), metrics.snapshot_version);
        // After the swap, format-B windows match again: the last window's unmatched rate
        // must have recovered below the threshold.
        let last = metrics.summary.window_unmatched.back().unwrap();
        assert!(
            last.unmatched_rate() < 0.5,
            "unmatched rate did not recover: {last:?}"
        );
        // The merged set still contains the original templates.
        let current = store.current();
        assert!(current.templates().len() > 1);
    }

    /// A hot swap recompiles under the replaced snapshot's `max_line_span`, the bound
    /// startup, compaction and restart take from the artifact — not under the rediscovery
    /// engine's, which may differ.
    #[test]
    fn hot_swap_keeps_the_snapshot_span_bound() {
        let engine = engine(); // builder defaults: L = 10
        let format_a = kv_lines("host", 300);
        let templates = engine
            .extract(&format_a.concat())
            .unwrap()
            .templates()
            .into_iter()
            .cloned()
            .collect();
        let snapshot = TemplateSnapshot::from_templates(1, templates, 3).unwrap();
        let store = SnapshotStore::new(snapshot);
        let options = ServeOptions::default().with_window_lines(64);
        let mut session = ServeSession::new(&engine, &store, options).unwrap();
        let mut sink = CountingSink::default();
        for i in 0..300 {
            let line = format!("{} | svc{} | {} | OK\n", 1700000000 + i, i % 5, i * 3);
            session.push_line(&line, &mut sink).unwrap();
        }
        let metrics = session.finish(&mut sink).unwrap();
        assert_eq!(metrics.swaps, 1, "the drift must publish one successor");
        let current = store.current();
        assert_eq!(current.version(), metrics.snapshot_version);
        assert_eq!(current.max_line_span(), 3);
    }

    /// A sink that, at its first record, pushes `lines` into another session of the same
    /// store: that session's rediscovery publishes while this one decides its window.
    struct PushIntoOther<'s, 'a> {
        other: Option<(&'s mut ServeSession<'a>, Vec<String>)>,
    }

    impl RecordSink for PushIntoOther<'_, '_> {
        fn begin(&mut self, _: &[StructureTemplate]) -> Result<()> {
            Ok(())
        }

        fn record(&mut self, _: &crate::streaming::StreamRecord<'_>) -> Result<()> {
            if let Some((session, lines)) = self.other.take() {
                for line in &lines {
                    session.push_line(line, &mut CountingSink::default())?;
                }
            }
            Ok(())
        }

        fn finish(&mut self) -> Result<()> {
            Ok(())
        }
    }

    /// Sessions A and B share a store serving `F=F;F=F\n` (v1).  A's rediscovery
    /// publishes v2 between B's snapshot refresh and B's own rediscovery in the same
    /// window; B's v3 must be built on v2, so every format's lines still match afterwards.
    #[test]
    fn concurrent_rediscoveries_keep_each_others_templates() {
        // Hash-mixed values, so one line is one record.
        let mix = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let lines = |n: usize, line: &dyn Fn(usize, u64) -> String| -> Vec<String> {
            (0..n).map(|i| line(i, mix(i)) + "\n").collect()
        };
        let kv = lines(300, &|_, h| format!("host=h{};cpu={}", h % 13, h % 1000));
        let format_a = lines(200, &|i, h| {
            format!("{} | svc{} | {} | OK", 1_700_000_000 + i, h % 5, h % 997)
        });
        let format_b = lines(300, &|_, h| {
            let level = ["info", "warn", "debug"][(h % 3) as usize];
            format!(
                "[{level}] u{} login ok from 10.0.{}.{}",
                h % 13,
                h % 8,
                h % 250
            )
        });
        let engine = engine();
        let store = SnapshotStore::new(snapshot_for(&engine, &kv.concat()));
        let options = ServeOptions::default()
            .with_window_lines(64)
            .with_min_residual_lines(64);
        let mut a = ServeSession::new(&engine, &store, options).unwrap();
        // B decides one 256-line window: one line in eight matches v1, so its sink runs
        // (and drives A) before B's rediscovery of the rest.
        let mut b = ServeSession::new(&engine, &store, options.with_window_lines(256)).unwrap();
        let mut sink = PushIntoOther {
            other: Some((&mut a, format_a.clone())),
        };
        for (i, line) in format_b.iter().enumerate() {
            if i % 8 == 0 {
                b.push_line(&kv[i], &mut sink).unwrap();
            }
            b.push_line(line, &mut sink).unwrap();
        }
        let b = b.finish(&mut sink).unwrap();
        assert!(sink.other.is_none(), "B's sink never ran");
        assert_eq!(a.snapshot_version(), 2, "A published v2");
        assert_eq!((b.swaps, b.snapshot_version), (1, 3), "B published v3");
        assert_eq!(store.version(), 3);

        for (name, lines) in [("v1", &kv), ("A", &format_a), ("B", &format_b)] {
            let monitor = options.with_rediscover(false);
            let mut session = ServeSession::new(&engine, &store, monitor).unwrap();
            let mut sink = CountingSink::default();
            for line in lines {
                session.push_line(line, &mut sink).unwrap();
            }
            let metrics = session.finish(&mut sink).unwrap();
            assert_eq!(metrics.summary.noise_lines, 0, "{name}'s lines are noise");
        }
    }

    #[test]
    fn swap_refuses_a_version_not_above_the_current_one() {
        let engine = engine();
        let store = SnapshotStore::new(snapshot_for(&engine, &kv_lines("host", 100).concat()));
        let templates = store.current().templates().to_vec();
        let (v2, v3) = (store.claim_version(), store.claim_version());
        let compile =
            |v| Arc::new(TemplateSnapshot::compile(v, templates.clone(), &engine).unwrap());
        store.swap(compile(v3)).unwrap();
        let refused = store.swap(compile(v2));
        assert!(matches!(refused, Err(Error::InvalidConfig(_))));
        assert_eq!(store.version(), v3);
    }

    #[test]
    fn monitor_only_sessions_never_swap() {
        let engine = engine();
        let format_a = kv_lines("host", 200);
        let snapshot = snapshot_for(&engine, &format_a.concat());
        let store = SnapshotStore::new(snapshot);
        let options = ServeOptions::default()
            .with_window_lines(32)
            .with_rediscover(false);
        let mut session = ServeSession::new(&engine, &store, options).unwrap();
        let mut sink = CountingSink::default();
        for i in 0..200 {
            session
                .push_line(
                    &format!("?? noise {} frame {}\n", i * 31 % 97, i),
                    &mut sink,
                )
                .unwrap();
        }
        let metrics = session.finish(&mut sink).unwrap();
        assert_eq!(metrics.swaps, 0);
        assert_eq!(store.version(), 1);
        assert!(metrics.summary.noise_lines > 0);
        assert!(metrics.residual_lines > 0);
    }

    #[test]
    fn residual_buffer_is_bounded() {
        let engine = engine();
        let format_a = kv_lines("host", 100);
        let snapshot = snapshot_for(&engine, &format_a.concat());
        let store = SnapshotStore::new(snapshot);
        let options = ServeOptions {
            window_lines: 16,
            residual_bytes: 512,
            rediscover: false,
            ..ServeOptions::default()
        };
        let mut session = ServeSession::new(&engine, &store, options).unwrap();
        let mut sink = CountingSink::default();
        // Unmatched lines of varying length, thousands of them evicted from a full buffer.
        let lines: Vec<String> = (0..5000)
            .map(|i| format!("!! unparseable payload {i} {} !!\n", "x".repeat(i % 37)))
            .collect();
        for line in &lines {
            session.push_line(line, &mut sink).unwrap();
        }
        session.flush(&mut sink).unwrap();
        // What is kept is the longest suffix of the unmatched lines that fits the cap.
        let mut kept = 0;
        let mut kept_bytes = 0;
        for line in lines.iter().rev() {
            if kept_bytes + line.len() > 512 {
                break;
            }
            kept += 1;
            kept_bytes += line.len();
        }
        let expected = lines[lines.len() - kept..].concat();
        assert_eq!(session.residual.text(), expected);
        let metrics = session.finish(&mut sink).unwrap();
        assert_eq!(metrics.summary.noise_lines, lines.len());
        assert_eq!(metrics.residual_lines, kept);
        assert_eq!(metrics.residual_bytes, expected.len());
        assert_eq!(metrics.residual_dropped, lines.len() - kept);
        assert!(metrics.residual_bytes <= 512);
    }

    /// Lines of half the residual cap: a window is decided once the bytes pushed since the
    /// last one reach both `residual_bytes` and the carried bytes, so its size follows from
    /// that cap and the span limit `L`, not from `window_lines`; it decides about `L` lines
    /// rather than two, and the records and noise are those of windows bounded by lines
    /// alone.
    #[test]
    fn long_lines_bound_a_window_in_bytes() {
        // Hash-mixed values, so one line is one record (a periodic stream is legitimately
        // explained by a multi-line template).
        let valid = |i: u64| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            format!("host=h{};cpu={}", h % 13, h % 1000)
        };
        let engine = engine();
        let head: String = (0..300).map(|i| valid(i) + "\n").collect();
        let snapshot = snapshot_for(&engine, &head);
        let span = snapshot.max_line_span();
        let store = SnapshotStore::new(snapshot);
        let cap = 4096;
        let lines: Vec<String> = (0..600)
            .map(|i| {
                let line = if i % 5 == 4 {
                    format!("!! noise {i} ")
                } else {
                    valid(i)
                };
                format!("{line:x<width$}\n", width = cap / 2 - 1)
            })
            .collect();
        let run = |residual_bytes: usize| {
            let options = ServeOptions {
                residual_bytes,
                rediscover: false,
                ..ServeOptions::default()
            };
            let mut session = ServeSession::new(&engine, &store, options).unwrap();
            let mut sink = JsonLinesSink::new(Vec::new());
            for line in &lines {
                session.push_line(line, &mut sink).unwrap();
            }
            session.flush(&mut sink).unwrap();
            let residual = session.residual.text().to_string();
            let metrics = session.finish(&mut sink).unwrap();
            (metrics, residual, sink.into_writer())
        };
        let (bounded, bounded_residual, bounded_rows) = run(cap);
        // A residual cap larger than the stream: only `window_lines` decides a window.
        let (by_lines, by_lines_residual, by_lines_rows) = run(lines.len() * cap);

        assert_eq!(bounded.summary.records, 480);
        assert_eq!(bounded_rows, by_lines_rows, "records differ");
        assert_eq!(bounded.summary.noise_lines, 120);
        assert_eq!(by_lines.summary.noise_lines, 120);
        assert!(!bounded_residual.is_empty());
        assert!(by_lines_residual.ends_with(&bounded_residual));
        // A window holds fewer than 2L carried lines plus the lines pushed since the last
        // window, under `cap` bytes before its last one; its allocation is at most twice
        // its length, and the peak counts both it and the window's dataset copy.
        let bound = 3 * (2 * span + 1) * cap;
        assert!(
            bounded.summary.peak_window_bytes <= bound,
            "peak {} over {bound}",
            bounded.summary.peak_window_bytes
        );
        assert!(
            by_lines.summary.peak_window_bytes > bound,
            "line-bounded peak {} must exceed {bound} for the bound to tell",
            by_lines.summary.peak_window_bytes
        );
        assert!(
            bounded.summary.windows * span <= 2 * lines.len(),
            "{} windows for {} lines",
            bounded.summary.windows,
            lines.len()
        );
    }

    #[test]
    fn metrics_json_carries_stream_and_serve_sections() {
        let engine = engine();
        let lines = kv_lines("host", 120);
        let snapshot = snapshot_for(&engine, &lines.concat());
        let store = SnapshotStore::new(snapshot);
        let mut session = ServeSession::new(&engine, &store, ServeOptions::default()).unwrap();
        let mut sink = CountingSink::default();
        for line in &lines {
            session.push_line(line, &mut sink).unwrap();
        }
        let metrics = session.finish(&mut sink).unwrap();
        let json = metrics.to_json();
        let doc = JsonValue::parse(&json).unwrap();
        let stream = doc.require("stream").unwrap();
        assert_eq!(stream.require("records").unwrap().as_usize().unwrap(), 120);
        let serve = doc.require("serve").unwrap();
        assert_eq!(
            serve
                .require("snapshot_version")
                .unwrap()
                .as_usize()
                .unwrap(),
            1
        );
        assert_eq!(serve.require("swaps").unwrap().as_usize().unwrap(), 0);
    }

    #[test]
    fn swap_persists_the_delta_before_publishing() {
        use std::sync::atomic::AtomicBool;

        // A persistence layer that records, at persist time, whether the store still
        // serves the OLD snapshot — proving write-ahead ordering.
        struct ProbePersistence {
            store_version_at_persist: AtomicU64,
            fail: AtomicBool,
            persists: AtomicU64,
            compacts: AtomicU64,
        }
        struct ProbeHandle {
            inner: Arc<ProbePersistence>,
            store: Arc<RwLock<Option<Arc<SnapshotStore>>>>,
        }
        impl SwapPersistence for ProbeHandle {
            fn persist_swap(&self, _old: &TemplateSnapshot, _new: &TemplateSnapshot) -> Result<()> {
                if let Some(store) = self.store.read().unwrap().as_ref() {
                    self.inner
                        .store_version_at_persist
                        .store(store.version(), Ordering::Relaxed);
                }
                self.inner.persists.fetch_add(1, Ordering::Relaxed);
                if self.inner.fail.load(Ordering::Relaxed) {
                    return Err(Error::Journal("injected persist failure".into()));
                }
                Ok(())
            }
            fn compact(&self, _current: &TemplateSnapshot) -> Result<()> {
                self.inner.compacts.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            fn stats(&self) -> PersistenceStats {
                PersistenceStats {
                    appended: self.inner.persists.load(Ordering::Relaxed),
                    compactions: self.inner.compacts.load(Ordering::Relaxed),
                    failures: 0,
                    healthy: !self.inner.fail.load(Ordering::Relaxed),
                }
            }
        }

        let engine = engine();
        let snapshot = snapshot_for(&engine, &kv_lines("host", 100).concat());
        let probe = Arc::new(ProbePersistence {
            store_version_at_persist: AtomicU64::new(0),
            fail: AtomicBool::new(false),
            persists: AtomicU64::new(0),
            compacts: AtomicU64::new(0),
        });
        let store_slot: Arc<RwLock<Option<Arc<SnapshotStore>>>> = Arc::new(RwLock::new(None));
        let handle = ProbeHandle {
            inner: probe.clone(),
            store: store_slot.clone(),
        };
        let store = Arc::new(SnapshotStore::with_persistence(snapshot, Arc::new(handle)));
        *store_slot.write().unwrap() = Some(store.clone());

        let next = TemplateSnapshot::compile(
            store.claim_version(),
            store.current().templates().to_vec(),
            &engine,
        )
        .unwrap();
        let next_version = next.version();
        store.swap(Arc::new(next)).unwrap();
        // At persist time the store still served version 1 — the delta was durable
        // before the publication.
        assert_eq!(probe.store_version_at_persist.load(Ordering::Relaxed), 1);
        assert_eq!(store.version(), next_version);
        assert_eq!(store.persist_failures(), 0);
        assert!(store.persistence_healthy());

        // A failing persist degrades (recorded, readiness down) but the swap publishes.
        probe.fail.store(true, Ordering::Relaxed);
        let next = TemplateSnapshot::compile(
            store.claim_version(),
            store.current().templates().to_vec(),
            &engine,
        )
        .unwrap();
        let failed_version = next.version();
        store.swap(Arc::new(next)).unwrap();
        assert_eq!(store.version(), failed_version, "swap must publish anyway");
        assert_eq!(store.persist_failures(), 1);
        assert!(!store.persistence_healthy());
        assert!(store
            .last_persist_error()
            .unwrap()
            .contains("injected persist failure"));

        probe.fail.store(false, Ordering::Relaxed);
        store.compact().unwrap();
        assert_eq!(probe.compacts.load(Ordering::Relaxed), 1);
        assert_eq!(store.persistence_stats().unwrap().compactions, 1);
    }

    #[test]
    fn stores_without_persistence_are_always_healthy() {
        let engine = engine();
        let snapshot = snapshot_for(&engine, &kv_lines("host", 50).concat());
        let store = SnapshotStore::new(snapshot);
        assert!(store.persistence_healthy());
        assert!(store.persistence_stats().is_none());
        store.compact().unwrap();
        assert_eq!(store.persist_failures(), 0);
    }

    /// A one-window summary with `lines` decided lines, `unmatched` of them noise.
    fn one_window(lines: usize, unmatched: usize, stats: MatchStats) -> StreamSummary {
        let mut summary = StreamSummary::default();
        summary.records = lines - unmatched;
        summary.noise_lines = unmatched;
        summary.lines_processed = lines;
        summary.windows = 1;
        summary.push_window(WindowUnmatched { lines, unmatched }, stats);
        summary
    }

    #[test]
    fn merge_summaries_adds_counters_and_concatenates_windows() {
        let mut a = one_window(10, 1, MatchStats::default());
        a.windows = 2;
        a.peak_window_bytes = 100;
        let mut b = one_window(5, 2, MatchStats::default());
        b.peak_window_bytes = 300;
        merge_summaries(&mut a, &b);
        assert_eq!(a.records, 12);
        assert_eq!(a.noise_lines, 3);
        assert_eq!(a.windows, 3);
        assert_eq!(a.peak_window_bytes, 300);
        let history: Vec<usize> = a.window_unmatched.iter().map(|w| w.lines).collect();
        assert_eq!(history, [10, 5]);
        assert_eq!(a.window_match_stats.len(), 2);
    }

    /// A long-running daemon folds every connection into one aggregate: the window
    /// history stays at the newest 64 windows while the totals cover all of them.
    #[test]
    fn merged_window_history_is_bounded_and_totals_cover_every_window() {
        let mut total = StreamSummary::default();
        let mut expected = MatchStats::default();
        for i in 0..1_000u64 {
            let stats = MatchStats {
                lines_dispatched: 4,
                fused_dispatches: i % 5,
                templates_trialed: i,
                templates_pruned: 2 * i + 1,
            };
            expected.merge(&stats);
            merge_summaries(&mut total, &one_window(4, (i % 3) as usize, stats));
        }
        assert_eq!(total.windows, 1_000);
        assert_eq!(total.lines_processed, 4_000);
        assert_eq!(total.window_unmatched.len(), 64);
        assert_eq!(total.window_match_stats.len(), 64);
        assert_eq!(total.match_stats(), expected);
        // The history is the newest windows, oldest first.
        let trialed: Vec<u64> = total
            .window_match_stats
            .iter()
            .map(|s| s.templates_trialed)
            .collect();
        assert_eq!(trialed, (936..1_000).collect::<Vec<u64>>());
    }

    /// The metrics document's exact bytes for a fixed value: the `stream` section of
    /// [`stream_report`] with a `null` stop reason, then the `serve` section.
    #[test]
    fn metrics_json_bytes_are_pinned() {
        let mut summary = one_window(
            6,
            1,
            MatchStats {
                lines_dispatched: 6,
                fused_dispatches: 5,
                templates_trialed: 6,
                templates_pruned: 3,
            },
        );
        summary.templates = vec![StructureTemplate::new(vec![
            Node::Field,
            Node::Literal(" | ".into()),
            Node::Field,
            Node::Literal("\n".into()),
        ])];
        summary.bytes_processed = 120;
        summary.peak_window_bytes = 256;
        summary.sink_seconds = 0.5;
        summary.match_seconds = 0.125;
        let metrics = ServeMetrics {
            summary,
            snapshot_version: 7,
            swaps: 2,
            rediscover_failures: 1,
            residual_lines: 9,
            residual_bytes: 321,
            residual_dropped: 4,
        };
        assert_eq!(metrics.to_json(), PINNED_METRICS);
    }

    const PINNED_METRICS: &str = r#"{
  "stream": {
    "records": 5,
    "noise_lines": 1,
    "bytes_processed": 120,
    "lines_processed": 6,
    "windows": 1,
    "peak_window_bytes": 256,
    "sink_seconds": 0.5,
    "match_seconds": 0.125,
    "quarantined_lines": 0,
    "invalid_utf8_lines": 0,
    "oversized_lines": 0,
    "stopped_reason": null,
    "templates": [
      "F | F\\n"
    ],
    "match_stats": {
      "lines_dispatched": 6,
      "fused_dispatches": 5,
      "templates_trialed": 6,
      "templates_pruned": 3,
      "prune_rate": 0.3333333333333333,
      "fused_dispatch_rate": 0.8333333333333334
    },
    "window_match_stats": [
      {
        "lines_dispatched": 6,
        "fused_dispatches": 5,
        "templates_trialed": 6,
        "templates_pruned": 3,
        "prune_rate": 0.3333333333333333,
        "fused_dispatch_rate": 0.8333333333333334
      }
    ],
    "window_unmatched": [
      {
        "lines": 6,
        "unmatched": 1,
        "unmatched_rate": 0.16666666666666666
      }
    ]
  },
  "serve": {
    "snapshot_version": 7,
    "swaps": 2,
    "rediscover_failures": 1,
    "residual_lines": 9,
    "residual_bytes": 321,
    "residual_dropped": 4
  }
}"#;
}
