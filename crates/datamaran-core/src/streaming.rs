//! Streaming extraction with bounded memory and fault-tolerant ingestion.
//!
//! The paper's pipeline holds the whole file in memory; only the structure *search* is
//! bounded by sampling (`S_data`), while the final extraction pass is `O(T_data)` and, in the
//! reference implementation, also `O(T_data)` in space.  For data-lake files of hundreds of
//! megabytes this is wasteful: once the structure templates are known, extraction only ever
//! needs a window of at most `L` lines.
//!
//! [`StreamSession`] implements that observation end to end:
//!
//! 1. a bounded *head* of the stream is buffered and run through the normal pipeline to
//!    discover the structure templates (skipped when the session is given
//!    [known templates](StreamSession::templates) up front);
//! 2. the rest of the stream is processed window by window: each window is parsed with the
//!    discovered templates, every record that provably cannot be affected by unseen input
//!    (i.e. ends more than `L` lines before the window's end) is pushed into the caller's
//!    [`RecordSink`], and only the undecided tail is carried over to the next window.
//!
//! ```
//! # use datamaran_core::{Datamaran, CountingSink, StreamOptions};
//! # use datamaran_core::streaming::StreamSession;
//! # fn main() -> datamaran_core::Result<()> {
//! let engine = Datamaran::with_defaults();
//! let mut sink = CountingSink::default();
//! let log = "a=1;b=2\na=3;b=4\na=5;b=6\na=7;b=8\n";
//! let summary = StreamSession::new(&engine)
//!     .options(StreamOptions::default())
//!     .run(std::io::Cursor::new(log), &mut sink)?;
//! assert_eq!(summary.records, sink.records);
//! # Ok(()) }
//! ```
//!
//! The session is the only streaming entry point.  Its window decision is shared with the
//! serving path: [`crate::serve::ServeSession`] decides its windows with the same loop,
//! only matching against a hot-swappable snapshot and keeping unmatched lines for
//! rediscovery.
//!
//! Records reach the sink as [`StreamRecord`]s — zero-copy views over the current window's
//! text plus the recycled match arenas (flat field cells and array repetition counts, the
//! span engine's native output).  The CSV / JSON Lines sinks of [`crate::export`] serialize
//! straight from those views, so the full path from disk to sink never materializes a
//! [`Table`](crate::relational::Table) and never holds more than the head or one window of
//! input text.  Memory is therefore bounded by `O(head + window)`, independent of the total
//! stream length ([`StreamSummary::peak_window_bytes`] records the observed bound and the
//! benchmark gate enforces it), and the emitted segmentation is identical to what the
//! in-memory extractor would produce on the concatenated input (checked by tests and by
//! `tests/streaming_export_equivalence.rs`).
//!
//! # Failure semantics
//!
//! Data-lake streams are hostile by default (§2 of the paper assumes partially-structured,
//! noisy input), so the streaming loop never treats malformed bytes as fatal unless asked
//! to.  Three coordinated mechanisms, all configured through [`StreamOptions`]:
//!
//! * **Error policy** ([`ErrorPolicy`]) — lines that cannot be decoded as UTF-8 are
//!   re-decoded lossily and continue through the pipeline (`skip`), additionally preserved
//!   byte-for-byte in a [`QuarantineSink`] (`quarantine`), or abort the stream with a
//!   structured [`Error::Decode`] (`abort`).  Under `quarantine`, unmatched (noise) lines
//!   are preserved too, which is what makes the quarantine file a lossless residue of
//!   everything the templates failed to explain.
//! * **Resource budgets** ([`StreamBudgets`]) — hard caps on single-line bytes, resident
//!   window bytes, cumulative match seconds, and the quarantined fraction of the stream.
//!   Except for the line cap under the `abort` policy, a violated budget stops the stream
//!   *gracefully*: the sink is finished (flushing everything durable), and
//!   [`StreamSummary::stopped_reason`] records why.
//! * **Per-window unmatched-rate counters** ([`StreamSummary::window_unmatched`]) — the
//!   drift signal a resident ingest service needs: a window whose unmatched rate degrades
//!   is the trigger for re-running discovery on the residual.  The summary keeps them for
//!   the most recent 64 windows only, next to running totals, so its size does not grow
//!   with the stream.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::dataset::Dataset;
use crate::error::{BudgetKind, Error, Result};
use crate::export::RecordSink;
use crate::extract::{LineMatchTable, MatchStats, SpanLineMatcher, SpanRecord, SpanScratch};
use crate::parallel::{effective_workers, resolve_threads, MIN_CHUNK_LINES};
use crate::parser::FieldCell;
use crate::pipeline::Datamaran;
use crate::structure::StructureTemplate;
use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::time::Instant;

/// Per-call time of the window loop's callbacks is sampled (1 in 32) so the
/// instrumentation itself stays off the hot path; the estimate scales the sampled time by
/// the call count.
const TIMING_SAMPLE: usize = 32;

/// Running timing state of one per-call callback of the window loop (record matching, or
/// the sink's per-record calls).
#[derive(Default)]
struct CallTiming {
    /// Calls the sample is drawn from.
    calls: usize,
    sampled_calls: usize,
    sampled_secs: f64,
    /// Seconds of the calls timed in full, outside the sample.
    exact_secs: f64,
}

impl CallTiming {
    /// Runs `call`, timing it in full when `exact`, and else when it falls in the
    /// 1-in-[`TIMING_SAMPLE`] sample.
    fn time<T>(&mut self, exact: bool, call: impl FnOnce() -> T) -> T {
        if exact {
            let timed = Instant::now();
            let out = call();
            self.exact_secs += timed.elapsed().as_secs_f64();
            return out;
        }
        let sampled = self.calls.is_multiple_of(TIMING_SAMPLE);
        self.calls += 1;
        if !sampled {
            return call();
        }
        let timed = Instant::now();
        let out = call();
        self.sampled_secs += timed.elapsed().as_secs_f64();
        self.sampled_calls += 1;
        out
    }

    /// The estimated total seconds spent in the calls.
    fn estimate(&self) -> f64 {
        let sampled = if self.sampled_calls == 0 {
            0.0
        } else {
            self.sampled_secs * self.calls as f64 / self.sampled_calls as f64
        };
        self.exact_secs + sampled
    }
}

/// The slice of a record match the window loop needs; field cells and repetition counts
/// land in the loop's reusable [`MatchBuffers`] instead of per-record vectors.
pub(crate) struct WindowRecord {
    template_index: usize,
    line_span: (usize, usize),
}

impl From<SpanRecord> for WindowRecord {
    fn from(rec: SpanRecord) -> Self {
        WindowRecord {
            template_index: rec.template_index as usize,
            line_span: rec.line_span,
        }
    }
}

/// The reusable buffers a line match fills: the record's field cells and array repetition
/// counts (the span engine's pre-order arena layout), plus its scratch arenas, whose work
/// counters the window loop carves into per-window stats.
#[derive(Default)]
pub(crate) struct MatchBuffers {
    pub(crate) cells: Vec<FieldCell>,
    pub(crate) reps: Vec<u32>,
    pub(crate) scratch: SpanScratch,
}

/// The window decision shared by [`StreamSession`] and [`crate::serve::ServeSession`], plus
/// the state it carries from one window to the next.  DATAMARAN decides a record only once
/// its whole span of at most `L` lines is buffered; [`decide`](Self::decide) is the one
/// place that rule lives.
#[derive(Default)]
pub(crate) struct WindowLoop {
    /// Stream line index of the first buffered line.
    global_line: usize,
    bufs: MatchBuffers,
    match_timing: CallTiming,
    sink_timing: CallTiming,
}

impl WindowLoop {
    /// Decides the lines buffered in `buffer`: every record that provably cannot be
    /// affected by unseen input goes to `sink` with stream-global line offsets, every
    /// unmatched line is counted as noise and handed to `unmatched` (window-relative line
    /// index and text), and the undecided tail stays in `buffer` for the next window.
    /// With `eof` the whole buffer is decided.  Returns the window's counters (also pushed
    /// onto `summary`, whose `match_seconds` and `sink_seconds` become the running
    /// estimates of the time spent in `match_line` and in the sink's per-record calls)
    /// and the number of lines carried over.
    ///
    /// Callers differ only in how a line is matched (`match_line` fills the
    /// [`MatchBuffers`], which arrive cleared) and where unmatched lines go; budgets and
    /// drift reactions stay with them.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decide<S, M, U>(
        &mut self,
        buffer: &mut String,
        eof: bool,
        max_span: usize,
        summary: &mut StreamSummary,
        sink: &mut S,
        mut match_line: M,
        mut unmatched: U,
    ) -> Result<(WindowUnmatched, usize)>
    where
        S: RecordSink + ?Sized,
        M: FnMut(&Dataset, usize, &mut MatchBuffers) -> Option<WindowRecord>,
        U: FnMut(usize, &str, &mut StreamSummary) -> Result<()>,
    {
        let dataset = Dataset::from_shared(buffer.as_str().into());
        summary.windows += 1;
        summary.peak_window_bytes = summary
            .peak_window_bytes
            .max(buffer.capacity() + dataset.len());
        let n = dataset.line_count();
        // Lines at or after `safe_limit` may still be the head of a record whose tail has
        // not been read yet; they are only decided once the stream is exhausted.
        let safe_limit = if eof { n } else { n.saturating_sub(max_span) };

        let stats_before = self.bufs.scratch.stats;
        let mut line = 0usize;
        let mut window_noise = 0usize;
        while line < n {
            self.bufs.cells.clear();
            self.bufs.reps.clear();
            // A window's first match may build a window-wide match table (the parallel
            // path), so it is timed in full rather than left to the sample.
            let matched = self
                .match_timing
                .time(line == 0, || match_line(&dataset, line, &mut self.bufs));
            match matched {
                Some(rec) => {
                    if !eof && rec.line_span.1 > safe_limit {
                        break;
                    }
                    let record = StreamRecord {
                        template_index: rec.template_index,
                        line_span: (
                            self.global_line + rec.line_span.0,
                            self.global_line + rec.line_span.1,
                        ),
                        window: dataset.text(),
                        cells: &self.bufs.cells,
                        reps: &self.bufs.reps,
                    };
                    self.sink_timing.time(false, || sink.record(&record))?;
                    summary.records += 1;
                    line = rec.line_span.1;
                }
                None => {
                    if !eof && line >= safe_limit {
                        break;
                    }
                    summary.noise_lines += 1;
                    window_noise += 1;
                    let (s, e) = dataset.line_span(line);
                    unmatched(line, &dataset.text()[s..e], summary)?;
                    line += 1;
                }
            }
        }
        summary.match_seconds = self.match_timing.estimate();
        summary.sink_seconds = self.sink_timing.estimate();

        // Everything before `line` is decided; account for it and carry the tail over.
        let consumed_lines = line.min(n);
        let consumed_bytes = if line >= n {
            buffer.len()
        } else {
            dataset.line_start(line)
        };
        let window = WindowUnmatched {
            lines: consumed_lines,
            unmatched: window_noise,
        };
        summary.bytes_processed += consumed_bytes;
        summary.lines_processed += consumed_lines;
        summary.push_window(window, self.bufs.scratch.stats.since(&stats_before));
        self.global_line += consumed_lines;
        buffer.drain(..consumed_bytes);
        Ok((window, n - consumed_lines))
    }
}

/// Attempts to match one record starting at `line` into `bufs`.  With `chunks > 1` the
/// matcher answers from the window's match `table`, computed by scoped workers at the
/// window's first query: the per-line match question depends only on the text from each
/// line onward, so the sequential decision loop replays it unchanged and record order and
/// sink bytes are identical for any thread count.  Cells go straight from the op-table run
/// into the reused buffers; no instantiation tree is materialized.
fn match_window_line(
    matcher: &SpanLineMatcher,
    dataset: &Dataset,
    line: usize,
    bufs: &mut MatchBuffers,
    chunks: usize,
    table: &mut Option<LineMatchTable>,
) -> Option<WindowRecord> {
    if chunks <= 1 {
        return matcher
            .match_line_into(
                dataset,
                line,
                &mut bufs.cells,
                &mut bufs.reps,
                &mut bufs.scratch,
            )
            .map(Into::into);
    }
    let table = table.get_or_insert_with(|| {
        let table = matcher.match_table(dataset, chunks);
        // The workers' counters join the scratch the window stats come from.
        bufs.scratch.stats.merge(&table.stats());
        table
    });
    table.record_at(line).map(|(rec, cells, reps)| {
        bufs.cells.extend_from_slice(cells);
        bufs.reps.extend_from_slice(reps);
        rec.into()
    })
}

/// What the streaming loop does with lines it cannot cleanly process (undecodable bytes,
/// oversized lines) and — under [`ErrorPolicy::Quarantine`] — with unmatched noise lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Decode problem lines lossily and keep going; count them but preserve nothing.
    #[default]
    Skip,
    /// Like `Skip`, but additionally preserve the offending lines byte-for-byte in the
    /// stream's [`QuarantineSink`] — including unmatched (noise) lines, so the quarantine
    /// is a lossless residue of everything the templates failed to explain.
    Quarantine,
    /// Abort the stream with a structured error on the first undecodable or oversized
    /// line.  Unmatched lines never abort: noise is the normal case in this pipeline.
    Abort,
}

/// Hard resource caps enforced by the streaming loop.  Every cap defaults to "unlimited";
/// a violated cap stops the stream gracefully (see [`StreamSummary::stopped_reason`]) —
/// except the line cap under [`ErrorPolicy::Abort`], which raises
/// [`Error::BudgetExceeded`].
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct StreamBudgets {
    /// Maximum bytes of a single input line.  Longer lines never enter the window buffer:
    /// they are dropped (`skip`), preserved in the quarantine (`quarantine`), or abort the
    /// stream (`abort`).  This is the cap that keeps a pathological multi-gigabyte "line"
    /// from inflating the resident window.
    pub max_line_bytes: Option<usize>,
    /// Maximum bytes of the resident chunk window (carry-over tail plus newly read data).
    pub max_window_bytes: Option<usize>,
    /// Maximum cumulative wall-clock seconds spent matching templates against windows —
    /// the livelock guard for adversarial inputs that make every match attempt expensive.
    pub max_match_seconds: Option<f64>,
    /// Maximum fraction (0.0–1.0) of input lines diverted to the quarantine before the
    /// stream stops: when the data has drifted this far from the templates, continuing
    /// just copies the input into the quarantine.
    pub max_quarantine_fraction: Option<f64>,
}

/// Why a streaming run stopped before consuming the whole stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The resident window exceeded [`StreamBudgets::max_window_bytes`].
    WindowBytes,
    /// Cumulative match time exceeded [`StreamBudgets::max_match_seconds`].
    MatchSeconds,
    /// The quarantined fraction exceeded [`StreamBudgets::max_quarantine_fraction`].
    QuarantineFraction,
}

impl StopReason {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::WindowBytes => "window-bytes",
            StopReason::MatchSeconds => "match-seconds",
            StopReason::QuarantineFraction => "quarantine-fraction",
        }
    }
}

/// Why a line was diverted to the [`QuarantineSink`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// No structure template matched the line (noise).
    Unmatched,
    /// The line was not valid UTF-8; the pipeline processed a lossy decoding, the
    /// quarantine holds the original bytes.
    InvalidUtf8,
    /// The line exceeded [`StreamBudgets::max_line_bytes`] and never entered the window.
    Oversized,
}

impl QuarantineReason {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            QuarantineReason::Unmatched => "unmatched",
            QuarantineReason::InvalidUtf8 => "invalid-utf8",
            QuarantineReason::Oversized => "oversized",
        }
    }
}

/// A consumer of quarantined lines.  Receives every diverted line **byte-identical** to the
/// input (including its line terminator, or lack of one on a truncated final line), plus
/// the 0-based input line index and the reason — enough to replay, audit, or re-ingest the
/// residue after templates are refreshed.
pub trait QuarantineSink {
    /// Consumes one quarantined line.
    fn quarantine(&mut self, line: usize, reason: QuarantineReason, bytes: &[u8]) -> Result<()>;
}

/// One quarantined line captured by [`VecQuarantineSink`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// 0-based input line index.
    pub line: usize,
    /// Why the line was diverted.
    pub reason: QuarantineReason,
    /// The original bytes, terminator included.
    pub bytes: Vec<u8>,
}

/// A quarantine sink that collects entries in memory (tests, small residues).
#[derive(Clone, Debug, Default)]
pub struct VecQuarantineSink {
    /// Every quarantined line, in stream order.
    pub entries: Vec<QuarantineEntry>,
}

impl QuarantineSink for VecQuarantineSink {
    fn quarantine(&mut self, line: usize, reason: QuarantineReason, bytes: &[u8]) -> Result<()> {
        self.entries.push(QuarantineEntry {
            line,
            reason,
            bytes: bytes.to_vec(),
        });
        Ok(())
    }
}

/// A quarantine sink that appends the raw bytes of every diverted line to a writer — the
/// quarantine file is the byte-exact concatenation of the diverted lines, so it can be fed
/// straight back through the extractor once templates catch up.
pub struct WriteQuarantineSink<W: Write> {
    out: W,
    /// Lines written.
    pub lines: usize,
    /// Bytes written.
    pub bytes: usize,
}

impl<W: Write> WriteQuarantineSink<W> {
    /// Creates a sink writing raw quarantined bytes to `out` (buffer the writer for files).
    pub fn new(out: W) -> Self {
        WriteQuarantineSink {
            out,
            lines: 0,
            bytes: 0,
        }
    }

    /// Flushes and returns the writer.
    pub fn into_writer(mut self) -> Result<W> {
        self.out
            .flush()
            .map_err(|e| Error::io(&e).in_sink("quarantine"))?;
        Ok(self.out)
    }
}

impl<W: Write> QuarantineSink for WriteQuarantineSink<W> {
    fn quarantine(&mut self, _line: usize, _reason: QuarantineReason, bytes: &[u8]) -> Result<()> {
        self.out
            .write_all(bytes)
            .map_err(|e| Error::io(&e).in_sink("quarantine"))?;
        self.lines += 1;
        self.bytes += bytes.len();
        Ok(())
    }
}

/// Options for streaming extraction.
#[derive(Clone, Copy, Debug)]
pub struct StreamOptions {
    /// Number of bytes buffered from the head of the stream for structure discovery.
    pub head_bytes: usize,
    /// Target number of bytes read per processing window, raised to the bytes of the
    /// undecided tail carried over from the previous window when that is larger (the
    /// actual window also contains that tail).
    pub window_bytes: usize,
    /// What to do with undecodable, oversized, and (under `Quarantine`) unmatched lines.
    pub on_error: ErrorPolicy,
    /// Hard resource caps; all default to unlimited.
    pub budgets: StreamBudgets,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            head_bytes: 256 * 1024,
            window_bytes: 1024 * 1024,
            on_error: ErrorPolicy::default(),
            budgets: StreamBudgets::default(),
        }
    }
}

impl StreamOptions {
    /// Sets the error policy.
    pub fn with_on_error(mut self, policy: ErrorPolicy) -> Self {
        self.on_error = policy;
        self
    }

    /// Sets the resource budgets.
    pub fn with_budgets(mut self, budgets: StreamBudgets) -> Self {
        self.budgets = budgets;
        self
    }
}

/// One record emitted by the streaming extractor, with owned column values (the convenience
/// representation of [`StreamSession::run_with`]; sinks on the hot path consume the
/// zero-copy [`StreamRecord`] instead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedRecord {
    /// Index of the structure template (in [`StreamSummary::templates`]) that matched.
    pub template_index: usize,
    /// Line span of the record in the whole stream (0-based, half-open).
    pub line_span: (usize, usize),
    /// One vector of values per template column; array columns carry one entry per
    /// repetition, scalar columns exactly one.
    pub columns: Vec<Vec<String>>,
}

/// One record as a [`RecordSink`] sees it: a zero-copy view over the current chunk window's
/// text and the recycled match arenas.  Everything the record contains is here — the
/// instantiation tree is fully determined by the template shape plus `cells` and `reps`
/// (the same encoding as [`crate::extract::SpanParse`]).
#[derive(Clone, Copy, Debug)]
pub struct StreamRecord<'a> {
    /// Index of the structure template (in the slice passed to [`RecordSink::begin`]) that
    /// matched.
    pub template_index: usize,
    /// Line span of the record in the whole stream (0-based, half-open).
    pub line_span: (usize, usize),
    /// Text of the current chunk window; [`Self::cells`] offsets point into it.
    pub window: &'a str,
    /// The record's field cells, in match order, with window-relative byte offsets.
    pub cells: &'a [FieldCell],
    /// Array repetition counts, in the span engine's pre-order arena layout.
    pub reps: &'a [u32],
}

impl<'a> StreamRecord<'a> {
    /// Resolves one field cell against the window text.
    #[inline]
    pub fn cell_text(&self, cell: &FieldCell) -> &'a str {
        &self.window[cell.start..cell.end]
    }
}

/// Lines-vs-unmatched counters for one processed chunk window — the per-window drift
/// signal (a rising [`unmatched_rate`](Self::unmatched_rate) means the discovered
/// templates are falling behind the stream).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowUnmatched {
    /// Lines decided (consumed) in this window.
    pub lines: usize,
    /// Of those, lines no template matched.
    pub unmatched: usize,
}

impl WindowUnmatched {
    /// Unmatched lines over decided lines (0.0 for an empty window).
    pub fn unmatched_rate(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.unmatched as f64 / self.lines as f64
        }
    }
}

/// Windows of per-window history a [`StreamSummary`] keeps.  Totals cover every window,
/// the history only the most recent ones, so a resident daemon's summary and its metrics
/// document stay the same size for any uptime.  64 windows cover a 64 MiB CLI stream at
/// the default 1 MiB window.
const WINDOW_HISTORY: usize = 64;

/// Appends `item` to a recent-window history, evicting the oldest entry past
/// [`WINDOW_HISTORY`].
fn push_recent<T>(history: &mut VecDeque<T>, item: T) {
    history.push_back(item);
    if history.len() > WINDOW_HISTORY {
        history.pop_front();
    }
}

/// Summary of a streaming extraction run.
#[derive(Clone, Debug, Default)]
pub struct StreamSummary {
    /// The structure templates discovered on the stream head, in match-priority order.
    pub templates: Vec<StructureTemplate>,
    /// Number of records emitted.
    pub records: usize,
    /// Number of lines classified as noise.
    pub noise_lines: usize,
    /// Total bytes consumed from the stream.
    pub bytes_processed: usize,
    /// Total lines consumed from the stream.
    pub lines_processed: usize,
    /// Number of chunk windows processed (including the head window).
    pub windows: usize,
    /// Peak bytes of stream text resident at once: the carry buffer's capacity plus the
    /// current window's dataset copy, maximized over all windows.  This is the quantity the
    /// `O(head + window)` memory bound is about (the transient head-discovery structures
    /// are bounded by [`StreamOptions::head_bytes`] and not tracked here).
    pub peak_window_bytes: usize,
    /// Wall-clock seconds spent inside the sink's callbacks: exact for `begin`/`finish`,
    /// estimated from a 1-in-32 sample of the per-record calls (timing every record would
    /// put two clock reads on the hot path of the very throughput the CI gate measures).
    pub sink_seconds: f64,
    /// Wall-clock seconds spent matching templates against windows (the quantity
    /// [`StreamBudgets::max_match_seconds`] caps): the match calls alone, not the sink or
    /// quarantine callbacks between them.  Each window's first call (which may build the
    /// window's parallel match table) is timed in full, the rest are estimated from a
    /// 1-in-32 sample like [`sink_seconds`](Self::sink_seconds).
    pub match_seconds: f64,
    /// Lines diverted to the quarantine sink (all reasons).
    pub quarantined_lines: usize,
    /// Bytes diverted to the quarantine sink.
    pub quarantined_bytes: usize,
    /// Input lines that were not valid UTF-8 (processed lossily; quarantined raw under
    /// [`ErrorPolicy::Quarantine`]).
    pub invalid_utf8_lines: usize,
    /// Input lines dropped for exceeding [`StreamBudgets::max_line_bytes`].
    pub oversized_lines: usize,
    /// Lines / unmatched counters of the most recent windows (at most 64), oldest first —
    /// the drift signal.  The whole-stream counts are
    /// [`lines_processed`](Self::lines_processed) and [`noise_lines`](Self::noise_lines).
    pub window_unmatched: VecDeque<WindowUnmatched>,
    /// Matcher work counters (templates trialed vs pruned, fused-dispatch rate) of the same
    /// recent windows, oldest first.  The whole-stream total is
    /// [`match_stats`](Self::match_stats).
    pub window_match_stats: VecDeque<MatchStats>,
    /// Matcher work counters summed over every window.
    match_totals: MatchStats,
    /// Why the stream stopped early, if it did.  `None` means the stream was consumed to
    /// the end.  On an early stop the sink is still finished cleanly: everything reported
    /// in [`records`](Self::records) was pushed and flushed.
    pub stopped_reason: Option<StopReason>,
}

impl StreamSummary {
    /// Matcher work counters summed over every processed window.
    pub fn match_stats(&self) -> MatchStats {
        self.match_totals
    }

    /// Accounts one decided window: its matcher counters join the running total, and both
    /// histories keep the most recent [`WINDOW_HISTORY`] windows.
    pub(crate) fn push_window(&mut self, window: WindowUnmatched, stats: MatchStats) {
        self.match_totals.merge(&stats);
        push_recent(&mut self.window_unmatched, window);
        push_recent(&mut self.window_match_stats, stats);
    }

    /// Appends `part`'s windows after this summary's: the running totals add, and both
    /// histories keep the most recent [`WINDOW_HISTORY`] windows of the two.
    pub(crate) fn append_windows(&mut self, part: &StreamSummary) {
        self.match_totals.merge(&part.match_totals);
        for &window in &part.window_unmatched {
            push_recent(&mut self.window_unmatched, window);
        }
        for &stats in &part.window_match_stats {
            push_recent(&mut self.window_match_stats, stats);
        }
    }

    /// Unmatched lines over decided lines for the whole stream.
    pub fn unmatched_rate(&self) -> f64 {
        if self.lines_processed == 0 {
            0.0
        } else {
            self.noise_lines as f64 / self.lines_processed as f64
        }
    }
}

/// The [`RecordSink`] adapter behind [`StreamSession::run_with`]: projects each zero-copy
/// [`StreamRecord`] into an [`OwnedRecord`] and hands it to the closure.
struct ClosureSink<F> {
    f: F,
    field_counts: Vec<usize>,
}

impl<F: FnMut(OwnedRecord)> RecordSink for ClosureSink<F> {
    fn begin(&mut self, templates: &[StructureTemplate]) -> Result<()> {
        self.field_counts = templates
            .iter()
            .map(StructureTemplate::field_count)
            .collect();
        Ok(())
    }
    fn record(&mut self, rec: &StreamRecord<'_>) -> Result<()> {
        let n = self.field_counts[rec.template_index];
        let mut columns: Vec<Vec<String>> = vec![Vec::new(); n];
        for cell in rec.cells {
            if cell.column < n {
                columns[cell.column].push(rec.cell_text(cell).to_string());
            }
        }
        (self.f)(OwnedRecord {
            template_index: rec.template_index,
            line_span: rec.line_span,
            columns,
        });
        Ok(())
    }
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

/// One configured streaming-extraction run — the only streaming entry point.
///
/// A session borrows an engine (whose [`DatamaranConfig`](crate::config::DatamaranConfig)
/// supplies the discovery parameters, record-span bound, and worker-thread budget), carries
/// the window tuning, error policy, and resource budgets of a [`StreamOptions`], and
/// optionally pins known templates (skipping head discovery) and a [`QuarantineSink`].
/// [`run`](Self::run) consumes the session and drives the guarded window loop, whose
/// per-window decision is the one [`crate::serve::ServeSession`] uses.
///
/// * no templates → head discovery on the first [`StreamOptions::head_bytes`];
/// * [`templates`](Self::templates) → zero discovery on the hot path (discover once,
///   stream many files of the same format);
/// * [`quarantine`](Self::quarantine) → under [`ErrorPolicy::Quarantine`], every
///   undecodable, oversized, or unmatched line is preserved byte-identical, in stream
///   order, alongside the normal record flow.
pub struct StreamSession<'e, 'q> {
    engine: &'e Datamaran,
    options: StreamOptions,
    templates: Option<Vec<StructureTemplate>>,
    quarantine: Option<&'q mut dyn QuarantineSink>,
}

impl<'e, 'q> StreamSession<'e, 'q> {
    /// Starts a session on `engine` with default [`StreamOptions`].
    pub fn new(engine: &'e Datamaran) -> Self {
        StreamSession {
            engine,
            options: StreamOptions::default(),
            templates: None,
            quarantine: None,
        }
    }

    /// Sets the window tuning, error policy, and resource budgets.
    pub fn options(mut self, options: StreamOptions) -> Self {
        self.options = options;
        self
    }

    /// Supplies **known** structure templates, skipping head discovery — for callers that
    /// extract many files of the same format and for benchmarks isolating the windowed
    /// extract-and-export path.  Record emission is identical to a discovering session
    /// that found the same templates.
    pub fn templates(mut self, templates: Vec<StructureTemplate>) -> Self {
        self.templates = Some(templates);
        self
    }

    /// Attaches a [`QuarantineSink`] receiving every diverted line byte-identically (only
    /// [`ErrorPolicy::Quarantine`] diverts lines; under other policies the sink stays
    /// silent).
    pub fn quarantine(mut self, sink: &'q mut dyn QuarantineSink) -> Self {
        self.quarantine = Some(sink);
        self
    }

    /// Runs the session: reads `reader` to the end (or to a violated budget), pushing
    /// every decided record into `sink` as a zero-copy [`StreamRecord`].  Memory stays
    /// `O(head + window)` for any stream length.
    ///
    /// [`RecordSink::begin`] receives the discovered (or supplied) templates before the
    /// first record; [`RecordSink::finish`] is always invoked on success, including
    /// graceful budget stops (see [`StreamSummary::stopped_reason`]).
    pub fn run<R: BufRead, S: RecordSink + ?Sized>(
        self,
        reader: R,
        sink: &mut S,
    ) -> Result<StreamSummary> {
        let StreamSession {
            engine,
            options,
            templates,
            mut quarantine,
        } = self;
        // A zero head would read nothing and report a non-empty stream as empty.
        if options.head_bytes == 0 {
            return Err(Error::InvalidConfig(
                "StreamOptions::head_bytes must be positive".into(),
            ));
        }
        // Phase 1: buffer the head — enough for discovery, or one window when the
        // templates are already known.
        let mut window_reader = WindowReader::new(reader);
        let mut summary = StreamSummary::default();
        let mut buffer = String::new();
        let target = match &templates {
            Some(_) => options.window_bytes.max(1),
            None => options.head_bytes,
        };
        let eof =
            window_reader.fill(&mut buffer, target, &options, &mut quarantine, &mut summary)?;
        if buffer.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let templates = match templates {
            Some(templates) => templates,
            None => {
                let head_result = engine.extract(&buffer)?;
                head_result.templates().into_iter().cloned().collect()
            }
        };
        stream_windows(
            engine,
            window_reader,
            options,
            templates,
            buffer,
            eof,
            sink,
            quarantine,
            summary,
        )
    }

    /// Runs the session, invoking `f` with an owned copy of every record — the closure
    /// convenience over [`run`](Self::run) (the push-based sink API avoids the per-record
    /// `String` allocations).
    pub fn run_with<R: BufRead, F: FnMut(OwnedRecord)>(
        self,
        reader: R,
        f: F,
    ) -> Result<StreamSummary> {
        let mut adapter = ClosureSink {
            f,
            field_counts: Vec::new(),
        };
        self.run(reader, &mut adapter)
    }
}

/// Phase 2 of the streaming extractor: window-by-window extraction of an already-started
/// stream (`buffer` holds the first window, `eof` whether the reader is exhausted).
#[allow(clippy::too_many_arguments)]
fn stream_windows<R: BufRead, S: RecordSink + ?Sized>(
    engine: &Datamaran,
    mut window_reader: WindowReader<R>,
    options: StreamOptions,
    templates: Vec<StructureTemplate>,
    mut buffer: String,
    mut eof: bool,
    sink: &mut S,
    mut quarantine: Option<&mut dyn QuarantineSink>,
    mut summary: StreamSummary,
) -> Result<StreamSummary> {
    if templates.is_empty() {
        return Err(Error::NoStructureFound);
    }
    let config = engine.config();
    let max_span = config.max_line_span;
    summary.templates = templates.clone();
    // Compile the templates once; the matcher is reused across every window.
    let matcher = SpanLineMatcher::new(&templates, max_span);
    let timed = Instant::now();
    sink.begin(&templates)?;
    let begin_seconds = timed.elapsed().as_secs_f64();

    // Worker budget for per-window extraction; small windows fall back to
    // the single-threaded loop via `effective_workers` (thread-invariance is enforced by
    // `tests/streaming_export_equivalence.rs`).
    let threads = resolve_threads(config.extraction_threads);
    let mut window_loop = WindowLoop::default();

    // Phase 2: window-by-window extraction.
    loop {
        // Window-bytes budget: a resident window past the cap means the carry tail (or a
        // single record) has outgrown what the caller is willing to keep in memory.
        if let Some(cap) = options.budgets.max_window_bytes {
            if buffer.len() > cap {
                summary.stopped_reason = Some(StopReason::WindowBytes);
                break;
            }
        }
        // `metas` holds one entry per buffered line: its length is the window's line count.
        let metas = &window_reader.metas;
        let chunks = effective_workers(threads, metas.len(), MIN_CHUNK_LINES);
        let mut table = None;
        let (window, carried) = window_loop.decide(
            &mut buffer,
            eof,
            max_span,
            &mut summary,
            sink,
            |dataset, line, bufs| {
                match_window_line(&matcher, dataset, line, bufs, chunks, &mut table)
            },
            |line, text, summary| match metas.get(line) {
                // Lossily decoded lines were already quarantined raw at read time;
                // quarantining the window copy too would duplicate (and corrupt — the
                // window holds replacement characters) the entry.
                Some(meta) if options.on_error == ErrorPolicy::Quarantine && !meta.lossy => {
                    quarantine_bytes(
                        &mut quarantine,
                        summary,
                        meta.input_line,
                        QuarantineReason::Unmatched,
                        text.as_bytes(),
                    )
                }
                _ => Ok(()),
            },
        )?;
        debug_assert_eq!(
            window.lines + carried,
            window_reader.metas.len(),
            "line metadata stays aligned"
        );
        window_reader.consume_metas(window.lines);

        // Soft budgets: stop gracefully (flushing the sink) rather than abort — everything
        // durable so far is preserved and the summary says why we stopped.
        if let Some(limit) = options.budgets.max_match_seconds {
            if summary.match_seconds > limit {
                summary.stopped_reason = Some(StopReason::MatchSeconds);
                break;
            }
        }
        if let Some(limit) = options.budgets.max_quarantine_fraction {
            let seen = window_reader.input_line.max(1);
            if summary.quarantined_lines as f64 / seen as f64 > limit {
                summary.stopped_reason = Some(StopReason::QuarantineFraction);
                break;
            }
        }

        // A window decided with `eof` semantics consumed everything that was left.
        if eof {
            break;
        }
        // The next window reads at least as many new bytes as it carries, so long lines,
        // whose carried tail can outgrow `window_bytes`, are not rescanned per line.
        let target = options.window_bytes.max(buffer.len()).max(1);
        eof = window_reader.fill(&mut buffer, target, &options, &mut quarantine, &mut summary)?;
    }

    let timed = Instant::now();
    sink.finish()?;
    summary.sink_seconds += begin_seconds + timed.elapsed().as_secs_f64();
    Ok(summary)
}

/// Sends one line to the quarantine sink (when attached) and keeps the counters in sync.
fn quarantine_bytes(
    quarantine: &mut Option<&mut dyn QuarantineSink>,
    summary: &mut StreamSummary,
    line: usize,
    reason: QuarantineReason,
    bytes: &[u8],
) -> Result<()> {
    if let Some(sink) = quarantine.as_deref_mut() {
        sink.quarantine(line, reason, bytes)?;
    }
    summary.quarantined_lines += 1;
    summary.quarantined_bytes += bytes.len();
    Ok(())
}

/// Per-line bookkeeping for every line currently resident in the window buffer.
#[derive(Clone, Copy, Debug)]
struct LineMeta {
    /// 0-based index of the line in the raw input stream (counting dropped lines too).
    input_line: usize,
    /// The buffered text is a lossy decoding; the raw bytes were already quarantined.
    lossy: bool,
}

/// What one raw-line read produced.
enum RawLine {
    /// End of stream, nothing read.
    Eof,
    /// One line (terminator included unless the stream ended without one); `seen` is the
    /// line's true byte length, which can exceed `raw.len()` when the overflow of an
    /// oversized line was discarded instead of retained.
    Line { seen: usize },
}

/// The byte-level line reader feeding the window buffer: decodes lines tolerantly (lossy
/// UTF-8 with raw-byte quarantine), enforces the single-line byte cap without ever holding
/// more than one line (or, when discarding, one cap's worth) of an oversized line, and
/// tracks the input line number and per-buffered-line metadata the quarantine path needs.
struct WindowReader<R> {
    reader: R,
    /// Scratch holding the bytes of the line currently being read.
    raw: Vec<u8>,
    /// Lines read from the input so far (dropped ones included).
    input_line: usize,
    /// Metadata for each line currently in the window buffer, front = oldest.
    metas: VecDeque<LineMeta>,
}

impl<R: BufRead> WindowReader<R> {
    fn new(reader: R) -> Self {
        WindowReader {
            reader,
            raw: Vec::new(),
            input_line: 0,
            metas: VecDeque::new(),
        }
    }

    /// Drops metadata for `n` consumed lines.
    fn consume_metas(&mut self, n: usize) {
        for _ in 0..n {
            self.metas.pop_front();
        }
    }

    /// Reads one raw line (terminator included) into `self.raw`.  When `max_keep` is set,
    /// at most `max_keep + 1` bytes are retained — the rest of the line is consumed and
    /// discarded in bounded chunks, so a pathological multi-gigabyte line costs `O(cap)`
    /// memory, not `O(line)`.
    fn read_raw_line(&mut self, max_keep: Option<usize>) -> Result<RawLine> {
        self.raw.clear();
        let mut seen = 0usize;
        loop {
            let available = self.reader.fill_buf()?;
            if available.is_empty() {
                return Ok(if seen == 0 {
                    RawLine::Eof
                } else {
                    RawLine::Line { seen }
                });
            }
            let (take, done) = match available.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (available.len(), false),
            };
            let keep_limit = max_keep.map_or(take, |cap| {
                (cap + 1).saturating_sub(self.raw.len()).min(take)
            });
            self.raw.extend_from_slice(&available[..keep_limit]);
            self.reader.consume(take);
            seen += take;
            if done {
                return Ok(RawLine::Line { seen });
            }
        }
    }

    /// Appends whole lines from the input to `buffer` until at least `target` new bytes
    /// have been buffered or the stream ends, applying the error policy and the line-bytes
    /// budget.  Returns `true` at end of stream.
    fn fill(
        &mut self,
        buffer: &mut String,
        target: usize,
        options: &StreamOptions,
        quarantine: &mut Option<&mut dyn QuarantineSink>,
        summary: &mut StreamSummary,
    ) -> Result<bool> {
        let start_len = buffer.len();
        let cap = options.budgets.max_line_bytes;
        // Only the quarantine policy needs the full bytes of an oversized line (to
        // preserve them); skip/abort can discard the overflow as it streams past.
        let max_keep = match options.on_error {
            ErrorPolicy::Quarantine => None,
            ErrorPolicy::Skip | ErrorPolicy::Abort => cap,
        };
        loop {
            if buffer.len() - start_len >= target {
                return Ok(false);
            }
            match self.read_raw_line(max_keep)? {
                RawLine::Eof => return Ok(true),
                RawLine::Line { seen } => {
                    let line = self.input_line;
                    self.input_line += 1;
                    if let Some(cap) = cap {
                        if seen > cap {
                            summary.oversized_lines += 1;
                            match options.on_error {
                                ErrorPolicy::Abort => {
                                    return Err(Error::BudgetExceeded {
                                        budget: BudgetKind::LineBytes,
                                        limit: cap as u64,
                                        observed: seen as u64,
                                    });
                                }
                                ErrorPolicy::Quarantine => {
                                    quarantine_bytes(
                                        quarantine,
                                        summary,
                                        line,
                                        QuarantineReason::Oversized,
                                        &self.raw,
                                    )?;
                                }
                                ErrorPolicy::Skip => {}
                            }
                            continue; // the line never enters the window
                        }
                    }
                    match std::str::from_utf8(&self.raw) {
                        Ok(text) => {
                            buffer.push_str(text);
                            self.metas.push_back(LineMeta {
                                input_line: line,
                                lossy: false,
                            });
                        }
                        Err(e) => {
                            summary.invalid_utf8_lines += 1;
                            match options.on_error {
                                ErrorPolicy::Abort => {
                                    return Err(Error::Decode {
                                        line,
                                        message: format!("invalid UTF-8: {e}"),
                                    });
                                }
                                ErrorPolicy::Quarantine => {
                                    quarantine_bytes(
                                        quarantine,
                                        summary,
                                        line,
                                        QuarantineReason::InvalidUtf8,
                                        &self.raw,
                                    )?;
                                }
                                ErrorPolicy::Skip => {}
                            }
                            buffer.push_str(&String::from_utf8_lossy(&self.raw));
                            self.metas.push_back(LineMeta {
                                input_line: line,
                                lossy: true,
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn kv_log(n: usize) -> String {
        let mut s = String::new();
        for i in 0..n {
            s.push_str(&format!(
                "host=h{};cpu={};mem={}\n",
                i % 12,
                i % 100,
                (i * 7) % 512
            ));
            if i % 23 == 5 {
                s.push_str("--- rotating log file ---\n");
            }
        }
        s
    }

    fn multiline_log(n: usize) -> String {
        let mut s = String::new();
        for i in 0..n {
            s.push_str(&format!("BEGIN {i}\nvalue={};status=ok\n", i * 3));
        }
        s
    }

    #[test]
    fn streaming_matches_in_memory_extraction() {
        let text = kv_log(500);
        let engine = Datamaran::with_defaults();
        let in_memory = engine.extract(&text).unwrap();

        let mut streamed = Vec::new();
        let summary = StreamSession::new(&engine)
            .options(StreamOptions {
                head_bytes: 4 * 1024,
                window_bytes: 2 * 1024,
                ..StreamOptions::default()
            })
            .run_with(Cursor::new(text.clone()), |r| streamed.push(r))
            .unwrap();

        assert_eq!(summary.records, in_memory.record_count());
        assert_eq!(summary.noise_lines, in_memory.noise_lines.len());
        assert_eq!(summary.bytes_processed, text.len());
        assert_eq!(streamed.len(), summary.records);
        assert!(summary.windows > 1);
        assert!(summary.stopped_reason.is_none());
        assert_eq!(summary.window_unmatched.len(), summary.windows);
        let counted: usize = summary.window_unmatched.iter().map(|w| w.unmatched).sum();
        assert_eq!(counted, summary.noise_lines);
        let lines: usize = summary.window_unmatched.iter().map(|w| w.lines).sum();
        assert_eq!(lines, summary.lines_processed);
    }

    #[test]
    fn streaming_handles_multiline_records_across_windows() {
        let text = multiline_log(300);
        let engine = Datamaran::with_defaults();

        let mut streamed = Vec::new();
        // A tiny window forces many record-spanning window boundaries.
        let summary = StreamSession::new(&engine)
            .options(StreamOptions {
                head_bytes: 2 * 1024,
                window_bytes: 256,
                ..StreamOptions::default()
            })
            .run_with(Cursor::new(text.clone()), |r| streamed.push(r))
            .unwrap();

        assert_eq!(summary.records, 300);
        assert_eq!(summary.noise_lines, 0);
        // Every record spans exactly two lines and line spans are strictly increasing.
        let mut prev_end = 0usize;
        for r in &streamed {
            assert_eq!(r.line_span.1 - r.line_span.0, 2);
            assert!(r.line_span.0 >= prev_end);
            prev_end = r.line_span.1;
        }
        assert_eq!(prev_end, 600);
    }

    #[test]
    fn streamed_column_values_match_the_source() {
        let mut text = String::new();
        for i in 0..120 {
            text.push_str(&format!("id={i};v={}\n", i * 7 + 3));
        }
        let engine = Datamaran::with_defaults();
        let mut rows: Vec<Vec<String>> = Vec::new();
        StreamSession::new(&engine)
            .options(StreamOptions {
                head_bytes: 512,
                window_bytes: 128,
                ..StreamOptions::default()
            })
            .run_with(Cursor::new(text), |r| {
                rows.push(r.columns.iter().map(|c| c.join("|")).collect())
            })
            .unwrap();
        assert_eq!(rows.len(), 120);
        assert!(rows.iter().all(|r| !r.is_empty()));
        // Whatever granularity the discovered template has, the values of record 5 must come
        // from line 5 of the source.
        assert!(rows[5].concat().contains('5'));
        assert!(rows[5].concat().contains("38"));
    }

    #[test]
    fn streaming_backends_agree() {
        use crate::parser::parse_dataset;
        let text = multiline_log(150);
        let options = StreamOptions {
            head_bytes: 2 * 1024,
            window_bytes: 512,
            ..StreamOptions::default()
        };
        let engine = Datamaran::with_defaults();
        let mut streamed = Vec::new();
        let templates = StreamSession::new(&engine)
            .options(options)
            .run_with(Cursor::new(text.clone()), |r| streamed.push(r))
            .unwrap()
            .templates;
        // The tree-walking reference on the whole text, with the templates the stream used.
        let dataset = Dataset::new(text.as_str());
        let reference: Vec<OwnedRecord> = parse_dataset(&dataset, &templates, 10)
            .records
            .iter()
            .map(|rec| {
                let mut columns = vec![Vec::new(); templates[rec.template_index].field_count()];
                for cell in &rec.fields {
                    columns[cell.column].push(text[cell.start..cell.end].to_string());
                }
                OwnedRecord {
                    template_index: rec.template_index,
                    line_span: rec.line_span,
                    columns,
                }
            })
            .collect();
        assert_eq!(streamed.len(), 150);
        assert_eq!(streamed, reference);
    }

    #[test]
    fn zero_head_is_a_config_error_not_an_empty_dataset() {
        let text = kv_log(200);
        let engine = Datamaran::with_defaults();
        let zero_head = StreamOptions {
            head_bytes: 0,
            ..StreamOptions::default()
        };
        let err = StreamSession::new(&engine)
            .options(zero_head)
            .run_with(Cursor::new(text.clone()), |_| {})
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("head_bytes"), "{err}");
        assert_eq!(err.exit_code(), 2);
        let one_byte_head = StreamOptions {
            head_bytes: 1,
            ..StreamOptions::default()
        };
        let summary = StreamSession::new(&engine)
            .options(one_byte_head)
            .run_with(Cursor::new(text), |_| {})
            .unwrap();
        assert!(summary.records > 0);
    }

    #[test]
    fn empty_stream_is_an_error() {
        let engine = Datamaran::with_defaults();
        let err = StreamSession::new(&engine)
            .run_with(Cursor::new(String::new()), |_| {})
            .unwrap_err();
        assert_eq!(err, Error::EmptyDataset);
    }

    #[test]
    fn summary_reports_lines_and_templates() {
        let text = kv_log(100);
        let engine = Datamaran::with_defaults();
        let summary = StreamSession::new(&engine)
            .run_with(Cursor::new(text.clone()), |_| {})
            .unwrap();
        assert!(!summary.templates.is_empty());
        assert_eq!(summary.lines_processed, text.lines().count());
        assert!(summary.peak_window_bytes >= text.len());
        assert_eq!(summary.windows, 1);
    }

    /// A record whose last line ends exactly at the chunk edge: the window boundary falls
    /// on a record boundary, so the carry-over tail is empty — the next window must resume
    /// cleanly and the record must be emitted exactly once.
    #[test]
    fn record_ending_exactly_at_chunk_edge() {
        let engine = Datamaran::with_defaults();
        let line = "key=abc;val=123\n";
        let text: String = line.repeat(400);
        // The reader appends whole lines until >= target bytes, so a window target
        // that is an exact multiple of the record length makes every window end exactly
        // at a record's final newline.
        let options = StreamOptions {
            head_bytes: line.len() * 64,
            window_bytes: line.len() * 8,
            ..StreamOptions::default()
        };
        let mut streamed = Vec::new();
        let summary = StreamSession::new(&engine)
            .options(options)
            .run_with(Cursor::new(text.clone()), |r| streamed.push(r))
            .unwrap();
        assert_eq!(summary.records, 400);
        assert_eq!(summary.noise_lines, 0);
        assert_eq!(summary.bytes_processed, text.len());
        // Exactly once, in order, with contiguous line spans.
        for (i, r) in streamed.iter().enumerate() {
            assert_eq!(r.line_span, (i, i + 1));
        }
    }

    /// A window full of noise (zero matches) followed by a window that matches again: the
    /// noise-only window must not stall the loop or desynchronize the global line counter.
    #[test]
    fn zero_match_chunk_followed_by_matching_chunk() {
        let engine = Datamaran::with_defaults();
        let mut text = String::new();
        for i in 0..120 {
            text.push_str(&format!("host=h{};cpu={}\n", i % 7, i % 100));
        }
        let noise_start = text.lines().count();
        // A noise block far larger than one window, irregular enough that no secondary
        // record type can form, and free of the kv template's formatting characters.
        for i in 0..80u64 {
            let word = ["corrupted", "torn", "panic at", "oom killed the", "??"][i as usize % 5];
            text.push_str(&format!(
                "!{} {word} {}!\n",
                i * 31 % 97,
                "x".repeat(1 + (i as usize * 7) % 9)
            ));
        }
        for i in 0..120 {
            text.push_str(&format!("host=x{};cpu={}\n", i % 7, (i * 3) % 100));
        }
        // The head stays strictly inside the leading kv section, so exactly one record
        // type is discovered and the noise block genuinely matches nothing.
        let options = StreamOptions {
            head_bytes: 1024,
            window_bytes: 256,
            ..StreamOptions::default()
        };
        let mut streamed = Vec::new();
        let summary = StreamSession::new(&engine)
            .options(options)
            .run_with(Cursor::new(text.clone()), |r| streamed.push(r))
            .unwrap();
        assert_eq!(summary.records, 240);
        assert_eq!(summary.noise_lines, 80);
        assert_eq!(summary.bytes_processed, text.len());
        // The first record after the noise block sits exactly `noise lines` further down.
        let after_noise = streamed
            .iter()
            .find(|r| r.line_span.0 >= noise_start)
            .unwrap();
        assert_eq!(after_noise.line_span.0, noise_start + 80);
    }

    /// Supplying the templates up front must reproduce exactly what head discovery + the
    /// same templates would emit — discover once, stream many files of the same format.
    #[test]
    fn with_templates_matches_discovered_streaming() {
        let text = kv_log(300);
        let engine = Datamaran::with_defaults();
        let options = StreamOptions {
            head_bytes: 4 * 1024,
            window_bytes: 1024,
            ..StreamOptions::default()
        };
        let mut discovered = Vec::new();
        let summary = StreamSession::new(&engine)
            .options(options)
            .run_with(Cursor::new(text.clone()), |r| discovered.push(r))
            .unwrap();

        struct Collect(Vec<(usize, (usize, usize), Vec<String>)>);
        impl crate::export::RecordSink for Collect {
            fn begin(&mut self, _t: &[StructureTemplate]) -> Result<()> {
                Ok(())
            }
            fn record(&mut self, r: &StreamRecord<'_>) -> Result<()> {
                self.0.push((
                    r.template_index,
                    r.line_span,
                    r.cells.iter().map(|c| r.cell_text(c).to_string()).collect(),
                ));
                Ok(())
            }
            fn finish(&mut self) -> Result<()> {
                Ok(())
            }
        }
        let mut sink = Collect(Vec::new());
        let summary2 = StreamSession::new(&engine)
            .options(options)
            .templates(summary.templates.clone())
            .run(Cursor::new(text), &mut sink)
            .unwrap();
        assert_eq!(summary2.records, summary.records);
        assert_eq!(summary2.noise_lines, summary.noise_lines);
        assert_eq!(summary2.lines_processed, summary.lines_processed);
        assert_eq!(sink.0.len(), discovered.len());
        for (got, want) in sink.0.iter().zip(&discovered) {
            assert_eq!(got.0, want.template_index);
            assert_eq!(got.1, want.line_span);
            let flat: Vec<String> = want.columns.iter().flatten().cloned().collect();
            assert_eq!(got.2, flat);
        }
    }

    /// The `O(window)` bound: a stream much larger than one window must not push the peak
    /// resident window bytes anywhere near the stream length — also when every line is
    /// longer than a window, where the carried tail of `L` lines outgrows `window_bytes`.
    #[test]
    fn peak_window_bytes_stays_bounded() {
        let engine = Datamaran::with_defaults();
        let text = kv_log(20_000); // ~440 KB
        let options = StreamOptions {
            head_bytes: 8 * 1024,
            window_bytes: 8 * 1024,
            ..StreamOptions::default()
        };
        let summary = StreamSession::new(&engine)
            .options(options)
            .run_with(Cursor::new(text.clone()), |_| {})
            .unwrap();
        assert_eq!(summary.bytes_processed, text.len());
        assert!(
            summary.peak_window_bytes < text.len() / 4,
            "peak {} vs stream {}",
            summary.peak_window_bytes,
            text.len()
        );
        assert!(summary.windows > 10);

        // Lines of twice the window size (~6.5 MB).  A window reads at least as many new
        // bytes as it carries, so it decides about `L` lines rather than one, and the
        // records are those of a single window over the whole stream.
        let lines = 400;
        let long: String = (0..lines)
            .map(|i| {
                if i % 23 == 5 {
                    "--- rotating log file ---\n".to_string()
                } else {
                    format!(
                        "host=h{};cpu={};mem={}\n",
                        i % 12,
                        i % 100,
                        "7".repeat(16 * 1024)
                    )
                }
            })
            .collect();
        let run = |window_bytes: usize| {
            let mut records = Vec::new();
            let summary = StreamSession::new(&engine)
                .options(StreamOptions {
                    window_bytes,
                    ..options
                })
                .templates(summary.templates.clone())
                .run_with(Cursor::new(long.as_bytes()), |r| records.push(r))
                .unwrap();
            (summary, records)
        };
        let (windowed, windowed_records) = run(8 * 1024);
        let (whole, whole_records) = run(long.len() + 1);
        assert_eq!(whole.windows, 1);
        assert_eq!(windowed_records, whole_records);
        assert_eq!(windowed.noise_lines, whole.noise_lines);
        let span = engine.config().max_line_span;
        assert!(
            windowed.windows * span <= 2 * lines,
            "{} windows for {lines} lines",
            windowed.windows
        );
        assert!(
            windowed.peak_window_bytes < long.len() / 4,
            "peak {} vs stream {}",
            windowed.peak_window_bytes,
            long.len()
        );
    }

    // ---------------------------------------------------------------------------------
    // Fault tolerance: decoding, quarantine, budgets
    // ---------------------------------------------------------------------------------

    /// Builds a kv stream with a block of invalid-UTF-8 lines spliced into the middle.
    fn corrupted_kv(n: usize, bad_every: usize) -> (Vec<u8>, usize) {
        let mut bytes = Vec::new();
        let mut bad = 0usize;
        for i in 0..n {
            if i > 0 && i % bad_every == 0 {
                bytes.extend_from_slice(b"garbage \xFF\xFE bytes\n");
                bad += 1;
            }
            bytes.extend_from_slice(format!("host=h{};cpu={}\n", i % 9, i % 100).as_bytes());
        }
        (bytes, bad)
    }

    #[test]
    fn invalid_utf8_is_decoded_lossily_and_counted() {
        let (bytes, bad) = corrupted_kv(400, 37);
        let engine = Datamaran::with_defaults();
        let options = StreamOptions {
            head_bytes: 2 * 1024,
            window_bytes: 512,
            ..StreamOptions::default()
        };
        // Default policy (skip): the stream completes, bad lines count as lossy + noise.
        let summary = StreamSession::new(&engine)
            .options(options)
            .run_with(Cursor::new(bytes.clone()), |_| {})
            .unwrap();
        assert_eq!(summary.invalid_utf8_lines, bad);
        assert_eq!(summary.records, 400);
        assert!(summary.noise_lines >= bad);
        assert_eq!(
            summary.quarantined_lines, 0,
            "skip policy preserves nothing"
        );
        assert_eq!(summary.lines_processed, 400 + bad);
    }

    #[test]
    fn invalid_utf8_aborts_under_abort_policy() {
        let (bytes, _) = corrupted_kv(400, 37);
        let engine = Datamaran::with_defaults();
        let options = StreamOptions {
            head_bytes: 2 * 1024,
            window_bytes: 512,
            on_error: ErrorPolicy::Abort,
            ..StreamOptions::default()
        };
        let err = StreamSession::new(&engine)
            .options(options)
            .run_with(Cursor::new(bytes), |_| {})
            .unwrap_err();
        assert!(matches!(err, Error::Decode { line: 37, .. }), "{err:?}");
    }

    #[test]
    fn quarantine_preserves_corrupt_lines_byte_identical() {
        let (bytes, bad) = corrupted_kv(400, 37);
        let engine = Datamaran::with_defaults();
        let options = StreamOptions {
            head_bytes: 2 * 1024,
            window_bytes: 512,
            on_error: ErrorPolicy::Quarantine,
            ..StreamOptions::default()
        };
        let mut quarantine = VecQuarantineSink::default();
        let mut counting = crate::export::CountingSink::default();
        let summary = StreamSession::new(&engine)
            .options(options)
            .quarantine(&mut quarantine)
            .run(Cursor::new(bytes.clone()), &mut counting)
            .unwrap();
        let corrupt: Vec<&QuarantineEntry> = quarantine
            .entries
            .iter()
            .filter(|e| e.reason == QuarantineReason::InvalidUtf8)
            .collect();
        assert_eq!(corrupt.len(), bad);
        for e in &corrupt {
            assert_eq!(e.bytes, b"garbage \xFF\xFE bytes\n".to_vec());
        }
        // Unmatched lines (the lossy decodings count as noise) are preserved too; the
        // invalid-UTF-8 lines are NOT double-quarantined as unmatched.
        assert_eq!(summary.quarantined_lines, quarantine.entries.len());
        let unmatched = quarantine
            .entries
            .iter()
            .filter(|e| e.reason == QuarantineReason::Unmatched)
            .count();
        assert_eq!(summary.noise_lines, unmatched + bad);
        assert_eq!(summary.records, 400);
    }

    #[test]
    fn crlf_and_truncated_final_line_round_trip_through_the_reader() {
        // CRLF terminators and a final record with no trailing newline: the reader must
        // pass both through byte-identically (they are valid UTF-8).
        let text = "id=1;v=a\r\nid=2;v=b\r\nid=3;v=c".to_string();
        let engine = Datamaran::with_defaults();
        let mut seen = Vec::new();
        let summary = StreamSession::new(&engine)
            .run_with(Cursor::new(text.clone()), |r| seen.push(r))
            .unwrap();
        assert_eq!(summary.bytes_processed, text.len());
        assert_eq!(summary.lines_processed, 3);
        assert_eq!(summary.invalid_utf8_lines, 0);
    }

    #[test]
    fn oversized_lines_are_dropped_and_quarantined_per_policy() {
        let mut bytes = Vec::new();
        for i in 0..200 {
            bytes.extend_from_slice(format!("host=h{};cpu={}\n", i % 9, i % 100).as_bytes());
            if i == 120 {
                let huge = format!("PAYLOAD {}\n", "x".repeat(8 * 1024));
                bytes.extend_from_slice(huge.as_bytes());
            }
        }
        let engine = Datamaran::with_defaults();
        let base = StreamOptions {
            head_bytes: 1024,
            window_bytes: 512,
            budgets: StreamBudgets {
                max_line_bytes: Some(1024),
                ..StreamBudgets::default()
            },
            ..StreamOptions::default()
        };

        // Skip: the line vanishes (never buffered), everything else extracts.
        let summary = StreamSession::new(&engine)
            .options(base)
            .run_with(Cursor::new(bytes.clone()), |_| {})
            .unwrap();
        assert_eq!(summary.oversized_lines, 1);
        assert_eq!(summary.records, 200);
        assert_eq!(summary.quarantined_lines, 0);

        // Quarantine: the full line is preserved byte-identically.
        let mut quarantine = VecQuarantineSink::default();
        let mut counting = crate::export::CountingSink::default();
        let options = base.with_on_error(ErrorPolicy::Quarantine);
        let summary = StreamSession::new(&engine)
            .options(options)
            .quarantine(&mut quarantine)
            .run(Cursor::new(bytes.clone()), &mut counting)
            .unwrap();
        assert_eq!(summary.oversized_lines, 1);
        let oversized: Vec<&QuarantineEntry> = quarantine
            .entries
            .iter()
            .filter(|e| e.reason == QuarantineReason::Oversized)
            .collect();
        assert_eq!(oversized.len(), 1);
        assert_eq!(oversized[0].bytes.len(), 8 * 1024 + 9);
        assert!(oversized[0].bytes.starts_with(b"PAYLOAD x"));
        assert!(oversized[0].bytes.ends_with(b"x\n"));
        // Its input line index accounts for every raw line before it.
        assert_eq!(oversized[0].line, 121);

        // Abort: structured budget error.
        let options = base.with_on_error(ErrorPolicy::Abort);
        let err = StreamSession::new(&engine)
            .options(options)
            .run_with(Cursor::new(bytes), |_| {})
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::BudgetExceeded {
                    budget: BudgetKind::LineBytes,
                    limit: 1024,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn match_seconds_budget_stops_gracefully() {
        let text = kv_log(2000);
        let engine = Datamaran::with_defaults();
        let options = StreamOptions {
            head_bytes: 1024,
            window_bytes: 256,
            budgets: StreamBudgets {
                max_match_seconds: Some(0.0),
                ..StreamBudgets::default()
            },
            ..StreamOptions::default()
        };
        let summary = StreamSession::new(&engine)
            .options(options)
            .run_with(Cursor::new(text.clone()), |_| {})
            .unwrap();
        assert_eq!(summary.stopped_reason, Some(StopReason::MatchSeconds));
        // Exactly one window was processed before the budget check fired, and the stream
        // was not consumed to the end.
        assert_eq!(summary.windows, 1);
        assert!(summary.bytes_processed < text.len());
    }

    /// `match_seconds` counts matching only: a slow sink shows in `sink_seconds`, so the
    /// match budget cannot stop a stream whose sink is merely slow.
    #[test]
    fn match_seconds_leave_out_a_slow_sink() {
        struct SlowSink;
        impl RecordSink for SlowSink {
            fn begin(&mut self, _templates: &[StructureTemplate]) -> Result<()> {
                Ok(())
            }
            fn record(&mut self, _record: &StreamRecord<'_>) -> Result<()> {
                std::thread::sleep(std::time::Duration::from_micros(500));
                Ok(())
            }
            fn finish(&mut self) -> Result<()> {
                Ok(())
            }
        }
        let engine = Datamaran::with_defaults();
        let options = StreamOptions {
            head_bytes: 1024,
            window_bytes: 2048,
            ..StreamOptions::default()
        };
        let summary = StreamSession::new(&engine)
            .options(options)
            .run(Cursor::new(kv_log(500)), &mut SlowSink)
            .unwrap();
        assert_eq!(summary.records, 500);
        assert!(summary.sink_seconds >= 0.2, "sink {}", summary.sink_seconds);
        assert!(
            summary.match_seconds * 10.0 < summary.sink_seconds,
            "match {} vs sink {}",
            summary.match_seconds,
            summary.sink_seconds
        );
    }

    #[test]
    fn quarantine_fraction_budget_stops_gracefully() {
        // Clean head, then pure garbage: once the garbage dominates, the stream stops.
        let mut text = String::new();
        for i in 0..120 {
            text.push_str(&format!("host=h{};cpu={}\n", i % 7, i % 100));
        }
        for i in 0..4000u64 {
            text.push_str(&format!("?? torn {} frame {}\n", i * 31 % 97, i));
        }
        let engine = Datamaran::with_defaults();
        let options = StreamOptions {
            head_bytes: 1024,
            window_bytes: 256,
            on_error: ErrorPolicy::Quarantine,
            budgets: StreamBudgets {
                max_quarantine_fraction: Some(0.5),
                ..StreamBudgets::default()
            },
        };
        let mut quarantine = VecQuarantineSink::default();
        let mut counting = crate::export::CountingSink::default();
        let summary = StreamSession::new(&engine)
            .options(options)
            .quarantine(&mut quarantine)
            .run(Cursor::new(text.clone()), &mut counting)
            .unwrap();
        assert_eq!(summary.stopped_reason, Some(StopReason::QuarantineFraction));
        assert!(summary.bytes_processed < text.len());
        assert!(!quarantine.entries.is_empty());
    }

    #[test]
    fn window_bytes_budget_stops_gracefully() {
        let text = kv_log(2000);
        let engine = Datamaran::with_defaults();
        let options = StreamOptions {
            head_bytes: 8 * 1024,
            window_bytes: 4 * 1024,
            budgets: StreamBudgets {
                // The head window alone (8 KiB target) exceeds this cap.
                max_window_bytes: Some(2 * 1024),
                ..StreamBudgets::default()
            },
            ..StreamOptions::default()
        };
        let summary = StreamSession::new(&engine)
            .options(options)
            .run_with(Cursor::new(text), |_| {})
            .unwrap();
        assert_eq!(summary.stopped_reason, Some(StopReason::WindowBytes));
        assert_eq!(summary.records, 0);
        assert_eq!(summary.windows, 0);
    }

    #[test]
    fn write_quarantine_sink_concatenates_raw_bytes() {
        let mut sink = WriteQuarantineSink::new(Vec::<u8>::new());
        sink.quarantine(0, QuarantineReason::InvalidUtf8, b"\xFF\xFE\n")
            .unwrap();
        sink.quarantine(3, QuarantineReason::Unmatched, b"noise line\n")
            .unwrap();
        assert_eq!(sink.lines, 2);
        assert_eq!(sink.bytes, 14);
        let out = sink.into_writer().unwrap();
        assert_eq!(out, b"\xFF\xFE\nnoise line\n".to_vec());
    }
}
