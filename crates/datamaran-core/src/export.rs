//! Export of extraction results to interchange formats (JSON reports, CSV tables, and
//! push-based streaming sinks).
//!
//! The end goal of structure extraction is to hand the structured data to downstream tools
//! (§1: "analyzed in conjunction with other datasets").  This module provides the formats
//! those tools most commonly ingest:
//!
//! * machine-readable **JSON reports**, each written straight from the engine's own
//!   summary by one function: [`extraction_report`] (discovered structure templates,
//!   per-column MDL data types and the semantic types of [`crate::semtype`], coverage,
//!   search statistics and step timings) and [`stream_report`] (the counters of a
//!   streaming run, also the `stream` section of the serving metrics document);
//! * **CSV** serialization of the relational output ([`table_to_csv`], [`write_table_csv`],
//!   [`all_tables_csv`]), with RFC-4180-style quoting;
//! * **JSON Lines** serialization of the per-record values ([`all_records_jsonl`]);
//! * push-based **streaming sinks** ([`RecordSink`], [`CsvSink`], [`JsonLinesSink`],
//!   [`CountingSink`], [`Tee`]) fed by
//!   [`StreamSession`](crate::streaming::StreamSession): records are serialized
//!   straight from the chunk window's text without ever materializing a [`Table`], and the
//!   emitted bytes are **identical** to the materialized serializers above (enforced by
//!   `tests/streaming_export_equivalence.rs`);
//! * a **retrying writer** ([`RetryingWriter`]) under any sink's output, repeating a
//!   `write` or `flush` that failed with a transient error after a deterministic
//!   exponential backoff.
//!
//! Retrying happens at the byte writer, not at the record: by the [`Write`] contract a
//! `write` that returns an error wrote none of its bytes, so repeating exactly that call is
//! exact, and every sink above the writer — [`CsvSink`], [`JsonLinesSink`], any [`Tee`] —
//! retries byte for byte with no retry code of its own.
//!
//! Sink failures surface as [`Error::Sink`], naming the sink
//! (`csv:<table>`, `jsonl`) and preserving the underlying I/O error's kind, so callers can
//! tell a timed-out write that outlived its retries from a full disk.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::{is_transient_kind, Error, Result as CoreResult};
use crate::extract::MatchStats;
use crate::fieldtype::FieldType;
use crate::json::{self, JsonValue};
use crate::parser::{FieldCell, RecordMatch};
use crate::pipeline::{ExtractionResult, PipelineStats};
use crate::relational::{build_schema, layout_record, RowIdSynth, RowWriter, Table};
use crate::semtype::{annotate_table, TableAnnotation};
use crate::streaming::{StreamRecord, StreamSummary};
use crate::structure::StructureTemplate;
use std::convert::Infallible;
use std::io::{self, Write};
use std::time::Duration;

/// The JSON report of one extraction run over `text` (what the CLI's `extract --format
/// json` prints): dataset size, record and noise counts, one object per discovered record
/// type, and the search statistics.  Render it with [`JsonValue::to_pretty`].
pub fn extraction_report(text: &str, result: &ExtractionResult) -> JsonValue {
    let structures = result
        .structures
        .iter()
        .map(|s| {
            object([
                ("template", JsonValue::String(s.template.to_string())),
                ("field_count", num(s.template.field_count())),
                ("record_count", num(s.records.len())),
                ("coverage", JsonValue::Number(s.coverage)),
                ("score", JsonValue::Number(s.score)),
                (
                    "column_types",
                    strings(s.column_types.iter().map(FieldType::name)),
                ),
                (
                    "semantics",
                    semantics_json(&annotate_table(&s.denormalized)),
                ),
                (
                    "tables",
                    strings(s.relational.tables.iter().map(|t| t.name.as_str())),
                ),
            ])
        })
        .collect();
    object([
        ("dataset_bytes", num(text.len())),
        ("dataset_lines", num(text.lines().count())),
        ("record_count", num(result.record_count())),
        ("noise_lines", num(result.noise_lines.len())),
        ("noise_fraction", JsonValue::Number(result.noise_fraction)),
        ("structures", JsonValue::Array(structures)),
        ("stats", stats_json(&result.stats)),
    ])
}

/// A JSON object with `fields` in order.
fn object<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

fn num(n: usize) -> JsonValue {
    JsonValue::Number(n as f64)
}

fn strings<S: Into<String>>(items: impl Iterator<Item = S>) -> JsonValue {
    JsonValue::Array(items.map(|s| JsonValue::String(s.into())).collect())
}

fn semantics_json(annotation: &TableAnnotation) -> JsonValue {
    let columns = annotation
        .columns
        .iter()
        .map(|c| {
            object([
                ("column", num(c.column)),
                ("semantic", JsonValue::String(c.semantic.name().into())),
                ("confidence", JsonValue::Number(c.confidence)),
            ])
        })
        .collect();
    let composites = annotation
        .composites
        .iter()
        .map(|c| {
            object([
                ("first_column", num(c.first_column)),
                ("width", num(c.width)),
                ("delimiter", JsonValue::String(c.delimiter.to_string())),
                ("semantic", JsonValue::String(c.semantic.name().into())),
            ])
        })
        .collect();
    object([
        ("columns", JsonValue::Array(columns)),
        ("composites", JsonValue::Array(composites)),
    ])
}

/// The search statistics: generation and evaluation work counters, resolved worker
/// threads, and per-step seconds (sampling, generation, pruning, evaluation, extraction).
fn stats_json(stats: &PipelineStats) -> JsonValue {
    let eval = &stats.evaluation_metrics;
    let t = &stats.timings;
    let steps = [
        t.sampling,
        t.generation,
        t.pruning,
        t.evaluation,
        t.extraction,
    ];
    object([
        ("candidates_generated", num(stats.candidates_generated)),
        ("candidates_pruned", num(stats.candidates_pruned)),
        ("charsets_enumerated", num(stats.charsets_enumerated)),
        ("records_examined", num(stats.records_examined)),
        ("sample_bytes", num(stats.sample_bytes)),
        ("iterations", num(stats.iterations)),
        ("extraction_threads", num(stats.extraction_threads)),
        ("evaluation_threads", num(stats.evaluation_threads)),
        ("evaluation_count", num(eval.evaluations)),
        ("evaluation_memo_hits", num(eval.memo_hits)),
        (
            "evaluation_parse_seconds",
            JsonValue::Number(eval.parse_seconds),
        ),
        (
            "evaluation_score_seconds",
            JsonValue::Number(eval.score_seconds),
        ),
        ("evaluation_delta_parses", num(eval.delta_parses)),
        ("evaluation_full_parses", num(eval.delta_full_parses)),
        (
            "evaluation_delta_record_reuse",
            JsonValue::Number(eval.delta_record_reuse_rate()),
        ),
        (
            "evaluation_dirty_column_fraction",
            JsonValue::Number(eval.dirty_column_fraction()),
        ),
        (
            "step_seconds",
            JsonValue::Array(
                steps
                    .iter()
                    .map(|d| JsonValue::Number(d.as_secs_f64()))
                    .collect(),
            ),
        ),
    ])
}

/// Quotes one CSV cell per RFC 4180: cells containing commas, quotes, or newlines are wrapped
/// in double quotes with inner quotes doubled.
pub fn csv_quote(cell: &str) -> String {
    let mut out = String::new();
    push_csv_cell(&mut out, cell);
    out
}

/// Appends one RFC-4180-quoted cell to `out` without intermediate allocation — this is the
/// point where span-backed table cells finally become owned bytes.  One byte pass decides
/// whether the cell needs quotes; only a quoted cell is read again, to double its quotes.
fn push_csv_cell(out: &mut String, cell: &str) {
    if !cell
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
    {
        out.push_str(cell);
        return;
    }
    out.reserve(cell.len() + 2);
    out.push('"');
    for (i, part) in cell.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Appends the decimal digits of `n` — exactly what `n.to_string()` gives — without going
/// through `core::fmt`: the CSV sink writes one to three such keys per row.
fn push_decimal(out: &mut String, mut n: usize) {
    // usize::MAX has 20 decimal digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Serializes one relational table as CSV text (header row first).  Cell values resolve
/// straight from the table's shared source buffer into the output — the only `String`
/// conversion in the relational path happens here, at the serialization boundary.
pub fn table_to_csv(table: &Table) -> String {
    let mut out = String::new();
    push_csv_row(&mut out, table.columns.iter().map(String::as_str));
    for r in 0..table.row_count() {
        push_csv_row(&mut out, table.row(r));
    }
    out
}

fn push_csv_row<'a>(out: &mut String, cells: impl Iterator<Item = &'a str>) {
    for (i, c) in cells.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_csv_cell(out, c);
    }
    out.push('\n');
}

/// Writes one table as CSV to any [`Write`] sink (buffer the sink for files / sockets).
pub fn write_table_csv<W: Write>(table: &Table, mut sink: W) -> io::Result<()> {
    sink.write_all(table_to_csv(table).as_bytes())
}

/// Serializes every normalized table of every record type as `(table name, CSV text)` pairs,
/// in discovery order with the root table of each type first.
pub fn all_tables_csv(result: &ExtractionResult) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for s in &result.structures {
        for t in &s.relational.tables {
            out.push((t.name.clone(), table_to_csv(t)));
        }
    }
    out
}

// -------------------------------------------------------------------------------------------
// Streaming sinks
// -------------------------------------------------------------------------------------------

/// A push-based consumer of streaming extraction records.
///
/// [`StreamSession`](crate::streaming::StreamSession) drives the sink:
/// [`begin`](Self::begin) once with the templates discovered on the stream head,
/// [`record`](Self::record) once per extracted record (a zero-copy [`StreamRecord`] view
/// over the current chunk window), and [`finish`](Self::finish) once at end of stream.
/// Sinks compose: [`Tee`] fans one stream out to two sinks, [`CountingSink`] only counts,
/// [`CsvSink`] and [`JsonLinesSink`] serialize.
///
/// Driving one sink across **several** streams is sink-specific: [`CountingSink`] and
/// [`JsonLinesSink`] reset their counters on every `begin` (the JSON Lines writer keeps
/// appending), while [`CsvSink`] refuses a second `begin` — its per-table writers and row
/// ids belong to exactly one stream.
pub trait RecordSink {
    /// Receives the discovered structure templates before any record is pushed.
    fn begin(&mut self, templates: &[StructureTemplate]) -> CoreResult<()>;
    /// Consumes one record; `record` borrows the current chunk window and is only valid for
    /// the duration of the call.
    fn record(&mut self, record: &StreamRecord<'_>) -> CoreResult<()>;
    /// Flushes any buffered state at end of stream.
    fn finish(&mut self) -> CoreResult<()>;
}

/// A mutable reference to a sink is itself a sink, so a caller can drive a borrowed sink
/// (a [`Tee`] of two borrowed sinks, say) and still own it afterwards.
impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn begin(&mut self, templates: &[StructureTemplate]) -> CoreResult<()> {
        (**self).begin(templates)
    }

    fn record(&mut self, record: &StreamRecord<'_>) -> CoreResult<()> {
        (**self).record(record)
    }

    fn finish(&mut self) -> CoreResult<()> {
        (**self).finish()
    }
}

/// A sink that counts records per template without writing anything — the cheapest possible
/// consumer (streaming summaries, throughput benchmarks).
#[derive(Clone, Debug, Default)]
pub struct CountingSink {
    /// Records seen per template index.
    pub per_template: Vec<usize>,
    /// Total records seen.
    pub records: usize,
}

impl RecordSink for CountingSink {
    fn begin(&mut self, templates: &[StructureTemplate]) -> CoreResult<()> {
        self.per_template = vec![0; templates.len()];
        self.records = 0;
        Ok(())
    }

    fn record(&mut self, record: &StreamRecord<'_>) -> CoreResult<()> {
        if let Some(slot) = self.per_template.get_mut(record.template_index) {
            *slot += 1;
        }
        self.records += 1;
        Ok(())
    }

    fn finish(&mut self) -> CoreResult<()> {
        Ok(())
    }
}

/// Fans every callback out to two sinks, in order (nest `Tee`s for wider fan-out).
pub struct Tee<A, B>(pub A, pub B);

impl<A: RecordSink, B: RecordSink> RecordSink for Tee<A, B> {
    fn begin(&mut self, templates: &[StructureTemplate]) -> CoreResult<()> {
        self.0.begin(templates)?;
        self.1.begin(templates)
    }

    fn record(&mut self, record: &StreamRecord<'_>) -> CoreResult<()> {
        self.0.record(record)?;
        self.1.record(record)
    }

    fn finish(&mut self) -> CoreResult<()> {
        self.0.finish()?;
        self.1.finish()
    }
}

/// How [`RetryingWriter`] waits between attempts.  Injectable so tests can assert the
/// exact backoff sequence without sleeping.
pub trait Sleeper {
    /// Waits for `duration` (or records that it would have).
    fn sleep(&mut self, duration: Duration);
}

/// The production sleeper: blocks the current thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&mut self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// A sleeper that records every requested delay without waiting (tests).
#[derive(Clone, Debug, Default)]
pub struct RecordingSleeper {
    /// Every delay requested, in order.
    pub slept: Vec<Duration>,
}

impl Sleeper for RecordingSleeper {
    fn sleep(&mut self, duration: Duration) {
        self.slept.push(duration);
    }
}

/// Repeats a `write` or `flush` of the inner writer that failed with a transient error
/// (interrupted, timed-out or would-block I/O) up to `retries` times, waiting
/// 10 ms × 2^k before retry `k` (0-based), capped at 1 s.  No jitter: the schedule is a
/// pure function of the attempt number, which is what makes retry behaviour testable.
/// Permanent errors and exhausted retries return unchanged.
///
/// The retry is exact because of the [`Write`] contract: a `write` that returns an error
/// wrote none of its bytes, so the repeated call hands over exactly what the writer did not
/// take.  Wrap the raw output (a file, stdout, a socket handle) and put any buffering above
/// this writer, so a failed flush of the buffer is repeated from where it stopped.
pub struct RetryingWriter<W, P: Sleeper = ThreadSleeper> {
    inner: W,
    retries: usize,
    sleeper: P,
}

impl<W: Write> RetryingWriter<W> {
    /// Wraps `inner`, retrying each failing call up to `retries` times on the real clock.
    pub fn new(inner: W, retries: usize) -> Self {
        RetryingWriter::with_sleeper(inner, retries, ThreadSleeper)
    }
}

impl<W: Write, P: Sleeper> RetryingWriter<W, P> {
    /// Wraps `inner` with an injected sleeper (tests use [`RecordingSleeper`]).
    pub fn with_sleeper(inner: W, retries: usize, sleeper: P) -> Self {
        RetryingWriter {
            inner,
            retries,
            sleeper,
        }
    }

    /// Consumes the wrapper, returning the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Direct access to the sleeper (tests read the recorded backoff schedule, one delay
    /// per retry, out of a [`RecordingSleeper`]).
    pub fn sleeper(&self) -> &P {
        &self.sleeper
    }

    fn retry<T>(&mut self, mut call: impl FnMut(&mut W) -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0;
        loop {
            match call(&mut self.inner) {
                Err(e) if is_transient_kind(e.kind()) && attempt < self.retries => {
                    // 10 ms << 7 is past the 1 s cap, so the shift never overflows.
                    let delay = Duration::from_millis(10 << attempt.min(7));
                    self.sleeper.sleep(delay.min(Duration::from_secs(1)));
                    attempt += 1;
                }
                result => return result,
            }
        }
    }
}

impl<W: Write, P: Sleeper> Write for RetryingWriter<W, P> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.retry(|inner| inner.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.retry(Write::flush)
    }
}

/// One normalized table of the CSV sink: its writer, its row shape, and the bytes staged
/// for it.  Rows of one table always arrive sequentially (the layout walk closes a table's
/// row before opening its next), so cells are appended left to right and the close pads
/// any data columns the row did not fill.
struct CsvTableState<W> {
    name: String,
    out: W,
    n_data: usize,
    /// Data cells already staged in the currently open row.
    filled: usize,
    /// Bytes not yet handed to `out` whole: the header until the table's first write, then
    /// the rows of the record being written.  Reused, so rows cost no allocation.
    staged: String,
    /// How many leading bytes of `staged` a write that then failed already handed to `out`.
    sent: usize,
}

impl<W: Write> CsvTableState<W> {
    /// Hands the staged bytes to the writer with a `write` loop: a write that fails part
    /// way leaves `sent` at what the writer took, so the next call sends only the rest.
    fn write_staged(&mut self) -> io::Result<()> {
        while self.sent < self.staged.len() {
            match self.out.write(&self.staged.as_bytes()[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.staged.clear();
        self.sent = 0;
        Ok(())
    }

    fn sink_error(&self, e: &io::Error) -> Error {
        Error::io(e).in_sink(format!("csv:{}", self.name))
    }
}

/// One record's view of the sink for the layout walk: the tables of the record's type and
/// the window its cells point into.  Rows are staged, not written; [`CsvSink::record`]
/// hands each table its bytes once the walk is done.
struct CsvRows<'a, W> {
    tables: &'a mut [CsvTableState<W>],
    window: &'a str,
}

impl<W> RowWriter for CsvRows<'_, W> {
    type Error = Infallible;

    /// Stages the synthesized key cells, exactly like the materialized tables.
    fn open_row(
        &mut self,
        table: usize,
        id: usize,
        parent: Option<(usize, usize)>,
    ) -> Result<(), Infallible> {
        let t = &mut self.tables[table];
        t.filled = 0;
        push_decimal(&mut t.staged, id);
        if let Some((parent_id, position)) = parent {
            t.staged.push(',');
            push_decimal(&mut t.staged, parent_id);
            t.staged.push(',');
            push_decimal(&mut t.staged, position);
        }
        Ok(())
    }

    fn cell(&mut self, table: usize, cell: &FieldCell) -> Result<(), Infallible> {
        let t = &mut self.tables[table];
        t.staged.push(',');
        push_csv_cell(&mut t.staged, &self.window[cell.start..cell.end]);
        t.filled += 1;
        Ok(())
    }

    fn close_row(&mut self, table: usize) -> Result<(), Infallible> {
        let t = &mut self.tables[table];
        for _ in t.filled..t.n_data {
            t.staged.push(',');
        }
        t.staged.push('\n');
        Ok(())
    }
}

/// Streams the **normalized relational output** (one root table per record type plus one
/// table per array node, linked by synthesized keys) as CSV, byte-identical to running
/// [`table_to_csv`] on the materialized [`to_relational`](crate::relational::to_relational)
/// tables — without ever building those tables: both run the same layout walk over each
/// record's cells and repetition counts.
///
/// One writer per table is obtained from the factory (called with the table name, e.g.
/// `type0`, `type0_array0`, in the same order the materialized tables appear in).  Row ids
/// and foreign keys come from one [`RowIdSynth`] per record type that lives for the whole
/// stream, so the numbering stays correct across chunk-window boundaries.
///
/// Each record's rows are staged per table while the walk runs, and every table the record
/// touched then gets its bytes in one write; a table's header goes out with its first
/// write, or at [`finish`](RecordSink::finish) for a table no record reached.  A `record`
/// call that fails keeps the bytes its writers did not take, and the next call writes
/// them before its own rows, so a table never loses or repeats a byte.  Call `finish`
/// before [`into_writers`](Self::into_writers), so that every staged byte is written.
pub struct CsvSink<W: Write, F: FnMut(&str) -> io::Result<W>> {
    factory: F,
    templates: Vec<StructureTemplate>,
    /// Per template: the range of its tables in the flat `tables` list.
    ranges: Vec<std::ops::Range<usize>>,
    /// Per template: its row-id counters.
    synths: Vec<RowIdSynth>,
    tables: Vec<CsvTableState<W>>,
}

impl<W: Write, F: FnMut(&str) -> io::Result<W>> CsvSink<W, F> {
    /// Creates a sink that obtains one writer per normalized table from `factory`.
    pub fn new(factory: F) -> Self {
        CsvSink {
            factory,
            templates: Vec::new(),
            ranges: Vec::new(),
            synths: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Consumes the sink, returning every `(table name, writer)` pair in creation order
    /// (tests and callers that collect output in memory).
    pub fn into_writers(self) -> Vec<(String, W)> {
        self.tables.into_iter().map(|t| (t.name, t.out)).collect()
    }
}

impl<W: Write, F: FnMut(&str) -> io::Result<W>> RecordSink for CsvSink<W, F> {
    fn begin(&mut self, templates: &[StructureTemplate]) -> CoreResult<()> {
        if !self.tables.is_empty() {
            // A second stream would re-run the factory for the same table names
            // (truncating the first stream's files) and restart the id numbering.
            return Err(crate::error::Error::InvalidConfig(
                "CsvSink cannot be reused across streams; create a new sink per stream".into(),
            ));
        }
        // Nothing is kept until every writer exists, so a failed `begin` can be replayed.
        let mut tables = Vec::new();
        let mut ranges = Vec::with_capacity(templates.len());
        let mut synths = Vec::with_capacity(templates.len());
        for (idx, template) in templates.iter().enumerate() {
            let schema = build_schema(template, &format!("type{idx}"));
            let first = tables.len();
            for st in &schema.tables {
                let out = (self.factory)(&st.name)
                    .map_err(|e| Error::io(&e).in_sink(format!("csv:{}", st.name)))?;
                let mut staged = String::new();
                push_csv_row(&mut staged, st.header().iter().map(String::as_str));
                tables.push(CsvTableState {
                    name: st.name.clone(),
                    out,
                    n_data: st.column_ids.len(),
                    filled: 0,
                    staged,
                    sent: 0,
                });
            }
            ranges.push(first..tables.len());
            synths.push(RowIdSynth::new(schema.tables.len()));
        }
        self.templates = templates.to_vec();
        self.ranges = ranges;
        self.synths = synths;
        self.tables = tables;
        Ok(())
    }

    fn record(&mut self, record: &StreamRecord<'_>) -> CoreResult<()> {
        let t = record.template_index;
        let range = self.ranges[t].clone();
        let mut rows = CsvRows {
            tables: &mut self.tables[range.clone()],
            window: record.window,
        };
        let Ok(()) = layout_record(
            self.templates[t].nodes(),
            record.cells,
            record.reps,
            &mut self.synths[t],
            &mut rows,
        );
        for table in &mut self.tables[range] {
            table.write_staged().map_err(|e| table.sink_error(&e))?;
        }
        Ok(())
    }

    fn finish(&mut self) -> CoreResult<()> {
        for t in &mut self.tables {
            t.write_staged().map_err(|e| t.sink_error(&e))?;
            t.out.flush().map_err(|e| t.sink_error(&e))?;
        }
        Ok(())
    }
}

/// Streams records as JSON Lines — one object per record, in stream order, of the form
/// `{"type":0,"lines":[12,14],"columns":[["a"],["x","y"]]}` (one inner array per template
/// column; array columns carry one entry per repetition).  Byte-identical to
/// [`all_records_jsonl`] on the materialized extraction of the same stream.
pub struct JsonLinesSink<W: Write> {
    out: W,
    field_counts: Vec<usize>,
    /// Recycled per-column span buffers (window-relative offsets).
    spans: Vec<Vec<(usize, usize)>>,
    buf: String,
    /// Records written.
    pub records: usize,
}

impl<W: Write> JsonLinesSink<W> {
    /// Creates a sink writing JSON Lines to `out` (buffer the writer for files).
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out,
            field_counts: Vec::new(),
            spans: Vec::new(),
            buf: String::new(),
            records: 0,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_writer(self) -> W {
        self.out
    }
}

impl<W: Write> RecordSink for JsonLinesSink<W> {
    fn begin(&mut self, templates: &[StructureTemplate]) -> CoreResult<()> {
        self.field_counts = templates
            .iter()
            .map(StructureTemplate::field_count)
            .collect();
        let max = self.field_counts.iter().copied().max().unwrap_or(0);
        self.spans = vec![Vec::new(); max];
        self.records = 0;
        Ok(())
    }

    fn record(&mut self, record: &StreamRecord<'_>) -> CoreResult<()> {
        let n = self.field_counts[record.template_index];
        for col in self.spans.iter_mut().take(n) {
            col.clear();
        }
        for cell in record.cells {
            if cell.column < n {
                self.spans[cell.column].push((cell.start, cell.end));
            }
        }
        self.buf.clear();
        push_jsonl_record(
            &mut self.buf,
            record.template_index,
            record.line_span,
            self.spans[..n]
                .iter()
                .map(|col| col.iter().map(|&(s, e)| &record.window[s..e])),
        );
        self.out
            .write_all(self.buf.as_bytes())
            .map_err(|e| Error::io(&e).in_sink("jsonl"))?;
        self.records += 1;
        Ok(())
    }

    fn finish(&mut self) -> CoreResult<()> {
        self.out
            .flush()
            .map_err(|e| Error::io(&e).in_sink("jsonl"))?;
        Ok(())
    }
}

/// Appends one JSON Lines record — the single formatting routine shared by the streaming
/// sink and the materialized serializer, which is what makes their outputs byte-identical.
fn push_jsonl_record<'a, C, V>(
    out: &mut String,
    template_index: usize,
    line_span: (usize, usize),
    columns: C,
) where
    C: IntoIterator<Item = V>,
    V: IntoIterator<Item = &'a str>,
{
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"type\":{template_index},\"lines\":[{},{}],\"columns\":[",
        line_span.0, line_span.1
    );
    for (i, col) in columns.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, value) in col.into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::escape_into(out, value);
        }
        out.push(']');
    }
    out.push_str("]}\n");
}

/// Serializes every extracted record of a materialized [`ExtractionResult`] as JSON Lines,
/// in document order across all record types — the in-memory counterpart of
/// [`JsonLinesSink`] (the streaming sink emits exactly these bytes).
pub fn all_records_jsonl(text: &str, result: &ExtractionResult) -> String {
    let mut refs: Vec<(usize, &RecordMatch)> = result
        .structures
        .iter()
        .enumerate()
        .flat_map(|(idx, s)| s.records.iter().map(move |r| (idx, r)))
        .collect();
    refs.sort_by_key(|(_, r)| r.line_span.0);
    let mut out = String::new();
    let mut columns: Vec<Vec<&str>> = Vec::new();
    for (idx, rec) in refs {
        let n = result.structures[idx].template.field_count();
        // Recycle the inner vectors' capacity: grow to the widest template seen, clear in
        // place, and use only the first `n` columns for this record.
        if columns.len() < n {
            columns.resize_with(n, Vec::new);
        }
        for col in &mut columns[..n] {
            col.clear();
        }
        for cell in &rec.fields {
            if cell.column < n {
                columns[cell.column].push(&text[cell.start..cell.end]);
            }
        }
        push_jsonl_record(
            &mut out,
            idx,
            rec.line_span,
            columns[..n].iter().map(|c| c.iter().copied()),
        );
    }
    out
}

/// The JSON report of one streaming run (what the CLI's `extract --stream --format json`
/// and `--format csv` print, and the `stream` section of
/// [`ServeMetrics`](crate::serve::ServeMetrics)): the run's counters, the templates in
/// match-priority order, the matcher work totals, and the recent-window histories of
/// [`StreamSummary`].  Render it with [`JsonValue::to_pretty`].
pub fn stream_report(summary: &StreamSummary) -> JsonValue {
    let window_unmatched = summary
        .window_unmatched
        .iter()
        .map(|w| {
            object([
                ("lines", num(w.lines)),
                ("unmatched", num(w.unmatched)),
                ("unmatched_rate", JsonValue::Number(w.unmatched_rate())),
            ])
        })
        .collect();
    object([
        ("records", num(summary.records)),
        ("noise_lines", num(summary.noise_lines)),
        ("bytes_processed", num(summary.bytes_processed)),
        ("lines_processed", num(summary.lines_processed)),
        ("windows", num(summary.windows)),
        ("peak_window_bytes", num(summary.peak_window_bytes)),
        ("sink_seconds", JsonValue::Number(summary.sink_seconds)),
        ("match_seconds", JsonValue::Number(summary.match_seconds)),
        ("quarantined_lines", num(summary.quarantined_lines)),
        ("invalid_utf8_lines", num(summary.invalid_utf8_lines)),
        ("oversized_lines", num(summary.oversized_lines)),
        (
            "stopped_reason",
            summary
                .stopped_reason
                .map_or(JsonValue::Null, |r| JsonValue::String(r.name().into())),
        ),
        (
            "templates",
            strings(summary.templates.iter().map(ToString::to_string)),
        ),
        ("match_stats", match_stats_json(&summary.match_stats())),
        (
            "window_match_stats",
            JsonValue::Array(
                summary
                    .window_match_stats
                    .iter()
                    .map(match_stats_json)
                    .collect(),
            ),
        ),
        ("window_unmatched", JsonValue::Array(window_unmatched)),
    ])
}

fn match_stats_json(stats: &MatchStats) -> JsonValue {
    object([
        ("lines_dispatched", num(stats.lines_dispatched as usize)),
        ("fused_dispatches", num(stats.fused_dispatches as usize)),
        ("templates_trialed", num(stats.templates_trialed as usize)),
        ("templates_pruned", num(stats.templates_pruned as usize)),
        ("prune_rate", JsonValue::Number(stats.prune_rate())),
        (
            "fused_dispatch_rate",
            JsonValue::Number(stats.fused_dispatch_rate()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Datamaran;

    fn sample_log() -> String {
        let mut s = String::new();
        for i in 0..80 {
            s.push_str(&format!(
                "[{:02}:{:02}] 10.0.{}.{} GET /p{}\n",
                i % 24,
                i % 60,
                i % 8,
                (i * 3) % 250,
                i % 7
            ));
        }
        s
    }

    fn get<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        v.require(key).unwrap()
    }

    #[test]
    fn report_summarizes_extraction() {
        let text = sample_log();
        let result = Datamaran::with_defaults().extract(&text).unwrap();
        let report = JsonValue::parse(&extraction_report(&text, &result).to_pretty()).unwrap();
        assert_eq!(
            get(&report, "dataset_bytes").as_usize().unwrap(),
            text.len()
        );
        assert_eq!(get(&report, "record_count").as_usize().unwrap(), 80);
        let structures = get(&report, "structures").as_array().unwrap();
        assert_eq!(structures.len(), 1);
        let s = &structures[0];
        let field_count = get(s, "field_count").as_usize().unwrap();
        assert!(field_count >= 6);
        assert_eq!(
            get(s, "column_types").as_array().unwrap().len(),
            field_count
        );
        let columns = get(get(s, "semantics"), "columns").as_array().unwrap();
        assert_eq!(columns.len(), field_count);
        assert!(!get(s, "tables").as_array().unwrap().is_empty());
        let steps = get(get(&report, "stats"), "step_seconds")
            .as_array()
            .unwrap();
        assert!(steps.iter().all(|x| x.as_f64().unwrap() >= 0.0));
    }

    /// The extraction report's exact bytes for a fixed run: the keys, their order and the
    /// number formatting are the report schema.  The run is single-threaded so the
    /// evaluation memo counters are deterministic; the timings and the resolved thread
    /// counts, which follow the host, are overwritten before rendering.
    #[test]
    fn extraction_report_bytes_are_pinned() {
        use crate::config::DatamaranConfig;
        use crate::pipeline::StepTimings;
        let text = sample_log();
        let config = DatamaranConfig::default()
            .with_generation_threads(1)
            .with_extraction_threads(1)
            .with_evaluation_threads(1);
        let mut result = Datamaran::new(config).unwrap().extract(&text).unwrap();
        result.stats.timings = StepTimings {
            sampling: Duration::from_millis(125),
            generation: Duration::from_millis(2500),
            pruning: Duration::from_micros(62_500),
            evaluation: Duration::from_millis(750),
            extraction: Duration::from_millis(40),
        };
        result.stats.evaluation_metrics.parse_seconds = 0.375;
        result.stats.evaluation_metrics.score_seconds = 0.1;
        result.stats.extraction_threads = 4;
        result.stats.evaluation_threads = 3;
        assert_eq!(
            extraction_report(&text, &result).to_pretty(),
            PINNED_EXTRACTION_REPORT
        );
    }

    const PINNED_EXTRACTION_REPORT: &str = r#"{
  "dataset_bytes": 2122,
  "dataset_lines": 80,
  "record_count": 80,
  "noise_lines": 0,
  "noise_fraction": 0,
  "structures": [
    {
      "template": "[F:F] F.F.F.F F /F\\n",
      "field_count": 8,
      "record_count": 80,
      "coverage": 1,
      "score": 3088,
      "column_types": [
        "int",
        "int",
        "int",
        "int",
        "int",
        "int",
        "enum",
        "enum"
      ],
      "semantics": {
        "columns": [
          {
            "column": 0,
            "semantic": "integer",
            "confidence": 1
          },
          {
            "column": 1,
            "semantic": "integer",
            "confidence": 1
          },
          {
            "column": 2,
            "semantic": "integer",
            "confidence": 1
          },
          {
            "column": 3,
            "semantic": "integer",
            "confidence": 1
          },
          {
            "column": 4,
            "semantic": "integer",
            "confidence": 1
          },
          {
            "column": 5,
            "semantic": "integer",
            "confidence": 1
          },
          {
            "column": 6,
            "semantic": "identifier",
            "confidence": 1
          },
          {
            "column": 7,
            "semantic": "identifier",
            "confidence": 1
          }
        ],
        "composites": [
          {
            "first_column": 0,
            "width": 4,
            "delimiter": ".",
            "semantic": "ipv4"
          },
          {
            "first_column": 4,
            "width": 2,
            "delimiter": ":",
            "semantic": "time"
          }
        ]
      },
      "tables": [
        "type0"
      ]
    }
  ],
  "stats": {
    "candidates_generated": 640,
    "candidates_pruned": 50,
    "charsets_enumerated": 64,
    "records_examined": 48320,
    "sample_bytes": 2122,
    "iterations": 1,
    "extraction_threads": 4,
    "evaluation_threads": 3,
    "evaluation_count": 3555,
    "evaluation_memo_hits": 60,
    "evaluation_parse_seconds": 0.375,
    "evaluation_score_seconds": 0.1,
    "evaluation_delta_parses": 3445,
    "evaluation_full_parses": 50,
    "evaluation_delta_record_reuse": 0.2797442879128685,
    "evaluation_dirty_column_fraction": 0.3393592004703116,
    "step_seconds": [
      0.125,
      2.5,
      0.0625,
      0.75,
      0.04
    ]
  }
}"#;

    #[test]
    fn csv_quoting_handles_special_characters() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_quote("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_quote(""), "");
    }

    #[test]
    fn decimal_keys_match_to_string() {
        for n in [0, 9, 10, 99, 100, usize::MAX] {
            let mut out = String::from("k");
            push_decimal(&mut out, n);
            assert_eq!(out, format!("k{n}"));
        }
    }

    /// A failure to create the second table's writer leaves `begin` replayable: calling it
    /// again creates every writer anew and the stream goes on.
    #[test]
    fn a_failed_begin_can_be_replayed() {
        use crate::structure::Node;
        let template = StructureTemplate::new(vec![Node::Array {
            body: vec![Node::Field],
            separator: ',',
            terminator: '\n',
        }]);
        let mut created = 0;
        let mut sink = CsvSink::new(|_: &str| {
            created += 1;
            if created == 2 {
                return Err(io::ErrorKind::TimedOut.into());
            }
            Ok(Vec::<u8>::new())
        });
        let err = sink.begin(std::slice::from_ref(&template)).unwrap_err();
        assert!(err.is_transient(), "{err}");
        sink.begin(std::slice::from_ref(&template)).unwrap();
        let cells = [FieldCell {
            column: 0,
            start: 0,
            end: 1,
        }];
        sink.record(&StreamRecord {
            template_index: 0,
            line_span: (0, 1),
            window: "a\n",
            cells: &cells,
            reps: &[1],
        })
        .unwrap();
        sink.finish().unwrap();
        let tables: Vec<(String, String)> = sink
            .into_writers()
            .into_iter()
            .map(|(name, bytes)| (name, String::from_utf8(bytes).unwrap()))
            .collect();
        assert_eq!(
            tables,
            [
                ("type0".to_string(), "id\n0\n".to_string()),
                (
                    "type0_array0".to_string(),
                    "id,parent_id,position,field_0\n0,0,0,a\n".to_string()
                ),
            ]
        );
    }

    /// Retry `k` waits 10 ms × 2^k, capped at 1 s; the call after the last failure goes
    /// through, and a burst longer than the retries returns its transient error.
    #[test]
    fn retry_delays_double_from_10_ms_up_to_1_s() {
        use crate::fault::{FailingWriter, FaultSchedule};
        let burst = FaultSchedule::Transient { at: 0, failures: 9 };
        let mut w = RetryingWriter::with_sleeper(
            FailingWriter::new(Vec::new(), burst),
            9,
            RecordingSleeper::default(),
        );
        w.write_all(b"row\n").unwrap();
        let ms: Vec<u128> = w.sleeper().slept.iter().map(Duration::as_millis).collect();
        assert_eq!(ms, [10, 20, 40, 80, 160, 320, 640, 1000, 1000]);
        assert_eq!(w.into_inner().into_inner(), b"row\n");

        let mut w = RetryingWriter::with_sleeper(
            FailingWriter::new(Vec::new(), burst),
            8,
            RecordingSleeper::default(),
        );
        assert_eq!(
            w.write(b"row\n").unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(w.sleeper().slept.len(), 8);
    }

    /// A caller that moves on after a failed `record` instead of replaying it still gets
    /// whole tables: the failed record's unwritten rows go out first, then the new record
    /// is laid out and written after them.
    #[test]
    fn a_record_after_a_failed_one_is_laid_out_after_its_rows() {
        use crate::structure::Node;
        struct FailSecondCall(Vec<u8>, usize);
        impl Write for FailSecondCall {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.1 += 1;
                if self.1 == 2 {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let template = StructureTemplate::new(vec![
            Node::Field,
            Node::Literal("=".into()),
            Node::Field,
            Node::Literal("\n".into()),
        ]);
        let window = "a=1\nb=2\nc=3\n";
        let cells = |line: usize| {
            let start = 4 * line;
            [
                FieldCell {
                    column: 0,
                    start,
                    end: start + 1,
                },
                FieldCell {
                    column: 1,
                    start: start + 2,
                    end: start + 3,
                },
            ]
        };
        let mut sink = CsvSink::new(|_: &str| Ok(FailSecondCall(Vec::new(), 0)));
        sink.begin(std::slice::from_ref(&template)).unwrap();
        for line in 0..3 {
            let cells = cells(line);
            let result = sink.record(&StreamRecord {
                template_index: 0,
                line_span: (line, line + 1),
                window,
                cells: &cells,
                reps: &[],
            });
            assert_eq!(result.is_err(), line == 1, "record {line}");
        }
        sink.finish().unwrap();
        let tables = sink.into_writers();
        assert_eq!(
            String::from_utf8(tables[0].1 .0.clone()).unwrap(),
            "id,field_0,field_1\n0,a,1\n1,b,2\n2,c,3\n"
        );
    }

    #[test]
    fn table_to_csv_emits_header_and_rows() {
        let t = Table::from_strings(
            "t",
            vec!["id".into(), "msg".into()],
            vec![
                vec!["0".into(), "hello".into()],
                vec!["1".into(), "a,b".into()],
            ],
        );
        let csv = table_to_csv(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, vec!["id,msg", "0,hello", "1,\"a,b\""]);
    }

    #[test]
    fn span_backed_cells_serialize_identically_to_owned_cells() {
        use crate::relational::Cell;
        use std::sync::Arc;
        let source: Arc<str> = Arc::from("alpha,beta\n");
        let mut spans = Table::new("t", vec!["a".into(), "b".into()], Arc::clone(&source));
        spans.push_row(vec![
            Cell::Span { start: 0, end: 5 },
            Cell::Span { start: 6, end: 10 },
        ]);
        let owned = Table::from_strings(
            "t",
            vec!["a".into(), "b".into()],
            vec![vec!["alpha".into(), "beta".into()]],
        );
        assert_eq!(table_to_csv(&spans), table_to_csv(&owned));
    }

    #[test]
    fn write_table_csv_writes_to_sink() {
        let t = Table::from_strings("t", vec!["x".into()], vec![vec!["1".into()]]);
        let mut buf = Vec::new();
        write_table_csv(&t, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "x\n1\n");
    }

    #[test]
    fn jsonl_record_format_is_stable_and_escaped() {
        let mut out = String::new();
        push_jsonl_record(
            &mut out,
            1,
            (3, 5),
            [vec!["a"], vec!["x", "y\"z\n"]]
                .iter()
                .map(|c| c.iter().copied()),
        );
        assert_eq!(
            out,
            "{\"type\":1,\"lines\":[3,5],\"columns\":[[\"a\"],[\"x\",\"y\\\"z\\n\"]]}\n"
        );
    }

    /// A streaming summary with every reported field set, two templates (one with an
    /// array and a quote to escape), an early stop and three windows.
    fn pinned_summary() -> StreamSummary {
        use crate::streaming::{StopReason, WindowUnmatched};
        use crate::structure::Node;
        let mut summary = StreamSummary::default();
        summary.templates = vec![
            StructureTemplate::new(vec![
                Node::Field,
                Node::Literal("=".into()),
                Node::Field,
                Node::Literal("\n".into()),
            ]),
            StructureTemplate::new(vec![
                Node::Literal("[".into()),
                Node::Array {
                    body: vec![Node::Field],
                    separator: ',',
                    terminator: ']',
                },
                Node::Literal(" \"q\"\n".into()),
            ]),
        ];
        summary.records = 12;
        summary.noise_lines = 3;
        summary.bytes_processed = 4096;
        summary.lines_processed = 15;
        summary.windows = 3;
        summary.peak_window_bytes = 2048;
        summary.sink_seconds = 0.25;
        summary.match_seconds = 0.1;
        summary.quarantined_lines = 2;
        summary.quarantined_bytes = 57;
        summary.invalid_utf8_lines = 1;
        summary.oversized_lines = 1;
        summary.stopped_reason = Some(StopReason::WindowBytes);
        for (lines, unmatched, [dispatched, fused, trialed, pruned]) in [
            (8, 2, [8, 6, 10, 14]),
            (6, 1, [6, 6, 7, 5]),
            (1, 0, [1, 0, 2, 0]),
        ] {
            summary.push_window(
                WindowUnmatched { lines, unmatched },
                MatchStats {
                    lines_dispatched: dispatched,
                    fused_dispatches: fused,
                    templates_trialed: trialed,
                    templates_pruned: pruned,
                },
            );
        }
        summary
    }

    /// The stream report's exact bytes for a fixed summary: keys, key order, number
    /// formatting, the `null`-or-name stop reason and the window histories.
    #[test]
    fn stream_report_bytes_are_pinned() {
        assert_eq!(
            stream_report(&pinned_summary()).to_pretty(),
            PINNED_STREAM_REPORT
        );
    }

    const PINNED_STREAM_REPORT: &str = r#"{
  "records": 12,
  "noise_lines": 3,
  "bytes_processed": 4096,
  "lines_processed": 15,
  "windows": 3,
  "peak_window_bytes": 2048,
  "sink_seconds": 0.25,
  "match_seconds": 0.1,
  "quarantined_lines": 2,
  "invalid_utf8_lines": 1,
  "oversized_lines": 1,
  "stopped_reason": "window-bytes",
  "templates": [
    "F=F\\n",
    "[(F,)*F] \"q\"\\n"
  ],
  "match_stats": {
    "lines_dispatched": 15,
    "fused_dispatches": 12,
    "templates_trialed": 19,
    "templates_pruned": 19,
    "prune_rate": 0.5,
    "fused_dispatch_rate": 0.8
  },
  "window_match_stats": [
    {
      "lines_dispatched": 8,
      "fused_dispatches": 6,
      "templates_trialed": 10,
      "templates_pruned": 14,
      "prune_rate": 0.5833333333333334,
      "fused_dispatch_rate": 0.75
    },
    {
      "lines_dispatched": 6,
      "fused_dispatches": 6,
      "templates_trialed": 7,
      "templates_pruned": 5,
      "prune_rate": 0.4166666666666667,
      "fused_dispatch_rate": 1
    },
    {
      "lines_dispatched": 1,
      "fused_dispatches": 0,
      "templates_trialed": 2,
      "templates_pruned": 0,
      "prune_rate": 0,
      "fused_dispatch_rate": 0
    }
  ],
  "window_unmatched": [
    {
      "lines": 8,
      "unmatched": 2,
      "unmatched_rate": 0.25
    },
    {
      "lines": 6,
      "unmatched": 1,
      "unmatched_rate": 0.16666666666666666
    },
    {
      "lines": 1,
      "unmatched": 0,
      "unmatched_rate": 0
    }
  ]
}"#;

    #[test]
    fn streaming_sinks_match_materialized_serializers() {
        use crate::streaming::{StreamOptions, StreamSession};
        use std::io::Cursor;
        let text = sample_log();
        let engine = Datamaran::with_defaults();
        let result = engine.extract(&text).unwrap();

        let mut sink = Tee(
            CsvSink::new(|_name: &str| Ok(Vec::<u8>::new())),
            Tee(
                JsonLinesSink::new(Vec::<u8>::new()),
                CountingSink::default(),
            ),
        );
        let summary = StreamSession::new(&engine)
            .options(StreamOptions {
                head_bytes: 512,
                window_bytes: 256,
                ..StreamOptions::default()
            })
            .run(Cursor::new(text.clone()), &mut sink)
            .unwrap();
        let Tee(csv, Tee(jsonl, counter)) = sink;
        assert_eq!(counter.records, result.record_count());
        assert_eq!(counter.per_template, vec![result.record_count()]);
        assert_eq!(summary.records, counter.records);

        // CSV: byte-identical to the materialized normalized tables.
        let streamed = csv.into_writers();
        let materialized: Vec<(&str, String)> = result
            .structures
            .iter()
            .flat_map(|s| s.relational.tables.iter())
            .map(|t| (t.name.as_str(), table_to_csv(t)))
            .collect();
        assert_eq!(streamed.len(), materialized.len());
        for ((name, bytes), (expected_name, expected)) in streamed.iter().zip(&materialized) {
            assert_eq!(name, expected_name);
            assert_eq!(std::str::from_utf8(bytes).unwrap(), expected, "{name}");
        }

        // JSON Lines: byte-identical to the materialized serializer.
        let jsonl_bytes = jsonl.into_writer();
        assert_eq!(
            String::from_utf8(jsonl_bytes).unwrap(),
            all_records_jsonl(&text, &result)
        );
    }

    #[test]
    fn csv_sink_refuses_reuse_across_streams() {
        use crate::streaming::StreamSession;
        use std::io::Cursor;
        let text = sample_log();
        let engine = Datamaran::with_defaults();
        let mut sink = CsvSink::new(|_name: &str| Ok(Vec::<u8>::new()));
        StreamSession::new(&engine)
            .run(Cursor::new(text.clone()), &mut sink)
            .unwrap();
        // Driving the same sink for a second stream would truncate the first stream's
        // files and restart the row ids — it must fail loudly instead.
        let err = StreamSession::new(&engine)
            .run(Cursor::new(text), &mut sink)
            .unwrap_err();
        assert!(
            matches!(err, crate::error::Error::InvalidConfig(_)),
            "{err}"
        );
    }

    #[test]
    fn all_tables_csv_covers_every_table() {
        let text = sample_log();
        let result = Datamaran::with_defaults().extract(&text).unwrap();
        let tables = all_tables_csv(&result);
        let total: usize = result
            .structures
            .iter()
            .map(|s| s.relational.tables.len())
            .sum();
        assert_eq!(tables.len(), total);
        assert!(tables[0].1.lines().count() > 80);
    }
}
