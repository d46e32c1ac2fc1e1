//! Export of extraction results to interchange formats (JSON reports, CSV tables, and
//! push-based streaming sinks).
//!
//! The end goal of structure extraction is to hand the structured data to downstream tools
//! (§1: "analyzed in conjunction with other datasets").  This module provides the formats
//! those tools most commonly ingest:
//!
//! * a machine-readable **JSON report** ([`ExtractionReport`]) summarizing the discovered
//!   structure templates, per-column types (both the MDL data types and the semantic types of
//!   [`crate::semtype`]), coverage, and step timings;
//! * **CSV** serialization of the relational output ([`table_to_csv`], [`write_table_csv`],
//!   [`all_tables_csv`]), with RFC-4180-style quoting;
//! * **JSON Lines** serialization of the per-record values ([`all_records_jsonl`]);
//! * push-based **streaming sinks** ([`RecordSink`], [`CsvSink`], [`JsonLinesSink`],
//!   [`CountingSink`], [`Tee`]) fed by
//!   [`StreamSession`](crate::streaming::StreamSession): records are serialized
//!   straight from the chunk window's text without ever materializing a [`Table`], and the
//!   emitted bytes are **identical** to the materialized serializers above (enforced by
//!   `tests/streaming_export_equivalence.rs`);
//! * a **retry decorator** ([`RetryingSink`]) wrapping any [`RecordSink`] with bounded
//!   retries and deterministic exponential backoff for transient write failures.
//!
//! Sink failures surface as [`Error::Sink`], naming the sink
//! (`csv:<table>`, `jsonl`) and preserving the underlying I/O error's kind — which is what
//! lets [`RetryingSink`] (and callers) distinguish a timed-out write worth retrying from a
//! full disk that is not.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::{Error, Result as CoreResult};
use crate::extract::MatchStats;
use crate::fieldtype::FieldType;
use crate::json::{self, JsonError, JsonValue};
use crate::parser::{FieldCell, RecordMatch};
use crate::pipeline::{ExtractionResult, PipelineStats};
use crate::relational::{build_schema, layout_record, RowIdSynth, RowWriter, Table};
use crate::semtype::{
    annotate_table, ColumnAnnotation, CompositeColumn, SemanticType, TableAnnotation,
};
use crate::streaming::{StreamRecord, StreamSummary, WindowUnmatched};
use crate::structure::StructureTemplate;
use std::io::{self, Write};
use std::time::Duration;

/// Serializable summary of one discovered record type.
#[derive(Clone, Debug, PartialEq)]
pub struct StructureReport {
    /// Human-readable structure template (e.g. `[F:F] F\n`).
    pub template: String,
    /// Number of field columns in the denormalized output.
    pub field_count: usize,
    /// Number of records extracted.
    pub record_count: usize,
    /// Fraction of the dataset's bytes covered by records of this type.
    pub coverage: f64,
    /// Regularity score of the template (lower is better).
    pub score: f64,
    /// Per-column MDL data types (`enum` / `int` / `real` / `string`).
    pub column_types: Vec<String>,
    /// Per-column and composite semantic annotations.
    pub semantics: TableAnnotation,
    /// Names of the normalized tables (root first).
    pub tables: Vec<String>,
}

/// Serializable summary of the pipeline statistics (subset of [`PipelineStats`]).
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReport {
    /// Candidates emitted by the generation step(s).
    pub candidates_generated: usize,
    /// Candidates surviving the pruning step(s).
    pub candidates_pruned: usize,
    /// Character sets enumerated.
    pub charsets_enumerated: usize,
    /// Candidate records examined.
    pub records_examined: usize,
    /// Bytes of sampled data used by the search.
    pub sample_bytes: usize,
    /// Pipeline iterations (record types attempted).
    pub iterations: usize,
    /// Per-step wall-clock seconds: sampling, generation, pruning, evaluation, extraction.
    pub step_seconds: [f64; 5],
    /// Worker threads the final extraction pass was sharded across.
    pub extraction_threads: usize,
    /// Worker threads the per-candidate evaluation loop was sharded across.
    pub evaluation_threads: usize,
    /// Template evaluations performed during refinement (including memo hits).
    pub evaluation_count: usize,
    /// Evaluations answered by the template-score memo without re-parsing.
    pub evaluation_memo_hits: usize,
    /// Memo hits resolved through the parent-lineage fast path.
    pub evaluation_lineage_hits: usize,
    /// Seconds the evaluation phase spent parsing candidates against the sample.
    pub evaluation_parse_seconds: f64,
    /// Seconds the evaluation phase spent computing regularity scores.
    pub evaluation_score_seconds: f64,
    /// Variant evaluations parsed by delta against their refinement parent.
    pub evaluation_delta_parses: usize,
    /// Span evaluations parsed from scratch (roots, unusable diffs).
    pub evaluation_full_parses: usize,
    /// Fraction of parent records copy-forwarded by delta parses (the delta-hit rate).
    pub evaluation_delta_record_reuse: f64,
    /// Fraction of columns re-aggregated by delta-parsed evaluations (dirty-column
    /// fraction; lower = more incremental scoring).
    pub evaluation_dirty_column_fraction: f64,
}

impl StatsReport {
    fn from_stats(stats: &PipelineStats) -> Self {
        let t = &stats.timings;
        StatsReport {
            candidates_generated: stats.candidates_generated,
            candidates_pruned: stats.candidates_pruned,
            charsets_enumerated: stats.charsets_enumerated,
            records_examined: stats.records_examined,
            sample_bytes: stats.sample_bytes,
            iterations: stats.iterations,
            step_seconds: [
                t.sampling.as_secs_f64(),
                t.generation.as_secs_f64(),
                t.pruning.as_secs_f64(),
                t.evaluation.as_secs_f64(),
                t.extraction.as_secs_f64(),
            ],
            extraction_threads: stats.extraction_threads,
            evaluation_threads: stats.evaluation_threads,
            evaluation_count: stats.evaluation_metrics.evaluations,
            evaluation_memo_hits: stats.evaluation_metrics.memo_hits,
            evaluation_lineage_hits: stats.evaluation_metrics.lineage_hits,
            evaluation_parse_seconds: stats.evaluation_metrics.parse_seconds,
            evaluation_score_seconds: stats.evaluation_metrics.score_seconds,
            evaluation_delta_parses: stats.evaluation_metrics.delta_parses,
            evaluation_full_parses: stats.evaluation_metrics.delta_full_parses,
            evaluation_delta_record_reuse: stats.evaluation_metrics.delta_record_reuse_rate(),
            evaluation_dirty_column_fraction: stats.evaluation_metrics.dirty_column_fraction(),
        }
    }
}

/// A complete, serializable extraction report.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtractionReport {
    /// Size of the input dataset in bytes.
    pub dataset_bytes: usize,
    /// Number of lines in the input dataset.
    pub dataset_lines: usize,
    /// Total records extracted across all record types.
    pub record_count: usize,
    /// Number of lines left as noise.
    pub noise_lines: usize,
    /// Fraction of the dataset's bytes left unexplained.
    pub noise_fraction: f64,
    /// One report per discovered record type.
    pub structures: Vec<StructureReport>,
    /// Search statistics.
    pub stats: StatsReport,
}

impl ExtractionReport {
    /// Builds a report from the raw input text and the extraction result.
    pub fn new(text: &str, result: &ExtractionResult) -> Self {
        let structures = result
            .structures
            .iter()
            .map(|s| StructureReport {
                template: s.template.to_string(),
                field_count: s.template.field_count(),
                record_count: s.records.len(),
                coverage: s.coverage,
                score: s.score,
                column_types: s
                    .column_types
                    .iter()
                    .map(FieldType::name)
                    .map(str::to_string)
                    .collect(),
                semantics: annotate_table(&s.denormalized),
                tables: s.relational.tables.iter().map(|t| t.name.clone()).collect(),
            })
            .collect();
        ExtractionReport {
            dataset_bytes: text.len(),
            dataset_lines: text.lines().count(),
            record_count: result.record_count(),
            noise_lines: result.noise_lines.len(),
            noise_fraction: result.noise_fraction,
            structures,
            stats: StatsReport::from_stats(&result.stats),
        }
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Parses a report back from JSON.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&JsonValue::parse(json)?)
    }

    fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("dataset_bytes".into(), num(self.dataset_bytes)),
            ("dataset_lines".into(), num(self.dataset_lines)),
            ("record_count".into(), num(self.record_count)),
            ("noise_lines".into(), num(self.noise_lines)),
            (
                "noise_fraction".into(),
                JsonValue::Number(self.noise_fraction),
            ),
            (
                "structures".into(),
                JsonValue::Array(self.structures.iter().map(structure_to_json).collect()),
            ),
            ("stats".into(), stats_to_json(&self.stats)),
        ])
    }

    fn from_json_value(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(ExtractionReport {
            dataset_bytes: v.require("dataset_bytes")?.as_usize()?,
            dataset_lines: v.require("dataset_lines")?.as_usize()?,
            record_count: v.require("record_count")?.as_usize()?,
            noise_lines: v.require("noise_lines")?.as_usize()?,
            noise_fraction: v.require("noise_fraction")?.as_f64()?,
            structures: v
                .require("structures")?
                .as_array()?
                .iter()
                .map(structure_from_json)
                .collect::<Result<_, _>>()?,
            stats: stats_from_json(v.require("stats")?)?,
        })
    }
}

fn num(n: usize) -> JsonValue {
    JsonValue::Number(n as f64)
}

fn strings(items: &[String]) -> JsonValue {
    JsonValue::Array(items.iter().map(|s| JsonValue::String(s.clone())).collect())
}

fn string_vec(v: &JsonValue) -> Result<Vec<String>, JsonError> {
    v.as_array()?
        .iter()
        .map(|item| item.as_str().map(str::to_string))
        .collect()
}

fn structure_to_json(s: &StructureReport) -> JsonValue {
    JsonValue::Object(vec![
        ("template".into(), JsonValue::String(s.template.clone())),
        ("field_count".into(), num(s.field_count)),
        ("record_count".into(), num(s.record_count)),
        ("coverage".into(), JsonValue::Number(s.coverage)),
        ("score".into(), JsonValue::Number(s.score)),
        ("column_types".into(), strings(&s.column_types)),
        ("semantics".into(), semantics_to_json(&s.semantics)),
        ("tables".into(), strings(&s.tables)),
    ])
}

fn structure_from_json(v: &JsonValue) -> Result<StructureReport, JsonError> {
    Ok(StructureReport {
        template: v.require("template")?.as_str()?.to_string(),
        field_count: v.require("field_count")?.as_usize()?,
        record_count: v.require("record_count")?.as_usize()?,
        coverage: v.require("coverage")?.as_f64()?,
        score: v.require("score")?.as_f64()?,
        column_types: string_vec(v.require("column_types")?)?,
        semantics: semantics_from_json(v.require("semantics")?)?,
        tables: string_vec(v.require("tables")?)?,
    })
}

fn semantics_to_json(annotation: &TableAnnotation) -> JsonValue {
    let columns = annotation
        .columns
        .iter()
        .map(|c| {
            JsonValue::Object(vec![
                ("column".into(), num(c.column)),
                (
                    "semantic".into(),
                    JsonValue::String(c.semantic.name().into()),
                ),
                ("confidence".into(), JsonValue::Number(c.confidence)),
            ])
        })
        .collect();
    let composites = annotation
        .composites
        .iter()
        .map(|c| {
            JsonValue::Object(vec![
                ("first_column".into(), num(c.first_column)),
                ("width".into(), num(c.width)),
                (
                    "delimiter".into(),
                    JsonValue::String(c.delimiter.to_string()),
                ),
                (
                    "semantic".into(),
                    JsonValue::String(c.semantic.name().into()),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("columns".into(), JsonValue::Array(columns)),
        ("composites".into(), JsonValue::Array(composites)),
    ])
}

fn semantic_from_json(v: &JsonValue) -> Result<SemanticType, JsonError> {
    let name = v.as_str()?;
    SemanticType::from_name(name)
        .ok_or_else(|| JsonError::shape(format!("unknown semantic type {name:?}")))
}

fn semantics_from_json(v: &JsonValue) -> Result<TableAnnotation, JsonError> {
    let columns = v
        .require("columns")?
        .as_array()?
        .iter()
        .map(|c| {
            Ok(ColumnAnnotation {
                column: c.require("column")?.as_usize()?,
                semantic: semantic_from_json(c.require("semantic")?)?,
                confidence: c.require("confidence")?.as_f64()?,
            })
        })
        .collect::<Result<_, JsonError>>()?;
    let composites = v
        .require("composites")?
        .as_array()?
        .iter()
        .map(|c| {
            let delimiter = c.require("delimiter")?.as_str()?;
            Ok(CompositeColumn {
                first_column: c.require("first_column")?.as_usize()?,
                width: c.require("width")?.as_usize()?,
                delimiter: delimiter
                    .chars()
                    .next()
                    .ok_or_else(|| JsonError::shape("empty composite delimiter"))?,
                semantic: semantic_from_json(c.require("semantic")?)?,
            })
        })
        .collect::<Result<_, JsonError>>()?;
    Ok(TableAnnotation {
        columns,
        composites,
    })
}

fn stats_to_json(stats: &StatsReport) -> JsonValue {
    JsonValue::Object(vec![
        (
            "candidates_generated".into(),
            num(stats.candidates_generated),
        ),
        ("candidates_pruned".into(), num(stats.candidates_pruned)),
        ("charsets_enumerated".into(), num(stats.charsets_enumerated)),
        ("records_examined".into(), num(stats.records_examined)),
        ("sample_bytes".into(), num(stats.sample_bytes)),
        ("iterations".into(), num(stats.iterations)),
        ("extraction_threads".into(), num(stats.extraction_threads)),
        ("evaluation_threads".into(), num(stats.evaluation_threads)),
        ("evaluation_count".into(), num(stats.evaluation_count)),
        (
            "evaluation_memo_hits".into(),
            num(stats.evaluation_memo_hits),
        ),
        (
            "evaluation_lineage_hits".into(),
            num(stats.evaluation_lineage_hits),
        ),
        (
            "evaluation_parse_seconds".into(),
            JsonValue::Number(stats.evaluation_parse_seconds),
        ),
        (
            "evaluation_score_seconds".into(),
            JsonValue::Number(stats.evaluation_score_seconds),
        ),
        (
            "evaluation_delta_parses".into(),
            num(stats.evaluation_delta_parses),
        ),
        (
            "evaluation_full_parses".into(),
            num(stats.evaluation_full_parses),
        ),
        (
            "evaluation_delta_record_reuse".into(),
            JsonValue::Number(stats.evaluation_delta_record_reuse),
        ),
        (
            "evaluation_dirty_column_fraction".into(),
            JsonValue::Number(stats.evaluation_dirty_column_fraction),
        ),
        (
            "step_seconds".into(),
            JsonValue::Array(
                stats
                    .step_seconds
                    .iter()
                    .map(|s| JsonValue::Number(*s))
                    .collect(),
            ),
        ),
    ])
}

fn stats_from_json(v: &JsonValue) -> Result<StatsReport, JsonError> {
    let seconds = v.require("step_seconds")?.as_array()?;
    if seconds.len() != 5 {
        return Err(JsonError::shape("step_seconds must have 5 entries"));
    }
    let mut step_seconds = [0.0f64; 5];
    for (slot, value) in step_seconds.iter_mut().zip(seconds) {
        *slot = value.as_f64()?;
    }
    Ok(StatsReport {
        candidates_generated: v.require("candidates_generated")?.as_usize()?,
        candidates_pruned: v.require("candidates_pruned")?.as_usize()?,
        charsets_enumerated: v.require("charsets_enumerated")?.as_usize()?,
        records_examined: v.require("records_examined")?.as_usize()?,
        sample_bytes: v.require("sample_bytes")?.as_usize()?,
        iterations: v.require("iterations")?.as_usize()?,
        step_seconds,
        // Reports written before the span extraction engine lack this field; reports
        // written while the engine was selectable also carry `extraction_backend` and
        // `evaluation_backend`, which are ignored.
        extraction_threads: match v.get("extraction_threads") {
            Some(t) => t.as_usize()?,
            None => 0,
        },
        // Reports written before the span evaluation engine lack the evaluation fields.
        evaluation_threads: match v.get("evaluation_threads") {
            Some(t) => t.as_usize()?,
            None => 0,
        },
        evaluation_count: match v.get("evaluation_count") {
            Some(t) => t.as_usize()?,
            None => 0,
        },
        evaluation_memo_hits: match v.get("evaluation_memo_hits") {
            Some(t) => t.as_usize()?,
            None => 0,
        },
        evaluation_parse_seconds: match v.get("evaluation_parse_seconds") {
            Some(t) => t.as_f64()?,
            None => 0.0,
        },
        evaluation_score_seconds: match v.get("evaluation_score_seconds") {
            Some(t) => t.as_f64()?,
            None => 0.0,
        },
        // Reports written before delta evaluation lack the delta telemetry.
        evaluation_lineage_hits: match v.get("evaluation_lineage_hits") {
            Some(t) => t.as_usize()?,
            None => 0,
        },
        evaluation_delta_parses: match v.get("evaluation_delta_parses") {
            Some(t) => t.as_usize()?,
            None => 0,
        },
        evaluation_full_parses: match v.get("evaluation_full_parses") {
            Some(t) => t.as_usize()?,
            None => 0,
        },
        evaluation_delta_record_reuse: match v.get("evaluation_delta_record_reuse") {
            Some(t) => t.as_f64()?,
            None => 0.0,
        },
        evaluation_dirty_column_fraction: match v.get("evaluation_dirty_column_fraction") {
            Some(t) => t.as_f64()?,
            None => 0.0,
        },
    })
}

/// Quotes one CSV cell per RFC 4180: cells containing commas, quotes, or newlines are wrapped
/// in double quotes with inner quotes doubled.
pub fn csv_quote(cell: &str) -> String {
    let mut out = String::new();
    push_csv_cell(&mut out, cell);
    out
}

/// Appends one RFC-4180-quoted cell to `out` without intermediate allocation — this is the
/// point where span-backed table cells finally become owned bytes.
fn push_csv_cell(out: &mut String, cell: &str) {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') || cell.contains('\r') {
        out.reserve(cell.len() + 2);
        out.push('"');
        for c in cell.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(cell);
    }
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

/// A mutable reference to a sink is itself a sink, so decorators that take ownership
/// ([`RetryingSink`], [`crate::fault::FailingSink`]) can wrap a borrowed sink and hand it
/// back to the caller afterwards.
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

/// How the retry decorator waits between attempts.  Injectable so tests can assert the
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

/// Bounded-retry policy with deterministic exponential backoff: attempt `k` (0-based)
/// waits `base_delay * factor^k`, capped at `max_delay`.  No jitter — the schedule is a
/// pure function of the attempt number, which is what makes retry behaviour testable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per failing call (so a call is attempted at most `max_retries + 1` times).
    pub max_retries: usize,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Multiplier applied per subsequent retry.
    pub factor: u32,
    /// Ceiling on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            factor: 2,
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based): `base_delay * factor^attempt`,
    /// saturating, capped at [`max_delay`](Self::max_delay).
    pub fn delay(&self, attempt: usize) -> Duration {
        let factor = u32::try_from(attempt)
            .ok()
            .and_then(|a| self.factor.checked_pow(a))
            .unwrap_or(u32::MAX);
        self.base_delay.saturating_mul(factor).min(self.max_delay)
    }
}

/// Wraps any [`RecordSink`] with bounded retries + exponential backoff for **transient**
/// failures ([`Error::is_transient`]: interrupted / timed-out / would-block I/O, directly
/// or behind a sink wrapper).  Permanent errors and exhausted retries propagate unchanged.
///
/// [`accepted_records`](Self::accepted_records) counts records the inner sink accepted;
/// after a successful [`finish`](RecordSink::finish) (which retries too, and flushes the
/// inner sink) that count is the number of durably written records — the number a caller
/// resuming after a failure can rely on.
///
/// The decorator replays the *call*, not partial bytes: it is intended for sinks whose
/// `record` is atomic with respect to failure (buffered writers that fail before touching
/// the stream, network sinks with transactional appends).
pub struct RetryingSink<S, P: Sleeper = ThreadSleeper> {
    inner: S,
    policy: RetryPolicy,
    sleeper: P,
    accepted: usize,
    retries: usize,
    finished: bool,
}

impl<S: RecordSink> RetryingSink<S> {
    /// Wraps `inner` with the given policy, sleeping on the real clock.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        RetryingSink::with_sleeper(inner, policy, ThreadSleeper)
    }
}

impl<S: RecordSink, P: Sleeper> RetryingSink<S, P> {
    /// Wraps `inner` with an injected sleeper (tests use [`RecordingSleeper`]).
    pub fn with_sleeper(inner: S, policy: RetryPolicy, sleeper: P) -> Self {
        RetryingSink {
            inner,
            policy,
            sleeper,
            accepted: 0,
            retries: 0,
            finished: false,
        }
    }

    /// Records the inner sink accepted; durable once [`finish`](RecordSink::finish) has
    /// succeeded (see [`finished`](Self::finished)).
    pub fn accepted_records(&self) -> usize {
        self.accepted
    }

    /// Total retries performed across all calls.
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// Whether `finish` completed successfully (everything accepted is flushed/durable).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Consumes the decorator, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Direct access to the inner sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Direct access to the sleeper (tests read the recorded backoff schedule out of a
    /// [`RecordingSleeper`]).
    pub fn sleeper(&self) -> &P {
        &self.sleeper
    }
}

/// Runs `call` with the retry policy; disjoint borrows so callers can close over fields of
/// the same struct the sleeper lives in.
fn run_with_retries<T>(
    policy: &RetryPolicy,
    sleeper: &mut dyn Sleeper,
    retries: &mut usize,
    mut call: impl FnMut() -> CoreResult<T>,
) -> CoreResult<T> {
    let mut attempt = 0usize;
    loop {
        match call() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < policy.max_retries => {
                sleeper.sleep(policy.delay(attempt));
                attempt += 1;
                *retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

impl<S: RecordSink, P: Sleeper> RecordSink for RetryingSink<S, P> {
    fn begin(&mut self, templates: &[StructureTemplate]) -> CoreResult<()> {
        let inner = &mut self.inner;
        run_with_retries(&self.policy, &mut self.sleeper, &mut self.retries, || {
            inner.begin(templates)
        })
    }

    fn record(&mut self, record: &StreamRecord<'_>) -> CoreResult<()> {
        let inner = &mut self.inner;
        run_with_retries(&self.policy, &mut self.sleeper, &mut self.retries, || {
            inner.record(record)
        })?;
        self.accepted += 1;
        Ok(())
    }

    fn finish(&mut self) -> CoreResult<()> {
        let inner = &mut self.inner;
        run_with_retries(&self.policy, &mut self.sleeper, &mut self.retries, || {
            inner.finish()
        })?;
        self.finished = true;
        Ok(())
    }
}

/// Per-table incremental CSV row writer: rows of one table always arrive sequentially
/// (the layout walk closes a table's row before opening its next), so cells stream out
/// left to right and the close pads any data columns the row did not fill.
struct CsvTableState<W> {
    name: String,
    out: W,
    n_data: usize,
    /// Data cells already emitted in the currently open row.
    filled: usize,
}

/// One record's view of the sink for the layout walk: the tables of the record's type,
/// the window its cells point into, and the sink's recycled staging buffer (no per-row
/// allocation).
struct CsvRows<'a, W> {
    tables: &'a mut [CsvTableState<W>],
    window: &'a str,
    buf: &'a mut String,
}

impl<W: Write> RowWriter for CsvRows<'_, W> {
    type Error = io::Error;

    /// Writes the synthesized key cells, exactly like the materialized tables.
    fn open_row(
        &mut self,
        table: usize,
        id: usize,
        parent: Option<(usize, usize)>,
    ) -> io::Result<()> {
        use std::fmt::Write as _;
        let t = &mut self.tables[table];
        t.filled = 0;
        self.buf.clear();
        let _ = write!(self.buf, "{id}");
        if let Some((parent_id, position)) = parent {
            let _ = write!(self.buf, ",{parent_id},{position}");
        }
        t.out.write_all(self.buf.as_bytes())
    }

    fn cell(&mut self, table: usize, cell: &FieldCell) -> io::Result<()> {
        let t = &mut self.tables[table];
        self.buf.clear();
        self.buf.push(',');
        push_csv_cell(self.buf, &self.window[cell.start..cell.end]);
        t.filled += 1;
        t.out.write_all(self.buf.as_bytes())
    }

    fn close_row(&mut self, table: usize) -> io::Result<()> {
        let t = &mut self.tables[table];
        while t.filled < t.n_data {
            t.out.write_all(b",")?;
            t.filled += 1;
        }
        t.out.write_all(b"\n")
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
pub struct CsvSink<W: Write, F: FnMut(&str) -> io::Result<W>> {
    factory: F,
    templates: Vec<StructureTemplate>,
    /// Per template: the range of its tables in the flat `tables` list.
    ranges: Vec<std::ops::Range<usize>>,
    /// Per template: its row-id counters.
    synths: Vec<RowIdSynth>,
    tables: Vec<CsvTableState<W>>,
    buf: String,
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
            buf: String::new(),
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
        self.templates = templates.to_vec();
        for (idx, template) in templates.iter().enumerate() {
            let schema = build_schema(template, &format!("type{idx}"));
            let first = self.tables.len();
            for st in &schema.tables {
                let mut out = (self.factory)(&st.name)
                    .map_err(|e| Error::io(&e).in_sink(format!("csv:{}", st.name)))?;
                self.buf.clear();
                push_csv_row(&mut self.buf, st.header().iter().map(String::as_str));
                out.write_all(self.buf.as_bytes())
                    .map_err(|e| Error::io(&e).in_sink(format!("csv:{}", st.name)))?;
                self.tables.push(CsvTableState {
                    name: st.name.clone(),
                    out,
                    n_data: st.column_ids.len(),
                    filled: 0,
                });
            }
            self.ranges.push(first..self.tables.len());
            self.synths.push(RowIdSynth::new(schema.tables.len()));
        }
        Ok(())
    }

    fn record(&mut self, record: &StreamRecord<'_>) -> CoreResult<()> {
        let t = record.template_index;
        let mut rows = CsvRows {
            tables: &mut self.tables[self.ranges[t].clone()],
            window: record.window,
            buf: &mut self.buf,
        };
        layout_record(
            self.templates[t].nodes(),
            record.cells,
            record.reps,
            &mut self.synths[t],
            &mut rows,
        )
        .map_err(|e| Error::io(&e).in_sink("csv"))
    }

    fn finish(&mut self) -> CoreResult<()> {
        for t in &mut self.tables {
            t.out
                .flush()
                .map_err(|e| Error::io(&e).in_sink(format!("csv:{}", t.name)))?;
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

/// The streaming counterpart of [`ExtractionReport`]: a machine-readable summary of one
/// bounded-memory streaming run (what the CLI's `extract --stream --format json` prints).
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// Records emitted to the sink.
    pub records: usize,
    /// Lines classified as noise.
    pub noise_lines: usize,
    /// Total bytes consumed from the stream.
    pub bytes_processed: usize,
    /// Total lines consumed from the stream.
    pub lines_processed: usize,
    /// Chunk windows processed.
    pub windows: usize,
    /// Peak resident window bytes (see
    /// [`StreamSummary::peak_window_bytes`]).
    pub peak_window_bytes: usize,
    /// Wall-clock seconds spent inside the sink callbacks.
    pub sink_seconds: f64,
    /// Wall-clock seconds spent matching templates against window text.
    pub match_seconds: f64,
    /// Lines diverted to the quarantine (all reasons).
    pub quarantined_lines: usize,
    /// Input lines that were not valid UTF-8 (processed lossily).
    pub invalid_utf8_lines: usize,
    /// Input lines dropped for exceeding the line-bytes budget.
    pub oversized_lines: usize,
    /// Why the stream stopped early ([`crate::streaming::StopReason::name`]), `None` when
    /// it ran to the end.
    pub stopped_reason: Option<String>,
    /// Human-readable renderings of the discovered structure templates.
    pub templates: Vec<String>,
    /// Aggregate matcher work counters (fused prefilter dispatches, per-template trials
    /// executed vs pruned) summed over every window.
    pub match_stats: MatchStats,
    /// The same counters per processed window, in window order.
    pub window_match_stats: Vec<MatchStats>,
    /// Per-window line and unmatched-line counts, in window order — the drift signal the
    /// serving layer's metrics endpoint shares with this report.
    pub window_unmatched: Vec<WindowUnmatched>,
}

/// Serializes one [`MatchStats`] as a JSON object.
fn match_stats_json(stats: &MatchStats) -> JsonValue {
    JsonValue::Object(vec![
        (
            "lines_dispatched".into(),
            num(stats.lines_dispatched as usize),
        ),
        (
            "fused_dispatches".into(),
            num(stats.fused_dispatches as usize),
        ),
        (
            "templates_trialed".into(),
            num(stats.templates_trialed as usize),
        ),
        (
            "templates_pruned".into(),
            num(stats.templates_pruned as usize),
        ),
        ("prune_rate".into(), JsonValue::Number(stats.prune_rate())),
        (
            "fused_dispatch_rate".into(),
            JsonValue::Number(stats.fused_dispatch_rate()),
        ),
    ])
}

/// Parses one [`MatchStats`] object (rates are derived, not read back).
fn match_stats_from_json(v: &JsonValue) -> Result<MatchStats, JsonError> {
    let field = |key: &str| -> Result<u64, JsonError> {
        v.get(key).map_or(Ok(0), |x| x.as_usize().map(|n| n as u64))
    };
    Ok(MatchStats {
        lines_dispatched: field("lines_dispatched")?,
        fused_dispatches: field("fused_dispatches")?,
        templates_trialed: field("templates_trialed")?,
        templates_pruned: field("templates_pruned")?,
    })
}

impl StreamReport {
    /// Builds the report from a streaming run's summary.
    pub fn new(summary: &StreamSummary) -> Self {
        StreamReport {
            records: summary.records,
            noise_lines: summary.noise_lines,
            bytes_processed: summary.bytes_processed,
            lines_processed: summary.lines_processed,
            windows: summary.windows,
            peak_window_bytes: summary.peak_window_bytes,
            sink_seconds: summary.sink_seconds,
            match_seconds: summary.match_seconds,
            quarantined_lines: summary.quarantined_lines,
            invalid_utf8_lines: summary.invalid_utf8_lines,
            oversized_lines: summary.oversized_lines,
            stopped_reason: summary.stopped_reason.map(|r| r.name().to_string()),
            templates: summary.templates.iter().map(|t| t.to_string()).collect(),
            match_stats: summary.match_stats(),
            window_match_stats: summary.window_match_stats.clone(),
            window_unmatched: summary.window_unmatched.clone(),
        }
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// The report as a [`JsonValue`] tree, for callers that nest it inside a larger
    /// document (the serve metrics endpoint wraps it in a `stream` section).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("records".into(), num(self.records)),
            ("noise_lines".into(), num(self.noise_lines)),
            ("bytes_processed".into(), num(self.bytes_processed)),
            ("lines_processed".into(), num(self.lines_processed)),
            ("windows".into(), num(self.windows)),
            ("peak_window_bytes".into(), num(self.peak_window_bytes)),
            ("sink_seconds".into(), JsonValue::Number(self.sink_seconds)),
            (
                "match_seconds".into(),
                JsonValue::Number(self.match_seconds),
            ),
            ("quarantined_lines".into(), num(self.quarantined_lines)),
            ("invalid_utf8_lines".into(), num(self.invalid_utf8_lines)),
            ("oversized_lines".into(), num(self.oversized_lines)),
            (
                "stopped_reason".into(),
                match &self.stopped_reason {
                    Some(r) => JsonValue::String(r.clone()),
                    None => JsonValue::Null,
                },
            ),
            ("templates".into(), strings(&self.templates)),
            ("match_stats".into(), match_stats_json(&self.match_stats)),
            (
                "window_match_stats".into(),
                JsonValue::Array(
                    self.window_match_stats
                        .iter()
                        .map(match_stats_json)
                        .collect(),
                ),
            ),
            (
                "window_unmatched".into(),
                JsonValue::Array(
                    self.window_unmatched
                        .iter()
                        .map(|w| {
                            JsonValue::Object(vec![
                                ("lines".into(), num(w.lines)),
                                ("unmatched".into(), num(w.unmatched)),
                                (
                                    "unmatched_rate".into(),
                                    JsonValue::Number(w.unmatched_rate()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a report back from JSON.  The fault-tolerance fields are optional so reports
    /// written by earlier versions still parse (they default to zero / absent).
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let v = JsonValue::parse(text)?;
        let opt_usize = |key: &str| -> Result<usize, JsonError> {
            v.get(key).map_or(Ok(0), JsonValue::as_usize)
        };
        let stopped_reason = match v.get("stopped_reason") {
            None | Some(JsonValue::Null) => None,
            Some(other) => Some(other.as_str()?.to_string()),
        };
        Ok(StreamReport {
            records: v.require("records")?.as_usize()?,
            noise_lines: v.require("noise_lines")?.as_usize()?,
            bytes_processed: v.require("bytes_processed")?.as_usize()?,
            lines_processed: v.require("lines_processed")?.as_usize()?,
            windows: v.require("windows")?.as_usize()?,
            peak_window_bytes: v.require("peak_window_bytes")?.as_usize()?,
            sink_seconds: v.require("sink_seconds")?.as_f64()?,
            match_seconds: v.get("match_seconds").map_or(Ok(0.0), JsonValue::as_f64)?,
            quarantined_lines: opt_usize("quarantined_lines")?,
            invalid_utf8_lines: opt_usize("invalid_utf8_lines")?,
            oversized_lines: opt_usize("oversized_lines")?,
            stopped_reason,
            templates: string_vec(v.require("templates")?)?,
            match_stats: v
                .get("match_stats")
                .map_or(Ok(MatchStats::default()), match_stats_from_json)?,
            window_match_stats: match v.get("window_match_stats") {
                None | Some(JsonValue::Null) => Vec::new(),
                Some(JsonValue::Array(items)) => items
                    .iter()
                    .map(match_stats_from_json)
                    .collect::<Result<_, _>>()?,
                Some(_) => {
                    return Err(JsonError::shape("window_match_stats must be an array"));
                }
            },
            window_unmatched: match v.get("window_unmatched") {
                None | Some(JsonValue::Null) => Vec::new(),
                Some(JsonValue::Array(items)) => items
                    .iter()
                    .map(|w| {
                        Ok(WindowUnmatched {
                            lines: w.require("lines")?.as_usize()?,
                            unmatched: w.require("unmatched")?.as_usize()?,
                        })
                    })
                    .collect::<Result<_, JsonError>>()?,
                Some(_) => {
                    return Err(JsonError::shape("window_unmatched must be an array"));
                }
            },
        })
    }
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

    #[test]
    fn report_summarizes_extraction() {
        let text = sample_log();
        let result = Datamaran::with_defaults().extract(&text).unwrap();
        let report = ExtractionReport::new(&text, &result);
        assert_eq!(report.dataset_bytes, text.len());
        assert_eq!(report.record_count, 80);
        assert_eq!(report.structures.len(), 1);
        let s = &report.structures[0];
        assert!(s.field_count >= 6);
        assert_eq!(s.column_types.len(), s.field_count);
        assert_eq!(s.semantics.columns.len(), s.field_count);
        assert!(!s.tables.is_empty());
        assert!(report.stats.step_seconds.iter().all(|x| *x >= 0.0));
    }

    #[test]
    fn report_json_round_trips() {
        let text = sample_log();
        let result = Datamaran::with_defaults().extract(&text).unwrap();
        let report = ExtractionReport::new(&text, &result);
        let json = report.to_json();
        assert!(json.contains("\"template\""));
        let back = ExtractionReport::from_json(&json).unwrap();
        // Compare the structural content; exact float equality is not what the format
        // guarantees (timings are environment-dependent anyway).
        assert_eq!(back.dataset_bytes, report.dataset_bytes);
        assert_eq!(back.record_count, report.record_count);
        assert_eq!(back.noise_lines, report.noise_lines);
        assert_eq!(back.structures.len(), report.structures.len());
        for (a, b) in back.structures.iter().zip(&report.structures) {
            assert_eq!(a.template, b.template);
            assert_eq!(a.field_count, b.field_count);
            assert_eq!(a.record_count, b.record_count);
            assert_eq!(a.column_types, b.column_types);
            assert_eq!(a.tables, b.tables);
        }
        assert_eq!(back.stats.iterations, report.stats.iterations);
        assert!(!json.contains("\"evaluation_backend\""));
        assert_eq!(back.stats.evaluation_count, report.stats.evaluation_count);
        assert_eq!(
            back.stats.evaluation_memo_hits,
            report.stats.evaluation_memo_hits
        );
        assert!(back.stats.evaluation_parse_seconds >= 0.0);
        assert!(back.stats.evaluation_score_seconds >= 0.0);
        // Reports written while the extraction and evaluation engines were selectable
        // carry their names in the stats object; they still parse.
        assert_eq!(json.matches("\"candidates_generated\"").count(), 1);
        let older = json.replace(
            "\"candidates_generated\"",
            "\"extraction_backend\": \"legacy\", \"evaluation_backend\": \"span-full\", \
             \"candidates_generated\"",
        );
        let back = ExtractionReport::from_json(&older).unwrap();
        assert_eq!(back.stats.iterations, report.stats.iterations);
    }

    #[test]
    fn csv_quoting_handles_special_characters() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_quote("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_quote(""), "");
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

    #[test]
    fn stream_report_round_trips() {
        let report = StreamReport {
            records: 12,
            noise_lines: 3,
            bytes_processed: 4096,
            lines_processed: 15,
            windows: 4,
            peak_window_bytes: 2048,
            sink_seconds: 0.25,
            match_seconds: 0.5,
            quarantined_lines: 2,
            invalid_utf8_lines: 1,
            oversized_lines: 1,
            stopped_reason: Some("window-bytes".into()),
            templates: vec!["F=F\\n".into()],
            match_stats: MatchStats {
                lines_dispatched: 15,
                fused_dispatches: 15,
                templates_trialed: 18,
                templates_pruned: 27,
            },
            window_match_stats: vec![
                MatchStats {
                    lines_dispatched: 8,
                    fused_dispatches: 8,
                    templates_trialed: 10,
                    templates_pruned: 14,
                },
                MatchStats {
                    lines_dispatched: 7,
                    fused_dispatches: 7,
                    templates_trialed: 8,
                    templates_pruned: 13,
                },
            ],
            window_unmatched: vec![
                WindowUnmatched {
                    lines: 8,
                    unmatched: 2,
                },
                WindowUnmatched {
                    lines: 7,
                    unmatched: 1,
                },
            ],
        };
        let back = StreamReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    /// Reports written before the fault-tolerance fields existed must still parse.
    #[test]
    fn stream_report_parses_legacy_json_without_fault_fields() {
        let legacy = r#"{
            "records": 5, "noise_lines": 1, "bytes_processed": 100,
            "lines_processed": 6, "windows": 2, "peak_window_bytes": 64,
            "sink_seconds": 0.5, "templates": ["F\n"]
        }"#;
        let report = StreamReport::from_json(legacy).unwrap();
        assert_eq!(report.records, 5);
        assert_eq!(report.quarantined_lines, 0);
        assert_eq!(report.invalid_utf8_lines, 0);
        assert_eq!(report.oversized_lines, 0);
        assert_eq!(report.stopped_reason, None);
        assert_eq!(report.match_stats, MatchStats::default());
        assert!(report.window_match_stats.is_empty());
        assert_eq!(report.match_seconds, 0.0);
        assert!(report.window_unmatched.is_empty());
    }

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
