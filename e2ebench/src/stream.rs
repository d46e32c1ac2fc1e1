//! `stream_tables`: bounded-memory streaming of a large HDFS-clone file into normalized
//! CSV tables, with the template set fixed at set-up so that discovery does no work.
//!
//! Input: `logsynth::loghub`'s `hdfs` entry scaled to ~26 MB, its generator seed XORed
//! with the run's seed.  The templates are one per ground-truth record type
//! (`datamaran_bench::loghub_template_set`), taken from the catalog's own `hdfs` clone
//! at its own seed — the format as known before this file arrived — so the template set
//! is the same for every run seed.  Records whose token layout differs from their type's
//! first example stay unmatched.  The output goes through `CsvSink` into writers that
//! count and discard.

use crate::common::{
    describe_config, engine_config, line_count, repeat_setup, touched, view_of, write_and_reload,
    Ctx, Outcome,
};
use crate::stats::{median, ratio, LatencySummary};
use crate::sys;
use crate::trace::{Attribution, Tracer};
use crate::wrap::{CountingWriter, Epoch, TimedRead, TimedSink};
use datamaran_core::{CsvSink, Datamaran, StreamOptions, StreamSession, StructureTemplate};
use logsynth::DatasetSpec;
use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `max_line_span` of the corpus matrix: the longest record the matcher looks for.
const CORPUS_L: usize = 5;

/// Set-up rounds per run.
const SETUP_REPEATS: usize = 5;

/// Passes per run at the least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Records generated (~120 bytes each).
const RECORDS: usize = 220_000;

/// Streaming passes record the latency of every this-many-th record.
const LATENCY_SAMPLE_EVERY: u64 = 8;

/// Latency samples a run's buffer holds without growing.
const LATENCY_CAPACITY: usize = 1 << 20;

/// Everything measured on one streaming pass.
#[derive(Clone, Debug, Default)]
struct PassResult {
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// Seconds from the pass start to the first record reaching the sink.
    pub first_row_s: f64,
    /// Bytes the session consumed.
    pub bytes: u64,
    /// Lines the session consumed.
    pub lines: u64,
    /// Records emitted.
    pub records: u64,
    /// Lines classified as noise.
    pub noise: u64,
    /// Data rows written to the root (per-record-type) CSV tables.
    pub root_rows: u64,
    /// CSV bytes written to all tables.
    pub csv_bytes: u64,
    /// Windows processed.
    pub windows: u64,
    /// Peak resident window bytes.
    pub peak_window_bytes: u64,
    /// Lines dispatched to the matcher.
    pub dispatched: u64,
    /// Lines answered through the fused DFA.
    pub fused: u64,
    /// Per-template trial runs.
    pub trials: u64,
}

/// Streams `path` through `templates` into normalized CSV tables written to discarding
/// writers, inside a `streaming.pass` span.  The latency of every
/// [`LATENCY_SAMPLE_EVERY`]-th record (from the read that completed its window to its
/// arrival at the sink) is appended to `latencies`; when
/// `records_out` is given, every record's type and line span are collected too.
fn stream_pass(
    tracer: &RefCell<Tracer>,
    epoch: Epoch,
    engine: &Datamaran,
    templates: &[StructureTemplate],
    path: &Path,
    latencies: &mut Vec<u64>,
    mut records_out: Option<&mut Vec<(usize, usize, usize)>>,
) -> Result<PassResult, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let last_read = Cell::new(0u64);
    let first_row = Cell::new(None::<u64>);
    let mut seen = 0u64;
    let started = epoch.now();
    let span = tracer.borrow_mut().open("streaming.pass");
    let reader =
        BufReader::with_capacity(64 * 1024, TimedRead::new(file, tracer, epoch, &last_read));
    let csv = CsvSink::new(|_table: &str| Ok(CountingWriter::default()));
    let mut sink = TimedSink::new(csv, tracer, epoch, |rec, now| {
        if seen.is_multiple_of(LATENCY_SAMPLE_EVERY) {
            latencies.push(now.saturating_sub(last_read.get()));
        }
        seen += 1;
        if first_row.get().is_none() {
            first_row.set(Some(now));
        }
        if let Some(out) = records_out.as_deref_mut() {
            out.push((rec.template_index, rec.line_span.0, rec.line_span.1));
        }
    });
    let summary = StreamSession::new(engine)
        .options(StreamOptions::default())
        .templates(templates.to_vec())
        .run(reader, &mut sink);
    tracer.borrow_mut().close(span);
    let ended = epoch.now();
    let summary = summary.map_err(|e| format!("streaming pass failed: {e}"))?;
    let mut result = PassResult {
        wall_s: (ended - started) as f64 / 1e9,
        first_row_s: first_row.get().map_or(0.0, |t| (t - started) as f64 / 1e9),
        bytes: summary.bytes_processed as u64,
        lines: summary.lines_processed as u64,
        records: summary.records as u64,
        noise: summary.noise_lines as u64,
        windows: summary.windows as u64,
        peak_window_bytes: summary.peak_window_bytes as u64,
        ..PassResult::default()
    };
    let stats = summary.match_stats();
    result.dispatched = stats.lines_dispatched;
    result.fused = stats.fused_dispatches;
    result.trials = stats.templates_trialed;
    for (name, writer) in sink.into_inner().into_writers() {
        let (bytes, newlines) = writer.counts();
        result.csv_bytes += bytes;
        if !name.contains("_array") {
            // One header line per table.
            result.root_rows += newlines.saturating_sub(1);
        }
    }
    Ok(result)
}

/// Per-pass streaming layers, averaged over `passes`.
fn stream_layers(out: &mut Outcome, a: &Attribution, passes: &[PassResult]) {
    let n = passes.len().max(1) as f64;
    let sum = |f: fn(&PassResult) -> u64| passes.iter().map(f).sum::<u64>() as f64;
    out.metric("streaming.self_s", a.self_s("streaming.pass") / n);
    out.metric("streaming.read_s", a.self_s("streaming.read") / n);
    out.metric("export.self_s", a.self_s("export") / n);
    out.metric("export.bytes_out", sum(|p| p.csv_bytes) / n);
    out.metric("streaming.windows", sum(|p| p.windows) / n);
    out.metric(
        "streaming.peak_window_bytes",
        passes
            .iter()
            .map(|p| p.peak_window_bytes)
            .max()
            .unwrap_or(0) as f64,
    );
    out.metric(
        "extract.trials_per_line",
        ratio(sum(|p| p.trials), sum(|p| p.dispatched)),
    );
    out.metric(
        "extract.fused_dispatch_ratio",
        ratio(sum(|p| p.fused), sum(|p| p.dispatched)),
    );
}

struct Input {
    spec: DatasetSpec,
    templates: Vec<StructureTemplate>,
    path: PathBuf,
    bytes: usize,
    lines: u64,
}

fn hdfs() -> Result<DatasetSpec, String> {
    let entry = logsynth::loghub::catalog()
        .into_iter()
        .find(|e| e.name == "hdfs")
        .ok_or("the loghub catalog has no hdfs entry")?;
    Ok(entry.spec(1))
}

fn setup(ctx: &Ctx) -> Result<Input, String> {
    let templates = datamaran_bench::loghub_template_set(&hdfs()?.generate());
    let mut spec = hdfs()?.with_records(RECORDS);
    spec.seed ^= ctx.args.seed;
    let data = spec.generate();
    let path = ctx.file("hdfs.log");
    let text = write_and_reload(&path, &data.text)?;
    Ok(Input {
        spec,
        templates,
        path,
        bytes: text.len(),
        lines: line_count(&text),
    })
}

/// One streaming pass over the input, with its output checks: records plus noise lines
/// equal the lines read (and in the file), and CSV data rows equal records.
fn checked_pass(
    tracer: &RefCell<Tracer>,
    ctx: &Ctx,
    engine: &Datamaran,
    input: &Input,
    latencies: &mut Vec<u64>,
    out: &mut Outcome,
) -> Result<PassResult, String> {
    out.attempted += 1;
    let p = stream_pass(
        tracer,
        ctx.epoch,
        engine,
        &input.templates,
        &input.path,
        latencies,
        None,
    )?;
    if p.records + p.noise != input.lines || p.lines != input.lines {
        out.failed += 1;
        eprintln!(
            "check failed: {} records + {} noise lines, {} lines read, {} in the file",
            p.records, p.noise, p.lines, input.lines
        );
    } else if p.root_rows != p.records {
        out.failed += 1;
        eprintln!(
            "check failed: {} CSV data rows for {} records",
            p.root_rows, p.records
        );
    }
    Ok(p)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = engine_config(CORPUS_L)?;
    out.note(describe_config("streaming", &config));
    let engine = Datamaran::new(config).map_err(|e| e.to_string())?;
    let (setup_s, input) = repeat_setup(SETUP_REPEATS, || setup(ctx))?;
    out.note(format!(
        "input: hdfs clone, {} bytes, {} lines, {} templates, generator seed {:#x}",
        input.bytes,
        input.lines,
        input.templates.len(),
        input.spec.seed
    ));
    if ctx.args.trace {
        traced(ctx, &engine, &input, &mut out)?;
        return Ok(out);
    }

    let mut latencies = touched(LATENCY_CAPACITY);
    sys::reset_peak_rss()?;
    let started = Instant::now();
    let mut done = Vec::new();
    while done.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.args.seconds {
        done.push(checked_pass(
            &ctx.tracer,
            ctx,
            &engine,
            &input,
            &mut latencies,
            &mut out,
        )?);
    }
    let peak_rss_mb = sys::peak_rss_mb()?;

    // Accuracy of what the streaming path extracted, against the generator's truth.
    let mut records = Vec::new();
    let mut scratch = Vec::new();
    stream_pass(
        &ctx.tracer,
        ctx.epoch,
        &engine,
        &input.templates,
        &input.path,
        &mut scratch,
        Some(&mut records),
    )?;
    let truth = input.spec.generate();
    let accuracy = evalkit::corpus::template_accuracy(&truth, &view_of(&truth.text, &records));
    drop(truth);

    let pass_s: Vec<f64> = done.iter().map(|p| p.wall_s).collect();
    let mb_s: Vec<f64> = done
        .iter()
        .map(|p| p.bytes as f64 / 1e6 / p.wall_s)
        .collect();
    let first_row: Vec<f64> = done.iter().map(|p| p.first_row_s).collect();
    let latency = LatencySummary::from_nanos(&mut latencies)
        .ok_or("too few streamed records for a 99th percentile")?;
    let last = done.last().expect("at least one pass");
    out.note(format!(
        "passes: {} ({:?} MB/s); record latency samples {} (p{} = {:.4} ms)",
        done.len(),
        mb_s.iter()
            .map(|v| (v * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
        latency.samples,
        latency.tail_pct,
        latency.tail_ms
    ));
    out.metric("setup_s", setup_s);
    // Raw text to relational tables; the templates are given, so this is one pass.
    out.metric("discover_s", median(&pass_s).expect("passes"));
    out.metric("line_coverage", accuracy.line_coverage);
    out.metric("template_f1", accuracy.f1);
    out.metric("stream_mb_s", median(&mb_s).expect("passes"));
    out.metric("serve_p50_ms", latency.p50_ms);
    out.metric("serve_p99_ms", latency.p99_ms);
    // Cold start with known templates: compile the matcher, read and match up to the
    // first record.
    out.metric("serve_recovery_s", median(&first_row).expect("passes"));
    out.metric("unmatched_share", last.noise as f64 / last.lines as f64);
    out.metric("peak_rss_mb", peak_rss_mb);
    Ok(out)
}

fn traced(ctx: &Ctx, engine: &Datamaran, input: &Input, out: &mut Outcome) -> Result<(), String> {
    // Untraced and traced passes alternate, so the overhead compares like with like.
    let untraced = RefCell::new(Tracer::new(false, ctx.epoch.origin()));
    let mut latencies = Vec::new();
    let mut reference = Vec::new();
    let mut done = Vec::new();
    let started = Instant::now();
    while done.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.args.seconds {
        let p = checked_pass(&untraced, ctx, engine, input, &mut Vec::new(), out)?;
        reference.push(p.wall_s);
        let run = ctx.tracer.borrow_mut().open("run");
        let p = checked_pass(&ctx.tracer, ctx, engine, input, &mut latencies, out);
        ctx.tracer.borrow_mut().close(run);
        done.push(p?);
    }
    let tracer = ctx.tracer.borrow();
    let attribution = Attribution::of(tracer.spans());
    stream_layers(out, &attribution, &done);
    crate::report::latency_layers(out, &mut latencies);
    let reference_s = median(&reference).expect("reference passes");
    let traced_s = median(&done.iter().map(|p| p.wall_s).collect::<Vec<_>>()).expect("passes");
    crate::report::trace_layers(
        out,
        &attribution,
        tracer.spans().len(),
        traced_s / reference_s - 1.0,
    );
    out.note(format!(
        "traced: {} passes (median {traced_s:.4} s) alternating with untraced ones \
         (median {reference_s:.4} s)",
        done.len()
    ));
    drop(tracer);
    crate::report::write_spans(ctx)
}
