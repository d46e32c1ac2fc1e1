//! `discover_loghub`: batch discovery (`Datamaran::extract`) on the LogHub-2.0 clone of
//! Hadoop, then the discovered tables streamed back out of the file.
//!
//! Input: `logsynth::loghub`'s `hadoop` entry (236 templates, ~0.8 MB) as the catalog
//! generates it, with its letters relabelled by the run's seed ([`relabel`]).
//! Re-drawing the clone from another generator seed instead changes how many record
//! types are found and the cost four-fold (1.9–8.9 s over seeds 0–9 on one core), which
//! no run length can make steady across seeds.

use crate::common::{
    describe_config, engine_config, letter_permutation, line_count, relabel, repeat_setup,
    write_and_reload, Ctx, Outcome,
};
use crate::redrive::redrive;
use crate::stats::{median, ratio, LatencySummary};
use crate::sys;
use crate::trace::Attribution;
use datamaran_core::{Datamaran, ExtractionResult, StructureTemplate};
use logsynth::GeneratedDataset;
use std::time::Instant;

/// `max_line_span` of the corpus matrix (`evalkit::corpus::corpus_config`).
const CORPUS_L: usize = 5;

/// Set-up rounds per run: set-up is ~20 ms here, so take more rounds than elsewhere.
const SETUP_REPEATS: usize = 15;

struct Input {
    data: GeneratedDataset,
}

fn setup(ctx: &Ctx) -> Result<Input, String> {
    let entry = logsynth::loghub::catalog()
        .into_iter()
        .find(|e| e.name == "hadoop")
        .ok_or("the loghub catalog has no hadoop entry")?;
    let mut data = entry.spec(1).generate();
    data.text = relabel(&data.text, &letter_permutation(ctx.args.seed));
    let path = ctx.file("hadoop.log");
    data.text = write_and_reload(&path, &data.text)?;
    Ok(Input { data })
}

/// Every input line lies in exactly one record or in the noise list.
fn partitions_lines(result: &ExtractionResult, lines: usize) -> bool {
    let mut owners = vec![0u32; lines];
    let record_lines = result
        .structures
        .iter()
        .flat_map(|s| &s.records)
        .flat_map(|r| r.line_span.0..r.line_span.1);
    for line in record_lines.chain(result.noise_lines.iter().copied()) {
        match owners.get_mut(line) {
            Some(n) => *n += 1,
            None => return false,
        }
    }
    owners.iter().all(|&n| n == 1)
}

fn templates_of(result: &ExtractionResult) -> Vec<StructureTemplate> {
    result.templates().into_iter().cloned().collect()
}

fn canonical(templates: &[StructureTemplate]) -> Vec<String> {
    templates
        .iter()
        .map(StructureTemplate::canonical_string)
        .collect()
}

/// One checked `extract` call: its wall seconds and result.
fn timed_extract(
    engine: &Datamaran,
    input: &Input,
    out: &mut Outcome,
) -> Option<(f64, ExtractionResult)> {
    out.attempted += 1;
    let started = Instant::now();
    let result = engine.extract(&input.data.text);
    let secs = started.elapsed().as_secs_f64();
    match result {
        Ok(r) if partitions_lines(&r, line_count(&input.data.text) as usize) => Some((secs, r)),
        Ok(_) => {
            out.failed += 1;
            eprintln!("check failed: extract left lines in no record or in two");
            None
        }
        Err(e) => {
            out.failed += 1;
            eprintln!("extract failed: {e}");
            None
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = engine_config(CORPUS_L)?;
    out.note(describe_config("discovery", &config));
    let engine = Datamaran::new(config.clone()).map_err(|e| e.to_string())?;
    let (setup_s, input) = repeat_setup(SETUP_REPEATS, || setup(ctx))?;
    out.note(format!(
        "input: hadoop clone, {} bytes, {} lines, letters relabelled by seed {}",
        input.data.text.len(),
        line_count(&input.data.text),
        ctx.args.seed
    ));
    if ctx.args.trace {
        traced(ctx, &engine, &config, &input, &mut out)?;
    } else {
        untraced(ctx, &engine, &input, setup_s, &mut out)?;
    }
    Ok(out)
}

fn untraced(
    ctx: &Ctx,
    engine: &Datamaran,
    input: &Input,
    setup_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    sys::reset_peak_rss()?;
    let started = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<ExtractionResult> = None;
    while times.is_empty() || started.elapsed().as_secs_f64() < ctx.args.seconds {
        let Some((secs, result)) = timed_extract(engine, input, out) else {
            break;
        };
        times.push(secs);
        match &first {
            None => first = Some(result),
            Some(f) => {
                let same = canonical(&templates_of(f)) == canonical(&templates_of(&result));
                out.check("repeated extract calls find the same templates", same);
            }
        }
    }
    let first = first.ok_or("no extract call succeeded")?;
    let peak_rss_mb = sys::peak_rss_mb()?;

    let view = evalkit::view::datamaran_view(&input.data.text, &first);
    let accuracy = evalkit::corpus::template_accuracy(&input.data, &view);
    let lines = line_count(&input.data.text) as f64;
    let discover_s = median(&times).expect("one extract call at least");
    // Batch output: every record of a call reaches the tables when the call returns, so
    // a record's latency from raw text to its row is its call's duration.
    let mut latencies: Vec<u64> = times
        .iter()
        .flat_map(|&t| std::iter::repeat_n((t * 1e9) as u64, first.record_count()))
        .collect();
    let latency = LatencySummary::from_nanos(&mut latencies)
        .ok_or("too few extracted records for a 99th percentile")?;
    out.note(format!(
        "extract calls: {} ({times:.3?} s); pipeline iterations {}; record types {}; \
         record latency samples {}",
        times.len(),
        first.stats.iterations,
        first.structures.len(),
        latency.samples
    ));
    out.metric("setup_s", setup_s);
    out.metric("discover_s", discover_s);
    out.metric("line_coverage", accuracy.line_coverage);
    out.metric("template_f1", accuracy.f1);
    // The batch path's throughput: raw log in, tables out.
    out.metric(
        "stream_mb_s",
        input.data.text.len() as f64 / 1e6 / discover_s,
    );
    out.metric("serve_p50_ms", latency.p50_ms);
    out.metric("serve_p99_ms", latency.p99_ms);
    // A log in a format nothing matches yet: its first rows exist when the call returns.
    out.metric("serve_recovery_s", discover_s);
    out.metric("unmatched_share", first.noise_lines.len() as f64 / lines);
    out.metric("peak_rss_mb", peak_rss_mb);
    Ok(())
}

fn traced(
    ctx: &Ctx,
    engine: &Datamaran,
    config: &datamaran_core::DatamaranConfig,
    input: &Input,
    out: &mut Outcome,
) -> Result<(), String> {
    // The library's own pipeline (untraced, timed from outside) alternates with the traced
    // re-drive, so the overhead compares like with like.
    let mut references = Vec::new();
    let mut walls = Vec::new();
    let mut stats = None;
    let mut reference: Option<ExtractionResult> = None;
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < ctx.args.seconds {
        let (secs, result) =
            timed_extract(engine, input, out).ok_or("the untraced extract call failed")?;
        references.push(secs);
        let expected = reference.get_or_insert(result);

        out.attempted += 1;
        let run = ctx.tracer.borrow_mut().open("run");
        let t0 = Instant::now();
        let pipeline = ctx.tracer.borrow_mut().open("pipeline");
        let redriven = redrive(&input.data.text, config, &ctx.tracer);
        ctx.tracer.borrow_mut().close(pipeline);
        walls.push(t0.elapsed().as_secs_f64());
        ctx.tracer.borrow_mut().close(run);
        let Some(r) = redriven else {
            out.failed += 1;
            eprintln!("the re-drive found no structure");
            break;
        };
        let same = canonical(&r.templates) == canonical(&templates_of(expected))
            && r.noise_lines == expected.noise_lines
            && r.records == expected.record_count();
        out.check(
            "traced re-drive reaches the templates of Datamaran::extract",
            same,
        );
        stats.get_or_insert(r.stats);
    }
    let reference_s = median(&references).expect("one extract call at least");
    let stats = stats.ok_or("no re-drive completed")?;

    let tracer = ctx.tracer.borrow();
    let attribution = Attribution::of(tracer.spans());
    let redrives = walls.len() as f64;
    let per = |layer: &str| attribution.self_s(layer) / redrives;
    let e = &stats.evaluation;
    out.metric("dataset.sample_s", per("dataset.sample"));
    out.metric("generation.self_s", per("generation"));
    out.metric("generation.candidates", stats.candidates as f64);
    out.metric("generation.records_examined", stats.records_examined as f64);
    out.metric("assimilation.self_s", per("assimilation"));
    out.metric(
        "assimilation.kept_ratio",
        ratio(stats.kept as f64, stats.candidates as f64),
    );
    out.metric("refine.self_s", per("refine"));
    out.metric("refine.evaluations", e.evaluations as f64);
    out.metric(
        "refine.memo_hit_ratio",
        ratio(e.memo_hits as f64, e.evaluations as f64),
    );
    out.metric(
        "refine.delta_parse_ratio",
        ratio(
            e.delta_parses as f64,
            (e.delta_parses + e.delta_full_parses) as f64,
        ),
    );
    out.metric("extract.self_s", per("extract"));
    out.metric("relational.self_s", per("relational"));
    out.metric("pipeline.self_s", per("pipeline"));
    out.metric("pipeline.iterations", stats.iterations as f64);
    crate::report::trace_layers(
        out,
        &attribution,
        tracer.spans().len(),
        median(&walls).expect("one re-drive") / reference_s - 1.0,
    );
    out.note(format!(
        "traced: re-drives {walls:.3?} s alternating with untraced extract calls \
         {references:.3?} s"
    ));
    drop(tracer);
    crate::report::write_spans(ctx)?;
    Ok(())
}
