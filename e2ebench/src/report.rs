//! The metric tables, the per-layer helpers the workloads share, and the result line.

use crate::common::{Args, Ctx, Outcome};
use crate::stats::LatencySummary;
use crate::trace::Attribution;
use std::fs::File;
use std::io::BufWriter;

/// End-to-end metrics (name, unit), reported by the untraced run of every workload.
///
/// Every workload reports every metric, each for the part of the system it drives:
///
/// | metric | `discover_loghub` | `stream_tables` | `serve_drift` |
/// |---|---|---|---|
/// | `setup_s` | median set-up round | same | same |
/// | `discover_s` | median `extract` call | median pass (templates given) | mean rediscovery |
/// | `line_coverage`, `template_f1` | `evalkit::corpus::template_accuracy` of the extraction | of the streamed records | of the served records |
/// | `stream_mb_s` | input bytes over `discover_s` | median pass | input bytes over `push_line` time outside rediscovery |
/// | `serve_p50_ms`, `serve_p99_ms` | record latency: its call's duration | from the read that completed its window | from the due time of the line that closed its window |
/// | `serve_recovery_s` | `discover_s`: first rows exist when the call returns | time to the first row | mean over drift events |
/// | `unmatched_share` | noise lines over lines | same | same (first session) |
/// | `peak_rss_mb` | `VmHWM` over the measured phase | same | same |
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("discover_s", "s"),
    ("line_coverage", "fraction"),
    ("template_f1", "fraction"),
    ("stream_mb_s", "MB/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_recovery_s", "s"),
    ("unmatched_share", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by the traced run of every workload; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("dataset.sample_s", "s"),
    ("generation.self_s", "s"),
    ("generation.candidates", "count"),
    ("generation.records_examined", "count"),
    ("assimilation.self_s", "s"),
    ("assimilation.kept_ratio", "fraction"),
    ("refine.self_s", "s"),
    ("refine.evaluations", "count"),
    ("refine.memo_hit_ratio", "fraction"),
    ("refine.delta_parse_ratio", "fraction"),
    ("extract.self_s", "s"),
    ("relational.self_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.iterations", "count"),
    ("serve.rediscover_s", "s"),
    ("serve.swaps", "count"),
    ("serve.rediscover_failures", "count"),
    ("journal.persist_s", "s"),
    ("journal.appends", "count"),
    ("journal.failures", "count"),
    ("serve.push_s", "s"),
    ("serve.windows", "count"),
    ("serve.queue_wait_s", "s"),
    ("extract.trials_per_line", "ratio"),
    ("extract.fused_dispatch_ratio", "fraction"),
    ("export.self_s", "s"),
    ("streaming.self_s", "s"),
    ("streaming.read_s", "s"),
    ("export.bytes_out", "bytes"),
    ("streaming.windows", "count"),
    ("streaming.peak_window_bytes", "bytes"),
    ("artifact.save_s", "s"),
    ("artifact.load_s", "s"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.wait_s", "s"),
    ("loadgen.read_s", "s"),
    ("record_latency.samples", "count"),
    ("record_latency.tail_pct", "percentile"),
    ("record_latency.tail_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_share", "fraction"),
    ("trace.overhead_share", "fraction"),
    ("trace.spans", "count"),
];

/// Wall time no layer accounts for, as a share of the traced run's wall time, above
/// which the trace does not reconcile.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// Sample count and deepest supported percentile of a record-latency distribution.
pub fn latency_layers(out: &mut Outcome, latencies: &mut [u64]) {
    if let Some(s) = LatencySummary::from_nanos(latencies) {
        out.metric("record_latency.samples", s.samples as f64);
        out.metric("record_latency.tail_pct", s.tail_pct);
        out.metric("record_latency.tail_ms", s.tail_ms);
    }
}

/// The trace's own bookkeeping, and the reconciliation check.
pub fn trace_layers(out: &mut Outcome, a: &Attribution, spans: usize, overhead: f64) {
    out.metric("trace.wall_s", a.wall_s);
    out.metric("trace.unattributed_share", a.unattributed_share());
    out.metric("trace.overhead_share", overhead);
    out.metric("trace.spans", spans as f64);
    out.check(
        format!(
            "layer self times reconcile with the traced wall time {:.3} s \
             (unattributed {:.2}% <= {:.0}%)",
            a.wall_s,
            100.0 * a.unattributed_share(),
            100.0 * MAX_UNATTRIBUTED
        ),
        a.unattributed_share() <= MAX_UNATTRIBUTED,
    );
    for (layer, secs) in &a.layers {
        out.note(format!(
            "layer {layer}: self {secs:.6} s over {} calls",
            a.calls[layer]
        ));
    }
    out.note(format!(
        "unattributed {:.6} s of {:.6} s",
        a.unattributed_s, a.wall_s
    ));
}

/// Writes the recorded spans next to the run's other files.
pub fn write_spans(ctx: &Ctx) -> Result<(), String> {
    let path = ctx.output("spans.tsv");
    let file = File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    ctx.tracer
        .borrow()
        .write_tsv(BufWriter::new(file))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Prints the run's context, checks and metrics, and returns the result line: every
/// metric of the run's table by name, missing per-layer metrics as 0.
pub fn render(args: &Args, mut out: Outcome) -> Result<String, String> {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, ok) in &out.checks {
        println!("check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    for line in &out.notes {
        println!("{line}");
    }
    let mut fields = Vec::new();
    let mut absent = Vec::new();
    for (name, unit) in table {
        let value = match out.metrics.iter().rev().find(|(n, _)| n == name) {
            Some(&(_, v)) => v,
            None if args.trace => {
                absent.push(*name);
                0.0
            }
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !absent.is_empty() {
        println!(
            "not exercised by this workload (reported as 0): {}",
            absent.join(" ")
        );
    }
    out.metrics.clear();
    let correct = out.failed == 0 && out.checks.iter().all(|(_, ok)| *ok) && out.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    ))
}
