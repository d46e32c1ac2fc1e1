//! `serve_drift`: a `ServeSession` fed open-loop at a fixed line rate while the log's
//! format drifts three times, with every hot swap journaled.
//!
//! Traffic: `logsynth::corpus::app_log` alone for the first quarter of the traffic file;
//! each later quarter mixes app_log (40%) with one new family (60%): `kv_metrics`, then
//! `csv_transactions`, then `syslog_line`, with letters relabelled by the run's seed
//! ([`relabel`]): re-drawing the phases from other generator seeds changes which window
//! triggers each rediscovery and what it finds, moving the drift metrics and the
//! unmatched share by ~25% from seed to seed.  The initial templates are discovered on
//! the head of the first phase, saved as a `TemplateArtifact` and loaded back; the store
//! journals every swap through `JournalPersistence`.  The engine is the daemon's default
//! (L = 10) on one thread.
//!
//! A run serves the file [`SESSIONS`] times, each with a fresh store and journal, so
//! that twelve drift events rather than three set the drift-path metrics: one
//! rediscovery of a few hundred lines varies by ±15–30% between identical calls on a
//! shared two-core machine.
//!
//! Per record, latency runs from the due time of the line whose push closed the record's
//! window to the record's arrival at the sink: waiting for the window to fill is
//! excluded, queueing behind a stall is included.

use crate::common::{
    describe_config, engine_config, letter_permutation, relabel, repeat_setup, touched, view_of,
    Ctx, Outcome,
};
use crate::loadgen::{self, Clock, LoadStats, WallClock};
use crate::stats::{median, ratio, LatencySummary};
use crate::sys;
use crate::trace::{Attribution, Tracer};
use crate::wrap::{CountingWriter, Epoch, TimedPersistence, TimedSink};
use datamaran_core::{
    recovered_snapshot, snapshot_from_artifact, Datamaran, JournalConfig, JournalPersistence,
    JsonLinesSink, ServeOptions, ServeSession, SnapshotStore, StructureTemplate, TemplateArtifact,
};
use logsynth::corpus::{app_log, csv_transactions, kv_metrics, syslog_line};
use logsynth::{DatasetSpec, GeneratedDataset, GroundTruthRecord, RecordTypeSpec};
use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Offered load, lines per second.
const RATE: f64 = 100_000.0;

/// Lines of the first phase the initial templates are discovered on.
const HEAD_LINES: usize = 500;

/// Share of a drift phase's lines in the new format.
const DRIFT_SHARE: f64 = 0.6;

/// Format families in order of first appearance: app_log, then the three drifts.
const FAMILIES: usize = 4;

/// Serving sessions per run.
const SESSIONS: usize = 4;

/// Set-up rounds per run (each generates the traffic and discovers the head).
const SETUP_REPEATS: usize = 3;

fn family(k: usize) -> RecordTypeSpec {
    match k {
        0 => app_log(0),
        1 => kv_metrics(0),
        2 => csv_transactions(0),
        _ => syslog_line(0),
    }
}

/// Phase `k`'s dataset: app_log alone (`k == 0`) or app_log plus family `k`.
fn phase_spec(k: usize, lines: usize) -> DatasetSpec {
    let mut types = vec![family(0).with_weight(1.0 - DRIFT_SHARE)];
    if k > 0 {
        types.push(family(k).with_weight(DRIFT_SHARE));
    }
    let base = logsynth::loghub::stable_seed(&format!("serve_drift/phase{k}"));
    DatasetSpec::new(format!("serve_drift_{k}"), types, lines, base)
}

struct Input {
    path: PathBuf,
    artifact_path: PathBuf,
    journal_path: PathBuf,
    artifact: TemplateArtifact,
    /// Format family of every line.
    families: Vec<u8>,
    /// First line of each drifted family (index 1..=3).
    first_line: [usize; FAMILIES],
    lines: u64,
    bytes: usize,
    save_s: f64,
    load_s: f64,
}

fn setup(ctx: &Ctx, engine: &Datamaran, lines_per_phase: usize) -> Result<Input, String> {
    let path = ctx.file("traffic.log");
    let io_err = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    let mut file = BufWriter::new(File::create(&path).map_err(io_err)?);
    let mut families = Vec::with_capacity(lines_per_phase * FAMILIES);
    let mut first_line = [0usize; FAMILIES];
    let perm = letter_permutation(ctx.args.seed);
    let mut head = String::new();
    let mut bytes = 0usize;
    for (k, first) in first_line.iter_mut().enumerate() {
        let data = phase_spec(k, lines_per_phase).generate();
        let text = relabel(&data.text, &perm);
        if k == 0 {
            head = text.split_inclusive('\n').take(HEAD_LINES).collect();
        }
        for r in &data.records {
            // Type 0 of every phase is app_log, type 1 the phase's new family.
            let fam = if r.type_index == 0 { 0 } else { k as u8 };
            if fam > 0 && *first == 0 {
                *first = families.len();
            }
            families.push(fam);
        }
        bytes += text.len();
        file.write_all(text.as_bytes()).map_err(io_err)?;
    }
    file.flush().map_err(io_err)?;
    drop(file);

    let discovered = engine
        .extract(&head)
        .map_err(|e| format!("initial discovery failed: {e}"))?;
    let templates: Vec<StructureTemplate> = discovered.templates().into_iter().cloned().collect();
    let c = engine.config();
    let artifact = TemplateArtifact::new(templates, c.max_line_span, c.matching_backend)
        .map_err(|e| e.to_string())?;
    let artifact_path = ctx.file("templates.json");
    let started = Instant::now();
    artifact.save(&artifact_path).map_err(|e| e.to_string())?;
    let save_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let artifact = TemplateArtifact::load(&artifact_path).map_err(|e| e.to_string())?;
    let load_s = started.elapsed().as_secs_f64();
    Ok(Input {
        path,
        journal_path: ctx.file("templates.journal"),
        artifact_path,
        artifact,
        lines: families.len() as u64,
        families,
        first_line,
        bytes,
        save_s,
        load_s,
    })
}

/// Everything one serving session measured.
struct Session {
    /// Per drift event: seconds from the first drifted line's due time to the first row
    /// of that format matched by a template the drift added.
    recovery_s: [Option<f64>; FAMILIES],
    /// Rediscovery seconds of each published swap.
    rediscover_s: Vec<f64>,
    /// Whether each journal append succeeded.
    persists: Vec<bool>,
    /// Seconds spent inside `push_line`.
    busy_s: f64,
    /// Mean seconds a line waited past its due time before it was pushed.
    queue_wait_s: f64,
    load: LoadStats,
    lines: u64,
    records: u64,
    noise: u64,
    windows: u64,
    swaps: u64,
    rediscover_failures: u64,
    dispatched: u64,
    fused: u64,
    trials: u64,
    jsonl_bytes: u64,
    /// Canonical strings of the final served template set.
    served: Vec<String>,
    served_version: u64,
    push_errors: u64,
}

/// One open-loop session over the whole traffic file, with a fresh artifact, journal and
/// store.  Record latencies are appended to `latencies`; when `records_out` is given,
/// every served record's template index and line span are collected too.
fn serve_once(
    tracer: &RefCell<Tracer>,
    epoch: Epoch,
    engine: &Datamaran,
    input: &Input,
    latencies: &mut Vec<u64>,
    mut records_out: Option<&mut Vec<(usize, usize, usize)>>,
) -> Result<Session, String> {
    input
        .artifact
        .save(&input.artifact_path)
        .map_err(|e| e.to_string())?;
    match std::fs::remove_file(&input.journal_path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot remove the old journal: {e}")),
    }
    let lines = input.lines;
    let interval = 1e9 / RATE;
    let start = epoch.now() + 1_000_000;
    let due_of = |line: usize| loadgen::due(start, interval, line as u64);
    let current_due = Cell::new(0u64);
    let initial_templates = input.artifact.templates.len();
    let mut recovery: [Option<u64>; FAMILIES] = [None; FAMILIES];
    let bytes_out = CountingWriter::default();
    let mut sink = TimedSink::new(
        JsonLinesSink::new(bytes_out.clone()),
        tracer,
        epoch,
        |rec, now| {
            latencies.push(now.saturating_sub(current_due.get()));
            let line = rec.line_span.0;
            if let Some(out) = records_out.as_deref_mut() {
                out.push((rec.template_index, line, rec.line_span.1));
            }
            let fam = input.families.get(line).copied().unwrap_or(0) as usize;
            if fam > 0 && recovery[fam].is_none() && rec.template_index >= initial_templates {
                recovery[fam] = Some(now.saturating_sub(due_of(input.first_line[fam])));
            }
        },
    );
    let (persistence, deltas, _) = JournalPersistence::open(
        &input.artifact,
        &input.artifact_path,
        &input.journal_path,
        JournalConfig::default(),
    )
    .map_err(|e| format!("cannot open the journal: {e}"))?;
    if !deltas.is_empty() {
        return Err("a fresh journal replayed deltas".into());
    }
    let timed = Arc::new(TimedPersistence::new(persistence, epoch, sink.last_end()));
    let store =
        SnapshotStore::with_persistence(snapshot_from_artifact(&input.artifact), timed.clone());
    let mut session =
        ServeSession::new(engine, &store, ServeOptions::default()).map_err(|e| e.to_string())?;

    let file = File::open(&input.path).map_err(|e| format!("cannot open traffic: {e}"))?;
    let mut reader = BufReader::with_capacity(64 * 1024, file);
    let mut line = String::new();
    let (mut busy_ns, mut queue_ns, mut push_errors) = (0u64, 0u64, 0u64);
    let mut rediscover_s = Vec::new();
    let mut persists = Vec::new();
    let tracing = tracer.borrow().enabled();
    let run = tracer.borrow_mut().open("run");
    let mut clock = WallClock::new(epoch.origin());
    let mut last_end = clock.now();
    let load = loadgen::drive(&mut clock, start, interval, lines, |clock, due| {
        let read_start = clock.now();
        line.clear();
        let read = reader.read_line(&mut line);
        let began = clock.now();
        if tracing {
            // Leaves tile the generator's timeline: waiting for the due time plus its own
            // bookkeeping since the previous push, reading the line, pushing it.
            let mut t = tracer.borrow_mut();
            t.leaf("loadgen.wait", last_end, read_start);
            t.leaf("loadgen.read", read_start, began);
        }
        if !matches!(read, Ok(n) if n > 0) {
            push_errors += 1;
            last_end = clock.now();
            return;
        }
        queue_ns += began.saturating_sub(due);
        current_due.set(due);
        let push = tracer.borrow_mut().open("serve.push");
        if session.push_line(&line, &mut sink).is_err() {
            push_errors += 1;
        }
        for p in timed.drain() {
            // The session emits a window's records, then rediscovers, then swaps: what
            // lies between the last record and the journal append is rediscovery.
            let from = p.after_sink.max(began);
            rediscover_s.push(p.start.saturating_sub(from) as f64 / 1e9);
            persists.push(p.ok);
            let mut t = tracer.borrow_mut();
            t.child("serve.rediscover", from, p.start);
            t.child("journal.persist", p.start, p.end);
        }
        let closed = tracer.borrow_mut().close_or_fold(push);
        last_end = if tracing { closed } else { clock.now() };
        busy_ns += last_end - began;
    });
    // End of input: decide the carried-over tail.
    current_due.set(due_of(lines.saturating_sub(1) as usize));
    let finish = tracer.borrow_mut().open("serve.finish");
    let metrics = session.finish(&mut sink);
    tracer.borrow_mut().close(finish);
    tracer.borrow_mut().close(run);
    let metrics = metrics.map_err(|e| format!("finishing the session failed: {e}"))?;
    drop(sink);
    let served_snapshot = store.current();
    let stats = metrics.summary.match_stats();
    Ok(Session {
        recovery_s: recovery.map(|r| r.map(|ns| ns as f64 / 1e9)),
        rediscover_s,
        persists,
        busy_s: busy_ns as f64 / 1e9,
        queue_wait_s: queue_ns as f64 / 1e9 / lines.max(1) as f64,
        load,
        lines: metrics.summary.lines_processed as u64,
        records: metrics.summary.records as u64,
        noise: metrics.summary.noise_lines as u64,
        windows: metrics.summary.windows as u64,
        swaps: metrics.swaps,
        rediscover_failures: metrics.rediscover_failures,
        dispatched: stats.lines_dispatched,
        fused: stats.fused_dispatches,
        trials: stats.templates_trialed,
        jsonl_bytes: bytes_out.counts().0,
        served: served_snapshot
            .templates()
            .iter()
            .map(StructureTemplate::canonical_string)
            .collect(),
        served_version: served_snapshot.version(),
        push_errors,
    })
}

/// Checks a finished session: accounting, durable state, one recovery per drift.
fn check(out: &mut Outcome, input: &Input, s: &Session) -> Result<(), String> {
    out.attempted += s.load.calls;
    out.failed += s.push_errors;
    out.check(
        format!(
            "records {} + noise {} = lines read {} = lines pushed {}",
            s.records, s.noise, s.lines, input.lines
        ),
        s.records + s.noise == s.lines && s.lines == input.lines,
    );
    // Restart path: artifact + journal replay must reproduce the served set.
    let artifact = TemplateArtifact::load(&input.artifact_path).map_err(|e| e.to_string())?;
    let (_, deltas, _) = JournalPersistence::open(
        &artifact,
        &input.artifact_path,
        &input.journal_path,
        JournalConfig::default(),
    )
    .map_err(|e| format!("cannot reopen the journal: {e}"))?;
    let recovered = recovered_snapshot(&artifact, &deltas).map_err(|e| e.to_string())?;
    let recovered_set: Vec<String> = recovered
        .templates()
        .iter()
        .map(StructureTemplate::canonical_string)
        .collect();
    out.check(
        "journal replay over the artifact reproduces the served template set",
        recovered_set == s.served,
    );
    out.check(
        format!(
            "recovered snapshot version {} = 1 + swaps {} = served version {}",
            recovered.version(),
            s.swaps,
            s.served_version
        ),
        recovered.version() == 1 + s.swaps && s.served_version == recovered.version(),
    );
    out.check(
        "every drifted format reached the sink through a rediscovered template",
        s.recovery_s[1..].iter().all(Option::is_some),
    );
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = engine_config(10)?;
    out.note(describe_config("serving", &config));
    let engine = Datamaran::new(config).map_err(|e| e.to_string())?;
    let session_s = ctx.args.seconds / SESSIONS as f64;
    let lines_per_phase = (RATE * session_s / FAMILIES as f64).round().max(1_000.0) as usize;
    let (setup_s, input) = repeat_setup(SETUP_REPEATS, || setup(ctx, &engine, lines_per_phase))?;
    out.note(format!(
        "input: {} lines ({} bytes), letters relabelled by seed {}, at {RATE} lines/s open \
         loop, {SESSIONS} sessions; {} initial templates; drifts at lines {:?}",
        input.lines,
        input.bytes,
        ctx.args.seed,
        input.artifact.templates.len(),
        &input.first_line[1..]
    ));
    if ctx.args.trace {
        traced(ctx, &engine, &input, &mut out)?;
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
    // The benchmark's own record buffers are written once before the peak-RSS mark is
    // reset, so the mark measures the serving path.
    let per_session = input.lines as usize + 4096;
    let mut latencies = touched(per_session * SESSIONS);
    let mut served = touched(per_session);
    sys::reset_peak_rss()?;
    let mut sessions = Vec::new();
    for i in 0..SESSIONS {
        let records_out = (i == 0).then_some(&mut served);
        sessions.push(serve_once(
            &ctx.tracer,
            ctx.epoch,
            engine,
            input,
            &mut latencies,
            records_out,
        )?);
    }
    let peak_rss_mb = sys::peak_rss_mb()?;
    for s in &sessions {
        check(out, input, s)?;
    }
    let accuracy = accuracy(input, &served)?;
    let latency = LatencySummary::from_nanos(&mut latencies)
        .ok_or("too few served records for a 99th percentile")?;
    let recoveries: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.recovery_s[1..].iter().flatten().copied())
        .collect();
    let rediscoveries: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.rediscover_s.iter().copied())
        .collect();
    let capacity: Vec<f64> = sessions
        .iter()
        .map(|s| {
            let hot = s.busy_s - s.rediscover_s.iter().sum::<f64>();
            input.bytes as f64 / 1e6 / hot.max(1e-9)
        })
        .collect();
    let first = &sessions[0];
    out.note(format!(
        "session 1: {} records, {} noise lines, {} swaps, {} failed rediscoveries",
        first.records, first.noise, first.swaps, first.rediscover_failures
    ));
    out.note(format!("rediscoveries {rediscoveries:.3?} s"));
    out.note(format!("recoveries {recoveries:.3?} s"));
    out.note(format!(
        "record latency samples {} (p{} = {:.4} ms); generator late by at most {:.4} ms",
        latency.samples,
        latency.tail_pct,
        latency.tail_ms,
        sessions
            .iter()
            .map(|s| s.load.late_max_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
    ));
    if rediscoveries.is_empty() {
        return Err("no rediscovery published a swap".into());
    }
    out.metric("setup_s", setup_s);
    // Raw text to templates on the serving path: the drift rediscoveries, averaged (the
    // three drift formats cost different amounts, so a median would sit on the boundary
    // between two of them).
    out.metric(
        "discover_s",
        ratio(rediscoveries.iter().sum(), rediscoveries.len() as f64),
    );
    out.metric("line_coverage", accuracy.line_coverage);
    out.metric("template_f1", accuracy.f1);
    // Serving capacity: input bytes over the time spent in push_line outside drift
    // handling.
    out.metric("stream_mb_s", median(&capacity).expect("sessions"));
    out.metric("serve_p50_ms", latency.p50_ms);
    out.metric("serve_p99_ms", latency.p99_ms);
    // Averaged over every drift event of every session.
    out.metric(
        "serve_recovery_s",
        ratio(recoveries.iter().sum(), recoveries.len() as f64),
    );
    out.metric(
        "unmatched_share",
        ratio(first.noise as f64, first.lines as f64),
    );
    out.metric("peak_rss_mb", peak_rss_mb);
    Ok(())
}

fn traced(ctx: &Ctx, engine: &Datamaran, input: &Input, out: &mut Outcome) -> Result<(), String> {
    let untraced = RefCell::new(Tracer::new(false, ctx.epoch.origin()));
    let mut latencies = Vec::with_capacity(input.lines as usize);
    let reference = serve_once(&untraced, ctx.epoch, engine, input, &mut latencies, None)?;
    check(out, input, &reference)?;
    latencies.clear();
    let s = serve_once(&ctx.tracer, ctx.epoch, engine, input, &mut latencies, None)?;
    check(out, input, &s)?;
    let tracer = ctx.tracer.borrow();
    let a = Attribution::of(tracer.spans());
    let appends = s.persists.iter().filter(|&&ok| ok).count();
    out.metric(
        "serve.rediscover_s",
        ratio(s.rediscover_s.iter().sum(), s.rediscover_s.len() as f64),
    );
    out.metric("serve.swaps", s.swaps as f64);
    out.metric("serve.rediscover_failures", s.rediscover_failures as f64);
    out.metric(
        "journal.persist_s",
        ratio(a.self_s("journal.persist"), s.persists.len() as f64),
    );
    out.metric("journal.appends", appends as f64);
    out.metric("journal.failures", (s.persists.len() - appends) as f64);
    out.metric(
        "serve.push_s",
        a.self_s("serve.push") + a.self_s("serve.finish"),
    );
    out.metric("serve.windows", s.windows as f64);
    out.metric("serve.queue_wait_s", s.queue_wait_s);
    out.metric(
        "extract.trials_per_line",
        ratio(s.trials as f64, s.dispatched as f64),
    );
    out.metric(
        "extract.fused_dispatch_ratio",
        ratio(s.fused as f64, s.dispatched as f64),
    );
    out.metric("export.self_s", a.self_s("export"));
    out.metric("export.bytes_out", s.jsonl_bytes as f64);
    out.metric("artifact.save_s", input.save_s);
    out.metric("artifact.load_s", input.load_s);
    out.metric("loadgen.late_max_ms", s.load.late_max_ns as f64 / 1e6);
    out.metric("loadgen.wait_s", a.self_s("loadgen.wait"));
    out.metric("loadgen.read_s", a.self_s("loadgen.read"));
    crate::report::latency_layers(out, &mut latencies);
    crate::report::trace_layers(
        out,
        &a,
        tracer.spans().len(),
        s.busy_s / reference.busy_s - 1.0,
    );
    out.note(format!(
        "traced push time {:.4} s against untraced {:.4} s",
        s.busy_s, reference.busy_s
    ));
    drop(tracer);
    crate::report::write_spans(ctx)
}

/// Template F1 and line coverage of the served records against the family each line
/// was generated from (every line is one record).
fn accuracy(
    input: &Input,
    served: &[(usize, usize, usize)],
) -> Result<evalkit::corpus::TemplateAccuracy, String> {
    let text = std::fs::read_to_string(&input.path)
        .map_err(|e| format!("cannot read {}: {e}", input.path.display()))?;
    let mut records = Vec::with_capacity(input.families.len());
    let mut start = 0usize;
    for (i, (line, &fam)) in text.split_inclusive('\n').zip(&input.families).enumerate() {
        records.push(GroundTruthRecord {
            type_index: fam as usize,
            start,
            end: start + line.len(),
            line_start: i,
            line_end: i + 1,
            fields: Vec::new(),
        });
        start += line.len();
    }
    let view = view_of(&text, served);
    let types = (0..FAMILIES).map(family).collect();
    let truth = GeneratedDataset {
        name: "serve_drift".into(),
        spec: DatasetSpec::new("serve_drift", types, records.len(), 0),
        text,
        records,
        noise_lines: Vec::new(),
    };
    Ok(evalkit::corpus::template_accuracy(&truth, &view))
}
