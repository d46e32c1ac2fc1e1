//! Fault-injection suite for the hardened streaming pipeline: hostile input must never
//! panic, quarantined bytes must round-trip exactly, transient sink failures must be
//! absorbed by the retry decorator with a deterministic backoff schedule, and durable
//! write counts must stay truthful when a sink dies mid-stream.
//!
//! The corrupted-input corpus is generated with the (offline) `proptest` shim: invalid
//! UTF-8 runs, NUL bytes, truncated final records, and interleaved binary garbage are
//! mixed into an otherwise regular log, and the guarded pipeline is driven under every
//! error policy.

use datamaran::core::{
    CountingSink, CsvSink, Datamaran, Error, ErrorPolicy, FailingReader, FailingSink,
    FaultSchedule, JsonLinesSink, QuarantineSink, RecordSink, RecordingSleeper, RetryPolicy,
    RetryingSink, StreamBudgets, StreamOptions, StreamSession, StreamSummary, Tee,
    VecQuarantineSink,
};
use proptest::prelude::*;
use std::io::{BufRead, Cursor};
use std::time::Duration;

/// Runs a [`StreamSession`] with an optional quarantine attached.
fn run_guarded<R: BufRead, S: RecordSink + ?Sized>(
    engine: &Datamaran,
    reader: R,
    options: StreamOptions,
    sink: &mut S,
    quarantine: Option<&mut dyn QuarantineSink>,
) -> Result<StreamSummary, Error> {
    let mut session = StreamSession::new(engine).options(options);
    if let Some(q) = quarantine {
        session = session.quarantine(q);
    }
    session.run(reader, sink)
}

/// Runs a plain [`StreamSession`].
fn run_plain<R: BufRead, S: RecordSink + ?Sized>(
    engine: &Datamaran,
    reader: R,
    options: StreamOptions,
    sink: &mut S,
) -> Result<StreamSummary, Error> {
    StreamSession::new(engine)
        .options(options)
        .run(reader, sink)
}

/// A regular single-line log every fixture starts from.
fn web_log(n: usize) -> String {
    (0..n)
        .map(|i| {
            format!(
                "[{:02}:{:02}] 10.0.{}.{} GET /p{}\n",
                i % 24,
                i % 60,
                i % 8,
                i % 250,
                i % 7
            )
        })
        .collect()
}

fn small_windows() -> StreamOptions {
    StreamOptions {
        head_bytes: 4 * 1024,
        window_bytes: 1024,
        ..StreamOptions::default()
    }
}

/// Checks that every quarantined entry is byte-identical to a slice of the input.
fn assert_quarantine_round_trips(input: &[u8], quarantine: &VecQuarantineSink) {
    for entry in &quarantine.entries {
        assert!(
            input
                .windows(entry.bytes.len())
                .any(|w| w == entry.bytes.as_slice()),
            "quarantined line {} ({:?}) is not a byte-identical slice of the input: {:?}",
            entry.line,
            entry.reason,
            entry.bytes
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hostile input — binary garbage lines, NUL bytes, invalid UTF-8, and a truncated
    /// final record — must stream to a clean summary (Skip) and to a byte-exact
    /// quarantine (Quarantine); never a panic.
    #[test]
    fn corrupted_corpus_never_panics(
        n in 80usize..160,
        garbage in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..24), 1..8),
        inject_nul in any::<bool>(),
        truncate_tail in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        let clean = web_log(n);
        let lines: Vec<&str> = clean.lines().collect();
        let stride = lines.len() / (garbage.len() + 1) + 1;
        let mut garbage_iter = garbage.iter();
        for (i, line) in lines.iter().enumerate() {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            if i % stride == stride - 1 {
                if let Some(blob) = garbage_iter.next() {
                    // Strip newlines so each blob stays one (possibly empty) line.
                    bytes.extend(blob.iter().filter(|&&b| b != b'\n'));
                    bytes.push(b'\n');
                }
            }
        }
        if inject_nul {
            bytes.extend_from_slice(b"nul\0\0bytes\n");
        }
        if truncate_tail {
            bytes.extend_from_slice(b"[23:59] 10.0.7.24"); // record cut mid-line, no newline
        }

        let engine = Datamaran::with_defaults();

        // Skip: the default policy digests anything without erroring.
        let mut sink = CountingSink::default();
        let summary = run_guarded(
            &engine,
            Cursor::new(bytes.clone()),
            small_windows(),
            &mut sink,
            None,
        );
        let summary = match summary {
            Ok(s) => s,
            // Structured failure is acceptable on pathological corpora; panics are not.
            Err(e) => { let _ = e.to_string(); return Ok(()); }
        };
        prop_assert!(summary.records >= n, "records {} < {}", summary.records, n);
        prop_assert_eq!(summary.records, sink.records);

        // Quarantine: same input, every rejected line round-trips byte-identically, and
        // records, noise and dropped oversized lines account for every input line.
        let mut quarantine = VecQuarantineSink::default();
        let mut record_lines = 0usize;
        let result = StreamSession::new(&engine)
            .options(small_windows().with_on_error(ErrorPolicy::Quarantine))
            .quarantine(&mut quarantine)
            .run_with(Cursor::new(bytes.clone()), |r| {
                record_lines += r.line_span.1 - r.line_span.0;
            });
        let summary = match result {
            Ok(s) => s,
            Err(e) => { let _ = e.to_string(); return Ok(()); }
        };
        prop_assert_eq!(summary.quarantined_lines, quarantine.entries.len());
        assert_quarantine_round_trips(&bytes, &quarantine);
        let input_lines =
            bytes.split(|&b| b == b'\n').count() - usize::from(bytes.ends_with(b"\n"));
        prop_assert_eq!(record_lines + summary.noise_lines, summary.lines_processed);
        prop_assert_eq!(summary.lines_processed + summary.oversized_lines, input_lines);
    }
}

#[test]
fn nul_bytes_and_invalid_utf8_stream_without_panic() {
    let mut bytes = web_log(120).into_bytes();
    bytes.extend_from_slice(b"\x00\x00\x00\n");
    bytes.extend_from_slice(b"\xFF\xFE broken \xF0\x28\x8C\x28\n");
    bytes.extend_from_slice(web_log(40).as_bytes());

    let engine = Datamaran::with_defaults();
    let mut sink = CountingSink::default();
    let summary = run_guarded(
        &engine,
        Cursor::new(bytes),
        small_windows(),
        &mut sink,
        None,
    )
    .expect("skip policy digests NUL and invalid UTF-8");
    assert_eq!(summary.records, 160);
    assert_eq!(
        summary.invalid_utf8_lines, 1,
        "only the non-UTF-8 line is lossy"
    );
}

#[test]
fn abort_policy_reports_decode_error_for_invalid_utf8() {
    let mut bytes = web_log(120).into_bytes();
    bytes.extend_from_slice(b"\xFF\xFE broken\n");
    bytes.extend_from_slice(web_log(20).as_bytes());

    let engine = Datamaran::with_defaults();
    let mut sink = CountingSink::default();
    let err = run_guarded(
        &engine,
        Cursor::new(bytes),
        small_windows().with_on_error(ErrorPolicy::Abort),
        &mut sink,
        None,
    )
    .unwrap_err();
    assert!(matches!(err, Error::Decode { .. }), "{err:?}");
}

#[test]
fn truncated_final_record_is_extracted_or_quarantined_never_lost() {
    let mut text = web_log(150);
    text.push_str("[23:59] 10.0.7.24"); // final record cut mid-line, no trailing newline
    let input = text.clone().into_bytes();

    let engine = Datamaran::with_defaults();
    let mut sink = CountingSink::default();
    let mut quarantine = VecQuarantineSink::default();
    let summary = run_guarded(
        &engine,
        Cursor::new(input.clone()),
        small_windows().with_on_error(ErrorPolicy::Quarantine),
        &mut sink,
        Some(&mut quarantine),
    )
    .expect("truncated tail streams cleanly");
    // Every input line is either a record or preserved in the quarantine.
    let total_lines = text.lines().count();
    assert_eq!(summary.records + quarantine.entries.len(), total_lines);
    assert_quarantine_round_trips(&input, &quarantine);
}

#[test]
fn oversized_line_is_skipped_with_bounded_memory() {
    // A 10 MB single line must not take the pipeline down (or force it to buffer the
    // whole line) when a line budget is set.
    let mut bytes = web_log(200).into_bytes();
    bytes.resize(bytes.len() + 10 * 1024 * 1024, b'x');
    bytes.push(b'\n');
    bytes.extend_from_slice(web_log(50).as_bytes());

    let engine = Datamaran::with_defaults();
    let mut sink = CountingSink::default();
    let options = small_windows().with_budgets(StreamBudgets {
        max_line_bytes: Some(64 * 1024),
        ..StreamBudgets::default()
    });
    let summary = run_guarded(&engine, Cursor::new(bytes), options, &mut sink, None)
        .expect("oversized line is skipped, not fatal");
    assert_eq!(summary.oversized_lines, 1);
    assert_eq!(
        summary.records, 250,
        "records on both sides of the monster line"
    );
    assert!(
        summary.peak_window_bytes < 10 * 1024 * 1024,
        "peak window {} did not stay bounded",
        summary.peak_window_bytes
    );
}

#[test]
fn reader_failure_mid_stream_is_a_structured_io_error() {
    let text = web_log(400);
    let engine = Datamaran::with_defaults();

    for schedule in [
        FaultSchedule::FailNth(3),
        FaultSchedule::FailAfterBytes(6 * 1024),
    ] {
        let reader = FailingReader::new(Cursor::new(text.clone().into_bytes()), schedule);
        let mut sink = CountingSink::default();
        let err = run_guarded(
            &engine,
            reader,
            StreamOptions {
                head_bytes: 2 * 1024,
                window_bytes: 512,
                ..StreamOptions::default()
            },
            &mut sink,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{schedule:?}: {err:?}");
        assert!(
            !err.is_transient(),
            "{schedule:?}: injected fault is permanent"
        );
    }
}

#[test]
fn retrying_sink_absorbs_transient_faults_with_deterministic_backoff() {
    let text = web_log(300);
    let engine = Datamaran::with_defaults();

    // The 5th record call fails transiently twice, then recovers.
    let failing = FailingSink::new(
        CountingSink::default(),
        FaultSchedule::Transient { at: 5, failures: 2 },
    );
    let mut sink =
        RetryingSink::with_sleeper(failing, RetryPolicy::default(), RecordingSleeper::default());
    let summary = run_guarded(
        &engine,
        Cursor::new(text.into_bytes()),
        small_windows(),
        &mut sink,
        None,
    )
    .expect("transient faults are retried away");
    assert_eq!(summary.records, 300);
    assert_eq!(sink.accepted_records(), 300);
    assert_eq!(sink.retries(), 2);
    assert!(sink.finished(), "finish ran and flushed");
    assert_eq!(
        sink.inner().delivered,
        300,
        "inner sink saw every record exactly once"
    );
    // Deterministic exponential backoff: 10ms, then 20ms — nothing else.
    assert_eq!(
        sink.sleeper().slept,
        vec![Duration::from_millis(10), Duration::from_millis(20)]
    );
}

#[test]
fn retry_backoff_schedule_is_exact() {
    // Transient window wider than one retry round: each failing *call* restarts the
    // schedule, so the recorded delays are a pure function of the fault layout.
    let text = web_log(200);
    let engine = Datamaran::with_defaults();
    let failing = FailingSink::new(
        CountingSink::default(),
        FaultSchedule::Transient { at: 2, failures: 3 },
    );
    let mut sink =
        RetryingSink::with_sleeper(failing, RetryPolicy::default(), RecordingSleeper::default());
    run_guarded(
        &engine,
        Cursor::new(text.into_bytes()),
        small_windows(),
        &mut sink,
        None,
    )
    .expect("three consecutive transient faults fit inside max_retries = 3");
    assert_eq!(sink.retries(), 3);
    // One call failed three times before succeeding: 10ms, 20ms, 40ms.
    assert_eq!(
        sink.sleeper().slept,
        vec![
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(40),
        ]
    );
}

#[test]
fn permanent_sink_failure_exhausts_retries_and_reports_durable_count() {
    let text = web_log(300);
    let engine = Datamaran::with_defaults();
    let failing = FailingSink::new(CountingSink::default(), FaultSchedule::FailNth(7));
    let mut sink =
        RetryingSink::with_sleeper(failing, RetryPolicy::default(), RecordingSleeper::default());
    let err = run_guarded(
        &engine,
        Cursor::new(text.into_bytes()),
        small_windows(),
        &mut sink,
        None,
    )
    .unwrap_err();
    assert!(matches!(err, Error::Sink { .. }), "{err:?}");
    // Permanent faults are not retried at all, and the durable count is truthful: the
    // inner sink accepted exactly the 7 records before the fault.
    assert_eq!(sink.retries(), 0);
    assert_eq!(sink.accepted_records(), 7);
    assert!(!sink.finished(), "finish never succeeded");
    assert_eq!(sink.inner().delivered, 7);
    assert_eq!(sink.inner().inner().records, 7);
}

#[test]
fn transient_finish_failure_is_retried_and_reports_durable() {
    let text = web_log(150);
    let engine = Datamaran::with_defaults();
    let failing = FailingSink::passthrough(CountingSink::default()).with_finish_failures(2);
    let mut sink =
        RetryingSink::with_sleeper(failing, RetryPolicy::default(), RecordingSleeper::default());
    run_guarded(
        &engine,
        Cursor::new(text.into_bytes()),
        small_windows(),
        &mut sink,
        None,
    )
    .expect("transient finish faults are retried away");
    assert!(sink.finished());
    assert_eq!(sink.retries(), 2);
    assert_eq!(sink.accepted_records(), 150);
    assert_eq!(
        sink.sleeper().slept,
        vec![Duration::from_millis(10), Duration::from_millis(20)]
    );
}

#[test]
fn quarantine_fraction_budget_stops_gracefully_on_garbage_flood() {
    // After a clean head, the stream degenerates into garbage; the quarantine-fraction
    // budget must stop the run gracefully (summary delivered, sink finished) instead of
    // quarantining gigabytes.
    let mut text = web_log(200);
    for i in 0..600 {
        text.push_str(&format!("<<corrupt blob {i} \u{fffd}>>\n"));
    }
    let engine = Datamaran::with_defaults();
    let mut sink = CountingSink::default();
    let mut quarantine = VecQuarantineSink::default();
    let options = small_windows()
        .with_on_error(ErrorPolicy::Quarantine)
        .with_budgets(StreamBudgets {
            max_quarantine_fraction: Some(0.3),
            ..StreamBudgets::default()
        });
    let summary = run_guarded(
        &engine,
        Cursor::new(text.into_bytes()),
        options,
        &mut sink,
        Some(&mut quarantine),
    )
    .expect("budget stop is graceful, not an error");
    assert!(summary.stopped_reason.is_some(), "stopped early");
    assert!(
        quarantine.entries.len() < 600,
        "stopped before quarantining the whole flood ({} entries)",
        quarantine.entries.len()
    );
    assert_eq!(summary.records, sink.records, "sink still finished cleanly");
}

/// Clean input through the full fault-tolerance stack (retry decorator + attached
/// quarantine) must be byte-identical to the plain streaming path: the hardening layers
/// are observable only when faults actually occur.
#[test]
fn clean_input_is_byte_identical_through_the_fault_stack() {
    let mut text = String::new();
    for i in 0..400 {
        text.push_str(&format!(
            "host=h{};cpu={};mem={}\n",
            i % 12,
            i % 100,
            (i * 7) % 512
        ));
    }
    let engine = Datamaran::with_defaults();
    let options = small_windows();

    let mut plain = Tee(
        CsvSink::new(|_name: &str| Ok(Vec::<u8>::new())),
        JsonLinesSink::new(Vec::<u8>::new()),
    );
    run_plain(&engine, Cursor::new(text.clone()), options, &mut plain)
        .expect("plain streaming succeeds");
    let Tee(plain_csv, plain_jsonl) = plain;

    let guarded_inner = Tee(
        CsvSink::new(|_name: &str| Ok(Vec::<u8>::new())),
        JsonLinesSink::new(Vec::<u8>::new()),
    );
    let mut guarded = RetryingSink::with_sleeper(
        guarded_inner,
        RetryPolicy::default(),
        RecordingSleeper::default(),
    );
    let mut quarantine = VecQuarantineSink::default();
    run_guarded(
        &engine,
        Cursor::new(text),
        options.with_on_error(ErrorPolicy::Quarantine),
        &mut guarded,
        Some(&mut quarantine),
    )
    .expect("guarded streaming succeeds");
    assert_eq!(guarded.retries(), 0, "no faults, no retries");
    assert!(guarded.sleeper().slept.is_empty(), "no backoff sleeps");
    let Tee(guarded_csv, guarded_jsonl) = guarded.into_inner();

    let plain_tables = plain_csv.into_writers();
    let guarded_tables = guarded_csv.into_writers();
    assert_eq!(plain_tables, guarded_tables, "CSV bytes identical");
    assert_eq!(
        plain_jsonl.into_writer(),
        guarded_jsonl.into_writer(),
        "JSON Lines bytes identical"
    );
}

/// An output that takes at most `chunk` bytes per call and fails its `fail_at`-th call
/// (1-based) once with a transient error, taking none of that call's bytes.
struct FlakyOutput {
    bytes: Vec<u8>,
    calls: usize,
    chunk: usize,
    fail_at: usize,
}

impl std::io::Write for FlakyOutput {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls == self.fail_at {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        let n = buf.len().min(self.chunk);
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A transient write error under the retry decorator must not corrupt a CSV table: the
/// failed record keeps its unwritten bytes and its row ids, and its replay writes only
/// the rest — whether the writer takes whole writes or 3 bytes per call.
#[test]
fn a_transient_write_error_leaves_csv_tables_byte_identical() {
    let text: String = (0..400)
        .map(|i| format!("host=h{};cpu={};mem={}\n", i % 12, i % 100, (i * 7) % 512))
        .collect();
    let engine = Datamaran::with_defaults();
    let options = small_windows();
    let mut clean = CsvSink::new(|_name: &str| Ok(Vec::<u8>::new()));
    let summary = run_plain(&engine, Cursor::new(text.clone()), options, &mut clean)
        .expect("clean streaming succeeds");
    assert_eq!(summary.records, 400);
    let as_text = |(name, bytes): (String, Vec<u8>)| (name, String::from_utf8(bytes).unwrap());
    let clean: Vec<(String, String)> = clean.into_writers().into_iter().map(as_text).collect();

    for chunk in [usize::MAX, 3] {
        for fail_at in [1, 2, 40, 41, 399] {
            let case = format!("{chunk} bytes per call, call {fail_at} fails");
            let flaky = CsvSink::new(|_name: &str| {
                Ok(FlakyOutput {
                    bytes: Vec::new(),
                    calls: 0,
                    chunk,
                    fail_at,
                })
            });
            let mut retrying = RetryingSink::with_sleeper(
                flaky,
                RetryPolicy::default(),
                RecordingSleeper::default(),
            );
            run_plain(&engine, Cursor::new(text.clone()), options, &mut retrying)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(retrying.retries(), 1, "{case}: the fault fired once");
            let tables: Vec<(String, String)> = retrying
                .into_inner()
                .into_writers()
                .into_iter()
                .map(|(name, out)| as_text((name, out.bytes)))
                .collect();
            assert_eq!(tables, clean, "{case}");
        }
    }
}
