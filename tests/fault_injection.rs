//! Fault-injection suite for the hardened streaming pipeline: hostile input must never
//! panic, quarantined bytes must round-trip exactly, transient write failures must be
//! retried byte for byte by the retrying writer on a deterministic backoff schedule, and a
//! writer that dies mid-stream must leave a prefix of the clean output, no byte twice.
//!
//! The corrupted-input corpus is generated with the (offline) `proptest` shim: invalid
//! UTF-8 runs, NUL bytes, truncated final records, and interleaved binary garbage are
//! mixed into an otherwise regular log, and the guarded pipeline is driven under every
//! error policy.

use datamaran::core::{
    CountingSink, CsvSink, Datamaran, Error, ErrorPolicy, FailingReader, FailingWriter,
    FaultSchedule, JsonLinesSink, QuarantineSink, RecordSink, RecordingSleeper, RetryingWriter,
    StreamBudgets, StreamOptions, StreamSession, StreamSummary, Tee, VecQuarantineSink,
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

/// The 400-line log of the byte-exactness tests.
fn host_log() -> String {
    (0..400)
        .map(|i| format!("host=h{};cpu={};mem={}\n", i % 12, i % 100, (i * 7) % 512))
        .collect()
}

/// Every fault-stack writer: a [`FailingWriter`] over an in-memory buffer, under a
/// [`RetryingWriter`] with three retries and a recording sleeper.
type Output = RetryingWriter<FailingWriter<Vec<u8>>, RecordingSleeper>;

fn output(failing: FailingWriter<Vec<u8>>) -> Output {
    RetryingWriter::with_sleeper(failing, 3, RecordingSleeper::default())
}

/// Which sinks a fault-stack run drives, in `Tee` order.
#[derive(Clone, Copy, Debug)]
enum Stack {
    Csv,
    JsonLines,
    CsvThenJsonLines,
    JsonLinesThenCsv,
}

/// One fault-stack run: its outcome, every output's bytes (the CSV tables by name, then
/// `jsonl`), and the backoff sleeps of all writers, one per retry.
struct Run {
    result: Result<StreamSummary, Error>,
    outputs: Vec<(String, Vec<u8>)>,
    slept: Vec<Duration>,
}

/// Streams `text` into `stack`.  `faulty(i)` makes the failing writer under writer `i`:
/// 0 is the JSON Lines writer, 1, 2, … the CSV tables in creation order.
fn run_stack(text: &str, stack: Stack, faulty: &dyn Fn(usize) -> FailingWriter<Vec<u8>>) -> Run {
    let engine = Datamaran::with_defaults();
    let mut created = 0;
    let mut csv = CsvSink::new(|_name: &str| {
        created += 1;
        Ok(output(faulty(created)))
    });
    let mut jsonl = JsonLinesSink::new(output(faulty(0)));
    let run = |sink: &mut dyn RecordSink| {
        run_plain(
            &engine,
            Cursor::new(text.to_string()),
            small_windows(),
            sink,
        )
    };
    let result = match stack {
        Stack::Csv => run(&mut csv),
        Stack::JsonLines => run(&mut jsonl),
        Stack::CsvThenJsonLines => run(&mut Tee(&mut csv, &mut jsonl)),
        Stack::JsonLinesThenCsv => run(&mut Tee(&mut jsonl, &mut csv)),
    };
    let mut writers = csv.into_writers();
    writers.push(("jsonl".into(), jsonl.into_writer()));
    let slept = writers
        .iter()
        .flat_map(|(_, w)| w.sleeper().slept.iter().copied())
        .collect();
    let outputs = writers
        .into_iter()
        .map(|(name, w)| (name, w.into_inner().into_inner()))
        .collect();
    Run {
        result,
        outputs,
        slept,
    }
}

fn clean_run(text: &str, stack: Stack) -> Run {
    let run = run_stack(text, stack, &|_| FailingWriter::passthrough(Vec::new()));
    assert!(run.result.is_ok(), "{stack:?}: clean streaming succeeds");
    run
}

fn ms(delays: &[u64]) -> Vec<Duration> {
    delays.iter().copied().map(Duration::from_millis).collect()
}

#[test]
fn retrying_writer_absorbs_transient_faults_with_deterministic_backoff() {
    let text = web_log(300);
    // The 6th write fails transiently, and so does its first retry; the second retry
    // goes through.
    let burst = FaultSchedule::Transient { at: 5, failures: 2 };
    let run = run_stack(&text, Stack::JsonLines, &|_| {
        FailingWriter::new(Vec::new(), burst)
    });
    let summary = run.result.expect("transient faults are retried away");
    assert_eq!(summary.records, 300);
    // Deterministic exponential backoff: 10ms, then 20ms — nothing else.
    assert_eq!(run.slept, ms(&[10, 20]));
    assert!(
        run.outputs == clean_run(&text, Stack::JsonLines).outputs,
        "every record written exactly once"
    );
}

#[test]
fn retry_backoff_schedule_is_exact() {
    // Three consecutive failures of one write: the retries wait 10, 20 and 40 ms, a pure
    // function of the fault layout.
    let burst = FaultSchedule::Transient { at: 2, failures: 3 };
    let run = run_stack(&web_log(200), Stack::JsonLines, &|_| {
        FailingWriter::new(Vec::new(), burst)
    });
    run.result
        .expect("three consecutive transient faults fit inside three retries");
    assert_eq!(run.slept, ms(&[10, 20, 40]));
}

#[test]
fn permanent_sink_failure_exhausts_retries_and_reports_durable_count() {
    let text = web_log(300);
    let run = run_stack(&text, Stack::JsonLines, &|_| {
        FailingWriter::new(Vec::new(), FaultSchedule::FailNth(7))
    });
    let err = run.result.unwrap_err();
    assert!(matches!(err, Error::Sink { .. }), "{err:?}");
    // Permanent faults are not retried at all, and the output holds exactly the 7 rows
    // written before the fault.
    assert!(run.slept.is_empty());
    let clean = clean_run(&text, Stack::JsonLines);
    let clean_rows = String::from_utf8(clean.outputs[0].1.clone()).unwrap();
    let first_7: String = clean_rows.split_inclusive('\n').take(7).collect();
    assert_eq!(run.outputs[0].1, first_7.as_bytes());
}

#[test]
fn transient_finish_failure_is_retried_and_reports_durable() {
    let text = web_log(150);
    let run = run_stack(&text, Stack::JsonLines, &|_| {
        FailingWriter::passthrough(Vec::new()).with_flush_failures(2)
    });
    let summary = run.result.expect("transient flush faults are retried away");
    assert_eq!(summary.records, 150);
    assert_eq!(run.slept, ms(&[10, 20]));
    assert!(run.outputs == clean_run(&text, Stack::JsonLines).outputs);
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

/// Clean input through the full fault-tolerance stack (retrying writers + attached
/// quarantine) must be byte-identical to the plain streaming path: the hardening layers
/// are observable only when faults actually occur.
#[test]
fn clean_input_is_byte_identical_through_the_fault_stack() {
    let text = host_log();
    let engine = Datamaran::with_defaults();
    let options = small_windows();

    let mut plain = Tee(
        CsvSink::new(|_name: &str| Ok(Vec::<u8>::new())),
        JsonLinesSink::new(Vec::<u8>::new()),
    );
    run_plain(&engine, Cursor::new(text.clone()), options, &mut plain)
        .expect("plain streaming succeeds");
    let Tee(plain_csv, plain_jsonl) = plain;

    let retrying = || RetryingWriter::with_sleeper(Vec::new(), 3, RecordingSleeper::default());
    let mut guarded = Tee(
        CsvSink::new(|_name: &str| Ok(retrying())),
        JsonLinesSink::new(retrying()),
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
    let Tee(guarded_csv, guarded_jsonl) = guarded;
    let guarded_jsonl = guarded_jsonl.into_writer();
    assert!(
        guarded_jsonl.sleeper().slept.is_empty(),
        "no backoff sleeps"
    );
    let guarded_tables: Vec<(String, Vec<u8>)> = guarded_csv
        .into_writers()
        .into_iter()
        .map(|(name, w)| {
            assert!(w.sleeper().slept.is_empty(), "no backoff sleeps");
            (name, w.into_inner())
        })
        .collect();
    assert_eq!(
        plain_csv.into_writers(),
        guarded_tables,
        "CSV bytes identical"
    );
    assert_eq!(
        plain_jsonl.into_writer(),
        guarded_jsonl.into_inner(),
        "JSON Lines bytes identical"
    );
}

/// Runs `stack` with one transient fault at write call 1, 2, 40, 41 and 399 of the
/// writers `failing` picks, whether the writers take whole writes or 3 bytes per call:
/// every run must retry once and leave every output byte-identical to the clean run.
fn assert_one_transient_fault_is_invisible(stack: Stack, failing: fn(usize) -> bool) {
    let text = host_log();
    let clean = clean_run(&text, stack);
    for chunk in [usize::MAX, 3] {
        for fail_at in [1, 2, 40, 41, 399] {
            let case = format!("{stack:?}, {chunk} bytes per call, call {fail_at} fails");
            let fault = FaultSchedule::Transient {
                at: fail_at - 1,
                failures: 1,
            };
            let run = run_stack(&text, stack, &|i| {
                let writer = if failing(i) {
                    FailingWriter::new(Vec::new(), fault)
                } else {
                    FailingWriter::passthrough(Vec::new())
                };
                writer.with_max_write(chunk)
            });
            run.result.unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(run.slept.len(), 1, "{case}: the fault fired once");
            assert!(run.outputs == clean.outputs, "{case}: outputs differ");
        }
    }
}

/// A transient write error must not corrupt a CSV table: the writer takes none of the
/// failed call's bytes, and its retry hands over exactly those bytes.
#[test]
fn a_transient_write_error_leaves_csv_tables_byte_identical() {
    assert_one_transient_fault_is_invisible(Stack::Csv, |i| i > 0);
}

/// The same for the JSON Lines stream, and for a `Tee` whose second sink (the JSON Lines
/// writer) fails after the first took the record: neither sink sees a record twice.
#[test]
fn a_transient_write_error_leaves_json_lines_and_tee_output_byte_identical() {
    assert_one_transient_fault_is_invisible(Stack::JsonLines, |i| i == 0);
    assert_one_transient_fault_is_invisible(Stack::CsvThenJsonLines, |i| i == 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sink stack on writers of any bytes-per-call cap, each writer with one burst of
    /// transient write faults at a random call and 0–3 transient flush faults: a burst the
    /// three retries cover leaves every output byte-identical to the clean run; a longer
    /// one fails the run with a transient sink error and leaves every output a prefix of
    /// the clean run's, so no byte is ever written twice.
    #[test]
    fn fault_layouts_retry_byte_exactly_or_leave_prefixes(
        stack in prop_oneof![
            Just(Stack::Csv),
            Just(Stack::JsonLines),
            Just(Stack::CsvThenJsonLines),
            Just(Stack::JsonLinesThenCsv),
        ],
        chunk in prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(8), Just(usize::MAX)],
        at in prop::collection::vec(0usize..400, 2..3),
        failures in prop::collection::vec(1usize..7, 2..3),
        flush_failures in prop::collection::vec(0usize..4, 2..3),
    ) {
        // Writer 0 is the JSON Lines stream, writer 1 the log's one CSV table; each of the
        // 400 records writes to both, so a burst at any call below 400 fires.
        let text = host_log();
        let clean = clean_run(&text, stack);
        let run = run_stack(&text, stack, &|i| {
            let burst = FaultSchedule::Transient { at: at[i], failures: failures[i] };
            FailingWriter::new(Vec::new(), burst)
                .with_flush_failures(flush_failures[i])
                .with_max_write(chunk)
        });
        let writers: &[usize] = match stack {
            Stack::Csv => &[1],
            Stack::JsonLines => &[0],
            _ => &[0, 1],
        };
        if writers.iter().all(|&i| failures[i] <= 3) {
            prop_assert!(run.result.is_ok(), "{:?}", run.result.err());
            prop_assert!(run.outputs == clean.outputs, "outputs differ");
        } else {
            let err = run.result.unwrap_err();
            prop_assert!(matches!(err, Error::Sink { .. }) && err.is_transient(), "{err:?}");
            for ((name, bytes), (_, clean)) in run.outputs.iter().zip(&clean.outputs) {
                prop_assert!(clean.starts_with(bytes), "{name} is not a prefix");
            }
        }
    }
}
