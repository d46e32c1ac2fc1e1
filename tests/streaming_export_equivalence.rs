//! Differential suite for the bounded-memory streaming export path: on every fixture the
//! streaming sinks ([`CsvSink`], [`JsonLinesSink`]) must emit **byte-identical** output to
//! the materialized serializers ([`table_to_csv`] over the in-memory relational tables,
//! [`all_records_jsonl`] over the in-memory extraction result) — including multi-line
//! records that straddle chunk windows, array templates whose child-table foreign keys are
//! synthesized across windows, interleaved record types, and cells that need RFC-4180
//! quoting (`\r`, embedded quotes, commas).  The serving path ([`ServeSession`]) is one
//! more surface: pushed line by line through the same templates, it must emit the same
//! JSON Lines bytes at any window size.  Every streamed record must also render back from
//! its template, cells and repetition counts to exactly its source lines.

mod common;

use datamaran::core::{
    all_records_jsonl, table_to_csv, CountingSink, CsvSink, Datamaran, ErrorPolicy, JsonLinesSink,
    RecordSink, RecordingSleeper, Result as CoreResult, RetryingWriter, ServeOptions, ServeSession,
    SnapshotStore, StreamOptions, StreamRecord, StreamSession, StructureTemplate, Tee,
    TemplateSnapshot, VecQuarantineSink,
};
use std::io::Cursor;

/// The round-trip invariant on the streaming path: renders each record from its template,
/// window-relative cells and repetition counts, and asserts the render is the record's
/// source lines concatenated.
struct RoundTripSink<'a> {
    lines: Vec<&'a str>,
    templates: Vec<StructureTemplate>,
    records: usize,
}

impl<'a> RoundTripSink<'a> {
    fn new(text: &'a str) -> Self {
        RoundTripSink {
            lines: text.split_inclusive('\n').collect(),
            templates: Vec::new(),
            records: 0,
        }
    }
}

impl RecordSink for RoundTripSink<'_> {
    fn begin(&mut self, templates: &[StructureTemplate]) -> CoreResult<()> {
        self.templates = templates.to_vec();
        Ok(())
    }

    fn record(&mut self, record: &StreamRecord<'_>) -> CoreResult<()> {
        let rendered = common::render(
            self.templates[record.template_index].nodes(),
            record.cells,
            record.reps,
            record.window,
        );
        let (first, last) = record.line_span;
        assert_eq!(
            rendered,
            self.lines[first..last].concat(),
            "record at lines {:?}",
            record.line_span
        );
        self.records += 1;
        Ok(())
    }

    fn finish(&mut self) -> CoreResult<()> {
        Ok(())
    }
}

/// Runs in-memory extraction and the streaming sinks on the same text and asserts the
/// serialized bytes agree exactly.  `options` should make the window far smaller than the
/// text so real chunking happens; the head must be large enough that head discovery finds
/// the same templates as full-file discovery (asserted).
fn assert_streaming_equivalence(name: &str, text: &str, options: StreamOptions) {
    let engine = Datamaran::with_defaults();
    let result = engine.extract(text).expect("in-memory extraction succeeds");

    let mut sink = Tee(
        CsvSink::new(|_name: &str| Ok(Vec::<u8>::new())),
        Tee(
            JsonLinesSink::new(Vec::<u8>::new()),
            Tee(CountingSink::default(), RoundTripSink::new(text)),
        ),
    );
    let summary = StreamSession::new(&engine)
        .options(options)
        .run(Cursor::new(text.to_string()), &mut sink)
        .expect("streaming extraction succeeds");
    let Tee(csv, Tee(jsonl, Tee(counter, round_trip))) = sink;

    // Head discovery must agree with full-file discovery for the comparison to be
    // meaningful; every fixture is built to satisfy this.
    let in_memory_templates: Vec<String> =
        result.templates().iter().map(|t| t.to_string()).collect();
    let streamed_templates: Vec<String> = summary.templates.iter().map(|t| t.to_string()).collect();
    assert_eq!(streamed_templates, in_memory_templates, "{name}: templates");
    assert_eq!(summary.records, result.record_count(), "{name}: records");
    assert_eq!(counter.records, summary.records, "{name}: counter");
    assert_eq!(
        round_trip.records, summary.records,
        "{name}: round-tripped records"
    );

    // CSV: every normalized table, in order, byte for byte.
    let streamed_tables = csv.into_writers();
    let materialized: Vec<(String, String)> = result
        .structures
        .iter()
        .flat_map(|s| s.relational.tables.iter())
        .map(|t| (t.name.clone(), table_to_csv(t)))
        .collect();
    assert_eq!(
        streamed_tables.len(),
        materialized.len(),
        "{name}: table count"
    );
    for ((sn, sb), (mn, mb)) in streamed_tables.iter().zip(&materialized) {
        assert_eq!(sn, mn, "{name}: table name");
        assert_eq!(
            std::str::from_utf8(sb).unwrap(),
            mb,
            "{name}: CSV bytes of {sn}"
        );
    }

    // JSON Lines: byte for byte.
    let jsonl_bytes = jsonl.into_writer();
    assert_eq!(
        String::from_utf8(jsonl_bytes.clone()).unwrap(),
        all_records_jsonl(text, &result),
        "{name}: JSON Lines bytes"
    );

    // The full fault-tolerance stack — retrying writers under the sinks plus an attached
    // quarantine under the quarantine policy — must be invisible on clean input: same
    // bytes, zero retries, and a quarantine that holds exactly the noise lines.
    let retrying =
        || RetryingWriter::with_sleeper(Vec::<u8>::new(), 3, RecordingSleeper::default());
    let mut guarded = Tee(
        CsvSink::new(|_name: &str| Ok(retrying())),
        JsonLinesSink::new(retrying()),
    );
    let mut quarantine = VecQuarantineSink::default();
    let guarded_summary = StreamSession::new(&engine)
        .options(options.with_on_error(ErrorPolicy::Quarantine))
        .quarantine(&mut quarantine)
        .run(Cursor::new(text.to_string()), &mut guarded)
        .expect("guarded streaming succeeds");
    assert_eq!(
        guarded_summary.records, summary.records,
        "{name}: guarded records"
    );
    assert_eq!(
        quarantine.entries.len(),
        guarded_summary.noise_lines,
        "{name}: quarantine holds exactly the noise lines"
    );
    for entry in &quarantine.entries {
        let bytes = text.as_bytes();
        assert!(
            bytes
                .windows(entry.bytes.len())
                .any(|w| w == entry.bytes.as_slice()),
            "{name}: quarantined line {} is not a byte-identical slice of the input",
            entry.line
        );
    }
    let Tee(guarded_csv, guarded_jsonl) = guarded;
    let guarded_jsonl = guarded_jsonl.into_writer();
    assert!(
        guarded_jsonl.sleeper().slept.is_empty(),
        "{name}: clean input needs no retries"
    );
    let guarded_tables: Vec<(String, Vec<u8>)> = guarded_csv
        .into_writers()
        .into_iter()
        .map(|(table, w)| {
            assert!(
                w.sleeper().slept.is_empty(),
                "{name}: clean input needs no retries"
            );
            (table, w.into_inner())
        })
        .collect();
    let plain_tables: Vec<(String, Vec<u8>)> = materialized
        .iter()
        .map(|(n, c)| (n.clone(), c.clone().into_bytes()))
        .collect();
    assert_eq!(guarded_tables, plain_tables, "{name}: guarded CSV bytes");
    assert_eq!(
        guarded_jsonl.into_inner(),
        jsonl_bytes,
        "{name}: guarded JSON Lines bytes"
    );

    // Serving: the same templates pushed line by line through a monitor-only session must
    // emit the streaming run's JSON Lines bytes, record count, and noise count, whether
    // every line is its own window or windows span many records.
    for window_lines in [1, 64] {
        let store = SnapshotStore::new(
            TemplateSnapshot::compile(1, summary.templates.clone(), &engine)
                .expect("the streamed templates compile"),
        );
        let options = ServeOptions::default()
            .with_window_lines(window_lines)
            .with_rediscover(false);
        let mut session = ServeSession::new(&engine, &store, options).expect("serve session");
        let mut served = JsonLinesSink::new(Vec::<u8>::new());
        for line in text.split_inclusive('\n') {
            session.push_line(line, &mut served).expect("push succeeds");
        }
        let metrics = session.finish(&mut served).expect("serve finish succeeds");
        assert_eq!(
            metrics.summary.records, summary.records,
            "{name}: served records at {window_lines}-line windows"
        );
        assert_eq!(
            metrics.summary.noise_lines, summary.noise_lines,
            "{name}: served noise lines at {window_lines}-line windows"
        );
        assert_eq!(
            served.into_writer(),
            jsonl_bytes,
            "{name}: served JSON Lines bytes at {window_lines}-line windows"
        );
    }
}

#[test]
fn flat_kv_records_with_noise() {
    let mut text = String::new();
    for i in 0..400 {
        text.push_str(&format!(
            "host=h{};cpu={};mem={}\n",
            i % 12,
            i % 100,
            (i * 7) % 512
        ));
        if i % 23 == 5 {
            text.push_str("--- rotating log file ---\n");
        }
    }
    assert_streaming_equivalence(
        "kv",
        &text,
        StreamOptions {
            head_bytes: 4 * 1024,
            window_bytes: 1024,
            ..StreamOptions::default()
        },
    );
}

#[test]
fn multiline_records_straddling_chunk_windows() {
    let mut text = String::new();
    for i in 0..300 {
        text.push_str(&format!("BEGIN {i}\nvalue={};status=ok\n", i * 3));
    }
    // A window far smaller than the head forces many records to straddle window edges.
    assert_streaming_equivalence(
        "multiline",
        &text,
        StreamOptions {
            head_bytes: 2 * 1024,
            window_bytes: 192,
            ..StreamOptions::default()
        },
    );
}

#[test]
fn array_records_synthesize_foreign_keys_across_windows() {
    // Variable-length comma lists: the child table's (id, parent_id, position) keys are
    // synthesized, and most rows are emitted from windows long past the first.
    let mut text = String::new();
    for i in 0..500u64 {
        let len = 2 + (i * 7 % 5) as usize;
        let vals: Vec<String> = (0..len)
            .map(|j| format!("{}", (i + j as u64 * 13) % 97))
            .collect();
        text.push_str(&vals.join(","));
        text.push('\n');
    }
    assert_streaming_equivalence(
        "arrays",
        &text,
        StreamOptions {
            head_bytes: 2 * 1024,
            window_bytes: 512,
            ..StreamOptions::default()
        },
    );
}

#[test]
fn interleaved_record_types_keep_per_type_tables_aligned() {
    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 32)
    }
    let mut text = String::new();
    for i in 0..600u64 {
        if mix(i) % 100 < 40 {
            text.push_str(&format!("EVT|{}|login|user{}\n", 1000 + i, i % 7));
        } else {
            text.push_str(&format!("[{:02}:{:02}] srv{} ok\n", i % 24, i % 60, i % 4));
        }
    }
    assert_streaming_equivalence(
        "interleaved",
        &text,
        StreamOptions {
            head_bytes: 8 * 1024,
            window_bytes: 1024,
            ..StreamOptions::default()
        },
    );
}

#[test]
fn crlf_values_need_identical_rfc4180_quoting() {
    // `\r` is not a candidate formatting character, so on a CRLF stream every final field
    // value ends in a raw `\r` — both serializers must quote it (CSV) / escape it (JSON)
    // identically.
    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 32)
    }
    let mut text = String::new();
    for i in 0..300u64 {
        text.push_str(&format!("id={i};msg=w{}\r\n", mix(i) % 9973));
    }
    let engine = Datamaran::with_defaults();
    let result = engine.extract(&text).unwrap();
    let csv: String = result
        .structures
        .iter()
        .flat_map(|s| s.relational.tables.iter())
        .map(table_to_csv)
        .collect();
    assert!(csv.contains("\r\""), "quoting path is exercised");
    assert_streaming_equivalence(
        "crlf",
        &text,
        StreamOptions {
            head_bytes: 2 * 1024,
            window_bytes: 512,
            ..StreamOptions::default()
        },
    );
}

#[test]
fn record_ending_exactly_at_window_edge_exports_once() {
    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 32)
    }
    // Fixed-width, aperiodic records: every line is exactly 18 bytes, so a window target
    // that is a multiple of 18 makes every window end exactly at a record's final newline.
    let mut text = String::new();
    for i in 0..512u64 {
        text.push_str(&format!(
            "key={:04};val={:04}\n",
            mix(i) % 10_000,
            mix(i ^ 77) % 10_000
        ));
    }
    let line_len = 18;
    assert_eq!(text.len(), 512 * line_len);
    assert_streaming_equivalence(
        "window-edge",
        &text,
        StreamOptions {
            head_bytes: line_len * 64,
            window_bytes: line_len * 16,
            ..StreamOptions::default()
        },
    );
}

/// Parallel per-window extraction: with `extraction_threads > 1` the span matcher computes
/// each window's per-line match table on scoped workers and the sequential decision loop
/// replays it — the sink must receive byte-identical CSV and JSON Lines output, in the
/// same record order, for any thread count.  Windows are sized to clear the
/// minimum-chunk-lines threshold so the parallel path genuinely engages, and the fixture
/// mixes two-line records with noise so records straddle both chunk and window boundaries.
#[test]
fn parallel_window_extraction_is_byte_identical() {
    use datamaran::core::DatamaranConfig;

    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 32)
    }
    let mut text = String::new();
    for i in 0..6000u64 {
        text.push_str(&format!(
            "REQ {}\nuser=u{};ms={}\n",
            i,
            mix(i) % 50,
            mix(i * 3) % 900
        ));
        if mix(i * 7).is_multiple_of(17) {
            text.push_str(&format!("## banner {} ##\n", mix(i) % 4096));
        }
    }
    let options = StreamOptions {
        head_bytes: 16 * 1024,
        // ~64 KiB windows hold thousands of lines — far past the 512-line minimum chunk,
        // so 2+ worker chunks per window.
        window_bytes: 64 * 1024,
        ..StreamOptions::default()
    };

    type RunOutput = (Vec<(String, Vec<u8>)>, Vec<u8>, usize, usize);
    let run = |threads: usize| -> RunOutput {
        let engine =
            Datamaran::new(DatamaranConfig::default().with_extraction_threads(threads)).unwrap();
        let mut sink = Tee(
            CsvSink::new(|_name: &str| Ok(Vec::<u8>::new())),
            JsonLinesSink::new(Vec::<u8>::new()),
        );
        let summary = StreamSession::new(&engine)
            .options(options)
            .run(Cursor::new(text.to_string()), &mut sink)
            .expect("streaming succeeds");
        let Tee(csv, jsonl) = sink;
        (
            csv.into_writers(),
            jsonl.into_writer(),
            summary.records,
            summary.noise_lines,
        )
    };

    let (base_csv, base_jsonl, base_records, base_noise) = run(1);
    assert!(base_records >= 6000, "records {base_records}");
    for threads in [2, 3, 7] {
        let (csv, jsonl, records, noise) = run(threads);
        assert_eq!(records, base_records, "{threads} threads: record count");
        assert_eq!(noise, base_noise, "{threads} threads: noise lines");
        assert_eq!(csv.len(), base_csv.len(), "{threads} threads: table count");
        for ((an, ab), (bn, bb)) in csv.iter().zip(&base_csv) {
            assert_eq!(an, bn, "{threads} threads: table name");
            assert_eq!(ab, bb, "{threads} threads: CSV bytes of {an}");
        }
        assert_eq!(jsonl, base_jsonl, "{threads} threads: JSON Lines bytes");
    }
}
