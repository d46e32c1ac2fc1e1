//! Differential suite for the fused multi-template matcher: on every fixture the
//! production [`SpanLineMatcher`] (one merged prefix-trie/DFA pass per record start) must
//! produce **byte-identical** output to its trial reference (every template trialed in
//! index order) — the flat [`SpanParse`] arenas at every chunk count, the
//! owned [`ParseResult`], the end-to-end relational tables, and the
//! streaming CSV/JSONL sink bytes against the materialized serializers run on the
//! reference's parse — on interleaved, multi-line, and array fixtures, plus randomized
//! template subsets and the guarded fault-injection path over corrupted input.

use datamaran::core::{
    all_records_jsonl, extract_records, reduce, table_to_csv, to_denormalized, to_relational,
    CharSet, CsvSink, Datamaran, DatamaranConfig, Dataset, ErrorPolicy, ExtractedStructure,
    ExtractionResult, JsonLinesSink, ParseResult, PipelineStats, RecordMatch, RecordTemplate,
    SpanLineMatcher, SpanParse, StreamOptions, StreamSession, StructureTemplate, Tee,
    VecQuarantineSink,
};
use proptest::prelude::*;
use std::io::Cursor;

mod common;

/// Flat structure template reduced from one instantiated example record.
fn template(example: &str, charset: &str) -> StructureTemplate {
    let cs = CharSet::from_chars(charset.chars());
    reduce(&RecordTemplate::from_instantiated(example, &cs))
}

fn assert_span_parse_eq(a: &SpanParse, b: &SpanParse, label: &str) {
    assert_eq!(a.records, b.records, "{label}: records");
    assert_eq!(a.cells, b.cells, "{label}: cells");
    assert_eq!(a.reps, b.reps, "{label}: reps");
    assert_eq!(a.noise_lines, b.noise_lines, "{label}: noise lines");
    assert_eq!(a.record_bytes, b.record_bytes, "{label}: record bytes");
    assert_eq!(a.noise_bytes, b.noise_bytes, "{label}: noise bytes");
}

/// The trial reference's sequential parse of `dataset`, materialized.
fn reference_parse(dataset: &Dataset, templates: &[StructureTemplate]) -> ParseResult {
    SpanLineMatcher::trial_reference(templates, 10)
        .parse(dataset, 1)
        .to_parse_result()
}

/// What the pipeline materializes from a final parse: one structure per template with its
/// records and relational tables (scores, types and coverage are not compared).
fn materialize(
    dataset: &Dataset,
    templates: &[StructureTemplate],
    parse: &ParseResult,
) -> ExtractionResult {
    let source = dataset.shared_text();
    let structures = templates
        .iter()
        .enumerate()
        .map(|(idx, template)| {
            let records: Vec<RecordMatch> = parse
                .records
                .iter()
                .filter(|r| r.template_index == idx)
                .cloned()
                .collect();
            let refs: Vec<&RecordMatch> = records.iter().collect();
            let name = format!("type{idx}");
            ExtractedStructure {
                template: template.clone(),
                score: 0.0,
                relational: to_relational(template, &source, &refs, &name),
                denormalized: to_denormalized(template, &source, &refs, &name),
                records,
                column_types: Vec::new(),
                coverage: 0.0,
            }
        })
        .collect();
    ExtractionResult {
        structures,
        noise_lines: parse.noise_lines.clone(),
        noise_fraction: 0.0,
        stats: PipelineStats::default(),
    }
}

/// The CSV bytes of every normalized table of a materialized result, in sink order.
fn materialized_csv(result: &ExtractionResult) -> Vec<(String, Vec<u8>)> {
    result
        .structures
        .iter()
        .flat_map(|s| s.relational.tables.iter())
        .map(|t| (t.name.clone(), table_to_csv(t).into_bytes()))
        .collect()
}

/// Asserts the production matcher agrees with the trial reference on the span arenas (at
/// one, two and five chunks) and that the pipeline's extraction pass materializes the
/// reference's [`ParseResult`] for one template set.
fn assert_matching_equivalence(name: &str, text: &str, templates: &[StructureTemplate]) {
    let dataset = Dataset::new(text);
    let production = SpanLineMatcher::new(templates, 10);
    let reference = SpanLineMatcher::trial_reference(templates, 10);
    for chunks in [1, 2, 5] {
        assert_span_parse_eq(
            &reference.parse(&dataset, chunks),
            &production.parse(&dataset, chunks),
            &format!("{name} ({chunks} chunks)"),
        );
    }
    let parse = extract_records(&dataset, templates, &DatamaranConfig::default());
    assert_eq!(
        parse,
        reference_parse(&dataset, templates),
        "{name}: ParseResult against the reference"
    );
}

/// Interleaved fixture: bracketed syslog-style lines, csv rows, semicolon arrays, noise.
fn interleaved_text(n: usize) -> String {
    let mut text = String::new();
    for i in 0..n {
        match i % 5 {
            0 | 3 => {
                text.push_str(&format!("[{:02}:{:02}] host{} ok\n", i % 24, i % 60, i % 7));
            }
            1 => text.push_str(&format!("{i},{},{}\n", i * 7 % 40, i % 9)),
            2 => {
                let reps = i % 4 + 1;
                let body: Vec<String> = (0..reps).map(|k| format!("{}", i + k)).collect();
                text.push_str(&format!("{};\n", body.join(";")));
            }
            _ => text.push_str("!!! unparsed diagnostic !!!\n"),
        }
    }
    text
}

fn interleaved_templates() -> Vec<StructureTemplate> {
    vec![
        template("[00:01] host1 ok\n", "[:] \n"),
        template("1,2,3\n", ",\n"),
        template("1;2;3;\n", ";\n"),
    ]
}

#[test]
fn interleaved_fixture_is_backend_identical() {
    let text = interleaved_text(400);
    assert_matching_equivalence("interleaved", &text, &interleaved_templates());
}

#[test]
fn multiline_fixture_is_backend_identical() {
    let mut text = String::new();
    for i in 0..120 {
        match i % 3 {
            0 => text.push_str(&format!("req {i} start\n  status s{i}\n  took t{i}\n")),
            1 => text.push_str(&format!("{i},{}\n", i * 3)),
            _ => text.push_str("-- trace --\n"),
        }
    }
    let templates = vec![
        template("req 1 start\n  status s1\n  took t1\n", " \n"),
        template("1,2\n", ",\n"),
    ];
    assert_matching_equivalence("multiline", &text, &templates);
}

#[test]
fn array_fixture_is_backend_identical() {
    let mut text = String::new();
    for i in 0..150 {
        match i % 3 {
            0 => {
                let reps = i % 5 + 1;
                let body: Vec<String> = (0..reps).map(|k| format!("v{}", i + k)).collect();
                text.push_str(&format!("set {}: {};\n", i, body.join(", ")));
            }
            1 => text.push_str(&format!("{i}|{}|{}\n", i % 8, i * 2 % 13)),
            _ => text.push_str(&format!("[{:02}] t{} done\n", i % 30, i)),
        }
    }
    let templates = vec![
        template("set 1: v1, v2, v3;\n", ":,; \n"),
        template("1|2|3\n", "|\n"),
        template("[01] t1 done\n", "[] \n"),
    ];
    assert_matching_equivalence("arrays", &text, &templates);
}

/// A template whose first op is a field (no literal anchor) must survive fused pruning —
/// the regression shape that originally diverged discovery.
#[test]
fn leading_field_templates_are_backend_identical() {
    let mut text = String::new();
    for i in 0..100 {
        if i % 2 == 0 {
            text.push_str(&format!("[{:02}:{:02}] host{} ok\n", i % 24, i % 60, i % 4));
        } else {
            text.push_str(&format!("{i},{},{}\n", i * 7 % 40, i % 9));
        }
    }
    let templates = vec![
        template("[00:01] host1 ok\n", "[:] \n"),
        template("1,2,3\n", ",\n"),
    ];
    assert_matching_equivalence("leading-field", &text, &templates);
    let reversed: Vec<_> = templates.into_iter().rev().collect();
    assert_matching_equivalence("leading-field reversed", &text, &reversed);
}

/// End-to-end discovery + extraction + relational output must match the trial reference:
/// every template list the pipeline extracts with (each greedy continuation prefix, then
/// the final set) parses identically, so the whole pipeline (residual computation, final
/// extraction, relational output) takes the reference's path.
#[test]
fn full_pipeline_is_backend_identical() {
    let text = interleaved_text(300);
    let engine = Datamaran::with_defaults();
    let result = engine.extract(&text).unwrap();
    let templates: Vec<StructureTemplate> = result.templates().into_iter().cloned().collect();
    let dataset = Dataset::new(text.as_str());
    for n in 1..=templates.len() {
        assert_eq!(
            extract_records(&dataset, &templates[..n], engine.config()),
            reference_parse(&dataset, &templates[..n]),
            "{n} templates"
        );
    }
    let reference = materialize(&dataset, &templates, &reference_parse(&dataset, &templates));
    assert_eq!(result.noise_lines, reference.noise_lines);
    assert_eq!(result.structures.len(), reference.structures.len());
    for (a, b) in result.structures.iter().zip(&reference.structures) {
        assert_eq!(a.records, b.records, "template {}", a.template);
        assert_eq!(a.relational, b.relational, "template {}", a.template);
        assert_eq!(a.denormalized, b.denormalized, "template {}", a.template);
    }
}

/// Streaming with a fixed multi-template set: CSV and JSONL sink bytes, windows and all,
/// must equal the materialized serializers run on the trial reference's parse, and the
/// run must actually go through the fused path.
#[test]
fn streaming_sink_bytes_are_backend_identical() {
    let text = interleaved_text(500);
    let templates = interleaved_templates();
    let options = StreamOptions {
        head_bytes: 512,
        window_bytes: 2048,
        ..StreamOptions::default()
    };
    let engine = Datamaran::with_defaults();
    let mut sink = Tee(
        CsvSink::new(|_name: &str| Ok(Vec::<u8>::new())),
        JsonLinesSink::new(Vec::<u8>::new()),
    );
    let summary = StreamSession::new(&engine)
        .options(options)
        .templates(templates.clone())
        .run(Cursor::new(text.clone()), &mut sink)
        .expect("streaming succeeds");
    let Tee(csv, jsonl) = sink;

    let dataset = Dataset::new(text.as_str());
    let reference = reference_parse(&dataset, &templates);
    let materialized = materialize(&dataset, &templates, &reference);
    assert_eq!(summary.records, reference.records.len());
    assert_eq!(summary.noise_lines, reference.noise_lines.len());
    assert_eq!(
        csv.into_writers(),
        materialized_csv(&materialized),
        "CSV bytes against the reference"
    );
    assert_eq!(
        String::from_utf8(jsonl.into_writer()).unwrap(),
        all_records_jsonl(&text, &materialized),
        "JSONL bytes against the reference"
    );

    let stats = summary.match_stats();
    assert!(stats.fused_dispatches > 0, "the run used the fused path");
    assert!(stats.templates_pruned > 0, "the run pruned trials");
    assert_eq!(summary.window_match_stats.len(), summary.windows);
}

/// Guarded fault-injection fixtures (invalid UTF-8, NUL bytes) through the fused path:
/// summaries, sink bytes, and quarantine contents match the trial reference's parse of the
/// lossily decoded text.
#[test]
fn guarded_fault_fixtures_are_backend_identical() {
    let mut bytes = Vec::new();
    for i in 0..160u32 {
        match i % 6 {
            0 | 1 => bytes.extend_from_slice(
                format!("[{:02}:{:02}] host{} ok\n", i % 24, i % 60, i % 5).as_bytes(),
            ),
            2 | 3 => bytes.extend_from_slice(format!("{i},{},{}\n", i % 40, i % 9).as_bytes()),
            4 => {
                bytes.extend_from_slice(b"corrupt \xFF\xFE line \x00 here\n");
            }
            _ => bytes.extend_from_slice(b"### noise ###\n"),
        }
    }
    let options = StreamOptions {
        head_bytes: 1024,
        window_bytes: 1024,
        ..StreamOptions::default()
    }
    .with_on_error(ErrorPolicy::Quarantine);
    let templates = vec![
        template("[00:01] host1 ok\n", "[:] \n"),
        template("1,2,3\n", ",\n"),
    ];
    let engine = Datamaran::with_defaults();
    let mut sink = JsonLinesSink::new(Vec::<u8>::new());
    let mut quarantine = VecQuarantineSink::default();
    let summary = StreamSession::new(&engine)
        .options(options)
        .templates(templates.clone())
        .quarantine(&mut quarantine)
        .run(Cursor::new(bytes.clone()), &mut sink)
        .expect("guarded streaming succeeds");

    let text = String::from_utf8_lossy(&bytes).into_owned();
    let dataset = Dataset::new(text.as_str());
    let reference = reference_parse(&dataset, &templates);
    assert_eq!(summary.records, reference.records.len());
    assert_eq!(summary.noise_lines, reference.noise_lines.len());
    assert_eq!(
        String::from_utf8(sink.into_writer()).unwrap(),
        all_records_jsonl(&text, &materialize(&dataset, &templates, &reference)),
        "guarded JSONL bytes"
    );
    // Every reference noise line, and every undecodable line, is quarantined byte-exact.
    let raw_lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    let expected: Vec<(usize, &[u8])> = raw_lines
        .iter()
        .enumerate()
        .filter(|(i, raw)| {
            reference.noise_lines.binary_search(i).is_ok() || std::str::from_utf8(raw).is_err()
        })
        .map(|(i, raw)| (i, *raw))
        .collect();
    let mut quarantined: Vec<(usize, &[u8])> = quarantine
        .entries
        .iter()
        .map(|e| (e.line, e.bytes.as_slice()))
        .collect();
    quarantined.sort_unstable();
    assert_eq!(quarantined, expected, "quarantine contents");
    assert_eq!(summary.quarantined_lines, expected.len());
    assert!(summary.match_stats().fused_dispatches > 0);
}

/// Example record shapes the randomized subsets draw from: distinct charsets, shared
/// prefixes, leading fields, arrays — the shapes that stress prefix-trie pruning.
fn shape_pool() -> Vec<StructureTemplate> {
    vec![
        template("[00:01] host1 ok\n", "[:] \n"),
        template("[00:01] peer9 up\n", "[:] \n"),
        template("1,2,3\n", ",\n"),
        template("1,2\n", ",\n"),
        template("1;2;3;\n", ";\n"),
        template("a=1 b=2\n", "= \n"),
        template("req 1 start\n  took t1\n", " \n"),
        template("1|2|3\n", "|\n"),
    ]
}

fn shape_line(shape: usize, i: usize) -> String {
    match shape {
        0 => format!("[{:02}:{:02}] host{} ok\n", i % 24, i % 60, i % 7),
        1 => format!("[{:02}:{:02}] peer{} up\n", i % 24, (i * 3) % 60, i % 5),
        2 => format!("{i},{},{}\n", i * 7 % 40, i % 9),
        3 => format!("{i},{}\n", i * 5 % 31),
        4 => {
            let reps = i % 4 + 1;
            let body: Vec<String> = (0..reps).map(|k| format!("{}", i + k)).collect();
            format!("{};\n", body.join(";"))
        }
        5 => format!("a={} b={}\n", i % 17, i % 13),
        6 => format!("req {i} start\n  took t{i}\n"),
        _ => format!("{i}|{}|{}\n", i % 8, i * 2 % 13),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random template subsets over random interleavings: the production matcher is
    /// byte-identical to the trial reference, whatever the live set is, and every record
    /// renders back to its exact source bytes.
    #[test]
    fn random_template_subsets_are_backend_identical(
        subset in prop::collection::vec(0usize..8, 2..6),
        lines in prop::collection::vec(0usize..9, 20..120),
    ) {
        let pool = shape_pool();
        // Dedup while preserving order: repeated indices collapse to one template.
        let mut picked: Vec<usize> = Vec::new();
        for &s in &subset {
            if !picked.contains(&s) {
                picked.push(s);
            }
        }
        let templates: Vec<StructureTemplate> =
            picked.iter().map(|&s| pool[s].clone()).collect();
        let mut text = String::new();
        for (i, &l) in lines.iter().enumerate() {
            if l < 8 {
                text.push_str(&shape_line(l, i));
            } else {
                text.push_str("?? noise ??\n");
            }
        }
        let dataset = Dataset::new(text.as_str());
        let trial = SpanLineMatcher::trial_reference(&templates, 10).parse(&dataset, 1);
        let fused = SpanLineMatcher::new(&templates, 10).parse(&dataset, 1);
        prop_assert_eq!(&trial.records, &fused.records, "records for subset {:?}", picked);
        prop_assert_eq!(&trial.cells, &fused.cells);
        prop_assert_eq!(&trial.reps, &fused.reps);
        prop_assert_eq!(&trial.noise_lines, &fused.noise_lines);
        let mismatch =
            common::round_trip_mismatch(&fused.to_parse_result(), &templates, &text);
        prop_assert!(mismatch.is_none(), "subset {:?}: {:?}", picked, mismatch);
    }
}
