//! Property-based tests over the core invariants, spanning the workspace crates.

use datamaran::core::{
    collect_array_paths, compile, delta_parse, diff_compiled, extract_records, parse_dataset,
    reduce, shift_variants, unfold_at, CharSet, Datamaran, DatamaranConfig, Dataset, MdlScorer,
    ParseResult, RecordTemplate, RegularityScorer, SpanLineMatcher, SpanParse, StructureTemplate,
};
use logsynth::spec::seg::{field, lit};
use logsynth::{DatasetSpec, FieldKind, RecordTypeSpec};
use proptest::prelude::*;

mod common;

/// Strategy producing field values that contain no formatting characters.
fn field_value() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9]{1,12}"
}

/// Strategy producing a simple separator character.
fn separator() -> impl Strategy<Value = char> {
    prop_oneof![Just(','), Just(';'), Just('|'), Just(':'), Just(' ')]
}

/// The accounting invariant of an extraction: records' line spans and noise lines cover
/// every line of `dataset` exactly once, in order, and their bytes add up to the text.
fn assert_accounts_for_every_line(
    parse: &ParseResult,
    dataset: &Dataset,
    label: &str,
) -> Result<(), TestCaseError> {
    let mut records = parse.records.iter().peekable();
    let mut noise = parse.noise_lines.iter().peekable();
    let mut line = 0usize;
    while line < dataset.line_count() {
        if let Some(rec) = records.next_if(|r| r.line_span.0 == line) {
            prop_assert!(
                rec.line_span.1 > line,
                "{}: empty record at line {}",
                label,
                line
            );
            line = rec.line_span.1;
        } else {
            prop_assert!(
                noise.next_if(|&&n| n == line).is_some(),
                "{}: line {} is neither a record start nor noise",
                label,
                line
            );
            line += 1;
        }
    }
    prop_assert_eq!(
        line,
        dataset.line_count(),
        "{}: records overrun the text",
        label
    );
    prop_assert!(
        records.next().is_none(),
        "{}: records past the last line",
        label
    );
    prop_assert!(
        noise.next().is_none(),
        "{}: noise past the last line",
        label
    );
    prop_assert_eq!(
        parse.record_bytes + parse.noise_bytes,
        dataset.len(),
        "{}",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Extracting the record template of an instantiated record and re-checking generation is
    /// a closed loop (Definition 2.1/2.2).
    #[test]
    fn record_template_roundtrip(values in prop::collection::vec(field_value(), 1..8), sep in separator()) {
        let line = format!("{}\n", values.join(&sep.to_string()));
        let charset = CharSet::from_chars([sep, '\n']);
        let template = RecordTemplate::from_instantiated(&line, &charset);
        prop_assert!(template.generates(&line, &charset));
        prop_assert_eq!(template.field_count(), values.len());
    }

    /// Reduction never loses the template's character set and its minimal expansion is never
    /// longer than the original record template.
    #[test]
    fn reduction_preserves_charset_and_shrinks(values in prop::collection::vec(field_value(), 2..12), sep in separator()) {
        let line = format!("{}\n", values.join(&sep.to_string()));
        let charset = CharSet::from_chars([sep, '\n']);
        let rt = RecordTemplate::from_instantiated(&line, &charset);
        let st = reduce(&rt);
        prop_assert!(st.char_set().is_subset(&charset));
        prop_assert!(st.min_expansion().len() <= rt.len());
    }

    /// A reduced template always matches the record it was reduced from.
    #[test]
    fn reduced_template_matches_its_source(values in prop::collection::vec(field_value(), 1..10), sep in separator()) {
        let line = format!("{}\n", values.join(&sep.to_string()));
        let charset = CharSet::from_chars([sep, '\n']);
        let st = reduce(&RecordTemplate::from_instantiated(&line, &charset));
        let dataset = Dataset::new(line.clone());
        let parse = parse_dataset(&dataset, std::slice::from_ref(&st), 10);
        prop_assert_eq!(parse.records.len(), 1, "template {} vs line {:?}", st, line);
        prop_assert!(parse.noise_lines.is_empty());
    }

    /// Extraction never loses or double-counts input: records plus noise cover every line
    /// exactly once, in order, and tile the bytes — for the tree reference and for the
    /// production pass at one and three extraction threads, with two templates live and
    /// garbage lines mixed in.  Every production record also renders back to its exact
    /// source bytes.
    #[test]
    fn parse_partitions_the_dataset(
        lines in prop::collection::vec(prop::collection::vec(field_value(), 1..6), 1..20),
        sep in separator(),
        extras in prop::collection::vec(0u8..3, 1..8),
    ) {
        // Rows of the first template, each followed by nothing, a `key=value` row of the
        // second template, or a garbage line neither template matches.
        let sep_s = sep.to_string();
        let mut block = String::new();
        for (i, fields) in lines.iter().enumerate() {
            block.push_str(&fields.join(&sep_s));
            block.push('\n');
            match extras[i % extras.len()] {
                1 => block.push_str(&format!("k{i}=v{}\n", fields.len())),
                2 => block.push_str(&format!("{sep}{sep} garbage {i}\n")),
                _ => {}
            }
        }
        // Tile the block past three 512-line chunks so three threads really shard.
        let text = block.repeat(1536usize.div_ceil(block.lines().count()));
        let first_line = format!("{}\n", lines[0].join(&sep_s));
        let templates = [
            StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(
                &first_line,
                &CharSet::from_chars([sep, '\n']),
            )),
            StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(
                "k1=v2\n",
                &CharSet::from_chars(['=', '\n']),
            )),
        ];
        let dataset = Dataset::new(text.as_str());
        let reference = parse_dataset(&dataset, &templates, 10);
        assert_accounts_for_every_line(&reference, &dataset, "parse_dataset")?;
        for threads in [1, 3] {
            let config = DatamaranConfig::default().with_extraction_threads(threads);
            let parse = extract_records(&dataset, &templates, &config);
            assert_accounts_for_every_line(&parse, &dataset, &format!("{threads} threads"))?;
            let mismatch = common::round_trip_mismatch(&parse, &templates, &text);
            prop_assert!(mismatch.is_none(), "{} threads: {:?}", threads, mismatch);
        }
    }

    /// The sampling used by the search steps is always line-aligned and within budget.
    #[test]
    fn sampling_is_line_aligned(n_lines in 50usize..400, budget in 256usize..2048, seed in any::<u64>()) {
        let mut text = String::new();
        for i in 0..n_lines {
            text.push_str(&format!("entry,{i},{}\n", i * 3));
        }
        let dataset = Dataset::new(text.clone());
        let sample = dataset.sample(budget, 4, seed);
        prop_assert!(sample.len() <= budget + 64);
        for i in 0..sample.line_count() {
            prop_assert!(text.contains(sample.line(i)));
        }
    }

    /// Ground-truth spans emitted by the generator always match the generated text, for
    /// arbitrary record shapes.
    #[test]
    fn generator_ground_truth_is_consistent(
        n_records in 5usize..40,
        seed in any::<u64>(),
        sep in separator(),
        noise in 0.0f64..0.3,
    ) {
        let record_type = RecordTypeSpec::new(
            "t",
            vec![
                field(FieldKind::Integer { min: 0, max: 9999 }),
                lit(&sep.to_string()),
                field(FieldKind::Word),
                lit(&sep.to_string()),
                field(FieldKind::IpV4),
                lit("\n"),
            ],
        );
        let data = DatasetSpec::new("prop", vec![record_type], n_records, seed)
            .with_noise(noise)
            .generate();
        prop_assert_eq!(data.records.len(), n_records);
        for rec in &data.records {
            for f in &rec.fields {
                prop_assert_eq!(&data.text[f.start..f.end], f.value.as_str());
            }
        }
    }
}

/// The round-trip and accounting invariants on every dataset of the LogHub-clone catalog
/// at full scale, matched against its ground-truth templates at the paper's L = 10, in one
/// and three chunks: every record renders back to its exact source bytes, and records plus
/// noise cover every line exactly once.
#[test]
fn every_catalog_record_rebuilds_its_bytes() {
    for entry in logsynth::loghub::catalog() {
        let generated = entry.spec(1).generate();
        let templates = datamaran_bench::loghub_template_set(&generated);
        let dataset = Dataset::new(generated.text.as_str());
        let matcher = SpanLineMatcher::new(&templates, 10);
        for chunks in [1, 3] {
            let label = format!("{} in {chunks} chunks", entry.name);
            let parse = matcher.parse(&dataset, chunks).to_parse_result();
            assert!(!parse.records.is_empty(), "{label}: no records");
            let mismatch = common::round_trip_mismatch(&parse, &templates, &generated.text);
            assert!(mismatch.is_none(), "{label}: {mismatch:?}");
            assert_accounts_for_every_line(&parse, &dataset, &label).unwrap();
        }
    }
}

/// Strategy producing CSV cell content that stresses the quoting rules: embedded quotes,
/// commas, carriage returns, bare newlines, and plain text — tabs, control characters and
/// multi-byte characters included, which need no quotes — in any mix.
fn csv_cell() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just('0'),
            Just(' '),
            Just('"'),
            Just(','),
            Just('\r'),
            Just('\n'),
            Just('\t'),
            Just('\u{1}'),
            Just('é'),
            Just('日'),
        ],
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Parses one RFC-4180 row (which may contain newlines inside quoted cells) back into its
/// cells — the inverse of quoting each cell with `csv_quote` and joining with commas.
fn parse_csv_row(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        let mut cell = String::new();
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next() {
                    Some('"') => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            cell.push('"');
                        } else {
                            break;
                        }
                    }
                    Some(c) => cell.push(c),
                    None => break,
                }
            }
        } else {
            while let Some(&c) = chars.peek() {
                if c == ',' {
                    break;
                }
                cell.push(c);
                chars.next();
            }
        }
        cells.push(cell);
        match chars.next() {
            Some(',') => continue,
            _ => break,
        }
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CSV quoting round-trips arbitrary cell content — embedded quotes, commas, `\r`, and
    /// `\n` included — quotes a cell exactly when it holds one of those four characters,
    /// and span-backed cells serialize byte-identically to owned cells holding the same
    /// text (the export boundary must not care which variant it gets).
    #[test]
    fn csv_quoting_round_trips_and_cell_variants_agree(cells in prop::collection::vec(csv_cell(), 1..6)) {
        use datamaran::core::{csv_quote, table_to_csv, Cell, Table};
        use std::sync::Arc;

        // Quotes only where RFC 4180 needs them.
        for c in &cells {
            let plain = !c.contains([',', '"', '\n', '\r']);
            prop_assert_eq!(csv_quote(c) == *c, plain, "{:?}", c);
        }

        // Round trip through the quoted representation.
        let line: String = cells
            .iter()
            .map(|c| csv_quote(c))
            .collect::<Vec<_>>()
            .join(",");
        prop_assert_eq!(parse_csv_row(&line), cells.clone());

        // Span cells over a shared buffer vs owned cells with the same text.
        let source: Arc<str> = Arc::from(cells.concat().as_str());
        let columns: Vec<String> = (0..cells.len()).map(|i| format!("c{i}")).collect();
        let mut spans = Table::new("t", columns.clone(), Arc::clone(&source));
        let mut offset = 0usize;
        spans.push_row(
            cells
                .iter()
                .map(|c| {
                    let start = offset;
                    offset += c.len();
                    Cell::Span { start, end: offset }
                })
                .collect(),
        );
        let owned = Table::from_strings("t", columns, vec![cells.clone()]);
        prop_assert_eq!(table_to_csv(&spans), table_to_csv(&owned));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A dataset spec with a fixed seed is a pure function: generating it twice in this
    /// thread and once more in a spawned thread yields byte-identical text and identical
    /// ground-truth spans.  Zipf-style weights exercise the weighted type pick, whose
    /// float-residue fallback used to make the draw rounding-sensitive.
    #[test]
    fn generation_is_byte_identical_across_runs_and_threads(
        n_records in 1usize..150,
        n_types in 1usize..8,
        seed in any::<u64>(),
        zipf in 0.5f64..2.0,
        noise in 0.0f64..0.4,
    ) {
        let types: Vec<RecordTypeSpec> = (0..n_types)
            .map(|i| {
                RecordTypeSpec::new(
                    format!("t{i}"),
                    vec![
                        lit("id="),
                        field(FieldKind::Integer { min: 0, max: 99_999 }),
                        lit(" src="),
                        field(FieldKind::IpV4),
                        lit(" msg="),
                        field(FieldKind::Word),
                        lit("\n"),
                    ],
                )
                .with_weight(1.0 / ((i + 1) as f64).powf(zipf))
            })
            .collect();
        let spec = DatasetSpec::new("det", types, n_records, seed).with_noise(noise);
        let first = spec.clone().generate();
        let second = spec.clone().generate();
        prop_assert_eq!(&first.text, &second.text);
        prop_assert_eq!(first.records.len(), second.records.len());

        let threaded_spec = spec.clone();
        let threaded = std::thread::spawn(move || threaded_spec.generate())
            .join()
            .expect("generator thread panicked");
        prop_assert_eq!(&first.text, &threaded.text);
        for (a, b) in first.records.iter().zip(threaded.records.iter()) {
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.end, b.end);
            prop_assert_eq!(a.fields.len(), b.fields.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: for a simple generated dataset of any size, Datamaran extracts at least as
    /// many records as the ground truth contains and never reports more bytes than exist.
    #[test]
    fn extraction_is_sane_on_random_simple_datasets(n_records in 40usize..120, seed in any::<u64>()) {
        let record_type = RecordTypeSpec::new(
            "kv",
            vec![
                lit("ts="),
                field(FieldKind::Epoch),
                lit(" level="),
                field(FieldKind::Level),
                lit(" msg="),
                field(FieldKind::Word),
                lit("\n"),
            ],
        );
        let data = DatasetSpec::new("prop_e2e", vec![record_type], n_records, seed).generate();
        let result = Datamaran::with_defaults().extract(&data.text).unwrap();
        let extracted: usize = result.structures.iter().map(|s| s.records.len()).sum();
        prop_assert!(extracted >= n_records, "extracted {} of {}", extracted, n_records);
        prop_assert!(result.noise_fraction <= 1.0);
    }
}

// -----------------------------------------------------------------------------------------
// Delta evaluation: delta parse + delta score must be indistinguishable from full re-parse
// -----------------------------------------------------------------------------------------

fn folded(example: &str, charset: &str) -> StructureTemplate {
    let cs = CharSet::from_chars(charset.chars());
    reduce(&RecordTemplate::from_instantiated(example, &cs))
}

fn flat_template(example: &str, charset: &str) -> StructureTemplate {
    let cs = CharSet::from_chars(charset.chars());
    StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
}

/// The production matcher's sequential parse.
fn span_parse(data: &Dataset, templates: &[StructureTemplate]) -> SpanParse {
    SpanLineMatcher::new(templates, 10).parse(data, 1)
}

fn assert_parses_identical(full: &SpanParse, delta: &SpanParse, label: &str) {
    assert_eq!(full.records, delta.records, "{label}: records");
    assert_eq!(full.cells, delta.cells, "{label}: cells");
    assert_eq!(full.reps, delta.reps, "{label}: reps");
    assert_eq!(full.noise_lines, delta.noise_lines, "{label}: noise lines");
    assert_eq!(
        full.record_bytes, delta.record_bytes,
        "{label}: record bytes"
    );
    assert_eq!(full.noise_bytes, delta.noise_bytes, "{label}: noise bytes");
}

/// Delta-parses `variant` against `parent`'s parse, asserts the parse is identical to the
/// from-scratch parse, asserts the incremental MDL score is bit-identical to the full
/// score whenever the delta stats license column reuse, and returns the variant's parse
/// (the next link of a refinement chain).
fn check_delta_step(
    data: &Dataset,
    parent: &StructureTemplate,
    parent_parse: &SpanParse,
    variant: &StructureTemplate,
    label: &str,
) -> SpanParse {
    let full = span_parse(data, std::slice::from_ref(variant));
    let pc = compile(parent);
    let vc = compile(variant);
    let Some(diff) = diff_compiled(&pc, &vc) else {
        // No usable diff (e.g. the edit changed the charset): the engine falls back to a
        // full parse, which is what `full` already is.
        return full;
    };
    let mut delta = SpanParse::default();
    let stats = delta_parse(data, &pc, parent_parse, &vc, &diff, 10, &mut delta);
    assert_parses_identical(&full, &delta, label);

    // Incremental scoring: reuse the parent's per-column aggregates exactly as the
    // refinement engine does (prefix columns when prefix-aligned, suffix columns only
    // when suffix-aligned) and require the bit-identical total.
    let scorer = MdlScorer;
    if stats.prefix_aligned() {
        let (_, parent_parts) = scorer
            .score_parts(data, parent, parent_parse, None)
            .expect("mdl keeps parts");
        let mut reuse = diff.column_reuse(parent.field_count(), variant.field_count());
        if !stats.suffix_aligned() && diff.suffix_columns > 0 {
            let from = variant.field_count() - diff.suffix_columns;
            for slot in reuse[from..].iter_mut() {
                *slot = None;
            }
        }
        let (incremental, _) = scorer
            .score_parts(data, variant, &delta, Some((&parent_parts, &reuse)))
            .expect("mdl scores incrementally");
        let fresh = scorer.score(data, variant, &full);
        assert_eq!(
            incremental.to_bits(),
            fresh.to_bits(),
            "{label}: incremental {incremental} vs fresh {fresh}"
        );
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random unfold/shift chains: starting from a folded array template over a random
    /// ragged dataset, apply a random sequence of refinement edits and at every link check
    /// that the delta parse equals the full re-parse and the incremental score is
    /// bit-identical to the full score.  Covers nested arrays via multi-line windows.
    #[test]
    fn delta_parse_and_score_equal_full_across_edit_chains(
        rows in prop::collection::vec(prop::collection::vec("[a-z0-9]{1,5}", 1..7), 6..30),
        sep in prop_oneof![Just(','), Just(';'), Just('|')],
        nested in any::<bool>(),
        edits in prop::collection::vec(any::<u16>(), 1..6),
    ) {
        let sep_s = sep.to_string();
        let mut text = String::new();
        for fields in &rows {
            text.push_str(&fields.join(&sep_s));
            text.push('\n');
        }
        if nested {
            // Append a block whose reduction nests an array inside an array body.
            for i in 0..6 {
                text.push_str(&format!("a{sep}{i}\na{sep}{}\n", i * 2));
            }
        }
        let data = Dataset::new(text.as_str());
        let mut current = if nested {
            folded(&format!("a{sep}1\na{sep}2\n"), &format!("{sep}\n"))
        } else {
            folded(&format!("1{sep}2{sep}3\n"), &format!("{sep}\n"))
        };
        let mut current_parse = span_parse(&data, std::slice::from_ref(&current));
        for (step, pick) in edits.iter().enumerate() {
            // Enumerate this template's possible edits the way the refiner would.
            let mut variants: Vec<StructureTemplate> = Vec::new();
            for path in collect_array_paths(current.nodes()) {
                for reps in 1..=4usize {
                    for partial in [false, true] {
                        if let Some(v) = unfold_at(&current, &path, reps, partial) {
                            variants.push(v);
                        }
                    }
                }
            }
            variants.extend(shift_variants(&current));
            if variants.is_empty() {
                break;
            }
            let variant = variants[*pick as usize % variants.len()].clone();
            let label = format!("step {step}: {current} -> {variant}");
            let variant_parse = check_delta_step(&data, &current, &current_parse, &variant, &label);
            current = variant;
            current_parse = variant_parse;
        }
    }
}

/// Regression: a shift variant whose records straddle the parent's record boundaries.  The
/// rotated two-line template matches from the *second* line of each parent record through
/// the first line of the next one, so every variant record crosses a parent boundary and
/// none of the parent's records carry forward — the delta parser must fall back to full
/// per-line matching for the straddling region and still reproduce the exact parse.
#[test]
fn shift_variant_straddling_record_boundaries_delta_parses_exactly() {
    let mut text = String::new();
    for i in 0..30 {
        text.push_str(&format!("HDR {i}\nval={i};st=ok\n"));
    }
    let data = Dataset::new(text.as_str());
    let parent = flat_template("HDR 1\nval=2;st=ok\n", " =;\n");
    let parent_parse = span_parse(&data, std::slice::from_ref(&parent));
    assert_eq!(parent_parse.records.len(), 30);

    let variants = shift_variants(&parent);
    assert_eq!(variants.len(), 1);
    let variant = &variants[0];
    let pc = compile(&parent);
    let vc = compile(variant);
    let diff = diff_compiled(&pc, &vc).expect("rotation shares boundary ops");
    let mut delta = SpanParse::default();
    let stats = delta_parse(&data, &pc, &parent_parse, &vc, &diff, 10, &mut delta);
    let full = span_parse(&data, std::slice::from_ref(variant));
    assert_parses_identical(&full, &delta, "straddling shift");

    // Every variant record starts mid-parent-record (odd line) and crosses the boundary
    // into the following parent record.
    assert!(!delta.records.is_empty());
    for rec in &delta.records {
        assert_eq!(rec.line_span.0 % 2, 1, "record starts on a value line");
        assert_eq!(
            rec.line_span.1 - rec.line_span.0,
            2,
            "record spans the boundary"
        );
    }
    // The dirty region genuinely straddled: nothing could be copied forward, every parent
    // record start was consulted and rejected, and the real records surfaced as extras.
    assert_eq!(stats.reused_records, 0, "{stats:?}");
    assert!(stats.dropped_records > 0, "{stats:?}");
    assert!(stats.extra_records > 0, "{stats:?}");
    assert!(!stats.prefix_aligned(), "{stats:?}");
}
