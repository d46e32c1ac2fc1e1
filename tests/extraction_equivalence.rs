//! Differential properties for the extraction engine: the compiled instruction-table span
//! backend must be observationally identical to the legacy tree-walking parser — same
//! segmentation, same field cells, same repetition counts, byte-identical relational
//! tables — on arbitrary input and for any worker-thread count; and the compiled
//! instruction table must round-trip (compile → decompile → same template) for every
//! template the generator emits.

use datamaran::core::{
    compile, decompile, generate, parse_dataset, reduce, to_denormalized, to_relational, CharSet,
    DatamaranConfig, Dataset, ParseResult, RecordMatch, RecordTemplate, SpanLineMatcher,
    StructureTemplate,
};
use datamaran::logsynth::{corpus, DatasetSpec};
use proptest::prelude::*;

fn flat(example: &str, charset: &str) -> StructureTemplate {
    let cs = CharSet::from_chars(charset.chars());
    StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
}

fn array(example: &str, charset: &str) -> StructureTemplate {
    let cs = CharSet::from_chars(charset.chars());
    reduce(&RecordTemplate::from_instantiated(example, &cs))
}

fn assert_same(a: &ParseResult, b: &ParseResult, label: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{label}: record count");
    assert_eq!(a.noise_lines, b.noise_lines, "{label}: noise lines");
    assert_eq!(a.record_bytes, b.record_bytes, "{label}: record bytes");
    assert_eq!(a.noise_bytes, b.noise_bytes, "{label}: noise bytes");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.template_index, y.template_index, "{label}");
        assert_eq!(x.byte_span, y.byte_span, "{label}");
        assert_eq!(x.line_span, y.line_span, "{label}");
        assert_eq!(x.fields, y.fields, "{label}");
        assert_eq!(x.reps, y.reps, "{label}");
    }
    // Field-drift backstop: whatever fields ParseResult grows, full equality holds.
    assert_eq!(a, b, "{label}: full ParseResult equality");
}

/// Runs the tree walker and the span engine (sequential and sharded) over `text` with the
/// same templates and asserts byte-identical parses and relational tables.
fn check_extraction(text: &str, templates: &[StructureTemplate], label: &str) {
    let data = Dataset::new(text);
    let legacy = parse_dataset(&data, templates, 10);
    let matcher = SpanLineMatcher::new(templates, 10);
    let span = matcher.parse(&data, 1).to_parse_result();
    assert_same(&legacy, &span, label);
    for chunks in [2, 5] {
        let par = matcher.parse(&data, chunks).to_parse_result();
        assert_same(&legacy, &par, &format!("{label} ({chunks} chunks)"));
    }
    // The relational conversions of the two parses must also be byte-identical — this is
    // the `RelationalTable` acceptance criterion.
    for (idx, template) in templates.iter().enumerate() {
        let pick = |parse: &ParseResult| -> Vec<RecordMatch> {
            parse
                .records
                .iter()
                .filter(|r| r.template_index == idx)
                .cloned()
                .collect()
        };
        let (a, b) = (pick(&legacy), pick(&span));
        let a_refs: Vec<&RecordMatch> = a.iter().collect();
        let b_refs: Vec<&RecordMatch> = b.iter().collect();
        let source = data.shared_text();
        assert_eq!(
            to_relational(template, &source, &a_refs, "t"),
            to_relational(template, &source, &b_refs, "t"),
            "{label}: relational tables of template {idx}"
        );
        assert_eq!(
            to_denormalized(template, &source, &a_refs, "t"),
            to_denormalized(template, &source, &b_refs, "t"),
            "{label}: denormalized table of template {idx}"
        );
    }
}

#[test]
fn backends_agree_on_generated_corpora() {
    let families = [
        ("weblog", vec![corpus::web_access(0)], 0.02),
        ("http_blocks", vec![corpus::http_block(0)], 0.01),
        (
            "interleaved",
            vec![corpus::web_access(0), corpus::pipe_events(0)],
            0.03,
        ),
    ];
    for (i, (name, types, noise)) in families.into_iter().enumerate() {
        let spec = DatasetSpec::new(name, types, 250, 2000 + i as u64).with_noise(noise);
        let text = spec.generate().text;
        // Templates as the pipeline would discover them: top generation candidates reduced
        // from the sample, plus a couple of handcrafted shapes for template-order coverage.
        let config = DatamaranConfig::default();
        let mut templates: Vec<StructureTemplate> = generate(&Dataset::new(text.as_str()), &config)
            .candidates
            .into_iter()
            .take(4)
            .map(|c| c.template)
            .collect();
        templates.push(array("1,2,3\n", ",\n"));
        check_extraction(&text, &templates, name);
    }
}

#[test]
fn backends_agree_on_quoted_arrays_and_multiline_records() {
    let mut text = String::new();
    for i in 0..120 {
        match i % 4 {
            0 => text.push_str(&format!("a{i},\"x,y,z\",b\n")),
            1 => text.push_str(&format!("HDR {i}\nbody={i};done\n")),
            2 => text.push_str(&format!("{i},{},{}\n", i * 2, i % 7)),
            _ => text.push_str("!!! noise line !!!\n"),
        }
    }
    let templates = vec![
        array("a,\"x,y,z\",b\n", ",\"\n"),
        flat("HDR 1\nbody=2;done\n", " =;\n"),
        array("1,2,3\n", ",\n"),
    ];
    check_extraction(&text, &templates, "mixed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The compiled instruction table round-trips for every template the generator emits
    /// on random line datasets (the satellite acceptance property).
    #[test]
    fn compiled_table_round_trips_for_generated_templates(
        rows in prop::collection::vec(prop::collection::vec("[a-zA-Z0-9]{1,8}", 1..6), 5..30),
        sep in prop_oneof![Just(','), Just(';'), Just('|'), Just(':'), Just(' '), Just('=')],
    ) {
        let sep_s = sep.to_string();
        let mut text = String::new();
        for fields in &rows {
            text.push_str(&fields.join(&sep_s));
            text.push('\n');
        }
        let out = generate(&Dataset::new(text.as_str()), &DatamaranConfig::default());
        for cand in &out.candidates {
            let round = decompile(&compile(&cand.template));
            prop_assert_eq!(&round, &cand.template, "round trip of {}", cand.template);
        }
    }

    /// Both extraction backends produce identical parses on random row datasets with the
    /// generator's own candidate templates.
    #[test]
    fn backends_agree_on_random_row_datasets(
        rows in prop::collection::vec(prop::collection::vec("[a-zA-Z0-9]{1,8}", 1..6), 5..30),
        sep in prop_oneof![Just(','), Just(';'), Just('|')],
        noise in prop::collection::vec(any::<bool>(), 5..30),
    ) {
        let sep_s = sep.to_string();
        let mut text = String::new();
        for (i, fields) in rows.iter().enumerate() {
            text.push_str(&fields.join(&sep_s));
            text.push('\n');
            if noise.get(i).copied().unwrap_or(false) {
                text.push_str("## irregular interlude ##\n");
            }
        }
        let templates: Vec<StructureTemplate> =
            generate(&Dataset::new(text.as_str()), &DatamaranConfig::default())
                .candidates
                .into_iter()
                .take(3)
                .map(|c| c.template)
                .collect();
        if templates.is_empty() {
            return Ok(());
        }
        let data = Dataset::new(text.as_str());
        let legacy = parse_dataset(&data, &templates, 10);
        let span = SpanLineMatcher::new(&templates, 10)
            .parse(&data, 1)
            .to_parse_result();
        prop_assert_eq!(legacy.records.len(), span.records.len());
        prop_assert_eq!(&legacy.noise_lines, &span.noise_lines);
        for (x, y) in legacy.records.iter().zip(&span.records) {
            prop_assert_eq!(x.byte_span, y.byte_span);
            prop_assert_eq!(&x.fields, &y.fields);
            prop_assert_eq!(&x.reps, &y.reps);
        }
    }
}
