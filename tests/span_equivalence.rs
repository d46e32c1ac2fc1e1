//! Differential properties for the generation engine: the span-projection engine must be
//! observationally identical to the legacy owned-string reference (`generate_legacy`) —
//! same tokenization, same templates, same coverage statistics — on arbitrary input, for
//! both search strategies and any worker-thread count.

use datamaran::core::generation::{assert_outputs_identical, generate_legacy};
use datamaran::core::record::field_char_len;
use datamaran::core::{
    field_values, generate, tokenize_spans, CharSet, Datamaran, DatamaranConfig, Dataset,
    LineIndex, RecordTemplate, SearchStrategy, SpanTokenKind,
};
use datamaran::logsynth::{corpus, DatasetSpec};
use proptest::prelude::*;

/// Runs the engine and the legacy reference over `data` and asserts identical output.
fn check_generation(data: &Dataset, config: &DatamaranConfig, label: &str) {
    assert_outputs_identical(
        &generate(data, config),
        &generate_legacy(data, config),
        label,
    );
}

/// [`check_generation`] over `text` with the default configuration, `strategy` and
/// `threads` worker threads.
fn check_backends(text: &str, strategy: SearchStrategy, threads: usize) {
    let config = DatamaranConfig::default()
        .with_search(strategy)
        .with_generation_threads(threads);
    check_generation(&Dataset::new(text), &config, strategy.name());
}

fn separator() -> impl Strategy<Value = char> {
    prop_oneof![
        Just(','),
        Just(';'),
        Just('|'),
        Just(':'),
        Just(' '),
        Just('=')
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Class projection reproduces the direct per-line tokenizer byte-for-byte, for every
    /// subset of the superset charset, on arbitrary line soup.
    #[test]
    fn projection_matches_direct_tokenization(
        lines in prop::collection::vec("[a-zA-Z0-9,;|: =.#/-]{0,30}", 1..25),
        subset_seed in any::<u64>(),
    ) {
        let text = lines.join("\n") + "\n";
        let superset = datamaran::core::default_special_chars()
            .restrict_to_text(&text)
            .union(&CharSet::from_chars(['\n']));
        let sample = Dataset::new(text.as_str());
        let index = LineIndex::build(&sample, &superset);
        // A pseudo-random subset of the superset (always keeping '\n', as the search does).
        let mut subset = CharSet::from_chars(['\n']);
        for (bit, c) in superset.iter().enumerate() {
            if subset_seed & (1 << (bit % 64)) != 0 {
                subset.insert(c);
            }
        }
        let mut projected = Vec::new();
        for i in 0..sample.line_count() {
            projected.clear();
            index.project_line(i, &subset, &mut projected);
            let direct = RecordTemplate::from_instantiated(sample.line(i), &subset);
            prop_assert_eq!(&projected[..], direct.tokens(), "line {}", i);
            prop_assert_eq!(
                index.field_bytes(i, &subset),
                field_char_len(sample.line(i), &subset),
                "field bytes of line {}", i
            );
        }
    }

    /// The zero-copy span tokenizer tiles the text exactly and its field spans match the
    /// owned-string `field_values` API.
    #[test]
    fn span_tokens_tile_text_and_match_field_values(
        line in "[a-zA-Z0-9,;|: =.]{0,60}",
        sep in separator(),
    ) {
        let charset = CharSet::from_chars([sep, '\n']);
        let text = format!("{line}\n");
        let mut tokens = Vec::new();
        tokenize_spans(&text, &charset, &mut tokens);
        let mut cursor = 0u32;
        for t in &tokens {
            prop_assert_eq!(t.span.start, cursor, "gap before {:?}", t);
            cursor = t.span.end;
        }
        prop_assert_eq!(cursor as usize, text.len());
        let spans: Vec<(usize, usize)> = tokens
            .iter()
            .filter(|t| t.kind == SpanTokenKind::Field)
            .map(|t| (t.span.start as usize, t.span.end as usize))
            .collect();
        let values = field_values(&text, &charset);
        prop_assert_eq!(spans.len(), values.len());
        for (s, v) in spans.iter().zip(&values) {
            prop_assert_eq!(s.0, v.start);
            prop_assert_eq!(s.1, v.end);
            prop_assert_eq!(&text[s.0..s.1], v.text.as_str());
        }
    }

    /// Both backends emit identical candidates on random single-line datasets, for both
    /// search strategies.
    #[test]
    fn backends_agree_on_random_line_datasets(
        rows in prop::collection::vec(prop::collection::vec("[a-zA-Z0-9]{1,8}", 1..6), 5..40),
        sep in separator(),
        exhaustive in any::<bool>(),
    ) {
        let sep_s = sep.to_string();
        let mut text = String::new();
        for fields in &rows {
            text.push_str(&fields.join(&sep_s));
            text.push('\n');
        }
        let strategy = if exhaustive { SearchStrategy::Exhaustive } else { SearchStrategy::Greedy };
        check_backends(&text, strategy, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Both backends emit identical candidates on generated multi-line, noisy, interleaved
    /// corpora; thread count does not change the span backend's output.
    #[test]
    fn backends_agree_on_generated_corpora(
        n_records in 20usize..80,
        seed in any::<u64>(),
        noise in 0.0f64..0.15,
        threads in 1usize..5,
    ) {
        let spec = DatasetSpec::new(
            "diff",
            vec![corpus::web_access(0), corpus::pipe_events(0)],
            n_records,
            seed,
        )
        .with_noise(noise);
        let text = spec.generate().text;
        check_backends(&text, SearchStrategy::Exhaustive, threads);
        check_backends(&text, SearchStrategy::Greedy, threads);
    }
}

/// End-to-end smoke on a large synthetic corpus: the pipeline explains the file, and on the
/// sample its discovery round generates from, the engine and the legacy reference emit the
/// same candidates.
#[test]
fn large_synthetic_corpus_end_to_end_smoke() {
    let spec = DatasetSpec::new("smoke", vec![corpus::web_access(0)], 6000, 99).with_noise(0.01);
    let data = spec.generate();
    assert!(
        data.text.len() > 250_000,
        "corpus too small: {}",
        data.text.len()
    );

    let spans_result = Datamaran::with_defaults().extract(&data.text).unwrap();
    assert!(
        spans_result.record_count() >= 6000,
        "extracted {} of 6000",
        spans_result.record_count()
    );
    assert!(
        spans_result.noise_fraction < 0.10,
        "noise {}",
        spans_result.noise_fraction
    );

    // One discovery round: the residual (~1% noise) stays under the coverage threshold.
    assert_eq!(spans_result.stats.iterations, 1);
    let config = DatamaranConfig::default();
    let sample = Dataset::new(data.text.as_str()).sample(
        config.sample_bytes,
        config.sample_chunks,
        config.seed,
    );
    check_generation(&sample, &config, "pipeline sample");
}
