//! Differential properties for the evaluation engine: the [`Refiner`] (compiled span
//! parses, delta evaluation, arena-native scoring, template-score memo) must be
//! observationally identical to the tree-walking reference `refine::refine_tree` —
//! identical refined templates, bit-identical scores and equal parse summaries on the
//! pipeline's own candidate pools — plus the refinement-internal properties: the MDL
//! identity between arena scoring and the owned-parse formula `score_set`, span-vs-tree
//! equivalence of `repetition_counts` on nested-array templates, and eligibility
//! preservation of `unfold_at`/`shift_variants` candidates.

use datamaran::core::parallel::resolve_threads;
use datamaran::core::refine::refine_tree;
use datamaran::core::{
    generate, parse_dataset, reduce, repetition_counts, repetition_counts_span, shift_variants,
    unfold_at, CharSet, Datamaran, DatamaranConfig, Dataset, EvaluationMetrics, MdlScorer, Node,
    RecordTemplate, Refined, Refiner, RegularityScorer, SpanLineMatcher, StructureTemplate,
};
use datamaran::logsynth::{corpus, DatasetSpec};
use proptest::prelude::*;

fn flat(example: &str, charset: &str) -> StructureTemplate {
    let cs = CharSet::from_chars(charset.chars());
    StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
}

fn folded(example: &str, charset: &str) -> StructureTemplate {
    let cs = CharSet::from_chars(charset.chars());
    reduce(&RecordTemplate::from_instantiated(example, &cs))
}

fn assert_same_refined(a: &Refined, b: &Refined, label: &str) {
    assert_eq!(a.template, b.template, "{label}: refined template");
    assert_eq!(
        a.score.to_bits(),
        b.score.to_bits(),
        "{label}: score of {}",
        a.template
    );
    assert_eq!(a.summary, b.summary, "{label}: summary of {}", a.template);
}

/// Evaluates the pipeline's first-round input on `text` — its sample and pruned candidate
/// pool — with [`Refiner::refine_batch`] and with the tree reference, for both
/// `apply_refinement` values, and asserts identical results candidate by candidate.
fn check_pipeline(text: &str, label: &str) {
    let engine = Datamaran::with_defaults();
    let config = engine.config();
    let sample = Dataset::new(text).sample(config.sample_bytes, config.sample_chunks, config.seed);
    let pool: Vec<StructureTemplate> = engine
        .candidate_pool(text)
        .unwrap()
        .into_iter()
        .map(|c| c.template)
        .collect();
    assert!(!pool.is_empty(), "{label}: empty candidate pool");
    for apply in [true, false] {
        let refiner = Refiner::with_config(&sample, &MdlScorer, config);
        let refined = refiner.refine_batch(
            pool.clone(),
            apply,
            resolve_threads(config.evaluation_threads),
        );
        let mut metrics = EvaluationMetrics::default();
        for (a, t) in refined.iter().zip(&pool) {
            let b = refine_tree(
                &sample,
                &MdlScorer,
                config.max_line_span,
                t.clone(),
                apply,
                &mut metrics,
            );
            assert_same_refined(a, &b, &format!("{label} (refinement {apply})"));
        }
    }
}

#[test]
#[ignore = "heavy integration suite: run with `cargo test -- --ignored` (dedicated CI step)"]
fn pipeline_backends_agree_on_generated_corpora() {
    let families = [
        ("weblog", vec![corpus::web_access(0)], 0.02),
        ("http_blocks", vec![corpus::http_block(0)], 0.01),
        (
            "interleaved",
            vec![corpus::web_access(0), corpus::pipe_events(0)],
            0.03,
        ),
        ("kv", vec![corpus::kv_metrics(0)], 0.0),
    ];
    for (i, (name, types, noise)) in families.into_iter().enumerate() {
        let spec = DatasetSpec::new(name, types, 220, 4100 + i as u64).with_noise(noise);
        check_pipeline(&spec.generate().text, name);
    }
}

#[test]
fn refiner_backends_agree_on_candidate_pools() {
    // The generation step's own candidates on a structured sample: refine every one with
    // both backends and require identical (template, score, summary) triples in order.
    let mut text = String::new();
    for i in 0..150u64 {
        text.push_str(&format!("{},{},{}\n", i, i * 7 % 113, i % 9));
        if i % 13 == 6 {
            text.push_str(&format!("note {} free text here\n", i));
        }
    }
    let data = Dataset::new(text.as_str());
    let config = DatamaranConfig::default();
    let templates: Vec<StructureTemplate> = generate(&data, &config)
        .candidates
        .into_iter()
        .take(12)
        .map(|c| c.template)
        .collect();
    assert!(!templates.is_empty());
    let scorer = MdlScorer;
    let span = Refiner::new(&data, &scorer, 10);
    let refined = span.refine_batch(templates.clone(), true, 1);
    assert_eq!(refined.len(), templates.len());
    let mut tree = EvaluationMetrics::default();
    for (a, t) in refined.iter().zip(templates) {
        let b = refine_tree(&data, &scorer, 10, t, true, &mut tree);
        assert_same_refined(a, &b, "candidate pool");
    }
    // The delta engine must actually have engaged on this pool (arrays => unfolds), on
    // exactly the reference's evaluation sequence.
    let metrics = span.metrics();
    assert!(metrics.delta_parses > 0, "{metrics:?}");
    assert_eq!(metrics.evaluations, tree.evaluations);
}

/// The arena MDL score of a span parse equals the owned-parse formula `score_set` over the
/// tree walker's parse of the same template, bit for bit — flat, folded and two-level
/// nested array templates alike.
#[test]
fn mdl_span_score_matches_tree_score_set() {
    let mut text = String::new();
    for i in 0..80 {
        text.push_str(&format!(
            "[{:02}] {} {}.5 txt-{}\n",
            i % 60,
            ["GET", "PUT"][i % 2],
            i,
            i % 7
        ));
        if i % 11 == 3 {
            text.push_str("-- noise --\n");
        }
    }
    // Records of a two-level nested array: two outer repetitions, each a key and a
    // 1-3 element list.
    for i in 0..90 {
        let list = |n: usize| {
            (0..n)
                .map(|j| format!("v{}", i * j % 13))
                .collect::<Vec<_>>()
        };
        text.push_str(&format!(
            "k{i}:{}; j{}:{};\n",
            list(1 + i % 3).join(","),
            i % 4,
            list(1 + i % 2).join(",")
        ));
    }
    let data = Dataset::new(text.as_str());
    let nested = StructureTemplate::new(vec![Node::Array {
        body: vec![
            Node::Field,
            Node::Literal(":".into()),
            Node::Array {
                body: vec![Node::Field],
                separator: ',',
                terminator: ';',
            },
        ],
        separator: ' ',
        terminator: '\n',
    }]);
    let templates = [
        flat("[01] GET 3.5 x\n", "[] \n"),
        folded("a b c d\n", " \n"),
        folded("1,2,3\n", ",\n"),
        nested,
    ];
    for t in &templates {
        let single = std::slice::from_ref(t);
        let tree = MdlScorer.score_set(&data, single, &parse_dataset(&data, single, 10));
        let span = SpanLineMatcher::new(single, 10).parse(&data, 1);
        let arena = MdlScorer.score(&data, t, &span);
        assert_eq!(arena.to_bits(), tree.to_bits(), "{arena} vs {tree} on {t}");
    }
    let nested_parse = SpanLineMatcher::new(&templates[3..], 10).parse(&data, 1);
    assert_eq!(nested_parse.records.len(), 90);
    assert_eq!(nested_parse.reps.len(), 270);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `repetition_counts` from the span arenas equals the tree walker's on random row
    /// datasets with (possibly nested) array templates — including multi-line windows
    /// whose reduction nests arrays.
    #[test]
    fn repetition_counts_agree_on_random_datasets(
        rows in prop::collection::vec(prop::collection::vec("[a-z0-9]{1,6}", 1..7), 4..25),
        sep in prop_oneof![Just(','), Just(';'), Just('|')],
        nested in any::<bool>(),
    ) {
        let sep_s = sep.to_string();
        let mut text = String::new();
        for fields in &rows {
            text.push_str(&fields.join(&sep_s));
            text.push('\n');
        }
        let template = if nested {
            // A two-line window template: reduction folds the repeated line pattern into a
            // nested array when the shapes repeat.
            let block = format!("a{sep}1\na{sep}2\n");
            folded(&block, &format!("{sep}\n"))
        } else {
            folded(&format!("1{sep}2{sep}3\n"), &format!("{sep}\n"))
        };
        let data = Dataset::new(text.as_str());
        let templates = std::slice::from_ref(&template);
        let legacy = repetition_counts(&parse_dataset(&data, templates, 10), &template);
        let parse = SpanLineMatcher::new(templates, 10).parse(&data, 1);
        let span = repetition_counts_span(&parse, &template);
        prop_assert_eq!(legacy, span);
    }

    /// Refinement candidates preserve coverage-threshold eligibility: on CSV-like corpora
    /// with a dominant modal width, every `unfold_at` candidate parses to coverage at most
    /// the parent's, and the accepted refinement (`Refiner::refine`) still reaches the
    /// alpha threshold whenever the parent did.
    #[test]
    fn unfold_candidates_preserve_coverage_eligibility(
        cols in 2usize..6,
        rows in 20usize..60,
        ragged in prop::collection::vec(any::<bool>(), 8..9),
    ) {
        let mut text = String::new();
        for i in 0..rows {
            // A dominant modal width plus a ragged minority keeps the array template
            // interesting without breaking Assumption 1.
            let width = if ragged.get(i % 8).copied().unwrap_or(false) && i % 5 == 0 {
                cols + 1
            } else {
                cols
            };
            let vals: Vec<String> = (0..width).map(|c| format!("{}", i * 10 + c)).collect();
            text.push_str(&vals.join(","));
            text.push('\n');
        }
        let data = Dataset::new(text.as_str());
        let alpha = 0.10;
        let parent = folded("1,2,3\n", ",\n");
        let scorer = MdlScorer;
        let refiner = Refiner::new(&data, &scorer, 10);
        let parent_eval = refiner.evaluate(&parent);
        let parent_cov = parent_eval.summary.record_coverage(data.len());
        prop_assert!(parent_cov >= alpha, "parent covers the whole file");

        // Every unfold candidate explains a subset of what the folded parent explains.
        let paths = datamaran::core::collect_array_paths(parent.nodes());
        for path in &paths {
            for reps in 1..=cols + 1 {
                for partial in [false, true] {
                    if let Some(candidate) = unfold_at(&parent, path, reps, partial) {
                        let cand_eval = refiner.evaluate(&candidate);
                        prop_assert!(
                            cand_eval.summary.record_coverage(data.len()) <= parent_cov + 1e-9,
                            "unfold of {parent} to {candidate} gained coverage"
                        );
                    }
                }
            }
        }

        // The accepted refinement keeps the parent's eligibility.
        let refined = refiner.refine(&parent);
        prop_assert!(
            refined.summary.record_coverage(data.len()) >= alpha,
            "refine({parent}) -> {} lost eligibility",
            refined.template
        );
    }

    /// Shift variants of a multi-line template explain the same records modulo rotation:
    /// each variant's record count is within one of the parent's, so the `RefineST` shift
    /// rule's eligibility bound (half the parent's records) always holds for the variant
    /// the refiner keeps.
    #[test]
    fn shift_variants_preserve_record_mass(
        n in 10usize..40,
        offset in 0usize..2,
    ) {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&format!("HDR {i}\nval={};st=ok\n", i + offset));
        }
        let data = Dataset::new(text.as_str());
        let parent = flat("HDR 1\nval=2;st=ok\n", " =;\n");
        let scorer = MdlScorer;
        let refiner = Refiner::new(&data, &scorer, 10);
        let parent_eval = refiner.evaluate(&parent);
        for v in shift_variants(&parent) {
            let var_eval = refiner.evaluate(&v);
            prop_assert!(
                var_eval.summary.record_count + 1 >= parent_eval.summary.record_count,
                "variant {v} lost more than one record vs {} ({} vs {})",
                parent,
                var_eval.summary.record_count,
                parent_eval.summary.record_count
            );
        }
        let refined = refiner.refine(&parent);
        prop_assert!(
            refined.summary.record_count * 2 >= parent_eval.summary.record_count.max(1),
            "refine kept an ineligible shift"
        );
    }
}
