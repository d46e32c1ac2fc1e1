//! Additional regularity score functions.
//!
//! The paper stresses that "the design of Datamaran is independent of the choice of this
//! scoring function: we can plug in any reasonable scoring function" (§4).  Besides the
//! default MDL scorer ([`crate::mdl::MdlScorer`]) and the coverage-only scorer
//! ([`crate::mdl::CoverageScorer`]), this module provides scorers used by the ablation
//! experiments in the benchmark harness:
//!
//! * [`NonFieldCoverageScorer`] — ranks templates purely by the assimilation-score signal
//!   (coverage of *formatting* characters), i.e. uses the pruning-step heuristic as the final
//!   score.  Comparing it against MDL quantifies how much the evaluation step contributes.
//! * [`UntypedMdlScorer`] — the Appendix 9.2 description length with field typing disabled
//!   (every field is described as a raw string).  Comparing it against the full MDL scorer
//!   quantifies the contribution of the enum/int/real/string field models.
//! * [`NoisePenaltyScorer`] — a wrapper that multiplies the noise term of an inner scorer,
//!   exposing the trade-off between explaining more of the file and keeping templates simple.

use crate::dataset::Dataset;
use crate::extract::SpanParse;
use crate::mdl::{RegularityScorer, ARRAY_COUNT_BITS};
use crate::structure::StructureTemplate;

/// Scores a template by how much formatting-character mass it explains: the negated
/// non-field coverage (lower = better, to match the description-length convention).
///
/// This is exactly the quantity the pruning step already optimizes (§4.2), so using it as the
/// final score ablates the evaluation step.
#[derive(Clone, Copy, Debug, Default)]
pub struct NonFieldCoverageScorer;

impl RegularityScorer for NonFieldCoverageScorer {
    fn score(&self, dataset: &Dataset, _template: &StructureTemplate, parse: &SpanParse) -> f64 {
        // The cell arena holds exactly the cells of the matched records (rolled back on
        // every failed or rejected match).
        let field_bytes: usize = parse.cells.iter().map(|f| f.end - f.start).sum();
        let covered = parse.record_bytes;
        let non_field = covered.saturating_sub(field_bytes);
        // Larger non-field coverage is better; break ties toward higher total coverage.
        -(non_field as f64) - covered as f64 / dataset.len().max(1) as f64
    }

    fn name(&self) -> &'static str {
        "non-field-coverage"
    }
}

/// The Appendix 9.2 description length with the field-type models disabled: every field value
/// is charged as a raw string (`(len + 1) * 8` bits), regardless of whether the column is
/// enumerable, integral, or real.  Everything else is charged as in
/// [`MdlScorer`](crate::mdl::MdlScorer): the template, one indicator bit per block, noise
/// verbatim, and 16 bits per array repetition count.
#[derive(Clone, Copy, Debug, Default)]
pub struct UntypedMdlScorer;

impl RegularityScorer for UntypedMdlScorer {
    fn score(&self, dataset: &Dataset, template: &StructureTemplate, parse: &SpanParse) -> f64 {
        let mut bits = template.description_chars() as f64 * 8.0;
        bits += 32.0 + parse.block_count() as f64;
        bits += parse.noise_bytes as f64 * 8.0;
        let text = dataset.text();
        for rec in parse.records.iter().filter(|r| r.template_index == 0) {
            for cell in parse.record_cells(rec) {
                let len = text[cell.start..cell.end].chars().count();
                bits += (len as f64 + 1.0) * 8.0;
            }
            bits += ARRAY_COUNT_BITS * parse.record_reps(rec).len() as f64;
        }
        bits
    }

    fn name(&self) -> &'static str {
        "mdl-untyped"
    }
}

/// Wraps another scorer and multiplies the description cost of noise by `noise_weight`.
///
/// `noise_weight > 1` favours templates that explain more of the file even when their field
/// values are less regular; `noise_weight < 1` favours simpler templates that leave more
/// noise.  The default MDL scorer corresponds to `noise_weight = 1`.
#[derive(Clone, Copy, Debug)]
pub struct NoisePenaltyScorer<S> {
    inner: S,
    noise_weight: f64,
}

impl<S: RegularityScorer> NoisePenaltyScorer<S> {
    /// Wraps `inner`, scaling its noise term by `noise_weight`.
    pub fn new(inner: S, noise_weight: f64) -> Self {
        NoisePenaltyScorer {
            inner,
            noise_weight,
        }
    }

    /// The configured noise weight.
    pub fn noise_weight(&self) -> f64 {
        self.noise_weight
    }
}

impl<S: RegularityScorer> RegularityScorer for NoisePenaltyScorer<S> {
    fn score(&self, dataset: &Dataset, template: &StructureTemplate, parse: &SpanParse) -> f64 {
        let base = self.inner.score(dataset, template, parse);
        // The inner scorer already charges noise at 8 bits per byte; add the difference.
        base + (self.noise_weight - 1.0) * parse.noise_bytes as f64 * 8.0
    }

    fn name(&self) -> &'static str {
        "noise-penalty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::CharSet;
    use crate::extract::SpanLineMatcher;
    use crate::mdl::MdlScorer;
    use crate::record::RecordTemplate;

    fn flat(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
    }

    fn span(data: &Dataset, template: &StructureTemplate) -> SpanParse {
        SpanLineMatcher::new(std::slice::from_ref(template), 10).parse(data, 1)
    }

    fn score_on<S: RegularityScorer>(scorer: &S, text: &str, template: &StructureTemplate) -> f64 {
        let data = Dataset::new(text);
        scorer.score(&data, template, &span(&data, template))
    }

    #[test]
    fn non_field_coverage_prefers_richer_templates() {
        let text = "[01:05] a\n[02:06] b\n[03:07] c\n";
        // The "full" template separates time components; the "lazy" one treats "[01:05]" as a
        // single field, so it explains fewer formatting characters.
        let full = flat("[01:05] a\n", "[]: \n");
        let lazy = flat("[01:05] a\n", " \n");
        let s = NonFieldCoverageScorer;
        assert!(score_on(&s, text, &full) < score_on(&s, text, &lazy));
        assert_eq!(s.name(), "non-field-coverage");
    }

    #[test]
    fn untyped_mdl_is_no_cheaper_than_typed_mdl_on_numeric_data() {
        let mut text = String::new();
        for i in 0..60 {
            text.push_str(&format!("{},{}\n", i, i * 7));
        }
        let template = flat("1,2\n", ",\n");
        let typed = score_on(&MdlScorer, &text, &template);
        let untyped = score_on(&UntypedMdlScorer, &text, &template);
        assert!(
            untyped > typed,
            "untyped {untyped} should exceed typed {typed} on integer columns"
        );
    }

    /// Where every column infers String, typing changes nothing but the 8 model bits each
    /// String column pays in MDL: the block, noise and repetition-count charges (16 bits
    /// per entry of a record's `reps`) must be the same in both scorers.
    #[test]
    fn untyped_mdl_differs_from_mdl_only_by_string_model_bits() {
        use crate::structure::Node;
        let mut kv_text = String::new();
        for i in 0..40 {
            kv_text.push_str(&format!("k{i}x=v{}y\n", 7 * i));
        }
        let kv = flat("k0x=v0y\n", "=\n");
        // Two-level nested arrays over distinct words: five repetition counts in two records.
        let inner = Node::Array {
            body: vec![Node::Field],
            separator: ',',
            terminator: ';',
        };
        let nested = StructureTemplate::new(vec![Node::Array {
            body: vec![Node::Field, Node::Literal(":".into()), inner],
            separator: ' ',
            terminator: '\n',
        }]);
        let nested_text = "k0:a,b; k1:c;\nk2:d;\nnoise\n";
        assert_eq!(
            span(&Dataset::new(nested_text), &nested).reps,
            [2, 2, 1, 1, 1]
        );
        for (text, template) in [(kv_text.as_str(), &kv), (nested_text, &nested)] {
            let typed = score_on(&MdlScorer, text, template);
            let untyped = score_on(&UntypedMdlScorer, text, template);
            assert_eq!(
                typed - untyped,
                8.0 * template.field_count() as f64,
                "{template}: {typed} vs {untyped}"
            );
        }
    }

    #[test]
    fn untyped_mdl_still_prefers_structure_over_noise() {
        let structured = "a=1\na=2\na=3\n";
        let template = flat("a=1\n", "=\n");
        let with_noise = "a=1\nrandom garbage line that matches nothing\na=3\n";
        let s = UntypedMdlScorer;
        assert!(score_on(&s, structured, &template) < score_on(&s, with_noise, &template));
    }

    #[test]
    fn noise_penalty_scales_only_the_noise_term() {
        let text = "k=1\nnoise noise noise\nk=2\n";
        let template = flat("k=1\n", "=\n");
        let base = score_on(&MdlScorer, text, &template);
        let heavier = score_on(&NoisePenaltyScorer::new(MdlScorer, 3.0), text, &template);
        let lighter = score_on(&NoisePenaltyScorer::new(MdlScorer, 0.5), text, &template);
        assert!(heavier > base);
        assert!(lighter < base);
        let clean = "k=1\nk=2\n";
        let base_clean = score_on(&MdlScorer, clean, &template);
        let weighted_clean = score_on(&NoisePenaltyScorer::new(MdlScorer, 3.0), clean, &template);
        assert!(
            (base_clean - weighted_clean).abs() < 1e-9,
            "no noise, no change"
        );
        assert!((NoisePenaltyScorer::new(MdlScorer, 2.0).noise_weight() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scorers_are_usable_by_the_pipeline() {
        use crate::pipeline::Datamaran;
        let mut text = String::new();
        for i in 0..80 {
            text.push_str(&format!("[{:02}] host{} ok\n", i % 60, i % 9));
        }
        let engine = Datamaran::with_defaults();
        // The untyped scorer may legitimately settle on a different (e.g. composite
        // multi-line) template than the typed one; what matters here is that the pipeline
        // accepts the scorer and still explains essentially the whole file.
        let a = engine
            .extract_with_scorer(&text, &UntypedMdlScorer)
            .unwrap();
        assert!(a.record_count() > 0);
        assert!(a.noise_fraction < 0.05, "noise {}", a.noise_fraction);
        // Scaling the noise term does not change anything on a noise-free file, so the
        // noise-penalty wrapper must reproduce the default segmentation exactly.
        let b = engine
            .extract_with_scorer(&text, &NoisePenaltyScorer::new(MdlScorer, 2.0))
            .unwrap();
        assert_eq!(b.record_count(), 80);
    }
}
