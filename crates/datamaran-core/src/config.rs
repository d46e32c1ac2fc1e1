//! Configuration of the Datamaran pipeline (the paper's Table 2 parameters plus the
//! engineering knobs of Appendix 9.1).

use crate::chars::{default_special_chars, CharSet};

/// Which search procedure the generation step uses to enumerate `RT-CharSet` values
/// (Appendix 9.1, "Variants of Generation Step").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SearchStrategy {
    /// Enumerate all `2^c` subsets of the candidate characters present in the dataset.
    Exhaustive,
    /// Grow the character set greedily, adding the character that yields the structure
    /// template with the highest assimilation score (`O(c^2)` subsets).
    Greedy,
}

impl SearchStrategy {
    /// Short, human-readable name (used in experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Exhaustive => "exhaustive",
            SearchStrategy::Greedy => "greedy",
        }
    }
}

/// The generation step's engine, printed in experiment and benchmark output.
///
/// Generation runs one engine: the span projections of [`crate::generation`].  The
/// superseded re-tokenizing search survives only as the test reference
/// `generation::generate_legacy`, called directly and never selected through
/// configuration.  The enum stays, with one variant, because the end-to-end benchmark
/// driver prints [`name`](Self::name) in its configuration line.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GenerationBackend {
    /// Single-pass superset tokenization with per-charset span projections, interned
    /// template ids, and multi-threaded charset enumeration (see [`crate::span`] and
    /// [`crate::intern`]).
    #[default]
    Spans,
}

impl GenerationBackend {
    /// Short, human-readable name (used in experiment output).
    pub fn name(&self) -> &'static str {
        "spans"
    }
}

/// The final extraction pass's engine, printed in experiment and benchmark output.
///
/// Extraction runs one engine: the compiled instruction tables of [`crate::extract`].
/// The recursive-descent tree walker survives only as the test reference
/// [`crate::parser::parse_dataset`].  The enum stays, with one variant, because the
/// end-to-end benchmark driver prints [`name`](Self::name) in its configuration line.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExtractionBackend {
    /// Compiled instruction tables matched over raw byte spans with table-driven delimiter
    /// scanning and flat output arenas (see [`crate::extract`]).
    #[default]
    Span,
}

impl ExtractionBackend {
    /// Short, human-readable name (used in experiment output and reports).
    pub fn name(&self) -> &'static str {
        "span"
    }
}

/// The evaluation step's engine (refinement scoring, §4.3), printed in experiment and
/// benchmark output.
///
/// Evaluation runs one engine: compiled span parses, arena-native scoring, a template-score
/// memo, and *delta* evaluation of each unfold/shift variant against its refinement parent
/// (see [`crate::refine`]).  The tree re-parse it replaced survives only as the test
/// reference `refine::refine_tree`.  The enum stays, with one variant, because the
/// end-to-end benchmark driver prints [`name`](Self::name) in its configuration line.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EvaluationBackend {
    /// Compiled op tables + flat span arenas + arena-native scoring + template-score memo,
    /// with incremental *delta* evaluation of refinement variants against their parents
    /// (see [`crate::refine`] and [`crate::extract`]).
    #[default]
    Span,
}

impl EvaluationBackend {
    /// Short, human-readable name (used in experiment output and reports).
    pub fn name(&self) -> &'static str {
        "span"
    }
}

/// How the span engine answers the per-line *"which template matches here?"* question,
/// printed in experiment and benchmark output.
///
/// Matching runs one engine: the merged byte-class DFA of
/// [`crate::extract::CompiledTemplateSet`] prunes the template set before the per-template
/// matcher runs, and the matcher falls back to trialing every template in index order
/// whenever fewer than two templates are live.  The always-trial loop survives only as
/// the test reference `SpanLineMatcher::trial_reference`, called directly and never
/// selected through configuration.  The enum stays, with one variant, because the
/// end-to-end benchmark driver sets it through the builder and prints
/// [`name`](Self::name) in its configuration line.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MatchingBackend {
    /// One merged byte-class DFA over the whole template set: a single pass over a
    /// record's bytes prunes the set down to the few templates that can still match, and
    /// only those are handed to the per-template span matcher.
    #[default]
    Fused,
}

impl MatchingBackend {
    /// Short, human-readable name (used in experiment output and reports).
    pub fn name(&self) -> &'static str {
        "fused"
    }
}

/// Reads a worker-thread override from the environment (used by the scheduled CI job that
/// soaks the multi-thread merge paths on hosts with real cores; dev boxes and default runs
/// are unaffected).  Invalid or absent values fall back to `default`.  The strict
/// counterpart used by [`DatamaranConfigBuilder`] is [`env_threads_strict`].
fn env_threads(var: &str, default: usize) -> usize {
    env_threads_strict(var, default).unwrap_or(default)
}

/// Like [`env_threads`], but a present-yet-unparsable value is an
/// [`Error::InvalidConfig`](crate::error::Error::InvalidConfig) instead of a silent
/// fallback.
fn env_threads_strict(var: &str, default: usize) -> Result<usize, crate::error::Error> {
    match std::env::var(var) {
        Err(_) => Ok(default),
        Ok(v) => v.trim().parse::<usize>().map_err(|_| {
            crate::error::Error::InvalidConfig(format!(
                "{var}: invalid thread count `{}` (expected a non-negative integer; 0 = auto)",
                v.trim()
            ))
        }),
    }
}

/// Parameters of the Datamaran algorithm.
///
/// Defaults follow the paper's Section 5 defaults: `α = 10%`, `L = 10`, `M = 50`.
#[derive(Clone, Debug)]
pub struct DatamaranConfig {
    /// Minimum coverage threshold `α`, as a fraction in `(0, 1]` (paper default: `0.10`).
    pub alpha: f64,
    /// Maximum number of lines a record may span, `L` (paper default: 10).
    pub max_line_span: usize,
    /// Number of structure templates retained after the pruning step, `M`
    /// (paper default: 50; recommended in §5.2.3: 1000).
    pub prune_keep: usize,
    /// `RT-CharSet` enumeration strategy.
    pub search: SearchStrategy,
    /// The candidate pool of formatting characters (`RT-CharSet-Candidate`).
    pub special_chars: CharSet,
    /// Maximum number of bytes sampled for the generation and evaluation steps
    /// (`S_data` in Table 2).  The final extraction pass always scans the whole dataset.
    pub sample_bytes: usize,
    /// Number of contiguous chunks the sample is drawn from (cache-aware sampling,
    /// Appendix 9.1).
    pub sample_chunks: usize,
    /// Maximum number of record types extracted from an interleaved dataset before the
    /// pipeline stops iterating.
    pub max_record_types: usize,
    /// Number of first-iteration templates explored when handling interleaved datasets.
    ///
    /// The paper's pipeline commits greedily to the single best-scoring template per
    /// iteration, which occasionally locks onto a "generic" composite template that mixes
    /// several record types (the failure mode discussed in its Appendix 9.4).  With a beam
    /// width of `k`, the top-`k` first-iteration templates are each continued greedily and
    /// the complete solutions are compared with
    /// [`RegularityScorer::score_set`](crate::mdl::RegularityScorer::score_set); `1`
    /// reproduces the paper's pure greedy behaviour.
    pub beam_width: usize,
    /// Upper bound on the number of distinct candidate characters considered by the
    /// exhaustive search (`2^c` subsets are enumerated; beyond this the search falls back to
    /// the greedy procedure).  At most 63: the subsets are enumerated as bit masks of a
    /// `u64`.
    pub max_exhaustive_chars: usize,
    /// Whether the evaluation step applies the §4.3 structure-refinement techniques (array
    /// unfolding, partial unfolding, structure shifting).  `true` is the paper's algorithm;
    /// `false` is used by the ablation experiments to quantify their contribution.
    pub refine: bool,
    /// Seed for the sampling RNG, making runs reproducible.
    pub seed: u64,
    /// The generation step's engine (one variant; reported, not selectable).
    pub generation_backend: GenerationBackend,
    /// Worker threads for the generation step's charset enumeration.  `0` means one per
    /// available core; `1` forces the sequential path.  Results are identical for any
    /// value (the merge of per-thread results is order-independent).
    pub generation_threads: usize,
    /// The final extraction pass's engine (one variant; reported, not selectable).
    pub extraction_backend: ExtractionBackend,
    /// The matching engine (one variant; reported, not selectable).
    pub matching_backend: MatchingBackend,
    /// Worker threads for the final extraction pass.  `0` means one per available core;
    /// `1` forces the sequential path.  Results are identical for any value (the stitch
    /// replays the sequential segmentation deterministically).
    pub extraction_threads: usize,
    /// The evaluation step's engine (one variant; reported, not selectable).
    pub evaluation_backend: EvaluationBackend,
    /// Worker threads for the per-candidate evaluation loop.  `0` means one per available
    /// core; `1` forces the sequential path.  Results are identical for any value (each
    /// candidate refines independently and the ranked merge preserves candidate order).
    pub evaluation_threads: usize,
}

impl Default for DatamaranConfig {
    /// The paper defaults with **lenient** environment pickup: the soak job sets thread
    /// counts via `DATAMARAN_*_THREADS` variables, and absent or malformed values silently
    /// fall back.  Use [`DatamaranConfig::builder`] when malformed environment values
    /// should be an error instead.
    fn default() -> Self {
        DatamaranConfig {
            generation_threads: env_threads("DATAMARAN_GENERATION_THREADS", 0),
            extraction_threads: env_threads("DATAMARAN_EXTRACTION_THREADS", 0),
            evaluation_threads: env_threads("DATAMARAN_EVALUATION_THREADS", 0),
            ..Self::compiled_defaults()
        }
    }
}

impl DatamaranConfig {
    /// The compiled-in defaults, with **no** environment variable consulted — the base
    /// every builder and the lenient [`Default`] start from.
    fn compiled_defaults() -> Self {
        DatamaranConfig {
            alpha: 0.10,
            max_line_span: 10,
            prune_keep: 50,
            search: SearchStrategy::Exhaustive,
            special_chars: default_special_chars(),
            sample_bytes: 64 * 1024,
            sample_chunks: 8,
            max_record_types: 8,
            beam_width: 3,
            max_exhaustive_chars: 8,
            refine: true,
            seed: 0x5eed_0001,
            generation_backend: GenerationBackend::default(),
            generation_threads: 0,
            extraction_backend: ExtractionBackend::default(),
            matching_backend: MatchingBackend::default(),
            extraction_threads: 0,
            evaluation_backend: EvaluationBackend::default(),
            evaluation_threads: 0,
        }
    }

    /// Starts a [`DatamaranConfigBuilder`]: typed setters over the compiled defaults, with
    /// **strict** environment parsing and validation at [`build`](DatamaranConfigBuilder::build)
    /// time — a malformed `DATAMARAN_*` value is an
    /// [`Error::InvalidConfig`](crate::error::Error::InvalidConfig), not a silent default.
    pub fn builder() -> DatamaranConfigBuilder {
        DatamaranConfigBuilder::default()
    }

    /// The paper's default configuration (`α = 10%`, `L = 10`, `M = 50`, exhaustive search).
    pub fn paper_defaults() -> Self {
        Self::default()
    }

    /// The configuration recommended at the end of §5.2.3 (`M = 1000`).
    pub fn recommended() -> Self {
        DatamaranConfig {
            prune_keep: 1000,
            ..Self::default()
        }
    }

    /// Builder-style setter for `α` (fraction in `(0, 1]`).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builder-style setter for the maximum record span `L`.
    pub fn with_max_line_span(mut self, l: usize) -> Self {
        self.max_line_span = l;
        self
    }

    /// Builder-style setter for the number of templates kept after pruning, `M`.
    pub fn with_prune_keep(mut self, m: usize) -> Self {
        self.prune_keep = m;
        self
    }

    /// Builder-style setter for the search strategy.
    pub fn with_search(mut self, search: SearchStrategy) -> Self {
        self.search = search;
        self
    }

    /// Builder-style setter for the sampling budget in bytes.
    pub fn with_sample_bytes(mut self, bytes: usize) -> Self {
        self.sample_bytes = bytes;
        self
    }

    /// Builder-style setter for the first-iteration beam width (`1` = the paper's greedy).
    pub fn with_beam_width(mut self, k: usize) -> Self {
        self.beam_width = k;
        self
    }

    /// Builder-style setter for the §4.3 structure-refinement toggle (ablations only).
    pub fn with_refine(mut self, refine: bool) -> Self {
        self.refine = refine;
        self
    }

    /// Builder-style setter for the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the generation worker-thread count (`0` = auto).
    pub fn with_generation_threads(mut self, threads: usize) -> Self {
        self.generation_threads = threads;
        self
    }

    /// Builder-style setter for the extraction worker-thread count (`0` = auto).
    pub fn with_extraction_threads(mut self, threads: usize) -> Self {
        self.extraction_threads = threads;
        self
    }

    /// Builder-style setter for the evaluation worker-thread count (`0` = auto).
    pub fn with_evaluation_threads(mut self, threads: usize) -> Self {
        self.evaluation_threads = threads;
        self
    }

    /// Validates the configuration, returning a descriptive error for out-of-range values.
    pub fn validate(&self) -> Result<(), crate::error::Error> {
        use crate::error::Error;
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "alpha must be in (0, 1], got {}",
                self.alpha
            )));
        }
        if self.max_line_span == 0 {
            return Err(Error::InvalidConfig("max_line_span must be >= 1".into()));
        }
        if self.prune_keep == 0 {
            return Err(Error::InvalidConfig("prune_keep must be >= 1".into()));
        }
        if self.sample_bytes == 0 {
            return Err(Error::InvalidConfig("sample_bytes must be >= 1".into()));
        }
        if self.max_record_types == 0 {
            return Err(Error::InvalidConfig("max_record_types must be >= 1".into()));
        }
        if self.beam_width == 0 {
            return Err(Error::InvalidConfig("beam_width must be >= 1".into()));
        }
        // The exhaustive search enumerates its 2^c subsets as `u64` bit masks.
        if self.max_exhaustive_chars > 63 {
            return Err(Error::InvalidConfig(format!(
                "max_exhaustive_chars must be <= 63, got {}",
                self.max_exhaustive_chars
            )));
        }
        if !self.special_chars.contains('\n') {
            return Err(Error::InvalidConfig(
                "the special character set must contain '\\n' (records are newline-delimited)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Typed, validating builder for [`DatamaranConfig`] — the strict counterpart of the
/// lenient [`Default`] impl.
///
/// Every knob has a typed setter; knobs the builder is not given explicitly are resolved
/// at [`build`](Self::build) time: the three environment-covered knobs
/// (`DATAMARAN_GENERATION_THREADS`, `DATAMARAN_EXTRACTION_THREADS`,
/// `DATAMARAN_EVALUATION_THREADS`) are parsed **strictly**
/// (a present-yet-malformed value is [`Error::InvalidConfig`](crate::error::Error::InvalidConfig),
/// which the CLI maps to exit code 2), everything else takes the compiled default.  The
/// built config is always [`validate`](DatamaranConfig::validate)d, so zero/NaN thresholds
/// never escape the builder.
///
/// ```
/// use datamaran_core::DatamaranConfig;
/// let config = DatamaranConfig::builder()
///     .alpha(0.05)
///     .prune_keep(100)
///     .build()
///     .unwrap();
/// assert_eq!(config.prune_keep, 100);
/// assert!(DatamaranConfig::builder().alpha(f64::NAN).build().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DatamaranConfigBuilder {
    alpha: Option<f64>,
    max_line_span: Option<usize>,
    prune_keep: Option<usize>,
    search: Option<SearchStrategy>,
    special_chars: Option<CharSet>,
    sample_bytes: Option<usize>,
    sample_chunks: Option<usize>,
    max_record_types: Option<usize>,
    beam_width: Option<usize>,
    max_exhaustive_chars: Option<usize>,
    refine: Option<bool>,
    seed: Option<u64>,
    generation_threads: Option<usize>,
    extraction_threads: Option<usize>,
    evaluation_threads: Option<usize>,
}

impl DatamaranConfigBuilder {
    /// Sets the minimum coverage threshold `α` (fraction in `(0, 1]`).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Sets the maximum record span `L`.
    pub fn max_line_span(mut self, l: usize) -> Self {
        self.max_line_span = Some(l);
        self
    }

    /// Sets the number of templates kept after pruning, `M`.
    pub fn prune_keep(mut self, m: usize) -> Self {
        self.prune_keep = Some(m);
        self
    }

    /// Sets the `RT-CharSet` enumeration strategy.
    pub fn search(mut self, search: SearchStrategy) -> Self {
        self.search = Some(search);
        self
    }

    /// Sets the candidate pool of formatting characters.
    pub fn special_chars(mut self, chars: CharSet) -> Self {
        self.special_chars = Some(chars);
        self
    }

    /// Sets the sampling budget in bytes.
    pub fn sample_bytes(mut self, bytes: usize) -> Self {
        self.sample_bytes = Some(bytes);
        self
    }

    /// Sets the number of contiguous sample chunks.
    pub fn sample_chunks(mut self, chunks: usize) -> Self {
        self.sample_chunks = Some(chunks);
        self
    }

    /// Sets the maximum number of record types extracted from an interleaved dataset.
    pub fn max_record_types(mut self, n: usize) -> Self {
        self.max_record_types = Some(n);
        self
    }

    /// Sets the first-iteration beam width (`1` = the paper's greedy).
    pub fn beam_width(mut self, k: usize) -> Self {
        self.beam_width = Some(k);
        self
    }

    /// Sets the exhaustive-search character-count bound.
    pub fn max_exhaustive_chars(mut self, c: usize) -> Self {
        self.max_exhaustive_chars = Some(c);
        self
    }

    /// Toggles the §4.3 structure-refinement techniques.
    pub fn refine(mut self, refine: bool) -> Self {
        self.refine = Some(refine);
        self
    }

    /// Sets the sampling RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the generation worker-thread count (`0` = auto), overriding
    /// `DATAMARAN_GENERATION_THREADS`.
    pub fn generation_threads(mut self, threads: usize) -> Self {
        self.generation_threads = Some(threads);
        self
    }

    /// Accepts the matching engine for source compatibility with callers that pin every
    /// knob explicitly (the end-to-end benchmark driver does); with one engine there is
    /// nothing to set.
    pub fn matching_backend(self, _backend: MatchingBackend) -> Self {
        self
    }

    /// Sets the extraction worker-thread count (`0` = auto), overriding
    /// `DATAMARAN_EXTRACTION_THREADS`.
    pub fn extraction_threads(mut self, threads: usize) -> Self {
        self.extraction_threads = Some(threads);
        self
    }

    /// Sets the evaluation worker-thread count (`0` = auto), overriding
    /// `DATAMARAN_EVALUATION_THREADS`.
    pub fn evaluation_threads(mut self, threads: usize) -> Self {
        self.evaluation_threads = Some(threads);
        self
    }

    /// Resolves unset knobs (strict environment parsing for the env-covered ones, compiled
    /// defaults for the rest) and validates the result.
    pub fn build(self) -> Result<DatamaranConfig, crate::error::Error> {
        let base = DatamaranConfig::compiled_defaults();
        let generation_threads = match self.generation_threads {
            Some(t) => t,
            None => env_threads_strict("DATAMARAN_GENERATION_THREADS", 0)?,
        };
        let extraction_threads = match self.extraction_threads {
            Some(t) => t,
            None => env_threads_strict("DATAMARAN_EXTRACTION_THREADS", 0)?,
        };
        let evaluation_threads = match self.evaluation_threads {
            Some(t) => t,
            None => env_threads_strict("DATAMARAN_EVALUATION_THREADS", 0)?,
        };
        let config = DatamaranConfig {
            alpha: self.alpha.unwrap_or(base.alpha),
            max_line_span: self.max_line_span.unwrap_or(base.max_line_span),
            prune_keep: self.prune_keep.unwrap_or(base.prune_keep),
            search: self.search.unwrap_or(base.search),
            special_chars: self.special_chars.unwrap_or(base.special_chars),
            sample_bytes: self.sample_bytes.unwrap_or(base.sample_bytes),
            sample_chunks: self.sample_chunks.unwrap_or(base.sample_chunks),
            max_record_types: self.max_record_types.unwrap_or(base.max_record_types),
            beam_width: self.beam_width.unwrap_or(base.beam_width),
            max_exhaustive_chars: self
                .max_exhaustive_chars
                .unwrap_or(base.max_exhaustive_chars),
            refine: self.refine.unwrap_or(base.refine),
            seed: self.seed.unwrap_or(base.seed),
            generation_threads,
            extraction_threads,
            evaluation_threads,
            ..base
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DatamaranConfig::default();
        assert!((c.alpha - 0.10).abs() < 1e-9);
        assert_eq!(c.max_line_span, 10);
        assert_eq!(c.prune_keep, 50);
        assert_eq!(c.search, SearchStrategy::Exhaustive);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn recommended_raises_m() {
        assert_eq!(DatamaranConfig::recommended().prune_keep, 1000);
    }

    #[test]
    fn builder_setters_apply() {
        let c = DatamaranConfig::default()
            .with_alpha(0.05)
            .with_max_line_span(4)
            .with_prune_keep(10)
            .with_search(SearchStrategy::Greedy)
            .with_sample_bytes(1024)
            .with_seed(42);
        assert!((c.alpha - 0.05).abs() < 1e-9);
        assert_eq!(c.max_line_span, 4);
        assert_eq!(c.prune_keep, 10);
        assert_eq!(c.search, SearchStrategy::Greedy);
        assert_eq!(c.sample_bytes, 1024);
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(DatamaranConfig::default()
            .with_alpha(0.0)
            .validate()
            .is_err());
        assert!(DatamaranConfig::default()
            .with_alpha(1.5)
            .validate()
            .is_err());
        assert!(DatamaranConfig::default()
            .with_max_line_span(0)
            .validate()
            .is_err());
        assert!(DatamaranConfig::default()
            .with_prune_keep(0)
            .validate()
            .is_err());
        assert!(DatamaranConfig::default()
            .with_sample_bytes(0)
            .validate()
            .is_err());
        let c = DatamaranConfig {
            special_chars: crate::chars::CharSet::from_chars(",".chars()),
            ..DatamaranConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_resolves_defaults_and_overrides() {
        let c = DatamaranConfig::builder()
            .alpha(0.2)
            .max_line_span(6)
            .beam_width(1)
            .matching_backend(MatchingBackend::Fused)
            .extraction_threads(2)
            .build()
            .unwrap();
        assert!((c.alpha - 0.2).abs() < 1e-9);
        assert_eq!(c.max_line_span, 6);
        assert_eq!(c.beam_width, 1);
        assert_eq!(c.matching_backend, MatchingBackend::Fused);
        assert_eq!(c.extraction_threads, 2);
        // Unset knobs resolve to the same values the lenient default carries (in a clean
        // environment both read the compiled defaults).
        assert_eq!(c.prune_keep, 50);
        assert_eq!(c.search, SearchStrategy::Exhaustive);
    }

    #[test]
    fn builder_rejects_invalid_thresholds() {
        assert!(DatamaranConfig::builder().alpha(0.0).build().is_err());
        assert!(DatamaranConfig::builder().alpha(f64::NAN).build().is_err());
        assert!(DatamaranConfig::builder().alpha(1.5).build().is_err());
        assert!(DatamaranConfig::builder().max_line_span(0).build().is_err());
        assert!(DatamaranConfig::builder().prune_keep(0).build().is_err());
        assert!(DatamaranConfig::builder().sample_bytes(0).build().is_err());
        assert!(DatamaranConfig::builder().beam_width(0).build().is_err());
        let err = DatamaranConfig::builder()
            .special_chars(crate::chars::CharSet::from_chars(",".chars()))
            .build()
            .unwrap_err();
        assert!(matches!(err, crate::error::Error::InvalidConfig(_)));
        // The exhaustive search enumerates 2^c subsets as `u64` masks: c = 63 is the widest.
        assert!(DatamaranConfig::builder()
            .max_exhaustive_chars(63)
            .build()
            .is_ok());
        for c in [64, usize::MAX] {
            let err = DatamaranConfig::builder()
                .max_exhaustive_chars(c)
                .build()
                .unwrap_err();
            assert!(err.to_string().contains("max_exhaustive_chars"), "{err}");
        }
    }

    #[test]
    fn strategy_names() {
        assert_eq!(SearchStrategy::Exhaustive.name(), "exhaustive");
        assert_eq!(SearchStrategy::Greedy.name(), "greedy");
    }

    #[test]
    fn evaluation_backend_defaults_and_builders() {
        assert_eq!(EvaluationBackend::default(), EvaluationBackend::Span);
        assert_eq!(EvaluationBackend::Span.name(), "span");
        let c = DatamaranConfig::default().with_evaluation_threads(2);
        assert_eq!(c.evaluation_backend, EvaluationBackend::Span);
        assert_eq!(c.evaluation_threads, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn matching_backend_defaults_and_builders() {
        assert_eq!(MatchingBackend::default(), MatchingBackend::Fused);
        assert_eq!(MatchingBackend::Fused.name(), "fused");
        let c = DatamaranConfig::builder()
            .matching_backend(MatchingBackend::Fused)
            .build()
            .unwrap();
        assert_eq!(c.matching_backend, MatchingBackend::Fused);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn extraction_backend_defaults_and_builders() {
        assert_eq!(ExtractionBackend::default(), ExtractionBackend::Span);
        assert_eq!(ExtractionBackend::Span.name(), "span");
        let c = DatamaranConfig::default().with_extraction_threads(3);
        assert_eq!(c.extraction_backend, ExtractionBackend::Span);
        assert_eq!(c.extraction_threads, 3);
        assert!(c.validate().is_ok());
    }
}
