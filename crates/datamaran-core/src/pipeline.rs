//! The end-to-end Datamaran pipeline (§4, Figure 9): sampling, generation, pruning,
//! evaluation with refinement, final extraction, and the iterated handling of interleaved
//! datasets with multiple record types (Appendix 9.1).

use crate::assimilation::prune;
use crate::config::DatamaranConfig;
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::extract::extract_records;
use crate::fieldtype::FieldType;
use crate::generation::{generate, Candidate};
use crate::intern::TemplateInterner;
use crate::mdl::{MdlScorer, RegularityScorer};
use crate::parser::{ParseResult, RecordMatch};
use crate::refine::{EvaluationMetrics, Refiner};
use crate::relational::{to_denormalized, to_relational, RelationalOutput, Table};
use crate::structure::StructureTemplate;
use std::time::{Duration, Instant};

/// Wall-clock timings of the pipeline steps (Table 3 of the paper).
#[derive(Clone, Debug, Default)]
pub struct StepTimings {
    /// Sampling (both search phases share one sample per iteration).
    pub sampling: Duration,
    /// Generation step across all iterations.
    pub generation: Duration,
    /// Pruning step across all iterations.
    pub pruning: Duration,
    /// Evaluation step (refinement + scoring) across all iterations.
    pub evaluation: Duration,
    /// Final extraction pass over the whole dataset.
    pub extraction: Duration,
}

impl StepTimings {
    /// Total time of the structure-identification phase (everything but extraction).
    pub fn structure_time(&self) -> Duration {
        self.sampling + self.generation + self.pruning + self.evaluation
    }

    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.structure_time() + self.extraction
    }
}

/// Search statistics accumulated across iterations.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Step timings.
    pub timings: StepTimings,
    /// Total candidates emitted by the generation step(s).
    pub candidates_generated: usize,
    /// Candidates surviving the pruning step(s).
    pub candidates_pruned: usize,
    /// Character sets enumerated by the generation step(s).
    pub charsets_enumerated: usize,
    /// Candidate records examined by the generation step(s).
    pub records_examined: usize,
    /// Bytes of sampled data the search ran on (the paper's `S_data`).
    pub sample_bytes: usize,
    /// Number of pipeline iterations (record types attempted).
    pub iterations: usize,
    /// Name of the extraction backend the final pass ran on (`span` or `legacy`).
    pub extraction_backend: String,
    /// Worker threads the final extraction pass was configured with (resolved; `>= 1`).
    pub extraction_threads: usize,
    /// Name of the evaluation backend the refinement loop ran on (`span` or `legacy`).
    pub evaluation_backend: String,
    /// Worker threads the per-candidate evaluation loop was configured with (resolved).
    pub evaluation_threads: usize,
    /// Evaluation-phase work breakdown (parse vs score time, memo hits) accumulated across
    /// all iterations.
    pub evaluation_metrics: EvaluationMetrics,
}

/// One extracted record type: its structure template and everything derived from it.
#[derive(Clone, Debug)]
pub struct ExtractedStructure {
    /// The refined structure template.
    pub template: StructureTemplate,
    /// Regularity score of the template on the sample it was selected from (lower = better).
    pub score: f64,
    /// Records of this type matched on the full dataset.
    pub records: Vec<RecordMatch>,
    /// Per-column data types inferred from the full extraction.
    pub column_types: Vec<FieldType>,
    /// Normalized relational output (root table + one table per array).
    pub relational: RelationalOutput,
    /// Denormalized single-table output.
    pub denormalized: Table,
    /// Fraction of the dataset's bytes covered by records of this type.
    pub coverage: f64,
}

/// The result of running Datamaran on a dataset.
#[derive(Clone, Debug)]
pub struct ExtractionResult {
    /// One entry per discovered record type, in discovery order.
    pub structures: Vec<ExtractedStructure>,
    /// Line indices (in the full dataset) that belong to no record.
    pub noise_lines: Vec<usize>,
    /// Fraction of the dataset's bytes left unexplained.
    pub noise_fraction: f64,
    /// Search statistics and step timings.
    pub stats: PipelineStats,
}

impl ExtractionResult {
    /// Total number of extracted records across all record types.
    pub fn record_count(&self) -> usize {
        self.structures.iter().map(|s| s.records.len()).sum()
    }

    /// The templates of all discovered record types.
    pub fn templates(&self) -> Vec<&StructureTemplate> {
        self.structures.iter().map(|s| &s.template).collect()
    }
}

/// The Datamaran structure-extraction engine.
///
/// ```
/// use datamaran_core::{Datamaran, DatamaranConfig};
///
/// let log = "[01:05] alice connected\n[02:11] bob connected\n";
/// let result = Datamaran::with_defaults().extract(log).unwrap();
/// assert_eq!(result.structures.len(), 1);
/// assert_eq!(result.structures[0].records.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Datamaran {
    config: DatamaranConfig,
}

impl Default for Datamaran {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl Datamaran {
    /// Creates an engine with a validated configuration.
    pub fn new(config: DatamaranConfig) -> Result<Self> {
        config.validate()?;
        Ok(Datamaran { config })
    }

    /// Creates an engine with the paper's default parameters.
    pub fn with_defaults() -> Self {
        Datamaran {
            config: DatamaranConfig::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DatamaranConfig {
        &self.config
    }

    /// Runs the full pipeline with the default MDL regularity score.
    pub fn extract(&self, text: &str) -> Result<ExtractionResult> {
        self.extract_with_scorer(text, &MdlScorer)
    }

    /// Runs the full pipeline with a caller-supplied regularity score function.
    pub fn extract_with_scorer<S: RegularityScorer>(
        &self,
        text: &str,
        scorer: &S,
    ) -> Result<ExtractionResult> {
        if text.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let full = Dataset::new(text);
        let mut stats = PipelineStats {
            extraction_backend: self.config.extraction_backend.name().to_string(),
            extraction_threads: crate::parallel::resolve_threads(self.config.extraction_threads),
            evaluation_backend: self.config.evaluation_backend.name().to_string(),
            evaluation_threads: crate::parallel::resolve_threads(self.config.evaluation_threads),
            ..Default::default()
        };

        // First iteration: the top `beam_width` refined templates over the whole dataset.
        stats.iterations += 1;
        let first = self.discover_ranked(text, scorer, &mut stats, self.config.beam_width)?;
        if first.is_empty() {
            return Err(Error::NoStructureFound);
        }

        // Each first-iteration template is continued greedily (the paper's iterated
        // generation-pruning-evaluation on the residual); complete solutions are then compared
        // with the set-level regularity score on a fixed sample.  A beam width of 1 reproduces
        // the paper's purely greedy behaviour.
        let solution_sample = full.sample(
            self.config.sample_bytes,
            self.config.sample_chunks,
            self.config.seed ^ 0x5107,
        );
        let mut best: Option<(Vec<(StructureTemplate, f64)>, f64)> = None;
        for seed_candidate in first {
            let solution = self.continue_greedy(&full, seed_candidate, scorer, &mut stats)?;
            let list: Vec<StructureTemplate> = solution.iter().map(|(t, _)| t.clone()).collect();
            let parse = extract_records(&solution_sample, &list, &self.config);
            let total = scorer.score_set(&solution_sample, &list, &parse);
            match &best {
                Some((_, best_total)) if total >= *best_total => {}
                _ => best = Some((solution, total)),
            }
        }
        let templates = best.expect("at least one branch").0;

        // Final extraction over the whole dataset with every discovered template, on the
        // configured extraction backend sharded across the configured worker threads.
        let started = Instant::now();
        let template_list: Vec<StructureTemplate> =
            templates.iter().map(|(t, _)| t.clone()).collect();
        let parse = extract_records(&full, &template_list, &self.config);
        let structures = self.build_structures(&full, &templates, &parse);
        stats.timings.extraction += started.elapsed();

        let noise_fraction = if full.is_empty() {
            0.0
        } else {
            parse.noise_bytes as f64 / full.len() as f64
        };
        Ok(ExtractionResult {
            structures,
            noise_lines: parse.noise_lines.clone(),
            noise_fraction,
            stats,
        })
    }

    /// Greedy continuation of the paper's iterated discovery, starting from one committed
    /// first-iteration template: repeatedly re-run discovery on the unexplained residual of
    /// the full dataset until nothing new reaches the coverage threshold.
    fn continue_greedy<S: RegularityScorer>(
        &self,
        full: &Dataset,
        initial: (StructureTemplate, f64),
        scorer: &S,
        stats: &mut PipelineStats,
    ) -> Result<Vec<(StructureTemplate, f64)>> {
        let mut templates = vec![initial];
        for _ in 1..self.config.max_record_types {
            let template_list: Vec<StructureTemplate> =
                templates.iter().map(|(t, _)| t.clone()).collect();
            let parse = extract_records(full, &template_list, &self.config);
            let runs = parse.noise_runs(full);
            let residual: String = runs.iter().map(|(s, e)| &full.text()[*s..*e]).collect();
            // Stop when the residual is too small to contain another α-covered record type
            // (Assumption 1 applies to the whole dataset).
            if residual.len() < (self.config.alpha * full.len() as f64) as usize
                || residual.len() < 64
            {
                break;
            }
            stats.iterations += 1;
            let mut found = self.discover_ranked(&residual, scorer, stats, 1)?;
            let Some(next) = found.pop() else { break };
            // Avoid re-adding a template already in the solution (would loop forever).
            if templates.iter().any(|(t, _)| *t == next.0) {
                break;
            }
            templates.push(next);
        }
        Ok(templates)
    }

    /// Runs one round of sampling → generation → pruning → evaluation over `text`,
    /// returning up to `k` best refined templates (best first), or an empty vector when
    /// nothing reaches the coverage threshold.
    fn discover_ranked<S: RegularityScorer>(
        &self,
        text: &str,
        scorer: &S,
        stats: &mut PipelineStats,
        k: usize,
    ) -> Result<Vec<(StructureTemplate, f64)>> {
        if text.is_empty() {
            return Ok(Vec::new());
        }
        let dataset = Dataset::new(text);

        let started = Instant::now();
        let sample = dataset.sample(
            self.config.sample_bytes,
            self.config.sample_chunks,
            self.config.seed,
        );
        stats.timings.sampling += started.elapsed();
        stats.sample_bytes += sample.len();

        let started = Instant::now();
        let generation = generate(&sample, &self.config);
        stats.timings.generation += started.elapsed();
        stats.candidates_generated += generation.candidates.len();
        stats.charsets_enumerated += generation.charsets_enumerated;
        stats.records_examined += generation.records_examined;
        if generation.candidates.is_empty() {
            return Ok(Vec::new());
        }

        let started = Instant::now();
        let pruned = prune(generation.candidates, self.config.prune_keep);
        stats.timings.pruning += started.elapsed();
        stats.candidates_pruned += pruned.kept.len();

        let started = Instant::now();
        let refiner = Refiner::with_config(&sample, scorer, &self.config);
        // The per-candidate refinement loop shards across scoped workers; results come back
        // in candidate order, so the ranked merge below is deterministic for any thread
        // count.  The ablation configuration can skip the §4.3 refinement techniques, in
        // which case candidates are only scored as-is.
        let templates: Vec<StructureTemplate> =
            pruned.kept.into_iter().map(|c| c.template).collect();
        let threads = crate::parallel::resolve_threads(self.config.evaluation_threads);
        let refined_all = refiner.refine_batch(templates, self.config.refine, threads);
        // Structural dedup by interned dense id: O(1) per candidate instead of comparing
        // against every ranked template tree.
        let mut seen = TemplateInterner::new();
        let mut ranked: Vec<(StructureTemplate, f64)> = Vec::new();
        for refined in refined_all {
            // A template that explains nothing on the sample is useless regardless of score.
            if refined.summary.record_count == 0 {
                continue;
            }
            // Require the refined template to still reach the coverage threshold on the
            // sample (Assumption 1).
            if refined.summary.record_coverage(sample.len()) < self.config.alpha {
                continue;
            }
            if seen.lookup(&refined.template).is_some() {
                continue;
            }
            seen.intern(refined.template.clone());
            ranked.push((refined.template, refined.score));
        }
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked.truncate(k.max(1));
        stats.evaluation_metrics.accumulate(&refiner.metrics());
        stats.timings.evaluation += started.elapsed();
        Ok(ranked)
    }

    /// Runs one round of discovery and returns the single best template (paper's greedy
    /// per-iteration choice).
    fn discover_one<S: RegularityScorer>(
        &self,
        text: &str,
        scorer: &S,
        stats: &mut PipelineStats,
    ) -> Result<Option<(StructureTemplate, f64)>> {
        Ok(self
            .discover_ranked(text, scorer, stats, 1)?
            .into_iter()
            .next())
    }

    /// Evaluates every pruned candidate and reports the best template per the scorer without
    /// running the final extraction.  Exposed for experiments (parameter-sensitivity studies
    /// evaluate whether the optimal template is found, Figure 16).
    pub fn discover_structure(&self, text: &str) -> Result<Option<(StructureTemplate, f64)>> {
        if text.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let mut stats = PipelineStats::default();
        self.discover_one(text, &MdlScorer, &mut stats)
    }

    /// Lists the candidates that survive generation + pruning on a sample of `text`
    /// (used by experiments that need the candidate pool, e.g. structural-complexity counts).
    pub fn candidate_pool(&self, text: &str) -> Result<Vec<Candidate>> {
        if text.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let dataset = Dataset::new(text);
        let sample = dataset.sample(
            self.config.sample_bytes,
            self.config.sample_chunks,
            self.config.seed,
        );
        let generation = generate(&sample, &self.config);
        Ok(prune(generation.candidates, self.config.prune_keep).kept)
    }

    /// Builds the per-record-type outputs from the final full-dataset parse.
    fn build_structures(
        &self,
        full: &Dataset,
        templates: &[(StructureTemplate, f64)],
        parse: &ParseResult,
    ) -> Vec<ExtractedStructure> {
        templates
            .iter()
            .enumerate()
            .map(|(idx, (template, score))| {
                let records: Vec<RecordMatch> = parse
                    .records
                    .iter()
                    .filter(|r| r.template_index == idx)
                    .cloned()
                    .collect();
                let record_refs: Vec<&RecordMatch> = records.iter().collect();
                let type_name = format!("type{idx}");
                let source = full.shared_text();
                let relational = to_relational(template, &source, &record_refs, &type_name);
                let denormalized = to_denormalized(template, &source, &record_refs, &type_name);
                let column_types = {
                    // Restrict the parse to this template's records for type inference.
                    let sub = ParseResult {
                        records: records.clone(),
                        ..Default::default()
                    };
                    let n = template.field_count();
                    sub.column_values(full, idx, n)
                        .iter()
                        .map(|vals| crate::fieldtype::infer(vals))
                        .collect()
                };
                let bytes: usize = records.iter().map(RecordMatch::byte_len).sum();
                ExtractedStructure {
                    template: template.clone(),
                    score: *score,
                    records,
                    column_types,
                    relational,
                    denormalized,
                    coverage: bytes as f64 / full.len().max(1) as f64,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchStrategy;

    fn web_log(n: usize) -> String {
        let mut s = String::new();
        for i in 0..n {
            s.push_str(&format!(
                "[{:02}:{:02}:{:02}] 192.168.{}.{} GET /page{}\n",
                i % 24,
                i % 60,
                (i * 7) % 60,
                i % 16,
                (i * 3) % 256,
                i % 9
            ));
        }
        s
    }

    #[test]
    fn extracts_single_line_records_end_to_end() {
        let result = Datamaran::with_defaults().extract(&web_log(150)).unwrap();
        assert_eq!(result.structures.len(), 1);
        let s = &result.structures[0];
        assert_eq!(s.records.len(), 150);
        assert!(s.coverage > 0.95, "coverage {}", s.coverage);
        // Hours/minutes/seconds and the IP octets must be separate integer columns.
        assert!(s.template.field_count() >= 6, "template {}", s.template);
        assert!(result.noise_fraction < 0.05);
    }

    #[test]
    fn extracts_multi_line_records() {
        let mut text = String::new();
        for i in 0..80 {
            text.push_str(&format!("REQ {i}\nuser=u{i};ms={}\n", i * 3));
        }
        let result = Datamaran::with_defaults().extract(&text).unwrap();
        assert_eq!(
            result.structures.len(),
            1,
            "templates: {:?}",
            result.templates()
        );
        let s = &result.structures[0];
        assert_eq!(s.records.len(), 80);
        assert!(s.template.min_line_span() >= 2, "template {}", s.template);
    }

    /// Deterministic bit-mixer used to make test workloads aperiodic (real interleaving and
    /// noise placement is random; a periodic pattern is legitimately a single composite
    /// record under MDL).
    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 32;
        x
    }

    #[test]
    fn tolerates_noise_blocks() {
        let mut text = String::new();
        let mut noise_count = 0usize;
        for i in 0..120u64 {
            text.push_str(&format!("{i},{},{}\n", i * 2, i % 5));
            if mix(i) % 17 < 2 {
                noise_count += 1;
                text.push_str(&format!(
                    "!! warn {} drift detected on sensor-{} reading {} !!\n",
                    mix(i * 3) % 97,
                    mix(i * 5) % 31,
                    mix(i * 7) % 1013
                ));
            }
        }
        let result = Datamaran::with_defaults().extract(&text).unwrap();
        // The primary structure must be the CSV record type, with every record found and
        // none of the warning lines absorbed into it.
        let s = &result.structures[0];
        assert_eq!(s.records.len(), 120, "template: {}", s.template);
        assert_eq!(s.template.field_count(), 3, "template: {}", s.template);
        assert!(noise_count > 0);
        // Warning lines are either reported as noise or extracted as a secondary structure;
        // they must never be merged into the CSV records.
        let secondary: usize = result.structures[1..].iter().map(|s| s.records.len()).sum();
        assert_eq!(result.noise_lines.len() + secondary, noise_count);
    }

    #[test]
    fn discovers_two_interleaved_record_types() {
        // Record types are randomly interspersed (Example 2 of the paper): no fixed period,
        // so no single composite template can explain the file.
        let mut text = String::new();
        for i in 0..150u64 {
            if mix(i) % 100 < 40 {
                text.push_str(&format!("EVT|{}|login|user{}\n", 1000 + i, i % 7));
            } else {
                text.push_str(&format!("[{:02}:{:02}] srv{} ok\n", i % 24, i % 60, i % 4));
            }
        }
        let result = Datamaran::with_defaults().extract(&text).unwrap();
        assert!(
            result.structures.len() >= 2,
            "expected two record types, got {:?}",
            result.templates()
        );
        let total: usize = result.record_count();
        assert!(total >= 140, "only {total} records extracted");
        // Every extracted record is a single line (no composite multi-line template).
        for s in &result.structures {
            for r in &s.records {
                assert_eq!(r.line_count(), 1, "template {}", s.template);
            }
        }
    }

    #[test]
    fn greedy_search_also_extracts() {
        let config = DatamaranConfig::default().with_search(SearchStrategy::Greedy);
        let result = Datamaran::new(config)
            .unwrap()
            .extract(&web_log(100))
            .unwrap();
        assert_eq!(result.structures[0].records.len(), 100);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(
            Datamaran::with_defaults().extract("").unwrap_err(),
            Error::EmptyDataset
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let config = DatamaranConfig::default().with_alpha(2.0);
        assert!(Datamaran::new(config).is_err());
    }

    #[test]
    fn extraction_backends_agree_end_to_end() {
        use crate::config::ExtractionBackend;
        let mut text = String::new();
        for i in 0..90u64 {
            if mix(i).is_multiple_of(5) {
                text.push_str(&format!("{i},{},{}\n", mix(i) % 40, mix(i * 3) % 9));
            } else {
                text.push_str(&format!("[{:02}:{:02}] host{} ok\n", i % 24, i % 60, i % 4));
            }
        }
        let span = Datamaran::with_defaults().extract(&text).unwrap();
        let legacy = Datamaran::new(
            DatamaranConfig::default().with_extraction_backend(ExtractionBackend::Legacy),
        )
        .unwrap()
        .extract(&text)
        .unwrap();
        assert_eq!(span.noise_lines, legacy.noise_lines);
        assert_eq!(span.structures.len(), legacy.structures.len());
        for (a, b) in span.structures.iter().zip(&legacy.structures) {
            assert_eq!(a.template, b.template);
            assert_eq!(a.relational, b.relational, "template {}", a.template);
            assert_eq!(a.denormalized, b.denormalized, "template {}", a.template);
        }
        assert_eq!(span.stats.extraction_backend, "span");
        assert_eq!(legacy.stats.extraction_backend, "legacy");
    }

    #[test]
    fn evaluation_backends_agree_end_to_end() {
        use crate::config::EvaluationBackend;
        let mut text = String::new();
        for i in 0..90u64 {
            if mix(i).is_multiple_of(5) {
                text.push_str(&format!("{i},{},{}\n", mix(i) % 40, mix(i * 3) % 9));
            } else {
                text.push_str(&format!("[{:02}:{:02}] host{} ok\n", i % 24, i % 60, i % 4));
            }
        }
        let span = Datamaran::with_defaults().extract(&text).unwrap();
        let legacy = Datamaran::new(
            DatamaranConfig::default().with_evaluation_backend(EvaluationBackend::Legacy),
        )
        .unwrap()
        .extract(&text)
        .unwrap();
        assert_eq!(span.noise_lines, legacy.noise_lines);
        assert_eq!(span.structures.len(), legacy.structures.len());
        for (a, b) in span.structures.iter().zip(&legacy.structures) {
            assert_eq!(a.template, b.template);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "template {}",
                a.template
            );
            assert_eq!(a.relational, b.relational, "template {}", a.template);
            assert_eq!(a.denormalized, b.denormalized, "template {}", a.template);
        }
        assert_eq!(span.stats.evaluation_backend, "span");
        assert_eq!(legacy.stats.evaluation_backend, "legacy");
        assert!(span.stats.evaluation_metrics.evaluations > 0);
        assert_eq!(legacy.stats.evaluation_metrics.memo_hits, 0);
    }

    #[test]
    fn stats_report_step_activity() {
        let result = Datamaran::with_defaults().extract(&web_log(60)).unwrap();
        assert!(result.stats.extraction_threads >= 1);
        assert!(result.stats.evaluation_threads >= 1);
        assert!(result.stats.evaluation_metrics.evaluations > 0);
        assert!(result.stats.candidates_generated > 0);
        assert!(result.stats.candidates_pruned > 0);
        assert!(result.stats.charsets_enumerated > 0);
        assert!(result.stats.records_examined > 0);
        assert!(result.stats.sample_bytes > 0);
        assert!(result.stats.iterations >= 1);
        assert!(result.stats.timings.total() >= result.stats.timings.extraction);
    }

    #[test]
    fn relational_output_has_one_row_per_record() {
        let result = Datamaran::with_defaults().extract(&web_log(40)).unwrap();
        let s = &result.structures[0];
        assert_eq!(s.relational.root().row_count(), 40);
        assert_eq!(s.denormalized.row_count(), 40);
    }

    #[test]
    fn candidate_pool_is_bounded_by_m() {
        let config = DatamaranConfig::default().with_prune_keep(5);
        let pool = Datamaran::new(config)
            .unwrap()
            .candidate_pool(&web_log(60))
            .unwrap();
        assert!(pool.len() <= 5);
        assert!(!pool.is_empty());
    }

    #[test]
    fn discover_structure_returns_best_template() {
        let found = Datamaran::with_defaults()
            .discover_structure(&web_log(60))
            .unwrap();
        let (template, score) = found.expect("structure expected");
        assert!(template.field_count() >= 6);
        assert!(score.is_finite());
    }
}
