//! The traced re-drive of `Datamaran::extract`: the same pipeline loop, rebuilt from the
//! engine's public steps so that each step can sit in its own span.
//!
//! It mirrors `Datamaran::extract_with_scorer` (`crates/datamaran-core/src/pipeline.rs`)
//! step for step — first-iteration beam, greedy continuation on the residual, set-level
//! choice on a fixed sample, final extraction and relational output — and the benchmark
//! checks that it reaches the same template set.  When the pipeline changes, this file
//! changes with it; the check says when it has not.

use crate::trace::Tracer;
use datamaran_core::assimilation::prune;
use datamaran_core::parallel::resolve_threads;
use datamaran_core::{
    extract_records, fieldtype, generate, to_denormalized, to_relational, DatamaranConfig, Dataset,
    EvaluationMetrics, FieldType, MdlScorer, ParseResult, RecordMatch, Refiner, RegularityScorer,
    StructureTemplate, TemplateInterner,
};
use std::cell::RefCell;
use std::hint::black_box;

/// Work counters of one re-drive.
#[derive(Clone, Debug, Default)]
pub struct RedriveStats {
    /// Discovery rounds run (the pipeline's `iterations`).
    pub iterations: usize,
    /// Candidates the generation step emitted.
    pub candidates: usize,
    /// Candidate records the generation step examined.
    pub records_examined: usize,
    /// Candidates kept by pruning.
    pub kept: usize,
    /// Evaluation counters of the refinement step.
    pub evaluation: EvaluationMetrics,
}

/// What a re-drive produced.
pub struct Redrive {
    /// The chosen templates, in match-priority order.
    pub templates: Vec<StructureTemplate>,
    /// Line indices left as noise by the final extraction.
    pub noise_lines: Vec<usize>,
    /// Records extracted by the final pass.
    pub records: usize,
    /// Work counters.
    pub stats: RedriveStats,
}

/// Runs the pipeline on `text`, one span per step; `None` when nothing reaches the
/// coverage threshold (the pipeline's `NoStructureFound`).
pub fn redrive(text: &str, config: &DatamaranConfig, tracer: &RefCell<Tracer>) -> Option<Redrive> {
    let run = Run {
        config,
        tracer,
        stats: RefCell::new(RedriveStats::default()),
    };
    let out = run.extract(text);
    out.map(|(templates, noise_lines, records)| Redrive {
        templates,
        noise_lines,
        records,
        stats: run.stats.into_inner(),
    })
}

struct Run<'a> {
    config: &'a DatamaranConfig,
    tracer: &'a RefCell<Tracer>,
    stats: RefCell<RedriveStats>,
}

impl Run<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.borrow_mut().open(name);
        let out = f();
        self.tracer.borrow_mut().close(id);
        out
    }

    fn extract(&self, text: &str) -> Option<(Vec<StructureTemplate>, Vec<usize>, usize)> {
        if text.is_empty() {
            return None;
        }
        let c = self.config;
        let full = Dataset::new(text);
        self.stats.borrow_mut().iterations += 1;
        let first = self.discover_ranked(text, c.beam_width);
        if first.is_empty() {
            return None;
        }
        let solution_sample = self.span("dataset.sample", || {
            full.sample(c.sample_bytes, c.sample_chunks, c.seed ^ 0x5107)
        });
        let mut best: Option<(Vec<StructureTemplate>, f64)> = None;
        for seed_candidate in first {
            let solution = self.continue_greedy(&full, seed_candidate);
            let parse = self.span("extract", || {
                extract_records(&solution_sample, &solution, c)
            });
            let total = self.span("refine", || {
                MdlScorer.score_set(&solution_sample, &solution, &parse)
            });
            match &best {
                Some((_, best_total)) if total >= *best_total => {}
                _ => best = Some((solution, total)),
            }
        }
        let templates = best.expect("the beam holds at least one candidate").0;
        let parse = self.span("extract", || extract_records(&full, &templates, c));
        self.span("relational", || build_structures(&full, &templates, &parse));
        Some((templates, parse.noise_lines.clone(), parse.records.len()))
    }

    fn continue_greedy(
        &self,
        full: &Dataset,
        initial: (StructureTemplate, f64),
    ) -> Vec<StructureTemplate> {
        let c = self.config;
        let mut templates = vec![initial.0];
        for _ in 1..c.max_record_types {
            let parse = self.span("extract", || extract_records(full, &templates, c));
            let runs = parse.noise_runs(full);
            let residual: String = runs.iter().map(|(s, e)| &full.text()[*s..*e]).collect();
            if residual.len() < (c.alpha * full.len() as f64) as usize || residual.len() < 64 {
                break;
            }
            self.stats.borrow_mut().iterations += 1;
            let mut found = self.discover_ranked(&residual, 1);
            let Some((next, _)) = found.pop() else { break };
            if templates.contains(&next) {
                break;
            }
            templates.push(next);
        }
        templates
    }

    fn discover_ranked(&self, text: &str, k: usize) -> Vec<(StructureTemplate, f64)> {
        if text.is_empty() {
            return Vec::new();
        }
        let c = self.config;
        let dataset = Dataset::new(text);
        let sample = self.span("dataset.sample", || {
            dataset.sample(c.sample_bytes, c.sample_chunks, c.seed)
        });
        let generation = self.span("generation", || generate(&sample, c));
        {
            let mut stats = self.stats.borrow_mut();
            stats.candidates += generation.candidates.len();
            stats.records_examined += generation.records_examined;
        }
        if generation.candidates.is_empty() {
            return Vec::new();
        }
        let pruned = self.span("assimilation", || {
            prune(generation.candidates, c.prune_keep)
        });
        self.stats.borrow_mut().kept += pruned.kept.len();
        self.span("refine", || {
            let refiner = Refiner::with_config(&sample, &MdlScorer, c);
            let templates: Vec<StructureTemplate> =
                pruned.kept.into_iter().map(|cand| cand.template).collect();
            let threads = resolve_threads(c.evaluation_threads);
            let refined_all = refiner.refine_batch(templates, c.refine, threads);
            let mut seen = TemplateInterner::new();
            let mut ranked: Vec<(StructureTemplate, f64)> = Vec::new();
            for refined in refined_all {
                if refined.summary.record_count == 0
                    || refined.summary.record_coverage(sample.len()) < c.alpha
                    || seen.lookup(&refined.template).is_some()
                {
                    continue;
                }
                seen.intern(refined.template.clone());
                ranked.push((refined.template, refined.score));
            }
            ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            ranked.truncate(k.max(1));
            self.stats
                .borrow_mut()
                .evaluation
                .accumulate(&refiner.metrics());
            ranked
        })
    }
}

/// The pipeline's per-record-type outputs: normalized and denormalized tables plus
/// column types (the benchmark only needs them computed).
fn build_structures(full: &Dataset, templates: &[StructureTemplate], parse: &ParseResult) {
    let source = full.shared_text();
    for (idx, template) in templates.iter().enumerate() {
        let records: Vec<RecordMatch> = parse
            .records
            .iter()
            .filter(|r| r.template_index == idx)
            .cloned()
            .collect();
        let refs: Vec<&RecordMatch> = records.iter().collect();
        let name = format!("type{idx}");
        black_box(to_relational(template, &source, &refs, &name));
        black_box(to_denormalized(template, &source, &refs, &name));
        let sub = ParseResult {
            records: records.clone(),
            ..Default::default()
        };
        let types: Vec<FieldType> = sub
            .column_values(full, idx, template.field_count())
            .iter()
            .map(|values| fieldtype::infer(values))
            .collect();
        black_box(types);
    }
}
