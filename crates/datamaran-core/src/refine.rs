//! Structure refinement (§4.3): array unfolding, partial unfolding, and structure shifting —
//! running on the compiled span evaluation engine.
//!
//! The generation step always produces *minimal* structure templates, which is not always the
//! template an end-user wants: a CSV file is better described by the unfolded struct
//! `F,F,F\n` than by the folded array `(F,)*F\n`, and multi-line templates can come out
//! cyclically shifted.  The refinement pass revises the top-`M` templates during evaluation,
//! keeping a revision whenever it improves the regularity score (unfolding) or moves the
//! first occurrence earlier (shifting).
//!
//! Refinement is the evaluate-heavy part of the pipeline: every candidate spawns up to
//! `MAX_UNFOLD_ROUNDS × arrays × (1 + MAX_PARTIAL_PREFIX)` unfold variants plus one line-shift
//! variant per line, and each variant needs a sample parse and score.  The [`Refiner`] runs
//! every evaluation — a candidate's root, its unfold variants and its shift rotations —
//! through one step, on the compiled span engine **with delta evaluation**:
//!
//! 1. probe the template-score memo, one map from template to `(score, summary)`;
//! 2. compile the template once to its flat op table ([`crate::extract`]) and parse the
//!    sample *by delta* against its refinement parent ([`delta_parse`]: shared op ranges
//!    replay from the parent's recycled arenas with zero byte scanning, only the dirty
//!    region re-matches), or from scratch when there is no parent or no usable diff;
//! 3. score it with [`RegularityScorer::score_parts`], which re-aggregates only the columns
//!    the edit touched and reuses the parent's retained [`ScoreParts`] for the rest — unless
//!    the caller's summary test says no score is needed (a shift rotation that does not
//!    displace the incumbent);
//! 4. memoize it.
//!
//! The original behaviour — one tree-walking parse per variant scored by the owned-parse
//! formula [`RegularityScorer::score_set`], no memo — survives as the test reference
//! `refine_tree`; `tests/evaluation_equivalence.rs` proves both produce identical
//! `(template, score, summary)` triples.
//!
//! [`Refiner::refine_batch`] shards the per-candidate loop across scoped worker threads with
//! a deterministic merge (results in candidate order), mirroring the generation and
//! extraction engines; each worker owns the parent contexts of its own candidates, so the
//! delta engine adds no cross-thread state beyond the existing memo.  Each candidate counts
//! its work into one [`EvaluationMetrics`] and merges it into the refiner's total once.

use crate::config::DatamaranConfig;
use crate::dataset::Dataset;
use crate::extract::{
    compile, delta_parse, diff_compiled, parse_compiled_into, CompiledTemplate, SpanParse,
};
use crate::fxhash::FxHashMap;
use crate::mdl::{RegularityScorer, ScoreParts};
use crate::parallel::{chunk_bounds, effective_workers};
use crate::parser::{parse_dataset, ParseResult};
use crate::structure::{Node, StructureTemplate};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Maximum repetition count that full unfolding will expand to.
const MAX_UNFOLD_REPS: usize = 32;

/// Maximum prefix length generated by partial unfolding.
const MAX_PARTIAL_PREFIX: usize = 4;

/// Maximum number of unfold-improve iterations.
const MAX_UNFOLD_ROUNDS: usize = 4;

/// Aggregate statistics of one evaluation parse — everything the pipeline and the
/// refinement control flow need from a candidate's segmentation, without retaining the
/// parse itself (records, trees, or arenas).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ParseSummary {
    /// Number of matched records.
    pub record_count: usize,
    /// Total bytes covered by records.
    pub record_bytes: usize,
    /// Number of lines classified as noise.
    pub noise_line_count: usize,
    /// Total bytes covered by noise lines.
    pub noise_bytes: usize,
    /// First line of the first record (`usize::MAX` when nothing matched) — the quantity
    /// structure shifting minimizes (§4.3.2).
    pub first_record_line: usize,
}

impl ParseSummary {
    /// Fraction of the dataset's bytes covered by records.
    pub fn record_coverage(&self, dataset_len: usize) -> f64 {
        if dataset_len == 0 {
            0.0
        } else {
            self.record_bytes as f64 / dataset_len as f64
        }
    }
}

/// Counters of one [`Refiner`]'s work, split the way the evaluation phase spends its time:
/// parsing candidates, scoring their parses, memo hits that skipped both, and the
/// delta-evaluation telemetry (hit rates and dirty-column fractions) the pipeline report
/// surfaces.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvaluationMetrics {
    /// Total template evaluations requested (including memo hits).
    pub evaluations: usize,
    /// Evaluations answered from the template-score memo.
    pub memo_hits: usize,
    /// Wall-clock seconds spent parsing the sample with candidate templates.
    pub parse_seconds: f64,
    /// Wall-clock seconds spent computing regularity scores.
    pub score_seconds: f64,
    /// Variant evaluations parsed by delta against their refinement parent's arenas.
    pub delta_parses: usize,
    /// Span evaluations parsed from scratch (roots, unusable diffs, missing parents).
    pub delta_full_parses: usize,
    /// Parent records copy-forwarded across all delta parses (the delta-hit numerator).
    pub delta_records_reused: usize,
    /// Parent records considered across all delta parses (the delta-hit denominator).
    pub delta_records_total: usize,
    /// Evaluations whose score was computed incrementally (unchanged per-column
    /// aggregates reused from the parent's retained [`ScoreParts`]).
    pub delta_score_reuses: usize,
    /// Columns re-aggregated across delta-parsed evaluations (dirty-fraction numerator).
    pub delta_columns_dirty: usize,
    /// Total columns across delta-parsed evaluations (dirty-fraction denominator).
    pub delta_columns_total: usize,
}

impl EvaluationMetrics {
    /// Adds other counters into these: each candidate's into its refiner's total, and each
    /// refiner's into the pipeline's total across its discovery iterations.
    pub fn accumulate(&mut self, other: &EvaluationMetrics) {
        self.evaluations += other.evaluations;
        self.memo_hits += other.memo_hits;
        self.parse_seconds += other.parse_seconds;
        self.score_seconds += other.score_seconds;
        self.delta_parses += other.delta_parses;
        self.delta_full_parses += other.delta_full_parses;
        self.delta_records_reused += other.delta_records_reused;
        self.delta_records_total += other.delta_records_total;
        self.delta_score_reuses += other.delta_score_reuses;
        self.delta_columns_dirty += other.delta_columns_dirty;
        self.delta_columns_total += other.delta_columns_total;
    }

    /// Fraction of parent records copy-forwarded by delta parses (`0.0` when none ran).
    pub fn delta_record_reuse_rate(&self) -> f64 {
        if self.delta_records_total == 0 {
            0.0
        } else {
            self.delta_records_reused as f64 / self.delta_records_total as f64
        }
    }

    /// Fraction of columns re-aggregated by delta-parsed evaluations (`1.0` = nothing
    /// reused; `0.0` when no delta parse ran).
    pub fn dirty_column_fraction(&self) -> f64 {
        if self.delta_columns_total == 0 {
            0.0
        } else {
            self.delta_columns_dirty as f64 / self.delta_columns_total as f64
        }
    }
}

/// A refined template together with its score and the statistics of the parse that produced
/// the score.
#[derive(Clone, Debug)]
pub struct Refined {
    /// The (possibly revised) structure template.
    pub template: StructureTemplate,
    /// Its regularity score on the refinement dataset (lower is better).
    pub score: f64,
    /// Statistics of the segmentation used to compute the score.
    pub summary: ParseSummary,
}

/// The by-products of one parsed evaluation — compiled op table, sample parse and retained
/// per-column score aggregates — which are everything the delta engine needs once the
/// template becomes the refinement parent: the diff baseline and replay source, the
/// recycled arenas variants copy unchanged spans from, and the parts incremental scoring
/// reuses.  Shared read-only within one candidate's refinement; each sharded
/// [`Refiner::refine_batch`] worker owns the contexts of its own candidates.
struct ParentCtx {
    compiled: CompiledTemplate,
    parse: SpanParse,
    parts: Option<ScoreParts>,
}

/// One evaluation's outcome; `ctx` is `None` when the memo answered.
struct Evaluated {
    score: f64,
    summary: ParseSummary,
    ctx: Option<ParentCtx>,
}

/// [`ParseSummary`] of a span parse.
fn span_summary(parse: &SpanParse) -> ParseSummary {
    ParseSummary {
        record_count: parse.records.len(),
        record_bytes: parse.record_bytes,
        noise_line_count: parse.noise_lines.len(),
        noise_bytes: parse.noise_bytes,
        first_record_line: parse
            .records
            .first()
            .map(|r| r.line_span.0)
            .unwrap_or(usize::MAX),
    }
}

/// Refines structure templates against a (sampled) dataset using a regularity scorer.
pub struct Refiner<'a, S: RegularityScorer> {
    dataset: &'a Dataset,
    scorer: &'a S,
    max_line_span: usize,
    /// Template-score memo: the `(score, summary)` of every template scored so far.
    memo: Mutex<FxHashMap<StructureTemplate, (f64, ParseSummary)>>,
    /// Free list of span-parse arenas: candidate evaluation parses the same sample
    /// thousands of times, and recycling keeps the hot loop free of large allocations
    /// (the capacity of one sample parse carries over).  Owned by the refiner, so the
    /// memory is released when the refiner is dropped.
    parse_pool: Mutex<Vec<SpanParse>>,
    /// Work counters of the finished candidates; each merges its own once.
    metrics: Mutex<EvaluationMetrics>,
}

impl<'a, S: RegularityScorer> Refiner<'a, S> {
    /// Creates a refiner over `dataset` using `scorer`; `max_line_span` is the paper's `L`.
    pub fn new(dataset: &'a Dataset, scorer: &'a S, max_line_span: usize) -> Self {
        Refiner {
            dataset,
            scorer,
            max_line_span,
            memo: Mutex::default(),
            parse_pool: Mutex::default(),
            metrics: Mutex::default(),
        }
    }

    /// Creates a refiner honouring `config`'s span limit.
    pub fn with_config(dataset: &'a Dataset, scorer: &'a S, config: &DatamaranConfig) -> Self {
        Self::new(dataset, scorer, config.max_line_span)
    }

    /// Snapshot of the work counters accumulated so far (across all threads).
    pub fn metrics(&self) -> EvaluationMetrics {
        *self.metrics.lock().expect("metrics lock")
    }

    /// Pops a recycled arena (or a fresh one) from the refiner's pool.
    fn acquire_span_parse(&self) -> SpanParse {
        self.parse_pool
            .lock()
            .expect("parse pool lock")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a context's arena to the pool (bounded so pathological fan-out cannot
    /// hoard).
    fn recycle(&self, ctx: Option<ParentCtx>) {
        if let Some(ctx) = ctx {
            let mut pool = self.parse_pool.lock().expect("parse pool lock");
            if pool.len() < 8 {
                pool.push(ctx.parse);
            }
        }
    }

    /// The one evaluation step: memo probe → parse → score → memoize, counted into `m`.
    ///
    /// `parent` is the refinement parent `template` was derived from.  With it, the
    /// template parses by delta against the parent's arenas whenever [`diff_compiled`]
    /// yields a usable diff, and — when the delta stats prove the mapped columns unchanged
    /// — scores by reusing the parent's column aggregates (the same value either way: the
    /// bit-identity contract of [`RegularityScorer::score_parts`]).  Without it, or without
    /// a usable diff, the template is parsed and scored from scratch.  `wanted` sees the
    /// parse summary before the score is computed: a summary it rejects comes back as
    /// `None`, unscored and unmemoized (memo hits are tested the same way).
    fn evaluate_step(
        &self,
        template: &StructureTemplate,
        parent: Option<&ParentCtx>,
        wanted: impl Fn(&ParseSummary) -> bool,
        m: &mut EvaluationMetrics,
    ) -> Option<Evaluated> {
        m.evaluations += 1;
        let hit = self.memo.lock().expect("memo lock").get(template).copied();
        if let Some((score, summary)) = hit {
            m.memo_hits += 1;
            return wanted(&summary).then_some(Evaluated {
                score,
                summary,
                ctx: None,
            });
        }

        let started = Instant::now();
        let compiled = compile(template);
        let mut parse = self.acquire_span_parse();
        let diff = parent
            .and_then(|p| Some((p, diff_compiled(&p.compiled, &compiled)?)))
            .filter(|(_, diff)| diff.has_common());
        let delta = diff.is_some();
        // The parent's parts and the column-reuse map of incremental scoring, when the
        // delta stats prove the mapped columns unchanged.
        let mut reuse: Option<(&ScoreParts, Vec<Option<u32>>)> = None;
        match diff {
            Some((p, diff)) => {
                let stats = delta_parse(
                    self.dataset,
                    &p.compiled,
                    &p.parse,
                    &compiled,
                    &diff,
                    self.max_line_span,
                    &mut parse,
                );
                m.delta_parses += 1;
                m.delta_records_reused += stats.reused_records;
                m.delta_records_total += stats.parent_records;
                if let (Some(parts), true) = (&p.parts, stats.prefix_aligned()) {
                    let mut map =
                        diff.column_reuse(p.compiled.field_count(), compiled.field_count());
                    if !stats.suffix_aligned() && diff.suffix_columns > 0 {
                        let from = compiled.field_count() - diff.suffix_columns;
                        map[from..].fill(None);
                    }
                    reuse = Some((parts, map));
                }
            }
            None => {
                parse_compiled_into(self.dataset, &compiled, self.max_line_span, &mut parse);
                m.delta_full_parses += 1;
            }
        }
        m.parse_seconds += started.elapsed().as_secs_f64();
        let summary = span_summary(&parse);
        let mut ctx = ParentCtx {
            compiled,
            parse,
            parts: None,
        };
        if !wanted(&summary) {
            self.recycle(Some(ctx));
            return None;
        }

        let started = Instant::now();
        let columns = ctx.compiled.field_count();
        let (dataset, parse) = (self.dataset, &ctx.parse);
        let incremental = reuse.and_then(|(parts, map)| {
            let scored = self
                .scorer
                .score_parts(dataset, template, parse, Some((parts, &map)))?;
            Some((scored, map.iter().filter(|slot| slot.is_none()).count()))
        });
        if delta {
            m.delta_columns_dirty += incremental.as_ref().map_or(columns, |(_, dirty)| *dirty);
            m.delta_columns_total += columns;
        }
        m.delta_score_reuses += usize::from(incremental.is_some());
        let score = match incremental
            .map(|(scored, _)| scored)
            .or_else(|| self.scorer.score_parts(dataset, template, parse, None))
        {
            Some((score, parts)) => {
                ctx.parts = Some(parts);
                score
            }
            None => self.scorer.score(dataset, template, parse),
        };
        m.score_seconds += started.elapsed().as_secs_f64();
        // A concurrent insert of the same template wins harmlessly: evaluation is a pure
        // function of the template.
        self.memo
            .lock()
            .expect("memo lock")
            .insert(template.clone(), (score, summary));
        Some(Evaluated {
            score,
            summary,
            ctx: Some(ctx),
        })
    }

    /// Builds a parent context for a template whose evaluation was answered by the memo
    /// (no parse retained): one full parse, no score parts — children then parse by delta
    /// but score with the full pass, which is exact either way.  The parse is not an
    /// evaluation: only its time is counted.
    fn build_parent_ctx(
        &self,
        template: &StructureTemplate,
        m: &mut EvaluationMetrics,
    ) -> ParentCtx {
        let started = Instant::now();
        let compiled = compile(template);
        let mut parse = self.acquire_span_parse();
        parse_compiled_into(self.dataset, &compiled, self.max_line_span, &mut parse);
        m.parse_seconds += started.elapsed().as_secs_f64();
        ParentCtx {
            compiled,
            parse,
            parts: None,
        }
    }

    /// Applies array unfolding followed by structure shifting (Algorithm 2, `RefineST`).
    pub fn refine(&self, template: &StructureTemplate) -> Refined {
        self.candidate(template.clone(), true)
    }

    /// Scores a template without refining it.
    pub fn evaluate(&self, template: &StructureTemplate) -> Refined {
        self.candidate(template.clone(), false)
    }

    /// Refines (or only evaluates) one candidate, then merges its work counters into the
    /// refiner's total.
    fn candidate(&self, template: StructureTemplate, apply_refinement: bool) -> Refined {
        let mut m = EvaluationMetrics::default();
        let refined = self.refine_candidate(template, apply_refinement, &mut m);
        self.metrics.lock().expect("metrics lock").accumulate(&m);
        refined
    }

    /// Evaluates one candidate taken by value (the unchanged template moves into the
    /// result) and, with `apply_refinement`, refines it: every unfold variant is evaluated
    /// against the round's parent, with the same control flow and identical results as the
    /// tree reference `refine_tree`.
    fn refine_candidate(
        &self,
        template: StructureTemplate,
        apply_refinement: bool,
        m: &mut EvaluationMetrics,
    ) -> Refined {
        let root = self
            .evaluate_step(&template, None, |_| true, m)
            .expect("every summary is wanted");
        let mut best = Refined {
            template,
            score: root.score,
            summary: root.summary,
        };
        let mut parent = root.ctx;
        if !apply_refinement {
            self.recycle(parent);
            return best;
        }
        for _ in 0..MAX_UNFOLD_ROUNDS {
            if collect_array_paths(best.template.nodes()).is_empty() {
                break;
            }
            let parent_ctx = match parent.take() {
                Some(ctx) => ctx,
                None => self.build_parent_ctx(&best.template, m),
            };
            let counts = repetition_counts_span(&parent_ctx.parse, &best.template);
            let mut improved = false;
            let mut winner: Option<ParentCtx> = None;
            for candidate in unfold_candidates(&best.template, &counts) {
                let scored = self
                    .evaluate_step(&candidate, Some(&parent_ctx), |_| true, m)
                    .expect("every summary is wanted");
                if scored.score < best.score {
                    self.recycle(winner.take());
                    winner = scored.ctx;
                    best = Refined {
                        template: candidate,
                        score: scored.score,
                        summary: scored.summary,
                    };
                    improved = true;
                } else {
                    self.recycle(scored.ctx);
                }
            }
            if !improved {
                parent = Some(parent_ctx);
                break;
            }
            self.recycle(Some(parent_ctx));
            parent = winner;
        }
        self.shift(best, parent, m)
    }

    /// Structure shifting (§4.3.2): among all cyclic line-shifts of the template, pick the
    /// one whose first record occurrence is earliest (ties keep the current template),
    /// provided it still explains a comparable number of records.  Every rotation is
    /// evaluated against the incumbent, and only one that displaces it is scored: the
    /// selection reads the parse summary alone (scores of *selected* templates are identical
    /// either way).
    fn shift(
        &self,
        current: Refined,
        parent: Option<ParentCtx>,
        m: &mut EvaluationMetrics,
    ) -> Refined {
        let variants = shift_variants(&current.template);
        if variants.is_empty() {
            self.recycle(parent);
            return current;
        }
        let parent = match parent {
            Some(ctx) => ctx,
            None => self.build_parent_ctx(&current.template, m),
        };
        let records = current.summary.record_count.max(1);
        let mut best = current;
        for variant in variants {
            let first = best.summary.first_record_line;
            let displaces = |summary: &ParseSummary| {
                summary.record_count * 2 >= records && summary.first_record_line < first
            };
            if let Some(shifted) = self.evaluate_step(&variant, Some(&parent), displaces, m) {
                self.recycle(shifted.ctx);
                best = Refined {
                    template: variant,
                    score: shifted.score,
                    summary: shifted.summary,
                };
            }
        }
        self.recycle(Some(parent));
        best
    }

    /// Refines (or, with `apply_refinement == false`, merely evaluates) a batch of candidate
    /// templates, sharding the per-candidate loop across `threads` scoped workers.  Results
    /// come back in input order, and each candidate's refinement is a pure function of its
    /// template, so the output is identical for any thread count.
    pub fn refine_batch(
        &self,
        templates: Vec<StructureTemplate>,
        apply_refinement: bool,
        threads: usize,
    ) -> Vec<Refined> {
        let n = templates.len();
        let workers = effective_workers(threads, n, 1);
        if workers <= 1 {
            return templates
                .into_iter()
                .map(|t| self.candidate(t, apply_refinement))
                .collect();
        }
        // Split the owned vector at the chunk bounds so workers consume their templates by
        // value too (no per-candidate clone on the parallel path either).
        let bounds = chunk_bounds(n, workers);
        let mut rest = templates;
        let mut parts: Vec<Vec<StructureTemplate>> = Vec::with_capacity(bounds.len());
        for &(first, _) in bounds.iter().rev() {
            parts.push(rest.split_off(first));
        }
        parts.reverse();
        let chunks: Vec<Vec<Refined>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|part| {
                    scope.spawn(move || {
                        part.into_iter()
                            .map(|t| self.candidate(t, apply_refinement))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluation worker panicked"))
                .collect()
        });
        chunks.into_iter().flatten().collect()
    }
}

/// The test reference for the [`Refiner`]: the original evaluation of one candidate, with
/// one tree-walking parse ([`parse_dataset`]) per variant scored by the owned-parse formula
/// [`RegularityScorer::score_set`], no memo, and the same unfold and shift order.  For
/// [`MdlScorer`](crate::mdl::MdlScorer) that is the independent formula the arena scoring
/// passes must match bit for bit.  Returns the `(template, score, summary)` of
/// [`Refiner::refine`], or of [`Refiner::evaluate`] when `apply_refinement` is `false`;
/// `metrics` accumulates the evaluation count and the parse/score time split.
/// Kept only so the differential suites and the `reproduce -- evaluation` gate can compare
/// against it, never reached from the pipeline.
#[doc(hidden)]
pub fn refine_tree<S: RegularityScorer>(
    dataset: &Dataset,
    scorer: &S,
    max_line_span: usize,
    template: StructureTemplate,
    apply_refinement: bool,
    metrics: &mut EvaluationMetrics,
) -> Refined {
    let mut eval = |t: &StructureTemplate| {
        metrics.evaluations += 1;
        let started = Instant::now();
        let parse = parse_dataset(dataset, std::slice::from_ref(t), max_line_span);
        metrics.parse_seconds += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let score = scorer.score_set(dataset, std::slice::from_ref(t), &parse);
        metrics.score_seconds += started.elapsed().as_secs_f64();
        let summary = ParseSummary {
            record_count: parse.records.len(),
            record_bytes: parse.record_bytes,
            noise_line_count: parse.noise_lines.len(),
            noise_bytes: parse.noise_bytes,
            first_record_line: parse.records.first().map_or(usize::MAX, |r| r.line_span.0),
        };
        (score, summary, parse)
    };
    let (score, summary, mut parse) = eval(&template);
    let mut best = Refined {
        template,
        score,
        summary,
    };
    if !apply_refinement {
        return best;
    }
    for _ in 0..MAX_UNFOLD_ROUNDS {
        if collect_array_paths(best.template.nodes()).is_empty() {
            break;
        }
        let counts = repetition_counts(&parse, &best.template);
        let mut improved = false;
        for candidate in unfold_candidates(&best.template, &counts) {
            let (score, summary, candidate_parse) = eval(&candidate);
            if score < best.score {
                best = Refined {
                    template: candidate,
                    score,
                    summary,
                };
                parse = candidate_parse;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let records = best.summary.record_count;
    for variant in shift_variants(&best.template) {
        let (score, summary, _) = eval(&variant);
        if summary.record_count * 2 >= records.max(1)
            && summary.first_record_line < best.summary.first_record_line
        {
            best = Refined {
                template: variant,
                score,
                summary,
            };
        }
    }
    best
}

/// Generates the unfold candidates (full and partial) of every array in `template` —
/// shared by the [`Refiner`] and `refine_tree` (same candidates in the same order, the
/// equivalence the differential suite relies on).
fn unfold_candidates(
    template: &StructureTemplate,
    counts: &HashMap<usize, Vec<usize>>,
) -> Vec<StructureTemplate> {
    let paths = collect_array_paths(template.nodes());
    if paths.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (array_id, path) in paths.iter().enumerate() {
        let observed = counts.get(&array_id).cloned().unwrap_or_default();
        if observed.is_empty() {
            continue;
        }
        // Most common repetition count.
        let mut freq: HashMap<usize, usize> = HashMap::new();
        for c in &observed {
            *freq.entry(*c).or_insert(0) += 1;
        }
        let (&mode, _) = freq
            .iter()
            .max_by_key(|(count, occ)| (**occ, usize::MAX - **count))
            .expect("non-empty");
        // Full unfolding to the modal repetition count.
        if (1..=MAX_UNFOLD_REPS).contains(&mode) {
            out.extend(unfold_at(template, path, mode, false));
        }
        // Partial unfolding: expand a short prefix, keep the array suffix.
        let max_prefix = MAX_PARTIAL_PREFIX.min(mode.saturating_sub(1));
        for prefix in 1..=max_prefix {
            out.extend(unfold_at(template, path, prefix, true));
        }
    }
    out
}

/// Collects pre-order paths to every array node: path `i` belongs to array id `i` (the
/// static pre-order numbering of [`repetition_counts`] and of the normalized tables).
pub fn collect_array_paths(nodes: &[Node]) -> Vec<Vec<usize>> {
    fn walk(nodes: &[Node], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        for (i, n) in nodes.iter().enumerate() {
            if let Node::Array { body, .. } = n {
                prefix.push(i);
                out.push(prefix.clone());
                walk(body, prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    walk(nodes, &mut Vec::new(), &mut out);
    out
}

/// Gathers, per array id, the observed repetition counts across all records of an owned
/// parse with `template` — identical to [`repetition_counts_span`] on the span parse.
pub fn repetition_counts(
    parse: &ParseResult,
    template: &StructureTemplate,
) -> HashMap<usize, Vec<usize>> {
    collect_repetition_counts(template, parse.records.iter().map(|r| r.reps.as_slice()))
}

/// Gathers, per array id, the observed repetition counts across all records of a span parse
/// with `template`, read straight from the repetition-count arena.
pub fn repetition_counts_span(
    parse: &SpanParse,
    template: &StructureTemplate,
) -> HashMap<usize, Vec<usize>> {
    collect_repetition_counts(template, parse.records.iter().map(|r| parse.record_reps(r)))
}

/// Replays the template shape over each record's pre-order repetition counts.  Every
/// repetition numbers its inner arrays from the same base, so the ids are the template's
/// static pre-order array numbering ([`collect_array_paths`]).
fn collect_repetition_counts<'a>(
    template: &StructureTemplate,
    records: impl Iterator<Item = &'a [u32]>,
) -> HashMap<usize, Vec<usize>> {
    fn walk(
        nodes: &[Node],
        reps: &mut std::slice::Iter<'_, u32>,
        array_id: &mut usize,
        out: &mut HashMap<usize, Vec<usize>>,
    ) {
        for node in nodes {
            if let Node::Array { body, .. } = node {
                let my_id = *array_id;
                *array_id += 1;
                let count = *reps.next().expect("rep stream matches template shape") as usize;
                out.entry(my_id).or_default().push(count);
                for _ in 0..count {
                    let mut inner_id = *array_id;
                    walk(body, reps, &mut inner_id, out);
                }
                *array_id += body.iter().map(Node::array_count).sum::<usize>();
            }
        }
    }
    let mut out = HashMap::new();
    for reps in records {
        let mut reps = reps.iter();
        walk(template.nodes(), &mut reps, &mut 0, &mut out);
        debug_assert!(reps.next().is_none(), "all repetition counts consumed");
    }
    out
}

/// Rebuilds the template with the array at `path` unfolded.
///
/// * `partial == false`: the array is replaced by `reps` copies of its body separated by the
///   separator character, followed by the terminator (Figure 12(a), top-to-bottom).
/// * `partial == true`: `reps` copies of `body + separator` are emitted and the original array
///   is kept as the suffix (partial unfolding).
pub fn unfold_at(
    template: &StructureTemplate,
    path: &[usize],
    reps: usize,
    partial: bool,
) -> Option<StructureTemplate> {
    fn rebuild(nodes: &[Node], path: &[usize], reps: usize, partial: bool) -> Option<Vec<Node>> {
        let (head, rest) = path.split_first()?;
        let mut out = Vec::with_capacity(nodes.len() + 4);
        for (i, n) in nodes.iter().enumerate() {
            if i != *head {
                out.push(n.clone());
                continue;
            }
            let Node::Array {
                body,
                separator,
                terminator,
            } = n
            else {
                return None;
            };
            if rest.is_empty() {
                let mut expansion = Vec::new();
                if partial {
                    for _ in 0..reps {
                        expansion.extend(body.iter().cloned());
                        expansion.push(Node::Literal(separator.to_string()));
                    }
                    expansion.push(Node::Array {
                        body: body.clone(),
                        separator: *separator,
                        terminator: *terminator,
                    });
                } else {
                    for r in 0..reps {
                        expansion.extend(body.iter().cloned());
                        let c = if r + 1 == reps {
                            *terminator
                        } else {
                            *separator
                        };
                        expansion.push(Node::Literal(c.to_string()));
                    }
                }
                out.extend(merge_literals(expansion));
            } else {
                let new_body = rebuild(body, rest, reps, partial)?;
                out.push(Node::Array {
                    body: new_body,
                    separator: *separator,
                    terminator: *terminator,
                });
            }
        }
        Some(out)
    }
    rebuild(template.nodes(), path, reps, partial)
        .map(|nodes| StructureTemplate::new(merge_literals(nodes)))
}

/// Merges adjacent literal nodes (keeps the canonical template form tidy).
fn merge_literals(nodes: Vec<Node>) -> Vec<Node> {
    let mut out: Vec<Node> = Vec::with_capacity(nodes.len());
    for n in nodes {
        match (out.last_mut(), n) {
            (Some(Node::Literal(prev)), Node::Literal(next)) => prev.push_str(&next),
            (_, n) => out.push(n),
        }
    }
    out
}

/// Generates the cyclic line-shift variants of a template (§4.3.2).
///
/// The top-level node sequence is split at every `\n` inside literal nodes; each rotation
/// moves one or more whole lines from the front of the template to its back.  Templates
/// spanning a single line (or containing arrays that span line boundaries) yield no variants.
pub fn shift_variants(template: &StructureTemplate) -> Vec<StructureTemplate> {
    // Split top-level literals after every '\n'.
    let mut pieces: Vec<Node> = Vec::new();
    for n in template.nodes() {
        match n {
            Node::Literal(s) if s.contains('\n') => {
                let mut current = String::new();
                for c in s.chars() {
                    current.push(c);
                    if c == '\n' {
                        pieces.push(Node::Literal(std::mem::take(&mut current)));
                    }
                }
                if !current.is_empty() {
                    pieces.push(Node::Literal(current));
                }
            }
            other => pieces.push(other.clone()),
        }
    }

    // Line boundaries: indices (exclusive) after a literal ending with '\n'.
    let boundaries: Vec<usize> = pieces
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match n {
            Node::Literal(s) if s.ends_with('\n') => Some(i + 1),
            _ => None,
        })
        .collect();
    // Need at least two line boundaries (a multi-line template) and the template must end on
    // a line boundary for rotations to stay newline-terminated.
    if boundaries.len() < 2 || *boundaries.last().unwrap() != pieces.len() {
        return Vec::new();
    }

    let mut variants = Vec::new();
    for &cut in &boundaries[..boundaries.len() - 1] {
        let mut rotated: Vec<Node> = Vec::with_capacity(pieces.len());
        rotated.extend(pieces[cut..].iter().cloned());
        rotated.extend(pieces[..cut].iter().cloned());
        variants.push(StructureTemplate::new(merge_literals(rotated)));
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::CharSet;
    use crate::extract::SpanLineMatcher;
    use crate::mdl::MdlScorer;
    use crate::record::RecordTemplate;
    use crate::reduce::reduce;

    fn flat(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
    }

    fn folded(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        reduce(&RecordTemplate::from_instantiated(example, &cs))
    }

    fn csv_dataset(rows: usize, cols: usize) -> Dataset {
        let mut s = String::new();
        for i in 0..rows {
            let vals: Vec<String> = (0..cols).map(|c| format!("{}", i * 10 + c)).collect();
            s.push_str(&vals.join(","));
            s.push('\n');
        }
        Dataset::new(s)
    }

    #[test]
    fn array_unfolding_recovers_struct_template_for_csv() {
        let data = csv_dataset(60, 4);
        let scorer = MdlScorer;
        let refiner = Refiner::new(&data, &scorer, 10);
        let array_t = folded("1,2,3,4\n", ",\n");
        assert!(array_t.has_array());
        let refined = refiner.refine(&array_t);
        assert!(!refined.template.has_array(), "got {}", refined.template);
        assert_eq!(refined.template.field_count(), 4);
        assert_eq!(refined.summary.record_count, 60);
    }

    #[test]
    fn partial_unfolding_handles_free_text_suffix() {
        // First three fields are regular, the rest is free text of varying length
        // (the syslog example of §4.3.1).
        let mut s = String::new();
        let words = [
            "snort shutdown succeeded",
            "yum update run",
            "disabling nightly cron job now",
        ];
        for i in 0..90 {
            s.push_str(&format!("host{} 2016 {} {}\n", i % 4, i % 28, words[i % 3]));
        }
        let data = Dataset::new(s);
        let scorer = MdlScorer;
        let refiner = Refiner::new(&data, &scorer, 10);
        let array_t = folded("a b c d e\n", " \n");
        let refined = refiner.refine(&array_t);
        // The refined template should score at least as well and keep matching everything.
        assert!(refined.score <= refiner.evaluate(&array_t).score);
        assert_eq!(refined.summary.record_count, 90);
    }

    #[test]
    fn unfold_at_full_expansion_builds_struct() {
        let array_t = folded("1,2,3\n", ",\n");
        let paths = collect_array_paths(array_t.nodes());
        assert_eq!(paths.len(), 1);
        let unfolded = unfold_at(&array_t, &paths[0], 3, false).unwrap();
        assert_eq!(unfolded.to_string(), "F,F,F\\n");
        assert!(!unfolded.has_array());
    }

    #[test]
    fn unfold_at_partial_keeps_array_suffix() {
        let array_t = folded("1,2,3\n", ",\n");
        let paths = collect_array_paths(array_t.nodes());
        let partial = unfold_at(&array_t, &paths[0], 2, true).unwrap();
        assert!(partial.has_array());
        assert!(partial.to_string().starts_with("F,F,"), "got {partial}");
    }

    #[test]
    fn shift_variants_rotate_multi_line_templates() {
        let t = flat("alpha: 1\nbeta: 2\n", ": \n");
        let variants = shift_variants(&t);
        assert_eq!(variants.len(), 1);
        assert_eq!(
            variants[0].to_string(),
            t.to_string(),
            "rotation of a symmetric 2-line template"
        );
        let t3 = flat("a: 1\nbb: 2 3\nc\n", ": \n");
        let v3 = shift_variants(&t3);
        assert_eq!(v3.len(), 2);
        for v in &v3 {
            assert_eq!(v.min_line_span(), 3);
        }
    }

    #[test]
    fn single_line_template_has_no_shift_variants() {
        let t = flat("a,b\n", ",\n");
        assert!(shift_variants(&t).is_empty());
    }

    #[test]
    fn shifting_recovers_record_alignment() {
        // Records are two lines: "HDR <i>\nval=<i>;st=ok\n".  The shifted template starts with
        // the value line; shifting should move back to the header-first variant because it
        // occurs earlier in the file (Figure 12(b)).
        let mut s = String::new();
        for i in 0..40 {
            s.push_str(&format!("HDR {i}\nval={i};st=ok\n"));
        }
        let data = Dataset::new(s);
        let scorer = MdlScorer;
        let refiner = Refiner::new(&data, &scorer, 10);
        let shifted = flat("val=5;st=ok\nHDR 6\n", "=; \n");
        // The cyclically shifted template starts matching only at line 1 and leaves two noise
        // lines; the rotated variant starts at line 0 and explains everything.
        let refined = refiner.refine(&shifted);
        assert_eq!(
            refined.summary.first_record_line, 0,
            "refined template: {}",
            refined.template
        );
        assert_eq!(refined.summary.record_count, 40);
        assert_eq!(refined.summary.noise_line_count, 0);
    }

    #[test]
    fn refine_without_arrays_is_a_no_op_on_score() {
        let data = csv_dataset(20, 3);
        let scorer = MdlScorer;
        let refiner = Refiner::new(&data, &scorer, 10);
        let t = flat("1,2,3\n", ",\n");
        let refined = refiner.refine(&t);
        assert_eq!(refined.template, t);
    }

    #[test]
    fn repetition_counts_are_collected_per_array() {
        let data = Dataset::new("1,2,3\n4,5\n6,7,8,9\n");
        let t = folded("1,2,3\n", ",\n");
        let parse = parse_dataset(&data, std::slice::from_ref(&t), 10);
        let counts = repetition_counts(&parse, &t);
        assert_eq!(counts.get(&0).unwrap(), &vec![3, 2, 4]);
    }

    #[test]
    fn span_repetition_counts_match_tree_walker() {
        for (text, template) in [
            ("1,2,3\n4,5\n6,7,8,9\n", folded("1,2,3\n", ",\n")),
            (
                "a|1\nb|2\nc|3\nd|4#\na|5\nb|6\nc|7\nd|8#\n",
                folded("a|1\nb|2\nc|3\nd|4#\n", "|#\n"),
            ),
            (
                "a,\"x,y,z\",b\nc,\"p,q\",d\n",
                folded("a,\"x,y,z\",b\n", ",\"\n"),
            ),
        ] {
            let data = Dataset::new(text);
            let templates = std::slice::from_ref(&template);
            let legacy = repetition_counts(&parse_dataset(&data, templates, 10), &template);
            let parse = SpanLineMatcher::new(templates, 10).parse(&data, 1);
            let span = repetition_counts_span(&parse, &template);
            assert_eq!(legacy, span, "template {template}");
        }
    }

    #[test]
    fn span_and_legacy_backends_agree_on_refinement() {
        let mut s = String::new();
        for i in 0..70 {
            s.push_str(&format!("{},{},{}\n", i, i * 3, i % 5));
            if i % 9 == 4 {
                s.push_str("!! noise interlude !!\n");
            }
        }
        let data = Dataset::new(s);
        let scorer = MdlScorer;
        let span = Refiner::new(&data, &scorer, 10);
        let mut metrics = EvaluationMetrics::default();
        for t in [
            folded("1,2,3\n", ",\n"),
            flat("1,2,3\n", ",\n"),
            folded("a b c d\n", " \n"),
        ] {
            for apply in [true, false] {
                let a = if apply {
                    span.refine(&t)
                } else {
                    span.evaluate(&t)
                };
                let b = refine_tree(&data, &scorer, 10, t.clone(), apply, &mut metrics);
                assert_eq!(a.template, b.template, "refined template of {t} ({apply})");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "score of {t} ({apply})"
                );
                assert_eq!(a.summary, b.summary, "summary of {t} ({apply})");
            }
        }
        assert!(metrics.evaluations > 6, "{metrics:?}");
        assert_eq!(metrics.memo_hits, 0);
    }

    #[test]
    fn delta_engine_reports_delta_telemetry() {
        let mut s = String::new();
        for i in 0..80 {
            s.push_str(&format!("h{} 10.0.{}.{} GET\n", i % 9, i % 20, i % 250));
        }
        let data = Dataset::new(s);
        let scorer = MdlScorer;
        let t = folded("h1 10.0.0.2 GET\n", ". \n");
        assert!(t.has_array());
        // Refining, the root parses from scratch and its four unfold variants by delta
        // against it.  Evaluating only (the `refine = false` ablation), the root is the one
        // evaluation, parsed from scratch.  The counts are exact, so a change in how much
        // work delta evaluation reuses shows here, apart from its timing.
        let refining = EvaluationMetrics {
            evaluations: 5,
            delta_parses: 4,
            delta_full_parses: 1,
            delta_records_reused: 80,
            delta_records_total: 320,
            delta_score_reuses: 4,
            delta_columns_dirty: 16,
            delta_columns_total: 21,
            ..EvaluationMetrics::default()
        };
        let evaluating = EvaluationMetrics {
            evaluations: 1,
            delta_full_parses: 1,
            ..EvaluationMetrics::default()
        };
        for (apply_refinement, expected) in [(true, refining), (false, evaluating)] {
            let refiner = Refiner::new(&data, &scorer, 10);
            let refined = refiner.refine_batch(vec![t.clone()], apply_refinement, 1);
            assert!(refined[0].score.is_finite());
            let m = refiner.metrics();
            let counters = EvaluationMetrics {
                parse_seconds: 0.0,
                score_seconds: 0.0,
                ..m
            };
            assert_eq!(counters, expected, "refine = {apply_refinement}: {m:?}");
        }
    }

    #[test]
    fn memo_answers_repeated_refinement() {
        let data = csv_dataset(40, 4);
        let scorer = MdlScorer;
        let refiner = Refiner::new(&data, &scorer, 10);
        let t = folded("1,2,3,4\n", ",\n");
        let first = refiner.refine(&t);
        let counters = |m: EvaluationMetrics| EvaluationMetrics {
            parse_seconds: 0.0,
            score_seconds: 0.0,
            ..m
        };
        let mut expected = counters(refiner.metrics());
        let second = refiner.refine(&t);
        assert_eq!(first.template, second.template);
        assert_eq!(first.score.to_bits(), second.score.to_bits());
        assert_eq!(first.summary, second.summary);
        // Re-refining re-derives the root and its four unfold variants, and the memo
        // answers all five: no delta or full parse, no score.
        expected.accumulate(&EvaluationMetrics {
            evaluations: 5,
            memo_hits: 5,
            ..EvaluationMetrics::default()
        });
        assert_eq!(counters(refiner.metrics()), expected);
    }

    #[test]
    fn memo_answers_repeated_evaluations() {
        let data = csv_dataset(30, 3);
        let scorer = MdlScorer;
        let refiner = Refiner::new(&data, &scorer, 10);
        let t = folded("1,2,3\n", ",\n");
        let first = refiner.evaluate(&t);
        let hits_before = refiner.metrics().memo_hits;
        let second = refiner.evaluate(&t);
        assert_eq!(first.score.to_bits(), second.score.to_bits());
        assert_eq!(first.summary, second.summary);
        assert_eq!(refiner.metrics().memo_hits, hits_before + 1);
        assert!(refiner.metrics().evaluations >= 2);
    }

    #[test]
    fn refine_batch_is_thread_count_invariant() {
        let data = csv_dataset(50, 4);
        let scorer = MdlScorer;
        let refiner = Refiner::new(&data, &scorer, 10);
        let templates = vec![
            folded("1,2,3,4\n", ",\n"),
            flat("1,2,3,4\n", ",\n"),
            folded("a b\n", " \n"),
        ];
        let sequential = refiner.refine_batch(templates.clone(), true, 1);
        for threads in [2, 3] {
            let fresh = Refiner::new(&data, &scorer, 10);
            let parallel = fresh.refine_batch(templates.clone(), true, threads);
            assert_eq!(sequential.len(), parallel.len());
            for (a, b) in sequential.iter().zip(&parallel) {
                assert_eq!(a.template, b.template, "{threads} threads");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{threads} threads");
                assert_eq!(a.summary, b.summary, "{threads} threads");
            }
        }
    }

    #[test]
    fn metrics_split_parse_and_score_time() {
        let data = csv_dataset(40, 3);
        let scorer = MdlScorer;
        let refiner = Refiner::new(&data, &scorer, 10);
        refiner.refine(&folded("1,2,3\n", ",\n"));
        let m = refiner.metrics();
        assert!(m.evaluations > 0);
        assert!(m.parse_seconds >= 0.0 && m.score_seconds >= 0.0);
    }
}
