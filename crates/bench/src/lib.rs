//! Shared workload builders and measurement helpers for the benchmark harness that
//! regenerates the paper's tables and figures (see `src/bin/reproduce.rs` and `benches/`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use datamaran_core::{Datamaran, DatamaranConfig, SearchStrategy};
use logsynth::corpus;
use logsynth::DatasetSpec;
use std::time::Instant;

/// A scalable single-record-type workload (web access log) used for the running-time
/// experiments: `target_bytes` controls the generated size.
pub fn scalable_weblog(target_bytes: usize, seed: u64) -> String {
    // One record is roughly 55 bytes.
    let records = (target_bytes / 55).max(50);
    DatasetSpec::new(
        "scalable_weblog",
        vec![corpus::web_access(0)],
        records,
        seed,
    )
    .with_noise(0.02)
    .generate()
    .text
}

/// A workload whose *structural complexity* (number of structure templates with at least 10%
/// coverage) grows with `n_types`: `n_types` record types interleaved with equal weights.
pub fn interleaved_workload(n_types: usize, records: usize, seed: u64) -> String {
    let families: Vec<fn(u64) -> logsynth::RecordTypeSpec> = vec![
        corpus::web_access,
        corpus::kv_metrics,
        corpus::pipe_events,
        corpus::csv_transactions,
        corpus::query_log,
        corpus::app_log,
        corpus::printer_log,
        corpus::income_records,
    ];
    let types: Vec<logsynth::RecordTypeSpec> = (0..n_types.clamp(1, families.len()))
        .map(|i| families[i](i as u64))
        .collect();
    DatasetSpec::new(format!("interleaved_{n_types}"), types, records, seed)
        .generate()
        .text
}

/// Timing of one Datamaran run, split into the paper's phases (Table 3 / Figure 14a).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunTiming {
    /// Input size in bytes.
    pub bytes: usize,
    /// Generation step seconds.
    pub generation: f64,
    /// Pruning step seconds.
    pub pruning: f64,
    /// Evaluation step seconds.
    pub evaluation: f64,
    /// Final extraction seconds.
    pub extraction: f64,
    /// Total wall-clock seconds.
    pub total: f64,
    /// Number of record types found.
    pub structures: usize,
    /// Total records extracted.
    pub records: usize,
}

/// Runs Datamaran on `text` with `config` and reports per-step timings.
pub fn time_run(text: &str, config: &DatamaranConfig) -> RunTiming {
    let engine = Datamaran::new(config.clone()).expect("valid config");
    let started = Instant::now();
    let result = engine.extract(text).expect("extraction succeeds");
    let total = started.elapsed().as_secs_f64();
    let t = &result.stats.timings;
    RunTiming {
        bytes: text.len(),
        generation: t.generation.as_secs_f64(),
        pruning: t.pruning.as_secs_f64(),
        evaluation: t.evaluation.as_secs_f64(),
        extraction: t.extraction.as_secs_f64(),
        total,
        structures: result.structures.len(),
        records: result.record_count(),
    }
}

/// Convenience: the default configuration with a given search strategy.
pub fn config_with(search: SearchStrategy) -> DatamaranConfig {
    DatamaranConfig::default().with_search(search)
}

/// A scalable single-record-type workload whose candidate-character palette (6 characters
/// beyond `\n`) is small enough that the generation step's **exhaustive** search really
/// enumerates all `2^c` charsets instead of falling back to the greedy procedure.  Used by
/// the generation micro-benchmark, where exhaustive legacy-vs-spans is the comparison the
/// acceptance numbers are recorded against.
pub fn exhaustive_weblog(target_bytes: usize, seed: u64) -> String {
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 32)
    }
    const PAGES: [&str; 6] = ["index", "about", "cart", "login", "search", "api"];
    let mut out = String::with_capacity(target_bytes + 64);
    let mut i = seed;
    while out.len() < target_bytes {
        let h = mix(i);
        out.push_str(&format!(
            "[{:02}:{:02}:{:02}] 10.{}.{}.{} GET /{}/{}\n",
            h % 24,
            (h >> 8) % 60,
            (h >> 16) % 60,
            (h >> 24) % 256,
            (h >> 32) % 256,
            (h >> 40) % 256,
            PAGES[(h >> 48) as usize % PAGES.len()],
            mix(i ^ 0xABCD) % 1000,
        ));
        i += 1;
    }
    out
}

/// Outcome of the generation micro-benchmark comparing the span engine against the legacy
/// string-token reference (`generation::generate_legacy`) on the same sample (see
/// `reproduce -- generation` and `benches/generation.rs`).
#[derive(Clone, Debug)]
pub struct GenerationBench {
    /// Sample size in bytes.
    pub sample_bytes: usize,
    /// Sample line count.
    pub sample_lines: usize,
    /// Charsets enumerated per run (identical across backends).
    pub charsets_enumerated: usize,
    /// Candidate records examined per run (identical across backends).
    pub records_examined: usize,
    /// Candidates emitted (identical across backends).
    pub candidates: usize,
    /// Best wall-clock seconds of the legacy backend.
    pub legacy_secs: f64,
    /// Best wall-clock seconds of the span backend.
    pub spans_secs: f64,
    /// `true` when both backends emitted identical candidates and statistics.
    pub outputs_identical: bool,
}

impl GenerationBench {
    /// Candidate records examined per second, legacy backend.
    pub fn legacy_records_per_sec(&self) -> f64 {
        self.records_examined as f64 / self.legacy_secs
    }

    /// Candidate records examined per second, span backend.
    pub fn spans_records_per_sec(&self) -> f64 {
        self.records_examined as f64 / self.spans_secs
    }

    /// Wall-clock speedup of the span backend over the legacy backend.
    pub fn speedup(&self) -> f64 {
        self.legacy_secs / self.spans_secs
    }

    /// Serializes the result as the `BENCH_generation.json` document.
    pub fn to_json(&self) -> String {
        use datamaran_core::JsonValue;
        JsonValue::Object(vec![
            (
                "benchmark".into(),
                JsonValue::String("generation_exhaustive".into()),
            ),
            (
                "sample_bytes".into(),
                JsonValue::Number(self.sample_bytes as f64),
            ),
            (
                "sample_lines".into(),
                JsonValue::Number(self.sample_lines as f64),
            ),
            (
                "charsets_enumerated".into(),
                JsonValue::Number(self.charsets_enumerated as f64),
            ),
            (
                "records_examined".into(),
                JsonValue::Number(self.records_examined as f64),
            ),
            (
                "candidates".into(),
                JsonValue::Number(self.candidates as f64),
            ),
            (
                "legacy_wall_secs".into(),
                JsonValue::Number(self.legacy_secs),
            ),
            ("spans_wall_secs".into(), JsonValue::Number(self.spans_secs)),
            (
                "legacy_records_per_sec".into(),
                JsonValue::Number(self.legacy_records_per_sec()),
            ),
            (
                "spans_records_per_sec".into(),
                JsonValue::Number(self.spans_records_per_sec()),
            ),
            ("speedup".into(), JsonValue::Number(self.speedup())),
            ("generation_threads".into(), JsonValue::Number(1.0)),
            (
                "outputs_identical".into(),
                JsonValue::Bool(self.outputs_identical),
            ),
        ])
        .to_pretty()
    }
}

/// Runs the generation step on an `exhaustive_weblog` sample of `target_bytes` with the span
/// engine and the legacy reference (`runs` timed repetitions each, best run kept) and
/// cross-checks that they emit identical candidates.
pub fn generation_benchmark(target_bytes: usize, runs: usize) -> GenerationBench {
    use datamaran_core::generation::generate_legacy;
    use datamaran_core::{generate, Dataset, GenerationOutput};

    let text = exhaustive_weblog(target_bytes, 14);
    let data = Dataset::new(text);
    // Pinned to one worker thread: the recorded speedup measures the span/interning
    // algorithm, not host parallelism (the legacy reference has no parallel mode, so an
    // unpinned comparison would conflate the two).
    let config = DatamaranConfig::default().with_generation_threads(1);

    let legacy_out = generate_legacy(&data, &config);
    let spans_out = generate(&data, &config);
    let outputs_identical = legacy_out.candidates.len() == spans_out.candidates.len()
        && legacy_out.records_examined == spans_out.records_examined
        && legacy_out
            .candidates
            .iter()
            .zip(&spans_out.candidates)
            .all(|(a, b)| {
                a.template == b.template
                    && a.coverage == b.coverage
                    && a.field_coverage == b.field_coverage
                    && a.hits == b.hits
                    && a.charset == b.charset
            });

    let best_of = |run: fn(&Dataset, &DatamaranConfig) -> GenerationOutput| -> f64 {
        (0..runs.max(1))
            .map(|_| {
                let started = Instant::now();
                let out = run(&data, &config);
                assert!(!out.candidates.is_empty());
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };

    GenerationBench {
        sample_bytes: data.len(),
        sample_lines: data.line_count(),
        charsets_enumerated: spans_out.charsets_enumerated,
        records_examined: spans_out.records_examined,
        candidates: spans_out.candidates.len(),
        legacy_secs: best_of(generate_legacy),
        spans_secs: best_of(generate),
        outputs_identical,
    }
}

/// Outcome of the extraction micro-benchmark comparing the span instruction-table engine
/// against the legacy tree-walking parser on the same dataset and template (see
/// `reproduce -- extraction` and `benches/extraction.rs`).
#[derive(Clone, Debug)]
pub struct ExtractionBench {
    /// Dataset size in bytes.
    pub sample_bytes: usize,
    /// Dataset line count.
    pub sample_lines: usize,
    /// Records extracted per run (identical across backends).
    pub records: usize,
    /// Human-readable rendering of the benchmarked template.
    pub template: String,
    /// Best wall-clock seconds of the legacy tree walker.
    pub legacy_secs: f64,
    /// Best wall-clock seconds of the span engine (native flat-arena output).
    pub span_secs: f64,
    /// Best wall-clock seconds of the span engine including the copy of its arenas into an
    /// owned `ParseResult` (what the pipeline consumes).
    pub span_materialized_secs: f64,
    /// `true` when both backends produced byte-identical parses and relational tables.
    pub outputs_identical: bool,
}

impl ExtractionBench {
    /// Megabytes extracted per second, legacy backend.
    pub fn legacy_mb_per_sec(&self) -> f64 {
        self.sample_bytes as f64 / self.legacy_secs / (1024.0 * 1024.0)
    }

    /// Megabytes extracted per second, span backend.
    pub fn span_mb_per_sec(&self) -> f64 {
        self.sample_bytes as f64 / self.span_secs / (1024.0 * 1024.0)
    }

    /// Records extracted per second, legacy backend.
    pub fn legacy_records_per_sec(&self) -> f64 {
        self.records as f64 / self.legacy_secs
    }

    /// Records extracted per second, span backend.
    pub fn span_records_per_sec(&self) -> f64 {
        self.records as f64 / self.span_secs
    }

    /// Wall-clock speedup of the span engine over the tree walker.
    pub fn speedup(&self) -> f64 {
        self.legacy_secs / self.span_secs
    }

    /// Speedup including the copy into an owned `ParseResult`.
    pub fn speedup_materialized(&self) -> f64 {
        self.legacy_secs / self.span_materialized_secs
    }

    /// Serializes the result as the `BENCH_extraction.json` document.
    pub fn to_json(&self) -> String {
        use datamaran_core::JsonValue;
        JsonValue::Object(vec![
            (
                "benchmark".into(),
                JsonValue::String("extraction_ll1".into()),
            ),
            (
                "sample_bytes".into(),
                JsonValue::Number(self.sample_bytes as f64),
            ),
            (
                "sample_lines".into(),
                JsonValue::Number(self.sample_lines as f64),
            ),
            ("records".into(), JsonValue::Number(self.records as f64)),
            ("template".into(), JsonValue::String(self.template.clone())),
            (
                "legacy_wall_secs".into(),
                JsonValue::Number(self.legacy_secs),
            ),
            ("span_wall_secs".into(), JsonValue::Number(self.span_secs)),
            (
                "span_materialized_wall_secs".into(),
                JsonValue::Number(self.span_materialized_secs),
            ),
            (
                "legacy_records_per_sec".into(),
                JsonValue::Number(self.legacy_records_per_sec()),
            ),
            (
                "span_records_per_sec".into(),
                JsonValue::Number(self.span_records_per_sec()),
            ),
            (
                "legacy_mb_per_sec".into(),
                JsonValue::Number(self.legacy_mb_per_sec()),
            ),
            (
                "span_mb_per_sec".into(),
                JsonValue::Number(self.span_mb_per_sec()),
            ),
            ("speedup".into(), JsonValue::Number(self.speedup())),
            (
                "speedup_materialized".into(),
                JsonValue::Number(self.speedup_materialized()),
            ),
            ("extraction_threads".into(), JsonValue::Number(1.0)),
            (
                "outputs_identical".into(),
                JsonValue::Bool(self.outputs_identical),
            ),
        ])
        .to_pretty()
    }
}

/// Runs the final extraction pass on an `exhaustive_weblog` dataset of `target_bytes` with
/// both backends (`runs` timed repetitions each, best run kept, both pinned to one worker
/// thread) and cross-checks that they produce byte-identical parses and relational tables.
pub fn extraction_benchmark(target_bytes: usize, runs: usize) -> ExtractionBench {
    use datamaran_core::{
        parse_dataset, to_denormalized, to_relational, Dataset, RecordMatch, SpanLineMatcher, Table,
    };

    let text = exhaustive_weblog(target_bytes, 14);
    // Discover the template once with the paper-default engine (deterministic: fixed seed,
    // sample-bounded), then benchmark the pass the pipeline actually runs with it.
    let (template, _) = Datamaran::with_defaults()
        .discover_structure(&text)
        .expect("weblog has structure")
        .expect("a template is found");
    let templates = vec![template];
    let max_span = DatamaranConfig::default().max_line_span;
    let data = Dataset::new(text);

    // Correctness first: the parses and the relational conversions must agree exactly.
    let legacy = parse_dataset(&data, &templates, max_span);
    let span_parse = || SpanLineMatcher::new(&templates, max_span).parse(&data, 1);
    let span = span_parse().to_parse_result();
    let same_records = legacy == span;
    let as_refs = |parse: &[RecordMatch]| -> Vec<Table> {
        let refs: Vec<&RecordMatch> = parse.iter().collect();
        let source = data.shared_text();
        let mut tables = to_relational(&templates[0], &source, &refs, "bench").tables;
        tables.push(to_denormalized(&templates[0], &source, &refs, "bench"));
        tables
    };
    let outputs_identical = same_records && as_refs(&legacy.records) == as_refs(&span.records);

    let best_of = |f: &dyn Fn() -> usize| -> f64 {
        (0..runs.max(1))
            .map(|_| {
                let started = Instant::now();
                assert!(f() > 0);
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };

    ExtractionBench {
        sample_bytes: data.len(),
        sample_lines: data.line_count(),
        records: legacy.records.len(),
        template: templates[0].to_string(),
        legacy_secs: best_of(&|| parse_dataset(&data, &templates, max_span).records.len()),
        span_secs: best_of(&|| span_parse().records.len()),
        span_materialized_secs: best_of(&|| span_parse().to_parse_result().records.len()),
        outputs_identical,
    }
}

/// Outcome of the evaluation micro-benchmark comparing the span evaluation engine (compiled
/// refinement parses, delta evaluation, arena-native scoring, template-score memo) against
/// the per-candidate tree re-parse of the reference `refine::refine_tree` on the same
/// candidate pool (see `reproduce -- evaluation`).
#[derive(Clone, Debug)]
pub struct EvaluationBench {
    /// Dataset size in bytes (the sample the evaluation runs on is config-bounded).
    pub dataset_bytes: usize,
    /// Evaluation-sample size in bytes.
    pub sample_bytes: usize,
    /// Evaluation-sample line count.
    pub sample_lines: usize,
    /// Candidate templates refined (the post-pruning pool).
    pub candidates: usize,
    /// Template evaluations the span engine performed (including memo hits).
    pub span_evaluations: usize,
    /// Evaluations answered by the span engine's template-score memo.
    pub span_memo_hits: usize,
    /// Template evaluations the tree reference performed.
    pub legacy_evaluations: usize,
    /// Span-engine seconds spent parsing candidates (from the correctness run).
    pub span_parse_secs: f64,
    /// Span-engine seconds spent scoring parses (from the correctness run).
    pub span_score_secs: f64,
    /// Tree-reference seconds spent parsing candidates (from the correctness run).
    pub legacy_parse_secs: f64,
    /// Tree-reference seconds spent scoring parses (from the correctness run).
    pub legacy_score_secs: f64,
    /// Best wall-clock seconds of the tree reference.
    pub legacy_secs: f64,
    /// Best wall-clock seconds of the span engine (single worker thread; delta evaluation
    /// of refinement variants against their parents).
    pub span_secs: f64,
    /// Variant evaluations the delta engine parsed by delta (from the correctness run).
    pub delta_parses: usize,
    /// Fraction of parent records the delta engine copy-forwarded (delta-hit rate).
    pub delta_record_reuse: f64,
    /// Fraction of columns the delta engine re-aggregated (dirty-column fraction).
    pub dirty_column_fraction: f64,
    /// `true` when the engine and the tree reference produced identical refined
    /// `(template, score, summary)` lists.
    pub outputs_identical: bool,
}

impl EvaluationBench {
    /// Candidate templates refined per second, tree reference.
    pub fn legacy_candidates_per_sec(&self) -> f64 {
        self.candidates as f64 / self.legacy_secs
    }

    /// Candidate templates refined per second, span engine.
    pub fn span_candidates_per_sec(&self) -> f64 {
        self.candidates as f64 / self.span_secs
    }

    /// Wall-clock speedup of the span engine over the tree reference.
    pub fn speedup(&self) -> f64 {
        self.legacy_secs / self.span_secs
    }

    /// Serializes the result as the `BENCH_evaluation.json` document.
    pub fn to_json(&self) -> String {
        use datamaran_core::JsonValue;
        JsonValue::Object(vec![
            (
                "benchmark".into(),
                JsonValue::String("evaluation_refinement".into()),
            ),
            (
                "dataset_bytes".into(),
                JsonValue::Number(self.dataset_bytes as f64),
            ),
            (
                "sample_bytes".into(),
                JsonValue::Number(self.sample_bytes as f64),
            ),
            (
                "sample_lines".into(),
                JsonValue::Number(self.sample_lines as f64),
            ),
            (
                "candidates".into(),
                JsonValue::Number(self.candidates as f64),
            ),
            (
                "span_evaluations".into(),
                JsonValue::Number(self.span_evaluations as f64),
            ),
            (
                "span_memo_hits".into(),
                JsonValue::Number(self.span_memo_hits as f64),
            ),
            (
                "legacy_evaluations".into(),
                JsonValue::Number(self.legacy_evaluations as f64),
            ),
            (
                "span_parse_secs".into(),
                JsonValue::Number(self.span_parse_secs),
            ),
            (
                "span_score_secs".into(),
                JsonValue::Number(self.span_score_secs),
            ),
            (
                "legacy_parse_secs".into(),
                JsonValue::Number(self.legacy_parse_secs),
            ),
            (
                "legacy_score_secs".into(),
                JsonValue::Number(self.legacy_score_secs),
            ),
            (
                "legacy_wall_secs".into(),
                JsonValue::Number(self.legacy_secs),
            ),
            ("span_wall_secs".into(), JsonValue::Number(self.span_secs)),
            (
                "legacy_candidates_per_sec".into(),
                JsonValue::Number(self.legacy_candidates_per_sec()),
            ),
            (
                "span_candidates_per_sec".into(),
                JsonValue::Number(self.span_candidates_per_sec()),
            ),
            ("speedup".into(), JsonValue::Number(self.speedup())),
            (
                "delta_parses".into(),
                JsonValue::Number(self.delta_parses as f64),
            ),
            (
                "delta_record_reuse".into(),
                JsonValue::Number(self.delta_record_reuse),
            ),
            (
                "dirty_column_fraction".into(),
                JsonValue::Number(self.dirty_column_fraction),
            ),
            ("evaluation_threads".into(), JsonValue::Number(1.0)),
            (
                "outputs_identical".into(),
                JsonValue::Bool(self.outputs_identical),
            ),
        ])
        .to_pretty()
    }
}

/// Runs the evaluation step (refinement of the post-pruning candidate pool, exactly as the
/// pipeline's `discover_ranked` drives it) on an `exhaustive_weblog` dataset of
/// `target_bytes` with the span engine and the tree reference (`runs` timed repetitions
/// each, best run kept, the engine pinned to one worker thread and each timed run on a
/// fresh refiner so the memo starts cold) and cross-checks that they produce identical
/// refined outputs.
pub fn evaluation_benchmark(target_bytes: usize, runs: usize) -> EvaluationBench {
    use datamaran_core::refine::refine_tree;
    use datamaran_core::{
        assimilation::prune, generate, Dataset, EvaluationMetrics, MdlScorer, Refined, Refiner,
        StructureTemplate,
    };

    let text = exhaustive_weblog(target_bytes, 14);
    let full = Dataset::new(text);
    let config = DatamaranConfig::default();
    // The same sample the pipeline's first discovery round evaluates on.
    let sample = full.sample(config.sample_bytes, config.sample_chunks, config.seed);
    let generation = generate(&sample, &config);
    let pruned = prune(generation.candidates, config.prune_keep);
    let templates: Vec<StructureTemplate> = pruned.kept.into_iter().map(|c| c.template).collect();
    assert!(!templates.is_empty(), "weblog yields candidates");

    let scorer = MdlScorer;
    let refiner = || Refiner::new(&sample, &scorer, config.max_line_span);
    let run_tree = || {
        let mut metrics = EvaluationMetrics::default();
        let refined: Vec<Refined> = templates
            .iter()
            .map(|t| {
                refine_tree(
                    &sample,
                    &scorer,
                    config.max_line_span,
                    t.clone(),
                    true,
                    &mut metrics,
                )
            })
            .collect();
        (refined, metrics)
    };

    // Correctness first: identical refined templates, bit-identical scores, equal
    // summaries.
    let span = refiner();
    let span_out = span.refine_batch(templates.clone(), true, 1);
    let span_metrics = span.metrics();
    let (legacy_out, legacy_metrics) = run_tree();
    let outputs_identical = span_out.len() == legacy_out.len()
        && span_out.iter().zip(&legacy_out).all(|(a, b)| {
            a.template == b.template
                && a.score.to_bits() == b.score.to_bits()
                && a.summary == b.summary
        });

    let best_of = |timed_run: &dyn Fn() -> f64| -> f64 {
        (0..runs.max(1))
            .map(|_| timed_run())
            .fold(f64::INFINITY, f64::min)
    };
    let legacy_secs = best_of(&|| {
        let started = Instant::now();
        let (out, _) = run_tree();
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(out.len(), templates.len());
        secs
    });
    let span_secs = best_of(&|| {
        let span = refiner();
        let started = Instant::now();
        let out = span.refine_batch(templates.clone(), true, 1);
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(out.len(), templates.len());
        secs
    });

    EvaluationBench {
        dataset_bytes: full.len(),
        sample_bytes: sample.len(),
        sample_lines: sample.line_count(),
        candidates: templates.len(),
        span_evaluations: span_metrics.evaluations,
        span_memo_hits: span_metrics.memo_hits,
        legacy_evaluations: legacy_metrics.evaluations,
        span_parse_secs: span_metrics.parse_seconds,
        span_score_secs: span_metrics.score_seconds,
        legacy_parse_secs: legacy_metrics.parse_seconds,
        legacy_score_secs: legacy_metrics.score_seconds,
        legacy_secs,
        span_secs,
        delta_parses: span_metrics.delta_parses,
        delta_record_reuse: span_metrics.delta_record_reuse_rate(),
        dirty_column_fraction: span_metrics.dirty_column_fraction(),
        outputs_identical,
    }
}

/// Committed bound on the streaming extractor's peak resident window bytes with the
/// default [`StreamOptions`](datamaran_core::StreamOptions): the carry buffer (capacity)
/// plus the current window's dataset copy must stay under this for **any** input size.
/// The benchmark gate runs a 32 MiB synthetic input against it, proving the streaming
/// path is `O(window)`, not `O(file)`, in memory.  Default head is 256 KiB and the window
/// target 1 MiB; the bound leaves room for the carried tail, one long line of
/// over-read, and amortized `String` growth.
pub const STREAM_PEAK_WINDOW_BOUND: usize = 8 * 1024 * 1024;

/// Outcome of the streaming-export micro-benchmark comparing the bounded-memory streaming
/// path (chunked reader → span matcher → push-based CSV sink) against the in-memory path
/// (full-file extraction → materialized relational tables → CSV serialization) on the same
/// dataset and templates (see `reproduce -- streaming`).
#[derive(Clone, Debug)]
pub struct StreamingBench {
    /// Dataset size in bytes.
    pub dataset_bytes: usize,
    /// Dataset line count.
    pub dataset_lines: usize,
    /// Records extracted (identical across paths).
    pub records: usize,
    /// Total CSV bytes emitted (identical across paths).
    pub csv_bytes: usize,
    /// Streaming head size used (bytes).
    pub head_bytes: usize,
    /// Streaming window target used (bytes).
    pub window_bytes: usize,
    /// Chunk windows the streaming run processed.
    pub windows: usize,
    /// Peak resident window bytes observed by the streaming run.
    pub peak_window_bytes: usize,
    /// Best wall-clock seconds of the in-memory extract-and-export path.
    pub inmemory_secs: f64,
    /// Best wall-clock seconds of the streaming path.
    pub streaming_secs: f64,
    /// `true` when the streaming CSV bytes are identical to the materialized exporter's.
    pub outputs_identical: bool,
}

impl StreamingBench {
    /// Megabytes processed per second, in-memory path.
    pub fn inmemory_mb_per_sec(&self) -> f64 {
        self.dataset_bytes as f64 / self.inmemory_secs / (1024.0 * 1024.0)
    }

    /// Megabytes processed per second, streaming path.
    pub fn streaming_mb_per_sec(&self) -> f64 {
        self.dataset_bytes as f64 / self.streaming_secs / (1024.0 * 1024.0)
    }

    /// Wall-clock ratio of the in-memory path over the streaming path (measured in one
    /// run, so it transfers across machines; > 1 means streaming is faster).
    pub fn speedup(&self) -> f64 {
        self.inmemory_secs / self.streaming_secs
    }

    /// Serializes the result as the `BENCH_streaming.json` document.
    pub fn to_json(&self) -> String {
        use datamaran_core::JsonValue;
        JsonValue::Object(vec![
            (
                "benchmark".into(),
                JsonValue::String("streaming_export".into()),
            ),
            (
                "dataset_bytes".into(),
                JsonValue::Number(self.dataset_bytes as f64),
            ),
            (
                "dataset_lines".into(),
                JsonValue::Number(self.dataset_lines as f64),
            ),
            ("records".into(), JsonValue::Number(self.records as f64)),
            ("csv_bytes".into(), JsonValue::Number(self.csv_bytes as f64)),
            (
                "head_bytes".into(),
                JsonValue::Number(self.head_bytes as f64),
            ),
            (
                "window_bytes".into(),
                JsonValue::Number(self.window_bytes as f64),
            ),
            ("windows".into(), JsonValue::Number(self.windows as f64)),
            (
                "peak_window_bytes".into(),
                JsonValue::Number(self.peak_window_bytes as f64),
            ),
            (
                "peak_window_bound".into(),
                JsonValue::Number(STREAM_PEAK_WINDOW_BOUND as f64),
            ),
            (
                "inmemory_wall_secs".into(),
                JsonValue::Number(self.inmemory_secs),
            ),
            (
                "streaming_wall_secs".into(),
                JsonValue::Number(self.streaming_secs),
            ),
            (
                "inmemory_mb_per_sec".into(),
                JsonValue::Number(self.inmemory_mb_per_sec()),
            ),
            (
                "streaming_mb_per_sec".into(),
                JsonValue::Number(self.streaming_mb_per_sec()),
            ),
            ("speedup".into(), JsonValue::Number(self.speedup())),
            (
                "outputs_identical".into(),
                JsonValue::Bool(self.outputs_identical),
            ),
        ])
        .to_pretty()
    }
}

/// An `io::Write` sink that counts bytes and drops them (throughput runs).
#[derive(Default)]
struct ByteCount(usize);

impl std::io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the streaming export path and the in-memory export path on an `exhaustive_weblog`
/// dataset of `target_bytes` (`runs` timed repetitions each, best run kept) and
/// cross-checks that the streaming CSV sink emits byte-identical output to the
/// materialized exporter.  Both paths use the same templates (discovered once on the
/// stream head) and write the normalized relational tables as CSV.
pub fn streaming_benchmark(target_bytes: usize, runs: usize) -> StreamingBench {
    use datamaran_core::{
        extract_records, table_to_csv, to_relational, CsvSink, Dataset, RecordMatch, StreamOptions,
        StreamSession, StructureTemplate, Table,
    };
    use std::io::Cursor;

    let text = exhaustive_weblog(target_bytes, 14);
    let engine = Datamaran::with_defaults();
    let config = DatamaranConfig::default();
    let options = StreamOptions::default();

    // Correctness run: stream into in-memory writers and compare against the materialized
    // exporter on the same (head-discovered) templates.
    let mut sink = CsvSink::new(|_name: &str| Ok(Vec::<u8>::new()));
    let summary = StreamSession::new(&engine)
        .options(options)
        .run(Cursor::new(text.as_bytes()), &mut sink)
        .expect("streaming run succeeds");
    let streamed_tables = sink.into_writers();
    let templates: Vec<StructureTemplate> = summary.templates.clone();

    let data = Dataset::new(text.clone());
    let parse = extract_records(&data, &templates, &config);
    let source = data.shared_text();
    let materialized: Vec<Table> = templates
        .iter()
        .enumerate()
        .flat_map(|(idx, template)| {
            let records: Vec<&RecordMatch> = parse
                .records
                .iter()
                .filter(|r| r.template_index == idx)
                .collect();
            to_relational(template, &source, &records, &format!("type{idx}")).tables
        })
        .collect();
    let outputs_identical = parse.records.len() == summary.records
        && streamed_tables.len() == materialized.len()
        && streamed_tables
            .iter()
            .zip(&materialized)
            .all(|((name, bytes), table)| {
                *name == table.name && bytes.as_slice() == table_to_csv(table).as_bytes()
            });
    let csv_bytes: usize = streamed_tables.iter().map(|(_, b)| b.len()).sum();

    // Timed streaming runs: chunked reader -> span matcher -> CSV sink (bytes counted).
    // Templates are supplied, so the comparison is symmetric with the in-memory pass
    // (head discovery is a fixed per-stream cost gated by the other engine benchmarks).
    let best_streaming = (0..runs.max(1))
        .map(|_| {
            let mut sink = CsvSink::new(|_name: &str| Ok(ByteCount::default()));
            let started = Instant::now();
            let s = StreamSession::new(&engine)
                .options(options)
                .templates(templates.clone())
                .run(Cursor::new(text.as_bytes()), &mut sink)
                .expect("streaming run succeeds");
            assert_eq!(s.records, summary.records);
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    // Timed in-memory runs: full-file dataset + parse + materialized tables + CSV.
    let best_inmemory = (0..runs.max(1))
        .map(|_| {
            let started = Instant::now();
            let data = Dataset::new(text.clone());
            let parse = extract_records(&data, &templates, &config);
            let source = data.shared_text();
            let mut counter = ByteCount::default();
            for (idx, template) in templates.iter().enumerate() {
                let records: Vec<&RecordMatch> = parse
                    .records
                    .iter()
                    .filter(|r| r.template_index == idx)
                    .collect();
                for table in
                    to_relational(template, &source, &records, &format!("type{idx}")).tables
                {
                    use std::io::Write as _;
                    counter.write_all(table_to_csv(&table).as_bytes()).unwrap();
                }
            }
            assert_eq!(counter.0, csv_bytes);
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    StreamingBench {
        dataset_bytes: text.len(),
        dataset_lines: text.lines().count(),
        records: summary.records,
        csv_bytes,
        head_bytes: options.head_bytes,
        window_bytes: options.window_bytes,
        windows: summary.windows,
        peak_window_bytes: summary.peak_window_bytes,
        inmemory_secs: best_inmemory,
        streaming_secs: best_streaming,
        outputs_identical,
    }
}

// -------------------------------------------------------------------------------------------
// Fused multi-template matching benchmark (`reproduce -- matching`)
// -------------------------------------------------------------------------------------------

/// Outcome of the matching micro-benchmark comparing the fused multi-template matcher
/// (merged prefix-trie/DFA dispatch, batched) against trialing every template per record
/// start, on the same template sets (see `reproduce -- matching`).
#[derive(Clone, Debug)]
pub struct MatchingBench {
    /// Interleaved fixture size in bytes.
    pub multi_bytes: usize,
    /// Interleaved fixture line count.
    pub multi_lines: usize,
    /// Number of live templates in the interleaved fixture.
    pub multi_templates: usize,
    /// Records extracted from the interleaved fixture (identical across backends).
    pub multi_records: usize,
    /// Best wall-clock seconds, trial reference, interleaved fixture.
    pub multi_trial_secs: f64,
    /// Best wall-clock seconds, production (fused) matcher, interleaved fixture.
    pub multi_fused_secs: f64,
    /// Single-template parity corpus size in bytes.
    pub single_bytes: usize,
    /// Records extracted from the single-template corpus.
    pub single_records: usize,
    /// Best wall-clock seconds, trial reference, single template.
    pub single_trial_secs: f64,
    /// Best wall-clock seconds, production matcher (which compiles no DFA for one
    /// template and must therefore match the trial path), single template.
    pub single_fused_secs: f64,
    /// Live template count of the Thunderbird-clone set (after dedup; the LogHub-2.0
    /// annotation counts 1,241 distinct templates).
    pub tbird_templates: usize,
    /// Thunderbird-clone corpus size in bytes.
    pub tbird_bytes: usize,
    /// Records extracted from the Thunderbird-clone corpus.
    pub tbird_records: usize,
    /// Best wall-clock seconds, trial reference, Thunderbird-clone set.
    pub tbird_trial_secs: f64,
    /// Best wall-clock seconds, production (fused) matcher, Thunderbird-clone set.
    pub tbird_fused_secs: f64,
    /// DFA states of the fused Thunderbird-clone compilation (0 when not built).
    pub tbird_dfa_states: usize,
    /// `true` when the fused Thunderbird-clone DFA hit the state cap and degrades to
    /// trial dispatch beyond the explored prefix.
    pub tbird_overflowed: bool,
    /// `true` when the production matcher and the trial reference produced identical span
    /// arenas on every fixture.
    pub outputs_identical: bool,
}

impl MatchingBench {
    /// Fused-over-trial wall-clock speedup on the interleaved multi-template fixture —
    /// the primary gated ratio.
    pub fn speedup(&self) -> f64 {
        self.multi_trial_secs / self.multi_fused_secs
    }

    /// Fused-over-trial speedup with a single live template (parity check: the fused
    /// engine must not cost anything when there is nothing to fuse).
    pub fn single_template_speedup(&self) -> f64 {
        self.single_trial_secs / self.single_fused_secs
    }

    /// Fused-over-trial speedup on the 1,241-template Thunderbird clone.
    pub fn thunderbird_speedup(&self) -> f64 {
        self.tbird_trial_secs / self.tbird_fused_secs
    }

    /// Megabytes matched per second on the interleaved fixture, production (fused) matcher.
    pub fn fused_mb_per_sec(&self) -> f64 {
        self.multi_bytes as f64 / self.multi_fused_secs / (1024.0 * 1024.0)
    }

    /// Megabytes matched per second on the interleaved fixture, trial reference.
    pub fn trial_mb_per_sec(&self) -> f64 {
        self.multi_bytes as f64 / self.multi_trial_secs / (1024.0 * 1024.0)
    }

    /// Serializes the result as the `BENCH_matching.json` document.
    pub fn to_json(&self) -> String {
        use datamaran_core::JsonValue;
        JsonValue::Object(vec![
            (
                "benchmark".into(),
                JsonValue::String("fused_matching".into()),
            ),
            (
                "multi_bytes".into(),
                JsonValue::Number(self.multi_bytes as f64),
            ),
            (
                "multi_lines".into(),
                JsonValue::Number(self.multi_lines as f64),
            ),
            (
                "multi_templates".into(),
                JsonValue::Number(self.multi_templates as f64),
            ),
            (
                "multi_records".into(),
                JsonValue::Number(self.multi_records as f64),
            ),
            (
                "multi_trial_wall_secs".into(),
                JsonValue::Number(self.multi_trial_secs),
            ),
            (
                "multi_fused_wall_secs".into(),
                JsonValue::Number(self.multi_fused_secs),
            ),
            (
                "trial_mb_per_sec".into(),
                JsonValue::Number(self.trial_mb_per_sec()),
            ),
            (
                "fused_mb_per_sec".into(),
                JsonValue::Number(self.fused_mb_per_sec()),
            ),
            ("speedup".into(), JsonValue::Number(self.speedup())),
            (
                "single_bytes".into(),
                JsonValue::Number(self.single_bytes as f64),
            ),
            (
                "single_records".into(),
                JsonValue::Number(self.single_records as f64),
            ),
            (
                "single_trial_wall_secs".into(),
                JsonValue::Number(self.single_trial_secs),
            ),
            (
                "single_fused_wall_secs".into(),
                JsonValue::Number(self.single_fused_secs),
            ),
            (
                "single_template_speedup".into(),
                JsonValue::Number(self.single_template_speedup()),
            ),
            (
                "thunderbird_templates".into(),
                JsonValue::Number(self.tbird_templates as f64),
            ),
            (
                "thunderbird_bytes".into(),
                JsonValue::Number(self.tbird_bytes as f64),
            ),
            (
                "thunderbird_records".into(),
                JsonValue::Number(self.tbird_records as f64),
            ),
            (
                "thunderbird_trial_wall_secs".into(),
                JsonValue::Number(self.tbird_trial_secs),
            ),
            (
                "thunderbird_fused_wall_secs".into(),
                JsonValue::Number(self.tbird_fused_secs),
            ),
            (
                "thunderbird_speedup".into(),
                JsonValue::Number(self.thunderbird_speedup()),
            ),
            (
                "thunderbird_dfa_states".into(),
                JsonValue::Number(self.tbird_dfa_states as f64),
            ),
            (
                "thunderbird_overflowed".into(),
                JsonValue::Bool(self.tbird_overflowed),
            ),
            (
                "outputs_identical".into(),
                JsonValue::Bool(self.outputs_identical),
            ),
        ])
        .to_pretty()
    }
}

/// Splitmix-style hash used to derive deterministic field values for the matching
/// fixtures without any RNG state.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 32)
}

/// The ten record shapes of the interleaved matching fixture.  All shapes share a
/// syslog-style header (`Mon DD HH:MM:SS host proc[pid]: `) and a field-heavy message
/// body, and differ only in the punctuation joining the *last* two tokens — the
/// adversarial-but-realistic layout where trial matching scans almost the whole record
/// before a failing template is rejected, while the fused DFA walks the bytes once.
/// Field values are alphanumeric only, so every generated line of a shape matches the
/// template reduced from any other line of the same shape.
type ShapeGen = fn(u64) -> String;

/// Discriminator punctuation of shape `k`; also the only charset difference between
/// shapes.
const SHAPE_PUNCT: [char; 10] = ['=', '|', ',', ';', '.', '/', '+', '-', '&', '%'];

fn matching_line(k: usize, h: u64) -> String {
    format!(
        "Jun {} {:02}:{:02}:{:02} host{} proc{}[{}]: task t{} queue q{} worker w{} shard e{} ret r{}{}{}\n",
        1 + h % 28,
        h % 24,
        (h >> 6) % 60,
        (h >> 12) % 60,
        (h >> 18) % 12,
        (h >> 21) % 6,
        (h >> 24) % 32768,
        (h >> 8) % 1000,
        (h >> 16) % 100,
        (h >> 28) % 64,
        (h >> 34) % 256,
        (h >> 42) % 97,
        SHAPE_PUNCT[k % SHAPE_PUNCT.len()],
        (h >> 48) % 1000,
    )
}

fn matching_shapes() -> Vec<(String, ShapeGen)> {
    fn gen(k: usize) -> ShapeGen {
        // One monomorphic generator per shape so the table holds plain fn pointers.
        macro_rules! shape_fns {
            ($($idx:literal),*) => { [$(|h| matching_line($idx, h)),*] }
        }
        const GENS: [ShapeGen; 10] = shape_fns!(0, 1, 2, 3, 4, 5, 6, 7, 8, 9);
        GENS[k]
    }
    (0..SHAPE_PUNCT.len())
        .map(|k| (format!("[]: \n{}", SHAPE_PUNCT[k]), gen(k)))
        .collect()
}

/// Builds the interleaved matching fixture: `records` lines cycling through the first
/// `n_types` shapes, plus the structure template of every live shape (reduced from an
/// instantiated example of that shape).
pub fn matching_workload(
    n_types: usize,
    records: usize,
    seed: u64,
) -> (String, Vec<datamaran_core::StructureTemplate>) {
    use datamaran_core::{reduce, CharSet, RecordTemplate};
    let shapes = matching_shapes();
    let n = n_types.clamp(1, shapes.len());
    let templates = shapes[..n]
        .iter()
        .map(|(charset, gen)| {
            let example = gen(mix64(seed));
            reduce(&RecordTemplate::from_instantiated(
                &example,
                &CharSet::from_chars(charset.chars()),
            ))
        })
        .collect();
    let mut text = String::new();
    for i in 0..records {
        let h = mix64(seed ^ (i as u64).wrapping_mul(0x0100_0000_01B3));
        text.push_str(&shapes[i % n].1(h));
    }
    (text, templates)
}

/// Derives one structure template per record type of a synthesized LogHub-clone dataset
/// (reduced from the first generated instance of each type, default formatting charset),
/// deduplicated in first-appearance order.
pub fn loghub_template_set(
    dataset: &logsynth::GeneratedDataset,
) -> Vec<datamaran_core::StructureTemplate> {
    use datamaran_core::{default_special_chars, reduce, RecordTemplate, StructureTemplate};
    let charset = default_special_chars();
    let n_types = dataset.spec.record_types.len();
    let mut example: Vec<Option<(usize, usize)>> = vec![None; n_types];
    for r in &dataset.records {
        if example[r.type_index].is_none() {
            example[r.type_index] = Some((r.start, r.end));
        }
    }
    let mut templates: Vec<StructureTemplate> = Vec::new();
    for span in example.into_iter().flatten() {
        let st = reduce(&RecordTemplate::from_instantiated(
            &dataset.text[span.0..span.1],
            &charset,
        ));
        if !templates.contains(&st) {
            templates.push(st);
        }
    }
    templates
}

/// Times one matcher on one fixture: the matcher (and for the production matcher, the
/// merged DFA) is compiled once outside the loop — the object the pipeline reuses across
/// windows — and the batched match pass is what the clock sees.  Best of `runs`.
fn time_matching(
    dataset: &datamaran_core::Dataset,
    matcher: &datamaran_core::SpanLineMatcher,
    runs: usize,
) -> (f64, usize, usize, bool) {
    use datamaran_core::{SpanParse, SpanScratch};
    let mut out = SpanParse::default();
    let mut scratch = SpanScratch::default();
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let started = Instant::now();
        matcher.parse_into_with(dataset, &mut out, &mut scratch);
        best = best.min(started.elapsed().as_secs_f64());
    }
    (
        best,
        out.records.len(),
        scratch.fused_dfa_states(),
        scratch.fused_dfa_overflowed(),
    )
}

/// Checks the production matcher and the trial reference produce identical span arenas on
/// one fixture.
fn matching_outputs_identical(
    dataset: &datamaran_core::Dataset,
    templates: &[datamaran_core::StructureTemplate],
    max_line_span: usize,
) -> bool {
    use datamaran_core::SpanLineMatcher;
    let a = SpanLineMatcher::trial_reference(templates, max_line_span).parse(dataset, 1);
    let b = SpanLineMatcher::new(templates, max_line_span).parse(dataset, 1);
    a.records == b.records
        && a.cells == b.cells
        && a.reps == b.reps
        && a.noise_lines == b.noise_lines
        && a.record_bytes == b.record_bytes
        && a.noise_bytes == b.noise_bytes
}

/// Runs the fused-vs-trial matching benchmark: a 10-template interleaved fixture of
/// `multi_records` records (the gated ratio), a single-template parity corpus, and the
/// Thunderbird-clone template set (1,241 catalogued templates) on its own synthesized
/// corpus.  `runs` timed repetitions each, best kept; equivalence is asserted on every
/// fixture before timing.
pub fn matching_benchmark(
    multi_records: usize,
    tbird_scale_divisor: usize,
    runs: usize,
) -> MatchingBench {
    use datamaran_core::{Dataset, SpanLineMatcher};
    let max_line_span = DatamaranConfig::default().max_line_span;

    let (multi_text, multi_templates) = matching_workload(10, multi_records, 41);
    let multi = Dataset::new(multi_text);
    let (single_text, single_templates) = matching_workload(1, multi_records, 43);
    let single = Dataset::new(single_text);

    let tbird_entry = logsynth::loghub::catalog()
        .into_iter()
        .find(|e| e.name == "thunderbird")
        .expect("thunderbird is catalogued");
    let tbird_data = tbird_entry.spec(tbird_scale_divisor.max(1)).generate();
    let tbird_templates = loghub_template_set(&tbird_data);
    let tbird = Dataset::new(tbird_data.text);

    let outputs_identical = matching_outputs_identical(&multi, &multi_templates, max_line_span)
        && matching_outputs_identical(&single, &single_templates, max_line_span)
        && matching_outputs_identical(&tbird, &tbird_templates, max_line_span);

    // The trial reference and the production (fused) matcher on each fixture.
    let timed = |dataset: &Dataset, templates: &[datamaran_core::StructureTemplate]| {
        let trial = SpanLineMatcher::trial_reference(templates, max_line_span);
        let fused = SpanLineMatcher::new(templates, max_line_span);
        (
            time_matching(dataset, &trial, runs),
            time_matching(dataset, &fused, runs),
        )
    };

    let ((multi_trial_secs, multi_records_n, _, _), (multi_fused_secs, _, _, _)) =
        timed(&multi, &multi_templates);
    let ((single_trial_secs, single_records_n, _, _), (single_fused_secs, _, _, _)) =
        timed(&single, &single_templates);
    let (
        (tbird_trial_secs, tbird_records_n, _, _),
        (tbird_fused_secs, _, tbird_dfa_states, tbird_overflowed),
    ) = timed(&tbird, &tbird_templates);

    MatchingBench {
        multi_bytes: multi.len(),
        multi_lines: multi.line_count(),
        multi_templates: multi_templates.len(),
        multi_records: multi_records_n,
        multi_trial_secs,
        multi_fused_secs,
        single_bytes: single.len(),
        single_records: single_records_n,
        single_trial_secs,
        single_fused_secs,
        tbird_templates: tbird_templates.len(),
        tbird_bytes: tbird.len(),
        tbird_records: tbird_records_n,
        tbird_trial_secs,
        tbird_fused_secs,
        tbird_dfa_states,
        tbird_overflowed,
        outputs_identical,
    }
}

/// Formats seconds compactly for the report tables.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.2} ms", s * 1000.0)
    } else if s < 1.0 {
        format!("{:.0} ms", s * 1000.0)
    } else {
        format!("{s:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalable_weblog_hits_target_size() {
        let text = scalable_weblog(100_000, 1);
        assert!(
            text.len() > 60_000 && text.len() < 160_000,
            "{}",
            text.len()
        );
    }

    #[test]
    fn interleaved_workload_contains_requested_types() {
        let text = interleaved_workload(3, 200, 2);
        assert!(text.contains("EVT|"));
        assert!(text.contains("host="));
    }

    #[test]
    fn time_run_reports_phases() {
        let text = scalable_weblog(20_000, 3);
        let timing = time_run(&text, &DatamaranConfig::default());
        assert!(timing.total > 0.0);
        assert!(timing.records > 100);
        assert!(timing.structures >= 1);
        assert!(timing.total + 1e-9 >= timing.extraction);
    }

    #[test]
    fn fmt_secs_scales_units() {
        assert!(fmt_secs(0.0001).contains("ms"));
        assert!(fmt_secs(0.5).contains("ms"));
        assert!(fmt_secs(2.0).contains("s"));
    }
}
