//! Shared workload builders and measurement helpers for the benchmark harness that
//! regenerates the paper's tables and figures (see `src/bin/reproduce.rs` and `benches/`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use datamaran_core::{Datamaran, DatamaranConfig, JsonValue, SearchStrategy};
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
/// enumerates all `2^c` charsets instead of falling back to the greedy procedure.  The
/// input of the generation, extraction, evaluation and streaming benchmarks.
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

/// The `--check` gate of the per-layer benches: each of `keys` must equal, exactly, its
/// value in the committed document at `committed`.  The gated keys are deterministic work
/// counters measured at one worker thread, so the gate needs no tolerance, carries across
/// machines and never flakes; the wall times recorded beside them are not gated.  Returns
/// one failure per differing or missing key, naming the file and the key with its
/// committed and fresh values, or a single failure when the file cannot be read or parsed.
/// Empty means the gate passes.
pub fn counter_gate(committed: &str, fresh: &JsonValue, keys: &[&str]) -> Vec<String> {
    match read_document(committed) {
        Ok(baseline) => compare_keys(committed, &baseline, fresh, keys),
        Err(err) => vec![err],
    }
}

/// The `--check` gate of the corpus matrix: [`counter_gate`]'s exact-key rule applied to
/// each entry of the committed document's `datasets` array and the fresh entry with the
/// same `name`.  A committed dataset that did not run fails, as do an unreadable file and
/// a document without a `datasets` array; a fresh dataset that is not committed yet is
/// not gated.  Each failure names the file, the dataset and the key.
pub fn dataset_gate(committed: &str, fresh: &JsonValue, keys: &[&str]) -> Vec<String> {
    fn datasets(document: &JsonValue) -> Option<&[JsonValue]> {
        document.get("datasets")?.as_array().ok()
    }
    fn name(entry: &JsonValue) -> &str {
        entry
            .get("name")
            .and_then(|n| n.as_str().ok())
            .unwrap_or("")
    }
    let baseline = match read_document(committed) {
        Ok(document) => document,
        Err(err) => return vec![err],
    };
    let Some(entries) = datasets(&baseline) else {
        return vec![format!("{committed}: no committed `datasets`")];
    };
    let fresh_entries = datasets(fresh).unwrap_or_default();
    entries
        .iter()
        .flat_map(|entry| {
            let label = format!("{committed}: dataset `{}`", name(entry));
            match fresh_entries.iter().find(|f| name(f) == name(entry)) {
                Some(now) => compare_keys(&label, entry, now, keys),
                None => vec![format!("{label} is committed but did not run")],
            }
        })
        .collect()
}

/// The exact-key rule shared by the gates: one failure, prefixed with `label`, per key of
/// `keys` that differs between `baseline` and `fresh` or is missing from either.
fn compare_keys(
    label: &str,
    baseline: &JsonValue,
    fresh: &JsonValue,
    keys: &[&str],
) -> Vec<String> {
    let value = |document: &JsonValue, key: &str| document.get(key)?.as_f64().ok();
    keys.iter()
        .filter_map(|&key| match (value(baseline, key), value(fresh, key)) {
            (Some(base), Some(now)) if base == now => None,
            (Some(base), Some(now)) => Some(format!("{label}: `{key}` is {now}, committed {base}")),
            (Some(base), None) => Some(format!(
                "{label}: `{key}` (committed {base}) was not measured"
            )),
            (None, _) => Some(format!("{label}: no committed `{key}`")),
        })
        .collect()
}

/// Reads and parses a committed baseline document; the error names the file.
pub fn read_document(path: &str) -> Result<JsonValue, String> {
    std::fs::read_to_string(path)
        .map_err(|err| err.to_string())
        .and_then(|text| JsonValue::parse(&text).map_err(|err| err.to_string()))
        .map_err(|err| format!("no committed baseline at {path} ({err})"))
}

/// One numeric entry of a bench document.
fn number(key: impl Into<String>, value: f64) -> (String, JsonValue) {
    (key.into(), JsonValue::Number(value))
}

/// Best (lowest) wall-clock seconds over `runs` calls of `run` (at least one call).
fn best_secs(runs: usize, mut run: impl FnMut()) -> f64 {
    (0..runs.max(1))
        .map(|_| {
            let started = Instant::now();
            run();
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Outcome of the generation benchmark: the span engine's work counters and best wall time
/// on one sample, its candidates cross-checked against one untimed run of the legacy
/// string-token reference `generation::generate_legacy` (see `reproduce -- generation`).
#[derive(Clone, Debug)]
pub struct GenerationBench {
    /// Sample size in bytes.
    pub sample_bytes: usize,
    /// Sample line count.
    pub sample_lines: usize,
    /// Charsets enumerated.
    pub charsets_enumerated: usize,
    /// Candidate records examined.
    pub records_examined: usize,
    /// Candidates emitted.
    pub candidates: usize,
    /// Window-memo misses: candidate windows whose template the engine had to build.
    pub novel_windows: usize,
    /// Novel windows that ran a full `reduce`.
    pub reductions: usize,
    /// Best wall-clock seconds of the span engine.
    pub spans_secs: f64,
    /// `true` when the engine and the reference emitted identical candidates and statistics.
    pub outputs_identical: bool,
}

impl GenerationBench {
    /// Work counters `reproduce -- generation --check` holds equal to the committed
    /// `BENCH_generation.json` (see [`counter_gate`]).
    pub const GATED: &'static [&'static str] = &[
        "charsets_enumerated",
        "candidates",
        "records_examined",
        "novel_windows",
        "reductions",
    ];

    /// Candidate records examined per second.
    pub fn spans_records_per_sec(&self) -> f64 {
        self.records_examined as f64 / self.spans_secs
    }

    /// The `BENCH_generation.json` document.
    pub fn document(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "benchmark".into(),
                JsonValue::String("generation_exhaustive".into()),
            ),
            number("sample_bytes", self.sample_bytes as f64),
            number("sample_lines", self.sample_lines as f64),
            number("charsets_enumerated", self.charsets_enumerated as f64),
            number("records_examined", self.records_examined as f64),
            number("candidates", self.candidates as f64),
            number("novel_windows", self.novel_windows as f64),
            number("reductions", self.reductions as f64),
            number("spans_wall_secs", self.spans_secs),
            number("spans_records_per_sec", self.spans_records_per_sec()),
            number("generation_threads", 1.0),
            (
                "outputs_identical".into(),
                JsonValue::Bool(self.outputs_identical),
            ),
        ])
    }
}

/// Runs the generation step on an `exhaustive_weblog` sample of `target_bytes`: the span
/// engine `runs` times (best wall time kept) and the legacy reference once, untimed, to
/// cross-check that both emit identical candidates.
pub fn generation_benchmark(target_bytes: usize, runs: usize) -> GenerationBench {
    use datamaran_core::generation::generate_legacy;
    use datamaran_core::{generate, Dataset};

    let text = exhaustive_weblog(target_bytes, 14);
    let data = Dataset::new(text);
    // Pinned to one worker thread: every worker keeps its own window memo, so the novel
    // window and reduction counts are exact only at a fixed worker count.
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

    GenerationBench {
        sample_bytes: data.len(),
        sample_lines: data.line_count(),
        charsets_enumerated: spans_out.charsets_enumerated,
        records_examined: spans_out.records_examined,
        candidates: spans_out.candidates.len(),
        novel_windows: spans_out.novel_windows,
        reductions: spans_out.reductions,
        spans_secs: best_secs(runs, || {
            assert!(!generate(&data, &config).candidates.is_empty())
        }),
        outputs_identical,
    }
}

/// Outcome of the extraction benchmark: the span instruction-table engine's record count
/// and best wall times on one dataset and template, its parses and relational tables
/// cross-checked against one untimed run of the tree-walking reference `parse_dataset`
/// (see `reproduce -- extraction`).
#[derive(Clone, Debug)]
pub struct ExtractionBench {
    /// Dataset size in bytes.
    pub sample_bytes: usize,
    /// Dataset line count.
    pub sample_lines: usize,
    /// Records extracted.
    pub records: usize,
    /// Human-readable rendering of the benchmarked template.
    pub template: String,
    /// Best wall-clock seconds of the span engine (native flat-arena output).
    pub span_secs: f64,
    /// Best wall-clock seconds of the span engine including the copy of its arenas into an
    /// owned `ParseResult` (what the pipeline consumes).
    pub span_materialized_secs: f64,
    /// `true` when the engine and the reference produced identical parses and relational
    /// tables.
    pub outputs_identical: bool,
}

impl ExtractionBench {
    /// Work counters `reproduce -- extraction --check` holds equal to the committed
    /// `BENCH_extraction.json` (see [`counter_gate`]).
    pub const GATED: &'static [&'static str] = &["records"];

    /// Megabytes extracted per second.
    pub fn span_mb_per_sec(&self) -> f64 {
        self.sample_bytes as f64 / self.span_secs / (1024.0 * 1024.0)
    }

    /// Records extracted per second.
    pub fn span_records_per_sec(&self) -> f64 {
        self.records as f64 / self.span_secs
    }

    /// The `BENCH_extraction.json` document.
    pub fn document(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "benchmark".into(),
                JsonValue::String("extraction_ll1".into()),
            ),
            number("sample_bytes", self.sample_bytes as f64),
            number("sample_lines", self.sample_lines as f64),
            number("records", self.records as f64),
            ("template".into(), JsonValue::String(self.template.clone())),
            number("span_wall_secs", self.span_secs),
            number("span_materialized_wall_secs", self.span_materialized_secs),
            number("span_records_per_sec", self.span_records_per_sec()),
            number("span_mb_per_sec", self.span_mb_per_sec()),
            number("extraction_threads", 1.0),
            (
                "outputs_identical".into(),
                JsonValue::Bool(self.outputs_identical),
            ),
        ])
    }
}

/// Runs the final extraction pass on an `exhaustive_weblog` dataset of `target_bytes`: the
/// span engine `runs` times per output form (best wall time kept, one worker thread) and
/// the tree walker once, untimed, to cross-check that both produce identical parses and
/// relational tables.
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
    let as_tables = |parse: &[RecordMatch]| -> Vec<Table> {
        let refs: Vec<&RecordMatch> = parse.iter().collect();
        let source = data.shared_text();
        let mut tables = to_relational(&templates[0], &source, &refs, "bench").tables;
        tables.push(to_denormalized(&templates[0], &source, &refs, "bench"));
        tables
    };
    let outputs_identical =
        legacy == span && as_tables(&legacy.records) == as_tables(&span.records);

    ExtractionBench {
        sample_bytes: data.len(),
        sample_lines: data.line_count(),
        records: span.records.len(),
        template: templates[0].to_string(),
        span_secs: best_secs(runs, || assert!(!span_parse().records.is_empty())),
        span_materialized_secs: best_secs(runs, || {
            assert!(!span_parse().to_parse_result().records.is_empty())
        }),
        outputs_identical,
    }
}

/// Outcome of the evaluation benchmark: the work counters and best wall time of the span
/// evaluation engine (compiled refinement parses, delta evaluation, arena-native scoring,
/// template-score memo) refining one candidate pool, its refined outputs cross-checked
/// against one untimed run of the tree re-parse reference `refine::refine_tree` (see
/// `reproduce -- evaluation`).
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
    /// The engine's counters and parse/score seconds, from one cold-memo run at one worker
    /// thread.
    pub metrics: datamaran_core::EvaluationMetrics,
    /// Template evaluations the tree reference performed.
    pub legacy_evaluations: usize,
    /// Best wall-clock seconds of the engine (memo cold at the start of every run).
    pub span_secs: f64,
    /// `true` when the engine and the tree reference produced identical refined
    /// `(template, score, summary)` lists.
    pub outputs_identical: bool,
}

impl EvaluationBench {
    /// Work counters `reproduce -- evaluation --check` holds equal to the committed
    /// `BENCH_evaluation.json` (see [`counter_gate`]).
    pub const GATED: &'static [&'static str] = &[
        "candidates",
        "span_evaluations",
        "span_memo_hits",
        "delta_full_parses",
        "delta_records_reused",
    ];

    /// Candidate templates refined per second.
    pub fn span_candidates_per_sec(&self) -> f64 {
        self.candidates as f64 / self.span_secs
    }

    /// The `BENCH_evaluation.json` document.
    pub fn document(&self) -> JsonValue {
        let m = &self.metrics;
        JsonValue::Object(vec![
            (
                "benchmark".into(),
                JsonValue::String("evaluation_refinement".into()),
            ),
            number("dataset_bytes", self.dataset_bytes as f64),
            number("sample_bytes", self.sample_bytes as f64),
            number("sample_lines", self.sample_lines as f64),
            number("candidates", self.candidates as f64),
            number("span_evaluations", m.evaluations as f64),
            number("span_memo_hits", m.memo_hits as f64),
            number("legacy_evaluations", self.legacy_evaluations as f64),
            number("span_parse_secs", m.parse_seconds),
            number("span_score_secs", m.score_seconds),
            number("span_wall_secs", self.span_secs),
            number("span_candidates_per_sec", self.span_candidates_per_sec()),
            number("delta_parses", m.delta_parses as f64),
            number("delta_full_parses", m.delta_full_parses as f64),
            number("delta_records_reused", m.delta_records_reused as f64),
            number("delta_record_reuse", m.delta_record_reuse_rate()),
            number("dirty_column_fraction", m.dirty_column_fraction()),
            number("evaluation_threads", 1.0),
            (
                "outputs_identical".into(),
                JsonValue::Bool(self.outputs_identical),
            ),
        ])
    }
}

/// Runs the evaluation step (refinement of the post-pruning candidate pool, exactly as the
/// pipeline's `discover_ranked` drives it) on an `exhaustive_weblog` dataset of
/// `target_bytes`: the engine `runs` times (best wall time kept, one worker thread, each
/// run on a fresh refiner so the memo starts cold) and the tree reference once, untimed, to
/// cross-check that both produce identical refined outputs.
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

    // Correctness first: identical refined templates, bit-identical scores, equal
    // summaries.
    let span = refiner();
    let span_out = span.refine_batch(templates.clone(), true, 1);
    let mut legacy_metrics = EvaluationMetrics::default();
    let legacy_out: Vec<Refined> = templates
        .iter()
        .map(|t| {
            refine_tree(
                &sample,
                &scorer,
                config.max_line_span,
                t.clone(),
                true,
                &mut legacy_metrics,
            )
        })
        .collect();
    let outputs_identical = span_out.len() == legacy_out.len()
        && span_out.iter().zip(&legacy_out).all(|(a, b)| {
            a.template == b.template
                && a.score.to_bits() == b.score.to_bits()
                && a.summary == b.summary
        });

    EvaluationBench {
        dataset_bytes: full.len(),
        sample_bytes: sample.len(),
        sample_lines: sample.line_count(),
        candidates: templates.len(),
        metrics: span.metrics(),
        legacy_evaluations: legacy_metrics.evaluations,
        span_secs: best_secs(runs, || {
            let out = refiner().refine_batch(templates.clone(), true, 1);
            assert_eq!(out.len(), templates.len());
        }),
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

/// Outcome of the streaming-export benchmark: the work counters, peak window bytes and best
/// wall time of the bounded-memory streaming path (chunked reader → span matcher →
/// push-based CSV sink), its CSV bytes cross-checked against one untimed run of the
/// in-memory path (full-file extraction → materialized relational tables → CSV
/// serialization) on the same templates (see `reproduce -- streaming`).
#[derive(Clone, Debug)]
pub struct StreamingBench {
    /// Dataset size in bytes.
    pub dataset_bytes: usize,
    /// Dataset line count.
    pub dataset_lines: usize,
    /// Records extracted.
    pub records: usize,
    /// Total CSV bytes emitted.
    pub csv_bytes: usize,
    /// Write calls the CSV sink made on its table writers in one timed run.
    pub csv_write_calls: usize,
    /// Streaming head size used (bytes).
    pub head_bytes: usize,
    /// Streaming window target used (bytes).
    pub window_bytes: usize,
    /// Chunk windows the streaming run processed.
    pub windows: usize,
    /// Peak resident window bytes observed by the streaming run.
    pub peak_window_bytes: usize,
    /// Best wall-clock seconds of the streaming path.
    pub streaming_secs: f64,
    /// `true` when the streaming CSV bytes are identical to the materialized exporter's.
    pub outputs_identical: bool,
}

impl StreamingBench {
    /// Work counters `reproduce -- streaming --check` holds equal to the committed
    /// `BENCH_streaming.json` (see [`counter_gate`]); the peak window bytes are gated
    /// against [`STREAM_PEAK_WINDOW_BOUND`] instead.
    pub const GATED: &'static [&'static str] =
        &["records", "csv_bytes", "csv_write_calls", "windows"];

    /// Megabytes processed per second.
    pub fn streaming_mb_per_sec(&self) -> f64 {
        self.dataset_bytes as f64 / self.streaming_secs / (1024.0 * 1024.0)
    }

    /// The `BENCH_streaming.json` document.
    pub fn document(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "benchmark".into(),
                JsonValue::String("streaming_export".into()),
            ),
            number("dataset_bytes", self.dataset_bytes as f64),
            number("dataset_lines", self.dataset_lines as f64),
            number("records", self.records as f64),
            number("csv_bytes", self.csv_bytes as f64),
            number("csv_write_calls", self.csv_write_calls as f64),
            number("head_bytes", self.head_bytes as f64),
            number("window_bytes", self.window_bytes as f64),
            number("windows", self.windows as f64),
            number("peak_window_bytes", self.peak_window_bytes as f64),
            number("peak_window_bound", STREAM_PEAK_WINDOW_BOUND as f64),
            number("streaming_wall_secs", self.streaming_secs),
            number("streaming_mb_per_sec", self.streaming_mb_per_sec()),
            (
                "outputs_identical".into(),
                JsonValue::Bool(self.outputs_identical),
            ),
        ])
    }
}

/// An `io::Write` sink that counts write calls and drops their bytes (throughput runs).
#[derive(Default)]
struct WriteCalls {
    calls: usize,
}

impl std::io::Write for WriteCalls {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the streaming export path on an `exhaustive_weblog` dataset of `target_bytes`:
/// once with head discovery into in-memory writers, whose CSV bytes must equal the
/// materialized exporter's on the same (head-discovered) templates, then `runs` times with
/// those templates supplied and the bytes counted (best wall time kept).
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

    // Templates are supplied, so the clock sees the matcher, the window loop and the sink;
    // head discovery is the generation and evaluation benches' work.
    let mut csv_write_calls = 0;
    let streaming_secs = best_secs(runs, || {
        let mut sink = CsvSink::new(|_name: &str| Ok(WriteCalls::default()));
        let s = StreamSession::new(&engine)
            .options(options)
            .templates(templates.clone())
            .run(Cursor::new(text.as_bytes()), &mut sink)
            .expect("streaming run succeeds");
        assert_eq!(s.records, summary.records);
        csv_write_calls = sink.into_writers().iter().map(|(_, w)| w.calls).sum();
    });

    StreamingBench {
        dataset_bytes: text.len(),
        dataset_lines: text.lines().count(),
        records: summary.records,
        csv_bytes: streamed_tables.iter().map(|(_, b)| b.len()).sum(),
        csv_write_calls,
        head_bytes: options.head_bytes,
        window_bytes: options.window_bytes,
        windows: summary.windows,
        peak_window_bytes: summary.peak_window_bytes,
        streaming_secs,
        outputs_identical,
    }
}

// -------------------------------------------------------------------------------------------
// Multi-template matching benchmark (`reproduce -- matching`)
// -------------------------------------------------------------------------------------------

/// Work counters and best wall time of the production matcher on one matching fixture.
#[derive(Clone, Debug)]
pub struct MatchingFixture {
    /// Fixture size in bytes.
    pub bytes: usize,
    /// Fixture line count.
    pub lines: usize,
    /// Live templates matched against the fixture.
    pub templates: usize,
    /// Records extracted.
    pub records: usize,
    /// Work counters of the first, cold-cache pass.
    pub stats: datamaran_core::MatchStats,
    /// States the fused DFA interned in that pass (0 when no DFA is built: the matcher
    /// trials directly below two live templates).
    pub dfa_states: usize,
    /// `true` when the fused DFA hit its state cap and degrades to trial dispatch beyond
    /// the explored prefix.
    pub dfa_overflowed: bool,
    /// Best wall-clock seconds of one pass.
    pub secs: f64,
}

impl MatchingFixture {
    /// Megabytes matched per second.
    pub fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 / self.secs / (1024.0 * 1024.0)
    }

    /// This fixture's entries of the `BENCH_matching.json` document, keyed `{name}_…`.
    fn entries(&self, name: &str) -> Vec<(String, JsonValue)> {
        vec![
            number(format!("{name}_bytes"), self.bytes as f64),
            number(format!("{name}_lines"), self.lines as f64),
            number(format!("{name}_templates"), self.templates as f64),
            number(format!("{name}_records"), self.records as f64),
            number(
                format!("{name}_lines_dispatched"),
                self.stats.lines_dispatched as f64,
            ),
            number(
                format!("{name}_templates_trialed"),
                self.stats.templates_trialed as f64,
            ),
            number(format!("{name}_dfa_states"), self.dfa_states as f64),
            (
                format!("{name}_overflowed"),
                JsonValue::Bool(self.dfa_overflowed),
            ),
            number(format!("{name}_fused_wall_secs"), self.secs),
            number(format!("{name}_mb_per_sec"), self.mb_per_sec()),
        ]
    }
}

/// Outcome of the matching benchmark: the production matcher (merged prefix-trie/DFA
/// dispatch, batched, whenever two or more templates are live) on three fixtures, its span
/// arenas cross-checked against one untimed run of the trial reference
/// `SpanLineMatcher::trial_reference` on each (see `reproduce -- matching`).
#[derive(Clone, Debug)]
pub struct MatchingBench {
    /// The 10-template interleaved fixture.
    pub multi: MatchingFixture,
    /// The single-template corpus: no DFA is built, so every record start trials the one
    /// template.
    pub single: MatchingFixture,
    /// The Thunderbird-clone template set on its own synthesized corpus.
    pub thunderbird: MatchingFixture,
    /// `true` when the production matcher and the trial reference produced identical span
    /// arenas on every fixture.
    pub outputs_identical: bool,
}

impl MatchingBench {
    /// Work counters `reproduce -- matching --check` holds equal to the committed
    /// `BENCH_matching.json` (see [`counter_gate`]).  Without the fused DFA the matcher
    /// trials every template in turn, so `templates_trialed` is what catches a lost
    /// prefilter.
    pub const GATED: &'static [&'static str] = &[
        "multi_records",
        "multi_lines_dispatched",
        "multi_dfa_states",
        "multi_templates_trialed",
        "single_records",
        "single_lines_dispatched",
        "single_dfa_states",
        "single_templates_trialed",
        "thunderbird_records",
        "thunderbird_lines_dispatched",
        "thunderbird_dfa_states",
        "thunderbird_templates_trialed",
    ];

    /// The `BENCH_matching.json` document.
    pub fn document(&self) -> JsonValue {
        let mut entries = vec![(
            "benchmark".into(),
            JsonValue::String("fused_matching".into()),
        )];
        entries.extend(self.multi.entries("multi"));
        entries.extend(self.single.entries("single"));
        entries.extend(self.thunderbird.entries("thunderbird"));
        entries.push((
            "outputs_identical".into(),
            JsonValue::Bool(self.outputs_identical),
        ));
        JsonValue::Object(entries)
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

/// Runs the production matcher on one fixture `runs` times and the trial reference once,
/// untimed.  The matcher, and with it the merged DFA, is compiled once outside the clock
/// (the object the pipeline reuses across windows), so the clock sees the batched match
/// pass.  Returns the fixture's counters, taken from the first (cold-cache) pass, with the
/// best wall time, and whether the two matchers produced identical span arenas.
fn measure_fixture(
    dataset: &datamaran_core::Dataset,
    templates: &[datamaran_core::StructureTemplate],
    runs: usize,
) -> (MatchingFixture, bool) {
    use datamaran_core::{SpanLineMatcher, SpanParse, SpanScratch};
    let max_line_span = DatamaranConfig::default().max_line_span;
    let matcher = SpanLineMatcher::new(templates, max_line_span);
    let mut out = SpanParse::default();
    let mut scratch = SpanScratch::default();
    let mut first_pass = None;
    let secs = best_secs(runs, || {
        matcher.parse_into_with(dataset, &mut out, &mut scratch);
        first_pass.get_or_insert((
            scratch.stats,
            scratch.fused_dfa_states(),
            scratch.fused_dfa_overflowed(),
        ));
    });
    let (stats, dfa_states, dfa_overflowed) = first_pass.expect("at least one pass runs");
    let trial = SpanLineMatcher::trial_reference(templates, max_line_span).parse(dataset, 1);
    let identical = trial.records == out.records
        && trial.cells == out.cells
        && trial.reps == out.reps
        && trial.noise_lines == out.noise_lines
        && trial.record_bytes == out.record_bytes
        && trial.noise_bytes == out.noise_bytes;
    let fixture = MatchingFixture {
        bytes: dataset.len(),
        lines: dataset.line_count(),
        templates: templates.len(),
        records: out.records.len(),
        stats,
        dfa_states,
        dfa_overflowed,
        secs,
    };
    (fixture, identical)
}

/// Runs the matching benchmark: a 10-template interleaved fixture of `multi_records`
/// records, a single-template corpus of as many records, and the Thunderbird-clone
/// template set (1,241 catalogued templates) on its own corpus, generated at
/// `1 / tbird_scale_divisor` of its catalogued volume.  `runs` timed passes each.
pub fn matching_benchmark(
    multi_records: usize,
    tbird_scale_divisor: usize,
    runs: usize,
) -> MatchingBench {
    use datamaran_core::Dataset;

    let (multi_text, multi_templates) = matching_workload(10, multi_records, 41);
    let (single_text, single_templates) = matching_workload(1, multi_records, 43);
    let tbird_entry = logsynth::loghub::catalog()
        .into_iter()
        .find(|e| e.name == "thunderbird")
        .expect("thunderbird is catalogued");
    let tbird_data = tbird_entry.spec(tbird_scale_divisor.max(1)).generate();
    let tbird_templates = loghub_template_set(&tbird_data);

    let (multi, multi_ok) = measure_fixture(&Dataset::new(multi_text), &multi_templates, runs);
    let (single, single_ok) = measure_fixture(&Dataset::new(single_text), &single_templates, runs);
    let (thunderbird, tbird_ok) =
        measure_fixture(&Dataset::new(tbird_data.text), &tbird_templates, runs);
    MatchingBench {
        multi,
        single,
        thunderbird,
        outputs_identical: multi_ok && single_ok && tbird_ok,
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

    /// Runs `gate` over the keys `records` and `windows` of the document `fresh` against a
    /// committed document with `contents`, written to a file of this test process
    /// (`None`: no file).
    fn run_gate(
        gate: fn(&str, &JsonValue, &[&str]) -> Vec<String>,
        name: &str,
        contents: Option<&str>,
        fresh: &str,
    ) -> (String, Vec<String>) {
        let path = std::env::temp_dir().join(format!(
            "datamaran_bench_{}_{name}.json",
            std::process::id()
        ));
        let path = path.to_str().unwrap().to_string();
        if let Some(contents) = contents {
            std::fs::write(&path, contents).unwrap();
        }
        let fresh = JsonValue::parse(fresh).unwrap();
        let failures = gate(&path, &fresh, &["records", "windows"]);
        if contents.is_some() {
            std::fs::remove_file(&path).unwrap();
        }
        (path, failures)
    }

    /// [`counter_gate`] with the fresh counters `records` 26701 and `windows` 33.
    fn gate(name: &str, contents: Option<&str>) -> (String, Vec<String>) {
        let fresh = r#"{"records": 26701, "windows": 33}"#;
        run_gate(counter_gate, name, contents, fresh)
    }

    /// [`dataset_gate`] with a fresh `hdfs` entry (`records` 10833, `windows` 3) and a
    /// fresh dataset `new` that no committed document has yet.
    fn corpus(name: &str, contents: Option<&str>) -> (String, Vec<String>) {
        let fresh = r#"{"datasets": [{"name": "hdfs", "records": 10833, "windows": 3},
                                     {"name": "new", "records": 1, "windows": 1}]}"#;
        run_gate(dataset_gate, name, contents, fresh)
    }

    #[test]
    fn counter_gate_passes_equal_counters() {
        let (_, failures) = gate(
            "equal",
            Some(r#"{"records": 26701, "windows": 33, "s": 1.5}"#),
        );
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn counter_gate_fails_a_moved_counter() {
        let (path, failures) = gate("moved", Some(r#"{"records": 26701, "windows": 17}"#));
        assert_eq!(failures, [format!("{path}: `windows` is 33, committed 17")]);
    }

    #[test]
    fn counter_gate_fails_a_missing_file() {
        let (path, failures) = gate("absent", None);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with(&format!("no committed baseline at {path}")));
    }

    #[test]
    fn counter_gate_fails_a_missing_key() {
        let (path, failures) = gate("no_key", Some(r#"{"records": 26701}"#));
        assert_eq!(failures, [format!("{path}: no committed `windows`")]);
    }

    #[test]
    fn dataset_gate_passes_equal_counters_and_skips_uncommitted_datasets() {
        let committed = r#"{"datasets": [{"name": "hdfs", "records": 10833, "windows": 3,
                                          "stream_secs": 0.01}]}"#;
        let (_, failures) = corpus("ds_equal", Some(committed));
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn dataset_gate_fails_a_moved_or_missing_key_naming_the_dataset() {
        let committed = r#"{"datasets": [{"name": "hdfs", "records": 10832}]}"#;
        let (path, failures) = corpus("ds_moved", Some(committed));
        assert_eq!(
            failures,
            [
                format!("{path}: dataset `hdfs`: `records` is 10833, committed 10832"),
                format!("{path}: dataset `hdfs`: no committed `windows`"),
            ]
        );
    }

    #[test]
    fn dataset_gate_fails_a_committed_dataset_that_did_not_run() {
        let committed = r#"{"datasets": [{"name": "hdfs", "records": 10833, "windows": 3},
                                         {"name": "bgl", "records": 9, "windows": 1}]}"#;
        let (path, failures) = corpus("ds_missing", Some(committed));
        assert_eq!(
            failures,
            [format!(
                "{path}: dataset `bgl` is committed but did not run"
            )]
        );
    }

    #[test]
    fn dataset_gate_fails_a_missing_file_or_datasets_array() {
        let (path, failures) = corpus("ds_absent", None);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with(&format!("no committed baseline at {path}")));
        let (path, failures) = corpus("ds_no_array", Some(r#"{"benchmark": "corpus_matrix"}"#));
        assert_eq!(failures, [format!("{path}: no committed `datasets`")]);
    }

    #[test]
    fn fmt_secs_scales_units() {
        assert!(fmt_secs(0.0001).contains("ms"));
        assert!(fmt_secs(0.5).contains("ms"));
        assert!(fmt_secs(2.0).contains("s"));
    }
}
