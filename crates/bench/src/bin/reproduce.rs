//! `reproduce` — regenerates every table and figure of the DATAMARAN evaluation (§5, §6)
//! on the synthetic corpora, printing the same rows / series the paper reports.
//!
//! ```text
//! cargo run --release -p datamaran-bench --bin reproduce -- all
//! cargo run --release -p datamaran-bench --bin reproduce -- fig17b
//! cargo run --release -p datamaran-bench --bin reproduce -- fig14a fig15 --fast
//! ```
//!
//! Absolute times differ from the paper (different hardware, language, and data scale); the
//! *shapes* — who wins, by roughly what factor, where the crossovers are — are the object of
//! the reproduction and are recorded in `EXPERIMENTS.md`.

use datamaran_bench::{
    config_with, counter_gate, dataset_gate, fmt_secs, interleaved_workload, scalable_weblog,
    time_run, EvaluationBench, ExtractionBench, GenerationBench, MatchingBench,
};
use datamaran_core::{Datamaran, DatamaranConfig, JsonValue, MdlScorer, SearchStrategy};
use evalkit::ablation::{run_ablation, AblationVariant};
use evalkit::corpus::{corpus_config, run_dataset, CorpusReport, DatasetReport};
use evalkit::{accuracy, simulate, study_datasets, Extractor};
use logsynth::{corpus, DatasetSpec};
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    // A `--fast` run is scaled down, so it is not comparable to the committed baselines:
    // it never gates and never writes them.
    let check = args.iter().any(|a| a == "--check") && !fast;
    let mut sections: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| *a != "--fast" && *a != "--check")
        .collect();
    if sections.is_empty() || sections.contains(&"all") {
        sections = vec![
            "table1",
            "table2",
            "table5",
            "manual-accuracy",
            "table3",
            "fig14a",
            "fig14b",
            "fig15",
            "fig16",
            "table4",
            "fig17a",
            "fig17b",
            "fig18",
            "ablation",
            "generation",
            "extraction",
            "evaluation",
            "matching",
            "streaming",
            "corpus",
        ];
    }
    let started = Instant::now();
    let mut regressed = false;
    for section in sections {
        match section {
            "table1" => table1(),
            "table2" => table2(),
            "table3" => table3(fast),
            "table4" => table4(),
            "table5" => table5(),
            "manual-accuracy" => manual_accuracy(fast),
            "fig14a" => fig14a(fast),
            "fig14b" => fig14b(fast),
            "fig15" => fig15(fast),
            "fig16" => fig16(fast),
            "fig17a" => fig17a(),
            "fig17b" => fig17b(fast),
            "fig18" => fig18(fast),
            "ablation" => ablation(fast),
            "generation" => regressed |= !generation_bench(fast, check),
            "extraction" => regressed |= !extraction_bench(fast, check),
            "evaluation" => regressed |= !evaluation_bench(fast, check),
            "matching" => regressed |= !matching_bench(fast, check),
            "streaming" => regressed |= !streaming_bench(fast, check),
            "corpus" => regressed |= !corpus_run(fast, check),
            other => eprintln!("unknown section `{other}` (skipped)"),
        }
    }
    println!(
        "\n[reproduce] finished in {}",
        fmt_secs(started.elapsed().as_secs_f64())
    );
    if regressed {
        eprintln!(
            "[reproduce] FAIL: benchmark gate (a work or accuracy counter differs from its \
             committed value, a baseline is missing, the streaming memory bound was exceeded, \
             or outputs diverged)"
        );
        std::process::exit(1);
    }
}

/// Where a `--check` run writes its fresh documents, so the committed baselines it gates
/// against stay untouched and every further run gates against them too.
const FRESH_DIR: &str = "target/reproduce";

/// Writes a run's documents: a `--check` run under [`FRESH_DIR`], a plain run over the
/// committed files at the repository root, and a `--fast` run nowhere.
fn record(fast: bool, check: bool, files: &[(&str, String)]) {
    if fast {
        println!("(--fast: not gated; committed baselines left untouched)");
        return;
    }
    let dir = std::path::Path::new(if check { FRESH_DIR } else { "." });
    if let Err(err) = std::fs::create_dir_all(dir) {
        eprintln!("could not create {}: {err}", dir.display());
    }
    for (name, contents) in files {
        let path = dir.join(name);
        match std::fs::write(&path, contents) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("could not write {}: {err}", path.display()),
        }
    }
}

/// Gates and records one layer bench's document.  With `--check`, every key of `gated`
/// must equal its value in the committed `BENCH_{name}.json`
/// ([`counter_gate`]).  Returns `false` when one does not.
fn gate_and_record(
    name: &str,
    document: &JsonValue,
    gated: &[&str],
    fast: bool,
    check: bool,
) -> bool {
    let file = format!("BENCH_{name}.json");
    let passed = !check || print_gate(&file, gated, counter_gate(&file, document, gated));
    record(fast, check, &[(&file, document.to_pretty() + "\n")]);
    passed
}

/// Prints a counter gate's failures, or the keys it held, and returns whether it passed.
fn print_gate(file: &str, gated: &[&str], failures: Vec<String>) -> bool {
    for failure in &failures {
        println!("counter gate: {failure} -> REGRESSED");
    }
    if failures.is_empty() {
        println!(
            "counter gate: {file}: {} as committed -> OK",
            gated.join(", ")
        );
    }
    failures.is_empty()
}

fn heading(title: &str) {
    println!("\n================================================================================");
    println!("{title}");
    println!("================================================================================");
}

// -------------------------------------------------------------------------------------------
// Table 1 & 2 — assumptions and parameters
// -------------------------------------------------------------------------------------------

fn table1() {
    heading("Table 1 — Assumption comparison chart");
    println!(
        "{:<22}{:>16}{:>12}",
        "Assumption", "RecordBreaker", "Datamaran"
    );
    for (name, rb, dm) in [
        ("Coverage Threshold", "No", "Yes"),
        ("Non-overlapping", "Yes", "Yes"),
        ("Structural Form", "Yes", "Yes"),
        ("Boundary", "Yes", "No"),
        ("Tokenization", "Yes", "No"),
    ] {
        println!("{name:<22}{rb:>16}{dm:>12}");
    }
}

fn table2() {
    heading("Table 2 — Parameters and defaults used in this reproduction");
    let c = DatamaranConfig::default();
    println!(
        "alpha (min coverage threshold)     : {:.0}%",
        c.alpha * 100.0
    );
    println!("L (max record span, lines)         : {}", c.max_line_span);
    println!("M (templates kept after pruning)   : {}", c.prune_keep);
    println!("search strategy                    : {}", c.search.name());
    println!(
        "sample budget (S_data)             : {} KiB",
        c.sample_bytes / 1024
    );
    println!("beam width (interleaved handling)  : {}", c.beam_width);
}

// -------------------------------------------------------------------------------------------
// Table 3 — per-step running time
// -------------------------------------------------------------------------------------------

fn table3(fast: bool) {
    heading("Table 3 — Time per step (empirical; paper gives asymptotic complexity)");
    let sizes: &[usize] = if fast {
        &[64 * 1024, 256 * 1024]
    } else {
        &[64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024]
    };
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "size", "generation", "pruning", "evaluation", "extraction", "total"
    );
    for &size in sizes {
        let text = scalable_weblog(size, 14);
        let t = time_run(&text, &DatamaranConfig::default());
        println!(
            "{:>8}KB {:>12} {:>12} {:>12} {:>12} {:>12}",
            t.bytes / 1024,
            fmt_secs(t.generation),
            fmt_secs(t.pruning),
            fmt_secs(t.evaluation),
            fmt_secs(t.extraction),
            fmt_secs(t.total)
        );
    }
    println!("(structure search is sample-bounded; extraction grows linearly with the dataset)");
}

// -------------------------------------------------------------------------------------------
// Table 5 + §5.2.1 — the manually collected datasets
// -------------------------------------------------------------------------------------------

fn table5() {
    heading("Table 5 — Characteristics of the 25 manually collected (synthetic) datasets");
    println!(
        "{:<28}{:>12}{:>16}{:>16}",
        "dataset", "size (KB)", "# record types", "max rec. span"
    );
    for spec in corpus::manual_25() {
        let data = spec.generate();
        println!(
            "{:<28}{:>12.1}{:>16}{:>16}",
            spec.name,
            data.len() as f64 / 1024.0,
            spec.record_types.len(),
            spec.max_record_span()
        );
    }
}

fn manual_accuracy(fast: bool) {
    heading("§5.2.1 — Extraction accuracy on the 25 manually collected datasets");
    let config = DatamaranConfig::default();
    let mut ok = 0usize;
    let mut total = 0usize;
    for spec in corpus::manual_25() {
        let spec = if fast { spec.with_records(150) } else { spec };
        let eval = accuracy::evaluate_spec(&spec, Extractor::DatamaranExhaustive, &config);
        total += 1;
        let success = eval.success();
        ok += usize::from(success);
        println!(
            "  {:<28} {:>9} boundary {:>6.1}%  targets {:>6.1}%  ({:.1}s)",
            eval.dataset,
            if success { "SUCCESS" } else { "FAIL" },
            eval.outcome.boundary_recall * 100.0,
            eval.outcome.target_recall * 100.0,
            eval.seconds
        );
    }
    println!("\nsuccessful extractions: {ok}/{total}   (paper: 25/25)");
}

// -------------------------------------------------------------------------------------------
// Figure 14 — running time vs size / structural complexity
// -------------------------------------------------------------------------------------------

fn fig14a(fast: bool) {
    heading("Figure 14a — Running time vs dataset size (exhaustive vs greedy)");
    let sizes: &[usize] = if fast {
        &[128 * 1024, 512 * 1024]
    } else {
        &[256 * 1024, 1024 * 1024, 4 * 1024 * 1024, 16 * 1024 * 1024]
    };
    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "size", "exhaustive", "greedy", "extraction share"
    );
    for &size in sizes {
        let text = scalable_weblog(size, 21);
        let ex = time_run(&text, &config_with(SearchStrategy::Exhaustive));
        let gr = time_run(&text, &config_with(SearchStrategy::Greedy));
        println!(
            "{:>8}KB {:>14} {:>14} {:>13.0}%",
            text.len() / 1024,
            fmt_secs(ex.total),
            fmt_secs(gr.total),
            ex.extraction / ex.total * 100.0
        );
    }
}

fn fig14b(fast: bool) {
    heading("Figure 14b — Running time vs structural complexity (# templates ≥ 10% coverage)");
    let records = if fast { 400 } else { 1200 };
    println!(
        "{:>22} {:>14} {:>14} {:>12}",
        "record types in file", "exhaustive", "greedy", "types found"
    );
    for n_types in [1usize, 2, 3, 4, 6] {
        let text = interleaved_workload(n_types, records, 33 + n_types as u64);
        let ex = time_run(&text, &config_with(SearchStrategy::Exhaustive));
        let gr = time_run(&text, &config_with(SearchStrategy::Greedy));
        println!(
            "{:>22} {:>14} {:>14} {:>12}",
            n_types,
            fmt_secs(ex.total),
            fmt_secs(gr.total),
            ex.structures
        );
    }
}

fn fig15(fast: bool) {
    heading("Figure 15 — Impact of parameters on running time (exhaustive search)");
    let size = if fast { 192 * 1024 } else { 768 * 1024 };
    let text = scalable_weblog(size, 55);
    println!("varying M (templates kept after pruning), alpha=10%, L=10:");
    for m in [10usize, 50, 200, 1000] {
        let t = time_run(&text, &DatamaranConfig::default().with_prune_keep(m));
        println!("  M = {m:<6} -> {}", fmt_secs(t.total));
    }
    println!("varying alpha (coverage threshold), M=50, L=10:");
    for alpha in [0.05f64, 0.10, 0.20, 0.30] {
        let t = time_run(&text, &DatamaranConfig::default().with_alpha(alpha));
        println!("  alpha = {:>4.0}% -> {}", alpha * 100.0, fmt_secs(t.total));
    }
    println!("varying L (max record span), alpha=10%, M=50:");
    for l in [2usize, 5, 10, 15] {
        let t = time_run(&text, &DatamaranConfig::default().with_max_line_span(l));
        println!("  L = {l:<6} -> {}", fmt_secs(t.total));
    }
}

// -------------------------------------------------------------------------------------------
// Figure 16 — parameter sensitivity: does Datamaran find the optimal template?
// -------------------------------------------------------------------------------------------

fn fig16(fast: bool) {
    heading("Figure 16 — % of datasets where the optimal structure template is found");
    let records = if fast { 120 } else { 250 };
    let specs: Vec<DatasetSpec> = corpus::manual_25()
        .into_iter()
        .map(|s| s.with_records(records))
        .collect();

    // The "optimal" template per dataset: best regularity score over *every* candidate with
    // at least alpha% coverage (M = ∞), as defined in §5.2.3.
    let mut optimal_scores: Vec<f64> = Vec::new();
    let mut best_assimilation_is_optimal = 0usize;
    for spec in &specs {
        let data = spec.generate();
        let unlimited = DatamaranConfig::default().with_prune_keep(usize::MAX / 2);
        let engine = Datamaran::new(unlimited).unwrap();
        let pool = engine.candidate_pool(&data.text).unwrap_or_default();
        let best = engine
            .discover_structure(&data.text)
            .ok()
            .flatten()
            .map(|(_, s)| s)
            .unwrap_or(f64::INFINITY);
        optimal_scores.push(best);
        // Does the candidate with the best assimilation score coincide with the optimal one?
        if let Some(top) = pool.first() {
            let dataset = datamaran_core::Dataset::new(data.text.clone());
            let refiner = datamaran_core::refine::Refiner::new(&dataset, &MdlScorer, 10);
            let refined = refiner.refine(&top.template);
            if (refined.score - best).abs() <= best.abs() * 0.001 + 1.0 {
                best_assimilation_is_optimal += 1;
            }
        }
    }
    println!(
        "datasets where the best-assimilation candidate is already optimal: {}/{}   (paper: ~40%)",
        best_assimilation_is_optimal,
        specs.len()
    );

    let grid: Vec<(String, DatamaranConfig)> = vec![
        (
            "M=10,  a=10%, L=10".into(),
            DatamaranConfig::default().with_prune_keep(10),
        ),
        ("M=50,  a=10%, L=10".into(), DatamaranConfig::default()),
        (
            "M=1000,a=10%, L=10".into(),
            DatamaranConfig::default().with_prune_keep(1000),
        ),
        (
            "M=50,  a=5%,  L=10".into(),
            DatamaranConfig::default().with_alpha(0.05),
        ),
        (
            "M=50,  a=20%, L=10".into(),
            DatamaranConfig::default().with_alpha(0.20),
        ),
        (
            "M=50,  a=10%, L=5 ".into(),
            DatamaranConfig::default().with_max_line_span(5),
        ),
    ];
    println!("{:<22}{:>28}", "configuration", "finds optimal template");
    for (name, config) in grid {
        let mut found = 0usize;
        for (spec, optimal) in specs.iter().zip(&optimal_scores) {
            let data = spec.generate();
            let engine = Datamaran::new(config.clone()).unwrap();
            let score = engine
                .discover_structure(&data.text)
                .ok()
                .flatten()
                .map(|(_, s)| s)
                .unwrap_or(f64::INFINITY);
            if (score - optimal).abs() <= optimal.abs() * 0.001 + 1.0 || score <= *optimal {
                found += 1;
            }
        }
        println!(
            "{:<22}{:>22} ({:>5.1}%)",
            name,
            format!("{found}/{}", specs.len()),
            found as f64 / specs.len() as f64 * 100.0
        );
    }
}

// -------------------------------------------------------------------------------------------
// Table 4 / Figure 17 — the GitHub corpus
// -------------------------------------------------------------------------------------------

fn table4() {
    heading("Table 4 — GitHub dataset labels");
    for (label, desc) in [
        (
            "S (Single-line)",
            "dataset consists of only single-line records",
        ),
        (
            "M (Multi-line)",
            "dataset contains records spanning multiple lines",
        ),
        (
            "NI (Non-Interleaved)",
            "dataset consists of only one type of records",
        ),
        (
            "I (Interleaved)",
            "dataset contains more than one type of records",
        ),
        (
            "NS (No Structure)",
            "dataset has no structure or violates the §3 assumptions",
        ),
    ] {
        println!("  {label:<22} {desc}");
    }
}

fn fig17a() {
    heading("Figure 17a — GitHub corpus characteristics (synthetic reconstruction)");
    let specs = corpus::github_100();
    for (label, count) in corpus::label_distribution(&specs) {
        println!("  {:<8} {:>3} datasets", label.short(), count);
    }
    let multi = specs.iter().filter(|s| s.max_record_span() > 1).count();
    let inter = specs.iter().filter(|s| s.record_types.len() > 1).count();
    println!("  multi-line records : {multi}%   (paper: 31%)");
    println!("  interleaved types  : {inter}%   (paper: 32%)");
}

fn fig17b(fast: bool) {
    heading("Figure 17b — Extraction accuracy on the GitHub corpus");
    let specs: Vec<DatasetSpec> = corpus::github_100()
        .into_iter()
        .map(|s| if fast { s.with_records(150) } else { s })
        .collect();
    let config = DatamaranConfig::default();
    let extractors = [
        Extractor::DatamaranExhaustive,
        Extractor::DatamaranGreedy,
        Extractor::RecordBreaker,
    ];
    let mut summary = accuracy::AccuracySummary::default();
    let started = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        for extractor in extractors {
            summary.push(accuracy::evaluate_spec(spec, extractor, &config));
        }
        if (i + 1) % 20 == 0 {
            eprintln!(
                "[fig17b] {}/{} datasets evaluated ({})",
                i + 1,
                specs.len(),
                fmt_secs(started.elapsed().as_secs_f64())
            );
        }
    }

    println!(
        "{:<26}{:>10}{:>10}{:>10}{:>10}{:>12}",
        "extractor", "S(NI)", "S(I)", "M(NI)", "M(I)", "overall*"
    );
    let paper: BTreeMap<&str, [f64; 5]> = BTreeMap::from([
        ("Datamaran (exhaustive)", [100.0, 85.7, 92.3, 94.4, 95.5]),
        ("Datamaran (greedy)", [100.0, 78.6, 76.9, 83.3, 91.0]),
        ("RecordBreaker", [56.8, 7.1, 0.0, 0.0, 29.2]),
    ]);
    for extractor in extractors {
        let by_label = summary.by_label(extractor);
        let (ok, total) = summary.overall(extractor);
        let cells: Vec<String> = by_label
            .iter()
            .map(|(_, ok, total)| {
                if *total == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}%", *ok as f64 / *total as f64 * 100.0)
                }
            })
            .collect();
        println!(
            "{:<26}{:>10}{:>10}{:>10}{:>10}{:>11.1}%",
            extractor.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            ok as f64 / total.max(1) as f64 * 100.0
        );
        if let Some(p) = paper.get(extractor.name()) {
            println!(
                "{:<26}{:>10}{:>10}{:>10}{:>10}{:>11.1}%",
                "  (paper)",
                format!("{:.1}%", p[0]),
                format!("{:.1}%", p[1]),
                format!("{:.1}%", p[2]),
                format!("{:.1}%", p[3]),
                p[4]
            );
        }
    }
    println!("* overall excludes the 11 no-structure datasets, as in the paper");
}

// -------------------------------------------------------------------------------------------
// Figure 18 — user study simulation
// -------------------------------------------------------------------------------------------

fn fig18(fast: bool) {
    heading("Figure 18 / §6 — User-study simulation (wrangling operations to reach the target)");
    println!(
        "{:<34}{:>6}{:>6}{:>16}{:>16}{:>12}",
        "dataset", "multi", "noisy", "Datamaran (A)", "RecordBreaker (B)", "raw (R)"
    );
    let fmt = |ops: Option<usize>| match ops {
        Some(n) => format!("{n} ops"),
        None => "FAIL".to_string(),
    };
    for spec in study_datasets() {
        let spec = if fast { spec.with_records(80) } else { spec };
        let study = simulate(&spec);
        let [a, b, r] = &study.outcomes;
        println!(
            "{:<34}{:>6}{:>6}{:>16}{:>16}{:>12}",
            study.dataset,
            if study.multi_line { "yes" } else { "no" },
            if study.noisy { "yes" } else { "no" },
            fmt(a.operations),
            fmt(b.operations),
            fmt(r.operations)
        );
    }
    println!("(paper: participants always needed the fewest operations from Datamaran's output,");
    println!(" and failed to rebuild noisy multi-line datasets from RecordBreaker output or the raw file)");

    // Average reported difficulty is approximated by average operation counts.
    let mut sums = [0usize; 3];
    let mut fails = [0usize; 3];
    let mut n = 0usize;
    for spec in study_datasets() {
        let study = simulate(&spec.with_records(if fast { 80 } else { 150 }));
        n += 1;
        for (i, o) in study.outcomes.iter().enumerate() {
            match o.operations {
                Some(ops) => sums[i] += ops,
                None => fails[i] += 1,
            }
        }
    }
    println!(
        "\naverage operations (successful cases): A={:.1}  B={:.1}  R={:.1}; failures: A={} B={} R={}  (n={n})",
        sums[0] as f64 / (n - fails[0]).max(1) as f64,
        sums[1] as f64 / (n - fails[1]).max(1) as f64,
        sums[2] as f64 / (n - fails[2]).max(1) as f64,
        fails[0],
        fails[1],
        fails[2]
    );
}

// -------------------------------------------------------------------------------------------
// Streaming export benchmark — bounded-memory streaming path, checked against in-memory export
// -------------------------------------------------------------------------------------------

/// Runs the extraction-to-CSV streaming path on a 32 MiB synthetic dataset (4 MiB with
/// `--fast`), checks its CSV bytes against the in-memory materialized exporter, and
/// records `BENCH_streaming.json`.  With `check`, the records, CSV bytes, the sink's
/// write calls and the windows must equal their committed values, and the peak resident
/// window bytes must stay under [`datamaran_bench::STREAM_PEAK_WINDOW_BOUND`]: on an input
/// 4× larger than the bound, that proves the streaming path is `O(window)`, not `O(file)`,
/// in memory.  Returns `false` on regression.
fn streaming_bench(fast: bool, check: bool) -> bool {
    use datamaran_bench::{StreamingBench, STREAM_PEAK_WINDOW_BOUND};
    heading("Streaming export — bounded-memory sink path");
    let bytes = if fast {
        4 * 1024 * 1024
    } else {
        32 * 1024 * 1024
    };
    let runs = if fast { 2 } else { 3 };
    let bench = datamaran_bench::streaming_benchmark(bytes, runs);
    println!(
        "dataset: {} bytes / {} lines; {} records, {} CSV bytes emitted in {} write calls",
        bench.dataset_bytes,
        bench.dataset_lines,
        bench.records,
        bench.csv_bytes,
        bench.csv_write_calls
    );
    println!(
        "windows: {} (head {} + window {} bytes)",
        bench.windows, bench.head_bytes, bench.window_bytes
    );
    println!(
        "wall time (templates supplied, not gated): {} ({:.1} MB/sec)",
        fmt_secs(bench.streaming_secs),
        bench.streaming_mb_per_sec()
    );
    println!(
        "CSV identical to the in-memory exporter: {}",
        bench.outputs_identical
    );
    let peak_ok = bench.peak_window_bytes <= STREAM_PEAK_WINDOW_BOUND;
    println!(
        "memory gate: peak window bytes {} <= bound {} on a {} MiB input -> {}",
        bench.peak_window_bytes,
        STREAM_PEAK_WINDOW_BOUND,
        bench.dataset_bytes / (1024 * 1024),
        if peak_ok { "OK" } else { "EXCEEDED" }
    );
    let counters_ok = gate_and_record(
        "streaming",
        &bench.document(),
        StreamingBench::GATED,
        fast,
        check,
    );
    counters_ok && (peak_ok || !check) && bench.outputs_identical
}

// -------------------------------------------------------------------------------------------
// Corpus matrix — LogHub-2.0-scale accuracy and work counters, gated per dataset
// -------------------------------------------------------------------------------------------

/// Runs the LogHub-2.0-scale corpus matrix: discovery + extraction + one streaming replay
/// on every catalog dataset, recording `BENCH_corpus.json` and its human-readable twin
/// `CORPUS_REPORT.md`.  With `check`, every key of [`DatasetReport::GATED`] — template
/// counts, F1, line coverage, the pipeline's work counters, and the extracted and replayed
/// records and noise lines — must equal its committed value for each committed dataset
/// ([`dataset_gate`]).  Wall times and MB/s are recorded, not gated.
/// Returns `false` when a gated key moved.
fn corpus_run(fast: bool, check: bool) -> bool {
    heading("Corpus matrix — LogHub-2.0-scale synthetic catalog (accuracy + work counters)");
    let scale = if fast { 8 } else { 1 };
    let config = corpus_config();
    let mut report = CorpusReport::default();
    for spec in logsynth::loghub::specs(scale) {
        let ds = run_dataset(&spec.generate(), &config);
        println!(
            "{:<12} {:>5} templates {:>9} bytes  F1 {:.3}  coverage {:.3}  {:>3} rounds  \
             {:>6} evaluations  {:>7.1} MB/s  (pipeline {})",
            ds.name,
            ds.spec_templates,
            ds.bytes,
            ds.accuracy.f1,
            ds.accuracy.line_coverage,
            ds.stats.iterations,
            ds.stats.evaluation_metrics.evaluations,
            ds.stream_mb_per_sec(),
            fmt_secs(ds.stats.timings.total().as_secs_f64()),
        );
        report.datasets.push(ds);
    }
    println!("\n{}", report.accuracy_table());
    println!("{}", report.timing_table());

    let file = "BENCH_corpus.json";
    let document = report.document();
    let gated = DatasetReport::GATED;
    let passed = !check || print_gate(file, gated, dataset_gate(file, &document, gated));
    record(
        fast,
        check,
        &[
            (file, document.to_pretty() + "\n"),
            ("CORPUS_REPORT.md", report.to_markdown()),
        ],
    );

    // Surface the per-dataset phase timings in the job summary so slow datasets are
    // visible in the CI UI without downloading artifacts.
    append_step_summary(&format!(
        "## Corpus matrix phase timings\n\n{}\n## Accuracy & throughput\n\n{}",
        report.timing_table(),
        report.accuracy_table()
    ));
    passed
}

/// Appends markdown to `$GITHUB_STEP_SUMMARY` when running under GitHub Actions; a no-op
/// everywhere else.
fn append_step_summary(markdown: &str) {
    use std::io::Write;
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let opened = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path);
    match opened {
        Ok(mut file) => {
            if let Err(err) = writeln!(file, "{markdown}") {
                eprintln!("could not append to GITHUB_STEP_SUMMARY: {err}");
            }
        }
        Err(err) => eprintln!("could not open GITHUB_STEP_SUMMARY: {err}"),
    }
}

// -------------------------------------------------------------------------------------------
// Ablation (extension beyond the paper) — contribution of each design choice
// -------------------------------------------------------------------------------------------

fn ablation(fast: bool) {
    heading("Ablation — contribution of refinement, beam, search, pruning width, and scoring");
    // A structurally diverse slice of the corpora: single-line, multi-line, interleaved.
    let records = if fast { 100 } else { 200 };
    let mut specs: Vec<DatasetSpec> = vec![
        DatasetSpec::new("abl_weblog", vec![corpus::web_access(0)], records, 11).with_noise(0.02),
        DatasetSpec::new("abl_kv", vec![corpus::kv_metrics(0)], records, 12),
        DatasetSpec::new("abl_http", vec![corpus::http_block(0)], records, 13).with_noise(0.01),
        DatasetSpec::new(
            "abl_interleaved",
            vec![corpus::web_access(1), corpus::pipe_events(0)],
            records,
            14,
        )
        .with_noise(0.02),
    ];
    if !fast {
        specs.push(DatasetSpec::new(
            "abl_lists",
            vec![corpus::district_block(0)],
            records / 2,
            15,
        ));
        specs.push(
            DatasetSpec::new("abl_query", vec![corpus::query_log(0)], records, 16).with_noise(0.03),
        );
    }
    let variants = AblationVariant::all();
    let outcomes = run_ablation(&specs, &variants, &DatamaranConfig::default());
    println!(
        "{:<28}{:>12}{:>12}{:>14}",
        "variant", "success", "accuracy", "avg time"
    );
    for o in &outcomes {
        println!(
            "{:<28}{:>9}/{:<2}{:>11.0}%{:>14}",
            o.variant.name(),
            o.successes,
            o.total,
            o.accuracy() * 100.0,
            fmt_secs(o.avg_seconds)
        );
    }
    println!("(the full pipeline is the reference; drops isolate each ingredient's contribution)");
}

// -------------------------------------------------------------------------------------------
// Layer benchmarks — work counters gated exactly, engine wall times recorded
// -------------------------------------------------------------------------------------------

/// Runs the generation engine's exhaustive search at one worker thread on a ~1 MB
/// synthetic sample (128 KB with `--fast`), checks its candidates against the legacy
/// reference, and records `BENCH_generation.json`.  Returns `false` when a gated counter
/// moved or the outputs diverged.
fn generation_bench(fast: bool, check: bool) -> bool {
    heading("Generation engine — span projections, exhaustive search");
    let bytes = if fast { 128 * 1024 } else { 1024 * 1024 };
    let bench = datamaran_bench::generation_benchmark(bytes, 1);
    println!(
        "sample: {} bytes / {} lines",
        bench.sample_bytes, bench.sample_lines
    );
    println!(
        "work: {} charsets enumerated, {} candidate records examined, {} candidates, \
         {} novel windows, {} reductions",
        bench.charsets_enumerated,
        bench.records_examined,
        bench.candidates,
        bench.novel_windows,
        bench.reductions
    );
    println!(
        "wall time (not gated): {} ({:.0} records/sec)",
        fmt_secs(bench.spans_secs),
        bench.spans_records_per_sec()
    );
    println!(
        "outputs identical to the legacy reference: {}",
        bench.outputs_identical
    );
    let document = bench.document();
    gate_and_record("generation", &document, GenerationBench::GATED, fast, check)
        && bench.outputs_identical
}

/// Runs the final extraction pass at one worker thread on a ~1 MB dataset (128 KB with
/// `--fast`), checks its parses against the tree-walker reference, and records
/// `BENCH_extraction.json`.  Returns `false` when a gated counter moved or the outputs
/// diverged.
fn extraction_bench(fast: bool, check: bool) -> bool {
    heading("Extraction engine — compiled instruction tables");
    let bytes = if fast { 128 * 1024 } else { 1024 * 1024 };
    let runs = if fast { 3 } else { 5 };
    let bench = datamaran_bench::extraction_benchmark(bytes, runs);
    println!(
        "dataset: {} bytes / {} lines, template {}, {} records",
        bench.sample_bytes, bench.sample_lines, bench.template, bench.records
    );
    println!(
        "{:<20}{:>14}{:>18}{:>14}",
        "output (not gated)", "wall time", "records/sec", "MB/sec"
    );
    for (name, secs) in [
        ("span arenas", bench.span_secs),
        ("ParseResult", bench.span_materialized_secs),
    ] {
        println!(
            "{:<20}{:>14}{:>18.0}{:>14.1}",
            name,
            fmt_secs(secs),
            bench.records as f64 / secs,
            bench.sample_bytes as f64 / secs / (1024.0 * 1024.0)
        );
    }
    println!(
        "outputs identical to the tree-walker reference: {}",
        bench.outputs_identical
    );
    let document = bench.document();
    gate_and_record("extraction", &document, ExtractionBench::GATED, fast, check)
        && bench.outputs_identical
}

/// Runs the evaluation step (refinement of the post-pruning candidate pool) at one worker
/// thread on the evaluation sample of a ~1 MB dataset (128 KB with `--fast`), checks its
/// refined outputs against the tree re-parse reference, and records
/// `BENCH_evaluation.json`.  Returns `false` when a gated counter moved or the outputs
/// diverged.
fn evaluation_bench(fast: bool, check: bool) -> bool {
    heading("Evaluation engine — delta refinement parses");
    let bytes = if fast { 128 * 1024 } else { 1024 * 1024 };
    let runs = if fast { 2 } else { 3 };
    let bench = datamaran_bench::evaluation_benchmark(bytes, runs);
    let m = &bench.metrics;
    println!(
        "dataset: {} bytes; evaluation sample: {} bytes / {} lines; {} candidates",
        bench.dataset_bytes, bench.sample_bytes, bench.sample_lines, bench.candidates
    );
    println!(
        "work: {} evaluations, {} memo hits; tree reference: {} evaluations",
        m.evaluations, m.memo_hits, bench.legacy_evaluations
    );
    println!(
        "delta engine: {} delta and {} full parses, {} records reused ({:.1}%), \
         dirty columns {:.1}%",
        m.delta_parses,
        m.delta_full_parses,
        m.delta_records_reused,
        m.delta_record_reuse_rate() * 100.0,
        m.dirty_column_fraction() * 100.0
    );
    println!(
        "wall time (not gated): {} ({:.1} candidates/sec; parse {} / score {})",
        fmt_secs(bench.span_secs),
        bench.span_candidates_per_sec(),
        fmt_secs(m.parse_seconds),
        fmt_secs(m.score_seconds)
    );
    println!(
        "outputs identical to the tree reference: {}",
        bench.outputs_identical
    );
    let document = bench.document();
    gate_and_record("evaluation", &document, EvaluationBench::GATED, fast, check)
        && bench.outputs_identical
}

/// Runs the production matcher at one worker thread on three fixtures (10 interleaved
/// templates, one template, the Thunderbird-clone set), checks its span arenas against
/// the trial reference, and records `BENCH_matching.json`.  Returns `false` when a gated
/// counter moved or the outputs diverged.
fn matching_bench(fast: bool, check: bool) -> bool {
    heading("Multi-template matching — fused prefix-trie/DFA dispatch");
    let records = if fast { 20_000 } else { 60_000 };
    let divisor = if fast { 8 } else { 2 };
    let runs = if fast { 2 } else { 3 };
    let bench = datamaran_bench::matching_benchmark(records, divisor, runs);
    println!(
        "{:<13}{:>10}{:>10}{:>12}{:>10}{:>12}{:>11}{:>9}",
        "fixture", "templates", "records", "dispatched", "trialed", "DFA states", "wall", "MB/sec"
    );
    for (name, f) in [
        ("10-template", &bench.multi),
        ("1-template", &bench.single),
        ("thunderbird", &bench.thunderbird),
    ] {
        let states = format!(
            "{}{}",
            f.dfa_states,
            if f.dfa_overflowed { "*" } else { "" }
        );
        println!(
            "{:<13}{:>10}{:>10}{:>12}{:>10}{:>12}{:>11}{:>9.1}",
            name,
            f.templates,
            f.records,
            f.stats.lines_dispatched,
            f.stats.templates_trialed,
            states,
            fmt_secs(f.secs),
            f.mb_per_sec()
        );
    }
    println!("(* state cap hit; wall times and MB/sec are not gated)");
    println!(
        "outputs identical to the trial reference: {}",
        bench.outputs_identical
    );
    let document = bench.document();
    gate_and_record("matching", &document, MatchingBench::GATED, fast, check)
        && bench.outputs_identical
}
