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

use datamaran_bench::{config_with, fmt_secs, interleaved_workload, scalable_weblog, time_run};
use datamaran_core::{Datamaran, DatamaranConfig, JsonValue, MdlScorer, SearchStrategy};
use evalkit::ablation::{run_ablation, AblationVariant};
use evalkit::{accuracy, simulate, study_datasets, Extractor};
use logsynth::{corpus, DatasetSpec};
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let check = args.iter().any(|a| a == "--check");
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
            "[reproduce] FAIL: benchmark gate (a speedup ratio dropped >20% vs the committed \
             baseline, the streaming memory bound was exceeded, or outputs diverged)"
        );
        std::process::exit(1);
    }
}

/// Fraction of the committed baseline value a fresh run must reach: the CI
/// perf-regression gate fails on a >20% drop.
const REGRESSION_TOLERANCE: f64 = 0.80;

/// Reads one numeric key from a committed baseline JSON document.
fn baseline_value(path: &str, key: &str) -> Option<f64> {
    use datamaran_core::JsonValue;
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok())
        .and_then(|v| v.get(key).and_then(|n| n.as_f64().ok()))
}

/// The >20%-regression gate, applied to the *speedup* (span throughput divided by legacy
/// throughput, both measured in the same run): hardware and runner-speed factors cancel
/// out of the ratio, so the committed baseline transfers across machines — absolute
/// records/sec would flag every slower CI runner as a regression.  The absolute
/// throughput comparison is printed as context.  The baseline is read *before* the fresh
/// result overwrites the file; a missing or unreadable baseline passes with a warning so
/// first runs and fresh clones are not blocked.
fn check_baseline(
    path: &str,
    throughput_key: &str,
    fresh_throughput: f64,
    fresh_speedup: f64,
) -> bool {
    if let Some(base) = baseline_value(path, throughput_key) {
        if base > 0.0 {
            println!(
                "regression gate (context): {throughput_key} = {fresh_throughput:.0} vs baseline {base:.0} ({:+.1}%, machine-relative, not gated)",
                (fresh_throughput / base - 1.0) * 100.0,
            );
        }
    }
    match baseline_value(path, "speedup") {
        Some(base) if base > 0.0 => {
            let ratio = fresh_speedup / base;
            let ok = ratio >= REGRESSION_TOLERANCE;
            println!(
                "regression gate: speedup {fresh_speedup:.2}x vs baseline {base:.2}x ({:+.1}%) -> {}",
                (ratio - 1.0) * 100.0,
                if ok { "OK" } else { "REGRESSED" }
            );
            ok
        }
        _ => {
            println!("regression gate: no usable baseline at {path} (key speedup); skipping");
            true
        }
    }
}

/// The >20%-regression gate applied to an additional named ratio of a baseline document
/// (e.g. the evaluation engine's delta record-reuse rate).  Same transfer argument as
/// [`check_baseline`]: the ratio is measured within one run (or is deterministic), so it is
/// hardware-portable.  Missing baselines (first runs, fresh clones) pass with a warning.
fn check_ratio(path: &str, key: &str, fresh: f64) -> bool {
    match baseline_value(path, key) {
        Some(base) if base > 0.0 => {
            let ratio = fresh / base;
            let ok = ratio >= REGRESSION_TOLERANCE;
            println!(
                "regression gate: {key} {fresh:.2}x vs baseline {base:.2}x ({:+.1}%) -> {}",
                (ratio - 1.0) * 100.0,
                if ok { "OK" } else { "REGRESSED" }
            );
            ok
        }
        _ => {
            println!("regression gate: no usable baseline at {path} (key {key}); skipping");
            true
        }
    }
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
// Streaming export benchmark — bounded-memory streaming path vs. in-memory extract+export
// -------------------------------------------------------------------------------------------

/// Times the full extraction-to-CSV path on a 32 MiB synthetic dataset (4 MiB with
/// `--fast`) through the bounded-memory streaming sinks and through the in-memory
/// materialized exporter, and writes the result to `BENCH_streaming.json`.  With `check`,
/// two gates apply: the streaming-vs-in-memory wall-clock *ratio* is gated against the
/// committed baseline (same >20% rule as the other engines — the ratio is measured within
/// one run, so runner-speed factors cancel), and the peak resident window bytes must stay
/// under the committed [`datamaran_bench::STREAM_PEAK_WINDOW_BOUND`] — on an input 4×
/// larger than the bound, that proves the streaming path is `O(window)`, not `O(file)`,
/// in memory.  Returns `false` on regression.
fn streaming_bench(fast: bool, check: bool) -> bool {
    use datamaran_bench::STREAM_PEAK_WINDOW_BOUND;
    heading("Streaming export — bounded-memory sink path vs. in-memory materialization");
    let bytes = if fast {
        4 * 1024 * 1024
    } else {
        32 * 1024 * 1024
    };
    let runs = if fast { 2 } else { 3 };
    let bench = datamaran_bench::streaming_benchmark(bytes, runs);
    println!(
        "dataset: {} bytes / {} lines; {} records, {} CSV bytes emitted",
        bench.dataset_bytes, bench.dataset_lines, bench.records, bench.csv_bytes
    );
    println!(
        "windows: {} (head {} + window {} bytes); both paths extract with the same \
         head-discovered templates",
        bench.windows, bench.head_bytes, bench.window_bytes
    );
    println!("{:<12}{:>14}{:>14}", "path", "wall time", "MB/sec");
    println!(
        "{:<12}{:>14}{:>14.1}",
        "in-memory",
        fmt_secs(bench.inmemory_secs),
        bench.inmemory_mb_per_sec()
    );
    println!(
        "{:<12}{:>14}{:>14.1}",
        "streaming",
        fmt_secs(bench.streaming_secs),
        bench.streaming_mb_per_sec()
    );
    println!(
        "ratio (in-memory / streaming): {:.2}x, outputs identical: {}",
        bench.speedup(),
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
    let path = "BENCH_streaming.json";
    let ok = !check
        || (check_baseline(
            path,
            "streaming_mb_per_sec",
            bench.streaming_mb_per_sec(),
            bench.speedup(),
        ) && peak_ok);
    match std::fs::write(path, bench.to_json() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    ok && bench.outputs_identical
}

// -------------------------------------------------------------------------------------------
// Corpus matrix — LogHub-2.0-scale accuracy + throughput gates
// -------------------------------------------------------------------------------------------

/// Runs the LogHub-2.0-scale corpus matrix: discovery + extraction + streaming replay on
/// every catalog dataset, per-dataset template F1 / line coverage / MB/s, with the
/// committed `BENCH_corpus.json` as the CI gate and `CORPUS_REPORT.md` as the
/// human-readable artifact.  Accuracy gates are absolute floors (the numbers are
/// deterministic); throughput gates use the same >20% ratio rule as the engine
/// benchmarks, applied to each dataset's MB/s relative to the reference dataset measured
/// in the same run.
fn corpus_run(fast: bool, check: bool) -> bool {
    heading("Corpus matrix — LogHub-2.0-scale synthetic catalog (accuracy + throughput)");
    let scale = if fast { 8 } else { 1 };
    let config = evalkit::corpus::corpus_config();
    let mut report = evalkit::corpus::CorpusReport::default();
    for spec in logsynth::loghub::specs(scale) {
        let data = spec.generate();
        let ds = evalkit::corpus::run_dataset(&data, &config);
        println!(
            "{:<12} {:>5} templates {:>9} bytes  F1 {:.3}  coverage {:.3}  {:>7.1} MB/s  \
             (pipeline {})",
            ds.name,
            ds.spec_templates,
            ds.bytes,
            ds.accuracy.f1,
            ds.accuracy.line_coverage,
            ds.stream_mb_per_sec,
            fmt_secs(ds.phases.total()),
        );
        report.datasets.push(ds);
    }
    println!("\n{}", report.accuracy_table());
    println!("{}", report.timing_table());

    // Gate against the committed baseline *before* overwriting it.  The floors are
    // calibrated at full scale; a --fast smoke run is not comparable, so it never gates.
    let json_path = "BENCH_corpus.json";
    let ok = if check && fast {
        println!("corpus gate: --fast run is not comparable to full-scale baselines; skipping");
        true
    } else if check {
        match std::fs::read_to_string(json_path)
            .ok()
            .and_then(|text| JsonValue::parse(&text).ok())
        {
            Some(baseline) => {
                let failures = report.check_against(&baseline, REGRESSION_TOLERANCE);
                for failure in &failures {
                    println!("corpus gate: {failure} -> REGRESSED");
                }
                if failures.is_empty() {
                    println!(
                        "corpus gate: every dataset within its committed accuracy floors and \
                         throughput ratios -> OK"
                    );
                }
                failures.is_empty()
            }
            None => {
                println!("corpus gate: no usable baseline at {json_path}; skipping");
                true
            }
        }
    } else {
        true
    };

    if fast {
        println!("(--fast: committed corpus baselines left untouched)");
    } else {
        match std::fs::write(json_path, report.to_json() + "\n") {
            Ok(()) => println!("wrote {json_path}"),
            Err(err) => eprintln!("could not write {json_path}: {err}"),
        }
        match std::fs::write("CORPUS_REPORT.md", report.to_markdown()) {
            Ok(()) => println!("wrote CORPUS_REPORT.md"),
            Err(err) => eprintln!("could not write CORPUS_REPORT.md: {err}"),
        }
    }

    // Surface the per-dataset phase timings in the job summary so slow datasets are
    // visible in the CI UI without downloading artifacts.
    append_step_summary(&format!(
        "## Corpus matrix phase timings\n\n{}\n## Accuracy & throughput\n\n{}",
        report.timing_table(),
        report.accuracy_table()
    ));
    ok
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
// Generation engine benchmark — span backend vs. legacy string-token backend

/// Times the exhaustive generation step with both backends on a ~1 MB synthetic sample
/// (128 KB with `--fast`) and writes the result to `BENCH_generation.json` so the perf
/// trajectory of the hot path has a recorded baseline.  With `check`, the fresh span
/// throughput is gated against the committed baseline; returns `false` on regression.
fn generation_bench(fast: bool, check: bool) -> bool {
    heading("Generation engine — span projections vs. legacy re-tokenization");
    let bytes = if fast { 128 * 1024 } else { 1024 * 1024 };
    let bench = datamaran_bench::generation_benchmark(bytes, 1);
    println!(
        "sample: {} bytes / {} lines, {} charsets enumerated, {} candidate records",
        bench.sample_bytes, bench.sample_lines, bench.charsets_enumerated, bench.records_examined
    );
    println!("{:<10}{:>14}{:>22}", "backend", "wall time", "records/sec");
    println!(
        "{:<10}{:>14}{:>22.0}",
        "legacy",
        fmt_secs(bench.legacy_secs),
        bench.legacy_records_per_sec()
    );
    println!(
        "{:<10}{:>14}{:>22.0}",
        "spans",
        fmt_secs(bench.spans_secs),
        bench.spans_records_per_sec()
    );
    println!(
        "speedup: {:.2}x, outputs identical: {}",
        bench.speedup(),
        bench.outputs_identical
    );
    let path = "BENCH_generation.json";
    let ok = !check
        || check_baseline(
            path,
            "spans_records_per_sec",
            bench.spans_records_per_sec(),
            bench.speedup(),
        );
    match std::fs::write(path, bench.to_json() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    ok && bench.outputs_identical
}

// -------------------------------------------------------------------------------------------
// Extraction engine benchmark — span instruction tables vs. legacy tree walker

/// Times the final extraction pass with both backends on a ~1 MB dataset (128 KB with
/// `--fast`) and writes the result to `BENCH_extraction.json`.  With `check`, the fresh
/// span throughput is gated against the committed baseline; returns `false` on regression.
fn extraction_bench(fast: bool, check: bool) -> bool {
    heading("Extraction engine — compiled instruction tables vs. tree-walking LL(1) parser");
    let bytes = if fast { 128 * 1024 } else { 1024 * 1024 };
    let runs = if fast { 3 } else { 5 };
    let bench = datamaran_bench::extraction_benchmark(bytes, runs);
    println!(
        "dataset: {} bytes / {} lines, template {}, {} records",
        bench.sample_bytes, bench.sample_lines, bench.template, bench.records
    );
    println!(
        "{:<20}{:>14}{:>18}{:>14}",
        "backend", "wall time", "records/sec", "MB/sec"
    );
    println!(
        "{:<20}{:>14}{:>18.0}{:>14.1}",
        "legacy",
        fmt_secs(bench.legacy_secs),
        bench.legacy_records_per_sec(),
        bench.legacy_mb_per_sec()
    );
    println!(
        "{:<20}{:>14}{:>18.0}{:>14.1}",
        "span",
        fmt_secs(bench.span_secs),
        bench.span_records_per_sec(),
        bench.span_mb_per_sec()
    );
    println!(
        "{:<20}{:>14}{:>18.0}{:>14.1}",
        "span+materialize",
        fmt_secs(bench.span_materialized_secs),
        bench.records as f64 / bench.span_materialized_secs,
        bench.sample_bytes as f64 / bench.span_materialized_secs / (1024.0 * 1024.0)
    );
    println!(
        "speedup: {:.2}x ({:.2}x with ParseResult materialization), outputs identical: {}",
        bench.speedup(),
        bench.speedup_materialized(),
        bench.outputs_identical
    );
    let path = "BENCH_extraction.json";
    let ok = !check
        || check_baseline(
            path,
            "span_records_per_sec",
            bench.span_records_per_sec(),
            bench.speedup(),
        );
    match std::fs::write(path, bench.to_json() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    ok && bench.outputs_identical
}

// -------------------------------------------------------------------------------------------
// Evaluation engine benchmark — span refinement evaluation vs. legacy tree re-parse

/// Times the evaluation step (refinement of the post-pruning candidate pool) with the span
/// engine (delta evaluation) and the tree re-parse reference (`legacy`) on the 1 MB
/// dataset's evaluation sample (128 KB dataset with `--fast`) and writes the result to
/// `BENCH_evaluation.json`.  With `check`, the span-vs-legacy speedup (measured within one
/// run, so runner-speed factors cancel) and the delta engine's deterministic record-reuse
/// rate are gated against the committed baseline.  Returns `false` on regression.
fn evaluation_bench(fast: bool, check: bool) -> bool {
    heading("Evaluation engine — delta refinement parses vs. tree re-parse");
    let bytes = if fast { 128 * 1024 } else { 1024 * 1024 };
    let runs = if fast { 2 } else { 3 };
    let bench = datamaran_bench::evaluation_benchmark(bytes, runs);
    println!(
        "dataset: {} bytes; evaluation sample: {} bytes / {} lines; {} candidates",
        bench.dataset_bytes, bench.sample_bytes, bench.sample_lines, bench.candidates
    );
    println!(
        "span engine work: {} evaluations, {} memo hits; legacy: {} evaluations",
        bench.span_evaluations, bench.span_memo_hits, bench.legacy_evaluations
    );
    println!(
        "delta engine: {} delta parses, record reuse {:.1}%, dirty columns {:.1}%",
        bench.delta_parses,
        bench.delta_record_reuse * 100.0,
        bench.dirty_column_fraction * 100.0
    );
    println!(
        "phase split: span parse {} / score {}; legacy parse {} / score {}",
        fmt_secs(bench.span_parse_secs),
        fmt_secs(bench.span_score_secs),
        fmt_secs(bench.legacy_parse_secs),
        fmt_secs(bench.legacy_score_secs)
    );
    println!(
        "{:<12}{:>14}{:>22}",
        "backend", "wall time", "candidates/sec"
    );
    println!(
        "{:<12}{:>14}{:>22.1}",
        "legacy",
        fmt_secs(bench.legacy_secs),
        bench.legacy_candidates_per_sec()
    );
    println!(
        "{:<12}{:>14}{:>22.1}",
        "span",
        fmt_secs(bench.span_secs),
        bench.span_candidates_per_sec()
    );
    println!(
        "speedup vs legacy: {:.2}x, outputs identical: {}",
        bench.speedup(),
        bench.outputs_identical
    );
    let path = "BENCH_evaluation.json";
    let ok = !check
        || (check_baseline(
            path,
            "span_candidates_per_sec",
            bench.span_candidates_per_sec(),
            bench.speedup(),
        ) && check_ratio(path, "delta_record_reuse", bench.delta_record_reuse));
    match std::fs::write(path, bench.to_json() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    ok && bench.outputs_identical
}

fn matching_bench(fast: bool, check: bool) -> bool {
    heading("Multi-template matching — fused prefix-trie/DFA dispatch vs. trial-each-template");
    let records = if fast { 20_000 } else { 60_000 };
    let divisor = if fast { 8 } else { 2 };
    let runs = if fast { 2 } else { 3 };
    let bench = datamaran_bench::matching_benchmark(records, divisor, runs);
    println!(
        "interleaved fixture: {} templates, {} bytes / {} lines, {} records",
        bench.multi_templates, bench.multi_bytes, bench.multi_lines, bench.multi_records
    );
    println!("{:<12}{:>14}{:>14}", "backend", "wall time", "MB/sec");
    println!(
        "{:<12}{:>14}{:>14.1}",
        "trial",
        fmt_secs(bench.multi_trial_secs),
        bench.trial_mb_per_sec()
    );
    println!(
        "{:<12}{:>14}{:>14.1}",
        "fused",
        fmt_secs(bench.multi_fused_secs),
        bench.fused_mb_per_sec()
    );
    println!(
        "single-template parity: trial {} vs fused {} ({:.2}x)",
        fmt_secs(bench.single_trial_secs),
        fmt_secs(bench.single_fused_secs),
        bench.single_template_speedup()
    );
    println!(
        "thunderbird clone: {} live templates ({} DFA states{}), {} bytes, trial {} vs fused {} ({:.2}x)",
        bench.tbird_templates,
        bench.tbird_dfa_states,
        if bench.tbird_overflowed {
            ", state cap hit"
        } else {
            ""
        },
        bench.tbird_bytes,
        fmt_secs(bench.tbird_trial_secs),
        fmt_secs(bench.tbird_fused_secs),
        bench.thunderbird_speedup()
    );
    println!(
        "speedup (10-template fused vs trial): {:.2}x, outputs identical: {}",
        bench.speedup(),
        bench.outputs_identical
    );
    let floor_ok = bench.speedup() >= 3.0;
    println!(
        "acceptance floor: 10-template speedup {:.2}x >= 3.0x -> {}",
        bench.speedup(),
        if floor_ok { "OK" } else { "BELOW FLOOR" }
    );
    let path = "BENCH_matching.json";
    let ok = !check
        || (check_baseline(
            path,
            "fused_mb_per_sec",
            bench.fused_mb_per_sec(),
            bench.speedup(),
        ) && check_ratio(
            path,
            "single_template_speedup",
            bench.single_template_speedup(),
        ) && check_ratio(path, "thunderbird_speedup", bench.thunderbird_speedup())
            && floor_ok);
    match std::fs::write(path, bench.to_json() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    ok && bench.outputs_identical
}
