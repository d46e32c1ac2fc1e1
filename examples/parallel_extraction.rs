//! Parallel extraction: once the structure is known, the final extraction pass is
//! embarrassingly parallel (§5.2.2 observes it dominates the running time for large files and
//! "is eminently parallelizable").  This example discovers the structure on a sample and then
//! compares the sequential and parallel extraction passes on a larger file.
//!
//! Run with `cargo run --release --example parallel_extraction`.

use datamaran::core::{Datamaran, Dataset, SpanLineMatcher};
use datamaran::logsynth::{corpus, DatasetSpec};
use std::time::Instant;

fn main() {
    // ~8 MB of interleaved web-access and key-value metric records with some noise.
    let spec = DatasetSpec::new(
        "parallel_demo",
        vec![corpus::web_access(0), corpus::kv_metrics(0)],
        120_000,
        7,
    )
    .with_noise(0.01);
    let text = spec.generate().text;
    println!(
        "dataset: {:.1} MB, {} lines",
        text.len() as f64 / 1e6,
        text.lines().count()
    );

    // Structure discovery (sample-bounded, cheap).
    let engine = Datamaran::with_defaults();
    let started = Instant::now();
    let result = engine.extract(&text).expect("extraction succeeds");
    println!(
        "full sequential pipeline: {:.2}s ({} record types, {} records)",
        started.elapsed().as_secs_f64(),
        result.structures.len(),
        result.record_count()
    );

    // Re-run just the extraction pass, sequentially and in parallel, with the discovered
    // templates.
    let templates: Vec<_> = result.templates().into_iter().cloned().collect();
    let dataset = Dataset::new(text.as_str());
    let matcher = SpanLineMatcher::new(&templates, 10);

    let started = Instant::now();
    let sequential = matcher.parse(&dataset, 1);
    let seq_time = started.elapsed().as_secs_f64();

    for threads in [2, 4, 8] {
        let started = Instant::now();
        let parallel = matcher.parse(&dataset, threads);
        let par_time = started.elapsed().as_secs_f64();
        assert_eq!(parallel.records.len(), sequential.records.len());
        assert_eq!(parallel.noise_lines, sequential.noise_lines);
        println!(
            "extraction pass: sequential {:.2}s vs {} threads {:.2}s (speedup {:.1}x, identical output)",
            seq_time,
            threads,
            par_time,
            seq_time / par_time.max(1e-9)
        );
    }
}
