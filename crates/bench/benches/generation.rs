//! Generation-step micro-benchmark: the span-projection engine vs. the legacy string-token
//! reference, exhaustive charset enumeration on a palette-bounded web log.
//!
//! `cargo bench -p datamaran-bench --bench generation`
//!
//! The acceptance numbers for the span engine (>= 3x on ~1 MB) are recorded by
//! `reproduce -- generation` into `BENCH_generation.json`; this bench is the quick,
//! criterion-driven view of the same comparison on a smaller sample.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datamaran_bench::exhaustive_weblog;
use datamaran_core::generation::generate_legacy;
use datamaran_core::{generate, DatamaranConfig, Dataset};

fn bench_generation(c: &mut Criterion) {
    let text = exhaustive_weblog(96 * 1024, 14);
    let dataset = Dataset::new(text);

    let mut group = c.benchmark_group("generation_backends");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(dataset.len() as u64));
    let config = DatamaranConfig::default();
    group.bench_function("legacy", |b| {
        b.iter(|| generate_legacy(&dataset, &config).candidates.len())
    });
    group.bench_function("spans", |b| {
        b.iter(|| generate(&dataset, &config).candidates.len())
    });
    group.finish();

    // Thread scaling of the span engine (informative on multi-core hosts only).
    let mut group = c.benchmark_group("generation_spans_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let config = DatamaranConfig::default().with_generation_threads(threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &config,
            |b, config| b.iter(|| generate(&dataset, config).candidates.len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
