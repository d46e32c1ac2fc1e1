//! Extraction-pass micro-benchmark: the compiled instruction-table span engine, with and
//! without the copy into an owned `ParseResult`, plus thread scaling of its sharded pass.
//!
//! `cargo bench -p datamaran-bench --bench extraction`
//!
//! `reproduce -- extraction` records the engine's record count on ~1 MB into
//! `BENCH_extraction.json`, where `--check` holds it exact; this bench is the quick,
//! criterion-driven view of its wall time on a smaller sample.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datamaran_bench::exhaustive_weblog;
use datamaran_core::{Datamaran, Dataset, SpanLineMatcher, StructureTemplate};

fn bench_extraction(c: &mut Criterion) {
    let text = exhaustive_weblog(96 * 1024, 14);
    let (template, _) = Datamaran::with_defaults()
        .discover_structure(&text)
        .expect("weblog has structure")
        .expect("a template is found");
    let templates: Vec<StructureTemplate> = vec![template];
    let dataset = Dataset::new(text);

    let mut group = c.benchmark_group("extraction_span");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(dataset.len() as u64));
    let span = || SpanLineMatcher::new(&templates, 10).parse(&dataset, 1);
    group.bench_function("span", |b| b.iter(|| span().records.len()));
    group.bench_function("span_materialized", |b| {
        b.iter(|| span().to_parse_result().records.len())
    });
    group.finish();

    // Thread scaling of the sharded pass (informative on multi-core hosts only).
    let mut group = c.benchmark_group("extraction_span_threads");
    group.sample_size(10);
    for chunks in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(chunks),
            &chunks,
            |b, &chunks| {
                b.iter(|| {
                    SpanLineMatcher::new(&templates, 10)
                        .parse(&dataset, chunks)
                        .records
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_extraction);
criterion_main!(benches);
