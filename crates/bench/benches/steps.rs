//! Table 3 — per-step cost: generation, pruning, evaluation (refine + score) and the final
//! extraction parse, measured in isolation on a fixed workload.
//!
//! `cargo bench -p datamaran-bench --bench steps`

use criterion::{criterion_group, criterion_main, Criterion};
use datamaran_bench::scalable_weblog;
use datamaran_core::{
    assimilation::prune, extract_records, generate, refine::Refiner, DatamaranConfig, Dataset,
    MdlScorer,
};

fn bench_steps(c: &mut Criterion) {
    let text = scalable_weblog(96 * 1024, 14);
    let config = DatamaranConfig::default();
    let dataset = Dataset::new(text.clone());
    let sample = dataset.sample(config.sample_bytes, config.sample_chunks, config.seed);

    let mut group = c.benchmark_group("table3_steps");
    group.sample_size(10);

    group.bench_function("generation", |b| {
        b.iter(|| generate(&sample, &config).candidates.len())
    });

    let generation = generate(&sample, &config);
    group.bench_function("pruning", |b| {
        b.iter(|| {
            prune(generation.candidates.clone(), config.prune_keep)
                .kept
                .len()
        })
    });

    let pruned = prune(generation.candidates.clone(), config.prune_keep);
    let scorer = MdlScorer;
    group.bench_function("evaluation_refine_top10", |b| {
        b.iter(|| {
            let refiner = Refiner::new(&sample, &scorer, config.max_line_span);
            pruned
                .kept
                .iter()
                .take(10)
                .map(|cand| refiner.refine(&cand.template).score)
                .fold(f64::INFINITY, f64::min)
        })
    });

    let refiner = Refiner::new(&sample, &scorer, config.max_line_span);
    let best = refiner.refine(&pruned.kept[0].template).template;
    group.bench_function("extraction_full_parse", |b| {
        b.iter(|| {
            extract_records(&dataset, std::slice::from_ref(&best), &config)
                .records
                .len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_steps);
criterion_main!(benches);
