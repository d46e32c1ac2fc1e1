//! Worker-pool plumbing shared by the parallel engines, and the design of the parallel
//! final extraction (§5.2.2).
//!
//! The paper observes that for large datasets the running time is dominated by the actual
//! data-extraction pass ("the majority of the running time is spent on running the LL(1)
//! parser"), and that this pass "is eminently parallelizable".
//! [`SpanLineMatcher::parse`](crate::extract::SpanLineMatcher::parse) implements that
//! parallelization with `std::thread::scope` scoped threads; its callers
//! ([`extract_records`](crate::extract::extract_records) and the streaming window loop)
//! size the chunk count from
//! [`DatamaranConfig::extraction_threads`](crate::config::DatamaranConfig::extraction_threads)
//! with [`effective_workers`] and `MIN_CHUNK_LINES`.
//!
//! The key property that makes the pass parallel is that the question *"does a record of one
//! of the templates start at line `i`?"* depends only on the text from line `i` onwards —
//! never on how earlier lines were segmented.  The algorithm therefore:
//!
//! 1. splits the line range into one contiguous chunk per worker ([`chunk_bounds`]);
//! 2. each worker answers the per-line question for every line of its chunk, producing a
//!    *match table*;
//! 3. a cheap sequential stitch pass replays the greedy left-to-right segmentation by
//!    reading the precomputed tables, so the output is byte-for-byte identical to the
//!    sequential extractor and to the tree-walking reference
//!    [`crate::parser::parse_dataset`] (verified by this module's tests and by the property
//!    suite).
//!
//! The stitch is `O(n)` with trivial constants; all template matching happens in the workers.
//! The generation and evaluation engines reuse the worker sizing ([`effective_workers`],
//! [`resolve_threads`]) and, where per-item cost is skewed, the [`WorkQueue`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum number of lines per extraction chunk: inputs smaller than `threads *
/// MIN_CHUNK_LINES` lines use fewer workers, so per-thread overhead never dominates.
/// Batch extraction and every streaming window size their chunk count with it.
pub(crate) const MIN_CHUNK_LINES: usize = 512;

/// Number of workers worth spawning for `n_items` units of work: the requested `threads`,
/// capped so that each worker gets at least `min_items_per_worker` items (per-thread
/// overhead must never dominate).  `0` or `1` threads means sequential.
///
/// Shared by the parallel extraction pass and the generation step's charset enumeration.
pub fn effective_workers(threads: usize, n_items: usize, min_items_per_worker: usize) -> usize {
    if threads <= 1 {
        return 1;
    }
    let by_size = n_items / min_items_per_worker.max(1);
    threads.min(by_size.max(1))
}

/// Splits `0..n` into at most `chunks` contiguous, near-equal, non-empty ranges.
pub fn chunk_bounds(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1);
    (0..chunks)
        .map(|k| (k * n / chunks, (k + 1) * n / chunks))
        .filter(|(a, b)| b > a)
        .collect()
}

/// Chunked atomic-counter work queue: scoped workers claim the next chunk of `0..total`
/// instead of being pre-assigned a static range — the work-stealing replacement for
/// [`chunk_bounds`] wherever per-item cost is *skewed* (e.g. the generation step's charset
/// masks: the all-characters subsets tokenize far more material than the near-empty ones,
/// so static shards leave the light-shard workers idle while the heavy shard finishes).
///
/// Determinism is the claimant's obligation: use the queue only where the merge of
/// per-item results is order-independent (the generation merges are, by the total order of
/// `replaces`) or where results are re-sorted by item index afterwards.
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicUsize,
    total: usize,
    chunk: usize,
}

impl WorkQueue {
    /// A queue over `0..total` handing out chunks of `chunk` items (at least 1).
    pub fn new(total: usize, chunk: usize) -> Self {
        WorkQueue {
            next: AtomicUsize::new(0),
            total,
            chunk: chunk.max(1),
        }
    }

    /// A queue sized so each of `workers` workers claims ~`chunks_per_worker` chunks on
    /// average — small enough to re-balance skew, large enough to amortize the atomic.
    pub fn for_workers(total: usize, workers: usize, chunks_per_worker: usize) -> Self {
        let target = (workers * chunks_per_worker).max(1);
        Self::new(total, total.div_ceil(target))
    }

    /// Claims the next chunk, or `None` when the queue is drained.
    pub fn claim(&self) -> Option<std::ops::Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(start..(start + self.chunk).min(self.total))
    }
}

/// Resolves a thread-count knob: `0` means "one per available core".
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::CharSet;
    use crate::dataset::Dataset;
    use crate::extract::SpanLineMatcher;
    use crate::parser::{parse_dataset, ParseResult};
    use crate::record::RecordTemplate;
    use crate::reduce::reduce;
    use crate::structure::StructureTemplate;

    fn flat(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
    }

    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 32;
        x
    }

    fn noisy_multiline_log(n: usize) -> String {
        let mut s = String::new();
        for i in 0..n as u64 {
            s.push_str(&format!(
                "REQ {}\nuser=u{};ms={}\n",
                i,
                mix(i) % 50,
                mix(i * 3) % 900
            ));
            if mix(i * 7).is_multiple_of(11) {
                s.push_str(&format!("## banner {} ##\n", mix(i) % 4096));
            }
        }
        s
    }

    /// The span engine's pass over `chunks` shards, materialized for comparison with the
    /// tree walker.
    fn span_parallel(
        dataset: &Dataset,
        templates: &[StructureTemplate],
        max_line_span: usize,
        chunks: usize,
    ) -> ParseResult {
        SpanLineMatcher::new(templates, max_line_span)
            .parse(dataset, chunks)
            .to_parse_result()
    }

    fn assert_same(a: &ParseResult, b: &ParseResult) {
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.noise_lines, b.noise_lines);
        assert_eq!(a.record_bytes, b.record_bytes);
        assert_eq!(a.noise_bytes, b.noise_bytes);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.byte_span, y.byte_span);
            assert_eq!(x.line_span, y.line_span);
            assert_eq!(x.template_index, y.template_index);
            assert_eq!(x.fields, y.fields);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_multiline_noisy_log() {
        let text = noisy_multiline_log(400);
        let data = Dataset::new(text);
        let st = flat("REQ 1\nuser=u2;ms=3\n", " =;\n");
        let seq = parse_dataset(&data, std::slice::from_ref(&st), 10);
        for chunks in [2, 3, 7] {
            let par = span_parallel(&data, std::slice::from_ref(&st), 10, chunks);
            assert_same(&seq, &par);
        }
        assert!(seq.records.len() >= 390);
        assert!(!seq.noise_lines.is_empty());
    }

    #[test]
    fn parallel_matches_sequential_with_multiple_templates_and_arrays() {
        let mut text = String::new();
        for i in 0..300u64 {
            if mix(i).is_multiple_of(3) {
                let k = 1 + (mix(i * 5) % 4) as usize;
                let vals: Vec<String> = (0..k)
                    .map(|j| format!("{}", mix(i + j as u64) % 99))
                    .collect();
                text.push_str(&vals.join(","));
                text.push('\n');
            } else {
                text.push_str(&format!("[{:02}] host{} ok\n", i % 60, mix(i) % 9));
            }
        }
        let data = Dataset::new(text);
        let csv = reduce(&RecordTemplate::from_instantiated(
            "1,2,3\n",
            &CharSet::from_chars(",\n".chars()),
        ));
        let bracket = flat("[01] host2 ok\n", "[] \n");
        let templates = vec![bracket, csv];
        let seq = parse_dataset(&data, &templates, 10);
        let par = span_parallel(&data, &templates, 10, 4);
        assert_same(&seq, &par);
    }

    #[test]
    fn records_spanning_chunk_boundaries_are_not_split() {
        // Two-line records with a chunk count that puts boundaries inside records.
        let mut text = String::new();
        for i in 0..101 {
            text.push_str(&format!("HDR {i}\nbody={i};done\n"));
        }
        let data = Dataset::new(text);
        let st = flat("HDR 1\nbody=2;done\n", " =;\n");
        let par = span_parallel(&data, std::slice::from_ref(&st), 10, 7);
        assert_eq!(par.records.len(), 101);
        assert!(par.noise_lines.is_empty());
        for r in &par.records {
            assert_eq!(r.line_count(), 2);
        }
    }

    #[test]
    fn single_thread_option_falls_back_to_sequential() {
        let data = Dataset::new("a=1\na=2\n");
        let st = flat("a=1\n", "=\n");
        let par = span_parallel(&data, std::slice::from_ref(&st), 10, 1);
        assert_eq!(par.records.len(), 2);
    }

    #[test]
    fn small_datasets_use_fewer_chunks() {
        assert_eq!(effective_workers(16, 100, MIN_CHUNK_LINES), 1);
        assert_eq!(effective_workers(16, 1024, MIN_CHUNK_LINES), 2);
        assert_eq!(effective_workers(16, 1_000_000, MIN_CHUNK_LINES), 16);
        assert_eq!(effective_workers(0, 10_000, MIN_CHUNK_LINES), 1);
    }

    #[test]
    fn work_queue_claims_cover_every_item_exactly_once() {
        for (total, chunk) in [
            (0usize, 3usize),
            (1, 1),
            (10, 3),
            (17, 4),
            (64, 64),
            (5, 100),
        ] {
            let queue = WorkQueue::new(total, chunk);
            let mut seen = vec![false; total];
            while let Some(range) = queue.claim() {
                for i in range {
                    assert!(
                        !seen[i],
                        "item {i} claimed twice (total {total}, chunk {chunk})"
                    );
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "total {total}, chunk {chunk}");
            assert!(queue.claim().is_none(), "drained queue stays drained");
        }
    }

    #[test]
    fn work_queue_is_safe_under_concurrent_claims() {
        let queue = WorkQueue::for_workers(1000, 4, 8);
        let claimed: Vec<usize> = std::thread::scope(|scope| {
            let queue = &queue;
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(range) = queue.claim() {
                            mine.extend(range);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = claimed;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn empty_dataset_parses_to_nothing() {
        let data = Dataset::new("");
        let st = flat("a=1\n", "=\n");
        for chunks in [1, 4] {
            let par = span_parallel(&data, std::slice::from_ref(&st), 10, chunks);
            assert!(par.records.is_empty());
            assert!(par.noise_lines.is_empty());
        }
    }
}
