//! The generation step (§4.1, Algorithm 1): find structure templates satisfying the coverage
//! threshold assumption by enumerating `RT-CharSet` values and candidate record boundaries,
//! reducing every candidate record to its minimal structure template, and accumulating
//! per-template coverage in a hash table.
//!
//! The step runs on span projections: the sample is tokenized **once** under the superset
//! of all candidate characters ([`crate::span::LineIndex`]); each enumerated subset charset
//! re-derives every line's template by an `O(#occurrences)` projection instead of a fresh
//! scan, and the `2^c` (exhaustive) / `O(c²)` (greedy) charset evaluations run on scoped
//! worker threads.  A candidate window's minimal template is computed once per worker, as
//! the flat code run of [`mod@crate::reduce`], and interned into a [`TemplateId`] in one code
//! arena ([`crate::intern`]); a trie over line-sequence ids memoizes each window's id, so
//! the hash tables key on `u32`s.  The inner per-record loop builds no template tree and
//! makes no per-window heap allocation: the token and code buffers, the projection and
//! template arenas and the accumulator table are all reused.  A [`StructureTemplate`] is
//! decoded only when a template becomes a candidate.
//!
//! The original implementation — one full re-tokenization pass per charset, hash tables
//! keyed on owned token vectors and template trees — survives as the test reference
//! `generate_legacy`.  Both produce identical candidates (same templates, same coverage
//! statistics), which the equivalence property suite enforces.

use crate::chars::CharSet;
use crate::config::{DatamaranConfig, SearchStrategy};
use crate::dataset::Dataset;
use crate::fxhash::FxHashMap;
use crate::intern::{CodeInterner, TemplateId};
use crate::parallel::{effective_workers, resolve_threads, WorkQueue};
use crate::record::{RecordTemplate, TemplateToken};
use crate::reduce::{
    decode, flat_codes, reduce, reduce_codes, tokens_have_fold_from, MAX_FOLD_TOKENS,
    MAX_UNIT_TOKENS, MIN_REPS,
};
use crate::span::LineIndex;
use crate::structure::StructureTemplate;
use std::collections::HashMap;

/// Each exhaustive-search worker should get at least this many charsets (a charset
/// evaluation is a full pass over the sample, so even small batches amortize spawn cost).
const MIN_CHARSETS_PER_WORKER: usize = 2;

/// Target work-stealing chunks claimed per exhaustive-search worker: enough granularity to
/// re-balance the skewed mask costs, coarse enough that the atomic claim is noise.
const MASK_CHUNKS_PER_WORKER: usize = 8;

/// A candidate structure template produced by the generation step, with the statistics needed
/// by the pruning step.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The (minimal) structure template.
    pub template: StructureTemplate,
    /// Total number of bytes of candidate records that reduced to this template
    /// (the paper's coverage, `Cov(T, S)`).
    pub coverage: usize,
    /// Total number of bytes covered by field values inside those candidate records.
    pub field_coverage: usize,
    /// Number of candidate records that reduced to this template.
    pub hits: usize,
    /// Line index of the earliest candidate record observed (used by structure shifting).
    pub first_line: usize,
    /// The `RT-CharSet` under which the candidate was generated.
    pub charset: CharSet,
}

impl Candidate {
    /// The Non-Field-Coverage term of §4.2: bytes covered by formatting characters.
    pub fn non_field_coverage(&self) -> usize {
        self.coverage.saturating_sub(self.field_coverage)
    }

    /// The assimilation score `G(T, S) = Cov(T, S) × Non_Field_Cov(T, S)`.
    pub fn assimilation_score(&self) -> f64 {
        self.coverage as f64 * self.non_field_coverage() as f64
    }
}

/// Output of the generation step.
#[derive(Clone, Debug, Default)]
pub struct GenerationOutput {
    /// All candidate templates whose estimated coverage reaches the `α%` threshold.
    pub candidates: Vec<Candidate>,
    /// Size in bytes of the sample the step ran on.
    pub sample_len: usize,
    /// Number of `RT-CharSet` values enumerated (the paper's step-1 loop).
    pub charsets_enumerated: usize,
    /// Number of candidate records examined across all character sets.
    pub records_examined: usize,
    /// Window-memo misses: candidate windows whose template the span engine had to compute.
    /// Every worker keeps its own memo, so the count depends on the worker count; the test
    /// reference leaves it at 0.
    pub novel_windows: usize,
    /// Novel windows that ran the full fold search of [`reduce`] (the rest were above the
    /// fold cap or proven fold-free).  Depends on the worker count like `novel_windows`; 0
    /// from the reference.
    pub reductions: usize,
}

/// Accumulator stored in the generation hash table for one structure template.
#[derive(Clone, Debug, Default)]
struct Accum {
    coverage: usize,
    field_coverage: usize,
    hits: usize,
    first_line: usize,
    /// Byte offset up to which this bin's coverage has already been counted.  Candidate
    /// records overlap heavily (every pair of nearby line boundaries is a candidate), so
    /// without de-duplication a template that merely stacks `k` copies of a single-line
    /// template would count every byte `k` times and dominate the assimilation ranking.
    covered_until: usize,
}

impl Accum {
    /// Steps 3–5 of the generation procedure for one candidate record: count the bytes not
    /// yet covered by this bin (apportioning field bytes pro rata) and record the hit.
    /// Shared verbatim by the span engine and the legacy reference — candidate statistics
    /// must match bit-for-bit.
    fn record_candidate(
        &mut self,
        start: usize,
        start_byte: usize,
        span_bytes: usize,
        span_field_bytes: usize,
    ) {
        // Count only the bytes this bin has not covered yet (candidates are visited in
        // increasing start order, so a single high-water mark suffices).
        let end_byte = start_byte + span_bytes;
        let new_bytes = end_byte.saturating_sub(start_byte.max(self.covered_until));
        if new_bytes > 0 {
            self.coverage += new_bytes;
            // Field bytes are apportioned pro rata to the newly covered fraction.
            let scaled = (span_field_bytes as f64 * new_bytes as f64 / span_bytes.max(1) as f64)
                .round() as usize;
            self.field_coverage += scaled.min(new_bytes);
            self.covered_until = self.covered_until.max(end_byte);
        }
        self.hits += 1;
        if start < self.first_line {
            self.first_line = start;
        }
    }
}

/// Runs the generation step over a (sampled) dataset.
pub fn generate(sample: &Dataset, config: &DatamaranConfig) -> GenerationOutput {
    let (present, use_greedy) = search_plan(sample, config);
    let engine = SpanEngine::new(sample, present, config);
    if use_greedy {
        engine.greedy_search()
    } else {
        engine.exhaustive_search()
    }
}

/// The test reference for [`generate`]: the original single-threaded search, which
/// re-tokenizes every line for every enumerated charset and keys its hash tables on owned
/// token vectors and template trees.  Emits the same candidates as [`generate`]; kept only
/// so the differential suites and the `reproduce -- generation` gate can compare against
/// it, never reached from the pipeline.
#[doc(hidden)]
pub fn generate_legacy(sample: &Dataset, config: &DatamaranConfig) -> GenerationOutput {
    let (present, use_greedy) = search_plan(sample, config);
    if use_greedy {
        legacy::greedy_search(sample, &present, config)
    } else {
        legacy::exhaustive_search(sample, &present, config)
    }
}

/// The candidate characters present in the sample (always with `\n`), and whether the
/// search is greedy — either by configuration or because `2^c` subsets would be
/// unreasonably many.
fn search_plan(sample: &Dataset, config: &DatamaranConfig) -> (CharSet, bool) {
    let present = config
        .special_chars
        .restrict_to_text(sample.text())
        .union(&CharSet::from_chars(['\n']));
    let use_greedy = match config.search {
        SearchStrategy::Exhaustive => present.len().saturating_sub(1) > config.max_exhaustive_chars,
        SearchStrategy::Greedy => true,
    };
    (present, use_greedy)
}

/// Builds the subset charset of `extra` selected by `mask`, always including `\n`.
fn mask_to_charset(mask: u64, extra: &[char]) -> CharSet {
    let mut charset = CharSet::from_chars(['\n']);
    for (bit, &c) in extra.iter().enumerate() {
        if mask & (1 << bit) != 0 {
            charset.insert(c);
        }
    }
    charset
}

/// `true` when `new` should replace `old` as the representative discovery of one template:
/// larger coverage wins, ties go to the charset that the sequential enumeration would have
/// visited first.  Total order → the merge result is independent of evaluation order, which
/// is what makes the multi-threaded enumeration deterministic.
fn replaces(new: &Candidate, old: &Candidate) -> bool {
    new.coverage > old.coverage
        || (new.coverage == old.coverage
            && new.charset.cmp_enumeration_order(&old.charset) == std::cmp::Ordering::Less)
}

/// Merges per-charset candidate lists, keeping for each template the occurrence selected by
/// [`replaces`] (the same template can be discovered under several character sets).
fn merge_candidates(merged: &mut HashMap<StructureTemplate, Candidate>, found: Vec<Candidate>) {
    for cand in found {
        match merged.get_mut(&cand.template) {
            Some(existing) => {
                if replaces(&cand, existing) {
                    *existing = cand;
                }
            }
            None => {
                merged.insert(cand.template.clone(), cand);
            }
        }
    }
}

/// Asserts that two generation outputs are identical in every observable respect: sample
/// statistics and, per candidate, template, coverage, field coverage, hits, first line,
/// and charset.  This is the oracle of the differential suites comparing [`generate`] with
/// `generate_legacy` (unit tests here and `tests/span_equivalence.rs`); hidden from docs,
/// not for production use.  The span engine's work counters (`novel_windows`,
/// `reductions`) are not compared: they vary with the worker count, and the reference
/// does not count them.
#[doc(hidden)]
pub fn assert_outputs_identical(a: &GenerationOutput, b: &GenerationOutput, label: &str) {
    assert_eq!(a.sample_len, b.sample_len, "{label}: sample_len");
    assert_eq!(
        a.charsets_enumerated, b.charsets_enumerated,
        "{label}: charsets_enumerated"
    );
    assert_eq!(
        a.records_examined, b.records_examined,
        "{label}: records_examined"
    );
    assert_eq!(
        a.candidates.len(),
        b.candidates.len(),
        "{label}: candidate count"
    );
    for (x, y) in a.candidates.iter().zip(&b.candidates) {
        assert_eq!(x.template, y.template, "{label}: template");
        assert_eq!(
            x.coverage, y.coverage,
            "{label}: coverage of {}",
            x.template
        );
        assert_eq!(
            x.field_coverage, y.field_coverage,
            "{label}: field_coverage of {}",
            x.template
        );
        assert_eq!(x.hits, y.hits, "{label}: hits of {}", x.template);
        assert_eq!(
            x.first_line, y.first_line,
            "{label}: first_line of {}",
            x.template
        );
        assert_eq!(x.charset, y.charset, "{label}: charset of {}", x.template);
    }
}

/// Orders candidates by descending assimilation score (ties broken by template size for
/// determinism).
pub fn sort_candidates(candidates: &mut [Candidate]) {
    candidates.sort_by(|a, b| {
        b.assimilation_score()
            .partial_cmp(&a.assimilation_score())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                a.template
                    .description_chars()
                    .cmp(&b.template.description_chars())
            })
            .then_with(|| {
                a.template
                    .canonical_string()
                    .cmp(&b.template.canonical_string())
            })
    });
}

// ---------------------------------------------------------------------------------------
// Span engine
// ---------------------------------------------------------------------------------------

/// Store of interned line *token sequences*, shared across charsets within one worker.
///
/// Distinct shape classes can project to the same token sequence under a given subset
/// (they may differ only in demoted characters), so sequences — not classes — are the
/// sound per-line key for the record memo: a window of sequence ids uniquely determines
/// the record's token concatenation.
#[derive(Clone, Debug, Default)]
struct SeqStore {
    map: FxHashMap<Box<[TemplateToken]>, u32>,
    flat: Vec<TemplateToken>,
    /// `flat` range of sequence `s`: `offsets[s]..offsets[s + 1]`.
    offsets: Vec<u32>,
}

impl SeqStore {
    fn intern(&mut self, tokens: &[TemplateToken]) -> u32 {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        if let Some(&id) = self.map.get(tokens) {
            return id;
        }
        let id = (self.offsets.len() - 1) as u32;
        self.flat.extend_from_slice(tokens);
        self.offsets.push(self.flat.len() as u32);
        self.map.insert(tokens.into(), id);
        id
    }

    fn tokens(&self, id: u32) -> &[TemplateToken] {
        &self.flat[self.offsets[id as usize] as usize..self.offsets[id as usize + 1] as usize]
    }
}

/// Line projections of the whole sample under one subset charset: per-line sequence ids
/// and field-byte counts, derived from per-*class* projections (all buffers reused across
/// charsets — no per-line or per-token allocation).
#[derive(Clone, Debug, Default)]
struct ProjectedLines {
    /// Interned token-sequence id of each line.
    line_seq: Vec<u32>,
    /// Field-byte count of each line under the projected charset.
    field_len: Vec<u32>,
    /// Per-class scratch: sequence id and kept (formatting) bytes.
    class_seq: Vec<u32>,
    class_kept: Vec<u32>,
    /// Reusable projection buffer.
    scratch: Vec<TemplateToken>,
}

impl ProjectedLines {
    fn project(&mut self, index: &LineIndex, subset: &CharSet, seqs: &mut SeqStore) {
        self.class_seq.clear();
        self.class_kept.clear();
        for c in 0..index.class_count() as u32 {
            self.scratch.clear();
            index.project_class(c, subset, &mut self.scratch);
            self.class_seq.push(seqs.intern(&self.scratch));
            self.class_kept
                .push(index.class_kept_bytes(c, subset) as u32);
        }
        self.line_seq.clear();
        self.field_len.clear();
        for i in 0..index.line_count() {
            let class = index.class_of(i) as usize;
            self.line_seq.push(self.class_seq[class]);
            self.field_len
                .push(index.line_len(i) as u32 - self.class_kept[class]);
        }
    }
}

/// Dense accumulator table keyed by [`TemplateId`], reset per charset via an epoch stamp
/// (no per-charset clearing or rehashing).
#[derive(Clone, Debug, Default)]
struct Bins {
    accums: Vec<Accum>,
    epoch_mark: Vec<u64>,
    epoch: u64,
    touched: Vec<TemplateId>,
}

impl Bins {
    fn begin_charset(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    fn accum(&mut self, id: TemplateId, first_line: usize) -> &mut Accum {
        let idx = id.index();
        if idx >= self.accums.len() {
            self.accums.resize(idx + 1, Accum::default());
            self.epoch_mark.resize(idx + 1, 0);
        }
        if self.epoch_mark[idx] != self.epoch {
            self.epoch_mark[idx] = self.epoch;
            self.accums[idx] = Accum {
                first_line,
                ..Default::default()
            };
            self.touched.push(id);
        }
        &mut self.accums[idx]
    }
}

/// Memo of candidate windows: a trie over line-sequence ids.  The window of lines
/// `start..end` is the path `line_seq[start], …, line_seq[end - 1]` from [`WindowTrie::ROOT`],
/// so growing a window by one line is one probe keyed on `(parent window, line sequence id)`
/// (two `u32`s), whatever the window's length.  It replaces the legacy search's hash of the
/// record's full token vector.
#[derive(Debug, Default)]
struct WindowTrie {
    /// `(parent window, sequence id of the appended line)` → window.
    children: FxHashMap<(u32, u32), u32>,
    /// Per window: its interned minimal template, and whether it is verified fold-free (the
    /// bit seeds the incremental scan when the window is grown by another line).
    entries: Vec<(TemplateId, bool)>,
}

impl WindowTrie {
    /// The parent of every one-line window: the empty window.
    const ROOT: u32 = u32::MAX;

    /// The window `parent` grown by a line with sequence id `seq`, if already known.
    fn child(&self, parent: u32, seq: u32) -> Option<u32> {
        self.children.get(&(parent, seq)).copied()
    }

    /// Adds the window `parent` grown by `seq`, holding `entry`, and returns it.
    fn insert(&mut self, parent: u32, seq: u32, entry: (TemplateId, bool)) -> u32 {
        let window = self.entries.len() as u32;
        self.entries.push(entry);
        self.children.insert((parent, seq), window);
        window
    }
}

/// Per-worker mutable state: template arena, sequence store, window trie, accumulator
/// table, and the reusable buffers.  Each worker thread owns one, so the hot loop is
/// lock-free; per-thread results are merged deterministically at the end.
#[derive(Default)]
struct WorkerState {
    /// Minimal templates of the novel windows, as interned code runs.
    templates: CodeInterner,
    seqs: SeqStore,
    windows: WindowTrie,
    bins: Bins,
    proj: ProjectedLines,
    /// Reusable token buffer: the current window's record template.
    buffer: Vec<TemplateToken>,
    /// Reusable code buffer: a novel window's minimal template.
    codes: Vec<u32>,
    counts: WorkCounts,
}

/// The window work one worker did: memo misses, and the misses that ran a full [`reduce`].
#[derive(Clone, Copy, Debug, Default)]
struct WorkCounts {
    novel_windows: usize,
    reductions: usize,
}

impl WorkCounts {
    fn add_to(self, out: &mut GenerationOutput) {
        out.novel_windows += self.novel_windows;
        out.reductions += self.reductions;
    }
}

/// One template's best discovery within a worker, pending materialization.
#[derive(Clone, Copy, Debug)]
struct PartialCandidate {
    coverage: usize,
    field_coverage: usize,
    hits: usize,
    first_line: usize,
    charset: CharSet,
}

impl PartialCandidate {
    /// The candidate, its template decoded from its code run: the one place the span
    /// engine builds a [`StructureTemplate`].
    fn materialize(self, codes: &[u32]) -> Candidate {
        Candidate {
            template: decode(codes),
            coverage: self.coverage,
            field_coverage: self.field_coverage,
            hits: self.hits,
            first_line: self.first_line,
            charset: self.charset,
        }
    }
}

/// `true` when `new` should replace `old` (id-keyed version of [`replaces`]).
fn partial_replaces(new: &PartialCandidate, old: &PartialCandidate) -> bool {
    new.coverage > old.coverage
        || (new.coverage == old.coverage
            && new.charset.cmp_enumeration_order(&old.charset) == std::cmp::Ordering::Less)
}

/// The span-projection generation engine: superset tokenization shared immutably across
/// worker threads, per-charset projections, interned accumulators.
struct SpanEngine<'a> {
    sample: &'a Dataset,
    present: CharSet,
    config: &'a DatamaranConfig,
    index: LineIndex,
}

impl<'a> SpanEngine<'a> {
    fn new(sample: &'a Dataset, present: CharSet, config: &'a DatamaranConfig) -> Self {
        let index = LineIndex::build(sample, &present);
        SpanEngine {
            sample,
            present,
            config,
            index,
        }
    }

    /// Steps 2–5 for a single `RT-CharSet`: project every line, enumerate candidate record
    /// boundaries spanning at most `L` lines, reduce each candidate to its interned minimal
    /// template, and accumulate coverage.  Candidates reaching the `α%` threshold are merged
    /// into the worker's `found` table.
    fn generate_for_charset(
        &self,
        state: &mut WorkerState,
        charset: &CharSet,
        records_examined: &mut usize,
        found: &mut HashMap<TemplateId, PartialCandidate>,
    ) {
        let n = self.index.line_count();
        if n == 0 {
            return;
        }
        state.proj.project(&self.index, charset, &mut state.seqs);
        state.bins.begin_charset();

        let max_span = self.config.max_line_span.max(1);
        let line_seq = std::mem::take(&mut state.proj.line_seq);
        let mut buffer = std::mem::take(&mut state.buffer);
        let mut codes = std::mem::take(&mut state.codes);
        for start in 0..n {
            let mut span_bytes = 0usize;
            let mut span_field_bytes = 0usize;
            let start_byte = self.sample.line_start(start);
            // The window's token concatenation grows incrementally with the span, and
            // `fold_free` tracks whether the *previous* (shorter) window was proven free of
            // foldable tandem repeats — the invariant that lets a novel window be decided
            // with a scan restricted to the region near the freshly appended line instead
            // of a full reduction.
            buffer.clear();
            let mut fold_free = true;
            let mut window = WindowTrie::ROOT;
            for span in 1..=max_span {
                let end = start + span;
                if end > n {
                    break;
                }
                span_bytes += self.index.line_len(end - 1);
                span_field_bytes += state.proj.field_len[end - 1] as usize;
                let old_len = buffer.len();
                let seq = line_seq[end - 1];
                buffer.extend_from_slice(state.seqs.tokens(seq));
                *records_examined += 1;

                let (id, window_fold_free) = match state.windows.child(window, seq) {
                    Some(child) => {
                        window = child;
                        state.windows.entries[child as usize]
                    }
                    None => {
                        // First sighting of this window.  An empty one (its lines project
                        // to no tokens) is no candidate record, but longer windows grow
                        // from its node.  Otherwise three cases, cheapest first: above the
                        // fold cap the reduction stays flat by definition; a window whose
                        // prefix was fold-free and whose restricted scan finds no new fold
                        // is flat too (each token its own code, no fold search); only
                        // windows actually containing a fold pay the full reduction.
                        codes.clear();
                        let ff = if buffer.is_empty() {
                            true
                        } else {
                            state.counts.novel_windows += 1;
                            let flat = buffer.len() > MAX_FOLD_TOKENS;
                            let ff = !flat
                                && fold_free
                                && !tokens_have_fold_from(
                                    &buffer,
                                    old_len.saturating_sub((MIN_REPS + 1) * MAX_UNIT_TOKENS),
                                );
                            if flat || ff {
                                flat_codes(&buffer, &mut codes);
                            } else {
                                state.counts.reductions += 1;
                                reduce_codes(&buffer, &mut codes);
                            }
                            ff
                        };
                        let entry = (state.templates.intern(&codes), ff);
                        window = state.windows.insert(window, seq, entry);
                        entry
                    }
                };
                fold_free = window_fold_free;
                if buffer.is_empty() {
                    continue;
                }
                state.bins.accum(id, start).record_candidate(
                    start,
                    start_byte,
                    span_bytes,
                    span_field_bytes,
                );
            }
        }
        state.buffer = buffer;
        state.codes = codes;
        state.proj.line_seq = line_seq;

        let threshold = ((self.config.alpha * self.sample.len() as f64).ceil() as usize).max(1);
        for &id in &state.bins.touched {
            let acc = &state.bins.accums[id.index()];
            if acc.coverage < threshold {
                continue;
            }
            let partial = PartialCandidate {
                coverage: acc.coverage,
                field_coverage: acc.field_coverage,
                hits: acc.hits,
                first_line: acc.first_line,
                charset: *charset,
            };
            match found.get_mut(&id) {
                Some(existing) => {
                    if partial_replaces(&partial, existing) {
                        *existing = partial;
                    }
                }
                None => {
                    found.insert(id, partial);
                }
            }
        }
    }

    /// Evaluates one charset in isolation (greedy search needs the per-charset candidate
    /// list rather than a running merge).
    fn candidates_for_charset(
        &self,
        state: &mut WorkerState,
        charset: &CharSet,
        records_examined: &mut usize,
    ) -> Vec<Candidate> {
        let mut found = HashMap::new();
        self.generate_for_charset(state, charset, records_examined, &mut found);
        found
            .into_iter()
            .map(|(id, partial)| partial.materialize(state.templates.codes(id)))
            .collect()
    }

    /// Enumerates all subsets of the present candidate characters (always keeping `\n`)
    /// across worker threads and merges the per-thread results deterministically.
    fn exhaustive_search(&self) -> GenerationOutput {
        let extra: Vec<char> = self.present.iter().filter(|&c| c != '\n').collect();
        let n_masks = 1usize << extra.len();
        let mut out = GenerationOutput {
            sample_len: self.sample.len(),
            charsets_enumerated: n_masks,
            ..Default::default()
        };

        let workers = effective_workers(
            resolve_threads(self.config.generation_threads),
            n_masks,
            MIN_CHARSETS_PER_WORKER,
        );
        let extra = &extra;

        // Mask costs are heavily skewed (the all-characters subsets tokenize far more
        // material than the near-empty ones), so workers *claim* chunks from an atomic
        // queue instead of being pre-assigned static ranges — no shard can strand the
        // others idle.  The merge is order-independent (`replaces` is a total order), so
        // which worker evaluates which mask cannot change the result.
        let queue = WorkQueue::for_workers(n_masks, workers, MASK_CHUNKS_PER_WORKER);
        let queue = &queue;

        // Each worker owns its interner / memo / bins and merges its claimed masks locally
        // (keyed by template id); materialized results are merged globally afterwards.
        let results: Vec<(Vec<Candidate>, usize, WorkCounts)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut state = WorkerState::default();
                        let mut records = 0usize;
                        let mut found: HashMap<TemplateId, PartialCandidate> = HashMap::new();
                        while let Some(range) = queue.claim() {
                            for mask in range {
                                let charset = mask_to_charset(mask as u64, extra);
                                self.generate_for_charset(
                                    &mut state,
                                    &charset,
                                    &mut records,
                                    &mut found,
                                );
                            }
                        }
                        let candidates = found
                            .into_iter()
                            .map(|(id, p)| p.materialize(state.templates.codes(id)))
                            .collect();
                        (candidates, records, state.counts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generation worker panicked"))
                .collect()
        });

        let mut merged: HashMap<StructureTemplate, Candidate> = HashMap::new();
        for (candidates, records, counts) in results {
            out.records_examined += records;
            counts.add_to(&mut out);
            merge_candidates(&mut merged, candidates);
        }
        out.candidates = merged.into_values().collect();
        sort_candidates(&mut out.candidates);
        out
    }

    /// The greedy `RT-CharSet` search of Appendix 9.1: grow the character set one character
    /// at a time, always adding the character whose induced structure templates achieve the
    /// highest assimilation score.  Each round's extension candidates are evaluated on
    /// worker threads; the selection replays the sequential order, so the result is
    /// identical to a single-threaded run.
    fn greedy_search(&self) -> GenerationOutput {
        let mut out = GenerationOutput {
            sample_len: self.sample.len(),
            ..Default::default()
        };
        let mut merged: HashMap<StructureTemplate, Candidate> = HashMap::new();

        // One persistent state per worker slot: the sequence store and window trie carry
        // across rounds, so a window is reduced at most once per worker for the whole
        // search rather than once per round (the memo is pure, so reuse cannot change
        // results).
        let max_workers = resolve_threads(self.config.generation_threads);
        let mut states: Vec<WorkerState> = vec![WorkerState::default()];

        let mut current = CharSet::from_chars(['\n']);
        let base = self.candidates_for_charset(&mut states[0], &current, &mut out.records_examined);
        out.charsets_enumerated += 1;
        merge_candidates(&mut merged, base);

        let all_extra: Vec<char> = self.present.iter().filter(|&c| c != '\n').collect();
        loop {
            let remaining: Vec<char> = all_extra
                .iter()
                .copied()
                .filter(|c| !current.contains(*c))
                .collect();
            if remaining.is_empty() {
                break;
            }

            // Evaluate every one-character extension in parallel: extension costs are
            // skewed the same way mask costs are (each added character grows the kept
            // token mass), so workers claim extensions one at a time from an atomic queue
            // and results are re-sorted by extension index before the selection replay.
            let workers = effective_workers(max_workers, remaining.len(), 1);
            while states.len() < workers {
                states.push(WorkerState::default());
            }
            let remaining_ref = &remaining;
            let current_set = current;
            let queue = WorkQueue::new(remaining.len(), 1);
            let queue = &queue;
            let mut indexed: Vec<(usize, Vec<Candidate>, usize)> = std::thread::scope(|scope| {
                let handles: Vec<_> = states
                    .iter_mut()
                    .take(workers)
                    .map(|state| {
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            while let Some(range) = queue.claim() {
                                for i in range {
                                    let mut candidate_set = current_set;
                                    candidate_set.insert(remaining_ref[i]);
                                    let mut records = 0usize;
                                    let found = self.candidates_for_charset(
                                        state,
                                        &candidate_set,
                                        &mut records,
                                    );
                                    done.push((i, found, records));
                                }
                            }
                            done
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("generation worker panicked"))
                    .collect()
            });
            indexed.sort_by_key(|(i, _, _)| *i);

            // Replay the sequential selection over the evaluations, in `remaining` order.
            out.charsets_enumerated += remaining.len();
            let mut best: Option<(char, f64, Vec<Candidate>)> = None;
            for (&c, (_, found, records)) in remaining.iter().zip(indexed) {
                out.records_examined += records;
                let score = found
                    .iter()
                    .map(Candidate::assimilation_score)
                    .fold(0.0_f64, f64::max);
                let better = match &best {
                    None => !found.is_empty(),
                    Some((_, best_score, _)) => score > *best_score,
                };
                if better {
                    best = Some((c, score, found));
                }
            }
            match best {
                Some((c, _score, found)) if !found.is_empty() => {
                    current.insert(c);
                    merge_candidates(&mut merged, found);
                }
                // No extension produced a template with at least α% coverage: stop growing.
                _ => break,
            }
        }

        for state in &states {
            state.counts.add_to(&mut out);
        }
        out.candidates = merged.into_values().collect();
        sort_candidates(&mut out.candidates);
        out
    }
}

// ---------------------------------------------------------------------------------------
// Legacy search (the test reference behind `generate_legacy`)
// ---------------------------------------------------------------------------------------

mod legacy {
    use super::*;

    /// Enumerates all subsets of the present candidate characters (always keeping `\n`) and
    /// collects candidates from each, sequentially re-tokenizing the sample per subset.
    pub(super) fn exhaustive_search(
        sample: &Dataset,
        present: &CharSet,
        config: &DatamaranConfig,
    ) -> GenerationOutput {
        let extra: Vec<char> = present.iter().filter(|&c| c != '\n').collect();
        let mut out = GenerationOutput {
            sample_len: sample.len(),
            ..Default::default()
        };
        let mut merged: HashMap<StructureTemplate, Candidate> = HashMap::new();

        for mask in 0u64..(1u64 << extra.len()) {
            let charset = mask_to_charset(mask, &extra);
            let found = generate_for_charset(sample, &charset, config, &mut out.records_examined);
            out.charsets_enumerated += 1;
            merge_candidates(&mut merged, found);
        }

        out.candidates = merged.into_values().collect();
        sort_candidates(&mut out.candidates);
        out
    }

    /// The greedy `RT-CharSet` search of Appendix 9.1, single-threaded.
    pub(super) fn greedy_search(
        sample: &Dataset,
        present: &CharSet,
        config: &DatamaranConfig,
    ) -> GenerationOutput {
        let mut out = GenerationOutput {
            sample_len: sample.len(),
            ..Default::default()
        };
        let mut merged: HashMap<StructureTemplate, Candidate> = HashMap::new();

        let mut current = CharSet::from_chars(['\n']);
        let base = generate_for_charset(sample, &current, config, &mut out.records_examined);
        out.charsets_enumerated += 1;
        merge_candidates(&mut merged, base);

        let all_extra: Vec<char> = present.iter().filter(|&c| c != '\n').collect();
        loop {
            let remaining: Vec<char> = all_extra
                .iter()
                .copied()
                .filter(|c| !current.contains(*c))
                .collect();
            if remaining.is_empty() {
                break;
            }
            let mut best: Option<(char, f64, Vec<Candidate>)> = None;
            for &c in &remaining {
                let mut candidate_set = current;
                candidate_set.insert(c);
                let found =
                    generate_for_charset(sample, &candidate_set, config, &mut out.records_examined);
                out.charsets_enumerated += 1;
                let score = found
                    .iter()
                    .map(Candidate::assimilation_score)
                    .fold(0.0_f64, f64::max);
                let better = match &best {
                    None => !found.is_empty(),
                    Some((_, best_score, _)) => score > *best_score,
                };
                if better {
                    best = Some((c, score, found));
                }
            }
            match best {
                Some((c, _score, found)) if !found.is_empty() => {
                    current.insert(c);
                    merge_candidates(&mut merged, found);
                }
                // No extension produced a template with at least α% coverage: stop growing.
                _ => break,
            }
        }

        out.candidates = merged.into_values().collect();
        sort_candidates(&mut out.candidates);
        out
    }

    /// Steps 2–5 of the generation procedure for a single `RT-CharSet` value, re-tokenizing
    /// every line from scratch (the pre-span implementation).
    pub(super) fn generate_for_charset(
        sample: &Dataset,
        charset: &CharSet,
        config: &DatamaranConfig,
        records_examined: &mut usize,
    ) -> Vec<Candidate> {
        let n = sample.line_count();
        if n == 0 {
            return Vec::new();
        }

        // Pre-tokenize every line once for this charset.
        let line_tokens: Vec<Vec<TemplateToken>> = (0..n)
            .map(|i| {
                RecordTemplate::from_instantiated(sample.line(i), charset)
                    .tokens()
                    .to_vec()
            })
            .collect();
        let line_field_len: Vec<usize> = (0..n)
            .map(|i| crate::record::field_char_len(sample.line(i), charset))
            .collect();
        let line_len: Vec<usize> = (0..n).map(|i| sample.line(i).len()).collect();

        // Memoize the reduction of identical token sequences: log lines repeat heavily, so
        // most candidate records share their minimal structure template with an earlier one.
        let mut memo: HashMap<Vec<TemplateToken>, StructureTemplate> = HashMap::new();
        let mut bins: HashMap<StructureTemplate, Accum> = HashMap::new();

        let max_span = config.max_line_span.max(1);
        let mut buffer: Vec<TemplateToken> = Vec::new();

        for start in 0..n {
            buffer.clear();
            let mut span_bytes = 0usize;
            let mut span_field_bytes = 0usize;
            let start_byte = sample.line_start(start);
            for span in 1..=max_span {
                let end = start + span;
                if end > n {
                    break;
                }
                buffer.extend_from_slice(&line_tokens[end - 1]);
                span_bytes += line_len[end - 1];
                span_field_bytes += line_field_len[end - 1];
                *records_examined += 1;

                let template = match memo.get(buffer.as_slice()) {
                    Some(t) => t.clone(),
                    None => {
                        let rt = RecordTemplate::from_tokens(buffer.clone());
                        let t = reduce(&rt);
                        memo.insert(buffer.clone(), t.clone());
                        t
                    }
                };
                if template.is_empty() {
                    continue;
                }
                bins.entry(template)
                    .or_insert_with(|| Accum {
                        first_line: start,
                        ..Default::default()
                    })
                    .record_candidate(start, start_byte, span_bytes, span_field_bytes);
            }
        }

        let threshold = (config.alpha * sample.len() as f64).ceil() as usize;
        bins.into_iter()
            .filter(|(_, acc)| acc.coverage >= threshold.max(1))
            .map(|(template, acc)| Candidate {
                template,
                coverage: acc.coverage,
                field_coverage: acc.field_coverage,
                hits: acc.hits,
                first_line: acc.first_line,
                charset: *charset,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatamaranConfig;

    fn single_line_log(n: usize) -> String {
        let mut s = String::new();
        for i in 0..n {
            s.push_str(&format!(
                "[{:02}:{:02}:{:02}] 10.0.{}.{} GET /index\n",
                i % 24,
                i % 60,
                i % 60,
                i % 256,
                (i * 7) % 256
            ));
        }
        s
    }

    fn config() -> DatamaranConfig {
        DatamaranConfig::default().with_max_line_span(3)
    }

    #[test]
    fn finds_single_line_template_with_high_coverage() {
        let data = Dataset::new(single_line_log(200));
        let out = generate(&data, &config());
        assert!(!out.candidates.is_empty());
        // The best-assimilation candidate should be a single-line template covering most of
        // the dataset.
        let best = &out.candidates[0];
        assert!(best.coverage > data.len() / 2, "coverage {}", best.coverage);
        assert_eq!(
            best.template.min_line_span(),
            1,
            "template: {}",
            best.template
        );
    }

    #[test]
    fn exhaustive_enumerates_multiple_charsets() {
        let data = Dataset::new(single_line_log(50));
        let out = generate(&data, &config());
        assert!(out.charsets_enumerated > 1);
        assert!(out.records_examined > 50);
    }

    #[test]
    fn greedy_finds_a_comparable_template() {
        let data = Dataset::new(single_line_log(200));
        let exh = generate(&data, &config());
        let grd = generate(&data, &config().with_search(SearchStrategy::Greedy));
        assert!(!grd.candidates.is_empty());
        // Greedy enumerates far fewer charsets than exhaustive.
        assert!(grd.charsets_enumerated <= exh.charsets_enumerated);
        // Both find a dominant single-line template.
        assert_eq!(grd.candidates[0].template.min_line_span(), 1);
    }

    #[test]
    fn multi_line_records_are_captured_within_span_limit() {
        // Two-line records: a header line and a detail line.
        let mut s = String::new();
        for i in 0..100 {
            s.push_str(&format!("BEGIN {i}\nvalue={i};status=ok\n"));
        }
        let data = Dataset::new(s);
        let out = generate(&data, &DatamaranConfig::default().with_max_line_span(4));
        // Some candidate must span 2 lines.
        assert!(
            out.candidates
                .iter()
                .any(|c| c.template.min_line_span() >= 2),
            "no multi-line candidate found"
        );
    }

    #[test]
    fn coverage_threshold_filters_rare_templates() {
        // 95 csv lines and 5 odd lines: the odd lines' template cannot reach 10% coverage.
        let mut s = String::new();
        for i in 0..95 {
            s.push_str(&format!("{i},{},{}\n", i * 2, i * 3));
        }
        for _ in 0..5 {
            s.push_str("### noise ###\n");
        }
        let data = Dataset::new(s);
        let out = generate(&data, &config().with_alpha(0.2));
        for cand in &out.candidates {
            assert!(cand.coverage >= (0.2 * data.len() as f64) as usize);
        }
    }

    #[test]
    fn assimilation_score_prefers_more_structured_template() {
        // For the bracketed log, the template that recognises ':' and '.' as formatting has a
        // larger non-field coverage than the one that treats them as field content.
        let data = Dataset::new(single_line_log(100));
        let out = generate(&data, &config());
        let best = &out.candidates[0];
        let best_score = best.assimilation_score();
        for c in &out.candidates {
            assert!(best_score >= c.assimilation_score());
        }
        assert!(best.non_field_coverage() > 0);
    }

    #[test]
    fn empty_dataset_produces_no_candidates() {
        let data = Dataset::new("");
        let out = generate(&data, &config());
        assert!(out.candidates.is_empty());
        assert_eq!(out.records_examined, 0);
    }

    #[test]
    fn candidate_non_field_coverage_never_exceeds_coverage() {
        let data = Dataset::new(single_line_log(80));
        let out = generate(&data, &config());
        for c in &out.candidates {
            assert!(c.non_field_coverage() <= c.coverage);
            assert!(c.hits > 0);
        }
    }

    fn workloads() -> Vec<(&'static str, String)> {
        let mut multi = String::new();
        for i in 0..120 {
            multi.push_str(&format!("REQ {i}\nuser=u{};ms={}\n", i % 9, (i * 37) % 500));
            if i % 11 == 0 {
                multi.push_str("## banner ##\n");
            }
        }
        let mut csv = String::new();
        for i in 0..150 {
            csv.push_str(&format!("{i},{},{},\"x,y\"\n", i * 2, i % 7));
        }
        vec![
            ("weblog", single_line_log(150)),
            ("multiline", multi),
            ("csv_quoted", csv),
            ("tiny", "a b\n".to_string()),
            ("no_trailing_newline", "k=1\nk=2\nk=3".to_string()),
        ]
    }

    #[test]
    fn span_backend_matches_legacy_exhaustive() {
        for (name, text) in workloads() {
            let data = Dataset::new(text);
            let spans = generate(&data, &config());
            let legacy = generate_legacy(&data, &config());
            assert_outputs_identical(&spans, &legacy, name);
        }
    }

    #[test]
    fn span_backend_matches_legacy_greedy() {
        for (name, text) in workloads() {
            let data = Dataset::new(text);
            let greedy = config().with_search(SearchStrategy::Greedy);
            let spans = generate(&data, &greedy);
            let legacy = generate_legacy(&data, &greedy);
            assert_outputs_identical(&spans, &legacy, name);
        }
    }

    #[test]
    fn work_counters_are_pinned_at_one_thread() {
        // (records examined, novel windows, full reductions) of the exhaustive and the
        // greedy search on one worker.  The counts are exact, so a change that makes
        // generation reduce more (or fewer) windows shows here, apart from its timing.
        let expected = [
            ("weblog", (28_608, 192, 156), (9_834, 66, 51)),
            ("multiline", (12_000, 95, 70), (8_250, 71, 50)),
            ("csv_quoted", (1_788, 12, 3), (1_788, 12, 3)),
            ("tiny", (2, 2, 0), (2, 2, 0)),
            ("no_trailing_newline", (12, 10, 0), (12, 10, 0)),
        ];
        for ((name, text), (label, exhaustive, greedy)) in workloads().into_iter().zip(expected) {
            assert_eq!(name, label);
            let data = Dataset::new(text);
            let one = config().with_generation_threads(1);
            for (search, want) in [
                (SearchStrategy::Exhaustive, exhaustive),
                (SearchStrategy::Greedy, greedy),
            ] {
                let out = generate(&data, &one.clone().with_search(search));
                assert_eq!(
                    (out.records_examined, out.novel_windows, out.reductions),
                    want,
                    "{name}, {search:?}"
                );
            }
        }
    }

    #[test]
    fn span_backend_is_thread_count_invariant() {
        let data = Dataset::new(single_line_log(120));
        let sequential = generate(&data, &config().with_generation_threads(1));
        for threads in [2, 3, 8] {
            let parallel = generate(&data, &config().with_generation_threads(threads));
            assert_outputs_identical(&sequential, &parallel, &format!("{threads} threads"));
        }
    }

    #[test]
    fn backend_names_are_stable() {
        use crate::config::GenerationBackend;
        assert_eq!(GenerationBackend::Spans.name(), "spans");
        assert_eq!(GenerationBackend::default(), GenerationBackend::Spans);
    }
}
