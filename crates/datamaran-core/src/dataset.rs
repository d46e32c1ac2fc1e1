//! Line-indexed view over a log dataset, plus the cache-aware sampling used by the
//! generation and evaluation steps (Appendix 9.1, "Sampling Technique").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A log dataset: the raw text plus an index of line boundaries.
///
/// Lines are the blocks of Definition 2.4: maximal runs terminated by `\n` (the final line
/// may lack the terminator).  Each line's text *includes* its trailing `\n` so that record
/// templates always end with the end-of-line character.
///
/// The text lives in a shared [`Arc`] so downstream span-backed structures (the relational
/// [`Table`](crate::relational::Table) cells) can reference the one buffer without copying
/// cell values and without borrowing lifetimes leaking into the public result types.
#[derive(Clone, Debug)]
pub struct Dataset {
    text: Arc<str>,
    /// Byte offset of the first character of each line, with a sentinel equal to
    /// `text.len()` appended for span arithmetic: `line_starts.len()` is the number of lines
    /// plus one (and empty for an empty dataset).
    line_starts: Vec<usize>,
}

impl Dataset {
    /// Builds a dataset from raw text, indexing line boundaries.
    pub fn new(text: impl Into<String>) -> Self {
        Self::from_shared(text.into().into())
    }

    /// Builds a dataset over already-shared text, indexing line boundaries (a borrowed
    /// `&str` converts into the `Arc` in one copy, where [`new`](Self::new) takes two).
    pub(crate) fn from_shared(text: Arc<str>) -> Self {
        let mut line_starts = Vec::with_capacity(text.len() / 32 + 2);
        if !text.is_empty() {
            line_starts.push(0);
            for (i, b) in text.bytes().enumerate() {
                if b == b'\n' && i + 1 < text.len() {
                    line_starts.push(i + 1);
                }
            }
            line_starts.push(text.len());
        }
        Dataset { text, line_starts }
    }

    /// The raw text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// A cheap shared handle to the raw text (the buffer span-backed relational cells
    /// resolve against).
    pub fn shared_text(&self) -> Arc<str> {
        Arc::clone(&self.text)
    }

    /// Total size in bytes (the paper's `T_data`).
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// `true` when the dataset contains no text.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Number of lines (the paper's `n`).
    pub fn line_count(&self) -> usize {
        self.line_starts.len().saturating_sub(1)
    }

    /// Byte span `[start, end)` of line `i` (including its trailing `\n` if present).
    pub fn line_span(&self, i: usize) -> (usize, usize) {
        (self.line_starts[i], self.line_starts[i + 1])
    }

    /// Text of line `i`, including its trailing `\n` if present.
    pub fn line(&self, i: usize) -> &str {
        let (s, e) = self.line_span(i);
        &self.text[s..e]
    }

    /// Text of the block spanning lines `[first, last)` (half-open range of line indices).
    pub fn lines_text(&self, first: usize, last: usize) -> &str {
        debug_assert!(first <= last && last <= self.line_count());
        if first == last {
            return "";
        }
        let (s, _) = self.line_span(first);
        let (_, e) = self.line_span(last - 1);
        &self.text[s..e]
    }

    /// Byte offset where line `i` starts.  `i` may equal [`Dataset::line_count`], in which
    /// case the sentinel offset `text.len()` is returned.
    pub fn line_start(&self, i: usize) -> usize {
        self.line_starts[i]
    }

    /// Draws a cache-aware sample of at most `max_bytes` bytes made of `chunks` contiguous,
    /// line-aligned chunks, concatenated in document order.
    ///
    /// If the dataset already fits in `max_bytes` the sample is the whole dataset.  Sampling
    /// is deterministic for a given `seed`.
    pub fn sample(&self, max_bytes: usize, chunks: usize, seed: u64) -> Dataset {
        if self.text.len() <= max_bytes || self.line_count() == 0 {
            return self.clone();
        }
        let chunks = chunks.max(1);
        let chunk_budget = (max_bytes / chunks).max(1);
        let n = self.line_count();
        let mut rng = StdRng::seed_from_u64(seed);

        // Pick chunk start lines: evenly spaced strata with random jitter inside each
        // stratum, so the sample covers the whole file while remaining random.
        let mut starts: Vec<usize> = (0..chunks)
            .map(|k| {
                let lo = k * n / chunks;
                let hi = (((k + 1) * n / chunks).max(lo + 1)).min(n);
                rng.gen_range(lo..hi)
            })
            .collect();
        starts.sort_unstable();
        starts.dedup();

        let mut out = String::with_capacity(max_bytes.min(self.text.len()));
        let mut last_line_taken = 0usize;
        for &start in &starts {
            let mut line = start.max(last_line_taken);
            let mut taken = 0usize;
            while line < n && taken < chunk_budget && out.len() < max_bytes {
                let text = self.line(line);
                out.push_str(text);
                taken += text.len();
                line += 1;
            }
            last_line_taken = line;
            if out.len() >= max_bytes {
                break;
            }
        }
        Dataset::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_lines_with_trailing_newline() {
        let d = Dataset::new("a\nbb\nccc\n");
        assert_eq!(d.line_count(), 3);
        assert_eq!(d.line(0), "a\n");
        assert_eq!(d.line(1), "bb\n");
        assert_eq!(d.line(2), "ccc\n");
        assert_eq!(d.len(), 9);
    }

    #[test]
    fn indexes_final_line_without_newline() {
        let d = Dataset::new("a\nb");
        assert_eq!(d.line_count(), 2);
        assert_eq!(d.line(1), "b");
    }

    #[test]
    fn empty_dataset_has_no_lines() {
        let d = Dataset::new("");
        assert!(d.is_empty());
        assert_eq!(d.line_count(), 0);
    }

    #[test]
    fn lines_text_spans_blocks() {
        let d = Dataset::new("a\nbb\nccc\ndddd\n");
        assert_eq!(d.lines_text(1, 3), "bb\nccc\n");
        assert_eq!(d.lines_text(0, 4), d.text());
        assert_eq!(d.lines_text(2, 2), "");
    }

    #[test]
    fn line_span_offsets_are_consistent() {
        let d = Dataset::new("ab\ncd\nef\n");
        let (s, e) = d.line_span(1);
        assert_eq!(&d.text()[s..e], "cd\n");
        assert_eq!(d.line_start(2), 6);
    }

    #[test]
    fn sample_returns_whole_dataset_when_small() {
        let d = Dataset::new("a\nb\nc\n");
        let s = d.sample(1024, 4, 7);
        assert_eq!(s.text(), d.text());
    }

    #[test]
    fn sample_is_line_aligned_and_bounded() {
        let mut text = String::new();
        for i in 0..2000 {
            text.push_str(&format!("record,{i},value{i}\n"));
        }
        let d = Dataset::new(text);
        let s = d.sample(4096, 4, 42);
        assert!(s.len() <= 4096 + 64, "sample too large: {}", s.len());
        assert!(s.len() >= 1024, "sample suspiciously small: {}", s.len());
        // Every sampled line must be a line of the original dataset.
        for i in 0..s.line_count() {
            let line = s.line(i);
            assert!(d.text().contains(line), "line not from source: {line:?}");
        }
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let mut text = String::new();
        for i in 0..500 {
            text.push_str(&format!("x={i}\n"));
        }
        let d = Dataset::new(text);
        let a = d.sample(512, 4, 1);
        let b = d.sample(512, 4, 1);
        let c = d.sample(512, 4, 2);
        assert_eq!(a.text(), b.text());
        // Different seeds usually give different samples (not guaranteed, but true here).
        assert_ne!(a.text(), c.text());
    }
}
