//! What the workloads share: arguments, engine configurations, input files, seed
//! relabelling, and the result record.

use crate::trace::Tracer;
use crate::wrap::Epoch;
use datamaran_core::{DatamaranConfig, MatchingBackend};
use evalkit::view::ViewRecord;
use std::cell::RefCell;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory (relative to the working directory) for generated inputs, artifacts,
/// journals and span dumps.
pub const WORK_DIR: &str = ".bench_work";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Per-run context handed to a workload.
pub struct Ctx {
    /// Arguments.
    pub args: Args,
    /// Shared time base.
    pub epoch: Epoch,
    /// Span recorder (disabled in the untraced run).
    pub tracer: RefCell<Tracer>,
    /// Working directory for files.
    pub work: PathBuf,
    /// Files to delete when the run ends.
    files: RefCell<Vec<PathBuf>>,
}

impl Ctx {
    /// A context for `args`, creating the working directory.
    pub fn new(args: Args) -> Result<Ctx, String> {
        let work = PathBuf::from(WORK_DIR);
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        let origin = Instant::now();
        let tracer = RefCell::new(Tracer::new(args.trace, origin));
        Ok(Ctx {
            args,
            epoch: Epoch::new(origin),
            tracer,
            work,
            files: RefCell::new(Vec::new()),
        })
    }

    /// Path of a per-workload, per-seed file in the working directory, which
    /// [`remove_files`](Self::remove_files) deletes when the run ends (generated inputs
    /// run to tens of MB per seed).
    pub fn file(&self, name: &str) -> PathBuf {
        let path = self.output(name);
        self.files.borrow_mut().push(path.clone());
        path
    }

    /// Path of a per-workload, per-seed file in the working directory that outlives the
    /// run (the span dump).
    pub fn output(&self, name: &str) -> PathBuf {
        self.work.join(format!(
            "{}-seed{}-{name}",
            self.args.workload, self.args.seed
        ))
    }

    /// Deletes every file handed out by [`file`](Self::file).
    pub fn remove_files(&self) {
        for path in self.files.borrow_mut().drain(..) {
            // Already gone or never created: nothing to clean.
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Engine configuration with every knob that the `DATAMARAN_*` environment could
/// otherwise set fixed explicitly, and one thread per stage.
pub fn engine_config(max_line_span: usize) -> Result<DatamaranConfig, String> {
    DatamaranConfig::builder()
        .max_line_span(max_line_span)
        .generation_threads(1)
        .extraction_threads(1)
        .evaluation_threads(1)
        .matching_backend(MatchingBackend::Fused)
        .build()
        .map_err(|e| format!("engine configuration rejected: {e}"))
}

/// One line describing the resolved engine configuration, printed with every result.
pub fn describe_config(label: &str, c: &DatamaranConfig) -> String {
    format!(
        "config {label}: L={} alpha={} M={} beam={} sample_bytes={} backends: \
         generation={} extraction={} evaluation={} matching={} threads: generation={} \
         extraction={} evaluation={}",
        c.max_line_span,
        c.alpha,
        c.prune_keep,
        c.beam_width,
        c.sample_bytes,
        c.generation_backend.name(),
        c.extraction_backend.name(),
        c.evaluation_backend.name(),
        c.matching_backend.name(),
        c.generation_threads,
        c.extraction_threads,
        c.evaluation_threads,
    )
}

/// Writes `text` to `path` and reads it back, so the engine only ever sees bytes that
/// went through the file system.
pub fn write_and_reload(path: &Path, text: &str) -> Result<String, String> {
    let mut f = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    f.write_all(text.as_bytes())
        .and_then(|()| f.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    drop(f);
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Median of the durations `f` takes over `repeats` calls (`setup_s`), and the last
/// call's output.  Afterwards the heap memory set-up freed is returned to the kernel, so that
/// the resident size the measured phase starts from is what it actually holds.
pub fn repeat_setup<T>(
    repeats: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous round's output first so rounds do not overlap in memory.
        drop(last.take());
        let started = Instant::now();
        let out = f()?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(out);
    }
    let median = crate::stats::median(&times).expect("at least one setup round");
    crate::sys::release_free_memory();
    Ok((median, last.expect("at least one setup round")))
}

/// An empty vector whose `capacity` elements have all been written once, so that its
/// pages are resident before a peak-RSS measurement starts.
pub fn touched<T: Clone + Default>(capacity: usize) -> Vec<T> {
    let mut v = Vec::with_capacity(capacity);
    v.resize(capacity, T::default());
    v.clear();
    v
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (extract calls, streaming passes, `push_line` calls).
    pub attempted: u64,
    /// Operations that returned an error or whose output check failed.
    pub failed: u64,
    /// Run-level output checks: name and whether it held.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name (units come from the benchmark's metric tables).
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context printed before the result (configuration, counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a run-level check; a failed one also counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Converts streamed records (type, first line, end line) into the evaluation view's
/// byte spans over `text`.
pub fn view_of(text: &str, records: &[(usize, usize, usize)]) -> Vec<ViewRecord> {
    let mut line_starts = vec![0usize];
    line_starts.extend(
        text.bytes()
            .enumerate()
            .filter(|&(_, b)| b == b'\n')
            .map(|(i, _)| i + 1),
    );
    records
        .iter()
        .map(|&(type_id, first, end)| {
            let start = line_starts[first];
            // Exclude the record's trailing newline, like the extraction view does.
            let stop = line_starts[end].saturating_sub(1).max(start);
            ViewRecord {
                type_id,
                start,
                end: stop,
                fields: Vec::new(),
            }
        })
        .collect()
}

/// A seed-driven permutation of the 26 ASCII letters (seed 0: identity).
///
/// Workloads whose cost depends on the exact mix of records (discovery, drift
/// rediscovery) take their seed through [`relabel`] instead of the generator: letters are
/// field content to every step of the engine — formatting characters are punctuation
/// and whitespace, field types are decided on digits alone — so a relabelled log has
/// the same structure, the same discovered templates and the same cost, while its bytes
/// differ from seed to seed.
pub fn letter_permutation(seed: u64) -> [u8; 26] {
    let mut perm: [u8; 26] = std::array::from_fn(|i| i as u8);
    if seed == 0 {
        return perm;
    }
    let mut state = seed;
    for i in (1..26).rev() {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        perm.swap(i, (z % (i as u64 + 1)) as usize);
    }
    perm
}

/// Applies `perm` to every ASCII letter of `text`, keeping case.
pub fn relabel(text: &str, perm: &[u8; 26]) -> String {
    let bytes: Vec<u8> = text
        .bytes()
        .map(|b| match b {
            b'a'..=b'z' => b'a' + perm[(b - b'a') as usize],
            b'A'..=b'Z' => b'A' + perm[(b - b'A') as usize],
            _ => b,
        })
        .collect();
    String::from_utf8(bytes).expect("relabelling ASCII letters keeps UTF-8 valid")
}

/// Lines in `text` (a final line without a terminator counts).
pub fn line_count(text: &str) -> u64 {
    let newlines = text.bytes().filter(|&b| b == b'\n').count() as u64;
    newlines + u64::from(!text.is_empty() && !text.ends_with('\n'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letter_permutations_are_bijections_and_seed_zero_is_identity() {
        let identity: [u8; 26] = std::array::from_fn(|i| i as u8);
        assert_eq!(letter_permutation(0), identity);
        for seed in [1u64, 7, 0xdead_beef] {
            let mut perm = letter_permutation(seed);
            assert_ne!(perm, identity, "seed {seed}");
            perm.sort_unstable();
            assert_eq!(perm, identity, "seed {seed}");
        }
    }

    #[test]
    fn relabel_keeps_case_digits_and_punctuation() {
        let perm = letter_permutation(3);
        let text = "2015-10-18 INFO [main] host=web3 cpu=0.52\n";
        let out = relabel(text, &perm);
        assert_eq!(out.len(), text.len());
        for (a, b) in text.bytes().zip(out.bytes()) {
            assert_eq!(a.is_ascii_lowercase(), b.is_ascii_lowercase());
            assert_eq!(a.is_ascii_uppercase(), b.is_ascii_uppercase());
            if !a.is_ascii_alphabetic() {
                assert_eq!(a, b);
            }
        }
        assert_eq!(relabel(&out, &perm).len(), text.len());
    }
}
