//! In-memory span recording for the traced run, and the arithmetic that turns spans into
//! per-layer self times.
//!
//! A span is opened around each call the benchmark makes into a layer (and around the
//! callbacks the library makes into the benchmark's reader, sink and persistence
//! wrappers).  Calls made once per record or per read would produce millions of spans,
//! so those are recorded as *aggregate* leaves: one entry per (parent, layer) holding the
//! call count and the summed busy time.  On one thread such calls never overlap each
//! other or their siblings, so their busy time is exactly the part of the parent they
//! cover.
//!
//! A layer's self time is its span's duration minus the part of that interval its child
//! spans cover, overlapping children counted once.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (`generation`, `export`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin (first call for an aggregate).
    pub start: u64,
    /// End, in nanoseconds since the origin (end of the last call for an aggregate).
    pub end: u64,
    /// Index of the span that made the call, `None` for the root.
    pub parent: Option<usize>,
    /// Whether this entry folds many leaf calls together.
    pub aggregate: bool,
    /// Calls represented: 1 for an ordinary span.
    pub calls: u64,
    /// Nanoseconds busy: `end - start` for an ordinary span, the summed call durations for
    /// an aggregate.
    pub busy: u64,
}

/// Span recorder.  A disabled tracer records nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open ordinary spans, innermost last.
    stack: Vec<usize>,
    /// Index of the aggregate for each (parent, layer) pair.
    aggregates: HashMap<(Option<usize>, &'static str), usize>,
}

impl Tracer {
    /// A recorder timing from `origin`; `enabled == false` gives the untraced run's
    /// no-op tracer.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            aggregates: HashMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// `instant` in nanoseconds since the tracer's origin.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span and returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.at(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            aggregate: false,
            calls: 1,
            busy: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span, and returns its end
    /// (0 when disabled).
    pub fn close(&mut self, id: usize) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.at(Instant::now());
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = now;
        span.busy = now - span.start;
        now
    }

    /// Closes span `id` like [`close`](Self::close), but when nothing was recorded under
    /// it, folds it into its parent's aggregate for the same name instead of keeping it:
    /// how the many per-line calls that did no visible work stay out of the span list.
    pub fn close_or_fold(&mut self, id: usize) -> u64 {
        if !self.enabled {
            return 0;
        }
        if id + 1 == self.spans.len() {
            let now = self.at(Instant::now());
            self.stack.pop();
            let span = self
                .spans
                .pop()
                .expect("span `id` is the last one recorded");
            self.leaf(span.name, span.start, now);
            now
        } else {
            self.close(id)
        }
    }

    /// Records an ordinary span with known times under the innermost open span — for
    /// intervals measured by a wrapper and attributed after the fact.
    pub fn child(&mut self, name: &'static str, start: u64, end: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.stack.last().copied(),
            aggregate: false,
            calls: 1,
            busy: end.saturating_sub(start),
        });
    }

    /// Records one call of a leaf layer (`start..end`, tracer nanoseconds) under the
    /// innermost open span, folded into that parent's aggregate for `name`.
    pub fn leaf(&mut self, name: &'static str, start: u64, end: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        let busy = end.saturating_sub(start);
        match self.aggregates.get(&(parent, name)) {
            Some(&i) => {
                let agg = &mut self.spans[i];
                agg.calls += 1;
                agg.busy += busy;
                agg.end = agg.end.max(end);
            }
            None => {
                self.aggregates.insert((parent, name), self.spans.len());
                self.spans.push(Span {
                    name,
                    start,
                    end,
                    parent,
                    aggregate: true,
                    calls: 1,
                    busy,
                });
            }
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines: index, name, parent (`-` for the root),
    /// start ns, end ns, aggregate flag, calls, busy ns.
    pub fn write_tsv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(
            out,
            "id\tname\tparent\tstart_ns\tend_ns\taggregate\tcalls\tbusy_ns"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, s.aggregate as u8, s.calls, s.busy
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in nanoseconds: its busy time minus what its children
/// cover.  Ordinary children cover the union of their intervals (overlaps counted
/// once); aggregate children cover their summed busy time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut aggregate_busy = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if s.aggregate {
                aggregate_busy[p] += s.busy;
            } else {
                intervals[p].push((s.start, s.end));
            }
        }
    }
    spans
        .iter()
        .zip(intervals)
        .zip(aggregate_busy)
        .map(|((s, iv), agg)| {
            let covered = if s.aggregate {
                0
            } else {
                union_len(iv, s.start, s.end)
            };
            s.busy.saturating_sub(covered + agg)
        })
        .collect()
}

/// Per-layer self seconds and the reconciliation against the root's wall time.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Self seconds summed per layer name, the root excluded.
    pub layers: BTreeMap<&'static str, f64>,
    /// Calls summed per layer name.
    pub calls: BTreeMap<&'static str, u64>,
    /// The roots' summed duration in seconds (the traced run's wall time).
    pub wall_s: f64,
    /// The roots' own self time in seconds: wall time no layer accounts for.
    pub unattributed_s: f64,
}

impl Attribution {
    /// Attributes `spans`; with several roots (traced stretches between untraced ones)
    /// the wall time is their summed duration.
    pub fn of(spans: &[Span]) -> Attribution {
        let selfs = self_times(spans);
        let mut out = Attribution::default();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let secs = self_ns as f64 / 1e9;
            if s.parent.is_none() {
                out.wall_s += s.busy as f64 / 1e9;
                out.unattributed_s += secs;
            } else {
                *out.layers.entry(s.name).or_insert(0.0) += secs;
                *out.calls.entry(s.name).or_insert(0) += s.calls;
            }
        }
        out
    }

    /// Self seconds of `layer` (0 when it never ran).
    pub fn self_s(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0)
    }

    /// Share of the wall time no layer accounts for.
    pub fn unattributed_share(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.unattributed_s / self.wall_s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            aggregate: false,
            calls: 1,
            busy: end - start,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            // Entirely inside `a`: adds nothing to the parent's covered time.
            span("c", 15, 20, Some(0)),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 60): 50 ns of the parent's 100.
        assert_eq!(selfs, vec![50, 30, 30, 5]);
    }

    #[test]
    fn nested_spans_reconcile_with_the_wall_time() {
        let spans = vec![
            span("run", 0, 1_000, None),
            span("pipeline", 0, 900, Some(0)),
            span("generation", 100, 600, Some(1)),
            span("refine", 600, 850, Some(1)),
            Span {
                name: "export",
                start: 900,
                end: 990,
                parent: Some(0),
                aggregate: true,
                calls: 30,
                busy: 60,
            },
        ];
        let a = Attribution::of(&spans);
        assert_eq!(a.self_s("generation"), 500e-9);
        assert_eq!(a.self_s("refine"), 250e-9);
        assert_eq!(a.self_s("pipeline"), 150e-9);
        assert_eq!(a.self_s("export"), 60e-9);
        assert_eq!(a.calls["export"], 30);
        assert!((a.unattributed_s - 40e-9).abs() < 1e-15);
        assert!((a.unattributed_share() - 0.04).abs() < 1e-12);
        let total: f64 = a.layers.values().sum::<f64>() + a.unattributed_s;
        assert!((total - a.wall_s).abs() < 1e-15);
    }

    #[test]
    fn leaves_fold_into_one_aggregate_per_parent_and_name() {
        let mut t = Tracer::new(true, Instant::now());
        let run = t.open("run");
        t.leaf("export", 10, 15);
        t.leaf("read", 15, 18);
        t.leaf("export", 20, 30);
        let push = t.open("serve.push");
        // A push with nothing inside folds into the run's `serve.push` aggregate.
        t.close_or_fold(push);
        let push = t.open("serve.push");
        t.leaf("export", 40, 41);
        t.close_or_fold(push);
        t.close(run);
        let spans = t.spans();
        let export_under_run: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "export" && s.parent == Some(0))
            .collect();
        assert_eq!(export_under_run.len(), 1);
        assert_eq!(export_under_run[0].calls, 2);
        assert_eq!(export_under_run[0].busy, 15);
        // One folded push aggregate under the run, one kept push with its own child.
        assert_eq!(
            spans.iter().filter(|s| s.name == "serve.push").count(),
            2,
            "{spans:?}"
        );
        assert!(spans
            .iter()
            .any(|s| s.name == "serve.push" && s.aggregate && s.calls == 1));
        let kept = spans
            .iter()
            .position(|s| s.name == "serve.push" && !s.aggregate)
            .expect("push with a child is kept");
        assert!(spans
            .iter()
            .any(|s| s.name == "export" && s.parent == Some(kept)));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("run");
        t.leaf("export", 0, 5);
        t.close(id);
        assert!(t.spans().is_empty());
    }
}
