//! Wrappers around the objects the library calls back into — the record sink, the input
//! reader and the swap-persistence layer — so the benchmark can time calls it does not
//! make itself.  Untraced, they take one clock reading per call (the latency metrics
//! need it); traced, they also record a leaf span per call.

use crate::trace::Tracer;
use datamaran_core::serve::PersistenceStats;
use datamaran_core::{
    RecordSink, Result as CoreResult, StreamRecord, StructureTemplate, SwapPersistence,
    TemplateSnapshot,
};
use std::cell::{Cell, RefCell};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The time base every wrapper, workload and the tracer share: nanoseconds since one
/// origin.
#[derive(Clone, Copy)]
pub struct Epoch {
    origin: Instant,
}

impl Epoch {
    /// A time base whose zero is `origin`.
    pub fn new(origin: Instant) -> Self {
        Epoch { origin }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }
}

/// A record sink that times each callback of the wrapped sink as an `export` leaf and
/// hands every record with its arrival time to `observe` (latency, first-row and
/// row-count bookkeeping live there).
pub struct TimedSink<'t, S, F> {
    inner: S,
    tracer: &'t RefCell<Tracer>,
    tracing: bool,
    epoch: Epoch,
    observe: F,
    /// Time the latest callback ended (read by the persistence wrapper).
    last_end: Arc<AtomicU64>,
}

impl<'t, S: RecordSink, F: FnMut(&StreamRecord<'_>, u64)> TimedSink<'t, S, F> {
    /// Wraps `inner`; `tracer` must share `epoch`'s origin.
    pub fn new(inner: S, tracer: &'t RefCell<Tracer>, epoch: Epoch, observe: F) -> Self {
        let tracing = tracer.borrow().enabled();
        TimedSink {
            inner,
            tracer,
            tracing,
            epoch,
            observe,
            last_end: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Shared handle on the end time of the latest callback.
    pub fn last_end(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.last_end)
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn timed<T>(&mut self, start: u64, f: impl FnOnce(&mut S) -> T) -> T {
        let out = f(&mut self.inner);
        let end = if self.tracing {
            let end = self.epoch.now();
            self.tracer.borrow_mut().leaf("export", start, end);
            end
        } else {
            start
        };
        self.last_end.store(end, Ordering::Relaxed);
        out
    }
}

impl<S: RecordSink, F: FnMut(&StreamRecord<'_>, u64)> RecordSink for TimedSink<'_, S, F> {
    fn begin(&mut self, templates: &[StructureTemplate]) -> CoreResult<()> {
        let start = self.epoch.now();
        self.timed(start, |s| s.begin(templates))
    }

    fn record(&mut self, record: &StreamRecord<'_>) -> CoreResult<()> {
        let start = self.epoch.now();
        (self.observe)(record, start);
        self.timed(start, |s| s.record(record))
    }

    fn finish(&mut self) -> CoreResult<()> {
        let start = self.epoch.now();
        self.timed(start, |s| s.finish())
    }
}

/// A reader timing each underlying read as a `streaming.read` leaf, and remembering when
/// the latest read returned: the moment the bytes that complete a window arrived.  Wrap
/// it in a `BufReader` so the leaves are the I/O calls, not the per-line buffer scans.
pub struct TimedRead<'t, R> {
    inner: R,
    tracer: &'t RefCell<Tracer>,
    tracing: bool,
    epoch: Epoch,
    last_read: &'t Cell<u64>,
}

impl<'t, R: Read> TimedRead<'t, R> {
    /// Wraps `inner`.
    pub fn new(
        inner: R,
        tracer: &'t RefCell<Tracer>,
        epoch: Epoch,
        last_read: &'t Cell<u64>,
    ) -> Self {
        let tracing = tracer.borrow().enabled();
        TimedRead {
            inner,
            tracer,
            tracing,
            epoch,
            last_read,
        }
    }
}

impl<R: Read> Read for TimedRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = self.epoch.now();
        let out = self.inner.read(buf);
        let end = self.epoch.now();
        self.last_read.set(end);
        if self.tracing {
            self.tracer.borrow_mut().leaf("streaming.read", start, end);
        }
        out
    }
}

/// A writer that discards its input, counting bytes and newlines.
#[derive(Clone, Default)]
pub struct CountingWriter {
    counts: std::rc::Rc<Cell<(u64, u64)>>,
}

impl CountingWriter {
    /// Bytes and newlines written so far, through any clone.
    pub fn counts(&self) -> (u64, u64) {
        self.counts.get()
    }
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (bytes, lines) = self.counts.get();
        let newlines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        self.counts
            .set((bytes + buf.len() as u64, lines + newlines));
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One call of the wrapped persistence layer.
#[derive(Clone, Copy, Debug)]
pub struct PersistCall {
    /// End of the sink callback that preceded the call: the session has finished its
    /// window's records by then, so what lies between is rediscovery.
    pub after_sink: u64,
    /// Call start.
    pub start: u64,
    /// Call end.
    pub end: u64,
    /// Whether the delta became durable.
    pub ok: bool,
}

/// A [`SwapPersistence`] that times each journal append of the wrapped layer.
pub struct TimedPersistence<P> {
    inner: P,
    epoch: Epoch,
    last_sink_end: Arc<AtomicU64>,
    calls: Mutex<Vec<PersistCall>>,
}

impl<P: SwapPersistence> TimedPersistence<P> {
    /// Wraps `inner`; `last_sink_end` is the serving sink's [`TimedSink::last_end`].
    pub fn new(inner: P, epoch: Epoch, last_sink_end: Arc<AtomicU64>) -> Self {
        TimedPersistence {
            inner,
            epoch,
            last_sink_end,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Takes the calls recorded since the last drain.
    pub fn drain(&self) -> Vec<PersistCall> {
        std::mem::take(&mut *self.calls.lock().expect("persistence log lock poisoned"))
    }
}

impl<P: SwapPersistence> SwapPersistence for TimedPersistence<P> {
    fn persist_swap(&self, old: &TemplateSnapshot, new: &TemplateSnapshot) -> CoreResult<()> {
        let after_sink = self.last_sink_end.load(Ordering::Relaxed);
        let start = self.epoch.now();
        let out = self.inner.persist_swap(old, new);
        let end = self.epoch.now();
        self.calls
            .lock()
            .expect("persistence log lock poisoned")
            .push(PersistCall {
                after_sink,
                start,
                end,
                ok: out.is_ok(),
            });
        out
    }

    fn compact(&self, current: &TemplateSnapshot) -> CoreResult<()> {
        self.inner.compact(current)
    }

    fn stats(&self) -> PersistenceStats {
        self.inner.stats()
    }
}
