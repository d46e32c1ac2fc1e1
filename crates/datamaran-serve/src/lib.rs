//! # datamaran-serve
//!
//! A resident ingest daemon over the [`datamaran_core::serve`] engine: log lines come in
//! over **stdin**, a **unix socket**, or a minimal **HTTP** endpoint; extracted rows go
//! out as JSON Lines through a shared, flush-bounded writer; and the template set — loaded
//! once from a saved [`datamaran_core::artifact::TemplateArtifact`] — is hot-swapped
//! automatically when the stream
//! drifts (see [`ServeSession`] for the drift/rediscovery loop).
//!
//! The daemon is deliberately dependency-free: transports are hand-rolled on
//! [`std::net::TcpListener`], [`std::os::unix::net::UnixListener`], and [`std::thread`].
//! Every connection gets its own [`ServeSession`] (its own match scratch and drift
//! window), all sessions share one [`SnapshotStore`] (a swap published by any session is
//! picked up by every other at its next window boundary), and all rows funnel into one
//! [`SharedWriter`] with line-atomic interleaving.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use datamaran_core::error::{Error, Result};
use datamaran_core::export::{JsonLinesSink, RecordSink, RetryingWriter};
use datamaran_core::json::JsonValue;
use datamaran_core::pipeline::Datamaran;
use datamaran_core::serve::{
    merge_summaries, ServeMetrics, ServeOptions, ServeSession, SnapshotStore, TemplateSnapshot,
};
use datamaran_core::streaming::StreamSummary;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

mod cli;
pub use cli::{run, run_with_shutdown, USAGE};

/// Socket-facing lifecycle knobs shared by the unix and HTTP transports.
#[derive(Clone, Copy, Debug)]
pub struct TransportOptions {
    /// Polling interval of the non-blocking accept loop (it checks the shutdown flag
    /// between polls; also the reap cadence while draining).
    pub accept_poll: Duration,
    /// How long a shutting-down daemon waits for in-flight connections to complete
    /// before abandoning them.
    pub drain_timeout: Duration,
    /// Per-connection read timeout (slow-loris defense); `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Concurrent-connection cap; further clients are refused with an error reply.
    pub max_connections: usize,
}

impl Default for TransportOptions {
    fn default() -> Self {
        TransportOptions {
            accept_poll: Duration::from_millis(25),
            drain_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
        }
    }
}

impl TransportOptions {
    /// Validates the knobs, returning [`Error::InvalidConfig`] for out-of-range values.
    pub fn validate(&self) -> Result<()> {
        if self.accept_poll.is_zero() {
            return Err(Error::InvalidConfig("accept_poll must be > 0".into()));
        }
        if self.max_connections == 0 {
            return Err(Error::InvalidConfig("max_connections must be >= 1".into()));
        }
        Ok(())
    }

    /// Builder-style setter for the accept-loop poll interval.
    pub fn with_accept_poll(mut self, poll: Duration) -> Self {
        self.accept_poll = poll;
        self
    }

    /// Builder-style setter for the drain timeout.
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Builder-style setter for the per-connection read timeout.
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Builder-style setter for the connection cap.
    pub fn with_max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap;
        self
    }
}

/// When the shared output writer pushes its buffered rows downstream.  Both thresholds
/// are checked as a row is written: once either is reached, the rows buffered before it
/// are flushed first and the row itself is buffered after them.  The interval is also kept
/// by a timer, so rows reach downstream readers while no further row is written.
#[derive(Clone, Copy, Debug)]
pub struct FlushPolicy {
    /// Flush once this many bytes are buffered.
    pub max_buffered_bytes: usize,
    /// The longest a row waits in the buffer, even if the byte threshold is not reached:
    /// a timer thread of the [`SharedWriter`] flushes whatever is buffered every
    /// `max_interval`, and a row written once the interval has passed since the last
    /// flush flushes the rows before it.  Zero flushes on every write and starts no timer.
    pub max_interval: Duration,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy {
            max_buffered_bytes: 64 * 1024,
            max_interval: Duration::from_secs(1),
        }
    }
}

/// A writer that buffers and flushes by [`FlushPolicy`] thresholds.  A `write` takes all
/// of its bytes or, when it fails, none of them: a due flush runs before the bytes are
/// appended, so a connection's [`RetryingWriter`] that repeats a failed write never writes
/// its bytes twice.
struct FlushingWriter<W: Write> {
    inner: W,
    policy: FlushPolicy,
    buf: Vec<u8>,
    last_flush: Instant,
}

impl<W: Write> FlushingWriter<W> {
    fn new(inner: W, policy: FlushPolicy) -> Self {
        FlushingWriter {
            inner,
            policy,
            buf: Vec::new(),
            last_flush: Instant::now(),
        }
    }

    /// Writes the buffered bytes downstream.  The bytes a failed attempt did write leave
    /// the buffer, so the next attempt resumes with the unwritten tail.
    fn write_buffered(&mut self) -> io::Result<()> {
        let mut written = 0;
        let result = loop {
            if written == self.buf.len() {
                break Ok(());
            }
            match self.inner.write(&self.buf[written..]) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.buf.drain(..written);
        result
    }
}

impl<W: Write> Write for FlushingWriter<W> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if self.buf.len() + bytes.len() >= self.policy.max_buffered_bytes
            || self.last_flush.elapsed() >= self.policy.max_interval
        {
            self.flush()?;
        }
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.write_buffered()?;
        self.inner.flush()?;
        self.last_flush = Instant::now();
        Ok(())
    }
}

/// The daemon's single output stream, shared by every connection: a mutex-guarded,
/// flush-bounded writer.  Clones are handles to the same stream.  Each `write` is taken
/// whole under the lock, so writers that hand over whole lines in one `write_all` — the
/// JSON Lines sink writes one per row — interleave by whole lines only.  Each connection
/// retries a failed write on its own handle, so a backoff sleep never holds the lock that
/// the other connections and the flush timer need.
#[derive(Clone)]
pub struct SharedWriter {
    inner: Arc<Mutex<FlushingWriter<Box<dyn Write + Send>>>>,
}

impl SharedWriter {
    /// Wraps `out` with the given flush policy.  A nonzero
    /// [`max_interval`](FlushPolicy::max_interval) starts the writer's timer thread, which
    /// holds only a weak handle and ends once every clone of the writer is dropped.
    pub fn new(out: Box<dyn Write + Send>, policy: FlushPolicy) -> Self {
        let inner = Arc::new(Mutex::new(FlushingWriter::new(out, policy)));
        if !policy.max_interval.is_zero() {
            let writer = Arc::downgrade(&inner);
            std::thread::spawn(move || flush_on_timer(&writer, policy.max_interval));
        }
        SharedWriter { inner }
    }
}

/// The timer of a [`SharedWriter`]: every `interval`, flushes the rows buffered since the
/// last flush.  A failed flush keeps the unwritten rows buffered, and the next write or
/// flush of the writer retries them and reports the error.
fn flush_on_timer(writer: &Weak<Mutex<FlushingWriter<Box<dyn Write + Send>>>>, interval: Duration) {
    loop {
        std::thread::sleep(interval);
        let Some(writer) = writer.upgrade() else {
            return;
        };
        let mut writer = writer.lock().unwrap_or_else(|e| e.into_inner());
        if !writer.buf.is_empty() {
            let _ = writer.flush();
        }
    }
}

impl Write for SharedWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .write(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).flush()
    }
}

/// Retries of a transient output error per `write` or `flush` of a connection's rows.
const SINK_RETRIES: usize = 3;

/// Daemon-wide counters folded in from finished connections.
#[derive(Default)]
struct DaemonState {
    summary: StreamSummary,
    swaps: u64,
    rediscover_failures: u64,
    residual_dropped: usize,
    connections: u64,
}

/// The shared heart of the daemon: one engine, one [`SnapshotStore`], one output stream,
/// and the aggregate counters.  Transports ([`serve_stdin`], [`serve_unix`],
/// [`serve_http`]) hand each connection's reader to [`handle_stream`](Self::handle_stream).
pub struct Daemon {
    engine: Datamaran,
    store: SnapshotStore,
    options: ServeOptions,
    writer: SharedWriter,
    state: Mutex<DaemonState>,
    draining: AtomicBool,
    active: AtomicUsize,
}

impl Daemon {
    /// Builds a daemon serving `snapshot`, writing rows to `output` (in-memory snapshot
    /// store — hot swaps do not survive a restart; see [`with_store`](Self::with_store)).
    pub fn new(
        engine: Datamaran,
        snapshot: TemplateSnapshot,
        options: ServeOptions,
        output: Box<dyn Write + Send>,
        flush: FlushPolicy,
    ) -> Result<Self> {
        Self::with_store(engine, SnapshotStore::new(snapshot), options, output, flush)
    }

    /// Builds a daemon over a caller-constructed [`SnapshotStore`] — the crash-safe
    /// configuration passes a store built with
    /// [`SnapshotStore::with_persistence`] so every hot swap is journaled before it
    /// publishes.
    pub fn with_store(
        engine: Datamaran,
        store: SnapshotStore,
        options: ServeOptions,
        output: Box<dyn Write + Send>,
        flush: FlushPolicy,
    ) -> Result<Self> {
        options.validate()?;
        Ok(Daemon {
            engine,
            store,
            options,
            writer: SharedWriter::new(output, flush),
            state: Mutex::new(DaemonState::default()),
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        })
    }

    /// The daemon's snapshot store (tests swap snapshots through this; sessions read it).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Flips the daemon into draining: `/readyz` goes unready so load balancers stop
    /// routing, while in-flight connections keep being served.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Whether the daemon is draining.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// The readiness signal: not draining, and the durability layer (when attached) is
    /// writable.  Liveness is unconditional — a degraded daemon still serves.
    pub fn ready(&self) -> bool {
        !self.draining() && self.store.persistence_healthy()
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Flushes the shared output stream (drain step: buffered rows reach the sink).
    pub fn flush_output(&self) -> Result<()> {
        self.writer.clone().flush().map_err(|e| Error::io(&e))
    }

    /// Folds all journaled swaps into the primary artifact (clean-shutdown compaction).
    /// A no-op when no durability layer is attached.
    pub fn compact(&self) -> Result<()> {
        self.store.compact()
    }

    /// Runs one connection: a [`ServeSession`] over `reader`'s lines, rows to the shared
    /// writer through a JSON Lines sink on a [`RetryingWriter`].  Returns the connection's
    /// metrics after folding them into the daemon aggregate.  Invalid UTF-8 input is
    /// decoded lossily and counted.
    ///
    /// A line longer than [`ServeOptions::residual_bytes`] (its `\n` included) is never
    /// buffered whole: the session could not keep it as residual text anyway, so only its
    /// first `residual_bytes + 1` bytes are read, the rest is discarded as it streams past,
    /// and the line is counted in `oversized_lines`.
    ///
    /// `shutdown`, when given, is checked between lines: once it flips, the connection
    /// stops reading, decides what it has buffered, and finishes cleanly — the drain path
    /// of the stdin transport, whose blocking read only returns once a line arrives (see
    /// the signal notes in `main`).  Socket connections pass `None` and are drained to
    /// completion instead.
    ///
    /// A read or sink error ends the connection without deciding anything more, and what
    /// the session had already decided (its rows are on the writer) is folded into the
    /// aggregate before the error is returned.
    pub fn handle_stream<R: BufRead>(
        &self,
        reader: R,
        shutdown: Option<&AtomicBool>,
    ) -> Result<ServeMetrics> {
        let mut sink = JsonLinesSink::new(RetryingWriter::new(self.writer.clone(), SINK_RETRIES));
        let mut session = ServeSession::new(&self.engine, &self.store, self.options)?;
        let mut skipped = SkippedLines::default();
        let mut outcome = push_lines(
            reader,
            shutdown,
            self.options.residual_bytes,
            &mut session,
            &mut sink,
            &mut skipped,
        )
        .and_then(|()| session.flush(&mut sink));
        let mut metrics = session.metrics();
        metrics.summary.invalid_utf8_lines += skipped.invalid_utf8;
        metrics.summary.oversized_lines += skipped.oversized;
        if outcome.is_ok() {
            // `finish` flushes the sink chain down through the shared writer.
            outcome = session.finish(&mut sink).map(|_| ());
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        merge_summaries(&mut state.summary, &metrics.summary);
        state.swaps += metrics.swaps;
        state.rediscover_failures += metrics.rediscover_failures;
        state.residual_dropped += metrics.residual_dropped;
        state.connections += 1;
        outcome.map(|()| metrics)
    }

    /// Daemon-wide aggregate metrics (all finished connections; the residual buffers are
    /// per-connection and report as empty here).
    pub fn metrics(&self) -> ServeMetrics {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        ServeMetrics {
            summary: state.summary.clone(),
            snapshot_version: self.store.version(),
            swaps: state.swaps,
            rediscover_failures: state.rediscover_failures,
            residual_lines: 0,
            residual_bytes: 0,
            residual_dropped: state.residual_dropped,
        }
    }

    /// The aggregate metrics as the shared `{"stream": ..., "serve": ...}` JSON document,
    /// plus a `journal` section (appends, compactions, failures, health) when a
    /// durability layer is attached to the snapshot store.
    pub fn metrics_json(&self) -> String {
        let mut doc = self.metrics().to_json_value();
        if let (JsonValue::Object(fields), Some(stats)) = (&mut doc, self.store.persistence_stats())
        {
            fields.push((
                "journal".into(),
                JsonValue::Object(vec![
                    ("appended".into(), JsonValue::Number(stats.appended as f64)),
                    (
                        "compactions".into(),
                        JsonValue::Number(stats.compactions as f64),
                    ),
                    ("failures".into(), JsonValue::Number(stats.failures as f64)),
                    ("healthy".into(), JsonValue::Bool(stats.healthy)),
                ]),
            ));
        }
        doc.to_pretty()
    }
}

/// Decrements the daemon's active-connection count when a connection ends, however it
/// ends (panic included).
struct ConnectionGuard {
    daemon: Arc<Daemon>,
}

impl ConnectionGuard {
    /// Claims a connection slot; `None` when the daemon is at its cap.
    fn try_acquire(daemon: &Arc<Daemon>, cap: usize) -> Option<Self> {
        let prev = daemon.active.fetch_add(1, Ordering::SeqCst);
        if prev >= cap {
            daemon.active.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(ConnectionGuard {
            daemon: Arc::clone(daemon),
        })
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.daemon.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves a single stream from `reader` (the stdin transport), returning its metrics.
/// When `shutdown` flips (SIGTERM/SIGINT), the stream stops reading at the next line
/// boundary, decides what it has buffered, and finishes cleanly.
pub fn serve_stdin<R: BufRead>(
    daemon: &Daemon,
    reader: R,
    shutdown: &AtomicBool,
) -> Result<ServeMetrics> {
    daemon.handle_stream(reader, Some(shutdown))
}

/// Serves connections on a unix socket at `path` until `shutdown` is set.  Protocol: the
/// client streams log lines and half-closes its write side; the daemon replies with the
/// connection's metrics JSON and closes.  Each connection runs on its own thread, under
/// the transport's read timeout and connection cap; clients over the cap get an error
/// reply.  When `shutdown` flips, the listener stops accepting and in-flight connections
/// are drained up to [`TransportOptions::drain_timeout`].
pub fn serve_unix(
    daemon: Arc<Daemon>,
    path: &Path,
    shutdown: Arc<AtomicBool>,
    transport: TransportOptions,
) -> Result<()> {
    transport.validate()?;
    if path.exists() {
        std::fs::remove_file(path).map_err(|e| Error::io_path(&e, path))?;
    }
    let listener = UnixListener::bind(path).map_err(|e| Error::io_path(&e, path))?;
    listener.set_nonblocking(true).map_err(|e| Error::io(&e))?;
    accept_loop(
        daemon,
        &shutdown,
        transport,
        || listener.accept().map(|(stream, _)| stream),
        b"{\"error\": \"connection limit reached\"}\n",
        |daemon, mut stream| {
            let Ok(reader_half) = stream.try_clone() else {
                return;
            };
            let reply = match daemon.handle_stream(BufReader::new(reader_half), None) {
                Ok(metrics) => metrics.to_json() + "\n",
                Err(err) => format!("{{\"error\": \"{err}\"}}\n"),
            };
            let _ = stream.write_all(reply.as_bytes());
        },
    )
}

/// Serves a minimal HTTP endpoint on a pre-bound listener until `shutdown` is set:
/// `GET /metrics` returns the daemon aggregate, `POST /ingest` extracts the request body
/// as log lines and returns that request's metrics, `GET /healthz` is unconditional
/// liveness, and `GET /readyz` reports readiness (not draining, journal writable).  One
/// thread per connection, `Connection: close` semantics, per-connection read timeout and
/// connection cap (clients over the cap get `503`).  When `shutdown` flips, the listener
/// stops accepting and in-flight requests drain up to [`TransportOptions::drain_timeout`].
pub fn serve_http(
    daemon: Arc<Daemon>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    transport: TransportOptions,
) -> Result<()> {
    transport.validate()?;
    listener.set_nonblocking(true).map_err(|e| Error::io(&e))?;
    let refusal = http_response(
        "503 Service Unavailable",
        "{\"error\": \"connection limit reached\"}\n",
    );
    accept_loop(
        daemon,
        &shutdown,
        transport,
        || listener.accept().map(|(stream, _)| stream),
        refusal.as_bytes(),
        |daemon, mut stream| {
            let response = handle_http(daemon, &mut stream).unwrap_or_else(|err| {
                http_response(
                    "500 Internal Server Error",
                    &format!("{{\"error\": \"{err}\"}}\n"),
                )
            });
            let _ = stream.write_all(response.as_bytes());
        },
    )
}

/// A connected stream of a socket transport.
trait Connection: Write + Send + 'static {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Connection for UnixStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
}

impl Connection for TcpStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
}

/// The socket transports' accept loop: polls the non-blocking `accept` until `shutdown`
/// is set, refuses clients over the connection cap with `refusal`, and runs `handle` on
/// each admitted connection in its own thread, under the read timeout.  When `shutdown`
/// flips, it stops accepting and waits for in-flight connections up to the drain timeout;
/// stragglers are abandoned: their threads keep running detached while the process exits,
/// and the rows they already wrote wait in the [`SharedWriter`]'s buffer for the flush
/// timer or the drain's [`Daemon::flush_output`].
fn accept_loop<C: Connection>(
    daemon: Arc<Daemon>,
    shutdown: &AtomicBool,
    transport: TransportOptions,
    mut accept: impl FnMut() -> io::Result<C>,
    refusal: &[u8],
    handle: fn(&Daemon, C),
) -> Result<()> {
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        let mut stream = match accept() {
            Ok(stream) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(transport.accept_poll);
                continue;
            }
            Err(e) => return Err(Error::io(&e)),
        };
        workers.retain(|w| !w.is_finished());
        let Some(guard) = ConnectionGuard::try_acquire(&daemon, transport.max_connections) else {
            let _ = stream.set_nonblocking(false);
            let _ = stream.write_all(refusal);
            continue;
        };
        let daemon = Arc::clone(&daemon);
        workers.push(std::thread::spawn(move || {
            let _guard = guard;
            if stream.set_nonblocking(false).is_err() {
                return;
            }
            let _ = stream.set_read_timeout(transport.read_timeout);
            handle(&daemon, stream);
        }));
    }
    daemon.begin_drain();
    let deadline = Instant::now() + transport.drain_timeout;
    loop {
        workers.retain(|w| !w.is_finished());
        if workers.is_empty() {
            return Ok(());
        }
        if Instant::now() >= deadline {
            eprintln!(
                "datamaran-serve: drain timeout: abandoned {} in-flight connection(s)",
                workers.len()
            );
            return Ok(());
        }
        std::thread::sleep(transport.accept_poll.min(Duration::from_millis(25)));
    }
}

/// Input lines a connection read but did not push into its session whole.
#[derive(Default)]
struct SkippedLines {
    /// Lines that were not valid UTF-8 (pushed lossily decoded).
    invalid_utf8: usize,
    /// Lines longer than the residual cap (not pushed at all).
    oversized: usize,
}

/// Pushes `reader`'s lines into `session` until end of input, until `shutdown` flips, or
/// up to the first read or sink error.  Lines longer than `cap` are skipped as they stream
/// past.
fn push_lines<R: BufRead, S: RecordSink>(
    mut reader: R,
    shutdown: Option<&AtomicBool>,
    cap: usize,
    session: &mut ServeSession<'_>,
    sink: &mut S,
    skipped: &mut SkippedLines,
) -> Result<()> {
    let mut raw = Vec::new();
    while !shutdown.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
        let n = read_line_capped(&mut reader, cap, &mut raw)?;
        if n == 0 {
            break;
        }
        if n > cap {
            if raw.last() != Some(&b'\n') {
                skip_line(&mut reader)?;
            }
            skipped.oversized += 1;
            continue;
        }
        match std::str::from_utf8(&raw) {
            Ok(line) => session.push_line(line, sink)?,
            Err(_) => {
                skipped.invalid_utf8 += 1;
                session.push_line(&String::from_utf8_lossy(&raw), sink)?;
            }
        }
    }
    Ok(())
}

/// Reads one line, its `\n` included, into `line` through `take(cap + 1)`.  Returns the
/// bytes read: 0 at end of input, and more than `cap` exactly when the line is longer than
/// `cap` (then only its first `cap + 1` bytes were read).
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    cap: usize,
    line: &mut Vec<u8>,
) -> io::Result<usize> {
    line.clear();
    reader.by_ref().take(cap as u64 + 1).read_until(b'\n', line)
}

/// Discards input up to and including the next `\n` (or to the end of input) without
/// buffering it.
fn skip_line<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                return Ok(());
            }
            None => {
                let used = available.len();
                reader.consume(used);
            }
        }
    }
}

/// Longest HTTP request line or header line the daemon reads, its `\r\n` included; a
/// longer one gets `431 Request Header Fields Too Large`.
const MAX_HTTP_LINE_BYTES: usize = 8 * 1024;

/// Builds one `Connection: close` HTTP/1.1 response.
fn http_response(status: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Parses one HTTP request off `stream` and routes it.  The request line and each header
/// line are read up to [`MAX_HTTP_LINE_BYTES`].
fn handle_http<S: Read>(daemon: &Daemon, stream: &mut S) -> Result<String> {
    let too_large = || {
        http_response(
            "431 Request Header Fields Too Large",
            &format!(
                "{{\"error\": \"request or header line over {MAX_HTTP_LINE_BYTES} bytes\"}}\n"
            ),
        )
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    if read_line_capped(&mut reader, MAX_HTTP_LINE_BYTES, &mut line)? > MAX_HTTP_LINE_BYTES {
        return Ok(too_large());
    }
    let request_line = String::from_utf8_lossy(&line).into_owned();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    let mut content_length = 0u64;
    loop {
        let n = read_line_capped(&mut reader, MAX_HTTP_LINE_BYTES, &mut line)?;
        if n == 0 {
            break;
        }
        if n > MAX_HTTP_LINE_BYTES {
            return Ok(too_large());
        }
        let header = String::from_utf8_lossy(&line);
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<u64>().ok())
        {
            content_length = value;
        }
    }
    match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => Ok(http_response("200 OK", &(daemon.metrics_json() + "\n"))),
        ("GET", "/healthz") => Ok(http_response("200 OK", "{\"alive\": true}\n")),
        ("GET", "/readyz") => {
            let ready = daemon.ready();
            let body = JsonValue::Object(vec![
                ("ready".into(), JsonValue::Bool(ready)),
                ("draining".into(), JsonValue::Bool(daemon.draining())),
                (
                    "journal_healthy".into(),
                    JsonValue::Bool(daemon.store().persistence_healthy()),
                ),
                (
                    "snapshot_version".into(),
                    JsonValue::Number(daemon.store().version() as f64),
                ),
            ])
            .to_pretty();
            let status = if ready {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            Ok(http_response(status, &(body + "\n")))
        }
        ("POST", "/ingest") => {
            // The body streams through the session's windows: the claimed length bounds
            // the read, it is never allocated up front.
            let metrics = daemon.handle_stream(reader.take(content_length), None)?;
            Ok(http_response("200 OK", &(metrics.to_json() + "\n")))
        }
        _ => Ok(http_response(
            "404 Not Found",
            "{\"error\": \"unknown endpoint (try GET /metrics, GET /healthz, GET /readyz, or POST /ingest)\"}\n",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamaran_core::serve::TemplateSnapshot;
    use datamaran_core::structure::StructureTemplate;
    use std::io::Cursor;
    use std::os::unix::net::UnixStream;

    fn kv_text(n: usize) -> String {
        (0..n)
            .map(|i| format!("host=h{};cpu={}\n", i % 9, i % 100))
            .collect()
    }

    fn daemon_for(text: &str) -> (Arc<Daemon>, Arc<Mutex<Vec<u8>>>) {
        let captured = Arc::new(Mutex::new(Vec::new()));
        let out = CapturedWriter(Arc::clone(&captured));
        let flush = FlushPolicy {
            max_buffered_bytes: 1,
            max_interval: Duration::from_millis(1),
        };
        (
            Arc::new(daemon_writing(text, Box::new(out), flush)),
            captured,
        )
    }

    /// A daemon serving the templates discovered on `text`, writing rows to `out`.
    fn daemon_writing(text: &str, out: Box<dyn Write + Send>, flush: FlushPolicy) -> Daemon {
        let engine = Datamaran::with_defaults();
        let result = engine.extract(text).unwrap();
        let templates: Vec<StructureTemplate> = result.templates().into_iter().cloned().collect();
        let snapshot = TemplateSnapshot::compile(1, templates, &engine).unwrap();
        let options = ServeOptions::default().with_window_lines(64);
        Daemon::new(engine, snapshot, options, out, flush).unwrap()
    }

    struct CapturedWriter(Arc<Mutex<Vec<u8>>>);

    impl Write for CapturedWriter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stdin_transport_extracts_rows_and_reports_metrics() {
        let text = kv_text(200);
        let (daemon, captured) = daemon_for(&text);
        let metrics = serve_stdin(&daemon, Cursor::new(text), &AtomicBool::new(false)).unwrap();
        assert!(metrics.summary.records > 0);
        assert_eq!(metrics.swaps, 0);
        let rows = String::from_utf8(captured.lock().unwrap().clone()).unwrap();
        assert_eq!(rows.lines().count(), metrics.summary.records);
        assert!(rows.lines().all(|l| l.starts_with("{\"type\":")));
        // The daemon aggregate saw the connection.
        let aggregate = daemon.metrics();
        assert_eq!(aggregate.summary.records, metrics.summary.records);
    }

    #[test]
    fn unix_socket_round_trip_returns_connection_metrics() {
        let text = kv_text(150);
        let (daemon, _captured) = daemon_for(&text);
        let dir = std::env::temp_dir().join(format!("dmserve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("ingest.sock");
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let daemon = Arc::clone(&daemon);
            let sock = sock.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                serve_unix(daemon, &sock, shutdown, TransportOptions::default())
            })
        };
        // Wait for the socket to appear.
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut client = UnixStream::connect(&sock).unwrap();
        client.write_all(text.as_bytes()).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
        let doc = datamaran_core::json::JsonValue::parse(reply.trim()).unwrap();
        let records = doc
            .require("stream")
            .unwrap()
            .require("records")
            .unwrap()
            .as_usize()
            .unwrap();
        assert!(records > 0);
        assert_eq!(daemon.metrics().summary.records, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn http_transport_serves_metrics_and_ingest() {
        let text = kv_text(150);
        let (daemon, _captured) = daemon_for(&text);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let daemon = Arc::clone(&daemon);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                serve_http(daemon, listener, shutdown, TransportOptions::default())
            })
        };
        let post = format!(
            "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            text.len(),
            text
        );
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        client.write_all(post.as_bytes()).unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        let body = reply.split("\r\n\r\n").nth(1).unwrap();
        let doc = datamaran_core::json::JsonValue::parse(body.trim()).unwrap();
        assert!(
            doc.require("stream")
                .unwrap()
                .require("records")
                .unwrap()
                .as_usize()
                .unwrap()
                > 0
        );

        let mut client = std::net::TcpStream::connect(addr).unwrap();
        client
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("\"serve\""));

        let mut client = std::net::TcpStream::connect(addr).unwrap();
        client
            .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");

        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn ingest_streams_a_body_shorter_than_its_claimed_length() {
        let text = kv_text(150);
        let (daemon, _captured) = daemon_for(&text);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let daemon = Arc::clone(&daemon);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                serve_http(daemon, listener, shutdown, TransportOptions::default())
            })
        };
        // The header claims 1 TiB; the body is 150 lines, then the client half-closes.
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let head = format!(
            "POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            1u64 << 40
        );
        client.write_all(head.as_bytes()).unwrap();
        client.write_all(text.as_bytes()).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        let body = reply.split("\r\n\r\n").nth(1).unwrap();
        let doc = datamaran_core::json::JsonValue::parse(body.trim()).unwrap();
        let stream = doc.require("stream").unwrap();
        assert_eq!(
            stream
                .require("lines_processed")
                .unwrap()
                .as_usize()
                .unwrap(),
            150
        );
        assert_eq!(
            stream.require("records").unwrap().as_usize().unwrap(),
            daemon.metrics().summary.records
        );

        // The daemon is still up.
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        client
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");

        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn a_line_longer_than_the_residual_cap_is_skipped_and_counted() {
        let (daemon, _captured) = daemon_for(&kv_text(200));
        // 100 valid lines, one 4 MiB line (4× the default 1 MiB cap), 100 more.
        let mut input = kv_text(100).into_bytes();
        input.resize(input.len() + (4 << 20), b'a');
        input.push(b'\n');
        input.extend_from_slice(kv_text(100).as_bytes());
        let metrics = daemon.handle_stream(Cursor::new(input), None).unwrap();
        let summary = &metrics.summary;
        assert_eq!(summary.oversized_lines, 1);
        assert_eq!(
            summary.records + summary.noise_lines + summary.oversized_lines,
            201,
            "every line fed is a record, noise or oversized"
        );
        assert_eq!(daemon.metrics().summary.oversized_lines, 1);
    }

    /// A connection whose input fails half way still counts what it decided: the daemon
    /// aggregate reports exactly the rows the connection wrote.
    #[test]
    fn a_failed_connection_still_counts_in_the_aggregate() {
        use datamaran_core::fault::{FailingReader, FaultSchedule};
        let text = kv_text(400);
        let (daemon, captured) = daemon_for(&text);
        let half = FaultSchedule::FailAfterBytes(text.len() / 2);
        let reader = FailingReader::new(Cursor::new(text.into_bytes()), half);
        assert!(daemon.handle_stream(reader, None).is_err());
        daemon.flush_output().unwrap();
        let rows = captured
            .lock()
            .unwrap()
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        let aggregate = daemon.metrics().summary;
        assert!(rows > 0, "no row was written before the fault");
        assert_eq!(aggregate.records, rows);
        assert!(aggregate.lines_processed >= rows);
    }

    #[test]
    fn an_oversized_request_or_header_line_gets_431() {
        let text = kv_text(120);
        let (daemon, _captured) = daemon_for(&text);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let daemon = Arc::clone(&daemon);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                serve_http(daemon, listener, shutdown, TransportOptions::default())
            })
        };
        let send = |request: &[u8]| -> String {
            let mut client = std::net::TcpStream::connect(addr).unwrap();
            // The daemon answers once it has read past the cap and closes with the rest
            // of the request unread, so the write or a read after the reply may be reset.
            let _ = client.write_all(request);
            let mut reply = String::new();
            let _ = client.read_to_string(&mut reply);
            reply
        };
        let big = "b".repeat(64 * 1024);
        let header = format!("GET /healthz HTTP/1.1\r\nX-Big: {big}\r\n\r\n");
        let reply = send(header.as_bytes());
        assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");
        let request_line = format!("GET /{big} HTTP/1.1\r\nHost: x\r\n\r\n");
        let reply = send(request_line.as_bytes());
        assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");
        // The daemon keeps serving.
        let reply = send(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");

        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_flag_stops_a_stream_at_the_next_line_boundary() {
        let text = kv_text(100);
        let (daemon, _captured) = daemon_for(&text);
        // Flag already set: the stream reads nothing, finishes cleanly, reports zero.
        let shutdown = AtomicBool::new(true);
        let metrics = serve_stdin(&daemon, Cursor::new(text), &shutdown).unwrap();
        assert_eq!(metrics.summary.lines_processed, 0);
    }

    #[test]
    fn health_and_readiness_probes_respond() {
        let text = kv_text(120);
        let (daemon, _captured) = daemon_for(&text);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let daemon = Arc::clone(&daemon);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                serve_http(daemon, listener, shutdown, TransportOptions::default())
            })
        };
        let probe = |path: &str| -> String {
            let mut client = std::net::TcpStream::connect(addr).unwrap();
            client
                .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut reply = String::new();
            client.read_to_string(&mut reply).unwrap();
            reply
        };
        let health = probe("/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"alive\": true"));
        let ready = probe("/readyz");
        assert!(ready.starts_with("HTTP/1.1 200"), "{ready}");
        assert!(ready.contains("\"ready\": true"));
        assert!(ready.contains("\"journal_healthy\": true"));

        // Draining flips readiness to 503 while liveness stays 200.
        daemon.begin_drain();
        let ready = probe("/readyz");
        assert!(ready.starts_with("HTTP/1.1 503"), "{ready}");
        assert!(ready.contains("\"draining\": true"));
        assert!(probe("/healthz").starts_with("HTTP/1.1 200"));

        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn connection_cap_refuses_excess_clients() {
        let text = kv_text(120);
        let (daemon, _captured) = daemon_for(&text);
        let dir = std::env::temp_dir().join(format!("dmserve-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("ingest.sock");
        let shutdown = Arc::new(AtomicBool::new(false));
        let transport = TransportOptions::default()
            .with_max_connections(1)
            .with_accept_poll(Duration::from_millis(5));
        let server = {
            let daemon = Arc::clone(&daemon);
            let sock = sock.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || serve_unix(daemon, &sock, shutdown, transport))
        };
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // First client holds its slot open (write side not closed yet).
        let mut held = UnixStream::connect(&sock).unwrap();
        held.write_all(b"host=h1;cpu=2\n").unwrap();
        // Wait until the daemon has actually accepted it.
        for _ in 0..200 {
            if daemon.active_connections() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(daemon.active_connections(), 1);
        // Second client is over the cap: error reply, closed.
        let mut refused = UnixStream::connect(&sock).unwrap();
        let mut reply = String::new();
        refused.read_to_string(&mut reply).unwrap();
        assert!(reply.contains("connection limit reached"), "{reply}");
        // The held client completes normally.
        held.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        held.read_to_string(&mut reply).unwrap();
        assert!(reply.contains("\"stream\""), "{reply}");
        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
        assert_eq!(daemon.active_connections(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_drains_an_in_flight_connection_to_completion() {
        let text = kv_text(120);
        let (daemon, _captured) = daemon_for(&text);
        let dir = std::env::temp_dir().join(format!("dmserve-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("ingest.sock");
        let shutdown = Arc::new(AtomicBool::new(false));
        let transport = TransportOptions::default()
            .with_accept_poll(Duration::from_millis(5))
            .with_drain_timeout(Duration::from_secs(10));
        let server = {
            let daemon = Arc::clone(&daemon);
            let sock = sock.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || serve_unix(daemon, &sock, shutdown, transport))
        };
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Open a connection and send half the stream...
        let mut client = UnixStream::connect(&sock).unwrap();
        client.write_all(text.as_bytes()).unwrap();
        for _ in 0..200 {
            if daemon.active_connections() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // ...then request shutdown while it is still in flight.
        shutdown.store(true, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(30));
        // The in-flight stream still completes and gets its metrics reply.
        client.write_all(text.as_bytes()).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.contains("\"stream\""), "drained reply: {reply}");
        server.join().unwrap().unwrap();
        assert!(daemon.draining());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transport_options_validate_and_build() {
        assert!(TransportOptions::default().validate().is_ok());
        assert!(TransportOptions::default()
            .with_accept_poll(Duration::ZERO)
            .validate()
            .is_err());
        assert!(TransportOptions::default()
            .with_max_connections(0)
            .validate()
            .is_err());
        let t = TransportOptions::default()
            .with_drain_timeout(Duration::from_millis(1))
            .with_read_timeout(None)
            .with_max_connections(7);
        assert_eq!(t.max_connections, 7);
        assert!(t.read_timeout.is_none());
    }

    /// An output that takes at most `chunk` bytes per call and, given `fail`, fails that
    /// call (1-based) once with that kind, taking none of its bytes.
    struct FlakyWriter {
        out: Arc<Mutex<Vec<u8>>>,
        calls: usize,
        chunk: usize,
        fail: Option<(usize, io::ErrorKind)>,
    }

    impl FlakyWriter {
        fn new(
            out: &Arc<Mutex<Vec<u8>>>,
            chunk: usize,
            fail: Option<(usize, io::ErrorKind)>,
        ) -> Self {
            FlakyWriter {
                out: Arc::clone(out),
                calls: 0,
                chunk,
                fail,
            }
        }
    }

    impl Write for FlakyWriter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if let Some((call, kind)) = self.fail {
                if self.calls == call {
                    return Err(kind.into());
                }
            }
            let n = bytes.len().min(self.chunk);
            self.out.lock().unwrap().extend_from_slice(&bytes[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn shared_writer_interleaves_whole_lines_only() {
        let captured = Arc::new(Mutex::new(Vec::new()));
        let shared = SharedWriter::new(
            Box::new(FlakyWriter::new(&captured, 3, None)),
            FlushPolicy {
                max_buffered_bytes: 1,
                max_interval: Duration::from_millis(1),
            },
        );
        // Concurrent writers, each handing over whole lines, onto an output that takes
        // them a few bytes at a time: complete lines must come out unbroken.
        let names = ["a", "b", "c"];
        let start = std::sync::Barrier::new(names.len());
        std::thread::scope(|scope| {
            for name in names {
                let (mut shared, start) = (shared.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..200 {
                        let line = format!("{{\"{name}\":{i}}}\n");
                        shared.write_all(line.as_bytes()).unwrap();
                    }
                });
            }
        });
        shared.clone().flush().unwrap();
        let out = String::from_utf8(captured.lock().unwrap().clone()).unwrap();
        let mut lines: Vec<&str> = out.lines().collect();
        lines.sort_unstable();
        let mut expected: Vec<String> = names
            .iter()
            .flat_map(|name| (0..200).map(move |i| format!("{{\"{name}\":{i}}}")))
            .collect();
        expected.sort_unstable();
        assert_eq!(lines, expected);
    }

    /// Serves its bytes, then records when it was first asked for more and blocks until
    /// the test drops the gate's sender: an input that stays open after its last line.
    struct OpenReader {
        data: Cursor<Vec<u8>>,
        drained: Arc<Mutex<Option<Instant>>>,
        gate: std::sync::mpsc::Receiver<()>,
    }

    impl Read for OpenReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.data.read(buf)?;
            if n == 0 {
                self.drained
                    .lock()
                    .unwrap()
                    .get_or_insert_with(Instant::now);
                let _ = self.gate.recv();
            }
            Ok(n)
        }
    }

    /// `--flush-ms` bounds how long a decided window's rows wait, even when no further row
    /// is written: with the input still open after 400 lines, every row the session has
    /// emitted must reach the output within a small multiple of the interval.
    #[test]
    fn flush_ms_bounds_the_wait_of_rows_while_the_input_is_open() {
        let interval = Duration::from_millis(10);
        let text = kv_text(400);
        let captured = Arc::new(Mutex::new(Vec::new()));
        let flush = FlushPolicy {
            max_interval: interval,
            ..FlushPolicy::default()
        };
        let daemon = daemon_writing(
            &text,
            Box::new(CapturedWriter(Arc::clone(&captured))),
            flush,
        );
        // The rows the session emits before end of input: those of its decided windows.
        let mut session =
            ServeSession::new(&daemon.engine, daemon.store(), daemon.options).unwrap();
        let mut emitted = datamaran_core::export::CountingSink::default();
        for line in text.split_inclusive('\n') {
            session.push_line(line, &mut emitted).unwrap();
        }
        assert!(emitted.records > 0, "{emitted:?}");

        let drained = Arc::new(Mutex::new(None));
        let (release, gate) = std::sync::mpsc::channel();
        let reader = OpenReader {
            data: Cursor::new(text.into_bytes()),
            drained: Arc::clone(&drained),
            gate,
        };
        let rows = || {
            captured
                .lock()
                .unwrap()
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
        };
        std::thread::scope(|scope| {
            let served = scope.spawn(|| daemon.handle_stream(BufReader::new(reader), None));
            let deadline = Instant::now() + Duration::from_secs(10);
            let all_read = loop {
                if let Some(at) = *drained.lock().unwrap() {
                    break at;
                }
                assert!(
                    Instant::now() < deadline,
                    "the daemon never read all 400 lines"
                );
                std::thread::sleep(Duration::from_millis(1));
            };
            while rows() < emitted.records && all_read.elapsed() < 50 * interval {
                std::thread::sleep(Duration::from_millis(1));
            }
            let waited = all_read.elapsed();
            assert_eq!(
                rows(),
                emitted.records,
                "rows on the output {waited:?} after the last line was read, input still open"
            );
            drop(release);
            let metrics = served.join().unwrap().unwrap();
            assert!(metrics.summary.records > emitted.records, "{metrics:?}");
            assert_eq!(rows(), metrics.summary.records);
        });
    }

    /// The flush timer holds the writer only weakly: once every handle is dropped, the
    /// output is dropped too.
    #[test]
    fn the_flush_timer_ends_with_the_writer() {
        struct DropFlag(Arc<AtomicBool>);
        impl Write for DropFlag {
            fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
                Ok(bytes.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let interval = Duration::from_millis(5);
        let dropped = Arc::new(AtomicBool::new(false));
        let mut shared = SharedWriter::new(
            Box::new(DropFlag(Arc::clone(&dropped))),
            FlushPolicy {
                max_interval: interval,
                ..FlushPolicy::default()
            },
        );
        shared.write_all(b"{}\n").unwrap();
        std::thread::sleep(3 * interval);
        drop(shared);
        let deadline = Instant::now() + 200 * interval;
        while !dropped.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "the output outlived its writer");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A transient output error fails the row's write without taking it, so the
    /// connection's retrying writer repeats it once; a flush the error cut short resumes
    /// where it stopped.
    #[test]
    fn a_transient_output_error_writes_no_row_twice() {
        let head = kv_text(200);
        let text = kv_text(6000);
        for kind in [io::ErrorKind::TimedOut, io::ErrorKind::WouldBlock] {
            // Whole writes: the 2nd call is the 2nd flush of 64 KiB of rows.  Three bytes
            // at a time: the 2nd call cuts the first flush short.
            for (writes, chunk) in [("whole", usize::MAX), ("3-byte", 3)] {
                let captured = Arc::new(Mutex::new(Vec::new()));
                let out = FlakyWriter::new(&captured, chunk, Some((2, kind)));
                let daemon = daemon_writing(&head, Box::new(out), FlushPolicy::default());
                let metrics = daemon.handle_stream(Cursor::new(&text), None).unwrap();
                let rows = String::from_utf8(captured.lock().unwrap().clone()).unwrap();
                let rows: Vec<&str> = rows.lines().collect();
                let case = format!("{kind:?}, {writes} writes");
                assert!(metrics.summary.records > 1000, "{case}: {metrics:?}");
                assert_eq!(rows.len(), metrics.summary.records, "{case}");
                assert!(rows.iter().all(|r| r.starts_with("{\"type\":")), "{case}");
                let distinct: std::collections::HashSet<&str> = rows.iter().copied().collect();
                assert_eq!(distinct.len(), rows.len(), "{case}: duplicated rows");
            }
        }
    }
}
