//! Fault-injection primitives for testing the pipeline's failure semantics.
//!
//! The robustness claims of the streaming layer (no panic on hostile input, graceful
//! degradation, byte-exact retry of transient write failures) are only as good as the
//! faults they are tested against.  This module provides the injection points the
//! integration suite drives:
//!
//! * [`FailingReader`] — wraps any [`BufRead`] and injects I/O errors into the *input*
//!   side according to a [`FaultSchedule`];
//! * [`FailingWriter`] — wraps any [`Write`] and injects errors into the *output* side
//!   (write faults on a [`FaultSchedule`], transient flush faults) and can cap the bytes
//!   each `write` takes; a failed call takes none of its bytes, as the [`Write`] contract
//!   requires;
//! * [`FailingJournalDir`] — hands out [`crate::journal::JournalMedia`]
//!   instances with a byte budget, so journal appends run out of disk (and leave a real
//!   **torn prefix** behind) at an exact byte `k` — the crash/chaos harness's storage
//!   model.
//!
//! Transient faults surface as [`io::ErrorKind::TimedOut`] (which
//! [`Error::is_transient`](crate::error::Error::is_transient) classifies as retryable);
//! permanent faults as [`io::ErrorKind::Other`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::journal::{JournalMedia, MemJournalMedia};
use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When injected faults fire, as a function of the operation count and delivered bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Permanently fail from the `n`-th operation (0-based) onward.
    FailNth(usize),
    /// Permanently fail every operation once `bytes` total bytes have been delivered.
    FailAfterBytes(usize),
    /// Fail `failures` consecutive operations starting at the `at`-th with **transient**
    /// errors, then succeed again — the retry-layer test case.
    Transient {
        /// First failing operation (0-based).
        at: usize,
        /// Number of consecutive failures.
        failures: usize,
    },
}

impl FaultSchedule {
    /// Whether operation number `op` fails given `bytes` already delivered, and the error
    /// to fail with.
    fn fault(&self, op: usize, bytes: usize) -> Option<io::Error> {
        let fails = match *self {
            FaultSchedule::FailNth(n) => op >= n,
            FaultSchedule::FailAfterBytes(b) => bytes >= b,
            FaultSchedule::Transient { at, failures } => op >= at && op < at + failures,
        };
        if !fails {
            return None;
        }
        Some(match self {
            FaultSchedule::Transient { .. } => {
                io::Error::new(io::ErrorKind::TimedOut, "injected transient fault")
            }
            _ => io::Error::other("injected fault"),
        })
    }
}

/// A [`BufRead`] wrapper that injects I/O errors into `fill_buf` per a [`FaultSchedule`].
/// Operations are `fill_buf` calls; delivered bytes are counted at `consume`.
pub struct FailingReader<R> {
    inner: R,
    schedule: FaultSchedule,
    ops: usize,
    bytes: usize,
}

impl<R: BufRead> FailingReader<R> {
    /// Wraps `inner` with the given schedule.
    pub fn new(inner: R, schedule: FaultSchedule) -> Self {
        FailingReader {
            inner,
            schedule,
            ops: 0,
            bytes: 0,
        }
    }

    /// Bytes delivered to the consumer so far.
    pub fn bytes_delivered(&self) -> usize {
        self.bytes
    }
}

impl<R: BufRead> Read for FailingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for FailingReader<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let op = self.ops;
        self.ops += 1;
        if let Some(e) = self.schedule.fault(op, self.bytes) {
            return Err(e);
        }
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.bytes += amt;
        self.inner.consume(amt);
    }
}

/// A [`Write`] wrapper that injects faults into the output: `write` calls fail per a
/// [`FaultSchedule`] (operations are `write` calls, delivered bytes are the bytes the inner
/// writer took), the first `flush_failures` calls of `flush` fail transiently, and each
/// `write` hands the inner writer at most `max_write` bytes.  Faults fire **before**
/// delegating, so a failed call takes none of its bytes.
pub struct FailingWriter<W> {
    inner: W,
    schedule: Option<FaultSchedule>,
    flush_failures: usize,
    max_write: usize,
    writes: usize,
    flushes: usize,
    bytes: usize,
}

impl<W: Write> FailingWriter<W> {
    /// Wraps `inner`, injecting `schedule` into `write` calls.
    pub fn new(inner: W, schedule: FaultSchedule) -> Self {
        FailingWriter {
            schedule: Some(schedule),
            ..FailingWriter::passthrough(inner)
        }
    }

    /// Wraps `inner` with no write faults (combine with
    /// [`with_flush_failures`](Self::with_flush_failures) or
    /// [`with_max_write`](Self::with_max_write)).
    pub fn passthrough(inner: W) -> Self {
        FailingWriter {
            inner,
            schedule: None,
            flush_failures: 0,
            max_write: usize::MAX,
            writes: 0,
            flushes: 0,
            bytes: 0,
        }
    }

    /// Makes the first `n` calls of `flush` fail transiently before delegating.
    pub fn with_flush_failures(mut self, n: usize) -> Self {
        self.flush_failures = n;
        self
    }

    /// Caps the bytes one `write` hands the inner writer (a pipe or socket that takes a
    /// few bytes at a time).
    pub fn with_max_write(mut self, bytes: usize) -> Self {
        self.max_write = bytes;
        self
    }

    /// Consumes the wrapper, returning the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let op = self.writes;
        self.writes += 1;
        if let Some(e) = self.schedule.and_then(|s| s.fault(op, self.bytes)) {
            return Err(e);
        }
        let n = self.inner.write(&buf[..buf.len().min(self.max_write)])?;
        self.bytes += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        let op = self.flushes;
        self.flushes += 1;
        if op < self.flush_failures {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected transient flush fault",
            ));
        }
        self.inner.flush()
    }
}

/// A "directory" on failing storage: every [`JournalMedia`] it hands out shares one byte
/// budget, and an append that would exceed the budget writes only the bytes that fit —
/// a **torn prefix** — before failing with a disk-full error.  Setting the budget to
/// `magic + k` tears the first journal entry at exactly byte `k`; setting it to the
/// current length makes every further append fail cleanly (classic disk-full).
pub struct FailingJournalDir {
    remaining: Arc<AtomicU64>,
}

impl FailingJournalDir {
    /// A directory that accepts `budget_bytes` in total across all media it hands out.
    pub fn with_budget(budget_bytes: u64) -> Self {
        FailingJournalDir {
            remaining: Arc::new(AtomicU64::new(budget_bytes)),
        }
    }

    /// Bytes the directory will still accept.
    pub fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Relaxed)
    }

    /// Grants `bytes` more budget (the operator freed disk space).
    pub fn grow(&self, bytes: u64) {
        self.remaining.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Opens a new in-memory journal medium charged against the shared budget.  The
    /// returned handle exposes the raw bytes (including any torn prefix) via
    /// [`BudgetedJournalMedia::bytes`].
    pub fn open(&self) -> BudgetedJournalMedia {
        BudgetedJournalMedia {
            inner: MemJournalMedia::default(),
            remaining: self.remaining.clone(),
        }
    }
}

/// A [`JournalMedia`] whose appends draw from a [`FailingJournalDir`] budget; the append
/// that exhausts it leaves a torn prefix and returns a disk-full error.  Truncation
/// refunds the freed bytes.
pub struct BudgetedJournalMedia {
    inner: MemJournalMedia,
    remaining: Arc<AtomicU64>,
}

impl BudgetedJournalMedia {
    /// The bytes on the medium, torn prefix included.
    pub fn bytes(&self) -> Vec<u8> {
        self.inner.bytes()
    }

    /// A second handle onto the same bytes (give one to the journal, keep one to inspect).
    pub fn handle(&self) -> BudgetedJournalMedia {
        BudgetedJournalMedia {
            inner: self.inner.clone(),
            remaining: self.remaining.clone(),
        }
    }
}

impl JournalMedia for BudgetedJournalMedia {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let want = bytes.len() as u64;
        // Claim what fits: a compare-exchange loop so concurrent media share the budget
        // without double-spending.
        let granted = loop {
            let have = self.remaining.load(Ordering::Relaxed);
            let grant = have.min(want);
            if self
                .remaining
                .compare_exchange(have, have - grant, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                break grant;
            }
        };
        if granted > 0 {
            self.inner.append(&bytes[..granted as usize])?;
        }
        if granted < want {
            return Err(io::Error::new(
                io::ErrorKind::QuotaExceeded,
                format!("injected disk full: {granted} of {want} bytes written (torn prefix)"),
            ));
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let before = self.inner.len()?;
        self.inner.truncate(len)?;
        let after = self.inner.len()?;
        self.remaining
            .fetch_add(before.saturating_sub(after), Ordering::Relaxed);
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fail_nth_reader_fails_permanently_from_n() {
        let mut r = FailingReader::new(Cursor::new(b"abcdef".to_vec()), FaultSchedule::FailNth(1));
        let mut buf = [0u8; 3];
        assert_eq!(r.read(&mut buf).unwrap(), 3);
        assert!(r.read(&mut buf).is_err());
        assert!(r.read(&mut buf).is_err(), "permanent from n onward");
    }

    #[test]
    fn fail_after_bytes_reader_counts_consumed_bytes() {
        let mut r = FailingReader::new(
            Cursor::new(b"abcdefgh".to_vec()),
            FaultSchedule::FailAfterBytes(4),
        );
        let mut buf = [0u8; 2];
        assert_eq!(r.read(&mut buf).unwrap(), 2);
        assert_eq!(r.read(&mut buf).unwrap(), 2);
        assert_eq!(r.bytes_delivered(), 4);
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
    }

    #[test]
    fn transient_reader_recovers_after_the_failure_window() {
        let mut r = FailingReader::new(
            Cursor::new(b"abcd".to_vec()),
            FaultSchedule::Transient { at: 1, failures: 2 },
        );
        let mut buf = [0u8; 2];
        assert_eq!(r.read(&mut buf).unwrap(), 2);
        assert_eq!(
            r.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(
            r.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(r.read(&mut buf).unwrap(), 2, "recovers");
    }

    #[test]
    fn failing_writer_faults_before_delegating() {
        let mut w = FailingWriter::new(Vec::new(), FaultSchedule::FailNth(1)).with_max_write(2);
        assert_eq!(w.write(b"abc").unwrap(), 2, "capped at 2 bytes");
        let err = w.write(b"c").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(
            w.into_inner(),
            b"ab",
            "the failed call took none of its bytes"
        );
    }

    #[test]
    fn flush_failures_are_transient() {
        let mut w = FailingWriter::passthrough(Vec::new()).with_flush_failures(2);
        assert_eq!(w.flush().unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(w.flush().unwrap_err().kind(), io::ErrorKind::TimedOut);
        w.flush().unwrap();
    }

    #[test]
    fn budgeted_media_tears_the_append_that_exhausts_the_budget() {
        let dir = FailingJournalDir::with_budget(10);
        let mut media = dir.open();
        let inspect = media.handle();
        media.append(b"abcdef").unwrap();
        // 4 bytes of budget remain: a 6-byte append writes a 4-byte torn prefix and fails.
        let err = media.append(b"ghijkl").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::QuotaExceeded);
        assert_eq!(inspect.bytes(), b"abcdefghij");
        assert_eq!(dir.remaining(), 0);
        // Still out of budget: even one byte fails (nothing written).
        assert!(media.append(b"z").is_err());
        assert_eq!(inspect.bytes().len(), 10);
    }

    #[test]
    fn budgeted_media_refunds_truncated_bytes_and_grows() {
        let dir = FailingJournalDir::with_budget(8);
        let mut media = dir.open();
        media.append(b"12345678").unwrap();
        assert_eq!(dir.remaining(), 0);
        media.truncate(3).unwrap();
        assert_eq!(dir.remaining(), 5);
        media.append(b"abcde").unwrap();
        assert_eq!(media.bytes(), b"123abcde");
        dir.grow(2);
        media.append(b"xy").unwrap();
        assert_eq!(media.bytes(), b"123abcdexy");
    }
}
