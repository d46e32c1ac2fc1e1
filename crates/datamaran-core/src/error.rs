//! Structured, source-preserving error taxonomy for the Datamaran pipeline.
//!
//! Every failure the pipeline can surface is a distinct [`Error`] variant carrying the
//! context a caller needs to react programmatically: I/O errors keep their
//! [`std::io::ErrorKind`] and the path they occurred on, sink failures name the sink and
//! preserve the underlying cause, decode failures carry the input line, and budget
//! violations report which [`BudgetKind`] was exceeded with the limit and the observed
//! value.  [`Error::exit_code`] maps each variant onto the stable process exit code both
//! binaries return; [`Error::is_transient`] tells a failure worth retrying from one that is
//! not, by the same list of I/O error kinds the byte-level retry layer uses.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Which resource budget a [`Error::BudgetExceeded`] violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// A single input line exceeded the configured byte cap.
    LineBytes,
    /// The resident chunk window exceeded the configured byte cap.
    WindowBytes,
    /// The quarantined fraction of the stream exceeded the configured ceiling
    /// (limit and observed values are reported in parts per 10 000).
    QuarantineFraction,
    /// The cumulative template-match time exceeded the configured ceiling
    /// (limit and observed values are reported in milliseconds).
    MatchSeconds,
}

impl BudgetKind {
    /// Stable machine-readable name of the budget.
    pub fn name(self) -> &'static str {
        match self {
            BudgetKind::LineBytes => "line-bytes",
            BudgetKind::WindowBytes => "window-bytes",
            BudgetKind::QuarantineFraction => "quarantine-fraction",
            BudgetKind::MatchSeconds => "match-seconds",
        }
    }
}

/// Errors produced by the Datamaran pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The configuration contains an out-of-range or inconsistent value.
    InvalidConfig(String),
    /// The input dataset is empty (nothing to extract).
    EmptyDataset,
    /// No structure template satisfying the coverage threshold could be found.
    NoStructureFound,
    /// A structure template failed to match where a match was required
    /// (internal consistency error in the extraction pass).
    ExtractionFailure(String),
    /// An I/O error, preserving the [`io::ErrorKind`] and the path it occurred on
    /// (when known) so callers can distinguish e.g. a missing file from a full disk.
    Io {
        /// The kind of the underlying [`io::Error`].
        kind: io::ErrorKind,
        /// The file the operation was acting on, when known.
        path: Option<PathBuf>,
        /// The underlying error's message.
        message: String,
    },
    /// A record sink failed; names the sink and preserves the underlying cause.
    Sink {
        /// Identity of the failing sink (e.g. `csv:type0`, `jsonl`, `quarantine`).
        sink: String,
        /// The underlying failure.
        source: Box<Error>,
    },
    /// An input line could not be decoded under the active error policy.
    Decode {
        /// 0-based input line index of the undecodable bytes.
        line: usize,
        /// What was wrong with the bytes.
        message: String,
    },
    /// A resource budget was exceeded under the `abort` error policy.
    BudgetExceeded {
        /// Which budget was violated.
        budget: BudgetKind,
        /// The configured limit (units depend on [`BudgetKind`]).
        limit: u64,
        /// The observed value that violated it.
        observed: u64,
    },
    /// A saved template artifact could not be parsed or failed its integrity checks
    /// (unknown format tag, unsupported version, checksum mismatch, malformed template
    /// encoding).  Surfaced by [`crate::artifact`]; the CLI maps it to the same exit code
    /// as a bad configuration, since the fix is operator action, not a retry.
    Artifact(String),
    /// The durable template journal could not be written or compacted (disk full,
    /// permission, torn medium).  Surfaced by [`crate::journal`]; a journal failure
    /// **degrades** the daemon (swaps keep serving in memory, readiness flips) rather
    /// than crashing it, and the CLI maps it to the I/O exit code when it is fatal
    /// (e.g. the journal cannot be opened at startup).
    Journal(String),
}

impl Error {
    /// Builds an [`Error::Io`] from an [`io::Error`] without path context
    /// (equivalent to the [`From`] impl).
    pub fn io(e: &io::Error) -> Self {
        Error::Io {
            kind: e.kind(),
            path: None,
            message: e.to_string(),
        }
    }

    /// Builds an [`Error::Io`] carrying the path the operation was acting on.
    pub fn io_path(e: &io::Error, path: impl Into<PathBuf>) -> Self {
        Error::Io {
            kind: e.kind(),
            path: Some(path.into()),
            message: e.to_string(),
        }
    }

    /// Attaches `path` to an [`Error::Io`] that lacks one; other variants are
    /// returned unchanged.
    pub fn with_path(self, path: impl Into<PathBuf>) -> Self {
        match self {
            Error::Io {
                kind,
                path: None,
                message,
            } => Error::Io {
                kind,
                path: Some(path.into()),
                message,
            },
            other => other,
        }
    }

    /// Wraps this error with the identity of the sink it surfaced from.
    pub fn in_sink(self, sink: impl Into<String>) -> Self {
        Error::Sink {
            sink: sink.into(),
            source: Box::new(self),
        }
    }

    /// The stable process exit code of this failure, shared by the `datamaran` CLI and the
    /// `datamaran-serve` daemon: `2` usage / configuration / artifact, `3` I/O, sink and
    /// journal, `4` empty input or no structure, `5` budget exceeded, `6` decode, `1`
    /// anything else.
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::InvalidConfig(_) | Error::Artifact(_) => 2,
            Error::Io { .. } | Error::Sink { .. } | Error::Journal(_) => 3,
            Error::EmptyDataset | Error::NoStructureFound => 4,
            Error::BudgetExceeded { .. } => 5,
            Error::Decode { .. } => 6,
            Error::ExtractionFailure(_) => 1,
        }
    }

    /// `true` for failures that a bounded retry may plausibly clear: interrupted,
    /// timed-out, or would-block I/O, directly or inside a [`Error::Sink`] wrapper.
    /// Everything else (bad configuration, decode failures, budget violations,
    /// missing files) is permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            Error::Io { kind, .. } => is_transient_kind(*kind),
            Error::Sink { source, .. } => source.is_transient(),
            _ => false,
        }
    }
}

/// The one list of I/O error kinds a bounded retry may clear: interrupted, timed-out and
/// would-block.  [`Error::is_transient`] and [`RetryingWriter`](crate::export::RetryingWriter)
/// both read it.
pub(crate) fn is_transient_kind(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::EmptyDataset => write!(f, "the dataset is empty"),
            Error::NoStructureFound => {
                write!(f, "no structure template satisfies the coverage threshold")
            }
            Error::ExtractionFailure(msg) => write!(f, "extraction failure: {msg}"),
            Error::Io {
                kind,
                path,
                message,
            } => match path {
                Some(p) => write!(f, "i/o error ({kind:?}) on {}: {message}", p.display()),
                None => write!(f, "i/o error ({kind:?}): {message}"),
            },
            Error::Sink { sink, source } => write!(f, "sink `{sink}` failed: {source}"),
            Error::Decode { line, message } => {
                write!(f, "decode error at input line {line}: {message}")
            }
            Error::BudgetExceeded {
                budget,
                limit,
                observed,
            } => write!(
                f,
                "resource budget `{}` exceeded: observed {observed}, limit {limit}",
                budget.name()
            ),
            Error::Artifact(msg) => write!(f, "template artifact error: {msg}"),
            Error::Journal(msg) => write!(f, "template journal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sink { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::io(&e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(Error::InvalidConfig("alpha".into())
            .to_string()
            .contains("alpha"));
        assert!(Error::EmptyDataset.to_string().contains("empty"));
        assert!(Error::NoStructureFound.to_string().contains("coverage"));
        assert!(Error::ExtractionFailure("boom".into())
            .to_string()
            .contains("boom"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&Error::EmptyDataset);
    }

    #[test]
    fn io_errors_preserve_kind_and_path() {
        let raw = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e = Error::from(raw).with_path("/tmp/x.log");
        match &e {
            Error::Io { kind, path, .. } => {
                assert_eq!(*kind, io::ErrorKind::NotFound);
                assert_eq!(path.as_deref(), Some(std::path::Path::new("/tmp/x.log")));
            }
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(e.to_string().contains("/tmp/x.log"));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn sink_errors_name_the_sink_and_keep_the_source() {
        let inner = Error::io(&io::Error::new(io::ErrorKind::TimedOut, "slow disk"));
        let e = inner.clone().in_sink("csv:type0");
        assert!(e.to_string().contains("csv:type0"));
        assert!(e.to_string().contains("slow disk"));
        match &e {
            Error::Sink { source, .. } => assert_eq!(**source, inner),
            other => panic!("expected Sink, got {other:?}"),
        }
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn transience_follows_io_kind_through_sink_wrappers() {
        let timeout = Error::io(&io::Error::new(io::ErrorKind::TimedOut, "t"));
        assert!(timeout.is_transient());
        assert!(timeout.in_sink("jsonl").is_transient());
        let missing = Error::io(&io::Error::new(io::ErrorKind::NotFound, "n"));
        assert!(!missing.is_transient());
        assert!(!Error::EmptyDataset.is_transient());
        assert!(!Error::BudgetExceeded {
            budget: BudgetKind::LineBytes,
            limit: 10,
            observed: 20
        }
        .is_transient());
    }

    #[test]
    fn budget_errors_report_kind_limit_and_observed() {
        let e = Error::BudgetExceeded {
            budget: BudgetKind::MatchSeconds,
            limit: 1000,
            observed: 2500,
        };
        let s = e.to_string();
        assert!(s.contains("match-seconds"), "{s}");
        assert!(s.contains("1000"), "{s}");
        assert!(s.contains("2500"), "{s}");
    }

    #[test]
    fn exit_codes_follow_the_stable_table() {
        let io = Error::io(&io::Error::new(io::ErrorKind::NotFound, "n"));
        let cases = [
            (Error::InvalidConfig("x".into()), 2),
            (Error::Artifact("x".into()), 2),
            (io.clone(), 3),
            (io.in_sink("jsonl"), 3),
            (Error::Journal("x".into()), 3),
            (Error::EmptyDataset, 4),
            (Error::NoStructureFound, 4),
            (
                Error::BudgetExceeded {
                    budget: BudgetKind::LineBytes,
                    limit: 1,
                    observed: 2,
                },
                5,
            ),
            (
                Error::Decode {
                    line: 0,
                    message: "x".into(),
                },
                6,
            ),
            (Error::ExtractionFailure("x".into()), 1),
        ];
        for (e, code) in cases {
            assert_eq!(e.exit_code(), code, "{e}");
        }
    }

    #[test]
    fn decode_errors_carry_the_line() {
        let e = Error::Decode {
            line: 42,
            message: "invalid utf-8".into(),
        };
        assert!(e.to_string().contains("42"));
        assert!(e.to_string().contains("invalid utf-8"));
    }
}
