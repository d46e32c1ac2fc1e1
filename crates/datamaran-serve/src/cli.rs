//! Argument parsing and transport dispatch for the `datamaran-serve` binary.
//!
//! Exit codes follow the main CLI's convention: `0` success, `2` usage / configuration /
//! artifact errors, `3` I/O, sink, and journal failures, `4` empty input, `5` budget,
//! `6` decode, `1` anything else.
//!
//! The crash-safe lifecycle lives here: `--journal` attaches the durable template WAL
//! (startup = load artifact + replay journal; every hot swap is journaled before it
//! publishes), and a shutdown request (SIGTERM/SIGINT via [`run_with_shutdown`]) drains
//! in-flight connections, flushes the row writer, compacts the journal into the artifact,
//! and exits `0`.

use crate::{serve_http, serve_stdin, serve_unix, Daemon, FlushPolicy, TransportOptions};
use datamaran_core::artifact::TemplateArtifact;
use datamaran_core::config::DatamaranConfig;
use datamaran_core::error::Error;
use datamaran_core::journal::{recovered_snapshot, JournalConfig, JournalPersistence};
use datamaran_core::pipeline::Datamaran;
use datamaran_core::serve::{snapshot_from_artifact, ServeOptions, SnapshotStore};
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// The daemon's `--help` text.
pub const USAGE: &str = "\
datamaran-serve — resident structure-extraction daemon

USAGE:
    datamaran-serve --templates FILE [TRANSPORT] [OPTIONS]

The template artifact is produced by `datamaran discover --save-templates FILE`.
Extracted rows are written as JSON Lines to --output (default: stdout).
SIGTERM/SIGINT drain in-flight connections, flush, compact the journal, and exit 0.

TRANSPORT (choose one; default --stdin):
    --stdin             read log lines from standard input, print final metrics to stderr
    --unix SOCKET       accept connections on a unix socket; each client streams lines,
                        half-closes, and receives its metrics JSON back
    --http ADDR         minimal HTTP endpoint on ADDR (e.g. 127.0.0.1:7171):
                        GET /metrics, GET /healthz, GET /readyz, POST /ingest

OPTIONS:
    --output FILE           write extracted rows to FILE instead of stdout
    --journal FILE          durable template journal: every drift hot swap is appended
                            (checksummed, fsync'd) before it publishes, and restart
                            replays FILE over the artifact — learned templates survive
                            crashes; torn tails are truncated, never trusted
    --compact-every N       fold the journal into the artifact after N swaps (default 8;
                            also happens on clean shutdown)
    --window-lines N        lines per decision window (default 256)
    --drift-threshold X     unmatched-rate in (0,1] that triggers rediscovery (default 0.5)
    --min-residual-lines N  unmatched lines required before rediscovery (default 64)
    --no-rediscover         monitor drift only; never swap the template set
    --flush-bytes N         flush the row writer every N buffered bytes (default 65536)
    --flush-ms N            flush the row writer at least every N milliseconds (default 1000)
    --drain-timeout-ms N    wait N ms for in-flight connections on shutdown (default 5000)
    --read-timeout-ms N     per-connection read timeout, 0 = none (default 30000)
    --max-connections N     concurrent-connection cap (default 256)
    --accept-poll-ms N      accept-loop poll interval in ms (default 25)
    --help                  print this help
";

/// Exit code for an [`Error`]: the table of [`Error::exit_code`], shared with the main CLI.
fn exit_code(e: &Error) -> u8 {
    e.exit_code()
}

/// Which transport the daemon should run.
enum Transport {
    Stdin,
    Unix(PathBuf),
    Http(String),
}

/// Parsed command line.
struct Args {
    templates: PathBuf,
    transport: Transport,
    output: Option<PathBuf>,
    journal: Option<PathBuf>,
    compact_every: u64,
    options: ServeOptions,
    flush: FlushPolicy,
    transport_options: TransportOptions,
}

/// Parses the argument vector; `Ok(None)` means `--help` was requested.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut templates = None;
    let mut transport = Transport::Stdin;
    let mut output = None;
    let mut journal = None;
    let mut compact_every = 8u64;
    let mut options = ServeOptions::default();
    let mut flush = FlushPolicy::default();
    let mut transport_options = TransportOptions::default();
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--templates" => templates = Some(PathBuf::from(value(&mut it, "--templates")?)),
            "--stdin" => transport = Transport::Stdin,
            "--unix" => transport = Transport::Unix(PathBuf::from(value(&mut it, "--unix")?)),
            "--http" => transport = Transport::Http(value(&mut it, "--http")?),
            "--output" => output = Some(PathBuf::from(value(&mut it, "--output")?)),
            "--journal" => journal = Some(PathBuf::from(value(&mut it, "--journal")?)),
            "--compact-every" => {
                compact_every = parse_num(&value(&mut it, "--compact-every")?)? as u64
            }
            "--window-lines" => {
                options.window_lines = parse_num(&value(&mut it, "--window-lines")?)?
            }
            "--drift-threshold" => {
                let raw = value(&mut it, "--drift-threshold")?;
                options.drift_threshold = raw
                    .parse::<f64>()
                    .map_err(|_| format!("invalid --drift-threshold `{raw}`"))?;
            }
            "--min-residual-lines" => {
                options.min_residual_lines = parse_num(&value(&mut it, "--min-residual-lines")?)?
            }
            "--no-rediscover" => options.rediscover = false,
            "--flush-bytes" => {
                flush.max_buffered_bytes = parse_num(&value(&mut it, "--flush-bytes")?)?
            }
            "--flush-ms" => {
                flush.max_interval =
                    Duration::from_millis(parse_num(&value(&mut it, "--flush-ms")?)? as u64)
            }
            "--drain-timeout-ms" => {
                transport_options.drain_timeout =
                    Duration::from_millis(parse_num(&value(&mut it, "--drain-timeout-ms")?)? as u64)
            }
            "--read-timeout-ms" => {
                let ms = parse_num(&value(&mut it, "--read-timeout-ms")?)? as u64;
                transport_options.read_timeout = if ms == 0 {
                    None
                } else {
                    Some(Duration::from_millis(ms))
                };
            }
            "--max-connections" => {
                transport_options.max_connections =
                    parse_num(&value(&mut it, "--max-connections")?)?
            }
            "--accept-poll-ms" => {
                transport_options.accept_poll =
                    Duration::from_millis(parse_num(&value(&mut it, "--accept-poll-ms")?)? as u64)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let templates = templates.ok_or("--templates FILE is required")?;
    Ok(Some(Args {
        templates,
        transport,
        output,
        journal,
        compact_every,
        options,
        flush,
        transport_options,
    }))
}

/// Parses a non-negative integer argument.
fn parse_num(raw: &str) -> Result<usize, String> {
    raw.parse::<usize>()
        .map_err(|_| format!("invalid number `{raw}`"))
}

/// Runs the daemon with no external shutdown signal (it runs until its transport ends:
/// stdin EOF, or forever for sockets); returns the process exit code.
pub fn run(args: &[String], out: &mut dyn Write) -> u8 {
    run_with_shutdown(args, out, Arc::new(AtomicBool::new(false)))
}

/// Runs the daemon; returns the process exit code.  Rows go to `out` (or `--output`),
/// diagnostics and stdin-mode metrics go to stderr.  When `shutdown` flips (the binary
/// sets it from SIGTERM/SIGINT), the daemon stops accepting, drains in-flight
/// connections up to `--drain-timeout-ms`, flushes the row writer, compacts the journal,
/// and returns 0.
pub fn run_with_shutdown(args: &[String], out: &mut dyn Write, shutdown: Arc<AtomicBool>) -> u8 {
    let parsed = match parse_args(args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            let _ = out.write_all(USAGE.as_bytes());
            return 0;
        }
        Err(message) => {
            eprintln!("datamaran-serve: {message}");
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match run_parsed(parsed, out, shutdown) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("datamaran-serve: {e}");
            exit_code(&e)
        }
    }
}

/// The fallible body of [`run_with_shutdown`].
fn run_parsed(args: Args, out: &mut dyn Write, shutdown: Arc<AtomicBool>) -> Result<(), Error> {
    // Strict configuration: malformed DATAMARAN_* environment surfaces here (exit 2)
    // instead of being silently defaulted.
    let config = DatamaranConfig::builder().build()?;
    let engine = Datamaran::new(config)?;
    args.options.validate()?;
    args.transport_options.validate()?;
    let artifact = TemplateArtifact::load(&args.templates)?;
    // Crash-safe startup: the journal next to the artifact is replayed over it — every
    // swap that was durably appended before a crash is part of the initial snapshot.
    // A torn tail or a foreign journal degrades to the last durable state with a logged
    // reason; it is never loaded and never fatal.
    let store = match &args.journal {
        Some(journal_path) => {
            let (persistence, deltas, note) = JournalPersistence::open(
                &artifact,
                &args.templates,
                journal_path,
                JournalConfig {
                    compact_every: args.compact_every,
                },
            )?;
            if let Some(note) = note {
                eprintln!("datamaran-serve: {note}");
            }
            if !deltas.is_empty() {
                eprintln!(
                    "datamaran-serve: replayed {} journaled swap(s) from {}",
                    deltas.len(),
                    journal_path.display()
                );
            }
            let snapshot = recovered_snapshot(&artifact, &deltas)?;
            SnapshotStore::with_persistence(snapshot, Arc::new(persistence))
        }
        None => SnapshotStore::new(snapshot_from_artifact(&artifact)),
    };
    let output: Box<dyn Write + Send> = match &args.output {
        Some(path) => {
            Box::new(std::fs::File::create(path).map_err(|e| Error::io_path(&e, path.as_path()))?)
        }
        // Rows interleave from many connections; the shared writer already buffers, so
        // the unlocked handle per write is fine.
        None => Box::new(std::io::stdout()),
    };
    let daemon = Arc::new(Daemon::with_store(
        engine,
        store,
        args.options,
        output,
        args.flush,
    )?);
    match args.transport {
        Transport::Stdin => {
            let stdin = std::io::stdin();
            // The session summary folds into the daemon totals, so the daemon document
            // is the same data plus the `journal` section when `--journal` is active.
            serve_stdin(&daemon, stdin.lock(), &shutdown)?;
            let _ = out.flush();
            eprintln!("{}", daemon.metrics_json());
        }
        Transport::Unix(path) => {
            serve_unix(Arc::clone(&daemon), &path, shutdown, args.transport_options)?;
        }
        Transport::Http(addr) => {
            let listener = TcpListener::bind(&addr).map_err(|e| Error::io(&e))?;
            serve_http(
                Arc::clone(&daemon),
                listener,
                shutdown,
                args.transport_options,
            )?;
        }
    }
    // Clean-shutdown sequence: flush buffered rows, then fold the journal into the
    // artifact.  A failed compaction is logged but NOT fatal — the appended entries are
    // already durable in the journal and will replay on the next start.
    daemon.flush_output()?;
    if let Err(e) = daemon.compact() {
        eprintln!("datamaran-serve: shutdown compaction failed (journal entries remain durable and will replay): {e}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage_and_succeeds() {
        let mut out = Vec::new();
        let code = run(&["--help".to_string()], &mut out);
        assert_eq!(code, 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("--templates"));
        assert!(text.contains("--journal"));
        assert!(text.contains("--drain-timeout-ms"));
        assert!(text.contains("--accept-poll-ms"));
    }

    #[test]
    fn missing_templates_is_a_usage_error() {
        let mut out = Vec::new();
        assert_eq!(run(&[], &mut out), 2);
        assert_eq!(run(&["--bogus".to_string()], &mut out), 2);
    }

    #[test]
    fn unreadable_artifact_maps_to_exit_3_and_garbage_to_2() {
        let mut out = Vec::new();
        let code = run(
            &["--templates".to_string(), "/nonexistent/t.json".to_string()],
            &mut out,
        );
        assert_eq!(code, 3);
        let dir = std::env::temp_dir().join(format!("dmserve-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not an artifact").unwrap();
        let code = run(
            &[
                "--templates".to_string(),
                bad.to_string_lossy().into_owned(),
            ],
            &mut out,
        );
        assert_eq!(code, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_error_maps_to_exit_3() {
        assert_eq!(exit_code(&Error::Journal("disk full".into())), 3);
    }

    #[test]
    fn lifecycle_flags_parse_and_validate() {
        let parse =
            |argv: &[&str]| parse_args(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let args = parse(&[
            "--templates",
            "t.json",
            "--journal",
            "t.journal",
            "--compact-every",
            "3",
            "--drain-timeout-ms",
            "1234",
            "--read-timeout-ms",
            "0",
            "--max-connections",
            "17",
            "--accept-poll-ms",
            "5",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            args.journal.as_deref(),
            Some(std::path::Path::new("t.journal"))
        );
        assert_eq!(args.compact_every, 3);
        assert_eq!(
            args.transport_options.drain_timeout,
            Duration::from_millis(1234)
        );
        assert!(args.transport_options.read_timeout.is_none());
        assert_eq!(args.transport_options.max_connections, 17);
        assert_eq!(args.transport_options.accept_poll, Duration::from_millis(5));
        assert!(parse(&["--templates", "t.json", "--compact-every"]).is_err());
        assert!(parse(&["--templates", "t.json", "--max-connections", "x"]).is_err());
    }

    #[test]
    fn invalid_accept_poll_is_a_config_error() {
        // --accept-poll-ms 0 parses but fails TransportOptions validation → exit 2.
        let dir = std::env::temp_dir().join(format!("dmserve-cli-poll-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact_path = dir.join("t.json");
        let artifact = TemplateArtifact::new(
            vec![datamaran_core::structure::StructureTemplate::new(vec![
                datamaran_core::structure::Node::Field,
                datamaran_core::structure::Node::Literal("\n".into()),
            ])],
            3,
            datamaran_core::config::MatchingBackend::Fused,
        )
        .unwrap();
        artifact.save(&artifact_path).unwrap();
        let mut out = Vec::new();
        let code = run(
            &[
                "--templates".to_string(),
                artifact_path.to_string_lossy().into_owned(),
                "--accept-poll-ms".to_string(),
                "0".to_string(),
            ],
            &mut out,
        );
        assert_eq!(code, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
