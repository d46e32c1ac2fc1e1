//! # datamaran-cli
//!
//! Command-line front end for the Datamaran reproduction: point it at a log file and it
//! discovers the structure, extracts every record, and writes the result as a human-readable
//! summary, a JSON report, or CSV tables.
//!
//! ```text
//! datamaran extract server.log                 # summary to stdout
//! datamaran extract server.log --format json   # machine-readable report
//! datamaran extract server.log --format csv --out ./tables
//! datamaran extract big.log --stream           # bounded-memory streaming summary
//! datamaran extract big.log --stream --format json --output records.jsonl
//! datamaran extract big.log --stream --format csv --output ./tables
//! datamaran discover server.log                # just the structure templates
//! datamaran grammar server.log                 # the LL(1) grammar of the best template
//! datamaran cluster server.log                 # the SLCT-style line-clustering baseline
//! ```
//!
//! `--stream` switches `extract` to the bounded-memory pipeline: structure is discovered on
//! the head of the file, then records stream window by window straight into the CSV / JSON
//! Lines sinks — memory stays `O(head + window)` regardless of file size, and the emitted
//! bytes are identical to the in-memory exporter's.
//!
//! Argument parsing is hand-rolled (no third-party CLI crate) and lives in [`Cli::parse`] so
//! it can be unit-tested; [`run`] wires parsing to the library calls.  [`run_cli`] is the
//! same entry point with a structured [`CliError`] carrying a stable exit code, which is
//! what the binary maps onto the process status:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | other failure |
//! | 2    | usage / configuration error |
//! | 3    | I/O or sink failure |
//! | 4    | empty input / no structure found |
//! | 5    | resource budget exceeded (`--on-error abort`) |
//! | 6    | input decode failure (`--on-error abort`) |

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use datamaran_core::{
    all_tables_csv, extraction_report, stream_report, table_to_csv, CountingSink, CsvSink,
    Datamaran, DatamaranConfig, Error, ErrorPolicy, Grammar, JsonLinesSink, QuarantineSink,
    RecordSink, RetryingWriter, SearchStrategy, StreamBudgets, StreamOptions, StreamSession,
    StreamSummary, StructureTemplate, TemplateArtifact, WriteQuarantineSink,
};
use logclust::{ClusterConfig, LogCluster};
use std::fmt::Write as _;
use std::fs;
use std::io::{BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Output format of the `extract` subcommand.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OutputFormat {
    /// Human-readable summary (default).
    #[default]
    Summary,
    /// Pretty-printed JSON report.
    Json,
    /// CSV tables (written to `--out DIR`, or concatenated to stdout).
    Csv,
}

/// The subcommand to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Command {
    /// Discover structure and extract all records.
    Extract,
    /// Discover and print structure templates only.
    Discover,
    /// Print the LL(1) grammar of the best structure template.
    Grammar,
    /// Run the line-clustering baseline instead of Datamaran.
    Cluster,
    /// Run the LogHub-clone corpus matrix and print per-dataset accuracy + throughput.
    Corpus,
    /// Print usage information.
    Help,
    /// Print the crate version.
    Version,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Input file path (required by every subcommand except help/version).
    pub input: Option<PathBuf>,
    /// Output format for `extract`.
    pub format: OutputFormat,
    /// Directory for CSV output; `None` writes to stdout.
    pub out_dir: Option<PathBuf>,
    /// Bounded-memory streaming extraction (`extract --stream`).
    pub stream: bool,
    /// Streaming output destination: a JSON Lines file (`--format json`) or a CSV
    /// directory (`--format csv`).
    pub output: Option<PathBuf>,
    /// Override for the streaming head size in bytes.
    pub head_bytes: Option<usize>,
    /// Override for the streaming window size in bytes.
    pub window_bytes: Option<usize>,
    /// What streaming does with undecodable / oversized / unmatched lines
    /// (`--on-error skip|quarantine|abort`).
    pub on_error: ErrorPolicy,
    /// File receiving the raw bytes of quarantined lines (`--quarantine PATH`;
    /// implies `--on-error quarantine`).
    pub quarantine: Option<PathBuf>,
    /// Budget: maximum bytes of a single input line (`--max-line-bytes`).
    pub max_line_bytes: Option<usize>,
    /// Budget: maximum resident window bytes (`--max-window-bytes`).
    pub max_window_bytes: Option<usize>,
    /// Budget: maximum cumulative match seconds (`--max-match-seconds`).
    pub max_match_seconds: Option<f64>,
    /// Budget: maximum quarantined fraction of the stream (`--max-quarantine-fraction`).
    pub max_quarantine_fraction: Option<f64>,
    /// Retries of a record-output write or flush that fails with a transient error
    /// (`--sink-retries`, 0 = no retry).
    pub sink_retries: usize,
    /// Scaled-down corpus matrix for smoke runs (`corpus --fast`).
    pub fast: bool,
    /// Save the discovered templates as a `datamaran-serve` artifact
    /// (`discover --save-templates`).
    pub save_templates: Option<PathBuf>,
    /// Engine configuration assembled from the flags.
    pub config: DatamaranConfig,
}

impl Cli {
    /// Parses the command line (without the program name).  Returns a descriptive error
    /// string on any unknown flag, missing value, or out-of-range parameter.
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut iter = args.iter().peekable();
        let command = match iter.next().map(String::as_str) {
            None | Some("help") | Some("--help") | Some("-h") => {
                return Ok(Cli::bare(Command::Help));
            }
            Some("version") | Some("--version") | Some("-V") => {
                return Ok(Cli::bare(Command::Version));
            }
            Some("extract") => Command::Extract,
            Some("discover") => Command::Discover,
            Some("grammar") => Command::Grammar,
            Some("cluster") => Command::Cluster,
            Some("corpus") => Command::Corpus,
            Some(other) => return Err(format!("unknown subcommand `{other}` (try `help`)")),
        };

        let mut cli = Cli::bare(command);
        // Strict environment pickup for real subcommands: a malformed `DATAMARAN_*`
        // variable is a configuration error (exit code 2), not a silent default.
        cli.config = DatamaranConfig::builder()
            .build()
            .map_err(|e| e.to_string())?;
        let mut on_error_flag: Option<ErrorPolicy> = None;
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--format" => {
                    let value = next_value(&mut iter, "--format")?;
                    cli.format = match value.as_str() {
                        "summary" => OutputFormat::Summary,
                        "json" => OutputFormat::Json,
                        "csv" => OutputFormat::Csv,
                        other => return Err(format!("unknown format `{other}`")),
                    };
                }
                "--out" => cli.out_dir = Some(PathBuf::from(next_value(&mut iter, "--out")?)),
                "--stream" => cli.stream = true,
                "--output" => cli.output = Some(PathBuf::from(next_value(&mut iter, "--output")?)),
                "--head-bytes" => {
                    cli.head_bytes = Some(parse_number(
                        &next_value(&mut iter, "--head-bytes")?,
                        "--head-bytes",
                    )?)
                }
                "--window-bytes" => {
                    cli.window_bytes = Some(parse_number(
                        &next_value(&mut iter, "--window-bytes")?,
                        "--window-bytes",
                    )?)
                }
                "--on-error" => {
                    let value = next_value(&mut iter, "--on-error")?;
                    on_error_flag = Some(match value.as_str() {
                        "skip" => ErrorPolicy::Skip,
                        "quarantine" => ErrorPolicy::Quarantine,
                        "abort" => ErrorPolicy::Abort,
                        other => return Err(format!("unknown error policy `{other}`")),
                    });
                }
                "--quarantine" => {
                    cli.quarantine = Some(PathBuf::from(next_value(&mut iter, "--quarantine")?))
                }
                "--max-line-bytes" => {
                    cli.max_line_bytes = Some(parse_number(
                        &next_value(&mut iter, "--max-line-bytes")?,
                        "--max-line-bytes",
                    )?)
                }
                "--max-window-bytes" => {
                    cli.max_window_bytes = Some(parse_number(
                        &next_value(&mut iter, "--max-window-bytes")?,
                        "--max-window-bytes",
                    )?)
                }
                "--max-match-seconds" => {
                    cli.max_match_seconds = Some(parse_number(
                        &next_value(&mut iter, "--max-match-seconds")?,
                        "--max-match-seconds",
                    )?)
                }
                "--max-quarantine-fraction" => {
                    cli.max_quarantine_fraction = Some(parse_number(
                        &next_value(&mut iter, "--max-quarantine-fraction")?,
                        "--max-quarantine-fraction",
                    )?)
                }
                "--sink-retries" => {
                    cli.sink_retries =
                        parse_number(&next_value(&mut iter, "--sink-retries")?, "--sink-retries")?
                }
                "--fast" => cli.fast = true,
                "--save-templates" => {
                    cli.save_templates =
                        Some(PathBuf::from(next_value(&mut iter, "--save-templates")?))
                }
                "--greedy" => cli.config.search = SearchStrategy::Greedy,
                "--alpha" => {
                    cli.config.alpha = parse_number(&next_value(&mut iter, "--alpha")?, "--alpha")?
                }
                "--max-span" => {
                    cli.config.max_line_span =
                        parse_number(&next_value(&mut iter, "--max-span")?, "--max-span")?
                }
                "--prune-keep" => {
                    cli.config.prune_keep =
                        parse_number(&next_value(&mut iter, "--prune-keep")?, "--prune-keep")?
                }
                "--sample-bytes" => {
                    cli.config.sample_bytes =
                        parse_number(&next_value(&mut iter, "--sample-bytes")?, "--sample-bytes")?
                }
                "--seed" => {
                    cli.config.seed = parse_number(&next_value(&mut iter, "--seed")?, "--seed")?
                }
                "--extraction-threads" => {
                    cli.config.extraction_threads = parse_number(
                        &next_value(&mut iter, "--extraction-threads")?,
                        "--extraction-threads",
                    )?
                }
                "--generation-threads" => {
                    cli.config.generation_threads = parse_number(
                        &next_value(&mut iter, "--generation-threads")?,
                        "--generation-threads",
                    )?
                }
                "--evaluation-threads" => {
                    cli.config.evaluation_threads = parse_number(
                        &next_value(&mut iter, "--evaluation-threads")?,
                        "--evaluation-threads",
                    )?
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                path if cli.input.is_none() => cli.input = Some(PathBuf::from(path)),
                extra => return Err(format!("unexpected argument `{extra}`")),
            }
        }

        if cli.command == Command::Corpus {
            if cli.input.is_some() {
                return Err(
                    "`corpus` runs on the built-in dataset catalog and takes no \
                            input file"
                        .into(),
                );
            }
        } else {
            if cli.input.is_none() {
                return Err(
                    "missing input file (usage: datamaran <subcommand> <file> [flags])".into(),
                );
            }
            if cli.fast {
                return Err("`--fast` is only valid with the `corpus` subcommand".into());
            }
        }
        if cli.stream && cli.command != Command::Extract {
            return Err("`--stream` is only valid with the `extract` subcommand".into());
        }
        if cli.save_templates.is_some() && cli.command != Command::Discover {
            return Err("`--save-templates` is only valid with the `discover` subcommand".into());
        }
        if !cli.stream
            && (cli.output.is_some() || cli.head_bytes.is_some() || cli.window_bytes.is_some())
        {
            return Err(
                "`--output`, `--head-bytes`, and `--window-bytes` require `--stream`".into(),
            );
        }
        if cli.stream && cli.format == OutputFormat::Csv && cli.output.is_none() {
            return Err(
                "`--stream --format csv` requires `--output DIR` for the per-table files".into(),
            );
        }
        if !cli.stream
            && (on_error_flag.is_some()
                || cli.quarantine.is_some()
                || cli.max_line_bytes.is_some()
                || cli.max_window_bytes.is_some()
                || cli.max_match_seconds.is_some()
                || cli.max_quarantine_fraction.is_some()
                || cli.sink_retries != 0)
        {
            return Err(
                "`--on-error`, `--quarantine`, the `--max-*` budgets, and `--sink-retries` \
                 require `--stream`"
                    .into(),
            );
        }
        if cli.quarantine.is_some() {
            match on_error_flag {
                None | Some(ErrorPolicy::Quarantine) => {
                    on_error_flag = Some(ErrorPolicy::Quarantine)
                }
                Some(_) => {
                    return Err("`--quarantine PATH` conflicts with a non-quarantine \
                                `--on-error` policy"
                        .into())
                }
            }
        }
        if let Some(policy) = on_error_flag {
            cli.on_error = policy;
        }
        if let Some(0) = cli.head_bytes {
            return Err("`--head-bytes` must be positive".into());
        }
        if let Some(0) = cli.window_bytes {
            return Err("`--window-bytes` must be positive".into());
        }
        if let Some(0) = cli.max_line_bytes {
            return Err("`--max-line-bytes` must be positive".into());
        }
        if let Some(0) = cli.max_window_bytes {
            return Err("`--max-window-bytes` must be positive".into());
        }
        if let Some(seconds) = cli.max_match_seconds {
            if !seconds.is_finite() || seconds <= 0.0 {
                return Err("`--max-match-seconds` must be a positive number".into());
            }
        }
        if let Some(fraction) = cli.max_quarantine_fraction {
            if !fraction.is_finite() || fraction <= 0.0 || fraction > 1.0 {
                return Err("`--max-quarantine-fraction` must be in (0, 1]".into());
            }
        }
        cli.config
            .validate()
            .map_err(|e| format!("invalid configuration: {e}"))?;
        Ok(cli)
    }

    fn bare(command: Command) -> Cli {
        Cli {
            command,
            input: None,
            format: OutputFormat::Summary,
            out_dir: None,
            stream: false,
            output: None,
            head_bytes: None,
            window_bytes: None,
            on_error: ErrorPolicy::Skip,
            quarantine: None,
            max_line_bytes: None,
            max_window_bytes: None,
            max_match_seconds: None,
            max_quarantine_fraction: None,
            sink_retries: 0,
            fast: false,
            save_templates: None,
            config: DatamaranConfig::default(),
        }
    }
}

fn next_value<'a, I: Iterator<Item = &'a String>>(
    iter: &mut std::iter::Peekable<I>,
    flag: &str,
) -> Result<String, String> {
    iter.next()
        .cloned()
        .ok_or_else(|| format!("flag `{flag}` requires a value"))
}

fn parse_number<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("flag `{flag}` expects a number, got `{value}`"))
}

/// Usage text printed by the `help` subcommand.
pub const USAGE: &str = "\
datamaran — unsupervised structure extraction from log files

USAGE:
    datamaran <SUBCOMMAND> <FILE> [FLAGS]

SUBCOMMANDS:
    extract     discover structure and extract every record
    discover    print the discovered structure templates only
    grammar     print the LL(1) grammar of the best structure template
    cluster     run the SLCT-style line-clustering baseline
    corpus      run the LogHub-clone corpus matrix (no FILE): per-dataset template
                F1, line coverage, and streaming MB/s for every catalog dataset
    help        print this message
    version     print the version

SERVING:
    datamaran-serve --templates PATH [--output ROWS] < FILE
                replays FILE through templates saved by `discover --save-templates`,
                hot-swapping them when the stream drifts (see `datamaran-serve --help`)

FLAGS:
    --format <summary|json|csv>   output format for `extract` (default: summary)
    --out <DIR>                   write CSV tables into DIR instead of stdout
    --stream                      bounded-memory streaming extraction: structure is
                                  discovered on the file head, records stream window by
                                  window into the sinks (O(head + window) memory);
                                  `summary` prints streaming stats, `json` writes JSON
                                  Lines records, `csv` writes per-table CSV files
    --output <PATH>               streaming destination: JSON Lines file (json) or
                                  directory of CSV tables (csv); with json and no
                                  --output, records go to stdout
    --head-bytes <INT>            stream head for structure discovery (default: 262144)
    --window-bytes <INT>          streaming window size in bytes    (default: 1048576)
    --on-error <skip|quarantine|abort>
                                  what streaming does with undecodable or oversized
                                  input (default: skip): `skip` drops the line and keeps
                                  going, `quarantine` additionally preserves the raw
                                  bytes of every unmatched line, `abort` stops with a
                                  structured error (exit code 5 or 6)
    --quarantine <PATH>           write the raw bytes of quarantined lines to PATH,
                                  byte-identical to the input (implies
                                  `--on-error quarantine`)
    --max-line-bytes <INT>        budget: cap on a single input line; longer lines are
                                  skipped or quarantined (abort: exit code 5)
    --max-window-bytes <INT>      budget: stop gracefully before a window would exceed
                                  INT resident bytes
    --max-match-seconds <FLOAT>   budget: stop gracefully once cumulative matching time
                                  exceeds FLOAT seconds
    --max-quarantine-fraction <FLOAT>
                                  budget: stop gracefully once more than this fraction
                                  of input lines was quarantined (0 < FLOAT <= 1)
    --sink-retries <INT>          retry a write or flush of the record output that fails
                                  with a transient error (interrupted, timed out, would
                                  block) up to INT times, waiting 10 ms x 2^k (at most
                                  1 s) before retry k (default: 0 = fail fast)
                                  (all of the above require `--stream`)
    --fast                        `corpus` only: scale every dataset down 8x for a
                                  smoke run (numbers are not comparable to full runs)
    --save-templates <PATH>       `discover` only: also save the discovered templates
                                  as a versioned artifact for `datamaran-serve --templates`
    --greedy                      use the greedy RT-CharSet search (default: exhaustive)
    --alpha <FLOAT>               coverage threshold α in (0, 1]       (default: 0.10)
    --max-span <INT>              maximum lines per record L           (default: 10)
    --prune-keep <INT>            templates kept after pruning M       (default: 50)
    --sample-bytes <INT>          sampling budget for the search       (default: 65536)
    --seed <INT>                  RNG seed for sampling
    --extraction-threads <INT>    extraction worker threads, 0 = auto  (default: 0)
    --generation-threads <INT>    generation worker threads, 0 = auto  (default: 0)
    --evaluation-threads <INT>    evaluation worker threads, 0 = auto  (default: 0)
";

/// A CLI failure: the message for stderr plus the stable process exit code from the
/// table in the crate docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError {
    /// Stable process exit code (1–6; 0 is never constructed).
    pub code: u8,
    /// Human-readable description of the failure.
    pub message: String,
}

impl CliError {
    /// Usage / configuration error (exit code 2).
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    /// I/O or sink failure (exit code 3).
    fn io(message: impl Into<String>) -> CliError {
        CliError {
            code: 3,
            message: message.into(),
        }
    }

    /// Maps the library error taxonomy onto the stable exit codes ([`Error::exit_code`]).
    fn from_core(e: &Error) -> CliError {
        CliError {
            code: e.exit_code(),
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// Runs the CLI: parses `args`, executes the subcommand, and writes output to `out`.
/// Errors are plain strings; use [`run_cli`] when the exit code matters.
pub fn run<W: Write>(args: &[String], out: &mut W) -> Result<(), String> {
    run_cli(args, out).map_err(|e| e.message)
}

/// Runs the CLI like [`run`], reporting failures as a [`CliError`] whose `code` field is
/// the stable process exit code the binary should return.
pub fn run_cli<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let cli = Cli::parse(args).map_err(CliError::usage)?;
    match cli.command {
        Command::Help => {
            write!(out, "{USAGE}").map_err(|e| CliError::io(e.to_string()))?;
            return Ok(());
        }
        Command::Version => {
            writeln!(out, "datamaran {}", env!("CARGO_PKG_VERSION"))
                .map_err(|e| CliError::io(e.to_string()))?;
            return Ok(());
        }
        Command::Corpus => return run_corpus(&cli, out),
        _ => {}
    }

    let Some(path) = cli.input.as_ref() else {
        return Err(CliError::usage("missing input file"));
    };
    if cli.stream {
        // The whole point of streaming is to never hold the file in memory: open a
        // buffered reader instead of reading the file into a string.
        return run_stream(&cli, path, out);
    }
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("cannot read {}: {e}", path.display())))?;

    match cli.command {
        Command::Extract => {
            let result = extract(&cli, &text)?;
            let rendered = match cli.format {
                OutputFormat::Summary => render_summary(&text, &result),
                OutputFormat::Json => extraction_report(&text, &result).to_pretty() + "\n",
                OutputFormat::Csv => {
                    if let Some(dir) = &cli.out_dir {
                        return write_csv_dir(dir, &result, out);
                    }
                    all_tables_csv(&result)
                        .into_iter()
                        .map(|(name, csv)| format!("# table: {name}\n{csv}"))
                        .collect()
                }
            };
            write!(out, "{rendered}").map_err(|e| CliError::io(e.to_string()))
        }
        Command::Discover => {
            let result = extract(&cli, &text)?;
            let mut s = String::new();
            for (i, st) in result.structures.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "type{}: {}   ({} records, coverage {:.1}%, score {:.0})",
                    i,
                    st.template,
                    st.records.len(),
                    st.coverage * 100.0,
                    st.score
                );
            }
            if let Some(path) = &cli.save_templates {
                let templates: Vec<StructureTemplate> = result
                    .structures
                    .iter()
                    .map(|st| st.template.clone())
                    .collect();
                let artifact = TemplateArtifact::new(
                    templates,
                    cli.config.max_line_span,
                    cli.config.matching_backend,
                )
                .map_err(|e| CliError::from_core(&e))?;
                artifact.save(path).map_err(|e| CliError::from_core(&e))?;
                let _ = writeln!(
                    s,
                    "saved {} templates -> {}",
                    artifact.templates.len(),
                    path.display()
                );
            }
            write!(out, "{s}").map_err(|e| CliError::io(e.to_string()))
        }
        Command::Grammar => {
            let result = extract(&cli, &text)?;
            let best = result
                .structures
                .first()
                .ok_or_else(|| CliError::from_core(&Error::NoStructureFound))?;
            let grammar = Grammar::from_template(&best.template);
            let mut s = format!("template: {}\n", best.template);
            let _ = writeln!(s, "LL(1): {}", grammar.is_ll1());
            s.push_str(&grammar.render());
            write!(out, "{s}").map_err(|e| CliError::io(e.to_string()))
        }
        Command::Cluster => {
            let result = LogCluster::new(ClusterConfig::default()).cluster(&text);
            let mut s = String::new();
            for c in &result.clusters {
                let _ = writeln!(s, "{:>6}  {}", c.support, c.pattern);
            }
            let _ = writeln!(
                s,
                "{} clusters, {} outlier lines, coverage {:.1}%",
                result.clusters.len(),
                result.outliers.len(),
                result.coverage() * 100.0
            );
            write!(out, "{s}").map_err(|e| CliError::io(e.to_string()))
        }
        Command::Help | Command::Version | Command::Corpus => {
            unreachable!("handled above")
        }
    }
}

/// Runs the LogHub-clone corpus matrix: generates every catalog dataset, runs discovery +
/// extraction + the streaming throughput replay through [`evalkit::corpus`], and prints
/// the per-dataset progress lines followed by the accuracy and phase-timing tables —
/// the same measurement path `reproduce -- corpus` uses for the committed baselines.
fn run_corpus<W: Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    let scale = if cli.fast { 8 } else { 1 };
    let config = evalkit::corpus::corpus_config();
    let mut report = evalkit::corpus::CorpusReport::default();
    for spec in logsynth::loghub::specs(scale) {
        let data = spec.generate();
        let dataset = evalkit::corpus::run_dataset(&data, &config);
        writeln!(
            out,
            "{:<12} {:>5} templates  F1 {:.3}  coverage {:.3}  {:>7.1} MB/s  ({:.2} s)",
            dataset.name,
            dataset.spec_templates,
            dataset.accuracy.f1,
            dataset.accuracy.line_coverage,
            dataset.stream_mb_per_sec(),
            dataset.stats.timings.total().as_secs_f64(),
        )
        .map_err(|e| CliError::io(e.to_string()))?;
        report.datasets.push(dataset);
    }
    write!(
        out,
        "\n{}\n{}",
        report.accuracy_table(),
        report.timing_table()
    )
    .map_err(|e| CliError::io(e.to_string()))
}

/// Streams the guarded pipeline into `sink`.
fn run_guarded<R: BufRead, S: RecordSink>(
    engine: &Datamaran,
    reader: R,
    options: StreamOptions,
    sink: &mut S,
    quarantine: Option<&mut dyn QuarantineSink>,
) -> Result<StreamSummary, CliError> {
    let mut session = StreamSession::new(engine).options(options);
    if let Some(q) = quarantine {
        session = session.quarantine(q);
    }
    session
        .run(reader, sink)
        .map_err(|e| CliError::from_core(&e))
}

/// Appends the fault-handling part of the streaming summary (quarantine counters, early
/// stop) — only the lines that carry information.
fn render_fault_stats(s: &mut String, summary: &StreamSummary) {
    if summary.quarantined_lines > 0
        || summary.invalid_utf8_lines > 0
        || summary.oversized_lines > 0
    {
        let _ = writeln!(
            s,
            "quarantined lines: {} ({} bytes)   invalid utf-8: {}   oversized: {}",
            summary.quarantined_lines,
            summary.quarantined_bytes,
            summary.invalid_utf8_lines,
            summary.oversized_lines
        );
    }
    if let Some(reason) = summary.stopped_reason {
        let _ = writeln!(s, "stopped early: {} budget reached", reason.name());
    }
}

/// Runs `extract --stream`: bounded-memory extraction straight into the push-based sinks,
/// with the fault-tolerance knobs (`--on-error`, `--quarantine`, budgets) wired through to
/// the guarded pipeline and `--sink-retries` to a [`RetryingWriter`] under each record
/// output's raw writer.
fn run_stream<W: Write>(cli: &Cli, path: &Path, out: &mut W) -> Result<(), CliError> {
    let file = fs::File::open(path)
        .map_err(|e| CliError::io(format!("cannot open {}: {e}", path.display())))?;
    let reader = std::io::BufReader::new(file);
    let mut options = StreamOptions::default();
    if let Some(head) = cli.head_bytes {
        options.head_bytes = head;
    }
    if let Some(window) = cli.window_bytes {
        options.window_bytes = window;
    }
    options.on_error = cli.on_error;
    options.budgets = StreamBudgets {
        max_line_bytes: cli.max_line_bytes,
        max_window_bytes: cli.max_window_bytes,
        max_match_seconds: cli.max_match_seconds,
        max_quarantine_fraction: cli.max_quarantine_fraction,
    };
    let engine = Datamaran::new(cli.config.clone()).map_err(|e| CliError::from_core(&e))?;

    // Open the quarantine file up front so a bad path fails before any extraction work.
    let mut quarantine_file = match &cli.quarantine {
        Some(qpath) => {
            let file = fs::File::create(qpath)
                .map_err(|e| CliError::io(format!("cannot create {}: {e}", qpath.display())))?;
            Some(WriteQuarantineSink::new(BufWriter::new(file)))
        }
        None => None,
    };
    let quarantine = quarantine_file
        .as_mut()
        .map(|q| q as &mut dyn QuarantineSink);

    let outcome = match cli.format {
        OutputFormat::Summary => {
            let mut sink = CountingSink::default();
            let summary = run_guarded(&engine, reader, options, &mut sink, quarantine)?;
            let mut s = String::new();
            let _ = writeln!(
                s,
                "streamed: {} bytes, {} lines in {} windows",
                summary.bytes_processed, summary.lines_processed, summary.windows
            );
            let _ = writeln!(
                s,
                "records: {}   noise lines: {}",
                summary.records, summary.noise_lines
            );
            let _ = writeln!(
                s,
                "peak window bytes: {}   sink seconds: {:.3}",
                summary.peak_window_bytes, summary.sink_seconds
            );
            let stats = summary.match_stats();
            if stats.lines_dispatched > 0 {
                let _ = writeln!(
                    s,
                    "matcher: {} trialed, {} pruned ({:.1}% pruned), fused dispatch {:.1}%",
                    stats.templates_trialed,
                    stats.templates_pruned,
                    100.0 * stats.prune_rate(),
                    100.0 * stats.fused_dispatch_rate()
                );
            }
            render_fault_stats(&mut s, &summary);
            for (i, (t, n)) in summary.templates.iter().zip(&sink.per_template).enumerate() {
                let _ = writeln!(s, "type{i}: {t}   ({n} records)");
            }
            write!(out, "{s}").map_err(|e| CliError::io(e.to_string()))
        }
        OutputFormat::Json => {
            if let Some(output) = &cli.output {
                let sink_file = fs::File::create(output).map_err(|e| {
                    CliError::io(format!("cannot create {}: {e}", output.display()))
                })?;
                let retrying = RetryingWriter::new(sink_file, cli.sink_retries);
                let mut sink = JsonLinesSink::new(BufWriter::new(retrying));
                let summary = run_guarded(&engine, reader, options, &mut sink, quarantine)?;
                writeln!(out, "{}", stream_report(&summary).to_pretty())
                    .map_err(|e| CliError::io(e.to_string()))
            } else {
                let mut sink = JsonLinesSink::new(RetryingWriter::new(&mut *out, cli.sink_retries));
                run_guarded(&engine, reader, options, &mut sink, quarantine)?;
                Ok(())
            }
        }
        OutputFormat::Csv => {
            let Some(dir) = cli.output.as_ref() else {
                return Err(CliError::usage(
                    "`--stream --format csv` requires `--output DIR`",
                ));
            };
            fs::create_dir_all(dir)
                .map_err(|e| CliError::io(format!("cannot create {}: {e}", dir.display())))?;
            // Write every table to a `.csv.tmp` sibling and rename on success, so a
            // failed run never leaves a half-written table behind at the final path.
            let mut staged: Vec<(PathBuf, PathBuf)> = Vec::new();
            let mut sink = CsvSink::new(|name: &str| {
                let tmp = dir.join(format!("{name}.csv.tmp"));
                let file = fs::File::create(&tmp)?;
                staged.push((tmp, dir.join(format!("{name}.csv"))));
                Ok(BufWriter::new(RetryingWriter::new(file, cli.sink_retries)))
            });
            let streamed = run_guarded(&engine, reader, options, &mut sink, quarantine);
            drop(sink); // flushes and closes the staged writers
            match streamed {
                Ok(summary) => {
                    for (tmp, final_path) in &staged {
                        fs::rename(tmp, final_path).map_err(|e| {
                            CliError::io(format!("cannot finalize {}: {e}", final_path.display()))
                        })?;
                        writeln!(out, "wrote {}", final_path.display())
                            .map_err(|e| CliError::io(e.to_string()))?;
                    }
                    writeln!(out, "{}", stream_report(&summary).to_pretty())
                        .map_err(|e| CliError::io(e.to_string()))
                }
                Err(err) => {
                    for (tmp, _) in &staged {
                        fs::remove_file(tmp).ok();
                    }
                    Err(err)
                }
            }
        }
    };

    // Flush the quarantine file and report its size on success.  Early-return paths
    // above still preserve the bytes: the buffered writer flushes on drop.
    if let Some(q) = quarantine_file {
        let (lines, bytes) = (q.lines, q.bytes);
        q.into_writer().map_err(|e| CliError::from_core(&e))?;
        if let Some(qpath) = &cli.quarantine {
            if outcome.is_ok() {
                writeln!(
                    out,
                    "quarantined {lines} lines ({bytes} bytes) -> {}",
                    qpath.display()
                )
                .map_err(|e| CliError::io(e.to_string()))?;
            }
        }
    }
    outcome
}

fn extract(cli: &Cli, text: &str) -> Result<datamaran_core::ExtractionResult, CliError> {
    Datamaran::new(cli.config.clone())
        .map_err(|e| CliError::from_core(&e))?
        .extract(text)
        .map_err(|e| CliError::from_core(&e))
}

fn render_summary(text: &str, result: &datamaran_core::ExtractionResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "dataset: {} bytes, {} lines",
        text.len(),
        text.lines().count()
    );
    let _ = writeln!(
        s,
        "records: {}   noise lines: {}   noise fraction: {:.1}%",
        result.record_count(),
        result.noise_lines.len(),
        result.noise_fraction * 100.0
    );
    for (i, st) in result.structures.iter().enumerate() {
        let _ = writeln!(
            s,
            "type{}: {}   ({} records, {} columns, coverage {:.1}%)",
            i,
            st.template,
            st.records.len(),
            st.template.field_count(),
            st.coverage * 100.0
        );
        let types: Vec<&str> = st.column_types.iter().map(|t| t.name()).collect();
        let _ = writeln!(s, "       column types: {}", types.join(", "));
    }
    let t = &result.stats.timings;
    let _ = writeln!(
        s,
        "time: generation {:.0}ms, pruning {:.0}ms, evaluation {:.0}ms, extraction {:.0}ms",
        t.generation.as_secs_f64() * 1000.0,
        t.pruning.as_secs_f64() * 1000.0,
        t.evaluation.as_secs_f64() * 1000.0,
        t.extraction.as_secs_f64() * 1000.0
    );
    let m = &result.stats.evaluation_metrics;
    if m.delta_parses + m.delta_full_parses > 0 {
        let _ = writeln!(
            s,
            "evaluation: {} evaluations ({} memo hits), {} delta / {} full parses, \
             record reuse {:.1}%, dirty columns {:.1}%",
            m.evaluations,
            m.memo_hits,
            m.delta_parses,
            m.delta_full_parses,
            m.delta_record_reuse_rate() * 100.0,
            m.dirty_column_fraction() * 100.0
        );
    }
    s
}

fn write_csv_dir<W: Write>(
    dir: &Path,
    result: &datamaran_core::ExtractionResult,
    out: &mut W,
) -> Result<(), CliError> {
    fs::create_dir_all(dir)
        .map_err(|e| CliError::io(format!("cannot create {}: {e}", dir.display())))?;
    for s in &result.structures {
        for table in &s.relational.tables {
            // Stage through a `.csv.tmp` sibling so a write failure never leaves a
            // truncated table at the final path.
            let path = dir.join(format!("{}.csv", table.name));
            let tmp = dir.join(format!("{}.csv.tmp", table.name));
            fs::write(&tmp, table_to_csv(table)).map_err(|e| {
                fs::remove_file(&tmp).ok();
                CliError::io(format!("cannot write {}: {e}", path.display()))
            })?;
            fs::rename(&tmp, &path)
                .map_err(|e| CliError::io(format!("cannot finalize {}: {e}", path.display())))?;
            writeln!(out, "wrote {}", path.display()).map_err(|e| CliError::io(e.to_string()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamaran_core::JsonValue;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_extract_with_flags() {
        let cli = Cli::parse(&args(&[
            "extract",
            "app.log",
            "--format",
            "json",
            "--greedy",
            "--alpha",
            "0.2",
            "--max-span",
            "4",
            "--prune-keep",
            "100",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(cli.command, Command::Extract);
        assert_eq!(cli.input.as_ref().unwrap().to_str(), Some("app.log"));
        assert_eq!(cli.format, OutputFormat::Json);
        assert_eq!(cli.config.search, SearchStrategy::Greedy);
        assert!((cli.config.alpha - 0.2).abs() < 1e-9);
        assert_eq!(cli.config.max_line_span, 4);
        assert_eq!(cli.config.prune_keep, 100);
        assert_eq!(cli.config.seed, 7);
    }

    #[test]
    fn parses_corpus_without_input_file() {
        let cli = Cli::parse(&args(&["corpus"])).unwrap();
        assert_eq!(cli.command, Command::Corpus);
        assert!(cli.input.is_none());
        assert!(!cli.fast);

        let cli = Cli::parse(&args(&["corpus", "--fast"])).unwrap();
        assert!(cli.fast);
    }

    #[test]
    fn corpus_rejects_input_and_fast_requires_corpus() {
        assert!(Cli::parse(&args(&["corpus", "app.log"]))
            .unwrap_err()
            .contains("no input file"));
        assert!(Cli::parse(&args(&["extract", "app.log", "--fast"]))
            .unwrap_err()
            .contains("`corpus`"));
    }

    #[test]
    fn parses_extraction_flags() {
        let cli = Cli::parse(&args(&[
            "extract",
            "app.log",
            "--extraction-threads",
            "4",
            "--generation-threads",
            "2",
            "--evaluation-threads",
            "3",
        ]))
        .unwrap();
        assert_eq!(cli.config.extraction_threads, 4);
        assert_eq!(cli.config.generation_threads, 2);
        assert_eq!(cli.config.evaluation_threads, 3);
        // Each step runs one engine: the former backend selectors are unknown flags.
        for (flag, value) in [
            ("--extraction-backend", "legacy"),
            ("--evaluation-backend", "span-full"),
        ] {
            let err = Cli::parse(&args(&["extract", "x.log", flag, value])).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn matching_backend_flag_is_unknown() {
        for value in ["trial", "fused"] {
            let argv = args(&["extract", "x.log", "--matching-backend", value]);
            let err = Cli::parse(&argv).unwrap_err();
            assert!(err.contains("unknown flag"), "{value}: {err}");
            let mut out = Vec::new();
            assert_eq!(run_cli(&argv, &mut out).unwrap_err().code, 2, "{value}");
        }
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(Cli::parse(&args(&["extract", "x.log", "--bogus"])).is_err());
        assert!(Cli::parse(&args(&["extract", "x.log", "--alpha"])).is_err());
        assert!(Cli::parse(&args(&["extract", "x.log", "--alpha", "two"])).is_err());
        assert!(Cli::parse(&args(&["extract", "x.log", "--format", "xml"])).is_err());
        assert!(Cli::parse(&args(&["frobnicate", "x.log"])).is_err());
        assert!(Cli::parse(&args(&["extract"])).is_err());
        assert!(Cli::parse(&args(&["extract", "a.log", "b.log"])).is_err());
    }

    #[test]
    fn rejects_out_of_range_parameters() {
        assert!(Cli::parse(&args(&["extract", "x.log", "--alpha", "1.5"])).is_err());
        assert!(Cli::parse(&args(&["extract", "x.log", "--max-span", "0"])).is_err());
    }

    #[test]
    fn help_and_version_do_not_require_a_file() {
        assert_eq!(Cli::parse(&args(&["help"])).unwrap().command, Command::Help);
        assert_eq!(Cli::parse(&args(&[])).unwrap().command, Command::Help);
        assert_eq!(
            Cli::parse(&args(&["--version"])).unwrap().command,
            Command::Version
        );
        let mut out = Vec::new();
        run(&args(&["help"]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("USAGE"));
        let mut out = Vec::new();
        run(&args(&["version"]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().starts_with("datamaran "));
    }

    fn temp_log(name: &str, content: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("datamaran_cli_test_{name}_{}", std::process::id()));
        fs::write(&path, content).unwrap();
        path
    }

    fn web_log(n: usize) -> String {
        (0..n)
            .map(|i| {
                format!(
                    "[{:02}:{:02}] 10.0.{}.{} GET /p{}\n",
                    i % 24,
                    i % 60,
                    i % 8,
                    i % 250,
                    i % 7
                )
            })
            .collect()
    }

    #[test]
    fn extract_summary_end_to_end() {
        let path = temp_log("summary", &web_log(80));
        let mut out = Vec::new();
        run(&args(&["extract", path.to_str().unwrap()]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("records: 80"));
        assert!(text.contains("type0:"));
        fs::remove_file(path).ok();
    }

    #[test]
    fn extract_json_end_to_end() {
        let path = temp_log("json", &web_log(60));
        let mut out = Vec::new();
        run(
            &args(&["extract", path.to_str().unwrap(), "--format", "json"]),
            &mut out,
        )
        .unwrap();
        let report = JsonValue::parse(String::from_utf8(out).unwrap().trim()).unwrap();
        assert_eq!(
            report.require("record_count").unwrap().as_usize().unwrap(),
            60
        );
        fs::remove_file(path).ok();
    }

    #[test]
    fn csv_output_to_directory() {
        let path = temp_log("csv", &web_log(40));
        let dir = std::env::temp_dir().join(format!("datamaran_cli_csv_{}", std::process::id()));
        let mut out = Vec::new();
        run(
            &args(&[
                "extract",
                path.to_str().unwrap(),
                "--format",
                "csv",
                "--out",
                dir.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap();
        let written: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert!(!written.is_empty());
        fs::remove_dir_all(dir).ok();
        fs::remove_file(path).ok();
    }

    #[test]
    fn discover_grammar_and_cluster_subcommands() {
        let path = temp_log("misc", &web_log(50));
        let mut out = Vec::new();
        run(&args(&["discover", path.to_str().unwrap()]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("type0:"));

        let mut out = Vec::new();
        run(&args(&["grammar", path.to_str().unwrap()]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("LL(1): true"));
        assert!(text.contains("S ->"));

        let mut out = Vec::new();
        run(&args(&["cluster", path.to_str().unwrap()]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("clusters"));
        fs::remove_file(path).ok();
    }

    #[test]
    fn parses_stream_flags() {
        let cli = Cli::parse(&args(&[
            "extract",
            "app.log",
            "--stream",
            "--format",
            "json",
            "--output",
            "recs.jsonl",
            "--head-bytes",
            "4096",
            "--window-bytes",
            "1024",
        ]))
        .unwrap();
        assert!(cli.stream);
        assert_eq!(cli.output.as_ref().unwrap().to_str(), Some("recs.jsonl"));
        assert_eq!(cli.head_bytes, Some(4096));
        assert_eq!(cli.window_bytes, Some(1024));
    }

    #[test]
    fn stream_flag_validation() {
        // --stream only with extract; --output requires --stream; streaming csv needs --output.
        assert!(Cli::parse(&args(&["discover", "x.log", "--stream"])).is_err());
        assert!(Cli::parse(&args(&["extract", "x.log", "--output", "o"])).is_err());
        assert!(Cli::parse(&args(&["extract", "x.log", "--window-bytes", "64"])).is_err());
        assert!(Cli::parse(&args(&["extract", "x.log", "--stream", "--format", "csv"])).is_err());
        assert!(Cli::parse(&args(&[
            "extract",
            "x.log",
            "--stream",
            "--window-bytes",
            "0"
        ]))
        .is_err());
        assert!(Cli::parse(&args(&[
            "extract",
            "x.log",
            "--stream",
            "--head-bytes",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn stream_summary_end_to_end() {
        let path = temp_log("stream_summary", &web_log(200));
        let mut out = Vec::new();
        run(
            &args(&[
                "extract",
                path.to_str().unwrap(),
                "--stream",
                "--head-bytes",
                "2048",
                "--window-bytes",
                "512",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("records: 200"), "{text}");
        assert!(text.contains("peak window bytes:"), "{text}");
        assert!(text.contains("type0:"), "{text}");
        fs::remove_file(path).ok();
    }

    #[test]
    fn stream_jsonl_and_csv_match_in_memory_export() {
        use datamaran_core::all_records_jsonl;
        let log = web_log(150);
        let path = temp_log("stream_eq", &log);
        let base =
            std::env::temp_dir().join(format!("datamaran_cli_stream_{}", std::process::id()));
        fs::create_dir_all(&base).unwrap();

        // JSON Lines to a file, streaming report on stdout.
        let jsonl_path = base.join("records.jsonl");
        let mut out = Vec::new();
        run(
            &args(&[
                "extract",
                path.to_str().unwrap(),
                "--stream",
                "--format",
                "json",
                "--output",
                jsonl_path.to_str().unwrap(),
                "--window-bytes",
                "1024",
            ]),
            &mut out,
        )
        .unwrap();
        let report = JsonValue::parse(String::from_utf8(out).unwrap().trim()).unwrap();
        let count = |key: &str| report.require(key).unwrap().as_usize().unwrap();
        assert_eq!(count("records"), 150);
        assert!(count("peak_window_bytes") > 0);

        // The streamed bytes equal the in-memory serializer's output.
        let result = Datamaran::with_defaults().extract(&log).unwrap();
        assert_eq!(
            fs::read_to_string(&jsonl_path).unwrap(),
            all_records_jsonl(&log, &result)
        );

        // CSV directory: every table byte-identical to the materialized exporter.
        let csv_dir = base.join("tables");
        let mut out = Vec::new();
        run(
            &args(&[
                "extract",
                path.to_str().unwrap(),
                "--stream",
                "--format",
                "csv",
                "--output",
                csv_dir.to_str().unwrap(),
                "--window-bytes",
                "1024",
            ]),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("wrote "));
        for s in &result.structures {
            for table in &s.relational.tables {
                let streamed =
                    fs::read_to_string(csv_dir.join(format!("{}.csv", table.name))).unwrap();
                assert_eq!(streamed, table_to_csv(table), "table {}", table.name);
            }
        }

        fs::remove_dir_all(base).ok();
        fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let mut out = Vec::new();
        let err = run(&args(&["extract", "/no/such/file.log"]), &mut out).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn parses_fault_flags() {
        let cli = Cli::parse(&args(&[
            "extract",
            "app.log",
            "--stream",
            "--on-error",
            "abort",
            "--max-line-bytes",
            "4096",
            "--max-window-bytes",
            "65536",
            "--max-match-seconds",
            "2.5",
            "--max-quarantine-fraction",
            "0.25",
            "--sink-retries",
            "3",
        ]))
        .unwrap();
        assert_eq!(cli.on_error, ErrorPolicy::Abort);
        assert_eq!(cli.max_line_bytes, Some(4096));
        assert_eq!(cli.max_window_bytes, Some(65536));
        assert_eq!(cli.max_match_seconds, Some(2.5));
        assert_eq!(cli.max_quarantine_fraction, Some(0.25));
        assert_eq!(cli.sink_retries, 3);

        // --quarantine implies the quarantine policy.
        let cli = Cli::parse(&args(&[
            "extract",
            "a.log",
            "--stream",
            "--quarantine",
            "q.bin",
        ]))
        .unwrap();
        assert_eq!(cli.on_error, ErrorPolicy::Quarantine);
        assert_eq!(cli.quarantine.as_ref().unwrap().to_str(), Some("q.bin"));
    }

    #[test]
    fn fault_flag_validation() {
        // All fault flags require --stream.
        assert!(Cli::parse(&args(&["extract", "x.log", "--on-error", "skip"])).is_err());
        assert!(Cli::parse(&args(&["extract", "x.log", "--quarantine", "q"])).is_err());
        assert!(Cli::parse(&args(&["extract", "x.log", "--sink-retries", "2"])).is_err());
        assert!(Cli::parse(&args(&["extract", "x.log", "--max-line-bytes", "9"])).is_err());
        // --quarantine conflicts with an explicit non-quarantine policy.
        assert!(Cli::parse(&args(&[
            "extract",
            "x.log",
            "--stream",
            "--quarantine",
            "q",
            "--on-error",
            "abort"
        ]))
        .is_err());
        // Range checks.
        assert!(Cli::parse(&args(&[
            "extract",
            "x.log",
            "--stream",
            "--on-error",
            "explode"
        ]))
        .is_err());
        assert!(Cli::parse(&args(&[
            "extract",
            "x.log",
            "--stream",
            "--max-line-bytes",
            "0"
        ]))
        .is_err());
        assert!(Cli::parse(&args(&[
            "extract",
            "x.log",
            "--stream",
            "--max-match-seconds",
            "0"
        ]))
        .is_err());
        assert!(Cli::parse(&args(&[
            "extract",
            "x.log",
            "--stream",
            "--max-quarantine-fraction",
            "1.5"
        ]))
        .is_err());
    }

    #[test]
    fn run_cli_reports_stable_exit_codes() {
        let mut out = Vec::new();
        let err = run_cli(&args(&["extract", "/no/such/file.log"]), &mut out).unwrap_err();
        assert_eq!(err.code, 3, "{}", err.message);
        let err = run_cli(&args(&["extract", "x.log", "--bogus"]), &mut out).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        let err = run_cli(&args(&["extract", "x.log", "--alpha", "7"]), &mut out).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
    }

    #[test]
    fn abort_on_oversized_line_exits_with_budget_code() {
        let mut log = web_log(150);
        log.push_str(&"x".repeat(4096));
        log.push('\n');
        let path = temp_log("abort_budget", &log);
        let mut out = Vec::new();
        let err = run_cli(
            &args(&[
                "extract",
                path.to_str().unwrap(),
                "--stream",
                "--on-error",
                "abort",
                "--max-line-bytes",
                "256",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err.code, 5, "{}", err.message);
        assert!(err.message.contains("line-bytes"), "{}", err.message);
        fs::remove_file(path).ok();
    }

    #[test]
    fn failed_csv_stream_leaves_no_half_written_tables() {
        // Abort mid-stream (oversized line under `--on-error abort`): the staged
        // `.csv.tmp` files must be cleaned up and no final `.csv` may appear.
        let mut log = web_log(300);
        log.push_str(&"x".repeat(8192));
        log.push('\n');
        let path = temp_log("csv_abort", &log);
        let dir =
            std::env::temp_dir().join(format!("datamaran_cli_csv_abort_{}", std::process::id()));
        let mut out = Vec::new();
        let err = run_cli(
            &args(&[
                "extract",
                path.to_str().unwrap(),
                "--stream",
                "--format",
                "csv",
                "--output",
                dir.to_str().unwrap(),
                "--window-bytes",
                "1024",
                "--on-error",
                "abort",
                "--max-line-bytes",
                "512",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err.code, 5, "{}", err.message);
        let leftovers: Vec<String> = fs::read_dir(&dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        assert!(
            leftovers.is_empty(),
            "aborted stream left files behind: {leftovers:?}"
        );
        fs::remove_dir_all(dir).ok();
        fs::remove_file(path).ok();
    }

    #[test]
    fn stream_quarantine_preserves_rejected_bytes() {
        let garbage = b"garbage \xFF\xFE bytes\n";
        let mut bytes = web_log(200).into_bytes();
        bytes.extend_from_slice(garbage);
        let path = std::env::temp_dir().join(format!(
            "datamaran_cli_test_quarantine_{}",
            std::process::id()
        ));
        fs::write(&path, &bytes).unwrap();
        let qpath = std::env::temp_dir().join(format!(
            "datamaran_cli_test_quarantine_out_{}",
            std::process::id()
        ));

        let mut out = Vec::new();
        run_cli(
            &args(&[
                "extract",
                path.to_str().unwrap(),
                "--stream",
                "--quarantine",
                qpath.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("records: 200"), "{text}");
        assert!(text.contains("quarantined"), "{text}");
        // The quarantine file holds the raw rejected bytes, byte-identical to the input.
        let preserved = fs::read(&qpath).unwrap();
        assert!(
            preserved
                .windows(garbage.len())
                .any(|w| w == garbage.as_slice()),
            "quarantine file does not contain the corrupt line"
        );
        fs::remove_file(path).ok();
        fs::remove_file(qpath).ok();
    }

    #[test]
    fn save_templates_is_discover_only_and_serve_is_gone() {
        // `--save-templates` belongs to `discover` alone.
        assert!(Cli::parse(&args(&["extract", "x.log", "--save-templates", "t.json"])).is_err());
        assert!(
            Cli::parse(&args(&["discover", "x.log", "--save-templates", "t.json"]))
                .unwrap()
                .save_templates
                .is_some()
        );
        // Serving lives in `datamaran-serve`: the subcommand and its flags are unknown here.
        let mut out = Vec::new();
        let err = run_cli(&args(&["serve", "x.log"]), &mut out).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(
            err.message.contains("unknown subcommand"),
            "{}",
            err.message
        );
        for flag in [
            "--templates",
            "--window-lines",
            "--drift-threshold",
            "--no-rediscover",
        ] {
            let err = Cli::parse(&args(&["discover", "x.log", flag, "1"])).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn discover_save_templates_writes_a_loadable_artifact() {
        let log = web_log(300);
        let path = temp_log("save_templates", &log);
        let base = std::env::temp_dir().join(format!(
            "datamaran_cli_save_templates_{}",
            std::process::id()
        ));
        fs::create_dir_all(&base).unwrap();
        let artifact_path = base.join("templates.json");

        let mut out = Vec::new();
        run(
            &args(&[
                "discover",
                path.to_str().unwrap(),
                "--save-templates",
                artifact_path.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();

        // The artifact loads back with every discovered template, under the engine's
        // extraction parameters.
        let artifact = TemplateArtifact::load(&artifact_path).unwrap();
        let discovered = Datamaran::with_defaults().extract(&log).unwrap();
        assert!(!artifact.templates.is_empty());
        assert_eq!(artifact.templates.len(), discovered.structures.len());
        assert_eq!(
            text.lines().filter(|l| l.starts_with("type")).count(),
            artifact.templates.len()
        );
        assert!(
            text.contains(&format!("saved {} templates", artifact.templates.len())),
            "{text}"
        );
        let config = DatamaranConfig::default();
        assert_eq!(artifact.max_line_span, config.max_line_span);
        let document = fs::read_to_string(&artifact_path).unwrap();
        assert!(document.contains("\"matching_backend\": \"fused\""));

        fs::remove_dir_all(base).ok();
        fs::remove_file(path).ok();
    }
}
