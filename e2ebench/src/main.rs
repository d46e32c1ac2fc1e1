//! End-to-end benchmark of the DATAMARAN workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <discover_loghub|stream_tables|serve_drift> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  Each workload drives the engine through the public APIs
//! of `datamaran-core`, `logsynth`, `evalkit` and `datamaran-bench`, checks its outputs,
//! prints every metric by name and unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.  The untraced run
//! (`--trace 0`) reports the end-to-end metrics; the traced run (`--trace 1`) times each
//! call into a layer, reports per-layer self times reconciled with its wall time, and
//! writes its spans to `.bench_work/`.  `BENCHMARK.json` says why each workload exists;
//! `report::END_TO_END` says what each metric measures on each workload.

mod common;
mod discover;
mod loadgen;
mod redrive;
mod report;
mod serve;
mod stats;
mod stream;
mod sys;
mod trace;
mod wrap;

use common::{Args, Ctx};
use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload <discover_loghub|stream_tables|serve_drift> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(args)
}

/// `DatamaranConfig::default()` and the builder read `DATAMARAN_*` variables that switch
/// backends, thread counts and crash points; a benchmark run must not inherit them.
fn refuse_engine_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DATAMARAN_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with engine overrides in the environment: {}",
            set.join(", ")
        ))
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    refuse_engine_environment()?;
    println!(
        "e2ebench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc()
    );
    let ctx = Ctx::new(args.clone())?;
    let outcome = match args.workload.as_str() {
        "discover_loghub" => discover::run(&ctx),
        "stream_tables" => stream::run(&ctx),
        "serve_drift" => serve::run(&ctx),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    ctx.remove_files();
    let outcome = outcome?;
    report::render(&args, outcome)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
