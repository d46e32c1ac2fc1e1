//! Strict environment pickup through the CLI: a malformed `DATAMARAN_*` variable must
//! surface as a configuration error (exit code 2) instead of being silently defaulted.
//!
//! Environment variables are process-global, so everything lives in ONE `#[test]` —
//! the default test harness runs tests in parallel threads and a second env-mutating
//! test would race this one.

use std::io::Write as _;

fn run(args: &[&str]) -> Result<(), datamaran_cli::CliError> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    datamaran_cli::run_cli(&argv, &mut out)
}

fn temp_log() -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("datamaran_env_cfg_{}.log", std::process::id()));
    let mut file = std::fs::File::create(&path).unwrap();
    for i in 0..80 {
        writeln!(
            file,
            "[{:02}:{:02}] 10.0.0.{} GET /p{}",
            i % 24,
            i % 60,
            i % 250,
            i % 7
        )
        .unwrap();
    }
    path
}

#[test]
fn malformed_environment_is_exit_code_2_not_a_silent_default() {
    let path = temp_log();
    let file = path.to_str().unwrap();

    // Baseline: a clean environment extracts fine.
    std::env::remove_var("DATAMARAN_EXTRACTION_THREADS");
    run(&["extract", file]).expect("clean environment succeeds");

    // Through the strict builder a non-numeric thread count is a usage/configuration
    // error with the stable exit code 2, not a silent fallback to the default.
    std::env::set_var("DATAMARAN_EXTRACTION_THREADS", "many");
    let err = run(&["extract", file]).unwrap_err();
    assert_eq!(err.code, 2, "{}", err.message);
    assert!(
        err.message.contains("DATAMARAN_EXTRACTION_THREADS"),
        "{}",
        err.message
    );
    std::env::remove_var("DATAMARAN_EXTRACTION_THREADS");

    // `help` and `version` never touch the engine config and stay immune to the
    // environment, malformed or not.
    std::env::set_var("DATAMARAN_EXTRACTION_THREADS", "many");
    run(&["help"]).expect("help ignores the environment");
    run(&["version"]).expect("version ignores the environment");
    std::env::remove_var("DATAMARAN_EXTRACTION_THREADS");

    // And the environment recovers: the same extract succeeds again.
    run(&["extract", file]).expect("environment cleanup restores success");
    std::fs::remove_file(path).ok();
}
