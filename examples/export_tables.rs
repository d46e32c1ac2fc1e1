//! Export: turn a log file into a JSON report and CSV tables that downstream tools can load.
//!
//! Run with `cargo run --release --example export_tables`.

use datamaran::core::{all_tables_csv, extraction_report, Datamaran};
use datamaran::logsynth::{corpus, DatasetSpec};

fn main() {
    // A synthetic "transactions + maintenance events" file: two interleaved record types plus
    // a little noise, standing in for a real data-lake log.
    let spec = DatasetSpec::new(
        "export_demo",
        vec![corpus::csv_transactions(0), corpus::pipe_events(0)],
        400,
        42,
    )
    .with_noise(0.02);
    let dataset = spec.generate();

    let result = Datamaran::with_defaults()
        .extract(&dataset.text)
        .expect("extraction succeeds");

    // 1. The JSON report: structure templates, column types, coverage, timings.
    let json = extraction_report(&dataset.text, &result).to_pretty();
    println!("--- JSON report (first 25 lines) ---");
    for line in json.lines().take(25) {
        println!("{line}");
    }
    println!("... ({} bytes total)\n", json.len());

    // 2. CSV tables: one per normalized table of every record type.
    let tables = all_tables_csv(&result);
    println!("--- CSV tables ---");
    for (name, csv) in &tables {
        let rows = csv.lines().count() - 1;
        println!("table `{name}`: {rows} rows");
        for line in csv.lines().take(3) {
            println!("    {line}");
        }
    }

    // 3. Write them to a temporary directory, as a downstream pipeline would.
    let dir = std::env::temp_dir().join("datamaran_export_demo");
    std::fs::create_dir_all(&dir).expect("create output directory");
    for (name, csv) in &tables {
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, csv).expect("write csv");
        println!("wrote {}", path.display());
    }
    std::fs::write(dir.join("report.json"), &json).expect("write report");
    println!("wrote {}", dir.join("report.json").display());
}
