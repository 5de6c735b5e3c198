//! Writes the aggregate snapshot `BENCH_flash.json`: every CLI algorithm
//! run on the OR stand-in (4 workers, adaptive mode), reported as
//! `algorithm → {total_bytes, supersteps}` — the two counters that must
//! never move by accident, and all the gate compares.
//!
//! `FLASH_SCALE=small` uses the reduced dataset; `FLASH_BENCH_DIR` moves
//! the snapshot. A per-algorithm detail file also lands in
//! `results/bench_flash.json`.
//!
//! **Regression gate:** `bench_flash --baseline <BENCH_flash.json>`
//! compares the fresh run against the committed baseline instead of
//! overwriting it — supersteps and bytes compare exactly — and exits
//! nonzero on any mismatch. Run without arguments only to re-pin the
//! snapshot after changing a counter on purpose.

use flash_bench::baseline;
use flash_bench::cli::{dispatch, CliOptions, ALGOS};
use flash_bench::harness::Scale;
use flash_bench::jsonio;
use flash_graph::Dataset;
use flash_obs::Json;
use std::sync::Arc;

const USAGE: &str = "usage: bench_flash [--baseline <BENCH_flash.json>]";

/// The baseline path of gate mode, `None` for write mode.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<String>, String> {
    let mut baseline = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(it.next().ok_or("--baseline needs a path")?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(baseline)
}

/// Runs the gate: parses the committed baseline, compares, prints the
/// verdict table. Returns `Err` on regression.
fn run_gate(path: &str, snapshot: &Json) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let base = flash_obs::json::parse(&text).map_err(|e| format!("cannot parse {path:?}: {e}"))?;
    let result = baseline::compare(&base, snapshot);
    println!("\nbaseline gate vs {path}:");
    for line in &result.lines {
        println!("  {line}");
    }
    if result.passed() {
        println!("baseline gate: PASS");
        return Ok(());
    }
    for r in &result.regressions {
        eprintln!("regression: {r}");
    }
    // A mismatch means behavior changed; no amount of machine noise
    // explains it away.
    Err(format!(
        "{} deterministic regression(s) vs baseline",
        result.regressions.len()
    ))
}

fn main() {
    let gate = match parse_args(std::env::args().skip(1)) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let g = Arc::new(scale.load(Dataset::Orkut));
    // MSF and SSSP need edge weights; the stand-ins are unweighted, so
    // attach deterministic ones.
    let weighted = Arc::new(flash_graph::generators::with_random_weights(
        &g, 0.1, 2.0, 4,
    ));
    println!("BENCH_flash — all algorithms on OR (scale {scale:?}, 4 workers)\n");

    let mut snapshot = Json::object();
    let mut details = Vec::new();
    let mut failed = 0usize;
    for algo in ALGOS {
        let opts = CliOptions {
            algo: algo.to_string(),
            dataset: Some(Dataset::Orkut),
            ..CliOptions::default()
        };
        let graph = if algo == "msf" || algo == "sssp" {
            &weighted
        } else {
            &g
        };
        match dispatch(&opts, graph) {
            Ok((summary, stats)) => {
                println!(
                    "{algo:<10} {:>6} steps  {:>12} bytes  | {summary}",
                    stats.num_supersteps(),
                    stats.total_bytes()
                );
                snapshot = snapshot.set(algo, jsonio::run_record(&stats));
                details.push(
                    Json::object()
                        .set("algo", algo)
                        .set("summary", summary.as_str())
                        .set("stats", stats.summary_json()),
                );
            }
            Err(e) => {
                eprintln!("{algo:<10} failed: {e}");
                failed += 1;
            }
        }
    }

    let detail_doc = Json::object()
        .set("report", "bench_flash")
        .set("scale", format!("{scale:?}"))
        .set("dataset", "OR")
        .set("workers", 4u64)
        .set("runs", Json::Arr(details));
    jsonio::save(&jsonio::results_dir(), "bench_flash", &detail_doc);
    // An algorithm that returned an error has no record: the gate reports
    // it as missing, and write mode must not pin a snapshot without it.
    let outcome = match &gate {
        Some(path) => run_gate(path, &snapshot),
        None if failed > 0 => Err(format!(
            "{failed} algorithm(s) failed; snapshot not written"
        )),
        None => jsonio::write_bench_snapshot(&snapshot)
            .map(|path| println!("wrote {}", path.display()))
            .map_err(|e| format!("could not write snapshot: {e}")),
    };
    if let Err(e) = outcome {
        eprintln!("bench_flash: {e}");
        std::process::exit(1);
    }
}
