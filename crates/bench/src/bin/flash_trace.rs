//! `flash_trace` — critical-path analyzer for FLASHWARE JSONL traces.
//!
//! ```text
//! flash_trace <trace.jsonl> [--top K] [--json] [--chrome <out.json>]
//! flash_trace --smoke
//! ```
//!
//! Reads a trace recorded with `flash ... --trace <file>`, validates its
//! `run_meta` header (refusing unknown schema versions), and prints the
//! per-superstep critical-path report: the makespan worker each barrier
//! waited on, the dominant phase, the top-K slowest supersteps, and the
//! barrier-skew distribution. `--chrome` additionally exports a Chrome
//! trace-event document loadable in `chrome://tracing` or Perfetto;
//! `--json` prints the report as JSON instead of text.
//!
//! `--smoke` is the self-test used by CI: it records a real trace by
//! running BFS on a small generated graph in-process, analyzes it,
//! validates the Chrome export round-trips through the JSON parser, and
//! checks that the steps' critical paths sum to `run_end`'s simulated
//! parallel time.

use flash_bench::cli::{dispatch, CliOptions};
use flash_bench::trace::{analyze, chrome_trace, parse_trace, render_report, report_json};
use flash_obs::json::{self, Json};
use flash_runtime::{ClusterConfig, NetworkModel};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> String {
    "usage: flash_trace <trace.jsonl> [--top K] [--json] [--chrome <out.json>]\n\
     \x20      flash_trace --smoke"
        .to_string()
}

struct Options {
    input: Option<String>,
    top: usize,
    json: bool,
    chrome: Option<String>,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        input: None,
        top: flash_bench::trace::DEFAULT_TOP_K,
        json: false,
        chrome: None,
        smoke: false,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                o.top = v.parse().map_err(|_| "--top needs an integer")?;
            }
            "--json" => o.json = true,
            "--chrome" => o.chrome = Some(it.next().ok_or("--chrome needs a path")?),
            "--smoke" => o.smoke = true,
            "--help" | "-h" => return Err(usage()),
            path if !path.starts_with('-') && o.input.is_none() => {
                o.input = Some(path.to_string());
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !o.smoke && o.input.is_none() {
        return Err(usage());
    }
    Ok(o)
}

/// Records a real trace by running BFS (4 workers, simulated network) on
/// a small generated graph, returning the JSONL text.
fn record_smoke_trace() -> Result<String, String> {
    let dir = std::env::temp_dir().join(format!("flash-trace-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("smoke.jsonl");
    let g = Arc::new(flash_graph::generators::erdos_renyi(200, 900, 11));
    let opts = CliOptions {
        algo: "bfs".to_string(),
        config: ClusterConfig::with_workers(4).network(NetworkModel::ten_gbe()),
        trace: Some(path.display().to_string()),
        ..CliOptions::default()
    };
    // The JSONL sink buffers; the file is complete once the cluster (and
    // with it the sink) is dropped inside dispatch.
    dispatch(&opts, &g)?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read the smoke trace: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(text)
}

fn run(o: &Options) -> Result<(), String> {
    let text = if o.smoke {
        record_smoke_trace()?
    } else {
        let path = o.input.as_deref().expect("checked in parse_args");
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?
    };

    let trace = parse_trace(&text)?;
    let report = analyze(&trace, o.top);

    if o.json {
        println!("{}", report_json(&trace, &report).to_pretty_string());
    } else {
        print!("{}", render_report(&trace, &report));
    }

    let chrome = chrome_trace(&trace);
    if let Some(path) = &o.chrome {
        std::fs::write(path, format!("{}\n", chrome.to_string()))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (load in chrome://tracing or Perfetto)");
    }

    if o.smoke {
        // Self-check: the export must re-parse and contain events.
        let back = json::parse(&chrome.to_string()).map_err(|e| format!("chrome export: {e}"))?;
        let n = back
            .get("traceEvents")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        if n == 0 || trace.steps.is_empty() {
            return Err("smoke trace produced no supersteps".to_string());
        }
        // The run is fault-free, so run_end's clock is exactly the sum of
        // the steps' critical paths: no recovery overhead is added to it.
        if trace.simulated_parallel_ns != Some(report.total_path_ns) {
            return Err(format!(
                "smoke trace: the critical paths sum to {} ns but run_end reports {:?}",
                report.total_path_ns, trace.simulated_parallel_ns
            ));
        }
        println!(
            "\nsmoke ok: {} supersteps, {} Chrome events",
            trace.steps.len(),
            n
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let o = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&o) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flash_trace: {e}");
            ExitCode::FAILURE
        }
    }
}
