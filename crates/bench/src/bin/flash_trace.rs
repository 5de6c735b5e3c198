//! `flash_trace` — critical-path analyzer for FLASHWARE JSONL traces.
//!
//! ```text
//! flash_trace <trace.jsonl> [--top K] [--json] [--chrome <out.json>]
//! ```
//!
//! Reads a trace recorded with `flash ... --trace <file>`, validates its
//! `run_meta` header (refusing unknown schema versions), and prints the
//! per-superstep critical-path report: the makespan worker each barrier
//! waited on, the dominant phase, the top-K slowest supersteps, and the
//! barrier-skew distribution. `--chrome` additionally exports a Chrome
//! trace-event document loadable in `chrome://tracing` or Perfetto;
//! `--json` prints the report as JSON instead of text.

use flash_bench::trace::{analyze, chrome_trace, parse_trace, render_report, report_json};
use std::process::ExitCode;

fn usage() -> String {
    "usage: flash_trace <trace.jsonl> [--top K] [--json] [--chrome <out.json>]".to_string()
}

struct Options {
    input: String,
    top: usize,
    json: bool,
    chrome: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut input = None;
    let mut o = Options {
        input: String::new(),
        top: flash_bench::trace::DEFAULT_TOP_K,
        json: false,
        chrome: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                o.top = v.parse().map_err(|_| "--top needs an integer")?;
            }
            "--json" => o.json = true,
            "--chrome" => o.chrome = Some(it.next().ok_or("--chrome needs a path")?),
            "--help" | "-h" => return Err(usage()),
            path if !path.starts_with('-') && input.is_none() => {
                input = Some(path.to_string());
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    o.input = input.ok_or_else(usage)?;
    Ok(o)
}

fn run(o: &Options) -> Result<(), String> {
    let path = &o.input;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;

    let trace = parse_trace(&text)?;
    let report = analyze(&trace, o.top);

    if o.json {
        println!("{}", report_json(&trace, &report).to_pretty_string());
    } else {
        print!("{}", render_report(&trace, &report));
    }

    if let Some(path) = &o.chrome {
        std::fs::write(path, format!("{}\n", chrome_trace(&trace).to_string()))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (load in chrome://tracing or Perfetto)");
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
