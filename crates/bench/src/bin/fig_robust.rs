//! `fig_robust` — the robustness experiments: every catalogue algorithm
//! must reproduce its fault-free result bit for bit under each fault
//! family's scripted scenarios (see [`flash_bench::robust`]).
//!
//! ```text
//! fig_robust --suite chaos|elastic|lossy|consensus|durable|all [--smoke]
//! ```
//!
//! `--smoke` runs one algorithm per kernel family or scenario — the CI
//! entry point. Each suite writes `results/<suite>.json` (override the
//! directory with `FLASH_RESULTS_DIR`); the exit code is 1 if any check
//! of any selected suite failed.

use flash_bench::robust::{run_suite, SUITES};

fn usage() -> ! {
    eprintln!(
        "usage: fig_robust --suite {}|all [--smoke]",
        SUITES.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut suite = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--suite" => suite = it.next(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    let selected: Vec<&str> = match suite.as_deref() {
        Some("all") => SUITES.to_vec(),
        Some(name) => vec![name],
        None => usage(),
    };
    let mut passed = true;
    for name in selected {
        match run_suite(name, smoke) {
            Some(ok) => passed &= ok,
            None => {
                eprintln!("unknown suite {name:?}");
                usage();
            }
        }
    }
    if !passed {
        std::process::exit(1);
    }
}
