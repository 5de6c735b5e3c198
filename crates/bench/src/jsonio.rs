//! Machine-readable output paths for the experiment binaries.
//!
//! Every experiment binary writes a JSON artifact next to its text table:
//! `results/<name>.json` (override the directory with `FLASH_RESULTS_DIR`).
//! The aggregate perf snapshot `BENCH_flash.json` goes to the repository
//! root (override with `FLASH_BENCH_DIR`).

use flash_obs::Json;
use std::fs;
use std::io;
use std::path::PathBuf;

/// The directory experiment artifacts are written to: `$FLASH_RESULTS_DIR`
/// when set, else `results/` relative to the working directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("FLASH_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes `results/<name>.json` (pretty-printed, trailing newline) and
/// returns the path. Creates the directory if missing.
pub fn write_results(name: &str, value: &Json) -> io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, format!("{}\n", value.to_pretty_string()))?;
    Ok(path)
}

/// Writes the top-level snapshot `BENCH_flash.json` (directory
/// overridable via `FLASH_BENCH_DIR`) and returns the path.
pub fn write_bench_snapshot(value: &Json) -> io::Result<PathBuf> {
    let dir = std::env::var_os("FLASH_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_flash.json");
    fs::write(&path, format!("{}\n", value.to_pretty_string()))?;
    Ok(path)
}

/// The canonical JSON record for one measured algorithm run: the fields
/// the `BENCH_flash.json` snapshot promises per algorithm.
pub fn run_record(stats: &flash_runtime::RunStats) -> Json {
    Json::object()
        .set("total_bytes", stats.total_bytes())
        .set("supersteps", stats.num_supersteps())
}

/// Renders one evaluation-matrix cell as JSON.
pub fn result_json(r: &crate::harness::RunResult) -> Json {
    use crate::harness::RunResult;
    match r {
        RunResult::Ok { seconds } => Json::object().set("status", "ok").set("seconds", *seconds),
        RunResult::Unsupported => Json::object().set("status", "unsupported"),
        RunResult::Failed(msg) => Json::object()
            .set("status", "failed")
            .set("error", msg.as_str()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_honors_env_override() {
        // Read-only check of the default; env mutation is process-global so
        // we only exercise the non-overridden path here.
        if std::env::var_os("FLASH_RESULTS_DIR").is_none() {
            assert_eq!(results_dir(), PathBuf::from("results"));
        }
    }

    #[test]
    fn write_results_round_trips() {
        let dir = std::env::temp_dir().join(format!("flash-jsonio-{}", std::process::id()));
        std::env::set_var("FLASH_RESULTS_DIR", &dir);
        let j = Json::object().set("answer", 42u64);
        let path = write_results("unit_test", &j).expect("write");
        std::env::remove_var("FLASH_RESULTS_DIR");
        let text = fs::read_to_string(&path).expect("read back");
        let parsed = flash_obs::json::parse(&text).expect("parse");
        assert_eq!(parsed.get("answer").and_then(Json::as_u64), Some(42));
        let _ = fs::remove_dir_all(&dir);
    }
}
