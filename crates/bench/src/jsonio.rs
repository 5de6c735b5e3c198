//! Machine-readable output paths for the `paper` sections.
//!
//! Every section writes a JSON artifact next to its text table:
//! `<dir>/<name>.json`, with `dir` resolved once by [`results_dir`].

use flash_obs::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The directory experiment artifacts are written to: `$FLASH_RESULTS_DIR`
/// when set, else `results/` relative to the working directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("FLASH_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes `<dir>/<name>.json` (pretty-printed, trailing newline) and
/// returns the path. Creates the directory if missing.
pub fn write_results(dir: &Path, name: &str, value: &Json) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, format!("{}\n", value.to_pretty_string()))?;
    Ok(path)
}

/// [`write_results`], reporting the outcome: `wrote <path>` on stdout, or
/// a warning on stderr — a failed write does not stop the run.
pub fn save(dir: &Path, name: &str, value: &Json) {
    match write_results(dir, name, value) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {name}.json: {e}"),
    }
}

/// Renders one evaluation-matrix cell as JSON.
pub fn result_json(r: &crate::harness::RunResult) -> Json {
    use crate::harness::RunResult;
    match r {
        RunResult::Ok(s) => Json::object()
            .set("status", "ok")
            .set("seconds", s.makespan.as_secs_f64())
            .set("supersteps", s.supersteps)
            .set("messages", s.messages)
            .set("bytes", s.bytes),
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
        let var = std::env::var_os("FLASH_RESULTS_DIR");
        assert_eq!(results_dir(), var.map_or("results".into(), PathBuf::from));
    }

    #[test]
    fn write_results_round_trips() {
        let dir = std::env::temp_dir().join(format!("flash-jsonio-{}", std::process::id()));
        let j = Json::object().set("answer", 42u64);
        let path = write_results(&dir.join("nested"), "unit_test", &j).expect("write");
        assert_eq!(path, dir.join("nested").join("unit_test.json"));
        let text = fs::read_to_string(&path).expect("read back");
        let parsed = flash_obs::json::parse(&text).expect("parse");
        assert_eq!(parsed.get("answer").and_then(Json::as_u64), Some(42));
        let _ = fs::remove_dir_all(&dir);
    }
}
