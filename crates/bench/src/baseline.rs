//! The regression gate: compares a fresh `bench_flash` run against the
//! committed `BENCH_flash.json` baseline.
//!
//! Each per-algorithm record in the snapshot carries two promises
//! (see [`crate::jsonio::run_record`]): `supersteps` and `total_bytes`
//! are **deterministic**, so any change is a behavioral regression and
//! fails the gate exactly. Nothing timed is compared — timings are
//! measured by `benchmark/` and judged by the pairing rule in
//! `benchmark/README.md`, not here.
//!
//! Top-level keys of the snapshot that are not algorithm records are
//! ignored. The `bench_flash --baseline <path>` CLI wraps [`compare`] and
//! exits nonzero on any mismatch.

use flash_obs::Json;

/// Outcome of one baseline comparison.
#[derive(Clone, Debug, Default)]
pub struct GateResult {
    /// One human-readable line per compared algorithm.
    pub lines: Vec<String>,
    /// Deterministic-promise breaks: `supersteps`/`total_bytes` changed,
    /// an algorithm missing, a malformed baseline.
    pub regressions: Vec<String>,
}

impl GateResult {
    /// True when no regression was detected.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn is_algo_record(j: &Json) -> bool {
    j.get("total_bytes").and_then(Json::as_u64).is_some()
        && j.get("supersteps").and_then(Json::as_u64).is_some()
}

/// Compares a fresh snapshot against a baseline snapshot.
///
/// Every per-algorithm record of the *baseline* must be present and
/// equal in the fresh snapshot; extra algorithms in the fresh run
/// (a growing catalogue) are fine and never fail the gate.
pub fn compare(baseline: &Json, fresh: &Json) -> GateResult {
    let mut out = GateResult::default();
    let Json::Obj(entries) = baseline else {
        out.regressions
            .push("baseline is not a JSON object".to_string());
        return out;
    };
    for (algo, base) in entries {
        if !is_algo_record(base) {
            continue;
        }
        let Some(cur) = fresh.get(algo).filter(|c| is_algo_record(c)) else {
            out.regressions
                .push(format!("{algo}: missing from fresh run"));
            continue;
        };
        let get_u = |j: &Json, f: &str| j.get(f).and_then(Json::as_u64).unwrap_or(0);

        let (bs, cs) = (get_u(base, "supersteps"), get_u(cur, "supersteps"));
        if bs != cs {
            out.regressions
                .push(format!("{algo}: supersteps changed {bs} -> {cs}"));
        }
        let (bb, cb) = (get_u(base, "total_bytes"), get_u(cur, "total_bytes"));
        if bb != cb {
            out.regressions
                .push(format!("{algo}: total_bytes changed {bb} -> {cb}"));
        }
        let verdict = if bs != cs || bb != cb {
            "REGRESSED"
        } else {
            "ok"
        };
        out.lines.push(format!(
            "{algo:<10} steps {bs:>4} -> {cs:<4}  bytes {bb:>12} -> {cb:<12}  {verdict}"
        ));
    }
    if out.lines.is_empty() && out.passed() {
        out.regressions
            .push("baseline contains no algorithm records".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bytes: u64, steps: u64) -> Json {
        Json::object()
            .set("total_bytes", bytes)
            .set("supersteps", steps)
    }

    fn snapshot(pairs: &[(&str, Json)]) -> Json {
        let mut j = Json::object();
        for (k, v) in pairs {
            j = j.set(k, v.clone());
        }
        j
    }

    #[test]
    fn clean_rerun_passes() {
        let base = snapshot(&[
            ("bfs", record(1000, 8)),
            ("cc", record(2000, 12)),
            ("workloads", Json::object().set("seed", 12u64)),
        ]);
        let r = compare(&base, &base);
        assert!(r.passed(), "{:?}", r.regressions);
        assert_eq!(r.lines.len(), 2, "workloads is not an algo record");
    }

    #[test]
    fn determinism_breaks_fail_exactly() {
        let base = snapshot(&[("bfs", record(1000, 8))]);
        let r = compare(&base, &snapshot(&[("bfs", record(1001, 8))]));
        assert!(!r.passed());
        assert!(r.regressions[0].contains("total_bytes"));
        assert!(r.lines[0].contains("REGRESSED"));
        let r = compare(&base, &snapshot(&[("bfs", record(1000, 9))]));
        assert!(!r.passed());
        assert!(r.regressions[0].contains("supersteps"));
    }

    #[test]
    fn missing_algorithm_fails_but_extra_is_fine() {
        let base = snapshot(&[("bfs", record(1000, 8))]);
        let r = compare(&base, &snapshot(&[("cc", record(1000, 8))]));
        assert!(!r.passed());
        assert!(r.regressions[0].contains("missing"));
        let grown = snapshot(&[("bfs", record(1000, 8)), ("cc", record(1, 1))]);
        assert!(compare(&base, &grown).passed());
    }

    #[test]
    fn malformed_baseline_fails_closed() {
        assert!(!compare(&Json::from(3u64), &Json::object()).passed());
        assert!(!compare(&Json::object(), &Json::object()).passed());
    }
}
