//! Critical-path analysis over FLASHWARE JSONL traces.
//!
//! A trace produced by `--trace <file>` is one JSON object per line
//! (schema: `crates/obs/src/event.rs`, versioned by the mandatory
//! `run_meta` header line). This module parses such a trace, reconstructs
//! every superstep's phase breakdown, and answers the question the raw
//! event stream cannot: *where did the simulated parallel time go?*
//!
//! Three artifacts come out:
//!
//! * a **critical-path table** — per superstep, the makespan worker (the
//!   straggler whose compute time the barrier waited on) and the dominant
//!   phase (compute, bucketing, delivery, network, or mirror-sync);
//! * a **barrier-skew distribution** — a [`Histogram`] over
//!   `barrier_skew_ns` with p50/p90/p99/max, the load-balance signal;
//! * a **Chrome trace-event export** — a `traceEvents` JSON document
//!   loadable in `chrome://tracing` / Perfetto, laying the supersteps out
//!   on a synthesized timeline (per-worker compute tracks plus a
//!   coordinator track for the serial phases).
//!
//! The `flash_trace` binary is a thin CLI over this module.

use flash_obs::json::{self, Json};
use flash_obs::{Event, EventKind, Histogram};
use flash_runtime::{ns_u64, StepStats};
use std::collections::BTreeMap;

/// Default number of slowest supersteps listed by the report.
pub const DEFAULT_TOP_K: usize = 5;

/// The validated `run_meta` header of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Trace schema version (always [`flash_obs::TRACE_SCHEMA_VERSION`]
    /// after validation).
    pub schema: u64,
    /// Fault-plan PRNG seed (0 = no plan).
    pub seed: u64,
    /// Logical worker count.
    pub workers: u64,
    /// Physical host count at startup.
    pub hosts: u64,
    /// Compact fault-plan description.
    pub fault_plan: String,
}

/// One worker's compute phase within a superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerCompute {
    /// Worker id.
    pub worker: u64,
    /// Wall-clock compute time, nanoseconds.
    pub compute_ns: u64,
}

/// One completed superstep, reassembled from its `worker_phase` and
/// `step_end` events.
#[derive(Clone, Debug, PartialEq)]
pub struct StepRecord {
    /// Superstep index.
    pub step: u64,
    /// The superstep's counters, decoded from `step_end`.
    pub stats: StepStats,
    /// Per-worker compute phases (possibly empty if the trace elided
    /// `worker_phase` events).
    pub workers: Vec<WorkerCompute>,
}

impl StepRecord {
    /// The superstep's charge to the simulated parallel clock
    /// ([`StepStats::critical_path`]), ns.
    pub fn path_ns(&self) -> u64 {
        ns_u64(self.stats.critical_path())
    }

    /// The worker the barrier waited on: highest `compute_ns`, lowest id
    /// winning ties. `None` when the trace carries no `worker_phase`
    /// events for this step.
    pub fn makespan_worker(&self) -> Option<WorkerCompute> {
        self.workers.iter().copied().max_by(|a, b| {
            a.compute_ns
                .cmp(&b.compute_ns)
                .then(b.worker.cmp(&a.worker))
        })
    }

    /// The dominant phase on this step's critical path as
    /// `(label, nanoseconds)`. Ties break toward the earlier phase in
    /// superstep order (compute first).
    pub fn dominant_phase(&self) -> (&'static str, u64) {
        let mut best = ("compute", 0);
        for (label, _, phase) in StepStats::CRITICAL_PATH {
            let ns = ns_u64(phase(&self.stats));
            if ns > best.1 {
                best = (label, ns);
            }
        }
        best
    }
}

/// A parsed, schema-validated trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The mandatory header line.
    pub meta: TraceMeta,
    /// Completed supersteps, in execution order.
    pub steps: Vec<StepRecord>,
    /// Total event lines parsed (including the header).
    pub events: usize,
    /// `run_end`'s simulated parallel time, ns, when the trace has one.
    pub simulated_parallel_ns: Option<u64>,
}

/// Parses a JSONL trace and validates its `run_meta` header.
///
/// Refuses traces whose first event is not `run_meta` (pre-header traces
/// from older runtimes), traces whose schema version differs from this
/// build's [`flash_obs::TRACE_SCHEMA_VERSION`], and any line that does not
/// decode as an event of that schema ([`Event::from_json`]).
pub fn parse_trace(text: &str) -> Result<Trace, String> {
    let mut meta: Option<TraceMeta> = None;
    let mut steps = Vec::new();
    let mut pending_workers: BTreeMap<u64, Vec<WorkerCompute>> = BTreeMap::new();
    let mut events = 0usize;
    let mut simulated_parallel_ns = None;

    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event = json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|obj| Event::from_json(&obj))
            .map_err(|e| format!("line {}: {e}", idx + 1))?;
        events += 1;

        if meta.is_none() {
            let EventKind::RunMeta {
                schema,
                seed,
                workers,
                hosts,
                fault_plan,
            } = event.kind
            else {
                return Err(format!(
                    "trace has no run_meta header: first event is {:?} \
                     (trace predates schema v{} — re-record it with a current build)",
                    event.kind.tag(),
                    flash_obs::TRACE_SCHEMA_VERSION
                ));
            };
            if schema != flash_obs::TRACE_SCHEMA_VERSION {
                return Err(format!(
                    "unsupported trace schema v{schema} (this build reads v{})",
                    flash_obs::TRACE_SCHEMA_VERSION
                ));
            }
            meta = Some(TraceMeta {
                schema,
                seed,
                workers: workers as u64,
                hosts: hosts as u64,
                fault_plan,
            });
            continue;
        }

        match event.kind {
            EventKind::WorkerPhase {
                step,
                worker,
                compute_ns,
                ..
            } => pending_workers
                .entry(step)
                .or_default()
                .push(WorkerCompute {
                    worker: worker as u64,
                    compute_ns,
                }),
            EventKind::StepEnd { step, stats } => steps.push(StepRecord {
                step,
                stats: StepStats::from_json(&stats)
                    .map_err(|e| format!("line {}: step_end: {e}", idx + 1))?,
                // Cluster::superstep emits a step's worker_phase events
                // once, after compute_with_recovery returns, so they are
                // the phases of the attempt that reached step_end; a
                // driver-side global step has none.
                workers: pending_workers.remove(&step).unwrap_or_default(),
            }),
            EventKind::RunEnd {
                simulated_parallel_ns: ns,
                ..
            } => simulated_parallel_ns = Some(ns),
            _ => {}
        }
    }

    let meta = meta.ok_or_else(|| "empty trace (no events)".to_string())?;
    Ok(Trace {
        meta,
        steps,
        events,
        simulated_parallel_ns,
    })
}

/// The analyzer's digest of one trace.
#[derive(Clone, Debug)]
pub struct Report {
    /// Indices into `trace.steps`, sorted by descending `path_ns` — the
    /// top-K slowest supersteps.
    pub slowest: Vec<usize>,
    /// Distribution of per-step barrier skew, ns.
    pub skew: Histogram,
    /// Sum of every step's critical path, ns.
    pub total_path_ns: u64,
}

/// Analyzes a parsed trace: ranks supersteps by critical-path length and
/// accumulates the barrier-skew distribution.
pub fn analyze(trace: &Trace, top_k: usize) -> Report {
    let mut skew = Histogram::new();
    let mut total_path_ns = 0u64;
    for s in &trace.steps {
        skew.record(ns_u64(s.stats.barrier_skew()));
        total_path_ns = total_path_ns.saturating_add(s.path_ns());
    }
    let mut slowest: Vec<usize> = (0..trace.steps.len()).collect();
    slowest.sort_by(|&a, &b| {
        trace.steps[b]
            .path_ns()
            .cmp(&trace.steps[a].path_ns())
            .then(a.cmp(&b))
    });
    slowest.truncate(top_k);
    Report {
        slowest,
        skew,
        total_path_ns,
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
    } else if ns >= 1_000 {
        format!("{}.{:03}us", ns / 1_000, ns % 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the human-readable critical-path report.
pub fn render_report(trace: &Trace, report: &Report) -> String {
    let m = &trace.meta;
    let mut out = String::new();
    out.push_str(&format!(
        "trace: schema v{}, {} workers on {} hosts, faults={}, seed={}\n",
        m.schema, m.workers, m.hosts, m.fault_plan, m.seed
    ));
    out.push_str(&format!(
        "{} events, {} supersteps, critical path {}\n\n",
        trace.events,
        trace.steps.len(),
        fmt_ns(report.total_path_ns)
    ));

    out.push_str("critical path per superstep:\n");
    out.push_str("  step  kind     frontier  makespan-worker       dominant-phase        path\n");
    for s in &trace.steps {
        let (phase, phase_ns) = s.dominant_phase();
        let worker = match s.makespan_worker() {
            Some(w) => format!("w{} ({})", w.worker, fmt_ns(w.compute_ns)),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "  {:>4}  {:<8} {:>8}  {:<20}  {:<12} {:>7}  {}\n",
            s.step,
            s.stats.kind.label(),
            s.stats.active,
            worker,
            phase,
            fmt_ns(phase_ns),
            fmt_ns(s.path_ns())
        ));
    }

    out.push_str(&format!(
        "\ntop {} slowest supersteps:\n",
        report.slowest.len()
    ));
    for (rank, &i) in report.slowest.iter().enumerate() {
        let s = &trace.steps[i];
        let (phase, _) = s.dominant_phase();
        out.push_str(&format!(
            "  #{:<2} step {:>4} ({:<6}) path {} — dominated by {}\n",
            rank + 1,
            s.step,
            s.stats.kind.label(),
            fmt_ns(s.path_ns()),
            phase
        ));
    }

    out.push_str("\nbarrier-skew distribution (ns):\n");
    match (report.skew.min(), report.skew.max()) {
        (Some(min), Some(max)) => {
            let p = |q| report.skew.percentile(q).unwrap_or(0);
            out.push_str(&format!(
                "  count={} min={} p50={} p90={} p99={} max={}\n",
                report.skew.count(),
                min,
                p(50),
                p(90),
                p(99),
                max
            ));
        }
        _ => out.push_str("  (no completed supersteps)\n"),
    }
    out
}

/// Renders the report as machine-readable JSON (mirrors
/// [`render_report`]; schema documented in EXPERIMENTS.md).
pub fn report_json(trace: &Trace, report: &Report) -> Json {
    let meta = Json::object()
        .set("schema", trace.meta.schema)
        .set("seed", trace.meta.seed)
        .set("workers", trace.meta.workers)
        .set("hosts", trace.meta.hosts)
        .set("fault_plan", trace.meta.fault_plan.as_str());
    let steps: Vec<Json> = trace
        .steps
        .iter()
        .map(|s| {
            let (phase, phase_ns) = s.dominant_phase();
            let mut j = Json::object()
                .set("step", s.step)
                .set("kind", s.stats.kind.label())
                .set("active", s.stats.active)
                .set("path_ns", s.path_ns())
                .set("dominant_phase", phase)
                .set("dominant_ns", phase_ns)
                .set("barrier_skew_ns", ns_u64(s.stats.barrier_skew()));
            if let Some(w) = s.makespan_worker() {
                j = j
                    .set("makespan_worker", w.worker)
                    .set("makespan_compute_ns", w.compute_ns);
            }
            j
        })
        .collect();
    let slowest: Vec<Json> = report
        .slowest
        .iter()
        .map(|&i| Json::from(trace.steps[i].step))
        .collect();
    Json::object()
        .set("report", "flash_trace")
        .set("meta", meta)
        .set("supersteps", trace.steps.len())
        .set("total_path_ns", report.total_path_ns)
        .set("steps", Json::Arr(steps))
        .set("slowest_steps", Json::Arr(slowest))
        .set("barrier_skew", report.skew.to_json())
}

fn us(ns: u64) -> Json {
    // Chrome trace timestamps are microseconds; fractional values keep
    // nanosecond precision. f64 is exact for every duration < 2^53 ns.
    #[allow(clippy::cast_precision_loss)]
    Json::Num(ns as f64 / 1000.0)
}

fn complete_event(name: &str, cat: &str, tid: u64, ts_ns: u64, dur_ns: u64) -> Json {
    Json::object()
        .set("name", name)
        .set("cat", cat)
        .set("ph", "X")
        .set("pid", 0u64)
        .set("tid", tid)
        .set("ts", us(ts_ns))
        .set("dur", us(dur_ns))
}

fn thread_name(tid: u64, name: &str) -> Json {
    Json::object()
        .set("name", "thread_name")
        .set("ph", "M")
        .set("pid", 0u64)
        .set("tid", tid)
        .set("args", Json::object().set("name", name))
}

/// Exports the trace as a Chrome trace-event document (the
/// `chrome://tracing` / Perfetto JSON format).
///
/// The timeline is synthesized from the per-step phase durations: all
/// workers' compute phases start together at the step's barrier (tid =
/// worker id + 1), then the serial coordinator phases (bucketing,
/// delivery, network, mirror-sync) run on tid 0, exactly as the
/// simulated parallel clock charges them.
pub fn chrome_trace(trace: &Trace) -> Json {
    let mut events = Vec::new();
    events.push(
        Json::object()
            .set("name", "process_name")
            .set("ph", "M")
            .set("pid", 0u64)
            .set(
                "args",
                Json::object().set(
                    "name",
                    format!("flash run ({} workers)", trace.meta.workers),
                ),
            ),
    );
    events.push(thread_name(0, "coordinator"));
    for w in 0..trace.meta.workers {
        events.push(thread_name(w + 1, &format!("worker {w}")));
    }

    let mut clock = 0u64;
    for s in &trace.steps {
        let label = format!("step {} ({})", s.step, s.stats.kind.label());
        let compute_max_ns = ns_u64(s.stats.compute_max);
        if s.workers.is_empty() {
            // No per-worker events in this trace: show the makespan as a
            // single span on the first worker track.
            events.push(complete_event(
                &format!("{label} compute"),
                "compute",
                1,
                clock,
                compute_max_ns,
            ));
        } else {
            for w in &s.workers {
                events.push(complete_event(
                    &format!("{label} compute"),
                    "compute",
                    w.worker + 1,
                    clock,
                    w.compute_ns,
                ));
            }
        }
        clock += compute_max_ns;
        for (phase, cat, duration) in &StepStats::CRITICAL_PATH[1..] {
            let dur = ns_u64(duration(&s.stats));
            if dur > 0 {
                events.push(complete_event(
                    &format!("{label} {phase}"),
                    cat,
                    0,
                    clock,
                    dur,
                ));
            }
            clock += dur;
        }
    }

    Json::object()
        .set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms")
        .set(
            "otherData",
            Json::object()
                .set("schema", trace.meta.schema)
                .set("fault_plan", trace.meta.fault_plan.as_str())
                .set("seed", trace.meta.seed),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        let header = format!(
            r#"{{"event":"run_meta","seq":0,"schema":{},"seed":7,"workers":2,"hosts":2,"fault_plan":"none"}}"#,
            flash_obs::TRACE_SCHEMA_VERSION
        );
        let lines = [
            header.as_str(),
            r#"{"event":"run_start","seq":1,"workers":2,"vertices":10,"edges":20,"net_latency_us":0,"net_bandwidth_bps":0,"partition":"hash"}"#,
            r#"{"event":"step_start","seq":2,"step":0,"kind":"sparse","active":5}"#,
            r#"{"event":"worker_phase","seq":3,"step":0,"worker":0,"compute_ns":10000,"staged_puts":1,"staged_writes":1}"#,
            r#"{"event":"worker_phase","seq":4,"step":0,"worker":1,"compute_ns":30000,"staged_puts":1,"staged_writes":1}"#,
            r#"{"event":"step_end","seq":5,"step":0,"stats":{"kind":"sparse","active":5,"upd_messages":2,"upd_bytes":32,"sync_messages":2,"sync_bytes":32,"staged":4,"arcs":12,"compute_ns":40000,"compute_max_ns":30000,"compute_min_ns":10000,"barrier_skew_ns":20000,"serialize_ns":2000,"serialize_max_ns":1000,"communicate_ns":3000,"delivery_ns":0,"simulated_net_ns":0}}"#,
            r#"{"event":"step_end","seq":6,"step":1,"stats":{"kind":"dense","active":9,"upd_messages":0,"upd_bytes":0,"sync_messages":0,"sync_bytes":0,"staged":9,"arcs":40,"compute_ns":5000,"compute_max_ns":5000,"compute_min_ns":4900,"barrier_skew_ns":100,"serialize_ns":0,"serialize_max_ns":0,"communicate_ns":90000,"delivery_ns":0,"simulated_net_ns":0}}"#,
            r#"{"event":"run_end","seq":7,"supersteps":2,"total_bytes":64,"total_messages":4,"simulated_parallel_ns":129000}"#,
            r#"{"event":"session_end","seq":8,"session":1}"#,
        ];
        lines.join("\n")
    }

    #[test]
    fn parses_and_reconstructs_steps() {
        let t = parse_trace(&sample_trace()).unwrap();
        assert_eq!(t.meta.workers, 2);
        assert_eq!(t.meta.fault_plan, "none");
        assert_eq!(t.steps.len(), 2);
        assert_eq!(t.events, 9);
        assert_eq!(t.simulated_parallel_ns, Some(129_000));
        let s0 = &t.steps[0];
        assert_eq!(s0.workers.len(), 2);
        assert_eq!(
            s0.makespan_worker(),
            Some(WorkerCompute {
                worker: 1,
                compute_ns: 30_000
            })
        );
        assert_eq!(s0.dominant_phase(), ("compute", 30_000));
        assert_eq!(s0.path_ns(), 30_000 + 1_000 + 3_000);
        let s1 = &t.steps[1];
        assert_eq!(s1.dominant_phase(), ("mirror-sync", 90_000));
        assert!(s1.makespan_worker().is_none());
    }

    #[test]
    fn refuses_missing_header() {
        let text = sample_trace();
        let headless = text.lines().skip(1).collect::<Vec<_>>().join("\n");
        let err = parse_trace(&headless).unwrap_err();
        assert!(err.contains("no run_meta header"), "{err}");
    }

    #[test]
    fn refuses_mismatched_schema() {
        let text = sample_trace().replace(
            &format!("\"schema\":{}", flash_obs::TRACE_SCHEMA_VERSION),
            "\"schema\":999",
        );
        let err = parse_trace(&text).unwrap_err();
        assert!(err.contains("unsupported trace schema v999"), "{err}");
    }

    #[test]
    fn refuses_empty_and_garbage() {
        assert!(parse_trace("").is_err());
        assert!(parse_trace("not json\n").is_err());
        assert!(parse_trace("{\"x\":1}\n").is_err());
        // A known event that lost a field mid-trace is refused by line.
        let text = sample_trace().replace("\"compute_ns\":30000,", "");
        let err = parse_trace(&text).unwrap_err();
        assert!(
            err.starts_with("line 5: worker_phase: missing field"),
            "{err}"
        );
        // So is a step_end whose counters lost a key.
        let text = sample_trace().replace("\"compute_max_ns\":5000,", "");
        let err = parse_trace(&text).unwrap_err();
        assert_eq!(
            err,
            "line 7: step_end: stats: missing field \"compute_max_ns\""
        );
    }

    #[test]
    fn analyze_ranks_slowest_and_accumulates_skew() {
        let t = parse_trace(&sample_trace()).unwrap();
        let r = analyze(&t, 10);
        // step 1 path = 95_000 > step 0 path = 34_000.
        assert_eq!(r.slowest, vec![1, 0]);
        assert_eq!(r.total_path_ns, 34_000 + 95_000);
        assert_eq!(r.skew.count(), 2);
        assert_eq!(r.skew.max(), Some(20_000));
        let r1 = analyze(&t, 1);
        assert_eq!(r1.slowest, vec![1]);
    }

    #[test]
    fn report_text_names_the_culprits() {
        let t = parse_trace(&sample_trace()).unwrap();
        let r = analyze(&t, DEFAULT_TOP_K);
        let text = render_report(&t, &r);
        assert!(text.contains("2 supersteps"));
        assert!(text.contains("w1 (30.000us)"), "{text}");
        assert!(text.contains("mirror-sync"));
        assert!(text.contains("barrier-skew distribution"));
        assert!(text.contains("p99="));
    }

    #[test]
    fn report_json_round_trips() {
        let t = parse_trace(&sample_trace()).unwrap();
        let r = analyze(&t, 1);
        let j = report_json(&t, &r);
        let back = json::parse(&j.to_string()).unwrap();
        assert_eq!(back, j);
        assert_eq!(
            j.get("slowest_steps")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(j.get("total_path_ns").and_then(Json::as_u64), Some(129_000));
    }

    #[test]
    fn chrome_export_is_valid_and_sequential() {
        let t = parse_trace(&sample_trace()).unwrap();
        let doc = chrome_trace(&t);
        let back = json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // Step 0: 2 worker computes + bucketing + mirror-sync (delivery
        // and network are zero, so skipped). Step 1: 1 synthesized
        // compute span + mirror-sync.
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 6);
        // Every complete event carries ts/dur in microseconds and a tid.
        let mut coord_end = 0.0f64;
        for e in &complete {
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            let dur = e.get("dur").and_then(Json::as_f64).unwrap();
            assert!(e.get("tid").and_then(Json::as_u64).is_some());
            if e.get("tid").and_then(Json::as_u64) == Some(0) {
                assert!(ts >= coord_end, "coordinator track overlaps");
                coord_end = ts + dur;
            }
        }
        // Step 1's compute had no worker_phase events: it lands on tid 1.
        assert!(complete
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("step 1 (dense) compute")));
    }

    /// A real trace: BFS at 4 workers under the 10 GbE model on
    /// ER(200, 900), recorded through the CLI's `--trace` file sink.
    #[test]
    fn a_recorded_trace_parses_exports_and_sums_to_its_clock() {
        use crate::cli::{dispatch, CliOptions};
        use flash_runtime::{ClusterConfig, NetworkModel, StepKind};
        let dir = flash_graph::testutil::TempDirGuard::new("trace-recorded");
        let path = dir.path().join("bfs.jsonl");
        let g = std::sync::Arc::new(flash_graph::generators::erdos_renyi(200, 900, 11));
        let opts = CliOptions {
            algo: "bfs".to_string(),
            config: ClusterConfig::with_workers(4).network(NetworkModel::ten_gbe()),
            trace: Some(path.display().to_string()),
            ..CliOptions::default()
        };
        // The sink is flushed when `dispatch` drops the cluster.
        dispatch(&opts, &g).unwrap();
        let t = parse_trace(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(!t.steps.is_empty());
        let report = analyze(&t, DEFAULT_TOP_K);

        let chrome = chrome_trace(&t).to_string();
        let back = json::parse(&chrome).unwrap();
        let events = back.get("traceEvents").and_then(Json::as_array);
        assert!(events.is_some_and(|e| !e.is_empty()), "no Chrome events");

        // Fault-free, so run_end's clock is exactly the sum of the steps'
        // critical paths: no recovery overhead is added to it.
        assert_eq!(t.simulated_parallel_ns, Some(report.total_path_ns));

        // Only EDGEMAP steps open rows, and the BFS's open some.
        let arcs = |edgemap: bool| -> u64 {
            let steps = t.steps.iter().map(|s| &s.stats);
            let edgemap_kind = |s: &&StepStats| {
                matches!(s.kind, StepKind::EdgeMapDense | StepKind::EdgeMapSparse) == edgemap
            };
            steps.filter(edgemap_kind).map(|s| s.arcs).sum()
        };
        assert!(arcs(true) > 0, "the EDGEMAP steps opened no arcs");
        assert_eq!(arcs(false), 0, "a non-EDGEMAP step opened arcs");
    }
}
