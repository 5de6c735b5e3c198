//! Cross-crate tests of the tracing layer: a real algorithm run with a
//! sink attached must produce an event stream that mirrors the superstep
//! structure recorded in `RunStats`, and the JSONL rendering must survive
//! the hand-rolled parser.

use flash_graph::generators;
use flash_obs::{CollectSink, Event, EventKind, Json, JsonLinesSink, Sink};
use flash_runtime::{ClusterConfig, StepStats};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn graph() -> Arc<flash_graph::Graph> {
    Arc::new(generators::erdos_renyi(120, 500, 11))
}

fn traced_bfs(workers: usize) -> (Vec<Event>, flash_runtime::RunStats) {
    let sink = Arc::new(CollectSink::new());
    let cfg = ClusterConfig::with_workers(workers).sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let out = flash_algos::bfs::run(&graph(), cfg, 0).expect("bfs");
    (sink.events(), out.stats)
}

#[test]
fn event_ordering_matches_superstep_order() {
    let (events, stats) = traced_bfs(3);
    // Sequence numbers are dense and monotonic from 0.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
    // The run_meta header always leads, then run_start.
    assert!(matches!(
        events.first().unwrap().kind,
        EventKind::RunMeta {
            schema: flash_obs::TRACE_SCHEMA_VERSION,
            ..
        }
    ));
    assert!(matches!(events[1].kind, EventKind::RunStart { .. }));
    assert!(matches!(
        events.last().unwrap().kind,
        EventKind::RunEnd { .. }
    ));

    // One step_start and one step_end per recorded superstep, both carrying
    // the superstep's index, in execution order; every step_start precedes
    // its step_end.
    let starts: Vec<u64> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::StepStart { step, .. } => Some(*step),
            _ => None,
        })
        .collect();
    let ends: Vec<(u64, &Json)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::StepEnd { step, stats } => Some((*step, stats)),
            _ => None,
        })
        .collect();
    let expected: Vec<u64> = (0..stats.num_supersteps() as u64).collect();
    assert_eq!(starts, expected);
    assert_eq!(ends.iter().map(|(s, _)| *s).collect::<Vec<_>>(), expected);
    // The kernel kind label of each step_end matches the RunStats record.
    for ((_, j), step) in ends.iter().zip(stats.steps()) {
        assert_eq!(
            j.get("kind").and_then(Json::as_str),
            Some(step.kind.label())
        );
    }
    // Per step: start comes before end.
    for step in expected {
        let start_pos = events
            .iter()
            .position(|e| matches!(&e.kind, EventKind::StepStart { step: s, .. } if *s == step))
            .unwrap();
        let end_pos = events
            .iter()
            .position(|e| matches!(&e.kind, EventKind::StepEnd { step: s, .. } if *s == step))
            .unwrap();
        assert!(start_pos < end_pos, "step {step} start after end");
    }
}

#[test]
fn event_byte_and_message_counts_equal_runstats_totals() {
    let (events, stats) = traced_bfs(4);
    // The i-th step_end carries exactly stats.steps()[i]'s counters: one
    // step_end per superstep, whose byte and message counts sum to the
    // totals.
    let step_ends: Vec<Json> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::StepEnd { stats, .. } => Some(stats.clone()),
            _ => None,
        })
        .collect();
    let recorded: Vec<Json> = stats.steps().iter().map(StepStats::to_json).collect();
    assert_eq!(step_ends, recorded);
    assert!(
        stats.total_bytes() > 0,
        "a 4-worker BFS must cross worker boundaries"
    );
    for j in &step_ends {
        let ns = |key| j.get(key).and_then(Json::as_u64).unwrap();
        assert_eq!(
            ns("barrier_skew_ns"),
            ns("compute_max_ns") - ns("compute_min_ns")
        );
    }
}

#[test]
fn adaptive_edge_map_emits_mode_decisions() {
    let (events, stats) = traced_bfs(2);
    let decisions: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ModeDecision {
                frontier,
                frontier_edges,
                threshold_edges,
                chosen,
                policy,
                ..
            } => Some((
                *frontier,
                *frontier_edges,
                *threshold_edges,
                chosen.clone(),
                policy.clone(),
            )),
            _ => None,
        })
        .collect();
    assert!(
        !decisions.is_empty(),
        "adaptive BFS must emit mode decisions"
    );
    // One decision per edge-map superstep (dense or sparse kernel).
    let (_, dense, sparse, _) = stats.kind_counts();
    assert_eq!(decisions.len(), dense + sparse);
    for (frontier, frontier_edges, threshold_edges, chosen, policy) in &decisions {
        assert!(*frontier > 0);
        assert!(frontier_edges >= frontier, "measure counts |U| itself");
        assert!(*threshold_edges > 0);
        assert!(chosen == "dense" || chosen == "sparse");
        assert_eq!(policy, "adaptive");
        // The decision rule itself: above threshold → dense, else sparse.
        let expect = if *frontier_edges > *threshold_edges {
            "dense"
        } else {
            "sparse"
        };
        assert_eq!(chosen, expect);
    }
}

#[test]
fn sync_plans_cover_every_superstep() {
    let (events, stats) = traced_bfs(2);
    let plans = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SyncPlan { .. }))
        .count();
    // Every vmap/dense/sparse superstep plans its mirror sync; global
    // reduction steps do not ship properties.
    let (vmaps, dense, sparse, _) = stats.kind_counts();
    assert_eq!(plans, vmaps + dense + sparse);
}

/// A `Write` target that can be observed after the sink (inside the
/// cluster config) has been dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_trace_round_trips_through_the_parser() {
    let buf = SharedBuf::default();
    let sink: Arc<dyn Sink> = Arc::new(JsonLinesSink::new(buf.clone()));
    let cfg = ClusterConfig::with_workers(2).sink(sink);
    let out = flash_algos::bfs::run(&graph(), cfg, 0).expect("bfs");

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    // The first line is the schema header analyzers validate against.
    let head = flash_obs::json::parse(lines[0]).expect("header parses");
    assert_eq!(head.get("event").and_then(Json::as_str), Some("run_meta"));
    // Schema 9: `run_meta` is exactly the fields `SCHEMA` declares for it
    // (1 also carried the hot-path label, 2 wrote `worker_accused`
    // checksums as numbers, 3 carried `*_us` twins of the `*_ns` timers
    // and `sync_plan` properties, 4 carried the always-constant durable
    // fields `frames`, `fallback` and `op`, 5 did not name the owner
    // map's scheme in `run_start`, 6 flattened `step_end`'s counters
    // instead of nesting them in `stats`, 7's `stats` had no `arcs`, 8
    // had an update-batch event and `session_end` counters); a shape
    // change must bump the version.
    assert_eq!(head.get("schema").and_then(Json::as_u64), Some(9));
    assert_eq!(flash_obs::TRACE_SCHEMA_VERSION, 9);
    let declared = ["schema", "seed", "workers", "hosts", "fault_plan"];
    assert_eq!(flash_obs::SCHEMA[0], ("run_meta", &declared[..]));
    let Json::Obj(fields) = &head else {
        panic!("header is not an object: {head:?}");
    };
    let names: Vec<&str> = fields.keys().map(String::as_str).collect();
    let mut expected = [&["event", "seq"], &declared[..]].concat();
    expected.sort_unstable();
    assert_eq!(names, expected);
    let mut bytes = 0u64;
    let mut last_seq = None;
    for line in &lines {
        let j = flash_obs::json::parse(line).expect("every line parses");
        let seq = j.get("seq").and_then(Json::as_u64).expect("seq field");
        if let Some(prev) = last_seq {
            assert_eq!(seq, prev + 1, "seq numbers stay dense in the file");
        }
        last_seq = Some(seq);
        let tag = j.get("event").and_then(Json::as_str).expect("event tag");
        if tag == "step_end" {
            let counters = j.get("stats").expect("step_end carries its counters");
            bytes += StepStats::from_json(counters).unwrap().total_bytes();
        }
    }
    // The parsed file carries the same totals as the in-memory stats.
    assert_eq!(bytes, out.stats.total_bytes());
}

/// DESIGN.md §7 documents every event kind; the table there is generated
/// from `flash_obs::SCHEMA`, so a field added to the `events!` declaration
/// fails this test until the doc is regenerated.
#[test]
fn design_doc_event_table_matches_the_schema() {
    let mut table = String::from("| event | fields |\n|---|---|\n");
    for (tag, fields) in flash_obs::SCHEMA {
        let fields: Vec<String> = fields.iter().map(|f| format!("`{f}`")).collect();
        table.push_str(&format!("| `{tag}` | {} |\n", fields.join(", ")));
    }
    let design = include_str!("../DESIGN.md");
    let (begin, end) = ("<!-- event-schema:begin -->\n", "<!-- event-schema:end -->");
    let documented = design
        .split_once(begin)
        .and_then(|(_, rest)| rest.split_once(end))
        .map(|(body, _)| body)
        .expect("DESIGN.md §7 keeps the event-schema markers");
    assert!(
        documented == table,
        "DESIGN.md §7 is stale; paste this between the event-schema markers:\n{table}"
    );
}
