//! Cross-crate tests of the fault-tolerance subsystem: algorithms from the
//! catalogue must survive injected crashes, corrupted sync payloads and
//! stragglers with **bit-identical** results, the recovery work must be
//! visible in `RunStats` and in the trace stream, and an exhausted retry
//! budget must surface as a clean `RuntimeError`, never a panic. The
//! whole catalogue runs the `chaos` row of the shared sweep
//! (`tests/sweep/mod.rs`), whose table every fault family's file draws
//! its rows from.

mod sweep;

use flash_graph::generators;
use flash_obs::{CollectSink, EventKind, Sink};
use flash_runtime::{ClusterConfig, FaultPlan, NetworkModel, RuntimeError};
use std::sync::Arc;

fn graph() -> Arc<flash_graph::Graph> {
    Arc::new(generators::erdos_renyi(120, 500, 11))
}

fn weighted() -> Arc<flash_graph::Graph> {
    Arc::new(generators::with_random_weights(&graph(), 0.1, 2.0, 4))
}

/// A clean config and a faulted twin (crash + corruption + straggler).
fn config_pair(workers: usize) -> (ClusterConfig, ClusterConfig) {
    let clean = ClusterConfig::with_workers(workers)
        .sequential()
        .network(NetworkModel::ten_gbe());
    let plan =
        FaultPlan::parse("crash@1:w1,corrupt@3:w0,straggle@2:w0:250us").expect("plan parses");
    let faulted = clean.clone().faults(plan).checkpoint_every(2);
    (clean, faulted)
}

/// Asserts a faulted run of `run` matches the fault-free run exactly and
/// actually performed recovery work.
fn assert_recovers<T, F>(name: &str, run: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(ClusterConfig) -> (T, flash_runtime::RunStats),
{
    let (clean_cfg, faulted_cfg) = config_pair(3);
    let (clean, clean_stats) = run(clean_cfg);
    let (faulted, faulted_stats) = run(faulted_cfg);
    assert_eq!(clean, faulted, "{name}: faulted result diverged");
    assert_eq!(
        clean_stats.num_supersteps(),
        faulted_stats.num_supersteps(),
        "{name}: superstep count diverged"
    );
    let rec = &faulted_stats.recovery;
    assert!(rec.faults_injected >= 2, "{name}: {rec:?}");
    assert!(rec.rollbacks >= 2, "{name}: {rec:?}");
    assert!(rec.replayed_supersteps >= 1, "{name}: {rec:?}");
    assert!(rec.checkpoints >= 1, "{name}: {rec:?}");
    assert!(
        rec.overhead() > std::time::Duration::ZERO,
        "{name}: {rec:?}"
    );
    // The clean twin must not have paid any recovery cost.
    assert_eq!(clean_stats.recovery, Default::default(), "{name}");
}

#[test]
fn bfs_recovers_bit_identically() {
    let g = graph();
    assert_recovers("bfs", |cfg| {
        let out = flash_algos::bfs::run(&g, cfg, 0).expect("bfs");
        (out.result, out.stats)
    });
}

#[test]
fn cc_recovers_bit_identically() {
    let g = graph();
    assert_recovers("cc", |cfg| {
        let out = flash_algos::cc::run(&g, cfg).expect("cc");
        (out.result, out.stats)
    });
}

#[test]
fn kcore_recovers_bit_identically() {
    let g = graph();
    assert_recovers("kcore", |cfg| {
        let out = flash_algos::kcore::run(&g, cfg).expect("kcore");
        (out.result, out.stats)
    });
}

#[test]
fn pagerank_recovers_bit_identically() {
    // Floating-point results: `Vec<f64>` equality is exact, so this is the
    // literal bit-identity claim of the ISSUE.
    let g = graph();
    assert_recovers("pagerank", |cfg| {
        let out = flash_algos::pagerank::run(&g, cfg, 5).expect("pagerank");
        (out.result, out.stats)
    });
}

#[test]
fn sssp_recovers_bit_identically() {
    let g = weighted();
    assert_recovers("sssp", |cfg| {
        let out = flash_algos::sssp::run(&g, cfg, 0).expect("sssp");
        (
            out.result.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            out.stats,
        )
    });
}

#[test]
fn scc_recovers_bit_identically() {
    let g = graph();
    assert_recovers("scc", |cfg| {
        let out = flash_algos::scc::run(&g, cfg).expect("scc");
        (out.result, out.stats)
    });
}

#[test]
fn every_algorithm_recovers_exactly_under_chaos() {
    sweep::sweep(&["chaos"]);
}

#[test]
fn exhausted_retries_surface_as_a_clean_runtime_error() {
    // A crash that repeats past the retry budget: the run must end in
    // `Err(RecoveryExhausted)` — graceful degradation, not a panic.
    let plan = FaultPlan::parse("crash@1:w0:x99,retries=2").expect("plan");
    let cfg = ClusterConfig::with_workers(2)
        .sequential()
        .faults(plan)
        .checkpoint_every(1);
    let err = flash_algos::bfs::run(&graph(), cfg, 0).expect_err("must fail");
    assert!(
        matches!(
            err,
            RuntimeError::RecoveryExhausted {
                step: 1,
                attempts: 3
            }
        ),
        "{err:?}"
    );
}

#[test]
fn fault_plan_rejects_workers_beyond_the_cluster() {
    let plan = FaultPlan::parse("crash@1:w7").expect("plan");
    let cfg = ClusterConfig::with_workers(2).sequential().faults(plan);
    let err = flash_algos::bfs::run(&graph(), cfg, 0).expect_err("must be rejected");
    assert!(matches!(err, RuntimeError::InvalidFaultPlan(_)), "{err:?}");
}

#[test]
fn recovery_shows_up_in_the_trace_stream() {
    let sink = Arc::new(CollectSink::new());
    let (_, faulted_cfg) = config_pair(3);
    let cfg = faulted_cfg.sink(Arc::clone(&sink) as Arc<dyn Sink>);
    flash_algos::bfs::run(&graph(), cfg, 0).expect("bfs");

    let events = sink.events();
    // Seqs stay dense even with the new event kinds interleaved.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
    let checkpoints = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CheckpointTaken { .. }))
        .count();
    let faults: Vec<(u64, String)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::FaultInjected { step, kind, .. } => Some((*step, kind.clone())),
            _ => None,
        })
        .collect();
    let replays: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::RecoveryReplay {
                step, from_step, ..
            } => Some((*step, *from_step)),
            _ => None,
        })
        .collect();
    assert!(checkpoints >= 1, "no checkpoint events");
    assert!(
        faults.iter().any(|(_, k)| k == "crash"),
        "crash not traced: {faults:?}"
    );
    assert!(
        faults.iter().any(|(_, k)| k == "corrupt"),
        "corruption not traced: {faults:?}"
    );
    assert!(!replays.is_empty(), "no recovery_replay events");
    for (step, from_step) in &replays {
        assert!(from_step <= step, "replay from the future: {replays:?}");
    }
    // Every replay is preceded by the fault that caused it.
    let first_fault = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
        .unwrap();
    let first_replay = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::RecoveryReplay { .. }))
        .unwrap();
    assert!(first_fault < first_replay);

    // The new kinds survive the JSONL round trip like every other event.
    for e in &events {
        let j = e.to_json();
        let tag = j.get("event").and_then(flash_obs::Json::as_str).unwrap();
        assert!(!tag.is_empty());
    }
}

#[test]
fn recovery_overhead_is_charged_into_simulated_time() {
    let g = graph();
    // Both clocks include measured compute time, so the pair's 250 µs
    // straggler sits inside wall-clock noise and the comparison below
    // failed about one run in thirteen; this plan's straggler is far above
    // it (and still below the 100 ms failure-detector deadline).
    let (clean_cfg, _) = config_pair(3);
    let plan = FaultPlan::parse("crash@1:w1,corrupt@3:w0,straggle@2:w0:50ms").expect("plan");
    let faulted_cfg = clean_cfg.clone().faults(plan).checkpoint_every(2);
    let clean = flash_algos::cc::run(&g, clean_cfg).expect("cc").stats;
    let faulted = flash_algos::cc::run(&g, faulted_cfg).expect("cc").stats;
    // Same algorithm, same graph: the faulted run's simulated wall clock
    // must exceed the clean one by at least the recorded recovery overhead.
    let overhead = faulted.recovery.overhead();
    assert!(overhead > std::time::Duration::ZERO);
    assert!(
        faulted.simulated_parallel_time() >= clean.simulated_parallel_time() + overhead,
        "overhead not charged: clean {:?}, faulted {:?}, overhead {overhead:?}",
        clean.simulated_parallel_time(),
        faulted.simulated_parallel_time()
    );
}

// ----------------------------------------------------------------------
// Faults on direct supersteps: VERTEXMAP writes masters in place
// ----------------------------------------------------------------------

/// The `worker_accused` events of a run: `(step, step kind, worker,
/// expected, observed)`, the step kind read off the step's `step_start`.
fn accusations(events: &[flash_obs::Event]) -> Vec<(u64, String, usize, String, String)> {
    let kind_of = |at: u64| {
        events.iter().find_map(|e| match &e.kind {
            EventKind::StepStart { step, kind, .. } if *step == at => Some(kind.clone()),
            _ => None,
        })
    };
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::WorkerAccused {
                step,
                worker,
                expected,
                observed,
                ..
            } => Some((
                *step,
                kind_of(*step).unwrap_or_default(),
                *worker,
                expected.clone(),
                observed.clone(),
            )),
            _ => None,
        })
        .collect()
}

/// A lie on a vertex-map step and one on a dense step are pinned with the
/// checksums the staged-copy kernels produced: the in-place writes of the
/// vertex map are framed exactly like the `direct` entries they replace.
/// The expected/observed pairs were captured on the commit before the
/// vertex map wrote in place.
#[test]
fn lies_on_direct_steps_keep_their_payload_checksums() {
    let g = graph();
    let sink = Arc::new(CollectSink::new());
    let cfg = ClusterConfig::with_workers(4)
        .sequential()
        .checkpoint_every(2)
        .faults(FaultPlan::parse("lie@2:w1,lie@3:w2,retries=1").expect("plan parses"))
        .sink(Arc::clone(&sink) as Arc<dyn Sink>);
    let clean = flash_algos::pagerank::run(&g, ClusterConfig::with_workers(4).sequential(), 3)
        .expect("clean pagerank");
    let out = flash_algos::pagerank::run(&g, cfg, 3).expect("both liars are out-voted");
    assert_eq!(out.result, clean.result, "accusations changed a rank bit");
    assert_eq!(out.stats.consensus.accusations, 2);
    let got = accusations(&sink.events());
    let want = [
        (2, "vmap", 1, "0x9919b58f6930eed0", "0xa6426c36dda25674"),
        (3, "dense", 2, "0xd71c9f24b186384c", "0xbdf75e9758e46192"),
    ]
    .map(|(s, k, w, e, o)| (s, k.to_string(), w, e.to_string(), o.to_string()));
    assert_eq!(got, want);
}

#[derive(Clone, Debug, Default, PartialEq)]
struct Count {
    x: u64,
}
flash_runtime::full_sync!(Count);

/// Three rounds of a non-idempotent vertex map (`x += 1`) each followed by
/// a max-pull over the edges, so every round's writes reach mirrors.
fn count_up(cfg: ClusterConfig) -> Result<(Vec<u64>, flash_runtime::RunStats), RuntimeError> {
    use flash_core::prelude::*;
    let mut ctx = FlashContext::build(graph(), cfg, |v| Count { x: u64::from(v) })?;
    let all = ctx.all();
    for _ in 0..3 {
        ctx.vertex_map(&all, |_, _| true, |_, c| c.x += 1);
        ctx.edge_map_dense(
            &all,
            &EdgeSet::forward(),
            |_, s: &Count, d: &Count| s.x > d.x,
            |_, s, d| d.x = s.x,
            |_, _| true,
        );
    }
    if let Some(e) = ctx.fault_error() {
        return Err(e);
    }
    let counts = ctx.collect(|_, c| c.x);
    Ok((counts, ctx.take_stats()))
}

/// Step 2 is a vertex map. A fault there has already incremented masters in
/// place when the barrier detects it, so each retry path — rollback after a
/// crash, rollback then death after `die`, a death declared by the checksum
/// quorum or by the straggler deadline — must restore those masters from
/// the checkpoint, or the retry counts twice. Without a checkpoint there is
/// nothing to restore them from, and the run says so with a typed error.
#[test]
fn in_place_vertex_maps_survive_every_retry_path() {
    let base = || ClusterConfig::with_workers(3).sequential();
    let (clean, _) = count_up(base()).expect("clean run");
    for plan in [
        "crash@2:w1",
        "die@2:w1,retries=1",
        "lie@2:w1",
        "straggle@2:w1:200ms,detector=100ms",
    ] {
        let cfg = base()
            .checkpoint_every(3)
            .faults(FaultPlan::parse(plan).expect("plan parses"));
        let (counts, stats) = count_up(cfg).unwrap_or_else(|e| panic!("{plan}: {e}"));
        assert_eq!(counts, clean, "{plan}: a retry re-applied the vertex map");
        assert!(
            stats.recovery.rollbacks >= 1,
            "{plan}: {:?}",
            stats.recovery
        );
    }
    let unrecoverable = base()
        .checkpoint_off()
        .faults(FaultPlan::parse("crash@2:w1").expect("plan parses"));
    let err = count_up(unrecoverable).expect_err("no checkpoint to undo the writes");
    assert!(
        matches!(err, RuntimeError::WorkerLost { worker: 1, step: 2 }),
        "{err:?}"
    );
}
