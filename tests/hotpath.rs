//! Cross-crate tests of the superstep hot path: per-lane bucket sets
//! merged in worker order, reused step buffers and the clone-free mirror
//! sync must be invisible to algorithms — results and per-superstep
//! `upd_*`/`sync_*` counters are **bit-identical** from run to run and to
//! the serial reference (`ClusterConfig::sequential()`, the same routing
//! code on one lane) — and the phase timers (`delivery`, the ns-precision
//! fields) must be populated.

use flash_bench::cli::{dispatch, CliOptions, ALGOS};
use flash_graph::generators;
use flash_runtime::{ClusterConfig, FaultPlan, RunStats};
use std::sync::Arc;
use std::time::Duration;

fn graph() -> Arc<flash_graph::Graph> {
    Arc::new(generators::erdos_renyi(48, 160, 11))
}

fn opts(algo: &str) -> CliOptions {
    let mut o = CliOptions {
        algo: algo.to_string(),
        workers: 4,
        iters: 3,
        ..CliOptions::default()
    };
    // `dispatch` takes the graph explicitly; the dataset field is unused.
    o.dataset = Some(flash_graph::Dataset::Orkut);
    o
}

/// Per-superstep message/byte counters, which must not move by a single
/// unit between runs or lane counts.
fn counter_trace(stats: &RunStats) -> Vec<(u64, u64, u64, u64)> {
    stats
        .steps()
        .iter()
        .map(|s| (s.upd_messages, s.upd_bytes, s.sync_messages, s.sync_bytes))
        .collect()
}

/// The property the hot path hangs on, catalogue-wide: every algorithm is
/// deterministic against *itself* — two runs give the same result summary,
/// the same number of supersteps and identical per-superstep traffic
/// counters. Lanes finish in any order, so this fails if per-lane bucket
/// sets or batch maps are ever merged in completion order.
#[test]
fn catalogue_is_self_deterministic() {
    let g = graph();
    let weighted = Arc::new(generators::with_random_weights(&g, 0.1, 2.0, 4));
    for &algo in &ALGOS {
        let graph = if algo == "msf" || algo == "sssp" {
            &weighted
        } else {
            &g
        };
        let (summary, stats) =
            dispatch(&opts(algo), graph).unwrap_or_else(|e| panic!("{algo} (first run): {e}"));
        let (again, again_stats) =
            dispatch(&opts(algo), graph).unwrap_or_else(|e| panic!("{algo} (second run): {e}"));
        assert_eq!(summary, again, "{algo}: result diverged");
        assert_eq!(
            stats.num_supersteps(),
            again_stats.num_supersteps(),
            "{algo}: superstep count diverged"
        );
        assert_eq!(
            counter_trace(&stats),
            counter_trace(&again_stats),
            "{algo}: upd/sync counters diverged"
        );
    }
}

/// The same on the all-push schedule, where every superstep buckets: the
/// merge of per-lane bucket sets is in fixed worker order.
#[test]
fn force_sparse_is_self_deterministic() {
    let g = graph();
    let mut o = opts("cc");
    o.mode = flash_runtime::ModePolicy::ForceSparse;
    let (s1, t1) = dispatch(&o, &g).expect("first run");
    let (s2, t2) = dispatch(&o, &g).expect("second run");
    assert_eq!(s1, s2);
    assert_eq!(counter_trace(&t1), counter_trace(&t2));
}

/// The delivery phase (the ack/retransmit protocol of the reliable
/// transport) used to vanish from the stats because it ran after the
/// serialize timer had stopped. Under channel faults it must now be
/// recorded — and visible in the per-step JSON.
#[test]
fn delivery_phase_is_timed_under_channel_faults() {
    let g = graph();
    let mut lossy = opts("bfs");
    lossy.faults = Some(FaultPlan::parse("loss=0.2,seed=9,retries=8").expect("plan parses"));
    let (_, stats) = dispatch(&lossy, &g).expect("lossy run succeeds");
    assert!(
        stats.delivery_time() > Duration::ZERO,
        "delivery phase not timed: {:?}",
        stats.delivery_time()
    );
    let rendered = stats
        .steps()
        .iter()
        .map(|s| s.to_json().to_string())
        .collect::<String>();
    assert!(rendered.contains("\"delivery_us\""));
    assert!(rendered.contains("\"delivery_ns\""));
}

/// Sub-µs phases used to floor to zero in the JSON (`as_micros() as u64`).
/// Every phase now carries an exact ns companion, and the µs field rounds
/// half-up, so microbench-scale steps stay non-zero.
#[test]
fn step_json_carries_ns_precision_phase_fields() {
    let g = graph();
    let (_, stats) = dispatch(&opts("bfs"), &g).expect("run succeeds");
    let steps = stats.steps();
    assert!(!steps.is_empty());
    for s in steps {
        let j = s.to_json().to_string();
        for field in [
            "compute_ns",
            "compute_max_ns",
            "barrier_skew_ns",
            "serialize_ns",
            "serialize_max_ns",
            "communicate_ns",
            "delivery_ns",
            "simulated_net_ns",
        ] {
            assert!(j.contains(&format!("\"{field}\"")), "missing {field}: {j}");
        }
    }
    // The run actually did work, so the exact-ns compute must be nonzero
    // even where the µs rendering could legitimately round to zero.
    assert!(steps
        .iter()
        .any(|s| s.to_json().to_string().contains("\"compute_ns\":")));
    assert!(stats.serialize_time() + stats.compute_time() > Duration::ZERO);
}

/// `serialize_max` (the bucketing makespan charged by
/// `simulated_parallel_time`) can never exceed the measured serialize wall
/// time, and must be positive whenever serialization happened at all —
/// with one lane per worker and on the single serial lane.
#[test]
fn serialize_makespan_is_bounded_by_wall_time() {
    for cfg in [
        ClusterConfig::with_workers(4),
        ClusterConfig::with_workers(4).sequential(),
    ] {
        let lanes = if cfg.parallel_workers {
            "one lane per worker"
        } else {
            "single lane"
        };
        let (_, stats) = run_trails(cfg);
        for s in stats.steps() {
            assert!(
                s.serialize_max <= s.serialize,
                "{lanes}: makespan {:?} exceeds wall {:?}",
                s.serialize_max,
                s.serialize
            );
        }
        assert!(stats.parallel_serialize_time() > Duration::ZERO);
        assert!(stats.serialize_time() >= stats.parallel_serialize_time());
    }
}

// ----------------------------------------------------------------------
// The dense reduce accumulator behind `put` (DESIGN.md §11)
// ----------------------------------------------------------------------

/// A heap-owning vertex value: the sorted multiset of vertex ids whose
/// trail reached this vertex. Nothing deduplicates, so a temporary that is
/// lost, staged twice or merged into a stale slot changes the answer.
#[derive(Clone, Debug, Default, PartialEq)]
struct Trail {
    ids: Vec<u32>,
}

impl flash_runtime::VertexData for Trail {
    type Critical = Trail;
    fn critical(&self) -> Trail {
        self.clone()
    }
    fn apply_critical(&mut self, c: Trail) {
        *self = c;
    }
    fn bytes(&self) -> usize {
        8 + 4 * self.ids.len()
    }
    fn critical_bytes(c: &Trail) -> usize {
        c.bytes()
    }
}

/// Three all-sparse supersteps of trail propagation: every vertex pushes
/// its whole trail over its out-edges; the reduce concatenates, then sorts.
fn run_trails(cfg: ClusterConfig) -> (Vec<Vec<u32>>, RunStats) {
    use flash_core::prelude::*;
    let g = graph();
    let cfg = cfg.mode(flash_runtime::ModePolicy::ForceSparse);
    let mut ctx = FlashContext::build(g, cfg, |v| Trail { ids: vec![v] }).expect("context builds");
    let mut frontier = ctx.all();
    for _ in 0..3 {
        frontier = ctx.edge_map(
            &frontier,
            &EdgeSet::forward(),
            |_, _, _| true,
            |_, s: &Trail, temp: &mut Trail| temp.ids.clone_from(&s.ids),
            |_, _| true,
            |t: &Trail, acc: &mut Trail| {
                acc.ids.extend_from_slice(&t.ids);
                acc.ids.sort_unstable();
            },
        );
    }
    assert!(ctx.fault_error().is_none(), "{:?}", ctx.fault_error());
    let trails = ctx.collect(|_, t| t.ids.clone());
    let stats = ctx.take_stats();
    let sparse = flash_runtime::StepKind::EdgeMapSparse;
    assert!(stats.steps().iter().all(|s| s.kind == sparse));
    (trails, stats)
}

#[test]
fn heap_owning_values_reduce_identically_on_every_push_path() {
    let (expected, _) = run_trails(ClusterConfig::with_workers(1));
    assert!(expected.iter().any(|t| t.len() > 100), "trails grew");
    for workers in [1usize, 2, 4] {
        let (_, base) = run_trails(ClusterConfig::with_workers(workers));
        for threads in [1usize, 4] {
            for sequential in [false, true] {
                let mut cfg = ClusterConfig::with_workers(workers).threads(threads);
                if sequential {
                    cfg = cfg.sequential();
                }
                let (trails, stats) = run_trails(cfg);
                let case = format!("workers={workers} threads={threads} sequential={sequential}");
                assert_eq!(trails, expected, "{case}: answer diverged");
                assert_eq!(
                    counter_trace(&stats),
                    counter_trace(&base),
                    "{case}: counters diverged"
                );
            }
        }
    }
}

/// A rolled-back attempt has already staged its `put`s. If the discard left
/// one temporary behind in the accumulator, the retry would merge into it
/// and that trail would come out longer.
#[test]
fn faults_on_a_sparse_superstep_leave_nothing_staged() {
    let (expected, clean) = run_trails(ClusterConfig::with_workers(3));
    for plan in ["crash@1:w1", "corrupt@2:w0"] {
        let faulted = ClusterConfig::with_workers(3)
            .faults(FaultPlan::parse(plan).expect("plan parses"))
            .checkpoint_every(2);
        let (trails, stats) = run_trails(faulted);
        assert_eq!(trails, expected, "{plan}: answer diverged");
        assert_eq!(
            counter_trace(&stats),
            counter_trace(&clean),
            "{plan}: counters diverged"
        );
        assert_eq!(stats.recovery.faults_injected, 1, "{plan}");
        assert!(stats.recovery.rollbacks >= 1, "{plan}: no rollback");
    }
}
