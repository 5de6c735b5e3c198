//! Cross-crate tests of the superstep hot path: the post-compute round
//! (routing, the fold in sender order, the receiver-side mirror sync),
//! reused step buffers and the clone-free sync must be invisible to
//! algorithms — results and per-superstep `upd_*`/`sync_*` counters are
//! **bit-identical** from run to run and to the serial reference
//! (`ClusterConfig::sequential()`, the same phases run lane by lane on the
//! caller) — and the phase timers (`delivery`, the ns-precision fields)
//! must be populated. The catalogue-wide checks are rows of the shared
//! sweep (`tests/sweep/mod.rs`), which also holds every algorithm's counts
//! on the OR stand-in to its pinned table.

mod sweep;

use flash_bench::cli::{dispatch, CliOptions};
use flash_graph::{generators, HashPartitioner, PartitionMap};
use flash_runtime::{ClusterConfig, FaultPlan, RunStats};
use std::sync::Arc;
use std::time::Duration;

fn graph() -> Arc<flash_graph::Graph> {
    Arc::new(generators::erdos_renyi(48, 160, 11))
}

fn opts(algo: &str) -> CliOptions {
    let mut o = CliOptions {
        algo: algo.to_string(),
        config: ClusterConfig::with_workers(4),
        iters: 3,
        ..CliOptions::default()
    };
    // `dispatch` takes the graph explicitly; the dataset field is unused.
    o.dataset = Some(flash_graph::Dataset::Orkut);
    o
}

/// The property the hot path hangs on, catalogue-wide: every algorithm is
/// deterministic against *itself* — two runs give the same result summary,
/// the same number of supersteps and identical per-superstep traffic
/// counters (the sweep's `again` row).
#[test]
fn catalogue_is_self_deterministic() {
    sweep::sweep(&["again"]);
}

/// Catalogue-wide, on a graph big enough that the post-compute round runs
/// on the pool's lanes: every algorithm's answer, superstep count and
/// per-superstep traffic equal the serial reference's at 2 and 4 workers
/// (the sweep's `serial-2` and `serial-4` rows).
#[test]
fn catalogue_on_the_pool_matches_the_serial_reference() {
    sweep::sweep(&["serial-2", "serial-4"]);
}

/// Every algorithm's superstep count, total bytes and answer digest on the
/// OR stand-in at 4 workers equal the sweep's pinned table, which lists
/// exactly the catalogue (the sweep's `pinned` row).
#[test]
fn catalogue_matches_its_pinned_counts() {
    sweep::sweep(&["pinned"]);
}

/// The same on the all-push schedule, where every superstep buckets: the
/// merge of per-lane bucket sets is in fixed worker order.
#[test]
fn force_sparse_is_self_deterministic() {
    let g = graph();
    let mut o = opts("cc");
    o.config.mode = flash_runtime::ModePolicy::ForceSparse;
    let (s1, t1) = dispatch(&o, &g).expect("first run");
    let (s2, t2) = dispatch(&o, &g).expect("second run");
    assert_eq!(s1, s2);
    assert_eq!(sweep::counter_trace(&t1), sweep::counter_trace(&t2));
}

/// The delivery phase (the ack/retransmit protocol of the reliable
/// transport) used to vanish from the stats because it ran after the
/// serialize timer had stopped. Under channel faults it must now be
/// recorded — and visible in the per-step JSON.
#[test]
fn delivery_phase_is_timed_under_channel_faults() {
    let g = graph();
    let mut lossy = opts("bfs");
    lossy.config.fault_plan =
        Some(FaultPlan::parse("loss=0.2,seed=9,retries=8").expect("plan parses"));
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
    assert!(rendered.contains("\"delivery_ns\""));
}

/// Sub-µs phases used to floor to zero in the JSON (`as_micros() as u64`).
/// Every phase is now rendered in exact ns, so microbench-scale steps stay
/// non-zero.
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
    // The run actually did work, so the exact-ns compute must be nonzero.
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
        for sequential in [false, true] {
            let mut cfg = ClusterConfig::with_workers(workers);
            if sequential {
                cfg = cfg.sequential();
            }
            let (trails, stats) = run_trails(cfg);
            let case = format!("workers={workers} sequential={sequential}");
            assert_eq!(trails, expected, "{case}: answer diverged");
            assert_eq!(
                sweep::counter_trace(&stats),
                sweep::counter_trace(&base),
                "{case}: counters diverged"
            );
        }
    }
}

// ----------------------------------------------------------------------
// Parent-captured goldens of the direct-step kernels
// ----------------------------------------------------------------------

/// FNV-1a over the little-endian bytes of every result value, plus the
/// run's summed `sync_messages` / `sync_bytes`.
fn fingerprint<T>(values: &[T], bytes: impl Fn(&T) -> [u8; 8], stats: &RunStats) -> Fingerprint {
    let mut h = flash_graph::hash::Fnv1a::new();
    for v in values {
        h.update(&bytes(v));
    }
    let steps = stats.steps();
    let messages = steps.iter().map(|s| s.sync_messages).sum();
    let sync_bytes = steps.iter().map(|s| s.sync_bytes).sum();
    (h.finish(), messages, sync_bytes)
}

/// `(result FNV-1a, sync_messages, sync_bytes)` of one run.
type Fingerprint = (u64, u64, u64);

/// One catalogue run on the golden graph, fingerprinted.
fn golden_run(algo: &str, cfg: ClusterConfig) -> Fingerprint {
    use flash_algos::{cc, kcore, pagerank, sssp};
    let g = Arc::new(generators::rmat(14, 8, Default::default(), 7));
    let f64_bits = |x: &f64| x.to_bits().to_le_bytes();
    let widen = |x: &u32| u64::from(*x).to_le_bytes();
    match algo {
        "pagerank" => {
            let out = pagerank::run(&g, cfg, 10).expect("pagerank");
            fingerprint(&out.result, f64_bits, &out.stats)
        }
        "sssp" => {
            let w = Arc::new(generators::with_random_weights(&g, 0.1, 2.0, 4));
            let out = sssp::run(&w, cfg, 0).expect("sssp");
            fingerprint(&out.result, f64_bits, &out.stats)
        }
        "cc" => {
            let out = cc::run(&g, cfg).expect("cc");
            fingerprint(&out.result, widen, &out.stats)
        }
        "kcore" => {
            let out = kcore::run(&g, cfg).expect("kcore");
            fingerprint(&out.result, widen, &out.stats)
        }
        other => unreachable!("{other}"),
    }
}

/// Goldens captured on the commit before `VERTEXMAP` wrote masters in
/// place, `EDGEMAPDENSE` staged into the worker's `direct` buffer and the
/// mirror sync became one pass: every result bit and the exact sync
/// traffic of PageRank (rmat(14), 10 iterations), SSSP, CC and k-core at
/// 1, 2 and 4 workers.
/// The benchmark's 1e-9 rank tolerance would not notice a reordered sum;
/// this does.
#[test]
fn direct_kernels_reproduce_parent_goldens() {
    // At 1, 2 and 4 workers.
    const GOLDENS: [(&str, [Fingerprint; 3]); 4] = [
        (
            "pagerank",
            [
                (0xffc0_da7c_8205_c985, 0, 0),
                (0xd157_b0a0_72f4_da8a, 274_860, 5_497_200),
                (0x4579_93df_b375_1351, 667_350, 13_347_000),
            ],
        ),
        (
            "sssp",
            [
                (0xe7e9_5edb_ced6_4fbe, 0, 0),
                (0xe7e9_5edb_ced6_4fbe, 28_276, 339_312),
                (0xe7e9_5edb_ced6_4fbe, 68_639, 823_668),
            ],
        ),
        (
            "cc",
            [
                (0x99e0_2699_6a14_34ac, 0, 0),
                (0x99e0_2699_6a14_34ac, 25_022, 200_176),
                (0x99e0_2699_6a14_34ac, 59_824, 478_592),
            ],
        ),
        (
            "kcore",
            [
                (0x59bf_33e0_7d7c_b361, 0, 0),
                (0x59bf_33e0_7d7c_b361, 125_334, 2_506_680),
                (0x59bf_33e0_7d7c_b361, 351_661, 7_033_220),
            ],
        ),
    ];
    for (algo, per_workers) in GOLDENS {
        for (workers, want) in [1usize, 2, 4].into_iter().zip(per_workers) {
            let got = golden_run(algo, ClusterConfig::with_workers(workers));
            assert_eq!(got, want, "{algo} workers={workers}");
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
            sweep::counter_trace(&stats),
            sweep::counter_trace(&clean),
            "{plan}: counters diverged"
        );
        assert_eq!(stats.recovery.faults_injected, 1, "{plan}");
        assert!(stats.recovery.rollbacks >= 1, "{plan}: no rollback");
    }
}

// ----------------------------------------------------------------------
// Parent-captured goldens of the pull kernel and of PageRank
// ----------------------------------------------------------------------

/// A directed web graph with dangling and zero-in-degree vertices: the
/// symmetric generator's arcs minus every out-arc of a vertex `v % 7 == 0`
/// and every in-arc of a vertex `v % 11 == 1`, with weights in `[0.5, 2)`.
fn directed_web() -> Arc<flash_graph::Graph> {
    let n = 9_000;
    let web = generators::web_graph(n, 8, 12, 5);
    let arcs = web
        .edges()
        .filter(|&(s, d, _)| s % 7 != 0 && d % 11 != 1)
        .map(|(s, d, _)| (s, d));
    let g = flash_graph::GraphBuilder::new(n)
        .edges(arcs)
        .build()
        .unwrap();
    Arc::new(generators::with_random_weights(&g, 0.5, 2.0, 13))
}

/// `workers` workers over an explicit [`HashPartitioner`] map. The
/// [`directed_web`] goldens were captured under it; the default map cuts
/// `web_graph`'s contiguous communities into ranges instead, and PageRank
/// folds each in-neighbour's share in an order set by its owner.
fn hashed(g: &flash_graph::Graph, workers: usize) -> ClusterConfig {
    let map = PartitionMap::build(g, workers, &HashPartitioner).expect("partition");
    ClusterConfig::with_workers(workers).shared_partition(Arc::new(map))
}

/// PageRank (10 iterations) on [`directed_web`] at 1, 2 and 4 workers:
/// every rank bit and the exact sync traffic, captured on the commit
/// before the pull read a per-source `share` instead of dividing per arc.
/// The dangling fold and the in-degree-zero vertices (whose pull finds
/// nothing) are both on the path.
#[test]
fn pagerank_ranks_reproduce_parent_goldens() {
    let g = directed_web();
    let n = g.num_vertices() as u32;
    assert!((0..n).any(|v| g.out_degree(v) == 0), "dangling vertices");
    assert!(
        (0..n).any(|v| g.in_degree(v) == 0),
        "zero-in-degree vertices"
    );
    const GOLDENS: [Fingerprint; 3] = [
        (0x2f49_a74e_22e3_ad3f, 0, 0),
        (0xd1f9_6865_fcd4_fb7c, 259_410, 5_188_200),
        (0xfb55_7fad_b81d_d348, 746_900, 14_938_000),
    ];
    for (workers, want) in [1usize, 2, 4].into_iter().zip(GOLDENS) {
        let out = flash_algos::pagerank::run(&g, hashed(&g, workers), 10).expect("pagerank");
        let got = fingerprint(&out.result, |x| x.to_bits().to_le_bytes(), &out.stats);
        assert_eq!(got, want, "pagerank workers={workers}");
    }
}

/// Over the default map, which takes ranges on [`directed_web`], the ranks
/// are no longer the hash map's bits but stay within 1e-9 of the serial
/// reference.
#[test]
fn default_map_pagerank_matches_the_reference() {
    let g = directed_web();
    let want = flash_algos::reference::pagerank(&g, 10);
    for workers in [2usize, 4] {
        let map = PartitionMap::for_graph(&g, workers).expect("partition");
        assert_eq!(map.scheme(), "range", "workers={workers}");
        let out = flash_algos::pagerank::run(&g, ClusterConfig::with_workers(workers), 10)
            .expect("pagerank");
        let err = out
            .result
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err <= 1e-9, "workers={workers}: L-inf error {err}");
    }
}

/// Vertex state of the pull cases: an order-sensitive float accumulator
/// and a visit counter the early-exit conditions read.
#[derive(Clone)]
struct Pull {
    sum: f64,
    hits: u32,
}
flash_runtime::full_sync!(Pull);

/// Serializes `g` to a temporary block file and reopens it through the
/// block reader (the mapping keeps the data alive once the file is gone).
fn reopen_as_blocks(g: &flash_graph::Graph) -> Arc<flash_graph::Graph> {
    let dir = flash_graph::testutil::TempDirGuard::new("hotpath-blocks");
    let path = dir.path().join("g.fgb");
    flash_graph::write_blocks(g, &path).expect("write block file");
    Arc::new(flash_graph::open_blocks(&path).expect("open block file"))
}

/// `(values FNV-1a, output subset FNV-1a, wire bytes, streamed bytes,
/// streamed blocks)` of one direct `EDGEMAPDENSE` call.
type PullFingerprint = (u64, u64, u64, u64, u64);

/// One `EDGEMAPDENSE` call on a fresh 3-worker context over `g`. The
/// cases aim at the kernel's per-row control flow:
/// 0. `f` rejects the first sources of every row (those below `d / 2`);
/// 1. `c` fails right after the first write, over a sub-frontier;
/// 2. the only qualifying edge of a row is its last;
/// 3. weighted `reverse(E)` over a sub-frontier, left after four writes.
fn pull_case(case: usize, g: &Arc<flash_graph::Graph>, cfg: ClusterConfig) -> PullFingerprint {
    use flash_core::prelude::*;
    let n = g.num_vertices() as u32;
    let mut ctx = FlashContext::build(Arc::clone(g), cfg, |v| Pull {
        sum: 1.0 + f64::from(v) * 0.25,
        hits: 0,
    })
    .expect("context builds");
    let pull = |e: EdgeRef, s: &Pull, d: &mut Pull| {
        d.sum += s.sum * f64::from(e.weight);
        d.hits += 1;
    };
    let all = ctx.all();
    let thirds = ctx.subset((0..n).filter(|v| v % 3 != 0));
    let evens = ctx.subset((0..n).step_by(2));
    let last: Arc<Vec<u32>> = Arc::new(
        (0..n)
            .map(|d| g.in_neighbors(d).last().copied().unwrap_or(u32::MAX))
            .collect(),
    );
    let out = match case {
        0 => ctx.edge_map_dense(
            &all,
            &EdgeSet::forward(),
            |e, _, _| e.src >= e.dst / 2,
            pull,
            |_, _| true,
        ),
        1 => ctx.edge_map_dense(
            &thirds,
            &EdgeSet::forward(),
            |_, _, _| true,
            pull,
            |_, d| d.hits == 0,
        ),
        2 => ctx.edge_map_dense(
            &all,
            &EdgeSet::forward(),
            move |e, _, _| e.src == last[e.dst as usize],
            pull,
            |_, _| true,
        ),
        3 => ctx.edge_map_dense(
            &evens,
            &EdgeSet::reverse(),
            |e, _, _| e.weight > 0.75,
            pull,
            |_, d| d.hits < 4,
        ),
        other => unreachable!("{other}"),
    };
    assert!(ctx.fault_error().is_none(), "{:?}", ctx.fault_error());
    let mut values = flash_graph::hash::Fnv1a::new();
    for (sum, hits) in ctx.collect(|_, p| (p.sum.to_bits(), p.hits)) {
        values.update(&sum.to_le_bytes());
        values.update(&hits.to_le_bytes());
    }
    let mut subset = flash_graph::hash::Fnv1a::new();
    for v in out.to_vec() {
        subset.update(&v.to_le_bytes());
    }
    let stats = ctx.take_stats();
    (
        values.finish(),
        subset.finish(),
        stats.total_bytes(),
        stats.bytes_streamed(),
        stats.blocks_streamed(),
    )
}

/// The four pull cases, captured on the commit before `EDGEMAPDENSE`
/// walked each row in two phases: in memory, and through the block engine,
/// which must give the same values, subset and wire bytes and stream
/// exactly the captured blocks.
#[test]
fn pull_kernel_reproduces_parent_goldens() {
    let g = directed_web();
    let blk = reopen_as_blocks(&g);
    assert!(blk.block_handle().unwrap().grid().nb() > 1, "multi-block");
    const GOLDENS: [PullFingerprint; 4] = [
        (
            0xd06a_fe02_a065_31f6,
            0x75b7_3c82_cd35_bb15,
            314_520,
            1_999_752,
            27,
        ),
        (
            0x45ff_9a4a_1482_267f,
            0xdd33_1e49_c01d_3864,
            314_080,
            1_989_912,
            25,
        ),
        (
            0xc442_43e3_d0e6_4946,
            0x75b7_3c82_cd35_bb15,
            314_520,
            1_999_752,
            27,
        ),
        (
            0xb795_e058_3e84_9e81,
            0xb3cc_d552_ac4c_cd87,
            295_200,
            1_999_752,
            27,
        ),
    ];
    for (case, want) in GOLDENS.into_iter().enumerate() {
        let mem = pull_case(case, &g, hashed(&g, 3));
        let block = pull_case(
            case,
            &blk,
            hashed(&blk, 3).storage(flash_runtime::StorageMode::Block),
        );
        assert_eq!(
            mem,
            (want.0, want.1, want.2, 0, 0),
            "case {case}, in memory"
        );
        assert_eq!(block, want, "case {case}, block storage");
    }
}
