//! Out-of-core block storage: the block engine must be a drop-in,
//! bit-identical replacement for the in-memory engine (DESIGN.md §13).
//!
//! These tests round-trip generated graphs through the on-disk block
//! format, run the scaling algorithms under `ClusterConfig::storage =
//! Block`, and compare every per-vertex result *and* the deterministic
//! run statistics (supersteps, message bytes) against in-memory runs of
//! the same configuration. The whole catalogue runs under block storage
//! as the shared sweep's `block` row (`tests/sweep/mod.rs`).

mod sweep;

use flash_core::prelude::*;
use flash_graph::generators;
use flash_graph::{Graph, HashPartitioner, PartitionMap};
use flash_runtime::{ModePolicy, RunStats, RuntimeError, StepStats, StorageMode};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Serializes `g` to a temporary block file and reopens it through the
/// block reader, cleaning up the file immediately (the open mapping, or
/// the heap copy where mapping is refused, keeps the data alive).
fn reopen_as_blocks(g: &Graph, tag: &str) -> Arc<Graph> {
    let path = std::env::temp_dir().join(format!(
        "flash_storage_test_{}_{tag}.fgb",
        std::process::id()
    ));
    flash_graph::write_blocks(g, &path).expect("write block file");
    let blk = flash_graph::open_blocks(&path).expect("open block file");
    let _ = std::fs::remove_file(&path);
    Arc::new(blk)
}

fn mem_config(workers: usize) -> ClusterConfig {
    ClusterConfig::with_workers(workers).sequential()
}

fn blk_config(workers: usize) -> ClusterConfig {
    mem_config(workers).storage(StorageMode::Block)
}

/// `cfg` over an explicit [`HashPartitioner`] map of `g`. The streamed
/// counters below were captured under it; the default map cuts
/// `web_graph`'s contiguous communities into ranges instead, which changes
/// the cells each worker streams.
fn hashed(g: &Graph, cfg: ClusterConfig) -> ClusterConfig {
    let map = PartitionMap::build(g, cfg.workers, &HashPartitioner).expect("partition");
    cfg.shared_partition(Arc::new(map))
}

/// `(bytes_streamed, blocks_streamed, block_cache_hits)` of a run.
fn streamed(stats: &RunStats) -> (u64, u64, u64) {
    (
        stats.bytes_streamed(),
        stats.blocks_streamed(),
        stats.block_cache_hits(),
    )
}

/// BFS, CC and PageRank agree bit-for-bit between the engines on a
/// multi-block web graph, and the block runs actually stream blocks.
#[test]
fn block_engine_matches_in_memory_on_multi_block_graph() {
    // ~5 source blocks at the default 4096-vertex block width; ~2×10⁵
    // arcs keeps the debug-profile runtime reasonable.
    let g = Arc::new(generators::web_graph(20_000, 10, 40, 3));
    let blk = reopen_as_blocks(&g, "multi");
    assert!(
        blk.block_handle().is_some(),
        "reopened graph is block-backed"
    );

    let mem_cfg = || hashed(&g, mem_config(4));
    let blk_cfg = || hashed(&g, blk_config(4));
    let mem = flash_algos::bfs::run(&g, mem_cfg(), 0).unwrap();
    let stream = flash_algos::bfs::run(&blk, blk_cfg(), 0).unwrap();
    assert_eq!(mem.result, stream.result, "bfs distances");
    assert_eq!(
        mem.stats.num_supersteps(),
        stream.stats.num_supersteps(),
        "bfs supersteps"
    );
    assert_eq!(
        mem.stats.total_bytes(),
        stream.stats.total_bytes(),
        "bfs message bytes"
    );
    // The streamed counters below were captured at the last commit that
    // still had the block-major twin kernels (PR 22): the streaming model
    // is part of the engine's contract, not of one loop structure.
    assert_eq!(
        streamed(&stream.stats),
        (9_248_984, 249, 21),
        "bfs streamed"
    );
    assert_eq!(
        streamed(&mem.stats),
        (0, 0, 0),
        "in-memory run must not stream"
    );

    let mem = flash_algos::cc::run(&g, mem_cfg()).unwrap();
    let stream = flash_algos::cc::run(&blk, blk_cfg()).unwrap();
    assert_eq!(mem.result, stream.result, "cc labels");
    assert_eq!(
        mem.stats.total_bytes(),
        stream.stats.total_bytes(),
        "cc message bytes"
    );
    assert_eq!(streamed(&stream.stats), (8_979_888, 400, 60), "cc streamed");

    let mem = flash_algos::pagerank::run(&g, mem_cfg(), 5).unwrap();
    let stream = flash_algos::pagerank::run(&blk, blk_cfg(), 5).unwrap();
    assert_eq!(streamed(&stream.stats), (6_998_912, 420, 80), "pr streamed");
    // Bit-identity, not approximate equality: the streamed kernels visit
    // each vertex's edges in the same order as the in-memory kernels, so
    // even float accumulation must match exactly.
    assert_eq!(
        mem.result.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        stream
            .result
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        "pagerank ranks (bitwise)"
    );
}

/// Every step's counters survive `to_json` and `from_json`, on in-memory
/// steps (no streaming keys) and on block steps (with them).
#[test]
fn step_stats_round_trip_through_json_on_both_engines() {
    let g = Arc::new(generators::web_graph(9_000, 8, 12, 9));
    let blk = reopen_as_blocks(&g, "round_trip");
    let mem = flash_algos::bfs::run(&g, mem_config(2), 0).unwrap();
    let stream = flash_algos::bfs::run(&blk, blk_config(2), 0).unwrap();
    let streaming_steps = |stats: &RunStats| {
        let keyed = |s: &&StepStats| s.to_json().get("streamed_bytes").is_some();
        stats.steps().iter().filter(keyed).count()
    };
    assert_eq!(streaming_steps(&mem.stats), 0);
    assert!(streaming_steps(&stream.stats) > 0);
    assert!(mem.stats.steps().iter().any(|s| s.staged > 0));
    for s in mem.stats.steps().iter().chain(stream.stats.steps()) {
        assert_eq!(StepStats::from_json(&s.to_json()).as_ref(), Ok(s));
    }
}

/// The storage summary in the run stats reports the block grid and the
/// resident vertex-state footprint.
#[test]
fn storage_summary_reports_blocks_and_resident_state() {
    let g = Arc::new(generators::web_graph(9_000, 8, 12, 9));
    let blk = reopen_as_blocks(&g, "summary");
    let out = flash_algos::bfs::run(&blk, blk_config(2), 0).unwrap();
    let s = &out.stats.storage;
    assert_eq!(s.mode, "block");
    assert!(s.resident_state_bytes > 0, "resident state accounted");
    assert!(
        s.dense_blocks + s.sparse_blocks > 0,
        "grid classified at least one block"
    );
    assert!(s.graph_mapped_bytes > 0, "edge data lives in the mapping");
}

/// Asking for block storage on a purely in-memory graph is a
/// configuration error, not a silent fallback.
#[test]
fn block_storage_without_block_graph_is_rejected() {
    let g = Arc::new(generators::erdos_renyi(50, 200, 1));
    let err = flash_algos::bfs::run(&g, blk_config(2), 0).unwrap_err();
    assert!(
        matches!(err, RuntimeError::Storage(_)),
        "expected RuntimeError::Storage, got {err:?}"
    );
}

/// Every catalogue algorithm, the weighted ones on the weighted copy,
/// gives its in-memory answer under block storage in as many supersteps
/// with the same per-superstep traffic, and the catalogue streams blocks
/// (the sweep's `block` row).
#[test]
fn catalogue_under_block_storage_matches_in_memory() {
    sweep::sweep(&["block"]);
}

/// The *push* kernel on its own: under `ForceSparse` every `EDGEMAP` of
/// BFS, CC and SSSP is a streamed sparse step, with frontiers on both
/// sides of the list/bit-set switch, and must match the in-memory run bit
/// for bit — and charge what the block-major twin kernel of PR 22 charged.
#[test]
fn forced_sparse_block_engine_matches_in_memory() {
    let base = generators::web_graph(9_000, 8, 12, 11);
    let g = Arc::new(generators::with_random_weights(&base, 0.5, 2.0, 13));
    let blk = reopen_as_blocks(&g, "sparse");
    let mem_cfg = || hashed(&g, mem_config(3)).mode(ModePolicy::ForceSparse);
    let blk_cfg = || hashed(&g, blk_config(3)).mode(ModePolicy::ForceSparse);

    let mem = flash_algos::bfs::run(&g, mem_cfg(), 0).unwrap();
    let stream = flash_algos::bfs::run(&blk, blk_cfg(), 0).unwrap();
    assert_eq!(mem.result, stream.result, "bfs distances");
    assert_eq!(mem.stats.kind_counts(), stream.stats.kind_counts());
    assert_eq!(mem.stats.kind_counts().1, 0, "no dense step ran");
    assert_eq!(mem.stats.total_bytes(), stream.stats.total_bytes());
    assert_eq!(streamed(&stream.stats), (3_206_864, 65, 19), "bfs streamed");

    let mem = flash_algos::cc::run(&g, mem_cfg()).unwrap();
    let stream = flash_algos::cc::run(&blk, blk_cfg()).unwrap();
    assert_eq!(mem.result, stream.result, "cc labels");
    assert_eq!(mem.stats.kind_counts(), stream.stats.kind_counts());
    assert_eq!(mem.stats.total_bytes(), stream.stats.total_bytes());
    assert_eq!(streamed(&stream.stats), (3_463_776, 81, 27), "cc streamed");

    let mem = flash_algos::sssp::run(&g, mem_cfg(), 0).unwrap();
    let stream = flash_algos::sssp::run(&blk, blk_cfg(), 0).unwrap();
    assert_eq!(
        mem.result.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        stream
            .result
            .iter()
            .map(|d| d.to_bits())
            .collect::<Vec<_>>(),
        "sssp distances (bitwise)"
    );
    assert_eq!(mem.stats.total_bytes(), stream.stats.total_bytes());
    assert_eq!(
        streamed(&stream.stats),
        (3_770_064, 95, 36),
        "sssp streamed"
    );
}

/// The streaming model, stated without reference to any kernel: a
/// full-frontier pull whose `c` never fails reads every in-edge of every
/// master, so a worker with a cold cache streams exactly the non-empty
/// cells `(sb, db)` holding an edge into one of its masters — each once,
/// dense or sparse — and hits nothing.
#[test]
fn full_frontier_dense_step_streams_each_workers_nonempty_cells_once() {
    let workers = 4;
    let g = Arc::new(generators::web_graph(20_000, 10, 40, 3));
    let blk = reopen_as_blocks(&g, "oracle");
    let grid = blk.block_handle().expect("block-backed").grid();
    assert!(grid.nb() > 1, "multi-block");
    let partition = PartitionMap::for_graph(&g, workers).unwrap();
    let cells: BTreeSet<(usize, usize, usize)> = g
        .edges()
        .map(|(s, d, _)| (partition.owner(d), grid.block_of(s), grid.block_of(d)))
        .collect();
    let bytes: u64 = cells
        .iter()
        .map(|&(_, sb, db)| grid.block_bytes(sb, db))
        .sum();
    assert!(
        cells.len() > grid.num_dense() + grid.num_sparse(),
        "workers share cells, so the model is not just the grid"
    );

    // One PageRank iteration is one such step, over the default map.
    let out = flash_algos::pagerank::run(&blk, blk_config(workers), 1).unwrap();
    assert_eq!(out.stats.kind_counts().1, 1, "one dense step");
    assert_eq!(streamed(&out.stats), (bytes, cells.len() as u64, 0));
}

/// Vertex state for the direct-kernel sweep: an order-sensitive float
/// accumulator and a visit counter the early-exit condition reads.
#[derive(Clone, Debug, PartialEq)]
struct Acc {
    sum: f64,
    hits: u32,
}
flash_runtime::full_sync!(Acc);

/// Everything observable about [`direct_kernels`]: final values (bitwise),
/// each step's output subset, the run's wire bytes.
type DirectRun = (Vec<(u64, u32)>, Vec<Vec<u32>>, u64);

/// Two pulls and two pushes called directly, over `reverse(E)` and
/// `join(E, U)` with edge weights, sub-frontiers, and a `c` that turns
/// false in the middle of a row.
fn direct_kernels(g: &Arc<Graph>, cfg: ClusterConfig) -> (DirectRun, RunStats) {
    let n = g.num_vertices() as u32;
    let mut ctx = FlashContext::build(Arc::clone(g), cfg, |v| Acc {
        sum: 1.0 + f64::from(v) * 0.25,
        hits: 0,
    })
    .unwrap();
    let thirds = ctx.subset((0..n).filter(|v| v % 3 != 0));
    let evens = ctx.subset((0..n).step_by(2));
    let pull = |e: EdgeRef, s: &Acc, d: &mut Acc| {
        d.sum += s.sum * f64::from(e.weight);
        d.hits += 1;
    };
    let push = |e: EdgeRef, s: &Acc, t: &mut Acc| {
        t.sum = s.sum / f64::from(e.weight);
        t.hits = 1;
    };
    let merge = |t: &Acc, acc: &mut Acc| {
        acc.sum += t.sum;
        acc.hits += t.hits;
    };
    let all = ctx.all();
    let outs = [
        // Rows longer than three edges are left early.
        ctx.edge_map_dense(
            &all,
            &EdgeSet::reverse(),
            |_, _, _| true,
            pull,
            |_, d| d.hits < 3,
        ),
        ctx.edge_map_dense(
            &thirds,
            &EdgeSet::targets_in(&evens),
            |e, _, _| e.src % 5 != 0,
            pull,
            |_, d| d.hits < 5,
        ),
        ctx.edge_map_sparse(
            &thirds,
            &EdgeSet::reverse(),
            |_, _, _| true,
            push,
            |_, d| d.hits < 5,
            merge,
        ),
        ctx.edge_map_sparse(
            &evens,
            &EdgeSet::targets_in(&thirds),
            |e, _, _| e.weight > 0.75,
            push,
            |_, _| true,
            merge,
        ),
    ];
    assert!(ctx.fault_error().is_none(), "{:?}", ctx.fault_error());
    let values = ctx.collect(|_, a| (a.sum.to_bits(), a.hits));
    let outs = outs.iter().map(VertexSubset::to_vec).collect();
    let stats = ctx.take_stats();
    ((values, outs, stats.total_bytes()), stats)
}

/// What the algorithm catalogue never exercises under block storage:
/// `reverse(E)` and `join(E, U)` with weights, and the pull kernel's
/// early exit.
#[test]
fn direct_kernels_match_in_memory_over_reverse_and_targets_in() {
    let base = generators::web_graph(9_000, 8, 12, 11);
    let g = Arc::new(generators::with_random_weights(&base, 0.5, 2.0, 13));
    let blk = reopen_as_blocks(&g, "direct");
    assert!(blk.block_handle().unwrap().grid().nb() > 1, "multi-block");

    let (expected, mem_stats) = direct_kernels(&g, mem_config(3));
    assert_eq!(streamed(&mem_stats), (0, 0, 0));
    let (values, outs, _) = &expected;
    assert!(
        (0..9_000u32).any(|v| g.out_degree(v) > 3 && values[v as usize].1 >= 3),
        "some row was left early"
    );
    assert!(outs.iter().all(|o| !o.is_empty()), "every step did work");

    let (first, first_stats) = direct_kernels(&blk, blk_config(3));
    assert_eq!(first, expected, "block");
    let (_, again_stats) = direct_kernels(&blk, blk_config(3));
    assert!(first_stats.bytes_streamed() > 0);
    assert_eq!(
        streamed(&first_stats),
        streamed(&again_stats),
        "streamed counters repeat"
    );
}
