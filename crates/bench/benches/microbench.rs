//! Micro-benchmarks: the primitive operations of the FLASH programming
//! model and its substrate. Runs on the offline harness in
//! `flash_bench::microbench` (run with `cargo bench -p flash-bench`).

use flash_bench::microbench::{finish_suite, Group};
use flash_core::prelude::*;
use flash_graph::{generators, HashPartitioner, PartitionMap};
use std::sync::Arc;

#[derive(Clone, Default)]
struct Val {
    x: u64,
}
flash_runtime::full_sync!(Val);

fn bench_primitives() -> Vec<flash_bench::microbench::BenchResult> {
    let g = Arc::new(generators::rmat(12, 8, Default::default(), 7));
    let mut group = Group::new("primitives");

    {
        let mut ctx = FlashContext::build(Arc::clone(&g), ClusterConfig::with_workers(4), |v| {
            Val { x: v as u64 }
        })
        .unwrap();
        let all = ctx.all();
        group.bench("vertex_map_full", || {
            ctx.vertex_map(&all, |_, _| true, |_, val| val.x = val.x.wrapping_add(1))
        });
    }

    {
        let mut ctx = FlashContext::build(Arc::clone(&g), ClusterConfig::with_workers(4), |v| {
            Val { x: v as u64 }
        })
        .unwrap();
        let all = ctx.all();
        group.bench("vertex_filter_full", || {
            ctx.vertex_filter(&all, |_, val| val.x % 2 == 0)
        });
    }

    {
        let mut ctx = FlashContext::build(Arc::clone(&g), ClusterConfig::with_workers(4), |v| {
            Val { x: v as u64 }
        })
        .unwrap();
        let all = ctx.all();
        group.bench("edge_map_dense_full", || {
            ctx.edge_map_dense(
                &all,
                &EdgeSet::forward(),
                |_, s, d| s.x < d.x,
                |_, s, d| d.x = d.x.min(s.x),
                |_, _| true,
            )
        });
    }

    {
        let mut ctx = FlashContext::build(Arc::clone(&g), ClusterConfig::with_workers(4), |v| {
            Val { x: v as u64 }
        })
        .unwrap();
        let frontier = ctx.subset(0..64u32);
        group.bench("edge_map_sparse_small_frontier", || {
            ctx.edge_map_sparse(
                &frontier,
                &EdgeSet::forward(),
                |_, _, _| true,
                |_, s, d| d.x = d.x.max(s.x),
                |_, _| true,
                |t, d| d.x = d.x.max(t.x),
            )
        });
    }

    group.finish()
}

fn bench_substrate() -> Vec<flash_bench::microbench::BenchResult> {
    let mut group = Group::new("substrate");

    for scale in [10u32, 12] {
        group.bench(&format!("rmat_generate/{scale}"), || {
            generators::rmat(scale, 8, Default::default(), 1)
        });
    }

    let g = generators::rmat(12, 8, Default::default(), 3);
    for workers in [2usize, 4, 8] {
        group.bench(&format!("partition_build/{workers}"), || {
            PartitionMap::build(&g, workers, &HashPartitioner).unwrap()
        });
    }

    {
        let a = VertexSubset::from_ids(100_000, (0..100_000u32).step_by(3));
        let c2 = VertexSubset::from_ids(100_000, (0..100_000u32).step_by(5));
        group.bench("subset_ops", || {
            let u = a.union(&c2);
            let i = a.intersect(&c2);
            let m = u.minus(&i);
            m.len()
        });
    }

    group.finish()
}

/// Observability overhead: the cost of one full-frontier vertex-map
/// superstep under each sink (none, `NullSink`, `CollectSink`, a
/// `JsonLinesSink` into `io::sink()`), plus the `--metrics` registry.
/// The delta against `sink/none` is the per-superstep event cost; the
/// JSONL number exercises the buffered writer path end to end.
fn bench_obs_overhead() -> Vec<flash_bench::microbench::BenchResult> {
    use flash_obs::{CollectSink, JsonLinesSink, NullSink, Sink};

    let g = Arc::new(generators::rmat(12, 8, Default::default(), 7));
    let mut group = Group::new("obs_overhead");

    let configs: Vec<(&str, ClusterConfig)> = vec![
        ("sink/none", ClusterConfig::with_workers(4)),
        (
            "sink/null",
            ClusterConfig::with_workers(4).sink(Arc::new(NullSink) as Arc<dyn Sink>),
        ),
        (
            "sink/collect",
            ClusterConfig::with_workers(4).sink(Arc::new(CollectSink::new()) as Arc<dyn Sink>),
        ),
        (
            "sink/jsonl",
            ClusterConfig::with_workers(4)
                .sink(Arc::new(JsonLinesSink::new(std::io::sink())) as Arc<dyn Sink>),
        ),
        ("metrics/on", ClusterConfig::with_workers(4).metrics()),
    ];
    for (label, cfg) in configs {
        let mut ctx = FlashContext::build(Arc::clone(&g), cfg, |v| Val { x: v as u64 }).unwrap();
        let all = ctx.all();
        group.bench(label, || {
            ctx.vertex_map(&all, |_, _| true, |_, val| val.x = val.x.wrapping_add(1))
        });
    }

    group.finish()
}

fn main() {
    let mut results = bench_primitives();
    results.extend(bench_substrate());
    results.extend(bench_obs_overhead());
    finish_suite("microbench", &results);
}
