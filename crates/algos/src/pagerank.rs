//! PageRank with uniform teleport and dangling redistribution.
//!
//! The canonical ISVP workload. Every vertex carries its `share`, the mass
//! it hands each out-neighbour (`rank / out_degree`, computed once when the
//! rank is). Each iteration folds the dangling vertices' shares globally,
//! resets `rank` to serve as the accumulator, pulls `Σ_in share(s)` in a
//! dense `EDGEMAP` over all vertices, and applies damping in a `VERTEXMAP`
//! that also refreshes `share` — a textbook use of FLASH's mixed
//! local/global control flow. The pull makes one random read per arc, the
//! source's `share`, and divides nothing; the division happens once per
//! source, with the operands a per-arc `rank / deg` would use, so the ranks
//! are bit-identical to dividing per arc.

use crate::common::AlgoOutput;
use flash_core::prelude::*;
use flash_graph::Graph;
use flash_runtime::plan::{Access, OpKind, ProgramPlan, Role};
use flash_runtime::RuntimeError;
use std::sync::Arc;

/// Per-vertex PageRank state.
#[derive(Clone)]
pub struct PrVertex {
    /// Current rank; between an iteration's reset and apply maps, the
    /// accumulator its pull sums into.
    pub rank: f64,
    /// What the vertex sends each out-neighbour: `rank / out_degree`, or
    /// `rank` itself when it has no out-edge (the dangling fold's term).
    pub share: f64,
}
flash_runtime::full_sync!(PrVertex);
flash_runtime::durable_value!(PrVertex { rank, share });

/// Damping factor used throughout (the paper-standard 0.85).
pub const DAMPING: f64 = 0.85;

/// Table II plan: `share` is read by neighbours (dense source) → critical;
/// `rank` is only written on targets and read/written in vertex maps →
/// local.
pub fn plan() -> ProgramPlan {
    ProgramPlan::new()
        .access(OpKind::EdgeMapDense, Role::Source, Access::Get, "share")
        .access(OpKind::EdgeMapDense, Role::Target, Access::Put, "rank")
        .access(OpKind::VertexMap, Role::Local, Access::Get, "rank")
        .access(OpKind::VertexMap, Role::Local, Access::Put, "rank")
        .access(OpKind::VertexMap, Role::Local, Access::Put, "share")
}

/// The share a vertex of out-degree `deg` sends per out-edge.
#[inline]
fn share_of(rank: f64, deg: usize) -> f64 {
    if deg == 0 {
        rank
    } else {
        rank / deg as f64
    }
}

/// Runs `iters` synchronous PageRank sweeps; returns per-vertex ranks
/// (summing to 1 over the graph).
pub fn run(
    graph: &Arc<Graph>,
    config: ClusterConfig,
    iters: usize,
) -> Result<AlgoOutput<Vec<f64>>, RuntimeError> {
    let n = graph.num_vertices().max(1) as f64;
    let mut ctx: FlashContext<PrVertex> =
        FlashContext::build_durable(Arc::clone(graph), config, |v| PrVertex {
            rank: 1.0 / n,
            share: share_of(1.0 / n, graph.out_degree(v)),
        })?;

    // FLASH-ALGORITHM-BEGIN: pagerank
    let all = ctx.all();
    for _ in 0..iters {
        let dangling = ctx.fold(
            &all,
            0.0f64,
            |acc, v, val| {
                if graph.out_degree(v) == 0 {
                    acc + val.share
                } else {
                    acc
                }
            },
            |a, b| a + b,
        );
        ctx.vertex_map(&all, |_, _| true, |_, val| val.rank = 0.0);
        ctx.edge_map_dense(
            &all,
            &EdgeSet::forward(),
            |_, _, _| true,
            |_, s, d| d.rank += s.share,
            |_, _| true,
        );
        let base = (1.0 - DAMPING) / n + DAMPING * dangling / n;
        ctx.vertex_map(
            &all,
            |_, _| true,
            |v, val| {
                val.rank = base + DAMPING * val.rank;
                val.share = share_of(val.rank, graph.out_degree(v));
            },
        );
    }
    // FLASH-ALGORITHM-END: pagerank

    let result = ctx.collect(|_, val| val.rank);
    crate::common::finish(&mut ctx, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use flash_graph::generators;

    fn check(g: Graph, iters: usize, workers: usize) {
        let g = Arc::new(g);
        let expect = reference::pagerank(&g, iters);
        let out = run(&g, ClusterConfig::with_workers(workers).sequential(), iters).unwrap();
        for (v, &want) in expect.iter().enumerate() {
            assert!(
                (out.result[v] - want).abs() < 1e-10,
                "vertex {v}: {} vs {want}",
                out.result[v]
            );
        }
    }

    #[test]
    fn matches_sequential_on_random_graph() {
        check(generators::rmat(7, 6, Default::default(), 4), 15, 4);
    }

    #[test]
    fn handles_dangling_vertices() {
        // Directed: 2 has no out-edges.
        let g = flash_graph::GraphBuilder::new(3)
            .edges([(0, 1), (1, 2), (0, 2)])
            .build()
            .unwrap();
        check(g, 25, 2);
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = Arc::new(generators::web_graph(300, 8, 10, 2));
        let out = run(&g, ClusterConfig::with_workers(3).sequential(), 20).unwrap();
        let sum: f64 = out.result.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_regular_graph_is_uniform() {
        let g = generators::cycle(10, true);
        let g = Arc::new(g);
        let out = run(&g, ClusterConfig::with_workers(2).sequential(), 30).unwrap();
        for r in &out.result {
            assert!((r - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn plan_ships_share_and_keeps_rank_local() {
        let p = plan();
        p.validate().unwrap();
        assert!(p.is_critical("share"));
        assert!(!p.is_critical("rank"));
    }
}
