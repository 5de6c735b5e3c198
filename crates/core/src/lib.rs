#![warn(missing_docs)]

//! # flash-core — the FLASH programming model
//!
//! This crate is the paper's primary contribution (§III): a Ligra-style
//! functional interface — `vertexSubset`, `VERTEXMAP`, `EDGEMAP` — extended
//! to the distributed setting, with:
//!
//! * **flexible control flow** — primitives are ordinary method calls you
//!   chain, loop and recurse over (multi-phase algorithms like Betweenness
//!   Centrality fall out naturally);
//! * **operations on arbitrary vertex sets** — any number of
//!   [`VertexSubset`]s may coexist and combine via set algebra;
//! * **communication beyond neighborhood** — [`EdgeSet`] lets `EDGEMAP`
//!   run over `reverse(E)`, two-hop joins, subset-filtered edges or fully
//!   virtual (pointer) edge sets;
//! * **the dual push/pull propagation model** — `EDGEMAP` adaptively picks
//!   [`FlashContext::edge_map_dense`] (pull) or
//!   [`FlashContext::edge_map_sparse`] (push) by frontier density
//!   (Algorithms 4–6).
//!
//! ## Quick taste (BFS, Algorithm 2 of the paper)
//!
//! ```
//! use flash_core::prelude::*;
//! use std::sync::Arc;
//!
//! #[derive(Clone)]
//! struct Bfs { dis: u32 }
//! flash_runtime::full_sync!(Bfs);
//!
//! const INF: u32 = u32::MAX;
//! let g = Arc::new(flash_graph::generators::path(5, true));
//! let mut ctx = FlashContext::build(g, ClusterConfig::with_workers(2), |_| Bfs { dis: INF })
//!     .unwrap();
//!
//! let root = 0u32;
//! let all = ctx.all();
//! ctx.vertex_map(&all, |_, _| true, |v, val| val.dis = if v == root { 0 } else { INF });
//! let mut frontier = ctx.vertex_filter(&all, |v, _| v == root);
//! while !frontier.is_empty() {
//!     frontier = ctx.edge_map(
//!         &frontier,
//!         &EdgeSet::forward(),
//!         |_, _, _| true,                       // F = CTRUE
//!         |_, s, d| d.dis = s.dis + 1,          // UPDATE
//!         |_, d| d.dis == INF,                  // COND
//!         |t, d| d.dis = t.dis,                 // REDUCE (keep any)
//!     );
//! }
//! assert_eq!(ctx.value(4).dis, 4);
//! ```

pub mod context;
pub mod edgeset;
pub mod subset;
pub mod vc;

pub use context::FlashContext;
pub use edgeset::EdgeSet;
pub use subset::VertexSubset;

use flash_graph::{VertexId, Weight};

/// A reference to one (possibly virtual) edge handed to `EDGEMAP`'s `F`
/// and `M` functions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRef {
    /// The source vertex `s`.
    pub src: VertexId,
    /// The target vertex `d`.
    pub dst: VertexId,
    /// The edge weight `w(e)` (1.0 on unweighted or virtual edges).
    pub weight: Weight,
}

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::context::FlashContext;
    pub use crate::edgeset::EdgeSet;
    pub use crate::subset::VertexSubset;
    pub use crate::EdgeRef;
    pub use flash_runtime::{
        ClusterConfig, ModePolicy, NetworkModel, RunStats, StepKind, SyncMode, VertexData,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[derive(Clone, Default, Debug, PartialEq)]
    struct Val {
        x: u64,
    }
    flash_runtime::full_sync!(Val);

    fn ctx_on_path(n: usize, workers: usize) -> FlashContext<Val> {
        let g = Arc::new(flash_graph::generators::path(n, true));
        let mut cfg = ClusterConfig::with_workers(workers);
        cfg.parallel_workers = false;
        FlashContext::build(g, cfg, |v| Val { x: v as u64 }).unwrap()
    }

    #[test]
    fn vertex_map_applies_and_returns_passing() {
        let mut ctx = ctx_on_path(6, 2);
        let all = ctx.all();
        let evens = ctx.vertex_map(&all, |v, _| v % 2 == 0, |_, val| val.x += 100);
        assert_eq!(evens.to_vec(), vec![0, 2, 4]);
        assert_eq!(ctx.value(0).x, 100);
        assert_eq!(ctx.value(1).x, 1, "non-passing vertex unchanged");
        assert_eq!(ctx.value(4).x, 104);
    }

    #[test]
    fn vertex_filter_reads_only() {
        let mut ctx = ctx_on_path(5, 2);
        let all = ctx.all();
        let big = ctx.vertex_filter(&all, |_, val| val.x >= 3);
        assert_eq!(big.to_vec(), vec![3, 4]);
        // No sync traffic for a pure filter.
        assert_eq!(ctx.stats().steps()[0].sync_bytes, 0);
    }

    #[test]
    fn edge_map_sparse_pushes_to_neighbors() {
        let mut ctx = ctx_on_path(4, 2);
        // Push each frontier vertex's value to neighbors; keep max.
        let frontier = ctx.subset([0u32]);
        let reduce = |t: &Val, d: &mut Val| d.x = d.x.max(t.x);
        let out = ctx.edge_map_sparse(
            &frontier,
            &EdgeSet::forward(),
            |_, _, _| true,
            |_, s, d| d.x = d.x.max(s.x + 10),
            |_, _| true,
            reduce,
        );
        assert_eq!(out.to_vec(), vec![1], "path: 0's only neighbor is 1");
        assert_eq!(ctx.value(1).x, 10);
    }

    #[test]
    fn edge_map_dense_pulls_from_frontier() {
        let mut ctx = ctx_on_path(4, 2);
        let frontier = ctx.subset([1u32, 2]);
        let out = ctx.edge_map_dense(
            &frontier,
            &EdgeSet::forward(),
            |_, _, _| true,
            |_, s, d| d.x += s.x * 100,
            |_, _| true,
        );
        // Every vertex with an in-neighbor in {1,2} gets updated.
        assert_eq!(out.to_vec(), vec![0, 1, 2, 3]);
        // Vertex 0 pulled from 1: 0 + 100. Vertex 3 pulled from 2: 3 + 200.
        assert_eq!(ctx.value(0).x, 100);
        assert_eq!(ctx.value(3).x, 203);
        // Vertex 1 pulled from 2 only (0 not in frontier): 1 + 200.
        assert_eq!(ctx.value(1).x, 201);
    }

    #[test]
    fn dense_cond_stops_early() {
        // C limits each target to at most one application.
        let mut ctx = ctx_on_path(3, 1);
        let frontier = ctx.subset([0u32, 2]); // both neighbors of 1
        ctx.edge_map_dense(
            &frontier,
            &EdgeSet::forward(),
            |_, _, _| true,
            |_, _, d| d.x += 1000,
            |_, d| d.x < 1000, // stop once updated
        );
        assert_eq!(ctx.value(1).x, 1001, "second in-edge must not apply");
    }

    #[test]
    fn adaptive_edge_map_matches_both_kernels() {
        // CC-style min propagation: dense, sparse and adaptive agree.
        let g = Arc::new(flash_graph::generators::erdos_renyi(40, 80, 9));
        let run = |mode: ModePolicy| {
            let mut cfg = ClusterConfig::with_workers(3).mode(mode);
            cfg.parallel_workers = false;
            let mut ctx =
                FlashContext::build(Arc::clone(&g), cfg, |v| Val { x: v as u64 }).unwrap();
            let mut u = ctx.all();
            let reduce = |t: &Val, d: &mut Val| d.x = d.x.min(t.x);
            while !u.is_empty() {
                u = ctx.edge_map(
                    &u,
                    &EdgeSet::forward(),
                    |_, s, d| s.x < d.x,
                    |_, s, d| d.x = d.x.min(s.x),
                    |_, _| true,
                    reduce,
                );
            }
            ctx.collect(|_, val| val.x)
        };
        let dense = run(ModePolicy::ForceDense);
        let sparse = run(ModePolicy::ForceSparse);
        let auto = run(ModePolicy::Adaptive);
        assert_eq!(dense, sparse);
        assert_eq!(dense, auto);
    }

    #[test]
    fn reverse_edge_set_pushes_backwards() {
        let g = Arc::new(
            flash_graph::GraphBuilder::new(3)
                .edges([(0, 1), (1, 2)])
                .build()
                .unwrap(),
        );
        let mut cfg = ClusterConfig::with_workers(2);
        cfg.parallel_workers = false;
        let mut ctx = FlashContext::build(g, cfg, |v| Val { x: v as u64 }).unwrap();
        let frontier = ctx.subset([2u32]);
        let out = ctx.edge_map_sparse(
            &frontier,
            &EdgeSet::reverse(),
            |_, _, _| true,
            |_, s, d| d.x = s.x * 7,
            |_, _| true,
            |t, d| d.x = t.x,
        );
        assert_eq!(out.to_vec(), vec![1]);
        assert_eq!(ctx.value(1).x, 14);
    }

    #[test]
    fn custom_pointer_edge_set_beyond_neighborhood() {
        // Virtual edges: every vertex points at vertex 0 regardless of E.
        let mut ctx = ctx_on_path(5, 2);
        let all = ctx.all();
        let reduce = |t: &Val, d: &mut Val| d.x += t.x;
        ctx.edge_map_sparse(
            &all,
            &EdgeSet::custom_out(|_, _| vec![0]),
            |_, _, _| true,
            |_, s, d| d.x += s.x,
            |_, _| true,
            reduce,
        );
        // Temps are seeded from target 0's base (x = 0), so vertex 0
        // accumulates the sum of all source values: 0+1+2+3+4.
        assert_eq!(ctx.value(0).x, 10);
    }

    #[test]
    fn fold_and_gather_aggregate_globally() {
        let mut ctx = ctx_on_path(10, 3);
        let all = ctx.all();
        let total = ctx.fold(&all, 0u64, |acc, _, val| acc + val.x, |a, b| a + b);
        assert_eq!(total, 45);
        let per_worker = ctx.gather(|c| c.masters().len(), |_| 8);
        assert_eq!(per_worker.iter().sum::<usize>(), 10);
        // Global traffic recorded in stats.
        let (_, _, _, globals) = ctx.stats().kind_counts();
        assert!(globals >= 2, "fold and gather each record global steps");
    }

    #[test]
    fn broadcast_value_reaches_all_replicas() {
        let mut ctx = ctx_on_path(4, 2);
        ctx.broadcast_value(3, Val { x: 42 });
        assert_eq!(ctx.value(3).x, 42);
        let seen = ctx.gather(|c| c.get(3).x, |_| 8);
        assert!(seen.iter().all(|&x| x == 42));
    }

    /// A sparse superstep is frontier-proportional by construction: over a
    /// whole BFS down a 65 536-vertex path (one-vertex frontiers, adaptive
    /// mode picks push every time) no frontier is ever anything but an id
    /// list, and no kernel asks one for its `n`-bit set.
    #[test]
    fn sparse_bfs_never_materialises_a_frontier_bitset() {
        const UNSEEN: u64 = u64::MAX;
        let n = 1 << 16;
        let mut ctx = ctx_on_path(n, 2);
        let all = ctx.all();
        ctx.vertex_map(
            &all,
            |_, _| true,
            |v, val| val.x = if v == 0 { 0 } else { UNSEEN },
        );
        let mut frontier = ctx.vertex_filter(&all, |v, _| v == 0);
        let mut levels = 0;
        while !frontier.is_empty() {
            let next = ctx.edge_map(
                &frontier,
                &EdgeSet::forward(),
                |_, _, _| true,
                |_, s, d| d.x = s.x + 1,
                |_, d| d.x == UNSEEN,
                |t, d| d.x = t.x,
            );
            for u in [&frontier, &next] {
                assert!(u.is_list(), "level {levels}: frontier is not an id list");
                assert!(!u.bitset_materialised(), "level {levels}: bit set built");
            }
            frontier = next;
            levels += 1;
        }
        assert_eq!(levels, n, "one level per path vertex");
        assert_eq!(ctx.value(n as u32 - 1).x, n as u64 - 1);
        let (_, dense, sparse, _) = ctx.stats().kind_counts();
        assert_eq!((dense, sparse), (0, n), "every EDGEMAP ran the push kernel");
    }

    #[test]
    fn empty_frontier_is_a_noop() {
        let mut ctx = ctx_on_path(4, 2);
        let empty = ctx.empty();
        let out = ctx.edge_map_sparse(
            &empty,
            &EdgeSet::forward(),
            |_, _, _| true,
            |_, _, d| d.x = 999,
            |_, _| true,
            |t, d| d.x = t.x,
        );
        assert!(out.is_empty());
        assert_eq!(ctx.collect(|_, v| v.x), vec![0, 1, 2, 3]);
    }
}
