//! K-Clique Counting — paper Algorithm 23 (after Shi, Dhulipala & Shun
//! \[26\]).
//!
//! Build rank-oriented neighbor lists, then count cliques by recursive
//! candidate-set intersection. The recursion reads the neighbor list of
//! *arbitrary* vertices through FLASHWARE's `get` — "to access the
//! neighbors of an arbitrary vertex u, the get function which the
//! FLASHWARE exposes is called immediately" — so the list-building edge
//! map runs over a virtual edge set, which makes FLASHWARE synchronize
//! the lists to the mirrors in **all** partitions (§IV-C), exactly the
//! availability the recursion requires.

use crate::common::{rank_above, AlgoOutput};
use flash_core::prelude::*;
use flash_graph::{Graph, VertexId};
use flash_runtime::plan::{Access, OpKind, ProgramPlan, Role};
use flash_runtime::{RuntimeError, VertexData};
use std::sync::Arc;

/// Per-vertex state: the oriented neighbor list.
#[derive(Clone, Default)]
pub struct ClVertex {
    /// Sorted ids of higher-ranked neighbors.
    pub out: Vec<u32>,
}

impl VertexData for ClVertex {
    type Critical = ClVertex;
    fn critical(&self) -> ClVertex {
        self.clone()
    }
    fn apply_critical(&mut self, c: ClVertex) {
        *self = c;
    }
    fn bytes(&self) -> usize {
        4 * self.out.len()
    }
    fn critical_bytes(c: &ClVertex) -> usize {
        c.bytes()
    }
}
flash_runtime::durable_value!(ClVertex { out });

/// Table II plan for CL.
pub fn plan() -> ProgramPlan {
    ProgramPlan::new()
        .access(OpKind::VertexMap, Role::Local, Access::Put, "out")
        .access(OpKind::EdgeMapSparse, Role::Target, Access::Get, "out")
        .access(OpKind::EdgeMapSparse, Role::Target, Access::Put, "out")
}

/// The recursive `COUNTING(cand, lev, k)` of Algorithm 23. `verts` is the
/// worker's replica array — `verts[u]` is FLASHWARE's `get(u)`.
fn counting(verts: &[ClVertex], cand: &[VertexId], lev: usize, k: usize) -> u64 {
    if lev == k {
        return cand.len() as u64;
    }
    let mut total = 0u64;
    for &u in cand {
        let cand2 = crate::reference::sorted_intersection(cand, &verts[u as usize].out);
        if cand2.len() + lev >= k - 1 {
            total += counting(verts, &cand2, lev + 1, k);
        }
    }
    total
}

/// Runs k-clique counting (`k >= 3`); returns the exact clique count.
/// Requires a symmetric graph.
pub fn run(
    graph: &Arc<Graph>,
    config: ClusterConfig,
    k: usize,
) -> Result<AlgoOutput<u64>, RuntimeError> {
    assert!(
        graph.is_symmetric(),
        "clique counting needs an undirected graph"
    );
    assert!(k >= 3, "use vertex/edge counts for k < 3");
    let g = Arc::clone(graph);
    let mut ctx: FlashContext<ClVertex> =
        FlashContext::build_durable(Arc::clone(graph), config, |_| ClVertex::default())?;

    // FLASH-ALGORITHM-BEGIN: clique
    let all = ctx.all();
    let u = ctx.vertex_map(&all, |_, _| true, |_, val| val.out.clear());
    // Rank-descending virtual edges: every vertex pushes its id to its
    // lower-ranked neighbors; All-scope sync replicates the lists.
    let g1 = Arc::clone(&g);
    let h = EdgeSet::custom_out(move |v, _: &ClVertex| {
        g1.out_neighbors(v)
            .iter()
            .copied()
            .filter(|&d| rank_above(g1.degree(v), v, g1.degree(d), d))
            .collect()
    });
    let u = ctx.edge_map_sparse(
        &u,
        &h,
        |_, _, _| true,
        |e, _, d| {
            if let Err(pos) = d.out.binary_search(&e.src) {
                d.out.insert(pos, e.src);
            }
        },
        |_, _| true,
        |t, d| {
            for &x in &t.out {
                if let Err(pos) = d.out.binary_search(&x) {
                    d.out.insert(pos, x);
                }
            }
        },
    );
    // Candidates need at least k-1 higher neighbors; count recursively.
    let u = ctx.vertex_filter(&u, move |_, val| val.out.len() >= k - 1);
    let counts = ctx.gather(
        move |w| {
            let actives = u.actives_for(w.worker(), w.partition());
            let verts = w.current_slice();
            let mut total = 0u64;
            for &v in &actives {
                total += counting(verts, &verts[v as usize].out, 2, k);
            }
            total
        },
        |_| 8,
    );
    let total: u64 = counts.into_iter().sum();
    // FLASH-ALGORITHM-END: clique

    crate::common::finish(&mut ctx, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use flash_graph::generators;

    fn check(g: Graph, k: usize, workers: usize) -> u64 {
        let g = Arc::new(g);
        let expect = reference::kclique_count(&g, k);
        let out = run(&g, ClusterConfig::with_workers(workers).sequential(), k).unwrap();
        assert_eq!(out.result, expect, "k={k}");
        expect
    }

    #[test]
    fn complete_graphs() {
        assert_eq!(check(generators::complete(6), 3, 2), 20);
        assert_eq!(check(generators::complete(6), 4, 2), 15);
        assert_eq!(check(generators::complete(7), 5, 3), 21);
    }

    #[test]
    fn triangle_free_graphs_have_none() {
        assert_eq!(check(generators::bipartite_complete(4, 4), 3, 2), 0);
        assert_eq!(check(generators::cycle(9, true), 3, 2), 0);
    }

    #[test]
    fn random_graphs_match_reference_for_k_3_4_5() {
        let g = generators::erdos_renyi(45, 250, 31);
        for k in 3..=5 {
            check(g.clone(), k, 4);
        }
        let g = generators::rmat(7, 7, Default::default(), 8);
        check(g, 4, 3);
    }

    #[test]
    fn paper_default_k_is_four() {
        // "the performance results are tested under the setting of k to be 4"
        let g = generators::watts_strogatz(60, 6, 0.1, 2);
        check(g, 4, 2);
    }

    #[test]
    fn worker_count_invariance() {
        let g = Arc::new(generators::erdos_renyi(40, 200, 17));
        let expect = reference::kclique_count(&g, 4);
        for workers in [1usize, 2, 5] {
            let out = run(&g, ClusterConfig::with_workers(workers).sequential(), 4).unwrap();
            assert_eq!(out.result, expect);
        }
    }

    #[test]
    fn plan_is_valid() {
        plan().validate().unwrap();
    }
}
