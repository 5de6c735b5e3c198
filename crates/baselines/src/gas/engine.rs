//! The GAS execution engine.

use crate::{BaselineError, BaselineOutput, EngineStats};
use flash_graph::{BitSet, Graph, PartitionMap, VertexId, Weight};
use std::sync::Arc;

/// A Gather-Apply-Scatter vertex program (PowerGraph-style).
pub trait GasProgram: Send + Sync {
    /// Per-vertex value.
    type Value: Clone + Send + Sync + 'static;
    /// Gather accumulator (must merge commutatively & associatively).
    type Accum: Clone + Send + Sync + 'static;

    /// Initial value of vertex `v`.
    fn init(&self, v: VertexId, g: &Graph) -> Self::Value;

    /// Gathers one in-edge `(src, dst, w)`'s contribution. Both endpoint
    /// values are visible (as in PowerGraph's `gather(u, edge, v)`), but
    /// nothing beyond the edge is — the model's defining restriction.
    fn gather(
        &self,
        src: VertexId,
        dst: VertexId,
        w: Weight,
        src_value: &Self::Value,
        dst_value: &Self::Value,
        round: usize,
    ) -> Option<Self::Accum>;

    /// Merges two accumulator values.
    fn merge(&self, a: Self::Accum, b: Self::Accum) -> Self::Accum;

    /// Applies the gathered accumulator; returns `true` when the vertex
    /// changed and should scatter.
    fn apply(
        &self,
        v: VertexId,
        value: &mut Self::Value,
        acc: Option<Self::Accum>,
        round: usize,
    ) -> bool;

    /// Whether a changed vertex activates its out-neighbors for the next
    /// round (PowerGraph's scatter signal).
    fn scatter_activates(&self) -> bool {
        true
    }

    /// Whether a changed vertex also re-activates itself.
    fn scatter_self(&self) -> bool {
        false
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct GasConfig {
    /// Number of workers.
    pub workers: usize,
    /// Run workers on OS threads.
    pub parallel: bool,
    /// Round budget.
    pub max_rounds: usize,
}

impl Default for GasConfig {
    fn default() -> Self {
        GasConfig {
            workers: 4,
            parallel: true,
            max_rounds: 1_000_000,
        }
    }
}

impl GasConfig {
    /// `workers`-worker configuration with defaults.
    pub fn with_workers(workers: usize) -> Self {
        GasConfig {
            workers,
            ..Default::default()
        }
    }

    /// Disables worker threads (deterministic tests).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }
}

/// Runs `program` from the all-active state until no vertex changes.
pub fn run<P: GasProgram>(
    graph: &Arc<Graph>,
    config: GasConfig,
    program: &P,
) -> Result<BaselineOutput<Vec<P::Value>>, BaselineError> {
    run_with(graph, config, program, None, None)
}

/// Runs `program` with explicit initial values and/or an initial active
/// set (driver hooks for chained multi-phase algorithms).
pub fn run_with<P: GasProgram>(
    graph: &Arc<Graph>,
    config: GasConfig,
    program: &P,
    initial_values: Option<Vec<P::Value>>,
    initial_active: Option<BitSet>,
) -> Result<BaselineOutput<Vec<P::Value>>, BaselineError> {
    let n = graph.num_vertices();
    let m = config.workers.max(1);
    let partition = PartitionMap::for_graph(graph, m).map_err(BaselineError::Partition)?;
    let mut values: Vec<P::Value> = match initial_values {
        Some(v) => {
            assert_eq!(v.len(), n, "initial values must cover every vertex");
            v
        }
        None => (0..n as VertexId).map(|v| program.init(v, graph)).collect(),
    };
    let mut active = initial_active.unwrap_or_else(|| BitSet::full(n));
    let mut stats = EngineStats::default();

    while !active.is_empty() {
        if stats.supersteps >= config.max_rounds {
            return Err(BaselineError::NotConverged {
                supersteps: config.max_rounds,
            });
        }
        let round = stats.supersteps;
        let values_ref = &values;
        let active_ref = &active;
        let graph_ref = graph.as_ref();

        // Gather + apply per worker, writes buffered per owner.
        type WorkerOut<P> = (
            Vec<(VertexId, <P as GasProgram>::Value)>, // new values
            Vec<VertexId>,                             // changed vertices
            u64,                                       // cross-worker gather edges
        );
        let work = |w: usize, mine: &[VertexId]| -> WorkerOut<P> {
            let mut writes = Vec::new();
            let mut changed = Vec::new();
            let mut cross = 0u64;
            for &v in mine {
                if !active_ref.contains(v) {
                    continue;
                }
                let mut acc: Option<P::Accum> = None;
                for (s, wt) in graph_ref.in_edges(v) {
                    if partition.owner(s) != w {
                        cross += 1;
                    }
                    if let Some(a) = program.gather(
                        s,
                        v,
                        wt,
                        &values_ref[s as usize],
                        &values_ref[v as usize],
                        round,
                    ) {
                        acc = Some(match acc.take() {
                            None => a,
                            Some(prev) => program.merge(prev, a),
                        });
                    }
                }
                let mut val = values_ref[v as usize].clone();
                if program.apply(v, &mut val, acc, round) {
                    changed.push(v);
                }
                writes.push((v, val));
            }
            (writes, changed, cross)
        };

        let timed_work = |w: usize| {
            let t = std::time::Instant::now();
            let out = work(w, partition.masters(w));
            (out, t.elapsed())
        };
        let timed: Vec<(WorkerOut<P>, std::time::Duration)> = if config.parallel && m > 1 {
            std::thread::scope(|s| {
                let timed_work = &timed_work;
                let handles: Vec<_> = (0..m).map(|w| s.spawn(move || timed_work(w))).collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(o) => o,
                        Err(p) => std::panic::resume_unwind(p),
                    })
                    .collect()
            })
        } else {
            (0..m).map(timed_work).collect()
        };
        let compute_max = timed.iter().map(|(_, d)| *d).max().unwrap_or_default();
        let outputs: Vec<WorkerOut<P>> = timed.into_iter().map(|(o, _)| o).collect();

        // Barrier: commit writes, build the next active set, account traffic.
        let t_barrier = std::time::Instant::now();
        let val_bytes = std::mem::size_of::<P::Value>() as u64;
        let mut next_active = BitSet::new(n);
        let mut any_changed = false;
        for (w, (writes, changed, cross)) in outputs.into_iter().enumerate() {
            stats.messages += cross;
            stats.bytes += cross * val_bytes;
            for (v, val) in writes {
                values[v as usize] = val;
            }
            for v in changed {
                any_changed = true;
                if program.scatter_activates() {
                    for &t in graph.out_neighbors(v) {
                        next_active.insert(t);
                        if partition.owner(t) != w {
                            stats.messages += 1;
                            stats.bytes += 4;
                        }
                    }
                }
                if program.scatter_self() {
                    next_active.insert(v);
                }
            }
        }
        stats.makespan += compute_max + t_barrier.elapsed();
        stats.supersteps += 1;
        if !any_changed {
            break;
        }
        active = next_active;
    }

    Ok(BaselineOutput {
        result: values,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_graph::generators;

    /// Min-label CC in GAS form.
    struct MinLabel;
    impl GasProgram for MinLabel {
        type Value = u32;
        type Accum = u32;

        fn init(&self, v: VertexId, _g: &Graph) -> u32 {
            v
        }

        fn gather(
            &self,
            _s: VertexId,
            _d: VertexId,
            _w: Weight,
            src: &u32,
            _dst: &u32,
            _round: usize,
        ) -> Option<u32> {
            Some(*src)
        }

        fn merge(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }

        fn apply(&self, _v: VertexId, value: &mut u32, acc: Option<u32>, _round: usize) -> bool {
            match acc {
                Some(min) if min < *value => {
                    *value = min;
                    true
                }
                _ => false,
            }
        }
    }

    #[test]
    fn gas_cc_on_components() {
        let g = Arc::new(
            flash_graph::GraphBuilder::new(6)
                .edges([(0, 1), (1, 2), (4, 5)])
                .symmetric(true)
                .build()
                .unwrap(),
        );
        let out = run(&g, GasConfig::with_workers(3).sequential(), &MinLabel).unwrap();
        assert_eq!(out.result, vec![0, 0, 0, 3, 4, 4]);
    }

    #[test]
    fn rounds_scale_with_diameter() {
        let g = Arc::new(generators::path(30, true));
        let out = run(&g, GasConfig::with_workers(2).sequential(), &MinLabel).unwrap();
        assert!(out.stats.supersteps >= 29);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = Arc::new(generators::erdos_renyi(70, 140, 6));
        let a = run(&g, GasConfig::with_workers(4).sequential(), &MinLabel).unwrap();
        let b = run(&g, GasConfig::with_workers(4), &MinLabel).unwrap();
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn traffic_is_counted() {
        let g = Arc::new(generators::complete(12));
        let out = run(&g, GasConfig::with_workers(4).sequential(), &MinLabel).unwrap();
        assert!(out.stats.messages > 0);
        assert!(out.stats.bytes > out.stats.messages);
    }

    #[test]
    fn round_budget_enforced() {
        /// Always "changes" — never converges.
        struct Restless;
        impl GasProgram for Restless {
            type Value = u64;
            type Accum = ();
            fn init(&self, _: VertexId, _: &Graph) -> u64 {
                0
            }
            fn gather(
                &self,
                _: VertexId,
                _: VertexId,
                _: Weight,
                _: &u64,
                _: &u64,
                _: usize,
            ) -> Option<()> {
                None
            }
            fn merge(&self, _: (), _: ()) {}
            fn apply(&self, _: VertexId, v: &mut u64, _: Option<()>, _: usize) -> bool {
                *v += 1;
                true
            }
            fn scatter_self(&self) -> bool {
                true
            }
        }
        let g = Arc::new(generators::path(4, true));
        let mut cfg = GasConfig::with_workers(1).sequential();
        cfg.max_rounds = 5;
        assert!(matches!(
            run(&g, cfg, &Restless),
            Err(BaselineError::NotConverged { supersteps: 5 })
        ));
    }
}
