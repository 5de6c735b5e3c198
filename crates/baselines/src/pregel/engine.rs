//! The Pregel execution engine.

use crate::{BaselineError, BaselineOutput, EngineStats};
use flash_graph::{Graph, PartitionMap, VertexId};
use std::collections::HashMap;
use std::sync::Arc;

/// A Pregel vertex program.
pub trait PregelProgram: Send + Sync {
    /// Per-vertex value.
    type Value: Clone + Send + Sync + 'static;
    /// Message type.
    type Message: Clone + Send + Sync + 'static;
    /// Global aggregator value (use `()` when unused).
    type Aggregate: Clone + Send + Sync + Default + 'static;

    /// Initial value of vertex `v`.
    fn init(&self, v: VertexId, g: &Graph) -> Self::Value;

    /// One superstep for vertex `v`. Called when the vertex is active
    /// (not halted, or reactivated by an incoming message).
    fn compute(
        &self,
        ctx: &mut ComputeCtx<'_, Self::Message, Self::Aggregate>,
        v: VertexId,
        g: &Graph,
        value: &mut Self::Value,
        inbox: &[Self::Message],
    );

    /// Sender-side combiner (Pregel's `combine()`): merge two messages
    /// bound for the same target. `None` disables combining.
    fn combine(&self, _a: &Self::Message, _b: &Self::Message) -> Option<Self::Message> {
        None
    }

    /// Merges two aggregator contributions.
    fn merge_aggregate(&self, a: Self::Aggregate, _b: Self::Aggregate) -> Self::Aggregate {
        a
    }
}

/// What a vertex can do during `compute`.
pub struct ComputeCtx<'a, M, A> {
    superstep: usize,
    halted: bool,
    out: Vec<(VertexId, M)>,
    agg_in: &'a Option<A>,
    agg_out: Option<A>,
}

impl<'a, M: Clone, A: Clone> ComputeCtx<'a, M, A> {
    /// The current superstep number (0-based).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// Sends `msg` to vertex `to`.
    pub fn send(&mut self, to: VertexId, msg: M) {
        self.out.push((to, msg));
    }

    /// Sends `msg` to every out-neighbor of `v`.
    pub fn send_to_neighbors(&mut self, g: &Graph, v: VertexId, msg: M) {
        for &t in g.out_neighbors(v) {
            self.out.push((t, msg.clone()));
        }
    }

    /// Sends `msg` to every in-neighbor of `v` (Pregel+ algorithms on
    /// directed graphs routinely message predecessors).
    pub fn send_to_in_neighbors(&mut self, g: &Graph, v: VertexId, msg: M) {
        for &t in g.in_neighbors(v) {
            self.out.push((t, msg.clone()));
        }
    }

    /// Votes to halt; the vertex stays inactive until a message arrives.
    pub fn vote_to_halt(&mut self) {
        self.halted = true;
    }

    /// The merged aggregator value of the *previous* superstep.
    pub fn aggregated(&self) -> Option<&A> {
        self.agg_in.as_ref()
    }

    /// Contributes to this superstep's aggregator.
    pub fn aggregate(&mut self, a: A, merge: impl Fn(A, A) -> A) {
        self.agg_out = Some(match self.agg_out.take() {
            None => a,
            Some(prev) => merge(prev, a),
        });
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct PregelConfig {
    /// Number of workers.
    pub workers: usize,
    /// Run workers on OS threads.
    pub parallel: bool,
    /// Superstep budget.
    pub max_supersteps: usize,
}

impl Default for PregelConfig {
    fn default() -> Self {
        PregelConfig {
            workers: 4,
            parallel: true,
            max_supersteps: 1_000_000,
        }
    }
}

impl PregelConfig {
    /// `workers`-worker configuration with defaults.
    pub fn with_workers(workers: usize) -> Self {
        PregelConfig {
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

/// Per-worker shard of engine state.
struct Shard<P: PregelProgram> {
    owned: Vec<VertexId>,
    values: Vec<P::Value>,
    inbox: Vec<Vec<P::Message>>,
    halted: Vec<bool>,
}

/// Runs `program` to quiescence (all halted, no messages in flight).
/// Returns final values indexed by vertex id.
pub fn run<P: PregelProgram>(
    graph: &Arc<Graph>,
    config: PregelConfig,
    program: &P,
) -> Result<BaselineOutput<Vec<P::Value>>, BaselineError> {
    run_with_values(graph, config, program, |v, g| program.init(v, g))
}

/// Like [`run`] but with explicit initial values — the hook Pregel-style
/// multi-phase algorithms (BC, SCC, MSF) use to chain sub-algorithms,
/// feeding one program's output into the next (the paper notes Pregel+
/// must "decompose the algorithm into several individual sub-algorithms").
pub fn run_with_values<P: PregelProgram>(
    graph: &Arc<Graph>,
    config: PregelConfig,
    program: &P,
    init: impl Fn(VertexId, &Graph) -> P::Value,
) -> Result<BaselineOutput<Vec<P::Value>>, BaselineError> {
    let n = graph.num_vertices();
    let m = config.workers.max(1);
    let partition = PartitionMap::for_graph(graph, m).map_err(BaselineError::Partition)?;

    // Build shards.
    let mut local = vec![0u32; n];
    let mut shards: Vec<Shard<P>> = (0..m)
        .map(|_| Shard {
            owned: Vec::new(),
            values: Vec::new(),
            inbox: Vec::new(),
            halted: Vec::new(),
        })
        .collect();
    for v in 0..n as VertexId {
        let w = partition.owner(v);
        local[v as usize] = shards[w].owned.len() as u32;
        shards[w].owned.push(v);
        shards[w].values.push(init(v, graph));
        shards[w].inbox.push(Vec::new());
        shards[w].halted.push(false);
    }

    let mut stats = EngineStats::default();
    let mut aggregate: Option<P::Aggregate> = None;

    loop {
        if stats.supersteps >= config.max_supersteps {
            return Err(BaselineError::NotConverged {
                supersteps: config.max_supersteps,
            });
        }

        // Compute phase (parallel over workers).
        type WorkerOut<P> = (
            Vec<Vec<(VertexId, <P as PregelProgram>::Message)>>,
            Option<<P as PregelProgram>::Aggregate>,
            bool, // any vertex computed
        );
        let compute_one = |shard: &mut Shard<P>| -> WorkerOut<P> {
            let mut buckets: Vec<Vec<(VertexId, P::Message)>> = vec![Vec::new(); m];
            // Sender-side combining: one slot per (worker, target).
            let mut combined: Vec<HashMap<VertexId, P::Message>> = vec![HashMap::new(); m];
            let mut agg: Option<P::Aggregate> = None;
            let mut any = false;
            for i in 0..shard.owned.len() {
                let v = shard.owned[i];
                let msgs = std::mem::take(&mut shard.inbox[i]);
                if shard.halted[i] && msgs.is_empty() {
                    continue;
                }
                any = true;
                shard.halted[i] = false;
                let mut ctx = ComputeCtx {
                    superstep: stats.supersteps,
                    halted: false,
                    out: Vec::new(),
                    agg_in: &aggregate,
                    agg_out: None,
                };
                program.compute(&mut ctx, v, graph, &mut shard.values[i], &msgs);
                shard.halted[i] = ctx.halted;
                for (to, msg) in ctx.out {
                    let dest = partition.owner(to);
                    use std::collections::hash_map::Entry;
                    match combined[dest].entry(to) {
                        Entry::Vacant(e) => {
                            e.insert(msg);
                        }
                        Entry::Occupied(mut e) => match program.combine(e.get(), &msg) {
                            Some(c) => {
                                *e.get_mut() = c;
                            }
                            None => buckets[dest].push((to, msg)),
                        },
                    }
                }
                if let Some(a) = ctx.agg_out {
                    agg = Some(match agg.take() {
                        None => a,
                        Some(prev) => program.merge_aggregate(prev, a),
                    });
                }
            }
            for (dest, map) in combined.into_iter().enumerate() {
                buckets[dest].extend(map);
            }
            (buckets, agg, any)
        };

        let timed_compute = |shard: &mut Shard<P>| {
            let t = std::time::Instant::now();
            let out = compute_one(shard);
            (out, t.elapsed())
        };
        let timed: Vec<(WorkerOut<P>, std::time::Duration)> = if config.parallel && m > 1 {
            std::thread::scope(|s| {
                let timed_compute = &timed_compute;
                let handles: Vec<_> = shards
                    .iter_mut()
                    .map(|shard| s.spawn(move || timed_compute(shard)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(o) => o,
                        Err(p) => std::panic::resume_unwind(p),
                    })
                    .collect()
            })
        } else {
            shards.iter_mut().map(timed_compute).collect()
        };
        let compute_max = timed.iter().map(|(_, d)| *d).max().unwrap_or_default();
        let outputs: Vec<WorkerOut<P>> = timed.into_iter().map(|(o, _)| o).collect();

        // Delivery + aggregation (barrier).
        let t_deliver = std::time::Instant::now();
        let mut delivered = false;
        let mut next_agg: Option<P::Aggregate> = None;
        let mut any_computed = false;
        let msg_size = 4 + std::mem::size_of::<P::Message>() as u64;
        for (src, (buckets, agg, any)) in outputs.into_iter().enumerate() {
            any_computed |= any;
            if let Some(a) = agg {
                next_agg = Some(match next_agg.take() {
                    None => a,
                    Some(prev) => program.merge_aggregate(prev, a),
                });
            }
            for (dest, bucket) in buckets.into_iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                delivered = true;
                if dest != src {
                    stats.messages += bucket.len() as u64;
                    stats.bytes += bucket.len() as u64 * msg_size;
                }
                for (to, msg) in bucket {
                    let shard = &mut shards[dest];
                    shard.inbox[local[to as usize] as usize].push(msg);
                }
            }
        }
        aggregate = next_agg;
        stats.makespan += compute_max + t_deliver.elapsed();
        stats.supersteps += 1;

        if !delivered && !any_computed {
            break;
        }
        // Also stop when every vertex has halted and nothing is in flight.
        if !delivered && shards.iter().all(|s| s.halted.iter().all(|&h| h)) {
            break;
        }
    }

    // Assemble values in global id order.
    let mut out: Vec<Option<P::Value>> = vec![None; n];
    for shard in shards {
        for (i, v) in shard.owned.iter().enumerate() {
            out[*v as usize] = Some(shard.values[i].clone());
        }
    }
    Ok(BaselineOutput {
        result: out
            .into_iter()
            .map(|v| v.expect("all vertices owned"))
            .collect(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_graph::generators;

    /// Min-label propagation (connected components).
    struct MinLabel;
    impl PregelProgram for MinLabel {
        type Value = u32;
        type Message = u32;
        type Aggregate = ();

        fn init(&self, v: VertexId, _g: &Graph) -> u32 {
            v
        }

        fn compute(
            &self,
            ctx: &mut ComputeCtx<'_, u32, ()>,
            v: VertexId,
            g: &Graph,
            value: &mut u32,
            inbox: &[u32],
        ) {
            let best = inbox.iter().min().copied().unwrap_or(u32::MAX);
            if ctx.superstep() == 0 || best < *value {
                if best < *value {
                    *value = best;
                }
                ctx.send_to_neighbors(g, v, *value);
            }
            ctx.vote_to_halt();
        }

        fn combine(&self, a: &u32, b: &u32) -> Option<u32> {
            Some(*a.min(b))
        }
    }

    #[test]
    fn min_label_cc_on_two_components() {
        let g = Arc::new(
            flash_graph::GraphBuilder::new(7)
                .edges([(0, 1), (1, 2), (3, 4), (5, 6)])
                .symmetric(true)
                .build()
                .unwrap(),
        );
        let out = run(&g, PregelConfig::with_workers(3).sequential(), &MinLabel).unwrap();
        assert_eq!(out.result, vec![0, 0, 0, 3, 3, 5, 5]);
        assert!(out.stats.supersteps >= 2);
    }

    #[test]
    fn combiner_reduces_messages() {
        let g = Arc::new(generators::star(50, true));
        let combined = run(&g, PregelConfig::with_workers(4).sequential(), &MinLabel).unwrap();

        /// Same program, no combiner.
        struct NoCombine;
        impl PregelProgram for NoCombine {
            type Value = u32;
            type Message = u32;
            type Aggregate = ();
            fn init(&self, v: VertexId, _g: &Graph) -> u32 {
                v
            }
            fn compute(
                &self,
                ctx: &mut ComputeCtx<'_, u32, ()>,
                v: VertexId,
                g: &Graph,
                value: &mut u32,
                inbox: &[u32],
            ) {
                MinLabel.compute(ctx, v, g, value, inbox)
            }
        }
        let plain = run(&g, PregelConfig::with_workers(4).sequential(), &NoCombine).unwrap();
        assert_eq!(combined.result, plain.result);
        assert!(
            combined.stats.messages < plain.stats.messages,
            "combiner must shrink traffic: {} vs {}",
            combined.stats.messages,
            plain.stats.messages
        );
    }

    #[test]
    fn aggregator_counts_vertices() {
        /// Every vertex contributes 1 at superstep 0, reads total at 1.
        struct Counter;
        impl PregelProgram for Counter {
            type Value = u64;
            type Message = ();
            type Aggregate = u64;
            fn init(&self, _v: VertexId, _g: &Graph) -> u64 {
                0
            }
            fn compute(
                &self,
                ctx: &mut ComputeCtx<'_, (), u64>,
                v: VertexId,
                _g: &Graph,
                value: &mut u64,
                _inbox: &[()],
            ) {
                if ctx.superstep() == 0 {
                    ctx.aggregate(1, |a, b| a + b);
                    ctx.send(v, ()); // stay alive for one more step
                } else {
                    *value = *ctx.aggregated().unwrap();
                }
                ctx.vote_to_halt();
            }
            fn merge_aggregate(&self, a: u64, b: u64) -> u64 {
                a + b
            }
        }
        let g = Arc::new(generators::path(9, true));
        let out = run(&g, PregelConfig::with_workers(2).sequential(), &Counter).unwrap();
        assert!(out.result.iter().all(|&c| c == 9));
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = Arc::new(generators::erdos_renyi(80, 160, 5));
        let a = run(&g, PregelConfig::with_workers(4).sequential(), &MinLabel).unwrap();
        let b = run(&g, PregelConfig::with_workers(4), &MinLabel).unwrap();
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn budget_is_enforced() {
        /// Ping-pong forever.
        struct Forever;
        impl PregelProgram for Forever {
            type Value = ();
            type Message = ();
            type Aggregate = ();
            fn init(&self, _: VertexId, _: &Graph) {}
            fn compute(
                &self,
                ctx: &mut ComputeCtx<'_, (), ()>,
                v: VertexId,
                _g: &Graph,
                _value: &mut (),
                _inbox: &[()],
            ) {
                ctx.send(v, ());
            }
        }
        let g = Arc::new(generators::path(3, true));
        let mut cfg = PregelConfig::with_workers(1).sequential();
        cfg.max_supersteps = 4;
        assert!(matches!(
            run(&g, cfg, &Forever),
            Err(BaselineError::NotConverged { supersteps: 4 })
        ));
    }
}
