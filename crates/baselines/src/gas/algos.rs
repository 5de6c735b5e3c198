//! GAS algorithm implementations used as the paper's "PowerG." column.
//!
//! Per Table I, the GAS model expresses CC, BFS, BC, MIS, MM-basic, KC,
//! TC, GC and LPA — and **cannot** express CC-opt, MM-opt, SCC, BCC, MSF,
//! RC or CL (no communication beyond the neighborhood, no custom edge
//! sets, no global set operations), so this module has no entry for
//! them and the harness reports those cells as unsupported.

use super::engine::{run, run_with, GasConfig, GasProgram};
use crate::{BaselineError, BaselineOutput, EngineStats};
use flash_graph::{BitSet, Graph, VertexId, Weight};
use std::sync::Arc;

fn rank_above(g: &Graph, a: VertexId, b: VertexId) -> bool {
    let (da, db) = (g.degree(a), g.degree(b));
    da > db || (da == db && a > b)
}

/// BFS levels from `root` (`u32::MAX` = unreachable).
pub fn bfs(
    graph: &Arc<Graph>,
    config: GasConfig,
    root: VertexId,
) -> Result<BaselineOutput<Vec<u32>>, BaselineError> {
    struct Bfs;
    impl GasProgram for Bfs {
        type Value = u32;
        type Accum = u32;
        fn init(&self, _v: VertexId, _g: &Graph) -> u32 {
            u32::MAX
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
            (*src != u32::MAX).then(|| src.saturating_add(1))
        }
        fn merge(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn apply(&self, _v: VertexId, value: &mut u32, acc: Option<u32>, _round: usize) -> bool {
            match acc {
                Some(l) if l < *value => {
                    *value = l;
                    true
                }
                _ => false,
            }
        }
    }
    let n = graph.num_vertices();
    let mut values = vec![u32::MAX; n];
    values[root as usize] = 0;
    let mut active = BitSet::new(n);
    for &t in graph.out_neighbors(root) {
        active.insert(t);
    }
    run_with(graph, config, &Bfs, Some(values), Some(active))
}

/// Shortest-path distances from `root`.
pub fn sssp(
    graph: &Arc<Graph>,
    config: GasConfig,
    root: VertexId,
) -> Result<BaselineOutput<Vec<f64>>, BaselineError> {
    struct Sssp;
    impl GasProgram for Sssp {
        type Value = f64;
        type Accum = f64;
        fn init(&self, _v: VertexId, _g: &Graph) -> f64 {
            f64::INFINITY
        }
        fn gather(
            &self,
            _s: VertexId,
            _d: VertexId,
            w: Weight,
            src: &f64,
            _dst: &f64,
            _round: usize,
        ) -> Option<f64> {
            src.is_finite().then(|| src + w as f64)
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a.min(b)
        }
        fn apply(&self, _v: VertexId, value: &mut f64, acc: Option<f64>, _round: usize) -> bool {
            match acc {
                Some(d) if d < *value => {
                    *value = d;
                    true
                }
                _ => false,
            }
        }
    }
    let n = graph.num_vertices();
    let mut values = vec![f64::INFINITY; n];
    values[root as usize] = 0.0;
    let mut active = BitSet::new(n);
    for &t in graph.out_neighbors(root) {
        active.insert(t);
    }
    run_with(graph, config, &Sssp, Some(values), Some(active))
}

/// Connected components by min-label gathering.
pub fn cc(
    graph: &Arc<Graph>,
    config: GasConfig,
) -> Result<BaselineOutput<Vec<u32>>, BaselineError> {
    struct Cc;
    impl GasProgram for Cc {
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
    run(graph, config, &Cc)
}

/// PageRank with damping 0.85 and `iters` sweeps. GAS has no global
/// aggregator, so dangling mass is *not* redistributed (as in PowerGraph's
/// shipped example) — ranks sum to slightly under 1 on graphs with sinks.
pub fn pagerank(
    graph: &Arc<Graph>,
    config: GasConfig,
    iters: usize,
) -> Result<BaselineOutput<Vec<f64>>, BaselineError> {
    struct Pr {
        iters: usize,
        n: f64,
    }
    impl GasProgram for Pr {
        type Value = f64;
        type Accum = f64;
        fn init(&self, _v: VertexId, g: &Graph) -> f64 {
            1.0 / g.num_vertices().max(1) as f64
        }
        fn gather(
            &self,
            s: VertexId,
            _d: VertexId,
            _w: Weight,
            src: &f64,
            _dst: &f64,
            _round: usize,
        ) -> Option<f64> {
            let _ = s;
            Some(*src) // normalized in apply via the degree captured below
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, _v: VertexId, _value: &mut f64, _acc: Option<f64>, _round: usize) -> bool {
            unreachable!("replaced by the degree-aware wrapper below")
        }
    }
    // The gather contribution needs src.rank / deg(src); close over the graph.
    struct PrReal {
        inner: Pr,
        g: Arc<Graph>,
    }
    impl GasProgram for PrReal {
        type Value = f64;
        type Accum = f64;
        fn init(&self, v: VertexId, g: &Graph) -> f64 {
            self.inner.init(v, g)
        }
        fn gather(
            &self,
            s: VertexId,
            _d: VertexId,
            _w: Weight,
            src: &f64,
            _dst: &f64,
            _round: usize,
        ) -> Option<f64> {
            let deg = self.g.out_degree(s);
            (deg > 0).then(|| src / deg as f64)
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, _v: VertexId, value: &mut f64, acc: Option<f64>, round: usize) -> bool {
            *value = (1.0 - 0.85) / self.inner.n + 0.85 * acc.unwrap_or(0.0);
            round + 1 < self.inner.iters
        }
    }
    let n = graph.num_vertices().max(1) as f64;
    run(
        graph,
        config,
        &PrReal {
            inner: Pr { iters, n },
            g: Arc::clone(graph),
        },
    )
}

/// Label propagation for `iters` rounds (most frequent neighbor label).
pub fn lpa(
    graph: &Arc<Graph>,
    config: GasConfig,
    iters: usize,
) -> Result<BaselineOutput<Vec<u32>>, BaselineError> {
    struct Lpa {
        iters: usize,
    }
    impl GasProgram for Lpa {
        type Value = u32;
        type Accum = Vec<u32>;
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
        ) -> Option<Vec<u32>> {
            Some(vec![*src])
        }
        fn merge(&self, mut a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
            a.extend(b);
            a
        }
        fn apply(
            &self,
            _v: VertexId,
            value: &mut u32,
            acc: Option<Vec<u32>>,
            round: usize,
        ) -> bool {
            if let Some(mut labels) = acc {
                labels.sort_unstable();
                let (mut best, mut best_n, mut i) = (*value, 0usize, 0usize);
                while i < labels.len() {
                    let j = labels[i..]
                        .iter()
                        .position(|&x| x != labels[i])
                        .map_or(labels.len(), |p| i + p);
                    if j - i > best_n {
                        best_n = j - i;
                        best = labels[i];
                    }
                    i = j;
                }
                *value = best;
            }
            round + 1 < self.iters
        }
    }
    run(graph, config, &Lpa { iters })
}

/// Luby's MIS: local priority minima join, neighbors drop out.
pub fn mis(
    graph: &Arc<Graph>,
    config: GasConfig,
) -> Result<BaselineOutput<Vec<bool>>, BaselineError> {
    /// 0 = undecided, 1 = in, 2 = out.
    #[derive(Clone)]
    struct V {
        state: u8,
        priority: u64,
    }
    struct Mis;
    impl GasProgram for Mis {
        type Value = V;
        type Accum = (u64, bool); // (min undecided nbr priority, any In nbr)
        fn init(&self, v: VertexId, g: &Graph) -> V {
            V {
                state: 0,
                priority: g.degree(v) as u64 * g.num_vertices() as u64 + v as u64,
            }
        }
        fn gather(
            &self,
            _s: VertexId,
            _d: VertexId,
            _w: Weight,
            src: &V,
            _dst: &V,
            _round: usize,
        ) -> Option<(u64, bool)> {
            match src.state {
                0 => Some((src.priority, false)),
                1 => Some((u64::MAX, true)),
                _ => None,
            }
        }
        fn merge(&self, a: (u64, bool), b: (u64, bool)) -> (u64, bool) {
            (a.0.min(b.0), a.1 || b.1)
        }
        fn apply(
            &self,
            _v: VertexId,
            value: &mut V,
            acc: Option<(u64, bool)>,
            _round: usize,
        ) -> bool {
            if value.state != 0 {
                return false;
            }
            let (min_pri, any_in) = acc.unwrap_or((u64::MAX, false));
            if any_in {
                value.state = 2;
                true
            } else if value.priority < min_pri {
                value.state = 1;
                true
            } else {
                false
            }
        }
        fn scatter_self(&self) -> bool {
            true
        }
    }
    let out = run(graph, config, &Mis)?;
    Ok(BaselineOutput {
        result: out.result.iter().map(|v| v.state == 1).collect(),
        stats: out.stats,
    })
}

/// Greedy maximal matching by alternating propose/confirm rounds.
pub fn mm(
    graph: &Arc<Graph>,
    config: GasConfig,
) -> Result<BaselineOutput<Vec<Option<VertexId>>>, BaselineError> {
    #[derive(Clone)]
    struct V {
        partner: i64,
        cand: i64,
    }
    struct Mm;
    impl GasProgram for Mm {
        type Value = V;
        type Accum = u32;
        fn init(&self, _v: VertexId, _g: &Graph) -> V {
            V {
                partner: -1,
                cand: -1,
            }
        }
        fn gather(
            &self,
            s: VertexId,
            d: VertexId,
            _w: Weight,
            src: &V,
            dst: &V,
            round: usize,
        ) -> Option<u32> {
            if src.partner >= 0 || dst.partner >= 0 {
                return None;
            }
            if round.is_multiple_of(2) {
                // Propose phase: candidates are unmatched neighbors.
                Some(s)
            } else {
                // Confirm phase: mutual candidacy.
                (src.cand == d as i64 && dst.cand == s as i64).then_some(s)
            }
        }
        fn merge(&self, a: u32, b: u32) -> u32 {
            a.max(b)
        }
        fn apply(&self, _v: VertexId, value: &mut V, acc: Option<u32>, round: usize) -> bool {
            if value.partner >= 0 {
                return false;
            }
            if round.is_multiple_of(2) {
                value.cand = acc.map_or(-1, |c| c as i64);
                value.cand >= 0
            } else {
                match acc {
                    Some(p) => {
                        value.partner = p as i64;
                        true
                    }
                    None => false,
                }
            }
        }
        fn scatter_self(&self) -> bool {
            true
        }
    }
    let out = run(graph, config, &Mm)?;
    Ok(BaselineOutput {
        result: out
            .result
            .iter()
            .map(|v| (v.partner >= 0).then_some(v.partner as VertexId))
            .collect(),
        stats: out.stats,
    })
}

/// K-core numbers: the driver sweeps k upward; inside each k the engine
/// peels by gathering alive-neighbor counts.
pub fn kcore(
    graph: &Arc<Graph>,
    config: GasConfig,
) -> Result<BaselineOutput<Vec<u32>>, BaselineError> {
    #[derive(Clone)]
    struct V {
        core: u32,
        removed: bool,
    }
    struct Peel {
        k: u32,
    }
    impl GasProgram for Peel {
        type Value = V;
        type Accum = u32;
        fn init(&self, _v: VertexId, _g: &Graph) -> V {
            unreachable!("driver seeds values")
        }
        fn gather(
            &self,
            _s: VertexId,
            _d: VertexId,
            _w: Weight,
            src: &V,
            _dst: &V,
            _round: usize,
        ) -> Option<u32> {
            (!src.removed).then_some(1)
        }
        fn merge(&self, a: u32, b: u32) -> u32 {
            a + b
        }
        fn apply(&self, _v: VertexId, value: &mut V, acc: Option<u32>, _round: usize) -> bool {
            if value.removed {
                return false;
            }
            if acc.unwrap_or(0) < self.k {
                value.removed = true;
                value.core = self.k - 1;
                true
            } else {
                false
            }
        }
    }
    let mut values: Vec<V> = (0..graph.num_vertices())
        .map(|_| V {
            core: 0,
            removed: false,
        })
        .collect();
    let mut stats = EngineStats::default();
    for k in 1..=(graph.max_degree() as u32 + 1) {
        let out = run_with(graph, config.clone(), &Peel { k }, Some(values), None)?;
        stats.supersteps += out.stats.supersteps;
        stats.messages += out.stats.messages;
        stats.bytes += out.stats.bytes;
        values = out.result;
        if values.iter().all(|v| v.removed) {
            break;
        }
    }
    Ok(BaselineOutput {
        result: values.iter().map(|v| v.core).collect(),
        stats,
    })
}

/// Greedy coloring: gather higher-ranked neighbor colors, take the mex.
pub fn gc(
    graph: &Arc<Graph>,
    config: GasConfig,
) -> Result<BaselineOutput<Vec<u32>>, BaselineError> {
    struct Gc {
        g: Arc<Graph>,
    }
    impl GasProgram for Gc {
        type Value = u32;
        type Accum = Vec<u32>;
        fn init(&self, _v: VertexId, _g: &Graph) -> u32 {
            0
        }
        fn gather(
            &self,
            s: VertexId,
            d: VertexId,
            _w: Weight,
            src: &u32,
            _dst: &u32,
            _round: usize,
        ) -> Option<Vec<u32>> {
            rank_above(&self.g, s, d).then(|| vec![*src])
        }
        fn merge(&self, mut a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
            a.extend(b);
            a
        }
        fn apply(
            &self,
            _v: VertexId,
            value: &mut u32,
            acc: Option<Vec<u32>>,
            _round: usize,
        ) -> bool {
            let mut used = acc.unwrap_or_default();
            used.sort_unstable();
            used.dedup();
            let mut mex = 0u32;
            for c in used {
                if c == mex {
                    mex += 1;
                } else if c > mex {
                    break;
                }
            }
            if mex != *value {
                *value = mex;
                true
            } else {
                false
            }
        }
    }
    run(
        graph,
        config,
        &Gc {
            g: Arc::clone(graph),
        },
    )
}

/// Triangle counting via gathered neighbor lists, driver-chained: pass 1
/// materializes every vertex's higher-ranked adjacency, pass 2 intersects
/// along each rank-ascending edge.
pub fn tc(graph: &Arc<Graph>, config: GasConfig) -> Result<BaselineOutput<u64>, BaselineError> {
    #[derive(Clone, Default)]
    struct V {
        higher: Vec<u32>,
        count: u64,
    }
    struct Collect {
        g: Arc<Graph>,
    }
    impl GasProgram for Collect {
        type Value = V;
        type Accum = Vec<u32>;
        fn init(&self, _v: VertexId, _g: &Graph) -> V {
            V::default()
        }
        fn gather(
            &self,
            s: VertexId,
            d: VertexId,
            _w: Weight,
            _src: &V,
            _dst: &V,
            _round: usize,
        ) -> Option<Vec<u32>> {
            rank_above(&self.g, s, d).then(|| vec![s])
        }
        fn merge(&self, mut a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
            a.extend(b);
            a
        }
        fn apply(&self, _v: VertexId, value: &mut V, acc: Option<Vec<u32>>, _round: usize) -> bool {
            let mut h = acc.unwrap_or_default();
            h.sort_unstable();
            h.dedup();
            value.higher = h;
            false
        }
    }
    struct Count {
        g: Arc<Graph>,
    }
    impl GasProgram for Count {
        type Value = V;
        type Accum = u64;
        fn init(&self, _v: VertexId, _g: &Graph) -> V {
            unreachable!("driver seeds values")
        }
        fn gather(
            &self,
            s: VertexId,
            d: VertexId,
            _w: Weight,
            src: &V,
            dst: &V,
            _round: usize,
        ) -> Option<u64> {
            rank_above(&self.g, d, s)
                .then(|| crate::ligra::sorted_intersection_size(&src.higher, &dst.higher))
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn apply(&self, _v: VertexId, value: &mut V, acc: Option<u64>, _round: usize) -> bool {
            value.count = acc.unwrap_or(0);
            false
        }
    }
    let pass1 = run(
        graph,
        config.clone(),
        &Collect {
            g: Arc::clone(graph),
        },
    )?;
    let pass2 = run_with(
        graph,
        config,
        &Count {
            g: Arc::clone(graph),
        },
        Some(pass1.result),
        None,
    )?;
    let mut stats = pass1.stats;
    stats.supersteps += pass2.stats.supersteps;
    stats.messages += pass2.stats.messages;
    stats.bytes += pass2.stats.bytes;
    Ok(BaselineOutput {
        result: pass2.result.iter().map(|v| v.count).sum(),
        stats,
    })
}

/// Brandes BC, driver-chained (forward level/sigma pass, then one backward
/// sweep per level). Requires a symmetric graph.
pub fn bc(
    graph: &Arc<Graph>,
    config: GasConfig,
    root: VertexId,
) -> Result<BaselineOutput<Vec<f64>>, BaselineError> {
    #[derive(Clone)]
    struct V {
        level: i64,
        sigma: f64,
        delta: f64,
    }
    struct Forward;
    impl GasProgram for Forward {
        type Value = V;
        type Accum = f64;
        fn init(&self, _v: VertexId, _g: &Graph) -> V {
            unreachable!("driver seeds values")
        }
        fn gather(
            &self,
            _s: VertexId,
            _d: VertexId,
            _w: Weight,
            src: &V,
            _dst: &V,
            round: usize,
        ) -> Option<f64> {
            (src.level == round as i64).then_some(src.sigma)
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, _v: VertexId, value: &mut V, acc: Option<f64>, round: usize) -> bool {
            match acc {
                Some(sigma) if value.level == -1 => {
                    value.level = round as i64 + 1;
                    value.sigma = sigma;
                    true
                }
                _ => false,
            }
        }
    }
    /// One backward level, driver-invoked per BFS depth: GAS's rigid
    /// control flow cannot schedule the level-by-level sweep itself, so
    /// the driver chains one engine run per level (the overhead the paper
    /// charges to PowerGraph's 162-LLoC BC).
    struct BackwardLevel {
        level: i64,
    }
    impl GasProgram for BackwardLevel {
        type Value = V;
        type Accum = f64;
        fn gather(
            &self,
            _s: VertexId,
            _d: VertexId,
            _w: Weight,
            src: &V,
            dst: &V,
            _round: usize,
        ) -> Option<f64> {
            (dst.level == self.level && src.level == dst.level + 1 && src.sigma > 0.0)
                .then(|| dst.sigma / src.sigma * (1.0 + src.delta))
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, _v: VertexId, value: &mut V, acc: Option<f64>, _round: usize) -> bool {
            if value.level == self.level {
                value.delta = acc.unwrap_or(0.0);
            }
            false // exactly one round per driver invocation
        }
        fn init(&self, _v: VertexId, _g: &Graph) -> V {
            unreachable!("driver seeds values")
        }
    }

    assert!(graph.is_symmetric(), "GAS BC walks the BFS tree both ways");
    let n = graph.num_vertices();
    let mut values: Vec<V> = (0..n)
        .map(|_| V {
            level: -1,
            sigma: 0.0,
            delta: 0.0,
        })
        .collect();
    values[root as usize] = V {
        level: 0,
        sigma: 1.0,
        delta: 0.0,
    };
    let mut active = BitSet::new(n);
    for &t in graph.out_neighbors(root) {
        active.insert(t);
    }
    let fwd = run_with(graph, config.clone(), &Forward, Some(values), Some(active))?;
    let mut values = fwd.result;
    let max_level = values.iter().map(|v| v.level).max().unwrap_or(0).max(0);

    let mut stats = fwd.stats;
    for level in (0..max_level).rev() {
        let mut active = BitSet::new(n);
        for (v, st) in values.iter().enumerate() {
            if st.level == level {
                active.insert(v as u32);
            }
        }
        if active.is_empty() {
            continue;
        }
        let pass = run_with(
            graph,
            config.clone(),
            &BackwardLevel { level },
            Some(values),
            Some(active),
        )?;
        values = pass.result;
        stats.supersteps += pass.stats.supersteps;
        stats.messages += pass.stats.messages;
        stats.bytes += pass.stats.bytes;
    }
    let mut result: Vec<f64> = values.into_iter().map(|v| v.delta).collect();
    result[root as usize] = 0.0;
    Ok(BaselineOutput { result, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_graph::generators;

    #[test]
    fn bfs_matches_reference() {
        let g = Arc::new(generators::grid2d(6, 7));
        let expect = flash_graph::stats::bfs_levels(&g, 3);
        let out = bfs(&g, GasConfig::with_workers(3).sequential(), 3).unwrap();
        for (v, &e) in expect.iter().enumerate() {
            let want = if e == usize::MAX { u32::MAX } else { e as u32 };
            assert_eq!(out.result[v], want, "vertex {v}");
        }
    }

    #[test]
    fn sssp_respects_relaxation() {
        let g = generators::erdos_renyi(40, 120, 4);
        let g = Arc::new(generators::with_random_weights(&g, 0.5, 4.0, 1));
        let out = sssp(&g, GasConfig::with_workers(2).sequential(), 0).unwrap();
        for (s, d, w) in g.edges() {
            assert!(out.result[d as usize] <= out.result[s as usize] + w as f64 + 1e-9);
        }
    }

    #[test]
    fn cc_component_labels() {
        let g = Arc::new(
            flash_graph::GraphBuilder::new(5)
                .edges([(0, 1), (2, 3)])
                .symmetric(true)
                .build()
                .unwrap(),
        );
        let out = cc(&g, GasConfig::with_workers(2).sequential()).unwrap();
        assert_eq!(out.result, vec![0, 0, 2, 2, 4]);
    }

    #[test]
    fn mis_valid() {
        for g in [
            generators::erdos_renyi(60, 150, 2),
            generators::complete(8),
            generators::star(11, true),
        ] {
            let g = Arc::new(g);
            let out = mis(&g, GasConfig::with_workers(3).sequential()).unwrap();
            let set = &out.result;
            for (s, d, _) in g.edges() {
                assert!(!(set[s as usize] && set[d as usize]));
            }
            for v in 0..g.num_vertices() {
                assert!(
                    set[v] || g.out_neighbors(v as u32).iter().any(|&t| set[t as usize]),
                    "not maximal at {v}"
                );
            }
        }
    }

    #[test]
    fn mm_valid() {
        for g in [
            generators::erdos_renyi(60, 150, 2),
            generators::path(9, true),
            generators::cycle(10, true),
        ] {
            let g = Arc::new(g);
            let out = mm(&g, GasConfig::with_workers(3).sequential()).unwrap();
            let p = &out.result;
            for (v, &m) in p.iter().enumerate() {
                if let Some(m) = m {
                    assert_eq!(p[m as usize], Some(v as u32));
                    assert!(g.has_edge(v as u32, m));
                }
            }
            for (s, d, _) in g.edges() {
                assert!(s == d || p[s as usize].is_some() || p[d as usize].is_some());
            }
        }
    }

    #[test]
    fn kcore_matches_peeling() {
        let g = Arc::new(
            flash_graph::GraphBuilder::new(6)
                .edges([
                    (0, 1),
                    (0, 2),
                    (0, 3),
                    (1, 2),
                    (1, 3),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                ])
                .symmetric(true)
                .build()
                .unwrap(),
        );
        let out = kcore(&g, GasConfig::with_workers(2).sequential()).unwrap();
        assert_eq!(out.result, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn gc_proper() {
        let g = Arc::new(generators::erdos_renyi(60, 200, 7));
        let out = gc(&g, GasConfig::with_workers(3).sequential()).unwrap();
        for (s, d, _) in g.edges() {
            assert_ne!(out.result[s as usize], out.result[d as usize]);
        }
    }

    #[test]
    fn tc_counts_triangles() {
        let out = tc(
            &Arc::new(generators::complete(6)),
            GasConfig::with_workers(2).sequential(),
        )
        .unwrap();
        assert_eq!(out.result, 20);
        let zero = tc(
            &Arc::new(generators::bipartite_complete(4, 4)),
            GasConfig::with_workers(2).sequential(),
        )
        .unwrap();
        assert_eq!(zero.result, 0);
    }

    #[test]
    fn bc_on_path_and_diamond() {
        let g = Arc::new(generators::path(5, true));
        let out = bc(&g, GasConfig::with_workers(2).sequential(), 0).unwrap();
        assert_eq!(out.result, vec![0.0, 3.0, 2.0, 1.0, 0.0]);

        let g = Arc::new(
            flash_graph::GraphBuilder::new(4)
                .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
                .symmetric(true)
                .build()
                .unwrap(),
        );
        let out = bc(&g, GasConfig::with_workers(2).sequential(), 0).unwrap();
        assert!((out.result[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lpa_separates_cliques() {
        let mut b = flash_graph::GraphBuilder::new(10).symmetric(true);
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                b = b.edge(i, j).edge(i + 5, j + 5);
            }
        }
        let g = Arc::new(b.edge(4, 5).build().unwrap());
        let out = lpa(&g, GasConfig::with_workers(2).sequential(), 20).unwrap();
        assert_ne!(out.result[0], out.result[9]);
    }
}
