//! The algorithm catalogue: one row per FLASH algorithm the `flash` CLI
//! runs, in the order `flash --help` lists them. A row is everything the
//! rest of the crate knows about an algorithm — its name, its Table I
//! label and source, whether it needs edge weights, its Table II plan and
//! how to run it and summarize the answer. The CLI ([`crate::cli`]), the
//! evaluation matrix ([`crate::harness`]), Table I ([`crate::lloc`]) and
//! the catalogue sweep of the integration tests all read this table.

use flash_algos::common::MatchingResult;
use flash_algos::AlgoOutput;
use flash_graph::hash::Fnv1a;
use flash_graph::Graph;
use flash_runtime::plan::ProgramPlan;
use flash_runtime::{ClusterConfig, RunStats, RuntimeError};
use std::fmt::Write as _;
use std::sync::Arc;

/// The per-run arguments some algorithms take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Root vertex of the rooted algorithms (BFS, BC, SSSP).
    pub root: u32,
    /// Iterations of the iterative ones (LPA, PageRank).
    pub iters: usize,
    /// Clique size of CL.
    pub k: usize,
}

/// A finished run: the answer's one-line summary, which ends with
/// ` [digest 0x…]`, and the execution statistics.
pub type Answer = Result<(String, RunStats), RuntimeError>;

/// Runs an algorithm on a graph under a cluster configuration.
pub type Runner = fn(&Arc<Graph>, ClusterConfig, Params) -> Answer;

/// One catalogue row.
pub struct Algo {
    /// The CLI name (`--algo`).
    pub name: &'static str,
    /// The `flash_algos` module that implements it, which is also the key
    /// of the `FLASH-ALGORITHM-BEGIN/END` markers around its core.
    pub module: &'static str,
    /// The module's source, embedded at compile time.
    pub source: &'static str,
    /// Its Table I row label, for the 16 algorithms the paper counts.
    pub label: Option<&'static str>,
    /// Whether it reads edge weights (and so runs on a weighted graph).
    pub weighted: bool,
    /// The module's Table II plan.
    pub plan: fn() -> ProgramPlan,
    /// Runs it; the summary ends with the answer's digest.
    pub run: Runner,
}

/// Finds the row named `name`.
pub fn find(name: &str) -> Option<&'static Algo> {
    CATALOGUE.iter().find(|a| a.name == name)
}

/// `line`, which describes the answer, with the FNV-1a of the whole
/// result's `Debug` rendering appended (a float's `Debug` form round-trips
/// its bits), so comparing two summaries compares the two answers.
fn answered<T: std::fmt::Debug>(line: String, out: AlgoOutput<T>) -> Answer {
    struct Hasher(Fnv1a);
    impl std::fmt::Write for Hasher {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.update(s.as_bytes());
            Ok(())
        }
    }
    let mut h = Hasher(Fnv1a::new());
    write!(h, "{:?}", out.result).expect("hashing never fails");
    Ok((format!("{line} [digest {:#018x}]", h.0.finish()), out.stats))
}

/// The number of distinct labels.
fn distinct(labels: &[u32]) -> usize {
    let mut labels = labels.to_vec();
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

/// MM-basic's and MM-opt's summary.
fn matched(out: AlgoOutput<MatchingResult>) -> Answer {
    let pairs = out.result.partner.iter().filter(|p| p.is_some()).count() / 2;
    let rounds = out.result.frontier_per_round.len();
    answered(format!("{pairs} matched pairs over {rounds} rounds"), out)
}

/// k-core's summary, basic or optimized.
fn max_core(out: AlgoOutput<Vec<u32>>) -> Answer {
    let max = out.result.iter().max().copied().unwrap_or(0);
    answered(format!("max core number {max}"), out)
}

/// The unweighted row `name`, implemented by `flash_algos::$module`.
macro_rules! algo {
    ($name:literal, $module:ident, $label:expr, $run:expr) => {
        Algo {
            name: $name,
            module: stringify!($module),
            source: include_str!(concat!("../../algos/src/", stringify!($module), ".rs")),
            label: $label,
            weighted: false,
            plan: flash_algos::$module::plan,
            run: $run,
        }
    };
}

/// Every algorithm the CLI runs, in `flash --help` order.
pub static CATALOGUE: [Algo; 19] = [
    algo!("bfs", bfs, Some("BFS"), |g, cfg, p| {
        let out = flash_algos::bfs::run(g, cfg, p.root)?;
        let reached = out.result.iter().filter(|&&d| d != u32::MAX);
        let ecc = reached.clone().max().copied();
        let line = format!("reached {} vertices; eccentricity {ecc:?}", reached.count());
        answered(line, out)
    }),
    algo!("cc", cc, Some("CC-basic"), |g, cfg, _| {
        let out = flash_algos::cc::run(g, cfg)?;
        let n = distinct(&out.result);
        answered(format!("{n} connected components"), out)
    }),
    algo!("cc-opt", cc_opt, Some("CC-opt"), |g, cfg, _| {
        let out = flash_algos::cc_opt::run(g, cfg)?;
        let n = distinct(&out.result);
        answered(format!("{n} connected components"), out)
    }),
    algo!("bc", bc, Some("BC"), |g, cfg, p| {
        let out = flash_algos::bc::run(g, cfg, p.root)?;
        let scores = out.result.iter().enumerate();
        let others = scores.filter(|&(v, _)| v as u32 != p.root);
        let best = others
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(v, s)| (v, *s));
        answered(format!("max dependency: {best:?}"), out)
    }),
    algo!("mis", mis, Some("MIS"), |g, cfg, _| {
        let out = flash_algos::mis::run(g, cfg)?;
        let size = out.result.iter().filter(|&&b| b).count();
        answered(format!("independent set of {size} vertices"), out)
    }),
    algo!("mm", mm, Some("MM-basic"), |g, cfg, _| {
        matched(flash_algos::mm::run(g, cfg)?)
    }),
    algo!("mm-opt", mm_opt, Some("MM-opt"), |g, cfg, _| {
        matched(flash_algos::mm_opt::run(g, cfg)?)
    }),
    algo!("kcore", kcore, Some("KC"), |g, cfg, _| {
        max_core(flash_algos::kcore::run(g, cfg)?)
    }),
    algo!("kcore-opt", kcore_opt, None, |g, cfg, _| {
        max_core(flash_algos::kcore_opt::run(g, cfg)?)
    }),
    algo!("tc", tc, Some("TC"), |g, cfg, _| {
        let out = flash_algos::tc::run(g, cfg)?;
        answered(format!("{} triangles", out.result), out)
    }),
    algo!("gc", gc, Some("GC"), |g, cfg, _| {
        let out = flash_algos::gc::run(g, cfg)?;
        let colors = out.result.iter().max().map_or(0, |&c| c + 1);
        answered(format!("proper coloring with {colors} colors"), out)
    }),
    algo!("scc", scc, Some("SCC"), |g, cfg, _| {
        let out = flash_algos::scc::run(g, cfg)?;
        let n = distinct(&out.result);
        answered(format!("{n} strongly connected components"), out)
    }),
    algo!("bcc", bcc, Some("BCC"), |g, cfg, _| {
        let out = flash_algos::bcc::run(g, cfg)?;
        let tree = out.result.parent.iter().zip(&out.result.label);
        let labels: Vec<u32> = tree.filter(|(p, _)| p.is_some()).map(|(_, &l)| l).collect();
        answered(format!("{} biconnected components", distinct(&labels)), out)
    }),
    algo!("lpa", lpa, Some("LPA"), |g, cfg, p| {
        let out = flash_algos::lpa::run(g, cfg, p.iters)?;
        answered(format!("{} communities", distinct(&out.result)), out)
    }),
    Algo {
        weighted: true,
        ..algo!("msf", msf, Some("MSF"), |g, cfg, _| {
            let out = flash_algos::msf::run(g, cfg)?;
            let (edges, w) = (out.result.edges.len(), out.result.total_weight);
            answered(format!("forest of {edges} edges, total weight {w:.3}"), out)
        })
    },
    algo!("rc", rc, Some("RC"), |g, cfg, _| {
        let out = flash_algos::rc::run(g, cfg)?;
        answered(format!("{} rectangles", out.result), out)
    }),
    algo!("cl", clique, Some("CL"), |g, cfg, p| {
        let out = flash_algos::clique::run(g, cfg, p.k)?;
        answered(format!("{} {}-cliques", out.result, p.k), out)
    }),
    Algo {
        weighted: true,
        ..algo!("sssp", sssp, None, |g, cfg, p| {
            let out = flash_algos::sssp::run(g, cfg, p.root)?;
            let reached = out.result.iter().filter(|d| d.is_finite()).count();
            answered(format!("reached {reached} vertices"), out)
        })
    },
    algo!("pagerank", pagerank, None, |g, cfg, p| {
        let out = flash_algos::pagerank::run(g, cfg, p.iters)?;
        let ranks = out.result.iter().enumerate();
        let top = ranks
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(v, r)| (v, *r));
        answered(format!("top vertex by rank: {top:?}"), out)
    }),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_plan_is_valid() {
        for a in &CATALOGUE {
            let valid = (a.plan)().validate();
            valid.unwrap_or_else(|e| panic!("{}: {e:?}", a.name));
        }
    }

    #[test]
    fn names_are_unique_and_found() {
        for a in &CATALOGUE {
            assert!(std::ptr::eq(find(a.name).unwrap(), a), "{}", a.name);
        }
        assert!(find("nosuch").is_none());
    }
}
