//! Cross-engine agreement: FLASH, Pregel, GAS and Ligra must compute the
//! same answers on the same graphs — the precondition for every relative
//! performance claim in the paper's evaluation.

use flash_baselines::gas::{self, GasConfig};
use flash_baselines::ligra;
use flash_baselines::pregel::{self, PregelConfig};
use flash_bench::harness::RunResult;
use flash_graph::generators;
use flash_runtime::ClusterConfig;
use std::sync::Arc;

fn graphs() -> Vec<(&'static str, Arc<flash_graph::Graph>)> {
    vec![
        ("er", Arc::new(generators::erdos_renyi(120, 360, 11))),
        (
            "rmat",
            Arc::new(generators::rmat(7, 6, Default::default(), 5)),
        ),
        ("grid", Arc::new(generators::grid2d(10, 10))),
        ("ws", Arc::new(generators::watts_strogatz(90, 4, 0.2, 2))),
    ]
}

#[test]
fn bfs_agrees_across_engines() {
    for (name, g) in graphs() {
        let flash = flash_algos::bfs::run(&g, ClusterConfig::with_workers(3).sequential(), 0)
            .unwrap()
            .result;
        let pregel = pregel::algos::bfs(&g, PregelConfig::with_workers(3).sequential(), 0)
            .unwrap()
            .result;
        let gas = gas::algos::bfs(&g, GasConfig::with_workers(3).sequential(), 0)
            .unwrap()
            .result;
        let lig = ligra::algos::bfs(&g, 0).result;
        assert_eq!(flash, pregel, "{name}: flash vs pregel");
        assert_eq!(flash, gas, "{name}: flash vs gas");
        assert_eq!(flash, lig, "{name}: flash vs ligra");
    }
}

#[test]
fn cc_agrees_across_engines() {
    for (name, g) in graphs() {
        let expect = flash_algos::reference::cc_labels(&g);
        let flash = flash_algos::cc::run(&g, ClusterConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        let opt = flash_algos::cc_opt::run(&g, ClusterConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        let pregel = pregel::algos::cc(&g, PregelConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        let gas = gas::algos::cc(&g, GasConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        let lig = ligra::algos::cc(&g).result;
        assert_eq!(flash, expect, "{name}: flash");
        assert_eq!(
            flash_algos::reference::canonicalize(&opt),
            expect,
            "{name}: flash-opt"
        );
        assert_eq!(pregel, expect, "{name}: pregel");
        assert_eq!(gas, expect, "{name}: gas");
        assert_eq!(lig, expect, "{name}: ligra");
    }
}

#[test]
fn tc_agrees_across_engines() {
    for (name, g) in graphs() {
        let expect = flash_algos::reference::triangle_count(&g);
        let flash = flash_algos::tc::run(&g, ClusterConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        let pregel = pregel::algos::tc(&g, PregelConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        let gas = gas::algos::tc(&g, GasConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        let lig = ligra::algos::tc(&g).result;
        assert_eq!(flash, expect, "{name}: flash");
        assert_eq!(pregel, expect, "{name}: pregel");
        assert_eq!(gas, expect, "{name}: gas");
        assert_eq!(lig, expect, "{name}: ligra");
    }
}

#[test]
fn kcore_agrees_across_engines() {
    for (name, g) in graphs() {
        let expect = flash_algos::reference::kcore_numbers(&g);
        let flash = flash_algos::kcore::run(&g, ClusterConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        let flash_opt =
            flash_algos::kcore_opt::run(&g, ClusterConfig::with_workers(3).sequential())
                .unwrap()
                .result;
        let pregel = pregel::algos::kcore(&g, PregelConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        let gas = gas::algos::kcore(&g, GasConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        let lig = ligra::algos::kcore(&g).result;
        assert_eq!(flash, expect, "{name}: flash");
        assert_eq!(flash_opt, expect, "{name}: flash-opt");
        assert_eq!(pregel, expect, "{name}: pregel");
        assert_eq!(gas, expect, "{name}: gas");
        assert_eq!(lig, expect, "{name}: ligra");
    }
}

#[test]
fn bc_agrees_across_engines() {
    for (name, g) in graphs() {
        let (_, expect) = flash_algos::reference::brandes_single_source(&g, 0);
        let close = |got: &[f64], tag: &str| {
            for (v, (&a, &b)) in got.iter().zip(&expect).enumerate() {
                let a = if v == 0 { 0.0 } else { a };
                assert!((a - b).abs() < 1e-7, "{name}/{tag} vertex {v}: {a} vs {b}");
            }
        };
        close(
            &flash_algos::bc::run(&g, ClusterConfig::with_workers(3).sequential(), 0)
                .unwrap()
                .result,
            "flash",
        );
        close(
            &pregel::algos::bc(&g, PregelConfig::with_workers(3).sequential(), 0)
                .unwrap()
                .result,
            "pregel",
        );
        close(
            &gas::algos::bc(&g, GasConfig::with_workers(3).sequential(), 0)
                .unwrap()
                .result,
            "gas",
        );
        close(&ligra::algos::bc(&g, 0).result, "ligra");
    }
}

#[test]
fn mis_and_mm_are_valid_everywhere() {
    use flash_algos::reference::{is_maximal_independent_set, is_maximal_matching};
    for (name, g) in graphs() {
        let cfg = || ClusterConfig::with_workers(3).sequential();
        let f_mis = flash_algos::mis::run(&g, cfg()).unwrap().result;
        assert!(is_maximal_independent_set(&g, &f_mis), "{name}: flash mis");
        let p_mis = pregel::algos::mis(&g, PregelConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        assert!(is_maximal_independent_set(&g, &p_mis), "{name}: pregel mis");
        let g_mis = gas::algos::mis(&g, GasConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        assert!(is_maximal_independent_set(&g, &g_mis), "{name}: gas mis");
        let l_mis = ligra::algos::mis(&g).result;
        assert!(is_maximal_independent_set(&g, &l_mis), "{name}: ligra mis");

        let f_mm = flash_algos::mm::run(&g, cfg()).unwrap().result.partner;
        assert!(is_maximal_matching(&g, &f_mm), "{name}: flash mm");
        let o_mm = flash_algos::mm_opt::run(&g, cfg()).unwrap().result.partner;
        assert!(is_maximal_matching(&g, &o_mm), "{name}: flash mm-opt");
        let p_mm = pregel::algos::mm(&g, PregelConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        assert!(is_maximal_matching(&g, &p_mm), "{name}: pregel mm");
        let g_mm = gas::algos::mm(&g, GasConfig::with_workers(3).sequential())
            .unwrap()
            .result;
        assert!(is_maximal_matching(&g, &g_mm), "{name}: gas mm");
        let l_mm = ligra::algos::mm(&g).result;
        assert!(is_maximal_matching(&g, &l_mm), "{name}: ligra mm");
    }
}

#[test]
fn pagerank_flash_matches_pregel() {
    let g = Arc::new(generators::rmat(8, 6, Default::default(), 3));
    let flash = flash_algos::pagerank::run(&g, ClusterConfig::with_workers(3).sequential(), 12)
        .unwrap()
        .result;
    let pregel = pregel::algos::pagerank(&g, PregelConfig::with_workers(3).sequential(), 12)
        .unwrap()
        .result;
    for v in 0..g.num_vertices() {
        assert!((flash[v] - pregel[v]).abs() < 1e-10, "vertex {v}");
    }
}

#[test]
fn scc_flash_matches_pregel_and_tarjan() {
    use flash_algos::reference::{canonicalize, tarjan_scc};
    let g = Arc::new(
        flash_graph::GraphBuilder::new(30)
            .edges((0..29u32).map(|i| (i, i + 1)))
            .edges([(29, 0), (5, 2), (20, 10)])
            .build()
            .unwrap(),
    );
    let expect = tarjan_scc(&g);
    let flash = flash_algos::scc::run(&g, ClusterConfig::with_workers(3).sequential())
        .unwrap()
        .result;
    let pregel = pregel::algos::scc(&g, PregelConfig::with_workers(3).sequential())
        .unwrap()
        .result;
    assert_eq!(canonicalize(&flash), expect);
    assert_eq!(canonicalize(&pregel), expect);
}

#[test]
fn msf_flash_matches_pregel_weight() {
    let g = generators::erdos_renyi(80, 200, 7);
    let g = Arc::new(generators::with_random_weights(&g, 0.0, 1.0, 9));
    let flash = flash_algos::msf::run(&g, ClusterConfig::with_workers(3).sequential())
        .unwrap()
        .result;
    let pregel = pregel::algos::msf(&g, PregelConfig::with_workers(3).sequential()).unwrap();
    let (p_edges, p_total) = pregel.result;
    assert_eq!(flash.edges.len(), p_edges.len());
    assert!((flash.total_weight - p_total).abs() < 1e-4);
}

#[test]
fn expressiveness_gaps_match_table_i() {
    // The harness reports every ∅ cell of Table I as unsupported ...
    let g = Arc::new(generators::erdos_renyi(40, 160, 3));
    for (f, app) in flash_bench::lloc::inexpressible() {
        let r = flash_bench::harness::run(f, app, &g, 2);
        let cell = format!("{} {}", f.name(), app.abbr());
        assert!(matches!(r, RunResult::Unsupported), "{cell}: {r:?}");
    }
    // ... while FLASH runs them outright.
    let rc = flash_algos::rc::run(&g, ClusterConfig::with_workers(2).sequential()).unwrap();
    assert_eq!(rc.result, flash_algos::reference::rectangle_count(&g));
    let lpa = flash_algos::lpa::run(&g, ClusterConfig::with_workers(2).sequential(), 6).unwrap();
    assert_eq!(lpa.result.len(), 40);
}
