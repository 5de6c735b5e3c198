//! `paper [all|table1|table3|table5|table6|fig1|verdicts|fig3|fig4a|fig4b|fig4cd|fig5|cost]…`
//! regenerates the paper's evaluation (§V); no name means `all`.
//!
//! Table I counts the logical lines of each catalogue row's FLASH source
//! next to the paper's reported competitor numbers; Table III describes
//! the dataset stand-ins at the run's scale. The evaluation matrix (Table V ∪ VI apps × six datasets × five
//! frameworks at 4 workers, each cell the fastest of [`SAMPLES`] with its
//! exact counts) runs once into `results/matrix.json`; Tables V/VI, Fig. 1
//! and the §V-B verdicts render from it. Figs. 4(b), 4(c,d) and §V-E render
//! from one worker [`sweep`], and 4(c,d)'s TC sweep is §V-E's. `cost`
//! times the PageRank pull kernel per arc against the serial reference
//! loop (DESIGN.md §11). Each section writes `results/<name>.json`. Exits
//! 1 when the count half of §V-B fails; nothing timed is checked.

use flash_algos::{pagerank, reference, AlgoOutput};
use flash_bench::harness::{run, App, Framework, RunResult, Scale, CLIQUE_K, SAMPLES};
use flash_bench::jsonio;
use flash_bench::lloc::{flash_lloc, inexpressible, PAPER_LLOC};
use flash_bench::report::{cell, format_secs, heat_glyph, render_table};
use flash_graph::generators::{rmat, RmatParams};
use flash_graph::stats::graph_stats;
use flash_graph::{Dataset, Graph};
use flash_obs::Json;
use flash_runtime::{ClusterConfig, ModePolicy, NetworkModel, RunStats, RuntimeError, StepKind};
use std::cell::{Cell, OnceCell};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers of every matrix cell and of Figs. 3 and 4(a).
const WORKERS: usize = 4;

/// A section: renders, and writes, one table or figure.
type Section = fn(&Paper);

/// The sections, in the order `all` runs them.
const SECTIONS: [(&str, Section); 12] = [
    ("table1", table1),
    ("table3", table3),
    ("table5", table5),
    ("table6", table6),
    ("fig1", fig1),
    ("verdicts", verdicts),
    ("fig3", fig3),
    ("fig4a", fig4a),
    ("fig4b", fig4b),
    ("fig4cd", fig4cd),
    ("fig5", fig5),
    ("cost", cost),
];

/// Table VI's baseline column: Pregel+ for SCC/MSF (and BCC, which the
/// Pregel port marks unsupported), PowerGraph for LPA, and none for RC/CL
/// ("none of the other frameworks provided an implementation").
const TABLE6: [(App, Option<Framework>); 6] = [
    (App::Scc, Some(Framework::PregelPlus)),
    (App::Bcc, Some(Framework::PregelPlus)),
    (App::Lpa, Some(Framework::PowerGraph)),
    (App::Msf, Some(Framework::PregelPlus)),
    (App::Rc, None),
    (App::Cl, None),
];

/// One (app, dataset) row of the matrix: a result per framework, in
/// [`Framework::ALL`] order.
struct Row {
    app: App,
    data: Dataset,
    results: [RunResult; 5],
}

impl Row {
    fn get(&self, f: Framework) -> &RunResult {
        let column = Framework::ALL.iter().position(|&g| g == f);
        &self.results[column.expect("every framework has a column")]
    }

    fn name(&self) -> String {
        format!("{} on {}", self.app.abbr(), self.data.abbr())
    }
}

/// What the sections share: the scale, the output directory, and the
/// runs more than one section renders, each made on first use.
struct Paper {
    scale: Scale,
    dir: PathBuf,
    matrix: OnceCell<Vec<Row>>,
    tc_sweep: OnceCell<Vec<(usize, RunStats)>>,
    counts_hold: Cell<bool>,
}

fn main() {
    let start = Instant::now();
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("paper: {e}");
        std::process::exit(2);
    });
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    let names = SECTIONS.map(|(name, _)| name);
    let known = |w: &&String| *w == "all" || names.contains(&w.as_str());
    if let Some(bad) = wanted.iter().find(|w| !known(w)) {
        let usage = names.join("|");
        eprintln!("paper: unknown section {bad:?}\nusage: paper [all|{usage}]…");
        std::process::exit(2);
    }
    let all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let paper = Paper {
        scale,
        dir: jsonio::results_dir(),
        matrix: OnceCell::new(),
        tc_sweep: OnceCell::new(),
        counts_hold: Cell::new(true),
    };
    for (name, section) in SECTIONS {
        if all || wanted.iter().any(|w| w == name) {
            section(&paper);
        }
    }
    println!("paper: done in {:.1} s", start.elapsed().as_secs_f64());
    if !paper.counts_hold.get() {
        eprintln!("paper: the count half of §V-B fails");
        std::process::exit(1);
    }
}

impl Paper {
    /// Prints a section's title with the scale it runs at.
    fn title(&self, title: &str) {
        println!("{title} (scale {:?})\n", self.scale);
    }

    /// Writes `<dir>/<name>.json`: `doc`, headed by its name and the scale.
    fn save(&self, name: &str, doc: Json) {
        let scale = format!("{:?}", self.scale);
        let doc = doc.set("figure", name).set("scale", scale);
        jsonio::save(&self.dir, name, &doc);
        println!();
    }

    /// The evaluation matrix: every (app, dataset, framework) cell, once,
    /// through [`run`]; written to `matrix.json` one row per (app, dataset).
    fn matrix(&self) -> &[Row] {
        self.matrix.get_or_init(|| {
            let mut rows = Vec::new();
            for data in Dataset::ALL {
                let g = Arc::new(self.scale.load(data));
                for app in App::TABLE5.into_iter().chain(App::TABLE6) {
                    let results = Framework::ALL.map(|f| run(f, app, &g, WORKERS));
                    rows.push(Row { app, data, results });
                }
            }
            let json = rows.iter().map(|r| {
                let at = Json::object().set("app", r.app.abbr());
                let at = at.set("dataset", r.data.abbr());
                let cells = r.results.iter().zip(Framework::ALL);
                cells.fold(at, |j, (x, f)| j.set(f.name(), jsonio::result_json(x)))
            });
            let doc = Json::object().set("workers", WORKERS);
            let doc = doc.set("samples", SAMPLES);
            self.save("matrix", doc.set("rows", json.collect::<Vec<_>>()));
            rows
        })
    }

    /// TC on TW over 1, 2, 4 and 8 workers under the 10 GbE model: Fig.
    /// 4(c)'s sweep, and §V-E's.
    fn tc_sweep(&self) -> &[(usize, RunStats)] {
        self.tc_sweep.get_or_init(|| {
            let tw = Arc::new(self.scale.load(Dataset::Twitter));
            let tc = |cfg| flash_algos::tc::run(&tw, cfg);
            sweep(&[1, 2, 4, 8], Some(NetworkModel::ten_gbe()), tc)
        })
    }
}

/// Table I: logical lines of code per algorithm per model. FLASH's
/// column is measured from the catalogue's sources; the competitor
/// columns are the paper's reported constants (their code is not ours to
/// count).
fn table1(p: &Paper) {
    let (text, doc) = render_table1();
    print!("{text}");
    jsonio::save(&p.dir, "table1_lloc", &doc);
    println!();
}

/// Table I as printed, which `results/table1_lloc.txt` holds, and as JSON.
fn render_table1() -> (String, Json) {
    let fmt = |v: Option<usize>| v.map_or("-".to_string(), |x| x.to_string());
    let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
    let (mut rows, mut json, mut leaner) = (Vec::new(), Vec::new(), 0);
    for (name, pregel, powerg, gemini, ligra, paper) in PAPER_LLOC {
        let ours = flash_lloc(name).expect("every Table I row has a marked core");
        leaner += usize::from(pregel.is_some_and(|p| ours < p));
        json.push(
            Json::object()
                .set("algo", name)
                .set("pregel_plus", opt(pregel))
                .set("powergraph", opt(powerg))
                .set("gemini", opt(gemini))
                .set("ligra", opt(ligra))
                .set("flash_measured", ours)
                .set("flash_paper", paper),
        );
        let mut cells = [pregel, powerg, gemini, ligra].map(fmt).to_vec();
        cells.extend([ours, paper].map(|n| n.to_string()));
        rows.push((name.to_string(), cells));
    }
    let headers = [
        "Algo.",
        "Pregel+",
        "PowerG.",
        "Gemini",
        "Ligra",
        "FLASH(ours)",
        "FLASH(paper)",
    ];
    let comparable = PAPER_LLOC.iter().filter(|r| r.1.is_some()).count();
    let text = format!(
        "Table I — Expressiveness & Productivity (LLoC, lower is better)\n\
         (competitor columns: the paper's reported values; FLASH: measured here)\n\n\
         {}\nFLASH leaner than Pregel+ in {leaner}/{comparable} comparable rows.\n",
        render_table(&headers, &rows)
    );
    let doc = Json::object()
        .set("table", "table1_lloc")
        .set("leaner_than_pregel", leaner)
        .set("comparable", comparable)
        .set("rows", json);
    (text, doc)
}

/// Table III: the dataset collection — the paper's originals next to the
/// synthetic stand-ins this run loads (see DESIGN.md §1).
fn table3(p: &Paper) {
    println!("Table III — dataset collection at scale {:?}\n", p.scale);
    let (mut rows, mut json) = (Vec::new(), Vec::new());
    for d in Dataset::ALL {
        let s = graph_stats(&p.scale.load(d));
        let (pv, pe) = d.paper_size();
        json.push(
            Json::object()
                .set("abbr", d.abbr())
                .set("name", d.name())
                .set("vertices", s.vertices)
                .set("undirected_edges", s.edges as u64 / 2)
                .set("pseudo_diameter", s.pseudo_diameter as u64)
                .set("avg_degree", s.avg_degree)
                .set("max_degree", s.max_degree as u64)
                .set("domain", d.domain().abbr())
                .set("paper_size", format!("{pv}/{pe}")),
        );
        let cells = [
            d.name().to_string(),
            s.vertices.to_string(),
            (s.edges / 2).to_string(),
            s.pseudo_diameter.to_string(),
            format!("{:.1}", s.avg_degree),
            s.max_degree.to_string(),
            d.domain().abbr().to_string(),
            format!("{pv}/{pe}"),
        ];
        rows.push((d.abbr().to_string(), cells.to_vec()));
    }
    let headers = [
        "Abbr",
        "Dataset",
        "|V|",
        "|E|(und.)",
        "Diam≈",
        "AvgDeg",
        "MaxDeg",
        "Dom",
        "Paper |V|/|E|",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("Topology classes match the paper: SN = skewed/small-diameter,");
    println!("RN = degree≈2-3/huge-diameter, WG = in between.");
    let doc = Json::object()
        .set("table", "table3_datasets")
        .set("scale", format!("{:?}", p.scale))
        .set("rows", json);
    jsonio::save(&p.dir, "table3_datasets", &doc);
    println!();
}

/// A table header: `first`, then one column per framework.
fn framework_headers(first: &'static str) -> Vec<&'static str> {
    let mut headers = vec![first];
    headers.extend(Framework::ALL.map(Framework::name));
    headers
}

fn table5(p: &Paper) {
    let m = p.matrix();
    p.title("Table V — execution time in seconds, 4 workers");
    for app in App::TABLE5 {
        let rows = m.iter().filter(|r| r.app == app);
        let rows = rows.map(|r| (r.data.abbr().into(), r.results.iter().map(cell).collect()));
        let table = render_table(&framework_headers("Data"), &rows.collect::<Vec<_>>());
        println!("## {}\n{table}", app.abbr());
    }
}

fn table6(p: &Paper) {
    let m = p.matrix();
    p.title("Table VI — execution time in seconds, 4 workers");
    for (app, baseline) in TABLE6 {
        let rows = m.iter().filter(|r| r.app == app).map(|r| {
            let base = baseline.map_or("-".into(), |f| cell(r.get(f)));
            let flash = cell(r.get(Framework::Flash));
            (r.data.abbr().into(), vec![base, flash])
        });
        let table = render_table(&["Data", "Baseline", "FLASH"], &rows.collect::<Vec<_>>());
        let name = baseline.map_or("(none)", Framework::name);
        println!("## {}  [baseline: {name}]\n{table}", app.abbr());
    }
}

/// §V-B's headline over the matrix, printed and returned as JSON: how
/// often FLASH is the fastest and within 2× of the fastest other
/// framework, and its largest speedup over one. A cell counts only when
/// FLASH and at least one other framework finished.
fn headline(m: &[Row]) -> Json {
    let (mut fastest, mut within2, mut n) = (0usize, 0usize, 0usize);
    let mut max = (0.0, String::new());
    for row in m {
        let others = row.results.iter().zip(Framework::ALL);
        let others = others.filter(|(_, f)| *f != Framework::Flash);
        let others: Vec<f64> = others.filter_map(|(r, _)| r.seconds()).collect();
        let flash = row.get(Framework::Flash).seconds();
        let (Some(fs), false) = (flash, others.is_empty()) else {
            continue;
        };
        let best = others.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = others.iter().copied().fold(0.0, f64::max);
        n += 1;
        fastest += usize::from(fs <= best);
        within2 += usize::from(fs <= 2.0 * best);
        if worst / fs > max.0 {
            max = (worst / fs, row.name());
        }
    }
    let share = |k: usize| format!("{k}/{n} ({:.1}%)", 100.0 * k as f64 / n.max(1) as f64);
    let (shown_fastest, shown_within2) = (share(fastest), share(within2));
    println!("[claim] FLASH fastest: {shown_fastest} — paper: 84.5%");
    println!("[claim] FLASH within 2x of best: {shown_within2} — paper: 95.2%");
    let (x, at) = &max;
    println!(
        "[claim] max speedup over a baseline: {x:.1}x ({at}) — paper: up to 2 orders of magnitude"
    );
    let doc = Json::object().set("flash_fastest", fastest);
    let doc = doc.set("flash_within2", within2).set("comparable", n);
    doc.set("max_speedup", max.0).set("max_speedup_cell", max.1)
}

/// Figure 1: each framework's slowdown against the fastest one, for the
/// twelve apps some other framework also runs (Table IV minus RC/CL).
fn fig1(p: &Paper) {
    let m = p.matrix();
    p.title("Figure 1 — slowdown vs the fastest framework");
    for data in Dataset::ALL {
        let shown = m.iter().filter(|r| r.data == data);
        let shown = shown.filter(|r| !matches!(r.app, App::Rc | App::Cl));
        let rows = shown.map(|row| {
            let times = row.results.iter().map(RunResult::seconds);
            let best = times.clone().flatten().fold(f64::INFINITY, f64::min);
            let glyphs = times.map(|t| heat_glyph(t.map(|s| s / best)).trim().to_string());
            (row.app.abbr().to_string(), glyphs.collect())
        });
        let table = render_table(&framework_headers("app"), &rows.collect::<Vec<_>>());
        println!("=== {} ({}) ===\n{table}", data.abbr(), data.name());
    }
    headline(m);
    println!();
}

/// The §V-B verdicts: the timed headline (reported, never checked) and
/// the count half (checked): CC-opt's round collapse on US, and no time in
/// a cell Table I marks inexpressible.
fn verdicts(p: &Paper) {
    let m = p.matrix();
    p.title("§V-B headline verdicts");
    let doc = headline(m);
    let us = Arc::new(p.scale.load(Dataset::RoadUsa));
    let cfg = ClusterConfig::with_workers(WORKERS);
    let basic = flash_algos::cc::run(&us, cfg.clone()).expect("cc");
    let opt = flash_algos::cc_opt::run(&us, cfg).expect("cc-opt");
    let rounds = flash_algos::cc_opt::rounds_of(&opt.stats);
    let basic = basic.supersteps();
    println!("[claim] CC on road-USA-sim: label propagation {basic} iterations vs star contraction {rounds} rounds — paper: 6262 vs 7");
    let mut timed = Vec::new();
    for (f, app) in inexpressible() {
        for r in m.iter().filter(|r| r.app == app) {
            if r.get(f).seconds().is_some() {
                timed.push(format!("{} {}", f.name(), r.name()));
            }
        }
    }
    println!("[claim] cells Table I marks inexpressible that returned a time: {timed:?}");
    let holds = rounds < basic && timed.is_empty();
    p.counts_hold.set(p.counts_hold.get() && holds);
    let doc = doc.set("cc_basic_supersteps", basic);
    let doc = doc.set("cc_opt_rounds", rounds).set("counts_hold", holds);
    p.save("summary_verdicts", doc.set("inexpressible_timed", timed));
}

/// Figure 3: BFS wall time under forced sparse (push), forced dense
/// (pull) and adaptive switching on TW, US and UK, with the adaptive
/// run's supersteps per kernel kind.
fn fig3(p: &Paper) {
    use ModePolicy::{Adaptive, ForceDense, ForceSparse};
    p.title("Figure 3 — BFS under push/pull/adaptive, 4 workers");
    let modes = [ForceSparse, ForceDense, Adaptive].into_iter();
    let (mut rows, mut docs) = (Vec::new(), Vec::new());
    for d in [Dataset::Twitter, Dataset::RoadUsa, Dataset::Uk2002] {
        let g = Arc::new(p.scale.load(d));
        let (mut cells, mut doc) = (Vec::new(), Json::object().set("dataset", d.abbr()));
        for (mode, name) in modes.clone().zip(["sparse", "dense", "adaptive"]) {
            let cfg = ClusterConfig::with_workers(WORKERS).mode(mode);
            let t = Instant::now();
            let stats = flash_algos::bfs::run(&g, cfg, 0).expect("bfs").stats;
            let secs = t.elapsed().as_secs_f64();
            cells.push(format_secs(secs));
            doc = doc.set(name, stats.summary_json().set("seconds", secs));
            if mode == Adaptive {
                let (v, dn, s, gl) = stats.kind_counts();
                cells.push(format!("{v}v/{dn}d/{s}s/{gl}g"));
            }
        }
        rows.push((d.abbr().to_string(), cells));
        docs.push(doc);
    }
    let headers = ["Data", "sparse", "dense", "adaptive", "adaptive v/d/s/g"];
    println!("{}", render_table(&headers, &rows));
    println!("Expected (paper): sparse beats dense on TW/UK; on US adaptive stays sparse.");
    p.save("fig3_bfs_modes", Json::object().set("rows", docs));
}

/// Figure 4(a): active vertices per iteration of MM-basic and MM-opt on
/// TW, and the wall-time speedup.
fn fig4a(p: &Paper) {
    p.title("Figure 4(a) — MM active vertices per iteration on TW");
    let g = Arc::new(p.scale.load(Dataset::Twitter));
    let cfg = ClusterConfig::with_workers(WORKERS);
    let t = Instant::now();
    let basic = flash_algos::mm::run(&g, cfg.clone()).expect("mm").result;
    let (t_basic, t) = (t.elapsed().as_secs_f64(), Instant::now());
    let opt = flash_algos::mm_opt::run(&g, cfg).expect("mm-opt").result;
    let t_opt = t.elapsed().as_secs_f64();
    let (basic, opt) = (basic.frontier_per_round, opt.frontier_per_round);
    println!("{:>5} {:>12} {:>12}", "iter", "MM-basic", "MM-opt");
    let at = |v: &[usize], i: usize| v.get(i).map_or("-".to_string(), usize::to_string);
    for i in 0..basic.len().max(opt.len()) {
        println!("{i:>5} {:>12} {:>12}", at(&basic, i), at(&opt, i));
    }
    let (b, o) = (basic.iter().sum::<usize>(), opt.iter().sum::<usize>());
    let (fewer, faster) = (b as f64 / o.max(1) as f64, t_basic / t_opt.max(1e-9));
    println!("\ntotal active vertices: basic {b}, opt {o} ({fewer:.1}x fewer)");
    println!("wall time: basic {t_basic:.3}s, opt {t_opt:.3}s ({faster:.1}x speedup; paper reports 70.1x at full soc-twitter scale)");
    let side = |s: f64, v: Vec<usize>| {
        let doc = Json::object().set("wall_seconds", s);
        doc.set("frontier_per_round", v)
    };
    let doc = Json::object().set("dataset", "TW");
    let doc = doc.set("basic", side(t_basic, basic));
    p.save("fig4a_mm_frontier", doc.set("opt", side(t_opt, opt)));
}

/// Figure 4(b): TC on TW, 4 nodes × 1..32 cores, as 4 × cores workers.
fn fig4b(p: &Paper) {
    p.title("Figure 4(b) — TC on TW, 4 nodes × workers/4 cores");
    let tw = Arc::new(p.scale.load(Dataset::Twitter));
    let tc = |cfg| flash_algos::tc::run(&tw, cfg);
    let rows = sweep(&[4, 8, 16, 32, 64, 128], None, tc);
    print_sweep(&rows, "diminishing returns past 8 cores (7.5x at 32)");
    p.save("fig4b_scaling_cores", sweep_json("TC", "TW", &rows));
}

/// Figure 4(c,d): TC on TW and CL on UK over 1..8 nodes, 10 GbE.
fn fig4cd(p: &Paper) {
    p.title("Figure 4(c,d) — inter-node scaling, simulated 10GbE");
    let uk = Arc::new(p.scale.load(Dataset::Uk2002));
    let cl = |cfg| flash_algos::clique::run(&uk, cfg, CLIQUE_K);
    let cl_rows = sweep(&[1, 2, 4, 8], Some(NetworkModel::ten_gbe()), cl);
    println!("--- TC on TW ---");
    print_sweep(p.tc_sweep(), "2.0x from 1 to 4 nodes");
    println!("--- CL(k=4) on UK ---");
    print_sweep(&cl_rows, "3.5x from 1 to 4 nodes: CL is computation-heavy");
    let both = [("TC", "TW", p.tc_sweep()), ("CL(k=4)", "UK", &cl_rows)];
    let both = both.map(|(app, data, rows)| sweep_json(app, data, rows));
    let doc = Json::object().set("experiments", both.to_vec());
    p.save("fig4cd_scaling_nodes", doc);
}

/// §V-E: the time breakdown of Fig. 4(c)'s TC sweep.
fn fig5(p: &Paper) {
    p.title("§V-E — time breakdown of TC on TW vs cluster size");
    print_sweep(p.tc_sweep(), "compute shrinks ~linearly, comm grows");
    p.save("fig5_breakdown", sweep_json("TC", "TW", p.tc_sweep()));
}

/// PageRank iterations per run of the `cost` ladder (the benchmark's count).
const PULL_ITERS: usize = 10;

/// The cost of a pulled arc: PageRank on one sequential worker over
/// `rmat(12..)`, up to `rmat14` at small scale and `rmat18` at full, in ns
/// per arc. A flat ns/arc across the rungs is per-arc instruction cost;
/// one that rises with n is cache misses. Nothing in it is checked.
fn cost(p: &Paper) {
    p.title(&format!(
        "PageRank per arc (1 worker, sequential, {PULL_ITERS} iterations, best of 3; \
         ratio = compute / reference)"
    ));
    let top = if p.scale == Scale::Small { 14 } else { 18 };
    let (mut rows, mut json) = (Vec::new(), Vec::new());
    for scale in 12..=top {
        let label = format!("rmat{scale}");
        let g = Arc::new(rmat(scale, 8, RmatParams::default(), 7));
        let (pull, compute, serial) = pull_rung(&g);
        let mut cells = vec![g.num_edges().to_string()];
        cells.extend([pull, compute, serial, compute / serial].map(|x| format!("{x:.2}")));
        rows.push((label.clone(), cells));
        json.push(
            Json::object()
                .set("dataset", label)
                .set("arcs", g.num_edges())
                .set("iters", PULL_ITERS)
                .set("pull_ns_per_arc", pull)
                .set("compute_ns_per_arc", compute)
                .set("reference_ns_per_arc", serial)
                .set("ratio", compute / serial),
        );
    }
    let headers = [
        "Graph",
        "arcs",
        "pull ns/arc",
        "compute ns/arc",
        "reference ns/arc",
        "ratio",
    ];
    println!("{}", render_table(&headers, &rows));
    p.save("cost", Json::object().set("rows", json));
}

/// One rung of the `cost` ladder, in ns per arc: `(pull, compute,
/// reference)` for PageRank on `g`, each the best of three runs taken
/// alternately. FLASH runs one sequential worker in memory; `pull` is its
/// `EDGEMAPDENSE` compute alone, `compute` that of every step (the
/// dangling fold, both vertex maps and the pull), which is the work the
/// reference's wall covers: its dangling scan, per-iteration `next` vector
/// and push scatter.
fn pull_rung(g: &Arc<Graph>) -> (f64, f64, f64) {
    let arcs = (g.num_edges() * PULL_ITERS) as f64;
    let ns_per_arc = |d: Duration| d.as_secs_f64() * 1e9 / arcs;
    let (mut pull, mut compute, mut serial) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let cfg = ClusterConfig::with_workers(1).sequential();
        let out = pagerank::run(g, cfg, PULL_ITERS).expect("pagerank");
        let steps = out.stats.steps();
        let dense = steps.iter().filter(|s| s.kind == StepKind::EdgeMapDense);
        pull = pull.min(ns_per_arc(dense.map(|s| s.compute).sum()));
        compute = compute.min(ns_per_arc(steps.iter().map(|s| s.compute).sum()));
        let t = Instant::now();
        std::hint::black_box(reference::pagerank(g, PULL_ITERS));
        serial = serial.min(ns_per_arc(t.elapsed()));
    }
    (pull, compute, serial)
}

/// One run per worker count, workers executed sequentially so each is
/// timed in isolation and the per-superstep maximum is a true BSP
/// makespan (real parallel wall time is unobservable on a single-core
/// host; DESIGN.md §1). Every scaling view renders from its rows.
fn sweep<T>(
    workers: &[usize],
    network: Option<NetworkModel>,
    run: impl Fn(ClusterConfig) -> Result<AlgoOutput<T>, RuntimeError>,
) -> Vec<(usize, RunStats)> {
    let cfg = |w| ClusterConfig::with_workers(w).sequential();
    let stats = |w| run(ClusterConfig { network, ..cfg(w) }).expect("sweep");
    workers.iter().map(|&w| (w, stats(w).stats)).collect()
}

/// A sweep's breakdown — compute makespan, communication, serialization,
/// simulated network, total, barrier skew (summed max−min worker
/// compute), speedup over the first row, compute share, bytes — then the
/// shape the paper reports.
fn print_sweep(rows: &[(usize, RunStats)], expected: &str) {
    let base = rows[0].1.simulated_parallel_time().as_secs_f64();
    let table = rows.iter().map(|(w, s)| {
        let total = s.simulated_parallel_time();
        let (comm, net) = (s.communicate_time(), s.simulated_net_time());
        let (compute, serial) = (s.parallel_compute_time(), s.serialize_time());
        let times = [compute, comm, serial, net, total, s.barrier_skew_time()];
        let [compute, .., total, _] = times.map(|d| d.as_secs_f64());
        let mut cells = times.map(|d| format_secs(d.as_secs_f64())).to_vec();
        cells.push(format!("{:.1}x", base / total));
        cells.push(format!("{:.1}%", 100.0 * compute / total));
        cells.push(s.total_bytes().to_string());
        (w.to_string(), cells)
    });
    let headers = [
        "workers", "compute", "comm", "serial", "sim-net", "total", "skew", "speedup", "comp%",
        "bytes",
    ];
    println!("{}", render_table(&headers, &table.collect::<Vec<_>>()));
    println!("Expected shape (paper): {expected}.\n");
}

/// A sweep as JSON: each run's [`RunStats::summary_json`] with its
/// worker count.
fn sweep_json(app: &str, data: &str, rows: &[(usize, RunStats)]) -> Json {
    let rows = rows
        .iter()
        .map(|(w, s)| s.summary_json().set("workers", *w));
    let doc = Json::object().set("app", app).set("dataset", data);
    doc.set("rows", rows.collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    /// The tracked Table I snapshot is what `paper table1` prints today.
    #[test]
    fn table1_matches_its_snapshot() {
        let snapshot = include_str!("../../../../results/table1_lloc.txt");
        assert_eq!(super::render_table1().0, snapshot);
    }
}
