//! `fig_scale` — the out-of-core scaling figure (DESIGN.md §13).
//!
//! Exercises the block storage engine end to end: every graph is
//! serialized to the on-disk block format, reopened through the block
//! reader (memory-mapped where the platform allows), and run under
//! `--storage block`, so `EDGEMAP`s stream edge blocks instead of
//! walking the heap CSR. Two claims are under test:
//!
//! * **bit-identity** — block-engine runs reproduce the in-memory
//!   engine's result summary, superstep count, and message bytes
//!   exactly, across the whole algorithm catalogue;
//! * **scaling** — BFS / CC / PageRank complete on generated graphs of
//!   10⁶ → 10⁷⁺ arcs, reporting bytes streamed, block cache hits, and
//!   the peak resident vertex-state footprint per run.
//!
//! A third, in-memory table measures the pull kernel per arc: PageRank on
//! one sequential worker over `rmat(12..=18)`, its `EDGEMAPDENSE` compute
//! time in ns per arc, and the compute of all its steps next to the wall
//! of the serial `reference::pagerank` loop, which does the same work
//! (the ratio compares these two). A flat ns/arc across the rungs is
//! per-arc instruction cost; one that rises with n is cache misses.
//! Nothing in it is gated.
//!
//! ```text
//! fig_scale [--smoke] [--workers N]
//! ```
//!
//! `--smoke` (the CI entry point) runs the catalogue identity sweep on a
//! multi-block web graph, the three scaling algorithms on a ~10⁶-arc
//! R-MAT graph, and the pull ladder up to `rmat(14)`. The full run climbs to ≥10⁷-edge graphs; setting
//! `FLASH_SCALE_XL=1` adds a ~10⁸-arc rung. Writes `results/scale.json`
//! (override dir with `FLASH_RESULTS_DIR`).

use flash_algos::{pagerank, reference};
use flash_bench::catalogue::CATALOGUE;
use flash_bench::cli::{dispatch, prepare_storage, CliOptions};
use flash_bench::jsonio;
use flash_bench::report::render_table;
use flash_graph::generators::{rmat, web_graph, with_random_weights, RmatParams};
use flash_graph::Graph;
use flash_obs::Json;
use flash_runtime::{ClusterConfig, StepKind, StorageMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The algorithms of the scaling ladder (the paper's three canonical
/// traversal / propagation / iteration representatives).
const SCALE_ALGOS: [&str; 3] = ["bfs", "cc", "pagerank"];

fn base_opts(algo: &str, workers: usize) -> CliOptions {
    CliOptions {
        algo: algo.to_string(),
        config: ClusterConfig::with_workers(workers),
        iters: 3,
        // `dispatch` takes the graph explicitly; the dataset field is
        // only used for loading, which this binary bypasses.
        dataset: Some(flash_graph::Dataset::Orkut),
        ..CliOptions::default()
    }
}

/// Runs one algorithm on one graph under both engines and checks the
/// block run reproduces the in-memory run bit-exactly. Returns the
/// failure description, if any, plus the block run's record.
fn identity_probe(
    algo: &str,
    workers: usize,
    mem_graph: &Arc<Graph>,
    blk_graph: &Arc<Graph>,
) -> Result<Json, String> {
    let mem_opts = base_opts(algo, workers);
    let mut blk_opts = mem_opts.clone();
    blk_opts.config.storage = StorageMode::Block;
    let (mem_summary, mem_stats) =
        dispatch(&mem_opts, mem_graph).map_err(|e| format!("{algo} (mem): {e}"))?;
    let (blk_summary, blk_stats) =
        dispatch(&blk_opts, blk_graph).map_err(|e| format!("{algo} (block): {e}"))?;
    if mem_summary != blk_summary {
        return Err(format!(
            "{algo}: summaries diverge — mem {mem_summary:?} vs block {blk_summary:?}"
        ));
    }
    if mem_stats.num_supersteps() != blk_stats.num_supersteps() {
        return Err(format!(
            "{algo}: supersteps diverge — mem {} vs block {}",
            mem_stats.num_supersteps(),
            blk_stats.num_supersteps()
        ));
    }
    if mem_stats.total_bytes() != blk_stats.total_bytes() {
        return Err(format!(
            "{algo}: total_bytes diverge — mem {} vs block {}",
            mem_stats.total_bytes(),
            blk_stats.total_bytes()
        ));
    }
    // Some catalogue members (rc, cl, msf) drive custom or two-hop edge
    // sets, which are not streamable — they fall back to the in-memory
    // kernels and legitimately stream zero bytes. Identity is what the
    // sweep enforces; the record keeps the streamed volume observable.
    Ok(Json::object()
        .set("algo", algo)
        .set("identical", true)
        .set("streamed", blk_stats.bytes_streamed() > 0)
        .set("summary", blk_summary.as_str())
        .set("supersteps", blk_stats.num_supersteps())
        .set("total_bytes", blk_stats.total_bytes())
        .set("bytes_streamed", blk_stats.bytes_streamed())
        .set("blocks_streamed", blk_stats.blocks_streamed())
        .set("cache_hits", blk_stats.block_cache_hits()))
}

/// One rung's output: table rows, json rows, failures.
type RungOutput = (Vec<(String, Vec<String>)>, Vec<Json>, Vec<String>);

/// Runs the three scaling algorithms on one block-backed graph.
fn scale_rung(label: &str, workers: usize, blk_graph: &Arc<Graph>) -> RungOutput {
    let (mut rows, mut json_rows, mut broken) = (Vec::new(), Vec::new(), Vec::new());
    for algo in SCALE_ALGOS {
        let mut opts = base_opts(algo, workers);
        opts.config.storage = StorageMode::Block;
        opts.iters = 5;
        let (summary, stats) = match dispatch(&opts, blk_graph) {
            Ok(r) => r,
            Err(e) => {
                broken.push(format!("{label}/{algo}: {e}"));
                continue;
            }
        };
        if stats.bytes_streamed() == 0 {
            broken.push(format!("{label}/{algo}: streamed zero bytes"));
        }
        let storage = &stats.storage;
        rows.push((
            format!("{label}/{algo}"),
            vec![
                stats.num_supersteps().to_string(),
                stats.bytes_streamed().to_string(),
                stats.blocks_streamed().to_string(),
                stats.block_cache_hits().to_string(),
                storage.resident_state_bytes.to_string(),
                format!("{:.3}", stats.simulated_parallel_time().as_secs_f64()),
            ],
        ));
        json_rows.push(
            Json::object()
                .set("dataset", label)
                .set("algo", algo)
                .set("vertices", blk_graph.num_vertices())
                .set("arcs", blk_graph.num_edges())
                .set("summary", summary.as_str())
                .set("supersteps", stats.num_supersteps())
                .set("total_bytes", stats.total_bytes())
                .set(
                    "simulated_parallel_time",
                    stats.simulated_parallel_time().as_secs_f64(),
                )
                .set("storage", storage.to_json())
                .set("bytes_streamed", stats.bytes_streamed())
                .set("blocks_streamed", stats.blocks_streamed())
                .set("cache_hits", stats.block_cache_hits()),
        );
    }
    (rows, json_rows, broken)
}

/// PageRank iterations per run of the pull ladder (the benchmark's count).
const PULL_ITERS: usize = 10;

/// One rung of the pull ladder, in ns per arc: `(pull, compute,
/// reference)` for PageRank on `g`, each the best of three runs taken
/// alternately. FLASH runs one sequential worker in memory; `pull` is its
/// `EDGEMAPDENSE` compute alone, `compute` that of every step (the
/// dangling fold, both vertex maps and the pull), which is the work the
/// reference's wall covers: its dangling scan, per-iteration `next` vector
/// and push scatter.
fn pull_rung(g: &Arc<Graph>) -> Result<(f64, f64, f64), String> {
    let arcs = (g.num_edges() * PULL_ITERS) as f64;
    let ns_per_arc = |d: Duration| d.as_secs_f64() * 1e9 / arcs;
    let (mut pull, mut compute, mut serial) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let cfg = ClusterConfig::with_workers(1).sequential();
        let out = pagerank::run(g, cfg, PULL_ITERS).map_err(|e| e.to_string())?;
        let steps = out.stats.steps();
        let dense = steps.iter().filter(|s| s.kind == StepKind::EdgeMapDense);
        pull = pull.min(ns_per_arc(dense.map(|s| s.compute).sum()));
        compute = compute.min(ns_per_arc(steps.iter().map(|s| s.compute).sum()));
        let t = Instant::now();
        std::hint::black_box(reference::pagerank(g, PULL_ITERS));
        serial = serial.min(ns_per_arc(t.elapsed()));
    }
    Ok((pull, compute, serial))
}

/// Converts a generated graph to block storage once, so the rung's three
/// algorithm runs share the mapping instead of re-serializing it.
fn to_blocks(g: &Arc<Graph>, workers: usize) -> Result<Arc<Graph>, String> {
    let mut opts = base_opts("bfs", workers);
    opts.config.storage = StorageMode::Block;
    prepare_storage(&opts, g)
}

fn main() {
    let mut smoke = false;
    let mut workers = 4usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--workers" => {
                workers = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--workers needs an integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: fig_scale [--smoke] [--workers N]");
                std::process::exit(2);
            }
        }
    }

    let mut broken: Vec<String> = Vec::new();

    // ---- Catalogue identity sweep -------------------------------------
    // A web graph wide enough to span several 4096-vertex blocks, so the
    // streamed kernels cross real block boundaries.
    let idn = if smoke { 6_000 } else { 20_000 };
    println!(
        "Catalogue identity sweep: {} algorithms, web graph n={idn}\n",
        CATALOGUE.len()
    );
    let idg = Arc::new(web_graph(idn, 8, 24, 11));
    let idg_w = Arc::new(with_random_weights(&idg, 0.1, 2.0, 4));
    let idg_blk = to_blocks(&idg, workers).expect("block conversion");
    let idg_w_blk = to_blocks(&idg_w, workers).expect("block conversion (weighted)");
    let mut identity_rows = Vec::new();
    for row in &CATALOGUE {
        let algo = row.name;
        let (mem_g, blk_g) = if row.weighted {
            (&idg_w, &idg_w_blk)
        } else {
            (&idg, &idg_blk)
        };
        match identity_probe(algo, workers, mem_g, blk_g) {
            Ok(j) => {
                println!("  {algo:<10} ok");
                identity_rows.push(j);
            }
            Err(e) => {
                println!("  {algo:<10} FAIL");
                broken.push(e);
            }
        }
    }

    // ---- Scaling ladder -----------------------------------------------
    let mut rows = Vec::new();
    let mut scale_rows = Vec::new();
    let mut ladder: Vec<(String, Arc<Graph>)> = Vec::new();
    // ~10⁶ arcs, every mode: the smoke-size scaling rung.
    ladder.push((
        "rmat16".to_string(),
        Arc::new(rmat(16, 8, RmatParams::default(), 7)),
    ));
    if !smoke {
        // ~4M arcs and the ≥10⁷-arc rungs of the acceptance criterion.
        ladder.push((
            "rmat18".to_string(),
            Arc::new(rmat(18, 8, RmatParams::default(), 7)),
        ));
        ladder.push((
            "rmat20".to_string(),
            Arc::new(rmat(20, 16, RmatParams::default(), 7)),
        ));
        ladder.push((
            "web2m".to_string(),
            Arc::new(web_graph(2_000_000, 12, 512, 13)),
        ));
        if std::env::var("FLASH_SCALE_XL").as_deref() == Ok("1") {
            // ~10⁸ arcs; opt-in because generation alone takes minutes.
            ladder.push((
                "rmat23".to_string(),
                Arc::new(rmat(23, 16, RmatParams::default(), 7)),
            ));
        }
    }
    for (label, g) in &ladder {
        println!(
            "\nScaling rung {label}: {} vertices, {} arcs",
            g.num_vertices(),
            g.num_edges()
        );
        let blk = match to_blocks(g, workers) {
            Ok(b) => b,
            Err(e) => {
                broken.push(format!("{label}: {e}"));
                continue;
            }
        };
        let (r, j, b) = scale_rung(label, workers, &blk);
        rows.extend(r);
        scale_rows.extend(j);
        broken.extend(b);
    }

    println!(
        "\n{}",
        render_table(
            &[
                "Run",
                "steps",
                "streamed B",
                "blocks",
                "hits",
                "resident B",
                "sim time s",
            ],
            &rows
        )
    );

    // ---- Pull ladder ----------------------------------------------------
    let top = if smoke { 14 } else { 18 };
    let (mut pull_rows, mut pull_json) = (Vec::new(), Vec::new());
    for scale in 12..=top {
        let label = format!("rmat{scale}");
        let g = Arc::new(rmat(scale, 8, RmatParams::default(), 7));
        match pull_rung(&g) {
            Ok((pull, compute, serial)) => {
                pull_rows.push((
                    label.clone(),
                    vec![
                        g.num_edges().to_string(),
                        format!("{pull:.2}"),
                        format!("{compute:.2}"),
                        format!("{serial:.2}"),
                        format!("{:.2}", compute / serial),
                    ],
                ));
                pull_json.push(
                    Json::object()
                        .set("dataset", label.as_str())
                        .set("arcs", g.num_edges())
                        .set("iters", PULL_ITERS)
                        .set("pull_ns_per_arc", pull)
                        .set("compute_ns_per_arc", compute)
                        .set("reference_ns_per_arc", serial)
                        .set("ratio", compute / serial),
                );
            }
            Err(e) => broken.push(format!("{label} pull: {e}")),
        }
    }
    println!(
        "\nPageRank per arc (1 worker, sequential, {PULL_ITERS} iterations, best of 3; \
         ratio = compute / reference)\n{}",
        render_table(
            &[
                "Graph",
                "arcs",
                "pull ns/arc",
                "compute ns/arc",
                "reference ns/arc",
                "ratio"
            ],
            &pull_rows
        )
    );

    let doc = Json::object()
        .set("report", "fig_scale")
        .set("smoke", smoke)
        .set("workers", workers as u64)
        .set("identity", Json::Arr(identity_rows))
        .set("scaling", Json::Arr(scale_rows))
        .set("pull_per_arc", Json::Arr(pull_json));
    jsonio::save(&jsonio::results_dir(), "scale", &doc);

    if !broken.is_empty() {
        eprintln!("\nfig_scale: {} failure(s):", broken.len());
        for b in &broken {
            eprintln!("  {b}");
        }
        std::process::exit(1);
    }
    println!("\nfig_scale: block engine bit-identical; scaling ladder complete");
}
