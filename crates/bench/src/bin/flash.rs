//! `flash` — the command-line runner for the FLASH reproduction.
//!
//! ```text
//! flash --algo cc --dataset US --workers 4
//! flash --algo tc --input my_edges.txt --symmetric --mode pull
//! flash --algo bfs --dataset TW --json --trace bfs.jsonl
//! ```
//!
//! See `flash --help` for every flag; datasets are the Table III
//! stand-ins (set `FLASH_SCALE=small` for the reduced variants).
//! `--json` prints the full machine-readable run document on stdout;
//! `--trace` streams per-superstep events (see DESIGN.md "Observability").
//! The serving workload runs through the benchmark's `serve_mix`.

use flash_bench::cli::{dispatch, load_graph, parse_args, run_json};
use std::time::Instant;

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let graph = match load_graph(&opts) {
        Ok(g) => g,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    };
    if !opts.json {
        println!(
            "graph: {} vertices, {} arcs | algo: {} | workers: {}",
            graph.num_vertices(),
            graph.num_edges(),
            opts.algo,
            opts.config.workers
        );
    }

    let t = Instant::now();
    match dispatch(&opts, &graph) {
        Ok((summary, stats)) => {
            let wall = t.elapsed();
            if opts.json {
                let doc = run_json(&opts, &summary, &stats)
                    .set("wall_seconds", wall.as_secs_f64())
                    .set("vertices", graph.num_vertices())
                    .set("arcs", graph.num_edges() as u64);
                println!("{}", doc.to_pretty_string());
                return;
            }
            println!("result: {summary}");
            let (vmaps, dense, sparse, global) = stats.kind_counts();
            println!(
                "supersteps: {} ({vmaps} vmap / {dense} dense / {sparse} sparse / {global} global)",
                stats.num_supersteps()
            );
            println!(
                "traffic: {} messages, {} bytes | wall {:.3}s | simulated net {:.3}s",
                stats.total_messages(),
                stats.total_bytes(),
                wall.as_secs_f64(),
                stats.simulated_net_time().as_secs_f64()
            );
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
