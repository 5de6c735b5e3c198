//! `flash` — the command-line runner for the FLASH reproduction.
//!
//! ```text
//! flash --algo cc --dataset US --workers 4
//! flash --algo tc --input my_edges.txt --symmetric --mode pull
//! flash --algo bfs --dataset TW --json --trace bfs.jsonl
//! flash serve --sessions 4 --queries 64 --batches 16
//! ```
//!
//! See `flash --help` for every flag; datasets are the Table III
//! stand-ins (set `FLASH_SCALE=small` for the reduced variants).
//! `--json` prints the full machine-readable run document on stdout;
//! `--trace` streams per-superstep events (see DESIGN.md "Observability").
//!
//! The `serve` subcommand runs the snapshot-isolated serving workload
//! (DESIGN.md §16): concurrent sessions over one frozen snapshot plus a
//! streaming update plane with incremental repair. See `flash serve
//! --help`.

use flash_bench::cli::{dispatch, load_graph, parse_args, run_json};
use flash_bench::serve::{run_serve, ServeOptions};
use std::time::Instant;

/// Parses and runs `flash serve ...`, printing the serving JSON document
/// on stdout. Exits non-zero if any bit-identity or tolerance check
/// fails.
fn serve_main(args: impl Iterator<Item = String>) -> ! {
    let usage = "usage: flash serve [--smoke] [--sessions N] [--queries N] [--batches N]\n\
                 \x20      [--batch-size N] [--workers N] [--scale N] [--seed N]";
    let mut opts = ServeOptions::full();
    let mut it = args;
    let num = |it: &mut dyn Iterator<Item = String>, flag: &str| -> usize {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs an integer");
            std::process::exit(2);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => opts = ServeOptions::smoke(),
            "--sessions" => opts.sessions = num(&mut it, "--sessions"),
            "--queries" => opts.queries_per_session = num(&mut it, "--queries"),
            "--batches" => opts.update_batches = num(&mut it, "--batches"),
            "--batch-size" => opts.batch_size = num(&mut it, "--batch-size"),
            "--workers" => opts.workers = num(&mut it, "--workers"),
            "--scale" => opts.scale = num(&mut it, "--scale") as u32,
            "--seed" => opts.seed = num(&mut it, "--seed") as u64,
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other:?}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    match run_serve(&opts) {
        Ok(report) => {
            println!("{}", report.to_json().to_pretty_string());
            if report.ok() {
                std::process::exit(0);
            }
            for f in &report.failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        serve_main(args);
    }
    let opts = match parse_args(args) {
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
            opts.workers
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
