//! `fig_serve` — the snapshot-isolated serving experiment.
//!
//! Drives the serving workload (DESIGN.md §16): `N` concurrent
//! sessions answer a seeded BFS/SSSP/PageRank/CC query mix over one
//! frozen snapshot while a mutator streams edge insert/delete batches
//! into a delta overlay, incrementally repairing maintained CC
//! (bit-identical to a full recompute) and PageRank (within its
//! documented tolerance bound). Every concurrent answer is checksummed
//! against a solo baseline — snapshot isolation means they must match
//! bit for bit.
//!
//! ```text
//! fig_serve [--smoke] [--sessions N] [--queries N] [--batches N]
//!           [--workers N] [--scale N] [--seed N]
//! ```
//!
//! `--smoke` runs the reduced CI configuration. Writes
//! `results/serve.json` (override dir with `FLASH_RESULTS_DIR`).

use flash_bench::jsonio;
use flash_bench::report::render_table;
use flash_bench::serve::{run_serve, ServeOptions};

fn main() {
    let mut opts = ServeOptions::full();
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    let usage = "usage: fig_serve [--smoke] [--sessions N] [--queries N] [--batches N] \
                 [--workers N] [--scale N] [--seed N]";
    let num = |it: &mut dyn Iterator<Item = String>, flag: &str| -> usize {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs an integer");
            std::process::exit(2);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                smoke = true;
                opts = ServeOptions::smoke();
            }
            "--sessions" => opts.sessions = num(&mut it, "--sessions"),
            "--queries" => opts.queries_per_session = num(&mut it, "--queries"),
            "--batches" => opts.update_batches = num(&mut it, "--batches"),
            "--workers" => opts.workers = num(&mut it, "--workers"),
            "--scale" => opts.scale = num(&mut it, "--scale") as u32,
            "--seed" => opts.seed = num(&mut it, "--seed") as u64,
            other => {
                eprintln!("unknown argument {other:?}\n{usage}");
                std::process::exit(2);
            }
        }
    }

    println!(
        "Serving experiment — {} session(s) x {} queries + {} update batches on rmat scale {}{}\n",
        opts.sessions,
        opts.queries_per_session,
        opts.update_batches,
        opts.scale,
        if smoke { " (smoke)" } else { "" }
    );

    let report = match run_serve(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve run failed: {e}");
            std::process::exit(1);
        }
    };

    let latency = &report.stats.latency;
    let pct = |p: u64| {
        latency
            .percentile(p)
            .map_or_else(|| "-".to_string(), |v| v.to_string())
    };
    let rows: Vec<(String, Vec<String>)> = vec![
        ("queries".to_string(), vec![report.queries.to_string()]),
        (
            "update batches".to_string(),
            vec![report.updates.to_string()],
        ),
        (
            "edges +/-".to_string(),
            vec![format!("+{} -{}", report.inserted, report.removed)],
        ),
        (
            "query p50/p90/p99 (us)".to_string(),
            vec![format!("{} / {} / {}", pct(50), pct(90), pct(99))],
        ),
        (
            "cc repair".to_string(),
            vec![format!(
                "{} vertices re-labeled, bit-identical",
                report.cc_repaired
            )],
        ),
        (
            "pagerank repair".to_string(),
            vec![format!(
                "{} sweeps, L1 {:.3e} <= bound {:.3e}",
                report.pr_sweeps, report.pr_l1, report.pr_bound
            )],
        ),
        (
            "buffer pool".to_string(),
            vec![format!(
                "{} checkouts, {} reuses",
                report.pool.0, report.pool.1
            )],
        ),
        (
            "wall".to_string(),
            vec![format!("{:.3}s", report.wall_seconds)],
        ),
    ];
    println!("{}", render_table(&["metric", "value"], &rows));

    jsonio::save(&jsonio::results_dir(), "serve", &report.to_json());

    if !report.ok() {
        eprintln!("\nFAILURES:");
        for f in &report.failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!(
        "\nall {} concurrent answers bit-identical to solo baselines; incremental CC \
         bit-identical; PageRank within documented bound",
        report.queries
    );
}
