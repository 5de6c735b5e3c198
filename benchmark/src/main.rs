//! Benchmark harness for the FLASH reproduction; see `benchmark/README.md`.
//!
//! `--workload W` measures one workload in this process. Without it every
//! workload runs in a fresh child process (so `VmHWM` is per workload), and
//! `--aa` does that twice and compares the two passes.

mod batch;
mod layers;
mod serve;
mod span;
mod util;

use batch::Batch;
use layers::Layers;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 6] = [
    "pr_rmat",
    "pr_block",
    "cc_push",
    "bfs_road",
    "kcore_ckpt",
    "serve_mix",
];

/// `(name, unit, bound)`: the share by which a metric may get worse before a
/// change counts as a regression. Mirrors `BENCHMARK.json`.
const END_TO_END: [(&str, &str, f64); 7] = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.2),
    ("wire_bytes", "B", 0.1),
    ("op_p50_ms", "ms", 0.25),
    ("op_p95_ms", "ms", 0.25),
];

pub struct Params {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    out_dir: PathBuf,
}

impl Params {
    /// This process's scratch directory (block file, checkpoint stores),
    /// inside the checkout and removed when the workload ends.
    pub fn tmp_dir(&self) -> PathBuf {
        self.out_dir
            .join(format!("tmp-{}-{}", self.workload, std::process::id()))
    }
}

pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub wire_bytes: f64,
    pub op_p50_ms: f64,
    pub op_p95_ms: f64,
}

/// What one workload run produced: end-to-end metrics from an untraced run,
/// or layers and spans from a traced one, never both.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub rep_spread_frac: f64,
    pub end_to_end: Option<EndToEnd>,
    pub layers: Option<Layers>,
    pub spans: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload {}] [--seed N] [--seconds N] [--trace [0|1]] [--aa]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut p = Params {
        workload: String::new(),
        seed: 12,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut aa = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let parsed = match arg.as_str() {
            "--workload" => args.next().map(|v| p.workload = v).ok_or(()),
            "--out" => args.next().map(|v| p.out_dir = v.into()).ok_or(()),
            "--seed" => args
                .next()
                .and_then(|v| v.parse().ok())
                .map(|v| p.seed = v)
                .ok_or(()),
            "--seconds" => args
                .next()
                .and_then(|v| v.parse().ok())
                .map(|v| p.seconds = v)
                .ok_or(()),
            "--trace" => {
                // `--trace` alone means on; the driver passes `--trace 0|1`.
                p.trace = args.next_if(|v| v == "0").is_none();
                args.next_if(|v| v == "1");
                Ok(())
            }
            "--aa" => {
                aa = true;
                Ok(())
            }
            _ => Err(()),
        };
        if parsed.is_err() {
            return usage();
        }
    }
    if p.workload.is_empty() {
        return all_workloads(&p, aa);
    }
    if aa {
        return usage();
    }

    let result = match p.workload.as_str() {
        "pr_rmat" => batch::run(Batch::PrRmat, &p),
        "pr_block" => batch::run(Batch::PrBlock, &p),
        "cc_push" => batch::run(Batch::CcPush, &p),
        "bfs_road" => batch::run(Batch::BfsRoad, &p),
        "kcore_ckpt" => batch::run(Batch::KcoreCkpt, &p),
        "serve_mix" => serve::run(&p),
        _ => return usage(),
    };
    // `serve_mix` never creates its scratch directory.
    let _ = std::fs::remove_dir_all(p.tmp_dir());
    let outcome = result.unwrap_or_else(|e| Outcome {
        // An `Err` from the program: nothing was measured.
        attempted: 1,
        failures: vec![e],
        rep_spread_frac: 0.0,
        end_to_end: None,
        layers: None,
        spans: None,
    });
    report(&p, &outcome)
}

/// Prints every metric by name with its unit, then the result object the
/// driver reads from the last line.
fn report(p: &Params, o: &Outcome) -> ExitCode {
    let w = &p.workload;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(e) = &o.end_to_end {
        let values = [
            e.setup_s,
            e.wall_s,
            e.cpu_s,
            e.peak_rss_mb,
            e.wire_bytes,
            e.op_p50_ms,
            e.op_p95_ms,
        ];
        metrics.extend(
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u, _), v)| (n, v, u)),
        );
    }
    if let Some(l) = &o.layers {
        metrics.extend(l.iter().map(|(n, v)| (n, v, layers::unit(n))));
    }
    for f in &o.failures {
        eprintln!("{w}: FAILED: {f}");
    }
    println!(
        "# {w} seed={} seconds={} trace={}",
        p.seed,
        p.seconds,
        u8::from(p.trace)
    );
    for (name, value, unit) in &metrics {
        println!("{w}/{name} {value} {unit}");
    }
    let failed = o.failures.len() as u64;
    println!("{w}/ops_total {} count", o.attempted);
    println!("{w}/ops_failed {failed} count");
    if o.layers.is_none() {
        println!("{w}/bench.rep_spread_frac {} frac", o.rep_spread_frac);
    }

    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    if let Some(spans) = &o.spans {
        let path = p.out_dir.join(format!("{w}.trace.json"));
        let doc = format!(
            "{{\"workload\": \"{w}\", \"seed\": {}, \"layers\": {{{body}}}, \"spans\": {spans}}}\n",
            p.seed
        );
        std::fs::create_dir_all(&p.out_dir).expect("create out directory");
        std::fs::write(&path, doc).expect("write trace file");
        println!("# trace written to {}", path.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0,
        o.attempted
    );
    ExitCode::from(u8::from(failed > 0))
}

/// `workload/metric -> value` lines of one child process.
type Lines = BTreeMap<String, f64>;

/// Runs every workload, each in a fresh child, echoing its output.
fn one_pass(p: &Params, trace: bool) -> Result<Lines, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut lines = Lines::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--trace", if trace { "1" } else { "0" }])
            .args(["--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()])
            .arg("--out")
            .arg(&p.out_dir)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        if !out.status.success() {
            return Err(format!("{w} failed ({})", out.status));
        }
        for line in text.lines().filter(|l| l.starts_with(w)) {
            let mut parts = line.split_whitespace();
            if let (Some(name), Some(Ok(v))) = (parts.next(), parts.next().map(str::parse)) {
                lines.insert(name.to_string(), v);
            }
        }
    }
    Ok(lines)
}

fn all_workloads(p: &Params, aa: bool) -> ExitCode {
    let pass = |trace| {
        one_pass(p, trace).map_err(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        })
    };
    if !aa {
        return pass(p.trace).map_or_else(|code| code, |_| ExitCode::SUCCESS);
    }
    // A/A: the same code twice, untraced for the end-to-end metrics and
    // traced for the exact per-layer counters.
    let mut passes = Vec::new();
    for _ in 0..2 {
        let (Ok(untraced), Ok(mut lines)) = (pass(false), pass(true)) else {
            return ExitCode::FAILURE;
        };
        // Both print `bench.rep_spread_frac`; the untraced one describes the
        // reps the end-to-end metrics came from.
        lines.extend(untraced);
        passes.push(lines);
    }
    let (a, b) = (&passes[0], &passes[1]);
    let mut bad = 0;
    println!("# A/A: workload/metric first second rel_diff bound");
    for w in WORKLOADS {
        for (name, _, bound) in END_TO_END {
            let key = format!("{w}/{name}");
            let (x, y) = (a[&key], b[&key]);
            let rel = (y - x).abs() / x.min(y);
            let verdict = if rel > bound { "DISAGREE" } else { "ok" };
            bad += u32::from(rel > bound);
            println!("{key} {x} {y} {rel:.4} {bound} {verdict}");
        }
        let key = format!("{w}/bench.rep_spread_frac");
        println!("{key} {} {}", a[&key], b[&key]);
    }
    let recorded = std::fs::read_to_string(p.out_dir.with_file_name("exact_seed12.txt"))
        .ok()
        .filter(|_| p.seed == 12);
    let recorded: Lines = recorded
        .iter()
        .flat_map(|text| text.lines())
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect();
    for (key, x) in a.iter().filter(|(k, _)| is_exact(k)) {
        for (other, what) in [(b, "the second pass"), (&recorded, "exact_seed12.txt")] {
            if let Some(y) = other.get(key).filter(|&y| y != x) {
                println!("{key} {x} but {y} in {what}: EXACT COUNTER MOVED");
                bad += 1;
            }
        }
    }
    println!("# A/A: {bad} disagreement(s)");
    ExitCode::from(u8::from(bad > 0))
}

/// Counters that must repeat exactly for one seed, across reps and processes.
fn is_exact(key: &str) -> bool {
    let name = key.split_once('/').map_or(key, |(_, n)| n);
    name == "wire_bytes" || layers::EXACT.contains(&name)
}
