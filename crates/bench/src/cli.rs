//! Argument parsing and dispatch for the `flash` command-line runner.
//!
//! ```text
//! flash --algo bfs --dataset OR --workers 4 [--root 0]
//! flash --algo cc  --input graph.txt --symmetric
//! flash --algo tc  --dataset TW --mode pull
//! ```
//!
//! Kept dependency-free (hand-rolled parsing) per the workspace's crate
//! policy.

use crate::harness::Scale;
use flash_graph::io::{read_edge_list, ReadOptions};
use flash_graph::{Dataset, Graph};
use flash_obs::Json;
use flash_runtime::{ClusterConfig, FaultPlan, ModePolicy, NetworkModel, StorageMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Algorithm name (lowercase, e.g. "bfs").
    pub algo: String,
    /// Table III dataset abbreviation, when used.
    pub dataset: Option<Dataset>,
    /// Edge-list file path, when used.
    pub input: Option<String>,
    /// Symmetrize a file input.
    pub symmetric: bool,
    /// Worker count.
    pub workers: usize,
    /// Kernel policy.
    pub mode: ModePolicy,
    /// Root vertex for rooted algorithms.
    pub root: u32,
    /// Iterations for iterative algorithms (LPA, PageRank).
    pub iters: usize,
    /// Clique size for CL.
    pub k: usize,
    /// Attach the simulated 10 GbE model.
    pub simulate_network: bool,
    /// Print the run summary as JSON (stats + result digest) on stdout.
    pub json: bool,
    /// Stream superstep trace events: `-` for stderr JSON lines, `text`
    /// for human-readable stderr lines, else a file path for JSON lines.
    pub trace: Option<String>,
    /// Deterministic fault plan (`--faults crash@3:w1,corrupt@5:w0`).
    pub faults: Option<FaultPlan>,
    /// Checkpoint interval in supersteps (`0` = default when faults are on).
    pub checkpoint_every: usize,
    /// Explicitly disable checkpointing (`--checkpoint-every off`), even
    /// when a fault plan would normally force it on.
    pub checkpoint_off: bool,
    /// Render per-phase percentile histograms, folded from the run's
    /// supersteps, in the stats JSON (`--metrics`). Never changes results.
    pub metrics: bool,
    /// Storage engine (`--storage mem|block`): the in-memory default, or
    /// the out-of-core block engine (the graph is converted to a block
    /// file and `EDGEMAP`s stream edge blocks; results are bit-identical).
    pub storage: StorageMode,
    /// Durable checkpoint store directory (`--durable-dir DIR`): every
    /// checkpoint is committed to disk through a crash-consistent
    /// two-phase commit. `None` keeps the store fully inert.
    pub durable_dir: Option<String>,
    /// Resume from the durable store (`--resume`): re-execute the killed
    /// run bit-identically and verify it against the newest valid
    /// generation's digest. Requires `--durable-dir`.
    pub resume: bool,
    /// Scripted cold-restart kill switch (`--halt-after N`): durable
    /// persistence freezes at superstep `N` and the run reports a clean
    /// `Halted` error, simulating a whole-process kill. Requires
    /// `--durable-dir`.
    pub halt_after: Option<u64>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            algo: String::new(),
            dataset: None,
            input: None,
            symmetric: false,
            workers: 4,
            mode: ModePolicy::Adaptive,
            root: 0,
            iters: 10,
            k: 4,
            simulate_network: false,
            json: false,
            trace: None,
            faults: None,
            checkpoint_every: 0,
            checkpoint_off: false,
            metrics: false,
            storage: StorageMode::default(),
            durable_dir: None,
            resume: false,
            halt_after: None,
        }
    }
}

/// The algorithms the CLI can dispatch.
pub const ALGOS: [&str; 19] = [
    "bfs",
    "cc",
    "cc-opt",
    "bc",
    "mis",
    "mm",
    "mm-opt",
    "kcore",
    "kcore-opt",
    "tc",
    "gc",
    "scc",
    "bcc",
    "lpa",
    "msf",
    "rc",
    "cl",
    "sssp",
    "pagerank",
];

/// Parses CLI arguments (without the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut it = args.into_iter();
    let value_of = |flag: &str, it: &mut dyn Iterator<Item = String>| -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algo" | "-a" => opts.algo = value_of(&arg, &mut it)?.to_lowercase(),
            "--dataset" | "-d" => {
                let v = value_of(&arg, &mut it)?;
                opts.dataset =
                    Some(Dataset::from_abbr(&v).ok_or_else(|| format!("unknown dataset {v:?}"))?);
            }
            "--input" | "-i" => opts.input = Some(value_of(&arg, &mut it)?),
            "--symmetric" => opts.symmetric = true,
            "--workers" | "-w" => {
                opts.workers = value_of(&arg, &mut it)?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
            }
            "--mode" | "-m" => {
                opts.mode = match value_of(&arg, &mut it)?.as_str() {
                    "auto" | "adaptive" => ModePolicy::Adaptive,
                    "push" | "sparse" => ModePolicy::ForceSparse,
                    "pull" | "dense" => ModePolicy::ForceDense,
                    other => return Err(format!("unknown mode {other:?}")),
                };
            }
            "--root" | "-r" => {
                opts.root = value_of(&arg, &mut it)?
                    .parse()
                    .map_err(|_| "--root needs a vertex id".to_string())?;
            }
            "--iters" => {
                opts.iters = value_of(&arg, &mut it)?
                    .parse()
                    .map_err(|_| "--iters needs an integer".to_string())?;
            }
            "--k" => {
                opts.k = value_of(&arg, &mut it)?
                    .parse()
                    .map_err(|_| "--k needs an integer".to_string())?;
            }
            "--simulate-network" => opts.simulate_network = true,
            "--json" => opts.json = true,
            "--metrics" => opts.metrics = true,
            "--trace" => opts.trace = Some(value_of(&arg, &mut it)?),
            "--faults" => {
                let v = value_of(&arg, &mut it)?;
                opts.faults = Some(FaultPlan::parse(&v).map_err(|e| format!("--faults: {e}"))?);
            }
            "--checkpoint-every" => {
                let v = value_of(&arg, &mut it)?;
                if v == "off" {
                    opts.checkpoint_off = true;
                    opts.checkpoint_every = 0;
                } else {
                    let n: usize = v.parse().map_err(|_| {
                        "--checkpoint-every needs an interval in supersteps, or `off`".to_string()
                    })?;
                    if n == 0 {
                        return Err("--checkpoint-every 0 is ambiguous (fault plans force \
                             checkpointing back on); say `--checkpoint-every off` to \
                             disable checkpointing explicitly"
                            .to_string());
                    }
                    opts.checkpoint_every = n;
                    opts.checkpoint_off = false;
                }
            }
            "--storage" => {
                opts.storage = match value_of(&arg, &mut it)?.as_str() {
                    "mem" | "memory" | "in-memory" => StorageMode::InMemory,
                    "block" | "blocks" => StorageMode::Block,
                    other => return Err(format!("unknown storage mode {other:?}")),
                };
            }
            "--durable-dir" => opts.durable_dir = Some(value_of(&arg, &mut it)?),
            "--resume" => opts.resume = true,
            "--halt-after" => {
                opts.halt_after = Some(
                    value_of(&arg, &mut it)?
                        .parse()
                        .map_err(|_| "--halt-after needs a superstep number".to_string())?,
                );
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if opts.algo.is_empty() {
        return Err(format!("--algo is required\n{}", usage()));
    }
    if !ALGOS.contains(&opts.algo.as_str()) {
        return Err(format!(
            "unknown algorithm {:?}; available: {}",
            opts.algo,
            ALGOS.join(", ")
        ));
    }
    if opts.dataset.is_none() && opts.input.is_none() {
        return Err("one of --dataset or --input is required".to_string());
    }
    if opts.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if opts.durable_dir.is_none() && (opts.resume || opts.halt_after.is_some()) {
        return Err("--resume and --halt-after require --durable-dir".to_string());
    }
    Ok(opts)
}

/// The usage string.
pub fn usage() -> String {
    format!(
        "usage: flash --algo <name> (--dataset <OR|TW|US|EU|UK|SK> | --input <edges.txt>)\n\
         \x20      [--workers N] [--mode auto|push|pull] [--root V]\n\
         \x20      [--iters N] [--k N] [--symmetric] [--simulate-network]\n\
         \x20      [--json] [--metrics] [--trace <file|-|text>]\n\
         \x20      [--faults <plan>] [--checkpoint-every N|off]\n\
         \x20      [--storage mem|block] [--durable-dir DIR] [--resume]\n\
         \x20      [--halt-after N]\n\
         fault plans: comma-separated crash@STEP:wW[:xN], corrupt@STEP:wW[:xN],\n\
         \x20            straggle@STEP:wW:DELAY, die@STEP:wW, rejoin@STEP:wW,\n\
         \x20            drop@STEP:wW[:xN], dup@STEP:wW, reorder@STEP:wW,\n\
         \x20            leader@STEP (crash the elected coordinator),\n\
         \x20            lie@STEP:wW (byzantine checksum mismatch),\n\
         \x20            ioerr@STEP (failed checkpoint commit), torn@STEP[:bB],\n\
         \x20            bitrot@STEP[:bB] (damaged generation; durable store)\n\
         \x20            plus retries=N, backoff=D, cap=D, detector=D, seed=N,\n\
         \x20            loss=P, dupRate=P, corruptRate=P options\n\
         \x20            (e.g. --faults drop@3:w1,loss=0.05,retries=4)\n\
         subcommands: serve — snapshot-isolated serving workload\n\
         \x20            (flash serve [--smoke] [--sessions N] [--queries N]\n\
         \x20             [--batches N] [--batch-size N] [--workers N]\n\
         \x20             [--scale N] [--seed N])\n\
         algorithms: {}",
        ALGOS.join(", ")
    )
}

/// Loads the graph an options set refers to.
pub fn load_graph(opts: &CliOptions) -> Result<Arc<Graph>, String> {
    if let Some(d) = opts.dataset {
        return Ok(Arc::new(Scale::from_env().load(d)));
    }
    let path = opts.input.as_ref().expect("validated by parse_args");
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    let g = read_edge_list(
        file,
        ReadOptions {
            symmetric: opts.symmetric,
            dedup: true,
            drop_self_loops: true,
        },
    )
    .map_err(|e| format!("cannot parse {path:?}: {e}"))?;
    Ok(Arc::new(g))
}

/// Builds the cluster configuration an options set describes (including
/// the `--trace` sink, when one was requested).
pub fn cluster_config(opts: &CliOptions) -> ClusterConfig {
    let mut cfg = ClusterConfig::with_workers(opts.workers)
        .mode(opts.mode)
        .storage(opts.storage);
    if opts.simulate_network {
        cfg = cfg.network(NetworkModel::ten_gbe());
    }
    if opts.checkpoint_every > 0 {
        cfg = cfg.checkpoint_every(opts.checkpoint_every);
    }
    if let Some(plan) = &opts.faults {
        cfg = cfg.faults(plan.clone());
    }
    if opts.checkpoint_off {
        cfg = cfg.checkpoint_off();
    }
    if let Some(dir) = &opts.durable_dir {
        cfg = cfg.durable_dir(dir.clone());
        if opts.resume {
            cfg = cfg.resume();
        }
        if let Some(n) = opts.halt_after {
            cfg = cfg.halt_after(n);
        }
    }
    if opts.metrics {
        cfg = cfg.metrics();
    }
    match trace_sink(opts) {
        Ok(Some(sink)) => cfg = cfg.sink(sink),
        Ok(None) => {}
        Err(e) => eprintln!("warning: {e}"),
    }
    cfg
}

/// Builds the sink `--trace` describes: `-` streams JSON lines to stderr,
/// `text` streams human-readable lines to stderr, anything else is a file
/// path receiving JSON lines.
pub fn trace_sink(opts: &CliOptions) -> Result<Option<Arc<dyn flash_obs::Sink>>, String> {
    let Some(spec) = &opts.trace else {
        return Ok(None);
    };
    Ok(Some(match spec.as_str() {
        "-" => Arc::new(flash_obs::JsonLinesSink::new(std::io::stderr())),
        "text" => Arc::new(flash_obs::TextSink::new(std::io::stderr())),
        path => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
            Arc::new(flash_obs::JsonLinesSink::new(file))
        }
    }))
}

/// The `--json` document for one finished run: the options echo, the
/// result digest, and the full per-superstep statistics.
pub fn run_json(opts: &CliOptions, summary: &str, stats: &flash_runtime::RunStats) -> Json {
    Json::object()
        .set("algo", opts.algo.as_str())
        .set(
            "dataset",
            match (&opts.dataset, &opts.input) {
                (Some(d), _) => Json::from(d.abbr()),
                (None, Some(path)) => Json::from(path.as_str()),
                (None, None) => Json::Null,
            },
        )
        .set("workers", opts.workers)
        .set("mode", format!("{:?}", opts.mode))
        .set("summary", summary)
        .set("stats", stats.to_json())
}

/// Monotonic suffix for the temporary block files `prepare_storage`
/// writes, so concurrent conversions in one process never collide.
static NEXT_BLOCK_FILE: AtomicU64 = AtomicU64::new(0);

/// Materializes the requested storage engine for a loaded graph: under
/// `--storage block` the graph is serialized to a temporary block file
/// and reopened through the block reader (memory-mapped where the
/// platform allows), so the runtime streams edge blocks instead of
/// walking the heap CSR. The in-memory default passes the graph through
/// untouched, as does a graph that is already block-backed.
pub fn prepare_storage(opts: &CliOptions, g: &Arc<Graph>) -> Result<Arc<Graph>, String> {
    if opts.storage != StorageMode::Block || g.block_handle().is_some() {
        return Ok(Arc::clone(g));
    }
    let path = std::env::temp_dir().join(format!(
        "flash_blocks_{}_{}.fgb",
        std::process::id(),
        NEXT_BLOCK_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    flash_graph::write_blocks(g, &path).map_err(|e| format!("cannot write block file: {e}"))?;
    let opened = flash_graph::open_blocks(&path)
        .map_err(|e| format!("cannot open block file {}: {e}", path.display()));
    // The mapping (or the heap copy) keeps the data alive; the directory
    // entry is no longer needed either way.
    let _ = std::fs::remove_file(&path);
    Ok(Arc::new(opened?))
}

/// Runs the selected algorithm, returning a human-readable result summary
/// and the execution statistics.
pub fn dispatch(
    opts: &CliOptions,
    g: &Arc<Graph>,
) -> Result<(String, flash_runtime::RunStats), String> {
    let g = &prepare_storage(opts, g)?;
    let cfg = cluster_config(opts);
    let fail = |e: flash_runtime::RuntimeError| e.to_string();
    Ok(match opts.algo.as_str() {
        "bfs" => {
            let out = flash_algos::bfs::run(g, cfg, opts.root).map_err(fail)?;
            let reached = out.result.iter().filter(|&&d| d != u32::MAX).count();
            let ecc = out.result.iter().filter(|&&d| d != u32::MAX).max().copied();
            (
                format!("reached {reached} vertices; eccentricity {ecc:?}"),
                out.stats,
            )
        }
        "cc" | "cc-opt" => {
            let out = if opts.algo == "cc" {
                flash_algos::cc::run(g, cfg).map_err(fail)?
            } else {
                flash_algos::cc_opt::run(g, cfg).map_err(fail)?
            };
            let mut labels = out.result.clone();
            labels.sort_unstable();
            labels.dedup();
            (format!("{} connected components", labels.len()), out.stats)
        }
        "bc" => {
            let out = flash_algos::bc::run(g, cfg, opts.root).map_err(fail)?;
            let best = out
                .result
                .iter()
                .enumerate()
                .filter(|&(v, _)| v as u32 != opts.root)
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(v, s)| (v, *s));
            (format!("max dependency: {best:?}"), out.stats)
        }
        "mis" => {
            let out = flash_algos::mis::run(g, cfg).map_err(fail)?;
            let size = out.result.iter().filter(|&&b| b).count();
            (format!("independent set of {size} vertices"), out.stats)
        }
        "mm" | "mm-opt" => {
            let out = if opts.algo == "mm" {
                flash_algos::mm::run(g, cfg).map_err(fail)?
            } else {
                flash_algos::mm_opt::run(g, cfg).map_err(fail)?
            };
            let matched = out.result.partner.iter().filter(|p| p.is_some()).count();
            (
                format!(
                    "{} matched pairs over {} rounds",
                    matched / 2,
                    out.result.frontier_per_round.len()
                ),
                out.stats,
            )
        }
        "kcore" | "kcore-opt" => {
            let out = if opts.algo == "kcore" {
                flash_algos::kcore::run(g, cfg).map_err(fail)?
            } else {
                flash_algos::kcore_opt::run(g, cfg).map_err(fail)?
            };
            let max = out.result.iter().max().copied().unwrap_or(0);
            (format!("max core number {max}"), out.stats)
        }
        "tc" => {
            let out = flash_algos::tc::run(g, cfg).map_err(fail)?;
            (format!("{} triangles", out.result), out.stats)
        }
        "gc" => {
            let out = flash_algos::gc::run(g, cfg).map_err(fail)?;
            let colors = out.result.iter().max().map_or(0, |&c| c + 1);
            (format!("proper coloring with {colors} colors"), out.stats)
        }
        "scc" => {
            let out = flash_algos::scc::run(g, cfg).map_err(fail)?;
            let mut labels = out.result.clone();
            labels.sort_unstable();
            labels.dedup();
            (
                format!("{} strongly connected components", labels.len()),
                out.stats,
            )
        }
        "bcc" => {
            let out = flash_algos::bcc::run(g, cfg).map_err(fail)?;
            let labels: std::collections::HashSet<u32> = (0..g.num_vertices() as u32)
                .filter(|&v| out.result.parent[v as usize].is_some())
                .map(|v| out.result.label[v as usize])
                .collect();
            (
                format!("{} biconnected components", labels.len()),
                out.stats,
            )
        }
        "lpa" => {
            let out = flash_algos::lpa::run(g, cfg, opts.iters).map_err(fail)?;
            let mut labels = out.result.clone();
            labels.sort_unstable();
            labels.dedup();
            (format!("{} communities", labels.len()), out.stats)
        }
        "msf" => {
            let out = flash_algos::msf::run(g, cfg).map_err(fail)?;
            (
                format!(
                    "forest of {} edges, total weight {:.3}",
                    out.result.edges.len(),
                    out.result.total_weight
                ),
                out.stats,
            )
        }
        "rc" => {
            let out = flash_algos::rc::run(g, cfg).map_err(fail)?;
            (format!("{} rectangles", out.result), out.stats)
        }
        "cl" => {
            let out = flash_algos::clique::run(g, cfg, opts.k).map_err(fail)?;
            (format!("{} {}-cliques", out.result, opts.k), out.stats)
        }
        "sssp" => {
            let out = flash_algos::sssp::run(g, cfg, opts.root).map_err(fail)?;
            let reached = out.result.iter().filter(|d| d.is_finite()).count();
            (format!("reached {reached} vertices"), out.stats)
        }
        "pagerank" => {
            let out = flash_algos::pagerank::run(g, cfg, opts.iters).map_err(fail)?;
            let top = out
                .result
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(v, r)| (v, *r));
            (format!("top vertex by rank: {top:?}"), out.stats)
        }
        other => return Err(format!("unhandled algorithm {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command() {
        let o = parse_args(args(
            "--algo bfs --dataset or --workers 8 --mode pull --root 7",
        ))
        .unwrap();
        assert_eq!(o.algo, "bfs");
        assert_eq!(o.dataset, Some(Dataset::Orkut));
        assert_eq!(o.workers, 8);
        assert_eq!(o.mode, ModePolicy::ForceDense);
        assert_eq!(o.root, 7);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(args("--dataset OR")).is_err()); // no algo
        assert!(parse_args(args("--algo nosuch --dataset OR")).is_err());
        assert!(parse_args(args("--algo bfs")).is_err()); // no graph
        assert!(parse_args(args("--algo bfs --dataset ZZ")).is_err());
        assert!(parse_args(args("--algo bfs --dataset OR --workers 0")).is_err());
        assert!(parse_args(args("--algo bfs --dataset OR --workers x")).is_err());
        assert!(parse_args(args("--algo bfs --dataset OR --bogus")).is_err());
        assert!(parse_args(args("--algo bfs --dataset OR --threads 2")).is_err());
    }

    #[test]
    fn every_advertised_algorithm_dispatches() {
        let g = Arc::new(flash_graph::generators::erdos_renyi(40, 120, 3));
        let weighted = Arc::new(flash_graph::generators::with_random_weights(
            &g, 0.1, 2.0, 4,
        ));
        // Collect every failure instead of panicking on the first, so one
        // broken algorithm doesn't mask the rest of the sweep.
        let mut failures = Vec::new();
        for algo in ALGOS {
            let mut o =
                parse_args(args(&format!("--algo {algo} --dataset OR --workers 2"))).unwrap();
            o.iters = 3;
            let graph = if algo == "msf" || algo == "sssp" {
                &weighted
            } else {
                &g
            };
            match dispatch(&o, graph) {
                Ok((summary, stats)) => {
                    if summary.is_empty() {
                        failures.push(format!("{algo}: empty summary"));
                    }
                    if stats.num_supersteps() == 0 {
                        failures.push(format!("{algo}: no supersteps recorded"));
                    }
                }
                Err(e) => failures.push(format!("{algo}: {e}")),
            }
        }
        assert!(
            failures.is_empty(),
            "dispatch failures:\n{}",
            failures.join("\n")
        );
    }

    #[test]
    fn dispatch_rejects_an_unknown_algorithm_cleanly() {
        // `parse_args` guards the CLI path, but `dispatch` is a public API:
        // an unlisted name must come back as `Err`, never a panic.
        let g = Arc::new(flash_graph::generators::erdos_renyi(10, 20, 3));
        let mut o = parse_args(args("--algo bfs --dataset OR --workers 2")).unwrap();
        o.algo = "nosuch".to_string();
        let err = dispatch(&o, &g).unwrap_err();
        assert!(err.contains("nosuch"), "{err}");
    }

    #[test]
    fn parses_fault_flags() {
        let o = parse_args(args(
            "--algo bfs --dataset or --faults crash@3:w1,retries=5 --checkpoint-every 2",
        ))
        .unwrap();
        let plan = o.faults.clone().expect("plan parsed");
        assert_eq!(plan.max_retries, 5);
        assert_eq!(plan.specs.len(), 1);
        assert_eq!(o.checkpoint_every, 2);
        let cfg = cluster_config(&o);
        assert_eq!(cfg.checkpoint_every, 2);
        assert!(cfg.fault_plan.is_some());
        assert!(parse_args(args("--algo bfs --dataset or --faults garbage")).is_err());
        assert!(parse_args(args("--algo bfs --dataset or --checkpoint-every x")).is_err());
    }

    #[test]
    fn checkpoint_off_is_spelled_out_and_zero_is_rejected() {
        let e = parse_args(args("--algo bfs --dataset or --checkpoint-every 0"))
            .expect_err("bare 0 is ambiguous");
        assert!(e.contains("off"), "error must suggest the spelling: {e}");

        let o = parse_args(args(
            "--algo bfs --dataset or --faults die@1:w1 --checkpoint-every off",
        ))
        .unwrap();
        assert!(o.checkpoint_off);
        assert_eq!(o.checkpoint_every, 0);
        let cfg = cluster_config(&o);
        assert!(cfg.checkpoint_disabled, "off survives the faults force-on");
    }

    #[test]
    fn parses_membership_fault_specs() {
        let o = parse_args(args(
            "--algo bfs --dataset or --faults die@1:w1,rejoin@4:w1,detector=50ms",
        ))
        .unwrap();
        let plan = o.faults.expect("plan parsed");
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.detector_timeout, std::time::Duration::from_millis(50));
    }

    #[test]
    fn faulted_dispatch_matches_fault_free_summary() {
        let g = Arc::new(flash_graph::generators::erdos_renyi(40, 120, 3));
        let clean = parse_args(args("--algo cc --dataset OR --workers 2")).unwrap();
        let faulted = parse_args(args(
            "--algo cc --dataset OR --workers 2 --faults crash@1:w1 --checkpoint-every 1",
        ))
        .unwrap();
        let (s_clean, _) = dispatch(&clean, &g).unwrap();
        let (s_faulted, stats) = dispatch(&faulted, &g).unwrap();
        assert_eq!(s_clean, s_faulted);
        assert!(stats.recovery.rollbacks > 0);
    }

    #[test]
    fn file_input_roundtrip() {
        let guard = flash_graph::testutil::TempDirGuard::new("cli");
        let path = guard.path().join("g.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let o = parse_args(args(&format!(
            "--algo tc --input {} --symmetric --workers 2",
            path.display()
        )))
        .unwrap();
        let g = load_graph(&o).unwrap();
        let (summary, _) = dispatch(&o, &g).unwrap();
        assert_eq!(summary, "1 triangles");
    }

    #[test]
    fn parses_json_and_trace_flags() {
        let o = parse_args(args("--algo bfs --dataset or --json --trace -")).unwrap();
        assert!(o.json);
        assert_eq!(o.trace.as_deref(), Some("-"));
        let off = parse_args(args("--algo bfs --dataset or")).unwrap();
        assert!(!off.json);
        assert!(off.trace.is_none());
        assert!(trace_sink(&off).unwrap().is_none());
        assert!(trace_sink(&o).unwrap().is_some());
    }

    #[test]
    fn run_json_reports_the_stats_document() {
        let g = Arc::new(flash_graph::generators::erdos_renyi(40, 120, 3));
        let o = parse_args(args("--algo bfs --dataset OR --workers 2")).unwrap();
        let (summary, stats) = dispatch(&o, &g).unwrap();
        let j = run_json(&o, &summary, &stats);
        assert_eq!(j.get("algo").and_then(Json::as_str), Some("bfs"));
        assert_eq!(j.get("dataset").and_then(Json::as_str), Some("OR"));
        assert_eq!(j.get("workers").and_then(Json::as_u64), Some(2));
        let s = j.get("stats").expect("stats present");
        assert_eq!(
            s.get("total_bytes").and_then(Json::as_u64),
            Some(stats.total_bytes())
        );
        // The document survives the hand-rolled writer/parser round trip.
        let back = flash_obs::json::parse(&j.to_pretty_string()).unwrap();
        assert_eq!(back.get("summary").and_then(Json::as_str), Some(&*summary));
    }

    #[test]
    fn usage_mentions_flags_and_algos() {
        let u = usage();
        assert!(u.contains("--workers"));
        assert!(u.contains("bfs"));
        assert!(u.contains("cl"));
        assert!(u.contains("die@STEP:wW"));
        assert!(u.contains("rejoin@STEP:wW"));
        assert!(u.contains("detector=D"));
        assert!(u.contains("drop@STEP:wW"));
        assert!(u.contains("reorder@STEP:wW"));
        assert!(u.contains("loss=P"));
        assert!(u.contains("corruptRate=P"));
        assert!(u.contains("N|off"));
        assert!(u.contains("--metrics"));
        assert!(u.contains("leader@STEP"));
        assert!(u.contains("lie@STEP:wW"));
    }

    #[test]
    fn parses_consensus_fault_specs() {
        let o = parse_args(args("--algo bfs --dataset or --faults leader@2,lie@4:w1")).unwrap();
        let plan = o.faults.expect("plan parsed");
        assert_eq!(plan.specs.len(), 2);
        assert!(plan.has_consensus_faults());
        assert!(parse_args(args("--algo bfs --dataset or --faults leader@2:w1")).is_err());
        assert!(parse_args(args("--algo bfs --dataset or --faults lie@2")).is_err());
    }

    #[test]
    fn detector_deadline_reaches_the_config_through_the_fault_plan() {
        let o = parse_args(args(
            "--algo bfs --dataset or --faults straggle@1:w1:5ms,detector=50ms",
        ))
        .unwrap();
        let plan = cluster_config(&o).fault_plan.expect("plan wired");
        assert_eq!(plan.detector_timeout, std::time::Duration::from_millis(50));
        // The plan's option is the one knob; there is no per-run flag.
        let e = parse_args(args("--algo bfs --dataset or --detector-timeout 50ms"))
            .expect_err("no such flag");
        assert!(e.contains("unknown argument"), "{e}");
    }

    #[test]
    fn parses_storage_flag_and_wires_it_into_the_config() {
        let o = parse_args(args("--algo bfs --dataset or --storage block")).unwrap();
        assert_eq!(o.storage, StorageMode::Block);
        assert_eq!(cluster_config(&o).storage, StorageMode::Block);
        let d = parse_args(args("--algo bfs --dataset or")).unwrap();
        assert_eq!(d.storage, StorageMode::InMemory, "in-memory is the default");
        assert!(parse_args(args("--algo bfs --dataset or --storage tape")).is_err());
        assert!(usage().contains("--storage"));
    }

    #[test]
    fn block_storage_dispatch_matches_in_memory() {
        let g = Arc::new(flash_graph::generators::erdos_renyi(60, 240, 5));
        for algo in ["bfs", "cc", "pagerank"] {
            let mem = parse_args(args(&format!("--algo {algo} --dataset OR --workers 2"))).unwrap();
            let mut blk = mem.clone();
            blk.iters = 3;
            let mut mem = mem;
            mem.iters = 3;
            blk.storage = StorageMode::Block;
            let (s_mem, st_mem) = dispatch(&mem, &g).unwrap();
            let (s_blk, st_blk) = dispatch(&blk, &g).unwrap();
            assert_eq!(s_mem, s_blk, "{algo}: summaries diverge");
            assert_eq!(
                st_mem.num_supersteps(),
                st_blk.num_supersteps(),
                "{algo}: superstep counts diverge"
            );
            assert!(st_blk.bytes_streamed() > 0, "{algo}: streamed nothing");
            assert_eq!(st_mem.bytes_streamed(), 0, "{algo}: in-memory run streamed");
            assert_eq!(st_blk.storage.mode, "block");
            assert!(st_blk.storage.resident_state_bytes > 0);
        }
    }

    #[test]
    fn parses_metrics_flag_and_wires_it_into_the_config() {
        let o = parse_args(args("--algo bfs --dataset or --metrics")).unwrap();
        assert!(o.metrics);
        assert!(cluster_config(&o).metrics);
        let off = parse_args(args("--algo bfs --dataset or")).unwrap();
        assert!(!off.metrics, "metrics are opt-in");
        assert!(!cluster_config(&off).metrics);
    }
}
