//! The catalogue sweep: the one place `cargo test` runs every catalogue
//! algorithm. One scenario table ([`rows`]) names, per row, an input
//! graph, a worker count and what the row does to the run; one loop
//! ([`sweep`]) runs every algorithm's clean twin for each (input,
//! workers) pair the selected rows use, then each row against it:
//!
//! - the fault families (crash/rollback, elastic membership, lossy
//!   delivery, consensus, durable store) must reproduce the clean answer
//!   (its digest, through `dispatch`'s summary) and superstep count, with
//!   the row's evidence that the mechanism fired;
//! - the fault-free reruns (`again`, `metrics`, `serial-2`, `serial-4`,
//!   and `block`, which streams the graph through the out-of-core block
//!   engine) must also reproduce the per-superstep traffic counters;
//! - `pinned` holds the clean twin on the OR stand-in, and the bytes of
//!   its rerun at full sync, to [`PINNED`].
//!
//! Each test file runs its own rows: `fault_tolerance.rs` chaos,
//! `elastic.rs` the membership rows, `lossy_transport.rs` the channel
//! rows, `consensus.rs` the control-plane rows, `durable.rs` the store
//! rows, `hotpath.rs` the reruns and the pinned counts, `metrics.rs` the
//! metrics rerun, `storage.rs` the block rerun.

use flash_bench::catalogue::CATALOGUE;
use flash_bench::cli::{dispatch, CliOptions};
use flash_graph::testutil::TempDirGuard;
use flash_graph::{generators, Dataset, Graph};
use flash_obs::Json;
use flash_runtime::{ClusterConfig, FaultPlan, RunStats, StorageMode, SyncMode};
use std::sync::Arc;
use std::time::Duration;

/// The clean twin of every catalogue algorithm on the OR stand-in at
/// `FLASH_SCALE=small` (1 024 vertices), 4 workers, the CLI's default
/// options: `(algo, supersteps, total_bytes, full-sync total_bytes,
/// answer digest)`, in catalogue order. The default sync ships only each
/// vertex's critical part; full sync ships its whole `VertexData::bytes()`,
/// so the fourth column sees a change to a value's size that the third
/// may miss. A change
/// that moves a count on purpose re-pins it by pasting the rows the
/// failing sweep prints.
#[rustfmt::skip]
const PINNED: &[(&str, usize, u64, u64, u64)] = &[
    ("bfs", 6, 33376, 33376, 0xc203b713b6f3579c),
    ("cc", 5, 36608, 36608, 0xce58f903ae6850b7),
    ("cc-opt", 69, 1231484, 1476912, 0xce58f903ae6850b7),
    ("bc", 14, 197960, 197960, 0x5d417a64adb65b88),
    ("mis", 9, 95500, 95500, 0xd3c3bc055f14ece1),
    ("mm", 28, 340020, 340020, 0x5d7bf35bbbc6e997),
    ("mm-opt", 46, 322380, 322380, 0xec528a9ac06aa62c),
    ("kcore", 174, 515940, 515940, 0x7a7e33025b11afd5),
    ("kcore-opt", 76, 524216, 1896400, 0x7a7e33025b11afd5),
    ("tc", 5, 231500, 231500, 0x00f4c809707f4406),
    ("gc", 101, 1260904, 4482156, 0x043ae79b5b1ca961),
    ("scc", 12, 189560, 189560, 0xce58f903ae6850b7),
    ("bcc", 12, 336528, 336528, 0x70aca7c24f30a736),
    ("lpa", 41, 498696, 4872000, 0x38a9b23ab811cac4),
    ("msf", 2, 22500, 22500, 0x7a69a59c0034144e),
    ("rc", 5, 680940, 680940, 0xcfdba3235644e715),
    ("cl", 5, 151792, 151792, 0xa94c614cc1679022),
    ("sssp", 8, 73020, 73020, 0x6e14cbe8d8e3acda),
    ("pagerank", 50, 1154040, 1154040, 0x47170e45d4754ccb),
];

/// The graph a row runs on. The catalogue's weighted algorithms run on
/// its weighted copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Input {
    /// ER(48, 160, seed 11): small enough to run every fault scenario.
    Er48,
    /// ER(1500, 6000, seed 11): full-frontier steps stage more updates
    /// than the caller-lane rule keeps on the caller (540), so the
    /// post-compute round runs on the pool's lanes.
    Er1500,
    /// ER(5000, 20000, seed 11): more than the block format's 4 096-vertex
    /// block width, so its block copy is a 2×2 grid of source×destination
    /// blocks and the streamed kernels cross block boundaries.
    Er5000,
    /// The `FLASH_SCALE=small` OR stand-in, whose counts are [`PINNED`].
    Orkut,
}

impl Input {
    /// The graph and its weighted copy.
    fn load(self) -> [Arc<Graph>; 2] {
        let g = match self {
            Input::Er48 => generators::erdos_renyi(48, 160, 11),
            Input::Er1500 => generators::erdos_renyi(1500, 6000, 11),
            Input::Er5000 => generators::erdos_renyi(5_000, 20_000, 11),
            Input::Orkut => Dataset::Orkut.load_small(),
        };
        let weighted = generators::with_random_weights(&g, 0.1, 2.0, 4);
        [Arc::new(g), Arc::new(weighted)]
    }
}

/// What a row of [`rows`] does to the run.
enum Inject {
    /// The clean twin, and one rerun of it at [`SyncMode::Full`], must
    /// equal the algorithm's [`PINNED`] row.
    Pinned,
    /// No fault: one more run under the twin's configuration passed
    /// through the function, which must also reproduce the twin's
    /// per-superstep traffic counters.
    Rerun(fn(ClusterConfig) -> ClusterConfig),
    /// One run under `plan` (or `msf`'s own plan: its only compute
    /// superstep is the Kruskal gather at step 0, so membership events are
    /// scripted earlier), checkpointing every `every` supersteps.
    Plan {
        plan: &'static str,
        msf: Option<&'static str>,
        every: Option<usize>,
    },
    /// A durable run killed by `halt@k` at every `every`-step checkpoint
    /// boundary `k` in turn, each kill followed by a cold resume from the
    /// store without the spec.
    Kill { every: usize },
    /// A durable run at checkpoint cadence 1 under the disk fault `plan`,
    /// then a cold resume. The fault lands at step 1, so any schedule long
    /// enough to commit two generations has one to damage and one to
    /// fall back to.
    Disk { plan: &'static str },
}

/// One scenario of the sweep, run on every catalogue algorithm.
struct Row {
    label: &'static str,
    input: Input,
    workers: usize,
    inject: Inject,
    /// Evidence the algorithm's run compared with the clean twin (the
    /// resume, for the durable rows) must show besides being exact.
    check: fn(&str, &RunStats) -> bool,
    /// Counters, as `family.counter` paths into
    /// [`RunStats::summary_json`], that must be nonzero summed over the
    /// row's runs of the whole catalogue: a thin schedule may deny one
    /// algorithm the chance to fire a mechanism, never all of them.
    fired: &'static [&'static str],
}

fn no_check(_: &str, _: &RunStats) -> bool {
    true
}

/// Crash, corruption and straggler were injected and rolled back, replay
/// work was done from a checkpoint, and it cost simulated time. msf's
/// only compute superstep is step 0, before the first fault, so its run
/// must report all three specs unfired.
fn rolled_back(algo: &str, s: &RunStats) -> bool {
    let r = &s.recovery;
    if algo == "msf" {
        return r.faults_unfired == 3;
    }
    r.faults_injected >= 2
        && r.rollbacks >= 2
        && r.replayed_supersteps >= 1
        && r.checkpoints >= 1
        && r.overhead() > Duration::ZERO
}

/// A real membership change: `lost` permanent losses that migrated
/// state, `rejoined` rejoins, and `epochs` membership epochs, with every
/// scripted spec fired (msf's own step-0 plan included).
fn membership(s: &RunStats, lost: u64, rejoined: u64, epochs: u64) -> bool {
    let r = &s.recovery;
    (r.workers_lost, r.workers_rejoined, r.membership_epochs) == (lost, rejoined, epochs)
        && r.vertices_migrated > 0
        && r.migrated_bytes > 0
        && r.faults_unfired == 0
}

/// Every decision appended to the replicated log was committed.
fn log_intact(_: &str, s: &RunStats) -> bool {
    s.consensus.entries_appended == s.consensus.entries_committed
}

/// The store wrote nothing but generation headers.
fn headers_only(_: &str, s: &RunStats) -> bool {
    s.durability.delta_frames == 0
}

/// The scrub condemned the damaged generation and fell back.
fn fell_back(_: &str, s: &RunStats) -> bool {
    s.durability.fallbacks >= 1
}

const CONSENSUS: &[&str] = &[
    "consensus.leader_crashes",
    "consensus.elections",
    "consensus.entries_committed",
];

/// The scenario table: the pinned counts, the fault-free reruns and every
/// fault family's scripted plans. The fault rows run on [`Input::Er48`].
/// Chaos runs on 3 workers; the others on 4, since the double death leaves
/// two hosts and a lie needs three live hosts for an honest majority to
/// pin it. Scripted channel faults arm at their step and fire at the
/// first cross-host round where the target's host sends, so short
/// schedules see them too.
fn rows() -> Vec<Row> {
    let plan = |plan, every| Inject::Plan {
        plan,
        msf: None,
        every,
    };
    let elastic = |plan, msf| Inject::Plan {
        plan,
        msf: Some(msf),
        every: Some(2),
    };
    let row = |label, workers, inject, check, fired| Row {
        label,
        input: Input::Er48,
        workers,
        inject,
        check,
        fired,
    };
    let rerun = |label, input, workers, config| Row {
        input,
        ..row(label, workers, Inject::Rerun(config), no_check, &[])
    };
    let lossy = |label, text, fired| row(label, 4, plan(text, None), no_check, fired);
    let consensus = |label, text, fired| row(label, 4, plan(text, None), log_intact, fired);
    let disk = |label, plan, check, fired| row(label, 4, Inject::Disk { plan }, check, fired);
    vec![
        Row {
            input: Input::Orkut,
            ..row("pinned", 4, Inject::Pinned, no_check, &[])
        },
        // Lanes finish in any order: a rerun diverges if per-lane bucket
        // sets or batch maps are ever merged in completion order.
        rerun("again", Input::Er48, 4, |c| c),
        Row {
            check: |_, s| s.metrics,
            ..rerun("metrics", Input::Er48, 3, |c| ClusterConfig {
                metrics: true,
                ..c
            })
        },
        // The serial reference: the same phases, lane by lane on the
        // caller.
        rerun("serial-2", Input::Er1500, 2, ClusterConfig::sequential),
        rerun("serial-4", Input::Er1500, 4, ClusterConfig::sequential),
        // Out-of-core: `dispatch` writes the graph to a block file and
        // reopens it, so every stored-edge `EDGEMAP` streams blocks.
        Row {
            check: |_, s| s.storage.mode == "block",
            fired: &["storage.bytes_streamed"],
            ..rerun("block", Input::Er5000, 4, |c| ClusterConfig {
                storage: StorageMode::Block,
                ..c
            })
        },
        // Crash, corruption, straggler: rollback and replay.
        row(
            "chaos",
            3,
            plan("crash@1:w1,corrupt@3:w0,straggle@2:w0:200us", Some(2)),
            rolled_back,
            &["recovery.rollbacks"],
        ),
        // Permanent loss: repartitioning onto the survivors, and back.
        row(
            "die",
            4,
            elastic("die@1:w1,retries=1", "die@0:w1,retries=1"),
            |_, s| membership(s, 1, 0, 1),
            &["recovery.vertices_migrated"],
        ),
        row(
            "die+rejoin",
            4,
            elastic(
                "die@1:w1,rejoin@4:w1,retries=1",
                "die@0:w1,rejoin@1:w1,retries=1",
            ),
            |_, s| membership(s, 1, 1, 2),
            &["recovery.workers_rejoined"],
        ),
        row(
            "double-death",
            4,
            elastic("die@1:w1,die@3:w3,retries=1", "die@0:w1,die@0:w3,retries=1"),
            // msf's two deaths land on the same superstep: one epoch.
            |algo, s| membership(s, 2, 0, if algo == "msf" { 1 } else { 2 }),
            &["recovery.vertices_migrated"],
        ),
        // A lossy channel under ack and retransmit.
        lossy(
            "drop",
            "drop@1:w1,retries=6",
            &["delivery.batches_dropped", "delivery.retransmits"],
        ),
        lossy("dup", "dup@1:w1,retries=6", &["delivery.dedup_hits"]),
        lossy(
            "reorder",
            "reorder@1:w1,retries=6",
            &["delivery.retransmits", "delivery.dedup_hits"],
        ),
        lossy(
            "loss",
            "loss=0.05,seed=7,retries=6",
            &["delivery.batches_dropped", "delivery.retransmits"],
        ),
        lossy(
            "combined",
            "drop@1:w1,dup@2:w2,reorder@3:w0,loss=0.05,seed=7,retries=8",
            &[
                "delivery.batches_dropped",
                "delivery.retransmits",
                "delivery.dedup_hits",
            ],
        ),
        // The consensus control plane: leader crashes and lying workers.
        consensus("leader-early", "leader@0,retries=1", CONSENSUS),
        consensus("leader@1", "leader@1,retries=1", CONSENSUS),
        consensus("leader-late", "leader@3,retries=1", CONSENSUS),
        consensus("double-leader", "leader@1,leader@3,retries=1", CONSENSUS),
        consensus("lie", "lie@1:w2,retries=1", &["consensus.accusations"]),
        consensus(
            "lie+leader",
            "lie@1:w3,leader@3,retries=1",
            &["consensus.accusations", "consensus.leader_crashes"],
        ),
        // The durable store: cold restarts, failed fsyncs, damage at rest.
        row(
            "kill",
            4,
            Inject::Kill { every: 2 },
            headers_only,
            &["durability.resumed_steps"],
        ),
        disk("ioerr", "ioerr@1", no_check, &["durability.io_errors"]),
        disk("torn", "torn@1", fell_back, &["durability.fallbacks"]),
        disk(
            "bitrot",
            "bitrot@1:b64",
            fell_back,
            &["durability.fallbacks"],
        ),
    ]
}

/// The options every sweep run on `input` shares: the parallel pool, and
/// `iters` 3 on the random graphs, the CLI's default on OR.
fn sweep_opts(algo: &str, input: Input, workers: usize) -> CliOptions {
    let default = CliOptions::default();
    CliOptions {
        algo: algo.to_string(),
        config: ClusterConfig::with_workers(workers),
        iters: if input == Input::Orkut {
            default.iters
        } else {
            3
        },
        // `dispatch` takes the graph explicitly; the dataset is only
        // used for loading, which the sweep bypasses.
        dataset: Some(Dataset::Orkut),
        ..default
    }
}

/// A finished run: its summary, which ends with the digest of the whole
/// answer, and its statistics.
type Run = (String, RunStats);

/// Per-superstep `(upd_messages, upd_bytes, sync_messages, sync_bytes)`,
/// which a fault-free rerun must reproduce unit for unit.
pub fn counter_trace(stats: &RunStats) -> Vec<(u64, u64, u64, u64)> {
    stats
        .steps()
        .iter()
        .map(|s| (s.upd_messages, s.upd_bytes, s.sync_messages, s.sync_bytes))
        .collect()
}

/// Requires `got` to be the clean twin's answer in as many supersteps.
fn exact(what: &str, got: Result<Run, String>, clean: &Run) -> RunStats {
    let (summary, stats) = got.unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(summary, clean.0, "{what}: answer diverged");
    assert_eq!(
        stats.num_supersteps(),
        clean.1.num_supersteps(),
        "{what}: superstep count diverged"
    );
    stats
}

/// The run's `(supersteps, total_bytes, answer digest)`, as [`PINNED`]
/// holds them.
fn counts((summary, stats): &Run) -> (usize, u64, u64) {
    let digest = summary
        .rsplit_once("[digest 0x")
        .and_then(|(_, d)| u64::from_str_radix(d.strip_suffix(']')?, 16).ok())
        .expect("the summary ends with its digest");
    (stats.num_supersteps(), stats.total_bytes(), digest)
}

/// Runs `row` on `algo` and returns the stats of every run that finished.
/// Each must be exact; the runs the row is about (the faulted run, or the
/// resumes of the durable rows) must also pass [`Row::check`].
fn sweep_row(row: &Row, algo: &str, g: &Arc<Graph>, clean: &Run) -> Vec<RunStats> {
    let what = format!("{algo} [{}]", row.label);
    let parse = |text| FaultPlan::parse(text).expect("scripted plan parses");
    let checked = |what: &str, s: RunStats| {
        let evidence = (&s.recovery, &s.delivery, &s.consensus, &s.durability);
        assert!(
            (row.check)(algo, &s),
            "{what}: evidence missing: {evidence:?}"
        );
        s
    };
    let mut base = sweep_opts(algo, row.input, row.workers);
    match row.inject {
        // [`sweep`] compares the counts, collecting every moved row.
        Inject::Pinned => {
            base.config.sync_mode = SyncMode::Full;
            vec![exact(&what, dispatch(&base, g), clean)]
        }
        Inject::Rerun(config) => {
            base.config = config(base.config);
            let stats = checked(&what, exact(&what, dispatch(&base, g), clean));
            assert_eq!(
                counter_trace(&stats),
                counter_trace(&clean.1),
                "{what}: upd/sync counters diverged"
            );
            vec![stats]
        }
        Inject::Plan { plan, msf, every } => {
            let plan = msf.filter(|_| algo == "msf").unwrap_or(plan);
            base.config.fault_plan = Some(parse(plan));
            base.config.checkpoint_every = every;
            vec![checked(&what, exact(&what, dispatch(&base, g), clean))]
        }
        Inject::Kill { every } => {
            base.config.checkpoint_every = Some(every);
            let mut runs = Vec::new();
            for k in (every..clean.1.num_supersteps()).step_by(every) {
                let what = format!("{what} at {k}");
                let dir = TempDirGuard::new("sweep-kill");
                base.config.durable_dir = Some(dir.path().to_path_buf());
                let mut resume = base.clone();
                resume.config.durable_resume = true;
                let mut halted = base.clone();
                let halt = FaultPlan::parse(&format!("halt@{k}"));
                halted.config.fault_plan = Some(halt.expect("halt parses"));
                runs.push(match dispatch(&halted, g) {
                    Err(e) if e.contains("halted") => {
                        checked(&what, exact(&what, dispatch(&resume, g), clean))
                    }
                    // The schedule ended before the halt fired.
                    done => exact(&what, done, clean),
                });
            }
            runs
        }
        Inject::Disk { plan } => {
            let dir = TempDirGuard::new("sweep-disk");
            base.config.checkpoint_every = Some(1);
            base.config.durable_dir = Some(dir.path().to_path_buf());
            let mut resume = base.clone();
            resume.config.durable_resume = true;
            base.config.fault_plan = Some(parse(plan));
            let damaged = exact(&what, dispatch(&base, g), clean);
            // A schedule of global steps only (msf is one Kruskal gather)
            // commits fewer than two generations: with nothing on disk to
            // damage, a cold resume legitimately degrades instead.
            if damaged.durability.generations_written < 2 {
                return vec![damaged];
            }
            let what = format!("{what} resume");
            let resumed = checked(&what, exact(&what, dispatch(&resume, g), clean));
            vec![damaged, resumed]
        }
    }
}

/// Every catalogue algorithm runs clean, once per (input, workers) pair
/// the rows named in `labels` use, and then under each of those rows:
/// each rerun and faulted run must reproduce its clean twin's summary,
/// result digest included, and superstep count, and show the row's
/// evidence; over the whole catalogue every row's mechanisms must fire.
pub fn sweep(labels: &[&str]) {
    let rows: Vec<Row> = rows()
        .into_iter()
        .filter(|r| labels.contains(&r.label))
        .collect();
    assert_eq!(rows.len(), labels.len(), "unknown row among {labels:?}");
    if rows.iter().any(|r| matches!(r.inject, Inject::Pinned)) {
        let pinned = PINNED.iter().map(|p| p.0);
        let catalogue = CATALOGUE.iter().map(|a| a.name);
        assert!(
            pinned.eq(catalogue),
            "PINNED must list exactly the catalogue"
        );
    }
    // One clean twin per input and worker count the rows use: floats need
    // not agree bit for bit across worker counts.
    let mut twins: Vec<(Input, usize)> = rows.iter().map(|r| (r.input, r.workers)).collect();
    twins.sort_unstable();
    twins.dedup();
    let mut inputs: Vec<Input> = twins.iter().map(|t| t.0).collect();
    inputs.dedup();
    let graphs: Vec<(Input, [Arc<Graph>; 2])> = inputs.into_iter().map(|i| (i, i.load())).collect();
    let mut fired: Vec<Vec<u64>> = rows.iter().map(|r| vec![0; r.fired.len()]).collect();
    let mut moved = Vec::new();
    for row in &CATALOGUE {
        let algo = row.name;
        let graph = |input| {
            let (_, g) = graphs.iter().find(|(i, _)| *i == input).expect("loaded");
            &g[row.weighted as usize]
        };
        let clean: Vec<Run> = twins
            .iter()
            .map(|&(input, workers)| {
                let what = format!("{algo} (clean, {input:?}, {workers} workers)");
                let (summary, stats) = dispatch(&sweep_opts(algo, input, workers), graph(input))
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(stats.recovery, Default::default(), "{what}");
                assert_eq!(stats.delivery, Default::default(), "{what}");
                assert_eq!(stats.consensus, Default::default(), "{what}");
                (summary, stats)
            })
            .collect();
        for (row, fired) in rows.iter().zip(&mut fired) {
            let twin = &clean[twins
                .binary_search(&(row.input, row.workers))
                .expect("twin")];
            let runs = sweep_row(row, algo, graph(row.input), twin);
            if matches!(row.inject, Inject::Pinned) {
                let (steps, bytes, digest) = counts(twin);
                let full = runs[0].total_bytes();
                if !PINNED.contains(&(algo, steps, bytes, full, digest)) {
                    moved.push(format!(
                        "    (\"{algo}\", {steps}, {bytes}, {full}, {digest:#018x}),"
                    ));
                }
            }
            for stats in runs {
                let json = stats.summary_json();
                for (n, path) in fired.iter_mut().zip(row.fired) {
                    let (family, counter) = path.split_once('.').expect("family.counter");
                    let value = json.get(family).and_then(|f| f.get(counter));
                    *n += value.and_then(Json::as_u64).expect(path);
                }
            }
        }
    }
    assert!(
        moved.is_empty(),
        "the pinned counts moved; the fresh PINNED rows:\n{}",
        moved.join("\n")
    );
    for (row, fired) in rows.iter().zip(&fired) {
        for (n, path) in fired.iter().zip(row.fired) {
            assert!(
                *n > 0,
                "[{}]: {path} is 0 over the whole catalogue",
                row.label
            );
        }
    }
}
