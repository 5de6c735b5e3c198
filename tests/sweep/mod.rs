//! The catalogue sweep, shared by the fault-family test files: one
//! scenario table ([`rows`]) covering every fault family — crash/rollback,
//! elastic membership, lossy delivery, consensus, durable store — and one
//! loop ([`sweep`]) that runs every catalogue algorithm clean and under a
//! selection of its rows. Each faulted run must reproduce the clean
//! answer (its digest, through `dispatch`'s summary) and superstep count,
//! with the row's evidence that the mechanism fired. Each family's file
//! runs its own rows: `fault_tolerance.rs` chaos, `elastic.rs` the
//! membership rows, `lossy_transport.rs` the channel rows, `consensus.rs`
//! the control-plane rows and `durable.rs` the store rows.

use flash_bench::cli::{dispatch, CliOptions, ALGOS};
use flash_graph::testutil::TempDirGuard;
use flash_graph::{generators, Graph};
use flash_obs::Json;
use flash_runtime::{ClusterConfig, FaultPlan, RunStats};
use std::sync::Arc;
use std::time::Duration;

/// How a row of [`rows`] injects its faults.
enum Inject {
    /// One run under `plan` (or `msf`'s own plan: its only compute
    /// superstep is the Kruskal gather at step 0, so membership events are
    /// scripted earlier), checkpointing every `every` supersteps.
    Plan {
        plan: &'static str,
        msf: Option<&'static str>,
        every: Option<usize>,
    },
    /// A durable run killed at every `every`-step checkpoint boundary in
    /// turn, each kill followed by a cold resume from the store.
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

/// The scenario table: every fault family's scripted plans. Chaos runs on
/// 3 workers; the others on 4, since the double death leaves two hosts
/// and a lie needs three live hosts for an honest majority to pin it.
/// Scripted channel faults arm at their step and fire at the first
/// cross-host round where the target's host sends, so short schedules
/// see them too.
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
        workers,
        inject,
        check,
        fired,
    };
    let lossy = |label, text, fired| row(label, 4, plan(text, None), no_check, fired);
    let consensus = |label, text, fired| row(label, 4, plan(text, None), log_intact, fired);
    let disk = |label, plan, check, fired| row(label, 4, Inject::Disk { plan }, check, fired);
    vec![
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

/// The options every sweep run shares: `iters` 3, the parallel pool.
fn sweep_opts(algo: &str, workers: usize) -> CliOptions {
    CliOptions {
        algo: algo.to_string(),
        config: ClusterConfig::with_workers(workers),
        iters: 3,
        // `dispatch` takes the graph explicitly; the dataset is only
        // used for loading, which the sweep bypasses.
        dataset: Some(flash_graph::Dataset::Orkut),
        ..CliOptions::default()
    }
}

/// A finished run: its summary, which ends with the digest of the whole
/// answer, and its statistics.
type Run = (String, RunStats);

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
    let mut base = sweep_opts(algo, row.workers);
    match row.inject {
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
                let mut halted = base.clone();
                halted.config.durable_dir = Some(dir.path().to_path_buf());
                let mut resume = halted.clone();
                resume.config.durable_resume = true;
                halted.config.durable_halt_after = Some(k as u64);
                runs.push(match dispatch(&halted, g) {
                    Err(e) if e.contains("halted") => {
                        checked(&what, exact(&what, dispatch(&resume, g), clean))
                    }
                    // The schedule ended before the kill switch fired.
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

/// Every catalogue algorithm on ER(48, 160, seed 11), weighted for msf
/// and sssp, runs clean and then under each row of [`rows`] named in
/// `labels`: each faulted run must reproduce its clean twin's summary,
/// result digest included, and superstep count, and show the row's
/// evidence; over the whole catalogue every row's mechanisms must fire.
pub fn sweep(labels: &[&str]) {
    let g = Arc::new(generators::erdos_renyi(48, 160, 11));
    let weighted = Arc::new(generators::with_random_weights(&g, 0.1, 2.0, 4));
    let rows: Vec<Row> = rows()
        .into_iter()
        .filter(|r| labels.contains(&r.label))
        .collect();
    assert_eq!(rows.len(), labels.len(), "unknown row among {labels:?}");
    // One clean twin per worker count the rows use: floats need not agree
    // bit for bit across worker counts.
    let mut workers: Vec<usize> = rows.iter().map(|r| r.workers).collect();
    workers.sort_unstable();
    workers.dedup();
    let mut fired: Vec<Vec<u64>> = rows.iter().map(|r| vec![0; r.fired.len()]).collect();
    for algo in ALGOS {
        let g = if algo == "msf" || algo == "sssp" {
            &weighted
        } else {
            &g
        };
        let twins: Vec<Run> = workers
            .iter()
            .map(|&workers| {
                let what = format!("{algo} (clean, {workers} workers)");
                let (summary, stats) = dispatch(&sweep_opts(algo, workers), g)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(stats.recovery, Default::default(), "{what}");
                assert_eq!(stats.delivery, Default::default(), "{what}");
                assert_eq!(stats.consensus, Default::default(), "{what}");
                (summary, stats)
            })
            .collect();
        for (row, fired) in rows.iter().zip(&mut fired) {
            let twin = &twins[workers.binary_search(&row.workers).expect("twin")];
            for stats in sweep_row(row, algo, g, twin) {
                let json = stats.summary_json();
                for (n, path) in fired.iter_mut().zip(row.fired) {
                    let (family, counter) = path.split_once('.').expect("family.counter");
                    let value = json.get(family).and_then(|f| f.get(counter));
                    *n += value.and_then(Json::as_u64).expect(path);
                }
            }
        }
    }
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
