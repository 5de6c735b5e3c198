//! The robustness suites behind `fig_robust`: five fault families, one
//! skeleton.
//!
//! Every suite runs the catalogue on the same generated graph fault-free
//! and under its family's scripted scenarios and checks the invariant
//! they all share — recovery is *exact*: the same result summary and the
//! same superstep count as the clean run — plus the suite's own evidence
//! that the mechanism under test actually fired, and one or two probes
//! that push the mechanism past what it can absorb and demand a clean
//! typed error instead of a panic. `Sweep` is that shared skeleton
//! (graph pair, base options, clean baseline, identity check, clean-error
//! probe, failure list, table, `results/<suite>.json`); each suite below
//! is its scenario table and what it counts.
//!
//! | suite | fault family |
//! |---|---|
//! | `chaos` | `crash@` / `corrupt@` / `straggle@`: rollback + replay |
//! | `elastic` | `die@` / `rejoin@`: permanent loss, repartitioning |
//! | `lossy` | `drop@` / `dup@` / `reorder@` / `loss=`: ack + retransmit |
//! | `consensus` | `leader@` / `lie@`: re-election, quorum accusation |
//! | `durable` | `--halt-after` / `ioerr@` / `torn@` / `bitrot@`: cold restart, scrub |

use crate::cli::{dispatch, CliOptions, ALGOS};
use crate::jsonio;
use crate::report::render_table;
use flash_graph::testutil::TempDirGuard;
use flash_graph::Graph;
use flash_obs::Json;
use flash_runtime::{FaultPlan, RunStats};
use std::sync::Arc;

/// The suites `fig_robust --suite` accepts, in the order `all` runs them.
pub const SUITES: [&str; 5] = ["chaos", "elastic", "lossy", "consensus", "durable"];

/// Runs one suite — the whole catalogue, or one algorithm per kernel
/// family or scenario with `smoke` — writes `results/<suite>.json` and
/// returns whether every check held. `None` for a name not in [`SUITES`].
pub fn run_suite(suite: &str, smoke: bool) -> Option<bool> {
    Some(match suite {
        "chaos" => chaos(smoke),
        "elastic" => elastic(smoke),
        "lossy" => lossy(smoke),
        "consensus" => consensus(smoke),
        "durable" => durable(smoke),
        _ => return None,
    })
}

/// One finished run: its result summary and statistics.
type Run = (String, RunStats);

/// A faulted run checked against its clean baseline.
struct Checked {
    summary: String,
    stats: RunStats,
    identical: bool,
}

fn plan(text: &str) -> FaultPlan {
    FaultPlan::parse(text).expect("scripted plan parses")
}

fn scenarios_json(scenarios: &[(&str, &str)]) -> Json {
    Json::Arr(
        scenarios
            .iter()
            .map(|(label, plan)| Json::object().set("label", *label).set("plan", *plan))
            .collect(),
    )
}

/// What every suite shares: the inputs, and what accumulates over a sweep.
struct Sweep {
    smoke: bool,
    workers: usize,
    g: Arc<Graph>,
    weighted: Arc<Graph>,
    table: Vec<(String, Vec<String>)>,
    rows: Vec<Json>,
    broken: Vec<String>,
}

impl Sweep {
    fn new(smoke: bool, workers: usize) -> Self {
        let g = Arc::new(flash_graph::generators::erdos_renyi(48, 160, 11));
        let weighted = Arc::new(flash_graph::generators::with_random_weights(
            &g, 0.1, 2.0, 4,
        ));
        Sweep {
            smoke,
            workers,
            g,
            weighted,
            table: Vec::new(),
            rows: Vec::new(),
            broken: Vec::new(),
        }
    }

    /// The whole catalogue, or `smoke_algos` in smoke mode.
    fn algos(&self, smoke_algos: &'static [&'static str]) -> &'static [&'static str] {
        if self.smoke {
            smoke_algos
        } else {
            &ALGOS
        }
    }

    fn graph(&self, algo: &str) -> Arc<Graph> {
        Arc::clone(if algo == "msf" || algo == "sssp" {
            &self.weighted
        } else {
            &self.g
        })
    }

    fn opts(&self, algo: &str) -> CliOptions {
        CliOptions {
            algo: algo.to_string(),
            workers: self.workers,
            iters: 3,
            // `dispatch` takes the graph explicitly; the dataset field is
            // only used for loading, which the suites bypass.
            dataset: Some(flash_graph::Dataset::Orkut),
            ..CliOptions::default()
        }
    }

    /// The base options with the scripted fault plan `text` attached.
    fn under(&self, algo: &str, text: &str) -> CliOptions {
        CliOptions {
            faults: Some(plan(text)),
            ..self.opts(algo)
        }
    }

    /// Runs `opts`; an error is a failure of the run called `what`.
    fn run(&mut self, what: &str, opts: &CliOptions) -> Option<Run> {
        match dispatch(opts, &self.graph(&opts.algo)) {
            Ok(run) => Some(run),
            Err(e) => {
                self.broken.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// The fault-free baseline of `algo` under the suite's base options.
    fn clean(&mut self, algo: &str) -> Option<Run> {
        self.run(&format!("{algo} (clean)"), &self.opts(algo))
    }

    /// Runs `opts` and checks the invariant every suite shares: same
    /// summary, same superstep count as the clean run.
    fn faulted(&mut self, what: &str, opts: &CliOptions, clean: &Run) -> Option<Checked> {
        let (summary, stats) = self.run(what, opts)?;
        let identical = summary == clean.0 && stats.num_supersteps() == clean.1.num_supersteps();
        if !identical {
            self.broken.push(format!(
                "{what}: diverged — clean {:?} ({} steps) vs {:?} ({} steps)",
                clean.0,
                clean.1.num_supersteps(),
                summary,
                stats.num_supersteps()
            ));
        }
        Some(Checked {
            summary,
            stats,
            identical,
        })
    }

    /// One result row: the table line and the JSON record, with the
    /// suite's own counters as `cells` and under the `detail` key.
    fn row(
        &mut self,
        algo: &str,
        scenario: Option<&str>,
        run: &Checked,
        cells: Vec<String>,
        detail: (&str, Json),
    ) {
        let steps = run.stats.num_supersteps();
        let label = match scenario {
            Some(s) => format!("{algo} [{s}]"),
            None => algo.to_string(),
        };
        let exact = if run.identical { "ok" } else { "DIVERGED" };
        let mut line = vec![exact.to_string(), steps.to_string()];
        line.extend(cells);
        self.table.push((label, line));
        let mut record = Json::object().set("algo", algo);
        if let Some(s) = scenario {
            record = record.set("scenario", s);
        }
        self.rows.push(
            record
                .set("identical", run.identical)
                .set("summary", run.summary.as_str())
                .set("supersteps", steps)
                .set(detail.0, detail.1),
        );
    }

    fn print_table(&self, headers: &[&str]) {
        println!("{}", render_table(headers, &self.table));
    }

    /// The sweep as a whole must have exercised the mechanism: a thin
    /// schedule may deny one plan the chance to fire, never all of them.
    fn require_fired(&mut self, count: u64, complaint: &str) {
        if count == 0 {
            self.broken.push(complaint.to_string());
        }
    }

    /// Clean-error probe: `opts` must fail with an error mentioning
    /// `needle` — a typed degradation, never a panic or a success.
    fn expect_error(&mut self, probe: &str, opts: &CliOptions, needle: &str, if_ok: &str) -> Json {
        match dispatch(opts, &self.graph(&opts.algo)) {
            Err(e) if e.contains(needle) => {
                println!("{probe}: clean error as expected — {e}");
                Json::object()
                    .set("clean_error", true)
                    .set("error", e.as_str())
            }
            Err(e) => {
                self.broken.push(format!("{probe}: unexpected error {e:?}"));
                Json::object()
                    .set("clean_error", false)
                    .set("error", e.as_str())
            }
            Ok(_) => {
                self.broken.push(format!("{probe}: {if_ok}"));
                Json::object().set("clean_error", false)
            }
        }
    }

    /// Writes `results/<figure>.json` — `doc` plus the keys every suite
    /// shares — and reports the verdict.
    fn finish(self, figure: &str, doc: Json, verdict: &str) -> bool {
        let failures = self.broken.iter().map(|s| Json::from(s.as_str())).collect();
        let doc = doc
            .set("figure", figure)
            .set("workers", self.workers as u64)
            .set("smoke", self.smoke)
            .set("rows", Json::Arr(self.rows))
            .set("failures", Json::Arr(failures));
        match jsonio::write_results(figure, &doc) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write json: {e}"),
        }
        if self.broken.is_empty() {
            println!("\n{verdict}\n");
            return true;
        }
        eprintln!("\nFAIL — {} problem(s):", self.broken.len());
        for b in &self.broken {
            eprintln!("  {b}");
        }
        false
    }
}

/// Fault injection + recovery: a crash, a corrupted sync buffer and a
/// straggler in one plan; rollback/replay work must be nonzero and exact.
/// The probe exhausts the retry budget on purpose.
fn chaos(smoke: bool) -> bool {
    const PLAN: &str = "crash@1:w1,corrupt@3:w0,straggle@2:w0:200us";
    const CHECKPOINT_EVERY: usize = 2;
    let mut sw = Sweep::new(smoke, 3);
    // One algorithm per kernel family in smoke mode.
    let algos = sw.algos(&["bfs", "cc", "kcore", "pagerank"]);
    println!(
        "Chaos experiment — {} algorithms, plan [{}], checkpoint every {CHECKPOINT_EVERY} \
         supersteps\n",
        algos.len(),
        plan(PLAN).summary()
    );
    for &algo in algos {
        let Some(clean) = sw.clean(algo) else {
            continue;
        };
        let mut opts = sw.under(algo, PLAN);
        opts.checkpoint_every = CHECKPOINT_EVERY;
        let Some(run) = sw.faulted(&format!("{algo} (faulted)"), &opts, &clean) else {
            continue;
        };
        let rec = &run.stats.recovery;
        let cells = vec![
            rec.faults_injected.to_string(),
            rec.rollbacks.to_string(),
            rec.replayed_supersteps.to_string(),
            rec.checkpoints.to_string(),
            format!("{:.1}us", rec.overhead().as_secs_f64() * 1e6),
        ];
        let detail = ("recovery", rec.to_json());
        sw.row(algo, None, &run, cells, detail);
    }
    sw.print_table(&[
        "Algo", "exact", "steps", "faults", "rollbk", "replay", "ckpts", "overhead",
    ]);

    // A crash that outlives the retry budget must come back as a clean
    // error, never a panic.
    let mut doomed = sw.under("bfs", "crash@1:w0:x99,retries=2");
    doomed.checkpoint_every = CHECKPOINT_EVERY;
    let exhaustion = sw.expect_error(
        "exhaustion probe",
        &doomed,
        "exhausted",
        "run succeeded despite exhausted retries",
    );

    let doc = Json::object()
        .set("plan", plan(PLAN).summary())
        .set("checkpoint_every", CHECKPOINT_EVERY as u64)
        .set("exhaustion_probe", exhaustion);
    sw.finish("chaos", doc, "all runs recovered bit-identically")
}

/// Elastic membership: one worker dies for good mid-run, and dies and
/// later rejoins; every run must report a real membership change. Probes:
/// a double death, and a death with checkpointing off.
fn elastic(smoke: bool) -> bool {
    const SCENARIOS: [(&str, &str); 2] = [
        ("die", "die@1:w1,retries=1"),
        ("die+rejoin", "die@1:w1,rejoin@4:w1,retries=1"),
    ];
    const CHECKPOINT_EVERY: usize = 2;
    let mut sw = Sweep::new(smoke, 4);
    let algos = sw.algos(&["bfs"]);
    println!(
        "Elastic-membership experiment — {} algorithm(s), {} workers, checkpoint every \
         {CHECKPOINT_EVERY} supersteps\n",
        algos.len(),
        sw.workers
    );
    for &algo in algos {
        let Some(clean) = sw.clean(algo) else {
            continue;
        };
        for (label, plan_text) in SCENARIOS {
            // MSF runs a single compute superstep (the per-worker Kruskal
            // gather at step 0) followed by one global reduce, so its death
            // and rejoin must be scripted earlier than everyone else's.
            let plan_text = match (algo, label) {
                ("msf", "die") => "die@0:w1,retries=1",
                ("msf", _) => "die@0:w1,rejoin@1:w1,retries=1",
                _ => plan_text,
            };
            let what = format!("{algo} ({label})");
            let mut opts = sw.under(algo, plan_text);
            opts.checkpoint_every = CHECKPOINT_EVERY;
            let Some(run) = sw.faulted(&what, &opts, &clean) else {
                continue;
            };
            if let Some(problem) = membership_problem(label, &run.stats) {
                sw.broken.push(format!("{what}: {problem}"));
            }
            let rec = &run.stats.recovery;
            let cells = vec![
                rec.membership_epochs.to_string(),
                rec.workers_lost.to_string(),
                rec.workers_rejoined.to_string(),
                rec.vertices_migrated.to_string(),
                rec.migrated_bytes.to_string(),
            ];
            let detail = ("recovery", rec.to_json());
            sw.row(algo, Some(label), &run, cells, detail);
        }
    }
    sw.print_table(&[
        "Run", "exact", "steps", "epochs", "lost", "rejoin", "verts", "bytes",
    ]);

    // Double-death probe: two permanent losses leave 4 logical partitions
    // on 2 hosts; the run must still finish bit-identically.
    let mut double_probe = Json::object().set("ok", false);
    let mut opts = sw.under("cc", "die@1:w1,die@3:w3,retries=1");
    opts.checkpoint_every = CHECKPOINT_EVERY;
    let runs = (sw.clean("cc"), sw.run("double-death probe", &opts));
    if let (Some(clean), Some((summary, stats))) = runs {
        let rec = &stats.recovery;
        let ok = clean.0 == summary && rec.workers_lost == 2 && rec.membership_epochs == 2;
        if ok {
            println!("double-death probe: ok — 2 epochs, result intact");
        } else {
            sw.broken.push(format!(
                "double-death probe: summary match {}, lost {}, epochs {}",
                clean.0 == summary,
                rec.workers_lost,
                rec.membership_epochs
            ));
        }
        double_probe = double_probe
            .set("ok", ok)
            .set("workers_lost", rec.workers_lost)
            .set("membership_epochs", rec.membership_epochs);
    }

    // Degrade probe: a permanent loss with checkpointing disabled has no
    // state to recover from and must surface as a clean error.
    let mut degrade = sw.under("bfs", "die@1:w1,retries=1");
    degrade.checkpoint_off = true;
    let degrade_probe = sw.expect_error(
        "degrade probe",
        &degrade,
        "permanently lost",
        "run succeeded without a checkpoint to recover from",
    );

    let doc = Json::object()
        .set("checkpoint_every", CHECKPOINT_EVERY as u64)
        .set("scenarios", scenarios_json(&SCENARIOS))
        .set("double_death_probe", double_probe)
        .set("degrade_probe", degrade_probe);
    sw.finish(
        "elastic",
        doc,
        "all runs survived permanent loss bit-identically",
    )
}

/// Checks a scenario's recovery counters describe a real membership change:
/// a death always migrates state, and a rejoin adds a second epoch.
fn membership_problem(label: &str, stats: &RunStats) -> Option<String> {
    let rec = &stats.recovery;
    if rec.workers_lost != 1 {
        return Some(format!("expected 1 worker lost, saw {}", rec.workers_lost));
    }
    if rec.vertices_migrated == 0 || rec.migrated_bytes == 0 {
        return Some("no state migrated despite a permanent loss".to_string());
    }
    let want_epochs = if label == "die+rejoin" { 2 } else { 1 };
    if rec.membership_epochs != want_epochs {
        return Some(format!(
            "expected {want_epochs} membership epoch(s), saw {}",
            rec.membership_epochs
        ));
    }
    if label == "die+rejoin" && rec.workers_rejoined != 1 {
        return Some(format!("expected 1 rejoin, saw {}", rec.workers_rejoined));
    }
    None
}

/// Reliable delivery over a lossy channel: scripted drop / duplicate /
/// reorder, seeded probabilistic loss, and all of them at once; delivery
/// must stay exactly-once from the algorithm's point of view. The probe
/// drops one batch more often than the retransmit budget allows.
fn lossy(smoke: bool) -> bool {
    // Scripted specs arm at their step and fire at the first cross-host
    // round where the target worker's host actually sends, so the same
    // plans work for short-schedule algorithms (e.g. MSF).
    const SCENARIOS: [(&str, &str); 5] = [
        ("drop", "drop@1:w1,retries=6"),
        ("dup", "dup@1:w1,retries=6"),
        ("reorder", "reorder@1:w1,retries=6"),
        ("lossy", "loss=0.05,seed=7,retries=6"),
        (
            "combined",
            "drop@1:w1,dup@2:w2,reorder@3:w0,loss=0.05,seed=7,retries=8",
        ),
    ];
    let mut sw = Sweep::new(smoke, 4);
    let algos = sw.algos(&["bfs"]);
    println!(
        "Lossy-channel experiment — {} algorithm(s), {} workers, {} scenario(s)\n",
        algos.len(),
        sw.workers,
        SCENARIOS.len()
    );
    let (mut dropped, mut retx, mut dedup) = (0u64, 0u64, 0u64);
    for &algo in algos {
        let Some(clean) = sw.clean(algo) else {
            continue;
        };
        for (label, plan_text) in SCENARIOS {
            let opts = sw.under(algo, plan_text);
            let Some(run) = sw.faulted(&format!("{algo} ({label})"), &opts, &clean) else {
                continue;
            };
            let d = &run.stats.delivery;
            dropped += d.batches_dropped;
            retx += d.retransmits;
            dedup += d.dedup_hits;
            let cells = vec![
                d.batches_sent.to_string(),
                d.batches_dropped.to_string(),
                d.retransmits.to_string(),
                d.dedup_hits.to_string(),
                d.checksum_failures.to_string(),
            ];
            let detail = ("delivery", d.to_json());
            sw.row(algo, Some(label), &run, cells, detail);
        }
    }
    sw.print_table(&[
        "Run", "exact", "steps", "sent", "dropped", "retx", "dedup", "cksum",
    ]);
    sw.require_fired(
        dropped,
        "no batch was ever dropped — channel faults never fired",
    );
    sw.require_fired(retx, "no batch was ever retransmitted");
    sw.require_fired(
        dedup,
        "no duplicate was ever suppressed by the dedup window",
    );

    let exhaust = sw.under("bfs", "drop@1:w1:x99,retries=2");
    let exhaust_probe = sw.expect_error(
        "exhaustion probe",
        &exhaust,
        "delivery",
        "run succeeded past an exhausted budget",
    );

    let totals = Json::object()
        .set("batches_dropped", dropped)
        .set("retransmits", retx)
        .set("dedup_hits", dedup);
    let doc = Json::object()
        .set("scenarios", scenarios_json(&SCENARIOS))
        .set("totals", totals)
        .set("exhaustion_probe", exhaust_probe);
    sw.finish(
        "lossy",
        doc,
        "all runs stayed bit-identical over the lossy channel",
    )
}

/// The consensus-backed control plane: the elected leader crashing early,
/// late and twice; a worker lying about its checksum; both at once. Extra
/// evidence: the leader crashed at *every* superstep of one schedule in
/// turn, and a two-host lie whose 1–1 vote must degrade to a quorum error.
fn consensus(smoke: bool) -> bool {
    // All assume 4 workers: the double crash leaves two hosts, and the lie
    // needs three live hosts for an honest majority to pin it.
    const SCENARIOS: [(&str, &str); 5] = [
        ("leader-early", "leader@0,retries=1"),
        ("leader-late", "leader@3,retries=1"),
        ("double-leader", "leader@1,leader@3,retries=1"),
        ("lie", "lie@1:w2,retries=1"),
        ("lie+leader", "lie@1:w3,leader@3,retries=1"),
    ];
    let mut sw = Sweep::new(smoke, 4);
    let algos = sw.algos(&["bfs"]);
    println!(
        "Consensus control-plane experiment — {} algorithm(s), {} workers, {} scenario(s)\n",
        algos.len(),
        sw.workers,
        SCENARIOS.len()
    );
    let (mut elections, mut crashes, mut accusations, mut committed) = (0u64, 0u64, 0u64, 0u64);
    for &algo in algos {
        let Some(clean) = sw.clean(algo) else {
            continue;
        };
        for (label, plan_text) in SCENARIOS {
            let what = format!("{algo} ({label})");
            let opts = sw.under(algo, plan_text);
            let Some(run) = sw.faulted(&what, &opts, &clean) else {
                continue;
            };
            let c = &run.stats.consensus;
            elections += c.elections;
            crashes += c.leader_crashes;
            accusations += c.accusations;
            committed += c.entries_committed;
            if c.entries_appended != c.entries_committed {
                sw.broken.push(format!(
                    "{what}: {} appended but only {} committed",
                    c.entries_appended, c.entries_committed
                ));
            }
            let cells = vec![
                c.elections.to_string(),
                c.leader_crashes.to_string(),
                c.accusations.to_string(),
                c.entries_committed.to_string(),
            ];
            let detail = ("consensus", c.to_json());
            sw.row(algo, Some(label), &run, cells, detail);
        }
    }
    sw.print_table(&[
        "Run", "exact", "steps", "elect", "crash", "accuse", "commit",
    ]);
    sw.require_fired(elections, "no election was ever held");
    sw.require_fired(crashes, "no leader crash ever fired");
    sw.require_fired(accusations, "no lying worker was ever accused");
    sw.require_fired(committed, "no decision was ever committed through the log");

    // Per-superstep sweep: each run must recover through re-election.
    let mut step_sweep = Json::object().set("algo", "bfs");
    if let Some(clean) = sw.clean("bfs") {
        let steps = clean.1.num_supersteps();
        let mut recovered = 0u64;
        for step in 0..steps {
            let opts = sw.under("bfs", &format!("leader@{step},retries=1"));
            let what = format!("step sweep (leader@{step})");
            recovered += u64::from(sw.faulted(&what, &opts, &clean).is_some());
        }
        println!(
            "step sweep: leader crashed at each of bfs's {steps} supersteps — \
             {recovered} run(s) recovered"
        );
        step_sweep = step_sweep.set("supersteps", steps).set("runs", recovered);
    }

    let mut probe = sw.under("bfs", "lie@1:w1,retries=1");
    probe.workers = 2;
    let quorum_probe = sw.expect_error(
        "quorum-loss probe",
        &probe,
        "quorum",
        "run succeeded without an honest majority",
    );

    let totals = Json::object()
        .set("elections", elections)
        .set("leader_crashes", crashes)
        .set("accusations", accusations)
        .set("entries_committed", committed);
    let doc = Json::object()
        .set("scenarios", scenarios_json(&SCENARIOS))
        .set("totals", totals)
        .set("step_sweep", step_sweep)
        .set("quorum_probe", quorum_probe);
    sw.finish(
        "consensus",
        doc,
        "all runs stayed bit-identical under leader crashes and lying workers",
    )
}

/// The durable checkpoint store. Cold-restart sweep: the scripted kill
/// switch stops the run at every checkpoint boundary in turn and a fresh
/// `--resume` must re-execute, pass the newest generation's digest check
/// and finish bit-identically. Disk-fault sweep: a
/// failed fsync must be transparent, and a torn or bit-rotted generation
/// must be caught by the scrub at the next cold start and fallen back
/// from, still bit-identically.
fn durable(smoke: bool) -> bool {
    /// A boundary every two supersteps keeps the kill-point grid dense
    /// without drowning thin schedules.
    const INTERVAL: usize = 2;
    /// `(label, plan, damages the store at rest)`. This sweep runs at
    /// checkpoint cadence 1 with the fault at step 1, so even the thinnest
    /// schedule has committed a second generation to damage and a first
    /// one to fall back to.
    const SCENARIOS: [(&str, &str, bool); 3] = [
        ("ioerr", "ioerr@1", false),
        ("torn", "torn@1", true),
        ("bitrot", "bitrot@1:b64", true),
    ];
    let mut sw = Sweep::new(smoke, 4);
    let algos = sw.algos(&["bfs"]);
    println!(
        "Durable checkpoint-store experiment — {} algorithm(s), {} workers, kill at every \
         {INTERVAL}-step boundary + {} disk-fault scenario(s)\n",
        algos.len(),
        sw.workers,
        SCENARIOS.len()
    );
    let (mut total_resumes, mut total_verified, mut total_fallbacks, mut total_ioerrs) =
        (0u64, 0u64, 0u64, 0u64);
    for &algo in algos {
        let mut base = sw.opts(algo);
        base.checkpoint_every = INTERVAL;
        let Some(clean) = sw.run(&format!("{algo} (clean)"), &base) else {
            continue;
        };
        let steps = clean.1.num_supersteps();

        let (mut resumes, mut verified) = (0u64, 0u64);
        for k in (INTERVAL..steps).step_by(INTERVAL) {
            let dir = TempDirGuard::new(&format!("fig-durable-{algo}-{k}"));
            let mut halted = base.clone();
            halted.durable_dir = Some(dir.path().display().to_string());
            halted.halt_after = Some(k as u64);
            match dispatch(&halted, &sw.graph(algo)) {
                Err(e) if e.contains("halted") => {}
                Err(e) => {
                    sw.broken
                        .push(format!("{algo} (kill@{k}): unexpected error {e}"));
                    continue;
                }
                // The kill switch never fired (schedule ended first): the
                // durable run must still have matched.
                Ok((summary, _)) => {
                    if summary != clean.0 {
                        sw.broken
                            .push(format!("{algo} (kill@{k}): durable run diverged"));
                    }
                    continue;
                }
            }
            let mut resume = base.clone();
            resume.durable_dir = halted.durable_dir;
            resume.resume = true;
            if let Some(run) = sw.faulted(&format!("{algo} (resume@{k})"), &resume, &clean) {
                resumes += 1;
                verified += run.stats.durability.resumed_steps;
            }
        }

        let (mut fallbacks, mut ioerrs) = (0u64, 0u64);
        for (label, plan_text, damages) in SCENARIOS {
            let dir = TempDirGuard::new(&format!("fig-durable-{algo}-{label}"));
            let mut faulted = base.clone();
            faulted.checkpoint_every = 1;
            faulted.durable_dir = Some(dir.path().display().to_string());
            let mut resume = faulted.clone();
            resume.resume = true;
            faulted.faults = Some(plan(plan_text));
            let what = format!("{algo} ({label})");
            let Some((summary, stats)) = sw.run(&what, &faulted) else {
                continue;
            };
            ioerrs += stats.durability.io_errors;
            if summary != clean.0 {
                sw.broken.push(format!("{what}: faulted run diverged"));
            }
            // A schedule that runs entirely on global steps (msf is one
            // Kruskal gather) never reaches a checkpoint boundary: with
            // nothing on disk to damage there is nothing to scrub, and a
            // cold resume legitimately degrades instead.
            if stats.durability.generations_written < 2 {
                println!("{what}: skipped — schedule too thin to commit 2 generations");
                continue;
            }
            let what = format!("{algo} ({label} resume)");
            let Some(run) = sw.faulted(&what, &resume, &clean) else {
                continue;
            };
            fallbacks += run.stats.durability.fallbacks;
            if damages && run.stats.durability.fallbacks == 0 {
                sw.broken
                    .push(format!("{what}: damage never forced a generation fallback"));
            }
        }
        total_resumes += resumes;
        total_verified += verified;
        total_fallbacks += fallbacks;
        total_ioerrs += ioerrs;

        let mut line = vec!["ok".to_string()];
        line.extend([steps as u64, resumes, verified, fallbacks, ioerrs].map(|n| n.to_string()));
        sw.table.push((algo.to_string(), line));
        sw.rows.push(
            Json::object()
                .set("algo", algo)
                .set("summary", clean.0.as_str())
                .set("supersteps", steps)
                .set("resumes", resumes)
                .set("verified_steps", verified)
                .set("fallbacks", fallbacks)
                .set("io_errors", ioerrs),
        );
    }
    sw.print_table(&[
        "Algo", "exact", "steps", "resumes", "verified", "fallback", "ioerr",
    ]);
    sw.require_fired(total_resumes, "no cold restart was ever resumed");
    sw.require_fired(
        total_verified,
        "no resume was ever verified against a generation past step 0",
    );
    sw.require_fired(
        total_fallbacks,
        "no scrub ever fell back to a previous generation",
    );
    sw.require_fired(total_ioerrs, "no injected I/O error ever fired");

    let scenarios = SCENARIOS
        .iter()
        .map(|(label, plan, damages)| {
            Json::object()
                .set("label", *label)
                .set("plan", *plan)
                .set("damages_store", *damages)
        })
        .collect();
    let totals = Json::object()
        .set("resumes", total_resumes)
        .set("verified_steps", total_verified)
        .set("fallbacks", total_fallbacks)
        .set("io_errors", total_ioerrs);
    let doc = Json::object()
        .set("checkpoint_every", INTERVAL as u64)
        .set("scenarios", Json::Arr(scenarios))
        .set("totals", totals);
    sw.finish(
        "durable",
        doc,
        "all cold restarts re-executed bit-identically, were verified against the disk's \
         digest, and survived torn/bit-rotted generations via scrub fallback",
    )
}
