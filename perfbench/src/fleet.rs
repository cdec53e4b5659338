//! The `fleet_suite` workload: the `suite_small` suite through the fleet
//! supervisor, with worker processes that re-exec the built `repro`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use tsvd_fleet::ledger::{DoneEvent, LedgerEvent};
use tsvd_fleet::{run_fleet, verify, FleetOptions, Ledger, SuiteSpec};
use tsvd_workloads::module::Module;

use crate::inputs::{self, pair_key, PairKey};
use crate::report::Results;
use crate::runtime::{score, Detection};
use crate::{until, SETUP_REPS};

/// Waves per fleet run (the cross-process analogue of two test runs).
const WAVES: usize = 2;

/// Everything a fleet run needs.
pub struct Fleet {
    seed: u64,
    repro: PathBuf,
    work: PathBuf,
    workers: usize,
}

/// What one fleet run measured.
pub struct FleetRun {
    /// Daemon wall seconds.
    pub wall_s: f64,
    /// Σ `DoneEvent.wall_ns` ÷ (workers × wall).
    pub busy_share: f64,
    /// Module executions per second.
    pub modules_per_s: f64,
    /// Ledger lines.
    pub ledger_events: usize,
    /// Ledger size.
    pub ledger_bytes: u64,
    /// Worker deaths and re-queues.
    pub deaths: usize,
    /// Re-queue decisions.
    pub retries: usize,
    /// Detection scored against ground truth.
    pub detection: Detection,
}

fn options(f: &Fleet, suite: SuiteSpec, waves: usize, dir: &Path) -> FleetOptions {
    let mut o = FleetOptions::standard(suite, dir.join("l.jsonl"), dir.join("sinks"));
    o.workers = f.workers;
    o.waves = waves;
    o.worker_exe = Some(f.repro.clone());
    o.quiet = true;
    o
}

/// Checks that `repro` runs and knows the `serve` subcommand.
fn check_repro(repro: &Path) -> Result<(), String> {
    let out = Command::new(repro)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", repro.display()))?;
    let usage = String::from_utf8_lossy(&out.stderr);
    if out.status.code() == Some(2) && usage.contains("repro serve") {
        Ok(())
    } else {
        Err(format!("{} is not a fleet-capable repro", repro.display()))
    }
}

/// Builds the suite, checks the worker binary and warms up with a small
/// one-wave fleet, [`SETUP_REPS`] times; returns the fleet and each
/// repetition's seconds.
pub fn setup(
    seed: u64,
    repro: &Path,
    work: &Path,
    workers: usize,
) -> Result<(Fleet, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        check_repro(repro)?;
        let config = inputs::suite_config(seed, 0);
        let f = Fleet {
            seed,
            repro: repro.to_path_buf(),
            work: work.join("fleet"),
            workers,
        };
        let dir = f.work.join("warm");
        let _ = std::fs::remove_dir_all(&dir);
        let warm = SuiteSpec::Std {
            modules: 2 * workers,
            seed: config.seed,
        };
        run_fleet(options(&f, warm, 1, &dir)).map_err(|e| format!("warm-up fleet: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        fleet = Some(f);
    }
    Ok((fleet.expect("at least one set-up repetition"), times))
}

/// One fleet run over repetition `rep`'s suite, verified: the ledger must
/// reconcile with the sinks, no worker may die, every execution must
/// complete, and every violation must be planted.
pub fn run_once(f: &Fleet, rep: usize, res: &mut Results) -> Option<FleetRun> {
    let dir = f.work.join(format!("r{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    let config = inputs::suite_config(f.seed, rep);
    let modules: Vec<Module> = inputs::suite_small(f.seed, rep);
    let suite = SuiteSpec::Std {
        modules: config.modules,
        seed: config.seed,
    };
    let opts = options(f, suite, WAVES, &dir);
    let (ledger, sinks) = (opts.ledger.clone(), opts.sink_dir.clone());
    let report = match run_fleet(opts) {
        Ok(r) => r,
        Err(e) => {
            res.check(false, || format!("fleet run failed: {e}"));
            return None;
        }
    };
    let events = Ledger::load(&ledger).unwrap_or_default();
    match verify(&events, &sinks) {
        Ok(_) => res.check(true, String::new),
        Err(errors) => {
            for e in errors {
                res.check(false, || format!("ledger does not reconcile: {e}"));
            }
        }
    }
    res.check(report.deaths == 0, || {
        format!("{} fleet worker deaths", report.deaths)
    });
    res.check(report.retries == 0, || {
        format!("{} fleet module retries", report.retries)
    });
    let mut wave_of: HashMap<usize, usize> = HashMap::new();
    let mut found: Vec<HashMap<PairKey, usize>> = vec![HashMap::new(); modules.len()];
    let mut busy_ns = 0u64;
    let mut done = 0usize;
    for e in &events {
        match e {
            LedgerEvent::Assign(a) => {
                wave_of.insert(a.index, a.wave);
            }
            LedgerEvent::Violation(v) => {
                let wave = wave_of.get(&v.index).copied().unwrap_or(0);
                if let Some(m) = found.get_mut(v.index) {
                    m.entry(pair_key(&v.pair_a, &v.pair_b)).or_insert(wave + 1);
                }
            }
            LedgerEvent::Done(DoneEvent {
                index,
                outcome,
                wall_ns,
                ..
            }) => {
                res.check(outcome == "completed", || {
                    format!("fleet module {index} ended {outcome}")
                });
                busy_ns += wall_ns;
                done += 1;
            }
            _ => {}
        }
    }
    let runs: Vec<Vec<usize>> = found
        .iter()
        .map(|m| m.values().copied().collect())
        .collect();
    let detection = score(&modules, &runs, res);
    let wall_s = report.wall_ns as f64 / 1e9;
    Some(FleetRun {
        wall_s,
        busy_share: busy_ns as f64 / 1e9 / (f.workers as f64 * wall_s),
        modules_per_s: done as f64 / wall_s,
        ledger_events: events.len(),
        ledger_bytes: std::fs::metadata(&ledger).map_or(0, |m| m.len()),
        deaths: report.deaths,
        retries: report.retries,
        detection,
    })
}

/// The end-to-end run: fleet runs until `seconds` elapse. `wall_s` is the
/// daemon's wall time; `overhead_ratio` is that wall over the module time
/// each worker spent executing (1 ÷ busy share): the price of processes,
/// wire frames and the write-ahead ledger.
pub fn run(f: &Fleet, seconds: f64, res: &mut Results) {
    let mut wall = Vec::new();
    let mut ratio = Vec::new();
    let mut rss = Vec::new();
    until(seconds, 3, |rep| {
        crate::report::reset_peak_rss();
        if let Some(r) = run_once(f, rep, res) {
            wall.push(r.wall_s);
            ratio.push(1.0 / r.busy_share);
            rss.push(peak_rss_mb(f));
        }
    });
    res.put("wall_s", &wall);
    res.put("overhead_ratio", &ratio);
    res.put("peak_rss_mb", &rss);
}

/// The traced run's fleet layers from one verified run; returns its wall.
pub fn layers(f: &Fleet, res: &mut Results) -> f64 {
    let Some(r) = run_once(f, 0, res) else {
        return f64::NAN;
    };
    res.put1("fleet.worker_busy_share", r.busy_share);
    res.put1("fleet.modules_per_s", r.modules_per_s);
    res.put1("fleet.ledger_events", r.ledger_events as f64);
    res.put1("fleet.ledger_bytes", r.ledger_bytes as f64);
    res.put1("fleet.deaths", r.deaths as f64);
    res.put1("fleet.retries", r.retries as f64);
    res.put1("fleet.bug_recall", r.detection.recall());
    res.put1("fleet.run1_share", r.detection.run1_share());
    r.wall_s
}

/// Peak memory of the fleet: the supervisor's since the last
/// [`crate::report::reset_peak_rss`] plus `workers` times the largest
/// worker's (a child's peak cannot be reset, but every worker runs the
/// same kind of modules).
pub fn peak_rss_mb(f: &Fleet) -> f64 {
    crate::report::peak_rss_mb() + f.workers as f64 * crate::report::children_peak_rss_mb()
}
