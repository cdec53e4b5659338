//! The in-process detector workloads, `suite_small` and `cpu_dense`: a
//! TSVD pass and an interleaved passive (Noop) pass over the same modules.

use std::collections::HashMap;
use std::time::Instant;

use tsvd_core::near_miss::SitePair;
use tsvd_core::TrapFileData;
use tsvd_fleet::runner::{run_module_once, DetectorKind, ModuleOutcome, RunOptions};
use tsvd_workloads::module::Module;

use crate::report::{percentile, Results};
use crate::{inputs, until, SETUP_REPS};

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Small-suite analog: scenario sleeps, delays, trap-file carry.
    SuiteSmall,
    /// Sleep-free clean modules: `on_call` and spawn/join dominate.
    CpuDense,
}

impl Kind {
    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SuiteSmall => "suite_small",
            Kind::CpuDense => "cpu_dense",
        }
    }

    /// The kind named `name`, if it is one of the two.
    pub fn from_name(name: &str) -> Option<Kind> {
        [Kind::SuiteSmall, Kind::CpuDense]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// Builds the module list of repetition `rep` for `seed`.
    pub fn modules(self, seed: u64, rep: usize) -> Vec<Module> {
        match self {
            Kind::SuiteSmall => inputs::suite_small(seed, rep),
            Kind::CpuDense => inputs::cpu_dense(seed, rep),
        }
    }

    /// `RunOptions::standard()`; `cpu_dense` makes one run per pass.
    pub fn options(self) -> RunOptions {
        let mut options = RunOptions::standard();
        if self == Kind::CpuDense {
            options.runs = 1;
        }
        options
    }

    /// Modules run once under each detector as warm-up.
    fn warmup_modules(self) -> usize {
        match self {
            // One full period of the suite's 25-module mix.
            Kind::SuiteSmall => 25,
            Kind::CpuDense => 6,
        }
    }
}

/// Detection outcome of one pass scored against the planted ground truth.
#[derive(Debug, Clone, Copy, Default)]
pub struct Detection {
    /// Planted pairs caught (per module, at most the planted count).
    pub caught: usize,
    /// Pairs planted across the suite.
    pub planted: usize,
    /// Distinct pairs found, and those first found in run 1.
    pub found: usize,
    /// Distinct pairs first found in run (or wave) 1.
    pub found_run1: usize,
}

impl Detection {
    /// `caught / planted`.
    pub fn recall(&self) -> f64 {
        self.caught as f64 / self.planted.max(1) as f64
    }

    /// Share of found pairs first found in run 1.
    pub fn run1_share(&self) -> f64 {
        self.found_run1 as f64 / self.found.max(1) as f64
    }
}

/// Scores per-module distinct pairs (`found[i]`: pairs of module `i`, each
/// with the 1-based run that first found it) against ground truth.
///
/// A generated module's plant list is the module itself: its declared
/// pair count is a lower bound on the racy site pairs it holds (stack-undo
/// races push/push, pop/pop and push/pop but declares one bug), so a pair
/// is outside the plant list exactly when its module is clean — the
/// paper's no-false-positive guarantee. Recall counts at most the declared
/// pairs per module.
pub fn score(modules: &[Module], found: &[Vec<usize>], res: &mut Results) -> Detection {
    let mut d = Detection::default();
    for (m, runs) in modules.iter().zip(found) {
        let planted = m.expectation().planted_pairs();
        res.check(planted > 0 || runs.is_empty(), || {
            format!("clean module {} reported {} pairs", m.name(), runs.len())
        });
        d.planted += planted;
        d.caught += runs.len().min(planted);
        d.found += runs.len();
        d.found_run1 += runs.iter().filter(|&&r| r == 1).count();
    }
    d
}

/// What one pass measured. Execution times are spans around each
/// `run_module_once` call; `loop_s` is the whole loop, bookkeeping
/// included.
#[derive(Debug, Default)]
pub struct Pass {
    /// Σ TSVD execution spans, seconds.
    pub tsvd_s: f64,
    /// Σ Noop execution spans, seconds.
    pub noop_s: f64,
    /// `[TSVD, Noop]` seconds of the pairs where TSVD ran first (index 0)
    /// and where Noop ran first (index 1).
    pub by_order: [[f64; 2]; 2],
    /// Wall of the whole loop, seconds.
    pub loop_s: f64,
    /// Per-execution TSVD `run_module_once` span, ms.
    pub module_ms: Vec<f64>,
    /// TSVD `RuntimeStats::on_calls` summed over executions.
    pub on_calls: u64,
    /// Delays injected.
    pub delays: u64,
    /// Nanoseconds slept in delays.
    pub delay_ns: u64,
    /// Traps caught.
    pub catches: u64,
    /// Peak strategy memory estimate, bytes.
    pub strategy_peak_bytes: usize,
    /// Trap-file pairs imported into runs after the first.
    pub carry_pairs: usize,
    /// TSVD detection scored against ground truth.
    pub detection: Detection,
}

/// One TSVD pass over `modules` — `runs` runs with `run_suite`'s per-run
/// reseeding and per-module trap-file carry-over — where each TSVD
/// execution is paired with a Noop execution of the same module in the
/// same run. The pair's order alternates by module and by `rep`,
/// so host drift and order effects cancel in the overhead ratio. Every
/// execution must complete, and the Noop runtime must report nothing.
pub fn pass(kind: Kind, modules: &[Module], rep: usize, res: &mut Results) -> Pass {
    let options = kind.options();
    let mut p = Pass::default();
    let mut trap_files: HashMap<&str, TrapFileData> = HashMap::new();
    let mut found: Vec<HashMap<SitePair, usize>> = vec![HashMap::new(); modules.len()];
    let start = Instant::now();
    for run in 0..options.runs {
        let mut run_options = options.clone();
        run_options.config.seed = options
            .config
            .seed
            .wrapping_add((run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for (i, m) in modules.iter().enumerate() {
            let noop_first = (i + rep).is_multiple_of(2);
            let mut noop_s = 0.0;
            if noop_first {
                noop_s = noop(m, &run_options, res);
            }
            let import = trap_files.get(m.name());
            if run > 0 {
                p.carry_pairs += import.map_or(0, |tf| tf.pairs.len());
            }
            let span = Instant::now();
            let exec = run_module_once(m, DetectorKind::Tsvd, &run_options, import);
            let tsvd_s = span.elapsed().as_secs_f64();
            if !noop_first {
                noop_s = noop(m, &run_options, res);
            }
            completed(m, exec.outcome, res);
            p.tsvd_s += tsvd_s;
            p.noop_s += noop_s;
            p.by_order[usize::from(noop_first)][0] += tsvd_s;
            p.by_order[usize::from(noop_first)][1] += noop_s;
            p.module_ms.push(tsvd_s * 1e3);
            let rt = &exec.runtime;
            p.on_calls += rt.stats().on_calls();
            p.delays += rt.stats().delays_injected();
            p.delay_ns += rt.stats().delay_total_ns();
            p.catches += rt.stats().traps_caught();
            p.strategy_peak_bytes = p.strategy_peak_bytes.max(rt.strategy_memory_bytes());
            for (pair, _) in rt.reports().occurrence_counts() {
                found[i].entry(pair).or_insert(run + 1);
            }
            if let Some(tf) = rt.export_trap_file() {
                trap_files.insert(m.name(), tf);
            }
        }
    }
    p.loop_s = start.elapsed().as_secs_f64();
    let runs: Vec<Vec<usize>> = found
        .iter()
        .map(|f| f.values().copied().collect())
        .collect();
    p.detection = score(modules, &runs, res);
    p
}

/// One Noop execution of `m`; returns its span in seconds.
fn noop(m: &Module, options: &RunOptions, res: &mut Results) -> f64 {
    let span = Instant::now();
    let exec = run_module_once(m, DetectorKind::Noop, options, None);
    let secs = span.elapsed().as_secs_f64();
    completed(m, exec.outcome, res);
    let reports = exec.runtime.reports().occurrence_counts().len();
    res.check(reports == 0, || {
        format!(
            "the passive detector reported {reports} pairs in {}",
            m.name()
        )
    });
    secs
}

fn completed(m: &Module, outcome: ModuleOutcome, res: &mut Results) {
    res.check(outcome == ModuleOutcome::Completed, || {
        format!("{} ended {}", m.name(), outcome.as_str())
    });
}

/// Builds the first repetition's suite and warms both detectors up,
/// [`SETUP_REPS`] times; returns each time in seconds. The warm-up modules
/// come from one fixed seed: whether a draw's head holds a slow hard
/// module would otherwise double the set-up time of a third of the seeds.
pub fn setup(kind: Kind, seed: u64, res: &mut Results) -> Vec<f64> {
    const WARMUP_SEED: u64 = 0;
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        std::hint::black_box(kind.modules(seed, 0));
        let warm = kind.modules(WARMUP_SEED, 0);
        pass(kind, &warm[..kind.warmup_modules()], rep, res);
        times.push(start.elapsed().as_secs_f64());
    }
    times
}

/// The end-to-end run: interleaved passes, each over its own suite, until
/// `seconds` elapse. `wall_s` is the TSVD pass time and `overhead_ratio`
/// TSVD ÷ Noop within each pass; the order effect is printed.
pub fn run(kind: Kind, seed: u64, seconds: f64, res: &mut Results) {
    let mut wall = Vec::new();
    let mut ratio = Vec::new();
    let mut rss = Vec::new();
    let mut by_order = [[0.0; 2]; 2];
    until(seconds, 3, |rep| {
        let modules = kind.modules(seed, rep);
        crate::report::reset_peak_rss();
        let p = pass(kind, &modules, rep, res);
        rss.push(crate::report::peak_rss_mb());
        wall.push(p.tsvd_s);
        ratio.push(p.tsvd_s / p.noop_s);
        for (acc, part) in by_order.iter_mut().zip(p.by_order) {
            acc[0] += part[0];
            acc[1] += part[1];
        }
    });
    res.put("wall_s", &wall);
    res.put("overhead_ratio", &ratio);
    res.put("peak_rss_mb", &rss);
    println!(
        "order effect: overhead_ratio {:.4} where Noop ran first, {:.4} where TSVD ran first",
        by_order[1][0] / by_order[1][1],
        by_order[0][0] / by_order[0][1]
    );
}

/// Records the per-layer metrics of a `suite_small` pass.
pub fn put_suite_layers(p: &Pass, res: &mut Results) {
    res.put1("core.on_calls", p.on_calls as f64);
    res.put1("core.delays", p.delays as f64);
    res.put1("core.delay_s", p.delay_ns as f64 / 1e9);
    res.put1("core.catches", p.catches as f64);
    res.put1(
        "core.bugs_per_delay",
        p.detection.found as f64 / p.delays.max(1) as f64,
    );
    res.put1("core.strategy_peak_bytes", p.strategy_peak_bytes as f64);
    res.put1("runner.module_ms.p50", percentile(&p.module_ms, 50.0));
    res.put1("runner.module_ms.p99", percentile(&p.module_ms, 99.0));
    res.put1("runner.trap_carry_pairs", p.carry_pairs as f64);
    res.put1("detect.bug_recall", p.detection.recall());
    res.put1("detect.run1_share", p.detection.run1_share());
    res.put1("detect.noop_wall_s", p.noop_s);
}
