//! §5.3: false-negative analysis.
//!
//! As in the paper, ground truth is best-effort: the union of bugs found by
//! all four detectors over many accumulated runs, plus the suite's planted
//! expectations. TSVD's 2-run misses are then classified into the paper's
//! three categories using the scenario ground truth:
//!
//! 1. **near-miss false negatives** — rare-schedule pairs the window never
//!    saw (the `rare-pair` scenario);
//! 2. **HB-inference false negatives** — pairs wrongly pruned as ordered;
//! 3. **delay-length / timing false negatives** — armed pairs whose delays
//!    never lined up (everything else, including single-shot points when
//!    run 2's injection misses).

use std::collections::HashSet;

use tsvd_workloads::module::Expectation;
use tsvd_workloads::suite::{build_suite, SuiteConfig};

use crate::experiments::ExpOpts;
use crate::report::Table;
use tsvd_fleet::runner::{run_suite, BugKey, DetectorKind};

/// Runs the false-negative classification.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let suite = build_suite(SuiteConfig {
        modules: opts.modules,
        seed: opts.seed,
    });
    let options = opts.run_options();

    // Best-effort ground truth: all detectors, accumulated runs.
    let truth_runs = opts.runs.max(10);
    let mut truth: HashSet<BugKey> = HashSet::new();
    for kind in DetectorKind::TABLE2 {
        let mut o = options.clone();
        o.runs = truth_runs;
        let outcome = run_suite(&suite, kind, &o);
        truth.extend(outcome.bugs.keys().cloned());
    }

    // TSVD with the paper's 2-run budget.
    let mut o2 = options.clone();
    o2.runs = 2;
    let tsvd = run_suite(&suite, DetectorKind::Tsvd, &o2);
    let found: HashSet<BugKey> = tsvd.bugs.keys().cloned().collect();
    let missed: Vec<&BugKey> = truth.difference(&found).collect();

    let mut near_miss_fn = 0usize;
    let mut delay_len_fn = 0usize;
    let mut timing_fn = 0usize;
    for (module, _pair) in &missed {
        if module.contains("rare-pair") {
            near_miss_fn += 1;
        } else if module.contains("slow-partner") {
            delay_len_fn += 1;
        } else {
            timing_fn += 1;
        }
    }

    // HB-inference FNs are planted bugs in lock-adjacent scenarios that no
    // 2-run TSVD found but whose module ground truth says are real.
    let hb_fn = suite
        .iter()
        .filter(|m| m.name().contains("lock-then-unprotected"))
        .filter(|m| m.expectation() != Expectation::Clean)
        .filter(|m| !found.iter().any(|(name, _)| name == m.name()))
        .count();

    let mut t = Table::new(
        format!(
            "§5.3 false negatives (truth: 4 detectors x {truth_runs} runs; TSVD: 2 runs; {} modules)",
            suite.len()
        ),
        &["metric", "count"],
    );
    t.row(vec!["ground-truth bugs".into(), truth.len().to_string()]);
    t.row(vec!["TSVD bugs in 2 runs".into(), found.len().to_string()]);
    t.row(vec![
        "missed by TSVD in 2 runs".into(),
        missed.len().to_string(),
    ]);
    t.row(vec![
        "  category 1: near-miss FN (rare schedules)".into(),
        near_miss_fn.to_string(),
    ]);
    t.row(vec![
        "  category 2: HB-inference FN (wrongly pruned)".into(),
        hb_fn.to_string(),
    ]);
    t.row(vec![
        "  category 3: delay-length FN (slow partner)".into(),
        delay_len_fn.to_string(),
    ]);
    t.row(vec![
        "  other timing FN".into(),
        timing_fn.saturating_sub(hb_fn).to_string(),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fneg_runs_on_tiny_suite() {
        let opts = ExpOpts {
            modules: 25,
            runs: 3,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables[0].len(), 7);
    }
}
