//! Table 2: comparing TSVD with the other detection techniques.
//!
//! Paper's columns: total bugs, bugs in run 1, bugs in run 2, overhead vs.
//! uninstrumented baseline, and number of injected delays — for
//! DataCollider, DynamicRandom, TSVD-HB, and TSVD on the Small suite.
//! Expected shape: TSVD finds the most bugs (most of them in run 1) at the
//! lowest overhead; the random techniques find few; TSVD-HB sits between
//! with several-times-higher overhead.

use tsvd_workloads::suite::{build_suite, SuiteConfig};

use crate::experiments::ExpOpts;
use crate::report::{overhead, Table};
use tsvd_fleet::runner::{
    baseline_wall_ns, check_no_false_positives, overhead_pct, run_suite, DetectorKind,
};

/// Runs the Table 2 comparison.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let suite = build_suite(SuiteConfig {
        modules: opts.modules,
        seed: opts.seed,
    });
    let mut options = opts.run_options();
    options.runs = 2;

    let base_ns = baseline_wall_ns(&suite, &options);
    let mut table = Table::new(
        format!(
            "Table 2: detector comparison ({} modules, 2 runs)",
            suite.len()
        ),
        &["detector", "bugs", "run1", "run2", "overhead", "delays"],
    );
    for kind in DetectorKind::TABLE2 {
        let outcome = run_suite(&suite, kind, &options);
        check_no_false_positives(&suite, &outcome)
            .expect("no detector may report a bug in a clean module");
        table.row(vec![
            outcome.detector.to_string(),
            outcome.total_bugs().to_string(),
            outcome.bugs_in_run(1).to_string(),
            outcome.bugs_in_run(2).to_string(),
            overhead(overhead_pct(&outcome, base_ns)),
            outcome.total_delays().to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_produces_four_rows() {
        let opts = ExpOpts {
            modules: 25,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 4);
    }
}
