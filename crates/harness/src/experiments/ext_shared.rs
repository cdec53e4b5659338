//! Extension experiment (beyond the paper): one shared trap file for the
//! whole suite.
//!
//! The paper persists one trap file *per test*. In a monorepo, modules
//! exercise the same library code, so the static locations of a dangerous
//! pair discovered while testing one module exist in every other module
//! built from that code. Sharing the trap file lets modules scheduled
//! later in the same run start pre-armed — moving run-2 catches into
//! run 1 at the cost of some extra (decay-bounded) delays at pre-armed
//! locations that never race in a given module.
//!
//! In this corpus, generated modules literally share scenario source, so
//! the effect is pronounced; the mechanism is the interesting part.

use tsvd_workloads::suite::{build_suite, SuiteConfig};

use crate::experiments::ExpOpts;
use crate::report::{overhead, Table};
use tsvd_fleet::runner::{baseline_wall_ns, overhead_pct, run_suite, DetectorKind};

/// Runs the shared-trap-file comparison.
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
            "Extension: shared trap file across modules ({} modules, 2 runs)",
            suite.len()
        ),
        &["variant", "bugs", "run1", "run2", "overhead", "delays"],
    );
    for (name, shared) in [
        ("per-module trap files (paper)", false),
        ("shared trap file (extension)", true),
    ] {
        let mut o = options.clone();
        o.shared_trap_file = shared;
        let outcome = run_suite(&suite, DetectorKind::Tsvd, &o);
        table.row(vec![
            name.to_string(),
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
    fn ext_shared_produces_two_rows() {
        let opts = ExpOpts {
            modules: 25,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables[0].len(), 2);
    }
}
