//! Figure 8: cumulative unique bugs over many runs, per detector.
//!
//! Expected shape: TSVD's curve dominates at every run count and saturates
//! early (most bugs in runs 1–2); TSVD-HB trails it; DataCollider and
//! DynamicRandom climb slowly and stay well below even after 50 runs.

use tsvd_workloads::suite::{build_suite, SuiteConfig};

use crate::experiments::ExpOpts;
use crate::report::Table;
use tsvd_fleet::runner::{run_suite, DetectorKind};

/// Runs the Figure 8 accumulation experiment. `opts.runs` controls the
/// number of runs (the paper uses 50).
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let suite = build_suite(SuiteConfig {
        modules: opts.modules,
        seed: opts.seed,
    });
    let options = opts.run_options();
    let runs = options.runs.max(2);

    let mut curves = Vec::new();
    for kind in DetectorKind::TABLE2 {
        let mut o = options.clone();
        o.runs = runs;
        let outcome = run_suite(&suite, kind, &o);
        curves.push((kind.name(), outcome.cumulative_bugs()));
    }

    let mut table = Table::new(
        format!(
            "Figure 8: cumulative unique bugs over {} runs ({} modules)",
            runs,
            suite.len()
        ),
        &["run", "DataCollider", "DynamicRandom", "TSVD-HB", "TSVD"],
    );
    for run in 0..runs {
        table.row(
            std::iter::once((run + 1).to_string())
                .chain(curves.iter().map(|(_, c)| c[run].to_string()))
                .collect(),
        );
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_produces_one_row_per_run() {
        let opts = ExpOpts {
            modules: 25,
            runs: 3,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables[0].len(), 3);
    }
}
