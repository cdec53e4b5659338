//! Table 3: removing one TSVD technique at a time.
//!
//! Paper's rows: full TSVD, no HB-inference, no windowing in near-miss
//! tracking, no concurrent-phase detection. Expected shape: disabling HB
//! inference or windowing loses bugs and inflates overhead (windowing most
//! of all); disabling phase detection keeps bug counts but raises overhead.

use tsvd_workloads::suite::{build_suite, SuiteConfig};

use crate::experiments::ExpOpts;
use crate::report::{overhead, Table};
use tsvd_fleet::runner::{baseline_wall_ns, overhead_pct, run_suite, DetectorKind};

/// Runs the Table 3 ablation.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let suite = build_suite(SuiteConfig {
        modules: opts.modules,
        seed: opts.seed,
    });
    let mut options = opts.run_options();
    options.runs = 2;
    let base_ns = baseline_wall_ns(&suite, &options);

    type Tweak = fn(&mut tsvd_core::TsvdConfig);
    let variants: [(&str, Tweak); 4] = [
        ("TSVD", |_| {}),
        ("No HB-inference", |c| c.enable_hb_inference = false),
        ("No windowing in near-miss", |c| c.enable_windowing = false),
        ("No concurrent phase detection", |c| {
            c.enable_phase_detection = false
        }),
    ];

    let mut table = Table::new(
        format!(
            "Table 3: removing one technique at a time ({} modules)",
            suite.len()
        ),
        &["variant", "bugs", "run1", "run2", "overhead", "delays"],
    );
    for (name, tweak) in variants {
        let mut o = options.clone();
        tweak(&mut o.config);
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
    fn table3_produces_four_rows() {
        let opts = ExpOpts {
            modules: 25,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables[0].len(), 4);
    }
}
