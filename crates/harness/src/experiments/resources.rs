//! §5.5: CPU/memory consumption of TSVD.
//!
//! The paper reports a 17 % median increase in maximum memory (near-miss
//! pairs and per-object access history) and an 82 % median increase in
//! average CPU utilization (mostly the forced-async instrumentation using
//! more cores). This report gathers the analogous counters: strategy
//! tracking bytes, injected delay time, `OnCall` traffic, and
//! synchronization-event traffic per detector.

use tsvd_workloads::suite::{build_suite, SuiteConfig};

use crate::experiments::ExpOpts;
use crate::report::Table;
use tsvd_fleet::runner::{run_suite, DetectorKind};

/// Runs the resource-consumption report.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let suite = build_suite(SuiteConfig {
        modules: opts.modules,
        seed: opts.seed,
    });
    let mut options = opts.run_options();
    options.runs = 1;

    let mut t = Table::new(
        format!("§5.5 resource consumption ({} modules, 1 run)", suite.len()),
        &[
            "detector",
            "peak tracking bytes",
            "delays",
            "delay total (ms)",
            "on_calls",
            "wall (ms)",
        ],
    );
    for kind in [
        DetectorKind::Noop,
        DetectorKind::DynamicRandom,
        DetectorKind::DataCollider,
        DetectorKind::TsvdHb,
        DetectorKind::Tsvd,
    ] {
        let outcome = run_suite(&suite, kind, &options);
        let delays = outcome.total_delays();
        let wall_ms = outcome.total_wall_ns() / 1_000_000;
        let delay_ms = outcome.total_delay_ns() / 1_000_000;
        t.row(vec![
            outcome.detector.to_string(),
            outcome.peak_strategy_bytes.to_string(),
            delays.to_string(),
            delay_ms.to_string(),
            outcome.runs[0].on_calls.to_string(),
            wall_ms.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resources_has_five_rows() {
        let opts = ExpOpts {
            modules: 25,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables[0].len(), 5);
    }
}
