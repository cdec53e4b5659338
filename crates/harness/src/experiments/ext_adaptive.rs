//! Extension experiment (beyond the paper): adaptive delay lengthening.
//!
//! The paper's §5.3 false-negative category 3 — "the injected delay was not
//! long enough to trigger the bug" — costs TSVD bugs whose racing partner
//! arrives on a period longer than the delay. The extension doubles a
//! location's delay after each fruitless injection (capped), resetting on a
//! catch. This experiment measures stock TSVD vs. TSVD+adaptive on a corpus
//! of `slow-partner` modules where the partner period is ~2.5× the delay.

use tsvd_workloads::scenarios::hard::slow_partner;
use tsvd_workloads::Module;

use crate::experiments::ExpOpts;
use crate::report::Table;
use tsvd_fleet::runner::{run_suite, DetectorKind, RunOptions};

fn corpus(n: usize, seed: u64) -> Vec<Module> {
    (0..n)
        .map(|i| slow_partner(seed ^ i as u64, 24))
        .enumerate()
        .map(|(i, m)| {
            Module::new(
                format!("slow{i:02}:{}", m.name()),
                m.tests(),
                m.expectation(),
                m.uses_async(),
                m.structure(),
                move |ctx| m.run(ctx),
            )
        })
        .collect()
}

/// Runs the adaptive-delay comparison.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let modules = corpus(opts.modules.clamp(8, 24), opts.seed);
    let mut table = Table::new(
        format!(
            "Extension: adaptive delay lengthening ({} slow-partner modules, 2 runs)",
            modules.len()
        ),
        &[
            "variant",
            "bugs",
            "run1",
            "run2",
            "delays",
            "delay total (ms)",
        ],
    );
    for (name, adaptive) in [("TSVD (stock)", false), ("TSVD + adaptive delay", true)] {
        let mut options: RunOptions = opts.run_options();
        options.runs = 2;
        options.config.adaptive_delay = adaptive;
        let outcome = run_suite(&modules, DetectorKind::Tsvd, &options);
        let delay_ms = outcome.total_delay_ns() / 1_000_000;
        table.row(vec![
            name.to_string(),
            outcome.total_bugs().to_string(),
            outcome.bugs_in_run(1).to_string(),
            outcome.bugs_in_run(2).to_string(),
            outcome.total_delays().to_string(),
            delay_ms.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_adaptive_produces_two_rows() {
        let opts = ExpOpts {
            modules: 8,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables[0].len(), 2);
    }
}
