//! §5.2 coverage report: instrumentation-point statistics.
//!
//! "Apart from the error reports, TSVD also reports statistics on the
//! instrumentation points that were hit during the test in any context and
//! in a concurrent context. One team found these 'coverage' statistics to
//! be very useful and identified a few blind spots in their testing, such
//! as critical parts only called in sequential contexts."
//!
//! This report aggregates exactly those statistics over the suite: per
//! collection class, how many static TSVD points executed at all, how many
//! ever executed inside a concurrent phase, and the blind-spot count.

use std::collections::HashMap;

use tsvd_workloads::module::ModuleCtx;
use tsvd_workloads::suite::{build_suite, SuiteConfig};

use crate::experiments::ExpOpts;
use crate::report::{pct, Table};
use tsvd_fleet::runner::DetectorKind;

/// Runs the coverage report (single passive pass over the suite).
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let suite = build_suite(SuiteConfig {
        modules: opts.modules,
        seed: opts.seed,
    });
    let options = opts.run_options();

    // Aggregate per collection class: (sites hit, sites hit concurrently,
    // total hits).
    let mut per_class: HashMap<String, (usize, usize, u64)> = HashMap::new();
    let mut blind_spots = 0usize;
    let mut total_sites = 0usize;

    for module in &suite {
        let rt = DetectorKind::Noop.build(options.config.clone());
        let ctx = ModuleCtx::new(rt.clone(), options.threads);
        module.run(&ctx);
        for (site, cov) in rt.stats().coverage() {
            // Attribute the site to its module's dominant structure; the
            // exact op name is not retained in coverage, so class-level
            // aggregation uses module metadata.
            let class = module.structure().to_string();
            let entry = per_class.entry(class).or_default();
            entry.0 += 1;
            if cov.concurrent_hits > 0 {
                entry.1 += 1;
            } else {
                blind_spots += 1;
                let _ = site;
            }
            entry.2 += cov.hits;
            total_sites += 1;
        }
    }

    let mut t = Table::new(
        format!(
            "§5.2 coverage statistics ({} modules, passive pass)",
            suite.len()
        ),
        &[
            "class",
            "sites hit",
            "concurrent",
            "% concurrent",
            "total hits",
        ],
    );
    let mut classes: Vec<_> = per_class.into_iter().collect();
    classes.sort_by_key(|(_, (_, _, hits))| std::cmp::Reverse(*hits));
    for (class, (sites, concurrent, hits)) in classes {
        t.row(vec![
            class,
            sites.to_string(),
            concurrent.to_string(),
            pct(concurrent as f64 / sites.max(1) as f64),
            hits.to_string(),
        ]);
    }
    let mut summary = Table::new(
        "Coverage blind spots (sites never exercised concurrently)",
        &["metric", "value"],
    );
    summary.row(vec!["total dynamic sites".into(), total_sites.to_string()]);
    summary.row(vec!["blind spots".into(), blind_spots.to_string()]);
    summary.row(vec![
        "blind-spot fraction".into(),
        pct(blind_spots as f64 / total_sites.max(1) as f64),
    ]);
    vec![t, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_runs_on_tiny_suite() {
        let opts = ExpOpts {
            modules: 25,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].is_empty());
        assert_eq!(tables[1].len(), 3);
    }
}
