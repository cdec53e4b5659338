//! Table 4: TSVD on the nine open-source project analogs.
//!
//! Paper's columns: LoC, # tests, # runs TSVD needed, # TSVs found,
//! overhead. Expected shape: every project's TSVs trigger within 2 runs,
//! mostly in run 1, at modest overhead.

use tsvd_workloads::module::ModuleCtx;
use tsvd_workloads::opensource::projects;

use crate::experiments::ExpOpts;
use crate::report::{overhead, Table};
use tsvd_fleet::runner::{run_module_once, DetectorKind};

/// Runs the Table 4 open-source evaluation.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let mut table = Table::new(
        "Table 4: TSVD on open-source project analogs",
        &[
            "project",
            "LoC",
            "# tests",
            "# run",
            "# TSV",
            "paper # TSV",
            "overhead",
        ],
    );
    let options = opts.run_options();

    for project in projects() {
        // Baseline wall time: one passive run.
        let rt = DetectorKind::Noop.build(options.config.clone());
        let ctx = ModuleCtx::new(rt, options.threads);
        let t0 = std::time::Instant::now();
        project.module.run(&ctx);
        let base_ns = t0.elapsed().as_nanos().max(1) as u64;

        // Up to two TSVD runs with trap-file carry-over, as in the paper.
        let mut trap_file = None;
        let mut found = 0usize;
        let mut found_run = 0usize;
        let mut wall_total = 0u64;
        let mut runs_used = 0usize;
        for run in 1..=2 {
            let module_run = run_module_once(
                &project.module,
                DetectorKind::Tsvd,
                &options,
                trap_file.as_ref(),
            );
            let (rt, wall) = (module_run.runtime, module_run.wall_ns);
            wall_total += wall;
            runs_used = run;
            trap_file = rt.export_trap_file();
            let bugs = rt.reports().unique_bugs();
            if bugs > 0 {
                found = bugs;
                found_run = run;
                break;
            }
        }
        let ovh = (wall_total as f64 / runs_used as f64 - base_ns as f64) / base_ns as f64 * 100.0;
        table.row(vec![
            project.info.name.to_string(),
            format!("{:.1}K", project.info.loc_k),
            project.info.tests.to_string(),
            if found > 0 {
                found_run.to_string()
            } else {
                "miss".to_string()
            },
            found.to_string(),
            project.info.paper_tsvs.to_string(),
            overhead(ovh),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_nine_rows() {
        let tables = run(&ExpOpts::default());
        assert_eq!(tables[0].len(), 9);
    }
}
