//! Table 1: summary of bugs found on the Large suite.
//!
//! Reproduces the paper's three blocks — test targets, bugs found, and bug
//! properties (read-write share, same-location share, async share,
//! occurrence statistics, Dictionary/List shares) — from a TSVD run over
//! the Large suite analog, with per-violation metadata gathered directly
//! from each module's report sink.

use std::collections::{HashMap, HashSet};

use tsvd_core::TrapFileData;
use tsvd_workloads::module::Expectation;
use tsvd_workloads::suite::{build_suite, SuiteConfig};

use crate::experiments::ExpOpts;
use crate::report::{pct, Table};
use tsvd_fleet::runner::{run_module_once, DetectorKind};

/// Per-suite aggregates for the Table 1 statistics.
#[derive(Default)]
struct Stats {
    unique_bugs: usize,
    unique_locations: usize,
    stack_pairs: usize,
    read_write_bugs: usize,
    same_location_bugs: usize,
    async_bugs: usize,
    dictionary_bugs: usize,
    list_bugs: usize,
    occurrences: Vec<usize>,
    stack_depths: Vec<usize>,
    modules_with_bugs: usize,
    families_with_bugs: HashSet<String>,
    total_tests: u64,
}

/// Runs the Table 1 statistics collection.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let suite = build_suite(SuiteConfig {
        modules: opts.modules.max(50),
        seed: opts.seed ^ 0x4C41,
    });
    let mut options = opts.run_options();
    options.runs = 2;
    // Stack capture is what the stack-trace-pair and stack-depth rows need.
    options.config.capture_stacks = true;

    let mut stats = Stats::default();
    let mut trap_files: HashMap<String, TrapFileData> = HashMap::new();
    let mut families: HashSet<String> = HashSet::new();

    for module in &suite {
        stats.total_tests += u64::from(module.tests());
        families.insert(family(module.name()));
    }

    // Dedup across runs: a fresh runtime per run can re-catch a bug the
    // previous run already found, so bug identity is (module, pair).
    let mut seen_bugs: HashSet<(String, tsvd_core::near_miss::SitePair)> = HashSet::new();
    let mut seen_locations: HashSet<(String, tsvd_core::SiteId)> = HashSet::new();
    let mut seen_stack_pairs: HashSet<String> = HashSet::new();
    let mut occurrences: HashMap<(String, tsvd_core::near_miss::SitePair), usize> = HashMap::new();
    let mut buggy_module_names: HashSet<String> = HashSet::new();

    for _run in 0..options.runs {
        for module in &suite {
            let rt = run_module_once(
                module,
                DetectorKind::Tsvd,
                &options,
                trap_files.get(module.name()),
            )
            .runtime;
            if let Some(tf) = rt.export_trap_file() {
                trap_files.insert(module.name().to_owned(), tf);
            }
            let sink = rt.reports();
            if sink.total_occurrences() == 0 {
                continue;
            }
            for v in sink.violations() {
                let pair = v.pair();
                let key = (module.name().to_owned(), pair);
                if let (Some(a), Some(b)) = (&v.trapped.stack, &v.hitter.stack) {
                    seen_stack_pairs.insert(format!("{}\u{1}{a}\u{1}{b}", module.name()));
                }
                if !seen_bugs.insert(key) {
                    continue;
                }
                seen_locations.insert((module.name().to_owned(), pair.first));
                seen_locations.insert((module.name().to_owned(), pair.second));
                if v.is_read_write() {
                    stats.read_write_bugs += 1;
                }
                if v.is_same_location() {
                    stats.same_location_bugs += 1;
                }
                if module.uses_async() {
                    stats.async_bugs += 1;
                }
                match module.structure() {
                    "Dictionary" | "Cache" => stats.dictionary_bugs += 1,
                    "List" => stats.list_bugs += 1,
                    _ => {}
                }
                if let Some(stack) = &v.hitter.stack {
                    stats.stack_depths.push(stack.lines().count() / 2);
                }
            }
            for (pair, count) in sink.occurrence_counts() {
                *occurrences
                    .entry((module.name().to_owned(), pair))
                    .or_insert(0) += count;
            }
            buggy_module_names.insert(module.name().to_owned());
            stats.families_with_bugs.insert(family(module.name()));
        }
    }
    stats.unique_bugs = seen_bugs.len();
    stats.unique_locations = seen_locations.len();
    stats.stack_pairs = seen_stack_pairs.len();
    stats.occurrences = occurrences.into_values().collect();
    stats.modules_with_bugs = buggy_module_names.len();

    let planted: usize = suite.iter().map(|m| m.expectation().planted_pairs()).sum();
    let buggy_modules = suite
        .iter()
        .filter(|m| m.expectation() != Expectation::Clean)
        .count();

    let frac = |n: usize| {
        if stats.unique_bugs == 0 {
            0.0
        } else {
            n as f64 / stats.unique_bugs as f64
        }
    };

    let mut t = Table::new(
        format!(
            "Table 1: summary of bugs found (TSVD, {} modules, 2 runs)",
            suite.len()
        ),
        &["metric", "value"],
    );
    t.row(vec!["# of modules".into(), suite.len().to_string()]);
    t.row(vec!["# of tests".into(), stats.total_tests.to_string()]);
    t.row(vec!["# planted racy pairs".into(), planted.to_string()]);
    t.row(vec![
        "# modules with planted bugs".into(),
        buggy_modules.to_string(),
    ]);
    t.row(vec![
        "# of unique bugs (location pairs)".into(),
        stats.unique_bugs.to_string(),
    ]);
    t.row(vec![
        "# of unique bug locations".into(),
        stats.unique_locations.to_string(),
    ]);
    t.row(vec![
        "# of unique stack trace pairs".into(),
        stats.stack_pairs.to_string(),
    ]);
    t.row(vec![
        "% of module families with bugs".into(),
        pct(stats.families_with_bugs.len() as f64 / families.len().max(1) as f64),
    ]);
    t.row(vec![
        "% of modules with bugs".into(),
        pct(stats.modules_with_bugs as f64 / suite.len().max(1) as f64),
    ]);
    t.row(vec![
        "% of read-write bugs".into(),
        pct(frac(stats.read_write_bugs)),
    ]);
    t.row(vec![
        "% of same location bugs".into(),
        pct(frac(stats.same_location_bugs)),
    ]);
    t.row(vec![
        "% of bugs in async code".into(),
        pct(frac(stats.async_bugs)),
    ]);
    t.row(vec![
        "Avg (median) occurrence of a bug location".into(),
        format!(
            "{:.1} ({})",
            mean(&stats.occurrences),
            median(&mut stats.occurrences.clone())
        ),
    ]);
    t.row(vec![
        "Avg stack depth".into(),
        format!("{:.1}", mean(&stats.stack_depths)),
    ]);
    t.row(vec![
        "% of Dictionary bugs".into(),
        pct(frac(stats.dictionary_bugs)),
    ]);
    t.row(vec!["% of List bugs".into(), pct(frac(stats.list_bugs))]);
    vec![t]
}

fn family(name: &str) -> String {
    name.split(':').nth(1).unwrap_or(name).to_string()
}

fn mean(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<usize>() as f64 / xs.len() as f64
}

fn median(xs: &mut [usize]) -> usize {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
        assert_eq!(median(&mut []), 0);
        assert_eq!(median(&mut [3, 1, 2]), 2);
        assert_eq!(family("m0001:dict-racy"), "dict-racy");
        assert_eq!(family("plain"), "plain");
    }

    #[test]
    fn table1_runs_on_small_input() {
        let opts = ExpOpts {
            modules: 50,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].len() >= 14);
    }
}
