//! Samples, metrics, correctness bookkeeping and the result line.

use std::fmt::Write as _;

/// The end-to-end metrics every workload prints with `--trace 0`, as
/// `(name, unit)`. `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("overhead_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics the traced run prints, as `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.oncall_ns.noop", "ns"),
    ("core.oncall_ns.tsvd", "ns"),
    ("core.context_clock_ns", "ns"),
    ("core.coverage_ns", "ns"),
    ("core.trap_check_ns", "ns"),
    ("core.nearmiss_ns", "ns"),
    ("core.strategy_ns", "ns"),
    ("core.layer_sum_gap", "ratio"),
    ("core.on_calls", "count"),
    ("core.delays", "count"),
    ("core.delay_s", "s"),
    ("core.catches", "count"),
    ("core.bugs_per_delay", "ratio"),
    ("core.strategy_peak_bytes", "bytes"),
    ("core.oncall_share.cpu_dense", "ratio"),
    ("core.oncall_share.suite_small", "ratio"),
    ("collections.wrapper_ns", "ns"),
    ("tasks.spawn_join_us", "us"),
    ("tasks.sync_events", "count"),
    ("workloads.build_s", "s"),
    ("runner.module_ms.p50", "ms"),
    ("runner.module_ms.p99", "ms"),
    ("runner.trap_carry_pairs", "count"),
    ("detect.bug_recall", "ratio"),
    ("detect.run1_share", "ratio"),
    ("detect.noop_wall_s", "s"),
    ("fleet.worker_busy_share", "ratio"),
    ("fleet.modules_per_s", "1/s"),
    ("fleet.ledger_events", "count"),
    ("fleet.ledger_bytes", "bytes"),
    ("fleet.deaths", "count"),
    ("fleet.retries", "count"),
    ("fleet.bug_recall", "ratio"),
    ("fleet.run1_share", "ratio"),
    ("analyze.cold_s", "s"),
    ("analyze.warm_s", "s"),
    ("analyze.edit_s", "s"),
    ("analyze.lex_ms", "ms"),
    ("analyze.fragments_ms", "ms"),
    ("analyze.propagate_ms", "ms"),
    ("analyze.file_pass_ms", "ms"),
    ("analyze.cache_load_ms", "ms"),
    ("analyze.cache_store_ms", "ms"),
    ("analyze.merge_ms", "ms"),
    ("analyze.edit_analysis_hits", "count"),
    ("analyze.edit_fragment_hits", "count"),
    ("analyze.fanout_speedup", "ratio"),
    ("analyze.files", "count"),
    ("analyze.tokens", "count"),
    ("analyze.pairs", "count"),
    ("analyze.pruned_pairs", "count"),
    ("analyze.static_precision", "ratio"),
    ("analyze.static_recall", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// One reported metric: its median over `samples` measurements.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median of the samples.
    pub value: f64,
    /// Number of samples behind the value.
    pub samples: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Metrics plus correctness checks of one benchmark run.
#[derive(Debug, Default)]
pub struct Results {
    metrics: Vec<Metric>,
    /// Checked operations.
    pub attempted: u64,
    /// Failure descriptions, one per failed operation.
    pub failures: Vec<String>,
}

impl Results {
    /// Records the median of `samples` under `name`, whose unit comes from
    /// the metric tables.
    pub fn put(&mut self, name: &'static str, samples: &[f64]) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"));
        let metric = Metric {
            name,
            unit,
            value: median(samples),
            samples: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = metric,
            None => self.metrics.push(metric),
        }
    }

    /// Records a single measurement.
    pub fn put1(&mut self, name: &'static str, value: f64) {
        self.put(name, &[value]);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts one checked operation, and a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Renders the human-readable table, the failure list, and the final
    /// JSON line carrying exactly the metrics of `table`.
    pub fn render(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<30} {:>16} {:<6} {:>4} {:>14} {:>14}",
            "metric", "median", "unit", "n", "min", "max"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<30} {:>16.6} {:<6} {:>4} {:>14.6} {:>14.6}",
                m.name, m.value, m.unit, m.samples, m.min, m.max
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        let mut json = String::new();
        let mut missing = Vec::new();
        for (name, unit) in table {
            let value = self.get(name).filter(|v| v.is_finite());
            let Some(value) = value else {
                missing.push(*name);
                continue;
            };
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let failed = self.failures.len() as u64 + missing.len() as u64;
        for name in &missing {
            let _ = writeln!(out, "FAILED: metric {name} was not measured");
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            failed == 0,
            self.attempted.max(1) + missing.len() as u64,
        );
        out
    }
}

/// Resets this process's peak resident set to its current one, so the
/// next [`peak_rss_mb`] covers only what runs in between.
pub fn reset_peak_rss() {
    // "5" resets VmHWM (Linux 4.0+); without it the peak stays cumulative.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Largest peak resident set of any waited-for child process, in MB.
pub fn children_peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two `timeval`s, then `ru_maxrss` (kB) and
    // thirteen more longs.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the
    // C `struct rusage` on 64-bit Linux, which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
    }

    #[test]
    fn render_flags_unmeasured_metrics() {
        let mut r = Results::default();
        r.put1("wall_s", 1.5);
        r.check(true, String::new);
        let text = r.render(END_TO_END);
        let last = text.lines().last().expect("result line");
        assert!(last.starts_with("{\"correct\": false"), "{last}");
        assert!(last.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
