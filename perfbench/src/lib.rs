//! The TSVD workspace benchmark: four closed-loop batch workloads with
//! end-to-end metrics, and a traced run that times each layer's public
//! functions from here. See `README.md` beside this crate.

pub mod analyze;
pub mod fleet;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod runtime;
pub mod tasks;

use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Calls `rep(i)` for i = 0, 1, ... until `seconds` have elapsed and at
/// least `min` repetitions ran.
pub fn until(seconds: f64, min: usize, mut rep: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < seconds {
        rep(i);
        i += 1;
    }
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["suite_small", "cpu_dense", "analyze_tree", "fleet_suite"];
