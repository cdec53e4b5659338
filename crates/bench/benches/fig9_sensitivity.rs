//! Figure 9 as a benchmark: TSVD suite wall time at selected parameter
//! extremes.
//!
//! One sample = one suite pass under TSVD with one knob moved off its
//! default. The decay-factor-0 row is the pathological configuration the
//! paper singles out (up to 66× overhead on delay-hungry modules).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tsvd_core::TsvdConfig;
use tsvd_fleet::runner::{run_suite, DetectorKind, RunOptions};
use tsvd_workloads::suite::{build_suite, SuiteConfig};

/// One sensitivity row: a label plus the knob tweak it applies.
type Setting = (&'static str, Box<dyn Fn(&mut TsvdConfig)>);

fn bench_sensitivity(c: &mut Criterion) {
    let suite = build_suite(SuiteConfig {
        modules: 25,
        seed: 0xF19,
    });
    let base = RunOptions {
        config: TsvdConfig::paper().scaled(0.01),
        threads: 2,
        runs: 1,
        shared_trap_file: false,
        module_deadline: None,
        static_priors: None,
    };

    let settings: Vec<Setting> = vec![
        ("default", Box::new(|_| {})),
        ("decay_0", Box::new(|c| c.decay_factor = 0.0)),
        ("decay_0.8", Box::new(|c| c.decay_factor = 0.8)),
        ("no_windowing", Box::new(|c| c.enable_windowing = false)),
        (
            "no_hb_inference",
            Box::new(|c| c.enable_hb_inference = false),
        ),
        ("delay_x4", Box::new(|c| c.delay_ns *= 4)),
    ];

    let mut g = c.benchmark_group("fig9_tsvd_pass");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(4));
    for (name, tweak) in &settings {
        let mut options = base.clone();
        tweak(&mut options.config);
        g.bench_with_input(BenchmarkId::from_parameter(name), &options, |b, o| {
            b.iter(|| black_box(run_suite(&suite, DetectorKind::Tsvd, o).total_bugs()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sensitivity);
criterion_main!(benches);
