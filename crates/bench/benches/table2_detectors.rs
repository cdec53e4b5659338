//! Table 2 as a benchmark: end-to-end suite wall time per detector.
//!
//! One Criterion sample = one full pass of a small generated suite under
//! the detector (1 run, real delay injection). The relative times are the
//! overhead column of Table 2 in benchmark form.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tsvd_core::TsvdConfig;
use tsvd_fleet::runner::{run_suite, DetectorKind, RunOptions};
use tsvd_workloads::suite::{build_suite, SuiteConfig};

fn bench_suite(c: &mut Criterion) {
    let suite = build_suite(SuiteConfig {
        modules: 25,
        seed: 0xBE7C,
    });
    let options = RunOptions {
        config: TsvdConfig::paper().scaled(0.01),
        threads: 2,
        runs: 1,
        shared_trap_file: false,
        // No watched thread in benches: measure the runner itself.
        module_deadline: None,
        static_priors: None,
    };
    let mut g = c.benchmark_group("table2_suite_pass");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(4));
    for kind in [
        DetectorKind::Noop,
        DetectorKind::DynamicRandom,
        DetectorKind::DataCollider,
        DetectorKind::TsvdHb,
        DetectorKind::Tsvd,
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            b.iter(|| black_box(run_suite(&suite, k, &options).total_bugs()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_suite);
criterion_main!(benches);
