//! CI regression gate for the `OnCall` scaling benchmarks.
//!
//! `oncall_gate --write BENCH_oncall.json` measures every (shape, detector,
//! threads) point with the same worker loop the Criterion bench uses and
//! persists the results; `--check BENCH_oncall.json [--quick]` re-measures
//! and fails (exit 1) if any (shape, detector) aggregate regressed by more
//! than 15%.
//!
//! Raw nanoseconds-per-access are machine-dependent, so the stored numbers
//! that gate CI are *normalized*: each point is divided by the same run's
//! `noop @ 1 thread` time for the same shape. That ratio is "detector cost
//! in units of bare-instrumentation cost" and transfers across machines.

use std::process::ExitCode;

use serde::{Deserialize, Serialize};
use tsvd_bench::{make_sites, measure_per_access_ns, Factory, SHAPES};
use tsvd_core::Runtime;

/// Detector table the gate persists. Smaller than the Criterion bench's:
/// the gate exists to catch hot-path regressions, not to profile every
/// strategy variant.
const DETECTORS: &[(&str, Factory)] = &[("noop", Runtime::noop), ("tsvd", Runtime::tsvd)];

const THREADS: &[usize] = &[1, 2, 4, 8];

/// Allowed growth of a normalized ratio before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 1.15;

#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    shape: String,
    detector: String,
    threads: u32,
    per_access_ns: f64,
    /// `per_access_ns` ÷ the same run's `noop @ 1 thread` for this shape.
    normalized: f64,
}

/// Gate unit: the geometric mean of one detector's normalized ratios
/// across all thread counts of one shape. Single (shape, detector,
/// threads) points on a loaded CI runner are too noisy to gate at 15%;
/// averaging the four thread counts is, while still catching any real
/// hot-path regression (which moves every thread count together).
#[derive(Debug, Serialize, Deserialize)]
struct Aggregate {
    shape: String,
    detector: String,
    normalized_geomean: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    schema_version: u32,
    mode: String,
    /// Per-point measurements (informational; not gated individually).
    entries: Vec<Entry>,
    /// The gated aggregates.
    aggregates: Vec<Aggregate>,
}

struct Params {
    iters: u64,
    reps: usize,
}

fn measure_all(params: &Params, mode: &str) -> BenchFile {
    let mut entries = Vec::new();
    for shape in SHAPES {
        let sites = make_sites(shape.n_sites);
        let noop_t1 =
            measure_per_access_ns(Runtime::noop, 1, params.iters, shape, &sites, params.reps);
        for &(name, factory) in DETECTORS {
            for &threads in THREADS {
                let per_access_ns = if name == "noop" && threads == 1 {
                    noop_t1
                } else {
                    measure_per_access_ns(
                        factory,
                        threads,
                        params.iters,
                        shape,
                        &sites,
                        params.reps,
                    )
                };
                eprintln!(
                    "  {:<12} {:<13} {} thr: {:>8.1} ns/access ({:.2}x noop@1)",
                    shape.name,
                    name,
                    threads,
                    per_access_ns,
                    per_access_ns / noop_t1
                );
                entries.push(Entry {
                    shape: shape.name.to_string(),
                    detector: name.to_string(),
                    threads: threads as u32,
                    per_access_ns,
                    normalized: per_access_ns / noop_t1,
                });
            }
        }
    }
    let aggregates = aggregate(&entries);
    BenchFile {
        schema_version: 1,
        mode: mode.to_string(),
        entries,
        aggregates,
    }
}

fn aggregate(entries: &[Entry]) -> Vec<Aggregate> {
    let mut out: Vec<Aggregate> = Vec::new();
    for shape in SHAPES {
        for &(name, _) in DETECTORS {
            let ratios: Vec<f64> = entries
                .iter()
                .filter(|e| e.shape == shape.name && e.detector == name)
                .map(|e| e.normalized)
                .collect();
            if ratios.is_empty() {
                continue;
            }
            let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
            out.push(Aggregate {
                shape: shape.name.to_string(),
                detector: name.to_string(),
                normalized_geomean: geomean,
            });
        }
    }
    out
}

/// Aggregate normalized-ratio comparison against the stored baseline.
fn check_against(stored: &BenchFile, current: &BenchFile) -> Result<(), String> {
    let mut failures = Vec::new();
    for base in &stored.aggregates {
        let Some(cur) = current
            .aggregates
            .iter()
            .find(|a| a.shape == base.shape && a.detector == base.detector)
        else {
            failures.push(format!(
                "{}/{} missing from current run",
                base.shape, base.detector
            ));
            continue;
        };
        // Regressions only: getting faster than the baseline is fine.
        if cur.normalized_geomean > base.normalized_geomean * REGRESSION_TOLERANCE {
            failures.push(format!(
                "{}/{} regressed: {:.2}x noop@1 across threads \
                 (baseline {:.2}x, tolerance {:.0}%)",
                base.shape,
                base.detector,
                cur.normalized_geomean,
                base.normalized_geomean,
                (REGRESSION_TOLERANCE - 1.0) * 100.0
            ));
        }
    }
    if failures.is_empty() {
        eprintln!(
            "baseline: {} aggregates within {:.0}% of stored normalized ratios",
            stored.aggregates.len(),
            (REGRESSION_TOLERANCE - 1.0) * 100.0
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn write_atomically(path: &str, file: &BenchFile) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(file).expect("bench file serializes");
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, json + "\n")?;
    std::fs::rename(&tmp, path)
}

fn usage() -> ExitCode {
    eprintln!("usage: oncall_gate (--write PATH | --check PATH) [--quick]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut write_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write" => write_path = args.next(),
            "--check" => check_path = args.next(),
            "--quick" => quick = true,
            _ => return usage(),
        }
    }
    let (params, mode) = if quick {
        (
            Params {
                iters: 120_000,
                reps: 5,
            },
            "quick",
        )
    } else {
        (
            Params {
                iters: 400_000,
                reps: 5,
            },
            "full",
        )
    };

    match (write_path, check_path) {
        (Some(path), None) => {
            eprintln!("measuring ({mode} mode) ...");
            let current = measure_all(&params, mode);
            if let Err(e) = write_atomically(&path, &current) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
            ExitCode::SUCCESS
        }
        (None, Some(path)) => {
            let stored: BenchFile = match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
            {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("failed to load baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("measuring ({mode} mode) ...");
            let current = measure_all(&params, mode);
            if let Err(e) = check_against(&stored, &current) {
                eprintln!("REGRESSION vs {path}:\n{e}");
                ExitCode::FAILURE
            } else {
                eprintln!("oncall gate: OK");
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
