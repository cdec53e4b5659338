//! `tsvd-perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload for about `S` seconds and prints a metric table, any
//! correctness failures, and as its last line a JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! `perfbench/run.py` builds this binary and `repro` and then runs it.

use std::path::PathBuf;
use std::process::ExitCode;

use tsvd_perfbench::report::{Results, END_TO_END, PER_LAYER};
use tsvd_perfbench::runtime::{self, Kind};
use tsvd_perfbench::{analyze, fleet, layers, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    work: PathBuf,
    rustc: String,
    commit: String,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repro: PathBuf::new(),
        work: PathBuf::from("perfbench-work"),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => args.trace = value == "1",
            "--repro" => args.repro = PathBuf::from(value),
            "--work-dir" => args.work = PathBuf::from(value),
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsvd-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} cpu=\"{}\" rustc=\"{}\" commit={}",
        cpu_model(),
        args.rustc,
        args.commit
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("tsvd-perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(1);
    }
    let mut res = Results::default();
    if args.trace {
        traced(&args, nproc, &mut res);
        print!("{}", res.render(PER_LAYER));
    } else {
        end_to_end(&args, nproc, &mut res);
        print!("{}", res.render(END_TO_END));
    }
    let _ = std::fs::remove_dir_all(&args.work);
    ExitCode::SUCCESS
}

fn end_to_end(args: &Args, nproc: usize, res: &mut Results) {
    if let Some(kind) = Kind::from_name(&args.workload) {
        let setup = runtime::setup(kind, args.seed, res);
        res.put("setup_s", &setup);
        runtime::run(kind, args.seed, args.seconds, res);
        return;
    }
    match args.workload.as_str() {
        "analyze_tree" => {
            let (mut tree, setup) = analyze::setup(args.seed, &args.work);
            res.put("setup_s", &setup);
            analyze::run(&mut tree, args.seconds, nproc, res);
        }
        _ => match fleet::setup(args.seed, &args.repro, &args.work, nproc) {
            Ok((f, setup)) => {
                res.put("setup_s", &setup);
                fleet::run(&f, args.seconds, res);
            }
            Err(e) => res.check(false, || e),
        },
    }
}

/// The traced run: every layer measured, each on the workload that
/// exercises it, plus the tracing overhead on the selected workload.
fn traced(args: &Args, nproc: usize, res: &mut Results) {
    let share = args.seconds * 0.1;
    let oncall_ns = layers::core(args.seed, 2.0 * share, res);
    layers::collections(share / 2.0, res);
    tsvd_perfbench::tasks::probe(share / 2.0, res);
    layers::workloads(args.seed, res);

    let mut overhead = f64::NAN;
    let mut shares = [0.0; 2];
    for (kind, share) in [Kind::SuiteSmall, Kind::CpuDense]
        .into_iter()
        .zip(&mut shares)
    {
        let modules = kind.modules(args.seed, 0);
        let p = runtime::pass(kind, &modules, 0, res);
        *share = oncall_ns * p.on_calls as f64 / 1e9 / p.tsvd_s;
        if kind == Kind::SuiteSmall {
            runtime::put_suite_layers(&p, res);
            res.put1("core.oncall_share.suite_small", *share);
        } else {
            res.put1("core.oncall_share.cpu_dense", *share);
        }
        if args.workload == kind.name() {
            // The spans and counter reads are the tracing; the rest of the
            // loop is the runner's own trap-file handling.
            overhead = p.loop_s / (p.tsvd_s + p.noop_s);
        }
    }
    println!(
        "prediction: on_call CPU is a large share of the TSVD pass on cpu_dense ({:.3}) \
         and a small one on suite_small ({:.3}): {}",
        shares[1],
        shares[0],
        if shares[1] > 4.0 * shares[0] {
            "holds"
        } else {
            "does not hold"
        }
    );

    let (mut tree, _) = analyze::setup(args.seed, &args.work);
    let analyze_overhead = analyze::layers(&mut tree, 2, nproc, res);
    if args.workload == "analyze_tree" {
        overhead = analyze_overhead;
    }

    match fleet::setup(args.seed, &args.repro, &args.work, nproc) {
        Ok((f, _)) => {
            let traced_wall = fleet::layers(&f, res);
            if args.workload == "fleet_suite" {
                let plain = fleet::run_once(&f, 0, res).map_or(f64::NAN, |r| r.wall_s);
                overhead = traced_wall / plain;
            }
        }
        Err(e) => res.check(false, || e),
    }
    res.put1("trace.overhead_ratio", overhead);
}
