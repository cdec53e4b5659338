//! Per-layer probes for the traced run: the `core` hot path replayed part
//! by part, the `collections` wrapper and `workloads` suite generation,
//! each timed through the layer's public functions. The `tasks` probe
//! lives in `tasks.rs`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use tsvd_collections::Dictionary;
use tsvd_core::access::{Access, ObjId, OpKind};
use tsvd_core::context::{self, ContextId};
use tsvd_core::near_miss::NearMissTracker;
use tsvd_core::phase::PhaseBuffer;
use tsvd_core::rng::{mix, SplitMix64};
use tsvd_core::site::{SiteData, SiteId};
use tsvd_core::stats::RuntimeStats;
use tsvd_core::strategy::{Strategy, Tsvd};
use tsvd_core::trap::TrapTable;
use tsvd_core::{now_ns, Runtime, TsvdConfig};
use tsvd_fleet::runner::RunOptions;

use crate::report::{median, Results};
use crate::{inputs, until};

/// Accesses one context makes before the replay switches context.
const CHUNK: usize = 64;
/// Accesses in one replay of the stream.
const STREAM: usize = 1 << 18;

/// A run of accesses by one context.
struct Chunk {
    context: ContextId,
    accesses: Vec<Access>,
}

/// A race-free access stream with the `cpu_dense` shape: eight contexts
/// working on private objects (a handful to thousands each, half the
/// calls writes) beside reads of a few shared objects nobody writes.
fn stream(seed: u64) -> Vec<Chunk> {
    let mut rng = SplitMix64::new(mix(seed ^ 0x434F_5245));
    let contexts: Vec<(ContextId, u64)> = (0..8)
        .map(|_| (context::fresh_id(), 4u64 << rng.below(11)))
        .collect();
    let sites: Vec<SiteId> = (1..=24)
        .map(|line| {
            SiteId::intern(SiteData {
                file: "perfbench/replay.rs",
                line,
                column: 9,
            })
        })
        .collect();
    let mut time_ns = 0u64;
    (0..STREAM / CHUNK)
        .map(|_| {
            let c = rng.below(contexts.len() as u64) as usize;
            let (context, objects) = contexts[c];
            let accesses = (0..CHUNK)
                .map(|_| {
                    time_ns += 40;
                    let (obj, site, op_name, kind) = if rng.below(4) == 0 {
                        let k = rng.below(16);
                        (u64::MAX - k, 16 + k % 8, "Dictionary.get", OpKind::Read)
                    } else if rng.below(2) == 0 {
                        let k = rng.below(objects);
                        ((c as u64) << 32 | k, k % 8, "Dictionary.set", OpKind::Write)
                    } else {
                        let k = rng.below(objects);
                        (
                            (c as u64) << 32 | k,
                            8 + k % 8,
                            "Dictionary.get",
                            OpKind::Read,
                        )
                    };
                    Access {
                        context,
                        obj: ObjId(obj),
                        site: sites[site as usize],
                        op_name,
                        kind,
                        time_ns,
                    }
                })
                .collect();
            Chunk { context, accesses }
        })
        .collect()
}

/// Replays `chunks` through `f` with each chunk's context installed;
/// returns nanoseconds per access, timing only the access loops.
fn replay(chunks: &[Chunk], mut f: impl FnMut(&Access)) -> f64 {
    let mut ns = 0u128;
    let mut n = 0usize;
    for chunk in chunks {
        let _ctx = context::enter(chunk.context);
        let start = Instant::now();
        for a in &chunk.accesses {
            f(black_box(a));
        }
        ns += start.elapsed().as_nanos();
        n += chunk.accesses.len();
    }
    ns as f64 / n as f64
}

/// Times `Runtime::on_call` under Noop and TSVD and each part of the TSVD
/// call on its own, over the same stream; records the `core.*` ns metrics
/// and the gap between the parts' sum and the whole. Returns the median
/// TSVD `on_call` ns.
pub fn core(seed: u64, seconds: f64, res: &mut Results) -> f64 {
    let config: TsvdConfig = RunOptions::standard().config;
    let chunks = stream(seed);
    let noop = Runtime::noop(config.clone());
    let tsvd = Runtime::tsvd(config.clone());
    let phase = PhaseBuffer::new(config.phase_buffer);
    let stats = RuntimeStats::with_shards(config.stats_shards);
    let traps = TrapTable::with_shards(config.trap_shards);
    let near_miss = NearMissTracker::with_shards(
        config.near_miss_history,
        Some(config.near_miss_window_ns),
        config.max_tracked_objects,
        config.near_miss_shards,
    );
    let strategy = Tsvd::new(&config);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 7];
    until(seconds, 4, |rep| {
        let parts: [&dyn Fn() -> f64; 7] = [
            &|| replay(&chunks, |a| noop.on_call(a.obj, a.site, a.op_name, a.kind)),
            &|| replay(&chunks, |a| tsvd.on_call(a.obj, a.site, a.op_name, a.kind)),
            &|| {
                replay(&chunks, |_| {
                    black_box(context::current());
                    black_box(now_ns());
                })
            },
            &|| {
                replay(&chunks, |a| {
                    let concurrent = phase.record_and_check(a.context);
                    stats.record_call(a.site, concurrent);
                })
            },
            &|| {
                replay(&chunks, |a| {
                    black_box(traps.check_for_trap(a));
                })
            },
            &|| {
                replay(&chunks, |a| {
                    black_box(near_miss.record(a));
                })
            },
            &|| {
                replay(&chunks, |a| {
                    black_box(strategy.on_access(a));
                })
            },
        ];
        // Rotate the order so no part always runs first or last.
        for k in 0..parts.len() {
            let i = (k + rep) % parts.len();
            let ns = parts[i]();
            // The first repetition fills the tables: warm-up, not timed.
            if rep > 0 {
                cols[i].push(ns);
            }
        }
    });
    let names = [
        "core.oncall_ns.noop",
        "core.oncall_ns.tsvd",
        "core.context_clock_ns",
        "core.coverage_ns",
        "core.trap_check_ns",
        "core.nearmiss_ns",
        "core.strategy_ns",
    ];
    for (name, col) in names.iter().zip(&cols) {
        res.put(name, col);
    }
    let m: Vec<f64> = cols.iter().map(|c| median(c)).collect();
    // Near-miss recording is a part of the strategy's own `on_access`, so
    // it is reported but not added again.
    let parts = m[2] + m[3] + m[4] + m[6];
    res.put1("core.layer_sum_gap", (parts - m[1]).abs() / m[1]);
    res.check(tsvd.stats().delays_injected() == 0, || {
        format!(
            "core replay: TSVD injected {} delays on a race-free stream",
            tsvd.stats().delays_injected()
        )
    });
    res.check(tsvd.reports().occurrence_counts().is_empty(), || {
        "core replay: TSVD reported a violation on a race-free stream".into()
    });
    m[1]
}

/// `Dictionary` get/set under a Noop runtime minus the same operations on
/// a plain `HashMap`: the instrumented wrapper's own cost per operation.
pub fn collections(seconds: f64, res: &mut Results) {
    const OPS: u64 = 1 << 16;
    let rt = Runtime::noop(RunOptions::standard().config);
    let dict: Dictionary<u64, u64> = Dictionary::new(&rt);
    let mut plain: HashMap<u64, u64> = HashMap::new();
    let mut gaps = Vec::new();
    until(seconds, 5, |_| {
        let start = Instant::now();
        for i in 0..OPS {
            if i % 2 == 0 {
                dict.set(i % 512, i);
            } else {
                black_box(dict.get(&(i % 512)));
            }
        }
        let wrapped = start.elapsed().as_nanos() as f64 / OPS as f64;
        let start = Instant::now();
        for i in 0..OPS {
            if i % 2 == 0 {
                plain.insert(i % 512, i);
            } else {
                black_box(plain.get(&(i % 512)).copied());
            }
        }
        let raw = start.elapsed().as_nanos() as f64 / OPS as f64;
        gaps.push(wrapped - raw);
    });
    res.put("collections.wrapper_ns", &gaps);
}

/// `build_suite` for the `suite_small` configuration.
pub fn workloads(seed: u64, res: &mut Results) {
    let mut times = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        black_box(inputs::suite_small(seed, 0));
        times.push(start.elapsed().as_secs_f64());
    }
    res.put("workloads.build_s", &times);
}
