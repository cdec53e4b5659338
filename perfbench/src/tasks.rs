//! Everything in the benchmark that spawns pool tasks: the read-mostly
//! module of the `cpu_dense` suite and the `tasks` layer probe. It uses no
//! std collection on purpose: the workspace's escape lint
//! (`repro analyze --deny-escapes`, run over the whole tree) flags raw
//! collections in files that spawn.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tsvd_collections::Dictionary;
use tsvd_core::Runtime;
use tsvd_fleet::runner::RunOptions;
use tsvd_tasks::Pool;
use tsvd_workloads::module::{Expectation, Module, ModuleCtx};

use crate::report::Results;
use crate::until;

/// A shared read-mostly table beside private writers: reader tasks look up
/// a table of `keys` entries the parent filled before the fork, while each
/// writer task updates its own `objects` private tables round-robin, so
/// reads and writes run side by side without a race.
pub fn read_mostly(readers: u32, writers: u32, keys: u32, objects: u32, iters: u32) -> Module {
    Module::new(
        "read-mostly",
        2,
        Expectation::Clean,
        true,
        "Dictionary",
        move |ctx: &ModuleCtx| {
            let table: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
            for k in 0..u64::from(keys) {
                table.set(k, k * k);
            }
            // The parent's own reads push its fill writes out of the
            // per-object near-miss history, so the readers' first lookups
            // (a fork, which TSVD does not observe, orders them) cannot
            // form a write/read near miss and draw a useless delay.
            for k in 0..ctx.runtime.config().near_miss_history as u64 {
                let _ = table.get(&k);
            }
            let mut readers_h = Vec::new();
            for r in 0..readers {
                let t = table.clone();
                readers_h.push(ctx.pool.spawn(move || {
                    let mut hits = 0u64;
                    for i in 0..u64::from(iters) {
                        if t.get(&((i + u64::from(r)) % u64::from(keys))).is_some() {
                            hits += 1;
                        }
                    }
                    hits
                }));
            }
            let mut writers_h = Vec::new();
            for w in 0..writers {
                let rt = ctx.runtime.clone();
                writers_h.push(ctx.pool.spawn(move || {
                    let private: Vec<Dictionary<u64, u64>> =
                        (0..objects).map(|_| Dictionary::new(&rt)).collect();
                    for i in 0..iters.max(objects) {
                        private[(i % objects) as usize].set(u64::from(i % 16), u64::from(i ^ w));
                    }
                    private.iter().map(|d| d.len()).sum::<usize>()
                }));
            }
            let hits: u64 = readers_h.into_iter().map(|h| h.join()).sum();
            let written: usize = writers_h.into_iter().map(|h| h.join()).sum();
            assert_eq!(hits, u64::from(readers) * u64::from(iters));
            assert!(written >= (writers * objects) as usize);
        },
    )
}

/// `Pool::spawn` plus `join` of an empty task on a two-worker pool
/// reporting to a TSVD runtime, per task; and the sync events per task.
pub fn probe(seconds: f64, res: &mut Results) {
    const TASKS: usize = 512;
    let rt = Runtime::tsvd(RunOptions::standard().config);
    let pool = Pool::with_runtime(2, Arc::clone(&rt));
    let mut us = Vec::new();
    until(seconds, 5, |_| {
        let start = Instant::now();
        let handles: Vec<_> = (0..TASKS)
            .map(|i| pool.spawn(move || black_box(i)))
            .collect();
        for h in handles {
            black_box(h.join());
        }
        us.push(start.elapsed().as_secs_f64() * 1e6 / TASKS as f64);
    });
    let per_task = rt.stats().sync_events() as f64 / (us.len() * TASKS) as f64;
    res.put("tasks.spawn_join_us", &us);
    res.put1("tasks.sync_events", per_task);
}
