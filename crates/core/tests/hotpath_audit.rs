//! The per-call cost of the zero-trap `OnCall` path, as exact counts.
//!
//! Every lock acquisition and shared write on the runtime's access paths is
//! annotated with `audit::note_lock` / `audit::note_shared_write` (see
//! `crates/core/src/audit.rs` for the counting rule). Under the
//! `hotpath_audit` feature those notes bump thread-local counters. These
//! tests drive warm runtimes with nothing armed and assert the exact number
//! of locks and shared writes per call, so any new lock or shared write on
//! the path fails here until DESIGN.md "Round 3" and this budget are
//! updated together.

#![cfg(feature = "hotpath_audit")]

use tsvd_core::clock::ms_to_ns;
use tsvd_core::stats::RuntimeStats;
use tsvd_core::{audit, ObjId, OpKind, Runtime, TsvdConfig};

const CALLS: u64 = 1_000;

/// Locks and shared writes per call over `CALLS` warm zero-trap calls from
/// one thread, spread over 16 objects.
fn per_call_budget(rt: &Runtime) -> (u64, u64) {
    let site = tsvd_core::site!();
    // Warm-up: the clock origin, the thread's context id, the site cache
    // and coverage cell, and each object's near-miss history are one-time
    // setup, not per-call work.
    for i in 0..16 {
        rt.on_call(ObjId(1 + i), site, "x.write", OpKind::Write);
    }
    audit::reset();
    for i in 0..CALLS {
        rt.on_call(ObjId(1 + (i % 16)), site, "x.write", OpKind::Write);
    }
    let (locks, writes) = (audit::lock_acquisitions(), audit::shared_writes());
    assert_eq!(locks % CALLS, 0, "locks vary per call: {locks}");
    assert_eq!(writes % CALLS, 0, "shared writes vary per call: {writes}");
    (locks / CALLS, writes / CALLS)
}

/// Test config with nothing armed and a delay so long that no scheduling
/// pause can look like an HB-inference gap (which takes one more lock).
fn config() -> TsvdConfig {
    let mut cfg = TsvdConfig::for_testing();
    cfg.delay_ns = ms_to_ns(60_000);
    cfg
}

#[test]
fn zero_trap_inline_call_has_an_exact_per_call_budget() {
    // Noop: no locks. Four shared writes: the phase ring's cursor
    // `fetch_add` and slot store, the `on_calls` counter, and the site's
    // coverage cell `hits` (`concurrent_hits` stays untouched: one thread
    // is one context, so the phase is sequential). The trap table's
    // live-trap count and the trap set's pair count are loads only.
    let rt = Runtime::noop(config());
    assert_eq!(per_call_budget(&rt), (0, 4), "noop (locks, shared writes)");
    assert_eq!(rt.stats().on_calls(), 16 + CALLS);

    // TSVD adds two locks and no lock-free shared write: the HB inference
    // stripe of this context (its last-access time) and the near-miss
    // stripe of the object (its history).
    let rt = Runtime::tsvd(config());
    assert_eq!(per_call_budget(&rt), (2, 4), "tsvd (locks, shared writes)");
    assert_eq!(rt.stats().delays_injected(), 0, "nothing was armed");
}

#[test]
fn site_interning_and_coverage_take_no_lock_after_first_visit() {
    let stats = RuntimeStats::new();
    for round in 0..3 {
        if round == 1 {
            // Round 0 was every site's first visit on this thread.
            audit::reset();
        }
        for (i, site) in [tsvd_core::site!(), tsvd_core::site!()]
            .into_iter()
            .enumerate()
        {
            stats.record_call(site, i == 0);
        }
    }
    assert_eq!(
        audit::lock_acquisitions(),
        0,
        "cached site lookups and coverage updates must take no lock"
    );
    assert_eq!(stats.on_calls(), 6);
}
