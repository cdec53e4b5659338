//! Proof that the batched zero-trap `OnCall` path performs zero lock
//! acquisitions and zero shared-memory writes.
//!
//! Every lock acquisition and shared write on the runtime's access paths is
//! annotated with `audit::note_lock` / `audit::note_shared_write` (see
//! `crates/core/src/audit.rs`). Under the `hotpath_audit` feature those
//! notes bump thread-local counters; this test drives a quiescent batched
//! runtime and asserts the counters stay at zero, with an inline-path
//! control leg proving the counters do fire where sharing happens.

#![cfg(feature = "hotpath_audit")]

use tsvd_core::stats::RuntimeStats;
use tsvd_core::{audit, ObjId, OpKind, Runtime, TsvdConfig};

#[test]
fn zero_trap_batched_path_performs_no_locks_and_no_shared_writes() {
    let mut cfg = TsvdConfig::for_testing();
    cfg.batch_capacity = 4_096;
    let rt = Runtime::tsvd(cfg);
    assert!(rt.is_batching());
    let site = tsvd_core::site!();

    // Warm-up: clock origin, context TLS, and the thread's buffer binding
    // are one-time setup costs, not per-call hot-path work.
    rt.on_call(ObjId(1), site, "x.write", OpKind::Write);

    audit::reset();
    for i in 0..1_000u64 {
        rt.on_call(ObjId(1 + (i % 16)), site, "x.write", OpKind::Write);
    }
    assert_eq!(
        rt.thread_buffered_events(),
        1_001,
        "everything must still be buffered (no flush happened mid-loop)"
    );
    assert_eq!(
        audit::lock_acquisitions(),
        0,
        "zero-trap batched path must acquire no locks"
    );
    assert_eq!(
        audit::shared_writes(),
        0,
        "zero-trap batched path must perform no shared-memory writes"
    );

    // Control: the flush itself *does* touch shared structures, so the
    // annotations are demonstrably live in this build.
    rt.flush_thread_events();
    assert!(
        audit::lock_acquisitions() > 0,
        "flushing must be visible to the audit"
    );
    assert!(audit::shared_writes() > 0);
}

#[test]
fn inline_path_is_visible_to_the_audit() {
    // Without batching every call takes the inline path, which by design
    // uses locks (near-miss shards, HB stripes) and shared writes
    // (counters, phase ring). The audit must see them.
    let rt = Runtime::tsvd(TsvdConfig::for_testing());
    assert!(!rt.is_batching());
    let site = tsvd_core::site!();
    audit::reset();
    for i in 0..10 {
        rt.on_call(ObjId(i), site, "x.write", OpKind::Write);
    }
    assert!(
        audit::lock_acquisitions() >= 10,
        "inline path locks per call"
    );
    assert!(audit::shared_writes() >= 10);
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
