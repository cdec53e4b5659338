//! Integration tests for the thread-local batching fast path.
//!
//! The contract under test: batching changes *when* observations reach the
//! shared analysis structures, never *which* observations do — and every
//! buffered observation is delivered before (or because) a trap goes live.

use std::sync::mpsc;
use std::time::Duration;

use tsvd_core::context::{self, ContextId};
use tsvd_core::near_miss::SitePair;
use tsvd_core::trap_file::{PairOrigin, TrapFileData};
use tsvd_core::{ObjId, OpKind, Runtime, SiteId, TsvdConfig};

/// A deterministic profile: no delays (budget zero), no phase gating, no
/// windowing, no HB inference — pair discovery depends only on the access
/// sequence, so batched and unbatched runs must agree exactly.
fn deterministic_config() -> TsvdConfig {
    let mut c = TsvdConfig::for_testing();
    c.max_delay_per_run_ns = 0;
    c.enable_phase_detection = false;
    c.enable_windowing = false;
    c.enable_hb_inference = false;
    c.decay_factor = 0.0;
    c
}

fn armed_pairs(rt: &Runtime) -> Vec<SitePair> {
    let data = rt.export_trap_file().expect("tsvd exports state");
    let mut pairs = data.to_pairs();
    pairs.sort();
    pairs
}

fn drive(rt: &Runtime, sites: &[SiteId; 3]) {
    // Three logical contexts interleave writes over four objects: plenty of
    // conflicting near-miss material, all on one driver thread.
    for round in 0..8u64 {
        for (i, site) in sites.iter().enumerate() {
            let _g = context::enter(ContextId(9_000 + i as u64));
            rt.on_call(ObjId(round % 4), *site, "x.write", OpKind::Write);
        }
    }
}

#[test]
fn batched_replay_discovers_the_same_pairs() {
    let sites = [tsvd_core::site!(), tsvd_core::site!(), tsvd_core::site!()];

    let unbatched = Runtime::tsvd(deterministic_config());
    assert!(!unbatched.is_batching());
    drive(&unbatched, &sites);

    let batched = Runtime::tsvd({
        let mut c = deterministic_config();
        c.batch_capacity = 10_000; // Everything stays local until the flush.
        c
    });
    assert!(batched.is_batching());
    drive(&batched, &sites);
    assert_eq!(
        batched.stats().on_calls(),
        0,
        "quiescent accesses must not touch shared statistics"
    );
    assert!(batched.thread_buffered_events() > 0);
    batched.flush_thread_events();

    assert_eq!(batched.thread_buffered_events(), 0);
    assert_eq!(batched.stats().on_calls(), unbatched.stats().on_calls());
    let expected = armed_pairs(&unbatched);
    assert!(!expected.is_empty(), "the schedule must arm something");
    assert_eq!(
        armed_pairs(&batched),
        expected,
        "batched replay must arm exactly the pairs the inline path armed"
    );
}

#[test]
fn arming_mid_storm_drains_every_live_thread() {
    // Two threads buffer conflicting observations, then a pair is armed
    // while their buffers are still local. The cooperative drain must make
    // every pre-arm near miss visible at each thread's next touch point —
    // including the (site_a, site_b) pair neither thread has flushed yet.
    let mut cfg = deterministic_config();
    cfg.batch_capacity = 1_000;
    // Allow real (tiny) delays so arming actually requests a drain.
    cfg.max_delay_per_run_ns = u64::MAX;
    cfg.delay_ns = 1;
    let rt = Runtime::tsvd(cfg);
    let site_a = tsvd_core::site!();
    let site_b = tsvd_core::site!();
    let seed_x = tsvd_core::site!();
    let seed_y = tsvd_core::site!();

    let (to_t1, t1_step) = mpsc::channel::<()>();
    let (to_t2, t2_step) = mpsc::channel::<()>();
    let (report, progress) = mpsc::channel::<&'static str>();

    std::thread::scope(|scope| {
        let rt1 = &rt;
        let rep1 = report.clone();
        scope.spawn(move || {
            rt1.on_call(ObjId(7), site_a, "x.write", OpKind::Write);
            assert_eq!(rt1.thread_buffered_events(), 1, "quiescent call buffers");
            rep1.send("t1-buffered").expect("main alive");
            t1_step.recv().expect("step signal");
            // Gate is closed now: this call must drain the buffer first.
            rt1.on_call(ObjId(991), site_a, "x.write", OpKind::Write);
            assert_eq!(rt1.thread_buffered_events(), 0, "drain on next touch");
        });
        let rt2 = &rt;
        let rep2 = report;
        scope.spawn(move || {
            rt2.on_call(ObjId(7), site_b, "x.write", OpKind::Write);
            assert_eq!(rt2.thread_buffered_events(), 1);
            rep2.send("t2-buffered").expect("main alive");
            t2_step.recv().expect("step signal");
            rt2.on_call(ObjId(992), site_b, "x.write", OpKind::Write);
            assert_eq!(rt2.thread_buffered_events(), 0);
        });

        for _ in 0..2 {
            progress
                .recv_timeout(Duration::from_secs(10))
                .expect("worker buffered");
        }
        assert_eq!(rt.stats().on_calls(), 0, "the storm is still local");

        // Mid-storm arming: seed an unrelated pair, then trip a delay at it
        // so a live trap requests the force-drain.
        let mut seed = TrapFileData::default();
        seed.push((seed_x.to_string(), seed_y.to_string()), PairOrigin::Static);
        rt.import_trap_file(&seed);
        rt.on_call(ObjId(99), seed_x, "x.write", OpKind::Write);
        assert!(rt.stats().drain_requests() >= 1, "arming requested a drain");

        to_t1.send(()).expect("t1 alive");
        to_t2.send(()).expect("t2 alive");
    });

    assert!(
        rt.stats().on_calls() >= 5,
        "every pre-arm observation must reach the shared stats, got {}",
        rt.stats().on_calls()
    );
    assert!(
        armed_pairs(&rt).contains(&SitePair::new(site_a, site_b)),
        "the near miss both threads had buffered must be armed after the drain"
    );
}

#[test]
fn thread_exit_flushes_the_local_buffer() {
    let mut cfg = deterministic_config();
    cfg.batch_capacity = 1_000;
    let rt = Runtime::tsvd(cfg);
    let site = tsvd_core::site!();
    // A plain `join`, not a scope: a scope returns once the closure ends,
    // which can be before the thread's TLS destructors have run.
    let worker = {
        let rt = rt.clone();
        std::thread::spawn(move || {
            for i in 0..5 {
                rt.on_call(ObjId(i), site, "x.write", OpKind::Write);
            }
            assert_eq!(rt.thread_buffered_events(), 5);
            // No explicit flush: the TLS destructor must deliver these.
        })
    };
    worker.join().expect("worker panicked");
    assert_eq!(rt.stats().on_calls(), 5, "exit flush delivers every event");
    assert!(rt.stats().thread_exit_flushes() >= 1);
    assert_eq!(rt.stats().batch_events_flushed(), 5);
}

#[test]
fn batched_runtime_still_catches_forced_collision() {
    // End-to-end through the batched fast path: near miss (buffered, then
    // flushed) arms the pair, the armed pair closes the gate, and the
    // subsequent inline collision is caught red-handed.
    let mut c = TsvdConfig::for_testing();
    c.decay_factor = 0.0;
    c.batch_capacity = 64;
    let delay = Duration::from_nanos(c.delay_ns);
    for _attempt in 0..3 {
        let rt = Runtime::tsvd(c.clone());
        let obj = ObjId(0xBA7C4);
        let site_a = tsvd_core::site!();
        let site_b = tsvd_core::site!();
        // (1) Near miss: the spawned thread's access flushes at thread
        // exit; ours needs an explicit flush to complete the pair.
        std::thread::scope(|scope| {
            scope.spawn(|| rt.on_call(obj, site_a, "x.write", OpKind::Write));
        });
        rt.on_call(obj, site_b, "x.write", OpKind::Write);
        rt.flush_thread_events();
        // (2)+(3) The armed pair closed the gate, so both sides now take
        // the inline path: trap, sleep, collide.
        std::thread::scope(|scope| {
            scope.spawn(|| rt.on_call(obj, site_a, "x.write", OpKind::Write));
            std::thread::sleep(delay / 4);
            rt.on_call(obj, site_b, "x.write", OpKind::Write);
        });
        if rt.reports().unique_bugs() >= 1 {
            return;
        }
    }
    panic!("forced collision was not caught in 3 attempts");
}
