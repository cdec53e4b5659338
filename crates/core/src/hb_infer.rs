//! Happens-before inference from delay propagation (§3.4.4).
//!
//! The crucial observation: if `loc1` happens-before `loc2`, a delay injected
//! right before `loc1` *causes* a proportional delay of `loc2` — e.g. when
//! both are protected by one lock, the delayed thread holds the lock, so the
//! other thread blocks. TSVD therefore watches each thread's access stream
//! for unusually long gaps that overlap an injected delay, and infers a
//! likely HB edge from the delayed location to the blocked location — with no
//! synchronization modeling at all.
//!
//! Concretely (Fig. 6): a delay `d` at `loc1` spans `[t1_start, t1_end]`. A
//! later access at `loc2` by a different thread `Thd2` at time `t2`, whose
//! previous access was at `t0`, yields an inferred edge `loc1 → loc2` iff
//!
//! 1. `t2 − t0 ≥ δ_hb · delay_time` (the gap is long), and
//! 2. `t0 ≤ t1_end` and `t1_start ≤ t2` (the gap overlaps the delay).
//!
//! If several delays qualify, the edge is attributed to the most recently
//! finished one. By transitivity, the next `k_hb` accesses of `Thd2` are also
//! treated as happening after `loc1`.
//!
//! `on_access` runs on every TSVD access, so the per-context state is
//! lock-striped by context id: threads running different contexts mostly
//! take different locks. The delay records and the inferred edges share
//! one lock that an access touches only on a long gap, a new edge, or a
//! near-miss lookup ([`HbInference::is_inferred`]). Lock order: stripe,
//! then shared — never the reverse.

use std::collections::{HashMap, HashSet, VecDeque};

use parking_lot::Mutex;

use crate::audit;
use crate::context::ContextId;
use crate::near_miss::SitePair;
use crate::site::SiteId;

/// Lock stripes for per-context state.
const STRIPES: usize = 16;

/// A finished delay injection, kept for causality attribution.
#[derive(Debug, Clone, Copy)]
pub struct DelayRecord {
    /// Location the delay was injected at.
    pub site: SiteId,
    /// Context that slept.
    pub context: ContextId,
    /// When the delay began, nanoseconds.
    pub start_ns: u64,
    /// When the delay ended, nanoseconds.
    pub end_ns: u64,
}

#[derive(Debug, Default)]
struct ThreadState {
    /// Timestamp of this context's previous access (`t0`), if any.
    last_access_ns: Option<u64>,
    /// Transitivity budget: source site and remaining accesses that inherit
    /// the happens-after edge.
    pending_source: Option<(SiteId, usize)>,
}

/// One stripe of per-context state, on its own cache line so stripes
/// taken by different threads do not share one.
#[derive(Default)]
#[repr(align(64))]
struct Stripe(Mutex<HashMap<ContextId, ThreadState>>);

#[derive(Default)]
struct Shared {
    delays: VecDeque<DelayRecord>,
    /// All edges inferred so far, as normalized pairs. A pair in this set is
    /// never re-added to the trap set.
    inferred: HashSet<SitePair>,
}

/// Happens-before inference engine.
pub struct HbInference {
    stripes: Box<[Stripe]>,
    shared: Mutex<Shared>,
    /// `δ_hb · delay_time` in nanoseconds.
    gap_ns: u64,
    /// `k_hb`.
    transitivity: usize,
    /// Bound on retained delay records.
    delay_history: usize,
}

impl HbInference {
    /// Creates an engine with the given blocking gap (`δ_hb · delay_time`),
    /// transitivity window `k_hb`, and delay-record retention.
    pub fn new(gap_ns: u64, transitivity: usize, delay_history: usize) -> Self {
        HbInference {
            stripes: (0..STRIPES).map(|_| Stripe::default()).collect(),
            shared: Mutex::new(Shared::default()),
            gap_ns,
            transitivity,
            delay_history: delay_history.max(1),
        }
    }

    fn stripe_of(&self, context: ContextId) -> usize {
        // Context ids are dense counters: consecutive ids take
        // consecutive stripes.
        (context.0 % self.stripes.len() as u64) as usize
    }

    /// Records a finished delay so later long gaps can be attributed to it.
    ///
    /// The delaying thread's own "last access" is advanced to the delay's
    /// end: the sleep opens a gap in that thread's access stream which must
    /// not be mistaken for blocking caused by *someone else's* overlapping
    /// delay — otherwise two simultaneously trapped threads would infer a
    /// bogus HB edge between their racy locations and prune the real pair.
    pub fn record_delay(&self, delay: DelayRecord) {
        {
            let mut threads = self.stripes[self.stripe_of(delay.context)].0.lock();
            let state = threads.entry(delay.context).or_default();
            state.last_access_ns = Some(state.last_access_ns.unwrap_or(0).max(delay.end_ns));
        }
        let mut shared = self.shared.lock();
        shared.delays.push_back(delay);
        while shared.delays.len() > self.delay_history {
            shared.delays.pop_front();
        }
    }

    /// Observes an access by `context` at `site` at time `now_ns`, returning
    /// the site pairs newly inferred to be HB-ordered (and therefore to be
    /// pruned from the trap set).
    pub fn on_access(&self, context: ContextId, site: SiteId, now_ns: u64) -> Vec<SitePair> {
        audit::note_lock();
        let mut threads = self.stripes[self.stripe_of(context)].0.lock();
        let state = threads.entry(context).or_default();
        let last = state.last_access_ns.replace(now_ns);

        // Transitivity: this access inherits a previously inferred source.
        let mut source = state.pending_source.take().map(|(src, remaining)| {
            if remaining > 1 {
                state.pending_source = Some((src, remaining - 1));
            }
            src
        });

        // Fresh inference: long gap overlapping a finished delay by another
        // context.
        if let Some(t0) = last {
            if now_ns.saturating_sub(t0) >= self.gap_ns && self.gap_ns > 0 {
                // Attribute to the most recently *finished* qualifying delay.
                audit::note_lock();
                let hit = self
                    .shared
                    .lock()
                    .delays
                    .iter()
                    .filter(|d| d.context != context)
                    .filter(|d| t0 <= d.end_ns && d.start_ns <= now_ns)
                    .max_by_key(|d| d.end_ns)
                    .map(|d| d.site);
                if let Some(src) = hit {
                    source = Some(src);
                    if self.transitivity > 0 {
                        state.pending_source = Some((src, self.transitivity));
                    }
                }
            }
        }
        drop(threads);

        let Some(src) = source else {
            return Vec::new();
        };
        let pair = SitePair::new(src, site);
        audit::note_lock();
        if self.shared.lock().inferred.insert(pair) {
            vec![pair]
        } else {
            Vec::new()
        }
    }

    /// Returns `true` if `pair` has been inferred HB-ordered.
    pub fn is_inferred(&self, pair: SitePair) -> bool {
        self.shared.lock().inferred.contains(&pair)
    }

    /// Total number of inferred edges (stats).
    pub fn inferred_count(&self) -> usize {
        self.shared.lock().inferred.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ms_to_ns;
    use crate::site::SiteData;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "hb_infer_test.rs",
            line: n,
            column: 1,
        })
    }

    /// Gap threshold 50 ms (δ_hb = 0.5 of a 100 ms delay), k_hb = 2.
    fn engine() -> HbInference {
        HbInference::new(ms_to_ns(50), 2, 64)
    }

    #[test]
    fn long_gap_overlapping_delay_infers_edge() {
        let e = engine();
        let t1 = ContextId(1);
        let t2 = ContextId(2);
        // Thd2 establishes its previous access at t0 = 10 ms.
        assert!(e.on_access(t2, site(20), ms_to_ns(10)).is_empty());
        // Thd1 delays at loc1 from 20 ms to 120 ms.
        e.record_delay(DelayRecord {
            site: site(1),
            context: t1,
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(120),
        });
        // Thd2's next access at 130 ms: gap 120 ms ≥ 50 ms, t0 ≤ t1_end.
        let pairs = e.on_access(t2, site(21), ms_to_ns(130));
        assert_eq!(pairs, vec![SitePair::new(site(1), site(21))]);
        assert!(e.is_inferred(SitePair::new(site(1), site(21))));
    }

    #[test]
    fn short_gap_infers_nothing() {
        let e = engine();
        let t2 = ContextId(2);
        e.on_access(t2, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: ms_to_ns(5),
            end_ns: ms_to_ns(30),
        });
        // Gap of 25 ms < 50 ms threshold.
        assert!(e.on_access(t2, site(21), ms_to_ns(35)).is_empty());
    }

    #[test]
    fn gap_not_overlapping_delay_infers_nothing() {
        let e = engine();
        let t2 = ContextId(2);
        // Delay finished entirely before Thd2's previous access.
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: 0,
            end_ns: ms_to_ns(5),
        });
        e.on_access(t2, site(20), ms_to_ns(10));
        assert!(e.on_access(t2, site(21), ms_to_ns(200)).is_empty());
    }

    #[test]
    fn self_inflicted_gap_is_not_causality() {
        // Two threads trapped simultaneously: each thread's post-sleep gap
        // is its *own* delay, not evidence of blocking by the other's.
        let e = engine();
        let (t1, t2) = (ContextId(1), ContextId(2));
        e.on_access(t1, site(10), ms_to_ns(1));
        e.on_access(t2, site(20), ms_to_ns(2));
        // Both delay 0–100 ms (overlapping).
        e.record_delay(DelayRecord {
            site: site(10),
            context: t1,
            start_ns: ms_to_ns(3),
            end_ns: ms_to_ns(103),
        });
        e.record_delay(DelayRecord {
            site: site(20),
            context: t2,
            start_ns: ms_to_ns(4),
            end_ns: ms_to_ns(104),
        });
        // Each thread's next access right after its own sleep: the gap is
        // self-inflicted and must not mint an HB edge.
        assert!(e.on_access(t1, site(11), ms_to_ns(104)).is_empty());
        assert!(e.on_access(t2, site(21), ms_to_ns(105)).is_empty());
    }

    #[test]
    fn own_delay_is_not_causality() {
        // A thread's own delay trivially lengthens its gap; it must not be
        // attributed as an HB edge from itself.
        let e = engine();
        let t1 = ContextId(1);
        e.on_access(t1, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: t1,
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(120),
        });
        assert!(e.on_access(t1, site(21), ms_to_ns(130)).is_empty());
    }

    #[test]
    fn first_access_has_no_gap() {
        let e = engine();
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: 0,
            end_ns: ms_to_ns(100),
        });
        // No previous access for Thd2 → no gap → no inference.
        assert!(e
            .on_access(ContextId(2), site(21), ms_to_ns(110))
            .is_empty());
    }

    #[test]
    fn attribution_picks_most_recently_finished_delay() {
        let e = engine();
        let t2 = ContextId(2);
        e.on_access(t2, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: ms_to_ns(15),
            end_ns: ms_to_ns(60),
        });
        e.record_delay(DelayRecord {
            site: site(2),
            context: ContextId(3),
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(110),
        });
        let pairs = e.on_access(t2, site(21), ms_to_ns(120));
        assert_eq!(pairs, vec![SitePair::new(site(2), site(21))]);
    }

    #[test]
    fn transitivity_extends_k_accesses() {
        let e = engine(); // k_hb = 2
        let t2 = ContextId(2);
        e.on_access(t2, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(120),
        });
        // Triggering access inherits the edge...
        let p0 = e.on_access(t2, site(21), ms_to_ns(130));
        assert_eq!(p0.len(), 1);
        // ...and the next k_hb = 2 accesses do as well.
        let p1 = e.on_access(t2, site(22), ms_to_ns(131));
        assert_eq!(p1, vec![SitePair::new(site(1), site(22))]);
        let p2 = e.on_access(t2, site(23), ms_to_ns(132));
        assert_eq!(p2, vec![SitePair::new(site(1), site(23))]);
        // The budget is then exhausted.
        let p3 = e.on_access(t2, site(24), ms_to_ns(133));
        assert!(p3.is_empty());
    }

    #[test]
    fn zero_transitivity_only_marks_trigger() {
        let e = HbInference::new(ms_to_ns(50), 0, 64);
        let t2 = ContextId(2);
        e.on_access(t2, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(120),
        });
        assert_eq!(e.on_access(t2, site(21), ms_to_ns(130)).len(), 1);
        assert!(e.on_access(t2, site(22), ms_to_ns(131)).is_empty());
    }

    #[test]
    fn duplicate_edges_reported_once() {
        // Zero transitivity so leftover k_hb budget from one round cannot
        // mint extra edges in the next.
        let e = HbInference::new(ms_to_ns(50), 0, 64);
        let t2 = ContextId(2);
        for round in 0..3u64 {
            let base = round * 1_000;
            e.on_access(t2, site(20), ms_to_ns(base + 10));
            e.record_delay(DelayRecord {
                site: site(1),
                context: ContextId(1),
                start_ns: ms_to_ns(base + 20),
                end_ns: ms_to_ns(base + 120),
            });
            let pairs = e.on_access(t2, site(21), ms_to_ns(base + 130));
            if round == 0 {
                assert_eq!(pairs.len(), 1);
            } else {
                assert!(pairs.is_empty(), "edge already known");
            }
        }
        assert_eq!(e.inferred_count(), 1);
    }

    #[test]
    fn delay_history_is_bounded() {
        let e = HbInference::new(ms_to_ns(50), 2, 4);
        for i in 0..100 {
            e.record_delay(DelayRecord {
                site: site(1),
                context: ContextId(1),
                start_ns: i,
                end_ns: i + 1,
            });
        }
        assert!(e.shared.lock().delays.len() <= 4);
    }

    #[test]
    fn striped_state_stress_infers_only_the_planted_edge() {
        // Gap 50 µs, k_hb = 0, room for every delay the workers record.
        let e = HbInference::new(50_000, 0, 1 << 16);
        let stripes = e.stripes.len() as u64;
        // Workers: contexts 1 and 1 + stripes share a stripe, 2 and 3 have
        // their own. The planted context shares a stripe with 1 as well.
        let workers = [1, 1 + stripes, 2, 3].map(ContextId);
        let planted = ContextId(1 + 2 * stripes);
        assert_eq!(e.stripe_of(workers[0]), e.stripe_of(workers[1]));
        assert_eq!(e.stripe_of(workers[0]), e.stripe_of(planted));
        assert_ne!(e.stripe_of(workers[0]), e.stripe_of(workers[2]));
        assert_ne!(e.stripe_of(workers[2]), e.stripe_of(workers[3]));

        let pairs = std::thread::scope(|scope| {
            for (w, &ctx) in workers.iter().enumerate() {
                let e = &e;
                scope.spawn(move || {
                    let own = site(300 + w as u32);
                    let mut t = 0u64;
                    for i in 0..2_000u64 {
                        // Short gaps only, except each worker's own
                        // 100 µs delays: those must never mint an edge.
                        t += 1_000;
                        assert!(e.on_access(ctx, own, t).is_empty());
                        if i % 10 == 0 {
                            e.record_delay(DelayRecord {
                                site: own,
                                context: ctx,
                                start_ns: t,
                                end_ns: t + 100_000,
                            });
                            t += 100_000;
                        }
                    }
                });
            }
            // The planted scenario runs far beyond the workers' time range
            // (they stay below 30 ms), so no worker delay overlaps its gap.
            let base = ms_to_ns(1_000);
            let mut found = e.on_access(planted, site(310), base);
            e.record_delay(DelayRecord {
                site: site(311),
                context: ContextId(999),
                start_ns: base + 1_000,
                end_ns: base + 101_000,
            });
            found.extend(e.on_access(planted, site(312), base + 102_000));
            found
        });
        assert_eq!(pairs, vec![SitePair::new(site(311), site(312))]);
        assert_eq!(e.inferred_count(), 1, "exactly the planted pair");
    }
}
