//! Near-miss tracking (§3.4.2).
//!
//! TSVD keeps, per object, a short history of recent accesses. An incoming
//! access that conflicts with a history entry from a different context within
//! the physical window `T_nm` is a *near miss*: the pair of static program
//! locations involved becomes a dangerous-pair candidate that delay injection
//! will later try to convert into a real, caught violation.
//!
//! The tracker is written to on every instrumented access, so the object
//! table is lock-striped by object id: concurrent accesses to different
//! objects take different locks. The memory bound is likewise per shard —
//! when a shard is full, a clock (second-chance) hand evicts its own
//! coldest object. Filling the table with fresh objects therefore never
//! wipes the histories of hot objects in other shards, and repeatedly
//! accessed objects in the *same* shard survive a pass of the hand.

use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;

use crate::access::{Access, ObjId, OpKind};
use crate::context::ContextId;
use crate::site::SiteId;

const DEFAULT_SHARDS: usize = 16;

/// An unordered pair of static program locations.
///
/// This is the paper's unit of bug identity and of trap-set membership: the
/// pair is normalized so `{a, b}` and `{b, a}` compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SitePair {
    /// The smaller site of the pair.
    pub first: SiteId,
    /// The larger site of the pair (may equal `first`: 34 % of the paper's
    /// bugs are two threads executing the *same* location).
    pub second: SiteId,
}

impl SitePair {
    /// Builds a normalized pair.
    pub fn new(a: SiteId, b: SiteId) -> SitePair {
        if a <= b {
            SitePair {
                first: a,
                second: b,
            }
        } else {
            SitePair {
                first: b,
                second: a,
            }
        }
    }

    /// Returns `true` if `site` is one of the endpoints.
    pub fn contains(&self, site: SiteId) -> bool {
        self.first == site || self.second == site
    }

    /// Returns the endpoint other than `site` (or `site` itself for a
    /// same-location pair).
    pub fn other(&self, site: SiteId) -> SiteId {
        if self.first == site {
            self.second
        } else {
            self.first
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct HistEntry {
    context: ContextId,
    site: SiteId,
    kind: OpKind,
    time_ns: u64,
}

struct ObjHistory {
    hist: VecDeque<HistEntry>,
    /// Second-chance bit: set on every access, cleared when the clock hand
    /// passes over the object.
    hot: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<ObjId, ObjHistory>,
    /// Clock order over this shard's objects.
    order: VecDeque<ObjId>,
}

/// Per-object bounded access history with near-miss extraction.
pub struct NearMissTracker {
    shards: Box<[Mutex<Shard>]>,
    /// `N_nm`: entries kept per object.
    history: usize,
    /// `T_nm` in nanoseconds; `None` disables windowing (Table 3 ablation).
    window_ns: Option<u64>,
    /// Bound on distinct objects tracked per shard.
    per_shard_objects: usize,
}

impl NearMissTracker {
    /// Creates a tracker keeping `history` entries per object and treating
    /// conflicting accesses within `window_ns` as near misses. Passing
    /// `None` for `window_ns` disables the window (ablation mode): any two
    /// conflicting accesses in the retained history form a near miss.
    pub fn new(history: usize, window_ns: Option<u64>, max_objects: usize) -> Self {
        Self::with_shards(history, window_ns, max_objects, DEFAULT_SHARDS)
    }

    /// Like [`NearMissTracker::new`] with an explicit lock-stripe count.
    /// The stripe count is clamped to `max_objects` so the total object
    /// bound (`max_objects`, split evenly across stripes) always holds.
    pub fn with_shards(
        history: usize,
        window_ns: Option<u64>,
        max_objects: usize,
        shards: usize,
    ) -> Self {
        let max_objects = max_objects.max(1);
        let shards = shards.clamp(1, max_objects);
        NearMissTracker {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            history: history.max(1),
            window_ns,
            per_shard_objects: (max_objects / shards).max(1),
        }
    }

    fn shard_index(&self, obj: ObjId) -> usize {
        let h = obj.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.shards.len()
    }

    /// Records `access` and returns the dangerous pairs it forms with
    /// retained history entries (deduplicated within this call).
    pub fn record(&self, access: &Access) -> Vec<SitePair> {
        crate::audit::note_lock();
        let mut guard = self.shards[self.shard_index(access.obj)].lock();
        // Single map lookup on the hot (existing-object) path: with many
        // live objects the lookup is a cache miss, so a `contains_key` +
        // `get_mut` sequence would double the dominant cost of recording.
        let shard = &mut *guard;
        let mut is_new = false;
        let entry = match shard.map.entry(access.obj) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let entry = e.into_mut();
                entry.hot = true;
                entry
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                // New objects start cold so a churn of one-shot objects
                // cannot strip proven-hot ones of their second chance
                // within one pass of the clock hand (eviction runs below,
                // once this entry's borrow is released).
                is_new = true;
                shard.order.push_back(access.obj);
                v.insert(ObjHistory {
                    hist: VecDeque::with_capacity(self.history),
                    hot: false,
                })
            }
        };

        let mut pairs = Vec::new();
        for prev in entry.hist.iter() {
            if prev.context == access.context {
                continue;
            }
            if !prev.kind.conflicts_with(access.kind) {
                continue;
            }
            if let Some(window) = self.window_ns {
                if access.time_ns.abs_diff(prev.time_ns) > window {
                    continue;
                }
            }
            let pair = SitePair::new(prev.site, access.site);
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }

        entry.hist.push_back(HistEntry {
            context: access.context,
            site: access.site,
            kind: access.kind,
            time_ns: access.time_ns,
        });
        while entry.hist.len() > self.history {
            entry.hist.pop_front();
        }

        if is_new {
            // Per-shard memory bound: the clock hand evicts this shard's
            // coldest object, giving recently touched ones a second chance.
            // The just-inserted object is exempt (it is cold by design and
            // must survive its own insertion).
            while shard.map.len() > self.per_shard_objects {
                let Some(victim) = shard.order.pop_front() else {
                    break;
                };
                if victim == access.obj {
                    shard.order.push_back(victim);
                    continue;
                }
                match shard.map.get_mut(&victim) {
                    Some(e) if e.hot => {
                        e.hot = false;
                        shard.order.push_back(victim);
                    }
                    _ => {
                        shard.map.remove(&victim);
                    }
                }
            }
        }
        pairs
    }

    /// Approximate number of bytes retained (for the §5.5 resource report).
    pub fn approx_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.map.len() * std::mem::size_of::<(ObjId, ObjHistory)>()
                    + s.map
                        .values()
                        .map(|v| v.hist.capacity() * std::mem::size_of::<HistEntry>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Number of objects currently tracked.
    pub fn tracked_objects(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{SiteData, SiteId};

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "near_miss_test.rs",
            line: n,
            column: 1,
        })
    }

    fn acc(ctx: u64, obj: u64, s: SiteId, kind: OpKind, t_ms: u64) -> Access {
        Access {
            context: ContextId(ctx),
            obj: ObjId(obj),
            site: s,
            op_name: "t.op",
            kind,
            time_ns: t_ms * 1_000_000,
        }
    }

    fn tracker() -> NearMissTracker {
        NearMissTracker::new(5, Some(100 * 1_000_000), 1024)
    }

    #[test]
    fn conflicting_accesses_within_window_pair_up() {
        let t = tracker();
        assert!(t.record(&acc(1, 7, site(1), OpKind::Write, 0)).is_empty());
        let pairs = t.record(&acc(2, 7, site(2), OpKind::Read, 50));
        assert_eq!(pairs, vec![SitePair::new(site(1), site(2))]);
    }

    #[test]
    fn outside_window_is_not_a_near_miss() {
        let t = tracker();
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        let pairs = t.record(&acc(2, 7, site(2), OpKind::Write, 500));
        assert!(pairs.is_empty());
    }

    #[test]
    fn same_context_is_not_a_near_miss() {
        let t = tracker();
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        assert!(t.record(&acc(1, 7, site(2), OpKind::Write, 1)).is_empty());
    }

    #[test]
    fn read_read_is_not_a_near_miss() {
        let t = tracker();
        t.record(&acc(1, 7, site(1), OpKind::Read, 0));
        assert!(t.record(&acc(2, 7, site(2), OpKind::Read, 1)).is_empty());
    }

    #[test]
    fn different_objects_do_not_pair() {
        let t = tracker();
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        assert!(t.record(&acc(2, 8, site(2), OpKind::Write, 1)).is_empty());
    }

    #[test]
    fn same_site_pair_is_allowed() {
        // 34 % of the paper's bugs are two threads at one location.
        let t = tracker();
        t.record(&acc(1, 7, site(9), OpKind::Write, 0));
        let pairs = t.record(&acc(2, 7, site(9), OpKind::Write, 1));
        assert_eq!(pairs, vec![SitePair::new(site(9), site(9))]);
    }

    #[test]
    fn history_is_bounded() {
        let t = NearMissTracker::new(2, Some(100 * 1_000_000), 1024);
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        t.record(&acc(1, 7, site(2), OpKind::Write, 1));
        t.record(&acc(1, 7, site(3), OpKind::Write, 2));
        // site(1) has been evicted (history = 2), so only 2 pairs form.
        let pairs = t.record(&acc(2, 7, site(4), OpKind::Write, 3));
        assert_eq!(pairs.len(), 2);
        assert!(!pairs.contains(&SitePair::new(site(1), site(4))));
    }

    #[test]
    fn windowless_mode_pairs_regardless_of_age() {
        let t = NearMissTracker::new(5, None, 1024);
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        let pairs = t.record(&acc(2, 7, site(2), OpKind::Write, 60_000));
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn multiple_history_hits_dedup_within_call() {
        let t = tracker();
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        t.record(&acc(1, 7, site(1), OpKind::Write, 1));
        let pairs = t.record(&acc(2, 7, site(2), OpKind::Write, 2));
        assert_eq!(pairs.len(), 1, "same pair reported once per call");
    }

    #[test]
    fn object_table_is_bounded() {
        let t = NearMissTracker::new(5, Some(100 * 1_000_000), 4);
        for obj in 0..16u64 {
            t.record(&acc(1, obj, site(1), OpKind::Write, 0));
        }
        assert!(t.tracked_objects() <= 4);
    }

    #[test]
    fn full_table_still_pairs_unrelated_hot_objects() {
        // Regression: the old eviction cleared the WHOLE table when the
        // object cap was reached, wiping hot objects' histories. With
        // per-shard eviction, flooding other shards must leave a hot
        // object's history intact so its near miss still pairs.
        let t = NearMissTracker::with_shards(5, Some(100 * 1_000_000), 8, 4);
        let hot = ObjId(0);
        let hot_shard = t.shard_index(hot);
        t.record(&acc(1, 0, site(1), OpKind::Write, 0));
        let mut flooded = 0;
        let mut candidate = 1u64;
        while flooded < 32 {
            if t.shard_index(ObjId(candidate)) != hot_shard {
                t.record(&acc(1, candidate, site(2), OpKind::Write, 1));
                flooded += 1;
            }
            candidate += 1;
        }
        let pairs = t.record(&acc(2, 0, site(3), OpKind::Read, 2));
        assert_eq!(pairs, vec![SitePair::new(site(1), site(3))]);
    }

    #[test]
    fn hot_object_survives_in_shard_eviction() {
        // One stripe, tiny cap: a stream of one-shot objects churns through
        // the shard, but the clock hand's second chance keeps the
        // repeatedly-touched object alive.
        let t = NearMissTracker::with_shards(5, Some(100 * 1_000_000), 4, 1);
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        for obj in 100..116u64 {
            t.record(&acc(1, obj, site(2), OpKind::Write, 1));
            t.record(&acc(1, 7, site(1), OpKind::Write, 1)); // Keep 7 hot.
        }
        assert!(t.tracked_objects() <= 4);
        let pairs = t.record(&acc(2, 7, site(3), OpKind::Read, 2));
        assert!(
            pairs.contains(&SitePair::new(site(1), site(3))),
            "hot object's history must survive the churn"
        );
    }

    #[test]
    fn pair_normalization() {
        let p1 = SitePair::new(site(2), site(1));
        let p2 = SitePair::new(site(1), site(2));
        assert_eq!(p1, p2);
        assert!(p1.contains(site(1)));
        assert_eq!(p1.other(site(1)), site(2));
        assert_eq!(p1.other(site(2)), site(1));
    }
}
