//! The trap set: dangerous pairs of program locations (§3.4.1).
//!
//! The trap set grows as near misses are discovered and shrinks as pairs are
//! pruned — either because a likely happens-before relation was inferred
//! between the two locations, or because a violation was already caught at
//! the pair. Membership of a *location* in any pair is what makes
//! `should_delay` eligible at that location.
//!
//! `contains_site` is consulted on every instrumented access once any pair
//! is armed, so the set is kept as an immutable snapshot behind an
//! [`EpochPtr`]: readers pin the epoch (one store to their own slot), load
//! the pointer, and look up without any lock; writers (arming and pruning —
//! rare) serialize on a mutex, clone the snapshot, mutate the clone, and
//! swap it in, retiring the predecessor to the epoch collector. An atomic
//! pair count still lets the empty set — a fresh run before any near miss —
//! answer without even pinning.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::audit;
use crate::epoch::EpochPtr;
use crate::near_miss::SitePair;
use crate::site::SiteId;

#[derive(Default, Clone)]
struct Snapshot {
    pairs: HashSet<SitePair>,
    /// How many pairs each site participates in (for O(1) eligibility).
    site_refs: HashMap<SiteId, usize>,
    /// Pairs at which a violation has already been caught; never re-added.
    found: HashSet<SitePair>,
}

impl Snapshot {
    fn insert(&mut self, pair: SitePair) -> bool {
        if self.found.contains(&pair) {
            return false;
        }
        if self.pairs.insert(pair) {
            *self.site_refs.entry(pair.first).or_insert(0) += 1;
            if pair.second != pair.first {
                *self.site_refs.entry(pair.second).or_insert(0) += 1;
            }
            true
        } else {
            false
        }
    }

    fn delete(&mut self, pair: SitePair) -> bool {
        if self.pairs.remove(&pair) {
            decref(&mut self.site_refs, pair.first);
            if pair.second != pair.first {
                decref(&mut self.site_refs, pair.second);
            }
            true
        } else {
            false
        }
    }
}

/// Thread-safe set of dangerous pairs with per-site membership counts.
///
/// Readers are lock-free (epoch-pinned snapshot loads); writers serialize
/// on an internal mutex and publish copy-on-write snapshots.
#[derive(Default)]
pub struct TrapSet {
    snapshot: EpochPtr<Snapshot>,
    writer: Mutex<()>,
    pair_count: AtomicUsize,
}

impl TrapSet {
    /// Creates an empty trap set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clone-mutate-swap under the writer lock. `mutate` returns the op's
    /// result plus how many pairs were added (+) or removed (−); the count
    /// delta is applied to the pair counter.
    fn write<R>(&self, mutate: impl FnOnce(&mut Snapshot) -> (R, isize)) -> R {
        audit::note_lock();
        let _w = self.writer.lock();
        let mut next = self.snapshot.read(Clone::clone);
        let (result, delta) = mutate(&mut next);
        if delta != 0 {
            audit::note_shared_write();
            if delta > 0 {
                self.pair_count.fetch_add(delta as usize, Ordering::Release);
            } else {
                self.pair_count
                    .fetch_sub((-delta) as usize, Ordering::Release);
            }
        }
        audit::note_shared_write();
        self.snapshot.swap(next);
        result
    }

    /// Adds `pair` unless it was already found buggy. Returns `true` if the
    /// pair is newly inserted.
    pub fn add(&self, pair: SitePair) -> bool {
        self.write(|s| {
            let inserted = s.insert(pair);
            (inserted, inserted as isize)
        })
    }

    /// Adds every pair in `candidates` (in order) that is not already
    /// present or found buggy, stopping once the set holds `max_len` pairs.
    /// Returns the pairs actually inserted. One snapshot clone and one
    /// publish regardless of how many pairs arm — the bulk path for trap
    /// file imports.
    pub fn add_many(&self, candidates: &[SitePair], max_len: usize) -> Vec<SitePair> {
        self.write(|s| {
            let mut inserted = Vec::new();
            for &pair in candidates {
                if s.pairs.len() >= max_len {
                    break;
                }
                if s.insert(pair) {
                    inserted.push(pair);
                }
            }
            let n = inserted.len() as isize;
            (inserted, n)
        })
    }

    /// Removes `pair` (HB-inferred prune). Returns `true` if it was present.
    pub fn remove(&self, pair: SitePair) -> bool {
        self.write(|s| {
            let removed = s.delete(pair);
            (removed, -(removed as isize))
        })
    }

    /// Marks `pair` as found buggy: removes it and blocks re-insertion.
    pub fn mark_found(&self, pair: SitePair) {
        self.write(|s| {
            s.found.insert(pair);
            let removed = s.delete(pair);
            ((), -(removed as isize))
        })
    }

    /// Removes every pair containing `site` (decay eviction), returning the
    /// removed pairs.
    pub fn remove_site(&self, site: SiteId) -> Vec<SitePair> {
        self.write(|s| {
            let doomed: Vec<SitePair> = s
                .pairs
                .iter()
                .filter(|p| p.contains(site))
                .copied()
                .collect();
            for pair in &doomed {
                s.delete(*pair);
            }
            let n = doomed.len() as isize;
            (doomed, -n)
        })
    }

    /// Returns `true` if `site` participates in at least one pair.
    pub fn contains_site(&self, site: SiteId) -> bool {
        if self.pair_count.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.snapshot
            .read(|s| s.site_refs.get(&site).is_some_and(|&n| n > 0))
    }

    /// Returns `true` if `pair` is currently in the set.
    pub fn contains(&self, pair: SitePair) -> bool {
        if self.pair_count.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.snapshot.read(|s| s.pairs.contains(&pair))
    }

    /// Returns the partner locations of every pair containing `site`
    /// (excluding `site` itself unless it self-pairs).
    pub fn partners(&self, site: SiteId) -> Vec<SiteId> {
        self.snapshot.read(|s| {
            s.pairs
                .iter()
                .filter(|p| p.contains(site))
                .map(|p| p.other(site))
                .collect()
        })
    }

    /// Snapshot of all pairs (for trap-file export).
    pub fn pairs(&self) -> Vec<SitePair> {
        self.snapshot.read(|s| s.pairs.iter().copied().collect())
    }

    /// Number of pairs currently in the set.
    pub fn len(&self) -> usize {
        self.pair_count.load(Ordering::Acquire)
    }

    /// Returns `true` if the set has no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Asserts the internal consistency of the *current* snapshot: the
    /// site-reference counts must be exactly those derived from the pair
    /// set. Readers racing a writer must only ever observe snapshots that
    /// pass this check — a torn view would fail it.
    #[cfg(test)]
    fn assert_snapshot_consistent(&self) {
        self.snapshot.read(|s| {
            let mut derived: HashMap<SiteId, usize> = HashMap::new();
            for p in &s.pairs {
                *derived.entry(p.first).or_insert(0) += 1;
                if p.second != p.first {
                    *derived.entry(p.second).or_insert(0) += 1;
                }
            }
            assert_eq!(
                derived, s.site_refs,
                "snapshot site_refs must match the pair set"
            );
        });
    }
}

fn decref(refs: &mut HashMap<SiteId, usize>, site: SiteId) {
    if let Some(n) = refs.get_mut(&site) {
        *n = n.saturating_sub(1);
        if *n == 0 {
            refs.remove(&site);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::site::SiteData;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "trapset_test.rs",
            line: n,
            column: 1,
        })
    }

    #[test]
    fn add_and_membership() {
        let t = TrapSet::new();
        let p = SitePair::new(site(1), site(2));
        assert!(t.add(p));
        assert!(!t.add(p), "second insert is a no-op");
        assert!(t.contains(p));
        assert!(t.contains_site(site(1)));
        assert!(t.contains_site(site(2)));
        assert!(!t.contains_site(site(3)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_updates_site_refs() {
        let t = TrapSet::new();
        let p12 = SitePair::new(site(1), site(2));
        let p13 = SitePair::new(site(1), site(3));
        t.add(p12);
        t.add(p13);
        assert!(t.remove(p12));
        assert!(
            t.contains_site(site(1)),
            "site 1 still referenced by the other pair"
        );
        assert!(!t.contains_site(site(2)));
        assert!(!t.remove(p12), "already gone");
    }

    #[test]
    fn same_site_pair_refcount() {
        let t = TrapSet::new();
        let p = SitePair::new(site(7), site(7));
        t.add(p);
        assert!(t.contains_site(site(7)));
        t.remove(p);
        assert!(!t.contains_site(site(7)));
    }

    #[test]
    fn mark_found_blocks_readdition() {
        let t = TrapSet::new();
        let p = SitePair::new(site(1), site(2));
        t.add(p);
        t.mark_found(p);
        assert!(!t.contains(p));
        assert!(!t.add(p), "found pairs are never re-armed");
        assert!(t.is_empty());
    }

    #[test]
    fn remove_site_evicts_all_pairs() {
        let t = TrapSet::new();
        t.add(SitePair::new(site(1), site(2)));
        t.add(SitePair::new(site(1), site(3)));
        t.add(SitePair::new(site(4), site(5)));
        let removed = t.remove_site(site(1));
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
        assert!(!t.contains_site(site(1)));
        assert!(!t.contains_site(site(2)));
        assert!(t.contains_site(site(4)));
    }

    #[test]
    fn pairs_snapshot() {
        let t = TrapSet::new();
        t.add(SitePair::new(site(1), site(2)));
        t.add(SitePair::new(site(3), site(4)));
        let mut pairs = t.pairs();
        pairs.sort();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn add_many_respects_budget_and_found_set() {
        let t = TrapSet::new();
        let found = SitePair::new(site(20), site(21));
        t.add(found);
        t.mark_found(found);
        let candidates = [
            found,
            SitePair::new(site(22), site(23)),
            SitePair::new(site(22), site(23)), // duplicate
            SitePair::new(site(24), site(25)),
            SitePair::new(site(26), site(27)), // over budget
        ];
        let inserted = t.add_many(&candidates, 2);
        assert_eq!(inserted.len(), 2);
        assert!(t.contains(SitePair::new(site(22), site(23))));
        assert!(t.contains(SitePair::new(site(24), site(25))));
        assert!(!t.contains(found), "found pairs never re-arm");
        assert!(!t.contains(SitePair::new(site(26), site(27))));
        assert_eq!(t.len(), 2);
    }

    /// Interleaving stress for the epoch swap: reader threads hammer the
    /// lock-free read path while a writer churns arms and prunes. Every
    /// observed snapshot must be internally consistent (site_refs derived
    /// exactly from pairs), and an invariant pair that is never removed
    /// must be visible in every snapshot. Catches torn reads, premature
    /// reclamation (use-after-free would crash or desync), and lost
    /// updates from the copy-on-write protocol.
    #[test]
    fn epoch_swap_interleaving_stress() {
        let t = Arc::new(TrapSet::new());
        let anchor = SitePair::new(site(100), site(101));
        t.add(anchor);
        let stop = Arc::new(AtomicUsize::new(0));
        // Readers that have finished one read: the writer starts churning
        // only once every reader is running, so the churn can't finish
        // before any reader is scheduled.
        let started = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let t = t.clone();
                let stop = stop.clone();
                let started = started.clone();
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        assert!(t.contains(anchor), "anchor pair must never vanish");
                        assert!(t.contains_site(site(100)));
                        t.assert_snapshot_consistent();
                        let partners = t.partners(site(102));
                        // Any partner of a churned site must be a churned
                        // site from the writer's working set.
                        for p in partners {
                            assert!(p == site(103) || p == site(104), "foreign partner {p:?}");
                        }
                        reads += 1;
                        if reads == 1 {
                            started.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    reads
                })
            })
            .collect();
        while started.load(Ordering::Relaxed) < 3 {
            std::thread::yield_now();
        }
        for round in 0..400 {
            let a = SitePair::new(site(102), site(103));
            let b = SitePair::new(site(102), site(104));
            t.add(a);
            t.add(b);
            if round % 3 == 0 {
                t.remove(a);
                t.remove_site(site(102));
            } else {
                t.remove_site(site(102));
            }
            assert!(t.contains(anchor));
        }
        stop.store(1, Ordering::Relaxed);
        let total: u64 = readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .sum();
        assert!(total > 0, "readers must actually have observed snapshots");
        assert_eq!(t.len(), 1, "only the anchor survives the churn");
        t.assert_snapshot_consistent();
    }
}
