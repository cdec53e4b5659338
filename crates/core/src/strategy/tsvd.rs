//! The TSVD strategy (§3.4): the paper's contribution.
//!
//! *Where to delay:* at members of a dynamically maintained trap set of
//! dangerous pairs. A pair enters the set when its two locations form a
//! near miss (§3.4.2) while the program is in a concurrent phase (§3.4.3).
//! A pair leaves the set when a likely happens-before relation is inferred
//! between its locations (§3.4.4) or a violation was already caught there.
//!
//! *When to delay:* with probability `P_loc`, which starts at 1 when a
//! dangerous pair containing `loc` is armed and decays after every delay
//! that catches nothing (§3.4.5). Planning and injection happen in the same
//! run (§3.4.6); the trap set additionally persists to a trap file so a
//! second run can trap pairs on their first occurrence.

use std::sync::OnceLock;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::access::Access;
use crate::config::TsvdConfig;
use crate::decay::DecayTable;
use crate::hb_infer::{DelayRecord, HbInference};
use crate::near_miss::{NearMissTracker, SitePair};
use crate::phase::PhaseBuffer;
use crate::strategy::Strategy;
use crate::trap_file::TrapFileData;
use crate::trapset::TrapSet;

/// The TSVD delay-injection strategy.
pub struct Tsvd {
    near_miss: NearMissTracker,
    /// Phase ring for standalone [`Strategy::on_access`] calls only; under
    /// a runtime the phase verdict comes from the runtime's ring, and this
    /// one is never allocated.
    standalone_phase: OnceLock<PhaseBuffer>,
    phase_buffer: usize,
    hb: Option<HbInference>,
    decay: DecayTable,
    traps: TrapSet,
    delay_ns: u64,
    phase_detection: bool,
    /// Extension: per-site delay multipliers (see
    /// [`TsvdConfig::adaptive_delay`]). `None` when the extension is off.
    adaptive: Option<Mutex<std::collections::HashMap<crate::site::SiteId, u32>>>,
    adaptive_cap: u32,
    /// Cap on pairs armed from imported trap files (see
    /// [`TsvdConfig::trap_import_budget`]). Dynamically discovered pairs
    /// are never budgeted — the cap only rations *seeded* candidates.
    import_budget: usize,
    rng: Mutex<SmallRng>,
}

impl Tsvd {
    /// Creates the strategy from `config`, honouring the Table-3 ablation
    /// switches (`enable_hb_inference`, `enable_windowing`,
    /// `enable_phase_detection`).
    pub fn new(config: &TsvdConfig) -> Self {
        let window = config
            .enable_windowing
            .then_some(config.near_miss_window_ns);
        Tsvd {
            near_miss: NearMissTracker::with_shards(
                config.near_miss_history,
                window,
                config.max_tracked_objects,
                config.near_miss_shards,
            ),
            standalone_phase: OnceLock::new(),
            phase_buffer: config.phase_buffer,
            hb: config.enable_hb_inference.then(|| {
                HbInference::new(
                    config.hb_gap_ns(),
                    config.hb_inference_window,
                    config.hb_delay_history,
                )
            }),
            decay: DecayTable::new(config.decay_factor, config.decay_floor),
            traps: TrapSet::new(),
            delay_ns: config.delay_ns,
            phase_detection: config.enable_phase_detection,
            adaptive: config
                .adaptive_delay
                .then(|| Mutex::new(std::collections::HashMap::new())),
            adaptive_cap: config.adaptive_delay_cap.max(1.0) as u32,
            import_budget: config.trap_import_budget,
            rng: Mutex::new(SmallRng::seed_from_u64(config.seed ^ 0x7547)),
        }
    }

    /// Current number of dangerous pairs (stats / tests).
    pub fn trap_set_len(&self) -> usize {
        self.traps.len()
    }

    /// Returns `true` if `pair` is currently armed.
    pub fn is_armed(&self, pair: SitePair) -> bool {
        self.traps.contains(pair)
    }

    /// Number of HB edges inferred so far (stats / tests).
    pub fn inferred_hb_edges(&self) -> usize {
        self.hb.as_ref().map_or(0, |hb| hb.inferred_count())
    }
}

impl Strategy for Tsvd {
    fn name(&self) -> &'static str {
        "tsvd"
    }

    fn on_access(&self, access: &Access) -> Option<u64> {
        let concurrent = self.phase_detection
            && self
                .standalone_phase
                .get_or_init(|| PhaseBuffer::new(self.phase_buffer))
                .record_and_check(access.context);
        self.on_access_in_phase(access, concurrent)
    }

    fn on_access_in_phase(&self, access: &Access, concurrent: bool) -> Option<u64> {
        // With the ablation switch off, every phase counts as concurrent.
        let concurrent = concurrent || !self.phase_detection;

        // HB inference: prune pairs whose locations this access proves (by
        // delay propagation) to be ordered.
        if let Some(hb) = &self.hb {
            for pair in hb.on_access(access.context, access.site, access.time_ns) {
                self.traps.remove(pair);
            }
        }

        // Near-miss tracking: discover new dangerous pairs.
        for pair in self.near_miss.record(access) {
            if !concurrent {
                continue;
            }
            if self.hb.as_ref().is_some_and(|hb| hb.is_inferred(pair)) {
                continue;
            }
            if self.traps.add(pair) {
                self.decay.arm(pair.first);
                self.decay.arm(pair.second);
            }
        }

        // should_delay: members of the trap set delay with probability P_loc.
        if self.traps.contains_site(access.site) {
            let p = self.decay.probability(access.site);
            if p >= 1.0 || self.rng.lock().gen::<f64>() < p {
                // Extension: lengthen repeatedly fruitless delays.
                let multiplier = self
                    .adaptive
                    .as_ref()
                    .map_or(1, |m| m.lock().get(&access.site).copied().unwrap_or(1));
                return Some(self.delay_ns * u64::from(multiplier));
            }
        }
        None
    }

    fn on_delay_complete(&self, access: &Access, start_ns: u64, end_ns: u64, caught: bool) {
        if let Some(hb) = &self.hb {
            hb.record_delay(DelayRecord {
                site: access.site,
                context: access.context,
                start_ns,
                end_ns,
            });
        }
        if let Some(m) = &self.adaptive {
            let mut m = m.lock();
            let e = m.entry(access.site).or_insert(1);
            if caught {
                *e = 1; // This length works; stop escalating.
            } else {
                *e = (*e * 2).min(self.adaptive_cap);
            }
        }
        if !caught {
            // Decay the delayed location (§3.4.5); when its probability
            // hits the floor, evict its pairs. The decay is deliberately
            // per-location, not per-pair-endpoint: punishing the *partner*
            // for this site's fruitless delays would kill exactly the
            // asymmetric pairs the tool exists for (a hot reader paired
            // with a rare writer — the Table 4 singleton-init races).
            if self.decay.decay(access.site) {
                self.traps.remove_site(access.site);
            }
        }
    }

    fn on_violation(&self, pair: SitePair) {
        // "A violation is already found at the pair" — prune it for good.
        self.traps.mark_found(pair);
    }

    fn export_trap_file(&self) -> Option<TrapFileData> {
        Some(TrapFileData::from_pairs(&self.traps.pairs()))
    }

    fn import_trap_file(&self, data: &TrapFileData) {
        // Highest-confidence pairs first: under a finite import budget the
        // static analyzer's best-graded candidates get the delay budget.
        let candidates: Vec<SitePair> = data
            .arming_order()
            .into_iter()
            .filter_map(|index| data.pair_at(index))
            .collect();
        for pair in self.traps.add_many(&candidates, self.import_budget) {
            self.decay.arm(pair.first);
            self.decay.arm(pair.second);
        }
    }

    fn memory_bytes(&self) -> usize {
        // Near-miss histories dominate; trap set and decay table are tiny.
        self.near_miss.approx_bytes()
            + self.traps.len() * std::mem::size_of::<SitePair>()
            + self.decay.armed_count() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{ObjId, OpKind};
    use crate::clock::ms_to_ns;
    use crate::context::ContextId;
    use crate::site::{SiteData, SiteId};

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "tsvd_strategy_test.rs",
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
            time_ns: ms_to_ns(t_ms),
        }
    }

    /// Paper defaults (100 ms scale) with no probabilistic noise.
    fn config() -> TsvdConfig {
        let mut c = TsvdConfig::paper();
        c.decay_factor = 0.5;
        c
    }

    #[test]
    fn near_miss_in_concurrent_phase_arms_pair_and_delays() {
        let s = Tsvd::new(&config());
        // Two contexts interleave: concurrent phase.
        assert!(s.on_access(&acc(1, 7, site(1), OpKind::Write, 0)).is_none());
        // Near miss at t = 1 ms: pair armed; the *current* access's site is
        // in the trap set, so TSVD may delay right now (same-run injection).
        let d = s.on_access(&acc(2, 7, site(2), OpKind::Write, 1));
        assert!(d.is_some(), "newly armed site should delay immediately");
        assert_eq!(s.trap_set_len(), 1);
        assert!(s.is_armed(SitePair::new(site(1), site(2))));
    }

    #[test]
    fn sequential_phase_blocks_arming() {
        let mut c = config();
        c.phase_buffer = 4;
        let s = Tsvd::new(&c);
        // Only context 1 executes for a while: sequential phase.
        for i in 0..8 {
            s.on_access(&acc(1, 7, site(1), OpKind::Write, i));
        }
        // Context 2 arrives; the pair *does* arm because its own access
        // makes the buffer concurrent (two distinct contexts in window).
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 8));
        assert_eq!(s.trap_set_len(), 1);
    }

    #[test]
    fn caller_verdict_replaces_the_standalone_ring() {
        let s = Tsvd::new(&config());
        // Two contexts interleave, but the caller's verdict says sequential.
        s.on_access_in_phase(&acc(1, 7, site(1), OpKind::Write, 0), false);
        s.on_access_in_phase(&acc(2, 7, site(2), OpKind::Write, 1), false);
        assert_eq!(s.trap_set_len(), 0);
        s.on_access_in_phase(&acc(1, 7, site(1), OpKind::Write, 2), true);
        assert_eq!(s.trap_set_len(), 1);
        assert!(
            s.standalone_phase.get().is_none(),
            "a runtime-driven strategy keeps no phase ring of its own"
        );
    }

    #[test]
    fn phase_ablation_treats_everything_concurrent() {
        let mut c = config();
        c.enable_phase_detection = false;
        let s = Tsvd::new(&c);
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0));
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1));
        assert_eq!(s.trap_set_len(), 1);
    }

    #[test]
    fn no_pair_without_conflict() {
        let s = Tsvd::new(&config());
        s.on_access(&acc(1, 7, site(1), OpKind::Read, 0));
        assert!(s.on_access(&acc(2, 7, site(2), OpKind::Read, 1)).is_none());
        assert_eq!(s.trap_set_len(), 0);
    }

    #[test]
    fn violation_prunes_pair_permanently() {
        let s = Tsvd::new(&config());
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0));
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1));
        let pair = SitePair::new(site(1), site(2));
        assert!(s.is_armed(pair));
        s.on_violation(pair);
        assert!(!s.is_armed(pair));
        // Rediscovery of the same near miss must not re-arm it.
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 10));
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 11));
        assert!(!s.is_armed(pair));
    }

    #[test]
    fn failed_delays_decay_to_eviction() {
        let mut c = config();
        c.decay_factor = 0.5;
        c.decay_floor = 0.3;
        let s = Tsvd::new(&c);
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0));
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1));
        assert_eq!(s.trap_set_len(), 1);
        let a = acc(1, 7, site(1), OpKind::Write, 2);
        // Two fruitless delays at site(1): 1.0 → 0.5 → 0.25 < 0.3 → evict.
        s.on_delay_complete(&a, 0, 1, false);
        assert_eq!(s.trap_set_len(), 1);
        s.on_delay_complete(&a, 2, 3, false);
        assert_eq!(s.trap_set_len(), 0, "decayed location evicts its pairs");
    }

    #[test]
    fn successful_delay_does_not_decay() {
        let mut c = config();
        c.decay_floor = 0.9;
        let s = Tsvd::new(&c);
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0));
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1));
        let a = acc(1, 7, site(1), OpKind::Write, 2);
        for _ in 0..10 {
            s.on_delay_complete(&a, 0, 1, true);
        }
        assert_eq!(s.trap_set_len(), 1, "catching delays never decay");
    }

    #[test]
    fn hb_inference_prunes_pair() {
        let s = Tsvd::new(&config()); // gap = 50 ms, k_hb = 5
                                      // Arm the pair {site(1), site(2)} via a near miss.
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0));
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1));
        assert!(s.is_armed(SitePair::new(site(1), site(2))));
        // Context 1 delays at site(1) from 10 ms to 110 ms...
        s.on_delay_complete(
            &acc(1, 7, site(1), OpKind::Write, 10),
            ms_to_ns(10),
            ms_to_ns(110),
            false,
        );
        // ...and context 2's next access (gap 109 ms ≥ 50 ms, overlapping
        // the delay) is at site(2): HB inferred, pair pruned.
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 110));
        assert!(
            !s.is_armed(SitePair::new(site(1), site(2))),
            "HB-inferred pair must leave the trap set"
        );
        assert!(s.inferred_hb_edges() >= 1);
        // And the near miss does not re-arm it.
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 111));
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 112));
        assert!(!s.is_armed(SitePair::new(site(1), site(2))));
    }

    #[test]
    fn hb_ablation_keeps_pair_armed() {
        let mut c = config();
        c.enable_hb_inference = false;
        let s = Tsvd::new(&c);
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0));
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1));
        s.on_delay_complete(
            &acc(1, 7, site(1), OpKind::Write, 10),
            ms_to_ns(10),
            ms_to_ns(110),
            false,
        );
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 110));
        assert!(s.is_armed(SitePair::new(site(1), site(2))));
        assert_eq!(s.inferred_hb_edges(), 0);
    }

    #[test]
    fn trap_file_round_trip_prearms_pairs() {
        let s1 = Tsvd::new(&config());
        s1.on_access(&acc(1, 7, site(1), OpKind::Write, 0));
        s1.on_access(&acc(2, 7, site(2), OpKind::Write, 1));
        let file = s1.export_trap_file().expect("tsvd persists state");
        let s2 = Tsvd::new(&config());
        s2.import_trap_file(&file);
        assert!(s2.is_armed(SitePair::new(site(1), site(2))));
        // Imported pairs delay on their very first occurrence.
        let d = s2.on_access(&acc(9, 99, site(1), OpKind::Write, 0));
        assert!(d.is_some());
    }

    #[test]
    fn import_budget_arms_highest_confidence_first() {
        use crate::trap_file::PairOrigin;
        let mut file = TrapFileData::default();
        file.push_with_confidence(
            (site(60).to_string(), site(61).to_string()),
            PairOrigin::Static,
            0.4,
        );
        file.push_with_confidence(
            (site(62).to_string(), site(63).to_string()),
            PairOrigin::Static,
            0.9,
        );
        file.push_with_confidence(
            (site(64).to_string(), site(65).to_string()),
            PairOrigin::Static,
            0.7,
        );

        let mut c = config();
        c.trap_import_budget = 2;
        let s = Tsvd::new(&c);
        s.import_trap_file(&file);
        assert_eq!(s.trap_set_len(), 2);
        assert!(s.is_armed(SitePair::new(site(62), site(63))), "0.9 arms");
        assert!(s.is_armed(SitePair::new(site(64), site(65))), "0.7 arms");
        assert!(
            !s.is_armed(SitePair::new(site(60), site(61))),
            "the lowest-confidence pair is the one the budget drops"
        );

        // Without a budget everything arms, regardless of grade.
        let s_all = Tsvd::new(&config());
        s_all.import_trap_file(&file);
        assert_eq!(s_all.trap_set_len(), 3);
    }

    #[test]
    fn import_budget_arms_identical_sets_across_loads() {
        // Satellite regression: equal-confidence ties under a finite budget
        // must arm the same pairs on every load of the same trap file —
        // including a permuted spelling of it, the shape a fleet merge over
        // hash-map iteration produces.
        use crate::trap_file::PairOrigin;
        let dir =
            std::env::temp_dir().join(format!("tsvd_import_determinism_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");

        let texts: Vec<(String, String)> = (80..86)
            .map(|n| (site(n).to_string(), site(n + 10).to_string()))
            .collect();
        let mut file = TrapFileData::default();
        for t in &texts {
            file.push_with_confidence(t.clone(), PairOrigin::Static, 0.5);
        }
        file.save(&path).expect("save");

        let armed_set = |data: &TrapFileData| -> Vec<SitePair> {
            let mut c = config();
            c.trap_import_budget = 3;
            let s = Tsvd::new(&c);
            s.import_trap_file(data);
            let mut armed: Vec<SitePair> = (0..data.pairs.len())
                .filter_map(|i| data.pair_at(i))
                .filter(|&p| s.is_armed(p))
                .collect();
            armed.sort();
            armed
        };

        let first = armed_set(&TrapFileData::load(&path).expect("load 1"));
        let second = armed_set(&TrapFileData::load(&path).expect("load 2"));
        assert_eq!(first.len(), 3, "budget caps the import");
        assert_eq!(first, second, "two loads must arm identical sets");

        // Same pair set, reversed on-disk order: still the identical set.
        let mut permuted = TrapFileData::default();
        for t in texts.iter().rev() {
            permuted.push_with_confidence(t.clone(), PairOrigin::Static, 0.5);
        }
        assert_eq!(
            armed_set(&permuted),
            first,
            "arming must not depend on pair order in the file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn import_budget_never_caps_dynamic_discovery() {
        let mut c = config();
        c.trap_import_budget = 1;
        let s = Tsvd::new(&c);
        let mut file = TrapFileData::default();
        file.push(
            (site(70).to_string(), site(71).to_string()),
            crate::trap_file::PairOrigin::Static,
        );
        file.push(
            (site(72).to_string(), site(73).to_string()),
            crate::trap_file::PairOrigin::Static,
        );
        s.import_trap_file(&file);
        assert_eq!(s.trap_set_len(), 1, "budget caps the import");
        // A run-time near miss still arms a second pair: the budget rations
        // seeds, not discovery.
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0));
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1));
        assert_eq!(s.trap_set_len(), 2);
    }

    #[test]
    fn adaptive_delay_escalates_and_resets() {
        let mut c = config();
        c.adaptive_delay = true;
        c.adaptive_delay_cap = 4.0;
        c.decay_factor = 0.0; // Keep P at 1 so every hit delays.
        let s = Tsvd::new(&c);
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0));
        let base = s
            .on_access(&acc(2, 7, site(2), OpKind::Write, 1))
            .expect("armed");
        // Two fruitless delays double the site's next delay, capped at 4x.
        let a = acc(2, 7, site(2), OpKind::Write, 2);
        s.on_delay_complete(&a, 0, 1, false);
        assert_eq!(s.on_access(&a), Some(base * 2));
        s.on_delay_complete(&a, 2, 3, false);
        assert_eq!(s.on_access(&a), Some(base * 4));
        s.on_delay_complete(&a, 4, 5, false);
        assert_eq!(s.on_access(&a), Some(base * 4), "cap holds");
        // A catch resets the multiplier.
        s.on_delay_complete(&a, 6, 7, true);
        assert_eq!(s.on_access(&a), Some(base));
    }

    #[test]
    fn adaptive_off_keeps_constant_delay() {
        let mut c = config();
        c.decay_factor = 0.0;
        let s = Tsvd::new(&c);
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0));
        let a = acc(2, 7, site(2), OpKind::Write, 1);
        let base = s.on_access(&a).expect("armed");
        s.on_delay_complete(&a, 0, 1, false);
        assert_eq!(s.on_access(&a), Some(base));
    }

    #[test]
    fn unknown_site_never_delays() {
        let s = Tsvd::new(&config());
        for i in 0..100 {
            assert!(s
                .on_access(&acc(1, i, site(50), OpKind::Write, i))
                .is_none());
        }
    }
}
