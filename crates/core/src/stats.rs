//! Runtime statistics: delay accounting, coverage, and resource estimates.
//!
//! The paper's runtime (§4) tracks the total delay injected per thread and
//! per run (to avoid test timeouts) and reports coverage of instrumented
//! APIs — which one product team used to find blind spots where critical
//! code was only ever exercised sequentially. The §5.5 resource evaluation
//! additionally needs memory estimates for the tracking state.
//!
//! `record_call` runs on every instrumented access, so coverage lives in a
//! dense table indexed by [`SiteId::index`]: recording is two relaxed
//! `fetch_add`s on the site's cell and takes no lock. The table is
//! allocated in 16-site chunks the first time a site inside one is hit, so
//! its size follows the sites actually seen. The per-context delay ledger
//! is sharded by context so concurrent delayers don't share a lock.

use std::collections::HashMap;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::audit;
use crate::context::ContextId;
use crate::site::SiteId;

const DEFAULT_SHARDS: usize = 16;

/// Per-site coverage: how often a TSVD point ran at all, and how often it
/// ran inside a concurrent phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct SiteCoverage {
    /// Executions in any context.
    pub hits: u64,
    /// Executions observed during a concurrent phase.
    pub concurrent_hits: u64,
}

#[derive(Default)]
struct CovCell {
    hits: AtomicU64,
    concurrent_hits: AtomicU64,
}

/// Cells per coverage chunk, the unit of allocation (256 bytes).
const CHUNK: usize = 16;
/// Chunk pointers in the first directory segment; segment `k` holds
/// `FIRST_SEGMENT << k`.
const FIRST_SEGMENT: usize = 8;
/// Enough directory segments to reach every `u32` site index.
const SEGMENTS: usize =
    (u32::BITS + 1 - CHUNK.trailing_zeros() - FIRST_SEGMENT.trailing_zeros()) as usize;

/// Lock-free per-site coverage counters indexed by [`SiteId::index`].
///
/// Two levels, both allocated on first touch and installed with one
/// compare-and-swap (a losing racer frees its copy): a directory of
/// geometrically growing segments of chunk pointers, and chunks of
/// [`CHUNK`] cells. Memory follows the sites a run actually hits: a chunk
/// per touched group of 16 ids, plus one pointer per 16 ids up to the
/// highest one seen.
struct CoverageTable {
    segments: [AtomicPtr<AtomicPtr<CovCell>>; SEGMENTS],
}

/// `(segment, offset)` of `index` in a segmented array whose segment `k`
/// holds `FIRST_SEGMENT << k` slots.
fn locate(index: usize) -> (usize, usize) {
    let j = index / FIRST_SEGMENT + 1;
    let segment = (usize::BITS - 1 - j.leading_zeros()) as usize;
    (segment, index - segment_start(segment))
}

fn segment_start(segment: usize) -> usize {
    FIRST_SEGMENT * ((1 << segment) - 1)
}

fn segment_len(segment: usize) -> usize {
    FIRST_SEGMENT << segment
}

/// Loads `slot`, first installing `len` default values if it is empty.
///
/// The successful compare-and-swap releases the initialized values and
/// every `Acquire` load of the slot pairs with it.
fn get_or_install<T: Default>(slot: &AtomicPtr<T>, len: usize) -> *mut T {
    let current = slot.load(Ordering::Acquire);
    if !current.is_null() {
        return current;
    }
    audit::note_shared_write();
    let fresh = Box::into_raw((0..len).map(|_| T::default()).collect::<Box<[T]>>()).cast::<T>();
    match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => fresh,
        Err(winner) => {
            // SAFETY: `fresh` was allocated above with `len` values and
            // never published.
            unsafe { free(fresh, len) };
            winner
        }
    }
}

/// # Safety
///
/// `base` must come from [`get_or_install`] with the same `len`, and no
/// reference into it may outlive this call.
unsafe fn free<T>(base: *mut T, len: usize) {
    drop(Box::from_raw(ptr::slice_from_raw_parts_mut(base, len)));
}

impl CoverageTable {
    fn new() -> Self {
        CoverageTable {
            segments: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
        }
    }

    fn cell(&self, site: SiteId) -> &CovCell {
        let (segment, offset) = locate(site.index() / CHUNK);
        let directory = get_or_install(&self.segments[segment], segment_len(segment));
        // SAFETY: a published directory segment holds `segment_len`
        // pointers and a published chunk `CHUNK` cells; `offset` and the
        // cell index are below those, and nothing is freed before `drop`.
        unsafe {
            let chunk = get_or_install(&*directory.add(offset), CHUNK);
            &*chunk.add(site.index() % CHUNK)
        }
    }

    /// Every site with at least one hit, with its counters.
    fn iter(&self) -> impl Iterator<Item = (SiteId, &CovCell)> {
        self.segments
            .iter()
            .enumerate()
            .flat_map(|(segment, slot)| {
                // SAFETY: as in `cell`.
                let directory = unsafe { published(slot, segment_len(segment)) };
                directory
                    .iter()
                    .enumerate()
                    .flat_map(move |(offset, chunk)| {
                        let first = (segment_start(segment) + offset) * CHUNK;
                        // SAFETY: as in `cell`.
                        let cells = unsafe { published(chunk, CHUNK) };
                        cells
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| c.hits.load(Ordering::Relaxed) > 0)
                            .map(move |(i, c)| (SiteId::from_index(first + i), c))
                    })
            })
    }
}

/// The `len` values behind `slot`, or none if it was never installed.
///
/// # Safety
///
/// A non-null `slot` must hold `len` values from [`get_or_install`] that
/// live as long as `slot` does.
unsafe fn published<T>(slot: &AtomicPtr<T>, len: usize) -> &[T] {
    let base = slot.load(Ordering::Acquire);
    if base.is_null() {
        &[]
    } else {
        std::slice::from_raw_parts(base, len)
    }
}

impl Drop for CoverageTable {
    fn drop(&mut self) {
        for (segment, slot) in self.segments.iter_mut().enumerate() {
            let directory = *slot.get_mut();
            if directory.is_null() {
                continue;
            }
            // SAFETY: both levels were installed by `get_or_install` with
            // these lengths; `&mut self` means no reference is live.
            unsafe {
                for offset in 0..segment_len(segment) {
                    let chunk = (*directory.add(offset)).load(Ordering::Relaxed);
                    if !chunk.is_null() {
                        free(chunk, CHUNK);
                    }
                }
                free(directory, segment_len(segment));
            }
        }
    }
}

/// Counters shared by the runtime and its strategy.
pub struct RuntimeStats {
    on_calls: AtomicU64,
    delays_injected: AtomicU64,
    delay_total_ns: AtomicU64,
    traps_caught: AtomicU64,
    sync_events: AtomicU64,
    delay_shards: Box<[Mutex<HashMap<ContextId, u64>>]>,
    coverage: CoverageTable,
}

impl Default for RuntimeStats {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

fn shard_of(key: u64, len: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % len
}

impl RuntimeStats {
    /// Creates zeroed counters with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed counters with `shards` delay-ledger shards (clamped
    /// to ≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        RuntimeStats {
            on_calls: AtomicU64::new(0),
            delays_injected: AtomicU64::new(0),
            delay_total_ns: AtomicU64::new(0),
            traps_caught: AtomicU64::new(0),
            sync_events: AtomicU64::new(0),
            delay_shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            coverage: CoverageTable::new(),
        }
    }

    /// Records one `OnCall` entry at `site`, noting phase concurrency.
    pub fn record_call(&self, site: SiteId, concurrent: bool) {
        audit::note_shared_write();
        self.on_calls.fetch_add(1, Ordering::Relaxed);
        let cell = self.coverage.cell(site);
        audit::note_shared_write();
        cell.hits.fetch_add(1, Ordering::Relaxed);
        if concurrent {
            audit::note_shared_write();
            cell.concurrent_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an injected delay of `ns` nanoseconds by `context`.
    pub fn record_delay(&self, context: ContextId, ns: u64) {
        self.delays_injected.fetch_add(1, Ordering::Relaxed);
        self.delay_total_ns.fetch_add(ns, Ordering::Relaxed);
        let shard = &self.delay_shards[shard_of(context.0, self.delay_shards.len())];
        *shard.lock().entry(context).or_insert(0) += ns;
    }

    /// Records a trap collision.
    pub fn record_catch(&self) {
        self.traps_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a synchronization event delivered to the strategy.
    pub fn record_sync(&self) {
        self.sync_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Total `OnCall` entries.
    pub fn on_calls(&self) -> u64 {
        self.on_calls.load(Ordering::Relaxed)
    }

    /// Total delays injected.
    pub fn delays_injected(&self) -> u64 {
        self.delays_injected.load(Ordering::Relaxed)
    }

    /// Total nanoseconds of injected delay.
    pub fn delay_total_ns(&self) -> u64 {
        self.delay_total_ns.load(Ordering::Relaxed)
    }

    /// Total trap collisions.
    pub fn traps_caught(&self) -> u64 {
        self.traps_caught.load(Ordering::Relaxed)
    }

    /// Total synchronization events observed.
    pub fn sync_events(&self) -> u64 {
        self.sync_events.load(Ordering::Relaxed)
    }

    /// Delay injected by `context` so far (for the per-thread budget).
    pub fn context_delay_ns(&self, context: ContextId) -> u64 {
        self.delay_shards[shard_of(context.0, self.delay_shards.len())]
            .lock()
            .get(&context)
            .copied()
            .unwrap_or(0)
    }

    /// Number of distinct TSVD points executed.
    pub fn sites_covered(&self) -> usize {
        self.coverage.iter().count()
    }

    /// Number of TSVD points that ever ran in a concurrent phase.
    ///
    /// Sites with `hits > 0` but `concurrent_hits == 0` are the "blind
    /// spots" the paper's coverage report surfaces: code only ever tested
    /// sequentially.
    pub fn sites_covered_concurrently(&self) -> usize {
        self.coverage
            .iter()
            .filter(|(_, c)| c.concurrent_hits.load(Ordering::Relaxed) > 0)
            .count()
    }

    /// Per-site coverage snapshot, in site-index order.
    pub fn coverage(&self) -> Vec<(SiteId, SiteCoverage)> {
        self.coverage
            .iter()
            .map(|(site, cell)| {
                (
                    site,
                    SiteCoverage {
                        hits: cell.hits.load(Ordering::Relaxed),
                        concurrent_hits: cell.concurrent_hits.load(Ordering::Relaxed),
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteData;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "stats_test.rs",
            line: n,
            column: 1,
        })
    }

    #[test]
    fn call_and_coverage_counting() {
        let s = RuntimeStats::new();
        s.record_call(site(1), false);
        s.record_call(site(1), true);
        s.record_call(site(2), false);
        assert_eq!(s.on_calls(), 3);
        assert_eq!(s.sites_covered(), 2);
        assert_eq!(s.sites_covered_concurrently(), 1);
    }

    #[test]
    fn delay_accounting_per_context() {
        let s = RuntimeStats::new();
        s.record_delay(ContextId(1), 100);
        s.record_delay(ContextId(1), 50);
        s.record_delay(ContextId(2), 10);
        assert_eq!(s.delays_injected(), 3);
        assert_eq!(s.delay_total_ns(), 160);
        assert_eq!(s.context_delay_ns(ContextId(1)), 150);
        assert_eq!(s.context_delay_ns(ContextId(2)), 10);
        assert_eq!(s.context_delay_ns(ContextId(3)), 0);
    }

    #[test]
    fn catch_and_sync_counters() {
        let s = RuntimeStats::new();
        s.record_catch();
        s.record_sync();
        s.record_sync();
        assert_eq!(s.traps_caught(), 1);
        assert_eq!(s.sync_events(), 2);
    }

    #[test]
    fn coverage_snapshot_counts_exactly() {
        // Exact counts across many sites and several table segments: the
        // dense table must never drop or double-count a hit.
        let s = RuntimeStats::with_shards(4);
        for round in 0..3 {
            for n in 100..164 {
                s.record_call(site(n), round == 0);
            }
        }
        assert_eq!(s.sites_covered(), 64);
        assert_eq!(s.sites_covered_concurrently(), 64);
        let cov = s.coverage();
        assert_eq!(cov.len(), 64);
        for (_, c) in cov {
            assert_eq!(c.hits, 3);
            assert_eq!(c.concurrent_hits, 1);
        }
    }

    #[test]
    fn segments_tile_the_index_space() {
        let mut expected = (0, 0);
        for index in 0..40_000 {
            assert_eq!(locate(index), expected, "index {index}");
            let (segment, offset) = expected;
            expected = if offset + 1 == segment_len(segment) {
                (segment + 1, 0)
            } else {
                (segment, offset + 1)
            };
        }
        let (last, offset) = locate(u32::MAX as usize / CHUNK);
        assert!(last < SEGMENTS);
        assert!(offset < segment_len(last));
    }

    #[test]
    fn racing_first_visits_lose_no_hits() {
        // Every thread hits the same fresh sites at once, so segment
        // installation races; the losers' copies must not swallow hits.
        let s = RuntimeStats::new();
        let sites: Vec<SiteId> = (1_000..1_100).map(site).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for &x in &sites {
                        s.record_call(x, true);
                    }
                });
            }
        });
        assert_eq!(s.on_calls(), 400);
        let cov = s.coverage();
        assert_eq!(cov.len(), 100);
        assert!(cov
            .iter()
            .all(|(_, c)| c.hits == 4 && c.concurrent_hits == 4));
    }
}
