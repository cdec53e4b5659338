//! Static program locations ("TSVD points") and their interner.
//!
//! The paper identifies a bug by the *unordered pair of static program
//! locations* making the conflicting calls. A location here is a source
//! position captured with `#[track_caller]` at the instrumented call site,
//! interned into a small copyable [`SiteId`]. Interning gives three things
//! the algorithm needs:
//!
//! - cheap hashing/equality on the hot `OnCall` path,
//! - a stable textual form for the persistent trap file (§3.4.6),
//! - the ability to re-materialize sites *imported* from a previous run's
//!   trap file before they are executed in this run.
//!
//! Every instrumented wrapper call resolves its `#[track_caller]` location,
//! so that lookup must not touch shared memory: each thread keeps a small
//! direct-mapped cache keyed by the `&'static Location` address, and only a
//! cache miss takes the interner's lock and hashes the file path.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::panic::Location;
use std::sync::OnceLock;

use parking_lot::RwLock;

use crate::audit;

/// An interned static program location (a TSVD point).
///
/// `SiteId`s are process-global: the same source location always interns to
/// the same id, including locations imported from a trap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(u32);

/// The source data backing a [`SiteId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteData {
    /// Source file of the call site.
    pub file: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub column: u32,
}

impl fmt::Display for SiteData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.column)
    }
}

struct Interner {
    by_data: HashMap<SiteData, SiteId>,
    data: Vec<SiteData>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            by_data: HashMap::new(),
            data: Vec::new(),
        })
    })
}

impl SiteId {
    /// Interns the caller's source location.
    ///
    /// Instrumented wrappers mark themselves `#[track_caller]` so that the
    /// *caller's* position — the TSVD point — is captured, mirroring the
    /// paper's binary-rewriting proxies that record the original call site.
    #[track_caller]
    pub fn here() -> SiteId {
        let loc = Location::caller();
        SiteId::from_location(loc)
    }

    /// Interns an explicit [`Location`], served from the calling thread's
    /// site cache after the first visit.
    pub fn from_location(loc: &'static Location<'static>) -> SiteId {
        // The cache has no destructor, so it is reachable even from other
        // thread-local destructors.
        SITE_CACHE.with(|cache| cache.get_or_intern(loc))
    }

    /// Interns explicit site data.
    pub fn intern(data: SiteData) -> SiteId {
        audit::note_lock();
        {
            let guard = interner().read();
            if let Some(&id) = guard.by_data.get(&data) {
                return id;
            }
        }
        let mut guard = interner().write();
        if let Some(&id) = guard.by_data.get(&data) {
            return id;
        }
        let id = SiteId(
            u32::try_from(guard.data.len()).expect("more than u32::MAX distinct TSVD points"),
        );
        guard.data.push(data);
        guard.by_data.insert(data, id);
        id
    }

    /// Parses and interns the textual form produced by [`fmt::Display`]
    /// (`file:line:column`). Used when loading a trap file.
    ///
    /// Returns `None` if `text` is not of the expected shape.
    pub fn parse(text: &str) -> Option<SiteId> {
        let (rest, column) = text.rsplit_once(':')?;
        let (file, line) = rest.rsplit_once(':')?;
        let line: u32 = line.parse().ok()?;
        let column: u32 = column.parse().ok()?;
        // Imported file names were not compiled into this binary; leak them
        // once per distinct site (bounded by the trap-file size).
        let file: &'static str = leak_str(file);
        Some(Self::intern(SiteData { file, line, column }))
    }

    /// Returns the source data for this site.
    pub fn data(self) -> SiteData {
        interner().read().data[self.0 as usize]
    }

    /// Raw index (useful for dense per-site tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The site with raw index `index`, as produced by [`SiteId::index`].
    pub(crate) fn from_index(index: usize) -> SiteId {
        SiteId(u32::try_from(index).expect("site index out of range"))
    }
}

impl SiteData {
    fn of(loc: &'static Location<'static>) -> SiteData {
        SiteData {
            file: loc.file(),
            line: loc.line(),
            column: loc.column(),
        }
    }
}

/// Slots in each thread's site cache (a power of two).
const SITE_CACHE_SLOTS: usize = 64;

thread_local! {
    static SITE_CACHE: SiteCache<SITE_CACHE_SLOTS> = const { SiteCache::new() };
}

/// A direct-mapped cache from `&'static Location` addresses to interned
/// ids. A slot holds one address and its id; a colliding location simply
/// replaces it, so the cache can cost a re-intern but never a wrong id.
/// Address 0 marks an empty slot (no `Location` lives there).
struct SiteCache<const N: usize> {
    slots: [Cell<(usize, SiteId)>; N],
}

impl<const N: usize> SiteCache<N> {
    const fn new() -> Self {
        SiteCache {
            slots: [const { Cell::new((0, SiteId(0))) }; N],
        }
    }

    fn slot_of(addr: usize) -> usize {
        ((addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % N
    }

    fn get_or_intern(&self, loc: &'static Location<'static>) -> SiteId {
        let addr = loc as *const Location<'static> as usize;
        let slot = &self.slots[Self::slot_of(addr)];
        let (cached, id) = slot.get();
        if cached == addr {
            return id;
        }
        let id = SiteId::intern(SiteData::of(loc));
        slot.set((addr, id));
        id
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.data())
    }
}

/// Interns a string as `&'static str`, deduplicating so repeated trap-file
/// loads do not grow memory.
fn leak_str(s: &str) -> &'static str {
    static STRINGS: OnceLock<RwLock<HashMap<String, &'static str>>> = OnceLock::new();
    let strings = STRINGS.get_or_init(|| RwLock::new(HashMap::new()));
    {
        let guard = strings.read();
        if let Some(&v) = guard.get(s) {
            return v;
        }
    }
    let mut guard = strings.write();
    if let Some(&v) = guard.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(s.to_owned(), leaked);
    leaked
}

/// Interns the current source position as a [`SiteId`].
///
/// # Examples
///
/// ```
/// let a = tsvd_core::site!();
/// let b = tsvd_core::site!();
/// assert_ne!(a, b, "distinct source positions intern to distinct sites");
/// ```
#[macro_export]
macro_rules! site {
    () => {
        $crate::site::SiteId::here()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_location_interns_once() {
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(SiteId::here()); // Same source position each iteration.
        }
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[1], ids[2]);
    }

    #[test]
    fn different_locations_differ() {
        let a = SiteId::here();
        let b = SiteId::here();
        assert_ne!(a, b);
        assert_ne!(a.data().line, b.data().line);
    }

    #[test]
    fn display_round_trips_through_parse() {
        let a = SiteId::here();
        let text = a.to_string();
        let parsed = SiteId::parse(&text).expect("well-formed");
        assert_eq!(a, parsed, "parse of our own display must re-intern to us");
    }

    #[test]
    fn parse_foreign_site_is_stable() {
        let x = SiteId::parse("some/other/file.rs:10:5").expect("well-formed");
        let y = SiteId::parse("some/other/file.rs:10:5").expect("well-formed");
        assert_eq!(x, y);
        assert_eq!(x.data().line, 10);
        assert_eq!(x.data().column, 5);
        assert_eq!(x.data().file, "some/other/file.rs");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SiteId::parse("nocolons").is_none());
        assert!(SiteId::parse("file.rs:notanumber:3").is_none());
        assert!(SiteId::parse("file.rs:3:notanumber").is_none());
    }

    #[track_caller]
    fn caller() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn colliding_locations_keep_their_own_ids() {
        // A one-slot cache maps every location to the same slot.
        let cache = SiteCache::<1>::new();
        let (a, b) = (caller(), caller());
        let addr = |l: &'static Location<'static>| l as *const Location<'static> as usize;
        assert_ne!(addr(a), addr(b));
        assert_eq!(
            SiteCache::<1>::slot_of(addr(a)),
            SiteCache::<1>::slot_of(addr(b))
        );
        for _ in 0..3 {
            assert_eq!(cache.get_or_intern(a), SiteId::intern(SiteData::of(a)));
            assert_eq!(cache.get_or_intern(b), SiteId::intern(SiteData::of(b)));
        }
        assert_ne!(cache.get_or_intern(a), cache.get_or_intern(b));
    }

    #[test]
    fn cached_ids_equal_interned_ids_on_every_thread() {
        let locations = [caller(), caller(), caller(), caller(), caller()];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    // The second pass is served from this thread's cache.
                    for _ in 0..2 {
                        for &loc in &locations {
                            assert_eq!(
                                SiteId::from_location(loc),
                                SiteId::intern(SiteData::of(loc))
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn windows_style_paths_survive() {
        // Files may contain colons; rsplit keeps line/column parsing correct.
        let s = SiteId::parse("C:/src/lib.rs:7:9").expect("well-formed");
        assert_eq!(s.data().file, "C:/src/lib.rs");
        assert_eq!(s.data().line, 7);
    }
}
