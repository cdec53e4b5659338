//! The raw storage cell: memory-safe storage with a contract-violation
//! sentinel.
//!
//! See the crate docs for why the reproduction must not commit real data
//! races: the cell serializes the underlying memory (an implementation
//! detail the detector never sees) while entry/exit counters physically
//! witness every thread-safety-contract violation — the semantic analog of
//! .NET's silent corruption.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Memory-safe storage whose access counters latch contract violations.
pub struct RawCell<C> {
    storage: Mutex<C>,
    writers: AtomicUsize,
    readers: AtomicUsize,
    corrupted: AtomicBool,
}

impl<C> RawCell<C> {
    /// Wraps `value`.
    pub fn new(value: C) -> Self {
        RawCell {
            storage: Mutex::new(value),
            writers: AtomicUsize::new(0),
            readers: AtomicUsize::new(0),
            corrupted: AtomicBool::new(false),
        }
    }

    /// Enters a *write* method under the contract.
    ///
    /// The contract window spans the whole method call — including the
    /// instrumentation (and any injected delay) that runs before the
    /// storage operation, exactly like the paper's proxy methods — so a
    /// caught trap is also a physically witnessed overlap. Latches
    /// `corrupted` if any other access is in flight.
    pub fn enter_write(&self) -> WriteSection<'_, C> {
        let other_writers = self.writers.fetch_add(1, Ordering::SeqCst);
        let readers = self.readers.load(Ordering::SeqCst);
        if other_writers > 0 || readers > 0 {
            self.corrupted.store(true, Ordering::SeqCst);
        }
        WriteSection { cell: self }
    }

    /// Enters a *read* method under the contract.
    ///
    /// Latches `corrupted` if a write is in flight — reads may run
    /// concurrently with each other, but not with writes.
    pub fn enter_read(&self) -> ReadSection<'_, C> {
        self.readers.fetch_add(1, Ordering::SeqCst);
        if self.writers.load(Ordering::SeqCst) > 0 {
            self.corrupted.store(true, Ordering::SeqCst);
        }
        ReadSection { cell: self }
    }

    /// Convenience: enter a write section and immediately perform `f`.
    pub fn write<R>(&self, f: impl FnOnce(&mut C) -> R) -> R {
        self.enter_write().perform(f)
    }

    /// Convenience: enter a read section and immediately perform `f`.
    pub fn read<R>(&self, f: impl FnOnce(&C) -> R) -> R {
        self.enter_read().perform(f)
    }

    /// Returns `true` if a contract violation has ever been physically
    /// observed on this cell (the "torn state" witness).
    pub fn is_corrupted(&self) -> bool {
        self.corrupted.load(Ordering::SeqCst)
    }
}

/// An open write-method window. Dropping it exits the window.
pub struct WriteSection<'a, C> {
    cell: &'a RawCell<C>,
}

impl<C> WriteSection<'_, C> {
    /// Performs the storage operation; a late conflict check catches
    /// overlaps that began after entry.
    pub fn perform<R>(self, f: impl FnOnce(&mut C) -> R) -> R {
        if self.cell.writers.load(Ordering::SeqCst) > 1
            || self.cell.readers.load(Ordering::SeqCst) > 0
        {
            self.cell.corrupted.store(true, Ordering::SeqCst);
        }
        f(&mut self.cell.storage.lock())
    }
}

impl<C> Drop for WriteSection<'_, C> {
    fn drop(&mut self) {
        self.cell.writers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// An open read-method window. Dropping it exits the window.
pub struct ReadSection<'a, C> {
    cell: &'a RawCell<C>,
}

impl<C> ReadSection<'_, C> {
    /// Performs the storage operation; a late conflict check catches
    /// overlaps that began after entry.
    pub fn perform<R>(self, f: impl FnOnce(&C) -> R) -> R {
        if self.cell.writers.load(Ordering::SeqCst) > 0 {
            self.cell.corrupted.store(true, Ordering::SeqCst);
        }
        f(&self.cell.storage.lock())
    }
}

impl<C> Drop for ReadSection<'_, C> {
    fn drop(&mut self) {
        self.cell.readers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn sequential_use_is_clean() {
        let cell = RawCell::new(Vec::<u32>::new());
        cell.write(|v| v.push(1));
        assert_eq!(cell.read(|v| v.len()), 1);
        assert!(!cell.is_corrupted());
    }

    #[test]
    fn concurrent_reads_are_clean() {
        let cell = RawCell::new(42u64);
        let barrier = Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..1000 {
                        cell.read(|v| *v);
                    }
                });
            }
        });
        assert!(!cell.is_corrupted(), "read-read is allowed by the contract");
    }

    #[test]
    fn overlapping_writes_latch_corruption() {
        // Construct a guaranteed overlap (works even on one CPU): thread A
        // waits *inside* its write window until thread B's second write
        // has returned.
        let cell = RawCell::new(0u64);
        let handshake = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let section = cell.enter_write();
                handshake.wait(); // A is inside its write.
                handshake.wait(); // B's write returned.
                section.perform(|v| *v += 1);
            });
            handshake.wait();
            cell.write(|v| *v += 1);
            handshake.wait();
        });
        assert!(cell.is_corrupted(), "write-write overlap must latch");
        assert_eq!(cell.read(|v| *v), 2, "storage itself stays consistent");
    }

    #[test]
    fn read_during_write_latches_corruption() {
        // The writer waits inside its write window until the read has
        // returned, so the overlap does not depend on timing.
        let cell = RawCell::new(7u64);
        let handshake = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let section = cell.enter_write();
                handshake.wait(); // The writer is inside its write.
                handshake.wait(); // The read returned.
                section.perform(|v| *v += 1);
            });
            handshake.wait();
            cell.read(|v| *v);
            handshake.wait();
        });
        assert!(cell.is_corrupted(), "torn read must latch");
    }

    #[test]
    fn value_integrity_is_preserved() {
        // Memory safety holds even under contract violations.
        let cell = RawCell::new(Vec::<u64>::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cell = &cell;
                scope.spawn(move || {
                    for i in 0..1000 {
                        cell.write(|v| v.push(t * 10_000 + i));
                    }
                });
            }
        });
        assert_eq!(cell.read(|v| v.len()), 4000);
    }
}
