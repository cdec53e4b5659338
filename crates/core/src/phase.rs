//! Concurrent-phase inference (§3.4.3).
//!
//! Synchronization such as forks, joins, barriers, and locks creates
//! sequential phases (initialization, clean-up, join-after-fork) in which a
//! TSVD point can never race. TSVD infers whether the program is currently
//! in a concurrent phase *without monitoring any synchronization*: it keeps a
//! global ring buffer of the contexts that executed the most recent TSVD
//! points, and calls the execution concurrent iff that buffer contains more
//! than one distinct context.
//!
//! The buffer sits on the `OnCall` hot path of every detector, so it is a
//! fixed array of atomic slots rather than a locked deque: recording is one
//! `fetch_add` on the cursor plus one store, and the concurrency check is a
//! bounded scan — no allocation, no lock, no parking. Slots race benignly:
//! an overlapping writer can only make the window a little fresher or a
//! little staler than a serialized one, which is within the precision the
//! heuristic needs.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::audit;
use crate::context::ContextId;

/// Slot value meaning "never written". Context ids are small dense counters,
/// so `u64::MAX` can never collide with a real context.
const EMPTY: u64 = u64::MAX;

/// Ring buffer of the contexts behind the most recent TSVD points.
pub struct PhaseBuffer {
    slots: Box<[AtomicU64]>,
    cursor: AtomicUsize,
}

impl PhaseBuffer {
    /// Creates a buffer holding the last `capacity` TSVD points.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        PhaseBuffer {
            slots: (0..capacity).map(|_| AtomicU64::new(EMPTY)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Records that `context` just executed a TSVD point and returns whether
    /// the execution is currently in a concurrent phase.
    pub fn record_and_check(&self, context: ContextId) -> bool {
        audit::note_shared_write();
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        audit::note_shared_write();
        self.slots[slot].store(context.0, Ordering::Relaxed);
        self.scan()
    }

    /// Returns whether the buffer currently indicates a concurrent phase,
    /// without recording anything.
    pub fn is_concurrent(&self) -> bool {
        self.scan()
    }

    /// Number of slots written so far (bounded by the capacity).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != EMPTY)
            .count()
    }

    /// Returns `true` if no TSVD point has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Concurrent iff two distinct contexts appear among the written slots.
    fn scan(&self) -> bool {
        let mut first = EMPTY;
        for slot in self.slots.iter() {
            let v = slot.load(Ordering::Relaxed);
            if v == EMPTY {
                continue;
            }
            if first == EMPTY {
                first = v;
            } else if v != first {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_is_sequential() {
        let b = PhaseBuffer::new(4);
        assert!(!b.is_concurrent());
    }

    #[test]
    fn single_context_is_sequential() {
        let b = PhaseBuffer::new(4);
        for _ in 0..10 {
            assert!(!b.record_and_check(ContextId(1)));
        }
    }

    #[test]
    fn two_contexts_are_concurrent() {
        let b = PhaseBuffer::new(4);
        b.record_and_check(ContextId(1));
        assert!(b.record_and_check(ContextId(2)));
        assert!(b.is_concurrent());
    }

    #[test]
    fn old_context_scrolls_out() {
        // A burst from one context flushes the other out of the window: the
        // execution has gone sequential again (e.g. after a join).
        let b = PhaseBuffer::new(4);
        b.record_and_check(ContextId(1));
        b.record_and_check(ContextId(2));
        for _ in 0..3 {
            b.record_and_check(ContextId(2));
        }
        assert!(
            !b.is_concurrent(),
            "context 1 should have scrolled out of the 4-entry window"
        );
    }

    #[test]
    fn capacity_bounds_memory() {
        let b = PhaseBuffer::new(8);
        for i in 0..100 {
            b.record_and_check(ContextId(i % 2));
        }
        assert!(b.len() <= 8);
    }

    #[test]
    fn minimum_capacity_is_two() {
        // A buffer of one could never see two contexts; the constructor
        // clamps so phase detection stays meaningful.
        let b = PhaseBuffer::new(0);
        b.record_and_check(ContextId(1));
        assert!(b.record_and_check(ContextId(2)));
    }

    #[test]
    fn context_zero_is_a_real_context() {
        // The empty sentinel is u64::MAX, not 0: the first context id must
        // count as an occupant, not an empty slot.
        let b = PhaseBuffer::new(4);
        assert!(!b.record_and_check(ContextId(0)));
        assert_eq!(b.len(), 1);
        assert!(b.record_and_check(ContextId(1)));
    }
}
