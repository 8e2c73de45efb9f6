//! Per-thread reader slots: a read-mostly lock whose readers write no cache
//! line that another thread's reads also write.
//!
//! One shared `RwLock` makes every reader do an atomic read-modify-write on
//! the same lock word, so two cores serving cache hits ping-pong that line
//! on every request. [`ReaderSlots`] instead keeps
//! [`COUNTER_SHARDS`] cache-aligned `RwLock<()>`s. A reader read-locks only
//! the slot picked for its thread, exactly as
//! `heteromap_obs::metrics::Counter` picks its shard. A writer write-locks
//! every slot in index order, so it excludes every reader, and two writers
//! queue at slot 0 instead of each holding a slot the other needs.

use crate::pad::CacheAligned;
use heteromap_obs::metrics::COUNTER_SHARDS;
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A value behind per-thread reader slots (see the [module docs](self)).
pub(crate) struct ReaderSlots<T> {
    slots: [CacheAligned<RwLock<()>>; COUNTER_SHARDS],
    value: UnsafeCell<T>,
}

// SAFETY: `value` is reached only through the guards below. A
// `SlotReadGuard` hands out `&T` while it holds one slot's read lock, and a
// `SlotWriteGuard` hands out `&mut T` only while it holds every slot's write
// lock, which no read lock can coexist with. So a `&mut T` never aliases
// another reference, and sharing `ReaderSlots<T>` across threads needs
// exactly what sharing `RwLock<T>` does: `T: Send + Sync`.
unsafe impl<T: Send + Sync> Sync for ReaderSlots<T> {}

impl<T> ReaderSlots<T> {
    /// Wraps `value`.
    pub(crate) fn new(value: T) -> Self {
        ReaderSlots {
            slots: std::array::from_fn(|_| CacheAligned::new(RwLock::new(()))),
            value: UnsafeCell::new(value),
        }
    }

    /// Shared access, read-locking only the calling thread's slot.
    pub(crate) fn read(&self) -> SlotReadGuard<'_, T> {
        let slot = heteromap_obs::thread_id() as usize & (COUNTER_SHARDS - 1);
        let lock = self.slots[slot].read().expect("reader slot poisoned");
        SlotReadGuard {
            _lock: lock,
            // SAFETY: the slot's read lock is held for the guard's lifetime,
            // so no `SlotWriteGuard` exists until it drops.
            value: unsafe { &*self.value.get() },
        }
    }

    /// Exclusive access, write-locking every slot in index order.
    pub(crate) fn write(&self) -> SlotWriteGuard<'_, T> {
        let mut locks = [const { None }; COUNTER_SHARDS];
        for (lock, slot) in locks.iter_mut().zip(&self.slots) {
            *lock = Some(slot.write().expect("reader slot poisoned"));
        }
        SlotWriteGuard {
            _locks: locks,
            // SAFETY: every slot's write lock is held for the guard's
            // lifetime, so no other guard exists until it drops.
            value: unsafe { &mut *self.value.get() },
        }
    }
}

impl<T> fmt::Debug for ReaderSlots<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The value is left out: reading it here could block on a writer.
        f.debug_struct("ReaderSlots")
            .field("slots", &COUNTER_SHARDS)
            .finish_non_exhaustive()
    }
}

/// Shared access through one read-locked slot.
pub(crate) struct SlotReadGuard<'a, T> {
    _lock: RwLockReadGuard<'a, ()>,
    value: &'a T,
}

impl<T> Deref for SlotReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value
    }
}

/// Exclusive access through every write-locked slot.
pub(crate) struct SlotWriteGuard<'a, T> {
    _locks: [Option<RwLockWriteGuard<'a, ()>>; COUNTER_SHARDS],
    value: &'a mut T,
}

impl<T> Deref for SlotWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value
    }
}

impl<T> DerefMut for SlotWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_sit_on_their_own_cache_lines() {
        let slots = ReaderSlots::new(0u64);
        for slot in &slots.slots {
            assert_eq!(slot as *const _ as usize % 64, 0);
        }
    }

    #[test]
    fn writes_are_seen_by_later_reads_on_every_thread() {
        let slots = ReaderSlots::new(0u64);
        *slots.write() += 41;
        *slots.write() += 1;
        assert_eq!(*slots.read(), 42);
        let seen = heteromap_kernels::par::par_map(2 * COUNTER_SHARDS, 4, |_| *slots.read());
        assert!(seen.iter().all(|&v| v == 42), "{seen:?}");
    }

    #[test]
    fn a_write_excludes_reads_on_every_slot() {
        let slots = ReaderSlots::new(0u64);
        let _write = slots.write();
        for slot in &slots.slots {
            assert!(slot.try_read().is_err());
        }
    }
}
