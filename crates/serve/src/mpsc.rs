//! Lock-free bounded ring for batch-assembly slot reservation.
//!
//! [`SlotRing`] is the classic Vyukov bounded MPMC queue: each slot carries a
//! sequence number that encodes, relative to the head/tail positions, whether
//! the slot is free to write or ready to read. Producers reserve a slot with
//! one CAS on the tail and publish with one release store — no mutex, so
//! concurrent cache misses enqueue into an assembly lane without convoying
//! behind each other (the failure mode of the old single `Mutex<Vec<_>>`
//! queue). The serving engine uses it MPSC-style — many request threads
//! produce, whichever thread holds the lane's leader lock consumes — but the
//! implementation is safe for multiple consumers too.

use crate::pad::CacheAligned;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Slot<T> {
    /// Vyukov sequence: `pos` when free for the producer that reserves
    /// position `pos`, `pos + 1` when published, `pos + capacity` after the
    /// consumer frees it for the next lap.
    sequence: AtomicUsize,
    value: UnsafeCell<Option<T>>,
}

/// A fixed-capacity lock-free MPMC ring (used MPSC by the batcher).
pub struct SlotRing<T> {
    buffer: Box<[Slot<T>]>,
    /// `capacity - 1`; capacity is a power of two so masking replaces `%`.
    mask: usize,
    /// Next position to write (producers CAS this).
    tail: CacheAligned<AtomicUsize>,
    /// Next position to read (consumers CAS this).
    head: CacheAligned<AtomicUsize>,
}

// The UnsafeCell is only written by the producer that owns the slot's
// sequence number and only read by the consumer that claims it — the
// sequence protocol hands the cell off with acquire/release ordering.
unsafe impl<T: Send> Send for SlotRing<T> {}
unsafe impl<T: Send> Sync for SlotRing<T> {}

impl<T> std::fmt::Debug for SlotRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotRing")
            .field("capacity", &(self.mask + 1))
            .field("len", &self.len())
            .finish()
    }
}

impl<T> SlotRing<T> {
    /// Creates a ring holding at least `capacity` items (rounded up to the
    /// next power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        SlotRing {
            buffer: (0..capacity)
                .map(|i| Slot {
                    sequence: AtomicUsize::new(i),
                    value: UnsafeCell::new(None),
                })
                .collect(),
            mask: capacity - 1,
            tail: CacheAligned::new(AtomicUsize::new(0)),
            head: CacheAligned::new(AtomicUsize::new(0)),
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Approximate number of queued items (exact when quiescent).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        tail.saturating_sub(head)
    }

    /// Whether the ring appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `value`; returns it back if the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.buffer[pos & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            if seq == pos {
                // Free this lap: try to reserve it.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // We own the slot exclusively until the publish
                        // store below.
                        unsafe { *slot.value.get() = Some(value) };
                        slot.sequence.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if seq < pos {
                // The slot is still occupied from the previous lap: full.
                return Err(value);
            } else {
                // Another producer advanced past us; catch up.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest item, or `None` if the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.buffer[pos & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            if seq == pos + 1 {
                // Published: try to claim it.
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let value = unsafe { (*slot.value.get()).take() };
                        // Free the slot for the producer one lap ahead.
                        slot.sequence.store(pos + self.mask + 1, Ordering::Release);
                        return value;
                    }
                    Err(now) => pos = now,
                }
            } else if seq <= pos {
                // Not yet published: empty (from this consumer's view).
                return None;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }
}

// The ring's stress tests need free-running OS threads that block and spin
// on each other, not pool participants.
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fifo_order_single_thread() {
        let ring = SlotRing::new(8);
        for i in 0..5 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.len(), 5);
        for i in 0..5 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_rejects_and_returns_value() {
        let ring = SlotRing::new(2);
        assert_eq!(ring.capacity(), 2);
        ring.push(1).unwrap();
        ring.push(2).unwrap();
        assert_eq!(ring.push(3), Err(3));
        assert_eq!(ring.pop(), Some(1));
        ring.push(3).unwrap();
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
    }

    #[test]
    fn wraps_around_many_laps() {
        let ring = SlotRing::new(4);
        for lap in 0..100 {
            for i in 0..3 {
                ring.push(lap * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(ring.pop(), Some(lap * 10 + i));
            }
        }
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 500;
        let ring = SlotRing::new(64);
        let produced = AtomicUsize::new(0);
        let consumed = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let ring = &ring;
                let produced = &produced;
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = p * PER_PRODUCER + i;
                        loop {
                            match ring.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                        produced.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let ring = &ring;
            let produced = &produced;
            let consumed = &consumed;
            scope.spawn(move || {
                let mut got = Vec::new();
                while got.len() < PRODUCERS * PER_PRODUCER {
                    match ring.pop() {
                        Some(v) => got.push(v),
                        None => std::thread::yield_now(),
                    }
                }
                consumed.lock().unwrap().extend(got);
                let _ = produced;
            });
        });
        let got = consumed.into_inner().unwrap();
        assert_eq!(got.len(), PRODUCERS * PER_PRODUCER);
        let unique: HashSet<usize> = got.iter().copied().collect();
        assert_eq!(unique.len(), PRODUCERS * PER_PRODUCER, "no duplicates");
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // MPSC contract: items from one producer come out in push order.
        const PER: usize = 300;
        let ring = SlotRing::new(16);
        let seen = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for p in 0..2usize {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..PER {
                        let mut v = (p, i);
                        while let Err(back) = ring.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let ring = &ring;
            let seen = &seen;
            scope.spawn(move || {
                let mut got = Vec::new();
                while got.len() < 2 * PER {
                    match ring.pop() {
                        Some(v) => got.push(v),
                        None => std::thread::yield_now(),
                    }
                }
                seen.lock().unwrap().extend(got);
            });
        });
        let got = seen.into_inner().unwrap();
        for p in 0..2 {
            let order: Vec<usize> = got
                .iter()
                .filter(|(q, _)| *q == p)
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(order, (0..PER).collect::<Vec<_>>(), "producer {p}");
        }
    }
}
