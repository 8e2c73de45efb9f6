//! Cache-line padding against false sharing.
//!
//! Hot locks that different cores take concurrently (the cache's shard
//! mutexes) must not share a 64-byte cache line, or every acquisition
//! ping-pongs the line between cores and independent shards serialize
//! anyway. [`CacheAligned`] forces each wrapped value onto its own line with
//! `#[repr(align(64))]` — the manual, dependency-free equivalent of
//! crossbeam's `CachePadded`.

use std::ops::{Deref, DerefMut};

/// Aligns (and therefore pads) `T` to a 64-byte cache-line boundary.
///
/// Wrapping elements of an array/`Vec` in this guarantees no two elements
/// share a cache line, eliminating false sharing between per-core slots.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
pub struct CacheAligned<T>(pub T);

impl<T> CacheAligned<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> Self {
        CacheAligned(value)
    }

    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> Deref for CacheAligned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CacheAligned<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> From<T> for CacheAligned<T> {
    fn from(value: T) -> Self {
        CacheAligned(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_is_line_aligned_and_padded() {
        assert_eq!(std::mem::align_of::<CacheAligned<u8>>(), 64);
        assert_eq!(std::mem::size_of::<CacheAligned<u8>>(), 64);
        // A Vec of aligned wrappers puts every element on its own line.
        let v: Vec<CacheAligned<u64>> = (0..4).map(CacheAligned::new).collect();
        for w in &v {
            assert_eq!((w as *const _ as usize) % 64, 0);
        }
    }

    #[test]
    fn deref_round_trips() {
        let mut w = CacheAligned::new(41u64);
        *w += 1;
        assert_eq!(*w, 42);
        assert_eq!(w.into_inner(), 42);
    }
}
