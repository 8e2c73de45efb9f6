//! The repository's one specified hash: SipHash-1-3 with a zero key.
//!
//! Every seeded draw and digest in the workspace goes through
//! [`StableHasher`]: the cost-model noise term, the fault and retry draws,
//! the chaos and fleet traces and the round digests of the chaos, fleet and
//! dynamic-graph runners. Their outputs (oracle labels, fault schedules,
//! pinned digests) are therefore defined by this file, not by whatever
//! algorithm the standard library's `Hasher` happens to ship.
//!
//! # Contract
//!
//! * Algorithm: SipHash-1-3 (one compression round per 8-byte word, three
//!   finalization rounds), key `(0, 0)`.
//! * Byte stream: integers little-endian at their own width (`usize` and
//!   `isize` at the target's pointer width), `bool` as one byte, `u128` as
//!   two little-endian words, and `str` as its UTF-8 bytes followed by
//!   `0xff`, which makes string fields prefix-free. That is the
//!   `Hasher::write_str` default; stable Rust does not let a hasher
//!   override it, so the `str` cases in `tests/stable_hash.rs` pin it.
//! * The final block carries `len & 0xff` in its top byte, as in the
//!   SipHash reference.
//!
//! On little-endian targets this is bit-for-bit the function std's default
//! hasher computed when this repository's digests were first pinned;
//! `tests/stable_hash.rs` holds the known-answer values.

use std::hash::Hasher;

/// SipHash-1-3 with a zero key over the byte stream described in the
/// [module docs](self).
///
/// Integer writes go straight into the 64-bit tail word; only completed
/// words reach the compression round.
///
/// # Example
///
/// ```
/// use heteromap_model::StableHasher;
/// use std::hash::{Hash, Hasher};
///
/// let mut h = StableHasher::new();
/// 7u64.hash(&mut h);
/// "gpu".hash(&mut h);
/// assert_eq!(h.finish(), {
///     let mut again = StableHasher::new();
///     again.write_u64(7);
///     again.write(b"gpu\xff");
///     again.finish()
/// });
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Bytes written since the last full word, packed little-endian.
    tail: u64,
    /// How many of `tail`'s low bytes are in use (`0..8`).
    ntail: usize,
    /// Total bytes written.
    length: usize,
}

impl StableHasher {
    /// A hasher in SipHash's initial state for the zero key.
    #[inline]
    pub const fn new() -> Self {
        StableHasher {
            v0: 0x736f_6d65_7073_6575,
            v1: 0x646f_7261_6e64_6f6d,
            v2: 0x6c79_6765_6e65_7261,
            v3: 0x7465_6462_7974_6573,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    /// Appends the low `size` bytes of `x` (`1..=8`; the rest of `x` must
    /// be zero), compressing the tail word when it fills.
    #[inline(always)]
    fn push(&mut self, x: u64, size: usize) {
        debug_assert!((1..=8).contains(&size));
        self.length += size;
        let filled = self.ntail;
        self.tail |= x << (8 * filled);
        if filled + size < 8 {
            self.ntail = filled + size;
            return;
        }
        let word = self.tail;
        self.compress(word);
        let used = 8 - filled;
        self.ntail = size - used;
        self.tail = if used < 8 { x >> (8 * used) } else { 0 };
    }

    /// One message word: SipHash-1-3's single compression round.
    #[inline(always)]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.v0 ^= m;
    }

    #[inline(always)]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13) ^ self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16) ^ self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21) ^ self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17) ^ self.v2;
        self.v2 = self.v2.rotate_left(32);
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        let mut s = *self;
        let b = ((self.length as u64 & 0xff) << 56) | self.tail;
        s.compress(b);
        s.v2 ^= 0xff;
        s.round();
        s.round();
        s.round();
        s.v0 ^ s.v1 ^ s.v2 ^ s.v3
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.push(u64::from_le_bytes(w.try_into().expect("8-byte chunk")), 8);
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.push(u64::from_le_bytes(buf), rest.len());
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.push(u64::from(i), 1);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.push(u64::from(i), 2);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.push(u64::from(i), 4);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.push(i, 8);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.push(i as u64, 8);
        self.push((i >> 64) as u64, 8);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.push(i as u64, std::mem::size_of::<usize>());
    }
}

/// Chains `parts` into `digest` through one [`StableHasher`] step: the
/// order-sensitive fold behind every round-loop digest (chaos, fleet,
/// dyngraph). Writes `digest` then each part as a little-endian `u64`.
pub fn fold_digest(digest: u64, parts: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(digest);
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splitting one byte stream across writes of any width at any offset
    /// gives the same hash as writing it whole.
    #[test]
    fn integer_writes_equal_their_little_endian_bytes() {
        let bytes: Vec<u8> = (0u8..64).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
        let mut whole = StableHasher::new();
        whole.write(&bytes);
        for head in 0..8 {
            let mut h = StableHasher::new();
            h.write(&bytes[..head]);
            let mut at = head;
            for width in [1usize, 2, 4, 8, 8, 4, 2, 1, 4, 8] {
                let chunk = &bytes[at..at + width];
                match width {
                    1 => h.write_u8(chunk[0]),
                    2 => h.write_u16(u16::from_le_bytes(chunk.try_into().unwrap())),
                    4 => h.write_u32(u32::from_le_bytes(chunk.try_into().unwrap())),
                    _ => h.write_u64(u64::from_le_bytes(chunk.try_into().unwrap())),
                }
                at += width;
            }
            h.write(&bytes[at..]);
            assert_eq!(h.finish(), whole.finish(), "head {head}");
        }
    }
}
