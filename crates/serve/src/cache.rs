//! Sharded placement cache keyed by the discretized `(B, I)` pair.
//!
//! The paper's 0.1-increment grid (§III) makes the `(B, I)` key space
//! finite: every `I` vector is grid-quantized by construction and every
//! named workload's `B` profile sits on grid levels, so a serving process
//! sees the same keys over and over — hit rates are high by construction.
//! Keys are the **bit patterns** of the 17 variables plus the raw graph
//! statistics the `I` vector carries (predictors may read them — the
//! decision tree's density rule does), so the cache is correct even for
//! off-grid inputs: distinct key bits never collide, and equal bits give a
//! predictor byte-identical inputs, implying an identical prediction.
//!
//! Shards are independent `Mutex`-protected maps selected by key hash, so
//! concurrent lookups mostly touch different locks. Each shard runs LRU
//! eviction against its slice of the configured capacity, and the whole
//! cache carries a generation counter for explicit invalidation when the
//! fault plan or predictor changes.

use crate::pad::CacheAligned;
use heteromap_model::{BVector, IVector, MConfig, BI_DIM};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Multiplier of the FxHash word fold (Firefox's hasher): fast, fixed, and
/// good enough for keys that are already full-entropy `f64` bit patterns.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds a word into an FxHash-style running hash.
#[inline]
fn fx_fold(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// Cache key: the exact bit patterns of the 13 B + 4 I variables, plus the
/// four raw statistics behind the `I` vector (vertices, edges, max degree,
/// diameter) — everything a [`heteromap_predict::Predictor`] can observe.
///
/// The hash of the 21 words is folded once at construction and carried in
/// the key, so the hot path never re-hashes: shard selection and the shard
/// `HashMap` (through [`IdentityHasher`]) both reuse the same precomputed
/// value. The old scheme ran SipHash over all 21 words
/// twice per lookup (once for the shard, once inside the map) — measurable
/// at millions of requests per second.
#[derive(Debug, Clone, Copy)]
pub struct PredKey {
    bits: [u64; BI_DIM + 4],
    hash: u64,
}

impl PartialEq for PredKey {
    fn eq(&self, other: &Self) -> bool {
        // Hash first: a one-word reject covers almost every mismatch.
        self.hash == other.hash && self.bits == other.bits
    }
}

impl Eq for PredKey {}

impl Hash for PredKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PredKey {
    /// Builds the key for one benchmark-input pair.
    pub fn new(b: &BVector, i: &IVector) -> Self {
        let mut bits = [0u64; BI_DIM + 4];
        for (slot, v) in bits.iter_mut().zip(b.as_array()) {
            *slot = v.to_bits();
        }
        for (slot, v) in bits[13..].iter_mut().zip(i.as_array()) {
            *slot = v.to_bits();
        }
        let raw = i.raw();
        bits[BI_DIM] = raw.vertices;
        bits[BI_DIM + 1] = raw.edges;
        bits[BI_DIM + 2] = raw.max_degree;
        bits[BI_DIM + 3] = raw.diameter;
        let hash = bits.iter().fold(0u64, |h, &w| fx_fold(h, w));
        PredKey { bits, hash }
    }

    /// The precomputed 64-bit hash of the key.
    pub fn hash_value(&self) -> u64 {
        self.hash
    }

    /// Cache-shard index: low hash bits.
    fn shard_index(&self, shards: usize) -> usize {
        (self.hash as u32 as usize) % shards
    }
}

/// Pass-through hasher for maps keyed by [`PredKey`]: the key already
/// carries a strong precomputed hash, so the map hasher just forwards it.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher is only for u64-hashed keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// `BuildHasher` for [`IdentityHasher`] maps.
pub type IdentityState = BuildHasherDefault<IdentityHasher>;

/// A cached prediction: the machine configuration plus how many predictor
/// fallback steps produced it (carried into the attempt log on deploy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedPrediction {
    /// The predicted machine choices.
    pub config: MConfig,
    /// Predictor fallback steps taken when this was computed.
    pub fallbacks: u32,
}

/// Outcome of a cache insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Stored without displacing anything.
    Inserted,
    /// Stored after evicting the shard's least-recently-used entry.
    InsertedEvicting,
    /// Dropped: the cache was invalidated after this value was computed.
    StaleGeneration,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<PredKey, Entry, IdentityState>,
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    value: CachedPrediction,
    last_used: u64,
}

/// The sharded LRU prediction cache.
///
/// Each shard (mutex + map + LRU tick) lives on its own cache line via
/// [`CacheAligned`], so lock traffic on one shard never false-shares with a
/// neighbor's.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<CacheAligned<Mutex<Shard>>>,
    shard_capacity: usize,
    generation: AtomicU64,
}

impl ShardedCache {
    /// Creates a cache with `shards` independent shards sharing `capacity`
    /// total entries (each shard holds `capacity / shards`, minimum 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shard_capacity: (capacity / shards).max(1),
            shards: (0..shards)
                .map(|_| CacheAligned::new(Mutex::new(Shard::default())))
                .collect(),
            generation: AtomicU64::new(0),
        }
    }

    /// The current invalidation generation. Capture it **before** computing
    /// a value to insert; [`ShardedCache::insert`] drops values computed
    /// against an older generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Looks up a prediction, refreshing its LRU position.
    pub fn get(&self, key: &PredKey) -> Option<CachedPrediction> {
        let mut shard = self.shards[key.shard_index(self.shards.len())]
            .lock()
            .expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value
        })
    }

    /// Inserts a prediction computed at `generation`, evicting the shard's
    /// LRU entry if the shard is full. Values computed before the last
    /// invalidation are dropped (their model or fault plan is gone).
    pub fn insert(&self, key: PredKey, value: CachedPrediction, generation: u64) -> InsertOutcome {
        if generation != self.generation() {
            return InsertOutcome::StaleGeneration;
        }
        let mut shard = self.shards[key.shard_index(self.shards.len())]
            .lock()
            .expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let mut evicted = false;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.shard_capacity {
            if let Some(lru) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.map.remove(&lru);
                evicted = true;
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
        if evicted {
            InsertOutcome::InsertedEvicting
        } else {
            InsertOutcome::Inserted
        }
    }

    /// Clears every shard and bumps the generation, so in-flight values
    /// computed against the old model/fault plan can no longer be inserted.
    /// Returns the new generation.
    pub fn invalidate(&self) -> u64 {
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.clear();
        }
        gen
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::GraphStats;
    use heteromap_model::Workload;

    fn key(seed: u64) -> PredKey {
        let stats = GraphStats::from_known(seed + 1, (seed + 1) * 8, 5, 4);
        let i = IVector::from_normalized(
            [
                (seed % 11) as f64 / 10.0,
                ((seed / 11) % 11) as f64 / 10.0,
                0.2,
                0.3,
            ],
            stats,
        );
        PredKey::new(&Workload::Bfs.b_vector(), &i)
    }

    fn value(c: f64) -> CachedPrediction {
        let mut config = MConfig::gpu_default();
        config.cores = c;
        CachedPrediction {
            config,
            fallbacks: 0,
        }
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = ShardedCache::new(4, 64);
        let k = key(1);
        assert!(cache.get(&k).is_none());
        assert_eq!(
            cache.insert(k, value(0.5), cache.generation()),
            InsertOutcome::Inserted
        );
        assert_eq!(cache.get(&k).unwrap(), value(0.5));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = ShardedCache::new(4, 1024);
        for s in 0..100 {
            cache.insert(key(s), value(s as f64 / 100.0), 0);
        }
        for s in 0..100 {
            assert_eq!(cache.get(&key(s)).unwrap(), value(s as f64 / 100.0));
        }
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        // Single shard, capacity 2: touching `a` makes `b` the LRU victim.
        let cache = ShardedCache::new(1, 2);
        let (a, b, c) = (key(1), key(2), key(3));
        cache.insert(a, value(0.1), 0);
        cache.insert(b, value(0.2), 0);
        assert!(cache.get(&a).is_some());
        assert_eq!(
            cache.insert(c, value(0.3), 0),
            InsertOutcome::InsertedEvicting
        );
        assert!(cache.get(&a).is_some(), "recently used survives");
        assert!(cache.get(&b).is_none(), "LRU entry evicted");
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidation_clears_and_rejects_stale_inserts() {
        let cache = ShardedCache::new(2, 16);
        let gen = cache.generation();
        cache.insert(key(1), value(0.1), gen);
        let new_gen = cache.invalidate();
        assert!(cache.is_empty());
        assert_eq!(new_gen, gen + 1);
        // A value computed before the invalidation must be dropped.
        assert_eq!(
            cache.insert(key(2), value(0.2), gen),
            InsertOutcome::StaleGeneration
        );
        assert!(cache.get(&key(2)).is_none());
        // Fresh-generation inserts work again.
        assert_eq!(
            cache.insert(key(2), value(0.2), new_gen),
            InsertOutcome::Inserted
        );
    }

    #[test]
    fn key_is_exact_bits_not_just_grid_bucket() {
        let stats = GraphStats::from_known(10, 80, 5, 4);
        let a = IVector::from_normalized([0.1, 0.2, 0.3, 0.4], stats);
        let b = IVector::from_normalized([0.1, 0.2, 0.3, 0.4000001], stats);
        let w = Workload::Bfs.b_vector();
        assert_ne!(PredKey::new(&w, &a), PredKey::new(&w, &b));
        assert_eq!(PredKey::new(&w, &a), PredKey::new(&w, &a));
    }

    #[test]
    fn key_covers_raw_stats_behind_equal_normalized_values() {
        // The decision tree reads `IVector::density()` (raw average degree),
        // so two inputs that discretize to the same grid cell but differ in
        // raw statistics must occupy distinct cache entries.
        let sparse = GraphStats::from_known(1_000, 2_000, 5, 4);
        let dense = GraphStats::from_known(1_000, 90_000, 5, 4);
        let a = IVector::from_normalized([0.1, 0.1, 0.0, 0.2], sparse);
        let b = IVector::from_normalized([0.1, 0.1, 0.0, 0.2], dense);
        assert_eq!(a.as_array(), b.as_array(), "same grid cell by construction");
        let w = Workload::Bfs.b_vector();
        assert_ne!(PredKey::new(&w, &a), PredKey::new(&w, &b));
    }
}
