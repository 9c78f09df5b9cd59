//! The per-document shard cache behind incremental
//! [`PipelineSession`](crate::PipelineSession) recomputation.
//!
//! Stage artifacts (candidate slices, feature CSR blocks, label shards)
//! are cached per document under a [`ShardKey`] —
//! `(document content hash, stage config fingerprint)` — so mutating one
//! document invalidates exactly that document's shards: its content hash
//! changes, every other key still hits. Shards are content-addressed, not
//! position-addressed, which keeps them valid across the `DocId` shifts a
//! removal causes.
//!
//! A label shard's fingerprint covers only the extractor: the shard holds
//! one vote column per LF identity and grows when an LF edit votes a
//! column it lacks. The session looks it up with
//! [`get_with`](ShardCache::get_with), so one lookup per document answers
//! every LF and a shard that still lacks a column counts as a miss, and
//! then re-[`insert`](ShardCache::insert)s the revised shard under the
//! same key.
//!
//! Eviction is deterministic LRU over an insertion/access tick, bounded by
//! a capacity the session resizes to track the corpus (a few generations
//! of shards per document). A tick-ordered index makes each eviction
//! O(log n), so a warm session whose cache is full does not scan every
//! resident shard on each miss. Hits, misses, and evictions are mirrored
//! to the `fonduer-observe` counters
//! `session.shard_cache.{hit,miss,evict}` (exported by `fonduer-obsd` as
//! `fonduer_session_shard_cache_{hit,miss,evict}_total`).

use fonduer_observe as observe;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Identity of one per-document stage shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardKey {
    /// [`Document::content_hash`](fonduer_datamodel::Document::content_hash)
    /// of the document the shard was computed from.
    pub doc_hash: u64,
    /// Fingerprint of every stage input that shapes the shard (extractor,
    /// feature config, ...).
    pub config: u64,
}

struct Entry<T> {
    value: Arc<T>,
    last_used: u64,
}

/// A bounded, deterministically-LRU-evicting map from [`ShardKey`] to one
/// stage's per-document shard type.
pub struct ShardCache<T> {
    map: HashMap<ShardKey, Entry<T>>,
    /// Every resident key under its `last_used` tick; the first entry is
    /// the least recently used.
    lru: BTreeMap<u64, ShardKey>,
    /// Monotonic access clock; unique per get/insert, so LRU order is a
    /// total order and eviction is deterministic.
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evicts: u64,
}

impl<T> ShardCache<T> {
    /// An empty cache holding at most `capacity` shards.
    pub fn new(capacity: usize) -> Self {
        // Register the counters at zero so a live `/metrics` scrape shows
        // the full family even before any traversal runs.
        observe::counter("session.shard_cache.hit", 0);
        observe::counter("session.shard_cache.miss", 0);
        observe::counter("session.shard_cache.evict", 0);
        Self {
            map: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evicts: 0,
        }
    }

    /// Grow or shrink the capacity (evicting LRU-first if over the new
    /// bound). Sessions call this as the corpus grows or shrinks.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.evict_over_capacity();
    }

    /// Look up a shard, counting a hit or miss and refreshing LRU order.
    pub fn get(&mut self, key: ShardKey) -> Option<Arc<T>> {
        self.get_with(key, |_| true)
    }

    /// Look up a shard the caller may have to complete: a resident shard
    /// is returned and refreshed in LRU order either way, but counts as a
    /// hit only when `complete` holds for it. One that still needs
    /// recomputation counts as a miss.
    pub fn get_with(&mut self, key: ShardKey, complete: impl FnOnce(&T) -> bool) -> Option<Arc<T>> {
        self.tick += 1;
        let found = match self.map.get_mut(&key) {
            Some(e) => {
                self.lru.remove(&e.last_used);
                self.lru.insert(self.tick, key);
                e.last_used = self.tick;
                Some(Arc::clone(&e.value))
            }
            None => None,
        };
        if found.as_deref().is_some_and(complete) {
            self.hits += 1;
            observe::counter("session.shard_cache.hit", 1);
        } else {
            self.misses += 1;
            observe::counter("session.shard_cache.miss", 1);
        }
        found
    }

    /// Insert (or overwrite) a shard, evicting least-recently-used entries
    /// if the cache is over capacity.
    pub fn insert(&mut self, key: ShardKey, value: Arc<T>) {
        self.tick += 1;
        let entry = Entry {
            value,
            last_used: self.tick,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.lru.remove(&old.last_used);
        }
        self.lru.insert(self.tick, key);
        self.evict_over_capacity();
    }

    fn evict_over_capacity(&mut self) {
        while self.map.len() > self.capacity {
            let (_, victim) = self
                .lru
                .pop_first()
                .expect("cache over capacity implies at least one entry");
            self.map.remove(&victim);
            self.evicts += 1;
            observe::counter("session.shard_cache.evict", 1);
        }
    }

    /// Shards currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every shard (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.lru.clear();
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime eviction count.
    pub fn evicts(&self) -> u64 {
        self.evicts
    }
}

/// Aggregated shard-cache state for reporting: lifetime hit/miss/evict
/// totals across a session's candidate, feature, and label caches plus the
/// last traversal's recomputed-document count — the `RunReport`
/// incremental-run section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCacheSummary {
    /// Shard lookups served from cache (all stages, session lifetime).
    pub hits: u64,
    /// Shard lookups that required recomputation.
    pub misses: u64,
    /// Shards evicted under capacity pressure.
    pub evicts: u64,
    /// Shards currently resident across all stage caches.
    pub cached: usize,
    /// Documents with at least one shard recomputed in the last traversal
    /// (1 after a warm single-document upsert; the whole corpus when cold).
    pub recomputed_docs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(doc: u64, cfg: u64) -> ShardKey {
        ShardKey {
            doc_hash: doc,
            config: cfg,
        }
    }

    #[test]
    fn hit_miss_counting() {
        let mut c: ShardCache<u32> = ShardCache::new(8);
        assert!(c.get(k(1, 1)).is_none());
        c.insert(k(1, 1), Arc::new(42));
        assert_eq!(c.get(k(1, 1)).as_deref(), Some(&42));
        assert!(
            c.get(k(1, 2)).is_none(),
            "config fingerprint is part of the key"
        );
        assert!(c.get(k(2, 1)).is_none(), "doc hash is part of the key");
        assert_eq!((c.hits(), c.misses(), c.evicts()), (1, 3, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn incomplete_shard_is_returned_but_counts_as_a_miss() {
        let mut c: ShardCache<u32> = ShardCache::new(8);
        c.insert(k(1, 1), Arc::new(42));
        assert_eq!(c.get_with(k(1, 1), |&v| v == 7).as_deref(), Some(&42));
        assert_eq!((c.hits(), c.misses()), (0, 1));
        assert_eq!(c.get_with(k(1, 1), |&v| v == 42).as_deref(), Some(&42));
        assert!(c.get_with(k(2, 1), |_| true).is_none());
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        let mut c: ShardCache<u32> = ShardCache::new(2);
        c.insert(k(1, 0), Arc::new(1));
        c.insert(k(2, 0), Arc::new(2));
        // Touch 1 so 2 is now least recently used.
        assert!(c.get(k(1, 0)).is_some());
        c.insert(k(3, 0), Arc::new(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evicts(), 1);
        assert!(c.get(k(2, 0)).is_none(), "LRU entry evicted");
        assert!(c.get(k(1, 0)).is_some());
        assert!(c.get(k(3, 0)).is_some());
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let mut c: ShardCache<u32> = ShardCache::new(4);
        for i in 0..4 {
            c.insert(k(i, 0), Arc::new(i as u32));
        }
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evicts(), 2);
        // The two most recently inserted survive.
        assert!(c.get(k(2, 0)).is_some());
        assert!(c.get(k(3, 0)).is_some());
        c.clear();
        assert!(c.is_empty());
    }

    /// The LRU definition, kept naive: each eviction scans for the entry
    /// with the oldest tick.
    struct ReferenceLru {
        entries: Vec<(ShardKey, u32, u64)>,
        tick: u64,
        capacity: usize,
        evicts: u64,
    }

    impl ReferenceLru {
        fn get(&mut self, key: ShardKey) -> Option<u32> {
            self.tick += 1;
            let e = self.entries.iter_mut().find(|e| e.0 == key)?;
            e.2 = self.tick;
            Some(e.1)
        }

        fn insert(&mut self, key: ShardKey, value: u32) {
            self.tick += 1;
            self.entries.retain(|e| e.0 != key);
            self.entries.push((key, value, self.tick));
            self.evict();
        }

        fn set_capacity(&mut self, capacity: usize) {
            self.capacity = capacity.max(1);
            self.evict();
        }

        fn evict(&mut self) {
            while self.entries.len() > self.capacity {
                let oldest = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].2)
                    .unwrap();
                self.entries.remove(oldest);
                self.evicts += 1;
            }
        }
    }

    #[test]
    fn eviction_order_matches_a_naive_lru() {
        for seed in 1..=8u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = move |bound: u64| {
                // xorshift64*
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
            };
            let mut cache: ShardCache<u32> = ShardCache::new(16);
            let mut reference = ReferenceLru {
                entries: Vec::new(),
                tick: 0,
                capacity: 16,
                evicts: 0,
            };
            for step in 0..4000u32 {
                let key = k(next(48), next(3));
                match next(100) {
                    0..=54 => assert_eq!(
                        cache.get(key).map(|v| *v),
                        reference.get(key),
                        "seed {seed} step {step}: get {key:?}"
                    ),
                    55..=97 => {
                        cache.insert(key, Arc::new(step));
                        reference.insert(key, step);
                    }
                    _ => {
                        let capacity = next(40) as usize;
                        cache.set_capacity(capacity);
                        reference.set_capacity(capacity);
                    }
                }
                assert_eq!(cache.len(), reference.entries.len());
                assert_eq!(cache.evicts(), reference.evicts);
            }
            for (key, value, _) in &reference.entries {
                assert_eq!(cache.get(*key).as_deref(), Some(value));
            }
        }
    }
}
