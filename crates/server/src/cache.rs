//! A true LRU cache with O(1) get/insert (hash map + intrusive list), and
//! the epoch-stamped wrapper every front-end cache is built on.
//!
//! The *service* cache sits in front of whole query results, where repeat
//! traffic is Zipf-skewed and recency actually matters, so it pays
//! for the doubly-linked bookkeeping. Entries live in a slab indexed by the
//! map; the list threads through the slab, most-recently-used first.
//!
//! [`EpochCache`] owns the one rule that keeps a cache honest across index
//! updates: an entry answers only for the epoch it was computed at, and a
//! publish clears the cache and rejects late inserts from older epochs.

use std::collections::HashMap;
use std::hash::Hash;
use std::mem::size_of;
use std::sync::Arc;

use parking_lot::Mutex;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache.
///
/// `get` refreshes recency; `insert` evicts the least-recently-used entry
/// once `capacity` is reached. A capacity of 0 disables the cache (inserts
/// are dropped).
pub struct LruCache<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries. Storage grows lazily
    /// (capacity may legitimately be huge and never filled).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &idx = self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(&self.slots[idx].value)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.slots[idx].value)
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used entry
    /// if the cache is full. The inserted entry becomes most recently used.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.detach(lru);
            self.map.remove(&self.slots[lru].key);
            self.free.push(lru);
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
    }

    /// Removes every entry, returning how many were dropped.
    pub fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        n
    }

    /// Every entry, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.values().map(|&idx| {
            let slot = &self.slots[idx];
            (&slot.key, &slot.value)
        })
    }

    /// The key that would be evicted next, if any (test/diagnostic hook).
    pub fn lru_key(&self) -> Option<&K> {
        (self.tail != NIL).then(|| &self.slots[self.tail].key)
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Cache hit/miss counters and current size.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Cacheable requests answered from memory.
    pub hits: u64,
    /// Cacheable requests that ran the engine.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Bytes those entries hold: per entry its slot and map record, and
    /// what its key (stored twice) and value own on the heap
    /// ([`HeapBytes`]). Read by walking the entries, so it costs O(entries).
    pub bytes: usize,
    /// Inserts rejected because the result was computed against a snapshot
    /// older than the current epoch (a worker raced an update; accepting
    /// the entry would resurrect pre-update scores).
    pub stale_rejects: u64,
    /// Update batches that changed nothing
    /// ([`crate::QueryService::apply_update`] found the adjacency unchanged
    /// and every refresh a no-op) and were therefore *not* published — the
    /// epoch stayed put and the warm hot-PPV cache survived (0 from a bare
    /// [`EpochCache`]).
    pub noop_update_skips: u64,
}

/// What a cached key or value owns on the heap beyond its inline size —
/// the part of [`CacheStats::bytes`] a slot's size does not show. A shared
/// allocation (an `Arc`) is counted in full by every entry holding it.
pub trait HeapBytes {
    /// Heap bytes owned (0 for plain values).
    fn heap_bytes(&self) -> usize;
}

macro_rules! owns_no_heap {
    ($($t:ty),*) => {
        $(impl HeapBytes for $t {
            fn heap_bytes(&self) -> usize {
                0
            }
        })*
    };
}

owns_no_heap!(u32, u64, usize, i32, f64, &str);

impl<A: HeapBytes, B: HeapBytes> HeapBytes for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<A: HeapBytes, B: HeapBytes, C: HeapBytes> HeapBytes for (A, B, C) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes() + self.2.heap_bytes()
    }
}

impl<T: HeapBytes> HeapBytes for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>() + self.iter().map(T::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapBytes> HeapBytes for Arc<T> {
    /// The shared allocation: its two reference counts and the value.
    fn heap_bytes(&self) -> usize {
        2 * size_of::<usize>() + size_of::<T>() + T::heap_bytes(self)
    }
}

struct Stamped<K: Eq + Hash + Clone, V> {
    lru: LruCache<K, (u64, V)>,
    /// The published epoch: inserts stamped older are rejected.
    epoch: u64,
    /// Hit / miss / stale-reject counts (`entries` is read off `lru`).
    counts: CacheStats,
}

/// An [`LruCache`] whose entries are stamped with the epoch of the index
/// version that computed them. A lookup hits only an entry stamped with
/// exactly the caller's epoch; an insert stamped older than the published
/// epoch is rejected and counted; [`EpochCache::publish`] clears the cache
/// and advances its epoch under the same lock, so an insert racing a
/// publish is either cleared (it landed first) or rejected (it landed
/// after) — never resurrected.
pub struct EpochCache<K: Eq + Hash + Clone, V>(Mutex<Stamped<K, V>>);

impl<K: Eq + Hash + Clone, V: Clone> EpochCache<K, V> {
    /// An empty cache at epoch 0 holding at most `capacity` entries
    /// (0 stores nothing).
    pub fn new(capacity: usize) -> Self {
        EpochCache(Mutex::new(Stamped {
            lru: LruCache::new(capacity),
            epoch: 0,
            counts: CacheStats::default(),
        }))
    }

    /// The value cached for `key` at exactly `epoch`, counting the hit or
    /// miss. An entry from another epoch is a miss: a caller pinned to one
    /// version never mixes in another's answer.
    pub fn get(&self, key: &K, epoch: u64) -> Option<V> {
        let mut inner = self.0.lock();
        let hit = inner
            .lru
            .get(key)
            .filter(|(stamp, _)| *stamp == epoch)
            .map(|(_, v)| v.clone());
        match hit {
            Some(_) => inner.counts.hits += 1,
            None => inner.counts.misses += 1,
        }
        hit
    }

    /// Caches `value` for `key`, stamped `epoch` — unless `epoch` is older
    /// than the published epoch: then the insert is a counted stale reject.
    pub fn insert(&self, key: K, epoch: u64, value: V) {
        let mut inner = self.0.lock();
        if epoch < inner.epoch {
            inner.counts.stale_rejects += 1;
            return;
        }
        inner.lru.insert(key, (epoch, value));
    }

    /// Advances the cache to `epoch` and drops every entry, returning how
    /// many were dropped. Epochs only move forward: publishing an epoch at
    /// or below the current one changes nothing.
    pub fn publish(&self, epoch: u64) -> usize {
        let mut inner = self.0.lock();
        if epoch <= inner.epoch {
            return 0;
        }
        inner.epoch = epoch;
        inner.lru.clear()
    }
}

impl<K: Eq + Hash + Clone + HeapBytes, V: Clone + HeapBytes> EpochCache<K, V> {
    /// Counters, current size and the bytes the entries hold.
    pub fn stats(&self) -> CacheStats {
        let inner = self.0.lock();
        let per_entry = size_of::<Slot<K, (u64, V)>>() + size_of::<(K, usize)>();
        CacheStats {
            entries: inner.lru.len(),
            bytes: inner
                .lru
                .iter()
                .map(|(key, (_, value))| per_entry + 2 * key.heap_bytes() + value.heap_bytes())
                .sum(),
            ..inner.counts
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut c = LruCache::new(4);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"c"), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.get(&"a"); // refresh a; b becomes LRU
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "b was LRU and must be evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_order_without_touches_is_fifo() {
        let mut c = LruCache::new(3);
        for (i, k) in ["a", "b", "c"].into_iter().enumerate() {
            c.insert(k, i);
        }
        assert_eq!(c.lru_key(), Some(&"a"));
        c.insert("d", 9);
        assert_eq!(c.peek(&"a"), None);
        assert_eq!(c.lru_key(), Some(&"b"));
    }

    #[test]
    fn replace_updates_value_and_recency_without_growth() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // replace: a becomes MRU, len stays 2
        assert_eq!(c.len(), 2);
        c.insert("c", 3); // evicts b, not a
        assert_eq!(c.peek(&"b"), None);
        assert_eq!(c.peek(&"a"), Some(&10));
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.peek(&"a"); // no recency change: a stays LRU
        c.insert("c", 3);
        assert_eq!(c.peek(&"a"), None);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
    }

    #[test]
    fn clear_empties_and_reports_count() {
        let mut c = LruCache::new(4);
        c.insert(1u32, "x");
        c.insert(2, "y");
        assert_eq!(c.clear(), 2);
        assert!(c.is_empty());
        assert_eq!(c.lru_key(), None);
        c.insert(3, "z"); // usable after clear
        assert_eq!(c.get(&3), Some(&"z"));
    }

    #[test]
    fn slab_reuse_after_eviction_is_consistent() {
        let mut c = LruCache::new(2);
        for i in 0..100u32 {
            c.insert(i, i * 2);
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&99), Some(&198));
        assert_eq!(c.get(&98), Some(&196));
        assert_eq!(c.get(&97), None);
    }

    #[test]
    fn epoch_cache_hits_only_the_exact_epoch() {
        let c = EpochCache::new(4);
        c.insert("a", 0, 1);
        assert_eq!(c.get(&"a", 0), Some(1));
        // A newer stamp on the same key is a different answer.
        c.insert("b", 1, 2);
        assert_eq!(c.get(&"b", 0), None, "a hit needs exactly its epoch");
        assert_eq!(c.get(&"b", 1), Some(2));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 2));
    }

    #[test]
    fn epoch_cache_publish_clears_and_rejects_older_stamps() {
        let c = EpochCache::new(4);
        // Inserted before the publish: cleared by it.
        c.insert(7u32, 0, "before");
        assert_eq!(c.publish(1), 1);
        assert_eq!(c.get(&7, 0), None);
        assert_eq!(c.stats().entries, 0);
        // Computed at epoch 0 but inserted after publish(1): rejected and
        // counted, so pre-update scores are never resurrected.
        c.insert(7, 0, "late");
        let stats = c.stats();
        assert_eq!((stats.entries, stats.stale_rejects), (0, 1));
        // A current-epoch insert is accepted.
        c.insert(7, 1, "fresh");
        assert_eq!(c.get(&7, 1), Some("fresh"));
        // Epochs only advance: an older publish is a no-op.
        assert_eq!(c.publish(0), 0);
        assert_eq!(c.get(&7, 1), Some("fresh"));
    }

    #[test]
    fn epoch_cache_bytes_follow_insert_eviction_and_publish() {
        let c: EpochCache<u32, Vec<u64>> = EpochCache::new(2);
        assert_eq!(c.stats().bytes, 0);
        c.insert(0, 0, Vec::new());
        let slot = c.stats().bytes;
        assert!(slot > 0, "an entry's slot and map record count");
        c.insert(1, 0, Vec::with_capacity(10));
        assert_eq!(c.stats().bytes, 2 * slot + 80);
        // Evicts key 0 (least recently used), which owned nothing.
        c.insert(2, 0, Vec::with_capacity(20));
        assert_eq!(c.stats().bytes, 2 * slot + 80 + 160);
        // Replacing a value counts the new one only.
        c.insert(1, 0, Vec::new());
        assert_eq!(c.stats().bytes, 2 * slot + 160);
        c.publish(1);
        assert_eq!(c.stats().bytes, 0);
    }

    /// A publish racing a stream of inserts stamped with the old epoch —
    /// the stream runs until it sees the publish, then a little past it:
    /// whatever the interleaving, no old-epoch entry survives.
    #[test]
    fn epoch_cache_racing_publish_never_keeps_a_stale_entry() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let c = EpochCache::new(1024);
        let start = std::sync::Barrier::new(2);
        let published = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                let mut k = 0u32;
                while !published.load(Ordering::SeqCst) {
                    c.insert(k % 4096, 0, k);
                    k += 1;
                }
                for _ in 0..100 {
                    c.insert(k % 4096, 0, k);
                    k += 1;
                }
            });
            start.wait();
            c.publish(1);
            published.store(true, Ordering::SeqCst);
        });
        // Every insert either landed before the publish (cleared) or
        // after it (rejected).
        let stats = c.stats();
        assert_eq!(stats.entries, 0);
        assert!(stats.stale_rejects >= 100);
    }
}
