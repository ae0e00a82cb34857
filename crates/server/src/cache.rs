//! A true LRU cache with O(1) get/insert (hash map + intrusive list).
//!
//! The *service* cache sits in front of whole query results, where repeat
//! traffic is Zipf-skewed and recency actually matters, so it pays
//! for the doubly-linked bookkeeping. Entries live in a slab indexed by the
//! map; the list threads through the slab, most-recently-used first.

use std::collections::HashMap;
use std::hash::Hash;

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

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
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
}
