//! A small deterministic LRU cache for content-addressed results.
//!
//! Backs the `qla-serve` result cache: keys are canonical request hashes
//! (see [`crate::hash`]), values are typed reports. The implementation is
//! deliberately simple — a `Vec` of entries with a monotonic recency stamp —
//! because the capacities in play are small (tens to a few thousand) and,
//! unlike a `HashMap`-based cache, every operation (including eviction
//! order) is a deterministic function of the operation sequence. That
//! determinism is load-bearing: the service's cache statistics appear in
//! byte-pinned reports, so two identical runs must hit, miss and evict
//! identically.

/// One cached entry.
#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    /// Monotonic recency stamp: larger = more recently used.
    stamp: u64,
}

/// A least-recently-used cache with a fixed capacity.
///
/// `get` refreshes recency; `insert` evicts the least recently used entry
/// once the cache is full. Lookups are linear scans — intentional, see the
/// module docs.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    entries: Vec<Entry<K, V>>,
    capacity: usize,
    clock: u64,
}

impl<K: Eq, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics when `capacity` is zero — a cache that can hold nothing is a
    /// configuration error, not a degenerate mode.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache capacity must be at least 1");
        LruCache {
            entries: Vec::with_capacity(capacity.min(1024)),
            capacity,
            clock: 0,
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.iter_mut().find(|e| &e.key == key).map(|e| {
            e.stamp = clock;
            &e.value
        })
    }

    /// Look up `key` mutably, refreshing its recency on a hit. Lets a
    /// caller amend a cached value in place (e.g. memoise a derived
    /// rendering alongside it) without a remove/insert round trip.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.iter_mut().find(|e| &e.key == key).map(|e| {
            e.stamp = clock;
            &mut e.value
        })
    }

    /// Whether `key` is cached, **without** refreshing its recency.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.entries.iter().any(|e| &e.key == key)
    }

    /// Insert (or replace) `key → value`, evicting the least recently used
    /// entry if the cache is full. Returns the evicted key, if any.
    ///
    /// Replacing an existing key refreshes its recency and never evicts.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        self.clock += 1;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.key == key) {
            entry.value = value;
            entry.stamp = self.clock;
            return None;
        }
        let mut evicted = None;
        if self.entries.len() == self.capacity {
            // The unique minimum stamp is the least recently used entry
            // (stamps are monotonic, so no ties are possible).
            let (lru, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .expect("cache is full, hence non-empty");
            evicted = Some(self.entries.swap_remove(lru).key);
        }
        self.entries.push(Entry {
            key,
            value,
            stamp: self.clock,
        });
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_hits_after_insert_and_misses_otherwise() {
        let mut cache: LruCache<u64, &str> = LruCache::new(4);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.insert(1, "one"), None);
        assert_eq!(cache.get(&1), Some(&"one"));
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&1) && !cache.contains(&2));
    }

    #[test]
    fn eviction_removes_the_least_recently_used_entry() {
        let mut cache: LruCache<u64, u64> = LruCache::new(3);
        for k in [1, 2, 3] {
            cache.insert(k, k * 10);
        }
        // Touch 1, making 2 the LRU; the next insert evicts exactly 2.
        assert_eq!(cache.get(&1), Some(&10));
        assert_eq!(cache.insert(4, 40), Some(2));
        assert_eq!(cache.len(), 3);
        assert!(cache.contains(&1) && cache.contains(&3) && cache.contains(&4));
        assert_eq!(cache.get(&2), None);
    }

    #[test]
    fn eviction_order_follows_use_order_exactly() {
        // The full recency ladder: inserts and hits interleaved, then a
        // sequence of overflowing inserts must evict in stamp order.
        let mut cache: LruCache<char, ()> = LruCache::new(3);
        cache.insert('a', ());
        cache.insert('b', ());
        cache.insert('c', ());
        cache.get(&'a'); // order now: b, c, a
        cache.get(&'b'); // order now: c, a, b
        assert_eq!(cache.insert('d', ()), Some('c'));
        assert_eq!(cache.insert('e', ()), Some('a'));
        assert_eq!(cache.insert('f', ()), Some('b'));
        assert!(['d', 'e', 'f'].iter().all(|k| cache.contains(k)));
    }

    #[test]
    fn replacing_a_key_refreshes_recency_without_evicting() {
        let mut cache: LruCache<u64, &str> = LruCache::new(2);
        cache.insert(1, "one");
        cache.insert(2, "two");
        // Replace 1: no eviction, and 2 becomes the LRU.
        assert_eq!(cache.insert(1, "uno"), None);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(&"uno"));
        assert_eq!(cache.insert(3, "three"), Some(2));
    }

    #[test]
    fn capacity_one_degenerates_to_a_single_slot() {
        let mut cache: LruCache<u64, u64> = LruCache::new(1);
        assert_eq!(cache.insert(1, 10), None);
        assert_eq!(cache.insert(2, 20), Some(1));
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), Some(&20));
        assert_eq!(cache.capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected_loudly() {
        let _ = LruCache::<u64, u64>::new(0);
    }

    #[test]
    fn get_mut_amends_in_place_and_refreshes_recency() {
        let mut cache: LruCache<u64, Vec<&str>> = LruCache::new(2);
        cache.insert(1, vec!["one"]);
        cache.insert(2, vec!["two"]);
        cache.get_mut(&1).unwrap().push("uno");
        assert_eq!(cache.get(&1), Some(&vec!["one", "uno"]));
        // The get_mut on 1 made 2 the LRU.
        assert_eq!(cache.insert(3, vec!["three"]), Some(2));
        assert_eq!(cache.get_mut(&9), None);
    }

    #[test]
    fn contains_does_not_perturb_the_eviction_order() {
        let mut cache: LruCache<u64, ()> = LruCache::new(2);
        cache.insert(1, ());
        cache.insert(2, ());
        assert!(cache.contains(&1));
        // 1 is still the LRU despite the contains() probe.
        assert_eq!(cache.insert(3, ()), Some(1));
    }
}
