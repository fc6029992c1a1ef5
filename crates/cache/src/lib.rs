//! The content-hash incremental cache behind `cundef serve`.
//!
//! Real UB-checking traffic is repetitive: editors, CI sweeps, and
//! pre-commit hooks re-submit mostly-unchanged translation units (the
//! desktop-use-case study in PAPERS.md measures exactly this shape).
//! This crate turns that repetition into near-free responses with a
//! deliberately small design:
//!
//! - **Content addressing.** Entries are keyed by [`CacheKey`]: a
//!   64-bit FNV-1a hash of the source *bytes* ([`content_hash`]) plus a
//!   caller-chosen *options fingerprint* (which checking knobs produced
//!   the value). The file's *path* is never part of the key: the same
//!   bytes under two names are the same translation unit, and the
//!   caller re-labels the cached value per request.
//! - **Bounded LRU.** [`LruCache`] holds at most `capacity` entries in
//!   an intrusive doubly-linked list over a slab, so `get`/`insert`
//!   are O(1) and a hot serve loop never rehashes under a lock longer
//!   than it must.
//! - **Telemetry, not guesswork.** Every lookup outcome is counted
//!   ([`CacheStats`]: hits, misses, insertions, evictions,
//!   invalidation-shaped replacements) and surfaced through the same
//!   `--stats` seam as the rest of the workspace.
//!
//! The cache is value-generic: `cundef serve` keeps one instance, a
//! *result* cache memoizing the full `FileResult` together with the
//! source bytes it was computed from. Thread safety is the caller's
//! choice; the serve daemon wraps the instance in a `Mutex`.

#![deny(missing_docs)]

use std::collections::HashMap;

/// 64-bit FNV-1a over the source bytes: the content half of a
/// [`CacheKey`].
///
/// FNV-1a is not cryptographic, and colliding inputs are easy to
/// construct. A key match therefore only names a candidate: a caller
/// whose answer must belong to the same bytes stores the bytes in the
/// value and compares them on every hit, as `cundef serve` does.
///
/// # Examples
///
/// ```
/// use cundef_cache::content_hash;
/// assert_eq!(content_hash(b""), 0xcbf29ce484222325);
/// assert_ne!(content_hash(b"int main;"), content_hash(b"int main:"));
/// ```
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A cache key: content hash of the source bytes plus the options
/// fingerprint that produced the cached value.
///
/// Two requests for the same bytes under different checking options
/// (`--phase`) must never cross-contaminate — they hash to different
/// keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`content_hash`] of the source bytes.
    pub content: u64,
    /// Caller-defined fingerprint of every checking option that can
    /// change the value.
    pub fingerprint: u64,
}

/// Cumulative lookup/eviction counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (first time for their key).
    pub insertions: u64,
    /// Entries displaced by capacity pressure (LRU order).
    pub evictions: u64,
    /// Inserts that replaced an existing entry for the same key (the
    /// invalidation shape: same key, recomputed value).
    pub replacements: u64,
}

/// Slab node of the intrusive LRU list.
struct Node<V> {
    key: CacheKey,
    value: V,
    /// Slab index of the next-more-recent node (`NIL` at the head).
    prev: u32,
    /// Slab index of the next-less-recent node (`NIL` at the tail).
    next: u32,
}

const NIL: u32 = u32::MAX;

/// A bounded LRU cache keyed by [`CacheKey`].
///
/// `get` refreshes recency; `insert` evicts the least-recently-used
/// entry once `capacity` is reached. All operations are O(1).
///
/// # Examples
///
/// ```
/// use cundef_cache::{CacheKey, LruCache};
/// let mut c: LruCache<&'static str> = LruCache::new(2);
/// let k = |n| CacheKey { content: n, fingerprint: 0 };
/// c.insert(k(1), "one");
/// c.insert(k(2), "two");
/// assert_eq!(c.get(&k(1)), Some(&"one")); // refreshes 1
/// c.insert(k(3), "three");                // evicts 2, the LRU entry
/// assert_eq!(c.get(&k(2)), None);
/// assert_eq!(c.stats().evictions, 1);
/// ```
pub struct LruCache<V> {
    map: HashMap<CacheKey, u32>,
    slab: Vec<Node<V>>,
    head: u32,
    tail: u32,
    capacity: usize,
    stats: CacheStats,
}

impl<V> LruCache<V> {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> LruCache<V> {
        let capacity = capacity.max(1);
        LruCache {
            map: HashMap::with_capacity(capacity.min(4096)),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Unlink slab node `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.slab[i as usize];
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Link slab node `i` at the most-recent end.
    fn link_front(&mut self, i: u32) {
        self.slab[i as usize].prev = NIL;
        self.slab[i as usize].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slab[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.stats.hits += 1;
                if self.head != i {
                    self.unlink(i);
                    self.link_front(i);
                }
                Some(&self.slab[i as usize].value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert `value` under `key`, evicting the least-recently-used
    /// entry if the cache is full. Returns the evicted `(key, value)`
    /// when capacity pressure displaced one.
    pub fn insert(&mut self, key: CacheKey, value: V) -> Option<(CacheKey, V)> {
        if let Some(&i) = self.map.get(&key) {
            // Same key, new value: the invalidation-shaped replace.
            self.stats.replacements += 1;
            self.slab[i as usize].value = value;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return None;
        }
        self.stats.insertions += 1;
        let evicted = if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "full cache must have a tail");
            self.unlink(lru);
            let node = &mut self.slab[lru as usize];
            let old_key = node.key;
            self.map.remove(&old_key);
            node.key = key;
            let old_value = std::mem::replace(&mut node.value, value);
            self.map.insert(key, lru);
            self.link_front(lru);
            self.stats.evictions += 1;
            Some((old_key, old_value))
        } else {
            let i = u32::try_from(self.slab.len()).expect("cache capacity fits in u32");
            self.slab.push(Node {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, i);
            self.link_front(i);
            None
        };
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(content: u64, fp: u64) -> CacheKey {
        CacheKey {
            content,
            fingerprint: fp,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c: LruCache<u32> = LruCache::new(4);
        assert_eq!(c.get(&k(1, 0)), None);
        c.insert(k(1, 0), 10);
        assert_eq!(c.get(&k(1, 0)), Some(&10));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn fingerprints_do_not_cross_contaminate() {
        let mut c: LruCache<&'static str> = LruCache::new(4);
        c.insert(k(7, 1), "phase=translation");
        c.insert(k(7, 2), "phase=all");
        assert_eq!(c.get(&k(7, 1)), Some(&"phase=translation"));
        assert_eq!(c.get(&k(7, 2)), Some(&"phase=all"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(k(1, 0), 1);
        c.insert(k(2, 0), 2);
        assert_eq!(c.get(&k(1, 0)), Some(&1)); // 2 is now LRU
        let evicted = c.insert(k(3, 0), 3);
        assert_eq!(evicted.map(|(key, v)| (key.content, v)), Some((2, 2)));
        assert_eq!(c.get(&k(2, 0)), None);
        assert_eq!(c.get(&k(1, 0)), Some(&1));
        assert_eq!(c.get(&k(3, 0)), Some(&3));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replacement_refreshes_and_counts() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(k(1, 0), 1);
        c.insert(k(2, 0), 2);
        c.insert(k(2, 0), 22); // replace, not insert
        assert_eq!(c.stats().replacements, 1);
        assert_eq!(c.stats().evictions, 0);
        c.insert(k(3, 0), 3); // 1 is LRU now
        assert_eq!(c.get(&k(1, 0)), None);
        assert_eq!(c.get(&k(2, 0)), Some(&22));
    }

    #[test]
    fn capacity_one_still_answers() {
        let mut c: LruCache<u64> = LruCache::new(1);
        for i in 0..100 {
            c.insert(k(i, 0), i * 2);
            assert_eq!(c.get(&k(i, 0)), Some(&(i * 2)));
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 99);
    }

    #[test]
    fn content_hash_is_byte_sensitive() {
        assert_ne!(content_hash(b"int x = 1;"), content_hash(b"int x = 2;"));
        assert_ne!(content_hash(b"ab"), content_hash(b"ba"));
        assert_eq!(content_hash(b"same"), content_hash(b"same"));
    }
}
