//! A lock-striped, collision-checked LRU cache for compiled plans.
//!
//! The cache maps a 128-bit content key (see [`crate::canon`]) to the
//! rendered plan bytes. Design points:
//!
//! * **Lock stripes** — keys are spread over at most `STRIPES` (8)
//!   independent mutex-protected shards, so concurrent hits on
//!   different keys rarely contend on one lock. A shard is picked from
//!   the key's bits (the key is already a hash, so no re-mixing is
//!   needed). The capacity is split over the shards, which number no
//!   more than the capacity, so the cache never holds more than it was
//!   built for.
//! * **True LRU per shard** — each shard keeps an index-linked list
//!   over a slab of slots: `get` unlinks and re-pushes at the front in
//!   O(1), `insert` evicts the tail in O(1).
//! * **Collision rejection** — every entry stores the exact canonical
//!   encoding its key was hashed from. A lookup whose encoding differs
//!   is reported as a miss (and counted), and an insert over a
//!   different encoding is refused: a 128-bit collision can cost a
//!   recompile, never a wrong plan.
//! * **Counters** — hits / misses / inserts / evictions / collisions
//!   accumulate in [`CacheStats`] atomics and are mirrored into
//!   `aqua-obs` counters (`serve.cache.*`) at the event site.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use aqua_obs::Obs;

use crate::service::Served;

const NIL: usize = usize::MAX;

/// Most lock stripes a cache is split into.
const STRIPES: usize = 8;

/// Monotonic cache counters (relaxed atomics; read for reporting only).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: AtomicU64,
    /// Lookups that found nothing (or rejected a collision).
    pub misses: AtomicU64,
    /// Entries stored.
    pub inserts: AtomicU64,
    /// Entries evicted to make room.
    pub evictions: AtomicU64,
    /// Same-key lookups/inserts whose canonical encodings differed —
    /// true 128-bit hash collisions, refused rather than served.
    pub collisions: AtomicU64,
}

impl CacheStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

struct Slot {
    key: u128,
    encoding: Arc<[u8]>,
    value: Served,
    prev: usize,
    next: usize,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u128, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// Most entries this shard holds.
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            head: NIL,
            tail: NIL,
            capacity,
            ..Shard::default()
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// The lock-striped LRU plan cache. See the module docs.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    obs: Obs,
    /// Counter block (shared with [`crate::service::Service`] reports).
    pub stats: CacheStats,
}

impl ShardedLru {
    /// A cache holding at most `capacity` entries (at least 1), split
    /// over `min(capacity, STRIPES)` shards whose capacities sum to it.
    pub fn new(capacity: usize, obs: Obs) -> ShardedLru {
        let capacity = capacity.max(1);
        let shards = capacity.min(STRIPES);
        let (each, extra) = (capacity / shards, capacity % shards);
        ShardedLru {
            shards: (0..shards)
                .map(|i| Mutex::new(Shard::new(each + usize::from(i < extra))))
                .collect(),
            obs,
            stats: CacheStats::default(),
        }
    }

    fn shard(&self, key: u128) -> MutexGuard<'_, Shard> {
        let idx = ((key >> 64) as u64 ^ key as u64) as usize % self.shards.len();
        self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, verifying the canonical `encoding` byte-for-byte,
    /// and serves the entry only if `take` accepts it. A served entry is
    /// a hit and refreshes recency; a refused one counts as a miss.
    pub fn get(
        &self,
        key: u128,
        encoding: &[u8],
        take: impl FnOnce(&Served) -> bool,
    ) -> Option<Served> {
        let mut shard = self.shard(key);
        let found = match shard.map.get(&key).copied() {
            Some(i) if shard.slots[i].encoding.as_ref() != encoding => {
                CacheStats::bump(&self.stats.collisions);
                self.obs.add("serve.cache.collision", 1);
                None
            }
            found => found.filter(|&i| take(&shard.slots[i].value)),
        };
        self.serve(&mut shard, found)
    }

    /// Looks up `key` without an encoding to verify (the key-addressed
    /// protocol path, where the client replays a key it was handed by a
    /// previous response). A hit refreshes recency.
    pub fn get_by_key(&self, key: u128) -> Option<Served> {
        let mut shard = self.shard(key);
        let found = shard.map.get(&key).copied();
        self.serve(&mut shard, found)
    }

    /// Finishes a lookup: a found slot is a hit, which refreshes its
    /// recency and returns a copy of its entry; `None` is a miss.
    fn serve(&self, shard: &mut Shard, found: Option<usize>) -> Option<Served> {
        let Some(i) = found else {
            CacheStats::bump(&self.stats.misses);
            self.obs.add("serve.cache.miss", 1);
            return None;
        };
        shard.unlink(i);
        shard.push_front(i);
        CacheStats::bump(&self.stats.hits);
        self.obs.add("serve.cache.hit", 1);
        Some(shard.slots[i].value.clone())
    }

    /// Stores `value` under `key`, evicting the shard's LRU entry if
    /// full. An insert over an existing entry with a *different*
    /// encoding (a hash collision) is refused; re-inserting the same
    /// encoding refreshes the value and its recency.
    pub fn insert(&self, key: u128, encoding: Arc<[u8]>, value: Served) {
        let mut shard = self.shard(key);
        if let Some(i) = shard.map.get(&key).copied() {
            if shard.slots[i].encoding.as_ref() != encoding.as_ref() {
                CacheStats::bump(&self.stats.collisions);
                self.obs.add("serve.cache.collision", 1);
                return;
            }
            shard.slots[i].value = value;
            shard.unlink(i);
            shard.push_front(i);
            return;
        }
        if shard.map.len() >= shard.capacity {
            let tail = shard.tail;
            debug_assert_ne!(tail, NIL);
            let old_key = shard.slots[tail].key;
            shard.unlink(tail);
            shard.map.remove(&old_key);
            shard.free.push(tail);
            CacheStats::bump(&self.stats.evictions);
            self.obs.add("serve.cache.eviction", 1);
        }
        let slot = Slot {
            key,
            encoding,
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match shard.free.pop() {
            Some(i) => {
                shard.slots[i] = slot;
                i
            }
            None => {
                shard.slots.push(slot);
                shard.slots.len() - 1
            }
        };
        shard.map.insert(key, i);
        shard.push_front(i);
        CacheStats::bump(&self.stats.inserts);
        self.obs.add("serve.cache.insert", 1);
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().unwrap_or_else(PoisonError::into_inner);
            *s = Shard::new(s.capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(tag: &str) -> Served {
        Served {
            key: 0,
            plan: Arc::from(tag),
        }
    }

    fn enc(tag: u8) -> Arc<[u8]> {
        Arc::from(vec![tag].into_boxed_slice())
    }

    /// The `i`th key of stripe 0: recency order is per stripe.
    fn k(i: u128) -> u128 {
        i * STRIPES as u128
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Two entries per stripe, so recency order is observable.
        let cache = ShardedLru::new(2 * STRIPES, Obs::off());
        cache.insert(k(1), enc(1), served("one"));
        cache.insert(k(2), enc(2), served("two"));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(k(1), &[1], |_| true).is_some());
        cache.insert(k(3), enc(3), served("three"));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.get(k(2), &[2], |_| true).is_none(),
            "2 should have been evicted"
        );
        assert!(cache.get(k(1), &[1], |_| true).is_some());
        assert!(cache.get(k(3), &[3], |_| true).is_some());
        assert_eq!(cache.stats.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn collisions_are_rejected_not_served() {
        let cache = ShardedLru::new(8, Obs::off());
        cache.insert(7, enc(1), served("first"));
        // Same 128-bit key, different canonical encoding: a true hash
        // collision. The lookup must miss and the insert must refuse.
        assert!(cache.get(7, &[2], |_| true).is_none());
        cache.insert(7, enc(2), served("impostor"));
        let hit = cache.get(7, &[1], |_| true).expect("original entry intact");
        assert_eq!(&*hit.plan, "first");
        assert_eq!(cache.stats.collisions.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn reinsert_same_encoding_refreshes_value_and_recency() {
        let cache = ShardedLru::new(2 * STRIPES, Obs::off());
        cache.insert(k(1), enc(1), served("v1"));
        cache.insert(k(2), enc(2), served("v2"));
        cache.insert(k(1), enc(1), served("v1b"));
        cache.insert(k(3), enc(3), served("v3")); // evicts 2, not 1
        assert_eq!(&*cache.get(k(1), &[1], |_| true).unwrap().plan, "v1b");
        assert!(cache.get(k(2), &[2], |_| true).is_none());
    }

    #[test]
    fn clear_empties_all_shards() {
        let cache = ShardedLru::new(16, Obs::off());
        for k in 0..10u128 {
            cache.insert(k, enc(k as u8), served("x"));
        }
        assert_eq!(cache.len(), 10);
        cache.clear();
        assert!(cache.is_empty());
        // Reinsert works after clear (free lists were reset).
        cache.insert(1, enc(1), served("y"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_full_cache_holds_exactly_its_capacity() {
        for capacity in 1..=20 {
            let cache = ShardedLru::new(capacity, Obs::off());
            for k in 0..64u128 {
                cache.insert(k, enc(k as u8), served("x"));
            }
            assert_eq!(cache.len(), capacity);
        }
    }
}
