//! A per-router hot-key read cache, validated by the service's one stamp.
//!
//! Under Zipf-skewed traffic, a handful of keys absorb most lookups.  An
//! uncached lookup descends the tree on the router's own handle; this
//! small, fixed-size, direct-mapped cache lets the top of the Zipf curve
//! skip the descent.  It is private to one
//! [`ShardRouter`](crate::ShardRouter) (no sharing, no locks, no atomics on
//! the entry itself) and coherence comes from the service's mutation
//! counters instead of invalidation messages: an entry is stamped with the
//! quiescent state its value was exact at, and a hit counts only while no
//! mutation has begun since.  One stamp covers every write of the service,
//! so any real write, by any router, implicitly drops every cached entry —
//! cheap, conservative, and exactly the check that keeps cached reads
//! linearizable (see the private `worker` module for the begun/done
//! protocol this relies on).  A result obtained while a writer was in
//! flight has no stamp and is not cached.
//!
//! Negative results are cached too (`value = None`): a miss on a hot
//! absent key costs the same descent as a hit.
//!
//! Sizing: the cache is a statically sized direct-mapped array indexed by
//! a Fibonacci hash of the key.  Collisions simply overwrite — with
//! [`CACHE_SLOTS`] entries and Zipf traffic the hot ranks effectively never
//! alias each other.

/// Number of entries in a router's read cache. Power of two; at 24 bytes
/// per entry this is a ~24 KiB, comfortably L1/L2-resident table.
pub const CACHE_SLOTS: usize = 1024;

/// One cached read: `key` holds the engine's reserved `EMPTY_KEY` while
/// the slot is vacant (that key can never be stored or queried, so it is
/// unambiguous).
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    value: Option<u64>,
    stamp: u64,
}

const VACANT: Slot = Slot {
    key: abtree::EMPTY_KEY,
    value: None,
    stamp: 0,
};

/// The cache itself; see the module docs.
pub struct ReadCache {
    slots: Box<[Slot; CACHE_SLOTS]>,
}

impl Default for ReadCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            slots: Box::new([VACANT; CACHE_SLOTS]),
        }
    }

    /// The slot index for `key`: high bits of a Fibonacci hash, so the
    /// index decorrelates from the raw key.
    #[inline]
    fn slot_of(key: u64) -> usize {
        let hashed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hashed >> (64 - CACHE_SLOTS.trailing_zeros())) as usize
    }

    /// Looks up `key`, returning the cached read result (which may be a
    /// cached miss, `Some(None)`) only if the entry's stamp equals
    /// `begun`, the service's count of mutations begun.
    #[inline]
    pub fn lookup(&self, key: u64, begun: u64) -> Option<Option<u64>> {
        let slot = &self.slots[Self::slot_of(key)];
        (slot.key == key && slot.stamp == begun).then_some(slot.value)
    }

    /// Records that `key` read as `value` in the quiescent service state
    /// `stamp`, overwriting whatever occupied the slot.  A result without a
    /// stamp is not cacheable, and it supersedes what the cache held for
    /// `key`: that entry is dropped (another key's entry is left alone).
    #[inline]
    pub fn store(&mut self, key: u64, value: Option<u64>, stamp: Option<u64>) {
        debug_assert_ne!(key, abtree::EMPTY_KEY, "reserved key reached the cache");
        let slot = &mut self.slots[Self::slot_of(key)];
        match stamp {
            Some(stamp) => *slot = Slot { key, value, stamp },
            None if slot.key == key => *slot = VACANT,
            None => {}
        }
    }

    /// Drops every entry (used by tests; routers rely on version drift).
    pub fn clear(&mut self) {
        self.slots.fill(VACANT);
    }
}

impl std::fmt::Debug for ReadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let occupied = self
            .slots
            .iter()
            .filter(|s| s.key != abtree::EMPTY_KEY)
            .count();
        f.debug_struct("ReadCache")
            .field("slots", &CACHE_SLOTS)
            .field("occupied", &occupied)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_requires_matching_key_and_version() {
        let mut cache = ReadCache::new();
        assert_eq!(cache.lookup(7, 0), None, "cold cache");
        cache.store(7, Some(70), Some(3));
        assert_eq!(cache.lookup(7, 3), Some(Some(70)));
        assert_eq!(cache.lookup(7, 4), None, "any mutation invalidates");
        assert_eq!(cache.lookup(8, 3), None, "different key");
        // Re-stamping at the new version revives the slot.
        cache.store(7, Some(71), Some(4));
        assert_eq!(cache.lookup(7, 4), Some(Some(71)));
    }

    #[test]
    fn negative_results_are_cached() {
        let mut cache = ReadCache::new();
        cache.store(9, None, Some(1));
        assert_eq!(cache.lookup(9, 1), Some(None), "a hit on an absent key");
        assert_eq!(cache.lookup(9, 2), None);
    }

    #[test]
    fn colliding_keys_overwrite() {
        let mut cache = ReadCache::new();
        // Two keys that map to the same direct-mapped slot.
        let a = 1u64;
        let mut b = 2u64;
        while ReadCache::slot_of(b) != ReadCache::slot_of(a) {
            b += 1;
        }
        cache.store(a, Some(10), Some(0));
        cache.store(b, Some(20), Some(0));
        assert_eq!(cache.lookup(a, 0), None, "evicted by the collision");
        assert_eq!(cache.lookup(b, 0), Some(Some(20)));
    }

    #[test]
    fn an_unstamped_result_drops_the_key_but_not_its_neighbour() {
        let mut cache = ReadCache::new();
        let a = 1u64;
        let mut b = 2u64;
        while ReadCache::slot_of(b) != ReadCache::slot_of(a) {
            b += 1;
        }
        cache.store(a, Some(10), Some(4));
        cache.store(b, Some(99), None);
        assert_eq!(
            cache.lookup(a, 4),
            Some(Some(10)),
            "another key's entry stays"
        );
        cache.store(a, Some(11), None);
        assert_eq!(cache.lookup(a, 4), None, "superseded, not kept");
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut cache = ReadCache::new();
        cache.store(5, Some(50), Some(0));
        cache.clear();
        assert_eq!(cache.lookup(5, 0), None);
        assert!(format!("{cache:?}").contains("occupied: 0"));
    }
}
