//! The one eviction policy behind the engine's caches: the one-shot plan
//! cache, the bind-time specialization cache, and each lock shard of the
//! day-partial cache.
//!
//! [`BoundedMap`] keeps two `HashMap` generations. Inserts go to `young`;
//! when `young` holds `capacity / 2` entries and another must enter, the
//! generations swap and the new `young` (the previous `old`) is cleared.
//! A hit in `young` hashes once and moves nothing; a hit in `old` moves
//! the entry back to `young`.
//!
//! # Guarantee
//!
//! * Every operation is O(1) amortized: there is no victim scan, and each
//!   `clear` is paid for by the `capacity / 2` inserts that filled it.
//! * An entry touched (by `get` or `insert`) at least once per
//!   `capacity / 2` inserts is never evicted. A hit that moves an entry
//!   out of `old` counts as an insert.
//! * `len() ≤ capacity` at all times.

use std::collections::HashMap;
use std::hash::Hash;

/// A two-generation map bounded at `capacity` entries, with hit, miss and
/// eviction counters. See the [module docs](self) for the guarantee.
pub(crate) struct BoundedMap<K, V> {
    young: HashMap<K, V>,
    old: HashMap<K, V>,
    /// Generation size: `young` swaps out when it holds this many.
    half: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Hash + Eq, V: Clone> BoundedMap<K, V> {
    /// An empty map holding at most `capacity` entries (at least 2, so
    /// each generation holds at least one).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "BoundedMap capacity must be at least 2, got {capacity}");
        let (young, old) = (HashMap::new(), HashMap::new());
        BoundedMap { young, old, half: capacity / 2, hits: 0, misses: 0, evictions: 0 }
    }

    /// A clone of the value under `key`, counting a hit or a miss. A hit
    /// in the old generation moves the entry to the young one.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        if let Some(v) = self.young.get(key) {
            self.hits += 1;
            return Some(v.clone());
        }
        let Some((k, v)) = self.old.remove_entry(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        Some(self.push_young(k, v).clone())
    }

    /// Insert or replace the value under `key`; the entry becomes young.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if let Some(slot) = self.young.get_mut(&key) {
            *slot = value;
            return;
        }
        self.old.remove(&key);
        self.push_young(key, value);
    }

    /// Whether `key` is resident. Counts nothing and moves nothing.
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.young.contains_key(key) || self.old.contains_key(key)
    }

    /// Keep only the entries for which `keep` returns true. Entries
    /// dropped here are removals, not evictions.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.young.retain(|k, v| keep(k, v));
        self.old.retain(|k, v| keep(k, v));
    }

    /// Every resident key, in no particular order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> {
        self.young.keys().chain(self.old.keys())
    }

    /// Resident entries.
    pub(crate) fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// `(hits, misses, evictions)`: lookups `get` answered, lookups it
    /// could not answer, and entries dropped by a generation swap.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Place a key absent from both generations into `young`, swapping
    /// generations first when `young` is full.
    fn push_young(&mut self, key: K, value: V) -> &V {
        if self.young.len() >= self.half {
            std::mem::swap(&mut self.young, &mut self.old);
            self.evictions += self.young.len() as u64;
            self.young.clear();
        }
        self.young.entry(key).or_insert(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_key_survives_and_len_stays_bounded() {
        for capacity in [2usize, 3, 8, 101] {
            let mut map = BoundedMap::new(capacity);
            map.insert(u64::MAX, 0u64);
            let distinct = 10 * capacity as u64;
            for key in 0..distinct {
                map.insert(key, key);
                assert_eq!(map.get(&u64::MAX), Some(0), "capacity {capacity}: hot key at {key}");
                assert!(map.len() <= capacity, "capacity {capacity}: len {}", map.len());
            }
            // Every distinct key inserted (the hot one included) is either
            // resident or was counted out by a generation swap.
            let (hits, misses, evictions) = map.counters();
            assert_eq!(evictions + map.len() as u64, distinct + 1, "capacity {capacity}");
            assert!(evictions > 0);
            assert_eq!((hits, misses), (distinct, 0));
        }
    }

    #[test]
    fn peek_retain_and_keys_move_and_count_nothing() {
        let mut map = BoundedMap::new(4);
        for key in 0..3u32 {
            map.insert(key, key * 10);
        }
        assert!(map.contains(&0) && !map.contains(&7));
        assert_eq!(map.get(&7), None);
        assert_eq!(map.counters(), (0, 1, 0));
        map.retain(|k, _| k % 2 == 0);
        let mut keys: Vec<u32> = map.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, [0, 2]);
        assert_eq!((map.len(), map.counters()), (2, (0, 1, 0)));
        // Replacing a resident value neither grows the map nor evicts.
        map.insert(2, 99);
        assert_eq!((map.get(&2), map.len(), map.counters()), (Some(99), 2, (1, 1, 0)));
    }
}
