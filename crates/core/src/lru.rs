//! A cost-aware LRU map: the admission and eviction layer behind both
//! caches a resident `gpa serve` keeps, the report cache
//! (`gpa_pipeline::ReportCache`) and the block store
//! ([`crate::DfgCache`]).
//!
//! A one-shot batch over a finite corpus can let a cache grow without
//! bound; a resident process fed arbitrary traffic cannot. [`Lru`] bounds
//! both the entry count and the total estimated byte cost of what it
//! holds, and evicts least-recently-used entries through a tick-ordered
//! index. It has no lock of its own: each cache keeps it behind one
//! mutex.
//!
//! Admission control: an entry whose cost alone exceeds the byte budget
//! is *rejected* rather than admitted-then-thrashed; rejections count as
//! evictions so the `cache.evicted` telemetry reflects every entry the
//! bound kept out of memory.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Capacity bounds for an in-memory cache.
///
/// The default is unbounded, which keeps historical batch behaviour
/// bit-for-bit; `gpa serve` always passes explicit bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum resident entries.
    pub max_entries: usize,
    /// Maximum total estimated cost (bytes).
    pub max_bytes: u64,
}

impl CacheBudget {
    /// No bound at all (the historical in-memory cache).
    pub fn unbounded() -> CacheBudget {
        CacheBudget {
            max_entries: usize::MAX,
            max_bytes: u64::MAX,
        }
    }

    /// A bound on entries and bytes (either may be `usize::MAX` /
    /// `u64::MAX` for "unlimited on that axis").
    pub fn bounded(max_entries: usize, max_bytes: u64) -> CacheBudget {
        CacheBudget {
            max_entries,
            max_bytes,
        }
    }
}

impl Default for CacheBudget {
    fn default() -> CacheBudget {
        CacheBudget::unbounded()
    }
}

/// A resident entry's value, cost and the recency tick of its last
/// touch. The value is boxed so a bucket of a map keyed by `u128` is 48
/// bytes whatever `V` is.
struct Slot<V> {
    value: Box<V>,
    cost: u64,
    tick: u64,
}

/// An LRU map under a [`CacheBudget`].
pub struct Lru<K, V> {
    map: HashMap<K, Slot<V>>,
    /// tick → key, ascending; the front is the LRU victim.
    recency: BTreeMap<u64, K>,
    budget: CacheBudget,
    /// Total cost of the resident entries.
    bytes: u64,
    /// Monotone touch counter.
    tick: u64,
    evicted: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map under `budget`.
    pub fn new(budget: CacheBudget) -> Lru<K, V> {
        Lru {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            budget,
            bytes: 0,
            tick: 0,
            evicted: 0,
        }
    }

    /// The entry under `key` (looked up by any borrowed form of the
    /// key), marked most recently used.
    pub fn get<Q>(&mut self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.map.get_mut(key)?;
        self.tick += 1;
        let last = std::mem::replace(&mut slot.tick, self.tick);
        let key = self.recency.remove(&last).expect("every entry is indexed");
        let key = self.recency.entry(self.tick).or_insert(key);
        Some((key, &slot.value))
    }

    /// Stores `value` under `key` with the given cost estimate, replacing
    /// any entry under `key` and evicting least-recently-used entries as
    /// needed. Returns the number of entries evicted (including a
    /// rejected oversize `value` itself).
    pub fn insert(&mut self, key: K, value: V, cost: u64) -> u64 {
        if cost > self.budget.max_bytes {
            // Admission control: an entry that could never fit would only
            // flush the whole map on its way to being evicted itself.
            self.evicted += 1;
            return 1;
        }
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.cost;
            self.recency.remove(&old.tick);
        }
        if self.map.len() >= self.budget.max_entries && self.map.len() == self.map.capacity() {
            // A full map evicts on every insert, and each eviction can
            // leave a tombstone. Once they use up the spare room, hashbrown
            // doubles a table more than half full rather than rehash it in
            // place; rebuild it at the bound's size instead.
            let live = std::mem::take(&mut self.map);
            self.map = HashMap::with_capacity(self.budget.max_entries + 1);
            self.map.extend(live);
        }
        self.tick += 1;
        self.recency.insert(self.tick, key.clone());
        self.map.insert(
            key,
            Slot {
                value: Box::new(value),
                cost,
                tick: self.tick,
            },
        );
        self.bytes += cost;
        let mut evictions = 0;
        while self.map.len() > self.budget.max_entries || self.bytes > self.budget.max_bytes {
            let Some((_, victim)) = self.recency.pop_first() else {
                break;
            };
            let slot = self
                .map
                .remove(&victim)
                .expect("the recency index names resident keys");
            self.bytes -= slot.cost;
            evictions += 1;
        }
        self.evicted += evictions;
        evictions
    }

    /// Total entries evicted (or rejected at admission) so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total estimated cost (bytes) of the resident entries.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value<K: Hash + Eq + Clone, V: Clone>(lru: &mut Lru<K, V>, key: &K) -> Option<V> {
        lru.get(key).map(|(_, v)| v.clone())
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut lru: Lru<u128, String> = Lru::new(CacheBudget::unbounded());
        for i in 0..1000u128 {
            lru.insert(i, format!("v{i}"), 1 << 20);
        }
        assert_eq!(lru.len(), 1000);
        assert_eq!(lru.evicted(), 0);
        assert_eq!(value(&mut lru, &999), Some("v999".to_owned()));
    }

    #[test]
    fn entry_bound_evicts_lru_not_recently_touched() {
        let mut lru: Lru<u128, u32> = Lru::new(CacheBudget::bounded(2, u64::MAX));
        lru.insert(1, 1, 1);
        lru.insert(2, 2, 1);
        assert_eq!(value(&mut lru, &1), Some(1)); // touch 1 → 2 is now LRU
        lru.insert(3, 3, 1);
        assert_eq!(lru.evicted(), 1);
        assert_eq!(value(&mut lru, &2), None, "the LRU entry was evicted");
        assert_eq!(value(&mut lru, &1), Some(1));
        assert_eq!(value(&mut lru, &3), Some(3));
    }

    #[test]
    fn byte_bound_and_oversize_rejection() {
        let mut lru: Lru<u128, u32> = Lru::new(CacheBudget::bounded(usize::MAX, 100));
        lru.insert(1, 1, 60);
        lru.insert(2, 2, 60); // 120 > 100 → evict 1
        assert_eq!(value(&mut lru, &1), None);
        assert_eq!(value(&mut lru, &2), Some(2));
        assert_eq!(lru.evicted(), 1);
        // An entry that can never fit is rejected outright…
        assert_eq!(lru.insert(3, 3, 101), 1);
        assert_eq!(value(&mut lru, &3), None);
        // …without disturbing what is resident.
        assert_eq!(value(&mut lru, &2), Some(2));
        assert_eq!((lru.len(), lru.bytes()), (1, 60));
    }

    #[test]
    fn evicting_down_to_empty_zeroes_the_accounting() {
        // One entry at a time; every insert after the first evicts its
        // predecessor, repeatedly draining the map to empty without
        // tripping the byte accounting.
        let mut lru: Lru<u128, u32> = Lru::new(CacheBudget::bounded(1, 10));
        for i in 1..=50u128 {
            lru.insert(i, i as u32, 10);
        }
        assert_eq!(lru.evicted(), 49);
        assert_eq!((lru.len(), lru.bytes()), (1, 10));
        assert_eq!(value(&mut lru, &50), Some(50));
        // Under a budget with room for nothing, an insert evicts the
        // resident entry and then the newcomer.
        lru.budget = CacheBudget::bounded(0, 10);
        assert_eq!(lru.insert(51, 51, 10), 2);
        assert!(lru.is_empty() && lru.recency.is_empty());
        assert_eq!(lru.bytes(), 0, "an empty map accounts zero bytes");
        assert_eq!(value(&mut lru, &51), None);
    }

    #[test]
    fn replacing_a_key_accounts_cost_once() {
        let mut lru: Lru<u128, u32> = Lru::new(CacheBudget::bounded(usize::MAX, 100));
        lru.insert(1, 1, 90);
        lru.insert(1, 2, 40);
        assert_eq!((lru.len(), lru.bytes()), (1, 40));
        lru.insert(2, 3, 60); // 40 + 60 fits exactly
        assert_eq!(lru.evicted(), 0);
        assert_eq!(value(&mut lru, &1), Some(2));
        assert_eq!(value(&mut lru, &2), Some(3));
        assert_eq!(lru.bytes(), 100);
    }

    #[test]
    fn map_slots_stay_small_whatever_the_value() {
        use std::mem::size_of;
        assert_eq!(size_of::<(u128, Slot<crate::Report>)>(), 48);
        assert_eq!(size_of::<(u128, Slot<[u8; 256]>)>(), 48);
    }

    #[test]
    fn a_full_map_keeps_its_table_size_under_churn() {
        // 4,096 live entries fit a table of 8,192 buckets (7,168 usable);
        // churn must not double it to 16,384.
        let bound = 4096;
        let mut lru: Lru<u128, u32> = Lru::new(CacheBudget::bounded(bound, u64::MAX));
        let mut most = 0;
        for i in 0..40_000u128 {
            lru.insert(i, i as u32, 1);
            most = most.max(lru.map.capacity());
        }
        assert!(most < 2 * bound, "the table grew to hold {most} entries");
        assert_eq!(lru.len(), bound);
        assert_eq!(value(&mut lru, &39_999), Some(39_999));
        assert_eq!(value(&mut lru, &(40_000 - bound as u128 - 1)), None);
    }

    /// A key that owns a sequence is found by a borrowed slice, and the
    /// lookup hands back the resident key itself.
    #[test]
    fn lookup_by_a_borrowed_key() {
        let mut lru: Lru<Vec<u8>, u32> = Lru::new(CacheBudget::unbounded());
        lru.insert(vec![1, 2, 3], 7, 0);
        let (key, &v) = lru.get(&[1u8, 2, 3][..]).expect("found by slice");
        assert_eq!((key.as_slice(), v), (&[1u8, 2, 3][..], 7));
        assert!(lru.get(&[1u8, 2][..]).is_none());
    }
}
