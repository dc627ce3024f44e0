//! A sharded, cost-aware LRU map — the admission/eviction layer behind
//! the in-memory [`crate::ReportCache`].
//!
//! The batch pipeline's caches were historically unbounded: fine for a
//! one-shot run over a finite corpus, fatal for a resident `gpa serve`
//! process fed arbitrary traffic. [`ShardedLru`] bounds both the entry
//! count and the total estimated byte cost. Keys are spread over
//! [`SHARDS`] independently locked shards (the budget is divided
//! per-shard), so concurrent workers rarely contend, and each shard
//! evicts its own least-recently-used entries via a tick-ordered index.
//!
//! Admission control: an entry whose cost alone exceeds a shard's byte
//! budget is *rejected* rather than admitted-then-thrashed; rejections
//! count as evictions so the `cache.evicted` telemetry reflects every
//! entry the bound kept out of memory.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards (power of two; keys are
/// distributed by their low bits).
pub const SHARDS: usize = 8;

/// Capacity bounds for an in-memory cache layer.
///
/// The default is unbounded, which keeps historical batch behaviour
/// bit-for-bit; `gpa serve` always passes explicit bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum resident entries across all shards.
    pub max_entries: usize,
    /// Maximum total estimated cost (bytes) across all shards.
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

    /// Whether this budget can never evict.
    pub fn is_unbounded(&self) -> bool {
        self.max_entries == usize::MAX && self.max_bytes == u64::MAX
    }
}

impl Default for CacheBudget {
    fn default() -> CacheBudget {
        CacheBudget::unbounded()
    }
}

/// A point-in-time occupancy reading for one shard of a
/// [`ShardedLru`] (and, summed, for the whole map) — what live
/// telemetry reports against the configured [`CacheBudget`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Resident entries in the shard.
    pub entries: usize,
    /// Total estimated cost (bytes) of those entries.
    pub bytes: u64,
}

/// A shard map's value: (value, cost, recency tick of the last touch).
/// The value is boxed so a bucket holds a 48-byte `(key, Slot)` pair
/// whatever `V` is.
type Slot<V> = (Box<V>, u64, u64);

struct Shard<V> {
    map: HashMap<u128, Slot<V>>,
    /// tick → key, ascending; the front is the LRU victim.
    recency: BTreeMap<u64, u128>,
    /// Total cost of the resident entries.
    bytes: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Shard<V> {
        Shard {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            bytes: 0,
        }
    }
}

impl<V> Shard<V> {
    fn evict_lru(&mut self) -> bool {
        let Some((&tick, &victim)) = self.recency.iter().next() else {
            return false;
        };
        self.recency.remove(&tick);
        if let Some((_, cost, _)) = self.map.remove(&victim) {
            // `bytes` is the sum of resident costs, so a victim's cost
            // can never exceed it — but if the map and recency index
            // ever desync, saturate rather than underflow (panic in
            // debug, wraparound-then-never-evict in release).
            debug_assert!(
                cost <= self.bytes,
                "shard byte accounting desynced: cost {cost} > bytes {}",
                self.bytes
            );
            self.bytes = self.bytes.saturating_sub(cost);
        } else {
            debug_assert!(false, "recency index pointed at a non-resident key");
        }
        true
    }
}

/// A sharded LRU map from `u128` content keys to cloneable values.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Per-shard bounds ([`CacheBudget`] divided by [`SHARDS`]).
    shard_entries: usize,
    shard_bytes: u64,
    tick: AtomicU64,
    evicted: AtomicU64,
}

impl<V: Clone> ShardedLru<V> {
    /// An empty map under `budget`.
    pub fn new(budget: CacheBudget) -> ShardedLru<V> {
        // Ceil-divide so SHARDS × shard budget ≥ the requested budget;
        // a bounded budget always admits at least one entry per shard.
        let shard_entries = if budget.max_entries == usize::MAX {
            usize::MAX
        } else {
            (budget.max_entries.div_ceil(SHARDS)).max(1)
        };
        let shard_bytes = if budget.max_bytes == u64::MAX {
            u64::MAX
        } else {
            (budget.max_bytes.div_ceil(SHARDS as u64)).max(1)
        };
        ShardedLru {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_entries,
            shard_bytes,
            tick: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<Shard<V>> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Fetches a clone of the value under `key`, marking it most
    /// recently used.
    pub fn get(&self, key: u128) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("lru shard poisoned");
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let (value, _, old) = shard.map.get_mut(&key)?;
        let value = V::clone(value);
        let old_tick = *old;
        *old = tick;
        shard.recency.remove(&old_tick);
        shard.recency.insert(tick, key);
        Some(value)
    }

    /// Stores `value` under `key` with the given cost estimate, evicting
    /// least-recently-used entries as needed. Returns the number of
    /// entries evicted (including a rejected oversize `value` itself).
    pub fn insert(&self, key: u128, value: V, cost: u64) -> u64 {
        if cost > self.shard_bytes {
            // Admission control: an entry that could never fit would only
            // flush the whole shard on its way to being evicted itself.
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return 1;
        }
        let mut shard = self.shard(key).lock().expect("lru shard poisoned");
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some((old_value, old_cost, old_tick)) = shard.map.remove(&key) {
            let _ = old_value;
            shard.bytes -= old_cost;
            shard.recency.remove(&old_tick);
        }
        if shard.map.len() >= self.shard_entries && shard.map.len() == shard.map.capacity() {
            // A full shard evicts on every insert, and each eviction can
            // leave a tombstone. Once they use up the spare room, hashbrown
            // doubles a table more than half full rather than rehash it in
            // place; rebuild it at the bound's size instead.
            let live = std::mem::take(&mut shard.map);
            shard.map = HashMap::with_capacity(self.shard_entries + 1);
            shard.map.extend(live);
        }
        shard.map.insert(key, (Box::new(value), cost, tick));
        shard.bytes += cost;
        shard.recency.insert(tick, key);
        let mut evictions = 0;
        while shard.map.len() > self.shard_entries || shard.bytes > self.shard_bytes {
            if !shard.evict_lru() {
                break;
            }
            evictions += 1;
        }
        self.evicted.fetch_add(evictions, Ordering::Relaxed);
        evictions
    }

    /// Total entries evicted (or rejected at admission) so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("lru shard poisoned").map.len())
            .sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard occupancy (entries and estimated bytes), in shard
    /// order. Shards are sampled one at a time — concurrent inserts can
    /// land between samples, so the reading is consistent per shard,
    /// approximate across them; each sample holds a shard lock only
    /// long enough to read two fields.
    pub fn occupancy(&self) -> Vec<ShardOccupancy> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("lru shard poisoned");
                ShardOccupancy {
                    entries: shard.map.len(),
                    bytes: shard.bytes,
                }
            })
            .collect()
    }

    /// Total estimated cost (bytes) of all resident entries.
    pub fn bytes(&self) -> u64 {
        self.occupancy().iter().map(|o| o.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys confined to one shard, so eviction order is observable.
    fn k(i: u128) -> u128 {
        i * SHARDS as u128
    }

    #[test]
    fn unbounded_never_evicts() {
        let lru: ShardedLru<String> = ShardedLru::new(CacheBudget::unbounded());
        for i in 0..1000u128 {
            lru.insert(i, format!("v{i}"), 1 << 20);
        }
        assert_eq!(lru.len(), 1000);
        assert_eq!(lru.evicted(), 0);
        assert_eq!(lru.get(999), Some("v999".to_owned()));
    }

    #[test]
    fn entry_bound_evicts_lru_not_recently_touched() {
        // One shard's worth of budget: SHARDS * 2 entries total.
        let lru: ShardedLru<u32> = ShardedLru::new(CacheBudget::bounded(2 * SHARDS, u64::MAX));
        lru.insert(k(1), 1, 1);
        lru.insert(k(2), 2, 1);
        assert_eq!(lru.get(k(1)), Some(1)); // touch 1 → 2 is now LRU
        lru.insert(k(3), 3, 1);
        assert_eq!(lru.evicted(), 1);
        assert_eq!(lru.get(k(2)), None, "the LRU entry was evicted");
        assert_eq!(lru.get(k(1)), Some(1));
        assert_eq!(lru.get(k(3)), Some(3));
    }

    #[test]
    fn byte_bound_and_oversize_rejection() {
        let lru: ShardedLru<u32> =
            ShardedLru::new(CacheBudget::bounded(usize::MAX, 100 * SHARDS as u64));
        lru.insert(k(1), 1, 60);
        lru.insert(k(2), 2, 60); // 120 > 100 → evict k(1)
        assert_eq!(lru.get(k(1)), None);
        assert_eq!(lru.get(k(2)), Some(2));
        assert_eq!(lru.evicted(), 1);
        // An entry that can never fit is rejected outright…
        assert_eq!(lru.insert(k(3), 3, 101), 1);
        assert_eq!(lru.get(k(3)), None);
        // …without disturbing what is resident.
        assert_eq!(lru.get(k(2)), Some(2));
    }

    #[test]
    fn evicting_down_to_an_empty_shard_zeroes_the_accounting() {
        // One entry per shard; every insert after the first evicts its
        // predecessor, repeatedly draining the shard to empty without
        // tripping the byte-accounting invariant.
        let lru: ShardedLru<u32> =
            ShardedLru::new(CacheBudget::bounded(SHARDS, 10 * SHARDS as u64));
        for i in 1..=50u128 {
            lru.insert(k(i), i as u32, 10);
        }
        assert_eq!(lru.evicted(), 49);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(k(50)), Some(50));
        {
            let mut shard = lru.shard(k(50)).lock().unwrap();
            assert_eq!(shard.bytes, 10);
            assert!(shard.evict_lru(), "one resident entry to evict");
            assert_eq!(shard.bytes, 0, "empty shard accounts zero bytes");
            assert!(shard.map.is_empty() && shard.recency.is_empty());
            assert!(!shard.evict_lru(), "empty shard has no victim");
            assert_eq!(shard.bytes, 0);
        }
        assert_eq!(lru.get(k(50)), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn occupancy_tracks_entries_and_bytes_per_shard() {
        let lru: ShardedLru<u32> = ShardedLru::new(CacheBudget::unbounded());
        assert_eq!(lru.occupancy(), vec![ShardOccupancy::default(); SHARDS]);
        lru.insert(k(1), 1, 30); // shard 0
        lru.insert(k(2), 2, 50); // shard 0
        lru.insert(k(3) + 1, 3, 7); // shard 1
        let occ = lru.occupancy();
        assert_eq!(occ.len(), SHARDS);
        assert_eq!((occ[0].entries, occ[0].bytes), (2, 80));
        assert_eq!((occ[1].entries, occ[1].bytes), (1, 7));
        assert_eq!(occ.iter().map(|o| o.entries).sum::<usize>(), lru.len());
        assert_eq!(lru.bytes(), 87);
        // Replacement re-accounts; eviction drains the reading.
        lru.insert(k(2), 4, 10);
        assert_eq!(lru.bytes(), 47);
    }

    #[test]
    fn replacing_a_key_accounts_cost_once() {
        let lru: ShardedLru<u32> =
            ShardedLru::new(CacheBudget::bounded(usize::MAX, 100 * SHARDS as u64));
        lru.insert(k(1), 1, 90);
        lru.insert(k(1), 2, 40);
        lru.insert(k(2), 3, 60); // 40 + 60 fits exactly
        assert_eq!(lru.evicted(), 0);
        assert_eq!(lru.get(k(1)), Some(2));
        assert_eq!(lru.get(k(2)), Some(3));
    }

    #[test]
    fn map_slots_stay_small_whatever_the_value() {
        use std::mem::size_of;
        assert_eq!(size_of::<(u128, Slot<gpa::Report>)>(), 48);
        assert_eq!(size_of::<(u128, Slot<[u8; 256]>)>(), 48);
    }

    #[test]
    fn a_full_shard_keeps_its_table_size_under_churn() {
        // 4,096 live entries fit a table of 8,192 buckets (7,168 usable);
        // churn must not double it to 16,384.
        let bound = 4096;
        let lru: ShardedLru<u32> = ShardedLru::new(CacheBudget::bounded(bound * SHARDS, u64::MAX));
        let mut most = 0;
        for i in 0..40_000u128 {
            lru.insert(k(i), i as u32, 1);
            most = most.max(lru.shard(k(0)).lock().unwrap().map.capacity());
        }
        assert!(most < 2 * bound, "the table grew to hold {most} entries");
        assert_eq!(lru.len(), bound);
        assert_eq!(lru.get(k(39_999)), Some(39_999));
        assert_eq!(lru.get(k(40_000 - bound as u128 - 1)), None);
    }
}
