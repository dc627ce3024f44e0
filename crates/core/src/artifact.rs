//! Content-addressed artifacts shared by batch runs.
//!
//! Corpus optimization re-sees the same inputs constantly: the same
//! runtime blocks in every image, unchanged images across re-runs, and —
//! within one run — every block the current round did not rewrite. Two
//! addresses make that reuse safe:
//!
//! * [`image_cache_key`] — the address of a whole optimization *result*:
//!   a stable hash of the image's normalized code (code words, layout
//!   bases, entry, symbol table — everything lifting reads; the data
//!   payload is excluded because it cannot influence the rewrite) plus
//!   the [`Method`] and every [`RunConfig`] knob that changes the output.
//!   Equal keys ⇒ byte-identical [`crate::Report`]s.
//! * [`DfgCache`] — an in-memory map from a block's content address
//!   ([`gpa_dfg::block_content_hash`]) to its built artifact: the DFG and
//!   the forward-reachability closure detection needs for convexity
//!   checks. The cache is shared across rounds, images and worker
//!   threads; graph construction is deterministic, so a hit returns
//!   exactly what a rebuild would.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gpa_cfg::Item;
use gpa_dfg::hash::Fnv128;
use gpa_dfg::{block_content_hash, Dfg, LabelMode};
use gpa_image::Image;

use crate::graph_detect::Reach;
use crate::optimizer::{Method, RunConfig};
use crate::validate::ValidateLevel;

/// A per-block detection artifact: the DFG plus its reachability closure.
///
/// Cached entries are built with an empty function name and region start
/// zero — detection reads only labels, edges and degrees, all of which
/// are position-independent.
pub(crate) struct BlockArtifact {
    pub(crate) dfg: Dfg,
    pub(crate) reach: Reach,
    /// MEM edges the alias oracle dropped while building `dfg`, as
    /// region-local `(earlier, later)` node pairs. Empty for
    /// conservative builds.
    pub(crate) relaxed: Vec<(usize, usize)>,
    /// Pair counts behind `relaxed` (for the `absint.*` trace counters).
    pub(crate) relax_stats: gpa_dfg::RelaxStats,
}

impl BlockArtifact {
    pub(crate) fn build(items: &[Item], mode: LabelMode) -> BlockArtifact {
        Self::build_with(items, mode, None)
    }

    /// [`BlockArtifact::build`] with an optional alias oracle refining
    /// the DFG's MEM edges. Oracle-built artifacts depend on the whole
    /// function's abstract state, not just the block's items, so they
    /// must never go through the content-addressed [`DfgCache`].
    pub(crate) fn build_with(
        items: &[Item],
        mode: LabelMode,
        oracle: Option<&gpa_dfg::AliasOracle>,
    ) -> BlockArtifact {
        let relaxed_dfg = gpa_dfg::build_dfg_from_items_with("", 0, items, mode, oracle);
        let reach = Reach::new(&relaxed_dfg.dfg);
        BlockArtifact {
            dfg: relaxed_dfg.dfg,
            reach,
            relaxed: relaxed_dfg.relaxed,
            relax_stats: relaxed_dfg.stats,
        }
    }
}

/// The keyed side of a [`DfgCache`]: the artifact map plus the
/// recency index that makes bounded caches LRU.
#[derive(Default)]
struct DfgInner {
    /// key → (artifact, recency tick of the last touch).
    map: HashMap<u128, (Arc<BlockArtifact>, u64)>,
    /// tick → key, ascending: the front is the least recently used.
    recency: BTreeMap<u64, u128>,
    /// Monotone touch counter.
    tick: u64,
}

impl DfgInner {
    /// Marks `key` as most recently used (must be present).
    fn touch(&mut self, key: u128) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, old)) = self.map.get_mut(&key) {
            self.recency.remove(old);
            *old = tick;
            self.recency.insert(tick, key);
        }
    }
}

/// A thread-safe, content-addressed cache of per-block [`Dfg`]s and
/// reachability closures, keyed by [`gpa_dfg::block_content_hash`].
///
/// [`DfgCache::new`] is unbounded (one batch run's working set);
/// [`DfgCache::bounded`] caps the entry count with least-recently-used
/// eviction, which is what a long-lived `gpa serve` process needs to
/// keep its resident size finite under arbitrary traffic.
///
/// Hit/miss/eviction counters feed the pipeline's metrics report.
pub struct DfgCache {
    inner: Mutex<DfgInner>,
    max_entries: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

impl Default for DfgCache {
    fn default() -> DfgCache {
        DfgCache::bounded(usize::MAX)
    }
}

impl DfgCache {
    /// An empty, unbounded cache.
    pub fn new() -> DfgCache {
        DfgCache::default()
    }

    /// An empty cache holding at most `max_entries` artifacts, evicting
    /// the least recently used beyond that (`max_entries` is clamped to
    /// at least 1 so the entry being inserted always fits).
    pub fn bounded(max_entries: usize) -> DfgCache {
        DfgCache {
            inner: Mutex::new(DfgInner::default()),
            max_entries: max_entries.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to build the artifact.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of artifacts evicted to stay under the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Number of artifacts currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("dfg cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the artifact for a block, building and publishing it on
    /// first sight.
    pub(crate) fn get_or_build(&self, items: &[Item], mode: LabelMode) -> Arc<BlockArtifact> {
        let key = block_content_hash(items, mode);
        {
            let mut inner = self.inner.lock().expect("dfg cache poisoned");
            if let Some((found, _)) = inner.map.get(&key) {
                let found = Arc::clone(found);
                inner.touch(key);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return found;
            }
        }
        // Build outside the lock: duplicate work on a race is cheaper
        // than serializing every construction behind one mutex.
        let built = Arc::new(BlockArtifact::build(items, mode));
        let mut inner = self.inner.lock().expect("dfg cache poisoned");
        if let Some((rival, _)) = inner.map.get(&key) {
            // A racing builder published first; adopt its artifact.
            let rival = Arc::clone(rival);
            inner.touch(key);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return rival;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (Arc::clone(&built), tick));
        inner.recency.insert(tick, key);
        while inner.map.len() > self.max_entries {
            let Some((&oldest, &victim)) = inner.recency.iter().next() else {
                break;
            };
            inner.recency.remove(&oldest);
            inner.map.remove(&victim);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        built
    }
}

/// The content address of an optimization run's *result*: two calls agree
/// exactly when [`crate::Optimizer::run_with`] is guaranteed to produce
/// the same [`crate::Report`].
///
/// Normalization: the data section's *payload* is excluded (lifting never
/// reads it), while everything decode consumes — code words, section
/// bases, entry point, and the full symbol table — is hashed. Of the
/// [`RunConfig`], the knobs that shape the search (`max_rounds`,
/// `max_fragment_nodes`, `alias`, a non-default `max_patterns`) and the
/// validation level (a failed
/// validation yields an error, not a report) are included. No knob
/// selects a thread count: one image is optimized on one thread, so the
/// key is exact for every caller (`gpa optimize`, `gpa batch`, `gpa
/// serve`, `gpa perf`), however many images those run side by side.
pub fn image_cache_key(image: &Image, method: Method, config: &RunConfig) -> u128 {
    let mut h = Fnv128::new();
    h.write(b"gpa-image-key/1");
    h.write(crate::report::REPORT_SCHEMA.as_bytes());
    h.write(match method {
        Method::Sfx => b"sfx",
        Method::DgSpan => b"dgspan",
        Method::Edgar => b"edgar",
    });
    h.write_u64(config.max_rounds as u64);
    h.write_u64(config.max_fragment_nodes as u64);
    h.write(&[match config.validate {
        ValidateLevel::Off => 0u8,
        ValidateLevel::Final => 1,
        ValidateLevel::EveryRound => 2,
    }]);
    // `Off` hashes to the pre-alias key on purpose: disabled alias
    // analysis is bit-for-bit the historical pipeline, so existing
    // cached reports (and committed goldens) stay addressable.
    match config.alias {
        crate::optimizer::AliasLevel::Off => {}
        crate::optimizer::AliasLevel::Stack => h.write(b"alias/stack"),
    }
    // Same backwards-compatibility shape for the per-round pattern
    // budget: the default hashes to the historical key, a request-tuned
    // budget (a `gpa serve` knob) gets its own key space because an
    // exhausted budget changes which candidates a round can see. The
    // `deadline` knob is deliberately *not* hashed — it is wall-clock
    // dependent, and deadline-stopped runs are never cached.
    if config.max_patterns != crate::optimizer::DEFAULT_MAX_PATTERNS {
        h.write(b"max_patterns");
        h.write_u64(config.max_patterns as u64);
    }
    h.write_u64(u64::from(image.code_base()));
    h.write_u64(u64::from(image.data_base()));
    h.write_u64(u64::from(image.entry()));
    h.write_u64(image.code_words().len() as u64);
    for &word in image.code_words() {
        h.write(&word.to_le_bytes());
    }
    h.write_u64(image.symbols().len() as u64);
    for sym in image.symbols() {
        h.write_u64(sym.name.len() as u64);
        h.write(sym.name.as_bytes());
        h.write_u64(u64::from(sym.addr));
        h.write_u64(u64::from(sym.size));
        h.write(&[
            match sym.kind {
                gpa_image::SymbolKind::Function => 0u8,
                gpa_image::SymbolKind::Object => 1,
            },
            u8::from(sym.address_taken),
        ]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_minicc::{compile, Options};

    fn items(asm: &str) -> Vec<Item> {
        gpa_arm::parse::parse_listing(asm)
            .unwrap()
            .into_iter()
            .map(Item::Insn)
            .collect()
    }

    #[test]
    fn dfg_cache_hits_on_equal_blocks() {
        let cache = DfgCache::new();
        let a = items("ldr r3, [r1]!\nsub r2, r2, r3");
        let first = cache.get_or_build(&a, LabelMode::Exact);
        let second = cache.get_or_build(&a, LabelMode::Exact);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // A different block misses.
        let b = items("mov r0, #7");
        let _ = cache.get_or_build(&b, LabelMode::Exact);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cached_artifact_equals_direct_build() {
        let a = items("ldr r3, [r1]!\nsub r2, r2, r3\nadd r4, r2, #4");
        let cache = DfgCache::new();
        let cached = cache.get_or_build(&a, LabelMode::Exact);
        let direct = BlockArtifact::build(&a, LabelMode::Exact);
        assert_eq!(cached.dfg.edges(), direct.dfg.edges());
        assert_eq!(cached.dfg.node_count(), direct.dfg.node_count());
    }

    #[test]
    fn image_key_tracks_code_not_data() {
        let src = "int g[2]; int main() { g[0] = 3; putint(g[0]); return 0; }";
        let image = compile(src, &Options::default()).unwrap();
        let config = RunConfig::default();
        let base = image_cache_key(&image, Method::Edgar, &config);
        assert_eq!(base, image_cache_key(&image, Method::Edgar, &config));
        assert_ne!(base, image_cache_key(&image, Method::Sfx, &config));
        let mut smaller = config.clone();
        smaller.max_fragment_nodes = 4;
        assert_ne!(base, image_cache_key(&image, Method::Edgar, &smaller));
        let mut aliased = config.clone();
        aliased.alias = crate::optimizer::AliasLevel::Stack;
        assert_ne!(base, image_cache_key(&image, Method::Edgar, &aliased));
        let mut incremental = config.clone();
        incremental.incremental = Some(std::sync::Arc::new(
            crate::incremental::MemoryMineCache::new(),
        ));
        assert_eq!(
            base,
            image_cache_key(&image, Method::Edgar, &incremental),
            "the seed cache never changes the output, so it must not key the cache"
        );
        // A different program produces a different key.
        let other = compile("int main() { return 1; }", &Options::default()).unwrap();
        assert_ne!(base, image_cache_key(&other, Method::Edgar, &config));
    }

    #[test]
    fn image_key_tracks_pattern_budget_but_not_deadline() {
        let image = compile("int main() { return 0; }", &Options::default()).unwrap();
        let config = RunConfig::default();
        let base = image_cache_key(&image, Method::Edgar, &config);
        // A tuned per-round budget addresses a different result…
        let mut budgeted = config.clone();
        budgeted.max_patterns = 100;
        assert_ne!(base, image_cache_key(&image, Method::Edgar, &budgeted));
        // …while the wall-clock deadline never participates: a
        // deadline-stopped run is simply not cached.
        let mut deadlined = config.clone();
        deadlined.deadline = Some(std::time::Instant::now());
        assert_eq!(base, image_cache_key(&image, Method::Edgar, &deadlined));
    }

    #[test]
    fn bounded_dfg_cache_evicts_least_recently_used() {
        let cache = DfgCache::bounded(2);
        let a = items("mov r0, #1");
        let b = items("mov r0, #2");
        let c = items("mov r0, #3");
        let _ = cache.get_or_build(&a, LabelMode::Exact);
        let _ = cache.get_or_build(&b, LabelMode::Exact);
        // Touch `a` so `b` becomes the LRU victim when `c` arrives.
        let _ = cache.get_or_build(&a, LabelMode::Exact);
        let _ = cache.get_or_build(&c, LabelMode::Exact);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evicted(), 1);
        // `a` survived (hit), `b` was evicted (miss rebuilds it).
        let hits_before = cache.hits();
        let _ = cache.get_or_build(&a, LabelMode::Exact);
        assert_eq!(cache.hits(), hits_before + 1);
        let misses_before = cache.misses();
        let _ = cache.get_or_build(&b, LabelMode::Exact);
        assert_eq!(cache.misses(), misses_before + 1);
    }

    #[test]
    fn deadline_in_the_past_yields_a_wellformed_empty_report() {
        use crate::{Method, Optimizer};
        let image = compile_benchmark();
        let mut opt = Optimizer::from_image(&image).unwrap();
        let config = RunConfig {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            validate: crate::ValidateLevel::Off,
            ..RunConfig::default()
        };
        let report = opt.run_with(Method::Edgar, &config).unwrap();
        assert_eq!(
            report.rounds.len(),
            0,
            "no round may start past the deadline"
        );
        assert_eq!(report.initial_words, report.final_words);
    }

    fn compile_benchmark() -> gpa_image::Image {
        compile(
            "int f(int x) { return x * 3 + 1; }\n\
             int main() { putint(f(5) + f(9)); return 0; }",
            &Options::default(),
        )
        .unwrap()
    }
}
