//! Detection artifacts: the inputs one optimization carries from round
//! to round, the content-addressed block cache shared across images,
//! and the address of a whole optimization result.
//!
//! * [`RoundState`] — one optimization's detection inputs: per function,
//!   its regions with their DFGs, reachability closures and mining
//!   graphs, and under `--alias stack` their alias oracles and relaxed
//!   overlays. An extraction rewrites only the functions hosting the
//!   winner's occurrences and appends the fragment function, so after
//!   each round only those are rebuilt; every other function's entries
//!   carry over. This is where round-to-round reuse within one run
//!   comes from.
//! * [`DfgCache`] — an in-memory map from a block's content address
//!   ([`gpa_dfg::block_content_hash`]) to its built artifact: the DFG and
//!   the forward-reachability closure detection needs for convexity
//!   checks. Batch runs and `gpa serve` share one across images, where
//!   the same runtime blocks recur; a [`RoundState`] consults it only
//!   for the regions it rebuilds. Graph construction is deterministic,
//!   so a hit returns exactly what a rebuild would.
//! * [`image_cache_key`] — the address of a whole optimization *result*:
//!   a stable hash of the image's normalized code (code words, layout
//!   bases, entry, symbol table — everything lifting reads; the data
//!   payload is excluded because it cannot influence the rewrite) plus
//!   the [`Method`] and every [`RunConfig`] knob that changes the output.
//!   Equal keys ⇒ byte-identical [`crate::Report`]s.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gpa_arm::reg::RegSet;
use gpa_cfg::{Item, Program};
use gpa_dfg::hash::Fnv128;
use gpa_dfg::{block_content_hash, AliasOracle, Dfg, LabelMode, RelaxStats};
use gpa_image::Image;
use gpa_mining::graph::{InputGraph, LabelInterner};
use gpa_trace::Tracer;

use crate::graph_detect::{function_region_infos, region_oracle, GraphConfig, Reach, RegionInfo};
use crate::optimizer::{AliasLevel, Method, RunConfig};
use crate::validate::ValidateLevel;

/// A per-block detection artifact: the DFG plus its reachability closure.
///
/// Cached entries are built with an empty function name and region start
/// zero — detection reads only labels, edges and degrees, all of which
/// are position-independent.
#[derive(Debug, PartialEq)]
pub(crate) struct BlockArtifact {
    pub(crate) dfg: Dfg,
    pub(crate) reach: Reach,
}

impl BlockArtifact {
    pub(crate) fn build(items: &[Item], mode: LabelMode) -> BlockArtifact {
        BlockArtifact::of(gpa_dfg::build_dfg_from_items("", 0, items, mode))
    }

    fn of(dfg: Dfg) -> BlockArtifact {
        let reach = Reach::new(&dfg);
        BlockArtifact { dfg, reach }
    }
}

/// One region as detection sees it, with everything built from it.
#[derive(Clone, Debug)]
pub(crate) struct RegionState {
    pub(crate) info: RegionInfo,
    /// The conservative DFG and closure: mining counts on these.
    pub(crate) artifact: Arc<BlockArtifact>,
    /// Under [`AliasLevel::Stack`], the region's alias oracle and the
    /// relaxed artifact built against it.
    pub(crate) overlay: Option<Overlay>,
    /// Per node, the key of its label in [`RoundState`]'s run-lifetime
    /// label table.
    keys: Vec<u32>,
}

impl RegionState {
    /// The artifact extractability is decided on: the relaxed overlay
    /// when there is one (fewer edges, so weakly less reachability),
    /// the conservative artifact otherwise.
    pub(crate) fn extractability(&self) -> &BlockArtifact {
        self.overlay
            .as_ref()
            .map_or(&self.artifact, |o| &o.artifact)
    }

    /// Whether two regions hold the same detection inputs: everything
    /// but the label keys, which number labels per run.
    #[cfg(test)]
    pub(crate) fn same_inputs(&self, other: &RegionState) -> bool {
        self.info == other.info && self.artifact == other.artifact && self.overlay == other.overlay
    }
}

/// A region's alias oracle and the artifact built against it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Overlay {
    pub(crate) oracle: AliasOracle,
    /// The relaxed artifact; the conservative one itself, shared, when
    /// the oracle relaxes no pair.
    pub(crate) artifact: Arc<BlockArtifact>,
    /// MEM edges the oracle dropped, as region-local `(earlier, later)`
    /// node pairs.
    pub(crate) relaxed: Vec<(usize, usize)>,
    /// Pair counts behind `relaxed` (for the `absint.*` trace counters).
    pub(crate) stats: RelaxStats,
}

impl Overlay {
    /// The overlay of a region whose conservative artifact is
    /// `conservative`: its memory pairs are scanned against `oracle`
    /// first, and only a region with a disjoint pair gets a relaxed
    /// graph of its own, built on the conservative graph's labels and
    /// items. Equal to a full build against `oracle` either way.
    pub(crate) fn build(conservative: &Arc<BlockArtifact>, oracle: AliasOracle) -> Overlay {
        let (relaxed, stats) = conservative.dfg.disjoint_mem_pairs(&oracle);
        let artifact = if relaxed.is_empty() {
            Arc::clone(conservative)
        } else {
            Arc::new(BlockArtifact::of(conservative.dfg.without_mem(&relaxed)))
        };
        Overlay {
            oracle,
            artifact,
            relaxed,
            stats,
        }
    }
}

/// Where one function's regions sit in the flat lists, and what its
/// oracles were built from.
#[derive(Clone, Debug)]
struct FuncState {
    regions: Range<usize>,
    /// The callee facts ([`gpa_verify::AbsEnv::call_facts`]) the
    /// function's oracles were projected under.
    facts: Vec<RegSet>,
    /// Reachable program points of the function's abstract
    /// interpretation (a function of its items alone).
    points: u64,
}

/// The detection inputs of one optimization, carried from round to
/// round.
///
/// [`RoundState::refresh`] rebuilds exactly the functions marked dirty
/// since the last refresh, plus any it has not seen; round 1 is the case
/// where that is every function. The whole-program views the search
/// reads (`regions`, `graphs`, label ids) are then reassembled in the
/// order a fresh build produces them, so the search sees the same
/// inputs either way. Superseded entries are dropped as they are
/// replaced: the state holds one generation.
#[derive(Clone, Debug, Default)]
pub(crate) struct RoundState {
    /// The label mode and alias level the entries were built under.
    built_for: Option<(LabelMode, AliasLevel)>,
    /// Functions rewritten since the last refresh.
    dirty: BTreeSet<usize>,
    /// Per function, aligned with `Program::functions`.
    funcs: Vec<FuncState>,
    /// Every region of the program, in function and item order.
    pub(crate) regions: Vec<RegionState>,
    /// The mining graph of each region, labelled with this round's ids.
    pub(crate) graphs: Vec<InputGraph>,
    /// Every label a region of this run was built with, under its key
    /// (a [`LabelInterner`] id, assigned once and never renumbered).
    labels: LabelInterner,
    /// The key of every item a region of this run was built with: a
    /// label is a function of its item, so it is formatted and interned
    /// only the first time the run sees the item.
    item_keys: HashMap<Item, u32>,
    /// This round's label ids: id `i` is key `ids[i]`, numbered in
    /// first-seen order over `regions`.
    ids: Vec<u32>,
    /// Under [`AliasLevel::Stack`], the call graph and sp-balance facts
    /// of the last refresh, which the next one updates.
    call_graph: Option<gpa_verify::CallGraph>,
    balanced: Vec<bool>,
}

impl RoundState {
    /// Marks `function` as rewritten (or about to be), so the next
    /// refresh rebuilds it.
    pub(crate) fn mark_dirty(&mut self, function: usize) {
        self.dirty.insert(function);
    }

    /// The key of `item`'s label under `mode`.
    fn key_of(&mut self, item: &Item, mode: LabelMode) -> u32 {
        if let Some(&key) = self.item_keys.get(item) {
            return key;
        }
        let key = self.labels.intern(&mode.label(item));
        self.item_keys.insert(item.clone(), key);
        key
    }

    /// The text of this round's label `id`.
    #[cfg(test)]
    pub(crate) fn label_name(&self, id: u32) -> &str {
        self.labels.name(self.ids[id as usize])
    }

    /// The number of distinct labels this round.
    #[cfg(test)]
    pub(crate) fn label_count(&self) -> usize {
        self.ids.len()
    }

    /// The label text region `g`'s keys stand for, node by node.
    #[cfg(test)]
    pub(crate) fn keyed_labels(&self, g: usize) -> Vec<&str> {
        self.regions[g]
            .keys
            .iter()
            .map(|&k| self.labels.name(k))
            .collect()
    }

    /// Brings the state up to date with `program`: rebuilds the dirty
    /// functions' entries (looking their conservative artifacts up in
    /// `cache` when given), keeps the rest, and reassembles the
    /// whole-program views.
    ///
    /// Emits `front.regions`, `front.regions_built` and
    /// `front.regions_reused`, and under [`AliasLevel::Stack`] the
    /// `absint.*` counters.
    pub(crate) fn refresh(
        &mut self,
        program: &Program,
        config: &GraphConfig,
        cache: Option<&DfgCache>,
    ) {
        let tracer = &*config.tracer;
        let _front_span = gpa_trace::span(tracer, "front");
        let settings = (config.label_mode, config.alias);
        if self.built_for != Some(settings) || program.functions.len() < self.funcs.len() {
            *self = RoundState {
                built_for: Some(settings),
                ..RoundState::default()
            };
        }
        let mut old_funcs = std::mem::take(&mut self.funcs).into_iter();
        let mut old_regions = std::mem::take(&mut self.regions).into_iter();
        let mut old_graphs = std::mem::take(&mut self.graphs).into_iter();
        let mut rebuilt = vec![false; program.functions.len()];
        for (fi, f) in program.functions.iter().enumerate() {
            let start = self.regions.len();
            let old = old_funcs.next();
            let carried = old.as_ref().map_or(0, |o| o.regions.len());
            match old {
                Some(old) if !self.dirty.contains(&fi) => {
                    self.regions.extend(old_regions.by_ref().take(carried));
                    self.graphs.extend(old_graphs.by_ref().take(carried));
                    self.funcs.push(FuncState {
                        regions: start..self.regions.len(),
                        ..old
                    });
                }
                _ => {
                    old_regions.by_ref().take(carried).for_each(drop);
                    old_graphs.by_ref().take(carried).for_each(drop);
                    rebuilt[fi] = true;
                    for info in function_region_infos(fi, f) {
                        let keys: Vec<u32> = info
                            .items
                            .iter()
                            .map(|item| self.key_of(item, config.label_mode))
                            .collect();
                        let artifact = match cache {
                            Some(cache) => cache.get_or_build(&info.items, config.label_mode),
                            None => {
                                let labels = keys
                                    .iter()
                                    .map(|&k| self.labels.name(k).to_owned())
                                    .collect();
                                let dfg = gpa_dfg::build_dfg_labelled("", 0, &info.items, labels);
                                Arc::new(BlockArtifact::of(dfg))
                            }
                        };
                        self.graphs
                            .push(InputGraph::from_dfg(&artifact.dfg, keys.clone()));
                        self.regions.push(RegionState {
                            info,
                            artifact,
                            overlay: None,
                            keys,
                        });
                    }
                    self.funcs.push(FuncState {
                        regions: start..self.regions.len(),
                        facts: Vec::new(),
                        points: 0,
                    });
                }
            }
        }
        self.dirty.clear();
        let built: usize = self
            .funcs
            .iter()
            .zip(&rebuilt)
            .filter(|(_, &r)| r)
            .map(|(f, _)| f.regions.len())
            .sum();
        tracer.count("front.regions", self.regions.len() as u64);
        tracer.count("front.regions_built", built as u64);
        tracer.count("front.regions_reused", (self.regions.len() - built) as u64);
        if config.alias == AliasLevel::Stack {
            self.refresh_overlays(program, &rebuilt, tracer);
        }
        // Label ids depend on the order of first sight across the whole
        // program (minimal DFS codes compare them), so a label new in
        // one rewritten function can shift every later id: renumber the
        // keys every round, in region and node order.
        let mut id_of = vec![u32::MAX; self.labels.len()];
        self.ids.clear();
        for (region, graph) in self.regions.iter().zip(&mut self.graphs) {
            for (label, &key) in graph.labels.iter_mut().zip(&region.keys) {
                let id = &mut id_of[key as usize];
                if *id == u32::MAX {
                    *id = self.ids.len() as u32;
                    self.ids.push(key);
                }
                *label = *id;
            }
        }
    }

    /// Rebuilds the alias oracles and relaxed overlays of every function
    /// that was rebuilt or whose callee facts changed. Those facts are
    /// all a function's abstract states read from other functions, so
    /// every other function keeps exactly the oracles a fresh analysis
    /// would give it. The two whole-program fixpoints behind the facts
    /// (call-graph summaries, sp balance) start from the last refresh's
    /// and recompute only the call-graph components that hold a rebuilt
    /// function or depend on a function whose facts changed.
    ///
    /// Emits `absint.points`, the `absint.mem_pairs_*` audit, the
    /// overlays refreshed (`absint.overlays`, split into
    /// `absint.overlays_built` and `absint.overlays_shared`), and the
    /// analyses the fixpoints ran (`absint.summary_analyses`,
    /// `absint.balance_analyses`).
    fn refresh_overlays(&mut self, program: &Program, rebuilt: &[bool], tracer: &dyn Tracer) {
        let previous = self.call_graph.take();
        let graph =
            gpa_verify::CallGraph::rebuild(program, previous.as_ref().map(|g| (g, rebuilt)));
        let (env, mut states) = gpa_verify::AbsEnv::build_with_states(
            program,
            &graph,
            previous.is_some().then_some(self.balanced.as_slice()),
        );
        let mut points = 0u64;
        let (mut built, mut shared) = (0u64, 0u64);
        // A function's callee facts read only the summaries and balance
        // of its dependencies, so only a changed function (its code or
        // its dependencies) or one with a moved dependency can need new
        // oracles.
        let moved = |d: usize| graph.moved[d] || self.balanced.get(d) != Some(&env.balanced()[d]);
        for (fi, f) in program.functions.iter().enumerate() {
            let func = &mut self.funcs[fi];
            if graph.changed[fi] || graph.deps[fi].iter().any(|&d| moved(d)) {
                let facts = env.call_facts(f);
                if rebuilt[fi] || facts != func.facts {
                    let analysis = states[fi]
                        .take()
                        .unwrap_or_else(|| gpa_verify::AbsInt::analyze(f, Some(&env)));
                    func.facts = facts;
                    func.points = analysis.points;
                    for region in &mut self.regions[func.regions.clone()] {
                        let oracle = region_oracle(&region.info, &analysis, &env);
                        let overlay = Overlay::build(&region.artifact, oracle);
                        if Arc::ptr_eq(&overlay.artifact, &region.artifact) {
                            shared += 1;
                        } else {
                            built += 1;
                        }
                        region.overlay = Some(overlay);
                    }
                }
            }
            points += func.points;
        }
        self.balanced = env.balanced().to_vec();
        tracer.count("absint.summary_analyses", graph.analyses);
        tracer.count("absint.balance_analyses", env.analyses());
        self.call_graph = Some(graph);
        tracer.count("absint.points", points);
        tracer.count("absint.overlays", built + shared);
        tracer.count("absint.overlays_built", built);
        tracer.count("absint.overlays_shared", shared);
        let mut examined = 0u64;
        let mut disjoint = 0u64;
        for overlay in self.regions.iter().filter_map(|r| r.overlay.as_ref()) {
            examined += overlay.stats.mem_pairs_examined;
            disjoint += overlay.stats.mem_pairs_disjoint;
        }
        tracer.count("absint.mem_pairs_examined", examined);
        tracer.count("absint.mem_pairs_disjoint", disjoint);
        tracer.count("absint.mem_pairs_kept", examined - disjoint);
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
