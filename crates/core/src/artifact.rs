//! Detection artifacts: the inputs one optimization carries from round
//! to round, the item-keyed block store they are built from, and the
//! address of a whole optimization result.
//!
//! * [`RoundState`] — one optimization's detection inputs: per function,
//!   its regions with their DFGs, reachability closures and mining
//!   graphs, and under `--alias stack` their relaxed overlays. An
//!   extraction rewrites only the functions hosting the winner's
//!   occurrences and appends the fragment function, so after each round
//!   only those are rebuilt; every other function's entries carry over.
//! * [`DfgCache`] — the block store: an in-memory map from a block's
//!   items to its built artifact, the DFG and the forward-reachability
//!   closure detection needs for convexity checks. A block's artifact is
//!   a function of its items alone, so every region a [`RoundState`]
//!   rebuilds takes its artifact from the store, and a block the run
//!   (or, when the store is shared, any run) has built before is not
//!   built again. Every [`crate::Optimizer`] owns one: a private store,
//!   or the one `gpa batch` and `gpa serve` share across images, where
//!   the same runtime blocks recur.
//! * [`image_cache_key`] — the address of a whole optimization *result*:
//!   a stable hash of the image's normalized code (code words, layout
//!   bases, entry, symbol table — everything lifting reads; the data
//!   payload is excluded because it cannot influence the rewrite) plus
//!   the [`Method`] and every [`RunConfig`] knob that changes the output.
//!   Equal keys ⇒ byte-identical [`crate::Report`]s.

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gpa_arm::reg::RegSet;
use gpa_cfg::{Item, Program};
use gpa_dfg::hash::Fnv128;
use gpa_dfg::{AliasOracle, Dfg, RelaxStats};
use gpa_image::Image;
use gpa_mining::graph::{InputGraph, LabelInterner};
use gpa_trace::Tracer;

use crate::graph_detect::{function_region_infos, region_oracle, Reach, RegionInfo};
use crate::lru::{CacheBudget, Lru};
use crate::optimizer::{AliasLevel, Method, RunConfig};
use crate::validate::ValidateLevel;

/// The longest region detection builds a DFG for. Building one costs
/// time and memory that grow faster than the region (the DFG's
/// transitive reduction compares every pair of items), and no deadline
/// can stop that work, which runs inside a round. The bound is three
/// times the longest region of the bundled kernels (rijndael's 341
/// items), so it skips none of theirs.
pub(crate) const MAX_REGION_ITEMS: usize = 1024;

/// A per-block detection artifact: the DFG plus its reachability closure,
/// both functions of the block's items alone.
#[derive(Debug, PartialEq)]
pub(crate) struct BlockArtifact {
    pub(crate) dfg: Dfg,
    pub(crate) reach: Reach,
}

impl BlockArtifact {
    pub(crate) fn build(items: &[Item]) -> BlockArtifact {
        BlockArtifact::of(gpa_dfg::build_dfg_from_items(items))
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
    /// Under [`AliasLevel::Stack`], the relaxed artifact built against
    /// the region's alias oracle.
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

/// The artifact built against a region's alias oracle, with what the
/// oracle decided.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Overlay {
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
    /// graph of its own, built on the conservative graph's items. Equal
    /// to a full build against `oracle` either way.
    pub(crate) fn build(conservative: &Arc<BlockArtifact>, oracle: &AliasOracle) -> Overlay {
        let (relaxed, stats) = conservative.dfg.disjoint_mem_pairs(oracle);
        let artifact = if relaxed.is_empty() {
            Arc::clone(conservative)
        } else {
            Arc::new(BlockArtifact::of(conservative.dfg.without_mem(&relaxed)))
        };
        Overlay {
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
    /// The alias level the entries were built under.
    built_for: Option<AliasLevel>,
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

    /// The key of `item`'s label.
    fn key_of(&mut self, item: &Item) -> u32 {
        if let Some(&key) = self.item_keys.get(item) {
            return key;
        }
        let key = self.labels.intern(&item.mining_label());
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
    /// functions' entries, taking every rebuilt region's conservative
    /// artifact from `store`, keeps the rest, and reassembles the
    /// whole-program views. A region longer than [`MAX_REGION_ITEMS`]
    /// gets no entry: no artifact, mining graph or overlay.
    ///
    /// Emits `front.regions`, `front.regions_built` (split into
    /// `front.blocks_built`, the artifacts the store had to build, and
    /// `front.blocks_found`, the ones it already held),
    /// `front.regions_reused` and `front.regions_oversized` (the rebuilt
    /// functions' regions skipped for their length), and under
    /// [`AliasLevel::Stack`] the `absint.*` counters.
    pub(crate) fn refresh(&mut self, program: &Program, config: &RunConfig, store: &DfgCache) {
        let tracer = &*config.tracer;
        let _front_span = gpa_trace::span(tracer, "front");
        if self.built_for != Some(config.alias) || program.functions.len() < self.funcs.len() {
            *self = RoundState {
                built_for: Some(config.alias),
                ..RoundState::default()
            };
        }
        let mut old_funcs = std::mem::take(&mut self.funcs).into_iter();
        let mut old_regions = std::mem::take(&mut self.regions).into_iter();
        let mut old_graphs = std::mem::take(&mut self.graphs).into_iter();
        let mut rebuilt = vec![false; program.functions.len()];
        let (mut blocks_built, mut blocks_found, mut oversized) = (0u64, 0u64, 0u64);
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
                        if info.len > MAX_REGION_ITEMS {
                            oversized += 1;
                            continue;
                        }
                        let keys: Vec<u32> =
                            info.items.iter().map(|item| self.key_of(item)).collect();
                        let (artifact, found) = store.get_or_build(&info.items);
                        if found {
                            blocks_found += 1;
                        } else {
                            blocks_built += 1;
                        }
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
        let regions = self.regions.len() as u64;
        let built = blocks_built + blocks_found;
        tracer.count("front.regions", regions);
        tracer.count("front.regions_built", built);
        tracer.count("front.blocks_built", blocks_built);
        tracer.count("front.blocks_found", blocks_found);
        tracer.count("front.regions_reused", regions - built);
        tracer.count("front.regions_oversized", oversized);
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
        let carried = previous.is_some();
        let graph = gpa_verify::CallGraph::rebuild(program, previous.map(|g| (g, rebuilt)));
        let (env, mut states) = gpa_verify::AbsEnv::build_with_states(
            program,
            &graph,
            carried.then_some(self.balanced.as_slice()),
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
                        let overlay = Overlay::build(&region.artifact, &oracle);
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

/// A block in the store, hashed and compared by the items its DFG was
/// built from: the map finds an entry by `&[Item]` without keeping a
/// second copy of the items.
#[derive(Clone)]
struct Block(Arc<BlockArtifact>);

impl Block {
    fn items(&self) -> &[Item] {
        self.0.dfg.items()
    }
}

impl Hash for Block {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.items().hash(state);
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        self.items() == other.items()
    }
}

impl Eq for Block {}

impl Borrow<[Item]> for Block {
    fn borrow(&self) -> &[Item] {
        self.items()
    }
}

/// The block store: a thread-safe map from a block's items to its
/// [`Dfg`] and reachability closure.
///
/// The key is the item sequence itself, so a lookup never returns an
/// artifact built from other items (two blocks whose items differ only
/// in a field no label prints get two artifacts) and formats no label.
///
/// [`DfgCache::new`] is unbounded (one optimization's, or one batch
/// run's, working set); [`DfgCache::bounded`] caps the entry count with
/// the least-recently-used eviction of an [`Lru`], which is what a
/// long-lived `gpa serve` process needs to keep its resident size finite
/// under arbitrary traffic.
///
/// Hit/miss/eviction counters feed the pipeline's metrics report.
pub struct DfgCache {
    blocks: Mutex<Lru<Block, ()>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for DfgCache {
    fn default() -> DfgCache {
        DfgCache::bounded(usize::MAX)
    }
}

impl fmt::Debug for DfgCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DfgCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evicted", &self.evicted())
            .finish()
    }
}

impl DfgCache {
    /// An empty, unbounded store.
    pub fn new() -> DfgCache {
        DfgCache::default()
    }

    /// An empty store holding at most `max_entries` artifacts, evicting
    /// the least recently used beyond that.
    pub fn bounded(max_entries: usize) -> DfgCache {
        DfgCache {
            blocks: Mutex::new(Lru::new(CacheBudget::bounded(max_entries, u64::MAX))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of lookups answered from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to build the artifact.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of artifacts evicted to stay under the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.lock().evicted()
    }

    /// Number of artifacts currently resident.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<Block, ()>> {
        self.blocks.lock().expect("dfg cache poisoned")
    }

    /// The artifact built from exactly `items`, marked most recently
    /// used, if the store holds it.
    fn find(blocks: &mut Lru<Block, ()>, items: &[Item]) -> Option<Arc<BlockArtifact>> {
        blocks.get(items).map(|(block, ())| Arc::clone(&block.0))
    }

    /// Returns the artifact built from `items`, building and publishing
    /// it on first sight, and whether the store already held it.
    pub(crate) fn get_or_build(&self, items: &[Item]) -> (Arc<BlockArtifact>, bool) {
        if let Some(found) = DfgCache::find(&mut self.lock(), items) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (found, true);
        }
        // Build outside the lock: duplicate work on a race is cheaper
        // than serializing every construction behind one mutex.
        let built = Arc::new(BlockArtifact::build(items));
        let mut blocks = self.lock();
        if let Some(rival) = DfgCache::find(&mut blocks, items) {
            // A racing builder published first; adopt its artifact.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (rival, true);
        }
        blocks.insert(Block(Arc::clone(&built)), (), 0);
        self.misses.fetch_add(1, Ordering::Relaxed);
        (built, false)
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
    // The salt names the optimizer's output function: a change that moves
    // any output byte for some input must bump it, or a `--cache-dir`
    // written by an older build keeps serving the older result.
    h.write(b"gpa-image-key/3");
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
    // `Off` adds nothing: disabled alias analysis is the pipeline as it
    // was before the knob existed, so its key kept that shape (every key
    // still moves with the salt).
    match config.alias {
        crate::optimizer::AliasLevel::Off => {}
        crate::optimizer::AliasLevel::Stack => h.write(b"alias/stack"),
    }
    // The same shape for the per-round pattern budget: the default adds
    // nothing, a request-tuned budget (a `gpa serve` knob) gets its own
    // key space because an exhausted budget changes which candidates a
    // round can see. The `deadline` knob is deliberately *not* hashed —
    // it is wall-clock dependent, and deadline-stopped runs are never
    // cached.
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
        let (first, found) = cache.get_or_build(&a);
        assert!(!found);
        let (second, found) = cache.get_or_build(&a);
        assert!(found);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // A different block misses.
        let b = items("mov r0, #7");
        assert!(!cache.get_or_build(&b).1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cached_artifact_equals_direct_build() {
        let a = items("ldr r3, [r1]!\nsub r2, r2, r3\nadd r4, r2, #4");
        let cache = DfgCache::new();
        let (cached, _) = cache.get_or_build(&a);
        assert_eq!(*cached, BlockArtifact::build(&a));
    }

    /// The store is keyed by the items themselves: two blocks whose items
    /// differ only in a field no label prints (the `rd` a `cmp` ignores)
    /// get two artifacts, each built from its own items, where a key
    /// formed from their labels would take them for one block.
    #[test]
    fn blocks_that_differ_only_in_unprinted_fields_get_their_own_artifacts() {
        use gpa_arm::{Cond, DpOp, Instruction, Operand2, Reg};
        let cmp = |rd: u8| {
            Item::Insn(Instruction::DataProc {
                cond: Cond::Al,
                op: DpOp::Cmp,
                set_flags: true,
                rd: Reg::r(rd),
                rn: Reg::r(1),
                op2: Operand2::Imm(0),
            })
        };
        let tail = items("moveq r0, #1");
        let a = [vec![cmp(0)], tail.clone()].concat();
        let b = [vec![cmp(5)], tail].concat();
        assert_ne!(a, b);
        assert_eq!(
            a.iter().map(Item::mining_label).collect::<Vec<_>>(),
            b.iter().map(Item::mining_label).collect::<Vec<_>>(),
        );
        let cache = DfgCache::new();
        let (from_a, _) = cache.get_or_build(&a);
        let (from_b, found) = cache.get_or_build(&b);
        assert!(!found, "a block with other items must not be found");
        assert!(!Arc::ptr_eq(&from_a, &from_b));
        assert_eq!(from_a.dfg.items(), a.as_slice());
        assert_eq!(from_b.dfg.items(), b.as_slice());
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 2));
        assert!(Arc::ptr_eq(&cache.get_or_build(&a).0, &from_a));
        assert!(Arc::ptr_eq(&cache.get_or_build(&b).0, &from_b));
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
        let _ = cache.get_or_build(&a);
        let _ = cache.get_or_build(&b);
        // Touch `a` so `b` becomes the LRU victim when `c` arrives.
        let _ = cache.get_or_build(&a);
        let _ = cache.get_or_build(&c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evicted(), 1);
        // `a` survived (hit), `b` was evicted (miss rebuilds it).
        let hits_before = cache.hits();
        let _ = cache.get_or_build(&a);
        assert_eq!(cache.hits(), hits_before + 1);
        let misses_before = cache.misses();
        let _ = cache.get_or_build(&b);
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
