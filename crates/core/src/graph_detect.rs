//! Graph-based fragment detection: DgSpan and Edgar candidates.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpa_cfg::{FunctionCode, Item, Program};
use gpa_dfg::{AliasOracle, Dfg, LabelMode};
use gpa_mining::embed::Embedding;
use gpa_mining::graph::InputGraph;
use gpa_mining::miner::{
    mine_streaming, non_overlapping_count_traced, Config, Frequent, GrowDecision, Support,
};
use gpa_trace::{NoopTracer, Tracer, Value};

use crate::artifact::{BlockArtifact, DfgCache, RegionState, RoundState};
use crate::candidate::{classify_body, Candidate, ExtractionKind, Occurrence, RelaxedPair};
use crate::cost::saved_words;
use crate::optimizer::AliasLevel;
use crate::trace::trace_equivalent;

/// Detection configuration for the graph-based methods.
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Support counting: `Graphs` = DgSpan, `Embeddings` = Edgar.
    pub support: Support,
    /// Node-label scheme (exact for extraction; canonical only estimates).
    pub label_mode: LabelMode,
    /// Fragment size cap in nodes.
    pub max_nodes: usize,
    /// Pattern-visit budget per mining round (bounds the exponential
    /// lattice of large repetitive blocks; see
    /// [`gpa_mining::miner::Config::max_patterns`]).
    pub max_patterns: usize,
    /// Telemetry sink for detection counters, the per-round candidate
    /// table and degradation events. Tracing never changes which
    /// candidate wins, so the tracer is excluded from
    /// [`crate::artifact::image_cache_key`].
    pub tracer: Arc<dyn Tracer>,
    /// Memory disambiguation for the region DFGs. Under
    /// [`AliasLevel::Stack`] the abstract interpreter builds a second,
    /// *relaxed* DFG per region with the MEM edges between provably
    /// disjoint stack accesses dropped. Mining still counts on the
    /// conservative DFG (dropped edges are context-dependent, so they
    /// would break cross-region isomorphism and fragment connectivity);
    /// the relaxed graph only widens what is *extractable* — convexity,
    /// cross-jump exit-closedness, and the contraction probe — so the
    /// candidate universe under `Stack` is a superset of `Off`'s. Every
    /// winning candidate carries the dropped pairs as claims for the
    /// validator.
    pub alias: AliasLevel,
}

impl Default for GraphConfig {
    fn default() -> GraphConfig {
        GraphConfig {
            support: Support::Embeddings,
            label_mode: LabelMode::Exact,
            max_nodes: 16,
            max_patterns: crate::optimizer::DEFAULT_MAX_PATTERNS,
            tracer: Arc::new(NoopTracer),
            alias: AliasLevel::default(),
        }
    }
}

/// A region with its provenance, aligned with the DFG/graph indices.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RegionInfo {
    pub function: usize,
    pub start: usize,
    pub len: usize,
    pub items: Vec<Item>,
}

pub(crate) fn region_infos(program: &Program) -> Vec<RegionInfo> {
    program
        .functions
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| function_region_infos(fi, f))
        .collect()
}

/// The regions of function `fi`, `f`.
pub(crate) fn function_region_infos(fi: usize, f: &FunctionCode) -> Vec<RegionInfo> {
    f.regions()
        .into_iter()
        .map(|r| RegionInfo {
            function: fi,
            start: r.start,
            len: r.items.len(),
            items: r.items.to_vec(),
        })
        .collect()
}

/// Projects the value-set abstract interpreter's verdicts on one
/// function (`analysis`, computed under `env`) onto one of its detection
/// regions: an [`AliasOracle`] whose slot `u` holds the based byte
/// intervals item `u` touches (entry-sp-relative, absolute, or
/// symbolic-pointer-relative) — or `None` when the interpreter could not
/// resolve every access of that item to a based interval.
///
/// Symbolic bases whose defining item lies inside the region carry the
/// def's region-relative index so [`AliasOracle::disjoint`] can refuse
/// pairs that straddle a redefinition of the base pointer.
pub(crate) fn region_oracle(
    info: &RegionInfo,
    analysis: &gpa_verify::AbsInt,
    env: &gpa_verify::AbsEnv,
) -> AliasOracle {
    use gpa_dfg::{AliasBase, AliasInterval};
    use gpa_verify::AccessBase;

    let slots = (0..info.len)
        .map(|u| {
            let state = analysis.before.get(info.start + u)?.as_ref()?;
            let accesses = gpa_verify::absint::resolved_accesses(state, &info.items[u], Some(env))?;
            Some(
                accesses
                    .iter()
                    .map(|a| AliasInterval {
                        base: match a.base {
                            AccessBase::Sp => AliasBase::Sp,
                            AccessBase::Abs => AliasBase::Abs,
                            AccessBase::Sym(sym) => AliasBase::Sym {
                                sym,
                                def: gpa_verify::absint::sym_def_index(sym)
                                    .filter(|&d| d >= info.start && d < info.start + info.len)
                                    .map(|d| d - info.start),
                            },
                        },
                        lo: a.lo,
                        hi: a.hi,
                    })
                    .collect(),
            )
        })
        .collect();
    AliasOracle { slots }
}

/// Computes, per function, whether `lr` is free to clobber (a `bl` may be
/// inserted anywhere). `lr` is *live* in a function when the function can
/// still read the entry value of `lr`: it contains a `bx lr`, or it
/// tail-branches into a function that does (cross-jump fragments carry the
/// `bx lr` of the leaf epilogues they merged, so liveness must propagate
/// backwards over `TailCall` edges to a fixpoint).
pub(crate) fn lr_free_functions(program: &Program) -> Vec<bool> {
    let index: std::collections::HashMap<&str, usize> = program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let mut live: Vec<bool> = program
        .functions
        .iter()
        .map(|f| {
            f.items.iter().any(|i| {
                matches!(
                    i,
                    Item::Insn(gpa_arm::Instruction::Bx { rm, .. }) if *rm == gpa_arm::Reg::LR
                )
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for (fi, f) in program.functions.iter().enumerate() {
            if live[fi] {
                continue;
            }
            let tail_live = f.items.iter().any(|i| {
                matches!(i, Item::TailCall { target, .. }
                    if index.get(target.as_str()).map(|&t| live[t]).unwrap_or(true))
            });
            if tail_live {
                live[fi] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    live.into_iter().map(|l| !l).collect()
}

/// Forward-reachability closure of a DFG as one bitset row per node.
///
/// Node sets are masks of `words` `u64` words, bit `v % 64` of word
/// `v / 64` standing for node `v`.
#[derive(Debug, PartialEq)]
pub(crate) struct Reach {
    words: usize,
    rows: Vec<u64>,
}

impl Reach {
    pub(crate) fn new(dfg: &Dfg) -> Reach {
        let n = dfg.node_count();
        let words = n.div_ceil(64).max(1);
        let mut rows = vec![0u64; n * words];
        // Edges only go forward in node order; sweep backwards.
        for u in (0..n).rev() {
            for e in dfg.succs(u) {
                let v = e.to;
                rows[u * words + v / 64] |= 1 << (v % 64);
                let (a, b) = rows.split_at_mut(u.max(v) * words);
                let (src, dst) = if u < v {
                    (&b[..words], &mut a[u * words..u * words + words])
                } else {
                    unreachable!("DFG edges point forward")
                };
                for w in 0..words {
                    dst[w] |= src[w];
                }
            }
        }
        Reach { words, rows }
    }

    fn row(&self, u: usize) -> &[u64] {
        &self.rows[u * self.words..(u + 1) * self.words]
    }

    /// An embedding's node set as a mask (node ids are below the node
    /// count, so the set has no significant words beyond the mask's).
    fn mask_of(&self, emb: &Embedding) -> Vec<u64> {
        let mut mask = vec![0u64; self.words];
        let set_words = emb.node_set().as_words();
        let n = set_words.len().min(self.words);
        mask[..n].copy_from_slice(&set_words[..n]);
        mask
    }

    /// The nodes reachable from any node of `members`.
    fn reach_out(&self, members: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.words];
        for (wi, &word) in members.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let u = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (o, &r) in out.iter_mut().zip(self.row(u)) {
                    *o |= r;
                }
            }
        }
        out
    }

    /// Convexity (Fig. 9): no path leaves `members` and comes back in,
    /// i.e. no node outside the set that the set reaches itself reaches
    /// into the set.
    fn convex(&self, members: &[u64]) -> bool {
        for (wi, (&out, &inside)) in self.reach_out(members).iter().zip(members).enumerate() {
            let mut outside = out & !inside;
            while outside != 0 {
                let w = wi * 64 + outside.trailing_zeros() as usize;
                outside &= outside - 1;
                if intersects(self.row(w), members) {
                    return false;
                }
            }
        }
        true
    }
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The occurrences kept so far in one region, as the contraction probe
/// sees them: each one's member mask and the mask of nodes it reaches.
///
/// Contracting convex occurrences is cyclic exactly when the set-level
/// relation "some member of A reaches some member of B" has a cycle. The
/// closure is that of the DFG, the transitive reduction of the same
/// pairwise conflicts (minus the relaxed MEM pairs) that
/// [`crate::extract::contract_region_with`] orders units by, so this
/// decides what that rewrite would without building it.
#[derive(Default)]
struct KeptInRegion {
    members: Vec<Vec<u64>>,
    reach_out: Vec<Vec<u64>>,
}

impl KeptInRegion {
    /// Keeps a convex occurrence (`members`) unless contracting it with
    /// the ones already kept would be cyclic. Those are acyclic among
    /// themselves, so any new cycle runs through the newcomer: it is
    /// dropped iff a kept occurrence it reaches, directly or through
    /// other kept occurrences, reaches back into it.
    fn try_keep(&mut self, reach: &Reach, members: Vec<u64>) -> bool {
        let out = reach.reach_out(&members);
        let mut reached = out.clone();
        let mut absorbed = vec![false; self.members.len()];
        loop {
            let mut grew = false;
            for (i, kept) in self.members.iter().enumerate() {
                if absorbed[i] || !intersects(&reached, kept) {
                    continue;
                }
                if intersects(&self.reach_out[i], &members) {
                    return false;
                }
                absorbed[i] = true;
                grew = true;
                for (r, &o) in reached.iter_mut().zip(&self.reach_out[i]) {
                    *r |= o;
                }
            }
            if !grew {
                break;
            }
        }
        self.members.push(members);
        self.reach_out.push(out);
        true
    }
}

/// Cap on embeddings validated per pattern: beyond this many occurrences
/// the benefit is enormous anyway, and validation cost must stay bounded.
const MAX_VALIDATED_EMBEDDINGS: usize = 512;

/// Builds the best extractable candidate from one frequent fragment, or
/// `None`.
fn candidate_from_frequent(
    freq: &Frequent,
    regions: &[RegionState],
    lr_free: &[bool],
    tracer: &dyn Tracer,
) -> Option<Candidate> {
    if freq.embeddings.len() < 2 {
        return None;
    }
    if freq.embeddings.len() > MAX_VALIDATED_EMBEDDINGS {
        // Occurrences beyond the cap are silently never extracted;
        // record how many a consumer of this pattern loses sight of.
        tracer.event(
            "detect.validation_truncated",
            &[
                ("pattern_nodes", Value::from(freq.pattern.node_count())),
                ("embeddings", Value::from(freq.embeddings.len())),
                ("validated", Value::from(MAX_VALIDATED_EMBEDDINGS)),
            ],
        );
    }
    // Body: the first embedding's nodes in program order.
    let first = &freq.embeddings[0];
    let first_info = &regions[first.graph as usize].info;
    let first_nodes = first.sorted_nodes();
    let body: Vec<Item> = first_nodes
        .iter()
        .map(|&n| first_info.items[n as usize].clone())
        .collect();
    let kind = classify_body(&body)?;

    // Validate each embedding site (bounded; see the constant above).
    // Extractability — convexity and exit-closedness — is checked on the
    // alias-relaxed graph when one exists: fewer edges means weakly less
    // reachability, so everything extractable conservatively stays
    // extractable and provably-disjoint stack traffic stops blocking.
    let check_of = |graph: u32| -> &BlockArtifact { regions[graph as usize].extractability() };
    let mut valid: Vec<&Embedding> = Vec::new();
    for emb in freq.embeddings.iter().take(MAX_VALIDATED_EMBEDDINGS) {
        let info = &regions[emb.graph as usize].info;
        let check = check_of(emb.graph);
        let seq: Vec<Item> = emb
            .sorted_nodes()
            .iter()
            .map(|&n| info.items[n as usize].clone())
            .collect();
        if !trace_equivalent(&body, &seq) {
            continue;
        }
        let ok = match kind {
            ExtractionKind::Procedure { .. } if !lr_free[info.function] => false,
            ExtractionKind::Procedure { .. } => {
                // Convexity (Fig. 9), on the precomputed reachability
                // closure.
                check.reach.convex(&check.reach.mask_of(emb))
            }
            ExtractionKind::CrossJump => {
                // Exit-closed: no direct edge from a fragment node to an
                // external node (the fragment must be schedulable last).
                let in_set = |n: usize| emb.node_set().contains(n as u32);
                !check
                    .dfg
                    .edges()
                    .iter()
                    .any(|e| in_set(e.from) && !in_set(e.to))
            }
        };
        if ok {
            valid.push(emb);
        } else {
            // Convexity / exit-closedness rejections: the headroom a
            // finer alias analysis could reclaim.
            tracer.count("detect.embedding_unextractable", 1);
        }
    }
    if valid.len() < 2 {
        return None;
    }

    // Occurrence selection: a maximum set of non-overlapping embeddings.
    // DgSpan and Edgar differ only in *frequency counting* during the
    // mining search (§4.2: fragments occurring several times in one block
    // look infrequent to DgSpan); once a fragment is selected, the
    // extraction machinery takes every non-overlapping occurrence for
    // both methods.
    let selected: Vec<&Embedding> = {
        let owned: Vec<Embedding> = valid.iter().map(|e| (*e).clone()).collect();
        let (_, chosen) = non_overlapping_count_traced(&owned, tracer);
        chosen.into_iter().map(|i| valid[i]).collect()
    };

    // Per-region compatibility: simultaneous contractions must stay
    // acyclic. Greedily keep occurrences in order, dropping incompatible
    // ones. The probe reads the same graph convexity was checked on, so
    // it ignores exactly the memory conflicts the oracle relaxed — the
    // exemptions `extract::apply` will use, and which the validator
    // re-derives from the candidate's claims.
    let kept: Vec<&Embedding> = if matches!(kind, ExtractionKind::Procedure { .. }) {
        let mut by_region: BTreeMap<u32, KeptInRegion> = BTreeMap::new();
        selected
            .into_iter()
            .filter(|e| {
                let reach = &check_of(e.graph).reach;
                let region = by_region.entry(e.graph).or_default();
                let keep = region.try_keep(reach, reach.mask_of(e));
                if !keep {
                    tracer.count("detect.probe_dropped", 1);
                }
                keep
            })
            .collect()
    } else {
        selected
    };
    if kept.len() < 2 {
        return None;
    }

    let body_words: usize = body.iter().map(Item::encoded_words).sum();
    let saved = saved_words(body_words, kept.len(), kind);
    if saved <= 0 {
        return None;
    }
    let occurrences: Vec<Occurrence> = kept
        .iter()
        .map(|e| {
            let info = &regions[e.graph as usize].info;
            Occurrence {
                function: info.function,
                region_start: info.start,
                region_len: info.len,
                item_indices: e
                    .sorted_nodes()
                    .iter()
                    .map(|&n| info.start + n as usize)
                    .collect(),
            }
        })
        .collect();
    // Every MEM edge the alias oracle dropped in a region that hosts a
    // kept occurrence becomes an explicit claim for the validator to
    // re-derive (regions can host several occurrences; dedup).
    let mut claims: std::collections::BTreeSet<RelaxedPair> = std::collections::BTreeSet::new();
    for e in &kept {
        let region = &regions[e.graph as usize];
        let Some(overlay) = &region.overlay else {
            continue;
        };
        for &(u, v) in &overlay.relaxed {
            claims.insert(RelaxedPair {
                function: region.info.function,
                earlier: region.info.start + u,
                later: region.info.start + v,
            });
        }
    }
    Some(Candidate {
        body,
        occurrences,
        kind,
        saved,
        relaxed: claims.into_iter().collect(),
    })
}

/// The strict total preference order on candidates: more savings, then
/// smaller body, then earliest first occurrence. A full tie means the two
/// candidates rewrite the same first site with the same-size body for the
/// same benefit; the incumbent wins.
fn better(c: &Candidate, b: &Candidate) -> bool {
    c.saved > b.saved
        || (c.saved == b.saved && c.body_words() < b.body_words())
        || (c.saved == b.saved
            && c.body_words() == b.body_words()
            && (&c.occurrences[0].function, &c.occurrences[0].item_indices)
                < (&b.occurrences[0].function, &b.occurrences[0].item_indices))
}

/// Shared, read-only state of one detection round's lattice search.
struct SearchCtx<'a> {
    regions: &'a [RegionState],
    lr_free: &'a [bool],
    region_live: &'a [bool],
    graphs: &'a [InputGraph],
    max_body_words: i64,
    tracer: &'a dyn Tracer,
}

/// The stable lowercase mechanism name used in trace events.
pub(crate) fn kind_name(kind: ExtractionKind) -> &'static str {
    match kind {
        ExtractionKind::Procedure { .. } => "procedure",
        ExtractionKind::CrossJump => "cross_jump",
    }
}

/// A line of the per-round candidate table: enough of an evaluated
/// candidate to explain, in the trace, why the winner won.
#[derive(Clone, Debug)]
struct CandidateSummary {
    saved: i64,
    body_words: usize,
    occurrences: usize,
    kind: &'static str,
    seed: usize,
}

impl CandidateSummary {
    fn of(c: &Candidate, seed: usize) -> CandidateSummary {
        CandidateSummary {
            saved: c.saved,
            body_words: c.body_words(),
            occurrences: c.occurrences.len(),
            kind: kind_name(c.kind),
            seed,
        }
    }
}

/// How many candidate-table lines each round's trace carries.
const CANDIDATE_TABLE_LEN: usize = 5;

/// A search's running result: its best candidate and — when tracing —
/// its slice of the candidate table.
#[derive(Default)]
struct RunningBest {
    candidate: Option<Candidate>,
    top: Vec<CandidateSummary>,
}

impl SearchCtx<'_> {
    // The cross-jump benefit k·m − k − m is the most generous extraction
    // kind and is increasing in both k (occurrences) and m (body words),
    // so evaluating it at upper bounds of k and m bounds every candidate
    // derivable from a pattern (and, for the subtree bound, from any of
    // its descendants).
    fn benefit_bound(k: i64, m: i64) -> i64 {
        k * m - k - m
    }

    /// Upper bound on disjoint occurrences of ANY pattern with ≥ `m`
    /// nodes embedded in the given graphs: disjoint embeddings of size m
    /// tile a graph, so at most ⌊|V|/m⌋ fit per graph.
    fn tiling_bound(&self, f: &Frequent, m: usize) -> i64 {
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0i64;
        for e in &f.embeddings {
            if seen.insert(e.graph) {
                total += (self.graphs[e.graph as usize].node_count() / m) as i64;
            }
        }
        total.min(f.embeddings.len() as i64)
    }

    /// The streaming visitor body; `seed` is the index of the seed whose
    /// subtree is being grown. Bounds are compared against
    /// `max(best, 1)` *inclusively*, so candidates tying the incumbent
    /// are still evaluated — this keeps the tie-break total.
    fn visit(&self, f: &Frequent, seed: usize, best: &mut RunningBest) -> GrowDecision {
        let m = f.pattern.node_count();
        // Any real candidate saves at least one word.
        let target = best.candidate.as_ref().map(|b| b.saved).unwrap_or(0).max(1);
        // §3.5 PA-specific lattice pruning: an embedding can only ever be
        // extracted if its region admits *some* mechanism (see
        // region_live in best_candidate_instrumented); branches of the
        // lattice supported only by dead regions are pruned.
        let k_live = f
            .embeddings
            .iter()
            .filter(|e| self.region_live[e.graph as usize])
            .count();
        if k_live < 2 {
            self.tracer.count("detect.prune_dead_region", 1);
            return GrowDecision::SkipChildren;
        }
        let k_ub = self.tiling_bound(f, m);
        // No descendant (m′ ≥ m, occurrences ≤ k_ub since disjoint
        // counts are antimonotone) can reach the target: prune.
        if Self::benefit_bound(k_ub, self.max_body_words) < target {
            self.tracer.count("detect.prune_tiling_bound", 1);
            return GrowDecision::SkipChildren;
        }
        // This very pattern cannot reach the target: skip the expensive
        // validation but keep growing.
        if Self::benefit_bound(k_ub, 2 * m as i64) >= target {
            self.tracer.count("detect.candidates_evaluated", 1);
            if let Some(c) = candidate_from_frequent(f, self.regions, self.lr_free, self.tracer) {
                if self.tracer.enabled() {
                    best.top.push(CandidateSummary::of(&c, seed));
                    best.top.sort_by_key(|s| (-s.saved, s.body_words, s.seed));
                    best.top.truncate(CANDIDATE_TABLE_LEN);
                }
                let wins = match &best.candidate {
                    None => true,
                    Some(b) => better(&c, b),
                };
                if wins {
                    best.candidate = Some(c);
                }
            }
        } else {
            self.tracer.count("detect.skip_eval_benefit", 1);
        }
        GrowDecision::Continue
    }
}

/// Finds the best extractable candidate in the program under graph-based
/// detection, or `None` when no extraction shrinks the program.
pub fn best_candidate(program: &Program, config: &GraphConfig) -> Option<Candidate> {
    best_candidate_instrumented(program, config, None, &mut RoundState::default())
}

/// [`best_candidate`] on detection inputs carried in `state` from the
/// previous round: the state first rebuilds what the program's rewrites
/// since then invalidated (inside a `front` span, with `cache` serving
/// the rebuilt regions' conservative artifacts), then the lattice
/// search, MIS overlap resolution included, runs inside a `mine` span.
///
/// The search ([`mine_streaming`]) grows the seeds of the DFS-code
/// lattice in seed order under one `max_patterns` budget for the whole
/// round, carrying one incumbent from seed to seed.
pub(crate) fn best_candidate_instrumented(
    program: &Program,
    config: &GraphConfig,
    cache: Option<&DfgCache>,
    state: &mut RoundState,
) -> Option<Candidate> {
    // Mining always counts on the conservative DFGs: alias verdicts are
    // context-dependent, so relaxed edges would break cross-region
    // isomorphism and fragment connectivity (shrinking the candidate
    // universe instead of growing it). Under `Stack` each region's
    // relaxed overlay decides extractability instead (convexity,
    // exit-closedness, contraction).
    state.refresh(program, config, cache);
    let regions = &state.regions;
    let graphs = &state.graphs;
    let lr_free = lr_free_functions(program);
    // A region is "live" when it could ever host an extraction: its
    // function's lr is clobberable (procedures), or its return
    // participates in a connected fragment (cross-jumps).
    let region_live: Vec<bool> = regions
        .iter()
        .map(|region| {
            if lr_free[region.info.function] {
                return true;
            }
            let dfg = &region.artifact.dfg;
            let n = dfg.node_count();
            n > 0
                && region.info.items[n - 1].is_return()
                && (dfg.in_degree(n - 1) > 0 || dfg.out_degree(n - 1) > 0)
        })
        .collect();
    let ctx = SearchCtx {
        regions,
        lr_free: &lr_free,
        region_live: &region_live,
        graphs,
        max_body_words: 2 * config.max_nodes as i64, // fused calls = 2 words
        tracer: &*config.tracer,
    };
    let mine_config = Config {
        min_support: 2,
        support: config.support,
        max_nodes: config.max_nodes,
        max_patterns: config.max_patterns,
        tracer: config.tracer.clone(),
        ..Config::default()
    };
    let mine_span = gpa_trace::span(&*config.tracer, "mine");
    let mut best = RunningBest::default();
    mine_streaming(graphs, &mine_config, &mut |f, seed| {
        ctx.visit(f, seed, &mut best)
    });
    drop(mine_span);
    let RunningBest {
        candidate: winner,
        top: table,
    } = best;
    if config.tracer.enabled() {
        // `visit` keeps the table sorted and truncated.
        for (rank, s) in table.iter().enumerate() {
            config.tracer.event(
                "detect.candidate",
                &[
                    ("rank", Value::from(rank + 1)),
                    ("saved", Value::Int(s.saved)),
                    ("body_words", Value::from(s.body_words)),
                    ("occurrences", Value::from(s.occurrences)),
                    ("kind", Value::from(s.kind)),
                    ("seed", Value::from(s.seed)),
                ],
            );
        }
        if let Some(winner) = &winner {
            // Explain the win against the strongest runner-up in the
            // table (the table order mirrors `better`, so the winner is
            // line 1 and the runner-up line 2).
            let runner_up = table.get(1);
            let why = match runner_up {
                None => "only_candidate",
                Some(r) if winner.saved > r.saved => "more_savings",
                Some(r) if winner.body_words() < r.body_words => "smaller_body",
                Some(_) => "earlier_site",
            };
            config.tracer.event(
                "detect.winner",
                &[
                    ("saved", Value::Int(winner.saved)),
                    ("body_words", Value::from(winner.body_words())),
                    ("occurrences", Value::from(winner.occurrences.len())),
                    ("kind", Value::from(kind_name(winner.kind))),
                    ("why", Value::from(why)),
                    (
                        "margin",
                        Value::Int(winner.saved - runner_up.map_or(winner.saved, |r| r.saved)),
                    ),
                ],
            );
        }
    }
    winner
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_cfg::{FunctionCode, LabelId};

    fn insn(text: &str) -> Item {
        Item::Insn(text.parse().unwrap())
    }

    /// A program with one function holding the paper's running example
    /// plus a return, and a second copy in another function.
    fn running_example_program() -> Program {
        let block: Vec<Item> = [
            "ldr r3, [r1]!",
            "sub r2, r2, r3",
            "add r4, r2, #4",
            "ldr r3, [r1]!",
            "sub r2, r2, r3",
            "ldr r3, [r1]!",
            "add r4, r2, #4",
        ]
        .iter()
        .map(|s| insn(s))
        .collect();
        let mut items_a = vec![Item::Insn("push {r4, lr}".parse().unwrap())];
        items_a.extend(block.iter().cloned());
        items_a.push(Item::Insn("pop {r4, pc}".parse().unwrap()));
        let f_a = FunctionCode {
            name: "a".into(),
            address_taken: false,
            items: items_a,
            label_count: 0,
        };
        let mut items_b = vec![Item::Insn("push {r4, lr}".parse().unwrap())];
        items_b.extend(block.iter().cloned());
        items_b.push(Item::Insn("pop {r4, pc}".parse().unwrap()));
        let f_b = FunctionCode {
            name: "b".into(),
            address_taken: false,
            items: items_b,
            label_count: 0,
        };
        let _ = LabelId(0);
        Program {
            functions: vec![f_a, f_b],
            data: Vec::new(),
            data_symbols: Vec::new(),
            code_base: 0x8000,
            data_base: 0x2_0000,
            entry: "a".into(),
        }
    }

    #[test]
    fn edgar_finds_profitable_fragment() {
        let program = running_example_program();
        let cand = best_candidate(
            &program,
            &GraphConfig {
                support: Support::Embeddings,
                ..GraphConfig::default()
            },
        )
        .expect("four occurrences of a three-node fragment are profitable");
        assert!(cand.saved > 0);
        assert!(cand.occurrences.len() >= 2);
        // Occurrences never overlap.
        for w in cand.occurrences.windows(2) {
            if w[0].function == w[1].function {
                let a: std::collections::HashSet<_> = w[0].item_indices.iter().collect();
                assert!(w[1].item_indices.iter().all(|i| !a.contains(i)));
            }
        }
    }

    #[test]
    fn cached_search_matches_uncached_and_hits_on_reuse() {
        let program = running_example_program();
        let config = GraphConfig {
            support: Support::Embeddings,
            ..GraphConfig::default()
        };
        let uncached = best_candidate(&program, &config);
        let cache = DfgCache::new();
        let first = best_candidate_instrumented(
            &program,
            &config,
            Some(&cache),
            &mut RoundState::default(),
        );
        let second = best_candidate_instrumented(
            &program,
            &config,
            Some(&cache),
            &mut RoundState::default(),
        );
        assert_eq!(first, uncached);
        assert_eq!(second, uncached);
        // Both regions are identical blocks, so even the cold pass hits
        // once; the warm pass hits on every region.
        assert!(cache.hits() >= 2, "hits: {}", cache.hits());
    }

    #[test]
    fn edgar_beats_dgspan_on_intra_block_repeats() {
        let program = running_example_program();
        let edgar = best_candidate(
            &program,
            &GraphConfig {
                support: Support::Embeddings,
                ..GraphConfig::default()
            },
        )
        .map(|c| c.saved)
        .unwrap_or(0);
        let dgspan = best_candidate(
            &program,
            &GraphConfig {
                support: Support::Graphs,
                ..GraphConfig::default()
            },
        )
        .map(|c| c.saved)
        .unwrap_or(0);
        assert!(
            edgar >= dgspan,
            "edgar {edgar} must be at least dgspan {dgspan}"
        );
    }

    /// Runs the greedy per-region filter of `candidate_from_frequent`
    /// over a family of disjoint node sets, holding the closure probe to
    /// the rewrite it stands in for: a set is convex iff contracting it
    /// alone succeeds, and a convex set is kept iff contracting it with
    /// the sets kept before it succeeds. `relaxed` are the MEM pairs
    /// `artifact` dropped. Returns how many sets were dropped for a
    /// cycle.
    fn probe_family(
        items: &[Item],
        artifact: &BlockArtifact,
        relaxed: &[(usize, usize)],
        family: &[Vec<usize>],
    ) -> usize {
        use crate::extract::contract_region_with;
        let exempt: std::collections::HashSet<(usize, usize)> = relaxed.iter().copied().collect();
        let reach = &artifact.reach;
        let mut probe = KeptInRegion::default();
        let mut kept: Vec<Vec<usize>> = Vec::new();
        let mut dropped = 0;
        for set in family {
            let mut members = vec![0u64; reach.words];
            for &n in set {
                members[n / 64] |= 1 << (n % 64);
            }
            let convex = reach.convex(&members);
            let alone = contract_region_with(items, std::slice::from_ref(set), "f", &exempt);
            assert_eq!(convex, alone.is_some(), "convexity of {set:?} in {items:?}");
            if !convex {
                continue;
            }
            let mut with = kept.clone();
            with.push(set.clone());
            let rewrite = contract_region_with(items, &with, "f", &exempt).is_some();
            assert_eq!(
                probe.try_keep(reach, members),
                rewrite,
                "probe disagrees on {with:?} in {items:?}"
            );
            if rewrite {
                kept.push(set.clone());
            } else {
                dropped += 1;
            }
        }
        dropped
    }

    #[test]
    fn closure_probe_drops_mutually_dependent_convex_occurrences() {
        // 0 → 3 and 1 → 2: {0, 2} and {1, 3} are each convex, but each
        // feeds the other, so contracting both is cyclic.
        let items: Vec<Item> = [
            "mov r0, #1",
            "mov r1, #2",
            "add r2, r1, #0",
            "add r3, r0, #0",
        ]
        .iter()
        .map(|s| insn(s))
        .collect();
        let artifact = BlockArtifact::build(&items, LabelMode::Exact);
        assert_eq!(
            probe_family(&items, &artifact, &[], &[vec![0, 2], vec![1, 3]]),
            1
        );
        assert_eq!(
            probe_family(&items, &artifact, &[], &[vec![0, 3], vec![1, 2]]),
            0
        );
        // 0 → 3, 1 → 4 and 2 → 5: {0, 5} feeds {1, 3} feeds {2, 4} feeds
        // {0, 5}. No two of them depend on each other both ways; the
        // third closes the cycle only through the other two.
        let items: Vec<Item> = [
            "mov r0, #1",
            "mov r1, #1",
            "mov r2, #1",
            "add r3, r0, #0",
            "add r4, r1, #0",
            "add r5, r2, #0",
        ]
        .iter()
        .map(|s| insn(s))
        .collect();
        let artifact = BlockArtifact::build(&items, LabelMode::Exact);
        let ring = [vec![0, 5], vec![1, 3], vec![2, 4]];
        assert_eq!(probe_family(&items, &artifact, &[], &ring), 1);
    }

    /// A random region of 6–18 loads, stores and ALU ops over a few
    /// registers, and an alias oracle that resolves its stack accesses.
    fn random_region(rng: &mut rand::rngs::StdRng) -> (Vec<Item>, AliasOracle) {
        use gpa_dfg::{AliasBase, AliasInterval};
        use rand::Rng;
        let n = rng.gen_range(6..19usize);
        let mut items = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let (a, b, c) = (
                rng.gen_range(0..3u32),
                rng.gen_range(0..3u32),
                rng.gen_range(0..3u32),
            );
            let off = 4 * rng.gen_range(0..4i64);
            let stack = Some(vec![AliasInterval {
                base: AliasBase::Sp,
                lo: off,
                hi: off + 4,
            }]);
            let (text, slot) = match rng.gen_range(0..8u32) {
                0 => (format!("ldr r{a}, [sp, #{off}]"), stack),
                1 => (format!("str r{a}, [sp, #{off}]"), stack),
                2 => (format!("ldr r{a}, [r{b}]"), None),
                3 => (format!("str r{a}, [r{b}]"), None),
                4 => (format!("add r{a}, r{b}, r{c}"), None),
                5 => (format!("sub r{a}, r{b}, #1"), None),
                6 => (format!("cmp r{a}, r{b}"), None),
                _ => (format!("moveq r{a}, #{off}"), None),
            };
            items.push(insn(&text));
            slots.push(slot);
        }
        (items, AliasOracle { slots })
    }

    /// Random regions of loads, stores and ALU ops over a few registers,
    /// on conservative and oracle-relaxed artifacts: the closure probe
    /// agrees with `contract_region_with` on every family.
    #[test]
    fn closure_probe_matches_contraction_on_random_regions() {
        use crate::artifact::Overlay;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x70726f6265);
        let mut dropped = 0;
        let mut relaxed_pairs = 0;
        for _ in 0..300 {
            let (items, oracle) = random_region(&mut rng);
            let n = items.len();
            let conservative = Arc::new(BlockArtifact::build(&items, LabelMode::Exact));
            let overlay = Overlay::build(&conservative, oracle);
            relaxed_pairs += overlay.relaxed.len();
            for _ in 0..4 {
                let mut free: Vec<usize> = (0..n).collect();
                let mut family = Vec::new();
                for _ in 0..rng.gen_range(2..7usize) {
                    let mut set = Vec::new();
                    for _ in 0..rng.gen_range(1..4usize) {
                        if !free.is_empty() {
                            set.push(free.swap_remove(rng.gen_range(0..free.len())));
                        }
                    }
                    set.sort_unstable();
                    if !set.is_empty() {
                        family.push(set);
                    }
                }
                dropped += probe_family(&items, &conservative, &[], &family);
                dropped += probe_family(&items, &overlay.artifact, &overlay.relaxed, &family);
            }
        }
        assert!(relaxed_pairs > 0, "the oracle must relax some pairs");
        assert!(dropped > 0, "some families must need a drop");
    }

    /// On the same random regions and oracles, an overlay — the shared
    /// conservative artifact when the pre-scan finds no disjoint pair, a
    /// relaxed graph on the conservative labels otherwise — equals a
    /// full build against the oracle: DFG edges and labels, closure
    /// rows, relaxed pairs, and the pre-scan's examined and disjoint
    /// counts.
    #[test]
    fn shared_or_built_overlay_equals_a_full_oracle_build() {
        use crate::artifact::Overlay;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x70726f6265);
        let (mut shared, mut built) = (0, 0);
        for _ in 0..300 {
            let (items, oracle) = random_region(&mut rng);
            let full =
                gpa_dfg::build_dfg_from_items_with("", 0, &items, LabelMode::Exact, Some(&oracle));
            let conservative = Arc::new(BlockArtifact::build(&items, LabelMode::Exact));
            let overlay = Overlay::build(&conservative, oracle);
            assert_eq!(overlay.artifact.dfg, full.dfg, "{items:?}");
            assert_eq!(overlay.artifact.reach, Reach::new(&full.dfg), "{items:?}");
            assert_eq!(overlay.relaxed, full.relaxed, "{items:?}");
            assert_eq!(overlay.stats, full.stats, "{items:?}");
            if Arc::ptr_eq(&overlay.artifact, &conservative) {
                assert!(full.relaxed.is_empty(), "{items:?}");
                shared += 1;
            } else {
                assert!(!full.relaxed.is_empty(), "{items:?}");
                built += 1;
            }
        }
        assert!(shared > 0 && built > 0, "{shared} shared, {built} built");
    }
}
