//! Graph-based fragment detection: DgSpan and Edgar candidates.

use gpa_arm::defuse::conflicts;
use gpa_cfg::{FunctionCode, Item, Program};
use gpa_dfg::{AliasOracle, Dfg};
use gpa_mining::embed::Embedding;
use gpa_mining::graph::InputGraph;
use gpa_mining::miner::{
    mine_streaming, non_overlapping_count_traced, Config, Fragment, GrowDecision, Support,
};
use gpa_trace::{Tracer, Value};

use crate::artifact::{BlockArtifact, DfgCache, RegionState, RoundState};
use crate::candidate::{
    classify_body, item_extractable, Candidate, ExtractionKind, Occurrence, RelaxedPair,
};
use crate::cost::saved_words;
use crate::optimizer::RunConfig;
use crate::trace::trace_equivalent;

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

/// The check that a pattern's body stands in for each of its embeddings
/// (§2.1 step 8: the two item sequences are trace-equivalent), set up
/// once per pattern from its first embedding, which gives the item at
/// each DFS index: the DFS-index pairs whose items conflict
/// (`defuse::conflicts`).
struct Roles<'a> {
    first: &'a Embedding,
    first_items: &'a [Item],
    conflicting: Vec<(usize, usize)>,
    /// The body as [`trace_equivalent`] takes it, cloned on first use.
    body: Option<Vec<Item>>,
    /// Embeddings [`Roles::same_order`] left to [`trace_equivalent`].
    fallbacks: u64,
}

impl<'a> Roles<'a> {
    /// `first` lies in a region whose items are `first_items`.
    fn of(first: &'a Embedding, first_items: &'a [Item]) -> Roles<'a> {
        let effects: Vec<_> = first
            .map
            .iter()
            .map(|&n| first_items[n as usize].effects())
            .collect();
        let mut conflicting = Vec::new();
        for (i, a) in effects.iter().enumerate() {
            for (j, b) in effects.iter().enumerate().skip(i + 1) {
                if conflicts(a, b) {
                    conflicting.push((i, j));
                }
            }
        }
        Roles {
            first,
            first_items,
            conflicting,
            body: None,
            fallbacks: 0,
        }
    }

    /// Whether `emb`, in a region of `region_items`, orders its items as
    /// the first embedding does: the same item at every DFS index, and
    /// every conflicting pair in the same order. The two item sequences
    /// are then linearizations of one dependence order, so they are
    /// trace-equivalent; this proves it without building either.
    fn same_order(&self, emb: &Embedding, region_items: &[Item]) -> bool {
        let first = &self.first.map;
        emb.map
            .iter()
            .zip(first)
            .all(|(&n, &f)| region_items[n as usize] == self.first_items[f as usize])
            && self
                .conflicting
                .iter()
                .all(|&(i, j)| (emb.map[i] < emb.map[j]) == (first[i] < first[j]))
    }

    /// Whether the body (the first embedding's items in program order)
    /// is trace-equivalent to `emb`'s: [`Roles::same_order`], and where
    /// that does not decide, [`trace_equivalent`] on copies.
    fn stands_in_for(&mut self, emb: &Embedding, region_items: &[Item]) -> bool {
        if self.same_order(emb, region_items) {
            return true;
        }
        self.fallbacks += 1;
        let body = self
            .body
            .get_or_insert_with(|| program_order(self.first, self.first_items));
        trace_equivalent(body, &program_order(emb, region_items))
    }
}

/// An embedding's items in program order, cloned.
fn program_order(emb: &Embedding, region_items: &[Item]) -> Vec<Item> {
    emb.node_set()
        .iter()
        .map(|n| region_items[n as usize].clone())
        .collect()
}

/// A candidate as the visitor scores it, on the fragment's and the
/// regions' own data: its body items and kept embeddings are borrowed,
/// and a [`Candidate`] is built only for one that wins.
struct Scored<'a> {
    body: Vec<&'a Item>,
    kept: Vec<&'a Embedding>,
    kind: ExtractionKind,
    body_words: usize,
    saved: i64,
}

impl Scored<'_> {
    /// The strict total preference order on candidates: more savings,
    /// then smaller body, then earliest first occurrence (function, then
    /// item indices). A full tie means the two candidates rewrite the
    /// same first site with the same-size body for the same benefit; the
    /// incumbent `b` wins.
    fn beats(&self, b: &Candidate, regions: &[RegionState]) -> bool {
        let first = self.kept[0];
        let info = &regions[first.graph as usize].info;
        let site = first.node_set().iter().map(|n| info.start + n as usize);
        let b_site = &b.occurrences[0];
        let order = self
            .saved
            .cmp(&b.saved)
            .then(b.body_words().cmp(&self.body_words))
            .then_with(|| b_site.function.cmp(&info.function))
            .then_with(|| b_site.item_indices.iter().copied().cmp(site));
        order == std::cmp::Ordering::Greater
    }

    /// The candidate, without its relaxed-MEM claims, and the regions
    /// that host its occurrences ([`relaxed_claims`]).
    fn into_candidate(self, regions: &[RegionState]) -> (Candidate, Vec<u32>) {
        let occurrences = self
            .kept
            .iter()
            .map(|e| {
                let info = &regions[e.graph as usize].info;
                Occurrence {
                    function: info.function,
                    region_start: info.start,
                    region_len: info.len,
                    item_indices: e
                        .node_set()
                        .iter()
                        .map(|n| info.start + n as usize)
                        .collect(),
                }
            })
            .collect();
        let candidate = Candidate {
            body: self.body.into_iter().cloned().collect(),
            occurrences,
            kind: self.kind,
            saved: self.saved,
            relaxed: Vec::new(),
        };
        (candidate, self.kept.iter().map(|e| e.graph).collect())
    }
}

/// A fragment's body: its first embedding's items in program order. The
/// body of every candidate scored from the fragment is this one.
fn first_body<'a>(f: &Fragment, regions: &'a [RegionState]) -> Vec<&'a Item> {
    let first = &f.embeddings[0];
    let items = &regions[first.graph as usize].info.items;
    first
        .node_set()
        .iter()
        .map(|n| &items[n as usize])
        .collect()
}

/// Scores the best extractable candidate of one frequent fragment, or
/// `None`. `body` is its [`first_body`], `kind` the body's
/// [`classify_body`] verdict and `body_words` the body's size. The
/// embeddings are in graph order ([`Fragment::embeddings`]), so each
/// region's occurrences form one contiguous run.
fn candidate_from_frequent<'a>(
    freq: &'a Fragment,
    regions: &'a [RegionState],
    body: Vec<&'a Item>,
    kind: ExtractionKind,
    body_words: usize,
    lr_free: &[bool],
    tracer: &dyn Tracer,
) -> Option<Scored<'a>> {
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
    let first = &freq.embeddings[0];
    let first_items = &regions[first.graph as usize].info.items;

    // Validate each embedding site (bounded; see the constant above): the
    // body must stand in for it (counting the embeddings only
    // `trace_equivalent` could decide as `detect.trace_fallback`), and it
    // must be extractable. Extractability — convexity and
    // exit-closedness — is checked on the alias-relaxed graph when one
    // exists: fewer edges means weakly less reachability, so everything
    // extractable conservatively stays extractable and provably-disjoint
    // stack traffic stops blocking.
    let mut roles = Roles::of(first, first_items);
    let check_of = |graph: u32| -> &BlockArtifact { regions[graph as usize].extractability() };
    let mut valid: Vec<&Embedding> = Vec::new();
    for emb in freq.embeddings.iter().take(MAX_VALIDATED_EMBEDDINGS) {
        let info = &regions[emb.graph as usize].info;
        if !roles.stands_in_for(emb, &info.items) {
            continue;
        }
        let check = check_of(emb.graph);
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
    tracer.count("detect.trace_fallback", roles.fallbacks);
    if valid.len() < 2 {
        return None;
    }

    // Occurrence selection: a maximum set of non-overlapping embeddings.
    // DgSpan and Edgar differ only in *frequency counting* during the
    // mining search (§4.2: fragments occurring several times in one block
    // look infrequent to DgSpan); once a fragment is selected, the
    // extraction machinery takes every non-overlapping occurrence for
    // both methods.
    let (_, chosen) = non_overlapping_count_traced(&valid, tracer);
    let selected: Vec<&Embedding> = chosen.into_iter().map(|i| valid[i]).collect();

    // Per-region compatibility: simultaneous contractions must stay
    // acyclic. Greedily keep occurrences in order, region by region,
    // dropping incompatible ones. The probe reads the same graph
    // convexity was checked on, so it ignores exactly the memory
    // conflicts the oracle relaxed — the exemptions `extract::apply`
    // will use, and which the validator re-derives from the candidate's
    // claims.
    let kept: Vec<&Embedding> = if matches!(kind, ExtractionKind::Procedure { .. }) {
        let mut kept = Vec::with_capacity(selected.len());
        for run in selected.chunk_by(|a, b| a.graph == b.graph) {
            let reach = &check_of(run[0].graph).reach;
            let mut region = KeptInRegion::default();
            for &e in run {
                if region.try_keep(reach, reach.mask_of(e)) {
                    kept.push(e);
                } else {
                    tracer.count("detect.probe_dropped", 1);
                }
            }
        }
        kept
    } else {
        selected
    };
    if kept.len() < 2 {
        return None;
    }

    let saved = saved_words(body_words, kept.len(), kind);
    if saved <= 0 {
        return None;
    }
    Some(Scored {
        body,
        kept,
        kind,
        body_words,
        saved,
    })
}

/// The claims a candidate whose kept occurrences lie in the regions
/// `hosts` carries: every MEM edge the alias oracle dropped in one of
/// them, for the validator to re-derive (regions can host several
/// occurrences; dedup). Only the round's winner needs them.
fn relaxed_claims(regions: &[RegionState], hosts: &[u32]) -> Vec<RelaxedPair> {
    let mut claims = std::collections::BTreeSet::new();
    for &g in hosts {
        let region = &regions[g as usize];
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
    claims.into_iter().collect()
}

/// Shared, read-only state of one detection round's lattice search.
struct SearchCtx<'a> {
    regions: &'a [RegionState],
    graphs: &'a [InputGraph],
    lr_free: Vec<bool>,
    /// Per region: it ends in a return with a dependence edge, so it can
    /// host a cross-jump, each of whose occurrences holds that return.
    closing_return: Vec<bool>,
    /// Per region: it can host some extraction, a procedure (its
    /// function's `lr` is free) or a cross-jump (`closing_return`).
    region_live: Vec<bool>,
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
    fn of(c: &Scored, seed: usize) -> CandidateSummary {
        CandidateSummary {
            saved: c.saved,
            body_words: c.body_words,
            occurrences: c.kept.len(),
            kind: kind_name(c.kind),
            seed,
        }
    }
}

/// How many candidate-table lines each round's trace carries.
const CANDIDATE_TABLE_LEN: usize = 5;

/// A search's running result: its best candidate with the regions that
/// host its occurrences, and — when tracing — its slice of the
/// candidate table.
#[derive(Default)]
struct RunningBest {
    candidate: Option<Candidate>,
    hosts: Vec<u32>,
    top: Vec<CandidateSummary>,
}

impl<'a> SearchCtx<'a> {
    /// The search over `state`, refreshed for `program`.
    fn new(program: &Program, state: &'a RoundState, config: &'a RunConfig) -> SearchCtx<'a> {
        let regions = &state.regions;
        let lr_free = lr_free_functions(program);
        // A region's return can join a connected fragment only through a
        // dependence edge.
        let closing_return: Vec<bool> = regions
            .iter()
            .map(|region| {
                let dfg = &region.artifact.dfg;
                let n = dfg.node_count();
                n > 0
                    && region.info.items[n - 1].is_return()
                    && (dfg.in_degree(n - 1) > 0 || dfg.out_degree(n - 1) > 0)
            })
            .collect();
        let region_live = regions
            .iter()
            .zip(&closing_return)
            .map(|(region, &closes)| closes || lr_free[region.info.function])
            .collect();
        SearchCtx {
            regions,
            graphs: &state.graphs,
            lr_free,
            closing_return,
            region_live,
            max_body_words: 2 * config.max_fragment_nodes as i64, // fused calls = 2 words
            tracer: &*config.tracer,
        }
    }

    // The cross-jump benefit k·m − k − m is the most generous extraction
    // kind and is increasing in both k (occurrences) and m (body words),
    // so evaluating it at upper bounds of k and m bounds every candidate
    // derivable from a pattern's descendants.
    fn benefit_bound(k: i64, m: i64) -> i64 {
        k * m - k - m
    }

    /// Upper bound on disjoint occurrences of ANY pattern with ≥ `m`
    /// nodes embedded in the given graphs: disjoint embeddings of size m
    /// tile a graph, so at most ⌊|V|/m⌋ fit per graph. The embeddings
    /// are in graph order, so each graph is one run of them.
    fn tiling_bound(&self, f: &Fragment, m: usize) -> i64 {
        let total: i64 = f
            .embeddings
            .chunk_by(|a, b| a.graph == b.graph)
            .map(|run| (self.graphs[run[0].graph as usize].node_count() / m) as i64)
            .sum();
        total.min(f.embeddings.len() as i64)
    }

    /// The streaming visitor body; `seed` is the index of the seed whose
    /// subtree is being grown. Bounds are compared against
    /// `max(best, 1)` *inclusively*, so candidates tying the incumbent
    /// are still evaluated — this keeps the tie-break total.
    ///
    /// Every visit meets exactly one outcome, each with a count-only
    /// counter: a cut (`detect.prune_*`), a skipped evaluation
    /// (`detect.skip_eval_*`) or an evaluation
    /// (`detect.candidates_evaluated`); `detect.visits` is their total.
    fn visit(&self, f: &Fragment, seed: usize, best: &mut RunningBest) -> GrowDecision {
        self.tracer.count("detect.visits", 1);
        let m = f.pattern.node_count();
        // Any real candidate saves at least one word.
        let target = best.candidate.as_ref().map(|b| b.saved).unwrap_or(0).max(1);
        // One pass over the graph-ordered runs counts the embeddings in
        // live regions and the distinct regions that close with a return.
        // A descendant's embeddings extend this pattern's, so they lie in
        // these regions too.
        let (mut k_live, mut closing) = (0, 0);
        for run in f.embeddings.chunk_by(|a, b| a.graph == b.graph) {
            let g = run[0].graph as usize;
            if self.region_live[g] {
                k_live += run.len();
            }
            closing += usize::from(self.closing_return[g]);
        }
        // §3.5 PA-specific lattice pruning: an embedding can only ever be
        // extracted if its region admits *some* mechanism; branches of
        // the lattice supported only by dead regions are pruned.
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
        // Every candidate scored from this pattern has its first body and
        // at most `k_ub` occurrences, and its savings grow with them: a
        // pattern whose body admits no kind, or whose exact bound falls
        // short of the target, is not evaluated, but its subtree grows.
        let body = first_body(f, self.regions);
        let Some(kind) = classify_body(&body) else {
            // §3.5's cut of "branches of the lattice that only contain
            // unextractable fragments". Mining labels are exact, so every
            // descendant's body holds each item of this one. An item no
            // fragment may contain stays in all of them. Otherwise the
            // body fails the procedure rules (it reads `lr`, or combines a
            // call with `sp`; a return, which ends its region, could only
            // be its last item), so a descendant can only be a cross-jump,
            // and each of its disjoint occurrences holds the closing
            // return of a region of its own.
            if !body.iter().all(|i| item_extractable(i)) {
                self.tracer.count("detect.prune_unextractable_item", 1);
                return GrowDecision::SkipChildren;
            }
            if closing < 2 {
                self.tracer.count("detect.prune_procedure_only", 1);
                return GrowDecision::SkipChildren;
            }
            self.tracer.count("detect.skip_eval_kind", 1);
            return GrowDecision::Continue;
        };
        let body_words: usize = body.iter().map(|i| i.encoded_words()).sum();
        if saved_words(body_words, k_ub as usize, kind) < target {
            self.tracer.count("detect.skip_eval_benefit", 1);
            return GrowDecision::Continue;
        }
        self.tracer.count("detect.candidates_evaluated", 1);
        let scored = candidate_from_frequent(
            f,
            self.regions,
            body,
            kind,
            body_words,
            &self.lr_free,
            self.tracer,
        );
        if let Some(c) = scored {
            if self.tracer.enabled() {
                best.top.push(CandidateSummary::of(&c, seed));
                best.top.sort_by_key(|s| (-s.saved, s.body_words, s.seed));
                best.top.truncate(CANDIDATE_TABLE_LEN);
            }
            if best
                .candidate
                .as_ref()
                .is_none_or(|b| c.beats(b, self.regions))
            {
                let (candidate, hosts) = c.into_candidate(self.regions);
                best.candidate = Some(candidate);
                best.hosts = hosts;
            }
        }
        GrowDecision::Continue
    }
}

/// Finds the best extractable candidate in the program under graph-based
/// detection with `support` counting, or `None` when no extraction
/// shrinks the program.
///
/// The detection inputs are carried in `state` from the previous round:
/// the state first rebuilds what the program's rewrites since then
/// invalidated (inside a `front` span, with the rebuilt regions'
/// conservative artifacts from `store`), then the lattice search, MIS
/// overlap resolution included, runs inside a `mine` span.
///
/// The search ([`mine_streaming`]) grows the seeds of the DFS-code
/// lattice in seed order under one `max_patterns` budget for the whole
/// round, carrying one incumbent from seed to seed. Mining counts on
/// the conservative DFGs: alias verdicts are context-dependent, so
/// relaxed edges would break cross-region isomorphism and fragment
/// connectivity. Under [`crate::AliasLevel::Stack`] each region's
/// relaxed overlay widens only what is extractable (convexity,
/// cross-jump exit-closedness, the contraction probe), and every
/// winning candidate carries the dropped pairs as claims for the
/// validator.
pub(crate) fn best_candidate(
    program: &Program,
    config: &RunConfig,
    support: Support,
    store: &DfgCache,
    state: &mut RoundState,
) -> Option<Candidate> {
    state.refresh(program, config, store);
    let ctx = SearchCtx::new(program, state, config);
    let mine_config = Config {
        min_support: 2,
        support,
        max_nodes: config.max_fragment_nodes,
        max_patterns: config.max_patterns,
        tracer: config.tracer.clone(),
        ..Config::default()
    };
    let mine_span = gpa_trace::span(&*config.tracer, "mine");
    let mut best = RunningBest::default();
    mine_streaming(ctx.graphs, &mine_config, &mut |f, seed| {
        ctx.visit(f, seed, &mut best)
    });
    drop(mine_span);
    let RunningBest {
        candidate: mut winner,
        hosts,
        top: table,
    } = best;
    if let Some(winner) = &mut winner {
        winner.relaxed = relaxed_claims(ctx.regions, &hosts);
    }
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
            // table (the table order mirrors `Scored::beats`, so the
            // winner is line 1 and the runner-up line 2).
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
    use crate::AliasLevel;
    use gpa_arm::Cond;
    use gpa_cfg::{FunctionCode, LabelId};
    use gpa_dfg::LabelMode;
    use gpa_trace::NoopTracer;
    use std::sync::Arc;

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

    /// The first round's winner on `program` under `support`, with the
    /// default tuning and a private store.
    fn detect(program: &Program, support: Support) -> Option<Candidate> {
        best_candidate(
            program,
            &RunConfig::default(),
            support,
            &DfgCache::new(),
            &mut RoundState::default(),
        )
    }

    #[test]
    fn edgar_finds_profitable_fragment() {
        let program = running_example_program();
        let cand = detect(&program, Support::Embeddings)
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

    /// A search that takes its artifacts from a shared store another
    /// search warmed picks what a search with a private store picks, and
    /// builds nothing.
    #[test]
    fn warm_shared_store_matches_a_private_one() {
        let program = running_example_program();
        let config = RunConfig::default();
        let search = |store: &DfgCache| {
            let mut state = RoundState::default();
            best_candidate(&program, &config, Support::Embeddings, store, &mut state)
        };
        let private = DfgCache::new();
        let alone = search(&private);
        assert!(alone.is_some());
        // The two functions hold the same blocks, so even a private
        // store builds each once and finds it for the second function.
        assert_eq!(private.hits(), private.misses());
        let shared = DfgCache::new();
        assert_eq!(search(&shared), alone);
        let (hits, misses) = (shared.hits(), shared.misses());
        assert_eq!(search(&shared), alone);
        assert_eq!(shared.misses(), misses, "a warm store builds nothing");
        assert_eq!(shared.hits(), hits + private.hits() + private.misses());
    }

    #[test]
    fn edgar_beats_dgspan_on_intra_block_repeats() {
        let program = running_example_program();
        let saved = |support| detect(&program, support).map_or(0, |c| c.saved);
        let edgar = saved(Support::Embeddings);
        let dgspan = saved(Support::Graphs);
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
        let artifact = BlockArtifact::build(&items);
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
        let artifact = BlockArtifact::build(&items);
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

    /// Four copies of one [`random_region`], each with up to three
    /// random adjacent items swapped: the copies share most of their
    /// patterns, some with dependent items in another order.
    fn shuffled_copies(rng: &mut rand::rngs::StdRng) -> Vec<Vec<Item>> {
        use rand::Rng;
        let template = random_region(rng).0;
        (0..4)
            .map(|_| {
                let mut items = template.clone();
                for _ in 0..rng.gen_range(0..4) {
                    let i = rng.gen_range(0..items.len() - 1);
                    items.swap(i, i + 1);
                }
                items
            })
            .collect()
    }

    /// Holds `Roles` to `trace_equivalent` on every embedding of one
    /// pattern, whose graph `g` has the items `items[g]`: an order-check
    /// accept implies trace equivalence, and the combined verdict is
    /// trace equivalence. Returns the embeddings the order check left to
    /// the fallback and how many of them it rejected.
    fn hold_to_trace_equivalent(embeddings: &[Embedding], items: &[&[Item]]) -> (u64, u64) {
        let first = &embeddings[0];
        let mut roles = Roles::of(first, items[first.graph as usize]);
        let body = program_order(first, items[first.graph as usize]);
        let mut rejected = 0;
        for emb in embeddings {
            let region = items[emb.graph as usize];
            let seq = program_order(emb, region);
            let want = trace_equivalent(&body, &seq);
            let at = format!("{first:?} / {emb:?}: {body:?} / {seq:?}");
            assert!(!roles.same_order(emb, region) || want, "{at}");
            assert_eq!(roles.stands_in_for(emb, region), want, "{at}");
            rejected += u64::from(!want);
        }
        (roles.fallbacks, rejected)
    }

    /// Every pattern the lattice search visits on databases of
    /// [`shuffled_copies`], under both countings and both label modes:
    /// `Roles` agrees with `trace_equivalent` on every embedding. Some
    /// embeddings keep the first one's items but not its dependence
    /// order, and under canonical labels some hold other items in a
    /// role, so the fallback both accepts and rejects.
    #[test]
    fn order_check_agrees_with_trace_equivalence_on_random_regions() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x74_7261_6365);
        let (mut checked, mut fallbacks, mut rejected) = (0u64, 0u64, 0u64);
        for _ in 0..150 {
            let regions = shuffled_copies(&mut rng);
            let items: Vec<&[Item]> = regions.iter().map(Vec::as_slice).collect();
            let dfgs: Vec<Dfg> = items
                .iter()
                .map(|items| gpa_dfg::build_dfg_from_items(items))
                .collect();
            for mode in [LabelMode::Exact, LabelMode::Canonical] {
                let (graphs, _) = InputGraph::from_dfgs(&dfgs, mode);
                for support in [Support::Embeddings, Support::Graphs] {
                    let config = Config {
                        support,
                        max_nodes: 5,
                        max_patterns: 2_000,
                        ..Config::default()
                    };
                    mine_streaming(&graphs, &config, &mut |f, _| {
                        let (fell_back, wrong) = hold_to_trace_equivalent(&f.embeddings, &items);
                        checked += f.embeddings.len() as u64;
                        fallbacks += fell_back;
                        rejected += wrong;
                        GrowDecision::Continue
                    });
                }
            }
        }
        assert!(checked > 200_000, "only {checked} embeddings checked");
        assert!(
            fallbacks > rejected && rejected > 0,
            "{fallbacks} fallbacks, {rejected} rejected"
        );
    }

    /// The same on the patterns of the first detection round of five
    /// bundled kernels, at both alias levels and under both countings.
    #[test]
    fn order_check_agrees_with_trace_equivalence_on_kernels() {
        let mut checked = 0u64;
        for kernel in ["bitcnts", "crc", "dijkstra", "patricia", "search"] {
            let image =
                gpa_minicc::compile_benchmark(kernel, &gpa_minicc::Options::default()).unwrap();
            let program = gpa_cfg::decode_image(&image).unwrap();
            for alias in [AliasLevel::Off, AliasLevel::Stack] {
                for support in [Support::Embeddings, Support::Graphs] {
                    let config = RunConfig {
                        alias,
                        ..RunConfig::default()
                    };
                    let mut state = RoundState::default();
                    state.refresh(&program, &config, &DfgCache::new());
                    let items: Vec<&[Item]> = state
                        .regions
                        .iter()
                        .map(|r| r.info.items.as_slice())
                        .collect();
                    let mine_config = Config {
                        support,
                        max_nodes: config.max_fragment_nodes,
                        max_patterns: 20_000,
                        ..Config::default()
                    };
                    mine_streaming(&state.graphs, &mine_config, &mut |f, _| {
                        hold_to_trace_equivalent(&f.embeddings, &items);
                        checked += f.embeddings.len() as u64;
                        GrowDecision::Continue
                    });
                }
            }
        }
        assert!(checked > 40_000, "only {checked} embeddings checked");
    }

    /// Where the order check declines, `trace_equivalent` decides: it
    /// accepts two roles with identical, self-conflicting items in
    /// swapped order, and rejects a conflicting pair reversed and
    /// another item in a role. An independent pair reversed needs no
    /// fallback.
    #[test]
    fn trace_fallback_decides_what_the_order_check_declines() {
        let items = |texts: &[&str]| -> Vec<Item> { texts.iter().map(|s| insn(s)).collect() };
        let (x, y) = ("add r0, r0, #1", "mov r1, r0");
        let xxy = items(&[x, x, y]);
        let first = Embedding::new(0, vec![0, 1, 2]);
        let swapped = Embedding::new(1, vec![1, 0, 2]);
        let mut roles = Roles::of(&first, &xxy);
        assert!(roles.stands_in_for(&first, &xxy));
        assert_eq!(roles.fallbacks, 0);
        assert!(!roles.same_order(&swapped, &xxy));
        assert!(roles.stands_in_for(&swapped, &xxy));
        assert_eq!(roles.fallbacks, 1);

        let xy = items(&["mov r0, #1", "add r1, r0, #2"]);
        let yx = items(&["add r1, r0, #2", "mov r0, #1"]);
        let first = Embedding::new(0, vec![0, 1]);
        let reversed = Embedding::new(1, vec![1, 0]);
        let mut roles = Roles::of(&first, &xy);
        assert!(!roles.same_order(&reversed, &yx));
        assert!(!roles.stands_in_for(&reversed, &yx));
        assert!(!trace_equivalent(&xy, &yx));
        assert_eq!(roles.fallbacks, 1);

        let ab = items(&["mov r0, #1", "mov r1, #2"]);
        let ba = items(&["mov r1, #2", "mov r0, #1"]);
        let mut roles = Roles::of(&first, &ab);
        assert!(roles.stands_in_for(&reversed, &ba));
        assert_eq!(roles.fallbacks, 0);

        // Another item in a role, as canonical labels allow.
        let other = items(&["mov r0, #1", "mov r1, #3"]);
        assert!(!roles.stands_in_for(&Embedding::new(1, vec![0, 1]), &other));
        assert_eq!(roles.fallbacks, 1);
    }

    fn program_of(functions: Vec<FunctionCode>) -> Program {
        Program {
            entry: functions[0].name.clone(),
            functions,
            data: Vec::new(),
            data_symbols: Vec::new(),
            code_base: 0x8000,
            data_base: 0x2_0000,
        }
    }

    fn function(name: &str, items: Vec<Item>) -> FunctionCode {
        FunctionCode {
            name: name.into(),
            address_taken: false,
            items,
            label_count: 1,
        }
    }

    /// The winner of a search on `state`'s round that evaluates every
    /// visited pattern whose body classifies and cuts nothing, with no
    /// pattern budget: what the bounded and cut search must pick.
    fn reference_winner(
        program: &Program,
        state: &RoundState,
        config: &RunConfig,
        support: Support,
    ) -> Option<Candidate> {
        let lr_free = lr_free_functions(program);
        let regions = &state.regions;
        let mine_config = Config {
            support,
            max_nodes: config.max_fragment_nodes,
            max_patterns: usize::MAX,
            ..Config::default()
        };
        let mut best: Option<(Candidate, Vec<u32>)> = None;
        mine_streaming(&state.graphs, &mine_config, &mut |f, _| {
            let body = first_body(f, regions);
            if let Some(kind) = classify_body(&body) {
                let words = body.iter().map(|i| i.encoded_words()).sum();
                let scored =
                    candidate_from_frequent(f, regions, body, kind, words, &lr_free, &NoopTracer);
                if let Some(c) = scored {
                    if best.as_ref().is_none_or(|(b, _)| c.beats(b, regions)) {
                        best = Some(c.into_candidate(regions));
                    }
                }
            }
            GrowDecision::Continue
        });
        best.map(|(mut c, hosts)| {
            c.relaxed = relaxed_claims(regions, &hosts);
            c
        })
    }

    /// Holds the first detection round of `program` under `config` and
    /// `support`, with no pattern budget, to [`reference_winner`]. Every
    /// visit meets one counted outcome. Returns the round's counters.
    fn assert_reference_winner(
        program: &Program,
        config: &RunConfig,
        support: Support,
    ) -> gpa_trace::Counters {
        let tracer = Arc::new(gpa_trace::CounterTracer::new());
        let config = RunConfig {
            max_patterns: usize::MAX,
            tracer: tracer.clone(),
            ..config.clone()
        };
        let mut state = RoundState::default();
        let winner = best_candidate(program, &config, support, &DfgCache::new(), &mut state);
        assert_eq!(
            winner,
            reference_winner(program, &state, &config, support),
            "{support:?} {:?}",
            config.alias
        );
        let c = tracer.counters();
        assert_eq!(c.get("detect.visits"), c.get("mine.patterns_visited"));
        assert_eq!(c.check_identities(), Ok(()));
        c
    }

    /// Four functions, each a [`shuffled_copies`] copy of one random
    /// region: in some programs every copy starts with an `lr`-reading
    /// save or holds a call (a call with the region's `sp` accesses fails
    /// the procedure rules), and each copy ends in a return, a `bx lr` or
    /// a conditional tail call to the first (which reads the flags, and
    /// which no fragment may contain).
    fn random_program(rng: &mut rand::rngs::StdRng) -> Program {
        use rand::Rng;
        let copies = shuffled_copies(rng);
        let save = rng.gen_bool(0.5);
        let call_at = rng.gen_bool(0.5).then(|| rng.gen_range(0..copies[0].len()));
        let call = Item::Call {
            cond: Cond::Al,
            target: "g".into(),
        };
        let functions = copies
            .into_iter()
            .enumerate()
            .map(|(i, mut items)| {
                if let Some(at) = call_at {
                    items.insert(at, call.clone());
                }
                if save {
                    items.insert(0, insn("push {r4, lr}"));
                }
                items.push(match rng.gen_range(0..3u32) {
                    0 => Item::TailCall {
                        cond: Cond::Eq,
                        target: "f0".into(),
                    },
                    1 => insn("bx lr"),
                    _ => insn("pop {r4, pc}"),
                });
                function(&format!("f{i}"), items)
            })
            .collect();
        program_of(functions)
    }

    /// With no pattern budget, the exact evaluation bound and the two
    /// cuts leave the winner as a search that evaluates every pattern
    /// picks it, on random programs under both countings.
    #[test]
    fn bounded_and_cut_search_picks_the_reference_winner_on_random_programs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x63_7574);
        let (mut unextractable, mut procedure_only, mut won) = (0, 0, 0);
        for _ in 0..240 {
            let program = random_program(&mut rng);
            for support in [Support::Embeddings, Support::Graphs] {
                let config = RunConfig {
                    max_fragment_nodes: 6,
                    ..RunConfig::default()
                };
                let c = assert_reference_winner(&program, &config, support);
                unextractable += c.get("detect.prune_unextractable_item");
                procedure_only += c.get("detect.prune_procedure_only");
                won += c.get("detect.candidates_evaluated").min(1);
            }
        }
        assert!(
            unextractable > 0 && procedure_only > 0 && won > 300,
            "{unextractable} unextractable-item cuts, {procedure_only} procedure-only cuts, \
             {won} searches that evaluated"
        );
    }

    /// The same on the first detection round of five bundled kernels, at
    /// both alias levels and under both countings.
    #[test]
    fn bounded_and_cut_search_picks_the_reference_winner_on_kernels() {
        for kernel in ["bitcnts", "crc", "dijkstra", "patricia", "search"] {
            let image =
                gpa_minicc::compile_benchmark(kernel, &gpa_minicc::Options::default()).unwrap();
            let program = gpa_cfg::decode_image(&image).unwrap();
            for alias in [AliasLevel::Off, AliasLevel::Stack] {
                for support in [Support::Embeddings, Support::Graphs] {
                    let config = RunConfig {
                        alias,
                        ..RunConfig::default()
                    };
                    let c = assert_reference_winner(&program, &config, support);
                    assert!(c.get("detect.prune_procedure_only") > 0, "{kernel}");
                }
            }
        }
    }

    /// The visitor's decision on the first visited pattern whose body is
    /// `body` (mining labels), in the first detection round of `program`,
    /// and the round's count of `counter`.
    fn decision_on(
        program: &Program,
        body: &[impl AsRef<str>],
        counter: &str,
    ) -> (Option<GrowDecision>, u64) {
        let tracer = Arc::new(gpa_trace::CounterTracer::new());
        let config = RunConfig {
            tracer: tracer.clone(),
            ..RunConfig::default()
        };
        let mut state = RoundState::default();
        state.refresh(program, &config, &DfgCache::new());
        let ctx = SearchCtx::new(program, &state, &config);
        let mine_config = Config {
            max_nodes: config.max_fragment_nodes,
            ..Config::default()
        };
        let mut best = RunningBest::default();
        let mut decision = None;
        mine_streaming(ctx.graphs, &mine_config, &mut |f, seed| {
            let visited = ctx.visit(f, seed, &mut best);
            let labels: Vec<String> = first_body(f, ctx.regions)
                .iter()
                .map(|i| i.mining_label())
                .collect();
            if decision.is_none() && labels.iter().eq(body.iter().map(AsRef::as_ref)) {
                decision = Some(visited);
            }
            visited
        });
        (decision, tracer.counters().get(counter))
    }

    /// A compare and the branch it feeds: no fragment may hold the
    /// branch, so the pattern's subtree is cut.
    #[test]
    fn a_body_holding_a_branch_is_cut() {
        let test_and_branch = |name: &str| {
            let items = vec![
                Item::Label(LabelId(0)),
                insn("cmp r0, r1"),
                Item::Branch {
                    cond: Cond::Ne,
                    target: LabelId(0),
                },
                insn("pop {r4, pc}"),
            ];
            function(name, items)
        };
        let program = program_of(vec![test_and_branch("a"), test_and_branch("b")]);
        let items = &program.functions[0].items;
        let body = [items[1].mining_label(), items[2].mining_label()];
        let cut = "detect.prune_unextractable_item";
        assert_eq!(
            decision_on(&program, &body, cut),
            (Some(GrowDecision::SkipChildren), 1)
        );
    }

    /// A body that reads `lr` can only grow into a cross-jump, so it is
    /// kept while its embeddings lie in two regions that close with a
    /// connected return, and cut when they lie in one, however many of
    /// its embeddings that region holds.
    #[test]
    fn an_lr_reading_body_is_cut_unless_two_regions_close_with_a_return() {
        let pair = || [insn("mov r4, lr"), insn("add r1, r4, #1")];
        let twice: Vec<Item> = pair()
            .into_iter()
            .chain(pair())
            .chain([insn("pop {r4, pc}")])
            .collect();
        let once = |end: Item| pair().into_iter().chain([end]).collect();
        let tail_call = Item::TailCall {
            cond: Cond::Al,
            target: "g".into(),
        };
        let two_regions = program_of(vec![
            function("a", twice.clone()),
            function("b", once(insn("pop {r4, pc}"))),
        ]);
        let one_region = program_of(vec![function("a", twice), function("b", once(tail_call))]);
        let body = ["mov r4, lr", "add r1, r4, #1"];
        let cut = "detect.prune_procedure_only";
        assert_eq!(
            decision_on(&two_regions, &body, cut),
            (Some(GrowDecision::Continue), 0)
        );
        assert_eq!(
            decision_on(&one_region, &body, cut),
            (Some(GrowDecision::SkipChildren), 1)
        );
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
            let conservative = Arc::new(BlockArtifact::build(&items));
            let overlay = Overlay::build(&conservative, &oracle);
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
            let full = gpa_dfg::build_dfg_from_items_with(&items, Some(&oracle));
            let conservative = Arc::new(BlockArtifact::build(&items));
            let overlay = Overlay::build(&conservative, &oracle);
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
