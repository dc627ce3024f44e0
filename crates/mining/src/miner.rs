//! The frequent-fragment search driver: DgSpan and Edgar.

use std::collections::HashSet;
use std::sync::Arc;

use gpa_trace::{NoopTracer, Tracer, Value};

use crate::dfs_code::Pattern;
use crate::embed::{extensions, seed_buckets, Embedding};
use crate::graph::InputGraph;
use crate::mis::{
    collision_graph, disjoint_count_traced, has_k_disjoint, max_independent_set_traced,
};
use crate::nodeset::NodeSet;

/// How a fragment's support is counted.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Support {
    /// **DgSpan**: the number of database graphs containing at least one
    /// embedding (classical gSpan counting, directed).
    Graphs,
    /// **Edgar**: the number of *non-overlapping* embeddings — the size of
    /// a maximum independent set in the embedding collision graph, summed
    /// over graphs.
    #[default]
    Embeddings,
}

/// Mining configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Minimum support for a fragment to be reported and extended.
    pub min_support: usize,
    /// Support semantics (DgSpan vs Edgar).
    pub support: Support,
    /// Upper bound on fragment size in nodes (a backstop against
    /// pathological growth; the benefit-driven consumer rarely wants huge
    /// fragments anyway).
    pub max_nodes: usize,
    /// Upper bound on the embedding list carried per pattern. Blocks with
    /// many identical independent instructions have factorially many
    /// embeddings; lists beyond the cap are truncated (keeping the
    /// earliest embeddings), trading completeness for bounded work.
    pub max_embeddings: usize,
    /// Upper bound on the number of patterns visited per mining run. The
    /// DFS-code lattice of large, repetitive basic blocks (the paper's
    /// rijndael, which took hours on the original implementation) is
    /// exponentially large; the budget makes one mining round a bounded
    /// greedy search. `usize::MAX` disables the cap.
    pub max_patterns: usize,
    /// Telemetry sink for search counters and degradation events
    /// (truncated embedding lists, exhausted pattern budgets, greedy
    /// support answers). Defaults to [`NoopTracer`]; tracing never
    /// changes what is mined.
    pub tracer: Arc<dyn Tracer>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            min_support: 2,
            support: Support::Embeddings,
            max_nodes: 24,
            max_embeddings: 4096,
            max_patterns: usize::MAX,
            tracer: Arc::new(NoopTracer),
        }
    }
}

/// A frequent fragment: its canonical pattern and its occurrences.
#[derive(Clone, Debug)]
pub struct Frequent {
    /// The canonical pattern (minimal DFS code).
    pub pattern: Pattern,
    /// All embeddings, deduplicated by node set (one map kept per set).
    pub embeddings: Vec<Embedding>,
    /// The support under the configured counting.
    pub support: usize,
}

/// Deduplicates embeddings by (graph, node-set), keeping the first map
/// seen for each set.
fn dedup_by_node_set(embeddings: &[Embedding]) -> Vec<Embedding> {
    let mut seen: HashSet<(u32, NodeSet)> = HashSet::new();
    let mut out = Vec::new();
    for e in embeddings {
        if seen.insert((e.graph, e.node_set().clone())) {
            out.push(e.clone());
        }
    }
    out
}

/// Counts support of a set of node-set-deduplicated embeddings.
///
/// Under [`Support::Embeddings`] this is the non-overlapping count
/// (summed per graph) — exact up to the per-graph set limit of the
/// bounded MIS solver, the greedy lower bound beyond it.
pub fn count_support(embeddings: &[Embedding], support: Support) -> usize {
    count_support_traced(embeddings, support, &NoopTracer)
}

/// [`count_support`] with telemetry on which gate path answered.
pub fn count_support_traced(
    embeddings: &[Embedding],
    support: Support,
    tracer: &dyn Tracer,
) -> usize {
    match support {
        Support::Graphs => {
            let graphs: HashSet<u32> = embeddings.iter().map(|e| e.graph).collect();
            graphs.len()
        }
        Support::Embeddings => {
            let mut total = 0;
            for sets in node_sets_by_graph(embeddings).values() {
                total += disjoint_count_traced(sets, tracer);
            }
            total
        }
    }
}

/// Whether the support reaches `min` — exact for the paper's minimum
/// support of 2 under both counting schemes, and for any `min` while
/// the per-graph embedding counts stay within the exact-MIS limit.
pub fn support_at_least(embeddings: &[Embedding], support: Support, min: usize) -> bool {
    support_at_least_traced(embeddings, support, min, &NoopTracer)
}

/// [`support_at_least`] with telemetry on which gate path answered.
pub fn support_at_least_traced(
    embeddings: &[Embedding],
    support: Support,
    min: usize,
    tracer: &dyn Tracer,
) -> bool {
    match support {
        Support::Graphs => {
            let mut graphs = HashSet::new();
            for e in embeddings {
                graphs.insert(e.graph);
                if graphs.len() >= min {
                    return true;
                }
            }
            graphs.len() >= min
        }
        Support::Embeddings => {
            if min <= 2 {
                // Disjoint pairs across different graphs count too.
                let by_graph = node_sets_by_graph(embeddings);
                if by_graph.len() >= min.min(2) && by_graph.len() >= 2 {
                    return true;
                }
                return by_graph.values().any(|sets| has_k_disjoint(sets, min));
            }
            // min > 2 must NOT be answered by the greedy count alone: a
            // greedy undershoot here prunes a whole lattice subtree, and
            // the antimonotone gate must never under-approximate. The
            // traced count is exact while each graph's embedding count
            // stays within the bounded-MIS limit.
            let mut total = 0;
            for sets in node_sets_by_graph(embeddings).values() {
                total += disjoint_count_traced(sets, tracer);
                if total >= min {
                    return true;
                }
            }
            false
        }
    }
}

fn node_sets_by_graph(embeddings: &[Embedding]) -> std::collections::BTreeMap<u32, Vec<NodeSet>> {
    let mut by_graph: std::collections::BTreeMap<u32, Vec<NodeSet>> = Default::default();
    for e in embeddings {
        by_graph
            .entry(e.graph)
            .or_default()
            .push(e.node_set().clone());
    }
    by_graph
}

/// Computes the maximum number of pairwise node-disjoint embeddings and
/// returns `(count, chosen indices)`.
///
/// Embeddings are grouped per graph; within each graph a maximum
/// independent set of the collision graph is computed.
pub fn non_overlapping_count(embeddings: &[Embedding]) -> (usize, Vec<usize>) {
    non_overlapping_count_traced(embeddings, &NoopTracer)
}

/// [`non_overlapping_count`] with MIS telemetry (component sizes,
/// exact-vs-greedy path, budget exhaustions).
pub fn non_overlapping_count_traced(
    embeddings: &[Embedding],
    tracer: &dyn Tracer,
) -> (usize, Vec<usize>) {
    let mut chosen = Vec::new();
    let mut by_graph: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    for (i, e) in embeddings.iter().enumerate() {
        by_graph.entry(e.graph).or_default().push(i);
    }
    for indices in by_graph.values() {
        let sets: Vec<NodeSet> = indices
            .iter()
            .map(|&i| embeddings[i].node_set().clone())
            .collect();
        let adj = collision_graph(&sets);
        for local in max_independent_set_traced(&adj, tracer) {
            chosen.push(indices[local]);
        }
    }
    chosen.sort_unstable();
    (chosen.len(), chosen)
}

/// What the streaming visitor wants done with a pattern's subtree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GrowDecision {
    /// Keep extending this pattern.
    Continue,
    /// Do not explore any extension of this pattern (e.g. a benefit bound
    /// shows no descendant can be useful).
    SkipChildren,
}

/// Mines all frequent connected fragments (two or more nodes) of the
/// database, collecting them into a vector.
///
/// For large inputs prefer [`mine_streaming`], which does not materialize
/// the (possibly huge) result set and lets the consumer prune subtrees.
pub fn mine(graphs: &[InputGraph], config: &Config) -> Vec<Frequent> {
    let mut results = Vec::new();
    mine_streaming(graphs, config, &mut |f, _| {
        results.push(f.clone());
        GrowDecision::Continue
    });
    results
}

/// Mines frequent fragments, invoking `visit` on each one as it is
/// discovered (parents strictly before children), together with the
/// index of the seed whose subtree it grew from.
///
/// The search is a depth-first traversal of the DFS-code lattice with the
/// two prunings of the paper: canonical-form (minimality) pruning and
/// frequency antimonotone pruning — under [`Support::Embeddings`] the
/// embeddings of a child map injectively onto disjoint embeddings of its
/// parent, so MIS-based support is antimonotone as well (§3.4). The
/// visitor's [`GrowDecision`] adds consumer-driven pruning on top (the PA
/// driver cuts subtrees whose best possible benefit cannot beat the
/// current best candidate — the paper's §3.5 "PA-specific pruning").
///
/// The seeds are grown in seed order under one `max_patterns` budget for
/// the whole search; when it runs dry, `mine.budget_exhausted` names the
/// seed the search stopped in and the remaining seeds go unexplored.
pub fn mine_streaming(
    graphs: &[InputGraph],
    config: &Config,
    visit: &mut dyn FnMut(&Frequent, usize) -> GrowDecision,
) {
    let mut budget = config.max_patterns;
    let seeds = seed_buckets(graphs, config.min_support, &*config.tracer);
    for (si, (tuple, embeddings)) in seeds.into_iter().enumerate() {
        let mut visit_seed = |f: &Frequent| visit(f, si);
        if !mine_seed(
            tuple,
            embeddings,
            graphs,
            config,
            &mut visit_seed,
            &mut budget,
        ) {
            // The pattern budget ran dry mid-seed: the rest of the
            // lattice is silently unexplored — trace it.
            config
                .tracer
                .event("mine.budget_exhausted", &[("seed", Value::from(si))]);
            return;
        }
    }
}

/// Grows one seed pattern to completion; returns `false` when the
/// pattern budget is exhausted.
fn mine_seed(
    tuple: crate::dfs_code::DfsTuple,
    embeddings: Vec<Embedding>,
    graphs: &[InputGraph],
    config: &Config,
    visit: &mut dyn FnMut(&Frequent) -> GrowDecision,
    budget: &mut usize,
) -> bool {
    match take_up(|| Pattern::root(tuple), embeddings, config) {
        Some((frequent, embeddings)) => grow(frequent, &embeddings, graphs, config, visit, budget),
        None => true,
    }
}

/// The gates every code the search takes up (a seed, or an extension of
/// a visited pattern) meets, in order of cost: its embedding count, its
/// canonical form, its support. Counts the code (`mine.codes`) and, when
/// a gate cuts it, the cut. A code with fewer than `min_support`
/// embeddings is cut before `pattern` builds it or the canonical test
/// runs. That cut is exact: support under either counting (graphs for
/// DgSpan, disjoint embeddings for Edgar) never exceeds the number of
/// embeddings, and the enumerations leave the list of such a code empty.
///
/// Returns the code as a frequent fragment together with the embedding
/// list its extensions are enumerated from: the raw list, truncated to
/// `max_embeddings` but not deduplicated by node set.
fn take_up(
    pattern: impl FnOnce() -> Pattern,
    mut embeddings: Vec<Embedding>,
    config: &Config,
) -> Option<(Frequent, Vec<Embedding>)> {
    let tracer = &*config.tracer;
    tracer.count("mine.codes", 1);
    if embeddings.len() < config.min_support {
        tracer.count("mine.prune_infrequent", 1);
        return None;
    }
    let pattern = pattern();
    if !pattern.is_min_cached(tracer) {
        tracer.count("mine.prune_non_canonical", 1);
        return None;
    }
    if embeddings.len() > config.max_embeddings {
        tracer.event(
            "mine.embeddings_truncated",
            &[
                ("pattern_nodes", Value::from(pattern.node_count())),
                ("before", Value::from(embeddings.len())),
                ("after", Value::from(config.max_embeddings)),
            ],
        );
        embeddings.truncate(config.max_embeddings);
    }
    let deduped = dedup_by_node_set(&embeddings);
    if !support_at_least_traced(&deduped, config.support, config.min_support, tracer) {
        tracer.count("mine.prune_infrequent", 1);
        return None;
    }
    let support = count_support_traced(&deduped, config.support, tracer);
    let frequent = Frequent {
        pattern,
        embeddings: deduped,
        support,
    };
    Some((frequent, embeddings))
}

/// Visits a pattern the gates let through and grows its children;
/// returns `false` when the pattern budget is exhausted (abort the run).
fn grow(
    frequent: Frequent,
    embeddings: &[Embedding],
    graphs: &[InputGraph],
    config: &Config,
    visit: &mut dyn FnMut(&Frequent) -> GrowDecision,
    budget: &mut usize,
) -> bool {
    let tracer = &*config.tracer;
    if *budget == 0 {
        // The one code a round that runs out of budget stops on. The
        // callers' `mine.budget_exhausted` event marks the same stop, but
        // identity rows read only count-only counters.
        tracer.count("mine.prune_budget", 1);
        return false;
    }
    *budget -= 1;
    // Exactly one of {subtree_skipped, stopped_max_nodes, expanded} is
    // counted per visited pattern, so the identity
    //   patterns_visited == expanded + subtree_skipped + stopped_max_nodes
    // holds by construction (`gpa trace-check` asserts it).
    tracer.count("mine.patterns_visited", 1);
    let decision = visit(&frequent);
    let pattern = frequent.pattern;
    if decision == GrowDecision::SkipChildren {
        tracer.count("mine.subtree_skipped", 1);
        return true;
    }
    if pattern.node_count() >= config.max_nodes {
        tracer.count("mine.stopped_max_nodes", 1);
        return true;
    }
    tracer.count("mine.expanded", 1);
    let children = extensions(&pattern, graphs, embeddings, config.min_support, tracer);
    for (tuple, child_embeddings) in children {
        tracer.count("mine.extensions_generated", 1);
        let Some((child, child_embeddings)) =
            take_up(|| pattern.extend(tuple), child_embeddings, config)
        else {
            continue;
        };
        if !grow(child, &child_embeddings, graphs, config, visit, budget) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arm::parse::parse_listing;
    use gpa_cfg::Item;
    use gpa_dfg::{build_dfg_from_items, LabelMode};

    fn graphs_of(listings: &[&str]) -> Vec<InputGraph> {
        let dfgs: Vec<_> = listings
            .iter()
            .map(|asm| {
                let items: Vec<Item> = parse_listing(asm)
                    .unwrap()
                    .into_iter()
                    .map(Item::Insn)
                    .collect();
                build_dfg_from_items("bb", 0, &items, LabelMode::Exact)
            })
            .collect();
        InputGraph::from_dfgs(&dfgs).0
    }

    const RUNNING_EXAMPLE: &str = "ldr r3, [r1]!\n\
                                   sub r2, r2, r3\n\
                                   add r4, r2, #4\n\
                                   ldr r3, [r1]!\n\
                                   sub r2, r2, r3\n\
                                   ldr r3, [r1]!\n\
                                   add r4, r2, #4";

    #[test]
    fn running_example_edgar_finds_three_node_fragments() {
        let graphs = graphs_of(&[RUNNING_EXAMPLE]);
        let found = mine(
            &graphs,
            &Config {
                min_support: 2,
                support: Support::Embeddings,
                max_nodes: 8,
                ..Config::default()
            },
        );
        // Figs. 4/5: three-node fragments with two disjoint embeddings.
        let three: Vec<_> = found
            .iter()
            .filter(|f| f.pattern.node_count() == 3 && f.support >= 2)
            .collect();
        assert!(
            !three.is_empty(),
            "expected 3-node fragments, got: {:?}",
            found
                .iter()
                .map(|f| (f.pattern.node_count(), f.support))
                .collect::<Vec<_>>()
        );
        // And the 2-node ldr→sub fragment from Fig. 3 as well.
        assert!(found
            .iter()
            .any(|f| f.pattern.node_count() == 2 && f.support >= 2));
    }

    #[test]
    fn dgspan_counts_graphs_not_occurrences() {
        // Both occurrences live in ONE graph: DgSpan support = 1,
        // Edgar support = 2. (The paper's central observation.)
        let graphs = graphs_of(&[RUNNING_EXAMPLE]);
        let dg = mine(
            &graphs,
            &Config {
                min_support: 2,
                support: Support::Graphs,
                max_nodes: 8,
                ..Config::default()
            },
        );
        assert!(
            dg.is_empty(),
            "a single graph can never reach graph-support 2"
        );
        // With the block duplicated into two graphs, DgSpan finds them.
        let graphs2 = graphs_of(&[RUNNING_EXAMPLE, RUNNING_EXAMPLE]);
        let dg2 = mine(
            &graphs2,
            &Config {
                min_support: 2,
                support: Support::Graphs,
                max_nodes: 8,
                ..Config::default()
            },
        );
        assert!(dg2.iter().any(|f| f.pattern.node_count() >= 3));
    }

    #[test]
    fn overlapping_embeddings_counted_once() {
        // Fig. 8: two embeddings sharing the middle ldr → only one counts.
        // Chain: ldr; sub; ldr; sub — pattern (ldr→sub) has 2 disjoint
        // embeddings; pattern (sub→ldr… ) sharing nodes collapses.
        let graphs = graphs_of(&["ldr r3, [r1]!\nsub r2, r2, r3\nldr r3, [r1]!\nsub r2, r2, r3"]);
        let found = mine(
            &graphs,
            &Config {
                min_support: 2,
                support: Support::Embeddings,
                max_nodes: 4,
                ..Config::default()
            },
        );
        let pair = found
            .iter()
            .find(|f| f.pattern.node_count() == 2 && f.support == 2);
        assert!(pair.is_some(), "ldr→sub appears twice disjointly");
        // No fragment can have support > 2 here.
        assert!(found.iter().all(|f| f.support <= 2));
    }

    #[test]
    fn no_frequent_fragments_in_unique_code() {
        let graphs = graphs_of(&["mov r0, #1\nadd r1, r0, #2\nmul r2, r1, r0"]);
        let found = mine(&graphs, &Config::default());
        assert!(found.is_empty());
    }

    #[test]
    fn codes_with_fewer_embeddings_than_min_support_skip_the_canonical_test() {
        use crate::embed::seed_buckets;
        use gpa_trace::CounterTracer;
        let run = |listing: &str, min_support: usize| {
            let tracer = std::sync::Arc::new(CounterTracer::new());
            let config = Config {
                min_support,
                tracer: tracer.clone(),
                ..Config::default()
            };
            let found = mine(&graphs_of(&[listing]), &config);
            let c = tracer.counters();
            assert_eq!(c.check_identities(), Ok(()), "{c:?}");
            assert_eq!(found.len() as u64, c.get("mine.patterns_visited"));
            c
        };
        // Every seed of this block has one embedding.
        let unique = "mov r0, #1\nadd r1, r0, #2\nmul r2, r1, r0";
        let c = run(unique, 2);
        assert!(c.get("mine.codes") > 0);
        assert_eq!(c.get("mine.patterns_visited"), 0);
        assert_eq!(c.get("mine.canon_checks"), 0);
        assert_eq!(c.get("mine.prune_infrequent"), c.get("mine.codes"));
        assert_eq!(c.get("mine.embeddings_built"), 0);
        // ldr→sub has two embeddings: at min_support 2 it is tested and
        // visited, at min_support 3 it is cut with the rest, untested.
        let twice = "ldr r3, [r1]!\nsub r2, r2, r3\nldr r3, [r1]!\nsub r2, r2, r3";
        let buckets = seed_buckets(&graphs_of(&[twice]), 1, &gpa_trace::NoopTracer);
        assert_eq!(buckets.iter().map(|(_, e)| e.len()).max(), Some(2));
        let c = run(twice, 2);
        assert!(c.get("mine.canon_checks") > 0);
        assert!(c.get("mine.patterns_visited") > 0);
        let c = run(twice, 3);
        assert_eq!(c.get("mine.patterns_visited"), 0);
        assert_eq!(c.get("mine.canon_checks"), 0);
        assert_eq!(c.get("mine.embeddings_built"), 0);
        assert_eq!(c.get("mine.prune_infrequent"), c.get("mine.codes"));
        assert_eq!(c.get("mine.codes"), buckets.len() as u64);
    }

    #[test]
    fn max_nodes_caps_growth() {
        let graphs = graphs_of(&[RUNNING_EXAMPLE, RUNNING_EXAMPLE]);
        let found = mine(
            &graphs,
            &Config {
                min_support: 2,
                support: Support::Graphs,
                max_nodes: 2,
                ..Config::default()
            },
        );
        assert!(found.iter().all(|f| f.pattern.node_count() <= 2));
    }

    #[test]
    fn embeddings_are_node_set_deduplicated() {
        let graphs = graphs_of(&[RUNNING_EXAMPLE]);
        let found = mine(&graphs, &Config::default());
        for f in &found {
            let mut sets: Vec<_> = f
                .embeddings
                .iter()
                .map(|e| (e.graph, e.sorted_nodes()))
                .collect();
            let before = sets.len();
            sets.sort();
            sets.dedup();
            assert_eq!(sets.len(), before, "duplicate node sets in {:?}", f.pattern);
        }
    }

    #[test]
    fn counter_identity_holds_and_tracing_changes_nothing() {
        use gpa_trace::CounterTracer;
        let graphs = graphs_of(&[RUNNING_EXAMPLE, RUNNING_EXAMPLE]);
        let plain = Config {
            min_support: 2,
            support: Support::Embeddings,
            max_nodes: 8,
            ..Config::default()
        };
        let baseline = mine(&graphs, &plain);
        let tracer = std::sync::Arc::new(CounterTracer::new());
        let traced_cfg = Config {
            tracer: tracer.clone(),
            ..plain
        };
        let traced = mine(&graphs, &traced_cfg);
        // Tracing must never change what is mined.
        assert_eq!(baseline.len(), traced.len());
        let c = tracer.counters();
        assert!(c.get("mine.patterns_visited") > 0);
        assert_eq!(c.check_identities(), Ok(()), "{c:?}");
    }

    #[test]
    fn tight_budget_traces_exhaustion() {
        use gpa_trace::CounterTracer;
        let graphs = graphs_of(&[RUNNING_EXAMPLE, RUNNING_EXAMPLE]);
        let tracer = std::sync::Arc::new(CounterTracer::new());
        let config = Config {
            min_support: 2,
            support: Support::Embeddings,
            max_nodes: 8,
            max_patterns: 2,
            tracer: tracer.clone(),
            ..Config::default()
        };
        let _ = mine(&graphs, &config);
        let c = tracer.counters();
        assert_eq!(c.get("mine.budget_exhausted"), 1);
        assert_eq!(c.get("mine.prune_budget"), 1);
        assert_eq!(c.check_identities(), Ok(()), "{c:?}");
    }

    #[test]
    fn min_support_three_matches_brute_force_disjoint_count() {
        // Three disjoint occurrences of ldr→sub in one block, arranged so
        // the pattern also has overlapping extra embeddings. Mining with
        // min_support = 3 must agree with the brute-force maximum
        // disjoint-embedding count of every reported fragment.
        let graphs = graphs_of(&["ldr r3, [r1]!\nsub r2, r2, r3\n\
                                  ldr r3, [r1]!\nsub r2, r2, r3\n\
                                  ldr r3, [r1]!\nsub r2, r2, r3"]);
        let found = mine(
            &graphs,
            &Config {
                min_support: 3,
                support: Support::Embeddings,
                max_nodes: 4,
                ..Config::default()
            },
        );
        assert!(
            found.iter().any(|f| f.pattern.node_count() == 2),
            "three disjoint ldr→sub embeddings must survive min_support = 3"
        );
        for f in &found {
            // Brute force over all embedding subsets.
            let sets: Vec<Vec<u32>> = f.embeddings.iter().map(Embedding::sorted_nodes).collect();
            let n = sets.len();
            assert!(n <= 20, "test inputs stay brute-forceable");
            let mut best = 0usize;
            for mask in 0u32..(1 << n) {
                let idx: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
                let ok = idx.iter().enumerate().all(|(a, &i)| {
                    idx[a + 1..]
                        .iter()
                        .all(|&j| !crate::mis::sorted_intersects(&sets[i], &sets[j]))
                });
                if ok {
                    best = best.max(idx.len());
                }
            }
            assert!(best >= 3, "reported fragment lacks 3 disjoint embeddings");
            assert_eq!(f.support, best, "support disagrees with brute force");
        }
    }

    #[test]
    fn support_beyond_the_old_64_set_width_is_counted_exactly() {
        // Seventy disjoint ldr→sub occurrences in one block: the support
        // gate sees 70 node sets per graph (past the pre-bitset 64-set
        // exact width), and the block's ~140 DFG nodes push node ids past
        // the inline NodeSet capacity of 128 — a real mining run over
        // spilled bitsets.
        let listing = "ldr r3, [r1]!\nsub r2, r2, r3\n".repeat(70);
        let graphs = graphs_of(&[&listing]);
        let found = mine(
            &graphs,
            &Config {
                min_support: 3,
                support: Support::Embeddings,
                max_nodes: 4,
                ..Config::default()
            },
        );
        // Several 2-node fragments are frequent (ldr→sub, plus the
        // 69-occurrence cross-pair dependences); ldr→sub is the one with
        // all 70 disjoint occurrences.
        let best = found
            .iter()
            .filter(|f| f.pattern.node_count() == 2)
            .map(|f| f.support)
            .max()
            .expect("the ldr→sub fragment must be frequent");
        assert_eq!(best, 70, "all 70 disjoint occurrences count");
    }

    #[test]
    fn support_is_antimonotone_along_results() {
        // Every reported fragment's parent prefix is also reported with
        // at least the same support: check global max support of size-k
        // fragments is non-increasing in k.
        let graphs = graphs_of(&[RUNNING_EXAMPLE, RUNNING_EXAMPLE]);
        let found = mine(
            &graphs,
            &Config {
                min_support: 2,
                support: Support::Embeddings,
                max_nodes: 8,
                ..Config::default()
            },
        );
        let mut max_by_size: std::collections::BTreeMap<usize, usize> = Default::default();
        for f in &found {
            let e = max_by_size.entry(f.pattern.node_count()).or_default();
            *e = (*e).max(f.support);
        }
        let sizes: Vec<_> = max_by_size.into_iter().collect();
        for w in sizes.windows(2) {
            assert!(w[0].1 >= w[1].1, "support not antimonotone: {sizes:?}");
        }
    }
}
