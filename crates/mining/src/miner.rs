//! The frequent-fragment search driver: DgSpan and Edgar.

use std::collections::HashSet;
use std::sync::Arc;

use gpa_trace::{NoopTracer, Tracer, Value};

use crate::dfs_code::{DfsTuple, Pattern, Walks};
use crate::embed::{extensions, seed_buckets, Embedding};
use crate::graph::InputGraph;
use crate::mis::{count_isolated, max_independent_set_traced, CollisionGraph};

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

/// A frequent fragment as the search visits it: its canonical pattern
/// and its occurrences.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// The canonical pattern (minimal DFS code).
    pub pattern: Pattern,
    /// All embeddings, deduplicated by node set (one map kept per set),
    /// in graph order: the enumerations list them graph by graph and
    /// keep that order through their stable grouping, and the gates only
    /// truncate and filter.
    pub embeddings: Vec<Embedding>,
}

/// A frequent fragment as [`mine`] returns it: a visited [`Fragment`]
/// with its support.
#[derive(Clone, Debug)]
pub struct Frequent {
    /// The canonical pattern (minimal DFS code).
    pub pattern: Pattern,
    /// All embeddings, deduplicated by node set (one map kept per set).
    pub embeddings: Vec<Embedding>,
    /// The support under the configured counting.
    pub support: usize,
}

/// The embeddings without those whose (graph, node set) an earlier one
/// already has, or `None` when there are none such. The keys borrow the
/// node sets, so only a list that loses maps is copied.
fn dedup_by_node_set(embeddings: &[Embedding]) -> Option<Vec<Embedding>> {
    let mut seen = HashSet::with_capacity(embeddings.len());
    let first = embeddings
        .iter()
        .position(|e| !seen.insert((e.graph, e.node_set())))?;
    let mut deduped = embeddings[..first].to_vec();
    let rest = embeddings[first + 1..].iter();
    deduped.extend(
        rest.filter(|e| seen.insert((e.graph, e.node_set())))
            .cloned(),
    );
    Some(deduped)
}

/// Counts support of a set of node-set-deduplicated embeddings, in
/// graph order.
///
/// Under [`Support::Embeddings`] this is the non-overlapping count
/// ([`non_overlapping_count_traced`], summed per graph): exact for every
/// collision-graph component of up to 128 embeddings, the greedy lower
/// bound beyond.
pub fn count_support(embeddings: &[Embedding], support: Support) -> usize {
    match support {
        Support::Graphs => {
            let graphs: HashSet<u32> = embeddings.iter().map(|e| e.graph).collect();
            graphs.len()
        }
        Support::Embeddings => {
            let embeddings: Vec<&Embedding> = embeddings.iter().collect();
            non_overlapping_count_traced(&embeddings, &NoopTracer).0
        }
    }
}

/// Whether the support of a set of node-set-deduplicated embeddings, in
/// graph order, reaches `min`: the search's frequency gate. Exact for
/// the paper's minimum support of 2 under both counting schemes, and
/// for any `min` while no collision-graph component holds more than 128
/// embeddings.
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
            if min <= 1 {
                return !embeddings.is_empty();
            }
            if min == 2 {
                // Two embeddings in different graphs never overlap.
                return embeddings.iter().enumerate().any(|(i, a)| {
                    embeddings[i + 1..]
                        .iter()
                        .any(|b| a.graph != b.graph || !a.node_set().intersects(b.node_set()))
                });
            }
            // A greedy undershoot here would prune a whole lattice
            // subtree, and the antimonotone gate must never
            // under-approximate: count with occurrence selection's MIS.
            let embeddings: Vec<&Embedding> = embeddings.iter().collect();
            non_overlapping_count_traced(&embeddings, tracer).0 >= min
        }
    }
}

/// Computes the maximum number of pairwise node-disjoint embeddings and
/// returns `(count, chosen indices)`, ascending, with MIS telemetry
/// (component sizes, exact-vs-greedy path, budget exhaustions).
///
/// The embeddings must be in graph order, as every fragment's list is
/// (see [`Fragment::embeddings`]), so each graph's embeddings form one
/// contiguous run. Within a run a maximum independent set of the
/// collision graph is computed; a run in which no two embeddings
/// collide is counted as that many isolated vertices without building
/// the graph.
pub fn non_overlapping_count_traced(
    embeddings: &[&Embedding],
    tracer: &dyn Tracer,
) -> (usize, Vec<usize>) {
    debug_assert!(
        embeddings.is_sorted_by_key(|e| e.graph),
        "embeddings out of graph order"
    );
    let mut chosen = Vec::new();
    let mut start = 0;
    for run in embeddings.chunk_by(|a, b| a.graph == b.graph) {
        let mut adj: Option<CollisionGraph> = None;
        for (i, a) in run.iter().enumerate() {
            for (j, b) in run.iter().enumerate().skip(i + 1) {
                if a.node_set().intersects(b.node_set()) {
                    adj.get_or_insert_with(|| CollisionGraph::new(run.len()))
                        .add_edge(i, j);
                }
            }
        }
        match adj {
            None => {
                count_isolated(run.len(), tracer);
                chosen.extend(start..start + run.len());
            }
            Some(adj) => chosen.extend(
                max_independent_set_traced(&adj, tracer)
                    .into_iter()
                    .map(|local| start + local),
            ),
        }
        start += run.len();
    }
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
/// database, collecting them into a vector with their support. The
/// search itself only asks whether a fragment is frequent; this is the
/// one place that counts its support ([`count_support`]).
///
/// For large inputs prefer [`mine_streaming`], which does not materialize
/// the (possibly huge) result set and lets the consumer prune subtrees.
pub fn mine(graphs: &[InputGraph], config: &Config) -> Vec<Frequent> {
    let mut results = Vec::new();
    mine_streaming(graphs, config, &mut |f, _| {
        results.push(Frequent {
            pattern: f.pattern.clone(),
            embeddings: f.embeddings.clone(),
            support: count_support(&f.embeddings, config.support),
        });
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
/// The seeds are the minimal one-edge codes ([`seed_buckets`]), grown in
/// seed order under one `max_patterns` budget for the whole search; when
/// it runs dry, `mine.budget_exhausted` names the seed the search
/// stopped in and the remaining seeds go unexplored.
pub fn mine_streaming(
    graphs: &[InputGraph],
    config: &Config,
    visit: &mut dyn FnMut(&Fragment, usize) -> GrowDecision,
) {
    let mut search = Search {
        graphs,
        config,
        visit,
        seed: 0,
        budget: config.max_patterns,
        walks: Walks::new(),
    };
    let seeds = seed_buckets(graphs, config.min_support, &*config.tracer);
    for (seed, (tuple, embeddings)) in seeds.into_iter().enumerate() {
        search.seed = seed;
        if !search.branch(None, tuple, embeddings) {
            // The pattern budget ran dry mid-seed: the rest of the
            // lattice is silently unexplored — trace it.
            config
                .tracer
                .event("mine.budget_exhausted", &[("seed", Value::from(seed))]);
            return;
        }
    }
}

/// One run of [`mine_streaming`]: what every step reads, the seed being
/// grown, the pattern budget left, and the canonical walks of the
/// patterns on the current path.
struct Search<'a> {
    graphs: &'a [InputGraph],
    config: &'a Config,
    visit: &'a mut dyn FnMut(&Fragment, usize) -> GrowDecision,
    seed: usize,
    budget: usize,
    walks: Walks,
}

impl Search<'_> {
    /// Takes up `parent` plus `tuple` (a seed when `parent` is `None`)
    /// and grows it when the gates let it through; returns `false` when
    /// the pattern budget is exhausted (abort the run).
    fn branch(
        &mut self,
        parent: Option<&Pattern>,
        tuple: DfsTuple,
        embeddings: Vec<Embedding>,
    ) -> bool {
        let Some((fragment, raw)) = self.take_up(parent, tuple, embeddings) else {
            return true;
        };
        let grown = self.grow(fragment, raw);
        self.walks.pop();
        grown
    }

    /// The gates every code the search takes up (a seed, or an extension
    /// of a visited pattern) meets, in order of cost: its embedding
    /// count, its canonical form, its support. Counts the code
    /// (`mine.codes`) and, when a gate cuts it, the cut. A code with
    /// fewer than `min_support` embeddings is cut before the canonical
    /// test runs. That cut is exact: support under either counting
    /// (graphs for DgSpan, disjoint embeddings for Edgar) never exceeds
    /// the number of embeddings, and the enumerations leave the list of
    /// such a code empty. The canonical test walks on from the parent's
    /// walk, and only a code that passes it is built.
    ///
    /// Returns the code as a fragment, whose list is the raw list
    /// truncated to `max_embeddings` and deduplicated by node set, with
    /// its walk on top of the path. Its extensions are enumerated from
    /// the raw list: that is the fragment's own list when dedup dropped
    /// nothing, and is returned beside it otherwise.
    fn take_up(
        &mut self,
        parent: Option<&Pattern>,
        tuple: DfsTuple,
        mut embeddings: Vec<Embedding>,
    ) -> Option<(Fragment, Option<Vec<Embedding>>)> {
        let config = self.config;
        let tracer = &*config.tracer;
        tracer.count("mine.codes", 1);
        if embeddings.len() < config.min_support {
            tracer.count("mine.prune_infrequent", 1);
            return None;
        }
        tracer.count("mine.canon_checks", 1);
        let (minimal, compared) = self.walks.push_if_min(parent, tuple);
        tracer.count("mine.canon_tuples", compared);
        if !minimal {
            tracer.count("mine.prune_non_canonical", 1);
            return None;
        }
        let pattern = parent.map_or_else(|| Pattern::root(tuple), |p| p.extend(tuple));
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
        let (deduped, raw) = match dedup_by_node_set(&embeddings) {
            None => (embeddings, None),
            Some(deduped) => (deduped, Some(embeddings)),
        };
        if !support_at_least_traced(&deduped, config.support, config.min_support, tracer) {
            tracer.count("mine.prune_infrequent", 1);
            self.walks.pop();
            return None;
        }
        let fragment = Fragment {
            pattern,
            embeddings: deduped,
        };
        Some((fragment, raw))
    }

    /// Visits a pattern the gates let through and grows its children from
    /// `raw`, or from the fragment's own list when that is `None` (see
    /// [`take_up`](Search::take_up)); returns `false` when the pattern
    /// budget is exhausted (abort the run).
    fn grow(&mut self, fragment: Fragment, raw: Option<Vec<Embedding>>) -> bool {
        let config = self.config;
        let tracer = &*config.tracer;
        if self.budget == 0 {
            // The one code a round that runs out of budget stops on. The
            // callers' `mine.budget_exhausted` event marks the same stop, but
            // identity rows read only count-only counters.
            tracer.count("mine.prune_budget", 1);
            return false;
        }
        self.budget -= 1;
        // Exactly one of {subtree_skipped, stopped_max_nodes, expanded} is
        // counted per visited pattern, so the identity
        //   patterns_visited == expanded + subtree_skipped + stopped_max_nodes
        // holds by construction (`gpa trace-check` asserts it).
        tracer.count("mine.patterns_visited", 1);
        let decision = (self.visit)(&fragment, self.seed);
        if decision == GrowDecision::SkipChildren {
            tracer.count("mine.subtree_skipped", 1);
            return true;
        }
        let pattern = fragment.pattern;
        if pattern.node_count() >= config.max_nodes {
            tracer.count("mine.stopped_max_nodes", 1);
            return true;
        }
        tracer.count("mine.expanded", 1);
        let parents = raw.unwrap_or(fragment.embeddings);
        let children = extensions(&pattern, self.graphs, &parents, config.min_support, tracer);
        // The children's lists are built: the parent's are not read again.
        drop(parents);
        for (tuple, child_embeddings) in children {
            tracer.count("mine.extensions_generated", 1);
            if !self.branch(Some(&pattern), tuple, child_embeddings) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodeset::NodeSet;
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
                build_dfg_from_items(&items)
            })
            .collect();
        InputGraph::from_dfgs(&dfgs, LabelMode::Exact).0
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

    /// The maximum number of pairwise-disjoint sets, by brute force over
    /// every subset.
    fn brute_force_disjoint(sets: &[Vec<u32>]) -> usize {
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
        best
    }

    /// `sets` as embeddings of graph `graph`, one per set.
    fn embeddings_of(graph: u32, sets: &[Vec<u32>]) -> Vec<Embedding> {
        sets.iter()
            .map(|s| Embedding::new(graph, s.clone()))
            .collect()
    }

    /// Holds `count_support` and the frequency gate, at every `min` up
    /// to past the count, to `count`: the known maximum number of
    /// disjoint embeddings.
    fn assert_support(embeddings: &[Embedding], count: usize) {
        assert_eq!(count_support(embeddings, Support::Embeddings), count);
        for min in 0..=count + 2 {
            let gate = support_at_least_traced(embeddings, Support::Embeddings, min, &NoopTracer);
            assert_eq!(gate, count >= min, "min {min}, count {count}");
        }
    }

    /// The adversarial 5-set gadget: a greedy count that takes
    /// equal-length sets in input order picks the two "centre" sets and
    /// blocks the three-set optimum {1,2}, {3,4}, {5,6}.
    fn gadget(base: u32) -> Vec<Vec<u32>> {
        [[2, 3], [4, 5], [1, 2], [3, 4], [5, 6]]
            .iter()
            .map(|pair| pair.iter().map(|n| base + n).collect())
            .collect()
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
            let sets: Vec<Vec<u32>> = f.embeddings.iter().map(Embedding::sorted_nodes).collect();
            let best = brute_force_disjoint(&sets);
            assert!(best >= 3, "reported fragment lacks 3 disjoint embeddings");
            assert_eq!(f.support, best, "support disagrees with brute force");
        }
        // The gadget, on which a greedy gate once reported a support of 3
        // unreachable.
        assert_support(&embeddings_of(0, &gadget(0)), 3);
        // Random sets, in one graph or spread over two.
        let mut state = 0x9e3779b9u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..50 {
            let n = 3 + (rand() % 10) as usize;
            let sets: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let mut s: Vec<u32> =
                        (0..2 + rand() % 3).map(|_| (rand() % 12) as u32).collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let split = if case % 2 == 0 { n } else { n / 2 };
            let (first, second) = sets.split_at(split);
            let mut embeddings = embeddings_of(0, first);
            embeddings.extend(embeddings_of(1, second));
            let count = brute_force_disjoint(first) + brute_force_disjoint(second);
            assert_support(&embeddings, count);
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
        // 19 and 26 gadgets in one graph: 95 and 130 embeddings, the
        // second past the 128 sets the count was once exact for. Each
        // gadget is a collision-graph component of its own, solved
        // exactly: 3 disjoint embeddings per gadget.
        for copies in [19, 26] {
            let sets: Vec<Vec<u32>> = (0..copies).flat_map(|rep| gadget(rep * 10)).collect();
            assert_support(&embeddings_of(0, &sets), 3 * copies as usize);
        }
    }

    /// The search as it was before its gates paid only for what
    /// detection reads: seeds in both orientations, each one
    /// canonical-tested; every code that passes cloned into a node-set
    /// dedup, its support counted on per-graph node-set maps and gated;
    /// extensions enumerated from the raw list.
    mod reference {
        use super::*;
        use crate::dfs_code::DfsTuple;

        /// One visit: the seed index (over minimal seed codes), the code,
        /// the embeddings and the support.
        pub type Visit = (usize, Vec<DfsTuple>, Vec<Embedding>, usize);

        /// The visits in order, and how many visited codes the dedup
        /// dropped a map from.
        pub fn mine(graphs: &[InputGraph], config: &Config) -> (Vec<Visit>, usize) {
            let mut visits = Vec::new();
            let mut dropped = 0;
            let mut budget = config.max_patterns;
            let mut minimal = 0;
            for (tuple, embeddings) in crate::embed::tests::reference::seed_buckets(graphs) {
                let root = Pattern::root(tuple);
                let seed = minimal;
                minimal += usize::from(root.is_min());
                let Some((f, raw)) = take_up(root, embeddings, config) else {
                    continue;
                };
                let mut search = Search {
                    graphs,
                    config,
                    seed,
                    budget: &mut budget,
                    visits: &mut visits,
                    dropped: &mut dropped,
                };
                if !search.grow(&f, &raw) {
                    break;
                }
            }
            (visits, dropped)
        }

        fn take_up(
            pattern: Pattern,
            mut embeddings: Vec<Embedding>,
            config: &Config,
        ) -> Option<(Frequent, Vec<Embedding>)> {
            if embeddings.len() < config.min_support || !pattern.is_min() {
                return None;
            }
            embeddings.truncate(config.max_embeddings);
            let mut seen = HashSet::new();
            let deduped: Vec<Embedding> = embeddings
                .iter()
                .filter(|e| seen.insert((e.graph, e.node_set().clone())))
                .cloned()
                .collect();
            let support = support(&deduped, config.support);
            if support < config.min_support {
                return None;
            }
            let frequent = Frequent {
                pattern,
                embeddings: deduped,
                support,
            };
            Some((frequent, embeddings))
        }

        /// The support of `embeddings`: their graphs, or per graph a
        /// maximum set of disjoint ones on a collision graph built from
        /// cloned node sets.
        fn support(embeddings: &[Embedding], support: Support) -> usize {
            match support {
                Support::Graphs => {
                    let graphs: HashSet<u32> = embeddings.iter().map(|e| e.graph).collect();
                    graphs.len()
                }
                Support::Embeddings => non_overlapping_count_reference(embeddings, &NoopTracer).0,
            }
        }

        struct Search<'a> {
            graphs: &'a [InputGraph],
            config: &'a Config,
            seed: usize,
            budget: &'a mut usize,
            visits: &'a mut Vec<Visit>,
            dropped: &'a mut usize,
        }

        impl Search<'_> {
            fn grow(&mut self, f: &Frequent, raw: &[Embedding]) -> bool {
                if *self.budget == 0 {
                    return false;
                }
                *self.budget -= 1;
                *self.dropped += usize::from(f.embeddings.len() < raw.len());
                let tuples = f.pattern.tuples().to_vec();
                self.visits
                    .push((self.seed, tuples, f.embeddings.clone(), f.support));
                if f.pattern.node_count() >= self.config.max_nodes {
                    return true;
                }
                let children = extensions(
                    &f.pattern,
                    self.graphs,
                    raw,
                    self.config.min_support,
                    &NoopTracer,
                );
                for (tuple, embeddings) in children {
                    let Some((child, child_raw)) =
                        take_up(f.pattern.extend(tuple), embeddings, self.config)
                    else {
                        continue;
                    };
                    if !self.grow(&child, &child_raw) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Graphs side by side as one graph, node ids shifted.
    fn disjoint_union(parts: &[InputGraph]) -> InputGraph {
        let mut labels = Vec::new();
        let mut edges = Vec::new();
        for g in parts {
            let base = labels.len() as u32;
            labels.extend_from_slice(&g.labels);
            edges.extend(g.edges.iter().map(|e| crate::graph::GEdge {
                from: e.from + base,
                to: e.to + base,
                label: e.label,
            }));
        }
        InputGraph::new(labels, edges)
    }

    /// `mine_streaming` visits the codes the reference search visits, in
    /// the same order, from the same seed (numbered over the minimal
    /// one-edge codes), with the same embedding lists, each in graph
    /// order (occurrence selection and detection's bounds walk a list
    /// graph run by graph run), under both
    /// countings at `min_support` 1–3, with and without a budget that
    /// runs out; `mine` reports the support the reference counts. The
    /// databases are seeded random multigraphs and stars, whose
    /// symmetric patterns have many maps per node set, so the dedup
    /// drops maps.
    #[test]
    fn streaming_search_visits_what_the_reference_search_visits() {
        use crate::embed::tests::{random_graphs, star_graph};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x76697369);
        let mut databases: Vec<Vec<InputGraph>> =
            (0..60).map(|_| random_graphs(&mut rng)).collect();
        databases.push(vec![star_graph(5)]);
        databases.push(vec![star_graph(4), star_graph(4), star_graph(4)]);
        databases.push(vec![disjoint_union(&[
            star_graph(3),
            star_graph(3),
            star_graph(3),
        ])]);
        let (mut visits, mut dropped) = (0, 0);
        for (d, graphs) in databases.iter().enumerate() {
            for support in [Support::Graphs, Support::Embeddings] {
                for min_support in 1..=3 {
                    for max_patterns in [usize::MAX, 7] {
                        let config = Config {
                            min_support,
                            support,
                            max_nodes: 5,
                            max_patterns,
                            ..Config::default()
                        };
                        let at = format!("database {d}, {support:?}, min_support {min_support}, budget {max_patterns}");
                        let (want, want_dropped) = reference::mine(graphs, &config);
                        let mut have = Vec::new();
                        mine_streaming(graphs, &config, &mut |f, seed| {
                            assert!(f.embeddings.is_sorted_by_key(|e| e.graph), "{at}");
                            have.push((seed, f.pattern.tuples().to_vec(), f.embeddings.clone()));
                            GrowDecision::Continue
                        });
                        assert_eq!(have.len(), want.len(), "{at}");
                        for (h, w) in have.iter().zip(&want) {
                            assert_eq!((h.0, &h.1, &h.2), (w.0, &w.1, &w.2), "{at}");
                        }
                        let supports: Vec<usize> =
                            mine(graphs, &config).iter().map(|f| f.support).collect();
                        let want_supports: Vec<usize> = want.iter().map(|w| w.3).collect();
                        assert_eq!(supports, want_supports, "{at}");
                        visits += want.len();
                        dropped += want_dropped;
                    }
                }
            }
        }
        assert!(visits > 20_000, "only {visits} visits compared");
        assert!(
            dropped > 1_000,
            "the dedup dropped maps of only {dropped} codes"
        );
    }

    /// Occurrence selection as it was before it walked graph runs: node
    /// sets cloned into a per-graph `BTreeMap`, each graph's collision
    /// graph built and solved, the chosen indices sorted at the end.
    fn non_overlapping_count_reference(
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
            let adj = crate::mis::collision_graph(&sets);
            for local in max_independent_set_traced(&adj, tracer) {
                chosen.push(indices[local]);
            }
        }
        chosen.sort_unstable();
        (chosen.len(), chosen)
    }

    /// On seeded random embedding lists in graph order over up to five
    /// graphs, with nodes drawn from a small universe (so embeddings in
    /// one graph often collide) or without replacement per graph (so
    /// none do), occurrence selection chooses what the reference chooses
    /// and counts the same `mis.*` work.
    #[test]
    fn occurrence_selection_matches_the_reference_on_random_lists() {
        use gpa_trace::CounterTracer;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x6d6973);
        let (mut collided, mut clear) = (0, 0);
        for case in 0..2_000 {
            let disjoint = case % 2 == 0;
            let mut embeddings = Vec::new();
            for graph in 0..rng.gen_range(1..6u32) {
                let mut free: Vec<u32> = (0..24).collect();
                for _ in 0..rng.gen_range(0..7) {
                    let size = rng.gen_range(1..4);
                    let map: Vec<u32> = if disjoint {
                        (0..size)
                            .map(|_| free.swap_remove(rng.gen_range(0..free.len())))
                            .collect()
                    } else {
                        let mut map: Vec<u32> = Vec::new();
                        while map.len() < size {
                            let node = rng.gen_range(0..8);
                            if !map.contains(&node) {
                                map.push(node);
                            }
                        }
                        map
                    };
                    embeddings.push(Embedding::new(graph, map));
                }
            }
            let (want_tracer, have_tracer) = (CounterTracer::new(), CounterTracer::new());
            let want = non_overlapping_count_reference(&embeddings, &want_tracer);
            let borrowed: Vec<&Embedding> = embeddings.iter().collect();
            let have = non_overlapping_count_traced(&borrowed, &have_tracer);
            assert_eq!(have, want, "{embeddings:?}");
            assert_eq!(
                have_tracer.counters(),
                want_tracer.counters(),
                "{embeddings:?}"
            );
            if have.0 < embeddings.len() {
                collided += 1;
            } else if !embeddings.is_empty() {
                clear += 1;
            }
        }
        assert!(
            collided > 500 && clear > 500,
            "{collided} with a collision, {clear} without"
        );
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
