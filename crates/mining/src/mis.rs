//! Maximum-independent-set computation on embedding collision graphs
//! (§3.4 of the paper).
//!
//! Overlapping embeddings cannot all be outlined — extracting one destroys
//! the instructions the other needs (Fig. 8). The *collision graph* has
//! one node per embedding and an edge between every two embeddings that
//! share an instruction; the number of outlinable occurrences is the size
//! of a maximum independent set.
//!
//! Everything here is word-parallel: node sets arrive as [`NodeSet`]
//! bitsets (collision = `AND` + early exit), the graph is stored as
//! bitset adjacency rows ([`CollisionGraph`]), and the exact solver is a
//! branch-and-bound in the spirit of Kumlander's vertex-colouring
//! max-clique algorithm over `u128` candidate sets (we bound with a
//! greedy clique-cover of the candidate set, the complement view of his
//! colouring bound). Components of up to 128 vertices are solved exactly
//! — twice the pre-bitset width — with a greedy minimum-degree fallback
//! beyond (such components do not occur in the benchmark corpus).

use gpa_trace::{NoopTracer, Tracer, Value};

use crate::nodeset::NodeSet;

/// A collision graph as bitset adjacency: one row of `words` 64-bit words
/// per vertex, bit `j` of row `i` set iff embeddings `i` and `j` collide.
#[derive(Clone, Debug)]
pub struct CollisionGraph {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl CollisionGraph {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> CollisionGraph {
        let words = n.div_ceil(64).max(1);
        CollisionGraph {
            n,
            words,
            rows: vec![0; n * words],
        }
    }

    /// Builds from classical adjacency lists (test and doc convenience).
    pub fn from_adj_lists(adj: &[Vec<usize>]) -> CollisionGraph {
        let mut g = CollisionGraph::new(adj.len());
        for (i, neighbors) in adj.iter().enumerate() {
            for &j in neighbors {
                g.add_edge(i, j);
            }
        }
        g
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the undirected edge {a, b}.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        self.rows[a * self.words + b / 64] |= 1 << (b % 64);
        self.rows[b * self.words + a / 64] |= 1 << (a % 64);
    }

    /// The adjacency row of `v`.
    pub fn row(&self, v: usize) -> &[u64] {
        &self.rows[v * self.words..(v + 1) * self.words]
    }

    /// Whether the edge {a, b} is present.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.row(a)[b / 64] & (1 << (b % 64)) != 0
    }

    /// Degree of `v` (popcount of its row).
    pub fn degree(&self, v: usize) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The neighbours of `v` in ascending order.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        iter_bits(self.row(v))
    }
}

/// Ascending set-bit indices of a word slice.
fn iter_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        std::iter::successors(if w == 0 { None } else { Some(w) }, |&rest| {
            let rest = rest & (rest - 1);
            if rest == 0 {
                None
            } else {
                Some(rest)
            }
        })
        .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
    })
}

/// Builds the collision graph of a set of embeddings, given each
/// embedding's node set.
///
/// Two embeddings collide when their node sets intersect — a word-wise
/// `AND` with early exit per pair. Embeddings from different input graphs
/// never collide; callers typically partition by graph first.
pub fn collision_graph(node_sets: &[NodeSet]) -> CollisionGraph {
    let n = node_sets.len();
    let mut g = CollisionGraph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if node_sets[i].intersects(&node_sets[j]) {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// Whether two sorted slices share an element (the scalar reference
/// [`NodeSet::intersects`] is checked against in tests).
pub fn sorted_intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Recursion-step budget for the exact solver; components exceeding it
/// fall back to the greedy answer found so far. Exhaustions are traced
/// as `mis.budget_exhausted` events.
const EXACT_BUDGET: u64 = 200_000;

/// Largest component solved exactly by the branch-and-bound (two words of
/// candidate-set bits).
const EXACT_COMPONENT_VERTICES: usize = 128;

/// Computes a maximum independent set of the collision graph, returning
/// the chosen vertex indices (exact for components of at most 128
/// vertices within a branch-and-bound budget, greedy beyond).
///
/// # Examples
///
/// ```
/// use gpa_mining::mis::CollisionGraph;
/// // A path a–b–c: the MIS is {a, c}.
/// let adj = CollisionGraph::from_adj_lists(&[vec![1], vec![0, 2], vec![1]]);
/// let mis = gpa_mining::mis::max_independent_set(&adj);
/// assert_eq!(mis.len(), 2);
/// assert!(mis.contains(&0) && mis.contains(&2));
/// ```
pub fn max_independent_set(adj: &CollisionGraph) -> Vec<usize> {
    max_independent_set_traced(adj, &NoopTracer)
}

/// [`max_independent_set`] with per-component telemetry: component
/// sizes, exact-vs-greedy path taken, branch-and-bound steps, budget
/// exhaustions and greedy-seed-kept events.
pub fn max_independent_set_traced(adj: &CollisionGraph, tracer: &dyn Tracer) -> Vec<usize> {
    let n = adj.len();
    let mut chosen = Vec::new();
    let mut seen = vec![false; n];
    // Split into connected components; solve each independently.
    for start in 0..n {
        if seen[start] {
            continue;
        }
        if adj.row(start).iter().all(|&w| w == 0) {
            seen[start] = true;
            count_isolated(1, tracer);
            chosen.push(start);
            continue;
        }
        let mut component = Vec::new();
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            component.push(v);
            for w in adj.neighbors(v) {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        tracer.count("mis.components", 1);
        if component.len() <= EXACT_COMPONENT_VERTICES {
            tracer.count("mis.component_exact", 1);
            chosen.extend(exact_mis_component(&component, adj, tracer));
        } else {
            // Silent no more: the greedy answer on an oversized component
            // can be arbitrarily far from the maximum.
            tracer.event(
                "mis.greedy_fallback",
                &[("component_size", Value::from(component.len()))],
            );
            chosen.extend(greedy_mis_component(&component, adj));
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Counts `n` isolated vertices as the exact search counts them: each is
/// a component of its own, solved exactly in one branch-and-bound step
/// (the greedy seed already meets the clique-cover bound).
pub(crate) fn count_isolated(n: usize, tracer: &dyn Tracer) {
    let n = n as u64;
    tracer.count("mis.components", n);
    tracer.count("mis.component_exact", n);
    tracer.count("mis.bb_steps", n);
}

/// Exact branch-and-bound MIS on one component (≤ 128 vertices) using
/// `u128` candidate sets and a greedy clique-cover bound.
fn exact_mis_component(
    component: &[usize],
    adj: &CollisionGraph,
    tracer: &dyn Tracer,
) -> Vec<usize> {
    let n = component.len();
    // Global vertex index → local bit position.
    let mut local = vec![u32::MAX; adj.len()];
    for (i, &v) in component.iter().enumerate() {
        local[v] = i as u32;
    }
    // Local adjacency bitmasks.
    let mut nbr = vec![0u128; n];
    for (i, &v) in component.iter().enumerate() {
        for w in adj.neighbors(v) {
            debug_assert!(local[w] != u32::MAX, "component adjacency is closed");
            nbr[i] |= 1 << local[w];
        }
    }
    let full: u128 = if n == 128 { !0 } else { (1u128 << n) - 1 };
    let mut best_set = 0u128;
    let mut best;

    // Greedy clique cover of the candidate set: the number of cliques
    // needed is an upper bound on the independent set inside it.
    let clique_cover_bound = |mut p: u128, nbr: &[u128]| -> u32 {
        let mut cliques = 0u32;
        while p != 0 {
            cliques += 1;
            // Grow one clique greedily.
            let mut candidates = p;
            let mut clique = 0u128;
            while candidates != 0 {
                let v = candidates.trailing_zeros() as usize;
                clique |= 1 << v;
                candidates &= nbr[v];
            }
            p &= !clique;
        }
        cliques
    };

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        p: u128,
        current: u128,
        size: u32,
        nbr: &[u128],
        best: &mut u32,
        best_set: &mut u128,
        bound: &dyn Fn(u128, &[u128]) -> u32,
        budget: &mut u64,
    ) {
        if *budget == 0 {
            return; // Out of budget: keep the best found so far.
        }
        *budget -= 1;
        if p == 0 {
            if size > *best {
                *best = size;
                *best_set = current;
            }
            return;
        }
        if size + bound(p, nbr) <= *best {
            return;
        }
        // Branch on the candidate with most neighbours inside `p`.
        let mut pick = p.trailing_zeros() as usize;
        let mut max_deg = 0u32;
        let mut it = p;
        while it != 0 {
            let v = it.trailing_zeros() as usize;
            it &= it - 1;
            let deg = (nbr[v] & p).count_ones();
            if deg > max_deg {
                max_deg = deg;
                pick = v;
            }
        }
        // Include pick.
        recurse(
            p & !nbr[pick] & !(1 << pick),
            current | (1 << pick),
            size + 1,
            nbr,
            best,
            best_set,
            bound,
            budget,
        );
        // Exclude pick.
        recurse(
            p & !(1 << pick),
            current,
            size,
            nbr,
            best,
            best_set,
            bound,
            budget,
        );
    }

    // Seed with the greedy answer so a budget exhaustion still returns a
    // decent set.
    let greedy_size;
    {
        let greedy = greedy_mis_component(component, adj);
        greedy_size = greedy.len() as u32;
        best = greedy_size;
        for v in greedy {
            best_set |= 1 << local[v];
        }
    }
    let mut budget = EXACT_BUDGET;
    recurse(
        full,
        0,
        0,
        &nbr,
        &mut best,
        &mut best_set,
        &|p, nbr| clique_cover_bound(p, nbr),
        &mut budget,
    );
    tracer.count("mis.bb_steps", EXACT_BUDGET - budget);
    if budget == 0 {
        // The search was cut off: the answer is only a lower bound. When
        // branch-and-bound never improved on the greedy seed, the whole
        // exact budget bought nothing — the paper-visible quality of
        // this component is exactly the greedy heuristic's.
        tracer.event(
            "mis.budget_exhausted",
            &[
                ("component_size", Value::from(n)),
                ("best", Value::from(u64::from(best))),
                ("improved_on_greedy", Value::from(best > greedy_size)),
            ],
        );
        if best == greedy_size {
            tracer.event(
                "mis.greedy_seed_kept",
                &[("component_size", Value::from(n))],
            );
        }
    }
    (0..n)
        .filter(|&i| best_set & (1 << i) != 0)
        .map(|i| component[i])
        .collect()
}

/// Greedy minimum-degree independent set (fallback for huge components,
/// and the seed of the exact search). Removing a chosen vertex's
/// neighbourhood is one word-wise `AND NOT` over the alive mask.
fn greedy_mis_component(component: &[usize], adj: &CollisionGraph) -> Vec<usize> {
    let words = adj.len().div_ceil(64).max(1);
    let mut alive = vec![0u64; words];
    for &v in component {
        alive[v / 64] |= 1 << (v % 64);
    }
    let mut result = Vec::new();
    let mut order: Vec<usize> = component.to_vec();
    order.sort_by_key(|&v| adj.degree(v));
    for v in order {
        if alive[v / 64] & (1 << (v % 64)) == 0 {
            continue;
        }
        result.push(v);
        alive[v / 64] &= !(1 << (v % 64));
        for (wi, w) in adj.row(v).iter().enumerate() {
            alive[wi] &= !w;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> CollisionGraph {
        let mut adj = CollisionGraph::new(n);
        for &(a, b) in edges {
            adj.add_edge(a, b);
        }
        adj
    }

    /// Node set from a slice.
    fn ns(ids: &[u32]) -> NodeSet {
        NodeSet::from(ids)
    }

    /// Brute-force MIS size for cross-checking.
    fn brute_force_mis(adj: &CollisionGraph) -> usize {
        let n = adj.len();
        assert!(n <= 20);
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let ok = (0..n)
                .all(|v| mask & (1 << v) == 0 || adj.neighbors(v).all(|w| mask & (1 << w) == 0));
            if ok {
                best = best.max(mask.count_ones() as usize);
            }
        }
        best
    }

    fn is_independent(set: &[usize], adj: &CollisionGraph) -> bool {
        set.iter()
            .all(|&v| adj.neighbors(v).all(|w| !set.contains(&w)))
    }

    #[test]
    fn empty_and_singleton() {
        assert!(max_independent_set(&CollisionGraph::new(0)).is_empty());
        assert_eq!(max_independent_set(&CollisionGraph::new(1)), vec![0]);
    }

    #[test]
    fn adjacency_rows_and_degrees() {
        let adj = graph_from_edges(70, &[(0, 1), (0, 69), (68, 69)]);
        assert!(adj.has_edge(0, 1) && adj.has_edge(1, 0));
        assert!(adj.has_edge(69, 0) && !adj.has_edge(2, 3));
        assert_eq!(adj.degree(0), 2);
        assert_eq!(adj.neighbors(0).collect::<Vec<_>>(), vec![1, 69]);
        assert_eq!(adj.neighbors(69).collect::<Vec<_>>(), vec![0, 68]);
        let from_lists = CollisionGraph::from_adj_lists(&[vec![1], vec![0], vec![]]);
        assert!(from_lists.has_edge(0, 1) && !from_lists.has_edge(1, 2));
    }

    #[test]
    fn small_known_graphs() {
        // Triangle: MIS = 1.
        let tri = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(max_independent_set(&tri).len(), 1);
        // 5-cycle: MIS = 2.
        let c5 = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(max_independent_set(&c5).len(), 2);
        // Star: MIS = leaves.
        let star = graph_from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(max_independent_set(&star).len(), 5);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        // Deterministic xorshift for reproducibility.
        let mut state = 0x12345678u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [6usize, 10, 14] {
            for _ in 0..30 {
                let mut edges = Vec::new();
                for i in 0..n {
                    for j in (i + 1)..n {
                        if rand() % 100 < 30 {
                            edges.push((i, j));
                        }
                    }
                }
                let adj = graph_from_edges(n, &edges);
                let mis = max_independent_set(&adj);
                assert!(is_independent(&mis, &adj));
                assert_eq!(mis.len(), brute_force_mis(&adj), "n={n}, edges={edges:?}");
            }
        }
    }

    #[test]
    fn collision_graph_from_node_sets() {
        let sets = vec![ns(&[0, 1, 2]), ns(&[2, 3]), ns(&[4, 5]), ns(&[5, 6])];
        let adj = collision_graph(&sets);
        assert_eq!(adj.neighbors(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(adj.neighbors(2).collect::<Vec<_>>(), vec![3]);
        let mis = max_independent_set(&adj);
        assert_eq!(mis.len(), 2);
    }

    #[test]
    fn sorted_intersection() {
        assert!(sorted_intersects(&[1, 3, 5], &[5, 7]));
        assert!(!sorted_intersects(&[1, 3, 5], &[2, 4, 6]));
        assert!(!sorted_intersects(&[], &[1]));
        // The bitset kernel agrees with the scalar reference.
        assert!(ns(&[1, 3, 5]).intersects(&ns(&[5, 7])));
        assert!(!ns(&[1, 3, 5]).intersects(&ns(&[2, 4, 6])));
    }

    /// A 70-leaf star was the old greedy-fallback witness; with the
    /// widened solver it is exact. The fallback now needs > 128 vertices.
    #[test]
    fn components_between_64_and_128_are_exact() {
        use gpa_trace::CounterTracer;
        let mut edges = Vec::new();
        for leaf in 1..71 {
            edges.push((0usize, leaf));
        }
        let adj = graph_from_edges(71, &edges);
        let tracer = CounterTracer::new();
        let mis = max_independent_set_traced(&adj, &tracer);
        assert_eq!(mis.len(), 70);
        let c = tracer.counters();
        assert_eq!(c.get("mis.component_exact"), 1);
        assert_eq!(c.get("mis.greedy_fallback"), 0);
        // An 80-vertex path: MIS is exactly 40, found by the u128 search.
        let path_edges: Vec<(usize, usize)> = (0..79).map(|i| (i, i + 1)).collect();
        let path = graph_from_edges(80, &path_edges);
        let tracer = CounterTracer::new();
        assert_eq!(max_independent_set_traced(&path, &tracer).len(), 40);
        assert_eq!(tracer.counters().get("mis.component_exact"), 1);
    }

    #[test]
    fn oversized_component_traces_greedy_fallback() {
        use gpa_trace::CounterTracer;
        // A star with 130 leaves is one 131-node component: greedy path.
        let mut edges = Vec::new();
        for leaf in 1..131 {
            edges.push((0usize, leaf));
        }
        let adj = graph_from_edges(131, &edges);
        let tracer = CounterTracer::new();
        let mis = max_independent_set_traced(&adj, &tracer);
        assert_eq!(mis.len(), 130);
        let c = tracer.counters();
        assert_eq!(c.get("mis.greedy_fallback"), 1);
        assert_eq!(c.get("mis.components"), 1);
        assert_eq!(c.get("mis.component_exact"), 0);
    }

    /// An isolated vertex skips the branch-and-bound but counts what the
    /// search on its one-vertex component counts: one exact component,
    /// one step.
    #[test]
    fn isolated_vertices_count_what_the_exact_search_counts() {
        use gpa_trace::CounterTracer;
        let adj = graph_from_edges(6, &[(1, 3), (3, 4)]);
        let fast = CounterTracer::new();
        let chosen = max_independent_set_traced(&adj, &fast);
        let searched = CounterTracer::new();
        let mut want = Vec::new();
        for component in [vec![0], vec![1, 3, 4], vec![2], vec![5]] {
            searched.count("mis.components", 1);
            searched.count("mis.component_exact", 1);
            want.extend(exact_mis_component(&component, &adj, &searched));
        }
        want.sort_unstable();
        assert_eq!(chosen, want);
        assert_eq!(chosen, [0, 1, 2, 4, 5]);
        assert_eq!(fast.counters(), searched.counters());
    }

    #[test]
    fn exact_component_counts_bb_steps() {
        use gpa_trace::CounterTracer;
        let c5 = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let tracer = CounterTracer::new();
        assert_eq!(max_independent_set_traced(&c5, &tracer).len(), 2);
        let c = tracer.counters();
        assert_eq!(c.get("mis.component_exact"), 1);
        assert!(c.get("mis.bb_steps") > 0);
        assert_eq!(c.get("mis.budget_exhausted"), 0);
    }
}
