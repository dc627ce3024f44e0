//! Embedding lists and rightmost-path extension.
//!
//! Unlike classical gSpan, which re-runs subgraph isomorphism to count
//! support, this engine carries every embedding along the search (the
//! style of MoFa/Gaston): extensions are enumerated by scanning the
//! embeddings, which is what makes Edgar's occurrence counting possible.
//!
//! Both enumerations build embeddings lazily: they list every expansion
//! as a record of its tuple, its source and the node it adds, group the
//! records by tuple, and build the embeddings of a tuple only when it has
//! at least `min_support` records.

use std::collections::HashSet;

use gpa_trace::Tracer;

use crate::dfs_code::{DfsTuple, Pattern};
use crate::graph::InputGraph;
use crate::nodeset::NodeSet;

/// One occurrence of a pattern in an input graph: `map[dfs_index]` is the
/// graph node playing that pattern role.
///
/// Alongside the role-ordered `map`, every embedding carries its node set
/// as a [`NodeSet`] bitset, kept in sync by construction: membership
/// tests are a bit probe, overlap tests a word-wise `AND`, and the
/// node-set views ([`sorted_nodes`](Embedding::sorted_nodes),
/// [`node_set`](Embedding::node_set)) cost no sort.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Embedding {
    /// Index of the graph within the database.
    pub graph: u32,
    /// DFS index → graph node.
    pub map: Vec<u32>,
    nodes: NodeSet,
}

impl Embedding {
    /// Creates an embedding from its graph index and role map.
    pub fn new(graph: u32, map: Vec<u32>) -> Embedding {
        let nodes = map.iter().copied().collect();
        Embedding { graph, map, nodes }
    }

    /// Whether the graph node is already used by this embedding.
    pub fn contains(&self, node: u32) -> bool {
        self.nodes.contains(node)
    }

    /// The embedding's node set as a bitset.
    pub fn node_set(&self) -> &NodeSet {
        &self.nodes
    }

    /// The node set as a sorted vector (embeddings never repeat a node,
    /// so the set view is lossless).
    pub fn sorted_nodes(&self) -> Vec<u32> {
        self.nodes.to_sorted_vec()
    }

    /// The embedding extended by one more graph node in the next role.
    fn extended(&self, node: u32) -> Embedding {
        let mut map = Vec::with_capacity(self.map.len() + 1);
        map.extend_from_slice(&self.map);
        map.push(node);
        let mut nodes = self.nodes.clone();
        nodes.insert(node);
        Embedding {
            graph: self.graph,
            map,
            nodes,
        }
    }
}

/// Every tuple a search step can take up, in `tuple_cmp` order, each
/// with its embedding list. The list of a tuple with fewer than
/// `min_support` embeddings is left empty: such a tuple can never be
/// frequent, so its embeddings are never built.
pub type Lists = Vec<(DfsTuple, Vec<Embedding>)>;

/// One expansion found by an enumeration: its tuple and two indices. A
/// seed's are its graph and arc; an extension's are its parent embedding
/// and the graph node it adds ([`NO_NODE`] for a backward tuple).
type Record = (DfsTuple, u32, u32);

/// The `Record` node of a backward extension, which adds no node.
const NO_NODE: u32 = u32::MAX;

/// Groups `records` by tuple and builds, with `build`, the embeddings of
/// every group of at least `min_support` records. The sort is stable, so
/// each list keeps the enumeration order of its records. Counts the
/// embeddings built (`mine.embeddings_built`), once per group.
fn group(
    mut records: Vec<Record>,
    min_support: usize,
    tracer: &dyn Tracer,
    mut build: impl FnMut(&[Record]) -> Vec<Embedding>,
) -> Lists {
    records.sort_by_key(|r| r.0);
    records
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let mut embeddings = Vec::new();
            if run.len() >= min_support {
                embeddings = build(run);
                tracer.count("mine.embeddings_built", embeddings.len() as u64);
                // Only repeated records, from parallel arcs, shrink a
                // group below its record count.
                if embeddings.len() < min_support {
                    embeddings.clear();
                }
            }
            (run[0].0, embeddings)
        })
        .collect()
}

/// Enumerates the minimal single-edge codes with their embeddings (see
/// [`Lists`]). Each arc is one embedding, parallel arcs included, in the
/// orientation whose tuple is smaller under `tuple_cmp`: the DFS starts
/// at the endpoint with the smaller label, and at the arc's head when
/// the labels are equal (incoming orders before outgoing). The other
/// orientation's code is never minimal, so it is not listed.
pub fn seed_buckets(graphs: &[InputGraph], min_support: usize, tracer: &dyn Tracer) -> Lists {
    let mut records = Vec::new();
    for (gi, g) in graphs.iter().enumerate() {
        for (ei, e) in g.edges.iter().enumerate() {
            let lf = g.labels[e.from as usize];
            let lt = g.labels[e.to as usize];
            let outgoing = lf < lt;
            let (from_label, to_label) = if outgoing { (lf, lt) } else { (lt, lf) };
            let tuple = DfsTuple {
                from: 0,
                to: 1,
                from_label,
                to_label,
                outgoing,
                edge_label: e.label,
            };
            records.push((tuple, gi as u32, ei as u32));
        }
    }
    group(records, min_support, tracer, |run| {
        run.iter()
            .map(|&(tuple, gi, ei)| {
                let e = graphs[gi as usize].edges[ei as usize];
                let map = if tuple.outgoing {
                    vec![e.from, e.to]
                } else {
                    vec![e.to, e.from]
                };
                Embedding::new(gi, map)
            })
            .collect()
    })
}

/// Enumerates every rightmost-path extension of `pattern` over its
/// embeddings, with the extended embeddings of each extension tuple (see
/// [`Lists`]). No list holds an embedding twice.
///
/// Backward edges leave the rightmost node towards a node on the
/// rightmost path; forward edges attach a new graph node to any node on
/// the rightmost path (deepest first). Arc direction is free in both
/// cases — the tuple records it.
pub fn extensions(
    pattern: &Pattern,
    graphs: &[InputGraph],
    embeddings: &[Embedding],
    min_support: usize,
    tracer: &dyn Tracer,
) -> Lists {
    let rightmost = pattern.rightmost();
    let rm_path = pattern.rightmost_path();
    let next_index = pattern.node_count() as u16;
    // A repeated parent only repeats its first copy's extensions. Lists
    // built here hold no repeats; a seed list holds one copy of an
    // embedding per parallel arc.
    let mut seen = HashSet::new();
    let mut records = Vec::new();
    for (pi, emb) in embeddings.iter().enumerate() {
        if pattern.edge_count() == 1 && !seen.insert((emb.graph, emb.map[0], emb.map[1])) {
            continue;
        }
        let pi = pi as u32;
        let g = &graphs[emb.graph as usize];
        let rm_node = emb.map[rightmost as usize];
        // Backward extensions: rightmost node ↔ earlier rightmost-path
        // node, edge not yet in the pattern.
        for &v in &rm_path[..rm_path.len() - 1] {
            if pattern.has_edge(rightmost, v) {
                continue;
            }
            let v_node = emb.map[v as usize];
            let tuple = |outgoing, edge_label| DfsTuple {
                from: rightmost,
                to: v,
                from_label: pattern.node_label(rightmost as usize),
                to_label: pattern.node_label(v as usize),
                outgoing,
                edge_label,
            };
            for &ei in &g.out_edges[rm_node as usize] {
                let e = g.edges[ei as usize];
                if e.to == v_node {
                    records.push((tuple(true, e.label), pi, NO_NODE));
                }
            }
            for &ei in &g.in_edges[rm_node as usize] {
                let e = g.edges[ei as usize];
                if e.from == v_node {
                    records.push((tuple(false, e.label), pi, NO_NODE));
                }
            }
        }
        // Forward extensions from every rightmost-path node.
        for &u in rm_path {
            let u_node = emb.map[u as usize];
            for (outgoing, arcs) in [
                (true, &g.out_edges[u_node as usize]),
                (false, &g.in_edges[u_node as usize]),
            ] {
                for &ei in arcs {
                    let e = g.edges[ei as usize];
                    let node = if outgoing { e.to } else { e.from };
                    if emb.contains(node) {
                        continue;
                    }
                    let tuple = DfsTuple {
                        from: u,
                        to: next_index,
                        from_label: pattern.node_label(u as usize),
                        to_label: g.labels[node as usize],
                        outgoing,
                        edge_label: e.label,
                    };
                    records.push((tuple, pi, node));
                }
            }
        }
    }
    group(records, min_support, tracer, |run| {
        let mut built = Vec::with_capacity(run.len());
        for (i, &(_, pi, node)) in run.iter().enumerate() {
            // One parent's records of a tuple are contiguous; parallel
            // arcs repeat one of them.
            let mut same_parent = run[..i].iter().rev().take_while(|r| r.1 == pi);
            if same_parent.any(|r| r.2 == node) {
                continue;
            }
            let parent = &embeddings[pi as usize];
            built.push(if node == NO_NODE {
                parent.clone()
            } else {
                parent.extended(node)
            });
        }
        built
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::GEdge;
    use gpa_trace::{CounterTracer, NoopTracer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// The engine the lazy lists replaced: every expansion builds its
    /// embedding at once into a `BTreeMap` bucket, deduplicated through a
    /// (tuple, graph, node set) map. Kept to hold the lazy lists to.
    pub(crate) mod reference {
        use crate::dfs_code::{DfsTuple, Pattern};
        use crate::embed::Embedding;
        use crate::graph::InputGraph;
        use crate::nodeset::NodeSet;
        use std::collections::{BTreeMap, HashMap};

        pub fn seed_buckets(graphs: &[InputGraph]) -> BTreeMap<DfsTuple, Vec<Embedding>> {
            let mut buckets: BTreeMap<DfsTuple, Vec<Embedding>> = BTreeMap::new();
            for (gi, g) in graphs.iter().enumerate() {
                for e in &g.edges {
                    let lf = g.labels[e.from as usize];
                    let lt = g.labels[e.to as usize];
                    buckets
                        .entry(DfsTuple {
                            from: 0,
                            to: 1,
                            from_label: lf,
                            to_label: lt,
                            outgoing: true,
                            edge_label: e.label,
                        })
                        .or_default()
                        .push(Embedding::new(gi as u32, vec![e.from, e.to]));
                    buckets
                        .entry(DfsTuple {
                            from: 0,
                            to: 1,
                            from_label: lt,
                            to_label: lf,
                            outgoing: false,
                            edge_label: e.label,
                        })
                        .or_default()
                        .push(Embedding::new(gi as u32, vec![e.to, e.from]));
                }
            }
            buckets
        }

        #[derive(Default)]
        struct Buckets {
            by_tuple: BTreeMap<DfsTuple, Vec<Embedding>>,
            seen: HashMap<(DfsTuple, u32, NodeSet), Vec<u32>>,
        }

        impl Buckets {
            fn push(&mut self, tuple: DfsTuple, emb: &Embedding, added: Option<u32>) {
                let mut nodes = emb.node_set().clone();
                if let Some(n) = added {
                    nodes.insert(n);
                }
                let bucket = self.by_tuple.entry(tuple).or_default();
                let slots = self.seen.entry((tuple, emb.graph, nodes)).or_default();
                let duplicate = slots.iter().any(|&i| {
                    let have = &bucket[i as usize].map;
                    match added {
                        None => have == &emb.map,
                        Some(n) => {
                            have.len() == emb.map.len() + 1
                                && have[..emb.map.len()] == emb.map[..]
                                && have[emb.map.len()] == n
                        }
                    }
                });
                if duplicate {
                    return;
                }
                slots.push(bucket.len() as u32);
                bucket.push(match added {
                    None => emb.clone(),
                    Some(n) => emb.extended(n),
                });
            }
        }

        pub fn extensions(
            pattern: &Pattern,
            graphs: &[InputGraph],
            embeddings: &[Embedding],
        ) -> BTreeMap<DfsTuple, Vec<Embedding>> {
            let mut buckets = Buckets::default();
            let rightmost = pattern.rightmost();
            let rm_path = pattern.rightmost_path();
            let next_index = pattern.node_count() as u16;
            for emb in embeddings {
                let g = &graphs[emb.graph as usize];
                let rm_node = emb.map[rightmost as usize];
                for &v in &rm_path[..rm_path.len() - 1] {
                    if pattern.has_edge(rightmost, v) {
                        continue;
                    }
                    let v_node = emb.map[v as usize];
                    for &ei in &g.out_edges[rm_node as usize] {
                        let e = g.edges[ei as usize];
                        if e.to == v_node {
                            let t = DfsTuple {
                                from: rightmost,
                                to: v,
                                from_label: pattern.node_label(rightmost as usize),
                                to_label: pattern.node_label(v as usize),
                                outgoing: true,
                                edge_label: e.label,
                            };
                            buckets.push(t, emb, None);
                        }
                    }
                    for &ei in &g.in_edges[rm_node as usize] {
                        let e = g.edges[ei as usize];
                        if e.from == v_node {
                            let t = DfsTuple {
                                from: rightmost,
                                to: v,
                                from_label: pattern.node_label(rightmost as usize),
                                to_label: pattern.node_label(v as usize),
                                outgoing: false,
                                edge_label: e.label,
                            };
                            buckets.push(t, emb, None);
                        }
                    }
                }
                for &u in rm_path {
                    let u_node = emb.map[u as usize];
                    for &ei in &g.out_edges[u_node as usize] {
                        let e = g.edges[ei as usize];
                        if emb.contains(e.to) {
                            continue;
                        }
                        let t = DfsTuple {
                            from: u,
                            to: next_index,
                            from_label: pattern.node_label(u as usize),
                            to_label: g.labels[e.to as usize],
                            outgoing: true,
                            edge_label: e.label,
                        };
                        buckets.push(t, emb, Some(e.to));
                    }
                    for &ei in &g.in_edges[u_node as usize] {
                        let e = g.edges[ei as usize];
                        if emb.contains(e.from) {
                            continue;
                        }
                        let t = DfsTuple {
                            from: u,
                            to: next_index,
                            from_label: pattern.node_label(u as usize),
                            to_label: g.labels[e.from as usize],
                            outgoing: false,
                            edge_label: e.label,
                        };
                        buckets.push(t, emb, Some(e.from));
                    }
                }
            }
            buckets.by_tuple
        }
    }

    /// A: 0 →(1) 1 →(1) 2 with labels [7, 8, 7].
    fn path_graph() -> InputGraph {
        InputGraph::new(
            vec![7, 8, 7],
            vec![
                GEdge {
                    from: 0,
                    to: 1,
                    label: 1,
                },
                GEdge {
                    from: 1,
                    to: 2,
                    label: 1,
                },
            ],
        )
    }

    /// A star: node 0 (label 1) with an arc to each of `leaves` leaves
    /// (label 2). Every seed embedding lands in one list.
    pub(crate) fn star_graph(leaves: u32) -> InputGraph {
        let labels: Vec<u32> = std::iter::once(1)
            .chain(std::iter::repeat_n(2, leaves as usize))
            .collect();
        let edges: Vec<GEdge> = (1..=leaves)
            .map(|leaf| GEdge {
                from: 0,
                to: leaf,
                label: 1,
            })
            .collect();
        InputGraph::new(labels, edges)
    }

    #[test]
    fn seeds_take_each_arc_in_its_minimal_orientation() {
        let g = path_graph();
        let seeds = seed_buckets(std::slice::from_ref(&g), 1, &NoopTracer);
        // Each arc starts at its label-7 end: 1→2 as (7,in,8) from node
        // 2, 0→1 as (7,out,8) from node 0, and incoming orders first.
        // Their reversals (8,out,7) and (8,in,7) are never minimal.
        let listed: Vec<(bool, Vec<u32>)> = seeds
            .iter()
            .map(|(t, e)| {
                assert_eq!((t.from_label, t.to_label), (7, 8), "{t:?}");
                assert!(Pattern::root(*t).is_min(), "{t:?}");
                assert_eq!(e.len(), 1, "{t:?}");
                (t.outgoing, e[0].map.clone())
            })
            .collect();
        assert_eq!(listed, [(false, vec![2, 1]), (true, vec![0, 1])]);
        // Equal labels start at the arc's head.
        let g = InputGraph::new(
            vec![5, 5],
            vec![GEdge {
                from: 0,
                to: 1,
                label: 1,
            }],
        );
        let seeds = seed_buckets(std::slice::from_ref(&g), 1, &NoopTracer);
        assert_eq!(seeds.len(), 1);
        assert!(!seeds[0].0.outgoing);
        assert_eq!(seeds[0].1[0].map, [1, 0]);
    }

    #[test]
    fn node_set_tracks_map() {
        let e = Embedding::new(0, vec![5, 2, 9]);
        assert!(e.contains(2) && e.contains(5) && e.contains(9));
        assert!(!e.contains(3));
        assert_eq!(e.sorted_nodes(), vec![2, 5, 9]);
        assert_eq!(e.node_set().len(), 3);
        let grown = e.extended(4);
        assert_eq!(grown.map, vec![5, 2, 9, 4]);
        assert_eq!(grown.sorted_nodes(), vec![2, 4, 5, 9]);
        // The parent is untouched.
        assert!(!e.contains(4));
    }

    #[test]
    fn forward_extension_grows_embeddings() {
        let g = path_graph();
        let graphs = std::slice::from_ref(&g);
        let seeds = seed_buckets(graphs, 1, &NoopTracer);
        // Take the seed (7)-out->(8): embedding [0, 1].
        let (tuple, embs) = seeds
            .iter()
            .find(|(t, _)| t.from_label == 7 && t.outgoing && t.to_label == 8)
            .unwrap();
        let pattern = Pattern::root(*tuple);
        let exts = extensions(&pattern, graphs, embs, 1, &NoopTracer);
        // From node 1 (dfs idx 1) we can go forward to node 2.
        let (fwd, new_embs) = exts
            .iter()
            .find(|(t, _)| t.is_forward() && t.to == 2)
            .expect("a forward extension exists");
        assert_eq!(fwd.to_label, 7);
        assert_eq!(new_embs[0].map, vec![0, 1, 2]);
        assert_eq!(new_embs[0].sorted_nodes(), vec![0, 1, 2]);
    }

    #[test]
    fn backward_extension_closes_cycles() {
        // Triangle in the undirected sense: 0→1, 1→2, 0→2.
        let g = InputGraph::new(
            vec![5, 5, 5],
            vec![
                GEdge {
                    from: 0,
                    to: 1,
                    label: 1,
                },
                GEdge {
                    from: 1,
                    to: 2,
                    label: 1,
                },
                GEdge {
                    from: 0,
                    to: 2,
                    label: 1,
                },
            ],
        );
        let graphs = std::slice::from_ref(&g);
        let seeds = seed_buckets(graphs, 1, &NoopTracer);
        // Every arc joins equal labels, so there is one seed: each arc
        // from its head, (5,in,5).
        assert_eq!(seeds.len(), 1);
        let (t0, e0) = &seeds[0];
        assert!(!t0.outgoing);
        assert_eq!(e0.len(), 3);
        // Grow a two-edge chain, then expect a backward tuple (2, 0).
        let p = Pattern::root(*t0);
        let exts = extensions(&p, graphs, e0, 1, &NoopTracer);
        let (t1, e1) = exts
            .iter()
            .find(|(t, _)| t.is_forward() && t.from == 1)
            .expect("chain extension exists");
        let p2 = p.extend(*t1);
        let exts2 = extensions(&p2, graphs, e1, 1, &NoopTracer);
        assert!(
            exts2.iter().any(|(t, _)| !t.is_forward()),
            "triangle produces a backward extension"
        );
    }

    /// Dense lists (a star graph puts every seed embedding in one list)
    /// must stay free of repeats.
    #[test]
    fn dense_bucket_extensions_stay_unique() {
        let g = star_graph(24);
        let graphs = std::slice::from_ref(&g);
        for (t, e) in &seed_buckets(graphs, 1, &NoopTracer) {
            let p = Pattern::root(*t);
            for (xt, xe) in &extensions(&p, graphs, e, 1, &NoopTracer) {
                let unique: HashSet<&Embedding> = xe.iter().collect();
                assert_eq!(unique.len(), xe.len(), "duplicates under {xt:?}");
            }
        }
    }

    #[test]
    fn embeddings_never_reuse_nodes() {
        // Self-loop-free check: in a 2-node graph with one edge, growing
        // beyond 2 nodes is impossible.
        let g = InputGraph::new(
            vec![1, 1],
            vec![GEdge {
                from: 0,
                to: 1,
                label: 1,
            }],
        );
        let graphs = std::slice::from_ref(&g);
        for (t, e) in &seed_buckets(graphs, 1, &NoopTracer) {
            let p = Pattern::root(*t);
            assert!(extensions(&p, graphs, e, 1, &NoopTracer).is_empty());
        }
    }

    /// Random directed labelled graphs over few labels, with repeated and
    /// differently labelled parallel arcs.
    pub(crate) fn random_graphs(rng: &mut StdRng) -> Vec<InputGraph> {
        (0..rng.gen_range(1..3))
            .map(|_| {
                let n = rng.gen_range(2..7u32);
                let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3u32)).collect();
                let mut edges = Vec::new();
                for from in 0..n {
                    for to in 0..n {
                        if from != to && rng.gen_bool(0.35) {
                            let label = rng.gen_range(1..3u8);
                            edges.push(GEdge { from, to, label });
                            if rng.gen_bool(0.15) {
                                let label = if rng.gen_bool(0.5) { label } else { 3 };
                                edges.push(GEdge { from, to, label });
                            }
                        }
                    }
                }
                // Parallel arcs need not sit side by side.
                for i in (1..edges.len()).rev() {
                    edges.swap(i, rng.gen_range(0..i + 1));
                }
                InputGraph::new(labels, edges)
            })
            .collect()
    }

    /// The lazy lists against the reference engine: the same tuples in
    /// the same order; for a tuple with at least `min_support`
    /// embeddings the same embeddings in the same order, for any other
    /// none. The seeds are held to the reference's minimal one-edge
    /// codes; the walk grows every list the reference builds, from the
    /// seeds of both orientations.
    #[test]
    fn lazy_lists_match_the_reference_engine() {
        fn check(
            at: &str,
            lazy: &Lists,
            reference: &std::collections::BTreeMap<DfsTuple, Vec<Embedding>>,
            min_support: usize,
        ) {
            let tuples: Vec<&DfsTuple> = lazy.iter().map(|(t, _)| t).collect();
            assert_eq!(tuples, reference.keys().collect::<Vec<_>>(), "{at}");
            for ((t, have), want) in lazy.iter().zip(reference.values()) {
                if want.len() >= min_support {
                    assert_eq!(have, want, "{at}: {t:?}");
                } else {
                    assert!(have.is_empty(), "{at}: {t:?} has {} embeddings", have.len());
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(0x6c617a79);
        let mut databases: Vec<Vec<InputGraph>> =
            (0..50).map(|_| random_graphs(&mut rng)).collect();
        databases.push(vec![star_graph(24)]);
        let mut compared = 0usize;
        for (d, graphs) in databases.iter().enumerate() {
            let seeds = reference::seed_buckets(graphs);
            let mut minimal = seeds.clone();
            minimal.retain(|t, _| Pattern::root(*t).is_min());
            for min_support in 1..=3 {
                let at = format!("database {d}, min_support {min_support}");
                check(
                    &at,
                    &seed_buckets(graphs, min_support, &NoopTracer),
                    &minimal,
                    min_support,
                );
                let mut stack: Vec<(Pattern, Vec<Embedding>)> = seeds
                    .iter()
                    .map(|(t, e)| (Pattern::root(*t), e.clone()))
                    .collect();
                let mut budget = 400;
                while let Some((pattern, embeddings)) = stack.pop() {
                    let want = reference::extensions(&pattern, graphs, &embeddings);
                    let have = extensions(&pattern, graphs, &embeddings, min_support, &NoopTracer);
                    check(
                        &format!("{at}, {:?}", pattern.tuples()),
                        &have,
                        &want,
                        min_support,
                    );
                    compared += want.len();
                    budget -= 1;
                    if budget == 0 {
                        break;
                    }
                    if pattern.node_count() < 5 {
                        // The star's lists grow factorially with depth.
                        for (t, e) in want.into_iter().filter(|(_, e)| e.len() <= 1000) {
                            stack.push((pattern.extend(t), e));
                        }
                    }
                }
            }
        }
        assert!(compared > 10_000, "only {compared} lists compared");
    }

    /// `mine.embeddings_built` counts the embeddings of the groups built,
    /// and a group below `min_support` builds none. The star's four arcs
    /// form one group, (1,out,2): their reversals are not listed.
    #[test]
    fn built_embeddings_are_counted() {
        let g = star_graph(4);
        let graphs = std::slice::from_ref(&g);
        for (min_support, built) in [(1, 4), (4, 4), (5, 0)] {
            let tracer = CounterTracer::new();
            let seeds = seed_buckets(graphs, min_support, &tracer);
            let listed: usize = seeds.iter().map(|(_, e)| e.len()).sum();
            assert_eq!(listed, built, "min_support {min_support}");
            assert_eq!(
                tracer.counters().get("mine.embeddings_built"),
                built as u64,
                "min_support {min_support}"
            );
        }
    }
}
