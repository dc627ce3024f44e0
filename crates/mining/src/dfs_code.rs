//! Canonical DFS codes for directed labelled graphs (gSpan's canonical
//! form, extended with an arc-direction flag — the paper's Fig. 7).
//!
//! A pattern is a list of [`DfsTuple`]s, each describing one edge in the
//! order it was attached during the depth-first construction. The
//! *minimal* code over all possible constructions is the canonical form;
//! [`is_min`](Pattern::is_min) tests minimality by replaying the code
//! over the pattern's own graph and failing at the first realizable
//! tuple smaller than the stored one.

use std::cmp::Ordering;

/// One edge of a DFS code.
///
/// `from`/`to` are DFS discovery indices. A *forward* tuple has
/// `to == from_max + 1` (it discovers a new node); a *backward* tuple has
/// `to < from`. `outgoing` records the arc direction: `true` when the
/// graph arc runs from the `from` node to the `to` node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct DfsTuple {
    /// DFS index the edge is attached at.
    pub from: u16,
    /// DFS index of the other endpoint.
    pub to: u16,
    /// Interned label of the `from` node.
    pub from_label: u32,
    /// Interned label of the `to` node.
    pub to_label: u32,
    /// Arc direction relative to (from, to): `true` = `from → to`.
    pub outgoing: bool,
    /// Edge label (dependence-kind mask).
    pub edge_label: u8,
}

impl DfsTuple {
    /// Whether this is a forward (node-discovering) tuple.
    pub fn is_forward(&self) -> bool {
        self.to > self.from
    }
}

/// gSpan's total order on DFS tuples (structure first, then labels).
pub fn tuple_cmp(a: &DfsTuple, b: &DfsTuple) -> Ordering {
    let structural = match (a.is_forward(), b.is_forward()) {
        (true, true) => a.to.cmp(&b.to).then(b.from.cmp(&a.from)),
        (false, false) => a.from.cmp(&b.from).then(a.to.cmp(&b.to)),
        // Backward (i, _) precedes forward (_, j) iff i < j.
        (false, true) => {
            if a.from < b.to {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        (true, false) => {
            if a.to <= b.from {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
    };
    structural
        .then_with(|| a.from_label.cmp(&b.from_label))
        // Incoming arcs order before outgoing ones (arbitrary but fixed).
        .then_with(|| a.outgoing.cmp(&b.outgoing))
        .then_with(|| a.edge_label.cmp(&b.edge_label))
        .then_with(|| a.to_label.cmp(&b.to_label))
}

impl PartialOrd for DfsTuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DfsTuple {
    fn cmp(&self, other: &Self) -> Ordering {
        tuple_cmp(self, other)
    }
}

/// A pattern: a DFS code plus derived per-node data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pattern {
    tuples: Vec<DfsTuple>,
    node_labels: Vec<u32>,
    rightmost_path: Vec<u16>,
}

impl Pattern {
    /// Creates a single-edge pattern from its first tuple.
    ///
    /// # Panics
    ///
    /// Panics if the tuple is not `(0, 1)`.
    pub fn root(tuple: DfsTuple) -> Pattern {
        assert_eq!((tuple.from, tuple.to), (0, 1), "root tuple must be (0, 1)");
        Pattern {
            tuples: vec![tuple],
            node_labels: vec![tuple.from_label, tuple.to_label],
            rightmost_path: vec![0, 1],
        }
    }

    /// The tuples of the code, in order.
    pub fn tuples(&self) -> &[DfsTuple] {
        &self.tuples
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.tuples.len()
    }

    /// The label of a DFS node index.
    pub fn node_label(&self, i: usize) -> u32 {
        self.node_labels[i]
    }

    /// DFS indices on the rightmost path, root first.
    pub fn rightmost_path(&self) -> &[u16] {
        &self.rightmost_path
    }

    /// The rightmost (most recently discovered) node.
    pub fn rightmost(&self) -> u16 {
        *self
            .rightmost_path
            .last()
            .expect("patterns always have at least two nodes")
    }

    /// Whether the pattern has an edge (either direction) between the two
    /// DFS indices.
    pub fn has_edge(&self, a: u16, b: u16) -> bool {
        joins(&self.tuples, a, b)
    }

    /// Extends the pattern with one more tuple.
    ///
    /// # Panics
    ///
    /// Panics if a forward tuple does not attach on the rightmost path or
    /// a backward tuple does not start at the rightmost node.
    pub fn extend(&self, tuple: DfsTuple) -> Pattern {
        let mut child = self.clone();
        if tuple.is_forward() {
            assert_eq!(
                tuple.to as usize,
                self.node_count(),
                "forward tuple must discover the next node"
            );
            assert!(
                self.rightmost_path.contains(&tuple.from),
                "forward tuples attach on the rightmost path"
            );
            child.node_labels.push(tuple.to_label);
            advance_rightmost_path(&mut child.rightmost_path, tuple);
        } else {
            assert_eq!(
                tuple.from,
                self.rightmost(),
                "backward tuples leave the rightmost node"
            );
        }
        child.tuples.push(tuple);
        child
    }

    /// Whether this code is the canonical (minimal) DFS code of its graph.
    ///
    /// Replays the code over the pattern's own graph. A *projection* maps
    /// the DFS indices of a prefix to graph nodes; at every prefix each
    /// projection enumerates its rightmost-path extensions. A realizable
    /// tuple smaller than the stored one means a smaller code exists, so
    /// the walk fails there; otherwise only the projections that realize
    /// the stored tuple carry on to the next prefix. Extensions whose
    /// structure alone orders them after the stored tuple are never
    /// enumerated.
    pub fn is_min(&self) -> bool {
        let graph = PatternGraph::of(self);
        let labels = &self.node_labels;
        // The first tuple: either orientation of any edge.
        let first = self.tuples[0];
        let mut projections: Vec<u16> = Vec::new();
        for a in 0..self.node_count() as u16 {
            for link in graph.links(a) {
                let t = DfsTuple {
                    from: 0,
                    to: 1,
                    from_label: labels[a as usize],
                    to_label: labels[link.node as usize],
                    outgoing: link.outgoing,
                    edge_label: link.label,
                };
                match tuple_cmp(&t, &first) {
                    Ordering::Less => return false,
                    Ordering::Equal => projections.extend_from_slice(&[a, link.node]),
                    Ordering::Greater => {}
                }
            }
        }
        let mut width = 2;
        let mut rightmost_path: Vec<u16> = vec![0, 1];
        let mut backward: Vec<u16> = Vec::new();
        let mut next: Vec<u16> = Vec::new();
        for k in 1..self.tuples.len() {
            let want = self.tuples[k];
            let rightmost = *rightmost_path.last().expect("paths hold the root");
            let path_above = &rightmost_path[..rightmost_path.len() - 1];
            // Backward tuples precede every forward one and order by their
            // target; forward tuples order deepest attachment first.
            backward.clear();
            backward.extend(path_above.iter().copied().filter(|&v| {
                (want.is_forward() || v <= want.to) && !joins(&self.tuples[..k], rightmost, v)
            }));
            let forward: &[u16] = if want.is_forward() {
                &rightmost_path[rightmost_path.partition_point(|&u| u < want.from)..]
            } else {
                &[]
            };
            next.clear();
            for p in projections.chunks_exact(width) {
                for &v in &backward {
                    let Some(link) = graph
                        .links(p[rightmost as usize])
                        .iter()
                        .find(|l| l.node == p[v as usize])
                    else {
                        continue;
                    };
                    let t = DfsTuple {
                        from: rightmost,
                        to: v,
                        from_label: labels[rightmost as usize],
                        to_label: labels[v as usize],
                        outgoing: link.outgoing,
                        edge_label: link.label,
                    };
                    match tuple_cmp(&t, &want) {
                        Ordering::Less => return false,
                        Ordering::Equal => next.extend_from_slice(p),
                        Ordering::Greater => {}
                    }
                }
                for &u in forward {
                    for link in graph.links(p[u as usize]) {
                        if p.contains(&link.node) {
                            continue;
                        }
                        let t = DfsTuple {
                            from: u,
                            to: width as u16,
                            from_label: labels[u as usize],
                            to_label: labels[link.node as usize],
                            outgoing: link.outgoing,
                            edge_label: link.label,
                        };
                        match tuple_cmp(&t, &want) {
                            Ordering::Less => return false,
                            Ordering::Equal => {
                                next.extend_from_slice(p);
                                next.push(link.node);
                            }
                            Ordering::Greater => {}
                        }
                    }
                }
            }
            assert!(
                !next.is_empty(),
                "stored code must be realizable in its own graph"
            );
            std::mem::swap(&mut projections, &mut next);
            if want.is_forward() {
                width += 1;
                advance_rightmost_path(&mut rightmost_path, want);
            }
        }
        true
    }
}

/// Whether the tuples hold an edge (either direction) between two DFS
/// indices.
fn joins(tuples: &[DfsTuple], a: u16, b: u16) -> bool {
    tuples
        .iter()
        .any(|t| (t.from == a && t.to == b) || (t.from == b && t.to == a))
}

/// Cuts the rightmost path below a forward tuple's attachment point and
/// appends the node it discovers.
fn advance_rightmost_path(path: &mut Vec<u16>, tuple: DfsTuple) {
    let cut = path
        .iter()
        .position(|&v| v == tuple.from)
        .expect("attachment point is on the rightmost path");
    path.truncate(cut + 1);
    path.push(tuple.to);
}

/// One end of a pattern edge, as seen from the node it is listed under.
#[derive(Clone, Copy)]
struct Link {
    /// The DFS index at the other end.
    node: u16,
    /// Whether the arc leaves the listing node.
    outgoing: bool,
    /// Edge label.
    label: u8,
}

/// A pattern's own graph, with each node's links in one flat array.
struct PatternGraph {
    /// Node `i`'s links are `links[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    links: Vec<Link>,
}

impl PatternGraph {
    fn of(pattern: &Pattern) -> PatternGraph {
        let n = pattern.node_count();
        let mut start = vec![0usize; n + 1];
        for t in &pattern.tuples {
            start[t.from as usize + 1] += 1;
            start[t.to as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut links = vec![
            Link {
                node: 0,
                outgoing: false,
                label: 0,
            };
            2 * pattern.tuples.len()
        ];
        for t in &pattern.tuples {
            links[fill[t.from as usize]] = Link {
                node: t.to,
                outgoing: t.outgoing,
                label: t.edge_label,
            };
            fill[t.from as usize] += 1;
            links[fill[t.to as usize]] = Link {
                node: t.from,
                outgoing: !t.outgoing,
                label: t.edge_label,
            };
            fill[t.to as usize] += 1;
        }
        PatternGraph { start, links }
    }

    fn links(&self, node: u16) -> &[Link] {
        &self.links[self.start[node as usize]..self.start[node as usize + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{extensions, seed_buckets, Embedding};
    use crate::graph::{GEdge, InputGraph};
    use gpa_trace::NoopTracer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pattern as an [`InputGraph`] (DFS indices become node indices).
    fn to_input_graph(pattern: &Pattern) -> InputGraph {
        let edges = pattern
            .tuples
            .iter()
            .map(|t| {
                let (from, to) = if t.outgoing {
                    (t.from, t.to)
                } else {
                    (t.to, t.from)
                };
                GEdge {
                    from: from as u32,
                    to: to as u32,
                    label: t.edge_label,
                }
            })
            .collect();
        InputGraph::new(pattern.node_labels.clone(), edges)
    }

    /// The reference canonicality check: runs the general extension
    /// engine against the pattern's own graph, and at every prefix the
    /// stored tuple must equal the smallest realizable extension tuple.
    fn is_min_reference(pattern: &Pattern) -> bool {
        let graph = to_input_graph(pattern);
        let graphs = std::slice::from_ref(&graph);
        let (min_tuple, embeds) = seed_buckets(graphs, 1, &NoopTracer)
            .into_iter()
            .next()
            .expect("patterns have at least one edge");
        if tuple_cmp(&min_tuple, &pattern.tuples[0]) == Ordering::Less {
            return false;
        }
        assert_eq!(
            min_tuple, pattern.tuples[0],
            "stored code must be realizable"
        );
        let mut current = Pattern::root(min_tuple);
        let mut embeddings: Vec<Embedding> = embeds;
        for k in 1..pattern.tuples.len() {
            let exts = extensions(&current, graphs, &embeddings, 1, &NoopTracer);
            let (min_tuple, next) = exts.into_iter().next().expect("prefix is extensible");
            match tuple_cmp(&min_tuple, &pattern.tuples[k]) {
                Ordering::Less => return false,
                Ordering::Equal => {}
                Ordering::Greater => panic!("stored code must be realizable in its own graph"),
            }
            embeddings = next;
            current = current.extend(min_tuple);
        }
        true
    }

    fn t(from: u16, to: u16, fl: u32, tl: u32, out: bool) -> DfsTuple {
        DfsTuple {
            from,
            to,
            from_label: fl,
            to_label: tl,
            outgoing: out,
            edge_label: 1,
        }
    }

    #[test]
    fn tuple_order_forward_backward() {
        // forward (0,1) < backward (1,0)
        assert_eq!(
            tuple_cmp(&t(0, 1, 0, 0, true), &t(1, 0, 0, 0, true)),
            Ordering::Less
        );
        // backward (1,0) < forward (1,2)
        assert_eq!(
            tuple_cmp(&t(1, 0, 0, 0, true), &t(1, 2, 0, 0, true)),
            Ordering::Less
        );
        // deeper forward first when same target: (2,3) < (1,3)? No — same
        // `to`, larger `from` first: (2,3) < (1,3).
        assert_eq!(
            tuple_cmp(&t(2, 3, 0, 0, true), &t(1, 3, 0, 0, true)),
            Ordering::Less
        );
        // forward discovery order: (0,1) < (1,2).
        assert_eq!(
            tuple_cmp(&t(0, 1, 0, 0, true), &t(1, 2, 0, 0, true)),
            Ordering::Less
        );
        // label tiebreak: smaller from_label first.
        assert_eq!(
            tuple_cmp(&t(0, 1, 0, 5, true), &t(0, 1, 1, 0, true)),
            Ordering::Less
        );
        // direction tiebreak: incoming before outgoing.
        assert_eq!(
            tuple_cmp(&t(0, 1, 0, 0, false), &t(0, 1, 0, 0, true)),
            Ordering::Less
        );
    }

    #[test]
    fn extend_tracks_rightmost_path() {
        // 0 →(f) 1 →(f) 2, then forward from 0 to 3.
        let p = Pattern::root(t(0, 1, 0, 1, true));
        let p = p.extend(t(1, 2, 1, 2, true));
        assert_eq!(p.rightmost_path(), &[0, 1, 2]);
        let p = p.extend(t(0, 3, 0, 3, true));
        assert_eq!(p.rightmost_path(), &[0, 3]);
        assert_eq!(p.node_count(), 4);
        assert!(p.has_edge(0, 1));
        assert!(!p.has_edge(1, 3));
    }

    #[test]
    fn min_check_rejects_non_canonical_orientation() {
        // Edge A→B with labels A=0, B=1. Starting at A gives
        // (0,1,0,out,1). Starting at B gives (0,1,1,in,0) — larger
        // from_label, so non-minimal.
        let good = Pattern::root(t(0, 1, 0, 1, true));
        let bad = Pattern::root(DfsTuple {
            from: 0,
            to: 1,
            from_label: 1,
            to_label: 0,
            outgoing: false,
            edge_label: 1,
        });
        assert!(good.is_min());
        assert!(!bad.is_min());
    }

    #[test]
    fn min_check_on_path_graph() {
        // Labels 2 →(out) 0 →(out) 1. The canonical code starts at the
        // smallest achievable from_label.
        // Built one way: root (0,1): from node "2"? from_label 2 … any
        // construction starting from label 2 is non-minimal because one
        // starting from 0 exists (as incoming arc from 2? tuple
        // (0,1,0,in,2) has from_label 0 < 2).
        let start_at_two = Pattern::root(DfsTuple {
            from: 0,
            to: 1,
            from_label: 2,
            to_label: 0,
            outgoing: true,
            edge_label: 1,
        })
        .extend(DfsTuple {
            from: 1,
            to: 2,
            from_label: 0,
            to_label: 1,
            outgoing: true,
            edge_label: 1,
        });
        assert!(!start_at_two.is_min());
        // The canonical construction starts at the label-0 node with its
        // *incoming* arc (incoming orders before outgoing), then adds the
        // outgoing arc to label 1 from the root.
        let canonical = Pattern::root(DfsTuple {
            from: 0,
            to: 1,
            from_label: 0,
            to_label: 2,
            outgoing: false,
            edge_label: 1,
        })
        .extend(DfsTuple {
            from: 0,
            to: 2,
            from_label: 0,
            to_label: 1,
            outgoing: true,
            edge_label: 1,
        });
        assert!(canonical.is_min());
        // Starting with the outgoing arc instead is not canonical.
        let outgoing_first = Pattern::root(DfsTuple {
            from: 0,
            to: 1,
            from_label: 0,
            to_label: 1,
            outgoing: true,
            edge_label: 1,
        })
        .extend(DfsTuple {
            from: 0,
            to: 2,
            from_label: 0,
            to_label: 2,
            outgoing: false,
            edge_label: 1,
        });
        assert!(!outgoing_first.is_min());
    }

    /// Every code rightmost-path extension reaches from both orientations
    /// of every arc of random directed labelled graphs — canonical or not
    /// — gets the same verdict from the projection walk as from the
    /// reference engine.
    #[test]
    fn is_min_matches_reference_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0x6d696e);
        let mut checked = 0usize;
        let mut canonical = 0usize;
        let mut non_minimal_roots = 0usize;
        for _ in 0..60 {
            let n = rng.gen_range(2..7u32);
            let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3u32)).collect();
            let mut edges = Vec::new();
            for from in 0..n {
                for to in 0..n {
                    if from != to && rng.gen_bool(0.35) {
                        edges.push(GEdge {
                            from,
                            to,
                            label: rng.gen_range(1..3u8),
                        });
                    }
                }
            }
            let graph = InputGraph::new(labels, edges);
            let graphs = std::slice::from_ref(&graph);
            // The seeds list each arc in its minimal orientation; the
            // reversed roots, never minimal, are built here.
            let mut stack: Vec<(Pattern, Vec<Embedding>)> = Vec::new();
            for (t, e) in seed_buckets(graphs, 1, &NoopTracer) {
                let reversed = DfsTuple {
                    from_label: t.to_label,
                    to_label: t.from_label,
                    outgoing: !t.outgoing,
                    ..t
                };
                let flipped = e
                    .iter()
                    .map(|e| Embedding::new(e.graph, vec![e.map[1], e.map[0]]))
                    .collect();
                stack.push((Pattern::root(t), e));
                stack.push((Pattern::root(reversed), flipped));
            }
            stack.sort_by_key(|(p, _)| p.tuples[0]);
            let mut budget = 3000;
            while let Some((pattern, embeddings)) = stack.pop() {
                let fast = pattern.is_min();
                non_minimal_roots += usize::from(pattern.edge_count() == 1 && !fast);
                assert_eq!(
                    fast,
                    is_min_reference(&pattern),
                    "verdicts differ on {:?}",
                    pattern.tuples()
                );
                checked += 1;
                canonical += usize::from(fast);
                budget -= 1;
                if budget == 0 {
                    break;
                }
                if pattern.node_count() < 6 {
                    for (t, e) in extensions(&pattern, graphs, &embeddings, 1, &NoopTracer) {
                        stack.push((pattern.extend(t), e));
                    }
                }
            }
        }
        assert!(checked > 10_000, "only {checked} codes checked");
        assert!(canonical > 0 && canonical < checked);
        assert!(non_minimal_roots > 0);
    }
}
