//! Canonical DFS codes for directed labelled graphs (gSpan's canonical
//! form, extended with an arc-direction flag — the paper's Fig. 7).
//!
//! A pattern is a list of [`DfsTuple`]s, each describing one edge in the
//! order it was attached during the depth-first construction. The
//! *minimal* code over all possible constructions is the canonical form;
//! [`is_min`](Pattern::is_min) tests minimality by replaying the code
//! over the pattern's own graph and failing at the first realizable
//! tuple smaller than the stored one. The search keeps the walks of the
//! patterns on its path (`Walks`), so that a child's walk replays only
//! what its new edge adds to its parent's.

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

    /// Extends the pattern with one more tuple. The child's vectors are
    /// allocated at their exact lengths.
    ///
    /// # Panics
    ///
    /// Panics if a forward tuple does not attach on the rightmost path or
    /// a backward tuple does not start at the rightmost node.
    pub fn extend(&self, tuple: DfsTuple) -> Pattern {
        self.assert_extends(tuple);
        let mut tuples = Vec::with_capacity(self.tuples.len() + 1);
        tuples.extend_from_slice(&self.tuples);
        tuples.push(tuple);
        if !tuple.is_forward() {
            return Pattern {
                tuples,
                node_labels: self.node_labels.clone(),
                rightmost_path: self.rightmost_path.clone(),
            };
        }
        let mut node_labels = Vec::with_capacity(self.node_labels.len() + 1);
        node_labels.extend_from_slice(&self.node_labels);
        node_labels.push(tuple.to_label);
        // The path up to the attachment point, then the new node.
        let kept = self.rightmost_path.partition_point(|&u| u <= tuple.from);
        let mut rightmost_path = Vec::with_capacity(kept + 1);
        rightmost_path.extend_from_slice(&self.rightmost_path[..kept]);
        rightmost_path.push(tuple.to);
        Pattern {
            tuples,
            node_labels,
            rightmost_path,
        }
    }

    /// Panics unless `tuple` is a rightmost-path extension of the code.
    fn assert_extends(&self, tuple: DfsTuple) {
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
        } else {
            assert_eq!(
                tuple.from,
                self.rightmost(),
                "backward tuples leave the rightmost node"
            );
        }
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
        self.walk().0
    }

    /// The full walk behind [`is_min`](Pattern::is_min): its verdict, and
    /// the number of tuples it compared. Only the current prefix's
    /// projections are kept.
    fn walk(&self) -> (bool, u64) {
        let mut compared = 0;
        let mut projections: Vec<u16> = Vec::new();
        if first_finds_smaller(
            self.tuples[0],
            &self.tuples,
            &mut compared,
            &mut projections,
        ) {
            return (false, compared);
        }
        let mut graph = PatternGraph::default();
        graph.fill(self.node_count(), self.tuples.iter());
        let labels = &self.node_labels;
        let mut shape = Shape::default();
        shape.start();
        let mut next: Vec<u16> = Vec::new();
        for &want in &self.tuples[1..] {
            let level = shape.level(want);
            next.clear();
            for p in projections.chunks_exact(level.width()) {
                let smaller = level.finds_smaller(&graph, labels, p, &mut compared, |added| {
                    next.extend_from_slice(p);
                    next.extend(added);
                });
                if smaller {
                    return (false, compared);
                }
            }
            assert!(
                !next.is_empty(),
                "stored code must be realizable in its own graph"
            );
            std::mem::swap(&mut projections, &mut next);
            shape.advance(want);
        }
        (true, compared)
    }
}

/// Whether the tuples hold an edge (either direction) between two DFS
/// indices.
fn joins(tuples: &[DfsTuple], a: u16, b: u16) -> bool {
    tuples
        .iter()
        .any(|t| (t.from == a && t.to == b) || (t.from == b && t.to == a))
}

/// A walk's first level: compares either orientation of each of `edges`
/// with the code's first tuple. Returns whether one is smaller, stopping
/// there, and appends each equal one's projection to `projections`.
fn first_finds_smaller(
    first: DfsTuple,
    edges: &[DfsTuple],
    compared: &mut u64,
    projections: &mut Vec<u16>,
) -> bool {
    for end in edges.iter().flat_map(|&edge| End::both(edge)) {
        *compared += 1;
        match tuple_cmp(&end.tuple(0, 1), &first) {
            Ordering::Less => return true,
            Ordering::Equal => projections.extend([end.at, end.other]),
            Ordering::Greater => {}
        }
    }
    false
}

/// Words of projections the walk stack may hold (128 KiB). A pattern
/// whose walk would hold more keeps no lists, and it and its
/// descendants take the full walk.
const WALK_WORDS: usize = 1 << 16;

/// The canonical walks of the patterns on the search path, root first,
/// kept so that a child's walk pays only for what its new edge adds.
///
/// A walk's level `k` lists the projections of the code's first `k + 1`
/// tuples. A child's code is its parent's minimal code plus one tuple
/// for a new edge `e`. A projection of the child's prefix that avoids
/// `e` is one of the parent's, and its extensions other than along `e`
/// exist in the parent's graph, where the parent's walk compared them
/// with the same stored tuple and found none smaller. So the child
/// compares, at each level, only the extension along `e` of each of the
/// parent's projections, and every extension of the projections that
/// use `e`. Its level `k` is the parent's plus the projections that use
/// `e`, and only those are pushed: the pattern at depth `d` (with
/// `d + 1` tuples) holds, at each of its levels `k <= d`, the
/// projections that use its own edge, and its level `k` is the union of
/// what the patterns at depths `k..=d` hold there. The verdicts are the
/// full walk's ([`Pattern::is_min`]).
///
/// Projections cost `width` words each, so the stack holds at most
/// [`WALK_WORDS`] words plus one projection's extensions. A walk that
/// would hold more is dropped, and that pattern and its descendants
/// (whose lists contain its lists) take the full walk.
pub(crate) struct Walks {
    /// The projections of every kept walk, frame by frame and within a
    /// frame level by level, each `width` words.
    words: Vec<u16>,
    /// Level bounds in `words`: level `k` of the frame whose entry in
    /// `frames` is `base` spans `ends[base + k]..ends[base + k + 1]`.
    ends: Vec<usize>,
    /// The first index in `ends` of each kept walk, root first. The
    /// patterns that keep walks are a prefix of the path.
    frames: Vec<usize>,
    /// Patterns on the path, with or without a kept walk.
    depth: usize,
    /// The cap on `words`.
    bound: usize,
    /// The checked code's graph, its labels and its walk's position:
    /// buffers reused by every check.
    graph: PatternGraph,
    labels: Vec<u32>,
    shape: Shape,
    /// A copy of the projection being extended.
    projection: Vec<u16>,
}

impl Walks {
    /// An empty path.
    pub(crate) fn new() -> Walks {
        Walks::with_bound(WALK_WORDS)
    }

    /// An empty path whose stack holds at most `bound` words (plus one
    /// projection's extensions).
    pub(crate) fn with_bound(bound: usize) -> Walks {
        // Sized up front, above what the bundled kernels' paths need, so
        // that these buffers sit below the search's embedding lists on
        // the heap: grown mid-search, they kept freed memory above them
        // resident (crc's `gpa optimize` peaked about 230 KiB higher).
        Walks {
            words: Vec::with_capacity(1024),
            ends: Vec::with_capacity(256),
            frames: Vec::with_capacity(32),
            depth: 0,
            bound,
            graph: PatternGraph::default(),
            labels: Vec::new(),
            shape: Shape::default(),
            projection: Vec::new(),
        }
    }

    /// Whether the top pattern of the path keeps its walk.
    #[cfg(test)]
    pub(crate) fn kept(&self) -> bool {
        self.depth > 0 && self.frames.len() == self.depth
    }

    /// Whether `parent` plus `tuple` is a minimal DFS code (`parent`
    /// `None`: `tuple` is a root), and how many tuples the walk compared.
    /// A minimal code becomes the top of the path, whose walk its
    /// children start from; [`pop`](Walks::pop) it when its subtree is
    /// done.
    ///
    /// # Panics
    ///
    /// Panics unless `parent` is the top of the path (nothing for a
    /// root) and `tuple` extends it on its rightmost path (is `(0, 1)`
    /// for a root).
    pub(crate) fn push_if_min(&mut self, parent: Option<&Pattern>, tuple: DfsTuple) -> (bool, u64) {
        let depth = parent.map_or(0, Pattern::edge_count);
        assert_eq!(self.depth, depth, "the parent is the top of the path");
        match parent {
            Some(parent) => parent.assert_extends(tuple),
            None => assert_eq!((tuple.from, tuple.to), (0, 1), "root tuple must be (0, 1)"),
        }
        let mut compared = 0;
        if self.frames.len() == depth {
            let base = self.ends.len();
            match self.walk_on(parent, tuple, &mut compared) {
                Some(true) => {
                    self.depth += 1;
                    return (true, compared);
                }
                verdict => {
                    self.drop_frame(base);
                    if verdict == Some(false) {
                        return (false, compared);
                    }
                }
            }
        }
        // The full walk: the parent keeps no walk, or this one outgrew
        // the stack.
        let child = parent.map_or_else(|| Pattern::root(tuple), |p| p.extend(tuple));
        let (minimal, full) = child.walk();
        self.depth += usize::from(minimal);
        (minimal, compared + full)
    }

    /// Takes the top pattern off the path.
    pub(crate) fn pop(&mut self) {
        self.depth -= 1;
        if self.frames.len() > self.depth {
            let base = self.frames[self.depth];
            self.drop_frame(base);
        }
    }

    /// Drops the top frame, which starts at `base` in `ends`.
    fn drop_frame(&mut self, base: usize) {
        self.frames.pop();
        self.words.truncate(self.ends[base]);
        self.ends.truncate(base);
    }

    /// Walks `parent` plus `tuple` on from the parent's walk, the top
    /// frame, and pushes the child's frame: its verdict, or `None` when
    /// the frame outgrows the stack. The caller drops the frame of a
    /// code that is not minimal.
    fn walk_on(
        &mut self,
        parent: Option<&Pattern>,
        tuple: DfsTuple,
        compared: &mut u64,
    ) -> Option<bool> {
        let code = parent.map_or(&[][..], Pattern::tuples);
        let depth = code.len();
        self.labels.clear();
        match parent {
            Some(parent) => self.labels.extend_from_slice(&parent.node_labels),
            None => self.labels.push(tuple.from_label),
        }
        if tuple.is_forward() {
            self.labels.push(tuple.to_label);
        }
        let base = self.ends.len();
        self.frames.push(base);
        self.ends.push(self.words.len());
        // Level 0: of the code's edges only e is new.
        let first = code.first().copied().unwrap_or(tuple);
        if first_finds_smaller(first, &[tuple], compared, &mut self.words) {
            return Some(false);
        }
        if self.words.len() > self.bound {
            return None;
        }
        self.ends.push(self.words.len());
        self.shape.start();
        let edge = End::both(tuple);
        let mut graph_filled = false;
        for k in 1..=depth {
            let want = code.get(k).copied().unwrap_or(tuple);
            let level = self.shape.level(want);
            let width = level.width();
            // The parent's projections avoid e: only their extensions
            // along e are new.
            for &frame in &self.frames[k - 1..depth] {
                for at in (self.ends[frame + k - 1]..self.ends[frame + k]).step_by(width) {
                    let Some((t, added)) = level.along(&self.words[at..at + width], &edge) else {
                        continue;
                    };
                    match level.compare(&t, compared) {
                        Ordering::Less => return Some(false),
                        Ordering::Equal => {
                            self.words.extend_from_within(at..at + width);
                            self.words.extend(added);
                            if self.words.len() > self.bound {
                                return None;
                            }
                        }
                        Ordering::Greater => {}
                    }
                }
            }
            // This code's own projections use e: every extension is new.
            let own = self.ends[base + k - 1]..self.ends[base + k];
            if !own.is_empty() && !graph_filled {
                let tuples = code.iter().chain(std::iter::once(&tuple));
                self.graph.fill(self.labels.len(), tuples);
                graph_filled = true;
            }
            for at in own.step_by(width) {
                self.projection.clear();
                self.projection
                    .extend_from_slice(&self.words[at..at + width]);
                let (p, words) = (&self.projection, &mut self.words);
                let smaller =
                    level.finds_smaller(&self.graph, &self.labels, p, compared, |added| {
                        words.extend_from_slice(p);
                        words.extend(added);
                    });
                if smaller {
                    return Some(false);
                }
                if self.words.len() > self.bound {
                    return None;
                }
            }
            self.ends.push(self.words.len());
            self.shape.advance(want);
        }
        assert!(
            self.ends[base + depth] < self.words.len(),
            "stored code must be realizable in its own graph"
        );
        Some(true)
    }
}

/// One end of the edge a child adds: the node there, the node at the
/// other end, and the edge as a tuple taken from this end (whose DFS
/// indices [`tuple`](End::tuple) sets).
#[derive(Clone, Copy)]
struct End {
    at: u16,
    other: u16,
    arc: DfsTuple,
}

impl End {
    /// The edge of `tuple`, seen from its `from` end and from its `to`
    /// end.
    fn both(tuple: DfsTuple) -> [End; 2] {
        let reversed = DfsTuple {
            from_label: tuple.to_label,
            to_label: tuple.from_label,
            outgoing: !tuple.outgoing,
            ..tuple
        };
        [
            End {
                at: tuple.from,
                other: tuple.to,
                arc: tuple,
            },
            End {
                at: tuple.to,
                other: tuple.from,
                arc: reversed,
            },
        ]
    }

    /// The tuple that takes the edge from DFS index `from`, mapped to
    /// this end, to DFS index `to`.
    fn tuple(&self, from: u16, to: u16) -> DfsTuple {
        DfsTuple {
            from,
            to,
            ..self.arc
        }
    }
}

/// A walk's position in the code: the rightmost path of the prefix
/// walked so far, the path nodes its rightmost node already joins, and
/// its node count. It depends only on the code, so a walk advances it
/// tuple by tuple instead of rescanning the tuples at every level.
#[derive(Default)]
struct Shape {
    path: Vec<u16>,
    /// The path nodes the rightmost node joins: the attachment point of
    /// the forward tuple that discovered it, then the targets of the
    /// backward tuples since.
    closed: Vec<u16>,
    /// The current level's backward targets.
    backward: Vec<u16>,
    width: u16,
}

impl Shape {
    /// The position after the first tuple, `(0, 1)`.
    fn start(&mut self) {
        self.path.clear();
        self.path.extend([0, 1]);
        self.closed.clear();
        self.closed.push(0);
        self.width = 2;
    }

    /// The level that compares the prefix's extensions with `want`.
    /// Backward tuples precede every forward one and order by their
    /// target; forward tuples order deepest attachment first.
    fn level(&mut self, want: DfsTuple) -> Level<'_> {
        let (&rightmost, above) = self.path.split_last().expect("paths hold the root");
        let closed = &self.closed;
        self.backward.clear();
        self.backward.extend(
            above
                .iter()
                .copied()
                .filter(|&v| (want.is_forward() || v <= want.to) && !closed.contains(&v)),
        );
        let forward: &[u16] = if want.is_forward() {
            &self.path[self.path.partition_point(|&u| u < want.from)..]
        } else {
            &[]
        };
        Level {
            want,
            rightmost,
            width: self.width,
            backward: &self.backward,
            forward,
        }
    }

    /// Moves past `want`, the tuple the last level compared with.
    fn advance(&mut self, want: DfsTuple) {
        if want.is_forward() {
            // The path up to the attachment point, then the new node.
            let kept = self.path.partition_point(|&u| u <= want.from);
            self.path.truncate(kept);
            self.path.push(want.to);
            self.closed.clear();
            self.closed.push(want.from);
            self.width += 1;
        } else {
            self.closed.push(want.to);
        }
    }
}

/// One level of a walk: the stored tuple, and the extensions of a
/// projection of the prefix whose structure alone does not order them
/// after it.
struct Level<'a> {
    want: DfsTuple,
    /// The prefix's rightmost node.
    rightmost: u16,
    /// The prefix's node count: a projection's words, and the DFS index a
    /// forward tuple discovers.
    width: u16,
    /// The path nodes a backward tuple from the rightmost node may close
    /// to: not joined to it yet, and not after the stored tuple's target.
    backward: &'a [u16],
    /// The path nodes a forward tuple may attach at: the stored tuple's
    /// attachment point and deeper.
    forward: &'a [u16],
}

impl Level<'_> {
    /// Words per projection of the prefix.
    fn width(&self) -> usize {
        usize::from(self.width)
    }

    /// Orders `t` against the stored tuple, counting the comparison.
    fn compare(&self, t: &DfsTuple, compared: &mut u64) -> Ordering {
        *compared += 1;
        tuple_cmp(t, &self.want)
    }

    /// Compares every extension of the projection `p` in `graph` that
    /// this level enumerates with the stored tuple. Returns whether one
    /// is smaller, stopping there; reports each equal one to `equal`
    /// with the node it adds (`None` for a backward tuple).
    fn finds_smaller(
        &self,
        graph: &PatternGraph,
        labels: &[u32],
        p: &[u16],
        compared: &mut u64,
        mut equal: impl FnMut(Option<u16>),
    ) -> bool {
        let rightmost = self.rightmost;
        for &v in self.backward {
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
            match self.compare(&t, compared) {
                Ordering::Less => return true,
                Ordering::Equal => equal(None),
                Ordering::Greater => {}
            }
        }
        for &u in self.forward {
            for link in graph.links(p[u as usize]) {
                if p.contains(&link.node) {
                    continue;
                }
                let t = DfsTuple {
                    from: u,
                    to: self.width,
                    from_label: labels[u as usize],
                    to_label: labels[link.node as usize],
                    outgoing: link.outgoing,
                    edge_label: link.label,
                };
                match self.compare(&t, compared) {
                    Ordering::Less => return true,
                    Ordering::Equal => equal(Some(link.node)),
                    Ordering::Greater => {}
                }
            }
        }
        false
    }

    /// The extension of the projection `p` along `edge`, when this level
    /// enumerates one: its tuple, and the node it adds (`None` for a
    /// backward tuple). A projection that maps both ends extends along
    /// the edge backward from its rightmost node; one that maps one end
    /// extends forward from it.
    fn along(&self, p: &[u16], edge: &[End; 2]) -> Option<(DfsTuple, Option<u16>)> {
        let index = |node| p.iter().position(|&n| n == node).map(|i| i as u16);
        let (a, b) = (index(edge[0].at), index(edge[1].at));
        for (end, (here, there)) in edge.iter().zip([(a, b), (b, a)]) {
            match (here, there) {
                (Some(u), None) if self.forward.contains(&u) => {
                    return Some((end.tuple(u, self.width), Some(end.other)));
                }
                (Some(u), Some(v)) if u == self.rightmost && self.backward.contains(&v) => {
                    return Some((end.tuple(u, v), None));
                }
                _ => {}
            }
        }
        None
    }
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
/// Refilled in place, so a walk that reuses one allocates nothing.
#[derive(Default)]
struct PatternGraph {
    /// Node `i`'s links are `links[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    links: Vec<Link>,
}

impl PatternGraph {
    /// Refills the graph with the edges of a code over `nodes` nodes,
    /// each node's links in tuple order.
    fn fill<'t>(&mut self, nodes: usize, tuples: impl Iterator<Item = &'t DfsTuple> + Clone) {
        let start = &mut self.start;
        start.clear();
        start.resize(nodes + 1, 0);
        for t in tuples.clone() {
            start[t.from as usize + 1] += 1;
            start[t.to as usize + 1] += 1;
        }
        for i in 0..nodes {
            start[i + 1] += start[i];
        }
        let unset = Link {
            node: 0,
            outgoing: false,
            label: 0,
        };
        self.links.clear();
        self.links.resize(start[nodes], unset);
        // Each node's start serves as its cursor, and ends at the next
        // node's start.
        for t in tuples {
            let ends = [(t.from, t.to, t.outgoing), (t.to, t.from, !t.outgoing)];
            for (at, node, outgoing) in ends {
                let cursor = &mut start[at as usize];
                self.links[*cursor] = Link {
                    node,
                    outgoing,
                    label: t.edge_label,
                };
                *cursor += 1;
            }
        }
        start.copy_within(..nodes, 1);
        start[0] = 0;
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

    /// Where a code on the test's search stack walks on from.
    enum From {
        /// A root: the walk stacks are empty below it.
        Root,
        /// A minimal parent, whose walk is on the walk stacks.
        Minimal(Pattern),
        /// A parent that is not minimal, which has no walk.
        NonMinimal,
    }

    /// Every code rightmost-path extension reaches from both orientations
    /// of every arc of random directed labelled graphs and of stars —
    /// canonical or not — gets the same verdict from the projection walk
    /// as from the reference engine. Every root and every child of a
    /// minimal code is also walked on from its parent's walk, on walk
    /// stacks carried down the search as it descends, and gets that
    /// verdict too: on a stack under the search's bound, and on one whose
    /// small bound makes patterns outgrow it, so that they and their
    /// descendants take the full walk. Stars' symmetric patterns have
    /// many projections per level.
    #[test]
    fn is_min_matches_reference_on_random_graphs() {
        use crate::embed::tests::star_graph;
        let mut rng = StdRng::seed_from_u64(0x6d696e);
        let mut databases: Vec<InputGraph> = (0..60)
            .map(|_| {
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
                InputGraph::new(labels, edges)
            })
            .collect();
        databases.extend([star_graph(4), star_graph(6)]);
        let mut checked = 0usize;
        let mut canonical = 0usize;
        let mut non_minimal_roots = 0usize;
        // Per walk stack: codes walked on, and minimal ones that kept
        // their walk or took the full walk.
        let (mut walked, mut kept, mut fell_back) = ([0usize; 2], [0usize; 2], [0usize; 2]);
        for graph in &databases {
            let graphs = std::slice::from_ref(graph);
            // The seeds list each arc in its minimal orientation; the
            // reversed roots, never minimal, are built here.
            let mut stack: Vec<(Pattern, Vec<Embedding>, From)> = Vec::new();
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
                stack.push((Pattern::root(t), e, From::Root));
                stack.push((Pattern::root(reversed), flipped, From::Root));
            }
            stack.sort_by_key(|(p, _, _)| p.tuples[0]);
            let mut walks = [(Walks::new(), 0usize), (Walks::with_bound(8), 0usize)];
            let mut budget = 3000;
            while let Some((pattern, embeddings, from)) = stack.pop() {
                let fast = pattern.is_min();
                non_minimal_roots += usize::from(pattern.edge_count() == 1 && !fast);
                assert_eq!(
                    fast,
                    is_min_reference(&pattern),
                    "verdicts differ on {:?}",
                    pattern.tuples()
                );
                let parent = match &from {
                    From::Root => Some(None),
                    From::Minimal(parent) => Some(Some(parent)),
                    From::NonMinimal => None,
                };
                if let Some(parent) = parent {
                    let tuple = *pattern.tuples().last().expect("codes are not empty");
                    for (i, (walks, depth)) in walks.iter_mut().enumerate() {
                        // The stack holds the walks of the parent and its
                        // ancestors: the search has left every deeper one.
                        while *depth > parent.map_or(0, Pattern::edge_count) {
                            walks.pop();
                            *depth -= 1;
                        }
                        let (incremental, _) = walks.push_if_min(parent, tuple);
                        assert_eq!(
                            incremental,
                            fast,
                            "walked on on stack {i}, verdicts differ on {:?}",
                            pattern.tuples()
                        );
                        if incremental {
                            *depth += 1;
                            kept[i] += usize::from(walks.kept());
                            fell_back[i] += usize::from(!walks.kept());
                        }
                        walked[i] += 1;
                    }
                }
                checked += 1;
                canonical += usize::from(fast);
                budget -= 1;
                if budget == 0 {
                    break;
                }
                if pattern.node_count() < 6 {
                    let children = extensions(&pattern, graphs, &embeddings, 1, &NoopTracer);
                    for (t, e) in children {
                        let from = if fast {
                            From::Minimal(pattern.clone())
                        } else {
                            From::NonMinimal
                        };
                        stack.push((pattern.extend(t), e, from));
                    }
                }
            }
        }
        assert!(checked > 10_000, "only {checked} codes checked");
        assert!(canonical > 0 && canonical < checked);
        assert!(non_minimal_roots > 0);
        assert!(walked[0] > 2_000, "only {} codes walked on", walked[0]);
        assert_eq!(walked[0], walked[1]);
        assert_eq!(fell_back[0], 0, "the search's bound is never reached here");
        assert!(
            kept[1] > 300 && fell_back[1] > 300,
            "under the small bound {} minimal codes kept their walk, {} took the full walk",
            kept[1],
            fell_back[1]
        );
    }
}
