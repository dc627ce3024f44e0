//! Data-flow-graph construction (phase 6 of the paper).
//!
//! For every straight-line region (basic-block body) produced by
//! [`gpa_cfg`], [`build_dfg_from_items`] constructs the directed acyclic
//! dependence graph: nodes are instructions, and an edge *a → b* says *b*
//! must execute after *a* (register RAW/WAR/WAW, condition-flag, or
//! memory dependence). Edges are transitively reduced, so the graph shows
//! direct dependencies like Fig. 2 of the paper while generating the same
//! partial order.
//!
//! A [`Dfg`] is a function of its items alone: it holds the items and
//! the edges, nothing about where the block sits and no label text. A
//! node's mining label is [`LabelMode::label`] of its item, worked out
//! where a label is read (the miner's input graphs, [`Dfg::to_dot`]).
//! Labels come in two flavours:
//!
//! * **exact** — the full instruction text (`sub r2, r2, r3`); the paper's
//!   main configuration, where fragment instructions must be identical;
//! * **canonical** — registers and immediates abstracted (`sub R, R, R`),
//!   the paper's "fuzzy instruction matching" future-work extension
//!   (Fig. 13), available through [`LabelMode::Canonical`].
//!
//! The [`stats`] module computes the degree distributions reported in
//! Tables 2 and 3.
//!
//! # Examples
//!
//! ```
//! use gpa_arm::parse::parse_listing;
//! use gpa_cfg::Item;
//! use gpa_dfg::build_dfg_from_items;
//!
//! // The running example of Fig. 1/2.
//! let items: Vec<Item> = parse_listing(
//!     "ldr r3, [r1]!\nsub r2, r2, r3\nadd r4, r2, #4\n\
//!      ldr r3, [r1]!\nsub r2, r2, r3\nldr r3, [r1]!\nadd r4, r2, #4",
//! )?
//! .into_iter()
//! .map(Item::Insn)
//! .collect();
//! let dfg = build_dfg_from_items(&items);
//! assert_eq!(dfg.node_count(), 7);
//! // The first sub depends directly on the first load.
//! assert!(dfg.succs(0).any(|e| e.to == 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod canon;
pub mod hash;
pub mod stats;

pub use hash::Fnv128;

use gpa_arm::defuse::{conflicts, mem_conflict, Effects};
use gpa_cfg::Item;

/// Which node-label scheme to use for mining equality.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LabelMode {
    /// Full instruction text; fragments must match exactly.
    #[default]
    Exact,
    /// Mnemonic + operand shapes; the paper's fuzzy-matching extension.
    Canonical,
}

impl LabelMode {
    /// The mining label of `item` in this mode (a function of the item
    /// alone).
    pub fn label(self, item: &Item) -> String {
        match self {
            LabelMode::Exact => item.mining_label(),
            LabelMode::Canonical => canon::canonical_label(item),
        }
    }
}

/// The kind bits of a dependence edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct DepMask(pub u8);

impl DepMask {
    /// Read-after-write on a register.
    pub const DATA: DepMask = DepMask(1);
    /// Write-after-read on a register.
    pub const ANTI: DepMask = DepMask(2);
    /// Write-after-write on a register.
    pub const OUTPUT: DepMask = DepMask(4);
    /// Condition-flag dependence.
    pub const FLAG: DepMask = DepMask(8);
    /// Memory dependence.
    pub const MEM: DepMask = DepMask(16);

    /// Union of two masks.
    pub fn union(self, other: DepMask) -> DepMask {
        DepMask(self.0 | other.0)
    }

    /// Whether any bit of `other` is present.
    pub fn contains(self, other: DepMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether the mask is empty (no dependence).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The mask with the bits of `other` removed.
    pub fn without(self, other: DepMask) -> DepMask {
        DepMask(self.0 & !other.0)
    }
}

/// The address space an [`AliasInterval`] lives in.
///
/// Intervals only compare within one base: offsets from the entry stack
/// pointer (`Sp`), absolute addresses (`Abs`), or offsets from an opaque
/// symbolic pointer (`Sym`). Two different symbols — or a symbol against
/// `Sp`/`Abs` — may refer to the same bytes, so cross-base pairs are
/// never provably disjoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AliasBase {
    /// Byte offsets from the function-entry stack pointer.
    Sp,
    /// Absolute addresses.
    Abs,
    /// Offsets from the opaque value named by `sym`. When the value is
    /// produced *inside* the region, `def` holds the producing node's
    /// region-relative index: a pair that straddles that node compares
    /// pointers from different instants (the def may re-execute between
    /// the two accesses) and must not be relaxed.
    Sym {
        /// External analysis' symbol id (opaque to this crate).
        sym: u32,
        /// Region-relative defining node, when the def is in-region.
        def: Option<usize>,
    },
}

/// One proved footprint interval: the half-open byte range `[lo, hi)`
/// within `base`'s address space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AliasInterval {
    /// Address space the range is relative to.
    pub base: AliasBase,
    /// Inclusive lower byte offset.
    pub lo: i64,
    /// Exclusive upper byte offset.
    pub hi: i64,
}

/// Per-node memory footprints of one region, proved by an external
/// analysis (the `gpa-verify` abstract interpreter) and consumed by
/// [`build_dfg_from_items_with`] to drop provably spurious MEM edges.
///
/// The oracle is plain data so this crate stays analysis-agnostic: slot
/// `k` describes region node `k`. `Some(intervals)` asserts that *every*
/// memory access the node can perform lies inside the listed
/// [`AliasInterval`]s. `None` means the node is unresolved — it may
/// touch anything.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AliasOracle {
    /// Per region node, the proved footprint (`None` = unresolved).
    pub slots: Vec<Option<Vec<AliasInterval>>>,
}

impl AliasOracle {
    /// Whether region nodes `i` and `j` provably touch disjoint bytes.
    /// Only two *resolved* nodes can be disjoint (a resolved access and
    /// an unresolved one may still collide). Within one base the ranges
    /// must not overlap; symbolic bases must be the *same* symbol whose
    /// defining node does not lie strictly between the two nodes. Of the
    /// cross-base pairs only `Sp`/`Abs` is disjoint — the stack never
    /// descends into the static image absent stack overflow, which the
    /// rewrite assumes away — while a symbol may alias anything.
    ///
    /// The pair is order-insensitive: the def-between check normalizes
    /// `(i, j)` to program order first.
    pub fn disjoint(&self, i: usize, j: usize) -> bool {
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        let (Some(Some(a)), Some(Some(b))) = (self.slots.get(i), self.slots.get(j)) else {
            return false;
        };
        a.iter().all(|x| {
            b.iter().all(|y| match (x.base, y.base) {
                (AliasBase::Sp, AliasBase::Abs) | (AliasBase::Abs, AliasBase::Sp) => true,
                (AliasBase::Sp, AliasBase::Sp) | (AliasBase::Abs, AliasBase::Abs) => {
                    x.hi <= y.lo || y.hi <= x.lo
                }
                (AliasBase::Sym { sym: sa, def }, AliasBase::Sym { sym: sb, .. }) => {
                    sa == sb
                        && def.is_none_or(|d| !(lo < d && d < hi))
                        && (x.hi <= y.lo || y.hi <= x.lo)
                }
                _ => false,
            })
        })
    }
}

/// How many MEM-carrying pairs an oracle-assisted build examined and how
/// many it proved disjoint (`relaxed`). `examined - disjoint` pairs kept
/// their MEM edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RelaxStats {
    /// Item pairs whose conservative dependence included MEM.
    pub mem_pairs_examined: u64,
    /// Of those, pairs the oracle proved disjoint (MEM bit dropped).
    pub mem_pairs_disjoint: u64,
}

/// An oracle-assisted DFG build: the graph plus the audit trail the
/// translation validator needs to re-certify every dropped MEM bit.
#[derive(Clone, PartialEq, Debug)]
pub struct RelaxedDfg {
    /// The (possibly relaxed) dependence graph.
    pub dfg: Dfg,
    /// Node pairs `(earlier, later)` whose MEM bit was dropped on the
    /// oracle's word — each is a claim to be independently re-derived.
    pub relaxed: Vec<(usize, usize)>,
    /// Examination counters for tracing.
    pub stats: RelaxStats,
}

/// Computes the dependence kinds between an earlier and a later item.
pub fn dep_between(earlier: &Item, later: &Item) -> DepMask {
    dep_mask(&earlier.effects(), &later.effects())
}

/// [`dep_between`] on the items' footprints.
fn dep_mask(a: &Effects, b: &Effects) -> DepMask {
    let mut mask = DepMask::default();
    if a.defs.intersects(b.uses) {
        mask = mask.union(DepMask::DATA);
    }
    if a.uses.intersects(b.defs) {
        mask = mask.union(DepMask::ANTI);
    }
    if a.defs.intersects(b.defs) {
        mask = mask.union(DepMask::OUTPUT);
    }
    if (a.writes_flags && (b.reads_flags || b.writes_flags)) || (a.reads_flags && b.writes_flags) {
        mask = mask.union(DepMask::FLAG);
    }
    if mem_conflict(a, b) {
        mask = mask.union(DepMask::MEM);
    }
    debug_assert_eq!(mask.is_empty(), !conflicts(a, b));
    mask
}

/// The MEM-carrying item pairs an alias oracle proves disjoint, found
/// without building a graph: every `(earlier, later)` pair whose
/// footprints conflict in memory ([`mem_conflict`]) and which
/// [`AliasOracle::disjoint`] proves apart, in the order
/// [`build_dfg_from_items_with`] examines pairs (later index, then
/// earlier), plus the examination counts. This is the test that builder
/// runs.
fn disjoint_mem_pairs(fx: &[Effects], oracle: &AliasOracle) -> (Vec<(usize, usize)>, RelaxStats) {
    let touches_mem: Vec<usize> = (0..fx.len())
        .filter(|&i| fx[i].reads_mem || fx[i].writes_mem)
        .collect();
    let mut pairs = Vec::new();
    let mut stats = RelaxStats::default();
    for (k, &j) in touches_mem.iter().enumerate() {
        for &i in &touches_mem[..k] {
            if mem_conflict(&fx[i], &fx[j]) {
                stats.mem_pairs_examined += 1;
                if oracle.disjoint(i, j) {
                    stats.mem_pairs_disjoint += 1;
                    pairs.push((i, j));
                }
            }
        }
    }
    (pairs, stats)
}

/// The transitively reduced dependence edges of items with footprints
/// `fx`, sorted by `(from, to)`, with the MEM bit dropped from each pair
/// in `relaxed`.
fn reduced_edges(fx: &[Effects], relaxed: &[(usize, usize)]) -> Vec<Edge> {
    let n = fx.len();
    let mut relaxed = relaxed.to_vec();
    relaxed.sort_unstable();
    // `reach[i]`: the nodes reachable from node `i`, one bitset row of
    // `words` words per node. Edges only go forward, so a backward sweep
    // sees every successor's row complete. Walking `i`'s direct
    // successors in ascending order, a successor already reached through
    // an earlier one is implied by it, so its edge is redundant (a later
    // successor never reaches an earlier one).
    let words = n.div_ceil(64);
    let mut reach = vec![0u64; n * words];
    let mut edges: Vec<Edge> = Vec::new();
    for i in (0..n).rev() {
        let (head, tail) = reach.split_at_mut((i + 1) * words);
        let row = &mut head[i * words..];
        let group = edges.len();
        for j in i + 1..n {
            let mut kinds = dep_mask(&fx[i], &fx[j]);
            if kinds.contains(DepMask::MEM) && relaxed.binary_search(&(i, j)).is_ok() {
                kinds = kinds.without(DepMask::MEM);
            }
            if kinds.is_empty() {
                continue;
            }
            if row[j / 64] & (1 << (j % 64)) == 0 {
                edges.push(Edge {
                    from: i,
                    to: j,
                    kinds,
                });
            }
            row[j / 64] |= 1 << (j % 64);
            let succ = &tail[(j - i - 1) * words..(j - i) * words];
            for (r, s) in row.iter_mut().zip(succ) {
                *r |= s;
            }
        }
        // Groups are appended in descending `from`; reversed below.
        edges[group..].reverse();
    }
    edges.reverse();
    edges
}

/// A directed dependence edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Dependence kinds.
    pub kinds: DepMask,
}

/// The data-flow graph of one straight-line region.
///
/// Stored in an arena/SoA layout: all edges live in one flat `Vec`
/// sorted by `(from, to)`, and per-node adjacency is a pair of CSR-style
/// offset arrays over that arena instead of one heap allocation per
/// node. Because the edge arena is sorted, a node's successors *are* a
/// contiguous slice of it; predecessors go through one extra flat
/// permutation (`pred_edges`, edge indices sorted by `(to, from)`).
/// Iteration order through [`Dfg::succs`]/[`Dfg::preds`] is identical to
/// the historical per-node representation, so every downstream consumer
/// sees the same graph bit-for-bit.
#[derive(Clone, PartialEq, Debug)]
pub struct Dfg {
    items: Vec<Item>,
    /// Transitively reduced edges, sorted by (from, to).
    edges: Vec<Edge>,
    /// CSR offsets into `edges`: node `i`'s outgoing edges occupy
    /// `edges[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<u32>,
    /// Edge indices permuted to (to, from) order.
    pred_edges: Vec<u32>,
    /// CSR offsets into `pred_edges`: node `i`'s incoming edges are
    /// `pred_edges[pred_start[i]..pred_start[i + 1]]`.
    pred_start: Vec<u32>,
}

impl Dfg {
    /// Assembles the arena from edges already sorted by `(from, to)`.
    fn from_sorted_parts(items: Vec<Item>, edges: Vec<Edge>) -> Dfg {
        let n = items.len();
        debug_assert!(edges
            .windows(2)
            .all(|w| { (w[0].from, w[0].to) < (w[1].from, w[1].to) }));
        let mut succ_start = vec![0u32; n + 1];
        let mut pred_start = vec![0u32; n + 1];
        for e in &edges {
            succ_start[e.from + 1] += 1;
            pred_start[e.to + 1] += 1;
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
            pred_start[i + 1] += pred_start[i];
        }
        // Edge indices ascend in (from, to) order, so bucketing them by
        // `to` in one pass leaves each bucket ascending by `from` —
        // exactly the order the per-node `preds[to].push(idx)` loop used
        // to produce.
        let mut pred_edges = vec![0u32; edges.len()];
        let mut cursor: Vec<u32> = pred_start[..n].to_vec();
        for (idx, e) in edges.iter().enumerate() {
            pred_edges[cursor[e.to] as usize] = idx as u32;
            cursor[e.to] += 1;
        }
        Dfg {
            items,
            edges,
            succ_start,
            pred_edges,
            pred_start,
        }
    }

    /// Number of nodes (instructions).
    pub fn node_count(&self) -> usize {
        self.items.len()
    }

    /// Number of (reduced) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The underlying item of node `i`.
    pub fn item(&self, i: usize) -> &Item {
        &self.items[i]
    }

    /// The items the graph was built from, one per node.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Node `i`'s outgoing edges as a contiguous slice of the arena.
    fn succ_slice(&self, i: usize) -> &[Edge] {
        &self.edges[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// Outgoing edges of node `i`.
    pub fn succs(&self, i: usize) -> impl Iterator<Item = Edge> + '_ {
        self.succ_slice(i).iter().copied()
    }

    /// Incoming edges of node `i`.
    pub fn preds(&self, i: usize) -> impl Iterator<Item = Edge> + '_ {
        self.pred_edges[self.pred_start[i] as usize..self.pred_start[i + 1] as usize]
            .iter()
            .map(move |&e| self.edges[e as usize])
    }

    /// In-degree of node `i`.
    pub fn in_degree(&self, i: usize) -> usize {
        (self.pred_start[i + 1] - self.pred_start[i]) as usize
    }

    /// Out-degree of node `i`.
    pub fn out_degree(&self, i: usize) -> usize {
        (self.succ_start[i + 1] - self.succ_start[i]) as usize
    }

    /// Whether `later` is reachable from `earlier` through edges (i.e. the
    /// partial order forces `earlier` before `later`).
    pub fn reaches(&self, earlier: usize, later: usize) -> bool {
        if earlier == later {
            return true;
        }
        // DFS over successors; node indices are in program order so all
        // edges go forward, bounding the search.
        let mut stack = vec![earlier];
        let mut seen = vec![false; self.node_count()];
        while let Some(n) = stack.pop() {
            if n == later {
                return true;
            }
            if n > later || seen[n] {
                continue;
            }
            seen[n] = true;
            for e in self.succ_slice(n) {
                stack.push(e.to);
            }
        }
        false
    }

    /// The MEM-carrying pairs of this graph's items that `oracle` proves
    /// disjoint, with the examination counts: exactly the `relaxed`
    /// pairs and `stats` of [`build_dfg_from_items_with`] on these items
    /// and `oracle`, found without building a graph.
    pub fn disjoint_mem_pairs(&self, oracle: &AliasOracle) -> (Vec<(usize, usize)>, RelaxStats) {
        let fx: Vec<Effects> = self.items.iter().map(Item::effects).collect();
        disjoint_mem_pairs(&fx, oracle)
    }

    /// This graph with the MEM dependence of each of `pairs` dropped,
    /// on the same items: the graph [`build_dfg_from_items_with`]
    /// builds when its oracle proves exactly `pairs` disjoint. `pairs`
    /// must come from [`Dfg::disjoint_mem_pairs`].
    pub fn without_mem(&self, pairs: &[(usize, usize)]) -> Dfg {
        let fx: Vec<Effects> = self.items.iter().map(Item::effects).collect();
        Dfg::from_sorted_parts(self.items.clone(), reduced_edges(&fx, pairs))
    }

    /// Renders the graph in Graphviz dot format, each node labelled with
    /// its item's label under `mode` (used by examples to show the
    /// paper's Fig. 2).
    pub fn to_dot(&self, mode: LabelMode) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph dfg {\n  rankdir=TB;\n");
        for (i, item) in self.items.iter().enumerate() {
            let _ = writeln!(out, "  n{i} [label=\"{}\"];", dot_escape(&mode.label(item)));
        }
        for e in &self.edges {
            let _ = writeln!(out, "  n{} -> n{};", e.from, e.to);
        }
        out.push_str("}\n");
        out
    }
}

/// Escapes a node label for a double-quoted dot string: `\` and `"` are
/// the only characters dot treats specially there.
fn dot_escape(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c == '\\' || c == '"' {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Builds the transitively reduced dependence DAG of a straight-line item
/// sequence.
///
/// # Panics
///
/// Panics if `items` contains a label (labels never occur inside regions).
pub fn build_dfg_from_items(items: &[Item]) -> Dfg {
    build_dfg_from_items_with(items, None).dfg
}

/// Builds the dependence DAG with an optional [`AliasOracle`].
///
/// When a pair of items conservatively carries a MEM dependence and the
/// oracle proves their footprints disjoint, the MEM bit is dropped (and
/// the whole pair, if nothing else connects it); every drop is recorded
/// in [`RelaxedDfg::relaxed`]. With `None` the result is bit-for-bit the
/// conservative graph of [`build_dfg_from_items`].
///
/// # Panics
///
/// Panics if `items` contains a label (labels never occur inside regions).
pub fn build_dfg_from_items_with(items: &[Item], oracle: Option<&AliasOracle>) -> RelaxedDfg {
    assert!(
        items.iter().all(|i| !matches!(i, Item::Label(_))),
        "regions never contain labels"
    );
    let fx: Vec<Effects> = items.iter().map(Item::effects).collect();
    let (relaxed, stats) = match oracle {
        Some(oracle) => disjoint_mem_pairs(&fx, oracle),
        None => (Vec::new(), RelaxStats::default()),
    };
    let edges = reduced_edges(&fx, &relaxed);
    RelaxedDfg {
        dfg: Dfg::from_sorted_parts(items.to_vec(), edges),
        relaxed,
        stats,
    }
}

/// Builds DFGs for every region of a program.
pub fn build_all(program: &gpa_cfg::Program) -> Vec<Dfg> {
    program
        .regions()
        .iter()
        .map(|r| build_dfg_from_items(r.items))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arm::parse::parse_listing;

    fn dfg_of(asm: &str) -> Dfg {
        let items: Vec<Item> = parse_listing(asm)
            .unwrap()
            .into_iter()
            .map(Item::Insn)
            .collect();
        build_dfg_from_items(&items)
    }

    #[test]
    fn running_example_structure() {
        // Fig. 1/2 of the paper.
        let dfg = dfg_of(
            "ldr r3, [r1]!\n\
             sub r2, r2, r3\n\
             add r4, r2, #4\n\
             ldr r3, [r1]!\n\
             sub r2, r2, r3\n\
             ldr r3, [r1]!\n\
             add r4, r2, #4",
        );
        assert_eq!(dfg.node_count(), 7);
        // ldr0 → sub1 (RAW on r3).
        let e01 = dfg
            .edges()
            .iter()
            .find(|e| e.from == 0 && e.to == 1)
            .unwrap();
        assert!(e01.kinds.contains(DepMask::DATA));
        // sub1 → add2 (RAW on r2).
        assert!(dfg.edges().iter().any(|e| e.from == 1 && e.to == 2));
        // The writeback chains the loads: 0 before 3 before 5 in the
        // partial order (the direct 0 → 3 edge is reduced away because
        // the path through sub1's anti-dependence already orders them).
        assert!(dfg.reaches(0, 3));
        assert!(dfg.reaches(3, 5));
        // Transitive reduction: no direct 0 → 5 edge.
        assert!(!dfg.edges().iter().any(|e| e.from == 0 && e.to == 5));
        // But 5 is still reachable from 0.
        assert!(dfg.reaches(0, 5));
        assert!(!dfg.reaches(2, 1));
    }

    #[test]
    fn independent_instructions_have_no_edges() {
        let dfg = dfg_of("mov r0, #1\nmov r1, #2\nmov r2, #3");
        assert_eq!(dfg.edge_count(), 0);
    }

    #[test]
    fn dep_kinds() {
        let items: Vec<Item> = parse_listing("ldr r3, [r1]\nstr r3, [r2]\nldr r3, [r4]")
            .unwrap()
            .into_iter()
            .map(Item::Insn)
            .collect();
        // load → store: DATA (r3); store → load: MEM.
        let m01 = dep_between(&items[0], &items[1]);
        assert!(m01.contains(DepMask::DATA));
        let m12 = dep_between(&items[1], &items[2]);
        assert!(m12.contains(DepMask::MEM));
        // load → load on the same rd: OUTPUT.
        let m02 = dep_between(&items[0], &items[2]);
        assert!(m02.contains(DepMask::OUTPUT));
    }

    #[test]
    fn flag_dependence() {
        let dfg = dfg_of("cmp r1, #0\nmoveq r0, #1\ncmp r2, #0");
        assert!(dfg
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kinds.contains(DepMask::FLAG)));
        assert!(dfg
            .edges()
            .iter()
            .any(|e| e.from == 1 && e.to == 2 && e.kinds.contains(DepMask::FLAG)));
    }

    #[test]
    fn canonical_mode_merges_register_variants() {
        let items = items_of("add r1, r2, r3\nadd r4, r5, r6");
        let exact = LabelMode::Exact;
        assert_ne!(exact.label(&items[0]), exact.label(&items[1]));
        let canonical = LabelMode::Canonical;
        assert_eq!(canonical.label(&items[0]), canonical.label(&items[1]));
    }

    #[test]
    fn dot_output_is_well_formed() {
        let dfg = dfg_of("ldr r3, [r1]\nadd r2, r2, r3");
        let dot = dfg.to_dot(LabelMode::Exact);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains(r#"n1 [label="add r2, r2, r3"]"#), "{dot}");
        assert!(dot.contains("n0 -> n1"));
        let dot = dfg.to_dot(LabelMode::Canonical);
        assert!(dot.contains(r#"n1 [label="add R, R, R"]"#), "{dot}");
    }

    #[test]
    fn dot_escapes_quotes_and_backslashes_in_labels() {
        assert_eq!(dot_escape(r#"say "hi" \ bye"#), r#"say \"hi\" \\ bye"#);
        assert_eq!(dot_escape("add r2, r2, r3"), "add r2, r2, r3");
    }

    fn items_of(asm: &str) -> Vec<Item> {
        parse_listing(asm)
            .unwrap()
            .into_iter()
            .map(Item::Insn)
            .collect()
    }

    fn sp(lo: i64, hi: i64) -> AliasInterval {
        AliasInterval {
            base: AliasBase::Sp,
            lo,
            hi,
        }
    }

    #[test]
    fn oracle_relaxes_disjoint_stack_accesses() {
        // str [sp] / ldr [sp, #4]: conservatively MEM-ordered, provably
        // disjoint slots.
        let items = items_of("str r0, [sp]\nldr r1, [sp, #4]");
        let oracle = AliasOracle {
            slots: vec![Some(vec![sp(0, 4)]), Some(vec![sp(4, 8)])],
        };
        let r = build_dfg_from_items_with(&items, Some(&oracle));
        assert_eq!(r.dfg.edge_count(), 0);
        assert_eq!(r.relaxed, vec![(0, 1)]);
        assert_eq!(r.stats.mem_pairs_examined, 1);
        assert_eq!(r.stats.mem_pairs_disjoint, 1);
    }

    #[test]
    fn oracle_keeps_overlapping_and_unresolved_pairs() {
        let items = items_of("str r0, [sp]\nldr r1, [sp]\nstr r2, [r6]");
        // Node 1 overlaps node 0; node 2 is unresolved.
        let oracle = AliasOracle {
            slots: vec![Some(vec![sp(0, 4)]), Some(vec![sp(0, 4)]), None],
        };
        let r = build_dfg_from_items_with(&items, Some(&oracle));
        assert!(r.relaxed.is_empty());
        // Pairs (0,1), (0,2), (1,2) all carry MEM conservatively.
        assert_eq!(r.stats.mem_pairs_examined, 3);
        assert_eq!(r.stats.mem_pairs_disjoint, 0);
        assert!(r
            .dfg
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kinds.contains(DepMask::MEM)));
    }

    #[test]
    fn relaxing_mem_keeps_other_dependence_kinds() {
        // The register RAW on r0 must survive even when the MEM bit goes.
        let items = items_of("str r0, [sp]\nldr r0, [sp, #4]");
        let oracle = AliasOracle {
            slots: vec![Some(vec![sp(0, 4)]), Some(vec![sp(4, 8)])],
        };
        let r = build_dfg_from_items_with(&items, Some(&oracle));
        assert_eq!(r.relaxed, vec![(0, 1)]);
        let e = r
            .dfg
            .edges()
            .iter()
            .find(|e| e.from == 0 && e.to == 1)
            .unwrap();
        assert!(e.kinds.contains(DepMask::ANTI));
        assert!(!e.kinds.contains(DepMask::MEM));
    }

    #[test]
    fn disjoint_is_order_insensitive_across_a_symbol_def() {
        // Node 1 defines the symbolic pointer; nodes 0 and 2 straddle it.
        // The def-between rule must reject the pair however the caller
        // orders the arguments — the historical `!(i < d && d < j)` test
        // silently passed everything when called as (j, i).
        let sym = |def: Option<usize>| AliasInterval {
            base: AliasBase::Sym { sym: 7, def },
            lo: 0,
            hi: 4,
        };
        let straddling = AliasOracle {
            slots: vec![
                Some(vec![sym(Some(1))]),
                None,
                Some(vec![AliasInterval {
                    base: AliasBase::Sym {
                        sym: 7,
                        def: Some(1),
                    },
                    lo: 8,
                    hi: 12,
                }]),
            ],
        };
        assert!(!straddling.disjoint(0, 2));
        assert!(
            !straddling.disjoint(2, 0),
            "swapped pair must also be rejected"
        );
        // With the def outside the pair, both orders prove disjointness.
        let outside = AliasOracle {
            slots: vec![
                Some(vec![sym(None)]),
                None,
                Some(vec![AliasInterval {
                    base: AliasBase::Sym { sym: 7, def: None },
                    lo: 8,
                    hi: 12,
                }]),
            ],
        };
        assert!(outside.disjoint(0, 2));
        assert!(outside.disjoint(2, 0));
    }

    #[test]
    fn no_oracle_matches_the_conservative_builder_exactly() {
        let asm = "str r0, [sp]\nldr r1, [sp, #4]\nadd r1, r1, r0\nstr r1, [sp]";
        let items = items_of(asm);
        let plain = build_dfg_from_items(&items);
        let with = build_dfg_from_items_with(&items, None);
        assert_eq!(plain, with.dfg);
        assert!(with.relaxed.is_empty());
        assert_eq!(with.stats, RelaxStats::default());
    }

    #[test]
    fn compiled_program_dfgs() {
        let image = gpa_minicc::compile(
            "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i * i; return s; }",
            &gpa_minicc::Options::default(),
        )
        .unwrap();
        let program = gpa_cfg::decode_image(&image).unwrap();
        let dfgs = build_all(&program);
        assert!(!dfgs.is_empty());
        let nodes: usize = dfgs.iter().map(Dfg::node_count).sum();
        assert_eq!(nodes, program.instruction_count());
    }
}
