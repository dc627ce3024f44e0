//! The program call graph and per-function register/flag summaries.
//!
//! Each function gets a [`FnSummary`]: the registers and flags it may
//! read before writing (its live-in) and the ones it may clobber. The
//! summaries are computed to a least fixpoint over the call graph, so
//! mutual recursion and the tail-call chains produced by cross-jump
//! extraction converge. Call items are then modelled precisely in
//! liveness ([`SummaryTransfer`]) instead of as the conservative barrier
//! baked into [`Item::effects`] — which is what lets a validator ask "is
//! `lr` really read after this point?" in a program that is full of
//! extracted-fragment calls.

use std::collections::HashMap;

use gpa_arm::reg::RegSet;
use gpa_arm::Reg;
use gpa_cfg::{FunctionCode, Item, Literal, Program};

use crate::dataflow::{EffectsTransfer, FnCfg, GenKill, ItemTransfer, LiveState, Liveness};

/// What a call to a function does to the caller-visible machine state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FnSummary {
    /// Registers (and flags) the function may read before writing them.
    pub live_in: LiveState,
    /// Registers the function may leave clobbered on return.
    pub defs: RegSet,
    /// Whether the function may leave the flags clobbered.
    pub writes_flags: bool,
}

impl FnSummary {
    /// The most conservative summary: reads and clobbers everything.
    pub fn conservative() -> FnSummary {
        FnSummary {
            live_in: LiveState {
                regs: RegSet(0xffff),
                flags: true,
            },
            defs: RegSet(0xffff),
            writes_flags: true,
        }
    }
}

/// The program call graph plus the per-function summaries.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Function name → index in `Program::functions`.
    pub index: HashMap<String, usize>,
    /// Per function, the callee indices (calls, tail calls and
    /// address-taken references through code literals).
    pub callees: Vec<Vec<usize>>,
    /// The fixpoint summaries, aligned with `Program::functions`.
    pub summaries: Vec<FnSummary>,
    /// Per function, the functions its facts — its summary here, its sp
    /// balance in [`crate::AbsEnv`] — may read: its callees, and for an
    /// indirect call every address-taken function.
    pub deps: Vec<Vec<usize>>,
    /// The strongly connected components of `deps`, each in ascending
    /// index order, dependencies first: a component comes after every
    /// component it reaches.
    pub components: Vec<Vec<usize>>,
    /// Per function, whether what its facts are computed from changed
    /// since the previous build: its code, or its `deps` (a callee name
    /// that now resolves, an address-taken flag that flipped). Every
    /// function for [`CallGraph::build`].
    pub changed: Vec<bool>,
    /// Per function, whether its summary differs from the previous
    /// build's: every function for [`CallGraph::build`].
    pub moved: Vec<bool>,
    /// Liveness analyses the summary fixpoint ran.
    pub analyses: u64,
}

/// Call-item targets of one function body.
fn callee_names(items: &[Item]) -> (Vec<&str>, bool) {
    let mut names = Vec::new();
    let mut indirect = false;
    for item in items {
        match item {
            Item::Call { target, .. } | Item::TailCall { cond: _, target } => {
                names.push(target.as_str());
            }
            Item::LitLoad {
                lit: Literal::Code(name),
                ..
            } => names.push(name.as_str()),
            Item::IndirectCall { .. } => indirect = true,
            _ => {}
        }
    }
    (names, indirect)
}

/// The strongly connected components of the graph `deps`, in the order
/// Tarjan's algorithm completes them: a component after every component
/// it reaches. Members are sorted ascending.
fn components(deps: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let n = deps.len();
    let mut order = vec![UNSEEN; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut out = Vec::new();
    let mut seen = 0;
    // (node, position of its next dependency to explore)
    let mut walk: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if order[root] != UNSEEN {
            continue;
        }
        walk.push((root, 0));
        while let Some(top) = walk.last_mut() {
            let v = top.0;
            if top.1 == 0 && order[v] == UNSEEN {
                order[v] = seen;
                low[v] = seen;
                seen += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = deps[v].get(top.1) {
                top.1 += 1;
                if order[w] == UNSEEN {
                    walk.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(order[w]);
                }
                continue;
            }
            walk.pop();
            if let Some(&(u, _)) = walk.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == order[v] {
                let mut component = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                component.sort_unstable();
                out.push(component);
            }
        }
    }
    out
}

impl CallGraph {
    /// Builds the call graph and runs the summary fixpoint.
    pub fn build(program: &Program) -> CallGraph {
        CallGraph::rebuild(program, None)
    }

    /// [`CallGraph::build`], reusing `previous` when given: the call graph
    /// of an earlier version of `program` that differed only in the
    /// functions `changed` marks (functions past either's end count as
    /// changed).
    ///
    /// A function's facts — its summary here, its sp balance in
    /// [`crate::AbsEnv`] — depend only on its own items and the facts of
    /// its [`CallGraph::deps`]. The components of that graph are walked
    /// dependencies first, and a component is recomputed only when it
    /// holds a changed function or depends on a function whose summary
    /// moved ([`CallGraph::moved`]); every other component keeps its
    /// previous summaries. A
    /// recomputed component iterates from bottom over its own members
    /// only, once when it is a single function that does not depend on
    /// itself. Summaries grow monotonically in their callees', so each
    /// component lands on the least fixpoint a fresh build reaches.
    pub fn rebuild(program: &Program, previous: Option<(&CallGraph, &[bool])>) -> CallGraph {
        let n = program.functions.len();
        let previous = previous.filter(|(g, _)| g.summaries.len() <= n);
        let index: HashMap<String, usize> = program
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        let mut callees = Vec::with_capacity(n);
        let mut has_indirect = Vec::with_capacity(n);
        for f in &program.functions {
            let (names, indirect) = callee_names(&f.items);
            let mut ids: Vec<usize> = names
                .iter()
                .filter_map(|n| index.get(*n).copied())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            callees.push(ids);
            has_indirect.push(indirect);
        }
        let address_taken: Vec<usize> = (0..n)
            .filter(|&i| program.functions[i].address_taken)
            .collect();
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|f| {
                let mut d = callees[f].clone();
                if has_indirect[f] {
                    d.extend(&address_taken);
                    d.sort_unstable();
                    d.dedup();
                }
                d
            })
            .collect();
        let components = components(&deps);
        let changed: Vec<bool> = (0..n)
            .map(|i| match previous {
                Some((g, c)) => c.get(i).is_none_or(|&c| c) || g.deps.get(i) != Some(&deps[i]),
                None => true,
            })
            .collect();
        let mut moved = vec![previous.is_none(); n];

        // Least-fixpoint summaries: start from bottom (reads nothing,
        // clobbers nothing) and iterate; facts only grow, so this
        // terminates and converges even through recursion.
        let bottom = FnSummary {
            live_in: LiveState::EMPTY,
            defs: RegSet::EMPTY,
            writes_flags: false,
        };
        let mut summaries = vec![bottom; n];
        let mut analyses = 0;
        for component in &components {
            // A dependency outside the component is final; one inside it
            // has not moved yet.
            let stale = |f: &usize| changed[*f] || deps[*f].iter().any(|&d| moved[d]);
            match previous {
                Some((previous, _)) if !component.iter().any(stale) => {
                    for &f in component {
                        summaries[f] = previous.summaries[f];
                    }
                    continue;
                }
                _ => {}
            }
            let cfgs: Vec<FnCfg> = component
                .iter()
                .map(|&f| FnCfg::build(&program.functions[f]))
                .collect();
            let cyclic = component.len() > 1 || deps[component[0]].contains(&component[0]);
            loop {
                let mut grew = false;
                for (&f, cfg) in component.iter().zip(&cfgs) {
                    let next = summarize(&program.functions[f], cfg, &index, &summaries);
                    analyses += 1;
                    if next != summaries[f] {
                        summaries[f] = next;
                        grew = true;
                    }
                }
                if !cyclic || !grew {
                    break;
                }
            }
            if let Some((previous, _)) = previous {
                for &f in component {
                    moved[f] = previous.summaries.get(f) != Some(&summaries[f]);
                }
            }
        }
        CallGraph {
            index,
            callees,
            summaries,
            deps,
            components,
            changed,
            moved,
            analyses,
        }
    }

    /// The summary of a function by name, if it exists.
    pub fn summary(&self, name: &str) -> Option<&FnSummary> {
        self.index.get(name).map(|&i| &self.summaries[i])
    }
}

/// One step of the summary fixpoint: `f`'s summary given the current
/// `summaries` of its callees.
fn summarize(
    f: &FunctionCode,
    cfg: &FnCfg,
    index: &HashMap<String, usize>,
    summaries: &[FnSummary],
) -> FnSummary {
    let transfer = SummaryTransfer { index, summaries };
    let live = Liveness::analyze(f, cfg, &transfer, LiveState::EMPTY);
    let live_in = live.live_in.first().copied().unwrap_or(LiveState::EMPTY);
    let mut defs = RegSet::EMPTY;
    let mut writes_flags = false;
    for item in &f.items {
        match item {
            Item::Call { target, .. } => {
                defs.insert(Reg::LR);
                match index.get(target) {
                    Some(&t) => {
                        defs = defs.union(summaries[t].defs);
                        writes_flags |= summaries[t].writes_flags;
                    }
                    None => {
                        defs = defs.union(FnSummary::conservative().defs);
                        writes_flags = true;
                    }
                }
            }
            Item::TailCall { target, .. } => {
                if let Some(&t) = index.get(target) {
                    defs = defs.union(summaries[t].defs);
                    writes_flags |= summaries[t].writes_flags;
                } else {
                    defs = defs.union(FnSummary::conservative().defs);
                    writes_flags = true;
                }
            }
            Item::IndirectCall { .. } => {
                defs = defs.union(FnSummary::conservative().defs);
                writes_flags = true;
            }
            other => {
                let fx = other.effects();
                defs = defs.union(fx.defs);
                writes_flags |= fx.writes_flags;
            }
        }
    }
    defs.remove(Reg::PC);
    FnSummary {
        live_in,
        defs,
        writes_flags,
    }
}

/// A liveness transfer that models calls with the callee's summary.
///
/// * `bl f` generates `f`'s live-in **minus `lr`** (the `bl` itself
///   provides `lr`) and kills `lr` (the return address, and the popped
///   `pc` of an ABI epilogue, always leave it clobbered);
/// * `b f` (tail call) generates `f`'s live-in verbatim — `lr` flows
///   through a tail call untouched;
/// * indirect calls fall back to the conservative ABI footprint.
pub struct SummaryTransfer<'a> {
    index: &'a HashMap<String, usize>,
    summaries: &'a [FnSummary],
}

impl<'a> SummaryTransfer<'a> {
    /// Wraps a computed call graph for use in liveness queries.
    pub fn new(graph: &'a CallGraph) -> SummaryTransfer<'a> {
        SummaryTransfer {
            index: &graph.index,
            summaries: &graph.summaries,
        }
    }

    fn callee(&self, name: &str) -> Option<&FnSummary> {
        self.index.get(name).map(|&i| &self.summaries[i])
    }
}

impl ItemTransfer for SummaryTransfer<'_> {
    fn gen_kill(&self, item: &Item) -> GenKill {
        match item {
            Item::Call { cond, target } => {
                let summary = self
                    .callee(target)
                    .copied()
                    .unwrap_or_else(FnSummary::conservative);
                let mut gen_regs = summary.live_in.regs;
                gen_regs.remove(Reg::LR);
                let mut kill = LiveState::EMPTY;
                if cond.is_always() {
                    kill.regs.insert(Reg::LR);
                }
                GenKill {
                    gen: LiveState {
                        regs: gen_regs,
                        flags: summary.live_in.flags || !cond.is_always(),
                    },
                    kill,
                }
            }
            Item::TailCall { cond, target } => {
                let summary = self
                    .callee(target)
                    .copied()
                    .unwrap_or_else(FnSummary::conservative);
                GenKill {
                    gen: LiveState {
                        regs: summary.live_in.regs,
                        flags: summary.live_in.flags || !cond.is_always(),
                    },
                    kill: LiveState::EMPTY,
                }
            }
            other => EffectsTransfer.gen_kill(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arm::Cond;

    fn insn(text: &str) -> Item {
        Item::Insn(text.parse().unwrap())
    }

    fn program(functions: Vec<FunctionCode>) -> Program {
        let entry = functions[0].name.clone();
        Program {
            functions,
            data: Vec::new(),
            data_symbols: Vec::new(),
            code_base: 0x8000,
            data_base: 0x2_0000,
            entry,
        }
    }

    fn func(name: &str, items: Vec<Item>) -> FunctionCode {
        FunctionCode {
            name: name.into(),
            address_taken: false,
            items,
            label_count: 0,
        }
    }

    #[test]
    fn leaf_summary_is_exact() {
        let p = program(vec![func(
            "leaf",
            vec![insn("add r0, r0, r1"), insn("bx lr")],
        )]);
        let g = CallGraph::build(&p);
        let s = g.summary("leaf").unwrap();
        assert_eq!(s.live_in.regs, RegSet::of(&[Reg::r(0), Reg::r(1), Reg::LR]));
        assert_eq!(s.defs, RegSet::of(&[Reg::r(0)]));
        assert!(!s.writes_flags);
    }

    #[test]
    fn call_propagates_callee_summary() {
        let p = program(vec![
            func(
                "caller",
                vec![
                    Item::Call {
                        cond: Cond::Al,
                        target: "leaf".into(),
                    },
                    insn("bx lr"),
                ],
            ),
            func("leaf", vec![insn("mov r0, r4"), insn("bx lr")]),
        ]);
        let g = CallGraph::build(&p);
        let caller = g.summary("caller").unwrap();
        // The callee reads r4; through the call the caller does too. The
        // entry value of lr is dead: the bl overwrites it before the
        // caller's own return reads it back.
        assert!(caller.live_in.regs.contains(Reg::r(4)));
        assert!(!caller.live_in.regs.contains(Reg::LR));
        // The bl clobbers lr.
        assert!(caller.defs.contains(Reg::LR));
        assert!(caller.defs.contains(Reg::r(0)));
        assert_eq!(g.callees[0], vec![1]);
    }

    #[test]
    fn tail_call_keeps_lr_live() {
        let p = program(vec![
            func(
                "trampoline",
                vec![Item::TailCall {
                    cond: Cond::Al,
                    target: "leaf".into(),
                }],
            ),
            func("leaf", vec![insn("bx lr")]),
        ]);
        let g = CallGraph::build(&p);
        // The tail-callee returns through the shared lr.
        assert!(g
            .summary("trampoline")
            .unwrap()
            .live_in
            .regs
            .contains(Reg::LR));
    }

    /// After one function changes, a rebuild recomputes it and the
    /// functions that reach it, keeps the rest, and lands on the facts
    /// of a fresh build — summaries here, sp balance in `AbsEnv`.
    #[test]
    fn rebuild_recomputes_what_reaches_a_change_and_matches_build() {
        let call = |target: &str| Item::Call {
            cond: Cond::Al,
            target: target.into(),
        };
        let before = program(vec![
            func("main", vec![call("mid"), insn("bx lr")]),
            func(
                "mid",
                vec![insn("push {r4, lr}"), call("leaf"), insn("pop {r4, pc}")],
            ),
            func("leaf", vec![insn("mov r0, r4"), insn("bx lr")]),
            func("other", vec![insn("add r0, r0, r1"), insn("bx lr")]),
        ]);
        let old = CallGraph::build(&before);
        let old_env = crate::AbsEnv::build(&before, &old);
        assert_eq!(old_env.balanced(), [true; 4]);
        // The leaf now clobbers r5 and returns with sp moved.
        let mut after = before.clone();
        after.functions[2]
            .items
            .splice(0..0, [insn("mov r5, #1"), insn("sub sp, sp, #8")]);
        let rebuilt = CallGraph::rebuild(&after, Some((&old, &[false, false, true, false])));
        let fresh = CallGraph::build(&after);
        assert_eq!(rebuilt.changed, [false, false, true, false]);
        assert_eq!(rebuilt.moved, [true, true, true, false]);
        assert_eq!(rebuilt.summaries, fresh.summaries);
        assert!(rebuilt.summaries[0].defs.contains(Reg::r(5)));
        // `other` reaches nothing that changed: only the chain above the
        // leaf is analyzed again, once each.
        assert_eq!(rebuilt.analyses, 3);
        let (env, _) = crate::AbsEnv::build_with_states(&after, &rebuilt, Some(old_env.balanced()));
        let fresh_env = crate::AbsEnv::build(&after, &fresh);
        assert_eq!(env.balanced(), fresh_env.balanced());
        assert_eq!(env.balanced(), [false, false, false, true]);
    }

    /// A small deterministic generator (64-bit LCG, high bits out).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// A random function `f{index}` over callees `f0..f{n-1}`: framed or
    /// leaf, maybe a loop, with recursion, conditional calls, indirect
    /// calls, code-address loads, frame adjustments that may leave `sp`
    /// unbalanced, and a return or a tail call at the end.
    fn random_function(rng: &mut Lcg, index: usize, n: usize) -> FunctionCode {
        let name = |rng: &mut Lcg| format!("f{}", rng.below(n));
        let framed = rng.below(2) == 0;
        let looped = rng.below(3) == 0;
        let mut items = Vec::new();
        if framed {
            items.push(insn("push {r4, lr}"));
        }
        if looped {
            items.push(Item::Label(gpa_cfg::LabelId(0)));
        }
        for _ in 0..1 + rng.below(5) {
            let (a, b) = (rng.below(5), rng.below(5));
            items.push(match rng.below(9) {
                0 => insn(&format!("add r{a}, r{b}, r4")),
                1 => insn(&format!("mov r{a}, #{b}")),
                2 => insn(&format!("cmp r{a}, #0")),
                3 => insn("sub sp, sp, #8"),
                4 => insn("add sp, sp, #8"),
                5 => Item::Call {
                    cond: if rng.below(2) == 0 {
                        Cond::Al
                    } else {
                        Cond::Ne
                    },
                    target: name(rng),
                },
                6 => Item::Call {
                    cond: Cond::Al,
                    target: name(rng),
                },
                7 => Item::IndirectCall {
                    target: Reg::r(a as u8),
                },
                _ => Item::LitLoad {
                    rd: Reg::r(a as u8),
                    lit: Literal::Code(name(rng)),
                },
            });
        }
        if looped {
            items.push(Item::Branch {
                cond: Cond::Ne,
                target: gpa_cfg::LabelId(0),
            });
        }
        if framed {
            items.push(insn("pop {r4, pc}"));
        } else if rng.below(4) == 0 {
            items.push(Item::TailCall {
                cond: Cond::Al,
                target: name(rng),
            });
        } else {
            items.push(insn("bx lr"));
        }
        FunctionCode {
            name: format!("f{index}"),
            address_taken: rng.below(3) == 0,
            items,
            label_count: u32::from(looped),
        }
    }

    /// Random call graphs under random one-function edits (some of
    /// which append a new function, as an extraction appends its
    /// fragment): a rebuild from the previous call graph and balance
    /// facts lands on a fresh build's summaries, balance facts and
    /// callee facts, and every abstract state it hands back is the one a
    /// fresh environment gives.
    #[test]
    fn rebuild_from_the_previous_state_matches_a_fresh_build_on_random_edits() {
        let mut rng = Lcg(0x6670_6978);
        let (mut carried_runs, mut fresh_runs, mut cyclic, mut kept) = (0u64, 0u64, 0, 0);
        for _ in 0..300 {
            let n = 2 + rng.below(6);
            let mut p = program((0..n).map(|i| random_function(&mut rng, i, n)).collect());
            let mut graph = CallGraph::build(&p);
            let mut balanced = crate::AbsEnv::build(&p, &graph).balanced().to_vec();
            for _ in 0..5 {
                let mut changed = vec![false; p.functions.len()];
                let appended = rng.below(4) == 0;
                let total = p.functions.len() + usize::from(appended);
                let f = rng.below(p.functions.len());
                p.functions[f] = random_function(&mut rng, f, total);
                changed[f] = true;
                if appended {
                    let function = random_function(&mut rng, total - 1, total);
                    p.functions.push(function);
                }
                let rebuilt = CallGraph::rebuild(&p, Some((&graph, &changed)));
                let fresh = CallGraph::build(&p);
                assert_eq!(rebuilt.summaries, fresh.summaries, "{p:#?}");
                let (env, states) = crate::AbsEnv::build_with_states(&p, &rebuilt, Some(&balanced));
                let fresh_env = crate::AbsEnv::build(&p, &fresh);
                assert_eq!(env.balanced(), fresh_env.balanced(), "{p:#?}");
                for (function, state) in p.functions.iter().zip(&states) {
                    assert_eq!(env.call_facts(function), fresh_env.call_facts(function));
                    if let Some(state) = state {
                        let expected = crate::AbsInt::analyze(function, Some(&fresh_env));
                        assert_eq!(state.before, expected.before, "{}", function.name);
                    }
                }
                carried_runs += rebuilt.analyses + env.analyses();
                fresh_runs += fresh.analyses + fresh_env.analyses();
                cyclic += rebuilt
                    .components
                    .iter()
                    .filter(|c| c.len() > 1 && c.iter().any(|&f| rebuilt.changed[f]))
                    .count();
                kept += rebuilt.components.len()
                    - rebuilt
                        .components
                        .iter()
                        .filter(|c| c.iter().any(|&f| rebuilt.changed[f]))
                        .count();
                balanced = env.balanced().to_vec();
                drop(env);
                graph = rebuilt;
            }
        }
        // The cases exercise edits inside recursive components and
        // components left alone, and the rebuild does less work.
        assert!(cyclic > 100, "{cyclic} edited recursive components");
        assert!(kept > 100, "{kept} components kept");
        assert!(carried_runs < fresh_runs, "{carried_runs} >= {fresh_runs}");
    }

    #[test]
    fn recursion_converges() {
        let p = program(vec![func(
            "rec",
            vec![
                insn("push {r4, lr}"),
                Item::Call {
                    cond: Cond::Al,
                    target: "rec".into(),
                },
                insn("pop {r4, pc}"),
            ],
        )]);
        let g = CallGraph::build(&p);
        let s = g.summary("rec").unwrap();
        assert!(s.live_in.regs.contains(Reg::r(4)));
        assert!(s.defs.contains(Reg::LR));
        assert!(!s.defs.contains(Reg::PC));
    }
}
