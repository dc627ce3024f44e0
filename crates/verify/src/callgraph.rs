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
use gpa_cfg::{Item, Literal, Program};

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
    /// Per function, whether it makes an indirect call (unknowable
    /// callee).
    pub has_indirect: Vec<bool>,
    /// The fixpoint summaries, aligned with `Program::functions`.
    pub summaries: Vec<FnSummary>,
    /// Per function, whether this build computed its facts afresh: every
    /// function for [`CallGraph::build`]; for [`CallGraph::rebuild`], the
    /// changed functions and every function that reaches one.
    pub affected: Vec<bool>,
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
    /// [`crate::AbsEnv`] — depend only on the functions it reaches
    /// through calls, tail calls and code addresses, and through an
    /// indirect call on every address-taken function. A function that
    /// reaches no changed function keeps its previous summary; the
    /// fixpoint runs over the rest ([`CallGraph::affected`]) from bottom.
    /// Summaries grow monotonically in their callees', so it reaches the
    /// least fixpoint a fresh build reaches.
    pub fn rebuild(program: &Program, previous: Option<(&CallGraph, &[bool])>) -> CallGraph {
        let index: HashMap<String, usize> = program
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        let mut callees = Vec::with_capacity(program.functions.len());
        let mut has_indirect = Vec::with_capacity(program.functions.len());
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

        // Least-fixpoint summaries: start from bottom (reads nothing,
        // clobbers nothing) and iterate; facts only grow, so this
        // terminates and converges even through recursion.
        let bottom = FnSummary {
            live_in: LiveState::EMPTY,
            defs: RegSet::EMPTY,
            writes_flags: false,
        };
        let n = program.functions.len();
        let mut affected = vec![true; n];
        let mut summaries = vec![bottom; n];
        if let Some((previous, changed)) = previous {
            let address_taken: Vec<usize> = (0..n)
                .filter(|&i| program.functions[i].address_taken)
                .collect();
            let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (f, deps) in callees.iter().enumerate() {
                let indirect: &[usize] = if has_indirect[f] { &address_taken } else { &[] };
                for &d in deps.iter().chain(indirect) {
                    dependents[d].push(f);
                }
            }
            for (i, a) in affected.iter_mut().enumerate() {
                *a = i >= previous.summaries.len() || changed.get(i).is_none_or(|&c| c);
            }
            let mut work: Vec<usize> = (0..n).filter(|&i| affected[i]).collect();
            while let Some(d) = work.pop() {
                for &f in &dependents[d] {
                    if !affected[f] {
                        affected[f] = true;
                        work.push(f);
                    }
                }
            }
            for (i, summary) in summaries.iter_mut().enumerate() {
                if !affected[i] {
                    *summary = previous.summaries[i];
                }
            }
        }
        let cfgs: Vec<Option<FnCfg>> = program
            .functions
            .iter()
            .zip(&affected)
            .map(|(f, &a)| a.then(|| FnCfg::build(f)))
            .collect();
        loop {
            let mut changed = false;
            for (i, f) in program.functions.iter().enumerate() {
                let Some(cfg) = &cfgs[i] else {
                    continue;
                };
                let transfer = SummaryTransfer {
                    index: &index,
                    summaries: &summaries,
                };
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
                let next = FnSummary {
                    live_in,
                    defs,
                    writes_flags,
                };
                if next != summaries[i] {
                    summaries[i] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        CallGraph {
            index,
            callees,
            has_indirect,
            summaries,
            affected,
        }
    }

    /// The summary of a function by name, if it exists.
    pub fn summary(&self, name: &str) -> Option<&FnSummary> {
        self.index.get(name).map(|&i| &self.summaries[i])
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
    use gpa_cfg::FunctionCode;

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
        assert_eq!(rebuilt.affected, [true, true, true, false]);
        assert_eq!(rebuilt.summaries, fresh.summaries);
        assert!(rebuilt.summaries[0].defs.contains(Reg::r(5)));
        let (env, _) =
            crate::AbsEnv::build_with_states(&after, &rebuilt, Some(old_env.balanced()), &[]);
        let fresh_env = crate::AbsEnv::build(&after, &fresh);
        assert_eq!(env.balanced(), fresh_env.balanced());
        assert_eq!(env.balanced(), [false, false, false, true]);
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
