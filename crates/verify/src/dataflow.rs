//! A worklist dataflow framework over lifted functions.
//!
//! Blocks are the maximal straight-line runs of a [`FunctionCode`]'s item
//! stream (split at labels and after control transfers); the transfer
//! functions are derived from [`gpa_arm::defuse`] effects, optionally
//! refined with interprocedural summaries from [`crate::callgraph`].
//!
//! The analysis provided is backward **liveness** (registers and
//! condition flags), a *may* analysis computed to a least fixpoint, so
//! it over-approximates ("might still be read") — the safe direction
//! for a validator that asks whether clobbering a register can change
//! behaviour.

use std::collections::HashMap;

use gpa_arm::reg::RegSet;
use gpa_arm::Reg;
use gpa_cfg::{FunctionCode, Item, LabelId};

/// One basic block: a half-open item range plus its successors.
#[derive(Clone, Debug)]
pub struct Block {
    /// First item index (may be a label).
    pub start: usize,
    /// One past the last item index.
    pub end: usize,
    /// Successor block indices within the function.
    pub succs: Vec<usize>,
    /// Whether control can leave the function from this block (return,
    /// tail call, or falling off the end).
    pub exits: bool,
}

/// The intra-function control-flow graph.
#[derive(Clone, Debug)]
pub struct FnCfg {
    /// Blocks in item order; block 0 is the function entry.
    pub blocks: Vec<Block>,
    label_block: HashMap<LabelId, usize>,
}

impl FnCfg {
    /// Builds the block graph of a function. Branches to undefined labels
    /// simply get no edge — [`crate::lint`] reports them separately.
    pub fn build(f: &FunctionCode) -> FnCfg {
        // Block leaders: item 0, every label, every item after a
        // terminator.
        let n = f.items.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (i, item) in f.items.iter().enumerate() {
            if matches!(item, Item::Label(_)) {
                leader[i] = true;
            }
            if item.is_region_terminator() && i + 1 < n {
                leader[i + 1] = true;
            }
        }
        let mut blocks = Vec::new();
        let mut label_block = HashMap::new();
        let mut start = 0;
        for (i, &lead) in leader.iter().enumerate() {
            if i > start && lead {
                blocks.push(Block {
                    start,
                    end: i,
                    succs: Vec::new(),
                    exits: false,
                });
                start = i;
            }
        }
        if n > 0 {
            blocks.push(Block {
                start,
                end: n,
                succs: Vec::new(),
                exits: false,
            });
        }
        for (b, block) in blocks.iter().enumerate() {
            for i in block.start..block.end {
                if let Item::Label(id) = f.items[i] {
                    label_block.insert(id, b);
                }
            }
        }
        let mut cfg = FnCfg {
            blocks,
            label_block,
        };
        for b in 0..cfg.blocks.len() {
            let last = cfg.blocks[b].end - 1;
            let mut succs = Vec::new();
            let mut exits = false;
            let item = &f.items[last];
            match item {
                Item::Branch { cond, target } => {
                    if let Some(&t) = cfg.label_block.get(target) {
                        succs.push(t);
                    }
                    if !cond.is_always() && b + 1 < cfg.blocks.len() {
                        succs.push(b + 1);
                    }
                }
                Item::TailCall { cond, .. } => {
                    exits = true;
                    if !cond.is_always() && b + 1 < cfg.blocks.len() {
                        succs.push(b + 1);
                    }
                }
                Item::Insn(i) if i.effects().defs.contains(Reg::PC) => {
                    exits = true;
                    if !i.cond().is_always() && b + 1 < cfg.blocks.len() {
                        succs.push(b + 1);
                    }
                }
                _ => {
                    if b + 1 < cfg.blocks.len() {
                        succs.push(b + 1);
                    } else {
                        exits = true; // Falls off the end of the function.
                    }
                }
            }
            cfg.blocks[b].succs = succs;
            cfg.blocks[b].exits = exits;
        }
        cfg
    }

    /// Block indices reachable from the entry block.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = Vec::new();
        if !self.blocks.is_empty() {
            seen[0] = true;
            stack.push(0);
        }
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Predecessor lists, derived from the successor edges.
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            for &s in &block.succs {
                preds[s].push(b);
            }
        }
        preds
    }
}

/// A liveness fact: which registers and whether the flags may still be
/// read before being overwritten.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LiveState {
    /// Possibly-live registers.
    pub regs: RegSet,
    /// Whether the condition flags are possibly live.
    pub flags: bool,
}

impl LiveState {
    /// The empty fact.
    pub const EMPTY: LiveState = LiveState {
        regs: RegSet::EMPTY,
        flags: false,
    };

    /// Pointwise union of two facts.
    pub fn union(self, other: LiveState) -> LiveState {
        LiveState {
            regs: self.regs.union(other.regs),
            flags: self.flags || other.flags,
        }
    }
}

/// The gen/kill pair of one item for backward liveness.
///
/// `kill` must only contain state the item *always* overwrites
/// (conditional items kill nothing); `gen` may over-approximate.
#[derive(Clone, Copy, Debug, Default)]
pub struct GenKill {
    /// Read before any write by this item.
    pub gen: LiveState,
    /// Unconditionally overwritten by this item.
    pub kill: LiveState,
}

/// Supplies the gen/kill pair per item. The default
/// [`EffectsTransfer`] derives it from [`Item::effects`];
/// [`crate::callgraph::SummaryTransfer`] refines call items with
/// interprocedural summaries.
pub trait ItemTransfer {
    /// The liveness transfer of `item`.
    fn gen_kill(&self, item: &Item) -> GenKill;
}

/// The context-insensitive transfer: calls use the conservative barrier
/// effects baked into [`Item::effects`].
pub struct EffectsTransfer;

/// Whether the item's writes happen unconditionally.
fn writes_unconditionally(item: &Item) -> bool {
    match item {
        Item::Insn(i) => i.cond().is_always(),
        Item::Call { cond, .. } | Item::Branch { cond, .. } | Item::TailCall { cond, .. } => {
            cond.is_always()
        }
        Item::Label(_) | Item::IndirectCall { .. } | Item::LitLoad { .. } => true,
    }
}

impl ItemTransfer for EffectsTransfer {
    fn gen_kill(&self, item: &Item) -> GenKill {
        let fx = item.effects();
        let gen = LiveState {
            regs: fx.uses,
            flags: fx.reads_flags,
        };
        let kill = if writes_unconditionally(item) {
            LiveState {
                regs: fx.defs,
                flags: fx.writes_flags,
            }
        } else {
            LiveState::EMPTY
        };
        GenKill { gen, kill }
    }
}

/// Backward liveness over one function.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Fact at each block entry.
    pub live_in: Vec<LiveState>,
    /// Fact at each block exit.
    pub live_out: Vec<LiveState>,
}

/// Applies one item backwards to a fact.
fn apply_backward(fact: LiveState, gk: &GenKill) -> LiveState {
    LiveState {
        regs: fact.regs.difference(gk.kill.regs).union(gk.gen.regs),
        flags: (fact.flags && !gk.kill.flags) || gk.gen.flags,
    }
}

impl Liveness {
    /// Runs the worklist to a fixpoint. `exit_live` is the fact assumed
    /// where control leaves the function (returns, tail calls, the end) —
    /// [`LiveState::EMPTY`] asks "read again *by this function*", which is
    /// what return instructions' own uses (`bx lr` reads `lr`) make
    /// precise enough for validation.
    pub fn analyze(
        f: &FunctionCode,
        cfg: &FnCfg,
        transfer: &dyn ItemTransfer,
        exit_live: LiveState,
    ) -> Liveness {
        let n = cfg.blocks.len();
        let mut live_in = vec![LiveState::EMPTY; n];
        let mut live_out = vec![LiveState::EMPTY; n];
        let preds = cfg.preds();
        let mut work: Vec<usize> = (0..n).collect();
        while let Some(b) = work.pop() {
            let block = &cfg.blocks[b];
            let mut out = if block.exits {
                exit_live
            } else {
                LiveState::EMPTY
            };
            for &s in &block.succs {
                out = out.union(live_in[s]);
            }
            live_out[b] = out;
            let mut fact = out;
            for i in (block.start..block.end).rev() {
                fact = apply_backward(fact, &transfer.gen_kill(&f.items[i]));
            }
            if fact != live_in[b] {
                live_in[b] = fact;
                for &p in &preds[b] {
                    if !work.contains(&p) {
                        work.push(p);
                    }
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// The fact immediately *after* item `index` executes — i.e. what a
    /// clobber inserted at that point could destroy.
    pub fn live_after(
        &self,
        f: &FunctionCode,
        cfg: &FnCfg,
        transfer: &dyn ItemTransfer,
        index: usize,
    ) -> LiveState {
        let b = cfg
            .blocks
            .iter()
            .position(|blk| blk.start <= index && index < blk.end)
            .expect("item index within the function");
        let block = &cfg.blocks[b];
        let mut fact = self.live_out[b];
        for i in ((index + 1)..block.end).rev() {
            fact = apply_backward(fact, &transfer.gen_kill(&f.items[i]));
        }
        fact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arm::Cond;

    fn insn(text: &str) -> Item {
        Item::Insn(text.parse().unwrap())
    }

    fn func(items: Vec<Item>, label_count: u32) -> FunctionCode {
        FunctionCode {
            name: "f".into(),
            address_taken: false,
            items,
            label_count,
        }
    }

    #[test]
    fn cfg_blocks_and_edges() {
        // entry -> (branch eq L0) -> fallthrough -> L0 -> ret
        let f = func(
            vec![
                insn("cmp r0, #0"),
                Item::Branch {
                    cond: Cond::Eq,
                    target: LabelId(0),
                },
                insn("mov r0, #1"),
                Item::Label(LabelId(0)),
                insn("bx lr"),
            ],
            1,
        );
        let cfg = FnCfg::build(&f);
        assert_eq!(cfg.blocks.len(), 3);
        assert_eq!(cfg.blocks[0].succs, vec![2, 1]);
        assert_eq!(cfg.blocks[1].succs, vec![2]);
        assert!(cfg.blocks[2].succs.is_empty());
        assert!(cfg.blocks[2].exits);
        assert!(cfg.reachable().iter().all(|&r| r));
    }

    #[test]
    fn unreachable_block_detected() {
        let f = func(
            vec![
                Item::Branch {
                    cond: Cond::Al,
                    target: LabelId(0),
                },
                insn("mov r0, #9"), // dead
                Item::Label(LabelId(0)),
                insn("bx lr"),
            ],
            1,
        );
        let cfg = FnCfg::build(&f);
        let reach = cfg.reachable();
        assert_eq!(reach, vec![true, false, true]);
    }

    #[test]
    fn liveness_through_a_diamond() {
        // r4 is read on one arm only; it must be live at the branch.
        let f = func(
            vec![
                insn("cmp r0, #0"),
                Item::Branch {
                    cond: Cond::Eq,
                    target: LabelId(0),
                },
                insn("mov r0, r4"),
                Item::Label(LabelId(0)),
                insn("bx lr"),
            ],
            1,
        );
        let cfg = FnCfg::build(&f);
        let live = Liveness::analyze(&f, &cfg, &EffectsTransfer, LiveState::EMPTY);
        assert!(live.live_in[0].regs.contains(Reg::r(4)));
        assert!(live.live_in[0].regs.contains(Reg::r(0)));
        assert!(live.live_in[0].regs.contains(Reg::LR));
        // After the cmp the flags are live (the beq reads them).
        let after_cmp = live.live_after(&f, &cfg, &EffectsTransfer, 0);
        assert!(after_cmp.flags);
        // After the branch resolves flags are dead again.
        assert!(!live.live_out[1].flags);
    }

    #[test]
    fn conditional_writes_do_not_kill() {
        let f = func(
            vec![insn("cmp r0, #0"), insn("moveq r1, #1"), insn("bx lr")],
            0,
        );
        let cfg = FnCfg::build(&f);
        let live = Liveness::analyze(
            &f,
            &cfg,
            &EffectsTransfer,
            LiveState {
                regs: RegSet::of(&[Reg::r(1)]),
                flags: false,
            },
        );
        // r1 may flow through the untaken moveq, so it is live at entry.
        assert!(live.live_in[0].regs.contains(Reg::r(1)));
    }
}
