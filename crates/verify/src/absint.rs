//! Value-set abstract interpretation over lifted functions.
//!
//! A forward worklist fixpoint computes, at every program point, an
//! abstract value per register from the flat lattice
//!
//! ```text
//!                 ⊤                 (unknown)
//!        /    |       |      \
//!  Const(k)   …   SpRel(d)  SymRel(s, d)
//!        \    |       |      /
//!                 ⊥                 (unreachable)
//! ```
//!
//! `Const` is a known 32-bit constant, `SpRel` the function-entry stack
//! pointer plus a known byte offset, and `SymRel` a *symbolic base*: the
//! fixed-but-unknown value most recently produced by one definition
//! point (an instruction's destination register, or a register's value
//! at function entry), plus a known byte offset. Symbols make memory
//! disambiguation work on unknown pointers too: two accesses through
//! the *same* symbol at non-overlapping offsets touch disjoint bytes —
//! provided the defining point does not execute between them (see
//! [`AbsAccess::provably_disjoint`]).
//!
//! Transfer functions are derived from the [`gpa_arm`] instruction forms
//! (`mov`/`add`/`sub` arithmetic, `ldr`/`str` writeback, `push`/`pop`
//! block transfers); calls clobber the registers named by the
//! [`crate::callgraph`] summaries instead of everything. The analysis
//! answers one question precisely: *which memory accesses land at known
//! offsets from a known base?* — the fuel for the MEM-edge relaxation
//! in `gpa_dfg` and the `V010`–`V014` stack lints.

use gpa_arm::memfx::MemDisp;
use gpa_arm::{DpOp, Instruction, Operand2, Reg, ShiftKind};
use gpa_cfg::{FunctionCode, Item, Literal, Program};

use crate::callgraph::CallGraph;
use crate::dataflow::FnCfg;

/// An abstract register value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbsValue {
    /// Unreachable / no information yet (the lattice bottom).
    Bottom,
    /// A known 32-bit constant (stored zero-extended).
    Const(i64),
    /// The function-entry stack pointer plus a known byte offset.
    SpRel(i64),
    /// The fixed-but-unknown value of one definition point (see
    /// [`sym_def_index`]) plus a known byte offset.
    SymRel(u32, i64),
    /// Unknown (the lattice top).
    Top,
}

/// Symbol ids at and above this bound denote a register's value at
/// function entry (no definition point inside the function).
const ENTRY_SYM_BASE: u32 = 0xffff_ff00;

/// The symbol for "the value item `idx` defines into register `r`".
fn def_sym(idx: usize, r: Reg) -> u32 {
    debug_assert!((idx as u32) < ENTRY_SYM_BASE >> 4, "function too large");
    ((idx as u32) << 4) | u32::from(r.number())
}

/// The symbol for "the value register `r` holds at function entry".
fn entry_sym(r: Reg) -> u32 {
    ENTRY_SYM_BASE | u32::from(r.number())
}

/// The item index of the definition point behind a symbol, or `None`
/// for function-entry symbols (which have no definition to re-execute).
pub fn sym_def_index(sym: u32) -> Option<usize> {
    (sym < ENTRY_SYM_BASE).then_some((sym >> 4) as usize)
}

impl AbsValue {
    /// The least upper bound of two values.
    pub fn join(self, other: AbsValue) -> AbsValue {
        match (self, other) {
            (AbsValue::Bottom, v) | (v, AbsValue::Bottom) => v,
            (a, b) if a == b => a,
            _ => AbsValue::Top,
        }
    }

    /// Adds a known byte delta, staying in the same lattice region.
    fn offset_by(self, delta: i64) -> AbsValue {
        match self {
            AbsValue::Const(c) => AbsValue::Const(wrap32(c + delta)),
            AbsValue::SpRel(d) => AbsValue::SpRel(d + delta),
            AbsValue::SymRel(s, d) => AbsValue::SymRel(s, d + delta),
            v => v,
        }
    }
}

impl std::fmt::Display for AbsValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbsValue::Bottom => write!(f, "bot"),
            AbsValue::Const(c) => write!(f, "#{c:#x}"),
            AbsValue::SpRel(d) => write!(f, "sp{d:+}"),
            AbsValue::SymRel(s, d) => {
                let r = Reg::r((s & 0xf) as u8);
                match sym_def_index(*s) {
                    None => write!(f, "in({r}){d:+}"),
                    Some(idx) => write!(f, "at{idx}({r}){d:+}"),
                }
            }
            AbsValue::Top => write!(f, "top"),
        }
    }
}

/// Truncates to the 32-bit value domain (constants are canonical as
/// zero-extended `u32`).
fn wrap32(v: i64) -> i64 {
    i64::from(v as u32)
}

/// Sign-extends a 32-bit constant — the reading used when a constant is
/// added to an `SpRel` base, so `add sp, sp, #-16` encodings and their
/// wrapped equivalents shift the offset the same way.
fn as_signed(c: i64) -> i64 {
    i64::from(c as u32 as i32)
}

/// The abstract machine state: one [`AbsValue`] per register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegState {
    vals: [AbsValue; 16],
}

impl RegState {
    /// The function-entry state: `sp` is `SpRel(0)`, `pc` is unknown,
    /// and every other register holds its (fixed) entry value as a
    /// symbolic base — so accesses through incoming pointer arguments
    /// resolve too.
    pub fn entry() -> RegState {
        let mut vals = [AbsValue::Top; 16];
        for n in 0..15 {
            vals[n as usize] = AbsValue::SymRel(entry_sym(Reg::r(n)), 0);
        }
        vals[Reg::SP.number() as usize] = AbsValue::SpRel(0);
        RegState { vals }
    }

    /// The value of a register.
    pub fn get(&self, r: Reg) -> AbsValue {
        self.vals[r.number() as usize]
    }

    /// Overwrites a register.
    pub fn set(&mut self, r: Reg, v: AbsValue) {
        self.vals[r.number() as usize] = v;
    }

    /// Pointwise join with another state.
    pub fn join(&self, other: &RegState) -> RegState {
        let mut vals = self.vals;
        for (v, o) in vals.iter_mut().zip(other.vals.iter()) {
            *v = v.join(*o);
        }
        RegState { vals }
    }
}

fn eval_shift(value: i64, kind: ShiftKind, amount: u8) -> i64 {
    let v = value as u32;
    let a = u32::from(amount);
    let shifted = match kind {
        ShiftKind::Lsl => v.wrapping_shl(a),
        ShiftKind::Lsr => {
            if a >= 32 {
                0
            } else {
                v >> a
            }
        }
        ShiftKind::Asr => ((v as i32) >> a.min(31)) as u32,
        ShiftKind::Ror => v.rotate_right(a % 32),
    };
    i64::from(shifted)
}

fn eval_op2(state: &RegState, op2: Operand2) -> AbsValue {
    match op2 {
        Operand2::Imm(v) => AbsValue::Const(i64::from(v)),
        Operand2::Reg(r) => state.get(r),
        Operand2::RegShift(r, kind, amount) => match state.get(r) {
            AbsValue::Const(c) => AbsValue::Const(eval_shift(c, kind, amount)),
            AbsValue::Bottom => AbsValue::Bottom,
            _ => AbsValue::Top,
        },
    }
}

fn abs_add(a: AbsValue, b: AbsValue) -> AbsValue {
    match (a, b) {
        (AbsValue::Bottom, _) | (_, AbsValue::Bottom) => AbsValue::Bottom,
        (AbsValue::Const(x), AbsValue::Const(y)) => AbsValue::Const(wrap32(x + y)),
        (AbsValue::SpRel(d), AbsValue::Const(c)) | (AbsValue::Const(c), AbsValue::SpRel(d)) => {
            AbsValue::SpRel(d + as_signed(c))
        }
        (AbsValue::SymRel(s, d), AbsValue::Const(c))
        | (AbsValue::Const(c), AbsValue::SymRel(s, d)) => AbsValue::SymRel(s, d + as_signed(c)),
        _ => AbsValue::Top,
    }
}

fn abs_sub(a: AbsValue, b: AbsValue) -> AbsValue {
    match (a, b) {
        (AbsValue::Bottom, _) | (_, AbsValue::Bottom) => AbsValue::Bottom,
        (AbsValue::Const(x), AbsValue::Const(y)) => AbsValue::Const(wrap32(x - y)),
        (AbsValue::SpRel(d), AbsValue::Const(c)) => AbsValue::SpRel(d - as_signed(c)),
        (AbsValue::SpRel(x), AbsValue::SpRel(y)) => AbsValue::Const(wrap32(x - y)),
        (AbsValue::SymRel(s, d), AbsValue::Const(c)) => AbsValue::SymRel(s, d - as_signed(c)),
        (AbsValue::SymRel(x, dx), AbsValue::SymRel(y, dy)) if x == y => {
            AbsValue::Const(wrap32(dx - dy))
        }
        _ => AbsValue::Top,
    }
}

fn abs_bitop(op: DpOp, a: AbsValue, b: AbsValue) -> AbsValue {
    let (AbsValue::Const(x), AbsValue::Const(y)) = (a, b) else {
        return AbsValue::Top;
    };
    let (x, y) = (x as u32, y as u32);
    let r = match op {
        DpOp::And => x & y,
        DpOp::Orr => x | y,
        DpOp::Eor => x ^ y,
        DpOp::Bic => x & !y,
        _ => unreachable!("not a bit operation"),
    };
    AbsValue::Const(i64::from(r))
}

/// The value a data-processing opcode produces, or `None` for the
/// flag-only compares.
fn dp_value(op: DpOp, rn_val: AbsValue, op2_val: AbsValue) -> Option<AbsValue> {
    let v = match op {
        DpOp::Mov => op2_val,
        DpOp::Mvn => match op2_val {
            AbsValue::Const(c) => AbsValue::Const(i64::from(!(c as u32))),
            _ => AbsValue::Top,
        },
        DpOp::Add => abs_add(rn_val, op2_val),
        DpOp::Sub => abs_sub(rn_val, op2_val),
        DpOp::Rsb => abs_sub(op2_val, rn_val),
        DpOp::And | DpOp::Orr | DpOp::Eor | DpOp::Bic => abs_bitop(op, rn_val, op2_val),
        // Carry-consuming arithmetic: the flags are not tracked.
        DpOp::Adc | DpOp::Sbc | DpOp::Rsc => AbsValue::Top,
        DpOp::Tst | DpOp::Teq | DpOp::Cmp | DpOp::Cmn => return None,
    };
    Some(v)
}

/// Writes a definition's result, turning an unknown result into a fresh
/// symbolic base for this definition point: the value is unknown but
/// *fixed* until the point executes again, which is exactly what
/// [`AbsValue::SymRel`] asserts. `pc` stays ⊤ — it never holds a stable
/// value.
fn set_def(state: &mut RegState, idx: usize, rd: Reg, v: AbsValue) {
    let v = if v == AbsValue::Top && rd != Reg::PC {
        AbsValue::SymRel(def_sym(idx, rd), 0)
    } else {
        v
    };
    state.set(rd, v);
}

/// Updates `next` to the post-state of an instruction assuming it
/// executes (its condition holds). `idx` is the item index of the
/// instruction, the identity of every symbolic base it mints.
fn apply_insn(next: &mut RegState, insn: &Instruction, idx: usize) {
    match *insn {
        Instruction::DataProc {
            op, rd, rn, op2, ..
        } => {
            if let Some(v) = dp_value(op, next.get(rn), eval_op2(next, op2)) {
                set_def(next, idx, rd, v);
            }
        }
        Instruction::Mul { rd, .. } | Instruction::Mla { rd, .. } => {
            set_def(next, idx, rd, AbsValue::Top);
        }
        Instruction::Mem { op, rd, .. } | Instruction::Block { op, rn: rd, .. } => {
            if let Some((rn, delta)) = insn.mem_fx().writeback {
                let v = match delta {
                    MemDisp::Imm(d) => next.get(rn).offset_by(d),
                    MemDisp::Reg(rm, sub) => match next.get(rm) {
                        AbsValue::Const(c) => {
                            let d = as_signed(c);
                            next.get(rn).offset_by(if sub { -d } else { d })
                        }
                        _ => AbsValue::Top,
                    },
                };
                set_def(next, idx, rn, v);
            }
            // Loaded registers take fresh symbolic values — after the
            // writeback, so `ldr rn, [rn], #4` and `ldm` lists that
            // contain the base end up with the load's symbol, not
            // base + delta.
            if op == gpa_arm::MemOp::Ldr {
                match *insn {
                    Instruction::Mem { .. } => set_def(next, idx, rd, AbsValue::Top),
                    Instruction::Block { regs, .. } => {
                        for r in regs.iter() {
                            set_def(next, idx, r, AbsValue::Top);
                        }
                    }
                    _ => unreachable!("matched above"),
                }
            }
        }
        Instruction::Branch { link, .. } => {
            if link {
                set_def(next, idx, Reg::LR, AbsValue::Top);
            }
        }
        Instruction::Bx { .. } => {}
        Instruction::Swi { .. } => {
            set_def(next, idx, Reg::r(0), AbsValue::Top);
        }
    }
}

fn transfer_insn(state: &mut RegState, insn: &Instruction, idx: usize) {
    // Join the post-state with the pre-state when the instruction may be
    // skipped (conditional execution).
    if insn.cond().is_always() {
        apply_insn(state, insn, idx);
    } else {
        let mut next = *state;
        apply_insn(&mut next, insn, idx);
        *state = state.join(&next);
    }
}

/// Interprocedural context for the abstract interpreter: the call-graph
/// clobber summaries plus an *sp-balance* fixpoint.
///
/// A [`crate::callgraph::FnSummary`]'s `defs` set contains `sp` for any
/// callee that so much as adjusts its frame, even though a well-formed
/// function restores it before returning. The balance fixpoint
/// re-derives, per function, whether every reachable return provably
/// restores `sp` to its entry value (assuming the same of its callees —
/// sound by induction on execution depth, since a dynamically innermost
/// call executes no calls itself). Calls to balanced callees then
/// preserve the caller's `SpRel` values instead of collapsing them to ⊤.
///
/// Indirect calls are summarized over the *address-taken* functions: an
/// image is a closed world, so a call through a register can only reach
/// a function whose address was materialized somewhere. When every
/// address-taken function is balanced, `sp` survives indirect calls too.
pub struct AbsEnv<'a> {
    graph: &'a CallGraph,
    balanced: Vec<bool>,
    /// Function indices whose address escapes into a register.
    address_taken: Vec<usize>,
    /// Data-object extents `[addr, addr + size)`, sorted by address:
    /// the bound for register-indexed accesses off an object pointer.
    objects: Vec<(i64, i64)>,
    /// Function analyses the balance fixpoint ran.
    analyses: u64,
}

impl<'a> AbsEnv<'a> {
    /// Runs the sp-balance fixpoint over a program. Facts start
    /// optimistic (`balanced`) and only ever flip to `false`, so the
    /// loop terminates.
    pub fn build(program: &Program, graph: &'a CallGraph) -> AbsEnv<'a> {
        AbsEnv::fixpoint(program, graph, None, false).0
    }

    /// [`AbsEnv::build`] reusing `previous`, the [`AbsEnv::balanced`]
    /// facts of an earlier version of `program` when `graph` is its
    /// [`CallGraph::rebuild`] from that version's call graph.
    ///
    /// The fixpoint walks `graph`'s components dependencies first. A
    /// component that holds no [`CallGraph::changed`] function, and
    /// depends on none whose summary ([`CallGraph::moved`]) or balance
    /// moved, keeps its previous facts: they read only facts that did
    /// not move. Every other component starts from `true` and iterates
    /// over its own members only (once for a single function that does
    /// not depend on itself), so it lands on the facts a fresh build
    /// reaches.
    ///
    /// Also returns, per function, its [`AbsInt::analyze`] under the
    /// returned environment when the walk computed it, and `None`
    /// otherwise (unrecomputed components, and unbalanced members of
    /// cyclic ones): a component's last pass flips no fact and every
    /// component it depends on is final, so what that pass analyzed
    /// under is the final environment.
    pub fn build_with_states(
        program: &Program,
        graph: &'a CallGraph,
        previous: Option<&[bool]>,
    ) -> (AbsEnv<'a>, Vec<Option<AbsInt>>) {
        AbsEnv::fixpoint(program, graph, previous, true)
    }

    fn fixpoint(
        program: &Program,
        graph: &'a CallGraph,
        previous: Option<&[bool]>,
        keep: bool,
    ) -> (AbsEnv<'a>, Vec<Option<AbsInt>>) {
        let n = program.functions.len();
        let address_taken: Vec<usize> = program
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.address_taken)
            .map(|(i, _)| i)
            .collect();
        let mut objects: Vec<(i64, i64)> = program
            .data_symbols
            .iter()
            .filter(|s| s.size > 0)
            .map(|s| (i64::from(s.addr), i64::from(s.addr) + i64::from(s.size)))
            .collect();
        objects.sort_unstable();
        let mut env = AbsEnv {
            graph,
            balanced: vec![true; n],
            address_taken,
            objects,
            analyses: 0,
        };
        let mut states: Vec<Option<AbsInt>> = vec![None; n];
        // Per function, whether its balance differs from `previous`.
        let mut moved = vec![false; n];
        for component in &graph.components {
            let stale = |f: &usize| {
                graph.changed[*f] || graph.deps[*f].iter().any(|&d| graph.moved[d] || moved[d])
            };
            match previous {
                Some(previous) if !component.iter().any(|f| stale(f) || *f >= previous.len()) => {
                    for &f in component {
                        env.balanced[f] = previous[f];
                    }
                    continue;
                }
                _ => {}
            }
            let cyclic = component.len() > 1 || graph.deps[component[0]].contains(&component[0]);
            loop {
                let mut flipped = false;
                for &f in component {
                    if !env.balanced[f] {
                        continue;
                    }
                    // Each function sees the facts flipped earlier in the
                    // same pass.
                    let func = &program.functions[f];
                    let a = AbsInt::analyze(func, Some(&env));
                    env.analyses += 1;
                    let balanced = env.returns_balanced(func, &a);
                    if !balanced {
                        env.balanced[f] = false;
                        flipped = true;
                    }
                    states[f] = (keep && (balanced || !cyclic)).then_some(a);
                }
                if !cyclic || !flipped {
                    break;
                }
            }
            if let Some(previous) = previous {
                for &f in component {
                    moved[f] = previous.get(f) != Some(&env.balanced[f]);
                }
            }
        }
        (env, states)
    }

    /// Function analyses the balance fixpoint ran.
    pub fn analyses(&self) -> u64 {
        self.analyses
    }

    /// The callee facts [`AbsInt::analyze`] consults on `f`, in item
    /// order: the clobber set of each direct call (which folds in the
    /// callee's sp balance) and of each indirect call. Two environments
    /// that agree on them give `f` the same states.
    pub fn call_facts(&self, f: &FunctionCode) -> Vec<gpa_arm::reg::RegSet> {
        f.items
            .iter()
            .filter_map(|item| match item {
                Item::Call { target, .. } => Some(self.call_clobbers(target)),
                Item::IndirectCall { .. } => Some(self.indirect_call_clobbers()),
                _ => None,
            })
            .collect()
    }

    /// The extent `[lo, hi)` of the data object `addr` points into, if
    /// any.
    fn object_containing(&self, addr: i64) -> Option<(i64, i64)> {
        let i = self.objects.partition_point(|&(lo, _)| lo <= addr);
        let &(lo, hi) = self.objects.get(i.checked_sub(1)?)?;
        (addr < hi).then_some((lo, hi))
    }

    /// Whether every reachable return of `f` (whose states under this
    /// environment are `a`) restores `sp` exactly. Tail calls fail the
    /// check: the unwind continues in another function, beyond this
    /// analysis.
    fn returns_balanced(&self, f: &FunctionCode, a: &AbsInt) -> bool {
        for (i, item) in f.items.iter().enumerate() {
            let Some(before) = &a.before[i] else { continue };
            match item {
                Item::TailCall { .. } => return false,
                Item::Insn(insn) if item.is_return() => {
                    let mut after = *before;
                    apply_insn(&mut after, insn, i);
                    if after.get(Reg::SP) != AbsValue::SpRel(0) {
                        return false;
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// Per function, whether it provably returns with `sp` restored.
    pub fn balanced(&self) -> &[bool] {
        &self.balanced
    }

    /// Whether a call to `target` provably returns with `sp` restored.
    pub fn sp_balanced(&self, target: &str) -> bool {
        self.graph
            .index
            .get(target)
            .is_some_and(|&i| self.balanced[i])
    }

    /// The registers a call to `target` may leave clobbered.
    fn call_clobbers(&self, target: &str) -> gpa_arm::reg::RegSet {
        let Some(&i) = self.graph.index.get(target) else {
            return gpa_arm::reg::RegSet(0xffff);
        };
        let mut defs = self.graph.summaries[i].defs;
        if self.balanced[i] {
            defs.remove(Reg::SP);
        }
        // `bl` always writes the link register.
        defs.insert(Reg::LR);
        defs
    }

    /// The registers an *indirect* call may leave clobbered: the union
    /// over every address-taken function, with `sp` preserved only when
    /// all of them are balanced. No address-taken functions means the
    /// call target is outside the image's closed world — clobber
    /// everything.
    fn indirect_call_clobbers(&self) -> gpa_arm::reg::RegSet {
        if self.address_taken.is_empty() {
            return gpa_arm::reg::RegSet(0xffff);
        }
        let mut defs = gpa_arm::reg::RegSet::EMPTY;
        let mut all_balanced = true;
        for &i in &self.address_taken {
            defs = defs.union(self.graph.summaries[i].defs);
            all_balanced &= self.balanced[i];
        }
        if all_balanced {
            defs.remove(Reg::SP);
        }
        defs.insert(Reg::LR);
        defs
    }
}

/// Applies one item's transfer function to a state. `idx` is the item's
/// index within its function (the identity of any symbolic base the item
/// mints).
///
/// `env` supplies per-callee clobber summaries and the sp-balance facts;
/// without it every call conservatively clobbers all sixteen registers.
pub fn transfer(state: &mut RegState, item: &Item, idx: usize, env: Option<&AbsEnv>) {
    match item {
        Item::Label(_) | Item::Branch { .. } | Item::TailCall { .. } => {}
        Item::Insn(insn) => transfer_insn(state, insn, idx),
        Item::Call { target, .. } => {
            // Call-clobbered registers go to ⊤, not to symbols: the
            // clobber summary is a may-write set, so the register may
            // equally retain its old value — there is no single
            // definition point to name.
            let clobbers = env
                .map(|e| e.call_clobbers(target))
                .unwrap_or(gpa_arm::reg::RegSet(0xffff));
            for r in clobbers.iter() {
                state.set(r, AbsValue::Top);
            }
        }
        Item::IndirectCall { .. } => {
            // Closed world: the target is one of the address-taken
            // functions, so their joint clobber summary applies.
            let clobbers = env.map_or(gpa_arm::reg::RegSet(0xffff), AbsEnv::indirect_call_clobbers);
            for r in clobbers.iter() {
                state.set(r, AbsValue::Top);
            }
        }
        Item::LitLoad { rd, lit } => {
            let v = match lit {
                Literal::Word(w) => AbsValue::Const(i64::from(*w)),
                // A code address is a link-time constant: unknown here,
                // but fixed — a symbolic base.
                Literal::Code(_) => AbsValue::SymRel(def_sym(idx, *rd), 0),
            };
            state.set(*rd, v);
        }
    }
}

/// The fixpoint result: one abstract state per program point.
#[derive(Clone, Debug)]
pub struct AbsInt {
    /// Per item, the state immediately *before* the item executes;
    /// `None` when the item is unreachable from the function entry.
    pub before: Vec<Option<RegState>>,
    /// Number of reachable program points (the `absint.points` counter).
    pub points: u64,
}

impl AbsInt {
    /// Runs the forward worklist to a fixpoint over one function.
    pub fn analyze(f: &FunctionCode, env: Option<&AbsEnv>) -> AbsInt {
        let cfg = FnCfg::build(f);
        let n = cfg.blocks.len();
        let mut in_states: Vec<Option<RegState>> = vec![None; n];
        if n > 0 {
            in_states[0] = Some(RegState::entry());
        }
        let mut work: Vec<usize> = (0..n).rev().collect();
        while let Some(b) = work.pop() {
            let Some(mut out) = in_states[b] else {
                continue;
            };
            let block = &cfg.blocks[b];
            for i in block.start..block.end {
                transfer(&mut out, &f.items[i], i, env);
            }
            for &s in &block.succs {
                let merged = match &in_states[s] {
                    None => out,
                    Some(cur) => cur.join(&out),
                };
                if in_states[s] != Some(merged) {
                    in_states[s] = Some(merged);
                    if !work.contains(&s) {
                        work.push(s);
                    }
                }
            }
        }
        let mut before = vec![None; f.items.len()];
        for (b, block) in cfg.blocks.iter().enumerate() {
            let Some(mut state) = in_states[b] else {
                continue;
            };
            for (i, slot) in before
                .iter_mut()
                .enumerate()
                .take(block.end)
                .skip(block.start)
            {
                *slot = Some(state);
                transfer(&mut state, &f.items[i], i, env);
            }
        }
        let points = before.iter().filter(|s| s.is_some()).count() as u64;
        AbsInt { before, points }
    }
}

/// The address base of one resolved memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessBase {
    /// The function-entry stack pointer.
    Sp,
    /// An absolute address (the interval bounds are absolute).
    Abs,
    /// The fixed-but-unknown value named by a symbol (see
    /// [`sym_def_index`]).
    Sym(u32),
}

/// One resolved memory access: the half-open byte interval `[lo, hi)`
/// relative to its [`AccessBase`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbsAccess {
    /// What `lo`/`hi` are relative to.
    pub base: AccessBase,
    /// First byte touched (base-relative).
    pub lo: i64,
    /// One past the last byte touched.
    pub hi: i64,
    /// Whether the access writes memory.
    pub store: bool,
}

impl AbsAccess {
    /// Whether the byte *intervals* are disjoint. Meaningful only for
    /// two accesses known to share a base; see
    /// [`AbsAccess::provably_disjoint`] for the full check.
    pub fn disjoint(&self, other: &AbsAccess) -> bool {
        self.hi <= other.lo || other.hi <= self.lo
    }

    /// Whether this access (performed at item `earlier`) and `other`
    /// (performed at item `later` of the same straight-line run, with
    /// `earlier < later` as function-absolute indices) provably touch
    /// disjoint bytes.
    ///
    /// Two accesses are provably disjoint only when their bases are
    /// provably equal and their intervals do not overlap. `Sp`-based and
    /// `Abs`-based pairs share their base unconditionally. A symbolic
    /// base is one *definition point's* value, so the pair additionally
    /// requires that the definition does not execute between the two
    /// accesses — otherwise the base may have changed, and the offsets
    /// compare values of different instants.
    pub fn provably_disjoint(&self, other: &AbsAccess, earlier: usize, later: usize) -> bool {
        match (self.base, other.base) {
            // A stack access and a static-image access never collide:
            // the stack grows from the top of memory and, absent stack
            // overflow (which the whole rewrite already assumes away),
            // never descends into the static data the literal pool
            // addresses.
            (AccessBase::Sp, AccessBase::Abs) | (AccessBase::Abs, AccessBase::Sp) => true,
            (AccessBase::Sp, AccessBase::Sp) | (AccessBase::Abs, AccessBase::Abs) => {
                self.disjoint(other)
            }
            (AccessBase::Sym(a), AccessBase::Sym(b)) if a == b => {
                sym_def_index(a).is_none_or(|d| !(earlier < d && d < later)) && self.disjoint(other)
            }
            _ => false,
        }
    }
}

/// Resolves every memory access of `item` against the abstract state at
/// its program point.
///
/// Returns `Some(accesses)` only when *every* access the item may
/// perform is provably a bounded interval from a known base (the entry
/// `sp`, an absolute address, or a symbolic base); `Some(vec![])` when
/// the item touches no memory; `None` when any access is unresolvable
/// (⊤ base, register offset off an unknown base, `swi`, calls).
///
/// A register-indexed access off an *absolute* base that points into a
/// known data object resolves to the whole object's extent: the index
/// is unknown, but an in-bounds access through an object pointer stays
/// inside the object (indexing out of it is undefined behaviour the
/// analysis — like the rest of the rewriter — assumes away). `env`
/// supplies the object table; without it such accesses stay unresolved.
pub fn resolved_accesses(
    state: &RegState,
    item: &Item,
    env: Option<&AbsEnv>,
) -> Option<Vec<AbsAccess>> {
    let fx = item.effects();
    if !fx.reads_mem && !fx.writes_mem {
        return Some(Vec::new());
    }
    let Item::Insn(insn) = item else {
        // Calls (and the fragment-call barrier) touch memory in ways no
        // addressing shape describes.
        return None;
    };
    let shapes = insn.mem_fx().accesses?;
    let mut out = Vec::with_capacity(shapes.len());
    for access in shapes {
        let (base, start) = match state.get(access.base) {
            AbsValue::SpRel(b) => (AccessBase::Sp, b),
            AbsValue::Const(c) => (AccessBase::Abs, c),
            AbsValue::SymRel(s, b) => (AccessBase::Sym(s), b),
            AbsValue::Top | AbsValue::Bottom => return None,
        };
        let disp = match access.disp {
            MemDisp::Imm(d) => Some(d),
            MemDisp::Reg(rm, sub) => match state.get(rm) {
                AbsValue::Const(c) => {
                    let d = as_signed(c);
                    Some(if sub { -d } else { d })
                }
                _ => None,
            },
        };
        match disp {
            Some(d) => {
                let lo = start + d;
                out.push(AbsAccess {
                    base,
                    lo,
                    hi: lo + access.width,
                    store: access.store,
                });
            }
            None => {
                // Unknown index: bound the access by the data object the
                // base points into.
                let (lo, hi) = match base {
                    AccessBase::Abs => env?.object_containing(start)?,
                    _ => return None,
                };
                out.push(AbsAccess {
                    base: AccessBase::Abs,
                    lo,
                    hi,
                    store: access.store,
                });
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arm::Cond;
    use gpa_cfg::LabelId;

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
    fn join_is_a_flat_lattice() {
        use AbsValue::*;
        assert_eq!(Const(4).join(Const(4)), Const(4));
        assert_eq!(Const(4).join(Const(5)), Top);
        assert_eq!(SpRel(-8).join(SpRel(-8)), SpRel(-8));
        assert_eq!(SpRel(-8).join(Const(4)), Top);
        assert_eq!(Bottom.join(SpRel(0)), SpRel(0));
        assert_eq!(Top.join(Bottom), Top);
    }

    #[test]
    fn tracks_sp_through_prologue_and_epilogue() {
        // push {r4, lr}; sub sp, #16; add sp, #16; pop {r4, pc}
        let f = func(
            vec![
                insn("stmdb sp!, {r4, lr}"),
                insn("sub sp, sp, #16"),
                insn("mov r0, #0"),
                insn("add sp, sp, #16"),
                insn("ldmia sp!, {r4, pc}"),
            ],
            0,
        );
        let a = AbsInt::analyze(&f, None);
        assert_eq!(a.points, 5);
        let sp = |i: usize| a.before[i].unwrap().get(Reg::SP);
        assert_eq!(sp(0), AbsValue::SpRel(0));
        assert_eq!(sp(1), AbsValue::SpRel(-8));
        assert_eq!(sp(2), AbsValue::SpRel(-24));
        assert_eq!(sp(4), AbsValue::SpRel(-8));
        // After the pop writeback sp is balanced again.
        let mut end = a.before[4].unwrap();
        transfer(&mut end, &f.items[4], 4, None);
        assert_eq!(end.get(Reg::SP), AbsValue::SpRel(0));
    }

    #[test]
    fn constants_flow_through_mov_add_and_shifts() {
        let f = func(
            vec![
                insn("mov r1, #5"),
                insn("add r2, r1, #3"),
                insn("mov r3, r2, lsl #2"),
                insn("mvn r4, #0"),
                insn("bx lr"),
            ],
            0,
        );
        let a = AbsInt::analyze(&f, None);
        let at = |i: usize, r: u8| a.before[i].unwrap().get(Reg::r(r));
        assert_eq!(at(1, 1), AbsValue::Const(5));
        assert_eq!(at(2, 2), AbsValue::Const(8));
        assert_eq!(at(3, 3), AbsValue::Const(32));
        assert_eq!(at(4, 4), AbsValue::Const(0xffff_ffff));
    }

    #[test]
    fn joins_lose_disagreeing_values_at_merges() {
        // if-else assigning different constants to r1.
        let f = func(
            vec![
                insn("cmp r0, #0"),
                Item::Branch {
                    cond: Cond::Eq,
                    target: LabelId(0),
                },
                insn("mov r1, #1"),
                Item::Branch {
                    cond: Cond::Al,
                    target: LabelId(1),
                },
                Item::Label(LabelId(0)),
                insn("mov r1, #2"),
                Item::Label(LabelId(1)),
                insn("bx lr"),
            ],
            2,
        );
        let a = AbsInt::analyze(&f, None);
        assert_eq!(a.before[7].unwrap().get(Reg::r(1)), AbsValue::Top);
        // The same-valued sp still survives the merge.
        assert_eq!(a.before[7].unwrap().get(Reg::SP), AbsValue::SpRel(0));
    }

    #[test]
    fn conditional_writes_join_with_the_old_value() {
        let f = func(
            vec![
                insn("mov r1, #7"),
                insn("cmp r0, #0"),
                insn("moveq r1, #7"),
                insn("movne r2, #1"),
                insn("bx lr"),
            ],
            0,
        );
        let a = AbsInt::analyze(&f, None);
        // moveq writes the same constant: value survives.
        assert_eq!(a.before[3].unwrap().get(Reg::r(1)), AbsValue::Const(7));
        // movne may or may not execute: r2 is unknown afterwards.
        assert_eq!(a.before[4].unwrap().get(Reg::r(2)), AbsValue::Top);
    }

    #[test]
    fn calls_clobber_per_summary() {
        // Without a call graph, calls wipe everything including sp.
        let f = func(
            vec![
                insn("sub sp, sp, #8"),
                Item::Call {
                    cond: Cond::Al,
                    target: "g".into(),
                },
                insn("add sp, sp, #8"),
                insn("bx lr"),
            ],
            0,
        );
        let a = AbsInt::analyze(&f, None);
        assert_eq!(a.before[2].unwrap().get(Reg::SP), AbsValue::Top);

        // With summaries, a well-behaved callee leaves sp alone.
        let mut g = func(vec![insn("mov r0, #1"), insn("bx lr")], 0);
        g.name = "g".into();
        let program = program(vec![f.clone(), g]);
        let graph = CallGraph::build(&program);
        let env = AbsEnv::build(&program, &graph);
        let a = AbsInt::analyze(&f, Some(&env));
        assert_eq!(a.before[2].unwrap().get(Reg::SP), AbsValue::SpRel(-8));
        assert_eq!(a.before[2].unwrap().get(Reg::LR), AbsValue::Top);
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

    #[test]
    fn balanced_callees_preserve_sp_across_calls() {
        // The callee adjusts its frame — its summary clobbers sp — but it
        // provably restores it on every return path.
        let f = func(
            vec![
                insn("sub sp, sp, #8"),
                Item::Call {
                    cond: Cond::Al,
                    target: "g".into(),
                },
                insn("add sp, sp, #8"),
                insn("bx lr"),
            ],
            0,
        );
        let mut g = func(
            vec![
                insn("stmdb sp!, {r4, lr}"),
                insn("sub sp, sp, #16"),
                insn("add sp, sp, #16"),
                insn("ldmia sp!, {r4, pc}"),
            ],
            0,
        );
        g.name = "g".into();
        let p = program(vec![f.clone(), g]);
        let graph = CallGraph::build(&p);
        assert!(graph.summary("g").unwrap().defs.contains(Reg::SP));
        let env = AbsEnv::build(&p, &graph);
        assert!(env.sp_balanced("g"));
        let a = AbsInt::analyze(&f, Some(&env));
        assert_eq!(a.before[2].unwrap().get(Reg::SP), AbsValue::SpRel(-8));
    }

    #[test]
    fn unbalanced_callees_wipe_sp() {
        // The callee leaks eight bytes of frame on one return path; its
        // callers must not assume sp survived the call. The imbalance
        // also infects g's own callers transitively.
        let f = func(
            vec![
                insn("sub sp, sp, #8"),
                Item::Call {
                    cond: Cond::Al,
                    target: "g".into(),
                },
                insn("add sp, sp, #8"),
                insn("bx lr"),
            ],
            0,
        );
        let mut g = func(vec![insn("sub sp, sp, #8"), insn("bx lr")], 0);
        g.name = "g".into();
        let mut h = func(
            vec![
                Item::Call {
                    cond: Cond::Al,
                    target: "g".into(),
                },
                insn("bx lr"),
            ],
            0,
        );
        h.name = "h".into();
        let p = program(vec![f.clone(), g, h]);
        let graph = CallGraph::build(&p);
        let env = AbsEnv::build(&p, &graph);
        assert!(!env.sp_balanced("g"));
        assert!(!env.sp_balanced("h"));
        // f restores its own eight bytes, but on top of a wiped sp — so
        // nothing is provable about f either.
        assert!(!env.sp_balanced("f"));
        let a = AbsInt::analyze(&f, Some(&env));
        assert_eq!(a.before[2].unwrap().get(Reg::SP), AbsValue::Top);
    }

    #[test]
    fn resolves_stack_slots_and_symbolic_bases() {
        let f = func(
            vec![
                insn("sub sp, sp, #16"),
                insn("str r0, [sp, #4]"),
                insn("ldrb r1, [sp, #8]"),
                insn("ldr r2, [r6, #4]"),
                insn("ldr r3, [sp, r2]"),
                insn("bx lr"),
            ],
            0,
        );
        let a = AbsInt::analyze(&f, None);
        let at = |i: usize| resolved_accesses(&a.before[i].unwrap(), &f.items[i], None);
        assert_eq!(
            at(1),
            Some(vec![AbsAccess {
                base: AccessBase::Sp,
                lo: -12,
                hi: -8,
                store: true
            }])
        );
        assert_eq!(
            at(2),
            Some(vec![AbsAccess {
                base: AccessBase::Sp,
                lo: -8,
                hi: -7,
                store: false
            }])
        );
        // r6 still holds its entry value: the access resolves against
        // the entry symbol.
        assert_eq!(
            at(3),
            Some(vec![AbsAccess {
                base: AccessBase::Sym(entry_sym(Reg::r(6))),
                lo: 4,
                hi: 8,
                store: false
            }])
        );
        // A register displacement with unknown value stays unresolved
        // (r2 was just loaded — its symbol names a value, not a number).
        assert_eq!(at(4), None);
        // ALU items resolve to "no accesses".
        assert_eq!(at(0), Some(Vec::new()));
        assert!(at(1).unwrap()[0].provably_disjoint(&at(2).unwrap()[0], 1, 2));
        // Different bases are never provably disjoint.
        assert!(!at(2).unwrap()[0].provably_disjoint(&at(3).unwrap()[0], 2, 3));
    }

    #[test]
    fn mov_of_sp_propagates_the_frame_base() {
        let f = func(
            vec![insn("mov r4, sp"), insn("str r0, [r4, #12]"), insn("bx lr")],
            0,
        );
        let a = AbsInt::analyze(&f, None);
        assert_eq!(a.before[1].unwrap().get(Reg::r(4)), AbsValue::SpRel(0));
        assert_eq!(
            resolved_accesses(&a.before[1].unwrap(), &f.items[1], None),
            Some(vec![AbsAccess {
                base: AccessBase::Sp,
                lo: 12,
                hi: 16,
                store: true
            }])
        );
    }

    #[test]
    fn symbolic_bases_flow_through_arithmetic_and_writeback() {
        // r0 at entry is a symbolic base; `add` shifts its offset and a
        // post-indexed load advances it, while the loaded value mints a
        // fresh symbol at the load's index.
        let f = func(
            vec![
                insn("add r1, r0, #8"),
                insn("ldr r2, [r0], #4"),
                insn("sub r3, r1, r0"),
                insn("bx lr"),
            ],
            0,
        );
        let a = AbsInt::analyze(&f, None);
        let s0 = entry_sym(Reg::r(0));
        let at = |i: usize, r: u8| a.before[i].unwrap().get(Reg::r(r));
        assert_eq!(at(1, 1), AbsValue::SymRel(s0, 8));
        assert_eq!(at(2, 0), AbsValue::SymRel(s0, 4));
        assert_eq!(at(2, 2), AbsValue::SymRel(def_sym(1, Reg::r(2)), 0));
        // Same-symbol subtraction folds to the constant offset delta.
        assert_eq!(at(3, 3), AbsValue::Const(4));
    }

    #[test]
    fn same_symbol_accesses_disjoint_unless_def_intervenes() {
        // str [r1] at 0, redefine r1 at 1, ldr [r1, #4] at 2: both
        // accesses resolve, but relaxing across the redefinition would
        // compare bases from different instants.
        let f = func(
            vec![
                insn("str r0, [r1]"),
                insn("ldr r1, [r2]"),
                insn("ldr r3, [r1, #4]"),
                insn("bx lr"),
            ],
            0,
        );
        let a = AbsInt::analyze(&f, None);
        let at = |i: usize| resolved_accesses(&a.before[i].unwrap(), &f.items[i], None).unwrap();
        let early = at(0)[0];
        let late = at(2)[0];
        // Different symbols (entry r1 vs the load at 1): never disjoint.
        assert_eq!(early.base, AccessBase::Sym(entry_sym(Reg::r(1))));
        assert_eq!(late.base, AccessBase::Sym(def_sym(1, Reg::r(1))));
        assert!(!early.provably_disjoint(&late, 0, 2));

        // Same symbol, no redefinition in between: disjoint holds, and
        // the def-position rule blocks a pair that straddles the def.
        let probe = AbsAccess {
            base: AccessBase::Sym(def_sym(1, Reg::r(1))),
            lo: 8,
            hi: 12,
            store: true,
        };
        assert!(late.provably_disjoint(&probe, 2, 5));
        assert!(!late.provably_disjoint(&probe, 0, 5), "def at 1 intervenes");
    }

    #[test]
    fn absolute_bases_resolve_and_disjoint() {
        use gpa_cfg::Literal;
        // Two globals at known absolute addresses.
        let f = func(
            vec![
                Item::LitLoad {
                    rd: Reg::r(1),
                    lit: Literal::Word(0x2_0000),
                },
                Item::LitLoad {
                    rd: Reg::r(2),
                    lit: Literal::Word(0x2_0100),
                },
                insn("str r0, [r1]"),
                insn("ldr r3, [r2, #8]"),
                insn("bx lr"),
            ],
            0,
        );
        let a = AbsInt::analyze(&f, None);
        let at = |i: usize| resolved_accesses(&a.before[i].unwrap(), &f.items[i], None).unwrap();
        assert_eq!(
            at(2),
            vec![AbsAccess {
                base: AccessBase::Abs,
                lo: 0x2_0000,
                hi: 0x2_0004,
                store: true
            }]
        );
        assert!(at(2)[0].provably_disjoint(&at(3)[0], 2, 3));
    }

    #[test]
    fn register_indexed_table_lookups_bound_to_their_object() {
        use gpa_cfg::Literal;
        // A byte-table lookup `ldrb r2, [r1, r0]` with an unknown index:
        // unresolvable in isolation, but `r1` points at a 64-byte data
        // object, so an in-bounds access stays within its extent.
        let f = func(
            vec![
                Item::LitLoad {
                    rd: Reg::r(1),
                    lit: Literal::Word(0x2_0010),
                },
                insn("ldrb r2, [r1, r0]"),
                insn("str r3, [sp, #-4]"),
                insn("bx lr"),
            ],
            0,
        );
        let mut p = program(vec![f.clone()]);
        p.data_symbols = vec![
            gpa_image::Symbol {
                name: "table".into(),
                addr: 0x2_0010,
                size: 64,
                kind: gpa_image::SymbolKind::Object,
                address_taken: false,
            },
            gpa_image::Symbol {
                name: "other".into(),
                addr: 0x2_0100,
                size: 16,
                kind: gpa_image::SymbolKind::Object,
                address_taken: false,
            },
        ];
        let graph = CallGraph::build(&p);
        let env = AbsEnv::build(&p, &graph);
        let a = AbsInt::analyze(&f, Some(&env));
        // Without the object table the access stays unresolved …
        assert_eq!(
            resolved_accesses(&a.before[1].unwrap(), &f.items[1], None),
            None
        );
        // … with it, the lookup is the whole table extent.
        let at =
            |i: usize| resolved_accesses(&a.before[i].unwrap(), &f.items[i], Some(&env)).unwrap();
        assert_eq!(
            at(1),
            vec![AbsAccess {
                base: AccessBase::Abs,
                lo: 0x2_0010,
                hi: 0x2_0050,
                store: false
            }]
        );
        // A bounded table read and a stack spill are provably disjoint
        // (static image vs stack), so their MEM pair can relax.
        assert!(at(1)[0].provably_disjoint(&at(2)[0], 1, 2));
        // An address past the table's end resolves to no object.
        let g = func(
            vec![
                Item::LitLoad {
                    rd: Reg::r(1),
                    lit: Literal::Word(0x2_0050),
                },
                insn("ldrb r2, [r1, r0]"),
                insn("bx lr"),
            ],
            0,
        );
        let b = AbsInt::analyze(&g, Some(&env));
        assert_eq!(
            resolved_accesses(&b.before[1].unwrap(), &g.items[1], Some(&env)),
            None
        );
    }
}
