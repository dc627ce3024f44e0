//! Property tests for the absint-driven MEM-edge relaxation: every
//! relaxed pair must be independently re-derivable by the validator's
//! V107 primitive, every linearization of the relaxed DFG must execute
//! to the same concrete machine state as program order, and building
//! without an oracle (`AliasLevel::Off`) must reproduce the conservative
//! graph bit-for-bit.

use proptest::prelude::*;

use gpa::trace::trace_equivalent;
use gpa_arm::{Instruction, Reg};
use gpa_cfg::{FunctionCode, Item};
use gpa_dfg::{
    build_dfg_from_items, build_dfg_from_items_with, AliasBase, AliasInterval, AliasOracle, Dfg,
};
use gpa_emu::Machine;
use gpa_image::Image;
use gpa_verify::absint::{self, sym_def_index};
use gpa_verify::{AbsInt, AccessBase};

/// One straight-line op: concrete enough to execute on the emulator,
/// abstract enough for every access to resolve to an `sp`-relative
/// interval.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `mov rD, #imm`
    MovImm(u8, u32),
    /// `add rD, rD, #imm`
    AddImm(u8, u32),
    /// `str rD, [sp, #off]`
    StoreWord(u8, i64),
    /// `ldr rD, [sp, #off]`
    LoadWord(u8, i64),
    /// `strb rD, [sp, #off]`
    StoreByte(u8, i64),
    /// `ldrb rD, [sp, #off]`
    LoadByte(u8, i64),
}

impl Op {
    fn text(self) -> String {
        match self {
            Op::MovImm(rd, imm) => format!("mov r{rd}, #{imm}"),
            Op::AddImm(rd, imm) => format!("add r{rd}, r{rd}, #{imm}"),
            Op::StoreWord(rd, off) => format!("str r{rd}, [sp, #{off}]"),
            Op::LoadWord(rd, off) => format!("ldr r{rd}, [sp, #{off}]"),
            Op::StoreByte(rd, off) => format!("strb r{rd}, [sp, #{off}]"),
            Op::LoadByte(rd, off) => format!("ldrb r{rd}, [sp, #{off}]"),
        }
    }

    fn insn(self) -> Instruction {
        self.text().parse().unwrap()
    }

    fn item(self) -> Item {
        Item::Insn(self.insn())
    }
}

/// Word slots at 0/4/8 plus byte slots anywhere in 0..12 give the fuzzer
/// both provably disjoint pairs and genuinely overlapping ones (a byte
/// poked into the middle of a word slot must keep its MEM edge).
fn arb_op() -> impl Strategy<Value = Op> {
    let reg = 0u8..4;
    let word_off = (0i64..3).prop_map(|k| k * 4);
    prop_oneof![
        (reg.clone(), 0u32..256).prop_map(|(r, v)| Op::MovImm(r, v)),
        (reg.clone(), 1u32..64).prop_map(|(r, v)| Op::AddImm(r, v)),
        (reg.clone(), word_off.clone()).prop_map(|(r, o)| Op::StoreWord(r, o)),
        (reg.clone(), word_off).prop_map(|(r, o)| Op::LoadWord(r, o)),
        (reg.clone(), 0i64..12).prop_map(|(r, o)| Op::StoreByte(r, o)),
        (reg, 0i64..12).prop_map(|(r, o)| Op::LoadByte(r, o)),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 2..12)
}

/// Runs the abstract interpreter over the ops and projects its resolved
/// footprints into the oracle shape the optimizer feeds the DFG builder
/// (mirrors `graph_detect::region_oracles` for a whole-function region).
fn oracle_for(f: &FunctionCode) -> AliasOracle {
    let a = AbsInt::analyze(f, None);
    let slots = (0..f.items.len())
        .map(|i| {
            let state = a.before.get(i)?.as_ref()?;
            let accesses = absint::resolved_accesses(state, &f.items[i], None)?;
            Some(
                accesses
                    .iter()
                    .map(|acc| AliasInterval {
                        base: match acc.base {
                            AccessBase::Sp => AliasBase::Sp,
                            AccessBase::Abs => AliasBase::Abs,
                            AccessBase::Sym(sym) => AliasBase::Sym {
                                sym,
                                def: sym_def_index(sym),
                            },
                        },
                        lo: acc.lo,
                        hi: acc.hi,
                    })
                    .collect(),
            )
        })
        .collect();
    AliasOracle { slots }
}

/// A topological linearization of the DFG with fuzzer-chosen tie-breaks,
/// so different runs explore different valid orders.
fn linearize(dfg: &Dfg, picks: &[usize]) -> Vec<usize> {
    let n = dfg.node_count();
    let mut indeg = vec![0usize; n];
    let mut succs = vec![Vec::new(); n];
    for e in dfg.edges() {
        indeg[e.to] += 1;
        succs[e.from].push(e.to);
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut out = Vec::with_capacity(n);
    let mut k = 0usize;
    while !ready.is_empty() {
        let pick = picks.get(k).copied().unwrap_or(0) % ready.len();
        k += 1;
        let node = ready.swap_remove(pick);
        out.push(node);
        for &s in &succs[node] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    assert_eq!(out.len(), n, "DFG is acyclic");
    out
}

/// Executes the ops in the given order on the concrete emulator and
/// returns the observable final state: `r0`–`r3` and the sixteen stack
/// bytes the ops address.
fn run_order(ops: &[Op], order: &[usize]) -> (Vec<u32>, Vec<u8>) {
    let mut image = Image::new(0x8000, 0x2_0000);
    for &i in order {
        image.push_code_word(ops[i].insn().encode().unwrap());
    }
    image.push_code_word("swi #0".parse::<Instruction>().unwrap().encode().unwrap());
    let mut m = Machine::new(&image);
    for r in 0..4u8 {
        m.set_reg(Reg::r(r), 0x0101_0101u32.wrapping_mul(u32::from(r) + 1));
    }
    let sp = m.reg(Reg::SP);
    m.run(10_000).unwrap();
    let regs = (0..4u8).map(|r| m.reg(Reg::r(r))).collect();
    let mem = (0..16u32).map(|o| m.memory().read_byte(sp + o)).collect();
    (regs, mem)
}

fn function(ops: &[Op]) -> FunctionCode {
    FunctionCode {
        name: "t".into(),
        address_taken: false,
        items: ops.iter().map(|o| o.item()).collect(),
        label_count: 0,
    }
}

/// The properties below are not vacuous: a store/load pair to provably
/// distinct stack slots really does get its MEM edge dropped.
#[test]
fn disjoint_slots_do_relax() {
    let ops = [Op::StoreWord(0, 0), Op::LoadWord(1, 4)];
    let f = function(&ops);
    let oracle = oracle_for(&f);
    let r = build_dfg_from_items_with(&f.items, Some(&oracle));
    assert_eq!(r.relaxed, vec![(0, 1)]);
    assert!(!r.dfg.reaches(0, 1), "relaxed pair must be unordered");
    // And the overlapping variant keeps its edge.
    let ops = [Op::StoreWord(0, 0), Op::LoadByte(1, 2)];
    let f = function(&ops);
    let oracle = oracle_for(&f);
    let r = build_dfg_from_items_with(&f.items, Some(&oracle));
    assert!(r.relaxed.is_empty());
    assert!(r.dfg.reaches(0, 1));
}

proptest! {
    /// `AliasLevel::Off` (no oracle) is bit-for-bit today's conservative
    /// graph: nothing relaxed, identical nodes and edges.
    #[test]
    fn no_oracle_is_byte_identical_to_conservative(ops in arb_ops()) {
        let f = function(&ops);
        let conservative = build_dfg_from_items(&f.items);
        let r = build_dfg_from_items_with(&f.items, None);
        prop_assert!(r.relaxed.is_empty());
        prop_assert_eq!(r.dfg, conservative);
    }

    /// Every relaxed pair survives the validator's V107 re-derivation: a
    /// fresh abstract interpretation re-resolves both footprints and
    /// proves them pairwise disjoint — the oracle's word is never taken
    /// on trust.
    #[test]
    fn relaxed_pairs_are_recertified_by_v107(ops in arb_ops()) {
        let f = function(&ops);
        let oracle = oracle_for(&f);
        let r = build_dfg_from_items_with(&f.items, Some(&oracle));
        let a = AbsInt::analyze(&f, None);
        for &(i, j) in &r.relaxed {
            prop_assert!(i < j, "relaxed pairs are (earlier, later)");
            let resolve = |k: usize| {
                absint::resolved_accesses(a.before[k].as_ref().unwrap(), &f.items[k], None)
            };
            let (fi, fj) = (resolve(i), resolve(j));
            prop_assert!(fi.is_some() && fj.is_some(), "relaxed node unresolved");
            for x in fi.as_deref().unwrap() {
                for y in fj.as_deref().unwrap() {
                    prop_assert!(
                        x.provably_disjoint(y, i, j),
                        "pair ({i}, {j}) not re-derivable: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }

    /// Semantic preservation: any linearization of the *relaxed* DFG
    /// executes to the same concrete machine state as program order, and
    /// any linearization of the *conservative* DFG additionally stays in
    /// the syntactic Mazurkiewicz trace class.
    #[test]
    fn relaxed_linearizations_preserve_semantics(
        ops in arb_ops(),
        picks in proptest::collection::vec(0usize..64, 0..24),
    ) {
        let f = function(&ops);
        let oracle = oracle_for(&f);
        let r = build_dfg_from_items_with(&f.items, Some(&oracle));

        let program_order: Vec<usize> = (0..ops.len()).collect();
        let reference = run_order(&ops, &program_order);

        // Conservative linearizations never leave the trace class.
        let conservative = build_dfg_from_items(&f.items);
        let lin_c = linearize(&conservative, &picks);
        let reordered: Vec<Item> = lin_c.iter().map(|&i| f.items[i].clone()).collect();
        prop_assert!(trace_equivalent(&f.items, &reordered));
        prop_assert_eq!(run_order(&ops, &lin_c), reference.clone());

        // Relaxed linearizations may reorder certified-disjoint memory
        // pairs — outside the syntactic class — but the machine cannot
        // tell the difference.
        let lin_r = linearize(&r.dfg, &picks);
        prop_assert_eq!(run_order(&ops, &lin_r), reference);
    }
}
