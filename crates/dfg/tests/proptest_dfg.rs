//! Property tests for DFG construction: the reduced edge set generates
//! exactly the intrinsic dependence partial order, and every valid
//! topological order of the DFG is trace-equivalent to program order.

use proptest::prelude::*;

use gpa_arm::insn::{DpOp, Instruction};
use gpa_arm::{Cond, Reg};
use gpa_cfg::Item;
use gpa_dfg::{build_dfg_from_items, dep_between, LabelMode};

/// A pool of straight-line instructions with varied dependence structure.
fn arb_item() -> impl Strategy<Value = Item> {
    let reg = (0u8..8).prop_map(Reg::r);
    prop_oneof![
        // mov rd, #imm
        (reg.clone(), 0u32..256)
            .prop_map(|(rd, imm)| { Item::Insn(Instruction::mov_imm(rd, imm)) }),
        // add rd, rn, rm
        (reg.clone(), reg.clone(), reg.clone())
            .prop_map(|(rd, rn, rm)| { Item::Insn(Instruction::dp_reg(DpOp::Add, rd, rn, rm)) }),
        // ldr rd, [rn]
        (reg.clone(), reg.clone())
            .prop_map(|(rd, rn)| { Item::Insn(Instruction::ldr_imm(rd, rn, 0)) }),
        // str rd, [rn]
        (reg.clone(), reg.clone())
            .prop_map(|(rd, rn)| { Item::Insn(Instruction::str_imm(rd, rn, 0)) }),
        // cmp rn, #imm
        (reg.clone(), 0u32..16).prop_map(|(rn, imm)| {
            Item::Insn(Instruction::DataProc {
                cond: Cond::Al,
                op: DpOp::Cmp,
                set_flags: true,
                rd: Reg::r(0),
                rn,
                op2: gpa_arm::Operand2::Imm(imm),
            })
        }),
        // moveq rd, #1 (reads flags)
        reg.prop_map(|rd| {
            Item::Insn(Instruction::DataProc {
                cond: Cond::Eq,
                op: DpOp::Mov,
                set_flags: false,
                rd,
                rn: Reg::r(0),
                op2: gpa_arm::Operand2::Imm(1),
            })
        }),
    ]
}

fn arb_items() -> impl Strategy<Value = Vec<Item>> {
    proptest::collection::vec(arb_item(), 1..14)
}

proptest! {
    #[test]
    fn reduced_edges_generate_the_dependence_order(items in arb_items()) {
        let dfg = build_dfg_from_items(&items);
        // Every intrinsically dependent pair (i < j) must be ordered by
        // reachability in the reduced graph — and vice versa, an edge
        // implies a dependence chain exists.
        for j in 0..items.len() {
            for i in 0..j {
                let dep = !dep_between(&items[i], &items[j]).is_empty();
                if dep {
                    prop_assert!(
                        dfg.reaches(i, j),
                        "dependent pair ({i}, {j}) not ordered after reduction"
                    );
                }
            }
        }
        // Edges only connect dependent-or-chained pairs.
        for e in dfg.edges() {
            prop_assert!(e.from < e.to, "edges respect program order");
            prop_assert!(
                !dep_between(&items[e.from], &items[e.to]).is_empty(),
                "edge ({}, {}) without direct dependence",
                e.from,
                e.to
            );
        }
    }

    #[test]
    fn memory_ops_are_chained(n in 2usize..8) {
        // Alternating store/load to unknown addresses must form a chain.
        let items: Vec<Item> = (0..n)
            .map(|i| {
                let insn = if i % 2 == 0 {
                    Instruction::str_imm(Reg::r(0), Reg::r(1), 0)
                } else {
                    Instruction::ldr_imm(Reg::r(2), Reg::r(3), 0)
                };
                Item::Insn(insn)
            })
            .collect();
        let dfg = build_dfg_from_items(&items);
        for i in 0..n.saturating_sub(1) {
            prop_assert!(dfg.reaches(i, i + 1), "memory chain broken at {i}");
        }
    }

    #[test]
    fn node_count_matches_and_stats_are_consistent(items in arb_items()) {
        let dfg = build_dfg_from_items(&items);
        prop_assert_eq!(dfg.node_count(), items.len());
        let stats = gpa_dfg::stats::degree_stats(std::slice::from_ref(&dfg));
        prop_assert_eq!(stats.total(), items.len());
        let in_sum: usize = stats.in_hist.iter().sum();
        prop_assert_eq!(in_sum, items.len());
        // Sum of in-degrees equals sum of out-degrees equals edge count.
        let din: usize = (0..dfg.node_count()).map(|i| dfg.in_degree(i)).sum();
        let dout: usize = (0..dfg.node_count()).map(|i| dfg.out_degree(i)).sum();
        prop_assert_eq!(din, dfg.edge_count());
        prop_assert_eq!(dout, dfg.edge_count());
    }

    #[test]
    fn arena_adjacency_matches_the_per_node_representation(items in arb_items()) {
        // The CSR arena must iterate succs/preds in exactly the order the
        // historical per-node `Vec<Vec<usize>>` layout produced: walk the
        // (from, to)-sorted edge list and push each edge onto its
        // endpoint lists, then compare against the public iterators.
        let dfg = build_dfg_from_items(&items);
        let n = dfg.node_count();
        let mut succs: Vec<Vec<gpa_dfg::Edge>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<gpa_dfg::Edge>> = vec![Vec::new(); n];
        for e in dfg.edges() {
            succs[e.from].push(*e);
            preds[e.to].push(*e);
        }
        for i in 0..n {
            let arena_succs: Vec<_> = dfg.succs(i).collect();
            let arena_preds: Vec<_> = dfg.preds(i).collect();
            prop_assert_eq!(&arena_succs, &succs[i], "succ order diverged at node {}", i);
            prop_assert_eq!(&arena_preds, &preds[i], "pred order diverged at node {}", i);
            prop_assert_eq!(dfg.out_degree(i), succs[i].len());
            prop_assert_eq!(dfg.in_degree(i), preds[i].len());
        }
    }

    #[test]
    fn canonical_labels_are_coarser(items in arb_items()) {
        // Items with equal exact labels have equal canonical labels.
        let labels = |mode: LabelMode| items.iter().map(|i| mode.label(i)).collect::<Vec<_>>();
        let (exact, canon) = (labels(LabelMode::Exact), labels(LabelMode::Canonical));
        for i in 0..items.len() {
            for j in 0..i {
                prop_assert!(exact[i] != exact[j] || canon[i] == canon[j]);
            }
        }
    }
}
