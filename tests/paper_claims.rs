//! Assertions of the paper's qualitative claims on the running example
//! and the benchmark corpus (fast subset; the full evaluation lives in
//! the `gpa-bench` harness binaries).

use gpa_arm::parse::parse_listing;
use gpa_cfg::Item;
use gpa_dfg::{build_all, build_dfg_from_items, stats::degree_stats, LabelMode};
use gpa_minicc::{compile_benchmark, Options};
use gpa_mining::graph::InputGraph;
use gpa_mining::miner::{mine, Config, Support};

/// Fig. 1 of the paper.
const RUNNING_EXAMPLE: &str = "ldr r3, [r1]!
                               sub r2, r2, r3
                               add r4, r2, #4
                               ldr r3, [r1]!
                               sub r2, r2, r3
                               ldr r3, [r1]!
                               add r4, r2, #4";

fn example_items() -> Vec<Item> {
    parse_listing(RUNNING_EXAMPLE)
        .unwrap()
        .into_iter()
        .map(Item::Insn)
        .collect()
}

/// §2.2: the suffix trie finds only the two-instruction sequence
/// `ldr; sub` in the running example …
#[test]
fn fig3_suffix_trie_sees_only_two_instructions() {
    let items = example_items();
    let mut interner = gpa_mining::graph::LabelInterner::new();
    let seq: Vec<u32> = items
        .iter()
        .map(|i| interner.intern(&i.mining_label()))
        .collect();
    let repeats = gpa_sfx::repeated_factors(&[seq], 2);
    let longest = repeats.iter().map(|c| c.len).max().unwrap();
    assert_eq!(longest, 2, "suffix view: exactly the ldr;sub pair");
}

/// … while graph mining finds three-instruction fragments occurring
/// twice (Figs. 4 and 5), which the varying instruction order hides from
/// the suffix trie.
#[test]
fn figs4_5_graph_mining_finds_three_instruction_fragments() {
    let dfg = build_dfg_from_items(&example_items());
    let (graphs, _) = InputGraph::from_dfgs(&[dfg], LabelMode::Exact);
    let found = mine(
        &graphs,
        &Config {
            min_support: 2,
            support: Support::Embeddings,
            max_nodes: 8,
            ..Config::default()
        },
    );
    let largest = found
        .iter()
        .filter(|f| f.support >= 2)
        .map(|f| f.pattern.node_count())
        .max()
        .unwrap();
    assert!(
        largest >= 3,
        "graph mining sees 3-node fragments, got {largest}"
    );
}

/// §3.4 (Fig. 8): a four-node fragment's two embeddings share the middle
/// load, so only one non-overlapping occurrence remains.
#[test]
fn fig8_overlapping_embeddings_collapse() {
    let dfg = build_dfg_from_items(&example_items());
    let (graphs, _) = InputGraph::from_dfgs(&[dfg], LabelMode::Exact);
    let found = mine(
        &graphs,
        &Config {
            min_support: 1,
            support: Support::Embeddings,
            max_nodes: 4,
            ..Config::default()
        },
    );
    // Some 4-node fragment exists with >= 2 raw embeddings but support 1.
    assert!(
        found
            .iter()
            .any(|f| f.pattern.node_count() == 4 && f.embeddings.len() >= 2 && f.support == 1),
        "overlap resolution reduces a multi-embedding fragment to support 1"
    );
}

/// §4.2 (Table 2): a third or more of DFG nodes in the compiled corpus
/// have fan-in or fan-out above one — the reordering freedom that makes
/// graph-based PA win.
#[test]
fn table2_substantial_reordering_freedom() {
    for name in ["crc", "sha"] {
        let image = compile_benchmark(name, &Options::default()).unwrap();
        let program = gpa_cfg::decode_image(&image).unwrap();
        let stats = degree_stats(&build_all(&program));
        let share = stats.high_degree as f64 / stats.total() as f64;
        assert!(
            share > 0.10,
            "{name}: expected >10% high-degree nodes, got {:.1}%",
            share * 100.0
        );
    }
}

/// §4: the scheduler is what defeats the suffix trie — with scheduling
/// disabled, plain template output makes SFX at least as strong as with
/// scheduling enabled.
#[test]
fn scheduling_ablation_helps_sfx() {
    use gpa::{Method, Optimizer};
    let saved = |schedule: bool| {
        let image = compile_benchmark(
            "crc",
            &Options {
                schedule,
                sched_seed: 0,
            },
        )
        .unwrap();
        let mut opt = Optimizer::from_image(&image).unwrap();
        opt.run(Method::Sfx).unwrap().saved_words()
    };
    let with_sched = saved(true);
    let without_sched = saved(false);
    assert!(
        without_sched >= with_sched,
        "SFX without scheduling ({without_sched}) should be >= with scheduling ({with_sched})"
    );
}

/// The degree histograms (Table 3) bucket every node exactly once.
#[test]
fn table3_histograms_are_complete() {
    let image = compile_benchmark("search", &Options::default()).unwrap();
    let program = gpa_cfg::decode_image(&image).unwrap();
    let stats = degree_stats(&build_all(&program));
    let in_total: usize = stats.in_hist.iter().sum();
    let out_total: usize = stats.out_hist.iter().sum();
    assert_eq!(in_total, stats.total());
    assert_eq!(out_total, stats.total());
    assert_eq!(
        stats.total(),
        program.instruction_count() -
        // Fused indirect-call items count as one node but two instructions.
        program.regions().iter().flat_map(|r| r.items.iter())
            .filter(|i| matches!(i, Item::IndirectCall { .. })).count()
    );
}
