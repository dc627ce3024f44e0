//! The paper's running example (Figs. 1–7): the seven-instruction ARM
//! basic block whose reordered duplicates a suffix trie cannot see but
//! graph mining can.
//!
//! ```text
//! cargo run --example running_example
//! ```

use gpa_arm::parse::parse_listing;
use gpa_cfg::Item;
use gpa_dfg::{build_dfg_from_items, LabelMode};
use gpa_mining::graph::InputGraph;
use gpa_mining::miner::{mine, Config, Support};
use gpa_sfx::repeated_factors;

/// Fig. 1 of the paper.
const BLOCK: &str = "ldr r3, [r1]!
                     sub r2, r2, r3
                     add r4, r2, #4
                     ldr r3, [r1]!
                     sub r2, r2, r3
                     ldr r3, [r1]!
                     add r4, r2, #4";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let items: Vec<Item> = parse_listing(BLOCK)?.into_iter().map(Item::Insn).collect();
    println!("Fig. 1 — the basic block:");
    for item in &items {
        println!("  {}", item.mining_label());
    }

    // Fig. 2: the data-flow graph.
    let dfg = build_dfg_from_items(&items);
    println!("\nFig. 2 — its data-flow graph (Graphviz):");
    print!("{}", dfg.to_dot(LabelMode::Exact));

    // What the suffix trie sees (Fig. 3): only the 2-instruction sequence.
    let mut interner = gpa_mining::graph::LabelInterner::new();
    let seq: Vec<u32> = items
        .iter()
        .map(|i| interner.intern(&i.mining_label()))
        .collect();
    let sfx = repeated_factors(&[seq], 2);
    let longest_sfx = sfx.iter().map(|c| c.len).max().unwrap_or(0);
    println!("\nFig. 3 — longest repeated *sequence* (suffix trie): {longest_sfx} instructions");

    // What the graph miner sees (Figs. 4/5): three-instruction fragments.
    let (graphs, interner) = InputGraph::from_dfgs([&dfg], LabelMode::Exact);
    let found = mine(
        &graphs,
        &Config {
            min_support: 2,
            support: Support::Embeddings,
            max_nodes: 8,
            ..Config::default()
        },
    );
    let best = found
        .iter()
        .filter(|f| f.support >= 2)
        .max_by_key(|f| f.pattern.node_count())
        .expect("the running example contains frequent fragments");
    println!(
        "\nFigs. 4/5 — largest frequent *graph* fragment: {} instructions, {} disjoint occurrences:",
        best.pattern.node_count(),
        best.support
    );
    for i in 0..best.pattern.node_count() {
        println!("  {}", interner.name(best.pattern.node_label(i)));
    }

    // Fig. 7: its canonical DFS code.
    println!("\nFig. 7 — canonical DFS code (from, to, from-label, dir, to-label):");
    for t in best.pattern.tuples() {
        println!(
            "  ({}, {}, {:?}, {}, {:?})",
            t.from,
            t.to,
            interner.name(t.from_label),
            if t.outgoing { "out" } else { "in" },
            interner.name(t.to_label),
        );
    }
    // Fig. 6: the first levels of the search lattice.
    println!("\nFig. 6 — search lattice (first levels):");
    print!(
        "{}",
        gpa_mining::lattice::render_lattice(
            &graphs,
            &interner,
            &gpa_mining::lattice::LatticeOptions::default()
        )
    );

    assert!(best.pattern.node_count() > longest_sfx);
    println!(
        "\nGraph-based PA found a fragment {} instructions longer than the best sequence.",
        best.pattern.node_count() - longest_sfx
    );
    Ok(())
}
