//! Ablation study for the canonical (fuzzy) instruction labels of
//! DESIGN.md — the paper's Fig. 13 future-work extension. Mining with
//! registers/immediates abstracted finds more frequent fragments; this
//! reports how many more (an upper-bound indicator — extraction with
//! register reconciliation is future work here too, exactly as in the
//! paper).
//!
//! The scheduler ablation is a `gpa perf` run over the kernels compiled
//! without the scheduling pass: `gpa perf --no-sched --methods sfx`.
//!
//! ```text
//! cargo run --release -p gpa-bench --bin ablation
//! ```

use gpa_bench::compile;
use gpa_dfg::{build_all, LabelMode};
use gpa_mining::graph::InputGraph;
use gpa_mining::miner::{mine_streaming, Config, GrowDecision, Support};

fn frequent_count(name: &str, mode: LabelMode) -> usize {
    let image = compile(name, true);
    let program = gpa_cfg::decode_image(&image).expect("benchmark lifts");
    let dfgs = build_all(&program);
    let (graphs, _) = InputGraph::from_dfgs(&dfgs, mode);
    let mut count = 0usize;
    mine_streaming(
        &graphs,
        &Config {
            min_support: 2,
            support: Support::Embeddings,
            max_nodes: 6,
            max_patterns: 50_000,
            ..Config::default()
        },
        &mut |_, _| {
            count += 1;
            GrowDecision::Continue
        },
    );
    count
}

fn main() {
    println!("Ablation: canonical (fuzzy) instruction labels — Fig. 13 extension");
    println!(
        "{:<10} {:>14} {:>14} {:>8}",
        "Program", "exact labels", "canonical", "ratio"
    );
    for name in ["crc", "search", "sha"] {
        let exact = frequent_count(name, LabelMode::Exact);
        let canonical = frequent_count(name, LabelMode::Canonical);
        println!(
            "{:<10} {:>14} {:>14} {:>7.2}x",
            name,
            exact,
            canonical,
            canonical as f64 / exact.max(1) as f64
        );
    }
    println!("\n(Canonical labels merge register variants, exposing more frequent");
    println!("fragments — the headroom the paper attributes to fuzzy matching.)");
}
