//! Search-lattice visualization (the paper's Fig. 6).
//!
//! Renders the first levels of the DFS-code search lattice explored by
//! the miner: each node is a pattern (shown by its instruction labels),
//! each edge a rightmost-path extension. Real lattices are enormous —
//! Fig. 6 itself shows "..." for the parts too big to print — so the
//! dump is depth- and width-limited.

use std::fmt::Write;

use gpa_trace::NoopTracer;

use crate::dfs_code::Pattern;
use crate::embed::{extensions, seed_buckets, Embedding};
use crate::graph::{InputGraph, LabelInterner};

/// Options for the lattice dump.
#[derive(Clone, Copy, Debug)]
pub struct LatticeOptions {
    /// Maximum pattern size (levels below the 1-edge seeds) to expand.
    pub max_nodes: usize,
    /// Maximum children printed per pattern (the rest become `...`).
    pub max_children: usize,
}

impl Default for LatticeOptions {
    fn default() -> LatticeOptions {
        LatticeOptions {
            max_nodes: 3,
            max_children: 4,
        }
    }
}

/// Renders the search lattice over `graphs` as an indented text tree.
///
/// Only canonical (minimal DFS code) patterns are shown — exactly the
/// nodes the miner visits; the pruned duplicate paths of Fig. 6 are what
/// the canonical-form test cuts away.
///
/// # Examples
///
/// ```
/// use gpa_arm::parse::parse_listing;
/// use gpa_cfg::Item;
/// use gpa_dfg::{build_dfg_from_items, LabelMode};
/// use gpa_mining::graph::InputGraph;
/// use gpa_mining::lattice::{render_lattice, LatticeOptions};
///
/// let items: Vec<Item> = parse_listing("ldr r3, [r1]!\nsub r2, r2, r3")?
///     .into_iter().map(Item::Insn).collect();
/// let dfg = build_dfg_from_items(&items);
/// let (graphs, interner) = InputGraph::from_dfgs(&[dfg], LabelMode::Exact);
/// let text = render_lattice(&graphs, &interner, &LatticeOptions::default());
/// assert!(text.contains("ldr r3, [r1]!"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn render_lattice(
    graphs: &[InputGraph],
    interner: &LabelInterner,
    options: &LatticeOptions,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "*  (empty pattern)");
    // The seeds are the minimal one-edge codes: no test needed.
    for (tuple, embeddings) in seed_buckets(graphs, 1, &NoopTracer) {
        render_node(
            &Pattern::root(tuple),
            &embeddings,
            graphs,
            interner,
            options,
            1,
            &mut out,
        );
    }
    out
}

fn pattern_summary(pattern: &Pattern, interner: &LabelInterner) -> String {
    let labels: Vec<&str> = (0..pattern.node_count())
        .map(|i| interner.name(pattern.node_label(i)))
        .collect();
    format!(
        "[{}]  ({} nodes, {} edges)",
        labels.join(" | "),
        pattern.node_count(),
        pattern.edge_count()
    )
}

fn render_node(
    pattern: &Pattern,
    embeddings: &[Embedding],
    graphs: &[InputGraph],
    interner: &LabelInterner,
    options: &LatticeOptions,
    depth: usize,
    out: &mut String,
) {
    let indent = "  ".repeat(depth);
    let _ = writeln!(
        out,
        "{indent}{} x{}",
        pattern_summary(pattern, interner),
        embeddings.len()
    );
    if pattern.node_count() >= options.max_nodes {
        return;
    }
    let mut shown = 0usize;
    for (tuple, child_embeddings) in extensions(pattern, graphs, embeddings, 1, &NoopTracer) {
        let child = pattern.extend(tuple);
        if !child.is_min() {
            continue;
        }
        if shown >= options.max_children {
            let _ = writeln!(out, "{indent}  ...");
            break;
        }
        shown += 1;
        render_node(
            &child,
            &child_embeddings,
            graphs,
            interner,
            options,
            depth + 1,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arm::parse::parse_listing;
    use gpa_cfg::Item;
    use gpa_dfg::{build_dfg_from_items, LabelMode};

    fn setup(asm: &str) -> (Vec<InputGraph>, LabelInterner) {
        let items: Vec<Item> = parse_listing(asm)
            .unwrap()
            .into_iter()
            .map(Item::Insn)
            .collect();
        let dfg = build_dfg_from_items(&items);
        InputGraph::from_dfgs(&[dfg], LabelMode::Exact)
    }

    #[test]
    fn renders_running_example_lattice() {
        let (graphs, interner) = setup(
            "ldr r3, [r1]!\n\
             sub r2, r2, r3\n\
             add r4, r2, #4\n\
             ldr r3, [r1]!\n\
             sub r2, r2, r3\n\
             ldr r3, [r1]!\n\
             add r4, r2, #4",
        );
        let text = render_lattice(&graphs, &interner, &LatticeOptions::default());
        assert!(text.starts_with("*"));
        assert!(text.contains("ldr r3, [r1]!"));
        assert!(text.contains("(2 nodes, 1 edges)"));
        assert!(text.contains("(3 nodes"), "expands to level 3:\n{text}");
        // With a width limit of 1, fan-outs are elided like the paper's
        // figure shows with "...".
        let narrow = render_lattice(
            &graphs,
            &interner,
            &LatticeOptions {
                max_nodes: 3,
                max_children: 1,
            },
        );
        assert!(narrow.contains("..."));
    }

    #[test]
    fn respects_depth_limit() {
        let (graphs, interner) = setup("ldr r3, [r1]!\nsub r2, r2, r3\nadd r4, r2, #4");
        let text = render_lattice(
            &graphs,
            &interner,
            &LatticeOptions {
                max_nodes: 2,
                max_children: 8,
            },
        );
        assert!(!text.contains("(3 nodes"));
    }

    #[test]
    fn empty_database() {
        let interner = LabelInterner::new();
        let text = render_lattice(&[], &interner, &LatticeOptions::default());
        assert_eq!(text.trim(), "*  (empty pattern)");
    }
}
