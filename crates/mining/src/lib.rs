//! Frequent-subgraph mining for procedural abstraction: **DgSpan** and
//! **Edgar**.
//!
//! This crate implements the paper's §3 from scratch:
//!
//! * [`dfs_code`] — canonical DFS codes for *directed*, node- and
//!   edge-labelled graphs (gSpan's canonical form, Fig. 7, extended with
//!   an edge-direction flag);
//! * [`graph`] — the compact input-graph representation mined over
//!   (built from [`gpa_dfg::Dfg`]s);
//! * [`embed`] — embedding lists and rightmost-path extension;
//! * [`nodeset`] — the compact bitset node-set representation the hot
//!   paths (membership probes, collision detection, dedup keys) run on;
//! * [`mis`] — the maximum-independent-set solver used to count
//!   non-overlapping embeddings (§3.4; exact branch-and-bound with a
//!   greedy-colouring bound in the style of Kumlander's algorithm, with a
//!   greedy fallback for oversized components);
//! * [`miner`] — the search driver. With
//!   [`Support::Graphs`](miner::Support::Graphs) it behaves like
//!   **DgSpan** (count graphs containing the fragment); with
//!   [`Support::Embeddings`](miner::Support::Embeddings) it is **Edgar**
//!   (count non-overlapping embeddings via MIS).
//!
//! # Examples
//!
//! Mining the paper's running example finds the two three-instruction
//! fragments of Figs. 4 and 5:
//!
//! ```
//! use gpa_arm::parse::parse_listing;
//! use gpa_cfg::Item;
//! use gpa_dfg::{build_dfg_from_items, LabelMode};
//! use gpa_mining::graph::InputGraph;
//! use gpa_mining::miner::{mine, Config, Support};
//!
//! let items: Vec<Item> = parse_listing(
//!     "ldr r3, [r1]!\nsub r2, r2, r3\nadd r4, r2, #4\n\
//!      ldr r3, [r1]!\nsub r2, r2, r3\nldr r3, [r1]!\nadd r4, r2, #4",
//! )?
//! .into_iter()
//! .map(Item::Insn)
//! .collect();
//! let dfg = build_dfg_from_items(&items);
//! let (graphs, _interner) = InputGraph::from_dfgs(&[dfg], LabelMode::Exact);
//! let found = mine(&graphs, &Config { min_support: 2, support: Support::Embeddings, ..Config::default() });
//! // Some frequent fragment with three nodes and two disjoint embeddings
//! // exists (Fig. 4 / Fig. 5).
//! assert!(found.iter().any(|f| f.pattern.node_count() == 3 && f.support == 2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod dfs_code;
pub mod embed;
pub mod graph;
pub mod lattice;
pub mod miner;
pub mod mis;
pub mod nodeset;
