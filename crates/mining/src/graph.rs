//! The miner's input-graph representation.

use std::collections::HashMap;

use gpa_dfg::Dfg;

/// Interns string node labels into dense ids so the miner compares `u32`s.
#[derive(Clone, Debug, Default)]
pub struct LabelInterner {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> LabelInterner {
        LabelInterner::default()
    }

    /// Interns a label, returning its id.
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.by_name.get(label) {
            return id;
        }
        let id = self.names.len() as u32;
        self.by_name.insert(label.to_owned(), id);
        self.names.push(label.to_owned());
        id
    }

    /// The label text for an id.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A directed edge of an input graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GEdge {
    /// Source node.
    pub from: u32,
    /// Destination node.
    pub to: u32,
    /// Edge label (dependence-kind mask).
    pub label: u8,
}

/// One graph of the mining database: node labels plus directed labelled
/// edges, with adjacency lists in both directions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InputGraph {
    /// Interned node labels.
    pub labels: Vec<u32>,
    /// All edges.
    pub edges: Vec<GEdge>,
    /// Outgoing edge indices per node.
    pub out_edges: Vec<Vec<u32>>,
    /// Incoming edge indices per node.
    pub in_edges: Vec<Vec<u32>>,
}

impl InputGraph {
    /// Builds a graph from parallel node/edge lists.
    pub fn new(labels: Vec<u32>, edges: Vec<GEdge>) -> InputGraph {
        let n = labels.len();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            out_edges[e.from as usize].push(i as u32);
            in_edges[e.to as usize].push(i as u32);
        }
        InputGraph {
            labels,
            edges,
            out_edges,
            in_edges,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Converts a batch of DFGs, sharing one label interner so equal
    /// instructions get equal ids across graphs.
    pub fn from_dfgs(dfgs: &[Dfg]) -> (Vec<InputGraph>, LabelInterner) {
        Self::from_dfg_refs(dfgs.iter())
    }

    /// [`InputGraph::from_dfgs`] over any iterator of DFG references —
    /// lets callers holding `Arc`-shared (e.g. cached) DFGs convert
    /// without cloning them into a contiguous slice.
    pub fn from_dfg_refs<'a, I>(dfgs: I) -> (Vec<InputGraph>, LabelInterner)
    where
        I: IntoIterator<Item = &'a Dfg>,
    {
        let mut interner = LabelInterner::new();
        let graphs = dfgs
            .into_iter()
            .map(|dfg| {
                let labels = (0..dfg.node_count())
                    .map(|i| interner.intern(dfg.label(i)))
                    .collect();
                InputGraph::from_dfg(dfg, labels)
            })
            .collect();
        (graphs, interner)
    }

    /// Converts one DFG whose node `i` carries the interned label
    /// `labels[i]`.
    pub fn from_dfg(dfg: &Dfg, labels: Vec<u32>) -> InputGraph {
        debug_assert_eq!(labels.len(), dfg.node_count());
        let edges = dfg
            .edges()
            .iter()
            .map(|e| GEdge {
                from: e.from as u32,
                to: e.to as u32,
                label: e.kinds.0,
            })
            .collect();
        InputGraph::new(labels, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_dedups() {
        let mut i = LabelInterner::new();
        let a = i.intern("add r1, r2, r3");
        let b = i.intern("sub r1, r2, r3");
        assert_ne!(a, b);
        assert_eq!(i.intern("add r1, r2, r3"), a);
        assert_eq!(i.name(b), "sub r1, r2, r3");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn adjacency_lists() {
        let g = InputGraph::new(
            vec![0, 1, 2],
            vec![
                GEdge {
                    from: 0,
                    to: 1,
                    label: 1,
                },
                GEdge {
                    from: 0,
                    to: 2,
                    label: 1,
                },
                GEdge {
                    from: 1,
                    to: 2,
                    label: 2,
                },
            ],
        );
        assert_eq!(g.out_edges[0], vec![0, 1]);
        assert_eq!(g.in_edges[2], vec![1, 2]);
        assert!(g.in_edges[0].is_empty());
    }
}
