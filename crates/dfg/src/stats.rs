//! Degree statistics over DFG sets — the data behind Tables 2 and 3.

use crate::Dfg;

/// Degree statistics of a set of DFGs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegreeStats {
    /// Instructions with (in ∨ out) degree > 1 (Table 2, left column).
    pub high_degree: usize,
    /// Instructions with both degrees ≤ 1 (Table 2, right column).
    pub low_degree: usize,
    /// In-degree histogram: counts for degree 0, 1, 2, 3 and ≥ 4
    /// (Table 3).
    pub in_hist: [usize; 5],
    /// Out-degree histogram, same buckets.
    pub out_hist: [usize; 5],
}

impl DegreeStats {
    /// Total number of instructions counted.
    pub fn total(&self) -> usize {
        self.high_degree + self.low_degree
    }
}

/// Computes the paper's degree statistics over a set of DFGs.
///
/// # Examples
///
/// ```
/// use gpa_arm::parse::parse_listing;
/// use gpa_cfg::Item;
/// use gpa_dfg::{build_dfg_from_items, stats::degree_stats};
///
/// let items: Vec<Item> = parse_listing("ldr r3, [r1]\nadd r2, r2, r3\nadd r4, r4, r3")?
///     .into_iter().map(Item::Insn).collect();
/// let dfg = build_dfg_from_items(&items);
/// let stats = degree_stats(&[dfg]);
/// assert_eq!(stats.total(), 3);
/// assert_eq!(stats.high_degree, 1); // the load fans out to both adds
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn degree_stats(dfgs: &[Dfg]) -> DegreeStats {
    let mut stats = DegreeStats::default();
    for dfg in dfgs {
        for i in 0..dfg.node_count() {
            let din = dfg.in_degree(i);
            let dout = dfg.out_degree(i);
            if din > 1 || dout > 1 {
                stats.high_degree += 1;
            } else {
                stats.low_degree += 1;
            }
            stats.in_hist[din.min(4)] += 1;
            stats.out_hist[dout.min(4)] += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_dfg_from_items;
    use gpa_arm::parse::parse_listing;
    use gpa_cfg::Item;

    fn dfg_of(asm: &str) -> Dfg {
        let items: Vec<Item> = parse_listing(asm)
            .unwrap()
            .into_iter()
            .map(Item::Insn)
            .collect();
        build_dfg_from_items(&items)
    }

    #[test]
    fn chain_has_no_high_degree_nodes() {
        // A plain chain: every node has in/out degree ≤ 1; per the paper
        // this is exactly the case where SFX and graph PA coincide.
        let s = degree_stats(&[dfg_of("mov r1, #1\nadd r1, r1, #2\nadd r1, r1, #3")]);
        assert_eq!(s.high_degree, 0);
        assert_eq!(s.low_degree, 3);
        assert_eq!(s.in_hist, [1, 2, 0, 0, 0]);
        assert_eq!(s.out_hist, [1, 2, 0, 0, 0]);
    }

    #[test]
    fn fan_out_counts_as_high_degree() {
        let s = degree_stats(&[dfg_of(
            "mov r1, #1\nadd r2, r1, #1\nadd r3, r1, #2\nadd r4, r1, #3",
        )]);
        assert_eq!(s.high_degree, 1);
        assert_eq!(s.out_hist[3], 1);
    }

    #[test]
    fn isolated_nodes_have_degree_zero() {
        let s = degree_stats(&[dfg_of("mov r1, #1\nmov r2, #2")]);
        assert_eq!(s.in_hist[0], 2);
        assert_eq!(s.out_hist[0], 2);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn hist_bucket_ordering_is_stable() {
        // Buckets are indexed by degree 0, 1, 2, 3, ≥4 — the array order
        // IS the degree order, which the `gpa stats --json` arrays
        // inherit. A fan-out of five lands in the saturating last bucket.
        let s = degree_stats(&[dfg_of(
            "mov r1, #1\n\
             add r2, r1, #1\n\
             add r3, r1, #2\n\
             add r4, r1, #3\n\
             add r5, r1, #4\n\
             add r6, r1, #5",
        )]);
        assert_eq!(s.out_hist, [5, 0, 0, 0, 1]);
        assert_eq!(s.in_hist, [1, 5, 0, 0, 0]);
        // The buckets partition the node set: each histogram sums to the
        // total regardless of the degree distribution.
        assert_eq!(s.in_hist.iter().sum::<usize>(), s.total());
        assert_eq!(s.out_hist.iter().sum::<usize>(), s.total());
    }

    #[test]
    fn accumulates_over_multiple_graphs() {
        let a = dfg_of("mov r1, #1");
        let b = dfg_of("mov r2, #2\nadd r2, r2, #1");
        let s = degree_stats(&[a, b]);
        assert_eq!(s.total(), 3);
    }
}
