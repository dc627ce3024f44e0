//! MIS-solver benchmarks: the exact branch-and-bound (Kumlander-style
//! bound) against the greedy heuristic on random collision graphs — the
//! ablation for the "exact vs greedy overlap resolution" design choice
//! called out in DESIGN.md, plus dense-overlap instances sized around the
//! 64→128 exact-width boundary for the bitset-kernel rewrite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gpa_mining::mis::{collision_graph, max_independent_set};
use gpa_mining::nodeset::NodeSet;

/// Greedy lower bound on the number of pairwise-disjoint node sets
/// (shortest sets first — short embeddings block fewer others): the
/// heuristic the exact solver is measured against.
fn greedy_disjoint_count(node_sets: &[NodeSet]) -> usize {
    let mut order: Vec<usize> = (0..node_sets.len()).collect();
    order.sort_by_key(|&i| node_sets[i].len());
    let mut chosen: Vec<&NodeSet> = Vec::new();
    for i in order {
        if chosen.iter().all(|c| !c.intersects(&node_sets[i])) {
            chosen.push(&node_sets[i]);
        }
    }
    chosen.len()
}

/// Random embedding node-sets over a block of `universe` instructions.
fn random_sets(n: usize, universe: u32, set_len: usize, seed: u64) -> Vec<NodeSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..set_len)
                .map(|_| rng.gen_range(0..universe))
                .collect::<NodeSet>()
        })
        .collect()
}

fn bench_mis(c: &mut Criterion) {
    let mut group = c.benchmark_group("mis");
    for &(n, universe) in &[(12usize, 30u32), (24, 40), (48, 60)] {
        let sets = random_sets(n, universe, 4, 42);
        let adj = collision_graph(&sets);
        group.bench_with_input(
            BenchmarkId::new("exact", format!("{n}sets_{universe}u")),
            &adj,
            |b, adj| b.iter(|| max_independent_set(adj)),
        );
        group.bench_with_input(
            BenchmarkId::new("greedy", format!("{n}sets_{universe}u")),
            &sets,
            |b, sets| b.iter(|| greedy_disjoint_count(sets)),
        );
    }
    group.finish();
}

/// Dense-overlap instances: many medium-length sets drawn from a tight
/// universe, so most pairs collide and both the pairwise intersection
/// sweep and the branch-and-bound carry real load. Sized to straddle the
/// widened exact-solver boundary (n ≤ 128 is solved exactly).
fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("mis_dense");
    group.sample_size(20);
    for &n in &[32usize, 64, 96, 128] {
        // universe ≈ 2n keeps expected pairwise overlap high at every n.
        let sets = random_sets(n, (2 * n) as u32, 6, 0xdecade + n as u64);
        group.bench_with_input(BenchmarkId::new("collision_graph", n), &sets, |b, sets| {
            b.iter(|| collision_graph(sets));
        });
        // Scalar reference: the pre-bitset pairwise sorted-merge sweep,
        // on identical instances — the speedup baseline for the word-AND
        // kernel.
        let sorted: Vec<Vec<u32>> = sets
            .iter()
            .map(gpa_mining::nodeset::NodeSet::to_sorted_vec)
            .collect();
        group.bench_with_input(
            BenchmarkId::new("collision_graph_scalar", n),
            &sorted,
            |b, sorted| {
                b.iter(|| {
                    let mut edges = 0usize;
                    for i in 0..sorted.len() {
                        for j in (i + 1)..sorted.len() {
                            if gpa_mining::mis::sorted_intersects(&sorted[i], &sorted[j]) {
                                edges += 1;
                            }
                        }
                    }
                    edges
                });
            },
        );
        let adj = collision_graph(&sets);
        group.bench_with_input(BenchmarkId::new("exact_mis", n), &adj, |b, adj| {
            b.iter(|| max_independent_set(adj));
        });
        group.bench_with_input(BenchmarkId::new("graph_plus_mis", n), &sets, |b, sets| {
            b.iter(|| max_independent_set(&collision_graph(sets)));
        });
    }
    group.finish();
}

fn bench_collision_graph(c: &mut Criterion) {
    let sets = random_sets(64, 80, 5, 7);
    c.bench_function("collision_graph_64", |b| b.iter(|| collision_graph(&sets)));
}

criterion_group!(benches, bench_mis, bench_dense, bench_collision_graph);
criterion_main!(benches);
