//! Mining-time benchmarks: DgSpan vs Edgar over real benchmark DFGs —
//! the reproduction of the paper's §4.2 timing discussion (DgSpan ~50 s,
//! Edgar ~90 s per program on 2007 hardware; Edgar costs more because of
//! embedding lists and MIS computation), plus a fragment-size-cap sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gpa_bench::compile;
use gpa_dfg::{build_all, LabelMode};
use gpa_mining::graph::{GEdge, InputGraph};
use gpa_mining::miner::{mine, Config, Support};

fn graphs_for(name: &str) -> Vec<InputGraph> {
    let image = compile(name, true);
    let program = gpa_cfg::decode_image(&image).expect("benchmark lifts");
    let dfgs = build_all(&program);
    InputGraph::from_dfgs(&dfgs, LabelMode::Exact).0
}

fn bench_support_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("mining_support");
    group.sample_size(10);
    for name in ["crc", "search", "sha"] {
        let graphs = graphs_for(name);
        group.bench_with_input(BenchmarkId::new("dgspan", name), &graphs, |b, graphs| {
            b.iter(|| {
                mine(
                    graphs,
                    &Config {
                        min_support: 2,
                        support: Support::Graphs,
                        max_nodes: 10,
                        max_patterns: 30_000,
                        ..Config::default()
                    },
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("edgar", name), &graphs, |b, graphs| {
            b.iter(|| {
                mine(
                    graphs,
                    &Config {
                        min_support: 2,
                        support: Support::Embeddings,
                        max_nodes: 10,
                        max_patterns: 30_000,
                        ..Config::default()
                    },
                )
            });
        });
    }
    group.finish();
}

fn bench_fragment_cap(c: &mut Criterion) {
    let graphs = graphs_for("crc");
    let mut group = c.benchmark_group("mining_max_nodes");
    group.sample_size(10);
    for cap in [4usize, 8, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            b.iter(|| {
                mine(
                    &graphs,
                    &Config {
                        min_support: 2,
                        support: Support::Embeddings,
                        max_nodes: cap,
                        max_patterns: 30_000,
                        ..Config::default()
                    },
                )
            });
        });
    }
    group.finish();
}

fn bench_dense_bucket(c: &mut Criterion) {
    // A star graph funnels every seed embedding into one list, and the
    // extensions of each list into large groups of records. Grouping is
    // a sort, and repeats are looked for only among one parent's records
    // of a tuple, so the work per record should stay about flat as the
    // leaf count doubles (up to the sort's log factor), where a scan of
    // the whole group per record would double it.
    let star = |leaves: u32| {
        let labels: Vec<u32> = std::iter::once(1)
            .chain(std::iter::repeat_n(2, leaves as usize))
            .collect();
        let edges: Vec<GEdge> = (1..=leaves)
            .map(|leaf| GEdge {
                from: 0,
                to: leaf,
                label: 1,
            })
            .collect();
        InputGraph::new(labels, edges)
    };
    let mut group = c.benchmark_group("mining_dense_bucket");
    group.sample_size(10);
    for leaves in [32u32, 64] {
        let graphs = vec![star(leaves)];
        group.bench_with_input(BenchmarkId::from_parameter(leaves), &graphs, |b, graphs| {
            b.iter(|| {
                mine(
                    graphs,
                    &Config {
                        min_support: 2,
                        support: Support::Embeddings,
                        max_nodes: 3,
                        max_patterns: 10_000,
                        ..Config::default()
                    },
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_support_modes,
    bench_fragment_cap,
    bench_dense_bucket
);
criterion_main!(benches);
