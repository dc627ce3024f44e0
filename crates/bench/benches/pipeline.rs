//! Pipeline-stage benchmarks: compiling, lifting, DFG construction and
//! re-encoding — the fixed costs around the miners.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gpa_bench::compile;
use gpa_dfg::build_all;
use gpa_minicc::Options;

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("minicc_compile");
    group.sample_size(20);
    for name in ["crc", "rijndael"] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, name| {
            b.iter(|| gpa_minicc::compile_benchmark(name, &Options::default()).unwrap());
        });
    }
    group.finish();
}

fn bench_lift_and_encode(c: &mut Criterion) {
    let image = compile("rijndael", true);
    c.bench_function("decode_image_rijndael", |b| {
        b.iter(|| gpa_cfg::decode_image(&image).unwrap());
    });
    let program = gpa_cfg::decode_image(&image).unwrap();
    c.bench_function("encode_program_rijndael", |b| {
        b.iter(|| gpa_cfg::encode_program(&program).unwrap());
    });
    c.bench_function("build_dfgs_rijndael", |b| {
        b.iter(|| build_all(&program));
    });
}

fn bench_emulation(c: &mut Criterion) {
    let image = compile("crc", true);
    let mut group = c.benchmark_group("emulator");
    group.sample_size(10);
    group.bench_function("crc_full_run", |b| {
        b.iter(|| {
            gpa_emu::Machine::new(&image)
                .run(600_000_000)
                .expect("crc runs")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_lift_and_encode,
    bench_emulation
);
criterion_main!(benches);
