//! End-to-end integration tests: compile a benchmark, optimize with each
//! method, re-encode, and require bit-identical behaviour in the
//! emulator. This is the reproduction's semantic-preservation gate.

use gpa::{Method, Optimizer};
use gpa_emu::{Machine, Outcome};
use gpa_image::Image;
use gpa_minicc::{compile_benchmark, Options};

const STEPS: u64 = 600_000_000;

fn run(image: &Image) -> Outcome {
    Machine::new(image)
        .run(STEPS)
        .expect("binary runs to completion")
}

/// Optimizes `name` with `method`; returns (saved words, baseline, after).
fn check(name: &str, method: Method) -> i64 {
    let image =
        compile_benchmark(name, &Options::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
    let before = run(&image);
    let mut optimizer = Optimizer::from_image(&image).expect("image lifts");
    let report = optimizer.run(method).expect("optimization validates");
    let optimized = optimizer.encode().expect("optimized program encodes");
    let after = run(&optimized);
    assert_eq!(
        before.exit_code, after.exit_code,
        "{name}/{method}: exit code"
    );
    assert_eq!(
        before.output_string(),
        after.output_string(),
        "{name}/{method}: output"
    );
    assert!(
        report.saved_words() >= 0,
        "{name}/{method}: optimization never grows the program"
    );
    // The code section genuinely shrank by the reported amount (modulo
    // literal pools, which the re-encoder may share differently).
    let p_before = gpa_cfg::decode_image(&image).unwrap().instruction_count() as i64;
    let p_after = gpa_cfg::decode_image(&optimized)
        .unwrap()
        .instruction_count() as i64;
    assert_eq!(
        p_before - p_after,
        report.saved_words(),
        "{name}/{method}: accounting"
    );
    report.saved_words()
}

#[test]
fn crc_all_methods_preserve_semantics() {
    let sfx = check("crc", Method::Sfx);
    let dgspan = check("crc", Method::DgSpan);
    let edgar = check("crc", Method::Edgar);
    assert!(edgar >= dgspan, "edgar {edgar} >= dgspan {dgspan}");
    assert!(edgar > 0);
    let _ = sfx;
}

#[test]
fn search_all_methods_preserve_semantics() {
    check("search", Method::Sfx);
    check("search", Method::DgSpan);
    let edgar = check("search", Method::Edgar);
    assert!(edgar > 0);
}

#[test]
fn qsort_all_methods_preserve_semantics() {
    // qsort exercises function pointers (indirect calls) through the
    // whole pipeline.
    check("qsort", Method::Sfx);
    let edgar = check("qsort", Method::Edgar);
    assert!(edgar > 0);
}

#[test]
fn sha_edgar_preserves_semantics() {
    assert!(check("sha", Method::Edgar) > 0);
}

#[test]
fn bitcnts_edgar_preserves_semantics() {
    assert!(check("bitcnts", Method::Edgar) > 0);
}

#[test]
fn dijkstra_edgar_preserves_semantics() {
    assert!(check("dijkstra", Method::Edgar) > 0);
}

#[test]
fn patricia_edgar_preserves_semantics() {
    assert!(check("patricia", Method::Edgar) > 0);
}

// rijndael is the paper's long-running outlier (hours in the original);
// `gpa perf` emulates its optimized images under every method, and this
// gate keeps `cargo test` fast.
#[test]
#[ignore = "long-running; covered by gpa-bench's hotpath_golden bench document test and by `gpa perf` in scripts/verify.sh"]
fn rijndael_all_methods_preserve_semantics() {
    check("rijndael", Method::Sfx);
    check("rijndael", Method::DgSpan);
    check("rijndael", Method::Edgar);
}

#[test]
fn unscheduled_corpus_also_optimizes_correctly() {
    // The --no-sched ablation path must be just as sound.
    let image = compile_benchmark(
        "crc",
        &Options {
            schedule: false,
            sched_seed: 0,
        },
    )
    .unwrap();
    let before = run(&image);
    let mut optimizer = Optimizer::from_image(&image).unwrap();
    optimizer.run(Method::Edgar).unwrap();
    let after = run(&optimizer.encode().unwrap());
    assert_eq!(before.output, after.output);
}
