//! Paper-evaluation helpers and harness binaries over the bundled
//! MiBench kernels.
//!
//! Tables 1–3, Fig. 11 and Fig. 12 come from one optimizing run, `gpa
//! perf` (`gpa-metrics`), which also re-runs every optimized image in
//! the emulator. The binaries here are:
//!
//! * `ablation` — frequent fragments under exact vs canonical labels;
//! * `gpa-bench` — the serve-mode load generator.
//!
//! Criterion benches live under `benches/`.

#![warn(missing_docs)]

use gpa_image::Image;
use gpa_minicc::{compile_benchmark, Options};

/// The benchmark names, in the paper's Table 1 order.
pub const BENCHMARKS: [&str; 8] = gpa_minicc::programs::BENCHMARKS;

/// Compiles one benchmark (with or without the scheduling pass).
///
/// # Panics
///
/// Panics if a bundled benchmark fails to compile — that is a build bug.
pub fn compile(name: &str, schedule: bool) -> Image {
    compile_benchmark(
        name,
        &Options {
            schedule,
            ..Options::default()
        },
    )
    .unwrap_or_else(|e| panic!("bundled benchmark {name}: {e}"))
}
