//! `gpa-metrics` — paper-style result tables, latency histograms and
//! the regression-gated `gpa perf` benchmark harness.
//!
//! The paper's payoff is quantitative: Tables 1–3 report bytes saved,
//! fragments extracted and runtime per benchmark. This crate is the
//! layer that turns the toolchain's raw signal (per-image
//! [`gpa::Report`]s, `gpa-trace` streams and their spans) into
//! comparable, regression-gated metrics:
//!
//! * [`run_perf`] runs the bundled minicc kernel corpus across the
//!   detection methods via the batch pipeline and produces a
//!   [`PerfReport`]: paper-shape compression metrics per image × method
//!   (original size, words saved, % savings in basis points, fragments,
//!   procedure calls and cross jumps, rounds, per-method deltas, and the
//!   deterministic work counts of its trace), each input's DFG degree
//!   statistics, each image's optimize time, plus
//!   per-stage latency distributions as
//!   log-bucketed [`gpa_trace::LogHistogram`]s with p50/p90/p99, read
//!   from the spans of each image's trace ([`perf::STAGES`]). Every
//!   optimized image runs in the emulator and must exit and print
//!   exactly as its input does, or the run fails.
//! * [`PerfReport::markdown`] renders the paper's Table 1 (with time
//!   columns and improvement factors), Fig. 11, Fig. 12 and Tables 2
//!   and 3 from the report, beside the stage-latency and cache tables.
//! * [`PerfReport::to_json`] serializes the `gpa-bench/1` document: a
//!   *deterministic* section (depends only on inputs and method — byte
//!   identical across runs, machines and `--jobs` settings) followed by
//!   a trailing `"measured"` section holding the wall-clock figures.
//! * [`compare`] gates a fresh run against a committed baseline:
//!   compression regressions and changed work counts are *hard* findings
//!   (non-zero exit),
//!   latency drift beyond a tolerance is *soft* (reported, separate
//!   exit code).
//! * [`profile::spans_from_jsonl`] aggregates `gpa-trace/1` streams into
//!   a flamegraph-style [`gpa_trace::SpanTree`] (`gpa trace-profile`,
//!   `gpa perf --profile`).
//!
//! # Examples
//!
//! ```
//! use gpa_metrics::{run_perf, PerfConfig};
//!
//! let config = PerfConfig {
//!     kernels: vec!["crc".into()],
//!     methods: vec![gpa::Method::Sfx],
//!     validate: gpa::ValidateLevel::Off,
//!     ..PerfConfig::default()
//! };
//! let report = run_perf(&config)?;
//! assert_eq!(report.kernels.len(), 1);
//! assert!(report.to_json(true).get("measured").is_some());
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod perf;
pub mod profile;

pub use baseline::{compare, Comparison};
pub use perf::{
    run_perf, KernelResult, MethodLatency, PerfConfig, PerfReport, BENCH_SCHEMA, STAGES,
    WORK_COUNTERS,
};
