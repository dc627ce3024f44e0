//! Corpus-scale batch optimization (`gpa batch`).
//!
//! The single-shot [`gpa::Optimizer`] answers "how small does *this*
//! binary get?". Evaluating procedural abstraction the way the paper does
//! — across a benchmark corpus, re-running as the toolchain changes —
//! asks a different question, and this crate is its engine:
//!
//! * **Batch driver** ([`run_batch`]) — a bounded worker pool (default
//!   [`std::thread::available_parallelism`]) pulls images off a shared
//!   queue and optimizes each one independently. Results are merged by
//!   *input index*, so the deterministic section of the corpus report is
//!   byte-identical no matter how many workers ran or how the scheduler
//!   interleaved them.
//! * **Two layers of reuse.** Whole results: [`gpa::image_cache_key`]
//!   addresses a serialized [`gpa::Report`] in a [`ReportCache`]
//!   (in-memory, plus an optional on-disk layer shared across runs).
//!   Blocks: every optimizer takes its blocks' DFGs from a block store
//!   keyed by their items, and within a run every worker's optimizer is
//!   handed the same [`gpa::DfgCache`], so blocks seen before — across
//!   rounds, occurrences and *images* (every MiniC binary carries the
//!   same runtime) — skip DFG and reachability construction.
//! * **Metrics** — wall time, cache hit/miss counters and (with a trace
//!   directory) per-image trace counters, reported in the
//!   machine-readable JSON corpus report ([`CorpusReport::to_json`]).
//!   Per-stage time lives in the per-image trace streams' spans, which
//!   `gpa perf` turns into histograms.
//!
//! The report separates a *deterministic* section (inputs, keys,
//! per-image reports, totals) from a *metrics* section (wall time, cache
//! counters, worker count): `to_json(false)` compares byte-for-byte
//! between a cold and a warm run, or between `--jobs 1` and `--jobs 8`,
//! which is exactly what the regression tests assert.
//!
//! # Examples
//!
//! ```
//! use gpa_pipeline::{run_batch, BatchConfig, BatchInput};
//!
//! let opts = gpa_minicc::Options::default();
//! let inputs = vec![
//!     BatchInput::loaded("crc", gpa_minicc::compile_benchmark("crc", &opts)?),
//!     BatchInput::loaded("sha", gpa_minicc::compile_benchmark("sha", &opts)?),
//! ];
//! let corpus = run_batch(&inputs, &BatchConfig::default())?;
//! assert_eq!(corpus.error_count(), 0);
//! assert!(corpus.total_saved_words() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod batch;
mod cache;
mod report;
mod shutdown;

pub use batch::{expand_inputs, run_batch, BatchConfig, BatchInput};
pub use cache::ReportCache;
pub use gpa::CacheBudget;
pub use report::{CorpusReport, ImageEntry, CORPUS_SCHEMA};
pub use shutdown::ShutdownFlag;
