//! Graph-based procedural abstraction (PA) for ARM binaries — the primary
//! contribution of *"Graph-Based Procedural Abstraction"* (CGO 2007),
//! reimplemented end to end.
//!
//! The [`Optimizer`] drives the paper's loop: lift a binary
//! ([`gpa_cfg::decode_image`]), build the basic-block data-flow graphs
//! ([`gpa_dfg`]), detect repeated fragments with one of three
//! [`Method`]s —
//!
//! * [`Method::Sfx`] — the suffix-trie baseline over the linear
//!   instruction stream ([`gpa_sfx`]);
//! * [`Method::DgSpan`] — directed gSpan counting *graphs* that contain a
//!   fragment;
//! * [`Method::Edgar`] — embedding-based counting with
//!   maximum-independent-set overlap resolution and PA-specific
//!   extractability checks —
//!
//! score them with a common cost model ([`cost`]), extract the best one
//! per round ([`extract`]; a new procedure, or a cross-jump/tail-merge
//! when the fragment ends in a return), and repeat to a fixpoint. The
//! result re-encodes to a runnable image whose behaviour the test-suite
//! verifies in the emulator.
//!
//! Every rewrite can additionally be re-checked by a static translation
//! validator ([`validate`], on by default in debug builds via
//! [`validate::ValidateLevel`]): it independently re-derives the cost
//! model, the dependence-preserving linearization, the liveness safety
//! of the inserted calls, and the encode → decode round trip, failing
//! the run with [`OptimizerError::Validate`] instead of miscompiling.
//!
//! # Examples
//!
//! ```
//! use gpa::{Method, Optimizer};
//!
//! let image = gpa_minicc::compile_benchmark("crc", &gpa_minicc::Options::default())?;
//! let mut optimizer = Optimizer::from_image(&image)?;
//! let report = optimizer.run(Method::Edgar)?;
//! assert!(report.saved_words() > 0);
//!
//! // The optimized binary still runs and prints the same checksums.
//! let optimized = optimizer.encode()?;
//! let before = gpa_emu::Machine::new(&image).run(400_000_000)?;
//! let after = gpa_emu::Machine::new(&optimized).run(400_000_000)?;
//! assert_eq!(before.output, after.output);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod candidate;
pub mod cost;
pub mod extract;
pub mod graph_detect;
pub mod json;
pub mod lru;
pub mod optimizer;
pub mod report;
pub mod sfx_detect;
pub mod trace;
pub mod validate;

pub use artifact::{image_cache_key, DfgCache};
pub use candidate::{Candidate, ExtractionKind, Occurrence, RelaxedPair};
pub use lru::CacheBudget;
pub use optimizer::{
    AliasLevel, Method, Optimizer, OptimizerError, RunConfig, DEFAULT_MAX_PATTERNS,
};
pub use report::{Report, Round, REPORT_SCHEMA};
pub use validate::ValidateLevel;
