//! `gpa-verify`: static verification for the procedural-abstraction
//! pipeline.
//!
//! Three layers, each usable on its own:
//!
//! 1. **Dataflow** ([`dataflow`]) — worklist liveness (registers + flags)
//!    over lifted [`gpa_cfg::Program`] functions, plus a call graph with
//!    per-function clobber/use summaries ([`callgraph`]) so `bl
//!    __gpa_frag…` calls can be modelled precisely instead of as the
//!    conservative barrier in [`gpa_cfg::Item::effects`].
//! 2. **Lints** ([`lint`]) — structural checks over programs and raw
//!    images, reported as [`Diagnostic`]s with stable `Vnnn` codes.
//! 3. **Validation support** — the per-round translation validator lives
//!    in `gpa::validate` (it needs the optimizer's candidate types); it
//!    builds on the analyses and diagnostics defined here.
//!
//! # Examples
//!
//! ```
//! use gpa_verify::{lint_image, has_errors};
//!
//! let image = gpa_minicc::compile("int main() { return 0; }",
//!                                 &gpa_minicc::Options::default())?;
//! let diags = lint_image(&image);
//! assert!(!has_errors(&diags));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod absint;
pub mod callgraph;
pub mod dataflow;
pub mod diag;
pub mod lint;

pub use absint::{AbsAccess, AbsEnv, AbsInt, AbsValue, AccessBase, RegState};
pub use callgraph::{CallGraph, FnSummary, SummaryTransfer};
pub use dataflow::{EffectsTransfer, FnCfg, GenKill, ItemTransfer, LiveState, Liveness};
pub use diag::{has_errors, Code, Diagnostic, Location, Severity};
pub use lint::{lint_image, lint_program};
