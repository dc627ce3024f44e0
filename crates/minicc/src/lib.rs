//! MiniC: a small C-like compiler targeting the ARM subset.
//!
//! This crate stands in for the paper's `gcc -Os` + dietlibc toolchain. It
//! compiles MiniC source — a C subset with ints, chars, pointers, arrays,
//! function pointers, globals and string literals — to ARM machine code,
//! links it statically against a bundled runtime library (`minilibc`), and
//! produces a [`gpa_image::Image`] with interwoven literal pools, exactly
//! the shape of binary the procedural-abstraction pipeline consumes.
//!
//! Two properties of the generated code matter for the reproduction:
//!
//! * **Template duplication** — the code generator works from fixed
//!   templates (the paper: "space-wasting code duplications … mainly caused
//!   by the compiler's code generation templates"), so similar source
//!   constructs yield similar instruction sequences.
//! * **Instruction reordering** — a list-scheduling pass reorders
//!   independent instructions within basic blocks (hoisting loads, exactly
//!   like the rijndael schedules described in the paper), so equal
//!   *computations* frequently appear with different instruction *orders* —
//!   visible to graph-based PA, invisible to suffix-trie PA. The pass can
//!   be disabled via [`Options::schedule`] for the ablation bench.
//!
//! The eight MiBench kernels used in the paper's evaluation are bundled as
//! MiniC sources; see [`programs`].
//!
//! # Examples
//!
//! ```
//! use gpa_minicc::{compile, Options};
//!
//! let image = compile("int main() { return 7; }", &Options::default())?;
//! let outcome = gpa_emu::Machine::new(&image).run(100_000)?;
//! assert_eq!(outcome.exit_code, 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod ast;
pub mod codegen;
pub mod edits;
pub mod lexer;
pub mod link;
pub mod parser;
pub mod programs;
pub mod runtime;
pub mod sched;
pub mod sema;

use std::fmt;

/// Compilation options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Run the list-scheduling pass that reorders independent instructions
    /// within basic blocks (on by default, mirroring `-Os` scheduling).
    pub schedule: bool,
    /// Extra seed mixed into the scheduler's tie-break hash (default 0 =
    /// the historical schedule). A non-zero seed emulates *compilation
    /// variance*: the same source compiled by a slightly different
    /// toolchain — equal computations, different instruction orders in
    /// every block. Used by the edit-corpus generator
    /// (`gpa build-bench --sched-seed`) to produce whole-image variants
    /// of a kernel.
    pub sched_seed: u64,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            schedule: true,
            sched_seed: 0,
        }
    }
}

/// Any error produced while compiling MiniC source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Pipeline stage that failed.
    pub stage: &'static str,
    /// Human-readable message, usually with a line number.
    pub message: String,
}

impl CompileError {
    pub(crate) fn new(stage: &'static str, message: impl Into<String>) -> CompileError {
        CompileError {
            stage,
            message: message.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.stage, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Compiles a MiniC translation unit (user program only; the runtime
/// library is linked in automatically) into an executable image.
///
/// # Errors
///
/// Returns a [`CompileError`] naming the failing stage on malformed source.
pub fn compile(source: &str, options: &Options) -> Result<gpa_image::Image, CompileError> {
    let mut full = String::from(source);
    full.push('\n');
    full.push_str(runtime::MINILIBC_SOURCE);
    compile_freestanding(&full, options)
}

/// Compiles a self-contained MiniC source (no implicit runtime library —
/// the source must not call any `minilibc` function other than the
/// intrinsics `_putc`, `_getc`, `_exit`, `_sbrk`).
///
/// # Errors
///
/// Returns a [`CompileError`] naming the failing stage on malformed source.
pub fn compile_freestanding(
    source: &str,
    options: &Options,
) -> Result<gpa_image::Image, CompileError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(&tokens)?;
    let unit = sema::analyze(unit)?;
    let mut functions = codegen::generate(&unit)?;
    if options.schedule {
        for f in &mut functions {
            sched::schedule_function_seeded(f, options.sched_seed);
        }
    }
    link::link(&unit, functions)
}

/// Compiles one of the bundled benchmark programs by name.
///
/// # Errors
///
/// Returns a [`CompileError`] when `name` is unknown (stage `"driver"`) or
/// — which would be a bug — when a bundled source fails to compile.
pub fn compile_benchmark(name: &str, options: &Options) -> Result<gpa_image::Image, CompileError> {
    let source = programs::source(name)
        .ok_or_else(|| CompileError::new("driver", format!("unknown benchmark `{name}`")))?;
    compile(source, options)
}
