//! The post-link-time rewriting pipeline: phases 1–5 of the paper.
//!
//! [`decode`](decode::decode_image) lifts a raw [`gpa_image::Image`] into a
//! rewritable [`Program`]: the binary is disassembled, partitioned into
//! functions using the symbol table, branch and call targets are replaced
//! by labels (making the code position-independent), pc-relative literal
//! loads are abstracted into [`Item::LitLoad`] (detecting the interwoven
//! literal pools of Fig. 10), and the `mov lr, pc; bx` pair is fused into
//! one indirect-call item. [`encode`](encode::encode_program) reverses the
//! transformation, laying out fresh literal pools and resolving labels, so
//! a decoded-then-reencoded program runs identically.
//!
//! [`Program::regions`] yields the straight-line regions (basic-block
//! bodies) whose data-flow graphs are mined for procedural abstraction.
//!
//! # Examples
//!
//! ```
//! use gpa_cfg::{decode_image, encode_program};
//!
//! let image = gpa_minicc::compile("int main() { return 3; }",
//!                                 &gpa_minicc::Options::default())?;
//! let program = decode_image(&image)?;
//! let rebuilt = encode_program(&program)?;
//! let out = gpa_emu::Machine::new(&rebuilt).run(100_000)?;
//! assert_eq!(out.exit_code, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod decode;
pub mod encode;
pub mod program;

pub use decode::{decode_image, DecodeImageError};
pub use encode::{encode_program, EncodeProgramError};
pub use program::{FunctionCode, Item, LabelId, Literal, Program, Region, FRAGMENT_PREFIX};
