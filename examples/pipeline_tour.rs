//! A tour of the post-link-time pipeline (the paper's §2.1 phases) over a
//! real benchmark: compile `crc`, lift the binary, inspect interwoven
//! literal pools and basic blocks, build the DFGs, optimize, re-encode,
//! and run both binaries.
//!
//! ```text
//! cargo run --release --example pipeline_tour
//! ```

use gpa::{Method, Optimizer};
use gpa_cfg::{decode_image, encode_program, Item};
use gpa_dfg::{build_all, stats::degree_stats};
use gpa_emu::Machine;
use gpa_minicc::{compile_benchmark, Options};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phase 0: "the statically linked program" — our compiler stands in
    // for gcc -Os + dietlibc.
    let image = compile_benchmark("crc", &Options::default())?;
    println!(
        "linked image: {} code words, {} data bytes, {} symbols",
        image.code_len(),
        image.data_bytes().len(),
        image.symbols().len()
    );

    // Phases 1-5: decompile, split into functions, labels, basic blocks,
    // interwoven-data detection.
    let program = decode_image(&image)?;
    let pool_words = image.code_len() - program.instruction_count();
    println!(
        "lifted: {} functions, {} instructions, {} literal-pool words interwoven in code",
        program.functions.len(),
        program.instruction_count(),
        pool_words
    );
    let regions = program.regions();
    println!("basic-block bodies (mining regions): {}", regions.len());
    let lit_loads = regions
        .iter()
        .flat_map(|r| r.items.iter())
        .filter(|i| matches!(i, Item::LitLoad { .. }))
        .count();
    println!("pc-relative literal loads abstracted: {lit_loads}");

    // Phase 6: data-flow graphs.
    let dfgs = build_all(&program);
    let stats = degree_stats(&dfgs);
    println!(
        "DFGs: {} nodes, {} with (in v out) degree > 1 ({:.0}% — reordering freedom)",
        stats.total(),
        stats.high_degree,
        100.0 * stats.high_degree as f64 / stats.total().max(1) as f64
    );

    // Phases 7-8: mine, extract, iterate.
    let mut optimizer = Optimizer::from_program(program);
    let report = optimizer.run(Method::Edgar)?;
    println!(
        "edgar: saved {} instructions in {} rounds ({} procedures, {} cross-jumps)",
        report.saved_words(),
        report.rounds.len(),
        report.procedure_count(),
        report.cross_jump_count()
    );

    // Re-encode and verify.
    let optimized = encode_program(optimizer.program())?;
    let before = Machine::new(&image).run(600_000_000)?;
    let after = Machine::new(&optimized).run(600_000_000)?;
    assert_eq!(before.output, after.output);
    println!(
        "verified: {} -> {} code words, output identical ({} bytes)",
        image.code_len(),
        optimized.code_len(),
        after.output.len()
    );
    Ok(())
}
