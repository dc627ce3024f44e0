//! A batch over an edit corpus (a kernel plus edited variants of it —
//! the serve daemon's steady-state traffic) produces a deterministic
//! section that is byte-identical at any worker count, although the
//! shared DFG cache sees the near-duplicate images in a different order
//! with every pool size.

use gpa_minicc::edits::{apply_edits, EditConfig};
use gpa_pipeline::{run_batch, BatchConfig, BatchInput};

/// A kernel plus two deterministically edited variants — near-duplicate
/// images that share most of their blocks.
fn edit_corpus(kernel: &str) -> Vec<BatchInput> {
    let opts = gpa_minicc::Options::default();
    let source = gpa_minicc::programs::source(kernel).unwrap();
    let mut inputs = vec![BatchInput::loaded(
        format!("{kernel}-base"),
        gpa_minicc::compile(source, &opts).unwrap(),
    )];
    for (edits, seed) in [(1usize, 1u64), (2, 2)] {
        let edited = apply_edits(source, &EditConfig { edits, seed });
        inputs.push(BatchInput::loaded(
            format!("{kernel}-e{edits}s{seed}"),
            gpa_minicc::compile(&edited, &opts).unwrap(),
        ));
    }
    inputs
}

#[test]
fn edit_corpus_batch_is_byte_identical_across_jobs() {
    let inputs = edit_corpus("crc");
    let reference = run_batch(
        &inputs,
        &BatchConfig {
            jobs: 1,
            method: gpa::Method::DgSpan,
            ..BatchConfig::default()
        },
    )
    .unwrap()
    .to_json(false)
    .to_string();

    for jobs in [1usize, 2, 8] {
        let config = BatchConfig {
            jobs,
            method: gpa::Method::DgSpan,
            ..BatchConfig::default()
        };
        assert_eq!(
            run_batch(&inputs, &config)
                .unwrap()
                .to_json(false)
                .to_string(),
            reference,
            "jobs={jobs} changed the deterministic section"
        );
    }
}
