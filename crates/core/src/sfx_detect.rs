//! Suffix-trie (SFX) fragment detection: the paper's baseline, fed
//! through the same cost model and extractor as the graph methods.

use gpa_cfg::{Item, Program};
use gpa_mining::graph::LabelInterner;
use gpa_sfx::{repeated_factors, RepeatCandidate};

use crate::candidate::{classify_body, Candidate, ExtractionKind, Occurrence};
use crate::cost::saved_words;
use crate::graph_detect::{lr_free_functions, region_infos, RegionInfo};

/// Builds the best candidate from one repeated factor (trying the full
/// length first, then the longest classifiable prefix).
fn candidate_from_repeat(
    repeat: &RepeatCandidate,
    infos: &[RegionInfo],
    lr_free: &[bool],
) -> Option<Candidate> {
    let (seq0, off0) = repeat.occurrences[0];
    let full: Vec<&Item> = infos[seq0].items[off0..off0 + repeat.len].iter().collect();
    // Benefit is monotone in length for a fixed occurrence set, so try the
    // longest classifiable prefix first.
    let mut best: Option<Candidate> = None;
    for len in (2..=repeat.len).rev() {
        let body = &full[..len];
        let Some(kind) = classify_body(body) else {
            continue;
        };
        // A cross-jump prefix must still end at the region end; only the
        // full length can (the return terminates the region).
        let occurrences: Vec<(usize, usize)> = repeat
            .truncated(len)
            .disjoint_occurrences()
            .into_iter()
            .filter(|&(seq, off)| {
                let info = &infos[seq];
                match kind {
                    ExtractionKind::Procedure { .. } => lr_free[info.function],
                    ExtractionKind::CrossJump => off + len == info.items.len(),
                }
            })
            .collect();
        if occurrences.len() < 2 {
            continue;
        }
        let body_words: usize = body.iter().map(|i| i.encoded_words()).sum();
        let saved = saved_words(body_words, occurrences.len(), kind);
        if saved <= 0 {
            continue;
        }
        let candidate = Candidate {
            body: body.iter().map(|&i| i.clone()).collect(),
            occurrences: occurrences
                .into_iter()
                .map(|(seq, off)| {
                    let info = &infos[seq];
                    Occurrence {
                        function: info.function,
                        region_start: info.start,
                        region_len: info.len,
                        item_indices: (info.start + off..info.start + off + len).collect(),
                    }
                })
                .collect(),
            kind,
            saved,
            relaxed: Vec::new(),
        };
        if best
            .as_ref()
            .map(|b| candidate.saved > b.saved)
            .unwrap_or(true)
        {
            best = Some(candidate);
        }
    }
    best
}

/// Finds the best extractable candidate under suffix-trie detection, or
/// `None` when no extraction shrinks the program.
pub fn best_candidate(program: &Program) -> Option<Candidate> {
    let infos = region_infos(program);
    let lr_free = lr_free_functions(program);
    // Symbol sequences: one per region, sharing an interner so identical
    // instructions get identical symbols program-wide.
    let mut interner = LabelInterner::new();
    let seqs: Vec<Vec<u32>> = infos
        .iter()
        .map(|info| {
            info.items
                .iter()
                .map(|i| interner.intern(&i.mining_label()))
                .collect()
        })
        .collect();
    let repeats = repeated_factors(&seqs, 2);
    repeats
        .iter()
        .filter_map(|r| candidate_from_repeat(r, &infos, &lr_free))
        .max_by(|a, b| {
            a.saved
                .cmp(&b.saved)
                .then(b.body_words().cmp(&a.body_words()))
                .then_with(|| {
                    let ka = (&a.occurrences[0].function, &a.occurrences[0].item_indices);
                    let kb = (&b.occurrences[0].function, &b.occurrences[0].item_indices);
                    kb.cmp(&ka)
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_cfg::FunctionCode;

    fn insn(text: &str) -> Item {
        Item::Insn(text.parse().unwrap())
    }

    fn function(name: &str, texts: &[&str]) -> FunctionCode {
        FunctionCode {
            name: name.into(),
            address_taken: false,
            items: texts.iter().map(|s| insn(s)).collect(),
            label_count: 0,
        }
    }

    fn program(functions: Vec<FunctionCode>) -> Program {
        let entry = functions[0].name.clone();
        Program {
            functions,
            data: Vec::new(),
            data_symbols: Vec::new(),
            code_base: 0x8000,
            data_base: 0x2_0000,
            entry,
        }
    }

    #[test]
    fn finds_repeated_sequence_across_functions() {
        // A 4-instruction sequence in three lr-free functions: saving
        // 3*4 - 3 - 5 = 4 words.
        let seq = [
            "push {r4, lr}",
            "ldr r3, [r0]",
            "add r3, r3, #1",
            "str r3, [r0]",
            "mul r4, r3, r3",
            "pop {r4, pc}",
        ];
        let p = program(vec![
            function("a", &seq),
            function("b", &seq),
            function("c", &seq),
        ]);
        let cand = best_candidate(&p).expect("profitable repeat");
        assert!(cand.saved > 0);
        assert_eq!(cand.occurrences.len(), 3);
        assert!(matches!(
            cand.kind,
            ExtractionKind::Procedure { .. } | ExtractionKind::CrossJump
        ));
    }

    #[test]
    fn reordered_duplicates_are_invisible_to_sfx() {
        // The same three instructions in different orders (independent):
        // the suffix view sees no repeat of length ≥ 2.
        let p = program(vec![
            function(
                "a",
                &[
                    "push {r4, lr}",
                    "mov r4, #1",
                    "mov r3, #2",
                    "mov r2, #3",
                    "pop {r4, pc}",
                ],
            ),
            function(
                "b",
                &[
                    "push {r4, lr}",
                    "mov r2, #3",
                    "mov r4, #1",
                    "mov r3, #2",
                    "pop {r4, pc}",
                ],
            ),
        ]);
        // The only shared 2+-sequences are the prologue/epilogue pairs,
        // which are too small to profit (2*2 - 2 - 3 < 0), and
        // "mov r4,#1; mov r3,#2" (also 2 long).
        assert!(best_candidate(&p).is_none());
    }

    #[test]
    fn leaf_functions_excluded_from_procedure_extraction() {
        let seq = [
            "ldr r3, [r0]",
            "add r3, r3, #1",
            "str r3, [r0]",
            "mul r4, r3, r3",
            "bx lr",
        ];
        let p = program(vec![
            function("a", &seq),
            function("b", &seq),
            function("c", &seq),
        ]);
        // lr is live in leaf functions, so no procedure extraction; but
        // the whole block ends in a return → cross-jump is allowed.
        if let Some(c) = best_candidate(&p) {
            assert_eq!(c.kind, ExtractionKind::CrossJump);
        }
    }
}
