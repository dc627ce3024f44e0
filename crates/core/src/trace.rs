//! Trace (Mazurkiewicz) equivalence of instruction sequences.
//!
//! Two instruction sequences compute the same thing when one can be
//! reached from the other by repeatedly swapping adjacent *independent*
//! instructions. This is decidable by projection: the sequences must be
//! equal as multisets, and for every pair of mutually dependent
//! instruction values, the projections onto those two values must be
//! identical. Extraction relies on this to prove that one shared fragment
//! body is a valid stand-in for every occurrence.

use std::collections::HashMap;

use gpa_arm::defuse::conflicts;
use gpa_cfg::Item;

/// Whether two item sequences are trace-equivalent: equal as multisets,
/// with every dependent pair ordered identically.
///
/// # Examples
///
/// ```
/// use gpa_cfg::Item;
/// use gpa::trace::trace_equivalent;
///
/// let a: Vec<Item> = ["ldr r3, [r1]", "add r5, r5, #1", "sub r2, r2, r3"]
///     .iter().map(|s| Item::Insn(s.parse().unwrap())).collect();
/// // Hoisting the independent add is fine …
/// let b = vec![a[1].clone(), a[0].clone(), a[2].clone()];
/// assert!(trace_equivalent(&a, &b));
/// // … but the sub must stay after the load feeding it.
/// let c = vec![a[2].clone(), a[0].clone(), a[1].clone()];
/// assert!(!trace_equivalent(&a, &c));
/// ```
pub fn trace_equivalent(a: &[Item], b: &[Item]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // Fast path: identical sequences are trivially equivalent (the common
    // case — template-generated duplicates usually match order exactly).
    if a == b {
        return true;
    }
    // Intern item values.
    let mut ids: HashMap<&Item, u32> = HashMap::new();
    let mut values: Vec<&Item> = Vec::new();
    let mut seq_a: Vec<u32> = Vec::with_capacity(a.len());
    for item in a {
        let next = values.len() as u32;
        let id = *ids.entry(item).or_insert_with(|| {
            values.push(item);
            next
        });
        seq_a.push(id);
    }
    let mut seq_b: Vec<u32> = Vec::with_capacity(b.len());
    for item in b {
        match ids.get(item) {
            Some(&id) => seq_b.push(id),
            None => return false, // b contains an item a lacks
        }
    }
    // Multiset equality.
    let mut count_a = vec![0i64; values.len()];
    let mut count_b = vec![0i64; values.len()];
    for &x in &seq_a {
        count_a[x as usize] += 1;
    }
    for &x in &seq_b {
        count_b[x as usize] += 1;
    }
    if count_a != count_b {
        return false;
    }
    // Projection equality for every conflicting value pair (including a
    // value with itself — identical items trivially project equally, so
    // only distinct pairs need checking).
    let effects: Vec<_> = values.iter().map(|v| v.effects()).collect();
    for x in 0..values.len() as u32 {
        for y in (x + 1)..values.len() as u32 {
            if !conflicts(&effects[x as usize], &effects[y as usize]) {
                continue;
            }
            let proj = |seq: &[u32]| -> Vec<u32> {
                seq.iter().copied().filter(|&s| s == x || s == y).collect()
            };
            if proj(&seq_a) != proj(&seq_b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(texts: &[&str]) -> Vec<Item> {
        texts
            .iter()
            .map(|s| Item::Insn(s.parse().unwrap()))
            .collect()
    }

    #[test]
    fn identical_sequences() {
        let a = items(&["mov r0, #1", "mov r1, #2"]);
        assert!(trace_equivalent(&a, &a));
    }

    #[test]
    fn independent_swap_ok() {
        let a = items(&["mov r0, #1", "mov r1, #2"]);
        let b = items(&["mov r1, #2", "mov r0, #1"]);
        assert!(trace_equivalent(&a, &b));
    }

    #[test]
    fn dependent_swap_rejected() {
        let a = items(&["mov r0, #1", "add r1, r0, #2"]);
        let b = items(&["add r1, r0, #2", "mov r0, #1"]);
        assert!(!trace_equivalent(&a, &b));
    }

    #[test]
    fn multiset_mismatch_rejected() {
        let a = items(&["mov r0, #1", "mov r0, #1"]);
        let b = items(&["mov r0, #1", "mov r0, #2"]);
        assert!(!trace_equivalent(&a, &b));
        assert!(!trace_equivalent(&a, &a[..1]));
    }

    #[test]
    fn duplicate_items_commute() {
        // Two identical loads with an independent add between/around.
        let a = items(&["ldr r3, [r1], #4", "add r5, r5, #1", "ldr r3, [r1], #4"]);
        let b = items(&["add r5, r5, #1", "ldr r3, [r1], #4", "ldr r3, [r1], #4"]);
        assert!(trace_equivalent(&a, &b));
    }

    #[test]
    fn memory_ordering_matters() {
        let a = items(&["str r0, [r1]", "ldr r2, [r3]"]);
        let b = items(&["ldr r2, [r3]", "str r0, [r1]"]);
        assert!(!trace_equivalent(&a, &b));
    }
}
