//! Extraction candidates: a fragment body plus the sites it can replace.

use gpa_arm::Reg;
use gpa_cfg::Item;

/// How a fragment is extracted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExtractionKind {
    /// Outline into a new procedure, called with `bl`.
    Procedure {
        /// The body contains calls, so the new procedure must save and
        /// restore `lr` (`push {lr}` / `pop {pc}`).
        lr_save: bool,
    },
    /// The body ends in a return: keep one shared copy, branch to it
    /// (cross-jump / tail-merge).
    CrossJump,
}

/// One site where the fragment occurs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Occurrence {
    /// Index of the function in `Program::functions`.
    pub function: usize,
    /// Start of the containing region (item index in the function).
    pub region_start: usize,
    /// Length of the containing region in items.
    pub region_len: usize,
    /// The fragment's item indices, absolute within the function, sorted.
    pub item_indices: Vec<usize>,
}

/// One MEM dependence the alias analysis dropped while building the DFG
/// a candidate was detected on. Item indices are absolute within the
/// function, `earlier < later`.
///
/// A candidate carrying these is only valid if each claim can be
/// re-derived: the per-round validator re-runs the abstract interpreter
/// from scratch and rejects the rewrite (V107) on any pair it cannot
/// prove disjoint itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct RelaxedPair {
    /// Index of the function in `Program::functions`.
    pub function: usize,
    /// Item index of the earlier access.
    pub earlier: usize,
    /// Item index of the later access.
    pub later: usize,
}

/// A scored extraction candidate.
#[derive(Clone, PartialEq, Debug)]
pub struct Candidate {
    /// Fragment body in a dependency-valid emission order.
    pub body: Vec<Item>,
    /// Non-overlapping, individually extractable sites (≥ 2).
    pub occurrences: Vec<Occurrence>,
    /// Procedure or cross-jump.
    pub kind: ExtractionKind,
    /// Net words saved (always > 0 for reported candidates).
    pub saved: i64,
    /// MEM edges relaxed in the occurrence regions' DFGs (empty unless
    /// detection ran with stack alias analysis).
    pub relaxed: Vec<RelaxedPair>,
}

impl Candidate {
    /// Body size in machine words.
    pub fn body_words(&self) -> usize {
        self.body.iter().map(Item::encoded_words).sum()
    }
}

/// Whether an item may appear inside an extracted fragment at all.
/// Branches to local labels (and tail calls) are position-dependent and
/// never extractable; everything else is.
pub fn item_extractable(item: &Item) -> bool {
    !matches!(
        item,
        Item::Branch { .. } | Item::TailCall { .. } | Item::Label(_)
    )
}

/// Whether the item is return-like (writes `pc`): allowed only as the
/// last body item, turning the candidate into a cross-jump.
pub fn item_is_return(item: &Item) -> bool {
    item.is_return()
}

/// Classifies a prospective body, given as borrowed items: `None` if it
/// cannot be extracted, otherwise the [`ExtractionKind`] it requires.
///
/// Rules (§2.1 step 8 of the paper, plus the link-register discipline of
/// Debray et al.):
///
/// * a return-like item is allowed only at the end → cross-jump;
/// * bodies reading `lr` (e.g. `push {…, lr}`, `bx lr` mid-body) cannot
///   be outlined as procedures — the call would have clobbered `lr`;
/// * bodies containing calls need the `lr` save/restore wrap, which uses
///   the stack — so such bodies must not otherwise touch `sp`.
pub fn classify_body(body: &[&Item]) -> Option<ExtractionKind> {
    if body.len() < 2 || !body.iter().all(|i| item_extractable(i)) {
        return None;
    }
    let last = body.len() - 1;
    if body[..last].iter().any(|i| item_is_return(i)) {
        return None;
    }
    if item_is_return(body[last]) {
        // Cross-jump: the shared copy is branched to, not called, so lr
        // is untouched; the body may freely read it (e.g. `bx lr`).
        return Some(ExtractionKind::CrossJump);
    }
    // Procedure: the call clobbers lr, so the body must not read it.
    if body.iter().any(|i| i.effects().uses.contains(Reg::LR)) {
        return None;
    }
    let is_call = |i: &Item| matches!(i, Item::Call { .. } | Item::IndirectCall { .. });
    let has_call = body.iter().any(|i| is_call(i));
    if has_call {
        // lr save/restore moves sp by 4 during the body; reject bodies
        // whose non-call items address or move the stack. (Calls
        // themselves only use the stack *below* sp, which stays safe.)
        let touches_sp = body.iter().any(|i| {
            let fx = i.effects();
            !is_call(i) && (fx.uses.contains(Reg::SP) || fx.defs.contains(Reg::SP))
        });
        if touches_sp {
            return None;
        }
    }
    Some(ExtractionKind::Procedure { lr_save: has_call })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arm::Cond;
    use gpa_cfg::LabelId;

    fn insn(text: &str) -> Item {
        Item::Insn(text.parse().unwrap())
    }

    fn classify(body: &[Item]) -> Option<ExtractionKind> {
        classify_body(&body.iter().collect::<Vec<_>>())
    }

    #[test]
    fn plain_bodies_are_procedures() {
        let body = vec![insn("ldr r3, [r1], #4"), insn("sub r2, r2, r3")];
        assert_eq!(
            classify(&body),
            Some(ExtractionKind::Procedure { lr_save: false })
        );
    }

    #[test]
    fn returns_only_at_the_end() {
        let tail = vec![insn("add sp, sp, #8"), insn("pop {r4, pc}")];
        assert_eq!(classify(&tail), Some(ExtractionKind::CrossJump));
        let mid = vec![insn("bx lr"), insn("mov r0, #1")];
        assert_eq!(classify(&mid), None);
    }

    #[test]
    fn branches_never_extract() {
        let body = vec![
            insn("mov r0, #1"),
            Item::Branch {
                cond: Cond::Al,
                target: LabelId(0),
            },
        ];
        assert_eq!(classify(&body), None);
        let body2 = vec![Item::Label(LabelId(0)), insn("mov r0, #1")];
        assert_eq!(classify(&body2), None);
    }

    #[test]
    fn lr_reading_bodies_rejected_for_procedures() {
        let body = vec![insn("push {r4, lr}"), insn("mov r4, r0")];
        assert_eq!(classify(&body), None);
    }

    #[test]
    fn calls_force_lr_save() {
        let body = vec![
            insn("mov r0, r4"),
            Item::Call {
                cond: Cond::Al,
                target: "f".into(),
            },
        ];
        assert_eq!(
            classify(&body),
            Some(ExtractionKind::Procedure { lr_save: true })
        );
    }

    #[test]
    fn calls_plus_sp_rejected() {
        let body = vec![
            insn("str r0, [sp, #4]"),
            Item::Call {
                cond: Cond::Al,
                target: "f".into(),
            },
        ];
        assert_eq!(classify(&body), None);
    }

    #[test]
    fn singleton_bodies_rejected() {
        assert_eq!(classify(&[insn("mov r0, #1")]), None);
        assert_eq!(classify(&[]), None);
    }
}
