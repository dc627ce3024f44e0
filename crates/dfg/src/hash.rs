//! Stable content hashing for straight-line blocks.
//!
//! The batch pipeline caches per-block artifacts (the DFG and everything
//! derived from it) under a content address: two regions with the same
//! canonical item sequence build byte-identical graphs, so the artifact
//! can be computed once per corpus and reused across images, rounds and
//! runs. [`block_content_hash`] is that address.
//!
//! The hash must be **stable** — independent of process, platform, and
//! `HashMap` seeding — so it is a fixed FNV-1a/128 over a canonical
//! serialization: each item contributes its variant discriminant plus its
//! [`Item::mining_label`] (the same text the DFG uses for node labels,
//! which is injective per variant), and the [`LabelMode`] is mixed in
//! because it changes the labels the cached graph carries.

use gpa_cfg::Item;

use crate::LabelMode;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// An incremental FNV-1a/128 hasher over byte streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv128 {
        Fnv128(FNV_OFFSET)
    }

    /// Absorbs a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

fn item_discriminant(item: &Item) -> u8 {
    match item {
        Item::Label(_) => 0,
        Item::Insn(_) => 1,
        Item::Call { .. } => 2,
        Item::IndirectCall { .. } => 3,
        Item::Branch { .. } => 4,
        Item::TailCall { .. } => 5,
        Item::LitLoad { .. } => 6,
    }
}

/// The stable content address of a straight-line item sequence under a
/// label mode.
///
/// Two calls agree exactly when the item sequences are equal item by item
/// (same variants, same instruction text, same targets) and the label
/// modes match — precisely the condition under which
/// [`crate::build_dfg_from_items`] produces the same labels and edges.
///
/// # Examples
///
/// ```
/// use gpa_cfg::Item;
/// use gpa_dfg::{block_content_hash, LabelMode};
///
/// let a: Vec<Item> = ["ldr r3, [r1]!", "sub r2, r2, r3"]
///     .iter().map(|s| Item::Insn(s.parse().unwrap())).collect();
/// let b = a.clone();
/// assert_eq!(
///     block_content_hash(&a, LabelMode::Exact),
///     block_content_hash(&b, LabelMode::Exact),
/// );
/// assert_ne!(
///     block_content_hash(&a, LabelMode::Exact),
///     block_content_hash(&a[..1], LabelMode::Exact),
/// );
/// ```
pub fn block_content_hash(items: &[Item], mode: LabelMode) -> u128 {
    let mut h = Fnv128::new();
    h.write(b"gpa-block/1");
    h.write(&[match mode {
        LabelMode::Exact => 0u8,
        LabelMode::Canonical => 1u8,
    }]);
    h.write_u64(items.len() as u64);
    for item in items {
        h.write(&[item_discriminant(item)]);
        let label = item.mining_label();
        h.write_u64(label.len() as u64);
        h.write(label.as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arm::parse::parse_listing;

    fn items(asm: &str) -> Vec<Item> {
        parse_listing(asm)
            .unwrap()
            .into_iter()
            .map(Item::Insn)
            .collect()
    }

    #[test]
    fn equal_blocks_hash_equal() {
        let a = items("ldr r3, [r1]!\nsub r2, r2, r3");
        let b = items("ldr r3, [r1]!\nsub r2, r2, r3");
        assert_eq!(
            block_content_hash(&a, LabelMode::Exact),
            block_content_hash(&b, LabelMode::Exact)
        );
    }

    #[test]
    fn different_blocks_hash_differently() {
        let a = items("ldr r3, [r1]!\nsub r2, r2, r3");
        let b = items("ldr r3, [r1]!\nsub r2, r2, r4");
        assert_ne!(
            block_content_hash(&a, LabelMode::Exact),
            block_content_hash(&b, LabelMode::Exact)
        );
        // Concatenation vs. split must not collide (length prefixes).
        let c = items("ldr r3, [r1]!");
        let d = items("sub r2, r2, r3");
        let mut joined = c.clone();
        joined.extend(d.clone());
        assert_ne!(
            block_content_hash(&joined, LabelMode::Exact),
            block_content_hash(&c, LabelMode::Exact)
        );
    }

    #[test]
    fn label_mode_is_part_of_the_address() {
        let a = items("add r1, r2, r3");
        assert_ne!(
            block_content_hash(&a, LabelMode::Exact),
            block_content_hash(&a, LabelMode::Canonical)
        );
    }

    #[test]
    fn order_matters() {
        let a = items("mov r0, #1\nmov r1, #2");
        let b = items("mov r1, #2\nmov r0, #1");
        assert_ne!(
            block_content_hash(&a, LabelMode::Exact),
            block_content_hash(&b, LabelMode::Exact)
        );
    }
}
