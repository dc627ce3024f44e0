//! Deterministic source-edit injection for edit corpora.
//!
//! Edit-and-resubmit traffic (the benchmark's edit workloads, the batch
//! tests' cross-image cache checks) needs *edited* images: the same
//! kernel with a small, localized source change — the "developer touched
//! one function and rebuilt" scenario. [`apply_edits`] injects `N`
//! statement edits (`putint(K);` calls — real code: a constant load plus
//! a call, so the touched function's instruction stream genuinely
//! changes) at deterministically chosen statement boundaries.
//!
//! Edit sites are the positions just after a top-of-statement `;` —
//! inside a function body (brace depth ≥ 1), outside any parenthesized
//! context (so `for (…;…;…)` headers are never split), and outside
//! string/char literals and comments. The choice of sites and the
//! injected constants come from a seeded LCG, so the same
//! `(source, edits, seed)` triple always yields the same edited source —
//! `gpa build-bench --edits N --seed S` is reproducible across machines.

/// How many edits to inject and with which seed.
#[derive(Clone, Copy, Debug)]
pub struct EditConfig {
    /// Number of statement edits to inject (0 = return the source as-is).
    pub edits: usize,
    /// LCG seed driving site selection and the injected constants.
    pub seed: u64,
}

/// A small deterministic LCG (Knuth's MMIX multiplier); the top bits are
/// the usable ones.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Byte offsets (just after a `;`) where a statement can be injected.
fn edit_sites(source: &str) -> Vec<usize> {
    let bytes = source.as_bytes();
    let mut sites = Vec::new();
    let mut brace_depth = 0usize;
    let mut paren_depth = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    i += 1;
                }
                i += 2;
            }
            quote @ (b'"' | b'\'') => {
                i += 1;
                while i < bytes.len() && bytes[i] != quote {
                    // A backslash escapes the next byte (so `'\''` and
                    // `"\""` do not end the literal early).
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'{' => {
                brace_depth += 1;
                i += 1;
            }
            b'}' => {
                brace_depth = brace_depth.saturating_sub(1);
                i += 1;
            }
            b'(' => {
                paren_depth += 1;
                i += 1;
            }
            b')' => {
                paren_depth = paren_depth.saturating_sub(1);
                i += 1;
            }
            b';' if brace_depth >= 1 && paren_depth == 0 => {
                sites.push(i + 1);
                i += 1;
            }
            _ => i += 1,
        }
    }
    sites
}

/// Injects `config.edits` statement edits into `source` at seeded
/// positions. Fewer eligible sites than requested edits caps the count
/// at the site count; a source with no statements comes back unchanged.
pub fn apply_edits(source: &str, config: &EditConfig) -> String {
    if config.edits == 0 {
        return source.to_owned();
    }
    let mut sites = edit_sites(source);
    if sites.is_empty() {
        return source.to_owned();
    }
    let mut rng = Lcg(config.seed ^ 0x9e37_79b9_7f4a_7c15);
    // Warm the LCG past its (possibly tiny) seed.
    rng.next();
    let mut chosen = Vec::new();
    for _ in 0..config.edits.min(sites.len()) {
        let pick = rng.next() as usize % sites.len();
        chosen.push((sites.swap_remove(pick), rng.next() % 100));
    }
    // Apply back-to-front so earlier offsets stay valid.
    chosen.sort_by_key(|&(offset, _)| std::cmp::Reverse(offset));
    let mut edited = source.to_owned();
    for (offset, k) in chosen {
        edited.insert_str(offset, &format!(" putint({k});"));
    }
    edited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Options;

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let source = crate::programs::source("crc").unwrap();
        let a = apply_edits(source, &EditConfig { edits: 4, seed: 7 });
        let b = apply_edits(source, &EditConfig { edits: 4, seed: 7 });
        let c = apply_edits(source, &EditConfig { edits: 4, seed: 8 });
        assert_eq!(a, b, "same (source, edits, seed) must reproduce");
        assert_ne!(a, c, "a different seed must pick different sites");
        assert_ne!(a, *source, "edits must actually change the source");
        assert_eq!(
            apply_edits(source, &EditConfig { edits: 0, seed: 7 }),
            *source
        );
    }

    #[test]
    fn edited_kernels_still_compile_and_sites_avoid_headers_and_literals() {
        let opts = Options::default();
        for name in ["crc", "sha", "dijkstra"] {
            let source = crate::programs::source(name).unwrap();
            let edited = apply_edits(source, &EditConfig { edits: 5, seed: 42 });
            let image = crate::compile(&edited, &opts)
                .unwrap_or_else(|e| panic!("edited {name} must compile: {e}"));
            assert!(image.code_len() > 0);
        }
    }

    #[test]
    fn sites_skip_for_headers_strings_chars_and_comments() {
        let source = "int main() {\n\
                      // a comment; with a semicolon\n\
                      /* block; comment */\n\
                      char *s = \"lit;eral\";\n\
                      char c = ';';\n\
                      int total = 0;\n\
                      for (int i = 0; i < 3; i++) { total += i; }\n\
                      return total;\n\
                      }\n";
        for offset in edit_sites(source) {
            let before = &source[..offset];
            assert!(before.ends_with(';'), "site {offset} not after a `;`");
            // No site may land inside the for-header, a literal or a
            // comment: injecting at every single site must still compile.
        }
        let edited = apply_edits(
            source,
            &EditConfig {
                edits: usize::MAX,
                seed: 3,
            },
        );
        assert!(edited.contains("\"lit;eral\""), "string literal unsplit");
        crate::compile(&edited, &Options::default()).expect("fully edited source compiles");
    }
}
