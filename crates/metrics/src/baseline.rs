//! Baseline comparison: the regression gate behind `gpa perf --baseline`.
//!
//! Two `gpa-bench/1` documents are compared field by field. Compression
//! metrics live in the deterministic section, so any decrease is a real
//! regression of the optimizer — a **hard** finding. So is any change of
//! a `work` counter: work is deterministic, and a change that moves it
//! lands with a refreshed baseline. Latency figures come
//! from the `"measured"` section and are noisy, so they only become
//! **soft** findings when the drift exceeds both an absolute floor and a
//! relative tolerance.

use gpa::json::Json;

use crate::perf::BENCH_SCHEMA;

/// Ignore latency drift below this absolute floor (scheduler jitter on
/// sub-millisecond stages would otherwise trip any relative tolerance).
const LATENCY_FLOOR_NS: i64 = 200_000;

/// The latency percentiles the gate compares.
const GATED_PERCENTILES: [&str; 3] = ["p50_ns", "p90_ns", "p99_ns"];

/// The outcome of comparing a fresh run against a baseline.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Compression regressions and structural mismatches (missing
    /// kernels or methods). Any entry here must fail the build.
    pub hard: Vec<String>,
    /// Latency regressions beyond tolerance. Reported, separate exit
    /// code, but not a build failure on their own.
    pub soft: Vec<String>,
    /// Non-gating observations (improvements, skipped sections).
    pub notes: Vec<String>,
}

impl Comparison {
    /// Whether the gate must fail the build.
    pub fn is_regression(&self) -> bool {
        !self.hard.is_empty()
    }

    /// Whether any latency drift exceeded the tolerance.
    pub fn has_soft(&self) -> bool {
        !self.soft.is_empty()
    }

    /// Renders every finding, hard first, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.hard {
            out.push_str(&format!("HARD  {f}\n"));
        }
        for f in &self.soft {
            out.push_str(&format!("soft  {f}\n"));
        }
        for f in &self.notes {
            out.push_str(&format!("note  {f}\n"));
        }
        out
    }
}

/// Compares a fresh `gpa-bench/1` document against a baseline one.
///
/// Every kernel × method of the *baseline* must still be present, must
/// not save fewer words, and must count exactly the work of the
/// baseline's `work` block (a baseline without one gets a note, and its
/// work goes ungated); `tolerance_pct` bounds the allowed
/// relative latency growth of the gated percentiles (on top of a
/// 200µs absolute floor). New kernels or methods in `current` are fine.
///
/// # Errors
///
/// A message when either document is not a well-formed `gpa-bench/1`
/// report.
pub fn compare(current: &Json, baseline: &Json, tolerance_pct: u64) -> Result<Comparison, String> {
    check_schema(current, "current")?;
    check_schema(baseline, "baseline")?;
    let mut cmp = Comparison::default();
    compare_kernels(current, baseline, &mut cmp)?;
    compare_latency(current, baseline, tolerance_pct, &mut cmp);
    Ok(cmp)
}

fn check_schema(doc: &Json, which: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(BENCH_SCHEMA) => Ok(()),
        other => Err(format!("{which}: unsupported bench schema {other:?}")),
    }
}

/// A required field of a bench document, with a path-shaped error.
fn int_field(doc: &Json, ctx: &str, key: &str) -> Result<i64, String> {
    doc.get(key)
        .and_then(Json::as_int)
        .ok_or_else(|| format!("{ctx}: missing integer field `{key}`"))
}

fn compare_kernels(current: &Json, baseline: &Json, cmp: &mut Comparison) -> Result<(), String> {
    let kernels = |doc: &'_ Json, which: &str| -> Result<Vec<Json>, String> {
        doc.get("kernels")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| format!("{which}: missing `kernels` array"))
    };
    let cur_kernels = kernels(current, "current")?;
    let base_kernels = kernels(baseline, "baseline")?;
    let mut work_ungated = false;
    for base_kernel in &base_kernels {
        let name = base_kernel
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "baseline: kernel without `name`".to_owned())?;
        let Some(cur_kernel) = cur_kernels
            .iter()
            .find(|k| k.get("name").and_then(Json::as_str) == Some(name))
        else {
            cmp.hard
                .push(format!("kernel `{name}` missing from current run"));
            continue;
        };
        let results = |kernel: &Json, which: &str| -> Result<Vec<Json>, String> {
            kernel
                .get("results")
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("{which}: kernel `{name}` without `results`"))
        };
        let cur_results = results(cur_kernel, "current")?;
        for base_result in results(base_kernel, "baseline")? {
            let method = base_result
                .get("method")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("baseline: `{name}` result without `method`"))?;
            let ctx = format!("{name}/{method}");
            let Some(cur_result) = cur_results
                .iter()
                .find(|r| r.get("method").and_then(Json::as_str) == Some(method))
            else {
                cmp.hard
                    .push(format!("{ctx}: method missing from current run"));
                continue;
            };
            let base_saved = int_field(&base_result, &ctx, "saved_words")?;
            let cur_saved = int_field(cur_result, &ctx, "saved_words")?;
            if cur_saved < base_saved {
                cmp.hard.push(format!(
                    "{ctx}: saved_words regressed {base_saved} -> {cur_saved}"
                ));
            } else if cur_saved > base_saved {
                cmp.notes.push(format!(
                    "{ctx}: saved_words improved {base_saved} -> {cur_saved}"
                ));
            }
            match base_result.get("work") {
                Some(base_work) => compare_work(&ctx, base_work, cur_result, cmp)?,
                None => work_ungated = true,
            }
        }
    }
    if work_ungated {
        cmp.notes
            .push("work comparison skipped: the baseline has no `work` block".to_owned());
    }
    Ok(())
}

/// Holds one result's `work` counters to the baseline's: each counter the
/// baseline lists must be present with the same value.
fn compare_work(
    ctx: &str,
    base_work: &Json,
    cur_result: &Json,
    cmp: &mut Comparison,
) -> Result<(), String> {
    let Json::Obj(counters) = base_work else {
        return Err(format!("baseline: {ctx} `work` is not an object"));
    };
    let Some(cur_work) = cur_result.get("work") else {
        cmp.hard
            .push(format!("{ctx}: work block missing from current run"));
        return Ok(());
    };
    for (name, base) in counters {
        let base = base
            .as_int()
            .ok_or_else(|| format!("baseline: {ctx} work `{name}` is not an integer"))?;
        match cur_work.get(name).and_then(Json::as_int) {
            Some(cur) if cur == base => {}
            Some(cur) => cmp
                .hard
                .push(format!("{ctx}: work {name} changed {base} -> {cur}")),
            None => cmp
                .hard
                .push(format!("{ctx}: work {name} missing from current run")),
        }
    }
    Ok(())
}

/// A `method × stage` percentile lookup over a document's
/// `measured.latency` array; `None` when the section is absent.
fn latency_index(doc: &Json) -> Option<Vec<(String, String, Json)>> {
    let latency = doc.get("measured")?.get("latency")?.as_arr()?;
    let mut index = Vec::new();
    for entry in latency {
        let method = entry.get("method")?.as_str()?.to_owned();
        for stage in entry.get("stages")?.as_arr()? {
            let name = stage.get("stage")?.as_str()?.to_owned();
            index.push((method.clone(), name, stage.clone()));
        }
    }
    Some(index)
}

fn compare_latency(current: &Json, baseline: &Json, tolerance_pct: u64, cmp: &mut Comparison) {
    let (Some(cur), Some(base)) = (latency_index(current), latency_index(baseline)) else {
        cmp.notes
            .push("latency comparison skipped: a `measured` section is absent".to_owned());
        return;
    };
    for (method, stage, base_stage) in &base {
        let Some((_, _, cur_stage)) = cur.iter().find(|(m, s, _)| m == method && s == stage) else {
            // Structure mismatches in the measured section are only notes:
            // the hard gate already covers the deterministic section.
            cmp.notes
                .push(format!("{method}/{stage}: no current latency sample"));
            continue;
        };
        for pct in GATED_PERCENTILES {
            let (Some(base_ns), Some(cur_ns)) = (
                base_stage.get(pct).and_then(Json::as_int),
                cur_stage.get(pct).and_then(Json::as_int),
            ) else {
                continue;
            };
            let beyond_floor = cur_ns > base_ns + LATENCY_FLOOR_NS;
            let beyond_tolerance =
                cur_ns.saturating_mul(100) > base_ns.saturating_mul(100 + tolerance_pct as i64);
            if beyond_floor && beyond_tolerance {
                cmp.soft.push(format!(
                    "{method}/{stage} {pct}: {base_ns}ns -> {cur_ns}ns (tolerance {tolerance_pct}%)"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal bench document with one kernel × one method, whose
    /// result ends with `work` (a `,"work":{…}` member, or nothing).
    fn doc_with_work(saved: i64, p99: i64, work: &str) -> Json {
        Json::parse(&format!(
            concat!(
                "{{\"schema\":\"gpa-bench/1\",\"methods\":[\"sfx\"],",
                "\"kernels\":[{{\"name\":\"crc\",\"instructions\":100,",
                "\"results\":[{{\"method\":\"sfx\",\"saved_words\":{saved}{work}}}]}}],",
                "\"totals\":[],",
                "\"measured\":{{\"jobs\":1,\"wall_ns\":1,\"latency\":[",
                "{{\"method\":\"sfx\",\"stages\":[{{\"stage\":\"mining\",",
                "\"p50_ns\":10,\"p90_ns\":20,\"p99_ns\":{p99}}}]}}]}}}}"
            ),
            saved = saved,
            work = work,
            p99 = p99,
        ))
        .unwrap()
    }

    /// [`doc_with_work`] with a two-counter work block.
    fn doc(saved: i64, p99: i64) -> Json {
        doc_with_work(
            saved,
            p99,
            ",\"work\":{\"mine.codes\":40,\"mine.canon_tuples\":90}",
        )
    }

    #[test]
    fn identical_documents_pass() {
        let a = doc(10, 1000);
        let cmp = compare(&a, &a, 10).unwrap();
        assert!(!cmp.is_regression());
        assert!(!cmp.has_soft());
        assert!(cmp.render().is_empty());
    }

    #[test]
    fn saved_words_decrease_is_hard() {
        let cmp = compare(&doc(8, 1000), &doc(10, 1000), 10).unwrap();
        assert!(cmp.is_regression());
        assert!(cmp.hard[0].contains("crc/sfx"), "{:?}", cmp.hard);
        assert!(cmp.render().contains("HARD"));
    }

    #[test]
    fn saved_words_increase_is_a_note() {
        let cmp = compare(&doc(12, 1000), &doc(10, 1000), 10).unwrap();
        assert!(!cmp.is_regression());
        assert!(cmp.notes[0].contains("improved"), "{:?}", cmp.notes);
    }

    #[test]
    fn missing_kernel_is_hard() {
        let mut current = doc(10, 1000);
        // Rename the kernel so the baseline's `crc` cannot be found.
        if let Json::Obj(pairs) = &mut current {
            for (key, value) in pairs.iter_mut() {
                if key == "kernels" {
                    *value = Json::Arr(vec![]);
                }
            }
        }
        let cmp = compare(&current, &doc(10, 1000), 10).unwrap();
        assert!(cmp.is_regression());
        assert!(cmp.hard[0].contains("missing"), "{:?}", cmp.hard);
    }

    #[test]
    fn latency_gate_needs_floor_and_tolerance() {
        // +50% but under the 200µs floor: ignored.
        let cmp = compare(&doc(10, 1500), &doc(10, 1000), 10).unwrap();
        assert!(!cmp.has_soft());
        // Over the floor and over the tolerance: soft finding.
        let cmp = compare(&doc(10, 2_000_000), &doc(10, 1_000_000), 10).unwrap();
        assert!(cmp.has_soft());
        assert!(!cmp.is_regression());
        assert!(cmp.soft[0].contains("p99_ns"), "{:?}", cmp.soft);
        // Over the floor but inside a generous tolerance: ignored.
        let cmp = compare(&doc(10, 2_000_000), &doc(10, 1_000_000), 150).unwrap();
        assert!(!cmp.has_soft());
    }

    /// The work block is gated exactly: a count that moves either way,
    /// or goes missing, is hard; a counter only the current run has is
    /// not gated.
    #[test]
    fn work_changes_are_hard() {
        let base = doc(10, 1000);
        for work in [
            ",\"work\":{\"mine.codes\":40,\"mine.canon_tuples\":89}",
            ",\"work\":{\"mine.codes\":41,\"mine.canon_tuples\":90}",
            ",\"work\":{\"mine.codes\":40}",
            "",
        ] {
            let cmp = compare(&doc_with_work(10, 1000, work), &base, 10).unwrap();
            assert!(cmp.is_regression(), "{work}");
            assert_eq!(cmp.hard.len(), 1, "{:?}", cmp.hard);
            assert!(cmp.hard[0].starts_with("crc/sfx: work"), "{:?}", cmp.hard);
        }
        let more = ",\"work\":{\"mine.codes\":40,\"mine.canon_tuples\":90,\"run.rounds\":3}";
        let cmp = compare(&doc_with_work(10, 1000, more), &base, 10).unwrap();
        assert!(cmp.render().is_empty(), "{}", cmp.render());
    }

    /// A baseline from before the work block gates nothing of it, and
    /// says so once.
    #[test]
    fn a_baseline_without_work_skips_the_work_gate() {
        let base = doc_with_work(10, 1000, "");
        let cmp = compare(&doc(10, 1000), &base, 10).unwrap();
        assert!(!cmp.is_regression(), "{:?}", cmp.hard);
        assert_eq!(
            cmp.notes,
            ["work comparison skipped: the baseline has no `work` block"]
        );
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let bogus = Json::parse("{\"schema\":\"other/9\"}").unwrap();
        assert!(compare(&bogus, &doc(1, 1), 0).is_err());
        assert!(compare(&doc(1, 1), &bogus, 0).is_err());
    }
}
