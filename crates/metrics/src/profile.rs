//! Aggregating `gpa-trace/1` streams into span profiles.
//!
//! The optimizer emits `span.enter` / `span.exit` events as ordinary
//! trace lines (see `gpa_trace::span`); this module replays those lines
//! through a [`SpanBuilder`] to rebuild the hierarchy, and merges many
//! streams (one per image) into a single flamegraph-style [`SpanTree`].

use std::path::{Path, PathBuf};

use gpa::json::Json;
use gpa_trace::{SpanBuilder, SpanTree, SPAN_ENTER, SPAN_EXIT};

/// Aggregates the span events of one `gpa-trace/1` JSONL stream.
///
/// Non-span events are skipped; blank lines are ignored. Malformed
/// streams are tolerated the way [`SpanBuilder`] tolerates them (orphan
/// exits dropped, unclosed enters discarded).
///
/// # Errors
///
/// A message naming the first line that is not valid JSON or is a span
/// event missing its `name` / `dur_ns` fields.
pub fn spans_from_jsonl(text: &str) -> Result<SpanTree, String> {
    let mut builder = SpanBuilder::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match doc.get("ev").and_then(Json::as_str) {
            Some(SPAN_ENTER) => {
                let name = doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {}: span.enter without name", i + 1))?;
                builder.enter(name);
            }
            Some(SPAN_EXIT) => {
                let name = doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {}: span.exit without name", i + 1))?;
                let dur_ns = doc
                    .get("dur_ns")
                    .and_then(Json::as_int)
                    .and_then(|v| u64::try_from(v).ok())
                    .ok_or_else(|| format!("line {}: span.exit without dur_ns", i + 1))?;
                builder.exit(name, dur_ns);
            }
            _ => {}
        }
    }
    Ok(builder.finish())
}

/// Reads each file and merges the per-stream profiles into one tree.
///
/// # Errors
///
/// A message naming the unreadable or malformed file.
pub fn spans_from_files(paths: &[PathBuf]) -> Result<SpanTree, String> {
    let mut tree = SpanTree::default();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let one = spans_from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        tree.merge(&one);
    }
    Ok(tree)
}

/// One profile per input slot of a batch trace directory: stream
/// `NNNN-<name>.jsonl` is input `NNNN`, the way `gpa batch` names them.
///
/// # Errors
///
/// A message when the directory or any stream cannot be read, a stream's
/// name carries no slot number below `slots`, or a slot has no stream.
pub fn spans_per_slot(dir: &Path, slots: usize) -> Result<Vec<SpanTree>, String> {
    let mut trees: Vec<Option<SpanTree>> = vec![None; slots];
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().is_none_or(|ext| ext != "jsonl") {
            continue;
        }
        let slot = path
            .file_name()
            .and_then(|name| name.to_str()?.split_once('-')?.0.parse::<usize>().ok())
            .filter(|&slot| slot < slots)
            .ok_or_else(|| format!("{}: not a stream of input 0..{slots}", path.display()))?;
        trees[slot] = Some(spans_from_files(std::slice::from_ref(&path))?);
    }
    trees
        .into_iter()
        .enumerate()
        .map(|(slot, tree)| {
            tree.ok_or_else(|| format!("{}: no stream of input {slot}", dir.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_span_events_and_skips_the_rest() {
        let text = concat!(
            "{\"schema\":\"gpa-trace/1\",\"ev\":\"trace_begin\"}\n",
            "{\"ev\":\"span.enter\",\"at_ns\":1,\"name\":\"optimize\"}\n",
            "{\"ev\":\"span.enter\",\"at_ns\":2,\"name\":\"round\"}\n",
            "{\"ev\":\"mine.start\",\"at_ns\":3,\"patterns\":7}\n",
            "{\"ev\":\"span.exit\",\"at_ns\":9,\"name\":\"round\",\"dur_ns\":7}\n",
            "{\"ev\":\"span.exit\",\"at_ns\":10,\"name\":\"optimize\",\"dur_ns\":9}\n",
            "{\"ev\":\"counters\",\"counters\":{\"span.enter\":2,\"span.exit\":2}}\n",
        );
        let tree = spans_from_jsonl(text).unwrap();
        let optimize = tree.roots.get("optimize").expect("optimize root");
        assert_eq!(optimize.total_ns, 9);
        assert_eq!(optimize.children["round"].total_ns, 7);
    }

    #[test]
    fn bad_json_names_the_line() {
        let err = spans_from_jsonl("{\"ev\":\"x\",\"at_ns\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn span_exit_without_duration_is_an_error() {
        let err =
            spans_from_jsonl("{\"ev\":\"span.exit\",\"at_ns\":1,\"name\":\"x\"}\n").unwrap_err();
        assert!(err.contains("dur_ns"), "{err}");
    }

    #[test]
    fn streams_are_matched_to_slots_by_number() {
        let dir = std::env::temp_dir().join(format!("gpa-slots-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for slot in 0..11 {
            let text = format!(
                "{{\"ev\":\"span.enter\",\"at_ns\":1,\"name\":\"front\"}}\n\
                 {{\"ev\":\"span.exit\",\"at_ns\":2,\"name\":\"front\",\"dur_ns\":{slot}}}\n"
            );
            // Unpadded, so byte-wise name order is not slot order.
            std::fs::write(dir.join(format!("{slot}-k.jsonl")), text).unwrap();
        }
        let trees = spans_per_slot(&dir, 11).unwrap();
        for (slot, tree) in trees.iter().enumerate() {
            assert_eq!(tree.total_ns_at(&["front"]), slot as u64);
        }
        let err = spans_per_slot(&dir, 10).unwrap_err();
        assert!(err.contains("10-k.jsonl"), "{err}");
        std::fs::remove_file(dir.join("3-k.jsonl")).unwrap();
        let err = spans_per_slot(&dir, 11).unwrap_err();
        assert!(err.contains("no stream of input 3"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(spans_from_files(&[PathBuf::from("/definitely/not/here.jsonl")]).is_err());
    }
}
