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

/// One profile per `*.jsonl` file of a batch trace directory, in
/// byte-wise name order (matching how `gpa batch` numbers them, so
/// stream `i` is input `i`).
///
/// # Errors
///
/// A message when the directory or any stream cannot be read.
pub fn spans_per_stream(dir: &Path) -> Result<Vec<SpanTree>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| spans_from_files(std::slice::from_ref(path)))
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
    fn missing_file_is_an_error() {
        assert!(spans_from_files(&[PathBuf::from("/definitely/not/here.jsonl")]).is_err());
    }
}
