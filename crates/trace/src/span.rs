//! Hierarchical spans over the flat event stream.
//!
//! A span is a named region of wall time. Rather than extending the
//! `gpa-trace/1` schema, spans ride on ordinary events: entering a span
//! emits `span.enter {name}`, leaving it emits `span.exit {name,
//! dur_ns}`. Because both are plain events, every existing invariant
//! (counter(name) == line count, byte-identical reports trace-on/off)
//! holds unchanged, and old streams without spans still validate.
//!
//! Consumers rebuild the hierarchy from nesting order with
//! [`SpanBuilder`] — enter pushes, exit pops back to the matching name —
//! and aggregate identical paths into a [`SpanTree`]: a flamegraph-style
//! profile where every node carries invocation count, total time, and
//! (derived) self time. `gpa trace-profile` renders that tree for
//! existing trace files; `gpa perf --profile` does the same for a fresh
//! benchmark run.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::{Tracer, Value};

/// Event name emitted when a span opens.
pub const SPAN_ENTER: &str = "span.enter";
/// Event name emitted when a span closes.
pub const SPAN_EXIT: &str = "span.exit";

/// An RAII guard tracing one span; emits the exit event on drop.
pub struct SpanGuard<'a> {
    tracer: &'a dyn Tracer,
    name: &'static str,
    start: Instant,
    armed: bool,
}

/// Opens a span on `tracer`; the returned guard closes it when dropped.
///
/// Disabled tracers pay one `enabled()` call and nothing else.
pub fn span<'a>(tracer: &'a dyn Tracer, name: &'static str) -> SpanGuard<'a> {
    let armed = tracer.enabled();
    if armed {
        tracer.event(SPAN_ENTER, &[("name", Value::from(name))]);
    }
    SpanGuard {
        tracer,
        name,
        start: Instant::now(),
        armed,
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let dur_ns = crate::saturating_ns(self.start.elapsed());
            self.tracer.event(
                SPAN_EXIT,
                &[
                    ("name", Value::from(self.name)),
                    ("dur_ns", Value::from(dur_ns)),
                ],
            );
        }
    }
}

/// One aggregated node of a span profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// How many spans merged into this node.
    pub count: u64,
    /// Total wall time across those spans.
    pub total_ns: u64,
    /// Child spans, by name.
    pub children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    /// Total time spent in direct children.
    pub fn child_ns(&self) -> u64 {
        self.children.values().map(|c| c.total_ns).sum()
    }

    /// Time spent in this span outside any child (clamped at zero:
    /// per-span clock reads can make children sum slightly past the
    /// parent).
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns())
    }

    fn merge(&mut self, other: &SpanNode) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (name, child) in &other.children {
            self.children.entry(name.clone()).or_default().merge(child);
        }
    }
}

/// An aggregated span profile: a forest of named [`SpanNode`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// Top-level spans, by name.
    pub roots: BTreeMap<String, SpanNode>,
}

impl SpanTree {
    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Adds one completed span at `path` (root-first) with duration
    /// `dur_ns`. Intermediate nodes are created on demand; only the leaf
    /// gets the count/time (enclosing spans record their own exits).
    pub fn record(&mut self, path: &[String], dur_ns: u64) {
        let Some((first, rest)) = path.split_first() else {
            return;
        };
        let mut node = self.roots.entry(first.clone()).or_default();
        for name in rest {
            node = node.children.entry(name.clone()).or_default();
        }
        node.count += 1;
        node.total_ns += dur_ns;
    }

    /// Total time of the spans recorded at `path` (root first); zero
    /// when none were.
    pub fn total_ns_at(&self, path: &[&str]) -> u64 {
        let Some((first, rest)) = path.split_first() else {
            return 0;
        };
        let mut node = self.roots.get(*first);
        for name in rest {
            node = node.and_then(|n| n.children.get(*name));
        }
        node.map_or(0, |n| n.total_ns)
    }

    /// Merges another profile into this one, path by path.
    pub fn merge(&mut self, other: &SpanTree) {
        for (name, node) in &other.roots {
            self.roots.entry(name.clone()).or_default().merge(node);
        }
    }

    /// Renders the profile as an indented text tree, children sorted by
    /// total time (descending, then by name for determinism).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "     total       self    count  span\n\
             ----------  ---------  -------  ----\n",
        );
        fn visit(out: &mut String, name: &str, node: &SpanNode, depth: usize) {
            out.push_str(&format!(
                "{:>10}  {:>9}  {:>7}  {:indent$}{name}\n",
                fmt_ns(node.total_ns),
                fmt_ns(node.self_ns()),
                node.count,
                "",
                indent = depth * 2,
            ));
            let mut children: Vec<(&String, &SpanNode)> = node.children.iter().collect();
            children.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
            for (child_name, child) in children {
                visit(out, child_name, child, depth + 1);
            }
        }
        let mut roots: Vec<(&String, &SpanNode)> = self.roots.iter().collect();
        roots.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        for (name, node) in roots {
            visit(&mut out, name, node, 0);
        }
        out
    }
}

/// Human-scale duration (ns → µs → ms → s) for the rendered tree.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Rebuilds span nesting from a stream of enter/exit events.
///
/// Tolerant of malformed streams: an exit without a matching enter is
/// dropped, enters missing their exit are discarded when [`finish`]
/// (`SpanBuilder::finish`) runs, and popping to the *innermost* matching
/// name keeps one lost exit from corrupting the rest of the stream.
#[derive(Debug, Default)]
pub struct SpanBuilder {
    stack: Vec<String>,
    tree: SpanTree,
}

impl SpanBuilder {
    /// A builder with an empty stack and profile.
    pub fn new() -> SpanBuilder {
        SpanBuilder::default()
    }

    /// Handles a `span.enter` event.
    pub fn enter(&mut self, name: &str) {
        self.stack.push(name.to_owned());
    }

    /// Handles a `span.exit` event carrying the span's duration.
    pub fn exit(&mut self, name: &str, dur_ns: u64) {
        if let Some(pos) = self.stack.iter().rposition(|n| n == name) {
            self.tree.record(&self.stack[..=pos], dur_ns);
            self.stack.truncate(pos);
        }
    }

    /// The aggregated profile (unclosed spans are dropped).
    pub fn finish(self) -> SpanTree {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CounterTracer;

    #[test]
    fn guard_emits_paired_events() {
        let t = CounterTracer::new();
        {
            let _outer = span(&t, "outer");
            let _inner = span(&t, "inner");
        }
        let c = t.counters();
        assert_eq!(c.get(SPAN_ENTER), 2);
        assert_eq!(c.get(SPAN_EXIT), 2);
    }

    #[test]
    fn disabled_tracer_pays_nothing() {
        let t = crate::NoopTracer;
        let g = span(&t, "quiet");
        assert!(!g.armed);
    }

    #[test]
    fn builder_aggregates_nested_spans() {
        let mut b = SpanBuilder::new();
        for _ in 0..3 {
            b.enter("round");
            b.enter("detect");
            b.exit("detect", 100);
            b.enter("apply");
            b.exit("apply", 10);
            b.exit("round", 130);
        }
        let tree = b.finish();
        let round = tree.roots.get("round").expect("round root");
        assert_eq!(round.count, 3);
        assert_eq!(round.total_ns, 390);
        assert_eq!(round.children["detect"].total_ns, 300);
        assert_eq!(round.children["apply"].count, 3);
        assert_eq!(round.self_ns(), 390 - 330);
        assert_eq!(tree.total_ns_at(&["round", "detect"]), 300);
        assert_eq!(tree.total_ns_at(&["round", "validate"]), 0);
        assert_eq!(tree.total_ns_at(&["detect"]), 0);
        let text = tree.render();
        assert!(text.contains("round"), "{text}");
        assert!(text.contains("detect"), "{text}");
        // detect (300ns) sorts before apply (30ns).
        assert!(text.find("detect").unwrap() < text.find("apply").unwrap());
    }

    #[test]
    fn builder_tolerates_unbalanced_streams() {
        let mut b = SpanBuilder::new();
        b.exit("phantom", 5); // exit without enter: dropped
        b.enter("leaked"); // enter without exit: dropped at finish
        b.enter("real");
        b.exit("real", 7);
        let tree = b.finish();
        assert_eq!(tree.roots.len(), 1);
        // "real" nests under the never-closed "leaked" frame.
        assert_eq!(tree.roots["leaked"].children["real"].total_ns, 7);
        assert_eq!(tree.roots["leaked"].count, 0);
    }

    #[test]
    fn merge_adds_counts_and_times() {
        let mut a = SpanTree::default();
        a.record(&["x".into()], 10);
        a.record(&["x".into(), "y".into()], 4);
        let mut b = SpanTree::default();
        b.record(&["x".into()], 1);
        b.record(&["z".into()], 2);
        a.merge(&b);
        assert_eq!(a.roots["x"].count, 2);
        assert_eq!(a.roots["x"].total_ns, 11);
        assert_eq!(a.roots["x"].children["y"].total_ns, 4);
        assert_eq!(a.roots["z"].total_ns, 2);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
