//! `gpa-trace` — structured tracing and telemetry for the
//! procedural-abstraction pipeline.
//!
//! The miner, the MIS solver and the batch cache all contain *bounded*
//! algorithms with silent fallbacks: pattern budgets, embedding-list
//! caps, a branch-and-bound step budget, a greedy path for oversized
//! collision-graph components, corrupt cache entries degraded to misses.
//! Each of those trades result quality for bounded work — invisibly,
//! unless something records that the trade happened. This crate is that
//! record: a zero-dependency [`Tracer`] trait threaded through the whole
//! pipeline, with three implementations:
//!
//! * [`NoopTracer`] — the default; every call is a no-op so the hot
//!   mining loops pay one virtual call and nothing else;
//! * [`CounterTracer`] — aggregates named counters in memory (tests,
//!   embedders that only want totals);
//! * [`JsonlTracer`] — appends one JSON object per event to a writer
//!   (the `gpa optimize --trace` / `gpa batch --trace-dir` backends)
//!   and aggregates counters on the side.
//!
//! # Event stream schema (`gpa-trace/1`)
//!
//! A trace file is JSON Lines: every line is a self-contained JSON
//! object with an `"ev"` name field. The first line is a header
//! (`{"schema":"gpa-trace/1","ev":"trace_begin"}`), the last — written
//! by [`Tracer::finish`] — is the counter summary
//! (`{"ev":"counters","counters":{…}}`). In between, every
//! [`Tracer::event`] call appends a line
//! `{"ev":"<name>","at_ns":<ns since trace start>, …fields}` and bumps
//! the counter of the same name, so a well-formed trace satisfies
//! *counter(name) == number of `name` event lines* for every name that
//! appears as an event (`gpa trace-check` enforces this). Hot-path
//! figures (patterns visited, branch-and-bound steps) are counted via
//! [`Tracer::count`] without emitting per-increment events; they appear
//! only in the final summary. The accounting equations those counters
//! satisfy (visited patterns and codes, detection visits, alias pairs,
//! carried regions, serve requests) are declared once in
//! [`identity::IDENTITIES`].
//!
//! Event ordering between threads follows lock acquisition, so two runs
//! may interleave events differently; counter totals for a fixed
//! configuration are deterministic. Tracing never influences any
//! optimization decision: reports are byte-identical with tracing on or
//! off.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub mod histogram;
pub mod identity;
pub mod span;

pub use histogram::{LogHistogram, WindowedHistogram};
pub use span::{span, SpanBuilder, SpanGuard, SpanNode, SpanTree, SPAN_ENTER, SPAN_EXIT};

/// Version tag of the trace event-stream schema.
pub const TRACE_SCHEMA: &str = "gpa-trace/1";

/// Canonical field name for a per-request id on trace events.
///
/// `gpa serve` assigns every accepted request a process-unique id and
/// threads it through the `serve.*` lifecycle events and the optimizer
/// span events captured by its flight recorder, so one request's
/// timeline can be grepped out of an interleaved stream
/// (`"req":<id>`). Emitters attach it as an [`Value::Int`] field.
pub const REQ_ID_FIELD: &str = "req";

/// A [`std::time::Duration`] as whole nanoseconds, saturating at
/// `u64::MAX` instead of silently truncating the `u128` (`as_nanos()
/// as u64` wraps after ~584 years of wall time — absurd for a real
/// measurement, but a stuck clock or a deserialized timestamp should
/// degrade to "very large", not to a small bogus stage timing).
///
/// Every stage-timing site in the workspace funnels through this one
/// conversion.
pub fn saturating_ns(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// A field value of a trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// An integer (counts, sizes, nanoseconds; saturating from `u64`).
    Int(i64),
    /// A string (names, reasons, hex keys).
    Str(String),
    /// A boolean flag.
    Bool(bool),
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    /// Saturates at `i64::MAX`.
    fn from(v: u64) -> Value {
        Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Value {
    /// Saturates at `i64::MAX`.
    fn from(v: usize) -> Value {
        Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// An ordered name → total map of aggregated counters.
///
/// Produced by [`Tracer::counters`]; merged across images by the batch
/// pipeline and folded into the corpus report's `"metrics"` object.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters(pub BTreeMap<String, u64>);

impl Counters {
    /// The total recorded under `name` (zero when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Adds every counter of `other` into this map.
    pub fn merge(&mut self, other: &Counters) {
        for (name, total) in &other.0 {
            *self.0.entry(name.clone()).or_insert(0) += total;
        }
    }

    /// Whether no counter has been recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Checks the finished-trace rows of [`identity::IDENTITIES`].
    ///
    /// # Errors
    ///
    /// The first unbalanced row.
    pub fn check_identities(&self) -> Result<(), identity::IdentityError> {
        identity::check(identity::Form::Trace, |_, name| {
            self.0
                .get(name)
                .map(|&v| i64::try_from(v).unwrap_or(i64::MAX))
        })
    }
}

impl From<&BTreeMap<&'static str, u64>> for Counters {
    fn from(counters: &BTreeMap<&'static str, u64>) -> Counters {
        Counters(counters.iter().map(|(&k, &v)| (k.to_owned(), v)).collect())
    }
}

/// Debug builds: panics when a finished tracer's counters break a
/// finished-trace identity. Called with no lock held, and never from
/// `Drop`.
fn debug_assert_identities(tracer: &dyn Tracer) {
    if cfg!(debug_assertions) {
        if let Err(e) = tracer.counters().check_identities() {
            panic!("trace finished with a broken counter identity: {e}");
        }
    }
}

/// The tracing sink threaded through mining, detection, extraction and
/// the batch cache.
///
/// Implementations must be cheap when disabled and safe to share across
/// worker threads ([`Send`] + [`Sync`]); the pipeline hands the same
/// tracer to every mining worker of a detection round.
pub trait Tracer: Send + Sync + fmt::Debug {
    /// Bumps the named counter by `delta`. Hot-path safe: no event line
    /// is emitted.
    fn count(&self, counter: &'static str, delta: u64);

    /// Emits a structured event and bumps the counter of the same name
    /// by one.
    fn event(&self, name: &'static str, fields: &[(&'static str, Value)]);

    /// Whether this tracer records anything (lets callers skip building
    /// expensive field sets).
    fn enabled(&self) -> bool;

    /// A snapshot of every counter recorded so far.
    fn counters(&self) -> Counters {
        Counters::default()
    }

    /// Flushes the trace, writing the trailing counter-summary line for
    /// stream-backed tracers. Idempotent; a no-op for others.
    fn finish(&self) {}
}

/// The default tracer: records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn count(&self, _counter: &'static str, _delta: u64) {}
    fn event(&self, _name: &'static str, _fields: &[(&'static str, Value)]) {}
    fn enabled(&self) -> bool {
        false
    }
}

/// A tracer that aggregates counters in memory and drops events' fields.
#[derive(Debug, Default)]
pub struct CounterTracer {
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl CounterTracer {
    /// An empty counter set.
    pub fn new() -> CounterTracer {
        CounterTracer::default()
    }
}

impl Tracer for CounterTracer {
    fn count(&self, counter: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("counter tracer poisoned")
            .entry(counter)
            .or_insert(0) += delta;
    }

    fn event(&self, name: &'static str, _fields: &[(&'static str, Value)]) {
        self.count(name, 1);
    }

    fn enabled(&self) -> bool {
        true
    }

    fn counters(&self) -> Counters {
        Counters::from(&*self.counters.lock().expect("counter tracer poisoned"))
    }

    fn finish(&self) {
        debug_assert_identities(self);
    }
}

struct JsonlInner {
    out: Box<dyn Write + Send>,
    counters: BTreeMap<&'static str, u64>,
    /// `at_ns` of the last event line written; event timestamps are
    /// sampled *under the stream lock*, so this never decreases.
    last_at_ns: u64,
    finished: bool,
}

/// A tracer that appends one JSON object per event to a writer
/// (`gpa-trace/1` JSON Lines) and aggregates counters on the side.
///
/// Writing is best-effort: an I/O error on an event line is swallowed
/// (tracing must never fail the traced run), but creation errors are
/// surfaced so a mistyped `--trace` path is not silently ignored.
pub struct JsonlTracer {
    start: Instant,
    inner: Mutex<JsonlInner>,
}

impl fmt::Debug for JsonlTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlTracer").finish_non_exhaustive()
    }
}

impl JsonlTracer {
    /// Traces into a freshly created (truncated) file.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation failure.
    pub fn to_file(path: &Path) -> io::Result<JsonlTracer> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlTracer::to_writer(Box::new(io::BufWriter::new(file))))
    }

    /// Traces into an arbitrary writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> JsonlTracer {
        let tracer = JsonlTracer {
            start: Instant::now(),
            inner: Mutex::new(JsonlInner {
                out,
                counters: BTreeMap::new(),
                last_at_ns: 0,
                finished: false,
            }),
        };
        {
            let mut inner = tracer.inner.lock().expect("jsonl tracer poisoned");
            let mut line = String::new();
            line.push_str("{\"schema\":");
            write_json_str(&mut line, TRACE_SCHEMA);
            line.push_str(",\"ev\":\"trace_begin\"}\n");
            let _ = inner.out.write_all(line.as_bytes());
        }
        tracer
    }
}

impl Tracer for JsonlTracer {
    fn count(&self, counter: &'static str, delta: u64) {
        let mut inner = self.inner.lock().expect("jsonl tracer poisoned");
        *inner.counters.entry(counter).or_insert(0) += delta;
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        let mut inner = self.inner.lock().expect("jsonl tracer poisoned");
        // Sample the clock while holding the stream lock: timestamps are
        // then assigned in write order, so `at_ns` is monotone across
        // the whole stream even when several threads trace at once.
        let at_ns = crate::saturating_ns(self.start.elapsed()).min(i64::MAX as u64);
        debug_assert!(
            at_ns >= inner.last_at_ns,
            "at_ns regressed: {at_ns} < {}",
            inner.last_at_ns
        );
        let at_ns = at_ns.max(inner.last_at_ns);
        inner.last_at_ns = at_ns;
        let mut line = String::new();
        line.push_str("{\"ev\":");
        write_json_str(&mut line, name);
        line.push_str(",\"at_ns\":");
        line.push_str(&at_ns.to_string());
        for (key, value) in fields {
            line.push(',');
            write_json_str(&mut line, key);
            line.push(':');
            match value {
                Value::Int(v) => line.push_str(&v.to_string()),
                Value::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
                Value::Str(s) => write_json_str(&mut line, s),
            }
        }
        line.push_str("}\n");
        *inner.counters.entry(name).or_insert(0) += 1;
        let _ = inner.out.write_all(line.as_bytes());
    }

    fn enabled(&self) -> bool {
        true
    }

    fn counters(&self) -> Counters {
        Counters::from(&self.inner.lock().expect("jsonl tracer poisoned").counters)
    }

    fn finish(&self) {
        if self.write_summary() {
            debug_assert_identities(self);
        }
    }
}

impl JsonlTracer {
    /// Writes the trailing counter-summary line unless it is already
    /// written; returns whether this call wrote it.
    fn write_summary(&self) -> bool {
        let Ok(mut inner) = self.inner.lock() else {
            return false;
        };
        if inner.finished {
            return false;
        }
        inner.finished = true;
        let mut line = String::from("{\"ev\":\"counters\",\"counters\":{");
        for (i, (name, total)) in inner.counters.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_json_str(&mut line, name);
            line.push(':');
            line.push_str(&total.to_string());
        }
        line.push_str("}}\n");
        let _ = inner.out.write_all(line.as_bytes());
        let _ = inner.out.flush();
        true
    }
}

impl Drop for JsonlTracer {
    fn drop(&mut self) {
        self.write_summary();
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
///
/// Public because every hand-rolled `gpa-trace/1` emitter (the
/// [`JsonlTracer`] here, the serve flight recorder) must escape
/// identically for the streams to validate the same way.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A Vec<u8> sink shareable between the tracer and the assertion.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn noop_records_nothing() {
        let t = NoopTracer;
        t.count("x", 5);
        t.event("y", &[("a", Value::Int(1))]);
        assert!(!t.enabled());
        assert!(t.counters().is_empty());
    }

    #[test]
    fn counter_tracer_aggregates() {
        let t = CounterTracer::new();
        t.count("mine.patterns_visited", 3);
        t.count("mine.patterns_visited", 4);
        t.event("mis.budget_exhausted", &[]);
        let c = t.counters();
        assert_eq!(c.get("mine.patterns_visited"), 7);
        assert_eq!(c.get("mis.budget_exhausted"), 1);
        assert_eq!(c.get("absent"), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "broken counter identity")]
    fn counter_finish_asserts_the_identities() {
        let t = CounterTracer::new();
        t.count("mine.patterns_visited", 1);
        t.finish();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "broken counter identity")]
    fn jsonl_finish_asserts_the_identities_after_writing_the_summary() {
        let t = JsonlTracer::to_writer(Box::new(io::sink()));
        t.count("front.regions", 1);
        t.finish();
    }

    #[test]
    fn counters_merge() {
        let mut a = Counters::default();
        a.0.insert("x".into(), 2);
        let mut b = Counters::default();
        b.0.insert("x".into(), 3);
        b.0.insert("y".into(), 1);
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
    }

    #[test]
    fn jsonl_stream_shape() {
        let buf = SharedBuf::default();
        let t = JsonlTracer::to_writer(Box::new(buf.clone()));
        t.count("hot", 9);
        t.event(
            "cache.corrupt_entry",
            &[
                ("key", Value::from("00ff")),
                ("reason", Value::from("bad \"json\"\n")),
                ("recovered", Value::from(true)),
                ("bytes", Value::from(42u64)),
            ],
        );
        t.finish();
        t.finish(); // idempotent
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"schema\":\"gpa-trace/1\""));
        assert!(lines[0].contains("\"ev\":\"trace_begin\""));
        assert!(lines[1].contains("\"ev\":\"cache.corrupt_entry\""));
        assert!(lines[1].contains("\"reason\":\"bad \\\"json\\\"\\n\""));
        assert!(lines[1].contains("\"recovered\":true"));
        assert!(lines[1].contains("\"at_ns\":"));
        assert!(lines[2].contains("\"ev\":\"counters\""));
        assert!(lines[2].contains("\"cache.corrupt_entry\":1"));
        assert!(lines[2].contains("\"hot\":9"));
        let c = t.counters();
        assert_eq!(c.get("hot"), 9);
        assert_eq!(c.get("cache.corrupt_entry"), 1);
    }

    /// Pulls every `"at_ns":<n>` value out of a rendered stream, in line
    /// order.
    fn at_ns_values(text: &str) -> Vec<u64> {
        text.lines()
            .filter_map(|line| {
                let (_, rest) = line.split_once("\"at_ns\":")?;
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits.parse().ok()
            })
            .collect()
    }

    #[test]
    fn at_ns_is_monotone_within_one_stream() {
        let buf = SharedBuf::default();
        let t = JsonlTracer::to_writer(Box::new(buf.clone()));
        for _ in 0..200 {
            t.event("tick", &[]);
        }
        t.finish();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let stamps = at_ns_values(&text);
        assert_eq!(stamps.len(), 200);
        for pair in stamps.windows(2) {
            assert!(
                pair[0] <= pair[1],
                "at_ns regressed: {} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn interleaved_multi_thread_events_stay_monotone_and_counted() {
        let buf = SharedBuf::default();
        let t = Arc::new(JsonlTracer::to_writer(Box::new(buf.clone())));
        // Four "sections" interleaving events of distinct names plus a
        // shared one, racing on the same stream.
        std::thread::scope(|scope| {
            for section in 0..4usize {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    let name = ["sec.a", "sec.b", "sec.c", "sec.d"][section];
                    for _ in 0..50 {
                        t.event(name, &[]);
                        t.event("shared", &[]);
                    }
                });
            }
        });
        t.finish();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let stamps = at_ns_values(&text);
        assert_eq!(stamps.len(), 400);
        for pair in stamps.windows(2) {
            assert!(pair[0] <= pair[1], "at_ns regressed across threads");
        }
        // The trailing counters line agrees with the event-line counts.
        let lines: Vec<&str> = text.lines().collect();
        let summary = lines.last().unwrap();
        assert!(summary.contains("\"ev\":\"counters\""));
        for name in ["sec.a", "sec.b", "sec.c", "sec.d"] {
            let event_lines = lines
                .iter()
                .filter(|l| l.contains(&format!("\"ev\":\"{name}\"")))
                .count();
            assert_eq!(event_lines, 50);
            assert!(summary.contains(&format!("\"{name}\":50")), "{summary}");
        }
        assert!(summary.contains("\"shared\":200"), "{summary}");
    }

    #[test]
    fn jsonl_is_shareable_across_threads() {
        let buf = SharedBuf::default();
        let t = Arc::new(JsonlTracer::to_writer(Box::new(buf.clone())));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for _ in 0..100 {
                        t.count("n", 1);
                    }
                    t.event("worker_done", &[]);
                });
            }
        });
        t.finish();
        let c = t.counters();
        assert_eq!(c.get("n"), 400);
        assert_eq!(c.get("worker_done"), 4);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        // Every line is a complete object (no interleaved writes).
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
