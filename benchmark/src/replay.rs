//! In-process replay: the optimizer's detect/extract loop driven through
//! its library interface, one thread, for correctness checks and for the
//! traced run's per-layer numbers.
//!
//! The traced run records the benchmark's own spans around every call
//! into a layer (`cfg.decode`, `core.detect`, `core.extract`,
//! `verify.validate`, `cfg.encode`, `bench.emu`) and, through a
//! [`Tracer`] handed to the optimizer, the program's counters and its
//! existing `front` and `mine` spans. If a later change renames one of
//! those, the metric it feeds reads as absent (zero).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use gpa::{AliasLevel, Method, Optimizer, Report, Round, RunConfig, ValidateLevel};
use gpa_emu::Machine;
use gpa_image::Image;
use gpa_trace::{Tracer, Value, SPAN_EXIT};

/// Emulator step budget; the kernels finish in a few million steps.
const MAX_STEPS: u64 = 200_000_000;

/// One finished span. Spans of one image share `image`.
#[derive(Clone, Debug)]
struct Span {
    name: String,
    image: usize,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    spans: Vec<Span>,
    /// Indices into `spans` of the benchmark spans still open.
    open: Vec<usize>,
    image: usize,
    round_visits: Vec<u64>,
}

/// The traced run's sink: the program's counters and span durations plus
/// the benchmark's own span tree, all kept in memory until the end.
#[derive(Debug)]
pub struct BenchTracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl BenchTracer {
    pub fn new() -> BenchTracer {
        BenchTracer {
            epoch: Instant::now(),
            inner: Mutex::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("bench tracer poisoned")
    }

    fn now_ns(&self) -> u64 {
        gpa_trace::saturating_ns(self.epoch.elapsed())
    }

    fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Starts a new image: spans recorded from now on carry its id.
    fn begin_image(&self) {
        self.lock().image += 1;
    }

    /// Runs `f` inside a benchmark span called `name`.
    fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        {
            let mut inner = self.lock();
            let span = Span {
                name: name.to_owned(),
                image: inner.image,
                start_ns,
                end_ns: start_ns,
                parent: inner.open.last().copied(),
            };
            inner.spans.push(span);
            let index = inner.spans.len() - 1;
            inner.open.push(index);
        }
        let result = f();
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let index = inner.open.pop().expect("span stack balanced");
        inner.spans[index].end_ns = end_ns;
        result
    }

    /// Total duration of the spans called `name`, in seconds.
    fn total_s(&self, name: &str) -> f64 {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Total self time (duration minus the time covered by child spans)
    /// of the spans called `name`, in seconds.
    fn self_s(&self, name: &str) -> f64 {
        let inner = self.lock();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        inner
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e9)
            .sum()
    }

    /// The span tree as one JSON document.
    pub fn spans_json(&self, workload: &str, seed: u64) -> String {
        let inner = self.lock();
        let mut out = format!(
            "{{\"schema\":\"gpa-benchmark-spans/1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"image\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.image, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }

    /// The per-layer metrics this trace determines.
    pub fn layer_metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let c = |name: &str| self.counter(name) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let search_s = self.total_s("mine");
        let visits = c("mine.patterns_visited");
        let (max_round, at_budget) = {
            let inner = self.lock();
            let max = inner.round_visits.iter().copied().max().unwrap_or(0);
            let budget = gpa::DEFAULT_MAX_PATTERNS as u64;
            let at = inner.round_visits.iter().filter(|&&v| v >= budget).count();
            (max as f64, at as f64)
        };
        let values = [
            ("cfg.decode_s", self.total_s("cfg.decode")),
            ("cfg.encode_s", self.total_s("cfg.encode")),
            ("dfg.build_s", self.total_s("front")),
            ("mining.search_s", search_s),
            ("mining.visits_per_s", ratio(visits, search_s)),
            ("mining.patterns_visited", visits),
            ("mining.max_round_visits", max_round),
            ("mining.rounds_at_budget", at_budget),
            ("mining.expanded", c("mine.expanded")),
            (
                "mining.extensions_generated",
                c("mine.extensions_generated"),
            ),
            ("mining.prune_infrequent", c("mine.prune_infrequent")),
            ("mining.prune_non_canonical", c("mine.prune_non_canonical")),
            ("mining.stopped_max_nodes", c("mine.stopped_max_nodes")),
            ("mining.canon_checks", c("mine.canon_checks")),
            (
                "mining.canon_cache_hit_ratio",
                ratio(c("mine.canon_cache_hit"), c("mine.canon_checks")),
            ),
            ("mining.mis_bb_steps", c("mis.bb_steps")),
            ("mining.mis_components", c("mis.components")),
            ("core.detect_s", self.total_s("core.detect")),
            ("core.detect_other_s", self.self_s("core.detect")),
            ("core.rounds", c("bench.rounds")),
            (
                "core.candidates_evaluated",
                c("detect.candidates_evaluated"),
            ),
            (
                "core.embeddings_unextractable",
                c("detect.embedding_unextractable"),
            ),
            ("core.extract_s", self.total_s("core.extract")),
            ("verify.validate_s", self.total_s("verify.validate")),
            ("verify.absint_mem_pairs", c("absint.mem_pairs_examined")),
            ("bench.emu_s", self.total_s("bench.emu")),
        ];
        out.extend(values);
    }
}

impl Tracer for BenchTracer {
    fn count(&self, counter: &'static str, delta: u64) {
        *self.lock().counters.entry(counter).or_insert(0) += delta;
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        *inner.counters.entry(name).or_insert(0) += 1;
        if name != SPAN_EXIT {
            return;
        }
        let field = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        if let (Some(Value::Str(span)), Some(Value::Int(dur_ns))) = (field("name"), field("dur_ns"))
        {
            let span = Span {
                name: span.clone(),
                image: inner.image,
                start_ns: end_ns.saturating_sub(u64::try_from(*dur_ns).unwrap_or(0)),
                end_ns,
                parent: inner.open.last().copied(),
            };
            inner.spans.push(span);
        }
    }

    fn enabled(&self) -> bool {
        true
    }
}

/// What one in-process optimization produced.
pub struct Replayed {
    /// The report, serialized exactly as `gpa optimize --report-json`,
    /// the corpus report and `gpa serve` embed it.
    pub report: String,
    pub image: Image,
    /// Decode through encode, without validation.
    pub optimize_s: f64,
}

/// Runs `f` inside a span when tracing, plainly otherwise.
fn traced<T>(tracer: Option<&BenchTracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Optimizes `input` with Edgar to a fixpoint, one thread, validation
/// off (the release default the product runs with).
pub fn optimize(
    input: &Image,
    alias: AliasLevel,
    tracer: Option<&Arc<BenchTracer>>,
) -> Result<Replayed, String> {
    let t = tracer.map(Arc::as_ref);
    let mut config = RunConfig {
        alias,
        validate: ValidateLevel::Off,
        ..RunConfig::default()
    };
    if let Some(tracer) = tracer {
        tracer.begin_image();
        config.tracer = Arc::clone(tracer) as Arc<dyn Tracer>;
    }
    let start = Instant::now();
    let mut opt = traced(t, "cfg.decode", || Optimizer::from_image(input))
        .map_err(|e| format!("decode: {e}"))?;
    let initial_words = opt.program().instruction_count();
    let mut rounds = Vec::new();
    loop {
        let before = t.map_or(0, |t| t.counter("mine.patterns_visited"));
        let candidate = traced(t, "core.detect", || opt.detect(Method::Edgar, &config));
        if let Some(t) = t {
            let visits = t.counter("mine.patterns_visited") - before;
            t.lock().round_visits.push(visits);
        }
        let Some(candidate) = candidate else { break };
        let fragment_name = traced(t, "core.extract", || {
            opt.apply_candidate_with(&candidate, ValidateLevel::Off, alias)
        })
        .map_err(|e| format!("extract: {e}"))?;
        if let Some(t) = t {
            t.count("bench.rounds", 1);
        }
        rounds.push(Round {
            kind: candidate.kind,
            body_words: candidate.body_words(),
            occurrences: candidate.occurrences.len(),
            saved: candidate.saved,
            fragment_name,
        });
    }
    let image = traced(t, "cfg.encode", || opt.encode()).map_err(|e| format!("encode: {e}"))?;
    let optimize_s = start.elapsed().as_secs_f64();
    if let Some(t) = t {
        // Informational only: some edited inputs already carry findings
        // (an unreachable block, V003) before any rewrite.
        t.span("verify.validate", || {
            gpa::validate::validate_program(opt.program())
        });
    }
    let report = Report {
        initial_words,
        final_words: opt.program().instruction_count(),
        rounds,
    };
    Ok(Replayed {
        report: report.to_json().to_string(),
        image,
        optimize_s,
    })
}

/// What the emulator observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Run {
    pub exit_code: u32,
    pub output: Vec<u8>,
    pub steps: u64,
}

/// Emulates `image` to completion.
pub fn emulate(image: &Image, tracer: Option<&Arc<BenchTracer>>) -> Result<Run, String> {
    traced(tracer.map(Arc::as_ref), "bench.emu", || {
        Machine::new(image).run(MAX_STEPS)
    })
    .map(|o| Run {
        exit_code: o.exit_code,
        output: o.output,
        steps: o.steps,
    })
    .map_err(|e| format!("emulator: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUPLICATED: &str = "
        int a(int *p, int x) { int v = p[0] * 31 + x; p[1] = v * v + 7; return v; }
        int b(int *p, int x) { int v = p[0] * 31 + x; p[1] = v * v + 7; return v + 1; }
        int c(int *p, int x) { int v = p[0] * 31 + x; p[1] = v * v + 7; return v + 2; }
        int buf[4];
        int main() { buf[0] = 5; putint(a(buf, 1) + b(buf, 2) + c(buf, 3) + buf[1]); return 0; }";

    #[test]
    fn traced_and_plain_replays_agree_and_record_layers() {
        let image = gpa_minicc::compile(DUPLICATED, &gpa_minicc::Options::default()).unwrap();
        let plain = optimize(&image, AliasLevel::Off, None).unwrap();
        let tracer = Arc::new(BenchTracer::new());
        let traced = optimize(&image, AliasLevel::Off, Some(&tracer)).unwrap();
        assert_eq!(plain.report, traced.report);
        assert_eq!(plain.image.to_bytes(), traced.image.to_bytes());
        let mut layers = BTreeMap::new();
        tracer.layer_metrics(&mut layers);
        assert!(layers["core.rounds"] >= 1.0);
        assert!(layers["mining.patterns_visited"] > 0.0);
        assert!(layers["core.detect_s"] >= layers["mining.search_s"]);
        assert!(layers["core.detect_other_s"] <= layers["core.detect_s"]);
        let spans = tracer.spans_json("test", 0);
        assert!(spans.contains("\"name\":\"mine\""), "{spans}");
        assert!(spans.contains("\"name\":\"core.detect\""));
        let before = emulate(&image, None).unwrap();
        let after = emulate(&traced.image, None).unwrap();
        assert_eq!(
            (before.exit_code, &before.output),
            (after.exit_code, &after.output)
        );
    }
}
