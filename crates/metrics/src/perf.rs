//! The `gpa perf` harness: corpus runs, the emulator check, the
//! `gpa-bench/1` document and the human markdown views (Table 1,
//! Fig. 11, Fig. 12, stage latency and cache counters).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gpa::json::Json;
use gpa::{AliasLevel, Method, Report, RunConfig, ValidateLevel};
use gpa_emu::{Machine, Outcome};
use gpa_image::Image;
use gpa_minicc::Options;
use gpa_pipeline::{run_batch, BatchConfig, BatchInput};
use gpa_trace::{LogHistogram, SpanNode, SpanTree};

/// Version tag of the benchmark-report JSON schema.
pub const BENCH_SCHEMA: &str = "gpa-bench/1";

/// The stages of the per-stage latency histograms, in pipeline order,
/// each with the span path (root first) whose time it takes from every
/// image's trace. Decode is the root `front` span; the rest nest under
/// `optimize`. Mining covers the whole search, MIS overlap resolution
/// included (its work is counted in `mis.bb_steps` and
/// `mis.components`); SFX has a `mine` span but no DFG build.
pub const STAGES: [(&str, &[&str]); 5] = [
    ("decode", &["front"]),
    ("dfg_build", &["optimize", "round", "detect", "front"]),
    ("mining", &["optimize", "round", "detect", "mine"]),
    ("extraction", &["optimize", "round", "apply"]),
    ("validation", &["optimize", "validate"]),
];

/// Emulator step budget for one run of a kernel, before or after
/// optimization.
const STEP_BUDGET: u64 = 600_000_000;

/// What `gpa perf` runs.
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Detection methods to evaluate, in report order; the first one is
    /// the baseline the per-method deltas are computed against.
    pub methods: Vec<Method>,
    /// Bundled kernel names ([`gpa_minicc::programs::BENCHMARKS`] by
    /// default).
    pub kernels: Vec<String>,
    /// Images optimized side by side per method batch, each on one
    /// thread; `0` means auto-detect. Never affects the deterministic
    /// section.
    pub jobs: usize,
    /// Compile the kernels with the instruction scheduler.
    pub schedule: bool,
    /// Validation level for the optimization runs.
    pub validate: ValidateLevel,
    /// Alias-analysis level for the optimization runs.
    pub alias: AliasLevel,
    /// Keep the hierarchical span profile the per-stage histograms are
    /// read from (the images are traced either way).
    pub profile: bool,
}

impl Default for PerfConfig {
    fn default() -> PerfConfig {
        PerfConfig {
            methods: vec![Method::Sfx, Method::DgSpan, Method::Edgar],
            kernels: gpa_minicc::programs::BENCHMARKS
                .iter()
                .map(|&s| s.to_owned())
                .collect(),
            jobs: 0,
            schedule: true,
            validate: ValidateLevel::Final,
            alias: AliasLevel::default(),
            profile: false,
        }
    }
}

/// One kernel's deterministic compression metrics, with the measured
/// time of each of its optimizations.
#[derive(Clone, Debug)]
pub struct KernelResult {
    /// Kernel name.
    pub name: String,
    /// Instruction words before optimization.
    pub instructions: usize,
    /// Code-section size in words (instructions + literal pools).
    pub code_words: usize,
    /// Data-section size in bytes.
    pub data_bytes: usize,
    /// One report per configured method, in [`PerfConfig::methods`]
    /// order.
    pub results: Vec<(Method, Report)>,
    /// Optimize time per configured method, in the same order: the
    /// image's root `front` and `optimize` spans (measured section).
    pub optimize_ns: Vec<u64>,
}

/// One method's cache-layer counters (measured section only).
#[derive(Clone, Debug)]
pub struct MethodCacheStats {
    /// The detection method.
    pub method: Method,
    /// Report-cache lookups answered from the cache.
    pub report_hits: u64,
    /// Report-cache lookups that fell through to a full run.
    pub report_misses: u64,
    /// Per-function DFG-cache hits across the batch.
    pub dfg_hits: u64,
    /// Per-function DFG-cache misses across the batch.
    pub dfg_misses: u64,
}

/// Per-stage latency histograms of one method's corpus run.
#[derive(Clone, Debug)]
pub struct MethodLatency {
    /// The detection method.
    pub method: Method,
    /// One histogram per [`STAGES`] entry, in that order; each image
    /// contributes one sample per stage (zero when its trace has no
    /// span at that path).
    pub stages: Vec<(&'static str, LogHistogram)>,
}

/// The result of a [`run_perf`] invocation.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Methods evaluated, in report order.
    pub methods: Vec<Method>,
    /// Per-kernel compression metrics (deterministic).
    pub kernels: Vec<KernelResult>,
    /// Worker threads the batches actually used (measured section).
    pub jobs: usize,
    /// End-to-end wall time of the whole harness run.
    pub wall_ns: u64,
    /// Wall time of the emulator check: every input and every
    /// optimized image run to its exit, on `jobs` threads.
    pub emulator_ns: u64,
    /// Per-method per-stage latency distributions.
    pub latency: Vec<MethodLatency>,
    /// Per-method cache hit/miss counters (report and DFG caches).
    pub cache: Vec<MethodCacheStats>,
    /// Aggregated span profile, when [`PerfConfig::profile`] was set;
    /// one top-level node per method.
    pub profile: Option<SpanTree>,
}

/// One kernel optimized by one method: its report, optimize time and
/// optimized image, or why there is none.
type KernelRun = Result<(Report, u64, Image), String>;

/// Runs the corpus across every configured method and aggregates the
/// benchmark report.
///
/// Each method gets one `gpa batch` run over the compiled kernels (the
/// pipeline's worker pool and deterministic merge are reused wholesale),
/// so the deterministic section of the result is byte-identical for any
/// `jobs` setting. Every image is traced into a temporary directory;
/// its spans give the per-stage samples ([`STAGES`]), its optimize time
/// and, with [`PerfConfig::profile`], the span profile. After the
/// batches, every input and every optimized image runs in the emulator
/// on the batches' worker count, and each optimized image must exit and
/// print exactly as its input does.
///
/// # Errors
///
/// A message when a kernel is named twice or fails to compile, a batch
/// aborts, any image fails to optimize, or an optimized image does not
/// behave as its input — the harness has no partial results. Of several
/// failing images the first is named, inputs first and then method by
/// method in kernel order.
pub fn run_perf(config: &PerfConfig) -> Result<PerfReport, String> {
    if config.methods.is_empty() {
        return Err("no methods selected".to_owned());
    }
    if config.kernels.is_empty() {
        return Err("no kernels selected".to_owned());
    }
    for (i, name) in config.kernels.iter().enumerate() {
        if config.kernels[..i].contains(name) {
            return Err(format!("kernel {name} named twice"));
        }
    }
    let opts = Options {
        schedule: config.schedule,
        ..Options::default()
    };
    let mut images = Vec::new();
    for name in &config.kernels {
        let image = gpa_minicc::compile_benchmark(name, &opts)
            .map_err(|e| format!("kernel {name}: {e}"))?;
        images.push((name.clone(), image));
    }
    let start = Instant::now();
    let mut per_method: Vec<Vec<KernelRun>> = Vec::new();
    let mut latency = Vec::new();
    let mut cache = Vec::new();
    let mut profile = config.profile.then(SpanTree::default);
    let mut jobs_used = 1;
    for &method in &config.methods {
        // Unique per run, so concurrent harness runs in one process
        // never share a directory.
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let trace_dir = std::env::temp_dir().join(format!(
            "gpa-perf-trace-{}-{}-{}",
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed),
            method.as_str()
        ));
        let _ = std::fs::remove_dir_all(&trace_dir);
        let batch = BatchConfig {
            jobs: config.jobs,
            method,
            run: RunConfig {
                validate: config.validate,
                alias: config.alias,
                ..RunConfig::default()
            },
            cache_dir: None,
            trace_dir: Some(trace_dir.clone()),
            ..BatchConfig::default()
        };
        let inputs: Vec<BatchInput> = images
            .iter()
            .map(|(name, image)| BatchInput::loaded(name.clone(), image.clone()))
            .collect();
        let corpus = run_batch(&inputs, &batch);
        let traces = crate::profile::spans_per_slot(&trace_dir, inputs.len());
        let _ = std::fs::remove_dir_all(&trace_dir);
        let (corpus, traces) = (corpus?, traces?);
        jobs_used = corpus.jobs;
        let runs = corpus
            .images
            .into_iter()
            .zip(&traces)
            .map(|(entry, trace)| {
                let at = format!("{} [{}]", entry.name, method.as_str());
                let report = entry.outcome.map_err(|e| format!("{at}: {e}"))?;
                let image = entry
                    .image
                    .ok_or_else(|| format!("{at}: no optimized image to check"))?;
                let optimize_ns = trace.total_ns_at(&["front"]) + trace.total_ns_at(&["optimize"]);
                Ok((report, optimize_ns, image))
            })
            .collect();
        let mut stages: Vec<(&'static str, LogHistogram)> = STAGES
            .iter()
            .map(|&(name, _)| (name, LogHistogram::new()))
            .collect();
        let mut spans = SpanTree::default();
        for trace in &traces {
            for ((_, path), (_, hist)) in STAGES.iter().zip(&mut stages) {
                hist.record(trace.total_ns_at(path));
            }
            spans.merge(trace);
        }
        latency.push(MethodLatency { method, stages });
        cache.push(MethodCacheStats {
            method,
            report_hits: corpus.report_cache_hits,
            report_misses: corpus.report_cache_misses,
            dfg_hits: corpus.dfg_cache_hits,
            dfg_misses: corpus.dfg_cache_misses,
        });
        per_method.push(runs);
        if let Some(tree) = &mut profile {
            tree.merge(&under_method_root(method, spans));
        }
    }
    // The emulator check: each input runs once, and every method's
    // output is held to it.
    let check_start = Instant::now();
    let mut to_run: Vec<&Image> = images.iter().map(|(_, image)| image).collect();
    to_run.extend(
        per_method
            .iter()
            .flatten()
            .flatten()
            .map(|(_, _, image)| image),
    );
    let mut outcomes = emulate_all(&to_run, jobs_used).into_iter();
    let emulator_ns = gpa_trace::saturating_ns(check_start.elapsed());
    let behaviour = images
        .iter()
        .zip(outcomes.by_ref())
        .map(|((name, _), outcome)| outcome.map_err(|e| format!("kernel {name}: {e}")))
        .collect::<Result<Vec<Outcome>, String>>()?;
    let mut reports: Vec<Vec<(Report, u64)>> = Vec::new();
    for (&method, runs) in config.methods.iter().zip(per_method) {
        let mut checked = Vec::new();
        for ((name, _), (run, input)) in images.iter().zip(runs.into_iter().zip(&behaviour)) {
            let (report, optimize_ns, _) = run?;
            let output = outcomes.next().expect("one outcome per optimized image");
            check_behaviour(name, method, input, output)?;
            checked.push((report, optimize_ns));
        }
        reports.push(checked);
    }
    let kernels = images
        .iter()
        .enumerate()
        .map(|(i, (name, image))| {
            let results: Vec<(Method, Report)> = config
                .methods
                .iter()
                .zip(&reports)
                .map(|(&method, runs)| (method, runs[i].0.clone()))
                .collect();
            KernelResult {
                name: name.clone(),
                instructions: results[0].1.initial_words,
                code_words: image.code_len(),
                data_bytes: image.data_bytes().len(),
                results,
                optimize_ns: reports.iter().map(|runs| runs[i].1).collect(),
            }
        })
        .collect();
    Ok(PerfReport {
        methods: config.methods.clone(),
        kernels,
        jobs: jobs_used,
        wall_ns: gpa_trace::saturating_ns(start.elapsed()),
        emulator_ns,
        latency,
        cache,
        profile,
    })
}

/// Runs an image in the emulator to its exit.
fn emulate(image: &Image) -> Result<Outcome, String> {
    Machine::new(image)
        .run(STEP_BUDGET)
        .map_err(|e| format!("emulation failed: {e}"))
}

/// [`emulate`]s every image on up to `jobs` scoped threads, which claim
/// images in order off a shared counter; the outcomes come back in image
/// order.
fn emulate_all(images: &[&Image], jobs: usize) -> Vec<Result<Outcome, String>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Outcome, String>>>> =
        images.iter().map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(image) = images.get(index) else {
            return;
        };
        let outcome = emulate(image);
        *slots[index].lock().expect("emulator slot poisoned") = Some(outcome);
    };
    if jobs.min(images.len()) <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(images.len()) {
                scope.spawn(worker);
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("emulator slot poisoned")
                .expect("every image is claimed")
        })
        .collect()
}

/// The emulator check of one optimized image: `output`, the emulation
/// of `kernel` optimized by `method`, must exit and print exactly as the
/// input did (`input`).
///
/// # Errors
///
/// A message naming the kernel and the method when the image does not
/// run to its exit, or its exit code or output differs.
fn check_behaviour(
    kernel: &str,
    method: Method,
    input: &Outcome,
    output: Result<Outcome, String>,
) -> Result<(), String> {
    let at = format!("{kernel} [{}]: the optimized image", method.as_str());
    let output = output.map_err(|e| format!("{at}: {e}"))?;
    if output.exit_code != input.exit_code {
        return Err(format!(
            "{at} exits with {} where its input exits with {}",
            output.exit_code, input.exit_code
        ));
    }
    if output.output != input.output {
        return Err(format!("{at} prints other output than its input"));
    }
    Ok(())
}

/// Grafts one method's merged per-image profile under a single
/// `<method>` root.
fn under_method_root(method: Method, merged: SpanTree) -> SpanTree {
    let mut wrapped = SpanNode {
        count: 0,
        total_ns: 0,
        children: merged.roots,
    };
    for node in wrapped.children.values() {
        wrapped.count += node.count;
        wrapped.total_ns += node.total_ns;
    }
    let mut tree = SpanTree::default();
    tree.roots.insert(method.as_str().to_owned(), wrapped);
    tree
}

/// Basis points of savings: `saved * 10_000 / initial` in pure integer
/// arithmetic (0 for an empty program).
fn savings_bp(saved: i64, initial: usize) -> i64 {
    if initial == 0 {
        0
    } else {
        saved * 10_000 / initial as i64
    }
}

/// Integer hit percentage of a cache layer (0 when it saw no traffic).
fn hit_pct(hits: u64, misses: u64) -> u64 {
    (hits * 100).checked_div(hits + misses).unwrap_or(0)
}

/// The `{"hits":..,"misses":..,"hit_rate_pct":..}` object of one cache
/// layer in the measured section.
fn cache_layer_json(hits: u64, misses: u64) -> Json {
    Json::obj([
        ("hits", Json::from(hits)),
        ("misses", Json::from(misses)),
        ("hit_rate_pct", Json::from(hit_pct(hits, misses))),
    ])
}

/// `12.34%` rendering of basis points.
fn fmt_bp(bp: i64) -> String {
    let sign = if bp < 0 { "-" } else { "" };
    let a = bp.abs();
    format!("{sign}{}.{:02}%", a / 100, a % 100)
}

impl PerfReport {
    /// Serializes the `gpa-bench/1` document.
    ///
    /// With `include_measured = false` the result is the *deterministic
    /// section only* — per-kernel, per-method compression metrics plus
    /// totals, a pure function of the kernel sources, the compiler and
    /// the optimizer. `include_measured = true` appends the trailing
    /// `"measured"` object (jobs, wall time, the emulator check's time,
    /// per-stage latency histograms/percentiles, cache counters and each
    /// image's optimize time), which varies run to run.
    pub fn to_json(&self, include_measured: bool) -> Json {
        let kernels: Vec<Json> = self
            .kernels
            .iter()
            .map(|k| {
                let base_saved = k.results[0].1.saved_words();
                let results: Vec<Json> = k
                    .results
                    .iter()
                    .map(|(method, report)| {
                        let saved = report.saved_words();
                        Json::obj([
                            ("method", Json::from(method.as_str())),
                            ("final_words", Json::from(report.final_words)),
                            ("saved_words", Json::from(saved)),
                            (
                                "savings_bp",
                                Json::from(savings_bp(saved, report.initial_words)),
                            ),
                            ("fragments", Json::from(report.rounds.len())),
                            ("procedures", Json::from(report.procedure_count())),
                            ("cross_jumps", Json::from(report.cross_jump_count())),
                            ("rounds", Json::from(report.rounds.len())),
                            ("delta_saved_words", Json::from(saved - base_saved)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("name", Json::from(k.name.as_str())),
                    ("instructions", Json::from(k.instructions)),
                    ("code_words", Json::from(k.code_words)),
                    ("data_bytes", Json::from(k.data_bytes)),
                    ("results", Json::Arr(results)),
                ])
            })
            .collect();
        let totals: Vec<Json> = self
            .methods
            .iter()
            .enumerate()
            .map(|(mi, method)| {
                let (mut initial, mut fin, mut saved, mut fragments) = (0usize, 0usize, 0i64, 0);
                for k in &self.kernels {
                    let report = &k.results[mi].1;
                    initial += report.initial_words;
                    fin += report.final_words;
                    saved += report.saved_words();
                    fragments += report.rounds.len();
                }
                Json::obj([
                    ("method", Json::from(method.as_str())),
                    ("initial_words", Json::from(initial)),
                    ("final_words", Json::from(fin)),
                    ("saved_words", Json::from(saved)),
                    ("savings_bp", Json::from(savings_bp(saved, initial))),
                    ("fragments", Json::from(fragments)),
                ])
            })
            .collect();
        let mut doc = vec![
            ("schema".to_owned(), Json::from(BENCH_SCHEMA)),
            (
                "methods".to_owned(),
                Json::Arr(
                    self.methods
                        .iter()
                        .map(|m| Json::from(m.as_str()))
                        .collect(),
                ),
            ),
            ("kernels".to_owned(), Json::Arr(kernels)),
            ("totals".to_owned(), Json::Arr(totals)),
        ];
        if include_measured {
            let latency: Vec<Json> = self
                .latency
                .iter()
                .map(|m| {
                    let stages: Vec<Json> = m
                        .stages
                        .iter()
                        .map(|(stage, hist)| {
                            let buckets: Vec<Json> = hist
                                .buckets()
                                .map(|(low, n)| Json::Arr(vec![Json::from(low), Json::from(n)]))
                                .collect();
                            Json::obj([
                                ("stage", Json::from(*stage)),
                                ("count", Json::from(hist.count())),
                                ("sum_ns", Json::from(hist.sum_ns())),
                                ("min_ns", Json::from(hist.min_ns())),
                                ("max_ns", Json::from(hist.max_ns())),
                                ("p50_ns", Json::from(hist.percentile(50))),
                                ("p90_ns", Json::from(hist.percentile(90))),
                                ("p99_ns", Json::from(hist.percentile(99))),
                                ("buckets", Json::Arr(buckets)),
                            ])
                        })
                        .collect();
                    Json::obj([
                        ("method", Json::from(m.method.as_str())),
                        ("stages", Json::Arr(stages)),
                    ])
                })
                .collect();
            let cache: Vec<Json> = self
                .cache
                .iter()
                .map(|c| {
                    Json::obj([
                        ("method", Json::from(c.method.as_str())),
                        ("report", cache_layer_json(c.report_hits, c.report_misses)),
                        ("dfg", cache_layer_json(c.dfg_hits, c.dfg_misses)),
                    ])
                })
                .collect();
            let mut images = Vec::new();
            for k in &self.kernels {
                for (method, &ns) in self.methods.iter().zip(&k.optimize_ns) {
                    let (kernel, method) = (k.name.as_str(), method.as_str());
                    images.push(Json::obj([
                        ("kernel", Json::from(kernel)),
                        ("method", Json::from(method)),
                        ("optimize_ns", Json::from(ns)),
                    ]));
                }
            }
            doc.push((
                "measured".to_owned(),
                Json::obj([
                    ("jobs", Json::from(self.jobs)),
                    ("wall_ns", Json::from(self.wall_ns)),
                    ("emulator_ns", Json::from(self.emulator_ns)),
                    ("latency", Json::Arr(latency)),
                    ("cache", Json::Arr(cache)),
                    ("images", Json::Arr(images)),
                ]),
            ));
        }
        Json::Obj(doc)
    }

    /// Renders the human-facing markdown: Table 1 (saved words and
    /// optimize times, with each method's factor over the first), the
    /// emulator check's line, Fig. 11 (each method's relative increase
    /// over the first, when there is more than one), Fig. 12 (procedure
    /// calls and cross jumps), then the measured stage latencies and
    /// cache counters.
    pub fn markdown(&self) -> String {
        let (methods, base) = (&self.methods, self.methods[0]);
        let mut header = vec!["program".to_owned(), "insns".to_owned()];
        for m in methods {
            header.extend([format!("{m} saved"), format!("{m} %"), format!("{m} frags")]);
        }
        header.extend(methods.iter().map(|m| format!("t({m})")));
        // Per method: saved words, fragments, optimize time.
        let mut totals = vec![(0i64, 0usize, 0u64); methods.len()];
        let mut rows = Vec::new();
        for k in &self.kernels {
            let mut row = vec![k.name.clone(), k.instructions.to_string()];
            for (((_, report), &ns), total) in k.results.iter().zip(&k.optimize_ns).zip(&mut totals)
            {
                let (saved, fragments) = (report.saved_words(), report.rounds.len());
                let bp = savings_bp(saved, report.initial_words);
                row.extend([saved.to_string(), fmt_bp(bp), fragments.to_string()]);
                *total = (total.0 + saved, total.1 + fragments, total.2 + ns);
            }
            row.extend(k.optimize_ns.iter().map(|&ns| fmt_secs(ns)));
            rows.push(row);
        }
        let initial: usize = self.kernels.iter().map(|k| k.instructions).sum();
        let mut row = vec!["**total**".to_owned(), initial.to_string()];
        for &(saved, fragments, _) in &totals {
            let bp = savings_bp(saved, initial);
            row.extend([format!("**{saved}**"), fmt_bp(bp), fragments.to_string()]);
        }
        row.extend(totals.iter().map(|total| fmt_secs(total.2)));
        rows.push(row);
        let mut out = String::from("## Table 1: saved instructions\n\n");
        push_table(&mut out, 1, &header, &rows);
        out.push('\n');
        for (m, total) in methods.iter().zip(&totals).skip(1) {
            if totals[0].0 > 0 {
                let factor = total.0 as f64 / totals[0].0 as f64;
                out.push_str(&format!("- {m}/{base}: {factor:.2}x saved words\n"));
            }
        }
        out.push_str(&format!(
            "- All {} optimized images exit and print as their inputs do \
             (emulator check: {}).\n",
            self.kernels.len() * methods.len(),
            fmt_secs(self.emulator_ns)
        ));
        if methods.len() > 1 {
            let mut header = vec!["program".to_owned()];
            header.extend(methods[1..].iter().map(ToString::to_string));
            let mut sums = vec![0.0; methods.len() - 1];
            let mut rows = Vec::new();
            for k in &self.kernels {
                let mut row = vec![k.name.clone()];
                for ((_, report), sum) in k.results[1..].iter().zip(&mut sums) {
                    let increase = report.relative_increase_vs(&k.results[0].1);
                    *sum += increase;
                    row.push(fmt_pct(increase));
                }
                rows.push(row);
            }
            let mut row = vec!["**average**".to_owned()];
            row.extend(
                sums.iter()
                    .map(|sum| fmt_pct(sum / self.kernels.len() as f64)),
            );
            rows.push(row);
            out.push_str(&format!(
                "\n## Fig. 11: relative increase of saved words vs {base}\n\n"
            ));
            push_table(&mut out, 1, &header, &rows);
        }
        let mut header = vec!["program".to_owned()];
        for m in methods {
            header.extend([format!("{m} procedures"), format!("{m} cross jumps")]);
        }
        let mut totals = vec![(0, 0); methods.len()];
        let mut rows = Vec::new();
        for k in &self.kernels {
            let mut row = vec![k.name.clone()];
            for ((_, report), total) in k.results.iter().zip(&mut totals) {
                let counts = (report.procedure_count(), report.cross_jump_count());
                *total = (total.0 + counts.0, total.1 + counts.1);
                row.extend([counts.0.to_string(), counts.1.to_string()]);
            }
            rows.push(row);
        }
        let mut row = vec!["**total**".to_owned()];
        for (procedures, cross_jumps) in totals {
            row.extend([format!("**{procedures}**"), format!("**{cross_jumps}**")]);
        }
        rows.push(row);
        out.push_str("\n## Fig. 12: extraction mechanisms\n\n");
        push_table(&mut out, 1, &header, &rows);
        let header = [
            "method", "stage", "samples", "p50", "p90", "p99", "max", "total",
        ];
        let mut rows = Vec::new();
        for m in &self.latency {
            for (stage, hist) in m.stages.iter().filter(|(_, hist)| hist.count() > 0) {
                let mut row = vec![m.method.as_str().to_owned(), (*stage).to_owned()];
                row.push(hist.count().to_string());
                for p in [50, 90, 99] {
                    row.push(fmt_us(hist.percentile(p)));
                }
                row.extend([fmt_us(hist.max_ns()), fmt_us(hist.sum_ns())]);
                rows.push(row);
            }
        }
        out.push_str("\n## Latency (measured)\n\n");
        push_table(&mut out, 2, &header.map(str::to_owned), &rows);
        if !self.cache.is_empty() {
            let mut rows = Vec::new();
            for c in &self.cache {
                let layers = [
                    ("report", c.report_hits, c.report_misses),
                    ("dfg", c.dfg_hits, c.dfg_misses),
                ];
                for (layer, hits, misses) in layers {
                    let rate = format!("{}%", hit_pct(hits, misses));
                    let row = [
                        c.method.as_str(),
                        layer,
                        &hits.to_string(),
                        &misses.to_string(),
                        &rate,
                    ];
                    rows.push(row.map(str::to_owned).to_vec());
                }
            }
            let header = ["method", "layer", "hits", "misses", "hit rate"];
            out.push_str("\n## Cache (measured)\n\n");
            push_table(&mut out, 2, &header.map(str::to_owned), &rows);
        }
        out
    }
}

/// Appends a markdown table whose first `left` columns are left-aligned
/// and the rest right-aligned.
fn push_table(out: &mut String, left: usize, header: &[String], rows: &[Vec<String>]) {
    let align = "---|".repeat(left) + &"---:|".repeat(header.len() - left);
    out.push_str(&format!("| {} |\n|{align}\n", header.join(" | ")));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
}

/// Microsecond rendering with one decimal, for the latency table.
fn fmt_us(ns: u64) -> String {
    format!("{}.{}us", ns / 1_000, (ns % 1_000) / 100)
}

/// Seconds with two decimals, for Table 1's time columns.
fn fmt_secs(ns: u64) -> String {
    format!("{:.2}s", ns as f64 / 1e9)
}

/// Signed percent with one decimal, for Fig. 11 (`n/a` where the
/// baseline saved nothing).
fn fmt_pct(pct: f64) -> String {
    if pct.is_finite() {
        format!("{pct:+.1}%")
    } else {
        "n/a".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_bp_is_integer_exact() {
        assert_eq!(savings_bp(25, 1000), 250); // 2.5%
        assert_eq!(savings_bp(0, 1000), 0);
        assert_eq!(savings_bp(-10, 100), -1000);
        assert_eq!(savings_bp(5, 0), 0);
    }

    #[test]
    fn hit_pct_is_integer_and_zero_on_no_traffic() {
        assert_eq!(hit_pct(0, 0), 0);
        assert_eq!(hit_pct(3, 1), 75);
        assert_eq!(hit_pct(1, 2), 33);
        let layer = cache_layer_json(3, 1);
        assert_eq!(layer.get("hit_rate_pct").unwrap().to_string(), "75");
    }

    #[test]
    fn bp_formatting() {
        assert_eq!(fmt_bp(250), "2.50%");
        assert_eq!(fmt_bp(9), "0.09%");
        assert_eq!(fmt_bp(-1234), "-12.34%");
        assert_eq!(fmt_bp(0), "0.00%");
    }

    #[test]
    fn empty_configs_are_rejected() {
        let no_methods = PerfConfig {
            methods: vec![],
            ..PerfConfig::default()
        };
        assert!(run_perf(&no_methods).is_err());
        let no_kernels = PerfConfig {
            kernels: vec![],
            ..PerfConfig::default()
        };
        assert!(run_perf(&no_kernels).is_err());
        let bad_kernel = PerfConfig {
            kernels: vec!["no-such-kernel".into()],
            ..PerfConfig::default()
        };
        assert!(run_perf(&bad_kernel).is_err());
        let twice = PerfConfig {
            kernels: vec!["crc".into(), "crc".into()],
            ..PerfConfig::default()
        };
        let err = run_perf(&twice).unwrap_err();
        assert!(err.contains("crc"), "{err}");
    }

    #[test]
    fn emulator_check_names_the_kernel_and_the_method() {
        let compile = |name| gpa_minicc::compile_benchmark(name, &Options::default()).unwrap();
        let (crc, search) = (compile("crc"), compile("search"));
        let crc_input = emulate(&crc).unwrap();
        assert_eq!(
            check_behaviour("crc", Method::Edgar, &crc_input, emulate(&crc)),
            Ok(())
        );
        let err = check_behaviour("crc", Method::DgSpan, &crc_input, emulate(&search)).unwrap_err();
        assert!(err.starts_with("crc [dgspan]: "), "{err}");
        let other_exit = Outcome {
            exit_code: crc_input.exit_code + 1,
            ..crc_input
        };
        let err = check_behaviour("crc", Method::Sfx, &other_exit, emulate(&crc)).unwrap_err();
        assert!(
            err.starts_with("crc [sfx]: ") && err.contains("exits"),
            "{err}"
        );
    }
}
