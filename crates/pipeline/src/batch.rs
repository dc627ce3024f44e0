//! The batch driver: a bounded worker pool with deterministic merge.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpa::{image_cache_key, DfgCache, Method, Optimizer, Report, RunConfig};
use gpa_image::Image;
use gpa_trace::{CounterTracer, JsonlTracer, NoopTracer, Tracer};

use crate::cache::ReportCache;
use crate::lru::CacheBudget;
use crate::report::{CorpusReport, ImageEntry};
use crate::shutdown::ShutdownFlag;

/// Tuning for one batch run.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Worker threads, each optimizing one image at a time; `0` means
    /// [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Detection method for every image.
    pub method: Method,
    /// Per-image optimizer tuning (validation level, round caps, pattern
    /// budget).
    pub run: RunConfig,
    /// Directory for the persistent report-cache layer; `None` keeps the
    /// cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Directory for per-image `gpa-trace/1` JSONL trace files
    /// (`NNNN-<name>.jsonl`, one per input slot); `None` disables
    /// tracing.
    pub trace_dir: Option<PathBuf>,
    /// Cooperative stop token, polled between images: once raised,
    /// in-flight images finish, unstarted ones become `"interrupted"`
    /// errors, and the corpus report carries `"interrupted": true`.
    pub shutdown: ShutdownFlag,
    /// Bound on the in-memory report-cache layer (unbounded by default,
    /// matching historical batch behaviour).
    pub cache_budget: CacheBudget,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            jobs: 0,
            method: Method::Edgar,
            run: RunConfig::default(),
            cache_dir: None,
            trace_dir: None,
            shutdown: ShutdownFlag::new(),
            cache_budget: CacheBudget::unbounded(),
        }
    }
}

/// One unit of batch work.
#[derive(Clone, Debug)]
pub enum BatchInput {
    /// Load the image from this file inside the worker.
    Path(PathBuf),
    /// An already-loaded image under a display name.
    Loaded(String, Image),
}

impl BatchInput {
    /// Wraps an in-memory image (tests, embedded corpora).
    pub fn loaded(name: impl Into<String>, image: Image) -> BatchInput {
        BatchInput::Loaded(name.into(), image)
    }

    /// The display name used in the corpus report.
    pub fn name(&self) -> String {
        match self {
            BatchInput::Path(p) => p.display().to_string(),
            BatchInput::Loaded(name, _) => name.clone(),
        }
    }
}

/// Expands command-line operands into batch inputs: a file stands for
/// itself, a directory for its regular files in byte-wise name order
/// (non-recursive), so a corpus directory enumerates identically on every
/// platform.
///
/// # Errors
///
/// A message for an operand that does not exist or a directory that
/// cannot be read.
pub fn expand_inputs(operands: &[String]) -> Result<Vec<BatchInput>, String> {
    let mut inputs = Vec::new();
    for op in operands {
        let path = Path::new(op);
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("{op}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.is_file())
                .collect();
            entries.sort();
            inputs.extend(entries.into_iter().map(BatchInput::Path));
        } else if path.is_file() {
            inputs.push(BatchInput::Path(path.to_path_buf()));
        } else {
            return Err(format!("{op}: no such file or directory"));
        }
    }
    Ok(inputs)
}

fn effective_jobs(requested: usize, work_items: usize) -> usize {
    let hardware = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    let jobs = if requested == 0 {
        hardware()
    } else {
        requested
    };
    jobs.clamp(1, work_items.max(1))
}

/// Optimizes every input and merges the per-image results in input order.
///
/// Workers pull indices off a shared atomic counter, so the pool is
/// naturally load-balanced; because results land in their input slot, the
/// deterministic section of the returned [`CorpusReport`]
/// ([`CorpusReport::to_json`] with `include_metrics = false`) is
/// byte-identical for any `jobs` value and any cache temperature.
///
/// Per-image failures (unreadable file, undecodable image, failed
/// validation) become [`ImageEntry::outcome`] errors; the run continues.
///
/// When the [`BatchConfig::shutdown`] flag is raised (Ctrl-C, SIGTERM,
/// or programmatically), workers stop claiming new inputs: in-flight
/// images finish normally, every unstarted input becomes an
/// `"interrupted"` error entry, the partial report is marked
/// [`CorpusReport::interrupted`], and stale cache tmp files are swept so
/// the interrupted run leaves the cache directory clean.
///
/// # Errors
///
/// Only a failure to create the `cache_dir` or `trace_dir` aborts the
/// whole batch.
pub fn run_batch(inputs: &[BatchInput], config: &BatchConfig) -> Result<CorpusReport, String> {
    let start = Instant::now();
    let report_cache = match &config.cache_dir {
        Some(dir) => ReportCache::with_dir_budget(dir, config.cache_budget)
            .map_err(|e| format!("cache dir {}: {e}", dir.display()))?,
        None => ReportCache::with_budget(config.cache_budget),
    };
    if let Some(dir) = &config.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("trace dir {}: {e}", dir.display()))?;
    }
    let dfg_cache = DfgCache::new();
    let jobs = effective_jobs(config.jobs, inputs.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ImageEntry>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        if config.shutdown.is_raised() {
            return;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(input) = inputs.get(index) else {
            return;
        };
        let entry = process_one(index, input, config, &report_cache, &dfg_cache);
        *slots[index].lock().expect("result slot poisoned") = Some(entry);
    };
    if jobs <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(worker);
            }
        });
    }
    let interrupted = config.shutdown.is_raised();
    let images = slots
        .into_iter()
        .zip(inputs)
        .map(|(slot, input)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| {
                    // Unclaimed slot: the shutdown flag stopped the pool
                    // before any worker reached this input.
                    ImageEntry {
                        name: input.name(),
                        key: None,
                        outcome: Err("interrupted".into()),
                        image: None,
                        cached: false,
                        counters: gpa_trace::Counters::default(),
                    }
                })
        })
        .collect();
    if interrupted {
        report_cache.sweep_tmp();
    }
    Ok(CorpusReport {
        method: config.method,
        images,
        interrupted,
        jobs,
        wall_ns: gpa_trace::saturating_ns(start.elapsed()),
        report_cache_hits: report_cache.hits(),
        report_cache_misses: report_cache.misses(),
        report_cache_evicted: report_cache.evicted(),
        dfg_cache_hits: dfg_cache.hits(),
        dfg_cache_misses: dfg_cache.misses(),
    })
}

/// Trace file name for input slot `index`: the slot number keeps names
/// unique, the sanitized basename keeps them readable.
fn trace_file_name(index: usize, name: &str) -> String {
    let base = name.rsplit(['/', '\\']).next().unwrap_or(name);
    let stem: String = base
        .chars()
        .take(80)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{index:04}-{stem}.jsonl")
}

fn process_one(
    index: usize,
    input: &BatchInput,
    config: &BatchConfig,
    report_cache: &ReportCache,
    dfg_cache: &DfgCache,
) -> ImageEntry {
    let name = input.name();
    let tracer: Arc<dyn Tracer> = match &config.trace_dir {
        Some(dir) => match JsonlTracer::to_file(&dir.join(trace_file_name(index, &name))) {
            Ok(tracer) => Arc::new(tracer),
            // Keeping the counter totals beats dropping the trace whole.
            Err(_) => Arc::new(CounterTracer::new()),
        },
        None => Arc::new(NoopTracer),
    };
    let (key, outcome, image, cached) =
        optimize_input(input, config, report_cache, dfg_cache, &tracer);
    tracer.finish();
    ImageEntry {
        name,
        key,
        outcome,
        image,
        cached,
        counters: tracer.counters(),
    }
}

/// The optimize-or-fetch body of [`process_one`]: returns the cache key
/// (once the image decoded far enough to have one), the outcome, the
/// optimized image (only from a fresh successful run), and whether the
/// report came from the cache.
fn optimize_input(
    input: &BatchInput,
    config: &BatchConfig,
    report_cache: &ReportCache,
    dfg_cache: &DfgCache,
    tracer: &Arc<dyn Tracer>,
) -> (Option<u128>, Result<Report, String>, Option<Image>, bool) {
    let image = match input {
        BatchInput::Loaded(_, image) => image.clone(),
        BatchInput::Path(path) => {
            let bytes = match std::fs::read(path) {
                Ok(bytes) => bytes,
                Err(e) => return (None, Err(e.to_string()), None, false),
            };
            match Image::from_bytes(&bytes) {
                Ok(image) => image,
                Err(e) => return (None, Err(e.to_string()), None, false),
            }
        }
    };
    let run = RunConfig {
        tracer: Arc::clone(tracer),
        ..config.run.clone()
    };
    let key = image_cache_key(&image, config.method, &run);
    if let Some(report) = report_cache.get_traced(key, tracer.as_ref()) {
        return (Some(key), Ok(report), None, true);
    }
    let mut optimizer = match Optimizer::from_image_configured(&image, &run) {
        Ok(optimizer) => optimizer,
        Err(e) => return (Some(key), Err(e.to_string()), None, false),
    };
    let optimized = optimizer
        .run_instrumented(config.method, &run, Some(dfg_cache))
        .and_then(|report| Ok((report, optimizer.encode()?)));
    match optimized {
        Ok((report, optimized)) => {
            report_cache.put_traced(key, &report, tracer.as_ref());
            (Some(key), Ok(report), Some(optimized), false)
        }
        Err(e) => (Some(key), Err(e.to_string()), None, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_resolution() {
        assert_eq!(effective_jobs(4, 100), 4);
        assert_eq!(effective_jobs(4, 2), 2);
        assert_eq!(effective_jobs(1, 0), 1);
        assert!(effective_jobs(0, 100) >= 1);
    }

    #[test]
    fn missing_operand_is_an_error() {
        assert!(expand_inputs(&["/definitely/not/here".into()]).is_err());
    }

    #[test]
    fn directory_expansion_is_sorted() {
        let dir = std::env::temp_dir().join(format!("gpa-batch-expand-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["b.img", "a.img", "c.img"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let inputs = expand_inputs(&[dir.display().to_string()]).unwrap();
        let names: Vec<String> = inputs.iter().map(BatchInput::name).collect();
        assert_eq!(names.len(), 3);
        assert!(names[0].ends_with("a.img"));
        assert!(names[2].ends_with("c.img"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_image_fails_without_aborting_the_batch() {
        let dir = std::env::temp_dir().join(format!("gpa-batch-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.img");
        std::fs::write(&bad, b"not an image").unwrap();
        let corpus = run_batch(
            &[BatchInput::Path(bad)],
            &BatchConfig {
                jobs: 1,
                ..BatchConfig::default()
            },
        )
        .unwrap();
        assert_eq!(corpus.error_count(), 1);
        assert!(corpus.images[0].key.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
