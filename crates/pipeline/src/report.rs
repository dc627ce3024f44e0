//! The corpus report: what a batch run produced and what it cost.

use gpa::json::Json;
use gpa::{Method, Report};
use gpa_trace::Counters;

/// Version tag of the corpus-report JSON schema.
pub const CORPUS_SCHEMA: &str = "gpa-corpus/1";

/// One input's result in a batch run.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageEntry {
    /// Display name (the input path, or the caller-chosen name).
    pub name: String,
    /// The image's [`gpa::image_cache_key`]; `None` when the image could
    /// not even be loaded.
    pub key: Option<u128>,
    /// The optimization report, or the failure message.
    pub outcome: Result<Report, String>,
    /// Whether the report came out of the artifact cache.
    pub cached: bool,
    /// Aggregated trace counters for this entry (empty when the batch
    /// ran without a trace dir).
    pub counters: Counters,
}

/// The result of [`crate::run_batch`] over a corpus.
#[derive(Debug)]
pub struct CorpusReport {
    /// Detection method the whole batch ran with.
    pub method: Method,
    /// Per-input results, in input order.
    pub images: Vec<ImageEntry>,
    /// Whether the run was cut short by a shutdown request; unprocessed
    /// inputs carry `"interrupted"` error outcomes and the document
    /// gains an `"interrupted": true` marker.
    pub interrupted: bool,
    /// Worker threads the pool actually used.
    pub jobs: usize,
    /// End-to-end wall time of the batch run.
    pub wall_ns: u64,
    /// [`crate::ReportCache`] lookups answered from the cache.
    pub report_cache_hits: u64,
    /// [`crate::ReportCache`] lookups that ran the optimizer.
    pub report_cache_misses: u64,
    /// [`crate::ReportCache`] memory-layer entries evicted under a
    /// bounded [`crate::CacheBudget`] (always 0 for the default
    /// unbounded budget).
    pub report_cache_evicted: u64,
    /// Shared [`gpa::DfgCache`] hits across all workers.
    pub dfg_cache_hits: u64,
    /// Shared [`gpa::DfgCache`] misses across all workers.
    pub dfg_cache_misses: u64,
}

impl CorpusReport {
    /// Number of inputs that failed (load, decode, optimize or validate).
    pub fn error_count(&self) -> usize {
        self.images.iter().filter(|e| e.outcome.is_err()).count()
    }

    /// The successful entries with their reports, in input order — the
    /// iteration surface the metrics harness (`gpa perf`) consumes.
    pub fn successful(&self) -> impl Iterator<Item = (&ImageEntry, &Report)> {
        self.images
            .iter()
            .filter_map(|e| e.outcome.as_ref().ok().map(|r| (e, r)))
    }

    /// Corpus-wide words saved, over the successful inputs.
    pub fn total_saved_words(&self) -> i64 {
        self.images
            .iter()
            .filter_map(|e| e.outcome.as_ref().ok())
            .map(Report::saved_words)
            .sum()
    }

    /// Trace counters summed over every entry (empty when the batch ran
    /// untraced).
    pub fn total_counters(&self) -> Counters {
        let mut total = Counters::default();
        for e in &self.images {
            total.merge(&e.counters);
        }
        total
    }

    /// Serializes the corpus report.
    ///
    /// The base document is *deterministic*: it depends only on the
    /// inputs, the method and the [`gpa::RunConfig`] — not on worker
    /// count, scheduling, machine speed or cache temperature. With
    /// `include_metrics` a trailing `"metrics"` object adds the
    /// non-deterministic measurements (wall times, cache counters, the
    /// per-image `cached` flags and the worker count).
    pub fn to_json(&self, include_metrics: bool) -> Json {
        let images: Vec<Json> = self
            .images
            .iter()
            .map(|e| {
                let mut pairs = vec![("name".to_owned(), Json::from(e.name.as_str()))];
                if let Some(key) = e.key {
                    pairs.push(("key".to_owned(), Json::from(format!("{key:032x}"))));
                }
                match &e.outcome {
                    Ok(report) => pairs.push(("report".to_owned(), report.to_json())),
                    Err(message) => {
                        pairs.push(("error".to_owned(), Json::from(message.as_str())));
                    }
                }
                Json::Obj(pairs)
            })
            .collect();
        let (initial, fin): (usize, usize) = self
            .images
            .iter()
            .filter_map(|e| e.outcome.as_ref().ok())
            .fold((0, 0), |(i, f), r| (i + r.initial_words, f + r.final_words));
        let mut doc = vec![
            ("schema".to_owned(), Json::from(CORPUS_SCHEMA)),
            ("method".to_owned(), Json::from(self.method.as_str())),
            ("images".to_owned(), Json::Arr(images)),
            ("total_initial_words".to_owned(), Json::from(initial)),
            ("total_final_words".to_owned(), Json::from(fin)),
            (
                "total_saved_words".to_owned(),
                Json::from(self.total_saved_words()),
            ),
            ("errors".to_owned(), Json::from(self.error_count())),
        ];
        if self.interrupted {
            // Deliberately part of the deterministic section: a partial
            // report must never pass for a complete one, whatever the
            // worker count or cache temperature was.
            doc.push(("interrupted".to_owned(), Json::from(true)));
        }
        if include_metrics {
            let per_image: Vec<Json> = self
                .images
                .iter()
                .map(|e| {
                    let mut pairs = vec![
                        ("name".to_owned(), Json::from(e.name.as_str())),
                        ("cached".to_owned(), Json::from(e.cached)),
                    ];
                    if !e.counters.is_empty() {
                        pairs.push(("counters".to_owned(), counters_json(&e.counters)));
                    }
                    Json::Obj(pairs)
                })
                .collect();
            let metrics = Json::obj([
                ("jobs", Json::from(self.jobs)),
                ("wall_ns", Json::from(self.wall_ns)),
                (
                    "report_cache",
                    Json::obj([
                        ("hits", Json::from(self.report_cache_hits)),
                        ("misses", Json::from(self.report_cache_misses)),
                        ("evicted", Json::from(self.report_cache_evicted)),
                    ]),
                ),
                (
                    "dfg_cache",
                    Json::obj([
                        ("hits", Json::from(self.dfg_cache_hits)),
                        ("misses", Json::from(self.dfg_cache_misses)),
                    ]),
                ),
                ("trace", counters_json(&self.total_counters())),
                ("images", Json::Arr(per_image)),
            ]);
            doc.push(("metrics".to_owned(), metrics));
        }
        Json::Obj(doc)
    }
}

/// Serializes aggregated trace counters as a flat name → total object.
fn counters_json(counters: &Counters) -> Json {
    Json::Obj(
        counters
            .0
            .iter()
            .map(|(name, total)| (name.clone(), Json::from(*total)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> CorpusReport {
        CorpusReport {
            method: Method::Edgar,
            images: vec![
                ImageEntry {
                    name: "a.img".into(),
                    key: Some(3),
                    outcome: Ok(Report {
                        initial_words: 10,
                        final_words: 8,
                        rounds: vec![],
                    }),
                    cached: true,
                    counters: Counters(
                        [("mine.patterns_visited".to_owned(), 7u64)]
                            .into_iter()
                            .collect(),
                    ),
                },
                ImageEntry {
                    name: "b.img".into(),
                    key: None,
                    outcome: Err("boom".into()),
                    cached: false,
                    counters: Counters::default(),
                },
            ],
            interrupted: false,
            jobs: 4,
            wall_ns: 123,
            report_cache_hits: 1,
            report_cache_misses: 1,
            report_cache_evicted: 0,
            dfg_cache_hits: 0,
            dfg_cache_misses: 0,
        }
    }

    #[test]
    fn totals_and_errors() {
        let c = corpus();
        assert_eq!(c.total_saved_words(), 2);
        assert_eq!(c.error_count(), 1);
        assert_eq!(c.total_counters().get("mine.patterns_visited"), 7);
    }

    #[test]
    fn deterministic_section_excludes_metrics() {
        let c = corpus();
        let bare = c.to_json(false);
        assert!(bare.get("metrics").is_none());
        assert_eq!(
            bare.get("schema").and_then(Json::as_str),
            Some(CORPUS_SCHEMA)
        );
        assert_eq!(bare.get("errors").and_then(Json::as_int), Some(1));
        // `cached` and trace counters must not leak into the
        // deterministic section.
        assert!(!bare.to_string().contains("cached"));
        assert!(!bare.to_string().contains("patterns_visited"));
        let full = c.to_json(true);
        let metrics = full.get("metrics").expect("metrics present");
        assert_eq!(metrics.get("jobs").and_then(Json::as_int), Some(4));
        let trace = metrics.get("trace").expect("aggregated trace counters");
        assert_eq!(
            trace.get("mine.patterns_visited").and_then(Json::as_int),
            Some(7)
        );
        // The document round-trips through the parser.
        assert_eq!(Json::parse(&full.to_string()).unwrap(), full);
    }

    #[test]
    fn interrupted_marker_only_appears_on_partial_runs() {
        let complete = corpus();
        assert!(complete.to_json(false).get("interrupted").is_none());
        let mut partial = corpus();
        partial.interrupted = true;
        assert_eq!(
            partial
                .to_json(false)
                .get("interrupted")
                .and_then(Json::as_bool),
            Some(true)
        );
    }
}
