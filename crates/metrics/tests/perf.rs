//! End-to-end checks of the `gpa perf` harness: the acceptance criteria
//! from the issue (deterministic section byte-identical across runs and
//! `--jobs` settings; an injected compression regression trips the gate).

use gpa::json::Json;
use gpa::{Method, ValidateLevel};
use gpa_metrics::{compare, run_perf, PerfConfig, STAGES};

/// A small two-kernel, two-method configuration that keeps the test fast.
fn small_config(jobs: usize) -> PerfConfig {
    PerfConfig {
        methods: vec![Method::Sfx, Method::DgSpan],
        kernels: vec!["crc".into(), "sha".into()],
        jobs,
        validate: ValidateLevel::Off,
        ..PerfConfig::default()
    }
}

#[test]
fn deterministic_section_is_byte_identical_across_jobs_and_runs() {
    let serial = run_perf(&small_config(1)).unwrap();
    let parallel = run_perf(&small_config(4)).unwrap();
    let repeat = run_perf(&small_config(1)).unwrap();
    let expected = serial.to_json(false).to_string();
    assert_eq!(expected, parallel.to_json(false).to_string());
    assert_eq!(expected, repeat.to_json(false).to_string());
    // The measured section is extra — the deterministic prefix of the
    // full document is the same string.
    let full = serial.to_json(true).to_string();
    assert!(full.contains("\"measured\":"));
    assert!(!expected.contains("\"measured\":"));
}

#[test]
fn bench_document_round_trips_and_has_paper_shape() {
    let report = run_perf(&small_config(2)).unwrap();
    let doc = report.to_json(true);
    // Round-trips through the hand-rolled parser (parse ∘ to_string = id).
    assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(gpa_metrics::BENCH_SCHEMA)
    );
    let kernels = doc.get("kernels").and_then(Json::as_arr).unwrap();
    assert_eq!(kernels.len(), 2);
    for kernel in kernels {
        let results = kernel.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        // The first method is its own baseline for the per-method delta.
        assert_eq!(
            results[0].get("delta_saved_words").and_then(Json::as_int),
            Some(0)
        );
        for r in results {
            assert!(r.get("savings_bp").and_then(Json::as_int).is_some());
        }
    }
    // Latency: one histogram per stage per method, with count == kernels.
    let latency = doc
        .get("measured")
        .and_then(|m| m.get("latency"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(latency.len(), 2);
    for method in latency {
        let stages = method.get("stages").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = stages
            .iter()
            .filter_map(|s| s.get("stage").and_then(Json::as_str))
            .collect();
        assert_eq!(names, STAGES.map(|(name, _)| name));
        for stage in stages {
            assert_eq!(stage.get("count").and_then(Json::as_int), Some(2));
            let p50 = stage.get("p50_ns").and_then(Json::as_int).unwrap();
            let p99 = stage.get("p99_ns").and_then(Json::as_int).unwrap();
            assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        }
    }
    // The markdown view carries the same story.
    let md = report.markdown();
    assert!(md.contains("| crc |"), "{md}");
    assert!(md.contains("**total**"), "{md}");
    assert!(md.contains("| sfx | mining |"), "{md}");
}

/// The per-stage samples come from each image's spans: every stage gets
/// one sample per kernel, and the search is timed for the suffix-trie
/// baseline as well as for the graph miner.
#[test]
fn stage_samples_come_from_every_images_spans() {
    let config = PerfConfig {
        methods: vec![Method::Sfx, Method::Edgar],
        kernels: vec!["crc".into(), "bitcnts".into()],
        jobs: 2,
        validate: ValidateLevel::Final,
        ..PerfConfig::default()
    };
    let report = run_perf(&config).unwrap();
    assert!(
        report.profile.is_none(),
        "the profile is kept only on request"
    );
    for latency in &report.latency {
        let method = latency.method;
        assert_eq!(latency.stages.len(), STAGES.len());
        for (stage, hist) in &latency.stages {
            assert_eq!(hist.count(), 2, "{method}/{stage}: one sample per kernel");
            let positive = hist.min_ns() > 0;
            match *stage {
                "dfg_build" => assert_eq!(positive, method == Method::Edgar, "{method}/{stage}"),
                _ => assert!(positive, "{method}/{stage}: every kernel spends time here"),
            }
        }
    }
}

/// Adds `delta` to every `saved_words` field, anywhere in the document.
fn inflate_saved_words(doc: &mut Json, delta: i64) {
    match doc {
        Json::Obj(pairs) => {
            for (key, value) in pairs.iter_mut() {
                if key == "saved_words" {
                    if let Json::Int(v) = value {
                        *v += delta;
                    }
                } else {
                    inflate_saved_words(value, delta);
                }
            }
        }
        Json::Arr(items) => {
            for item in items.iter_mut() {
                inflate_saved_words(item, delta);
            }
        }
        _ => {}
    }
}

#[test]
fn injected_compression_regression_trips_the_gate() {
    let config = PerfConfig {
        methods: vec![Method::Sfx],
        kernels: vec!["crc".into()],
        jobs: 1,
        validate: ValidateLevel::Off,
        ..PerfConfig::default()
    };
    let current = run_perf(&config).unwrap().to_json(true);
    // Against itself: clean.
    let cmp = compare(&current, &current, 10).unwrap();
    assert!(!cmp.is_regression(), "{:?}", cmp.hard);
    // Against a baseline that claims more savings: hard regression.
    let mut inflated = current.clone();
    inflate_saved_words(&mut inflated, 5);
    let cmp = compare(&current, &inflated, 10).unwrap();
    assert!(cmp.is_regression());
    assert!(
        cmp.hard[0].contains("saved_words regressed"),
        "{:?}",
        cmp.hard
    );
}

#[test]
fn profile_mode_collects_a_span_tree() {
    let config = PerfConfig {
        methods: vec![Method::Sfx],
        kernels: vec!["crc".into()],
        jobs: 1,
        validate: ValidateLevel::Off,
        profile: true,
        ..PerfConfig::default()
    };
    let report = run_perf(&config).unwrap();
    let tree = report.profile.expect("profile requested");
    let sfx = tree.roots.get("sfx").expect("method root");
    let optimize = sfx.children.get("optimize").expect("optimize span");
    assert_eq!(optimize.count, 1, "one image, one optimize span");
    assert!(optimize.children.contains_key("round"));
    let rendered = tree.render();
    assert!(rendered.contains("optimize"), "{rendered}");
}

/// Tables 2 and 3 are views of the run: the kernel entry carries the
/// degree statistics of its input's DFGs under the keys `gpa stats
/// --json` uses, and the markdown renders them.
#[test]
fn kernel_entries_carry_the_inputs_degree_statistics() {
    use gpa_dfg::{build_all, stats::degree_stats};
    let config = PerfConfig {
        methods: vec![Method::Sfx],
        kernels: vec!["crc".into()],
        jobs: 1,
        validate: ValidateLevel::Off,
        ..PerfConfig::default()
    };
    let report = run_perf(&config).unwrap();
    let options = gpa_minicc::Options {
        schedule: config.schedule,
        ..gpa_minicc::Options::default()
    };
    let image = gpa_minicc::compile_benchmark("crc", &options).unwrap();
    let program = gpa_cfg::decode_image(&image).unwrap();
    let stats = degree_stats(&build_all(&program));
    let doc = report.to_json(false);
    let kernel = &doc.get("kernels").and_then(Json::as_arr).unwrap()[0];
    let hist = |key| -> Vec<usize> {
        let values = kernel.get(key).and_then(Json::as_arr).unwrap();
        values
            .iter()
            .map(|v| v.as_int().unwrap() as usize)
            .collect()
    };
    assert_eq!(
        kernel.get("high_degree_nodes").and_then(Json::as_int),
        Some(stats.high_degree as i64)
    );
    assert_eq!(hist("in_degree_hist"), stats.in_hist);
    assert_eq!(hist("out_degree_hist"), stats.out_hist);
    let md = report.markdown();
    let row = format!("| crc | {} | {} |", stats.high_degree, stats.low_degree);
    assert!(md.contains("\n## Table 2") && md.contains(&row), "{md}");
    let [d0, d1, d2, d3, d4] = stats.out_hist;
    let row = format!("| crc | out | {d0} | {d1} | {d2} | {d3} | {d4} |");
    assert!(md.contains("\n## Table 3") && md.contains(&row), "{md}");
}

/// Each result's `work` block holds its image's final trace counters:
/// those a traced optimization of the same input counts.
#[test]
fn result_entries_carry_their_images_work_counters() {
    use gpa_metrics::WORK_COUNTERS;
    use gpa_trace::{CounterTracer, Tracer};
    use std::sync::Arc;
    let config = PerfConfig {
        methods: vec![Method::Edgar],
        kernels: vec!["crc".into()],
        jobs: 1,
        validate: ValidateLevel::Off,
        ..PerfConfig::default()
    };
    let doc = run_perf(&config).unwrap().to_json(false);
    let options = gpa_minicc::Options {
        schedule: config.schedule,
        ..gpa_minicc::Options::default()
    };
    let image = gpa_minicc::compile_benchmark("crc", &options).unwrap();
    let tracer = Arc::new(CounterTracer::new());
    let run = gpa::RunConfig {
        validate: ValidateLevel::Off,
        alias: config.alias,
        tracer: tracer.clone(),
        ..gpa::RunConfig::default()
    };
    gpa::Optimizer::from_image(&image)
        .unwrap()
        .run_with(Method::Edgar, &run)
        .unwrap();
    let counters = tracer.counters();
    let kernel = &doc.get("kernels").and_then(Json::as_arr).unwrap()[0];
    let result = &kernel.get("results").and_then(Json::as_arr).unwrap()[0];
    let work = result.get("work").expect("a work block");
    let names: Vec<&str> = match work {
        Json::Obj(pairs) => pairs.iter().map(|(name, _)| name.as_str()).collect(),
        other => panic!("work is {other}"),
    };
    assert_eq!(names, WORK_COUNTERS);
    for name in WORK_COUNTERS {
        let count = counters.get(name) as i64;
        assert_eq!(work.get(name).and_then(Json::as_int), Some(count), "{name}");
    }
    assert!(counters.get("mine.canon_tuples") > 0);
}
