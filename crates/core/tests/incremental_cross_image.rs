//! Cross-image soundness of the seed cache: sharing one [`MineCache`]
//! across different images (the serve daemon's situation) must never
//! change any image's report.
//!
//! The sharp edge this guards: crc and sha link byte-identical library
//! functions (`__divsi3`, `__modsi3`, …), but intern mining labels in
//! different image-wide orders, so the canonical DFS-code lattice
//! partitions the same patterns across *different* seeds. The seed key
//! hashes the hosts' label vocabulary in interner order precisely so
//! those entries do not collide; before that was keyed, a crc-warmed
//! cache silently changed sha's DgSpan report.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use gpa::incremental::{MemoryMineCache, MineCache, SeedEntry, TupleNote};
use gpa::{Method, Optimizer, Report, RunConfig, ValidateLevel};

/// A [`MemoryMineCache`] that records every entry published and every
/// entry served, so the test can compare an image's own mining results
/// against what a foreign-warmed cache served it.
#[derive(Debug, Default)]
struct Recorder {
    inner: MemoryMineCache,
    puts: Mutex<HashMap<u128, SeedEntry>>,
    gets: Mutex<Vec<(u128, SeedEntry)>>,
}

impl MineCache for Recorder {
    fn get(&self, key: u128) -> Option<SeedEntry> {
        let entry = self.inner.get(key);
        if let Some(entry) = &entry {
            self.gets.lock().unwrap().push((key, entry.clone()));
        }
        entry
    }
    fn put(&self, key: u128, entry: SeedEntry) {
        self.puts.lock().unwrap().insert(key, entry.clone());
        self.inner.put(key, entry);
    }
    fn note_tuple(&self, tuple: u128, key: u128) -> TupleNote {
        self.inner.note_tuple(tuple, key)
    }
}

fn run(image: &gpa_image::Image, method: Method, cache: Arc<dyn MineCache>) -> Report {
    let config = RunConfig {
        validate: ValidateLevel::Off,
        incremental: Some(cache),
        ..RunConfig::default()
    };
    let mut optimizer = Optimizer::from_image_configured(image, &config).unwrap();
    optimizer.run_instrumented(method, &config, None).unwrap()
}

#[test]
fn foreign_entries_never_change_a_report() {
    let opts = gpa_minicc::Options::default();
    let crc = gpa_minicc::compile_benchmark("crc", &opts).unwrap();
    let sha = gpa_minicc::compile_benchmark("sha", &opts).unwrap();
    for method in [Method::DgSpan, Method::Edgar] {
        // Run 1: sha against a fresh cache — its own exact entries.
        let solo = Arc::new(Recorder::default());
        let solo_report = run(&sha, method, solo.clone());
        let solo_puts = solo.puts.lock().unwrap().clone();

        // Run 2: the same cache first warmed by crc.
        let shared = Arc::new(Recorder::default());
        run(&crc, method, shared.clone());
        shared.gets.lock().unwrap().clear();
        let warm_report = run(&sha, method, shared.clone());

        // Entry-level: every entry served to warm sha must agree with
        // what solo sha mined for the same key.
        let warm_gets = shared.gets.lock().unwrap().clone();
        for (key, served) in &warm_gets {
            if let Some(own) = solo_puts.get(key) {
                assert_eq!(
                    own, served,
                    "[{method:?}] seed {key:#x}: crc-warmed cache served sha a foreign entry"
                );
            }
        }
        // Report-level: byte-identical output either way.
        assert_eq!(
            solo_report.to_json().to_string(),
            warm_report.to_json().to_string(),
            "[{method:?}] a crc-warmed cache changed sha's report"
        );
    }
}
