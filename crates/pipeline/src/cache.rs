//! The report-level artifact cache.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use gpa::json::Json;
use gpa::lru::Lru;
use gpa::{CacheBudget, Report};
use gpa_trace::{NoopTracer, Tracer, Value};

/// A content-addressed cache of optimization results, keyed by
/// [`gpa::image_cache_key`].
///
/// Always has an in-memory layer (shared by every worker of a batch run);
/// with [`ReportCache::with_dir`] a second, on-disk layer persists
/// results across runs as `<dir>/<key as 32 hex digits>.json` files
/// holding the [`Report::to_json`] document.
///
/// The disk layer is best-effort and safe against concurrent writers:
/// files are written to a temporary name and atomically renamed into
/// place, and an unreadable or unparsable file (e.g. a stale schema after
/// an upgrade) counts as a miss rather than an error.
///
/// The in-memory layer is one [`Lru`] bounded by a [`CacheBudget`]: the
/// default constructors keep the historical unbounded behaviour (a batch
/// run over a finite corpus), while a resident `gpa serve` process passes
/// explicit entry/byte limits and sheds least-recently-used reports
/// (counted by [`ReportCache::evicted`] and the `cache.evicted` trace
/// counter). Eviction never touches the disk layer.
pub struct ReportCache {
    dir: Option<PathBuf>,
    map: Mutex<Lru<u128, Report>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ReportCache {
    /// A purely in-memory cache (one batch run's lifetime), unbounded.
    pub fn in_memory() -> ReportCache {
        ReportCache::with_budget(CacheBudget::unbounded())
    }

    /// A purely in-memory cache bounded by `budget`.
    pub fn with_budget(budget: CacheBudget) -> ReportCache {
        ReportCache {
            dir: None,
            map: Mutex::new(Lru::new(budget)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache backed by `dir`, created if missing, with an unbounded
    /// memory layer. Stale temporary files (`*.tmp.*` left behind by a
    /// crashed or killed writer) are swept on open; a live writer is
    /// never affected because every tmp name embeds the writing
    /// process's id and a per-process sequence number, and publication
    /// is a single atomic rename.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn with_dir(dir: &Path) -> io::Result<ReportCache> {
        ReportCache::with_dir_budget(dir, CacheBudget::unbounded())
    }

    /// [`ReportCache::with_dir`] with a bounded memory layer.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn with_dir_budget(dir: &Path, budget: CacheBudget) -> io::Result<ReportCache> {
        std::fs::create_dir_all(dir)?;
        let mut cache = ReportCache::with_budget(budget);
        cache.dir = Some(dir.to_path_buf());
        cache.sweep_tmp();
        Ok(cache)
    }

    /// Lookups answered from memory or disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (the optimizer had to run).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Memory-layer entries evicted (or rejected at admission) so far.
    pub fn evicted(&self) -> u64 {
        self.memory().evicted()
    }

    /// Entries resident in the memory layer.
    pub fn entries(&self) -> usize {
        self.memory().len()
    }

    /// Total estimated cost (bytes) of the memory layer's entries.
    pub fn bytes(&self) -> u64 {
        self.memory().bytes()
    }

    fn memory(&self) -> MutexGuard<'_, Lru<u128, Report>> {
        self.map.lock().expect("report cache poisoned")
    }

    /// Removes stale `*.tmp.*` files from the disk layer, if any. Safe
    /// against live writers (tmp names are single-writer and published
    /// by atomic rename); a no-op for purely in-memory caches. Called on
    /// open, and again by interrupted batch runs so a Ctrl-C never
    /// strands half-written entries for the next run to sweep.
    pub fn sweep_tmp(&self) {
        let Some(dir) = &self.dir else { return };
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().contains(".tmp.") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }

    fn entry_path(&self, key: u128) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:032x}.json")))
    }

    /// Fetches the report stored under `key`, consulting memory first and
    /// then the disk layer (promoting disk hits into memory).
    pub fn get(&self, key: u128) -> Option<Report> {
        self.get_traced(key, &NoopTracer)
    }

    /// [`ReportCache::get`] with hit/miss provenance counters
    /// (`cache.hit_memory`, `cache.hit_disk`, `cache.miss`) and a
    /// `cache.corrupt_entry` event when an on-disk entry had to be
    /// degraded to a miss.
    pub fn get_traced(&self, key: u128, tracer: &dyn Tracer) -> Option<Report> {
        let found = self.memory().get(&key).map(|(_, report)| report.clone());
        if let Some(found) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            tracer.count("cache.hit_memory", 1);
            return Some(found);
        }
        match self.read_disk(key) {
            DiskRead::Hit(report, cost) => {
                let evicted = self.memory().insert(key, report.clone(), cost);
                if evicted > 0 {
                    tracer.count("cache.evicted", evicted);
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                tracer.count("cache.hit_disk", 1);
                return Some(report);
            }
            DiskRead::Miss => {}
            DiskRead::Corrupt(reason) => {
                // An unreadable entry silently costs a re-optimization;
                // surface it so corpus runs can see degraded caches.
                tracer.event(
                    "cache.corrupt_entry",
                    &[
                        ("key", Value::from(format!("{key:032x}"))),
                        ("reason", Value::from(reason)),
                    ],
                );
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        tracer.count("cache.miss", 1);
        None
    }

    fn read_disk(&self, key: u128) -> DiskRead {
        let Some(path) = self.entry_path(key) else {
            return DiskRead::Miss;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            // A missing file is the normal cold-cache case; any other
            // read failure is a degradation worth reporting.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return DiskRead::Miss,
            Err(_) => return DiskRead::Corrupt("unreadable"),
        };
        let Ok(doc) = Json::parse(&text) else {
            return DiskRead::Corrupt("invalid_json");
        };
        match Report::from_json(&doc) {
            Ok(report) => DiskRead::Hit(report, text.len() as u64),
            Err(_) => DiskRead::Corrupt("schema_mismatch"),
        }
    }

    /// Stores a freshly computed report under `key` in every layer.
    pub fn put(&self, key: u128, report: &Report) {
        self.put_traced(key, report, &NoopTracer);
    }

    /// [`ReportCache::put`] with `cache.write_failed` (best-effort disk
    /// stores that did not land) and `cache.evicted` (memory-layer
    /// entries shed to admit this one) counters.
    pub fn put_traced(&self, key: u128, report: &Report, tracer: &dyn Tracer) {
        // The serialized document is both the disk payload and the
        // memory-layer cost estimate (a report's heap footprint tracks
        // its JSON size closely enough for budgeting).
        let payload = report.to_json().to_string();
        let evicted = self
            .memory()
            .insert(key, report.clone(), payload.len() as u64);
        if evicted > 0 {
            tracer.count("cache.evicted", evicted);
        }
        if let Some(path) = self.entry_path(key) {
            // Atomic publish: never expose a half-written file to a
            // concurrent reader. Failures only cost future cache hits.
            //
            // The tmp name must be unique per *writer*, not just per
            // process: two threads storing the same key used to share one
            // pid-derived tmp path and interleave write/rename/remove,
            // publishing truncated or mixed files. A per-process atomic
            // sequence number makes every tmp path single-writer.
            let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), seq));
            let landed =
                std::fs::write(&tmp, payload).is_ok() && std::fs::rename(&tmp, &path).is_ok();
            if !landed {
                let _ = std::fs::remove_file(&tmp);
                tracer.count("cache.write_failed", 1);
            }
        }
    }
}

/// Per-process tmp-name disambiguator for [`ReportCache::put_traced`].
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Outcome of one disk-layer lookup (hits carry the entry's on-disk
/// size, reused as the memory-layer cost when the hit is promoted).
enum DiskRead {
    Hit(Report, u64),
    Miss,
    Corrupt(&'static str),
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa::{ExtractionKind, Round};

    fn sample() -> Report {
        Report {
            initial_words: 40,
            final_words: 30,
            rounds: vec![Round {
                kind: ExtractionKind::Procedure { lr_save: false },
                body_words: 5,
                occurrences: 3,
                saved: 10,
                fragment_name: "__gpa_frag_0".into(),
            }],
        }
    }

    #[test]
    fn memory_roundtrip_and_counters() {
        let cache = ReportCache::in_memory();
        assert!(cache.get(7).is_none());
        cache.put(7, &sample());
        assert_eq!(cache.get(7), Some(sample()));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.evicted(), 0, "the default budget never evicts");
    }

    #[test]
    fn bounded_memory_layer_evicts_and_traces() {
        use gpa_trace::CounterTracer;
        // One entry: a second key forces an eviction.
        let cache = ReportCache::with_budget(CacheBudget::bounded(1, u64::MAX));
        let tracer = CounterTracer::new();
        cache.put_traced(1, &sample(), &tracer);
        cache.put_traced(2, &sample_sized(2), &tracer);
        assert_eq!(cache.evicted(), 1);
        assert_eq!(tracer.counters().get("cache.evicted"), 1);
        assert!(cache.get(1).is_none(), "LRU entry was shed");
        assert_eq!(cache.get(2), Some(sample_sized(2)));
        let cost = sample_sized(2).to_json().to_string().len() as u64;
        assert_eq!((cache.entries(), cache.bytes()), (1, cost));
    }

    fn sample_sized(rounds: usize) -> Report {
        Report {
            initial_words: 100 * rounds,
            final_words: 90 * rounds,
            rounds: (0..rounds)
                .map(|i| Round {
                    kind: ExtractionKind::Procedure { lr_save: false },
                    body_words: 5 + i,
                    occurrences: 3,
                    saved: 10,
                    fragment_name: format!("__gpa_frag_{i}"),
                })
                .collect(),
        }
    }

    /// Deterministic regression for the shared-tmp-name race. Pre-fix,
    /// every `put` in a process derived the same `<key>.tmp.<pid>` path,
    /// so a second writer mid-`put` held an open handle to the very inode
    /// the first writer renamed into place — and its late bytes landed in
    /// the *published* entry. The rival thread here replays that
    /// interleaving exactly, with the scheduling pinned down: it opens the
    /// shared tmp path first, lets a full `put` run, then flushes. With
    /// per-writer sequence numbers the tmp path is private, so the rival's
    /// bytes land in an orphan file and the published entry stays intact.
    #[test]
    fn tmp_path_is_private_to_one_writer() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("gpa-cache-tmpname-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::with_dir(&dir).unwrap();
        let key = 0xfeed;
        let shared = dir.join(format!("{key:032x}.tmp.{}", std::process::id()));
        let mut rival = std::fs::File::create(&shared).unwrap();
        cache.put(key, &sample());
        rival.write_all(b"\0\0torn\0\0").unwrap();
        rival.sync_all().unwrap();
        drop(rival);
        let reread = ReportCache::with_dir(&dir).unwrap();
        assert_eq!(
            reread.get(key),
            Some(sample()),
            "a published entry must be immune to writers of the shared tmp path"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Stress companion to [`tmp_path_is_private_to_one_writer`]: many
    /// same-key writers and readers hammering one entry. Every read of
    /// the published path must parse to one of the stored variants, and
    /// the settled entry a later batch run reads must be a whole variant.
    #[test]
    fn concurrent_same_key_puts_never_corrupt_the_disk_entry() {
        use std::sync::atomic::AtomicBool;
        let dir = std::env::temp_dir().join(format!("gpa-cache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::with_dir(&dir).unwrap();
        let key = 0x5eed;
        let path = dir.join(format!("{key:032x}.json"));
        // Payloads big enough that writes and reads genuinely overlap,
        // small enough to keep the test quick.
        let variants: Vec<Report> = (1..=4).map(|r| sample_sized(r * 500)).collect();
        let done = AtomicBool::new(false);
        let corrupt = Mutex::new(None::<String>);
        std::thread::scope(|scope| {
            for variant in &variants {
                let cache = &cache;
                let done = &done;
                scope.spawn(move || {
                    for _ in 0..40 {
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                        cache.put(key, variant);
                    }
                });
            }
            for _ in 0..6 {
                let (path, variants) = (&path, &variants);
                let (done, corrupt) = (&done, &corrupt);
                scope.spawn(move || {
                    let mut iteration = 0usize;
                    while !done.load(Ordering::Relaxed) {
                        // Read the published path exactly as a fresh
                        // cache would; a missing file just means no
                        // writer has landed yet.
                        let Ok(bytes) = std::fs::read(path) else {
                            continue;
                        };
                        iteration += 1;
                        // Cheap structural probe first (the corruption
                        // window is narrow, so the sampling loop must be
                        // tight): a clean publish is a complete JSON
                        // object with no holes from interleaved writes.
                        let shape_ok = bytes.first() == Some(&b'{')
                            && bytes.last() == Some(&b'}')
                            && !bytes.contains(&0);
                        if !shape_ok {
                            *corrupt.lock().unwrap() =
                                Some(format!("torn entry ({} bytes)", bytes.len()));
                            done.store(true, Ordering::Relaxed);
                            break;
                        }
                        if !iteration.is_multiple_of(16) {
                            continue;
                        }
                        let parsed = String::from_utf8(bytes).ok().and_then(|text| {
                            Json::parse(&text)
                                .ok()
                                .and_then(|doc| Report::from_json(&doc).ok())
                        });
                        match parsed {
                            Some(found) if variants.contains(&found) => {}
                            _ => {
                                *corrupt.lock().unwrap() = Some("mixed document".into());
                                done.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            // Let writers finish, then release the readers.
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(800));
                done.store(true, Ordering::Relaxed);
            });
        });
        if let Some(reason) = corrupt.lock().unwrap().take() {
            panic!("published cache entry was observed corrupt: {reason}");
        }
        // And the settled entry a later batch run reads is one variant.
        let reread = ReportCache::with_dir(&dir).unwrap();
        let found = reread
            .get(key)
            .expect("the disk entry must be present and parsable");
        assert!(variants.contains(&found));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = std::env::temp_dir().join(format!("gpa-cache-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("0000.tmp.999.7");
        std::fs::write(&stale, "half-written").unwrap();
        let keep = dir.join(format!("{:032x}.json", 0x1u32));
        std::fs::write(&keep, sample().to_json().to_string()).unwrap();
        let _ = ReportCache::with_dir(&dir).unwrap();
        assert!(!stale.exists(), "stale tmp file must be swept");
        assert!(keep.exists(), "published entries must survive the sweep");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_traced() {
        use gpa_trace::JsonlTracer;
        let dir = std::env::temp_dir().join(format!("gpa-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::with_dir(&dir).unwrap();
        // Not JSON at all, and JSON nested far past the parser's cap.
        let nested = "[".repeat(100_000);
        for (key, text) in [(0x77u128, "not json"), (0x78, nested.as_str())] {
            std::fs::write(dir.join(format!("{key:032x}.json")), text).unwrap();
            let trace = dir.with_extension(format!("{key:x}.jsonl"));
            let tracer = JsonlTracer::to_file(&trace).unwrap();
            assert!(cache.get_traced(key, &tracer).is_none());
            tracer.finish();
            let c = tracer.counters();
            assert_eq!(c.get("cache.corrupt_entry"), 1);
            assert_eq!(c.get("cache.miss"), 1);
            let events = std::fs::read_to_string(&trace).unwrap();
            assert!(events.contains("\"reason\":\"invalid_json\""), "{events}");
            let _ = std::fs::remove_file(trace);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_layer_survives_a_new_cache() {
        let dir = std::env::temp_dir().join(format!("gpa-report-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ReportCache::with_dir(&dir).unwrap();
            cache.put(0xabc, &sample());
        }
        let warm = ReportCache::with_dir(&dir).unwrap();
        assert_eq!(warm.get(0xabc), Some(sample()));
        assert_eq!(warm.hits(), 1);
        // A corrupt entry is a miss, not an error.
        std::fs::write(dir.join(format!("{:032x}.json", 0xdefu32)), "not json").unwrap();
        assert!(warm.get(0xdef).is_none());
        assert_eq!(warm.misses(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
