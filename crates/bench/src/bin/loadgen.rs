//! `gpa-bench`: the serve-mode load generator.
//!
//! Drives a running `gpa serve` daemon with a mixed hot/cold request
//! stream from several concurrent client connections, optionally
//! follows up with a burst phase sized to overflow the server's queue
//! (exercising shed/backpressure), and writes `BENCH_serve.json`:
//! a deterministic section (per-image saved words — the same numbers a
//! one-shot `gpa batch` produces) plus a `"measured"` section
//! (latency percentiles, status counts, throughput).
//!
//! ```text
//! gpa-bench --addr HOST:PORT [--requests N] [--clients C]
//!           [--soak-seconds S] [--burst B] [--stats-every-ms MS]
//!           [--out FILE] [--baseline FILE] [--shutdown]
//! ```
//!
//! * `--requests N` — total request target across all clients
//!   (default 60; the soak profile in verify.sh uses 500).
//! * `--soak-seconds S` — keep issuing requests until `S` seconds have
//!   elapsed, even past `--requests`.
//! * `--burst B` — after the main phase, fire `B` cold requests
//!   concurrently (distinct cache keys, one per thread) to provoke
//!   `overloaded` responses.
//! * `--stats-every-ms MS` — poll the daemon with Stats frames every
//!   `MS` milliseconds for the duration of the main phase, verifying
//!   the live serve identity ([`gpa_serve::check_snapshot_identity`])
//!   in every snapshot; the poll count and peak outstanding work land in the `"measured"`
//!   section. Exit 1 if any snapshot breaks the identity.
//! * `--baseline FILE` — compare the deterministic section against a
//!   committed baseline; exit 2 on mismatch (the perf-regression gate).
//! * `--shutdown` — send a Shutdown frame when done (drains the
//!   daemon).
//!
//! Exit codes: 0 success, 1 usage/transport/protocol failure, 2
//! baseline mismatch.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gpa::json::Json;
use gpa_serve::{check_snapshot_identity, fetch_stats, send_shutdown, submit};
use gpa_trace::histogram::LogHistogram;

/// Kernels the stream cycles over (a subset keeps the soak fast while
/// still exercising distinct cache entries).
const IMAGES: [&str; 4] = ["crc", "sha", "qsort", "bitcnts"];

struct Args {
    addr: String,
    requests: u64,
    clients: usize,
    soak_seconds: u64,
    burst: usize,
    stats_every_ms: u64,
    out: Option<String>,
    baseline: Option<String>,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        requests: 60,
        clients: 4,
        soak_seconds: 0,
        burst: 0,
        stats_every_ms: 0,
        out: None,
        baseline: None,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--soak-seconds" => {
                args.soak_seconds = value("--soak-seconds")?
                    .parse()
                    .map_err(|e| format!("--soak-seconds: {e}"))?;
            }
            "--burst" => {
                args.burst = value("--burst")?
                    .parse()
                    .map_err(|e| format!("--burst: {e}"))?;
            }
            "--stats-every-ms" => {
                args.stats_every_ms = value("--stats-every-ms")?
                    .parse()
                    .map_err(|e| format!("--stats-every-ms: {e}"))?;
            }
            "--out" => args.out = Some(value("--out")?),
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--shutdown" => args.shutdown = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr HOST:PORT is required".into());
    }
    if args.clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    Ok(args)
}

#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    cached: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    error: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Tally {
    fn record(&self, doc: &str) {
        let Ok(parsed) = Json::parse(doc) else {
            self.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        match parsed.get("status").and_then(Json::as_str) {
            Some("ok") => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                if parsed
                    .get("metrics")
                    .and_then(|m| m.get("cached"))
                    .and_then(Json::as_bool)
                    == Some(true)
                {
                    self.cached.fetch_add(1, Ordering::Relaxed);
                }
            }
            Some("overloaded") | Some("draining") => {
                self.overloaded.fetch_add(1, Ordering::Relaxed);
            }
            Some("deadline_exceeded") => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Some("error") => {
                self.error.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// What the mid-soak Stats poller saw.
#[derive(Default)]
struct StatsPoll {
    polls: AtomicU64,
    violations: AtomicU64,
    /// Peak `in_flight + queued` across all snapshots.
    max_outstanding: AtomicU64,
    failed: AtomicU64,
}

/// Reads a nested integer out of a parsed snapshot, defaulting to 0.
fn snapshot_int(doc: &Json, path: &[&str]) -> i64 {
    let mut node = doc;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_int().unwrap_or(0)
}

/// Checks one `gpa-stats/1` snapshot against the live accounting
/// identity, updating the poll tally.
fn check_snapshot(doc: &str, poll: &StatsPoll) {
    let Ok(parsed) = Json::parse(doc) else {
        poll.failed.fetch_add(1, Ordering::Relaxed);
        return;
    };
    poll.polls.fetch_add(1, Ordering::Relaxed);
    if let Err(e) = check_snapshot_identity(&parsed) {
        if poll.violations.fetch_add(1, Ordering::Relaxed) == 0 {
            eprintln!("gpa-bench: snapshot identity broken: {e}");
        }
        return;
    }
    let in_flight = snapshot_int(&parsed, &["gauges", "in_flight"]);
    let queued = snapshot_int(&parsed, &["gauges", "queued"]);
    poll.max_outstanding
        .fetch_max((in_flight + queued).max(0) as u64, Ordering::Relaxed);
}

fn percentiles(hist: &LogHistogram) -> (u64, u64, u64) {
    (
        hist.percentile(50),
        hist.percentile(90),
        hist.percentile(99),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("gpa-bench: {message}");
            std::process::exit(1);
        }
    };

    let opts = gpa_minicc::Options::default();
    let images: Vec<(&str, Vec<u8>)> = IMAGES
        .iter()
        .map(|name| {
            let image = gpa_minicc::compile_benchmark(name, &opts)
                .unwrap_or_else(|e| panic!("bundled benchmark {name}: {e}"));
            (*name, image.to_bytes())
        })
        .collect();

    // ---- main phase: mixed hot/cold stream over `clients` connections.
    let issued = AtomicU64::new(0);
    let cold_seq = AtomicUsize::new(0);
    let tally = Tally::default();
    let hist = Mutex::new(LogHistogram::default());
    let started = Instant::now();
    let deadline =
        (args.soak_seconds > 0).then(|| started + Duration::from_secs(args.soak_seconds));
    let transport_failed = AtomicU64::new(0);
    let poll = StatsPoll::default();
    let polling = AtomicBool::new(args.stats_every_ms > 0);
    std::thread::scope(|scope| {
        // The poller rides alongside the clients on its own connection,
        // sampling the daemon's live accounting mid-soak.
        if args.stats_every_ms > 0 {
            let (poll, polling, args) = (&poll, &polling, &args);
            scope.spawn(move || {
                let Ok(mut conn) = TcpStream::connect(&args.addr) else {
                    poll.failed.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                while polling.load(Ordering::Relaxed) {
                    match fetch_stats(&mut conn) {
                        Ok(doc) => check_snapshot(&doc, poll),
                        Err(_) => {
                            poll.failed.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(args.stats_every_ms));
                }
            });
        }
        let mut clients = Vec::new();
        for _ in 0..args.clients {
            let (issued, cold_seq, tally, hist, transport_failed) =
                (&issued, &cold_seq, &tally, &hist, &transport_failed);
            let (images, args) = (&images, &args);
            clients.push(scope.spawn(move || {
                let Ok(mut conn) = TcpStream::connect(&args.addr) else {
                    transport_failed.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                loop {
                    let n = issued.fetch_add(1, Ordering::Relaxed);
                    let past_target = n >= args.requests;
                    let past_deadline = deadline.is_none_or(|d| Instant::now() >= d);
                    if past_target && (deadline.is_none() || past_deadline) {
                        return;
                    }
                    let (_, bytes) = &images[(n as usize) % images.len()];
                    // 1 in 4 requests goes cold: a unique max_rounds
                    // value gives it a never-seen cache key without
                    // changing the fixpoint result for these kernels.
                    let knobs = if n % 4 == 3 {
                        let unique = 1000 + cold_seq.fetch_add(1, Ordering::Relaxed);
                        format!("{{\"validate\":\"off\",\"max_rounds\":{unique}}}")
                    } else {
                        "{\"validate\":\"off\"}".to_owned()
                    };
                    let sent = Instant::now();
                    match submit(&mut conn, &knobs, bytes) {
                        Ok(doc) => {
                            hist.lock()
                                .expect("histogram poisoned")
                                .record(gpa_trace::saturating_ns(sent.elapsed()));
                            tally.record(&doc);
                        }
                        Err(_) => {
                            tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            }));
        }
        for handle in clients {
            let _ = handle.join();
        }
        polling.store(false, Ordering::Relaxed);
    });
    let main_elapsed = started.elapsed();
    if transport_failed.load(Ordering::Relaxed) > 0 {
        eprintln!("gpa-bench: could not connect to {}", args.addr);
        std::process::exit(1);
    }

    // ---- burst phase: concurrent cold requests to provoke shedding.
    if args.burst > 0 {
        std::thread::scope(|scope| {
            for i in 0..args.burst {
                let (tally, images, args) = (&tally, &images, &args);
                scope.spawn(move || {
                    let Ok(mut conn) = TcpStream::connect(&args.addr) else {
                        tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    };
                    let (_, bytes) = &images[i % images.len()];
                    let knobs = format!("{{\"validate\":\"off\",\"max_rounds\":{}}}", 5000 + i);
                    match submit(&mut conn, &knobs, bytes) {
                        Ok(doc) => tally.record(&doc),
                        Err(_) => {
                            tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
    }

    // ---- deterministic section: one warm request per image; the
    // report's saved words must match a one-shot `gpa batch`.
    let mut per_image = Vec::new();
    {
        let Ok(mut conn) = TcpStream::connect(&args.addr) else {
            eprintln!("gpa-bench: could not connect to {}", args.addr);
            std::process::exit(1);
        };
        for (name, bytes) in &images {
            match submit(&mut conn, "{\"validate\":\"off\"}", bytes) {
                Ok(doc) => {
                    let parsed = Json::parse(&doc).unwrap_or(Json::Obj(vec![]));
                    let saved = parsed
                        .get("report")
                        .and_then(|r| r.get("saved_words"))
                        .and_then(Json::as_int);
                    match saved {
                        Some(saved) => per_image.push((name.to_owned(), saved)),
                        None => {
                            eprintln!("gpa-bench: no report for {name}: {doc}");
                            std::process::exit(1);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("gpa-bench: probe of {name} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        if args.shutdown {
            match send_shutdown(&mut conn) {
                Ok(_) => {}
                Err(e) => {
                    eprintln!("gpa-bench: shutdown frame failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    // ---- the BENCH_serve.json document.
    let hist = hist.into_inner().expect("histogram poisoned");
    let (p50, p90, p99) = percentiles(&hist);
    let image_docs: Vec<String> = per_image
        .iter()
        .map(|(name, saved)| format!("{{\"name\":\"{name}\",\"saved_words\":{saved}}}"))
        .collect();
    let deterministic = format!(
        "{{\"schema\":\"gpa-serve-bench/1\",\"images\":[{}]",
        image_docs.join(",")
    );
    let requests_sent = hist.count();
    // The poller's findings live in the measured section only, so the
    // deterministic baseline is identical with and without polling.
    let stats_section = if args.stats_every_ms > 0 {
        format!(
            "\"stats\":{{\"polls\":{},\"max_outstanding\":{},\"poll_failures\":{}}},",
            poll.polls.load(Ordering::Relaxed),
            poll.max_outstanding.load(Ordering::Relaxed),
            poll.failed.load(Ordering::Relaxed),
        )
    } else {
        String::new()
    };
    let doc = format!(
        "{deterministic},\"measured\":{{\"requests\":{requests_sent},\
         \"clients\":{},\"wall_ms\":{},\"ok\":{},\"cached\":{},\"overloaded\":{},\
         \"deadline_exceeded\":{},\"error\":{},\"protocol_errors\":{},{stats_section}\
         \"latency_ns\":{{\"p50\":{p50},\"p90\":{p90},\"p99\":{p99}}}}}}}",
        args.clients,
        main_elapsed.as_millis(),
        tally.ok.load(Ordering::Relaxed),
        tally.cached.load(Ordering::Relaxed),
        tally.overloaded.load(Ordering::Relaxed),
        tally.deadline_exceeded.load(Ordering::Relaxed),
        tally.error.load(Ordering::Relaxed),
        tally.protocol_errors.load(Ordering::Relaxed),
    );
    println!("{doc}");
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, format!("{doc}\n")) {
            eprintln!("gpa-bench: write {out}: {e}");
            std::process::exit(1);
        }
    }

    if tally.protocol_errors.load(Ordering::Relaxed) > 0 {
        eprintln!("gpa-bench: protocol errors observed");
        std::process::exit(1);
    }
    if poll.violations.load(Ordering::Relaxed) > 0 {
        eprintln!(
            "gpa-bench: {} snapshot(s) broke the accounting identity",
            poll.violations.load(Ordering::Relaxed)
        );
        std::process::exit(1);
    }

    // ---- baseline gate: deterministic sections must match bytewise.
    if let Some(baseline) = &args.baseline {
        let previous = match std::fs::read_to_string(baseline) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("gpa-bench: baseline {baseline}: {e}");
                std::process::exit(1);
            }
        };
        let previous_det = previous.split(",\"measured\":").next().unwrap_or("");
        if previous_det != deterministic {
            eprintln!(
                "gpa-bench: deterministic section drifted from {baseline}\n\
                 baseline: {previous_det}\n\
                 current:  {deterministic}"
            );
            std::process::exit(2);
        }
    }
}
