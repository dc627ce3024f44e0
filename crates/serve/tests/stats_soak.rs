//! Live-telemetry tests: every mid-soak snapshot must balance the
//! gauge-augmented accounting identity, the final snapshot must agree
//! with the end-of-life summary, a panicking job must not take the
//! daemon down, the flight-recorder dump must be a valid trace, and
//! idle workers must wake on enqueue instead of riding out a poll
//! interval.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use gpa::json::Json;
use gpa::RunConfig;
use gpa::ValidateLevel;
use gpa_serve::{check_snapshot_identity, fetch_dump, fetch_stats, submit, ServeConfig, Server};

fn fast_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        run: RunConfig {
            validate: ValidateLevel::Off,
            ..RunConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn crc_image() -> Vec<u8> {
    gpa_minicc::compile_benchmark("crc", &gpa_minicc::Options::default())
        .unwrap()
        .to_bytes()
}

/// Reads a nested integer out of a parsed snapshot, defaulting to 0.
fn snap_int(doc: &Json, path: &[&str]) -> i64 {
    let mut node = doc;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_int().unwrap_or(0)
}

/// Asserts the live identity on one parsed snapshot and returns
/// (accepted, completed, shed, deadline_exceeded, in_flight, queued).
fn assert_identity(doc: &Json) -> (i64, i64, i64, i64, i64, i64) {
    if let Err(e) = check_snapshot_identity(doc) {
        panic!("live identity broken in snapshot: {e}: {doc}");
    }
    (
        snap_int(doc, &["counters", "serve.accepted"]),
        snap_int(doc, &["counters", "serve.completed"]),
        snap_int(doc, &["counters", "serve.shed"]),
        snap_int(doc, &["counters", "serve.deadline_exceeded"]),
        snap_int(doc, &["gauges", "in_flight"]),
        snap_int(doc, &["gauges", "queued"]),
    )
}

/// Mid-soak snapshots all balance; the quiescent final snapshot matches
/// the end-of-life summary exactly; snapshot counters never exceed the
/// summary's (monotonicity across the drain).
#[test]
fn live_snapshots_balance_and_converge_to_the_summary() {
    let image = crc_image();
    let server = Server::start("127.0.0.1:0", fast_config()).unwrap();
    let addr = server.local_addr();

    let done = AtomicBool::new(false);
    let polls = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut conn = TcpStream::connect(addr).unwrap();
            let mut polls = 0u64;
            while !done.load(Ordering::Relaxed) {
                let doc = Json::parse(&fetch_stats(&mut conn).unwrap()).unwrap();
                assert_eq!(
                    doc.get("schema").and_then(Json::as_str),
                    Some("gpa-stats/1")
                );
                assert_identity(&doc);
                polls += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            polls
        });
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let image = &image;
                scope.spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    for i in 0..8 {
                        // A mix of warm repeats, unique cold keys, and
                        // queue-expired deadlines.
                        let knobs = match i % 4 {
                            3 => "{\"validate\":\"off\",\"deadline_ms\":0}".to_owned(),
                            2 => format!("{{\"validate\":\"off\",\"max_rounds\":{}}}", 100 + i),
                            _ => "{\"validate\":\"off\"}".to_owned(),
                        };
                        submit(&mut conn, &knobs, image).unwrap();
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        // Every submit has returned, and the worker counts a request
        // before replying, so the accounting has quiesced.
        done.store(true, Ordering::Relaxed);
        poller.join().unwrap()
    });
    assert!(polls > 0, "the poller must have sampled at least once");

    // Quiescent snapshot: deterministic accounting.
    let mut conn = TcpStream::connect(addr).unwrap();
    let last = Json::parse(&fetch_stats(&mut conn).unwrap()).unwrap();
    let (accepted, completed, shed, deadline, in_flight, queued) = assert_identity(&last);
    assert_eq!(accepted, 24);
    assert_eq!((in_flight, queued), (0, 0));
    assert_eq!(deadline, 6, "every 4th request had deadline_ms 0");
    drop(conn);

    server.drain();
    let summary = server.join();
    // The final trace counters agree with the last snapshot (nothing
    // was in flight, so they are equal, not merely >=).
    assert_eq!(summary.counters.get("serve.accepted") as i64, accepted);
    assert_eq!(summary.counters.get("serve.completed") as i64, completed);
    assert_eq!(summary.counters.get("serve.shed") as i64, shed);
    assert_eq!(
        summary.counters.get("serve.deadline_exceeded") as i64,
        deadline
    );
    assert_eq!(summary.counters.get("serve.in_flight_at_drain"), 0);
    assert!(
        summary.counters.get("serve.stats_frames") >= polls,
        "every poll is a Stats frame"
    );
    // The snapshot's windowed histograms saw the same traffic the
    // summary's lifetime ones did (the soak is far shorter than the
    // 30 s window).
    assert_eq!(
        snap_int(&last, &["latency", "lifetime", "run", "count"]) as u64,
        summary.run_hist.count()
    );
    assert_eq!(
        snap_int(&last, &["latency", "window", "run", "count"]) as u64,
        summary.run_hist.count()
    );
}

/// A job that panics mid-optimize answers `internal_error`, counts as
/// completed (the identity still balances), and the daemon keeps
/// serving on the same worker pool.
#[test]
fn panicked_job_answers_internal_error_and_daemon_survives() {
    let image = crc_image();
    let config = ServeConfig {
        workers: 1, // the panic and the follow-up share one worker
        ..fast_config()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();

    let doc = submit(&mut conn, "{\"test_panic\":true}", &image).unwrap();
    let parsed = Json::parse(&doc).unwrap();
    assert_eq!(
        parsed.get("status").and_then(Json::as_str),
        Some("internal_error")
    );
    assert!(parsed
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("panicked"));

    // Same connection, same worker: a normal request still succeeds.
    let doc = submit(&mut conn, "{\"validate\":\"off\"}", &image).unwrap();
    assert_eq!(
        Json::parse(&doc)
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );

    // The anomaly is in the flight recorder.
    let dump = fetch_dump(&mut conn).unwrap();
    assert!(
        dump.contains("\"ev\":\"serve.anomaly\"") && dump.contains("\"reason\":\"internal_error\""),
        "dump must record the panic as an anomaly: {dump}"
    );

    server.drain();
    let summary = server.join();
    assert_eq!(summary.counters.get("serve.accepted"), 2);
    assert_eq!(summary.counters.get("serve.completed"), 2);
    assert_eq!(summary.counters.get("serve.internal_errors"), 1);
}

/// The Dump frame answers a self-contained `gpa-trace/1` document:
/// schema header, per-request event lines with monotone timestamps and
/// request ids, and a counters line that matches the retained lines.
#[test]
fn dump_is_a_valid_trace_with_request_ids_and_anomalies() {
    let image = crc_image();
    let server = Server::start("127.0.0.1:0", fast_config()).unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();

    submit(&mut conn, "{\"validate\":\"off\"}", &image).unwrap();
    submit(
        &mut conn,
        "{\"validate\":\"off\",\"deadline_ms\":0}",
        &image,
    )
    .unwrap();
    let dump = fetch_dump(&mut conn).unwrap();

    let lines: Vec<Json> = dump.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert!(lines.len() >= 4, "header + events + counters");
    assert_eq!(
        lines[0].get("schema").and_then(Json::as_str),
        Some("gpa-trace/1")
    );
    let summary = lines.last().unwrap();
    assert_eq!(summary.get("ev").and_then(Json::as_str), Some("counters"));
    let events = &lines[1..lines.len() - 1];

    // Counter == line-count invariant, computed independently.
    let mut observed: std::collections::BTreeMap<&str, i64> = std::collections::BTreeMap::new();
    let mut last_at = 0i64;
    for event in events {
        let name = event.get("ev").and_then(Json::as_str).unwrap();
        *observed.entry(name).or_insert(0) += 1;
        let at = event.get("at_ns").and_then(Json::as_int).unwrap();
        assert!(at >= last_at, "timestamps must be monotone");
        last_at = at;
        assert!(
            event.get("req").and_then(Json::as_int).is_some(),
            "every recorded event carries a request id: {event}"
        );
    }
    let counters = summary.get("counters").unwrap();
    for (name, count) in &observed {
        assert_eq!(
            counters.get(name).and_then(Json::as_int),
            Some(*count),
            "counter {name} must match its event lines"
        );
    }
    // Both requests' lifecycles and the deadline anomaly are present.
    assert_eq!(observed.get("serve.request"), Some(&2));
    assert_eq!(observed.get("serve.reply"), Some(&2));
    assert!(observed.contains_key("serve.anomaly"));
    assert!(
        dump.contains("\"reason\":\"deadline_exceeded\""),
        "the zero-deadline request is an anomaly"
    );
    // Optimizer events (if any fired) are tagged with request 1's id.
    assert!(dump.contains("\"req\":1"));
    assert!(dump.contains("\"req\":2"));

    server.drain();
    server.join();
}

/// Satellite (a): an idle worker is woken by the enqueue notify, not a
/// 50 ms poll tick — sequential requests must show queue waits far
/// below the old polling interval.
#[test]
fn idle_workers_wake_on_enqueue_not_on_a_poll_tick() {
    let image = crc_image();
    let server = Server::start("127.0.0.1:0", fast_config()).unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    // Sequential submits: before each one, both workers are parked on
    // the condvar. Under the old 50 ms wait_timeout poll, queue waits
    // would straddle tens of milliseconds.
    for _ in 0..8 {
        submit(&mut conn, "{\"validate\":\"off\"}", &image).unwrap();
    }
    let stats = Json::parse(&fetch_stats(&mut conn).unwrap()).unwrap();
    let p99 = {
        // Recompute from the serialized buckets: smallest bucket lower
        // bound covering 99% of the count.
        let hist = stats
            .get("latency")
            .and_then(|l| l.get("lifetime"))
            .and_then(|s| s.get("queue"))
            .unwrap();
        hist.get("p99").and_then(Json::as_int).unwrap()
    };
    server.drain();
    let summary = server.join();
    assert_eq!(summary.queue_hist.count(), 8);
    assert!(
        p99 < 50_000_000,
        "queue p99 {p99}ns suggests workers still wake by polling"
    );
}

/// `Server::stats_json` (the embedder API) and the Stats frame answer
/// the same document family; deterministic fields match the config.
#[test]
fn stats_json_reflects_configuration() {
    let config = ServeConfig {
        workers: 3,
        queue_depth: 7,
        recorder_capacity: 128,
        ..fast_config()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let doc = Json::parse(&server.stats_json()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("gpa-stats/1")
    );
    assert_eq!(snap_int(&doc, &["workers"]), 3);
    assert_eq!(snap_int(&doc, &["queue_depth"]), 7);
    assert_eq!(snap_int(&doc, &["recorder", "capacity"]), 128);
    assert_eq!(snap_int(&doc, &["latency", "window_ns"]), 30_000_000_000);
    assert_identity(&doc);
    // The embedder dump is the same empty-skeleton the Dump frame gives.
    let dump = server.dump_trace();
    assert!(dump.starts_with("{\"schema\":\"gpa-trace/1\""));
    server.drain();
    server.join();
}
