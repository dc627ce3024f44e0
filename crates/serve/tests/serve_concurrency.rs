//! End-to-end server tests: multi-client byte-identity against the
//! single-shot optimizer, queue shedding under overload, deadline
//! handling, graceful drain, and the serve counter identity.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use gpa::json::Json;
use gpa::{image_cache_key, Method, Optimizer, RunConfig, ValidateLevel};
use gpa_serve::{send_shutdown, submit, ServeConfig, Server};
use gpa_trace::NoopTracer;

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

/// Strips the trailing `,"metrics":…` member — the deterministic
/// section of a serve response.
fn deterministic_section(doc: &str) -> &str {
    doc.split(",\"metrics\":").next().unwrap()
}

/// Serve responses must carry exactly the single-shot optimizer's
/// report, byte for byte, from several concurrent clients at once —
/// and a repeat of the same image must answer from the warm cache with
/// the identical document.
#[test]
fn concurrent_responses_match_single_shot_optimizer_bytewise() {
    let names = ["crc", "sha", "qsort"];
    let opts = gpa_minicc::Options::default();
    let images: Vec<(&str, Vec<u8>)> = names
        .iter()
        .map(|name| {
            let image = gpa_minicc::compile_benchmark(name, &opts).unwrap();
            (*name, image.to_bytes())
        })
        .collect();

    // Single-shot ground truth, per image.
    let expected: Vec<String> = images
        .iter()
        .map(|(_, bytes)| {
            let image = gpa_image::Image::from_bytes(bytes).unwrap();
            let run = RunConfig {
                validate: ValidateLevel::Off,
                tracer: Arc::new(NoopTracer),
                ..RunConfig::default()
            };
            let mut optimizer = Optimizer::from_image(&image).unwrap();
            let report = optimizer.run_with(Method::Edgar, &run).unwrap();
            // Sanity: the serve worker addresses the same cache entry.
            let _ = image_cache_key(&image, Method::Edgar, &run);
            report.to_json().to_string()
        })
        .collect();

    let server = Server::start("127.0.0.1:0", fast_config()).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for ((_, bytes), expected) in images.iter().zip(&expected) {
            scope.spawn(move || {
                // Each client its own connection; two passes so the
                // second is a warm cache hit.
                let mut conn = TcpStream::connect(addr).unwrap();
                for pass in 0..2 {
                    let doc = submit(&mut conn, "{\"validate\":\"off\"}", bytes).unwrap();
                    let parsed = Json::parse(&doc).unwrap();
                    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
                    assert_eq!(
                        deterministic_section(&doc),
                        format!(
                            "{{\"schema\":\"gpa-serve/1\",\"status\":\"ok\",\"report\":{expected}"
                        ),
                        "pass {pass}: serve report must match the single-shot optimizer"
                    );
                }
            });
        }
    });
    server.drain();
    let summary = server.join();
    assert_eq!(summary.counters.get("serve.accepted"), 6);
    assert_eq!(summary.counters.get("serve.completed"), 6);
    assert_eq!(summary.counters.get("serve.shed"), 0);
    assert_eq!(summary.counters.get("serve.in_flight_at_drain"), 0);
    // Second pass of every client hit the warm cache.
    assert!(
        summary.report_cache.0 >= 3,
        "expected warm hits, got {:?}",
        summary.report_cache
    );
}

/// With one worker and a one-deep queue, a burst must shed: the server
/// answers `overloaded` immediately instead of queueing without bound,
/// and the counter identity still balances.
#[test]
fn overload_sheds_with_immediate_overloaded_response() {
    let image = gpa_minicc::compile_benchmark("crc", &gpa_minicc::Options::default())
        .unwrap()
        .to_bytes();
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..fast_config()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let statuses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let image = &image;
                scope.spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    // Vary max_rounds so every request is a distinct cold
                    // cache key (max_rounds is hashed into the key) and
                    // the single worker stays busy.
                    let knobs = format!("{{\"validate\":\"off\",\"max_rounds\":{}}}", 20 + i);
                    let doc = submit(&mut conn, &knobs, image).unwrap();
                    Json::parse(&doc)
                        .unwrap()
                        .get("status")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.drain();
    let summary = server.join();
    let shed = summary.counters.get("serve.shed");
    let completed = summary.counters.get("serve.completed");
    assert_eq!(
        statuses.iter().filter(|s| *s == "overloaded").count() as u64,
        shed
    );
    assert_eq!(
        statuses.iter().filter(|s| *s == "ok").count() as u64,
        completed
    );
    assert!(
        shed > 0,
        "6 concurrent cold requests must overflow a 1-deep queue"
    );
    assert_eq!(summary.counters.get("serve.in_flight_at_drain"), 0);
    assert_eq!(
        summary.counters.check_identities(),
        Ok(()),
        "counter identity must balance"
    );
}

/// `deadline_ms: 0` expires in the queue: a deterministic, well-formed
/// `deadline_exceeded` response, never a hang.
#[test]
fn zero_deadline_yields_deadline_exceeded() {
    let image = gpa_minicc::compile_benchmark("crc", &gpa_minicc::Options::default())
        .unwrap()
        .to_bytes();
    let server = Server::start("127.0.0.1:0", fast_config()).unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    let doc = submit(
        &mut conn,
        "{\"validate\":\"off\",\"deadline_ms\":0}",
        &image,
    )
    .unwrap();
    let parsed = Json::parse(&doc).unwrap();
    assert_eq!(
        parsed.get("status").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    server.drain();
    let summary = server.join();
    assert_eq!(summary.counters.get("serve.deadline_exceeded"), 1);
    assert_eq!(summary.counters.get("serve.completed"), 0);
}

/// Malformed knobs are a completed (rejected) request with a
/// machine-readable error — the connection survives for the next one.
#[test]
fn bad_knobs_error_keeps_the_connection_usable() {
    let image = gpa_minicc::compile_benchmark("crc", &gpa_minicc::Options::default())
        .unwrap()
        .to_bytes();
    let server = Server::start("127.0.0.1:0", fast_config()).unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    // An unknown knob, and knobs nested far deeper than the JSON
    // parser's cap (100 kB, well under the frame cap).
    let nested = "[".repeat(100_000);
    for (knobs, error) in [
        ("{\"no_such_knob\":1}", "unknown knob"),
        (nested.as_str(), "nesting deeper than"),
    ] {
        let doc = submit(&mut conn, knobs, &image).unwrap();
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("error"));
        assert!(parsed
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains(error));
        // Same connection, now a valid request.
        let doc = submit(&mut conn, "{\"validate\":\"off\"}", &image).unwrap();
        assert_eq!(
            Json::parse(&doc)
                .unwrap()
                .get("status")
                .and_then(Json::as_str),
            Some("ok")
        );
    }
    server.drain();
    let summary = server.join();
    assert_eq!(summary.counters.get("serve.accepted"), 4);
    assert_eq!(summary.counters.get("serve.completed"), 4);
}

/// A request's `max_patterns` may lower the daemon's per-round budget
/// but never raise it: the budget is what bounds a round, and deadlines
/// are checked only between rounds.
#[test]
fn max_patterns_above_the_daemon_budget_is_rejected() {
    let image = gpa_minicc::compile_benchmark("crc", &gpa_minicc::Options::default())
        .unwrap()
        .to_bytes();
    let config = fast_config();
    let budget = config.run.max_patterns;
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    let status_for = |conn: &mut TcpStream, max_patterns: usize| {
        let knobs = format!("{{\"validate\":\"off\",\"max_patterns\":{max_patterns}}}");
        let doc = submit(conn, &knobs, &image).unwrap();
        let parsed = Json::parse(&doc).unwrap();
        (
            parsed
                .get("status")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned(),
            parsed
                .get("error")
                .and_then(Json::as_str)
                .map(str::to_owned),
        )
    };
    let (status, error) = status_for(&mut conn, budget + 1);
    assert_eq!(status, "error");
    assert!(error.unwrap().starts_with("knobs: max_patterns"));
    let (status, _) = status_for(&mut conn, budget - 1);
    assert_eq!(status, "ok");
    server.drain();
    let summary = server.join();
    assert_eq!(summary.counters.get("serve.accepted"), 2);
    assert_eq!(summary.counters.get("serve.completed"), 2);
}

/// A Shutdown frame acks `draining`, the server stops accepting, and
/// `join` returns with the identity balanced.
#[test]
fn shutdown_frame_drains_gracefully() {
    let image = gpa_minicc::compile_benchmark("crc", &gpa_minicc::Options::default())
        .unwrap()
        .to_bytes();
    let server = Server::start("127.0.0.1:0", fast_config()).unwrap();
    let addr = server.local_addr();
    let mut conn = TcpStream::connect(addr).unwrap();
    let doc = submit(&mut conn, "{\"validate\":\"off\"}", &image).unwrap();
    assert_eq!(
        Json::parse(&doc)
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );
    let mut shutdown_conn = TcpStream::connect(addr).unwrap();
    let ack = send_shutdown(&mut shutdown_conn).unwrap();
    assert_eq!(
        Json::parse(&ack)
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("draining")
    );
    assert!(server.draining());
    // New connections are refused (or reset) once the accept loop stops;
    // give it a beat to notice the flag.
    std::thread::sleep(Duration::from_millis(100));
    let summary = server.join();
    assert_eq!(summary.counters.get("serve.accepted"), 1);
    assert_eq!(summary.counters.get("serve.completed"), 1);
    assert_eq!(summary.counters.get("serve.shutdown_frames"), 1);
    assert_eq!(summary.counters.get("serve.in_flight_at_drain"), 0);
}
