//! Resident optimization service (`gpa serve`).
//!
//! `gpa batch` answers "optimize this corpus once"; a toolchain that
//! re-optimizes the same images as they evolve wants a *resident*
//! process whose caches stay warm between requests. This crate is that
//! process:
//!
//! * **Wire protocol** ([`proto`]) — `gpa-serve/1`, a hand-rolled
//!   length-prefixed frame format (magic, version, kind, u32 length).
//!   Requests carry per-request knobs JSON plus raw image bytes;
//!   responses carry a JSON document whose deterministic section
//!   matches a single-shot `gpa optimize` of the same image
//!   byte-for-byte. Every decode failure has a distinct error code.
//! * **Bounded queue with explicit backpressure** — at most
//!   [`ServeConfig::queue_depth`] requests wait; beyond that the server
//!   answers `overloaded` immediately (`serve.shed`) instead of letting
//!   latency grow without bound.
//! * **Worker pool over warm caches** — workers reuse the batch
//!   pipeline's [`gpa_pipeline::ReportCache`] (bounded by a
//!   [`gpa_pipeline::CacheBudget`], LRU-evicted) and hand every
//!   optimizer the same bounded [`gpa::DfgCache`] block store, so repeat
//!   images answer from memory and repeat blocks are not rebuilt.
//! * **Deadlines** — a per-request `deadline_ms` maps onto the
//!   optimizer's cooperative deadline and per-round pattern budget;
//!   overrunning requests return a well-formed partial document with
//!   status `deadline_exceeded`, and never hang or poison the cache.
//! * **Graceful drain** — SIGINT/SIGTERM or a Shutdown frame stops
//!   intake, finishes queued work, then exits; the serve rows of
//!   [`gpa_trace::identity::IDENTITIES`] audit that no request was
//!   dropped on the floor.
//! * **Live telemetry** — a Stats admin frame answers a `gpa-stats/1`
//!   snapshot ([`ServeStats`]: lock-free counters and gauges, windowed
//!   latency histograms, cache occupancy) without pausing workers, and
//!   a Dump frame spills the in-memory [`FlightRecorder`] as
//!   `gpa-trace/1` JSONL so postmortems don't require having run with
//!   `--trace` on.
//!
//! # Examples
//!
//! ```
//! use gpa_serve::{submit, ServeConfig, Server};
//!
//! let image = gpa_minicc::compile_benchmark("crc", &gpa_minicc::Options::default())?;
//! let server = Server::start("127.0.0.1:0", ServeConfig::default())?;
//! let mut conn = std::net::TcpStream::connect(server.local_addr())?;
//! let reply = submit(&mut conn, "{\"validate\":\"off\"}", &image.to_bytes())?;
//! assert!(reply.contains("\"status\":\"ok\""));
//! server.drain();
//! let summary = server.join();
//! assert_eq!(summary.counters.get("serve.accepted"), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod proto;
mod recorder;
mod server;
mod stats;

pub use proto::{
    decode_request, encode_request, read_frame, write_frame, FrameError, FrameKind, Request,
    HEADER_LEN, MAGIC, MAX_FRAME_LEN, MIN_VERSION, SERVE_SCHEMA, STATS_SCHEMA, VERSION,
};
pub use recorder::{FlightRecorder, DEFAULT_RECORDER_CAPACITY};
pub use server::{
    fetch_dump, fetch_stats, send_shutdown, submit, ServeConfig, ServeSummary, Server,
};
pub use stats::{check_snapshot_identity, Gauges, ServeStats, StatsSnapshot};
