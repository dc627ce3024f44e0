//! The resident optimization server: accept loop, bounded queue,
//! worker pool, live telemetry, graceful drain.
//!
//! Life of a request: a connection thread reads one frame, decodes the
//! knobs, assigns a process-unique request id, and counts it
//! `serve.accepted`. It then tries to enqueue a job on the *bounded*
//! queue — if the queue is full (or the server is draining) the
//! request is shed immediately with an `overloaded` (`draining`)
//! response and counted `serve.shed`; the client never waits behind
//! work the server cannot absorb. Otherwise a worker pops the job,
//! answers from the shared warm [`ReportCache`] or runs an optimizer
//! that owns the shared [`DfgCache`] block store, and replies through a
//! channel; the connection thread writes the response frame. Requests
//! whose deadline expired in the queue, or whose run was cut short by
//! the in-run deadline check, are counted `serve.deadline_exceeded` and
//! answered with a well-formed (possibly partial) document —
//! deadline-cut reports are never admitted to the cache.
//!
//! Live telemetry rides alongside: the lifecycle counters live in
//! [`ServeStats`] atomics (never a lock on the hot path), every
//! lifecycle transition and anomaly is recorded into the
//! [`FlightRecorder`] ring tagged with the request id, and Stats /
//! Dump admin frames answer a `gpa-stats/1` snapshot or a
//! `gpa-trace/1` dump at any time without pausing workers. A worker
//! panic is contained by `catch_unwind`: the request answers
//! `internal_error` (counted `serve.completed` plus
//! `serve.internal_errors`) and the daemon keeps serving — every lock
//! a panicking worker could poison is taken through a
//! recover-the-guard helper.
//!
//! Drain (SIGTERM, Ctrl-C, or a Shutdown frame) stops the accept loop
//! and the queue's intake; workers finish everything already queued, so
//! `serve.in_flight_at_drain` — jobs abandoned un-answered — is zero in
//! a graceful drain and the trace-check identity
//! `serve.accepted == serve.completed + serve.shed +
//! serve.deadline_exceeded + serve.in_flight_at_drain` holds over the
//! server's `gpa-trace/1` trace.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpa::json::Json;
use gpa::{image_cache_key, DfgCache, Method, Optimizer, Report, RunConfig, ValidateLevel};
use gpa_image::Image;
use gpa_pipeline::{CacheBudget, ReportCache, ShutdownFlag};
use gpa_trace::histogram::{LogHistogram, WindowedHistogram};
use gpa_trace::{CounterTracer, Counters, JsonlTracer, Tracer, Value};

use crate::proto::{decode_request, read_frame, write_frame, FrameError, FrameKind, SERVE_SCHEMA};
use crate::recorder::{FlightRecorder, DEFAULT_RECORDER_CAPACITY};
use crate::stats::{ServeStats, StatsSnapshot};

/// Rolling-window shape for the live latency histograms: 30 slots of
/// one second each, so a snapshot's `window` section covers the last
/// 30 seconds of traffic.
const WINDOW_SLOTS: usize = 30;
const WINDOW_SLOT_NS: u64 = 1_000_000_000;

/// Locks `m`, recovering the guard from a poisoned mutex instead of
/// panicking. Every lock the server shares across threads goes through
/// here: the guarded state (queue, histograms, counters) is kept
/// consistent by the *holders* — a panic mid-critical-section in a
/// worker is contained by its `catch_unwind`, and the data a panicking
/// holder could leave behind is at worst stale, never structurally
/// broken — so propagating the poison would only let one crashed job
/// cascade-kill the accept loop.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bound on the shared per-block [`DfgCache`] (entries): it covers the
/// working set of the bundled kernels and their edits (DESIGN.md §15).
const DFG_ENTRIES: usize = 1 << 10;

/// Tuning for one server instance.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Bounded queue capacity; a request arriving when `queue_depth`
    /// jobs are already waiting is shed with an `overloaded` response.
    pub queue_depth: usize,
    /// Default detection method (overridable per request).
    pub method: Method,
    /// Base optimizer tuning; per-request knobs override copies of it.
    pub run: RunConfig,
    /// Directory for the persistent report-cache layer; `None` keeps
    /// the warm cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Bound on the in-memory report-cache layer. Unlike batch, the
    /// default here is bounded — a resident process must not grow
    /// without limit.
    pub cache_budget: CacheBudget,
    /// Flight-recorder ring capacity in events.
    pub recorder_capacity: usize,
    /// `gpa-trace/1` JSONL trace of the server's lifetime; `None`
    /// disables tracing.
    pub trace_file: Option<PathBuf>,
    /// Drain trigger shared with the host (signals, Shutdown frames).
    pub shutdown: ShutdownFlag,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_depth: 32,
            method: Method::Edgar,
            run: RunConfig::default(),
            cache_dir: None,
            cache_budget: CacheBudget::bounded(4096, 256 << 20),
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
            trace_file: None,
            shutdown: ShutdownFlag::new(),
        }
    }
}

/// Per-request knob overrides, decoded from the request's JSON object.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RequestKnobs {
    method: Option<Method>,
    validate: Option<ValidateLevel>,
    deadline_ms: Option<u64>,
    max_rounds: Option<usize>,
    max_patterns: Option<usize>,
    /// Test-only: makes the worker panic inside `execute`, exercising
    /// the panic-containment path. Undocumented on purpose.
    test_panic: bool,
}

impl RequestKnobs {
    /// Strict parse: unknown keys and ill-typed values are errors, so a
    /// client typo degrades loudly instead of silently running with
    /// defaults.
    ///
    /// `budget` is the daemon's own per-round pattern budget. A request
    /// may lower it but never raise it: deadlines are checked only
    /// between rounds, so the budget is what bounds a round.
    fn parse(text: &str, budget: usize) -> Result<RequestKnobs, String> {
        let text = text.trim();
        if text.is_empty() {
            return Ok(RequestKnobs::default());
        }
        let doc = Json::parse(text).map_err(|e| format!("knobs: {e}"))?;
        let Json::Obj(pairs) = &doc else {
            return Err("knobs: expected a JSON object".into());
        };
        let mut knobs = RequestKnobs::default();
        for (key, value) in pairs {
            match key.as_str() {
                "method" => {
                    let method = value.as_str().and_then(Method::parse);
                    knobs.method =
                        Some(method.ok_or_else(|| format!("knobs: bad method {value}"))?);
                }
                "validate" => {
                    let level = value.as_str().and_then(ValidateLevel::parse);
                    knobs.validate =
                        Some(level.ok_or_else(|| format!("knobs: bad validate {value}"))?);
                }
                "deadline_ms" => {
                    let Some(ms) = value.as_int().filter(|&v| v >= 0) else {
                        return Err(format!("knobs: bad deadline_ms {value}"));
                    };
                    knobs.deadline_ms = Some(ms as u64);
                }
                "max_rounds" => {
                    let Some(n) = value.as_int().filter(|&v| v > 0) else {
                        return Err(format!("knobs: bad max_rounds {value}"));
                    };
                    knobs.max_rounds = Some(n as usize);
                }
                "max_patterns" => {
                    let Some(n) = value.as_int().filter(|&v| v > 0) else {
                        return Err(format!("knobs: bad max_patterns {value}"));
                    };
                    if n as u64 > budget as u64 {
                        return Err(format!(
                            "knobs: max_patterns {n} exceeds the daemon's budget {budget}"
                        ));
                    }
                    knobs.max_patterns = Some(n as usize);
                }
                "test_panic" => {
                    let Some(b) = value.as_bool() else {
                        return Err(format!("knobs: bad test_panic {value}"));
                    };
                    knobs.test_panic = b;
                }
                other => return Err(format!("knobs: unknown knob {other:?}")),
            }
        }
        Ok(knobs)
    }
}

/// Per-request measurements appended as the response's trailing
/// `"metrics"` object (everything before it is deterministic).
struct ResponseMetrics {
    cached: bool,
    degraded: bool,
    queue_ns: u64,
    run_ns: u64,
}

impl ResponseMetrics {
    fn none() -> ResponseMetrics {
        ResponseMetrics {
            cached: false,
            degraded: false,
            queue_ns: 0,
            run_ns: 0,
        }
    }
}

/// Builds the `gpa-serve/1` response document. Layout contract: the
/// `"metrics"` member is last, so stripping `,"metrics":.*` leaves the
/// deterministic section — the same convention the corpus report uses.
fn response_json(
    status: &str,
    report: Option<&Report>,
    error: Option<&str>,
    metrics: &ResponseMetrics,
) -> String {
    let mut doc = format!("{{\"schema\":\"{SERVE_SCHEMA}\",\"status\":\"{status}\"");
    if let Some(report) = report {
        doc.push_str(",\"report\":");
        doc.push_str(&report.to_json().to_string());
    }
    if let Some(error) = error {
        doc.push_str(",\"error\":");
        doc.push_str(&Json::from(error).to_string());
    }
    doc.push_str(&format!(
        ",\"metrics\":{{\"cached\":{},\"degraded\":{},\"queue_ns\":{},\"run_ns\":{}}}}}",
        metrics.cached, metrics.degraded, metrics.queue_ns, metrics.run_ns
    ));
    doc
}

/// One queued request.
struct Job {
    /// Process-unique request id threaded through the flight recorder.
    req: u64,
    knobs: RequestKnobs,
    image: Vec<u8>,
    enqueued_at: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<String>,
}

/// Queue intake outcomes.
enum Push {
    Ok,
    Full,
    Draining,
}

/// The rolling-window latency histograms (queue wait, run time,
/// end-to-end), behind one lock because every record touches all three.
struct Windows {
    queue: WindowedHistogram,
    run: WindowedHistogram,
    e2e: WindowedHistogram,
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
    config: ServeConfig,
    /// Resolved worker-pool size (config's `0` already expanded).
    workers: usize,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    tracer: Arc<dyn Tracer>,
    stats: Arc<ServeStats>,
    recorder: Arc<FlightRecorder>,
    report_cache: ReportCache,
    dfg_cache: Arc<DfgCache>,
    queue_hist: Mutex<LogHistogram>,
    run_hist: Mutex<LogHistogram>,
    e2e_hist: Mutex<LogHistogram>,
    windows: Mutex<Windows>,
    /// Optimizer trace counters summed over every non-cached run (kept
    /// out of the server trace: its event-count identities only hold
    /// for counters whose events are in the same stream).
    job_counters: Mutex<Counters>,
}

impl Shared {
    fn try_push(&self, job: Job) -> Push {
        if self.config.shutdown.is_raised() {
            return Push::Draining;
        }
        let mut queue = lock_recover(&self.queue);
        if queue.len() >= self.config.queue_depth {
            return Push::Full;
        }
        queue.push_back(job);
        self.stats.queue_enter();
        drop(queue);
        // Wake exactly one idle worker; the gauge was bumped under the
        // queue lock so a snapshot between push and wake still accounts
        // the job as queued.
        self.available.notify_one();
        Push::Ok
    }

    /// Pops the next job, blocking until one arrives or the server is
    /// draining *and* the queue is empty (graceful drain finishes all
    /// queued work).
    fn pop(&self) -> Option<Job> {
        let mut queue = lock_recover(&self.queue);
        loop {
            if let Some(job) = queue.pop_front() {
                self.stats.queue_exit();
                return Some(job);
            }
            if self.config.shutdown.is_raised() {
                return None;
            }
            // `try_push` and `request_drain` both notify, so an idle
            // worker wakes immediately; the bounded wait is only a
            // fallback for an embedder that raises the shutdown flag
            // directly (e.g. from a signal handler) without calling
            // `Server::drain`, since a signal context cannot notify.
            let (guard, _) = self
                .available
                .wait_timeout(queue, Duration::from_secs(1))
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
        }
    }

    /// Raises the drain flag and wakes every waiter, without the lost
    /// wakeup: taking the queue lock between raise and notify means any
    /// worker that checked the flag before the raise is already parked
    /// in `wait_timeout` (it held the lock from check to wait), so the
    /// notify reaches it.
    fn request_drain(&self) {
        self.config.shutdown.raise();
        let guard = lock_recover(&self.queue);
        drop(guard);
        self.available.notify_all();
    }

    /// One consistent `gpa-stats/1` snapshot of the live state.
    fn snapshot(&self) -> StatsSnapshot {
        let now_ns = self.stats.now_ns();
        let gauges = self.stats.gauges();
        let (window, window_ns) = {
            let mut windows = lock_recover(&self.windows);
            (
                [
                    windows.queue.merged(now_ns),
                    windows.run.merged(now_ns),
                    windows.e2e.merged(now_ns),
                ],
                windows.queue.window_ns(),
            )
        };
        let lifetime = [
            lock_recover(&self.queue_hist).clone(),
            lock_recover(&self.run_hist).clone(),
            lock_recover(&self.e2e_hist).clone(),
        ];
        StatsSnapshot {
            uptime_ns: now_ns,
            workers: self.workers,
            queue_depth: self.config.queue_depth,
            gauges,
            counters: self.stats.counter_values().to_vec(),
            job_counters: lock_recover(&self.job_counters).clone(),
            window_ns,
            lifetime,
            window,
            report_hits: self.report_cache.hits(),
            report_misses: self.report_cache.misses(),
            report_evicted: self.report_cache.evicted(),
            report_entries: self.report_cache.entries(),
            report_bytes: self.report_cache.bytes(),
            report_budget: self.config.cache_budget,
            dfg_entries: self.dfg_cache.len(),
            dfg_hits: self.dfg_cache.hits(),
            dfg_misses: self.dfg_cache.misses(),
            dfg_evicted: self.dfg_cache.evicted(),
            recorder_events: self.recorder.len(),
            recorder_dropped: self.recorder.dropped(),
            recorder_capacity: self.recorder.capacity(),
        }
    }
}

/// End-of-life accounting returned by [`Server::join`].
pub struct ServeSummary {
    /// Final trace counters (the `serve.*` family).
    pub counters: Counters,
    /// Optimizer counters summed over every non-cached run.
    pub job_counters: Counters,
    /// Queue-wait latency distribution.
    pub queue_hist: LogHistogram,
    /// Optimize/cache-lookup latency distribution.
    pub run_hist: LogHistogram,
    /// End-to-end (enqueue to reply) latency distribution.
    pub e2e_hist: LogHistogram,
    /// Warm report-cache statistics: (hits, misses, evicted).
    pub report_cache: (u64, u64, u64),
    /// Shared DFG-cache statistics: (hits, misses, evicted).
    pub dfg_cache: (u64, u64, u64),
}

/// A running server; dropping it without [`Server::join`] detaches the
/// threads.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `listen` (e.g. `127.0.0.1:0`) and starts the accept loop
    /// and worker pool.
    ///
    /// # Errors
    ///
    /// Bind/configuration failures, and cache/trace file creation
    /// failures.
    pub fn start(listen: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let tracer: Arc<dyn Tracer> = match &config.trace_file {
            Some(path) => Arc::new(JsonlTracer::to_file(path)?),
            None => Arc::new(CounterTracer::new()),
        };
        let report_cache = match &config.cache_dir {
            Some(dir) => ReportCache::with_dir_budget(dir, config.cache_budget)?,
            None => ReportCache::with_budget(config.cache_budget),
        };
        let dfg_cache = Arc::new(DfgCache::bounded(DFG_ENTRIES));
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        let recorder = Arc::new(FlightRecorder::new(config.recorder_capacity));
        let shared = Arc::new(Shared {
            workers: worker_count,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            tracer,
            stats: Arc::new(ServeStats::new()),
            recorder,
            report_cache,
            dfg_cache,
            queue_hist: Mutex::new(LogHistogram::default()),
            run_hist: Mutex::new(LogHistogram::default()),
            e2e_hist: Mutex::new(LogHistogram::default()),
            windows: Mutex::new(Windows {
                queue: WindowedHistogram::new(WINDOW_SLOTS, WINDOW_SLOT_NS),
                run: WindowedHistogram::new(WINDOW_SLOTS, WINDOW_SLOT_NS),
                e2e: WindowedHistogram::new(WINDOW_SLOTS, WINDOW_SLOT_NS),
            }),
            job_counters: Mutex::new(Counters::default()),
            config,
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            shared,
            local_addr,
            accept,
            workers,
        })
    }

    /// The bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests a graceful drain: stop accepting, finish queued work.
    pub fn drain(&self) {
        self.shared.request_drain();
    }

    /// Whether a drain has been requested (signal, Shutdown frame, or
    /// [`Server::drain`]).
    pub fn draining(&self) -> bool {
        self.shared.config.shutdown.is_raised()
    }

    /// The current `gpa-stats/1` snapshot as a JSON string — the same
    /// document a Stats frame answers, for embedders and tests.
    pub fn stats_json(&self) -> String {
        self.shared.snapshot().to_json_string()
    }

    /// The flight recorder's current contents as a `gpa-trace/1` JSONL
    /// document — the same payload a Dump frame answers.
    pub fn dump_trace(&self) -> String {
        self.shared.recorder.dump()
    }

    /// Waits for the accept loop, connections and workers to finish,
    /// then closes the trace and returns the final accounting. Call
    /// [`Server::drain`] first (or deliver a signal / Shutdown frame);
    /// `join` alone never initiates a stop.
    pub fn join(self) -> ServeSummary {
        let _ = self.accept.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        let shared = &self.shared;
        // Workers drained everything they could; whatever is still
        // queued was abandoned un-answered. Counted even when zero so
        // the trace-check identity always has all four terms. The
        // lifetime counters lived in atomics; they land in the tracer
        // here, once, so the trace's counter summary matches the stats
        // snapshots without ever contending with the hot path.
        let abandoned = lock_recover(&shared.queue).len() as u64;
        let gauges = shared.stats.gauges();
        shared.tracer.count("serve.in_flight_at_drain", abandoned);
        shared.tracer.count("serve.completed", gauges.completed);
        shared.tracer.count("serve.shed", gauges.shed);
        shared
            .tracer
            .count("serve.deadline_exceeded", gauges.deadline_exceeded);
        shared.tracer.count("serve.accepted", gauges.accepted);
        for (name, total) in shared.stats.counter_values() {
            if total > 0 {
                shared.tracer.count(name, total);
            }
        }
        shared.tracer.finish();
        ServeSummary {
            counters: shared.tracer.counters(),
            job_counters: lock_recover(&shared.job_counters).clone(),
            queue_hist: lock_recover(&shared.queue_hist).clone(),
            run_hist: lock_recover(&shared.run_hist).clone(),
            e2e_hist: lock_recover(&shared.e2e_hist).clone(),
            report_cache: (
                shared.report_cache.hits(),
                shared.report_cache.misses(),
                shared.report_cache.evicted(),
            ),
            dfg_cache: (
                shared.dfg_cache.hits(),
                shared.dfg_cache.misses(),
                shared.dfg_cache.evicted(),
            ),
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.config.shutdown.is_raised() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                connections.push(std::thread::spawn(move || {
                    connection_loop(stream, &shared);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
        // Reap finished connection threads so a long-lived server does
        // not accumulate handles.
        connections.retain(|handle| !handle.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Serves one connection in request/response lockstep.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // Short poll timeout so the thread notices a drain promptly even
    // while idle; raised for the actual frame read below.
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let mut stream = stream;
    loop {
        if shared.config.shutdown.is_raised() {
            // Lockstep: at the top of the loop no response is owed.
            return;
        }
        // Wait for data without consuming it, so a poll timeout can
        // never strand a half-read frame.
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // client closed
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let frame = read_frame(&mut stream);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        match frame {
            Ok((FrameKind::Request, payload)) => {
                if !handle_request(&mut stream, shared, &payload) {
                    return;
                }
            }
            Ok((FrameKind::Stats, _)) => {
                // Admin query: answer inline (a snapshot never blocks on
                // the queue) and keep the connection open for polling.
                shared.stats.count_stats_frame();
                let doc = shared.snapshot().to_json_string();
                if write_frame(&mut stream, FrameKind::Response, doc.as_bytes()).is_err() {
                    return;
                }
            }
            Ok((FrameKind::Dump, _)) => {
                shared.stats.count_dump_frame();
                let doc = shared.recorder.dump();
                if write_frame(&mut stream, FrameKind::Response, doc.as_bytes()).is_err() {
                    return;
                }
            }
            Ok((FrameKind::Shutdown, _)) => {
                shared.stats.count_shutdown_frame();
                // Raise before acking: a client that saw the ack must be
                // able to observe the server as draining.
                shared.request_drain();
                let doc = response_json("draining", None, None, &ResponseMetrics::none());
                let _ = write_frame(&mut stream, FrameKind::Response, doc.as_bytes());
                return;
            }
            Ok((FrameKind::Response, _)) => {
                // A client must never send Response frames.
                shared.stats.count_protocol_error();
                return;
            }
            Err(FrameError::Eof) => return,
            Err(_) => {
                shared.stats.count_protocol_error();
                return;
            }
        }
    }
}

/// Handles one decoded Request frame; returns whether the connection
/// should stay open.
fn handle_request(stream: &mut TcpStream, shared: &Arc<Shared>, payload: &[u8]) -> bool {
    let no_work = ResponseMetrics::none();
    let request = match decode_request(payload) {
        Ok(request) => request,
        Err(_) => {
            shared.stats.count_protocol_error();
            return false;
        }
    };
    let req = shared.stats.next_req_id();
    shared.stats.count_accepted();
    shared.recorder.record(
        "serve.request",
        shared.stats.now_ns(),
        req,
        &[("bytes", Value::from(request.image.len()))],
    );
    let knobs = match RequestKnobs::parse(&request.knobs, shared.config.run.max_patterns) {
        Ok(knobs) => knobs,
        Err(message) => {
            // A malformed knob is a completed (rejected) request, not a
            // protocol error: the frame itself was well-formed.
            shared.stats.count_completed();
            shared.recorder.record(
                "serve.anomaly",
                shared.stats.now_ns(),
                req,
                &[
                    ("reason", Value::from("bad_knobs")),
                    ("detail", Value::from(message.as_str())),
                ],
            );
            let doc = response_json("error", None, Some(&message), &no_work);
            return write_frame(stream, FrameKind::Response, doc.as_bytes()).is_ok();
        }
    };
    let deadline = knobs
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let (reply, inbox) = mpsc::channel();
    let job = Job {
        req,
        knobs,
        image: request.image,
        enqueued_at: Instant::now(),
        deadline,
        reply,
    };
    let doc = match shared.try_push(job) {
        Push::Ok => match inbox.recv() {
            Ok(doc) => doc,
            // The worker dropped the job without replying (never in a
            // graceful drain; this is the crash-path fallback).
            Err(_) => {
                shared.recorder.record(
                    "serve.anomaly",
                    shared.stats.now_ns(),
                    req,
                    &[("reason", Value::from("abandoned"))],
                );
                response_json("error", None, Some("request abandoned"), &no_work)
            }
        },
        Push::Full => {
            shared.stats.count_shed();
            shared.recorder.record(
                "serve.anomaly",
                shared.stats.now_ns(),
                req,
                &[("reason", Value::from("shed_overloaded"))],
            );
            response_json("overloaded", None, None, &no_work)
        }
        Push::Draining => {
            shared.stats.count_shed();
            shared.recorder.record(
                "serve.anomaly",
                shared.stats.now_ns(),
                req,
                &[("reason", Value::from("shed_draining"))],
            );
            response_json("draining", None, None, &no_work)
        }
    };
    write_frame(stream, FrameKind::Response, doc.as_bytes()).is_ok()
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.pop() {
        let queue_ns = gpa_trace::saturating_ns(job.enqueued_at.elapsed());
        lock_recover(&shared.queue_hist).record(queue_ns);
        shared.recorder.record(
            "serve.dequeue",
            shared.stats.now_ns(),
            job.req,
            &[("queue_ns", Value::from(queue_ns))],
        );
        let run_started = Instant::now();
        // Contain a panicking job: the worker answers `internal_error`
        // and lives on to serve the next request.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(shared, &job)));
        let (status, report, error, cached, degraded) = match outcome {
            Ok(tuple) => tuple,
            Err(_) => {
                shared.stats.count_internal_error();
                (
                    "internal_error",
                    None,
                    Some("worker panicked while optimizing".to_owned()),
                    false,
                    false,
                )
            }
        };
        let run_ns = gpa_trace::saturating_ns(run_started.elapsed());
        let e2e_ns = gpa_trace::saturating_ns(job.enqueued_at.elapsed());
        lock_recover(&shared.run_hist).record(run_ns);
        lock_recover(&shared.e2e_hist).record(e2e_ns);
        {
            let now_ns = shared.stats.now_ns();
            let mut windows = lock_recover(&shared.windows);
            windows.queue.record(now_ns, queue_ns);
            windows.run.record(now_ns, run_ns);
            windows.e2e.record(now_ns, e2e_ns);
        }
        if status == "deadline_exceeded" {
            shared.stats.count_deadline_exceeded();
        } else {
            shared.stats.count_completed();
        }
        if status != "ok" {
            shared.recorder.record(
                "serve.anomaly",
                shared.stats.now_ns(),
                job.req,
                &[("reason", Value::from(status))],
            );
        }
        shared.recorder.record(
            "serve.reply",
            shared.stats.now_ns(),
            job.req,
            &[
                ("status", Value::from(status)),
                ("run_ns", Value::from(run_ns)),
                ("cached", Value::from(cached)),
            ],
        );
        let metrics = ResponseMetrics {
            cached,
            degraded,
            queue_ns,
            run_ns,
        };
        let doc = response_json(status, report.as_ref(), error.as_deref(), &metrics);
        // A vanished client cannot invalidate the accounting above.
        let _ = job.reply.send(doc);
    }
}

/// A per-job tracer: aggregates the optimizer's counters (merged into
/// the server-wide `job_counters` afterwards) and mirrors its *events*
/// into the flight recorder tagged with the request id, so a dump
/// shows the optimizer's anomalies (validator failures, budget
/// exhaustion) attributed to the request that caused them.
#[derive(Debug)]
struct RecordingTracer {
    counters: CounterTracer,
    recorder: Arc<FlightRecorder>,
    stats: Arc<ServeStats>,
    req: u64,
}

impl Tracer for RecordingTracer {
    fn count(&self, counter: &'static str, delta: u64) {
        self.counters.count(counter, delta);
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        self.counters.event(name, fields);
        self.recorder
            .record(name, self.stats.now_ns(), self.req, fields);
    }

    fn enabled(&self) -> bool {
        true
    }

    fn counters(&self) -> Counters {
        self.counters.counters()
    }
}

/// Runs one job to a (status, report, error, cached, degraded) tuple.
fn execute(
    shared: &Arc<Shared>,
    job: &Job,
) -> (&'static str, Option<Report>, Option<String>, bool, bool) {
    if job.knobs.test_panic {
        panic!("test_panic knob raised");
    }
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        // Expired while queued: answer without burning worker time.
        return ("deadline_exceeded", None, None, false, false);
    }
    let image = match Image::from_bytes(&job.image) {
        Ok(image) => image,
        Err(e) => return ("error", None, Some(e.to_string()), false, false),
    };
    let method = job.knobs.method.unwrap_or(shared.config.method);
    let job_tracer = Arc::new(RecordingTracer {
        counters: CounterTracer::new(),
        recorder: Arc::clone(&shared.recorder),
        stats: Arc::clone(&shared.stats),
        req: job.req,
    });
    let base = &shared.config.run;
    let run = RunConfig {
        validate: job.knobs.validate.unwrap_or(base.validate),
        max_rounds: job.knobs.max_rounds.unwrap_or(base.max_rounds),
        max_patterns: job.knobs.max_patterns.unwrap_or(base.max_patterns),
        deadline: job.deadline,
        tracer: Arc::clone(&job_tracer) as Arc<dyn Tracer>,
        ..base.clone()
    };
    // The key ignores tracer and deadline, so warm lookups hit across
    // requests regardless of per-request deadlines.
    let key = image_cache_key(&image, method, &run);
    if let Some(report) = shared.report_cache.get_traced(key, shared.tracer.as_ref()) {
        return ("ok", Some(report), None, true, false);
    }
    let mut optimizer = match Optimizer::from_image_configured(&image, &run) {
        Ok(optimizer) => optimizer.with_store(Arc::clone(&shared.dfg_cache)),
        Err(e) => return ("error", None, Some(e.to_string()), false, false),
    };
    let outcome = optimizer.run_with(method, &run);
    lock_recover(&shared.job_counters).merge(&job_tracer.counters());
    match outcome {
        Ok(report) => {
            let degraded = job_tracer.counters().get("run.deadline_stopped") > 0;
            if degraded {
                // A deadline-cut report is valid but partial; caching it
                // would poison warm lookups for undegraded requests.
                ("deadline_exceeded", Some(report), None, false, true)
            } else {
                shared
                    .report_cache
                    .put_traced(key, &report, shared.tracer.as_ref());
                ("ok", Some(report), None, false, false)
            }
        }
        Err(e) => ("error", None, Some(e.to_string()), false, false),
    }
}

/// A blocking single-shot client for tests, the load generator and
/// `gpa submit`: sends one request frame and decodes one response.
///
/// # Errors
///
/// Transport and framing failures, or a non-Response reply.
pub fn submit(stream: &mut TcpStream, knobs: &str, image: &[u8]) -> Result<String, FrameError> {
    let payload = crate::proto::encode_request(knobs, image);
    write_frame(stream, FrameKind::Request, &payload).map_err(|e| FrameError::Io(e.kind()))?;
    read_response(stream)
}

/// Sends a Shutdown frame and waits for the `draining` ack.
///
/// # Errors
///
/// Transport and framing failures.
pub fn send_shutdown(stream: &mut TcpStream) -> Result<String, FrameError> {
    write_frame(stream, FrameKind::Shutdown, &[]).map_err(|e| FrameError::Io(e.kind()))?;
    let (_, body) = read_frame(stream)?;
    String::from_utf8(body).map_err(|_| FrameError::Truncated)
}

/// Sends a Stats frame and returns the `gpa-stats/1` snapshot JSON.
/// The connection stays usable afterwards (poll in a loop for `gpa
/// top`).
///
/// # Errors
///
/// Transport and framing failures, or a non-Response reply.
pub fn fetch_stats(stream: &mut TcpStream) -> Result<String, FrameError> {
    write_frame(stream, FrameKind::Stats, &[]).map_err(|e| FrameError::Io(e.kind()))?;
    read_response(stream)
}

/// Sends a Dump frame and returns the flight recorder's `gpa-trace/1`
/// JSONL document. The connection stays usable afterwards.
///
/// # Errors
///
/// Transport and framing failures, or a non-Response reply.
pub fn fetch_dump(stream: &mut TcpStream) -> Result<String, FrameError> {
    write_frame(stream, FrameKind::Dump, &[]).map_err(|e| FrameError::Io(e.kind()))?;
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> Result<String, FrameError> {
    let (kind, body) = read_frame(stream)?;
    if kind != FrameKind::Response {
        return Err(FrameError::BadKind(0));
    }
    String::from_utf8(body).map_err(|_| FrameError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pattern budget the knob tests parse against.
    const BUDGET: usize = gpa::DEFAULT_MAX_PATTERNS;

    #[test]
    fn knobs_parse_defaults_and_overrides() {
        let parse = |text: &str| RequestKnobs::parse(text, BUDGET);
        assert_eq!(parse("").unwrap(), RequestKnobs::default());
        assert_eq!(parse("{}").unwrap(), RequestKnobs::default());
        let parsed = parse(
            "{\"method\":\"sfx\",\"validate\":\"off\",\"deadline_ms\":250,\
             \"max_rounds\":3,\"max_patterns\":1000}",
        )
        .unwrap();
        assert_eq!(parsed.method, Some(Method::Sfx));
        assert_eq!(parsed.validate, Some(ValidateLevel::Off));
        assert_eq!(parsed.deadline_ms, Some(250));
        assert_eq!(parsed.max_rounds, Some(3));
        assert_eq!(parsed.max_patterns, Some(1000));
        assert!(!parsed.test_panic);
        assert!(parse("{\"test_panic\":true}").unwrap().test_panic);
    }

    #[test]
    fn knobs_parse_rejects_unknown_and_illtyped() {
        let parse = |text: &str| RequestKnobs::parse(text, BUDGET);
        assert!(parse("{\"metod\":\"sfx\"}").is_err());
        assert!(parse("{\"deadline_ms\":-1}").is_err());
        assert!(parse("{\"max_rounds\":0}").is_err());
        assert!(parse("{\"test_panic\":1}").is_err());
        assert!(parse("[1,2]").is_err());
        assert!(parse("not json").is_err());
        // A request may lower the daemon's pattern budget, never raise it.
        let max_patterns = |n: usize| format!("{{\"max_patterns\":{n}}}");
        assert_eq!(
            parse(&max_patterns(BUDGET)).unwrap().max_patterns,
            Some(BUDGET)
        );
        assert!(parse(&max_patterns(BUDGET + 1)).is_err());
    }

    #[test]
    fn response_layout_has_trailing_metrics() {
        let metrics = ResponseMetrics {
            cached: true,
            degraded: false,
            queue_ns: 7,
            run_ns: 9,
        };
        let doc = response_json("ok", None, None, &metrics);
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(SERVE_SCHEMA)
        );
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
        // The deterministic prefix is everything before `,"metrics"`.
        let cut = doc.find(",\"metrics\"").unwrap();
        assert_eq!(&doc[..cut], "{\"schema\":\"gpa-serve/1\",\"status\":\"ok\"");
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("cached"))
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn lock_recover_recovers_a_poisoned_mutex() {
        let shared = Arc::new(Mutex::new(7u32));
        let clone = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(shared.lock().is_err(), "mutex must actually be poisoned");
        assert_eq!(*lock_recover(&shared), 7);
    }
}
