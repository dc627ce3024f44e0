//! `gpa` — the command-line driver for the procedural-abstraction
//! toolchain.
//!
//! ```text
//! gpa compile <source.mc> -o <out.img> [--no-sched]   MiniC → linked image
//! gpa build-bench <name> -o <out.img> [--no-sched] [--edits N] [--seed S] [--sched-seed X]
//!                                                     build a bundled benchmark image,
//!                                                     optionally with injected source edits
//! gpa run <image> [--input <file>]                    execute in the emulator
//! gpa dis <image>                                     lifted assembly listing
//! gpa stats <image> [--json]                          DFG degree statistics
//! gpa stats --addr <addr> [--dump FILE]               live gpa-stats/1 snapshot from a daemon
//! gpa top --addr <addr> [--interval-ms N] [--iterations N]   live serve dashboard
//! gpa lint <image> [--json]                           static binary lints
//! gpa absint <image>                                  abstract-interpretation dump
//! gpa optimize <image> -o <out.img> [--method sfx|dgspan|edgar] [--validate off|final|every-round] [--alias off|stack] [--jobs N] [--trace out.jsonl] [--report-json out.json]
//!                                                     optimize one image on one thread
//!                                                     (`--jobs` is accepted and ignored)
//! gpa batch <dir|files...> [--jobs N] [--cache-dir D] [--cache-entries N] [--cache-bytes N] [--trace-dir D] [--method sfx|dgspan|edgar] [--validate] [--report out.json]
//! gpa serve --listen <addr> [--workers N] [--queue-depth N] [--method M] [--cache-dir D] [--cache-entries N] [--cache-bytes N] [--trace out.jsonl]
//! gpa submit <image> --addr <addr> [--knobs JSON] [--report-only]
//! gpa perf [-o bench.json] [--methods a,b] [--kernels a,b] [--jobs N] [--no-sched] [--validate L] [--alias off|stack] [--profile] [--baseline FILE] [--tolerance-pct N] [--compare FILE]
//! gpa trace-check <trace.jsonl...>                    validate trace streams
//! gpa trace-profile <trace.jsonl...>                  aggregate span profile
//! ```
//!
//! # Exit codes
//!
//! Most commands exit `0` on success and `1` on any error. Two commands
//! distinguish their failure classes:
//!
//! * `gpa perf --baseline`: `2` — a *hard* compression regression (or a
//!   kernel/method missing vs the baseline); `3` — only *soft* latency
//!   drift beyond `--tolerance-pct`.
//! * `gpa trace-check`: `2` — I/O error; `3` — schema violation (bad
//!   JSON, missing header/summary, malformed event line, a snapshot
//!   without its gauges); `4` — an event's line count disagrees with
//!   its counter; `4` or `5` — a counter identity is broken, with the
//!   class its row in `gpa_trace::identity::IDENTITIES` gives (`5` for
//!   serve request accounting).
//!   `gpa-stats/1` snapshot files (as written by `gpa stats --addr`)
//!   are accepted too and checked against the live serve row.
//!
//! `gpa batch` exits `130` when interrupted (SIGINT/SIGTERM): in-flight
//! images finish, the partial report carries `"interrupted": true`.
//! `gpa submit` exits `0` only for an `ok` response.

use std::process::ExitCode;
use std::sync::Arc;

use gpa::json::Json;
use gpa::{AliasLevel, Method, Optimizer, RunConfig, ValidateLevel};
use gpa_emu::Machine;
use gpa_image::Image;
use gpa_pipeline::{expand_inputs, run_batch, BatchConfig, CacheBudget, ShutdownFlag};
use gpa_trace::identity::{Form, IdentityError};
use gpa_trace::{JsonlTracer, TRACE_SCHEMA};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("gpa: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(ExitCode::FAILURE);
    };
    let rest = &args[1..];
    match command.as_str() {
        "compile" => compile(rest),
        "build-bench" => bench(rest),
        "run" => run_image(rest),
        "dis" => disassemble(rest),
        "stats" => stats(rest),
        "lint" => lint(rest),
        "absint" => absint_dump(rest),
        "optimize" => optimize(rest),
        "batch" => batch_run(rest),
        "serve" => serve(rest),
        "submit" => submit(rest),
        "top" => top(rest),
        "perf" => perf(rest),
        "trace-check" => trace_check(rest),
        "trace-profile" => trace_profile(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}` (try `gpa help`)")),
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         gpa compile <source.mc> -o <out.img> [--no-sched]\n  \
         gpa build-bench <name> -o <out.img> [--no-sched] [--edits N] [--seed S] \
         [--sched-seed X]\n  \
         gpa run <image> [--input <file>]\n  \
         gpa dis <image>\n  \
         gpa stats <image> [--json]\n  \
         gpa stats --addr <addr> [--dump FILE]\n  \
         gpa top --addr <addr> [--interval-ms N] [--iterations N]\n  \
         gpa lint <image> [--json]\n  \
         gpa absint <image>\n  \
         gpa optimize <image> -o <out.img> [--method sfx|dgspan|edgar] \
         [--validate off|final|every-round] [--alias off|stack] [--jobs N] \
         [--trace out.jsonl] [--report-json out.json]\n    \
         (one image, one thread: --jobs is accepted and ignored)\n  \
         gpa batch <dir|files...> [--jobs N] [--cache-dir D] [--cache-entries N] \
         [--cache-bytes N] [--trace-dir D] \
         [--method sfx|dgspan|edgar] [--validate] [--report out.json]\n  \
         gpa serve --listen <addr> [--workers N] [--queue-depth N] \
         [--method sfx|dgspan|edgar] [--validate off|final|every-round] \
         [--cache-dir D] [--cache-entries N] [--cache-bytes N] [--trace out.jsonl]\n  \
         gpa submit <image> --addr <addr> [--knobs JSON] [--report-only]\n  \
         gpa perf [-o bench.json] [--methods a,b] [--kernels a,b] [--jobs N] \
         [--no-sched] [--validate off|final|every-round] [--alias off|stack] \
         [--profile] [--baseline FILE] [--tolerance-pct N] [--compare FILE]\n  \
         gpa trace-check <trace.jsonl...>\n  \
         gpa trace-profile <trace.jsonl...>"
    );
}

/// Extracts `-o <path>` from an argument list, returning (path, rest).
fn take_output(args: &[String]) -> Result<(String, Vec<String>), String> {
    let mut rest = Vec::new();
    let mut output = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "-o" {
            output = Some(
                iter.next()
                    .ok_or_else(|| "-o requires a path".to_owned())?
                    .clone(),
            );
        } else {
            rest.push(a.clone());
        }
    }
    Ok((
        output.ok_or_else(|| "missing -o <out.img>".to_owned())?,
        rest,
    ))
}

fn load_image(path: &str) -> Result<Image, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    Image::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn save_image(image: &Image, path: &str) -> Result<(), String> {
    std::fs::write(path, image.to_bytes()).map_err(|e| format!("{path}: {e}"))
}

fn compile(args: &[String]) -> Result<ExitCode, String> {
    let (output, rest) = take_output(args)?;
    let schedule = !rest.iter().any(|a| a == "--no-sched");
    let source_path = rest
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| "missing source file".to_owned())?;
    let source = std::fs::read_to_string(source_path).map_err(|e| format!("{source_path}: {e}"))?;
    let image = gpa_minicc::compile(
        &source,
        &gpa_minicc::Options {
            schedule,
            ..gpa_minicc::Options::default()
        },
    )
    .map_err(|e| e.to_string())?;
    save_image(&image, &output)?;
    println!(
        "compiled {source_path}: {} code words, {} data bytes -> {output}",
        image.code_len(),
        image.data_bytes().len()
    );
    Ok(ExitCode::SUCCESS)
}

/// `gpa build-bench`: compiles a bundled benchmark kernel to an image.
///
/// The edit-corpus knobs generate *variants* of a kernel, the inputs of
/// the benchmark's edit workloads and of verify.sh's cross-image DFG
/// reuse gate: `--edits N --seed S` injects N deterministic statement
/// edits into the kernel source before compiling (the "developer
/// touched a function" image), and `--sched-seed X` reruns the list
/// scheduler with a different tie-break seed (the "slightly different
/// toolchain" image — same computations, reordered blocks everywhere).
fn bench(args: &[String]) -> Result<ExitCode, String> {
    let (output, rest) = take_output(args)?;
    let schedule = !rest.iter().any(|a| a == "--no-sched");
    let mut edits = 0usize;
    let mut seed = 0u64;
    let mut sched_seed = 0u64;
    let mut name = None;
    let mut iter = rest.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--no-sched" => {}
            "--edits" => edits = take_count(&mut iter, "--edits")?,
            "--seed" => seed = take_count(&mut iter, "--seed")? as u64,
            "--sched-seed" => sched_seed = take_count(&mut iter, "--sched-seed")? as u64,
            other if !other.starts_with("--") => name = Some(other.to_owned()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let name = name.ok_or_else(|| {
        format!(
            "missing benchmark name (one of: {})",
            gpa_minicc::programs::BENCHMARKS.join(", ")
        )
    })?;
    let opts = gpa_minicc::Options {
        schedule,
        sched_seed,
    };
    let source =
        gpa_minicc::programs::source(&name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let edited =
        gpa_minicc::edits::apply_edits(source, &gpa_minicc::edits::EditConfig { edits, seed });
    let image = gpa_minicc::compile(&edited, &opts).map_err(|e| e.to_string())?;
    save_image(&image, &output)?;
    if edits > 0 || sched_seed != 0 {
        println!(
            "built benchmark {name} ({edits} edit(s), seed {seed}, sched-seed {sched_seed}) \
             -> {output}"
        );
    } else {
        println!("built benchmark {name} -> {output}");
    }
    Ok(ExitCode::SUCCESS)
}

fn run_image(args: &[String]) -> Result<ExitCode, String> {
    let path = args
        .first()
        .ok_or_else(|| "missing image path".to_owned())?;
    let image = load_image(path)?;
    let mut machine = Machine::new(&image);
    if let Some(pos) = args.iter().position(|a| a == "--input") {
        let input_path = args
            .get(pos + 1)
            .ok_or_else(|| "--input requires a path".to_owned())?;
        let input = std::fs::read(input_path).map_err(|e| format!("{input_path}: {e}"))?;
        machine.set_input(input);
    }
    let outcome = machine
        .run(2_000_000_000)
        .map_err(|e| format!("emulation failed: {e}"))?;
    print!("{}", outcome.output_string());
    eprintln!(
        "[exit {} after {} instructions]",
        outcome.exit_code, outcome.steps
    );
    Ok(ExitCode::from(outcome.exit_code as u8))
}

fn disassemble(args: &[String]) -> Result<ExitCode, String> {
    let path = args
        .first()
        .ok_or_else(|| "missing image path".to_owned())?;
    let image = load_image(path)?;
    let program = gpa_cfg::decode_image(&image).map_err(|e| e.to_string())?;
    print!("{}", program.listing());
    Ok(ExitCode::SUCCESS)
}

fn stats(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--addr") {
        return stats_remote(args);
    }
    let json = args.iter().any(|a| a == "--json");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| "missing image path".to_owned())?;
    let image = load_image(path)?;
    let program = gpa_cfg::decode_image(&image).map_err(|e| e.to_string())?;
    let dfgs = gpa_dfg::build_all(&program, gpa_dfg::LabelMode::Exact);
    let stats = gpa_dfg::stats::degree_stats(&dfgs);
    if json {
        let hist = |h: &[usize]| Json::Arr(h.iter().map(|&v| Json::from(v)).collect());
        let doc = Json::obj([
            ("functions", Json::from(program.functions.len())),
            ("instructions", Json::from(program.instruction_count())),
            ("regions", Json::from(program.regions().len())),
            (
                "literal_pool_words",
                Json::from(image.code_len() - program.instruction_count()),
            ),
            ("high_degree_nodes", Json::from(stats.high_degree)),
            ("in_degree_hist", hist(&stats.in_hist)),
            ("out_degree_hist", hist(&stats.out_hist)),
        ]);
        println!("{doc}");
        return Ok(ExitCode::SUCCESS);
    }
    println!("functions:        {}", program.functions.len());
    println!("instructions:     {}", program.instruction_count());
    println!("regions:          {}", program.regions().len());
    println!(
        "literal pools:    {} words",
        image.code_len() - program.instruction_count()
    );
    println!(
        "degree > 1 nodes: {} ({:.1}%)",
        stats.high_degree,
        100.0 * stats.high_degree as f64 / stats.total().max(1) as f64
    );
    println!("in-degree hist:   {:?}", stats.in_hist);
    println!("out-degree hist:  {:?}", stats.out_hist);
    Ok(ExitCode::SUCCESS)
}

/// `gpa stats --addr <addr>`: fetch one live `gpa-stats/1` snapshot
/// from a running daemon and print it to stdout. With `--dump FILE` the
/// flight recorder's `gpa-trace/1` dump is fetched as well and written
/// to FILE (`-` for stdout instead of the snapshot).
fn stats_remote(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = None;
    let mut dump_path = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--addr" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--addr requires an address".to_owned())?;
                addr = Some(value.clone());
            }
            "--dump" => {
                let p = iter
                    .next()
                    .ok_or_else(|| "--dump requires a path".to_owned())?;
                dump_path = Some(p.clone());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let addr = addr.ok_or_else(|| "missing --addr <addr>".to_owned())?;
    let mut stream =
        std::net::TcpStream::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    let snapshot =
        gpa_serve::fetch_stats(&mut stream).map_err(|e| format!("{addr}: {}", e.code()))?;
    // Sanity-check before printing so a confused peer fails loudly.
    let doc = Json::parse(&snapshot).map_err(|e| format!("{addr}: malformed snapshot: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(gpa_serve::STATS_SCHEMA) {
        return Err(format!("{addr}: response is not a gpa-stats/1 snapshot"));
    }
    if let Some(path) = &dump_path {
        let dump =
            gpa_serve::fetch_dump(&mut stream).map_err(|e| format!("{addr}: {}", e.code()))?;
        if path == "-" {
            print!("{dump}");
            return Ok(ExitCode::SUCCESS);
        }
        std::fs::write(path, &dump).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("gpa: wrote flight-recorder dump to {path}");
    }
    println!("{snapshot}");
    Ok(ExitCode::SUCCESS)
}

/// Reads a non-negative integer at `keys` (a path of object members)
/// out of a parsed snapshot, defaulting to 0.
fn stat_int(doc: &Json, keys: &[&str]) -> i64 {
    let mut node = doc;
    for key in keys {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_int().unwrap_or(0)
}

/// Recomputes a percentile from a serialized histogram's
/// `"buckets":[[low,count],…]` array — the same lower-bound convention
/// as `LogHistogram::percentile`, derived client-side so `gpa top`
/// works against any daemon that speaks the schema.
fn percentile_from_buckets(hist: &Json, pct: u64) -> u64 {
    let Some(buckets) = hist.get("buckets").and_then(Json::as_arr) else {
        return 0;
    };
    let total: i64 = buckets
        .iter()
        .filter_map(|b| b.as_arr()?.get(1)?.as_int())
        .sum();
    if total == 0 {
        return 0;
    }
    let threshold = (total as u128 * u128::from(pct)).div_ceil(100) as i64;
    let mut seen = 0i64;
    for bucket in buckets {
        let Some(pair) = bucket.as_arr() else {
            continue;
        };
        let (Some(low), Some(count)) = (
            pair.first().and_then(Json::as_int),
            pair.get(1).and_then(Json::as_int),
        ) else {
            continue;
        };
        seen += count;
        if seen >= threshold {
            return low.max(0) as u64;
        }
    }
    0
}

/// Renders one dashboard frame from a parsed `gpa-stats/1` snapshot.
fn render_top_frame(addr: &str, doc: &Json) -> String {
    let g = |k: &str| stat_int(doc, &["gauges", k]);
    let c = |k: &str| stat_int(doc, &["counters", k]);
    let accepted = c("serve.accepted");
    let completed = c("serve.completed");
    let shed = c("serve.shed");
    let deadline = c("serve.deadline_exceeded");
    let hits = stat_int(doc, &["cache", "report", "hits"]);
    let misses = stat_int(doc, &["cache", "report", "misses"]);
    let lookups = hits + misses;
    let pct = |part: i64, whole: i64| {
        if whole > 0 {
            100.0 * part as f64 / whole as f64
        } else {
            0.0
        }
    };
    let lat_line = |label: &str, section: &str| -> String {
        let mut line = format!("latency {label} (us):");
        for (name, axis) in [("queue", "queue"), ("run", "run"), ("e2e", "e2e")] {
            let hist = doc
                .get("latency")
                .and_then(|l| l.get(section))
                .and_then(|s| s.get(axis));
            let p = |pct: u64| hist.map_or(0, |h| percentile_from_buckets(h, pct)) / 1_000;
            line.push_str(&format!(
                " {name} p50 {} p90 {} p99 {} |",
                p(50),
                p(90),
                p(99)
            ));
        }
        line.pop();
        line
    };
    let uptime_s = stat_int(doc, &["uptime_ns"]) as f64 / 1e9;
    let window_count = stat_int(doc, &["latency", "window", "e2e", "count"]);
    let window_s =
        (stat_int(doc, &["latency", "window_ns"]) as f64 / 1e9).clamp(1.0, uptime_s.max(1.0));
    format!(
        "gpa-serve {addr} — up {:.1}s, {} worker(s), queue {}/{}\n\
         requests: {accepted} accepted | {completed} completed | {shed} shed | \
         {deadline} deadline | in-flight {} | queued {}\n\
         rates: shed {:.1}% | cache hit {:.1}% ({lookups} lookups) | {:.1} req/s (window)\n\
         {}\n\
         {}\n\
         cache: {} entries, {} bytes, {} evicted | dfg {} entries, {} hits\n\
         recorder: {}/{} event(s), {} dropped",
        uptime_s,
        stat_int(doc, &["workers"]),
        g("queued"),
        stat_int(doc, &["queue_depth"]),
        g("in_flight"),
        g("queued"),
        pct(shed, accepted),
        pct(hits, lookups),
        window_count as f64 / window_s,
        lat_line("window", "window"),
        lat_line("lifetime", "lifetime"),
        stat_int(doc, &["cache", "report", "entries"]),
        stat_int(doc, &["cache", "report", "bytes"]),
        stat_int(doc, &["cache", "report", "evicted"]),
        stat_int(doc, &["cache", "dfg", "entries"]),
        stat_int(doc, &["cache", "dfg", "hits"]),
        stat_int(doc, &["recorder", "events"]),
        stat_int(doc, &["recorder", "capacity"]),
        stat_int(doc, &["recorder", "dropped"]),
    )
}

/// `gpa top`: a live dashboard over a running daemon's Stats frames.
///
/// Polls one persistent connection every `--interval-ms` (default 1000)
/// and renders gauges, counter rates and windowed latency percentiles.
/// On a terminal the frame redraws in place until interrupted; when
/// stdout is not a terminal (or `--iterations N` is given) it prints N
/// frames (default 1) and exits — scriptable and CI-safe.
fn top(args: &[String]) -> Result<ExitCode, String> {
    use std::io::IsTerminal as _;

    let mut addr = None;
    let mut interval_ms: u64 = 1000;
    let mut iterations: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--addr" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--addr requires an address".to_owned())?;
                addr = Some(value.clone());
            }
            "--interval-ms" => interval_ms = take_count(&mut iter, "--interval-ms")? as u64,
            "--iterations" => iterations = Some(take_count(&mut iter, "--iterations")? as u64),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let addr = addr.ok_or_else(|| "missing --addr <addr>".to_owned())?;
    let tty = std::io::stdout().is_terminal();
    let frames = iterations.unwrap_or(if tty { u64::MAX } else { 1 });
    let mut stream =
        std::net::TcpStream::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    for frame in 0..frames {
        let snapshot =
            gpa_serve::fetch_stats(&mut stream).map_err(|e| format!("{addr}: {}", e.code()))?;
        let doc = Json::parse(&snapshot).map_err(|e| format!("{addr}: malformed snapshot: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(gpa_serve::STATS_SCHEMA) {
            return Err(format!("{addr}: response is not a gpa-stats/1 snapshot"));
        }
        if tty {
            // Clear and home, so the dashboard redraws in place.
            print!("\x1b[2J\x1b[H");
        }
        println!("{}", render_top_frame(&addr, &doc));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if frame + 1 < frames {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Schema tag of the `gpa lint --json` document.
const LINT_SCHEMA: &str = "gpa-lint/1";

/// `gpa lint <image> [--json]`: run the static binary lints; exit
/// non-zero when any error-severity finding (or an undecodable image) is
/// reported. With `--json`, a machine-readable `gpa-lint/1` document
/// goes to stdout instead of the human-readable lines on stderr.
fn lint(args: &[String]) -> Result<ExitCode, String> {
    let json = args.iter().any(|a| a == "--json");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| "missing image path".to_owned())?;
    let image = load_image(path)?;
    let diags = gpa_verify::lint_image(&image);
    let errors = diags
        .iter()
        .filter(|d| d.severity == gpa_verify::Severity::Error)
        .count();
    if json {
        let findings: Vec<Json> = diags
            .iter()
            .map(|d| {
                Json::obj([
                    ("code", Json::from(d.code.as_str())),
                    ("severity", Json::from(d.severity.to_string())),
                    (
                        "function",
                        d.location
                            .function
                            .as_deref()
                            .map_or(Json::Null, Json::from),
                    ),
                    ("item", d.location.item.map_or(Json::Null, Json::from)),
                    ("message", Json::from(d.message.as_str())),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("schema", Json::from(LINT_SCHEMA)),
            ("image", Json::from(path.as_str())),
            ("errors", Json::from(errors)),
            ("warnings", Json::from(diags.len() - errors)),
            ("findings", Json::Arr(findings)),
        ]);
        println!("{doc}");
        return Ok(if errors > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    for d in &diags {
        eprintln!("{path}: {d}");
    }
    if errors > 0 {
        eprintln!(
            "{path}: {errors} error(s), {} warning(s)",
            diags.len() - errors
        );
        Ok(ExitCode::FAILURE)
    } else {
        println!("{path}: clean ({} warning(s))", diags.len());
        Ok(ExitCode::SUCCESS)
    }
}

/// `gpa absint <image>`: dump the value-set abstract interpretation —
/// per function, the interprocedural sp-balance verdict, and per item
/// the abstract `sp` plus every memory footprint the interpreter
/// resolved to a based byte range (entry-sp-relative, absolute, or
/// relative to a symbolic pointer).
fn absint_dump(args: &[String]) -> Result<ExitCode, String> {
    let path = args
        .first()
        .ok_or_else(|| "missing image path".to_owned())?;
    let image = load_image(path)?;
    let program = gpa_cfg::decode_image(&image).map_err(|e| e.to_string())?;
    let graph = gpa_verify::CallGraph::build(&program);
    let env = gpa_verify::AbsEnv::build(&program, &graph);
    let mut points = 0u64;
    for f in &program.functions {
        let analysis = gpa_verify::AbsInt::analyze(f, Some(&env));
        points += analysis.points;
        let verdict = if env.sp_balanced(&f.name) {
            "sp-balanced"
        } else {
            "sp-unbalanced"
        };
        println!("{} ({verdict}):", f.name);
        for (i, item) in f.items.iter().enumerate() {
            let text = item.to_string();
            let Some(state) = analysis.before.get(i).and_then(Option::as_ref) else {
                println!("  {i:4}  {text:<32}; unreachable");
                continue;
            };
            let mut note = format!("sp={}", state.get(gpa_arm::Reg::SP));
            match gpa_verify::absint::resolved_accesses(state, item, Some(&env)) {
                Some(accesses) => {
                    for a in &accesses {
                        let rw = if a.store { "store" } else { "load" };
                        match a.base {
                            gpa_verify::AccessBase::Sp => {
                                note.push_str(&format!(" {rw} sp[{}..{})", a.lo, a.hi));
                            }
                            gpa_verify::AccessBase::Abs => {
                                note.push_str(&format!(" {rw} abs[{:#x}..{:#x})", a.lo, a.hi));
                            }
                            gpa_verify::AccessBase::Sym(sym) => {
                                note.push_str(&format!(" {rw} sym{sym:#x}[{}..{})", a.lo, a.hi));
                            }
                        }
                    }
                }
                None => note.push_str(" mem=?"),
            }
            println!("  {i:4}  {text:<32}; {note}");
        }
    }
    println!(
        "{points} reachable point(s) across {} function(s)",
        program.functions.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn optimize(args: &[String]) -> Result<ExitCode, String> {
    let (output, rest) = take_output(args)?;
    let mut config = RunConfig::default();
    let mut method = Method::Edgar;
    let mut input = None;
    let mut trace_path = None;
    let mut report_json_path = None;
    let mut iter = rest.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--method" => {
                let m = iter
                    .next()
                    .ok_or_else(|| "--method requires a value".to_owned())?;
                method = match m.as_str() {
                    "sfx" => Method::Sfx,
                    "dgspan" => Method::DgSpan,
                    "edgar" => Method::Edgar,
                    other => return Err(format!("unknown method `{other}`")),
                };
            }
            "--validate" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "--validate requires a value".to_owned())?;
                config.validate = match v.as_str() {
                    "off" => ValidateLevel::Off,
                    "final" => ValidateLevel::Final,
                    "every-round" => ValidateLevel::EveryRound,
                    other => return Err(format!("unknown validate level `{other}`")),
                };
            }
            "--alias" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "--alias requires a value".to_owned())?;
                config.alias =
                    AliasLevel::parse(v).ok_or_else(|| format!("unknown alias level `{v}`"))?;
            }
            "--jobs" => {
                // Parsed for compatibility, but one image is optimized on
                // one thread: the flag selects nothing.
                if take_jobs(&mut iter)? != 1 {
                    eprintln!("gpa: --jobs ignored: one image is optimized on one thread");
                }
            }
            "--trace" => {
                let p = iter
                    .next()
                    .ok_or_else(|| "--trace requires a path".to_owned())?;
                trace_path = Some(p.clone());
            }
            "--report-json" => {
                let p = iter
                    .next()
                    .ok_or_else(|| "--report-json requires a path".to_owned())?;
                report_json_path = Some(p.clone());
            }
            other if !other.starts_with("--") => input = Some(other.to_owned()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let input = input.ok_or_else(|| "missing image path".to_owned())?;
    if let Some(path) = &trace_path {
        let tracer =
            JsonlTracer::to_file(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        config.tracer = Arc::new(tracer);
    }
    let image = load_image(&input)?;
    let mut optimizer =
        Optimizer::from_image_configured(&image, &config).map_err(|e| e.to_string())?;
    let report = optimizer
        .run_instrumented(method, &config, None)
        .map_err(|e| e.to_string())?;
    config.tracer.finish();
    if let Some(path) = &report_json_path {
        // The exact bytes `gpa serve` embeds as the response's
        // `"report"` member (newline-terminated, exactly as `gpa submit
        // --report-only` prints it) — scripts byte-compare the two.
        std::fs::write(path, format!("{}\n", report.to_json()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let optimized = optimizer.encode().map_err(|e| e.to_string())?;
    save_image(&optimized, &output)?;
    println!(
        "{method}: {} -> {} instructions ({} saved, {} rounds: {} procedures, {} cross-jumps)",
        report.initial_words,
        report.final_words,
        report.saved_words(),
        report.rounds.len(),
        report.procedure_count(),
        report.cross_jump_count()
    );
    println!("wrote {output}");
    if let Some(path) = &trace_path {
        eprintln!("trace written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses the value of a `--jobs` flag (`0` means auto-detect).
fn take_jobs<'a>(iter: &mut impl Iterator<Item = &'a String>) -> Result<usize, String> {
    iter.next()
        .ok_or_else(|| "--jobs requires a number".to_owned())?
        .parse()
        .map_err(|_| "--jobs requires a number".to_owned())
}

/// `gpa batch`: optimize a whole corpus on a worker pool with the
/// content-addressed artifact cache.
///
/// The deterministic corpus report goes to stdout (or `--report <file>`);
/// a human-readable summary with cache counters and wall time goes to
/// stderr.
/// Exits non-zero when any input failed; `130` when interrupted by
/// SIGINT/SIGTERM (in-flight images finish, the partial report carries
/// `"interrupted": true`, and stale cache temp files are swept).
fn batch_run(args: &[String]) -> Result<ExitCode, String> {
    let mut config = BatchConfig {
        shutdown: ShutdownFlag::install_signal_handler(),
        ..BatchConfig::default()
    };
    let mut cache_entries = None;
    let mut cache_bytes = None;
    let mut operands = Vec::new();
    let mut report_path = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--jobs" => config.jobs = take_jobs(&mut iter)?,
            "--cache-dir" => {
                let dir = iter
                    .next()
                    .ok_or_else(|| "--cache-dir requires a path".to_owned())?;
                config.cache_dir = Some(dir.into());
            }
            "--cache-entries" => cache_entries = Some(take_count(&mut iter, "--cache-entries")?),
            "--cache-bytes" => cache_bytes = Some(take_count(&mut iter, "--cache-bytes")? as u64),
            "--trace-dir" => {
                let dir = iter
                    .next()
                    .ok_or_else(|| "--trace-dir requires a path".to_owned())?;
                config.trace_dir = Some(dir.into());
            }
            "--method" => {
                let m = iter
                    .next()
                    .ok_or_else(|| "--method requires a value".to_owned())?;
                config.method = Method::parse(m).ok_or_else(|| format!("unknown method `{m}`"))?;
            }
            "--validate" => config.run.validate = ValidateLevel::Final,
            "--report" => {
                let p = iter
                    .next()
                    .ok_or_else(|| "--report requires a path".to_owned())?;
                report_path = Some(p.clone());
            }
            other if !other.starts_with("--") => operands.push(other.to_owned()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if operands.is_empty() {
        return Err("missing inputs (files or directories)".to_owned());
    }
    if cache_entries.is_some() || cache_bytes.is_some() {
        config.cache_budget = CacheBudget::bounded(
            cache_entries.unwrap_or(usize::MAX),
            cache_bytes.unwrap_or(u64::MAX),
        );
    }
    let inputs = expand_inputs(&operands)?;
    if inputs.is_empty() {
        return Err("inputs expanded to no files".to_owned());
    }
    let corpus = run_batch(&inputs, &config)?;
    let document = corpus.to_json(true).to_string();
    match &report_path {
        Some(path) => std::fs::write(path, &document).map_err(|e| format!("{path}: {e}"))?,
        None => println!("{document}"),
    }
    eprintln!(
        "batch: {} image(s) on {} worker(s), {} error(s), {} words saved, wall {} ms",
        corpus.images.len(),
        corpus.jobs,
        corpus.error_count(),
        corpus.total_saved_words(),
        corpus.wall_ns / 1_000_000
    );
    eprintln!(
        "cache: reports {}/{} hit, dfgs {}/{} hit",
        corpus.report_cache_hits,
        corpus.report_cache_hits + corpus.report_cache_misses,
        corpus.dfg_cache_hits,
        corpus.dfg_cache_hits + corpus.dfg_cache_misses
    );
    for entry in corpus.images.iter().filter(|e| e.outcome.is_err()) {
        if let Err(message) = &entry.outcome {
            eprintln!("error: {}: {message}", entry.name);
        }
    }
    if corpus.interrupted {
        eprintln!("batch: interrupted — partial report written");
        Ok(ExitCode::from(130))
    } else if corpus.error_count() > 0 {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Parses a numeric flag value.
fn take_count<'a>(
    iter: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<usize, String> {
    iter.next()
        .ok_or_else(|| format!("{flag} requires a number"))?
        .parse()
        .map_err(|_| format!("{flag} requires a number"))
}

/// `gpa serve`: the resident optimization daemon.
///
/// Binds `--listen` (use port `0` for an ephemeral port — the chosen
/// address is printed as `gpa-serve listening on <addr>`), installs the
/// SIGINT/SIGTERM handler, and serves until a signal or a Shutdown
/// frame drains it. The end-of-life summary (counters, cache hit rates,
/// queue/run latency percentiles) goes to stderr.
fn serve(args: &[String]) -> Result<ExitCode, String> {
    use gpa_serve::{ServeConfig, Server};

    let mut config = ServeConfig {
        shutdown: ShutdownFlag::install_signal_handler(),
        ..ServeConfig::default()
    };
    let mut listen = None;
    let mut cache_entries = None;
    let mut cache_bytes = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--listen" => {
                let addr = iter
                    .next()
                    .ok_or_else(|| "--listen requires an address".to_owned())?;
                listen = Some(addr.clone());
            }
            "--workers" => config.workers = take_count(&mut iter, "--workers")?,
            "--queue-depth" => {
                config.queue_depth = take_count(&mut iter, "--queue-depth")?;
                if config.queue_depth == 0 {
                    return Err("--queue-depth must be at least 1".to_owned());
                }
            }
            "--method" => {
                let m = iter
                    .next()
                    .ok_or_else(|| "--method requires a value".to_owned())?;
                config.method = Method::parse(m).ok_or_else(|| format!("unknown method `{m}`"))?;
            }
            "--validate" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "--validate requires a value".to_owned())?;
                config.run.validate = match v.as_str() {
                    "off" => ValidateLevel::Off,
                    "final" => ValidateLevel::Final,
                    "every-round" => ValidateLevel::EveryRound,
                    other => return Err(format!("unknown validate level `{other}`")),
                };
            }
            "--cache-dir" => {
                let dir = iter
                    .next()
                    .ok_or_else(|| "--cache-dir requires a path".to_owned())?;
                config.cache_dir = Some(dir.into());
            }
            "--cache-entries" => cache_entries = Some(take_count(&mut iter, "--cache-entries")?),
            "--cache-bytes" => cache_bytes = Some(take_count(&mut iter, "--cache-bytes")? as u64),
            "--trace" => {
                let p = iter
                    .next()
                    .ok_or_else(|| "--trace requires a path".to_owned())?;
                config.trace_file = Some(p.into());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let listen = listen.ok_or_else(|| "missing --listen <addr>".to_owned())?;
    // The serve default stays bounded; flags tighten or widen one axis.
    if let Some(entries) = cache_entries {
        config.cache_budget.max_entries = entries;
    }
    if let Some(bytes) = cache_bytes {
        config.cache_budget.max_bytes = bytes;
    }
    let shutdown = config.shutdown.clone();
    let server = Server::start(listen.as_str(), config).map_err(|e| format!("{listen}: {e}"))?;
    println!("gpa-serve listening on {}", server.local_addr());
    // Scripts parse that line to learn the ephemeral port; make sure it
    // is visible before the first request arrives.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    while !shutdown.is_raised() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("gpa-serve: draining");
    // The signal handler can only raise the flag; drain() also notifies
    // the worker condvar so idle workers exit immediately instead of
    // riding out their fallback wait.
    server.drain();
    let summary = server.join();
    let c = |name: &str| summary.counters.get(name);
    eprintln!(
        "serve: {} accepted = {} completed + {} shed + {} deadline-exceeded + {} in-flight-at-drain",
        c("serve.accepted"),
        c("serve.completed"),
        c("serve.shed"),
        c("serve.deadline_exceeded"),
        c("serve.in_flight_at_drain")
    );
    eprintln!(
        "cache: reports {}/{} hit ({} evicted), dfgs {}/{} hit ({} evicted)",
        summary.report_cache.0,
        summary.report_cache.0 + summary.report_cache.1,
        summary.report_cache.2,
        summary.dfg_cache.0,
        summary.dfg_cache.0 + summary.dfg_cache.1,
        summary.dfg_cache.2
    );
    eprintln!(
        "latency (us): queue p50 {} p90 {} p99 {} | run p50 {} p90 {} p99 {} | \
         e2e p50 {} p90 {} p99 {}",
        summary.queue_hist.percentile(50) / 1_000,
        summary.queue_hist.percentile(90) / 1_000,
        summary.queue_hist.percentile(99) / 1_000,
        summary.run_hist.percentile(50) / 1_000,
        summary.run_hist.percentile(90) / 1_000,
        summary.run_hist.percentile(99) / 1_000,
        summary.e2e_hist.percentile(50) / 1_000,
        summary.e2e_hist.percentile(90) / 1_000,
        summary.e2e_hist.percentile(99) / 1_000
    );
    Ok(ExitCode::SUCCESS)
}

/// `gpa submit`: one-shot client for a running `gpa serve` daemon.
///
/// Sends the image with `--knobs` (a JSON object, default `{}`) and
/// prints the `gpa-serve/1` response document. With `--report-only` the
/// embedded `"report"` object is printed instead — byte-identical to
/// `gpa optimize --report-json` for the same image and knobs. Exits `0`
/// only for an `ok` response.
fn submit(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = None;
    let mut knobs = "{}".to_owned();
    let mut report_only = false;
    let mut input = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--addr" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--addr requires an address".to_owned())?;
                addr = Some(value.clone());
            }
            "--knobs" => {
                knobs = iter
                    .next()
                    .ok_or_else(|| "--knobs requires a JSON object".to_owned())?
                    .clone();
            }
            "--report-only" => report_only = true,
            other if !other.starts_with("--") => input = Some(other.to_owned()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let addr = addr.ok_or_else(|| "missing --addr <addr>".to_owned())?;
    let input = input.ok_or_else(|| "missing image path".to_owned())?;
    let image = std::fs::read(&input).map_err(|e| format!("{input}: {e}"))?;
    let mut stream =
        std::net::TcpStream::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    let doc = gpa_serve::submit(&mut stream, &knobs, &image)
        .map_err(|e| format!("{addr}: {}", e.code()))?;
    let status = Json::parse(&doc)
        .ok()
        .and_then(|d| d.get("status").and_then(Json::as_str).map(str::to_owned))
        .ok_or_else(|| format!("{addr}: malformed response"))?;
    if report_only {
        // Exact-byte extraction: the deterministic section is
        // `{"schema":…,"status":"ok","report":<REPORT>`; re-serializing
        // through a JSON parser could not promise byte identity.
        let section = doc.split(",\"metrics\":").next().unwrap_or(&doc);
        let prefix = "{\"schema\":\"gpa-serve/1\",\"status\":\"ok\",\"report\":";
        match section.strip_prefix(prefix) {
            Some(report) if status == "ok" => println!("{report}"),
            _ => {
                eprintln!("gpa: submit: status {status}, no report");
                return Ok(ExitCode::FAILURE);
            }
        }
    } else {
        println!("{doc}");
    }
    if status == "ok" {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("gpa: submit: status {status}");
        Ok(ExitCode::FAILURE)
    }
}

/// `gpa perf`: the benchmark harness over the bundled kernel corpus.
///
/// Writes the `gpa-bench/1` document to `-o` (default `BENCH_gpa.json`)
/// and the markdown views (Table 1, Fig. 11, Fig. 12, latency, cache) to
/// stdout. Every optimized image runs in the emulator; one that exits or
/// prints otherwise than its input fails the run (exit `1`). `--baseline <file>` turns the run
/// into a gate: exit `2` on a hard compression regression, `3` when only
/// latency drifted beyond `--tolerance-pct` (default 25). `--compare
/// <file>` skips the run and gates an existing document instead.
fn perf(args: &[String]) -> Result<ExitCode, String> {
    let mut config = gpa_metrics::PerfConfig::default();
    let mut output = "BENCH_gpa.json".to_owned();
    let mut baseline_path = None;
    let mut compare_path = None;
    let mut tolerance_pct: u64 = 25;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "-o" => {
                output = iter
                    .next()
                    .ok_or_else(|| "-o requires a path".to_owned())?
                    .clone();
            }
            "--methods" => {
                let list = iter
                    .next()
                    .ok_or_else(|| "--methods requires a list".to_owned())?;
                config.methods = list
                    .split(',')
                    .map(|m| Method::parse(m).ok_or_else(|| format!("unknown method `{m}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--kernels" => {
                let list = iter
                    .next()
                    .ok_or_else(|| "--kernels requires a list".to_owned())?;
                config.kernels = list.split(',').map(str::to_owned).collect();
            }
            "--jobs" => config.jobs = take_jobs(&mut iter)?,
            "--no-sched" => config.schedule = false,
            "--validate" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "--validate requires a value".to_owned())?;
                config.validate = match v.as_str() {
                    "off" => ValidateLevel::Off,
                    "final" => ValidateLevel::Final,
                    "every-round" => ValidateLevel::EveryRound,
                    other => return Err(format!("unknown validate level `{other}`")),
                };
            }
            "--alias" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "--alias requires a value".to_owned())?;
                config.alias =
                    AliasLevel::parse(v).ok_or_else(|| format!("unknown alias level `{v}`"))?;
            }
            "--profile" => config.profile = true,
            "--baseline" => {
                let p = iter
                    .next()
                    .ok_or_else(|| "--baseline requires a path".to_owned())?;
                baseline_path = Some(p.clone());
            }
            "--tolerance-pct" => {
                tolerance_pct = iter
                    .next()
                    .ok_or_else(|| "--tolerance-pct requires a number".to_owned())?
                    .parse()
                    .map_err(|_| "--tolerance-pct requires a number".to_owned())?;
            }
            "--compare" => {
                let p = iter
                    .next()
                    .ok_or_else(|| "--compare requires a path".to_owned())?;
                compare_path = Some(p.clone());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let load_doc = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let current = match &compare_path {
        // Gate an existing document; no benchmark run.
        Some(path) => load_doc(path)?,
        None => {
            let report = gpa_metrics::run_perf(&config)?;
            let doc = report.to_json(true);
            std::fs::write(&output, doc.to_string()).map_err(|e| format!("{output}: {e}"))?;
            print!("{}", report.markdown());
            if let Some(profile) = &report.profile {
                println!("\n## Span profile\n");
                print!("{}", profile.render());
            }
            eprintln!("wrote {output}");
            doc
        }
    };
    let Some(baseline_path) = baseline_path else {
        if compare_path.is_some() {
            return Err("--compare requires --baseline".to_owned());
        }
        return Ok(ExitCode::SUCCESS);
    };
    let baseline = load_doc(&baseline_path)?;
    let cmp = gpa_metrics::compare(&current, &baseline, tolerance_pct)?;
    eprint!("{}", cmp.render());
    if cmp.is_regression() {
        eprintln!("perf: compression regression vs {baseline_path}");
        Ok(ExitCode::from(2))
    } else if cmp.has_soft() {
        eprintln!("perf: latency drift beyond {tolerance_pct}% vs {baseline_path}");
        Ok(ExitCode::from(3))
    } else {
        eprintln!("perf: no regression vs {baseline_path}");
        Ok(ExitCode::SUCCESS)
    }
}

/// `gpa trace-profile`: aggregate the span events of one or more
/// `gpa-trace/1` streams into a single flamegraph-style text tree.
fn trace_profile(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("missing trace file(s)".to_owned());
    }
    let paths: Vec<std::path::PathBuf> = args.iter().map(Into::into).collect();
    let tree = gpa_metrics::profile::spans_from_files(&paths)?;
    if tree.is_empty() {
        eprintln!("trace-profile: no span events in {} file(s)", paths.len());
        return Ok(ExitCode::SUCCESS);
    }
    print!("{}", tree.render());
    Ok(ExitCode::SUCCESS)
}

/// One failure of `gpa trace-check`: the exit code of its class, so
/// scripts can tell an unreadable file (`2`) from a malformed one (`3`)
/// from a broken invariant (`4`–`5`), and the diagnostic.
struct TraceIssue {
    code: u8,
    message: String,
}

impl TraceIssue {
    fn io(message: String) -> TraceIssue {
        TraceIssue { code: 2, message }
    }

    fn schema(message: String) -> TraceIssue {
        TraceIssue { code: 3, message }
    }

    /// An event whose line count disagrees with its counter.
    fn invariant(message: String) -> TraceIssue {
        TraceIssue { code: 4, message }
    }

    /// A broken [`gpa_trace::identity`] row carries its own exit class;
    /// a live snapshot without its gauges is a schema violation.
    fn identity(error: &IdentityError, at: &str) -> TraceIssue {
        let code = match error {
            IdentityError::MissingGauge(_) => 3,
            IdentityError::Imbalance { identity, .. } => identity.exit_class,
        };
        TraceIssue {
            code,
            message: format!("{at}: {error}"),
        }
    }
}

/// `gpa trace-check`: structural validation of `gpa-trace/1` streams.
///
/// For each file: every line must parse as JSON, the first line must be
/// the schema header, the last the counter summary; every event name's
/// line count must equal its recorded counter; and the summary must
/// balance every finished-trace row of [`gpa_trace::identity::IDENTITIES`]
/// (miner, canonicality cache, alias pairs and carried regions exit
/// `4`, serve requests `5`). A `gpa-stats/1` snapshot is checked
/// against the live row instead. Diagnostics name the first offending
/// line; the exit code is the most severe class seen across all files
/// (see the module docs).
fn trace_check(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("missing trace file(s)".to_owned());
    }
    let mut worst = 0u8;
    for path in args {
        if let Err(issue) = check_one_trace(path) {
            eprintln!("gpa: {}", issue.message);
            worst = worst.max(issue.code);
        }
    }
    Ok(ExitCode::from(worst))
}

fn check_one_trace(path: &str) -> Result<(), TraceIssue> {
    let text = std::fs::read_to_string(path).map_err(|e| TraceIssue::io(format!("{path}: {e}")))?;
    // A `gpa-stats/1` snapshot (as written by `gpa stats --addr`) is a
    // single JSON document, not a JSONL trace; route it to the live
    // identity check instead.
    if text.trim_start().starts_with("{\"schema\":\"gpa-stats/1\"") {
        return check_one_stats(path, &text);
    }
    let mut lines = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let doc = Json::parse(line)
            .map_err(|e| TraceIssue::schema(format!("{path}:{}: {e}", number + 1)))?;
        lines.push((number + 1, doc));
    }
    let Some(((_, header), rest)) = lines.split_first() else {
        return Err(TraceIssue::schema(format!("{path}: empty trace")));
    };
    if header.get("schema").and_then(Json::as_str) != Some(TRACE_SCHEMA) {
        return Err(TraceIssue::schema(format!(
            "{path}:1: missing or unknown schema header"
        )));
    }
    let Some(((summary_line, summary), events)) = rest.split_last() else {
        return Err(TraceIssue::schema(format!(
            "{path}: missing counter-summary line"
        )));
    };
    if summary.get("ev").and_then(Json::as_str) != Some("counters") {
        return Err(TraceIssue::schema(format!(
            "{path}:{summary_line}: last line is not the counter summary"
        )));
    }
    let counters = summary.get("counters").ok_or_else(|| {
        TraceIssue::schema(format!(
            "{path}:{summary_line}: summary has no counters object"
        ))
    })?;
    let mut observed: std::collections::BTreeMap<&str, i64> = std::collections::BTreeMap::new();
    for (number, doc) in events {
        let name = doc.get("ev").and_then(Json::as_str).ok_or_else(|| {
            TraceIssue::schema(format!("{path}:{number}: event line without \"ev\""))
        })?;
        if doc.get("at_ns").and_then(Json::as_int).is_none() {
            return Err(TraceIssue::schema(format!(
                "{path}:{number}: event `{name}` without \"at_ns\""
            )));
        }
        *observed.entry(name).or_insert(0) += 1;
    }
    let counter = |name: &str| counters.get(name).and_then(Json::as_int);
    for (name, lines_seen) in &observed {
        let recorded = counter(name).unwrap_or(0);
        if recorded != *lines_seen {
            return Err(TraceIssue::invariant(format!(
                "{path}:{summary_line}: counter `{name}` records {recorded}, \
                 but {lines_seen} event line(s) are present"
            )));
        }
    }
    gpa_trace::identity::check(Form::Trace, |_, name| counter(name))
        .map_err(|e| TraceIssue::identity(&e, &format!("{path}:{summary_line}")))?;
    let counter_total = match counters {
        Json::Obj(pairs) => pairs.len(),
        _ => {
            return Err(TraceIssue::schema(format!(
                "{path}:{summary_line}: counters is not an object"
            )))
        }
    };
    println!(
        "{path}: ok ({} event line(s), {counter_total} counter(s))",
        events.len()
    );
    Ok(())
}

/// Validates one `gpa-stats/1` snapshot document: structural shape plus
/// the live row of [`gpa_trace::identity::IDENTITIES`], which reads the
/// requests still in the system from the `in_flight` and `queued`
/// gauges.
fn check_one_stats(path: &str, text: &str) -> Result<(), TraceIssue> {
    let doc = Json::parse(text.trim()).map_err(|e| TraceIssue::schema(format!("{path}: {e}")))?;
    if doc.get("schema").and_then(Json::as_str) != Some("gpa-stats/1") {
        return Err(TraceIssue::schema(format!(
            "{path}: missing or unknown schema tag"
        )));
    }
    for key in ["uptime_ns", "workers", "queue_depth"] {
        if doc.get(key).and_then(Json::as_int).is_none() {
            return Err(TraceIssue::schema(format!(
                "{path}: snapshot has no integer `{key}`"
            )));
        }
    }
    for key in ["gauges", "counters"] {
        if doc.get(key).is_none() {
            return Err(TraceIssue::schema(format!(
                "{path}: snapshot has no {key} object"
            )));
        }
    }
    gpa_serve::check_snapshot_identity(&doc).map_err(|e| TraceIssue::identity(&e, path))?;
    let accepted = stat_int(&doc, &["counters", "serve.accepted"]);
    println!("{path}: ok (gpa-stats/1 snapshot, {accepted} accepted)");
    Ok(())
}
