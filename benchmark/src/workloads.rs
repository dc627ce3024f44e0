//! The four workloads: how each sets up, what one timed pass runs, and
//! which inputs the checks afterwards re-derive in-process.
//!
//! Every pass is a closed loop: an operation starts when the one before
//! it on its connection has finished, and the loop stops starting new
//! operations once `--seconds` have passed (cold-edgar stops at the end
//! of a cycle, so that every kernel is sent equally often).

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gpa::json::Json;
use gpa::AliasLevel;
use gpa_image::Image;

use crate::inputs::{self, Class, Plan, Request, Rng, Spec};
use crate::metrics;
use crate::product::{children_cpu_s, children_peak_rss_mb, Daemon, Gpa, WorkDir};
use crate::speed::{Speed, Timing};

/// Worker threads of the daemon and the batch pool. The whole benchmark
/// runs on one CPU (see `speed`), so two workers measure the pool's and
/// the queue's overhead, not a parallel speed-up.
const WORKERS: usize = 2;

/// Requests serve-edits sends before its time limit may stop it, so that
/// ten lie beyond the p90: at 20 s it sends 90 to 110 otherwise.
const EDITS_MIN_REQUESTS: usize = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdEdgar,
    BatchVariants,
    ServeEdits,
    ServeHot,
}

/// What every workload step needs to know.
pub struct Ctx<'a> {
    pub gpa: &'a Gpa,
    pub work: &'a WorkDir,
    pub speed: &'a Speed,
}

/// One input image, compiled.
pub struct Input {
    pub spec: Spec,
    pub image: Image,
    pub bytes: Vec<u8>,
}

impl Input {
    fn build(spec: Spec) -> Result<Input, String> {
        let image = spec.build()?;
        Ok(Input {
            spec,
            bytes: image.to_bytes(),
            image,
        })
    }
}

/// The inputs of one set-up, each compiled on first use and written
/// where the product reads it.
pub struct Inputs {
    dir: PathBuf,
    built: BTreeMap<usize, Input>,
}

impl Inputs {
    fn path(&self, i: usize) -> PathBuf {
        let label = self
            .built
            .get(&i)
            .map_or_else(String::new, |x| x.spec.label());
        self.dir.join(format!("{label}.img"))
    }

    /// Compiles input `i` of `plan` and writes it, unless done before.
    fn ensure(&mut self, plan: &Plan, i: usize) -> Result<&Input, String> {
        if !self.built.contains_key(&i) {
            let input = Input::build(plan.specs[i])?;
            let path = self.dir.join(format!("{}.img", input.spec.label()));
            std::fs::write(&path, &input.bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            self.built.insert(i, input);
        }
        Ok(&self.built[&i])
    }

    pub fn get(&self, i: usize) -> Option<&Input> {
        self.built.get(&i)
    }
}

/// A set-up workload, ready for one timed pass.
pub struct Prepared {
    inputs: Inputs,
    daemon: Option<Primed>,
}

/// A started `gpa serve`, primed with the plan's base images.
struct Primed {
    daemon: Daemon,
    /// The `gpa-stats/1` snapshot after priming.
    stats: Json,
    /// The priming replies' reports, by input.
    reports: BTreeMap<usize, String>,
}

impl Prepared {
    /// Tears a set-up down without measuring it.
    pub fn close(self) -> Result<(), String> {
        match self.daemon {
            Some(primed) => primed.daemon.shutdown(),
            None => Ok(()),
        }
    }
}

/// What one timed pass measured, plus what the checks need.
#[derive(Default)]
pub struct Pass {
    /// Time from the first operation's start to the last one's end.
    pub measured_s: f64,
    /// How each operation a user waits for went, in order.
    pub timings: Vec<Timing>,
    /// Wall times in ms by input, for operations that send one input.
    pub input_ms: BTreeMap<usize, Vec<f64>>,
    /// Images the product was asked to optimize.
    pub attempted: usize,
    pub failures: Vec<String>,
    pub peak_rss_mb: f64,
    /// The product's report for each input it optimized.
    pub reports: BTreeMap<usize, String>,
    /// The product's output image for each input (cold-edgar only).
    pub outputs: BTreeMap<usize, Vec<u8>>,
    /// The inputs other than the plan's bases that the pass sent, in the
    /// order first sent.
    pub sent: Vec<usize>,
    /// Per-layer metrics read from the product (caches, serve).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Each operation's latency at the reference speed, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.timings.iter().map(Timing::scaled_ms).collect()
    }

    /// Records the product's report for `input`; a second report for the
    /// same input must be byte-identical to the first.
    fn note_report(&mut self, input: usize, label: &str, report: String) {
        match self.reports.get(&input) {
            None => {
                self.reports.insert(input, report);
            }
            Some(first) if *first == report => {}
            Some(_) => self
                .failures
                .push(format!("{label}: report differs from the first one")),
        }
    }

    /// Records that `input` was sent, once.
    fn note_sent(&mut self, plan: &Plan, input: usize) {
        if input >= plan.bases && !self.sent.contains(&input) {
            self.sent.push(input);
        }
    }
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("work paths are ASCII")
}

/// Looks a number up along `path` (0 when absent).
fn num_at(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Json::as_int)
        .unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdEdgar,
        Workload::BatchVariants,
        Workload::ServeEdits,
        Workload::ServeHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdEdgar => "cold-edgar",
            Workload::BatchVariants => "batch-variants",
            Workload::ServeEdits => "serve-edits",
            Workload::ServeHot => "serve-hot",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The memory-disambiguation level the workload runs the product at.
    pub fn alias(self) -> AliasLevel {
        match self {
            Workload::ColdEdgar => AliasLevel::Stack,
            _ => AliasLevel::Off,
        }
    }

    /// Every input and operation a run of `seconds` may send, from the
    /// seed.
    pub fn plan(self, seed: u64, seconds: f64) -> Plan {
        match self {
            Workload::ColdEdgar => inputs::cold_plan(seed, seconds),
            Workload::BatchVariants => inputs::batch_plan(seed, seconds),
            Workload::ServeEdits => inputs::edits_plan(seed, seconds),
            Workload::ServeHot => inputs::hot_plan(seed, seconds),
        }
    }

    /// The inputs whose words saved and execution overhead the run
    /// reports: the bundled images every pass sends, the same for every
    /// seed. Another scheduler seed can change the words saved (patricia
    /// saves 123 words with scheduler seed 222 and 124 with seed 0), and
    /// where an edit lands moves the overhead by up to a third, so seeded
    /// inputs are checked but left out.
    pub fn quality_set(plan: &Plan) -> Vec<usize> {
        (0..plan.bases).collect()
    }

    /// The inputs the checks re-optimize in-process (and, when traced,
    /// trace): the quality set plus a seeded tenth of the other inputs
    /// the pass sent.
    pub fn sample(plan: &Plan, sent: &[usize], seed: u64) -> Vec<usize> {
        let mut sample = Workload::quality_set(plan);
        let mut pool = sent.to_vec();
        Rng::new(seed, 5).shuffle(&mut pool);
        sample.extend(pool.into_iter().take(sent.len().div_ceil(10)));
        sample
    }

    /// Compiles the plan's base images and writes them where the product
    /// reads them; the serve workloads also start `gpa serve --workers 2`
    /// and prime it with them. This is what `setup_s` times.
    pub fn setup(self, plan: &Plan, ctx: &Ctx, round: usize) -> Result<Prepared, String> {
        let dir = ctx.work.path(&format!("setup-{round}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut inputs = Inputs {
            dir,
            built: BTreeMap::new(),
        };
        for i in 0..plan.bases {
            inputs.ensure(plan, i)?;
        }
        let daemon = match self {
            Workload::ServeEdits | Workload::ServeHot => Some(prime(ctx.gpa, plan, &inputs)?),
            _ => None,
        };
        Ok(Prepared { inputs, daemon })
    }

    /// Runs one timed pass of the workload for `seconds` and tears the
    /// set-up down. Returns the inputs for the checks.
    pub fn measure(
        self,
        prepared: Prepared,
        plan: &Plan,
        ctx: &Ctx,
        seconds: f64,
    ) -> Result<(Pass, Inputs), String> {
        let Prepared { mut inputs, daemon } = prepared;
        let limit = Duration::from_secs_f64(seconds);
        let pass = match (self, daemon) {
            (Workload::ColdEdgar, None) => cold_measure(&mut inputs, plan, ctx, limit)?,
            (Workload::BatchVariants, None) => batch_measure(&mut inputs, plan, ctx, limit)?,
            (Workload::ServeEdits | Workload::ServeHot, Some(primed)) => {
                serve_measure(self, ctx.speed, primed, plan, &mut inputs, limit)?
            }
            _ => unreachable!("set-up state belongs to its own workload"),
        };
        Ok((pass, inputs))
    }
}

/// cold-edgar: each image in its own cold `gpa optimize` process, one
/// thread, `--alias stack`, whole cycles until the time is up.
fn cold_measure(
    inputs: &mut Inputs,
    plan: &Plan,
    ctx: &Ctx,
    limit: Duration,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let start = Instant::now();
    for cycle in plan.requests.chunks(plan.bases) {
        if pass.attempted > 0 && start.elapsed() >= limit {
            break;
        }
        for r in cycle {
            let label = inputs.ensure(plan, r.input)?.spec.label();
            let input = inputs.path(r.input);
            let out = ctx.work.path(&format!("{label}.out"));
            let rep = ctx.work.path(&format!("{label}.json"));
            let args = [
                "optimize",
                path_str(&input),
                "-o",
                path_str(&out),
                "--method",
                "edgar",
                "--alias",
                "stack",
                "--jobs",
                "1",
                "--report-json",
                path_str(&rep),
            ];
            let (exit, timing) = ctx
                .speed
                .timed(Some(&children_cpu_s), || ctx.gpa.run(&args));
            let exit = exit?;
            pass.attempted += 1;
            pass.timings.push(timing);
            pass.input_ms
                .entry(r.input)
                .or_default()
                .push(timing.wall_ms);
            if !exit.ok {
                pass.failures
                    .push(format!("{label}: gpa optimize: {}", exit.stderr.trim()));
                continue;
            }
            let report = std::fs::read_to_string(&rep).map_err(|e| format!("{label}: {e}"))?;
            let report = Json::parse(&report).map_err(|e| format!("{label}: report: {e}"))?;
            pass.note_report(r.input, &label, report.to_string());
            let image = std::fs::read(&out).map_err(|e| format!("{label}: {e}"))?;
            match pass.outputs.get(&r.input) {
                None => {
                    pass.outputs.insert(r.input, image);
                }
                Some(first) if *first == image => {}
                Some(_) => pass
                    .failures
                    .push(format!("{label}: output image differs from the first one")),
            }
        }
    }
    pass.measured_s = start.elapsed().as_secs_f64();
    pass.peak_rss_mb = children_peak_rss_mb();
    Ok(pass)
}

/// batch-variants: one `gpa batch --jobs 2` run per batch of the plan,
/// with no cache directory, whole cycles until the time is up. Each
/// batch's images are compiled before its run starts.
fn batch_measure(
    inputs: &mut Inputs,
    plan: &Plan,
    ctx: &Ctx,
    limit: Duration,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut cache = [[0.0; 2]; 2];
    let mut measured_ms = 0.0;
    let start = Instant::now();
    for (b, batch) in plan.batches.iter().enumerate() {
        if b > 0 && b % plan.bases == 0 && start.elapsed() >= limit {
            break;
        }
        let mut by_label = BTreeMap::new();
        let mut args = vec!["batch".to_owned()];
        for &i in batch {
            by_label.insert(inputs.ensure(plan, i)?.spec.label(), i);
            args.push(path_str(&inputs.path(i)).to_owned());
            pass.note_sent(plan, i);
        }
        let rep = ctx.work.path(&format!("batch-{b}.json"));
        args.extend(
            [
                "--jobs",
                &WORKERS.to_string(),
                "--method",
                "edgar",
                "--report",
            ]
            .map(str::to_owned),
        );
        args.push(path_str(&rep).to_owned());
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (exit, timing) = ctx
            .speed
            .timed(Some(&children_cpu_s), || ctx.gpa.run(&args));
        let exit = exit?;
        measured_ms += timing.wall_ms;
        pass.timings.push(timing);
        pass.attempted += batch.len();
        if !exit.ok {
            pass.failures
                .push(format!("gpa batch: {}", exit.stderr.trim()));
            continue;
        }
        let text = std::fs::read_to_string(&rep).map_err(|e| format!("batch report: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("batch report: {e}"))?;
        let mut answered = 0;
        for entry in doc.get("images").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
            let label = Path::new(name)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(name);
            match (by_label.get(label), entry.get("report")) {
                (Some(&i), Some(report)) => {
                    answered += 1;
                    pass.note_report(i, label, report.to_string());
                }
                (None, _) => pass.failures.push(format!("{label}: not an input")),
                (_, None) => pass.failures.push(format!("{label}: batch error")),
            }
        }
        if answered != batch.len() {
            pass.failures
                .push(format!("{answered} reports for {} images", batch.len()));
        }
        for (c, name) in ["dfg_cache", "report_cache"].into_iter().enumerate() {
            cache[c][0] += num_at(&doc, &["metrics", name, "hits"]);
            cache[c][1] += num_at(&doc, &["metrics", name, "misses"]);
        }
    }
    pass.measured_s = measured_ms / 1e3;
    pass.peak_rss_mb = children_peak_rss_mb();
    let [dfg, report] = cache.map(|[h, m]| ratio(h, h + m));
    pass.layers.extend([
        ("pipeline.dfg_cache_hit_ratio", dfg),
        ("pipeline.report_cache_hit_ratio", report),
    ]);
    Ok(pass)
}

/// The parts of a `gpa-serve/1` reply the benchmark reads: an `ok`
/// reply's report, or why there is none.
fn reply_report(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("reply: {e}"))?;
    match (doc.get("status").and_then(Json::as_str), doc.get("report")) {
        (Some("ok"), Some(report)) => Ok(report.to_string()),
        (status, _) => Err(format!("status {}", status.unwrap_or("missing"))),
    }
}

/// Starts `gpa serve --workers 2` and sends each base input once on one
/// connection.
fn prime(gpa: &Gpa, plan: &Plan, inputs: &Inputs) -> Result<Primed, String> {
    let daemon = gpa.serve(WORKERS)?;
    let mut conn = daemon.connect()?;
    let mut reports = BTreeMap::new();
    for i in 0..plan.bases {
        let input = inputs.get(i).expect("the set-up built the bases");
        let label = input.spec.label();
        let text = gpa_serve::submit(&mut conn, "{}", &input.bytes)
            .map_err(|e| format!("priming {label}: {e}"))?;
        let report = reply_report(&text).map_err(|e| format!("priming {label}: {e}"))?;
        reports.insert(i, report);
    }
    let stats = gpa_serve::fetch_stats(&mut conn).map_err(|e| format!("stats: {e}"))?;
    let stats = Json::parse(&stats).map_err(|e| format!("stats: {e}"))?;
    Ok(Primed {
        daemon,
        stats,
        reports,
    })
}

/// One request as the client saw it.
struct Sent {
    request: Request,
    timing: Timing,
    reply: Result<String, String>,
}

/// What one connection sent, and the inputs it compiled to send.
struct ConnLog {
    sent: Vec<Sent>,
    built: Vec<(usize, Input)>,
}

/// Sends `requests` in order on one new connection, each waiting for its
/// reply, until `deadline` once at least `min_sent` (at least one) are
/// sent. An input not built yet is compiled before its request is timed.
fn send_all(
    speed: &Speed,
    daemon: &Daemon,
    plan: &Plan,
    inputs: &Inputs,
    requests: &[Request],
    deadline: Instant,
    min_sent: usize,
) -> Result<ConnLog, String> {
    let mut conn: TcpStream = daemon.connect()?;
    let mut log = ConnLog {
        sent: Vec::new(),
        built: Vec::new(),
    };
    for &request in requests {
        if log.sent.len() >= min_sent.max(1) && Instant::now() >= deadline {
            break;
        }
        let bytes = match inputs.get(request.input) {
            Some(input) => &input.bytes,
            None => {
                let at = log.built.iter().position(|(i, _)| *i == request.input);
                let at = match at {
                    Some(at) => at,
                    None => {
                        let input = Input::build(plan.specs[request.input])?;
                        log.built.push((request.input, input));
                        log.built.len() - 1
                    }
                };
                &log.built[at].1.bytes
            }
        };
        let daemon_cpu_s = || daemon.cpu_s();
        let (reply, timing) = speed.timed(Some(&daemon_cpu_s), || {
            gpa_serve::submit(&mut conn, "{}", bytes).map_err(|e| e.to_string())
        });
        log.sent.push(Sent {
            request,
            timing,
            reply,
        });
    }
    Ok(log)
}

/// serve-edits and serve-hot: a closed loop per connection, one client
/// thread each, until the time is up (on serve-edits, and at least 100
/// requests). Then the daemon's stats, its peak
/// memory and a drain.
fn serve_measure(
    workload: Workload,
    speed: &Speed,
    primed: Primed,
    plan: &Plan,
    inputs: &mut Inputs,
    limit: Duration,
) -> Result<Pass, String> {
    let conns = plan.requests.iter().map(|r| r.conn + 1).max().unwrap_or(0);
    let per_conn: Vec<Vec<Request>> = (0..conns)
        .map(|c| {
            plan.requests
                .iter()
                .copied()
                .filter(|r| r.conn == c)
                .collect()
        })
        .collect();
    let daemon = &primed.daemon;
    let shared: &Inputs = inputs;
    let min_sent = if workload == Workload::ServeEdits && !limit.is_zero() {
        EDITS_MIN_REQUESTS
    } else {
        1
    };
    let start = Instant::now();
    let deadline = start + limit;
    let logs: Vec<Result<ConnLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|requests| {
                scope.spawn(move || {
                    send_all(speed, daemon, plan, shared, requests, deadline, min_sent)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let measured_s = start.elapsed().as_secs_f64();
    let mut conn = primed.daemon.connect()?;
    let after = gpa_serve::fetch_stats(&mut conn).map_err(|e| format!("stats: {e}"))?;
    drop(conn);
    let after = Json::parse(&after).map_err(|e| format!("stats: {e}"))?;
    let peak_rss_mb = primed.daemon.peak_rss_mb()?;
    let before = primed.stats;
    primed.daemon.shutdown()?;

    let mut pass = Pass {
        measured_s,
        peak_rss_mb,
        reports: primed.reports,
        ..Pass::default()
    };
    let mut answered = Vec::new();
    for log in logs {
        let log = log?;
        answered.extend(log.sent);
        inputs.built.extend(log.built);
    }
    let mut class_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in answered {
        let r = s.request;
        pass.attempted += 1;
        pass.timings.push(s.timing);
        pass.note_sent(plan, r.input);
        let class = match r.class {
            Class::Base | Class::Resubmit => "serve.hot_p50_ms",
            Class::Edit => "serve.edit_p50_ms",
            Class::Variant => "serve.variant_p50_ms",
        };
        class_ms
            .entry(class)
            .or_default()
            .push(s.timing.scaled_ms());
        let label = plan.specs[r.input].label();
        match s.reply.and_then(|text| reply_report(&text)) {
            Ok(report) => pass.note_report(r.input, &label, report),
            Err(e) => pass.failures.push(format!("{label}: {e}")),
        }
    }

    let delta = |path: &[&str]| num_at(&after, path) - num_at(&before, path);
    let hit_ratio = |hits: &[&str], misses: &[&str]| {
        let (h, m) = (delta(hits), delta(misses));
        ratio(h, h + m)
    };
    let hist = |name: &str, p: usize| histogram_percentile_ms(&before, &after, name, p);
    let client_p50 = metrics::median(&pass.latencies_ms());
    pass.layers.extend([
        (
            "incr.seed_hit_ratio",
            hit_ratio(
                &["job_counters", "incr.seed_hit"],
                &["job_counters", "incr.seed_miss"],
            ),
        ),
        ("incr.fallback", delta(&["job_counters", "incr.fallback"])),
        (
            "pipeline.dfg_cache_hit_ratio",
            hit_ratio(&["cache", "dfg", "hits"], &["cache", "dfg", "misses"]),
        ),
        (
            "pipeline.report_cache_hit_ratio",
            hit_ratio(&["cache", "report", "hits"], &["cache", "report", "misses"]),
        ),
        (
            "pipeline.func_hit_ratio",
            hit_ratio(&["cache", "func", "hits"], &["cache", "func", "misses"]),
        ),
        (
            "pipeline.func_evicted",
            delta(&["cache", "func", "evicted"]),
        ),
        (
            "pipeline.func_entries",
            num_at(&after, &["cache", "func", "entries"]),
        ),
        ("serve.queue_p50_ms", hist("queue", 50)),
        ("serve.run_p50_ms", hist("run", 50)),
        ("serve.run_p90_ms", hist("run", 90)),
        (
            "serve.utilization",
            ratio(
                delta(&["latency", "lifetime", "run", "sum_ns"]),
                WORKERS as f64 * measured_s * 1e9,
            ),
        ),
        ("serve.transport_p50_ms", client_p50 - hist("e2e", 50)),
    ]);
    for (class, ms) in class_ms {
        pass.layers.insert(class, metrics::median(&ms));
    }
    if workload == Workload::ServeHot {
        // Every serve-hot request resubmits a primed image.
        pass.layers.insert("serve.hot_p50_ms", client_p50);
    }
    Ok(pass)
}

/// The nearest-rank `p`th percentile, in ms, of the requests a
/// `gpa-stats/1` latency histogram (`queue`, `run` or `e2e`) recorded
/// between two snapshots. Like the histogram, it resolves to the lower
/// bound of a log-spaced bucket.
fn histogram_percentile_ms(before: &Json, after: &Json, name: &str, p: usize) -> f64 {
    let buckets = |doc: &Json| -> BTreeMap<i64, i64> {
        ["latency", "lifetime", name, "buckets"]
            .iter()
            .try_fold(doc, |v, key| v.get(key))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|b| match b.as_arr()? {
                [low, count] => Some((low.as_int()?, count.as_int()?)),
                _ => None,
            })
            .collect()
    };
    let earlier = buckets(before);
    let counts: Vec<(i64, i64)> = buckets(after)
        .into_iter()
        .map(|(low, n)| (low, n - earlier.get(&low).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let total: i64 = counts.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let want = metrics::rank(total as usize, p) as i64;
    let mut seen = 0;
    for (low, n) in counts {
        seen += n;
        if seen >= want {
            return low as f64 / 1e6;
        }
    }
    unreachable!("the ranks add up to the total")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_count_only_the_new_requests() {
        let snapshot = |buckets: &str| {
            Json::parse(&format!(
                "{{\"latency\":{{\"lifetime\":{{\"run\":{{\"buckets\":{buckets}}}}}}}}}"
            ))
            .unwrap()
        };
        let before = snapshot("[[1000000,5]]");
        let after = snapshot("[[1000000,6],[2000000,8],[4000000,1]]");
        // New requests: one at 1 ms, eight at 2 ms, one at 4 ms.
        assert_eq!(histogram_percentile_ms(&before, &after, "run", 10), 1.0);
        assert_eq!(histogram_percentile_ms(&before, &after, "run", 50), 2.0);
        assert_eq!(histogram_percentile_ms(&before, &after, "run", 91), 4.0);
        assert_eq!(histogram_percentile_ms(&after, &after, "run", 50), 0.0);
        assert_eq!(histogram_percentile_ms(&before, &after, "queue", 50), 0.0);
    }

    #[test]
    fn samples_hold_the_quality_set_and_a_tenth_of_the_rest() {
        for workload in Workload::ALL {
            let plan = workload.plan(3, 2.0);
            let sent: Vec<usize> = (plan.bases..plan.specs.len()).collect();
            let sample = Workload::sample(&plan, &sent, 3);
            assert!(sample.starts_with(&Workload::quality_set(&plan)));
            let mut distinct = sample.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), sample.len(), "{}", workload.name());
            assert_eq!(
                sample.len(),
                plan.bases + sent.len().div_ceil(10),
                "{}",
                workload.name()
            );
            assert!(plan.specs[..plan.bases]
                .iter()
                .all(|s| s.edit_seed.is_none() && s.sched_seed == 0));
        }
    }
}
