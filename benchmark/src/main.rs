//! `gpa-benchmark`: the end-to-end and per-layer benchmark of gpa.
//!
//! ```text
//! gpa-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!               [--repeat <n>] [--out <dir>] [--smoke]
//! ```
//!
//! One run draws the workload's inputs from the seed, sets the workload
//! up several times (`setup_s`), then makes `--repeat` timed passes on
//! the product (the `gpa` binary and the `gpa serve` daemon) with tracing
//! off, each a closed loop of operations for `--seconds` seconds on a
//! fresh set-up. Everything runs on one CPU, and times are reported at a
//! reference speed (see `speed`). It checks the outputs and prints one
//! `name value unit` line per metric. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics (medians over the passes), or with `--trace 1` the
//! per-layer metrics, for which the checks' in-process re-optimization
//! runs traced. `README.md` says why each workload exists and which
//! end-to-end metric each layer metric should move.
//!
//! Exit status: 0 when every check passed, 1 when a check failed (the
//! result line is still printed), 2 when the run could not be made.

mod inputs;
mod metrics;
mod product;
mod replay;
mod speed;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gpa::json::Json;
use gpa_image::Image;
use metrics::{Metric, END_TO_END, PER_LAYER};
use product::{Gpa, WorkDir};
use replay::BenchTracer;
use speed::{Speed, Timing};
pub use workloads::Workload;
use workloads::{Ctx, Inputs, Pass};

/// Set-ups per run: at least this many, and more while they have taken
/// less than `SETUP_SECONDS` of wall time in all, up to `MAX_SETUPS`.
/// Every set-up is timed; only the last one before each pass is used by
/// it, and the others are torn down at once.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: PathBuf,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: gpa-benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1] \
         [--repeat <n>] [--out <dir>] [--smoke]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut parsed = Args {
        workload: Workload::ColdEdgar,
        seed: 0,
        seconds: 20.0,
        trace: false,
        repeat: 1,
        out: PathBuf::from(".bench_out"),
        smoke: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => seed = Some(value("--seed")?),
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a number of at least 0")?;
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--repeat" => {
                parsed.repeat = value("--repeat")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--repeat takes a whole number of at least 1")?;
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    parsed.workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    parsed.seed = seed
        .ok_or_else(usage)?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_owned())?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("gpa-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// What the checks derived from the sample.
#[derive(Default)]
struct Checked {
    /// Emulated instructions, optimized over input, minus one, in bp.
    overhead_bp: BTreeMap<usize, f64>,
    /// In-process optimize time of the sample, decode through encode.
    replay_s: f64,
}

/// The untimed checks on the last pass. Every sample input's optimized
/// image must run like the input in the emulator. Where the product
/// returned no image (batch, serve), the input is re-optimized in-process
/// and the report must equal the product's byte for byte; where it did
/// (cold-edgar), that image is run, and a traced run re-optimizes it
/// in-process too and requires the same report and image.
fn check(
    workload: Workload,
    inputs: &Inputs,
    pass: &Pass,
    sample: &[usize],
    tracer: Option<&Arc<BenchTracer>>,
    failures: &mut Vec<String>,
) -> Result<Checked, String> {
    let mut checked = Checked::default();
    for &i in sample {
        let input = inputs.get(i).ok_or("a sampled input was never built")?;
        let label = input.spec.label();
        let product_image = pass.outputs.get(&i);
        let replayed = if product_image.is_none() || tracer.is_some() {
            let replayed = replay::optimize(&input.image, workload.alias(), tracer)
                .map_err(|e| format!("{label}: in-process optimize: {e}"))?;
            checked.replay_s += replayed.optimize_s;
            if pass.reports.get(&i) != Some(&replayed.report) {
                failures.push(format!(
                    "{label}: in-process report differs from the product's"
                ));
            }
            if product_image.is_some_and(|bytes| *bytes != replayed.image.to_bytes()) {
                failures.push(format!(
                    "{label}: in-process image differs from the product's"
                ));
            }
            Some(replayed.image)
        } else {
            None
        };
        let optimized = match (product_image, replayed) {
            (Some(bytes), _) => {
                Image::from_bytes(bytes).map_err(|e| format!("{label}: output image: {e}"))?
            }
            (None, Some(image)) => image,
            (None, None) => unreachable!("replayed when the product returned no image"),
        };
        let emulate = |image| replay::emulate(image, tracer).map_err(|e| format!("{label}: {e}"));
        let (before, after) = (emulate(&input.image)?, emulate(&optimized)?);
        if (before.exit_code, &before.output) != (after.exit_code, &after.output) {
            failures.push(format!("{label}: optimized image runs differently"));
        }
        checked
            .overhead_bp
            .insert(i, (after.steps as f64 / before.steps as f64 - 1.0) * 1e4);
    }
    Ok(checked)
}

/// Every value of one metric in this run (one per pass, or one per
/// set-up for `setup_s`).
type Samples = BTreeMap<&'static str, Vec<f64>>;

fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let gpa = Gpa::locate()?;
    let cpu = product::pin_to_one_cpu()?;
    let speed = Speed::new()?;
    let work = WorkDir::create(args.workload.name())?;
    let ctx = Ctx {
        gpa: &gpa,
        work: &work,
        speed: &speed,
    };
    // A smoke run makes one operation (cold-edgar: one cycle).
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let plan = args.workload.plan(args.seed, seconds);
    println!(
        "workload {} seed {} seconds {seconds} trace {} repeat {} cpu {cpu}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.repeat
    );

    let min_setups = if args.smoke { 1 } else { MIN_SETUPS };
    let mut setups: Vec<Timing> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let inputs = loop {
        let (prepared, timing) =
            speed.timed(None, || args.workload.setup(&plan, &ctx, setups.len()));
        let prepared = prepared?;
        setups.push(timing);
        let more_setups = setups.len() < min_setups
            || (!args.smoke
                && setups.iter().map(|t| t.wall_ms).sum::<f64>() < SETUP_SECONDS * 1e3
                && setups.len() < MAX_SETUPS);
        if passes.is_empty() && more_setups {
            prepared.close()?;
            continue;
        }
        let (pass, inputs) = args.workload.measure(prepared, &plan, &ctx, seconds)?;
        passes.push(pass);
        if passes.len() >= args.repeat {
            break inputs;
        }
    };
    let measured_s = started.elapsed().as_secs_f64();
    let images: Vec<Vec<u8>> = plan.build()?.iter().map(Image::to_bytes).collect();
    let manifest = plan.manifest(images.iter().map(Vec::as_slice));
    println!("manifest {manifest:016x}");

    let last = passes.last().expect("at least one pass");
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    for p in &passes[1..] {
        let first = &passes[0];
        if differs(&p.reports, &first.reports) || differs(&p.outputs, &first.outputs) {
            failures.push("a later pass returned other bytes than the first".to_owned());
        }
    }
    let tracer = Arc::new(BenchTracer::new());
    let mut sample = Workload::sample(&plan, &last.sent, args.seed);
    if args.smoke {
        // A smoke run re-derives two images only, to stay quick.
        sample.truncate(2);
    }
    let checked = check(
        args.workload,
        &inputs,
        last,
        &sample,
        args.trace.then_some(&tracer),
        &mut failures,
    )?;

    let quality = Workload::quality_set(&plan);
    let saved_words: f64 = quality
        .iter()
        .filter_map(|i| Json::parse(last.reports.get(i)?).ok())
        .filter_map(|report| report.get("saved_words")?.as_int())
        .sum::<i64>() as f64;
    let overheads: Vec<f64> = quality
        .iter()
        .filter_map(|i| checked.overhead_bp.get(i).copied())
        .collect();
    let mut samples: Samples = BTreeMap::new();
    samples.insert(
        "setup_s",
        setups.iter().map(|t| t.scaled_ms() / 1e3).collect(),
    );
    for p in &passes {
        let latencies = p.latencies_ms();
        let e2e = [
            ("latency_p50_ms", metrics::median(&latencies)),
            ("latency_p90_ms", metrics::percentile(&latencies, 90)),
            ("saved_words", saved_words),
            ("exec_overhead_bp", mean(&overheads)),
            ("peak_rss_mb", p.peak_rss_mb),
        ];
        for (name, value) in e2e {
            samples.entry(name).or_default().push(value);
        }
    }

    let n = last.timings.len();
    let raw_ms: Vec<f64> = last.timings.iter().map(|t| t.wall_ms).collect();
    let calibration_ms: Vec<f64> = last.timings.iter().map(|t| t.calibration_ms).collect();
    let tail = match metrics::tail_percentile(n) {
        Some(p) if p >= 90 => "the >=10-beyond rule holds".to_owned(),
        Some(p) => format!("the >=10-beyond rule allows only p{p}"),
        None => "too few for the >=10-beyond rule".to_owned(),
    };
    let notes = BTreeMap::from([
        (
            "setup_s",
            format!(
                "median of {} set-ups; wall {:.4} s",
                setups.len(),
                metrics::median(&setups.iter().map(|t| t.wall_ms / 1e3).collect::<Vec<_>>())
            ),
        ),
        (
            "latency_p50_ms",
            format!(
                "n={n} in {:.1} s, {} images attempted; wall {:.1} ms, calibration {:.2} ms",
                last.measured_s,
                last.attempted,
                metrics::median(&raw_ms),
                metrics::median(&calibration_ms)
            ),
        ),
        (
            "latency_p90_ms",
            format!(
                "n={n}, {} beyond it; {tail}; wall {:.1} ms",
                metrics::beyond(n, 90),
                metrics::percentile(&raw_ms, 90)
            ),
        ),
        ("saved_words", format!("{} bundled images", quality.len())),
        (
            "exec_overhead_bp",
            format!("mean of {} bundled images", overheads.len()),
        ),
    ]);
    print_metrics(END_TO_END, &samples, &notes, passes.len() > 1);

    let mut layer_samples: Samples = BTreeMap::new();
    let mut spans = None;
    if args.trace {
        let mut layers: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        layers.extend(&last.layers);
        tracer.layer_metrics(&mut layers);
        if args.workload == Workload::ColdEdgar {
            // Traced in-process optimize against the product's cold
            // processes on the same images, both on one thread.
            let product_s: f64 = sample
                .iter()
                .filter_map(|i| last.input_ms.get(i))
                .map(|ms| metrics::median(ms) / 1e3)
                .sum();
            layers.insert(
                "bench.trace_overhead_pct",
                (checked.replay_s / product_s - 1.0) * 100.0,
            );
        }
        layer_samples = layers.into_iter().map(|(k, v)| (k, vec![v])).collect();
        print_metrics(PER_LAYER, &layer_samples, &BTreeMap::new(), false);
        spans = Some(tracer.spans_json(args.workload.name(), args.seed));
    }

    for f in &failures {
        eprintln!("check failed: {f}");
    }
    println!(
        "took {:.1} s: set-ups and passes {measured_s:.1} s, checks {:.1} s",
        started.elapsed().as_secs_f64(),
        started.elapsed().as_secs_f64() - measured_s
    );
    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let correct = failures.is_empty();
    write_outputs(
        args,
        manifest,
        &samples,
        &layer_samples,
        &last.timings,
        &failures,
        spans,
    )?;
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let chosen = if args.trace { &layer_samples } else { &samples };
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
        failures.len()
    );
    for (i, m) in table.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let value = json_number(metrics::median(&chosen[m.name]));
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

/// Whether an input both passes sent got other bytes in each.
fn differs<T: PartialEq>(a: &BTreeMap<usize, T>, b: &BTreeMap<usize, T>) -> bool {
    a.iter().any(|(i, x)| b.get(i).is_some_and(|y| y != x))
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A finite JSON number with every digit Rust prints for the value.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// Prints `name value unit` per metric; with several samples, also the
/// quartiles and whether their spread exceeds the metric's bound.
fn print_metrics(
    table: &[Metric],
    samples: &Samples,
    notes: &BTreeMap<&str, String>,
    quartiles: bool,
) {
    for m in table {
        let values = &samples[m.name];
        let (q1, med, q3) = metrics::quartiles(values);
        let mut line = format!("{} {} {}", m.name, json_number(med), m.unit);
        if let Some(note) = notes.get(m.name) {
            let _ = write!(line, " ({note})");
        }
        if quartiles && values.len() > 1 {
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let _ = write!(
                line,
                " [q1 {} q3 {}, spread {:.1}%",
                json_number(q1),
                json_number(q3),
                spread * 100.0
            );
            if let Some(bound) = m.bound {
                let _ = write!(line, " of bound {:.0}%", bound * 100.0);
                if spread > bound {
                    line.push_str(" SPREAD ABOVE BOUND");
                }
            }
            line.push(']');
        }
        println!("{line}");
    }
}

/// Writes the run's full record (and, when traced, the span tree) under
/// `--out`.
fn write_outputs(
    args: &Args,
    manifest: u64,
    samples: &Samples,
    layer_samples: &Samples,
    timings: &[Timing],
    failures: &[String],
    spans: Option<String>,
) -> Result<(), String> {
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut doc = format!(
        "{{\"schema\":\"gpa-benchmark/1\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\
         \"manifest\":\"{manifest:016x}\",\"metrics\":{{",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let all = END_TO_END.iter().map(|m| (m, &samples[m.name])).chain(
        PER_LAYER
            .iter()
            .filter_map(|m| Some((m, layer_samples.get(m.name)?))),
    );
    for (i, (m, values)) in all.enumerate() {
        let (q1, med, q3) = metrics::quartiles(values);
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            doc,
            "{sep}\"{}\":{{\"unit\":\"{}\",\"better\":\"{}\",\"median\":{},\"q1\":{},\"q3\":{},\"samples\":{}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            json_number(med),
            json_number(q1),
            json_number(q3),
            values.len()
        );
    }
    doc.push_str("},\"operations\":[");
    for (i, t) in timings.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            doc,
            "{sep}{{\"latency_ms\":{},\"wall_ms\":{},\"cpu_ms\":{},\"calibration_ms\":{}}}",
            json_number(t.scaled_ms()),
            json_number(t.wall_ms),
            json_number(t.cpu_ms),
            json_number(t.calibration_ms)
        );
    }
    doc.push_str("],\"failures\":");
    let failures = Json::Arr(failures.iter().map(|f| Json::from(f.as_str())).collect());
    let _ = writeln!(doc, "{failures}}}");
    let write = |name: String, text: &str| {
        let path = args.out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &doc)?;
    if let Some(spans) = spans {
        write(format!("{stem}.spans.json"), &spans)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let v: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&v)
    }

    #[test]
    fn arguments_parse() {
        let a = args("--workload serve-hot --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeHot, 3, 10.0, true)
        );
        let a = args("--seed 0 --repeat 3 --workload cold-edgar").unwrap();
        assert_eq!(
            (a.workload, a.repeat, a.trace),
            (Workload::ColdEdgar, 3, false)
        );
        assert!(args("cold-edgar --seed 0").is_err());
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload serve-hot").is_err());
        assert!(args("--workload serve-hot --seed 1 --trace 2").is_err());
        assert!(args("--workload serve-hot --seed 1 --seconds -1").is_err());
    }
}
