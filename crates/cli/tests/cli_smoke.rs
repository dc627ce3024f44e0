//! End-to-end smoke tests for the `gpa` command-line driver.

use std::process::Command;

fn gpa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gpa"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gpa_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn compile_run_optimize_roundtrip() {
    let src = tmp("prog.mc");
    let img = tmp("prog.img");
    let opt = tmp("prog_opt.img");
    std::fs::write(
        &src,
        "int f(int x) { return x * 3 + 1; }\n\
         int main() { putint(f(5) + f(9)); _putc(10); return 0; }",
    )
    .unwrap();

    let out = gpa()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            img.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let run1 = gpa().args(["run", img.to_str().unwrap()]).output().unwrap();
    assert!(run1.status.success());
    assert_eq!(String::from_utf8_lossy(&run1.stdout), "44\n");

    let out = gpa()
        .args([
            "optimize",
            img.to_str().unwrap(),
            "-o",
            opt.to_str().unwrap(),
            "--method",
            "edgar",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let run2 = gpa().args(["run", opt.to_str().unwrap()]).output().unwrap();
    assert_eq!(
        String::from_utf8_lossy(&run1.stdout),
        String::from_utf8_lossy(&run2.stdout)
    );

    for p in [src, img, opt] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn dis_and_stats() {
    let img = tmp("bench.img");
    let out = gpa()
        .args(["build-bench", "crc", "-o", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let dis = gpa().args(["dis", img.to_str().unwrap()]).output().unwrap();
    assert!(dis.status.success());
    let text = String::from_utf8_lossy(&dis.stdout);
    assert!(text.contains("_start:"));
    assert!(text.contains("crc_update:"));
    assert!(text.contains("bl main"));

    let stats = gpa()
        .args(["stats", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(stats.status.success());
    assert!(String::from_utf8_lossy(&stats.stdout).contains("instructions:"));

    let _ = std::fs::remove_file(img);
}

#[test]
fn stats_json_is_machine_readable() {
    let img = tmp("stats_json.img");
    let out = gpa()
        .args(["build-bench", "crc", "-o", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stats = gpa()
        .args(["stats", img.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(stats.status.success());
    let doc = gpa::json::Json::parse(&String::from_utf8_lossy(&stats.stdout))
        .expect("stats --json must emit valid JSON");
    let int = |key: &str| doc.get(key).and_then(gpa::json::Json::as_int);
    assert!(int("instructions").unwrap() > 0);
    assert!(int("functions").unwrap() > 0);
    let hist = doc
        .get("in_degree_hist")
        .and_then(gpa::json::Json::as_arr)
        .expect("histogram array");
    assert_eq!(hist.len(), 5);

    let _ = std::fs::remove_file(img);
}

#[test]
fn batch_cold_then_warm_hits_the_cache() {
    let dir = tmp("batch_corpus");
    let cache = tmp("batch_cache");
    let report_path = tmp("batch_report.json");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, source) in [
        ("a.mc", "int f(int x) { return x * 3 + 1; } int main() { putint(f(2) + f(4)); return 0; }"),
        ("b.mc", "int main() { int s = 0; for (int i = 0; i < 5; i = i + 1) s = s + i; putint(s); return 0; }"),
    ] {
        let src = dir.join(name);
        std::fs::write(&src, source).unwrap();
        let img = dir.join(name.replace(".mc", ".img"));
        let out = gpa()
            .args(["compile", src.to_str().unwrap(), "-o", img.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::remove_file(src).unwrap();
    }

    let run_batch = || {
        let out = gpa()
            .args([
                "batch",
                dir.to_str().unwrap(),
                "--jobs",
                "2",
                "--cache-dir",
                cache.to_str().unwrap(),
                "--report",
                report_path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        gpa::json::Json::parse(&std::fs::read_to_string(&report_path).unwrap())
            .expect("batch report must be valid JSON")
    };
    let hits = |doc: &gpa::json::Json| {
        doc.get("metrics")
            .and_then(|m| m.get("report_cache"))
            .and_then(|c| c.get("hits"))
            .and_then(gpa::json::Json::as_int)
            .unwrap()
    };
    // Drops the non-deterministic metrics section.
    let deterministic = |doc: &gpa::json::Json| {
        let gpa::json::Json::Obj(pairs) = doc else {
            panic!("object")
        };
        gpa::json::Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "metrics")
                .cloned()
                .collect(),
        )
        .to_string()
    };

    let cold = run_batch();
    assert_eq!(hits(&cold), 0, "cold run must not hit");
    assert_eq!(
        cold.get("errors").and_then(gpa::json::Json::as_int),
        Some(0)
    );
    let warm = run_batch();
    assert!(hits(&warm) >= 1, "warm run must hit the report cache");
    assert_eq!(deterministic(&cold), deterministic(&warm));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&report_path);
}

#[test]
fn optimize_trace_writes_a_checkable_stream_and_changes_nothing() {
    let img = tmp("trace.img");
    let out = gpa()
        .args(["build-bench", "crc", "-o", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let opt_plain = tmp("trace_plain.img");
    let opt_traced = tmp("trace_traced.img");
    let trace = tmp("trace.jsonl");
    let optimize = |out_img: &std::path::Path, trace: Option<&std::path::Path>| {
        let mut cmd = gpa();
        cmd.args([
            "optimize",
            img.to_str().unwrap(),
            "-o",
            out_img.to_str().unwrap(),
            "--validate",
            "off",
        ]);
        if let Some(t) = trace {
            cmd.args(["--trace", t.to_str().unwrap()]);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let plain = optimize(&opt_plain, None);
    let traced = optimize(&opt_traced, Some(&trace));
    // Tracing must not change the report line or the produced image.
    assert_eq!(plain.lines().next(), traced.lines().next());
    assert_eq!(
        std::fs::read(&opt_plain).unwrap(),
        std::fs::read(&opt_traced).unwrap()
    );

    // The stream passes the structural validator.
    let check = gpa()
        .args(["trace-check", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(String::from_utf8_lossy(&check.stdout).contains("ok"));

    // Every round writes its candidate table, and some winner is
    // explained against a runner-up from it.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.contains("\"ev\":\"detect.candidate\""));
    let winners: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"ev\":\"detect.winner\""))
        .collect();
    assert!(
        winners
            .iter()
            .any(|w| !w.contains("\"why\":\"only_candidate\"")),
        "some winner must be explained against a runner-up: {winners:?}"
    );

    // A tampered counter summary must be rejected.
    assert!(text.contains("\"mine.patterns_visited\":"));
    let tampered_path = tmp("trace_tampered.jsonl");
    let tampered = text.replacen(
        "\"mine.patterns_visited\":",
        "\"mine.patterns_visited\":9",
        1,
    );
    std::fs::write(&tampered_path, tampered).unwrap();
    let check = gpa()
        .args(["trace-check", tampered_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        !check.status.success(),
        "tampered trace must fail the check"
    );

    for p in [img, opt_plain, opt_traced, trace, tampered_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn batch_trace_dir_writes_per_image_streams() {
    let img = tmp("batch_trace.img");
    let out = gpa()
        .args(["build-bench", "qsort", "-o", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace_dir = tmp("batch_traces");
    let _ = std::fs::remove_dir_all(&trace_dir);
    let report_path = tmp("batch_trace_report.json");
    let out = gpa()
        .args([
            "batch",
            img.to_str().unwrap(),
            "--trace-dir",
            trace_dir.to_str().unwrap(),
            "--report",
            report_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let traces: Vec<_> = std::fs::read_dir(&trace_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert_eq!(traces.len(), 1, "one trace per input");
    let check = gpa()
        .args(["trace-check", traces[0].to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    // Aggregated counters surface in the corpus metrics.
    let doc = gpa::json::Json::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    let visited = doc
        .get("metrics")
        .and_then(|m| m.get("trace"))
        .and_then(|t| t.get("mine.patterns_visited"))
        .and_then(gpa::json::Json::as_int)
        .unwrap();
    assert!(visited > 0);

    let _ = std::fs::remove_file(&img);
    let _ = std::fs::remove_file(&report_path);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

#[test]
fn lint_accepts_clean_image_and_rejects_corruption() {
    let img = tmp("lint.img");
    let bad = tmp("lint_bad.img");
    let out = gpa()
        .args(["build-bench", "crc", "-o", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let lint = gpa()
        .args(["lint", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        lint.status.success(),
        "clean image should lint clean: {}",
        String::from_utf8_lossy(&lint.stderr)
    );
    assert!(String::from_utf8_lossy(&lint.stdout).contains("clean"));

    // The container header is 28 bytes (magic + six u32 fields), so byte 28
    // is the first code word. Overwrite it with a branch far outside the
    // code section.
    let mut bytes = std::fs::read(&img).unwrap();
    bytes[28..32].copy_from_slice(&0xEA80_0000u32.to_le_bytes());
    std::fs::write(&bad, bytes).unwrap();

    let lint = gpa()
        .args(["lint", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!lint.status.success(), "corrupted image must fail the lint");
    let stderr = String::from_utf8_lossy(&lint.stderr);
    assert!(
        stderr.contains("V0") || stderr.contains("V1"),
        "no diagnostic in: {stderr}"
    );

    for p in [img, bad] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn lint_json_round_trips() {
    let img = tmp("lint_json.img");
    let out = gpa()
        .args(["build-bench", "crc", "-o", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let lint = gpa()
        .args(["lint", img.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(
        lint.status.success(),
        "clean image must exit zero: {}",
        String::from_utf8_lossy(&lint.stderr)
    );
    let doc = gpa::json::Json::parse(&String::from_utf8_lossy(&lint.stdout)).unwrap();
    assert_eq!(
        doc.get("schema").and_then(gpa::json::Json::as_str),
        Some("gpa-lint/1")
    );
    assert_eq!(
        doc.get("errors").and_then(gpa::json::Json::as_int),
        Some(0),
        "clean image must report zero errors"
    );
    let warnings = doc
        .get("warnings")
        .and_then(gpa::json::Json::as_int)
        .unwrap();
    let findings = match doc.get("findings") {
        Some(gpa::json::Json::Arr(a)) => a,
        other => panic!("findings must be an array, got {other:?}"),
    };
    assert_eq!(
        findings.len() as i64,
        warnings,
        "errors + warnings == findings"
    );
    for f in findings {
        let code = f.get("code").and_then(gpa::json::Json::as_str).unwrap();
        assert!(code.starts_with('V'), "diagnostic code {code:?}");
        assert!(f
            .get("severity")
            .and_then(gpa::json::Json::as_str)
            .is_some());
        assert!(f.get("message").and_then(gpa::json::Json::as_str).is_some());
    }

    let _ = std::fs::remove_file(&img);
}

/// Builds crc into `good` and writes to `bad` a copy whose first
/// pc-relative literal load has one immediate bit flipped, so that it
/// reads an unaligned address inside the code section. Returns the
/// load's address.
fn crc_with_unaligned_literal(good: &std::path::Path, bad: &std::path::Path) -> u32 {
    let out = gpa()
        .args(["build-bench", "crc", "-o", good.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut image = gpa_image::Image::from_bytes(&std::fs::read(good).unwrap()).unwrap();
    let mut code = image.code_words().to_vec();
    // `ldr rd, [pc, #±imm]`: the immediate is a multiple of 4.
    let at = code
        .iter()
        .position(|&w| w & 0xff7f_0000 == 0xe51f_0000)
        .expect("crc loads a literal");
    code[at] ^= 2;
    image.set_code(code);
    std::fs::write(bad, image.to_bytes()).unwrap();
    image.code_base() + 4 * at as u32
}

#[test]
fn unaligned_literal_load_is_a_decode_error_not_a_panic() {
    let good = tmp("literal_good.img");
    let bad = tmp("literal_bad.img");
    let addr = crc_with_unaligned_literal(&good, &bad);
    let out = gpa()
        .args([
            "optimize",
            bad.to_str().unwrap(),
            "-o",
            tmp("literal_out.img").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("pc-relative load at {addr:#x} targets unaligned")),
        "{stderr}"
    );
    for command in ["stats", "lint", "absint", "dis"] {
        let out = gpa()
            .args([command, bad.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{command}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for p in [good, bad] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn batch_reports_good_images_beside_an_undecodable_one() {
    let good = tmp("batch_literal_good.img");
    let bad = tmp("batch_literal_bad.img");
    let other = tmp("batch_literal_bitcnts.img");
    let report = tmp("batch_literal_report.json");
    let addr = crc_with_unaligned_literal(&good, &bad);
    let out = gpa()
        .args(["build-bench", "bitcnts", "-o", other.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = gpa()
        .args([
            "batch",
            bad.to_str().unwrap(),
            good.to_str().unwrap(),
            other.to_str().unwrap(),
            "--jobs",
            "2",
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let doc = gpa::json::Json::parse(&std::fs::read_to_string(&report).unwrap())
        .expect("batch report must be valid JSON");
    assert_eq!(doc.get("errors").and_then(gpa::json::Json::as_int), Some(1));
    let gpa::json::Json::Arr(images) = doc.get("images").expect("images") else {
        panic!("images is an array")
    };
    assert_eq!(images.len(), 3);
    let error = images[0].get("error").and_then(gpa::json::Json::as_str);
    assert!(
        error.is_some_and(|e| e.contains(&format!("{addr:#x} targets unaligned"))),
        "{error:?}"
    );
    for image in &images[1..] {
        let saved = image
            .get("report")
            .and_then(|r| r.get("saved_words"))
            .and_then(gpa::json::Json::as_int);
        assert!(saved.is_some_and(|s| s > 0), "{image:?}");
    }
    for p in [good, bad, other, report] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn lint_rejects_unreadable_container() {
    let bad = tmp("not_an_image.img");
    std::fs::write(&bad, b"not a GPA image at all").unwrap();
    let out = gpa()
        .args(["lint", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_file(bad);
}

#[test]
fn stats_json_round_trips_with_stable_key_order() {
    let img = tmp("stats_rt.img");
    let out = gpa()
        .args(["build-bench", "crc", "-o", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = gpa()
        .args(["stats", img.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    let doc = gpa::json::Json::parse(&text).expect("valid JSON");
    // parse ∘ to_string is the identity, so the document survives any
    // number of round trips byte-for-byte.
    let reserialized = doc.to_string();
    assert_eq!(
        gpa::json::Json::parse(&reserialized).unwrap().to_string(),
        reserialized
    );
    // Insertion-ordered objects: the key order is part of the contract.
    let keys_in_order = [
        "functions",
        "instructions",
        "regions",
        "literal_pool_words",
        "high_degree_nodes",
        "in_degree_hist",
        "out_degree_hist",
    ];
    let mut last = 0;
    for key in keys_in_order {
        let pos = reserialized
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("missing key `{key}`"));
        assert!(pos > last || last == 0, "key `{key}` out of order");
        last = pos;
    }
    // Both histograms carry the five degree buckets (0, 1, 2, 3, ≥4) in
    // degree order.
    for key in ["in_degree_hist", "out_degree_hist"] {
        let hist = doc.get(key).and_then(gpa::json::Json::as_arr).unwrap();
        assert_eq!(hist.len(), 5, "{key} must have 5 buckets");
    }
    let _ = std::fs::remove_file(img);
}

/// Strips everything from the `"measured"` section on: the deterministic
/// prefix of a `gpa-bench/1` document.
fn deterministic_prefix(text: &str) -> &str {
    text.split(",\"measured\":").next().unwrap()
}

#[test]
fn perf_writes_bench_document_deterministically() {
    let out_a = tmp("perf_a.json");
    let out_b = tmp("perf_b.json");
    let run = |jobs: &str, path: &std::path::Path| {
        let out = gpa()
            .args([
                "perf",
                "--kernels",
                "crc",
                "--methods",
                "sfx,edgar",
                "--jobs",
                jobs,
                "--validate",
                "off",
                "-o",
                path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let markdown = run("1", &out_a);
    run("4", &out_b);
    assert!(markdown.contains("| crc |"), "{markdown}");
    assert!(markdown.contains("## Latency (measured)"), "{markdown}");
    let a = std::fs::read_to_string(&out_a).unwrap();
    let b = std::fs::read_to_string(&out_b).unwrap();
    let doc = gpa::json::Json::parse(&a).expect("valid bench JSON");
    assert_eq!(
        doc.get("schema").and_then(gpa::json::Json::as_str),
        Some("gpa-bench/1")
    );
    // Fig. 11: Edgar saves 73 words on crc against SFX's 47.
    assert!(markdown.contains("## Fig. 11"), "{markdown}");
    assert!(markdown.contains("| crc | +55.3% |"), "{markdown}");
    // Fig. 12 shows the document's procedure and cross-jump counts.
    let int = |v: &gpa::json::Json, key| v.get(key).and_then(gpa::json::Json::as_int).unwrap();
    let kernels = doc
        .get("kernels")
        .and_then(gpa::json::Json::as_arr)
        .unwrap();
    let results = kernels[0]
        .get("results")
        .and_then(gpa::json::Json::as_arr)
        .unwrap();
    let counts: Vec<String> = results
        .iter()
        .flat_map(|r| [int(r, "procedures"), int(r, "cross_jumps")])
        .map(|n| n.to_string())
        .collect();
    assert!(markdown.contains("## Fig. 12"), "{markdown}");
    let fig12_row = format!("| crc | {} |", counts.join(" | "));
    assert!(markdown.contains(&fig12_row), "{fig12_row} in {markdown}");
    // One optimize time per kernel × method, in the measured section.
    let images = doc
        .get("measured")
        .and_then(|m| m.get("images"))
        .and_then(gpa::json::Json::as_arr)
        .expect("per-image times");
    let methods: Vec<&str> = images
        .iter()
        .filter(|i| i.get("kernel").and_then(gpa::json::Json::as_str) == Some("crc"))
        .filter(|i| int(i, "optimize_ns") > 0)
        .filter_map(|i| i.get("method").and_then(gpa::json::Json::as_str))
        .collect();
    assert_eq!(methods, ["sfx", "edgar"]);
    // The deterministic section must not depend on --jobs.
    assert_eq!(deterministic_prefix(&a), deterministic_prefix(&b));
    for p in [out_a, out_b] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn perf_baseline_gate_flags_injected_regression() {
    let current = tmp("perf_cur.json");
    let out = gpa()
        .args([
            "perf",
            "--kernels",
            "crc",
            "--methods",
            "sfx",
            "--validate",
            "off",
            "-o",
            current.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Against itself: clean gate, exit 0.
    let out = gpa()
        .args([
            "perf",
            "--compare",
            current.to_str().unwrap(),
            "--baseline",
            current.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    // Inflate every saved_words in a copy: the baseline now claims more
    // savings than the current run — a hard compression regression.
    let text = std::fs::read_to_string(&current).unwrap();
    let mut doc = gpa::json::Json::parse(&text).unwrap();
    fn inflate(doc: &mut gpa::json::Json) {
        match doc {
            gpa::json::Json::Obj(pairs) => {
                for (key, value) in pairs.iter_mut() {
                    if key == "saved_words" {
                        if let gpa::json::Json::Int(v) = value {
                            *v += 5;
                        }
                    } else {
                        inflate(value);
                    }
                }
            }
            gpa::json::Json::Arr(items) => items.iter_mut().for_each(inflate),
            _ => {}
        }
    }
    inflate(&mut doc);
    let baseline = tmp("perf_base.json");
    std::fs::write(&baseline, doc.to_string()).unwrap();
    let out = gpa()
        .args([
            "perf",
            "--compare",
            current.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "hard regression must exit 2: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("saved_words regressed"));
    for p in [current, baseline] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn trace_check_distinguishes_failure_classes() {
    // I/O error: exit 2.
    let out = gpa()
        .args(["trace-check", "/definitely/not/here.jsonl"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Schema violation: exit 3, diagnostic names the line.
    let bad = tmp("bad_schema.jsonl");
    std::fs::write(
        &bad,
        "{\"schema\":\"gpa-trace/1\",\"ev\":\"trace_begin\"}\nnot json\n",
    )
    .unwrap();
    let out = gpa()
        .args(["trace-check", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(":2:"),
        "diagnostic must name line 2: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Counter-invariant mismatch: exit 4. A real stream with one counter
    // total tampered still parses and keeps its header/summary shape.
    let img = tmp("tc_codes.img");
    let opt = tmp("tc_codes_opt.img");
    let trace = tmp("tc_codes.jsonl");
    let out = gpa()
        .args(["build-bench", "crc", "-o", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = gpa()
        .args([
            "optimize",
            img.to_str().unwrap(),
            "-o",
            opt.to_str().unwrap(),
            "--validate",
            "off",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&trace).unwrap();
    let tampered_path = tmp("tc_codes_tampered.jsonl");
    std::fs::write(
        &tampered_path,
        text.replacen(
            "\"mine.patterns_visited\":",
            "\"mine.patterns_visited\":9",
            1,
        ),
    )
    .unwrap();
    let out = gpa()
        .args(["trace-check", tampered_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The canonicality-cache identity (canon_checks == hit + miss) is
    // enforced the same way.
    assert!(
        text.contains("\"mine.canon_checks\":"),
        "optimize traces must carry the canonicality-cache counters"
    );
    let canon_tampered_path = tmp("tc_codes_canon_tampered.jsonl");
    std::fs::write(
        &canon_tampered_path,
        text.replacen("\"mine.canon_checks\":", "\"mine.canon_checks\":9", 1),
    )
    .unwrap();
    let out = gpa()
        .args(["trace-check", canon_tampered_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("canon_cache_hit"),
        "diagnostic must name the canonicality identity: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for p in [bad, img, opt, trace, tampered_path, canon_tampered_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// The serve request-accounting identity gets its own exit code (5) so
/// deploy scripts can tell "the daemon lost requests" from an ordinary
/// counter mismatch.
#[test]
fn trace_check_flags_broken_serve_identity_with_exit_5() {
    let header = "{\"schema\":\"gpa-trace/1\",\"ev\":\"trace_begin\"}\n";
    // Balanced: 5 accepted = 3 completed + 1 shed + 1 deadline-exceeded.
    let balanced = tmp("serve_balanced.jsonl");
    std::fs::write(
        &balanced,
        format!(
            "{header}{{\"ev\":\"counters\",\"counters\":{{\
             \"serve.accepted\":5,\"serve.completed\":3,\"serve.shed\":1,\
             \"serve.deadline_exceeded\":1,\"serve.in_flight_at_drain\":0}}}}\n"
        ),
    )
    .unwrap();
    let out = gpa()
        .args(["trace-check", balanced.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // One request unaccounted for: exit 5, diagnostic names the summary
    // line and the identity.
    let broken = tmp("serve_broken.jsonl");
    std::fs::write(
        &broken,
        format!(
            "{header}{{\"ev\":\"counters\",\"counters\":{{\
             \"serve.accepted\":5,\"serve.completed\":3,\"serve.shed\":1,\
             \"serve.deadline_exceeded\":0,\"serve.in_flight_at_drain\":0}}}}\n"
        ),
    )
    .unwrap();
    let out = gpa()
        .args(["trace-check", broken.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(":2:") && stderr.contains("serve.accepted is 5"),
        "diagnostic must name the summary line and the identity: {stderr}"
    );
    for p in [balanced, broken] {
        let _ = std::fs::remove_file(p);
    }
}

/// A round that runs out of pattern budget on the detection path says
/// so: one `mine.budget_exhausted` event per exhausted round, and the
/// trace still passes every `gpa trace-check` identity.
#[test]
fn detection_budget_exhaustion_is_traced() {
    use std::sync::Arc;

    let image = gpa_minicc::compile_benchmark("crc", &gpa_minicc::Options::default()).unwrap();
    let run = |tracer: Arc<dyn gpa_trace::Tracer>| {
        let config = gpa::RunConfig {
            max_patterns: 200,
            validate: gpa::ValidateLevel::Off,
            tracer: tracer.clone(),
            ..gpa::RunConfig::default()
        };
        let mut optimizer = gpa::Optimizer::from_image_configured(&image, &config).unwrap();
        optimizer
            .run_instrumented(gpa::Method::Edgar, &config, None)
            .unwrap();
        tracer.finish();
    };
    let counters = Arc::new(gpa_trace::CounterTracer::new());
    run(counters.clone());
    let c = gpa_trace::Tracer::counters(&*counters);
    assert!(
        c.get("mine.budget_exhausted") >= 1,
        "a 200-pattern budget must run out on crc: {c:?}"
    );
    let path = tmp("budget.jsonl");
    run(Arc::new(gpa_trace::JsonlTracer::to_file(&path).unwrap()));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"ev\":\"mine.budget_exhausted\""));
    let out = gpa()
        .args(["trace-check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_profile_renders_span_hierarchy() {
    let img = tmp("tp.img");
    let opt = tmp("tp_opt.img");
    let trace = tmp("tp.jsonl");
    let out = gpa()
        .args(["build-bench", "crc", "-o", img.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = gpa()
        .args([
            "optimize",
            img.to_str().unwrap(),
            "-o",
            opt.to_str().unwrap(),
            "--validate",
            "off",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = gpa()
        .args(["trace-profile", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimize"), "{text}");
    assert!(text.contains("round"), "{text}");
    assert!(text.contains("detect"), "{text}");
    // The tree indents children under their parent: "round" sits two
    // spaces deeper than "optimize" in the span column.
    let span_col = |name: &str| {
        text.lines()
            .find(|l| l.trim_end().ends_with(name))
            .unwrap_or_else(|| panic!("no `{name}` row"))
            .find(name)
            .unwrap()
    };
    assert_eq!(span_col("optimize") + 2, span_col("round"), "{text}");
    for p in [img, opt, trace] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = gpa().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn bad_method_rejected() {
    let out = gpa()
        .args(["optimize", "x.img", "-o", "y.img", "--method", "magic"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}
