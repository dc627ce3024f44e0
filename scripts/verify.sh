#!/usr/bin/env bash
# Full verification gate: formatting, build, tests, the promoted clippy
# lints, and a cold-vs-warm `gpa batch` smoke over a tiny corpus.
# The container is offline; keep cargo from touching the network.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

cargo fmt --all --check
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Criterion smoke: the bitset hot-path benches (collision graph + exact
# MIS, mining with the canonicality cache) run once in --test mode, so
# the kernels stay exercised without a full measurement run.
cargo bench -q -p gpa-bench --bench mis -- --test
cargo bench -q -p gpa-bench --bench mining -- --test

# Batch-pipeline smoke: two images, cold run then warm run against the
# same cache dir. The warm run must answer from the cache, and the
# deterministic report sections must agree byte-for-byte.
GPA=target/release/gpa
WORK=$(mktemp -d)
# Whatever step fails, stop the serve smoke's daemon and load generator
# (below) if they are running, and remove the work directory.
SERVE_PID=
LOADGEN_PID=
trap 'kill $SERVE_PID $LOADGEN_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT
"$GPA" build-bench crc -o "$WORK/crc.img" >/dev/null
"$GPA" build-bench sha -o "$WORK/sha.img" >/dev/null
"$GPA" batch "$WORK/crc.img" "$WORK/sha.img" --jobs 2 \
    --cache-dir "$WORK/cache" --report "$WORK/cold.json" 2>"$WORK/cold.log"
"$GPA" batch "$WORK/crc.img" "$WORK/sha.img" --jobs 2 \
    --cache-dir "$WORK/cache" --report "$WORK/warm.json" 2>"$WORK/warm.log"

extract_metric() { # file key -> first integer after "key":
    sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" "$1" | head -n1
}
cold_wall_ns=$(extract_metric "$WORK/cold.json" wall_ns)
cold_hits=$(sed -n 's/.*"report_cache":{"hits":\([0-9][0-9]*\).*/\1/p' "$WORK/cold.json")
warm_hits=$(sed -n 's/.*"report_cache":{"hits":\([0-9][0-9]*\).*/\1/p' "$WORK/warm.json")
if [ "${warm_hits:-0}" -lt 1 ]; then
    echo "verify: warm batch run did not hit the artifact cache" >&2
    exit 1
fi
# Deterministic sections (everything before the metrics object) agree.
cold_det=$(sed 's/,"metrics":.*//' "$WORK/cold.json")
warm_det=$(sed 's/,"metrics":.*//' "$WORK/warm.json")
if [ "$cold_det" != "$warm_det" ]; then
    echo "verify: cold and warm batch reports disagree" >&2
    exit 1
fi
warm_wall_json_ns=$(extract_metric "$WORK/warm.json" wall_ns)
warm_misses=$(sed -n 's/.*"report_cache":{"hits":[0-9]*,"misses":\([0-9][0-9]*\).*/\1/p' "$WORK/warm.json")
warm_rate_pct=$(( 100 * warm_hits / (warm_hits + ${warm_misses:-0}) ))

# Cross-image reuse gate: crc and its one-edit variant on one worker.
# The edit's run finds most of its blocks already in the shared DFG
# cache, and the counts are exact work, not wall time: 764 block
# lookups, 198 of them distinct blocks (the misses).
"$GPA" build-bench crc --edits 1 --seed 1 -o "$WORK/crc_e1s1.img" >/dev/null
"$GPA" batch "$WORK/crc.img" "$WORK/crc_e1s1.img" --jobs 1 \
    --report "$WORK/edit.json" 2>/dev/null
edit_dfg_hits=$(sed -n 's/.*"dfg_cache":{"hits":\([0-9][0-9]*\).*/\1/p' "$WORK/edit.json")
edit_dfg_misses=$(sed -n 's/.*"dfg_cache":{"hits":[0-9]*,"misses":\([0-9][0-9]*\).*/\1/p' "$WORK/edit.json")
if [ "${edit_dfg_hits:-missing}/${edit_dfg_misses:-missing}" != "566/198" ]; then
    echo "verify: crc + one-edit batch DFG cache is ${edit_dfg_hits:-missing} hits /" \
         "${edit_dfg_misses:-missing} misses, expected 566 / 198" >&2
    exit 1
fi
printf '{"bench":"pipeline_batch_smoke","images":2,"cold_wall_ns":%s,"warm_wall_ns":%s,"cold_report_cache_hits":%s,"warm_report_cache_hits":%s,"warm_hit_rate_pct":%s,"edit_dfg_cache_hits":%s,"edit_dfg_cache_misses":%s}\n' \
    "${cold_wall_ns:-0}" "${warm_wall_json_ns:-0}" "${cold_hits:-0}" "${warm_hits:-0}" "$warm_rate_pct" \
    "$edit_dfg_hits" "$edit_dfg_misses" \
    > BENCH_pipeline.json
echo "verify: batch + cross-image reuse smoke OK ($(cat BENCH_pipeline.json))"

# Trace smoke: one traced kernel. The stream must pass the structural
# validator (every line parses, counters match their event-line counts,
# the counter identities hold), and the deterministic report line plus
# the output image must be byte-identical with tracing on and off.
# (capture full stdout, then compare only the report line: the second
# line names the per-run output path, and `| head` would close the pipe
# under gpa's feet)
"$GPA" optimize "$WORK/crc.img" -o "$WORK/crc_plain.img" --validate off \
    > "$WORK/opt_plain_full.txt"
"$GPA" optimize "$WORK/crc.img" -o "$WORK/crc_traced.img" --validate off \
    --trace "$WORK/crc.jsonl" > "$WORK/opt_traced_full.txt"
head -n1 "$WORK/opt_plain_full.txt" > "$WORK/opt_plain.txt"
head -n1 "$WORK/opt_traced_full.txt" > "$WORK/opt_traced.txt"
"$GPA" trace-check "$WORK/crc.jsonl"
"$GPA" optimize "$WORK/crc.img" -o "$WORK/crc_stack.img" --validate off \
    --alias stack --trace "$WORK/crc_stack.jsonl" > /dev/null
"$GPA" trace-check "$WORK/crc_stack.jsonl"
# Work-counter gate: the lattice search on crc does exactly this much
# work. A faster search must take up the same codes (`mine.codes`),
# visit the same patterns and evaluate the same candidates. The
# canonical test runs only on codes that can still be frequent: a code
# with fewer embeddings than `min_support` is cut before it (counted in
# `mine.prune_infrequent`), and the enumerations build the embeddings
# only of codes with at least `min_support` records
# (`mine.embeddings_built`). (The canonicality cache's hit/miss split is
# left out: it depends on the code hash.) The front end builds each
# region once and then only the regions of the functions each round
# rewrites: 122 regions in round 1, 210 more over the 14 rounds after
# it, out of 1830 reads.
gate_counters() { # trace-file name=value...
    local trace=$1 counters expect name got
    shift
    counters=$(tail -n1 "$trace")
    for expect in "$@"; do
        name=${expect%=*}
        got=$(printf '%s' "$counters" | sed -n "s/.*\"${name//./\\.}\":\([0-9][0-9]*\).*/\1/p")
        if [ "${got:-missing}" != "${expect#*=}" ]; then
            echo "verify: $(basename "$trace") counter $name is ${got:-missing}, expected ${expect#*=}" >&2
            exit 1
        fi
    done
}
crc_work=(mine.codes=28184 mine.patterns_visited=5146 mine.canon_checks=9617
    mine.expanded=4636 mine.extensions_generated=14758
    mine.prune_non_canonical=4418 mine.prune_infrequent=18620
    detect.candidates_evaluated=3678 detect.embedding_unextractable=1012
    mis.bb_steps=3655 mine.embeddings_built=22269
    front.regions=1830 front.regions_built=332 front.regions_reused=1498)
gate_counters "$WORK/crc.jsonl" "${crc_work[@]}"
# Under --alias stack the same search runs on crc, and every round's
# oracles and overlays must examine and relax what a fresh analysis
# would.
gate_counters "$WORK/crc_stack.jsonl" "${crc_work[@]}" \
    absint.points=12071 absint.mem_pairs_examined=9534 \
    absint.mem_pairs_disjoint=2264
# The work the front end saves under --alias stack: of the 361 overlays
# the rounds refresh, only the 83 whose oracle relaxes a pair get a graph
# of their own (the rest share the conservative artifact), and the two
# fixpoints analyze only the call-graph components that hold a rebuilt
# function or depend on one whose summary or sp balance moved.
gate_counters "$WORK/crc_stack.jsonl" absint.overlays=361 \
    absint.overlays_built=83 absint.overlays_shared=278 \
    absint.summary_analyses=65 absint.balance_analyses=68
if ! cmp -s "$WORK/opt_plain.txt" "$WORK/opt_traced.txt"; then
    echo "verify: tracing changed the optimize report" >&2
    exit 1
fi
if ! cmp -s "$WORK/crc_plain.img" "$WORK/crc_traced.img"; then
    echo "verify: tracing changed the optimized image" >&2
    exit 1
fi
# Traced batch run: per-image streams check out, and the deterministic
# report section matches the untraced runs above.
"$GPA" batch "$WORK/crc.img" "$WORK/sha.img" --jobs 2 \
    --trace-dir "$WORK/traces" --report "$WORK/traced.json" 2>/dev/null
"$GPA" trace-check "$WORK/traces"/*.jsonl
traced_det=$(sed 's/,"metrics":.*//' "$WORK/traced.json")
if [ "$cold_det" != "$traced_det" ]; then
    echo "verify: traced batch report disagrees with the untraced run" >&2
    exit 1
fi
echo "verify: trace smoke OK"

# `--jobs` smoke: `gpa optimize` accepts `--jobs N` but optimizes one
# image on one thread, so the flag never reaches the output — the report
# line and the optimized image are byte-for-byte identical at every
# value, and any value but 1 leaves a note on stderr. qsort is here
# because its rounds exhaust the pattern budget, where a thread count
# that reached the search would change the image first.
"$GPA" build-bench qsort -o "$WORK/qsort.img" >/dev/null
for k in crc qsort; do
    case $k in
        crc) jobs="2 8" ;;
        *) jobs="2" ;;
    esac
    "$GPA" optimize "$WORK/$k.img" -o "$WORK/${k}_j1.img" --validate off \
        --jobs 1 --trace "$WORK/${k}_j1.jsonl" > "$WORK/opt_${k}_j1_full.txt"
    head -n1 "$WORK/opt_${k}_j1_full.txt" > "$WORK/opt_${k}_j1.txt"
    for j in $jobs; do
        "$GPA" optimize "$WORK/$k.img" -o "$WORK/${k}_j$j.img" --validate off \
            --jobs "$j" > "$WORK/opt_${k}_j${j}_full.txt" 2>"$WORK/opt_${k}_j$j.log"
        head -n1 "$WORK/opt_${k}_j${j}_full.txt" > "$WORK/opt_${k}_j$j.txt"
        if ! grep -q 'one thread' "$WORK/opt_${k}_j$j.log"; then
            echo "verify: --jobs $j on $k left no note on stderr" >&2
            exit 1
        fi
        if ! cmp -s "$WORK/opt_${k}_j1.txt" "$WORK/opt_${k}_j$j.txt"; then
            echo "verify: --jobs $j changed the optimize report on $k" >&2
            exit 1
        fi
        if ! cmp -s "$WORK/${k}_j1.img" "$WORK/${k}_j$j.img"; then
            echo "verify: --jobs $j changed the optimized image on $k" >&2
            exit 1
        fi
    done
done
# Budget-bound work gate: three of qsort's rounds run out of the
# 60,000-pattern budget. Each stops on the same code as long as the
# search takes up the same codes in the same order, which is what keeps
# a budget-bound image byte-identical when the search gets faster.
"$GPA" trace-check "$WORK/crc_j1.jsonl" "$WORK/qsort_j1.jsonl"
gate_counters "$WORK/qsort_j1.jsonl" mine.codes=2745152 \
    mine.patterns_visited=340107 mine.extensions_generated=2707724 \
    mine.budget_exhausted=3 mine.canon_checks=742828 \
    detect.candidates_evaluated=333894 mine.embeddings_built=1500849
echo "verify: --jobs smoke OK (crc jobs 1/2/8, qsort jobs 1/2 byte-identical)"

# Lint gate: every bundled kernel must pass the V010–V014 stack lints
# with zero errors (warnings are allowed — `lint` exits non-zero only
# on error-severity findings or an undecodable image).
for k in bitcnts crc dijkstra patricia qsort rijndael search sha; do
    "$GPA" build-bench "$k" -o "$WORK/lint_$k.img" >/dev/null
    if ! "$GPA" lint "$WORK/lint_$k.img" >/dev/null 2>"$WORK/lint_$k.log"; then
        echo "verify: lint errors on $k:" >&2
        cat "$WORK/lint_$k.log" >&2
        exit 1
    fi
done
echo "verify: lint gate OK (8 kernels clean)"

# The MEM-edge relaxation property tests: every relaxed pair must be
# re-derivable by the validator and every relaxed-DFG linearization
# must execute identically to program order on the emulator.
cargo test -q -p gpa --test proptest_absint_relax

# Perf gate: run the benchmark harness over the full kernel corpus —
# with the alias-driven MEM-edge relaxation on, so its wins are part of
# the tracked numbers — and refresh BENCH_gpa.json at the repo root.
# The run is also the emulator gate: all 24 kernel × method outputs,
# optimized under --alias stack, must exit and print exactly as their
# inputs do, or `gpa perf` fails naming the kernel and the method.
# When a committed baseline exists, gate the fresh run against it first:
# a compression regression (exit 2) fails verification — saved words
# must never decrease — while latency drift beyond the tolerance
# (exit 3) only warns — stage timings are noisy across machines, the
# deterministic compression metrics are not.
if [ -f BENCH_gpa.json ]; then
    cp BENCH_gpa.json "$WORK/bench_baseline.json"
fi
"$GPA" perf --jobs 2 --alias stack --profile -o BENCH_gpa.json > "$WORK/perf.md" 2>"$WORK/perf.log"
# The span profile must show the front end (decode + per-block DFG
# build) as a distinct span.
if ! grep -Eq ' front$' "$WORK/perf.md"; then
    echo "verify: perf --profile shows no front-end span" >&2
    exit 1
fi
# Table 1, Fig. 11 and Fig. 12 are views of that one run.
for view in '## Table 1' '## Fig. 11' '## Fig. 12'; do
    if ! grep -q "^$view" "$WORK/perf.md"; then
        echo "verify: perf shows no '$view' view" >&2
        exit 1
    fi
done
if [ -f "$WORK/bench_baseline.json" ]; then
    perf_status=0
    "$GPA" perf --compare BENCH_gpa.json \
        --baseline "$WORK/bench_baseline.json" --tolerance-pct 50 \
        2>"$WORK/perf_gate.log" || perf_status=$?
    case $perf_status in
        0) echo "verify: perf gate OK (no regression vs committed baseline)" ;;
        3) echo "verify: perf latency drifted beyond tolerance (soft)" >&2
           cat "$WORK/perf_gate.log" >&2 ;;
        *) echo "verify: perf compression regression vs committed baseline" >&2
           cat "$WORK/perf_gate.log" >&2
           exit 1 ;;
    esac
else
    echo "verify: no committed baseline, wrote a fresh BENCH_gpa.json"
fi

# Serve smoke: a resident daemon on an ephemeral loopback port, driven
# by the gpa-bench load generator. Gates, in order: a `gpa submit`
# response embeds the byte-identical report of a one-shot
# `gpa optimize --report-json`; a >=500-request mixed hot/cold soak plus
# a burst completes with zero protocol errors, warm cache hits, and
# shed (`overloaded`) responses under the burst; mid-soak `gpa stats`
# snapshots parse, trace-check clean, and catch outstanding work at
# least once; a forced zero-deadline anomaly lands in the flight
# recorder, whose Dump trace-checks clean; `gpa top` renders against
# the live daemon; the daemon drains cleanly on a Shutdown frame and
# exits 0; its gpa-trace/1 stream passes trace-check (including the
# serve.accepted accounting identity, exit 5 on breakage); and the
# deterministic section of BENCH_serve.json (per-image saved words)
# matches the committed baseline.
LOADGEN=target/release/gpa-bench
"$GPA" serve --listen 127.0.0.1:0 --workers 2 --queue-depth 4 \
    --trace "$WORK/serve.jsonl" > "$WORK/serve.out" 2>"$WORK/serve.log" &
SERVE_PID=$!
serve_addr=
for _ in $(seq 1 100); do
    serve_addr=$(sed -n 's/^gpa-serve listening on //p' "$WORK/serve.out")
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "verify: gpa serve never reported its address" >&2
    exit 1
fi
# One-shot equivalence: the served report is the optimizer's, bytewise.
"$GPA" optimize "$WORK/crc.img" -o "$WORK/crc_serve_ref.img" --validate off \
    --report-json "$WORK/crc_report_oneshot.json" >/dev/null
"$GPA" submit "$WORK/crc.img" --addr "$serve_addr" \
    --knobs '{"validate":"off"}' --report-only > "$WORK/crc_report_served.json"
if ! cmp -s "$WORK/crc_report_oneshot.json" "$WORK/crc_report_served.json"; then
    echo "verify: served report differs from one-shot gpa optimize" >&2
    exit 1
fi
# Mixed hot/cold soak + shed-provoking burst, run in the background so
# the live-telemetry gates can poll the daemon mid-soak. The loadgen's
# own --stats-every-ms poller verifies the accounting identity in every
# snapshot it takes (exit 1 on breakage).
serve_baseline_args=()
if [ -f BENCH_serve.json ]; then
    cp BENCH_serve.json "$WORK/serve_baseline.json"
    serve_baseline_args=(--baseline "$WORK/serve_baseline.json")
fi
"$LOADGEN" --addr "$serve_addr" --requests 500 --clients 4 --burst 12 \
    --stats-every-ms 25 --out BENCH_serve.json \
    ${serve_baseline_args[@]+"${serve_baseline_args[@]}"} \
    > "$WORK/loadgen.out" 2>"$WORK/loadgen.err" &
LOADGEN_PID=$!
# Stats smoke, mid-soak: every `gpa stats` fetch must parse and pass
# trace-check's gauge-augmented identity, and at least one snapshot
# must catch the queue non-empty (in_flight + queued > 0) while 4
# clients hammer 2 workers.
saw_outstanding=0
stats_polls=0
while kill -0 "$LOADGEN_PID" 2>/dev/null; do
    if "$GPA" stats --addr "$serve_addr" > "$WORK/snap.json" 2>/dev/null; then
        "$GPA" trace-check "$WORK/snap.json" >/dev/null
        stats_polls=$((stats_polls + 1))
        snap_in_flight=$(extract_metric "$WORK/snap.json" in_flight)
        snap_queued=$(extract_metric "$WORK/snap.json" queued)
        if [ $(( ${snap_in_flight:-0} + ${snap_queued:-0} )) -gt 0 ]; then
            saw_outstanding=1
        fi
    fi
    sleep 0.05
done
loadgen_status=0
wait "$LOADGEN_PID" || loadgen_status=$?
LOADGEN_PID=
if [ "$loadgen_status" -ne 0 ]; then
    echo "verify: serve loadgen failed (identity/baseline/transport):" >&2
    cat "$WORK/loadgen.err" >&2
    exit 1
fi
if [ "$stats_polls" -lt 1 ]; then
    echo "verify: no mid-soak stats snapshot succeeded" >&2
    exit 1
fi
if [ "$saw_outstanding" -ne 1 ]; then
    echo "verify: no snapshot caught in-flight + queued > 0 under load" >&2
    exit 1
fi
loadgen_polls=$(extract_metric BENCH_serve.json polls)
if [ "${loadgen_polls:-0}" -lt 1 ]; then
    echo "verify: loadgen --stats-every-ms took no snapshots" >&2
    exit 1
fi
# Flight-recorder smoke: force a queue-expired deadline (an anomaly),
# then the Dump must be a valid gpa-trace/1 stream that records it.
"$GPA" submit "$WORK/crc.img" --addr "$serve_addr" \
    --knobs '{"validate":"off","deadline_ms":0}' \
    > "$WORK/zero_deadline.out" 2>/dev/null || true
if ! grep -q '"status":"deadline_exceeded"' "$WORK/zero_deadline.out"; then
    echo "verify: zero-deadline request did not answer deadline_exceeded" >&2
    exit 1
fi
"$GPA" stats --addr "$serve_addr" --dump "$WORK/flight.jsonl" \
    > "$WORK/final_snap.json" 2>/dev/null
"$GPA" trace-check "$WORK/final_snap.json" "$WORK/flight.jsonl"
if ! grep -q '"reason":"deadline_exceeded"' "$WORK/flight.jsonl"; then
    echo "verify: flight recorder did not capture the deadline anomaly" >&2
    exit 1
fi
# `gpa top` renders against the live daemon (two piped frames).
"$GPA" top --addr "$serve_addr" --iterations 2 --interval-ms 100 \
    > "$WORK/top.out"
if ! grep -q '^gpa-serve ' "$WORK/top.out" || \
   ! grep -q 'latency window' "$WORK/top.out"; then
    echo "verify: gpa top did not render a dashboard:" >&2
    cat "$WORK/top.out" >&2
    exit 1
fi
# Drain via a Shutdown frame (a zero-request loadgen run still probes
# the per-image reports, then shuts the daemon down).
"$LOADGEN" --addr "$serve_addr" --requests 0 --clients 1 --shutdown \
    > /dev/null
serve_status=0
wait "$SERVE_PID" || serve_status=$?
SERVE_PID=
if [ "$serve_status" -ne 0 ]; then
    echo "verify: gpa serve exited non-zero after drain" >&2
    exit 1
fi
"$GPA" trace-check "$WORK/serve.jsonl"
soak_cached=$(extract_metric BENCH_serve.json cached)
soak_shed=$(extract_metric BENCH_serve.json overloaded)
soak_proto=$(extract_metric BENCH_serve.json protocol_errors)
if [ "${soak_proto:-1}" -ne 0 ]; then
    echo "verify: serve soak saw protocol errors" >&2
    exit 1
fi
if [ "${soak_cached:-0}" -lt 1 ]; then
    echo "verify: serve soak never hit the warm cache" >&2
    exit 1
fi
if [ "${soak_shed:-0}" -lt 1 ]; then
    echo "verify: serve burst produced no overloaded responses" >&2
    exit 1
fi
# Snapshot-poll overhead stays bounded: p99 may wobble across machines,
# so only warn (soft) when it blows far past the committed baseline.
if [ -f "$WORK/serve_baseline.json" ]; then
    old_p99=$(extract_metric "$WORK/serve_baseline.json" p99)
    new_p99=$(extract_metric BENCH_serve.json p99)
    if [ "${old_p99:-0}" -gt 0 ] && [ "${new_p99:-0}" -gt $((old_p99 * 3)) ]; then
        echo "verify: serve p99 grew >3x under stats polling ($old_p99 -> $new_p99 ns, soft)" >&2
    fi
fi
echo "verify: serve smoke OK ($(sed 's/.*"measured"://;s/}}$/}/' BENCH_serve.json))"

echo "verify: all gates green"
