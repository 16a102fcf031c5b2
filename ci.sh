#!/usr/bin/env bash
# CI build matrix: configure, build, run labelled ctest cases, run the
# fuzz campaign on its budget, and write the artefacts the workflow
# uploads. The checks themselves are ctest cases (tests/); this script
# checks only exit codes, including those of the throughput floors and
# gates that bxt_loadgen, bxt_report and bench_codec_throughput apply.
#
# Usage: ./ci.sh [release|asan|tsan|fuzz|batch|metrics|serve|scenario|
#                 adaptive|all]
# (default: all)
#   release  Release build + `ctest -L tier1`: unit, golden and fuzz
#            cases at their default budgets, every tool's malformed
#            option values (test_tools), a live bxtd on a Unix socket
#            and a TCP port (ping, trace round trip, Snapshot document,
#            drain with never-reading peers, span trace), the traced
#            benches' artefacts, and bxtd's link checks (static PIE, no
#            iostreams, one CRC table; tests/check_elf.cmake)
#   asan     ASan/UBSan build + `ctest -L tier1` (BXT_THREADS=8, more
#            threads than cores); the sanitized, dynamically linked bxtd
#            boots and drains in test_tools
#   tsan     ThreadSanitizer build + telemetry/server/adaptive/parallel-
#            labelled ctest: the lock-free instrument paths, span rings,
#            the threaded server and the parallelFor fan-out under the
#            race detector
#   fuzz     ASan/UBSan build + bxt_fuzz campaign + fuzz/golden-labelled
#            ctest; BXT_FUZZ_SECONDS scales the budget (default 60) and
#            BXT_FUZZ_FRAMES the wire-frame parser pass (default 100000)
#   batch    batch/simd-labelled ctest in Release and, under ASan/UBSan,
#            at each forced dispatch level (BXT_SIMD=word/avx2/avx512) +
#            the bench_codec_throughput gates (BXT_BATCH_MIN_SPEEDUP,
#            default 1.5, best batch >= 512 over batch 1;
#            BXT_SIMD_MIN_SPEEDUP, default 2.0, best SIMD level over word
#            for xor4+zdr encode and decode at batch 512, which the bench
#            skips on a host with no vector level) + per-level bench
#            JSONs for bxt_report --diff
#   metrics  telemetry/tools-labelled ctest + the cost gate: serial
#            batch-1 suite sweeps with telemetry compiled in but off may
#            cost 2 % more CPU per transaction than with
#            -DBXT_TELEMETRY=OFF, both builds on one CPU at once
#   serve    server/tools-labelled ctest + a 4-shard bxtd for a
#            bxt_loadgen burst at the default depth 1 (>=
#            BXT_SERVE_MIN_TX_RATE encoded tx/s, default 100000, into
#            BENCH_server_loadgen.json) + the cost gate: a 1-shard
#            bxtd's CPU per transaction under --depth 16 bursts with
#            --trace-sample 0.01 at most 2 % above an untraced one's, the
#            two daemons on one CPU at once; the traced one's span trace
#            (BXT_TRACE) is kept; last, 1 s
#            perfbench/run.py runs of zipf-roundtrip (traced) and
#            hot-flood (both skipped below 4 cores)
#   scenario Release build + scenario-labelled ctest + a metrics-enabled
#            bxtd replaying the zipf-0.99 and hot-flood presets unpaced
#            over 4 connections (>= BXT_SCENARIO_MIN_TX_RATE encoded
#            tx/s each, default 50000) into BENCH_server_scenarios.json
#            and the hot-flood variant; then the shard cost gate: server
#            CPU per transaction of a 4-shard bxtd at most 1.75 times a
#            1-shard one's under the same depth-1 load (skipped
#            below 4 cores), with both merged snapshots kept
#   adaptive Release build + adaptive-labelled ctest, again under
#            ASan/UBSan + the live win gate: the zipf-0.99 and burst
#            presets, each on a fresh 4-shard bxtd, replayed with --spec
#            adaptive and --adaptive-compare
#            over the fixed candidates into BENCH_server_scenarios.json /
#            .burst.json, failing via `bxt_report --scenario
#            --assert-adaptive-wins` unless the adaptive controller puts
#            strictly fewer ones on the bus than every fixed spec
#
# The metrics, serve and scenario cost gates are one mechanism, cost_gate
# below (DESIGN.md §9): CPU time per unit of work, the two sides of a
# pair run at the same time (the shard gate's one after the other), the
# median of the pairs' ratios, one comparison, no retry.
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

configure_asan() {
    cmake -B build-ci-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
}

run_release() {
    echo "=== CI job: Release build + tier-1 ctest ==="
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j "${jobs}"
    ctest --test-dir build-ci-release --output-on-failure -j "${jobs}" \
        -L tier1
}

run_asan() {
    echo "=== CI job: ASan+UBSan build + tier-1 ctest ==="
    configure_asan
    cmake --build build-ci-asan -j "${jobs}"
    # Exercise the parallel engine under the sanitizers with more
    # threads than a small host has cores.
    BXT_THREADS=8 ctest --test-dir build-ci-asan --output-on-failure \
        -j "${jobs}" -L tier1
}

run_tsan() {
    echo "=== CI job: TSan build + telemetry/server/adaptive/parallel ctest ==="
    cmake -B build-ci-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
    # Every binary the selected labels run: test_telemetry also runs
    # bxt_report, a build dependency of it.
    cmake --build build-ci-tsan -j "${jobs}" \
        --target test_telemetry test_server test_adaptive test_parallel
    # The span rings, HDR histograms, and snapshot exporter are
    # lock-free; the server tests drive them from real worker threads,
    # the adaptive loopback test runs per-stream controllers on them, and
    # the parallel tests run the evaluation engine's parallelFor fan-out.
    ctest --test-dir build-ci-tsan --output-on-failure -j "${jobs}" \
        -L 'telemetry|server|adaptive|parallel'
}

run_fuzz() {
    echo "=== CI job: differential fuzz (ASan+UBSan) ==="
    configure_asan
    cmake --build build-ci-asan -j "${jobs}" \
        --target bxt_fuzz test_differential test_golden
    # The time-budgeted campaign sweeps every canonical spec and shrinks
    # any failure into tests/corpus/ (uploaded as a CI artifact). The
    # --frames pass also fuzzes the bxtd wire-frame parser (clean frames
    # must round-trip; corrupted ones must yield typed errors, never UB),
    # and --batch differentially checks batched encoding against
    # per-transaction encoding under the sanitizers
    # (BXT_FUZZ_BATCH_STREAMS scales it).
    ./build-ci-asan/tools/bxt_fuzz \
        --seconds "${BXT_FUZZ_SECONDS:-60}" \
        --frames "${BXT_FUZZ_FRAMES:-100000}" \
        --batch --batch-streams "${BXT_FUZZ_BATCH_STREAMS:-12}" \
        --corpus tests/corpus
    ctest --test-dir build-ci-asan --output-on-failure -j "${jobs}" \
        -L 'fuzz|golden'
}

run_batch() {
    echo "=== CI job: batch kernels vs per-transaction encoding ==="
    local targets=(test_batch test_simd test_checksum test_base_xor
        test_universal test_pipeline test_server_allocs)
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j "${jobs}" \
        --target "${targets[@]}" bench_codec_throughput
    # SIMD intrinsics under ASan/UBSan: force each dispatch level in
    # turn so every kernel tier's loads/stores and tail masks run
    # sanitized, not just the level CPUID would pick. Unsupported levels
    # clamp down (with a warning) rather than fail, so the loop is safe
    # on any host.
    configure_asan
    cmake --build build-ci-asan -j "${jobs}" --target "${targets[@]}"
    local level
    for level in word avx2 avx512; do
        echo "--- batch/simd ctest (ASan, BXT_SIMD=${level}) ---"
        BXT_SIMD="${level}" ctest --test-dir build-ci-asan \
            --output-on-failure -j "${jobs}" -L 'batch|simd'
    done
    # Differential coverage first (golden corpus through the batch
    # kernels, split-invariance, the short fuzz campaign), then the
    # throughput smoke: a batch >= 512 round trip must beat batch 1 (the
    # per-transaction path) by the gate factor on at least one spec, and
    # the sweep itself asserts BusStats field-identity at every batch
    # size. The bench skips the SIMD floor on a host with no vector level.
    ctest --test-dir build-ci-release --output-on-failure -j "${jobs}" \
        -L 'batch|simd'
    ./build-ci-release/bench/bench_codec_throughput \
        --batch-min-speedup "${BXT_BATCH_MIN_SPEEDUP:-1.5}" \
        --simd-min-speedup "${BXT_SIMD_MIN_SPEEDUP:-2.0}" \
        --json build-ci-release/BENCH_codec_throughput.json
    # Per-level bench JSONs (uploaded as CI artifacts; bxt_report --diff
    # renders the cross-level speedup tables from any pair of them).
    for level in word avx2 avx512; do
        BXT_SIMD="${level}" \
            ./build-ci-release/bench/bench_codec_throughput \
            --json "build-ci-release/BENCH_codec_throughput.${level}.json"
    done
}

run_metrics() {
    echo "=== CI job: telemetry ctest + overhead gate ==="
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j "${jobs}" \
        --target bench_codec_throughput test_telemetry test_tools
    local out=build-ci-release/metrics
    mkdir -p "${out}"
    # test_tools holds the traced fig15 and ablation runs: valid
    # snapshot and traces, and no span dropped on the way to the trace.
    ctest --test-dir build-ci-release --output-on-failure -j "${jobs}" \
        -L 'telemetry|tools'

    # Zero-cost-when-off gate: metrics-off may cost 2 % more CPU per
    # transaction than the same sources with telemetry compiled out, in
    # two serial suite sweeps at batch 1 (~1 s), where every telemetry
    # check on the eval path runs once per transaction. Both builds run
    # on one CPU at once, so they share its caches and its host load.
    cmake -B build-ci-notelemetry -S . -DCMAKE_BUILD_TYPE=Release \
        -DBXT_TELEMETRY=OFF
    cmake --build build-ci-notelemetry -j "${jobs}" \
        --target bench_codec_throughput
    local cpu=$(($(nproc) - 1))
    sweep() {
        taskset -c "${cpu}" "./$1/bench/bench_codec_throughput" \
            --cost-only --json "$2" > /dev/null
    }
    sweep_compiled_out() { sweep build-ci-notelemetry "$1"; }
    sweep_metrics_off() { sweep build-ci-release "$1"; }
    cost_gate 1.02 7 "${out}" sweep_compiled_out sweep_metrics_off
}

# cost_gate BOUND PAIRS DIR SIDE_A SIDE_B [apart]: PAIRS times, run the
# functions SIDE_A and SIDE_B at the same time (with "apart", one after
# the other), each writing a bench document with a "cost" to the path
# it is given; fail unless the median of the pairs' B-over-A CPU cost
# ratios is at most BOUND. Host load that slows one side of a pair slows
# the other too.
cost_gate() {
    local bound="$1" pairs="$2" dir="$3" side_a="$4" side_b="$5"
    local i a b pid base=() runs=()
    for i in $(seq 1 "${pairs}"); do
        a="${dir}/${side_a}.${i}.json"
        b="${dir}/${side_b}.${i}.json"
        rm -f "${a}" "${b}"
        if [ "${6:-}" = apart ]; then
            "${side_a}" "${a}" && "${side_b}" "${b}" || return 1
        else
            "${side_a}" "${a}" &
            pid=$!
            "${side_b}" "${b}" || { wait "${pid}"; return 1; }
            wait "${pid}" || return 1
        fi
        base+=(--base "${a}")
        runs+=("${b}")
    done
    echo "cost gate: ${side_b} against ${side_a}"
    ./build-ci-release/tools/bxt_report --assert-cost-ratio "${bound}" \
        "${base[@]}" "${runs[@]}"
}

# start_bxtd LOG SOCK ARGS...: boot the Release bxtd on the Unix socket
# SOCK with ARGS, output in LOG, and wait up to 10 s for the socket. A
# plain background command (no subshell), so bxtd_pid is bxtd itself and
# stop_bxtd's SIGTERM reaches the daemon, not a wrapper.
start_bxtd() {
    bxtd_log="$1"
    local sock="$2" i
    shift 2
    rm -f "${sock}"
    ./build-ci-release/tools/bxtd --unix "${sock}" "$@" \
        > "${bxtd_log}" 2>&1 &
    bxtd_pid=$!
    for i in $(seq 1 100); do
        [ -S "${sock}" ] && return 0
        sleep 0.1
    done
    echo "bxtd $* never created ${sock}" >&2
    cat "${bxtd_log}" >&2
    kill "${bxtd_pid}" 2>/dev/null || true
    return 1
}

# stop_bxtd [PID LOG]: SIGTERM the bxtd start_bxtd booted last (or PID,
# logging to LOG); it must drain cleanly (exit 0, not 143).
stop_bxtd() {
    local pid="${1:-${bxtd_pid}}" log="${2:-${bxtd_log}}"
    kill -TERM "${pid}"
    if ! wait "${pid}"; then
        echo "bxtd did not drain cleanly" >&2
        cat "${log}" >&2
        return 1
    fi
}

run_serve() {
    echo "=== CI job: server ctest + loadgen burst ==="
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j "${jobs}" --target test_server test_tools
    ctest --test-dir build-ci-release --output-on-failure -j "${jobs}" \
        -L 'server|tools'

    local out=build-ci-release/serve
    mkdir -p "${out}"
    local sock="${out}/bxtd.sock"
    start_bxtd "${out}/bxtd.log" "${sock}" --shards 4

    # One request in flight: every request is one batch of 32-byte
    # encodes; the tx-rate floor is the acceptance bar for a 4-shard
    # server.
    ./build-ci-release/tools/bxt_loadgen --unix "${sock}" \
        --spec baseline --tx-bytes 32 --batch 64 \
        --requests 4000 --json BENCH_server_loadgen.json \
        --assert-min-tx-rate "${BXT_SERVE_MIN_TX_RATE:-100000}"
    stop_bxtd

    # Trace-overhead gate: server CPU per transaction of pipelined
    # bursts (~1 s each) with 1 % of requests sampled for tracing may be
    # 2 % above untraced ones'. Each side has a 1-shard bxtd, both pinned
    # to one CPU. BXT_TRACE makes the exit after the drain write the
    # Chrome span trace artifact (test_tools checks such a trace).
    local cpu=$(($(nproc) - 1)) sock2="${out}/bxtd2.sock"
    BXT_TRACE="${out}/server_spans.untraced.json" start_bxtd \
        "${out}/bxtd.untraced.log" "${sock2}" --shards 1
    local pid2="${bxtd_pid}" log2="${bxtd_log}"
    BXT_TRACE="${out}/server_spans.json" start_bxtd \
        "${out}/bxtd.trace.log" "${sock}" --shards 1 ||
        { stop_bxtd "${pid2}" "${log2}"; return 1; }
    taskset -a -p -c "${cpu}" "${pid2}" > /dev/null
    taskset -a -p -c "${cpu}" "${bxtd_pid}" > /dev/null
    burst() {
        ./build-ci-release/tools/bxt_loadgen --unix "$1" \
            --depth 16 --spec baseline --tx-bytes 32 \
            --batch 64 --requests 400000 --json "$2" "${@:3}" > /dev/null
    }
    burst_untraced() { burst "${sock2}" "$1"; }
    burst_traced() { burst "${sock}" "$1" --trace-sample 0.01; }
    local gate_ok=1
    cost_gate 1.02 5 "${out}" burst_untraced burst_traced || gate_ok=""
    stop_bxtd
    stop_bxtd "${pid2}" "${log2}"
    [ -n "${gate_ok}" ] || return 1

    # Frozen-benchmark guard: perfbench's in-process replay still calls
    # FrameParser::feed/next(Frame &), Service::handle(const Frame &) and
    # serializeFrame, and nothing else in CI builds it. One traced second
    # builds and runs it; its output checks fail the run. One untraced
    # hot-flood second then drives the other half of the benchmark,
    # three TCP connections into one shard, and checks every reply.
    if [ "$(nproc)" -ge 4 ]; then
        python3 perfbench/run.py --workload zipf-roundtrip --seed 1 \
            --seconds 1 --trace 1 > "${out}/perfbench_smoke.txt"
        python3 perfbench/run.py --workload hot-flood --seed 1 \
            --seconds 1 --trace 0 > "${out}/perfbench_hot_flood.txt"
    else
        echo "serve: <4 cores, perfbench smoke skipped (zipf-roundtrip's" \
            "2 shards and 2 client threads need a CPU each)"
    fi
    echo "serve: BENCH_server_loadgen.json, trace-overhead gate," \
        "server_spans.json written"
}

run_scenario() {
    echo "=== CI job: multi-tenant scenario traffic + per-tenant gates ==="
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j "${jobs}" \
        --target bxtd bxt_client bxt_loadgen bxt_report test_scenario \
        test_server
    ctest --test-dir build-ci-release --output-on-failure -j "${jobs}" \
        -L scenario

    local out=build-ci-release/scenario
    mkdir -p "${out}"
    local sock="${out}/bxtd.sock"

    # Metrics on, so the per-tenant stream counters are live and land in
    # the bench documents' embedded snapshots.
    BXT_METRICS=1 start_bxtd "${out}/bxtd.log" "${sock}" --shards 4

    # Unpaced replays so the floor measures server capacity, not the
    # scenario's arrival schedule. Fixed seed: the request stream (and
    # therefore the JSON's per-tenant rows) is reproducible.
    local floor="${BXT_SCENARIO_MIN_TX_RATE:-50000}"
    ./build-ci-release/tools/bxt_loadgen --unix "${sock}" \
        --scenario zipf-0.99 --no-pace --connections 4 --seed 1 \
        --json BENCH_server_scenarios.json \
        --assert-min-tx-rate "${floor}"
    ./build-ci-release/tools/bxt_loadgen --unix "${sock}" \
        --scenario hot-flood --no-pace --connections 4 --seed 1 \
        --json BENCH_server_scenarios.hot-flood.json \
        --assert-min-tx-rate "${floor}"
    ./build-ci-release/tools/bxt_report --scenario \
        BENCH_server_scenarios.json BENCH_server_scenarios.hot-flood.json
    stop_bxtd

    # Shard-scaling gate: server CPU per transaction of depth-1
    # xor4+zdr bursts over 8 connections (~1 s each) on a 4-shard bxtd
    # may be 1.75 times a 1-shard one's. Each burst has the machine to
    # itself: run at once, the two daemons' 21 busy threads on 4 CPUs
    # hid most of a lock shared across shards. Each of the 4 shards
    # serves 2 connections, not 8, so it pays more wake-ups per request.
    # The merged snapshots (bxt.server.shard.<i>.* breakdown) are kept.
    if [ "$(nproc)" -lt 4 ]; then
        echo "scenario: <4 cores, shard-scaling gate skipped"
        return 0
    fi
    local sock1="${out}/bxtd1.sock"
    BXT_METRICS=1 start_bxtd "${out}/bxtd.shards1.log" "${sock1}" --shards 1
    local pid1="${bxtd_pid}" log1="${bxtd_log}"
    BXT_METRICS=1 start_bxtd "${out}/bxtd.shards4.log" "${sock}" --shards 4 ||
        { stop_bxtd "${pid1}" "${log1}"; return 1; }
    burst() {
        ./build-ci-release/tools/bxt_loadgen --unix "$1" \
            --connections 8 --spec xor4+zdr --tx-bytes 32 --batch 64 \
            --requests 250000 --json "$2" > /dev/null
    }
    one_shard() { burst "${sock1}" "$1"; }
    four_shards() { burst "${sock}" "$1"; }
    local gate_ok=1
    cost_gate 1.75 5 "${out}" one_shard four_shards apart || gate_ok=""
    ./build-ci-release/tools/bxt_client --unix "${sock1}" --mode snapshot \
        > "${out}/server_snapshot.shards1.json"
    ./build-ci-release/tools/bxt_client --unix "${sock}" --mode snapshot \
        > "${out}/server_snapshot.shards4.json"
    ./build-ci-release/tools/bxt_report --validate \
        "${out}/server_snapshot.shards1.json" \
        "${out}/server_snapshot.shards4.json"
    stop_bxtd
    stop_bxtd "${pid1}" "${log1}"
    [ -n "${gate_ok}" ] || return 1
    echo "scenario: BENCH_server_scenarios.json + hot-flood variant," \
        "shard-scaling artifacts + gate done"
}

run_adaptive() {
    echo "=== CI job: adaptive codec selection + ones-on-bus win gate ==="
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j "${jobs}" \
        --target bxtd bxt_loadgen bxt_report test_adaptive
    ctest --test-dir build-ci-release --output-on-failure -j "${jobs}" \
        -L adaptive
    # The controller's measurement encodes and the switch path under the
    # sanitizers, including the loopback migration test.
    configure_asan
    cmake --build build-ci-asan -j "${jobs}" --target test_adaptive
    ctest --test-dir build-ci-asan --output-on-failure -j "${jobs}" \
        -L adaptive

    local out=build-ci-release/adaptive
    mkdir -p "${out}"
    local sock="${out}/bxtd.sock"

    # The win gate: replay each preset once under --spec adaptive and
    # once per fixed candidate over the identical request stream, then
    # require the adaptive pass to put strictly fewer ones on the bus
    # than every fixed spec. The candidate list mirrors
    # adaptive::defaultConfig(). Controllers live in each shard's codec
    # cache for the daemon's life, keyed by spec, geometry and stream
    # id, not per connection: each preset gets a fresh bxtd, so its
    # adaptive pass starts from cold controllers.
    local candidates="universal3+zdr,xor2+zdr,xor4+zdr,xor8+zdr,baseline"
    local preset
    for preset in zipf-0.99 burst; do
        local json="BENCH_server_scenarios.json"
        [ "${preset}" = burst ] && json="BENCH_server_scenarios.burst.json"
        BXT_METRICS=1 start_bxtd "${out}/bxtd.${preset}.log" "${sock}" \
            --shards 4
        ./build-ci-release/tools/bxt_loadgen --unix "${sock}" \
            --scenario "${preset}" --no-pace --connections 4 --seed 1 \
            --spec adaptive --adaptive-compare "${candidates}" \
            --json "${json}" || { stop_bxtd; return 1; }
        stop_bxtd
        ./build-ci-release/tools/bxt_report --scenario \
            --assert-adaptive-wins "${json}"
    done
    echo "adaptive: win gate passed on zipf-0.99 + burst;" \
        "BENCH_server_scenarios.json + burst variant written"
}

case "${mode}" in
  release) run_release ;;
  asan)    run_asan ;;
  tsan)    run_tsan ;;
  fuzz)    run_fuzz ;;
  batch)   run_batch ;;
  metrics) run_metrics ;;
  serve)   run_serve ;;
  scenario) run_scenario ;;
  adaptive) run_adaptive ;;
  all)     run_release; run_asan; run_tsan; run_batch; run_metrics; run_serve; run_scenario; run_adaptive ;;
  *) echo "usage: $0 [release|asan|tsan|fuzz|batch|metrics|serve|scenario|adaptive|all]" >&2; exit 2 ;;
esac
echo "CI ${mode}: OK"
