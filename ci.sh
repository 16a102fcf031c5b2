#!/usr/bin/env bash
# CI script: tier-1 verify in Release, plus ASan/UBSan and TSan jobs so
# the concurrency code (parallelFor / parallel evalSuite) is
# sanitizer-checked on every change, plus a fuzz job that runs the
# differential verifier (tools/bxt_fuzz) under the sanitizers on a
# wall-clock budget.
#
# Usage: ./ci.sh [release|asan|tsan|fuzz|batch|metrics|serve|scenario|
#                 adaptive|all]
# (default: all)
#   release  Release build + `ctest -L tier1` + a readelf check that
#            bxtd is a static PIE (ELF type DYN, a GNU_RELRO segment, no
#            INTERP segment, no NEEDED entry) + an nm check that bxtd
#            links no iostream/locale symbol and one CRC table (prints
#            its `size` line) + malformed tool option values (`bxt_fuzz
#            --iters 10O`, `bxt_loadgen --depth 4x`,
#            `bench_codec_throughput --batch-min-speedup 1OOO`) must
#            exit 2
#   asan     ASan/UBSan build + `ctest -L tier1` (BXT_THREADS=8, more
#            threads than cores) +
#            the sanitized bxtd (dynamically linked) answers a Ping and
#            exits 0 on SIGTERM
#   tsan     ThreadSanitizer build + telemetry/server/adaptive/parallel-
#            labeled ctest: the lock-free instrument paths, span rings,
#            the threaded server and the parallelFor fan-out under the
#            race detector
#   fuzz     ASan/UBSan build + bxt_fuzz campaign + fuzz/golden-labeled
#            ctest; BXT_FUZZ_SECONDS scales the budget (default 60) and
#            BXT_FUZZ_FRAMES the wire-frame parser pass (default 100000)
#   batch    Release build + batch/simd-labeled ctest (batch kernels vs
#            the reference codecs, SIMD tables vs the scalar table, the
#            Base+XOR/Universal/pipeline codec suites, the wire CRC32 at
#            every level vs a bitwise reference, the allocation-free
#            in-place reply path with its metadata packing) + a check
#            that no kernels_*.o exports a weak bxt::simd::detail
#            symbol but the shared crc32Tables data (kernel_common.h's
#            functions have internal linkage) + an
#            ASan/UBSan pass of the same tests forced through every
#            dispatch level (BXT_SIMD=scalar/word/avx2/avx512) + the
#            bench_codec_throughput sweep with its speedup gates
#            (BXT_BATCH_MIN_SPEEDUP, default 1.5, best batch >= 512
#            over batch 1; BXT_SIMD_MIN_SPEEDUP, default 2.0, best SIMD
#            level over word for xor4+zdr encode and for xor4+zdr
#            decode at batch 512, enforced only on AVX2-capable runners)
#            + per-level bench JSONs for
#            bxt_report --diff
#   metrics  Release build + telemetry-enabled run: validates the metrics
#            snapshot and the fig15 and ablation traces with bxt_report,
#            checks that neither trace dropped a span, then asserts the
#            compiled-in-but-disabled telemetry costs under
#            BXT_METRICS_OVERHEAD_PCT (default 2) percent versus a
#            -DBXT_TELEMETRY=OFF baseline build of the same sources
#   serve    Release build + server-labeled ctest + bad option values
#            (each must exit 2 within 1 s with no socket) + live bxtd
#            smoke: boot a 4-shard bxtd on a Unix socket and a TCP
#            port, ping it and round-trip a captured trace through it
#            over each, drive a closed-loop bxt_loadgen burst (asserting >=
#            BXT_SERVE_MIN_TX_RATE encoded tx/s, default 100000, into
#            BENCH_server_loadgen.json), re-run the burst with
#            --trace-sample 0.01 and assert the traced tx rate stays
#            within BXT_TRACE_OVERHEAD_PCT (default 2) percent of the
#            untraced one, upload the Chrome span trace bxtd
#            writes at exit (BXT_TRACE) and a schema-2 Snapshot-opcode
#            document, then SIGTERM it with five never-reading peers
#            connected (a python3 helper) and assert a clean drain (exit
#            0, "drained, exiting", within 8 s);
#            last, a 1 s traced zipf-roundtrip run of perfbench/run.py,
#            the only CI step that builds the benchmark's replay of the
#            library's Frame API, and a 1 s untraced hot-flood run, which
#            checks every reply bxtd serves over TCP (both skipped below
#            4 cores)
#   scenario Release build + scenario-labeled ctest + multi-tenant traffic
#            smoke: boot a metrics-enabled bxtd, replay the zipf-0.99 and
#            hot-flood presets unpaced over 4 connections (asserting
#            >= BXT_SCENARIO_MIN_TX_RATE encoded tx/s each, default
#            50000), and upload BENCH_server_scenarios.json plus the
#            hot-flood variant; then the shard-scaling gate: the same
#            hot-flood replay against bxtd --shards 1 and --shards 4,
#            failing via `bxt_report --assert-shard-scaling` unless the
#            4-shard aggregate tx rate is >= BXT_SHARD_SCALING_MIN
#            (default 2.5) times the single-shard one (skipped below 4
#            cores), with both runs' merged per-shard snapshots
#            (bxt.server.shard.<i>.*) uploaded as artifacts
#   adaptive Release build + adaptive-labeled ctest (grammar, controller
#            cost model, differential byte-identity, loopback migration)
#            + an ASan/UBSan pass of the same tests + the live win gate:
#            boot a metrics-enabled bxtd, replay the zipf-0.99 and burst
#            presets with --spec adaptive and --adaptive-compare over the
#            fixed candidate set, write the spec-comparison rows into
#            BENCH_server_scenarios.json / .burst.json, and fail via
#            `bxt_report --scenario --assert-adaptive-wins` unless the
#            adaptive controller's total ones-on-bus is strictly below
#            every fixed spec's on both presets
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

configure_asan() {
    cmake -B build-ci-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
}

# check_static_pie BIN: fail, naming the property, unless BIN is a
# static PIE: ELF type DYN (so ASLR still moves it), a GNU_RELRO segment,
# and no INTERP segment or NEEDED entry (so a start runs no dynamic
# loader). tools/CMakeLists.txt links bxtd this way when its probe runs.
check_static_pie() {
    local bin="$1" elf missing=""
    elf="$(readelf --file-header --program-headers --dynamic "${bin}")"
    grep -q '^ *Type: *DYN ' <<<"${elf}" || missing+=" ELF type is not DYN;"
    grep -q ' GNU_RELRO ' <<<"${elf}" || missing+=" no GNU_RELRO segment;"
    if grep -q '^ *INTERP ' <<<"${elf}"; then
        missing+=" has an INTERP segment;"
    fi
    if grep -q '(NEEDED)' <<<"${elf}"; then
        missing+=" has NEEDED entries;"
    fi
    if [ -n "${missing}" ]; then
        echo "${bin} is not a static PIE:${missing}" >&2
        return 1
    fi
    echo "${bin}: static PIE (DYN, GNU_RELRO, no INTERP, no NEEDED)"
}

# check_daemon_text BIN: fail, naming the first offending symbol, if BIN
# links iostreams. One <fstream> in a server-linked file maps
# libstdc++'s locale machinery back into bxtd, about 0.4 MB of
# resident text (DESIGN.md §10 "What bxtd maps"). Also fail unless the
# kernels' CRC tables are one copy, then print BIN's `size` line.
check_daemon_text() {
    local bin="$1" symbols leak copies
    symbols="$(nm -C "${bin}")"
    leak="$(grep -m1 -E 'std::basic_filebuf|std::basic_ios<|std::ios_base::Init|std::locale::_Impl' \
        <<<"${symbols}" || true)"
    if [ -n "${leak}" ]; then
        echo "${bin} links iostreams: ${leak}" >&2
        return 1
    fi
    copies="$(grep -c ' bxt::simd::detail::crc32Tables$' <<<"${symbols}" ||
        true)"
    if [ "${copies}" -ne 1 ]; then
        echo "${bin} holds ${copies} copies of crc32Tables; want 1" >&2
        return 1
    fi
    size "${bin}" | tail -n 1
}

# expect_bad_value FLAG CMD...: CMD must refuse its malformed FLAG value
# with exit 2 within 5 s, naming the flag, instead of reading the
# value's numeric prefix (`bxt_fuzz --iters 10O` once ran 10
# transactions and exited 0).
expect_bad_value() {
    local flag="$1" status=0 log
    shift
    log="$(dirname "$1")/bad_value.log"
    timeout 5 "$@" 2> "${log}" || status=$?
    if [ "${status}" -ne 2 ] || ! grep -q -- "bad ${flag} " "${log}"; then
        echo "$*: exit ${status}; want exit 2 naming ${flag}" >&2
        cat "${log}" >&2
        return 1
    fi
}

run_release() {
    echo "=== CI job: Release build + tier-1 ctest ==="
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j "${jobs}"
    ctest --test-dir build-ci-release --output-on-failure -j "${jobs}" \
        -L tier1
    check_static_pie build-ci-release/tools/bxtd
    check_daemon_text build-ci-release/tools/bxtd
    expect_bad_value --iters build-ci-release/tools/bxt_fuzz --iters 10O
    expect_bad_value --depth build-ci-release/tools/bxt_loadgen \
        --unix none --depth 4x
    expect_bad_value --batch-min-speedup \
        build-ci-release/bench/bench_codec_throughput \
        --batch-min-speedup 1OOO
}

run_asan() {
    echo "=== CI job: ASan+UBSan build + tier-1 ctest ==="
    configure_asan
    cmake --build build-ci-asan -j "${jobs}"
    # Exercise the parallel engine under the sanitizers with more
    # threads than a small host has cores.
    BXT_THREADS=8 ctest --test-dir build-ci-asan --output-on-failure \
        -j "${jobs}" -L tier1
    # The sanitized bxtd links dynamically (a -static-pie link with ASan
    # crashes at start, and tools/CMakeLists.txt's run probe catches
    # that); a fallback that went wrong shows here as a dead daemon.
    local out=build-ci-asan/serve
    mkdir -p "${out}"
    bxtd_bin=build-ci-asan/tools/bxtd start_bxtd "${out}/bxtd.log" \
        "${out}/bxtd.sock" --shards 2
    ./build-ci-asan/tools/bxt_client --unix "${out}/bxtd.sock" --mode ping
    stop_bxtd
}

run_tsan() {
    echo "=== CI job: TSan build + telemetry/server/adaptive/parallel ctest ==="
    cmake -B build-ci-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
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
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j "${jobs}" \
        --target test_batch test_simd test_checksum test_base_xor \
        test_universal test_pipeline test_server_allocs \
        bench_codec_throughput
    # The kernel_common.h helpers have internal linkage. A weak
    # bxt::simd::detail symbol in a kernels_*.o would let the linker keep
    # one TU's copy (maybe built with -mavx2/-mavx512*) for every tier.
    # The one exception is crc32Tables: constant data, the same bytes
    # under every -m flag, shared on purpose so a binary holds one copy.
    local weak
    weak="$(nm -C build-ci-release/src/core/CMakeFiles/bxt_core.dir/simd/kernels_*.o |
        grep -E ' [WVu] .*bxt::simd::detail' |
        grep -v ' u bxt::simd::detail::crc32Tables$' || true)"
    if [[ -n "${weak}" ]]; then
        echo "weak bxt::simd::detail symbols in kernel objects:" >&2
        echo "${weak}" >&2
        exit 1
    fi
    # SIMD intrinsics under ASan/UBSan: force each dispatch level in
    # turn so every kernel tier's loads/stores and tail masks run
    # sanitized, not just the level CPUID would pick. Unsupported levels
    # clamp down (with a warning) rather than fail, so the loop is safe
    # on any host.
    configure_asan
    cmake --build build-ci-asan -j "${jobs}" \
        --target test_batch test_simd test_checksum test_base_xor \
        test_universal test_pipeline test_server_allocs
    local level
    for level in scalar word avx2 avx512; do
        echo "--- batch/simd ctest (ASan, BXT_SIMD=${level}) ---"
        BXT_SIMD="${level}" ctest --test-dir build-ci-asan \
            --output-on-failure -j "${jobs}" -L 'batch|simd'
    done
    # Differential coverage first (golden corpus through the batch
    # kernels, split-invariance, the short fuzz campaign), then the
    # throughput smoke: a batch >= 512 round trip must beat batch 1 (the
    # per-transaction path) by the gate factor on at least one spec, and
    # the sweep itself asserts BusStats field-identity at every batch size.
    ctest --test-dir build-ci-release --output-on-failure -j "${jobs}" \
        -L 'batch|simd'
    # The SIMD floor only binds on hosts whose CPU can beat the word
    # baseline; elsewhere the bench skips the gate with a note.
    local simd_gate=()
    if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
        simd_gate=(--simd-min-speedup "${BXT_SIMD_MIN_SPEEDUP:-2.0}")
    else
        echo "no AVX2 on this runner; skipping the SIMD speedup floor"
    fi
    ./build-ci-release/bench/bench_codec_throughput \
        --batch-min-speedup "${BXT_BATCH_MIN_SPEEDUP:-1.5}" \
        "${simd_gate[@]}" \
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
    echo "=== CI job: telemetry snapshot + overhead gate ==="
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j "${jobs}" \
        --target bench_codec_throughput bench_fig15_comparison \
        bench_ablation bxt_report test_telemetry
    local out=build-ci-release/metrics
    mkdir -p "${out}"

    # Telemetry-labeled tests, then a telemetry-on figure run and a traced
    # ablation run (the CI-built bench that records the most spans on one
    # thread): validate the emitted snapshot and traces with bxt_report,
    # and require every span recorded to reach its trace.
    ctest --test-dir build-ci-release --output-on-failure -L telemetry
    BXT_METRICS=1 BXT_TRACE="${out}/fig15_trace.json" \
        ./build-ci-release/bench/bench_fig15_comparison \
        --json "${out}/fig15.json" > /dev/null
    ./build-ci-release/tools/bxt_report --validate "${out}/fig15.json"
    BXT_TRACE="${out}/ablation_trace.json" \
        ./build-ci-release/bench/bench_ablation > /dev/null
    local trace
    for trace in "${out}/fig15_trace.json" "${out}/ablation_trace.json"; do
        ./build-ci-release/tools/bxt_report --validate-trace "${trace}"
        python3 - "${trace}" <<'PY'
import json, sys
dropped = json.load(open(sys.argv[1]))["otherData"]["droppedSpans"]
if dropped != 0:
    sys.exit(f"{sys.argv[1]}: {dropped} spans dropped")
PY
    done

    # Overhead gate for the zero-cost-when-off contract: the metrics-off
    # suite sweep must stay within the budget of the same sweep built
    # with telemetry compiled out (-DBXT_TELEMETRY=OFF), which stands in
    # for the pre-telemetry baseline. The sweep is short, so give CI
    # timing noise a couple of retries before failing.
    cmake -B build-ci-notelemetry -S . -DCMAKE_BUILD_TYPE=Release \
        -DBXT_TELEMETRY=OFF
    cmake --build build-ci-notelemetry -j "${jobs}" \
        --target bench_codec_throughput
    local limit="${BXT_METRICS_OVERHEAD_PCT:-2}"
    # Untimed warmup of both binaries so attempt 1 is not measuring cold
    # page caches / frequency ramp.
    ./build-ci-notelemetry/bench/bench_codec_throughput \
        --json "${out}/sweep_baseline.json" > /dev/null
    ./build-ci-release/bench/bench_codec_throughput \
        --json "${out}/sweep_off.json" > /dev/null
    local attempt
    for attempt in 1 2 3; do
        ./build-ci-notelemetry/bench/bench_codec_throughput \
            --json "${out}/sweep_baseline.json" > /dev/null
        ./build-ci-release/bench/bench_codec_throughput \
            --json "${out}/sweep_off.json" > /dev/null
        if ./build-ci-release/tools/bxt_report \
            --assert-overhead "${limit}" \
            "${out}/sweep_baseline.json" "${out}/sweep_off.json"; then
            return 0
        fi
        echo "overhead gate attempt ${attempt} failed; retrying"
    done
    echo "telemetry overhead gate failed after 3 attempts" >&2
    return 1
}

# start_bxtd LOG SOCK ARGS...: boot the Release bxtd (or bxtd_bin, when
# set) on the Unix socket SOCK with ARGS, output in LOG, and wait up to
# 10 s for the socket and, when ARGS has --listen, for its "listening on
# tcp://" line (the address is kept in bxtd_tcp). A plain background command (no
# subshell), so bxtd_pid is bxtd itself and stop_bxtd's SIGTERM reaches
# the daemon, not a wrapper.
start_bxtd() {
    bxtd_log="$1"
    local sock="$2"
    shift 2
    local want_tcp=""
    [[ " $* " == *" --listen "* ]] && want_tcp=1
    rm -f "${sock}"
    "${bxtd_bin:-./build-ci-release/tools/bxtd}" --unix "${sock}" "$@" \
        > "${bxtd_log}" 2>&1 &
    bxtd_pid=$!
    bxtd_tcp=""
    local i
    for i in $(seq 1 100); do
        if [ -n "${want_tcp}" ]; then
            bxtd_tcp=$(sed -n 's|^bxtd: listening on tcp://||p' \
                "${bxtd_log}" 2>/dev/null)
            [ -S "${sock}" ] && [ -n "${bxtd_tcp}" ] && return 0
        else
            [ -S "${sock}" ] && return 0
        fi
        sleep 0.1
    done
    local missing="${sock}"
    [ -n "${want_tcp}" ] && missing+=" or never printed its TCP port"
    echo "bxtd $* never created ${missing}" >&2
    cat "${bxtd_log}" >&2
    kill "${bxtd_pid}" 2>/dev/null || true
    return 1
}

# stop_bxtd: SIGTERM the bxtd start_bxtd booted and require a clean
# drain (exit 0, not 143); the drain time is kept in bxtd_drain_ms.
stop_bxtd() {
    local t0 status=0
    t0=$(date +%s%N)
    kill -TERM "${bxtd_pid}"
    wait "${bxtd_pid}" || status=$?
    bxtd_drain_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
    if [ "${status}" -ne 0 ]; then
        echo "bxtd did not drain cleanly (exit ${status})" >&2
        cat "${bxtd_log}" >&2
        return 1
    fi
}

run_serve() {
    echo "=== CI job: bxtd loopback smoke + loadgen burst ==="
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j "${jobs}" \
        --target bxtd bxt_client bxt_loadgen bxt_report trace_tool \
        test_server
    ctest --test-dir build-ci-release --output-on-failure -j "${jobs}" \
        -L server

    local out=build-ci-release/serve
    mkdir -p "${out}"
    local sock="${out}/bxtd.sock"

    # Option values that are not whole decimal numbers in range are
    # refused: exit 2 within 1 s, naming the flag, with no socket made.
    local bad
    for bad in --shards=2x --shards=0 --shards=257 --idle-timeout=abc \
        --idle-timeout=-2 --max-pending=abc --max-pending=0; do
        local status=0
        rm -f "${sock}"
        timeout 1 ./build-ci-release/tools/bxtd --unix "${sock}" "${bad}" \
            2> "${out}/bad_option.log" || status=$?
        if [ "${status}" -ne 2 ] || [ -e "${sock}" ] ||
            ! grep -q -- "bad ${bad%%=*} " "${out}/bad_option.log"; then
            echo "bxtd ${bad}: exit ${status}; want exit 2 within 1 s," \
                "naming ${bad%%=*}, and no socket" >&2
            cat "${out}/bad_option.log" >&2
            return 1
        fi
    done

    # BXT_TRACE makes the exit after the drain write the Chrome span
    # trace artifact. Both listeners are up, so the drain below covers
    # the acceptor with TCP and Unix connections behind it.
    BXT_TRACE="${out}/server_spans.json" start_bxtd "${out}/bxtd.log" \
        "${sock}" --listen 127.0.0.1:0 --shards 4
    local tcp="${bxtd_tcp}"

    # Loopback smoke over both socket families: ping, then round-trip a
    # captured workload trace through a paper-representative pipeline
    # and confirm bit-identity.
    ./build-ci-release/tools/bxt_client --unix "${sock}" --mode ping
    ./build-ci-release/tools/bxt_client --tcp "${tcp}" --mode ping
    ./build-ci-release/examples/trace_tool gen rodinia-bfs \
        "${out}/smoke.bxtrace" 512
    ./build-ci-release/tools/bxt_client --unix "${sock}" \
        --spec universal3+zdr --mode roundtrip "${out}/smoke.bxtrace"
    ./build-ci-release/tools/bxt_client --tcp "${tcp}" \
        --spec universal3+zdr --mode roundtrip "${out}/smoke.bxtrace"

    # Closed-loop load: every request is one batch of 32-byte encodes;
    # the tx-rate floor is the acceptance bar for a 4-shard server.
    ./build-ci-release/tools/bxt_loadgen --unix "${sock}" \
        --closed-loop --spec baseline --tx-bytes 32 --batch 64 \
        --requests 4000 --json BENCH_server_loadgen.json \
        --assert-min-tx-rate "${BXT_SERVE_MIN_TX_RATE:-100000}"

    # Trace-overhead gate: the same burst with 1 % span sampling must
    # stay within BXT_TRACE_OVERHEAD_PCT percent of the untraced rate.
    # Both runs are warm by now; still, give CI timing noise a couple of
    # retries (re-measuring BOTH sides each attempt) before failing.
    local trace_limit="${BXT_TRACE_OVERHEAD_PCT:-2}"
    local attempt gate_ok=""
    for attempt in 1 2 3; do
        ./build-ci-release/tools/bxt_loadgen --unix "${sock}" \
            --closed-loop --spec baseline --tx-bytes 32 --batch 64 \
            --requests 4000 --json "${out}/loadgen_untraced.json" \
            > /dev/null
        ./build-ci-release/tools/bxt_loadgen --unix "${sock}" \
            --closed-loop --spec baseline --tx-bytes 32 --batch 64 \
            --requests 4000 --trace-sample 0.01 \
            --json "${out}/loadgen_traced.json" > /dev/null
        if ./build-ci-release/tools/bxt_report \
            --assert-tx-overhead "${trace_limit}" \
            "${out}/loadgen_untraced.json" "${out}/loadgen_traced.json"
        then
            gate_ok=1
            break
        fi
        echo "trace overhead gate attempt ${attempt} failed; retrying"
    done
    if [ -z "${gate_ok}" ]; then
        echo "trace overhead gate failed after 3 attempts" >&2
        kill "${bxtd_pid}" 2>/dev/null || true
        return 1
    fi

    # Live-introspection artifact: the Snapshot opcode's schema-2
    # document (what bxt_top polls), validated like any other snapshot.
    ./build-ci-release/tools/bxt_client --unix "${sock}" \
        --mode snapshot > "${out}/server_snapshot.json"
    ./build-ci-release/tools/bxt_report --validate \
        "${out}/server_snapshot.json"

    # Peers that never read: five connections each pipeline twelve
    # 256 KiB baseline Encodes, then hold ~3 MB of replies unread.
    # Round-robin puts two of them on one shard.
    python3 - "${sock}" > "${out}/stuck_peers.log" 2>&1 <<'PY' &
import socket, struct, sys, time, zlib
spec = b"baseline"
body = struct.pack("<IIQ", 64, 32, 4096) + bytes(range(256)) * 1024
head = b"BXTP" + struct.pack("<BBHII", 1, 2, 0, len(spec), len(body))
head += spec + body
frame = head + struct.pack("<I", zlib.crc32(head))
peers = []
for _ in range(5):
    peer = socket.socket(socket.AF_UNIX)
    peer.connect(sys.argv[1])
    peer.sendall(frame * 12)
    peers.append(peer)
print("stuck peers connected", flush=True)
time.sleep(120)
PY
    local stuck_pid=$! i
    for i in $(seq 1 100); do
        grep -q "stuck peers connected" "${out}/stuck_peers.log" && break
        sleep 0.1
    done
    if ! grep -q "stuck peers connected" "${out}/stuck_peers.log"; then
        echo "stuck-peer helper never connected" >&2
        cat "${out}/stuck_peers.log" >&2
        kill "${stuck_pid}" "${bxtd_pid}" 2>/dev/null || true
        return 1
    fi

    # Graceful drain: a clean exit 0, and the stuck peers share each
    # shard's one 5 s flush deadline, so the drain ends within 8 s.
    local status=0
    stop_bxtd || status=$?
    kill "${stuck_pid}" 2>/dev/null || true
    wait "${stuck_pid}" 2>/dev/null || true
    [ "${status}" -eq 0 ] || return 1
    grep -q "drained, exiting" "${out}/bxtd.log"
    if [ "${bxtd_drain_ms}" -gt 8000 ]; then
        echo "bxtd took ${bxtd_drain_ms} ms to drain with five peers" \
            "that never read (limit 8000)" >&2
        return 1
    fi
    echo "serve: drained in ${bxtd_drain_ms} ms with five never-reading" \
        "peers"
    # The exit wrote the span trace (the traced burst sampled ~1 % of
    # 4000 requests, so it cannot be empty).
    ./build-ci-release/tools/bxt_report --validate-trace \
        "${out}/server_spans.json"

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
    echo "serve: clean drain; BENCH_server_loadgen.json, trace-overhead" \
        "gate, server_spans.json + server_snapshot.json written"
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

    # Shard-scaling gate: the same unpaced hot-flood replay against a
    # single-shard and a 4-shard bxtd. Shared-nothing sharding must buy
    # real aggregate throughput; per-shard snapshots (the merged Stats
    # document with the bxt.server.shard.<i>.* breakdown) are kept as
    # artifacts so a failed gate can be diagnosed from the load balance.
    local shards
    for shards in 1 4; do
        BXT_METRICS=1 start_bxtd "${out}/bxtd.shards${shards}.log" \
            "${sock}" --shards "${shards}"
        ./build-ci-release/tools/bxt_loadgen --unix "${sock}" \
            --scenario hot-flood --no-pace --connections 8 --seed 1 \
            --json "${out}/hot-flood.shards${shards}.json"
        ./build-ci-release/tools/bxt_client --unix "${sock}" \
            --mode snapshot > "${out}/server_snapshot.shards${shards}.json"
        ./build-ci-release/tools/bxt_report --validate \
            "${out}/server_snapshot.shards${shards}.json"
        stop_bxtd
    done
    if [ "$(nproc)" -ge 4 ]; then
        ./build-ci-release/tools/bxt_report --assert-shard-scaling \
            "${BXT_SHARD_SCALING_MIN:-2.5}" \
            "${out}/hot-flood.shards1.json" \
            "${out}/hot-flood.shards4.json"
    else
        echo "scenario: <4 cores, shard-scaling gate skipped" \
            "(artifacts still written)"
    fi
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
    BXT_METRICS=1 start_bxtd "${out}/bxtd.log" "${sock}" --shards 4

    # The win gate: replay each preset once under --spec adaptive and
    # once per fixed candidate over the identical request stream (fresh
    # connections per pass, so per-stream controllers start cold), then
    # require the adaptive pass to put strictly fewer ones on the bus
    # than every fixed spec. The candidate list mirrors
    # adaptive::defaultConfig().
    local candidates="universal3+zdr,xor2+zdr,xor4+zdr,xor8+zdr,baseline"
    local preset
    for preset in zipf-0.99 burst; do
        local json="BENCH_server_scenarios.json"
        [ "${preset}" = burst ] && json="BENCH_server_scenarios.burst.json"
        ./build-ci-release/tools/bxt_loadgen --unix "${sock}" \
            --scenario "${preset}" --no-pace --connections 4 --seed 1 \
            --spec adaptive --adaptive-compare "${candidates}" \
            --json "${json}"
        ./build-ci-release/tools/bxt_report --scenario \
            --assert-adaptive-wins "${json}"
    done
    stop_bxtd
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
