#!/usr/bin/env python3
"""The bxtd serving benchmark.

Builds bxtd and the benchmark drivers from this checkout, runs one
workload and prints every metric by name with its unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of a live run. --trace 1 runs
the same live run with Snapshot requests around the measured window,
then the in-process per-layer replay, and reports the per-layer ledger.
The exit code is 0 only when every output check passed.

Usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")  # Relative to ROOT.

WORKLOADS = ("hot-flood", "zipf-roundtrip")

# A one-second window in which the hypervisor stole more than this share
# of the benchmark's CPU time measures the host, not bxtd.
STEAL_LIMIT = 0.02

END_TO_END = {
    "tx_per_s": "tx/s",
    "p50_us": "us",
    "tx_per_cpu_s": "tx/cpu-s",
    "ones_removed_pct": "%",
    "ok_pct": "%",
    "setup_s": "s",
    "server_rss_mb": "MB",
}

PER_LAYER = {
    "wire.parse_ns": "ns",
    "wire.serialize_ns": "ns",
    "wire.crc_ns": "ns",
    "wire.allocs": "count",
    "service.handle_ns": "ns",
    "service.allocs": "count",
    "service.decode_ns": "ns",
    "core.encode_ns": "ns",
    "core.decode_ns": "ns",
    "telemetry.ns": "ns",
    "adaptive.encode_ns": "ns",
    "adaptive.switches": "count",
    "shard.cpu_ns_per_req": "ns",
    "shard.sys_ns_per_req": "ns",
    "shard.unattributed_ns": "ns",
    "shard.batch_frames": "count",
    "shard.request_us_p50": "us",
    "client.p99_us": "us",
    "client.wire_ns": "ns",
    "client.outside_server_us": "us",
    "loadgen.late_p99_us": "us",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(targets):
    """Configure and build @p targets; exits on failure."""
    build_dir = os.path.join(ROOT, BUILD)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target"]
             + targets]
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    log("".join(failed.readlines()[-30:]))
                log("perfbench: build failed (log: %s)" % log_path)
                sys.exit(1)
    return build_dir


def run_json(cmd, timeout):
    """Run a driver; returns (exit code, its last stdout line as JSON)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % cmd[0])
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: %s printed no result (exit %d)"
            % (cmd[0], proc.returncode))
        sys.exit(1)


def histogram_delta(before, after, name):
    """Bucket counts and sum recorded between two Snapshot documents."""
    def buckets(doc):
        # A missing document (the run already failed) reads as empty.
        h = (doc or {}).get("metrics", {}).get("histograms", {}).get(name, {})
        return ({int(i): int(c) for i, c in h.get("buckets", [])},
                h.get("sum", 0.0), h.get("sub_bucket_bits", 5))
    b, b_sum, _ = buckets(before)
    a, a_sum, bits = buckets(after)
    delta = {i: c - b.get(i, 0) for i, c in a.items() if c > b.get(i, 0)}
    return delta, a_sum - b_sum, bits


def bucket_quantile(delta, bits, q):
    """The log-HDR geometry of telemetry::Histo, interpolated in-bucket."""
    total = sum(delta.values())
    if total == 0:
        return 0.0
    sub = 1 << bits
    target = q * total
    seen = 0
    for i in sorted(delta):
        count = delta[i]
        if seen + count >= target:
            if i < sub:
                low, width = i, 1
            else:
                octave, offset = divmod(i - sub, sub)
                low, width = (sub + offset) << octave, 1 << octave
            return low + width * (target - seen) / count
        seen += count
    return 0.0


def steal_share(load, window):
    return window["steal_s"] / (window["s"] * load["cpus"])


def kept_windows(load):
    """The one-second windows the rates and latencies are medians of:
    those in which the hypervisor stole at most STEAL_LIMIT of the
    benchmark's CPU time, or, when fewer than half are that quiet, the
    least stolen half."""
    windows = load["windows"]
    kept = [w for w in windows if steal_share(load, w) <= STEAL_LIMIT]
    half = (len(windows) + 1) // 2
    if len(kept) < half:
        kept = sorted(windows, key=lambda w: steal_share(load, w))[:half]
    return kept


def p99_us(load):
    """Client p99 latency. Not an end-to-end metric of the benchmark:
    CPU steal on a shared host moved it up to 5x between runs of the
    same code, further than any bound the benchmark may set."""
    return statistics.median(w["p99_us"] for w in kept_windows(load))


def end_to_end(load):
    windows = kept_windows(load)
    return {
        "tx_per_s": statistics.median(w["tx"] / w["s"] for w in windows),
        "p50_us": statistics.median(w["p50_us"] for w in windows),
        "tx_per_cpu_s": statistics.median(w["tx"] / w["cpu_s"]
                                          for w in windows),
        "ones_removed_pct":
            100.0 * (1.0 - load["ones_out"] / load["ones_in"]),
        "ok_pct": 100.0 * (load["attempted"] - load["failed"])
                  / load["attempted"],
        "setup_s": statistics.median(load["setup_s"]),
        "server_rss_mb": load["rss_kb"] / 1024.0,
    }


def per_layer(load, layers):
    windows = load["windows"]
    requests = sum(w["requests"] for w in windows)
    cpu_ns = load["cpu_run_s"] * 1e9 / requests
    sys_ns = load["cpu_sys_s"] * 1e9 / requests
    before, after = load["snapshot_before"], load["snapshot_after"]
    request_us, _, bits = histogram_delta(before, after,
                                          "bxt.server.request_us")
    batches, frames, _ = histogram_delta(before, after,
                                         "bxt.server.batch_size")
    request_p50 = bucket_quantile(request_us, bits, 0.5)
    p50_us = end_to_end(load)["p50_us"]
    metrics = {name: layers[name] for name in PER_LAYER if name in layers}
    metrics.update({
        "shard.cpu_ns_per_req": cpu_ns,
        "shard.sys_ns_per_req": sys_ns,
        "shard.unattributed_ns": cpu_ns - (layers["wire.parse_ns"]
                                           + layers["service.handle_ns"]
                                           + layers["wire.serialize_ns"]
                                           + sys_ns),
        "shard.batch_frames": frames / max(sum(batches.values()), 1),
        "shard.request_us_p50": request_p50,
        "client.p99_us": p99_us(load),
        "client.wire_ns": load["client_wire_ns"],
        "client.outside_server_us": p50_us - request_p50,
        "loadgen.late_p99_us":
            statistics.median(w["late_p99_us"] for w in kept_windows(load)),
    })
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")

    targets = ["bxtd", "perfbench_load"]
    if args.trace:
        targets.append("perfbench_layers")
    build_dir = build(targets)
    workdir = os.path.join(BUILD, "run")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)

    load_cmd = [os.path.join(build_dir, "perfbench_load"),
                "--bxtd", os.path.join(build_dir, "bxt", "tools", "bxtd"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--workdir", workdir]
    if args.trace:
        load_cmd.append("--snapshots")
    load_rc, load = run_json(load_cmd, 60 + 2 * args.seconds)
    with open(os.path.join(ROOT, workdir, "load-%s-%d.json"
                           % (args.workload, args.seed)), "w") as raw:
        json.dump(load, raw)
    attempted, failed = load["attempted"], load["failed"]
    correct = load_rc == 0 and load["correct"]
    windows = load["windows"]
    kept = kept_windows(load)
    fewest = min(w["requests"] for w in windows)
    lines = ["workload %s seed %d: %d one-second windows, %d requests, "
             "fewest in a window %d; rates and latencies below are "
             "medians of the %d windows with the least CPU steal (%d "
             "dropped, steal %.1f%% of CPU time over the run); client p99 "
             "%.1f us" % (args.workload, args.seed, len(windows),
                          sum(w["requests"] for w in windows), fewest,
                          len(kept), len(windows) - len(kept),
                          100.0 * sum(w["steal_s"] for w in windows)
                          / sum(w["s"] * load["cpus"] for w in windows),
                          p99_us(load))]

    if args.trace:
        spans = os.path.join(workdir, "spans-%s-%d.json"
                             % (args.workload, args.seed))
        layers_rc, layers = run_json(
            [os.path.join(build_dir, "perfbench_layers"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(max(args.seconds / 2, 1)), "--spans", spans],
            60 + 2 * args.seconds)
        attempted += layers["attempted"]
        failed += layers["failed"]
        correct = correct and layers_rc == 0 and layers["correct"]
        metrics = per_layer(load, layers)
        units = PER_LAYER
        lines.append("per-layer replay: %d passes of %d requests, spans "
                     "in %s" % (layers["passes"],
                                layers["requests_per_pass"], spans))
    else:
        metrics = end_to_end(load)
        units = END_TO_END

    for line in lines:
        print(line)
    for name, unit in units.items():
        print("  %-26s %16.4f %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
