/**
 * @file
 * bxt_top: live terminal dashboard for a running bxtd. Polls the
 * Snapshot wire opcode (the full schema-2 telemetry document plus the
 * server's own clock) and renders rates and windowed latency quantiles
 * from consecutive-poll deltas:
 *
 *  - aggregate request/error rates, queue depth, worker shards;
 *  - per-shard rows (active connections, request/transaction rates,
 *    output backlog, busy rejects, CPU utilisation — the `cpu_us` delta
 *    over the `uptime_us` delta — and transactions per CPU-second) from
 *    the `bxt.server.shard.<i>.*`
 *    breakdown the sharded server publishes — the acceptor's
 *    round-robin placement made visible (--no-shards collapses the
 *    table back to the aggregate line);
 *  - request_us p50/p95/p99 over the poll window, reconstructed from
 *    the HDR histogram's sparse bucket deltas by telemetry's own
 *    bucketQuantile (so no raw samples cross the wire);
 *  - per-stream (tenant) request/transaction rates, ones-on-bus
 *    removal, and — for streams running the `adaptive` spec — the
 *    controller's sensors at its last evaluation (zero-word fraction,
 *    4-byte XOR toggle weight), the concrete codec it currently
 *    selects, and its switch count;
 *  - per-spec ones-on-bus deltas;
 *  - span-ring health (recorded/dropped) for the tracing pipeline.
 *
 * Rates use the server's uptime_us delta, not the local clock, so a
 * stalled poller never inflates them.
 *
 * Usage:
 *   bxt_top (--tcp HOST:PORT | --unix PATH) [--interval-ms N]
 *           [--once] [--count N] [--no-clear] [--no-shards]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/cli.h"
#include "common/json.h"
#include "telemetry/metrics.h"

namespace {

struct Args
{
    bxt::client::Endpoint endpoint;
    long intervalMs = 1000;
    bool once = false;
    std::size_t count = 0; ///< 0 = run until interrupted.
    bool noClear = false;
    bool noShards = false; ///< Collapse the per-shard table.
};

/** One polled snapshot, flattened for delta computation. */
struct Sample
{
    double uptimeUs = 0.0;
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    /** Histogram name -> sparse bucket index -> count. */
    std::map<std::string, std::map<std::size_t, std::uint64_t>> histograms;
};

bool
parseSample(const std::string &json, Sample &out, std::string &err)
{
    bxt::JsonValue root;
    if (!bxt::parseJson(json, root, &err))
        return false;
    const bxt::JsonValue *uptime = root.find("uptime_us");
    const bxt::JsonValue *metrics = root.find("metrics");
    if (uptime == nullptr || !uptime->isNumber() || metrics == nullptr ||
        !metrics->isObject()) {
        err = "snapshot document missing uptime_us/metrics";
        return false;
    }
    out.uptimeUs = uptime->number;
    if (const bxt::JsonValue *counters = metrics->find("counters")) {
        for (const auto &[name, value] : counters->object) {
            if (value.isNumber())
                out.counters[name] = value.number;
        }
    }
    if (const bxt::JsonValue *gauges = metrics->find("gauges")) {
        for (const auto &[name, value] : gauges->object) {
            if (value.isNumber())
                out.gauges[name] = value.number;
        }
    }
    if (const bxt::JsonValue *histos = metrics->find("histograms")) {
        for (const auto &[name, histo] : histos->object) {
            const bxt::JsonValue *buckets = histo.find("buckets");
            if (buckets == nullptr || !buckets->isArray())
                continue;
            std::map<std::size_t, std::uint64_t> &dst =
                out.histograms[name];
            for (const bxt::JsonValue &pair : buckets->array) {
                // An index outside Histo's geometry would shift its
                // bucket bounds out of range; skip it.
                if (pair.isArray() && pair.array.size() == 2 &&
                    pair.array[0].isNumber() && pair.array[1].isNumber() &&
                    pair.array[0].number >= 0.0 &&
                    pair.array[0].number <
                        static_cast<double>(
                            bxt::telemetry::Histo::numBuckets)) {
                    dst[static_cast<std::size_t>(pair.array[0].number)] =
                        static_cast<std::uint64_t>(pair.array[1].number);
                }
            }
        }
    }
    return true;
}

double
counterOf(const Sample &sample, const std::string &name)
{
    const auto it = sample.counters.find(name);
    return it == sample.counters.end() ? 0.0 : it->second;
}

double
gaugeOf(const Sample &sample, const std::string &name)
{
    const auto it = sample.gauges.find(name);
    return it == sample.gauges.end() ? 0.0 : it->second;
}

/** Counter increase per second across the poll window (floored at 0). */
double
rateOf(const Sample &cur, const Sample &prev, const std::string &name,
       double dt_s)
{
    if (dt_s <= 0.0)
        return 0.0;
    const double delta = counterOf(cur, name) - counterOf(prev, name);
    return delta > 0.0 ? delta / dt_s : 0.0;
}

/**
 * q-quantile of the samples a histogram gained between two polls: its
 * sparse bucket deltas through telemetry::bucketQuantile, the walk
 * Histo::quantile uses. Returns 0 with @p total_out = 0 when the window
 * saw no samples.
 */
double
windowedQuantile(const Sample &cur, const Sample &prev,
                 const std::string &name, double q, double &total_out)
{
    const auto cur_it = cur.histograms.find(name);
    total_out = 0.0;
    if (cur_it == cur.histograms.end())
        return 0.0;
    const auto prev_it = prev.histograms.find(name);
    std::vector<bxt::telemetry::BucketCount> delta;
    delta.reserve(cur_it->second.size());
    for (const auto &[index, count] : cur_it->second) {
        std::uint64_t base = 0;
        if (prev_it != prev.histograms.end()) {
            const auto p = prev_it->second.find(index);
            if (p != prev_it->second.end())
                base = p->second;
        }
        if (count > base) {
            delta.emplace_back(index, count - base);
            total_out += static_cast<double>(count - base);
        }
    }
    return bxt::telemetry::bucketQuantile(delta, q);
}

double
removedPct(double ones_in, double ones_out)
{
    if (ones_in <= 0.0)
        return 0.0;
    return 100.0 * (1.0 - ones_out / ones_in);
}

/** "<prefix><id>.<leaf>" -> id, a decimal >= @p lo; -1 for other names. */
long
idOf(const std::string &name, const std::string &prefix, long lo)
{
    const std::size_t dot = name.find('.', prefix.size());
    long long id = 0;
    if (name.rfind(prefix, 0) != 0 || dot == std::string::npos ||
        !bxt::parseDecimal(
            std::string_view(name).substr(prefix.size(), dot - prefix.size()),
            lo, LONG_MAX, id))
        return -1;
    return static_cast<long>(id);
}

/** "bxt.server.<spec>.ones_in" -> spec, excluding the stream and shard
 *  subtrees (those are breakdown copies, not specs). */
bool
specOf(const std::string &name, std::string &spec)
{
    static const std::string prefix = "bxt.server.";
    static const std::string suffix = ".ones_in";
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() +
                                          suffix.size())
        return false;
    if (name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    spec = name.substr(prefix.size(),
                       name.size() - prefix.size() - suffix.size());
    return !spec.empty() && spec.rfind("stream.", 0) != 0 &&
           spec.rfind("shard.", 0) != 0;
}

/**
 * The concrete codec stream @p id's adaptive controller currently
 * selects, read back from the one-hot choice gauges
 * (`bxt.server.stream.<id>.adaptive.choice.<spec>`, the active one at
 * 1). "-" when the stream does not run an adaptive spec.
 */
std::string
adaptiveChoiceOf(const Sample &sample, const std::string &stream_base)
{
    const std::string prefix = stream_base + ".adaptive.choice.";
    for (auto it = sample.gauges.lower_bound(prefix);
         it != sample.gauges.end() && it->first.rfind(prefix, 0) == 0;
         ++it) {
        if (it->second != 0.0)
            return it->first.substr(prefix.size());
    }
    return "-";
}

/**
 * Stream @p stream_base's adaptive sensor gauge `.adaptive.<leaf>` per
 * controller, "-" when the stream has none. Gauges add on the shard
 * merge, so the sum is divided by the controller count: the sum of the
 * stream's one-hot `.adaptive.choice.*` gauges.
 */
std::string
adaptiveSensorOf(const Sample &sample, const std::string &stream_base,
                 const char *leaf)
{
    const std::string prefix = stream_base + ".adaptive.choice.";
    double controllers = 0.0;
    for (auto it = sample.gauges.lower_bound(prefix);
         it != sample.gauges.end() && it->first.rfind(prefix, 0) == 0;
         ++it)
        controllers += it->second;
    if (controllers <= 0.0)
        return "-";
    char cell[32];
    std::snprintf(cell, sizeof(cell), "%.3f",
                  gaugeOf(sample, stream_base + ".adaptive." + leaf) /
                      controllers);
    return cell;
}

void
render(const Args &args, const Sample &cur, const Sample &prev,
       bool clear)
{
    const double dt_s = (cur.uptimeUs - prev.uptimeUs) / 1.0e6;
    if (clear)
        std::printf("\x1b[2J\x1b[H");

    const bxt::client::Endpoint &at = args.endpoint;
    const std::string target =
        at.unixPath.empty()
            ? "tcp://" + at.host + ":" + std::to_string(at.port)
            : "unix://" + at.unixPath;
    std::printf("bxt_top — %s   uptime %.1f s   window %.2f s\n",
                target.c_str(), cur.uptimeUs / 1.0e6,
                dt_s > 0.0 ? dt_s : 0.0);
    std::printf(
        "req/s %8.1f   err/s %6.1f   conn/s %6.1f   busy/s %6.1f   "
        "queue %3.0f   shards %.0f\n",
        rateOf(cur, prev, "bxt.server.requests", dt_s),
        rateOf(cur, prev, "bxt.server.errors", dt_s),
        rateOf(cur, prev, "bxt.server.connections", dt_s),
        rateOf(cur, prev, "bxt.server.rejected_busy", dt_s),
        gaugeOf(cur, "bxt.server.queue_depth"),
        gaugeOf(cur, "bxt.server.shards") > 0.0
            ? gaugeOf(cur, "bxt.server.shards")
            : gaugeOf(cur, "bxt.server.threads"));

    double window_total = 0.0;
    const double p50 = windowedQuantile(cur, prev, "bxt.server.request_us",
                                        0.50, window_total);
    double ignored = 0.0;
    const double p95 = windowedQuantile(cur, prev, "bxt.server.request_us",
                                        0.95, ignored);
    const double p99 = windowedQuantile(cur, prev, "bxt.server.request_us",
                                        0.99, ignored);
    std::printf("request_us (window, %.0f samples): p50 %.1f   p95 %.1f   "
                "p99 %.1f\n",
                window_total, p50, p95, p99);
    std::printf("spans: recorded %.0f (+%.1f/s)   dropped %.0f "
                "(+%.1f/s)\n",
                counterOf(cur, "bxt.server.spans_recorded"),
                rateOf(cur, prev, "bxt.server.spans_recorded", dt_s),
                counterOf(cur, "bxt.server.spans_dropped"),
                rateOf(cur, prev, "bxt.server.spans_dropped", dt_s));

    // Per-shard table: the round-robin placement made visible.
    if (!args.noShards) {
        std::set<long> shard_ids;
        for (const auto &[name, value] : cur.counters) {
            const long id = idOf(name, "bxt.server.shard.", 0);
            if (id >= 0)
                shard_ids.insert(id);
        }
        for (const auto &[name, value] : cur.gauges) {
            const long id = idOf(name, "bxt.server.shard.", 0);
            if (id >= 0)
                shard_ids.insert(id);
        }
        if (shard_ids.size() > 1) {
            std::printf("\n%-6s %6s %8s %8s %9s %6s %7s %6s %11s\n",
                        "shard", "conns", "conn/s", "req/s", "tx/s",
                        "queue", "busy/s", "cpu%", "tx/cpu-s");
            for (long id : shard_ids) {
                const std::string b =
                    "bxt.server.shard." + std::to_string(id);
                const double tx_rate =
                    rateOf(cur, prev, b + ".tx_encoded", dt_s);
                const double cpu_s = (gaugeOf(cur, b + ".cpu_us") -
                                      gaugeOf(prev, b + ".cpu_us")) /
                                     1.0e6;
                std::printf(
                    "%-6ld %6.0f %8.1f %8.1f %9.1f %6.0f %7.1f %6.1f "
                    "%11.0f\n",
                    id, gaugeOf(cur, b + ".active_connections"),
                    rateOf(cur, prev, b + ".connections", dt_s),
                    rateOf(cur, prev, b + ".requests", dt_s),
                    tx_rate, gaugeOf(cur, b + ".queue_depth"),
                    rateOf(cur, prev, b + ".rejected_busy", dt_s),
                    dt_s > 0.0 ? 100.0 * cpu_s / dt_s : 0.0,
                    cpu_s > 0.0 ? tx_rate * dt_s / cpu_s : 0.0);
            }
        }
    }

    // Per-stream (tenant) table, busiest first.
    std::set<long> stream_ids;
    for (const auto &[name, value] : cur.counters) {
        const long id = idOf(name, "bxt.server.stream.", 1);
        if (id > 0)
            stream_ids.insert(id);
    }
    if (!stream_ids.empty()) {
        const auto base = [](long id) {
            return "bxt.server.stream." + std::to_string(id);
        };
        std::vector<std::pair<double, long>> ranked;
        ranked.reserve(stream_ids.size());
        for (long id : stream_ids) {
            ranked.emplace_back(
                counterOf(cur, base(id) + ".requests"), id);
        }
        std::sort(ranked.begin(), ranked.end(), [](const auto &a,
                                                   const auto &b) {
            if (a.first != b.first)
                return a.first > b.first;
            return a.second < b.second;
        });
        std::printf("\n%-7s %8s %9s %11s %6s %10s %8s %-20s %4s\n",
                    "stream", "req/s", "tx/s", "ones_in/s", "rm%",
                    "zero_frac", "xor_w", "choice", "sw");
        const std::size_t shown =
            std::min<std::size_t>(ranked.size(), 10);
        for (std::size_t i = 0; i < shown; ++i) {
            const long id = ranked[i].second;
            const std::string b = base(id);
            const double in_rate = rateOf(cur, prev, b + ".ones_in",
                                          dt_s);
            const double out_rate = rateOf(cur, prev, b + ".ones_out",
                                           dt_s);
            std::printf("%-7ld %8.1f %9.1f %11.0f %6.2f %10s %8s "
                        "%-20s %4.0f\n",
                        id, rateOf(cur, prev, b + ".requests", dt_s),
                        rateOf(cur, prev, b + ".tx_encoded", dt_s),
                        in_rate, removedPct(in_rate, out_rate),
                        adaptiveSensorOf(cur, b, "zero_frac").c_str(),
                        adaptiveSensorOf(cur, b, "xor_weight").c_str(),
                        adaptiveChoiceOf(cur, b).c_str(),
                        counterOf(cur, b + ".adaptive.switches"));
        }
        if (shown < ranked.size())
            std::printf("(%zu of %zu streams shown)\n", shown,
                        ranked.size());
    }

    // Per-spec ones-on-bus table.
    std::vector<std::string> specs;
    for (const auto &[name, value] : cur.counters) {
        std::string spec;
        if (specOf(name, spec))
            specs.push_back(spec);
    }
    if (!specs.empty()) {
        std::printf("\n%-28s %12s %12s %6s\n", "spec", "ones_in/s",
                    "ones_out/s", "rm%");
        for (const std::string &spec : specs) {
            const std::string b = "bxt.server." + spec;
            const double in_rate =
                rateOf(cur, prev, b + ".ones_in", dt_s);
            const double out_rate =
                rateOf(cur, prev, b + ".ones_out", dt_s);
            std::printf("%-28s %12.0f %12.0f %6.2f\n", spec.c_str(),
                        in_rate, out_rate,
                        removedPct(in_rate, out_rate));
        }
    }
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bxt::Cli cli("bxt_top",
                 "live dashboard for a running bxtd (Snapshot opcode "
                 "poller)");
    bxt::client::addEndpointOptions(cli, args.endpoint);
    cli.addInt("--interval-ms", "N", "poll interval (default 1000)",
               args.intervalMs, 1);
    cli.addFlag("--once",
                "print one snapshot (cumulative rates) and exit",
                [&] { args.once = true; });
    cli.addInt("--count", "N", "exit after N refreshes (default: run on)",
               args.count);
    cli.addFlag("--no-clear", "append refreshes instead of ANSI-clearing",
                [&] { args.noClear = true; });
    cli.addFlag("--no-shards",
                "collapse the per-shard table (aggregate view only)",
                [&] { args.noShards = true; });
    if (!cli.parse(argc, argv))
        return cli.exitCode();

    if (!args.endpoint.set()) {
        std::fprintf(stderr, "bxt_top: need --tcp or --unix\n");
        return 2;
    }
    std::string err;
    bxt::client::Client client = bxt::client::connect(args.endpoint, err);
    if (!client.connected()) {
        std::fprintf(stderr, "bxt_top: %s\n", err.c_str());
        return 1;
    }

    Sample prev; // First refresh diffs against zero => cumulative view.
    const std::size_t refreshes = args.once ? 1 : args.count;
    for (std::size_t i = 0; refreshes == 0 || i < refreshes; ++i) {
        if (i > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(args.intervalMs));
        }
        std::string json;
        if (!client.snapshot(json, err)) {
            std::fprintf(stderr, "bxt_top: %s\n", err.c_str());
            return 1;
        }
        Sample cur;
        if (!parseSample(json, cur, err)) {
            std::fprintf(stderr, "bxt_top: %s\n", err.c_str());
            return 1;
        }
        render(args, cur, prev,
               !args.noClear && !args.once && refreshes != 1);
        prev = std::move(cur);
    }
    return 0;
}
