/**
 * @file
 * bxt_loadgen: drive a running bxtd with encode traffic and report
 * latency percentiles and throughput.
 *
 * Three modes:
 *  - closed-loop (default): --connections independent connections, each
 *    with one request in flight; each request waits for its response, so
 *    the latency distribution is pure service + round-trip time. The
 *    first --warmup samples per connection are excluded from the latency
 *    quantiles (they are dominated by codec construction and cold
 *    caches), but still count toward throughput.
 *  - open-loop: keep up to --depth request frames in flight on one
 *    connection (pipelined); latencies then include queueing delay.
 *  - scenario (--scenario): replay a seeded multi-tenant traffic
 *    scenario (workloads/scenario.h) across --connections connections,
 *    tagging each request with its tenant's stream id so the server's
 *    per-tenant telemetry lights up. Reports per-tenant and aggregate
 *    latency quantiles plus ones-on-bus deltas. By default arrivals are
 *    paced to the scenario's open-loop schedule; --no-pace sends
 *    back-to-back (the CI throughput-floor configuration).
 *
 * Every request frame carries --batch transactions (closed/open loop)
 * or the scenario's per-request count, so the transaction rate is the
 * request rate times the batch size. Results go to stdout and, with
 * --json, into the unified bench JSON schema (BENCH_server_loadgen.json
 * / BENCH_server_scenarios.json in CI). Latencies are recorded into
 * telemetry::Histo (per connection and per tenant, merged bucket-wise),
 * so every reported quantile carries its <= 1/32 relative bucket error.
 *
 * Usage:
 *   bxt_loadgen (--tcp HOST:PORT | --unix PATH) [--spec S] [--wires W]
 *               [--tx-bytes B] [--batch N] [--requests N] [--depth D]
 *               [--open-loop | --closed-loop] [--connections M]
 *               [--warmup K] [--scenario NAME|PATH] [--alpha A]
 *               [--adaptive-compare S1,S2,...] [--no-pace] [--seed X]
 *               [--json PATH] [--assert-min-tx-rate R]
 *               [--trace-sample P]
 *
 * --adaptive-compare (scenario mode) grades the adaptive spec: the
 * identical request stream is replayed once under --spec (normally
 * `adaptive[:...]`) and once per listed fixed spec — fresh connections
 * per pass, so per-stream controllers start cold — and each pass's
 * total ones-on-bus is printed and written as a scope:"spec" JSON row
 * for `bxt_report --scenario --assert-adaptive-wins`.
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <deque>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/cli.h"
#include "common/rng.h"
#include "suite_eval.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workloads/scenario.h"

namespace {

using bxt::telemetry::Histo;

struct Args
{
    std::string tcp;
    std::string unixPath;
    std::string spec = "baseline";
    unsigned wires = 32;
    std::uint32_t txBytes = 32;
    std::size_t batch = 64;
    std::size_t requests = 2000;
    bool requestsSet = false;
    std::size_t depth = 16;
    bool openLoop = false;
    std::size_t connections = 0; ///< 0 = auto (1; 4 for scenarios).
    std::size_t warmup = 32;
    std::string scenarioName;
    /**
     * Comma-separated fixed specs to race against --spec on the same
     * scenario stream (scenario mode): the identical request stream is
     * replayed once under --spec (normally `adaptive[:...]`) and once
     * per listed spec, and every pass's total ones-on-bus lands in a
     * scope:"spec" JSON row. Empty = plain single-pass scenario replay
     * under each tenant's own spec.
     */
    std::string adaptiveCompare;
    double alphaOverride = -1.0; ///< < 0 = keep the scenario's alpha.
    bool noPace = false;
    std::uint64_t seed = 1;
    std::string jsonPath;
    double assertMinTxRate = 0.0;
    /** Probability a request carries a sampled trace context (0 = off). */
    double traceSample = 0.0;
};

/**
 * Roll the per-request trace dice: with probability --trace-sample the
 * next request goes out as a v2 frame with a fresh sampled trace
 * context (the server records its lifecycle spans); otherwise untraced.
 */
void
applyTraceSampling(bxt::client::Client &client, const Args &args,
                   bxt::Rng &rng)
{
    if (args.traceSample <= 0.0)
        return;
    if (rng.nextDouble() < args.traceSample)
        client.setTrace(rng.next64() | 1, rng.next64(), true);
    else
        client.clearTrace();
}

/** Per-connection closed/open-loop result. */
struct ConnResult
{
    std::size_t requests = 0;
    Histo latencyUs{"latency_us"}; ///< Post-warm-up samples only.
    bool ok = true;
    std::string err;
};

/** Per-tenant scenario accumulation (mergeable across workers). */
struct TenantStats
{
    std::uint64_t requests = 0;
    std::uint64_t txs = 0;
    std::uint64_t onesIn = 0;
    std::uint64_t onesOut = 0; ///< Encoded payload + metadata ones.
    Histo latencyUs{"latency_us"};
};

/**
 * Index of a connection's first recorded latency among its @p n: the
 * first min(--warmup, n-1) are dropped so codec-construction and
 * cold-cache spikes do not blend into steady-state p99.
 */
std::size_t
firstSteadySample(std::size_t warmup, std::size_t n)
{
    return n == 0 ? 0 : std::min(warmup, n - 1);
}

bxt::client::Client
connectOnce(const Args &args, std::string &err)
{
    if (!args.unixPath.empty())
        return bxt::client::Client::connectUnix(args.unixPath, err);
    std::string host;
    int port = 0;
    if (!bxt::parseHostPort(args.tcp, host, port)) {
        err = "bad --tcp '" + args.tcp + "' (want HOST:PORT)";
        return {};
    }
    return bxt::client::Client::connectTcp(host, port, err);
}

/**
 * A connect failure worth retrying: the server is booting or its
 * acceptor momentarily lagged (ECONNREFUSED / EAGAIN strerror text). A bad
 * address or a missing Unix path fails fast.
 */
bool
isTransientConnectError(const std::string &err)
{
    return err.find("Connection refused") != std::string::npos ||
           err.find("Resource temporarily unavailable") !=
               std::string::npos ||
           err.find("Try again") != std::string::npos;
}

/**
 * Connect with bounded backoff: a fleet of worker connections arriving
 * while bxtd is still binding its listeners (or while the listen
 * backlog briefly fills) should ride through rather than fail the run.
 * Backoff doubles 5 ms → 80 ms within a ~2 s total budget.
 */
bxt::client::Client
connectClient(const Args &args, std::string &err)
{
    constexpr std::uint64_t budget_us = 2'000'000;
    std::uint64_t delay_ms = 5;
    const std::uint64_t start = bxt::telemetry::nowMicros();
    for (;;) {
        err.clear();
        bxt::client::Client client = connectOnce(args, err);
        if (client.connected())
            return client;
        if (!isTransientConnectError(err) ||
            bxt::telemetry::nowMicros() - start >= budget_us)
            return client;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay_ms));
        delay_ms = std::min<std::uint64_t>(delay_ms * 2, 80);
    }
}

std::vector<std::uint8_t>
randomPayload(const Args &args, bxt::Rng &rng)
{
    std::vector<std::uint8_t> raw(args.batch * args.txBytes);
    for (std::uint8_t &byte : raw)
        byte = static_cast<std::uint8_t>(rng.nextBounded(256));
    return raw;
}

/** One closed-loop connection: one request in flight at a time. */
void
runClosedLoopConn(const Args &args, std::size_t conn, std::size_t requests,
                  ConnResult &out)
{
    std::string err;
    bxt::client::Client client = connectClient(args, err);
    if (!client.connected()) {
        out.ok = false;
        out.err = err;
        return;
    }
    bxt::Rng rng(args.seed + conn);
    const std::vector<std::uint8_t> raw = randomPayload(args, rng);
    const std::size_t steady_from = firstSteadySample(args.warmup, requests);
    for (std::size_t i = 0; i < requests; ++i) {
        applyTraceSampling(client, args, rng);
        bxt::client::EncodeResult enc;
        const std::uint64_t t0 = bxt::telemetry::nowMicros();
        if (!client.encode(args.spec, args.txBytes, args.wires, raw, enc,
                           err)) {
            out.ok = false;
            out.err = err;
            return;
        }
        if (i >= steady_from)
            out.latencyUs.record(bxt::telemetry::nowMicros() - t0);
        ++out.requests;
    }
}

/**
 * Open loop over the raw wire: keep up to --depth request frames in
 * flight, reading replies as they arrive.
 */
bool
runOpenLoop(const Args &args, int fd, ConnResult &out, std::string &err)
{
    bxt::Rng rng(args.seed);
    const std::vector<std::uint8_t> raw = randomPayload(args, rng);

    // Requests are built in place. Untraced ones reuse one canned frame;
    // a traced one is rebuilt with fresh ids in a reused buffer.
    bxt::wire::FrameView head;
    head.opcode = bxt::wire::Opcode::Encode;
    head.spec = args.spec;
    const auto build = [&](bxt::ByteBuffer &frame) {
        const std::size_t body_bytes = 16 + raw.size();
        frame.clear();
        bxt::wire::beginFrame(frame, head, body_bytes);
        bxt::wire::BodyWriter body(frame, frame.size(), body_bytes);
        body.u32(args.txBytes);
        body.u32(args.wires);
        body.u64(args.batch);
        body.bytes(raw.data(), raw.size());
        bxt::wire::finishFrame(frame, 0);
    };
    bxt::ByteBuffer canned, traced;
    build(canned);

    bxt::wire::FrameParser parser;
    std::deque<std::uint64_t> send_times;
    std::size_t sent = 0;
    std::size_t received = 0;
    const std::size_t steady_from =
        firstSteadySample(args.warmup, args.requests);

    while (received < args.requests) {
        while (sent < args.requests && send_times.size() < args.depth) {
            const bxt::ByteBuffer *frame = &canned;
            if (args.traceSample > 0.0 &&
                rng.nextDouble() < args.traceSample) {
                head.traceId = rng.next64() | 1;
                head.spanId = rng.next64();
                head.traceSampled = true;
                build(traced);
                frame = &traced;
            }
            if (!bxt::net::writeAll(fd, frame->data(), frame->size(), err))
                return false;
            send_times.push_back(bxt::telemetry::nowMicros());
            ++sent;
        }

        bxt::wire::FrameView reply;
        bxt::wire::ErrorCode code = bxt::wire::ErrorCode::None;
        if (!bxt::client::readReply(fd, parser, reply, code, err))
            return false;
        if (received >= steady_from)
            out.latencyUs.record(bxt::telemetry::nowMicros() -
                                 send_times.front());
        send_times.pop_front();
        out.requests = ++received;
    }
    return true;
}

/** One scenario worker: replays its round-robin share of the stream. */
struct ScenarioWorker
{
    std::vector<TenantStats> tenants;
    bool ok = true;
    std::string err;
};

void
runScenarioConn(const Args &args,
                const std::vector<bxt::scenario::Request> &stream,
                const std::string &spec_override, std::size_t conn,
                std::size_t stride, std::uint64_t start_us, bool pace,
                ScenarioWorker &out)
{
    std::string err;
    bxt::client::Client client = connectClient(args, err);
    if (!client.connected()) {
        out.ok = false;
        out.err = err;
        return;
    }
    bxt::Rng rng(args.seed ^ (0x9e3779b97f4a7c15ull + conn));
    for (std::size_t i = conn; i < stream.size(); i += stride) {
        const bxt::scenario::Request &req = stream[i];
        const std::string &spec =
            spec_override.empty() ? req.spec : spec_override;
        applyTraceSampling(client, args, rng);
        if (pace) {
            const double target =
                static_cast<double>(start_us) + req.arrivalUs;
            const double now =
                static_cast<double>(bxt::telemetry::nowMicros());
            if (target > now) {
                std::this_thread::sleep_for(std::chrono::microseconds(
                    static_cast<std::int64_t>(target - now)));
            }
        }
        client.setStreamId(
            static_cast<std::uint16_t>((req.tenant % 0xffffu) + 1));
        bxt::client::EncodeResult enc;
        const std::uint64_t t0 = bxt::telemetry::nowMicros();
        if (!client.encode(spec, req.txBytes, req.busBits, req.payload,
                           enc, err)) {
            out.ok = false;
            out.err = "request " + std::to_string(req.index) + " (tenant " +
                      std::to_string(req.tenant) + ", " + spec +
                      "): " + err;
            return;
        }
        const std::uint64_t lat_us = bxt::telemetry::nowMicros() - t0;
        TenantStats &slot = out.tenants[req.tenant];
        slot.requests += 1;
        slot.txs += enc.count;
        slot.onesIn += enc.inputOnes;
        slot.onesOut += enc.payloadOnes + enc.metaOnes;
        slot.latencyUs.record(lat_us);
    }
}

double
removedPct(std::uint64_t ones_in, std::uint64_t ones_out)
{
    if (ones_in == 0)
        return 0.0;
    return 100.0 *
           (1.0 - static_cast<double>(ones_out) /
                      static_cast<double>(ones_in));
}

int
runScenario(const Args &args)
{
    std::string err;
    bxt::scenario::Config config;
    if (!bxt::scenario::load(args.scenarioName, config, err)) {
        std::fprintf(stderr, "bxt_loadgen: %s\n", err.c_str());
        return 2;
    }
    if (args.alphaOverride >= 0.0)
        config.alpha = args.alphaOverride;
    if (args.requestsSet)
        config.requests = static_cast<std::uint32_t>(args.requests);

    bxt::scenario::Engine engine(config, args.seed);
    std::vector<bxt::scenario::Request> stream;
    stream.reserve(config.requests);
    bxt::scenario::Request req;
    while (engine.next(req))
        stream.push_back(std::move(req));

    const std::size_t conns =
        args.connections > 0 ? args.connections : 4;
    const bool pace = !args.noPace && config.ratePerSec > 0.0;

    // One full replay of the stream (fresh connections, so adaptive
    // controllers start cold) under an optional all-requests spec
    // override; fills the per-tenant table and the wall-clock time.
    const auto replay = [&](const std::string &spec_override,
                            std::vector<TenantStats> &tenants,
                            double &seconds, std::string &replay_err) {
        std::vector<ScenarioWorker> workers(conns);
        for (ScenarioWorker &w : workers)
            w.tenants = std::vector<TenantStats>(config.tenants);
        const std::uint64_t start_us = bxt::telemetry::nowMicros();
        std::vector<std::thread> threads;
        threads.reserve(conns);
        for (std::size_t c = 0; c < conns; ++c) {
            threads.emplace_back(runScenarioConn, std::cref(args),
                                 std::cref(stream),
                                 std::cref(spec_override), c, conns,
                                 start_us, pace, std::ref(workers[c]));
        }
        for (std::thread &t : threads)
            t.join();
        seconds =
            static_cast<double>(bxt::telemetry::nowMicros() - start_us) /
            1.0e6;
        for (const ScenarioWorker &w : workers) {
            if (!w.ok) {
                replay_err = w.err;
                return false;
            }
        }
        tenants = std::vector<TenantStats>(config.tenants);
        for (const ScenarioWorker &w : workers) {
            for (std::uint32_t t = 0; t < config.tenants; ++t) {
                const TenantStats &src = w.tenants[t];
                TenantStats &dst = tenants[t];
                dst.requests += src.requests;
                dst.txs += src.txs;
                dst.onesIn += src.onesIn;
                dst.onesOut += src.onesOut;
                dst.latencyUs.mergeFrom(src.latencyUs);
            }
        }
        return true;
    };

    const bool comparing = !args.adaptiveCompare.empty();
    // The primary pass: each tenant's own spec, or — when racing specs
    // with --adaptive-compare — everything under --spec (the adaptive
    // spec whose choices we are grading).
    const std::string primary_override = comparing ? args.spec : "";
    std::vector<TenantStats> tenants;
    double seconds = 0.0;
    if (!replay(primary_override, tenants, seconds, err)) {
        std::fprintf(stderr, "bxt_loadgen: %s\n", err.c_str());
        return 1;
    }

    Histo all_lat("latency_us");
    std::uint64_t total_req = 0, total_tx = 0, total_in = 0, total_out = 0;
    for (const TenantStats &t : tenants) {
        total_req += t.requests;
        total_tx += t.txs;
        total_in += t.onesIn;
        total_out += t.onesOut;
        all_lat.mergeFrom(t.latencyUs);
    }

    /** One spec's totals over the identical stream (scope:"spec" row). */
    struct SpecPass
    {
        std::string spec;
        std::uint64_t onesIn = 0;
        std::uint64_t onesOut = 0;
        std::uint64_t txs = 0;
        double seconds = 0.0;
    };
    std::vector<SpecPass> spec_passes;
    if (comparing) {
        spec_passes.push_back(
            {args.spec, total_in, total_out, total_tx, seconds});
        std::size_t start = 0;
        const std::string &list = args.adaptiveCompare;
        while (start <= list.size()) {
            std::size_t end = list.find(',', start);
            if (end == std::string::npos)
                end = list.size();
            const std::string fixed = list.substr(start, end - start);
            start = end + 1;
            if (fixed.empty()) {
                if (end == list.size())
                    break;
                continue;
            }
            std::vector<TenantStats> pass_tenants;
            double pass_seconds = 0.0;
            if (!replay(fixed, pass_tenants, pass_seconds, err)) {
                std::fprintf(stderr, "bxt_loadgen: spec '%s': %s\n",
                             fixed.c_str(), err.c_str());
                return 1;
            }
            SpecPass pass;
            pass.spec = fixed;
            pass.seconds = pass_seconds;
            for (const TenantStats &t : pass_tenants) {
                pass.onesIn += t.onesIn;
                pass.onesOut += t.onesOut;
                pass.txs += t.txs;
            }
            // Every pass replays the identical prebuilt payloads, so a
            // differing ones_in means the comparison is not apples to
            // apples — refuse to report it.
            if (pass.onesIn != total_in || pass.txs != total_tx) {
                std::fprintf(stderr,
                             "bxt_loadgen: spec '%s' saw ones_in %llu / "
                             "txs %llu, expected %llu / %llu\n",
                             fixed.c_str(),
                             static_cast<unsigned long long>(pass.onesIn),
                             static_cast<unsigned long long>(pass.txs),
                             static_cast<unsigned long long>(total_in),
                             static_cast<unsigned long long>(total_tx));
                return 1;
            }
            spec_passes.push_back(std::move(pass));
            if (end == list.size())
                break;
        }
    }

    const double req_rate =
        seconds > 0.0 ? static_cast<double>(total_req) / seconds : 0.0;
    const double tx_rate =
        seconds > 0.0 ? static_cast<double>(total_tx) / seconds : 0.0;
    const double p50 = all_lat.quantile(0.50);
    const double p95 = all_lat.quantile(0.95);
    const double p99 = all_lat.quantile(0.99);

    std::printf("scenario: %s  seed: %llu  tenants: %u  alpha: %.2f  "
                "connections: %zu  paced: %s\n",
                config.name.c_str(),
                static_cast<unsigned long long>(args.seed), config.tenants,
                config.alpha, conns, pace ? "yes" : "no");
    std::printf("requests: %llu  elapsed: %.3f s  throughput: %.0f req/s  "
                "%.0f tx/s\n",
                static_cast<unsigned long long>(total_req), seconds,
                req_rate, tx_rate);
    std::printf("latency us: p50 %.1f  p95 %.1f  p99 %.1f\n", p50, p95,
                p99);
    std::printf("ones on bus: in %llu  out %llu  removed %.2f%%\n",
                static_cast<unsigned long long>(total_in),
                static_cast<unsigned long long>(total_out),
                removedPct(total_in, total_out));

    // Per-tenant table, busiest first.
    std::vector<std::uint32_t> order(config.tenants);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (tenants[a].requests != tenants[b].requests)
                      return tenants[a].requests > tenants[b].requests;
                  return a < b;
              });
    const std::size_t shown = std::min<std::size_t>(order.size(), 10);
    std::printf("%-7s %-22s %5s %7s %8s %8s %8s %8s %8s\n", "tenant",
                "spec", "txB", "reqs", "txs", "p50us", "p95us", "p99us",
                "rm%");
    for (std::size_t i = 0; i < shown; ++i) {
        const std::uint32_t t = order[i];
        const TenantStats &s = tenants[t];
        std::printf("%-7u %-22s %5u %7llu %8llu %8.1f %8.1f %8.1f %8.2f\n",
                    t, engine.tenantSpec(t).c_str(),
                    engine.tenantTxBytes(t),
                    static_cast<unsigned long long>(s.requests),
                    static_cast<unsigned long long>(s.txs),
                    s.latencyUs.quantile(0.50), s.latencyUs.quantile(0.95),
                    s.latencyUs.quantile(0.99),
                    removedPct(s.onesIn, s.onesOut));
    }
    if (shown < order.size())
        std::printf("(%zu of %zu tenants shown)\n", shown, order.size());

    if (comparing) {
        std::printf("\nspec comparison over the identical stream "
                    "(%llu tx, ones_in %llu):\n",
                    static_cast<unsigned long long>(total_tx),
                    static_cast<unsigned long long>(total_in));
        std::printf("%-44s %14s %8s\n", "spec", "ones_out", "rm%");
        for (const SpecPass &pass : spec_passes) {
            std::printf("%-44s %14llu %8.2f\n", pass.spec.c_str(),
                        static_cast<unsigned long long>(pass.onesOut),
                        removedPct(pass.onesIn, pass.onesOut));
        }
    }

    if (!args.jsonPath.empty() &&
        !bxt::writeBenchJson(
            args.jsonPath, "server_scenarios",
            [&](bxt::JsonWriter &w) {
                w.beginObject();
                w.kv("scope", "aggregate");
                w.kv("scenario", config.name);
                w.kv("seed", static_cast<std::uint64_t>(args.seed));
                w.kv("tenants",
                     static_cast<std::uint64_t>(config.tenants));
                w.kv("alpha", config.alpha);
                w.kv("connections", static_cast<std::uint64_t>(conns));
                w.kv("paced", pace);
                if (comparing)
                    w.kv("spec_override", args.spec);
                w.kv("requests", total_req);
                w.kv("txs", total_tx);
                w.kv("seconds", seconds);
                w.kv("req_per_s", req_rate);
                w.kv("tx_per_s", tx_rate);
                w.kv("p50_us", p50);
                w.kv("p95_us", p95);
                w.kv("p99_us", p99);
                w.kv("ones_in", total_in);
                w.kv("ones_out", total_out);
                w.kv("ones_removed_pct", removedPct(total_in, total_out));
                w.endObject();
                for (std::uint32_t t = 0; t < config.tenants; ++t) {
                    const TenantStats &s = tenants[t];
                    w.beginObject();
                    w.kv("scope", "tenant");
                    w.kv("tenant", static_cast<std::uint64_t>(t));
                    w.kv("stream_id", static_cast<std::uint64_t>(
                                          (t % 0xffffu) + 1));
                    w.kv("spec", engine.tenantSpec(t));
                    w.kv("tx_bytes", static_cast<std::uint64_t>(
                                         engine.tenantTxBytes(t)));
                    w.kv("weight", engine.tenantWeight(t));
                    w.kv("requests", s.requests);
                    w.kv("txs", s.txs);
                    w.kv("p50_us", s.latencyUs.quantile(0.50));
                    w.kv("p95_us", s.latencyUs.quantile(0.95));
                    w.kv("p99_us", s.latencyUs.quantile(0.99));
                    w.kv("ones_in", s.onesIn);
                    w.kv("ones_out", s.onesOut);
                    w.kv("ones_removed_pct",
                         removedPct(s.onesIn, s.onesOut));
                    w.endObject();
                }
                for (const SpecPass &pass : spec_passes) {
                    w.beginObject();
                    w.kv("scope", "spec");
                    w.kv("scenario", config.name);
                    w.kv("spec", pass.spec);
                    w.kv("txs", pass.txs);
                    w.kv("seconds", pass.seconds);
                    w.kv("ones_in", pass.onesIn);
                    w.kv("ones_out", pass.onesOut);
                    w.kv("ones_removed_pct",
                         removedPct(pass.onesIn, pass.onesOut));
                    w.endObject();
                }
            }))
        return 1;

    if (args.assertMinTxRate > 0.0 && tx_rate < args.assertMinTxRate) {
        std::fprintf(stderr,
                     "bxt_loadgen: tx rate %.0f/s below required %.0f/s\n",
                     tx_rate, args.assertMinTxRate);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bxt::Cli cli("bxt_loadgen",
                 "load generator for bxtd: encode traffic, latency "
                 "percentiles, throughput");
    cli.add("--tcp", "HOST:PORT", "connect over TCP",
            [&](const std::string &v) { args.tcp = v; });
    cli.add("--unix", "PATH", "connect over a Unix-domain socket",
            [&](const std::string &v) { args.unixPath = v; });
    cli.add("--spec", "S", "codec spec (default baseline)",
            [&](const std::string &v) { args.spec = v; });
    // The only widths the server's geometry check accepts.
    cli.add("--wires", "W", "bus width in bits, 32 or 64 (default 32)",
            [&](const std::string &v) {
                if (v == "32" || v == "64")
                    args.wires = v == "32" ? 32 : 64;
                else
                    cli.reject("--wires", v, "32 or 64");
            });
    cli.addInt("--tx-bytes", "B", "transaction size (default 32)",
               args.txBytes);
    cli.addInt("--batch", "N", "transactions per request frame (default 64)",
               args.batch, 1, bxt::wire::maxTxPerRequest);
    cli.add("--requests", "N",
            "request frames to send (default 2000, or the scenario's)",
            [&](const std::string &v) {
                long long n = 0;
                if (!bxt::parseDecimal(v, 1, LLONG_MAX, n)) {
                    cli.reject("--requests", v, "a whole number >= 1");
                    return;
                }
                args.requests = static_cast<std::size_t>(n);
                args.requestsSet = true;
            });
    cli.addInt("--depth", "D", "open-loop frames in flight (default 16)",
               args.depth, 1);
    cli.addFlag("--open-loop", "pipeline up to --depth requests",
                [&] { args.openLoop = true; });
    cli.addFlag("--closed-loop", "one request in flight (default)",
                [&] { args.openLoop = false; });
    cli.addInt("--connections", "M",
               "parallel connections (default 1; 4 for --scenario)",
               args.connections);
    cli.addInt("--warmup", "K",
               "per-connection samples excluded from latency quantiles "
               "(default 32)",
               args.warmup);
    cli.add("--scenario", "NAME|PATH",
            "replay a multi-tenant scenario preset or spec file",
            [&](const std::string &v) { args.scenarioName = v; });
    cli.add("--adaptive-compare", "S1,S2,...",
            "scenario mode: replay the identical stream under --spec and "
            "each listed fixed spec, emitting scope:\"spec\" ones-on-bus "
            "rows (the adaptive-vs-fixed CI gate)",
            [&](const std::string &v) { args.adaptiveCompare = v; });
    cli.addReal("--alpha", "A", "override the scenario's Zipf exponent",
                args.alphaOverride);
    cli.addFlag("--no-pace",
                "send scenario requests back-to-back (ignore arrivals)",
                [&] { args.noPace = true; });
    cli.add("--seed", "X", "payload/scenario RNG seed (default 1)",
            [&](const std::string &v) {
                if (!bxt::parseUnsigned(v, /*allow_hex=*/false, args.seed))
                    cli.reject("--seed", v, "a whole decimal number");
            });
    cli.add("--json", "PATH", "write bench JSON here",
            [&](const std::string &v) { args.jsonPath = v; });
    cli.addReal("--assert-min-tx-rate", "R",
                "exit 1 unless the tx/s rate reaches R (CI gate)",
                args.assertMinTxRate);
    cli.addReal("--trace-sample", "P",
                "probability in [0,1] that a request carries a sampled "
                "trace context (default 0 = untraced)",
                args.traceSample, 0.0, 1.0);
    if (!cli.parse(argc, argv))
        return cli.exitCode();
    // Histo::record only counts while metrics are on.
    bxt::telemetry::setMetricsEnabled(true);

    if (args.tcp.empty() && args.unixPath.empty()) {
        std::fprintf(stderr, "bxt_loadgen: need --tcp or --unix\n");
        return 2;
    }
    if (!args.adaptiveCompare.empty() && args.scenarioName.empty()) {
        std::fprintf(stderr,
                     "bxt_loadgen: --adaptive-compare needs --scenario\n");
        return 2;
    }
    if (!args.scenarioName.empty())
        return runScenario(args);

    const std::size_t conns =
        args.connections > 0 ? args.connections : 1;
    if (args.openLoop && conns != 1) {
        std::fprintf(stderr,
                     "bxt_loadgen: --open-loop uses one connection\n");
        return 2;
    }

    std::vector<ConnResult> results(conns);
    double seconds = 0.0;
    std::string err;
    if (args.openLoop) {
        // The open loop speaks the raw wire to pipeline frames, which
        // the strictly request-response client API cannot express.
        bxt::client::Client client = connectClient(args, err);
        if (!client.connected()) {
            std::fprintf(stderr, "bxt_loadgen: %s\n", err.c_str());
            return 1;
        }
        const std::uint64_t start = bxt::telemetry::nowMicros();
        if (!runOpenLoop(args, client.rawFd(), results[0], err)) {
            std::fprintf(stderr, "bxt_loadgen: %s\n", err.c_str());
            return 1;
        }
        seconds =
            static_cast<double>(bxt::telemetry::nowMicros() - start) /
            1.0e6;
    } else {
        // Closed loop: split --requests across the connections; each
        // connection measures its own samples so one connection's
        // warm-up cannot pollute another's quantiles.
        const std::uint64_t start = bxt::telemetry::nowMicros();
        std::vector<std::thread> threads;
        threads.reserve(conns);
        for (std::size_t c = 0; c < conns; ++c) {
            const std::size_t share =
                args.requests / conns +
                (c < args.requests % conns ? 1 : 0);
            threads.emplace_back(runClosedLoopConn, std::cref(args), c,
                                 share, std::ref(results[c]));
        }
        for (std::thread &t : threads)
            t.join();
        seconds =
            static_cast<double>(bxt::telemetry::nowMicros() - start) /
            1.0e6;
        for (const ConnResult &r : results) {
            if (!r.ok) {
                std::fprintf(stderr, "bxt_loadgen: %s\n", r.err.c_str());
                return 1;
            }
        }
    }

    std::size_t total_requests = 0;
    Histo steady("latency_us");
    for (const ConnResult &r : results) {
        total_requests += r.requests;
        steady.mergeFrom(r.latencyUs);
    }

    const double req_rate =
        seconds > 0.0 ? static_cast<double>(total_requests) / seconds
                      : 0.0;
    const double tx_rate = req_rate * static_cast<double>(args.batch);
    const double p50 = steady.quantile(0.50);
    const double p95 = steady.quantile(0.95);
    const double p99 = steady.quantile(0.99);

    std::printf("mode: %s  spec: %s  tx: %u B  batch: %zu  requests: %zu"
                "  connections: %zu\n",
                args.openLoop ? "open-loop" : "closed-loop",
                args.spec.c_str(), args.txBytes, args.batch,
                total_requests, conns);
    std::printf("elapsed: %.3f s  throughput: %.0f req/s  %.0f tx/s\n",
                seconds, req_rate, tx_rate);
    std::printf("latency us (post-warmup): p50 %.1f  p95 %.1f  p99 %.1f\n",
                p50, p95, p99);
    if (conns > 1) {
        for (std::size_t c = 0; c < conns; ++c) {
            const Histo &lat = results[c].latencyUs;
            std::printf("  conn %zu: p50 %.1f  p95 %.1f  p99 %.1f\n", c,
                        lat.quantile(0.50), lat.quantile(0.95),
                        lat.quantile(0.99));
        }
    }

    if (!args.jsonPath.empty() &&
        !bxt::writeBenchJson(
            args.jsonPath, "server_loadgen",
            [&](bxt::JsonWriter &w) {
                w.beginObject();
                w.kv("scope", "aggregate");
                w.kv("mode",
                     args.openLoop ? "open-loop" : "closed-loop");
                w.kv("spec", args.spec);
                w.kv("tx_bytes",
                     static_cast<std::uint64_t>(args.txBytes));
                w.kv("batch", static_cast<std::uint64_t>(args.batch));
                w.kv("requests",
                     static_cast<std::uint64_t>(total_requests));
                w.kv("connections", static_cast<std::uint64_t>(conns));
                w.kv("warmup", static_cast<std::uint64_t>(args.warmup));
                w.kv("seconds", seconds);
                w.kv("req_per_s", req_rate);
                w.kv("tx_per_s", tx_rate);
                w.kv("p50_us", p50);
                w.kv("p95_us", p95);
                w.kv("p99_us", p99);
                w.endObject();
                if (conns > 1) {
                    for (std::size_t c = 0; c < conns; ++c) {
                        const Histo &lat = results[c].latencyUs;
                        w.beginObject();
                        w.kv("scope", "connection");
                        w.kv("connection",
                             static_cast<std::uint64_t>(c));
                        w.kv("requests", static_cast<std::uint64_t>(
                                             results[c].requests));
                        w.kv("p50_us", lat.quantile(0.50));
                        w.kv("p95_us", lat.quantile(0.95));
                        w.kv("p99_us", lat.quantile(0.99));
                        w.endObject();
                    }
                }
            }))
        return 1;

    if (args.assertMinTxRate > 0.0 && tx_rate < args.assertMinTxRate) {
        std::fprintf(stderr,
                     "bxt_loadgen: tx rate %.0f/s below required %.0f/s\n",
                     tx_rate, args.assertMinTxRate);
        return 1;
    }
    return 0;
}
