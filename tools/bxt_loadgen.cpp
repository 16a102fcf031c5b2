/**
 * @file
 * bxt_loadgen: drive a running bxtd with encode traffic and report
 * throughput, latency percentiles and the ones removed from the bus.
 *
 * Every run sends one request stream. Before any timer starts, each of
 * its distinct requests (its prefix) is built into a whole Encode frame;
 * send i writes prefix[i % size] on connection i % --connections. Each
 * connection keeps up to --depth requests in flight (default 1) and
 * matches replies in order, reading their tallies in place, so a latency
 * runs from a request's send to its reply and, past depth 1, includes
 * queueing. The first 32 replies per connection (kWarmup) are left out
 * of the latency quantiles (codec construction and cold caches dominate
 * them) but count toward throughput. The stream is either
 *  - fixed: one untagged request of --batch random --tx-bytes
 *    transactions under --spec, sent --requests times; or
 *  - a scenario (--scenario): a seeded multi-tenant stream
 *    (workloads/scenario.h) whose requests carry their tenant's stream
 *    id, so the server's per-tenant telemetry lights up (its Zipf
 *    exponent and the rest come from the preset or file). Its prefix is
 *    its first min(--requests, requests) requests; --requests (default:
 *    the scenario's count) sets how many are sent, cycling the prefix.
 *    Arrivals are paced to the open-loop schedule, each cycle offset by
 *    the prefix's last arrival so the rate holds; --no-pace sends as
 *    fast as the depth allows.
 *
 * --adaptive-compare S1,S2,... grades the adaptive spec: the identical
 * stream is replayed once under --spec (normally `adaptive`) and
 * once per listed fixed spec, each pass with its own frames and fresh
 * connections. bxtd keeps controllers per shard, spec, geometry and
 * stream id for its whole life, not per connection, so the adaptive
 * row repeats per seed only from a fresh daemon.
 *
 * Results go to stdout and, with --json, into the unified bench JSON
 * schema: an aggregate row, one row per tenant and, with
 * --adaptive-compare, one scope:"spec" row per pass, which
 * `bxt_report --scenario` renders and `--assert-adaptive-wins` gates.
 * Latencies are recorded into telemetry::Histo (per connection and
 * tenant, merged bucket-wise), so every quantile carries its <= 1/32
 * relative bucket error. The document also holds the run's "cost": the
 * server CPU time (Snapshot before and after the measured requests) and
 * the transactions served, which `bxt_report --assert-cost-ratio`
 * compares.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/client.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/rng.h"
#include "suite_eval.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workloads/scenario.h"

namespace {

using bxt::telemetry::Histo;

/** Replies per connection left out of the latency quantiles. */
constexpr std::size_t kWarmup = 32;

struct Args
{
    bxt::client::Endpoint endpoint;
    std::string spec = "baseline";
    unsigned wires = 32;
    std::uint32_t txBytes = 32;
    std::size_t batch = 64;
    std::size_t requests = 0; ///< 0 = 2000, or the scenario's count.
    std::size_t depth = 1;
    std::size_t connections = 0; ///< 0 = auto (1; 4 for scenarios).
    std::string scenarioName;
    /** Fixed specs, comma-separated, to race against --spec (see the
     *  file comment); empty = one pass under each request's own spec. */
    std::string adaptiveCompare;
    bool noPace = false;
    std::uint64_t seed = 1;
    std::string jsonPath;
    double assertMinTxRate = 0.0;
    /** Probability a request carries a sampled trace context (0 = off). */
    double traceSample = 0.0;
};

/** A tenant of the stream, as its JSON row describes it. */
struct Tenant
{
    std::string spec;
    std::uint32_t txBytes = 0;
    double weight = 1.0;
};

/** One distinct request of the stream, as it goes on the wire. */
struct Entry
{
    bxt::ByteBuffer frame; ///< Its whole Encode frame.
    std::uint32_t tenant = 0;
    double arrivalUs = 0.0; ///< Open-loop arrival in the first cycle.
};

/** The request stream a pass sends (see the file comment). */
struct Stream
{
    std::string name; ///< The scenario's, or "fixed:<spec>".
    double alpha = 0.0;
    std::vector<Tenant> tenants;
    std::vector<Entry> prefix; ///< The distinct requests, cycled.
    std::size_t sends = 0;     ///< Requests per pass.
    bool tagged = false;       ///< Requests carry their tenant's stream id.
    bool paced = false;

    /** The request the pass's @p i-th send carries. */
    const Entry &at(std::size_t i) const
    {
        return prefix[i % prefix.size()];
    }

    /** The wire stream id of tenant @p t's requests (0 = untagged). */
    std::uint16_t streamId(std::uint32_t t) const
    {
        return tagged ? static_cast<std::uint16_t>((t % 0xffffu) + 1) : 0;
    }
};

/** Per-tenant results, merged across connections. */
struct Tally
{
    std::uint64_t requests = 0;
    std::uint64_t txs = 0;
    std::uint64_t onesIn = 0;
    std::uint64_t onesOut = 0; ///< Encoded payload + metadata ones.
    Histo latencyUs{"latency_us"}; ///< Post-warm-up samples only.

    void add(const Tally &other)
    {
        requests += other.requests;
        txs += other.txs;
        onesIn += other.onesIn;
        onesOut += other.onesOut;
        latencyUs.mergeFrom(other.latencyUs);
    }
};

/** One replay of the stream on fresh connections, or one connection's
 *  share of it. */
struct Pass
{
    std::string spec; ///< Every request's spec; empty = each its own.
    std::vector<Tally> tenants;
    Tally total;
    double seconds = 0.0;
    std::string err; ///< Empty unless a connection failed.
};

/**
 * Build the stream the options describe, each frame under @p spec or,
 * when it is empty, under its request's own. The fixed stream's payload
 * comes from --seed; a scenario's prefix is the Engine's.
 */
bool
buildStream(const Args &args, const std::string &spec, Stream &stream,
            std::string &err)
{
    stream = Stream{};
    bxt::wire::FrameView head;
    if (args.scenarioName.empty()) {
        std::vector<std::uint8_t> payload(args.batch * args.txBytes);
        bxt::Rng rng(args.seed);
        for (std::uint8_t &byte : payload)
            byte = static_cast<std::uint8_t>(rng.nextBounded(256));
        head.spec = spec.empty() ? args.spec : spec;
        stream.name = "fixed:" + args.spec;
        stream.tenants.push_back({args.spec, args.txBytes, 1.0});
        stream.sends = args.requests > 0 ? args.requests : 2000;
        return bxt::client::writeEncodeFrame(stream.prefix.emplace_back().frame,
                                             head, args.txBytes, args.wires,
                                             payload, err);
    }

    bxt::scenario::Config config;
    if (!bxt::scenario::load(args.scenarioName, config, err))
        return false;
    bxt::scenario::Engine engine(config, args.seed);
    for (std::uint32_t t = 0; t < config.tenants; ++t)
        stream.tenants.push_back({engine.tenantSpec(t),
                                  engine.tenantTxBytes(t),
                                  engine.tenantWeight(t)});
    stream.name = config.name;
    stream.alpha = config.alpha;
    stream.sends = args.requests > 0 ? args.requests : config.requests;
    stream.tagged = true;
    stream.paced = !args.noPace && config.ratePerSec > 0.0;
    bxt::scenario::Request req;
    while (stream.prefix.size() < stream.sends && engine.next(req)) {
        Entry &entry = stream.prefix.emplace_back();
        entry.tenant = req.tenant;
        entry.arrivalUs = req.arrivalUs;
        head.streamId = stream.streamId(req.tenant);
        head.spec = spec.empty() ? req.spec : spec;
        if (!bxt::client::writeEncodeFrame(entry.frame, head, req.txBytes,
                                           req.busBits, req.payload, err))
            return false;
    }
    return true;
}

/**
 * Copy the whole request @p frame into @p out (cleared first) as a v2
 * frame with the sampled trace context @p trace_id / @p span_id. False
 * when @p frame is not one valid frame.
 */
bool
traceFrame(const bxt::ByteBuffer &frame, std::uint64_t trace_id,
           std::uint64_t span_id, bxt::ByteBuffer &out)
{
    bxt::wire::FrameParser parser;
    std::memcpy(parser.prepareRead(frame.size()), frame.data(), frame.size());
    parser.commitRead(frame.size());
    bxt::wire::FrameView head;
    bxt::wire::WireError parse_err;
    if (parser.next(head, parse_err) != bxt::wire::FrameParser::Status::Ready)
        return false;
    head.traceId = trace_id;
    head.spanId = span_id;
    head.traceSampled = true;
    out.clear();
    bxt::wire::beginFrame(out, head, head.body.size());
    out.append(head.body.data(), head.body.size());
    bxt::wire::finishFrame(out, 0);
    return true;
}

/**
 * Connect with bounded backoff: a fleet of worker connections arriving
 * while bxtd is still binding its listeners (or while the listen
 * backlog briefly fills) should ride through rather than fail the run.
 * Only those failures are retried (ECONNREFUSED / EAGAIN strerror text);
 * a bad address or a missing Unix path fails fast. Backoff doubles
 * 5 ms → 80 ms within a ~2 s total budget.
 */
bxt::client::Client
connectClient(const Args &args, std::string &err)
{
    constexpr std::uint64_t budget_us = 2'000'000;
    std::uint64_t delay_ms = 5;
    const std::uint64_t start = bxt::telemetry::nowMicros();
    for (;;) {
        err.clear();
        bxt::client::Client client =
            bxt::client::connect(args.endpoint, err);
        if (client.connected())
            return client;
        const bool transient =
            err.find("Connection refused") != std::string::npos ||
            err.find("Resource temporarily unavailable") !=
                std::string::npos ||
            err.find("Try again") != std::string::npos;
        if (!transient || bxt::telemetry::nowMicros() - start >= budget_us)
            return client;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay_ms));
        delay_ms = std::min<std::uint64_t>(delay_ms * 2, 80);
    }
}

/**
 * With --json, the server's CPU time so far, s: the `bxt.server.cpu_us`
 * gauge of a Snapshot, read over a connection of its own. A run reads it
 * before and after its measured requests and writes the difference as
 * its "cost". 0 without --json; -1 after printing why it failed.
 */
double
serverCpuSeconds(const Args &args)
{
    if (args.jsonPath.empty())
        return 0.0;
    std::string err;
    bxt::client::Client client = connectClient(args, err);
    std::string json;
    bxt::JsonValue doc;
    if (client.connected() && client.snapshot(json, err) &&
        bxt::parseJson(json, doc, &err)) {
        const bxt::JsonValue *metrics = doc.find("metrics");
        const bxt::JsonValue *gauges =
            metrics != nullptr ? metrics->find("gauges") : nullptr;
        const bxt::JsonValue *cpu =
            gauges != nullptr ? gauges->find("bxt.server.cpu_us") : nullptr;
        if (cpu != nullptr && cpu->isNumber())
            return cpu->number / 1.0e6;
        err = "the server's Snapshot has no bxt.server.cpu_us gauge";
    }
    std::fprintf(stderr, "bxt_loadgen: %s\n", err.c_str());
    return -1.0;
}

/**
 * Connection @p conn of @p conns: send stream request i for every
 * i % conns == conn, keeping up to --depth in flight, and tally each
 * reply under its request's tenant. With probability --trace-sample a
 * send is a v2 copy of its frame with a fresh sampled trace context.
 * @p spec is the pass's, for errors (empty = each request's own).
 */
void
runConn(const Args &args, const Stream &stream, const std::string &spec,
        std::size_t conn, std::size_t conns, std::uint64_t start_us,
        Pass &out)
{
    std::string err;
    bxt::client::Client client = connectClient(args, err);
    if (!client.connected()) {
        out.err = err;
        return;
    }
    const auto fail = [&](std::size_t i) {
        const std::uint32_t tenant = stream.at(i).tenant;
        out.err = "request " + std::to_string(i) + " (tenant " +
                  std::to_string(tenant) + ", " +
                  (spec.empty() ? stream.tenants[tenant].spec : spec) +
                  "): " + err;
    };
    bxt::Rng rng(args.seed ^ (0x9e3779b97f4a7c15ull + conn));
    const std::size_t mine =
        stream.sends / conns + (conn < stream.sends % conns ? 1 : 0);
    const std::size_t steady_from =
        mine == 0 ? 0 : std::min(kWarmup, mine - 1);
    // Send time and stream index of each request in flight, oldest first.
    std::deque<std::pair<std::uint64_t, std::size_t>> in_flight;
    std::size_t sent = 0;
    bxt::ByteBuffer traced;
    bxt::wire::FrameView reply;
    bxt::client::EncodeResult enc;
    for (std::size_t done = 0; done < mine; ++done) {
        while (sent < mine && in_flight.size() < args.depth) {
            const std::size_t i = conn + sent * conns;
            if (stream.paced) {
                // Cycle k of the prefix is offset by k times its last
                // arrival, so every cycle spans the prefix's gaps.
                const double wait_us =
                    static_cast<double>(start_us) +
                    static_cast<double>(i / stream.prefix.size()) *
                        stream.prefix.back().arrivalUs +
                    stream.at(i).arrivalUs -
                    static_cast<double>(bxt::telemetry::nowMicros());
                if (wait_us > 0.0) {
                    if (!in_flight.empty())
                        break; // Take a reply while this one is not due.
                    std::this_thread::sleep_for(std::chrono::microseconds(
                        static_cast<std::int64_t>(wait_us)));
                }
            }
            const bxt::ByteBuffer *frame = &stream.at(i).frame;
            if (args.traceSample > 0.0 &&
                rng.nextDouble() < args.traceSample &&
                traceFrame(*frame, rng.next64() | 1, rng.next64(), traced))
                frame = &traced;
            const std::uint64_t sent_us = bxt::telemetry::nowMicros();
            if (!client.send({frame->data(), frame->size()}, err))
                return fail(i);
            in_flight.emplace_back(sent_us, i);
            ++sent;
        }
        const auto [sent_us, i] = in_flight.front();
        in_flight.pop_front();
        if (!client.receive(bxt::wire::Opcode::Encode, reply, err) ||
            !bxt::client::readEncodeHead(reply, enc, err))
            return fail(i);
        const std::uint64_t latency_us =
            bxt::telemetry::nowMicros() - sent_us;
        Tally &slot = out.tenants[stream.at(i).tenant];
        slot.requests += 1;
        slot.txs += enc.count;
        slot.onesIn += enc.inputOnes;
        slot.onesOut += enc.payloadOnes + enc.metaOnes;
        if (done >= steady_from)
            slot.latencyUs.record(latency_us);
    }
}

/** Replay the stream once over @p conns fresh connections into @p pass. */
bool
replay(const Args &args, const Stream &stream, std::size_t conns,
       Pass &pass, std::string &err)
{
    std::vector<Pass> results(conns);
    for (Pass &r : results)
        r.tenants = std::vector<Tally>(stream.tenants.size());
    const std::uint64_t start_us = bxt::telemetry::nowMicros();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c)
        threads.emplace_back(runConn, std::cref(args), std::cref(stream),
                             std::cref(pass.spec), c, conns, start_us,
                             std::ref(results[c]));
    for (std::thread &t : threads)
        t.join();
    pass.seconds =
        static_cast<double>(bxt::telemetry::nowMicros() - start_us) / 1.0e6;

    pass.tenants = std::vector<Tally>(stream.tenants.size());
    for (const Pass &r : results) {
        if (!r.err.empty()) {
            err = r.err;
            return false;
        }
        for (std::size_t t = 0; t < r.tenants.size(); ++t) {
            pass.tenants[t].add(r.tenants[t]);
            pass.total.add(r.tenants[t]);
        }
    }
    return true;
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

/** A row's counts, latency quantiles and ones removed. */
void
writeTally(bxt::JsonWriter &w, const Tally &tally)
{
    w.kv("requests", tally.requests);
    w.kv("txs", tally.txs);
    w.kv("p50_us", tally.latencyUs.quantile(0.50));
    w.kv("p95_us", tally.latencyUs.quantile(0.95));
    w.kv("p99_us", tally.latencyUs.quantile(0.99));
    w.kv("ones_in", tally.onesIn);
    w.kv("ones_out", tally.onesOut);
    w.kv("ones_removed_pct", removedPct(tally.onesIn, tally.onesOut));
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bxt::Cli cli("bxt_loadgen",
                 "load generator for bxtd: encode traffic, latency "
                 "percentiles, throughput, ones removed");
    bxt::client::addEndpointOptions(cli, args.endpoint);
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
    cli.addInt("--requests", "N",
               "requests to send (default 2000, or the scenario's; a "
               "scenario cycles its first N, or all it has if fewer)",
               args.requests, 1);
    cli.addInt("--depth", "D",
               "requests in flight per connection (default 1)", args.depth,
               1);
    cli.addInt("--connections", "M",
               "parallel connections (default 1; 4 for --scenario)",
               args.connections);
    cli.add("--scenario", "NAME|PATH",
            "replay a multi-tenant scenario preset or spec file",
            [&](const std::string &v) { args.scenarioName = v; });
    cli.add("--adaptive-compare", "S1,S2,...",
            "replay the identical stream under --spec and each listed "
            "fixed spec, emitting scope:\"spec\" ones-on-bus rows (the "
            "adaptive-vs-fixed CI gate)",
            [&](const std::string &v) { args.adaptiveCompare = v; });
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

    if (!args.endpoint.set()) {
        std::fprintf(stderr, "bxt_loadgen: need --tcp or --unix\n");
        return 2;
    }
    // The first pass sends each request under its own spec or, when
    // racing specs, everything under --spec (the adaptive spec being
    // graded); then one pass per listed fixed spec.
    std::vector<std::string> specs{args.adaptiveCompare.empty() ? ""
                                                                : args.spec};
    const std::string &list = args.adaptiveCompare;
    for (std::size_t from = 0; from < list.size();) {
        const std::size_t comma = std::min(list.find(',', from), list.size());
        if (comma > from)
            specs.push_back(list.substr(from, comma - from));
        from = comma + 1;
    }
    std::vector<Pass> passes(specs.size());
    const std::size_t conns = args.connections > 0 ? args.connections
                              : args.scenarioName.empty() ? 1
                                                          : 4;

    Stream stream;
    std::string err;
    double cpu_start = 0.0;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        Pass &pass = passes[p];
        pass.spec = specs[p];
        if (!buildStream(args, pass.spec, stream, err)) {
            std::fprintf(stderr, "bxt_loadgen: %s\n", err.c_str());
            return 2;
        }
        if (p == 0 && (cpu_start = serverCpuSeconds(args)) < 0.0)
            return 1;
        if (!replay(args, stream, conns, pass, err)) {
            std::fprintf(stderr, "bxt_loadgen: %s\n", err.c_str());
            return 1;
        }
        // Every pass sends the identical payloads, so a differing
        // ones_in means the comparison is not apples to apples.
        const Tally &first = passes.front().total;
        if (pass.total.onesIn != first.onesIn || pass.total.txs != first.txs) {
            std::fprintf(stderr,
                         "bxt_loadgen: spec '%s' saw ones_in %llu / "
                         "txs %llu, expected %llu / %llu\n",
                         pass.spec.c_str(),
                         static_cast<unsigned long long>(pass.total.onesIn),
                         static_cast<unsigned long long>(pass.total.txs),
                         static_cast<unsigned long long>(first.onesIn),
                         static_cast<unsigned long long>(first.txs));
            return 1;
        }
    }
    const double cpu_end = serverCpuSeconds(args);
    if (cpu_end < 0.0)
        return 1;

    const Pass &primary = passes.front();
    const bool comparing = !primary.spec.empty();
    const Tally &total = primary.total;
    const bxt::BenchCost cost{
        cpu_end - cpu_start,
        static_cast<double>(total.txs * passes.size()), "tx"};
    const double seconds = primary.seconds;
    const double req_rate =
        seconds > 0.0 ? static_cast<double>(total.requests) / seconds : 0.0;
    const double tx_rate =
        seconds > 0.0 ? static_cast<double>(total.txs) / seconds : 0.0;

    std::printf("stream: %s  seed: %llu  tenants: %zu  connections: %zu  "
                "depth: %zu  paced: %s\n",
                stream.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                stream.tenants.size(), conns, args.depth,
                stream.paced ? "yes" : "no");
    std::printf("requests: %llu  elapsed: %.3f s  throughput: %.0f req/s  "
                "%.0f tx/s\n",
                static_cast<unsigned long long>(total.requests), seconds,
                req_rate, tx_rate);
    std::printf("latency us (post-warmup): p50 %.1f  p95 %.1f  p99 %.1f\n",
                total.latencyUs.quantile(0.50),
                total.latencyUs.quantile(0.95),
                total.latencyUs.quantile(0.99));
    std::printf("ones on bus: in %llu  out %llu  removed %.2f%%\n",
                static_cast<unsigned long long>(total.onesIn),
                static_cast<unsigned long long>(total.onesOut),
                removedPct(total.onesIn, total.onesOut));

    if (!args.jsonPath.empty() &&
        !bxt::writeBenchJson(
            args.jsonPath,
            stream.tagged ? "server_scenarios" : "server_loadgen",
            [&](bxt::JsonWriter &w) {
                w.beginObject();
                w.kv("scope", "aggregate");
                w.kv("scenario", stream.name);
                w.kv("seed", static_cast<std::uint64_t>(args.seed));
                w.kv("tenants",
                     static_cast<std::uint64_t>(stream.tenants.size()));
                w.kv("alpha", stream.alpha);
                w.kv("connections", static_cast<std::uint64_t>(conns));
                w.kv("depth", static_cast<std::uint64_t>(args.depth));
                w.kv("warmup", static_cast<std::uint64_t>(kWarmup));
                w.kv("paced", stream.paced);
                if (comparing)
                    w.kv("spec_override", primary.spec);
                w.kv("seconds", seconds);
                w.kv("req_per_s", req_rate);
                w.kv("tx_per_s", tx_rate);
                writeTally(w, total);
                w.endObject();
                for (std::uint32_t t = 0; t < stream.tenants.size(); ++t) {
                    const Tenant &tenant = stream.tenants[t];
                    w.beginObject();
                    w.kv("scope", "tenant");
                    w.kv("tenant", static_cast<std::uint64_t>(t));
                    w.kv("stream_id",
                         static_cast<std::uint64_t>(stream.streamId(t)));
                    w.kv("spec", tenant.spec);
                    w.kv("tx_bytes",
                         static_cast<std::uint64_t>(tenant.txBytes));
                    w.kv("weight", tenant.weight);
                    writeTally(w, primary.tenants[t]);
                    w.endObject();
                }
                for (std::size_t p = comparing ? 0 : 1; p < passes.size();
                     ++p) {
                    w.beginObject();
                    w.kv("scope", "spec");
                    w.kv("scenario", stream.name);
                    w.kv("spec", passes[p].spec);
                    w.kv("seconds", passes[p].seconds);
                    writeTally(w, passes[p].total);
                    w.endObject();
                }
            },
            &cost))
        return 1;

    if (args.assertMinTxRate > 0.0 && tx_rate < args.assertMinTxRate) {
        std::fprintf(stderr,
                     "bxt_loadgen: tx rate %.0f/s below required %.0f/s\n",
                     tx_rate, args.assertMinTxRate);
        return 1;
    }
    return 0;
}
