/**
 * @file
 * bxt_client: run a .bxtrace through a live bxtd server and report the
 * ones-on-bus delta the codec achieved, or fetch the server's telemetry
 * snapshot. `roundtrip` additionally decodes everything back and fails
 * unless the recovered bytes are bit-identical to the trace.
 *
 * Usage:
 *   bxt_client (--tcp HOST:PORT | --unix PATH) [--spec S] [--wires W]
 *              [--batch N] [--mode ping|encode|roundtrip|stats|snapshot]
 *              [TRACE]
 *
 * `snapshot` fetches the live `{"uptime_us", "metrics"}` document served
 * by the Snapshot opcode (what bxt_top polls); `stats` fetches the bare
 * metrics snapshot.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "client/client.h"
#include "common/cli.h"
#include "workloads/trace.h"

namespace {

struct Args
{
    bxt::client::Endpoint endpoint;
    std::string spec = "baseline";
    unsigned wires = 32;
    std::size_t batch = 64;
    std::string mode = "roundtrip";
    std::string tracePath;
};

/** Flatten trace transactions into one contiguous byte buffer. */
std::vector<std::uint8_t>
flatten(const bxt::Trace &trace)
{
    const std::size_t tx_bytes = trace.txBytes();
    std::vector<std::uint8_t> raw;
    raw.reserve(trace.txs.size() * tx_bytes);
    for (const bxt::Transaction &tx : trace.txs) {
        const auto bytes = tx.bytes();
        raw.insert(raw.end(), bytes.begin(), bytes.end());
    }
    return raw;
}

int
runTrace(const Args &args, bool roundtrip)
{
    bxt::Trace trace;
    std::string err;
    if (!bxt::tryLoadTrace(args.tracePath, trace, err)) {
        std::fprintf(stderr, "bxt_client: %s\n", err.c_str());
        return 1;
    }
    if (trace.txs.empty()) {
        std::fprintf(stderr, "bxt_client: trace '%s' is empty\n",
                     args.tracePath.c_str());
        return 1;
    }
    const std::uint32_t tx_bytes =
        static_cast<std::uint32_t>(trace.txBytes());
    const std::vector<std::uint8_t> raw = flatten(trace);

    bxt::client::Client client = bxt::client::connect(args.endpoint, err);
    if (!client.connected()) {
        std::fprintf(stderr, "bxt_client: %s\n", err.c_str());
        return 1;
    }

    std::uint64_t input_ones = 0;
    std::uint64_t output_ones = 0;
    std::size_t mismatches = 0;
    std::string announced;
    std::uint64_t epoch = 0;
    std::size_t switches = 0;
    const std::size_t chunk_bytes = args.batch * tx_bytes;
    for (std::size_t off = 0; off < raw.size(); off += chunk_bytes) {
        const std::size_t n = std::min(chunk_bytes, raw.size() - off);
        const std::span<const std::uint8_t> slice(raw.data() + off, n);

        bxt::client::EncodeResult enc;
        if (!client.encode(args.spec, tx_bytes, args.wires, slice, enc,
                           err)) {
            std::fprintf(stderr, "bxt_client: encode failed: %s\n",
                         err.c_str());
            return 1;
        }
        input_ones += enc.inputOnes;
        output_ones += enc.payloadOnes + enc.metaOnes;
        if (!announced.empty() && announced != enc.announcedSpec)
            ++switches;
        announced = enc.announcedSpec;
        epoch = enc.switchEpoch;

        if (roundtrip) {
            // Decode under the announced concrete spec: for adaptive
            // requests that is the codec that actually produced the
            // payloads (and stays correct across a switch epoch).
            const std::string &decode_spec =
                enc.announcedSpec.empty() ? args.spec : enc.announcedSpec;
            bxt::client::DecodeResult dec;
            if (!client.decode(decode_spec, enc, dec, err)) {
                std::fprintf(stderr, "bxt_client: decode failed: %s\n",
                             err.c_str());
                return 1;
            }
            if (dec.raw.size() != n ||
                std::memcmp(dec.raw.data(), slice.data(), n) != 0)
                ++mismatches;
        }
    }

    const double removed_pct =
        input_ones == 0 ? 0.0
                        : (1.0 - static_cast<double>(output_ones) /
                                     static_cast<double>(input_ones)) *
                              100.0;
    std::printf("trace: %s (%zu tx of %u bytes)\n", trace.name.c_str(),
                trace.txs.size(), tx_bytes);
    std::printf("spec: %s  wires: %u\n", args.spec.c_str(), args.wires);
    if (!announced.empty() && announced != args.spec)
        std::printf("active spec: %s (epoch %llu, %zu switches seen)\n",
                    announced.c_str(),
                    static_cast<unsigned long long>(epoch), switches);
    std::printf("ones on bus: %llu -> %llu (%+.2f%% removed)\n",
                static_cast<unsigned long long>(input_ones),
                static_cast<unsigned long long>(output_ones), removed_pct);
    if (roundtrip) {
        std::printf("roundtrip: %s\n",
                    mismatches == 0 ? "bit-identical" : "MISMATCH");
        if (mismatches != 0)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bxt::Cli cli("bxt_client",
                 "run a .bxtrace through a live bxtd server and report "
                 "ones-on-bus deltas");
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
    cli.addInt("--batch", "N", "transactions per request (default 64)",
               args.batch, 1, bxt::wire::maxTxPerRequest);
    cli.add("--mode", "M", "ping | encode | roundtrip | stats | snapshot",
            [&](const std::string &v) { args.mode = v; });
    cli.addPositional("TRACE", ".bxtrace file (encode/roundtrip modes)",
                      [&](const std::string &v) { args.tracePath = v; });
    if (!cli.parse(argc, argv))
        return cli.exitCode();

    if (!args.endpoint.set()) {
        std::fprintf(stderr, "bxt_client: need --tcp or --unix\n");
        return 2;
    }

    std::string err;
    if (args.mode == "ping") {
        bxt::client::Client client = bxt::client::connect(args.endpoint, err);
        if (!client.connected() || !client.ping(err)) {
            std::fprintf(stderr, "bxt_client: ping failed: %s\n",
                         err.c_str());
            return 1;
        }
        std::printf("pong\n");
        return 0;
    }
    if (args.mode == "stats" || args.mode == "snapshot") {
        bxt::client::Client client = bxt::client::connect(args.endpoint, err);
        std::string json;
        const bool ok = client.connected() &&
                        (args.mode == "stats" ? client.stats(json, err)
                                              : client.snapshot(json, err));
        if (!ok) {
            std::fprintf(stderr, "bxt_client: %s failed: %s\n",
                         args.mode.c_str(), err.c_str());
            return 1;
        }
        std::printf("%s\n", json.c_str());
        return 0;
    }
    if (args.mode == "encode" || args.mode == "roundtrip") {
        if (args.tracePath.empty()) {
            std::fprintf(stderr,
                         "bxt_client: mode '%s' needs a TRACE argument\n",
                         args.mode.c_str());
            return 2;
        }
        return runTrace(args, args.mode == "roundtrip");
    }
    std::fprintf(stderr, "bxt_client: unknown --mode '%s'\n",
                 args.mode.c_str());
    return 2;
}
