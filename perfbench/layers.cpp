/**
 * @file
 * perfbench_layers: the traced run. Replays a workload's exact request
 * frames in-process, single-threaded and without sockets, through the
 * same calls a bxtd shard makes per request:
 *
 *   FrameParser::feed/next -> Service::handle -> serializeFrame
 *
 * and separately through Codec::encodeBatch/decodeBatch. Every call is
 * wrapped in a span (one request id, a parent request span) kept in
 * memory and written out at the end as a Chrome trace; the metrics are
 * per-request self times, medians over repeated passes. Heap
 * allocations are counted by the operator new below, which is local to
 * this binary.
 *
 * Usage:
 *   perfbench_layers --workload NAME --seed N --seconds S [--spans PATH]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "adaptive/adaptive_codec.h"
#include "common/checksum.h"
#include "core/batch.h"
#include "core/codec_factory.h"
#include "frames.h"
#include "server/service.h"
#include "server/wire.h"
#include "telemetry/metrics.h"
#include "workload.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
volatile std::uint32_t g_sink = 0; ///< Keeps timed results observable.
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) /
                                            a * a))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench {
namespace {

using bxt::server::Service;
namespace wire = bxt::wire;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Span names; index into spanNames. */
enum Layer : std::uint8_t {
    lRequest,
    lParse,
    lHandle,
    lSerialize,
    lDecodeProbe,
    lCrc,
    lCoreEncode,
    lCoreDecode,
    lAdaptiveEncode,
    lCount,
};

const char *const spanNames[lCount] = {
    "request",       "wire.parse",  "service.handle",
    "wire.serialize", "service.decode_probe", "wire.crc",
    "core.encode",   "core.decode", "adaptive.encode",
};

struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1; ///< Index into the span list, -1 = root.
    std::uint32_t request = 0;
    std::uint16_t pass = 0;
    Layer layer = lRequest;
};

/** In-memory span recorder. */
class Recorder
{
  public:
    std::int32_t begin(Layer layer, std::uint32_t request,
                       std::int32_t parent)
    {
        Span s;
        s.layer = layer;
        s.request = request;
        s.pass = pass;
        s.parent = parent;
        spans.push_back(s);
        spans.back().start = nowNs();
        return static_cast<std::int32_t>(spans.size() - 1);
    }
    void end(std::int32_t id) { spans[id].end = nowNs(); }

    std::uint16_t pass = 0;
    std::vector<Span> spans;
};

/** One frame of the ledger sequence plus what checks its reply. */
struct Step
{
    std::uint32_t index = 0; ///< Pool request.
    bool decode = false;
    std::vector<std::uint8_t> frame;
};

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void check(bool ok, const std::string &why)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (errors.size() < 5)
                errors.push_back(why);
        }
    }
};

/** Parse one complete frame held in @p bytes. */
bool
parseOne(wire::FrameParser &parser, const std::vector<std::uint8_t> &bytes,
         wire::Frame &frame)
{
    wire::WireError err;
    parser.feed(bytes.data(), bytes.size());
    return parser.next(frame, err) == wire::FrameParser::Status::Ready;
}

/** Per-pass sums, divided per request at the end. */
struct PassSums
{
    double parse = 0, handle = 0, serialize = 0, decodeHandle = 0;
    double crc = 0, coreEncode = 0, coreDecode = 0, adaptiveEncode = 0;
    std::uint64_t decodes = 0;
};

/** Recorded passes: at least min, then until --seconds, at most max. */
constexpr std::uint16_t minPasses = 3;
constexpr std::uint16_t maxPasses = 60;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 5.0;
    std::string spans;
};

int
run(const Args &args)
{
    const Workload *w = findWorkload(args.workload);
    if (w == nullptr) {
        std::fprintf(stderr, "perfbench_layers: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const std::vector<Request> pool = makePool(*w, args.seed);
    if (pool.size() != poolSize) {
        std::fprintf(stderr, "perfbench_layers: pool generation failed\n");
        return 2;
    }
    Outcome outcome;

    // Preparation pass (untimed): the ledger sequence, the decode of
    // every encode reply, and the reply bytes, all checked.
    bxt::telemetry::setMetricsEnabled(true);
    std::vector<Step> steps;
    std::vector<std::vector<std::uint8_t>> probes(pool.size());
    std::vector<std::vector<std::uint8_t>> replies(pool.size());
    {
        Service svc;
        wire::FrameParser parser;
        for (std::uint32_t i = 0; i < pool.size(); ++i) {
            const Request &req = pool[i];
            wire::Frame frame;
            outcome.check(parseOne(parser, req.frame, frame),
                          "request frame did not parse");
            std::vector<std::uint8_t> reply =
                wire::serializeFrame(svc.handle(frame));
            FrameView view;
            EncodeReply enc;
            const bool parsed =
                parseFrame(reply.data(), reply.size(), view) > 0 &&
                parseEncodeReply(view, enc);
            outcome.check(parsed, "malformed encode reply");
            if (!parsed)
                continue;
            outcome.check(Tallies{enc.onesIn, enc.payloadOnes,
                                  enc.metaOnes} == req.ref,
                          "ones tallies differ from the reference encode");
            steps.push_back({i, false, req.frame});
            probes[i] = decodeRequestFor(view, req.spec);
            if (w->roundTrip)
                steps.push_back({i, true, probes[i]});
            replies[i] = std::move(reply);
        }
        for (std::uint32_t i = 0; i < pool.size(); ++i) {
            wire::Frame frame;
            if (probes[i].empty() || !parseOne(parser, probes[i], frame))
                continue;
            const std::vector<std::uint8_t> reply =
                wire::serializeFrame(svc.handle(frame));
            FrameView view;
            outcome.check(parseFrame(reply.data(), reply.size(), view) > 0 &&
                              decodeReplyEquals(view, pool[i].payload(),
                                                pool[i].payloadBytes(),
                                                pool[i].txBytes),
                          "decode differs from the encoded input");
        }
    }
    if (outcome.failed != 0) {
        for (const std::string &e : outcome.errors)
            std::fprintf(stderr, "perfbench_layers: %s\n", e.c_str());
        return 1;
    }
    const double requests = static_cast<double>(steps.size());
    const double encodes = static_cast<double>(pool.size());

    // Ledger passes: metrics on (recorded) and off (handle only), each
    // on its own warmed Service, as a shard's would be.
    Recorder rec;
    Service svc_on;
    Service svc_off;
    wire::FrameParser parser_on;
    wire::FrameParser parser_off;
    std::uint64_t parse_allocs = 0, handle_allocs = 0, serialize_allocs = 0;
    const auto ledger_pass = [&](bool metrics_on, bool record,
                                 PassSums &sums, bool count_allocs) {
        bxt::telemetry::setMetricsEnabled(metrics_on);
        Service &svc = metrics_on ? svc_on : svc_off;
        wire::FrameParser &parser = metrics_on ? parser_on : parser_off;
        const std::size_t kept = rec.spans.size();
        for (std::uint32_t r = 0; r < steps.size(); ++r) {
            const Step &step = steps[r];
            wire::Frame request;
            wire::WireError err;
            const std::uint64_t a0 = g_allocs.load();
            const std::int32_t root = rec.begin(lRequest, r, -1);
            const std::int32_t p = rec.begin(lParse, r, root);
            parser.feed(step.frame.data(), step.frame.size());
            parser.next(request, err);
            rec.end(p);
            const std::uint64_t a1 = g_allocs.load();
            const std::int32_t h = rec.begin(lHandle, r, root);
            const wire::Frame response = svc.handle(request);
            rec.end(h);
            const std::uint64_t a2 = g_allocs.load();
            const std::int32_t s = rec.begin(lSerialize, r, root);
            const std::vector<std::uint8_t> bytes =
                wire::serializeFrame(response);
            rec.end(s);
            rec.end(root);
            const std::uint64_t a3 = g_allocs.load();
            if (count_allocs) {
                parse_allocs += a1 - a0;
                handle_allocs += a2 - a1;
                serialize_allocs += a3 - a2;
            }
            const Span &hs = rec.spans[h];
            sums.handle += static_cast<double>(hs.end - hs.start);
            sums.parse += static_cast<double>(rec.spans[p].end -
                                              rec.spans[p].start);
            sums.serialize += static_cast<double>(rec.spans[s].end -
                                                  rec.spans[s].start);
            if (step.decode) {
                sums.decodeHandle += static_cast<double>(hs.end - hs.start);
                ++sums.decodes;
            } else if (!w->roundTrip && metrics_on) {
                // Read-path probe outside the ledger: the decode of this
                // reply, so service.decode_ns is measured everywhere.
                wire::Frame probe;
                parseOne(parser, probes[step.index], probe);
                const std::int32_t d = rec.begin(lDecodeProbe, r, -1);
                const wire::Frame decoded = svc.handle(probe);
                rec.end(d);
                sums.decodeHandle += static_cast<double>(rec.spans[d].end -
                                                         rec.spans[d].start);
                ++sums.decodes;
            }
        }
        if (!record)
            rec.spans.resize(kept); // Keep only recorded passes.
        bxt::telemetry::setMetricsEnabled(true);
    };

    // Kernel pass: the codec layer alone on the same batches, plus CRC
    // over each request and reply frame.
    std::map<std::string, bxt::CodecPtr> codecs;
    std::map<std::uint16_t, bxt::CodecPtr> adaptive;
    bxt::TxBatch batch, decoded;
    bxt::EncodedBatch enc;
    std::uint64_t switches = 0;
    bool first_kernel_pass = true;
    const auto kernel_pass = [&](PassSums &sums) {
        for (std::uint32_t i = 0; i < pool.size(); ++i) {
            const Request &req = pool[i];
            batch.reset(req.txBytes);
            batch.append(req.payload(), req.count);
            auto &adaptive_codec = adaptive[req.stream];
            std::string err;
            if (!adaptive_codec)
                adaptive_codec = bxt::tryMakeCodec("adaptive",
                                                   req.busBits / 8u, err);
            const std::int32_t a = rec.begin(lAdaptiveEncode, i, -1);
            adaptive_codec->encodeBatch(batch, enc);
            rec.end(a);
            // The core codec: the request's own spec.
            auto &codec =
                codecs[req.spec + "/" + std::to_string(req.busBits)];
            if (!codec)
                codec = bxt::tryMakeCodec(req.spec, req.busBits / 8u, err);
            const std::int32_t e = rec.begin(lCoreEncode, i, -1);
            codec->encodeBatch(batch, enc);
            rec.end(e);
            const std::int32_t d = rec.begin(lCoreDecode, i, -1);
            codec->decodeBatch(enc, decoded);
            rec.end(d);
            if (first_kernel_pass)
                outcome.check(decoded == batch,
                              "decodeBatch did not restore the batch");
            const std::int32_t c = rec.begin(lCrc, i, -1);
            const std::uint32_t crc =
                bxt::crc32({req.frame.data(), req.frame.size() - 4}) ^
                bxt::crc32({replies[i].data(), replies[i].size() - 4});
            rec.end(c);
            g_sink = g_sink + crc;
            const auto dur = [&](std::int32_t id) {
                return static_cast<double>(rec.spans[id].end -
                                           rec.spans[id].start);
            };
            sums.crc += dur(c);
            sums.adaptiveEncode += dur(a);
            sums.coreEncode += dur(e);
            sums.coreDecode += dur(d);
        }
        if (first_kernel_pass) {
            for (const auto &[stream, codec] : adaptive)
                switches += static_cast<bxt::adaptive::AdaptiveCodec &>(
                                *codec)
                                .controller()
                                .epoch();
            first_kernel_pass = false;
        }
    };

    // Warm every cache and codec once, untimed.
    {
        PassSums scratch;
        ledger_pass(true, false, scratch, false);
        ledger_pass(false, false, scratch, false);
    }
    std::vector<double> parse, handle, serialize, decode_handle, crc,
        core_encode, core_decode, adaptive_encode, telemetry_ns;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    for (std::uint16_t pass = 0;
         pass < minPasses || (pass < maxPasses && nowNs() < deadline);
         ++pass) {
        rec.pass = pass;
        PassSums on, off, kernel;
        ledger_pass(true, true, on, pass == 0);
        ledger_pass(false, false, off, false);
        kernel_pass(kernel);
        parse.push_back(on.parse / requests);
        handle.push_back(on.handle / requests);
        serialize.push_back(on.serialize / requests);
        decode_handle.push_back(on.decodeHandle /
                                static_cast<double>(on.decodes));
        telemetry_ns.push_back((on.handle - off.handle) / requests);
        crc.push_back(kernel.crc / requests);
        core_encode.push_back(kernel.coreEncode / encodes);
        core_decode.push_back(kernel.coreDecode / encodes);
        adaptive_encode.push_back(kernel.adaptiveEncode / encodes);
    }

    // Self time from the spans: a span's duration minus its children's.
    std::vector<double> child(rec.spans.size(), 0.0);
    for (const Span &s : rec.spans) {
        if (s.parent >= 0)
            child[s.parent] += static_cast<double>(s.end - s.start);
    }
    if (!args.spans.empty()) {
        std::ofstream out(args.spans, std::ios::trunc);
        out << "{\"traceEvents\":[";
        const std::int64_t origin =
            rec.spans.empty() ? 0 : rec.spans.front().start;
        // The first recorded pass is representative; all passes feed
        // the metrics.
        for (std::size_t i = 0; i < rec.spans.size(); ++i) {
            const Span &s = rec.spans[i];
            if (s.pass != 0)
                break;
            char line[256];
            std::snprintf(line, sizeof(line),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                          "\"request\":%u,\"pass\":%u,\"self_ns\":%.0f}}",
                          i == 0 ? "" : ",\n", spanNames[s.layer],
                          static_cast<double>(s.start - origin) / 1e3,
                          static_cast<double>(s.end - s.start) / 1e3,
                          s.request, s.pass,
                          static_cast<double>(s.end - s.start) - child[i]);
            out << line;
        }
        out << "]}\n";
    }

    for (const std::string &e : outcome.errors)
        std::fprintf(stderr, "perfbench_layers: %s\n", e.c_str());
    const bool correct = outcome.failed == 0;
    std::printf(
        "{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%llu,"
        "\"failed\":%llu,\"passes\":%zu,\"requests_per_pass\":%zu,"
        "\"wire.parse_ns\":%.3f,\"wire.serialize_ns\":%.3f,"
        "\"wire.crc_ns\":%.3f,\"wire.allocs\":%.4f,"
        "\"service.handle_ns\":%.3f,\"service.allocs\":%.4f,"
        "\"service.decode_ns\":%.3f,\"core.encode_ns\":%.3f,"
        "\"core.decode_ns\":%.3f,\"telemetry.ns\":%.3f,"
        "\"adaptive.encode_ns\":%.3f,\"adaptive.switches\":%llu}\n",
        w->name, correct ? "true" : "false",
        static_cast<unsigned long long>(outcome.attempted),
        static_cast<unsigned long long>(outcome.failed), parse.size(),
        steps.size(), median(parse), median(serialize), median(crc),
        static_cast<double>(parse_allocs + serialize_allocs) / requests,
        median(handle), static_cast<double>(handle_allocs) / requests,
        median(decode_handle), median(core_encode), median(core_decode),
        median(telemetry_ns), median(adaptive_encode),
        static_cast<unsigned long long>(switches));
    return correct ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--spans")
            a.spans = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args;
    if (!perfbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr, "usage: perfbench_layers --workload NAME "
                             "--seed N --seconds S [--spans PATH]\n");
        return 2;
    }
    return perfbench::run(args);
}
