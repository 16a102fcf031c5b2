/**
 * @file
 * Steady-state allocation test for the bxtd request path. A shard serves
 * each request as FrameParser::next -> Service::handle -> appendFrame
 * into buffers its connection keeps; once those buffers have grown to
 * the largest request, serving a concrete-spec Encode or Decode must not
 * touch the heap. The global operator new below counts every
 * allocation, which is why this test is its own executable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/rng.h"
#include "server/service.h"
#include "server/wire.h"
#include "telemetry/metrics.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
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

namespace bxt {
namespace {

constexpr std::uint32_t kTxBytes = 32;
constexpr std::uint32_t kBusBits = 32;

/** A stream-tagged xor4+zdr Encode request and its raw plane. */
struct EncodeRequest
{
    std::vector<std::uint8_t> raw;
    std::vector<std::uint8_t> bytes; ///< Serialized frame.
};

EncodeRequest
makeEncodeRequest(Rng &rng, std::uint64_t count, std::uint16_t stream)
{
    EncodeRequest req;
    req.raw.resize(count * kTxBytes);
    // Similar neighbouring words with a few zero words: the data the
    // paper's encoders see, so every codec stage does real work.
    const std::uint32_t base = static_cast<std::uint32_t>(rng.next64());
    for (std::size_t w = 0; w < req.raw.size() / 4; ++w) {
        const std::uint32_t word =
            rng.nextBounded(8) == 0
                ? 0
                : base ^ static_cast<std::uint32_t>(rng.nextBounded(256));
        std::memcpy(req.raw.data() + w * 4, &word, 4);
    }
    wire::Frame frame;
    frame.opcode = wire::Opcode::Encode;
    frame.streamId = stream;
    frame.spec = "xor4+zdr";
    wire::BodyWriter body(frame.body);
    body.u32(kTxBytes);
    body.u32(kBusBits);
    body.u64(count);
    body.bytes(req.raw.data(), req.raw.size());
    req.bytes = wire::serializeFrame(frame);
    return req;
}

/** Outcome of serving requests, checked after the counted window. */
struct Served
{
    std::uint64_t requests = 0;
    std::uint64_t wrong = 0;
};

/**
 * Serve one Encode, then a Decode of its reply, through reused buffers
 * only, the way a shard connection does.
 */
void
serveRoundTrip(const EncodeRequest &req, wire::FrameParser &parser,
               server::Service &service, wire::Frame &request,
               wire::Frame &response, wire::Frame &decode,
               std::vector<std::uint8_t> &wire_bytes,
               std::vector<std::uint8_t> &out, Served &served)
{
    wire::WireError err;
    parser.feed(req.bytes.data(), req.bytes.size());
    if (parser.next(request, err) != wire::FrameParser::Status::Ready) {
        ++served.wrong;
        return;
    }
    service.handle(request, response);
    out.clear();
    wire::appendFrame(out, response);
    ++served.requests;
    // Encode reply: 4 u32 geometry fields, u64 count, 3 u64 ones tallies,
    // then payload and packed meta. The Decode request is the same body
    // without the tallies.
    constexpr std::size_t kGeometry = 4 * 4 + 8;
    constexpr std::size_t kTallies = 3 * 8;
    if (response.opcode != wire::Opcode::Encode ||
        response.body.size() < kGeometry + kTallies) {
        ++served.wrong;
        return;
    }

    decode.opcode = wire::Opcode::Decode;
    decode.streamId = request.streamId;
    decode.spec = request.spec;
    wire::BodyWriter body(decode.body,
                          response.body.size() - kTallies);
    body.bytes(response.body.data(), kGeometry);
    body.bytes(response.body.data() + kGeometry + kTallies,
               response.body.size() - kGeometry - kTallies);
    wire_bytes.clear();
    wire::appendFrame(wire_bytes, decode);
    parser.feed(wire_bytes.data(), wire_bytes.size());
    if (parser.next(request, err) != wire::FrameParser::Status::Ready) {
        ++served.wrong;
        return;
    }
    service.handle(request, response);
    out.clear();
    wire::appendFrame(out, response);
    ++served.requests;
    constexpr std::size_t kDecodeHeader = 4 + 8;
    if (response.opcode != wire::Opcode::Decode ||
        response.body.size() != kDecodeHeader + req.raw.size() ||
        std::memcmp(response.body.data() + kDecodeHeader, req.raw.data(),
                    req.raw.size()) != 0)
        ++served.wrong;
}

TEST(ServerAllocs, SteadyStateEncodeDecodeIsAllocationFree)
{
    telemetry::setMetricsEnabled(true);
    Rng rng(42);
    // 64-256 transactions per request over three tagged streams; the
    // largest request comes first so the warm-up reaches every buffer's
    // final size.
    std::vector<EncodeRequest> requests;
    requests.push_back(makeEncodeRequest(rng, 256, 1));
    for (int i = 0; i < 15; ++i) {
        requests.push_back(makeEncodeRequest(
            rng, 64 + rng.nextBounded(193),
            static_cast<std::uint16_t>(1 + i % 3)));
    }

    server::Service service;
    wire::FrameParser parser;
    wire::Frame request, response, decode;
    std::vector<std::uint8_t> wire_bytes, out;
    Served warm;
    for (const EncodeRequest &req : requests) {
        serveRoundTrip(req, parser, service, request, response, decode,
                       wire_bytes, out, warm);
    }
    ASSERT_EQ(warm.wrong, 0u);

    Served served;
    const std::uint64_t before = g_allocs.load();
    for (std::size_t i = 0; served.requests < 1000; ++i) {
        serveRoundTrip(requests[i % requests.size()], parser, service,
                       request, response, decode, wire_bytes, out, served);
        if (served.wrong != 0)
            break;
    }
    const std::uint64_t allocs = g_allocs.load() - before;
    telemetry::setMetricsEnabled(false);

    EXPECT_EQ(served.wrong, 0u);
    EXPECT_EQ(served.requests, 1000u);
    EXPECT_EQ(allocs, 0u) << "heap allocations over " << served.requests
                          << " steady-state requests";
}

} // namespace
} // namespace bxt
