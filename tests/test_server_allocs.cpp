/**
 * @file
 * Steady-state allocation test for the bxtd request path. A shard serves
 * each request as a FrameParser view handed to Service::handle, which
 * writes the reply in place into the connection's output buffer, and a
 * client builds its requests in place and reads replies as views. Once
 * the buffers involved have grown to the largest request, serving a
 * concrete-spec Encode or Decode this way must not touch the heap,
 * metadata packing included. The global operator new below counts every
 * allocation, which is why this test is its own executable. */

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

/** A stream-tagged Encode request and its raw plane. */
struct EncodeRequest
{
    std::vector<std::uint8_t> raw;
    std::vector<std::uint8_t> bytes; ///< The request frame.
};

EncodeRequest
makeEncodeRequest(Rng &rng, const char *spec, std::uint64_t count,
                  std::uint16_t stream)
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
    wire::FrameView head;
    head.opcode = wire::Opcode::Encode;
    head.streamId = stream;
    head.spec = spec;
    const std::size_t body_bytes = 16 + req.raw.size();
    wire::beginFrame(req.bytes, head, body_bytes);
    wire::BodyWriter body(req.bytes, req.bytes.size(), body_bytes);
    body.u32(kTxBytes);
    body.u32(kBusBits);
    body.u64(count);
    body.bytes(req.raw.data(), req.raw.size());
    wire::finishFrame(req.bytes, 0);
    return req;
}

/** Outcome of serving requests, checked after the counted window. */
struct Served
{
    std::uint64_t requests = 0;
    std::uint64_t wrong = 0;
};

/** Everything a connection and its peer reuse from request to request. */
struct Buffers
{
    wire::FrameParser serverParser;
    wire::FrameParser clientParser;
    std::vector<std::uint8_t> decodeRequest, out;
};

/**
 * Serve the request frame @p bytes in place and view its reply in
 * @p reply, which borrows buf.clientParser until its next read. False
 * when either side fails to parse.
 */
bool
serveOne(const std::vector<std::uint8_t> &bytes, server::Service &service,
         Buffers &buf, wire::FrameView &reply)
{
    wire::WireError err;
    buf.serverParser.feed(bytes.data(), bytes.size());
    wire::FrameView request;
    if (buf.serverParser.next(request, err) !=
        wire::FrameParser::Status::Ready)
        return false;
    buf.out.clear();
    service.handle(request, buf.out);
    buf.clientParser.feed(buf.out.data(), buf.out.size());
    return buf.clientParser.next(reply, err) ==
           wire::FrameParser::Status::Ready;
}

/** Serve one Encode, then a Decode of its reply, through reused buffers
 *  only, the way a shard connection and a client do. */
void
serveRoundTrip(const EncodeRequest &req, server::Service &service,
               Buffers &buf, Served &served)
{
    wire::FrameView reply;
    if (!serveOne(req.bytes, service, buf, reply)) {
        ++served.wrong;
        return;
    }
    ++served.requests;
    // Encode reply: 4 u32 geometry fields, u64 count, 3 u64 ones tallies,
    // then payload and packed meta. The Decode request is the same body
    // without the tallies.
    constexpr std::size_t kGeometry = 4 * 4 + 8;
    constexpr std::size_t kTallies = 3 * 8;
    if (reply.opcode != wire::Opcode::Encode ||
        reply.body.size() < kGeometry + kTallies) {
        ++served.wrong;
        return;
    }

    // Built in place from the reply's view, as the client builds its
    // requests.
    wire::FrameView head;
    head.opcode = wire::Opcode::Decode;
    head.streamId = reply.streamId;
    head.spec = reply.spec;
    const std::size_t body_bytes = reply.body.size() - kTallies;
    buf.decodeRequest.clear();
    wire::beginFrame(buf.decodeRequest, head, body_bytes);
    wire::BodyWriter body(buf.decodeRequest, buf.decodeRequest.size(),
                          body_bytes);
    body.bytes(reply.body.data(), kGeometry);
    body.bytes(reply.body.data() + kGeometry + kTallies,
               reply.body.size() - kGeometry - kTallies);
    wire::finishFrame(buf.decodeRequest, 0);
    if (!serveOne(buf.decodeRequest, service, buf, reply)) {
        ++served.wrong;
        return;
    }
    ++served.requests;
    constexpr std::size_t kDecodeHeader = 4 + 8;
    if (reply.opcode != wire::Opcode::Decode ||
        reply.body.size() != kDecodeHeader + req.raw.size() ||
        std::memcmp(reply.body.data() + kDecodeHeader, req.raw.data(),
                    req.raw.size()) != 0)
        ++served.wrong;
}

TEST(ServerAllocs, SteadyStateEncodeDecodeIsAllocationFree)
{
    telemetry::setMetricsEnabled(true);
    Rng rng(42);
    // 64-256 transactions per request over three tagged streams and
    // three specs: one without metadata, plain DBI, and Universal XOR+ZDR
    // composed with DBI (the paper's best configuration), so metadata is
    // packed and unpacked on every request of the last two. The largest
    // request of each spec comes first so the warm-up reaches every
    // buffer's final size.
    std::vector<EncodeRequest> requests;
    const char *const specs[] = {"xor4+zdr", "dbi4", "universal3+zdr|dbi4"};
    for (const char *spec : specs)
        requests.push_back(makeEncodeRequest(rng, spec, 256, 1));
    for (int i = 0; i < 15; ++i) {
        requests.push_back(makeEncodeRequest(
            rng, specs[i % 3], 64 + rng.nextBounded(193),
            static_cast<std::uint16_t>(1 + i % 3)));
    }

    server::Service service;
    Buffers buf;
    Served warm;
    for (const EncodeRequest &req : requests)
        serveRoundTrip(req, service, buf, warm);
    ASSERT_EQ(warm.wrong, 0u);

    Served served;
    const std::uint64_t before = g_allocs.load();
    for (std::size_t i = 0; served.requests < 1200; ++i) {
        serveRoundTrip(requests[i % requests.size()], service, buf, served);
        if (served.wrong != 0)
            break;
    }
    const std::uint64_t allocs = g_allocs.load() - before;

    EXPECT_EQ(served.wrong, 0u);
    EXPECT_EQ(served.requests, 1200u);
    EXPECT_EQ(allocs, 0u) << "heap allocations over " << served.requests
                          << " steady-state requests";
    telemetry::setMetricsEnabled(false);
}

} // namespace
} // namespace bxt
