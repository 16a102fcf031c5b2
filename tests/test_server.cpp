/**
 * @file
 * bxtd server tests: frame-parser structural checks (every malformed
 * input maps to a typed error), socket-free Service dispatch, and
 * loopback end-to-end runs — a live server on an ephemeral TCP port and
 * on a Unix-domain socket, round-tripping the golden-vector corpus
 * bit-identically through every codec spec.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <map>

#include "client/client.h"
#include "common/bitops.h"
#include "common/checksum.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/codec_factory.h"
#include "server/net.h"
#include "server/server.h"
#include "server/service.h"
#include "server/shard.h"
#include "server/wire.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "telemetry/spanring.h"
#include "telemetry/trace.h"
#include "verify/differential.h"
#include "verify/golden.h"
#include "workloads/scenario.h"

namespace bxt {
namespace {

// ---------------------------------------------------------------------
// Frame parser

std::vector<std::uint8_t>
fromHex(std::string_view hex)
{
    std::vector<std::uint8_t> bytes(hex.size() / 2);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(
            std::stoi(std::string(hex.substr(2 * i, 2)), nullptr, 16));
    return bytes;
}

/** The bytes of @p buffer, for comparing with a std::vector. */
std::vector<std::uint8_t>
bytesOf(const ByteBuffer &buffer)
{
    return {buffer.data(), buffer.data() + buffer.size()};
}

/** Set @p frame's body to what @p fill writes through a BodyWriter. */
template <typename Fill>
void
writeBody(wire::Frame &frame, Fill fill)
{
    ByteBuffer body;
    wire::BodyWriter writer(body, 0, 0);
    fill(writer);
    frame.body = bytesOf(body);
}

wire::Frame
pingFrame()
{
    wire::Frame frame;
    frame.opcode = wire::Opcode::Ping;
    return frame;
}

wire::Frame
encodeFrameWithSpec(const std::string &spec)
{
    wire::Frame frame;
    frame.opcode = wire::Opcode::Encode;
    frame.spec = spec;
    frame.body = {1, 2, 3, 4};
    return frame;
}

/**
 * Overwrite a length field in a serialized frame. Length-bound checks
 * run before the CRC check, so the stale CRC does not mask them.
 */
void
storeLen(std::vector<std::uint8_t> &bytes, std::size_t offset,
         std::size_t value)
{
    storeWord32(bytes.data() + offset, static_cast<std::uint32_t>(value));
}

/** Feed @p bytes and expect one typed error. */
wire::ErrorCode
parseExpectingError(const std::vector<std::uint8_t> &bytes)
{
    wire::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    wire::Frame out;
    wire::WireError err;
    EXPECT_EQ(parser.next(out, err), wire::FrameParser::Status::Bad);
    EXPECT_TRUE(parser.failed());
    return err.code;
}

TEST(FrameParser, CleanFrameRoundTrips)
{
    const wire::Frame frame = encodeFrameWithSpec("universal3+zdr");
    const std::vector<std::uint8_t> bytes = wire::serializeFrame(frame);

    wire::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    wire::Frame out;
    wire::WireError err;
    ASSERT_EQ(parser.next(out, err), wire::FrameParser::Status::Ready);
    EXPECT_EQ(out, frame);
    EXPECT_EQ(parser.buffered(), 0u);
    EXPECT_EQ(parser.next(out, err), wire::FrameParser::Status::NeedMore);
}

TEST(FrameParser, ViewsStayUnchangedWhileLaterFramesParse)
{
    // Three frames in one read, the last cut short: every view the read
    // yields borrows the parser's buffer and keeps its bytes while the
    // frames after it are parsed, up to the next read.
    std::vector<wire::Frame> frames;
    std::vector<std::uint8_t> stream;
    for (std::uint8_t i = 0; i < 3; ++i) {
        wire::Frame frame = encodeFrameWithSpec("xor4+zdr");
        frame.streamId = static_cast<std::uint16_t>(10 + i);
        frame.body.assign(40 + i, static_cast<std::uint8_t>(0x30 + i));
        frames.push_back(frame);
        wire::appendFrame(stream, frame);
    }
    const std::size_t cut = stream.size() - 5;

    wire::FrameParser parser;
    std::memcpy(parser.prepareRead(cut), stream.data(), cut);
    parser.commitRead(cut);
    wire::WireError err;
    std::vector<wire::FrameView> views(2);
    ASSERT_EQ(parser.next(views[0], err), wire::FrameParser::Status::Ready);
    const wire::FrameView first = views[0];
    ASSERT_EQ(parser.next(views[1], err), wire::FrameParser::Status::Ready);
    wire::FrameView partial;
    EXPECT_EQ(parser.next(partial, err),
              wire::FrameParser::Status::NeedMore);
    for (std::size_t i = 0; i < views.size(); ++i) {
        EXPECT_EQ(views[i].streamId, frames[i].streamId);
        EXPECT_EQ(views[i].spec, frames[i].spec);
        EXPECT_TRUE(std::equal(views[i].body.begin(), views[i].body.end(),
                               frames[i].body.begin(),
                               frames[i].body.end()))
            << "view " << i << " changed before the next read";
    }
    // Views, not copies: the first body sits in the buffer right before
    // the second frame's header.
    EXPECT_EQ(first.body.data() + first.body.size() + wire::crcBytes +
                  wire::headerBytes + first.spec.size(),
              views[1].body.data());

    // The next read completes the third frame.
    std::memcpy(parser.prepareRead(5), stream.data() + cut, 5);
    parser.commitRead(5);
    wire::Frame last;
    ASSERT_EQ(parser.next(last, err), wire::FrameParser::Status::Ready);
    EXPECT_EQ(last, frames[2]);
    EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, TruncatedFrameNeedsMore)
{
    const std::vector<std::uint8_t> bytes =
        wire::serializeFrame(encodeFrameWithSpec("xor4+zdr"));
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{5}, std::size_t{15},
          bytes.size() - 1}) {
        wire::FrameParser parser;
        parser.feed(bytes.data(), keep);
        wire::Frame out;
        wire::WireError err;
        EXPECT_EQ(parser.next(out, err),
                  wire::FrameParser::Status::NeedMore)
            << "prefix of " << keep << " bytes";
        EXPECT_FALSE(parser.failed());
    }
}

TEST(FrameParser, ByteAtATimeDeliveryStillParses)
{
    const wire::Frame frame = encodeFrameWithSpec("dbi4");
    const std::vector<std::uint8_t> bytes = wire::serializeFrame(frame);
    wire::FrameParser parser;
    wire::Frame out;
    wire::WireError err;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        parser.feed(&bytes[i], 1);
        ASSERT_EQ(parser.next(out, err),
                  wire::FrameParser::Status::NeedMore);
    }
    parser.feed(&bytes.back(), 1);
    ASSERT_EQ(parser.next(out, err), wire::FrameParser::Status::Ready);
    EXPECT_EQ(out, frame);
}

TEST(FrameParser, BadMagicIsTyped)
{
    std::vector<std::uint8_t> bytes =
        wire::serializeFrame(pingFrame());
    bytes[0] ^= 0xff;
    EXPECT_EQ(parseExpectingError(bytes), wire::ErrorCode::BadMagic);
}

TEST(FrameParser, BadVersionIsTyped)
{
    // Version 2 is the traced-frame variant, so the first undefined
    // version is wireVersionTraced + 1.
    std::vector<std::uint8_t> bytes = wire::serializeFrame(pingFrame());
    bytes[4] = wire::wireVersionTraced + 1;
    EXPECT_EQ(parseExpectingError(bytes), wire::ErrorCode::BadVersion);
}

TEST(FrameParser, TraceContextRoundTrips)
{
    wire::Frame frame = encodeFrameWithSpec("xor4+zdr");
    frame.streamId = 7;
    frame.traceId = 0x1122334455667788ull;
    frame.spanId = 0x99aabbccddeeff00ull;
    frame.traceSampled = true;
    ASSERT_TRUE(frame.traced());

    // Traced frames serialize as version 2 with the 20-byte trace block
    // between the fixed header and the spec.
    const std::vector<std::uint8_t> bytes = wire::serializeFrame(frame);
    EXPECT_EQ(bytes[4], wire::wireVersionTraced);
    EXPECT_EQ(bytes[16], 0x88); // traceId low byte, little-endian.
    EXPECT_EQ(bytes[24], 0x00); // spanId low byte.
    EXPECT_EQ(bytes[32], 0x01); // flags: sampled bit.
    const std::vector<std::uint8_t> untraced =
        wire::serializeFrame(encodeFrameWithSpec("xor4+zdr"));
    EXPECT_EQ(bytes.size(), untraced.size() + wire::traceBlockBytes);

    wire::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    wire::Frame out;
    wire::WireError err;
    ASSERT_EQ(parser.next(out, err), wire::FrameParser::Status::Ready);
    EXPECT_EQ(out, frame);
    EXPECT_EQ(out.traceId, frame.traceId);
    EXPECT_EQ(out.spanId, frame.spanId);
    EXPECT_TRUE(out.traceSampled);

    // An unsampled trace context round-trips with the flag clear.
    frame.traceSampled = false;
    const std::vector<std::uint8_t> unsampled =
        wire::serializeFrame(frame);
    parser.feed(unsampled.data(), unsampled.size());
    ASSERT_EQ(parser.next(out, err), wire::FrameParser::Status::Ready);
    EXPECT_EQ(out, frame);
    EXPECT_FALSE(out.traceSampled);
}

TEST(FrameParser, TracedEncodeFrameBytesArePinned)
{
    // Every header field, the trace block and the CRC32 of one traced
    // Encode frame, byte for byte. The CRC (0xb2502272) is the standard
    // IEEE CRC-32 of the first 76 bytes, computed outside this code base
    // (zlib), so a CRC that is wrong the same way on both ends fails
    // here even though it would round-trip.
    const std::vector<std::uint8_t> pinned = {
        0x42, 0x58, 0x54, 0x50, 0x02, 0x02, 0x02, 0x01, // BXTP v2 Encode
        0x08, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, // spec/body len
        0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // traceId
        0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // spanId
        0x01, 0x00, 0x00, 0x00, 0x78, 0x6f, 0x72, 0x34, // flags, spec
        0x2b, 0x7a, 0x64, 0x72, 0x08, 0x00, 0x00, 0x00, // spec, txBytes
        0x20, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // busBits, count
        0x00, 0x00, 0x00, 0x00, 0x20, 0x21, 0x22, 0x23, // count, raw
        0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x2b, // raw
        0x2c, 0x2d, 0x2e, 0x2f, 0x72, 0x22, 0x50, 0xb2, // raw, CRC32
    };
    wire::Frame frame;
    frame.opcode = wire::Opcode::Encode;
    frame.streamId = 0x0102;
    frame.traceId = 0x0807060504030201ull;
    frame.spanId = 0x1112131415161718ull;
    frame.traceSampled = true;
    frame.spec = "xor4+zdr";
    writeBody(frame, [](wire::BodyWriter &body) {
        body.u32(8);
        body.u32(32);
        body.u64(2);
        for (std::uint8_t b = 0x20; b < 0x30; ++b)
            body.bytes(&b, 1);
    });

    EXPECT_EQ(wire::serializeFrame(frame), pinned);
    EXPECT_EQ(crc32({pinned.data(), pinned.size() - wire::crcBytes}),
              0xb2502272u);

    // appendFrame writes the same bytes after whatever the buffer holds.
    std::vector<std::uint8_t> out = {0xaa, 0xbb, 0xcc};
    wire::appendFrame(out, frame);
    ASSERT_EQ(out.size(), 3 + pinned.size());
    EXPECT_TRUE(std::equal(pinned.begin(), pinned.end(), out.begin() + 3));

    wire::FrameParser parser;
    parser.feed(pinned.data(), pinned.size());
    wire::Frame parsed;
    wire::WireError err;
    ASSERT_EQ(parser.next(parsed, err), wire::FrameParser::Status::Ready);
    EXPECT_EQ(parsed, frame);
}

TEST(FrameParser, UntracedFramesStayVersionOne)
{
    // Pre-trace clients must see byte-identical framing: an untraced
    // frame serializes as version 1 with no trace block.
    const std::vector<std::uint8_t> bytes =
        wire::serializeFrame(pingFrame());
    EXPECT_EQ(bytes[4], wire::wireVersion);
    EXPECT_EQ(bytes.size(),
              wire::headerBytes + sizeof(std::uint32_t)); // header + CRC
}

TEST(FrameParser, ReservedTraceFlagsAreMalformed)
{
    wire::Frame frame = pingFrame();
    frame.traceId = 42;
    frame.traceSampled = true;
    std::vector<std::uint8_t> bytes = wire::serializeFrame(frame);
    bytes[33] = 0x01; // Reserved flag bit 8.
    // Re-seal the CRC so the flags check (not BadCrc) fires.
    const std::uint32_t crc =
        crc32({bytes.data(), bytes.size() - sizeof(std::uint32_t)});
    storeWord32(bytes.data() + bytes.size() - sizeof(std::uint32_t), crc);
    EXPECT_EQ(parseExpectingError(bytes), wire::ErrorCode::Malformed);
}

TEST(FrameParser, ZeroTraceIdParsesAsUntraced)
{
    // traceId 0 means "no trace": the parser canonicalizes such a v2
    // frame so it re-serializes byte-identically as v1 (round-trip
    // idempotence for the fuzzer and for proxies).
    wire::Frame frame = pingFrame();
    frame.traceId = 1; // Force a v2 serialization...
    frame.traceSampled = true;
    std::vector<std::uint8_t> bytes = wire::serializeFrame(frame);
    for (std::size_t i = 0; i < 8; ++i)
        bytes[16 + i] = 0; // ...then zero the traceId on the wire.
    const std::uint32_t crc =
        crc32({bytes.data(), bytes.size() - sizeof(std::uint32_t)});
    storeWord32(bytes.data() + bytes.size() - sizeof(std::uint32_t), crc);

    wire::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    wire::Frame out;
    wire::WireError err;
    ASSERT_EQ(parser.next(out, err), wire::FrameParser::Status::Ready);
    EXPECT_FALSE(out.traced());
    EXPECT_EQ(out.spanId, 0u);
    EXPECT_FALSE(out.traceSampled);
    EXPECT_EQ(wire::serializeFrame(out),
              wire::serializeFrame(pingFrame()));
}

TEST(FrameParser, UnknownOpcodeIsTyped)
{
    std::vector<std::uint8_t> bytes = wire::serializeFrame(pingFrame());
    bytes[5] = 0x42; // Not a defined opcode.
    EXPECT_EQ(parseExpectingError(bytes), wire::ErrorCode::UnknownOpcode);
}

TEST(FrameParser, StreamIdRoundTrips)
{
    // The formerly-reserved header bytes now carry the stream tag; a
    // tagged frame must round-trip it and an untagged frame stays 0.
    wire::Frame frame = encodeFrameWithSpec("xor4+zdr");
    frame.streamId = 0xbeef;
    const std::vector<std::uint8_t> bytes = wire::serializeFrame(frame);
    EXPECT_EQ(bytes[6], 0xef);
    EXPECT_EQ(bytes[7], 0xbe);

    wire::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    wire::Frame out;
    wire::WireError err;
    ASSERT_EQ(parser.next(out, err), wire::FrameParser::Status::Ready);
    EXPECT_EQ(out.streamId, 0xbeef);
    EXPECT_EQ(out, frame);

    const std::vector<std::uint8_t> untagged =
        wire::serializeFrame(pingFrame());
    parser.feed(untagged.data(), untagged.size());
    ASSERT_EQ(parser.next(out, err), wire::FrameParser::Status::Ready);
    EXPECT_EQ(out.streamId, 0u);
}

TEST(FrameParser, OversizedSpecIsTyped)
{
    std::vector<std::uint8_t> bytes = wire::serializeFrame(pingFrame());
    storeLen(bytes, 8, wire::maxSpecLen + 1);
    EXPECT_EQ(parseExpectingError(bytes), wire::ErrorCode::FrameTooLarge);
}

TEST(FrameParser, OversizedBodyIsTyped)
{
    std::vector<std::uint8_t> bytes = wire::serializeFrame(pingFrame());
    storeLen(bytes, 12, wire::maxBodyLen + 1);
    EXPECT_EQ(parseExpectingError(bytes), wire::ErrorCode::FrameTooLarge);
}

TEST(FrameParser, RequestBoundCoversEveryCanonicalSpecAt64ByteTx)
{
    // The Decode bound gives 4096 rows the widest metadata any canonical
    // spec packs onto a 64-byte transaction, on either bus width the
    // service takes; the serving mix's pipeline counts too. A wider
    // pipeline fits fewer rows (EveryEncodeReplyFitsOneDecodeRequest).
    std::vector<std::string> specs = verify::canonicalSpecs();
    specs.emplace_back("universal3+zdr|dbi4");
    std::size_t widest = 0;
    for (const std::string &spec : specs) {
        for (const std::size_t bus_bits : {32u, 64u}) {
            std::string err;
            const CodecPtr codec = tryMakeCodec(spec, bus_bits / 8, err);
            ASSERT_TRUE(codec) << spec << ": " << err;
            const std::size_t meta_bits =
                64 * 8 / bus_bits * codec->metaWiresPerBeat();
            widest = std::max(widest, (meta_bits + 7) / 8);
        }
    }
    EXPECT_EQ(widest, wire::maxMetaBytesPerTx);
    EXPECT_EQ(wire::maxRequestBodyLen(wire::Opcode::Decode),
              24 + wire::maxTxPerRequest * (64 + widest));
    EXPECT_EQ(wire::maxRequestBodyLen(wire::Opcode::Encode),
              16 + wire::maxTxPerRequest * Transaction::maxBytes);
    for (const wire::Opcode op :
         {wire::Opcode::Ping, wire::Opcode::Stats, wire::Opcode::Snapshot,
          wire::Opcode::Error})
        EXPECT_EQ(wire::maxRequestBodyLen(op), 0u);
}

TEST(FrameParser, RequestBoundIsCheckedFromTheHeader)
{
    // A server's parser refuses a body over its opcode's bound from the
    // 16 header bytes alone; a client's accepts it up to maxBodyLen.
    for (const wire::Opcode op :
         {wire::Opcode::Ping, wire::Opcode::Encode, wire::Opcode::Decode}) {
        const std::size_t bound = wire::maxRequestBodyLen(op);
        for (const std::size_t body_len : {bound, bound + 1}) {
            wire::Frame frame;
            frame.opcode = op;
            std::vector<std::uint8_t> bytes = wire::serializeFrame(frame);
            bytes.resize(wire::headerBytes);
            storeLen(bytes, 12, static_cast<std::uint32_t>(body_len));
            wire::FrameParser server(wire::FrameParser::Bound::Request);
            wire::FrameParser client;
            server.feed(bytes.data(), bytes.size());
            client.feed(bytes.data(), bytes.size());
            wire::FrameView view;
            wire::WireError err;
            EXPECT_EQ(client.next(view, err),
                      wire::FrameParser::Status::NeedMore);
            if (body_len == bound) {
                EXPECT_EQ(server.next(view, err),
                          wire::FrameParser::Status::NeedMore);
                continue;
            }
            ASSERT_EQ(server.next(view, err), wire::FrameParser::Status::Bad);
            EXPECT_EQ(err.code, wire::ErrorCode::FrameTooLarge);
        }
    }
}

TEST(FrameParser, BadCrcIsTypedAndSticky)
{
    std::vector<std::uint8_t> bytes =
        wire::serializeFrame(encodeFrameWithSpec("baseline"));
    bytes[bytes.size() - 1] ^= 0x01;

    wire::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    wire::Frame out;
    wire::WireError err;
    ASSERT_EQ(parser.next(out, err), wire::FrameParser::Status::Bad);
    EXPECT_EQ(err.code, wire::ErrorCode::BadCrc);

    // Sticky: feeding a clean frame afterwards must not recover.
    const std::vector<std::uint8_t> clean =
        wire::serializeFrame(pingFrame());
    parser.feed(clean.data(), clean.size());
    EXPECT_EQ(parser.next(out, err), wire::FrameParser::Status::Bad);
    EXPECT_EQ(err.code, wire::ErrorCode::BadCrc);
}

TEST(FrameParser, SelfCheckingFuzzPasses)
{
    const wire::FrameFuzzReport report =
        wire::fuzzFrameParser(/*seed=*/7, /*iterations=*/3000);
    EXPECT_GT(report.framesParsed, 0u);
    EXPECT_GT(report.errorsTyped, 0u);
    for (const std::string &failure : report.failures)
        ADD_FAILURE() << failure;
}

TEST(ErrorFrames, RoundTripCodeAndMessage)
{
    // The Error frames the connection layer sends for a Busy rejection,
    // a drain and a bad-CRC parse error, pinned: untagged, untraced
    // version-1 frames with body `u32 code | message`.
    const struct
    {
        wire::ErrorCode code;
        std::string_view message;
        std::string_view hex;
    } cases[] = {
        {wire::ErrorCode::Busy, "shard connection limit; retry later",
         "42585450017f0000000000002700000008000000736861726420636f6e6e65"
         "6374696f6e206c696d69743b207265747279206c6174657237a0d81d"},
        {wire::ErrorCode::ShuttingDown, "server is draining",
         "42585450017f00000000000016000000090000007365727665722069732064"
         "7261696e696e677dc74fb6"},
        {wire::ErrorCode::BadCrc, "frame CRC32 mismatch",
         "42585450017f00000000000018000000030000006672616d65204352433332"
         "206d69736d617463683efdfe82"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(wire::errorCodeName(c.code));
        const std::vector<std::uint8_t> pinned = fromHex(c.hex);
        // Written after whatever the buffer already holds.
        const std::uint8_t held[] = {0xaa, 0xbb};
        ByteBuffer out;
        out.append(held, 2);
        wire::appendErrorFrame(out, c.code, c.message);
        ASSERT_EQ(out.size(), 2 + pinned.size());
        EXPECT_TRUE(out.data()[0] == 0xaa && out.data()[1] == 0xbb);
        EXPECT_TRUE(std::equal(pinned.begin(), pinned.end(),
                               out.data() + 2));

        wire::FrameParser parser;
        parser.feed(pinned.data(), pinned.size());
        wire::FrameView view;
        wire::WireError err;
        ASSERT_EQ(parser.next(view, err), wire::FrameParser::Status::Ready);
        wire::ErrorCode code = wire::ErrorCode::None;
        std::string message;
        ASSERT_TRUE(wire::parseErrorFrame(view, code, message));
        EXPECT_EQ(code, c.code);
        EXPECT_EQ(message, c.message);
    }
    EXPECT_EQ(wire::errorCodeName(wire::ErrorCode::Busy), "busy");

    // Not an Error frame, or an Error body too short for its code.
    wire::ErrorCode code = wire::ErrorCode::None;
    std::string message;
    EXPECT_FALSE(wire::parseErrorFrame(pingFrame().view(), code, message));
    wire::Frame short_error;
    short_error.opcode = wire::Opcode::Error;
    short_error.body = {8, 0, 0};
    EXPECT_FALSE(wire::parseErrorFrame(short_error.view(), code, message));
}

// ---------------------------------------------------------------------
// Client reply reader (socketpair)

/** A connected Unix stream pair: the client's end and the server's. */
struct SocketPair
{
    net::UniqueFd client;
    net::UniqueFd server;

    SocketPair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        client = net::UniqueFd(fds[0]);
        server = net::UniqueFd(fds[1]);
    }

    void send(const std::uint8_t *data, std::size_t n)
    {
        std::string err;
        EXPECT_TRUE(net::writeAll(server.get(), data, n, err)) << err;
    }
    void send(const std::vector<std::uint8_t> &bytes)
    {
        send(bytes.data(), bytes.size());
    }

    /** Bytes sent to the client that it has not read yet. */
    int unread() const
    {
        int n = 0;
        ::ioctl(client.get(), FIONREAD, &n);
        return n;
    }
};

TEST(ReplyReader, ReplySplitAtEveryByteBoundary)
{
    wire::Frame frame = encodeFrameWithSpec("xor4+zdr");
    frame.streamId = 3;
    frame.traceId = 0x77;
    frame.spanId = 0x55;
    const std::vector<std::uint8_t> bytes = wire::serializeFrame(frame);
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        SocketPair pair;
        // The rest goes out only once the reader has taken the first
        // part, so the reply arrives over at least two reads.
        std::thread writer([&] {
            pair.send(bytes.data(), cut);
            while (pair.unread() > 0)
                std::this_thread::yield();
            pair.send(bytes.data() + cut, bytes.size() - cut);
        });
        wire::FrameParser parser;
        wire::FrameView reply;
        wire::ErrorCode code = wire::ErrorCode::Internal;
        std::string err;
        const bool ok =
            client::readReply(pair.client.get(), parser, reply, code, err);
        writer.join();
        ASSERT_TRUE(ok) << err;
        EXPECT_EQ(code, wire::ErrorCode::None);
        wire::Frame got;
        got.assign(reply);
        EXPECT_EQ(got, frame);
    }
}

TEST(ReplyReader, TwoRepliesInOneRead)
{
    SocketPair pair;
    std::vector<std::uint8_t> bytes = wire::serializeFrame(pingFrame());
    wire::appendFrame(bytes, encodeFrameWithSpec("dbi4"));
    pair.send(bytes);
    ::shutdown(pair.server.get(), SHUT_WR);

    // The second reply is served from the first read's bytes; a third
    // call reads, and finds the peer gone.
    wire::FrameParser parser;
    wire::FrameView reply;
    wire::ErrorCode code = wire::ErrorCode::None;
    std::string err;
    ASSERT_TRUE(
        client::readReply(pair.client.get(), parser, reply, code, err))
        << err;
    EXPECT_EQ(reply.opcode, wire::Opcode::Ping);
    ASSERT_TRUE(
        client::readReply(pair.client.get(), parser, reply, code, err))
        << err;
    EXPECT_EQ(reply.opcode, wire::Opcode::Encode);
    EXPECT_EQ(reply.spec, "dbi4");
    EXPECT_FALSE(
        client::readReply(pair.client.get(), parser, reply, code, err));
    EXPECT_EQ(err, "server closed the connection");
    EXPECT_EQ(code, wire::ErrorCode::None);
}

TEST(ReplyReader, ErrorReplySetsCodeAndMessage)
{
    SocketPair pair;
    ByteBuffer bytes;
    wire::appendErrorFrame(bytes, wire::ErrorCode::Busy, "try later");
    pair.send(bytes.data(), bytes.size());
    wire::FrameParser parser;
    wire::FrameView reply;
    wire::ErrorCode code = wire::ErrorCode::None;
    std::string err;
    EXPECT_FALSE(
        client::readReply(pair.client.get(), parser, reply, code, err));
    EXPECT_EQ(code, wire::ErrorCode::Busy);
    EXPECT_EQ(err, "busy: try later");
}

TEST(ReplyReader, ShortErrorBodyIsMalformed)
{
    SocketPair pair;
    wire::Frame frame;
    frame.opcode = wire::Opcode::Error;
    frame.body = {8, 0, 0};
    pair.send(wire::serializeFrame(frame));
    wire::FrameParser parser;
    wire::FrameView reply;
    wire::ErrorCode code = wire::ErrorCode::None;
    std::string err;
    EXPECT_FALSE(
        client::readReply(pair.client.get(), parser, reply, code, err));
    EXPECT_EQ(code, wire::ErrorCode::None);
    EXPECT_EQ(err, "malformed error frame from server");
}

TEST(ReplyReader, CorruptReplyIsReported)
{
    SocketPair pair;
    std::vector<std::uint8_t> bytes = wire::serializeFrame(pingFrame());
    bytes.back() ^= 0x01;
    pair.send(bytes);
    wire::FrameParser parser;
    wire::FrameView reply;
    wire::ErrorCode code = wire::ErrorCode::None;
    std::string err;
    EXPECT_FALSE(
        client::readReply(pair.client.get(), parser, reply, code, err));
    EXPECT_EQ(code, wire::ErrorCode::None);
    EXPECT_EQ(err.rfind("response stream corrupt (bad-crc)", 0), 0u) << err;
}

// ---------------------------------------------------------------------
// Service dispatch (socket-free)

wire::ErrorCode
errorCodeOf(const wire::Frame &frame)
{
    wire::ErrorCode code = wire::ErrorCode::None;
    std::string message;
    EXPECT_TRUE(wire::parseErrorFrame(frame.view(), code, message))
        << "expected an Error frame";
    return code;
}

wire::Frame
makeEncodeRequest(const std::string &spec, std::uint32_t tx_bytes,
                  std::uint32_t bus_bits,
                  const std::vector<std::uint8_t> &raw)
{
    wire::Frame request;
    request.opcode = wire::Opcode::Encode;
    request.spec = spec;
    writeBody(request, [&](wire::BodyWriter &body) {
        body.u32(tx_bytes);
        body.u32(bus_bits);
        body.u64(raw.size() / tx_bytes);
        body.bytes(raw.data(), raw.size());
    });
    return request;
}

TEST(Service, PingEchoes)
{
    server::Service service;
    const wire::Frame reply = service.handle(pingFrame());
    EXPECT_EQ(reply.opcode, wire::Opcode::Ping);
    EXPECT_TRUE(reply.body.empty());
}

TEST(Service, ErrorOpcodeAsRequestIsMalformed)
{
    server::Service service;
    wire::Frame request;
    request.opcode = wire::Opcode::Error;
    writeBody(request, [](wire::BodyWriter &body) {
        body.u32(static_cast<std::uint32_t>(wire::ErrorCode::Internal));
    });
    EXPECT_EQ(errorCodeOf(service.handle(request)),
              wire::ErrorCode::Malformed);
}

TEST(Service, BadSpecIsTyped)
{
    server::Service service;
    const std::vector<std::uint8_t> raw(32, 0);
    const wire::Frame reply =
        service.handle(makeEncodeRequest("no-such-codec", 32, 32, raw));
    EXPECT_EQ(errorCodeOf(reply), wire::ErrorCode::BadSpec);
}

TEST(Service, BadGeometryIsMalformed)
{
    server::Service service;
    const std::vector<std::uint8_t> raw(24, 0);
    // 24 is not a power of two.
    wire::Frame reply =
        service.handle(makeEncodeRequest("baseline", 24, 32, raw));
    EXPECT_EQ(errorCodeOf(reply), wire::ErrorCode::Malformed);
    // 48-bit bus does not exist.
    reply = service.handle(
        makeEncodeRequest("baseline", 32, 48,
                          std::vector<std::uint8_t>(32, 0)));
    EXPECT_EQ(errorCodeOf(reply), wire::ErrorCode::Malformed);
}

TEST(Service, TruncatedEncodeBodyIsMalformed)
{
    server::Service service;
    wire::Frame request =
        makeEncodeRequest("baseline", 32, 32,
                          std::vector<std::uint8_t>(64, 0));
    request.body.pop_back(); // Body no longer matches the count field.
    EXPECT_EQ(errorCodeOf(service.handle(request)),
              wire::ErrorCode::Malformed);
}

TEST(Service, OversizedCountIsMalformed)
{
    server::Service service;
    wire::Frame request;
    request.opcode = wire::Opcode::Encode;
    request.spec = "baseline";
    writeBody(request, [](wire::BodyWriter &body) {
        body.u32(32);
        body.u32(32);
        body.u64(wire::maxTxPerRequest + 1);
    });
    EXPECT_EQ(errorCodeOf(service.handle(request)),
              wire::ErrorCode::Malformed);
}

TEST(Service, DecodeGeometryMismatchIsMalformed)
{
    server::Service service;
    // dbi1 on a 32-bit bus drives 4 metadata wires per beat; claim 1.
    wire::Frame request;
    request.opcode = wire::Opcode::Decode;
    request.spec = "dbi1";
    writeBody(request, [](wire::BodyWriter &body) {
        body.u32(32);
        body.u32(32);
        body.u32(1); // Wrong metaWiresPerBeat.
        body.u32(1);
        body.u64(1);
        const std::vector<std::uint8_t> payload(33, 0);
        body.bytes(payload.data(), payload.size());
    });
    EXPECT_EQ(errorCodeOf(service.handle(request)),
              wire::ErrorCode::Malformed);
}

TEST(Service, EncodeMatchesDirectCodecAndCachesIt)
{
    server::Service service;
    const std::string spec = "universal3+zdr";
    std::vector<std::uint8_t> raw(3 * 32);
    for (std::size_t i = 0; i < raw.size(); ++i)
        raw[i] = static_cast<std::uint8_t>(i * 37 + 11);

    const wire::Frame reply =
        service.handle(makeEncodeRequest(spec, 32, 32, raw));
    ASSERT_EQ(reply.opcode, wire::Opcode::Encode);
    EXPECT_EQ(service.cachedCodecs(), 1u);

    wire::BodyReader reader(reply.body.data(), reply.body.size());
    std::uint32_t tx_bytes = 0, bus_bits = 0, meta_wires = 0,
                  meta_bytes = 0;
    std::uint64_t count = 0, in_ones = 0, payload_ones = 0, meta_ones = 0;
    ASSERT_TRUE(reader.u32(tx_bytes));
    ASSERT_TRUE(reader.u32(bus_bits));
    ASSERT_TRUE(reader.u32(meta_wires));
    ASSERT_TRUE(reader.u32(meta_bytes));
    ASSERT_TRUE(reader.u64(count));
    ASSERT_TRUE(reader.u64(in_ones));
    ASSERT_TRUE(reader.u64(payload_ones));
    ASSERT_TRUE(reader.u64(meta_ones));
    ASSERT_EQ(count, 3u);
    ASSERT_EQ(reader.remaining(), count * (tx_bytes + meta_bytes));

    CodecPtr codec = makeCodec(spec, 4);
    std::uint64_t want_in = 0, want_payload = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        const Transaction tx(
            std::span<const std::uint8_t>(raw.data() + i * 32, 32));
        const Encoded enc = codec->encode(tx);
        want_in += tx.ones();
        want_payload += enc.payload.ones();
        std::vector<std::uint8_t> got(32);
        ASSERT_TRUE(reader.bytes(got.data(), got.size()));
        EXPECT_EQ(std::vector<std::uint8_t>(enc.payload.bytes().begin(),
                                            enc.payload.bytes().end()),
                  got)
            << "payload " << i << " differs from direct codec";
    }
    EXPECT_EQ(in_ones, want_in);
    EXPECT_EQ(payload_ones, want_payload);
    EXPECT_EQ(meta_ones, 0u);

    // Same spec again: the codec cache must not grow.
    service.handle(makeEncodeRequest(spec, 32, 32, raw));
    EXPECT_EQ(service.cachedCodecs(), 1u);
}

// Pinned reply frames: whole serialized Encode/Decode replies, byte for
// byte. They were produced by a Frame-only reply path that packed
// metadata one bit per step, so they pin that in-place replies and the
// dispatched bit-plane kernels change no wire byte. Each is checked
// through both handle forms: the Frame one, serialized, and the in-place
// one, written after bytes already in the output buffer.

constexpr std::string_view kDbi4EncodeReply =
    "4258545001020000040000009300000064626934200000002000000001000000"
    "010000000300000000000000cd01000000000000250100000000000015000000"
    "0000000000cfaa85600016f1cca7005d3813ee005b80a5ca00ebc6a17c00320d"
    "e8c30079542f0a00c09b76510007e2bd98004e2904df0095704b260023486d92"
    "0023fed9b4006a4520fb00b18c674200072c5176003f1af5d00086613c1700cd"
    "a8835e00efbff7e8712ccb";

constexpr std::string_view kDbi4DecodeReply =
    "4258545001030000040000006c00000064626934200000000300000000000000"
    "ff30557a9fffe90e3358ffa2c7ec11ff5b80a5caff14395e83ffcdf2173cff86"
    "abd0f5ff3f6489aefff81d4267ffb1d6fb20ff6a8fb4d9ff23486d92ffdc0126"
    "4bff95badf04ff4e7398bdff072c5176ffc0e50a2fff799ec3e8ff32577ca1ff"
    "be61f17e";

constexpr std::string_view kDbi4Tx8EncodeReply =
    "4258545001020000040000005d00000064626934080000002000000001000000"
    "010000000500000000000000bf000000000000007d0000000000000009000000"
    "0000000000cfaa85600016f1cca7005d3813ee005b80a5ca00ebc6a17c00320d"
    "e8c30079542f0a00c09b765103030203034da863d6";

constexpr std::string_view kDbi4Tx8DecodeReply =
    "4258545001030000040000003400000064626934080000000500000000000000"
    "ff30557a9fffe90e3358ffa2c7ec11ff5b80a5caff14395e83ffcdf2173cff86"
    "abd0f5ff3f6489ae96c05489";

constexpr std::string_view kAdaptiveEncodeReply =
    "425854500102070016000000b0000000756e6976657273616c332b7a64723b65"
    "706f63683d302000000020000000000000000000000004000000000000006402"
    "000000000000e4010000000000000000000000000000ff30557a60cfbc74cc68"
    "aad85813f8f1a4b0f0b060ebd050b0a73250d0d0ee79abd0f5ff94b47c515428"
    "e8bd589b387850f00a95b0d05051dcb070d09823b0f04bff95ba94fb6af43867"
    "2845d828ae38b43f70b0f0fb86d0b07042cd5050f089eb10355a14b4fcb4f8ef"
    "68d8586836f8d070b0a53050d0d0ec77f0505033be70764185a7";

/** The pinned requests' raw plane: every fifth byte 0xff, so DBI
 *  inverts some groups and not others. */
std::vector<std::uint8_t>
pinnedRaw(std::size_t n)
{
    std::vector<std::uint8_t> raw(n);
    for (std::size_t i = 0; i < n; ++i)
        raw[i] = i % 5 == 0 ? 0xff : static_cast<std::uint8_t>(i * 37 + 11);
    return raw;
}

/** The Decode request that reads an Encode reply back: its body without
 *  the three ones tallies. */
wire::Frame
decodeRequestFor(const wire::Frame &encode_reply)
{
    constexpr std::size_t kGeometry = 4 * 4 + 8;
    constexpr std::size_t kTallies = 3 * 8;
    wire::Frame request;
    request.opcode = wire::Opcode::Decode;
    request.streamId = encode_reply.streamId;
    request.spec = encode_reply.spec;
    request.body.assign(encode_reply.body.begin(),
                        encode_reply.body.begin() + kGeometry);
    request.body.insert(request.body.end(),
                        encode_reply.body.begin() + kGeometry + kTallies,
                        encode_reply.body.end());
    return request;
}

/**
 * Serve @p request through both handle forms, each on its own service,
 * expect the @p pinned frame from each, and return the parsed reply.
 */
wire::Frame
expectPinnedReply(server::Service &frame_service,
                  server::Service &wire_service, const wire::Frame &request,
                  std::string_view pinned_hex)
{
    const std::vector<std::uint8_t> pinned = fromHex(pinned_hex);
    const wire::Frame reply = frame_service.handle(request);
    EXPECT_EQ(wire::serializeFrame(reply), pinned);

    const std::uint8_t held[] = {0xaa, 0xbb};
    ByteBuffer out;
    out.append(held, 2);
    wire_service.handle(request.view(), out);
    EXPECT_EQ(out.size(), 2 + pinned.size());
    EXPECT_TRUE(out.size() == 2 + pinned.size() &&
                std::equal(pinned.begin(), pinned.end(), out.data() + 2))
        << "in-place reply differs from the pinned frame";
    return reply;
}

/** Encode pinnedRaw under @p spec, decode the reply, and check both
 *  replies against their pins and the decode against the raw plane. */
void
expectPinnedRoundTrip(const std::string &spec, std::uint32_t tx_bytes,
                      std::size_t count, std::string_view encode_hex,
                      std::string_view decode_hex)
{
    server::Service frame_service, wire_service;
    const std::vector<std::uint8_t> raw = pinnedRaw(count * tx_bytes);
    const wire::Frame encoded =
        expectPinnedReply(frame_service, wire_service,
                          makeEncodeRequest(spec, tx_bytes, 32, raw),
                          encode_hex);
    ASSERT_EQ(encoded.opcode, wire::Opcode::Encode);
    const wire::Frame decoded =
        expectPinnedReply(frame_service, wire_service,
                          decodeRequestFor(encoded), decode_hex);
    ASSERT_EQ(decoded.opcode, wire::Opcode::Decode);
    constexpr std::size_t kDecodeHeader = 4 + 8;
    ASSERT_EQ(decoded.body.size(), kDecodeHeader + raw.size());
    EXPECT_TRUE(std::equal(raw.begin(), raw.end(),
                           decoded.body.begin() + kDecodeHeader));
}

TEST(Service, Dbi4RepliesArePinned)
{
    // 32-byte transactions on a 32-bit bus: 8 beats of one DBI wire, so
    // each transaction's metadata is one whole packed byte.
    expectPinnedRoundTrip("dbi4", 32, 3, kDbi4EncodeReply,
                          kDbi4DecodeReply);
}

TEST(Service, PaddedMetadataRowRepliesArePinned)
{
    // 8-byte transactions: 2 metadata bits per transaction, so every
    // packed row carries 6 padding bits.
    expectPinnedRoundTrip("dbi4", 8, 5, kDbi4Tx8EncodeReply,
                          kDbi4Tx8DecodeReply);
}

TEST(Service, AdaptiveEncodeReplyIsPinned)
{
    // The reply's spec is the `<concrete>;epoch=N` announcement, which
    // the in-place form writes before the body.
    server::Service frame_service, wire_service;
    wire::Frame request =
        makeEncodeRequest("adaptive", 32, 32, pinnedRaw(4 * 32));
    request.streamId = 7;
    const wire::Frame reply = expectPinnedReply(
        frame_service, wire_service, request, kAdaptiveEncodeReply);
    EXPECT_EQ(reply.spec, "universal3+zdr;epoch=0");
    EXPECT_EQ(reply.streamId, 7u);
}

/**
 * Serve @p request in place after whatever @p out held (its stale bytes
 * stay behind the cleared size) and parse the one reply frame written.
 */
wire::Frame
serveInPlace(server::Service &service, ByteBuffer &out,
             const wire::Frame &request)
{
    out.clear();
    service.handle(request.view(), out);
    wire::FrameParser parser;
    parser.feed(out.data(), out.size());
    wire::Frame reply;
    wire::WireError err;
    EXPECT_EQ(parser.next(reply, err), wire::FrameParser::Status::Ready)
        << err.detail;
    EXPECT_EQ(parser.buffered(), 0u);
    return reply;
}

/** Expect @p reply to be what the codec @p spec on a @p bus_bits bus
 *  makes of @p raw, one transaction at a time: payloads, packed
 *  metadata rows and all three ones tallies. */
void
expectDirectEncode(const wire::Frame &reply, const std::string &spec,
                   std::uint32_t bus_bits,
                   const std::vector<std::uint8_t> &raw)
{
    ASSERT_EQ(reply.opcode, wire::Opcode::Encode) << spec;
    wire::BodyReader reader(reply.body.data(), reply.body.size());
    std::uint32_t tx_bytes = 0, bus = 0, meta_wires = 0, meta_bytes = 0;
    std::uint64_t count = 0, in_ones = 0, payload_ones = 0, meta_ones = 0;
    ASSERT_TRUE(reader.u32(tx_bytes) && reader.u32(bus) &&
                reader.u32(meta_wires) && reader.u32(meta_bytes) &&
                reader.u64(count) && reader.u64(in_ones) &&
                reader.u64(payload_ones) && reader.u64(meta_ones));
    ASSERT_EQ(bus, bus_bits);
    ASSERT_EQ(count * tx_bytes, raw.size());
    const std::uint8_t *payloads = nullptr;
    const std::uint8_t *metas = nullptr;
    ASSERT_TRUE(reader.view(payloads, raw.size()));
    ASSERT_TRUE(reader.view(metas, count * meta_bytes));
    ASSERT_EQ(reader.remaining(), 0u);

    CodecPtr codec = makeCodec(spec, bus_bits / 8);
    EXPECT_EQ(meta_wires, codec->metaWiresPerBeat()) << spec;
    std::uint64_t want_in = 0, want_payload = 0, want_meta = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const Transaction tx(std::span<const std::uint8_t>(
            raw.data() + i * tx_bytes, tx_bytes));
        const Encoded enc = codec->encode(tx);
        want_in += tx.ones();
        want_payload += enc.payload.ones();
        EXPECT_TRUE(std::equal(enc.payload.bytes().begin(),
                               enc.payload.bytes().end(),
                               payloads + i * tx_bytes))
            << spec << " payload " << i;
        std::vector<std::uint8_t> packed(meta_bytes, 0);
        for (std::size_t j = 0; j < enc.meta.size(); ++j) {
            packed[j / 8] |= static_cast<std::uint8_t>(enc.meta[j] << (j % 8));
            want_meta += enc.meta[j];
        }
        EXPECT_TRUE(std::equal(packed.begin(), packed.end(),
                               metas + i * meta_bytes))
            << spec << " metadata " << i;
    }
    EXPECT_EQ(in_ones, want_in) << spec;
    EXPECT_EQ(payload_ones, want_payload) << spec;
    EXPECT_EQ(meta_ones, want_meta) << spec;
}

TEST(Service, StreamMemoKeepsEveryReplyExact)
{
    // The memo is direct-mapped on the stream id's low bits: streams 5
    // and 69 share a slot, and so do the adaptive streams 7 and 71.
    // Streams 5 and 69 each cycle through three (spec, bus) keys, two of
    // them with the same geometry, so their slot's entry moves on every
    // request, and the slot changes hands between them. The out-buffer
    // starts full of 0xff, and replies are written over stale bytes, so
    // a byte the in-place path leaves unwritten would show.
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    server::Service service;
    ByteBuffer out;
    out.resize(std::size_t{1} << 16);
    std::memset(out.data(), 0xff, out.size());

    struct Key
    {
        const char *spec;
        std::uint32_t busBits;
    };
    const Key keys[] = {{"xor4+zdr", 32}, {"dbi4", 32}, {"xor4+zdr", 64}};
    const std::string adaptive_spec = "adaptive:xor2+zdr,baseline,w=8,p=8,h=0";
    // Each adaptive stream's replies must be those of a service that
    // serves that stream alone: one controller per stream. They count
    // into their own registry.
    telemetry::Registry alone_registry;
    server::Service alone7(&alone_registry), alone71(&alone_registry);
    Rng rng(0x3e30);
    wire::Frame last7, last71;
    for (std::uint32_t round = 0; round < 4; ++round) {
        for (std::uint32_t step = 0; step < 6; ++step) {
            const std::uint16_t stream = step < 3 ? 5 : 69;
            const Key &key = keys[(round + step) % 3];
            std::vector<std::uint8_t> raw(4 * 32);
            for (std::size_t i = 0; i < raw.size(); i += 4) {
                const std::uint32_t word =
                    rng.nextBounded(4) == 0
                        ? 0
                        : 0x3f800000u ^ static_cast<std::uint32_t>(
                                            rng.nextBounded(1024));
                storeWord32(raw.data() + i, word);
            }
            wire::Frame request =
                makeEncodeRequest(key.spec, 32, key.busBits, raw);
            request.streamId = stream;
            const wire::Frame reply = serveInPlace(service, out, request);
            EXPECT_EQ(reply.streamId, stream);
            expectDirectEncode(reply, key.spec, key.busBits, raw);

            const wire::Frame decoded =
                serveInPlace(service, out, decodeRequestFor(reply));
            constexpr std::size_t kDecodeHeader = 4 + 8;
            ASSERT_EQ(decoded.opcode, wire::Opcode::Decode) << key.spec;
            ASSERT_EQ(decoded.body.size(), kDecodeHeader + raw.size());
            EXPECT_TRUE(std::equal(raw.begin(), raw.end(),
                                   decoded.body.begin() + kDecodeHeader))
                << key.spec << " on stream " << stream;
        }
        // Stream 7 sends Base+XOR territory, stream 71 data only
        // baseline wins on, so a shared controller could not announce
        // both streams' choices.
        std::vector<std::uint8_t> same(16 * 32, 0xff);
        std::vector<std::uint8_t> flipping(16 * 32);
        for (std::size_t i = 0; i < flipping.size(); ++i)
            flipping[i] = (i / 2) % 2 == 0 ? 0x00 : 0xff;
        const auto adaptive_step = [&](std::uint16_t stream,
                                       const std::vector<std::uint8_t> &raw,
                                       server::Service &alone,
                                       wire::Frame &last) {
            wire::Frame request =
                makeEncodeRequest(adaptive_spec, 32, 32, raw);
            request.streamId = stream;
            last = serveInPlace(service, out, request);
            EXPECT_EQ(last, alone.handle(request))
                << "adaptive stream " << stream << ", round " << round;
        };
        for (int rep = 0; rep < 3; ++rep) {
            adaptive_step(7, same, alone7, last7);
            adaptive_step(71, flipping, alone71, last71);
        }
    }
    EXPECT_EQ(last7.spec.substr(0, last7.spec.find(';')), "xor2+zdr");
    EXPECT_EQ(last71.spec.substr(0, last71.spec.find(';')), "baseline");
    // Three concrete keys, shared by streams 5 and 69, plus one adaptive
    // entry per adaptive stream.
    EXPECT_EQ(service.cachedCodecs(), 5u);

    // Each stream's counters survived its slot changing hands.
    service.publish();
    for (const char *stream : {"5", "69"}) {
        EXPECT_EQ(telemetry::counter(std::string("bxt.server.stream.") +
                                     stream + ".requests")
                      .value(),
                  24u)
            << stream;
    }
    EXPECT_EQ(telemetry::counter("bxt.server.stream.71.tx_encoded").value(),
              12u * 16u);
    telemetry::setMetricsEnabled(false);
}

TEST(Service, StatsReturnsSnapshotJson)
{
    server::Service service;
    wire::Frame request;
    request.opcode = wire::Opcode::Stats;
    const wire::Frame reply = service.handle(request);
    ASSERT_EQ(reply.opcode, wire::Opcode::Stats);
    const std::string json(reply.body.begin(), reply.body.end());
    EXPECT_NE(json.find("\"schema\""), std::string::npos);
}

TEST(Service, TraceContextIsEchoedOnReplies)
{
    server::Service service;
    wire::Frame request = pingFrame();
    request.streamId = 7;
    request.traceId = 0x1234;
    request.spanId = 0x5678;
    request.traceSampled = true;
    const wire::Frame reply = service.handle(request);
    EXPECT_EQ(reply.opcode, wire::Opcode::Ping);
    EXPECT_EQ(reply.streamId, 7u);
    EXPECT_EQ(reply.traceId, 0x1234u);
    EXPECT_EQ(reply.spanId, 0x5678u);
    EXPECT_TRUE(reply.traceSampled);

    // Error replies carry the stream tag and context too, so a traced
    // client can stitch failures onto the same trace.
    wire::Frame bad = makeEncodeRequest("no-such-codec", 32, 32,
                                        std::vector<std::uint8_t>(32, 0));
    bad.streamId = 9;
    bad.traceId = 0x1234;
    bad.spanId = 0x9999;
    bad.traceSampled = true;
    const wire::Frame error = service.handle(bad);
    EXPECT_EQ(errorCodeOf(error), wire::ErrorCode::BadSpec);
    EXPECT_EQ(error.streamId, 9u);
    EXPECT_EQ(error.traceId, 0x1234u);
    EXPECT_EQ(error.spanId, 0x9999u);
    EXPECT_TRUE(error.traceSampled);

    // In place, the Error reply is a version-2 frame whose header and
    // trace block echo the request's, and it parses to the same fields.
    ByteBuffer out;
    service.handle(bad.view(), out);
    ASSERT_GT(out.size(), wire::headerBytes + wire::traceBlockBytes);
    EXPECT_EQ(out.data()[4], wire::wireVersionTraced);
    EXPECT_EQ(out.data()[6] | (out.data()[7] << 8), 9);
    EXPECT_EQ(loadWord64(out.data() + 16), 0x1234u);
    EXPECT_EQ(loadWord64(out.data() + 24), 0x9999u);
    EXPECT_EQ(loadWord32(out.data() + 32), wire::traceFlagSampled);
    wire::FrameParser parser;
    parser.feed(out.data(), out.size());
    wire::Frame parsed;
    wire::WireError err;
    ASSERT_EQ(parser.next(parsed, err), wire::FrameParser::Status::Ready);
    EXPECT_EQ(parser.buffered(), 0u);
    EXPECT_EQ(parsed, error);
}

TEST(Service, SnapshotReturnsUptimeAndMetrics)
{
    server::Service service;
    wire::Frame request;
    request.opcode = wire::Opcode::Snapshot;
    const wire::Frame reply = service.handle(request);
    ASSERT_EQ(reply.opcode, wire::Opcode::Snapshot);

    const std::string json(reply.body.begin(), reply.body.end());
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(json, doc, &err)) << err;
    const JsonValue *uptime = doc.find("uptime_us");
    ASSERT_NE(uptime, nullptr);
    EXPECT_GT(uptime->number, 0.0);
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->isObject());
    const JsonValue *schema = metrics->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->number, telemetry::snapshotSchema);
}

TEST(Service, RequestTxCountReadsBodyHeaders)
{
    const std::vector<std::uint8_t> raw(3 * 32, 0);
    EXPECT_EQ(server::requestTxCount(
                  makeEncodeRequest("baseline", 32, 32, raw).view()),
              3u);
    EXPECT_EQ(server::requestTxCount(pingFrame().view()), 0u);

    // An absurd count field is clamped (the span field is advisory; the
    // real bounds check rejects the request later).
    wire::Frame absurd;
    absurd.opcode = wire::Opcode::Encode;
    absurd.spec = "baseline";
    writeBody(absurd, [](wire::BodyWriter &body) {
        body.u32(32);
        body.u32(32);
        body.u64(~std::uint64_t{0});
    });
    EXPECT_EQ(server::requestTxCount(absurd.view()),
              wire::maxTxPerRequest);
}

TEST(Service, ValidateGeometryAcceptsAndRejects)
{
    EXPECT_TRUE(server::validateGeometry(32, 32).empty());
    EXPECT_TRUE(server::validateGeometry(64, 64).empty());
    EXPECT_TRUE(server::validateGeometry(8, 32).empty());
    EXPECT_FALSE(server::validateGeometry(24, 32).empty());
    EXPECT_FALSE(server::validateGeometry(128, 32).empty());
    EXPECT_FALSE(server::validateGeometry(32, 48).empty());
    EXPECT_FALSE(server::validateGeometry(4, 64).empty());
}

// ---------------------------------------------------------------------
// Loopback end-to-end

/** A live server on a background thread, torn down on destruction. */
class LiveServer
{
  public:
    explicit LiveServer(server::ServerOptions options)
        : server_(std::move(options))
    {
        std::string err;
        if (!server_.start(err)) {
            ADD_FAILURE() << "server start failed: " << err;
            return;
        }
        thread_ = std::thread([this] { server_.serve(); });
        started_ = true;
    }

    ~LiveServer() { stop(); }

    void stop()
    {
        if (started_) {
            server_.requestStop();
            thread_.join();
            started_ = false;
        }
    }

    bool started() const { return started_; }
    int tcpPort() const { return server_.tcpPort(); }
    const server::Server &server() const { return server_; }

  private:
    server::Server server_;
    std::thread thread_;
    bool started_ = false;
};

server::ServerOptions
ephemeralTcpOptions()
{
    server::ServerOptions options;
    options.tcpPort = 0; // Ephemeral.
    options.shards = 2;
    return options;
}

std::string
uniqueSocketPath(const char *tag)
{
    return std::filesystem::temp_directory_path() /
           ("bxt_test_" + std::string(tag) + "_" +
            std::to_string(::getpid()) + ".sock");
}

/** Golden file headers: (spec, wires, seed, count) per corpus file. */
struct GoldenHeader
{
    std::string spec;
    unsigned wires = 0;
    std::uint64_t seed = 0;
    std::size_t count = 0;
};

std::vector<GoldenHeader>
loadGoldenHeaders()
{
    std::vector<GoldenHeader> headers;
    for (const auto &entry :
         std::filesystem::directory_iterator(BXT_GOLDEN_DIR)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".txt" ||
            entry.path().filename() == "endpoints.txt") {
            continue;
        }
        std::ifstream in(entry.path());
        GoldenHeader header;
        std::string key;
        while (in >> key) {
            if (key == "#") {
                std::string rest;
                std::getline(in, rest);
            } else if (key == "spec") {
                in >> header.spec;
            } else if (key == "wires") {
                in >> header.wires;
            } else if (key == "seed") {
                std::string value;
                in >> value;
                header.seed = std::stoull(value, nullptr, 0);
            } else if (key == "count") {
                in >> header.count;
                break; // Header complete; vectors follow.
            } else {
                std::string rest;
                std::getline(in, rest);
            }
        }
        if (!header.spec.empty() && header.wires != 0 && header.count > 0)
            headers.push_back(std::move(header));
    }
    return headers;
}

/** Unpack LSB-first packed metadata back to 0/1 values. */
std::vector<std::uint8_t>
unpackMetaBits(const std::uint8_t *packed, std::size_t bit_count)
{
    std::vector<std::uint8_t> bits(bit_count);
    for (std::size_t j = 0; j < bit_count; ++j)
        bits[j] = (packed[j / 8] >> (j % 8)) & 1u;
    return bits;
}

/**
 * Round-trip every golden-corpus spec through a live client connection:
 * encoded payload and metadata must match generateGolden bit-for-bit,
 * and decode must recover the inputs exactly.
 */
void
roundtripGoldenCorpus(client::Client &client)
{
    const std::vector<GoldenHeader> headers = loadGoldenHeaders();
    ASSERT_GE(headers.size(), 17u) << "golden corpus went missing";

    for (const GoldenHeader &header : headers) {
        SCOPED_TRACE(header.spec + " w" + std::to_string(header.wires));
        const verify::GoldenFile golden = verify::generateGolden(
            header.spec, header.wires, header.seed, header.count);
        ASSERT_EQ(golden.vectors.size(), header.count);

        const std::uint32_t tx_bytes = header.wires; // By construction.
        std::vector<std::uint8_t> raw;
        raw.reserve(header.count * tx_bytes);
        for (const verify::GoldenVector &vec : golden.vectors) {
            const auto bytes = vec.input.bytes();
            ASSERT_EQ(bytes.size(), tx_bytes);
            raw.insert(raw.end(), bytes.begin(), bytes.end());
        }

        std::string err;
        client::EncodeResult enc;
        ASSERT_TRUE(client.encode(header.spec, tx_bytes, header.wires,
                                  raw, enc, err))
            << err;
        ASSERT_EQ(enc.count, header.count);
        ASSERT_EQ(enc.payloads.size(), raw.size());

        for (std::size_t i = 0; i < header.count; ++i) {
            const verify::GoldenVector &vec = golden.vectors[i];
            const auto want = vec.payload.bytes();
            ASSERT_EQ(std::memcmp(want.data(),
                                  enc.payloads.data() + i * tx_bytes,
                                  tx_bytes),
                      0)
                << "payload " << i << " differs from golden vector";
            const std::vector<std::uint8_t> got_meta = unpackMetaBits(
                enc.meta.data() + i * enc.metaBytesPerTx, vec.meta.size());
            ASSERT_EQ(got_meta, vec.meta)
                << "metadata " << i << " differs from golden vector";
        }

        client::DecodeResult dec;
        ASSERT_TRUE(client.decode(header.spec, enc, dec, err)) << err;
        ASSERT_EQ(dec.raw, raw)
            << "decode did not recover the original transactions";
    }
}

TEST(Loopback, GoldenCorpusRoundTripsOverTcp)
{
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;
    ASSERT_TRUE(client.ping(err)) << err;
    roundtripGoldenCorpus(client);
}

TEST(Loopback, GoldenCorpusRoundTripsOverUnixSocket)
{
    const std::string path = uniqueSocketPath("unix");
    server::ServerOptions options;
    options.unixPath = path;
    options.shards = 2;
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client client = client::Client::connectUnix(path, err);
    ASSERT_TRUE(client.connected()) << err;
    roundtripGoldenCorpus(client);
    live.stop();
    EXPECT_FALSE(std::filesystem::exists(path))
        << "server left its socket file behind";
}

TEST(Loopback, ServerErrorsAreTypedNotFatal)
{
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;

    // Bad spec is a typed failure on a healthy connection…
    client::EncodeResult enc;
    const std::vector<std::uint8_t> raw(32, 0xff);
    EXPECT_FALSE(client.encode("bogus-spec", 32, 32, raw, enc, err));
    EXPECT_EQ(client.lastErrorCode(), wire::ErrorCode::BadSpec);

    // …and the connection still works afterwards.
    EXPECT_TRUE(client.ping(err)) << err;
    EXPECT_TRUE(client.encode("baseline", 32, 32, raw, enc, err)) << err;
    EXPECT_EQ(enc.inputOnes, 256u);
}

/**
 * sendEncode/readEncode pipeline: a burst of Encodes written before any
 * reply is read comes back in order, each reply equal to the one a
 * one-at-a-time encode() of the same request gets on another connection.
 */
TEST(Loopback, PipelinedEncodesReplyInOrderLikeOneAtATime)
{
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client piped =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(piped.connected()) << err;
    client::Client serial =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(serial.connected()) << err;

    // Eight requests whose replies all differ: three specs, two widths,
    // growing batches, and zero bytes for zdr to find.
    struct Request
    {
        std::string spec;
        std::uint32_t wires;
        std::vector<std::uint8_t> raw;
    };
    const char *const specs[] = {"baseline", "xor4+zdr", "universal3+zdr"};
    std::vector<Request> requests;
    Rng rng(34);
    for (std::size_t i = 0; i < 8; ++i) {
        Request req{specs[i % 3], i % 2 == 0 ? 32u : 64u, {}};
        req.raw.resize((i + 1) * 16 * req.wires);
        for (std::uint8_t &byte : req.raw)
            byte = rng.nextBounded(4) == 0
                       ? 0
                       : static_cast<std::uint8_t>(rng.nextBounded(256));
        requests.push_back(std::move(req));
    }

    for (const Request &req : requests)
        ASSERT_TRUE(piped.sendEncode(req.spec, req.wires, req.wires,
                                     req.raw, err))
            << err;
    for (const Request &req : requests) {
        SCOPED_TRACE(req.spec + " x" + std::to_string(req.raw.size()));
        client::EncodeResult got;
        client::EncodeResult want;
        ASSERT_TRUE(piped.readEncode(got, err)) << err;
        ASSERT_TRUE(serial.encode(req.spec, req.wires, req.wires, req.raw,
                                  want, err))
            << err;
        EXPECT_EQ(got.count, req.raw.size() / req.wires);
        EXPECT_TRUE(got == want);
    }
}

TEST(Loopback, StatsOpcodeServesLiveTelemetry)
{
    telemetry::setMetricsEnabled(true);
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;

    client::EncodeResult enc;
    const std::vector<std::uint8_t> raw(64, 0x0f);
    ASSERT_TRUE(client.encode("xor4+zdr", 32, 32, raw, enc, err)) << err;

    std::string json;
    ASSERT_TRUE(client.stats(json, err)) << err;
    EXPECT_NE(json.find("bxt.server.requests"), std::string::npos);
    EXPECT_NE(json.find("bxt.server.xor4-zdr.ones_in"), std::string::npos);
    telemetry::setMetricsEnabled(false);
}

TEST(Loopback, SnapshotOpcodeServesLiveTelemetryDocument)
{
    telemetry::setMetricsEnabled(true);
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;

    client::EncodeResult enc;
    const std::vector<std::uint8_t> raw(64, 0x0f);
    ASSERT_TRUE(client.encode("baseline", 32, 32, raw, enc, err)) << err;

    std::string json;
    ASSERT_TRUE(client.snapshot(json, err)) << err;
    JsonValue doc;
    ASSERT_TRUE(parseJson(json, doc, &err)) << err;
    ASSERT_NE(doc.find("uptime_us"), nullptr);
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->isObject());
    const JsonValue *counters = metrics->find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("bxt.server.requests"), nullptr);
    telemetry::setMetricsEnabled(false);
}

TEST(Loopback, TracedRequestSpansTelescopeExactly)
{
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    telemetry::clearSpans();
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;

    // An untraced request records no spans…
    client::EncodeResult enc;
    const std::vector<std::uint8_t> raw(4 * 32, 0xa5);
    ASSERT_TRUE(client.encode("xor4+zdr", 32, 32, raw, enc, err)) << err;
    EXPECT_TRUE(telemetry::collectSpans().empty());

    // …a traced one records all five lifecycle phases. The server stamps
    // the spans just after the reply write, so poll briefly: the client
    // can hold the response before the worker reaches the record loop.
    const std::uint64_t trace_id = 0x0102030405060708ull;
    client.setTrace(trace_id, /*span_id=*/77, /*sampled=*/true);
    ASSERT_TRUE(client.encode("xor4+zdr", 32, 32, raw, enc, err)) << err;
    client.clearTrace();

    std::map<telemetry::SpanName, telemetry::ServerSpan> by_phase;
    for (int attempt = 0; attempt < 500 && by_phase.size() < 5;
         ++attempt) {
        for (const telemetry::ServerSpan &span :
             telemetry::collectSpans()) {
            if (span.traceId != trace_id)
                continue;
            EXPECT_EQ(by_phase.count(span.name), 0u)
                << "duplicate phase "
                << telemetry::spanLabel(span.name).name;
            by_phase[span.name] = span;
        }
        if (by_phase.size() < 5)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(by_phase.size(), 5u)
        << "expected request/parse/queue_wait/codec/reply spans";

    const telemetry::ServerSpan &request =
        by_phase.at(telemetry::SpanName::Request);
    EXPECT_EQ(request.spanId, 77u);
    EXPECT_EQ(request.opcode,
              static_cast<std::uint8_t>(wire::Opcode::Encode));
    EXPECT_EQ(request.txCount, 4u);

    // The four phase spans nest inside the request span and their
    // durations telescope to it exactly — same clock reads on both sides
    // of every boundary, so the identity holds with zero tolerance.
    std::uint64_t phase_sum = 0;
    for (const auto &[phase, span] : by_phase) {
        if (phase == telemetry::SpanName::Request)
            continue;
        EXPECT_GE(span.startUs, request.startUs);
        EXPECT_LE(span.startUs + span.durUs,
                  request.startUs + request.durUs);
        phase_sum += span.durUs;
    }
    EXPECT_EQ(phase_sum, request.durUs);
    EXPECT_GE(telemetry::spansRecorded(), 5u);
    EXPECT_EQ(telemetry::droppedSpans(), 0u);

    // A second traced request feeds the Chrome-trace export.
    // Wait for its five spans to be pushed (pushes are counted at
    // record time, independent of collection).
    client.setTrace(trace_id + 1, /*span_id=*/78, /*sampled=*/true);
    ASSERT_TRUE(client.encode("xor4+zdr", 32, 32, raw, enc, err)) << err;
    client.clearTrace();
    for (int attempt = 0;
         attempt < 500 && telemetry::spansRecorded() < 10;
         ++attempt)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("bxt_spans_" + std::to_string(::getpid()) + ".json"))
            .string();
    telemetry::setTraceEnabled(true);
    const bool written = telemetry::writeTrace(path);
    telemetry::setTraceEnabled(false);
    ASSERT_TRUE(written);
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string trace = buffer.str();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"queue_wait\""), std::string::npos);
    EXPECT_NE(trace.find("0102030405060709"), std::string::npos);
    EXPECT_NE(trace.find("\"droppedSpans\""), std::string::npos);
    std::filesystem::remove(path);
    telemetry::setMetricsEnabled(false);
}

TEST(Loopback, OneWriteOfFramesCountsEveryRequestAndSpansOnlySampled)
{
    // Six untraced Encodes with a sampled traced one in fourth place,
    // then a frame with a broken CRC, all in one write: the shard
    // answers them as one batch, records request_us once per request
    // (eight samples), and records phase spans for the traced request
    // only, with the same exact telescoping as a request served alone.
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    telemetry::clearSpans();
    server::ServerOptions options = ephemeralTcpOptions();
    options.shards = 1;
    LiveServer live(options);
    ASSERT_TRUE(live.started());
    const auto request_us_total = [&live]() -> std::uint64_t {
        JsonValue doc;
        std::string err;
        EXPECT_TRUE(parseJson(live.server().mergedSnapshotJson(), doc, &err))
            << err;
        const JsonValue *histos = doc.find("histograms");
        const JsonValue *histo =
            histos != nullptr ? histos->find("bxt.server.request_us")
                              : nullptr;
        const JsonValue *total =
            histo != nullptr ? histo->find("total") : nullptr;
        return total != nullptr ? static_cast<std::uint64_t>(total->number)
                                : 0;
    };
    const std::uint64_t before = request_us_total();

    constexpr std::uint64_t kTraceId = 0x0b47c4000000000dull;
    const std::vector<std::uint8_t> raw(4 * 32, 0x5a);
    std::vector<std::uint8_t> burst;
    for (int i = 0; i < 7; ++i) {
        wire::Frame frame = makeEncodeRequest("xor4+zdr", 32, 32, raw);
        if (i == 3) {
            frame.traceId = kTraceId;
            frame.spanId = 33;
            frame.traceSampled = true;
        }
        wire::appendFrame(burst, frame);
    }
    std::vector<std::uint8_t> bad = wire::serializeFrame(pingFrame());
    bad.back() ^= 0x01;
    burst.insert(burst.end(), bad.begin(), bad.end());

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;
    const int fd = client.rawFd();
    ASSERT_TRUE(net::writeAll(fd, burst.data(), burst.size(), err)) << err;

    wire::FrameParser parser;
    wire::FrameView reply;
    wire::ErrorCode code = wire::ErrorCode::None;
    for (int i = 0; i < 7; ++i) {
        ASSERT_TRUE(client::readReply(fd, parser, reply, code, err))
            << "reply " << i << ": " << err;
        EXPECT_EQ(reply.opcode, wire::Opcode::Encode);
        EXPECT_EQ(reply.traceId, i == 3 ? kTraceId : 0u);
    }
    EXPECT_FALSE(client::readReply(fd, parser, reply, code, err));
    EXPECT_EQ(code, wire::ErrorCode::BadCrc);
    // The shard closes the connection after it has recorded the batch,
    // so at EOF the samples and spans are all in.
    pollfd pfd{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
    std::uint8_t byte = 0;
    EXPECT_EQ(::read(fd, &byte, 1), 0);

    EXPECT_EQ(request_us_total() - before, 8u);

    const std::vector<telemetry::ServerSpan> spans =
        telemetry::collectSpans();
    std::map<telemetry::SpanName, telemetry::ServerSpan> by_phase;
    for (const telemetry::ServerSpan &span : spans) {
        EXPECT_EQ(span.traceId, kTraceId) << "an unsampled request left a span";
        EXPECT_EQ(by_phase.count(span.name), 0u)
            << "duplicate phase " << telemetry::spanLabel(span.name).name;
        by_phase[span.name] = span;
    }
    ASSERT_EQ(spans.size(), 5u);
    ASSERT_EQ(by_phase.size(), 5u);
    const telemetry::ServerSpan &request =
        by_phase.at(telemetry::SpanName::Request);
    EXPECT_EQ(request.spanId, 33u);
    EXPECT_EQ(request.txCount, 4u);
    // Each phase starts where the one before it ends, and the last ends
    // where the request does: zero tolerance.
    std::uint64_t at = request.startUs;
    for (const telemetry::SpanName phase :
         {telemetry::SpanName::QueueWait, telemetry::SpanName::Parse,
          telemetry::SpanName::Codec, telemetry::SpanName::Reply}) {
        const telemetry::ServerSpan &span = by_phase.at(phase);
        EXPECT_EQ(span.startUs, at) << telemetry::spanLabel(phase).name;
        at = span.startUs + span.durUs;
    }
    EXPECT_EQ(at, request.startUs + request.durUs);
    telemetry::setMetricsEnabled(false);
}

TEST(Loopback, FullAcceptQueueAnswersBusy)
{
    server::ServerOptions options = ephemeralTcpOptions();
    options.maxPending = 0; // Every accept is immediately rejected.
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;
    EXPECT_FALSE(client.ping(err));
    EXPECT_EQ(client.lastErrorCode(), wire::ErrorCode::Busy);
}

TEST(Loopback, BusyRejectionWithMetricsOnIsCountedAndTimed)
{
    // One shard already holding maxPending = 1 connection turns the next
    // peer away with a Busy frame and EOF; with metrics on the rejection
    // is counted in rejected_busy and timed as a request_us sample.
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    server::ServerOptions options = ephemeralTcpOptions();
    options.shards = 1;
    options.maxPending = 1;
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    // (rejected_busy, request_us sample count) from one Stats reply.
    const auto busy_and_samples =
        [](client::Client &peer) -> std::pair<std::uint64_t, std::uint64_t> {
        std::string json, err;
        EXPECT_TRUE(peer.stats(json, err)) << err;
        JsonValue doc;
        EXPECT_TRUE(parseJson(json, doc, &err)) << err;
        const JsonValue *counters = doc.find("counters");
        const JsonValue *busy =
            counters != nullptr ? counters->find("bxt.server.rejected_busy")
                                : nullptr;
        const JsonValue *histos = doc.find("histograms");
        const JsonValue *histo =
            histos != nullptr ? histos->find("bxt.server.request_us")
                              : nullptr;
        const JsonValue *total =
            histo != nullptr ? histo->find("total") : nullptr;
        return {busy != nullptr ? static_cast<std::uint64_t>(busy->number)
                                : 0,
                total != nullptr ? static_cast<std::uint64_t>(total->number)
                                 : 0};
    };

    std::string err;
    client::Client a =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(a.connected()) << err;
    ASSERT_TRUE(a.ping(err)) << err;
    const auto [busy_before, samples_before] = busy_and_samples(a);
    EXPECT_EQ(busy_before, 0u);

    client::Client b =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(b.connected()) << err;
    const int fd = b.rawFd();
    wire::FrameParser parser;
    wire::FrameView reply;
    wire::ErrorCode code = wire::ErrorCode::None;
    EXPECT_FALSE(client::readReply(fd, parser, reply, code, err));
    EXPECT_EQ(code, wire::ErrorCode::Busy);
    pollfd pfd{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
    std::uint8_t byte = 0;
    EXPECT_EQ(::read(fd, &byte, 1), 0);

    // The shard thread serves A and turned B away in turn, so this Stats
    // sees the rejection. Two samples were added since the first Stats:
    // that Stats request itself and B's rejection.
    const auto [busy_after, samples_after] = busy_and_samples(a);
    EXPECT_EQ(busy_after, 1u);
    EXPECT_EQ(samples_after - samples_before, 2u);
    telemetry::setMetricsEnabled(false);
}

// ---------------------------------------------------------------------
// Scenario traffic end-to-end

/** Fetch the server's counters as a name -> value map. */
std::map<std::string, std::uint64_t>
fetchCounters(client::Client &client)
{
    std::map<std::string, std::uint64_t> counters;
    std::string json, err;
    EXPECT_TRUE(client.stats(json, err)) << err;
    JsonValue doc;
    EXPECT_TRUE(parseJson(json, doc, &err)) << err;
    const JsonValue *object = doc.find("counters");
    if (object == nullptr || !object->isObject())
        return counters;
    for (const auto &[name, value] : object->object)
        counters[name] = static_cast<std::uint64_t>(value.number);
    return counters;
}

/** Local per-tenant accumulation to check the server's books against. */
struct TenantLedger
{
    std::uint64_t requests = 0;
    std::uint64_t txs = 0;
    std::uint64_t onesIn = 0;
    std::uint64_t onesOut = 0;
};

std::string
streamCounterName(std::uint32_t tenant, const char *leaf)
{
    return "bxt.server.stream." + std::to_string(tenant + 1) + "." + leaf;
}

/**
 * Replay @p requests of a scenario preset through @p client, tagging
 * each request with its tenant's stream id, and return the per-tenant
 * ledger. Fails the test on any protocol error.
 */
std::vector<TenantLedger>
replayScenario(const std::string &name, std::uint32_t requests,
               client::Client &client)
{
    scenario::Config config;
    std::string err;
    EXPECT_TRUE(scenario::load(name, config, err)) << err;
    config.requests = requests;
    scenario::Engine engine(config, /*seed=*/0x5ce0);

    std::vector<TenantLedger> ledger(config.tenants);
    scenario::Request request;
    while (engine.next(request)) {
        client.setStreamId(static_cast<std::uint16_t>(request.tenant + 1));
        client::EncodeResult enc;
        EXPECT_TRUE(client.encode(request.spec, request.txBytes,
                                  request.busBits, request.payload, enc,
                                  err))
            << name << " request " << request.index << ": " << err;
        TenantLedger &slot = ledger[request.tenant];
        slot.requests += 1;
        slot.txs += enc.count;
        slot.onesIn += enc.inputOnes;
        slot.onesOut += enc.payloadOnes + enc.metaOnes;
    }
    client.setStreamId(0);
    return ledger;
}

TEST(Loopback, ScenarioPerStreamStatsTelescopeToAggregate)
{
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;

    const std::vector<TenantLedger> ledger =
        replayScenario("zipf-0.99", /*requests=*/96, client);
    const std::map<std::string, std::uint64_t> counters =
        fetchCounters(client);
    telemetry::setMetricsEnabled(false);

    // Every tenant's server-side stream counters must match the client's
    // own ledger exactly…
    std::uint64_t stream_req = 0, stream_tx = 0, stream_in = 0,
                  stream_out = 0;
    for (std::uint32_t t = 0; t < ledger.size(); ++t) {
        const TenantLedger &want = ledger[t];
        const auto counter = [&](const char *leaf) {
            const auto it = counters.find(streamCounterName(t, leaf));
            return it == counters.end() ? std::uint64_t{0} : it->second;
        };
        EXPECT_EQ(counter("requests"), want.requests) << "tenant " << t;
        EXPECT_EQ(counter("tx_encoded"), want.txs) << "tenant " << t;
        EXPECT_EQ(counter("ones_in"), want.onesIn) << "tenant " << t;
        EXPECT_EQ(counter("ones_out"), want.onesOut) << "tenant " << t;
        stream_req += counter("requests");
        stream_tx += counter("tx_encoded");
        stream_in += counter("ones_in");
        stream_out += counter("ones_out");
    }

    // …and telescope to the untagged aggregates (the Stats fetch itself
    // was untagged, so it appears only in the aggregate request count).
    ASSERT_NE(counters.find("bxt.server.tx_encoded"), counters.end());
    EXPECT_EQ(stream_tx, counters.at("bxt.server.tx_encoded"));
    EXPECT_EQ(stream_req + 1, counters.at("bxt.server.requests"));
    std::uint64_t spec_in = 0, spec_out = 0;
    for (const auto &[name, value] : counters) {
        // Per-spec server counters only — not the per-stream copies and
        // not the bxt.codec.* per-stage flow counters.
        if (name.rfind("bxt.server.", 0) != 0 ||
            name.find(".stream.") != std::string::npos)
            continue;
        if (name.size() > 8 &&
            name.compare(name.size() - 8, 8, ".ones_in") == 0)
            spec_in += value;
        if (name.size() > 9 &&
            name.compare(name.size() - 9, 9, ".ones_out") == 0)
            spec_out += value;
    }
    EXPECT_EQ(stream_in, spec_in);
    EXPECT_EQ(stream_out, spec_out);
    EXPECT_EQ(counters.at("bxt.server.errors"), 0u);
}

TEST(Loopback, ScenarioHotFloodBackpressureStaysClean)
{
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());

    // Three connections replay hot-flood shares concurrently against the
    // 2-thread server, so requests queue behind the worker pool; every
    // frame must still complete without a protocol error.
    constexpr std::uint32_t kRequests = 32;
    constexpr std::size_t kConns = 3;
    std::vector<std::vector<TenantLedger>> ledgers(kConns);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConns; ++c) {
        threads.emplace_back([&, c] {
            std::string err;
            client::Client client = client::Client::connectTcp(
                "127.0.0.1", live.tcpPort(), err);
            ASSERT_TRUE(client.connected()) << err;
            ledgers[c] = replayScenario("hot-flood", kRequests, client);
        });
    }
    for (std::thread &t : threads)
        t.join();

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;
    const std::map<std::string, std::uint64_t> counters =
        fetchCounters(client);
    telemetry::setMetricsEnabled(false);

    std::uint64_t want_req = 0, want_tx = 0, hot_req = 0;
    for (const std::vector<TenantLedger> &ledger : ledgers) {
        ASSERT_FALSE(ledger.empty());
        hot_req += ledger[0].requests;
        for (const TenantLedger &slot : ledger) {
            want_req += slot.requests;
            want_tx += slot.txs;
        }
    }
    EXPECT_EQ(want_req, kRequests * kConns);

    std::uint64_t stream_req = 0, stream_tx = 0;
    for (const auto &[name, value] : counters) {
        if (name.find(".stream.") == std::string::npos)
            continue;
        if (name.size() > 9 &&
            name.compare(name.size() - 9, 9, ".requests") == 0)
            stream_req += value;
        if (name.size() > 11 &&
            name.compare(name.size() - 11, 11, ".tx_encoded") == 0)
            stream_tx += value;
    }
    EXPECT_EQ(stream_req, want_req);
    EXPECT_EQ(stream_tx, want_tx);
    EXPECT_EQ(counters.at("bxt.server.errors"), 0u);

    // The flood really is a flood: tenant 0 (stream 1) dominates.
    EXPECT_GT(static_cast<double>(hot_req),
              0.8 * static_cast<double>(want_req));
    EXPECT_EQ(counters.at(streamCounterName(0, "requests")), hot_req);
}

TEST(Loopback, PeerThatNeverReadsIsBoundedByOutBufferHighWaterMark)
{
    server::ServerOptions options;
    options.unixPath = uniqueSocketPath("hwm");
    options.shards = 1;
    LiveServer live(options);
    ASSERT_TRUE(live.started());
    std::string err;
    net::UniqueFd fd = net::connectUnix(options.unixPath, err);
    ASSERT_TRUE(fd.valid()) << err;
    ASSERT_TRUE(net::setNonBlocking(fd.get(), err)) << err;

    // Pipelined 64-transaction Encodes, each tagged with its sequence
    // number (mod 251) as streamId so replies can be matched in order.
    Rng rng(5);
    std::vector<std::uint8_t> raw(64 * 32);
    for (std::uint8_t &b : raw)
        b = static_cast<std::uint8_t>(rng.nextBounded(256));
    wire::Frame request = makeEncodeRequest("xor4+zdr", 32, 32, raw);
    const auto tagOf = [](std::size_t seq) {
        return static_cast<std::uint16_t>(1 + seq % 251);
    };
    std::vector<std::uint8_t> frame_bytes;
    std::size_t frame_pos = 0;
    std::size_t sent_frames = 0; ///< Frames written in full.
    std::size_t written = 0;
    // Write until the socket stops taking bytes or @p limit is reached.
    const auto writeUntilFull = [&](std::size_t limit) {
        while (written < limit) {
            if (frame_pos == frame_bytes.size()) {
                request.streamId = tagOf(sent_frames);
                frame_bytes = wire::serializeFrame(request);
                frame_pos = 0;
            }
            bool would_block = false;
            const long n = net::tryWrite(
                fd.get(), frame_bytes.data() + frame_pos,
                frame_bytes.size() - frame_pos, would_block, err);
            if (n < 0)
                return false;
            frame_pos += static_cast<std::size_t>(n);
            written += static_cast<std::size_t>(n);
            if (frame_pos == frame_bytes.size())
                ++sent_frames;
            if (would_block)
                break;
        }
        return true;
    };
    wire::FrameParser parser;
    std::size_t replies = 0;
    std::size_t wrong = 0;
    std::vector<std::uint8_t> buf(64 * 1024);
    // Read once (at most @p max bytes); false on EOF, error or a stall.
    const auto readSome = [&](std::size_t max) {
        pollfd pfd{fd.get(), POLLIN, 0};
        if (::poll(&pfd, 1, 10000) != 1)
            return false;
        bool would_block = false;
        const long n = net::tryRead(fd.get(), buf.data(),
                                    std::min(max, buf.size()), would_block,
                                    err);
        if (would_block)
            return true;
        if (n <= 0)
            return false;
        parser.feed(buf.data(), static_cast<std::size_t>(n));
        wire::Frame reply;
        wire::WireError wire_err;
        while (parser.next(reply, wire_err) ==
               wire::FrameParser::Status::Ready) {
            if (reply.opcode != wire::Opcode::Encode ||
                reply.streamId != tagOf(replies))
                ++wrong;
            ++replies;
        }
        return !parser.failed();
    };

    // Write without reading until the writes block. The server stops
    // reading at its out-buffer high-water mark, so what the peer can
    // push is the mark (in replies, about as large as their requests)
    // plus one read and the socket buffers: well under the budget.
    // Without the mark the server reads on and buffers every reply, and
    // the writes never block.
    constexpr std::size_t kBudget = std::size_t{8} << 20;
    constexpr std::size_t kGiveUp = std::size_t{32} << 20;
    bool blocked = false;
    while (written < kGiveUp) {
        ASSERT_TRUE(writeUntilFull(kGiveUp)) << err;
        pollfd pfd{fd.get(), POLLOUT, 0};
        if (::poll(&pfd, 1, 500) == 0) {
            blocked = true;
            break;
        }
    }
    EXPECT_TRUE(blocked) << written << " bytes written without blocking";
    EXPECT_LE(written, kBudget);

    // Read slower than the server answers while keeping the pipeline
    // full, so its out-buffer stays near the mark and never drains while
    // it sends several times the mark from it.
    const std::size_t slow_until = written + (std::size_t{16} << 20);
    while (written < slow_until) {
        ASSERT_TRUE(readSome(16 * 1024)) << "reply stream stalled " << err;
        ASSERT_TRUE(writeUntilFull(slow_until)) << err;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }

    // Half-close (a partly written last frame never completes), then
    // read: every complete request is answered exactly once, in order.
    ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);
    while (readSome(buf.size())) {
    }
    EXPECT_EQ(replies, sent_frames);
    EXPECT_EQ(wrong, 0u);
    EXPECT_FALSE(parser.failed());
    EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Loopback, GracefulDrainClosesIdleConnections)
{
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;
    ASSERT_TRUE(client.ping(err)) << err;

    // stop() returns only after serve() drained: the held connection
    // must not block shutdown.
    live.stop();
    EXPECT_FALSE(client.ping(err));
}

/**
 * Pipeline @p encodes baseline Encodes of @p tx_count 64-byte
 * transactions on @p fd, tagged 1, 2, ... as streamId, with blocking
 * writes; read nothing.
 */
void
pipelineEncodes(int fd, std::size_t encodes, std::size_t tx_count)
{
    std::string err;
    Rng rng(11);
    std::vector<std::uint8_t> raw(tx_count * 64);
    for (std::uint8_t &b : raw)
        b = static_cast<std::uint8_t>(rng.nextBounded(256));
    wire::Frame request = makeEncodeRequest("baseline", 64, 32, raw);
    for (std::size_t i = 0; i < encodes; ++i) {
        request.streamId = static_cast<std::uint16_t>(i + 1);
        const std::vector<std::uint8_t> bytes =
            wire::serializeFrame(request);
        EXPECT_TRUE(net::writeAll(fd, bytes.data(), bytes.size(), err))
            << err;
    }
}

/** Connect to @p path, then pipelineEncodes. */
net::UniqueFd
connectPipelinedPeer(const std::string &path, std::size_t encodes,
                     std::size_t tx_count)
{
    std::string err;
    net::UniqueFd fd = net::connectUnix(path, err);
    EXPECT_TRUE(fd.valid()) << err;
    pipelineEncodes(fd.get(), encodes, tx_count);
    return fd;
}

/**
 * Read @p fd to EOF, at most @p chunk bytes per read and @p pause
 * between reads. Returns how many replies were Encodes tagged 1, 2, ...
 * in order before any that was not.
 */
std::size_t
readTaggedRepliesToEof(int fd, std::size_t chunk,
                       std::chrono::milliseconds pause)
{
    wire::FrameParser parser;
    std::vector<std::uint8_t> buf(chunk);
    std::size_t in_order = 0;
    bool broken = false;
    long n = 0;
    while ((n = ::read(fd, buf.data(), buf.size())) > 0) {
        parser.feed(buf.data(), static_cast<std::size_t>(n));
        wire::Frame reply;
        wire::WireError wire_err;
        while (parser.next(reply, wire_err) ==
               wire::FrameParser::Status::Ready) {
            broken |= reply.opcode != wire::Opcode::Encode ||
                      reply.streamId != in_order + 1;
            in_order += broken ? 0 : 1;
        }
        std::this_thread::sleep_for(pause);
    }
    EXPECT_EQ(n, 0) << "read failed: " << std::strerror(errno);
    EXPECT_EQ(parser.buffered(), 0u);
    return in_order;
}

/** One shard on a Unix socket, so every peer shares its event loop. */
server::ServerOptions
oneShardUnixOptions(const char *tag)
{
    server::ServerOptions options;
    options.unixPath = uniqueSocketPath(tag);
    options.shards = 1;
    return options;
}

// Twelve Encodes of 4096 x 64 B queue about 3 MB of replies: more than
// the socket buffers hold, less than the out-buffer high-water mark, so
// the shard reads every request while the replies wait on the peer.
constexpr std::size_t kStuckEncodes = 12;
constexpr std::size_t kStuckTx = 4096;
static_assert(kStuckEncodes * kStuckTx * 64 < server::kOutHighWaterBytes);

TEST(Loopback, HalfClosedPeerThatNeverReadsDoesNotStallItsShard)
{
    const server::ServerOptions options = oneShardUnixOptions("halfclose");
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    net::UniqueFd stuck =
        connectPipelinedPeer(options.unixPath, kStuckEncodes, kStuckTx);
    ASSERT_EQ(::shutdown(stuck.get(), SHUT_WR), 0);
    // Let the shard read the EOF before the second peer arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // The half-closed peer's unsent replies wait under POLLOUT; they do
    // not hold the shard, so a second peer is answered at once.
    std::string err;
    client::Client client =
        client::Client::connectUnix(options.unixPath, err);
    ASSERT_TRUE(client.connected()) << err;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.ping(err)) << err;
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(500));

    // The first peer then reads every reply, in order, then EOF.
    EXPECT_EQ(readTaggedRepliesToEof(stuck.get(), 64 * 1024,
                                     std::chrono::milliseconds(0)),
              kStuckEncodes);
}

TEST(Loopback, DrainWithStuckPeersEndsAtOneDeadline)
{
    const server::ServerOptions options = oneShardUnixOptions("stuck");
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    std::vector<net::UniqueFd> stuck;
    for (int i = 0; i < 3; ++i)
        stuck.push_back(
            connectPipelinedPeer(options.unixPath, kStuckEncodes, kStuckTx));
    constexpr std::size_t kPipelined = 50;
    net::UniqueFd reader =
        connectPipelinedPeer(options.unixPath, kPipelined, 64);
    std::size_t replies = 0;
    std::thread reading([&] {
        replies = readTaggedRepliesToEof(reader.get(), 64 * 1024,
                                         std::chrono::milliseconds(0));
    });

    // The peers that never read share one drain deadline; they are not
    // waited for one after another.
    const auto t0 = std::chrono::steady_clock::now();
    live.stop();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    reading.join();
    EXPECT_LT(elapsed,
              std::chrono::milliseconds(2 * server::kDrainFlushTimeoutMs));
    EXPECT_EQ(replies, kPipelined);
}

TEST(Loopback, SlowReaderAfterHalfCloseIsNotIdledOut)
{
    server::ServerOptions options = oneShardUnixOptions("slowread");
    options.idleTimeoutMs = 300;
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    // About 2 MB of replies taken 64 KiB every 50 ms: the flush outlasts
    // the idle timeout several times over, and only its progress keeps
    // the connection open.
    constexpr std::size_t kEncodes = 8;
    net::UniqueFd peer =
        connectPipelinedPeer(options.unixPath, kEncodes, kStuckTx);
    ASSERT_EQ(::shutdown(peer.get(), SHUT_WR), 0);
    EXPECT_EQ(readTaggedRepliesToEof(peer.get(), 64 * 1024,
                                     std::chrono::milliseconds(50)),
              kEncodes);
}

/** Fetch a named gauge from the server's Stats document (0 if absent). */
double
fetchGauge(client::Client &client, const std::string &name)
{
    std::string json, err;
    EXPECT_TRUE(client.stats(json, err)) << err;
    JsonValue doc;
    EXPECT_TRUE(parseJson(json, doc, &err)) << err;
    const JsonValue *object = doc.find("gauges");
    if (object == nullptr || !object->isObject())
        return 0.0;
    const JsonValue *value = object->find(name);
    return value != nullptr && value->isNumber() ? value->number : 0.0;
}

/** Abort @p fd: SO_LINGER {1, 0} makes the close send a reset. */
void
resetOnClose(int fd)
{
    const linger abort_on_close{1, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
                           sizeof(abort_on_close)),
              0);
}

TEST(Loopback, PeersThatResetAreDroppedAndTheShardServesOn)
{
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    server::ServerOptions options = ephemeralTcpOptions();
    options.shards = 1;
    LiveServer live(options);
    ASSERT_TRUE(live.started());
    std::string err;

    // One peer queues more replies than the socket buffers hold and
    // reads none; another has none pending. Both then reset, so the
    // shard's next write to the first and read from the second fail.
    net::UniqueFd stuck = net::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(stuck.valid()) << err;
    pipelineEncodes(stuck.get(), kStuckEncodes, kStuckTx);
    {
        client::Client idle =
            client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
        ASSERT_TRUE(idle.ping(err)) << err;
        resetOnClose(idle.rawFd());
    }
    resetOnClose(stuck.get());
    stuck.reset();

    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.ping(err)) << err;
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(500));

    // The failed connections are closed: only this client is left.
    double active = 0.0;
    for (int attempt = 0; attempt < 200; ++attempt) {
        active = fetchGauge(client, "bxt.server.active_connections");
        if (active == 1.0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(active, 1.0);
    telemetry::setMetricsEnabled(false);
}

TEST(Loopback, OversizedRequestHeaderIsRefusedBeforeItsBody)
{
    // A peer announces a 1 MiB Encode body and sends nothing more. The
    // shard answers FrameTooLarge from the header alone and closes; it
    // does not wait to buffer the body.
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());
    std::string err;
    client::Client peer =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(peer.connected()) << err;
    std::vector<std::uint8_t> header =
        wire::serializeFrame(makeEncodeRequest("baseline", 64, 32, {}));
    header.resize(wire::headerBytes);
    storeLen(header, 8, 0);
    storeLen(header, 12, std::size_t{1} << 20);
    const int fd = peer.rawFd();
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(net::writeAll(fd, header.data(), header.size(), err)) << err;

    pollfd pfd{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 500), 1) << "no reply to the header";
    wire::FrameParser parser;
    wire::FrameView reply;
    wire::ErrorCode code = wire::ErrorCode::None;
    EXPECT_FALSE(client::readReply(fd, parser, reply, code, err));
    EXPECT_EQ(code, wire::ErrorCode::FrameTooLarge);
    ASSERT_EQ(::poll(&pfd, 1, 500), 1) << "connection left open";
    std::uint8_t byte = 0;
    EXPECT_EQ(::read(fd, &byte, 1), 0);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(500));
}

TEST(Loopback, EveryEncodeReplyFitsOneDecodeRequest)
{
    // 'bd|dbi4' packs 10 metadata bytes onto a 64-byte transaction, more
    // than maxMetaBytesPerTx. As many rows as one Decode request holds
    // round-trip; one row more is refused before it is encoded, so the
    // server never hands out a reply it cannot take back.
    LiveServer live(ephemeralTcpOptions());
    ASSERT_TRUE(live.started());
    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;

    constexpr std::size_t kRow = 64 + 10;
    const std::size_t rows =
        (wire::maxRequestBodyLen(wire::Opcode::Decode) - 24) / kRow;
    ASSERT_LT(rows, wire::maxTxPerRequest);
    Rng rng(0x7e1a);
    std::vector<std::uint8_t> raw((rows + 1) * 64);
    for (std::uint8_t &byte : raw)
        byte = static_cast<std::uint8_t>(rng.next32());
    const std::span<const std::uint8_t> fits(raw.data(), rows * 64);

    client::EncodeResult enc;
    ASSERT_TRUE(client.encode("bd|dbi4", 64, 64, fits, enc, err)) << err;
    EXPECT_EQ(enc.metaBytesPerTx, 10u);
    client::DecodeResult dec;
    ASSERT_TRUE(client.decode("bd|dbi4", enc, dec, err)) << err;
    EXPECT_TRUE(std::equal(dec.raw.begin(), dec.raw.end(), fits.begin(),
                           fits.end()));

    EXPECT_FALSE(client.encode("bd|dbi4", 64, 64, raw, enc, err));
    EXPECT_EQ(client.lastErrorCode(), wire::ErrorCode::Malformed);
    EXPECT_TRUE(client.ping(err)) << err;

    // The widest canonical row still takes a full request both ways.
    raw.resize(wire::maxTxPerRequest * 64);
    ASSERT_TRUE(client.encode("dbi1", 64, 64, raw, enc, err)) << err;
    EXPECT_EQ(enc.metaBytesPerTx, wire::maxMetaBytesPerTx);
    ASSERT_TRUE(client.decode("dbi1", enc, dec, err)) << err;
    EXPECT_EQ(dec.raw, raw);
}

// ---------------------------------------------------------------------
// Sharded serving end-to-end (DESIGN.md §14)

TEST(Sharded, FleetTotalsTelescopeToShardBreakdown)
{
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    constexpr std::size_t kShards = 4;
    server::ServerOptions options;
    options.tcpPort = 0;
    options.shards = kShards;
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    // Spread traffic across reconnecting clients. The acceptor hands
    // connections to shards round-robin, and each client is served
    // before the next one connects, so connection c lands on shard
    // c % kShards.
    constexpr std::size_t kConns = 12;
    constexpr std::size_t kRequestsPerConn = 5;
    const std::vector<std::uint8_t> raw(8 * 32, 0xa5);
    std::string err;
    for (std::size_t c = 0; c < kConns; ++c) {
        client::Client client =
            client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
        ASSERT_TRUE(client.connected()) << err;
        for (std::size_t i = 0; i < kRequestsPerConn; ++i) {
            client::EncodeResult enc;
            ASSERT_TRUE(client.encode("xor4+zdr", 32, 32, raw, enc, err))
                << err;
        }
    }

    client::Client stats_client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(stats_client.connected()) << err;
    EXPECT_EQ(fetchGauge(stats_client, "bxt.server.shards"), 4.0);
    const std::map<std::string, std::uint64_t> counters =
        fetchCounters(stats_client);
    telemetry::setMetricsEnabled(false);

    // Every broken-out leaf must telescope exactly: the fleet total is
    // the sum of the bxt.server.shard.<i>.* copies, nothing more.
    for (const char *leaf :
         {"requests", "tx_encoded", "connections", "rejected_busy",
          "errors"}) {
        const std::string total_name = std::string("bxt.server.") + leaf;
        ASSERT_NE(counters.find(total_name), counters.end()) << leaf;
        std::uint64_t shard_sum = 0;
        std::size_t shards_seen = 0;
        for (std::size_t s = 0; s < kShards; ++s) {
            const auto it = counters.find("bxt.server.shard." +
                                          std::to_string(s) + "." + leaf);
            if (it != counters.end()) {
                shard_sum += it->second;
                ++shards_seen;
            }
        }
        EXPECT_EQ(counters.at(total_name), shard_sum) << leaf;
        EXPECT_EQ(shards_seen, kShards) << leaf;
    }
    // All the work really happened (the +1s are the Stats fetches).
    EXPECT_EQ(counters.at("bxt.server.requests"),
              kConns * kRequestsPerConn + 2);
    EXPECT_EQ(counters.at("bxt.server.tx_encoded"),
              kConns * kRequestsPerConn * 8);
    EXPECT_EQ(counters.at("bxt.server.errors"), 0u);

    // Placement is the round robin: each shard got its kConns / kShards
    // share, and the Stats connection (number kConns) went to shard 0.
    for (std::size_t s = 0; s < kShards; ++s) {
        const std::uint64_t share = kConns / kShards + (s == 0 ? 1 : 0);
        EXPECT_EQ(counters.at("bxt.server.shard." + std::to_string(s) +
                              ".connections"),
                  share)
            << "shard " << s;
    }
}

TEST(Sharded, StatsOnAnotherShardCountsEveryHeldReply)
{
    // A shard publishes its counts once per batch, before it flushes
    // the batch's replies: once a client holds an Encode reply from
    // shard 0, a Stats answered by shard 1 already counts it, on the
    // first try.
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    server::ServerOptions options;
    options.tcpPort = 0;
    options.shards = 2;
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    // Round-robin placement: the first connection lands on shard 0, the
    // second on shard 1.
    std::string err;
    client::Client worker =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(worker.connected()) << err;
    ASSERT_TRUE(worker.ping(err)) << err;
    client::Client stats =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(stats.connected()) << err;
    ASSERT_TRUE(stats.ping(err)) << err;

    worker.setStreamId(3);
    Rng rng(0x9ab1);
    TenantLedger ledger;
    for (int i = 0; i < 20; ++i) {
        std::vector<std::uint8_t> raw((1 + i % 4) * 32);
        for (std::uint8_t &b : raw)
            b = static_cast<std::uint8_t>(rng.nextBounded(256));
        client::EncodeResult enc;
        ASSERT_TRUE(worker.encode("xor4+zdr", 32, 32, raw, enc, err)) << err;
        ledger.requests += 1;
        ledger.txs += enc.count;
        ledger.onesIn += enc.inputOnes;
        ledger.onesOut += enc.payloadOnes + enc.metaOnes;

        const std::map<std::string, std::uint64_t> counters =
            fetchCounters(stats);
        const auto value = [&counters](const std::string &name) {
            const auto it = counters.find(name);
            return it != counters.end() ? it->second : ~std::uint64_t{0};
        };
        EXPECT_EQ(value("bxt.server.tx_encoded"), ledger.txs) << i;
        EXPECT_EQ(value("bxt.server.xor4-zdr.ones_in"), ledger.onesIn) << i;
        EXPECT_EQ(value("bxt.server.xor4-zdr.ones_out"), ledger.onesOut)
            << i;
        EXPECT_EQ(value(streamCounterName(2, "requests")), ledger.requests)
            << i;
        EXPECT_EQ(value(streamCounterName(2, "tx_encoded")), ledger.txs)
            << i;
        EXPECT_EQ(value(streamCounterName(2, "ones_in")), ledger.onesIn)
            << i;
        EXPECT_EQ(value(streamCounterName(2, "ones_out")), ledger.onesOut)
            << i;
    }
    telemetry::setMetricsEnabled(false);
}

TEST(Sharded, GracefulDrainAnswersInFlightFramesOnEveryShard)
{
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    server::ServerOptions options;
    options.tcpPort = 0;
    options.shards = 4;
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    // Enough connections that every shard almost surely owns several;
    // each first completes a synchronous ping (so the shard has adopted
    // it), then pipelines a burst of raw frames without reading.
    constexpr std::size_t kConns = 16;
    constexpr std::size_t kBurst = 24;
    const std::vector<std::uint8_t> ping_bytes =
        wire::serializeFrame(pingFrame());
    std::vector<std::uint8_t> burst;
    for (std::size_t i = 0; i < kBurst; ++i)
        burst.insert(burst.end(), ping_bytes.begin(), ping_bytes.end());

    std::string err;
    std::vector<client::Client> clients;
    clients.reserve(kConns);
    for (std::size_t c = 0; c < kConns; ++c) {
        clients.push_back(
            client::Client::connectTcp("127.0.0.1", live.tcpPort(), err));
        ASSERT_TRUE(clients.back().connected()) << err;
        ASSERT_TRUE(clients.back().ping(err)) << err;
        ASSERT_TRUE(net::writeAll(clients.back().rawFd(), burst.data(),
                                  burst.size(), err))
            << err;
    }
    // The bursts are in flight (kernel buffers) when the stop arrives.
    live.stop();
    telemetry::setMetricsEnabled(false);

    // Every pipelined frame the server accepted must have been answered
    // before its connection closed: read each socket to EOF and count.
    for (std::size_t c = 0; c < kConns; ++c) {
        wire::FrameParser parser;
        wire::FrameView reply;
        wire::ErrorCode code = wire::ErrorCode::None;
        std::size_t replies = 0;
        while (client::readReply(clients[c].rawFd(), parser, reply, code,
                                 err)) {
            EXPECT_EQ(reply.opcode, wire::Opcode::Ping);
            ++replies;
        }
        EXPECT_EQ(err, "server closed the connection") << "conn " << c;
        EXPECT_EQ(replies, kBurst) << "conn " << c;
    }
}

TEST(Sharded, AdaptiveStreamSurvivesReconnectsAcrossShards)
{
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    server::ServerOptions options;
    options.tcpPort = 0;
    options.shards = 4;
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    // One logical tenant (stream 5) reconnecting repeatedly: each
    // connection may land on a different shard, where a fresh
    // shard-local controller serves it. The announcement contract must
    // hold on every shard — a concrete spec plus epoch that decodes the
    // payload — and the per-stream accounting must merge across shards.
    const std::string spec = "adaptive:xor2+zdr,baseline,w=8,p=8,h=0";
    constexpr std::size_t kReconnects = 6;
    constexpr std::size_t kEncodesPerConn = 4;
    const std::vector<std::uint8_t> raw(16 * 32, 0xff);
    std::string err;
    for (std::size_t c = 0; c < kReconnects; ++c) {
        client::Client client =
            client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
        ASSERT_TRUE(client.connected()) << err;
        client.setStreamId(5);
        for (std::size_t i = 0; i < kEncodesPerConn; ++i) {
            client::EncodeResult enc;
            ASSERT_TRUE(client.encode(spec, 32, 32, raw, enc, err))
                << err;
            ASSERT_FALSE(enc.announcedSpec.empty());
            client::DecodeResult dec;
            ASSERT_TRUE(client.decode(enc.announcedSpec, enc, dec, err))
                << err;
            ASSERT_EQ(dec.raw.size(), raw.size());
            EXPECT_EQ(
                std::memcmp(dec.raw.data(), raw.data(), raw.size()), 0);
        }
    }

    client::Client stats_client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(stats_client.connected()) << err;
    const std::map<std::string, std::uint64_t> counters =
        fetchCounters(stats_client);
    telemetry::setMetricsEnabled(false);

    // The fleet view of stream 5 sums its shard-local slices exactly:
    // one requests tick per tagged encode and decode.
    EXPECT_EQ(counters.at("bxt.server.stream.5.requests"),
              kReconnects * kEncodesPerConn * 2);
    EXPECT_EQ(counters.at("bxt.server.stream.5.tx_encoded"),
              kReconnects * kEncodesPerConn * 16);
    EXPECT_EQ(counters.at("bxt.server.errors"), 0u);
}

TEST(Loopback, AdaptiveSensorGaugesMergeAcrossShards)
{
    telemetry::resetForTest();
    telemetry::setMetricsEnabled(true);
    server::ServerOptions options;
    options.unixPath = uniqueSocketPath("sensors");
    options.shards = 2;
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    // Stream 7 on two connections: the Unix acceptor's round-robin puts
    // one on each shard, so each shard runs its own stream-7 controller.
    // All-zero transactions make every sensor exact: zero_frac 1,
    // xor_weight 0. Four 256-tx requests per connection span several
    // evaluation periods (the default window fills on the first, the
    // period is 256 tx).
    constexpr std::size_t kRequests = 4;
    constexpr std::size_t kTxPerRequest = 256;
    const std::vector<std::uint8_t> raw(kTxPerRequest * 32, 0x00);
    std::string err;
    std::vector<client::Client> clients;
    for (int c = 0; c < 2; ++c) {
        clients.push_back(client::Client::connectUnix(options.unixPath, err));
        ASSERT_TRUE(clients.back().connected()) << err;
        clients.back().setStreamId(7);
    }
    for (std::size_t i = 0; i < kRequests; ++i) {
        for (client::Client &client : clients) {
            client::EncodeResult enc;
            ASSERT_TRUE(client.encode("adaptive", 32, 32, raw, enc, err))
                << err;
        }
    }

    std::string json;
    ASSERT_TRUE(clients.front().stats(json, err)) << err;
    telemetry::setMetricsEnabled(false);
    JsonValue doc;
    ASSERT_TRUE(parseJson(json, doc, &err)) << err;
    const JsonValue *counters = doc.find("counters");
    const JsonValue *gauges = doc.find("gauges");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(gauges, nullptr);
    for (const char *shard : {"0", "1"}) {
        const JsonValue *conns = counters->find(
            std::string("bxt.server.shard.") + shard + ".connections");
        ASSERT_NE(conns, nullptr);
        EXPECT_EQ(conns->number, 1.0) << "shard " << shard;
    }

    // Gauges add on the fleet merge: each shard contributes its own
    // controller's sensor value and one set choice gauge, so dividing
    // by the summed one-hot choice gauges recovers the per-controller
    // value.
    const std::string base = "bxt.server.stream.7.adaptive.";
    double controllers = 0.0;
    for (const auto &[name, value] : gauges->object) {
        EXPECT_EQ(name.find("window_"), std::string::npos) << name;
        if (name.rfind(base + "choice.", 0) == 0)
            controllers += value.number;
    }
    EXPECT_EQ(controllers, 2.0);
    const JsonValue *zero_frac = gauges->find(base + "zero_frac");
    const JsonValue *xor_weight = gauges->find(base + "xor_weight");
    ASSERT_NE(zero_frac, nullptr);
    ASSERT_NE(xor_weight, nullptr);
    EXPECT_EQ(zero_frac->number / controllers, 1.0);
    EXPECT_EQ(xor_weight->number / controllers, 0.0);
}

/** utime + stime of process @p pid from /proc, in microseconds. */
std::uint64_t
processCpuMicros(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall (the 12th and 13th after it).
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string field;
    std::uint64_t ticks = 0;
    for (int i = 1; i <= 13 && fields >> field; ++i) {
        if (i >= 12)
            ticks += std::stoull(field);
    }
    return ticks * 1000000 / static_cast<std::uint64_t>(::sysconf(_SC_CLK_TCK));
}

/** Send a Ping on @p fd; true when its reply arrives within @p timeout_ms. */
bool
pingAnswered(int fd, int timeout_ms)
{
    const std::vector<std::uint8_t> ping = wire::serializeFrame(pingFrame());
    std::string err;
    if (!net::writeAll(fd, ping.data(), ping.size(), err))
        return false;
    wire::FrameParser parser;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0 ||
            net::pollIn(fd, -1, static_cast<int>(left.count())) !=
                net::PollResult::Readable)
            return false;
        std::uint8_t buf[256];
        const long n = net::readSome(fd, buf, sizeof(buf), err);
        if (n <= 0)
            return false;
        parser.feed(buf, static_cast<std::size_t>(n));
        wire::Frame reply;
        wire::WireError wire_err;
        if (parser.next(reply, wire_err) == wire::FrameParser::Status::Ready)
            return reply.opcode == wire::Opcode::Ping;
    }
}

/** Kills and reaps a forked child when the test leaves scope. */
struct ChildGuard
{
    pid_t pid = -1;
    ~ChildGuard()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
};

/**
 * fd exhaustion: once accept() fails with EMFILE the pending connection
 * stays queued and the listener stays readable, so an acceptor that keeps
 * polling it spins a CPU. The server runs in a child process with a low
 * RLIMIT_NOFILE, listening on TCP or (when @p unix_path is set) a Unix
 * socket; the check fills its descriptor table with connections, asserts
 * the server stays nearly idle while accept keeps failing, then frees one
 * descriptor and asserts a new connection is served.
 */
void
expectAcceptBackoff(const std::string &unix_path)
{
    // The child inherits this process's descriptors; leave it room for
    // the server's own pipes and listener plus a few connections.
    int highest_fd = 2;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        highest_fd = std::max(
            highest_fd, std::stoi(entry.path().filename().string()));
    const rlim_t fd_limit = static_cast<rlim_t>(highest_fd) + 1 + 16;

    int port_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);
    ChildGuard child;
    child.pid = ::fork();
    ASSERT_GE(child.pid, 0);
    if (child.pid == 0) {
        ::close(port_pipe[0]);
        const rlimit limit{fd_limit, fd_limit};
        if (::setrlimit(RLIMIT_NOFILE, &limit) != 0)
            ::_exit(2);
        server::ServerOptions options;
        if (unix_path.empty())
            options.tcpPort = 0;
        else
            options.unixPath = unix_path;
        options.shards = 1;
        options.idleTimeoutMs = -1;
        server::Server server(options);
        std::string err;
        if (!server.start(err))
            ::_exit(3);
        const int port = server.tcpPort();
        if (::write(port_pipe[1], &port, sizeof(port)) != sizeof(port))
            ::_exit(4);
        ::close(port_pipe[1]);
        server.serve();
        ::_exit(0);
    }
    ::close(port_pipe[1]);
    int port = -1;
    ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
              static_cast<ssize_t>(sizeof(port)));
    ::close(port_pipe[0]);

    std::string err;
    const auto connect = [&] {
        return unix_path.empty() ? net::connectTcp("127.0.0.1", port, err)
                                 : net::connectUnix(unix_path, err);
    };

    // Connect until the server stops answering: that connection waits
    // in the accept queue because accept() fails with EMFILE.
    std::vector<net::UniqueFd> served;
    net::UniqueFd stalled;
    for (int i = 0; i < 64 && !stalled.valid(); ++i) {
        net::UniqueFd conn = connect();
        ASSERT_TRUE(conn.valid()) << err;
        if (pingAnswered(conn.get(), 500))
            served.push_back(std::move(conn));
        else
            stalled = std::move(conn);
    }
    ASSERT_TRUE(stalled.valid()) << "the server never ran out of fds";
    ASSERT_FALSE(served.empty());

    // Hold the exhausted state: a spinning acceptor would burn the
    // whole window on one CPU.
    constexpr std::uint64_t kWindowUs = 500000;
    const std::uint64_t cpu_before = processCpuMicros(child.pid);
    std::this_thread::sleep_for(std::chrono::microseconds(kWindowUs));
    const std::uint64_t cpu_used = processCpuMicros(child.pid) - cpu_before;
    EXPECT_LT(cpu_used, kWindowUs / 4)
        << "server used " << cpu_used << " us of CPU in a " << kWindowUs
        << " us window with accept() failing";

    // Free one server-side descriptor: drop the stalled connection (the
    // server accepts it, reads EOF and closes it), then close a served
    // one. A new connection must be accepted and answered.
    stalled.reset();
    served.pop_back();
    net::UniqueFd fresh = connect();
    ASSERT_TRUE(fresh.valid()) << err;
    EXPECT_TRUE(pingAnswered(fresh.get(), 5000));
}

TEST(Sharded, AcceptBacksOffWhenDescriptorsRunOut)
{
    expectAcceptBackoff("");
}

TEST(Sharded, UnixAcceptBacksOffWhenDescriptorsRunOut)
{
    const std::string path = uniqueSocketPath("emfile");
    expectAcceptBackoff(path);
    std::filesystem::remove(path);
}

} // namespace
} // namespace bxt
