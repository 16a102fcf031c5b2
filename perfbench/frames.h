/**
 * @file
 * The benchmark's own codec for the bxtd wire protocol (server/wire.h):
 * frame building, reply parsing and CRC32. The load generator uses it
 * instead of the server's wire layer, so a faster or slower server wire
 * layer moves the server's numbers and never the client's.
 */

#ifndef PERFBENCH_FRAMES_H
#define PERFBENCH_FRAMES_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Opcodes the benchmark sends or expects back. */
enum Opcode : std::uint8_t {
    opPing = 1,
    opEncode = 2,
    opDecode = 3,
    opSnapshot = 5,
    opError = 0x7f,
};

/** Frame header (16) + CRC (4) bytes around spec and body. */
constexpr std::size_t frameOverhead = 20;

/** IEEE CRC32 (zlib polynomial), slicing-by-8. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t n);

/** Serialize one version-1 frame. */
std::vector<std::uint8_t> buildFrame(std::uint8_t opcode,
                                     std::uint16_t stream,
                                     std::string_view spec,
                                     const std::uint8_t *body,
                                     std::size_t body_len);

/** A parsed frame; spec and body point into the parsed buffer. */
struct FrameView
{
    std::uint8_t opcode = 0;
    std::uint16_t stream = 0;
    std::string_view spec;
    const std::uint8_t *body = nullptr;
    std::size_t bodyLen = 0;
};

/**
 * Parse the frame at the start of @p data. Returns the frame's length,
 * 0 when more bytes are needed, or -1 when the bytes are not a valid
 * frame (bad magic, version, lengths or CRC).
 */
long parseFrame(const std::uint8_t *data, std::size_t n, FrameView &out);

/** An Encode reply body (wire.h "Response bodies"). */
struct EncodeReply
{
    std::uint32_t txBytes = 0;
    std::uint32_t busBits = 0;
    std::uint32_t metaWires = 0;
    std::uint32_t metaBytes = 0;
    std::uint64_t count = 0;
    std::uint64_t onesIn = 0;
    std::uint64_t payloadOnes = 0;
    std::uint64_t metaOnes = 0;
};

/** Decode @p frame as an Encode reply; false when malformed. */
bool parseEncodeReply(const FrameView &frame, EncodeReply &out);

/**
 * The Decode request that reads back an Encode reply under @p spec: its
 * body is the reply body without the three ones tallies.
 */
std::vector<std::uint8_t> decodeRequestFor(const FrameView &encode_reply,
                                           std::string_view spec);

/**
 * True when @p frame is a Decode reply carrying exactly @p raw
 * (u32 txBytes | u64 count | raw bytes).
 */
bool decodeReplyEquals(const FrameView &frame, const std::uint8_t *raw,
                       std::size_t raw_len, std::uint32_t tx_bytes);

/** Little-endian field access. */
std::uint32_t load32(const std::uint8_t *p);
std::uint64_t load64(const std::uint8_t *p);
void store32(std::uint8_t *p, std::uint32_t v);
void store64(std::uint8_t *p, std::uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_FRAMES_H
