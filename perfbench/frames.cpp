#include "frames.h"

#include <array>
#include <cstring>

namespace perfbench {
namespace {

constexpr std::uint32_t magic = 0x50545842u; // "BXTP" little-endian.
constexpr std::size_t headerBytes = 16;
constexpr std::size_t traceBlockBytes = 20;
constexpr std::size_t maxSpecLen = 128;
constexpr std::size_t maxBodyLen = 16u << 20;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
        t[0][i] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
    return t;
}

constexpr CrcTables tables = makeTables();

} // namespace

std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v; // The benchmark builds only for little-endian hosts.
}

std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

void
store32(std::uint8_t *p, std::uint32_t v)
{
    std::memcpy(p, &v, 4);
}

void
store64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, 8);
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t n)
{
    std::uint32_t crc = 0xffffffffu;
    while (n >= 8) {
        const std::uint32_t lo = load32(data) ^ crc;
        const std::uint32_t hi = load32(data + 4);
        crc = tables[7][lo & 0xff] ^ tables[6][(lo >> 8) & 0xff] ^
              tables[5][(lo >> 16) & 0xff] ^ tables[4][lo >> 24] ^
              tables[3][hi & 0xff] ^ tables[2][(hi >> 8) & 0xff] ^
              tables[1][(hi >> 16) & 0xff] ^ tables[0][hi >> 24];
        data += 8;
        n -= 8;
    }
    while (n-- > 0)
        crc = (crc >> 8) ^ tables[0][(crc ^ *data++) & 0xffu];
    return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t>
buildFrame(std::uint8_t opcode, std::uint16_t stream, std::string_view spec,
           const std::uint8_t *body, std::size_t body_len)
{
    std::vector<std::uint8_t> out(headerBytes + spec.size() + body_len + 4);
    std::uint8_t *p = out.data();
    store32(p, magic);
    p[4] = 1;
    p[5] = opcode;
    p[6] = static_cast<std::uint8_t>(stream & 0xff);
    p[7] = static_cast<std::uint8_t>(stream >> 8);
    store32(p + 8, static_cast<std::uint32_t>(spec.size()));
    store32(p + 12, static_cast<std::uint32_t>(body_len));
    if (!spec.empty())
        std::memcpy(p + headerBytes, spec.data(), spec.size());
    if (body_len > 0)
        std::memcpy(p + headerBytes + spec.size(), body, body_len);
    const std::size_t crc_at = out.size() - 4;
    store32(p + crc_at, crc32(p, crc_at));
    return out;
}

long
parseFrame(const std::uint8_t *data, std::size_t n, FrameView &out)
{
    if (n < headerBytes)
        return 0;
    if (load32(data) != magic || (data[4] != 1 && data[4] != 2))
        return -1;
    const std::size_t trace = data[4] == 2 ? traceBlockBytes : 0;
    const std::size_t spec_len = load32(data + 8);
    const std::size_t body_len = load32(data + 12);
    if (spec_len > maxSpecLen || body_len > maxBodyLen)
        return -1;
    const std::size_t total = headerBytes + trace + spec_len + body_len + 4;
    if (n < total)
        return 0;
    if (load32(data + total - 4) != crc32(data, total - 4))
        return -1;
    out.opcode = data[5];
    out.stream = static_cast<std::uint16_t>(data[6] | (data[7] << 8));
    const std::uint8_t *spec = data + headerBytes + trace;
    out.spec = {reinterpret_cast<const char *>(spec), spec_len};
    out.body = spec + spec_len;
    out.bodyLen = body_len;
    return static_cast<long>(total);
}

bool
parseEncodeReply(const FrameView &frame, EncodeReply &out)
{
    constexpr std::size_t fixed = 48;
    if (frame.opcode != opEncode || frame.bodyLen < fixed)
        return false;
    const std::uint8_t *b = frame.body;
    out.txBytes = load32(b);
    out.busBits = load32(b + 4);
    out.metaWires = load32(b + 8);
    out.metaBytes = load32(b + 12);
    out.count = load64(b + 16);
    out.onesIn = load64(b + 24);
    out.payloadOnes = load64(b + 32);
    out.metaOnes = load64(b + 40);
    const std::uint64_t per_tx =
        static_cast<std::uint64_t>(out.txBytes) + out.metaBytes;
    return out.count <= (1u << 16) &&
           frame.bodyLen == fixed + out.count * per_tx;
}

std::vector<std::uint8_t>
decodeRequestFor(const FrameView &encode_reply, std::string_view spec)
{
    // Encode reply: 24-byte geometry | 24-byte tallies | payload | meta.
    // Decode request: the same geometry | payload | meta.
    std::vector<std::uint8_t> body(encode_reply.bodyLen - 24);
    std::memcpy(body.data(), encode_reply.body, 24);
    std::memcpy(body.data() + 24, encode_reply.body + 48,
                encode_reply.bodyLen - 48);
    return buildFrame(opDecode, encode_reply.stream, spec, body.data(),
                      body.size());
}

bool
decodeReplyEquals(const FrameView &frame, const std::uint8_t *raw,
                  std::size_t raw_len, std::uint32_t tx_bytes)
{
    if (frame.opcode != opDecode || frame.bodyLen != 12 + raw_len)
        return false;
    if (load32(frame.body) != tx_bytes ||
        load64(frame.body + 4) * tx_bytes != raw_len)
        return false;
    return std::memcmp(frame.body + 12, raw, raw_len) == 0;
}

} // namespace perfbench
