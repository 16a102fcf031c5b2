/**
 * @file
 * Scalar tier: strict byte-at-a-time loops. This is the reference every
 * other tier must match bit for bit; it deliberately avoids word loads
 * so a bug in the word/vector paths cannot hide in shared code. Its
 * CRC32 is the bytewise table loop from kernel_common.h, which the other
 * tiers reach only for their last few bytes; tests/test_checksum.cpp
 * checks it against the table-free bitwise definition.
 */

#include "core/simd/kernel_common.h"
#include "core/simd/kernels.h"

namespace bxt::simd::detail {

namespace {

constexpr std::uint8_t zdrByte = 0x40; // core/zdr.h zdrConstantByte

void
xorRangeScalar(std::uint8_t *out, const std::uint8_t *in,
               const std::uint8_t *base, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(in[i] ^ base[i]);
}

/** Lane classification without word loads: the ZDR constant is zdrByte
 *  in the most-significant (last little-endian) byte, zero elsewhere. */
bool
laneIsZero(const std::uint8_t *lane, std::size_t bytes)
{
    for (std::size_t i = 0; i < bytes; ++i) {
        if (lane[i] != 0)
            return false;
    }
    return true;
}

bool
laneXorIsConstant(const std::uint8_t *a, const std::uint8_t *b,
                  std::size_t bytes)
{
    for (std::size_t i = 0; i + 1 < bytes; ++i) {
        if ((a[i] ^ b[i]) != 0)
            return false;
    }
    return (a[bytes - 1] ^ b[bytes - 1]) == zdrByte;
}

template <std::size_t Bytes>
void
zdrEncodeScalar(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    for (std::size_t off = 0; off < n; off += Bytes) {
        const std::uint8_t *lane = in + off;
        const std::uint8_t *b = base + off;
        std::uint8_t *dst = out + off;
        if (laneIsZero(lane, Bytes)) {
            for (std::size_t i = 0; i + 1 < Bytes; ++i)
                dst[i] = 0;
            dst[Bytes - 1] = zdrByte;
        } else if (laneXorIsConstant(lane, b, Bytes)) {
            for (std::size_t i = 0; i < Bytes; ++i)
                dst[i] = b[i];
        } else {
            for (std::size_t i = 0; i < Bytes; ++i)
                dst[i] = static_cast<std::uint8_t>(lane[i] ^ b[i]);
        }
    }
}

template <std::size_t Bytes>
void
zdrDecodeScalar(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    for (std::size_t off = 0; off < n; off += Bytes) {
        const std::uint8_t *lane = in + off;
        const std::uint8_t *b = base + off;
        std::uint8_t *dst = out + off;
        bool is_constant = lane[Bytes - 1] == zdrByte;
        bool is_base = lane[Bytes - 1] == b[Bytes - 1];
        for (std::size_t i = 0; i + 1 < Bytes; ++i) {
            is_constant = is_constant && lane[i] == 0;
            is_base = is_base && lane[i] == b[i];
        }
        if (is_constant) {
            for (std::size_t i = 0; i < Bytes; ++i)
                dst[i] = 0;
        } else if (is_base) {
            for (std::size_t i = 0; i + 1 < Bytes; ++i)
                dst[i] = b[i];
            dst[Bytes - 1] = static_cast<std::uint8_t>(b[Bytes - 1] ^
                                                       zdrByte);
        } else {
            for (std::size_t i = 0; i < Bytes; ++i)
                dst[i] = static_cast<std::uint8_t>(lane[i] ^ b[i]);
        }
    }
}

int
popcountByte(std::uint8_t value)
{
    int count = 0;
    for (; value != 0; value = static_cast<std::uint8_t>(value >> 1))
        count += value & 1;
    return count;
}

void
dbiEncodePlaneScalar(std::uint8_t *data, std::uint8_t *meta,
                     std::size_t groups, std::size_t group_bytes)
{
    for (std::size_t g = 0; g < groups; ++g) {
        std::uint8_t *group = data + g * group_bytes;
        std::size_t ones = 0;
        for (std::size_t i = 0; i < group_bytes; ++i)
            ones += static_cast<std::size_t>(popcountByte(group[i]));
        const bool invert = ones > group_bytes * 4;
        if (invert) {
            for (std::size_t i = 0; i < group_bytes; ++i)
                group[i] = static_cast<std::uint8_t>(~group[i]);
        }
        meta[g] = invert ? 1 : 0;
    }
}

void
dbiDecodePlaneScalar(std::uint8_t *data, const std::uint8_t *meta,
                     std::size_t groups, std::size_t group_bytes)
{
    for (std::size_t g = 0; g < groups; ++g) {
        if (meta[g] == 0)
            continue;
        std::uint8_t *group = data + g * group_bytes;
        for (std::size_t i = 0; i < group_bytes; ++i)
            group[i] = static_cast<std::uint8_t>(~group[i]);
    }
}

std::uint64_t
popcountRangeScalar(const std::uint8_t *src, std::size_t n)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += static_cast<std::uint64_t>(popcountByte(src[i]));
    return count;
}

std::uint64_t
popcountXorRangeScalar(const std::uint8_t *a, const std::uint8_t *b,
                       std::size_t n)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += static_cast<std::uint64_t>(
            popcountByte(static_cast<std::uint8_t>(a[i] ^ b[i])));
    return count;
}

/** Byte-loop lane remaps: the reference the codec-level primitives of
 *  every level are diffed against. */
struct ScalarLanes
{
    static void remap(std::uint8_t *out, const std::uint8_t *in,
                      const std::uint8_t *base, std::size_t n,
                      std::size_t lane, bool encode)
    {
        switch (lane) {
        case 0:
            xorRangeScalar(out, in, base, n);
            return;
        case 2:
            (encode ? zdrEncodeScalar<2> : zdrDecodeScalar<2>)(out, in,
                                                               base, n);
            return;
        case 4:
            (encode ? zdrEncodeScalar<4> : zdrDecodeScalar<4>)(out, in,
                                                               base, n);
            return;
        case 8:
            (encode ? zdrEncodeScalar<8> : zdrDecodeScalar<8>)(out, in,
                                                               base, n);
            return;
        default:
            (encode ? zdrEncodeScalar<16> : zdrDecodeScalar<16>)(out, in,
                                                                 base, n);
        }
    }
};

void
universalFoldScalar(std::uint8_t *out, const std::uint8_t *in,
                    std::size_t count, std::size_t tx_bytes,
                    unsigned stages, std::size_t zdr_lane)
{
    universalFoldGeneric<ScalarLanes>(out, in, count, tx_bytes, stages,
                                      zdr_lane, /*encode=*/true);
}

void
universalUnfoldScalar(std::uint8_t *out, const std::uint8_t *in,
                      std::size_t count, std::size_t tx_bytes,
                      unsigned stages, std::size_t zdr_lane)
{
    universalFoldGeneric<ScalarLanes>(out, in, count, tx_bytes, stages,
                                      zdr_lane, /*encode=*/false);
}

void
baseXorDecodeScalar(std::uint8_t *out, const std::uint8_t *in,
                    std::size_t count, std::size_t tx_bytes,
                    std::size_t base_bytes, bool zdr)
{
    baseXorDecodeGeneric<ScalarLanes>(out, in, count, tx_bytes, base_bytes,
                                      zdr);
}

void
packBitsScalar(std::uint8_t *packed, const std::uint8_t *bits,
               std::size_t count, std::size_t bits_per_row,
               std::size_t row_bytes)
{
    for (std::size_t r = 0; r < count; ++r) {
        std::uint8_t *row = packed + r * row_bytes;
        const std::uint8_t *values = bits + r * bits_per_row;
        for (std::size_t b = 0; b < row_bytes; ++b)
            row[b] = 0;
        for (std::size_t j = 0; j < bits_per_row; ++j) {
            if (values[j] != 0)
                row[j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
        }
    }
}

void
unpackBitsScalar(std::uint8_t *bits, const std::uint8_t *packed,
                 std::size_t count, std::size_t bits_per_row,
                 std::size_t row_bytes)
{
    for (std::size_t r = 0; r < count; ++r) {
        const std::uint8_t *row = packed + r * row_bytes;
        std::uint8_t *values = bits + r * bits_per_row;
        for (std::size_t j = 0; j < bits_per_row; ++j)
            values[j] =
                static_cast<std::uint8_t>((row[j / 8] >> (j % 8)) & 1u);
    }
}

} // namespace

const KernelTable &
scalarTable()
{
    static const KernelTable table = {
        Level::Scalar,
        xorRangeScalar,
        zdrEncodeScalar<2>,
        zdrEncodeScalar<4>,
        zdrEncodeScalar<8>,
        dbiEncodePlaneScalar,
        dbiDecodePlaneScalar,
        popcountRangeScalar,
        popcountXorRangeScalar,
        universalFoldScalar,
        universalUnfoldScalar,
        baseXorDecodeScalar,
        crc32BytewiseRange,
        packBitsScalar,
        unpackBitsScalar,
    };
    return table;
}

} // namespace bxt::simd::detail
