/**
 * @file
 * Shared scalar/word building blocks for the SIMD kernel tiers.
 *
 * Every vector translation unit falls back to these for range tails
 * (the final bytes that do not fill a vector register) and installs
 * them for the slots and shapes it has no vector code for, and the Word
 * tier's table is built entirely from them. They are the single source
 * of truth for the ZDR lane algebra at word width — the vector code
 * must match them bit for bit.
 *
 * Every function here has internal linkage (an unnamed namespace). The
 * header is included by translation units built with different -m
 * flags, so an inline function with external linkage would leave one
 * weak copy per TU, some compiled with AVX instructions, and the linker
 * would keep whichever came first: the Word table could run an AVX
 * copy. With internal linkage each TU calls its own. `ci.sh batch`
 * fails if a kernels_*.o exports a weak bxt::simd::detail symbol other
 * than crc32Tables, the one shared table.
 */

#ifndef BXT_CORE_SIMD_KERNEL_COMMON_H
#define BXT_CORE_SIMD_KERNEL_COMMON_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/bitops.h"
#include "core/zdr.h"

namespace bxt::simd::detail {
namespace {

/** ZDR constant C as a little-endian lane word (core/zdr.h: the single
 *  zdrConstantByte = 0x40 sits in the lane's most-significant byte). */
constexpr std::uint16_t zdrConst16 = 0x4000u;
constexpr std::uint32_t zdrConst32 = 0x40000000u;
constexpr std::uint64_t zdrConst64 = 0x4000000000000000ull;

inline std::uint16_t
loadWord16(const std::uint8_t *src)
{
    std::uint16_t word;
    std::memcpy(&word, src, 2);
    return word;
}

inline void
storeWord16(std::uint8_t *dst, std::uint16_t word)
{
    std::memcpy(dst, &word, 2);
}

/** Word-wide ZDR encode of one lane: 0 → C, base⊕C → base, else ⊕base. */
template <typename Word>
inline Word
zdrEncodeWord(Word in, Word base, Word constant)
{
    const Word x = static_cast<Word>(in ^ base);
    if (in == 0)
        return constant;
    return x == constant ? base : x;
}

/** Word-wide ZDR decode of one lane (inverse of zdrEncodeWord). */
template <typename Word>
inline Word
zdrDecodeWord(Word enc, Word base, Word constant)
{
    if (enc == constant)
        return 0;
    return enc == base ? static_cast<Word>(base ^ constant)
                       : static_cast<Word>(enc ^ base);
}

inline void
xorWordRange(std::uint8_t *out, const std::uint8_t *in,
             const std::uint8_t *base, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeWord64(out + i, loadWord64(in + i) ^ loadWord64(base + i));
    for (; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(in[i] ^ base[i]);
}

inline void
zdrEncode16WordRange(std::uint8_t *out, const std::uint8_t *in,
                     const std::uint8_t *base, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 2)
        storeWord16(out + i, zdrEncodeWord(loadWord16(in + i),
                                           loadWord16(base + i),
                                           zdrConst16));
}

inline void
zdrEncode32WordRange(std::uint8_t *out, const std::uint8_t *in,
                     const std::uint8_t *base, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 4)
        storeWord32(out + i, zdrEncodeWord(loadWord32(in + i),
                                           loadWord32(base + i),
                                           zdrConst32));
}

inline void
zdrEncode64WordRange(std::uint8_t *out, const std::uint8_t *in,
                     const std::uint8_t *base, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 8)
        storeWord64(out + i, zdrEncodeWord(loadWord64(in + i),
                                           loadWord64(base + i),
                                           zdrConst64));
}

inline void
zdrDecode16WordRange(std::uint8_t *out, const std::uint8_t *in,
                     const std::uint8_t *base, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 2)
        storeWord16(out + i, zdrDecodeWord(loadWord16(in + i),
                                           loadWord16(base + i),
                                           zdrConst16));
}

inline void
zdrDecode32WordRange(std::uint8_t *out, const std::uint8_t *in,
                     const std::uint8_t *base, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 4)
        storeWord32(out + i, zdrDecodeWord(loadWord32(in + i),
                                           loadWord32(base + i),
                                           zdrConst32));
}

inline void
zdrDecode64WordRange(std::uint8_t *out, const std::uint8_t *in,
                     const std::uint8_t *base, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 8)
        storeWord64(out + i, zdrDecodeWord(loadWord64(in + i),
                                           loadWord64(base + i),
                                           zdrConst64));
}

/** DBI-DC encode one group (invert iff popcount > group_bits / 2). */
inline void
dbiEncodeGroupWord(std::uint8_t *group, std::uint8_t *meta_out,
                   std::size_t group_bytes)
{
    const std::size_t ones = popcountBytes({group, group_bytes});
    const bool invert = ones > group_bytes * 4;
    if (invert) {
        for (std::size_t i = 0; i < group_bytes; ++i)
            group[i] = static_cast<std::uint8_t>(~group[i]);
    }
    *meta_out = invert ? 1 : 0;
}

inline void
dbiDecodeGroupWord(std::uint8_t *group, std::uint8_t meta,
                   std::size_t group_bytes)
{
    if (meta == 0)
        return;
    for (std::size_t i = 0; i < group_bytes; ++i)
        group[i] = static_cast<std::uint8_t>(~group[i]);
}

inline void
dbiEncodePlaneWord(std::uint8_t *data, std::uint8_t *meta,
                   std::size_t groups, std::size_t group_bytes)
{
    for (std::size_t g = 0; g < groups; ++g)
        dbiEncodeGroupWord(data + g * group_bytes, meta + g, group_bytes);
}

inline void
dbiDecodePlaneWord(std::uint8_t *data, const std::uint8_t *meta,
                   std::size_t groups, std::size_t group_bytes)
{
    for (std::size_t g = 0; g < groups; ++g)
        dbiDecodeGroupWord(data + g * group_bytes, meta[g], group_bytes);
}

inline std::uint64_t
popcountWordRange(const std::uint8_t *src, std::size_t n)
{
    std::uint64_t count = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        count += static_cast<std::uint64_t>(popcount64(loadWord64(src + i)));
    for (; i < n; ++i)
        count += static_cast<std::uint64_t>(
            popcount64(static_cast<std::uint64_t>(src[i])));
    return count;
}

inline std::uint64_t
popcountXorWordRange(const std::uint8_t *a, const std::uint8_t *b,
                     std::size_t n)
{
    std::uint64_t count = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        count += static_cast<std::uint64_t>(
            popcount64(loadWord64(a + i) ^ loadWord64(b + i)));
    for (; i < n; ++i)
        count += static_cast<std::uint64_t>(
            popcount64(static_cast<std::uint64_t>(a[i] ^ b[i])));
    return count;
}

/** Eight one-byte values (any nonzero byte = 1) packed into one byte,
 *  value j in bit j. */
inline std::uint8_t
packByteWord(std::uint64_t values)
{
    // OR every byte's bits down into its bit 0 (no shift here reaches
    // the bit 0 of the byte below), then gather bit 0 of byte j at bit
    // 56 + j with one multiply: the partial products never collide.
    std::uint64_t x = values | (values >> 4);
    x |= x >> 2;
    x |= x >> 1;
    x &= 0x0101010101010101ull;
    return static_cast<std::uint8_t>((x * 0x0102040810204080ull) >> 56);
}

/** One packed byte spread into eight 0/1 bytes, bit j into byte j. */
inline std::uint64_t
unpackByteWord(std::uint8_t packed)
{
    const std::uint64_t picked =
        (packed * 0x0101010101010101ull) & 0x8040201008040201ull;
    // Adding 0x7f carries a byte's one set bit (at most 0x80) into its
    // bit 7 without overflowing into the next byte.
    return ((picked + 0x7f7f7f7f7f7f7f7full) >> 7) & 0x0101010101010101ull;
}

/** Pack @p n values into ceil(n / 8) bytes, LSB-first; the unused high
 *  bits of a partial last byte are zero. */
inline void
packBitsRunWord(std::uint8_t *packed, const std::uint8_t *bits,
                std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        packed[i / 8] = packByteWord(loadWord64(bits + i));
    if (i < n) {
        unsigned last = 0;
        for (std::size_t j = 0; i + j < n; ++j)
            last |= (bits[i + j] != 0 ? 1u : 0u) << j;
        packed[i / 8] = static_cast<std::uint8_t>(last);
    }
}

/** Unpack @p n LSB-first bits into @p n 0/1 bytes. */
inline void
unpackBitsRunWord(std::uint8_t *bits, const std::uint8_t *packed,
                  std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeWord64(bits + i, unpackByteWord(packed[i / 8]));
    for (; i < n; ++i)
        bits[i] = static_cast<std::uint8_t>((packed[i / 8] >> (i % 8)) & 1u);
}

/**
 * KernelTable::packBits over a level's run packer: rows that tile a
 * contiguous bit plane (whole bytes, no padding) pack in one call,
 * others one row at a time with their padding bytes zeroed.
 */
template <auto Run>
void
packRows(std::uint8_t *packed, const std::uint8_t *bits, std::size_t count,
         std::size_t bits_per_row, std::size_t row_bytes)
{
    const std::size_t used = (bits_per_row + 7) / 8;
    if (bits_per_row % 8 == 0 && row_bytes == used) {
        Run(packed, bits, count * bits_per_row);
        return;
    }
    for (std::size_t r = 0; r < count; ++r) {
        std::uint8_t *row = packed + r * row_bytes;
        Run(row, bits + r * bits_per_row, bits_per_row);
        std::memset(row + used, 0, row_bytes - used);
    }
}

/** KernelTable::unpackBits over a level's run unpacker (see packRows). */
template <auto Run>
void
unpackRows(std::uint8_t *bits, const std::uint8_t *packed,
           std::size_t count, std::size_t bits_per_row,
           std::size_t row_bytes)
{
    if (bits_per_row % 8 == 0 && row_bytes == bits_per_row / 8) {
        Run(bits, packed, count * bits_per_row);
        return;
    }
    for (std::size_t r = 0; r < count; ++r)
        Run(bits + r * bits_per_row, packed + r * row_bytes, bits_per_row);
}

/**
 * Word-width lane remaps for the shape-generic codec-level kernels
 * below: @p lane is the ZDR lane width in bytes (2/4/8/16), or 0 for
 * plain XOR. @p out may alias @p in but not @p base.
 */
struct WordLanes
{
    static void remap(std::uint8_t *out, const std::uint8_t *in,
                      const std::uint8_t *base, std::size_t n,
                      std::size_t lane, bool encode)
    {
        switch (lane) {
        case 0:
            xorWordRange(out, in, base, n);
            return;
        case 2:
            (encode ? zdrEncode16WordRange : zdrDecode16WordRange)(
                out, in, base, n);
            return;
        case 4:
            (encode ? zdrEncode32WordRange : zdrDecode32WordRange)(
                out, in, base, n);
            return;
        case 8:
            (encode ? zdrEncode64WordRange : zdrDecode64WordRange)(
                out, in, base, n);
            return;
        default:
            for (std::size_t off = 0; off < n; off += lane)
                (encode ? zdrLaneEncode : zdrLaneDecode)(
                    out + off, in + off, base + off, lane);
        }
    }
};

/**
 * Universal fold (@p encode) or unfold of any geometry, one transaction
 * and one stage at a time over Lanes::remap. The stage-by-stage form of
 * KernelTable::universalFold; the vector levels reach it for the shapes
 * they do not hold in registers.
 */
template <typename Lanes>
void
universalFoldGeneric(std::uint8_t *out, const std::uint8_t *in,
                     std::size_t count, std::size_t tx_bytes,
                     unsigned stages, std::size_t zdr_lane, bool encode)
{
    if (count == 0)
        return;
    if (out != in)
        std::memcpy(out, in, count * tx_bytes);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint8_t *slice = out + i * tx_bytes;
        for (unsigned k = 0; k < stages; ++k) {
            // Encode folds outermost first; decode restores the
            // innermost prefix first, since every outer stage's base is
            // that prefix.
            const unsigned s = encode ? k : stages - 1 - k;
            const std::size_t half = tx_bytes >> (s + 1);
            const std::size_t lane =
                zdr_lane == 0 ? 0 : std::min(zdr_lane, half);
            Lanes::remap(slice + half, slice + half, slice, half, lane,
                         encode);
        }
    }
}

/** Adjacent-base Base+XOR decode, one element at a time per
 *  transaction (the serial form of KernelTable::baseXorDecode). */
template <typename Lanes>
void
baseXorDecodeGeneric(std::uint8_t *out, const std::uint8_t *in,
                     std::size_t count, std::size_t tx_bytes,
                     std::size_t base_bytes, bool zdr)
{
    if (count == 0)
        return;
    if (out != in)
        std::memcpy(out, in, count * tx_bytes);
    const std::size_t lane = zdr ? base_bytes : 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint8_t *tx = out + i * tx_bytes;
        for (std::size_t off = base_bytes; off < tx_bytes; off += base_bytes)
            Lanes::remap(tx + off, tx + off, tx + off - base_bytes,
                         base_bytes, lane, /*encode=*/false);
    }
}

inline void
universalFoldWord(std::uint8_t *out, const std::uint8_t *in,
                  std::size_t count, std::size_t tx_bytes, unsigned stages,
                  std::size_t zdr_lane)
{
    universalFoldGeneric<WordLanes>(out, in, count, tx_bytes, stages,
                                    zdr_lane, /*encode=*/true);
}

inline void
universalUnfoldWord(std::uint8_t *out, const std::uint8_t *in,
                    std::size_t count, std::size_t tx_bytes,
                    unsigned stages, std::size_t zdr_lane)
{
    universalFoldGeneric<WordLanes>(out, in, count, tx_bytes, stages,
                                    zdr_lane, /*encode=*/false);
}

inline void
baseXorDecodeWord(std::uint8_t *out, const std::uint8_t *in,
                  std::size_t count, std::size_t tx_bytes,
                  std::size_t base_bytes, bool zdr)
{
    baseXorDecodeGeneric<WordLanes>(out, in, count, tx_bytes, base_bytes,
                                    zdr);
}

/**
 * Universal fold geometry in 32-bit lanes, for the vector levels that
 * hold a whole 32- or 64-byte transaction in registers. The 16 entries
 * cover one 64-byte register: one 64-byte transaction, or two 32-byte
 * ones back to back.
 */
struct FoldLanes
{
    /** Lane each lane is remapped against: j ^ msb(j) within its
     *  transaction (j itself for lane 0). */
    std::array<std::uint32_t, 16> base{};
    /** Lanes at or past the effective base (the ones a fold rewrites). */
    std::uint16_t rewrite = 0;
    /** Lanes of stage s's right half. */
    std::array<std::uint16_t, 5> stage{};
};

constexpr FoldLanes
makeFoldLanes(std::size_t tx_bytes, unsigned stages)
{
    FoldLanes plan;
    const std::size_t per_tx = tx_bytes / 4;
    for (std::size_t l = 0; l < 16; ++l) {
        const std::size_t j = l % per_tx;
        const std::size_t first = l - j;
        const std::size_t msb = j == 0 ? 0 : std::size_t{1} << log2Floor(j);
        plan.base[l] = static_cast<std::uint32_t>(first + (j ^ msb));
        const auto bit = static_cast<std::uint16_t>(1u << l);
        if (4 * j >= (tx_bytes >> stages))
            plan.rewrite = static_cast<std::uint16_t>(plan.rewrite | bit);
        for (unsigned s = 0; s < stages; ++s)
            if (j >= (per_tx >> (s + 1)) && j < (per_tx >> s))
                plan.stage[s] = static_cast<std::uint16_t>(plan.stage[s] | bit);
    }
    return plan;
}

/** True when the vector levels hold this Universal geometry in
 *  registers: 32- or 64-byte transactions, an effective base of at least
 *  one 32-bit lane, and ZDR lane 4 (universal3+zdr). */
constexpr bool
foldInRegisters(std::size_t tx_bytes, unsigned stages, std::size_t zdr_lane)
{
    return (tx_bytes == 32 || tx_bytes == 64) && stages >= 1 &&
           stages <= 5 && (tx_bytes >> stages) >= 4 && zdr_lane == 4;
}

/** True when the vector levels run this adjacent-base Base+XOR decode
 *  one transaction per lane: 32- or 64-byte transactions and 4-byte
 *  bases under ZDR (xor4+zdr). */
constexpr bool
decodeInLanes(std::size_t tx_bytes, std::size_t base_bytes, bool zdr)
{
    return (tx_bytes == 32 || tx_bytes == 64) && base_bytes == 4 && zdr;
}

/** FoldLanes for a geometry foldInRegisters accepts. */
inline const FoldLanes &
foldLanes(std::size_t tx_bytes, unsigned stages)
{
    static constexpr auto plans = [] {
        std::array<std::array<FoldLanes, 5>, 2> all{};
        for (unsigned s = 1; s <= 5; ++s) {
            all[0][s - 1] = makeFoldLanes(32, s);
            all[1][s - 1] = makeFoldLanes(64, s);
        }
        return all;
    }();
    return plans[tx_bytes == 64 ? 1 : 0][stages - 1];
}

} // namespace

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * CRC32 lookup tables for the reflected IEEE polynomial 0xEDB88320.
 * tables[0] is the classic bytewise table; tables[k][i] is the CRC
 * contribution of byte i followed by k zero bytes, so eight table
 * lookups advance the CRC over eight bytes at once. Built at compile
 * time, so there is no init-order dependency.
 *
 * Unlike the functions, the table lives outside the unnamed namespace:
 * it is data, identical under every -m flag, and an inline variable
 * with external linkage is one 8 KiB copy per binary instead of one per
 * kernel TU. consteval keeps the builder from emitting code at all.
 */
consteval Crc32Tables
makeCrc32Tables()
{
    Crc32Tables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
        tables[0][i] = crc;
    }
    for (std::size_t k = 1; k < tables.size(); ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
        }
    }
    return tables;
}

inline constexpr Crc32Tables crc32Tables = makeCrc32Tables();

namespace {

/** One byte per step through tables[0]. */
inline std::uint32_t
crc32BytewiseRange(std::uint32_t crc, const std::uint8_t *p, std::size_t n)
{
    for (; n > 0; ++p, --n)
        crc = (crc >> 8) ^ crc32Tables[0][(crc ^ *p) & 0xffu];
    return crc;
}

/** Slicing-by-8: eight bytes per step, then the bytewise loop for the
 *  last 0-7 bytes. */
inline std::uint32_t
crc32SliceBy8Range(std::uint32_t crc, const std::uint8_t *p, std::size_t n)
{
    const auto &t = crc32Tables;
    for (; n >= 8; p += 8, n -= 8) {
        // Little-endian load: byte 0 of the step sits in the low bits,
        // where the reflected CRC consumes it first.
        const std::uint64_t word = loadWord64(p) ^ crc;
        const auto lo = static_cast<std::uint32_t>(word);
        const auto hi = static_cast<std::uint32_t>(word >> 32);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    return crc32BytewiseRange(crc, p, n);
}

} // namespace
} // namespace bxt::simd::detail

#endif // BXT_CORE_SIMD_KERNEL_COMMON_H
