/**
 * @file
 * Bit-manipulation utilities used throughout the encoder and channel models:
 * population counts over byte ranges, word load/store helpers, and
 * power-of-two predicates.
 */

#ifndef BXT_COMMON_BITOPS_H
#define BXT_COMMON_BITOPS_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace bxt {

/**
 * Number of set bits in a 64-bit word. std::popcount is a single POPCNT
 * only when the translation unit may use that instruction; otherwise
 * GCC and Clang lower it to an out-of-line libgcc call per word, so
 * builds without -mpopcnt count with the inline SWAR reduction instead.
 */
constexpr int
popcount64(std::uint64_t value)
{
#if defined(__POPCNT__)
    return std::popcount(value);
#else
    value -= (value >> 1) & 0x5555555555555555ull;
    value = (value & 0x3333333333333333ull) +
            ((value >> 2) & 0x3333333333333333ull);
    value = (value + (value >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<int>((value * 0x0101010101010101ull) >> 56);
#endif
}

/** Number of set bits in a byte range. */
inline std::size_t
popcountBytes(std::span<const std::uint8_t> bytes)
{
    std::size_t count = 0;
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes.data() + i, 8);
        count += static_cast<std::size_t>(popcount64(word));
    }
    for (; i < bytes.size(); ++i)
        count += static_cast<std::size_t>(popcount64(bytes[i]));
    return count;
}

/** True iff @p value is a power of two (zero is not). */
constexpr bool
isPowerOfTwo(std::size_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Floor of log2; @p value must be nonzero. */
constexpr unsigned
log2Floor(std::size_t value)
{
    unsigned result = 0;
    while (value >>= 1)
        ++result;
    return result;
}

/** Load a little-endian 64-bit word from @p src (unaligned safe). */
inline std::uint64_t
loadWord64(const std::uint8_t *src)
{
    std::uint64_t word;
    std::memcpy(&word, src, 8);
    return word;
}

/** Store a little-endian 64-bit word to @p dst (unaligned safe). */
inline void
storeWord64(std::uint8_t *dst, std::uint64_t word)
{
    std::memcpy(dst, &word, 8);
}

/** Load a little-endian 32-bit word from @p src (unaligned safe). */
inline std::uint32_t
loadWord32(const std::uint8_t *src)
{
    std::uint32_t word;
    std::memcpy(&word, src, 4);
    return word;
}

/** Store a little-endian 32-bit word to @p dst (unaligned safe). */
inline void
storeWord32(std::uint8_t *dst, std::uint32_t word)
{
    std::memcpy(dst, &word, 4);
}

/** XOR @p n bytes of @p src into @p dst (dst ^= src). */
inline void
xorBytes(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeWord64(dst + i, loadWord64(dst + i) ^ loadWord64(src + i));
    for (; i < n; ++i)
        dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
}

/** True iff all @p n bytes at @p src are zero. */
inline bool
allZero(const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        if (loadWord64(src + i) != 0)
            return false;
    }
    for (; i < n; ++i) {
        if (src[i] != 0)
            return false;
    }
    return true;
}

/** True iff the two @p n byte ranges are equal. */
inline bool
bytesEqual(const std::uint8_t *a, const std::uint8_t *b, std::size_t n)
{
    return std::memcmp(a, b, n) == 0;
}

/** Hamming distance (number of differing bits) between two byte ranges. */
inline std::size_t
hammingDistance(const std::uint8_t *a, const std::uint8_t *b, std::size_t n)
{
    std::size_t count = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        count += static_cast<std::size_t>(
            popcount64(loadWord64(a + i) ^ loadWord64(b + i)));
    }
    for (; i < n; ++i) {
        count += static_cast<std::size_t>(
            popcount64(static_cast<std::uint64_t>(a[i] ^ b[i])));
    }
    return count;
}

} // namespace bxt

#endif // BXT_COMMON_BITOPS_H
