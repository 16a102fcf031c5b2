/**
 * @file
 * CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to integrity-
 * check frames on the bxtd wire protocol. Slicing-by-8: eight lookup
 * tables fold eight input bytes per step, and a bytewise loop over the
 * first table finishes the last 0-7 bytes. The tables are built at
 * compile time, so there is no init-order dependency and no runtime
 * dispatch; the result is the same as the one-byte-per-step table
 * algorithm for every input.
 */

#ifndef BXT_COMMON_CHECKSUM_H
#define BXT_COMMON_CHECKSUM_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bitops.h"

namespace bxt {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * tables[0] is the classic bytewise table; tables[k][i] is the CRC
 * contribution of byte i followed by k zero bytes, so eight table
 * lookups advance the CRC over eight bytes at once.
 */
constexpr Crc32Tables
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

} // namespace detail

/**
 * Update a running CRC32 with @p bytes. Start from crc32Init, finish with
 * crc32Final; `crc32Final(crc32Update(crc32Init, data))` is the standard
 * zlib/PNG CRC-32 of `data`, for any split of `data` into updates.
 */
constexpr std::uint32_t crc32Init = 0xffffffffu;

inline std::uint32_t
crc32Update(std::uint32_t crc, std::span<const std::uint8_t> bytes)
{
    const auto &t = detail::crc32Tables;
    const std::uint8_t *p = bytes.data();
    std::size_t n = bytes.size();
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
    for (; n > 0; ++p, --n)
        crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
    return crc;
}

constexpr std::uint32_t
crc32Final(std::uint32_t crc)
{
    return crc ^ 0xffffffffu;
}

/** One-shot CRC32 of @p bytes. */
inline std::uint32_t
crc32(std::span<const std::uint8_t> bytes)
{
    return crc32Final(crc32Update(crc32Init, bytes));
}

} // namespace bxt

#endif // BXT_COMMON_CHECKSUM_H
