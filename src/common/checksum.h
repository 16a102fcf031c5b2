/**
 * @file
 * CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to integrity-
 * check frames on the bxtd wire protocol. crc32Update runs the
 * `crc32Update` primitive of the active SIMD kernel table
 * (core/simd/simd.h): a 4x512-bit VPCLMULQDQ fold on Avx512, a 4x128-bit
 * PCLMULQDQ fold on Avx2, slicing-by-8 on Word, the bytewise table loop
 * on Scalar. Every level gives
 * the standard CRC-32 for every input and every split into updates.
 *
 * crc32Update is defined in bxt_core (core/checksum.cpp), next to the
 * dispatcher, so this library carries no CPU detection of its own.
 */

#ifndef BXT_COMMON_CHECKSUM_H
#define BXT_COMMON_CHECKSUM_H

#include <cstdint>
#include <span>

namespace bxt {

/**
 * Update a running CRC32 with @p bytes. Start from crc32Init, finish with
 * crc32Final; `crc32Final(crc32Update(crc32Init, data))` is the standard
 * zlib/PNG CRC-32 of `data`, for any split of `data` into updates.
 */
constexpr std::uint32_t crc32Init = 0xffffffffu;

std::uint32_t crc32Update(std::uint32_t crc,
                          std::span<const std::uint8_t> bytes);

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
