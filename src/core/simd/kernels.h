/**
 * @file
 * Internal: per-tier kernel table accessors for the dispatcher.
 *
 * The Word table is always available and is the floor of the dispatch
 * ladder; the byte-at-a-time references every table is tested against
 * live in src/verify, outside the dispatch layer. The vector translation
 * units are always part of the build; when the toolchain or target
 * architecture cannot produce a tier (no -mavx2 support, non-x86
 * target), the TU compiles to a stub whose accessor returns nullptr.
 * The dispatcher combines these link-time nulls with runtime CPUID
 * checks to decide what is actually installable.
 */

#ifndef BXT_CORE_SIMD_KERNELS_H
#define BXT_CORE_SIMD_KERNELS_H

#include "core/simd/simd.h"

namespace bxt::simd::detail {

/** Always available: the fallback for every unsupported request. */
const KernelTable &wordTable();

/** Null when the binary was built without the tier's instructions. */
const KernelTable *avx2TableOrNull();
const KernelTable *avx512TableOrNull();

/**
 * CRC32 by PCLMULQDQ folding (kernels_clmul.cpp): the crc32Update entry
 * of the Avx2 tier, and the Avx512 tier's path for inputs under 256
 * bytes. Defined only in builds whose x86 tables are real; the
 * dispatcher installs those only on CPUs with PCLMULQDQ.
 */
std::uint32_t crc32UpdateClmul(std::uint32_t crc, const std::uint8_t *p,
                               std::size_t n);

/**
 * The closing steps of the same fold: the CRC, from a zero register, of
 * the 64 bytes at @p folded followed by @p n bytes at @p p. A wider fold
 * stores its one remaining 512-bit accumulator at @p folded (four
 * 128-bit lanes, lane i at byte 16i) and finishes here.
 */
std::uint32_t crc32FinishClmul(const std::uint8_t *folded,
                               const std::uint8_t *p, std::size_t n);

/** Runtime CPU support for the x86 tiers (always false off-x86). */
bool cpuHasAvx2();
bool cpuHasAvx512();

} // namespace bxt::simd::detail

#endif // BXT_CORE_SIMD_KERNELS_H
