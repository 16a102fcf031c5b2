/**
 * @file
 * CRC32 by carry-less multiplication: the crc32Update primitive of the
 * Avx2 tier, and the short-input path and closing steps of the Avx512
 * one. Compiled with -mpclmul -msse4.1 via a per-file
 * flag (see src/core/CMakeLists.txt); the dispatcher installs the x86
 * tiers only when CPUID reports PCLMULQDQ and SSE4.1 as well.
 *
 * The fold follows Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
 * bit-reflected domain of the IEEE polynomial, so the result equals the
 * table CRC bit for bit. Four 128-bit accumulators take 64 bytes per
 * step: each 64-bit half is carry-less multiplied by a power of x mod P
 * that shifts it 512 bits ahead, and the products are XORed with the
 * next 64 bytes. The four then fold into one with the 128-bit-distance
 * pair, which also takes any further 16-byte blocks. The 128-bit
 * remainder folds to 64 and then 32 bits, and a Barrett reduction
 * yields the CRC.
 *
 * Inputs under 64 bytes, and the last 0-15 bytes of longer ones, go
 * through slicing-by-8 (kernel_common.h).
 */

#include "core/simd/kernels.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__) && defined(__x86_64__)

#include <immintrin.h>

#include "core/simd/kernel_common.h"

namespace bxt::simd::detail {

namespace {

inline __m128i
load128(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** acc * x^(fold distance) mod P, XORed with the next block. */
inline __m128i
fold(__m128i acc, __m128i constants, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(acc, constants, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(acc, constants, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/**
 * The CRC, from a zero register, of the 64 bytes held in x0..x3 (lane i
 * standing for bytes 16i..16i+15) followed by @p n bytes at @p p.
 */
std::uint32_t
crc32FoldFinish(__m128i x0, __m128i x1, __m128i x2, __m128i x3,
                const std::uint8_t *p, std::size_t n)
{
    const __m128i k1 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    x0 = fold(x0, k1, x1);
    x0 = fold(x0, k1, x2);
    x0 = fold(x0, k1, x3);
    for (; n >= 16; p += 16, n -= 16)
        x0 = fold(x0, k1, load128(p));

    // 128 -> 64 bits: fold the low half into the high half.
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k1, 0x10));
    // 64 -> 32 bits: fold the low 32 bits into the rest.
    x0 = _mm_xor_si128(
        _mm_srli_si128(x0, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                             _mm_cvtsi64_si128(0x0163cd6124), 0x00));
    // Barrett: q = (r mod x^32) * mu, then r ^ (q mod x^32) * P', with
    // P' in the low qword and mu = floor(x^64 / P) in the high one.
    const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett,
                                     0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
    const auto crc = static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
    return crc32SliceBy8Range(crc, p, n);
}

} // namespace

std::uint32_t
crc32UpdateClmul(std::uint32_t crc, const std::uint8_t *p, std::size_t n)
{
    if (n < 64)
        return crc32SliceBy8Range(crc, p, n);
    __m128i x0 = _mm_xor_si128(load128(p),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x1 = load128(p + 16);
    __m128i x2 = load128(p + 32);
    __m128i x3 = load128(p + 48);
    p += 64;
    n -= 64;

    // Reflected constants for 0x04C11DB7 from the paper's appendix. In
    // each pair the low qword multiplies an accumulator's low half and
    // the high qword its high half.
    const __m128i k4 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    for (; n >= 64; p += 64, n -= 64) {
        x0 = fold(x0, k4, load128(p));
        x1 = fold(x1, k4, load128(p + 16));
        x2 = fold(x2, k4, load128(p + 32));
        x3 = fold(x3, k4, load128(p + 48));
    }
    return crc32FoldFinish(x0, x1, x2, x3, p, n);
}

std::uint32_t
crc32FinishClmul(const std::uint8_t *folded, const std::uint8_t *p,
                 std::size_t n)
{
    return crc32FoldFinish(load128(folded), load128(folded + 16),
                           load128(folded + 32), load128(folded + 48), p, n);
}

} // namespace bxt::simd::detail

#endif
