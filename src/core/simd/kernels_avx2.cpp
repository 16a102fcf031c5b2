/**
 * @file
 * AVX2 tier. Compiled with -mavx2 via a per-file flag (see
 * src/core/CMakeLists.txt); when the toolchain or target cannot build
 * it the TU degrades to a stub returning nullptr, and the dispatcher
 * additionally gates installation on runtime CPUID support.
 *
 * Byte popcounts use the Mula pshufb nibble-LUT with _mm256_sad_epu8 /
 * maddubs reductions (AVX2 has no vector popcount instruction); ZDR
 * lane remaps are branchless compare-and-blend chains whose blend order
 * reproduces the scalar precedence (zero-lane wins on encode, the
 * constant lane wins on decode).
 */

#include "core/simd/kernels.h"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include "core/simd/kernel_common.h"

namespace bxt::simd::detail {

namespace {

inline __m256i
load256(const std::uint8_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
store256(std::uint8_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** Per-byte popcount (Mula): nibble LUT via pshufb, summed per byte. */
inline __m256i
popcountBytes256(__m256i v)
{
    const __m256i lut =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

inline std::uint64_t
reduceAdd64(__m256i acc)
{
    const __m128i lo = _mm256_castsi256_si128(acc);
    const __m128i hi = _mm256_extracti128_si256(acc, 1);
    const __m128i sum = _mm_add_epi64(lo, hi);
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(sum)) +
           static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

void
xorRangeAvx2(std::uint8_t *out, const std::uint8_t *in,
             const std::uint8_t *base, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
        store256(out + i,
                 _mm256_xor_si256(load256(in + i), load256(base + i)));
    xorWordRange(out + i, in + i, base + i, n - i);
}

void
zdrEncode16Avx2(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i c = _mm256_set1_epi16(
        static_cast<short>(zdrConst16));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = load256(in + i);
        const __m256i b = load256(base + i);
        const __m256i x = _mm256_xor_si256(v, b);
        const __m256i is_zero = _mm256_cmpeq_epi16(v, zero);
        const __m256i is_c = _mm256_cmpeq_epi16(x, c);
        __m256i r = _mm256_blendv_epi8(x, b, is_c);
        r = _mm256_blendv_epi8(r, c, is_zero);
        store256(out + i, r);
    }
    zdrEncode16WordRange(out + i, in + i, base + i, n - i);
}

void
zdrEncode32Avx2(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i c =
        _mm256_set1_epi32(static_cast<int>(zdrConst32));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = load256(in + i);
        const __m256i b = load256(base + i);
        const __m256i x = _mm256_xor_si256(v, b);
        const __m256i is_zero = _mm256_cmpeq_epi32(v, zero);
        const __m256i is_c = _mm256_cmpeq_epi32(x, c);
        __m256i r = _mm256_blendv_epi8(x, b, is_c);
        r = _mm256_blendv_epi8(r, c, is_zero);
        store256(out + i, r);
    }
    zdrEncode32WordRange(out + i, in + i, base + i, n - i);
}

void
zdrEncode64Avx2(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i c = _mm256_set1_epi64x(
        static_cast<long long>(zdrConst64));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = load256(in + i);
        const __m256i b = load256(base + i);
        const __m256i x = _mm256_xor_si256(v, b);
        const __m256i is_zero = _mm256_cmpeq_epi64(v, zero);
        const __m256i is_c = _mm256_cmpeq_epi64(x, c);
        __m256i r = _mm256_blendv_epi8(x, b, is_c);
        r = _mm256_blendv_epi8(r, c, is_zero);
        store256(out + i, r);
    }
    zdrEncode64WordRange(out + i, in + i, base + i, n - i);
}

void
zdrDecode16Avx2(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i c = _mm256_set1_epi16(
        static_cast<short>(zdrConst16));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = load256(in + i);
        const __m256i b = load256(base + i);
        const __m256i x = _mm256_xor_si256(v, b);
        const __m256i is_c = _mm256_cmpeq_epi16(v, c);
        const __m256i is_b = _mm256_cmpeq_epi16(v, b);
        __m256i r = _mm256_blendv_epi8(x, _mm256_xor_si256(b, c), is_b);
        r = _mm256_blendv_epi8(r, zero, is_c);
        store256(out + i, r);
    }
    zdrDecode16WordRange(out + i, in + i, base + i, n - i);
}

void
zdrDecode32Avx2(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i c =
        _mm256_set1_epi32(static_cast<int>(zdrConst32));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = load256(in + i);
        const __m256i b = load256(base + i);
        const __m256i x = _mm256_xor_si256(v, b);
        const __m256i is_c = _mm256_cmpeq_epi32(v, c);
        const __m256i is_b = _mm256_cmpeq_epi32(v, b);
        __m256i r = _mm256_blendv_epi8(x, _mm256_xor_si256(b, c), is_b);
        r = _mm256_blendv_epi8(r, zero, is_c);
        store256(out + i, r);
    }
    zdrDecode32WordRange(out + i, in + i, base + i, n - i);
}

void
zdrDecode64Avx2(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i c = _mm256_set1_epi64x(
        static_cast<long long>(zdrConst64));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = load256(in + i);
        const __m256i b = load256(base + i);
        const __m256i x = _mm256_xor_si256(v, b);
        const __m256i is_c = _mm256_cmpeq_epi64(v, c);
        const __m256i is_b = _mm256_cmpeq_epi64(v, b);
        __m256i r = _mm256_blendv_epi8(x, _mm256_xor_si256(b, c), is_b);
        r = _mm256_blendv_epi8(r, zero, is_c);
        store256(out + i, r);
    }
    zdrDecode64WordRange(out + i, in + i, base + i, n - i);
}

void
dbiEncodePlaneAvx2(std::uint8_t *data, std::uint8_t *meta,
                   std::size_t groups, std::size_t group_bytes)
{
    const std::size_t per_vec = 32 / group_bytes;
    const __m256i one = _mm256_set1_epi8(1);
    std::size_t g = 0;
    for (; g + per_vec <= groups; g += per_vec) {
        std::uint8_t *block = data + g * group_bytes;
        const __m256i v = load256(block);
        const __m256i cnt = popcountBytes256(v);
        __m256i mask;
        if (group_bytes == 1) {
            mask = _mm256_cmpgt_epi8(cnt, _mm256_set1_epi8(4));
            store256(meta + g, _mm256_and_si256(mask, one));
        } else if (group_bytes == 2) {
            const __m256i sums = _mm256_maddubs_epi16(cnt, one);
            mask = _mm256_cmpgt_epi16(sums, _mm256_set1_epi16(8));
            const __m128i lo = _mm256_castsi256_si128(mask);
            const __m128i hi = _mm256_extracti128_si256(mask, 1);
            const __m128i bytes = _mm_and_si128(_mm_packs_epi16(lo, hi),
                                                _mm_set1_epi8(1));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(meta + g), bytes);
        } else if (group_bytes == 4) {
            const __m256i sums16 = _mm256_maddubs_epi16(cnt, one);
            const __m256i sums =
                _mm256_madd_epi16(sums16, _mm256_set1_epi16(1));
            mask = _mm256_cmpgt_epi32(sums, _mm256_set1_epi32(16));
            const __m128i lo = _mm256_castsi256_si128(mask);
            const __m128i hi = _mm256_extracti128_si256(mask, 1);
            const __m128i words = _mm_packs_epi32(lo, hi);
            const __m128i bytes =
                _mm_and_si128(_mm_packs_epi16(words, _mm_setzero_si128()),
                              _mm_set1_epi8(1));
            _mm_storel_epi64(reinterpret_cast<__m128i *>(meta + g), bytes);
        } else { // group_bytes == 8
            const __m256i sums =
                _mm256_sad_epu8(cnt, _mm256_setzero_si256());
            mask = _mm256_cmpgt_epi64(sums, _mm256_set1_epi64x(32));
            alignas(32) std::uint64_t lanes[4];
            store256(reinterpret_cast<std::uint8_t *>(lanes), mask);
            for (std::size_t j = 0; j < 4; ++j)
                meta[g + j] = static_cast<std::uint8_t>(lanes[j] & 1);
        }
        store256(block, _mm256_xor_si256(v, mask));
    }
    dbiEncodePlaneWord(data + g * group_bytes, meta + g, groups - g,
                       group_bytes);
}

void
dbiDecodePlaneAvx2(std::uint8_t *data, const std::uint8_t *meta,
                   std::size_t groups, std::size_t group_bytes)
{
    const std::size_t per_vec = 32 / group_bytes;
    const __m256i zero = _mm256_setzero_si256();
    std::size_t g = 0;
    for (; g + per_vec <= groups; g += per_vec) {
        std::uint8_t *block = data + g * group_bytes;
        __m256i mask;
        if (group_bytes == 1) {
            mask = _mm256_cmpgt_epi8(load256(meta + g), zero);
        } else if (group_bytes == 2) {
            const __m128i bytes = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(meta + g));
            mask = _mm256_cmpgt_epi16(_mm256_cvtepu8_epi16(bytes), zero);
        } else if (group_bytes == 4) {
            const __m128i bytes = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(meta + g));
            mask = _mm256_cmpgt_epi32(_mm256_cvtepu8_epi32(bytes), zero);
        } else { // group_bytes == 8
            std::uint32_t four;
            std::memcpy(&four, meta + g, 4);
            const __m128i bytes = _mm_cvtsi32_si128(
                static_cast<int>(four));
            mask = _mm256_cmpgt_epi64(_mm256_cvtepu8_epi64(bytes), zero);
        }
        store256(block, _mm256_xor_si256(load256(block), mask));
    }
    dbiDecodePlaneWord(data + g * group_bytes, meta + g, groups - g,
                       group_bytes);
}

std::uint64_t
popcountRangeAvx2(const std::uint8_t *src, std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    const __m256i zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(popcountBytes256(load256(src + i)), zero));
    return reduceAdd64(acc) + popcountWordRange(src + i, n - i);
}

std::uint64_t
popcountXorRangeAvx2(const std::uint8_t *a, const std::uint8_t *b,
                     std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    const __m256i zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i x = _mm256_xor_si256(load256(a + i), load256(b + i));
        acc = _mm256_add_epi64(acc,
                               _mm256_sad_epu8(popcountBytes256(x), zero));
    }
    return reduceAdd64(acc) + popcountXorWordRange(a + i, b + i, n - i);
}

} // namespace

const KernelTable *
avx2TableOrNull()
{
    static const KernelTable table = {
        Level::Avx2,
        xorRangeAvx2,
        zdrEncode16Avx2,
        zdrEncode32Avx2,
        zdrEncode64Avx2,
        zdrDecode16Avx2,
        zdrDecode32Avx2,
        zdrDecode64Avx2,
        dbiEncodePlaneAvx2,
        dbiDecodePlaneAvx2,
        popcountRangeAvx2,
        popcountXorRangeAvx2,
        crc32UpdateClmul,
    };
    return &table;
}

} // namespace bxt::simd::detail

#else // !(__AVX2__ && __x86_64__)

namespace bxt::simd::detail {

const KernelTable *
avx2TableOrNull()
{
    return nullptr;
}

} // namespace bxt::simd::detail

#endif
