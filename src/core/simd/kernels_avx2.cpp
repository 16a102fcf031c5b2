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

/** zdrEncodeWord over every 32-bit lane of @p v against @p b. */
inline __m256i
zdrEncode32Vec(__m256i v, __m256i b, __m256i c)
{
    const __m256i x = _mm256_xor_si256(v, b);
    const __m256i is_zero = _mm256_cmpeq_epi32(v, _mm256_setzero_si256());
    const __m256i is_c = _mm256_cmpeq_epi32(x, c);
    const __m256i r = _mm256_blendv_epi8(x, b, is_c);
    return _mm256_blendv_epi8(r, c, is_zero);
}

/** zdrDecodeWord over every 32-bit lane of @p v against @p b. */
inline __m256i
zdrDecode32Vec(__m256i v, __m256i b, __m256i c)
{
    const __m256i is_c = _mm256_cmpeq_epi32(v, c);
    const __m256i is_b = _mm256_cmpeq_epi32(v, b);
    const __m256i r = _mm256_blendv_epi8(_mm256_xor_si256(v, b),
                                         _mm256_xor_si256(b, c), is_b);
    return _mm256_blendv_epi8(r, _mm256_setzero_si256(), is_c);
}

void
zdrEncode32Avx2(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const __m256i c =
        _mm256_set1_epi32(static_cast<int>(zdrConst32));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
        store256(out + i,
                 zdrEncode32Vec(load256(in + i), load256(base + i), c));
    zdrEncode32WordRange(out + i, in + i, base + i, n - i);
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

// ---- Codec-level kernels: each transaction held in registers ----

/** All-ones 32-bit lanes where bit l of @p bits (l < 8) is set. */
inline __m256i
laneMask256(unsigned bits)
{
    const __m256i pick = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i set =
        _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), pick);
    return _mm256_cmpeq_epi32(set, pick);
}

/**
 * Universal fold/unfold at ZDR lane 4 with each transaction's first 32
 * bytes in one register. A 64-byte transaction's right 32 bytes are
 * stage 0's right half, remapped against the whole first register.
 */
template <bool Encode>
void
universalLanes256(std::uint8_t *out, const std::uint8_t *in,
                  std::size_t count, std::size_t tx_bytes, unsigned stages)
{
    const FoldLanes &plan = foldLanes(tx_bytes, stages);
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(plan.base.data()));
    const __m256i c = _mm256_set1_epi32(static_cast<int>(zdrConst32));
    const __m256i rewrite = laneMask256(plan.rewrite & 0xffu);
    __m256i stage[5];
    for (unsigned s = 0; s < 5; ++s)
        stage[s] = laneMask256(plan.stage[s] & 0xffu);
    const bool wide = tx_bytes == 64;
    for (std::size_t t = 0; t < count; ++t) {
        const std::uint8_t *src = in + t * tx_bytes;
        std::uint8_t *dst = out + t * tx_bytes;
        __m256i lo = load256(src);
        if constexpr (Encode) {
            // Every base is an original lane: one remap against the
            // permuted register, keeping the effective-base lanes.
            if (wide)
                store256(dst + 32, zdrEncode32Vec(load256(src + 32), lo, c));
            const __m256i b = _mm256_permutevar8x32_epi32(lo, idx);
            store256(dst, _mm256_blendv_epi8(lo, zdrEncode32Vec(lo, b, c),
                                             rewrite));
        } else {
            // Innermost stage first, each against the restored prefix.
            for (unsigned s = stages; s-- > 0;) {
                if ((plan.stage[s] & 0xffu) == 0)
                    continue; // stage 0 of a 64-byte transaction
                const __m256i b = _mm256_permutevar8x32_epi32(lo, idx);
                lo = _mm256_blendv_epi8(lo, zdrDecode32Vec(lo, b, c),
                                        stage[s]);
            }
            store256(dst, lo);
            if (wide)
                store256(dst + 32, zdrDecode32Vec(load256(src + 32), lo, c));
        }
    }
}

void
universalFoldAvx2(std::uint8_t *out, const std::uint8_t *in,
                  std::size_t count, std::size_t tx_bytes, unsigned stages,
                  std::size_t zdr_lane)
{
    if (foldInRegisters(tx_bytes, stages, zdr_lane))
        universalLanes256<true>(out, in, count, tx_bytes, stages);
    else
        universalFoldWord(out, in, count, tx_bytes, stages, zdr_lane);
}

void
universalUnfoldAvx2(std::uint8_t *out, const std::uint8_t *in,
                    std::size_t count, std::size_t tx_bytes,
                    unsigned stages, std::size_t zdr_lane)
{
    if (foldInRegisters(tx_bytes, stages, zdr_lane))
        universalLanes256<false>(out, in, count, tx_bytes, stages);
    else
        universalUnfoldWord(out, in, count, tx_bytes, stages, zdr_lane);
}

/** Transposes the 8x8 32-bit matrix r[0..7] (an involution: the same
 *  call transposes back). */
inline void
transpose8x32(__m256i *r)
{
    __m256i t[8];
    for (int k = 0; k < 8; k += 2) {
        t[k] = _mm256_unpacklo_epi32(r[k], r[k + 1]);
        t[k + 1] = _mm256_unpackhi_epi32(r[k], r[k + 1]);
    }
    __m256i u[8];
    for (int k = 0; k < 8; k += 4) {
        u[k] = _mm256_unpacklo_epi64(t[k], t[k + 2]);
        u[k + 1] = _mm256_unpackhi_epi64(t[k], t[k + 2]);
        u[k + 2] = _mm256_unpacklo_epi64(t[k + 1], t[k + 3]);
        u[k + 3] = _mm256_unpackhi_epi64(t[k + 1], t[k + 3]);
    }
    // u[k] (k < 4) holds columns k and k+4 of rows 0-3; u[k+4] the same
    // columns of rows 4-7.
    for (int k = 0; k < 4; ++k) {
        r[k] = _mm256_permute2x128_si256(u[k], u[k + 4], 0x20);
        r[k + 4] = _mm256_permute2x128_si256(u[k], u[k + 4], 0x31);
    }
}

/**
 * 4-byte-base ZDR decode of 8 transactions of @p tx_bytes (32 or 64):
 * per 32-byte chunk, the transpose puts element e of every transaction
 * in one register, so the serial e-1 -> e chain runs as whole-register
 * steps; a chunk's last element carries into the next chunk.
 */
void
baseXorDecodeBlock256(std::uint8_t *out, const std::uint8_t *in,
                      std::size_t tx_bytes)
{
    const __m256i c = _mm256_set1_epi32(static_cast<int>(zdrConst32));
    __m256i carry = _mm256_setzero_si256();
    for (std::size_t off = 0; off < tx_bytes; off += 32) {
        __m256i r[8];
        for (std::size_t k = 0; k < 8; ++k)
            r[k] = load256(in + k * tx_bytes + off);
        transpose8x32(r);
        for (std::size_t e = off == 0 ? 1 : 0; e < 8; ++e)
            r[e] = zdrDecode32Vec(r[e], e == 0 ? carry : r[e - 1], c);
        carry = r[7];
        transpose8x32(r);
        for (std::size_t k = 0; k < 8; ++k)
            store256(out + k * tx_bytes + off, r[k]);
    }
}

void
baseXorDecodeAvx2(std::uint8_t *out, const std::uint8_t *in,
                  std::size_t count, std::size_t tx_bytes,
                  std::size_t base_bytes, bool zdr)
{
    if (!decodeInLanes(tx_bytes, base_bytes, zdr)) {
        baseXorDecodeWord(out, in, count, tx_bytes, base_bytes, zdr);
        return;
    }
    std::size_t t = 0;
    for (; t + 8 <= count; t += 8)
        baseXorDecodeBlock256(out + t * tx_bytes, in + t * tx_bytes,
                              tx_bytes);
    if (t == count)
        return;
    // The last partial block runs through a zero-padded tile.
    alignas(32) std::uint8_t tile[8 * 64];
    const std::size_t bytes = (count - t) * tx_bytes;
    std::memcpy(tile, in + t * tx_bytes, bytes);
    std::memset(tile + bytes, 0, 8 * tx_bytes - bytes);
    baseXorDecodeBlock256(tile, tile, tx_bytes);
    std::memcpy(out + t * tx_bytes, tile, bytes);
}

} // namespace

const KernelTable *
avx2TableOrNull()
{
    static const KernelTable table = {
        Level::Avx2,
        xorWordRange,
        zdrEncode16WordRange,
        zdrEncode32Avx2,
        zdrEncode64WordRange,
        dbiEncodePlaneAvx2,
        dbiDecodePlaneAvx2,
        popcountRangeAvx2,
        popcountXorWordRange,
        universalFoldAvx2,
        universalUnfoldAvx2,
        baseXorDecodeAvx2,
        crc32UpdateClmul,
        packRows<packBitsRunWord>,
        unpackRows<unpackBitsRunWord>,
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
