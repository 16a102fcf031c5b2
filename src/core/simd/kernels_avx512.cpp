/**
 * @file
 * AVX-512 tier (F + BW + VL + VPOPCNTDQ together; the dispatcher treats
 * the quartet as one feature). Compiled with per-file -mavx512* flags;
 * degrades to a nullptr stub when the toolchain cannot build it.
 *
 * Dword/qword popcounts use VPOPCNTDQ directly; byte/word group sums
 * fall back to the pshufb nibble LUT (BW). Lane selection runs on
 * kmask registers: compare-to-mask, maskz_set1 to materialize invert
 * masks, and masked loads/stores to handle range tails without a
 * scalar loop.
 */

#include "core/simd/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && defined(__AVX512VPOPCNTDQ__) && \
    defined(__x86_64__)

#include <immintrin.h>

#include "core/simd/kernel_common.h"

namespace bxt::simd::detail {

namespace {

inline __m512i
load512(const std::uint8_t *p)
{
    return _mm512_loadu_si512(p);
}

inline void
store512(std::uint8_t *p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

/** Per-byte popcount via the pshufb nibble LUT (no BITALG in the set). */
inline __m512i
popcountBytes512(__m512i v)
{
    // The 16-byte nibble LUT {0,1,1,2,1,2,2,3,1,2,2,3,2,3,3,4} repeated
    // per 128-bit lane, spelled as little-endian 64-bit halves (GCC's
    // _mm512_broadcast_i32x4 expands through _mm512_undefined_epi32 and
    // trips -Wmaybe-uninitialized under -Werror).
    const long long lut_lo = 0x0302020102010100ll;
    const long long lut_hi = 0x0403030203020201ll;
    const __m512i lut = _mm512_set_epi64(lut_hi, lut_lo, lut_hi, lut_lo,
                                         lut_hi, lut_lo, lut_hi, lut_lo);
    const __m512i low = _mm512_set1_epi8(0x0f);
    const __m512i lo = _mm512_and_si512(v, low);
    const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low);
    return _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                           _mm512_shuffle_epi8(lut, hi));
}

/** Sum the eight 64-bit lanes via a stack spill (GCC implements
 *  _mm512_reduce_add_epi64 through an _mm256_undefined_si256 placeholder
 *  that -Werror=uninitialized rejects when inlined). */
inline std::uint64_t
reduceAdd64(__m512i acc)
{
    alignas(64) std::uint64_t lanes[8];
    _mm512_store_si512(lanes, acc);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
           lanes[5] + lanes[6] + lanes[7];
}

void
xorRangeAvx512(std::uint8_t *out, const std::uint8_t *in,
               const std::uint8_t *base, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64)
        store512(out + i,
                 _mm512_xor_si512(load512(in + i), load512(base + i)));
    const std::size_t rem = n - i;
    if (rem != 0) {
        const __mmask64 k = (~std::uint64_t{0}) >> (64 - rem);
        const __m512i v = _mm512_maskz_loadu_epi8(k, in + i);
        const __m512i b = _mm512_maskz_loadu_epi8(k, base + i);
        _mm512_mask_storeu_epi8(out + i, k, _mm512_xor_si512(v, b));
    }
}

/** One masked ZDR-encode step over up to 32 16-bit lanes. */
inline void
zdrEncode16Masked(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, __mmask32 k, __m512i c)
{
    const __m512i v = _mm512_maskz_loadu_epi16(k, in);
    const __m512i b = _mm512_maskz_loadu_epi16(k, base);
    const __m512i x = _mm512_xor_si512(v, b);
    const __mmask32 mz = _mm512_cmpeq_epi16_mask(v, _mm512_setzero_si512());
    const __mmask32 mc = _mm512_cmpeq_epi16_mask(x, c);
    __m512i r = _mm512_mask_blend_epi16(mc, x, b);
    r = _mm512_mask_blend_epi16(mz, r, c);
    _mm512_mask_storeu_epi16(out, k, r);
}

void
zdrEncode16Avx512(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, std::size_t n)
{
    const __m512i c = _mm512_set1_epi16(static_cast<short>(zdrConst16));
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64)
        zdrEncode16Masked(out + i, in + i, base + i,
                          static_cast<__mmask32>(~0u), c);
    const std::size_t lanes = (n - i) / 2;
    if (lanes != 0)
        zdrEncode16Masked(out + i, in + i, base + i,
                          static_cast<__mmask32>((1u << lanes) - 1u), c);
}

/** zdrEncodeWord over every 32-bit lane of @p v against @p b. */
inline __m512i
zdrEncode32Vec(__m512i v, __m512i b, __m512i c)
{
    const __m512i x = _mm512_xor_si512(v, b);
    const __mmask16 mz = _mm512_cmpeq_epi32_mask(v, _mm512_setzero_si512());
    const __mmask16 mc = _mm512_cmpeq_epi32_mask(x, c);
    const __m512i r = _mm512_mask_blend_epi32(mc, x, b);
    return _mm512_mask_blend_epi32(mz, r, c);
}

/** zdrDecodeWord over every 32-bit lane of @p v against @p b. */
inline __m512i
zdrDecode32Vec(__m512i v, __m512i b, __m512i c)
{
    const __mmask16 mc = _mm512_cmpeq_epi32_mask(v, c);
    const __mmask16 mb = _mm512_cmpeq_epi32_mask(v, b);
    const __m512i r = _mm512_mask_blend_epi32(mb, _mm512_xor_si512(v, b),
                                              _mm512_xor_si512(b, c));
    return _mm512_mask_blend_epi32(mc, r, _mm512_setzero_si512());
}

/** zdrDecodeWord over every 64-bit lane of @p v against @p b. */
inline __m512i
zdrDecode64Vec(__m512i v, __m512i b, __m512i c)
{
    const __mmask8 mc = _mm512_cmpeq_epi64_mask(v, c);
    const __mmask8 mb = _mm512_cmpeq_epi64_mask(v, b);
    const __m512i r = _mm512_mask_blend_epi64(mb, _mm512_xor_si512(v, b),
                                              _mm512_xor_si512(b, c));
    return _mm512_mask_blend_epi64(mc, r, _mm512_setzero_si512());
}

inline void
zdrEncode32Masked(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, __mmask16 k, __m512i c)
{
    _mm512_mask_storeu_epi32(
        out, k,
        zdrEncode32Vec(_mm512_maskz_loadu_epi32(k, in),
                       _mm512_maskz_loadu_epi32(k, base), c));
}

void
zdrEncode32Avx512(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, std::size_t n)
{
    const __m512i c = _mm512_set1_epi32(static_cast<int>(zdrConst32));
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64)
        zdrEncode32Masked(out + i, in + i, base + i,
                          static_cast<__mmask16>(0xffffu), c);
    const std::size_t lanes = (n - i) / 4;
    if (lanes != 0)
        zdrEncode32Masked(out + i, in + i, base + i,
                          static_cast<__mmask16>((1u << lanes) - 1u), c);
}

inline void
zdrEncode64Masked(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, __mmask8 k, __m512i c)
{
    const __m512i v = _mm512_maskz_loadu_epi64(k, in);
    const __m512i b = _mm512_maskz_loadu_epi64(k, base);
    const __m512i x = _mm512_xor_si512(v, b);
    const __mmask8 mz = _mm512_cmpeq_epi64_mask(v, _mm512_setzero_si512());
    const __mmask8 mc = _mm512_cmpeq_epi64_mask(x, c);
    __m512i r = _mm512_mask_blend_epi64(mc, x, b);
    r = _mm512_mask_blend_epi64(mz, r, c);
    _mm512_mask_storeu_epi64(out, k, r);
}

void
zdrEncode64Avx512(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, std::size_t n)
{
    const __m512i c =
        _mm512_set1_epi64(static_cast<long long>(zdrConst64));
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64)
        zdrEncode64Masked(out + i, in + i, base + i,
                          static_cast<__mmask8>(0xffu), c);
    const std::size_t lanes = (n - i) / 8;
    if (lanes != 0)
        zdrEncode64Masked(out + i, in + i, base + i,
                          static_cast<__mmask8>((1u << lanes) - 1u), c);
}

inline void
zdrDecode16Masked(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, __mmask32 k, __m512i c)
{
    const __m512i v = _mm512_maskz_loadu_epi16(k, in);
    const __m512i b = _mm512_maskz_loadu_epi16(k, base);
    const __m512i x = _mm512_xor_si512(v, b);
    const __mmask32 mc = _mm512_cmpeq_epi16_mask(v, c);
    const __mmask32 mb = _mm512_cmpeq_epi16_mask(v, b);
    __m512i r = _mm512_mask_blend_epi16(mb, x, _mm512_xor_si512(b, c));
    r = _mm512_mask_blend_epi16(mc, r, _mm512_setzero_si512());
    _mm512_mask_storeu_epi16(out, k, r);
}

void
zdrDecode16Avx512(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, std::size_t n)
{
    const __m512i c = _mm512_set1_epi16(static_cast<short>(zdrConst16));
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64)
        zdrDecode16Masked(out + i, in + i, base + i,
                          static_cast<__mmask32>(~0u), c);
    const std::size_t lanes = (n - i) / 2;
    if (lanes != 0)
        zdrDecode16Masked(out + i, in + i, base + i,
                          static_cast<__mmask32>((1u << lanes) - 1u), c);
}

inline void
zdrDecode32Masked(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, __mmask16 k, __m512i c)
{
    _mm512_mask_storeu_epi32(
        out, k,
        zdrDecode32Vec(_mm512_maskz_loadu_epi32(k, in),
                       _mm512_maskz_loadu_epi32(k, base), c));
}

void
zdrDecode32Avx512(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, std::size_t n)
{
    const __m512i c = _mm512_set1_epi32(static_cast<int>(zdrConst32));
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64)
        zdrDecode32Masked(out + i, in + i, base + i,
                          static_cast<__mmask16>(0xffffu), c);
    const std::size_t lanes = (n - i) / 4;
    if (lanes != 0)
        zdrDecode32Masked(out + i, in + i, base + i,
                          static_cast<__mmask16>((1u << lanes) - 1u), c);
}

inline void
zdrDecode64Masked(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, __mmask8 k, __m512i c)
{
    _mm512_mask_storeu_epi64(
        out, k,
        zdrDecode64Vec(_mm512_maskz_loadu_epi64(k, in),
                       _mm512_maskz_loadu_epi64(k, base), c));
}

void
zdrDecode64Avx512(std::uint8_t *out, const std::uint8_t *in,
                  const std::uint8_t *base, std::size_t n)
{
    const __m512i c =
        _mm512_set1_epi64(static_cast<long long>(zdrConst64));
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64)
        zdrDecode64Masked(out + i, in + i, base + i,
                          static_cast<__mmask8>(0xffu), c);
    const std::size_t lanes = (n - i) / 8;
    if (lanes != 0)
        zdrDecode64Masked(out + i, in + i, base + i,
                          static_cast<__mmask8>((1u << lanes) - 1u), c);
}

void
dbiEncodePlaneAvx512(std::uint8_t *data, std::uint8_t *meta,
                     std::size_t groups, std::size_t group_bytes)
{
    const std::size_t per_vec = 64 / group_bytes;
    std::size_t g = 0;
    for (; g + per_vec <= groups; g += per_vec) {
        std::uint8_t *block = data + g * group_bytes;
        const __m512i v = load512(block);
        __m512i invert;
        if (group_bytes == 1) {
            const __m512i cnt = popcountBytes512(v);
            const __mmask64 k =
                _mm512_cmpgt_epi8_mask(cnt, _mm512_set1_epi8(4));
            invert = _mm512_maskz_set1_epi8(k, -1);
            _mm512_storeu_si512(meta + g, _mm512_maskz_set1_epi8(k, 1));
        } else if (group_bytes == 2) {
            const __m512i cnt = popcountBytes512(v);
            const __m512i sums =
                _mm512_maddubs_epi16(cnt, _mm512_set1_epi8(1));
            const __mmask32 k =
                _mm512_cmpgt_epi16_mask(sums, _mm512_set1_epi16(8));
            invert = _mm512_maskz_set1_epi16(k, -1);
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(meta + g),
                                _mm256_maskz_set1_epi8(k, 1));
        } else if (group_bytes == 4) {
            const __m512i cnt = _mm512_popcnt_epi32(v);
            const __mmask16 k =
                _mm512_cmpgt_epi32_mask(cnt, _mm512_set1_epi32(16));
            invert = _mm512_maskz_set1_epi32(k, -1);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(meta + g),
                             _mm_maskz_set1_epi8(k, 1));
        } else { // group_bytes == 8
            const __m512i cnt = _mm512_popcnt_epi64(v);
            const __mmask8 k =
                _mm512_cmpgt_epi64_mask(cnt, _mm512_set1_epi64(32));
            invert = _mm512_maskz_set1_epi64(k, -1);
            _mm_storel_epi64(
                reinterpret_cast<__m128i *>(meta + g),
                _mm_maskz_set1_epi8(static_cast<__mmask16>(k), 1));
        }
        store512(block, _mm512_xor_si512(v, invert));
    }
    dbiEncodePlaneWord(data + g * group_bytes, meta + g, groups - g,
                       group_bytes);
}

void
dbiDecodePlaneAvx512(std::uint8_t *data, const std::uint8_t *meta,
                     std::size_t groups, std::size_t group_bytes)
{
    const std::size_t per_vec = 64 / group_bytes;
    std::size_t g = 0;
    for (; g + per_vec <= groups; g += per_vec) {
        std::uint8_t *block = data + g * group_bytes;
        __m512i invert;
        if (group_bytes == 1) {
            const __m512i mb = _mm512_loadu_si512(meta + g);
            invert = _mm512_maskz_set1_epi8(
                _mm512_test_epi8_mask(mb, mb), -1);
        } else if (group_bytes == 2) {
            const __m256i mb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(meta + g));
            invert = _mm512_maskz_set1_epi16(
                _mm256_test_epi8_mask(mb, mb), -1);
        } else if (group_bytes == 4) {
            const __m128i mb = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(meta + g));
            invert = _mm512_maskz_set1_epi32(
                _mm_test_epi8_mask(mb, mb), -1);
        } else { // group_bytes == 8
            const __m128i mb = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(meta + g));
            invert = _mm512_maskz_set1_epi64(
                static_cast<__mmask8>(_mm_test_epi8_mask(mb, mb)), -1);
        }
        store512(block, _mm512_xor_si512(load512(block), invert));
    }
    dbiDecodePlaneWord(data + g * group_bytes, meta + g, groups - g,
                       group_bytes);
}

std::uint64_t
popcountRangeAvx512(const std::uint8_t *src, std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64)
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(load512(src + i)));
    const std::size_t rem = n - i;
    if (rem != 0) {
        const __mmask64 k = (~std::uint64_t{0}) >> (64 - rem);
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_maskz_loadu_epi8(k, src + i)));
    }
    return reduceAdd64(acc);
}

std::uint64_t
popcountXorRangeAvx512(const std::uint8_t *a, const std::uint8_t *b,
                       std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(
                     _mm512_xor_si512(load512(a + i), load512(b + i))));
    const std::size_t rem = n - i;
    if (rem != 0) {
        const __mmask64 k = (~std::uint64_t{0}) >> (64 - rem);
        const __m512i x =
            _mm512_xor_si512(_mm512_maskz_loadu_epi8(k, a + i),
                             _mm512_maskz_loadu_epi8(k, b + i));
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
    }
    return reduceAdd64(acc);
}

// ---- Codec-level kernels: each transaction held in registers ----

template <bool Zdr, bool Encode>
inline __m512i
foldRegister512(__m512i v, const FoldLanes &plan, __m512i idx,
                unsigned stages, __m512i c)
{
    if constexpr (Encode) {
        // Every base is an original lane: one remap against the permuted
        // register, keeping the effective-base lanes.
        const __m512i b = _mm512_permutexvar_epi32(idx, v);
        const __m512i r =
            Zdr ? zdrEncode32Vec(v, b, c) : _mm512_xor_si512(v, b);
        return _mm512_mask_blend_epi32(plan.rewrite, v, r);
    } else {
        // Innermost stage first: each restores its right half from the
        // prefix the stages before it restored.
        for (unsigned s = stages; s-- > 0;) {
            const __m512i b = _mm512_permutexvar_epi32(idx, v);
            const __m512i r =
                Zdr ? zdrDecode32Vec(v, b, c) : _mm512_xor_si512(v, b);
            v = _mm512_mask_blend_epi32(plan.stage[s], v, r);
        }
        return v;
    }
}

/** Universal fold/unfold with one 64-byte transaction, or two 32-byte
 *  ones, per register. */
template <bool Zdr, bool Encode>
void
universalLanes512(std::uint8_t *out, const std::uint8_t *in,
                  std::size_t count, std::size_t tx_bytes, unsigned stages)
{
    const FoldLanes &plan = foldLanes(tx_bytes, stages);
    const __m512i idx = _mm512_loadu_si512(plan.base.data());
    const __m512i c = _mm512_set1_epi32(static_cast<int>(zdrConst32));
    const std::size_t bytes = count * tx_bytes;
    std::size_t i = 0;
    for (; i + 64 <= bytes; i += 64)
        store512(out + i, foldRegister512<Zdr, Encode>(load512(in + i), plan,
                                                       idx, stages, c));
    if (i < bytes) {
        // An odd 32-byte transaction: the low half of one register.
        const __mmask16 k = 0x00ff;
        _mm512_mask_storeu_epi32(
            out + i, k,
            foldRegister512<Zdr, Encode>(_mm512_maskz_loadu_epi32(k, in + i),
                                         plan, idx, stages, c));
    }
}

void
universalFoldAvx512(std::uint8_t *out, const std::uint8_t *in,
                    std::size_t count, std::size_t tx_bytes, unsigned stages,
                    std::size_t zdr_lane)
{
    if (!foldInRegisters(tx_bytes, stages, zdr_lane))
        universalFoldWord(out, in, count, tx_bytes, stages, zdr_lane);
    else if (zdr_lane != 0)
        universalLanes512<true, true>(out, in, count, tx_bytes, stages);
    else
        universalLanes512<false, true>(out, in, count, tx_bytes, stages);
}

void
universalUnfoldAvx512(std::uint8_t *out, const std::uint8_t *in,
                      std::size_t count, std::size_t tx_bytes,
                      unsigned stages, std::size_t zdr_lane)
{
    if (!foldInRegisters(tx_bytes, stages, zdr_lane))
        universalUnfoldWord(out, in, count, tx_bytes, stages, zdr_lane);
    else if (zdr_lane != 0)
        universalLanes512<true, false>(out, in, count, tx_bytes, stages);
    else
        universalLanes512<false, false>(out, in, count, tx_bytes, stages);
}

// GCC 12 spells the plain unpack intrinsics, and the 256/512-bit casts,
// inserts and extracts, through _mm512_undefined_* sources, then rejects
// its own idiom under -Werror=uninitialized once they inline into the
// chain loops (GCC bug 105593). The helpers below use the masked forms of
// the same instructions, whose every source is defined.

inline __m512i
unpackLo32(__m512i a, __m512i b)
{
    return _mm512_mask_unpacklo_epi32(a, 0xffff, a, b);
}

inline __m512i
unpackHi32(__m512i a, __m512i b)
{
    return _mm512_mask_unpackhi_epi32(a, 0xffff, a, b);
}

inline __m512i
unpackLo64(__m512i a, __m512i b)
{
    return _mm512_mask_unpacklo_epi64(a, 0xff, a, b);
}

inline __m512i
unpackHi64(__m512i a, __m512i b)
{
    return _mm512_mask_unpackhi_epi64(a, 0xff, a, b);
}

/** The 32-byte chunks at @p lo and @p hi (at least 32 bytes into the
 *  plane) as one register, by two half-masked loads. */
inline __m512i
loadPair512(const std::uint8_t *lo, const std::uint8_t *hi)
{
    const __m512i low = _mm512_maskz_loadu_epi64(0x0f, lo);
    return _mm512_mask_loadu_epi64(low, 0xf0, hi - 32);
}

inline void
storePair512(std::uint8_t *lo, std::uint8_t *hi, __m512i v)
{
    _mm512_mask_storeu_epi64(lo, 0x0f, v);
    _mm512_mask_storeu_epi64(hi - 32, 0xf0, v);
}

/** Per 256-bit half, the low (Hi = false) or high 128 bits of @p a then
 *  of @p b: _mm256_permute2x128_si256 0x20 / 0x31 on both halves. */
template <bool Hi>
inline __m512i
pairHalves512(__m512i a, __m512i b)
{
    const __m512i idx = Hi ? _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15)
                           : _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    return _mm512_permutex2var_epi64(a, idx, b);
}

/** Base+XOR decode chain over W-byte elements: rows of 32-byte chunks,
 *  each register holding the same chunk of two transactions. */
template <std::size_t W>
struct Chain512;

template <>
struct Chain512<4>
{
    static __m512i constant()
    {
        return _mm512_set1_epi32(static_cast<int>(zdrConst32));
    }
    static __m512i decode(__m512i v, __m512i b, __m512i c)
    {
        return zdrDecode32Vec(v, b, c);
    }
    /** Transposes the 8x8 32-bit matrix in each 256-bit half of r[0..7]
     *  (an involution: the same call transposes back). */
    static void transpose(__m512i *r)
    {
        __m512i t[8];
        for (int k = 0; k < 8; k += 2) {
            t[k] = unpackLo32(r[k], r[k + 1]);
            t[k + 1] = unpackHi32(r[k], r[k + 1]);
        }
        __m512i u[8];
        for (int k = 0; k < 8; k += 4) {
            u[k] = unpackLo64(t[k], t[k + 2]);
            u[k + 1] = unpackHi64(t[k], t[k + 2]);
            u[k + 2] = unpackLo64(t[k + 1], t[k + 3]);
            u[k + 3] = unpackHi64(t[k + 1], t[k + 3]);
        }
        // u[k] (k < 4) holds columns k and k+4 of rows 0-3; u[k+4] the
        // same columns of rows 4-7.
        for (int k = 0; k < 4; ++k) {
            r[k] = pairHalves512<false>(u[k], u[k + 4]);
            r[k + 4] = pairHalves512<true>(u[k], u[k + 4]);
        }
    }
};

template <>
struct Chain512<8>
{
    static __m512i constant()
    {
        return _mm512_set1_epi64(static_cast<long long>(zdrConst64));
    }
    static __m512i decode(__m512i v, __m512i b, __m512i c)
    {
        return zdrDecode64Vec(v, b, c);
    }
    /** Transposes the 4x4 64-bit matrix in each 256-bit half of r[0..3]. */
    static void transpose(__m512i *r)
    {
        const __m512i t0 = unpackLo64(r[0], r[1]);
        const __m512i t1 = unpackHi64(r[0], r[1]);
        const __m512i t2 = unpackLo64(r[2], r[3]);
        const __m512i t3 = unpackHi64(r[2], r[3]);
        r[0] = pairHalves512<false>(t0, t2);
        r[1] = pairHalves512<false>(t1, t3);
        r[2] = pairHalves512<true>(t0, t2);
        r[3] = pairHalves512<true>(t1, t3);
    }
};

/**
 * Decodes 64 / W transactions of Tx bytes (32 or 64): per 32-byte chunk,
 * the transpose puts element e of every transaction in one register, so
 * the serial e-1 -> e chain runs as whole-register steps; a chunk's last
 * element carries into the next chunk.
 */
template <std::size_t W, bool Zdr, std::size_t Tx>
void
baseXorDecodeBlock512(std::uint8_t *out, const std::uint8_t *in)
{
    using Chain = Chain512<W>;
    constexpr std::size_t rows = 32 / W;
    const __m512i c = Chain::constant();
    __m512i carry = _mm512_setzero_si512();
    for (std::size_t off = 0; off < Tx; off += 32) {
        __m512i r[rows];
        // Two 32-byte transactions are one contiguous register.
        for (std::size_t k = 0; k < rows; ++k)
            r[k] = Tx == 32 ? load512(in + 64 * k)
                            : loadPair512(in + 2 * k * Tx + off,
                                          in + (2 * k + 1) * Tx + off);
        Chain::transpose(r);
        for (std::size_t e = off == 0 ? 1 : 0; e < rows; ++e) {
            const __m512i base = e == 0 ? carry : r[e - 1];
            r[e] = Zdr ? Chain::decode(r[e], base, c)
                       : _mm512_xor_si512(r[e], base);
        }
        carry = r[rows - 1];
        Chain::transpose(r);
        for (std::size_t k = 0; k < rows; ++k) {
            if (Tx == 32)
                store512(out + 64 * k, r[k]);
            else
                storePair512(out + 2 * k * Tx + off,
                             out + (2 * k + 1) * Tx + off, r[k]);
        }
    }
}

template <std::size_t W, bool Zdr, std::size_t Tx>
void
baseXorDecodeLanes512(std::uint8_t *out, const std::uint8_t *in,
                      std::size_t count)
{
    constexpr std::size_t block = 64 / W;
    std::size_t t = 0;
    for (; t + block <= count; t += block)
        baseXorDecodeBlock512<W, Zdr, Tx>(out + t * Tx, in + t * Tx);
    if (t == count)
        return;
    // The last partial block runs through a zero-padded tile.
    alignas(64) std::uint8_t tile[block * Tx];
    const std::size_t bytes = (count - t) * Tx;
    std::memcpy(tile, in + t * Tx, bytes);
    std::memset(tile + bytes, 0, sizeof(tile) - bytes);
    baseXorDecodeBlock512<W, Zdr, Tx>(tile, tile);
    std::memcpy(out + t * Tx, tile, bytes);
}

template <std::size_t W, bool Zdr>
void
baseXorDecodeLanes512(std::uint8_t *out, const std::uint8_t *in,
                      std::size_t count, std::size_t tx_bytes)
{
    if (tx_bytes == 32)
        baseXorDecodeLanes512<W, Zdr, 32>(out, in, count);
    else
        baseXorDecodeLanes512<W, Zdr, 64>(out, in, count);
}

void
baseXorDecodeAvx512(std::uint8_t *out, const std::uint8_t *in,
                    std::size_t count, std::size_t tx_bytes,
                    std::size_t base_bytes, bool zdr)
{
    const bool lanes = tx_bytes == 32 || tx_bytes == 64;
    if (lanes && base_bytes == 4 && zdr)
        baseXorDecodeLanes512<4, true>(out, in, count, tx_bytes);
    else if (lanes && base_bytes == 4)
        baseXorDecodeLanes512<4, false>(out, in, count, tx_bytes);
    else if (lanes && base_bytes == 8 && zdr)
        baseXorDecodeLanes512<8, true>(out, in, count, tx_bytes);
    else if (lanes && base_bytes == 8)
        baseXorDecodeLanes512<8, false>(out, in, count, tx_bytes);
    else
        baseXorDecodeWord(out, in, count, tx_bytes, base_bytes, zdr);
}

} // namespace

const KernelTable *
avx512TableOrNull()
{
    static const KernelTable table = {
        Level::Avx512,
        xorRangeAvx512,
        zdrEncode16Avx512,
        zdrEncode32Avx512,
        zdrEncode64Avx512,
        zdrDecode16Avx512,
        zdrDecode32Avx512,
        zdrDecode64Avx512,
        dbiEncodePlaneAvx512,
        dbiDecodePlaneAvx512,
        popcountRangeAvx512,
        popcountXorRangeAvx512,
        universalFoldAvx512,
        universalUnfoldAvx512,
        baseXorDecodeAvx512,
        crc32UpdateClmul,
        packRows<packBitsRunWord>,
        unpackRows<unpackBitsRunWord>,
    };
    return &table;
}

} // namespace bxt::simd::detail

#else // missing AVX-512 feature set

namespace bxt::simd::detail {

const KernelTable *
avx512TableOrNull()
{
    return nullptr;
}

} // namespace bxt::simd::detail

#endif
