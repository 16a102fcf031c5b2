/**
 * @file
 * AVX-512 tier (F + BW + VL + VPOPCNTDQ + VPCLMULQDQ together; the
 * dispatcher treats the set as one feature). Compiled with per-file
 * -mavx512* -mvpclmulqdq -mpclmul flags; degrades to a nullptr stub when
 * the toolchain cannot build it.
 *
 * Dword/qword popcounts use VPOPCNTDQ directly; byte/word group sums
 * fall back to the pshufb nibble LUT (BW). Lane selection runs on
 * kmask registers: compare-to-mask, maskz_set1 to materialize invert
 * masks, and masked loads/stores to handle range tails without a
 * scalar loop. The frame CRC32 folds 256 bytes per step with 512-bit
 * carry-less multiplies (VPCLMULQDQ).
 */

#include "core/simd/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && defined(__AVX512VPOPCNTDQ__) && \
    defined(__VPCLMULQDQ__) && defined(__PCLMUL__) && defined(__x86_64__)

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

// ---- Codec-level kernels: each transaction held in registers ----

/** Universal fold (@p Encode) or unfold at ZDR lane 4 of the
 *  transactions in @p v. */
template <bool Encode>
inline __m512i
foldRegister512(__m512i v, const FoldLanes &plan, __m512i idx,
                unsigned stages, __m512i c)
{
    if constexpr (Encode) {
        // Every base is an original lane: one remap against the permuted
        // register, keeping the effective-base lanes.
        const __m512i b = _mm512_permutexvar_epi32(idx, v);
        return _mm512_mask_blend_epi32(plan.rewrite, v,
                                       zdrEncode32Vec(v, b, c));
    } else {
        // Innermost stage first: each restores its right half from the
        // prefix the stages before it restored.
        for (unsigned s = stages; s-- > 0;) {
            const __m512i b = _mm512_permutexvar_epi32(idx, v);
            v = _mm512_mask_blend_epi32(plan.stage[s], v,
                                        zdrDecode32Vec(v, b, c));
        }
        return v;
    }
}

/** Universal fold/unfold with one 64-byte transaction, or two 32-byte
 *  ones, per register. */
template <bool Encode>
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
        store512(out + i, foldRegister512<Encode>(load512(in + i), plan, idx,
                                                  stages, c));
    if (i < bytes) {
        // An odd 32-byte transaction: the low half of one register.
        const __mmask16 k = 0x00ff;
        _mm512_mask_storeu_epi32(
            out + i, k,
            foldRegister512<Encode>(_mm512_maskz_loadu_epi32(k, in + i),
                                    plan, idx, stages, c));
    }
}

void
universalFoldAvx512(std::uint8_t *out, const std::uint8_t *in,
                    std::size_t count, std::size_t tx_bytes, unsigned stages,
                    std::size_t zdr_lane)
{
    if (foldInRegisters(tx_bytes, stages, zdr_lane))
        universalLanes512<true>(out, in, count, tx_bytes, stages);
    else
        universalFoldWord(out, in, count, tx_bytes, stages, zdr_lane);
}

void
universalUnfoldAvx512(std::uint8_t *out, const std::uint8_t *in,
                      std::size_t count, std::size_t tx_bytes,
                      unsigned stages, std::size_t zdr_lane)
{
    if (foldInRegisters(tx_bytes, stages, zdr_lane))
        universalLanes512<false>(out, in, count, tx_bytes, stages);
    else
        universalUnfoldWord(out, in, count, tx_bytes, stages, zdr_lane);
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

/** Transposes the 8x8 32-bit matrix in each 256-bit half of r[0..7]
 *  (an involution: the same call transposes back). */
inline void
transpose8x32(__m512i *r)
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
    // u[k] (k < 4) holds columns k and k+4 of rows 0-3; u[k+4] the same
    // columns of rows 4-7.
    for (int k = 0; k < 4; ++k) {
        r[k] = pairHalves512<false>(u[k], u[k + 4]);
        r[k + 4] = pairHalves512<true>(u[k], u[k + 4]);
    }
}

/**
 * 4-byte-base ZDR decode of 16 transactions of Tx bytes (32 or 64): per
 * 32-byte chunk, each register holds that chunk of two transactions and
 * the transpose puts element e of every transaction in one register, so
 * the serial e-1 -> e chain runs as whole-register steps; a chunk's last
 * element carries into the next chunk.
 */
template <std::size_t Tx>
void
baseXorDecodeBlock512(std::uint8_t *out, const std::uint8_t *in)
{
    const __m512i c = _mm512_set1_epi32(static_cast<int>(zdrConst32));
    __m512i carry = _mm512_setzero_si512();
    for (std::size_t off = 0; off < Tx; off += 32) {
        __m512i r[8];
        // Two 32-byte transactions are one contiguous register.
        for (std::size_t k = 0; k < 8; ++k)
            r[k] = Tx == 32 ? load512(in + 64 * k)
                            : loadPair512(in + 2 * k * Tx + off,
                                          in + (2 * k + 1) * Tx + off);
        transpose8x32(r);
        for (std::size_t e = off == 0 ? 1 : 0; e < 8; ++e)
            r[e] = zdrDecode32Vec(r[e], e == 0 ? carry : r[e - 1], c);
        carry = r[7];
        transpose8x32(r);
        for (std::size_t k = 0; k < 8; ++k) {
            if (Tx == 32)
                store512(out + 64 * k, r[k]);
            else
                storePair512(out + 2 * k * Tx + off,
                             out + (2 * k + 1) * Tx + off, r[k]);
        }
    }
}

template <std::size_t Tx>
void
baseXorDecodeLanes512(std::uint8_t *out, const std::uint8_t *in,
                      std::size_t count)
{
    std::size_t t = 0;
    for (; t + 16 <= count; t += 16)
        baseXorDecodeBlock512<Tx>(out + t * Tx, in + t * Tx);
    if (t == count)
        return;
    // The last partial block runs through a zero-padded tile.
    alignas(64) std::uint8_t tile[16 * Tx];
    const std::size_t bytes = (count - t) * Tx;
    std::memcpy(tile, in + t * Tx, bytes);
    std::memset(tile + bytes, 0, sizeof(tile) - bytes);
    baseXorDecodeBlock512<Tx>(tile, tile);
    std::memcpy(out + t * Tx, tile, bytes);
}

void
baseXorDecodeAvx512(std::uint8_t *out, const std::uint8_t *in,
                    std::size_t count, std::size_t tx_bytes,
                    std::size_t base_bytes, bool zdr)
{
    if (!decodeInLanes(tx_bytes, base_bytes, zdr))
        baseXorDecodeWord(out, in, count, tx_bytes, base_bytes, zdr);
    else if (tx_bytes == 32)
        baseXorDecodeLanes512<32>(out, in, count);
    else
        baseXorDecodeLanes512<64>(out, in, count);
}

// ---- Frame CRC32: the PCLMULQDQ fold four 512-bit registers wide ----

/** acc * x^(fold distance) mod P in every 128-bit lane, XORed with the
 *  next block (the 512-bit form of kernels_clmul.cpp's fold). */
inline __m512i
crcFold512(__m512i acc, __m512i constants, __m512i next)
{
    const __m512i lo = _mm512_clmulepi64_epi128(acc, constants, 0x00);
    const __m512i hi = _mm512_clmulepi64_epi128(acc, constants, 0x11);
    // 0x96: three-way XOR.
    return _mm512_ternarylogic_epi64(lo, hi, next, 0x96);
}

/**
 * Four zmm accumulators take 256 bytes per step, every 128-bit lane
 * shifted 2048 bits ahead by x^(2048+32) and x^(2048-32) mod P
 * (reflected, low qword for the low half). They fold into one zmm with
 * the 512-bit-distance pair, which also takes any further 64-byte
 * blocks, and the 128-bit closing steps of crc32FinishClmul take it
 * from there. Inputs under 256 bytes run the 128-bit fold alone.
 */
std::uint32_t
crc32UpdateAvx512(std::uint32_t crc, const std::uint8_t *p, std::size_t n)
{
    if (n < 256)
        return crc32UpdateClmul(crc, p, n);
    __m512i x0 = _mm512_xor_si512(
        load512(p), _mm512_maskz_set1_epi32(1, static_cast<int>(crc)));
    __m512i x1 = load512(p + 64);
    __m512i x2 = load512(p + 128);
    __m512i x3 = load512(p + 192);
    p += 256;
    n -= 256;

    const __m512i k2048 =
        _mm512_set_epi64(0x01322d1430, 0x011542778a, 0x01322d1430,
                         0x011542778a, 0x01322d1430, 0x011542778a,
                         0x01322d1430, 0x011542778a);
    for (; n >= 256; p += 256, n -= 256) {
        x0 = crcFold512(x0, k2048, load512(p));
        x1 = crcFold512(x1, k2048, load512(p + 64));
        x2 = crcFold512(x2, k2048, load512(p + 128));
        x3 = crcFold512(x3, k2048, load512(p + 192));
    }

    const __m512i k512 =
        _mm512_set_epi64(0x01c6e41596, 0x0154442bd4, 0x01c6e41596,
                         0x0154442bd4, 0x01c6e41596, 0x0154442bd4,
                         0x01c6e41596, 0x0154442bd4);
    x0 = crcFold512(x0, k512, x1);
    x0 = crcFold512(x0, k512, x2);
    x0 = crcFold512(x0, k512, x3);
    for (; n >= 64; p += 64, n -= 64)
        x0 = crcFold512(x0, k512, load512(p));

    alignas(64) std::uint8_t folded[64];
    _mm512_store_si512(folded, x0);
    return crc32FinishClmul(folded, p, n);
}

} // namespace

const KernelTable *
avx512TableOrNull()
{
    static const KernelTable table = {
        Level::Avx512,
        xorWordRange,
        zdrEncode16WordRange,
        zdrEncode32Avx512,
        zdrEncode64WordRange,
        dbiEncodePlaneAvx512,
        dbiDecodePlaneAvx512,
        popcountRangeAvx512,
        popcountXorWordRange,
        universalFoldAvx512,
        universalUnfoldAvx512,
        baseXorDecodeAvx512,
        crc32UpdateAvx512,
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
