/**
 * @file
 * NEON tier for aarch64 builds (128-bit, always present on aarch64, so
 * no runtime feature check is needed). Compiles to a nullptr stub on
 * every other target. vcntq_u8 supplies byte popcounts; widening
 * pairwise adds (vpaddlq) build the per-group sums, and vbslq selects
 * reproduce the scalar ZDR precedence.
 */

#include "core/simd/kernels.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "core/simd/kernel_common.h"

namespace bxt::simd::detail {

namespace {

inline uint8x16_t
load128(const std::uint8_t *p)
{
    return vld1q_u8(p);
}

inline void
store128(std::uint8_t *p, uint8x16_t v)
{
    vst1q_u8(p, v);
}

void
xorRangeNeon(std::uint8_t *out, const std::uint8_t *in,
             const std::uint8_t *base, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        store128(out + i, veorq_u8(load128(in + i), load128(base + i)));
    xorWordRange(out + i, in + i, base + i, n - i);
}

void
zdrEncode16Neon(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const uint16x8_t zero = vdupq_n_u16(0);
    const uint16x8_t c = vdupq_n_u16(zdrConst16);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint16x8_t v = vreinterpretq_u16_u8(load128(in + i));
        const uint16x8_t b = vreinterpretq_u16_u8(load128(base + i));
        const uint16x8_t x = veorq_u16(v, b);
        uint16x8_t r = vbslq_u16(vceqq_u16(x, c), b, x);
        r = vbslq_u16(vceqq_u16(v, zero), c, r);
        store128(out + i, vreinterpretq_u8_u16(r));
    }
    zdrEncode16WordRange(out + i, in + i, base + i, n - i);
}

void
zdrEncode32Neon(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const uint32x4_t zero = vdupq_n_u32(0);
    const uint32x4_t c = vdupq_n_u32(zdrConst32);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint32x4_t v = vreinterpretq_u32_u8(load128(in + i));
        const uint32x4_t b = vreinterpretq_u32_u8(load128(base + i));
        const uint32x4_t x = veorq_u32(v, b);
        uint32x4_t r = vbslq_u32(vceqq_u32(x, c), b, x);
        r = vbslq_u32(vceqq_u32(v, zero), c, r);
        store128(out + i, vreinterpretq_u8_u32(r));
    }
    zdrEncode32WordRange(out + i, in + i, base + i, n - i);
}

void
zdrEncode64Neon(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const uint64x2_t zero = vdupq_n_u64(0);
    const uint64x2_t c = vdupq_n_u64(zdrConst64);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint64x2_t v = vreinterpretq_u64_u8(load128(in + i));
        const uint64x2_t b = vreinterpretq_u64_u8(load128(base + i));
        const uint64x2_t x = veorq_u64(v, b);
        uint64x2_t r = vbslq_u64(vceqq_u64(x, c), b, x);
        r = vbslq_u64(vceqq_u64(v, zero), c, r);
        store128(out + i, vreinterpretq_u8_u64(r));
    }
    zdrEncode64WordRange(out + i, in + i, base + i, n - i);
}

void
zdrDecode16Neon(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const uint16x8_t zero = vdupq_n_u16(0);
    const uint16x8_t c = vdupq_n_u16(zdrConst16);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint16x8_t v = vreinterpretq_u16_u8(load128(in + i));
        const uint16x8_t b = vreinterpretq_u16_u8(load128(base + i));
        const uint16x8_t x = veorq_u16(v, b);
        uint16x8_t r = vbslq_u16(vceqq_u16(v, b), veorq_u16(b, c), x);
        r = vbslq_u16(vceqq_u16(v, c), zero, r);
        store128(out + i, vreinterpretq_u8_u16(r));
    }
    zdrDecode16WordRange(out + i, in + i, base + i, n - i);
}

void
zdrDecode32Neon(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const uint32x4_t zero = vdupq_n_u32(0);
    const uint32x4_t c = vdupq_n_u32(zdrConst32);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint32x4_t v = vreinterpretq_u32_u8(load128(in + i));
        const uint32x4_t b = vreinterpretq_u32_u8(load128(base + i));
        const uint32x4_t x = veorq_u32(v, b);
        uint32x4_t r = vbslq_u32(vceqq_u32(v, b), veorq_u32(b, c), x);
        r = vbslq_u32(vceqq_u32(v, c), zero, r);
        store128(out + i, vreinterpretq_u8_u32(r));
    }
    zdrDecode32WordRange(out + i, in + i, base + i, n - i);
}

void
zdrDecode64Neon(std::uint8_t *out, const std::uint8_t *in,
                const std::uint8_t *base, std::size_t n)
{
    const uint64x2_t zero = vdupq_n_u64(0);
    const uint64x2_t c = vdupq_n_u64(zdrConst64);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint64x2_t v = vreinterpretq_u64_u8(load128(in + i));
        const uint64x2_t b = vreinterpretq_u64_u8(load128(base + i));
        const uint64x2_t x = veorq_u64(v, b);
        uint64x2_t r = vbslq_u64(vceqq_u64(v, b), veorq_u64(b, c), x);
        r = vbslq_u64(vceqq_u64(v, c), zero, r);
        store128(out + i, vreinterpretq_u8_u64(r));
    }
    zdrDecode64WordRange(out + i, in + i, base + i, n - i);
}

void
dbiEncodePlaneNeon(std::uint8_t *data, std::uint8_t *meta,
                   std::size_t groups, std::size_t group_bytes)
{
    const std::size_t per_vec = 16 / group_bytes;
    std::size_t g = 0;
    for (; g + per_vec <= groups; g += per_vec) {
        std::uint8_t *block = data + g * group_bytes;
        const uint8x16_t v = load128(block);
        const uint8x16_t cnt = vcntq_u8(v);
        uint8x16_t invert;
        if (group_bytes == 1) {
            const uint8x16_t mask = vcgtq_u8(cnt, vdupq_n_u8(4));
            invert = mask;
            store128(meta + g, vandq_u8(mask, vdupq_n_u8(1)));
        } else if (group_bytes == 2) {
            const uint16x8_t sums = vpaddlq_u8(cnt);
            const uint16x8_t mask = vcgtq_u16(sums, vdupq_n_u16(8));
            invert = vreinterpretq_u8_u16(mask);
            const uint8x8_t bytes =
                vand_u8(vmovn_u16(mask), vdup_n_u8(1));
            vst1_u8(meta + g, bytes);
        } else if (group_bytes == 4) {
            const uint32x4_t sums = vpaddlq_u16(vpaddlq_u8(cnt));
            const uint32x4_t mask = vcgtq_u32(sums, vdupq_n_u32(16));
            invert = vreinterpretq_u8_u32(mask);
            const uint16x4_t n16 = vmovn_u32(mask);
            const uint8x8_t bytes = vand_u8(
                vmovn_u16(vcombine_u16(n16, vdup_n_u16(0))),
                vdup_n_u8(1));
            std::uint8_t tmp[8];
            vst1_u8(tmp, bytes);
            std::memcpy(meta + g, tmp, 4);
        } else { // group_bytes == 8
            const uint64x2_t sums =
                vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt)));
            const uint64x2_t mask = vcgtq_u64(sums, vdupq_n_u64(32));
            invert = vreinterpretq_u8_u64(mask);
            meta[g] =
                static_cast<std::uint8_t>(vgetq_lane_u64(mask, 0) & 1);
            meta[g + 1] =
                static_cast<std::uint8_t>(vgetq_lane_u64(mask, 1) & 1);
        }
        store128(block, veorq_u8(v, invert));
    }
    dbiEncodePlaneWord(data + g * group_bytes, meta + g, groups - g,
                       group_bytes);
}

void
dbiDecodePlaneNeon(std::uint8_t *data, const std::uint8_t *meta,
                   std::size_t groups, std::size_t group_bytes)
{
    const std::size_t per_vec = 16 / group_bytes;
    std::size_t g = 0;
    for (; g + per_vec <= groups; g += per_vec) {
        std::uint8_t *block = data + g * group_bytes;
        uint8x16_t invert;
        if (group_bytes == 1) {
            invert = vcgtq_u8(load128(meta + g), vdupq_n_u8(0));
        } else if (group_bytes == 2) {
            const uint16x8_t wide = vmovl_u8(vld1_u8(meta + g));
            invert = vreinterpretq_u8_u16(vcgtq_u16(wide, vdupq_n_u16(0)));
        } else if (group_bytes == 4) {
            std::uint8_t tmp[8] = {0, 0, 0, 0, 0, 0, 0, 0};
            std::memcpy(tmp, meta + g, 4);
            const uint32x4_t wide =
                vmovl_u16(vget_low_u16(vmovl_u8(vld1_u8(tmp))));
            invert = vreinterpretq_u8_u32(vcgtq_u32(wide, vdupq_n_u32(0)));
        } else { // group_bytes == 8
            const uint64x2_t mask = vcombine_u64(
                vdup_n_u64(meta[g] != 0 ? ~std::uint64_t{0} : 0),
                vdup_n_u64(meta[g + 1] != 0 ? ~std::uint64_t{0} : 0));
            invert = vreinterpretq_u8_u64(mask);
        }
        store128(block, veorq_u8(load128(block), invert));
    }
    dbiDecodePlaneWord(data + g * group_bytes, meta + g, groups - g,
                       group_bytes);
}

std::uint64_t
popcountRangeNeon(const std::uint8_t *src, std::size_t n)
{
    uint64x2_t acc = vdupq_n_u64(0);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint8x16_t cnt = vcntq_u8(load128(src + i));
        acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
    }
    return vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1) +
           popcountWordRange(src + i, n - i);
}

std::uint64_t
popcountXorRangeNeon(const std::uint8_t *a, const std::uint8_t *b,
                     std::size_t n)
{
    uint64x2_t acc = vdupq_n_u64(0);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint8x16_t cnt =
            vcntq_u8(veorq_u8(load128(a + i), load128(b + i)));
        acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
    }
    return vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1) +
           popcountXorWordRange(a + i, b + i, n - i);
}

} // namespace

const KernelTable *
neonTableOrNull()
{
    static const KernelTable table = {
        Level::Neon,
        xorRangeNeon,
        zdrEncode16Neon,
        zdrEncode32Neon,
        zdrEncode64Neon,
        zdrDecode16Neon,
        zdrDecode32Neon,
        zdrDecode64Neon,
        dbiEncodePlaneNeon,
        dbiDecodePlaneNeon,
        popcountRangeNeon,
        popcountXorRangeNeon,
        universalFoldWord,
        universalUnfoldWord,
        baseXorDecodeWord,
        crc32SliceBy8Range,
        packRows<packBitsRunWord>,
        unpackRows<unpackBitsRunWord>,
    };
    return &table;
}

} // namespace bxt::simd::detail

#else // not an aarch64 NEON target

namespace bxt::simd::detail {

const KernelTable *
neonTableOrNull()
{
    return nullptr;
}

} // namespace bxt::simd::detail

#endif
