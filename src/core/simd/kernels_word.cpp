/**
 * @file
 * Word tier: 64-bit-word formulations of every primitive, the codec-level
 * ones one transaction and stage at a time. Always available; serves as
 * the baseline the bench level sweep measures the vector tiers against,
 * and as the entry the vector tiers hand unsupported shapes to.
 */

#include "core/simd/kernel_common.h"
#include "core/simd/kernels.h"

namespace bxt::simd::detail {

const KernelTable &
wordTable()
{
    static const KernelTable table = {
        Level::Word,
        xorWordRange,
        zdrEncode16WordRange,
        zdrEncode32WordRange,
        zdrEncode64WordRange,
        zdrDecode16WordRange,
        zdrDecode32WordRange,
        zdrDecode64WordRange,
        dbiEncodePlaneWord,
        dbiDecodePlaneWord,
        popcountWordRange,
        popcountXorWordRange,
        universalFoldWord,
        universalUnfoldWord,
        baseXorDecodeWord,
        crc32SliceBy8Range,
        packRows<packBitsRunWord>,
        unpackRows<unpackBitsRunWord>,
    };
    return table;
}

} // namespace bxt::simd::detail
