/**
 * @file
 * Word tier: the 64-bit-word formulations the batch kernels used before
 * runtime dispatch existed (PR 5). Always available; serves as the
 * baseline the bench level sweep measures the vector tiers against.
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
        crc32SliceBy8Range,
    };
    return table;
}

} // namespace bxt::simd::detail
