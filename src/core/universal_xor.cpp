#include "core/universal_xor.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/error.h"
#include "core/simd/simd.h"

namespace bxt {

UniversalXorCodec::UniversalXorCodec(unsigned stages, bool zdr,
                                     std::size_t zdr_lane)
    : stages_(stages), zdr_(zdr), zdr_lane_(zdr_lane)
{
    BXT_ASSERT(stages >= 1 && stages <= 5);
    BXT_ASSERT(isPowerOfTwo(zdr_lane) && zdr_lane >= 2 && zdr_lane <= 16);
}

std::string
UniversalXorCodec::name() const
{
    std::string n = "universal" + std::to_string(stages_);
    if (zdr_)
        n += "+zdr";
    return n;
}

unsigned
UniversalXorCodec::clampedStages(std::size_t tx_bytes) const
{
    // After s stages the base is tx_bytes >> s; keep it >= 2 bytes.
    unsigned max_stages = 0;
    while ((tx_bytes >> (max_stages + 1)) >= 2)
        ++max_stages;
    return std::min(stages_, max_stages);
}

std::size_t
UniversalXorCodec::effectiveBaseBytes(std::size_t tx_bytes) const
{
    return tx_bytes >> clampedStages(tx_bytes);
}


void
UniversalXorCodec::encodeBatchKernel(const TxBatch &in, EncodedBatch &out)
{
    out.configure(in.txBytes(), 0, 0);
    out.resizeForOverwrite(in.size());
    simd::ops().universalFold(out.payloadData(), in.data(), in.size(),
                              in.txBytes(), clampedStages(in.txBytes()),
                              zdr_ ? zdr_lane_ : 0);
}

void
UniversalXorCodec::decodeBatchKernel(const EncodedBatch &in, TxBatch &out)
{
    out.reset(in.txBytes());
    out.resizeForOverwrite(in.size());
    simd::ops().universalUnfold(out.data(), in.payloadData(), in.size(),
                                in.txBytes(), clampedStages(in.txBytes()),
                                zdr_ ? zdr_lane_ : 0);
}

} // namespace bxt
