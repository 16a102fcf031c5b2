#include "core/universal_xor.h"

#include <algorithm>
#include <cstring>

#include "common/bitops.h"
#include "common/error.h"
#include "core/simd/kernel_common.h"
#include "core/simd/simd.h"
#include "core/zdr.h"

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

namespace {

/** Halves narrower than one vector register pay more in dispatch call
 *  overhead and tail masking than the vector kernels return; they take
 *  the inline word helpers instead (the outer fold stages of 32-byte
 *  transactions are 16/8/4 bytes wide). */
constexpr std::size_t kStageSimdMinBytes = 32;

/** One fold/unfold stage over [right, right+half) against the left half,
 *  routed through the dispatched range primitives. Every stage is
 *  elementwise over contiguous equal-width lanes (the left half is
 *  untouched while a stage runs), so both directions vectorize. */
void
stageOp(std::uint8_t *right, const std::uint8_t *left, std::size_t half,
        bool zdr, std::size_t zdr_lane, bool encode,
        const simd::KernelTable &ops)
{
    namespace kd = simd::detail;
    const bool narrow = half < kStageSimdMinBytes;
    if (!zdr) {
        if (narrow)
            kd::xorWordRange(right, right, left, half);
        else
            ops.xorRange(right, right, left, half);
        return;
    }
    const std::size_t lane = std::min(zdr_lane, half);
    if (lane == 2) {
        if (narrow)
            (encode ? kd::zdrEncode16WordRange
                    : kd::zdrDecode16WordRange)(right, right, left, half);
        else
            (encode ? ops.zdrEncode16 : ops.zdrDecode16)(right, right,
                                                         left, half);
    } else if (lane == 4) {
        if (narrow)
            (encode ? kd::zdrEncode32WordRange
                    : kd::zdrDecode32WordRange)(right, right, left, half);
        else
            (encode ? ops.zdrEncode32 : ops.zdrDecode32)(right, right,
                                                         left, half);
    } else if (lane == 8) {
        if (narrow)
            (encode ? kd::zdrEncode64WordRange
                    : kd::zdrDecode64WordRange)(right, right, left, half);
        else
            (encode ? ops.zdrEncode64 : ops.zdrDecode64)(right, right,
                                                         left, half);
    } else {
        for (std::size_t off = 0; off < half; off += lane) {
            if (encode)
                zdrLaneEncode(right + off, right + off, left + off, lane);
            else
                zdrLaneDecode(right + off, right + off, left + off, lane);
        }
    }
}

} // namespace

void
UniversalXorCodec::encodeBatchKernel(const TxBatch &in, EncodedBatch &out)
{
    // The fold cascade runs in place, so the batch is one plane copy
    // followed by per-slice folds — no per-transaction scratch Encoded.
    out.configure(in.txBytes(), 0, 0);
    out.resizeForOverwrite(in.size());
    if (in.empty())
        return;
    std::memcpy(out.payloadData(), in.data(), in.planeBytes());
    const std::size_t tx_bytes = in.txBytes();
    const unsigned stages = clampedStages(tx_bytes);
    const simd::KernelTable &ops = simd::ops();
    std::uint8_t *slice = out.payloadData();
    for (std::size_t i = 0; i < in.size(); ++i, slice += tx_bytes) {
        std::size_t half = tx_bytes / 2;
        for (unsigned s = 0; s < stages; ++s, half /= 2)
            stageOp(slice + half, slice, half, zdr_, zdr_lane_,
                    /*encode=*/true, ops);
    }
}

void
UniversalXorCodec::decodeBatchKernel(const EncodedBatch &in, TxBatch &out)
{
    out.reset(in.txBytes());
    out.resizeForOverwrite(in.size());
    if (in.size() == 0)
        return;
    std::memcpy(out.data(), in.payloadData(), in.payloadBytes());
    const std::size_t tx_bytes = in.txBytes();
    const unsigned stages = clampedStages(tx_bytes);
    const simd::KernelTable &ops = simd::ops();
    std::uint8_t *slice = out.data();
    for (std::size_t i = 0; i < in.size(); ++i, slice += tx_bytes) {
        // Stages in reverse: inner stages restore the left prefix first.
        for (unsigned s = stages; s-- > 0;) {
            const std::size_t half = tx_bytes >> (s + 1);
            stageOp(slice + half, slice, half, zdr_, zdr_lane_,
                    /*encode=*/false, ops);
        }
    }
}

} // namespace bxt
