#include "core/dbi.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bitops.h"
#include "common/error.h"
#include "core/simd/simd.h"

namespace bxt {

DbiCodec::DbiCodec(std::size_t group_bytes, std::size_t bus_bytes)
    : group_bytes_(group_bytes), bus_bytes_(bus_bytes)
{
    BXT_ASSERT(group_bytes == 1 || group_bytes == 2 || group_bytes == 4 ||
               group_bytes == 8);
    BXT_ASSERT(bus_bytes % group_bytes == 0);
}

std::string
DbiCodec::name() const
{
    return "dbi" + std::to_string(group_bytes_);
}

unsigned
DbiCodec::metaWiresPerBeat() const
{
    return static_cast<unsigned>(bus_bytes_ / group_bytes_);
}

void
DbiCodec::requireTxSize(std::size_t tx_bytes) const
{
    if (tx_bytes == 0 || tx_bytes % bus_bytes_ != 0) {
        throw CodecSizeError(
            name() + ": " + std::to_string(tx_bytes) +
            "-byte transaction is not a whole number of " +
            std::to_string(bus_bytes_) + "-byte beats");
    }
}

std::size_t
DbiCodec::metaBitsPerTx(std::size_t tx_bytes) const
{
    requireTxSize(tx_bytes);
    return tx_bytes / bus_bytes_ * metaWiresPerBeat();
}

void
DbiCodec::encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                            std::uint8_t *meta)
{
    requireTxSize(in.txBytes);
    if (in.count == 0)
        return;

    // Payload plane starts as a copy; the group tiling is contiguous
    // across beats and transactions (tx_bytes is a whole number of
    // beats, beats a whole number of groups) and the meta plane lays its
    // polarity bytes out in exactly that group order, so the entire
    // batch is one dispatched plane call.
    if (payload != in.data)
        std::memcpy(payload, in.data, in.bytes());
    simd::ops().dbiEncodePlane(payload, meta, in.bytes() / group_bytes_,
                               group_bytes_);
}

void
DbiCodec::decodeBatchKernel(const EncodedView &in, std::uint8_t *out)
{
    requireTxSize(in.txBytes);
    if (in.count == 0)
        return;

    const std::size_t bytes = in.count * in.txBytes;
    if (out != in.payload)
        std::memcpy(out, in.payload, bytes);
    simd::ops().dbiDecodePlane(out, in.meta, bytes / group_bytes_,
                               group_bytes_);
}

DbiAcCodec::DbiAcCodec(std::size_t group_bytes, std::size_t bus_bytes)
    : group_bytes_(group_bytes), bus_bytes_(bus_bytes)
{
    BXT_ASSERT(group_bytes == 1 || group_bytes == 2 || group_bytes == 4 ||
               group_bytes == 8);
    BXT_ASSERT(bus_bytes % group_bytes == 0);
}

std::string
DbiAcCodec::name() const
{
    return "dbi-ac" + std::to_string(group_bytes_);
}

unsigned
DbiAcCodec::metaWiresPerBeat() const
{
    return static_cast<unsigned>(bus_bytes_ / group_bytes_);
}

void
DbiAcCodec::requireTxSize(std::size_t tx_bytes) const
{
    if (tx_bytes % bus_bytes_ != 0) {
        throw CodecSizeError(
            name() + ": " + std::to_string(tx_bytes) +
            "-byte transaction is not a whole number of " +
            std::to_string(bus_bytes_) + "-byte beats");
    }
}

std::size_t
DbiAcCodec::metaBitsPerTx(std::size_t tx_bytes) const
{
    requireTxSize(tx_bytes);
    return tx_bytes / bus_bytes_ * metaWiresPerBeat();
}

void
DbiAcCodec::encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                              std::uint8_t *meta)
{
    requireTxSize(in.txBytes);
    if (in.count == 0)
        return;
    if (payload != in.data)
        std::memcpy(payload, in.data, in.bytes());

    const std::size_t beats = in.txBytes / bus_bytes_;
    const std::size_t half_bits = group_bytes_ * 8 / 2;
    std::vector<std::uint8_t> prev(bus_bytes_);
    for (std::size_t t = 0; t < in.count; ++t) {
        std::uint8_t *data = payload + t * in.txBytes;

        // prev holds the *encoded* previous beat (what the wires carried);
        // the bus idles at zero before beat 0 of every transaction.
        std::fill(prev.begin(), prev.end(), 0);
        for (std::size_t beat = 0; beat < beats; ++beat) {
            for (std::size_t g = 0; g < bus_bytes_; g += group_bytes_) {
                std::uint8_t *group = data + beat * bus_bytes_ + g;
                std::size_t transitions = 0;
                for (std::size_t i = 0; i < group_bytes_; ++i) {
                    transitions += static_cast<std::size_t>(popcount64(
                        static_cast<std::uint8_t>(group[i] ^ prev[g + i])));
                }
                const bool invert = transitions > half_bits;
                if (invert) {
                    for (std::size_t i = 0; i < group_bytes_; ++i)
                        group[i] = static_cast<std::uint8_t>(~group[i]);
                }
                *meta++ = invert ? 1 : 0;
                for (std::size_t i = 0; i < group_bytes_; ++i)
                    prev[g + i] = group[i];
            }
        }
    }
}

void
DbiAcCodec::decodeBatchKernel(const EncodedView &in, std::uint8_t *out)
{
    requireTxSize(in.txBytes);
    if (in.count == 0)
        return;
    if (out != in.payload)
        std::memcpy(out, in.payload, in.count * in.txBytes);

    // Polarity bytes run group by group across beats and transactions,
    // the payload's own order.
    const std::size_t groups = in.count * in.txBytes / group_bytes_;
    for (std::size_t g = 0; g < groups; ++g) {
        if (in.meta[g] != 0) {
            std::uint8_t *group = out + g * group_bytes_;
            for (std::size_t i = 0; i < group_bytes_; ++i)
                group[i] = static_cast<std::uint8_t>(~group[i]);
        }
    }
}

} // namespace bxt
