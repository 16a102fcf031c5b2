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

void
DbiCodec::encodeBatchKernel(const TxBatch &in, EncodedBatch &out)
{
    requireTxSize(in.txBytes());
    const std::size_t tx_bytes = in.txBytes();
    const std::size_t beats = tx_bytes / bus_bytes_;
    const unsigned wires = metaWiresPerBeat();
    out.configure(tx_bytes, wires, beats * wires);
    out.resizeForOverwrite(in.size());
    if (in.empty())
        return;

    // Payload plane starts as a copy; the group tiling is contiguous
    // across beats and transactions (tx_bytes is a whole number of
    // beats, beats a whole number of groups) and the meta plane lays its
    // polarity bytes out in exactly that group order, so the entire
    // batch is one dispatched plane call.
    std::memcpy(out.payloadData(), in.data(), in.planeBytes());
    const std::size_t total_groups =
        in.planeBytes() / group_bytes_;
    simd::ops().dbiEncodePlane(out.payloadData(), out.metaData(),
                               total_groups, group_bytes_);
}

void
DbiCodec::decodeBatchKernel(const EncodedBatch &in, TxBatch &out)
{
    requireTxSize(in.txBytes());
    const std::size_t tx_bytes = in.txBytes();
    const std::size_t beats = tx_bytes / bus_bytes_;
    const std::size_t groups_per_beat = bus_bytes_ / group_bytes_;
    if (in.metaBitsPerTx() != beats * groups_per_beat) {
        throw CodecSizeError(name() + ": batch carries " +
                             std::to_string(in.metaBitsPerTx()) +
                             " metadata bits per transaction, expected " +
                             std::to_string(beats * groups_per_beat));
    }
    out.reset(tx_bytes);
    out.resizeForOverwrite(in.size());
    if (in.size() == 0)
        return;

    std::memcpy(out.data(), in.payloadData(), in.payloadBytes());
    const std::size_t total_groups = in.payloadBytes() / group_bytes_;
    simd::ops().dbiDecodePlane(out.data(), in.metaData(), total_groups,
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

void
DbiAcCodec::encodeBatchKernel(const TxBatch &in, EncodedBatch &out)
{
    requireTxSize(in.txBytes());
    const std::size_t tx_bytes = in.txBytes();
    const std::size_t beats = tx_bytes / bus_bytes_;
    const unsigned wires = metaWiresPerBeat();
    out.configure(tx_bytes, wires, beats * wires);
    out.resizeForOverwrite(in.size());
    if (in.empty())
        return;
    std::memcpy(out.payloadData(), in.data(), in.planeBytes());

    const std::size_t half_bits = group_bytes_ * 8 / 2;
    std::vector<std::uint8_t> prev(bus_bytes_);
    for (std::size_t t = 0; t < in.size(); ++t) {
        std::uint8_t *data = out.payload(t).data();
        std::uint8_t *meta = out.meta(t).data();

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
DbiAcCodec::decodeBatchKernel(const EncodedBatch &in, TxBatch &out)
{
    requireTxSize(in.txBytes());
    const std::size_t tx_bytes = in.txBytes();
    const std::size_t beats = tx_bytes / bus_bytes_;
    const std::size_t groups_per_beat = bus_bytes_ / group_bytes_;
    if (in.metaBitsPerTx() != beats * groups_per_beat) {
        throw CodecSizeError(name() + ": batch carries " +
                             std::to_string(in.metaBitsPerTx()) +
                             " metadata bits per transaction, expected " +
                             std::to_string(beats * groups_per_beat));
    }
    out.reset(tx_bytes);
    out.resizeForOverwrite(in.size());
    if (in.size() == 0)
        return;
    std::memcpy(out.data(), in.payloadData(), in.payloadBytes());

    for (std::size_t t = 0; t < in.size(); ++t) {
        std::uint8_t *data = out.tx(t).data();
        const std::uint8_t *meta = in.meta(t).data();
        for (std::size_t beat = 0; beat < beats; ++beat) {
            for (std::size_t g = 0; g < bus_bytes_; g += group_bytes_) {
                if (*meta++) {
                    std::uint8_t *group = data + beat * bus_bytes_ + g;
                    for (std::size_t i = 0; i < group_bytes_; ++i)
                        group[i] = static_cast<std::uint8_t>(~group[i]);
                }
            }
        }
    }
}

} // namespace bxt
