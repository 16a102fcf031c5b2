#include "core/codec.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "telemetry/metrics.h"

namespace bxt {

namespace {

/** memcpy that tolerates empty ranges (vector data() may be null). */
void
copyBytes(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    if (n != 0)
        std::memcpy(dst, src, n);
}

} // namespace

std::size_t
Encoded::ones() const
{
    return payload.ones() + metaOnes();
}

std::size_t
Encoded::metaOnes() const
{
    std::size_t count = 0;
    for (std::uint8_t bit : meta)
        count += bit;
    return count;
}

Encoded
Codec::encode(const Transaction &tx)
{
    TxBatch in(tx.size(), 1);
    in.push(tx);
    EncodedBatch out;
    encodeBatch(in, out);
    Encoded enc;
    enc.payload = Transaction(out.payload(0));
    enc.meta.assign(out.meta(0).begin(), out.meta(0).end());
    enc.metaWiresPerBeat = out.metaWiresPerBeat();
    return enc;
}

Transaction
Codec::decode(const Encoded &enc)
{
    EncodedBatch in;
    in.configure(enc.payload.size(), enc.metaWiresPerBeat, enc.meta.size());
    in.resizeForOverwrite(1);
    std::memcpy(in.payloadData(), enc.payload.data(), enc.payload.size());
    std::copy(enc.meta.begin(), enc.meta.end(), in.meta(0).begin());
    TxBatch out;
    decodeBatch(in, out);
    return out.transaction(0);
}

void
Codec::encodeBatch(const TxBatch &in, EncodedBatch &out)
{
    if (in.txBytes() == 0)
        throw CodecSizeError("encodeBatch: batch has no geometry");
    encodeBatchKernel(in, out);
    BXT_ASSERT(out.size() == in.size() && out.txBytes() == in.txBytes());
    if (telemetry::metricsEnabled()) {
        if (batch_size_histo_ == nullptr) {
            batch_size_histo_ = &telemetry::histogram(
                "bxt.codec." + telemetry::sanitizeMetricName(name()) +
                ".batch_size");
        }
        batch_size_histo_->record(in.size());
    }
}

void
Codec::decodeBatch(const EncodedBatch &in, TxBatch &out)
{
    if (in.txBytes() == 0)
        throw CodecSizeError("decodeBatch: batch has no geometry");
    if (in.metaWiresPerBeat() != metaWiresPerBeat()) {
        throw CodecSizeError(
            "decodeBatch: batch carries " +
            std::to_string(in.metaWiresPerBeat()) +
            " metadata wires/beat but codec " + name() + " expects " +
            std::to_string(metaWiresPerBeat()));
    }
    decodeBatchKernel(in, out);
    BXT_ASSERT(out.size() == in.size() && out.txBytes() == in.txBytes());
}

void
IdentityCodec::encodeBatchKernel(const TxBatch &in, EncodedBatch &out)
{
    // The whole batch is one plane copy (resizeForOverwrite: the copy
    // covers the plane, so no zero-fill pass precedes it).
    out.configure(in.txBytes(), 0, 0);
    out.resizeForOverwrite(in.size());
    copyBytes(out.payloadData(), in.data(), in.planeBytes());
}

void
IdentityCodec::decodeBatchKernel(const EncodedBatch &in, TxBatch &out)
{
    out.reset(in.txBytes());
    out.resizeForOverwrite(in.size());
    copyBytes(out.data(), in.payloadData(), in.payloadBytes());
}

} // namespace bxt
