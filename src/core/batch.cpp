#include "core/batch.h"

#include <cstring>

#include "common/bitops.h"
#include "common/error.h"
#include "core/simd/simd.h"

namespace bxt {

namespace {

void
requireValidTxBytes(std::size_t tx_bytes)
{
    if (!isPowerOfTwo(tx_bytes) || tx_bytes < Transaction::minBytes ||
        tx_bytes > Transaction::maxBytes) {
        throw CodecSizeError("batch geometry: " + std::to_string(tx_bytes) +
                             " is not a valid transaction size");
    }
}

} // namespace

TxBatch::TxBatch(std::size_t tx_bytes, std::size_t capacity)
{
    reset(tx_bytes);
    reserve(capacity);
}

void
TxBatch::reset(std::size_t tx_bytes)
{
    requireValidTxBytes(tx_bytes);
    tx_bytes_ = tx_bytes;
    count_ = 0;
    plane_.clear();
}

void
TxBatch::resize(std::size_t count)
{
    requireValidTxBytes(tx_bytes_);
    count_ = count;
    plane_.resize(count * tx_bytes_);
}

void
TxBatch::resizeForOverwrite(std::size_t count)
{
    requireValidTxBytes(tx_bytes_);
    count_ = count;
    plane_.resizeForOverwrite(count * tx_bytes_);
}

void
TxBatch::push(const Transaction &tx)
{
    if (tx.size() != tx_bytes_) {
        throw CodecSizeError(
            "TxBatch::push: " + std::to_string(tx.size()) +
            "-byte transaction into a " + std::to_string(tx_bytes_) +
            "-byte batch");
    }
    plane_.append(tx.data(), tx_bytes_);
    ++count_;
}

void
TxBatch::append(const std::uint8_t *data, std::size_t count)
{
    requireValidTxBytes(tx_bytes_);
    plane_.append(data, count * tx_bytes_);
    count_ += count;
}

std::uint64_t
TxBatch::ones() const
{
    return simd::ops().popcountRange(plane_.data(), plane_.size());
}

void
EncodedBatch::configure(std::size_t tx_bytes, unsigned meta_wires_per_beat,
                        std::size_t meta_bits_per_tx)
{
    requireValidTxBytes(tx_bytes);
    if (meta_wires_per_beat == 0 && meta_bits_per_tx != 0) {
        throw CodecSizeError(
            "EncodedBatch::configure: metadata bits without wires");
    }
    tx_bytes_ = tx_bytes;
    meta_wires_per_beat_ = meta_wires_per_beat;
    meta_bits_per_tx_ = meta_bits_per_tx;
    count_ = 0;
    payload_.clear();
    meta_.clear();
}

void
EncodedBatch::resize(std::size_t count)
{
    requireValidTxBytes(tx_bytes_);
    count_ = count;
    payload_.resize(count * tx_bytes_);
    meta_.resize(count * meta_bits_per_tx_);
}

void
EncodedBatch::resizeForOverwrite(std::size_t count)
{
    requireValidTxBytes(tx_bytes_);
    count_ = count;
    payload_.resizeForOverwrite(count * tx_bytes_);
    meta_.resizeForOverwrite(count * meta_bits_per_tx_);
}

std::uint64_t
EncodedBatch::payloadOnes() const
{
    return simd::ops().popcountRange(payload_.data(), payload_.size());
}

std::uint64_t
EncodedBatch::metaOnes() const
{
    // Metadata bytes are 0/1, so the popcount is the sum.
    return simd::ops().popcountRange(meta_.data(), meta_.size());
}

} // namespace bxt
