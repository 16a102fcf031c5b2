/**
 * @file
 * Flat batch containers for the batch-first codec core.
 *
 * TxBatch holds N same-size transactions in one contiguous byte plane;
 * EncodedBatch pairs a payload plane with a shared metadata plane (one
 * byte per metadata bit, beat-major per transaction, transactions
 * concatenated). The batch kernels (Codec::encodeBatch / decodeBatch,
 * Bus::transmitBatch) stream whole planes instead of paying per-
 * transaction virtual dispatch and buffer bookkeeping; the one-
 * transaction Codec::encode/decode wrappers run on them too.
 */

#ifndef BXT_CORE_BATCH_H
#define BXT_CORE_BATCH_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/byte_buffer.h"
#include "core/transaction.h"

namespace bxt {

/**
 * Cache-block tile size for plane sweeps: encode + transmit + decode of
 * one tile (input plane, payload plane, and metadata all together) stays
 * resident in L1/L2 instead of streaming three full batch-sized planes
 * through the cache between stages. evalBatched and the bench round-trip
 * loops cap their chunks at batchTileTx(); BusStats accumulation is
 * batch-split invariant (tests/test_batch.cpp), so tiling never changes
 * a counter.
 */
constexpr std::size_t kBatchTileBytes = 16 * 1024;

/** Transactions per cache tile for @p tx_bytes (at least 1). */
constexpr std::size_t
batchTileTx(std::size_t tx_bytes)
{
    if (tx_bytes == 0)
        return 1;
    const std::size_t tiles = kBatchTileBytes / tx_bytes;
    return tiles == 0 ? 1 : tiles;
}

/**
 * One contiguous plane of N transactions, all of the same byte size.
 * Transaction i occupies bytes [i * txBytes, (i + 1) * txBytes).
 *
 * The container enforces the geometry: every push / assign of a
 * differently sized transaction throws CodecSizeError (see codec.h)
 * rather than silently resizing, so size bugs surface at the boundary
 * where the wrong-sized data enters the batch.
 */
class TxBatch
{
  public:
    /** An empty batch with no geometry (txBytes() == 0). */
    TxBatch() = default;

    /** An empty batch of @p tx_bytes transactions (a valid Transaction
     *  size), reserving room for @p capacity of them. */
    explicit TxBatch(std::size_t tx_bytes, std::size_t capacity = 0);

    /** Reset the geometry to @p tx_bytes and drop all transactions. */
    void reset(std::size_t tx_bytes);

    /** Drop all transactions; geometry and capacity are kept. */
    void clear() { count_ = 0; plane_.clear(); }

    /** Reserve plane capacity for @p count transactions. */
    void reserve(std::size_t count) { plane_.reserve(count * tx_bytes_); }

    /** Grow/shrink to exactly @p count transactions (new ones zeroed). */
    void resize(std::size_t count);

    /**
     * Grow/shrink to exactly @p count transactions without zeroing new
     * plane bytes — for kernels that overwrite the whole plane before
     * reading it (every batch kernel's first act is a plane memcpy or a
     * full rewrite). resize()'s zero-fill made the cheap codecs slower
     * per transaction at batch 4096 than at 64.
     */
    void resizeForOverwrite(std::size_t count);

    /** Append one transaction; throws CodecSizeError on a size mismatch. */
    void push(const Transaction &tx);

    /** Append @p count raw transactions from a tightly packed plane. */
    void append(const std::uint8_t *data, std::size_t count);

    /** Transactions in the batch. */
    std::size_t size() const { return count_; }

    /** True when the batch holds no transactions. */
    bool empty() const { return count_ == 0; }

    /** Bytes per transaction (0 until a geometry is set). */
    std::size_t txBytes() const { return tx_bytes_; }

    /** Total plane bytes (size() * txBytes()). */
    std::size_t planeBytes() const { return plane_.size(); }

    /** Raw plane pointer (transaction 0, byte 0). */
    std::uint8_t *data() { return plane_.data(); }
    const std::uint8_t *data() const { return plane_.data(); }

    /** Mutable view of transaction @p i's bytes. */
    std::span<std::uint8_t> tx(std::size_t i)
    {
        return {plane_.data() + i * tx_bytes_, tx_bytes_};
    }

    /** Read-only view of transaction @p i's bytes. */
    std::span<const std::uint8_t> tx(std::size_t i) const
    {
        return {plane_.data() + i * tx_bytes_, tx_bytes_};
    }

    /** Copy transaction @p i out into a Transaction. */
    Transaction transaction(std::size_t i) const
    {
        return Transaction(tx(i));
    }

    /** Total `1` bits across the plane. */
    std::uint64_t ones() const;

    /** Geometry and plane bytes both equal. */
    bool operator==(const TxBatch &other) const = default;

  private:
    std::size_t tx_bytes_ = 0;
    std::size_t count_ = 0;
    ByteBuffer plane_;
};

/**
 * The batch analogue of Encoded: a payload plane (same layout as
 * TxBatch) plus one shared metadata plane holding every transaction's
 * beat-major metadata bits back to back — bit (b * metaWiresPerBeat + w)
 * of transaction i is metaPlane[i * metaBitsPerTx + b * wires + w],
 * stored one byte per bit exactly like Encoded::meta.
 */
class EncodedBatch
{
  public:
    EncodedBatch() = default;

    /**
     * Set the geometry: @p tx_bytes payload bytes and @p meta_bits_per_tx
     * metadata bits per transaction on @p meta_wires_per_beat wires.
     * Drops any previous contents.
     */
    void configure(std::size_t tx_bytes, unsigned meta_wires_per_beat,
                   std::size_t meta_bits_per_tx);

    /** Grow/shrink to exactly @p count transactions (new bytes zeroed). */
    void resize(std::size_t count);

    /** resize() without zeroing new bytes (see TxBatch equivalent). */
    void resizeForOverwrite(std::size_t count);

    /** Transactions in the batch. */
    std::size_t size() const { return count_; }

    /** Payload bytes per transaction. */
    std::size_t txBytes() const { return tx_bytes_; }

    /** Metadata bits per transaction (beats * metaWiresPerBeat). */
    std::size_t metaBitsPerTx() const { return meta_bits_per_tx_; }

    /** Dedicated metadata wires per beat (0 for metadata-free codecs). */
    unsigned metaWiresPerBeat() const { return meta_wires_per_beat_; }

    /** Raw payload plane pointer. */
    std::uint8_t *payloadData() { return payload_.data(); }
    const std::uint8_t *payloadData() const { return payload_.data(); }

    /** Raw metadata plane pointer (one byte per bit, 0/1 values). */
    std::uint8_t *metaData() { return meta_.data(); }
    const std::uint8_t *metaData() const { return meta_.data(); }

    /** Mutable view of transaction @p i's payload bytes. */
    std::span<std::uint8_t> payload(std::size_t i)
    {
        return {payload_.data() + i * tx_bytes_, tx_bytes_};
    }

    /** Read-only view of transaction @p i's payload bytes. */
    std::span<const std::uint8_t> payload(std::size_t i) const
    {
        return {payload_.data() + i * tx_bytes_, tx_bytes_};
    }

    /** Mutable view of transaction @p i's metadata bits. */
    std::span<std::uint8_t> meta(std::size_t i)
    {
        return {meta_.data() + i * meta_bits_per_tx_, meta_bits_per_tx_};
    }

    /** Read-only view of transaction @p i's metadata bits. */
    std::span<const std::uint8_t> meta(std::size_t i) const
    {
        return {meta_.data() + i * meta_bits_per_tx_, meta_bits_per_tx_};
    }

    /** Total payload plane bytes. */
    std::size_t payloadBytes() const { return payload_.size(); }

    /** `1` bits across the payload plane. */
    std::uint64_t payloadOnes() const;

    /** `1` values across the metadata plane. */
    std::uint64_t metaOnes() const;

    /** Geometry and both planes equal. */
    bool operator==(const EncodedBatch &other) const = default;

  private:
    std::size_t tx_bytes_ = 0;
    std::size_t count_ = 0;
    std::size_t meta_bits_per_tx_ = 0;
    unsigned meta_wires_per_beat_ = 0;
    ByteBuffer payload_;
    ByteBuffer meta_;
};

} // namespace bxt

#endif // BXT_CORE_BATCH_H
