/**
 * @file
 * Dynamic Bus Inversion, DC mode (paper §II-B), the encoding that already
 * exists in GDDR5/GDDR5X.
 *
 * The serialized transaction is viewed as bus-width beats; each beat is
 * divided into groups of `group_bytes` bytes. A group with more than half
 * of its bits set is transmitted inverted, with the inversion recorded as a
 * polarity bit on a dedicated metadata wire (one wire per group). GDDR5X
 * uses 1-byte groups (four DBI wires on a 32-bit channel).
 *
 * DBI-DC guarantees at most half the bits of any group are `1`, which also
 * bounds simultaneous-switching noise — the reason the paper keeps DBI
 * alongside Base+XOR rather than replacing it.
 */

#ifndef BXT_CORE_DBI_H
#define BXT_CORE_DBI_H

#include <cstddef>

#include "core/codec.h"

namespace bxt {

/** DBI-DC encoder over bus-width beats. */
class DbiCodec : public Codec
{
  public:
    /**
     * @param group_bytes Inversion granularity in bytes (1, 2, or 4);
     *        must divide the bus width.
     * @param bus_bytes Bus width in bytes per beat (default 4 = the 32-bit
     *        GDDR5X channel); must divide the transaction size.
     */
    explicit DbiCodec(std::size_t group_bytes, std::size_t bus_bytes = 4);

    std::string name() const override;
    unsigned metaWiresPerBeat() const override;
    std::size_t metaBitsPerTx(std::size_t tx_bytes) const override;

    /** Yes: the payload starts as a copy of the input (skipped in
     *  place) and every group inverts where it lies. */
    bool allowsInPlace() const override { return true; }

    /** Inversion group size in bytes. */
    std::size_t groupBytes() const { return group_bytes_; }

  protected:
    void encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                           std::uint8_t *meta) override;
    void decodeBatchKernel(const EncodedView &in,
                           std::uint8_t *out) override;

  private:
    /** Throw CodecSizeError unless @p tx_bytes is a whole number of beats. */
    void requireTxSize(std::size_t tx_bytes) const;

    std::size_t group_bytes_;
    std::size_t bus_bytes_;
};

/**
 * DBI-AC: the toggle-minimizing variant of bus inversion (paper footnote
 * 3). Each group is inverted when more than half of its wires would
 * *switch* relative to the previously transmitted beat (idle zero before
 * beat 0), bounding simultaneous switching instead of the `1` count.
 * GDDR5/5X uses DBI-DC because termination current, not switching,
 * dominates a POD interface — this codec exists to demonstrate that
 * trade-off (see bench_ablation).
 *
 * Encoding is self-contained per transaction (the reference beat is
 * reconstructible by the decoder), so the codec is stateless.
 */
class DbiAcCodec : public Codec
{
  public:
    /** @param group_bytes / @param bus_bytes as for DbiCodec. */
    explicit DbiAcCodec(std::size_t group_bytes, std::size_t bus_bytes = 4);

    std::string name() const override;
    unsigned metaWiresPerBeat() const override;
    std::size_t metaBitsPerTx(std::size_t tx_bytes) const override;

    /** Yes, as for DbiCodec; the previous beat is kept aside as it was
     *  sent. */
    bool allowsInPlace() const override { return true; }

  protected:
    void encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                           std::uint8_t *meta) override;
    void decodeBatchKernel(const EncodedView &in,
                           std::uint8_t *out) override;

  private:
    /** Throw CodecSizeError unless @p tx_bytes is a whole number of beats. */
    void requireTxSize(std::size_t tx_bytes) const;

    std::size_t group_bytes_;
    std::size_t bus_bytes_;
};

} // namespace bxt

#endif // BXT_CORE_DBI_H
