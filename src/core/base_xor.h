/**
 * @file
 * N-byte Base+XOR Transfer (paper §III-B, Figure 4) with optional Zero Data
 * Remapping (§IV-A) and an optional fixed-base variant (the ablation the
 * paper discusses in §V-B: adjacent bases track similarity better than a
 * single fixed base).
 */

#ifndef BXT_CORE_BASE_XOR_H
#define BXT_CORE_BASE_XOR_H

#include <cstddef>

#include "core/codec.h"

namespace bxt {

/**
 * Splits each transaction into base-size elements; element 0 (the base
 * element) passes through unchanged, every other element is sent as the XOR
 * with its left neighbour's original value (adjacent-base mode, the paper's
 * proposal) or with element 0 (fixed-base mode, the lower-latency
 * alternative discussed in §V-B).
 *
 * With ZDR enabled the XOR of each element is replaced by the bijective
 * three-way mapping of core/zdr.h at element granularity.
 */
class BaseXorCodec : public Codec
{
  public:
    /**
     * @param base_size Element size in bytes (2, 4, 8, or 16); must divide
     *        the transaction size.
     * @param zdr Apply Zero Data Remapping to each XORed element.
     * @param adjacent_base XOR against the left neighbour (true, default)
     *        or always against element 0 (false).
     */
    explicit BaseXorCodec(std::size_t base_size, bool zdr = true,
                          bool adjacent_base = true);

    std::string name() const override;

    /** Element size in bytes. */
    std::size_t baseSize() const { return base_size_; }

    /** Whether Zero Data Remapping is applied. */
    bool zdrEnabled() const { return zdr_; }

  protected:
    void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) override;
    void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) override;

  private:
    /** Throw CodecSizeError unless @p tx_bytes fits this configuration. */
    void requireTxSize(std::size_t tx_bytes) const;

    std::size_t base_size_;
    bool zdr_;
    bool adjacent_base_;
};

} // namespace bxt

#endif // BXT_CORE_BASE_XOR_H
