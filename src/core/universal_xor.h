/**
 * @file
 * Universal Base+XOR Transfer (paper §IV-C, Figures 7-8).
 *
 * Rather than committing to one base size, the transaction is folded by a
 * logarithmic cascade: stage 0 XORs the right half of the transaction with
 * the left half; stage 1 recurses into the left half; and so on for S
 * stages. Similarity at any power-of-two element granularity makes the
 * corresponding XORed region mostly zero, and the surviving prefix is the
 * paper's "effective base element". All stages can evaluate in parallel in
 * hardware (Figure 9b); software here applies them in order.
 *
 * With ZDR enabled, each stage's XOR is replaced by the lane-wise bijective
 * remap of core/zdr.h: the XORed half is processed in fixed-width lanes
 * (default 4 bytes, Table II's "ZDR ... 4B base" configuration, clamped to
 * the half width for small halves) with the corresponding lane of the left
 * half as the lane base. Lane-wise application is what lets zero *elements*
 * interspersed in a non-zero half still hit the remap.
 */

#ifndef BXT_CORE_UNIVERSAL_XOR_H
#define BXT_CORE_UNIVERSAL_XOR_H

#include <cstddef>

#include "core/codec.h"

namespace bxt {

/**
 * The paper's final proposal: Universal Base+XOR Transfer with optional
 * lane-wise Zero Data Remapping.
 */
class UniversalXorCodec : public Codec
{
  public:
    /**
     * @param stages Number of fold stages (1..5). Three stages on a 32-byte
     *        transaction leave a 4-byte effective base (Table II's config);
     *        four stages reach a 2-byte base. Stage counts that would fold
     *        below a 2-byte base are clamped per transaction.
     * @param zdr Apply lane-wise Zero Data Remapping at each stage.
     * @param zdr_lane ZDR lane width in bytes (power of two; default 4).
     */
    explicit UniversalXorCodec(unsigned stages = 3, bool zdr = true,
                               std::size_t zdr_lane = 4);

    std::string name() const override;

    /** Configured stage count. */
    unsigned stages() const { return stages_; }

    /** Effective base size for a transaction of @p tx_bytes bytes. */
    std::size_t effectiveBaseBytes(std::size_t tx_bytes) const;

  protected:
    void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) override;
    void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) override;

  private:
    /** Stage count clamped so the base never folds below 2 bytes. */
    unsigned clampedStages(std::size_t tx_bytes) const;

    unsigned stages_;
    bool zdr_;
    std::size_t zdr_lane_;
};

} // namespace bxt

#endif // BXT_CORE_UNIVERSAL_XOR_H
