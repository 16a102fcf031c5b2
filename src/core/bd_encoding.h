/**
 * @file
 * Bitwise Difference Encoding (BD-Encoding), the ISCA 2016 comparison
 * baseline (Seol et al., paper §VI-D).
 *
 * Both ends of the channel keep a repository of the 64 most recently
 * transferred 8-byte words. Each outgoing word is compared against the
 * repository; if the most similar entry differs in fewer than a threshold
 * number of bits (12 in the paper's discussion), the word is sent as the
 * bitwise difference from that entry plus metadata carrying a valid bit and
 * the 6-bit entry index — 8 metadata bits per 8 bytes of data, i.e. four
 * extra wires on a 32-bit bus. The decoder performs the mirrored lookup
 * and both sides insert the *decoded* word, keeping the repositories
 * coherent with no extra synchronization traffic.
 */

#ifndef BXT_CORE_BD_ENCODING_H
#define BXT_CORE_BD_ENCODING_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/codec.h"

namespace bxt {

/** The BD-Encoding channel codec (stateful: call in transmission order). */
class BdEncodingCodec : public Codec
{
  public:
    /**
     * @param entries Repository size (power of two, <= 64 so the index
     *        fits the 6-bit metadata field; default 64 as in the paper).
     * @param threshold Similarity threshold: encode as a difference only
     *        when the best entry differs in strictly fewer bits
     *        (default 12, the paper's example value).
     * @param bus_bytes Bus width in bytes per beat (default 4 = the 32-bit
     *        GDDR5X channel); determines the per-beat metadata wire count
     *        (one metadata wire per byte lane).
     */
    explicit BdEncodingCodec(std::size_t entries = 64, unsigned threshold = 12,
                             std::size_t bus_bytes = 4);

    std::string name() const override { return "bd-encoding"; }
    unsigned metaWiresPerBeat() const override;
    void reset() override;
    bool stateless() const override { return false; }

  protected:
    void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) override;
    void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) override;

  private:
    /** FIFO repository of recently transferred 8-byte words. */
    struct Repository
    {
        std::vector<std::uint64_t> words;
        std::size_t next = 0;
        std::size_t valid = 0;

        void insert(std::uint64_t word, std::size_t capacity);
    };

    /** Index of the most similar valid entry, or npos when none qualifies. */
    std::size_t findBestMatch(const Repository &repo,
                              std::uint64_t word) const;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::size_t entries_;
    unsigned threshold_;
    std::size_t bus_bytes_;
    Repository encode_repo_;
    Repository decode_repo_;
};

} // namespace bxt

#endif // BXT_CORE_BD_ENCODING_H
