#include "core/bd_encoding.h"


#include "common/bitops.h"
#include "common/error.h"

namespace bxt {

BdEncodingCodec::BdEncodingCodec(std::size_t entries, unsigned threshold,
                                 std::size_t bus_bytes)
    : entries_(entries), threshold_(threshold), bus_bytes_(bus_bytes)
{
    BXT_ASSERT(isPowerOfTwo(entries) && entries <= 64);
    BXT_ASSERT(threshold >= 1 && threshold <= 64);
    BXT_ASSERT(bus_bytes == 4 || bus_bytes == 8);
    reset();
}

void
BdEncodingCodec::reset()
{
    encode_repo_ = Repository{};
    decode_repo_ = Repository{};
    encode_repo_.words.assign(entries_, 0);
    decode_repo_.words.assign(entries_, 0);
}

void
BdEncodingCodec::Repository::insert(std::uint64_t word, std::size_t capacity)
{
    words[next] = word;
    next = (next + 1) % capacity;
    if (valid < capacity)
        ++valid;
}

std::size_t
BdEncodingCodec::findBestMatch(const Repository &repo,
                               std::uint64_t word) const
{
    std::size_t best = npos;
    unsigned best_distance = threshold_;
    for (std::size_t i = 0; i < repo.valid; ++i) {
        const auto distance = static_cast<unsigned>(
            popcount64(repo.words[i] ^ word));
        if (distance < best_distance) {
            best_distance = distance;
            best = i;
        }
    }
    return best;
}

unsigned
BdEncodingCodec::metaWiresPerBeat() const
{
    // 8 metadata bits per 8-byte word = 1 metadata wire per byte lane.
    return static_cast<unsigned>(bus_bytes_);
}

void
BdEncodingCodec::encodeBatchKernel(const TxBatch &in, EncodedBatch &out)
{
    const std::size_t tx_bytes = in.txBytes();
    BXT_ASSERT(tx_bytes % 8 == 0);
    const std::size_t words = tx_bytes / 8;
    // Metadata layout: each 8-byte word owns 8 metadata bits spread over
    // the beats it occupies — one metadata wire per byte lane, so the flat
    // index w*8+bit is already beat-major for any bus width.
    out.configure(tx_bytes, metaWiresPerBeat(), words * 8);
    out.resizeForOverwrite(in.size());

    // Transactions in batch order: the repository advances exactly as
    // it would over the same stream one transaction at a time.
    for (std::size_t t = 0; t < in.size(); ++t) {
        const std::uint8_t *src = in.tx(t).data();
        std::uint8_t *dst = out.payload(t).data();
        std::uint8_t *meta_bits = out.meta(t).data();
        for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t word = loadWord64(src + w * 8);
            const std::size_t match = findBestMatch(encode_repo_, word);
            std::uint8_t meta = 0;
            std::uint64_t sent = word;
            if (match != npos) {
                sent = word ^ encode_repo_.words[match];
                meta = static_cast<std::uint8_t>(0x80u | match);
            }
            storeWord64(dst + w * 8, sent);
            for (unsigned bit = 0; bit < 8; ++bit)
                meta_bits[w * 8 + bit] = (meta >> bit) & 1u;
            encode_repo_.insert(word, entries_);
        }
    }
}

void
BdEncodingCodec::decodeBatchKernel(const EncodedBatch &in, TxBatch &out)
{
    const std::size_t tx_bytes = in.txBytes();
    BXT_ASSERT(tx_bytes % 8 == 0);
    const std::size_t words = tx_bytes / 8;
    BXT_ASSERT(in.metaBitsPerTx() == words * 8);
    out.reset(tx_bytes);
    out.resizeForOverwrite(in.size());

    for (std::size_t t = 0; t < in.size(); ++t) {
        const std::uint8_t *payload = in.payload(t).data();
        const std::uint8_t *meta_bits = in.meta(t).data();
        std::uint8_t *dst = out.tx(t).data();
        for (std::size_t w = 0; w < words; ++w) {
            std::uint8_t meta = 0;
            for (unsigned bit = 0; bit < 8; ++bit)
                meta |= static_cast<std::uint8_t>(meta_bits[w * 8 + bit]
                                                  << bit);

            std::uint64_t word = loadWord64(payload + w * 8);
            if (meta & 0x80u) {
                // The index arrives with the encoding (bxtd decode
                // requests), so an unfilled entry is bad input, not a bug.
                const std::size_t index = meta & 0x3fu;
                if (index >= decode_repo_.valid) {
                    throw CodecSizeError(
                        name() + ": metadata names repository entry " +
                        std::to_string(index) + " but only " +
                        std::to_string(decode_repo_.valid) +
                        " are filled");
                }
                word ^= decode_repo_.words[index];
            }
            storeWord64(dst + w * 8, word);
            decode_repo_.insert(word, entries_);
        }
    }
}

} // namespace bxt
