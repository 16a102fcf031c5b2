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

std::size_t
BdEncodingCodec::metaBitsPerTx(std::size_t tx_bytes) const
{
    // Each 8-byte word owns 8 metadata bits spread over the beats it
    // occupies — one metadata wire per byte lane, so the flat index
    // w*8+bit is already beat-major for any bus width. Every valid
    // transaction size is a whole number of words and beats.
    BXT_ASSERT(tx_bytes % 8 == 0);
    return tx_bytes;
}

void
BdEncodingCodec::encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                                   std::uint8_t *meta_bits)
{
    // Transactions in batch order, words in transaction order: the
    // repository advances exactly as it would over the same stream one
    // transaction at a time.
    const std::size_t words = in.bytes() / 8;
    for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t word = loadWord64(in.data + w * 8);
        const std::size_t match = findBestMatch(encode_repo_, word);
        std::uint8_t meta = 0;
        std::uint64_t sent = word;
        if (match != npos) {
            sent = word ^ encode_repo_.words[match];
            meta = static_cast<std::uint8_t>(0x80u | match);
        }
        storeWord64(payload + w * 8, sent);
        for (unsigned bit = 0; bit < 8; ++bit)
            meta_bits[w * 8 + bit] = (meta >> bit) & 1u;
        encode_repo_.insert(word, entries_);
    }
}

void
BdEncodingCodec::decodeBatchKernel(const EncodedView &in, std::uint8_t *out)
{
    const std::size_t words = in.count * in.txBytes / 8;
    for (std::size_t w = 0; w < words; ++w) {
        std::uint8_t meta = 0;
        for (unsigned bit = 0; bit < 8; ++bit)
            meta |= static_cast<std::uint8_t>(in.meta[w * 8 + bit] << bit);

        std::uint64_t word = loadWord64(in.payload + w * 8);
        if (meta & 0x80u) {
            // The index arrives with the encoding (bxtd decode
            // requests), so an unfilled entry is bad input, not a bug.
            const std::size_t index = meta & 0x3fu;
            if (index >= decode_repo_.valid) {
                throw CodecSizeError(
                    name() + ": metadata names repository entry " +
                    std::to_string(index) + " but only " +
                    std::to_string(decode_repo_.valid) + " are filled");
            }
            word ^= decode_repo_.words[index];
        }
        storeWord64(out + w * 8, word);
        decode_repo_.insert(word, entries_);
    }
}

} // namespace bxt
