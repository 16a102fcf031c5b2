/**
 * @file
 * Unit tests for the BD-Encoding comparison baseline (paper §VI-D).
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/bd_encoding.h"

namespace bxt {
namespace {

TEST(BdEncoding, FirstTransactionIsRawWithEmptyRepository)
{
    BdEncodingCodec codec;
    Transaction tx = Transaction::fromWords64(
        {0x1111111111111111ull, 0x2222222222222222ull,
         0x3333333333333333ull, 0x4444444444444444ull});
    const Encoded enc = codec.encode(tx);
    // Dissimilar words: everything transmitted raw, no valid metadata.
    EXPECT_EQ(enc.payload, tx);
    EXPECT_EQ(enc.metaOnes(), 0u);
    EXPECT_EQ(codec.decode(enc), tx);
}

TEST(BdEncoding, RepeatedWordHitsRepository)
{
    BdEncodingCodec codec;
    Transaction tx = Transaction::fromWords64(
        {0xabcdef0123456789ull, 0xabcdef0123456789ull,
         0xabcdef0123456789ull, 0xabcdef0123456789ull});
    const Encoded enc = codec.encode(tx);
    // Word 0 misses (repo empty); words 1-3 match exactly -> XOR to 0.
    EXPECT_EQ(enc.payload.word64(0), 0xabcdef0123456789ull);
    EXPECT_EQ(enc.payload.word64(8), 0u);
    EXPECT_EQ(enc.payload.word64(16), 0u);
    EXPECT_EQ(enc.payload.word64(24), 0u);
    EXPECT_EQ(codec.decode(enc), tx);
}

TEST(BdEncoding, SimilarWordSentAsDifference)
{
    BdEncodingCodec codec(64, 12);
    Transaction a = Transaction::fromWords64(
        {0x400e000000000000ull, 0x400e000000000001ull,
         0x400e000000000003ull, 0x400e000000000007ull});
    const Encoded enc = codec.encode(a);
    // Words 1..3 differ from word 0 by < 12 bits -> differences.
    EXPECT_LE(enc.payload.word64(8), 0xfull);
    EXPECT_LE(enc.payload.word64(16), 0xfull);
    EXPECT_EQ(codec.decode(enc), a);
}

TEST(BdEncoding, ThresholdIsStrict)
{
    // Entry differing in exactly `threshold` bits must NOT match.
    BdEncodingCodec codec(64, 4);
    Transaction first = Transaction::fromWords64(
        {0ull, 0ull, 0ull, 0ull});
    // Fill both repositories with zero words (every transfer is encoded
    // at one end and decoded at the other).
    (void)codec.decode(codec.encode(first));

    Transaction probe(32);
    probe.setWord64(0, 0x0full);       // 4 bits away: no match.
    probe.setWord64(8, 0x07ull);       // 3 bits away: match.
    const Encoded enc = codec.encode(probe);
    EXPECT_EQ(enc.payload.word64(0), 0x0full); // Raw.
    EXPECT_EQ(enc.meta[7], 0u);                // Valid bit off for word 0.
    EXPECT_EQ(enc.meta[8 + 7], 1u);            // Valid bit on for word 1.
    EXPECT_EQ(codec.decode(enc), probe);
}

TEST(BdEncoding, MetadataCarriesIndexOnes)
{
    BdEncodingCodec codec;
    Transaction zeros(32);
    (void)codec.decode(codec.encode(zeros));
    Transaction again(32);
    const Encoded enc = codec.encode(again);
    // All four words match a repository entry: 4 valid bits at least.
    EXPECT_GE(enc.metaOnes(), 4u);
    EXPECT_EQ(codec.decode(enc), again);
}

TEST(BdEncoding, DecoderStaysCoherentOverLongStream)
{
    BdEncodingCodec codec;
    Rng rng(17);
    std::uint64_t walker = 0x400e000000000000ull;
    for (int i = 0; i < 500; ++i) {
        Transaction tx(32);
        for (std::size_t off = 0; off < 32; off += 8) {
            walker += rng.nextBounded(16);
            tx.setWord64(off, walker);
        }
        const Encoded enc = codec.encode(tx);
        ASSERT_EQ(codec.decode(enc), tx) << "desync at transaction " << i;
    }
}

TEST(BdEncoding, RepositoryEvictsOldEntries)
{
    // After filling all 64 slots with junk, an early word no longer
    // matches.
    BdEncodingCodec codec(64, 12);
    Transaction marker(32);
    marker.setWord64(0, 0x123456789abcdef0ull);
    (void)codec.decode(codec.encode(marker));

    Rng rng(23);
    for (int i = 0; i < 16; ++i) { // 16 tx x 4 words = 64 insertions.
        Transaction junk(32);
        for (std::size_t off = 0; off < 32; off += 8)
            junk.setWord64(off, rng.next64());
        (void)codec.decode(codec.encode(junk));
    }

    Transaction probe(32);
    probe.setWord64(0, 0x123456789abcdef0ull);
    const Encoded enc = codec.encode(probe);
    // With the marker evicted and random junk in the repo, the word
    // should (overwhelmingly likely) be sent raw.
    EXPECT_EQ(enc.payload.word64(0), 0x123456789abcdef0ull);
    EXPECT_EQ(codec.decode(enc), probe);
}

TEST(BdEncoding, ResetClearsBothRepositories)
{
    BdEncodingCodec codec;
    Transaction tx = Transaction::fromWords64(
        {0xaaaaaaaaaaaaaaaaull, 0xaaaaaaaaaaaaaaaaull,
         0xaaaaaaaaaaaaaaaaull, 0xaaaaaaaaaaaaaaaaull});
    (void)codec.decode(codec.encode(tx));
    codec.reset();
    const Encoded enc = codec.encode(tx);
    // Fresh repo: word 0 raw again.
    EXPECT_EQ(enc.payload.word64(0), 0xaaaaaaaaaaaaaaaaull);
    EXPECT_EQ(codec.decode(enc), tx);
}

TEST(BdEncoding, StatefulAndMetadataProperties)
{
    BdEncodingCodec codec;
    EXPECT_FALSE(codec.stateless());
    EXPECT_EQ(codec.metaWiresPerBeat(), 4u);
    EXPECT_EQ(BdEncodingCodec(64, 12, 8).metaWiresPerBeat(), 8u);
    EXPECT_EQ(codec.name(), "bd-encoding");
}

/**
 * The repository index travels with the encoding (a bxtd Decode request
 * carries it), so an index naming an entry the decoder has not filled is
 * bad input: a typed CodecSizeError, not an abort.
 */
TEST(BdEncoding, DecodeRejectsUnfilledRepositoryIndex)
{
    BdEncodingCodec codec;
    Encoded enc;
    enc.payload = Transaction(32);
    enc.metaWiresPerBeat = codec.metaWiresPerBeat();
    enc.meta.assign(32, 0);
    enc.meta[5] = 1; // Word 0 names entry 32...
    enc.meta[7] = 1; // ...and sets the valid bit; the repository is empty.
    EXPECT_THROW(codec.decode(enc), CodecSizeError);
}

TEST(BdEncoding, RandomRoundTripStress)
{
    BdEncodingCodec codec;
    Rng rng(29);
    for (int i = 0; i < 1000; ++i) {
        Transaction tx(32);
        for (std::size_t off = 0; off < 32; off += 8) {
            // Mix of random, zero, and near-duplicate words.
            const int kind = static_cast<int>(rng.nextBounded(3));
            if (kind == 0)
                tx.setWord64(off, rng.next64());
            else if (kind == 1)
                tx.setWord64(off, 0);
            else
                tx.setWord64(off, 0x400e00000000000ull +
                                      rng.nextBounded(256));
        }
        const Encoded enc = codec.encode(tx);
        ASSERT_EQ(codec.decode(enc), tx);
    }
}

} // namespace
} // namespace bxt
