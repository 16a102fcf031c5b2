/**
 * @file
 * Unit tests for the channel evaluation driver.
 */

#include <gtest/gtest.h>

#include "channel/channel_eval.h"
#include "core/codec_factory.h"
#include "telemetry/metrics.h"

namespace bxt {
namespace {

std::vector<Transaction>
similarStream(std::size_t count)
{
    std::vector<Transaction> stream;
    for (std::size_t i = 0; i < count; ++i) {
        Transaction tx(32);
        for (std::size_t off = 0; off < 32; off += 4)
            tx.setWord32(off, 0x390c9b00u +
                                  static_cast<std::uint32_t>(off + i));
        stream.push_back(tx);
    }
    return stream;
}

// First in the file: the eval counters bind on the first stream
// recorded in the process, and here that stream runs under a scoped
// registry that is then destroyed.
TEST(ChannelEval, CountersBindToDefaultRegistryUnderScopedFirstUse)
{
    telemetry::setMetricsEnabled(true);
    telemetry::Counter &streams =
        telemetry::defaultRegistry().counter("bxt.channel.eval.streams");
    const std::uint64_t before = streams.value();
    CodecPtr codec = makeCodec("baseline");
    {
        telemetry::Registry shard;
        telemetry::ScopedRegistry scoped(shard);
        evalCodecOnStream(*codec, similarStream(8), 32);
    }
    evalCodecOnStream(*codec, similarStream(8), 32);
    telemetry::setMetricsEnabled(false);
    EXPECT_EQ(streams.value(), before + 2);
}

TEST(ChannelEval, BaselineNormalizedOnesIsOne)
{
    CodecPtr codec = makeCodec("baseline");
    const auto result = evalCodecOnStream(*codec, similarStream(64), 32);
    EXPECT_DOUBLE_EQ(result.normalizedOnes(), 1.0);
    EXPECT_EQ(result.stats.transactions, 64u);
}

TEST(ChannelEval, UniversalReducesOnesOnSimilarData)
{
    CodecPtr codec = makeCodec("universal3+zdr");
    const auto result = evalCodecOnStream(*codec, similarStream(64), 32);
    EXPECT_LT(result.normalizedOnes(), 0.6);
    EXPECT_GT(result.onesPerTransaction(), 0.0);
}

TEST(ChannelEval, EmptyStream)
{
    CodecPtr codec = makeCodec("baseline");
    const auto result = evalCodecOnStream(*codec, {}, 32);
    EXPECT_DOUBLE_EQ(result.normalizedOnes(), 1.0);
    EXPECT_DOUBLE_EQ(result.onesPerTransaction(), 0.0);
}

TEST(MixedDataRatio, AllDense)
{
    std::vector<Transaction> stream;
    Transaction tx(32);
    for (std::size_t off = 0; off < 32; off += 4)
        tx.setWord32(off, 0x12345678);
    stream.push_back(tx);
    EXPECT_DOUBLE_EQ(mixedDataRatio(stream), 0.0);
}

TEST(MixedDataRatio, AllZeroIsNotMixed)
{
    std::vector<Transaction> stream{Transaction(32)};
    EXPECT_DOUBLE_EQ(mixedDataRatio(stream), 0.0);
}

TEST(MixedDataRatio, MixedCounts)
{
    std::vector<Transaction> stream;
    Transaction mixed(32);
    mixed.setWord32(0, 0xdeadbeef); // One non-zero + seven zero elements.
    stream.push_back(mixed);
    Transaction dense(32);
    for (std::size_t off = 0; off < 32; off += 4)
        dense.setWord32(off, 0x1);
    stream.push_back(dense);
    EXPECT_DOUBLE_EQ(mixedDataRatio(stream), 0.5);
}

TEST(MixedDataRatio, EmptyStreamIsZero)
{
    EXPECT_DOUBLE_EQ(mixedDataRatio({}), 0.0);
}

} // namespace
} // namespace bxt
