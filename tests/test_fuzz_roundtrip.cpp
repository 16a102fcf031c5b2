/**
 * @file
 * Fuzz-style differential tests: randomly composed codec pipelines over
 * randomly structured transactions. Losslessness of every composition is
 * the library's core contract (encoded data is what DRAM stores), so it
 * gets hammered beyond the per-codec unit tests.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/codec_factory.h"

namespace bxt {
namespace {

/** Stage specs that can appear in a random pipeline. */
const char *const stage_pool[] = {
    "xor2",      "xor2+zdr",  "xor4",        "xor4+zdr", "xor8",
    "xor8+zdr",  "xor16",     "xor4+fixed",  "universal2",
    "universal3+zdr", "universal4+zdr", "dbi1", "dbi2", "dbi4",
    "dbi-ac1",   "dbi-ac2",   "bd",
};

std::string
randomSpec(Rng &rng)
{
    const std::size_t stages = 1 + rng.nextBounded(3);
    std::string spec;
    for (std::size_t s = 0; s < stages; ++s) {
        if (s > 0)
            spec += '|';
        spec += stage_pool[rng.nextBounded(std::size(stage_pool))];
    }
    return spec;
}

/** Transactions biased toward the encoders' special cases. */
Transaction
randomTransaction(Rng &rng, std::size_t size)
{
    Transaction tx(size);
    for (std::size_t off = 0; off < size; off += 8) {
        switch (rng.nextBounded(6)) {
          case 0:
            tx.setWord64(off, 0); // Zero elements (ZDR path).
            break;
          case 1: // ZDR constant-shaped values.
            tx.setWord64(off, 0x4000000040000000ull);
            break;
          case 2: // Repeats of the previous word.
            tx.setWord64(off, off >= 8 ? tx.word64(off - 8)
                                       : rng.next64());
            break;
          case 3: // Near-repeats (small diffs).
            tx.setWord64(off, (off >= 8 ? tx.word64(off - 8)
                                        : rng.next64()) ^
                                  rng.nextBounded(256));
            break;
          case 4: // All-ones-ish (DBI inversion path).
            tx.setWord64(off, ~rng.nextBounded(0xffff));
            break;
          default:
            tx.setWord64(off, rng.next64());
        }
    }
    return tx;
}

TEST(FuzzRoundTrip, RandomPipelinesOn32ByteTransactions)
{
    Rng rng(0xf22);
    for (int pipeline = 0; pipeline < 60; ++pipeline) {
        const std::string spec = randomSpec(rng);
        CodecPtr codec = makeCodec(spec);
        for (int i = 0; i < 200; ++i) {
            const Transaction tx = randomTransaction(rng, 32);
            const Encoded enc = codec->encode(tx);
            ASSERT_EQ(codec->decode(enc), tx)
                << "spec " << spec << " tx " << tx.toHex();
        }
    }
}

TEST(FuzzRoundTrip, RandomPipelinesOn64ByteTransactions)
{
    Rng rng(0xbeef);
    for (int pipeline = 0; pipeline < 40; ++pipeline) {
        const std::string spec = randomSpec(rng);
        CodecPtr codec = makeCodec(spec, 8); // 64-bit CPU bus.
        for (int i = 0; i < 150; ++i) {
            const Transaction tx = randomTransaction(rng, 64);
            const Encoded enc = codec->encode(tx);
            ASSERT_EQ(codec->decode(enc), tx)
                << "spec " << spec << " tx " << tx.toHex();
        }
    }
}

TEST(FuzzRoundTrip, MetadataFreeSchemesStayMetadataFree)
{
    Rng rng(0xabcd);
    for (const char *spec : {"xor2+zdr", "xor4+zdr", "xor8+zdr",
                             "universal3+zdr", "universal4+zdr",
                             "xor4+zdr|universal3+zdr"}) {
        CodecPtr codec = makeCodec(spec);
        EXPECT_EQ(codec->metaWiresPerBeat(), 0u) << spec;
        const Encoded enc = codec->encode(randomTransaction(rng, 32));
        EXPECT_TRUE(enc.meta.empty()) << spec;
    }
}

/**
 * Differential fuzz of the batch entry points: encodeBatch over N
 * transactions must produce exactly what encode produces one transaction
 * at a time, and decodeBatch must invert it, for every factory spec. The
 * stream goes through in two batches sharing one *dirty* scratch
 * EncodedBatch/TxBatch pair. Stateful codecs (bd) advance their
 * repository per transaction, so each form gets its own codec instance
 * fed the identical stream.
 */
void
fuzzBatchMatchesSingle(const std::string &spec, std::size_t tx_bytes,
                       std::size_t bus_bytes, Rng &rng)
{
    CodecPtr single = makeCodec(spec, bus_bytes);
    CodecPtr batched = makeCodec(spec, bus_bytes);

    constexpr std::size_t kTx = 40;
    constexpr std::size_t kBatchTx = kTx / 2;
    std::vector<Transaction> stream;
    std::vector<Encoded> want;
    for (std::size_t i = 0; i < kTx; ++i) {
        stream.push_back(randomTransaction(rng, tx_bytes));
        want.push_back(single->encode(stream.back()));
        ASSERT_EQ(single->decode(want.back()), stream.back())
            << "spec " << spec;
    }

    TxBatch batch(tx_bytes);
    EncodedBatch enc;
    TxBatch back;
    for (std::size_t first = 0; first < kTx; first += kBatchTx) {
        batch.clear();
        for (std::size_t i = first; i < first + kBatchTx; ++i)
            batch.push(stream[i]);
        batched->encodeBatch(batch, enc);
        ASSERT_EQ(enc.size(), kBatchTx) << "spec " << spec;
        for (std::size_t j = 0; j < kBatchTx; ++j) {
            const Encoded &w = want[first + j];
            ASSERT_EQ(Transaction(enc.payload(j)), w.payload)
                << "spec " << spec << " tx " << stream[first + j].toHex();
            ASSERT_EQ(std::vector<std::uint8_t>(enc.meta(j).begin(),
                                                enc.meta(j).end()),
                      w.meta)
                << "spec " << spec;
            ASSERT_EQ(enc.metaWiresPerBeat(), w.metaWiresPerBeat)
                << "spec " << spec;
        }
        batched->decodeBatch(enc, back);
        ASSERT_EQ(back, batch) << "spec " << spec;
    }
}

TEST(FuzzRoundTrip, EncodeBatchMatchesEncodeForEveryFactorySpec)
{
    std::vector<std::string> specs = paperSchemeSpecs();
    for (const char *stage : stage_pool)
        specs.push_back(stage);

    Rng rng(0x1207);
    for (const std::string &spec : specs)
        fuzzBatchMatchesSingle(spec, 32, 4, rng);
}

TEST(FuzzRoundTrip, EncodeBatchMatchesEncodeOn64ByteCpuTransactions)
{
    std::vector<std::string> specs = paperSchemeSpecs();
    for (const char *stage : stage_pool)
        specs.push_back(stage);

    Rng rng(0x6464);
    for (const std::string &spec : specs)
        fuzzBatchMatchesSingle(spec, 64, 8, rng);
}

TEST(FuzzRoundTrip, EncodeBatchMatchesEncodeForRandomPipelines)
{
    Rng rng(0x77aa);
    for (int pipeline = 0; pipeline < 25; ++pipeline)
        fuzzBatchMatchesSingle(randomSpec(rng), 32, 4, rng);
}

TEST(FuzzRoundTrip, EncodedSizeAlwaysEqualsInputSize)
{
    // The schemes are codes, not compressors: payload size is invariant,
    // which is what lets DRAM store the encoded form in place.
    Rng rng(0x5151);
    for (int i = 0; i < 100; ++i) {
        const std::string spec = randomSpec(rng);
        CodecPtr codec = makeCodec(spec);
        const Transaction tx = randomTransaction(rng, 32);
        EXPECT_EQ(codec->encode(tx).payload.size(), tx.size()) << spec;
    }
}

/** Stages legal for a given transaction size (BaseXor needs > base bytes). */
std::vector<std::string>
stagesForSize(std::size_t tx_bytes)
{
    std::vector<std::string> stages = {"xor2",      "xor2+zdr", "xor4",
                                       "xor4+zdr",  "universal1",
                                       "universal2", "dbi1",    "dbi2",
                                       "dbi4",      "dbi-ac1",  "bd"};
    if (tx_bytes > 8) {
        stages.insert(stages.end(), {"xor8", "xor8+zdr", "xor4+fixed",
                                     "universal3+zdr"});
    }
    if (tx_bytes > 16)
        stages.insert(stages.end(), {"xor16", "universal4+zdr"});
    return stages;
}

/**
 * Round-trip coverage for every valid transaction size, not just the
 * 32-byte GPU sector: the 8-byte minimum, 16-byte sectors, and 64-byte CPU
 * cache lines (which exercise base sizes and fold depths the 32-byte
 * stream never reaches).
 */
TEST(FuzzRoundTrip, AllValidTransactionSizesRoundTrip)
{
    Rng rng(0x5123);
    for (std::size_t tx_bytes : {8u, 16u, 64u}) {
        const std::size_t bus_bytes = tx_bytes == 64 ? 8 : 4;
        for (const std::string &stage : stagesForSize(tx_bytes)) {
            CodecPtr codec = makeCodec(stage, bus_bytes);
            for (int i = 0; i < 60; ++i) {
                const Transaction tx = randomTransaction(rng, tx_bytes);
                const Encoded enc = codec->encode(tx);
                ASSERT_EQ(enc.payload.size(), tx.size()) << stage;
                ASSERT_EQ(codec->decode(enc), tx)
                    << "spec " << stage << " size " << tx_bytes << " tx "
                    << tx.toHex();
            }
        }
    }
}

/**
 * The documented error path for invalid sizes: Transaction supports
 * power-of-two sizes in [8, 64] only, and constructing anything else —
 * 1-byte, non-power-of-two, or beyond 64 bytes — must hit the release-mode
 * invariant check, not silently round or truncate.
 */
TEST(FuzzRoundTrip, InvalidTransactionSizesHitTheAssertPath)
{
    // The documented contract: power-of-two byte counts in [min, max].
    const auto valid = [](std::size_t n) {
        return n >= Transaction::minBytes && n <= Transaction::maxBytes &&
               (n & (n - 1)) == 0;
    };
    EXPECT_TRUE(valid(8) && valid(16) && valid(32) && valid(64));
    for (std::size_t bad : {0u, 1u, 2u, 4u, 12u, 24u, 48u, 65u, 128u}) {
        EXPECT_FALSE(valid(bad)) << bad;
        EXPECT_DEATH({ Transaction tx(bad); (void)tx; },
                     "assertion failed")
            << "size " << bad;
    }
}

/** fromHex is a fatal() user-error path, not an assert: exits with 1. */
TEST(FuzzRoundTrip, FromHexRejectsBadLengthsWithFatalError)
{
    // 1-byte and non-power-of-two byte counts are invalid input lengths.
    EXPECT_EXIT(Transaction::fromHex("ff"), ::testing::ExitedWithCode(1),
                "bad input length");
    EXPECT_EXIT(Transaction::fromHex("00112233445566"),
                ::testing::ExitedWithCode(1), "bad input length");
    EXPECT_EXIT(Transaction::fromHex(std::string(48, 'a')),
                ::testing::ExitedWithCode(1), "bad input length");
    EXPECT_EXIT(Transaction::fromHex("zz00112233445566"),
                ::testing::ExitedWithCode(1), "non-hex character");
}

/** A base as large as the whole transaction leaves nothing to XOR. */
TEST(FuzzRoundTrip, BaseSizeEqualToTransactionThrows)
{
    // Regression: geometry mismatches are recoverable typed errors, not
    // process-killing asserts (bxtd turns them into Malformed responses).
    CodecPtr codec = makeCodec("xor8");
    Transaction tx(8);
    EXPECT_THROW(codec->encode(tx), CodecSizeError);
}

} // namespace
} // namespace bxt
