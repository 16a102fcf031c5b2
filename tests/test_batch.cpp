/**
 * @file
 * Batch-path regression suite: the flat TxBatch/EncodedBatch containers,
 * the BusStats accumulation they rely on, cross-batch toggle continuity
 * (splitting a stream into batches of any size changes no counter), the
 * golden corpus replayed through the batch kernels, and the typed
 * CodecSizeError geometry contract that replaced silent scratch resizing.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "channel/bus.h"
#include "channel/channel_eval.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/codec_factory.h"
#include "core/simd/simd.h"
#include "verify/batch_check.h"
#include "verify/generators.h"
#include "verify/golden.h"

namespace bxt {
namespace {

using verify::GenKind;
using verify::allGenKinds;
using verify::checkGoldenFileBatch;
using verify::generate;
using verify::goldenFileName;
using verify::goldenSpecs;

/** Structured stream covering the generator families (zeros, strides,
 *  dense, neighbour flips), the inputs the batch kernels special-case. */
std::vector<Transaction>
makeStream(std::size_t count, std::size_t tx_bytes, std::uint64_t seed)
{
    Rng rng(seed);
    const std::vector<GenKind> &kinds = allGenKinds();
    std::vector<Transaction> stream;
    stream.reserve(count);
    Transaction previous(tx_bytes);
    for (std::size_t i = 0; i < count; ++i) {
        stream.push_back(
            generate(rng, tx_bytes, kinds[i % kinds.size()], previous));
        previous = stream.back();
    }
    return stream;
}

TEST(Batch, BusStatsAccumulateFieldWise)
{
    BusStats a{/*transactions=*/1, /*beats=*/8,    /*dataBits=*/256,
               /*dataOnes=*/10,    /*dataToggles=*/20,
               /*metaBits=*/8,     /*metaOnes=*/3, /*metaToggles=*/5};
    BusStats b{2, 16, 512, 100, 200, 16, 30, 50};

    BusStats sum = a;
    sum += b;
    EXPECT_EQ(sum.transactions, 3u);
    EXPECT_EQ(sum.beats, 24u);
    EXPECT_EQ(sum.dataBits, 768u);
    EXPECT_EQ(sum.dataOnes, 110u);
    EXPECT_EQ(sum.dataToggles, 220u);
    EXPECT_EQ(sum.metaBits, 24u);
    EXPECT_EQ(sum.metaOnes, 33u);
    EXPECT_EQ(sum.metaToggles, 55u);
    EXPECT_EQ(sum.ones(), 143u);
    EXPECT_EQ(sum.toggles(), 275u);

    // Zero is the identity, and += returns the accumulator.
    BusStats zero;
    EXPECT_EQ((sum += zero), sum);
}

/**
 * transmitBatch is field-identical to the per-transaction transmit loop,
 * however the stream is split: wire state and the idle accumulator carry
 * across batch boundaries exactly as across transactions.
 */
TEST(Batch, TransmitBatchSplitInvariant)
{
    const std::string spec = "dbi4"; // Metadata wires exercise both planes.
    const std::vector<Transaction> stream = makeStream(97, 32, 41);

    CodecPtr codec = makeCodec(spec, 4);
    TxBatch batch(32);
    for (const Transaction &tx : stream)
        batch.push(tx);
    EncodedBatch enc;
    codec->encodeBatch(batch, enc);

    // Reference: one transmit per transaction through an Encoded.
    Bus single_bus(32, codec->metaWiresPerBeat(), 0.3);
    CodecPtr single_codec = makeCodec(spec, 4);
    for (const Transaction &tx : stream)
        single_bus.transmit(single_codec->encode(tx));

    for (std::size_t split : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, stream.size()}) {
        Bus bus(32, codec->metaWiresPerBeat(), 0.3);
        EncodedBatch piece;
        std::size_t i = 0;
        while (i < stream.size()) {
            const std::size_t chunk = std::min(split, stream.size() - i);
            piece.configure(enc.txBytes(), enc.metaWiresPerBeat(),
                            enc.metaBitsPerTx());
            piece.resize(chunk);
            for (std::size_t j = 0; j < chunk; ++j) {
                std::copy(enc.payload(i + j).begin(),
                          enc.payload(i + j).end(),
                          piece.payload(j).begin());
                std::copy(enc.meta(i + j).begin(), enc.meta(i + j).end(),
                          piece.meta(j).begin());
            }
            bus.transmitBatch(piece);
            i += chunk;
        }
        EXPECT_EQ(bus.stats(), single_bus.stats()) << "split " << split;
    }
}

/**
 * End to end through evalCodecOnStream: batch sizes 7, 64, and 512
 * produce BusStats identical to one-transaction batches — in particular
 * the cross-transaction dataToggles/metaToggles, which are the counters a
 * batch boundary could plausibly perturb.
 */
TEST(Batch, CrossBatchToggleContinuity)
{
    const std::vector<Transaction> stream = makeStream(200, 32, 97);
    for (const char *spec : {"xor4+zdr", "universal3+zdr", "dbi4",
                             "universal3+zdr|dbi1", "bd"}) {
        CodecPtr single = makeCodec(spec, 4);
        const BusStats want =
            evalCodecOnStream(*single, stream, 32, 0.3, 1).stats;
        for (std::size_t batch_tx : {7, 64, 512}) {
            CodecPtr codec = makeCodec(spec, 4);
            const BusStats got =
                evalCodecOnStream(*codec, stream, 32, 0.3, batch_tx).stats;
            EXPECT_EQ(got.dataToggles, want.dataToggles)
                << spec << " batch " << batch_tx;
            EXPECT_EQ(got.metaToggles, want.metaToggles)
                << spec << " batch " << batch_tx;
            EXPECT_EQ(got, want) << spec << " batch " << batch_tx;
        }
    }
}

/** Every checked-in golden file re-verifies through the batch kernels. */
TEST(Batch, GoldenCorpusMatchesBatchKernels)
{
    std::size_t files = 0;
    for (unsigned wires : {32u, 64u}) {
        for (const std::string &spec : goldenSpecs(wires)) {
            const std::string path = std::string(BXT_GOLDEN_DIR) + "/" +
                                     goldenFileName(spec, wires);
            ++files;
            for (const std::string &diff : checkGoldenFileBatch(path))
                ADD_FAILURE() << diff;
        }
    }
    EXPECT_GE(files, 17u);
}

/** A short batch differential campaign stays in tier 1. */
TEST(Batch, DifferentialFuzzSmoke)
{
    verify::BatchFuzzOptions options;
    options.specs = {"xor4+zdr", "universal3+zdr", "dbi4",
                     "universal3+zdr|dbi1", "bd"};
    options.streamsPerSpec = 2;
    options.txPerStream = 48;
    options.batchSizes = {1, 7, 64};
    const verify::BatchFuzzReport report =
        verify::runBatchDifferentialFuzz(options);
    EXPECT_GT(report.transactionsChecked, 0u);
    for (const verify::BatchFuzzFailure &failure : report.failures)
        ADD_FAILURE() << failure.spec << " batch " << failure.batchTx
                      << ": " << failure.violation.invariant << " — "
                      << failure.violation.detail;
}

/**
 * Regression for the silent-resize bug: a default-constructed Encoded
 * (minimum-size payload, no metadata) handed to a codec configured for a
 * different geometry must throw CodecSizeError, not resize scratch
 * buffers into a silently wrong decode.
 */
TEST(Batch, DefaultEncodedGeometryThrows)
{
    // xor8: an 8-byte payload does not split into >1 8-byte elements.
    CodecPtr xor8 = makeCodec("xor8", 4);
    EXPECT_THROW(xor8->decode(Encoded{}), CodecSizeError);

    // dbi4: the default Encoded carries 0 metadata bits, not beats*groups.
    CodecPtr dbi = makeCodec("dbi4", 4);
    EXPECT_THROW(dbi->decode(Encoded{}), CodecSizeError);
}

/** TxBatch enforces its geometry at the push boundary. */
TEST(Batch, PushRejectsMismatchedSize)
{
    TxBatch batch(32);
    batch.push(Transaction(32));
    EXPECT_THROW(batch.push(Transaction(64)), CodecSizeError);
    EXPECT_EQ(batch.size(), 1u);

    // Batches with no geometry are rejected by the codec entry points.
    CodecPtr codec = makeCodec("xor4+zdr", 4);
    TxBatch empty;
    EncodedBatch enc;
    EXPECT_THROW(codec->encodeBatch(empty, enc), CodecSizeError);
}

/**
 * The aliasing rule of the plane views (core/codec.h): every codec
 * encodes and decodes out of place, and each one whose allowsInPlace()
 * says yes also in place (output plane == input plane), byte-identical
 * to the owning-batch path. The table pins the rule each codec states,
 * so changing one is deliberate. The in-place pass runs in two calls on
 * a fresh codec, so bd's repositories still see the transactions in
 * stream order across the split.
 */
TEST(Batch, CodecsHonourTheirAliasingRuleAtEveryLevel)
{
    struct Rule
    {
        const char *spec;
        bool inPlace;
    };
    const Rule rules[] = {
        {"baseline", true},
        {"xor4+zdr", false},
        {"xor2", false},
        {"xor4+fixed", true},
        {"xor8+zdr+fixed", true},
        {"universal3+zdr", true},
        {"universal4", true},
        {"dbi4", true},
        {"dbi-ac4", true},
        {"bd", true},
        {"universal3+zdr|dbi4", true},
        {"bd|dbi4", true},
        {"xor4+zdr|universal3|dbi1", true},
        {"adaptive", false},
    };
    const simd::Level entry_level = simd::activeLevel();
    for (simd::Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        for (const Rule &rule : rules) {
            for (std::size_t tx_bytes : {std::size_t{32}, std::size_t{64}}) {
                SCOPED_TRACE(std::string(rule.spec) + " tx=" +
                             std::to_string(tx_bytes));
                constexpr std::size_t count = 37;
                constexpr std::size_t split = 13;
                TxBatch batch(tx_bytes);
                for (const Transaction &tx : makeStream(count, tx_bytes, 41))
                    batch.push(tx);
                const std::size_t bytes = batch.planeBytes();

                CodecPtr reference = makeCodec(rule.spec, 4);
                EncodedBatch want;
                reference->encodeBatch(batch, want);
                const std::vector<std::uint8_t> want_payload(
                    want.payloadData(), want.payloadData() + bytes);
                const std::vector<std::uint8_t> want_meta(
                    want.metaData(),
                    want.metaData() + count * want.metaBitsPerTx());
                const std::vector<std::uint8_t> plain(batch.data(),
                                                      batch.data() + bytes);

                // Out of place, through the views into caller planes.
                CodecPtr codec = makeCodec(rule.spec, 4);
                EXPECT_EQ(codec->allowsInPlace(), rule.inPlace);
                ASSERT_EQ(codec->metaBitsPerTx(tx_bytes),
                          want.metaBitsPerTx());
                std::vector<std::uint8_t> payload(bytes);
                std::vector<std::uint8_t> meta(want_meta.size());
                codec->encodeBatch(batch.view(), payload.data(),
                                   meta.data());
                EXPECT_EQ(payload, want_payload);
                EXPECT_EQ(meta, want_meta);
                std::vector<std::uint8_t> decoded(bytes);
                codec->decodeBatch(
                    EncodedView{payload.data(), meta.data(), count,
                                tx_bytes},
                    decoded.data());
                EXPECT_EQ(decoded, plain);
                if (!rule.inPlace)
                    continue;

                // In place: one plane is input and output, in two calls.
                CodecPtr in_place = makeCodec(rule.spec, 4);
                std::vector<std::uint8_t> plane = plain;
                std::vector<std::uint8_t> plane_meta(want_meta.size());
                const std::size_t split_meta = split * want.metaBitsPerTx();
                for (const auto &[first, n] :
                     {std::pair{std::size_t{0}, split},
                      std::pair{split, count - split}}) {
                    std::uint8_t *at = plane.data() + first * tx_bytes;
                    in_place->encodeBatch(
                        TxView{at, n, tx_bytes}, at,
                        plane_meta.data() + (first == 0 ? 0 : split_meta));
                }
                EXPECT_EQ(plane, want_payload);
                EXPECT_EQ(plane_meta, want_meta);
                for (const auto &[first, n] :
                     {std::pair{std::size_t{0}, split},
                      std::pair{split, count - split}}) {
                    std::uint8_t *at = plane.data() + first * tx_bytes;
                    in_place->decodeBatch(
                        EncodedView{at,
                                    plane_meta.data() +
                                        (first == 0 ? 0 : split_meta),
                                    n, tx_bytes},
                        at);
                }
                EXPECT_EQ(plane, plain);
            }
        }
    }
    simd::setActiveLevel(entry_level);
}

} // namespace
} // namespace bxt
