/**
 * @file
 * Adaptive codec selection tests: the `adaptive[:...]` spec grammar and
 * candidate validation, the controller's calibrated cost model (it must
 * pick whichever candidate measurably wins on the sampled window),
 * differential byte-identity against the chosen concrete codec across
 * forced switch points, hysteresis no-flap behaviour, sensor sanity,
 * and a loopback end-to-end run where the announced spec follows a
 * mid-stream data-family migration.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/adaptive_codec.h"
#include "adaptive/controller.h"
#include "client/client.h"
#include "core/batch.h"
#include "core/codec_factory.h"
#include "server/server.h"

namespace bxt {
namespace {

constexpr std::size_t kTxBytes = 32;

// ---------------------------------------------------------------------
// Data families with a clear measured winner between xor2+zdr and
// baseline. Every expectation below is re-derived from actual encodes
// (measuredCost), so the tests hold even if a codec's cost profile
// shifts — a family assert fails loudly instead of silently passing.

/** Constant-filled transactions: adjacent 2-byte elements are equal, so
 *  Base+XOR deltas are all zero and ZDR eats them. xor2+zdr territory. */
TxBatch
constantBatch(std::size_t count, std::uint8_t fill)
{
    TxBatch batch;
    batch.reset(kTxBytes);
    batch.reserve(count);
    batch.resizeForOverwrite(count);
    std::memset(batch.data(), fill, count * kTxBytes);
    return batch;
}

/** Alternating 0x0000 / 0xFFFF 2-byte elements: every XOR delta is all
 *  ones, so baseline (half the bits set) wins over xor2+zdr. */
TxBatch
alternatingBatch(std::size_t count)
{
    TxBatch batch;
    batch.reset(kTxBytes);
    batch.reserve(count);
    batch.resizeForOverwrite(count);
    std::uint8_t *bytes = batch.data();
    for (std::size_t i = 0; i < count * kTxBytes; i += 2) {
        const std::uint8_t value = (i / 2) % 2 == 0 ? 0x00 : 0xff;
        bytes[i] = value;
        bytes[i + 1] = value;
    }
    return batch;
}

/** Alternating 0x0000 / 0x0001 2-byte elements: baseline is better than
 *  xor2+zdr, but only by about half — inside a wide hysteresis band. */
TxBatch
marginalBatch(std::size_t count)
{
    TxBatch batch;
    batch.reset(kTxBytes);
    batch.reserve(count);
    batch.resizeForOverwrite(count);
    std::uint8_t *bytes = batch.data();
    std::memset(bytes, 0, count * kTxBytes);
    for (std::size_t i = 0; i < count * kTxBytes; i += 4)
        bytes[i] = 0x01;
    return batch;
}

/** Measured ones-on-bus per transaction for @p spec over @p batch —
 *  the same cost the controller's model computes. */
double
measuredCost(const std::string &spec, const TxBatch &batch)
{
    CodecPtr codec = makeCodec(spec);
    EncodedBatch enc;
    codec->encodeBatch(batch, enc);
    return static_cast<double>(enc.payloadOnes() + enc.metaOnes()) /
           static_cast<double>(batch.size());
}

adaptive::Config
twoCandidateConfig(double hysteresis_pct)
{
    adaptive::Config config;
    config.candidates = {"xor2+zdr", "baseline"};
    config.window = 8;
    config.period = 8;
    config.hysteresisPct = hysteresis_pct;
    return config;
}

// ---------------------------------------------------------------------
// Spec grammar and candidate validation

TEST(AdaptiveSpec, BareSpecUsesDefaults)
{
    adaptive::Config config;
    std::string err;
    ASSERT_TRUE(adaptive::parseAdaptiveSpec("adaptive", 4, config, err))
        << err;
    EXPECT_EQ(config.candidates, adaptive::defaultConfig(4).candidates);
    EXPECT_GE(config.candidates.size(), 2u);
}

TEST(AdaptiveSpec, ParsesCandidatesAndKnobs)
{
    adaptive::Config config;
    std::string err;
    ASSERT_TRUE(adaptive::parseAdaptiveSpec(
        "adaptive:xor2+zdr,baseline,w=16,p=32,h=5", 4, config, err))
        << err;
    EXPECT_EQ(config.candidates,
              (std::vector<std::string>{"xor2+zdr", "baseline"}));
    EXPECT_EQ(config.window, 16u);
    EXPECT_EQ(config.period, 32u);
    EXPECT_DOUBLE_EQ(config.hysteresisPct, 5.0);

    // The canonical form round-trips through the parser.
    adaptive::Config again;
    ASSERT_TRUE(adaptive::parseAdaptiveSpec(adaptive::canonicalSpec(config),
                                            4, again, err))
        << err;
    EXPECT_EQ(again.candidates, config.candidates);
    EXPECT_EQ(again.window, config.window);
    EXPECT_EQ(again.period, config.period);
    EXPECT_DOUBLE_EQ(again.hysteresisPct, config.hysteresisPct);
}

TEST(AdaptiveSpec, FactoryBuildsAdaptiveCodec)
{
    CodecPtr codec = makeCodec("adaptive");
    auto *adaptive_codec =
        dynamic_cast<adaptive::AdaptiveCodec *>(codec.get());
    ASSERT_NE(adaptive_codec, nullptr);
    EXPECT_EQ(codec->name(),
              adaptive::canonicalSpec(adaptive::defaultConfig(4)));
    EXPECT_FALSE(codec->stateless());
    EXPECT_EQ(codec->metaWiresPerBeat(), 0u);
}

TEST(AdaptiveSpec, RejectsInvalidCandidateSets)
{
    const struct {
        const char *spec;
        const char *fragment;
    } cases[] = {
        {"adaptive:xor4+zdr", "2"},
        {"adaptive:bd,baseline", "stateful"},
        {"adaptive:xor4+zdr,dbi4", "metaWiresPerBeat"},
        {"adaptive:adaptive,baseline", "adaptive"},
        {"adaptive:no-such-codec,baseline", "no-such-codec"},
        {"adaptive:xor2+zdr,baseline,w=1", "w"},
        {"adaptive:xor2+zdr,baseline,p=0", "p"},
        {"adaptive:xor2+zdr,baseline,h=100", "h"},
        {"adaptive:xor2+zdr,baseline,q=3", "q"},
    };
    for (const auto &c : cases) {
        std::string err;
        EXPECT_EQ(tryMakeCodec(c.spec, 4, err), nullptr) << c.spec;
        EXPECT_NE(err.find(c.fragment), std::string::npos)
            << c.spec << " -> " << err;
    }
}

// ---------------------------------------------------------------------
// Controller choice and switching

TEST(AdaptiveController, PicksMeasuredWinnerPerFamily)
{
    const TxBatch xor_family = constantBatch(16, 0xff);
    const TxBatch base_family = alternatingBatch(16);
    ASSERT_LT(measuredCost("xor2+zdr", xor_family),
              measuredCost("baseline", xor_family));
    ASSERT_LT(measuredCost("baseline", base_family),
              measuredCost("xor2+zdr", base_family));

    std::string err;
    auto controller =
        adaptive::Controller::make(twoCandidateConfig(0.0), err);
    ASSERT_NE(controller, nullptr) << err;

    controller->observe(xor_family);
    controller->maybeEvaluate();
    EXPECT_EQ(controller->activeSpec(), "xor2+zdr");
    EXPECT_EQ(controller->epoch(), 0u);

    // Migrate the stream; the next due evaluation must follow it.
    controller->observe(base_family);
    EXPECT_TRUE(controller->maybeEvaluate());
    EXPECT_EQ(controller->activeSpec(), "baseline");
    EXPECT_EQ(controller->epoch(), 1u);
    ASSERT_EQ(controller->lastCosts().size(), 2u);
    EXPECT_LT(controller->lastCosts()[1], controller->lastCosts()[0]);
}

TEST(AdaptiveController, HysteresisHoldsNearTiedSpecs)
{
    const TxBatch xor_family = constantBatch(16, 0xff);
    const TxBatch marginal = marginalBatch(16);
    const double cost_base = measuredCost("baseline", marginal);
    const double cost_xor = measuredCost("xor2+zdr", marginal);
    // The margin must sit strictly inside the 60 % hysteresis band for
    // this test to mean anything.
    ASSERT_LT(cost_base, cost_xor);
    ASSERT_LT((cost_xor - cost_base) / cost_xor * 100.0, 60.0);

    std::string err;
    auto held = adaptive::Controller::make(twoCandidateConfig(60.0), err);
    ASSERT_NE(held, nullptr) << err;
    held->observe(xor_family);
    held->maybeEvaluate();
    ASSERT_EQ(held->activeSpec(), "xor2+zdr");

    // Baseline is better on the marginal family, but not by enough:
    // the incumbent must hold through repeated evaluations (no flap).
    for (int round = 0; round < 10; ++round) {
        held->observe(marginal);
        EXPECT_FALSE(held->maybeEvaluate()) << "round " << round;
        EXPECT_EQ(held->activeSpec(), "xor2+zdr");
    }
    EXPECT_EQ(held->epoch(), 0u);

    // Control: with hysteresis off the same stream does switch.
    auto eager = adaptive::Controller::make(twoCandidateConfig(0.0), err);
    ASSERT_NE(eager, nullptr) << err;
    eager->observe(xor_family);
    eager->maybeEvaluate();
    ASSERT_EQ(eager->activeSpec(), "xor2+zdr");
    eager->observe(marginal);
    EXPECT_TRUE(eager->maybeEvaluate());
    EXPECT_EQ(eager->activeSpec(), "baseline");
}

TEST(AdaptiveController, SensorsMatchConstructedWindow)
{
    // Words alternate 0x00000000 / 0xFFFFFFFF: half the 32-bit words are
    // zero, half the 4-byte beats are heavy, and adjacent 4-byte
    // elements toggle every bit.
    TxBatch batch;
    batch.reset(kTxBytes);
    batch.resizeForOverwrite(8);
    std::uint8_t *bytes = batch.data();
    for (std::size_t i = 0; i < 8 * kTxBytes; ++i)
        bytes[i] = (i / 4) % 2 == 0 ? 0x00 : 0xff;

    std::string err;
    auto controller =
        adaptive::Controller::make(twoCandidateConfig(10.0), err);
    ASSERT_NE(controller, nullptr) << err;
    controller->observe(batch);

    const adaptive::Sensors sensors = controller->sensors();
    EXPECT_EQ(sensors.samples, 8u);
    EXPECT_NEAR(sensors.zeroWordFrac, 0.5, 1e-9);
    EXPECT_NEAR(sensors.dbiWeight, 0.5, 1e-9);
    // kToggleGranularities[1] is the 4-byte granularity.
    EXPECT_NEAR(sensors.toggleWeight[1], 1.0, 1e-9);
}

TEST(AdaptiveController, ResetDropsHistoryAndChoice)
{
    std::string err;
    auto controller =
        adaptive::Controller::make(twoCandidateConfig(0.0), err);
    ASSERT_NE(controller, nullptr) << err;
    controller->observe(alternatingBatch(16));
    controller->maybeEvaluate();
    controller->observe(alternatingBatch(16));
    controller->maybeEvaluate();
    ASSERT_EQ(controller->activeSpec(), "baseline");

    controller->reset();
    EXPECT_EQ(controller->activeIndex(), 0u);
    EXPECT_EQ(controller->epoch(), 0u);
    EXPECT_EQ(controller->observed(), 0u);
    EXPECT_EQ(controller->sensors().samples, 0u);
}

// ---------------------------------------------------------------------
// Differential byte-identity across forced switch points

TEST(AdaptiveCodec, BatchOutputMatchesChosenConcreteCodecAcrossSwitches)
{
    CodecPtr codec = makeCodec("adaptive:xor2+zdr,baseline,w=8,p=8,h=0");
    auto *adaptive_codec =
        dynamic_cast<adaptive::AdaptiveCodec *>(codec.get());
    ASSERT_NE(adaptive_codec, nullptr);

    std::vector<TxBatch> stream;
    for (int i = 0; i < 6; ++i)
        stream.push_back(constantBatch(16, 0xff));
    for (int i = 0; i < 6; ++i)
        stream.push_back(alternatingBatch(16));
    for (int i = 0; i < 6; ++i)
        stream.push_back(constantBatch(16, 0xaa));

    std::uint64_t last_epoch = 0;
    std::size_t switches = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EncodedBatch out;
        codec->encodeBatch(stream[i], out);

        // The evaluation ran at the batch boundary, so the spec active
        // *after* the encode is the one that produced it: a fresh
        // instance of that concrete codec must emit identical bytes.
        const std::string &chosen =
            adaptive_codec->controller().activeSpec();
        EncodedBatch reference;
        makeCodec(chosen)->encodeBatch(stream[i], reference);
        EXPECT_EQ(out, reference) << "batch " << i << " via " << chosen;

        // Within the same epoch the adaptive codec decodes its own
        // output bit-identically.
        TxBatch decoded;
        codec->decodeBatch(out, decoded);
        EXPECT_EQ(decoded, stream[i]) << "batch " << i;

        const std::uint64_t epoch = adaptive_codec->controller().epoch();
        switches += epoch - last_epoch;
        last_epoch = epoch;
    }
    // The two family migrations must each have forced a switch.
    EXPECT_GE(switches, 2u);
}

TEST(AdaptiveCodec, ScalarPathRoundTripsWhileAdapting)
{
    CodecPtr codec = makeCodec("adaptive:xor2+zdr,baseline,w=8,p=8,h=0");
    const TxBatch families[] = {constantBatch(64, 0xff),
                                alternatingBatch(64)};
    for (const TxBatch &family : families) {
        for (std::size_t i = 0; i < family.size(); ++i) {
            const auto bytes = family.tx(i);
            Transaction tx(bytes);
            const Encoded enc = codec->encode(tx);
            const Transaction back = codec->decode(enc);
            ASSERT_EQ(back, tx) << "tx " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Loopback end-to-end: the announced spec follows a family migration

class LiveServer
{
  public:
    explicit LiveServer(server::ServerOptions options)
        : server_(std::move(options))
    {
        std::string err;
        if (!server_.start(err)) {
            ADD_FAILURE() << "server start failed: " << err;
            return;
        }
        thread_ = std::thread([this] { server_.serve(); });
        started_ = true;
    }

    ~LiveServer()
    {
        if (started_) {
            server_.requestStop();
            thread_.join();
        }
    }

    bool started() const { return started_; }
    int tcpPort() const { return server_.tcpPort(); }

  private:
    server::Server server_;
    std::thread thread_;
    bool started_ = false;
};

TEST(AdaptiveLoopback, AnnouncedSpecFollowsDataFamilyMigration)
{
    server::ServerOptions options;
    options.tcpPort = 0; // Ephemeral.
    options.shards = 2;
    LiveServer live(options);
    ASSERT_TRUE(live.started());

    std::string err;
    client::Client client =
        client::Client::connectTcp("127.0.0.1", live.tcpPort(), err);
    ASSERT_TRUE(client.connected()) << err;
    client.setStreamId(3);

    const std::string spec = "adaptive:xor2+zdr,baseline,w=8,p=8,h=0";
    const auto request = [&](const TxBatch &batch,
                             client::EncodeResult &enc) {
        const std::span<const std::uint8_t> raw(
            batch.data(), batch.size() * batch.txBytes());
        ASSERT_TRUE(client.encode(spec, kTxBytes, 32, raw, enc, err))
            << err;

        // Decoding under the announced concrete spec recovers the raw
        // bytes even when the choice later moves on.
        ASSERT_FALSE(enc.announcedSpec.empty());
        client::DecodeResult dec;
        ASSERT_TRUE(client.decode(enc.announcedSpec, enc, dec, err))
            << err;
        ASSERT_EQ(dec.raw.size(), raw.size());
        EXPECT_EQ(std::memcmp(dec.raw.data(), raw.data(), raw.size()), 0);
    };

    // Phase 1: Base+XOR territory. The first choice lands here.
    client::EncodeResult enc;
    for (int i = 0; i < 4; ++i)
        request(constantBatch(16, 0xff), enc);
    EXPECT_EQ(enc.announcedSpec, "xor2+zdr");
    const std::uint64_t epoch_before = enc.switchEpoch;

    // Phase 2: migrate to a family where baseline measurably wins; the
    // announcement and epoch must follow within a few periods.
    for (int i = 0; i < 6; ++i)
        request(alternatingBatch(16), enc);
    EXPECT_EQ(enc.announcedSpec, "baseline");
    EXPECT_GT(enc.switchEpoch, epoch_before);

    // A concrete spec on the same connection still echoes itself.
    const TxBatch plain = constantBatch(4, 0x11);
    const std::span<const std::uint8_t> raw(
        plain.data(), plain.size() * plain.txBytes());
    client::EncodeResult concrete;
    ASSERT_TRUE(
        client.encode("baseline", kTxBytes, 32, raw, concrete, err))
        << err;
    EXPECT_EQ(concrete.announcedSpec, "baseline");
    EXPECT_EQ(concrete.switchEpoch, 0u);
}

} // namespace
} // namespace bxt
