/**
 * @file
 * Adaptive codec selection tests: the `adaptive` spec and the
 * validation of other Configs, the controller's calibrated cost model
 * (it must pick whichever candidate measurably wins on the sampled
 * window), differential byte-identity against the chosen concrete codec
 * across forced switch points, hysteresis no-flap behaviour, sensor
 * sanity, a loopback end-to-end run where the announced spec follows a
 * mid-stream data-family migration, and EXPERIMENTS.md's adaptive rows
 * pinned in-process.
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
#include "common/rng.h"
#include "core/batch.h"
#include "core/codec_factory.h"
#include "server/server.h"
#include "server/service.h"
#include "workloads/scenario.h"

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

/** Bytes with exactly one random bit set each: every XOR delta of two
 *  such elements has up to twice the ones, so baseline beats every
 *  Base+XOR rung of the default ladder by far more than its margin. */
TxBatch
sparseBatch(std::size_t count, std::uint64_t seed)
{
    TxBatch batch;
    batch.reset(kTxBytes);
    batch.reserve(count);
    batch.resizeForOverwrite(count);
    Rng rng(seed);
    std::uint8_t *bytes = batch.data();
    for (std::size_t i = 0; i < count * kTxBytes; ++i)
        bytes[i] = static_cast<std::uint8_t>(1u << rng.nextBounded(8));
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

/** An AdaptiveCodec over twoCandidateConfig(0.0): the in-process seam
 *  for a window and period short enough to switch within a few batches. */
std::unique_ptr<adaptive::AdaptiveCodec>
twoCandidateCodec()
{
    std::string err;
    auto codec = adaptive::AdaptiveCodec::make(twoCandidateConfig(0.0), err);
    EXPECT_NE(codec, nullptr) << err;
    return codec;
}

// ---------------------------------------------------------------------
// The `adaptive` spec and Config validation

TEST(AdaptiveSpec, BareSpecUsesDefaults)
{
    for (const std::size_t bus_bytes : {4u, 8u}) {
        CodecPtr codec = makeCodec("adaptive", bus_bytes);
        auto *adaptive_codec =
            dynamic_cast<adaptive::AdaptiveCodec *>(codec.get());
        ASSERT_NE(adaptive_codec, nullptr);
        const adaptive::Config &config =
            adaptive_codec->controller().config();
        const adaptive::Config defaults = adaptive::defaultConfig(bus_bytes);
        EXPECT_EQ(config.candidates, defaults.candidates);
        EXPECT_EQ(config.window, 64u);
        EXPECT_EQ(config.period, 256u);
        EXPECT_DOUBLE_EQ(config.hysteresisPct, 10.0);
        EXPECT_EQ(config.busBytes, bus_bytes);
    }
}

TEST(AdaptiveSpec, FactoryBuildsAdaptiveCodec)
{
    CodecPtr codec = makeCodec("adaptive");
    auto *adaptive_codec =
        dynamic_cast<adaptive::AdaptiveCodec *>(codec.get());
    ASSERT_NE(adaptive_codec, nullptr);
    EXPECT_EQ(codec->name(), "adaptive");
    EXPECT_FALSE(codec->stateless());
    EXPECT_EQ(codec->metaWiresPerBeat(), 0u);
}

TEST(AdaptiveSpec, RejectsInvalidCandidateSets)
{
    // `adaptive` takes no arguments: every spec that tries to set the
    // candidates or the tuning is refused, and builds nothing.
    for (const char *spec :
         {"adaptive:", "adaptive:xor4+zdr", "adaptive:xor2+zdr,baseline",
          "adaptive:xor2+zdr,baseline,w=8,p=8,h=0", "adaptive:w=2000000",
          "adaptive:p=1", "adaptive:h=0", "adaptive:q=3",
          "adaptive:adaptive,baseline", "adaptive|dbi4"}) {
        std::string err;
        EXPECT_EQ(tryMakeCodec(spec, 4, err), nullptr) << spec;
        EXPECT_FALSE(err.empty()) << spec;
    }

    // Other Configs are built in-process; Controller::make checks them.
    const auto with = [](std::vector<std::string> candidates) {
        adaptive::Config config = twoCandidateConfig(0.0);
        config.candidates = std::move(candidates);
        return config;
    };
    adaptive::Config short_window = twoCandidateConfig(0.0);
    short_window.window = 1;
    adaptive::Config no_period = twoCandidateConfig(0.0);
    no_period.period = 0;
    adaptive::Config full_margin = twoCandidateConfig(100.0);
    const struct {
        adaptive::Config config;
        const char *fragment;
    } cases[] = {
        {with({"xor4+zdr"}), "2"},
        {with({"bd", "baseline"}), "stateful"},
        {with({"xor4+zdr", "dbi4"}), "metaWiresPerBeat"},
        {with({"adaptive", "baseline"}), "nest"},
        {with({"no-such-codec", "baseline"}), "no-such-codec"},
        {short_window, "window"},
        {no_period, "period"},
        {full_margin, "hysteresis"},
    };
    for (const auto &c : cases) {
        std::string err;
        EXPECT_EQ(adaptive::Controller::make(c.config, err), nullptr)
            << c.fragment;
        EXPECT_NE(err.find(c.fragment), std::string::npos)
            << c.fragment << " -> " << err;
        EXPECT_EQ(adaptive::AdaptiveCodec::make(c.config, err), nullptr)
            << c.fragment;
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

    controller->observe(xor_family.view());
    controller->maybeEvaluate();
    EXPECT_EQ(controller->activeSpec(), "xor2+zdr");
    EXPECT_EQ(controller->epoch(), 0u);

    // Migrate the stream; the next due evaluation must follow it.
    controller->observe(base_family.view());
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
    held->observe(xor_family.view());
    held->maybeEvaluate();
    ASSERT_EQ(held->activeSpec(), "xor2+zdr");

    // Baseline is better on the marginal family, but not by enough:
    // the incumbent must hold through repeated evaluations (no flap).
    for (int round = 0; round < 10; ++round) {
        held->observe(marginal.view());
        EXPECT_FALSE(held->maybeEvaluate()) << "round " << round;
        EXPECT_EQ(held->activeSpec(), "xor2+zdr");
    }
    EXPECT_EQ(held->epoch(), 0u);

    // Control: with hysteresis off the same stream does switch.
    auto eager = adaptive::Controller::make(twoCandidateConfig(0.0), err);
    ASSERT_NE(eager, nullptr) << err;
    eager->observe(xor_family.view());
    eager->maybeEvaluate();
    ASSERT_EQ(eager->activeSpec(), "xor2+zdr");
    eager->observe(marginal.view());
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
    controller->observe(batch.view());

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
    controller->observe(alternatingBatch(16).view());
    controller->maybeEvaluate();
    controller->observe(alternatingBatch(16).view());
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
    const std::unique_ptr<adaptive::AdaptiveCodec> codec =
        twoCandidateCodec();
    ASSERT_NE(codec, nullptr);

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
        const std::string &chosen = codec->controller().activeSpec();
        EncodedBatch reference;
        makeCodec(chosen)->encodeBatch(stream[i], reference);
        EXPECT_EQ(out, reference) << "batch " << i << " via " << chosen;

        // Within the same epoch the adaptive codec decodes its own
        // output bit-identically.
        TxBatch decoded;
        codec->decodeBatch(out, decoded);
        EXPECT_EQ(decoded, stream[i]) << "batch " << i;

        const std::uint64_t epoch = codec->controller().epoch();
        switches += epoch - last_epoch;
        last_epoch = epoch;
    }
    // The two family migrations must each have forced a switch.
    EXPECT_GE(switches, 2u);
}

TEST(AdaptiveCodec, ScalarPathRoundTripsWhileAdapting)
{
    const std::unique_ptr<adaptive::AdaptiveCodec> codec =
        twoCandidateCodec();
    ASSERT_NE(codec, nullptr);
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

    // The default ladder fills its 64-transaction window with the first
    // batch and re-evaluates every 256 transactions.
    constexpr std::size_t kBatch = 64;
    const TxBatch xor_family = constantBatch(kBatch, 0xff);
    const TxBatch base_family = sparseBatch(kBatch, 0x5a);
    for (const std::string &candidate :
         adaptive::defaultConfig(4).candidates) {
        if (candidate != "xor2+zdr") {
            ASSERT_LT(measuredCost("xor2+zdr", xor_family),
                      measuredCost(candidate, xor_family))
                << candidate;
        }
        // Baseline must clear the 10 % switch margin.
        if (candidate != "baseline") {
            ASSERT_LT(measuredCost("baseline", base_family),
                      0.9 * measuredCost(candidate, base_family))
                << candidate;
        }
    }

    const auto request = [&](const TxBatch &batch,
                             client::EncodeResult &enc) {
        const std::span<const std::uint8_t> raw(
            batch.data(), batch.size() * batch.txBytes());
        ASSERT_TRUE(client.encode("adaptive", kTxBytes, 32, raw, enc, err))
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
    for (int i = 0; i < 3; ++i)
        request(xor_family, enc);
    EXPECT_EQ(enc.announcedSpec, "xor2+zdr");
    const std::uint64_t epoch_before = enc.switchEpoch;

    // Phase 2: migrate to a family where baseline measurably wins; the
    // announcement and epoch must follow within a few periods.
    for (int i = 0; i < 6; ++i)
        request(base_family, enc);
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

// ---------------------------------------------------------------------
// EXPERIMENTS.md's adaptive rows, pinned in-process

/** What a preset's adaptive pass puts on the bus. */
struct Row
{
    std::uint64_t txs = 0;
    std::uint64_t onesIn = 0;
    std::uint64_t onesOut = 0; ///< Payload + metadata ones.
};

/**
 * @p preset's seed-1 stream served under `adaptive` the way a fresh
 * 4-shard bxtd serves `bxt_loadgen --scenario P --connections 4`: each
 * connection holds one request in flight and lands on its own shard, so
 * request i reaches shard i % 4, in order. Stream ids are tenant + 1.
 */
Row
adaptiveRow(const std::string &preset)
{
    scenario::Config config;
    std::string err;
    EXPECT_TRUE(scenario::preset(preset, config, err)) << err;
    scenario::Engine engine(config, 1);
    server::Service shards[4];
    Row row;
    scenario::Request req;
    while (engine.next(req)) {
        wire::Frame request;
        request.opcode = wire::Opcode::Encode;
        request.streamId = static_cast<std::uint16_t>(req.tenant + 1);
        request.spec = "adaptive";
        ByteBuffer body;
        wire::BodyWriter writer(body, 0, 0);
        writer.u32(req.txBytes);
        writer.u32(req.busBits);
        writer.u64(req.count);
        writer.bytes(req.payload.data(), req.payload.size());
        request.body.assign(body.data(), body.data() + body.size());

        const wire::Frame reply = shards[req.index % 4].handle(request);
        client::EncodeResult enc;
        EXPECT_TRUE(client::readEncodeHead(reply.view(), enc, err))
            << preset << " request " << req.index << ": " << err;
        row.txs += enc.count;
        row.onesIn += enc.inputOnes;
        row.onesOut += enc.payloadOnes + enc.metaOnes;
    }
    return row;
}

TEST(AdaptiveRows, PresetStreamsMatchTheExperimentsTable)
{
    // EXPERIMENTS.md, "Adaptive vs fixed specs": the tx counts, the
    // baseline rows' ones (ones in) and the adaptive rows.
    const Row zipf = adaptiveRow("zipf-0.99");
    EXPECT_EQ(zipf.txs, 274'809u);
    EXPECT_EQ(zipf.onesIn, 50'722'759u);
    EXPECT_EQ(zipf.onesOut, 28'226'216u);

    const Row burst = adaptiveRow("burst");
    EXPECT_EQ(burst.txs, 272'601u);
    EXPECT_EQ(burst.onesIn, 49'783'840u);
    EXPECT_EQ(burst.onesOut, 28'087'181u);
}

} // namespace
} // namespace bxt
