/**
 * @file
 * Differential verification suite (ISSUE: tentpole). Checks the core
 * codecs and Bus against the naive reference implementations in
 * src/verify/ over the structured generator stream, proves the lane-level
 * ZDR bijectivity statement, replays the shrunken-repro corpus, and — as a
 * permanent mutation smoke test — verifies that a deliberately injected
 * codec bug is caught and shrunk to a near-minimal repro.
 *
 * Iteration budgets scale with the BXT_FUZZ_ITERS environment variable
 * (transactions per (spec, wires) unit); the default keeps the suite
 * tier-1 fast, the nightly job raises it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/rng.h"
#include "core/codec_factory.h"
#include "verify/differential.h"
#include "verify/generators.h"
#include "verify/invariants.h"
#include "verify/reference_codecs.h"

namespace bxt {
namespace {

using verify::DifferentialChecker;
using verify::FuzzOptions;
using verify::FuzzReport;
using verify::Violation;

std::uint64_t
fuzzIters(std::uint64_t fallback)
{
    if (const char *env = std::getenv("BXT_FUZZ_ITERS")) {
        const std::uint64_t parsed = std::strtoull(env, nullptr, 0);
        if (parsed > 0)
            return parsed;
    }
    return fallback;
}

std::size_t
countOnes(const Transaction &tx)
{
    std::size_t ones = 0;
    for (std::size_t i = 0; i < tx.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit)
            ones += (tx.data()[i] >> bit) & 1;
    }
    return ones;
}

std::string
failureText(const FuzzReport &report)
{
    std::string text;
    for (const auto &failure : report.failures) {
        text += failure.spec + " wires=" +
                std::to_string(failure.dataWires) + " " +
                failure.violation.invariant + ": " +
                failure.violation.detail + "\n";
    }
    return text;
}

/**
 * Every canonical spec agrees with its independent reference model (and
 * round-trips, and matches RefBus) over the full generator stream on both
 * channel widths. This is the acceptance gate: raise BXT_FUZZ_ITERS to
 * 1000000 for the full campaign the ISSUE requires locally.
 */
TEST(Differential, CanonicalSpecsMatchReferenceModels)
{
    FuzzOptions options;
    options.iterationsPerSpec = fuzzIters(1500);
    options.idleFraction = 0.3;
    const FuzzReport report = runDifferentialFuzz(options);
    EXPECT_GT(report.transactionsChecked, 0u);
    EXPECT_TRUE(report.ok()) << failureText(report);
}

/** The two pipeline orders are distinct specs; both must stay clean. */
TEST(Differential, BothPipelineOrdersFuzzClean)
{
    FuzzOptions options;
    options.specs = {"xor4+zdr|dbi4", "dbi4|xor4+zdr",
                     "universal3+zdr|dbi4", "dbi4|universal3+zdr"};
    options.iterationsPerSpec = fuzzIters(1500);
    const FuzzReport report = runDifferentialFuzz(options);
    EXPECT_TRUE(report.ok()) << failureText(report);
}

/**
 * Paper §IV-A bijectivity argument, machine-checked at lane level: ZDR is
 * plain base-XOR composed with the transposition σ of the two output
 * symbols {base, C}. σ∘σ == id, so ZDR stays a bijection and needs no
 * metadata. Exhaustive for 1-byte lanes, randomized for wider lanes.
 */
TEST(Differential, ZdrLaneSwapIsAnInvolution)
{
    // Exhaustive: every (input, base) pair of 1-byte lanes.
    for (unsigned in = 0; in < 256; ++in) {
        for (unsigned base = 0; base < 256; ++base) {
            const auto violation = verify::checkZdrLaneInvolution(
                {static_cast<std::uint8_t>(in)},
                {static_cast<std::uint8_t>(base)});
            ASSERT_FALSE(violation.has_value())
                << violation->invariant << ": " << violation->detail;
        }
    }

    // Randomized wide lanes, biased toward the special symbols.
    Rng rng(0x2d12);
    for (std::size_t lane : {2u, 4u, 8u}) {
        for (int i = 0; i < 4000; ++i) {
            std::vector<std::uint8_t> in(lane);
            std::vector<std::uint8_t> base(lane);
            switch (rng.nextBounded(4)) {
              case 0:
                break; // in stays zero.
              case 1:
                in = verify::refZdrConstant(lane);
                break;
              case 2:
                for (auto &b : in)
                    b = static_cast<std::uint8_t>(rng.nextBounded(256));
                base = in; // in == base → plain XOR gives zero.
                break;
              default:
                for (auto &b : in)
                    b = static_cast<std::uint8_t>(rng.nextBounded(256));
            }
            if (rng.nextBounded(2) == 0) {
                for (auto &b : base)
                    b = static_cast<std::uint8_t>(rng.nextBounded(256));
            }
            const auto violation = verify::checkZdrLaneInvolution(in, base);
            ASSERT_FALSE(violation.has_value())
                << violation->invariant << ": " << violation->detail;
        }
    }
}

/**
 * DBI-DC weight bound, checked directly on adversarially dense inputs:
 * no encoded group may carry more ones than half its wires.
 */
TEST(Differential, DbiWeightBoundHoldsOnDenseInputs)
{
    Rng rng(0xdb1);
    for (std::size_t group : {1u, 2u, 4u}) {
        const std::string spec = "dbi" + std::to_string(group);
        CodecPtr codec = makeCodec(spec);
        for (int i = 0; i < 2000; ++i) {
            Transaction tx(32);
            for (std::size_t b = 0; b < tx.size(); ++b) {
                // Mostly-dense bytes hammer the inversion path.
                tx.data()[b] = static_cast<std::uint8_t>(
                    rng.nextBounded(4) == 0 ? rng.nextBounded(256) : 0xff);
            }
            const Encoded enc = codec->encode(tx);
            const std::size_t half_bits = group * 8 / 2;
            for (std::size_t off = 0; off < enc.payload.size();
                 off += group) {
                std::size_t ones = 0;
                for (std::size_t b = off; b < off + group; ++b) {
                    for (int bit = 0; bit < 8; ++bit)
                        ones += (enc.payload.data()[b] >> bit) & 1;
                }
                ASSERT_LE(ones, half_bits)
                    << spec << " group at " << off << " tx " << tx.toHex();
            }
        }
    }
}

/**
 * The Bus-vs-RefBus comparison stays exact across idle-gap fractions,
 * where the wires park at zero between transactions.
 */
TEST(Differential, BusMatchesReferenceBusAcrossIdleFractions)
{
    const std::vector<verify::GenKind> &kinds = verify::allGenKinds();
    for (double idle : {0.0, 0.3, 0.7}) {
        for (const char *spec : {"baseline", "xor4+zdr", "dbi4", "bd"}) {
            DifferentialChecker checker(spec, 32, idle);
            Rng rng(0x1d7e);
            Transaction previous(32);
            for (int i = 0; i < 400; ++i) {
                const Transaction tx = verify::generate(
                    rng, 32, kinds[i % kinds.size()], previous);
                previous = tx;
                const auto violation = checker.check(tx);
                ASSERT_FALSE(violation.has_value())
                    << spec << " idle " << idle << " "
                    << violation->invariant << ": " << violation->detail;
            }
        }
    }
}

/** Every shrunken repro in tests/corpus/ must stay fixed. */
TEST(Differential, CorpusReplayStaysClean)
{
    const FuzzReport report = verify::replayCorpus(BXT_CORPUS_DIR);
    EXPECT_TRUE(report.ok()) << failureText(report);
}

/**
 * A codec that mimics a real class of bug: it corrupts one encoded byte,
 * but only when that byte holds a specific value — so the bug is silent on
 * most inputs and only a structured search finds it.
 */
class BuggyCodec : public Codec
{
  public:
    BuggyCodec() : inner_(makeCodec("xor4+zdr")) {}
    std::string name() const override { return inner_->name(); }
    unsigned metaWiresPerBeat() const override
    {
        return inner_->metaWiresPerBeat();
    }

  protected:
    void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) override
    {
        inner_->encodeBatch(in, out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            std::uint8_t *payload = out.payload(i).data();
            if (out.txBytes() > 5 && payload[5] == 0x40)
                payload[5] = 0x41; // The injected bug.
        }
    }
    void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) override
    {
        inner_->decodeBatch(in, out);
    }

  private:
    CodecPtr inner_;
};

/**
 * Mutation smoke test (ISSUE acceptance): the harness must catch the
 * injected bug within the normal fuzz budget and shrink the failing input
 * to a near-minimal repro — the bug needs only encoded byte 5 == 0x40,
 * reachable from a single set input bit, so the shrunken transaction must
 * be tiny and must still fail on a fresh checker.
 */
TEST(Differential, InjectedCodecBugIsCaughtAndShrunk)
{
    const unsigned wires = 32;
    DifferentialChecker checker(std::make_unique<BuggyCodec>(), "xor4+zdr",
                                wires, 0.0);

    const std::vector<verify::GenKind> &kinds = verify::allGenKinds();
    Rng rng(0xb06);
    Transaction previous(wires);
    std::optional<Violation> violation;
    Transaction failing(wires);
    const std::uint64_t budget = fuzzIters(20000);
    for (std::uint64_t i = 0; i < budget && !violation; ++i) {
        const Transaction tx =
            verify::generate(rng, wires, kinds[i % kinds.size()], previous);
        previous = tx;
        violation = checker.check(tx);
        if (violation)
            failing = tx;
    }
    ASSERT_TRUE(violation.has_value())
        << "injected bug not caught in " << budget << " transactions";

    const verify::FailPredicate fails = [&](const Transaction &candidate) {
        DifferentialChecker fresh(std::make_unique<BuggyCodec>(), "xor4+zdr",
                                  wires, 0.0);
        return fresh.check(candidate).has_value();
    };
    ASSERT_TRUE(fails(failing)) << "failure does not reproduce fresh";

    const Transaction shrunk = verify::shrinkTransaction(failing, fails);
    EXPECT_TRUE(fails(shrunk));
    EXPECT_LE(shrunk.size(), 64u);
    // Greedy span+bit shrinking cannot clear coupled bit pairs, but the
    // minimum here is one set bit (input byte 5 = 0x40); allow slack for
    // pair-coupled local minima while still proving real minimization.
    EXPECT_LE(countOnes(shrunk), 8u)
        << "shrunk repro still has " << countOnes(shrunk)
        << " set bits: " << shrunk.toHex();
}

/** Specs without a reference model still get round-trip + bus checking. */
TEST(Differential, StatefulAndAcSpecsFuzzWithoutReference)
{
    for (const char *spec : {"bd", "dbi-ac1", "dbi-ac4"}) {
        DifferentialChecker checker(spec, 32, 0.0);
        EXPECT_FALSE(checker.hasReference()) << spec;
    }
    for (const char *spec : {"xor4+zdr", "universal3+zdr|dbi4", "dbi1"}) {
        DifferentialChecker checker(spec, 32, 0.0);
        EXPECT_TRUE(checker.hasReference()) << spec;
    }

    FuzzOptions options;
    options.specs = {"bd", "dbi-ac1", "dbi-ac4", "bd|dbi4"};
    options.iterationsPerSpec = fuzzIters(1500);
    const FuzzReport report = runDifferentialFuzz(options);
    EXPECT_TRUE(report.ok()) << failureText(report);
}

} // namespace
} // namespace bxt
