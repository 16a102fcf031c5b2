/**
 * @file
 * Tests for the multi-tenant traffic scenario engine: seed determinism,
 * Zipf sampling against the closed form, arrival-schedule and burst
 * invariants, preset round-trips, and the golden digest fixtures that
 * pin each preset's request stream.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "workloads/scenario.h"

#include "temp_path.h"

namespace bxt::scenario {
namespace {

Config
presetOrDie(const std::string &name)
{
    Config config;
    std::string err;
    EXPECT_TRUE(preset(name, config, err)) << err;
    return config;
}

std::vector<Request>
expand(const Config &config, std::uint64_t seed)
{
    Engine engine(config, seed);
    std::vector<Request> out;
    Request request;
    while (engine.next(request))
        out.push_back(request);
    return out;
}

bool
sameRequest(const Request &a, const Request &b)
{
    return a.index == b.index && a.tenant == b.tenant && a.spec == b.spec &&
           a.txBytes == b.txBytes && a.busBits == b.busBits &&
           a.count == b.count && a.arrivalUs == b.arrivalUs &&
           a.burst == b.burst && a.payload == b.payload;
}

TEST(ZipfWeights, MatchesClosedForm)
{
    // alpha = 1, n = 4: H = 1 + 1/2 + 1/3 + 1/4 = 25/12.
    const std::vector<double> w = zipfWeights(4, 1.0);
    ASSERT_EQ(w.size(), 4u);
    const double h = 25.0 / 12.0;
    EXPECT_NEAR(w[0], 1.0 / h, 1e-12);
    EXPECT_NEAR(w[1], 0.5 / h, 1e-12);
    EXPECT_NEAR(w[2], (1.0 / 3.0) / h, 1e-12);
    EXPECT_NEAR(w[3], 0.25 / h, 1e-12);
}

TEST(ZipfWeights, AlphaZeroIsUniform)
{
    const std::vector<double> w = zipfWeights(8, 0.0);
    for (const double weight : w)
        EXPECT_NEAR(weight, 1.0 / 8.0, 1e-12);
}

TEST(Engine, SameSeedIsByteIdentical)
{
    Config config = presetOrDie("zipf-0.99");
    config.requests = 200;
    const std::vector<Request> a = expand(config, 42);
    const std::vector<Request> b = expand(config, 42);
    ASSERT_EQ(a.size(), 200u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(sameRequest(a[i], b[i])) << "request " << i;
        EXPECT_EQ(a[i].payload.size(),
                  static_cast<std::size_t>(a[i].count) * a[i].txBytes);
    }
}

TEST(Engine, DifferentSeedsDiffer)
{
    Config config = presetOrDie("zipf-0.99");
    config.requests = 64;
    EXPECT_NE(digest(config, 1, 64), digest(config, 2, 64));
}

TEST(Engine, ResetReplaysTheStream)
{
    Config config = presetOrDie("burst");
    config.requests = 64;
    Engine engine(config, 7);
    std::vector<Request> first;
    Request request;
    while (engine.next(request))
        first.push_back(request);
    EXPECT_EQ(engine.emitted(), 64u);

    engine.reset();
    EXPECT_EQ(engine.emitted(), 0u);
    std::size_t i = 0;
    while (engine.next(request)) {
        ASSERT_LT(i, first.size());
        EXPECT_TRUE(sameRequest(first[i], request)) << "request " << i;
        ++i;
    }
    EXPECT_EQ(i, first.size());
}

TEST(Engine, DigestIsPrefixStable)
{
    // The request-count field only bounds emission; it must not perturb
    // tenant assignment or the arrival stream, so a shorter run digests
    // identically to the prefix of a longer one.
    Config longer = presetOrDie("uniform");
    longer.requests = 96;
    Config shorter = longer;
    shorter.requests = 32;
    EXPECT_EQ(digest(longer, 9, 32), digest(shorter, 9, 32));
}

TEST(Engine, ZipfSamplingMatchesWeightsChiSquare)
{
    Config config = presetOrDie("zipf-0.99");
    config.requests = 4000;
    // Strip payload work out of the tally loop: 1-byte transactions.
    config.minTx = 1;
    config.maxTx = 1;
    config.sizeMix = {{8, 1.0}};

    Engine engine(config, 1234);
    std::vector<std::uint64_t> observed(config.tenants, 0);
    Request request;
    while (engine.next(request))
        ++observed[request.tenant];

    double chi2 = 0.0;
    for (std::uint32_t t = 0; t < config.tenants; ++t) {
        const double expected =
            static_cast<double>(config.requests) * engine.tenantWeight(t);
        ASSERT_GT(expected, 0.0);
        const double delta = static_cast<double>(observed[t]) - expected;
        chi2 += delta * delta / expected;
    }
    // 31 degrees of freedom; the p = 0.001 critical value is 61.1. The
    // stream is deterministic, so this cannot flake — it only fails if
    // the sampler stops following the closed-form weights.
    EXPECT_LT(chi2, 61.1);
}

TEST(Engine, ArrivalsAreNondecreasing)
{
    for (const std::string &name : presetNames()) {
        Config config = presetOrDie(name);
        config.requests = 500;
        const std::vector<Request> stream = expand(config, 5);
        for (std::size_t i = 1; i < stream.size(); ++i) {
            EXPECT_GE(stream[i].arrivalUs, stream[i - 1].arrivalUs)
                << name << " request " << i;
        }
    }
}

TEST(Engine, BurstEpisodesShortenGaps)
{
    Config config = presetOrDie("burst");
    config.requests = 4000;
    config.minTx = 1;
    config.maxTx = 1;
    const std::vector<Request> stream = expand(config, 77);

    double burst_gap = 0.0, normal_gap = 0.0;
    std::size_t burst_n = 0, normal_n = 0;
    for (std::size_t i = 1; i < stream.size(); ++i) {
        const double gap = stream[i].arrivalUs - stream[i - 1].arrivalUs;
        if (stream[i].burst) {
            burst_gap += gap;
            ++burst_n;
        } else {
            normal_gap += gap;
            ++normal_n;
        }
    }
    ASSERT_GT(burst_n, 100u);
    ASSERT_GT(normal_n, 100u);
    // Bursts run at 8x the base rate; the mean gap inside episodes must
    // be far below the steady-state gap (4x leaves statistical slack).
    EXPECT_LT(burst_gap / static_cast<double>(burst_n),
              normal_gap / static_cast<double>(normal_n) / 4.0);
}

TEST(Engine, BurstRunsAreWholeEpisodes)
{
    Config config = presetOrDie("burst");
    config.requests = 4000;
    config.minTx = 1;
    config.maxTx = 1;
    const std::vector<Request> stream = expand(config, 3);

    std::size_t run = 0;
    bool saw_burst = false;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (stream[i].burst) {
            ++run;
            saw_burst = true;
        } else if (run > 0) {
            // Episodes are burstLen requests; back-to-back episodes can
            // chain, so a maximal run is a multiple of burstLen.
            EXPECT_EQ(run % config.burstLen, 0u) << "ending at " << i;
            run = 0;
        }
    }
    EXPECT_TRUE(saw_burst);
}

TEST(Engine, HotFloodRoutesToTenantZero)
{
    Config config = presetOrDie("hot-flood");
    config.requests = 2000;
    Engine engine(config, 11);
    EXPECT_EQ(engine.tenantSpec(0), "xor4+zdr");

    std::uint64_t hot = 0;
    Request request;
    while (engine.next(request)) {
        if (request.tenant == 0)
            ++hot;
        EXPECT_EQ(request.txBytes, 32u);
    }
    const double share =
        static_cast<double>(hot) / static_cast<double>(config.requests);
    // hotFraction 0.9 plus tenant 0's own Zipf head: share must clear
    // 0.85 without consuming everything (other tenants still appear).
    EXPECT_GT(share, 0.85);
    EXPECT_LT(share, 0.99);
}

TEST(Presets, RoundTripThroughTextForm)
{
    for (const std::string &name : presetNames()) {
        const Config config = presetOrDie(name);
        Config parsed;
        std::string err;
        ASSERT_TRUE(parse(format(config), parsed, err))
            << name << ": " << err;
        EXPECT_EQ(config, parsed) << name;
    }
}

TEST(Presets, UnknownNameFails)
{
    Config config;
    std::string err;
    EXPECT_FALSE(preset("no-such-preset", config, err));
    EXPECT_NE(err.find("no-such-preset"), std::string::npos);
}

TEST(Parse, RejectsUnknownKeyWithLineNumber)
{
    Config config;
    std::string err;
    EXPECT_FALSE(parse("tenants = 4\nbogus = 1\n", config, err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("bogus"), std::string::npos) << err;
}

TEST(Parse, RejectsDuplicateKeyWithLineNumber)
{
    Config config;
    std::string err;
    EXPECT_FALSE(
        parse("tenants = 4\nalpha = 0.5\ntenants = 8\n", config, err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("duplicate key 'tenants'"), std::string::npos)
        << err;
}

TEST(Parse, RejectsBadValues)
{
    Config config;
    std::string err;
    EXPECT_FALSE(parse("tenants = many\n", config, err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    EXPECT_FALSE(parse("min_tx = 0\n", config, err));
    EXPECT_FALSE(parse("spec_mix = xor4+zdr\n", config, err));
    EXPECT_FALSE(parse("size_mix = 48:1\n", config, err));
    // Each of these used to wrap, overflow or read as a non-finite value.
    for (const char *text :
         {"max_tx = -1\n", "tenants = 4294967297\n",
          "requests = 99999999999\n", "alpha = nan\n",
          "rate_per_sec = inf\n", "burst_factor = inf\n",
          "size_mix = 32:nan\n", "tenants = 65536\n", "tenants = 70000\n",
          "requests = 10x\n", "alpha = 0.5.5\n"}) {
        EXPECT_FALSE(parse(text, config, err)) << text;
        EXPECT_NE(err.find("line 1: bad value"), std::string::npos)
            << text << err;
    }
}

TEST(Parse, ReadsHexAndLeadingZerosAsDecimal)
{
    Config config;
    std::string err;
    ASSERT_TRUE(parse("tenants = 0x10\nrequests = 010\n", config, err))
        << err;
    EXPECT_EQ(config.tenants, 16u);
    EXPECT_EQ(config.requests, 10u);
    ASSERT_TRUE(parse("tenants = 65535\n", config, err)) << err;
    EXPECT_EQ(config.tenants, 65535u);
}

TEST(Load, ResolvesPresetNameOrFile)
{
    Config from_name;
    std::string err;
    ASSERT_TRUE(load("burst", from_name, err)) << err;

    const std::filesystem::path path = uniqueTempPath("scenario.conf");
    {
        std::ofstream out(path);
        out << format(from_name);
    }
    Config from_file;
    EXPECT_TRUE(load(path.string(), from_file, err)) << err;
    EXPECT_EQ(from_name, from_file);
    std::filesystem::remove(path);

    Config missing;
    EXPECT_FALSE(load("definitely-not-a-preset-or-file", missing, err));
}

/** One `key value` fixture line parser for the golden scenario files. */
bool
readFixture(const std::string &path, Config &config, std::uint64_t &seed,
            std::size_t &requests, std::uint64_t &expected)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    std::string name;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, value;
        if (!(fields >> key >> value))
            return false;
        if (key == "name")
            name = value;
        else if (key == "seed")
            seed = std::strtoull(value.c_str(), nullptr, 0);
        else if (key == "requests")
            requests = std::strtoull(value.c_str(), nullptr, 0);
        else if (key == "digest")
            expected = std::strtoull(value.c_str(), nullptr, 0);
        else
            return false;
    }
    std::string err;
    return preset(name, config, err);
}

TEST(Golden, PresetDigestsMatchFixtures)
{
    for (const std::string &name : presetNames()) {
        const std::string path =
            std::string(BXT_GOLDEN_DIR) + "/scenarios/" + name + ".txt";
        Config config;
        std::uint64_t seed = 0, expected = 0;
        std::size_t requests = 0;
        ASSERT_TRUE(readFixture(path, config, seed, requests, expected))
            << "unreadable fixture " << path
            << " (regenerate: gen_golden --scenarios tests/golden/scenarios)";
        ASSERT_GT(requests, 0u);
        const std::uint64_t actual = digest(config, seed, requests);
        EXPECT_EQ(actual, expected)
            << name << ": the " << requests
            << "-request stream changed; if intentional, regenerate with "
               "gen_golden --scenarios tests/golden/scenarios";
    }
}

} // namespace
} // namespace bxt::scenario
