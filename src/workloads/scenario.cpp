#include "workloads/scenario.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "common/json.h"
#include "common/parse.h"

namespace bxt::scenario {
namespace {

/** Default spec mix: the paper's main pipelines plus a raw control. */
std::vector<SpecShare>
defaultSpecMix()
{
    return {{"xor4+zdr", 0.35},
            {"universal3+zdr", 0.25},
            {"dbi4", 0.15},
            {"universal3+zdr|dbi4", 0.10},
            {"baseline", 0.15}};
}

/** Default size mix: GPU sectors dominate, some CPU-line traffic. */
std::vector<SizeShare>
defaultSizeMix()
{
    return {{32, 0.7}, {64, 0.3}};
}

/** Weighted index pick from normalized cumulative weights. */
std::size_t
pickCumulative(const std::vector<double> &cumulative, double u)
{
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), u);
    const std::size_t index =
        static_cast<std::size_t>(it - cumulative.begin());
    return std::min(index, cumulative.size() - 1);
}

/** Cumulative distribution of arbitrary positive weights. */
template <typename Share>
std::vector<double>
cumulativeOf(const std::vector<Share> &shares)
{
    double total = 0.0;
    for (const Share &share : shares)
        total += share.weight;
    std::vector<double> cumulative;
    cumulative.reserve(shares.size());
    double running = 0.0;
    for (const Share &share : shares) {
        running += share.weight / total;
        cumulative.push_back(running);
    }
    if (!cumulative.empty())
        cumulative.back() = 1.0;
    return cumulative;
}

/**
 * The data family assigned to tenant @p index: cycled over the
 * transaction-value families of patterns.h so a population exercises
 * float-similar, integer, pointer, zero-mixed, and incompressible
 * traffic side by side (their ones-on-bus deltas differ sharply, which
 * is what makes the per-tenant columns of the bench JSON informative).
 */
PatternPtr
tenantPattern(std::uint32_t index, Rng &setup)
{
    const std::uint64_t seed = setup.next64();
    switch (index % 6) {
    case 0: return makeSoaFloatPattern(1.0, 1.0e-3, seed);
    case 1: return makeIntStridePattern(4, 2, 4, seed);
    case 2:
        return makePointerPattern(0x7f00'0000'0000ull, 1ull << 30, seed);
    case 3: return makeVecFloatPattern(4, 4, 1.0e-3, seed);
    case 4:
        return makeZeroMixedPattern(
            makeIntStridePattern(4, 1, 2, setup.next64()), 4, 0.3, seed);
    default: return makeRandomPattern(seed);
    }
}

std::string
trim(const std::string &text)
{
    const std::size_t begin = text.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return {};
    const std::size_t end = text.find_last_not_of(" \t\r");
    return text.substr(begin, end - begin + 1);
}

/** Split `item:weight,item:weight,...`; item may not contain ':'. */
bool
parsePairs(const std::string &text,
           std::vector<std::pair<std::string, double>> &out)
{
    std::stringstream stream(text);
    std::string token;
    while (std::getline(stream, token, ',')) {
        token = trim(token);
        if (token.empty())
            return false;
        const std::size_t colon = token.rfind(':');
        if (colon == std::string::npos || colon == 0)
            return false;
        double weight = 0.0;
        if (!parseReal(trim(token.substr(colon + 1)), weight) ||
            weight <= 0.0)
            return false;
        out.emplace_back(trim(token.substr(0, colon)), weight);
    }
    return !out.empty();
}

template <typename Share>
std::string
formatPairs(const std::vector<Share> &shares,
            const std::function<std::string(const Share &)> &item)
{
    std::string out;
    for (const Share &share : shares) {
        if (!out.empty())
            out += ',';
        out += item(share) + ':' + JsonWriter::formatNumber(share.weight);
    }
    return out;
}

/** Sanity bounds shared by parse() and preset(). */
std::string
validate(const Config &config)
{
    if (config.tenants == 0)
        return "tenants must be >= 1";
    if (config.specMix.empty())
        return "spec_mix must not be empty";
    if (config.sizeMix.empty())
        return "size_mix must not be empty";
    if (config.busBits != 32 && config.busBits != 64)
        return "bus_bits must be 32 or 64";
    if (config.minTx == 0 || config.maxTx < config.minTx)
        return "need 1 <= min_tx <= max_tx";
    if (config.alpha < 0.0)
        return "alpha must be >= 0";
    if (config.hotFraction < 0.0 || config.hotFraction >= 1.0)
        return "hot_fraction must be in [0, 1)";
    if (config.burstProb < 0.0 || config.burstProb > 1.0)
        return "burst_prob must be in [0, 1]";
    if (config.burstFactor <= 0.0)
        return "burst_factor must be > 0";
    if (config.requests == 0)
        return "requests must be >= 1";
    for (const SizeShare &share : config.sizeMix) {
        if (share.txBytes < 8 || share.txBytes > 64 ||
            (share.txBytes & (share.txBytes - 1)) != 0) {
            return "size_mix txBytes must be a power of two in [8, 64]";
        }
    }
    return {};
}

} // namespace

std::vector<double>
zipfWeights(std::uint32_t n, double alpha)
{
    std::vector<double> weights(n, 0.0);
    double total = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
        weights[i] = 1.0 / std::pow(static_cast<double>(i) + 1.0, alpha);
        total += weights[i];
    }
    for (double &w : weights)
        w /= total;
    return weights;
}

std::vector<std::string>
presetNames()
{
    return {"uniform", "zipf-0.99", "burst", "hot-flood"};
}

bool
preset(const std::string &name, Config &out, std::string &err)
{
    Config config;
    config.name = name;
    config.specMix = defaultSpecMix();
    config.sizeMix = defaultSizeMix();
    if (name == "uniform") {
        // Control: every tenant equally popular, steady arrivals.
        config.tenants = 16;
        config.alpha = 0.0;
    } else if (name == "zipf-0.99") {
        // YCSB-style skew: the head few tenants dominate the stream.
        config.tenants = 32;
        config.alpha = 0.99;
        config.ratePerSec = 150000.0;
    } else if (name == "burst") {
        // Skewed population with burst episodes at 8x the base rate.
        config.tenants = 16;
        config.alpha = 0.8;
        config.ratePerSec = 60000.0;
        config.burstProb = 0.02;
        config.burstLen = 64;
        config.burstFactor = 8.0;
    } else if (name == "hot-flood") {
        // One tenant floods one spec: the shared-pool sharding stress
        // case — 90 % of requests land on tenant 0 / xor4+zdr.
        config.tenants = 16;
        config.alpha = 0.99;
        config.hotFraction = 0.9;
        config.hotSpec = "xor4+zdr";
        config.sizeMix = {{32, 1.0}};
        config.minTx = 64;
        config.maxTx = 256;
        config.ratePerSec = 200000.0;
    } else {
        err = "unknown scenario preset '" + name + "' (have";
        for (const std::string &known : presetNames())
            err += " " + known;
        err += ")";
        return false;
    }
    out = std::move(config);
    return true;
}

bool
parse(const std::string &text, Config &out, std::string &err)
{
    Config config;
    config.specMix.clear();
    config.sizeMix.clear();
    std::stringstream stream(text);
    std::string line;
    std::size_t line_no = 0;
    std::set<std::string> seen;
    while (std::getline(stream, line)) {
        ++line_no;
        line = trim(line);
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            err = "line " + std::to_string(line_no) + ": expected key = value";
            return false;
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        // A key given twice is almost always a copy-paste mistake; the
        // last-one-wins silent override it used to get hid real config
        // errors.
        if (!seen.insert(key).second) {
            err = "line " + std::to_string(line_no) + ": duplicate key '" +
                  key + "'";
            return false;
        }
        bool ok = true;
        if (key == "name") {
            config.name = value;
        } else if (key == "tenants") {
            ok = parseUnsigned(value, /*allow_hex=*/true,
                               config.tenants, maxTenants);
        } else if (key == "alpha") {
            ok = parseReal(value, config.alpha);
        } else if (key == "spec_mix") {
            std::vector<std::pair<std::string, double>> pairs;
            ok = parsePairs(value, pairs);
            for (auto &[spec, weight] : pairs)
                config.specMix.push_back({std::move(spec), weight});
        } else if (key == "size_mix") {
            std::vector<std::pair<std::string, double>> pairs;
            ok = parsePairs(value, pairs);
            for (const auto &[size, weight] : pairs) {
                std::uint32_t tx_bytes = 0;
                ok = ok && parseUnsigned(size, /*allow_hex=*/true, tx_bytes);
                config.sizeMix.push_back({tx_bytes, weight});
            }
        } else if (key == "bus_bits") {
            ok = parseUnsigned(value, /*allow_hex=*/true, config.busBits);
        } else if (key == "min_tx") {
            ok = parseUnsigned(value, /*allow_hex=*/true, config.minTx);
        } else if (key == "max_tx") {
            ok = parseUnsigned(value, /*allow_hex=*/true, config.maxTx);
        } else if (key == "rate_per_sec") {
            ok = parseReal(value, config.ratePerSec);
        } else if (key == "burst_prob") {
            ok = parseReal(value, config.burstProb);
        } else if (key == "burst_len") {
            ok = parseUnsigned(value, /*allow_hex=*/true, config.burstLen);
        } else if (key == "burst_factor") {
            ok = parseReal(value, config.burstFactor);
        } else if (key == "hot_fraction") {
            ok = parseReal(value, config.hotFraction);
        } else if (key == "hot_spec") {
            config.hotSpec = value;
        } else if (key == "requests") {
            ok = parseUnsigned(value, /*allow_hex=*/true, config.requests);
        } else {
            err = "line " + std::to_string(line_no) + ": unknown key '" +
                  key + "'";
            return false;
        }
        if (!ok) {
            err = "line " + std::to_string(line_no) + ": bad value for '" +
                  key + "'";
            return false;
        }
    }
    if (config.specMix.empty())
        config.specMix = defaultSpecMix();
    if (config.sizeMix.empty())
        config.sizeMix = defaultSizeMix();
    const std::string problem = validate(config);
    if (!problem.empty()) {
        err = problem;
        return false;
    }
    out = std::move(config);
    return true;
}

std::string
format(const Config &config)
{
    std::string out = "# bxt scenario spec\n";
    out += "name = " + config.name + "\n";
    out += "tenants = " + std::to_string(config.tenants) + "\n";
    out += "alpha = " + JsonWriter::formatNumber(config.alpha) + "\n";
    out += "spec_mix = " +
           formatPairs<SpecShare>(
               config.specMix,
               [](const SpecShare &share) { return share.spec; }) +
           "\n";
    out += "size_mix = " +
           formatPairs<SizeShare>(
               config.sizeMix,
               [](const SizeShare &share) {
                   return std::to_string(share.txBytes);
               }) +
           "\n";
    out += "bus_bits = " + std::to_string(config.busBits) + "\n";
    out += "min_tx = " + std::to_string(config.minTx) + "\n";
    out += "max_tx = " + std::to_string(config.maxTx) + "\n";
    out += "rate_per_sec = " + JsonWriter::formatNumber(config.ratePerSec) +
           "\n";
    out += "burst_prob = " + JsonWriter::formatNumber(config.burstProb) +
           "\n";
    out += "burst_len = " + std::to_string(config.burstLen) + "\n";
    out += "burst_factor = " +
           JsonWriter::formatNumber(config.burstFactor) + "\n";
    out += "hot_fraction = " +
           JsonWriter::formatNumber(config.hotFraction) + "\n";
    out += "hot_spec = " + config.hotSpec + "\n";
    out += "requests = " + std::to_string(config.requests) + "\n";
    return out;
}

bool
load(const std::string &name_or_path, Config &out, std::string &err)
{
    std::string preset_err;
    if (preset(name_or_path, out, preset_err))
        return true;
    std::ifstream in(name_or_path);
    if (!in) {
        err = preset_err + "; and no such file";
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!parse(buffer.str(), out, err)) {
        err = name_or_path + ": " + err;
        return false;
    }
    return true;
}

Engine::Engine(Config config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed)
{
    reset();
}

void
Engine::reset()
{
    // Two independent derivations of the master seed: tenant setup
    // (assignments, pattern seeds, per-tenant streams) and the arrival/
    // selection stream, so changing the request count or replaying the
    // stream never perturbs tenant identities.
    Rng setup(seed_ ^ 0x5ce0a1105eedull);
    rng_ = Rng(seed_);
    emitted_ = 0;
    clockUs_ = 0.0;
    burstLeft_ = 0;

    const std::vector<double> spec_cdf = cumulativeOf(config_.specMix);
    const std::vector<double> size_cdf = cumulativeOf(config_.sizeMix);
    tenants_.clear();
    tenants_.reserve(config_.tenants);
    for (std::uint32_t i = 0; i < config_.tenants; ++i) {
        Tenant tenant;
        tenant.spec =
            config_.specMix[pickCumulative(spec_cdf, setup.nextDouble())]
                .spec;
        tenant.txBytes =
            config_.sizeMix[pickCumulative(size_cdf, setup.nextDouble())]
                .txBytes;
        tenant.pattern = tenantPattern(i, setup);
        tenant.rng = setup.split();
        tenants_.push_back(std::move(tenant));
    }
    if (config_.hotFraction > 0.0 && !config_.hotSpec.empty())
        tenants_[0].spec = config_.hotSpec;

    const std::vector<double> weights =
        zipfWeights(config_.tenants, config_.alpha);
    cumulative_.clear();
    cumulative_.reserve(weights.size());
    double running = 0.0;
    for (const double w : weights) {
        running += w;
        cumulative_.push_back(running);
    }
    cumulative_.back() = 1.0;
}

const std::string &
Engine::tenantSpec(std::uint32_t t) const
{
    return tenants_.at(t).spec;
}

std::uint32_t
Engine::tenantTxBytes(std::uint32_t t) const
{
    return tenants_.at(t).txBytes;
}

double
Engine::tenantWeight(std::uint32_t t) const
{
    const double zipf =
        t == 0 ? cumulative_[0] : cumulative_[t] - cumulative_[t - 1];
    const double hot = config_.hotFraction;
    return (t == 0 ? hot : 0.0) + (1.0 - hot) * zipf;
}

std::uint32_t
Engine::sampleTenant()
{
    if (config_.hotFraction > 0.0 &&
        rng_.nextDouble() < config_.hotFraction)
        return 0;
    return static_cast<std::uint32_t>(
        pickCumulative(cumulative_, rng_.nextDouble()));
}

bool
Engine::next(Request &out)
{
    if (emitted_ >= config_.requests)
        return false;

    out.index = static_cast<std::uint32_t>(emitted_);
    out.tenant = sampleTenant();

    // Burst bookkeeping: an episode can start on any non-burst request
    // and then holds the elevated rate for burstLen requests.
    if (burstLeft_ == 0 && config_.burstLen > 0 &&
        config_.burstProb > 0.0 && rng_.nextBool(config_.burstProb)) {
        burstLeft_ = config_.burstLen;
    }
    out.burst = burstLeft_ > 0;
    if (out.burst)
        --burstLeft_;

    // Open-loop Poisson arrivals: exponential inter-arrival gaps at the
    // (possibly burst-boosted) instantaneous rate. log1p(-u) keeps the
    // draw finite for u in [0, 1).
    if (config_.ratePerSec > 0.0) {
        const double rate =
            config_.ratePerSec *
            (out.burst ? config_.burstFactor : 1.0);
        clockUs_ += -std::log1p(-rng_.nextDouble()) * 1.0e6 / rate;
    }
    out.arrivalUs = clockUs_;

    out.count = config_.minTx == config_.maxTx
                    ? config_.minTx
                    : config_.minTx +
                          static_cast<std::uint32_t>(rng_.nextBounded(
                              config_.maxTx - config_.minTx + 1));

    Tenant &tenant = tenants_[out.tenant];
    out.spec = tenant.spec;
    out.txBytes = tenant.txBytes;
    out.busBits = config_.busBits;
    out.payload.resize(static_cast<std::size_t>(out.count) * out.txBytes);
    for (std::uint32_t i = 0; i < out.count; ++i) {
        tenant.pattern->fill(
            tenant.rng,
            std::span<std::uint8_t>(out.payload.data() +
                                        static_cast<std::size_t>(i) *
                                            out.txBytes,
                                    out.txBytes));
    }

    ++emitted_;
    return true;
}

std::uint64_t
digest(const Config &config, std::uint64_t seed, std::size_t requests)
{
    constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
    constexpr std::uint64_t kFnvPrime = 1099511628211ull;
    std::uint64_t hash = kFnvOffset;
    const auto mix_byte = [&](std::uint8_t byte) {
        hash = (hash ^ byte) * kFnvPrime;
    };
    const auto mix64 = [&](std::uint64_t value) {
        for (int i = 0; i < 8; ++i)
            mix_byte(static_cast<std::uint8_t>(value >> (8 * i)));
    };

    Engine engine(config, seed);
    Request request;
    std::size_t emitted = 0;
    while (emitted < requests && engine.next(request)) {
        mix64(request.index);
        mix64(request.tenant);
        for (const char c : request.spec)
            mix_byte(static_cast<std::uint8_t>(c));
        mix_byte(0);
        mix64(request.txBytes);
        mix64(request.busBits);
        mix64(request.count);
        mix_byte(request.burst ? 1 : 0);
        // Nanosecond-quantized arrival offset: stable under the IEEE
        // double math the schedule is computed with.
        mix64(static_cast<std::uint64_t>(
            std::llround(request.arrivalUs * 1000.0)));
        for (const std::uint8_t byte : request.payload)
            mix_byte(byte);
        ++emitted;
    }
    return hash;
}

} // namespace bxt::scenario
