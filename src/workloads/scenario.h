/**
 * @file
 * Multi-tenant traffic scenarios: a seeded, deterministic model of a
 * production tenant population driving bxtd (DESIGN.md §11).
 *
 * The paper evaluates encoding on fixed single-spec streams; a serving
 * system sees something else entirely — many tenants with Zipf-skewed
 * popularity, each streaming its own codec spec, transaction size, and
 * data family, arriving open-loop with burst episodes. A Scenario
 * Config captures that population; an Engine expands it into a
 * reproducible request sequence (same seed → byte-identical payloads
 * and arrival schedule), so every scenario doubles as an integration
 * test and a regression gate for scaling work (the sharded-bxtd PRs).
 *
 * Named presets cover the interesting corners:
 *   uniform    equal tenant popularity, steady arrivals (control)
 *   zipf-0.99  YCSB-style skew: few hot tenants dominate
 *   burst      Zipf skew plus burst episodes at 8x the base rate
 *   hot-flood  one tenant + one spec takes ~90 % of traffic — the
 *              shared-pool stress case the sharding work must beat
 *
 * Configs round-trip through a small `key = value` text form (parse /
 * format), so presets can be dumped, edited, and loaded from a file.
 */

#ifndef BXT_WORKLOADS_SCENARIO_H
#define BXT_WORKLOADS_SCENARIO_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workloads/patterns.h"

namespace bxt::scenario {

/** One codec spec and its share of the tenant population. */
struct SpecShare
{
    std::string spec;
    double weight = 0.0;

    bool operator==(const SpecShare &) const = default;
};

/** One transaction size and its share of the tenant population. */
struct SizeShare
{
    std::uint32_t txBytes = 32;
    double weight = 0.0;

    bool operator==(const SizeShare &) const = default;
};

/** Most tenants: bxt_loadgen tags tenant t with 16-bit stream id t + 1. */
constexpr std::uint32_t maxTenants = 0xffff;

/**
 * A tenant-population traffic model. All distributions are sampled with
 * the engine's seeded RNG only, so a (Config, seed) pair fully
 * determines the request stream.
 */
struct Config
{
    std::string name = "uniform";

    /** Tenant population size (<= maxTenants). Ids are 0..tenants-1. */
    std::uint32_t tenants = 16;

    /**
     * Zipf popularity exponent over tenant rank (tenant 0 is the most
     * popular): weight(i) ∝ 1/(i+1)^alpha. 0 = uniform.
     */
    double alpha = 0.0;

    /** Codec-spec mix tenants are assigned from (weights normalized). */
    std::vector<SpecShare> specMix;

    /** Transaction-size mix tenants are assigned from. */
    std::vector<SizeShare> sizeMix;

    /** Bus width every request is encoded against. */
    std::uint32_t busBits = 32;

    /** Transactions per request: uniform in [minTx, maxTx]. */
    std::uint32_t minTx = 16;
    std::uint32_t maxTx = 256;

    /** Open-loop Poisson arrival rate, requests/s (0 disables pacing). */
    double ratePerSec = 100000.0;

    /**
     * Burst episodes: each non-burst request starts one with
     * probability burstProb; an episode lasts burstLen requests during
     * which the arrival rate is multiplied by burstFactor.
     */
    double burstProb = 0.0;
    std::uint32_t burstLen = 0;
    double burstFactor = 1.0;

    /**
     * Hot single-spec flood (the sharding stress case): this fraction
     * of requests is routed to tenant 0, which carries hotSpec
     * (when non-empty) regardless of the spec mix.
     */
    double hotFraction = 0.0;
    std::string hotSpec;

    /** Default request count for a run of this scenario. */
    std::uint32_t requests = 2000;

    bool operator==(const Config &) const = default;
};

/**
 * Closed-form normalized Zipf weights: w(i) = (1/(i+1)^alpha) / H for
 * i in [0, n). alpha = 0 yields the uniform distribution. The reference
 * the engine's sampler (and the chi-square test) is checked against.
 */
std::vector<double> zipfWeights(std::uint32_t n, double alpha);

/** The named presets, in documentation order. */
std::vector<std::string> presetNames();

/** Fill @p out with the named preset; false + @p err when unknown. */
bool preset(const std::string &name, Config &out, std::string &err);

/**
 * Parse the `key = value` scenario text form ('#' comments, blank lines
 * ignored; list values comma-separated `item:weight` pairs). Unknown
 * keys, malformed values, and duplicate keys fail with a line-annotated
 * @p err.
 */
bool parse(const std::string &text, Config &out, std::string &err);

/** Render @p config in the text form parse() accepts (round-trips). */
std::string format(const Config &config);

/**
 * Resolve @p name_or_path: a preset name first, else a path to a
 * scenario spec file in the parse() format.
 */
bool load(const std::string &name_or_path, Config &out, std::string &err);

/** One generated request: who, what, when, and the payload bytes. */
struct Request
{
    std::uint32_t index = 0;  ///< Position in the stream (0-based).
    std::uint32_t tenant = 0; ///< Tenant id in [0, config.tenants).
    std::string spec;         ///< The tenant's codec spec.
    std::uint32_t txBytes = 0;
    std::uint32_t busBits = 0;
    std::uint32_t count = 0;  ///< Transactions in this request.
    double arrivalUs = 0.0;   ///< Open-loop arrival offset from start.
    bool burst = false;       ///< Emitted inside a burst episode.
    std::vector<std::uint8_t> payload; ///< count * txBytes bytes.
};

/**
 * Expands a Config into its request stream. Deterministic: equal
 * (Config, seed) pairs produce byte-identical streams regardless of
 * wall clock, thread count, or how results are consumed. Each tenant
 * owns an independent pattern stream (data family cycled over the
 * workload families of patterns.h) and a split RNG, so per-tenant data
 * evolves like one coherent stream even under interleaved arrivals.
 */
class Engine
{
  public:
    Engine(Config config, std::uint64_t seed);

    const Config &config() const { return config_; }
    std::uint64_t seed() const { return seed_; }

    /** Spec assigned to tenant @p t (after hot-flood overrides). */
    const std::string &tenantSpec(std::uint32_t t) const;

    /** Transaction size assigned to tenant @p t. */
    std::uint32_t tenantTxBytes(std::uint32_t t) const;

    /** Normalized popularity of tenant @p t (includes hotFraction). */
    double tenantWeight(std::uint32_t t) const;

    /**
     * Produce the next request; false once config().requests have been
     * emitted. Arrival times are nondecreasing across the stream.
     */
    bool next(Request &out);

    /** Requests emitted so far. */
    std::uint64_t emitted() const { return emitted_; }

    /** Rewind to request 0: the stream replays identically. */
    void reset();

  private:
    struct Tenant
    {
        std::string spec;
        std::uint32_t txBytes = 32;
        PatternPtr pattern;
        Rng rng{0};
    };

    std::uint32_t sampleTenant();

    Config config_;
    std::uint64_t seed_ = 0;
    std::vector<Tenant> tenants_;
    std::vector<double> cumulative_; ///< Cumulative tenant weights.
    Rng rng_{0};                     ///< Arrival/selection stream.
    std::uint64_t emitted_ = 0;
    double clockUs_ = 0.0;
    std::uint32_t burstLeft_ = 0;
};

/**
 * FNV-1a digest over the first @p requests of (config, seed): every
 * request's routing fields, nanosecond-quantized arrival time, and
 * payload bytes. Pinned by tests/golden/scenarios/ so generator
 * refactors cannot silently change the workloads scaling PRs gate on.
 */
std::uint64_t digest(const Config &config, std::uint64_t seed,
                     std::size_t requests);

} // namespace bxt::scenario

#endif // BXT_WORKLOADS_SCENARIO_H
