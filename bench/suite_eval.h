/**
 * @file
 * Shared evaluation harness for the figure-reproduction benches: runs the
 * workload population through a set of codecs and collects per-application
 * wire-activity results.
 */

#ifndef BXT_BENCH_SUITE_EVAL_H
#define BXT_BENCH_SUITE_EVAL_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "channel/bus.h"
#include "common/json.h"
#include "workloads/apps.h"

namespace bxt {

/** Per-application evaluation across a set of schemes. */
struct AppResult
{
    std::string app;
    AppCategory category = AppCategory::Compute;
    std::string family;
    double mixedRatio = 0.0;   ///< Mixed zero/non-zero transaction ratio.
    std::uint64_t rawOnes = 0; ///< Unencoded `1` count of the trace.
    /** Wire activity per scheme spec (data + metadata). */
    std::map<std::string, BusStats> stats;

    /** Ones of @p spec normalized to the unencoded stream (1.0 = equal). */
    double normalizedOnes(const std::string &spec) const;

    /** Toggles of @p spec normalized to the baseline scheme's toggles. */
    double normalizedToggles(const std::string &spec) const;
};

/**
 * Evaluate every app in @p apps against every codec in @p specs with
 * @p tx_per_app transactions per application. The bus width is chosen per
 * app (32-bit for 32-byte GPU sectors, 64-bit for 64-byte CPU lines).
 *
 * Execution is batch-parallel: traces are materialized per app, then one
 * (app, spec) job per pair is fanned out with parallelFor. Each job owns
 * its codec and Bus, and results are merged into the per-app slots by
 * index, so the output is bit-identical for any thread count (including
 * a serial run) — parallelism never changes a figure.
 *
 * @param threads Worker count. 0 (default) resolves via the BXT_THREADS
 *        environment variable, falling back to the hardware concurrency;
 *        1 forces a serial run.
 */
std::vector<AppResult> evalSuite(std::vector<App> &apps,
                                 const std::vector<std::string> &specs,
                                 std::size_t tx_per_app,
                                 unsigned threads = 0);

/** Arithmetic-mean normalized ones of @p spec over @p results. */
double meanNormalizedOnes(const std::vector<AppResult> &results,
                          const std::string &spec);

/** Arithmetic-mean normalized toggles of @p spec over @p results. */
double meanNormalizedToggles(const std::vector<AppResult> &results,
                             const std::string &spec);

/**
 * Traffic-weighted normalized ones: total ones of @p spec over the whole
 * population divided by total unencoded ones. This is the aggregate the
 * energy model prices.
 */
double aggregateNormalizedOnes(const std::vector<AppResult> &results,
                               const std::string &spec);

/** Traffic-weighted normalized toggles (vs the baseline scheme). */
double aggregateNormalizedToggles(const std::vector<AppResult> &results,
                                  const std::string &spec);

/** Flags shared by every figure bench. */
struct BenchArgs
{
    /** `--golden PATH`: append this bench's endpoint lines. */
    std::string goldenPath;
    /** `--json PATH`: write the unified bench JSON document. */
    std::string jsonPath;
};

/**
 * Parse the common bench command line (`--golden`, `--json`, `--help`,
 * `--version`). Exits the process directly after `--help`/`--version`
 * (status 0) or on an unknown flag (status 2), so callers just use the
 * returned values.
 */
BenchArgs parseBenchArgs(int argc, char **argv, const std::string &bench,
                         const std::string &summary);

/**
 * Write the unified bench JSON document (satellite schema, version 1):
 *
 *   {"bench": <name>, "schema": 1, "results": [...], "metrics": {...}}
 *
 * @p fill_results is invoked inside the "results" array and emits one
 * value per row; "metrics" embeds the current telemetry snapshot (always
 * valid, `"enabled": false` when metrics are off). Returns false on I/O
 * failure (message on stderr).
 */
bool writeBenchJson(const std::string &path, const std::string &bench,
                    const std::function<void(JsonWriter &)> &fill_results);

/**
 * Emit one results-array row per (app, spec) pair: app metadata plus
 * absolute and normalized wire-activity numbers. The standard body for
 * suite-sweep benches' writeBenchJson callback.
 */
void writeAppResults(JsonWriter &writer,
                     const std::vector<AppResult> &results,
                     const std::vector<std::string> &specs);

} // namespace bxt

#endif // BXT_BENCH_SUITE_EVAL_H
