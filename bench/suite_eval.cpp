#include "suite_eval.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "channel/channel_eval.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/parallel.h"
#include "core/codec_factory.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "telemetry/trace.h"

namespace bxt {

double
AppResult::normalizedOnes(const std::string &spec) const
{
    const auto it = stats.find(spec);
    BXT_ASSERT(it != stats.end());
    if (rawOnes == 0)
        return 1.0;
    return static_cast<double>(it->second.ones()) /
           static_cast<double>(rawOnes);
}

double
AppResult::normalizedToggles(const std::string &spec) const
{
    const auto it = stats.find(spec);
    const auto base = stats.find("baseline");
    BXT_ASSERT(it != stats.end() && base != stats.end());
    if (base->second.toggles() == 0)
        return 1.0;
    return static_cast<double>(it->second.toggles()) /
           static_cast<double>(base->second.toggles());
}

std::vector<AppResult>
evalSuite(std::vector<App> &apps, const std::vector<std::string> &specs,
          std::size_t tx_per_app, unsigned threads, std::size_t batch_tx)
{
    const std::size_t n_apps = apps.size();
    const std::size_t n_specs = specs.size();

    if (telemetry::metricsEnabled()) {
        telemetry::counter("bxt.suite.evals").add(1);
        telemetry::gauge("bxt.suite.apps").set(
            static_cast<double>(n_apps));
        telemetry::gauge("bxt.suite.specs").set(
            static_cast<double>(n_specs));
    }

    // The work is fanned out in two deterministic stages; every job
    // writes only its own index's slot, so the merged output is
    // bit-identical to a serial run regardless of thread count.
    //
    // Stage 1: materialize each app's trace (apps own independent
    // seeded pattern state) and fill the per-app metadata once —
    // rawOnes is a property of the *unencoded* trace, not of any spec.
    std::vector<std::vector<Transaction>> traces(n_apps);
    std::vector<AppResult> results(n_apps);
    {
        telemetry::ScopedSpan span("suite.trace-gen", "suite");
        parallelFor(n_apps, threads, [&](std::size_t a) {
            traces[a] = generateTrace(apps[a], tx_per_app);
            AppResult &result = results[a];
            result.app = apps[a].name;
            result.category = apps[a].category;
            result.family = apps[a].family;
            result.mixedRatio = mixedDataRatio(traces[a]);
            std::uint64_t raw = 0;
            for (const Transaction &tx : traces[a])
                raw += tx.ones();
            result.rawOnes = raw;
        });
    }

    // Stage 2: one job per (app, spec) pair. Each job owns its codec and
    // Bus, so no channel or codec state is shared between workers.
    std::vector<BusStats> job_stats(n_apps * n_specs);
    {
        telemetry::ScopedSpan span("suite.sweep", "suite");
        parallelFor(n_apps * n_specs, threads, [&](std::size_t j) {
            const std::size_t a = j / n_specs;
            const std::size_t s = j % n_specs;
            const auto bus_width =
                static_cast<unsigned>(apps[a].txBytes == 64 ? 64 : 32);
            CodecPtr codec = makeCodec(specs[s], bus_width / 8);
            // Workers drive the batch hot path; BusStats are
            // field-identical for every batch size (see channel_eval.h),
            // so the sweep results and golden figures do not depend on it.
            job_stats[j] = evalCodecOnStream(*codec, traces[a], bus_width,
                                             0.3, batch_tx)
                               .stats;
        });
    }

    // Merge by index (order-independent assembly).
    for (std::size_t a = 0; a < n_apps; ++a) {
        for (std::size_t s = 0; s < n_specs; ++s)
            results[a].stats.emplace(specs[s], job_stats[a * n_specs + s]);
    }
    return results;
}

double
meanNormalizedOnes(const std::vector<AppResult> &results,
                   const std::string &spec)
{
    if (results.empty())
        return 1.0;
    double sum = 0.0;
    for (const AppResult &r : results)
        sum += r.normalizedOnes(spec);
    return sum / static_cast<double>(results.size());
}

double
aggregateNormalizedOnes(const std::vector<AppResult> &results,
                        const std::string &spec)
{
    std::uint64_t total = 0;
    std::uint64_t raw = 0;
    for (const AppResult &r : results) {
        total += r.stats.at(spec).ones();
        raw += r.rawOnes;
    }
    if (raw == 0)
        return 1.0;
    return static_cast<double>(total) / static_cast<double>(raw);
}

double
aggregateNormalizedToggles(const std::vector<AppResult> &results,
                           const std::string &spec)
{
    std::uint64_t total = 0;
    std::uint64_t base = 0;
    for (const AppResult &r : results) {
        total += r.stats.at(spec).toggles();
        base += r.stats.at("baseline").toggles();
    }
    if (base == 0)
        return 1.0;
    return static_cast<double>(total) / static_cast<double>(base);
}

double
meanNormalizedToggles(const std::vector<AppResult> &results,
                      const std::string &spec)
{
    if (results.empty())
        return 1.0;
    double sum = 0.0;
    for (const AppResult &r : results)
        sum += r.normalizedToggles(spec);
    return sum / static_cast<double>(results.size());
}

BenchArgs
parseBenchArgs(int argc, char **argv, const std::string &bench,
               const std::string &summary)
{
    BenchArgs args;
    Cli cli(bench, summary);
    cli.add("--golden", "PATH",
            "append this bench's endpoint lines to PATH",
            [&](const std::string &v) { args.goldenPath = v; });
    cli.add("--json", "PATH", "write the unified bench JSON to PATH",
            [&](const std::string &v) { args.jsonPath = v; });
    if (!cli.parse(argc, argv))
        std::exit(cli.exitCode());
    return args;
}

bool
writeBenchJson(const std::string &path, const std::string &bench,
               const std::function<void(JsonWriter &)> &fill_results,
               const BenchCost *cost)
{
    JsonWriter writer(/*pretty=*/true);
    writer.beginObject();
    writer.kv("bench", bench);
    writer.kv("schema", 1);
    writer.beginArray("results");
    fill_results(writer);
    writer.endArray();
    if (cost != nullptr) {
        writer.beginObject("cost");
        writer.kv("cpu_s", cost->cpuSeconds);
        writer.kv("units", cost->units);
        writer.kv("unit", cost->unit);
        writer.endObject();
    }
    writer.kvRaw("metrics", telemetry::snapshotJson(/*pretty=*/false));
    writer.endObject();

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write bench JSON to %s\n",
                     path.c_str());
        return false;
    }
    out << writer.str() << "\n";
    return static_cast<bool>(out);
}

void
writeAppResults(JsonWriter &writer, const std::vector<AppResult> &results,
                const std::vector<std::string> &specs)
{
    for (const AppResult &r : results) {
        for (const std::string &spec : specs) {
            const BusStats &stats = r.stats.at(spec);
            writer.beginObject();
            writer.kv("app", r.app);
            writer.kv("family", r.family);
            writer.kv("spec", spec);
            writer.kv("raw_ones", r.rawOnes);
            writer.kv("ones", stats.ones());
            writer.kv("toggles", stats.toggles());
            writer.kv("normalized_ones", r.normalizedOnes(spec));
            if (r.stats.count("baseline") != 0)
                writer.kv("normalized_toggles",
                          r.normalizedToggles(spec));
            writer.endObject();
        }
    }
}

} // namespace bxt
