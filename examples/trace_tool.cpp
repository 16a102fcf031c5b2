/**
 * @file
 * Trace utility: capture synthetic workload traces to .bxtrace files and
 * analyze existing trace files (from this tool or an external simulator)
 * under every encoding scheme.
 *
 * Usage:
 *   trace_tool gen <app-name> <out.bxtrace> [transactions]
 *   trace_tool stats <in.bxtrace>
 *   trace_tool list
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "channel/channel_eval.h"
#include "common/parse.h"
#include "common/table.h"
#include "core/codec_factory.h"
#include "workloads/apps.h"
#include "workloads/trace.h"

namespace {

using namespace bxt;

int
listApps()
{
    std::vector<App> gpu = buildGpuSuite();
    std::vector<App> cpu = buildCpuSuite();
    std::printf("%zu GPU applications:\n", gpu.size());
    for (const App &app : gpu)
        std::printf("  %-24s %-10s %s\n", app.name.c_str(),
                    toString(app.category).c_str(), app.family.c_str());
    std::printf("%zu CPU applications:\n", cpu.size());
    for (const App &app : cpu)
        std::printf("  %-24s %-10s %s\n", app.name.c_str(),
                    toString(app.category).c_str(), app.family.c_str());
    return 0;
}

App *
findApp(std::vector<App> &suite, const std::string &name)
{
    for (App &app : suite)
        if (app.name == name)
            return &app;
    return nullptr;
}

int
generate(const std::string &name, const std::string &path,
         std::size_t count)
{
    std::vector<App> gpu = buildGpuSuite();
    std::vector<App> cpu = buildCpuSuite();
    App *app = findApp(gpu, name);
    if (app == nullptr)
        app = findApp(cpu, name);
    if (app == nullptr) {
        std::fprintf(stderr, "unknown app '%s' (see: trace_tool list)\n",
                     name.c_str());
        return 1;
    }
    Trace trace;
    trace.name = app->name;
    trace.txs = generateTrace(*app, count);
    if (!saveTrace(trace, path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %zu %zu-byte transactions of '%s' to %s\n",
                trace.txs.size(), trace.txBytes(), trace.name.c_str(),
                path.c_str());
    return 0;
}

int
stats(const std::string &path)
{
    const Trace trace = loadTrace(path);
    if (trace.txs.empty()) {
        std::fprintf(stderr, "no transactions in %s\n", path.c_str());
        return 1;
    }
    const auto bus_width =
        static_cast<unsigned>(trace.txBytes() == 64 ? 64 : 32);

    std::printf("%s", banner("Trace '" + trace.name + "': " +
                             std::to_string(trace.txs.size()) +
                             " transactions of " +
                             std::to_string(trace.txBytes()) + " bytes")
                          .c_str());
    std::printf("mixed zero/non-zero transactions: %.1f %%\n\n",
                mixedDataRatio(trace.txs) * 100.0);

    Table table({"scheme", "ones %", "toggles %"});
    std::uint64_t baseline_toggles = 0;
    for (const std::string &spec : paperSchemeSpecs()) {
        CodecPtr codec = makeCodec(spec, bus_width / 8);
        const ChannelEvalResult result =
            evalCodecOnStream(*codec, trace.txs, bus_width);
        if (spec == "baseline")
            baseline_toggles = result.stats.toggles();
        const double toggles_pct =
            baseline_toggles == 0
                ? 100.0
                : 100.0 * static_cast<double>(result.stats.toggles()) /
                      static_cast<double>(baseline_toggles);
        table.addRow({spec, Table::cell(result.normalizedOnes() * 100.0),
                      Table::cell(toggles_pct)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "list") == 0)
        return listApps();
    std::size_t count = bxt::defaultTraceLength;
    if (argc >= 4 && std::strcmp(argv[1], "gen") == 0 &&
        (argc < 5 ||
         bxt::parseUnsigned(argv[4], /*allow_hex=*/false, count)))
        return generate(argv[2], argv[3], count);
    if (argc >= 3 && std::strcmp(argv[1], "stats") == 0)
        return stats(argv[2]);

    std::fprintf(stderr,
                 "usage:\n"
                 "  trace_tool list\n"
                 "  trace_tool gen <app-name> <out.bxtrace> [count]\n"
                 "  trace_tool stats <in.bxtrace>\n");
    return 1;
}
