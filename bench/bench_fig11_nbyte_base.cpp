/**
 * @file
 * Reproduces paper Figure 11: per-application normalized `1` values for
 * 2-/4-/8-byte Base+XOR Transfer with ZDR, with applications grouped by
 * their most beneficial base size. Paper averages: 2B 93.5 %, 4B 70.3 %,
 * 8B 70.4 % (i.e. 6.5 / 29.7 / 29.6 % reductions).
 */

#include <algorithm>
#include <cstdio>

#include "common/table.h"
#include "suite_eval.h"
#include "verify/golden.h"
#include "workloads/apps.h"

int
main(int argc, char **argv)
{
    using namespace bxt;

    const BenchArgs args = parseBenchArgs(
        argc, argv, "bench_fig11_nbyte_base",
        "Figure 11: 2-/4-/8-byte Base+XOR Transfer normalized ones");

    std::printf("%s", banner("Figure 11: 2-/4-/8-byte Base+XOR Transfer "
                             "(normalized # of 1 values)").c_str());

    std::vector<App> apps = buildGpuSuite();
    const std::vector<std::string> specs = {"xor2+zdr", "xor4+zdr",
                                            "xor8+zdr"};
    std::vector<AppResult> results =
        evalSuite(apps, specs, defaultTraceLength);

    // Group apps by the base size that benefits them most, then sort each
    // group by the winning scheme's reduction, mirroring the plot order.
    auto best_spec = [&](const AppResult &r) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < specs.size(); ++i) {
            if (r.normalizedOnes(specs[i]) < r.normalizedOnes(specs[best]))
                best = i;
        }
        return best;
    };
    std::stable_sort(results.begin(), results.end(),
                     [&](const AppResult &a, const AppResult &b) {
                         const std::size_t ba = best_spec(a);
                         const std::size_t bb = best_spec(b);
                         if (ba != bb)
                             return ba < bb;
                         return a.normalizedOnes(specs[ba]) <
                                b.normalizedOnes(specs[bb]);
                     });

    Table table({"application", "family", "2B %", "4B %", "8B %", "best"});
    for (const AppResult &r : results) {
        table.addRow({r.app, r.family,
                      Table::cell(r.normalizedOnes("xor2+zdr") * 100.0),
                      Table::cell(r.normalizedOnes("xor4+zdr") * 100.0),
                      Table::cell(r.normalizedOnes("xor8+zdr") * 100.0),
                      specs[best_spec(r)]});
    }
    std::printf("%s", table.render().c_str());

    Table avg({"scheme", "measured avg %", "paper avg %"});
    avg.addRow({"2B XOR+ZDR",
                Table::cell(meanNormalizedOnes(results, "xor2+zdr") * 100.0),
                "93.5"});
    avg.addRow({"4B XOR+ZDR",
                Table::cell(meanNormalizedOnes(results, "xor4+zdr") * 100.0),
                "70.3"});
    avg.addRow({"8B XOR+ZDR",
                Table::cell(meanNormalizedOnes(results, "xor8+zdr") * 100.0),
                "70.4"});
    std::printf("%s", avg.render().c_str());

    if (!args.goldenPath.empty()) {
        std::vector<verify::Endpoint> endpoints;
        for (const std::string &spec : specs) {
            endpoints.push_back({"fig11", spec, defaultTraceLength,
                                 meanNormalizedOnes(results, spec)});
        }
        if (!verify::appendEndpoints(args.goldenPath, endpoints)) {
            std::fprintf(stderr, "cannot append endpoints to %s\n",
                         args.goldenPath.c_str());
            return 1;
        }
        std::printf("\nappended %zu endpoint(s) to %s\n", endpoints.size(),
                    args.goldenPath.c_str());
    }
    if (!args.jsonPath.empty() &&
        !writeBenchJson(args.jsonPath, "fig11", [&](JsonWriter &w) {
            writeAppResults(w, results, specs);
        }))
        return 1;
    return 0;
}
