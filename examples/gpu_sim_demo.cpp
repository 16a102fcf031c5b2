/**
 * @file
 * Full-system demo: run a GPU kernel through the sectored LLC and the
 * encoding memory controller of a Titan X (Pascal)-class system, and
 * compare DRAM energy between the conventional interface and Universal
 * Base+XOR Transfer with ZDR.
 *
 * Usage: gpu_sim_demo [kernel-index 0..4] [codec-spec]
 */

#include <cstdio>
#include <string>

#include "common/parse.h"
#include "gpusim/gpu_system.h"

int
main(int argc, char **argv)
{
    using namespace bxt;

    const std::string codec =
        argc >= 3 ? argv[2] : "universal3+zdr";

    std::vector<GpuKernel> kernels = makeReferenceKernels(42);
    std::size_t kernel_index = 0;
    if (argc >= 2 && !parseUnsigned(argv[1], /*allow_hex=*/false,
                                    kernel_index, kernels.size() - 1)) {
        std::fprintf(stderr, "kernel index must be 0..%zu\n",
                     kernels.size() - 1);
        return 1;
    }

    std::printf("System configuration (paper Table I):\n%s\n",
                GpuConfig::titanXPascal().report().c_str());

    double baseline_energy = 0.0;
    for (const std::string &spec : {std::string("baseline"), codec}) {
        GpuConfig config = GpuConfig::titanXPascal();
        config.codecSpec = spec;
        GpuSystem system(config);
        // Fresh kernel per run so both schemes see identical traffic.
        std::vector<GpuKernel> fresh = makeReferenceKernels(42);
        const GpuRunReport report = system.run(fresh[kernel_index]);
        std::printf("%s\n", report.report().c_str());
        if (spec == "baseline")
            baseline_energy = report.energy.total();
        else
            std::printf("DRAM energy saved vs baseline: %.1f %%\n",
                        100.0 * (1.0 - report.energy.total() /
                                           baseline_energy));
    }
    return 0;
}
