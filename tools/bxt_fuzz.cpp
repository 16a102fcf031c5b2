/**
 * @file
 * Differential fuzzing CLI: sweeps codec specs over structured transaction
 * generators, checks every invariant in verify/invariants.h, and shrinks
 * failing inputs into tests/corpus/. Exit 0 when every invariant held.
 *
 * Usage:
 *   bxt_fuzz [--iters N] [--seconds S] [--seed HEX] [--spec SPEC ...]
 *            [--wires W ...] [--corpus DIR] [--idle F] [--no-shrink]
 *            [--batch [--batch-streams N] [--batch-tx N]] [--frames N]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.h"
#include "server/wire.h"
#include "verify/batch_check.h"
#include "verify/differential.h"

int
main(int argc, char **argv)
{
    using namespace bxt::verify;

    FuzzOptions options;
    std::vector<unsigned> wires;
    bxt::Cli cli("bxt_fuzz",
                 "differential fuzzer: sweep codec specs over structured "
                 "generators and check every invariant");
    cli.add("--iters", "N",
            "transactions per (spec, wires) unit (default 20000)",
            [&](const std::string &v) {
                options.iterationsPerSpec =
                    std::strtoull(v.c_str(), nullptr, 0);
            });
    cli.add("--seconds", "S",
            "wall-clock budget; overrides --iters when > 0",
            [&](const std::string &v) {
                options.secondsBudget = std::strtod(v.c_str(), nullptr);
            });
    cli.add("--seed", "X", "campaign seed (hex or decimal)",
            [&](const std::string &v) {
                options.seed = std::strtoull(v.c_str(), nullptr, 0);
            });
    cli.add("--spec", "S",
            "spec to fuzz; repeatable (default: canonical set)",
            [&](const std::string &v) { options.specs.push_back(v); });
    cli.add("--wires", "W",
            "channel width in bits; repeatable (default: 32 64)",
            [&](const std::string &v) {
                wires.push_back(static_cast<unsigned>(
                    std::strtoul(v.c_str(), nullptr, 0)));
            });
    cli.add("--corpus", "DIR",
            "write shrunken repros here (default: off)",
            [&](const std::string &v) { options.corpusDir = v; });
    cli.add("--idle", "F", "bus idle-gap fraction (default 0.3)",
            [&](const std::string &v) {
                options.idleFraction = std::strtod(v.c_str(), nullptr);
            });
    cli.addFlag("--no-shrink", "keep failing inputs unminimized",
                [&] { options.shrinkFailures = false; });
    std::uint64_t frame_iters = 0;
    cli.add("--frames", "N",
            "also fuzz the bxtd wire-frame parser for N iterations",
            [&](const std::string &v) {
                frame_iters = std::strtoull(v.c_str(), nullptr, 0);
            });
    bool batch_mode = false;
    BatchFuzzOptions batch_options;
    cli.addFlag("--batch",
                "also fuzz batched encoding against per-transaction encoding",
                [&] { batch_mode = true; });
    cli.add("--batch-streams", "N",
            "generator streams per (spec, wires, batch) unit (default 12)",
            [&](const std::string &v) {
                batch_options.streamsPerSpec =
                    std::strtoull(v.c_str(), nullptr, 0);
            });
    cli.add("--batch-tx", "N",
            "transactions per batch-mode stream (default 96)",
            [&](const std::string &v) {
                batch_options.txPerStream =
                    std::strtoull(v.c_str(), nullptr, 0);
            });
    if (!cli.parse(argc, argv))
        return cli.exitCode();

    bool frames_ok = true;
    if (frame_iters > 0) {
        const bxt::wire::FrameFuzzReport frames =
            bxt::wire::fuzzFrameParser(options.seed, frame_iters);
        std::printf("frame parser: %llu iterations, %llu clean frames "
                    "round-tripped, %llu corruptions typed, %zu failure(s)\n",
                    static_cast<unsigned long long>(frames.iterations),
                    static_cast<unsigned long long>(frames.framesParsed),
                    static_cast<unsigned long long>(frames.errorsTyped),
                    frames.failures.size());
        for (const std::string &failure : frames.failures)
            std::printf("FRAME FAIL %s\n", failure.c_str());
        frames_ok = frames.ok();
    }
    if (!wires.empty())
        options.dataWires = wires;
    options.progress = [](const std::string &line) {
        std::printf("  %s\n", line.c_str());
    };

    bool batch_ok = true;
    if (batch_mode) {
        batch_options.specs = options.specs;
        batch_options.seed = options.seed;
        batch_options.idleFraction = options.idleFraction;
        if (!wires.empty())
            batch_options.dataWires = wires;
        batch_options.progress = options.progress;
        const BatchFuzzReport batch = runBatchDifferentialFuzz(batch_options);
        std::printf("batch kernels: %llu transactions checked against "
                    "per-transaction encoding, %zu failure(s)\n",
                    static_cast<unsigned long long>(
                        batch.transactionsChecked),
                    batch.failures.size());
        for (const BatchFuzzFailure &failure : batch.failures)
            std::printf("BATCH FAIL %s wires=%u batch=%zu seed=0x%llx\n"
                        "  invariant: %s\n  detail: %s\n",
                        failure.spec.c_str(), failure.dataWires,
                        failure.batchTx,
                        static_cast<unsigned long long>(failure.seed),
                        failure.violation.invariant.c_str(),
                        failure.violation.detail.c_str());
        batch_ok = batch.ok();
    }

    const FuzzReport report = runDifferentialFuzz(options);
    std::printf("%llu transactions checked, %zu failure(s)\n",
                static_cast<unsigned long long>(report.transactionsChecked),
                report.failures.size());
    for (const FuzzFailure &failure : report.failures) {
        std::printf("FAIL %s wires=%u seed=0x%llx\n  invariant: %s\n"
                    "  detail: %s\n  original: %s\n  shrunk:   %s%s\n",
                    failure.spec.c_str(), failure.dataWires,
                    static_cast<unsigned long long>(failure.seed),
                    failure.violation.invariant.c_str(),
                    failure.violation.detail.c_str(),
                    failure.original.toHex().c_str(),
                    failure.shrunk.toHex().c_str(),
                    failure.reproducesFresh ? "" : " (stream-state dependent)");
        if (!failure.reproPath.empty())
            std::printf("  repro: %s\n", failure.reproPath.c_str());
    }
    return (report.ok() && frames_ok && batch_ok) ? 0 : 1;
}
