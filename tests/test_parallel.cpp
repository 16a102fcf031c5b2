/**
 * @file
 * Unit tests for the parallelFor fan-out, BXT_THREADS resolution and the
 * determinism guarantee of the batch-parallel suite evaluation engine:
 * a parallel evalSuite run must be bit-identical to a 1-thread run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "suite_eval.h"
#include "workloads/apps.h"

namespace bxt {
namespace {

/**
 * defaultThreadCount() with BXT_THREADS set to @p value, or unset when
 * @p value is null; the caller's BXT_THREADS is restored afterwards.
 */
unsigned
threadCountWithEnv(const char *value)
{
    const char *saved = std::getenv("BXT_THREADS");
    const std::string restore = saved != nullptr ? saved : "";
    if (value != nullptr)
        ::setenv("BXT_THREADS", value, 1);
    else
        ::unsetenv("BXT_THREADS");
    const unsigned threads = defaultThreadCount();
    if (saved != nullptr)
        ::setenv("BXT_THREADS", restore.c_str(), 1);
    else
        ::unsetenv("BXT_THREADS");
    return threads;
}

TEST(ParseThreadCount, AcceptsPositiveIntegers)
{
    EXPECT_EQ(threadCountWithEnv("1"), 1u);
    EXPECT_EQ(threadCountWithEnv("8"), 8u);
    EXPECT_EQ(threadCountWithEnv("256"), 256u);
}

TEST(DefaultThreadCount, HonorsEnvironmentOverride)
{
    EXPECT_EQ(threadCountWithEnv("3"), 3u);
    EXPECT_GE(threadCountWithEnv(nullptr), 1u);
}

TEST(DefaultThreadCount, FallsBackToHardwareOnGarbageZeroAndOutOfRange)
{
    const unsigned hw = threadCountWithEnv(nullptr);
    for (const char *bad : {"4x", "0", "-4", "257", "", "not-a-number",
                            "999999999999"})
        EXPECT_EQ(threadCountWithEnv(bad), hw) << "BXT_THREADS=" << bad;
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
        for (std::size_t count : {0u, 1u, 2u, 3u, 10007u}) {
            std::vector<std::atomic<int>> hits(count);
            parallelFor(count, threads, [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "index " << i << " of " << count << ", threads "
                    << threads;
        }
    }
}

TEST(ThreadPool, HandlesZeroAndTinyCounts)
{
    std::atomic<int> calls{0};
    parallelFor(0, 4, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    parallelFor(1, 4, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 1);
    parallelFor(2, 4, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 3);
    parallelFor(5, 0, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 8);
}

TEST(ParallelFor, OneThreadRunsEveryBodyOnTheCallingThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(64);
    parallelFor(ran_on.size(), 1,
                [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    for (const std::thread::id id : ran_on)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, PropagatesTheFirstException)
{
    for (unsigned threads : {1u, 4u}) {
        std::atomic<int> started{0};
        EXPECT_THROW(parallelFor(64, threads,
                                 [&](std::size_t i) {
                                     started.fetch_add(1);
                                     if (i == 13)
                                         throw std::runtime_error("boom");
                                 }),
                     std::runtime_error);
        if (threads == 1)
            EXPECT_EQ(started.load(), 14); // No index starts after 13.
        else
            EXPECT_GE(started.load(), 14);
        // A later call runs normally after a failed one.
        std::atomic<int> calls{0};
        parallelFor(8, threads, [&](std::size_t) { calls.fetch_add(1); });
        EXPECT_EQ(calls.load(), 8);
    }
}

/** Small app sample spanning both suites (GPU 32 B and CPU 64 B). */
std::vector<App>
sampleApps()
{
    std::vector<App> gpu = buildGpuSuite();
    std::vector<App> cpu = buildCpuSuite();
    std::vector<App> sample;
    sample.push_back(std::move(gpu[0]));
    sample.push_back(std::move(gpu[41]));
    sample.push_back(std::move(gpu[120]));
    sample.push_back(std::move(cpu[0]));
    sample.push_back(std::move(cpu[7]));
    return sample;
}

TEST(SuiteEvalDeterminism, ParallelMatchesSerialBitForBit)
{
    const std::vector<std::string> specs = {"baseline", "universal3+zdr",
                                            "universal3+zdr|dbi1", "bd"};

    std::vector<App> serial_apps = sampleApps();
    const auto serial = evalSuite(serial_apps, specs, 96, /*threads=*/1);

    for (unsigned threads : {2u, 5u, 8u}) {
        std::vector<App> apps = sampleApps();
        const auto parallel = evalSuite(apps, specs, 96, threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t a = 0; a < serial.size(); ++a) {
            EXPECT_EQ(parallel[a].app, serial[a].app);
            EXPECT_EQ(parallel[a].rawOnes, serial[a].rawOnes);
            EXPECT_EQ(parallel[a].mixedRatio, serial[a].mixedRatio);
            ASSERT_EQ(parallel[a].stats.size(), serial[a].stats.size());
            for (const auto &[spec, stats] : serial[a].stats) {
                ASSERT_TRUE(parallel[a].stats.count(spec));
                EXPECT_EQ(parallel[a].stats.at(spec), stats)
                    << parallel[a].app << " / " << spec << " with "
                    << threads << " threads";
            }
        }
    }
}

TEST(SuiteEvalDeterminism, RawOnesIsAPropertyOfTheTraceNotTheSpecs)
{
    // rawOnes must not depend on which specs run (it is computed once
    // per app from the unencoded trace).
    std::vector<App> apps_a = sampleApps();
    std::vector<App> apps_b = sampleApps();
    const auto with_one = evalSuite(apps_a, {"baseline"}, 64, 1);
    const auto with_two =
        evalSuite(apps_b, {"baseline", "dbi1"}, 64, 2);
    ASSERT_EQ(with_one.size(), with_two.size());
    for (std::size_t a = 0; a < with_one.size(); ++a) {
        EXPECT_GT(with_one[a].rawOnes, 0u);
        EXPECT_EQ(with_one[a].rawOnes, with_two[a].rawOnes);
    }
}

} // namespace
} // namespace bxt
