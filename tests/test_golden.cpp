/**
 * @file
 * Golden-vector regression suite: every checked-in file in tests/golden/
 * must exactly match what the current core codecs and Bus produce, and the
 * pinned figure endpoints must match a fresh evaluation bit-for-bit. Any
 * intentional encoding change regenerates the corpus with tools/gen_golden
 * and reviews the diff.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "suite_eval.h"
#include "temp_path.h"
#include "verify/golden.h"
#include "workloads/apps.h"

namespace bxt {
namespace {

using verify::Endpoint;
using verify::checkGoldenFile;
using verify::goldenFileName;
using verify::goldenSpecs;
using verify::loadEndpoints;

std::string
goldenPath(const std::string &file)
{
    return std::string(BXT_GOLDEN_DIR) + "/" + file;
}

/** Every golden vector file re-verifies against the current build. */
TEST(Golden, AllVectorFilesMatchCurrentImplementation)
{
    std::size_t files = 0;
    for (unsigned wires : {32u, 64u}) {
        for (const std::string &spec : goldenSpecs(wires)) {
            const std::string path =
                goldenPath(goldenFileName(spec, wires));
            const std::vector<std::string> diffs = checkGoldenFile(path);
            ++files;
            for (const std::string &diff : diffs)
                ADD_FAILURE() << diff;
        }
    }
    EXPECT_GE(files, 17u);
}

/**
 * The corpus directory holds exactly the files goldenSpecs() implies (plus
 * endpoints.txt): a stray or missing file means gen_golden and the spec
 * table drifted apart.
 */
TEST(Golden, CorpusDirectoryMatchesSpecTable)
{
    std::set<std::string> expected = {"endpoints.txt"};
    for (unsigned wires : {32u, 64u}) {
        for (const std::string &spec : goldenSpecs(wires))
            expected.insert(goldenFileName(spec, wires));
    }

    std::set<std::string> present;
    for (const auto &entry :
         std::filesystem::directory_iterator(BXT_GOLDEN_DIR)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".txt") {
            present.insert(entry.path().filename().string());
        }
    }
    EXPECT_EQ(present, expected);
}

/**
 * The pinned fig11/12/14 endpoints match a fresh evaluation. The suite
 * sweep is bit-deterministic for any thread count, so the comparison is
 * near-exact; the epsilon only absorbs the text round-trip through %.9f.
 */
TEST(Golden, FigureEndpointsMatchRecomputation)
{
    std::vector<Endpoint> endpoints;
    for (const std::string &error :
         loadEndpoints(goldenPath("endpoints.txt"), endpoints))
        ADD_FAILURE() << error;
    ASSERT_GE(endpoints.size(), 6u);

    std::set<std::string> spec_set;
    std::size_t tx_per_app = 0;
    for (const Endpoint &endpoint : endpoints) {
        spec_set.insert(endpoint.spec);
        ASSERT_GT(endpoint.txPerApp, 0u);
        if (tx_per_app == 0)
            tx_per_app = endpoint.txPerApp;
        ASSERT_EQ(endpoint.txPerApp, tx_per_app)
            << "endpoints pinned at mixed transaction counts";
    }

    std::vector<App> apps = buildGpuSuite();
    const std::vector<std::string> specs(spec_set.begin(), spec_set.end());
    const std::vector<AppResult> results =
        evalSuite(apps, specs, tx_per_app);

    for (const Endpoint &endpoint : endpoints) {
        const double fresh = meanNormalizedOnes(results, endpoint.spec);
        EXPECT_NEAR(fresh, endpoint.value, 1e-9)
            << endpoint.fig << " " << endpoint.spec
            << " drifted: pinned " << endpoint.value << " fresh " << fresh;
    }
}

/** Write @p text to a fresh temp file named after the running test. */
std::string
writeTemp(const std::string &name, const std::string &text)
{
    const std::string path = uniqueTempPath(name).string();
    std::ofstream(path) << text;
    return path;
}

/**
 * A line that does not parse is a diff naming it, never an exception or
 * a silently misread value (`seed 0xZZ` used to read as seed 0).
 */
TEST(Golden, MalformedLinesAreReportedAsDiffs)
{
    const std::string header =
        "spec xor4+zdr\nwires 32\nseed 0x1\ncount 1\n";
    const std::string vector =
        "vector 0\nin 00000000000000000000000000000000"
        "00000000000000000000000000000000\n"
        "enc 00000000000000400000004000000040"
        "00000040000000400000004000000040\n"
        "meta - wires 0\n"
        "stat ones=7 toggles=1 metaOnes=0 metaToggles=0\n";
    const std::string clean = writeTemp("clean.txt", header + vector);
    verify::GoldenFile golden;
    EXPECT_TRUE(verify::loadGoldenFile(clean, golden).empty());
    EXPECT_EQ(golden.vectors.size(), 1u);
    EXPECT_TRUE(checkGoldenFile(clean).empty());
    std::filesystem::remove(clean);

    const struct
    {
        const char *from, *to;
    } edits[] = {{"vector 0", "vector x"},
                 {"stat ones=7", "stat ones=q"},
                 {"seed 0x1", "seed 0xZZ"},
                 {"wires 32", "wires 32x"},
                 {"meta - wires 0", "meta - wires -1"}};
    for (const auto &edit : edits) {
        std::string text = header + vector;
        text.replace(text.find(edit.from), std::string(edit.from).size(),
                     edit.to);
        const std::string path = writeTemp("bad.txt", text);
        const std::vector<std::string> diffs = checkGoldenFile(path);
        ASSERT_EQ(diffs.size(), 1u) << edit.to;
        EXPECT_NE(diffs[0].find(edit.to), std::string::npos) << diffs[0];
        std::filesystem::remove(path);
    }
}

/** An endpoint line that does not parse is an error, not a skipped pin. */
TEST(Golden, MalformedEndpointLinesAreErrors)
{
    const std::string good = "endpoint fig11 xor4+zdr tx=512 v=0.5\n";
    for (const char *bad :
         {"endpoint fig11 xor4+zdr tx=abc v=0.5",
          "endpoint fig11 xor4+zdr tx=512 v=0.5x",
          "endpoint fig11 xor4+zdr tx=512 v=nan",
          "endpoint fig11 xor4+zdr tx=-1 v=0.5",
          "endpoint fig11 xor4+zdr tx=512",
          "endpoint fig11 xor4+zdr tx=512 v=0.5 extra",
          "endpiont fig11 xor4+zdr tx=512 v=0.5"}) {
        const std::string path =
            writeTemp("endpoints.txt", "# pinned\n" + good + bad + "\n");
        std::vector<Endpoint> endpoints;
        const std::vector<std::string> errors = loadEndpoints(path, endpoints);
        ASSERT_EQ(errors.size(), 1u) << bad;
        EXPECT_NE(errors[0].find(":3: "), std::string::npos) << errors[0];
        EXPECT_NE(errors[0].find(bad), std::string::npos) << errors[0];
        ASSERT_EQ(endpoints.size(), 1u);
        EXPECT_EQ(endpoints[0].txPerApp, 512u);
        EXPECT_EQ(endpoints[0].value, 0.5);
        std::filesystem::remove(path);
    }
    std::vector<Endpoint> endpoints;
    EXPECT_EQ(loadEndpoints(goldenPath("no-such-file.txt"), endpoints).size(),
              1u);
}

} // namespace
} // namespace bxt
