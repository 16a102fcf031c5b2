/**
 * @file
 * The built binaries, run as a user runs them: every tool refuses a
 * malformed option value, a live bxtd serves and drains over both socket
 * families, and the traced benches write valid, complete traces. The
 * binaries' paths come from compile definitions (tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/json.h"
#include "run_process.h"
#include "server/net.h"
#include "server/wire.h"
#include "temp_path.h"

namespace bxt {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

/** Generous for a sanitized binary; a refusal takes milliseconds. */
constexpr seconds kToolBound{10};

/**
 * A socket path under the temp directory, unique per process and call;
 * uniqueTempPath's long case names would overflow sun_path (108 bytes).
 */
std::filesystem::path
socketPath()
{
    static int next = 0;
    return std::filesystem::temp_directory_path() /
           ("bxt_tools_" + std::to_string(::getpid()) + "_" +
            std::to_string(next++) + ".sock");
}

std::string
readText(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

// --- Malformed option values --------------------------------------------

/**
 * A tool run with one malformed option value. It must exit 2, do
 * nothing (stdout stays empty) and name the flag on stderr as
 * "bad FLAG ", plus @c also when set.
 */
struct BadValue
{
    const char *name;
    const char *bin;
    std::vector<std::string> args;
    const char *flag;
    std::vector<std::string> env = {};
    const char *also = "";
};

const BadValue kBadValues[] = {
    {"FuzzIters10O", BXT_FUZZ_BIN, {"--iters", "10O"}, "--iters"},
    {"FuzzSeconds1x", BXT_FUZZ_BIN, {"--seconds", "1x"}, "--seconds"},
    {"LoadgenDepth4x", BXT_LOADGEN_BIN, {"--unix", "none", "--depth", "4x"},
     "--depth"},
    {"LoadgenWires48", BXT_LOADGEN_BIN, {"--unix", "none", "--wires", "48"},
     "--wires"},
    {"ClientWires3x", BXT_CLIENT_BIN,
     {"--unix", "none", "--wires", "3x", "--mode", "ping"}, "--wires"},
    {"ClientWires48", BXT_CLIENT_BIN,
     {"--unix", "none", "--wires", "48", "--mode", "ping"}, "--wires"},
    {"TopIntervalMs1O", BXT_TOP_BIN, {"--unix", "none", "--interval-ms", "1O"},
     "--interval-ms"},
    {"ReportAssertOverhead2x", BXT_REPORT_BIN,
     {"--assert-overhead", "2x", "a.json", "b.json"}, "--assert-overhead"},
    {"BenchBatchMinSpeedup1OOO", BENCH_CODEC_THROUGHPUT_BIN,
     {"--batch-min-speedup", "1OOO"}, "--batch-min-speedup"},
    // A forced level leaves the SIMD sweep one level: the gate has
    // nothing to compare, so the bench refuses it before any sweep.
    {"BenchSimdMinSpeedupWithSimdWord", BENCH_CODEC_THROUGHPUT_BIN,
     {"--simd-min-speedup", "2"}, "--simd-min-speedup", {"BXT_SIMD=word"},
     "BXT_SIMD=word"},
    {"BenchSimdMinSpeedupWithSimdAvx2", BENCH_CODEC_THROUGHPUT_BIN,
     {"--simd-min-speedup", "2"}, "--simd-min-speedup", {"BXT_SIMD=avx2"},
     "BXT_SIMD=avx2"},
    {"BxtdShards2x", BXTD_BIN, {"--shards=2x"}, "--shards"},
    {"BxtdShards0", BXTD_BIN, {"--shards=0"}, "--shards"},
    {"BxtdShards257", BXTD_BIN, {"--shards=257"}, "--shards"},
    {"BxtdIdleTimeoutAbc", BXTD_BIN, {"--idle-timeout=abc"}, "--idle-timeout"},
    {"BxtdIdleTimeoutMinus2", BXTD_BIN, {"--idle-timeout=-2"},
     "--idle-timeout"},
    {"BxtdMaxPendingAbc", BXTD_BIN, {"--max-pending=abc"}, "--max-pending"},
    {"BxtdMaxPending0", BXTD_BIN, {"--max-pending=0"}, "--max-pending"},
};

/** The row's name, which ctest shows as the case's name. */
void
PrintTo(const BadValue &row, std::ostream *os)
{
    *os << row.name;
}

class BadOptionValue : public ::testing::TestWithParam<BadValue>
{
};

TEST_P(BadOptionValue, ExitsTwoNamingTheFlag)
{
    const BadValue &row = GetParam();
    std::vector<std::string> argv{row.bin};
    // bxtd gets a socket path, so a value it wrongly accepted would
    // leave the socket file behind.
    const bool daemon = std::string(row.bin) == BXTD_BIN;
    const std::filesystem::path sock = socketPath();
    if (daemon)
        argv.insert(argv.end(), {"--unix", sock.string()});
    argv.insert(argv.end(), row.args.begin(), row.args.end());

    const ProcessResult run = runProcess(argv, kToolBound, row.env);
    EXPECT_FALSE(run.timedOut);
    EXPECT_EQ(run.status, 2) << run.err;
    EXPECT_NE(run.err.find(std::string("bad ") + row.flag + " "),
              std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find(row.also), std::string::npos) << run.err;
    EXPECT_EQ(run.out, "");
    if (daemon) {
        EXPECT_FALSE(std::filesystem::exists(sock));
        std::filesystem::remove(sock);
    }
}

INSTANTIATE_TEST_SUITE_P(Tools, BadOptionValue,
                         ::testing::ValuesIn(kBadValues));

// --- A live bxtd ----------------------------------------------------------

/**
 * bxtd --shards 4 on a Unix socket and on 127.0.0.1:0, booted from the
 * build tree. Construct it, then ASSERT_TRUE(up()).
 */
class LiveBxtd
{
  public:
    explicit LiveBxtd(const std::vector<std::string> &env = {})
        : sock_(socketPath()),
          process_({BXTD_BIN, "--unix", sock_.string(), "--listen",
                    "127.0.0.1:0", "--shards", "4"},
                   env)
    {
        // "serving" is printed, and flushed, after both listen lines.
        up_ = process_.waitForOutput("bxtd: serving", seconds(10));
        const std::string tag = "listening on tcp://";
        const std::size_t at = process_.out().find(tag);
        if (at != std::string::npos) {
            const std::size_t from = at + tag.size();
            tcp_ = process_.out().substr(
                from, process_.out().find('\n', from) - from);
        }
        up_ = up_ && !tcp_.empty();
    }

    ~LiveBxtd() { std::filesystem::remove(sock_); }

    bool up() const { return up_; }
    std::string sock() const { return sock_.string(); }
    const std::string &tcp() const { return tcp_; }
    std::string log() const { return process_.out() + process_.err(); }

    /**
     * SIGTERM the daemon and wait for its exit: it must drain cleanly
     * (exit 0, "drained, exiting"). Returns how long the drain took.
     */
    milliseconds stop()
    {
        const auto t0 = std::chrono::steady_clock::now();
        process_.signal(SIGTERM);
        const ProcessResult run = process_.wait(seconds(30));
        const auto took = std::chrono::duration_cast<milliseconds>(
            std::chrono::steady_clock::now() - t0);
        EXPECT_FALSE(run.timedOut);
        EXPECT_EQ(run.status, 0) << run.out << run.err;
        EXPECT_NE(run.out.find("bxtd: drained, exiting"), std::string::npos)
            << run.out;
        return took;
    }

  private:
    std::filesystem::path sock_;
    Process process_;
    std::string tcp_;
    bool up_ = false;
};

/** Run a tool to its end and expect exit 0; returns its stdout. */
std::string
runOk(const std::vector<std::string> &argv)
{
    const ProcessResult run = runProcess(argv, seconds(30));
    EXPECT_FALSE(run.timedOut) << argv[0];
    EXPECT_EQ(run.status, 0) << argv[0] << ": " << run.out << run.err;
    return run.out;
}

TEST(Bxtd, PingsAndRoundTripsATraceBitIdenticallyOverUnixAndTcp)
{
    LiveBxtd bxtd;
    ASSERT_TRUE(bxtd.up()) << bxtd.log();
    const std::string trace = uniqueTempPath("bfs.bxtrace").string();
    runOk({TRACE_TOOL_BIN, "gen", "rodinia-bfs", trace, "512"});

    for (const std::vector<std::string> &peer :
         {std::vector<std::string>{"--unix", bxtd.sock()},
          std::vector<std::string>{"--tcp", bxtd.tcp()}}) {
        std::vector<std::string> ping{BXT_CLIENT_BIN};
        ping.insert(ping.end(), peer.begin(), peer.end());
        ping.insert(ping.end(), {"--mode", "ping"});
        EXPECT_EQ(runOk(ping), "pong\n");

        std::vector<std::string> roundtrip{BXT_CLIENT_BIN};
        roundtrip.insert(roundtrip.end(), peer.begin(), peer.end());
        roundtrip.insert(roundtrip.end(), {"--spec", "universal3+zdr",
                                           "--mode", "roundtrip", trace});
        EXPECT_NE(runOk(roundtrip).find("roundtrip: bit-identical"),
                  std::string::npos);
    }
    bxtd.stop();
    std::filesystem::remove(trace);
}

TEST(Bxtd, ServesASnapshotDocumentThatValidates)
{
    LiveBxtd bxtd;
    ASSERT_TRUE(bxtd.up()) << bxtd.log();
    const std::filesystem::path doc = uniqueTempPath("snapshot.json");
    std::ofstream(doc) << runOk({BXT_CLIENT_BIN, "--unix", bxtd.sock(),
                                 "--mode", "snapshot"});
    runOk({BXT_REPORT_BIN, "--validate", doc.string()});
    bxtd.stop();
    std::filesystem::remove(doc);
}

/**
 * A connection that pipelines twelve 4096 x 64 B baseline Encodes and
 * never reads: about 3 MB of replies wait on it, under the shard's
 * out-buffer high-water mark, so the shard has read every request.
 */
net::UniqueFd
connectNeverReadingPeer(const std::string &sock)
{
    std::string err;
    net::UniqueFd fd = net::connectUnix(sock, err);
    EXPECT_TRUE(fd.valid()) << err;
    constexpr std::uint64_t kTx = 4096;
    ByteBuffer body;
    wire::BodyWriter writer(body, 0, 0);
    writer.u32(64);
    writer.u32(32);
    writer.u64(kTx);
    std::uint8_t *payload = writer.claim(kTx * 64);
    for (std::size_t i = 0; i < kTx * 64; ++i)
        payload[i] = static_cast<std::uint8_t>(i);
    wire::Frame request;
    request.opcode = wire::Opcode::Encode;
    request.spec = "baseline";
    request.body.assign(body.data(), body.data() + body.size());
    const std::vector<std::uint8_t> frame = wire::serializeFrame(request);
    for (int i = 0; i < 12 && fd.valid(); ++i)
        EXPECT_TRUE(net::writeAll(fd.get(), frame.data(), frame.size(), err))
            << err;
    return fd;
}

TEST(Bxtd, DrainsNeverReadingPeersAtOneDeadlineAndWritesItsSpanTrace)
{
    const std::filesystem::path spans = uniqueTempPath("spans.json");
    LiveBxtd bxtd({"BXT_TRACE=" + spans.string()});
    ASSERT_TRUE(bxtd.up()) << bxtd.log();

    // Every request sampled, so the exit-time span trace is not empty.
    runOk({BXT_LOADGEN_BIN, "--unix", bxtd.sock(), "--closed-loop",
           "--spec", "baseline", "--tx-bytes", "32", "--batch", "64",
           "--requests", "64", "--trace-sample", "1"});

    // Five peers that never read; round-robin puts two on one shard.
    // They share each shard's one flush deadline (5 s), so the drain
    // ends within 8 s instead of waiting for them one after another.
    std::vector<net::UniqueFd> peers;
    for (int i = 0; i < 5; ++i)
        peers.push_back(connectNeverReadingPeer(bxtd.sock()));
    EXPECT_LT(bxtd.stop(), milliseconds(8000));
    peers.clear();

    runOk({BXT_REPORT_BIN, "--validate-trace", spans.string()});
    JsonValue doc;
    ASSERT_TRUE(parseJson(readText(spans), doc));
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t server_spans = 0;
    for (const JsonValue &event : events->array) {
        const JsonValue *cat = event.find("cat");
        server_spans += cat != nullptr && cat->string == "bxt.server";
    }
    EXPECT_GT(server_spans, 0u);
    std::filesystem::remove(spans);
}

// --- Trace artefacts -------------------------------------------------------

TEST(TraceArtefacts, TracedBenchesWriteValidDocumentsAndDropNoSpan)
{
    // fig15 with metrics on writes a snapshot and a trace; ablation
    // records the most spans on one thread of the benches.
    const std::filesystem::path snapshot = uniqueTempPath("fig15.json");
    const std::filesystem::path traces[] = {
        uniqueTempPath("fig15_trace.json"),
        uniqueTempPath("ablation_trace.json")};
    const ProcessResult fig15 = runProcess(
        {BENCH_FIG15_COMPARISON_BIN, "--json", snapshot.string()},
        seconds(50), {"BXT_METRICS=1", "BXT_TRACE=" + traces[0].string()});
    ASSERT_EQ(fig15.status, 0) << fig15.err;
    const ProcessResult ablation =
        runProcess({BENCH_ABLATION_BIN}, seconds(50),
                   {"BXT_TRACE=" + traces[1].string()});
    ASSERT_EQ(ablation.status, 0) << ablation.err;

    runOk({BXT_REPORT_BIN, "--validate", snapshot.string()});
    for (const std::filesystem::path &trace : traces) {
        runOk({BXT_REPORT_BIN, "--validate-trace", trace.string()});
        JsonValue doc;
        ASSERT_TRUE(parseJson(readText(trace), doc)) << trace;
        const JsonValue *other = doc.find("otherData");
        ASSERT_NE(other, nullptr) << trace;
        const JsonValue *dropped = other->find("droppedSpans");
        ASSERT_NE(dropped, nullptr) << trace;
        EXPECT_EQ(dropped->number, 0.0) << trace;
        std::filesystem::remove(trace);
    }
    std::filesystem::remove(snapshot);
}

} // namespace
} // namespace bxt
