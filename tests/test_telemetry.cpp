/**
 * @file
 * Telemetry subsystem tests: instrument correctness under thread-pool
 * contention, snapshot schema round-trip, Chrome trace export, the
 * zero-cost-when-off guard, and the per-stage attribution acceptance
 * check — the pipeline stage counters of a `universal3+zdr|dbi4` run
 * must telescope to the exact Bus ones total, cross-checked against the
 * bit-level reference bus.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "channel/channel_eval.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/codec_factory.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "telemetry/spanring.h"
#include "telemetry/trace.h"
#include "verify/reference_bus.h"
#include "workloads/patterns.h"

#include "temp_path.h"

namespace bxt {
namespace {

namespace tm = bxt::telemetry;

/** Every test starts from a zeroed, enabled registry and leaves both the
 *  metrics gate and the trace gate off. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        tm::resetForTest();
        tm::setMetricsEnabled(true);
    }

    void TearDown() override
    {
        tm::setMetricsEnabled(false);
        tm::setTraceEnabled(false);
        tm::resetForTest();
    }
};

/** Deterministic mixed-content 32-byte transaction stream. */
std::vector<Transaction>
makeStream(std::size_t count)
{
    PatternPtr pattern = makeSoaFloatPattern(1.0e3, 1.0e-3, 7);
    Rng rng(11);
    std::vector<Transaction> stream;
    stream.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Transaction tx(32);
        pattern->fill(rng, tx.bytes());
        stream.push_back(tx);
    }
    return stream;
}

const JsonValue &
member(const JsonValue &object, const std::string &key)
{
    const JsonValue *value = object.find(key);
    EXPECT_NE(value, nullptr) << "missing member " << key;
    static const JsonValue null_value;
    return value != nullptr ? *value : null_value;
}

TEST_F(TelemetryTest, CounterGaugeHistogramBasics)
{
    tm::Counter &counter = tm::counter("bxt.test.counter");
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);

    tm::Gauge &gauge = tm::gauge("bxt.test.gauge");
    gauge.set(2.5);
    EXPECT_DOUBLE_EQ(gauge.value(), 2.5);

    tm::Histo &histo = tm::histogram("bxt.test.histo");
    histo.add(0.5);   // rounds to 1 -> exact bucket 1
    histo.add(9.4);   // rounds to 9 -> exact bucket 9
    histo.add(-3.0);  // clamps to 0 -> exact bucket 0
    histo.record(100);
    EXPECT_EQ(histo.total(), 4u);
    EXPECT_EQ(histo.bucketCount(0), 1u);
    EXPECT_EQ(histo.bucketCount(1), 1u);
    EXPECT_EQ(histo.bucketCount(9), 1u);
    EXPECT_EQ(histo.bucketCount(tm::Histo::bucketIndexOf(100)), 1u);
    EXPECT_NEAR(histo.sum(), 110.0, 1e-9);
    EXPECT_NEAR(histo.mean(), 27.5, 1e-9);
    EXPECT_EQ(histo.min(), 0u);
    EXPECT_EQ(histo.max(), 100u);

    // Re-registering under the same name returns the same instrument.
    EXPECT_EQ(&counter, &tm::counter("bxt.test.counter"));
    EXPECT_EQ(&histo, &tm::histogram("bxt.test.histo"));
}

TEST_F(TelemetryTest, HdrBucketGeometry)
{
    using H = tm::Histo;
    // Values below one octave of sub-buckets are exact.
    for (std::uint64_t v = 0; v < H::subBuckets; ++v) {
        EXPECT_EQ(H::bucketIndexOf(v), v);
        EXPECT_EQ(H::bucketLowerBound(v), v);
        EXPECT_EQ(H::bucketWidth(v), 1u);
    }
    // Bucket bounds tile the value axis: every value lands in a bucket
    // whose [lower, lower+width) range contains it, and consecutive
    // bucket bounds are contiguous.
    for (std::uint64_t v : {32ull, 33ull, 63ull, 64ull, 100ull, 1023ull,
                            1024ull, 123456789ull, (1ull << 36) - 1}) {
        const std::size_t index = H::bucketIndexOf(v);
        EXPECT_GE(v, H::bucketLowerBound(index)) << v;
        EXPECT_LT(v, H::bucketLowerBound(index) + H::bucketWidth(index))
            << v;
    }
    for (std::size_t index = 0; index + 1 < H::numBuckets; ++index) {
        EXPECT_EQ(H::bucketLowerBound(index) + H::bucketWidth(index),
                  H::bucketLowerBound(index + 1))
            << index;
    }
    // The relative quantization error is bounded by one sub-bucket.
    for (std::uint64_t v : {100ull, 5000ull, 777777ull}) {
        const std::size_t index = H::bucketIndexOf(v);
        EXPECT_LE(static_cast<double>(H::bucketWidth(index)),
                  static_cast<double>(v) /
                      static_cast<double>(H::subBuckets) +
                      1.0);
    }
    // Oversized samples clamp into the top bucket instead of indexing
    // out of range.
    EXPECT_EQ(H::bucketIndexOf(~std::uint64_t{0}), H::numBuckets - 1);
}

TEST_F(TelemetryTest, HdrQuantilesTrackUniformSamples)
{
    tm::Histo &histo = tm::histogram("bxt.test.quantiles");
    for (std::uint64_t v = 1; v <= 10000; ++v)
        histo.record(v);
    // Log-bucketing bounds the relative error at 1/32 (~3%); allow 5%.
    EXPECT_NEAR(histo.quantile(0.50), 5000.0, 0.05 * 5000.0);
    EXPECT_NEAR(histo.quantile(0.95), 9500.0, 0.05 * 9500.0);
    EXPECT_NEAR(histo.quantile(0.99), 9900.0, 0.05 * 9900.0);
    EXPECT_NEAR(histo.quantile(0.999), 9990.0, 0.05 * 9990.0);
    // Quantiles clamp to the observed extremes.
    EXPECT_EQ(histo.quantile(0.0), 1.0);
    EXPECT_EQ(histo.quantile(1.0), 10000.0);

    tm::Histo &empty = tm::histogram("bxt.test.quantiles_empty");
    EXPECT_EQ(empty.quantile(0.5), 0.0);

    tm::Histo &single = tm::histogram("bxt.test.quantiles_single");
    single.record(42);
    EXPECT_EQ(single.quantile(0.5), 42.0);
    EXPECT_EQ(single.quantile(0.999), 42.0);
}

TEST_F(TelemetryTest, BucketQuantileReadsUnitWidthBucketsExactly)
{
    // Values below 32 have unit-width buckets, so bucket index == value.
    const std::vector<tm::BucketCount> one = {{10, 1}};
    EXPECT_EQ(tm::bucketQuantile(one, 0.50), 10.0);
    // Rank 1.5 of {10, 20, 30} sits half a sample below the 20 bucket.
    const std::vector<tm::BucketCount> three = {{10, 1}, {20, 1}, {30, 1}};
    EXPECT_EQ(tm::bucketQuantile(three, 0.50), 19.5);
    EXPECT_EQ(tm::bucketQuantile(three, 1.00), 30.0);
    EXPECT_EQ(tm::bucketQuantile({}, 0.50), 0.0);

    // Histo::quantile is the same walk, clamped to [min, max].
    tm::Histo &histo = tm::histogram("bxt.test.bucket_quantile");
    for (std::uint64_t v : {10u, 20u, 30u})
        histo.record(v);
    EXPECT_EQ(histo.quantile(0.50), 19.5);
}

TEST_F(TelemetryTest, SanitizeMetricName)
{
    EXPECT_EQ(tm::sanitizeMetricName("universal3+zdr|dbi4"),
              "universal3-zdr__dbi4");
    EXPECT_EQ(tm::sanitizeMetricName("ok_name.09-A"), "ok_name.09-A");
    EXPECT_EQ(tm::sanitizeMetricName("a b/c"), "a_b_c");
}

TEST_F(TelemetryTest, CountersExactUnderContention)
{
    constexpr std::size_t iterations = 20000;
    tm::Counter &counter = tm::counter("bxt.test.contended");
    tm::Histo &histo = tm::histogram("bxt.test.contended_histo");
    parallelFor(iterations, 4, [&](std::size_t i) {
        counter.add(1);
        histo.add(static_cast<double>(i));
    });
    EXPECT_EQ(counter.value(), iterations);
    EXPECT_EQ(histo.total(), iterations);
    std::uint64_t bucket_sum = 0;
    for (std::size_t b = 0; b < histo.buckets(); ++b)
        bucket_sum += histo.bucketCount(b);
    EXPECT_EQ(bucket_sum, iterations);
}

TEST_F(TelemetryTest, SnapshotRoundTripsThroughParser)
{
    // Instruments registered by other tests persist (references stay
    // valid for the process lifetime), so this test uses its own names.
    tm::counter("bxt.test.roundtrip").add(7);
    tm::gauge("bxt.test.rt_gauge").set(1.5);
    tm::histogram("bxt.test.rt_histo").add(3.0);

    for (const bool pretty : {true, false}) {
        JsonValue doc;
        std::string error;
        ASSERT_TRUE(parseJson(tm::snapshotJson(pretty), doc, &error))
            << error;
        EXPECT_EQ(member(doc, "schema").number, tm::snapshotSchema);
        EXPECT_TRUE(member(doc, "enabled").boolean);
        EXPECT_EQ(member(member(doc, "counters"),
                         "bxt.test.roundtrip").number,
                  7.0);
        EXPECT_EQ(member(member(doc, "gauges"),
                         "bxt.test.rt_gauge").number,
                  1.5);
        const JsonValue &histo =
            member(member(doc, "histograms"), "bxt.test.rt_histo");
        EXPECT_EQ(member(histo, "kind").string, "hdr");
        EXPECT_EQ(member(histo, "sub_bucket_bits").number,
                  static_cast<double>(tm::Histo::subBucketBits));
        EXPECT_EQ(member(histo, "total").number, 1.0);
        EXPECT_EQ(member(histo, "min").number, 3.0);
        EXPECT_EQ(member(histo, "max").number, 3.0);
        EXPECT_EQ(member(histo, "p50").number, 3.0);
        EXPECT_EQ(member(histo, "p999").number, 3.0);
        // Sparse bucket encoding: exactly the one non-zero bucket.
        const JsonValue &buckets = member(histo, "buckets");
        ASSERT_EQ(buckets.array.size(), 1u);
        ASSERT_EQ(buckets.array[0].array.size(), 2u);
        EXPECT_EQ(buckets.array[0].array[0].number, 3.0);
        EXPECT_EQ(buckets.array[0].array[1].number, 1.0);
    }
}

TEST_F(TelemetryTest, DisabledMetricsAreZeroCostNoops)
{
    tm::setMetricsEnabled(false);

    tm::Counter &counter = tm::counter("bxt.test.off");
    counter.add(5);
    EXPECT_EQ(counter.value(), 0u);
    tm::Gauge &gauge = tm::gauge("bxt.test.off_gauge");
    gauge.set(9.0);
    EXPECT_EQ(gauge.value(), 0.0);
    tm::Histo &histo = tm::histogram("bxt.test.off_histo");
    histo.add(0.5);
    EXPECT_EQ(histo.total(), 0u);

    // Instrumented library code records nothing either.
    CodecPtr codec = makeCodec("universal3+zdr|dbi4", 4);
    evalCodecOnStream(*codec, makeStream(8), 32);
    EXPECT_EQ(tm::counter("bxt.bus.transactions").value(), 0u);
    EXPECT_EQ(tm::counter("bxt.channel.eval.streams").value(), 0u);

    // snapshotJson still returns a valid "enabled": false doc.
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(tm::snapshotJson(), doc, &error)) << error;
    EXPECT_FALSE(member(doc, "enabled").boolean);
}

TEST_F(TelemetryTest, ScopedSpansExportAsChromeTrace)
{
    tm::setTraceEnabled(true);
    tm::clearSpans();
    {
        tm::ScopedSpan outer("outer", "test");
        tm::ScopedSpan inner(std::string("inner.dynamic"), "test");
    }
    const std::vector<tm::ServerSpan> events = tm::collectSpans();
    ASSERT_EQ(events.size(), 2u);
    // Destruction order: inner records first.
    EXPECT_EQ(tm::spanLabel(events[0].name).name, "inner.dynamic");
    EXPECT_EQ(tm::spanLabel(events[1].name).name, "outer");
    EXPECT_EQ(tm::spanLabel(events[1].name).category, "test");

    const std::string path = uniqueTempPath("trace_test.json").string();
    ASSERT_TRUE(tm::writeTrace(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, doc, &error)) << error;
    const JsonValue &trace_events = member(doc, "traceEvents");
    ASSERT_EQ(trace_events.array.size(), 2u);
    for (const JsonValue &event : trace_events.array) {
        EXPECT_EQ(member(event, "ph").string, "X");
        EXPECT_TRUE(member(event, "ts").isNumber());
        EXPECT_TRUE(member(event, "dur").isNumber());
    }
    std::filesystem::remove(path);
}

TEST_F(TelemetryTest, TraceWriterPublishesACompleteFileOrNothing)
{
    namespace fs = std::filesystem;
    tm::setTraceEnabled(true);
    tm::clearSpans();
    { tm::ScopedSpan span("written", "test"); }

    // The .tmp cannot be created in a directory that does not exist.
    const fs::path dir = uniqueTempPath("trace_no_dir");
    fs::remove_all(dir);
    const std::string missing = (dir / "trace.json").string();
    EXPECT_FALSE(tm::writeTrace(missing));
    EXPECT_FALSE(fs::exists(missing));
    EXPECT_FALSE(fs::exists(missing + ".tmp"));

    // The rename onto a directory fails after the write: the .tmp goes.
    const fs::path occupied = uniqueTempPath("trace_dir");
    fs::create_directories(occupied);
    EXPECT_FALSE(tm::writeTrace(occupied.string()));
    EXPECT_FALSE(fs::exists(occupied.string() + ".tmp"));
    fs::remove_all(occupied);

    const std::string path = uniqueTempPath("trace_stdio.json").string();
    ASSERT_TRUE(tm::writeTrace(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    const std::string validate = std::string(BXT_REPORT_BIN) +
                                 " --validate-trace " + path + " > /dev/null";
    EXPECT_EQ(std::system(validate.c_str()), 0);
    fs::remove(path);
}

TEST_F(TelemetryTest, DisabledSpansRecordNothing)
{
    tm::clearSpans();
    {
        tm::ScopedSpan span("ignored", "test");
        EXPECT_EQ(span.elapsedUs(), 0u);
    }
    EXPECT_TRUE(tm::collectSpans().empty());
    EXPECT_FALSE(tm::writeTrace(uniqueTempPath("trace_off.json").string()));
}

tm::ServerSpan
makeSpan(std::uint64_t i)
{
    tm::ServerSpan span;
    span.traceId = i + 1;
    span.spanId = 2 * i + 1;
    span.startUs = 1000 + i;
    span.durUs = i % 977;
    span.name = static_cast<tm::SpanName>(i % 5);
    span.opcode = 2;
    span.streamId = static_cast<std::uint16_t>(i % 5);
    span.tid = 7;
    span.txCount = static_cast<std::uint32_t>(i % 64);
    return span;
}

TEST_F(TelemetryTest, SpanRingRoundTripsInPushOrder)
{
    auto ring = std::make_unique<tm::SpanRing>();
    for (std::uint64_t i = 0; i < 100; ++i)
        ring->push(makeSpan(i));
    EXPECT_EQ(ring->pushed(), 100u);
    EXPECT_EQ(ring->dropped(), 0u);

    std::vector<tm::ServerSpan> collected;
    EXPECT_EQ(ring->drainInto(collected), 100u);
    ASSERT_EQ(collected.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(collected[i], makeSpan(i)) << i;

    // A second drain finds nothing new.
    EXPECT_EQ(ring->drainInto(collected), 0u);
}

TEST_F(TelemetryTest, SpanRingWraparoundDropsOldestAndCounts)
{
    constexpr std::uint64_t extra = 100;
    auto ring = std::make_unique<tm::SpanRing>();
    for (std::uint64_t i = 0; i < tm::SpanRing::capacity + extra; ++i)
        ring->push(makeSpan(i));
    EXPECT_EQ(ring->pushed(), tm::SpanRing::capacity + extra);
    EXPECT_EQ(ring->dropped(), extra);

    // The survivors are exactly the newest `capacity` spans, in order.
    std::vector<tm::ServerSpan> collected;
    EXPECT_EQ(ring->drainInto(collected), tm::SpanRing::capacity);
    ASSERT_EQ(collected.size(), tm::SpanRing::capacity);
    EXPECT_EQ(collected.front(), makeSpan(extra));
    EXPECT_EQ(collected.back(),
              makeSpan(tm::SpanRing::capacity + extra - 1));
}

TEST_F(TelemetryTest, SpanRingConcurrentDrainLosesNothing)
{
    constexpr std::uint64_t total = 200000;
    auto ring = std::make_unique<tm::SpanRing>();
    std::atomic<bool> done{false};
    std::vector<tm::ServerSpan> collected;

    std::thread producer([&] {
        for (std::uint64_t i = 0; i < total; ++i)
            ring->push(makeSpan(i));
        done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire))
        ring->drainInto(collected);
    ring->drainInto(collected);
    producer.join();

    // Accounting is exact even under wraparound: every span was either
    // collected or counted as dropped, and collected trace ids ascend
    // (drains preserve push order; torn slots are skipped, not mangled).
    EXPECT_EQ(collected.size() + ring->dropped(), total);
    std::uint64_t prev_id = 0;
    for (const tm::ServerSpan &span : collected) {
        EXPECT_GT(span.traceId, prev_id);
        EXPECT_EQ(span, makeSpan(span.traceId - 1));
        prev_id = span.traceId;
    }
}

TEST_F(TelemetryTest, RecordServerSpanFeedsRegistryAndCounters)
{
    for (std::uint64_t i = 0; i < 10; ++i)
        tm::recordSpan(makeSpan(i));
    EXPECT_EQ(tm::counter("bxt.server.spans_recorded").value(), 10u);
    EXPECT_EQ(tm::counter("bxt.server.spans_dropped").value(), 0u);
    EXPECT_GE(tm::spansRecorded(), 10u);

    const std::vector<tm::ServerSpan> spans = tm::collectSpans();
    ASSERT_EQ(spans.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(spans[i], makeSpan(i));
    // Exactly-once delivery across collects.
    EXPECT_TRUE(tm::collectSpans().empty());
}

TEST_F(TelemetryTest, ServerSpanTraceExportsChromeJson)
{
    tm::setTraceEnabled(true);
    tm::recordSpan(makeSpan(3));
    tm::recordSpan(makeSpan(4));
    const std::string path = uniqueTempPath("spans_test.json").string();
    ASSERT_TRUE(tm::writeTrace(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, doc, &error)) << error;
    const JsonValue &events = member(doc, "traceEvents");
    ASSERT_EQ(events.array.size(), 2u);
    EXPECT_EQ(member(events.array[0], "name").string, "codec");
    EXPECT_EQ(member(events.array[1], "name").string, "reply");
    for (const JsonValue &event : events.array) {
        EXPECT_EQ(member(event, "ph").string, "X");
        EXPECT_EQ(member(event, "cat").string, "bxt.server");
        EXPECT_TRUE(member(event, "ts").isNumber());
        EXPECT_TRUE(member(event, "dur").isNumber());
        const JsonValue &args = member(event, "args");
        EXPECT_EQ(member(args, "trace_id").string.size(), 16u);
        EXPECT_TRUE(member(args, "span_id").isNumber());
    }
    EXPECT_EQ(member(member(doc, "otherData"), "droppedSpans").number,
              0.0);
    std::filesystem::remove(path);

    // The export accumulates already-drained spans: a second write after
    // new records contains all four.
    tm::recordSpan(makeSpan(5));
    tm::recordSpan(makeSpan(6));
    ASSERT_TRUE(tm::writeTrace(path));
    std::ifstream again(path);
    const std::string text2((std::istreambuf_iterator<char>(again)),
                            std::istreambuf_iterator<char>());
    ASSERT_TRUE(parseJson(text2, doc, &error)) << error;
    EXPECT_EQ(member(doc, "traceEvents").array.size(), 4u);
    std::filesystem::remove(path);
}

TEST_F(TelemetryTest, OneTraceFileHoldsScopedAndServerSpans)
{
    tm::setTraceEnabled(true);
    {
        tm::ScopedSpan span("offline.run", "test");
    }
    tm::recordSpan(makeSpan(8));
    const std::string path = uniqueTempPath("mixed_trace.json").string();
    ASSERT_TRUE(tm::writeTrace(path));
    // Published by rename: the temporary never outlives the write.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, doc, &error)) << error;
    const JsonValue &events = member(doc, "traceEvents");
    ASSERT_EQ(events.array.size(), 2u);
    const JsonValue &scoped = events.array[0];
    EXPECT_EQ(member(scoped, "name").string, "offline.run");
    EXPECT_EQ(member(scoped, "cat").string, "test");
    EXPECT_EQ(scoped.find("args"), nullptr);
    const JsonValue &server = events.array[1];
    EXPECT_EQ(member(server, "name").string, "codec");
    EXPECT_EQ(member(server, "cat").string, "bxt.server");
    EXPECT_EQ(member(server, "ts").number, 1008.0);
    EXPECT_EQ(member(server, "dur").number, 8.0);
    EXPECT_EQ(member(server, "tid").number, 7.0);
    const JsonValue &args = member(server, "args");
    EXPECT_EQ(member(args, "trace_id").string, "0000000000000009");
    EXPECT_EQ(member(args, "span_id").number, 17.0);
    EXPECT_EQ(member(args, "stream").number, 3.0);
    EXPECT_EQ(member(args, "op").number, 2.0);
    EXPECT_EQ(member(args, "txs").number, 8.0);
    EXPECT_EQ(member(member(doc, "otherData"), "droppedSpans").number,
              0.0);
    std::filesystem::remove(path);
}

TEST_F(TelemetryTest, PhaseNamesArePreRegisteredAndInterningIsStable)
{
    EXPECT_EQ(tm::internSpanName("codec", "bxt.server"), tm::SpanName::Codec);
    EXPECT_EQ(tm::spanLabel(tm::SpanName::QueueWait).name, "queue_wait");
    const tm::SpanName id = tm::internSpanName("intern.me", "test");
    EXPECT_GT(id, tm::SpanName::Reply);
    EXPECT_EQ(tm::internSpanName(std::string("intern.me"), "test"), id);
    EXPECT_NE(tm::internSpanName("intern.me", "other"), id);
    EXPECT_EQ(tm::spanLabel(id).category, "test");
}

TEST_F(TelemetryTest, ScopedSpansLeaveTheServerSpanCountersAlone)
{
    // Both kinds land in the one store, but bxt.server.spans_recorded
    // counts request phases only.
    tm::setTraceEnabled(true);
    {
        tm::ScopedSpan span("offline.work", "test");
    }
    tm::recordSpan(makeSpan(0));
    EXPECT_EQ(tm::collectSpans().size(), 2u);
    EXPECT_EQ(tm::spansRecorded(), 2u);
    EXPECT_EQ(tm::counter("bxt.server.spans_recorded").value(), 1u);
}

TEST_F(TelemetryTest, FullRingsSpillSoOneTraceKeepsEverySpan)
{
    // Two threads each record three rings' worth of spans, one through
    // ScopedSpan and one server phases, and nothing is collected until
    // writeTrace: each ring must move its spans to the export list
    // before a push could evict one.
    constexpr std::uint64_t perThread = 3 * tm::SpanRing::capacity;
    tm::setTraceEnabled(true);
    std::thread scoped([] {
        for (std::uint64_t i = 0; i < perThread; ++i)
            tm::ScopedSpan span("spill.scoped", "test");
    });
    std::thread server([] {
        for (std::uint64_t i = 0; i < perThread; ++i)
            tm::recordSpan(makeSpan(i));
    });
    scoped.join();
    server.join();

    const std::string path = uniqueTempPath("spill_trace.json").string();
    ASSERT_TRUE(tm::writeTrace(path));
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, doc, &error)) << error;
    std::uint64_t scoped_seen = 0;
    std::uint64_t server_seen = 0;
    std::uint64_t out_of_order = 0;
    for (const JsonValue &event : member(doc, "traceEvents").array) {
        if (member(event, "name").string == "spill.scoped") {
            ++scoped_seen;
            continue;
        }
        // Server spans keep push order: makeSpan(i) has traceId i + 1.
        char want[20];
        std::snprintf(want, sizeof(want), "%016llx",
                      static_cast<unsigned long long>(++server_seen));
        if (member(member(event, "args"), "trace_id").string != want)
            ++out_of_order;
    }
    EXPECT_EQ(scoped_seen, perThread);
    EXPECT_EQ(server_seen, perThread);
    EXPECT_EQ(out_of_order, 0u);
    EXPECT_EQ(member(member(doc, "otherData"), "droppedSpans").number,
              0.0);
    EXPECT_EQ(tm::droppedSpans(), 0u);
    std::filesystem::remove(path);
}

/**
 * Concurrency acceptance (ISSUE 8 satellite): snapshotJson must stay
 * parseable and self-consistent while writer threads hammer every
 * instrument kind and the span rings. Run under ThreadSanitizer via
 * `ci.sh tsan`.
 */
TEST_F(TelemetryTest, SnapshotWhileWritersActive)
{
    constexpr std::size_t writers = 4;
    constexpr std::uint64_t perWriter = 20000;
    // Register up front so the first snapshot below already sees the
    // instruments (writer threads may not have started yet).
    tm::counter("bxt.test.snap_counter");
    tm::gauge("bxt.test.snap_gauge");
    tm::histogram("bxt.test.snap_histo");
    std::atomic<std::size_t> running{writers};
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (std::size_t t = 0; t < writers; ++t) {
        threads.emplace_back([t, &running] {
            tm::Counter &counter = tm::counter("bxt.test.snap_counter");
            tm::Gauge &gauge = tm::gauge("bxt.test.snap_gauge");
            tm::Histo &histo = tm::histogram("bxt.test.snap_histo");
            for (std::uint64_t i = 0; i < perWriter; ++i) {
                counter.add(1);
                gauge.set(static_cast<double>(i));
                histo.record(i);
                if (i % 64 == 0)
                    tm::recordSpan(makeSpan(t * perWriter + i));
            }
            running.fetch_sub(1, std::memory_order_release);
        });
    }

    std::size_t parses = 0;
    while (running.load(std::memory_order_acquire) > 0) {
        JsonValue doc;
        std::string error;
        ASSERT_TRUE(parseJson(tm::snapshotJson(false), doc, &error))
            << error;
        const JsonValue &histo =
            member(member(doc, "histograms"), "bxt.test.snap_histo");
        // total is read before the buckets, so the bucket sum can only
        // run ahead of it, never behind.
        double bucket_sum = 0.0;
        for (const JsonValue &pair : member(histo, "buckets").array)
            bucket_sum += pair.array[1].number;
        EXPECT_GE(bucket_sum + 0.5, member(histo, "total").number);
        ++parses;
        (void)tm::collectSpans(); // Concurrent drain, too.
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_GT(parses, 0u);
    EXPECT_EQ(tm::counter("bxt.test.snap_counter").value(),
              writers * perWriter);
    EXPECT_EQ(tm::histogram("bxt.test.snap_histo").total(),
              writers * perWriter);
}

/**
 * Acceptance criterion (ISSUE 3): per-stage ones-removed counters of a
 * `universal3+zdr|dbi4` run must telescope against the raw baseline to
 * the exact total Bus ones count, cross-checked against the PR 2
 * bit-level reference bus.
 */
TEST_F(TelemetryTest, StageAttributionTelescopesToRefBusOnes)
{
    const std::string spec = "universal3+zdr|dbi4";
    constexpr unsigned data_wires = 32;
    constexpr double idle_fraction = 0.3;
    const std::vector<Transaction> stream = makeStream(256);

    // Reference pass with metrics off: feed each encoding through the
    // bit-level reference bus (this also keeps the reference encodes out
    // of the stage counters measured below).
    tm::setMetricsEnabled(false);
    std::uint64_t raw_ones = 0;
    std::uint64_t ref_ones = 0;
    {
        CodecPtr codec = makeCodec(spec, data_wires / 8);
        verify::RefBus ref(data_wires, codec->metaWiresPerBeat(),
                           idle_fraction);
        for (const Transaction &tx : stream) {
            raw_ones += tx.ones();
            const Encoded enc = codec->encode(tx);
            ref.transmit({enc.payload.data(),
                          enc.payload.data() + enc.payload.size()},
                         enc.meta, enc.metaWiresPerBeat);
        }
        ref_ones = ref.stats().ones();
    }

    // Instrumented pass: same stream through the production eval path.
    tm::resetForTest();
    tm::setMetricsEnabled(true);
    {
        CodecPtr codec = makeCodec(spec, data_wires / 8);
        evalCodecOnStream(*codec, stream, data_wires, idle_fraction);
    }

    const std::string prefix = "bxt.codec.universal3-zdr__dbi4.";
    const std::uint64_t in0 =
        tm::counter(prefix + "stage0.universal3-zdr.ones_in").value();
    const std::uint64_t out0 =
        tm::counter(prefix + "stage0.universal3-zdr.ones_out").value();
    const std::uint64_t in1 =
        tm::counter(prefix + "stage1.dbi4.ones_in").value();
    const std::uint64_t out1 =
        tm::counter(prefix + "stage1.dbi4.ones_out").value();
    ASSERT_GT(in0, 0u);

    // The stream's raw ones entered stage 0.
    EXPECT_EQ(in0, raw_ones);
    EXPECT_EQ(tm::counter("bxt.channel.eval.raw_ones").value(), raw_ones);

    // Removals telescope: raw - sum(in - out) == bus-visible ones.
    const std::uint64_t removed = (in0 - out0) + (in1 - out1);
    const std::uint64_t bus_ones =
        tm::counter("bxt.bus.data_ones").value() +
        tm::counter("bxt.bus.meta_ones").value();
    EXPECT_EQ(raw_ones - removed, bus_ones);

    // And the production Bus counters match the bit-level reference.
    EXPECT_EQ(bus_ones, ref_ones);
    EXPECT_EQ(tm::counter("bxt.channel.eval.encoded_ones").value(),
              ref_ones);
}

// ---------------------------------------------------------------------
// Instantiable registries + merge (the sharded-server substrate)

TEST_F(TelemetryTest, ScopedRegistryRedirectsFreeFunctions)
{
    tm::Registry shard;
    tm::counter("bxt.test.scoped").add(1); // Default registry.
    {
        tm::ScopedRegistry scoped(shard);
        EXPECT_EQ(&tm::currentRegistry(), &shard);
        tm::counter("bxt.test.scoped").add(10);
        {
            tm::Registry inner;
            tm::ScopedRegistry nested(inner);
            tm::counter("bxt.test.scoped").add(100);
            EXPECT_EQ(inner.counter("bxt.test.scoped").value(), 100u);
        }
        // Nested scope restored the outer binding.
        EXPECT_EQ(&tm::currentRegistry(), &shard);
    }
    EXPECT_EQ(&tm::currentRegistry(), &tm::defaultRegistry());
    EXPECT_EQ(shard.counter("bxt.test.scoped").value(), 10u);
    EXPECT_EQ(tm::counter("bxt.test.scoped").value(), 1u);
}

TEST_F(TelemetryTest, RegistryMergeSumsCountersAndGauges)
{
    tm::Registry a;
    tm::Registry b;
    a.counter("bxt.test.c").add(7);
    b.counter("bxt.test.c").add(5);
    b.counter("bxt.test.only_b").add(3);
    a.gauge("bxt.test.g").set(1.5);
    b.gauge("bxt.test.g").set(2.0);

    tm::Registry merged;
    merged.mergeFrom(a);
    merged.mergeFrom(b);
    EXPECT_EQ(merged.counter("bxt.test.c").value(), 12u);
    EXPECT_EQ(merged.counter("bxt.test.only_b").value(), 3u);
    // Gauge merge is additive: per-shard queue depths sum to the fleet
    // depth.
    EXPECT_DOUBLE_EQ(merged.gauge("bxt.test.g").value(), 3.5);
}

TEST_F(TelemetryTest, RegistryMergeRenameBreaksOutAndSkips)
{
    tm::Registry shard;
    shard.counter("bxt.server.requests").add(9);
    shard.counter("bxt.other.requests").add(4);

    tm::Registry merged;
    merged.mergeFrom(shard, [](const std::string &name) {
        if (name == "bxt.server.requests")
            return std::string("bxt.server.shard.3.requests");
        return std::string(); // Skip everything else.
    });
    EXPECT_EQ(merged.counter("bxt.server.shard.3.requests").value(), 9u);
    bool saw_other = false;
    merged.forEachCounter([&](const tm::Counter &counter) {
        saw_other |= counter.name() == "bxt.other.requests";
    });
    EXPECT_FALSE(saw_other);
}

TEST_F(TelemetryTest, HistogramMergeMatchesSingleRegistryOracle)
{
    // The pinning test for the sharded quantile story: recording each
    // sample into one of four shard histograms and bucket-merging must
    // yield the exact p50/p99 (and count/sum/min/max) of recording all
    // samples into one histogram.
    tm::Registry oracle_reg;
    tm::Histo &oracle = oracle_reg.histogram("bxt.test.lat");
    std::vector<tm::Registry> shards(4);
    Rng rng(0x5eed);
    for (std::size_t i = 0; i < 10'000; ++i) {
        // Log-uniform-ish latencies: 1 us .. ~1 s, heavy low tail.
        const double sample = std::exp(
            rng.nextDouble() * 13.8); // e^13.8 ~= 1e6
        oracle.add(sample);
        shards[i % shards.size()]
            .histogram("bxt.test.lat")
            .add(sample);
    }

    tm::Registry merged_reg;
    for (tm::Registry &shard : shards)
        merged_reg.mergeFrom(shard);
    tm::Histo &merged = merged_reg.histogram("bxt.test.lat");

    EXPECT_EQ(merged.total(), oracle.total());
    EXPECT_DOUBLE_EQ(merged.sum(), oracle.sum());
    EXPECT_EQ(merged.min(), oracle.min());
    EXPECT_EQ(merged.max(), oracle.max());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        EXPECT_DOUBLE_EQ(merged.quantile(q), oracle.quantile(q))
            << "q=" << q;
    }
    for (std::size_t b = 0; b < tm::Histo::numBuckets; ++b) {
        ASSERT_EQ(merged.bucketCount(b), oracle.bucketCount(b))
            << "bucket " << b;
    }
}

TEST_F(TelemetryTest, WeightedRecordMatchesRepeatedRecords)
{
    // A bxtd batch records its requests' shared latency as one weighted
    // sample; that must be indistinguishable from n single records.
    tm::Registry reg;
    tm::Histo &weighted = reg.histogram("bxt.test.weighted");
    tm::Histo &repeated = reg.histogram("bxt.test.repeated");
    Rng rng(0xb47c);
    for (std::size_t i = 0; i < 400; ++i) {
        // Values across the exact and the octave buckets, weights up to
        // a full 64-frame batch, zero included.
        const std::uint64_t v = rng.nextBounded(1u << (1 + i % 20));
        const std::uint64_t n = rng.nextBounded(65);
        weighted.record(v, n);
        for (std::uint64_t k = 0; k < n; ++k)
            repeated.record(v);
    }
    ASSERT_GT(repeated.total(), 0u);
    EXPECT_EQ(weighted.total(), repeated.total());
    EXPECT_DOUBLE_EQ(weighted.sum(), repeated.sum());
    EXPECT_EQ(weighted.min(), repeated.min());
    EXPECT_EQ(weighted.max(), repeated.max());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(weighted.quantile(q), repeated.quantile(q))
            << "q=" << q;
    for (std::size_t b = 0; b < tm::Histo::numBuckets; ++b)
        ASSERT_EQ(weighted.bucketCount(b), repeated.bucketCount(b))
            << "bucket " << b;

    // A weight of zero records nothing, min and max included.
    tm::Histo &empty = reg.histogram("bxt.test.weight_zero");
    empty.record(12345, 0);
    EXPECT_EQ(empty.total(), 0u);
    EXPECT_EQ(empty.sum(), 0.0);
    EXPECT_EQ(empty.min(), 0u);
    EXPECT_EQ(empty.max(), 0u);
    for (std::size_t b = 0; b < tm::Histo::numBuckets; ++b)
        ASSERT_EQ(empty.bucketCount(b), 0u) << "bucket " << b;
}

TEST_F(TelemetryTest, SnapshotJsonOfExplicitRegistry)
{
    tm::Registry reg;
    reg.counter("bxt.test.snap").add(2);
    reg.histogram("bxt.test.h").record(5);
    const std::string json = tm::snapshotJson(reg, false);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(json, doc, &err)) << err;
    EXPECT_DOUBLE_EQ(member(member(doc, "counters"), "bxt.test.snap")
                         .number,
                     2.0);
    // The default registry's content must not leak into an explicit
    // registry's snapshot.
    tm::counter("bxt.test.default_only").add(1);
    const std::string json2 = tm::snapshotJson(reg, false);
    EXPECT_EQ(json2.find("bxt.test.default_only"), std::string::npos);
}

} // namespace
} // namespace bxt
