#include "telemetry/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/json.h"

namespace bxt::telemetry {

namespace {

/** Process-start anchor for span timestamps. */
const std::chrono::steady_clock::time_point traceEpoch =
    std::chrono::steady_clock::now();

struct TraceState
{
    std::mutex mutex;
    std::string path;
    std::vector<TraceEvent> events;
    std::atomic<std::uint64_t> dropped{0};
};

TraceState &
state()
{
    // Never destroyed: spans may be recorded from static destructors
    // racing the atexit flush.
    static TraceState *instance = new TraceState();
    return *instance;
}

/** Expand "%p" in a BXT_TRACE path to the pid (one expansion). */
std::string
expandPath(std::string path)
{
    const std::size_t pos = path.find("%p");
    if (pos != std::string::npos) {
        path.replace(pos, 2, std::to_string(
#ifdef _WIN32
                                 0
#else
                                 static_cast<long>(::getpid())
#endif
                                 ));
    }
    return path;
}

void
flushAtExit()
{
    const std::string path = tracePath();
    if (!path.empty())
        writeTrace(path);
}

/** Reads BXT_TRACE once at static init; installs the atexit flush. */
bool
initFromEnv()
{
    const char *env = std::getenv("BXT_TRACE");
    if (env == nullptr || *env == '\0')
        return false;
    state().path = expandPath(env);
    std::atexit(flushAtExit);
    return true;
}

} // namespace

namespace detail {
std::atomic<bool> traceOn{initFromEnv()};
} // namespace detail

void
setTraceEnabled(bool on)
{
    detail::traceOn.store(on, std::memory_order_relaxed);
}

std::string
tracePath()
{
    TraceState &ts = state();
    std::lock_guard<std::mutex> lock(ts.mutex);
    return ts.path;
}

void
setTracePath(const std::string &path)
{
    {
        TraceState &ts = state();
        std::lock_guard<std::mutex> lock(ts.mutex);
        ts.path = expandPath(path);
    }
    if (!path.empty())
        setTraceEnabled(true);
}

std::uint64_t
nowMicros()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - traceEpoch)
            .count());
}

std::uint32_t
currentThreadId()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
recordSpan(const std::string &name, const std::string &category,
           std::uint64_t start_us, std::uint64_t duration_us)
{
    if (!traceEnabled())
        return;
    TraceState &ts = state();
    std::lock_guard<std::mutex> lock(ts.mutex);
    if (ts.events.size() >= traceBufferCap) {
        ts.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    ts.events.push_back(
        {name, category, currentThreadId(), start_us, duration_us, {}});
}

std::uint64_t
droppedSpans()
{
    return state().dropped.load(std::memory_order_relaxed) +
           serverSpansDropped();
}

std::vector<TraceEvent>
traceEvents()
{
    TraceState &ts = state();
    std::lock_guard<std::mutex> lock(ts.mutex);
    return ts.events;
}

void
clearTraceBuffer()
{
    TraceState &ts = state();
    std::lock_guard<std::mutex> lock(ts.mutex);
    ts.events.clear();
    ts.dropped.store(0, std::memory_order_relaxed);
}

bool
writeTrace(const std::string &path)
{
    if (!traceEnabled() || path.empty())
        return false;

    const std::vector<ServerSpan> spans = collectServerSpans();
    TraceState &ts = state();
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(ts.mutex);
        for (const ServerSpan &span : spans) {
            if (ts.events.size() >= traceBufferCap) {
                ts.dropped.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            ts.events.push_back({serverPhaseName(span.phase), "bxt.server",
                                 span.tid, span.startUs, span.durUs,
                                 span});
        }
        events = ts.events;
    }

    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.beginArray("traceEvents");
    for (const TraceEvent &event : events) {
        w.beginObject();
        w.kv("name", event.name);
        w.kv("cat", event.category);
        w.kv("ph", "X");
        w.kv("ts", event.startUs);
        w.kv("dur", event.durationUs);
        w.kv("pid", 1);
        w.kv("tid", static_cast<std::uint64_t>(event.tid));
        if (event.server) {
            const ServerSpan &span = *event.server;
            char trace_hex[20];
            std::snprintf(trace_hex, sizeof(trace_hex), "%016llx",
                          static_cast<unsigned long long>(span.traceId));
            w.beginObject("args");
            w.kv("trace_id", trace_hex);
            w.kv("span_id", span.spanId);
            w.kv("stream", static_cast<std::uint64_t>(span.streamId));
            w.kv("op", static_cast<std::uint64_t>(span.opcode));
            w.kv("txs", static_cast<std::uint64_t>(span.txCount));
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.kv("displayTimeUnit", "ms");
    w.beginObject("otherData");
    w.kv("droppedSpans", droppedSpans());
    w.kv("tool", "bxt");
    w.endObject();
    w.endObject();

    // Atomic publish: an exit-time flush interrupted mid-write must not
    // leave a truncated trace behind the final rename.
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    out << w.str() << '\n';
    out.close();
    if (out.fail() || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace bxt::telemetry
