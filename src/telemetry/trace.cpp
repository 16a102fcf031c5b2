#include "telemetry/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include <unistd.h>

#include "common/json.h"
#include "telemetry/metrics.h"

namespace bxt::telemetry {

namespace {

/** Process-start anchor for span timestamps. */
const std::chrono::steady_clock::time_point traceEpoch =
    std::chrono::steady_clock::now();

/** The span store; every member is guarded by its mutex. */
struct SpanStore
{
    std::mutex mutex;
    std::string path;
    /** Every ring ever registered; rings outlive their producer threads. */
    std::vector<std::unique_ptr<SpanRing>> rings;
    /** Spans moved out of the rings, in spill/collect order. */
    std::vector<ServerSpan> exported;
    /** exported[0, returned) already went out through collectSpans. */
    std::size_t returned = 0;
    /** Spans lost because exported was full. */
    std::uint64_t overflow = 0;
    /** Interned labels by id (a deque: entries never move) and ids by
     *  "category\0name". */
    std::deque<SpanLabel> labels;
    std::unordered_map<std::string, SpanName> ids;
};

SpanName
internLocked(SpanStore &st, std::string_view name, std::string_view category)
{
    std::string key(category);
    key += '\0';
    key += name;
    const auto [it, added] = st.ids.try_emplace(
        std::move(key), static_cast<SpanName>(st.labels.size()));
    if (added)
        st.labels.push_back({std::string(name), std::string(category)});
    return it->second;
}

SpanStore &
store()
{
    // Never destroyed: spans may be recorded from static destructors
    // racing the atexit flush. The phases take ids 0-4 (SpanName).
    static SpanStore *instance = [] {
        auto *st = new SpanStore();
        for (const char *phase :
             {"request", "parse", "queue_wait", "codec", "reply"})
            internLocked(*st, phase, "bxt.server");
        return st;
    }();
    return *instance;
}

/** Move @p ring's uncollected spans to the export list, up to its cap. */
void
exportLocked(SpanStore &st, SpanRing &ring)
{
    std::vector<ServerSpan> drained;
    ring.drainInto(drained);
    const std::size_t kept =
        std::min(drained.size(), exportListCap - st.exported.size());
    st.exported.insert(st.exported.end(), drained.begin(),
                       drained.begin() + static_cast<long>(kept));
    st.overflow += drained.size() - kept;
}

void
exportAllLocked(SpanStore &st)
{
    for (const auto &ring : st.rings)
        exportLocked(st, *ring);
}

SpanRing &
threadRing()
{
    thread_local SpanRing *ring = nullptr;
    if (ring == nullptr) {
        auto owned = std::make_unique<SpanRing>();
        ring = owned.get();
        SpanStore &st = store();
        std::lock_guard<std::mutex> lock(st.mutex);
        st.rings.push_back(std::move(owned));
    }
    return *ring;
}

/** Expand "%p" in a BXT_TRACE path to the pid (one expansion). */
std::string
expandPath(std::string path)
{
    const std::size_t pos = path.find("%p");
    if (pos != std::string::npos)
        path.replace(pos, 2, std::to_string(::getpid()));
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
    store().path = expandPath(env);
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
    SpanStore &st = store();
    std::lock_guard<std::mutex> lock(st.mutex);
    return st.path;
}

void
setTracePath(const std::string &path)
{
    {
        SpanStore &st = store();
        std::lock_guard<std::mutex> lock(st.mutex);
        st.path = expandPath(path);
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

SpanName
internSpanName(std::string_view name, std::string_view category)
{
    SpanStore &st = store();
    std::lock_guard<std::mutex> lock(st.mutex);
    return internLocked(st, name, category);
}

const SpanLabel &
spanLabel(SpanName id)
{
    SpanStore &st = store();
    std::lock_guard<std::mutex> lock(st.mutex);
    return st.labels.at(static_cast<std::size_t>(id));
}

void
recordSpan(const ServerSpan &span)
{
    // Pinned to the default registry: the function-local statics bind
    // on the first record, which may happen on a shard thread whose
    // private registry dies with its Server — the default registry is
    // the only one guaranteed to outlive every recording thread.
    static Counter &recorded =
        defaultRegistry().counter("bxt.server.spans_recorded");
    static Counter &dropped =
        defaultRegistry().counter("bxt.server.spans_dropped");
    SpanRing &ring = threadRing();
    // The spill: this push would overwrite the span pushed one capacity
    // ago, so first move everything the ring still holds to the export
    // list. Untraced, the ring stays a bounded drop-oldest window.
    const std::uint64_t pushed = ring.pushed();
    if (traceEnabled() && pushed != 0 && pushed % SpanRing::capacity == 0) {
        SpanStore &st = store();
        std::lock_guard<std::mutex> lock(st.mutex);
        exportLocked(st, ring);
    }
    const std::uint64_t drops_before = ring.dropped();
    ring.push(span);
    // The bxt.server counters count request phases only; a ScopedSpan
    // of an offline binary is not a server span.
    if (span.name > SpanName::Reply)
        return;
    recorded.add(1);
    const std::uint64_t evicted = ring.dropped() - drops_before;
    if (evicted > 0)
        dropped.add(evicted);
}

std::vector<ServerSpan>
collectSpans()
{
    SpanStore &st = store();
    std::lock_guard<std::mutex> lock(st.mutex);
    exportAllLocked(st);
    std::vector<ServerSpan> fresh(
        st.exported.begin() + static_cast<long>(st.returned),
        st.exported.end());
    st.returned = st.exported.size();
    return fresh;
}

std::uint64_t
spansRecorded()
{
    SpanStore &st = store();
    std::lock_guard<std::mutex> lock(st.mutex);
    std::uint64_t total = 0;
    for (const auto &ring : st.rings)
        total += ring->pushed();
    return total;
}

std::uint64_t
droppedSpans()
{
    SpanStore &st = store();
    std::lock_guard<std::mutex> lock(st.mutex);
    std::uint64_t total = st.overflow;
    for (const auto &ring : st.rings)
        total += ring->dropped();
    return total;
}

void
clearSpans()
{
    SpanStore &st = store();
    std::lock_guard<std::mutex> lock(st.mutex);
    for (const auto &ring : st.rings)
        ring->reset();
    st.exported.clear();
    st.returned = 0;
    st.overflow = 0;
}

bool
writeTrace(const std::string &path)
{
    if (!traceEnabled() || path.empty())
        return false;

    // Copy the spans and resolve the labels under the mutex, then format
    // outside it, so recording threads do not wait on the JSON.
    std::vector<ServerSpan> spans;
    std::vector<SpanLabel> labels;
    {
        SpanStore &st = store();
        std::lock_guard<std::mutex> lock(st.mutex);
        exportAllLocked(st);
        spans = st.exported;
        labels.assign(st.labels.begin(), st.labels.end());
    }

    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.beginArray("traceEvents");
    for (const ServerSpan &span : spans) {
        const SpanLabel &label = labels[static_cast<std::size_t>(span.name)];
        w.beginObject();
        w.kv("name", label.name);
        w.kv("cat", label.category);
        w.kv("ph", "X");
        w.kv("ts", span.startUs);
        w.kv("dur", span.durUs);
        w.kv("pid", 1);
        w.kv("tid", static_cast<std::uint64_t>(span.tid));
        if (span.name <= SpanName::Reply) {
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
