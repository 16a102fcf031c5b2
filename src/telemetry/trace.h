/**
 * @file
 * The one span store and its Chrome trace-event exporter. Every span —
 * a ScopedSpan, or a bxtd request phase — is one ServerSpan pushed by
 * recordSpan into the calling thread's SpanRing (spanring.h); names and
 * categories are interned once into an append-only table, so a span
 * stores no string. While tracing is on, a push that could evict an
 * uncollected span first moves its ring's spans to a bounded export
 * list, and writeTrace drains every ring into that list and writes it as
 * a `chrome://tracing` / Perfetto-loadable `trace.json` (complete "X"
 * events, microsecond timestamps anchored at process start).
 *
 * Gating mirrors the metrics registry: tracing is off unless the
 * `BXT_TRACE=<path>` environment variable is set (which also installs an
 * atexit flush to that path, with `%p` expanded to the pid so parallel
 * test processes do not clobber each other) or `setTraceEnabled(true)` /
 * `setTracePath(...)` is called. A disabled ScopedSpan costs one relaxed
 * atomic load and never takes a clock sample.
 */

#ifndef BXT_TELEMETRY_TRACE_H
#define BXT_TELEMETRY_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/spanring.h"

namespace bxt::telemetry {

namespace detail {
extern std::atomic<bool> traceOn;
} // namespace detail

/** True when span recording is active (constant-false when compiled out). */
inline bool
traceEnabled()
{
#ifdef BXT_NO_TELEMETRY
    return false;
#else
    return detail::traceOn.load(std::memory_order_relaxed);
#endif
}

/** Programmatic enable/disable (overrides the environment). */
void setTraceEnabled(bool on);

/** Output path from BXT_TRACE / setTracePath ("" when unset). */
std::string tracePath();

/** Set the output path; a non-empty path also enables tracing. */
void setTracePath(const std::string &path);

/** Microseconds since the process-wide trace epoch (steady clock). */
std::uint64_t nowMicros();

/** Small dense id for the calling thread (chrome trace `tid`). */
std::uint32_t currentThreadId();

/** The strings behind one interned SpanName. */
struct SpanLabel
{
    std::string name;
    std::string category;
};

/** The id of (@p name, @p category), registering the pair on first use. */
SpanName internSpanName(std::string_view name, std::string_view category);

/** The label of an interned id (stays valid: the table only grows). The
 *  five phases are labelled `bxt.server`. */
const SpanLabel &spanLabel(SpanName id);

/**
 * Record @p span into the calling thread's ring (wait-free unless it
 * spills), registering the ring on first use. A request phase bumps
 * the `bxt.server.spans_recorded` counter, and `bxt.server.spans_dropped`
 * when its push evicts an uncollected span. While tracing is on, every
 * SpanRing::capacity-th push first moves the ring's spans to the export
 * list under the registry mutex, so no push evicts an uncollected span.
 */
void recordSpan(const ServerSpan &span);

/** Export-list capacity; spans beyond it count in droppedSpans(). */
constexpr std::size_t exportListCap = 1u << 20;

/**
 * Drain every ring into the export list and return the spans no earlier
 * call returned (push order within a ring). The export list keeps them,
 * so a later writeTrace still holds them.
 */
std::vector<ServerSpan> collectSpans();

/** Spans pushed into any ring since process start (or clearSpans). */
std::uint64_t spansRecorded();

/** Spans lost before export: evicted from a ring uncollected, or beyond
 *  the export list's capacity. */
std::uint64_t droppedSpans();

/** Test-only: drop every span and zero the counts (no concurrent
 *  producer allowed). Interned names stay. */
void clearSpans();

/**
 * Drain every ring into the export list, then write the whole list as a
 * Chrome trace-event JSON object (`{"traceEvents": [...], ...}`), so
 * each write holds every span so far. The five server phases carry
 * `trace_id`/`span_id`/`stream`/`op`/`txs` as args. The file is
 * published atomically (`.tmp` + rename). Returns false (writing
 * nothing) when tracing is disabled or the write fails.
 */
bool writeTrace(const std::string &path);

/**
 * RAII span: samples the clock on construction and records on
 * destruction. Construction with tracing disabled is a no-op (no clock
 * sample, no interning).
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string_view name,
                        std::string_view category = "bxt")
    {
        if (traceEnabled()) {
            name_ = internSpanName(name, category);
            start_ = nowMicros();
            active_ = true;
        }
    }

    ~ScopedSpan()
    {
        if (!active_)
            return;
        ServerSpan span;
        span.startUs = start_;
        span.durUs = nowMicros() - start_;
        span.name = name_;
        span.tid = currentThreadId();
        recordSpan(span);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Wall-clock so far; 0 when the span is inactive. */
    std::uint64_t elapsedUs() const
    {
        return active_ ? nowMicros() - start_ : 0;
    }

  private:
    SpanName name_ = SpanName::Request;
    std::uint64_t start_ = 0;
    bool active_ = false;
};

} // namespace bxt::telemetry

#endif // BXT_TELEMETRY_TRACE_H
