/**
 * @file
 * Scoped-timer spans and the Chrome trace-event exporter. Spans are
 * recorded into a bounded, mutex-guarded process-wide buffer and written
 * as a `chrome://tracing` / Perfetto-loadable `trace.json` (complete "X"
 * events, microsecond timestamps anchored at process start). The
 * writer also drains the server's per-thread span rings (spanring.h)
 * into the same buffer, so one file holds both kinds of span.
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
#include <optional>
#include <string>
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

/** One completed span. */
struct TraceEvent
{
    std::string name;
    std::string category;
    std::uint32_t tid = 0;
    std::uint64_t startUs = 0;
    std::uint64_t durationUs = 0;
    /** Set on server spans drained from the span rings; exported as the
     *  event's args (trace_id, span_id, stream, op, txs). */
    std::optional<ServerSpan> server;
};

/**
 * Append a completed span to the buffer (no-op when tracing is off).
 * The buffer is bounded (traceBufferCap); overflow increments the
 * dropped-span count instead of silently growing without bound.
 */
void recordSpan(const std::string &name, const std::string &category,
                std::uint64_t start_us, std::uint64_t duration_us);

/** Span buffer capacity. */
constexpr std::size_t traceBufferCap = 1u << 20;

/** Spans lost before export: those discarded because the buffer was
 *  full plus server spans their ring overwrote before a drain. */
std::uint64_t droppedSpans();

/** Copy of the buffered spans (tests / custom exporters). Server spans
 *  appear once writeTrace has drained them from the rings. */
std::vector<TraceEvent> traceEvents();

/** Drop every buffered span and zero the buffer-overflow count (ring
 *  drops reset with clearServerSpans). */
void clearTraceBuffer();

/**
 * Drain the server span rings into the buffer (category `bxt.server`,
 * named after the phase), then write every buffered span as a Chrome
 * trace-event JSON object (`{"traceEvents": [...], ...}`). The buffer
 * keeps what it exported, so each write holds every span so far. The
 * file is published atomically (`.tmp` + rename). Returns false
 * (writing nothing) when tracing is disabled or the write fails.
 */
bool writeTrace(const std::string &path);

/**
 * RAII span: samples the clock on construction and records on
 * destruction. Construction with tracing disabled is a no-op (no clock
 * sample, no allocation).
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, const char *category = "bxt")
    {
        if (traceEnabled()) {
            name_ = name;
            category_ = category;
            start_ = nowMicros();
            active_ = true;
        }
    }

    /** Dynamic-name overload for per-spec / per-unit spans. */
    ScopedSpan(std::string name, const char *category)
    {
        if (traceEnabled()) {
            dynamic_name_ = std::move(name);
            name_ = dynamic_name_.c_str();
            category_ = category;
            start_ = nowMicros();
            active_ = true;
        }
    }

    ~ScopedSpan()
    {
        if (active_)
            recordSpan(name_, category_, start_, nowMicros() - start_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Wall-clock so far; 0 when the span is inactive. */
    std::uint64_t elapsedUs() const
    {
        return active_ ? nowMicros() - start_ : 0;
    }

  private:
    const char *name_ = nullptr;
    const char *category_ = nullptr;
    std::string dynamic_name_;
    std::uint64_t start_ = 0;
    bool active_ = false;
};

} // namespace bxt::telemetry

#endif // BXT_TELEMETRY_TRACE_H
