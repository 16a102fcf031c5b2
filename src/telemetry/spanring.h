/**
 * @file
 * The lock-free per-thread span ring, the one place a span is recorded
 * (DESIGN.md §9). Every recording thread (a bxtd shard stamping the
 * phases of a sampled request, or any thread closing a ScopedSpan)
 * pushes into its own fixed-capacity single-producer ring. A full ring
 * overwrites its oldest entry (drop-oldest) and counts every
 * overwritten-uncollected span, so a slow exporter degrades visibility,
 * never the serving path.
 *
 * The producer side is wait-free: one relaxed head bump plus a
 * seqlock-versioned slot write, all on atomics (ThreadSanitizer-clean).
 * Collection drains a ring under the registry mutex (trace.h),
 * validating each slot's sequence number so a span being overwritten
 * mid-read is discarded and counted, never torn. While tracing is on,
 * the recorder moves a ring's spans to the export list before a push
 * could evict one (trace.h, recordSpan).
 */

#ifndef BXT_TELEMETRY_SPANRING_H
#define BXT_TELEMETRY_SPANRING_H

#include <atomic>
#include <cstdint>
#include <vector>

namespace bxt::telemetry {

/**
 * Interned span name: an index into the append-only name table
 * (internSpanName, trace.h). The five server request phases are
 * registered first, so their ids are fixed.
 */
enum class SpanName : std::uint32_t {
    Request = 0,   ///< Whole request: first byte fed to reply written.
    Parse = 1,     ///< Frame extraction + validation.
    QueueWait = 2, ///< Buffered bytes waiting for the worker loop.
    Codec = 3,     ///< Service dispatch (batch encode/decode).
    Reply = 4,     ///< Serialization + socket write of the response.
};

/** One recorded span: a server request phase or a ScopedSpan. */
struct ServerSpan
{
    std::uint64_t traceId = 0; ///< Wire trace context id (0 = none).
    std::uint64_t spanId = 0;  ///< Client span id (trace-block spanId).
    std::uint64_t startUs = 0; ///< telemetry::nowMicros() at span start.
    std::uint64_t durUs = 0;   ///< Span duration, microseconds.
    SpanName name = SpanName::Request;
    std::uint8_t opcode = 0;       ///< Wire opcode of the request.
    std::uint16_t streamId = 0;    ///< Tenant/stream tag (0 = none).
    std::uint32_t tid = 0;         ///< telemetry::currentThreadId().
    std::uint32_t txCount = 0;     ///< Transactions in the request body.

    bool operator==(const ServerSpan &other) const = default;
};

/**
 * Single-producer span ring. One instance per recording thread; the
 * producer thread is the only writer, collection may run concurrently
 * from any thread. Capacity is fixed; a full ring overwrites its oldest
 * entry and the overwritten span counts as dropped unless it was already
 * collected.
 */
class SpanRing
{
  public:
    /** Slots per ring (power of two). */
    static constexpr std::size_t capacity = 4096;

    /** Record @p span; wait-free, producer thread only. */
    void push(const ServerSpan &span);

    /** Spans ever pushed into this ring. */
    std::uint64_t pushed() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    /** Spans overwritten before any collector read them. */
    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /**
     * Append every un-collected, still-resident span to @p out in push
     * order and advance the collect cursor. Returns the number of spans
     * appended. Safe against a concurrently pushing producer: slots
     * overwritten mid-read are skipped (their loss shows up in
     * dropped()). Collectors must serialize among themselves — the
     * registry-level collectSpans() does.
     */
    std::size_t drainInto(std::vector<ServerSpan> &out);

    /** Test-only: forget everything (no concurrent producer allowed). */
    void reset();

  private:
    struct Slot
    {
        /**
         * 2·index+1 while the producer writes, 2·index+2 once published,
         * 2·index+3 after a collector consumed the span. The producer's
         * overwrite exchange and the collector's consuming CAS arbitrate
         * on this word, so exactly one side accounts for every span.
         */
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> word[6];
    };

    Slot slots_[capacity];
    std::atomic<std::uint64_t> head_{0};
    std::atomic<std::uint64_t> dropped_{0};
    /** First push index not yet collected (collector-side cursor). */
    std::atomic<std::uint64_t> tail_{0};
};

} // namespace bxt::telemetry

#endif // BXT_TELEMETRY_SPANRING_H
