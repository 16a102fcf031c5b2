#include "telemetry/spanring.h"

#include <memory>
#include <mutex>

#include "telemetry/metrics.h"

namespace bxt::telemetry {

const char *
serverPhaseName(ServerPhase phase)
{
    switch (phase) {
    case ServerPhase::Request: return "request";
    case ServerPhase::Parse: return "parse";
    case ServerPhase::QueueWait: return "queue_wait";
    case ServerPhase::Codec: return "codec";
    case ServerPhase::Reply: return "reply";
    }
    return "unknown";
}

namespace {

/** Pack the non-u64 span fields into one word (word[4]). */
std::uint64_t
packMisc(const ServerSpan &span)
{
    return static_cast<std::uint64_t>(span.phase) |
           (static_cast<std::uint64_t>(span.opcode) << 8) |
           (static_cast<std::uint64_t>(span.streamId) << 16) |
           (static_cast<std::uint64_t>(span.tid) << 32);
}

void
unpackMisc(std::uint64_t misc, ServerSpan &span)
{
    span.phase = static_cast<ServerPhase>(misc & 0xff);
    span.opcode = static_cast<std::uint8_t>((misc >> 8) & 0xff);
    span.streamId = static_cast<std::uint16_t>((misc >> 16) & 0xffff);
    span.tid = static_cast<std::uint32_t>(misc >> 32);
}

} // namespace

void
SpanRing::push(const ServerSpan &span)
{
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot &slot = slots_[h & (capacity - 1)];
    // Seqlock write: odd (2h+1) marks in-progress, even (2h+2) marks the
    // slot as holding generation h; a collector bumps a slot it consumed
    // to 2h+3. The exchange arbitrates drop accounting with a racing
    // collector: exactly one side owns each span, so overwriting a slot
    // still at its published (un-consumed) value counts as a drop here,
    // while a slot the collector claimed does not. Fence-free form
    // (GCC's -Wtsan rejects atomic_thread_fence under ThreadSanitizer):
    // each payload store is a release, which keeps the odd mark ordered
    // before it, and the final even store is a release over all of them.
    const std::uint64_t prev =
        slot.seq.exchange(2 * h + 1, std::memory_order_relaxed);
    if (h >= capacity && prev == 2 * (h - capacity) + 2)
        dropped_.fetch_add(1, std::memory_order_relaxed);
    slot.word[0].store(span.traceId, std::memory_order_release);
    slot.word[1].store(span.spanId, std::memory_order_release);
    slot.word[2].store(span.startUs, std::memory_order_release);
    slot.word[3].store(span.durUs, std::memory_order_release);
    slot.word[4].store(packMisc(span), std::memory_order_release);
    slot.word[5].store(span.txCount, std::memory_order_release);
    slot.seq.store(2 * h + 2, std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
}

std::size_t
SpanRing::drainInto(std::vector<ServerSpan> &out)
{
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    // Anything older than one capacity behind head was overwritten (the
    // producer counted those drops when it evicted them).
    if (head - tail > capacity)
        tail = head - capacity;

    std::size_t appended = 0;
    for (std::uint64_t i = tail; i < head; ++i) {
        Slot &slot = slots_[i & (capacity - 1)];
        std::uint64_t want = 2 * i + 2;
        if (slot.seq.load(std::memory_order_acquire) != want)
            continue; // Overwritten by a racing producer; counted there.
        // Acquire payload loads pin the claiming CAS below after them
        // (an acquire load forbids later operations from moving ahead
        // of it), replacing the classic seqlock acquire fence.
        ServerSpan span;
        span.traceId = slot.word[0].load(std::memory_order_acquire);
        span.spanId = slot.word[1].load(std::memory_order_acquire);
        span.startUs = slot.word[2].load(std::memory_order_acquire);
        span.durUs = slot.word[3].load(std::memory_order_acquire);
        unpackMisc(slot.word[4].load(std::memory_order_acquire), span);
        span.txCount = static_cast<std::uint32_t>(
            slot.word[5].load(std::memory_order_acquire));
        // Claim the span by marking the slot consumed (2i+3). A failed
        // CAS means the producer started overwriting it mid-read — it
        // saw the published value in its exchange and counted the drop,
        // so discarding here keeps the accounting exact either way.
        if (!slot.seq.compare_exchange_strong(want, want + 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed))
            continue;
        out.push_back(span);
        ++appended;
    }
    tail_.store(head, std::memory_order_relaxed);
    return appended;
}

void
SpanRing::reset()
{
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    for (Slot &slot : slots_)
        slot.seq.store(0, std::memory_order_relaxed);
}

namespace {

/** All rings ever registered; rings outlive their producer threads. */
struct RingRegistry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<SpanRing>> rings;
};

RingRegistry &
ringRegistry()
{
    // Never destroyed: worker threads may still push while static
    // destructors run.
    static RingRegistry *instance = new RingRegistry();
    return *instance;
}

SpanRing &
threadRing()
{
    thread_local SpanRing *ring = nullptr;
    if (ring == nullptr) {
        auto owned = std::make_unique<SpanRing>();
        ring = owned.get();
        RingRegistry &reg = ringRegistry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        reg.rings.push_back(std::move(owned));
    }
    return *ring;
}

} // namespace

void
recordServerSpan(const ServerSpan &span)
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
    const std::uint64_t drops_before = ring.dropped();
    ring.push(span);
    recorded.add(1);
    const std::uint64_t evicted = ring.dropped() - drops_before;
    if (evicted > 0)
        dropped.add(evicted);
}

std::vector<ServerSpan>
collectServerSpans()
{
    std::vector<ServerSpan> spans;
    RingRegistry &reg = ringRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &ring : reg.rings)
        ring->drainInto(spans);
    return spans;
}

std::uint64_t
serverSpansRecorded()
{
    std::uint64_t total = 0;
    RingRegistry &reg = ringRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &ring : reg.rings)
        total += ring->pushed();
    return total;
}

std::uint64_t
serverSpansDropped()
{
    std::uint64_t total = 0;
    RingRegistry &reg = ringRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &ring : reg.rings)
        total += ring->dropped();
    return total;
}

void
clearServerSpans()
{
    RingRegistry &reg = ringRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &ring : reg.rings)
        ring->reset();
}

} // namespace bxt::telemetry
