#include "telemetry/spanring.h"

namespace bxt::telemetry {

namespace {

/** Pack opcode, stream and tid into one word (word[4]). */
std::uint64_t
packMisc(const ServerSpan &span)
{
    return static_cast<std::uint64_t>(span.opcode) |
           (static_cast<std::uint64_t>(span.streamId) << 16) |
           (static_cast<std::uint64_t>(span.tid) << 32);
}

/** Unpack word[4] and word[5] (name id << 32 | txCount). */
void
unpack(std::uint64_t misc, std::uint64_t name_count, ServerSpan &span)
{
    span.opcode = static_cast<std::uint8_t>(misc & 0xff);
    span.streamId = static_cast<std::uint16_t>((misc >> 16) & 0xffff);
    span.tid = static_cast<std::uint32_t>(misc >> 32);
    span.name = static_cast<SpanName>(name_count >> 32);
    span.txCount = static_cast<std::uint32_t>(name_count);
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
    slot.word[5].store(
        (static_cast<std::uint64_t>(span.name) << 32) | span.txCount,
        std::memory_order_release);
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
        unpack(slot.word[4].load(std::memory_order_acquire),
               slot.word[5].load(std::memory_order_acquire), span);
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

} // namespace bxt::telemetry
