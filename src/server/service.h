/**
 * @file
 * The bxtd request service: maps one parsed wire frame to one response
 * frame, independent of any socket, so the tests can drive the full
 * dispatch path in-process. It has one reply path: a shard hands it the
 * parser's view of each request and has the reply written in place into
 * the connection's output buffer. The Frame form is a wrapper over that
 * path, kept for the benchmark's in-process replay
 * (perfbench/layers.cpp) and the tests.
 *
 * A Service instance is per-shard state (DESIGN.md §14): it caches one
 * codec (plus a reused metadata scratch plane) per (spec, txBytes,
 * busBits) it has seen, so a shard streaming one spec pays codec
 * construction once and every request body runs through the batch hot
 * path — one encodeBatch/decodeBatch call that reads the frame's
 * transactions where they lie and writes the reply's payload plane in
 * place (core/batch.h views). Adaptive specs key their entry by
 * streamId as well, so every stream runs its own controller. A
 * fixed-size memo remembers the entry and the counters each stream used
 * last, so a stream that keeps its spec finds both without a map walk.
 * A Service is single-threaded: one shard event loop (or one test)
 * drives it.
 *
 * All instruments resolve against the registry bound at construction —
 * a shard passes its private registry; the default constructor binds
 * the calling thread's current registry, so socket-free tests see the
 * process-wide instruments unchanged. Requests add their counts to plain
 * fields; publish() folds them into the registry's counters.
 */

#ifndef BXT_SERVER_SERVICE_H
#define BXT_SERVER_SERVICE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "adaptive/adaptive_codec.h"
#include "core/codec.h"
#include "server/wire.h"
#include "telemetry/metrics.h"

namespace bxt::server {

/**
 * Per-shard request dispatcher. handle() never throws and never
 * calls fatal(): every failure becomes a typed Error frame.
 */
class Service
{
  public:
    /** Bind instruments to @p registry (null = currentRegistry()). */
    explicit Service(telemetry::Registry *registry = nullptr);

    /**
     * Serve one request, appending exactly one reply frame to @p out.
     * The reply is built in place: header and spec, then the body
     * written straight after them, then the body length and CRC32
     * patched in. A connection passes the parser's view of the request
     * and its output buffer, so neither body is copied on the way in or
     * out: the codec reads the request body and writes the reply body.
     * The request must therefore not lie inside @p out. Once @p out has
     * grown, concrete-spec Encode/Decode requests are served without
     * heap allocation. The request's counts wait for publish().
     */
    void handle(const wire::FrameView &request, ByteBuffer &out);

    /**
     * Serve @p request in place into a reused buffer, publish, and
     * return a copy of the reply's fields; the unsent reply gets no
     * length or CRC32. For the benchmark's in-process replay and the
     * tests only.
     */
    wire::Frame handle(const wire::Frame &request);

    /**
     * Add the counts of every request served since the last call to
     * the registry's counters (bxt.server.requests, the per-spec ones
     * counters, the per-stream counters, ...). A shard calls it once
     * per batch, before it flushes the batch's replies, and a Stats or
     * Snapshot request calls it before it builds its document, so a
     * reply a client holds is always counted. Allocation-free.
     */
    void publish();

    /** Codec instances cached so far (test/diagnostic hook). */
    std::size_t cachedCodecs() const { return codecs_.size(); }

    /**
     * Install the document source for Stats/Snapshot responses: a
     * callable returning the metrics JSON object. The sharded server
     * installs the fleet-wide merge (all shard registries unioned with
     * `bxt.server.shard.<i>.*` breakdowns); without one, the service
     * snapshots its own registry — the single-registry behavior the
     * socket-free tests pin.
     */
    void setStatsProvider(std::function<std::string()> provider)
    {
        stats_provider_ = std::move(provider);
    }

  private:
    /** A counter plus the increments not yet published to it. */
    struct PendingCounter
    {
        telemetry::Counter *counter = nullptr;
        std::uint64_t pending = 0;

        void publish()
        {
            if (pending != 0) {
                counter->add(pending);
                pending = 0;
            }
        }
    };

    struct Entry
    {
        CodecPtr codec;
        /** Non-null when codec is the adaptive meta-codec (the spec
         *  named `adaptive[:...]`); the view used to announce the
         *  active concrete choice + epoch and export choice telemetry. */
        adaptive::AdaptiveCodec *adaptive = nullptr;
        /** Metadata plane (one 0/1 byte per bit) between the codec and
         *  packBits / unpackBits, reused. Payloads need no scratch: the
         *  codec reads the request body and writes the reply in place. */
        ByteBuffer scratchMeta;
        /** A concrete codec's metaWiresPerBeat() and metaBitsPerTx(txBytes),
         *  stored by makeEntry: both depend only on the key. */
        unsigned metaWires = 0;
        std::size_t metaBits = 0;
        /** `bxt.server.<spec>.ones_{in,out,removed}`, bound by makeEntry. */
        PendingCounter onesIn;
        PendingCounter onesOut;
        PendingCounter onesRemoved;
        bool dirty = false; ///< On dirtyEntries_ (has pending counts).
        /** Adaptive entries of a tagged stream: the stream's
         *  `.adaptive.epoch` gauge and `.adaptive.switches` counter,
         *  bound by makeEntry (null otherwise). */
        telemetry::Gauge *epochGauge = nullptr;
        telemetry::Counter *switchesCounter = nullptr;
        std::uint64_t lastEpoch = 0; ///< Last exported switch count.
        /** The stream's `.adaptive.zero_frac` / `.adaptive.xor_weight`
         *  gauges: the controller's zeroWordFrac and 4-byte toggleWeight
         *  sensors, refreshed once per evaluation. */
        telemetry::Gauge *zeroFracGauge = nullptr;
        telemetry::Gauge *xorWeightGauge = nullptr;
        std::uint64_t lastEvaluations = 0; ///< Evaluations last exported.
        /** The `.adaptive.choice.<spec>` one-hot gauge currently at 1,
         *  and the concrete spec it names. */
        telemetry::Gauge *choiceGauge = nullptr;
        std::string choiceSpec;

        /** This request's metadata geometry: the stored values, or the
         *  codec's answer for an adaptive entry, whose choice moves. */
        unsigned wiresPerBeat() const
        {
            return adaptive != nullptr ? codec->metaWiresPerBeat()
                                       : metaWires;
        }
        std::size_t bitsPerTx(std::uint32_t tx_bytes) const
        {
            return adaptive != nullptr ? codec->metaBitsPerTx(tx_bytes)
                                       : metaBits;
        }
    };

    /**
     * Codec cache key. The trailing stream id is 0 for concrete specs
     * (all streams on a connection share the codec instance) and the
     * frame's streamId for adaptive specs, so every stream gets its own
     * controller — per-stream selection is the whole point.
     */
    using Key = std::tuple<std::string, std::uint32_t, std::uint32_t,
                           std::uint16_t>;
    /** Allocation-free lookup form of Key (std::less<> compares both). */
    using KeyView = std::tuple<std::string_view, std::uint32_t,
                               std::uint32_t, std::uint16_t>;

    /**
     * Per-stream (tenant) counters, keyed by the frame's streamId. They
     * telescope: summed over streams they equal the aggregate counters
     * when every request carries a tag. The value statistics of a
     * stream's traffic come from its adaptive controller's sensors
     * (`.adaptive.zero_frac` / `.adaptive.xor_weight`, see Entry).
     */
    struct StreamCounters
    {
        PendingCounter requests;
        PendingCounter txEncoded;
        PendingCounter onesIn;
        PendingCounter onesOut;
        bool dirty = false; ///< On dirtyStreams_ (has pending counts).

        StreamCounters(telemetry::Registry &reg, const std::string &base);
    };

    /**
     * One slot of the stream memo: a stream's counters and the entry
     * its last Encode/Decode resolved, with that entry's key fields. A
     * hit must match the request's spec, txBytes and busBits as well as
     * its stream id (adaptive entries are per stream, so the stream id
     * is part of every entry's identity here).
     */
    struct StreamMemo
    {
        std::uint16_t streamId = 0;
        /** Null until a request of the stream resolves them. */
        StreamCounters *counters = nullptr;
        Entry *entry = nullptr;
        std::string_view spec; ///< The entry's key spec, in codecs_.
        std::uint32_t txBytes = 0;
        std::uint32_t busBits = 0;
    };

    /** Memo slots, direct-mapped by stream id (a power of two): the
     *  memo never grows, whatever stream ids a peer sends. */
    static constexpr std::size_t kMemoSlots = 64;

    /** Where a handler writes its reply: one frame in place at the end
     *  of a wire buffer. */
    class Reply;

    /** Dispatch @p request and write its reply, unfinished. */
    void serve(const wire::FrameView &request, Reply &reply);
    /** @p memo is the request's stream slot, claimed by serve(); its
     *  counters are null when untagged or metrics are off. */
    void handleEncode(const wire::FrameView &request, Reply &reply,
                      StreamMemo &memo);
    void handleDecode(const wire::FrameView &request, Reply &reply,
                      StreamMemo &memo);
    /** Stats: the metrics document; Snapshot: it plus uptime. */
    void handleStats(wire::Opcode opcode, Reply &reply);
    void errorResponse(wire::ErrorCode code, const std::string &detail,
                       Reply &reply);
    StreamCounters &streamCounters(std::uint16_t stream_id);

    /** @p stream_id's memo slot, emptied first when another stream
     *  held it. */
    StreamMemo &memoFor(std::uint16_t stream_id);

    /**
     * Look up / build the codec for (spec, txBytes, busBits) — plus the
     * stream id when the spec is adaptive — trying @p memo's entry
     * first and leaving the result there. Returns nullptr with @p err
     * filled (BadSpec detail) when the spec or the geometry is invalid.
     */
    Entry *entryFor(std::string_view spec, std::uint32_t tx_bytes,
                    std::uint32_t bus_bits, StreamMemo &memo,
                    std::string &err);

    /** Build @p entry's codec and bind its instruments; false with
     *  @p err filled when the spec is invalid. */
    bool makeEntry(Entry &entry, std::string_view spec,
                   std::uint32_t tx_bytes, std::uint32_t bus_bits,
                   bool is_adaptive, std::uint16_t stream_id,
                   std::string &err);

    /** The adaptive announcement (`spec;epoch=N`) for a reply's spec
     *  field, valid until the next call. A reply takes it before its
     *  body, so an encode evaluates the controller first. */
    std::string_view announceAdaptive(Entry &entry);

    /** Refresh @p stream_id's adaptive choice/switch/sensor telemetry
     *  once the request's batch has been served. */
    void exportAdaptive(Entry &entry, std::uint16_t stream_id);

    telemetry::Registry &reg_;
    PendingCounter requests_;
    PendingCounter errors_;
    PendingCounter txEncoded_;
    PendingCounter txDecoded_;
    // Note: bxt.server.request_us lives in the connection layer
    // (shard.cpp) so its samples cover the whole lifecycle — feed to
    // reply write — and include busy/parse-error responses.
    std::map<Key, Entry, std::less<>> codecs_;
    std::map<std::uint16_t, std::unique_ptr<StreamCounters>> streams_;
    std::array<StreamMemo, kMemoSlots> memo_;
    /** Entries and streams with pending counts, for publish(). */
    std::vector<Entry *> dirtyEntries_;
    std::vector<StreamCounters *> dirtyStreams_;
    std::function<std::string()> stats_provider_;
    std::string announced_; ///< announceAdaptive's buffer, reused.
    ByteBuffer wrapped_reply_; ///< The Frame form's, reused.
};

/**
 * Validate the (txBytes, busBits) geometry shared by encode and decode
 * requests; returns an explanation or empty when valid. Exposed for the
 * client library's preflight checks.
 */
std::string validateGeometry(std::uint32_t tx_bytes, std::uint32_t bus_bits);

/**
 * Transactions claimed by an Encode/Decode request body (the count
 * header field, clamped to maxTxPerRequest); 0 for other opcodes or a
 * truncated body. Used by the connection layer to annotate spans
 * without re-parsing the body.
 */
std::uint32_t requestTxCount(const wire::FrameView &request);

} // namespace bxt::server

#endif // BXT_SERVER_SERVICE_H
