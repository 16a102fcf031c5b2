/**
 * @file
 * The bxtd request service: maps one parsed wire frame to one response
 * frame, independent of any socket, so the loopback tests and the frame
 * fuzzer can drive the full dispatch path in-process. A shard hands it
 * the parser's view of each request and has the reply written in place
 * into the connection's output buffer; the Frame form serves callers
 * that own their frames.
 *
 * A Service instance is per-shard state (DESIGN.md §14): it caches one
 * codec (plus allocation-free scratch batches) per (spec, txBytes,
 * busBits) it has seen, so a shard streaming one spec pays codec
 * construction once and every request body runs through the batch hot
 * path — the frame's transactions become one TxBatch and one
 * encodeBatch/decodeBatch call. Adaptive specs key their entry by
 * streamId as well, so every stream runs its own controller. A Service
 * is single-threaded: one shard event loop (or one test) drives it.
 *
 * All instruments resolve against the registry bound at construction —
 * a shard passes its private registry; the default constructor binds
 * the calling thread's current registry, so socket-free tests see the
 * process-wide instruments unchanged.
 */

#ifndef BXT_SERVER_SERVICE_H
#define BXT_SERVER_SERVICE_H

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
     * out; once @p out has grown, concrete-spec Encode/Decode requests
     * are served without heap allocation.
     */
    void handle(const wire::FrameView &request,
                std::vector<std::uint8_t> &out);

    /**
     * Process one request frame into @p response, overwriting every
     * field. The body and spec reuse @p response's capacity, so a caller
     * that keeps one response frame serves concrete-spec Encode/Decode
     * requests without heap allocation once its buffers have grown.
     */
    void handle(const wire::Frame &request, wire::Frame &response);

    /** Process one request frame; returns the response frame. */
    wire::Frame handle(const wire::Frame &request);

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
    struct Entry
    {
        CodecPtr codec;
        /** Non-null when codec is the adaptive meta-codec (the spec
         *  named `adaptive[:...]`); the view used to announce the
         *  active concrete choice + epoch and export choice telemetry. */
        adaptive::AdaptiveCodec *adaptive = nullptr;
        TxBatch scratchIn;       ///< Request-body plane, reused.
        EncodedBatch scratchEnc; ///< encodeBatch target / decode input.
        TxBatch scratchOut;      ///< decodeBatch target, reused.
        std::uint64_t onesIn = 0; ///< Per-connection running tallies.
        std::uint64_t onesOut = 0;
        /** `bxt.server.<spec>.ones_{in,out,removed}`, bound by entryFor. */
        telemetry::Counter *onesInCounter = nullptr;
        telemetry::Counter *onesOutCounter = nullptr;
        telemetry::Counter *onesRemovedCounter = nullptr;
        /** Adaptive entries of a tagged stream: the stream's
         *  `.adaptive.epoch` gauge and `.adaptive.switches` counter,
         *  bound by entryFor (null otherwise). */
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
        telemetry::Counter &requests;
        telemetry::Counter &txEncoded;
        telemetry::Counter &onesIn;
        telemetry::Counter &onesOut;

        StreamCounters(telemetry::Registry &reg, const std::string &base);
    };

    /** Where a handler writes its reply: a Frame's fields, or one
     *  whole frame in place at the end of a wire buffer. */
    class Reply;

    /** Dispatch @p request and finish its reply (both handle forms). */
    void serve(const wire::FrameView &request, Reply &reply);
    /** @p stream is the request's per-tenant counters, resolved once
     *  by serve() (null when untagged or metrics are off). */
    void handleEncode(const wire::FrameView &request, Reply &reply,
                      StreamCounters *stream);
    void handleDecode(const wire::FrameView &request, Reply &reply);
    void handleStats(Reply &reply);
    void handleSnapshot(Reply &reply);
    void errorResponse(wire::ErrorCode code, const std::string &detail,
                       Reply &reply);
    StreamCounters &streamCounters(std::uint16_t stream_id);

    /**
     * Look up / build the codec for (spec, txBytes, busBits) — plus
     * @p stream_id when the spec is adaptive. Returns nullptr with
     * @p err filled (BadSpec detail) when the spec or the geometry is
     * invalid.
     */
    Entry *entryFor(std::string_view spec, std::uint32_t tx_bytes,
                    std::uint32_t bus_bits, std::uint16_t stream_id,
                    std::string &err);

    /** The adaptive announcement (`spec;epoch=N`) for a reply's spec
     *  field, valid until the next call; refreshes the per-stream
     *  choice/switch telemetry. A reply takes it before its body. */
    std::string_view announceAdaptive(Entry &entry,
                                      std::uint16_t stream_id);

    telemetry::Registry &reg_;
    telemetry::Counter &requests_;
    telemetry::Counter &errors_;
    telemetry::Counter &txEncoded_;
    telemetry::Counter &txDecoded_;
    // Note: bxt.server.request_us lives in the connection layer
    // (shard.cpp) so its samples cover the whole lifecycle — feed to
    // reply write — and include busy/parse-error responses.
    std::map<Key, Entry, std::less<>> codecs_;
    std::map<std::uint16_t, std::unique_ptr<StreamCounters>> streams_;
    std::function<std::string()> stats_provider_;
    std::string announced_; ///< announceAdaptive's buffer, reused.
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
