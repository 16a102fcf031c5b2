#include "server/service.h"

#include <algorithm>
#include <exception>
#include <map>

#include "common/bitops.h"
#include "common/error.h"
#include "common/json.h"
#include "core/codec_factory.h"
#include "core/simd/simd.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "telemetry/trace.h"

namespace bxt::server {
namespace {

/** Index of the 4-byte element granularity in Sensors::toggleWeight:
 *  the `.adaptive.xor_weight` gauge exports the xor4 sensor. */
constexpr std::size_t kXorWeightGranularity = 1;
static_assert(adaptive::kToggleGranularities[kXorWeightGranularity] == 4);

/** Bits of metadata one transaction carries for this geometry. */
std::size_t
metaBitsPerTx(std::uint32_t tx_bytes, std::uint32_t bus_bits,
              unsigned meta_wires_per_beat)
{
    const std::size_t beats = tx_bytes * 8u / bus_bits;
    return beats * meta_wires_per_beat;
}

/** Encode reply body bytes before the payload plane (wire.h table). */
constexpr std::size_t encodeReplyHeaderBytes = 4 * 4 + 4 * 8;

/** Decode reply body bytes before the raw plane (wire.h table). */
constexpr std::size_t decodeReplyHeaderBytes = 4 + 8;

/** Put @p item (an entry or a stream's counters, with pending counts)
 *  on @p dirty, once until publish() clears it. */
template <typename T>
void
markDirty(T &item, std::vector<T *> &dirty)
{
    if (!item.dirty) {
        item.dirty = true;
        dirty.push_back(&item);
    }
}

} // namespace

class Service::Reply
{
  public:
    /** Append one frame to @p out that echoes @p request's stream tag
     *  and trace context. */
    Reply(ByteBuffer &out, const wire::FrameView &request)
        : out_(out), head_(request), start_(out.size())
    {
    }

    /**
     * Start the reply, dropping whatever an earlier begin() wrote, and
     * return the writer for its @p body_bytes body. @p spec is copied
     * before the body is written, so it may not point into it.
     */
    wire::BodyWriter begin(wire::Opcode opcode, std::string_view spec,
                           std::size_t body_bytes)
    {
        out_.resize(start_);
        head_.opcode = opcode;
        head_.spec = spec;
        wire::beginFrame(out_, head_, body_bytes);
        body_start_ = out_.size();
        return wire::BodyWriter(out_, body_start_, body_bytes);
    }

    /** Patch the length and CRC32 of the reply begun last. */
    void finish() { wire::finishFrame(out_, start_); }

    /** The reply begun last, unfinished; valid until the next reply. */
    wire::FrameView view() const
    {
        wire::FrameView view = head_;
        view.body = {out_.data() + body_start_, out_.size() - body_start_};
        return view;
    }

  private:
    ByteBuffer &out_;
    wire::FrameView head_; ///< The request's, with the reply's opcode.
    std::size_t start_;
    std::size_t body_start_ = 0;
};

Service::Service(telemetry::Registry *registry)
    : reg_(registry != nullptr ? *registry : telemetry::currentRegistry()),
      requests_{&reg_.counter("bxt.server.requests")},
      errors_{&reg_.counter("bxt.server.errors")},
      txEncoded_{&reg_.counter("bxt.server.tx_encoded")},
      txDecoded_{&reg_.counter("bxt.server.tx_decoded")}
{
}

Service::StreamCounters::StreamCounters(telemetry::Registry &reg,
                                        const std::string &base)
    : requests{&reg.counter(base + ".requests")},
      txEncoded{&reg.counter(base + ".tx_encoded")},
      onesIn{&reg.counter(base + ".ones_in")},
      onesOut{&reg.counter(base + ".ones_out")}
{
}

Service::StreamCounters &
Service::streamCounters(std::uint16_t stream_id)
{
    auto it = streams_.find(stream_id);
    if (it == streams_.end()) {
        const std::string base =
            "bxt.server.stream." + std::to_string(stream_id);
        it = streams_
                 .emplace(stream_id,
                          std::make_unique<StreamCounters>(reg_, base))
                 .first;
    }
    return *it->second;
}

Service::StreamMemo &
Service::memoFor(std::uint16_t stream_id)
{
    StreamMemo &memo = memo_[stream_id & (kMemoSlots - 1)];
    if (memo.streamId != stream_id) {
        memo = StreamMemo();
        memo.streamId = stream_id;
    }
    return memo;
}

void
Service::publish()
{
    requests_.publish();
    errors_.publish();
    txEncoded_.publish();
    txDecoded_.publish();
    for (Entry *entry : dirtyEntries_) {
        entry->onesIn.publish();
        entry->onesOut.publish();
        entry->onesRemoved.publish();
        entry->dirty = false;
    }
    dirtyEntries_.clear();
    for (StreamCounters *stream : dirtyStreams_) {
        stream->requests.publish();
        stream->txEncoded.publish();
        stream->onesIn.publish();
        stream->onesOut.publish();
        stream->dirty = false;
    }
    dirtyStreams_.clear();
}

void
Service::errorResponse(wire::ErrorCode code, const std::string &detail,
                       Reply &reply)
{
    if (telemetry::metricsEnabled())
        ++errors_.pending;
    wire::BodyWriter writer =
        reply.begin(wire::Opcode::Error, {}, 4 + detail.size());
    writer.u32(static_cast<std::uint32_t>(code));
    writer.bytes(reinterpret_cast<const std::uint8_t *>(detail.data()),
                 detail.size());
}

std::string
validateGeometry(std::uint32_t tx_bytes, std::uint32_t bus_bits)
{
    if (tx_bytes < Transaction::minBytes ||
        tx_bytes > Transaction::maxBytes ||
        (tx_bytes & (tx_bytes - 1)) != 0) {
        return "txBytes " + std::to_string(tx_bytes) +
               " is not a power of two in [" +
               std::to_string(Transaction::minBytes) + ", " +
               std::to_string(Transaction::maxBytes) + "]";
    }
    if (bus_bits != 32 && bus_bits != 64)
        return "busBits " + std::to_string(bus_bits) + " is not 32 or 64";
    if (tx_bytes * 8u % bus_bits != 0) {
        return "txBytes " + std::to_string(tx_bytes) +
               " is not a whole number of " + std::to_string(bus_bits) +
               "-bit beats";
    }
    return {};
}

Service::Entry *
Service::entryFor(std::string_view spec, std::uint32_t tx_bytes,
                  std::uint32_t bus_bits, StreamMemo &memo,
                  std::string &err)
{
    if (memo.entry != nullptr && memo.txBytes == tx_bytes &&
        memo.busBits == bus_bits && memo.spec == spec)
        return memo.entry;

    // Concrete codecs are shared across streams; adaptive entries are
    // keyed per stream so each stream runs its own controller.
    const std::uint16_t stream_id = memo.streamId;
    const bool is_adaptive = adaptive::isAdaptiveSpec(spec);
    const std::uint16_t key_stream = is_adaptive ? stream_id : 0;
    auto it = codecs_.find(KeyView{spec, tx_bytes, bus_bits, key_stream});
    if (it == codecs_.end()) {
        Entry entry;
        if (!makeEntry(entry, spec, tx_bytes, bus_bits, is_adaptive,
                       stream_id, err))
            return nullptr;
        it = codecs_
                 .emplace(Key{std::string(spec), tx_bytes, bus_bits,
                              key_stream},
                          std::move(entry))
                 .first;
    }
    memo.entry = &it->second;
    memo.spec = std::get<0>(it->first);
    memo.txBytes = tx_bytes;
    memo.busBits = bus_bits;
    return memo.entry;
}

bool
Service::makeEntry(Entry &entry, std::string_view spec,
                   std::uint32_t tx_bytes, std::uint32_t bus_bits,
                   bool is_adaptive, std::uint16_t stream_id,
                   std::string &err)
{
    const std::string spec_name(spec);
    entry.codec = tryMakeCodec(spec_name, bus_bits / 8u, err);
    if (!entry.codec)
        return false;
    // Every instrument a request on this entry records is resolved here,
    // once, so the request path never builds a metric name or takes the
    // registry mutex.
    const std::string base =
        "bxt.server." + telemetry::sanitizeMetricName(spec_name);
    entry.onesIn.counter = &reg_.counter(base + ".ones_in");
    entry.onesOut.counter = &reg_.counter(base + ".ones_out");
    entry.onesRemoved.counter = &reg_.counter(base + ".ones_removed");
    // May throw CodecSizeError (a transaction size the codec rejects);
    // serve() answers it, and nothing is cached. Controller::make makes
    // every adaptive candidate agree on metaWiresPerBeat, so an adaptive
    // entry's geometry is fixed too.
    entry.metaWires = entry.codec->metaWiresPerBeat();
    entry.metaBits = entry.codec->metaBitsPerTx(tx_bytes);
    if (is_adaptive) {
        entry.adaptive =
            dynamic_cast<adaptive::AdaptiveCodec *>(entry.codec.get());
        if (stream_id != 0) {
            const std::string stream_base = "bxt.server.stream." +
                                            std::to_string(stream_id) +
                                            ".adaptive";
            entry.epochGauge = &reg_.gauge(stream_base + ".epoch");
            entry.switchesCounter = &reg_.counter(stream_base + ".switches");
            entry.zeroFracGauge = &reg_.gauge(stream_base + ".zero_frac");
            entry.xorWeightGauge = &reg_.gauge(stream_base + ".xor_weight");
        }
    }
    return true;
}

std::string_view
Service::announceAdaptive(Entry &entry)
{
    const adaptive::Controller &controller = entry.adaptive->controller();
    // The reply's spec field doubles as stream metadata: the concrete
    // spec currently chosen plus the switch epoch, so clients can decode
    // cross-epoch payloads with the right codec and watch the choice
    // migrate. ';' cannot appear in the spec grammar, so old clients
    // that echo the field verbatim stay unambiguous.
    announced_ = controller.activeSpec();
    announced_ += ";epoch=";
    announced_ += std::to_string(controller.epoch());
    return announced_;
}

void
Service::exportAdaptive(Entry &entry, std::uint16_t stream_id)
{
    const adaptive::Controller &controller = entry.adaptive->controller();
    if (!telemetry::metricsEnabled() || stream_id == 0)
        return;
    entry.epochGauge->set(static_cast<double>(controller.epoch()));
    if (controller.epoch() > entry.lastEpoch) {
        entry.switchesCounter->add(controller.epoch() - entry.lastEpoch);
        entry.lastEpoch = controller.epoch();
    }
    if (controller.evaluations() != entry.lastEvaluations) {
        // The sensors walk the controller's window, so export them once
        // per evaluation (every period transactions), not per request.
        entry.lastEvaluations = controller.evaluations();
        const adaptive::Sensors sensors = controller.sensors();
        entry.zeroFracGauge->set(sensors.zeroWordFrac);
        entry.xorWeightGauge->set(
            sensors.toggleWeight[kXorWeightGranularity]);
    }
    if (entry.choiceGauge == nullptr ||
        controller.activeSpec() != entry.choiceSpec) {
        // The choice moves only at a switch, so this lookup is rare.
        if (entry.choiceGauge != nullptr)
            entry.choiceGauge->set(0.0);
        entry.choiceSpec = controller.activeSpec();
        entry.choiceGauge = &reg_.gauge(
            "bxt.server.stream." + std::to_string(stream_id) +
            ".adaptive.choice." +
            telemetry::sanitizeMetricName(entry.choiceSpec));
        entry.choiceGauge->set(1.0);
    }
}

void
Service::handleEncode(const wire::FrameView &request, Reply &reply,
                      StreamMemo &memo)
{
    wire::BodyReader reader(request.body.data(), request.body.size());
    std::uint32_t tx_bytes = 0;
    std::uint32_t bus_bits = 0;
    std::uint64_t count = 0;
    if (!reader.u32(tx_bytes) || !reader.u32(bus_bits) ||
        !reader.u64(count)) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "encode: truncated request header", reply);
    }
    const std::string geometry = validateGeometry(tx_bytes, bus_bits);
    if (!geometry.empty()) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "encode: " + geometry, reply);
    }
    if (count > wire::maxTxPerRequest) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "encode: count " + std::to_string(count) +
                                 " exceeds " +
                                 std::to_string(wire::maxTxPerRequest),
                             reply);
    }
    if (reader.remaining() != count * tx_bytes) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "encode: body size does not match count",
                             reply);
    }

    std::string err;
    Entry *entry = entryFor(request.spec, tx_bytes, bus_bits, memo, err);
    if (entry == nullptr)
        return errorResponse(wire::ErrorCode::BadSpec, err, reply);

    const unsigned meta_wires = entry->metaWires;
    const std::size_t meta_bits =
        metaBitsPerTx(tx_bytes, bus_bits, meta_wires);
    const std::size_t meta_bytes = (meta_bits + 7) / 8;
    const std::size_t codec_meta_bits = entry->metaBits;
    if (codec_meta_bits != meta_bits) {
        return errorResponse(wire::ErrorCode::Internal,
                             "encode: codec produces " +
                                 std::to_string(codec_meta_bits) +
                                 " metadata bits/tx, geometry expects " +
                                 std::to_string(meta_bits),
                             reply);
    }

    // An adaptive codec picks the candidate for this batch before it
    // encodes it; evaluating here first lets the reply announce that
    // choice ahead of the body (the codec's own evaluation then finds
    // nothing due).
    if (entry->adaptive != nullptr)
        entry->adaptive->controller().maybeEvaluate();
    const std::string_view spec =
        entry->adaptive != nullptr ? announceAdaptive(*entry)
                                   : request.spec;

    // The codec reads the request body where the parser left it and
    // writes its payload straight into the reply; only the metadata
    // passes through a scratch plane, on its way to packBits.
    const std::size_t plane_bytes = count * tx_bytes;
    const std::size_t body_bytes =
        encodeReplyHeaderBytes + count * (tx_bytes + meta_bytes);
    std::uint8_t *body =
        reply.begin(wire::Opcode::Encode, spec, body_bytes).claim(body_bytes);
    std::uint8_t *payload = body + encodeReplyHeaderBytes;
    const std::uint8_t *raw = nullptr;
    reader.view(raw, plane_bytes); // Size pre-validated above.
    entry->scratchMeta.resizeForOverwrite(count * meta_bits);
    std::uint8_t *meta = entry->scratchMeta.data();
    entry->codec->encodeBatch(TxView{raw, count, tx_bytes}, payload, meta);
    const simd::KernelTable &ops = simd::ops();
    if (meta_bytes != 0) {
        ops.packBits(payload + plane_bytes, meta, count, meta_bits,
                     meta_bytes);
    }

    // The ones tallies travel in the response so clients can print
    // ones-on-bus deltas without re-popcounting payloads. The codec's
    // metadata bytes are 0/1 and packBits zeroes every padding bit, so
    // the packed rows hold exactly the plane's ones in an eighth of its
    // bytes.
    const std::uint64_t input_ones = ops.popcountRange(raw, plane_bytes);
    const std::uint64_t payload_ones =
        ops.popcountRange(payload, plane_bytes);
    const std::uint64_t meta_ones =
        ops.popcountRange(payload + plane_bytes, count * meta_bytes);
    const std::uint64_t ones_out = payload_ones + meta_ones;
    storeWord32(body, tx_bytes);
    storeWord32(body + 4, bus_bits);
    storeWord32(body + 8, meta_wires);
    storeWord32(body + 12, static_cast<std::uint32_t>(meta_bytes));
    storeWord64(body + 16, count);
    storeWord64(body + 24, input_ones);
    storeWord64(body + 32, payload_ones);
    storeWord64(body + 40, meta_ones);
    if (entry->adaptive != nullptr)
        exportAdaptive(*entry, request.streamId);

    if (telemetry::metricsEnabled()) {
        txEncoded_.pending += count;
        entry->onesIn.pending += input_ones;
        entry->onesOut.pending += ones_out;
        entry->onesRemoved.pending +=
            input_ones > ones_out ? input_ones - ones_out : 0;
        markDirty(*entry, dirtyEntries_);
        // Per-tenant accounting: stream-tagged encodes telescope to the
        // aggregate counters (sum over streams == bxt.server.tx_encoded
        // when every request carries a tag).
        if (StreamCounters *stream = memo.counters) {
            stream->txEncoded.pending += count;
            stream->onesIn.pending += input_ones;
            stream->onesOut.pending += ones_out;
        }
    }
}

void
Service::handleDecode(const wire::FrameView &request, Reply &reply,
                      StreamMemo &memo)
{
    wire::BodyReader reader(request.body.data(), request.body.size());
    std::uint32_t tx_bytes = 0;
    std::uint32_t bus_bits = 0;
    std::uint32_t meta_wires = 0;
    std::uint32_t meta_bytes = 0;
    std::uint64_t count = 0;
    if (!reader.u32(tx_bytes) || !reader.u32(bus_bits) ||
        !reader.u32(meta_wires) || !reader.u32(meta_bytes) ||
        !reader.u64(count)) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "decode: truncated request header", reply);
    }
    const std::string geometry = validateGeometry(tx_bytes, bus_bits);
    if (!geometry.empty()) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "decode: " + geometry, reply);
    }
    if (count > wire::maxTxPerRequest) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "decode: count " + std::to_string(count) +
                                 " exceeds " +
                                 std::to_string(wire::maxTxPerRequest),
                             reply);
    }

    std::string err;
    Entry *entry = entryFor(request.spec, tx_bytes, bus_bits, memo, err);
    if (entry == nullptr)
        return errorResponse(wire::ErrorCode::BadSpec, err, reply);

    const unsigned codec_meta_wires = entry->metaWires;
    const std::size_t meta_bits =
        metaBitsPerTx(tx_bytes, bus_bits, codec_meta_wires);
    const std::size_t expected_meta_bytes = (meta_bits + 7) / 8;
    // The codec reads metaBitsPerTx bits per transaction from the plane
    // sized below, so that must be the geometry's count too.
    if (meta_wires != codec_meta_wires ||
        meta_bytes != expected_meta_bytes ||
        entry->metaBits != meta_bits) {
        return errorResponse(
            wire::ErrorCode::Malformed,
            "decode: metadata geometry does not match codec '" +
                std::string(request.spec) + "' (expects " +
                std::to_string(codec_meta_wires) + " wires/beat)",
            reply);
    }
    if (reader.remaining() !=
        count * (static_cast<std::uint64_t>(tx_bytes) + meta_bytes)) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "decode: body size does not match count",
                             reply);
    }

    const std::uint8_t *payloads = nullptr;
    const std::uint8_t *metas = nullptr;
    reader.view(payloads, count * tx_bytes); // Sizes pre-validated above.
    reader.view(metas, count * meta_bytes);

    // The metadata unpacks into a scratch plane; the codec reads the
    // payloads where the parser left them and writes the decoded plane
    // straight into the reply.
    entry->scratchMeta.resizeForOverwrite(count * meta_bits);
    std::uint8_t *meta = entry->scratchMeta.data();
    if (meta_bytes != 0)
        simd::ops().unpackBits(meta, metas, count, meta_bits, meta_bytes);
    const std::string_view spec =
        entry->adaptive != nullptr ? announceAdaptive(*entry)
                                   : request.spec;
    const std::size_t body_bytes = decodeReplyHeaderBytes + count * tx_bytes;
    std::uint8_t *body =
        reply.begin(wire::Opcode::Decode, spec, body_bytes).claim(body_bytes);
    storeWord32(body, tx_bytes);
    storeWord64(body + 4, count);
    entry->codec->decodeBatch(EncodedView{payloads, meta, count, tx_bytes},
                              body + decodeReplyHeaderBytes);
    if (entry->adaptive != nullptr)
        exportAdaptive(*entry, request.streamId);

    if (telemetry::metricsEnabled())
        txDecoded_.pending += count;
}

void
Service::handleStats(wire::Opcode opcode, Reply &reply)
{
    // The provider is the fleet-wide merged view when sharded; a bare
    // Service answers from its own registry. Either way this shard's
    // requests so far, this one included, count in it.
    publish();
    std::string doc = stats_provider_ ? stats_provider_()
                                      : telemetry::snapshotJson(reg_, false);
    if (opcode == wire::Opcode::Snapshot) {
        // The live-introspection op (bxt_top): the same document plus
        // the server clock, so pollers can compute rates from counter
        // deltas without trusting their own timestamps.
        JsonWriter w(false);
        w.beginObject();
        w.kv("uptime_us", telemetry::nowMicros());
        w.kvRaw("metrics", doc);
        w.endObject();
        doc = w.str();
    }
    reply.begin(opcode, {}, doc.size())
        .bytes(reinterpret_cast<const std::uint8_t *>(doc.data()),
               doc.size());
}

void
Service::serve(const wire::FrameView &request, Reply &reply)
{
    // The request's stream slot: its tenant counters, resolved once per
    // stream, and the entry its codec requests resolve.
    StreamMemo &memo = memoFor(request.streamId);
    if (telemetry::metricsEnabled()) {
        ++requests_.pending;
        if (request.streamId != 0) {
            if (memo.counters == nullptr)
                memo.counters = &streamCounters(request.streamId);
            ++memo.counters->requests.pending;
            markDirty(*memo.counters, dirtyStreams_);
        }
    }

    try {
        switch (request.opcode) {
        case wire::Opcode::Ping:
            reply.begin(wire::Opcode::Ping, {}, 0);
            break;
        case wire::Opcode::Encode:
            handleEncode(request, reply, memo);
            break;
        case wire::Opcode::Decode:
            handleDecode(request, reply, memo);
            break;
        case wire::Opcode::Stats:
        case wire::Opcode::Snapshot:
            handleStats(request.opcode, reply);
            break;
        case wire::Opcode::Error:
            errorResponse(wire::ErrorCode::Malformed,
                          "error frames are response-only", reply);
            break;
        default:
            errorResponse(
                wire::ErrorCode::UnknownOpcode,
                "unknown opcode " +
                    std::to_string(static_cast<unsigned>(request.opcode)),
                reply);
            break;
        }
    } catch (const CodecSizeError &e) {
        // Geometry the codec rejects (e.g. xor8 on an 8-byte transaction)
        // is a client mistake, not a server fault.
        errorResponse(wire::ErrorCode::Malformed, e.what(), reply);
    } catch (const std::exception &e) {
        errorResponse(wire::ErrorCode::Internal, e.what(), reply);
    } catch (...) {
        errorResponse(wire::ErrorCode::Internal, "unknown exception",
                      reply);
    }
}

void
Service::handle(const wire::FrameView &request, ByteBuffer &out)
{
    Reply reply(out, request);
    serve(request, reply);
    reply.finish();
}

wire::Frame
Service::handle(const wire::Frame &request)
{
    const wire::FrameView view = request.view();
    wrapped_reply_.clear();
    Reply reply(wrapped_reply_, view);
    serve(view, reply);
    publish();
    wire::Frame response;
    response.assign(reply.view());
    return response;
}

std::uint32_t
requestTxCount(const wire::FrameView &request)
{
    // Encode bodies lead with u32 txBytes, u32 busBits; Decode bodies
    // add u32 metaWires, u32 metaBytes. Both are followed by the u64
    // count this reads (wire.h body tables).
    std::size_t lead_u32s = 0;
    switch (request.opcode) {
    case wire::Opcode::Encode:
        lead_u32s = 2;
        break;
    case wire::Opcode::Decode:
        lead_u32s = 4;
        break;
    default:
        return 0;
    }
    wire::BodyReader reader(request.body.data(), request.body.size());
    std::uint32_t skipped = 0;
    for (std::size_t i = 0; i < lead_u32s; ++i) {
        if (!reader.u32(skipped))
            return 0;
    }
    std::uint64_t count = 0;
    if (!reader.u64(count))
        return 0;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(count, wire::maxTxPerRequest));
}

} // namespace bxt::server
