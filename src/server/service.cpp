#include "server/service.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <map>

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

} // namespace

class Service::Reply
{
  public:
    /** Fill @p frame's opcode, spec and body. */
    explicit Reply(wire::Frame &frame) : frame_(&frame) {}

    /** Append one frame to @p out that echoes @p request's stream tag
     *  and trace context. */
    Reply(std::vector<std::uint8_t> &out, const wire::FrameView &request)
        : out_(&out), request_(&request), start_(out.size())
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
        if (frame_ != nullptr) {
            frame_->opcode = opcode;
            frame_->spec.assign(spec);
            return wire::BodyWriter(frame_->body, 0, body_bytes);
        }
        out_->resize(start_);
        wire::FrameView head = *request_;
        head.opcode = opcode;
        head.spec = spec;
        wire::beginFrame(*out_, head, body_bytes);
        return wire::BodyWriter(*out_, out_->size(), body_bytes);
    }

    /** Close the reply begun last: in a wire buffer, patch its length
     *  and CRC32. */
    void finish()
    {
        if (out_ != nullptr && out_->size() > start_)
            wire::finishFrame(*out_, start_);
    }

  private:
    wire::Frame *frame_ = nullptr;
    std::vector<std::uint8_t> *out_ = nullptr;
    const wire::FrameView *request_ = nullptr;
    std::size_t start_ = 0;
};

Service::Service(telemetry::Registry *registry)
    : reg_(registry != nullptr ? *registry : telemetry::currentRegistry()),
      requests_(reg_.counter("bxt.server.requests")),
      errors_(reg_.counter("bxt.server.errors")),
      txEncoded_(reg_.counter("bxt.server.tx_encoded")),
      txDecoded_(reg_.counter("bxt.server.tx_decoded"))
{
}

Service::StreamCounters::StreamCounters(telemetry::Registry &reg,
                                        const std::string &base)
    : requests(reg.counter(base + ".requests")),
      txEncoded(reg.counter(base + ".tx_encoded")),
      onesIn(reg.counter(base + ".ones_in")),
      onesOut(reg.counter(base + ".ones_out"))
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

void
Service::errorResponse(wire::ErrorCode code, const std::string &detail,
                       Reply &reply)
{
    errors_.add(1);
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
                  std::uint32_t bus_bits, std::uint16_t stream_id,
                  std::string &err)
{
    // Concrete codecs are shared across streams; adaptive entries are
    // keyed per stream so each stream runs its own controller.
    const bool is_adaptive = adaptive::isAdaptiveSpec(spec);
    const std::uint16_t key_stream = is_adaptive ? stream_id : 0;
    auto it = codecs_.find(KeyView{spec, tx_bytes, bus_bits, key_stream});
    if (it != codecs_.end())
        return &it->second;

    const std::string spec_name(spec);
    CodecPtr codec = tryMakeCodec(spec_name, bus_bits / 8u, err);
    if (!codec)
        return nullptr;
    Entry entry;
    entry.codec = std::move(codec);
    // Every instrument a request on this entry records is resolved here,
    // once, so the request path never builds a metric name or takes the
    // registry mutex.
    const std::string base =
        "bxt.server." + telemetry::sanitizeMetricName(spec_name);
    entry.onesInCounter = &reg_.counter(base + ".ones_in");
    entry.onesOutCounter = &reg_.counter(base + ".ones_out");
    entry.onesRemovedCounter = &reg_.counter(base + ".ones_removed");
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
    return &codecs_
                .emplace(Key{spec_name, tx_bytes, bus_bits, key_stream},
                         std::move(entry))
                .first->second;
}

std::string_view
Service::announceAdaptive(Entry &entry, std::uint16_t stream_id)
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

    if (!telemetry::metricsEnabled() || stream_id == 0)
        return announced_;
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
    return announced_;
}

void
Service::handleEncode(const wire::FrameView &request, Reply &reply,
                      StreamCounters *stream)
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
    Entry *entry =
        entryFor(request.spec, tx_bytes, bus_bits, request.streamId, err);
    if (entry == nullptr)
        return errorResponse(wire::ErrorCode::BadSpec, err, reply);

    const unsigned meta_wires = entry->codec->metaWiresPerBeat();
    const std::size_t meta_bits =
        metaBitsPerTx(tx_bytes, bus_bits, meta_wires);
    const std::size_t meta_bytes = (meta_bits + 7) / 8;

    // The whole request body becomes one TxBatch (a single plane copy)
    // and one encodeBatch call — the codec's batch kernel does the rest.
    const std::uint8_t *raw = nullptr;
    reader.view(raw, count * tx_bytes); // Size pre-validated above.
    TxBatch &batch = entry->scratchIn;
    batch.reset(tx_bytes);
    batch.append(raw, count);
    EncodedBatch &enc = entry->scratchEnc;
    entry->codec->encodeBatch(batch, enc);
    if (count != 0 && enc.metaBitsPerTx() != meta_bits) {
        return errorResponse(
            wire::ErrorCode::Internal,
            "encode: codec produced " +
                std::to_string(enc.metaBitsPerTx()) +
                " metadata bits/tx, geometry expects " +
                std::to_string(meta_bits),
            reply);
    }

    // The ones tallies travel in the response so clients can print
    // ones-on-bus deltas without re-popcounting payloads.
    const std::uint64_t input_ones = batch.ones();
    const std::uint64_t payload_ones = enc.payloadOnes();
    const std::uint64_t meta_ones = enc.metaOnes();
    const std::uint64_t ones_out = payload_ones + meta_ones;

    const std::string_view spec =
        entry->adaptive != nullptr
            ? announceAdaptive(*entry, request.streamId)
            : request.spec;
    wire::BodyWriter writer =
        reply.begin(wire::Opcode::Encode, spec,
                    encodeReplyHeaderBytes +
                        count * (tx_bytes + meta_bytes));
    writer.u32(tx_bytes);
    writer.u32(bus_bits);
    writer.u32(meta_wires);
    writer.u32(static_cast<std::uint32_t>(meta_bytes));
    writer.u64(count);
    writer.u64(input_ones);
    writer.u64(payload_ones);
    writer.u64(meta_ones);
    writer.bytes(enc.payloadData(), enc.payloadBytes());
    if (meta_bytes != 0) {
        simd::ops().packBits(writer.claim(count * meta_bytes),
                             enc.metaData(), count, meta_bits, meta_bytes);
    }

    if (telemetry::metricsEnabled()) {
        txEncoded_.add(count);
        entry->onesInCounter->add(input_ones);
        entry->onesOutCounter->add(ones_out);
        entry->onesRemovedCounter->add(
            input_ones > ones_out ? input_ones - ones_out : 0);
        // Per-tenant accounting: stream-tagged encodes telescope to the
        // aggregate counters (sum over streams == bxt.server.tx_encoded
        // when every request carries a tag).
        if (stream != nullptr) {
            stream->txEncoded.add(count);
            stream->onesIn.add(input_ones);
            stream->onesOut.add(ones_out);
        }
    }
    entry->onesIn += input_ones;
    entry->onesOut += ones_out;
}

void
Service::handleDecode(const wire::FrameView &request, Reply &reply)
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
    Entry *entry =
        entryFor(request.spec, tx_bytes, bus_bits, request.streamId, err);
    if (entry == nullptr)
        return errorResponse(wire::ErrorCode::BadSpec, err, reply);

    const unsigned codec_meta_wires = entry->codec->metaWiresPerBeat();
    const std::size_t meta_bits =
        metaBitsPerTx(tx_bytes, bus_bits, codec_meta_wires);
    const std::size_t expected_meta_bytes = (meta_bits + 7) / 8;
    if (meta_wires != codec_meta_wires ||
        meta_bytes != expected_meta_bytes) {
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

    // Rebuild the encoded batch (payload plane copy + one metadata plane
    // unpack, both overwriting every byte) and decode it with one
    // decodeBatch call.
    EncodedBatch &enc = entry->scratchEnc;
    enc.configure(tx_bytes, codec_meta_wires, meta_bits);
    enc.resizeForOverwrite(count);
    if (count != 0)
        std::memcpy(enc.payloadData(), payloads, count * tx_bytes);
    if (meta_bytes != 0) {
        simd::ops().unpackBits(enc.metaData(), metas, count, meta_bits,
                               meta_bytes);
    }
    TxBatch &decoded = entry->scratchOut;
    entry->codec->decodeBatch(enc, decoded);

    const std::string_view spec =
        entry->adaptive != nullptr
            ? announceAdaptive(*entry, request.streamId)
            : request.spec;
    wire::BodyWriter writer =
        reply.begin(wire::Opcode::Decode, spec,
                    decodeReplyHeaderBytes + decoded.planeBytes());
    writer.u32(tx_bytes);
    writer.u64(count);
    writer.bytes(decoded.data(), decoded.planeBytes());

    if (telemetry::metricsEnabled())
        txDecoded_.add(count);
}

void
Service::handleStats(Reply &reply)
{
    // The provider is the fleet-wide merged view when sharded; a bare
    // Service answers from its own registry.
    const std::string snapshot = stats_provider_
                                     ? stats_provider_()
                                     : telemetry::snapshotJson(reg_, false);
    reply.begin(wire::Opcode::Stats, {}, snapshot.size())
        .bytes(reinterpret_cast<const std::uint8_t *>(snapshot.data()),
               snapshot.size());
}

void
Service::handleSnapshot(Reply &reply)
{
    // The live-introspection op (bxt_top): the full schema-2 telemetry
    // document plus the server clock, so pollers can compute rates from
    // counter deltas without trusting their own timestamps.
    JsonWriter w(false);
    w.beginObject();
    w.kv("uptime_us", telemetry::nowMicros());
    w.kvRaw("metrics", stats_provider_
                           ? stats_provider_()
                           : telemetry::snapshotJson(reg_, false));
    w.endObject();
    const std::string body = w.str();
    reply.begin(wire::Opcode::Snapshot, {}, body.size())
        .bytes(reinterpret_cast<const std::uint8_t *>(body.data()),
               body.size());
}

void
Service::serve(const wire::FrameView &request, Reply &reply)
{
    requests_.add(1);
    // The request's tenant counters, looked up once for the whole
    // request.
    StreamCounters *stream =
        telemetry::metricsEnabled() && request.streamId != 0
            ? &streamCounters(request.streamId)
            : nullptr;
    if (stream != nullptr)
        stream->requests.add(1);

    try {
        switch (request.opcode) {
        case wire::Opcode::Ping:
            reply.begin(wire::Opcode::Ping, {}, 0);
            break;
        case wire::Opcode::Encode:
            handleEncode(request, reply, stream);
            break;
        case wire::Opcode::Decode:
            handleDecode(request, reply);
            break;
        case wire::Opcode::Stats:
            handleStats(reply);
            break;
        case wire::Opcode::Snapshot:
            handleSnapshot(reply);
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
    reply.finish();
}

void
Service::handle(const wire::FrameView &request,
                std::vector<std::uint8_t> &out)
{
    Reply reply(out, request);
    serve(request, reply);
}

void
Service::handle(const wire::Frame &request, wire::Frame &response)
{
    Reply reply(response);
    serve(request.view(), reply);
    // Echo the stream tag so pipelining clients can demux responses,
    // and the trace context so traced clients can stitch client-side
    // spans onto the same trace. (The in-place form echoes them in the
    // header it writes.)
    response.streamId = request.streamId;
    response.traceId = request.traceId;
    response.spanId = request.spanId;
    response.traceSampled = request.traceSampled;
}

wire::Frame
Service::handle(const wire::Frame &request)
{
    wire::Frame response;
    handle(request, response);
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
