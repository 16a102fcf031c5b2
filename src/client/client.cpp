#include "client/client.h"

#include <cstdlib>

namespace bxt::client {

namespace {

/**
 * Split a reply's spec field into the announced concrete spec and the
 * switch epoch. Concrete-spec replies echo the request spec with no
 * ';' marker — announced = the whole field, epoch = 0.
 */
void
parseAnnouncement(const std::string &reply_spec, std::string &announced,
                  std::uint64_t &epoch)
{
    epoch = 0;
    const std::size_t semi = reply_spec.find(';');
    announced = reply_spec.substr(0, semi);
    if (semi == std::string::npos)
        return;
    const std::string tail = reply_spec.substr(semi + 1);
    if (tail.rfind("epoch=", 0) == 0)
        epoch = std::strtoull(tail.c_str() + 6, nullptr, 10);
}

} // namespace

Client
Client::connectTcp(const std::string &host, int port, std::string &err)
{
    Client client;
    client.fd_ = net::connectTcp(host, port, err);
    return client;
}

Client
Client::connectUnix(const std::string &path, std::string &err)
{
    Client client;
    client.fd_ = net::connectUnix(path, err);
    return client;
}

bool
Client::roundTrip(wire::Frame &request, wire::Frame &response,
                  std::string &err)
{
    last_error_ = wire::ErrorCode::None;
    if (!connected()) {
        err = "not connected";
        return false;
    }
    request.streamId = stream_id_;
    request.traceId = trace_id_;
    request.spanId = span_id_;
    request.traceSampled = trace_id_ != 0 && trace_sampled_;
    const std::vector<std::uint8_t> bytes = wire::serializeFrame(request);
    if (!net::writeAll(fd_.get(), bytes.data(), bytes.size(), err))
        return false;

    std::uint8_t buf[64 * 1024];
    for (;;) {
        wire::WireError parse_err;
        const wire::FrameParser::Status st =
            parser_.next(response, parse_err);
        if (st == wire::FrameParser::Status::Bad) {
            err = "response stream corrupt (" +
                  wire::errorCodeName(parse_err.code) +
                  "): " + parse_err.detail;
            return false;
        }
        if (st == wire::FrameParser::Status::Ready)
            break;
        const long n = net::readSome(fd_.get(), buf, sizeof(buf), err);
        if (n < 0)
            return false;
        if (n == 0) {
            err = "server closed the connection";
            return false;
        }
        parser_.feed(buf, static_cast<std::size_t>(n));
    }

    if (response.opcode == wire::Opcode::Error) {
        std::string message;
        wire::ErrorCode code = wire::ErrorCode::None;
        if (!wire::parseErrorFrame(response, code, message)) {
            err = "malformed error frame from server";
            return false;
        }
        last_error_ = code;
        err = wire::errorCodeName(code) + ": " + message;
        return false;
    }
    if (response.opcode != request.opcode) {
        err = "response opcode does not match request";
        return false;
    }
    return true;
}

bool
Client::ping(std::string &err)
{
    wire::Frame request;
    request.opcode = wire::Opcode::Ping;
    wire::Frame response;
    return roundTrip(request, response, err);
}

bool
Client::encode(const std::string &spec, std::uint32_t tx_bytes,
               std::uint32_t bus_bits, std::span<const std::uint8_t> raw,
               EncodeResult &out, std::string &err)
{
    if (tx_bytes == 0 || raw.size() % tx_bytes != 0) {
        err = "raw size " + std::to_string(raw.size()) +
              " is not a whole number of " + std::to_string(tx_bytes) +
              "-byte transactions";
        return false;
    }
    const std::uint64_t count = raw.size() / tx_bytes;
    if (count > wire::maxTxPerRequest) {
        err = "count " + std::to_string(count) + " exceeds " +
              std::to_string(wire::maxTxPerRequest) +
              " transactions per request";
        return false;
    }

    wire::Frame request;
    request.opcode = wire::Opcode::Encode;
    request.spec = spec;
    wire::BodyWriter body(request.body);
    body.u32(tx_bytes);
    body.u32(bus_bits);
    body.u64(count);
    body.bytes(raw.data(), raw.size());

    wire::Frame response;
    if (!roundTrip(request, response, err))
        return false;

    wire::BodyReader reader(response.body);
    if (!reader.u32(out.txBytes) || !reader.u32(out.busBits) ||
        !reader.u32(out.metaWiresPerBeat) ||
        !reader.u32(out.metaBytesPerTx) || !reader.u64(out.count) ||
        !reader.u64(out.inputOnes) || !reader.u64(out.payloadOnes) ||
        !reader.u64(out.metaOnes)) {
        err = "truncated encode response header";
        return false;
    }
    const std::size_t payload_bytes = out.count * out.txBytes;
    const std::size_t meta_bytes = out.count * out.metaBytesPerTx;
    if (reader.remaining() != payload_bytes + meta_bytes) {
        err = "encode response body size mismatch";
        return false;
    }
    out.payloads.resize(payload_bytes);
    out.meta.resize(meta_bytes);
    reader.bytes(out.payloads.data(), payload_bytes);
    reader.bytes(out.meta.data(), meta_bytes);
    parseAnnouncement(response.spec, out.announcedSpec, out.switchEpoch);
    return true;
}

bool
Client::decode(const std::string &spec, const EncodeResult &enc,
               DecodeResult &out, std::string &err)
{
    wire::Frame request;
    request.opcode = wire::Opcode::Decode;
    request.spec = spec;
    wire::BodyWriter body(request.body);
    body.u32(enc.txBytes);
    body.u32(enc.busBits);
    body.u32(enc.metaWiresPerBeat);
    body.u32(enc.metaBytesPerTx);
    body.u64(enc.count);
    body.bytes(enc.payloads.data(), enc.payloads.size());
    body.bytes(enc.meta.data(), enc.meta.size());

    wire::Frame response;
    if (!roundTrip(request, response, err))
        return false;

    wire::BodyReader reader(response.body);
    std::uint64_t count = 0;
    if (!reader.u32(out.txBytes) || !reader.u64(count)) {
        err = "truncated decode response header";
        return false;
    }
    if (reader.remaining() != count * out.txBytes) {
        err = "decode response body size mismatch";
        return false;
    }
    out.raw.resize(count * out.txBytes);
    reader.bytes(out.raw.data(), out.raw.size());
    parseAnnouncement(response.spec, out.announcedSpec, out.switchEpoch);
    return true;
}

bool
Client::stats(std::string &json, std::string &err)
{
    wire::Frame request;
    request.opcode = wire::Opcode::Stats;
    wire::Frame response;
    if (!roundTrip(request, response, err))
        return false;
    json.assign(response.body.begin(), response.body.end());
    return true;
}

bool
Client::snapshot(std::string &json, std::string &err)
{
    wire::Frame request;
    request.opcode = wire::Opcode::Snapshot;
    wire::Frame response;
    if (!roundTrip(request, response, err))
        return false;
    json.assign(response.body.begin(), response.body.end());
    return true;
}

} // namespace bxt::client
