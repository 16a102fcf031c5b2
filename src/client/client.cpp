#include "client/client.h"

#include <cstdlib>

#include "common/cli.h"

namespace bxt::client {

namespace {

/** Most bytes one read takes from the socket into the parser. */
constexpr std::size_t readChunkBytes = 64 * 1024;

/**
 * Split a reply's spec field into the announced concrete spec and the
 * switch epoch. Concrete-spec replies echo the request spec with no
 * ';' marker — announced = the whole field, epoch = 0.
 */
void
parseAnnouncement(std::string_view reply_spec, std::string &announced,
                  std::uint64_t &epoch)
{
    epoch = 0;
    const std::size_t semi = reply_spec.find(';');
    announced = reply_spec.substr(0, semi);
    if (semi == std::string_view::npos)
        return;
    const std::string tail(reply_spec.substr(semi + 1));
    if (tail.rfind("epoch=", 0) == 0)
        epoch = std::strtoull(tail.c_str() + 6, nullptr, 10);
}

} // namespace

bool
readReply(int fd, wire::FrameParser &parser, wire::FrameView &reply,
          wire::ErrorCode &code, std::string &err)
{
    code = wire::ErrorCode::None;
    for (;;) {
        wire::WireError parse_err;
        const wire::FrameParser::Status st = parser.next(reply, parse_err);
        if (st == wire::FrameParser::Status::Bad) {
            err = "response stream corrupt (" +
                  wire::errorCodeName(parse_err.code) +
                  "): " + parse_err.detail;
            return false;
        }
        if (st == wire::FrameParser::Status::Ready)
            break;
        const long n = net::readSome(fd, parser.prepareRead(readChunkBytes),
                                     readChunkBytes, err);
        if (n < 0)
            return false;
        if (n == 0) {
            err = "server closed the connection";
            return false;
        }
        parser.commitRead(static_cast<std::size_t>(n));
    }
    if (reply.opcode != wire::Opcode::Error)
        return true;
    std::string message;
    if (!wire::parseErrorFrame(reply, code, message)) {
        err = "malformed error frame from server";
        return false;
    }
    err = wire::errorCodeName(code) + ": " + message;
    return false;
}

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

wire::BodyWriter
Client::beginRequest(wire::Opcode opcode, std::string_view spec,
                     std::size_t body_bytes)
{
    head_.opcode = opcode;
    head_.spec = spec; // Copied by beginFrame, then never read.
    request_.clear();
    wire::beginFrame(request_, head_, body_bytes);
    return wire::BodyWriter(request_, request_.size(), body_bytes);
}

bool
Client::send(std::string &err)
{
    last_error_ = wire::ErrorCode::None;
    if (!connected()) {
        err = "not connected";
        return false;
    }
    wire::finishFrame(request_, 0);
    return net::writeAll(fd_.get(), request_.data(), request_.size(), err);
}

bool
Client::receive(wire::Opcode opcode, wire::FrameView &reply,
                std::string &err)
{
    if (!readReply(fd_.get(), parser_, reply, last_error_, err))
        return false;
    if (reply.opcode != opcode) {
        err = "response opcode does not match request";
        return false;
    }
    return true;
}

bool
Client::roundTrip(wire::FrameView &reply, std::string &err)
{
    return send(err) && receive(head_.opcode, reply, err);
}

bool
Client::ping(std::string &err)
{
    beginRequest(wire::Opcode::Ping, {}, 0);
    wire::FrameView reply;
    return roundTrip(reply, err);
}

bool
Client::encode(const std::string &spec, std::uint32_t tx_bytes,
               std::uint32_t bus_bits, std::span<const std::uint8_t> raw,
               EncodeResult &out, std::string &err)
{
    return sendEncode(spec, tx_bytes, bus_bits, raw, err) &&
           readEncode(out, err);
}

bool
Client::sendEncode(std::string_view spec, std::uint32_t tx_bytes,
                   std::uint32_t bus_bits, std::span<const std::uint8_t> raw,
                   std::string &err)
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

    wire::BodyWriter body =
        beginRequest(wire::Opcode::Encode, spec, 16 + raw.size());
    body.u32(tx_bytes);
    body.u32(bus_bits);
    body.u64(count);
    body.bytes(raw.data(), raw.size());
    return send(err);
}

bool
Client::readEncode(EncodeResult &out, std::string &err)
{
    wire::FrameView reply;
    if (!receive(wire::Opcode::Encode, reply, err))
        return false;

    wire::BodyReader reader(reply.body.data(), reply.body.size());
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
    parseAnnouncement(reply.spec, out.announcedSpec, out.switchEpoch);
    return true;
}

bool
Client::decode(const std::string &spec, const EncodeResult &enc,
               DecodeResult &out, std::string &err)
{
    wire::BodyWriter body =
        beginRequest(wire::Opcode::Decode, spec,
                     24 + enc.payloads.size() + enc.meta.size());
    body.u32(enc.txBytes);
    body.u32(enc.busBits);
    body.u32(enc.metaWiresPerBeat);
    body.u32(enc.metaBytesPerTx);
    body.u64(enc.count);
    body.bytes(enc.payloads.data(), enc.payloads.size());
    body.bytes(enc.meta.data(), enc.meta.size());

    wire::FrameView reply;
    if (!roundTrip(reply, err))
        return false;

    wire::BodyReader reader(reply.body.data(), reply.body.size());
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
    parseAnnouncement(reply.spec, out.announcedSpec, out.switchEpoch);
    return true;
}

bool
Client::fetchText(wire::Opcode opcode, std::string &text, std::string &err)
{
    beginRequest(opcode, {}, 0);
    wire::FrameView reply;
    if (!roundTrip(reply, err))
        return false;
    text.assign(reinterpret_cast<const char *>(reply.body.data()),
                reply.body.size());
    return true;
}

bool
Client::stats(std::string &json, std::string &err)
{
    return fetchText(wire::Opcode::Stats, json, err);
}

bool
Client::snapshot(std::string &json, std::string &err)
{
    return fetchText(wire::Opcode::Snapshot, json, err);
}

void
addEndpointOptions(Cli &cli, Endpoint &endpoint)
{
    cli.add("--tcp", "HOST:PORT", "connect over TCP",
            [&cli, &endpoint](const std::string &v) {
                if (!parseHostPort(v, endpoint.host, endpoint.port))
                    cli.reject("--tcp", v, "HOST:PORT");
            });
    cli.add("--unix", "PATH", "connect over a Unix-domain socket",
            [&endpoint](const std::string &v) { endpoint.unixPath = v; });
}

Client
connect(const Endpoint &endpoint, std::string &err)
{
    if (!endpoint.unixPath.empty())
        return Client::connectUnix(endpoint.unixPath, err);
    return Client::connectTcp(endpoint.host, endpoint.port, err);
}

} // namespace bxt::client
