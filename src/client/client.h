/**
 * @file
 * The bxtd client library: a blocking, single-connection wrapper over the
 * framed wire protocol (server/wire.h). One Client is one connection; it
 * is not thread-safe (open one per thread).
 *
 * Codec state is not per connection: a bxtd shard keeps one codec per
 * spec, geometry and stream id for its whole life, shared by every
 * connection it serves. A stateful codec such as `bd` round-trips only
 * while one client uses that key on that shard; another client's
 * encodes in between corrupt the first one's later decodes.
 *
 * All calls return false with a human-readable @p err on failure. Typed
 * server errors (Error frames) additionally set lastErrorCode(), so tools
 * can distinguish `busy` (retry later) from `bad-spec` (give up).
 */

#ifndef BXT_CLIENT_CLIENT_H
#define BXT_CLIENT_CLIENT_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "server/net.h"
#include "server/wire.h"

namespace bxt {
class Cli;
}

namespace bxt::client {

/** One Encode response, decoded from the wire body. */
struct EncodeResult
{
    std::uint32_t txBytes = 0;
    std::uint32_t busBits = 0;
    std::uint32_t metaWiresPerBeat = 0;
    std::uint32_t metaBytesPerTx = 0;
    std::uint64_t count = 0;

    std::uint64_t inputOnes = 0;   ///< 1-bits across the raw inputs.
    std::uint64_t payloadOnes = 0; ///< 1-bits across encoded payloads.
    std::uint64_t metaOnes = 0;    ///< 1-values on metadata wires.

    std::vector<std::uint8_t> payloads; ///< count * txBytes bytes.
    std::vector<std::uint8_t> meta;     ///< count * metaBytesPerTx bytes.

    /**
     * The concrete spec the server announced on this reply. For a
     * concrete request spec this is that spec echoed back; for an
     * `adaptive` request it is the per-stream controller's current
     * choice (the codec that actually produced the payloads — decode
     * with this spec), with switchEpoch counting choice switches so far.
     */
    std::string announcedSpec;
    std::uint64_t switchEpoch = 0;

    bool operator==(const EncodeResult &) const = default;
};

/** One Decode response. */
struct DecodeResult
{
    std::uint32_t txBytes = 0;
    std::vector<std::uint8_t> raw; ///< count * txBytes recovered bytes.

    /** Announced concrete spec + epoch (see EncodeResult). */
    std::string announcedSpec;
    std::uint64_t switchEpoch = 0;
};

/**
 * Block until the next reply on @p fd is complete in @p parser, reading
 * straight into the parser's buffer, and view it in @p reply (valid
 * until the next call). An Error frame fails with @p code set and err =
 * "<code-name>: <message>"; every other failure (closed peer, corrupt
 * stream, Error body too short for a code) leaves @p code None.
 */
bool readReply(int fd, wire::FrameParser &parser, wire::FrameView &reply,
               wire::ErrorCode &code, std::string &err);

/**
 * Append one whole Encode request to @p out: @p raw (a whole number of
 * @p tx_bytes-sized transactions, at most wire::maxTxPerRequest) under
 * @p head's spec, stream id and trace context. False with @p err, and
 * nothing written, when @p raw is not such a batch.
 */
bool writeEncodeFrame(ByteBuffer &out, wire::FrameView head,
                      std::uint32_t tx_bytes, std::uint32_t bus_bits,
                      std::span<const std::uint8_t> raw, std::string &err);

/**
 * Read an Encode @p reply's geometry, count and ones tallies into @p out
 * and check its body's size, copying no payload: out's payloads, meta
 * and announcement are left as they were.
 */
bool readEncodeHead(const wire::FrameView &reply, EncodeResult &out,
                    std::string &err);

/** readEncodeHead, then copy the payloads, metadata and announced spec
 *  into @p out: the whole reply. */
bool readEncodeReply(const wire::FrameView &reply, EncodeResult &out,
                     std::string &err);

/** A blocking connection to a bxtd server. */
class Client
{
  public:
    Client() = default;

    /** Connect over TCP (IPv4 literal host). Invalid client on failure. */
    static Client connectTcp(const std::string &host, int port,
                             std::string &err);

    /** Connect over a Unix-domain socket. */
    static Client connectUnix(const std::string &path, std::string &err);

    bool connected() const { return fd_.valid(); }

    /**
     * Tag every subsequent request with @p stream_id (a tenant/stream
     * identity; 0 reverts to untagged). The server echoes the tag and
     * keys its per-tenant telemetry (`bxt.server.stream.<id>.*`) by it.
     */
    void setStreamId(std::uint16_t stream_id) { head_.streamId = stream_id; }

    /** Liveness probe. */
    bool ping(std::string &err);

    /** Send the Encode request writeEncodeFrame builds from @p spec,
     *  @p tx_bytes, @p bus_bits and @p raw, and read its whole reply. */
    bool encode(const std::string &spec, std::uint32_t tx_bytes,
                std::uint32_t bus_bits, std::span<const std::uint8_t> raw,
                EncodeResult &out, std::string &err);

    /** Decode a previous EncodeResult back to raw transactions. */
    bool decode(const std::string &spec, const EncodeResult &enc,
                DecodeResult &out, std::string &err);

    /** Fetch the server's telemetry snapshot JSON. */
    bool stats(std::string &json, std::string &err);

    /**
     * Fetch the live-introspection document (Snapshot opcode):
     * `{"uptime_us":…,"metrics":<schema-2 snapshot>}`. The server clock
     * lets pollers (bxt_top) turn counter deltas into rates.
     */
    bool snapshot(std::string &json, std::string &err);

    /** Typed code from the last Error frame (None when the last call
     *  succeeded or failed below the protocol layer). */
    wire::ErrorCode lastErrorCode() const { return last_error_; }

    /**
     * The underlying socket, for callers that speak the raw wire (the
     * server tests). Mixing raw I/O with the request/response methods
     * on the same Client is undefined.
     */
    int rawFd() const { return fd_.get(); }

    /** Write the whole request @p frame and return without waiting:
     *  sends may run ahead of their replies, which come in order. */
    bool send(std::span<const std::uint8_t> frame, std::string &err);

    /** Read the oldest unread reply, which must answer @p opcode, into
     *  @p reply: a view valid until the next receive. */
    bool receive(wire::Opcode opcode, wire::FrameView &reply,
                 std::string &err);

  private:
    /** Start a request in request_, tagged with the stream id; returns
     *  the writer for its @p body_bytes body. */
    wire::BodyWriter beginRequest(wire::Opcode opcode, std::string_view spec,
                                  std::size_t body_bytes);

    /** Finish the request beginRequest started, send() it, then
     *  receive() its reply. */
    bool roundTrip(wire::FrameView &reply, std::string &err);

    /** roundTrip an empty @p opcode request whose reply is text. */
    bool fetchText(wire::Opcode opcode, std::string &text, std::string &err);

    net::UniqueFd fd_;
    wire::FrameParser parser_;
    ByteBuffer request_; ///< One request frame, reused.
    wire::FrameView head_; ///< Stream tag and last opcode.
    wire::ErrorCode last_error_ = wire::ErrorCode::None;
};

/**
 * A tool's server address: --unix PATH, or --tcp HOST:PORT when no
 * Unix path is given.
 */
struct Endpoint
{
    std::string unixPath;
    std::string host; ///< Empty without --tcp.
    int port = 0;

    bool set() const { return !unixPath.empty() || !host.empty(); }
};

/**
 * Register --tcp HOST:PORT and --unix PATH on @p cli, filling
 * @p endpoint. A --tcp value that is not HOST:PORT is refused at parse
 * time (exit 2, naming the flag).
 */
void addEndpointOptions(Cli &cli, Endpoint &endpoint);

/** Connect to @p endpoint (invalid client and @p err on failure). */
Client connect(const Endpoint &endpoint, std::string &err);

} // namespace bxt::client

#endif // BXT_CLIENT_CLIENT_H
