/**
 * @file
 * The bxtd framed wire protocol (DESIGN.md §10). Every message — request
 * or response, TCP or Unix-domain — is one length-prefixed, CRC32-checked
 * frame:
 *
 *   offset  size  field
 *        0     4  magic "BXTP"
 *        4     1  version (wireVersion or wireVersionTraced)
 *        5     1  opcode
 *        6     2  streamId  (little-endian; 0 = untagged)
 *        8     4  specLen   (little-endian, <= maxSpecLen)
 *       12     4  bodyLen   (little-endian, <= maxBodyLen; a server
 *                           takes requests up to maxRequestBodyLen)
 *     [ 16     8  traceId   — version 2 frames only            ]
 *     [ 24     8  spanId    — version 2 frames only            ]
 *     [ 32     4  traceFlags — version 2 only; bit0 = sampled,  ]
 *     [                        all other bits must be zero      ]
 *        +  specLen  codec-spec string (UTF-8, no terminator)
 *        +  bodyLen  opcode-specific body
 *        +     4  CRC32 over everything above (header + spec + body)
 *
 * All integers are little-endian. A frame that fails any structural check
 * maps to a typed ErrorCode; the server answers with an Error frame and
 * closes the connection (framing cannot be trusted after a corrupt
 * header). Error frames carry `u32 code | message bytes` as their body.
 *
 * Trace context: a version-2 frame inserts a 20-byte trace block between
 * the fixed header and the spec, carrying a 64-bit traceId, a 64-bit
 * spanId, and a flags word whose bit 0 marks the request as sampled for
 * server-side span recording. Version-1 frames carry no block and parse
 * exactly as before, so pre-trace clients and servers interoperate
 * unchanged; a server echoes the request's trace context on its reply.
 * A version-2 frame with any reserved flag bit set is Malformed.
 *
 * Request bodies (u32/u64 little-endian, payloads byte-exact):
 *   Ping    —
 *   Encode  u32 txBytes | u32 busBits | u64 count | count·txBytes raw
 *   Decode  u32 txBytes | u32 busBits | u32 metaWiresPerBeat |
 *           u32 metaBytesPerTx | u64 count |
 *           count·txBytes payload | count·metaBytesPerTx packed meta
 *   Stats   —
 *
 * Response bodies:
 *   Ping    —
 *   Encode  u32 txBytes | u32 busBits | u32 metaWiresPerBeat |
 *           u32 metaBytesPerTx | u64 count | u64 inputOnes |
 *           u64 payloadOnes | u64 metaOnes |
 *           count·txBytes payload | count·metaBytesPerTx packed meta
 *   Decode  u32 txBytes | u64 count | count·txBytes raw
 *   Stats   telemetry snapshot JSON (schema 2) as bytes
 *   Snapshot `{"uptime_us":…,"metrics":<schema-2 snapshot>}` as bytes
 *
 * Metadata bits are packed LSB-first: metadata bit j of a transaction
 * (beat-major, as in Encoded::meta) lives in packed byte j/8, bit j%8.
 *
 * Stream ids: a client may tag each request with a 16-bit stream
 * (tenant) id; the server echoes it on the response and keys its
 * per-tenant request/ones telemetry (`bxt.server.stream.<id>.*`) by
 * it. Id 0 means untagged and carries no per-stream accounting —
 * which is also what every pre-streamId client sends, since the field
 * occupies the formerly-reserved-zero header bytes.
 *
 * Adaptive spec announcement: for a concrete spec the server echoes the
 * request's spec field verbatim on Encode/Decode replies. When the
 * request names the adaptive meta-codec (`adaptive`), the reply's
 * spec field instead carries stream metadata — the concrete spec the
 * per-stream controller currently selects plus its switch epoch, as
 * `<concrete-spec>;epoch=<N>` (';' cannot occur in the spec grammar).
 * Clients decode cross-epoch payloads by sending a Decode under the
 * announced concrete spec; within one epoch a Decode under the adaptive
 * spec itself round-trips, since the choice only moves at encode-batch
 * boundaries. Only clients that asked for `adaptive` ever see the
 * announcement, so pre-adaptive clients are unaffected.
 */

#ifndef BXT_SERVER_WIRE_H
#define BXT_SERVER_WIRE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_buffer.h"

namespace bxt::wire {

/** Frame magic, little-endian "BXTP". */
constexpr std::uint32_t frameMagic = 0x50545842u;

/** Protocol version of an untraced frame. */
constexpr std::uint8_t wireVersion = 1;

/** Protocol version of a frame carrying a trace block. */
constexpr std::uint8_t wireVersionTraced = 2;

/** Fixed frame-header size (before trace block/spec/body/CRC). */
constexpr std::size_t headerBytes = 16;

/** Size of the version-2 trace block (traceId + spanId + flags). */
constexpr std::size_t traceBlockBytes = 20;

/** Trace-flags bit 0: record server-side spans for this request. */
constexpr std::uint32_t traceFlagSampled = 1u;

/** Trailing CRC32 size. */
constexpr std::size_t crcBytes = 4;

/** Upper bound on the codec-spec string. */
constexpr std::size_t maxSpecLen = 128;

/** Upper bound on a frame body (16 MiB). */
constexpr std::size_t maxBodyLen = 16u << 20;

/** Upper bound on transactions per Encode/Decode request. */
constexpr std::size_t maxTxPerRequest = 4096;

/** Metadata bytes per transaction that a full Decode request has room
 *  for: the most any canonical spec packs onto a 64-byte transaction.
 *  A wider pipeline fits fewer rows, and the service refuses an Encode
 *  whose reply would not fit back into one Decode. */
constexpr std::size_t maxMetaBytesPerTx = 8;

/** Message opcodes. Responses echo the request opcode (or Error). */
enum class Opcode : std::uint8_t {
    Ping = 1,   ///< Liveness probe; empty body both ways.
    Encode = 2, ///< Encode raw transactions under the frame's spec.
    Decode = 3, ///< Decode payload+metadata back to raw transactions.
    Stats = 4,  ///< Fetch the server's telemetry snapshot JSON.
    Snapshot = 5, ///< Fetch uptime + full live telemetry (bxt_top feed).
    Error = 0x7f, ///< Response-only: u32 ErrorCode + message bytes.
};

/** True when @p op is a value the protocol defines. */
bool opcodeKnown(std::uint8_t op);

/**
 * Largest body a well-formed request of @p op can have: an Encode or a
 * Decode of maxTxPerRequest 64-byte transactions, and 0 for the
 * bodiless opcodes (an Error is never a request).
 */
std::size_t maxRequestBodyLen(Opcode op);

/** Typed protocol/request failures (Error-frame body code). */
enum class ErrorCode : std::uint32_t {
    None = 0,
    BadMagic = 1,      ///< First 4 bytes are not "BXTP".
    BadVersion = 2,    ///< Unsupported protocol version.
    BadCrc = 3,        ///< CRC32 mismatch.
    UnknownOpcode = 4, ///< Opcode outside the defined set.
    FrameTooLarge = 5, ///< specLen/bodyLen above the protocol bounds.
    Malformed = 6,     ///< Reserved bits set or body fails validation.
    BadSpec = 7,       ///< Codec spec rejected by tryMakeCodec.
    Busy = 8,          ///< Accept queue full; retry later.
    ShuttingDown = 9,  ///< Server draining; connection closing.
    Internal = 10,     ///< Unexpected server-side failure.
};

/** Stable lower-case token for an error code (log/CLI output). */
std::string errorCodeName(ErrorCode code);

/**
 * A frame whose spec and body borrow the bytes they came from: a
 * FrameParser's buffer (valid until the parser's next read) or a Frame's
 * fields (Frame::view, valid while the Frame is unchanged).
 */
struct FrameView
{
    Opcode opcode = Opcode::Ping;
    std::uint16_t streamId = 0;
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    bool traceSampled = false;
    std::string_view spec;
    std::span<const std::uint8_t> body;

    bool traced() const { return traceId != 0; }
};

/**
 * A frame that owns its spec and body. Nothing that serves or sends
 * requests builds one: shards, the client library and bxt_loadgen write
 * frames in place (beginFrame, BodyWriter, finishFrame) and read them as
 * FrameViews. Frame, appendFrame/serializeFrame, FrameParser::feed and
 * next(Frame &) are kept for the benchmark's in-process replay
 * (perfbench/layers.cpp), the frame fuzzer and the tests.
 */
struct Frame
{
    Opcode opcode = Opcode::Ping;
    std::uint16_t streamId = 0;     ///< Tenant/stream tag (0 = none).
    std::uint64_t traceId = 0;      ///< Trace context id (0 = untraced).
    std::uint64_t spanId = 0;       ///< Caller's span id within traceId.
    bool traceSampled = false;      ///< Record server spans when set.
    std::string spec;               ///< Codec spec ("" when unused).
    std::vector<std::uint8_t> body; ///< Opcode-specific body bytes.

    /** True when the frame serializes with a version-2 trace block. */
    bool traced() const { return traceId != 0; }

    /** This frame's fields as a view. */
    FrameView view() const
    {
        return {opcode, streamId, traceId, spanId, traceSampled, spec, body};
    }

    /** Copy every field of @p view in; spec and body reuse capacity. */
    void assign(const FrameView &view);

    bool operator==(const Frame &other) const = default;
};

/** A typed parse/validation failure with a human-readable detail. */
struct WireError
{
    ErrorCode code = ErrorCode::None;
    std::string detail;
};

/**
 * Start a frame in place at the end of @p out: its header, trace block
 * and spec, taken from @p head (whose body is ignored), with room
 * reserved for a @p body_bytes body. The caller then appends the body
 * after them and calls finishFrame with the returned offset, which
 * patches the body length and appends the CRC32. A connection builds its
 * replies this way straight in its output buffer.
 */
std::size_t beginFrame(ByteBuffer &out, const FrameView &head,
                       std::size_t body_bytes);

/**
 * Finish the frame beginFrame started at @p start: every byte after its
 * spec is the body. Patches the body length and appends the CRC32.
 */
void finishFrame(ByteBuffer &out, std::size_t start);

/**
 * Append @p frame (header + spec + body + CRC32) to @p out: the bytes
 * beginFrame, one body copy and finishFrame would write. Replay and
 * tests only (see Frame).
 */
void appendFrame(std::vector<std::uint8_t> &out, const Frame &frame);

/** Serialize @p frame into a fresh buffer (appendFrame on an empty one). */
std::vector<std::uint8_t> serializeFrame(const Frame &frame);

/**
 * Append one untagged, untraced Error frame to @p out, in place: body
 * `u32 code | message`. The connection layer answers what no request
 * reached the service for (a parse error, Busy, ShuttingDown) with it.
 */
void appendErrorFrame(ByteBuffer &out, ErrorCode code,
                      std::string_view message);

/**
 * Interpret an Error frame's body. Returns false when @p frame is not an
 * Error frame or its body is shorter than the code field.
 */
bool parseErrorFrame(const FrameView &frame, ErrorCode &code,
                     std::string &message);

/**
 * Incremental frame parser: stream bytes are read straight into its
 * buffer (prepareRead, then commitRead) and next() drains complete
 * frames as views of it. Structural failures (bad magic,
 * version, oversized lengths, unknown opcode, CRC mismatch) are sticky —
 * framing is untrustworthy after corruption, so the connection must be
 * torn down after sending the typed error.
 */
class FrameParser
{
  public:
    enum class Status {
        NeedMore, ///< No complete frame buffered yet.
        Ready,    ///< A frame was produced.
        Bad,      ///< Typed error; parser is now stuck (failed()).
    };

    /** The body lengths a parser accepts: up to maxBodyLen (replies,
     *  whose Stats JSON can be large), or up to maxRequestBodyLen of
     *  the frame's opcode (a server's requests). Either is checked
     *  from the header, before any body byte is waited for. */
    enum class Bound { Reply, Request };

    explicit FrameParser(Bound bound = Bound::Reply) : bound_(bound) {}

    /**
     * Room for up to @p n more stream bytes at the returned pointer, for
     * the caller to read into; commitRead() then says how many arrived.
     * This is the only place the buffer moves: the parsed prefix is
     * dropped and the buffer grows here, which ends the life of every
     * view next() has handed out. New capacity is not zero-filled.
     * Once failed(), the bytes read are discarded.
     */
    std::uint8_t *prepareRead(std::size_t n);

    /** Take @p n bytes (at most the last prepareRead's) as read. */
    void commitRead(std::size_t n);

    /** Copy in @p n raw stream bytes (prepareRead + commitRead).
     *  Replay and tests only (see Frame). */
    void feed(const std::uint8_t *data, std::size_t n);

    /**
     * Try to extract the next complete frame into @p out, whose spec
     * and body point into the parser's buffer. They stay valid, and
     * unchanged, while later frames are parsed, until the next
     * prepareRead or feed. On Bad, @p err carries the typed error;
     * every later call repeats it. This is the one validation path.
     */
    Status next(FrameView &out, WireError &err);

    /** next() into an owning Frame: the view, then Frame::assign.
     *  Replay and tests only (see Frame). */
    Status next(Frame &out, WireError &err);

    /**
     * True when the next buffered frame's header is all here and marks
     * it traced and sampled: version 2, a nonzero traceId and the
     * sampled flag. Whether that frame is whole and valid is next()'s
     * to say. A shard reads its span clocks only for such requests.
     */
    bool nextSampled() const;

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t buffered() const { return buffer_.size() - consumed_; }

    /** True after a structural error; the stream cannot be re-synced. */
    bool failed() const { return error_.code != ErrorCode::None; }

  private:
    Status fail(ErrorCode code, const std::string &detail, WireError &err);

    ByteBuffer buffer_;
    std::size_t consumed_ = 0; ///< Prefix of buffer_ already parsed.
    WireError error_;
    Bound bound_;
};

/**
 * Little-endian body serializer (u32/u64/raw bytes), shared by the
 * service, the client library, and the tests.
 *
 * The body starts at @p offset of @p buffer (after the header for a
 * frame built in place by beginFrame) and the bytes before it are left
 * alone. The buffer is cut at @p offset, room for @p size bytes is
 * reserved, and every write appends. No byte is zero-filled first: a
 * raw copy lands as is, and claim() hands out bytes the caller must
 * overwrite. A reused buffer keeps its capacity.
 */
class BodyWriter
{
  public:
    BodyWriter(ByteBuffer &buffer, std::size_t offset, std::size_t size);

    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void bytes(const std::uint8_t *data, std::size_t n);
    /** The next @p n bytes, unspecified, for the caller to fill in
     *  place. */
    std::uint8_t *claim(std::size_t n);

  private:
    ByteBuffer &body_;
};

/**
 * Bounds-checked little-endian body reader. All accessors return false
 * once the body is exhausted; ok() stays false after the first failure.
 */
class BodyReader
{
  public:
    BodyReader(const std::uint8_t *data, std::size_t n)
        : data_(data), size_(n)
    {
    }

    bool u32(std::uint32_t &v);
    bool u64(std::uint64_t &v);
    bool bytes(std::uint8_t *out, std::size_t n);
    /** Borrow @p n bytes in place (valid while the body lives). */
    bool view(const std::uint8_t *&out, std::size_t n);

    std::size_t remaining() const { return size_ - pos_; }
    bool ok() const { return ok_; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** Frame-parser fuzz outcome (tools/bxt_fuzz --frames). */
struct FrameFuzzReport
{
    std::uint64_t iterations = 0;
    std::uint64_t framesParsed = 0;   ///< Clean frames round-tripped.
    std::uint64_t errorsTyped = 0;    ///< Corruptions caught with a type.
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * Self-checking fuzz of the frame parser: generates valid frames, then
 * replays them clean (must round-trip byte-identically through
 * serialize→parse), chunked at random boundaries (must still round-trip),
 * truncated (must report NeedMore, never a frame), with random byte
 * corruptions (must yield a typed error or NeedMore, never a parsed
 * frame), and several to a stream read in chunks cut at random points
 * (every view must equal its source frame until the next read).
 * Deterministic per @p seed.
 */
FrameFuzzReport fuzzFrameParser(std::uint64_t seed,
                                std::uint64_t iterations);

} // namespace bxt::wire

#endif // BXT_SERVER_WIRE_H
