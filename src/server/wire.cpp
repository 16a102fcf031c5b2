#include "server/wire.h"

#include <algorithm>
#include <cstring>

#include "common/bitops.h"
#include "common/checksum.h"
#include "common/rng.h"

namespace bxt::wire {

bool
opcodeKnown(std::uint8_t op)
{
    switch (static_cast<Opcode>(op)) {
    case Opcode::Ping:
    case Opcode::Encode:
    case Opcode::Decode:
    case Opcode::Stats:
    case Opcode::Snapshot:
    case Opcode::Error:
        return true;
    }
    return false;
}

std::string
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::None: return "none";
    case ErrorCode::BadMagic: return "bad-magic";
    case ErrorCode::BadVersion: return "bad-version";
    case ErrorCode::BadCrc: return "bad-crc";
    case ErrorCode::UnknownOpcode: return "unknown-opcode";
    case ErrorCode::FrameTooLarge: return "frame-too-large";
    case ErrorCode::Malformed: return "malformed";
    case ErrorCode::BadSpec: return "bad-spec";
    case ErrorCode::Busy: return "busy";
    case ErrorCode::ShuttingDown: return "shutting-down";
    case ErrorCode::Internal: return "internal";
    }
    return "unknown-error-" +
           std::to_string(static_cast<std::uint32_t>(code));
}

std::size_t
beginFrame(std::vector<std::uint8_t> &out, const FrameView &head,
           std::size_t body_bytes)
{
    const std::size_t spec_len = head.spec.size();
    // Untraced frames stay byte-identical version-1 frames, so a client
    // that never sets a trace context interoperates with pre-trace
    // servers (and vice versa).
    const std::size_t trace_len = head.traced() ? traceBlockBytes : 0;
    const std::size_t start = out.size();
    const std::size_t prefix = headerBytes + trace_len + spec_len;
    // Room for the whole frame at once; doubling keeps a buffer that
    // collects many frames from reallocating for each.
    const std::size_t need = start + prefix + body_bytes + crcBytes;
    if (need > out.capacity())
        out.reserve(std::max(need, 2 * out.capacity()));
    out.resize(start + prefix);
    std::uint8_t *p = out.data() + start;

    storeWord32(p, frameMagic);
    p[4] = head.traced() ? wireVersionTraced : wireVersion;
    p[5] = static_cast<std::uint8_t>(head.opcode);
    p[6] = static_cast<std::uint8_t>(head.streamId & 0xff);
    p[7] = static_cast<std::uint8_t>(head.streamId >> 8);
    storeWord32(p + 8, static_cast<std::uint32_t>(spec_len));
    storeWord32(p + 12, 0); // Body length: patched by finishFrame.
    if (head.traced()) {
        storeWord64(p + 16, head.traceId);
        storeWord64(p + 24, head.spanId);
        storeWord32(p + 32, head.traceSampled ? traceFlagSampled : 0u);
    }
    if (spec_len > 0)
        std::memcpy(p + headerBytes + trace_len, head.spec.data(), spec_len);
    return start;
}

void
finishFrame(std::vector<std::uint8_t> &out, std::size_t start)
{
    std::uint8_t *p = out.data() + start;
    const std::size_t trace_len =
        p[4] == wireVersionTraced ? traceBlockBytes : 0;
    const std::size_t body_off = headerBytes + trace_len + loadWord32(p + 8);
    const std::size_t crc_off = out.size() - start;
    storeWord32(p + 12, static_cast<std::uint32_t>(crc_off - body_off));
    const std::uint32_t crc = crc32({p, crc_off});
    out.resize(out.size() + crcBytes);
    storeWord32(out.data() + start + crc_off, crc);
}

void
appendFrame(std::vector<std::uint8_t> &out, const Frame &frame)
{
    const std::size_t start =
        beginFrame(out, frame.view(), frame.body.size());
    out.insert(out.end(), frame.body.begin(), frame.body.end());
    finishFrame(out, start);
}

std::vector<std::uint8_t>
serializeFrame(const Frame &frame)
{
    std::vector<std::uint8_t> out;
    appendFrame(out, frame);
    return out;
}

void
appendErrorFrame(std::vector<std::uint8_t> &out, ErrorCode code,
                 std::string_view message)
{
    FrameView head;
    head.opcode = Opcode::Error;
    const std::size_t body_bytes = 4 + message.size();
    const std::size_t start = beginFrame(out, head, body_bytes);
    BodyWriter body(out, out.size(), body_bytes);
    body.u32(static_cast<std::uint32_t>(code));
    body.bytes(reinterpret_cast<const std::uint8_t *>(message.data()),
               message.size());
    finishFrame(out, start);
}

bool
parseErrorFrame(const FrameView &frame, ErrorCode &code,
                std::string &message)
{
    if (frame.opcode != Opcode::Error || frame.body.size() < 4)
        return false;
    code = static_cast<ErrorCode>(loadWord32(frame.body.data()));
    message.assign(reinterpret_cast<const char *>(frame.body.data()) + 4,
                   frame.body.size() - 4);
    return true;
}

void
Frame::assign(const FrameView &view)
{
    opcode = view.opcode;
    streamId = view.streamId;
    traceId = view.traceId;
    spanId = view.spanId;
    traceSampled = view.traceSampled;
    spec.assign(view.spec);
    body.assign(view.body.begin(), view.body.end());
}

std::uint8_t *
FrameParser::prepareRead(std::size_t n)
{
    // Drop the parsed prefix: at most one partial frame moves, since
    // the caller drained every complete frame before reading again.
    // A failed parser keeps nothing, so a peer that keeps sending after
    // a framing error cannot grow it.
    const std::size_t live = failed() ? 0 : buffered();
    if (consumed_ > 0 && live > 0)
        std::memmove(buffer_.data(), buffer_.data() + consumed_, live);
    buffer_.resizeForOverwrite(live);
    consumed_ = 0;
    // Grow geometrically, so a large frame arriving read by read is
    // copied O(1) times per byte.
    const std::size_t need = live + n;
    if (need > buffer_.capacity())
        buffer_.reserve(std::max(need, 2 * buffer_.capacity()));
    return buffer_.data() + live;
}

void
FrameParser::commitRead(std::size_t n)
{
    if (!failed())
        buffer_.resizeForOverwrite(buffer_.size() + n);
}

void
FrameParser::feed(const std::uint8_t *data, std::size_t n)
{
    if (failed() || n == 0)
        return;
    std::memcpy(prepareRead(n), data, n);
    commitRead(n);
}

FrameParser::Status
FrameParser::fail(ErrorCode code, const std::string &detail, WireError &err)
{
    error_ = {code, detail};
    err = error_;
    return Status::Bad;
}

FrameParser::Status
FrameParser::next(FrameView &out, WireError &err)
{
    if (failed()) {
        err = error_;
        return Status::Bad;
    }
    const std::uint8_t *base = buffer_.data() + consumed_;
    const std::size_t avail = buffered();
    if (avail < headerBytes)
        return Status::NeedMore;

    if (loadWord32(base) != frameMagic)
        return fail(ErrorCode::BadMagic, "frame magic is not 'BXTP'", err);
    if (base[4] != wireVersion && base[4] != wireVersionTraced) {
        return fail(ErrorCode::BadVersion,
                    "unsupported wire version " + std::to_string(base[4]),
                    err);
    }
    const std::size_t trace_len =
        base[4] == wireVersionTraced ? traceBlockBytes : 0;
    if (!opcodeKnown(base[5])) {
        return fail(ErrorCode::UnknownOpcode,
                    "unknown opcode " + std::to_string(base[5]), err);
    }
    const std::uint32_t spec_len = loadWord32(base + 8);
    const std::uint32_t body_len = loadWord32(base + 12);
    if (spec_len > maxSpecLen) {
        return fail(ErrorCode::FrameTooLarge,
                    "spec length " + std::to_string(spec_len) +
                        " exceeds " + std::to_string(maxSpecLen),
                    err);
    }
    if (body_len > maxBodyLen) {
        return fail(ErrorCode::FrameTooLarge,
                    "body length " + std::to_string(body_len) +
                        " exceeds " + std::to_string(maxBodyLen),
                    err);
    }

    const std::size_t total =
        headerBytes + trace_len + spec_len + body_len + crcBytes;
    if (avail < total)
        return Status::NeedMore;

    const std::uint32_t stored_crc = loadWord32(base + total - crcBytes);
    const std::uint32_t computed_crc = crc32({base, total - crcBytes});
    if (stored_crc != computed_crc)
        return fail(ErrorCode::BadCrc, "frame CRC32 mismatch", err);

    out.traceId = 0;
    out.spanId = 0;
    out.traceSampled = false;
    if (trace_len > 0) {
        const std::uint32_t flags = loadWord32(base + 32);
        if ((flags & ~traceFlagSampled) != 0) {
            return fail(ErrorCode::Malformed,
                        "reserved trace-flag bits set: " +
                            std::to_string(flags),
                        err);
        }
        out.traceId = loadWord64(base + 16);
        // traceId 0 means "no trace context"; canonicalize the whole
        // block away so re-serializing yields a version-1 frame.
        if (out.traceId != 0) {
            out.spanId = loadWord64(base + 24);
            out.traceSampled = (flags & traceFlagSampled) != 0;
        }
    }
    out.opcode = static_cast<Opcode>(base[5]);
    out.streamId = static_cast<std::uint16_t>(
        base[6] | (static_cast<std::uint16_t>(base[7]) << 8));
    const std::uint8_t *payload = base + headerBytes + trace_len;
    out.spec = {reinterpret_cast<const char *>(payload), spec_len};
    out.body = {payload + spec_len, body_len};
    consumed_ += total;
    return Status::Ready;
}

FrameParser::Status
FrameParser::next(Frame &out, WireError &err)
{
    FrameView view;
    const Status status = next(view, err);
    if (status == Status::Ready)
        out.assign(view);
    return status;
}

BodyWriter::BodyWriter(std::vector<std::uint8_t> &buffer, std::size_t offset,
                       std::size_t size)
    : body_(buffer)
{
    body_.resize(offset);
    body_.reserve(offset + size);
}

std::uint8_t *
BodyWriter::claim(std::size_t n)
{
    const std::size_t at = body_.size();
    body_.resize(at + n);
    return body_.data() + at;
}

void
BodyWriter::u32(std::uint32_t v)
{
    storeWord32(claim(4), v);
}

void
BodyWriter::u64(std::uint64_t v)
{
    storeWord64(claim(8), v);
}

void
BodyWriter::bytes(const std::uint8_t *data, std::size_t n)
{
    body_.insert(body_.end(), data, data + n);
}

bool
BodyReader::u32(std::uint32_t &v)
{
    if (!ok_ || remaining() < 4) {
        ok_ = false;
        return false;
    }
    v = loadWord32(data_ + pos_);
    pos_ += 4;
    return true;
}

bool
BodyReader::u64(std::uint64_t &v)
{
    if (!ok_ || remaining() < 8) {
        ok_ = false;
        return false;
    }
    v = loadWord64(data_ + pos_);
    pos_ += 8;
    return true;
}

bool
BodyReader::bytes(std::uint8_t *out, std::size_t n)
{
    if (!ok_ || remaining() < n) {
        ok_ = false;
        return false;
    }
    // n == 0 must not reach memcpy: an empty destination vector hands us
    // a null `out`, and memcpy's arguments are declared nonnull.
    if (n > 0)
        std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
}

bool
BodyReader::view(const std::uint8_t *&out, std::size_t n)
{
    if (!ok_ || remaining() < n) {
        ok_ = false;
        return false;
    }
    out = data_ + pos_;
    pos_ += n;
    return true;
}

namespace {

Frame
randomFrame(Rng &rng)
{
    static const Opcode opcodes[] = {Opcode::Ping, Opcode::Encode,
                                     Opcode::Decode, Opcode::Stats,
                                     Opcode::Snapshot, Opcode::Error};
    Frame frame;
    frame.opcode = opcodes[rng.nextBounded(6)];
    frame.streamId = static_cast<std::uint16_t>(rng.nextBounded(0x10000));
    if (rng.nextBounded(2) == 1) {
        // Traced (version-2) frame: traceId must be nonzero to carry a
        // trace block at all.
        frame.traceId = rng.next64() | 1;
        frame.spanId = rng.next64();
        frame.traceSampled = rng.nextBounded(2) == 1;
    }
    const std::size_t spec_len = rng.nextBounded(13);
    static const char charset[] =
        "abcdefghijklmnopqrstuvwxyz0123456789+|";
    for (std::size_t i = 0; i < spec_len; ++i)
        frame.spec += charset[rng.nextBounded(sizeof(charset) - 1)];
    // Bodies up to 4 KiB. A quarter are at least 1 KiB, so the CRC's
    // PCLMULQDQ fold runs its loops over long frames. A quarter put the
    // CRC'd bytes (the frame less its CRC) within five bytes of 64 or
    // 128, so both they and the frame sit just below, at or just above
    // the fold's 64-byte entry and its second 64-byte step, with short
    // tails after the last 16-byte block. The rest stay under 1 KiB.
    const std::size_t prefix_len =
        headerBytes + (frame.traced() ? traceBlockBytes : 0) + spec_len;
    std::size_t body_len = 0;
    switch (rng.nextBounded(4)) {
    case 0:
        body_len = 1024 + rng.nextBounded(3073);
        break;
    case 1: {
        const std::size_t edge = rng.nextBounded(2) == 0 ? 64 : 128;
        body_len = edge - 5 + rng.nextBounded(10) - prefix_len;
        break;
    }
    default:
        body_len = rng.nextBounded(1024);
    }
    frame.body.resize(body_len);
    for (std::size_t i = 0; i < body_len; ++i)
        frame.body[i] = static_cast<std::uint8_t>(rng.nextBounded(256));
    return frame;
}

/** True when every field of @p got equals @p want's. */
bool
viewMatches(const FrameView &got, const Frame &want)
{
    return got.opcode == want.opcode && got.streamId == want.streamId &&
           got.traceId == want.traceId && got.spanId == want.spanId &&
           got.traceSampled == want.traceSampled && got.spec == want.spec &&
           std::equal(got.body.begin(), got.body.end(), want.body.begin(),
                      want.body.end());
}

} // namespace

FrameFuzzReport
fuzzFrameParser(std::uint64_t seed, std::uint64_t iterations)
{
    FrameFuzzReport report;
    report.iterations = iterations;
    Rng rng(seed ^ 0xf8a3e5ull);

    for (std::uint64_t iter = 0; iter < iterations; ++iter) {
        const Frame frame = randomFrame(rng);
        const std::vector<std::uint8_t> bytes = serializeFrame(frame);
        const auto record = [&](const std::string &what) {
            if (report.failures.size() < 32) {
                report.failures.push_back(
                    "iter " + std::to_string(iter) + ": " + what);
            }
        };

        const std::uint64_t mode = rng.nextBounded(5);
        FrameParser parser;
        Frame parsed;
        WireError err;
        if (mode == 0) {
            // Clean single feed: must round-trip byte-identically.
            parser.feed(bytes.data(), bytes.size());
            if (parser.next(parsed, err) != FrameParser::Status::Ready)
                record("clean frame did not parse");
            else if (!(parsed == frame))
                record("clean frame round-trip mismatch");
            else
                ++report.framesParsed;
        } else if (mode == 1) {
            // Random chunk boundaries: same result as one feed, and a
            // CRC updated chunk by chunk equals the one-shot CRC.
            std::size_t fed = 0;
            bool done = false;
            std::uint32_t running = crc32Init;
            const std::size_t crc_len = bytes.size() - crcBytes;
            while (fed < bytes.size()) {
                const std::size_t chunk = 1 + rng.nextBounded(64);
                const std::size_t n =
                    std::min(chunk, bytes.size() - fed);
                parser.feed(bytes.data() + fed, n);
                if (fed < crc_len) {
                    running = crc32Update(
                        running,
                        {bytes.data() + fed, std::min(n, crc_len - fed)});
                }
                fed += n;
                const FrameParser::Status st = parser.next(parsed, err);
                if (st == FrameParser::Status::Bad) {
                    record("chunked clean frame reported " +
                           errorCodeName(err.code));
                    done = true;
                    break;
                }
                if (st == FrameParser::Status::Ready) {
                    if (fed < bytes.size())
                        record("frame parsed before all bytes arrived");
                    else if (!(parsed == frame))
                        record("chunked round-trip mismatch");
                    else
                        ++report.framesParsed;
                    done = true;
                    break;
                }
            }
            if (!done)
                record("chunked clean frame never completed");
            if (fed == bytes.size() &&
                crc32Final(running) != crc32({bytes.data(), crc_len}))
                record("chunked CRC32 differs from the one-shot CRC32");
        } else if (mode == 2) {
            // Truncation: a clean prefix must only ever ask for more.
            const std::size_t keep = rng.nextBounded(bytes.size());
            parser.feed(bytes.data(), keep);
            if (parser.next(parsed, err) != FrameParser::Status::NeedMore)
                record("truncated frame did not report NeedMore");
        } else if (mode == 3) {
            // Single-byte corruption: CRC (or a structural check) must
            // reject it — a corrupted frame may stall (NeedMore, when a
            // length field grew) but must never parse as Ready.
            std::vector<std::uint8_t> mutated = bytes;
            const std::size_t at = rng.nextBounded(mutated.size());
            const auto flip = static_cast<std::uint8_t>(
                1 + rng.nextBounded(255));
            mutated[at] = static_cast<std::uint8_t>(mutated[at] ^ flip);
            parser.feed(mutated.data(), mutated.size());
            const FrameParser::Status st = parser.next(parsed, err);
            if (st == FrameParser::Status::Ready)
                record("corrupted frame parsed as valid");
            else if (st == FrameParser::Status::Bad)
                ++report.errorsTyped;
        } else {
            // Several frames back to back, read in read-sized chunks cut
            // at random points, the way a shard reads its socket. Every
            // view a chunk yields must still equal its source frame
            // after the rest of that chunk is parsed, right up to the
            // next read.
            std::vector<Frame> frames = {frame};
            std::vector<std::uint8_t> stream = bytes;
            for (std::uint64_t extra = 1 + rng.nextBounded(4); extra > 0;
                 --extra) {
                frames.push_back(randomFrame(rng));
                appendFrame(stream, frames.back());
            }
            std::vector<std::size_t> cuts = {0, stream.size()};
            for (std::uint64_t c = rng.nextBounded(4); c > 0; --c)
                cuts.push_back(rng.nextBounded(stream.size() + 1));
            std::sort(cuts.begin(), cuts.end());
            std::size_t matched = 0;
            std::vector<FrameView> views;
            for (std::size_t c = 1; c < cuts.size(); ++c) {
                const std::size_t n = cuts[c] - cuts[c - 1];
                if (n == 0)
                    continue; // Two cuts at one point: no read.
                std::memcpy(parser.prepareRead(n),
                            stream.data() + cuts[c - 1], n);
                parser.commitRead(n);
                views.clear();
                FrameView view;
                FrameParser::Status st;
                while ((st = parser.next(view, err)) ==
                       FrameParser::Status::Ready)
                    views.push_back(view);
                if (st == FrameParser::Status::Bad) {
                    record("multi-frame chunk reported " +
                           errorCodeName(err.code));
                    break;
                }
                for (const FrameView &got : views) {
                    if (matched >= frames.size() ||
                        !viewMatches(got, frames[matched]))
                        record("multi-frame view " +
                               std::to_string(matched) +
                               " differs from its source frame");
                    ++matched;
                }
            }
            if (matched != frames.size())
                record("multi-frame stream yielded " +
                       std::to_string(matched) + " of " +
                       std::to_string(frames.size()) + " frames");
            else
                report.framesParsed += matched;
        }
    }
    return report;
}

} // namespace bxt::wire
