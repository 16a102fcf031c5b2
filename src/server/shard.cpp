#include "server/shard.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "server/server.h"
#include "telemetry/spanring.h"
#include "telemetry/trace.h"

namespace bxt::server {
namespace {

/** Cap on the final read sweep during drain (per connection). */
constexpr std::size_t drainSweepReads = 256;

/** Cap on waiting for a slow peer to take its drain flush, ms. */
constexpr int drainFlushTimeoutMs = 5000;

/** Most bytes one read takes from a socket into its parser. */
constexpr std::size_t readChunkBytes = 64 * 1024;

/**
 * One bounded read from socket @p fd straight into @p parser's buffer.
 * Returns net::tryRead's result: bytes read, 0 at EOF, or -1 (with
 * @p would_block set when the socket has no data).
 */
long
readIntoParser(int fd, wire::FrameParser &parser, bool &would_block)
{
    std::string err;
    const long n = net::tryRead(fd, parser.prepareRead(readChunkBytes),
                                readChunkBytes, would_block, err);
    if (n > 0)
        parser.commitRead(static_cast<std::size_t>(n));
    return n;
}

} // namespace

void
sendErrorBestEffort(int fd, wire::ErrorCode code, std::string_view message)
{
    std::vector<std::uint8_t> bytes;
    wire::appendErrorFrame(bytes, code, message);
    std::string err;
    net::writeAll(fd, bytes.data(), bytes.size(), err);
}

/**
 * One nonblocking connection: socket, frame parser, and the output
 * buffer that decouples response production from a slow peer.
 *
 * Per-frame phase timestamps held until the batch flush lands, so
 * every phase span — and the request_us total they telescope to —
 * ends at the same write instant (DESIGN.md §9):
 *   queue_wait = tParseStart − tFeed   (buffered, awaiting service)
 *   parse      = tParseEnd − tParseStart
 *   codec      = tHandleEnd − tParseEnd (service dispatch)
 *   reply      = tWriteEnd − tHandleEnd (serialize + write)
 *   request    = tWriteEnd − tFeed     (exact sum of the above)
 */
struct Shard::Conn
{
    struct PendingSpan
    {
        std::uint64_t traceId = 0;
        std::uint64_t spanId = 0;
        std::uint64_t tParseStart = 0;
        std::uint64_t tParseEnd = 0;
        std::uint64_t tHandleEnd = 0;
        std::uint8_t opcode = 0;
        std::uint16_t streamId = 0;
        std::uint32_t txCount = 0;
        bool sampled = false;
    };

    net::UniqueFd fd;
    /** Socket reads land in its buffer; requests are served as views
     *  into it. */
    wire::FrameParser parser;
    /** Response bytes not yet accepted by the socket; replies are
     *  written in place onto its end. */
    std::vector<std::uint8_t> out;
    std::size_t outPos = 0;
    bool closeAfterFlush = false;
    std::uint64_t lastActivityUs = 0;
    /** Request clock: set by the read that fed the parser. */
    std::uint64_t tFeed = 0;
    std::vector<PendingSpan> batchSpans;

    std::size_t pendingOut() const { return out.size() - outPos; }
};

Shard::Shard(std::size_t index, const ServerOptions &options)
    : index_(index), options_(options), service_(&registry_),
      connections_(registry_.counter("bxt.server.connections")),
      rejectedBusy_(registry_.counter("bxt.server.rejected_busy")),
      activeConns_(registry_.gauge("bxt.server.active_connections")),
      queueDepth_(registry_.gauge("bxt.server.queue_depth")),
      threads_(registry_.gauge("bxt.server.threads")),
      batchSize_(registry_.histogram("bxt.server.batch_size")),
      requestUs_(registry_.histogram("bxt.server.request_us"))
{
}

Shard::~Shard() = default;

bool
Shard::start(std::string &err)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        err = "pipe: failed to create shard wake pipe";
        return false;
    }
    wake_read_ = net::UniqueFd(fds[0]);
    wake_write_ = net::UniqueFd(fds[1]);
    return true;
}

void
Shard::requestStop()
{
    stopping_.store(true, std::memory_order_relaxed);
    const int fd = wake_write_.get();
    if (fd >= 0) {
        const char byte = 's';
        // Async-signal-safe; a full pipe still leaves earlier bytes
        // readable, so the wakeup is never lost.
        [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
    }
}

void
Shard::enqueue(net::UniqueFd fd)
{
    {
        std::lock_guard<std::mutex> lock(inbox_mutex_);
        inbox_.push_back(std::move(fd));
    }
    const int wake = wake_write_.get();
    if (wake >= 0) {
        const char byte = 'c';
        [[maybe_unused]] const ssize_t n = ::write(wake, &byte, 1);
    }
}

void
Shard::refreshGauges()
{
    activeConns_.set(static_cast<double>(conns_.size()));
    std::size_t backlog = 0;
    for (const auto &conn : conns_)
        backlog += conn->pendingOut() > 0 ? 1 : 0;
    queueDepth_.set(static_cast<double>(backlog));
}

void
Shard::adoptConnection(net::UniqueFd fd)
{
    // maxPending is the per-shard concurrent-connection bound; at the
    // cap the shard still accepts, answers with a typed Busy error,
    // and closes — backpressure is explicit, never unbounded buffering.
    if (conns_.size() >= options_.maxPending) {
        const bool metrics_on = telemetry::metricsEnabled();
        const std::uint64_t t_reject =
            metrics_on ? telemetry::nowMicros() : 0;
        rejectedBusy_.add(1);
        sendErrorBestEffort(fd.get(), wire::ErrorCode::Busy,
                            "shard connection limit; retry later");
        // Busy rejections are requests too: charge the reply write to
        // request_us so overload latency is visible, even though no
        // frame (hence no trace context) ever existed.
        if (metrics_on)
            requestUs_.record(telemetry::nowMicros() - t_reject);
        return;
    }
    std::string err;
    if (!net::setNonBlocking(fd.get(), err))
        return; // Pathological; drop the connection.
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(fd);
    conn->lastActivityUs = telemetry::nowMicros();
    conn->tFeed = conn->lastActivityUs;
    conns_.push_back(std::move(conn));
    connections_.add(1);
    refreshGauges();
}

void
Shard::drainInbox(bool shutting_down)
{
    for (;;) {
        net::UniqueFd fd;
        {
            std::lock_guard<std::mutex> lock(inbox_mutex_);
            if (inbox_.empty())
                break;
            fd = std::move(inbox_.front());
            inbox_.pop_front();
        }
        if (shutting_down) {
            // Accepted but never served: tell the peer we are going
            // away rather than silently dropping the connection.
            sendErrorBestEffort(fd.get(), wire::ErrorCode::ShuttingDown,
                                "server is draining");
            continue;
        }
        adoptConnection(std::move(fd));
    }
}

bool
Shard::flushOut(Conn &conn)
{
    if (conn.pendingOut() == 0)
        return true;
    bool would_block = false;
    std::string err;
    const long n =
        net::tryWrite(conn.fd.get(), conn.out.data() + conn.outPos,
                      conn.pendingOut(), would_block, err);
    if (n < 0)
        return false; // Peer vanished mid-response.
    conn.outPos += static_cast<std::size_t>(n);
    if (conn.outPos == conn.out.size()) {
        conn.out.clear();
        conn.outPos = 0;
    } else if (conn.outPos >= kOutHighWaterBytes) {
        // A peer that reads, but never fast enough to drain the buffer,
        // would otherwise keep the sent prefix forever: reclaim it, so
        // the buffer stays within twice the mark plus one read's
        // replies.
        conn.out.erase(conn.out.begin(),
                       conn.out.begin() +
                           static_cast<std::ptrdiff_t>(conn.outPos));
        conn.outPos = 0;
    }
    return true;
}

bool
Shard::processFrames(Conn &conn)
{
    const bool metrics_on = telemetry::metricsEnabled();
    for (;;) {
        std::size_t batch = 0;
        bool bad_stream = false;
        conn.batchSpans.clear();
        const std::size_t out_before = conn.out.size();
        while (batch < options_.maxBatch) {
            const std::uint64_t t_parse_start =
                metrics_on ? telemetry::nowMicros() : 0;
            wire::WireError parse_err;
            wire::FrameView request;
            const wire::FrameParser::Status st =
                conn.parser.next(request, parse_err);
            if (st == wire::FrameParser::Status::NeedMore)
                break;
            if (st == wire::FrameParser::Status::Bad) {
                // Framing is untrustworthy after a structural error:
                // answer with the typed error, then drop the stream.
                // The reply still charges request_us (an unparseable
                // frame has no trace context, so no phase spans).
                wire::appendErrorFrame(conn.out, parse_err.code,
                                       parse_err.detail);
                conn.closeAfterFlush = true;
                bad_stream = true;
                if (metrics_on) {
                    Conn::PendingSpan pending;
                    pending.tParseStart = t_parse_start;
                    pending.tParseEnd = pending.tHandleEnd =
                        telemetry::nowMicros();
                    conn.batchSpans.push_back(pending);
                }
                break;
            }
            const std::uint64_t t_parse_end =
                metrics_on ? telemetry::nowMicros() : 0;
            service_.handle(request, conn.out);
            const std::uint64_t t_handle_end =
                metrics_on ? telemetry::nowMicros() : 0;
            ++batch;
            if (metrics_on) {
                Conn::PendingSpan pending;
                pending.traceId = request.traceId;
                pending.spanId = request.spanId;
                pending.tParseStart = t_parse_start;
                pending.tParseEnd = t_parse_end;
                pending.tHandleEnd = t_handle_end;
                pending.opcode =
                    static_cast<std::uint8_t>(request.opcode);
                pending.streamId = request.streamId;
                pending.txCount = requestTxCount(request);
                pending.sampled = request.traceSampled;
                conn.batchSpans.push_back(pending);
            }
        }
        if (batch > 0)
            batchSize_.record(batch);
        // Push the batch at the socket right away; whatever the peer
        // does not take waits in the out-buffer under POLLOUT, so a
        // slow client costs memory, not shard time.
        if (conn.out.size() > out_before && !flushOut(conn))
            return false;
        if (metrics_on && !conn.batchSpans.empty()) {
            const std::uint64_t t_write_end = telemetry::nowMicros();
            const std::uint32_t tid = telemetry::currentThreadId();
            for (const Conn::PendingSpan &pending : conn.batchSpans) {
                requestUs_.record(t_write_end - conn.tFeed);
                if (!pending.sampled || pending.traceId == 0)
                    continue;
                telemetry::ServerSpan span;
                span.traceId = pending.traceId;
                span.spanId = pending.spanId;
                span.phase = telemetry::ServerPhase::Request;
                span.opcode = pending.opcode;
                span.streamId = pending.streamId;
                span.tid = tid;
                span.txCount = pending.txCount;
                const auto emit = [&span](telemetry::ServerPhase phase,
                                          std::uint64_t start,
                                          std::uint64_t end) {
                    span.phase = phase;
                    span.startUs = start;
                    span.durUs = end - start;
                    telemetry::recordServerSpan(span);
                };
                emit(telemetry::ServerPhase::Request, conn.tFeed,
                     t_write_end);
                emit(telemetry::ServerPhase::QueueWait, conn.tFeed,
                     pending.tParseStart);
                emit(telemetry::ServerPhase::Parse, pending.tParseStart,
                     pending.tParseEnd);
                emit(telemetry::ServerPhase::Codec, pending.tParseEnd,
                     pending.tHandleEnd);
                emit(telemetry::ServerPhase::Reply, pending.tHandleEnd,
                     t_write_end);
            }
        }
        if (bad_stream)
            return conn.pendingOut() == 0 ? false : true;
        if (batch < options_.maxBatch)
            return true; // Parser exhausted.
    }
}

bool
Shard::readReady(Conn &conn)
{
    // One bounded read per readiness event: a hot connection with a
    // full socket buffer re-reports readable on the next poll pass, so
    // its shard-mates still interleave.
    bool would_block = false;
    const long n = readIntoParser(conn.fd.get(), conn.parser, would_block);
    if (would_block)
        return true;
    if (n <= 0)
        return false; // EOF or socket error.
    conn.tFeed = telemetry::nowMicros(); // Request clock starts here.
    conn.lastActivityUs = conn.tFeed;
    return processFrames(conn);
}

void
Shard::drainAndClose(Conn &conn)
{
    // Final read sweep: every frame the peer already put on the wire
    // deserves an answer. Bounded so an endless producer cannot wedge
    // the drain barrier.
    for (std::size_t pass = 0; pass < drainSweepReads; ++pass) {
        bool would_block = false;
        if (readIntoParser(conn.fd.get(), conn.parser, would_block) <= 0)
            break;
        conn.tFeed = telemetry::nowMicros();
    }
    if (!processFrames(conn))
        return;
    // Flush synchronously, bounded: the drain barrier must not hang on
    // a peer that stopped reading.
    const std::uint64_t deadline =
        telemetry::nowMicros() +
        static_cast<std::uint64_t>(drainFlushTimeoutMs) * 1000;
    while (conn.pendingOut() > 0) {
        pollfd pfd{conn.fd.get(), POLLOUT, 0};
        const std::uint64_t now = telemetry::nowMicros();
        if (now >= deadline)
            break;
        const int r = ::poll(
            &pfd, 1,
            static_cast<int>((deadline - now) / 1000) + 1);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            break;
        if (!flushOut(conn))
            break;
    }
}

void
Shard::closeConn(std::size_t at)
{
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(at));
    refreshGauges();
}

void
Shard::run()
{
    // Every instrument the request path touches — codec construction,
    // per-spec ones counters, adaptive controller gauges — resolves
    // against this shard's registry for the lifetime of the loop.
    telemetry::ScopedRegistry scoped(registry_);
    threads_.set(1.0);

    std::vector<pollfd> fds;
    std::vector<std::size_t> conn_slots;
    for (;;) {
        if (stopping_.load(std::memory_order_relaxed))
            break;

        fds.clear();
        conn_slots.clear();
        fds.push_back({wake_read_.get(), POLLIN, 0});
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            // A peer that sends but does not read stops being read at
            // the high-water mark, so its replies cannot grow the
            // out-buffer without bound; the socket buffers then fill
            // and the peer's writes block.
            const std::size_t pending = conns_[i]->pendingOut();
            short events = pending < kOutHighWaterBytes ? POLLIN : 0;
            if (pending > 0)
                events |= POLLOUT;
            conn_slots.push_back(fds.size());
            fds.push_back({conns_[i]->fd.get(), events, 0});
        }

        // Poll timeout tracks the nearest idle deadline.
        int timeout_ms = -1;
        if (options_.idleTimeoutMs >= 0 && !conns_.empty()) {
            const std::uint64_t now = telemetry::nowMicros();
            std::uint64_t oldest = now;
            for (const auto &conn : conns_)
                oldest = std::min(oldest, conn->lastActivityUs);
            const std::uint64_t idle_us = now - oldest;
            const std::uint64_t limit_us =
                static_cast<std::uint64_t>(options_.idleTimeoutMs) *
                1000;
            timeout_ms =
                idle_us >= limit_us
                    ? 0
                    : static_cast<int>((limit_us - idle_us) / 1000) + 1;
        }

        const int r =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   timeout_ms);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break; // Pathological poll failure; drain and exit.
        }

        if ((fds[0].revents & POLLIN) != 0) {
            std::uint8_t scratch[256];
            bool would_block = false;
            std::string err;
            net::tryRead(wake_read_.get(), scratch, sizeof(scratch),
                         would_block, err);
            if (stopping_.load(std::memory_order_relaxed))
                break;
            drainInbox(/*shutting_down=*/false);
        }

        // Serve readiness back-to-front so closes keep earlier indices
        // valid.
        for (std::size_t i = conn_slots.size(); i-- > 0;) {
            const pollfd &pfd = fds[conn_slots[i]];
            if (pfd.revents == 0)
                continue;
            Conn &conn = *conns_[i];
            bool alive = true;
            if ((pfd.revents & POLLOUT) != 0)
                alive = flushOut(conn);
            if (alive && (pfd.revents &
                          (POLLIN | POLLERR | POLLHUP)) != 0) {
                alive = readReady(conn);
                if (!alive && conn.pendingOut() > 0) {
                    // EOF with queued replies (client sent its burst
                    // and shut down its write side): push the backlog
                    // out before closing.
                    drainAndClose(conn);
                }
            }
            if (alive && conn.closeAfterFlush && conn.pendingOut() == 0)
                alive = false;
            if (!alive)
                closeConn(i);
        }
        refreshGauges();

        // Idle sweep.
        if (options_.idleTimeoutMs >= 0 && !conns_.empty()) {
            const std::uint64_t now = telemetry::nowMicros();
            const std::uint64_t limit_us =
                static_cast<std::uint64_t>(options_.idleTimeoutMs) *
                1000;
            for (std::size_t i = conns_.size(); i-- > 0;) {
                if (now - conns_[i]->lastActivityUs >= limit_us)
                    closeConn(i);
            }
        }
    }

    // Graceful drain: turn away queued handoffs (no new work), then
    // give every live connection one final read sweep and answer
    // everything complete before closing. The Server's serve() joins
    // every shard, forming the cross-shard drain barrier.
    drainInbox(/*shutting_down=*/true);
    for (const auto &conn : conns_)
        drainAndClose(*conn);
    conns_.clear();
    refreshGauges();
}

} // namespace bxt::server
