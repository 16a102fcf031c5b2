#include "server/shard.h"

#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "server/server.h"
#include "telemetry/trace.h"

namespace bxt::server {
namespace {

/** Cap on the final read sweep during drain (per connection). */
constexpr std::size_t drainSweepReads = 256;

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

/** CPU clock @p clock in µs (0 when it cannot be read). */
double
cpuClockMicros(clockid_t clock)
{
    timespec ts{};
    return ::clock_gettime(clock, &ts) == 0
               ? static_cast<double>(ts.tv_sec) * 1.0e6 +
                     static_cast<double>(ts.tv_nsec) / 1.0e3
               : 0.0;
}

} // namespace

void
sendErrorBestEffort(int fd, wire::ErrorCode code, std::string_view message)
{
    ByteBuffer bytes;
    wire::appendErrorFrame(bytes, code, message);
    std::string err;
    net::writeAll(fd, bytes.data(), bytes.size(), err);
}

/**
 * One nonblocking connection: socket, frame parser, and the output
 * buffer that decouples response production from a slow peer.
 *
 * Every request of a batch shares one feed instant (tFeed, read when
 * the read that fed the parser returned) and one write instant (read
 * once the batch's flush returns), so request_us records the batch as
 * one weighted sample. A sampled traced request also keeps its own
 * phase timestamps until that flush, so its phase spans and its
 * request span end at the same write instant (DESIGN.md §9):
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
    };

    net::UniqueFd fd;
    /** Socket reads land in its buffer; requests are served as views
     *  into it. A body longer than its opcode's bound is refused from
     *  the header, so a connection never buffers more than one read
     *  past the largest legal request. */
    wire::FrameParser parser{wire::FrameParser::Bound::Request};
    /** Response bytes not yet accepted by the socket; replies are
     *  written in place onto its end, never zero-filled first. */
    ByteBuffer out;
    std::size_t outPos = 0;
    /** No more requests are read (EOF, a framing error, the stop, or a
     *  failed socket, which also drops the replies): the connection
     *  closes once out is flushed. */
    bool inputClosed = false;
    /** Last read, or last flush that made progress. */
    std::uint64_t lastActivityUs = 0;
    /** Request clock: set by the read that fed the parser. */
    std::uint64_t tFeed = 0;
    /** The batch's sampled traced requests. */
    std::vector<PendingSpan> batchSpans;

    std::size_t pendingOut() const { return out.size() - outPos; }

    /** The socket failed: nothing more can reach the peer. */
    void fail()
    {
        inputClosed = true;
        out.clear();
        outPos = 0;
    }
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

long
Shard::flushOut(Conn &conn)
{
    if (conn.pendingOut() == 0)
        return 0;
    bool would_block = false;
    std::string err;
    const long n =
        net::tryWrite(conn.fd.get(), conn.out.data() + conn.outPos,
                      conn.pendingOut(), would_block, err);
    if (n < 0) {
        conn.fail(); // Peer vanished mid-response.
        return n;
    }
    conn.outPos += static_cast<std::size_t>(n);
    if (conn.outPos == conn.out.size()) {
        conn.out.clear();
        conn.outPos = 0;
    } else if (conn.outPos >= kOutHighWaterBytes) {
        // A peer that reads, but never fast enough to drain the buffer,
        // would otherwise keep the sent prefix forever: reclaim it, so
        // the buffer stays within twice the mark plus one read's
        // replies.
        const std::size_t unsent = conn.pendingOut();
        std::memmove(conn.out.data(), conn.out.data() + conn.outPos,
                     unsent);
        conn.out.resizeForOverwrite(unsent);
        conn.outPos = 0;
    }
    return n;
}

void
Shard::processFrames(Conn &conn)
{
    // Every complete frame the read brought is one batch, answered and
    // flushed before the next read. The clock is read once per batch,
    // after its flush, plus three times for each sampled traced request;
    // tFeed was read by the read that fed the parser.
    const bool metrics_on = telemetry::metricsEnabled();
    std::size_t batch = 0;
    bool bad_stream = false;
    conn.batchSpans.clear();
    const std::size_t out_before = conn.out.size();
    for (;;) {
        const bool sampled = metrics_on && conn.parser.nextSampled();
        const std::uint64_t t_parse_start =
            sampled ? telemetry::nowMicros() : 0;
        wire::WireError parse_err;
        wire::FrameView request;
        const wire::FrameParser::Status st =
            conn.parser.next(request, parse_err);
        if (st == wire::FrameParser::Status::NeedMore)
            break;
        if (st == wire::FrameParser::Status::Bad) {
            // Framing is untrustworthy after a structural error: answer
            // with the typed error, then read no more. The reply still
            // charges request_us (an unparseable frame has no trace
            // context, so no phase spans).
            wire::appendErrorFrame(conn.out, parse_err.code,
                                   parse_err.detail);
            conn.inputClosed = true;
            bad_stream = true;
            break;
        }
        const std::uint64_t t_parse_end =
            sampled ? telemetry::nowMicros() : 0;
        service_.handle(request, conn.out);
        ++batch;
        if (sampled) {
            Conn::PendingSpan pending;
            pending.traceId = request.traceId;
            pending.spanId = request.spanId;
            pending.tParseStart = t_parse_start;
            pending.tParseEnd = t_parse_end;
            pending.tHandleEnd = telemetry::nowMicros();
            pending.opcode = static_cast<std::uint8_t>(request.opcode);
            pending.streamId = request.streamId;
            pending.txCount = requestTxCount(request);
            conn.batchSpans.push_back(pending);
        }
    }
    if (batch > 0)
        batchSize_.record(batch);
    // Every reply of the batch is counted before the peer can hold it
    // (and before any Stats a later batch answers).
    service_.publish();
    // Push the batch at the socket right away; whatever the peer does
    // not take waits in the out-buffer under POLLOUT, so a slow client
    // costs memory, not shard time.
    if (conn.out.size() > out_before && flushOut(conn) < 0)
        return;
    const std::size_t answered = batch + (bad_stream ? 1 : 0);
    if (!metrics_on || answered == 0)
        return;
    const std::uint64_t t_write_end = telemetry::nowMicros();
    requestUs_.record(t_write_end - conn.tFeed, answered);
    const std::uint32_t tid = telemetry::currentThreadId();
    for (const Conn::PendingSpan &pending : conn.batchSpans) {
        telemetry::ServerSpan span;
        span.traceId = pending.traceId;
        span.spanId = pending.spanId;
        span.opcode = pending.opcode;
        span.streamId = pending.streamId;
        span.tid = tid;
        span.txCount = pending.txCount;
        const auto emit = [&span](telemetry::SpanName phase,
                                  std::uint64_t start, std::uint64_t end) {
            span.name = phase;
            span.startUs = start;
            span.durUs = end - start;
            telemetry::recordSpan(span);
        };
        emit(telemetry::SpanName::Request, conn.tFeed, t_write_end);
        emit(telemetry::SpanName::QueueWait, conn.tFeed,
             pending.tParseStart);
        emit(telemetry::SpanName::Parse, pending.tParseStart,
             pending.tParseEnd);
        emit(telemetry::SpanName::Codec, pending.tParseEnd,
             pending.tHandleEnd);
        emit(telemetry::SpanName::Reply, pending.tHandleEnd,
             t_write_end);
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
    if (n > 0) {
        conn.tFeed = telemetry::nowMicros(); // Request clock starts here.
        conn.lastActivityUs = conn.tFeed;
        processFrames(conn);
        return true;
    }
    if (!would_block) {
        // Every complete frame was answered at its read, so EOF leaves
        // only replies to flush; a socket error leaves nothing.
        conn.inputClosed = true;
        if (n < 0)
            conn.fail();
    }
    return false;
}

void
Shard::run()
{
    // Every instrument the request path touches — codec construction,
    // per-spec ones counters, adaptive controller gauges — resolves
    // against this shard's registry for the lifetime of the loop.
    telemetry::ScopedRegistry scoped(registry_);
    threads_.set(1.0);
    trackCpu(true);

    constexpr std::uint64_t never = std::numeric_limits<std::uint64_t>::max();
    const bool idle_on = options_.idleTimeoutMs >= 0;
    const std::uint64_t idle_us =
        static_cast<std::uint64_t>(std::max(options_.idleTimeoutMs, 0)) *
        1000;
    const auto idleAt = [&](const Conn &conn) {
        return idle_on ? conn.lastActivityUs + idle_us : never;
    };
    bool draining = false;
    std::uint64_t drain_deadline = never;
    std::vector<pollfd> fds;
    for (;;) {
        // One clock read per pass. Close every connection that is done:
        // flushed after its input closed (a failed one has nothing left
        // to flush), idle too long, or unflushed at the drain deadline.
        // Deadlines are compared with the clock, never subtracted from
        // it: a read stamps activity after it.
        const std::uint64_t now = telemetry::nowMicros();
        std::erase_if(conns_, [&](const std::unique_ptr<Conn> &conn) {
            return (conn->inputClosed && conn->pendingOut() == 0) ||
                   idleAt(*conn) <= now || drain_deadline <= now;
        });
        if (draining && conns_.empty())
            break;

        // The survivors give the poll set, the next wake-up and the
        // gauges.
        std::uint64_t wake_at = drain_deadline;
        std::size_t backlog = 0;
        fds.clear();
        fds.push_back({wake_read_.get(), POLLIN, 0});
        for (const auto &conn : conns_) {
            // A peer that sends but does not read stops being read at
            // the high-water mark, so its replies cannot grow the
            // out-buffer without bound; the socket buffers then fill
            // and the peer's writes block.
            const std::size_t pending = conn->pendingOut();
            short events = pending > 0 ? POLLOUT : 0;
            if (!conn->inputClosed && pending < kOutHighWaterBytes)
                events |= POLLIN;
            backlog += pending > 0 ? 1 : 0;
            wake_at = std::min(wake_at, idleAt(*conn));
            fds.push_back({conn->fd.get(), events, 0});
        }
        activeConns_.set(static_cast<double>(conns_.size()));
        queueDepth_.set(static_cast<double>(backlog));

        const int timeout_ms =
            wake_at == never
                ? -1
                : static_cast<int>(std::min<std::uint64_t>(
                      (wake_at - now) / 1000 + 1,
                      std::numeric_limits<int>::max()));
        if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   timeout_ms) < 0) {
            if (errno == EINTR)
                continue;
            break; // Pathological poll failure: close everything.
        }

        if ((fds[0].revents & POLLIN) != 0) {
            std::uint8_t scratch[256];
            bool would_block = false;
            std::string err;
            net::tryRead(wake_read_.get(), scratch, sizeof(scratch),
                         would_block, err);
            const bool stop = stopping_.load(std::memory_order_relaxed);
            drainInbox(/*shutting_down=*/stop);
            if (stop && !draining) {
                // Graceful drain: every frame a peer already sent
                // deserves an answer, so each connection gets a final
                // read sweep (bounded, so an endless producer cannot
                // wedge the drain), then reads no more. The loop flushes
                // the replies until each is taken or the one shard-wide
                // deadline passes; serve() joining every shard is the
                // cross-shard drain barrier.
                draining = true;
                for (const auto &conn : conns_) {
                    for (std::size_t pass = 0;
                         pass < drainSweepReads && !conn->inputClosed &&
                         readReady(*conn);
                         ++pass) {
                    }
                    conn->inputClosed = true;
                }
                drain_deadline =
                    telemetry::nowMicros() +
                    static_cast<std::uint64_t>(kDrainFlushTimeoutMs) * 1000;
            }
        }

        // Adopted connections were appended after the polled ones, so
        // fds[i + 1] is still conns_[i].
        for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
            const short revents = fds[i + 1].revents;
            if (revents == 0)
                continue;
            Conn &conn = *conns_[i];
            // An input-closed connection polls only for POLLOUT: any
            // event it reports is a flush, or an error the flush sees.
            // A flush that makes progress is activity.
            if (((revents & POLLOUT) != 0 || conn.inputClosed) &&
                flushOut(conn) > 0)
                conn.lastActivityUs = telemetry::nowMicros();
            if (!conn.inputClosed &&
                (revents & (POLLIN | POLLERR | POLLHUP)) != 0)
                readReady(conn);
        }
    }
    conns_.clear(); // Left only by a failed poll.
    trackCpu(false);
}

void
Shard::trackCpu(bool start)
{
    std::lock_guard<std::mutex> lock(cpu_mutex_);
    if (start) {
        cpuClockLive_ = ::pthread_getcpuclockid(::pthread_self(),
                                                &cpuClock_) == 0;
    } else {
        cpuUsAtExit_ = cpuClockMicros(CLOCK_THREAD_CPUTIME_ID);
        cpuClockLive_ = false;
    }
}

double
Shard::cpuMicros() const
{
    std::lock_guard<std::mutex> lock(cpu_mutex_);
    return cpuClockLive_ ? cpuClockMicros(cpuClock_) : cpuUsAtExit_;
}

} // namespace bxt::server
