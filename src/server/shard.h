/**
 * @file
 * One shared-nothing bxtd worker shard (DESIGN.md §14). A shard owns:
 *
 *  - an inbox of connections the server's acceptor hands off
 *    round-robin (a shard only serves; it never accepts);
 *  - a poll()-based event loop driving every connection it adopted as
 *    a nonblocking socket — reads land in a per-connection
 *    FrameParser's buffer, requests are served as views into it, and
 *    replies are written in place into a per-connection output buffer
 *    flushed under POLLOUT, so a slow client stalls only its own
 *    buffer, never the shard;
 *  - one Service (codec + adaptive-controller cache keyed by spec,
 *    geometry, and streamId) shared by the shard's connections;
 *  - a private telemetry::Registry the event-loop thread installs via
 *    ScopedRegistry, so every instrument the request path touches is
 *    shard-local. The server merges shard registries on Stats/Snapshot
 *    into fleet totals plus `bxt.server.shard.<i>.*` breakdowns.
 *
 * Nothing is shared between shards: no locks, no pools, no common
 * caches — a hot spec, a slow client, or an adaptive re-evaluation on
 * one shard cannot serialize another. The only cross-shard touchpoints
 * are the wake pipe (stop requests, inbox handoffs) and the
 * merge-on-Stats read path, both off the request hot path.
 */

#ifndef BXT_SERVER_SHARD_H
#define BXT_SERVER_SHARD_H

#include <pthread.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "server/net.h"
#include "server/service.h"
#include "server/wire.h"
#include "telemetry/metrics.h"

namespace bxt::server {

struct ServerOptions;

/**
 * Per-connection out-buffer high-water mark, bytes. While a connection
 * has this much reply data the peer has not taken, the shard stops
 * reading its requests. The read that crosses the mark is still answered
 * in full, so the unsent part stays within the mark plus the replies to
 * one read (64 KiB, or the one frame it completes). The sent prefix is
 * dropped once it reaches the mark, so the whole buffer stays within
 * twice that.
 */
inline constexpr std::size_t kOutHighWaterBytes = std::size_t{4} << 20;

/** How long a shard's drain keeps flushing replies after the stop, ms;
 *  connections whose peers have not taken theirs by then are closed. */
inline constexpr int kDrainFlushTimeoutMs = 5000;

/** Best-effort: send one Error frame (wire::appendErrorFrame) and ignore
 *  failures (the peer may be gone). */
void sendErrorBestEffort(int fd, wire::ErrorCode code,
                         std::string_view message);

/**
 * One worker shard. Lifecycle: construct, start() (wake pipe), then
 * run() on a dedicated thread until requestStop(); run() returns after
 * the shard's graceful drain.
 */
class Shard
{
  public:
    /** @p options is owned by the Server and outlives the shard. */
    Shard(std::size_t index, const ServerOptions &options);
    ~Shard();

    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    /** Create the wake pipe. */
    bool start(std::string &err);

    /**
     * The event loop: adopts handed-off connections, reads, serves, and
     * flushes until requestStop(), then drains — queued handoffs are
     * turned away, in-flight connections get one final read sweep and
     * every complete frame is answered; the loop then flushes replies
     * until each connection is done or kDrainFlushTimeoutMs has passed.
     */
    void run();

    /** Async-signal-safe stop: one byte on the wake pipe. */
    void requestStop();

    /**
     * Hand off an accepted connection (the server's round-robin
     * acceptor). Thread-safe; never blocks the acceptor on shard
     * progress.
     */
    void enqueue(net::UniqueFd fd);

    std::size_t index() const { return index_; }

    /** CPU time run()'s thread has used, µs (0 before it starts). */
    double cpuMicros() const;
    telemetry::Registry &registry() { return registry_; }
    const telemetry::Registry &registry() const { return registry_; }
    Service &service() { return service_; }

  private:
    struct Conn;

    void adoptConnection(net::UniqueFd fd);
    void drainInbox(bool shutting_down);
    /** One read, then serve what it completed; false = nothing read
     *  (EAGAIN, or the input closed). */
    bool readReady(Conn &conn);
    /** Serve every complete buffered frame as one batch and flush. */
    void processFrames(Conn &conn);
    /** Nonblocking flush pass: bytes sent, or -1 (the conn failed). */
    long flushOut(Conn &conn);
    /** Start (at run()'s top) or stop (at its end) tracking this
     *  thread's CPU clock. Out of line: inlined into run(), the same
     *  code cost hot-flood ~5 % of its tx per CPU-second. */
    [[gnu::noinline]] void trackCpu(bool start);

    const std::size_t index_;
    const ServerOptions &options_;

    // Destruction order matters: the registry must outlive the Service
    // and the instrument references below, so it is declared first.
    telemetry::Registry registry_;
    Service service_;

    telemetry::Counter &connections_;
    telemetry::Counter &rejectedBusy_;
    telemetry::Gauge &activeConns_;
    telemetry::Gauge &queueDepth_;
    telemetry::Gauge &threads_;
    telemetry::Histo &batchSize_;
    telemetry::Histo &requestUs_;

    net::UniqueFd wake_read_;
    net::UniqueFd wake_write_;
    std::atomic<bool> stopping_{false};

    std::mutex inbox_mutex_;
    std::deque<net::UniqueFd> inbox_;

    std::vector<std::unique_ptr<Conn>> conns_;

    // run()'s thread CPU clock while cpuClockLive_; an exited thread's
    // id may name another thread, so run() ends by storing its last
    // reading and clearing the flag.
    mutable std::mutex cpu_mutex_;
    bool cpuClockLive_ = false;
    clockid_t cpuClock_{};
    double cpuUsAtExit_ = 0.0;
};

} // namespace bxt::server

#endif // BXT_SERVER_SHARD_H
