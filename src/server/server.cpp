#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/parallel.h"
#include "server/shard.h"
#include "server/wire.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"

namespace bxt::server {
namespace {

/**
 * Pause after accept() runs out of descriptors (EMFILE/ENFILE), ms. The
 * pending connection stays queued and the level-triggered listener stays
 * readable, so polling it again at once would spin a CPU.
 */
constexpr int kAcceptBackoffMs = 100;

/**
 * Rename hook for the per-shard breakdown merge. Only the
 * connection-layer instruments the shard event loop itself owns are
 * broken out — the load-balance signals bxt_top's shard rows read.
 * The per-stream and per-spec subtrees stay fleet-only: breaking them
 * out would multiply the snapshot by the shard count, and consumers
 * that telescope suffix sums (e.g. `*.ones_in` across specs) must not
 * see a second copy of every leaf.
 */
std::string
shardRename(std::size_t shard_index, const std::string &name)
{
    static constexpr const char *breakout[] = {
        "bxt.server.requests",       "bxt.server.errors",
        "bxt.server.tx_encoded",     "bxt.server.tx_decoded",
        "bxt.server.connections",    "bxt.server.rejected_busy",
        "bxt.server.active_connections", "bxt.server.queue_depth",
        "bxt.server.threads",        "bxt.server.batch_size",
        "bxt.server.request_us",
    };
    for (const char *keep : breakout) {
        if (name == keep) {
            constexpr std::size_t prefix_len =
                sizeof("bxt.server.") - 1;
            return "bxt.server.shard." + std::to_string(shard_index) +
                   "." + name.substr(prefix_len);
        }
    }
    return std::string(); // Skip.
}

} // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server()
{
    if (!options_.unixPath.empty() && unix_listener_.valid())
        ::unlink(options_.unixPath.c_str());
}

bool
Server::start(std::string &err)
{
    if (options_.tcpPort < 0 && options_.unixPath.empty()) {
        err = "no listener configured (need a TCP port or a Unix path)";
        return false;
    }
    int fds[2];
    if (::pipe(fds) != 0) {
        err = "pipe: failed to create stop pipe";
        return false;
    }
    stop_read_ = net::UniqueFd(fds[0]);
    stop_write_ = net::UniqueFd(fds[1]);

    const unsigned shard_count =
        options_.shards != 0 ? options_.shards : defaultThreadCount();
    shards_.reserve(shard_count);
    for (unsigned i = 0; i < shard_count; ++i) {
        shards_.push_back(std::make_unique<Shard>(i, options_));
        if (!shards_.back()->start(err))
            return false;
    }

    // Both listeners are nonblocking: the acceptor takes connections
    // until EAGAIN, so one that vanishes between poll() and accept()
    // cannot block it (and with it a stop request).
    if (options_.tcpPort >= 0) {
        tcp_listener_ =
            net::listenTcp(options_.tcpHost, options_.tcpPort, err);
        if (!tcp_listener_.valid() ||
            !net::setNonBlocking(tcp_listener_.get(), err))
            return false;
        resolved_tcp_port_ = net::boundTcpPort(tcp_listener_.get());
        if (resolved_tcp_port_ <= 0) {
            err = "getsockname: failed to resolve ephemeral port";
            return false;
        }
    }
    if (!options_.unixPath.empty()) {
        unix_listener_ = net::listenUnix(options_.unixPath, err);
        if (!unix_listener_.valid() ||
            !net::setNonBlocking(unix_listener_.get(), err))
            return false;
    }

    // The fleet Stats/Snapshot view is served by whichever shard owns
    // the connection; the provider closes over the Server, which
    // outlives every shard loop (serve() joins them before returning).
    for (auto &shard : shards_) {
        shard->service().setStatsProvider(
            [this] { return mergedSnapshotJson(); });
    }
    telemetry::defaultRegistry()
        .gauge("bxt.server.shards")
        .set(static_cast<double>(shards_.size()));
    return true;
}

void
Server::requestStop()
{
    stopping_.store(true, std::memory_order_relaxed);
    const int fd = stop_write_.get();
    if (fd >= 0) {
        const char byte = 's';
        // Async-signal-safe; a full pipe still leaves earlier bytes
        // readable, so the wakeup is never lost.
        [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
    }
    for (auto &shard : shards_)
        shard->requestStop();
}

std::string
Server::mergedSnapshotJson() const
{
    telemetry::Registry merged;
    // Process-wide instruments first (span ring, bus, pool, codec-layer
    // counters pinned to the default registry).
    merged.mergeFrom(telemetry::defaultRegistry());
    for (const auto &shard : shards_) {
        // Fleet totals: every shard instrument summed verbatim...
        merged.mergeFrom(shard->registry());
        // ...plus the per-shard breakdown under bxt.server.shard.<i>.*,
        // so totals telescope exactly to the sum of the breakdowns.
        const std::size_t index = shard->index();
        merged.mergeFrom(shard->registry(),
                         [index](const std::string &name) {
                             return shardRename(index, name);
                         });
    }
    return telemetry::snapshotJson(merged, false);
}

void
Server::acceptLoop()
{
    pollfd fds[3];
    nfds_t count = 0;
    fds[count++] = {stop_read_.get(), POLLIN, 0};
    for (const net::UniqueFd *listener : {&tcp_listener_, &unix_listener_}) {
        if (listener->valid())
            fds[count++] = {listener->get(), POLLIN, 0};
    }
    std::size_t next = 0;
    for (;;) {
        if (::poll(fds, count, -1) < 0) {
            if (errno == EINTR)
                continue;
            break; // Pathological poll failure.
        }
        if (fds[0].revents != 0)
            break; // Stop request.
        bool out_of_fds = false;
        for (nfds_t i = 1; i < count; ++i) {
            if (fds[i].revents == 0)
                continue;
            for (;;) {
                net::UniqueFd conn(::accept(fds[i].fd, nullptr, nullptr));
                if (!conn.valid()) {
                    // EAGAIN: drained. ECONNABORTED, EINTR: the next
                    // poll() retries. EMFILE/ENFILE: back off below.
                    out_of_fds |= errno == EMFILE || errno == ENFILE;
                    break;
                }
                if (stopping_.load(std::memory_order_relaxed)) {
                    sendErrorBestEffort(conn.get(),
                                        wire::ErrorCode::ShuttingDown,
                                        "server is draining");
                    continue;
                }
                // Round-robin handoff: the acceptor never serves, so a
                // stalled shard delays only its own inbox.
                shards_[next % shards_.size()]->enqueue(std::move(conn));
                ++next;
            }
        }
        // Out of descriptors: the connection stays queued and the
        // listener readable, so back off instead of spinning (a stop
        // request still interrupts the wait).
        if (out_of_fds &&
            net::pollIn(-1, stop_read_.get(), kAcceptBackoffMs) ==
                net::PollResult::Aux)
            break;
    }
}

void
Server::serve()
{
    acceptor_ = std::thread([this] { acceptLoop(); });

    // Shards 1..N-1 on dedicated threads; shard 0 on the calling
    // thread, so serve() blocks until the stop request.
    for (std::size_t i = 1; i < shards_.size(); ++i) {
        shard_threads_.emplace_back(
            [shard = shards_[i].get()] { shard->run(); });
    }
    if (!shards_.empty())
        shards_[0]->run();

    // Drain barrier: every shard's run() has answered and flushed its
    // in-flight work before serve() returns.
    for (std::thread &t : shard_threads_)
        t.join();
    shard_threads_.clear();
    acceptor_.join();
    tcp_listener_.reset();

    // The drain is complete; remove the Unix socket path now so a caller
    // that observes serve() returning sees no stale socket file. The
    // destructor also unlinks, covering start()-without-serve() paths.
    if (!options_.unixPath.empty() && unix_listener_.valid()) {
        ::unlink(options_.unixPath.c_str());
        unix_listener_.reset();
    }
}

} // namespace bxt::server
