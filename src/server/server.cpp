#include "server/server.h"

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
    for (unsigned i = 0; i < shard_count; ++i)
        shards_.push_back(std::make_unique<Shard>(i, options_));

    // TCP: shard 0 binds first (resolving port 0 to a concrete
    // ephemeral port), then every other shard binds the resolved port —
    // SO_REUSEPORT turns the set of listeners into the kernel-load-
    // balanced accept slice.
    int tcp_port = options_.tcpPort;
    for (auto &shard : shards_) {
        if (!shard->start(options_.tcpHost, tcp_port, err))
            return false;
        if (tcp_port == 0) {
            tcp_port = shard->tcpPort();
            if (tcp_port <= 0) {
                err = "getsockname: failed to resolve ephemeral port";
                return false;
            }
        }
    }
    if (tcp_port >= 0)
        resolved_tcp_port_ = tcp_port;

    if (!options_.unixPath.empty()) {
        unix_listener_ = net::listenUnix(options_.unixPath, err);
        if (!unix_listener_.valid())
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
Server::unixAcceptLoop()
{
    std::size_t next = 0;
    for (;;) {
        const net::PollResult ready = net::pollIn(
            unix_listener_.get(), stop_read_.get(), -1);
        if (ready == net::PollResult::Aux ||
            ready == net::PollResult::Error)
            break;
        if (ready != net::PollResult::Readable)
            continue;
        net::UniqueFd conn(::accept(unix_listener_.get(), nullptr,
                                    nullptr));
        if (!conn.valid()) {
            // Out of descriptors: the connection stays queued and the
            // listener readable, so back off instead of spinning (a stop
            // request still interrupts the wait). Anything else is
            // transient (ECONNABORTED, EINTR); keep going.
            if ((errno == EMFILE || errno == ENFILE) &&
                net::pollIn(-1, stop_read_.get(), kAcceptBackoffMs) ==
                    net::PollResult::Aux)
                break;
            continue;
        }
        if (stopping_.load(std::memory_order_relaxed)) {
            sendFrameBestEffort(
                conn.get(),
                wire::makeErrorFrame(wire::ErrorCode::ShuttingDown,
                                     "server is draining"));
            continue;
        }
        // Round-robin handoff: the acceptor never serves, so a stalled
        // shard delays only its own inbox.
        shards_[next % shards_.size()]->enqueue(std::move(conn));
        ++next;
    }
}

void
Server::serve()
{
    if (unix_listener_.valid())
        unix_acceptor_ = std::thread([this] { unixAcceptLoop(); });

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
    if (unix_acceptor_.joinable())
        unix_acceptor_.join();

    // The drain is complete; remove the Unix socket path now so a caller
    // that observes serve() returning sees no stale socket file. The
    // destructor also unlinks, covering start()-without-serve() paths.
    if (!options_.unixPath.empty() && unix_listener_.valid()) {
        ::unlink(options_.unixPath.c_str());
        unix_listener_.reset();
    }
}

} // namespace bxt::server
