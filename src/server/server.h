/**
 * @file
 * The bxtd server: a fleet of shared-nothing worker shards plus the
 * thin orchestration around them (DESIGN.md §14).
 *
 * Threading model:
 *  - `shards` worker shards (see shard.h), each a single-threaded
 *    poll() event loop with its own Service (codec + adaptive-
 *    controller cache) and private telemetry::Registry. Shard 0 runs
 *    on the thread that calls serve(); the rest get a dedicated
 *    std::thread each.
 *  - One Server-owned acceptor thread polls the TCP and Unix-domain
 *    listeners and hands every accepted fd, of either family, to the
 *    shards round-robin through each shard's inbox (mutex + wake pipe
 *    — the only cross-shard handoff, off the request path). It is the
 *    only place that calls accept(), and after EMFILE/ENFILE it backs
 *    off instead of spinning on the still-readable listener.
 *  - Stats/Snapshot requests are answered by whichever shard owns the
 *    connection, but the response is fleet-wide: the shard merges every
 *    shard registry (plus the process-default registry) into totals and
 *    `bxt.server.shard.<i>.*` breakdowns.
 *  - requestStop() is async-signal-safe (atomic stores + pipe writes),
 *    so a SIGTERM handler may call it directly. Shutdown drains
 *    gracefully on every shard: the acceptor stops first, queued-but-
 *    unserved connections get a ShuttingDown error, in-flight
 *    connections have their already-sent frames answered and flushed
 *    within one shard-wide deadline, then serve() joins all shards and
 *    returns — the drain barrier.
 */

#ifndef BXT_SERVER_SERVER_H
#define BXT_SERVER_SERVER_H

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/net.h"

namespace bxt::server {

class Shard;

/** bxtd configuration (tools/bxtd flags map 1:1 onto these). */
struct ServerOptions
{
    /** TCP listen address (IPv4 literal). */
    std::string tcpHost = "127.0.0.1";

    /** TCP port; < 0 disables TCP, 0 picks an ephemeral port. */
    int tcpPort = -1;

    /** Unix-domain socket path; empty disables the Unix listener. */
    std::string unixPath;

    /** Worker shards (0 = defaultThreadCount()). */
    unsigned shards = 0;

    /** Per-connection idle timeout; < 0 waits forever. */
    int idleTimeoutMs = 30000;

    /**
     * Per-shard concurrent-connection bound. At the cap a shard still
     * accepts, answers with a typed Busy error, and closes (0 = reject
     * every connection; the Busy-backpressure test uses this).
     */
    std::size_t maxPending = 64;
};

/**
 * A running bxtd instance. Lifecycle: construct, start() (binds
 * listeners), serve() (blocks until requestStop()), destruct.
 */
class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Create the shards, the stop pipe and the listeners. False +
     * @p err on failure (port in use, bad path, no listener
     * configured). Does not serve yet.
     */
    bool start(std::string &err);

    /**
     * Accept and serve until requestStop(). The calling thread runs
     * shard 0's event loop; returns after every shard's graceful drain
     * completes.
     */
    void serve();

    /**
     * Ask serve() to drain and return. Async-signal-safe: relaxed
     * atomic stores plus one write() per wake pipe.
     */
    void requestStop();

    /** Resolved TCP port after start() (-1 when TCP is disabled). */
    int tcpPort() const { return resolved_tcp_port_; }

    /** Shards actually running (resolved from options after start()). */
    std::size_t shardCount() const { return shards_.size(); }

    /**
     * Fleet-wide metrics JSON: every shard registry merged with the
     * process-default registry into totals, plus per-shard
     * `bxt.server.shard.<i>.*` breakdowns. This is what Stats/Snapshot
     * frames return.
     */
    std::string mergedSnapshotJson() const;

  private:
    void acceptLoop();

    ServerOptions options_;
    net::UniqueFd tcp_listener_;
    net::UniqueFd unix_listener_;
    int resolved_tcp_port_ = -1;

    net::UniqueFd stop_read_;
    net::UniqueFd stop_write_;
    std::atomic<bool> stopping_{false};

    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::thread> shard_threads_;
    std::thread acceptor_;
};

} // namespace bxt::server

#endif // BXT_SERVER_SERVER_H
