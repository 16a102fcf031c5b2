/**
 * @file
 * Thin POSIX socket helpers shared by the bxtd server and the client
 * library: RAII fd ownership, TCP (IPv4) and Unix-domain listen/connect,
 * and retrying read/write/poll wrappers. Everything reports errors via an
 * out-parameter string instead of errno spelunking at call sites.
 */

#ifndef BXT_SERVER_NET_H
#define BXT_SERVER_NET_H

#include <cstddef>
#include <string>
#include <utility>

namespace bxt::net {

/** Owning file-descriptor handle (closes on destruction; movable). */
class UniqueFd
{
  public:
    UniqueFd() = default;
    explicit UniqueFd(int fd) : fd_(fd) {}
    ~UniqueFd() { reset(); }

    UniqueFd(UniqueFd &&other) noexcept : fd_(other.release()) {}
    UniqueFd &operator=(UniqueFd &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.release();
        }
        return *this;
    }
    UniqueFd(const UniqueFd &) = delete;
    UniqueFd &operator=(const UniqueFd &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    int release()
    {
        return std::exchange(fd_, -1);
    }

    /** Close the held fd (if any). */
    void reset();

  private:
    int fd_ = -1;
};

/**
 * Create a listening TCP socket bound to @p host (an IPv4 literal such as
 * "127.0.0.1" or "0.0.0.0") and @p port (0 picks an ephemeral port).
 * Returns an invalid fd and fills @p err on failure.
 */
UniqueFd listenTcp(const std::string &host, int port, std::string &err);

/**
 * Create a listening Unix-domain socket at @p path. A stale socket file
 * from a previous run is unlinked first. Fails when @p path exceeds the
 * sockaddr_un limit (~107 bytes).
 */
UniqueFd listenUnix(const std::string &path, std::string &err);

/** Connect to a TCP endpoint (IPv4 literal host). */
UniqueFd connectTcp(const std::string &host, int port, std::string &err);

/** Connect to a Unix-domain socket. */
UniqueFd connectUnix(const std::string &path, std::string &err);

/** Local port a bound TCP socket ended up on (resolves port 0), -1 on error. */
int boundTcpPort(int fd);

/**
 * Write all @p n bytes (retrying on EINTR / short writes). SIGPIPE is
 * suppressed per-call (MSG_NOSIGNAL); a closed peer is an error, not a
 * process signal. False + @p err on failure.
 */
bool writeAll(int fd, const void *data, std::size_t n, std::string &err);

/**
 * Read up to @p n bytes once readable. Returns the byte count, 0 on
 * orderly EOF, or -1 with @p err set on error. Retries EINTR.
 */
long readSome(int fd, void *data, std::size_t n, std::string &err);

/** Put @p fd into nonblocking mode (listeners, shard sockets). */
bool setNonBlocking(int fd, std::string &err);

/**
 * One nonblocking read. Returns the byte count, 0 on orderly EOF, or
 * -1: with @p would_block set when the socket simply has no data
 * (EAGAIN/EWOULDBLOCK), or with @p err set on a real error. Retries
 * EINTR.
 */
long tryRead(int fd, void *data, std::size_t n, bool &would_block,
             std::string &err);

/**
 * One nonblocking write pass: send as much of @p data as the socket
 * accepts. Returns bytes written (possibly 0 when the send buffer is
 * full — @p would_block set), or -1 with @p err on a real error.
 * SIGPIPE is suppressed per-call (MSG_NOSIGNAL). Retries EINTR.
 */
long tryWrite(int fd, const void *data, std::size_t n, bool &would_block,
              std::string &err);

/** pollIn() outcomes. */
enum class PollResult { Readable, Timeout, Aux, Error };

/**
 * Wait until @p fd is readable, @p timeout_ms elapses (< 0 waits forever),
 * or @p aux_fd (ignored when < 0) becomes readable — the server threads
 * use the aux slot for the stop-pipe so shutdown interrupts every wait.
 * @p fd itself may also be < 0 to wait on the aux fd alone.
 */
PollResult pollIn(int fd, int aux_fd, int timeout_ms);

} // namespace bxt::net

#endif // BXT_SERVER_NET_H
