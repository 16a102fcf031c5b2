#include "server/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace bxt::net {
namespace {

std::string
errnoString(const std::string &what)
{
    return what + ": " + std::strerror(errno);
}

} // namespace

void
UniqueFd::reset()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

UniqueFd
listenTcp(const std::string &host, int port, std::string &err)
{
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        err = errnoString("socket");
        return {};
    }
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        err = "listenTcp: bad IPv4 host literal '" + host + "'";
        return {};
    }
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        err = errnoString("bind " + host + ":" + std::to_string(port));
        return {};
    }
    if (::listen(fd.get(), SOMAXCONN) != 0) {
        err = errnoString("listen");
        return {};
    }
    return fd;
}

UniqueFd
listenUnix(const std::string &path, std::string &err)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        err = "listenUnix: path too long: " + path;
        return {};
    }
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
        err = errnoString("socket");
        return {};
    }
    ::unlink(path.c_str()); // Stale socket from a previous run.
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        err = errnoString("bind " + path);
        return {};
    }
    if (::listen(fd.get(), SOMAXCONN) != 0) {
        err = errnoString("listen");
        return {};
    }
    return fd;
}

UniqueFd
connectTcp(const std::string &host, int port, std::string &err)
{
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        err = errnoString("socket");
        return {};
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        err = "connectTcp: bad IPv4 host literal '" + host + "'";
        return {};
    }
    if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        err = errnoString("connect " + host + ":" + std::to_string(port));
        return {};
    }
    return fd;
}

UniqueFd
connectUnix(const std::string &path, std::string &err)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        err = "connectUnix: path too long: " + path;
        return {};
    }
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
        err = errnoString("socket");
        return {};
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        err = errnoString("connect " + path);
        return {};
    }
    return fd;
}

int
boundTcpPort(int fd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0)
        return -1;
    return static_cast<int>(ntohs(addr.sin_port));
}

bool
writeAll(int fd, const void *data, std::size_t n, std::string &err)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::size_t sent = 0;
    while (sent < n) {
        const ssize_t w =
            ::send(fd, bytes + sent, n - sent, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            err = errnoString("write");
            return false;
        }
        sent += static_cast<std::size_t>(w);
    }
    return true;
}

long
readSome(int fd, void *data, std::size_t n, std::string &err)
{
    for (;;) {
        const ssize_t r = ::read(fd, data, n);
        if (r >= 0)
            return static_cast<long>(r);
        if (errno == EINTR)
            continue;
        err = errnoString("read");
        return -1;
    }
}

bool
setNonBlocking(int fd, std::string &err)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        err = errnoString("fcntl O_NONBLOCK");
        return false;
    }
    return true;
}

long
tryRead(int fd, void *data, std::size_t n, bool &would_block,
        std::string &err)
{
    would_block = false;
    for (;;) {
        const ssize_t r = ::read(fd, data, n);
        if (r >= 0)
            return static_cast<long>(r);
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            would_block = true;
            return -1;
        }
        err = errnoString("read");
        return -1;
    }
}

long
tryWrite(int fd, const void *data, std::size_t n, bool &would_block,
         std::string &err)
{
    would_block = false;
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::size_t sent = 0;
    while (sent < n) {
        const ssize_t w =
            ::send(fd, bytes + sent, n - sent, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                would_block = true;
                break;
            }
            err = errnoString("write");
            return -1;
        }
        sent += static_cast<std::size_t>(w);
    }
    return static_cast<long>(sent);
}

PollResult
pollIn(int fd, int aux_fd, int timeout_ms)
{
    pollfd fds[2];
    nfds_t count = 0;
    int fd_slot = -1;
    int aux_slot = -1;
    if (fd >= 0) {
        fd_slot = static_cast<int>(count);
        fds[count++] = {fd, POLLIN, 0};
    }
    if (aux_fd >= 0) {
        aux_slot = static_cast<int>(count);
        fds[count++] = {aux_fd, POLLIN, 0};
    }
    for (;;) {
        const int r = ::poll(fds, count, timeout_ms);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return PollResult::Error;
        }
        if (r == 0)
            return PollResult::Timeout;
        // The stop-pipe takes precedence: a shutdown mid-request should
        // win over more incoming traffic.
        if (aux_slot >= 0 && (fds[aux_slot].revents & POLLIN) != 0)
            return PollResult::Aux;
        if (fd_slot >= 0 && fds[fd_slot].revents != 0)
            return PollResult::Readable;
        return PollResult::Error;
    }
}

} // namespace bxt::net
