/**
 * @file
 * perfbench_load: one end-to-end run of a workload against a live bxtd.
 *
 * Spawns bxtd (BXT_METRICS=1, no trace sampling) several times to time
 * set-up, keeps the last instance, and drives it over loopback with one
 * closed-loop thread per connection. After an untimed warm-up it
 * measures --seconds one-second windows, reading the server's CPU time,
 * the CPU steal on the benchmark's CPUs and bxtd's peak RSS from /proc,
 * and checks every reply: ones tallies against an in-process reference
 * encode, every decode against its input bytes. Prints one JSON line of
 * raw results; run.py turns them into the benchmark's metrics.
 *
 * Usage:
 *   perfbench_load --bxtd PATH --workload NAME --seed N --seconds S
 *                  [--workdir DIR] [--snapshots]
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "frames.h"
#include "workload.h"

extern char **environ;

namespace perfbench {
namespace {

std::int64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void
sleepUntil(std::int64_t deadline_ns)
{
    timespec ts{};
    ts.tv_sec = deadline_ns / 1000000000;
    ts.tv_nsec = deadline_ns % 1000000000;
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
}

/** Where bxtd listens. */
struct Endpoint
{
    std::string unixPath; ///< Relative to the working directory.
    int tcpPort = -1;
};

int
connectTo(const Endpoint &ep)
{
    int fd = -1;
    if (!ep.unixPath.empty()) {
        fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd < 0 || ep.unixPath.size() >= sizeof(addr.sun_path))
            return -1;
        std::memcpy(addr.sun_path, ep.unixPath.c_str(),
                    ep.unixPath.size() + 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(ep.tcpPort));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
writeAll(int fd, const std::uint8_t *data, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false;
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/** Send @p frame on blocking @p fd and read one reply into @p buf. */
bool
roundTrip(int fd, const std::vector<std::uint8_t> &frame,
          std::vector<std::uint8_t> &buf, FrameView &reply)
{
    if (!writeAll(fd, frame.data(), frame.size()))
        return false;
    buf.clear();
    std::uint8_t chunk[65536];
    for (;;) {
        const long len = parseFrame(buf.data(), buf.size(), reply);
        if (len > 0)
            return true;
        if (len < 0)
            return false;
        const ssize_t r = ::read(fd, chunk, sizeof(chunk));
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        buf.insert(buf.end(), chunk, chunk + r);
    }
}

bool
ping(int fd)
{
    std::vector<std::uint8_t> buf;
    FrameView reply;
    return roundTrip(fd, buildFrame(opPing, 0, {}, nullptr, 0), buf,
                     reply) &&
           reply.opcode == opPing;
}

/** bxtd as a child process; the destructor always reaps it. */
class ServerProcess
{
  public:
    ServerProcess() = default;
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;
    ~ServerProcess() { stop(); }

    bool start(const std::string &bxtd, const std::vector<std::string> &args,
               const cpu_set_t *cpus)
    {
        // Operators' environment: metrics on, no trace output.
        std::vector<std::string> env_store;
        for (char **e = environ; *e != nullptr; ++e) {
            if (std::strncmp(*e, "BXT_METRICS=", 12) != 0 &&
                std::strncmp(*e, "BXT_TRACE=", 10) != 0)
                env_store.emplace_back(*e);
        }
        env_store.emplace_back("BXT_METRICS=1");
        std::vector<char *> envp;
        for (std::string &e : env_store)
            envp.push_back(e.data());
        envp.push_back(nullptr);
        std::vector<std::string> argv_store{bxtd};
        argv_store.insert(argv_store.end(), args.begin(), args.end());
        std::vector<char *> argv;
        for (std::string &a : argv_store)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0)
            return false;
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ == 0) {
            // bxtd dies with the benchmark, whatever kills it.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(126);
            if (cpus != nullptr)
                ::sched_setaffinity(0, sizeof(cpu_set_t), cpus);
            ::dup2(fds[1], STDOUT_FILENO);
            ::execve(argv[0], argv.data(), envp.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        out_ = fds[0];
        return pid_ > 0;
    }

    /** Read bxtd's stdout until it reports serving; fills the TCP port. */
    bool waitServing(int timeout_ms, int &tcp_port)
    {
        std::string text;
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(timeout_ms) * 1000000;
        while (text.find("bxtd: serving") == std::string::npos) {
            pollfd pfd{out_, POLLIN, 0};
            const std::int64_t left = (deadline - nowNs()) / 1000000;
            if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0)
                return false;
            char buf[512];
            const ssize_t r = ::read(out_, buf, sizeof(buf));
            if (r <= 0)
                return false;
            text.append(buf, static_cast<std::size_t>(r));
        }
        const std::size_t at = text.find("tcp://");
        if (at != std::string::npos) {
            const std::size_t colon = text.find(':', at + 6);
            tcp_port = std::atoi(text.c_str() + colon + 1);
        }
        return true;
    }

    pid_t pid() const { return pid_; }

    /** SIGTERM, wait for the drain; true when bxtd exited with 0. */
    bool stop()
    {
        if (pid_ <= 0)
            return false;
        ::kill(pid_, SIGTERM);
        int status = 0;
        bool exited = false;
        for (int i = 0; i < 10000 && !exited; ++i) {
            const pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_)
                exited = true;
            else
                ::usleep(1000);
        }
        if (!exited) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
        }
        pid_ = -1;
        ::close(out_);
        out_ = -1;
        return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
    int out_ = -1;
};

/** Server process CPU time, in seconds. */
struct CpuSample
{
    double run = 0.0; ///< Run time summed over threads (schedstat).
    double sys = 0.0; ///< System time (stat).
};

bool
readCpu(pid_t pid, CpuSample &out)
{
    const std::string dir = "/proc/" + std::to_string(pid);
    std::ifstream stat(dir + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return false;
    // Field 15 (stime) follows the ')' that ends field 2.
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    for (int i = 3; i <= 15; ++i)
        fields >> field;
    out.sys = std::strtod(field.c_str(), nullptr) /
              static_cast<double>(::sysconf(_SC_CLK_TCK));
    out.run = 0.0;
    std::error_code ec;
    for (const auto &task :
         std::filesystem::directory_iterator(dir + "/task", ec)) {
        std::ifstream sched(task.path() / "schedstat");
        double ns = 0.0;
        if (sched >> ns)
            out.run += ns / 1e9;
    }
    return !ec && out.run > 0.0;
}

/**
 * Steal time summed over @p cpus, in seconds: time the hypervisor ran
 * another guest while one of these CPUs had work. /proc/stat counts it
 * in clock ticks.
 */
double
readStealS(const cpu_set_t &cpus)
{
    std::ifstream in("/proc/stat");
    std::string line;
    double ticks = 0.0;
    while (std::getline(in, line)) {
        if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ')
            continue;
        std::istringstream fields(line.substr(3));
        int cpu = 0;
        double v[8] = {};
        fields >> cpu;
        for (double &f : v)
            fields >> f;
        if (cpu < CPU_SETSIZE && CPU_ISSET(cpu, &cpus))
            ticks += v[7];
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/** VmHWM (peak RSS) of @p pid in kB, 0 when unreadable. */
long
readHwmKb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atol(line.c_str() + 6);
    }
    return 0;
}

/** One answered request. */
struct Record
{
    std::int64_t recvNs = 0;
    std::int64_t latencyNs = 0; ///< From send.
    std::int64_t lateNs = 0;    ///< Send time minus when its slot freed.
    std::uint32_t tx = 0;       ///< Encoded transactions (0 for decode).
};

/** Run-wide control shared by the connection threads. */
struct Control
{
    std::int64_t startNs = 0;
    std::int64_t giveUpNs = 0;
    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> giveUpAfterStop{0};
    /** Ones-prefix positions answered so far. */
    std::atomic<std::size_t> covered{0};
};

/** Drives one connection in a closed loop: sends from its plan as
 *  replies free a slot, and checks every reply. */
class ConnDriver
{
  public:
    ConnDriver(const Workload &workload, const std::vector<Request> &pool,
               std::size_t ones_prefix, int fd, Control &control)
        : seen(ones_prefix, 0), w_(workload), pool_(pool), fd_(fd),
          ctl_(control)
    {
    }

    /** Sends in order, cycled. */
    std::vector<Send> plan;

    std::vector<Record> records;
    std::uint64_t onesIn = 0;
    std::uint64_t onesOut = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::int64_t wireNs = 0; ///< Client time parsing and building frames.
    std::uint64_t wireOps = 0;
    std::vector<std::string> errors;
    std::vector<char> seen; ///< Ones-prefix positions tallied.

    int fd() const { return fd_; }
    void run();

  private:
    struct Op
    {
        Send send;
        bool decode = false;
        std::int64_t slotNs = 0; ///< When its slot freed.
        std::int64_t sentNs = 0;
    };

    void fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 5)
            errors.push_back(why);
    }
    void send(const Op &op, const std::vector<std::uint8_t> &frame)
    {
        out_.insert(out_.end(), frame.begin(), frame.end());
        inflight_.push_back(op);
        ++attempted;
    }
    void sendDue(std::int64_t now);
    bool flush();
    void onReply(const FrameView &reply, std::int64_t recv_ns);
    bool checkEncode(const Request &req, const FrameView &reply,
                     Tallies &got);

    const Workload &w_;
    const std::vector<Request> &pool_;
    int fd_;
    Control &ctl_;
    std::deque<Op> inflight_;
    std::deque<std::int64_t> freeSlots_;
    std::deque<std::pair<Send, std::vector<std::uint8_t>>> followUps_;
    std::vector<std::uint8_t> out_;
    std::size_t outPos_ = 0;
    std::size_t cursor_ = 0; ///< Next plan entry.
};

bool
ConnDriver::checkEncode(const Request &req, const FrameView &reply,
                        Tallies &got)
{
    EncodeReply enc;
    if (!parseEncodeReply(reply, enc) || enc.txBytes != req.txBytes ||
        enc.busBits != req.busBits || enc.count != req.count) {
        fail("malformed encode reply");
        return false;
    }
    got = {enc.onesIn, enc.payloadOnes, enc.metaOnes};
    if (!(got == req.ref)) {
        fail("ones tallies differ from the reference encode (spec " +
             req.spec + ")");
        return false;
    }
    return true;
}

void
ConnDriver::onReply(const FrameView &reply, std::int64_t recv_ns)
{
    if (inflight_.empty()) {
        fail("reply without a request");
        return;
    }
    const Op op = inflight_.front();
    inflight_.pop_front();
    const Request &req = pool_[op.send.index];
    Record rec;
    rec.recvNs = recv_ns;
    rec.latencyNs = recv_ns - op.sentNs;
    rec.lateNs = op.sentNs - op.slotNs;
    freeSlots_.push_back(recv_ns);

    if (reply.opcode == opError) {
        const std::size_t code = std::min<std::size_t>(4, reply.bodyLen);
        fail("error frame: " +
             std::string(reinterpret_cast<const char *>(reply.body) + code,
                         reply.bodyLen - code));
        return;
    }
    if (reply.stream != req.stream) {
        fail("stream id not echoed");
        return;
    }
    if (op.decode) {
        if (!decodeReplyEquals(reply, req.payload(), req.payloadBytes(),
                               req.txBytes)) {
            fail("decode differs from the encoded input (spec " + req.spec +
                 ")");
            return;
        }
        records.push_back(rec);
        return;
    }
    Tallies got;
    if (!checkEncode(req, reply, got))
        return;
    rec.tx = req.count;
    records.push_back(rec);
    if (op.send.position < seen.size() && seen[op.send.position] == 0) {
        seen[op.send.position] = 1;
        onesIn += got.in;
        onesOut += got.payload + got.meta;
        ctl_.covered.fetch_add(1, std::memory_order_relaxed);
    }
    if (w_.roundTrip) {
        const std::int64_t t = nowNs();
        followUps_.emplace_back(op.send, decodeRequestFor(reply, req.spec));
        wireNs += nowNs() - t;
    }
}

void
ConnDriver::sendDue(std::int64_t now)
{
    while (inflight_.size() < w_.depth && !plan.empty()) {
        Op op;
        op.slotNs = freeSlots_.front();
        freeSlots_.pop_front();
        op.sentNs = now;
        if (!followUps_.empty()) {
            op.send = followUps_.front().first;
            op.decode = true;
            send(op, followUps_.front().second);
            followUps_.pop_front();
        } else {
            op.send = plan[cursor_++ % plan.size()];
            send(op, pool_[op.send.index].frame);
        }
    }
}

bool
ConnDriver::flush()
{
    while (outPos_ < out_.size()) {
        const ssize_t n =
            ::write(fd_, out_.data() + outPos_, out_.size() - outPos_);
        if (n > 0) {
            outPos_ += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR))
            break;
        return false;
    }
    if (outPos_ == out_.size()) {
        out_.clear();
        outPos_ = 0;
    }
    return true;
}

void
ConnDriver::run()
{
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    for (unsigned i = 0; i < w_.depth; ++i)
        freeSlots_.push_back(ctl_.startNs);
    std::vector<std::uint8_t> in;
    std::size_t in_pos = 0;
    std::vector<std::uint8_t> chunk(1 << 16);
    sleepUntil(ctl_.startNs);

    const auto fail_inflight = [this](const char *why) {
        for (std::size_t i = 0; i < inflight_.size(); ++i)
            fail(why);
    };
    for (;;) {
        const std::int64_t now = nowNs();
        const bool stopping = ctl_.stop.load(std::memory_order_relaxed);
        if (now > (stopping ? ctl_.giveUpAfterStop.load() : ctl_.giveUpNs)) {
            fail_inflight("no reply before the deadline");
            return;
        }
        if (!stopping)
            sendDue(now);
        if (inflight_.empty() && stopping)
            return;
        if (!flush()) {
            fail_inflight("write failed");
            return;
        }

        pollfd pfd{fd_, static_cast<short>(
                            POLLIN | (out_.empty() ? 0 : POLLOUT)),
                   0};
        const timespec ts{0, 20000000};
        if (::ppoll(&pfd, 1, &ts, nullptr) <= 0 ||
            (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            continue;

        bool eof = false;
        for (;;) {
            const ssize_t r = ::read(fd_, chunk.data(), chunk.size());
            if (r > 0) {
                in.insert(in.end(), chunk.data(), chunk.data() + r);
                continue;
            }
            eof = r == 0 || (errno != EAGAIN && errno != EINTR);
            break;
        }
        const std::int64_t recv_ns = nowNs();
        for (;;) {
            FrameView reply;
            const std::int64_t t = nowNs();
            const long len =
                parseFrame(in.data() + in_pos, in.size() - in_pos, reply);
            wireNs += nowNs() - t;
            if (len == 0)
                break;
            if (len < 0) {
                fail("unparseable reply stream");
                eof = true;
                break;
            }
            ++wireOps;
            in_pos += static_cast<std::size_t>(len);
            onReply(reply, recv_ns);
        }
        if (in_pos == in.size()) {
            in.clear();
            in_pos = 0;
        }
        if (eof) {
            fail_inflight("connection closed with requests in flight");
            return;
        }
    }
}

double
quantile(std::vector<std::int64_t> &v, double q)
{
    if (v.empty())
        return 0.0;
    const std::size_t k = std::min(
        v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(
                                                        v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return static_cast<double>(v[k]);
}

/** Length of one measurement window. */
constexpr double windowSeconds = 1.0;

/** Untimed warm-up: codec caches, page faults, lazy set-up. */
constexpr double warmupSeconds = 1.0;

/** bxtd start-ups per run; run.py reports their median as setup_s. */
constexpr int setupRuns = 25;

struct Args
{
    std::string bxtd;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string workdir = ".";
    bool snapshots = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--snapshots") {
            a.snapshots = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (k == "--bxtd")
            a.bxtd = v;
        else if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--workdir")
            a.workdir = v;
        else
            return false;
    }
    return !a.bxtd.empty() && !a.workload.empty() && a.seconds > 0;
}

/**
 * The server's Snapshot document over a fresh connection (an idle one
 * would meet bxtd's idle timeout during a long run); empty on failure.
 */
std::string
fetchSnapshot(const Endpoint &ep)
{
    const int fd = connectTo(ep);
    std::vector<std::uint8_t> buf;
    FrameView reply;
    std::string doc;
    if (fd >= 0 &&
        roundTrip(fd, buildFrame(opSnapshot, 0, {}, nullptr, 0), buf,
                  reply) &&
        reply.opcode == opSnapshot)
        doc.assign(reinterpret_cast<const char *>(reply.body),
                   reply.bodyLen);
    if (fd >= 0)
        ::close(fd);
    return doc;
}

int
run(const Args &args)
{
    const Workload *w = findWorkload(args.workload);
    if (w == nullptr) {
        std::fprintf(stderr, "perfbench_load: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const std::vector<Request> pool = makePool(*w, args.seed);
    if (pool.size() != poolSize) {
        std::fprintf(stderr, "perfbench_load: pool generation failed\n");
        return 2;
    }

    // With a CPU per thread to spare, bxtd's shards get the first
    // allowed CPUs and the client threads the rest, so neither preempts
    // the other.
    cpu_set_t allowed;
    ::sched_getaffinity(0, sizeof(allowed), &allowed);
    const bool split = static_cast<unsigned>(CPU_COUNT(&allowed)) >=
                       w->shards + w->connections;
    cpu_set_t server_cpus, client_cpus;
    CPU_ZERO(&server_cpus);
    CPU_ZERO(&client_cpus);
    for (int cpu = 0, n = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed))
            CPU_SET(cpu, n++ < static_cast<int>(w->shards) ? &server_cpus
                                                           : &client_cpus);
    }

    // Set-up: spawn until every shard answers a Ping, several times.
    std::vector<double> setup_s;
    ServerProcess server;
    Endpoint ep;
    for (int k = 0; k < setupRuns; ++k) {
        if (k > 0 && !server.stop()) {
            std::fprintf(stderr, "perfbench_load: bxtd did not drain\n");
            return 1;
        }
        std::vector<std::string> bxtd_args{"--shards",
                                           std::to_string(w->shards)};
        ep = Endpoint{};
        if (w->unixSocket) {
            ep.unixPath = args.workdir + "/bxtd-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(k) + ".sock";
            ::unlink(ep.unixPath.c_str());
            bxtd_args.insert(bxtd_args.end(), {"--unix", ep.unixPath});
        } else {
            bxtd_args.insert(bxtd_args.end(), {"--listen", "127.0.0.1:0"});
        }
        const std::int64_t t_spawn = nowNs();
        if (!server.start(args.bxtd, bxtd_args,
                          split ? &server_cpus : nullptr) ||
            !server.waitServing(10000, ep.tcpPort)) {
            std::fprintf(stderr, "perfbench_load: bxtd did not start\n");
            return 1;
        }
        // Unix connections go round-robin to the shards, so `shards`
        // sequential connections reach each shard once.
        std::vector<int> fds;
        bool ok = true;
        for (unsigned s = 0; s < w->shards && ok; ++s) {
            fds.push_back(connectTo(ep));
            ok = fds.back() >= 0 && ping(fds.back());
        }
        const std::int64_t t_ready = nowNs();
        for (int fd : fds)
            ::close(fd);
        if (!ok) {
            std::fprintf(stderr, "perfbench_load: ping failed\n");
            return 1;
        }
        setup_s.push_back(static_cast<double>(t_ready - t_spawn) / 1e9);
    }

    const std::vector<Send> sequence = makeSequence(*w, args.seed, pool);
    // Ones are tallied over a fixed prefix of the sequence, so the figure
    // repeats exactly.
    const std::size_t ones_prefix = std::min(onesPrefix, sequence.size());
    Control ctl;
    std::vector<std::unique_ptr<ConnDriver>> drivers;
    for (unsigned c = 0; c < w->connections; ++c) {
        const int fd = connectTo(ep);
        if (fd < 0) {
            std::fprintf(stderr, "perfbench_load: connect failed\n");
            return 1;
        }
        drivers.push_back(
            std::make_unique<ConnDriver>(*w, pool, ones_prefix, fd, ctl));
    }
    // Striped, so every connection carries the preset's tenant mix.
    for (const Send &send : sequence)
        drivers[send.position % w->connections]->plan.push_back(send);

    if (split)
        ::sched_setaffinity(0, sizeof(cpu_set_t), &client_cpus);
    ctl.startNs = nowNs() + 20000000;
    const auto secs = [](double s) {
        return static_cast<std::int64_t>(s * 1e9);
    };
    ctl.giveUpNs = ctl.startNs + secs(warmupSeconds + args.seconds + 60.0);
    std::vector<std::thread> threads;
    for (auto &d : drivers)
        threads.emplace_back([&d] { d->run(); });

    // Warm-up, untimed: at least warmupSeconds, and until the ones prefix
    // is answered. The measured time is then cut into one-second
    // windows, which run.py summarizes.
    sleepUntil(ctl.startNs + secs(warmupSeconds));
    while (ctl.covered.load() < ones_prefix && nowNs() < ctl.giveUpNs)
        sleepUntil(nowNs() + 10000000);
    const int windows = std::max(1, static_cast<int>(args.seconds + 0.5));
    std::string snap_before, snap_after; // Empty: not fetched.
    std::vector<std::int64_t> edges;
    std::vector<CpuSample> cpu(windows + 1);
    std::vector<double> steal(windows + 1);
    bool cpu_ok = true;
    if (args.snapshots)
        snap_before = fetchSnapshot(ep);
    for (int k = 0; k <= windows; ++k) {
        if (k > 0)
            sleepUntil(edges.front() + secs(windowSeconds) * k);
        edges.push_back(nowNs());
        cpu_ok = readCpu(server.pid(), cpu[k]) && cpu_ok;
        steal[k] = readStealS(allowed);
    }
    if (args.snapshots)
        snap_after = fetchSnapshot(ep);
    const std::int64_t t0 = edges.front(), t1 = edges.back();
    ctl.giveUpAfterStop = t1 + secs(30.0);
    ctl.stop = true;
    for (std::thread &t : threads)
        t.join();
    const long hwm_kb = readHwmKb(server.pid());

    struct Window
    {
        std::uint64_t tx = 0;
        std::uint64_t requests = 0;
        std::vector<std::int64_t> latency, late;
    };
    std::vector<Window> win(windows);
    std::uint64_t ones_in = 0, ones_out = 0;
    std::uint64_t attempted = 0, failed = 0, wire_ops = 0;
    std::int64_t wire_ns = 0;
    std::size_t covered = 0;
    for (auto &d : drivers) {
        for (const Record &r : d->records) {
            if (r.recvNs < t0 || r.recvNs >= t1)
                continue;
            Window &wd = win[std::upper_bound(edges.begin(), edges.end(),
                                              r.recvNs) -
                             edges.begin() - 1];
            wd.tx += r.tx;
            ++wd.requests;
            wd.latency.push_back(r.latencyNs);
            wd.late.push_back(r.lateNs);
        }
        ones_in += d->onesIn;
        ones_out += d->onesOut;
        attempted += d->attempted;
        failed += d->failed;
        wire_ns += d->wireNs;
        wire_ops += d->wireOps;
        covered += static_cast<std::size_t>(
            std::count(d->seen.begin(), d->seen.end(), 1));
        for (const std::string &e : d->errors)
            std::fprintf(stderr, "perfbench_load: %s\n", e.c_str());
        ::close(d->fd());
    }
    bool correct = failed == 0 && cpu_ok;
    if (covered != ones_prefix) {
        std::fprintf(stderr, "perfbench_load: %zu of %zu requests in the "
                             "ones prefix were answered\n",
                     covered, ones_prefix);
        correct = false;
    }
    if (!server.stop()) {
        std::fprintf(stderr, "perfbench_load: bxtd did not exit cleanly\n");
        correct = false;
    }
    for (const Window &wd : win)
        correct = correct && wd.requests > 0;
    if (args.snapshots && (snap_before.empty() || snap_after.empty())) {
        std::fprintf(stderr, "perfbench_load: Snapshot request failed\n");
        correct = false;
    }
    const auto json_or_null = [](const std::string &doc) {
        return doc.empty() ? "null" : doc.c_str();
    };

    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,"
        "\"attempted\":%llu,\"failed\":%llu,\"setup_s\":[",
        w->name, static_cast<unsigned long long>(args.seed),
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < setup_s.size(); ++i)
        std::printf("%s%.9f", i == 0 ? "" : ",", setup_s[i]);
    std::printf("],\"windows\":[");
    for (int k = 0; k < windows; ++k) {
        Window &wd = win[k];
        std::printf(
            "%s{\"s\":%.9f,\"tx\":%llu,\"requests\":%llu,"
            "\"p50_us\":%.3f,\"p99_us\":%.3f,\"late_p99_us\":%.3f,"
            "\"cpu_s\":%.9f,\"steal_s\":%.2f}",
            k == 0 ? "" : ",",
            static_cast<double>(edges[k + 1] - edges[k]) / 1e9,
            static_cast<unsigned long long>(wd.tx),
            static_cast<unsigned long long>(wd.requests),
            quantile(wd.latency, 0.50) / 1e3,
            quantile(wd.latency, 0.99) / 1e3,
            quantile(wd.late, 0.99) / 1e3, cpu[k + 1].run - cpu[k].run,
            steal[k + 1] - steal[k]);
    }
    std::printf(
        "],\"cpus\":%d,\"cpu_run_s\":%.9f,\"cpu_sys_s\":%.4f,"
        "\"rss_kb\":%ld,\"ones_in\":%llu,\"ones_out\":%llu,"
        "\"client_wire_ns\":%.3f,\"snapshot_before\":%s,"
        "\"snapshot_after\":%s}\n",
        CPU_COUNT(&allowed),
        cpu[windows].run - cpu[0].run, cpu[windows].sys - cpu[0].sys,
        hwm_kb,
        static_cast<unsigned long long>(ones_in),
        static_cast<unsigned long long>(ones_out),
        wire_ops == 0 ? 0.0
                      : static_cast<double>(wire_ns) /
                            static_cast<double>(wire_ops),
        json_or_null(snap_before), json_or_null(snap_after));
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    ::signal(SIGPIPE, SIG_IGN);
    perfbench::Args args;
    if (!perfbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench_load --bxtd PATH --workload NAME "
                     "--seed N --seconds S [--workdir DIR] "
                     "[--snapshots]\n");
        return 2;
    }
    return perfbench::run(args);
}
