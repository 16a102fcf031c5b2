/**
 * @file
 * Run a built binary from a test: its argv with no shell in between,
 * extra environment entries, stdout and stderr captured, and a time
 * bound after which the child is killed, and its peak resident set.
 * Process also keeps a server running while the test talks to it.
 */

#ifndef BXT_TESTS_RUN_PROCESS_H
#define BXT_TESTS_RUN_PROCESS_H

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

extern char **environ;

namespace bxt {

/** How a child ended and what it wrote. */
struct ProcessResult
{
    int status = -1;       ///< Exit code; 128 + N when signal N ended it.
    bool timedOut = false; ///< Killed at the time bound.
    std::string out;       ///< Everything written to stdout.
    std::string err;       ///< Everything written to stderr.
    long maxRssKb = 0;     ///< Peak resident set, kB (wait4's ru_maxrss).
};

/**
 * One child process: argv[0] is a path, stdin is /dev/null, and the
 * environment is this process's with each "NAME=VALUE" of @p env set.
 * The destructor kills and reaps a child that is still running.
 */
class Process
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit Process(const std::vector<std::string> &argv,
                     const std::vector<std::string> &env = {})
    {
        std::vector<std::string> vars;
        for (char **entry = environ; *entry != nullptr; ++entry) {
            const std::string_view var(*entry);
            if (std::none_of(env.begin(), env.end(), [&](const auto &set) {
                    const std::size_t eq = set.find('=');
                    return var.substr(0, var.find('=')) ==
                           std::string_view(set).substr(0, eq);
                }))
                vars.emplace_back(var);
        }
        vars.insert(vars.end(), env.begin(), env.end());

        int out_pipe[2];
        int err_pipe[2];
        if (::pipe2(out_pipe, O_CLOEXEC) != 0)
            return;
        if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
            ::close(out_pipe[0]);
            ::close(out_pipe[1]);
            return;
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY,
                                         0);
        posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
        posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);
        std::vector<char *> args = pointers(argv);
        std::vector<char *> envp = pointers(vars);
        if (::posix_spawn(&pid_, argv.at(0).c_str(), &actions, nullptr,
                          args.data(), envp.data()) != 0)
            pid_ = -1;
        posix_spawn_file_actions_destroy(&actions);
        ::close(out_pipe[1]);
        ::close(err_pipe[1]);
        fds_ = {out_pipe[0], err_pipe[0]};
        if (pid_ < 0)
            closePipes();
    }

    ~Process()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        closePipes();
    }

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /** What the child has written to stdout so far. */
    const std::string &out() const { return text_[0]; }

    /** What the child has written to stderr so far. */
    const std::string &err() const { return text_[1]; }

    /**
     * Read the child's output until stdout holds @p text; false when
     * @p bound passes or the child closes stdout first.
     */
    bool waitForOutput(std::string_view text, std::chrono::milliseconds bound)
    {
        const Clock::time_point deadline = Clock::now() + bound;
        while (out().find(text) == std::string::npos) {
            if (fds_[0] < 0 || !pump(deadline))
                return false;
        }
        return true;
    }

    /** Send @p sig to the child, if it has not been reaped. */
    void signal(int sig)
    {
        if (pid_ > 0)
            ::kill(pid_, sig);
    }

    /**
     * Read both pipes to EOF and reap the child; SIGKILL it if it is
     * still writing or running when @p bound passes.
     */
    ProcessResult wait(std::chrono::milliseconds bound)
    {
        ProcessResult result;
        Clock::time_point deadline = Clock::now() + bound;
        while (fds_[0] >= 0 || fds_[1] >= 0) {
            if (pump(deadline))
                continue;
            if (result.timedOut)
                break; // Something outlived the child and holds a pipe.
            signal(SIGKILL);
            result.timedOut = true;
            deadline = Clock::now() + std::chrono::seconds(5);
        }
        closePipes();
        int status = 0;
        rusage usage{};
        if (pid_ > 0 && ::wait4(pid_, &status, 0, &usage) == pid_) {
            result.status = WIFEXITED(status) ? WEXITSTATUS(status)
                                              : 128 + WTERMSIG(status);
            result.maxRssKb = usage.ru_maxrss;
        }
        pid_ = -1;
        result.out = text_[0];
        result.err = text_[1];
        return result;
    }

  private:
    static std::vector<char *> pointers(const std::vector<std::string> &v)
    {
        std::vector<char *> p;
        for (const std::string &s : v)
            p.push_back(const_cast<char *>(s.c_str()));
        p.push_back(nullptr);
        return p;
    }

    /**
     * Wait until @p deadline for output on the open pipes and append
     * what arrives; a pipe at EOF is closed. False on the deadline.
     */
    bool pump(Clock::time_point deadline)
    {
        std::array<pollfd, 2> polled{};
        for (std::size_t i = 0; i < 2; ++i)
            polled[i] = {fds_[i], POLLIN, 0};
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        if (left.count() <= 0)
            return false;
        const int ready = ::poll(polled.data(), polled.size(),
                                 static_cast<int>(left.count()));
        if (ready == 0)
            return false;
        for (std::size_t i = 0; i < 2; ++i) {
            if (ready < 0 || polled[i].revents == 0)
                continue;
            char buf[4096];
            const long n = ::read(fds_[i], buf, sizeof buf);
            if (n > 0) {
                text_[i].append(buf, static_cast<std::size_t>(n));
            } else if (n == 0 || errno != EINTR) {
                ::close(fds_[i]);
                fds_[i] = -1;
            }
        }
        return true;
    }

    void closePipes()
    {
        for (int &fd : fds_) {
            if (fd >= 0)
                ::close(fd);
            fd = -1;
        }
    }

    pid_t pid_ = -1;
    std::array<int, 2> fds_{-1, -1};
    std::array<std::string, 2> text_;
};

/** Run @p argv to its end, at most @p bound (see Process). */
inline ProcessResult
runProcess(const std::vector<std::string> &argv,
           std::chrono::milliseconds bound,
           const std::vector<std::string> &env = {})
{
    Process child(argv, env);
    return child.wait(bound);
}

} // namespace bxt

#endif // BXT_TESTS_RUN_PROCESS_H
