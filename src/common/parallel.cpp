#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/cli.h"

namespace bxt {

unsigned
defaultThreadCount()
{
    long long env = 0;
    const char *text = std::getenv("BXT_THREADS");
    if (text != nullptr && parseDecimal(text, 1, maxThreads, env))
        return static_cast<unsigned>(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
parallelFor(std::size_t count, unsigned threads,
            const std::function<void(std::size_t)> &body)
{
    if (threads == 0)
        threads = defaultThreadCount();
    threads = static_cast<unsigned>(
        std::min<std::size_t>({threads, maxThreads, count}));
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error; // Written once, by the first thrower.
    const auto work = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                body(i);
            } catch (...) {
                if (!failed.exchange(true))
                    error = std::current_exception();
            }
        }
    };
    {
        // jthreads join on every exit from this scope, including a
        // failed thread start, so no joinable thread is left behind.
        std::vector<std::jthread> workers;
        workers.reserve(threads - 1);
        for (unsigned t = 1; t < threads; ++t)
            workers.emplace_back(work);
        work(); // The calling thread is a worker too.
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace bxt
