/**
 * @file
 * Data-parallel fan-out for the evaluation engine: one parallelFor that
 * starts its workers for the call and joins them before it returns.
 *
 * Determinism: parallelFor only distributes *indices*; callers write
 * results into per-index slots, so output is bit-identical regardless of
 * thread count or scheduling order (bench/suite_eval.cpp relies on it).
 */

#ifndef BXT_COMMON_PARALLEL_H
#define BXT_COMMON_PARALLEL_H

#include <cstddef>
#include <functional>

namespace bxt {

/** Upper bound on accepted thread counts (sanity clamp for overrides). */
constexpr unsigned maxThreads = 256;

/**
 * Number of threads to use by default: the `BXT_THREADS` environment
 * variable when it is a whole decimal number in 1..maxThreads, otherwise
 * std::thread::hardware_concurrency(), with a floor of 1.
 */
unsigned defaultThreadCount();

/**
 * Invoke `body(i)` for every i in [0, count) on @p threads threads (0
 * means defaultThreadCount(); clamped to maxThreads and to @p count).
 * The calling thread is one of them, and the other `threads - 1` are
 * started for this call and joined before it returns; with one thread
 * the loop runs inline. Indices come from one atomic counter, so the
 * body must be safe to call concurrently for distinct indices.
 *
 * Once a body throws, no further index starts; the first exception is
 * rethrown after every worker has joined.
 */
void parallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)> &body);

} // namespace bxt

#endif // BXT_COMMON_PARALLEL_H
