/**
 * @file
 * Running mean/min/max/stddev accumulation for the evaluation harness.
 * Latency quantiles live in telemetry::Histo.
 */

#ifndef BXT_COMMON_STATS_H
#define BXT_COMMON_STATS_H

#include <cstddef>

namespace bxt {

/**
 * Incrementally accumulates count/mean/variance/min/max of a sample stream
 * (Welford's algorithm, numerically stable).
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double sample);

    /** Number of samples added so far. */
    std::size_t count() const { return count_; }

    /** Arithmetic mean (0 if empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Sample variance (0 if fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest sample (0 if empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** Largest sample (0 if empty). */
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace bxt

#endif // BXT_COMMON_STATS_H
