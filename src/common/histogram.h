/**
 * @file
 * Fixed-range bucketed histogram, used for the application-distribution
 * plots (paper Figure 13) and the mixed-data-ratio buckets (Figure 14).
 */

#ifndef BXT_COMMON_HISTOGRAM_H
#define BXT_COMMON_HISTOGRAM_H

#include <cstddef>
#include <string>
#include <vector>

namespace bxt {

/**
 * Histogram over [lo, hi) with uniformly sized buckets. Samples outside the
 * range are clamped into the first/last bucket, mirroring how the paper
 * plots out-of-range applications at the plot edges.
 */
class Histogram
{
  public:
    /**
     * @param lo Lower bound of the tracked range.
     * @param hi Upper bound of the tracked range; must exceed @p lo.
     * @param buckets Number of buckets; must be nonzero.
     */
    Histogram(double lo, double hi, std::size_t buckets);

    /** Add a sample (clamped into range). */
    void add(double sample);

    /** Bucket a sample falls into (clamped into range). */
    std::size_t bucketIndex(double sample) const;

    /** Count in bucket @p index. */
    std::size_t bucketCount(std::size_t index) const;

    /** Total samples added. */
    std::size_t total() const { return total_; }

    /** Number of buckets. */
    std::size_t buckets() const { return counts_.size(); }

    /** Inclusive lower edge of bucket @p index. */
    double bucketLo(std::size_t index) const;

    /** Exclusive upper edge of bucket @p index. */
    double bucketHi(std::size_t index) const;

    /** Fraction of samples in bucket @p index (0 if empty). */
    double bucketFraction(std::size_t index) const;

    /** Render as an ASCII bar chart, one bucket per line. */
    std::string render(int bar_width = 40) const;

  private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

} // namespace bxt

#endif // BXT_COMMON_HISTOGRAM_H
