/**
 * @file
 * Thread-safe metrics registries: monotonic counters, gauges, and
 * log-bucketed HDR-style histograms, addressed by hierarchical names
 * following the `bxt.<layer>.<name>` convention (DESIGN.md §9).
 *
 * Registries are instantiable (DESIGN.md §14): the process keeps one
 * `defaultRegistry()`, and subsystems that want isolated instrument sets
 * — the bxtd shards, each owning a private registry merged on Stats —
 * construct their own `Registry` and install it per-thread with
 * `ScopedRegistry`. The free `counter()/gauge()/histogram()` lookups and
 * the `forEach*` visitors resolve against `currentRegistry()` (the
 * thread's installed registry, falling back to the default), so existing
 * instrumentation call sites transparently record into whichever
 * registry owns the calling thread. Registries of the same shape merge
 * instrument-wise (`Registry::mergeFrom`): counters and gauges add,
 * histograms sum their sparse HDR buckets bucket-wise.
 *
 * Zero-cost-when-off contract: instrumentation is compiled in
 * unconditionally but gated behind `metricsEnabled()` — a single relaxed
 * atomic load — so the tier-1 throughput numbers are unaffected when
 * `BXT_METRICS` is unset. When enabled, the record paths are lock-free
 * relaxed atomics; only registration (first lookup of a name) takes the
 * registry mutex, and hot call sites cache the returned reference.
 */

#ifndef BXT_TELEMETRY_METRICS_H
#define BXT_TELEMETRY_METRICS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace bxt::telemetry {

namespace detail {
/** Global gate; initialized from BXT_METRICS, flipped programmatically. */
extern std::atomic<bool> metricsOn;
} // namespace detail

/**
 * True when metric recording is active (BXT_METRICS=1 or programmatic).
 * Constant-false under -DBXT_TELEMETRY=OFF so every gated call site
 * folds away (the baseline the metrics CI job measures against).
 */
inline bool
metricsEnabled()
{
#ifdef BXT_NO_TELEMETRY
    return false;
#else
    return detail::metricsOn.load(std::memory_order_relaxed);
#endif
}

/** Programmatic enable/disable (overrides the environment). */
void setMetricsEnabled(bool on);

/**
 * Zero every instrument of the default registry and clear the span and
 * trace buffers. Registered instruments stay registered (call sites
 * hold references). Shard-private registries are untouched — they die
 * with their owner. Test-only.
 */
void resetForTest();

/**
 * Map an arbitrary identifier (codec spec, app name) into a metric-name
 * segment: '+' -> '-', '|' -> "__", anything outside [A-Za-z0-9_.-]
 * -> '_'. "universal3+zdr|dbi4" becomes "universal3-zdr__dbi4".
 */
std::string sanitizeMetricName(const std::string &text);

/** Monotonic 64-bit counter. */
class Counter
{
  public:
    explicit Counter(std::string name) : name_(std::move(name)) {}

    void add(std::uint64_t n = 1)
    {
        if (!metricsEnabled())
            return;
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Ungated add for registry merging (export path, not hot path). */
    void mergeAdd(std::uint64_t n)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    const std::string &name() const { return name_; }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::string name_;
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins floating-point gauge. */
class Gauge
{
  public:
    explicit Gauge(std::string name) : name_(std::move(name)) {}

    void set(double v)
    {
        if (!metricsEnabled())
            return;
        value_.store(v, std::memory_order_relaxed);
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

    /**
     * Ungated accumulate for registry merging: shard gauges add on
     * merge (active connections sum to fleet totals; per-stream
     * adaptive gauges sum over the shards serving the stream, see
     * DESIGN.md §14 "Mergeable stats").
     */
    void mergeAdd(double v)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + v,
                                             std::memory_order_relaxed)) {
        }
    }

    const std::string &name() const { return name_; }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::string name_;
    std::atomic<double> value_{0.0};
};

/**
 * Log-bucketed HDR-style histogram with atomic per-bucket counts, for
 * non-negative integer-valued samples (durations in µs, batch sizes).
 * Values below 32 land in exact unit-width buckets; above that, each
 * power-of-two octave is split into 32 sub-buckets, bounding the
 * relative quantization error at 1/32 (~3%) across the whole range.
 * With 1024 fixed buckets the histogram tracks values up to 2^36-1
 * (larger samples clamp into the top bucket) — no registration-time
 * range choice, so one shape fits every instrument and quantile
 * estimation (p50/p95/p99/p999) needs no a-priori bounds.
 */
class Histo
{
  public:
    /** log2 of sub-buckets per octave; bounds relative error at 2^-5. */
    static constexpr std::size_t subBucketBits = 5;
    static constexpr std::size_t subBuckets = std::size_t{1}
                                              << subBucketBits;
    /** Fixed bucket count: 32 exact + 31 octaves x 32 sub-buckets. */
    static constexpr std::size_t numBuckets = 1024;

    explicit Histo(std::string name);

    /** Bucket index holding @p v (clamped into the top bucket). */
    static std::size_t bucketIndexOf(std::uint64_t v)
    {
        if (v < subBuckets)
            return static_cast<std::size_t>(v);
        const std::size_t octave =
            static_cast<std::size_t>(std::bit_width(v)) - 1 -
            subBucketBits;
        const std::size_t sub =
            static_cast<std::size_t>(v >> octave) & (subBuckets - 1);
        const std::size_t index =
            subBuckets + octave * subBuckets + sub;
        return index < numBuckets ? index : numBuckets - 1;
    }

    /** Smallest value mapping to bucket @p index. */
    static std::uint64_t bucketLowerBound(std::size_t index)
    {
        if (index < subBuckets)
            return index;
        const std::size_t octave = (index - subBuckets) / subBuckets;
        const std::size_t sub = (index - subBuckets) % subBuckets;
        return static_cast<std::uint64_t>(subBuckets + sub) << octave;
    }

    /** Number of distinct values mapping to bucket @p index. */
    static std::uint64_t bucketWidth(std::size_t index)
    {
        if (index < subBuckets)
            return 1;
        return std::uint64_t{1} << ((index - subBuckets) / subBuckets);
    }

    /** Record one integer sample. */
    void record(std::uint64_t v) { record(v, 1); }

    /**
     * Record @p n samples of value @p v at once: the same buckets,
     * total, sum, min and max as @p n single records (none when
     * @p n is 0). A bxtd batch records every request's latency this
     * way, since they all share one feed and one write instant.
     */
    void record(std::uint64_t v, std::uint64_t n)
    {
        if (!metricsEnabled() || n == 0)
            return;
        counts_[bucketIndexOf(v)].fetch_add(n,
                                            std::memory_order_relaxed);
        total_.fetch_add(n, std::memory_order_relaxed);
        sum_.fetch_add(v * n, std::memory_order_relaxed);
        std::uint64_t cur = min_.load(std::memory_order_relaxed);
        while (v < cur && !min_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
        cur = max_.load(std::memory_order_relaxed);
        while (v > cur && !max_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    /** Record a double sample, rounded (negatives clamp to 0). */
    void add(double sample)
    {
        if (!metricsEnabled())
            return;
        record(sample <= 0.0 ? 0
                             : static_cast<std::uint64_t>(sample + 0.5));
    }

    const std::string &name() const { return name_; }
    std::size_t buckets() const { return numBuckets; }

    std::uint64_t bucketCount(std::size_t i) const
    {
        return counts_[i].load(std::memory_order_relaxed);
    }

    std::uint64_t total() const
    {
        return total_.load(std::memory_order_relaxed);
    }

    /** Sum of all (rounded) samples. */
    double sum() const
    {
        return static_cast<double>(
            sum_.load(std::memory_order_relaxed));
    }

    /** Mean sample, 0 when empty. */
    double mean() const
    {
        const std::uint64_t n = total();
        return n == 0 ? 0.0 : sum() / static_cast<double>(n);
    }

    /** Smallest / largest recorded sample (0 when empty). */
    std::uint64_t min() const
    {
        const std::uint64_t v = min_.load(std::memory_order_relaxed);
        return v == ~std::uint64_t{0} ? 0 : v;
    }
    std::uint64_t max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    /**
     * Estimated q-quantile (q in [0,1]), linearly interpolated within
     * the holding bucket and clamped to [min, max]. 0 when empty.
     */
    double quantile(double q) const;

    /**
     * Fold @p other into this histogram: sparse HDR buckets sum
     * bucket-wise (never concatenate — both sides share the fixed
     * bucket geometry), totals and sums add, min/max widen. Quantiles
     * of the merged histogram match a histogram that recorded both
     * sample sets directly (the shard-merge invariant pinned by
     * tests/test_telemetry.cpp).
     */
    void mergeFrom(const Histo &other);

    void reset();

  private:
    std::string name_;
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> total_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max_{0};
};

/** One non-empty Histo bucket: (bucket index, sample count). */
using BucketCount = std::pair<std::size_t, std::uint64_t>;

/**
 * q-quantile (q in [0,1]) of the samples in @p buckets, non-empty Histo
 * buckets in ascending index order. The target rank max(1, q·n) lands on
 * the k-th of the c samples in its bucket, which is placed at
 * lower + width·(k−1)/c, so a sample alone in a unit-width bucket reads
 * back exactly. 0 when @p buckets holds no samples. Histo::quantile and
 * bxt_top's windowed quantiles (from snapshot bucket deltas) share it.
 */
double bucketQuantile(std::span<const BucketCount> buckets, double q);

/**
 * One instrument set: name-sorted maps of counters, gauges, and
 * histograms behind a registration mutex. std::map keeps snapshots
 * deterministic; unique_ptr keeps instrument addresses stable so call
 * sites may cache references for the registry's lifetime.
 *
 * The process-wide `defaultRegistry()` lives forever; additional
 * registries (one per bxtd shard) are plain objects whose instruments
 * die with them — holders of cached references must not outlive the
 * registry that issued them.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * Look up or create an instrument. References stay valid for the
     * registry's lifetime; hot paths call once and cache.
     */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histo &histogram(const std::string &name);

    /** Visit every instrument in name order (snapshot export). */
    void forEachCounter(const std::function<void(const Counter &)> &fn) const;
    void forEachGauge(const std::function<void(const Gauge &)> &fn) const;
    void forEachHisto(const std::function<void(const Histo &)> &fn) const;

    /**
     * Fold every instrument of @p other into this registry: counters
     * and gauges add onto the same-named instrument here (creating it
     * if absent), histograms merge bucket-wise (Histo::mergeFrom).
     * @p rename, when non-null, maps each source name to the
     * destination name — returning an empty string skips the
     * instrument. This is the Stats/Snapshot union: bxtd merges its
     * shard registries into a scratch registry, once verbatim for
     * fleet totals and once renamed under `bxt.server.shard.<i>.*`
     * for the per-shard breakdown.
     *
     * Safe against concurrent recording into @p other (instrument
     * reads are relaxed atomics), but not against concurrent
     * mutation of this registry; merge targets are expected private.
     */
    void mergeFrom(
        const Registry &other,
        const std::function<std::string(const std::string &)> &rename =
            nullptr);

    /** Zero every instrument (registrations persist). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histo>> histos_;
};

/** The process-wide registry (never destroyed). */
Registry &defaultRegistry();

/**
 * The registry the calling thread records into: the innermost
 * ScopedRegistry installed on this thread, or defaultRegistry().
 */
Registry &currentRegistry();

/**
 * RAII thread-local registry override. A bxtd shard thread installs its
 * private registry at the top of its event loop, so every free-function
 * lookup below — including the ones buried in codec and service
 * instrumentation — lands in the shard's registry for the scope's
 * lifetime. Nests; restores the previous override on destruction.
 */
class ScopedRegistry
{
  public:
    explicit ScopedRegistry(Registry &registry);
    ~ScopedRegistry();
    ScopedRegistry(const ScopedRegistry &) = delete;
    ScopedRegistry &operator=(const ScopedRegistry &) = delete;

  private:
    Registry *previous_;
};

/**
 * Look up or create an instrument in currentRegistry(). References stay
 * valid for that registry's lifetime; hot paths call once and cache
 * (only safe against the default registry or one the caller owns).
 */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histo &histogram(const std::string &name);

/** Visit every currentRegistry() instrument in name order. */
void forEachCounter(const std::function<void(const Counter &)> &fn);
void forEachGauge(const std::function<void(const Gauge &)> &fn);
void forEachHisto(const std::function<void(const Histo &)> &fn);

} // namespace bxt::telemetry

#endif // BXT_TELEMETRY_METRICS_H
