#include "telemetry/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>

#include "telemetry/trace.h"

namespace bxt::telemetry {

namespace detail {

namespace {

bool
envEnabled(const char *name)
{
    const char *value = std::getenv(name);
    return value != nullptr && *value != '\0' &&
           std::string(value) != "0";
}

} // namespace

std::atomic<bool> metricsOn{envEnabled("BXT_METRICS")};

} // namespace detail

namespace {

/** Innermost ScopedRegistry on this thread (null = default registry). */
thread_local Registry *t_currentRegistry = nullptr;

} // namespace

Registry &
defaultRegistry()
{
    static Registry *instance = new Registry(); // Never destroyed:
    // instruments may be touched from atexit trace flushing.
    return *instance;
}

Registry &
currentRegistry()
{
    Registry *reg = t_currentRegistry;
    return reg != nullptr ? *reg : defaultRegistry();
}

ScopedRegistry::ScopedRegistry(Registry &registry)
    : previous_(t_currentRegistry)
{
    t_currentRegistry = &registry;
}

ScopedRegistry::~ScopedRegistry()
{
    t_currentRegistry = previous_;
}

void
setMetricsEnabled(bool on)
{
    detail::metricsOn.store(on, std::memory_order_relaxed);
}

Histo::Histo(std::string name)
    : name_(std::move(name)), counts_(numBuckets)
{
    for (auto &count : counts_)
        count.store(0, std::memory_order_relaxed);
}

double
bucketQuantile(std::span<const BucketCount> buckets, double q)
{
    std::uint64_t n = 0;
    for (const auto &[index, count] : buckets)
        n += count;
    if (n == 0)
        return 0.0;
    const double target =
        std::clamp(q * static_cast<double>(n), 1.0, static_cast<double>(n));
    std::uint64_t cum = 0;
    for (const auto &[index, count] : buckets) {
        if (count > 0 && static_cast<double>(cum + count) >= target) {
            // target is the k-th sample of this bucket (1-based);
            // interpolate from the bucket's lower edge.
            const double frac = (target - static_cast<double>(cum) - 1.0) /
                                static_cast<double>(count);
            return static_cast<double>(Histo::bucketLowerBound(index)) +
                   static_cast<double>(Histo::bucketWidth(index)) * frac;
        }
        cum += count;
    }
    return 0.0; // Unreachable: target <= n.
}

double
Histo::quantile(double q) const
{
    std::vector<BucketCount> buckets;
    for (std::size_t i = 0; i < numBuckets; ++i) {
        if (const std::uint64_t c = bucketCount(i); c > 0)
            buckets.emplace_back(i, c);
    }
    // Clamp to the recorded [min, max] (both 0 when empty).
    const double value = std::min(bucketQuantile(buckets, q),
                                  static_cast<double>(max()));
    return std::max(value, static_cast<double>(min()));
}

void
Histo::mergeFrom(const Histo &other)
{
    if (other.total() == 0)
        return; // An empty histogram carries sentinel min/max.
    for (std::size_t i = 0; i < numBuckets; ++i) {
        const std::uint64_t c = other.bucketCount(i);
        if (c > 0)
            counts_[i].fetch_add(c, std::memory_order_relaxed);
    }
    total_.fetch_add(other.total_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    const std::uint64_t other_min =
        other.min_.load(std::memory_order_relaxed);
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (other_min < cur &&
           !min_.compare_exchange_weak(cur, other_min,
                                       std::memory_order_relaxed)) {
    }
    const std::uint64_t other_max =
        other.max_.load(std::memory_order_relaxed);
    cur = max_.load(std::memory_order_relaxed);
    while (other_max > cur &&
           !max_.compare_exchange_weak(cur, other_max,
                                       std::memory_order_relaxed)) {
    }
}

void
Histo::reset()
{
    for (auto &count : counts_)
        count.store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

std::string
sanitizeMetricName(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '+') {
            out += '-';
        } else if (c == '|') {
            out += "__";
        } else if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                   (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                   c == '-') {
            out += c;
        } else {
            out += '_';
        }
    }
    return out;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (slot == nullptr)
        slot = std::make_unique<Counter>(name);
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (slot == nullptr)
        slot = std::make_unique<Gauge>(name);
    return *slot;
}

Histo &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histos_[name];
    if (slot == nullptr)
        slot = std::make_unique<Histo>(name);
    return *slot;
}

void
Registry::forEachCounter(
    const std::function<void(const Counter &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, instrument] : counters_)
        fn(*instrument);
}

void
Registry::forEachGauge(const std::function<void(const Gauge &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, instrument] : gauges_)
        fn(*instrument);
}

void
Registry::forEachHisto(const std::function<void(const Histo &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, instrument] : histos_)
        fn(*instrument);
}

void
Registry::mergeFrom(
    const Registry &other,
    const std::function<std::string(const std::string &)> &rename)
{
    // Never hold both registry mutexes at once (merge sources may be
    // concurrently recording); snapshot the source instrument pointers
    // under its lock, then fold them in. Source instruments cannot die
    // mid-merge: registries only drop instruments on destruction, and
    // the merging caller owns a reference to the source.
    const auto mapped = [&rename](const std::string &name) {
        return rename ? rename(name) : name;
    };
    std::vector<const Counter *> counters;
    std::vector<const Gauge *> gauges;
    std::vector<const Histo *> histos;
    {
        std::lock_guard<std::mutex> lock(other.mutex_);
        for (const auto &[name, instrument] : other.counters_)
            counters.push_back(instrument.get());
        for (const auto &[name, instrument] : other.gauges_)
            gauges.push_back(instrument.get());
        for (const auto &[name, instrument] : other.histos_)
            histos.push_back(instrument.get());
    }
    for (const Counter *src : counters) {
        const std::string name = mapped(src->name());
        if (!name.empty())
            counter(name).mergeAdd(src->value());
    }
    for (const Gauge *src : gauges) {
        const std::string name = mapped(src->name());
        if (!name.empty())
            gauge(name).mergeAdd(src->value());
    }
    for (const Histo *src : histos) {
        const std::string name = mapped(src->name());
        if (!name.empty())
            histogram(name).mergeFrom(*src);
    }
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, instrument] : counters_)
        instrument->reset();
    for (auto &[name, instrument] : gauges_)
        instrument->reset();
    for (auto &[name, instrument] : histos_)
        instrument->reset();
}

Counter &
counter(const std::string &name)
{
    return currentRegistry().counter(name);
}

Gauge &
gauge(const std::string &name)
{
    return currentRegistry().gauge(name);
}

Histo &
histogram(const std::string &name)
{
    return currentRegistry().histogram(name);
}

void
forEachCounter(const std::function<void(const Counter &)> &fn)
{
    currentRegistry().forEachCounter(fn);
}

void
forEachGauge(const std::function<void(const Gauge &)> &fn)
{
    currentRegistry().forEachGauge(fn);
}

void
forEachHisto(const std::function<void(const Histo &)> &fn)
{
    currentRegistry().forEachHisto(fn);
}

void
resetForTest()
{
    defaultRegistry().reset();
    clearSpans();
}

} // namespace bxt::telemetry
