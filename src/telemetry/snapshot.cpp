#include "telemetry/snapshot.h"

#include "common/json.h"
#include "telemetry/metrics.h"

namespace bxt::telemetry {

std::string
snapshotJson(bool pretty)
{
    return snapshotJson(currentRegistry(), pretty);
}

std::string
snapshotJson(const Registry &registry, bool pretty)
{
    JsonWriter w(pretty);
    w.beginObject();
    w.kv("schema", snapshotSchema);
    w.kv("enabled", metricsEnabled());

    w.beginObject("counters");
    registry.forEachCounter(
        [&](const Counter &c) { w.kv(c.name(), c.value()); });
    w.endObject();

    w.beginObject("gauges");
    registry.forEachGauge(
        [&](const Gauge &g) { w.kv(g.name(), g.value()); });
    w.endObject();

    w.beginObject("histograms");
    registry.forEachHisto([&](const Histo &h) {
        w.beginObject(h.name());
        w.kv("kind", "hdr");
        w.kv("sub_bucket_bits",
             static_cast<std::uint64_t>(Histo::subBucketBits));
        w.kv("total", h.total());
        w.kv("sum", h.sum());
        w.kv("mean", h.mean());
        w.kv("min", h.min());
        w.kv("max", h.max());
        w.kv("p50", h.quantile(0.50));
        w.kv("p95", h.quantile(0.95));
        w.kv("p99", h.quantile(0.99));
        w.kv("p999", h.quantile(0.999));
        w.beginArray("buckets");
        for (std::size_t i = 0; i < h.buckets(); ++i) {
            const std::uint64_t count = h.bucketCount(i);
            if (count == 0)
                continue;
            w.beginArray();
            w.value(static_cast<std::uint64_t>(i));
            w.value(count);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    });
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace bxt::telemetry
