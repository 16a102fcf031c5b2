/**
 * @file
 * JSON metrics-snapshot exporter. The snapshot is a stable, versioned
 * document (schema 2):
 *
 *   {
 *     "schema": 2,
 *     "enabled": true,
 *     "counters":   {"bxt.bus.data_ones": 123, ...},
 *     "gauges":     {"bxt.suite.apps": 187, ...},
 *     "histograms": {"bxt.server.request_us":
 *                      {"kind": "hdr", "sub_bucket_bits": 5,
 *                       "total": 42, "sum": 99, "mean": 2.37,
 *                       "min": 1, "max": 17,
 *                       "p50": 2.1, "p95": 9.8, "p99": 15.0,
 *                       "p999": 16.9,
 *                       "buckets": [[2, 31], [9, 11]]}, ...}
 *   }
 *
 * Histograms are the log-bucketed HDR instruments of telemetry/metrics;
 * "buckets" lists only non-empty [index, count] pairs — the index maps
 * back to a value range via Histo::bucketLowerBound/bucketWidth with the
 * advertised sub_bucket_bits, which is how bxt_top reconstructs windowed
 * quantiles from bucket deltas between polls.
 *
 * Instruments appear in name order, so two snapshots of the same run are
 * byte-identical and snapshots of different runs diff cleanly
 * (`tools/bxt_report --diff`). The benches embed this object under the
 * "metrics" key of their unified `--json` output.
 */

#ifndef BXT_TELEMETRY_SNAPSHOT_H
#define BXT_TELEMETRY_SNAPSHOT_H

#include <string>

namespace bxt::telemetry {

class Registry;

/** Snapshot document version ("schema" field). */
constexpr int snapshotSchema = 2;

/**
 * Render the calling thread's current registry as a snapshot JSON
 * object. Always returns a valid document; with metrics disabled it
 * reports "enabled": false over the (all-zero) registry. @p pretty
 * selects indented vs one-line output.
 */
std::string snapshotJson(bool pretty = true);

/**
 * Render a specific registry — the bxtd Stats/Snapshot path points this
 * at the scratch registry holding the merged shard union.
 */
std::string snapshotJson(const Registry &registry, bool pretty);

} // namespace bxt::telemetry

#endif // BXT_TELEMETRY_SNAPSHOT_H
