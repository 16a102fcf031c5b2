/**
 * @file
 * Metrics-snapshot reporting CLI (DESIGN.md §9). Modes:
 *
 *   bxt_report FILE                      pretty-print a snapshot
 *   bxt_report --validate FILE...       schema-check snapshots (exit 1 on
 *                                        the first invalid document)
 *   bxt_report --validate-trace FILE    check a Chrome trace-event file
 *   bxt_report --diff A B               per-instrument numeric diff of
 *                                        two snapshots, or per-spec
 *                                        speedup tables when both files
 *                                        are codec-throughput bench
 *                                        documents (e.g. the per-SIMD-
 *                                        level JSONs from `ci.sh batch`)
 *   bxt_report --assert-overhead PCT OFF.json ON.json
 *                                        compare two codec-throughput
 *                                        bench documents and fail when the
 *                                        serial sweep regressed by more
 *                                        than PCT percent (the `ci.sh
 *                                        metrics` overhead gate)
 *   bxt_report --assert-tx-overhead PCT UNTRACED.json TRACED.json
 *                                        compare two loadgen documents'
 *                                        aggregate tx rates and fail when
 *                                        tracing cost more than PCT
 *                                        percent (the `ci.sh serve`
 *                                        trace-overhead gate)
 *   bxt_report --assert-shard-scaling RATIO BASE.json SHARDED.json
 *                                        compare two loadgen documents'
 *                                        aggregate tx rates and fail when
 *                                        the sharded run is below RATIO
 *                                        times the single-shard baseline
 *                                        (the `ci.sh scenario` shard-
 *                                        scaling gate)
 *   bxt_report --scenario FILE...        aggregate summary + per-tenant
 *                                        table from a server_scenarios
 *                                        bench document (`bxt_loadgen
 *                                        --scenario --json`); documents
 *                                        with scope:"spec" rows (from
 *                                        --adaptive-compare) additionally
 *                                        get a spec-comparison table with
 *                                        a delta-vs-adaptive column
 *   bxt_report --scenario --assert-adaptive-wins FILE...
 *                                        additionally fail unless the
 *                                        adaptive spec row's total
 *                                        ones-on-bus is strictly lower
 *                                        than every fixed spec row's (the
 *                                        `ci.sh adaptive` gate)
 *
 * Every mode accepts either a bare snapshot document or a unified bench
 * JSON document (the snapshot is read from its "metrics" member).
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "common/table.h"

namespace {

using bxt::JsonValue;
using bxt::Table;

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bxt_report: cannot read %s\n", path.c_str());
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

/**
 * Parse @p path and return the snapshot object: the document root for a
 * bare snapshot, or the "metrics" member of a unified bench document.
 */
bool
loadSnapshot(const std::string &path, JsonValue &doc, JsonValue &snapshot)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    std::string error;
    if (!bxt::parseJson(text, doc, &error)) {
        std::fprintf(stderr, "bxt_report: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    const JsonValue *metrics = doc.find("metrics");
    snapshot = metrics != nullptr ? *metrics : doc;
    return true;
}

bool
checkMember(const std::string &path, const JsonValue &obj,
            const char *key, JsonValue::Kind kind, const char *what)
{
    const JsonValue *member = obj.find(key);
    if (member == nullptr || member->kind != kind) {
        std::fprintf(stderr, "bxt_report: %s: missing or mistyped %s "
                             "member \"%s\"\n",
                     path.c_str(), what, key);
        return false;
    }
    return true;
}

/** Validate snapshot schema 2 (see src/telemetry/snapshot.h). */
bool
validateSnapshot(const std::string &path, const JsonValue &snapshot)
{
    if (!snapshot.isObject()) {
        std::fprintf(stderr, "bxt_report: %s: snapshot is not an object\n",
                     path.c_str());
        return false;
    }
    if (!checkMember(path, snapshot, "schema", JsonValue::Kind::Number,
                     "snapshot") ||
        !checkMember(path, snapshot, "enabled", JsonValue::Kind::Bool,
                     "snapshot") ||
        !checkMember(path, snapshot, "counters", JsonValue::Kind::Object,
                     "snapshot") ||
        !checkMember(path, snapshot, "gauges", JsonValue::Kind::Object,
                     "snapshot") ||
        !checkMember(path, snapshot, "histograms",
                     JsonValue::Kind::Object, "snapshot"))
        return false;
    if (snapshot.find("schema")->number != 2.0) {
        std::fprintf(stderr, "bxt_report: %s: unsupported schema %g\n",
                     path.c_str(), snapshot.find("schema")->number);
        return false;
    }
    for (const auto &[name, value] : snapshot.find("counters")->object) {
        if (!value.isNumber()) {
            std::fprintf(stderr, "bxt_report: %s: counter %s is not a "
                                 "number\n",
                         path.c_str(), name.c_str());
            return false;
        }
    }
    for (const auto &[name, value] : snapshot.find("gauges")->object) {
        if (!value.isNumber()) {
            std::fprintf(stderr, "bxt_report: %s: gauge %s is not a "
                                 "number\n",
                         path.c_str(), name.c_str());
            return false;
        }
    }
    for (const auto &[name, histo] : snapshot.find("histograms")->object) {
        bool ok = histo.isObject() &&
                  checkMember(path, histo, "kind",
                              JsonValue::Kind::String, "histogram") &&
                  checkMember(path, histo, "sub_bucket_bits",
                              JsonValue::Kind::Number, "histogram") &&
                  checkMember(path, histo, "buckets",
                              JsonValue::Kind::Array, "histogram");
        for (const char *key : {"total", "sum", "mean", "min", "max",
                                "p50", "p95", "p99", "p999"}) {
            ok = ok && checkMember(path, histo, key,
                                   JsonValue::Kind::Number, "histogram");
        }
        if (ok && histo.find("kind")->string != "hdr") {
            std::fprintf(stderr,
                         "bxt_report: %s: histogram %s has unknown kind "
                         "\"%s\"\n",
                         path.c_str(), name.c_str(),
                         histo.find("kind")->string.c_str());
            ok = false;
        }
        // Sparse bucket list: [index, count] pairs of numbers.
        if (ok) {
            for (const JsonValue &pair : histo.find("buckets")->array) {
                if (!pair.isArray() || pair.array.size() != 2 ||
                    !pair.array[0].isNumber() ||
                    !pair.array[1].isNumber()) {
                    std::fprintf(stderr,
                                 "bxt_report: %s: histogram %s has a "
                                 "malformed bucket entry\n",
                                 path.c_str(), name.c_str());
                    ok = false;
                    break;
                }
            }
        }
        if (!ok) {
            std::fprintf(stderr, "bxt_report: %s: bad histogram %s\n",
                         path.c_str(), name.c_str());
            return false;
        }
    }
    return true;
}

/** True when @p text is exactly 16 hexadecimal digits. */
bool
isTraceIdHex(const std::string &text)
{
    return text.size() == 16 &&
           std::all_of(text.begin(), text.end(), [](unsigned char c) {
               return std::isxdigit(c) != 0;
           });
}

/**
 * Validate a Chrome trace-event file against what telemetry::writeTrace
 * emits: every event has a string name/cat/ph and numeric ts/dur/tid,
 * and server spans (cat `bxt.server`) carry a 16-hex-digit
 * args.trace_id.
 */
bool
validateTrace(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    std::string error;
    JsonValue doc;
    if (!bxt::parseJson(text, doc, &error)) {
        std::fprintf(stderr, "bxt_report: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    if (!doc.isObject() ||
        !checkMember(path, doc, "traceEvents", JsonValue::Kind::Array,
                     "trace"))
        return false;
    for (const JsonValue &event : doc.find("traceEvents")->array) {
        if (!event.isObject()) {
            std::fprintf(stderr, "bxt_report: %s: trace event is not an "
                                 "object\n",
                         path.c_str());
            return false;
        }
        for (const char *key : {"name", "cat", "ph"}) {
            if (!checkMember(path, event, key, JsonValue::Kind::String,
                             "trace event"))
                return false;
        }
        for (const char *key : {"ts", "dur", "tid"}) {
            if (!checkMember(path, event, key, JsonValue::Kind::Number,
                             "trace event"))
                return false;
        }
        if (event.find("cat")->string != "bxt.server")
            continue;
        const JsonValue *args = event.find("args");
        const JsonValue *trace_id =
            args != nullptr ? args->find("trace_id") : nullptr;
        if (trace_id == nullptr || !trace_id->isString() ||
            !isTraceIdHex(trace_id->string)) {
            std::fprintf(stderr, "bxt_report: %s: bxt.server event \"%s\" "
                                 "lacks a 16-hex-digit args.trace_id\n",
                         path.c_str(), event.find("name")->string.c_str());
            return false;
        }
    }
    std::printf("%s: valid trace, %zu event(s)\n", path.c_str(),
                doc.find("traceEvents")->array.size());
    return true;
}

int
printSnapshot(const std::string &path)
{
    JsonValue doc;
    JsonValue snapshot;
    if (!loadSnapshot(path, doc, snapshot) ||
        !validateSnapshot(path, snapshot))
        return 1;

    std::printf("%s (enabled: %s)\n", path.c_str(),
                snapshot.find("enabled")->boolean ? "yes" : "no");

    const JsonValue &counters = *snapshot.find("counters");
    if (!counters.object.empty()) {
        Table table({"counter", "value"});
        for (const auto &[name, value] : counters.object)
            table.addRow({name, Table::cell(value.number, 0)});
        std::printf("%s", table.render().c_str());
    }
    const JsonValue &gauges = *snapshot.find("gauges");
    if (!gauges.object.empty()) {
        Table table({"gauge", "value"});
        for (const auto &[name, value] : gauges.object)
            table.addRow({name, Table::cell(value.number, 2)});
        std::printf("\n%s", table.render().c_str());
    }
    const JsonValue &histos = *snapshot.find("histograms");
    if (!histos.object.empty()) {
        Table table({"histogram", "total", "mean", "min", "p50", "p95",
                     "p99", "p999", "max"});
        for (const auto &[name, histo] : histos.object) {
            table.addRow({name,
                          Table::cell(histo.find("total")->number, 0),
                          Table::cell(histo.find("mean")->number, 2),
                          Table::cell(histo.find("min")->number, 0),
                          Table::cell(histo.find("p50")->number, 1),
                          Table::cell(histo.find("p95")->number, 1),
                          Table::cell(histo.find("p99")->number, 1),
                          Table::cell(histo.find("p999")->number, 1),
                          Table::cell(histo.find("max")->number, 0)});
        }
        std::printf("\n%s", table.render().c_str());
    }
    return 0;
}

/** Name -> value map of one numeric snapshot section. */
std::map<std::string, double>
sectionValues(const JsonValue &snapshot, const char *section)
{
    std::map<std::string, double> values;
    for (const auto &[name, value] : snapshot.find(section)->object)
        values.emplace(name, value.number);
    return values;
}

int
diffSnapshots(const std::string &path_a, const std::string &path_b)
{
    JsonValue doc_a;
    JsonValue doc_b;
    JsonValue snap_a;
    JsonValue snap_b;
    if (!loadSnapshot(path_a, doc_a, snap_a) ||
        !validateSnapshot(path_a, snap_a) ||
        !loadSnapshot(path_b, doc_b, snap_b) ||
        !validateSnapshot(path_b, snap_b))
        return 1;

    for (const char *section : {"counters", "gauges"}) {
        const auto a = sectionValues(snap_a, section);
        const auto b = sectionValues(snap_b, section);
        std::map<std::string, std::pair<double, double>> merged;
        for (const auto &[name, value] : a)
            merged[name].first = value;
        for (const auto &[name, value] : b)
            merged[name].second = value;

        Table table({section, "a", "b", "delta"});
        for (const auto &[name, values] : merged) {
            if (values.first == values.second)
                continue;
            table.addRow({name, Table::cell(values.first, 0),
                          Table::cell(values.second, 0),
                          Table::cell(values.second - values.first, 0)});
        }
        if (table.rows() > 0)
            std::printf("%s\n", table.render().c_str());
    }
    return 0;
}

/** One (spec, batch_tx) row merged from two bench documents. */
struct BenchDiffRow {
    bool inA = false;
    bool inB = false;
    std::string levelA;
    std::string levelB;
    double encodeA = 0.0;
    double encodeB = 0.0;
    double decodeA = 0.0;
    double decodeB = 0.0;
};

using BenchDiffKey = std::pair<std::string, double>;

/**
 * Fold one document's codec rows into @p merged. simd_codec rows carry
 * separate encode/decode rates; batch_codec rows carry a single
 * round-trip rate, stored in the encode slot.
 */
void
collectBenchRows(const JsonValue &doc, bool is_b,
                 std::map<BenchDiffKey, BenchDiffRow> &simd_rows,
                 std::map<BenchDiffKey, BenchDiffRow> &batch_rows)
{
    for (const JsonValue &row : doc.find("results")->array) {
        const JsonValue *mode = row.find("mode");
        const JsonValue *spec = row.find("spec");
        const JsonValue *batch = row.find("batch_tx");
        if (mode == nullptr || spec == nullptr || batch == nullptr)
            continue;
        const BenchDiffKey key{spec->string, batch->number};
        if (mode->string == "simd_codec") {
            BenchDiffRow &out = simd_rows[key];
            const JsonValue *level = row.find("simd_level");
            const JsonValue *enc = row.find("encode_tx_per_s");
            const JsonValue *dec = row.find("decode_tx_per_s");
            std::string &slot_level = is_b ? out.levelB : out.levelA;
            double &slot_enc = is_b ? out.encodeB : out.encodeA;
            double &slot_dec = is_b ? out.decodeB : out.decodeA;
            // Keep the fastest encode row per (spec, batch): an unforced
            // sweep emits one row per dispatch level.
            if (enc != nullptr &&
                (!(is_b ? out.inB : out.inA) || enc->number > slot_enc)) {
                slot_enc = enc->number;
                slot_dec = dec != nullptr ? dec->number : 0.0;
                slot_level = level != nullptr ? level->string : "?";
                (is_b ? out.inB : out.inA) = true;
            }
        } else if (mode->string == "batch_codec") {
            BenchDiffRow &out = batch_rows[key];
            const JsonValue *rate = row.find("tx_per_s");
            if (rate != nullptr) {
                (is_b ? out.encodeB : out.encodeA) = rate->number;
                (is_b ? out.inB : out.inA) = true;
            }
        }
    }
}

std::string
benchLevelSummary(const JsonValue &doc)
{
    for (const JsonValue &row : doc.find("results")->array) {
        const JsonValue *mode = row.find("mode");
        if (mode == nullptr || mode->string != "simd_info")
            continue;
        const JsonValue *best = row.find("best_level");
        const JsonValue *forced = row.find("forced");
        std::string summary =
            best != nullptr ? best->string : std::string("?");
        if (forced != nullptr && forced->boolean)
            summary += " (forced)";
        return summary;
    }
    return "?";
}

/**
 * Per-spec speedup tables between two codec-throughput bench documents —
 * typically the per-SIMD-level JSONs uploaded by `ci.sh batch`
 * (BENCH_codec_throughput.word.json vs .avx512.json).
 */
int
diffBenchDocs(const std::string &path_a, const JsonValue &doc_a,
              const std::string &path_b, const JsonValue &doc_b)
{
    std::map<BenchDiffKey, BenchDiffRow> simd_rows;
    std::map<BenchDiffKey, BenchDiffRow> batch_rows;
    collectBenchRows(doc_a, false, simd_rows, batch_rows);
    collectBenchRows(doc_b, true, simd_rows, batch_rows);

    std::printf("a: %s (best level %s)\n", path_a.c_str(),
                benchLevelSummary(doc_a).c_str());
    std::printf("b: %s (best level %s)\n\n", path_b.c_str(),
                benchLevelSummary(doc_b).c_str());

    std::size_t unmatched = 0;
    if (!simd_rows.empty()) {
        Table table({"spec", "batch", "levels", "enc a Mtx/s",
                     "enc b Mtx/s", "enc b/a", "dec a Mtx/s",
                     "dec b Mtx/s", "dec b/a"});
        for (const auto &[key, row] : simd_rows) {
            if (!row.inA || !row.inB) {
                ++unmatched;
                continue;
            }
            table.addRow(
                {key.first, Table::cell(key.second, 0),
                 row.levelA + "->" + row.levelB,
                 Table::cell(row.encodeA / 1e6, 1),
                 Table::cell(row.encodeB / 1e6, 1),
                 Table::cell(row.encodeA > 0.0
                                 ? row.encodeB / row.encodeA
                                 : 0.0,
                             2),
                 Table::cell(row.decodeA / 1e6, 1),
                 Table::cell(row.decodeB / 1e6, 1),
                 Table::cell(row.decodeA > 0.0
                                 ? row.decodeB / row.decodeA
                                 : 0.0,
                             2)});
        }
        if (table.rows() > 0)
            std::printf("%s\n", table.render().c_str());
    }
    if (!batch_rows.empty()) {
        Table table({"spec", "batch", "rt a Mtx/s", "rt b Mtx/s",
                     "rt b/a"});
        for (const auto &[key, row] : batch_rows) {
            if (!row.inA || !row.inB) {
                ++unmatched;
                continue;
            }
            table.addRow(
                {key.first, Table::cell(key.second, 0),
                 Table::cell(row.encodeA / 1e6, 1),
                 Table::cell(row.encodeB / 1e6, 1),
                 Table::cell(row.encodeA > 0.0
                                 ? row.encodeB / row.encodeA
                                 : 0.0,
                             2)});
        }
        if (table.rows() > 0)
            std::printf("%s\n", table.render().c_str());
    }
    if (unmatched > 0)
        std::printf("(%zu rows present in only one file were skipped)\n",
                    unmatched);
    return 0;
}

/**
 * --diff entry point: two codec-throughput bench documents (detected by
 * their "results" array) get per-spec speedup tables; anything else falls
 * back to the metrics-snapshot diff.
 */
int
diffFiles(const std::string &path_a, const std::string &path_b)
{
    std::string text_a;
    std::string text_b;
    if (!readFile(path_a, text_a) || !readFile(path_b, text_b))
        return 1;
    JsonValue doc_a;
    JsonValue doc_b;
    std::string error;
    if (!bxt::parseJson(text_a, doc_a, &error)) {
        std::fprintf(stderr, "bxt_report: %s: %s\n", path_a.c_str(),
                     error.c_str());
        return 1;
    }
    if (!bxt::parseJson(text_b, doc_b, &error)) {
        std::fprintf(stderr, "bxt_report: %s: %s\n", path_b.c_str(),
                     error.c_str());
        return 1;
    }
    // Only documents that actually carry per-spec codec rows take the
    // bench path; other unified bench JSONs (e.g. fig15) keep the
    // snapshot diff of their embedded "metrics" member.
    const auto has_codec_rows = [](const JsonValue &doc) {
        const JsonValue *results = doc.find("results");
        if (results == nullptr || !results->isArray())
            return false;
        for (const JsonValue &row : results->array) {
            const JsonValue *mode = row.find("mode");
            if (mode != nullptr &&
                (mode->string == "simd_codec" ||
                 mode->string == "batch_codec"))
                return true;
        }
        return false;
    };
    if (has_codec_rows(doc_a) && has_codec_rows(doc_b))
        return diffBenchDocs(path_a, doc_a, path_b, doc_b);
    return diffSnapshots(path_a, path_b);
}

/**
 * --scenario: render a server_scenarios bench document (bxt_loadgen
 * --scenario --json) as the aggregate summary plus a per-tenant table,
 * busiest tenants first. Documents carrying scope:"spec" rows (written by
 * `bxt_loadgen --adaptive-compare`) additionally get a spec-comparison
 * table with each fixed spec's ones-on-bus delta versus the adaptive row;
 * with @p assert_adaptive_wins the call fails unless the adaptive row
 * strictly beats every fixed row on total ones-on-bus.
 */
int
reportScenario(const std::string &path, bool assert_adaptive_wins)
{
    std::string text;
    if (!readFile(path, text))
        return 1;
    std::string error;
    JsonValue doc;
    if (!bxt::parseJson(text, doc, &error)) {
        std::fprintf(stderr, "bxt_report: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    const JsonValue *results = doc.find("results");
    if (results == nullptr || !results->isArray()) {
        std::fprintf(stderr, "bxt_report: %s: no results array\n",
                     path.c_str());
        return 1;
    }

    const auto number = [](const JsonValue &row, const char *key) {
        const JsonValue *member = row.find(key);
        return member != nullptr && member->isNumber() ? member->number
                                                       : 0.0;
    };
    const auto string_of = [](const JsonValue &row, const char *key) {
        const JsonValue *member = row.find(key);
        return member != nullptr && member->isString() ? member->string
                                                       : std::string("?");
    };

    std::vector<const JsonValue *> tenants;
    std::vector<const JsonValue *> specs;
    const JsonValue *aggregate = nullptr;
    for (const JsonValue &row : results->array) {
        const std::string scope = string_of(row, "scope");
        if (scope == "aggregate" && row.find("scenario") != nullptr)
            aggregate = &row;
        else if (scope == "tenant")
            tenants.push_back(&row);
        else if (scope == "spec")
            specs.push_back(&row);
    }
    if (aggregate == nullptr || tenants.empty()) {
        std::fprintf(stderr, "bxt_report: %s: not a server_scenarios "
                             "document\n",
                     path.c_str());
        return 1;
    }

    std::printf("scenario %s: %g tenants, alpha %g, %g connections, "
                "paced %s\n",
                string_of(*aggregate, "scenario").c_str(),
                number(*aggregate, "tenants"), number(*aggregate, "alpha"),
                number(*aggregate, "connections"),
                aggregate->find("paced") != nullptr &&
                        aggregate->find("paced")->boolean
                    ? "yes"
                    : "no");
    std::printf("%.0f requests in %.3f s: %.0f req/s, %.0f tx/s; "
                "p50/p95/p99 %.1f/%.1f/%.1f us; ones removed %.2f %%\n\n",
                number(*aggregate, "requests"),
                number(*aggregate, "seconds"),
                number(*aggregate, "req_per_s"),
                number(*aggregate, "tx_per_s"),
                number(*aggregate, "p50_us"), number(*aggregate, "p95_us"),
                number(*aggregate, "p99_us"),
                number(*aggregate, "ones_removed_pct"));

    std::sort(tenants.begin(), tenants.end(),
              [&](const JsonValue *a, const JsonValue *b) {
                  return number(*a, "requests") > number(*b, "requests");
              });
    Table table({"tenant", "spec", "txB", "weight", "reqs", "txs",
                 "p50 us", "p95 us", "p99 us", "ones rm%"});
    for (const JsonValue *row : tenants) {
        table.addRow({Table::cell(number(*row, "tenant"), 0),
                      string_of(*row, "spec"),
                      Table::cell(number(*row, "tx_bytes"), 0),
                      Table::cell(number(*row, "weight"), 3),
                      Table::cell(number(*row, "requests"), 0),
                      Table::cell(number(*row, "txs"), 0),
                      Table::cell(number(*row, "p50_us"), 1),
                      Table::cell(number(*row, "p95_us"), 1),
                      Table::cell(number(*row, "p99_us"), 1),
                      Table::cell(number(*row, "ones_removed_pct"), 2)});
    }
    std::printf("%s", table.render().c_str());

    if (specs.empty()) {
        if (assert_adaptive_wins) {
            std::fprintf(stderr,
                         "bxt_report: %s: --assert-adaptive-wins needs "
                         "scope:\"spec\" rows (run bxt_loadgen with "
                         "--adaptive-compare)\n",
                         path.c_str());
            return 1;
        }
        return 0;
    }

    // Spec-comparison rows: each pass replayed the identical request
    // stream, so total ones-on-bus is directly comparable. The adaptive
    // row (spec starting with "adaptive") is the reference for the delta
    // column.
    const JsonValue *adaptive_row = nullptr;
    for (const JsonValue *row : specs) {
        if (string_of(*row, "spec").rfind("adaptive", 0) == 0) {
            adaptive_row = row;
            break;
        }
    }
    const double adaptive_out =
        adaptive_row != nullptr ? number(*adaptive_row, "ones_out") : 0.0;
    const double adaptive_in =
        adaptive_row != nullptr ? number(*adaptive_row, "ones_in") : 0.0;

    Table spec_table({"spec", "ones in", "ones out", "rm%",
                      "vs adaptive"});
    bool adaptive_wins = adaptive_row != nullptr;
    double best_fixed_out = 0.0;
    std::string best_fixed_spec;
    for (const JsonValue *row : specs) {
        const std::string spec = string_of(*row, "spec");
        const double out_ones = number(*row, "ones_out");
        const bool is_adaptive = row == adaptive_row;
        std::string delta = "-";
        if (adaptive_row != nullptr && !is_adaptive) {
            // Positive: the fixed spec put more ones on the bus than
            // adaptive did (adaptive wins this row).
            const double pct =
                adaptive_out > 0.0
                    ? (out_ones - adaptive_out) / adaptive_out * 100.0
                    : 0.0;
            char buf[32];
            std::snprintf(buf, sizeof buf, "%+.2f%%", pct);
            delta = buf;
            if (out_ones <= adaptive_out)
                adaptive_wins = false;
            if (best_fixed_spec.empty() || out_ones < best_fixed_out) {
                best_fixed_out = out_ones;
                best_fixed_spec = spec;
            }
            // Every pass replays the identical stream; differing input
            // ones means the document is inconsistent.
            if (adaptive_in > 0.0 &&
                number(*row, "ones_in") != adaptive_in) {
                std::fprintf(stderr,
                             "bxt_report: %s: spec row '%s' saw "
                             "ones_in %.0f but the adaptive row saw "
                             "%.0f (not the same stream)\n",
                             path.c_str(), spec.c_str(),
                             number(*row, "ones_in"), adaptive_in);
                return 1;
            }
        }
        spec_table.addRow({spec, Table::cell(number(*row, "ones_in"), 0),
                           Table::cell(out_ones, 0),
                           Table::cell(number(*row, "ones_removed_pct"),
                                       2),
                           delta});
    }
    std::printf("\n%s", spec_table.render().c_str());
    if (adaptive_row != nullptr && !best_fixed_spec.empty())
        std::printf("adaptive vs best fixed (%s): %+.0f ones "
                    "(%+.2f %%)\n",
                    best_fixed_spec.c_str(), adaptive_out - best_fixed_out,
                    best_fixed_out > 0.0
                        ? (adaptive_out - best_fixed_out) /
                              best_fixed_out * 100.0
                        : 0.0);

    if (assert_adaptive_wins) {
        if (adaptive_row == nullptr) {
            std::fprintf(stderr,
                         "bxt_report: %s: --assert-adaptive-wins: no "
                         "adaptive spec row\n",
                         path.c_str());
            return 1;
        }
        if (specs.size() < 2) {
            std::fprintf(stderr,
                         "bxt_report: %s: --assert-adaptive-wins: no "
                         "fixed spec rows to compare against\n",
                         path.c_str());
            return 1;
        }
        if (!adaptive_wins) {
            std::fprintf(stderr,
                         "bxt_report: %s: adaptive ones-on-bus %.0f does "
                         "not strictly beat every fixed spec (best fixed "
                         "'%s' at %.0f)\n",
                         path.c_str(), adaptive_out,
                         best_fixed_spec.c_str(), best_fixed_out);
            return 1;
        }
        std::printf("adaptive wins: ones-on-bus strictly below every "
                    "fixed spec\n");
    }
    return 0;
}

/** Serial sweep seconds from a codec-throughput bench document. */
bool
serialSeconds(const std::string &path, double &seconds)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    std::string error;
    JsonValue doc;
    if (!bxt::parseJson(text, doc, &error)) {
        std::fprintf(stderr, "bxt_report: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    const JsonValue *results = doc.find("results");
    if (results == nullptr || !results->isArray()) {
        std::fprintf(stderr, "bxt_report: %s: no results array\n",
                     path.c_str());
        return false;
    }
    for (const JsonValue &row : results->array) {
        const JsonValue *mode = row.find("mode");
        const JsonValue *secs = row.find("seconds");
        if (mode != nullptr && mode->string == "serial" &&
            secs != nullptr && secs->isNumber()) {
            seconds = secs->number;
            return true;
        }
    }
    std::fprintf(stderr, "bxt_report: %s: no serial sweep row\n",
                 path.c_str());
    return false;
}

/** Aggregate tx_per_s from a bxt_loadgen --json document. */
bool
aggregateTxRate(const std::string &path, double &tx_per_s)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    std::string error;
    JsonValue doc;
    if (!bxt::parseJson(text, doc, &error)) {
        std::fprintf(stderr, "bxt_report: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    const JsonValue *results = doc.find("results");
    if (results == nullptr || !results->isArray()) {
        std::fprintf(stderr, "bxt_report: %s: no results array\n",
                     path.c_str());
        return false;
    }
    for (const JsonValue &row : results->array) {
        const JsonValue *scope = row.find("scope");
        const JsonValue *rate = row.find("tx_per_s");
        if (scope != nullptr && scope->string == "aggregate" &&
            rate != nullptr && rate->isNumber()) {
            tx_per_s = rate->number;
            return true;
        }
    }
    std::fprintf(stderr, "bxt_report: %s: no aggregate tx_per_s row\n",
                 path.c_str());
    return false;
}

/**
 * --assert-tx-overhead: fail when the traced loadgen run's aggregate
 * transaction rate is more than @p limit_pct percent below the untraced
 * baseline (the `ci.sh serve` trace-overhead gate).
 */
int
assertTxOverhead(double limit_pct, const std::string &base_path,
                 const std::string &traced_path)
{
    double base = 0.0;
    double traced = 0.0;
    if (!aggregateTxRate(base_path, base) ||
        !aggregateTxRate(traced_path, traced))
        return 1;
    if (base <= 0.0) {
        std::fprintf(stderr, "bxt_report: %s: non-positive tx rate\n",
                     base_path.c_str());
        return 1;
    }
    const double overhead_pct = (base - traced) / base * 100.0;
    std::printf("aggregate tx rate: %.0f tx/s untraced, %.0f tx/s traced "
                "-> %+.2f %% slower (limit %.2f %%)\n",
                base, traced, overhead_pct, limit_pct);
    if (overhead_pct > limit_pct) {
        std::fprintf(stderr, "bxt_report: trace overhead %.2f %% exceeds "
                             "limit %.2f %%\n",
                     overhead_pct, limit_pct);
        return 1;
    }
    return 0;
}

/**
 * --assert-shard-scaling: fail unless the sharded loadgen run's
 * aggregate transaction rate is at least @p min_ratio times the
 * single-shard baseline's (the `ci.sh scenario` shard-scaling gate:
 * shared-nothing shards must actually buy throughput).
 */
int
assertShardScaling(double min_ratio, const std::string &base_path,
                   const std::string &sharded_path)
{
    double base = 0.0;
    double sharded = 0.0;
    if (!aggregateTxRate(base_path, base) ||
        !aggregateTxRate(sharded_path, sharded))
        return 1;
    if (base <= 0.0) {
        std::fprintf(stderr, "bxt_report: %s: non-positive tx rate\n",
                     base_path.c_str());
        return 1;
    }
    const double ratio = sharded / base;
    std::printf("aggregate tx rate: %.0f tx/s single-shard, %.0f tx/s "
                "sharded -> %.2fx scaling (floor %.2fx)\n",
                base, sharded, ratio, min_ratio);
    if (ratio < min_ratio) {
        std::fprintf(stderr, "bxt_report: shard scaling %.2fx below "
                             "floor %.2fx\n",
                     ratio, min_ratio);
        return 1;
    }
    return 0;
}

int
assertOverhead(double limit_pct, const std::string &off_path,
               const std::string &on_path)
{
    double off = 0.0;
    double on = 0.0;
    if (!serialSeconds(off_path, off) || !serialSeconds(on_path, on))
        return 1;
    if (off <= 0.0) {
        std::fprintf(stderr, "bxt_report: %s: non-positive serial time\n",
                     off_path.c_str());
        return 1;
    }
    const double overhead_pct = (on - off) / off * 100.0;
    std::printf("serial sweep: %.3f s off, %.3f s on -> %+.2f %% "
                "(limit %.2f %%)\n",
                off, on, overhead_pct, limit_pct);
    if (overhead_pct > limit_pct) {
        std::fprintf(stderr, "bxt_report: telemetry overhead %.2f %% "
                             "exceeds limit %.2f %%\n",
                     overhead_pct, limit_pct);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool validate = false;
    bool validate_trace = false;
    bool diff = false;
    bool scenario = false;
    bool assert_adaptive_wins = false;
    bool overhead = false;
    bool tx_overhead = false;
    bool shard_scaling = false;
    double overhead_limit = 0.0;
    double tx_overhead_limit = 0.0;
    double shard_scaling_floor = 0.0;
    constexpr double noLimit = std::numeric_limits<double>::max();
    std::vector<std::string> files;

    bxt::Cli cli("bxt_report",
                 "pretty-print, validate, and diff bxt metrics snapshots");
    cli.addFlag("--validate", "schema-check the given snapshot files",
                [&] { validate = true; });
    cli.addFlag("--validate-trace",
                "check the given Chrome trace-event files",
                [&] { validate_trace = true; });
    cli.addFlag("--diff",
                "diff two snapshots, or two bench JSONs as per-spec "
                "speedup tables (two files expected)",
                [&] { diff = true; });
    cli.addFlag("--scenario",
                "per-tenant table from a server_scenarios bench JSON",
                [&] { scenario = true; });
    cli.addFlag("--assert-adaptive-wins",
                "with --scenario: fail unless the adaptive spec row's "
                "ones-on-bus strictly beats every fixed spec row's",
                [&] { assert_adaptive_wins = true; });
    cli.add("--assert-overhead", "PCT",
            "fail when ON.json's serial sweep is more than PCT percent "
            "slower than OFF.json's (two bench files expected)",
            [&](const std::string &v) {
                overhead = true;
                if (!bxt::parseReal(v, 0.0, noLimit, overhead_limit))
                    cli.reject("--assert-overhead", v, "a number >= 0");
            });
    cli.add("--assert-tx-overhead", "PCT",
            "fail when TRACED.json's aggregate tx rate is more than PCT "
            "percent below UNTRACED.json's (two loadgen files expected)",
            [&](const std::string &v) {
                tx_overhead = true;
                if (!bxt::parseReal(v, 0.0, noLimit, tx_overhead_limit))
                    cli.reject("--assert-tx-overhead", v, "a number >= 0");
            });
    cli.add("--assert-shard-scaling", "RATIO",
            "fail when SHARDED.json's aggregate tx rate is below RATIO "
            "times BASE.json's (two loadgen files expected)",
            [&](const std::string &v) {
                shard_scaling = true;
                if (!bxt::parseReal(v, 0.0, noLimit, shard_scaling_floor))
                    cli.reject("--assert-shard-scaling", v, "a number >= 0");
            });
    cli.addPositional("FILE", "snapshot / bench / trace JSON file(s)",
                      [&](const std::string &v) { files.push_back(v); });
    if (!cli.parse(argc, argv))
        return cli.exitCode();

    if (files.empty()) {
        std::fprintf(stderr, "bxt_report: no input files\n\n%s",
                     cli.usage().c_str());
        return 2;
    }

    if (overhead) {
        if (files.size() != 2) {
            std::fprintf(stderr, "bxt_report: --assert-overhead needs "
                                 "OFF.json and ON.json\n");
            return 2;
        }
        return assertOverhead(overhead_limit, files[0], files[1]);
    }
    if (tx_overhead) {
        if (files.size() != 2) {
            std::fprintf(stderr, "bxt_report: --assert-tx-overhead needs "
                                 "UNTRACED.json and TRACED.json\n");
            return 2;
        }
        return assertTxOverhead(tx_overhead_limit, files[0], files[1]);
    }
    if (shard_scaling) {
        if (files.size() != 2) {
            std::fprintf(stderr,
                         "bxt_report: --assert-shard-scaling needs "
                         "BASE.json and SHARDED.json\n");
            return 2;
        }
        return assertShardScaling(shard_scaling_floor, files[0],
                                  files[1]);
    }
    if (scenario) {
        for (const std::string &file : files) {
            if (const int status =
                    reportScenario(file, assert_adaptive_wins))
                return status;
        }
        return 0;
    }
    if (assert_adaptive_wins) {
        std::fprintf(stderr, "bxt_report: --assert-adaptive-wins needs "
                             "--scenario\n");
        return 2;
    }
    if (diff) {
        if (files.size() != 2) {
            std::fprintf(stderr,
                         "bxt_report: --diff needs exactly two files\n");
            return 2;
        }
        return diffFiles(files[0], files[1]);
    }
    if (validate_trace) {
        for (const std::string &file : files) {
            if (!validateTrace(file))
                return 1;
        }
        return 0;
    }
    if (validate) {
        for (const std::string &file : files) {
            JsonValue doc;
            JsonValue snapshot;
            if (!loadSnapshot(file, doc, snapshot) ||
                !validateSnapshot(file, snapshot))
                return 1;
            std::printf("%s: valid snapshot (schema 2)\n", file.c_str());
        }
        return 0;
    }

    for (const std::string &file : files) {
        if (const int status = printSnapshot(file))
            return status;
    }
    return 0;
}
