/**
 * @file
 * Software throughput of the codec layer and the batch-evaluation engine.
 *
 * Three parts, all written to one `BENCH_codec_throughput.json` (`--json
 * PATH` moves it) for CI tracking:
 *  1. An end-to-end suite sweep (the workload every figure bench runs):
 *     full GPU population x paper scheme set, run five times on the
 *     parallel engine and five times serially, alternating. Reports
 *     each mode's fastest run in GB/s and asserts that every run's
 *     BusStats are bit-identical to the first.
 *  2. A batch-size sweep: encode+decode throughput of the batch path
 *     (encodeBatch / decodeBatch) at batch sizes 1/8/64/512/4096, after
 *     asserting every size produces BusStats field-identical to batch 1
 *     (the per-transaction path) through the full eval pipeline; the
 *     batch-1 rows time the one-transaction round trip.
 *     `--batch-min-speedup F` turns the best batch>=512 speedup over
 *     batch 1 into a CI gate.
 *  3. A SIMD dispatch-level sweep: per spec and batch size, encode-only
 *     and decode-only throughput at every available kernel level (word
 *     and up; a forced BXT_SIMD pins the sweep to that single level).
 *     `--simd-min-speedup F` gates the xor4+zdr encode and decode
 *     batch-512 speedups of the best SIMD level over the word baseline,
 *     and skips with a note on hosts with no vector level. With a
 *     forced BXT_SIMD the gate has nothing to compare, so the bench
 *     refuses the flag (exit 2) before any sweep.
 *
 * Not a paper artifact — it documents that the library is fast enough to
 * sit in a simulator's memory-controller path.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "channel/channel_eval.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/parallel.h"
#include "core/batch.h"
#include "core/codec_factory.h"
#include "core/simd/simd.h"
#include "suite_eval.h"
#include "workloads/apps.h"
#include "workloads/patterns.h"

namespace {

using namespace bxt;

/** @p count patterned 32-byte transactions (the same stream every run). */
std::vector<Transaction>
makeInput(std::size_t count)
{
    PatternPtr pattern = makeSoaFloatPattern(1.0e3, 1.0e-3, 7);
    Rng rng(11);
    std::vector<Transaction> txs;
    txs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Transaction tx(32);
        pattern->fill(rng, tx.bytes());
        txs.push_back(tx);
    }
    return txs;
}

/** Keep the compiler from dropping the stores a timed loop makes. */
void
keepAlive(const void *p)
{
    asm volatile("" : : "g"(p) : "memory");
}

/** Transactions per app in the end-to-end sweep (kept short for CI). */
constexpr std::size_t sweepTxPerApp = 512;

/**
 * Suite sweeps per mode (serial, parallel); the fastest of each is
 * reported. One sweep is ~0.15 s, so a single wall-clock reading swings
 * by more than the 2 % telemetry overhead gate (`ci.sh metrics`) that
 * compares two of them.
 */
constexpr int sweepRuns = 5;

struct SweepRun
{
    double seconds = 0.0;
    double gbPerSecond = 0.0;
    std::vector<AppResult> results;
};

SweepRun
runSweep(unsigned threads, const std::vector<std::string> &specs,
         std::size_t &bytes_out)
{
    // Rebuild the population each run: equal seeds give bit-identical
    // traces, which is what makes serial-vs-parallel comparable.
    std::vector<App> apps = buildGpuSuite();

    std::size_t bytes = 0;
    for (const App &app : apps)
        bytes += app.txBytes * sweepTxPerApp * specs.size();
    bytes_out = bytes;

    const auto start = std::chrono::steady_clock::now();
    SweepRun run;
    run.results = evalSuite(apps, specs, sweepTxPerApp, threads);
    const auto stop = std::chrono::steady_clock::now();
    run.seconds =
        std::chrono::duration<double>(stop - start).count();
    run.gbPerSecond = static_cast<double>(bytes) / run.seconds / 1.0e9;
    return run;
}

bool
identicalResults(const std::vector<AppResult> &a,
                 const std::vector<AppResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].app != b[i].app || a[i].rawOnes != b[i].rawOnes ||
            a[i].mixedRatio != b[i].mixedRatio ||
            a[i].stats != b[i].stats)
            return false;
    }
    return true;
}

/** Specs the batch-size sweep times (one per kernel family). */
const std::vector<std::string> batchSweepSpecs = {
    "baseline", "xor4+zdr", "universal3+zdr", "dbi4",
    "universal3+zdr|dbi1"};

/** Batch sizes swept; 1 is the per-transaction path every speedup is
 *  measured against. */
const std::vector<std::size_t> batchSweepSizes = {1, 8, 64, 512, 4096};

/** Transactions per timed run (32-byte GPU sectors). */
constexpr std::size_t batchSweepTx = 16384;

struct BatchRow
{
    std::string spec;
    std::size_t batchTx = 0;
    double seconds = 0.0;
    double txPerSecond = 0.0;
    double speedup = 1.0; ///< vs the same spec's batch-1 row.
};

/** Best wall-clock of three codec-only batch round-trip passes. */
double
timeBatchRoundTrips(const std::string &spec,
                    const std::vector<Transaction> &stream,
                    std::size_t batch_tx)
{
    // Batch consumers (bxtd frames, materialized traces) hold the
    // transactions as one flat plane already, so the timed region fills
    // each TxBatch with append() from a pre-flattened copy rather than
    // paying a per-transaction push loop the real hot path never runs.
    const std::size_t tx_bytes = stream[0].size();
    std::vector<std::uint8_t> plane(stream.size() * tx_bytes);
    for (std::size_t i = 0; i < stream.size(); ++i)
        std::memcpy(plane.data() + i * tx_bytes, stream[i].data(),
                    tx_bytes);

    // Mirror evalBatched's cache blocking: chunks are capped at one
    // L1/L2-resident tile so large nominal batches do not thrash the
    // encode plane + encoded copy through L2.
    const std::size_t tile_tx = std::min(batch_tx, batchTileTx(tx_bytes));
    double best = 1.0e30;
    for (int rep = 0; rep < 3; ++rep) {
        CodecPtr codec = makeCodec(spec);
        TxBatch batch(tx_bytes, tile_tx);
        EncodedBatch enc;
        TxBatch decoded;
        const auto start = std::chrono::steady_clock::now();
        std::size_t i = 0;
        while (i < stream.size()) {
            batch.clear();
            const std::size_t chunk =
                std::min(tile_tx, stream.size() - i);
            batch.append(plane.data() + i * tx_bytes, chunk);
            codec->encodeBatch(batch, enc);
            codec->decodeBatch(enc, decoded);
            keepAlive(decoded.data());
            i += chunk;
        }
        const auto stop = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(stop - start).count());
    }
    return best;
}

/** Flatten @p stream into one contiguous plane of @p tx_bytes rows. */
std::vector<std::uint8_t>
flattenStream(const std::vector<Transaction> &stream, std::size_t tx_bytes)
{
    std::vector<std::uint8_t> plane(stream.size() * tx_bytes);
    for (std::size_t i = 0; i < stream.size(); ++i)
        std::memcpy(plane.data() + i * tx_bytes, stream[i].data(),
                    tx_bytes);
    return plane;
}

/** Timed passes over the stream per rep in the encode/decode-only
 *  timers: one pass at vector speeds is tens of microseconds, too close
 *  to timer granularity for a stable CI gate. */
constexpr int simdTimerPasses = 16;

/** Reps per cell in the SIMD sweep (best-of; the gate needs low noise). */
constexpr int simdTimerReps = 5;

/**
 * Transactions per SIMD-sweep run: 4096 x 32 B keeps the source plane
 * L2-resident, so the per-level numbers measure the dispatched kernels
 * in the cache-blocked regime the tile geometry is designed for rather
 * than L3/DRAM streaming bandwidth (the round-trip sweep above keeps
 * the larger stream for that).
 */
constexpr std::size_t simdSweepTx = 4096;

/** Split @p stream into ready-to-encode TxBatch tiles of @p tile_tx. */
std::vector<TxBatch>
buildTiles(const std::vector<Transaction> &stream, std::size_t tile_tx)
{
    const std::size_t tx_bytes = stream[0].size();
    const std::vector<std::uint8_t> plane = flattenStream(stream, tx_bytes);
    std::vector<TxBatch> tiles;
    std::size_t i = 0;
    while (i < stream.size()) {
        const std::size_t chunk = std::min(tile_tx, stream.size() - i);
        tiles.emplace_back(tx_bytes, chunk);
        tiles.back().append(plane.data() + i * tx_bytes, chunk);
        i += chunk;
    }
    return tiles;
}

/**
 * Encode-only wall clock (best of 3) at the active dispatch level. The
 * tiles are pre-filled outside the timed region (symmetric with
 * timeBatchDecode) so the measurement isolates encodeBatch itself.
 */
double
timeBatchEncode(const std::string &spec,
                const std::vector<Transaction> &stream,
                std::size_t batch_tx)
{
    const std::size_t tx_bytes = stream[0].size();
    const std::size_t tile_tx = std::min(batch_tx, batchTileTx(tx_bytes));
    const std::vector<TxBatch> tiles = buildTiles(stream, tile_tx);

    double best = 1.0e30;
    for (int rep = 0; rep < simdTimerReps; ++rep) {
        CodecPtr codec = makeCodec(spec);
        EncodedBatch enc;
        const auto start = std::chrono::steady_clock::now();
        for (int pass = 0; pass < simdTimerPasses; ++pass) {
            for (const TxBatch &batch : tiles) {
                codec->encodeBatch(batch, enc);
                keepAlive(enc.payloadData());
            }
        }
        const auto stop = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(stop - start).count() /
                            simdTimerPasses);
    }
    return best;
}

/**
 * Decode-only wall clock (best of 3): the tiles are pre-encoded outside
 * the timed region, so the measurement isolates decodeBatch.
 */
double
timeBatchDecode(const std::string &spec,
                const std::vector<Transaction> &stream,
                std::size_t batch_tx)
{
    const std::size_t tx_bytes = stream[0].size();
    const std::size_t tile_tx = std::min(batch_tx, batchTileTx(tx_bytes));
    const std::vector<TxBatch> raw_tiles = buildTiles(stream, tile_tx);

    std::vector<EncodedBatch> tiles;
    {
        CodecPtr codec = makeCodec(spec);
        for (const TxBatch &batch : raw_tiles) {
            tiles.emplace_back();
            codec->encodeBatch(batch, tiles.back());
        }
    }

    double best = 1.0e30;
    for (int rep = 0; rep < simdTimerReps; ++rep) {
        CodecPtr codec = makeCodec(spec);
        TxBatch decoded;
        const auto start = std::chrono::steady_clock::now();
        for (int pass = 0; pass < simdTimerPasses; ++pass) {
            for (const EncodedBatch &enc : tiles) {
                codec->decodeBatch(enc, decoded);
                keepAlive(decoded.data());
            }
        }
        const auto stop = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(stop - start).count() /
                            simdTimerPasses);
    }
    return best;
}

/**
 * The batch-size sweep. Per spec: assert the batch eval pipeline's
 * BusStats at every batch size are field-identical to batch 1, then time
 * codec-only round trips. Returns the rows (batch-1 row first per spec)
 * and the best batch>=512 speedup over batch 1 via @p best_out.
 */
std::vector<BatchRow>
runBatchSweep(double *best_out)
{
    const std::vector<Transaction> stream = makeInput(batchSweepTx);
    std::vector<BatchRow> rows;
    double best = 0.0;

    std::printf("\n--- batch kernels vs batch 1: %zu tx/run ---\n",
                batchSweepTx);
    for (const std::string &spec : batchSweepSpecs) {
        // Field-identity gate first: the full eval pipeline (encode,
        // transmit, decode) must report the same BusStats at every size.
        CodecPtr single_codec = makeCodec(spec);
        const BusStats want =
            evalCodecOnStream(*single_codec, stream, 32, 0.3, 1).stats;
        for (std::size_t batch_tx : batchSweepSizes) {
            CodecPtr codec = makeCodec(spec);
            const BusStats got =
                evalCodecOnStream(*codec, stream, 32, 0.3, batch_tx).stats;
            if (!(got == want))
                panic("batch eval BusStats diverged from batch 1 (" + spec +
                      ", batch " + std::to_string(batch_tx) + ")");
        }

        double single_tx_per_second = 0.0;
        for (std::size_t batch_tx : batchSweepSizes) {
            BatchRow row;
            row.spec = spec;
            row.batchTx = batch_tx;
            row.seconds = timeBatchRoundTrips(spec, stream, batch_tx);
            row.txPerSecond =
                static_cast<double>(stream.size()) / row.seconds;
            if (batch_tx == 1)
                single_tx_per_second = row.txPerSecond;
            row.speedup = row.txPerSecond / single_tx_per_second;
            std::printf("%-22s batch %-5zu %9.0f ktx/s  %5.2fx\n",
                        spec.c_str(), batch_tx, row.txPerSecond / 1.0e3,
                        row.speedup);
            if (batch_tx >= 512)
                best = std::max(best, row.speedup);
            rows.push_back(row);
        }
    }
    std::printf("best batch>=512 speedup over batch 1: %.2fx  (BusStats "
                "field-identical at every batch size)\n",
                best);
    if (best_out != nullptr)
        *best_out = best;
    return rows;
}

struct SimdRow
{
    std::string spec;
    simd::Level level = simd::Level::Word;
    std::size_t batchTx = 0;
    double encodeTxPerSecond = 0.0;
    double decodeTxPerSecond = 0.0;
    double encodeSpeedupVsWord = 1.0;
    double decodeSpeedupVsWord = 1.0;
};

/** Best SIMD-over-word xor4+zdr batch-512 speedups; -1 when the host
 *  has no vector level to compare. */
struct SimdGate
{
    double encode = -1.0;
    double decode = -1.0;
};

/**
 * Dispatch levels the SIMD sweep visits. A forced BXT_SIMD pins the
 * sweep to the single level it resolved to; otherwise every supported
 * level.
 */
std::vector<simd::Level>
simdSweepLevels()
{
    if (simd::envForcedLevel().has_value())
        return {simd::activeLevel()};
    return simd::supportedLevels();
}

/**
 * The per-level sweep: encode-only and decode-only throughput for every
 * spec x dispatch level x batch size. Word rows come first per spec and
 * anchor the speedup columns. @p gate_out receives the xor4+zdr encode
 * and decode batch-512 speedups of the best SIMD level over word, or -1
 * when the host has no vector level to compare (the gate then skips).
 */
std::vector<SimdRow>
runSimdSweep(SimdGate *gate_out)
{
    const simd::Level saved = simd::activeLevel();
    const std::vector<simd::Level> levels = simdSweepLevels();
    const std::vector<Transaction> stream = makeInput(simdSweepTx);
    std::vector<SimdRow> rows;
    SimdGate gate;

    const bool forced = simd::envForcedLevel().has_value();
    std::printf("\n--- SIMD dispatch levels: ");
    for (std::size_t i = 0; i < levels.size(); ++i)
        std::printf("%s%s", i == 0 ? "" : ", ",
                    simd::levelName(levels[i]));
    std::printf("%s (%zu tx/run) ---\n", forced ? ", forced by BXT_SIMD" : "",
                simdSweepTx);

    for (const std::string &spec : batchSweepSpecs) {
        // word-baseline seconds per batch size, for the speedup columns.
        std::vector<double> word_enc(batchSweepSizes.size(), 0.0);
        std::vector<double> word_dec(batchSweepSizes.size(), 0.0);
        for (simd::Level level : levels) {
            simd::setActiveLevel(level);
            for (std::size_t s = 0; s < batchSweepSizes.size(); ++s) {
                const std::size_t batch_tx = batchSweepSizes[s];
                SimdRow row;
                row.spec = spec;
                row.level = level;
                row.batchTx = batch_tx;
                const double enc_s =
                    timeBatchEncode(spec, stream, batch_tx);
                const double dec_s =
                    timeBatchDecode(spec, stream, batch_tx);
                row.encodeTxPerSecond =
                    static_cast<double>(stream.size()) / enc_s;
                row.decodeTxPerSecond =
                    static_cast<double>(stream.size()) / dec_s;
                if (level == simd::Level::Word) {
                    word_enc[s] = enc_s;
                    word_dec[s] = dec_s;
                }
                if (word_enc[s] > 0.0)
                    row.encodeSpeedupVsWord = word_enc[s] / enc_s;
                if (word_dec[s] > 0.0)
                    row.decodeSpeedupVsWord = word_dec[s] / dec_s;
                if (spec == "xor4+zdr" && batch_tx == 512 &&
                    level != simd::Level::Word && word_enc[s] > 0.0) {
                    gate.encode =
                        std::max(gate.encode, row.encodeSpeedupVsWord);
                    gate.decode =
                        std::max(gate.decode, row.decodeSpeedupVsWord);
                }
                std::printf("%-22s %-7s batch %-5zu enc %9.0f ktx/s "
                            "%5.2fx  dec %9.0f ktx/s %5.2fx\n",
                            spec.c_str(), simd::levelName(level),
                            batch_tx, row.encodeTxPerSecond / 1.0e3,
                            row.encodeSpeedupVsWord,
                            row.decodeTxPerSecond / 1.0e3,
                            row.decodeSpeedupVsWord);
                rows.push_back(row);
            }
        }
    }
    simd::setActiveLevel(saved);

    if (gate.encode >= 0.0)
        std::printf("xor4+zdr batch-512 SIMD-over-word speedup: "
                    "encode %.2fx, decode %.2fx\n",
                    gate.encode, gate.decode);
    else if (forced)
        std::printf("BXT_SIMD forces %s alone: no SIMD-over-word "
                    "speedup to report\n",
                    simd::levelName(levels.front()));
    else
        std::printf("no vector dispatch level available; SIMD speedup "
                    "gate not applicable on this host\n");
    if (gate_out != nullptr)
        *gate_out = gate;
    return rows;
}

int
runSuiteSweep(const std::string &json_path, double batch_min_speedup,
              double simd_min_speedup)
{
    const std::vector<std::string> specs = paperSchemeSpecs();
    const unsigned parallel_threads = defaultThreadCount();

    std::printf("\n--- end-to-end suite sweep: %zu specs x GPU "
                "population, %zu tx/app ---\n",
                specs.size(), sweepTxPerApp);

    // The two modes alternate so drift in the host's load reaches both
    // alike, and each keeps its fastest run.
    std::size_t bytes = 0;
    SweepRun parallel;
    SweepRun serial;
    std::vector<AppResult> first;
    bool identical = true;
    for (int run = 0; run < sweepRuns; ++run) {
        for (SweepRun *mode : {&parallel, &serial}) {
            SweepRun next = runSweep(
                mode == &serial ? 1 : parallel_threads, specs, bytes);
            if (run == 0 && mode == &parallel)
                first = next.results;
            else
                identical =
                    identical && identicalResults(next.results, first);
            if (run == 0 || next.seconds < mode->seconds)
                *mode = std::move(next);
        }
    }
    std::printf("serial   (1 thread)  : %6.2f s  %6.3f GB/s  "
                "(fastest of %d)\n",
                serial.seconds, serial.gbPerSecond, sweepRuns);
    std::printf("parallel (%u threads): %6.2f s  %6.3f GB/s  "
                "(fastest of %d)\n",
                parallel_threads, parallel.seconds, parallel.gbPerSecond,
                sweepRuns);

    const double speedup = serial.seconds / parallel.seconds;
    std::printf("speedup: %.2fx   BusStats bit-identical: %s\n", speedup,
                identical ? "yes" : "NO");
    if (!identical)
        panic("an evalSuite run diverged from the first run");

    double best_batch_speedup = 0.0;
    const std::vector<BatchRow> batch_rows =
        runBatchSweep(&best_batch_speedup);

    SimdGate simd_gate;
    const std::vector<SimdRow> simd_rows = runSimdSweep(&simd_gate);
    const std::vector<simd::Level> simd_levels = simdSweepLevels();

    const bool ok = writeBenchJson(
        json_path, "codec_throughput", [&](JsonWriter &w) {
            auto emit = [&](const char *mode, unsigned threads,
                            const SweepRun &run) {
                w.beginObject();
                w.kv("mode", mode);
                w.kv("threads", static_cast<std::uint64_t>(threads));
                w.kv("seconds", run.seconds);
                w.kv("gb_per_s", run.gbPerSecond);
                w.kv("apps",
                     static_cast<std::uint64_t>(run.results.size()));
                w.kv("specs", static_cast<std::uint64_t>(specs.size()));
                w.kv("tx_per_app",
                     static_cast<std::uint64_t>(sweepTxPerApp));
                w.kv("bytes_swept", static_cast<std::uint64_t>(bytes));
                w.kv("speedup", speedup);
                w.kv("bit_identical", identical);
                w.endObject();
            };
            emit("serial", 1, serial);
            emit("parallel", parallel_threads, parallel);
            for (const BatchRow &row : batch_rows) {
                w.beginObject();
                w.kv("mode", "batch_codec");
                w.kv("spec", row.spec);
                w.kv("batch_tx", static_cast<std::uint64_t>(row.batchTx));
                w.kv("seconds", row.seconds);
                w.kv("tx_per_s", row.txPerSecond);
                w.kv("speedup_vs_batch1", row.speedup);
                w.kv("stats_identical", true);
                w.endObject();
            }
            {
                std::string levels;
                for (simd::Level level : simd_levels) {
                    if (!levels.empty())
                        levels += ",";
                    levels += simd::levelName(level);
                }
                w.beginObject();
                w.kv("mode", "simd_info");
                w.kv("simd_levels", levels);
                w.kv("best_level",
                     simd::levelName(simd::bestLevel()));
                w.kv("forced", simd::envForcedLevel().has_value());
                w.endObject();
            }
            for (const SimdRow &row : simd_rows) {
                w.beginObject();
                w.kv("mode", "simd_codec");
                w.kv("spec", row.spec);
                w.kv("simd_level", simd::levelName(row.level));
                w.kv("batch_tx", static_cast<std::uint64_t>(row.batchTx));
                w.kv("encode_tx_per_s", row.encodeTxPerSecond);
                w.kv("decode_tx_per_s", row.decodeTxPerSecond);
                w.kv("encode_speedup_vs_word", row.encodeSpeedupVsWord);
                w.kv("decode_speedup_vs_word", row.decodeSpeedupVsWord);
                w.endObject();
            }
        });
    if (!ok)
        return 1;
    std::printf("wrote %s\n", json_path.c_str());

    if (batch_min_speedup > 0.0 && best_batch_speedup < batch_min_speedup) {
        std::fprintf(stderr,
                     "FAIL: best batch>=512 speedup over batch 1 %.2fx is "
                     "below the --batch-min-speedup gate %.2fx\n",
                     best_batch_speedup, batch_min_speedup);
        return 1;
    }
    if (simd_min_speedup > 0.0) {
        if (simd_gate.encode < 0.0) {
            std::printf("--simd-min-speedup skipped: no vector dispatch "
                        "level on this host\n");
        } else if (std::min(simd_gate.encode, simd_gate.decode) <
                   simd_min_speedup) {
            std::fprintf(stderr,
                         "FAIL: xor4+zdr batch-512 SIMD speedup (encode "
                         "%.2fx, decode %.2fx) is below the "
                         "--simd-min-speedup gate %.2fx\n",
                         simd_gate.encode, simd_gate.decode,
                         simd_min_speedup);
            return 1;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_codec_throughput.json";
    double batch_min_speedup = 0.0;
    double simd_min_speedup = 0.0;
    Cli cli("bench_codec_throughput",
            "codec and evaluation-engine throughput sweeps");
    cli.add("--json", "PATH",
            "write the sweep document to PATH (default "
            "BENCH_codec_throughput.json)",
            [&](const std::string &v) { json_path = v; });
    cli.addReal("--batch-min-speedup", "F",
                "fail unless the best batch>=512 round trip beats batch 1 "
                "by F (0 = no gate)",
                batch_min_speedup);
    cli.addReal("--simd-min-speedup", "F",
                "fail unless the best SIMD level's xor4+zdr batch-512 "
                "encode and decode beat word by F (0 = no gate; skipped "
                "without a vector level; refused with BXT_SIMD set)",
                simd_min_speedup);
    if (!cli.parse(argc, argv))
        return cli.exitCode();
    if (simd_min_speedup > 0.0 && simd::envForcedLevel().has_value()) {
        std::fprintf(stderr,
                     "bench_codec_throughput: bad --simd-min-speedup with "
                     "BXT_SIMD=%s (a forced level leaves no word baseline "
                     "to gate against; unset BXT_SIMD)\n",
                     std::getenv("BXT_SIMD"));
        return 2;
    }
    return runSuiteSweep(json_path, batch_min_speedup, simd_min_speedup);
}
