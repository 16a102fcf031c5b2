/**
 * @file
 * Golden-vector corpus: checked-in text files (tests/golden/<spec>.txt) that
 * pin, for every canonical spec, the exact encoded bytes, metadata bits,
 * and Bus ones/toggles of a deterministic set of structured inputs.
 * `tools/gen_golden` regenerates them; `tests/test_golden.cpp` fails with a
 * readable diff on any cross-platform or refactor drift. A second file
 * (`endpoints.txt`) pins the aggregate figure-endpoint statistics the
 * fig11/12/14 benches report.
 */

#ifndef BXT_VERIFY_GOLDEN_H
#define BXT_VERIFY_GOLDEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "channel/bus.h"
#include "core/transaction.h"

namespace bxt::verify {

/** One pinned input → encoding → wire-stats record. */
struct GoldenVector
{
    Transaction input{Transaction::minBytes};
    Transaction payload{Transaction::minBytes}; ///< Expected encoded bytes.
    std::vector<std::uint8_t> meta;             ///< Expected metadata bits.
    unsigned metaWiresPerBeat = 0;
    BusStats stats; ///< Expected fresh-Bus transmit delta (idle 0).
};

/** One golden file: a spec at one channel width plus its vectors. */
struct GoldenFile
{
    std::string spec;
    unsigned dataWires = 32;
    std::uint64_t seed = 0;
    std::vector<GoldenVector> vectors;
};

/** The specs the corpus pins, per channel width. */
std::vector<std::string> goldenSpecs(unsigned data_wires);

/** Stable file name for (spec, wires), e.g. `universal3-zdr__dbi4.w32.txt`. */
std::string goldenFileName(const std::string &spec, unsigned data_wires);

/**
 * Generate the golden records for @p spec by running the *current* core
 * codec and Bus over the deterministic generator stream. Vectors are
 * encoded in file order on one codec instance (so stateful codecs like
 * BD-Encoding are pinned too); each vector's BusStats delta uses a fresh
 * idle-free Bus.
 */
GoldenFile generateGolden(const std::string &spec, unsigned data_wires,
                          std::uint64_t seed, std::size_t count);

/** Serialize @p golden to @p path; false on I/O failure. */
bool writeGoldenFile(const GoldenFile &golden, const std::string &path);

/**
 * Parse @p path into @p out. Returns one human-readable line per parse
 * problem (empty == clean); on any diagnostic @p out is unusable.
 */
std::vector<std::string> loadGoldenFile(const std::string &path,
                                        GoldenFile &out);

/**
 * Parse @p path and re-run the current core implementation over its
 * inputs. Returns one human-readable line per mismatch (empty == clean);
 * parse problems are reported the same way rather than aborting.
 */
std::vector<std::string> checkGoldenFile(const std::string &path);

/**
 * Like checkGoldenFile, but through the batch hot path: the file's inputs
 * become one TxBatch encoded with a single encodeBatch call (stateful
 * codecs advance in vector order either way), each vector's pinned
 * payload/metadata are compared against its batch slice, the pinned bus
 * counters against a fresh single-transaction transmitBatch, and the
 * whole batch must decodeBatch back to the inputs. Any diff line means a
 * batch kernel has drifted from the encodings the files pin.
 */
std::vector<std::string> checkGoldenFileBatch(const std::string &path);

/** One pinned aggregate endpoint, e.g. fig11's mean normalized ones. */
struct Endpoint
{
    std::string fig;    ///< "fig11" / "fig12" / "fig14".
    std::string spec;
    std::size_t txPerApp = 0;
    double value = 0.0; ///< Mean normalized ones across the suite.
};

/** Format one endpoint line (`endpoint fig11 xor2+zdr tx=512 v=0.123456789`). */
std::string formatEndpointLine(const Endpoint &endpoint);

/** Parse endpoint lines from @p path (comments/blank lines skipped). */
std::vector<Endpoint> loadEndpoints(const std::string &path);

/** Append endpoint lines to @p path (creates it); false on I/O failure. */
bool appendEndpoints(const std::string &path,
                     const std::vector<Endpoint> &endpoints);

} // namespace bxt::verify

#endif // BXT_VERIFY_GOLDEN_H
