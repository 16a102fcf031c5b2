/**
 * @file
 * Per-transaction invariant checking: the machine-checked statements of the
 * paper's correctness claims, evaluated for every fuzzed transaction.
 *
 *  1. encode ∘ decode == identity for the core codec (bijection claim);
 *  2. the core encoding equals the naive reference encoding byte-for-byte
 *     (payload, metadata bits, and metadata wire count);
 *  3. the reference codec round-trips independently;
 *  4. ZDR bijectivity: E_zdr == σ ∘ E_xor where σ is the transposition of
 *     the two output symbols {base, C} — σ an involution keeps E_zdr a
 *     bijection (checked at lane level, see checkZdrLaneInvolution);
 *  5. DBI-DC output weight: every encoded group carries at most
 *     group-size/2 `1` bits (when the spec's final stage is dbiN);
 *  6. the optimized Bus and the bit-level RefBus report identical BusStats
 *     deltas and cumulative counters, across transaction boundaries.
 */

#ifndef BXT_VERIFY_INVARIANTS_H
#define BXT_VERIFY_INVARIANTS_H

#include <cstdint>
#include <optional>
#include <string>

#include "channel/bus.h"
#include "core/codec.h"
#include "verify/reference_bus.h"
#include "verify/reference_codecs.h"

namespace bxt::verify {

/** One failed invariant, with a human-readable account of the mismatch. */
struct Violation
{
    std::string invariant; ///< Stable id, e.g. "core-vs-ref-payload".
    std::string detail;    ///< Hex dumps / counters for the report.
};

/**
 * Drives one codec spec over a transaction stream and checks every
 * invariant above per transaction. The checker owns the core codec, the
 * reference codec (absent for specs outside the paper set: bd, dbi-ac —
 * those get round-trip and bus checks only), and both bus models, so
 * cross-transaction toggle accounting is exercised too.
 */
class DifferentialChecker
{
  public:
    /**
     * @param spec codec_factory spec string; the codec is built with
     *        bus_bytes = data_wires / 8.
     * @param data_wires Channel width in bits (32 GPU / 64 CPU).
     * @param idle_fraction Idle-gap fraction for both bus models.
     */
    explicit DifferentialChecker(const std::string &spec,
                                 unsigned data_wires = 32,
                                 double idle_fraction = 0.0);

    /**
     * As above, but verify an externally supplied core codec against the
     * reference model for @p spec. Used by mutation smoke tests to prove
     * the harness catches deliberately injected codec bugs.
     */
    DifferentialChecker(CodecPtr core, const std::string &spec,
                        unsigned data_wires, double idle_fraction);

    /** Check all invariants on @p tx; nullopt when every invariant holds. */
    std::optional<Violation> check(const Transaction &tx);

    /** False for specs with no reference model (bd, dbi-ac stages). */
    bool hasReference() const { return ref_ != nullptr; }

    /** Transactions checked since construction. */
    std::uint64_t checked() const { return checked_; }

    /** The spec under test. */
    const std::string &spec() const { return spec_; }

  private:
    std::string spec_;
    unsigned data_wires_;
    CodecPtr core_;
    RefCodecPtr ref_;
    Bus bus_;
    RefBus ref_bus_;
    std::size_t tail_dbi_group_ = 0; ///< Group bytes when last stage is dbiN.
    std::uint64_t checked_ = 0;
};

/**
 * Lane-level ZDR bijectivity statement: with σ the swap of the two output
 * symbols {base, C}, verify σ∘σ == id (involution), E_zdr(in) == σ(E_xor(in)),
 * and D_zdr(E_zdr(in)) == in, all on naive reference lanes.
 */
std::optional<Violation>
checkZdrLaneInvolution(const std::vector<std::uint8_t> &in,
                       const std::vector<std::uint8_t> &base);

/**
 * Group size of the trailing dbiN stage of @p spec, or 0 when the spec does
 * not end in a plain DBI-DC stage (the weight bound only holds there).
 */
std::size_t trailingDbiGroupBytes(const std::string &spec);

} // namespace bxt::verify

#endif // BXT_VERIFY_INVARIANTS_H
