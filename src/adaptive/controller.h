/**
 * @file
 * Online adaptive codec selection: the per-stream controller behind the
 * `adaptive[:...]` spec (DESIGN.md §13).
 *
 * The paper fixes one encoding spec ahead of time, but no single spec
 * wins across data families: zero-heavy integer streams want ZDR, float
 * walks want a Base+XOR granularity matched to the element size, and
 * high-entropy streams are best left unencoded. The Controller closes
 * that loop at runtime. It samples a sliding window of transactions,
 * derives the value statistics the choice depends on (zero-word
 * fraction, per-granularity XOR toggle weight, a DBI weight estimate),
 * and scores every concrete candidate spec with a cost model that is
 * calibrated against measured ones-on-bus: each candidate encodes the
 * sampled window and its cost is the exact payload+metadata ones it
 * would have put on the wire. The cheapest candidate becomes the active
 * spec; re-evaluations run every `period` observed transactions and
 * only switch when the winner undercuts the incumbent by the hysteresis
 * margin, so bursty streams do not flap between near-tied specs.
 *
 * Candidates must be stateless (measurement encodes must not disturb
 * channel history) and must agree on metaWiresPerBeat (a switch must
 * never change the wire geometry mid-stream).
 */

#ifndef BXT_ADAPTIVE_CONTROLLER_H
#define BXT_ADAPTIVE_CONTROLLER_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/codec.h"

namespace bxt::adaptive {

/** Tuning knobs of one adaptive spec (the `adaptive[:...]` grammar). */
struct Config
{
    /** Concrete candidate specs (>= 2, stateless, uniform meta wires). */
    std::vector<std::string> candidates;

    /** Transactions retained in the sampled window (`w=` knob). */
    std::size_t window = 64;

    /** Observed transactions between re-evaluations (`p=` knob). */
    std::size_t period = 256;

    /**
     * Switch only when the best candidate's measured cost is at least
     * this many percent below the incumbent's (`h=` knob). The first
     * evaluation is exempt: the initial choice is arbitrary, not earned.
     */
    double hysteresisPct = 10.0;

    /** Bus width in bytes for beat-oriented candidates (DBI). */
    std::size_t busBytes = 4;
};

/** The default candidate set: the paper's universal scheme plus the
 *  per-granularity Base+XOR ladder and the unencoded baseline, all
 *  metadata-free so a switch never resizes the bus. */
Config defaultConfig(std::size_t bus_bytes = 4);

/** True when @p spec names the adaptive meta-codec ("adaptive" or
 *  "adaptive:..."); such specs bypass the '|' pipeline grammar. */
bool isAdaptiveSpec(std::string_view spec);

/**
 * Parse `adaptive[:item,item,...]` where each item is a knob (`w=N`,
 * `p=N`, `h=PCT`) or a concrete candidate spec (pipelines with '|' are
 * fine; ',' separates items). Omitted candidates fall back to
 * defaultConfig(). Returns false with @p err set on a malformed spec;
 * candidate validation (existence, statelessness, uniform meta wires)
 * happens in Controller::make.
 */
bool parseAdaptiveSpec(const std::string &spec, std::size_t bus_bytes,
                       Config &out, std::string &err);

/** The canonical round-trippable spec string for @p config. */
std::string canonicalSpec(const Config &config);

/** XOR toggle-weight granularities the sensors track (element bytes). */
inline constexpr std::array<std::size_t, 4> kToggleGranularities{2, 4, 8,
                                                                 16};

/** Windowed value statistics over the sampled transactions. */
struct Sensors
{
    /** Fraction of zero 32-bit words (ZDR's favourite food). */
    double zeroWordFrac = 0.0;

    /** Mean fraction of bits toggling between adjacent g-byte elements
     *  within a transaction, per kToggleGranularities entry; 0 when the
     *  transaction holds fewer than two such elements. */
    std::array<double, kToggleGranularities.size()> toggleWeight{};

    /** Fraction of bus beats whose popcount exceeds half the bus width
     *  (the beats DBI would invert). */
    double dbiWeight = 0.0;

    /** Transactions currently in the window. */
    std::size_t samples = 0;
};

/**
 * The per-stream selection engine. Not thread-safe: one Controller per
 * stream per connection, exactly like the codec instances it manages.
 *
 * Protocol (enforced by AdaptiveCodec): call maybeEvaluate() at a batch
 * boundary *before* encoding, encode the batch with activeCodec(), then
 * observe() the batch. Evaluation therefore only ever sees completed
 * batches and a switch can only land between batches.
 */
class Controller
{
  public:
    /**
     * Build a controller (constructing every candidate codec). Returns
     * nullptr with @p err set when a candidate is malformed, stateful,
     * nested-adaptive, or disagrees on metaWiresPerBeat.
     */
    static std::unique_ptr<Controller> make(const Config &config,
                                            std::string &err);

    const Config &config() const { return config_; }

    /** Index of the active candidate in config().candidates. */
    std::size_t activeIndex() const { return active_; }

    /** The active concrete spec string (what the server announces). */
    const std::string &activeSpec() const
    {
        return config_.candidates[active_];
    }

    /** The active concrete codec (encode/decode delegate). */
    Codec &activeCodec() { return *candidates_[active_]; }

    /** Switches so far — the epoch announced next to the active spec.
     *  Two replies with equal (spec, epoch) used the same choice run. */
    std::uint64_t epoch() const { return epoch_; }

    /** Cost-model evaluations run so far. */
    std::uint64_t evaluations() const { return evaluations_; }

    /** Transactions observed so far. */
    std::uint64_t observed() const { return observed_; }

    /**
     * Re-evaluate if due (first time once the window has filled, then
     * every period transactions). Returns true when the active codec
     * changed. Call only at a batch boundary, before encoding.
     */
    bool maybeEvaluate();

    /** Feed a completed batch into the sampled window (stride-sampled
     *  so a huge batch costs at most `window` copies). */
    void observe(const TxView &batch);

    /** Compute the windowed value statistics (walks the window). */
    Sensors sensors() const;

    /** Mean measured ones-on-bus per transaction per candidate at the
     *  last evaluation (empty before the first). Test/display hook. */
    const std::vector<double> &lastCosts() const { return last_costs_; }

    /** Drop all history: window, counters, epoch, active choice. */
    void reset();

  private:
    explicit Controller(Config config);

    /** Run the calibrated cost model over the window and maybe switch. */
    bool evaluate();

    Config config_;
    std::vector<CodecPtr> candidates_;

    /** Sampled-transaction ring; rows [0, ring_.size()) are live. */
    TxBatch ring_;
    std::size_t ringNext_ = 0;

    /** Scratch for measurement encodes (reused across evaluations). */
    EncodedBatch scratch_;

    std::size_t active_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint64_t evaluations_ = 0;
    std::uint64_t observed_ = 0;
    std::uint64_t sinceEval_ = 0;
    std::vector<double> last_costs_;
};

} // namespace bxt::adaptive

#endif // BXT_ADAPTIVE_CONTROLLER_H
