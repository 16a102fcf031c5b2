/**
 * @file
 * PipelineCodec: sequential composition of codecs, used for the paper's
 * combined scheme "Universal Base+XOR Transfer with ZDR followed by DBI"
 * (§VI-D): the second stage encodes the first stage's payload, and their
 * metadata wires are concatenated.
 */

#ifndef BXT_CORE_PIPELINE_H
#define BXT_CORE_PIPELINE_H

#include <vector>

#include "core/codec.h"

namespace bxt {

namespace telemetry {
class Counter;
} // namespace telemetry

/**
 * Applies member codecs in order on encode and in reverse order on decode.
 * Metadata restrictions: every stage must preserve payload size (all codecs
 * here do); stage metadata is concatenated per beat in stage order.
 */
class PipelineCodec : public Codec
{
  public:
    /** Compose @p stages; at least one stage is required. */
    explicit PipelineCodec(std::vector<CodecPtr> stages);

    /** Convenience two-stage constructor (e.g. Universal+ZDR then DBI). */
    PipelineCodec(CodecPtr first, CodecPtr second);

    std::string name() const override;
    unsigned metaWiresPerBeat() const override;
    std::size_t metaBitsPerTx(std::size_t tx_bytes) const override;
    void reset() override;
    bool stateless() const override;

    /** With two or more stages, yes: every stage but the last writes a
     *  scratch plane and the last reads one, so the caller's planes are
     *  never read after the first stage. One stage follows its rule. */
    bool allowsInPlace() const override;

  protected:
    void encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                           std::uint8_t *meta) override;
    void decodeBatchKernel(const EncodedView &in,
                           std::uint8_t *out) override;

  private:
    /**
     * Cached per-stage telemetry counters (DESIGN.md §9): for stage s of
     * pipeline P the names are
     * `bxt.codec.<P>.stage<s>.<name>.{ones_in,ones_out,meta_ones,bytes}`
     * with P and name run through telemetry::sanitizeMetricName. ones_in
     * is the payload entering the stage, ones_out the stage's payload
     * plus metadata ones, so `ones_in - ones_out` is the stage's net
     * wire-ones removal and the removals telescope: raw ones minus the
     * summed removals equals the encoding's total (bus-visible) ones.
     */
    struct StageCounters
    {
        telemetry::Counter *onesIn = nullptr;
        telemetry::Counter *onesOut = nullptr;
        telemetry::Counter *metaOnes = nullptr;
        telemetry::Counter *bytes = nullptr;
    };

    /** Bind (once) the counter set above; no-op when already bound. */
    void bindStageCounters();

    std::vector<CodecPtr> stages_;
    /**
     * The two payload planes the stages ping-pong between: stage s writes
     * plane s % 2 and stage s + 1 reads it, except that the first stage
     * reads the caller's input and the last writes the caller's output.
     * Capacities persist across calls, which makes the codec
     * non-reentrant, like any stateful codec — workers own their codec.
     */
    ByteBuffer planes_[2];
    /** Per-stage metadata planes, used only by stages that share the
     *  metadata wires with another stage (a stage that drives all of
     *  them reads and writes the caller's metadata plane directly). */
    std::vector<ByteBuffer> stage_meta_;
    /** Lazily bound counter set; empty until first enabled encode. */
    std::vector<StageCounters> stage_counters_;
};

} // namespace bxt

#endif // BXT_CORE_PIPELINE_H
