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
    void reset() override;
    bool stateless() const override;

  protected:
    void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) override;
    void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) override;

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

    /**
     * Record per-stage attribution for a whole encoded batch. Counters are
     * additive, so adding the batch aggregates (summed input ones, summed
     * stage output ones, total bytes) leaves every counter with the same
     * value however the stream was split into batches — the telescoping
     * invariant checked by test_telemetry.
     */
    void recordStageMetricsBatch(const TxBatch &in);

    std::vector<CodecPtr> stages_;
    /** Stage output batches plus the ping-pong input batch that feeds
     *  each stage after the first; capacities persist across calls.
     *  Makes the codec non-reentrant, like any stateful codec — workers
     *  own their codec. */
    std::vector<EncodedBatch> batch_scratch_;
    TxBatch batch_stage_in_;
    /** Lazily bound counter set; empty until first enabled encode. */
    std::vector<StageCounters> stage_counters_;
};

} // namespace bxt

#endif // BXT_CORE_PIPELINE_H
