#include "core/pipeline.h"

#include <cstring>

#include "common/error.h"
#include "telemetry/metrics.h"

namespace bxt {

namespace {

/**
 * Copy @p rows rows of @p width metadata bytes between row strides: one
 * stage's plane into or out of the per-beat interleaved layout. A stage
 * that carries every wire is the whole layout, so its plane moves as one
 * copy; otherwise the copy runs column by column, strided on both sides,
 * so no inner loop is a short contiguous run the compiler would turn into
 * a libc memcpy call per beat.
 */
void
copyMetaRows(std::uint8_t *dst, std::size_t dst_stride,
             const std::uint8_t *src, std::size_t src_stride,
             std::size_t rows, std::size_t width)
{
    if (dst_stride == width && src_stride == width) {
        std::memcpy(dst, src, rows * width);
        return;
    }
    for (std::size_t w = 0; w < width; ++w)
        for (std::size_t r = 0; r < rows; ++r)
            dst[r * dst_stride + w] = src[r * src_stride + w];
}

} // namespace

PipelineCodec::PipelineCodec(std::vector<CodecPtr> stages)
    : stages_(std::move(stages))
{
    BXT_ASSERT(!stages_.empty());
    for (const auto &stage : stages_)
        BXT_ASSERT(stage != nullptr);
}

PipelineCodec::PipelineCodec(CodecPtr first, CodecPtr second)
{
    BXT_ASSERT(first != nullptr && second != nullptr);
    stages_.push_back(std::move(first));
    stages_.push_back(std::move(second));
}

std::string
PipelineCodec::name() const
{
    std::string n;
    for (const auto &stage : stages_) {
        if (!n.empty())
            n += "|";
        n += stage->name();
    }
    return n;
}

unsigned
PipelineCodec::metaWiresPerBeat() const
{
    unsigned wires = 0;
    for (const auto &stage : stages_)
        wires += stage->metaWiresPerBeat();
    return wires;
}

void
PipelineCodec::bindStageCounters()
{
    if (!stage_counters_.empty())
        return;
    const std::string pipeline = telemetry::sanitizeMetricName(name());
    stage_counters_.reserve(stages_.size());
    for (std::size_t s = 0; s < stages_.size(); ++s) {
        const std::string prefix =
            "bxt.codec." + pipeline + ".stage" + std::to_string(s) + "." +
            telemetry::sanitizeMetricName(stages_[s]->name()) + ".";
        StageCounters c;
        c.onesIn = &telemetry::counter(prefix + "ones_in");
        c.onesOut = &telemetry::counter(prefix + "ones_out");
        c.metaOnes = &telemetry::counter(prefix + "meta_ones");
        c.bytes = &telemetry::counter(prefix + "bytes");
        stage_counters_.push_back(c);
    }
}

void
PipelineCodec::recordStageMetricsBatch(const TxBatch &in)
{
    bindStageCounters();

    std::size_t ones_in = in.ones();
    const std::size_t bytes = in.planeBytes();
    for (std::size_t s = 0; s < stages_.size(); ++s) {
        const std::size_t payload_ones = batch_scratch_[s].payloadOnes();
        const std::size_t meta_ones = batch_scratch_[s].metaOnes();
        const StageCounters &c = stage_counters_[s];
        c.onesIn->add(ones_in);
        c.onesOut->add(payload_ones + meta_ones);
        c.metaOnes->add(meta_ones);
        c.bytes->add(bytes);
        ones_in = payload_ones;
    }
}

void
PipelineCodec::encodeBatchKernel(const TxBatch &in, EncodedBatch &out)
{
    const std::size_t tx_bytes = in.txBytes();
    if (in.empty()) {
        out.configure(tx_bytes, metaWiresPerBeat(), 0);
        out.resize(0);
        return;
    }

    // Stage 0 encodes the input plane; every later stage encodes the
    // previous stage's payload plane via the ping-pong input batch.
    batch_scratch_.resize(stages_.size());
    stages_[0]->encodeBatch(in, batch_scratch_[0]);
    for (std::size_t s = 1; s < stages_.size(); ++s) {
        batch_stage_in_.reset(tx_bytes);
        batch_stage_in_.resizeForOverwrite(in.size());
        std::memcpy(batch_stage_in_.data(),
                    batch_scratch_[s - 1].payloadData(),
                    batch_scratch_[s - 1].payloadBytes());
        stages_[s]->encodeBatch(batch_stage_in_, batch_scratch_[s]);
    }

    if (telemetry::metricsEnabled())
        recordStageMetricsBatch(in);

    // All stages see the same beat count (payload size is preserved).
    unsigned total_wires = 0;
    std::size_t beats = 0;
    for (const EncodedBatch &eb : batch_scratch_) {
        total_wires += eb.metaWiresPerBeat();
        if (eb.metaWiresPerBeat() > 0) {
            const std::size_t stage_beats =
                eb.metaBitsPerTx() / eb.metaWiresPerBeat();
            BXT_ASSERT(beats == 0 || beats == stage_beats);
            beats = stage_beats;
        }
    }

    out.configure(tx_bytes, total_wires, beats * total_wires);
    out.resizeForOverwrite(in.size());
    std::memcpy(out.payloadData(), batch_scratch_.back().payloadData(),
                out.payloadBytes());
    if (total_wires == 0)
        return;

    // Stage metadata streams are interleaved per beat in stage order:
    // each beat carries every stage's wires, first stage first. Every
    // plane is rows of (transaction, beat) in the same order.
    const std::size_t rows = in.size() * beats;
    unsigned offset = 0;
    for (const EncodedBatch &eb : batch_scratch_) {
        const unsigned wires = eb.metaWiresPerBeat();
        if (wires == 0)
            continue;
        copyMetaRows(out.metaData() + offset, total_wires, eb.metaData(),
                     wires, rows, wires);
        offset += wires;
    }
}

void
PipelineCodec::decodeBatchKernel(const EncodedBatch &in, TxBatch &out)
{
    const std::size_t tx_bytes = in.txBytes();
    out.reset(tx_bytes);
    if (in.size() == 0)
        return;

    // decodeBatch() already verified the total wire count matches.
    const unsigned total = in.metaWiresPerBeat();
    const std::size_t beats =
        total == 0 ? 0 : in.metaBitsPerTx() / total;

    // Decode stages in reverse, splitting each stage's metadata wires
    // back out of the interleaved beat blocks.
    batch_scratch_.resize(stages_.size());
    const std::uint8_t *payload = in.payloadData();
    std::size_t payload_bytes = in.payloadBytes();
    unsigned stage_offset = total;
    for (std::size_t s = stages_.size(); s-- > 0;) {
        EncodedBatch &eb = batch_scratch_[s];
        const unsigned wires = stages_[s]->metaWiresPerBeat();
        stage_offset -= wires;
        eb.configure(tx_bytes, wires, beats * wires);
        eb.resizeForOverwrite(in.size());
        std::memcpy(eb.payloadData(), payload, payload_bytes);
        if (wires > 0)
            copyMetaRows(eb.metaData(), wires, in.metaData() + stage_offset,
                         total, in.size() * beats, wires);
        stages_[s]->decodeBatch(eb, s == 0 ? out : batch_stage_in_);
        if (s != 0) {
            payload = batch_stage_in_.data();
            payload_bytes = batch_stage_in_.planeBytes();
        }
    }
}

void
PipelineCodec::reset()
{
    for (auto &stage : stages_)
        stage->reset();
}

bool
PipelineCodec::stateless() const
{
    for (const auto &stage : stages_) {
        if (!stage->stateless())
            return false;
    }
    return true;
}

} // namespace bxt
