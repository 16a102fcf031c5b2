#include "core/pipeline.h"

#include <cstring>

#include "common/error.h"
#include "core/simd/simd.h"
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

/** @p buffer grown (never zeroed) to @p bytes; its data pointer. */
std::uint8_t *
sized(ByteBuffer &buffer, std::size_t bytes)
{
    buffer.resizeForOverwrite(bytes);
    return buffer.data();
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

std::size_t
PipelineCodec::metaBitsPerTx(std::size_t tx_bytes) const
{
    // Every stage sees the same beats (payload size is preserved), so
    // the stages' bits add up to beats * total wires.
    std::size_t bits = 0;
    for (const auto &stage : stages_)
        bits += stage->metaBitsPerTx(tx_bytes);
    return bits;
}

bool
PipelineCodec::allowsInPlace() const
{
    return stages_.size() > 1 || stages_[0]->allowsInPlace();
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
PipelineCodec::encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                                 std::uint8_t *meta)
{
    if (in.count == 0)
        return;
    const std::size_t bytes = in.bytes();
    const unsigned total_wires = metaWiresPerBeat();
    const std::size_t rows =
        total_wires == 0
            ? 0
            : in.count * (metaBitsPerTx(in.txBytes) / total_wires);
    stage_meta_.resize(stages_.size());

    // Per-stage attribution adds each batch's aggregates, so every
    // counter ends the same however the stream was split into batches —
    // the telescoping invariant checked by test_telemetry.
    const bool metrics = telemetry::metricsEnabled();
    std::uint64_t ones_in = 0;
    if (metrics) {
        bindStageCounters();
        ones_in = simd::ops().popcountRange(in.data, bytes);
    }

    TxView stage_in = in;
    for (std::size_t s = 0; s < stages_.size(); ++s) {
        const unsigned wires = stages_[s]->metaWiresPerBeat();
        std::uint8_t *stage_out = s + 1 == stages_.size()
                                      ? payload
                                      : sized(planes_[s % 2], bytes);
        std::uint8_t *stage_meta =
            wires == 0 || wires == total_wires
                ? meta
                : sized(stage_meta_[s], rows * wires);
        stages_[s]->encodeBatch(stage_in, stage_out, stage_meta);
        if (metrics) {
            const simd::KernelTable &ops = simd::ops();
            const std::uint64_t payload_ones =
                ops.popcountRange(stage_out, bytes);
            // Metadata bytes are 0/1, so the popcount is the sum.
            const std::uint64_t meta_ones =
                ops.popcountRange(stage_meta, rows * wires);
            const StageCounters &c = stage_counters_[s];
            c.onesIn->add(ones_in);
            c.onesOut->add(payload_ones + meta_ones);
            c.metaOnes->add(meta_ones);
            c.bytes->add(bytes);
            ones_in = payload_ones;
        }
        stage_in = TxView{stage_out, in.count, in.txBytes};
    }

    // Stage metadata streams are interleaved per beat in stage order:
    // each beat carries every stage's wires, first stage first. Every
    // plane is rows of (transaction, beat) in the same order.
    unsigned offset = 0;
    for (std::size_t s = 0; s < stages_.size(); ++s) {
        const unsigned wires = stages_[s]->metaWiresPerBeat();
        if (wires != 0 && wires != total_wires)
            copyMetaRows(meta + offset, total_wires, stage_meta_[s].data(),
                         wires, rows, wires);
        offset += wires;
    }
}

void
PipelineCodec::decodeBatchKernel(const EncodedView &in, std::uint8_t *out)
{
    if (in.count == 0)
        return;
    const std::size_t bytes = in.count * in.txBytes;
    const unsigned total_wires = metaWiresPerBeat();
    const std::size_t rows =
        total_wires == 0
            ? 0
            : in.count * (metaBitsPerTx(in.txBytes) / total_wires);
    stage_meta_.resize(stages_.size());

    // Decode stages in reverse, splitting each stage's metadata wires
    // back out of the interleaved beat blocks.
    const std::uint8_t *payload = in.payload;
    unsigned offset = total_wires;
    for (std::size_t s = stages_.size(); s-- > 0;) {
        const unsigned wires = stages_[s]->metaWiresPerBeat();
        offset -= wires;
        const std::uint8_t *stage_meta = in.meta;
        if (wires != 0 && wires != total_wires) {
            std::uint8_t *plane = sized(stage_meta_[s], rows * wires);
            copyMetaRows(plane, wires, in.meta + offset, total_wires, rows,
                         wires);
            stage_meta = plane;
        }
        std::uint8_t *stage_out =
            s == 0 ? out : sized(planes_[s % 2], bytes);
        stages_[s]->decodeBatch(
            EncodedView{payload, stage_meta, in.count, in.txBytes},
            stage_out);
        payload = stage_out;
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
