#include "adaptive/adaptive_codec.h"

#include <utility>

namespace bxt::adaptive {

AdaptiveCodec::AdaptiveCodec(std::unique_ptr<Controller> controller,
                             std::string name)
    : controller_(std::move(controller)), name_(std::move(name))
{
    meta_wires_ = controller_->activeCodec().metaWiresPerBeat();
}

std::unique_ptr<AdaptiveCodec>
AdaptiveCodec::make(const Config &config, std::string &err)
{
    std::unique_ptr<Controller> controller = Controller::make(config, err);
    if (!controller)
        return nullptr;
    std::string name = canonicalSpec(controller->config());
    return std::unique_ptr<AdaptiveCodec>(
        new AdaptiveCodec(std::move(controller), std::move(name)));
}

void
AdaptiveCodec::encodeBatchKernel(const TxBatch &in, EncodedBatch &out)
{
    // Evaluate before encoding so a switch lands exactly on the batch
    // boundary; observe after encoding so a batch can never influence
    // the choice that encodes it. The delegate's own (non-virtual)
    // encodeBatch runs, making the output byte-identical to the chosen
    // concrete codec encoding this batch standalone.
    controller_->maybeEvaluate();
    controller_->activeCodec().encodeBatch(in, out);
    controller_->observe(in);
}

void
AdaptiveCodec::decodeBatchKernel(const EncodedBatch &in, TxBatch &out)
{
    controller_->activeCodec().decodeBatch(in, out);
}

CodecPtr
tryMakeAdaptiveCodec(const std::string &spec, std::size_t bus_bytes,
                     std::string &err)
{
    Config config;
    if (!parseAdaptiveSpec(spec, bus_bytes, config, err))
        return nullptr;
    return AdaptiveCodec::make(config, err);
}

} // namespace bxt::adaptive
