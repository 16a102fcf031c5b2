/**
 * @file
 * AdaptiveCodec: the Codec face of the adaptive Controller. Every
 * encoded batch re-evaluates the choice at the batch boundary,
 * delegates to the active concrete codec's own batch path (so the
 * output is byte-identical to that codec run standalone), then feeds
 * the batch into the controller's sampling window. Decode never
 * evaluates: within one epoch, encode → decode round-trips through the
 * same concrete codec, and cross-epoch decodes go through the concrete
 * spec the server announced alongside the payload.
 */

#ifndef BXT_ADAPTIVE_ADAPTIVE_CODEC_H
#define BXT_ADAPTIVE_ADAPTIVE_CODEC_H

#include <memory>
#include <string>

#include "adaptive/controller.h"
#include "core/codec.h"

namespace bxt::adaptive {

class AdaptiveCodec : public Codec
{
  public:
    /** Build from a parsed Config; nullptr + @p err on bad candidates. */
    static std::unique_ptr<AdaptiveCodec> make(const Config &config,
                                               std::string &err);

    /** The canonical adaptive spec (knobs included), not the choice. */
    std::string name() const override { return name_; }

    /** Uniform across candidates — enforced at construction. */
    unsigned metaWiresPerBeat() const override { return meta_wires_; }

    /** Choice depends on observed history, so encodings do too. */
    bool stateless() const override { return false; }

    /** Drop window, counters, epoch, and candidate state. */
    void reset() override { controller_->reset(); }

    /** The selection engine (sensors/epoch/active spec introspection). */
    Controller &controller() { return *controller_; }
    const Controller &controller() const { return *controller_; }

  protected:
    void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) override;
    void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) override;

  private:
    AdaptiveCodec(std::unique_ptr<Controller> controller,
                  std::string name);

    std::unique_ptr<Controller> controller_;
    std::string name_;
    unsigned meta_wires_ = 0;
};

/**
 * Factory hook used by tryMakeCodec: build an AdaptiveCodec from a raw
 * `adaptive[:...]` spec string. Returns nullptr with @p err set on a
 * malformed spec or invalid candidate set.
 */
CodecPtr tryMakeAdaptiveCodec(const std::string &spec,
                              std::size_t bus_bytes, std::string &err);

} // namespace bxt::adaptive

#endif // BXT_ADAPTIVE_ADAPTIVE_CODEC_H
