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
 *
 * The factory builds it for the spec `adaptive` from defaultConfig();
 * make() with any other Config is the in-process seam tests use.
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
    /** Build from @p config; nullptr + @p err when Controller::make
     *  refuses it. */
    static std::unique_ptr<AdaptiveCodec> make(const Config &config,
                                               std::string &err);

    /** The spec, not the choice: activeSpec() names that. */
    std::string name() const override { return "adaptive"; }

    /** Uniform across candidates — enforced at construction. */
    unsigned metaWiresPerBeat() const override { return meta_wires_; }

    /** The active candidate's; uniform like the wires. */
    std::size_t metaBitsPerTx(std::size_t tx_bytes) const override
    {
        return controller_->activeCodec().metaBitsPerTx(tx_bytes);
    }

    /** No: the controller observes each input batch after encoding it,
     *  and the candidate that encodes the next batch may be one that
     *  cannot run in place. */
    bool allowsInPlace() const override { return false; }

    /** Choice depends on observed history, so encodings do too. */
    bool stateless() const override { return false; }

    /** Drop window, counters, epoch, and candidate state. */
    void reset() override { controller_->reset(); }

    /** The selection engine (sensors/epoch/active spec introspection). */
    Controller &controller() { return *controller_; }
    const Controller &controller() const { return *controller_; }

  protected:
    void encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                           std::uint8_t *meta) override;
    void decodeBatchKernel(const EncodedView &in,
                           std::uint8_t *out) override;

  private:
    explicit AdaptiveCodec(std::unique_ptr<Controller> controller);

    std::unique_ptr<Controller> controller_;
    unsigned meta_wires_ = 0;
};

} // namespace bxt::adaptive

#endif // BXT_ADAPTIVE_ADAPTIVE_CODEC_H
