#include "adaptive/controller.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/bitops.h"
#include "common/error.h"
#include "core/codec_factory.h"

namespace bxt::adaptive {

Config
defaultConfig(std::size_t bus_bytes)
{
    Config config;
    // Metadata-free ladder covering the data families the scenario engine
    // generates: universal for mixed strides, xor2/4/8 for element walks
    // at matching granularity, baseline for high-entropy payloads. All
    // share metaWiresPerBeat == 0, so any switch keeps the wire geometry.
    config.candidates = {"universal3+zdr", "xor2+zdr", "xor4+zdr",
                         "xor8+zdr", "baseline"};
    config.busBytes = bus_bytes;
    return config;
}

Controller::Controller(Config config) : config_(std::move(config)) {}

std::unique_ptr<Controller>
Controller::make(const Config &config, std::string &err)
{
    if (config.candidates.size() < 2) {
        err = "adaptive needs at least 2 candidates, got " +
              std::to_string(config.candidates.size());
        return nullptr;
    }
    if (config.window < 2) {
        err = "adaptive window must be >= 2";
        return nullptr;
    }
    if (config.period == 0) {
        err = "adaptive period must be >= 1";
        return nullptr;
    }
    if (!(config.hysteresisPct >= 0.0) || config.hysteresisPct >= 100.0) {
        err = "adaptive hysteresis must be in [0, 100)";
        return nullptr;
    }

    std::unique_ptr<Controller> controller(new Controller(config));
    controller->candidates_.reserve(config.candidates.size());
    unsigned meta_wires = 0;
    for (std::size_t i = 0; i < config.candidates.size(); ++i) {
        const std::string &candidate = config.candidates[i];
        if (isAdaptiveSpec(candidate)) {
            err = "adaptive candidates cannot nest adaptive specs: '" +
                  candidate + "'";
            return nullptr;
        }
        std::string stage_err;
        CodecPtr codec = tryMakeCodec(candidate, config.busBytes, stage_err);
        if (!codec) {
            err = "adaptive candidate '" + candidate + "': " + stage_err;
            return nullptr;
        }
        if (!codec->stateless()) {
            err = "adaptive candidate '" + candidate +
                  "' is stateful; measurement encodes would corrupt its "
                  "channel history";
            return nullptr;
        }
        if (i == 0) {
            meta_wires = codec->metaWiresPerBeat();
        } else if (codec->metaWiresPerBeat() != meta_wires) {
            err = "adaptive candidates disagree on metaWiresPerBeat ('" +
                  config.candidates[0] + "' uses " +
                  std::to_string(meta_wires) + ", '" + candidate +
                  "' uses " + std::to_string(codec->metaWiresPerBeat()) +
                  "); a switch must not change the wire geometry";
            return nullptr;
        }
        controller->candidates_.push_back(std::move(codec));
    }
    return controller;
}

bool
Controller::maybeEvaluate()
{
    if (evaluations_ == 0) {
        if (ring_.size() < config_.window)
            return false;
        return evaluate();
    }
    if (sinceEval_ < config_.period)
        return false;
    return evaluate();
}

void
Controller::observe(const TxView &batch)
{
    if (batch.count == 0 || batch.txBytes == 0)
        return;
    if (ring_.txBytes() != batch.txBytes) {
        ring_.reset(batch.txBytes);
        ring_.reserve(config_.window);
        ringNext_ = 0;
    }
    const std::size_t stride =
        std::max<std::size_t>(1, batch.count / config_.window);
    for (std::size_t i = 0; i < batch.count; i += stride) {
        const std::uint8_t *src = batch.data + i * batch.txBytes;
        if (ring_.size() < config_.window)
            ring_.append(src, 1);
        else
            std::memcpy(ring_.tx(ringNext_).data(), src, batch.txBytes);
        ringNext_ = (ringNext_ + 1) % config_.window;
    }
    observed_ += batch.count;
    sinceEval_ += batch.count;
}

bool
Controller::evaluate()
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double txs = static_cast<double>(ring_.size());
    last_costs_.assign(candidates_.size(), kInf);
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        try {
            candidates_[i]->encodeBatch(ring_, scratch_);
            last_costs_[i] = static_cast<double>(scratch_.payloadOnes() +
                                                 scratch_.metaOnes()) /
                             txs;
        } catch (const CodecSizeError &) {
            // Candidate cannot encode this geometry (base size does not
            // divide the transaction): disqualified at this window.
        }
    }
    ++evaluations_;
    sinceEval_ = 0;

    std::size_t best = active_;
    for (std::size_t i = 0; i < candidates_.size(); ++i)
        if (last_costs_[i] < last_costs_[best])
            best = i;
    if (best == active_)
        return false;

    // The very first evaluation replaces the arbitrary initial choice
    // without demanding a margin; afterwards the challenger must beat
    // the incumbent by the hysteresis margin to avoid flapping on
    // near-tied windows.
    if (evaluations_ > 1) {
        const double bar =
            last_costs_[active_] * (1.0 - config_.hysteresisPct / 100.0);
        if (!(last_costs_[best] < bar))
            return false;
    }
    active_ = best;
    ++epoch_;
    return true;
}

Sensors
Controller::sensors() const
{
    Sensors s;
    s.samples = ring_.size();
    if (ring_.empty() || ring_.txBytes() == 0)
        return s;

    const std::size_t tx_bytes = ring_.txBytes();
    std::uint64_t zero_words = 0;
    std::uint64_t total_words = 0;
    std::array<double, kToggleGranularities.size()> toggle_sum{};
    std::array<std::uint64_t, kToggleGranularities.size()> toggle_n{};
    std::uint64_t heavy_beats = 0;
    std::uint64_t total_beats = 0;
    const std::size_t bus_bytes = std::max<std::size_t>(1, config_.busBytes);

    for (std::size_t t = 0; t < ring_.size(); ++t) {
        const std::uint8_t *tx = ring_.tx(t).data();
        for (std::size_t off = 0; off + 4 <= tx_bytes; off += 4) {
            std::uint32_t word;
            std::memcpy(&word, tx + off, 4);
            zero_words += word == 0;
            ++total_words;
        }
        for (std::size_t g = 0; g < kToggleGranularities.size(); ++g) {
            const std::size_t gran = kToggleGranularities[g];
            if (tx_bytes < 2 * gran)
                continue;
            for (std::size_t off = gran; off + gran <= tx_bytes;
                 off += gran) {
                const std::size_t toggles =
                    hammingDistance(tx + off, tx + off - gran, gran);
                toggle_sum[g] += static_cast<double>(toggles) /
                                 static_cast<double>(gran * 8);
                ++toggle_n[g];
            }
        }
        for (std::size_t off = 0; off + bus_bytes <= tx_bytes;
             off += bus_bytes) {
            heavy_beats +=
                popcountBytes({tx + off, bus_bytes}) > bus_bytes * 8 / 2;
            ++total_beats;
        }
    }

    if (total_words != 0)
        s.zeroWordFrac = static_cast<double>(zero_words) /
                         static_cast<double>(total_words);
    for (std::size_t g = 0; g < kToggleGranularities.size(); ++g)
        if (toggle_n[g] != 0)
            s.toggleWeight[g] =
                toggle_sum[g] / static_cast<double>(toggle_n[g]);
    if (total_beats != 0)
        s.dbiWeight = static_cast<double>(heavy_beats) /
                      static_cast<double>(total_beats);
    return s;
}

void
Controller::reset()
{
    ring_ = TxBatch{};
    ringNext_ = 0;
    active_ = 0;
    epoch_ = 0;
    evaluations_ = 0;
    observed_ = 0;
    sinceEval_ = 0;
    last_costs_.clear();
    for (const CodecPtr &codec : candidates_)
        codec->reset();
}

} // namespace bxt::adaptive
