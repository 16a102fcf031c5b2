#include "adaptive/controller.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/bitops.h"
#include "common/error.h"
#include "core/codec_factory.h"

namespace bxt::adaptive {

namespace {

bool
parseSizeKnob(const std::string &value, std::size_t &out)
{
    if (value.empty())
        return false;
    std::size_t parsed = 0;
    for (const char c : value) {
        if (c < '0' || c > '9')
            return false;
        parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
        if (parsed > 1'000'000'000)
            return false;
    }
    out = parsed;
    return true;
}

bool
parsePctKnob(const std::string &value, double &out)
{
    if (value.empty())
        return false;
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size() || !std::isfinite(parsed))
        return false;
    out = parsed;
    return true;
}

/** Format a percentage without trailing zeros ("10", "7.5"). */
std::string
formatPct(double pct)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", pct);
    return buf;
}

} // namespace

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

bool
isAdaptiveSpec(std::string_view spec)
{
    return spec == "adaptive" || spec.starts_with("adaptive:");
}

bool
parseAdaptiveSpec(const std::string &spec, std::size_t bus_bytes,
                  Config &out, std::string &err)
{
    if (!isAdaptiveSpec(spec)) {
        err = "not an adaptive spec: '" + spec + "'";
        return false;
    }
    const Config defaults = defaultConfig(bus_bytes);
    out = Config{};
    out.busBytes = bus_bytes;
    out.window = defaults.window;
    out.period = defaults.period;
    out.hysteresisPct = defaults.hysteresisPct;

    if (spec == "adaptive") {
        out.candidates = defaults.candidates;
        return true;
    }

    const std::string body = spec.substr(std::string("adaptive:").size());
    std::size_t start = 0;
    while (start <= body.size()) {
        std::size_t end = body.find(',', start);
        if (end == std::string::npos)
            end = body.size();
        const std::string item = body.substr(start, end - start);
        start = end + 1;
        if (item.empty()) {
            err = "adaptive spec has an empty item: '" + spec + "'";
            return false;
        }
        if (item.rfind("w=", 0) == 0) {
            if (!parseSizeKnob(item.substr(2), out.window) ||
                out.window < 2) {
                err = "adaptive window knob '" + item +
                      "' wants w=N with N >= 2";
                return false;
            }
        } else if (item.rfind("p=", 0) == 0) {
            if (!parseSizeKnob(item.substr(2), out.period) ||
                out.period == 0) {
                err = "adaptive period knob '" + item +
                      "' wants p=N with N >= 1";
                return false;
            }
        } else if (item.rfind("h=", 0) == 0) {
            if (!parsePctKnob(item.substr(2), out.hysteresisPct) ||
                out.hysteresisPct < 0.0 || out.hysteresisPct >= 100.0) {
                err = "adaptive hysteresis knob '" + item +
                      "' wants h=PCT with 0 <= PCT < 100";
                return false;
            }
        } else if (item.find('=') != std::string::npos) {
            err = "unknown adaptive knob '" + item +
                  "' (knobs: w=N, p=N, h=PCT)";
            return false;
        } else {
            out.candidates.push_back(item);
        }
        if (end == body.size())
            break;
    }
    if (out.candidates.empty())
        out.candidates = defaults.candidates;
    return true;
}

std::string
canonicalSpec(const Config &config)
{
    std::string spec = "adaptive:";
    for (std::size_t i = 0; i < config.candidates.size(); ++i) {
        if (i != 0)
            spec += ',';
        spec += config.candidates[i];
    }
    spec += ",w=" + std::to_string(config.window);
    spec += ",p=" + std::to_string(config.period);
    spec += ",h=" + formatPct(config.hysteresisPct);
    return spec;
}

Controller::Controller(Config config) : config_(std::move(config)) {}

std::unique_ptr<Controller>
Controller::make(const Config &config, std::string &err)
{
    if (config.candidates.size() < 2) {
        err = "adaptive spec needs at least 2 candidates, got " +
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
Controller::observe(const TxBatch &batch)
{
    if (batch.empty() || batch.txBytes() == 0)
        return;
    if (ring_.txBytes() != batch.txBytes()) {
        ring_.reset(batch.txBytes());
        ring_.reserve(config_.window);
        ringNext_ = 0;
    }
    const std::size_t stride =
        std::max<std::size_t>(1, batch.size() / config_.window);
    for (std::size_t i = 0; i < batch.size(); i += stride) {
        const std::span<const std::uint8_t> src = batch.tx(i);
        if (ring_.size() < config_.window) {
            ring_.append(src.data(), 1);
        } else {
            std::memcpy(ring_.tx(ringNext_).data(), src.data(),
                        src.size());
        }
        ringNext_ = (ringNext_ + 1) % config_.window;
    }
    observed_ += batch.size();
    sinceEval_ += batch.size();
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
