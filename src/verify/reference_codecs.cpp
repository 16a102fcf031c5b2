#include "verify/reference_codecs.h"

#include "common/error.h"

namespace bxt::verify {

std::size_t
refPopcountByte(std::uint8_t value)
{
    std::size_t count = 0;
    for (int bit = 0; bit < 8; ++bit) {
        if ((value >> bit) & 1)
            ++count;
    }
    return count;
}

namespace {

using Bytes = std::vector<std::uint8_t>;

bool
refAllZero(const Bytes &bytes)
{
    for (std::uint8_t b : bytes) {
        if (b != 0)
            return false;
    }
    return true;
}

Bytes
slice(const Bytes &in, std::size_t offset, std::size_t n)
{
    Bytes out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = in[offset + i];
    return out;
}

void
place(Bytes &out, std::size_t offset, const Bytes &lane)
{
    for (std::size_t i = 0; i < lane.size(); ++i)
        out[offset + i] = lane[i];
}

} // namespace

Bytes
refXorLane(const Bytes &in, const Bytes &base)
{
    BXT_ASSERT(in.size() == base.size());
    Bytes out(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        out[i] = static_cast<std::uint8_t>(in[i] ^ base[i]);
    return out;
}

Bytes
refZdrConstant(std::size_t n)
{
    Bytes c(n, 0);
    c[n - 1] = 0x40;
    return c;
}

Bytes
refZdrLaneEncode(const Bytes &in, const Bytes &base)
{
    // Paper §IV-A: a zero element is remapped to the low-weight constant C;
    // the element whose plain XOR encoding *would have been* C (that is,
    // in == base ⊕ C) takes over the zero element's old output (the base
    // itself); everything else is plain XOR. Swapping two outputs of a
    // bijection keeps it a bijection, so no metadata is needed.
    if (refAllZero(in))
        return refZdrConstant(in.size());
    if (refXorLane(in, base) == refZdrConstant(in.size()))
        return base;
    return refXorLane(in, base);
}

Bytes
refZdrLaneDecode(const Bytes &in, const Bytes &base)
{
    if (in == refZdrConstant(in.size()))
        return Bytes(in.size(), 0);
    if (in == base)
        return refXorLane(base, refZdrConstant(in.size()));
    return refXorLane(in, base);
}

RefEncoded
RefIdentityCodec::encode(const Bytes &in)
{
    RefEncoded enc;
    enc.payload = in;
    return enc;
}

Bytes
RefIdentityCodec::decode(const RefEncoded &enc)
{
    return enc.payload;
}

RefBaseXorCodec::RefBaseXorCodec(std::size_t base_size, bool zdr,
                                 bool adjacent_base)
    : base_size_(base_size), zdr_(zdr), adjacent_base_(adjacent_base)
{
}

std::string
RefBaseXorCodec::name() const
{
    std::string n = "xor" + std::to_string(base_size_);
    if (zdr_)
        n += "+zdr";
    if (!adjacent_base_)
        n += "(fixed)";
    return n;
}

RefEncoded
RefBaseXorCodec::encode(const Bytes &in)
{
    BXT_ASSERT(in.size() % base_size_ == 0 && in.size() > base_size_);
    const std::size_t elements = in.size() / base_size_;
    RefEncoded enc;
    enc.payload.resize(in.size());

    // Element 0 (the base element) passes through unchanged.
    place(enc.payload, 0, slice(in, 0, base_size_));
    for (std::size_t e = 1; e < elements; ++e) {
        const Bytes element = slice(in, e * base_size_, base_size_);
        const Bytes base = adjacent_base_
                               ? slice(in, (e - 1) * base_size_, base_size_)
                               : slice(in, 0, base_size_);
        place(enc.payload, e * base_size_,
              zdr_ ? refZdrLaneEncode(element, base)
                   : refXorLane(element, base));
    }
    return enc;
}

Bytes
RefBaseXorCodec::decode(const RefEncoded &enc)
{
    BXT_ASSERT(enc.payload.size() % base_size_ == 0);
    const std::size_t elements = enc.payload.size() / base_size_;
    Bytes out(enc.payload.size());

    place(out, 0, slice(enc.payload, 0, base_size_));
    for (std::size_t e = 1; e < elements; ++e) {
        const Bytes encoded = slice(enc.payload, e * base_size_, base_size_);
        // The base is the already-decoded original value of the left
        // neighbour (or element 0 in fixed-base mode).
        const Bytes base = adjacent_base_
                               ? slice(out, (e - 1) * base_size_, base_size_)
                               : slice(out, 0, base_size_);
        place(out, e * base_size_,
              zdr_ ? refZdrLaneDecode(encoded, base)
                   : refXorLane(encoded, base));
    }
    return out;
}

RefUniversalXorCodec::RefUniversalXorCodec(unsigned stages, bool zdr,
                                           std::size_t zdr_lane)
    : stages_(stages), zdr_(zdr), zdr_lane_(zdr_lane)
{
}

std::string
RefUniversalXorCodec::name() const
{
    std::string n = "universal" + std::to_string(stages_);
    if (zdr_)
        n += "+zdr";
    return n;
}

unsigned
RefUniversalXorCodec::clampedStages(std::size_t size) const
{
    // The effective base after s stages is size >> s bytes; stop before it
    // would fold below 2 bytes.
    unsigned usable = 0;
    while ((size >> (usable + 1)) >= 2)
        ++usable;
    return stages_ < usable ? stages_ : usable;
}

RefEncoded
RefUniversalXorCodec::encode(const Bytes &in)
{
    RefEncoded enc;
    enc.payload = in;
    const unsigned stages = clampedStages(in.size());
    for (unsigned s = 0; s < stages; ++s) {
        // Stage s folds the right half of the leading size>>s byte region
        // onto its left half; later stages recurse into the left half only.
        const std::size_t half = in.size() >> (s + 1);
        std::size_t lane = zdr_lane_ < half ? zdr_lane_ : half;
        for (std::size_t off = 0; off < half; off += lane) {
            const Bytes right = slice(enc.payload, half + off, lane);
            const Bytes left = slice(enc.payload, off, lane);
            place(enc.payload, half + off,
                  zdr_ ? refZdrLaneEncode(right, left)
                       : refXorLane(right, left));
        }
    }
    return enc;
}

Bytes
RefUniversalXorCodec::decode(const RefEncoded &enc)
{
    Bytes out = enc.payload;
    const unsigned stages = clampedStages(out.size());
    for (unsigned s = stages; s-- > 0;) {
        const std::size_t half = out.size() >> (s + 1);
        std::size_t lane = zdr_lane_ < half ? zdr_lane_ : half;
        for (std::size_t off = 0; off < half; off += lane) {
            const Bytes right = slice(out, half + off, lane);
            const Bytes left = slice(out, off, lane);
            place(out, half + off,
                  zdr_ ? refZdrLaneDecode(right, left)
                       : refXorLane(right, left));
        }
    }
    return out;
}

RefDbiCodec::RefDbiCodec(std::size_t group_bytes, std::size_t bus_bytes)
    : group_bytes_(group_bytes), bus_bytes_(bus_bytes)
{
}

std::string
RefDbiCodec::name() const
{
    return "dbi" + std::to_string(group_bytes_);
}

unsigned
RefDbiCodec::metaWiresPerBeat() const
{
    return static_cast<unsigned>(bus_bytes_ / group_bytes_);
}

RefEncoded
RefDbiCodec::encode(const Bytes &in)
{
    BXT_ASSERT(in.size() % bus_bytes_ == 0);
    RefEncoded enc;
    enc.payload = in;
    enc.metaWiresPerBeat = metaWiresPerBeat();

    const std::size_t beats = in.size() / bus_bytes_;
    const std::size_t half_bits = group_bytes_ * 8 / 2;
    for (std::size_t beat = 0; beat < beats; ++beat) {
        for (std::size_t g = 0; g < bus_bytes_; g += group_bytes_) {
            const std::size_t start = beat * bus_bytes_ + g;
            std::size_t ones = 0;
            for (std::size_t i = 0; i < group_bytes_; ++i)
                ones += refPopcountByte(enc.payload[start + i]);
            const bool invert = ones > half_bits;
            if (invert) {
                for (std::size_t i = 0; i < group_bytes_; ++i)
                    enc.payload[start + i] = static_cast<std::uint8_t>(
                        ~enc.payload[start + i]);
            }
            enc.meta.push_back(invert ? 1 : 0);
        }
    }
    return enc;
}

Bytes
RefDbiCodec::decode(const RefEncoded &enc)
{
    BXT_ASSERT(enc.payload.size() % bus_bytes_ == 0);
    Bytes out = enc.payload;
    const std::size_t beats = out.size() / bus_bytes_;
    BXT_ASSERT(enc.meta.size() == beats * metaWiresPerBeat());

    std::size_t meta_index = 0;
    for (std::size_t beat = 0; beat < beats; ++beat) {
        for (std::size_t g = 0; g < bus_bytes_; g += group_bytes_) {
            const std::size_t start = beat * bus_bytes_ + g;
            if (enc.meta[meta_index++]) {
                for (std::size_t i = 0; i < group_bytes_; ++i)
                    out[start + i] = static_cast<std::uint8_t>(~out[start + i]);
            }
        }
    }
    return out;
}

RefPipelineCodec::RefPipelineCodec(std::vector<RefCodecPtr> stages)
    : stages_(std::move(stages))
{
    BXT_ASSERT(!stages_.empty());
}

std::string
RefPipelineCodec::name() const
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
RefPipelineCodec::metaWiresPerBeat() const
{
    unsigned wires = 0;
    for (const auto &stage : stages_)
        wires += stage->metaWiresPerBeat();
    return wires;
}

RefEncoded
RefPipelineCodec::encode(const Bytes &in)
{
    std::vector<RefEncoded> stage_encs;
    Bytes payload = in;
    for (auto &stage : stages_) {
        stage_encs.push_back(stage->encode(payload));
        payload = stage_encs.back().payload;
    }

    RefEncoded result;
    result.payload = payload;
    result.metaWiresPerBeat = metaWiresPerBeat();
    if (result.metaWiresPerBeat == 0)
        return result;

    // Metadata is serialized per beat in stage order (every stage sees the
    // same beat count because payload size is preserved).
    std::size_t beats = 0;
    for (const RefEncoded &enc : stage_encs) {
        if (enc.metaWiresPerBeat > 0) {
            const std::size_t stage_beats =
                enc.meta.size() / enc.metaWiresPerBeat;
            BXT_ASSERT(beats == 0 || beats == stage_beats);
            beats = stage_beats;
        }
    }
    for (std::size_t beat = 0; beat < beats; ++beat) {
        for (const RefEncoded &enc : stage_encs) {
            for (unsigned w = 0; w < enc.metaWiresPerBeat; ++w)
                result.meta.push_back(enc.meta[beat * enc.metaWiresPerBeat + w]);
        }
    }
    return result;
}

Bytes
RefPipelineCodec::decode(const RefEncoded &enc)
{
    // Split the interleaved metadata back into per-stage streams.
    std::vector<RefEncoded> stage_encs(stages_.size());
    unsigned total = 0;
    for (std::size_t s = 0; s < stages_.size(); ++s) {
        stage_encs[s].metaWiresPerBeat = stages_[s]->metaWiresPerBeat();
        total += stage_encs[s].metaWiresPerBeat;
    }
    BXT_ASSERT(total == enc.metaWiresPerBeat);
    const std::size_t beats = total == 0 ? 0 : enc.meta.size() / total;
    for (std::size_t beat = 0; beat < beats; ++beat) {
        std::size_t offset = beat * total;
        for (std::size_t s = 0; s < stages_.size(); ++s) {
            for (unsigned w = 0; w < stage_encs[s].metaWiresPerBeat; ++w)
                stage_encs[s].meta.push_back(enc.meta[offset + w]);
            offset += stage_encs[s].metaWiresPerBeat;
        }
    }

    Bytes payload = enc.payload;
    for (std::size_t s = stages_.size(); s-- > 0;) {
        stage_encs[s].payload = payload;
        payload = stages_[s]->decode(stage_encs[s]);
    }
    return payload;
}

namespace {

std::vector<std::string>
refSplit(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            parts.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return parts;
}

/** Parse one stage token; nullptr when outside the reference set. */
RefCodecPtr
makeRefStage(const std::string &token, std::size_t bus_bytes)
{
    const std::vector<std::string> parts = refSplit(token, '+');
    const std::string &head = parts[0];

    bool zdr = false;
    bool fixed = false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        if (parts[i] == "zdr")
            zdr = true;
        else if (parts[i] == "fixed")
            fixed = true;
        else
            return nullptr;
    }

    auto suffix = [&](std::size_t prefix_len, long fallback) -> long {
        if (head.size() == prefix_len)
            return fallback;
        long value = 0;
        for (std::size_t i = prefix_len; i < head.size(); ++i) {
            if (head[i] < '0' || head[i] > '9')
                return -1;
            value = value * 10 + (head[i] - '0');
        }
        return value;
    };

    if (head == "baseline" || head == "identity")
        return std::make_unique<RefIdentityCodec>();
    if (head.rfind("xor", 0) == 0) {
        const long n = suffix(3, -1);
        if (n < 2)
            return nullptr;
        return std::make_unique<RefBaseXorCodec>(
            static_cast<std::size_t>(n), zdr, !fixed);
    }
    if (head.rfind("universal", 0) == 0) {
        const long stages = suffix(9, 3);
        if (stages < 1)
            return nullptr;
        return std::make_unique<RefUniversalXorCodec>(
            static_cast<unsigned>(stages), zdr);
    }
    // dbi-ac and bd are outside the paper's scheme set: no reference model.
    if (head.rfind("dbi-ac", 0) == 0 || head == "bd")
        return nullptr;
    if (head.rfind("dbi", 0) == 0) {
        const long g = suffix(3, -1);
        if (g < 1)
            return nullptr;
        return std::make_unique<RefDbiCodec>(static_cast<std::size_t>(g),
                                             bus_bytes);
    }
    return nullptr;
}

} // namespace

RefCodecPtr
makeRefCodec(const std::string &spec, std::size_t bus_bytes)
{
    const std::vector<std::string> tokens = refSplit(spec, '|');
    if (tokens.size() == 1)
        return makeRefStage(tokens[0], bus_bytes);

    std::vector<RefCodecPtr> stages;
    for (const auto &token : tokens) {
        RefCodecPtr stage = makeRefStage(token, bus_bytes);
        if (stage == nullptr)
            return nullptr;
        stages.push_back(std::move(stage));
    }
    return std::make_unique<RefPipelineCodec>(std::move(stages));
}

} // namespace bxt::verify
