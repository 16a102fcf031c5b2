#include "verify/invariants.h"

#include <algorithm>

#include "core/codec_factory.h"

namespace bxt::verify {
namespace {

std::string
bytesHex(const std::uint8_t *data, std::size_t n)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(n * 2);
    for (std::size_t i = 0; i < n; ++i) {
        out += digits[data[i] >> 4];
        out += digits[data[i] & 0xf];
    }
    return out;
}

std::string
bytesHex(const std::vector<std::uint8_t> &bytes)
{
    return bytesHex(bytes.data(), bytes.size());
}

std::string
bitsString(const std::vector<std::uint8_t> &bits)
{
    if (bits.empty())
        return "-";
    std::string out;
    out.reserve(bits.size());
    for (std::uint8_t b : bits)
        out += b ? '1' : '0';
    return out;
}

/** Naive per-bit popcount, independent of common/bitops.h. */
std::size_t
naiveOnes(const std::uint8_t *data, std::size_t n)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (int bit = 0; bit < 8; ++bit)
            count += (data[i] >> bit) & 1;
    }
    return count;
}

std::string
statsString(const BusStats &s)
{
    return "ones=" + std::to_string(s.dataOnes) +
           " toggles=" + std::to_string(s.dataToggles) +
           " metaOnes=" + std::to_string(s.metaOnes) +
           " metaToggles=" + std::to_string(s.metaToggles) +
           " bits=" + std::to_string(s.dataBits) +
           " metaBits=" + std::to_string(s.metaBits);
}

} // namespace

std::size_t
trailingDbiGroupBytes(const std::string &spec)
{
    const std::size_t bar = spec.rfind('|');
    const std::string tail =
        bar == std::string::npos ? spec : spec.substr(bar + 1);
    if (tail.rfind("dbi", 0) != 0 || tail.rfind("dbi-ac", 0) == 0)
        return 0;
    std::size_t group = 0;
    for (std::size_t i = 3; i < tail.size(); ++i) {
        if (tail[i] < '0' || tail[i] > '9')
            return 0;
        group = group * 10 + static_cast<std::size_t>(tail[i] - '0');
    }
    return group;
}

DifferentialChecker::DifferentialChecker(const std::string &spec,
                                         unsigned data_wires,
                                         double idle_fraction)
    : DifferentialChecker(makeCodec(spec, data_wires / 8), spec, data_wires,
                          idle_fraction)
{
}

DifferentialChecker::DifferentialChecker(CodecPtr core,
                                         const std::string &spec,
                                         unsigned data_wires,
                                         double idle_fraction)
    : spec_(spec), data_wires_(data_wires), core_(std::move(core)),
      ref_(makeRefCodec(spec, data_wires / 8)),
      bus_(data_wires, core_->metaWiresPerBeat(), idle_fraction),
      ref_bus_(data_wires, core_->metaWiresPerBeat(), idle_fraction),
      tail_dbi_group_(trailingDbiGroupBytes(spec))
{
}

std::optional<Violation>
DifferentialChecker::check(const Transaction &tx)
{
    ++checked_;
    const std::string context =
        "spec " + spec_ + " wires " + std::to_string(data_wires_) + " tx " +
        bytesHex(tx.data(), tx.size());

    // 1. The optimized encode path (a one-transaction batch through the
    //    codec's kernel), then size preservation (codes, not compressors:
    //    DRAM stores the encoded form in place).
    const Encoded enc = core_->encode(tx);
    if (enc.payload.size() != tx.size()) {
        return Violation{"payload-size",
                         context + " encoded size " +
                             std::to_string(enc.payload.size())};
    }

    // 2. Core bijectivity: decode must restore the exact input.
    const Transaction decoded = core_->decode(enc);
    if (!(decoded == tx)) {
        return Violation{"core-roundtrip",
                         context + " decoded " +
                             bytesHex(decoded.data(), decoded.size())};
    }

    // 3. Core vs reference equality of the full encoding.
    if (ref_ != nullptr) {
        const std::vector<std::uint8_t> input(tx.data(),
                                              tx.data() + tx.size());
        const RefEncoded ref_enc = ref_->encode(input);
        if (!std::equal(ref_enc.payload.begin(), ref_enc.payload.end(),
                        enc.payload.data(),
                        enc.payload.data() + enc.payload.size())) {
            return Violation{"core-vs-ref-payload",
                             context + " core " +
                                 bytesHex(enc.payload.data(),
                                          enc.payload.size()) +
                                 " ref " + bytesHex(ref_enc.payload)};
        }
        if (ref_enc.meta != enc.meta ||
            ref_enc.metaWiresPerBeat != enc.metaWiresPerBeat) {
            return Violation{"core-vs-ref-meta",
                             context + " core " + bitsString(enc.meta) +
                                 "/" + std::to_string(enc.metaWiresPerBeat) +
                                 " ref " + bitsString(ref_enc.meta) + "/" +
                                 std::to_string(ref_enc.metaWiresPerBeat)};
        }
        if (ref_->decode(ref_enc) != input) {
            return Violation{"ref-roundtrip",
                             context + " (reference model is not a bijection "
                                       "on this input)"};
        }
    }

    // 4. DBI-DC weight bound on the transmitted payload.
    if (tail_dbi_group_ > 0) {
        const std::size_t half_bits = tail_dbi_group_ * 8 / 2;
        for (std::size_t off = 0; off + tail_dbi_group_ <= enc.payload.size();
             off += tail_dbi_group_) {
            const std::size_t ones =
                naiveOnes(enc.payload.data() + off, tail_dbi_group_);
            if (ones > half_bits) {
                return Violation{"dbi-weight-bound",
                                 context + " group at byte " +
                                     std::to_string(off) + " carries " +
                                     std::to_string(ones) + " ones > " +
                                     std::to_string(half_bits)};
            }
        }
    }

    // 5. Word-wide Bus vs bit-level RefBus, per-delta and cumulative.
    const BusStats core_delta = bus_.transmit(enc);
    const std::vector<std::uint8_t> payload(
        enc.payload.data(), enc.payload.data() + enc.payload.size());
    const BusStats ref_delta =
        ref_bus_.transmit(payload, enc.meta, enc.metaWiresPerBeat);
    if (!(core_delta == ref_delta)) {
        return Violation{"bus-vs-ref-delta",
                         context + " core [" + statsString(core_delta) +
                             "] ref [" + statsString(ref_delta) + "]"};
    }
    if (!(bus_.stats() == ref_bus_.stats())) {
        return Violation{"bus-vs-ref-cumulative",
                         context + " core [" + statsString(bus_.stats()) +
                             "] ref [" + statsString(ref_bus_.stats()) + "]"};
    }
    return std::nullopt;
}

std::optional<Violation>
checkZdrLaneInvolution(const std::vector<std::uint8_t> &in,
                       const std::vector<std::uint8_t> &base)
{
    const std::vector<std::uint8_t> constant = refZdrConstant(in.size());
    const auto swap_symbols =
        [&](const std::vector<std::uint8_t> &y) -> std::vector<std::uint8_t> {
        if (y == base)
            return constant;
        if (y == constant)
            return base;
        return y;
    };
    const std::string context =
        "lane " + bytesHex(in) + " base " + bytesHex(base);

    const std::vector<std::uint8_t> plain = refXorLane(in, base);
    if (swap_symbols(swap_symbols(plain)) != plain) {
        return Violation{"zdr-swap-involution",
                         context + " σ∘σ != id on " + bytesHex(plain)};
    }
    const std::vector<std::uint8_t> zdr = refZdrLaneEncode(in, base);
    if (zdr != swap_symbols(plain)) {
        return Violation{"zdr-equals-swapped-xor",
                         context + " zdr " + bytesHex(zdr) + " σ(xor) " +
                             bytesHex(swap_symbols(plain))};
    }
    if (refZdrLaneDecode(zdr, base) != in) {
        return Violation{"zdr-lane-roundtrip",
                         context + " decode gives " +
                             bytesHex(refZdrLaneDecode(zdr, base))};
    }
    return std::nullopt;
}

} // namespace bxt::verify
