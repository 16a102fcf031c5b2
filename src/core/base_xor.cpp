#include "core/base_xor.h"

#include <cstring>

#include "common/bitops.h"
#include "common/error.h"
#include "core/simd/simd.h"
#include "core/zdr.h"

namespace bxt {

namespace {

/** ZDR constant C as a little-endian word: zdrConstantByte in byte n-1. */
constexpr std::uint32_t zdrConst32 = 0x40000000u;
constexpr std::uint64_t zdrConst64 = 0x4000000000000000ull;

/** Word-wide ZDR encode of one 4-byte lane. */
inline std::uint32_t
zdrEncode32(std::uint32_t in, std::uint32_t base)
{
    const std::uint32_t x = in ^ base;
    if (in == 0)
        return zdrConst32;
    return x == zdrConst32 ? base : x;
}

/** Word-wide ZDR decode of one 4-byte lane. */
inline std::uint32_t
zdrDecode32(std::uint32_t enc, std::uint32_t base)
{
    if (enc == zdrConst32)
        return 0;
    return enc == base ? (base ^ zdrConst32) : (enc ^ base);
}

/** Word-wide ZDR encode of one 8-byte lane. */
inline std::uint64_t
zdrEncode64(std::uint64_t in, std::uint64_t base)
{
    const std::uint64_t x = in ^ base;
    if (in == 0)
        return zdrConst64;
    return x == zdrConst64 ? base : x;
}

/** Word-wide ZDR decode of one 8-byte lane. */
inline std::uint64_t
zdrDecode64(std::uint64_t enc, std::uint64_t base)
{
    if (enc == zdrConst64)
        return 0;
    return enc == base ? (base ^ zdrConst64) : (enc ^ base);
}

} // namespace

BaseXorCodec::BaseXorCodec(std::size_t base_size, bool zdr,
                           bool adjacent_base)
    : base_size_(base_size), zdr_(zdr), adjacent_base_(adjacent_base)
{
    BXT_ASSERT(isPowerOfTwo(base_size));
    BXT_ASSERT(base_size >= 2 && base_size <= 16);
}

std::string
BaseXorCodec::name() const
{
    std::string n = "xor" + std::to_string(base_size_);
    if (zdr_)
        n += "+zdr";
    if (!adjacent_base_)
        n += "(fixed)";
    return n;
}

void
BaseXorCodec::requireTxSize(std::size_t tx_bytes) const
{
    if (tx_bytes % base_size_ != 0 || tx_bytes <= base_size_) {
        throw CodecSizeError(
            name() + ": " + std::to_string(tx_bytes) +
            "-byte transaction does not split into more than one " +
            std::to_string(base_size_) + "-byte element");
    }
}

void
BaseXorCodec::encodeBatchKernel(const TxBatch &in, EncodedBatch &out)
{
    requireTxSize(in.txBytes());
    out.configure(in.txBytes(), 0, 0);
    out.resizeForOverwrite(in.size());
    if (in.empty())
        return;

    const std::size_t tx_bytes = in.txBytes();
    const std::size_t elements = tx_bytes / base_size_;
    const std::uint8_t *src = in.data();
    std::uint8_t *dst = out.payloadData();
    const simd::KernelTable &ops = simd::ops();

    // Adjacent-base encode is elementwise out[e] = f(in[e], in[e-1]), so
    // the entire plane vectorizes as one shifted range op: the output at
    // byte offset base_size onward is f(input there, input one element
    // earlier). Lanes whose "previous element" crosses a transaction
    // boundary compute garbage and are fixed up below by the per-
    // transaction base-element passthrough copy, which together with the
    // range op covers every output byte (no seeding plane memcpy).
    if (adjacent_base_ && (!zdr_ || base_size_ <= 8)) {
        const std::size_t shifted = in.planeBytes() - base_size_;
        if (!zdr_)
            ops.xorRange(dst + base_size_, src + base_size_, src, shifted);
        else if (base_size_ == 2)
            ops.zdrEncode16(dst + base_size_, src + base_size_, src,
                            shifted);
        else if (base_size_ == 4)
            ops.zdrEncode32(dst + base_size_, src + base_size_, src,
                            shifted);
        else
            ops.zdrEncode64(dst + base_size_, src + base_size_, src,
                            shifted);
        // Fixed-width word copies: base_size_ is 2/4/8 here, and a
        // variable-length memcpy per transaction would cost a libc call
        // for every 32-byte row.
        if (base_size_ == 2) {
            for (std::size_t i = 0; i < in.size(); ++i)
                std::memcpy(dst + i * tx_bytes, src + i * tx_bytes, 2);
        } else if (base_size_ == 4) {
            for (std::size_t i = 0; i < in.size(); ++i)
                std::memcpy(dst + i * tx_bytes, src + i * tx_bytes, 4);
        } else if (base_size_ == 8) {
            for (std::size_t i = 0; i < in.size(); ++i)
                std::memcpy(dst + i * tx_bytes, src + i * tx_bytes, 8);
        } else {
            for (std::size_t i = 0; i < in.size(); ++i)
                std::memcpy(dst + i * tx_bytes, src + i * tx_bytes, 16);
        }
        return;
    }

    // Fixed-base (and 16-byte-lane ZDR) forms keep the word path: the
    // base repeats per transaction, which the flat range primitives do
    // not express.
    std::memcpy(dst, src, in.planeBytes());
    for (std::size_t i = 0; i < in.size();
         ++i, src += tx_bytes, dst += tx_bytes) {
        for (std::size_t e = 1; e < elements; ++e) {
            const std::size_t off = e * base_size_;
            const std::size_t base_off =
                adjacent_base_ ? off - base_size_ : 0;
            if (!zdr_) {
                xorBytes(dst + off, src + base_off, base_size_);
            } else if (base_size_ == 4) {
                storeWord32(dst + off,
                            zdrEncode32(loadWord32(src + off),
                                        loadWord32(src + base_off)));
            } else if (base_size_ == 8) {
                storeWord64(dst + off,
                            zdrEncode64(loadWord64(src + off),
                                        loadWord64(src + base_off)));
            } else {
                zdrLaneEncode(dst + off, src + off, src + base_off,
                              base_size_);
            }
        }
    }
}

void
BaseXorCodec::decodeBatchKernel(const EncodedBatch &in, TxBatch &out)
{
    requireTxSize(in.txBytes());
    out.reset(in.txBytes());
    out.resizeForOverwrite(in.size());
    if (in.size() == 0)
        return;

    const std::size_t tx_bytes = in.txBytes();
    const std::size_t elements = tx_bytes / base_size_;
    std::memcpy(out.data(), in.payloadData(), in.payloadBytes());

    const std::uint8_t *src = in.payloadData();
    std::uint8_t *dst = out.data();
    for (std::size_t i = 0; i < in.size();
         ++i, src += tx_bytes, dst += tx_bytes) {
        // Left to right: bases come from the already-decoded output.
        // This serial dependency (element e needs the decoded e-1) is
        // why decode stays on the word path at every dispatch level.
        for (std::size_t e = 1; e < elements; ++e) {
            const std::size_t off = e * base_size_;
            const std::size_t base_off =
                adjacent_base_ ? off - base_size_ : 0;
            if (!zdr_) {
                xorBytes(dst + off, dst + base_off, base_size_);
            } else if (base_size_ == 4) {
                storeWord32(dst + off,
                            zdrDecode32(loadWord32(src + off),
                                        loadWord32(dst + base_off)));
            } else if (base_size_ == 8) {
                storeWord64(dst + off,
                            zdrDecode64(loadWord64(src + off),
                                        loadWord64(dst + base_off)));
            } else {
                zdrLaneDecode(dst + off, src + off, dst + base_off,
                              base_size_);
            }
        }
    }
}

} // namespace bxt
