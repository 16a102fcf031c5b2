#include "core/base_xor.h"

#include <cstring>

#include "common/bitops.h"
#include "common/error.h"
#include "core/simd/kernel_common.h"
#include "core/simd/simd.h"

namespace bxt {

namespace {

/**
 * Fixed-base Base+XOR in place: every element remaps against element 0,
 * which passes through, so both directions are elementwise within a
 * transaction.
 */
void
fixedBaseRemap(std::uint8_t *plane, std::size_t count, std::size_t tx_bytes,
               std::size_t base_size, bool zdr, bool encode)
{
    const std::size_t lane = zdr ? base_size : 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint8_t *tx = plane + i * tx_bytes;
        for (std::size_t off = base_size; off < tx_bytes; off += base_size)
            simd::detail::WordLanes::remap(tx + off, tx + off, tx,
                                           base_size, lane, encode);
    }
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
BaseXorCodec::encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                                std::uint8_t *)
{
    requireTxSize(in.txBytes);
    if (in.count == 0)
        return;

    const std::size_t tx_bytes = in.txBytes;
    const std::uint8_t *src = in.data;
    std::uint8_t *dst = payload;
    const simd::KernelTable &ops = simd::ops();

    if (!adjacent_base_) {
        if (dst != src)
            std::memcpy(dst, src, in.bytes());
        fixedBaseRemap(dst, in.count, tx_bytes, base_size_, zdr_,
                       /*encode=*/true);
        return;
    }

    // Adjacent-base encode is elementwise out[e] = f(in[e], in[e-1]), so
    // the entire plane vectorizes as one shifted range op: the output at
    // byte offset base_size onward is f(input there, input one element
    // earlier). Lanes whose "previous element" crosses a transaction
    // boundary compute garbage and are fixed up below by the per-
    // transaction base-element passthrough copy, which together with the
    // range op covers every output byte (no seeding plane memcpy).
    const std::size_t shifted = in.bytes() - base_size_;
    if (!zdr_)
        ops.xorRange(dst + base_size_, src + base_size_, src, shifted);
    else if (base_size_ == 2)
        ops.zdrEncode16(dst + base_size_, src + base_size_, src, shifted);
    else if (base_size_ == 4)
        ops.zdrEncode32(dst + base_size_, src + base_size_, src, shifted);
    else if (base_size_ == 8)
        ops.zdrEncode64(dst + base_size_, src + base_size_, src, shifted);
    else
        simd::detail::WordLanes::remap(dst + base_size_, src + base_size_,
                                       src, shifted, base_size_,
                                       /*encode=*/true);
    // Fixed-width word copies: a variable-length memcpy per transaction
    // would cost a libc call for every 32-byte row.
    if (base_size_ == 2) {
        for (std::size_t i = 0; i < in.count; ++i)
            std::memcpy(dst + i * tx_bytes, src + i * tx_bytes, 2);
    } else if (base_size_ == 4) {
        for (std::size_t i = 0; i < in.count; ++i)
            std::memcpy(dst + i * tx_bytes, src + i * tx_bytes, 4);
    } else if (base_size_ == 8) {
        for (std::size_t i = 0; i < in.count; ++i)
            std::memcpy(dst + i * tx_bytes, src + i * tx_bytes, 8);
    } else {
        for (std::size_t i = 0; i < in.count; ++i)
            std::memcpy(dst + i * tx_bytes, src + i * tx_bytes, 16);
    }
}

void
BaseXorCodec::decodeBatchKernel(const EncodedView &in, std::uint8_t *out)
{
    requireTxSize(in.txBytes);
    if (in.count == 0)
        return;

    // Adjacent bases chain left to right (element e needs the decoded
    // e-1), which the dispatched kernel runs one transaction per vector
    // lane; fixed bases are elementwise.
    if (adjacent_base_) {
        simd::ops().baseXorDecode(out, in.payload, in.count, in.txBytes,
                                  base_size_, zdr_);
        return;
    }
    if (out != in.payload)
        std::memcpy(out, in.payload, in.count * in.txBytes);
    fixedBaseRemap(out, in.count, in.txBytes, base_size_, zdr_,
                   /*encode=*/false);
}

} // namespace bxt
