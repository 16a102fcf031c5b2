#include "core/codec.h"

#include <cstdint>
#include <cstring>

#include "common/bitops.h"
#include "common/error.h"

namespace bxt {

namespace {

/** Plane copy that tolerates empty ranges (vector data() may be null)
 *  and copies nothing in place. */
void
copyPlane(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    if (n != 0 && dst != src)
        std::memcpy(dst, src, n);
}

/** True when [a, a + n) and [b, b + n) share a byte. */
bool
overlaps(const std::uint8_t *a, const std::uint8_t *b, std::size_t n)
{
    const auto x = reinterpret_cast<std::uintptr_t>(a);
    const auto y = reinterpret_cast<std::uintptr_t>(b);
    return n != 0 && x < y + n && y < x + n;
}

/** Throw CodecSizeError unless @p tx_bytes is a valid transaction size
 *  (a batch with no geometry reports 0). */
void
requireTxGeometry(std::size_t tx_bytes, const char *what)
{
    if (tx_bytes == 0)
        throw CodecSizeError(std::string(what) + ": batch has no geometry");
    if (!isPowerOfTwo(tx_bytes) || tx_bytes < Transaction::minBytes ||
        tx_bytes > Transaction::maxBytes) {
        throw CodecSizeError(std::string(what) + ": " +
                             std::to_string(tx_bytes) +
                             " is not a valid transaction size");
    }
}

} // namespace

std::size_t
Encoded::ones() const
{
    return payload.ones() + metaOnes();
}

std::size_t
Encoded::metaOnes() const
{
    std::size_t count = 0;
    for (std::uint8_t bit : meta)
        count += bit;
    return count;
}

Encoded
Codec::encode(const Transaction &tx)
{
    Encoded enc;
    enc.payload = Transaction(tx.size());
    enc.meta.resize(metaBitsPerTx(tx.size()));
    enc.metaWiresPerBeat = metaWiresPerBeat();
    encodeBatch(TxView{tx.data(), 1, tx.size()}, enc.payload.data(),
                enc.meta.data());
    return enc;
}

Transaction
Codec::decode(const Encoded &enc)
{
    requireEncodedGeometry(enc.payload.size(), enc.metaWiresPerBeat,
                           enc.meta.size());
    Transaction out(enc.payload.size());
    decodeBatch(EncodedView{enc.payload.data(), enc.meta.data(), 1,
                            enc.payload.size()},
                out.data());
    return out;
}

void
Codec::encodeBatch(const TxBatch &in, EncodedBatch &out)
{
    requireTxGeometry(in.txBytes(), "encodeBatch");
    out.configure(in.txBytes(), metaWiresPerBeat(),
                  metaBitsPerTx(in.txBytes()));
    out.resizeForOverwrite(in.size());
    encodeBatch(in.view(), out.payloadData(), out.metaData());
}

void
Codec::encodeBatch(const TxView &in, std::uint8_t *payload,
                   std::uint8_t *meta)
{
    requireTxGeometry(in.txBytes, "encodeBatch");
    BXT_ASSERT(!overlaps(in.data, payload, in.bytes()) ||
               (in.data == payload && allowsInPlace()));
    encodeBatchKernel(in, payload, meta);
}

void
Codec::requireEncodedGeometry(std::size_t tx_bytes, unsigned wires,
                              std::size_t meta_bits) const
{
    if (wires != metaWiresPerBeat()) {
        throw CodecSizeError(
            "decodeBatch: batch carries " + std::to_string(wires) +
            " metadata wires/beat but codec " + name() + " expects " +
            std::to_string(metaWiresPerBeat()));
    }
    const std::size_t expected = metaBitsPerTx(tx_bytes);
    if (meta_bits != expected) {
        throw CodecSizeError(name() + ": batch carries " +
                             std::to_string(meta_bits) +
                             " metadata bits per transaction, expected " +
                             std::to_string(expected));
    }
}

void
Codec::decodeBatch(const EncodedBatch &in, TxBatch &out)
{
    requireTxGeometry(in.txBytes(), "decodeBatch");
    requireEncodedGeometry(in.txBytes(), in.metaWiresPerBeat(),
                           in.metaBitsPerTx());
    out.reset(in.txBytes());
    out.resizeForOverwrite(in.size());
    decodeBatch(in.view(), out.data());
}

void
Codec::decodeBatch(const EncodedView &in, std::uint8_t *out)
{
    requireTxGeometry(in.txBytes, "decodeBatch");
    BXT_ASSERT(!overlaps(in.payload, out, in.count * in.txBytes) ||
               (in.payload == out && allowsInPlace()));
    decodeBatchKernel(in, out);
}

void
IdentityCodec::encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                                 std::uint8_t *)
{
    copyPlane(payload, in.data, in.bytes());
}

void
IdentityCodec::decodeBatchKernel(const EncodedView &in, std::uint8_t *out)
{
    copyPlane(out, in.payload, in.count * in.txBytes);
}

} // namespace bxt
