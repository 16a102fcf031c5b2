/**
 * @file
 * The Codec interface: transaction-level encode/decode with optional
 * per-beat metadata wires (used by DBI and BD-Encoding; the paper's own
 * Base+XOR schemes are metadata-free).
 */

#ifndef BXT_CORE_CODEC_H
#define BXT_CORE_CODEC_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/transaction.h"

namespace bxt {

/**
 * The result of encoding one transaction: the (same-sized) payload that
 * travels on the data wires plus any metadata bits that travel on dedicated
 * extra wires.
 *
 * Metadata is stored beat-major: bit (b * metaWiresPerBeat + w) is the value
 * driven on metadata wire w during beat b. Beats are busWidth-bit slices of
 * the payload in byte order.
 */
struct Encoded
{
    /**
     * Encoded payload; always the same size as the input transaction.
     * Defaults to the minimum transaction size so a default-constructed
     * Encoded can never masquerade as a valid 32-byte GPU encoding —
     * codecs reject mismatched geometry with CodecSizeError instead of
     * silently resizing scratch buffers to whatever they expect.
     */
    Transaction payload{Transaction::minBytes};

    /** Metadata bit values (0/1), beat-major; empty for metadata-free codecs. */
    std::vector<std::uint8_t> meta;

    /** Number of dedicated metadata wires this encoding occupies per beat. */
    unsigned metaWiresPerBeat = 0;

    /** Total `1` values across payload and metadata. */
    std::size_t ones() const;

    /** `1` values on metadata wires only. */
    std::size_t metaOnes() const;
};

/**
 * A transaction encoder/decoder.
 *
 * Each codec implements its per-transaction mapping once, as the
 * protected encodeBatchKernel()/decodeBatchKernel() pair over borrowed
 * planes; every public entry point (encodeBatch/decodeBatch in their
 * batch and view forms, and the one-transaction encode/decode wrappers)
 * runs through those kernels.
 *
 * Codecs may be stateful (BD-Encoding keeps a repository of recent words on
 * each side of the channel); the kernels therefore take the transaction
 * stream in transmission order. Stateless codecs (everything the paper
 * proposes) give identical results in any order.
 *
 * Aliasing: an output plane either does not overlap the input plane it
 * is computed from, or, when allowsInPlace() is true, is exactly that
 * plane (in == out). Partial overlap is never allowed, and the metadata
 * planes never overlap a payload plane. The view entry points check this.
 */
class Codec
{
  public:
    virtual ~Codec() = default;

    /** Human-readable scheme name, e.g. "universal3+zdr". */
    virtual std::string name() const = 0;

    /**
     * Encode one transaction: a one-transaction encodeBatch() into an
     * Encoded. Convenient for tests and tools; hot loops batch their
     * transactions and call encodeBatch() directly.
     */
    Encoded encode(const Transaction &tx);

    /** Recover one transaction from @p enc: a one-transaction
     *  decodeBatch(), with the same geometry validation. */
    Transaction decode(const Encoded &enc);

    /**
     * Batch encode: encode every transaction of @p in into @p out, which
     * is (re)configured to the batch's geometry, then runs the view form
     * below over the two batches' planes. Throws CodecSizeError when the
     * batch has no geometry or the codec cannot encode its transaction
     * size. The kernels of the paper's schemes are differentially
     * verified against the naive reference codecs in src/verify/
     * (src/verify/batch_check.h).
     *
     * Stateful codecs advance their channel state per transaction in
     * batch order, so any split of a stream into batches encodes it
     * identically.
     */
    void encodeBatch(const TxBatch &in, EncodedBatch &out);

    /**
     * Encode the borrowed plane @p in into caller-owned planes: @p payload
     * receives in.bytes() bytes and @p meta in.count *
     * metaBitsPerTx(in.txBytes) 0/1 bytes (it may be null when that is
     * zero). Validates the geometry and the aliasing rule (see the class
     * comment) and dispatches to encodeBatchKernel().
     */
    void encodeBatch(const TxView &in, std::uint8_t *payload,
                     std::uint8_t *meta);

    /**
     * Batch decode: recover every original transaction of @p in into
     * @p out (reset to the batch geometry). Inverse of encodeBatch;
     * throws CodecSizeError when the batch's metadata wires or bits per
     * transaction do not match this codec.
     */
    void decodeBatch(const EncodedBatch &in, TxBatch &out);

    /**
     * Decode the borrowed planes @p in (metadata laid out as
     * metaBitsPerTx(in.txBytes) bits per transaction) into @p out, which
     * receives in.count * in.txBytes bytes. Same geometry and aliasing
     * checks as the encode view form.
     */
    void decodeBatch(const EncodedView &in, std::uint8_t *out);

    /**
     * Number of dedicated metadata wires this codec drives per beat. This
     * is a static property of the codec's configuration (its group size and
     * the bus width it was configured for), so channel models can size the
     * bus before any data flows.
     */
    virtual unsigned metaWiresPerBeat() const { return 0; }

    /**
     * Metadata bits one @p tx_bytes transaction carries (beats times
     * metaWiresPerBeat(); 0 for metadata-free codecs). Throws
     * CodecSizeError when the size is not a whole number of this codec's
     * bus beats.
     */
    virtual std::size_t metaBitsPerTx(std::size_t) const { return 0; }

    /**
     * True when encode and decode accept an output payload plane that is
     * exactly the input plane (in == out). Each codec states its rule
     * next to its override; a codec that does not override it says no.
     */
    virtual bool allowsInPlace() const { return false; }

    /** Reset any channel-history state (repositories); default no-op. */
    virtual void reset() {}

    /**
     * True when encoding a transaction depends only on that transaction
     * (everything the paper proposes). Stateless, metadata-free codecs can
     * store their encoded form directly in DRAM; stateful link codecs
     * (BD-Encoding) cannot, because decode depends on transfer history.
     */
    virtual bool stateless() const { return true; }

  protected:
    /**
     * Batch-encode kernel: the codec's one implementation of its
     * encoding. Writes every byte of @p payload (in.bytes()) and of
     * @p meta (in.count * metaBitsPerTx(in.txBytes)). @p in has a valid
     * transaction size (encodeBatch checked it) but may hold no
     * transactions, and the planes obey the aliasing rule.
     */
    virtual void encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                                   std::uint8_t *meta) = 0;

    /** Batch-decode kernel: writes every byte of @p out (in.count *
     *  in.txBytes); the inverse of encodeBatchKernel. */
    virtual void decodeBatchKernel(const EncodedView &in,
                                   std::uint8_t *out) = 0;

  private:
    /** Throw CodecSizeError unless an encoding of @p tx_bytes
     *  transactions with @p wires wires and @p meta_bits bits per
     *  transaction is what this codec decodes. */
    void requireEncodedGeometry(std::size_t tx_bytes, unsigned wires,
                                std::size_t meta_bits) const;
};

/** Owning codec handle. */
using CodecPtr = std::unique_ptr<Codec>;

/**
 * The trivial codec: transmits data unchanged. This is the paper's
 * "baseline" conventional transfer scheme.
 */
class IdentityCodec : public Codec
{
  public:
    std::string name() const override { return "baseline"; }

    /** Yes: in place, both directions copy nothing. */
    bool allowsInPlace() const override { return true; }

  protected:
    void encodeBatchKernel(const TxView &in, std::uint8_t *payload,
                           std::uint8_t *meta) override;
    void decodeBatchKernel(const EncodedView &in,
                           std::uint8_t *out) override;
};

} // namespace bxt

#endif // BXT_CORE_CODEC_H
