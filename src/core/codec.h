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

namespace telemetry {
class Histo;
} // namespace telemetry

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
 * protected encodeBatchKernel()/decodeBatchKernel() pair; every public
 * entry point (encodeBatch/decodeBatch and the one-transaction
 * encode/decode wrappers) runs through those kernels.
 *
 * Codecs may be stateful (BD-Encoding keeps a repository of recent words on
 * each side of the channel); the kernels therefore take the transaction
 * stream in transmission order. Stateless codecs (everything the paper
 * proposes) give identical results in any order.
 */
class Codec
{
  public:
    virtual ~Codec() = default;

    /** Human-readable scheme name, e.g. "universal3+zdr". */
    virtual std::string name() const = 0;

    /**
     * Encode one transaction: a one-transaction encodeBatch(), copied
     * out into an Encoded. Convenient for tests and tools; hot loops
     * batch their transactions and call encodeBatch() directly.
     */
    Encoded encode(const Transaction &tx);

    /** Recover one transaction from @p enc: a one-transaction
     *  decodeBatch(), with the same geometry validation. */
    Transaction decode(const Encoded &enc);

    /**
     * Batch encode: encode every transaction of @p in into @p out, which
     * is (re)configured to the batch's geometry. The non-virtual entry
     * point validates the batch geometry (throwing CodecSizeError on a
     * mismatch), records the `bxt.codec.<spec>.batch_size` histogram
     * (looked up in the calling thread's registry on the first batch
     * recorded, then cached), and dispatches to encodeBatchKernel().
     * The kernels of the paper's schemes are differentially verified
     * against the naive reference codecs in src/verify/
     * (src/verify/batch_check.h).
     *
     * Stateful codecs advance their channel state per transaction in
     * batch order, so any split of a stream into batches encodes it
     * identically.
     */
    void encodeBatch(const TxBatch &in, EncodedBatch &out);

    /**
     * Batch decode: recover every original transaction of @p in into
     * @p out. Inverse of encodeBatch; same validation and dispatch.
     */
    void decodeBatch(const EncodedBatch &in, TxBatch &out);

    /**
     * Number of dedicated metadata wires this codec drives per beat. This
     * is a static property of the codec's configuration (its group size and
     * the bus width it was configured for), so channel models can size the
     * bus before any data flows.
     */
    virtual unsigned metaWiresPerBeat() const { return 0; }

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
     * encoding. Configures @p out to the batch geometry (payload size,
     * metadata wires, metadata bits per transaction) and fills every
     * slice. @p in has a geometry (encodeBatch checked it) but may hold
     * no transactions.
     */
    virtual void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) = 0;

    /** Batch-decode kernel: resets @p out to the batch geometry and
     *  fills every transaction (inverse of encodeBatchKernel). */
    virtual void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) = 0;

  private:
    /** `bxt.codec.<spec>.batch_size`, bound by the first encodeBatch
     *  that records it (null until then). */
    telemetry::Histo *batch_size_histo_ = nullptr;
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

  protected:
    void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) override;
    void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) override;
};

} // namespace bxt

#endif // BXT_CORE_CODEC_H
