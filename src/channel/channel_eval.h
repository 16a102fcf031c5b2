/**
 * @file
 * Convenience evaluation driver: run one codec over a stream of
 * transactions through a Bus and collect the activity statistics every
 * figure in the paper is built from. This is the core measurement loop of
 * the reproduction harness.
 */

#ifndef BXT_CHANNEL_CHANNEL_EVAL_H
#define BXT_CHANNEL_CHANNEL_EVAL_H

#include <string>
#include <vector>

#include "channel/bus.h"
#include "core/codec.h"

namespace bxt {

/** Result of evaluating one codec over one transaction stream. */
struct ChannelEvalResult
{
    std::string codec;          ///< Codec name.
    BusStats stats;             ///< Accumulated wire activity.
    std::uint64_t rawOnes = 0;  ///< `1` values of the *unencoded* stream.

    /** Ones (data+meta) normalized to the unencoded stream (1.0 = equal). */
    double normalizedOnes() const;

    /** Average ones per transmitted transaction. */
    double onesPerTransaction() const;
};

/** Default transactions per codec/bus batch in evalCodecOnStream. */
inline constexpr std::size_t kDefaultEvalBatchTx = 512;

/**
 * Encode every transaction in @p stream with @p codec, transmit over a bus
 * of @p data_wires data wires, and verify decode(encode(x)) == x for each
 * transaction (the library treats a round-trip failure as a fatal internal
 * error — encoded storage must be lossless).
 *
 * @param idle_fraction Bus idle-gap fraction passed to the Bus model; the
 *        default matches the paper's 70 % bandwidth utilization.
 * @param batch_tx Transactions per codec/bus batch (> 0): the stream is
 *        chunked into TxBatches of at most this many same-size
 *        transactions (encodeBatch / transmitBatch / decodeBatch). Every
 *        batch size produces field-identical BusStats — the bus carries
 *        wire state and its idle accumulator across batch boundaries, and
 *        stateful codecs advance per transaction in stream order.
 */
ChannelEvalResult evalCodecOnStream(Codec &codec,
                                    const std::vector<Transaction> &stream,
                                    unsigned data_wires = 32,
                                    double idle_fraction = 0.3,
                                    std::size_t batch_tx =
                                        kDefaultEvalBatchTx);

/**
 * Fraction of transactions in @p stream that contain *mixed data*: at least
 * one all-zero 4-byte element and at least one non-zero element (the x-axis
 * of paper Figure 14).
 */
double mixedDataRatio(const std::vector<Transaction> &stream);

} // namespace bxt

#endif // BXT_CHANNEL_CHANNEL_EVAL_H
