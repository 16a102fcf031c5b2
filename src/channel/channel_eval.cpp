#include "channel/channel_eval.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/error.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace bxt {

namespace {

/** Stream-level eval counters (all codecs/streams aggregate). */
void
recordEvalStream(const ChannelEvalResult &result, std::size_t bytes)
{
    static telemetry::Counter &streams =
        telemetry::counter("bxt.channel.eval.streams");
    static telemetry::Counter &transactions =
        telemetry::counter("bxt.channel.eval.transactions");
    static telemetry::Counter &raw_ones =
        telemetry::counter("bxt.channel.eval.raw_ones");
    static telemetry::Counter &encoded_ones =
        telemetry::counter("bxt.channel.eval.encoded_ones");
    static telemetry::Counter &byte_count =
        telemetry::counter("bxt.channel.eval.bytes");
    streams.add(1);
    transactions.add(result.stats.transactions);
    raw_ones.add(result.rawOnes);
    encoded_ones.add(result.stats.ones());
    byte_count.add(bytes);
}

} // namespace

double
ChannelEvalResult::normalizedOnes() const
{
    if (rawOnes == 0)
        return 1.0;
    return static_cast<double>(stats.ones()) / static_cast<double>(rawOnes);
}

double
ChannelEvalResult::onesPerTransaction() const
{
    if (stats.transactions == 0)
        return 0.0;
    return static_cast<double>(stats.ones()) /
           static_cast<double>(stats.transactions);
}

ChannelEvalResult
evalCodecOnStream(Codec &codec, const std::vector<Transaction> &stream,
                  unsigned data_wires, double idle_fraction,
                  std::size_t batch_tx)
{
    BXT_ASSERT(batch_tx > 0);
    codec.reset();
    Bus bus(data_wires, codec.metaWiresPerBeat(), idle_fraction);

    telemetry::ScopedSpan span("eval " + codec.name(), "channel");
    ChannelEvalResult result;
    result.codec = codec.name();
    std::size_t stream_bytes = 0;

    // The stream is chunked into TxBatches of at most batch_tx
    // transactions. A chunk also ends where the transaction size changes,
    // so mixed-size streams stay legal (TxBatch geometry is uniform).
    // Chunks are additionally capped at batchTileTx(tx_bytes) so the
    // encode plane, its encoded copy, and the bus accounting sweep all
    // stay within one L1/L2-resident tile; BusStats is batch-split
    // invariant, so tiling does not change any count.
    TxBatch batch;
    EncodedBatch enc;
    TxBatch back;
    std::size_t i = 0;
    while (i < stream.size()) {
        const std::size_t tx_bytes = stream[i].size();
        const std::size_t tile_tx =
            std::min(batch_tx, batchTileTx(tx_bytes));
        batch.reset(tx_bytes);
        batch.reserve(std::min(tile_tx, stream.size() - i));
        while (i < stream.size() && batch.size() < tile_tx &&
               stream[i].size() == tx_bytes) {
            result.rawOnes += stream[i].ones();
            stream_bytes += tx_bytes;
            batch.push(stream[i]);
            ++i;
        }
        codec.encodeBatch(batch, enc);
        bus.transmitBatch(enc);
        // Losslessness is non-negotiable: encoded data is what gets
        // stored in DRAM, so any mismatch here would be silent data
        // corruption.
        codec.decodeBatch(enc, back);
        if (!(back == batch)) {
            for (std::size_t j = 0; j < batch.size(); ++j) {
                if (!bytesEqual(back.tx(j).data(), batch.tx(j).data(),
                                tx_bytes)) {
                    panic("codec " + codec.name() +
                          " failed to round-trip " +
                          batch.transaction(j).toHex() + " (batch index " +
                          std::to_string(j) + ")");
                }
            }
            panic("codec " + codec.name() +
                  " corrupted the batch geometry on round-trip");
        }
    }

    result.stats = bus.stats();
    if (telemetry::metricsEnabled())
        recordEvalStream(result, stream_bytes);
    return result;
}

double
mixedDataRatio(const std::vector<Transaction> &stream)
{
    if (stream.empty())
        return 0.0;
    std::size_t mixed = 0;
    for (const Transaction &tx : stream) {
        bool has_zero = false;
        bool has_nonzero = false;
        for (std::size_t off = 0; off < tx.size(); off += 4) {
            if (allZero(tx.data() + off, 4))
                has_zero = true;
            else
                has_nonzero = true;
        }
        if (has_zero && has_nonzero)
            ++mixed;
    }
    return static_cast<double>(mixed) / static_cast<double>(stream.size());
}

} // namespace bxt
