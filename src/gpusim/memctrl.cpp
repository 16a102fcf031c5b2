#include "gpusim/memctrl.h"

#include <cstring>

#include "common/error.h"
#include "core/codec_factory.h"
#include "telemetry/metrics.h"

namespace bxt {

namespace {

/** Per-request DRAM counters (all controllers/channels aggregate). */
struct MemCtrlMetrics
{
    telemetry::Counter &reads =
        telemetry::counter("bxt.gpusim.memctrl.reads");
    telemetry::Counter &writes =
        telemetry::counter("bxt.gpusim.memctrl.writes");
    telemetry::Counter &activates =
        telemetry::counter("bxt.gpusim.memctrl.activates");
    telemetry::Counter &rowHits =
        telemetry::counter("bxt.gpusim.memctrl.row_hits");
    telemetry::Counter &bytes =
        telemetry::counter("bxt.gpusim.memctrl.bytes");
};

MemCtrlMetrics &
memCtrlMetrics()
{
    static MemCtrlMetrics *metrics = new MemCtrlMetrics();
    return *metrics;
}

} // namespace

MemoryController::MemoryController(const GpuConfig &config) : config_(config)
{
    channels_.resize(config.channels);
    for (auto &channel : channels_) {
        channel.codec = makeCodec(config.codecSpec,
                                  config.busBitsPerChannel / 8);
        channel.bus = std::make_unique<Bus>(
            config.busBitsPerChannel, channel.codec->metaWiresPerBeat(),
            config.busIdleFraction);
        channel.openRow.assign(config.banksPerChannel, -1);
        channel.encodedStorage = channel.codec->stateless() &&
                                 channel.codec->metaWiresPerBeat() == 0;
    }
}

std::size_t
MemoryController::channelOf(std::uint64_t sector_addr) const
{
    return (sector_addr / config_.channelInterleave) % config_.channels;
}

void
MemoryController::touchRow(Channel &channel, std::uint64_t sector_addr)
{
    // Strip the channel-interleave bits to form the channel-local address.
    const std::uint64_t block = sector_addr / config_.channelInterleave;
    const std::uint64_t local = (block / config_.channels) *
                                    config_.channelInterleave +
                                sector_addr % config_.channelInterleave;

    const std::uint64_t bank =
        (local / config_.rowBytes) % config_.banksPerChannel;
    const auto row = static_cast<std::int64_t>(
        local / (config_.rowBytes * config_.banksPerChannel));

    if (channel.openRow[bank] != row) {
        channel.openRow[bank] = row;
        ++channel.stats.activates;
        channel.stats.totalTimeNs += config_.tRowMissNs;
        if (telemetry::metricsEnabled())
            memCtrlMetrics().activates.add(1);
    } else {
        ++channel.stats.rowHits;
        if (telemetry::metricsEnabled())
            memCtrlMetrics().rowHits.add(1);
    }

    const double beats = static_cast<double>(config_.sectorBytes * 8) /
                         config_.busBitsPerChannel;
    const double transfer_ns = beats * config_.beatTimeNs();
    channel.stats.busyTimeNs += transfer_ns;
    channel.stats.totalTimeNs += transfer_ns;
}

Transaction
MemoryController::readSector(std::uint64_t sector_addr)
{
    BXT_ASSERT(sector_addr % config_.sectorBytes == 0);
    Channel &channel = channels_[channelOf(sector_addr)];
    touchRow(channel, sector_addr);
    ++channel.stats.reads;
    if (telemetry::metricsEnabled()) {
        MemCtrlMetrics &mm = memCtrlMetrics();
        mm.reads.add(1);
        mm.bytes.add(config_.sectorBytes);
    }

    auto shadow_it = channel.shadow.find(sector_addr);
    if (shadow_it == channel.shadow.end()) {
        // Untouched DRAM reads as zeros (cleared at allocation).
        const Transaction zeros(config_.sectorBytes);
        shadow_it = channel.shadow.emplace(sector_addr, zeros).first;
        if (channel.encodedStorage) {
            channel.storage.emplace(sector_addr,
                                    channel.codec->encode(zeros).payload);
        } else {
            channel.storage.emplace(sector_addr, zeros);
        }
    }

    const Transaction &stored = channel.storage.at(sector_addr);
    if (channel.encodedStorage) {
        // The DRAM array holds the encoded form; the wire carries it as-is
        // and the controller decodes after the transfer.
        channel.wire.configure(stored.size(), 0, 0);
        channel.wire.resizeForOverwrite(1);
        std::memcpy(channel.wire.payloadData(), stored.data(),
                    stored.size());
    } else {
        // Link-layer codec: the device-side encoder processes the raw
        // array data onto the wire.
        channel.raw.reset(stored.size());
        channel.raw.push(stored);
        channel.codec->encodeBatch(channel.raw, channel.wire);
    }
    channel.bus->transmitBatch(channel.wire);
    channel.codec->decodeBatch(channel.wire, channel.decoded);
    const Transaction decoded = channel.decoded.transaction(0);
    if (!(decoded == shadow_it->second))
        panic("memory controller read corruption at address " +
              std::to_string(sector_addr));
    return decoded;
}

void
MemoryController::writeSector(std::uint64_t sector_addr,
                              const Transaction &data)
{
    BXT_ASSERT(sector_addr % config_.sectorBytes == 0);
    BXT_ASSERT(data.size() == config_.sectorBytes);
    Channel &channel = channels_[channelOf(sector_addr)];
    touchRow(channel, sector_addr);
    ++channel.stats.writes;
    if (telemetry::metricsEnabled()) {
        MemCtrlMetrics &mm = memCtrlMetrics();
        mm.writes.add(1);
        mm.bytes.add(config_.sectorBytes);
    }

    channel.raw.reset(data.size());
    channel.raw.push(data);
    channel.codec->encodeBatch(channel.raw, channel.wire);
    channel.bus->transmitBatch(channel.wire);
    // The device-side decoder runs on every write (it keeps stateful link
    // codecs' repositories coherent); verify the round trip.
    channel.codec->decodeBatch(channel.wire, channel.decoded);
    if (!(channel.decoded == channel.raw))
        panic("memory controller write corruption at address " +
              std::to_string(sector_addr));

    channel.storage[sector_addr] =
        channel.encodedStorage ? Transaction(channel.wire.payload(0)) : data;
    channel.shadow[sector_addr] = data;
}

BusStats
MemoryController::busStats() const
{
    BusStats total;
    for (const auto &channel : channels_)
        total += channel.bus->stats();
    return total;
}

MemCtrlStats
MemoryController::stats() const
{
    MemCtrlStats total;
    for (const auto &channel : channels_) {
        total.reads += channel.stats.reads;
        total.writes += channel.stats.writes;
        total.activates += channel.stats.activates;
        total.rowHits += channel.stats.rowHits;
        total.busyTimeNs += channel.stats.busyTimeNs;
        total.totalTimeNs += channel.stats.totalTimeNs;
    }
    return total;
}

std::string
MemoryController::codecName() const
{
    return channels_.empty() ? "" : channels_.front().codec->name();
}

} // namespace bxt
