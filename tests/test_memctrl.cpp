/**
 * @file
 * Unit tests for the encoding memory controller + DRAM device model.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gpusim/memctrl.h"
#include "telemetry/metrics.h"

namespace bxt {
namespace {

GpuConfig
smallConfig(const std::string &codec)
{
    GpuConfig config = GpuConfig::titanXPascal();
    config.channels = 2;
    config.banksPerChannel = 4;
    config.codecSpec = codec;
    return config;
}

Transaction
pattern(std::uint32_t tag)
{
    Transaction tx(32);
    for (std::size_t off = 0; off < 32; off += 4)
        tx.setWord32(off, tag ^ (static_cast<std::uint32_t>(off) << 8));
    return tx;
}

// First in the file: the memctrl counters bind on the first request
// recorded in the process, and here that request runs under a scoped
// registry that is then destroyed.
TEST(MemCtrl, CountersBindToDefaultRegistryUnderScopedFirstUse)
{
    telemetry::setMetricsEnabled(true);
    telemetry::Counter &writes =
        telemetry::defaultRegistry().counter("bxt.gpusim.memctrl.writes");
    const std::uint64_t before = writes.value();
    {
        telemetry::Registry shard;
        telemetry::ScopedRegistry scoped(shard);
        MemoryController mc(smallConfig("baseline"));
        mc.writeSector(0, pattern(0xaaaa0001));
    }
    MemoryController mc(smallConfig("baseline"));
    mc.writeSector(0, pattern(0xbbbb0002));
    telemetry::setMetricsEnabled(false);
    EXPECT_EQ(writes.value(), before + 2);
}

TEST(MemCtrl, WriteThenReadReturnsData)
{
    MemoryController mc(smallConfig("universal3+zdr"));
    mc.writeSector(0, pattern(0xaaaa0001));
    mc.writeSector(32, pattern(0xbbbb0002));
    EXPECT_EQ(mc.readSector(0), pattern(0xaaaa0001));
    EXPECT_EQ(mc.readSector(32), pattern(0xbbbb0002));
}

TEST(MemCtrl, UntouchedMemoryReadsZero)
{
    MemoryController mc(smallConfig("universal3+zdr"));
    EXPECT_EQ(mc.readSector(4096), Transaction(32));
}

TEST(MemCtrl, CountsReadsAndWrites)
{
    MemoryController mc(smallConfig("baseline"));
    mc.writeSector(0, pattern(1));
    mc.writeSector(256, pattern(2));
    (void)mc.readSector(0);
    const MemCtrlStats stats = mc.stats();
    EXPECT_EQ(stats.writes, 2u);
    EXPECT_EQ(stats.reads, 1u);
}

TEST(MemCtrl, RowHitsAndActivates)
{
    GpuConfig config = smallConfig("baseline");
    MemoryController mc(config);
    // Sequential sectors in one 256-byte interleave block share a row.
    mc.writeSector(0, pattern(1));   // ACT (cold bank).
    mc.writeSector(32, pattern(2));  // Row hit.
    mc.writeSector(64, pattern(3));  // Row hit.
    const MemCtrlStats stats = mc.stats();
    EXPECT_EQ(stats.activates, 1u);
    EXPECT_EQ(stats.rowHits, 2u);
    EXPECT_GT(stats.utilization(), 0.0);
}

TEST(MemCtrl, ChannelInterleaveSpreadsTraffic)
{
    GpuConfig config = smallConfig("baseline");
    MemoryController mc(config);
    // 256-byte interleave, 2 channels: addresses 0 and 256 hit different
    // channels, so each channel sees one activate.
    mc.writeSector(0, pattern(1));
    mc.writeSector(256, pattern(2));
    EXPECT_EQ(mc.stats().activates, 2u);
}

TEST(MemCtrl, BusStatsCountWireActivity)
{
    MemoryController mc(smallConfig("baseline"));
    Transaction tx(32);
    tx.data()[0] = 0xff;
    mc.writeSector(0, tx);
    EXPECT_EQ(mc.busStats().dataOnes, 8u);
    (void)mc.readSector(0);
    EXPECT_EQ(mc.busStats().dataOnes, 16u); // Write + read transfers.
}

TEST(MemCtrl, EncodedSchemeMovesFewerOnes)
{
    // Self-similar data: the encoded controller must put fewer ones on
    // the wire than the baseline controller for identical traffic.
    MemoryController baseline(smallConfig("baseline"));
    MemoryController encoded(smallConfig("universal3+zdr"));
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        Transaction tx(32);
        const std::uint32_t base = static_cast<std::uint32_t>(rng.next64());
        for (std::size_t off = 0; off < 32; off += 4)
            tx.setWord32(off, base + static_cast<std::uint32_t>(
                                         rng.nextBounded(8)));
        const std::uint64_t addr = (i % 64) * 32;
        baseline.writeSector(addr, tx);
        encoded.writeSector(addr, tx);
        EXPECT_EQ(encoded.readSector(addr), tx);
        EXPECT_EQ(baseline.readSector(addr), tx);
    }
    EXPECT_LT(encoded.busStats().ones(), baseline.busStats().ones());
}

TEST(MemCtrl, StatefulBdCodecRoundTrips)
{
    // BD-Encoding cannot store encoded data; the controller must fall
    // back to raw storage with link-layer re-encoding and still return
    // correct data in arbitrary read order.
    MemoryController mc(smallConfig("bd"));
    Rng rng(5);
    std::vector<Transaction> written;
    for (int i = 0; i < 64; ++i) {
        Transaction tx(32);
        for (std::size_t off = 0; off < 32; off += 8)
            tx.setWord64(off, rng.next64());
        mc.writeSector(static_cast<std::uint64_t>(i) * 32, tx);
        written.push_back(tx);
    }
    // Read back in reverse order.
    for (int i = 63; i >= 0; --i) {
        EXPECT_EQ(mc.readSector(static_cast<std::uint64_t>(i) * 32),
                  written[static_cast<std::size_t>(i)]);
    }
}

TEST(MemCtrl, DbiMetadataWiresAccounted)
{
    MemoryController mc(smallConfig("dbi1"));
    Transaction tx(32);
    for (std::size_t i = 0; i < 32; ++i)
        tx.data()[i] = 0xff;
    mc.writeSector(0, tx);
    const BusStats stats = mc.busStats();
    EXPECT_EQ(stats.dataOnes, 0u);  // Everything inverted.
    EXPECT_EQ(stats.metaOnes, 32u); // Polarity wires carry the ones.
}

TEST(MemCtrl, OverwriteReplacesStoredData)
{
    MemoryController mc(smallConfig("universal3+zdr"));
    mc.writeSector(64, pattern(1));
    mc.writeSector(64, pattern(2));
    EXPECT_EQ(mc.readSector(64), pattern(2));
}

TEST(MemCtrl, CodecNameExposed)
{
    EXPECT_EQ(MemoryController(smallConfig("universal3+zdr")).codecName(),
              "universal3+zdr");
}

} // namespace
} // namespace bxt
