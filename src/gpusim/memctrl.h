/**
 * @file
 * Memory controller with the encode/decode pipeline of the paper (§V-B
 * "System Organization"): data is encoded before leaving the controller on
 * a write, stored in encoded form in DRAM (for the metadata-free Base+XOR
 * schemes), and decoded in the controller after a read. Link-layer codecs
 * with metadata (DBI, BD-Encoding) store raw data, as real GDDR devices
 * decode DBI at their pads.
 *
 * The controller also models the DRAM bank/row structure per channel
 * (activations for the energy model, a simple open-page timing estimate)
 * and drives one Bus per channel for wire-activity accounting.
 */

#ifndef BXT_GPUSIM_MEMCTRL_H
#define BXT_GPUSIM_MEMCTRL_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "channel/bus.h"
#include "core/codec.h"
#include "gpusim/cache.h"
#include "gpusim/gpu_config.h"

namespace bxt {

/** Per-controller DRAM traffic and timing counters. */
struct MemCtrlStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t activates = 0;
    std::uint64_t rowHits = 0;
    double busyTimeNs = 0.0;  ///< Beat time spent transferring data.
    double totalTimeNs = 0.0; ///< Busy time plus row-miss stalls.

    /** Achieved channel utilization in [0, 1]. */
    double utilization() const
    {
        return totalTimeNs == 0.0 ? 0.0 : busyTimeNs / totalTimeNs;
    }
};

/**
 * The memory controller + DRAM device model behind the LLC. Implements
 * MemoryBackend so a SectoredCache can fill from and spill to it.
 */
class MemoryController : public MemoryBackend
{
  public:
    /** Build from the system config (one codec and bus per channel). */
    explicit MemoryController(const GpuConfig &config);

    Transaction readSector(std::uint64_t sector_addr) override;
    void writeSector(std::uint64_t sector_addr,
                     const Transaction &data) override;

    /** Aggregate wire activity over all channels. */
    BusStats busStats() const;

    /** Aggregate traffic/timing counters over all channels. */
    MemCtrlStats stats() const;

    /** The codec name in use. */
    std::string codecName() const;

  private:
    struct Channel
    {
        CodecPtr codec;
        std::unique_ptr<Bus> bus;
        std::vector<std::int64_t> openRow; ///< Per bank; -1 = closed.
        MemCtrlStats stats;
        /** DRAM cell contents, keyed by sector address. Holds the encoded
         *  payload for metadata-free stateless codecs, raw data otherwise. */
        std::unordered_map<std::uint64_t, Transaction> storage;
        /** Shadow of the original data, for end-to-end verification. */
        std::unordered_map<std::uint64_t, Transaction> shadow;
        bool encodedStorage = false;
        /** One-transaction batches reused by every access: raw data,
         *  its wire encoding, and the controller-side decode. */
        TxBatch raw;
        EncodedBatch wire;
        TxBatch decoded;
    };

    /** Channel index for @p sector_addr. */
    std::size_t channelOf(std::uint64_t sector_addr) const;

    /** Account bank/row activity and timing for one transfer. */
    void touchRow(Channel &channel, std::uint64_t sector_addr);

    GpuConfig config_;
    std::vector<Channel> channels_;
};

} // namespace bxt

#endif // BXT_GPUSIM_MEMCTRL_H
