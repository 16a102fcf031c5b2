/**
 * @file
 * The benchmark's workloads: how each drives bxtd, and the seeded
 * request pool it replays. Payloads come from the workloads::Engine
 * presets, so a (workload, seed) pair gives byte-identical requests on
 * every commit.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "frames.h"

namespace perfbench {

/** How one workload runs against bxtd. */
struct Workload
{
    const char *name;
    const char *preset;   ///< workloads::Engine preset.
    unsigned shards;      ///< bxtd --shards.
    unsigned connections; ///< Client connections, one thread each.
    bool unixSocket;      ///< Unix socket (round-robin shard handoff).
    unsigned depth;       ///< Requests in flight per connection.
    bool roundTrip;       ///< Decode every encode reply.
};

/** The named workload, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Distinct requests generated per run (the pool). */
constexpr std::size_t poolSize = 2048;

/** Ones tallies of one encoded batch. */
struct Tallies
{
    std::uint64_t in = 0;
    std::uint64_t payload = 0;
    std::uint64_t meta = 0;

    bool operator==(const Tallies &) const = default;
};

/** One pool request with its serialized Encode frame. */
struct Request
{
    std::uint32_t tenant = 0;
    std::uint16_t stream = 0; ///< tenant + 1 (0 means untagged).
    std::string spec;
    std::uint32_t txBytes = 0;
    std::uint32_t busBits = 0;
    std::uint32_t count = 0;
    std::vector<std::uint8_t> frame; ///< The Encode request.
    Tallies ref; ///< What bxtd must reply: tryMakeCodec's encode.

    /** The raw transactions, inside the frame. */
    const std::uint8_t *payload() const
    {
        return frame.data() + frameOverhead - 4 + spec.size() + 16;
    }
    std::size_t payloadBytes() const
    {
        return static_cast<std::size_t>(count) * txBytes;
    }
};

/**
 * Generate the pool for @p workload and @p seed. The seed draws the
 * request stream: tenant per request, transaction counts and payload
 * values. The tenant population (each tenant's spec and
 * transaction size) is the preset's population for seed 0 on every
 * seed, so every seed measures the same deployment; otherwise a seed
 * that puts `baseline` on the hottest tenant would be a different
 * benchmark.
 */
std::vector<Request> makePool(const Workload &workload, std::uint64_t seed);

/** One send of a run: which pool request, and its position in the
 *  run's request sequence. */
struct Send
{
    std::uint32_t index = 0;
    std::uint32_t position = 0;
};

/** Requests in a run's sequence; the connections cycle it. */
constexpr std::size_t sequenceLength = 65536;

/** ones_removed_pct covers this sequence prefix. */
constexpr std::size_t onesPrefix = 16384;

/**
 * The run's request sequence: the workload's engine on @p seed, whose
 * first requests are the pool's; each later one reuses a pool payload
 * of its tenant in turn. At most sequenceLength requests.
 */
std::vector<Send> makeSequence(const Workload &workload, std::uint64_t seed,
                               const std::vector<Request> &pool);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
