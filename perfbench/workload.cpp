#include "workload.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/batch.h"
#include "core/codec_factory.h"
#include "frames.h"
#include "workloads/scenario.h"

namespace perfbench {
namespace {

// Each workload stresses a different layer of bxtd; README.md says why.
// Shards plus client connections never exceed 4 (one thread each). Each
// workload keeps enough requests in flight that its shards never wait
// for the client: a shard that sleeps between requests makes tx_per_s
// follow how fast the host wakes threads, not how fast bxtd serves.
const Workload workloads[] = {
    // name, preset, shards, conns, unix, depth, roundTrip
    {"hot-flood", "hot-flood", 1, 3, false, 1, false},
    {"zipf-roundtrip", "zipf-0.99", 2, 2, true, 16, true},
};

/** The workload's preset. */
bxt::scenario::Config
configFor(const Workload &workload)
{
    bxt::scenario::Config config;
    std::string err;
    bxt::scenario::preset(workload.preset, config, err);
    return config;
}

/**
 * In-process reference encoder (tryMakeCodec) that gives the tallies
 * bxtd must report for a batch.
 */
class RefEncoder
{
  public:
    bool tallies(const Request &request, Tallies &out, std::string &err)
    {
        auto key = std::make_pair(request.spec, request.busBits);
        auto it = codecs_.find(key);
        if (it == codecs_.end()) {
            bxt::CodecPtr codec =
                bxt::tryMakeCodec(request.spec, request.busBits / 8u, err);
            if (!codec)
                return false;
            it = codecs_.emplace(std::move(key), std::move(codec)).first;
        }
        in_.reset(request.txBytes);
        in_.append(request.payload(), request.count);
        it->second->encodeBatch(in_, enc_);
        out.in = in_.ones();
        out.payload = enc_.payloadOnes();
        out.meta = enc_.metaOnes();
        return true;
    }

  private:
    std::map<std::pair<std::string, std::uint32_t>, bxt::CodecPtr> codecs_;
    bxt::TxBatch in_;
    bxt::EncodedBatch enc_;
};

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::vector<Request>
makePool(const Workload &workload, std::uint64_t seed)
{
    bxt::scenario::Config config = configFor(workload);
    config.requests = static_cast<std::uint32_t>(poolSize);
    std::string err;

    // One engine per transaction size, all on @p seed: they draw the
    // same tenants and counts in lockstep (sizes only change
    // the payload bytes), so each request takes its payload from the
    // engine matching its tenant's size in the fixed population.
    const bxt::scenario::Engine population(config, 0);
    std::map<std::uint32_t, bxt::scenario::Engine> engines;
    for (const bxt::scenario::SizeShare &size : config.sizeMix) {
        bxt::scenario::Config one = config;
        one.sizeMix = {{size.txBytes, 1.0}};
        engines.emplace(size.txBytes, bxt::scenario::Engine(one, seed));
    }

    std::vector<Request> pool;
    pool.reserve(poolSize);
    RefEncoder ref;
    std::map<std::uint32_t, bxt::scenario::Request> generated;
    for (;;) {
        bool more = true;
        for (auto &[size, engine] : engines)
            more = engine.next(generated[size]) && more;
        if (!more)
            break;
        const std::uint32_t tenant = generated.begin()->second.tenant;
        const bxt::scenario::Request &g =
            generated[population.tenantTxBytes(tenant)];
        Request r;
        r.tenant = tenant;
        r.stream = static_cast<std::uint16_t>(tenant + 1);
        r.spec = population.tenantSpec(tenant);
        r.txBytes = g.txBytes;
        r.busBits = g.busBits;
        r.count = g.count;
        std::vector<std::uint8_t> body(16 + g.payload.size());
        store32(body.data(), r.txBytes);
        store32(body.data() + 4, r.busBits);
        store64(body.data() + 8, r.count);
        std::copy(g.payload.begin(), g.payload.end(), body.begin() + 16);
        r.frame = buildFrame(opEncode, r.stream, r.spec, body.data(),
                             body.size());
        if (!ref.tallies(r, r.ref, err))
            return {};
        pool.push_back(std::move(r));
    }
    return pool;
}

std::vector<Send>
makeSequence(const Workload &workload, std::uint64_t seed,
             const std::vector<Request> &pool)
{
    // The engine that made the pool, run on. 8-byte transactions keep
    // the payloads it draws (and drops) cheap; sizes do not move
    // tenants or counts.
    bxt::scenario::Config config = configFor(workload);
    config.sizeMix = {{8, 1.0}};
    config.requests = static_cast<std::uint32_t>(sequenceLength);
    bxt::scenario::Engine engine(config, seed);
    std::map<std::uint32_t, std::vector<std::uint32_t>> by_tenant;
    for (std::uint32_t i = 0; i < pool.size(); ++i)
        by_tenant[pool[i].tenant].push_back(i);
    std::map<std::uint32_t, std::size_t> used;

    std::vector<Send> sequence;
    bxt::scenario::Request r;
    while (engine.next(r)) {
        const std::vector<std::uint32_t> &mine = by_tenant[r.tenant];
        std::uint32_t index = r.index;
        if (index >= pool.size()) {
            if (mine.empty())
                continue; // A tenant too rare to appear in the pool.
            index = mine[used[r.tenant]++ % mine.size()];
        }
        sequence.push_back(
            {index, static_cast<std::uint32_t>(sequence.size())});
    }
    return sequence;
}

} // namespace perfbench
