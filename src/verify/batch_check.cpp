#include "verify/batch_check.h"

#include <algorithm>
#include <cstddef>

#include "channel/bus.h"
#include "common/bitops.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/batch.h"
#include "core/codec.h"
#include "core/codec_factory.h"
#include "telemetry/trace.h"
#include "verify/differential.h"
#include "verify/generators.h"
#include "verify/reference_codecs.h"

namespace bxt::verify {
namespace {

std::string
formatStats(const BusStats &s)
{
    return "tx=" + std::to_string(s.transactions) +
           " beats=" + std::to_string(s.beats) +
           " dataBits=" + std::to_string(s.dataBits) +
           " dataOnes=" + std::to_string(s.dataOnes) +
           " dataToggles=" + std::to_string(s.dataToggles) +
           " metaBits=" + std::to_string(s.metaBits) +
           " metaOnes=" + std::to_string(s.metaOnes) +
           " metaToggles=" + std::to_string(s.metaToggles);
}

std::string
hexOf(std::span<const std::uint8_t> bytes)
{
    return Transaction(bytes).toHex();
}

std::string
bitsOf(std::span<const std::uint8_t> bits)
{
    std::string out;
    out.reserve(bits.size());
    for (std::uint8_t b : bits)
        out.push_back(b ? '1' : '0');
    return out;
}

/** Seed mixer covering the full (spec, wires, batch, stream) unit space. */
std::uint64_t
mixSeed(std::uint64_t seed, const std::string &spec, unsigned wires,
        std::size_t batch_tx, std::uint64_t stream_index)
{
    std::uint64_t h = seed ^ 0xcbf29ce484222325ull;
    for (char c : spec) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    for (std::uint64_t v : {std::uint64_t{wires}, std::uint64_t{batch_tx},
                            stream_index}) {
        h ^= v;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

std::optional<Violation>
checkBatchAgainstScalar(const std::string &spec,
                        const std::vector<Transaction> &stream,
                        unsigned data_wires, std::size_t batch_tx,
                        double idle_fraction)
{
    if (stream.empty())
        return std::nullopt;

    CodecPtr batch_codec = makeCodec(spec, data_wires / 8);
    const unsigned meta_wires = batch_codec->metaWiresPerBeat();

    // Two independent bus models; wire state and the idle accumulator
    // advance across the whole stream on both, so any divergence in the
    // cumulative counters is a batch-path bug, not a modelling artefact.
    Bus expected_bus(data_wires, meta_wires, idle_fraction);
    Bus batch_bus(data_wires, meta_wires, idle_fraction);

    // Expected encodings, one transaction at a time over the entire
    // stream first: from the naive reference model when the spec has
    // one, else from a second core instance fed one-transaction batches
    // (stateful codecs advance per transaction in stream order on both
    // instances, so slice i of every batch must equal encoding i).
    const RefCodecPtr ref = makeRefCodec(spec, data_wires / 8);
    const CodecPtr single_codec =
        ref ? nullptr : makeCodec(spec, data_wires / 8);
    std::vector<Encoded> expected;
    expected.reserve(stream.size());
    for (const Transaction &tx : stream) {
        Encoded want;
        if (ref) {
            const RefEncoded ref_enc =
                ref->encode({tx.data(), tx.data() + tx.size()});
            want.payload = Transaction(ref_enc.payload);
            want.meta = ref_enc.meta;
            want.metaWiresPerBeat = ref_enc.metaWiresPerBeat;
        } else {
            want = single_codec->encode(tx);
        }
        expected_bus.transmit(want);
        expected.push_back(std::move(want));
    }

    TxBatch batch;
    EncodedBatch enc;
    TxBatch decoded;
    std::size_t i = 0;
    while (i < stream.size()) {
        const std::size_t tx_bytes = stream[i].size();
        batch.reset(tx_bytes);
        std::size_t chunk = 0;
        while (i + chunk < stream.size() &&
               stream[i + chunk].size() == tx_bytes &&
               (batch_tx == 0 || chunk < batch_tx)) {
            batch.push(stream[i + chunk]);
            ++chunk;
        }

        try {
            batch_codec->encodeBatch(batch, enc);
        } catch (const CodecSizeError &e) {
            return Violation{"batch-encode-throw",
                             spec + " tx " + std::to_string(i) + " batch=" +
                                 std::to_string(chunk) + ": " + e.what()};
        }

        for (std::size_t j = 0; j < chunk; ++j) {
            const Encoded &want = expected[i + j];
            const std::string where =
                spec + " tx " + std::to_string(i + j) + " (batch of " +
                std::to_string(chunk) + " at offset " + std::to_string(j) +
                ")";
            if (enc.metaWiresPerBeat() != want.metaWiresPerBeat)
                return Violation{
                    "batch-vs-scalar-meta-wires",
                    where + ": batch " +
                        std::to_string(enc.metaWiresPerBeat()) +
                        " wires/beat, expected " +
                        std::to_string(want.metaWiresPerBeat)};
            if (enc.txBytes() != want.payload.size() ||
                !bytesEqual(enc.payload(j).data(), want.payload.data(),
                            want.payload.size()))
                return Violation{"batch-vs-scalar-payload",
                                 where + ": batch " + hexOf(enc.payload(j)) +
                                     " expected " + want.payload.toHex()};
            const std::span<const std::uint8_t> got_meta = enc.meta(j);
            if (got_meta.size() != want.meta.size() ||
                !std::equal(got_meta.begin(), got_meta.end(),
                            want.meta.begin()))
                return Violation{"batch-vs-scalar-meta",
                                 where + ": batch " + bitsOf(got_meta) +
                                     " expected " +
                                     bitsOf({want.meta.data(),
                                             want.meta.size()})};
        }

        batch_bus.transmitBatch(enc);

        try {
            batch_codec->decodeBatch(enc, decoded);
        } catch (const CodecSizeError &e) {
            return Violation{"batch-decode-throw",
                             spec + " tx " + std::to_string(i) + " batch=" +
                                 std::to_string(chunk) + ": " + e.what()};
        }
        if (!(decoded == batch)) {
            for (std::size_t j = 0; j < chunk; ++j) {
                if (!bytesEqual(decoded.tx(j).data(), batch.tx(j).data(),
                                tx_bytes))
                    return Violation{
                        "batch-roundtrip",
                        spec + " tx " + std::to_string(i + j) + ": decoded " +
                            hexOf(decoded.tx(j)) + " original " +
                            hexOf(batch.tx(j))};
            }
            return Violation{"batch-roundtrip",
                             spec + ": decodeBatch corrupted the geometry"};
        }

        i += chunk;
    }

    if (!(batch_bus.stats() == expected_bus.stats()))
        return Violation{"batch-vs-scalar-bus",
                         spec + " after " + std::to_string(stream.size()) +
                             " tx: batch [" + formatStats(batch_bus.stats()) +
                             "] expected [" +
                             formatStats(expected_bus.stats()) + "]"};

    return std::nullopt;
}

BatchFuzzReport
runBatchDifferentialFuzz(const BatchFuzzOptions &options)
{
    const std::vector<std::string> specs =
        options.specs.empty() ? canonicalSpecs() : options.specs;

    BatchFuzzReport report;
    const std::vector<GenKind> &kinds = allGenKinds();
    for (const std::string &spec : specs) {
        for (unsigned wires : options.dataWires) {
            for (std::size_t batch_tx : options.batchSizes) {
                telemetry::ScopedSpan span("batchfuzz." + spec + "." +
                                               std::to_string(wires) + ".b" +
                                               std::to_string(batch_tx),
                                           "fuzz");
                bool failed = false;
                for (std::uint64_t s = 0;
                     s < options.streamsPerSpec && !failed; ++s) {
                    const std::uint64_t seed =
                        mixSeed(options.seed, spec, wires, batch_tx, s);
                    Rng rng(seed);
                    std::vector<Transaction> stream;
                    stream.reserve(options.txPerStream);
                    Transaction previous(wires);
                    for (std::size_t t = 0; t < options.txPerStream; ++t) {
                        const GenKind kind = kinds[t % kinds.size()];
                        stream.push_back(
                            generate(rng, wires, kind, previous));
                        previous = stream.back();
                    }
                    report.transactionsChecked += stream.size();
                    if (auto violation = checkBatchAgainstScalar(
                            spec, stream, wires, batch_tx,
                            options.idleFraction)) {
                        failed = true;
                        report.failures.push_back(
                            {spec, wires, batch_tx, seed, *violation});
                    }
                }
                if (options.progress)
                    options.progress(spec + " wires=" +
                                     std::to_string(wires) + " batch=" +
                                     std::to_string(batch_tx) + " " +
                                     (failed ? "FAIL" : "ok"));
            }
        }
    }
    return report;
}

} // namespace bxt::verify
