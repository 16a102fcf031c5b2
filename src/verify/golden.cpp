#include "verify/golden.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/bitops.h"
#include "common/parse.h"
#include "common/rng.h"
#include "core/codec_factory.h"
#include "verify/generators.h"

namespace bxt::verify {
namespace {

std::string
bitsString(const std::vector<std::uint8_t> &bits)
{
    if (bits.empty())
        return "-";
    std::string out;
    out.reserve(bits.size());
    for (std::uint8_t b : bits)
        out += b ? '1' : '0';
    return out;
}

bool
parseBits(const std::string &text, std::vector<std::uint8_t> &out)
{
    out.clear();
    if (text == "-")
        return true;
    for (char c : text) {
        if (c != '0' && c != '1')
            return false;
        out.push_back(c == '1' ? 1 : 0);
    }
    return true;
}

} // namespace

std::vector<std::string>
goldenSpecs(unsigned data_wires)
{
    // The GPU channel pins the full canonical table; the CPU channel pins
    // the schemes the paper's Figure 18 evaluates at 64 bytes.
    if (data_wires == 64) {
        return {"baseline", "xor8+zdr", "universal3+zdr", "dbi1",
                "universal3+zdr|dbi4"};
    }
    return {"baseline",       "xor2+zdr",       "xor4",
            "xor4+zdr",       "xor8+zdr",       "xor4+fixed",
            "universal3+zdr", "universal4+zdr", "dbi1",
            "dbi4",           "universal3+zdr|dbi4", "bd",
            "dbi-ac1",        "dbi-ac4"};
}

std::string
goldenFileName(const std::string &spec, unsigned data_wires)
{
    return specFileStem(spec) + ".w" + std::to_string(data_wires) + ".txt";
}

std::string
specFileStem(const std::string &spec)
{
    std::string stem;
    for (char c : spec) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            stem += c;
        else if (c == '|')
            stem += "__";
        else
            stem += '-';
    }
    return stem;
}

std::string
compactHex(const Transaction &tx)
{
    std::string hex = tx.toHex();
    hex.erase(std::remove(hex.begin(), hex.end(), ' '), hex.end());
    return hex;
}

bool
parseCompactHex(const std::string &hex, Transaction &out)
{
    const std::size_t n = hex.size() / 2;
    if (hex.size() % 2 != 0 || n < Transaction::minBytes ||
        n > Transaction::maxBytes || (n & (n - 1)) != 0) {
        return false;
    }
    for (char c : hex) {
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            return false;
    }
    out = Transaction::fromHex(hex);
    return true;
}

GoldenFile
generateGolden(const std::string &spec, unsigned data_wires,
               std::uint64_t seed, std::size_t count)
{
    GoldenFile golden;
    golden.spec = spec;
    golden.dataWires = data_wires;
    golden.seed = seed;

    CodecPtr codec = makeCodec(spec, data_wires / 8);
    Rng rng(seed);
    Transaction previous(data_wires); // tx bytes == wire count by config
    const std::vector<GenKind> &kinds = allGenKinds();
    for (std::size_t i = 0; i < count; ++i) {
        GoldenVector vec;
        vec.input = generate(rng, data_wires, kinds[i % kinds.size()],
                             previous);
        previous = vec.input;

        const Encoded enc = codec->encode(vec.input);
        vec.payload = enc.payload;
        vec.meta = enc.meta;
        vec.metaWiresPerBeat = enc.metaWiresPerBeat;

        Bus bus(data_wires, enc.metaWiresPerBeat, 0.0);
        vec.stats = bus.transmit(enc);
        golden.vectors.push_back(std::move(vec));
    }
    return golden;
}

bool
writeGoldenFile(const GoldenFile &golden, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "# bxt golden vectors — generated by tools/gen_golden; do not "
           "edit by hand.\n"
        << "# Each vector pins input bytes, encoded payload, metadata bits "
           "(beat-major,\n"
        << "# '-' when metadata-free), and the fresh-Bus transmit counters.\n"
        << "spec " << golden.spec << "\n"
        << "wires " << golden.dataWires << "\n"
        << "seed 0x" << std::hex << golden.seed << std::dec << "\n"
        << "count " << golden.vectors.size() << "\n";
    for (std::size_t i = 0; i < golden.vectors.size(); ++i) {
        const GoldenVector &vec = golden.vectors[i];
        out << "vector " << i << "\n"
            << "in " << compactHex(vec.input) << "\n"
            << "enc " << compactHex(vec.payload) << "\n"
            << "meta " << bitsString(vec.meta) << " wires "
            << vec.metaWiresPerBeat << "\n"
            << "stat ones=" << vec.stats.dataOnes
            << " toggles=" << vec.stats.dataToggles
            << " metaOnes=" << vec.stats.metaOnes
            << " metaToggles=" << vec.stats.metaToggles << "\n";
    }
    return static_cast<bool>(out);
}

std::vector<std::string>
loadGoldenFile(const std::string &path, GoldenFile &out)
{
    std::vector<std::string> diffs;
    out = GoldenFile{};
    std::ifstream in(path);
    if (!in) {
        diffs.push_back(path + ": cannot open");
        return diffs;
    }

    std::string line;
    // Header.
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, value;
        fields >> key >> value;
        if (key == "spec") {
            out.spec = value;
        } else if (key == "count") {
            break;
        } else if ((key == "wires" &&
                    !parseUnsigned(value, /*allow_hex=*/false,
                                   out.dataWires)) ||
                   (key == "seed" &&
                    !parseUnsigned(value, /*allow_hex=*/true, out.seed))) {
            diffs.push_back(path + ": unparsable header line: " + line);
            return diffs;
        }
    }
    if (out.spec.empty() || out.dataWires == 0 || out.dataWires % 8 != 0) {
        diffs.push_back(path + ": malformed header");
        return diffs;
    }

    std::size_t index = 0;
    GoldenVector vec;
    bool have_vector = false;
    const auto flush = [&]() {
        if (have_vector)
            out.vectors.push_back(vec);
        vec = GoldenVector{};
    };
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, value;
        fields >> key >> value;
        const std::string where =
            path + " vector " + std::to_string(index) + " [" + out.spec +
            "]";
        if (key == "vector") {
            flush();
            have_vector = true;
            if (!parseUnsigned(value, /*allow_hex=*/false, index)) {
                diffs.push_back(path + ": unparsable vector line: " + line);
                return diffs;
            }
        } else if (key == "in") {
            if (!parseCompactHex(value, vec.input)) {
                diffs.push_back(where + ": unparsable input " + value);
                return diffs;
            }
        } else if (key == "enc") {
            if (!parseCompactHex(value, vec.payload)) {
                diffs.push_back(where + ": unparsable encoding " + value);
                return diffs;
            }
        } else if (key == "meta") {
            std::string wires_key, wires;
            fields >> wires_key >> wires;
            if (!parseBits(value, vec.meta) ||
                !parseUnsigned(wires, /*allow_hex=*/false,
                               vec.metaWiresPerBeat)) {
                diffs.push_back(where + ": unparsable meta line: " + line);
                return diffs;
            }
        } else if (key == "stat") {
            std::istringstream stat_fields(line);
            std::string tag;
            stat_fields >> tag; // "stat"
            std::string field;
            bool parsed = true;
            while (stat_fields >> field) {
                const std::size_t eq = field.find('=');
                if (eq == std::string::npos) {
                    parsed = false;
                    break;
                }
                const std::string name = field.substr(0, eq);
                std::uint64_t v = 0;
                if (!parseUnsigned(field.substr(eq + 1), /*allow_hex=*/false,
                                   v))
                    parsed = false;
                else if (name == "ones")
                    vec.stats.dataOnes = v;
                else if (name == "toggles")
                    vec.stats.dataToggles = v;
                else if (name == "metaOnes")
                    vec.stats.metaOnes = v;
                else if (name == "metaToggles")
                    vec.stats.metaToggles = v;
                else
                    parsed = false;
            }
            if (!parsed) {
                diffs.push_back(where + ": unparsable stat line: " + line);
                return diffs;
            }
        }
    }
    flush();
    return diffs;
}

namespace {

/** Shared mismatch formatters so the per-vector and batch checks diff
 *  alike. */
std::string
payloadDiff(const std::string &where, const GoldenVector &vec,
            const Transaction &got)
{
    return where + ": encoded payload drifted\n  in   " +
           compactHex(vec.input) + "\n  want " + compactHex(vec.payload) +
           "\n  got  " + compactHex(got);
}

std::string
metaDiff(const std::string &where, const GoldenVector &vec,
         const std::vector<std::uint8_t> &got_bits, unsigned got_wires)
{
    return where + ": metadata drifted\n  want " + bitsString(vec.meta) +
           "/" + std::to_string(vec.metaWiresPerBeat) + "\n  got  " +
           bitsString(got_bits) + "/" + std::to_string(got_wires);
}

std::string
statDiff(const std::string &where, const BusStats &want,
         const BusStats &got)
{
    return where + ": bus counters drifted\n  want ones=" +
           std::to_string(want.dataOnes) + " toggles=" +
           std::to_string(want.dataToggles) + " metaOnes=" +
           std::to_string(want.metaOnes) + " metaToggles=" +
           std::to_string(want.metaToggles) + "\n  got  ones=" +
           std::to_string(got.dataOnes) + " toggles=" +
           std::to_string(got.dataToggles) + " metaOnes=" +
           std::to_string(got.metaOnes) + " metaToggles=" +
           std::to_string(got.metaToggles);
}

bool
sameCounters(const BusStats &want, const BusStats &got)
{
    return got.dataOnes == want.dataOnes &&
           got.dataToggles == want.dataToggles &&
           got.metaOnes == want.metaOnes &&
           got.metaToggles == want.metaToggles;
}

} // namespace

std::vector<std::string>
checkGoldenFile(const std::string &path)
{
    GoldenFile golden;
    std::vector<std::string> diffs = loadGoldenFile(path, golden);
    if (!diffs.empty())
        return diffs;

    // One codec instance across the whole file, encoding each input exactly
    // once in vector order, so stateful codecs (bd) replay the exact pinned
    // sequence. All comparisons for a vector use that single encoding.
    CodecPtr codec = makeCodec(golden.spec, golden.dataWires / 8);
    for (std::size_t i = 0; i < golden.vectors.size(); ++i) {
        const GoldenVector &vec = golden.vectors[i];
        const std::string where = path + " vector " + std::to_string(i) +
                                  " [" + golden.spec + "]";
        const Encoded enc = codec->encode(vec.input);
        if (!(enc.payload == vec.payload))
            diffs.push_back(payloadDiff(where, vec, enc.payload));
        if (enc.meta != vec.meta ||
            enc.metaWiresPerBeat != vec.metaWiresPerBeat) {
            diffs.push_back(metaDiff(where, vec, enc.meta,
                                     enc.metaWiresPerBeat));
        }
        Bus bus(golden.dataWires, enc.metaWiresPerBeat, 0.0);
        const BusStats got = bus.transmit(enc);
        if (!sameCounters(vec.stats, got))
            diffs.push_back(statDiff(where, vec.stats, got));
    }
    return diffs;
}

std::vector<std::string>
checkGoldenFileBatch(const std::string &path)
{
    GoldenFile golden;
    std::vector<std::string> diffs = loadGoldenFile(path, golden);
    if (!diffs.empty())
        return diffs;
    if (golden.vectors.empty())
        return diffs;

    const std::size_t tx_bytes = golden.vectors[0].input.size();
    TxBatch batch(tx_bytes, golden.vectors.size());
    for (const GoldenVector &vec : golden.vectors) {
        if (vec.input.size() != tx_bytes) {
            diffs.push_back(path + ": mixed input sizes in one file");
            return diffs;
        }
        batch.push(vec.input);
    }

    CodecPtr codec = makeCodec(golden.spec, golden.dataWires / 8);
    EncodedBatch enc;
    try {
        codec->encodeBatch(batch, enc);
    } catch (const std::exception &e) {
        diffs.push_back(path + ": encodeBatch threw: " + e.what());
        return diffs;
    }

    for (std::size_t i = 0; i < golden.vectors.size(); ++i) {
        const GoldenVector &vec = golden.vectors[i];
        const std::string where = path + " vector " + std::to_string(i) +
                                  " [" + golden.spec + " batch]";
        if (!bytesEqual(enc.payload(i).data(), vec.payload.data(),
                        tx_bytes)) {
            diffs.push_back(payloadDiff(where, vec,
                                        Transaction(enc.payload(i))));
        }
        const auto meta = enc.meta(i);
        const bool meta_same =
            meta.size() == vec.meta.size() &&
            std::equal(meta.begin(), meta.end(), vec.meta.begin());
        if (!meta_same || enc.metaWiresPerBeat() != vec.metaWiresPerBeat) {
            diffs.push_back(metaDiff(
                where, vec,
                std::vector<std::uint8_t>(meta.begin(), meta.end()),
                enc.metaWiresPerBeat()));
        }

        // The pinned counters are fresh-Bus transmit deltas; replay each
        // slice as a one-transaction batch through transmitBatch.
        EncodedBatch one;
        one.configure(tx_bytes, enc.metaWiresPerBeat(),
                      enc.metaBitsPerTx());
        one.resize(1);
        std::copy(enc.payload(i).begin(), enc.payload(i).end(),
                  one.payload(0).begin());
        std::copy(meta.begin(), meta.end(), one.meta(0).begin());
        Bus bus(golden.dataWires, enc.metaWiresPerBeat(), 0.0);
        const BusStats got = bus.transmitBatch(one);
        if (!sameCounters(vec.stats, got))
            diffs.push_back(statDiff(where, vec.stats, got));
    }

    // The whole batch must decode back to the inputs with one call.
    TxBatch back;
    try {
        codec->decodeBatch(enc, back);
    } catch (const std::exception &e) {
        diffs.push_back(path + ": decodeBatch threw: " + e.what());
        return diffs;
    }
    if (!(back == batch))
        diffs.push_back(path + ": batch decode does not round-trip");
    return diffs;
}


std::string
formatEndpointLine(const Endpoint &endpoint)
{
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer), "endpoint %s %s tx=%zu v=%.9f",
                  endpoint.fig.c_str(), endpoint.spec.c_str(),
                  endpoint.txPerApp, endpoint.value);
    return buffer;
}

std::vector<std::string>
loadEndpoints(const std::string &path, std::vector<Endpoint> &out)
{
    std::vector<std::string> errors;
    out.clear();
    std::ifstream in(path);
    if (!in) {
        errors.push_back(path + ": cannot open");
        return errors;
    }
    std::string line;
    for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string tag, tx_field, v_field, extra;
        Endpoint endpoint;
        fields >> tag >> endpoint.fig >> endpoint.spec >> tx_field >> v_field;
        if (tag != "endpoint" || fields >> extra ||
            tx_field.rfind("tx=", 0) != 0 || v_field.rfind("v=", 0) != 0 ||
            !parseUnsigned(tx_field.substr(3), /*allow_hex=*/false,
                           endpoint.txPerApp) ||
            !parseReal(v_field.substr(2), endpoint.value)) {
            errors.push_back(path + ":" + std::to_string(line_no) +
                             ": unparsable endpoint line: " + line);
            continue;
        }
        out.push_back(std::move(endpoint));
    }
    return errors;
}

bool
appendEndpoints(const std::string &path,
                const std::vector<Endpoint> &endpoints)
{
    std::ofstream out(path, std::ios::app);
    if (!out)
        return false;
    for (const Endpoint &endpoint : endpoints)
        out << formatEndpointLine(endpoint) << "\n";
    return static_cast<bool>(out);
}

} // namespace bxt::verify
