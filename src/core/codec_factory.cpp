#include "core/codec_factory.h"

#include "adaptive/adaptive_codec.h"
#include "common/error.h"
#include "common/parse.h"
#include "core/base_xor.h"
#include "core/bd_encoding.h"
#include "core/dbi.h"
#include "core/pipeline.h"
#include "core/universal_xor.h"

namespace bxt {
namespace {

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            parts.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return parts;
}

/**
 * Build one pipeline stage; on a malformed token sets @p err and returns
 * nullptr (the tryMakeCodec contract — makeCodec escalates to fatal()).
 */
CodecPtr
makeStage(const std::string &token, std::size_t bus_bytes, std::string &err)
{
    const std::vector<std::string> parts = splitOn(token, '+');
    const std::string &head = parts[0];

    bool zdr = false;
    bool fixed = false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        if (parts[i] == "zdr") {
            zdr = true;
        } else if (parts[i] == "fixed") {
            fixed = true;
        } else {
            err = "makeCodec: unknown flag '+" + parts[i] + "' in '" +
                  token + "'";
            return nullptr;
        }
    }

    bool bad_suffix = false;
    auto numeric_suffix = [&](std::size_t prefix_len) -> long {
        unsigned value = 0;
        if (head.size() == prefix_len)
            return -1;
        if (!parseUnsigned(std::string_view(head).substr(prefix_len),
                           /*allow_hex=*/false, value)) {
            bad_suffix = true;
            return -1;
        }
        return value;
    };

    if (head == "baseline" || head == "identity") {
        if (zdr || fixed) {
            err = "makeCodec: baseline takes no flags";
            return nullptr;
        }
        return std::make_unique<IdentityCodec>();
    }
    if (head.rfind("xor", 0) == 0) {
        const long n = numeric_suffix(3);
        if (bad_suffix || (n != 2 && n != 4 && n != 8 && n != 16)) {
            err = "makeCodec: xor base size must be 2/4/8/16 in '" + token +
                  "'";
            return nullptr;
        }
        return std::make_unique<BaseXorCodec>(static_cast<std::size_t>(n),
                                              zdr, !fixed);
    }
    if (head.rfind("universal", 0) == 0) {
        long stages = numeric_suffix(9);
        if (stages == -1 && !bad_suffix)
            stages = 3;
        if (bad_suffix || stages < 1 || stages > 5) {
            err = "makeCodec: universal stages must be 1..5 in '" + token +
                  "'";
            return nullptr;
        }
        if (fixed) {
            err = "makeCodec: universal takes no '+fixed' flag";
            return nullptr;
        }
        return std::make_unique<UniversalXorCodec>(
            static_cast<unsigned>(stages), zdr);
    }
    if (head.rfind("dbi-ac", 0) == 0) {
        const long g = numeric_suffix(6);
        if (bad_suffix || (g != 1 && g != 2 && g != 4 && g != 8)) {
            err = "makeCodec: dbi-ac group must be 1/2/4/8 in '" + token +
                  "'";
            return nullptr;
        }
        if (zdr || fixed) {
            err = "makeCodec: dbi-ac takes no flags";
            return nullptr;
        }
        return std::make_unique<DbiAcCodec>(static_cast<std::size_t>(g),
                                            bus_bytes);
    }
    if (head.rfind("dbi", 0) == 0) {
        const long g = numeric_suffix(3);
        if (bad_suffix || (g != 1 && g != 2 && g != 4 && g != 8)) {
            err = "makeCodec: dbi group must be 1/2/4/8 in '" + token + "'";
            return nullptr;
        }
        if (zdr || fixed) {
            err = "makeCodec: dbi takes no flags";
            return nullptr;
        }
        return std::make_unique<DbiCodec>(static_cast<std::size_t>(g),
                                          bus_bytes);
    }
    if (head == "bd") {
        if (zdr || fixed) {
            err = "makeCodec: bd takes no flags";
            return nullptr;
        }
        return std::make_unique<BdEncodingCodec>(64, 12, bus_bytes);
    }
    err = "makeCodec: unknown stage '" + token + "'";
    return nullptr;
}

} // namespace

CodecPtr
tryMakeCodec(const std::string &spec, std::size_t bus_bytes,
             std::string &err)
{
    if (spec.empty()) {
        err = "makeCodec: empty spec";
        return nullptr;
    }
    if (adaptive::isAdaptiveSpec(spec))
        return adaptive::AdaptiveCodec::make(
            adaptive::defaultConfig(bus_bytes), err);
    std::vector<std::string> tokens = splitOn(spec, '|');
    if (tokens.size() == 1)
        return makeStage(tokens[0], bus_bytes, err);

    std::vector<CodecPtr> stages;
    stages.reserve(tokens.size());
    for (const auto &token : tokens) {
        CodecPtr stage = makeStage(token, bus_bytes, err);
        if (!stage)
            return nullptr;
        stages.push_back(std::move(stage));
    }
    return std::make_unique<PipelineCodec>(std::move(stages));
}

CodecPtr
makeCodec(const std::string &spec, std::size_t bus_bytes)
{
    std::string err;
    CodecPtr codec = tryMakeCodec(spec, bus_bytes, err);
    if (!codec)
        fatal(err);
    return codec;
}

std::vector<std::string>
paperSchemeSpecs()
{
    return {
        "baseline",
        "dbi4",
        "dbi2",
        "dbi1",
        "universal3+zdr",
        "universal3+zdr|dbi4",
        "universal3+zdr|dbi2",
        "universal3+zdr|dbi1",
        "bd",
    };
}

} // namespace bxt
