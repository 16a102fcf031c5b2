#include "verify/shrink.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/parse.h"
#include "verify/golden.h"

namespace bxt::verify {
namespace {

/** Zero @p n bytes at @p offset; true if anything changed. */
bool
zeroSpan(Transaction &tx, std::size_t offset, std::size_t n)
{
    bool changed = false;
    for (std::size_t i = offset; i < offset + n; ++i) {
        changed = changed || tx.data()[i] != 0;
        tx.data()[i] = 0;
    }
    return changed;
}

/** FNV-1a over the repro's identifying content, for stable file names. */
std::uint64_t
contentHash(const Repro &repro)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint8_t byte) {
        h ^= byte;
        h *= 0x100000001b3ull;
    };
    for (char c : repro.invariant)
        mix(static_cast<std::uint8_t>(c));
    for (std::size_t i = 0; i < repro.tx.size(); ++i)
        mix(repro.tx.data()[i]);
    mix(static_cast<std::uint8_t>(repro.dataWires));
    return h;
}

} // namespace

Transaction
shrinkTransaction(const Transaction &tx, const FailPredicate &fails)
{
    Transaction best = tx;
    bool progress = true;
    while (progress) {
        progress = false;

        // Coarse to fine: zero out spans of 16 down to 1 bytes.
        for (std::size_t span = 16; span >= 1; span /= 2) {
            for (std::size_t off = 0; off + span <= best.size(); off += span) {
                Transaction candidate = best;
                if (!zeroSpan(candidate, off, span))
                    continue;
                if (fails(candidate)) {
                    best = candidate;
                    progress = true;
                }
            }
        }

        // Clear surviving bits one at a time.
        for (std::size_t bit = 0; bit < best.size() * 8; ++bit) {
            const std::uint8_t mask =
                static_cast<std::uint8_t>(1u << (bit % 8));
            if ((best.data()[bit / 8] & mask) == 0)
                continue;
            Transaction candidate = best;
            candidate.data()[bit / 8] =
                static_cast<std::uint8_t>(candidate.data()[bit / 8] & ~mask);
            if (fails(candidate)) {
                best = candidate;
                progress = true;
            }
        }
    }
    return best;
}

std::string
writeRepro(const std::string &dir, const Repro &repro)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);

    char name[160];
    std::snprintf(name, sizeof(name), "repro-%s-%016llx.repro",
                  specFileStem(repro.spec).c_str(),
                  static_cast<unsigned long long>(contentHash(repro)));
    const std::string path = dir + "/" + name;

    std::ofstream out(path);
    if (!out)
        return "";
    out << "# bxt differential fuzz repro — minimal failing input.\n"
        << "# Replayed by tests/test_differential.cpp (CorpusReplay).\n"
        << "spec " << repro.spec << "\n"
        << "wires " << repro.dataWires << "\n"
        << "seed 0x" << std::hex << repro.seed << std::dec << "\n"
        << "invariant " << repro.invariant << "\n"
        << "detail " << repro.detail << "\n"
        << "tx " << compactHex(repro.tx) << "\n";
    return out ? path : "";
}

std::optional<Repro>
loadRepro(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;

    Repro repro;
    bool have_spec = false;
    bool have_tx = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos)
            continue;
        const std::string key = line.substr(0, space);
        const std::string value = line.substr(space + 1);
        if (key == "spec") {
            repro.spec = value;
            have_spec = true;
        } else if (key == "wires") {
            if (!parseUnsigned(value, /*allow_hex=*/false, repro.dataWires))
                return std::nullopt;
        } else if (key == "seed") {
            if (!parseUnsigned(value, /*allow_hex=*/true, repro.seed))
                return std::nullopt;
        } else if (key == "invariant") {
            repro.invariant = value;
        } else if (key == "detail") {
            repro.detail = value;
        } else if (key == "tx") {
            std::string digits = value;
            std::erase_if(digits, [](unsigned char c) {
                return std::isspace(c) != 0;
            });
            if (!parseCompactHex(digits, repro.tx))
                return std::nullopt;
            have_tx = true;
        }
    }
    if (!have_spec || !have_tx)
        return std::nullopt;
    return repro;
}

std::vector<std::string>
listRepros(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".repro") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace bxt::verify
