/**
 * @file
 * SIMD dispatch-layer suite: level parsing and BXT_SIMD resolution
 * semantics (invalid names fall back to word with a warning, never an
 * abort), per-primitive differential checks of every available kernel
 * table against the byte-at-a-time reference codecs of src/verify (which
 * share no code with src/core), and the golden corpus plus the batch
 * differential fuzzer replayed at every dispatch level the host supports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "core/batch.h"
#include "core/simd/simd.h"
#include "verify/batch_check.h"
#include "verify/golden.h"
#include "verify/reference_codecs.h"

namespace bxt {
namespace {

using simd::Level;

/** Restores the entry dispatch level when a test scope ends. */
class ScopedLevel
{
  public:
    ScopedLevel() : saved_(simd::activeLevel()) {}
    ~ScopedLevel() { simd::setActiveLevel(saved_); }

  private:
    Level saved_;
};

TEST(SimdDispatch, ParseLevelRecognizesEveryNameCaseInsensitively)
{
    for (Level level : {Level::Word, Level::Avx2, Level::Avx512}) {
        const std::string name = simd::levelName(level);
        EXPECT_EQ(simd::parseLevel(name), level);
        std::string upper = name;
        for (char &ch : upper)
            if (ch >= 'a' && ch <= 'z')
                ch = static_cast<char>(ch - 'a' + 'A');
        EXPECT_EQ(simd::parseLevel(upper), level) << upper;
    }
    EXPECT_FALSE(simd::parseLevel("").has_value());
    EXPECT_FALSE(simd::parseLevel("avx1024").has_value());
    EXPECT_FALSE(simd::parseLevel("sse").has_value());
    EXPECT_FALSE(simd::parseLevel("scalar").has_value());
}

TEST(SimdDispatch, UnrecognizedEnvValueFallsBackToWordWithWarning)
{
    // The BXT_SIMD contract: garbage must not abort the process — it
    // resolves to the always-available Word tier and says so on stderr.
    // "scalar" named a retired tier and is garbage now too.
    for (const char *value : {"definitely-not-a-level", "scalar"}) {
        SCOPED_TRACE(value);
        ASSERT_EQ(setenv("BXT_SIMD", value, 1), 0);
        std::string warning;
        const Level level = simd::resolveRequestedLevel(
            std::getenv("BXT_SIMD"), &warning);
        EXPECT_EQ(level, Level::Word);
        EXPECT_NE(warning.find(value), std::string::npos) << warning;
        // And it is not treated as a forced level elsewhere (the bench
        // sweep keys off envForcedLevel to pin its level list).
        EXPECT_FALSE(simd::envForcedLevel().has_value());
    }
    ASSERT_EQ(unsetenv("BXT_SIMD"), 0);
}

TEST(SimdDispatch, EmptyEnvPicksBestLevelWithoutWarning)
{
    std::string warning;
    EXPECT_EQ(simd::resolveRequestedLevel(nullptr, &warning),
              simd::bestLevel());
    EXPECT_TRUE(warning.empty());
    EXPECT_EQ(simd::resolveRequestedLevel("", &warning),
              simd::bestLevel());
    EXPECT_TRUE(warning.empty());
}

TEST(SimdDispatch, UnsupportedRequestClampsDownWithWarning)
{
    // Word is always installable, so a request for it resolves verbatim
    // and silently.
    std::string warning;
    EXPECT_EQ(simd::resolveRequestedLevel("word", &warning), Level::Word);
    EXPECT_TRUE(warning.empty());

    // A valid name the host cannot run clamps to the best level at or
    // below it and warns. On hosts that support everything there is
    // nothing to clamp; the contract still holds vacuously.
    for (Level level : {Level::Avx2, Level::Avx512}) {
        if (simd::levelSupported(level))
            continue;
        const Level got = simd::resolveRequestedLevel(
            simd::levelName(level), &warning);
        EXPECT_TRUE(simd::levelSupported(got));
        EXPECT_LT(static_cast<int>(got), static_cast<int>(level));
        EXPECT_FALSE(warning.empty());
    }
}

TEST(SimdDispatch, SetActiveLevelInstallsEverySupportedLevel)
{
    ScopedLevel guard;
    for (Level level : simd::supportedLevels()) {
        EXPECT_EQ(simd::setActiveLevel(level), level);
        EXPECT_EQ(simd::activeLevel(), level);
    }
    EXPECT_EQ(simd::supportedLevels().front(), Level::Word);
}

/**
 * The kernel table of every supported level. Installs each level in
 * turn, so the caller holds a ScopedLevel; the tables themselves are
 * static and are called directly.
 */
std::vector<const simd::KernelTable *>
supportedTables()
{
    std::vector<const simd::KernelTable *> tables;
    for (Level level : simd::supportedLevels()) {
        EXPECT_EQ(simd::setActiveLevel(level), level);
        tables.push_back(&simd::ops());
        EXPECT_EQ(tables.back()->level, level);
    }
    return tables;
}

/**
 * Byte plane whose lanes hit every ZDR case: zero lanes (encode's
 * highest-precedence rule), lanes equal to base^C and to base (the
 * decode collision corners), plus dense random filler.
 */
std::vector<std::uint8_t>
makeZdrPlane(std::size_t bytes, std::size_t lane,
             const std::vector<std::uint8_t> &base, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> plane(bytes);
    for (std::size_t off = 0; off < bytes; off += lane) {
        const std::uint64_t pick = rng.nextBounded(5);
        for (std::size_t b = 0; b < lane; ++b) {
            const std::uint8_t base_byte = base[off + b];
            // C has 0x40 in the lane's most-significant byte only.
            const std::uint8_t c_byte = b + 1 == lane ? 0x40 : 0x00;
            switch (pick) {
            case 0: plane[off + b] = 0; break;
            case 1: plane[off + b] = base_byte ^ c_byte; break;
            case 2: plane[off + b] = base_byte; break;
            case 3: plane[off + b] = c_byte; break;
            default:
                plane[off + b] = static_cast<std::uint8_t>(rng.next64());
            }
        }
    }
    return plane;
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (std::uint8_t &byte : out)
        byte = static_cast<std::uint8_t>(rng.next64());
    return out;
}

/** Sizes the range primitives are diffed at: vector-width multiples,
 *  sub-vector runs, and ragged tails for every register width. */
const std::vector<std::size_t> rangeSizes = {8,   16,  24,  32,  40,
                                             64,  72,  96,  128, 136,
                                             192, 256, 264, 512, 1024};

/** Byte-at-a-time set-bit count of @p bytes. */
std::uint64_t
refPopcount(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t count = 0;
    for (std::uint8_t byte : bytes)
        count += verify::refPopcountByte(byte);
    return count;
}

/** verify::refZdrLaneEncode over each @p lane-byte lane of @p in. */
std::vector<std::uint8_t>
refZdrEncode(const std::vector<std::uint8_t> &in,
             const std::vector<std::uint8_t> &base, std::size_t lane)
{
    std::vector<std::uint8_t> out;
    out.reserve(in.size());
    for (std::size_t off = 0; off < in.size(); off += lane) {
        const std::vector<std::uint8_t> encoded = verify::refZdrLaneEncode(
            {in.begin() + off, in.begin() + off + lane},
            {base.begin() + off, base.begin() + off + lane});
        out.insert(out.end(), encoded.begin(), encoded.end());
    }
    return out;
}

TEST(SimdKernels, RangePrimitivesMatchReferenceAtEveryLevel)
{
    ScopedLevel guard;
    const auto tables = supportedTables();
    std::uint64_t seed = 0x51D0;
    for (std::size_t n : rangeSizes) {
        const std::vector<std::uint8_t> base = randomBytes(n, seed++);
        const std::vector<std::uint8_t> in = randomBytes(n, seed++);
        const std::vector<std::uint8_t> xored = verify::refXorLane(in, base);
        const std::uint64_t ones = refPopcount(in);
        const std::uint64_t toggles = refPopcount(xored);

        for (const simd::KernelTable *ops : tables) {
            SCOPED_TRACE(simd::levelName(ops->level));
            std::vector<std::uint8_t> got(n);
            ops->xorRange(got.data(), in.data(), base.data(), n);
            EXPECT_EQ(got, xored) << "xorRange n=" << n;
            EXPECT_EQ(ops->popcountRange(in.data(), n), ones)
                << "popcountRange n=" << n;
            EXPECT_EQ(ops->popcountXorRange(in.data(), base.data(), n),
                      toggles)
                << "popcountXorRange n=" << n;
        }

        for (std::size_t lane : {2, 4, 8}) {
            if (n % lane != 0)
                continue;
            const std::vector<std::uint8_t> lanes =
                makeZdrPlane(n, lane, base, seed++);
            const std::vector<std::uint8_t> want =
                refZdrEncode(lanes, base, lane);
            for (const simd::KernelTable *ops : tables) {
                SCOPED_TRACE(simd::levelName(ops->level));
                const auto encode = lane == 2   ? ops->zdrEncode16
                                    : lane == 4 ? ops->zdrEncode32
                                                : ops->zdrEncode64;
                std::vector<std::uint8_t> got(n);
                encode(got.data(), lanes.data(), base.data(), n);
                EXPECT_EQ(got, want) << "zdrEncode lane=" << lane
                                     << " n=" << n;
            }
        }
    }
}

TEST(SimdKernels, DbiPlanePrimitivesMatchReferenceAtEveryLevel)
{
    ScopedLevel guard;
    const auto tables = supportedTables();
    std::uint64_t seed = 0xDB1;
    for (std::size_t group_bytes : {1, 2, 4, 8}) {
        for (std::size_t groups : {1, 3, 8, 31, 64, 129, 512}) {
            const std::size_t n = groups * group_bytes;
            const std::vector<std::uint8_t> plane = randomBytes(n, seed++);
            // One group per beat, so the reference's beat-major meta is
            // the plane layout: one 0/1 byte per group.
            const verify::RefEncoded want =
                verify::RefDbiCodec(group_bytes, group_bytes).encode(plane);

            for (const simd::KernelTable *ops : tables) {
                SCOPED_TRACE(simd::levelName(ops->level));
                std::vector<std::uint8_t> got = plane;
                std::vector<std::uint8_t> got_meta(groups, 0xcc);
                ops->dbiEncodePlane(got.data(), got_meta.data(), groups,
                                    group_bytes);
                EXPECT_EQ(got, want.payload) << "dbiEncodePlane gb="
                                             << group_bytes
                                             << " groups=" << groups;
                EXPECT_EQ(got_meta, want.meta)
                    << "dbi meta gb=" << group_bytes << " groups=" << groups;

                ops->dbiDecodePlane(got.data(), got_meta.data(), groups,
                                    group_bytes);
                EXPECT_EQ(got, plane) << "dbi round-trip gb=" << group_bytes
                                      << " groups=" << groups;
            }
        }
    }
}

/**
 * @p count transactions of @p tx_bytes whose @p unit-byte words hit every
 * ZDR corner against both base choices the codec-level primitives use
 * (the previous word, and the Universal fold's word j ^ msb(j)): zero,
 * C, base, base ^ C, plus random filler. Encoding such a plane puts
 * enc == C and enc == base words into the decoders' inputs.
 */
std::vector<std::uint8_t>
makeCodecPlane(std::size_t count, std::size_t tx_bytes, std::size_t unit,
               std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> plane(count * tx_bytes);
    for (std::uint8_t &byte : plane)
        byte = static_cast<std::uint8_t>(rng.next64());
    const std::size_t words = tx_bytes / unit;
    for (std::size_t t = 0; t < count; ++t) {
        std::uint8_t *tx = plane.data() + t * tx_bytes;
        for (std::size_t j = 1; j < words; ++j) {
            std::uint8_t *word = tx + j * unit;
            const std::size_t fold = j ^ (std::size_t{1} << log2Floor(j));
            const std::uint8_t *base =
                tx + (rng.nextBounded(2) == 0 ? j - 1 : fold) * unit;
            switch (rng.nextBounded(6)) {
            case 0:
                std::fill(word, word + unit, std::uint8_t{0});
                break;
            case 1: // C: 0x40 in the word's top byte
                std::fill(word, word + unit, std::uint8_t{0});
                word[unit - 1] = 0x40;
                break;
            case 2:
                std::copy(base, base + unit, word);
                break;
            case 3:
                std::copy(base, base + unit, word);
                word[unit - 1] ^= 0x40;
                break;
            default:
                break; // random
            }
        }
    }
    return plane;
}

/**
 * @p code applied to each @p tx_bytes transaction of @p plane in turn,
 * its results back to back: the reference codecs take one transaction
 * at a time.
 */
template <typename Code>
std::vector<std::uint8_t>
perTransaction(const std::vector<std::uint8_t> &plane, std::size_t tx_bytes,
               Code code)
{
    std::vector<std::uint8_t> out;
    out.reserve(plane.size());
    for (std::size_t off = 0; off < plane.size(); off += tx_bytes) {
        const std::vector<std::uint8_t> tx = code(std::vector<std::uint8_t>(
            plane.begin() + off, plane.begin() + off + tx_bytes));
        out.insert(out.end(), tx.begin(), tx.end());
    }
    return out;
}

/** Transaction sizes and counts the codec-level primitives are diffed
 *  at: every size from 8 to 256 bytes, and counts that leave tails in
 *  blocks of both 8 and 16 lanes. */
const std::vector<std::size_t> codecTxSizes = {8, 16, 32, 64, 128, 256};
constexpr std::size_t codecMaxCount = 40;

/** Run @p op out of place and in place; both must equal @p want. */
template <typename Op>
void
expectBothPlacements(const std::vector<std::uint8_t> &in,
                     const std::vector<std::uint8_t> &want, Op op,
                     const std::string &what)
{
    std::vector<std::uint8_t> got(in.size(), 0xa5);
    op(got.data(), in.data());
    EXPECT_EQ(got, want) << what << " (out of place)";
    std::vector<std::uint8_t> inplace = in;
    op(inplace.data(), inplace.data());
    EXPECT_EQ(inplace, want) << what << " (in place)";
}

TEST(SimdKernels, UniversalFoldMatchesReferenceAtEveryLevel)
{
    ScopedLevel guard;
    const auto tables = supportedTables();
    std::uint64_t seed = 0xF01D;
    for (std::size_t tx_bytes : codecTxSizes) {
        for (unsigned stages = 1; (tx_bytes >> stages) >= 2; ++stages) {
            if (stages > 5)
                break;
            for (std::size_t lane : {0, 2, 4, 8, 16}) {
                verify::RefUniversalXorCodec ref(stages, lane != 0,
                                                 lane != 0 ? lane : 4);
                for (std::size_t count = 0; count <= codecMaxCount;
                     ++count) {
                    const std::string what =
                        "tx=" + std::to_string(tx_bytes) +
                        " stages=" + std::to_string(stages) +
                        " lane=" + std::to_string(lane) +
                        " count=" + std::to_string(count);
                    const std::size_t unit = std::max<std::size_t>(
                        lane == 0 ? 4 : lane, tx_bytes >> stages);
                    const std::vector<std::uint8_t> plane = makeCodecPlane(
                        count, tx_bytes, std::min(unit, tx_bytes / 2),
                        seed++);
                    const std::vector<std::uint8_t> enc = perTransaction(
                        plane, tx_bytes,
                        [&](const std::vector<std::uint8_t> &tx) {
                            return ref.encode(tx).payload;
                        });
                    // Arbitrary words decode exactly as the reference
                    // does too, not only the encoder's outputs.
                    const std::vector<std::uint8_t> dec = perTransaction(
                        plane, tx_bytes,
                        [&](const std::vector<std::uint8_t> &tx) {
                            return ref.decode({tx, {}, 0});
                        });

                    for (const simd::KernelTable *ops : tables) {
                        SCOPED_TRACE(simd::levelName(ops->level));
                        expectBothPlacements(
                            plane, enc,
                            [&](std::uint8_t *o, const std::uint8_t *i) {
                                ops->universalFold(o, i, count, tx_bytes,
                                                   stages, lane);
                            },
                            "fold " + what);
                        expectBothPlacements(
                            enc, plane,
                            [&](std::uint8_t *o, const std::uint8_t *i) {
                                ops->universalUnfold(o, i, count, tx_bytes,
                                                     stages, lane);
                            },
                            "unfold round trip " + what);
                        expectBothPlacements(
                            plane, dec,
                            [&](std::uint8_t *o, const std::uint8_t *i) {
                                ops->universalUnfold(o, i, count, tx_bytes,
                                                     stages, lane);
                            },
                            "unfold " + what);
                    }
                }
            }
        }
    }
}

TEST(SimdKernels, BaseXorDecodeMatchesReferenceAtEveryLevel)
{
    ScopedLevel guard;
    const auto tables = supportedTables();
    std::uint64_t seed = 0xBA5E;
    for (std::size_t tx_bytes : codecTxSizes) {
        for (std::size_t base : {2, 4, 8, 16}) {
            if (base >= tx_bytes)
                continue;
            for (bool zdr : {false, true}) {
                verify::RefBaseXorCodec ref(base, zdr,
                                            /*adjacent_base=*/true);
                for (std::size_t count = 0; count <= codecMaxCount;
                     ++count) {
                    const std::string what =
                        "tx=" + std::to_string(tx_bytes) +
                        " base=" + std::to_string(base) +
                        " zdr=" + std::to_string(zdr) +
                        " count=" + std::to_string(count);
                    const std::vector<std::uint8_t> plane =
                        makeCodecPlane(count, tx_bytes, base, seed++);
                    const std::vector<std::uint8_t> enc = perTransaction(
                        plane, tx_bytes,
                        [&](const std::vector<std::uint8_t> &tx) {
                            return ref.encode(tx).payload;
                        });
                    const std::vector<std::uint8_t> dec = perTransaction(
                        plane, tx_bytes,
                        [&](const std::vector<std::uint8_t> &tx) {
                            return ref.decode({tx, {}, 0});
                        });

                    for (const simd::KernelTable *ops : tables) {
                        SCOPED_TRACE(simd::levelName(ops->level));
                        const auto decode = [&](std::uint8_t *o,
                                                const std::uint8_t *i) {
                            ops->baseXorDecode(o, i, count, tx_bytes, base,
                                               zdr);
                        };
                        expectBothPlacements(enc, plane, decode,
                                             "round trip " + what);
                        expectBothPlacements(plane, dec, decode,
                                             "decode " + what);
                    }
                }
            }
        }
    }
}

TEST(SimdKernels, BatchTalliesMatchPopcountBytesAtEveryLevel)
{
    ScopedLevel guard;
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        std::uint64_t seed = 0x7A11 + static_cast<std::uint64_t>(level);
        for (std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{17},
                                  std::size_t{136}}) {
            const std::vector<std::uint8_t> plane =
                randomBytes(count * 32, seed++);
            TxBatch batch(32, count);
            batch.append(plane.data(), count);
            EXPECT_EQ(batch.ones(), refPopcount(plane))
                << "count=" << count;

            // Meta bits of 0/1 bytes on a 3-wire, 5-beat geometry so the
            // plane length is not a multiple of any vector width.
            EncodedBatch enc;
            enc.configure(32, 3, 15);
            enc.resizeForOverwrite(count);
            const std::vector<std::uint8_t> payload =
                randomBytes(enc.payloadBytes(), seed++);
            std::copy(payload.begin(), payload.end(), enc.payloadData());
            std::vector<std::uint8_t> meta(count * 15);
            Rng rng(seed++);
            for (std::uint8_t &bit : meta)
                bit = static_cast<std::uint8_t>(rng.nextBounded(2));
            std::copy(meta.begin(), meta.end(), enc.metaData());
            EXPECT_EQ(enc.payloadOnes(), refPopcount(payload))
                << "count=" << count;
            EXPECT_EQ(enc.metaOnes(), refPopcount(meta))
                << "count=" << count;
        }
    }
}

/** Bytes past a bit-plane primitive's output, which it must not touch. */
constexpr std::size_t kGuardBytes = 16;
constexpr std::uint8_t kGuard = 0xcc;

/**
 * Packed-row widths the bit-plane primitives are diffed at: the tight
 * ceil(bits / 8) bytes (one contiguous plane when bits % 8 == 0) and
 * rows padded by one and by three bytes.
 */
std::vector<std::size_t>
bitRowBytes(std::size_t bits)
{
    const std::size_t tight = (bits + 7) / 8;
    return {tight, tight + 1, tight + 3};
}

/** @p n metadata values: about half zero, the rest any nonzero byte, so
 *  values that are nonzero but not 1 must still pack as 1. */
std::vector<std::uint8_t>
metaValues(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> values(n);
    for (std::uint8_t &value : values) {
        const std::uint64_t r = rng.next64();
        const auto nonzero = static_cast<std::uint8_t>(r >> 8);
        value = (r & 1) == 0 ? 0 : nonzero != 0 ? nonzero : 0x80;
    }
    return values;
}

/**
 * packBits by its definition, into a plane of @p count rows of
 * @p row_bytes followed by kGuardBytes of kGuard: value j of row r in
 * bit j % 8 of byte r * row_bytes + j / 8, padding bits and bytes zero,
 * the guard untouched.
 */
std::vector<std::uint8_t>
definedPack(const std::vector<std::uint8_t> &values, std::size_t count,
            std::size_t bits, std::size_t row_bytes)
{
    std::vector<std::uint8_t> packed(count * row_bytes + kGuardBytes,
                                     kGuard);
    std::fill_n(packed.begin(), count * row_bytes, std::uint8_t{0});
    for (std::size_t r = 0; r < count; ++r)
        for (std::size_t j = 0; j < bits; ++j)
            if (values[r * bits + j] != 0)
                packed[r * row_bytes + j / 8] |=
                    static_cast<std::uint8_t>(1u << (j % 8));
    return packed;
}

/** unpackBits by its definition: value j of row r is bit j % 8 of byte
 *  r * row_bytes + j / 8, then kGuardBytes of kGuard. */
std::vector<std::uint8_t>
definedUnpack(const std::vector<std::uint8_t> &packed, std::size_t count,
              std::size_t bits, std::size_t row_bytes)
{
    std::vector<std::uint8_t> values(count * bits + kGuardBytes, kGuard);
    for (std::size_t r = 0; r < count; ++r)
        for (std::size_t j = 0; j < bits; ++j)
            values[r * bits + j] = static_cast<std::uint8_t>(
                (packed[r * row_bytes + j / 8] >> (j % 8)) & 1u);
    return values;
}

TEST(SimdKernels, PackBitsMatchesReferenceAtEveryLevel)
{
    ScopedLevel guard;
    const auto tables = supportedTables();
    std::uint64_t seed = 0xB175;
    for (std::size_t bits = 1; bits <= 64; ++bits) {
        for (std::size_t row_bytes : bitRowBytes(bits)) {
            for (std::size_t count = 0; count <= 40; ++count) {
                const std::vector<std::uint8_t> values =
                    metaValues(count * bits, seed++);
                const std::vector<std::uint8_t> want =
                    definedPack(values, count, bits, row_bytes);
                for (const simd::KernelTable *ops : tables) {
                    SCOPED_TRACE(simd::levelName(ops->level));
                    std::vector<std::uint8_t> got(want.size(), kGuard);
                    ops->packBits(got.data(), values.data(), count, bits,
                                  row_bytes);
                    ASSERT_EQ(got, want)
                        << "bits=" << bits << " row_bytes=" << row_bytes
                        << " count=" << count;
                }
            }
        }
    }
}

TEST(SimdKernels, UnpackBitsMatchesReferenceAtEveryLevel)
{
    ScopedLevel guard;
    const auto tables = supportedTables();
    std::uint64_t seed = 0x0B17;
    for (std::size_t bits = 1; bits <= 64; ++bits) {
        for (std::size_t row_bytes : bitRowBytes(bits)) {
            for (std::size_t count = 0; count <= 40; ++count) {
                // Random packed rows, padding bits included: unpack
                // must ignore them.
                const std::vector<std::uint8_t> packed =
                    randomBytes(count * row_bytes, seed++);
                const std::vector<std::uint8_t> want =
                    definedUnpack(packed, count, bits, row_bytes);
                const std::size_t plane = count * bits;
                const std::vector<std::uint8_t> values =
                    metaValues(plane, seed++);
                for (const simd::KernelTable *ops : tables) {
                    SCOPED_TRACE(simd::levelName(ops->level));
                    std::vector<std::uint8_t> got(want.size(), kGuard);
                    ops->unpackBits(got.data(), packed.data(), count, bits,
                                    row_bytes);
                    ASSERT_EQ(got, want)
                        << "bits=" << bits << " row_bytes=" << row_bytes
                        << " count=" << count;

                    // Round trip: unpack(pack(v)) is v != 0.
                    std::vector<std::uint8_t> rows(count * row_bytes);
                    std::vector<std::uint8_t> back(plane);
                    ops->packBits(rows.data(), values.data(), count, bits,
                                  row_bytes);
                    ops->unpackBits(back.data(), rows.data(), count, bits,
                                    row_bytes);
                    for (std::size_t i = 0; i < plane; ++i)
                        ASSERT_EQ(back[i], values[i] != 0 ? 1u : 0u)
                            << "round trip value " << i;
                }
            }
        }
    }
}

TEST(SimdGolden, CorpusIsBitIdenticalAtEveryLevel)
{
    ScopedLevel guard;
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        for (unsigned wires : {32u, 64u}) {
            for (const std::string &spec : verify::goldenSpecs(wires)) {
                const std::string path =
                    std::string(BXT_GOLDEN_DIR) + "/" +
                    verify::goldenFileName(spec, wires);
                for (const std::string &diff :
                     verify::checkGoldenFileBatch(path))
                    ADD_FAILURE() << simd::levelName(level) << ": "
                                  << diff;
            }
        }
    }
}

TEST(SimdFuzz, BatchDifferentialHoldsAtEveryLevel)
{
    ScopedLevel guard;
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);

        // Smaller per-level budget than test_batch's campaign: the sweep
        // multiplies by the level count, and the per-primitive diffs
        // above already cover the lane algebra densely.
        verify::BatchFuzzOptions options;
        options.streamsPerSpec = 4;
        options.txPerStream = 64;
        options.batchSizes = {1, 7, 9, 17, 64};
        options.seed = 0x51D0F00D + static_cast<std::uint64_t>(level);

        const verify::BatchFuzzReport report =
            verify::runBatchDifferentialFuzz(options);
        EXPECT_GT(report.transactionsChecked, 0u);
        for (const verify::BatchFuzzFailure &failure : report.failures)
            ADD_FAILURE() << simd::levelName(level) << ": "
                          << failure.spec << " wires="
                          << failure.dataWires << " batch="
                          << failure.batchTx << " seed=" << failure.seed << ": "
                          << failure.violation.invariant << " "
                          << failure.violation.detail;
    }
}

} // namespace
} // namespace bxt
