/**
 * @file
 * SIMD dispatch-layer suite: level parsing and BXT_SIMD resolution
 * semantics (invalid names fall back to scalar with a warning, never an
 * abort), per-primitive differential checks of every available kernel
 * table against the strict byte-loop scalar reference, and the golden
 * corpus plus the batch differential fuzzer replayed at every dispatch
 * level the host supports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "core/batch.h"
#include "core/simd/kernels.h"
#include "core/simd/simd.h"
#include "core/zdr.h"
#include "verify/batch_check.h"
#include "verify/golden.h"

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
    for (Level level :
         {Level::Scalar, Level::Word, Level::Avx2, Level::Avx512}) {
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
}

TEST(SimdDispatch, UnrecognizedEnvValueFallsBackToScalarWithWarning)
{
    // The BXT_SIMD contract: garbage must not abort the process — it
    // resolves to the scalar reference and says so on stderr.
    ASSERT_EQ(setenv("BXT_SIMD", "definitely-not-a-level", 1), 0);
    std::string warning;
    const Level level = simd::resolveRequestedLevel(
        std::getenv("BXT_SIMD"), &warning);
    EXPECT_EQ(level, Level::Scalar);
    EXPECT_FALSE(warning.empty());
    EXPECT_NE(warning.find("definitely-not-a-level"), std::string::npos);
    // And it is not treated as a forced level elsewhere (the bench sweep
    // keys off envForcedLevel to pin its level list).
    EXPECT_FALSE(simd::envForcedLevel().has_value());
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
    // Scalar and word are always installable, so a supported request
    // resolves verbatim and silently.
    std::string warning;
    EXPECT_EQ(simd::resolveRequestedLevel("scalar", &warning),
              Level::Scalar);
    EXPECT_TRUE(warning.empty());
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
    EXPECT_TRUE(simd::levelSupported(Level::Scalar));
    EXPECT_TRUE(simd::levelSupported(Level::Word));
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

TEST(SimdKernels, RangePrimitivesMatchScalarAtEveryLevel)
{
    const simd::KernelTable &ref = simd::detail::scalarTable();
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        const simd::KernelTable &ops = simd::ops();
        EXPECT_EQ(ops.level, level);

        std::uint64_t seed = 0x51D0 + static_cast<std::uint64_t>(level);
        for (std::size_t n : rangeSizes) {
            const std::vector<std::uint8_t> base = randomBytes(n, seed++);
            const std::vector<std::uint8_t> in = randomBytes(n, seed++);

            std::vector<std::uint8_t> got(n), want(n);
            ops.xorRange(got.data(), in.data(), base.data(), n);
            ref.xorRange(want.data(), in.data(), base.data(), n);
            EXPECT_EQ(got, want) << "xorRange n=" << n;

            EXPECT_EQ(ops.popcountRange(in.data(), n),
                      ref.popcountRange(in.data(), n))
                << "popcountRange n=" << n;
            EXPECT_EQ(ops.popcountXorRange(in.data(), base.data(), n),
                      ref.popcountXorRange(in.data(), base.data(), n))
                << "popcountXorRange n=" << n;

            struct ZdrCase
            {
                std::size_t lane;
                void (*enc)(std::uint8_t *, const std::uint8_t *,
                            const std::uint8_t *, std::size_t);
                void (*ref_enc)(std::uint8_t *, const std::uint8_t *,
                                const std::uint8_t *, std::size_t);
            };
            const ZdrCase cases[] = {
                {2, ops.zdrEncode16, ref.zdrEncode16},
                {4, ops.zdrEncode32, ref.zdrEncode32},
                {8, ops.zdrEncode64, ref.zdrEncode64},
            };
            for (const ZdrCase &zc : cases) {
                if (n % zc.lane != 0)
                    continue;
                const std::vector<std::uint8_t> lanes =
                    makeZdrPlane(n, zc.lane, base, seed++);
                zc.enc(got.data(), lanes.data(), base.data(), n);
                zc.ref_enc(want.data(), lanes.data(), base.data(), n);
                EXPECT_EQ(got, want)
                    << "zdrEncode lane=" << zc.lane << " n=" << n;
            }
        }
    }
}

TEST(SimdKernels, DbiPlanePrimitivesMatchScalarAtEveryLevel)
{
    const simd::KernelTable &ref = simd::detail::scalarTable();
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        const simd::KernelTable &ops = simd::ops();

        std::uint64_t seed = 0xDB1 + static_cast<std::uint64_t>(level);
        for (std::size_t group_bytes : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}, std::size_t{8}}) {
            for (std::size_t groups :
                 {std::size_t{1}, std::size_t{3}, std::size_t{8},
                  std::size_t{31}, std::size_t{64}, std::size_t{129},
                  std::size_t{512}}) {
                const std::size_t n = groups * group_bytes;
                const std::vector<std::uint8_t> plane =
                    randomBytes(n, seed++);

                std::vector<std::uint8_t> got = plane, want = plane;
                std::vector<std::uint8_t> got_meta(groups, 0xcc);
                std::vector<std::uint8_t> want_meta(groups, 0xcc);
                ops.dbiEncodePlane(got.data(), got_meta.data(), groups,
                                   group_bytes);
                ref.dbiEncodePlane(want.data(), want_meta.data(), groups,
                                   group_bytes);
                EXPECT_EQ(got, want) << "dbiEncodePlane gb=" << group_bytes
                                     << " groups=" << groups;
                EXPECT_EQ(got_meta, want_meta)
                    << "dbi meta gb=" << group_bytes
                    << " groups=" << groups;

                ops.dbiDecodePlane(got.data(), got_meta.data(), groups,
                                   group_bytes);
                EXPECT_EQ(got, plane)
                    << "dbi round-trip gb=" << group_bytes
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

/** Adjacent-base Base+XOR encode through core/zdr.h's lane helpers: the
 *  input the chain decoders are diffed on. */
std::vector<std::uint8_t>
encodeAdjacent(const std::vector<std::uint8_t> &plane, std::size_t tx_bytes,
               std::size_t base_bytes, bool zdr)
{
    std::vector<std::uint8_t> out = plane;
    for (std::size_t t = 0; t * tx_bytes < plane.size(); ++t) {
        const std::uint8_t *src = plane.data() + t * tx_bytes;
        std::uint8_t *dst = out.data() + t * tx_bytes;
        for (std::size_t off = base_bytes; off < tx_bytes; off += base_bytes)
            (zdr ? zdrLaneEncode : xorLaneEncode)(
                dst + off, src + off, src + off - base_bytes, base_bytes);
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

TEST(SimdKernels, UniversalFoldMatchesScalarAtEveryLevel)
{
    ScopedLevel guard;
    const simd::KernelTable &ref = simd::detail::scalarTable();
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        const simd::KernelTable &ops = simd::ops();
        std::uint64_t seed = 0xF01D + static_cast<std::uint64_t>(level);
        for (std::size_t tx_bytes : codecTxSizes) {
            for (unsigned stages = 1; (tx_bytes >> stages) >= 2; ++stages) {
                if (stages > 5)
                    break;
                for (std::size_t lane : {std::size_t{0}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8},
                                         std::size_t{16}}) {
                    for (std::size_t count = 0; count <= codecMaxCount;
                         ++count) {
                        const std::string what =
                            "tx=" + std::to_string(tx_bytes) +
                            " stages=" + std::to_string(stages) +
                            " lane=" + std::to_string(lane) +
                            " count=" + std::to_string(count);
                        const std::size_t unit = std::max<std::size_t>(
                            lane == 0 ? 4 : lane, tx_bytes >> stages);
                        const std::vector<std::uint8_t> plane =
                            makeCodecPlane(count, tx_bytes,
                                           std::min(unit, tx_bytes / 2),
                                           seed++);

                        std::vector<std::uint8_t> enc(plane.size());
                        ref.universalFold(enc.data(), plane.data(), count,
                                          tx_bytes, stages, lane);
                        expectBothPlacements(
                            plane, enc,
                            [&](std::uint8_t *o, const std::uint8_t *i) {
                                ops.universalFold(o, i, count, tx_bytes,
                                                  stages, lane);
                            },
                            "fold " + what);
                        expectBothPlacements(
                            enc, plane,
                            [&](std::uint8_t *o, const std::uint8_t *i) {
                                ops.universalUnfold(o, i, count, tx_bytes,
                                                    stages, lane);
                            },
                            "unfold round trip " + what);

                        // Arbitrary words decode exactly as the reference
                        // does too, not only the encoder's outputs.
                        std::vector<std::uint8_t> dec(plane.size());
                        ref.universalUnfold(dec.data(), plane.data(), count,
                                            tx_bytes, stages, lane);
                        expectBothPlacements(
                            plane, dec,
                            [&](std::uint8_t *o, const std::uint8_t *i) {
                                ops.universalUnfold(o, i, count, tx_bytes,
                                                    stages, lane);
                            },
                            "unfold " + what);
                    }
                }
            }
        }
    }
}

TEST(SimdKernels, BaseXorDecodeMatchesScalarAtEveryLevel)
{
    ScopedLevel guard;
    const simd::KernelTable &ref = simd::detail::scalarTable();
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        const simd::KernelTable &ops = simd::ops();
        std::uint64_t seed = 0xBA5E + static_cast<std::uint64_t>(level);
        for (std::size_t tx_bytes : codecTxSizes) {
            for (std::size_t base : {std::size_t{2}, std::size_t{4},
                                     std::size_t{8}, std::size_t{16}}) {
                if (base >= tx_bytes)
                    continue;
                for (bool zdr : {false, true}) {
                    for (std::size_t count = 0; count <= codecMaxCount;
                         ++count) {
                        const std::string what =
                            "tx=" + std::to_string(tx_bytes) +
                            " base=" + std::to_string(base) +
                            " zdr=" + std::to_string(zdr) +
                            " count=" + std::to_string(count);
                        const std::vector<std::uint8_t> plane =
                            makeCodecPlane(count, tx_bytes, base, seed++);
                        const std::vector<std::uint8_t> enc =
                            encodeAdjacent(plane, tx_bytes, base, zdr);
                        expectBothPlacements(
                            enc, plane,
                            [&](std::uint8_t *o, const std::uint8_t *i) {
                                ops.baseXorDecode(o, i, count, tx_bytes,
                                                  base, zdr);
                            },
                            "round trip " + what);

                        std::vector<std::uint8_t> dec(plane.size());
                        ref.baseXorDecode(dec.data(), plane.data(), count,
                                          tx_bytes, base, zdr);
                        expectBothPlacements(
                            plane, dec,
                            [&](std::uint8_t *o, const std::uint8_t *i) {
                                ops.baseXorDecode(o, i, count, tx_bytes,
                                                  base, zdr);
                            },
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
            EXPECT_EQ(batch.ones(), popcountBytes(plane))
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
            EXPECT_EQ(enc.payloadOnes(), popcountBytes(payload))
                << "count=" << count;
            EXPECT_EQ(enc.metaOnes(), popcountBytes(meta))
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

TEST(SimdKernels, PackBitsMatchesScalarAtEveryLevel)
{
    ScopedLevel guard;
    const simd::KernelTable &ref = simd::detail::scalarTable();
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        const simd::KernelTable &ops = simd::ops();
        std::uint64_t seed = 0xB175 + static_cast<std::uint64_t>(level);
        for (std::size_t bits = 1; bits <= 64; ++bits) {
            for (std::size_t row_bytes : bitRowBytes(bits)) {
                for (std::size_t count = 0; count <= 40; ++count) {
                    const std::vector<std::uint8_t> values =
                        metaValues(count * bits, seed++);
                    const std::size_t plane = count * row_bytes;
                    std::vector<std::uint8_t> got(plane + kGuardBytes,
                                                  kGuard);
                    std::vector<std::uint8_t> want = got;
                    ops.packBits(got.data(), values.data(), count, bits,
                                 row_bytes);
                    ref.packBits(want.data(), values.data(), count, bits,
                                 row_bytes);
                    ASSERT_EQ(got, want)
                        << "bits=" << bits << " row_bytes=" << row_bytes
                        << " count=" << count;
                    // The reference itself (checked once): value j of row
                    // r in bit j % 8 of byte j / 8, padding zero, the
                    // guard untouched.
                    if (level != Level::Scalar)
                        continue;
                    for (std::size_t r = 0; r < count; ++r) {
                        for (std::size_t j = 0; j < row_bytes * 8; ++j) {
                            const bool set =
                                (want[r * row_bytes + j / 8] >> (j % 8)) & 1u;
                            const bool value =
                                j < bits && values[r * bits + j] != 0;
                            ASSERT_EQ(set, value)
                                << "bits=" << bits << " row=" << r
                                << " bit=" << j;
                        }
                    }
                    for (std::size_t g = plane; g < want.size(); ++g)
                        ASSERT_EQ(want[g], kGuard);
                }
            }
        }
    }
}

TEST(SimdKernels, UnpackBitsMatchesScalarAtEveryLevel)
{
    ScopedLevel guard;
    const simd::KernelTable &ref = simd::detail::scalarTable();
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        const simd::KernelTable &ops = simd::ops();
        std::uint64_t seed = 0x0B17 + static_cast<std::uint64_t>(level);
        for (std::size_t bits = 1; bits <= 64; ++bits) {
            for (std::size_t row_bytes : bitRowBytes(bits)) {
                for (std::size_t count = 0; count <= 40; ++count) {
                    // Random packed rows, padding bits included: unpack
                    // must ignore them.
                    const std::vector<std::uint8_t> packed =
                        randomBytes(count * row_bytes, seed++);
                    const std::size_t plane = count * bits;
                    std::vector<std::uint8_t> got(plane + kGuardBytes,
                                                  kGuard);
                    std::vector<std::uint8_t> want = got;
                    ops.unpackBits(got.data(), packed.data(), count, bits,
                                   row_bytes);
                    ref.unpackBits(want.data(), packed.data(), count, bits,
                                   row_bytes);
                    ASSERT_EQ(got, want)
                        << "bits=" << bits << " row_bytes=" << row_bytes
                        << " count=" << count;
                    for (std::size_t i = 0; i < plane; ++i)
                        ASSERT_LE(got[i], 1u) << "value " << i;
                    for (std::size_t g = plane; g < got.size(); ++g)
                        ASSERT_EQ(got[g], kGuard) << "wrote past the plane";

                    // Round trip: unpack(pack(v)) is v != 0.
                    const std::vector<std::uint8_t> values =
                        metaValues(plane, seed++);
                    std::vector<std::uint8_t> rows(count * row_bytes);
                    std::vector<std::uint8_t> back(plane);
                    ops.packBits(rows.data(), values.data(), count, bits,
                                 row_bytes);
                    ops.unpackBits(back.data(), rows.data(), count, bits,
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
