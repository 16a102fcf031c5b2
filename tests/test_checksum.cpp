/**
 * @file
 * CRC32 known-answer tests. The wire CRC must be the standard IEEE
 * CRC-32 (zlib/PNG), not merely self-consistent: a wrong CRC computed
 * the same way on both ends of a connection would still round-trip, so
 * these tests pin its value against the published check value and an
 * in-test one-byte-per-step reference. crc32Update dispatches through
 * the SIMD kernel table, so every test runs at every dispatch level the
 * host supports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "core/simd/simd.h"

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

/** Bitwise CRC register step over one byte (pre-/post-inversion left to
 *  the caller). */
std::uint32_t
referenceStep(std::uint32_t crc, std::uint8_t byte)
{
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    return crc;
}

/** One byte per step with a bitwise inner loop and no tables: the
 *  reflected CRC-32 definition itself. */
std::uint32_t
referenceCrc32(const std::uint8_t *data, std::size_t n)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        crc = referenceStep(crc, data[i]);
    return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> bytes(n);
    for (std::uint8_t &b : bytes)
        b = static_cast<std::uint8_t>(rng.nextBounded(256));
    return bytes;
}

TEST(Crc32, KnownAnswers)
{
    ScopedLevel guard;
    constexpr std::string_view check = "123456789";
    // 64 and 1000 bytes reach the PCLMULQDQ fold on the x86 levels.
    const std::vector<std::uint8_t> zeros64(64, 0);
    const std::vector<std::uint8_t> ones1000(1000, 0xff);
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        EXPECT_EQ(
            crc32({reinterpret_cast<const std::uint8_t *>(check.data()),
                   check.size()}),
            0xcbf43926u);
        EXPECT_EQ(crc32({}), 0u);
        EXPECT_EQ(crc32(zeros64),
                  referenceCrc32(zeros64.data(), zeros64.size()));
        EXPECT_EQ(crc32(ones1000),
                  referenceCrc32(ones1000.data(), ones1000.size()));
    }
}

TEST(Crc32, EveryLengthAndAlignmentMatchesBytewiseReference)
{
    // Lengths 0-4096 from start offsets 0-15 cover the eight-byte loop
    // and the fold's 16-byte loads at every alignment, the fold's entry
    // at 64 bytes, and every 0-15-byte tail after it.
    constexpr std::size_t maxLen = 4096;
    constexpr std::size_t offsets = 16;
    ScopedLevel guard;
    const std::vector<std::uint8_t> bytes = randomBytes(maxLen + offsets, 1);
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        for (std::size_t offset = 0; offset < offsets; ++offset) {
            const std::uint8_t *start = bytes.data() + offset;
            // The reference advances one byte per length, so the whole
            // sweep costs one bitwise pass per offset.
            std::uint32_t reference = 0xffffffffu;
            for (std::size_t len = 0; len <= maxLen; ++len) {
                ASSERT_EQ(crc32({start, len}), reference ^ 0xffffffffu)
                    << "offset " << offset << ", length " << len;
                if (len < maxLen)
                    reference = referenceStep(reference, start[len]);
            }
        }
    }
}

TEST(Crc32, ChunkedUpdatesMatchOneShot)
{
    // Chunks up to 300 bytes reach the fold; the fixed splits sit just
    // below, at and above its 16-byte block and 64-byte entry.
    constexpr std::size_t edges[] = {15, 16, 63, 64, 65};
    ScopedLevel guard;
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        Rng rng(7);
        for (int round = 0; round < 200; ++round) {
            const std::size_t n = rng.nextBounded(4097);
            const std::vector<std::uint8_t> bytes =
                randomBytes(n, 100 + static_cast<std::uint64_t>(round));
            std::uint32_t running = crc32Init;
            std::size_t at = 0;
            while (at < n) {
                const std::size_t want =
                    rng.nextBounded(2) == 0
                        ? edges[rng.nextBounded(std::size(edges))]
                        : rng.nextBounded(301);
                const std::size_t chunk = std::min(n - at, want);
                running = crc32Update(running, {bytes.data() + at, chunk});
                at += chunk;
            }
            ASSERT_EQ(crc32Final(running), crc32(bytes))
                << "round " << round << ", length " << n;
        }
    }
}

} // namespace
} // namespace bxt
