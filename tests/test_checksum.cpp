/**
 * @file
 * CRC32 known-answer tests. The wire CRC must be the standard IEEE
 * CRC-32 (zlib/PNG), not merely self-consistent: a wrong CRC computed
 * the same way on both ends of a connection would still round-trip, so
 * these tests pin its value against the published check value and an
 * in-test one-byte-per-step reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"

namespace bxt {
namespace {

/** One byte per step with a bitwise inner loop and no tables: the
 *  reflected CRC-32 definition itself. */
std::uint32_t
referenceCrc32(const std::uint8_t *data, std::size_t n)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
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
    constexpr std::string_view check = "123456789";
    EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t *>(check.data()),
                     check.size()}),
              0xcbf43926u);
    EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, EveryLengthAndAlignmentMatchesBytewiseReference)
{
    // Lengths 0-300 from start offsets 0-7 cover the eight-byte loop at
    // every alignment with every tail length (0-7 bytes).
    const std::vector<std::uint8_t> bytes = randomBytes(300 + 8, 1);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 300; ++len) {
            const std::uint8_t *start = bytes.data() + offset;
            ASSERT_EQ(crc32({start, len}), referenceCrc32(start, len))
                << "offset " << offset << ", length " << len;
        }
    }
}

TEST(Crc32, ChunkedUpdatesMatchOneShot)
{
    Rng rng(7);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = rng.nextBounded(4097);
        const std::vector<std::uint8_t> bytes =
            randomBytes(n, 100 + static_cast<std::uint64_t>(round));
        std::uint32_t running = crc32Init;
        std::size_t at = 0;
        while (at < n) {
            const std::size_t chunk =
                std::min<std::size_t>(n - at, rng.nextBounded(40));
            running = crc32Update(running, {bytes.data() + at, chunk});
            at += chunk;
        }
        ASSERT_EQ(crc32Final(running), crc32(bytes))
            << "round " << round << ", length " << n;
    }
}

} // namespace
} // namespace bxt
