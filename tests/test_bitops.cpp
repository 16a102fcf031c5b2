/**
 * @file
 * Unit tests for common/bitops.h.
 */

#include <gtest/gtest.h>

#include <array>

#include "common/bitops.h"

namespace bxt {
namespace {

TEST(Popcount64, Basics)
{
    EXPECT_EQ(popcount64(0), 0);
    EXPECT_EQ(popcount64(1), 1);
    EXPECT_EQ(popcount64(0xffffffffffffffffull), 64);
    EXPECT_EQ(popcount64(0x8000000000000001ull), 2);
    EXPECT_EQ(popcount64(0x5555555555555555ull), 32);
}

/** Bit-at-a-time reference, independent of popcount64's reduction. */
int
bitLoopCount(std::uint64_t value)
{
    int count = 0;
    for (; value != 0; value >>= 1)
        count += static_cast<int>(value & 1u);
    return count;
}

TEST(Popcount64, MatchesBitLoopOnKnownAndRandomWords)
{
    EXPECT_EQ(popcount64(0), bitLoopCount(0));
    EXPECT_EQ(popcount64(~std::uint64_t{0}), bitLoopCount(~std::uint64_t{0}));
    for (unsigned bit = 0; bit < 64; ++bit) {
        const std::uint64_t single = std::uint64_t{1} << bit;
        EXPECT_EQ(popcount64(single), 1) << "bit " << bit;
        EXPECT_EQ(popcount64(~single), 63) << "all but bit " << bit;
    }
    // splitmix64 stream: dense, sparse and mixed words alike.
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 4096; ++i) {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        for (const std::uint64_t word : {z, z & (z >> 7), z | (z << 3)})
            EXPECT_EQ(popcount64(word), bitLoopCount(word)) << word;
    }
}

TEST(PopcountBytes, EmptyIsZero)
{
    EXPECT_EQ(popcountBytes({}), 0u);
}

TEST(PopcountBytes, CountsAcrossWordBoundary)
{
    // 11 bytes: exercises both the 8-byte fast path and the byte tail.
    std::array<std::uint8_t, 11> bytes{};
    bytes.fill(0x0f); // 4 ones per byte.
    EXPECT_EQ(popcountBytes(bytes), 44u);
}

TEST(PopcountBytes, MatchesPerByteSum)
{
    std::array<std::uint8_t, 32> bytes{};
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 37);
    std::size_t expected = 0;
    for (std::uint8_t b : bytes)
        expected += static_cast<std::size_t>(popcount64(b));
    EXPECT_EQ(popcountBytes(bytes), expected);
}

TEST(IsPowerOfTwo, Basics)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(65));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
}

TEST(Log2Floor, Basics)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(32), 5u);
    EXPECT_EQ(log2Floor(63), 5u);
    EXPECT_EQ(log2Floor(64), 6u);
}

TEST(WordAccess, RoundTrip64)
{
    std::array<std::uint8_t, 16> buffer{};
    storeWord64(buffer.data() + 3, 0x0123456789abcdefull); // Unaligned.
    EXPECT_EQ(loadWord64(buffer.data() + 3), 0x0123456789abcdefull);
}

TEST(WordAccess, RoundTrip32)
{
    std::array<std::uint8_t, 8> buffer{};
    storeWord32(buffer.data() + 1, 0xdeadbeefu);
    EXPECT_EQ(loadWord32(buffer.data() + 1), 0xdeadbeefu);
}

TEST(WordAccess, LittleEndianLayout)
{
    std::array<std::uint8_t, 4> buffer{};
    storeWord32(buffer.data(), 0x390c9bfbu);
    EXPECT_EQ(buffer[0], 0xfb);
    EXPECT_EQ(buffer[1], 0x9b);
    EXPECT_EQ(buffer[2], 0x0c);
    EXPECT_EQ(buffer[3], 0x39);
}

TEST(XorBytes, XorsInPlace)
{
    std::array<std::uint8_t, 12> dst{};
    std::array<std::uint8_t, 12> src{};
    for (std::size_t i = 0; i < dst.size(); ++i) {
        dst[i] = static_cast<std::uint8_t>(i);
        src[i] = static_cast<std::uint8_t>(0xf0 | i);
    }
    xorBytes(dst.data(), src.data(), dst.size());
    for (std::size_t i = 0; i < dst.size(); ++i)
        EXPECT_EQ(dst[i], static_cast<std::uint8_t>(i ^ (0xf0 | i)));
}

TEST(XorBytes, SelfXorGivesZero)
{
    std::array<std::uint8_t, 16> data{};
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 11 + 1);
    xorBytes(data.data(), data.data(), data.size());
    EXPECT_TRUE(allZero(data.data(), data.size()));
}

TEST(AllZero, DetectsNonZeroInTail)
{
    std::array<std::uint8_t, 13> data{};
    EXPECT_TRUE(allZero(data.data(), data.size()));
    data[12] = 1; // Last byte: exercises the tail loop.
    EXPECT_FALSE(allZero(data.data(), data.size()));
    data[12] = 0;
    data[3] = 1; // Within the first word.
    EXPECT_FALSE(allZero(data.data(), data.size()));
}

TEST(BytesEqual, Basics)
{
    std::array<std::uint8_t, 8> a{1, 2, 3, 4, 5, 6, 7, 8};
    std::array<std::uint8_t, 8> b = a;
    EXPECT_TRUE(bytesEqual(a.data(), b.data(), 8));
    b[7] = 9;
    EXPECT_FALSE(bytesEqual(a.data(), b.data(), 8));
}

TEST(HammingDistance, Basics)
{
    std::array<std::uint8_t, 10> a{};
    std::array<std::uint8_t, 10> b{};
    EXPECT_EQ(hammingDistance(a.data(), b.data(), a.size()), 0u);
    b[0] = 0xff;
    b[9] = 0x01; // Tail byte.
    EXPECT_EQ(hammingDistance(a.data(), b.data(), a.size()), 9u);
}

} // namespace
} // namespace bxt
