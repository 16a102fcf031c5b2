/**
 * @file
 * Unit tests for the .bxtrace binary trace file format.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "workloads/trace.h"

#include "temp_path.h"

namespace bxt {
namespace {

std::string
tempPath(const char *name)
{
    return uniqueTempPath(name).string();
}

Trace
makeTrace(std::size_t count, std::size_t tx_bytes)
{
    Trace trace;
    trace.name = "unit-test";
    Rng rng(7);
    for (std::size_t i = 0; i < count; ++i) {
        Transaction tx(tx_bytes);
        for (std::size_t off = 0; off < tx_bytes; off += 8)
            tx.setWord64(off, rng.next64());
        trace.txs.push_back(tx);
    }
    return trace;
}

TEST(TraceIo, SaveLoadRoundTrip)
{
    const Trace original = makeTrace(50, 32);
    const std::string path = tempPath("roundtrip.bxtrace");
    ASSERT_TRUE(saveTrace(original, path));

    const Trace loaded = loadTrace(path);
    EXPECT_EQ(loaded.name, original.name);
    ASSERT_EQ(loaded.txs.size(), original.txs.size());
    for (std::size_t i = 0; i < loaded.txs.size(); ++i)
        EXPECT_EQ(loaded.txs[i], original.txs[i]);
    std::remove(path.c_str());
}

TEST(TraceIo, SupportsCpuSizedTransactions)
{
    const Trace original = makeTrace(10, 64);
    const std::string path = tempPath("cpu.bxtrace");
    ASSERT_TRUE(saveTrace(original, path));
    const Trace loaded = loadTrace(path);
    EXPECT_EQ(loaded.txBytes(), 64u);
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTrace)
{
    Trace empty;
    empty.name = "empty";
    const std::string path = tempPath("empty.bxtrace");
    ASSERT_TRUE(saveTrace(empty, path));
    const Trace loaded = loadTrace(path);
    EXPECT_EQ(loaded.name, "empty");
    EXPECT_TRUE(loaded.txs.empty());
    EXPECT_EQ(loaded.txBytes(), 0u);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileReturnsEmpty)
{
    const Trace loaded = loadTrace(tempPath("does-not-exist.bxtrace"));
    EXPECT_TRUE(loaded.name.empty());
    EXPECT_TRUE(loaded.txs.empty());
}

TEST(TraceIo, SaveToUnwritablePathFails)
{
    EXPECT_FALSE(saveTrace(makeTrace(1, 32), "/nonexistent-dir/x.bxtrace"));
}

TEST(TraceIoDeath, RejectsCorruptMagic)
{
    const std::string path = tempPath("corrupt.bxtrace");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOT A TRACE FILE AT ALL", f);
    std::fclose(f);
    EXPECT_EXIT(loadTrace(path), testing::ExitedWithCode(1), "bad magic");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, RejectsTruncatedPayload)
{
    const Trace original = makeTrace(8, 32);
    const std::string path = tempPath("truncated.bxtrace");
    ASSERT_TRUE(saveTrace(original, path));
    // Chop the file short: the header-vs-file-size validation catches the
    // mismatch before any record is read.
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size - 16), 0);
    EXPECT_EXIT(loadTrace(path), testing::ExitedWithCode(1),
                "count exceeds file size");
    std::remove(path.c_str());
}

/** Overwrite @p n bytes at @p offset of the file at @p path. */
void
patchFile(const std::string &path, long offset, const void *bytes,
          std::size_t n)
{
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, n, f), n);
    std::fclose(f);
}

TEST(TraceIoDeath, RejectsEmptyFile)
{
    const std::string path = tempPath("zero-bytes.bxtrace");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    EXPECT_EXIT(loadTrace(path), testing::ExitedWithCode(1), "bad magic");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, RejectsTruncatedHeader)
{
    // Magic and version only, cut before the size/count/name fields.
    const std::string path = tempPath("short-header.bxtrace");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char magic_and_version[8] = {'B', 'X', 'T', 'R', 1, 0, 0, 0};
    ASSERT_EQ(std::fwrite(magic_and_version, 1, 8, f), 8u);
    std::fclose(f);
    EXPECT_EXIT(loadTrace(path), testing::ExitedWithCode(1),
                "truncated header");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, RejectsOversizedCountField)
{
    // A count field claiming ~10^18 transactions must die with a
    // diagnostic, not attempt the allocation. Count lives at offset 12.
    const std::string path = tempPath("huge-count.bxtrace");
    ASSERT_TRUE(saveTrace(makeTrace(4, 32), path));
    const std::uint64_t huge = 0x0de0b6b3a7640000ull;
    patchFile(path, 12, &huge, sizeof(huge));
    EXPECT_EXIT(loadTrace(path), testing::ExitedWithCode(1),
                "count exceeds file size");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, RejectsOversizedNameLength)
{
    // A 4 GiB name length in a tiny file. Name length lives at offset 20.
    const std::string path = tempPath("huge-name.bxtrace");
    ASSERT_TRUE(saveTrace(makeTrace(4, 32), path));
    const std::uint32_t huge = 0xffffffffu;
    patchFile(path, 20, &huge, sizeof(huge));
    EXPECT_EXIT(loadTrace(path), testing::ExitedWithCode(1),
                "oversized name length");
    std::remove(path.c_str());
}

TEST(TraceIo, SaveLeavesNoTemporaryBehind)
{
    const std::string path = tempPath("atomic.bxtrace");
    ASSERT_TRUE(saveTrace(makeTrace(4, 32), path));
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr) << "temporary survived a successful save";
    if (tmp != nullptr)
        std::fclose(tmp);
    std::remove(path.c_str());
}

TEST(TraceIo, FailedSaveLeavesOldFileIntact)
{
    // Overwriting an existing trace with an unsaveable one (mixed
    // transaction sizes) must leave the original readable: the write
    // goes to the .tmp sibling and never reaches the target.
    const std::string path = tempPath("preserved.bxtrace");
    ASSERT_TRUE(saveTrace(makeTrace(3, 32), path));

    Trace mixed = makeTrace(2, 32);
    mixed.txs.push_back(Transaction(64));
    EXPECT_FALSE(saveTrace(mixed, path));

    Trace still_there;
    std::string err;
    ASSERT_TRUE(tryLoadTrace(path, still_there, err)) << err;
    EXPECT_EQ(still_there.txs.size(), 3u);
    std::remove(path.c_str());
}

TEST(TraceIo, TryLoadReportsMissingFile)
{
    Trace out;
    std::string err;
    EXPECT_FALSE(tryLoadTrace(tempPath("nope.bxtrace"), out, err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
    EXPECT_TRUE(out.txs.empty());
}

TEST(TraceIo, TryLoadReportsMalformedContentWithoutDying)
{
    const std::string path = tempPath("try-corrupt.bxtrace");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOT A TRACE FILE AT ALL", f);
    std::fclose(f);

    Trace out;
    std::string err;
    EXPECT_FALSE(tryLoadTrace(path, out, err));
    EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
    EXPECT_TRUE(out.txs.empty());
    std::remove(path.c_str());
}

TEST(TraceIo, TryLoadRoundTrips)
{
    const Trace original = makeTrace(6, 32);
    const std::string path = tempPath("try-ok.bxtrace");
    ASSERT_TRUE(saveTrace(original, path));

    Trace out;
    std::string err;
    ASSERT_TRUE(tryLoadTrace(path, out, err)) << err;
    EXPECT_EQ(out.name, original.name);
    ASSERT_EQ(out.txs.size(), original.txs.size());
    for (std::size_t i = 0; i < out.txs.size(); ++i)
        EXPECT_EQ(out.txs[i], original.txs[i]);
    std::remove(path.c_str());
}

TEST(TraceIoDeath, RejectsNonPowerOfTwoTransactionSize)
{
    // tx_bytes = 24 passes a naive range check but is not a Transaction
    // size; it must be a fatal() user error, not an assert. Offset 8.
    const std::string path = tempPath("bad-size.bxtrace");
    ASSERT_TRUE(saveTrace(makeTrace(4, 32), path));
    const std::uint32_t bad = 24;
    patchFile(path, 8, &bad, sizeof(bad));
    EXPECT_EXIT(loadTrace(path), testing::ExitedWithCode(1),
                "bad transaction size");
    std::remove(path.c_str());
}

} // namespace
} // namespace bxt
