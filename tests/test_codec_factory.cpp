/**
 * @file
 * Unit tests for the codec spec parser.
 */

#include <gtest/gtest.h>

#include "core/codec_factory.h"

namespace bxt {
namespace {

TEST(CodecFactory, ParsesBaseline)
{
    EXPECT_EQ(makeCodec("baseline")->name(), "baseline");
    EXPECT_EQ(makeCodec("identity")->name(), "baseline");
}

TEST(CodecFactory, ParsesXorVariants)
{
    EXPECT_EQ(makeCodec("xor4")->name(), "xor4");
    EXPECT_EQ(makeCodec("xor4+zdr")->name(), "xor4+zdr");
    EXPECT_EQ(makeCodec("xor8+zdr+fixed")->name(), "xor8+zdr(fixed)");
    EXPECT_EQ(makeCodec("xor2")->name(), "xor2");
    EXPECT_EQ(makeCodec("xor16")->name(), "xor16");
    EXPECT_EQ(makeCodec("xor04")->name(), "xor4");
}

TEST(CodecFactory, ParsesUniversal)
{
    EXPECT_EQ(makeCodec("universal")->name(), "universal3");
    EXPECT_EQ(makeCodec("universal4+zdr")->name(), "universal4+zdr");
}

TEST(CodecFactory, ParsesDbiAndBd)
{
    EXPECT_EQ(makeCodec("dbi1")->name(), "dbi1");
    EXPECT_EQ(makeCodec("dbi4")->name(), "dbi4");
    EXPECT_EQ(makeCodec("dbi-ac1")->name(), "dbi-ac1");
    EXPECT_EQ(makeCodec("dbi-ac4")->name(), "dbi-ac4");
    EXPECT_EQ(makeCodec("bd")->name(), "bd-encoding");
}

TEST(CodecFactory, ParsesPipelines)
{
    CodecPtr codec = makeCodec("universal3+zdr|dbi1");
    EXPECT_EQ(codec->name(), "universal3+zdr|dbi1");
    EXPECT_EQ(codec->metaWiresPerBeat(), 4u);
}

TEST(CodecFactory, BusBytesPropagates)
{
    EXPECT_EQ(makeCodec("dbi1", 8)->metaWiresPerBeat(), 8u);
    EXPECT_EQ(makeCodec("bd", 8)->metaWiresPerBeat(), 8u);
}

TEST(CodecFactory, ParsedCodecsRoundTrip)
{
    for (const std::string &spec : paperSchemeSpecs()) {
        CodecPtr codec = makeCodec(spec);
        Transaction tx = Transaction::fromWords32(
            {0x390c9bfb, 0x390c90f9, 0x390c88f8, 0x390c88f9,
             0x00000000, 0x390c78f9, 0x390c78f8, 0x390c70f9});
        const Encoded enc = codec->encode(tx);
        EXPECT_EQ(codec->decode(enc), tx) << spec;
    }
}

TEST(CodecFactory, PaperSchemeListShape)
{
    const auto specs = paperSchemeSpecs();
    EXPECT_EQ(specs.size(), 9u);
    EXPECT_EQ(specs.front(), "baseline");
    EXPECT_EQ(specs.back(), "bd");
}

TEST(CodecFactoryDeath, RejectsMalformedSpecs)
{
    EXPECT_EXIT(makeCodec(""), testing::ExitedWithCode(1), "empty spec");
    EXPECT_EXIT(makeCodec("xor3"), testing::ExitedWithCode(1),
                "base size");
    EXPECT_EXIT(makeCodec("universal9"), testing::ExitedWithCode(1),
                "stages");
    EXPECT_EXIT(makeCodec("dbi3"), testing::ExitedWithCode(1), "group");
    EXPECT_EXIT(makeCodec("frobnicate"), testing::ExitedWithCode(1),
                "unknown stage");
    EXPECT_EXIT(makeCodec("xor4+bogus"), testing::ExitedWithCode(1),
                "unknown flag");
    EXPECT_EXIT(makeCodec("bd+zdr"), testing::ExitedWithCode(1),
                "no flags");
    // Suffixes past 2^64 that a wrapping accumulator read as 4, 3 and 1.
    EXPECT_EXIT(makeCodec("xor18446744073709551620+zdr"),
                testing::ExitedWithCode(1), "base size");
    EXPECT_EXIT(makeCodec("universal18446744073709551619"),
                testing::ExitedWithCode(1), "stages");
    EXPECT_EXIT(makeCodec("dbi-ac18446744073709551617"),
                testing::ExitedWithCode(1), "group");
    EXPECT_EXIT(makeCodec("xor-4"), testing::ExitedWithCode(1), "base size");
}

} // namespace
} // namespace bxt
