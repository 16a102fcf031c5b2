/**
 * @file
 * Cli parser tests: both `--flag VALUE` and `--flag=VALUE` spellings,
 * boolean flags, positionals, the numeric value parsers, and the exit-2
 * error contract for unknown options, misuse and malformed numbers.
 * Death tests are unnecessary — parse() reports through its return
 * value and exitCode().
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.h"

namespace bxt {
namespace {

/** Build argv from string literals and run parse(). */
struct ParseResult
{
    bool ok = false;
    int exitCode = 0;
};

ParseResult
parseWith(Cli &cli, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (std::string &arg : args)
        argv.push_back(arg.data());
    ParseResult result;
    result.ok = cli.parse(static_cast<int>(argv.size()), argv.data());
    result.exitCode = cli.exitCode();
    return result;
}

TEST(Cli, SeparateValueForm)
{
    std::string seen;
    Cli cli("t", "test");
    cli.add("--spec", "S", "spec", [&](const std::string &v) { seen = v; });
    EXPECT_TRUE(parseWith(cli, {"--spec", "xor4+zdr"}).ok);
    EXPECT_EQ(seen, "xor4+zdr");
}

TEST(Cli, InlineEqualsValueForm)
{
    std::string seen;
    Cli cli("t", "test");
    cli.add("--spec", "S", "spec", [&](const std::string &v) { seen = v; });
    EXPECT_TRUE(parseWith(cli, {"--spec=universal3+zdr"}).ok);
    EXPECT_EQ(seen, "universal3+zdr");
}

TEST(Cli, InlineValueMayContainEquals)
{
    std::string seen;
    Cli cli("t", "test");
    cli.add("--filter", "F", "filter",
            [&](const std::string &v) { seen = v; });
    // Only the first '=' splits flag from value.
    EXPECT_TRUE(parseWith(cli, {"--filter=key=value"}).ok);
    EXPECT_EQ(seen, "key=value");
}

TEST(Cli, InlineValueMayBeEmpty)
{
    std::string seen = "unset";
    Cli cli("t", "test");
    cli.add("--out", "PATH", "path",
            [&](const std::string &v) { seen = v; });
    EXPECT_TRUE(parseWith(cli, {"--out="}).ok);
    EXPECT_EQ(seen, "");
}

TEST(Cli, BothFormsMixInOneInvocation)
{
    std::string a, b;
    int flag_hits = 0;
    Cli cli("t", "test");
    cli.add("--alpha", "A", "a", [&](const std::string &v) { a = v; });
    cli.add("--beta", "B", "b", [&](const std::string &v) { b = v; });
    cli.addFlag("--verbose", "v", [&] { ++flag_hits; });
    EXPECT_TRUE(
        parseWith(cli, {"--alpha=1", "--verbose", "--beta", "2"}).ok);
    EXPECT_EQ(a, "1");
    EXPECT_EQ(b, "2");
    EXPECT_EQ(flag_hits, 1);
}

TEST(Cli, BooleanFlagRejectsInlineValue)
{
    Cli cli("t", "test");
    cli.addFlag("--verbose", "v", [] {});
    const ParseResult result = parseWith(cli, {"--verbose=1"});
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exitCode, 2);
}

TEST(Cli, UnknownFlagExitsTwo)
{
    Cli cli("t", "test");
    const ParseResult result = parseWith(cli, {"--nope"});
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exitCode, 2);
}

TEST(Cli, UnknownFlagWithInlineValueExitsTwo)
{
    Cli cli("t", "test");
    const ParseResult result = parseWith(cli, {"--nope=3"});
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exitCode, 2);
}

TEST(Cli, MissingValueExitsTwo)
{
    Cli cli("t", "test");
    cli.add("--spec", "S", "spec", [](const std::string &) {});
    const ParseResult result = parseWith(cli, {"--spec"});
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exitCode, 2);
}

TEST(Cli, UnexpectedPositionalExitsTwo)
{
    Cli cli("t", "test");
    const ParseResult result = parseWith(cli, {"stray"});
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exitCode, 2);
}

TEST(Cli, RegisteredPositionalIsDelivered)
{
    std::vector<std::string> seen;
    Cli cli("t", "test");
    cli.addPositional("FILE", "input",
                      [&](const std::string &v) { seen.push_back(v); });
    EXPECT_TRUE(parseWith(cli, {"a.trace", "b.trace"}).ok);
    EXPECT_EQ(seen, (std::vector<std::string>{"a.trace", "b.trace"}));
}

TEST(Cli, HelpAndVersionExitZero)
{
    for (const char *flag : {"--help", "-h", "--version"}) {
        Cli cli("t", "test");
        const ParseResult result = parseWith(cli, {flag});
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.exitCode, 0) << flag;
    }
}

TEST(CliNumbers, DecimalTakesTheWholeTextInRange)
{
    long long value = 0;
    EXPECT_TRUE(parseDecimal("10", 0, 100, value));
    EXPECT_EQ(value, 10);
    EXPECT_TRUE(parseDecimal("-1", -1, 100, value));
    EXPECT_EQ(value, -1);
    EXPECT_TRUE(parseDecimal("007", 0, 100, value));
    EXPECT_EQ(value, 7);
    EXPECT_TRUE(parseDecimal("9223372036854775807", 0, LLONG_MAX, value));
    EXPECT_EQ(value, LLONG_MAX);
    // A typo'd letter O, a unit suffix, a sign or space, hex, a fraction,
    // nothing at all, out of range or overflowing: all refused.
    for (const char *bad : {"10O", "4x", "+1", " 1", "1 ", "0x10", "1.5",
                            "1e3", "", "-", "101", "-2",
                            "9223372036854775808"})
        EXPECT_FALSE(parseDecimal(bad, -1, 100, value)) << bad;
}

TEST(CliNumbers, UnsignedTakesHexOnlyWhenAllowed)
{
    std::uint64_t value = 0;
    EXPECT_TRUE(parseUnsigned("18446744073709551615", false, value));
    EXPECT_EQ(value, UINT64_MAX);
    EXPECT_TRUE(parseUnsigned("0xb8715eed", true, value));
    EXPECT_EQ(value, 0xb8715eedu);
    EXPECT_TRUE(parseUnsigned("0XFF", true, value));
    EXPECT_EQ(value, 255u);
    EXPECT_TRUE(parseUnsigned("010", true, value)); // decimal, not octal
    EXPECT_EQ(value, 10u);
    EXPECT_FALSE(parseUnsigned("0x10", false, value));
    for (const char *bad : {"0x", "0xg", "0x-1", "-1", "12z", "",
                            "18446744073709551616"})
        EXPECT_FALSE(parseUnsigned(bad, true, value)) << bad;
}

TEST(CliNumbers, RealTakesFiniteDecimalsInRange)
{
    double value = 0.0;
    EXPECT_TRUE(parseReal("0.25", 0.0, 1.0, value));
    EXPECT_EQ(value, 0.25);
    EXPECT_TRUE(parseReal("1e5", 0.0, 1e6, value));
    EXPECT_EQ(value, 1e5);
    EXPECT_TRUE(parseReal("-0.5", -1.0, 1.0, value));
    EXPECT_EQ(value, -0.5);
    for (const char *bad : {"0.3x", "abc", "", "1.5", "-0.1", "inf", "nan",
                            "0x1p-2", " 0.5", "1e999"})
        EXPECT_FALSE(parseReal(bad, 0.0, 1.0, value)) << bad;
}

TEST(CliNumbers, HostPortNeedsAHostAndAPortInRange)
{
    std::string host;
    int port = -1;
    EXPECT_TRUE(parseHostPort("127.0.0.1:0", host, port));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 0);
    EXPECT_TRUE(parseHostPort("::1:65535", host, port)); // last ':' splits
    EXPECT_EQ(host, "::1");
    EXPECT_EQ(port, 65535);
    for (const char *bad : {"localhost", ":80", "h:", "h:65536", "h:8o",
                            "h:-1"})
        EXPECT_FALSE(parseHostPort(bad, host, port)) << bad;
}

TEST(Cli, NumericOptionsStoreValidValues)
{
    unsigned shards = 0;
    int timeout = 0;
    double fraction = 0.0;
    Cli cli("t", "test");
    cli.addInt("--shards", "N", "shards", shards, 1, 256);
    cli.addInt("--timeout", "MS", "timeout", timeout, -1, INT_MAX);
    cli.addReal("--idle", "F", "fraction", fraction, 0.0, 1.0);
    EXPECT_TRUE(
        parseWith(cli, {"--shards", "4", "--timeout=-1", "--idle", "0.3"})
            .ok);
    EXPECT_EQ(shards, 4u);
    EXPECT_EQ(timeout, -1);
    EXPECT_EQ(fraction, 0.3);
}

TEST(Cli, MalformedNumbersExitTwoAndStopParsing)
{
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{{"--iters", "10O"},
                                               {"--iters=-1"},
                                               {"--depth", "0"},
                                               {"--depth", "4x"},
                                               {"--seconds", "1s"},
                                               {"--seconds", "-1"}}) {
        std::uint64_t iters = 7;
        std::size_t depth = 16;
        double seconds = 0.0;
        bool later = false;
        Cli cli("t", "test");
        cli.addInt("--iters", "N", "iterations", iters);
        cli.addInt("--depth", "D", "depth", depth, 1);
        cli.addReal("--seconds", "S", "budget", seconds);
        cli.addFlag("--later", "set after the bad value", [&] { later = true; });
        std::vector<std::string> argv = args;
        argv.push_back("--later");
        const ParseResult result = parseWith(cli, argv);
        EXPECT_FALSE(result.ok) << args[0];
        EXPECT_EQ(result.exitCode, 2) << args[0];
        EXPECT_FALSE(later) << args[0];
        EXPECT_EQ(iters, 7u);
        EXPECT_EQ(depth, 16u);
        EXPECT_EQ(seconds, 0.0);
    }
}

TEST(Cli, RejectFromAHandlerExitsTwo)
{
    std::uint64_t seed = 0;
    Cli cli("t", "test");
    cli.add("--seed", "X", "hex or decimal", [&](const std::string &v) {
        if (!parseUnsigned(v, true, seed))
            cli.reject("--seed", v, "hex or decimal");
    });
    EXPECT_TRUE(parseWith(cli, {"--seed", "0x2a"}).ok);
    EXPECT_EQ(seed, 42u);
    const ParseResult result = parseWith(cli, {"--seed", "0x2g"});
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exitCode, 2);
}

} // namespace
} // namespace bxt
