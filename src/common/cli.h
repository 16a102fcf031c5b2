/**
 * @file
 * Tiny shared command-line parser for the repo's tools and benches
 * (`bxt_fuzz`, `gen_golden`, `bxt_report`, the fig benches). Provides
 * `--help`/`--version` uniformly and rejects unknown flags and
 * malformed numeric values with exit code 2 instead of silently
 * ignoring them.
 */

#ifndef BXT_COMMON_CLI_H
#define BXT_COMMON_CLI_H

#include <climits>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace bxt {

/** Library version string reported by every tool's `--version`. */
extern const char *const versionString;

/**
 * Parse all of @p text as a whole decimal number (an optional '-', then
 * digits and nothing else) in [@p lo, @p hi]; false otherwise.
 */
bool parseDecimal(std::string_view text, long long lo, long long hi,
                  long long &value);

/**
 * Parse all of @p text as an unsigned 64-bit number: decimal digits, or
 * with @p allow_hex also "0x"/"0X" followed by hex digits; false
 * otherwise.
 */
bool parseUnsigned(std::string_view text, bool allow_hex,
                   std::uint64_t &value);

/**
 * Parse all of @p text as a finite decimal real number ("0.25", "1e6")
 * in [@p lo, @p hi]; false otherwise. Independent of the C locale.
 */
bool parseReal(std::string_view text, double lo, double hi, double &value);

/**
 * Split "HOST:PORT" at its last ':' into a non-empty @p host and a
 * decimal @p port in 0..65535; false otherwise.
 */
bool parseHostPort(const std::string &text, std::string &host, int &port);

/**
 * Declarative flag parser. Register options, then call parse(); the
 * parser handles `--help`/`-h` and `--version` itself and reports
 * unknown flags or missing values on stderr.
 *
 * Typical use:
 *
 *   Cli cli("bxt_report", "pretty-print and diff metrics snapshots");
 *   cli.add("--diff", "B", "diff against snapshot B",
 *           [&](const std::string &v) { diff_path = v; });
 *   if (!cli.parse(argc, argv))
 *       return cli.exitCode();
 */
class Cli
{
  public:
    Cli(std::string prog, std::string summary);

    /**
     * Option taking one value (`--flag VALUE` or `--flag=VALUE`).
     * Repeatable by caller.
     */
    void add(const std::string &flag, const std::string &value_name,
             const std::string &help,
             std::function<void(const std::string &)> handler);

    /** Boolean option (`--flag`). */
    void addFlag(const std::string &flag, const std::string &help,
                 std::function<void()> handler);

    /**
     * Option taking a whole decimal number in [@p lo, @p hi] (by default
     * whatever @p target's type holds, from 0), stored in @p target.
     * Any other value is rejected as by reject().
     */
    template <typename Int>
    void addInt(const std::string &flag, const std::string &value_name,
                const std::string &help, Int &target, long long lo = 0,
                long long hi = maxOf<Int>())
    {
        add(flag, value_name, help,
            [this, flag, lo, hi, &target](const std::string &v) {
                long long n = 0;
                if (parseDecimal(v, lo, hi, n))
                    target = static_cast<Int>(n);
                else
                    reject(flag, v, intRange(lo, hi));
            });
    }

    /**
     * Option taking a finite real number in [@p lo, @p hi], stored in
     * @p target. Any other value is rejected as by reject().
     */
    void addReal(const std::string &flag, const std::string &value_name,
                 const std::string &help, double &target, double lo = 0.0,
                 double hi = std::numeric_limits<double>::max());

    /**
     * Refuse @p value for @p flag, from inside an option's handler.
     * parse() then stops, prints "PROG: bad FLAG 'VALUE' (want WANT)"
     * and returns false with exitCode() 2.
     */
    void reject(const std::string &flag, const std::string &value,
                const std::string &want);

    /** Accept bare (non-flag) arguments; rejected unless registered. */
    void addPositional(const std::string &name, const std::string &help,
                       std::function<void(const std::string &)> handler);

    /**
     * Parse @p argv. Returns true when the program should continue;
     * false after `--help`/`--version` (exitCode() == 0) or on a parse
     * error (exitCode() == 2, usage printed to stderr).
     */
    bool parse(int argc, char **argv);

    /** Process exit status to use when parse() returned false. */
    int exitCode() const { return exit_code_; }

    /** The generated usage/help text. */
    std::string usage() const;

  private:
    template <typename Int>
    static constexpr long long maxOf()
    {
        constexpr auto max =
            static_cast<unsigned long long>(std::numeric_limits<Int>::max());
        return max > LLONG_MAX ? LLONG_MAX : static_cast<long long>(max);
    }

    /** "a whole number >= LO" or "a whole number in LO..HI". */
    static std::string intRange(long long lo, long long hi);

    struct Option
    {
        std::string flag;
        std::string valueName; ///< Empty for boolean flags.
        std::string help;
        std::function<void(const std::string &)> handler;
    };

    std::string prog_;
    std::string summary_;
    std::vector<Option> options_;
    std::string positional_name_;
    std::string positional_help_;
    std::function<void(const std::string &)> positional_handler_;
    std::string rejected_; ///< "FLAG 'VALUE' (want ...)", first only.
    int exit_code_ = 0;
};

} // namespace bxt

#endif // BXT_COMMON_CLI_H
