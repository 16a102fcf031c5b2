/**
 * @file
 * The one number parser for every text bxt reads: command-line values,
 * codec specs and adaptive knobs off the wire, scenario files, golden
 * and repro files, and JSON documents. Each function takes all of its
 * text or nothing: no leading space or '+', no trailing junk, no value
 * outside its range, and (for reals) nothing that is not finite.
 */

#ifndef BXT_COMMON_PARSE_H
#define BXT_COMMON_PARSE_H

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace bxt {

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
 * parseUnsigned() into any unsigned @p value, refusing anything above
 * @p hi or above what @p value's type holds.
 */
template <typename UInt>
    requires std::is_unsigned_v<UInt>
bool
parseUnsigned(std::string_view text, bool allow_hex, UInt &value,
              std::uint64_t hi = std::numeric_limits<UInt>::max())
{
    std::uint64_t wide = 0;
    if (!parseUnsigned(text, allow_hex, wide) || wide > hi ||
        wide > std::numeric_limits<UInt>::max())
        return false;
    value = static_cast<UInt>(wide);
    return true;
}

/**
 * Parse all of @p text as a finite decimal real number ("0.25", "1e6")
 * in [@p lo, @p hi]; false otherwise. Independent of the C locale.
 */
bool parseReal(std::string_view text, double lo, double hi, double &value);

/** parseReal() over every finite double. */
inline bool
parseReal(std::string_view text, double &value)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    return parseReal(text, -inf, inf, value);
}

/**
 * Split "HOST:PORT" at its last ':' into a non-empty @p host and a
 * decimal @p port in 0..65535; false otherwise.
 */
bool parseHostPort(const std::string &text, std::string &host, int &port);

} // namespace bxt

#endif // BXT_COMMON_PARSE_H
