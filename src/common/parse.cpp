#include "common/parse.h"

#include <charconv>
#include <cmath>

namespace bxt {

namespace {

/** from_chars over all of @p text: true when it parsed and nothing is
 *  left over. */
template <typename T, typename... Base>
bool
fromCharsWhole(std::string_view text, T &value, Base... base)
{
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value, base...);
    return ec == std::errc() && end == last;
}

} // namespace

bool
parseDecimal(std::string_view text, long long lo, long long hi,
             long long &value)
{
    return fromCharsWhole(text, value) && value >= lo && value <= hi;
}

bool
parseUnsigned(std::string_view text, bool allow_hex, std::uint64_t &value)
{
    if (allow_hex && text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X'))
        return fromCharsWhole(text.substr(2), value, 16);
    return fromCharsWhole(text, value);
}

bool
parseReal(std::string_view text, double lo, double hi, double &value)
{
    return fromCharsWhole(text, value) && std::isfinite(value) &&
           value >= lo && value <= hi;
}

bool
parseHostPort(const std::string &text, std::string &host, int &port)
{
    const std::size_t colon = text.rfind(':');
    long long value = 0;
    if (colon == std::string::npos || colon == 0 ||
        !parseDecimal(std::string_view(text).substr(colon + 1), 0, 65535,
                      value))
        return false;
    host = text.substr(0, colon);
    port = static_cast<int>(value);
    return true;
}

} // namespace bxt
