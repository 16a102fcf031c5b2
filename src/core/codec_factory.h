/**
 * @file
 * String-spec codec construction, used by the examples, benches, and the
 * simulator configuration so a scheme can be named on a command line.
 *
 * Grammar (stages separated by '|', applied left to right on encode):
 *
 *   spec    := stage ('|' stage)*
 *   stage   := "baseline" | "identity"
 *            | "xor" N ["+zdr"] ["+fixed"]         N in {2,4,8,16}
 *            | "universal" [S] ["+zdr"]            S in 1..5, default 3
 *            | "dbi" G                             G in {1,2,4,8}
 *            | "dbi-ac" G                          toggle-minimizing DBI
 *            | "bd"
 *
 * Examples: "universal3+zdr", "xor4+zdr", "universal3+zdr|dbi1", "bd".
 *
 * One spec escapes this grammar: "adaptive" builds the online-selection
 * meta-codec (src/adaptive/) with adaptive::defaultConfig(), its fixed
 * metadata-free candidate ladder and tuning. It takes no arguments:
 * "adaptive:..." is an unknown stage like any other.
 */

#ifndef BXT_CORE_CODEC_FACTORY_H
#define BXT_CORE_CODEC_FACTORY_H

#include <string>
#include <vector>

#include "core/codec.h"

namespace bxt {

/**
 * Build a codec from @p spec. @p bus_bytes configures the per-beat bus
 * width for beat-oriented codecs (DBI, BD-Encoding). Calls fatal() on a
 * malformed spec.
 */
CodecPtr makeCodec(const std::string &spec, std::size_t bus_bytes = 4);

/**
 * Non-fatal variant of makeCodec for callers handling untrusted specs
 * (the bxtd request path): returns nullptr and fills @p err instead of
 * terminating the process on a malformed spec.
 */
CodecPtr tryMakeCodec(const std::string &spec, std::size_t bus_bytes,
                      std::string &err);

/** The specs evaluated throughout the paper's figures, in plot order. */
std::vector<std::string> paperSchemeSpecs();

} // namespace bxt

#endif // BXT_CORE_CODEC_FACTORY_H
