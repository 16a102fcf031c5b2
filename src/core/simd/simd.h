/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the batch codec core and the
 * wire checksum.
 *
 * The batch kernels and the bus and reply ones/toggle accounting reduce
 * to a small set of primitives:
 *
 *   plane level    xor, ZDR encode per lane width, DBI plane
 *                  encode/decode, popcount, xor-popcount
 *   codec level    Universal fold/unfold and adjacent-base Base+XOR
 *                  decode over whole batches, where the vector levels
 *                  hold each transaction in registers (the fold as one
 *                  permute + remap, the decode chain one transaction
 *                  per lane after a transpose)
 *   checksum       the bxtd frame CRC32 (common/checksum.h)
 *   bit planes     packing one-byte-per-bit metadata into LSB-first
 *                  wire rows and back (the bxtd reply metadata)
 *
 * This module provides them behind a function-pointer table selected
 * once at runtime:
 *
 *   Level::Word    64-bit word loops; the codec-level primitives run
 *                  per transaction and stage over them; CRC32 by
 *                  slicing-by-8; bit planes eight values per
 *                  multiply/shift step. Always available, and the
 *                  portable tier: non-x86 builds (aarch64 included)
 *                  dispatch it
 *   Level::Avx2    256-bit AVX2 (x86-64, detected via CPUID + XGETBV);
 *                  CRC32 by a 4x128-bit PCLMULQDQ fold
 *   Level::Avx512  512-bit AVX-512 F+BW+VL+VPOPCNTDQ plus VPCLMULQDQ;
 *                  CRC32 by a 4x512-bit VPCLMULQDQ fold (inputs under
 *                  256 bytes by the Avx2 fold)
 *
 * The x86 vector levels keep vector code only for the shapes the serving
 * traffic sends: the spec mix of src/workloads/scenario.cpp:20-24
 * (defaultSpecMix: xor4+zdr, universal3+zdr, dbi4, universal3+zdr|dbi4,
 * baseline) on 32- and 64-byte transactions. That is zdrEncode32, the
 * DBI planes, popcountRange and crc32Update; baseXorDecode with 4-byte
 * bases under ZDR; and universalFold/universalUnfold at ZDR lane 4.
 * Every other slot or shape runs the Word entry at both x86 levels:
 * xorRange, zdrEncode16, zdrEncode64, popcountXorRange, packBits and
 * unpackBits are the Word functions, and the codec-level entries hand
 * plain XOR and every other base or lane width to their Word forms. A
 * vector kernel comes back only with a BENCHMARK.json workload that
 * reaches it and an end-to-end win there (DESIGN.md section 7b).
 *
 * Both x86 levels also require PCLMULQDQ and SSE4.1 (CPUID leaf 1);
 * Avx512 also requires VPCLMULQDQ (CPUID leaf 7, ECX bit 10), which
 * every CPU with VPOPCNTDQ has.
 * One binary carries every level its compiler could build (the vector
 * translation units get per-file -m flags; see src/core/CMakeLists.txt)
 * and picks the best one the running CPU supports. The `BXT_SIMD`
 * environment variable forces a level by name ("word", "avx2",
 * "avx512"); an unsupported request clamps down to the best
 * supported level at or below it, and an unrecognized value falls back
 * to Word — both with a one-line warning on stderr, never an abort.
 *
 * Every level is bit-identical to the byte-at-a-time reference codecs of
 * src/verify by contract; tests/test_simd.cpp diffs the primitives
 * against them directly and replays the golden corpus plus the batch
 * differential fuzzer at every supported level.
 */

#ifndef BXT_CORE_SIMD_SIMD_H
#define BXT_CORE_SIMD_SIMD_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bxt::simd {

/**
 * Kernel implementation tiers, in dispatch-preference order. The values
 * are what the `bxt.simd.level` gauge reports, so they stay fixed: 0 was
 * the retired byte-loop Scalar tier and 2 the retired 128-bit NEON tier;
 * neither is ever installed.
 */
enum class Level : int
{
    Word = 1,   ///< 64-bit word loops; always available.
    Avx2 = 3,   ///< 256-bit AVX2.
    Avx512 = 4, ///< 512-bit AVX-512 (F+BW+VL+VPOPCNTDQ+VPCLMULQDQ).
};

/**
 * The primitive set every level implements. All ranges are byte counts;
 * `out` may alias `in` (in-place), but `base` must not overlap `out`.
 * The zdr* entries require `n` to be a multiple of the lane size
 * (2/4/8 bytes); lanes are little-endian words exactly as in core/zdr.h.
 */
struct KernelTable
{
    Level level = Level::Word;

    /** out[i] = in[i] ^ base[i]. */
    void (*xorRange)(std::uint8_t *out, const std::uint8_t *in,
                     const std::uint8_t *base, std::size_t n);

    /** ZDR-encode each lane of @p in against the matching lane of
     *  @p base (input == 0 -> C, input == base^C -> base, else XOR). */
    void (*zdrEncode16)(std::uint8_t *out, const std::uint8_t *in,
                        const std::uint8_t *base, std::size_t n);
    void (*zdrEncode32)(std::uint8_t *out, const std::uint8_t *in,
                        const std::uint8_t *base, std::size_t n);
    void (*zdrEncode64)(std::uint8_t *out, const std::uint8_t *in,
                        const std::uint8_t *base, std::size_t n);

    /**
     * DBI-DC over a contiguous plane of @p groups groups of
     * @p group_bytes (1/2/4/8) bytes each: invert a group in place when
     * its popcount exceeds group_bytes*4, writing one 0/1 polarity byte
     * per group into @p meta.
     */
    void (*dbiEncodePlane)(std::uint8_t *data, std::uint8_t *meta,
                           std::size_t groups, std::size_t group_bytes);

    /** Inverse: re-invert every group whose @p meta byte is nonzero. */
    void (*dbiDecodePlane)(std::uint8_t *data, const std::uint8_t *meta,
                           std::size_t groups, std::size_t group_bytes);

    /** Total `1` bits in @p src. */
    std::uint64_t (*popcountRange)(const std::uint8_t *src, std::size_t n);

    /** Total `1` bits in a[i] ^ b[i] (the toggle count of two beats). */
    std::uint64_t (*popcountXorRange)(const std::uint8_t *a,
                                      const std::uint8_t *b, std::size_t n);

    /**
     * Universal Base+XOR fold (paper §IV-C) of @p count transactions of
     * @p tx_bytes bytes each: stage s remaps the right half
     * [tx>>(s+1), tx>>s) of every transaction against its left half, for
     * @p stages stages (already clamped so tx_bytes >> stages >= 2).
     * @p zdr_lane is the ZDR lane width (2/4/8/16 bytes, clamped to the
     * half width per stage) or 0 for plain XOR. No stage writes a byte a
     * later stage reads as a base, so byte b's base is b ^ msb(b) in
     * effective-base units and the whole fold is one remap against a
     * permuted copy. @p out may alias @p in.
     */
    void (*universalFold)(std::uint8_t *out, const std::uint8_t *in,
                          std::size_t count, std::size_t tx_bytes,
                          unsigned stages, std::size_t zdr_lane);

    /** Inverse of universalFold with the same geometry: the stages run
     *  innermost first, each against the prefix already restored. */
    void (*universalUnfold)(std::uint8_t *out, const std::uint8_t *in,
                            std::size_t count, std::size_t tx_bytes,
                            unsigned stages, std::size_t zdr_lane);

    /**
     * Adjacent-base Base+XOR decode (paper §III-B) of @p count
     * transactions of @p tx_bytes bytes: element 0 passes through and
     * element e (@p base_bytes wide, 2/4/8/16) is decoded against the
     * decoded element e-1, by ZDR at element width when @p zdr is set,
     * else by XOR. The chain is serial inside a transaction, so vector
     * levels run one transaction per lane. @p out may alias @p in.
     */
    void (*baseXorDecode)(std::uint8_t *out, const std::uint8_t *in,
                          std::size_t count, std::size_t tx_bytes,
                          std::size_t base_bytes, bool zdr);

    /**
     * Advance a running IEEE CRC32 (reflected polynomial 0xEDB88320,
     * pre- and post-inversion left to the caller as in common/checksum.h)
     * over @p n bytes at @p p.
     */
    std::uint32_t (*crc32Update)(std::uint32_t crc, const std::uint8_t *p,
                                 std::size_t n);

    /**
     * Pack @p count rows of @p bits_per_row one-byte values (rows back
     * to back at @p bits; any nonzero byte packs as 1) into rows of
     * @p row_bytes bytes at @p packed, LSB-first: value j of row r is
     * bit j % 8 of packed[r * row_bytes + j / 8]. Padding bits and
     * bytes of every row are written as zero. @p row_bytes is at least
     * ceil(bits_per_row / 8); when it equals bits_per_row / 8 exactly,
     * the rows form one contiguous bit plane and pack in one call.
     */
    void (*packBits)(std::uint8_t *packed, const std::uint8_t *bits,
                     std::size_t count, std::size_t bits_per_row,
                     std::size_t row_bytes);

    /** Inverse of packBits: writes exactly count * bits_per_row 0/1
     *  bytes at @p bits; padding in @p packed is ignored. */
    void (*unpackBits)(std::uint8_t *bits, const std::uint8_t *packed,
                       std::size_t count, std::size_t bits_per_row,
                       std::size_t row_bytes);
};

/**
 * The active kernel table. First use resolves the level: `BXT_SIMD` if
 * set (see resolveRequestedLevel), otherwise the best the CPU supports.
 * The resolved level is exported as the `bxt.simd.level` telemetry gauge
 * (numeric Level value) so snapshots and bxtd Stats report it.
 */
const KernelTable &ops();

/** The level ops() currently dispatches to. */
Level activeLevel();

/**
 * Force the active level (tests and the bench level sweep). Unsupported
 * levels clamp to the best supported level ranked at or below the
 * request. Returns the level actually installed.
 */
Level setActiveLevel(Level level);

/** Best level supported by this binary on this CPU. */
Level bestLevel();

/** True when this binary can run @p level on this CPU. */
bool levelSupported(Level level);

/** Every supported level, Word first. */
std::vector<Level> supportedLevels();

/** Lower-case level name ("word", "avx2", "avx512"). */
const char *levelName(Level level);

/** Parse a level name (case-insensitive); nullopt when unrecognized. */
std::optional<Level> parseLevel(std::string_view name);

/**
 * Resolve a `BXT_SIMD` request to an installable level: nullptr/empty
 * means bestLevel(); an unsupported-but-valid name clamps down; an
 * unrecognized value yields Level::Word. When the request could not be
 * honored exactly, @p warning (if non-null) receives a one-line
 * explanation, otherwise it is left empty.
 */
Level resolveRequestedLevel(const char *value, std::string *warning);

/** The level forced via BXT_SIMD, if that variable is set and valid. */
std::optional<Level> envForcedLevel();

} // namespace bxt::simd

#endif // BXT_CORE_SIMD_SIMD_H
