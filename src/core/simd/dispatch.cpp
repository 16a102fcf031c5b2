/**
 * @file
 * Runtime SIMD dispatch: CPU feature detection (CPUID leaves 1 and 7
 * plus the XGETBV/XCR0 OS-state check for AVX register saving), BXT_SIMD
 * environment resolution, and the atomic active-table pointer the hot
 * kernels read through ops().
 */

#include "core/simd/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "core/simd/kernels.h"
#include "telemetry/metrics.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace bxt::simd {

namespace detail {

namespace {

#if defined(__x86_64__)

/** XCR0 via XGETBV: the OS must save xmm/ymm (and zmm for AVX-512). */
std::uint64_t
readXcr0()
{
    std::uint32_t eax = 0, edx = 0;
    __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
    return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

struct CpuFeatures
{
    bool avx2 = false;
    bool avx512 = false;
};

CpuFeatures
detectCpu()
{
    CpuFeatures features;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0)
        return features;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    // Both x86 tiers compute CRC32 with PCLMULQDQ + SSE4.1
    // (kernels_clmul.cpp).
    const bool pclmul = (ecx & (1u << 1)) != 0;
    const bool sse41 = (ecx & (1u << 19)) != 0;
    if (!osxsave || !pclmul || !sse41)
        return features;
    const std::uint64_t xcr0 = readXcr0();
    const bool ymm_saved = (xcr0 & 0x6) == 0x6;         // XMM + YMM
    const bool zmm_saved = (xcr0 & 0xe6) == 0xe6;       // + opmask/ZMM
    if (!ymm_saved)
        return features;

    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0)
        return features;
    features.avx2 = (ebx & (1u << 5)) != 0;
    const bool f = (ebx & (1u << 16)) != 0;
    const bool bw = (ebx & (1u << 30)) != 0;
    const bool vl = (ebx & (1u << 31)) != 0;
    const bool vpopcntdq = (ecx & (1u << 14)) != 0;
    // The Avx512 frame CRC folds with 512-bit carry-less multiplies.
    const bool vpclmulqdq = (ecx & (1u << 10)) != 0;
    features.avx512 =
        zmm_saved && f && bw && vl && vpopcntdq && vpclmulqdq;
    return features;
}

const CpuFeatures &
cpu()
{
    static const CpuFeatures features = detectCpu();
    return features;
}

#endif // __x86_64__

/** The installable table for @p level, or nullptr when unsupported. */
const KernelTable *
tableFor(Level level)
{
    switch (level) {
    case Level::Scalar:
        return &scalarTable();
    case Level::Word:
        return &wordTable();
    case Level::Avx2:
        return cpuHasAvx2() ? avx2TableOrNull() : nullptr;
    case Level::Avx512:
        return cpuHasAvx512() ? avx512TableOrNull() : nullptr;
    }
    return nullptr;
}

/** Every level, lowest rank first. */
constexpr Level allLevels[] = {Level::Scalar, Level::Word, Level::Avx2,
                               Level::Avx512};

/** The best supported level ranked at or below @p level. */
Level
clampToSupported(Level level)
{
    Level best = Level::Scalar;
    for (Level candidate : allLevels)
        if (static_cast<int>(candidate) <= static_cast<int>(level) &&
            tableFor(candidate) != nullptr)
            best = candidate;
    return best;
}

std::atomic<const KernelTable *> active_table{nullptr};

void
publishLevelGauge(Level level)
{
    telemetry::gauge("bxt.simd.level").set(static_cast<double>(level));
}

/** Install @p level (must be supported) and mirror it into telemetry. */
const KernelTable *
install(Level level)
{
    const KernelTable *table = tableFor(level);
    active_table.store(table, std::memory_order_release);
    publishLevelGauge(level);
    return table;
}

/** One-time env-driven init; returns the installed table. */
const KernelTable *
initialize()
{
    std::string warning;
    const Level level =
        resolveRequestedLevel(std::getenv("BXT_SIMD"), &warning);
    if (!warning.empty())
        std::fprintf(stderr, "bxt: %s\n", warning.c_str());
    return install(level);
}

} // namespace

bool
cpuHasAvx2()
{
#if defined(__x86_64__)
    return cpu().avx2;
#else
    return false;
#endif
}

bool
cpuHasAvx512()
{
#if defined(__x86_64__)
    return cpu().avx512;
#else
    return false;
#endif
}

} // namespace detail

const KernelTable &
ops()
{
    const KernelTable *table =
        detail::active_table.load(std::memory_order_acquire);
    if (table == nullptr)
        table = detail::initialize();
    return *table;
}

Level
activeLevel()
{
    return ops().level;
}

Level
setActiveLevel(Level level)
{
    // Clamp an unsupported request to the best supported level ranked at
    // or below it (mirrors resolveRequestedLevel's env semantics).
    level = detail::clampToSupported(level);
    detail::install(level);
    return level;
}

Level
bestLevel()
{
    return detail::clampToSupported(Level::Avx512);
}

bool
levelSupported(Level level)
{
    return detail::tableFor(level) != nullptr;
}

std::vector<Level>
supportedLevels()
{
    std::vector<Level> levels;
    for (Level level : detail::allLevels)
        if (detail::tableFor(level) != nullptr)
            levels.push_back(level);
    return levels;
}

const char *
levelName(Level level)
{
    switch (level) {
    case Level::Scalar:
        return "scalar";
    case Level::Word:
        return "word";
    case Level::Avx2:
        return "avx2";
    case Level::Avx512:
        return "avx512";
    }
    return "unknown";
}

std::optional<Level>
parseLevel(std::string_view name)
{
    std::string lowered(name);
    for (char &ch : lowered)
        ch = static_cast<char>(
            ch >= 'A' && ch <= 'Z' ? ch - 'A' + 'a' : ch);
    for (Level level : detail::allLevels)
        if (lowered == levelName(level))
            return level;
    return std::nullopt;
}

Level
resolveRequestedLevel(const char *value, std::string *warning)
{
    if (warning != nullptr)
        warning->clear();
    if (value == nullptr || *value == '\0')
        return bestLevel();
    const std::optional<Level> requested = parseLevel(value);
    if (!requested.has_value()) {
        if (warning != nullptr)
            *warning = std::string("BXT_SIMD=") + value +
                       " is not a recognized level "
                       "(scalar/word/avx2/avx512); "
                       "falling back to scalar";
        return Level::Scalar;
    }
    const Level level = detail::clampToSupported(*requested);
    if (level != *requested && warning != nullptr)
        *warning = std::string("BXT_SIMD=") + value +
                   " is not supported on this CPU/build; using " +
                   levelName(level);
    return level;
}

std::optional<Level>
envForcedLevel()
{
    const char *value = std::getenv("BXT_SIMD");
    if (value == nullptr || *value == '\0')
        return std::nullopt;
    return parseLevel(value);
}

} // namespace bxt::simd
