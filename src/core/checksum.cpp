#include "common/checksum.h"

#include "core/simd/simd.h"

namespace bxt {

std::uint32_t
crc32Update(std::uint32_t crc, std::span<const std::uint8_t> bytes)
{
    return simd::ops().crc32Update(crc, bytes.data(), bytes.size());
}

} // namespace bxt
