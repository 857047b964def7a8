#include "checksum.h"

#include <bit>
#include <cstring>

#include "dwrf/checksum_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dsi::dwrf {

namespace {

constexpr uint32_t kPoly = 0x82f63b78; // CRC32-C, reflected

/**
 * Slicing-by-8 tables: entries[0] is the classic byte table;
 * entries[k][b] is the CRC of byte b followed by k zero bytes, so one
 * 8-byte word folds in with eight independent lookups.
 */
struct Crc32Tables
{
    uint32_t entries[8][256];

    constexpr Crc32Tables() : entries()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t crc = i;
            for (int k = 0; k < 8; ++k)
                crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
            entries[0][i] = crc;
        }
        for (uint32_t i = 0; i < 256; ++i) {
            for (int t = 1; t < 8; ++t) {
                uint32_t prev = entries[t - 1][i];
                entries[t][i] = (prev >> 8) ^ entries[0][prev & 0xff];
            }
        }
    }
};

constexpr Crc32Tables kTables;

inline uint64_t
loadLe64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

using Crc32Fn = uint32_t (*)(ByteSpan);

Crc32Fn
pickKernel()
{
    return detail::crc32HardwareAvailable() ? detail::crc32Hardware
                                            : detail::crc32Portable;
}

} // namespace

namespace detail {

uint32_t
crc32Portable(ByteSpan data)
{
    const auto &t = kTables.entries;
    uint32_t crc = 0xffffffff;
    const uint8_t *p = data.data();
    size_t n = data.size();
    for (; n >= 8; n -= 8, p += 8) {
        uint64_t w = loadLe64(p) ^ crc;
        crc = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^
              t[5][(w >> 16) & 0xff] ^ t[4][(w >> 24) & 0xff] ^
              t[3][(w >> 32) & 0xff] ^ t[2][(w >> 40) & 0xff] ^
              t[1][(w >> 48) & 0xff] ^ t[0][w >> 56];
    }
    for (; n > 0; --n, ++p)
        crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
    return crc ^ 0xffffffff;
}

#if defined(__x86_64__)

bool
crc32HardwareAvailable()
{
    return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) uint32_t
crc32Hardware(ByteSpan data)
{
    uint64_t crc = 0xffffffff;
    const uint8_t *p = data.data();
    size_t n = data.size();
    for (; n >= 8; n -= 8, p += 8)
        crc = _mm_crc32_u64(crc, loadLe64(p));
    uint32_t crc32 = static_cast<uint32_t>(crc);
    for (; n > 0; --n, ++p)
        crc32 = _mm_crc32_u8(crc32, *p);
    return crc32 ^ 0xffffffff;
}

#else

bool
crc32HardwareAvailable()
{
    return false;
}

uint32_t
crc32Hardware(ByteSpan data)
{
    return crc32Portable(data);
}

#endif

} // namespace detail

uint32_t
crc32(ByteSpan data)
{
    static const Crc32Fn kernel = pickKernel();
    return kernel(data);
}

} // namespace dsi::dwrf
