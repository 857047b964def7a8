/**
 * @file
 * CRC32-C kernels: the pinned check value, and the dispatched and
 * portable kernels against a bitwise reference over every length up
 * to 4 KiB and sampled lengths up to 70 KiB, at every start alignment
 * within an 8-byte word.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "dwrf/checksum.h"
#include "dwrf/checksum_internal.h"

namespace dsi::dwrf {
namespace {

/** The definition: reflected CRC-32C, one bit at a time. */
uint32_t
crc32Bitwise(ByteSpan data)
{
    uint32_t crc = 0xffffffff;
    for (uint8_t b : data) {
        crc ^= b;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0u);
    }
    return crc ^ 0xffffffff;
}

Buffer
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Buffer out(n);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

/** Check both kernels on `len` bytes starting `align` bytes into a
 * word-aligned buffer. */
void
expectKernelsAgree(const Buffer &pool, size_t len, size_t align)
{
    ByteSpan span(pool.data() + align, len);
    uint32_t want = crc32Bitwise(span);
    ASSERT_EQ(crc32(span), want) << "len=" << len << " align=" << align;
    ASSERT_EQ(detail::crc32Portable(span), want)
        << "len=" << len << " align=" << align;
    if (detail::crc32HardwareAvailable()) {
        ASSERT_EQ(detail::crc32Hardware(span), want)
            << "len=" << len << " align=" << align;
    }
}

TEST(Crc32c, CheckValue)
{
    const char *check = "123456789";
    ByteSpan span(reinterpret_cast<const uint8_t *>(check),
                  std::strlen(check));
    EXPECT_EQ(crc32(span), 0xE3069283u);
    EXPECT_EQ(detail::crc32Portable(span), 0xE3069283u);
    EXPECT_EQ(crc32Bitwise(span), 0xE3069283u);
    EXPECT_EQ(crc32(ByteSpan{}), 0u);
}

TEST(Crc32c, EveryLengthTo4KiBAtEveryAlignment)
{
    Buffer pool = randomBytes(4096 + 8, 0xc5c);
    for (size_t align = 0; align < 8; ++align)
        for (size_t len = 0; len <= 4096; ++len)
            expectKernelsAgree(pool, len, align);
}

TEST(Crc32c, SampledLengthsTo70KiBAtEveryAlignment)
{
    constexpr size_t kMax = 70 * 1024;
    Buffer pool = randomBytes(kMax + 8, 0x70c);
    Rng rng(0x5a3);
    std::vector<size_t> lengths = {4097, 8191, 8192, 65535, 65536,
                                   65537, kMax};
    for (int i = 0; i < 24; ++i)
        lengths.push_back(4097 + rng.nextUint(kMax - 4097));
    for (size_t len : lengths)
        for (size_t align = 0; align < 8; ++align)
            expectKernelsAgree(pool, len, align);
}

TEST(Crc32c, DetectsEverySingleBitFlip)
{
    Buffer data = randomBytes(257, 0xf11);
    uint32_t clean = crc32(data);
    for (size_t i = 0; i < data.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            data[i] ^= static_cast<uint8_t>(1u << bit);
            ASSERT_NE(crc32(data), clean) << "byte " << i;
            data[i] ^= static_cast<uint8_t>(1u << bit);
        }
    }
}

} // namespace
} // namespace dsi::dwrf
