#include "cipher.h"

#include <bit>
#include <cstring>

#include "common/rng.h"

namespace dsi::dwrf {

void
StreamCipher::apply(uint64_t nonce, std::span<uint8_t> data) const
{
    Rng keystream(key_ ^ (nonce * 0x9e3779b97f4a7c15ULL));
    uint8_t *p = data.data();
    size_t n = data.size();
    for (; n >= 8; n -= 8, p += 8) {
        uint64_t ks = keystream.next();
        if constexpr (std::endian::native == std::endian::big)
            ks = __builtin_bswap64(ks);
        uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        word ^= ks;
        std::memcpy(p, &word, sizeof(word));
    }
    if (n > 0) {
        uint64_t ks = keystream.next();
        for (size_t b = 0; b < n; ++b)
            p[b] ^= static_cast<uint8_t>(ks >> (8 * b));
    }
}

} // namespace dsi::dwrf
