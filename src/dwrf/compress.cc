#include "compress.h"

#include <cstring>

#include "common/logging.h"

namespace dsi::dwrf {

namespace {

// LZ token format (LZ4-flavoured):
//   <varint literal_len> <literals> <varint match_len> <varint offset>
// A match_len of 0 terminates only at end-of-input (no match emitted).
// Matches are at least kMinMatch bytes; offset is distance back into
// the already-decoded output.
constexpr size_t kMinMatch = 4;
constexpr size_t kHashBits = 15;
constexpr size_t kHashSize = 1 << kHashBits;
constexpr size_t kMaxOffset = 0xffff;

inline uint32_t
hash4(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
}

void
lzCompress(ByteSpan in, Buffer &out)
{
    const size_t n = in.size();
    putVarint(out, n); // uncompressed size header
    if (n == 0)
        return;

    std::vector<int64_t> table(kHashSize, -1);
    size_t pos = 0;
    size_t lit_start = 0;

    auto emit = [&](size_t lit_end, size_t match_len, size_t offset) {
        putVarint(out, lit_end - lit_start);
        out.insert(out.end(), in.begin() + lit_start,
                   in.begin() + lit_end);
        putVarint(out, match_len);
        if (match_len > 0)
            putVarint(out, offset);
        lit_start = lit_end + match_len;
    };

    while (pos + kMinMatch <= n) {
        uint32_t h = hash4(&in[pos]);
        int64_t cand = table[h];
        table[h] = static_cast<int64_t>(pos);

        if (cand >= 0 &&
            pos - static_cast<size_t>(cand) <= kMaxOffset &&
            std::memcmp(&in[cand], &in[pos], kMinMatch) == 0) {
            size_t match_len = kMinMatch;
            while (pos + match_len < n &&
                   in[cand + match_len] == in[pos + match_len]) {
                ++match_len;
            }
            emit(pos, match_len, pos - static_cast<size_t>(cand));
            // Re-index a couple of positions inside the match to keep
            // the table warm without the full O(n) insert cost.
            size_t end = pos + match_len;
            for (size_t p = pos + 1; p < end && p + kMinMatch <= n;
                 p += match_len >= 64 ? 16 : 1) {
                table[hash4(&in[p])] = static_cast<int64_t>(p);
            }
            pos = end;
        } else {
            ++pos;
        }
    }
    // Trailing literals.
    if (lit_start < n)
        emit(n, 0, 0);
}

/**
 * Decode the token stream after the size header into `out`, which
 * holds exactly the block's raw length. Literals and matches that do
 * not overlap themselves are memcpy'd; a self-overlapping match
 * (offset < length, the RLE shape) copies forward byte by byte.
 */
bool
lzDecompress(ByteSpan in, size_t pos, uint8_t *out, size_t out_size)
{
    size_t produced = 0;
    while (produced < out_size) {
        uint64_t lit_len;
        if (!getVarint(in, pos, lit_len))
            return false;
        if (lit_len > in.size() - pos || lit_len > out_size - produced)
            return false;
        std::memcpy(out + produced, in.data() + pos, lit_len);
        pos += lit_len;
        produced += lit_len;
        if (produced == out_size)
            break;

        uint64_t match_len;
        if (!getVarint(in, pos, match_len))
            return false;
        if (match_len == 0)
            continue;
        uint64_t offset;
        if (!getVarint(in, pos, offset))
            return false;
        if (offset == 0 || offset > produced ||
            match_len > out_size - produced) {
            return false;
        }
        uint8_t *dst = out + produced;
        const uint8_t *src = dst - offset;
        if (offset >= match_len) {
            std::memcpy(dst, src, match_len);
        } else {
            for (uint64_t k = 0; k < match_len; ++k)
                dst[k] = src[k];
        }
        produced += match_len;
    }
    return true;
}

} // namespace

void
compress(Codec codec, ByteSpan in, Buffer &out)
{
    switch (codec) {
      case Codec::None:
        putVarint(out, in.size());
        out.insert(out.end(), in.begin(), in.end());
        return;
      case Codec::Lz:
        lzCompress(in, out);
        return;
    }
    dsi_panic("unknown codec %d", static_cast<int>(codec));
}

std::optional<ByteSpan>
decompress(Codec codec, ByteSpan in, uint64_t raw_length, Buffer &scratch)
{
    size_t pos = 0;
    uint64_t header;
    if (!getVarint(in, pos, header) || header != raw_length)
        return std::nullopt;
    switch (codec) {
      case Codec::None:
        if (in.size() - pos != raw_length)
            return std::nullopt;
        return in.subspan(pos);
      case Codec::Lz:
        if (scratch.size() < raw_length)
            scratch.resize(raw_length);
        if (!lzDecompress(in, pos, scratch.data(), raw_length))
            return std::nullopt;
        return ByteSpan(scratch.data(), raw_length);
    }
    return std::nullopt;
}

} // namespace dsi::dwrf
