#include "encoding.h"

#include <algorithm>
#include <cstring>
#include <map>

namespace dsi::dwrf {

void
putVarint(Buffer &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

bool
getVarint(ByteSpan in, size_t &pos, uint64_t &v)
{
    v = 0;
    int shift = 0;
    while (pos < in.size() && shift < 64) {
        uint8_t byte = in[pos++];
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
        shift += 7;
    }
    return false;
}

namespace {

/**
 * Decode one varint from [p, end). Returns the advanced cursor, or
 * nullptr on truncated/overlong input (cursor then stays at the
 * varint's first byte). Accepts exactly what getVarint() accepts;
 * the raw-pointer form lets block decoders skip the per-byte span
 * indexing of the scalar path.
 */
inline const uint8_t *
decodeVarintFast(const uint8_t *p, const uint8_t *end, uint64_t &v)
{
    if (p != end && *p < 0x80) { // 1-byte values dominate real streams
        v = *p;
        return p + 1;
    }
    v = 0;
    int shift = 0;
    const uint8_t *q = p;
    while (q != end && shift < 64) {
        uint8_t byte = *q++;
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return q;
        shift += 7;
    }
    return nullptr;
}

/**
 * Branchless 1-or-2-byte LEB128 decode of `*p` (requires two loadable
 * bytes). Real DWRF streams mix 1- and 2-byte varints unpredictably,
 * so a length *branch* mispredicts constantly; computing the length
 * arithmetically does not. Returns false when the varint continues
 * past two bytes (caller falls back to the generic loop); decoded
 * forms — including overlong ones like 0x80 0x00 — match the byte
 * loop bit-for-bit.
 */
inline bool
decodeVarint12(const uint8_t *p, uint64_t &v, size_t &len)
{
    uint64_t b0 = p[0];
    uint64_t b1 = p[1];
    uint64_t more = b0 >> 7; // 0 or 1
    if (more & (b1 >> 7))
        return false; // 3+ bytes: rare, take the generic path
    v = (b0 & 0x7f) | ((b1 << 7) & (-more & 0x3f80));
    len = 1 + more;
    return true;
}

/**
 * Shared block-decode loop. Real value streams are homogeneous —
 * either mostly 1-2-byte varints (dict indices, lengths, counts) or
 * mostly long ones (hashed ids) — so speculate on the short form, and
 * if the first probe window is dominated by longer varints, drop to
 * the generic byte loop for the remainder instead of paying a failed
 * speculation per value. `map` post-processes each decoded word
 * (identity or zigzag).
 */
template <typename Out, typename Map>
size_t
varintBlockImpl(ByteSpan in, size_t &pos, std::span<Out> out, Map map)
{
    if (pos > in.size())
        return 0;
    const uint8_t *base = in.data();
    const uint8_t *p = base + pos;
    const uint8_t *end = base + in.size();
    size_t i = 0;
    const size_t want = out.size();
    constexpr size_t kProbe = 16;
    size_t misses = 0;
    while (i < want) {
        if (i == kProbe && misses >= kProbe / 2)
            break; // long-form stream: generic loop below
        uint64_t u;
        size_t len;
        if (end - p >= 2 && decodeVarint12(p, u, len)) {
            out[i++] = map(u);
            p += len;
            continue;
        }
        const uint8_t *next = decodeVarintFast(p, end, u);
        if (next == nullptr) {
            pos = static_cast<size_t>(p - base);
            return i;
        }
        out[i++] = map(u);
        p = next;
        ++misses;
    }
    for (; i < want; ++i) {
        uint64_t u;
        const uint8_t *next = decodeVarintFast(p, end, u);
        if (next == nullptr)
            break;
        out[i] = map(u);
        p = next;
    }
    pos = static_cast<size_t>(p - base);
    return i;
}

} // namespace

size_t
getVarintBlock(ByteSpan in, size_t &pos, std::span<uint64_t> out)
{
    return varintBlockImpl(in, pos, out,
                           [](uint64_t u) { return u; });
}

size_t
getSignedVarintBlock(ByteSpan in, size_t &pos, std::span<int64_t> out)
{
    return varintBlockImpl(in, pos, out,
                           [](uint64_t u) { return zigzagDecode(u); });
}

void
putFloat(Buffer &out, float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    putU32(out, bits);
}

bool
getFloat(ByteSpan in, size_t &pos, float &v)
{
    uint32_t bits;
    if (!getU32(in, pos, bits))
        return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
}

bool
getFloatBlock(ByteSpan in, size_t &pos, std::span<float> out)
{
    // Single bounds check + single copy (the stored layout is
    // little-endian, matching every host this repo targets).
    size_t bytes = out.size() * sizeof(float);
    if (pos > in.size() || in.size() - pos < bytes)
        return false;
    if (bytes != 0) // an empty span may carry a null pointer
        std::memcpy(out.data(), in.data() + pos, bytes);
    pos += bytes;
    return true;
}

void
putU32(Buffer &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

bool
getU32(ByteSpan in, size_t &pos, uint32_t &v)
{
    if (pos + 4 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(in[pos + i]) << (8 * i);
    pos += 4;
    return true;
}

void
putU64(Buffer &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

bool
getU64(ByteSpan in, size_t &pos, uint64_t &v)
{
    if (pos + 8 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(in[pos + i]) << (8 * i);
    pos += 8;
    return true;
}

namespace {

// Stream grammar:
//   0x00 <varint n> <base> <delta>   : run of n values base, base+d, ...
//   0x01 <varint n> <n zigzag vals>  : literal group
constexpr uint8_t kRunTag = 0x00;
constexpr uint8_t kLiteralTag = 0x01;
constexpr size_t kMinRun = 3;

void
flushLiterals(const std::vector<int64_t> &values, size_t begin, size_t end,
              Buffer &out)
{
    if (begin >= end)
        return;
    out.push_back(kLiteralTag);
    putVarint(out, end - begin);
    for (size_t i = begin; i < end; ++i)
        putSignedVarint(out, values[i]);
}

} // namespace

void
rleEncode(const std::vector<int64_t> &values, Buffer &out)
{
    size_t lit_begin = 0;
    size_t i = 0;
    const size_t n = values.size();
    while (i < n) {
        // Find the longest fixed-delta run starting at i. Deltas wrap
        // (two's complement, in uint64_t), so ids far apart cannot
        // overflow; the decoder wraps the same way.
        size_t run_end = i + 1;
        if (run_end < n) {
            auto step = [&](size_t k) {
                return static_cast<uint64_t>(values[k + 1]) -
                       static_cast<uint64_t>(values[k]);
            };
            uint64_t delta = step(i);
            while (run_end + 1 < n && step(run_end) == delta)
                ++run_end;
            ++run_end; // convert last-index to one-past-end
            size_t run_len = run_end - i;
            if (run_len >= kMinRun) {
                flushLiterals(values, lit_begin, i, out);
                out.push_back(kRunTag);
                putVarint(out, run_len);
                putSignedVarint(out, values[i]);
                putSignedVarint(out, static_cast<int64_t>(delta));
                i = run_end;
                lit_begin = i;
                continue;
            }
        }
        ++i;
    }
    flushLiterals(values, lit_begin, n, out);
}

bool
rleDecodeScalar(ByteSpan in, std::vector<int64_t> &values,
                uint64_t limit)
{
    size_t pos = 0;
    while (pos < in.size()) {
        uint8_t tag = in[pos++];
        uint64_t n;
        if (!getVarint(in, pos, n) || values.size() > limit ||
            n > limit - values.size()) {
            return false;
        }
        if (tag == kRunTag) {
            int64_t base, delta;
            if (!getSignedVarint(in, pos, base) ||
                !getSignedVarint(in, pos, delta)) {
                return false;
            }
            uint64_t v = static_cast<uint64_t>(base);
            for (uint64_t k = 0; k < n; ++k) {
                values.push_back(static_cast<int64_t>(v));
                v += static_cast<uint64_t>(delta);
            }
        } else if (tag == kLiteralTag) {
            // Each literal needs >= 1 byte: reject a count the stream
            // cannot possibly satisfy before materializing anything
            // (shared with the bulk kernel, so accept/reject agree).
            if (n > in.size() - pos)
                return false;
            for (uint64_t k = 0; k < n; ++k) {
                int64_t v;
                if (!getSignedVarint(in, pos, v))
                    return false;
                values.push_back(v);
            }
        } else {
            return false;
        }
    }
    return true;
}

bool
rleDecode(ByteSpan in, std::vector<int64_t> &values, uint64_t limit)
{
    size_t pos = 0;
    while (pos < in.size()) {
        uint8_t tag = in[pos++];
        uint64_t n;
        if (!getVarint(in, pos, n) || values.size() > limit ||
            n > limit - values.size()) {
            return false;
        }
        if (tag == kRunTag) {
            int64_t base, delta;
            if (!getSignedVarint(in, pos, base) ||
                !getSignedVarint(in, pos, delta)) {
                return false;
            }
            // Materialize the whole run in one pass. Short runs (the
            // common gap between literal groups) stay on an inline
            // push_back loop; long constant runs — the zero-dominated
            // sparse-length shape — become a single fill.
            // Deltas wrap in uint64_t, as rleEncode computed them.
            if (n < 16) {
                uint64_t v = static_cast<uint64_t>(base);
                for (uint64_t k = 0; k < n; ++k) {
                    values.push_back(static_cast<int64_t>(v));
                    v += static_cast<uint64_t>(delta);
                }
            } else if (delta == 0) {
                values.resize(values.size() + n, base);
            } else {
                size_t old = values.size();
                values.resize(old + n);
                int64_t *dst = values.data() + old;
                uint64_t v = static_cast<uint64_t>(base);
                for (uint64_t k = 0; k < n; ++k) {
                    dst[k] = static_cast<int64_t>(v);
                    v += static_cast<uint64_t>(delta);
                }
            }
        } else if (tag == kLiteralTag) {
            if (n > in.size() - pos)
                return false;
            if (n < 16) {
                // Tiny groups (the gaps between runs) aren't worth
                // the resize + block-decode setup.
                for (uint64_t k = 0; k < n; ++k) {
                    int64_t v;
                    if (!getSignedVarint(in, pos, v))
                        return false;
                    values.push_back(v);
                }
            } else {
                size_t old = values.size();
                values.resize(old + n);
                if (getSignedVarintBlock(
                        in, pos,
                        std::span<int64_t>(values.data() + old, n)) !=
                    n) {
                    return false;
                }
            }
        } else {
            return false;
        }
    }
    return true;
}

namespace {

// encodeValues stream grammar:
//   0x00 <varint n> <n zigzag varints>                      (direct)
//   0x01 <varint n> <varint d> <d zigzag dict values>
//        <n varint dict indices>                            (dict)
constexpr uint8_t kDirectTag = 0x00;
constexpr uint8_t kDictTag = 0x01;
constexpr size_t kMaxDictSize = 4096;

} // namespace

namespace {

/** Byte length of an unsigned varint. */
size_t
varintLen(uint64_t v)
{
    size_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++n;
    }
    return n;
}

} // namespace

void
encodeValues(const std::vector<int64_t> &values, Buffer &out)
{
    // Count distinct values (bail out early past the dict cap) and
    // size both representations.
    std::map<int64_t, uint32_t> dict;
    size_t direct_bytes = 0;
    for (int64_t v : values) {
        direct_bytes += varintLen(zigzagEncode(v));
        dict.emplace(v, 0);
        if (dict.size() > kMaxDictSize)
            break;
    }
    bool use_dict = false;
    if (dict.size() <= kMaxDictSize && dict.size() < values.size()) {
        size_t dict_bytes = varintLen(dict.size());
        for (const auto &[value, _] : dict)
            dict_bytes += varintLen(zigzagEncode(value));
        // Upper-bound index cost with the largest index.
        dict_bytes += values.size() * varintLen(dict.size() - 1);
        use_dict = dict_bytes < direct_bytes;
    }
    if (!use_dict) {
        out.push_back(kDirectTag);
        putVarint(out, values.size());
        for (int64_t v : values)
            putSignedVarint(out, v);
        return;
    }
    out.push_back(kDictTag);
    putVarint(out, values.size());
    putVarint(out, dict.size());
    uint32_t index = 0;
    for (auto &[value, idx] : dict) {
        idx = index++;
        putSignedVarint(out, value);
    }
    for (int64_t v : values)
        putVarint(out, dict.at(v));
}

bool
decodeValuesScalar(ByteSpan in, std::vector<int64_t> &values)
{
    size_t pos = 0;
    if (in.empty())
        return false;
    uint8_t tag = in[pos++];
    uint64_t n;
    if (!getVarint(in, pos, n))
        return false;
    // Every value/index/dict entry takes >= 1 byte: reject counts the
    // stream cannot satisfy before allocating for them (the bulk
    // kernel applies the same bounds, keeping accept/reject aligned).
    if (n > in.size() - pos)
        return false;
    values.clear();
    values.reserve(n);
    if (tag == kDirectTag) {
        for (uint64_t i = 0; i < n; ++i) {
            int64_t v;
            if (!getSignedVarint(in, pos, v))
                return false;
            values.push_back(v);
        }
        return pos == in.size();
    }
    if (tag != kDictTag)
        return false;
    uint64_t d;
    if (!getVarint(in, pos, d))
        return false;
    if (d > in.size() - pos)
        return false;
    std::vector<int64_t> dict(d);
    for (auto &v : dict) {
        if (!getSignedVarint(in, pos, v))
            return false;
    }
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t idx;
        if (!getVarint(in, pos, idx) || idx >= d)
            return false;
        values.push_back(dict[idx]);
    }
    return pos == in.size();
}

bool
decodeValues(ByteSpan in, std::vector<int64_t> &values)
{
    size_t pos = 0;
    if (in.empty())
        return false;
    uint8_t tag = in[pos++];
    uint64_t n;
    if (!getVarint(in, pos, n))
        return false;
    if (n > in.size() - pos)
        return false;
    values.clear();
    if (tag == kDirectTag) {
        values.resize(n);
        if (getSignedVarintBlock(in, pos,
                                 std::span<int64_t>(values)) != n) {
            return false;
        }
        return pos == in.size();
    }
    if (tag != kDictTag)
        return false;
    uint64_t d;
    if (!getVarint(in, pos, d))
        return false;
    if (d > in.size() - pos)
        return false;
    std::vector<int64_t> dict(d);
    if (getSignedVarintBlock(in, pos, std::span<int64_t>(dict)) != d)
        return false;
    // Fused index-decode + dictionary gather, one pass over the
    // stream into preallocated output. Indices are 1-2 bytes for any
    // dict the encoder emits (kMaxDictSize = 4096), so the branchless
    // short-varint decode carries the whole stream; anything longer
    // (overlong or adversarial forms) drops to the generic decoder.
    values.resize(n);
    int64_t *dst = values.data();
    const int64_t *dict_data = dict.data();
    const uint8_t *base = in.data();
    const uint8_t *p = base + pos;
    const uint8_t *end = base + in.size();
    size_t i = 0;
    // Unrolled hot loop: one 8-byte load covers four short indices
    // (worst case 4 x 2 bytes). Extracting from the register via
    // shifts keeps the serial dependency chain at ~1 cycle per step
    // instead of a dependent L1 load per index.
    while (i + 4 <= n && end - p >= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        uint64_t used = 0;
        uint64_t idx[4];
        bool long_form = false;
        for (int k = 0; k < 4; ++k) {
            uint64_t b0 = w & 0xff;
            uint64_t b1 = (w >> 8) & 0xff;
            uint64_t more = b0 >> 7;
            if (more & (b1 >> 7)) {
                long_form = true; // 3+ bytes: generic path below
                break;
            }
            idx[k] = (b0 & 0x7f) | ((b1 << 7) & (-more & 0x3f80));
            w >>= 8 * (1 + more);
            used += 1 + more;
        }
        if (long_form)
            break;
        if ((idx[0] >= d) | (idx[1] >= d) | (idx[2] >= d) |
            (idx[3] >= d)) {
            return false;
        }
        dst[i + 0] = dict_data[idx[0]];
        dst[i + 1] = dict_data[idx[1]];
        dst[i + 2] = dict_data[idx[2]];
        dst[i + 3] = dict_data[idx[3]];
        i += 4;
        p += used;
    }
    while (i < n) {
        uint64_t idx;
        size_t len;
        if (end - p >= 2 && decodeVarint12(p, idx, len)) {
            if (idx >= d)
                return false;
            dst[i++] = dict_data[idx];
            p += len;
            continue;
        }
        const uint8_t *next = decodeVarintFast(p, end, idx);
        if (next == nullptr || idx >= d)
            return false;
        dst[i++] = dict_data[idx];
        p = next;
    }
    pos = static_cast<size_t>(p - base);
    return pos == in.size();
}

} // namespace dsi::dwrf
