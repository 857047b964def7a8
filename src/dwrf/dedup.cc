#include "dedup.h"

#include <cstring>

namespace dsi::dwrf {

namespace {

/** FNV-1a over the list content; scoredness is part of the identity. */
uint64_t
hashList(std::span<const int64_t> values, std::span<const float> scores)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void *data, size_t len) {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    };
    uint64_t n = values.size();
    mix(&n, sizeof(n));
    mix(values.data(), values.size_bytes());
    uint64_t s = scores.size();
    mix(&s, sizeof(s));
    mix(scores.data(), scores.size_bytes());
    return h;
}

/** Append a length-prefixed sub-block. */
void
putBlock(Buffer &out, const Buffer &block)
{
    putVarint(out, block.size());
    out.insert(out.end(), block.begin(), block.end());
}

/** Extract a length-prefixed sub-block as a span into `in`. */
bool
getBlock(ByteSpan in, size_t &pos, ByteSpan &block)
{
    uint64_t len;
    if (!getVarint(in, pos, len) || pos + len > in.size())
        return false;
    block = in.subspan(pos, len);
    pos += len;
    return true;
}

} // namespace

bool
ListDictBuilder::entryEquals(uint32_t id,
                             std::span<const int64_t> values,
                             std::span<const float> scores) const
{
    uint32_t begin = offsets_[id], end = offsets_[id + 1];
    size_t len = end - begin;
    if (len != values.size())
        return false;
    if (len != 0 &&
        std::memcmp(values_.data() + begin, values.data(),
                    len * sizeof(int64_t)) != 0) {
        return false;
    }
    if (scored_) {
        if (scores.size() != len)
            return false;
        if (len != 0 &&
            std::memcmp(scores_.data() + begin, scores.data(),
                        len * sizeof(float)) != 0) {
            return false;
        }
    }
    return true;
}

std::optional<uint32_t>
ListDictBuilder::intern(std::span<const int64_t> values,
                        std::span<const float> scores, bool scored)
{
    if (!scored_set_) {
        scored_ = scored;
        scored_set_ = true;
    } else if (scored != scored_) {
        // Scoredness flipped mid-file (can't happen for a schema-typed
        // feature); keep the dictionary consistent, encode inline.
        return std::nullopt;
    }

    uint64_t h = hashList(values, scored_ ? scores
                                          : std::span<const float>{});
    auto [it, end] = buckets_.equal_range(h);
    for (; it != end; ++it) {
        if (entryEquals(it->second, values, scores))
            return it->second;
    }

    Bytes add = values.size_bytes() +
                (scored_ ? scores.size_bytes() : 0);
    if (size() >= limits_.max_entries ||
        payload_bytes_ + add > limits_.max_payload_bytes) {
        return std::nullopt;
    }
    auto id = static_cast<uint32_t>(size());
    values_.insert(values_.end(), values.begin(), values.end());
    if (scored_)
        scores_.insert(scores_.end(), scores.begin(), scores.end());
    offsets_.push_back(static_cast<uint32_t>(values_.size()));
    payload_bytes_ += add;
    buckets_.emplace(h, id);
    return id;
}

Buffer
ListDictBuilder::encode() const
{
    Buffer out;
    putVarint(out, size());
    out.push_back(scored_ ? 1 : 0);

    std::vector<int64_t> lengths(size());
    for (size_t i = 0; i < size(); ++i)
        lengths[i] = offsets_[i + 1] - offsets_[i];
    Buffer lengths_raw;
    rleEncode(lengths, lengths_raw);
    putBlock(out, lengths_raw);

    Buffer values_raw;
    encodeValues(values_, values_raw);
    putBlock(out, values_raw);

    if (scored_) {
        Buffer scores_raw;
        for (float sc : scores_)
            putFloat(scores_raw, sc);
        putBlock(out, scores_raw);
    }
    return out;
}

ListDictColumnEncode
encodeListDictColumn(const SparseColumn &col, uint32_t rows,
                     ListDictBuilder &dict)
{
    ListDictColumnEncode enc;
    bool scored = !col.scores.empty();

    std::vector<uint64_t> codes(rows);
    std::vector<int64_t> inline_lengths;
    std::vector<int64_t> inline_values;
    std::vector<float> inline_scores;
    for (uint32_t r = 0; r < rows; ++r) {
        uint32_t begin = col.offsets[r], end = col.offsets[r + 1];
        std::span<const int64_t> values(col.values.data() + begin,
                                        end - begin);
        std::span<const float> scores =
            scored ? std::span<const float>(col.scores.data() + begin,
                                            end - begin)
                   : std::span<const float>{};
        if (auto id = dict.intern(values, scores, scored)) {
            codes[r] = static_cast<uint64_t>(*id) + 1;
            ++enc.dict_refs;
        } else {
            codes[r] = 0;
            inline_lengths.push_back(
                static_cast<int64_t>(end - begin));
            inline_values.insert(inline_values.end(), values.begin(),
                                 values.end());
            inline_scores.insert(inline_scores.end(), scores.begin(),
                                 scores.end());
            ++enc.inline_lists;
        }
    }

    Buffer &out = enc.stream;
    putVarint(out, rows);
    out.push_back(scored ? 1 : 0);
    putVarint(out, inline_lengths.size());
    Buffer lengths_raw;
    rleEncode(inline_lengths, lengths_raw);
    putBlock(out, lengths_raw);
    Buffer values_raw;
    encodeValues(inline_values, values_raw);
    putBlock(out, values_raw);
    if (scored) {
        Buffer scores_raw;
        for (float sc : inline_scores)
            putFloat(scores_raw, sc);
        putBlock(out, scores_raw);
    }
    for (uint64_t c : codes)
        putVarint(out, c);
    return enc;
}

bool
decodeSharedListDict(ByteSpan in, DecodedListDict &out)
{
    size_t pos = 0;
    // Entries are distinct lists, so all but one hold at least one
    // value of at least one byte: a count above the stream's size is
    // forged, and is rejected before anything is sized by it.
    uint64_t n_entries;
    if (!getVarint(in, pos, n_entries) || n_entries > in.size() ||
        pos >= in.size()) {
        return false;
    }
    out.scored = in[pos++] != 0;

    ByteSpan lengths_block;
    if (!getBlock(in, pos, lengths_block))
        return false;
    std::vector<int64_t> lengths;
    if (!rleDecode(lengths_block, lengths, n_entries) ||
        lengths.size() != n_entries) {
        return false;
    }

    out.offsets.assign(n_entries + 1, 0);
    uint64_t total = 0;
    for (uint64_t i = 0; i < n_entries; ++i) {
        if (lengths[i] < 0 ||
            lengths[i] > static_cast<int64_t>(UINT32_MAX) ||
            total + static_cast<uint64_t>(lengths[i]) > UINT32_MAX) {
            return false;
        }
        total += static_cast<uint64_t>(lengths[i]);
        out.offsets[i + 1] = static_cast<uint32_t>(total);
    }

    ByteSpan values_block;
    if (!getBlock(in, pos, values_block))
        return false;
    if (!decodeValues(values_block, out.values) ||
        out.values.size() != total) {
        return false;
    }

    out.scores.clear();
    if (out.scored) {
        ByteSpan scores_block;
        if (!getBlock(in, pos, scores_block))
            return false;
        if (scores_block.size() != total * sizeof(float))
            return false;
        out.scores.resize(total);
        size_t spos = 0;
        if (!getFloatBlock(scores_block, spos, out.scores))
            return false;
    }
    return pos == in.size();
}

bool
decodeListDictColumn(ByteSpan in, uint32_t rows,
                     const DecodedListDict *dict, SparseColumn &col,
                     ListDictDecodeStats *stats)
{
    size_t pos = 0;
    uint64_t n_rows;
    if (!getVarint(in, pos, n_rows) || n_rows != rows ||
        pos >= in.size()) {
        return false;
    }
    bool scored = in[pos++] != 0;

    uint64_t n_inline;
    if (!getVarint(in, pos, n_inline) || n_inline > rows)
        return false;

    ByteSpan lengths_block;
    if (!getBlock(in, pos, lengths_block))
        return false;
    std::vector<int64_t> inline_lengths;
    if (!rleDecode(lengths_block, inline_lengths, n_inline) ||
        inline_lengths.size() != n_inline) {
        return false;
    }
    std::vector<uint32_t> inline_offsets(n_inline + 1, 0);
    uint64_t inline_total = 0;
    for (uint64_t i = 0; i < n_inline; ++i) {
        if (inline_lengths[i] < 0 ||
            inline_total + static_cast<uint64_t>(inline_lengths[i]) >
                UINT32_MAX) {
            return false;
        }
        inline_total += static_cast<uint64_t>(inline_lengths[i]);
        inline_offsets[i + 1] = static_cast<uint32_t>(inline_total);
    }

    ByteSpan values_block;
    if (!getBlock(in, pos, values_block))
        return false;
    std::vector<int64_t> inline_values;
    if (!decodeValues(values_block, inline_values) ||
        inline_values.size() != inline_total) {
        return false;
    }

    std::vector<float> inline_scores;
    if (scored) {
        ByteSpan scores_block;
        if (!getBlock(in, pos, scores_block))
            return false;
        if (scores_block.size() != inline_total * sizeof(float))
            return false;
        inline_scores.resize(inline_total);
        size_t spos = 0;
        if (!getFloatBlock(scores_block, spos, inline_scores))
            return false;
    }

    // Codes fill the rest of the stream: bulk varint decode, then one
    // validation pass computing row lengths, then gather.
    std::vector<uint64_t> codes(rows);
    if (getVarintBlock(in, pos, codes) != rows || pos != in.size())
        return false;

    const size_t dict_entries = dict != nullptr ? dict->size() : 0;
    uint64_t next_inline = 0;
    uint64_t total = 0;
    col.offsets.assign(rows + 1, 0);
    for (uint32_t r = 0; r < rows; ++r) {
        uint64_t len;
        if (codes[r] == 0) {
            if (next_inline >= n_inline)
                return false;
            len = static_cast<uint64_t>(
                inline_lengths[next_inline++]);
        } else {
            uint64_t id = codes[r] - 1;
            if (id >= dict_entries)
                return false;
            len = dict->offsets[id + 1] - dict->offsets[id];
        }
        total += len;
        if (total > UINT32_MAX)
            return false;
        col.offsets[r + 1] = static_cast<uint32_t>(total);
    }
    if (next_inline != n_inline)
        return false;
    // A scored column must gather scores for every row; referenced
    // entries therefore need a scored dictionary (and vice versa —
    // an unscored column must not reference scored entries, or the
    // round trip would invent scores).
    bool any_ref = next_inline != rows;
    if (any_ref && dict != nullptr && dict->scored != scored)
        return false;

    col.values.resize(total);
    col.scores.clear();
    if (scored)
        col.scores.resize(total);
    next_inline = 0;
    for (uint32_t r = 0; r < rows; ++r) {
        uint32_t dst = col.offsets[r];
        uint32_t len = col.offsets[r + 1] - dst;
        const int64_t *vsrc;
        const float *ssrc = nullptr;
        if (codes[r] == 0) {
            uint32_t begin = inline_offsets[next_inline];
            vsrc = inline_values.data() + begin;
            if (scored)
                ssrc = inline_scores.data() + begin;
            ++next_inline;
        } else {
            uint32_t begin = dict->offsets[codes[r] - 1];
            vsrc = dict->values.data() + begin;
            if (scored)
                ssrc = dict->scores.data() + begin;
        }
        if (len != 0) {
            std::memcpy(col.values.data() + dst, vsrc,
                        len * sizeof(int64_t));
            if (scored)
                std::memcpy(col.scores.data() + dst, ssrc,
                            len * sizeof(float));
        }
    }
    if (stats != nullptr) {
        stats->inline_lists += n_inline;
        stats->dict_refs += rows - n_inline;
    }
    return true;
}

} // namespace dsi::dwrf
