#include "format.h"

namespace dsi::dwrf {

namespace {

void
putStreamInfo(Buffer &out, const StreamInfo &s)
{
    putVarint(out, s.feature);
    out.push_back(static_cast<uint8_t>(s.kind));
    putVarint(out, s.offset);
    putVarint(out, s.length);
    putVarint(out, s.raw_length);
    putU32(out, s.checksum);
    putVarint(out, s.value_count);
}

bool
getStreamInfo(ByteSpan data, size_t &pos, StreamInfo &s)
{
    uint64_t feat;
    if (!getVarint(data, pos, feat))
        return false;
    s.feature = static_cast<FeatureId>(feat);
    if (pos >= data.size())
        return false;
    s.kind = static_cast<StreamKind>(data[pos++]);
    return getVarint(data, pos, s.offset) &&
           getVarint(data, pos, s.length) &&
           getVarint(data, pos, s.raw_length) &&
           getU32(data, pos, s.checksum) &&
           getVarint(data, pos, s.value_count);
}

/**
 * Read a record count and reject one larger than the bytes left:
 * every record takes at least one byte, so a bigger count is forged
 * and must not size a vector.
 */
bool
getCount(ByteSpan data, size_t &pos, uint64_t &count)
{
    return getVarint(data, pos, count) && count <= data.size() - pos;
}

} // namespace

Buffer
FileFooter::serialize() const
{
    Buffer out;
    putVarint(out, total_rows);
    out.push_back(static_cast<uint8_t>(codec));
    out.push_back(encrypted ? 1 : 0);
    out.push_back(flattened ? 1 : 0);
    putVarint(out, stripes.size());
    for (const auto &stripe : stripes) {
        putVarint(out, stripe.first_row);
        putVarint(out, stripe.rows);
        putVarint(out, stripe.offset);
        putVarint(out, stripe.length);
        putVarint(out, stripe.streams.size());
        for (const auto &s : stripe.streams)
            putStreamInfo(out, s);
    }
    putVarint(out, shared_dicts.size());
    for (const auto &s : shared_dicts)
        putStreamInfo(out, s);
    return out;
}

std::optional<FileFooter>
FileFooter::deserialize(ByteSpan data)
{
    FileFooter f;
    size_t pos = 0;
    uint64_t v;
    if (!getVarint(data, pos, f.total_rows))
        return std::nullopt;
    if (pos + 3 > data.size())
        return std::nullopt;
    uint8_t codec = data[pos++];
    if (codec > static_cast<uint8_t>(Codec::Lz))
        return std::nullopt;
    f.codec = static_cast<Codec>(codec);
    f.encrypted = data[pos++] != 0;
    f.flattened = data[pos++] != 0;
    if (!getCount(data, pos, v))
        return std::nullopt;
    f.stripes.resize(v);
    for (auto &stripe : f.stripes) {
        uint64_t rows, nstreams;
        if (!getVarint(data, pos, stripe.first_row) ||
            !getVarint(data, pos, rows) ||
            !getVarint(data, pos, stripe.offset) ||
            !getVarint(data, pos, stripe.length) ||
            !getCount(data, pos, nstreams)) {
            return std::nullopt;
        }
        stripe.rows = static_cast<uint32_t>(rows);
        stripe.streams.resize(nstreams);
        for (auto &s : stripe.streams) {
            if (!getStreamInfo(data, pos, s))
                return std::nullopt;
        }
    }
    if (!getCount(data, pos, v))
        return std::nullopt;
    f.shared_dicts.resize(v);
    for (auto &s : f.shared_dicts) {
        if (!getStreamInfo(data, pos, s))
            return std::nullopt;
    }
    if (pos != data.size())
        return std::nullopt;
    return f;
}

} // namespace dsi::dwrf
