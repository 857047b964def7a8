/**
 * @file
 * Hostile-input probes: counts and lengths read from a file (a run
 * length, a compressed block's size header, a footer's record counts,
 * a dictionary's entry count, a map blob's list length) must be
 * checked against what the reader already knows before they size any
 * buffer. Each forged value here asks for about 2^40 elements; a
 * decoder that trusted it would abort on the allocation (bad_alloc,
 * or an ASan allocation-size report) instead of returning an error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "dwrf/checksum.h"
#include "dwrf/compress.h"
#include "dwrf/dedup.h"
#include "dwrf/encoding.h"
#include "dwrf/format.h"
#include "dwrf/reader.h"
#include "dwrf/writer.h"

namespace dsi::dwrf {
namespace {

constexpr uint64_t kHuge = uint64_t{1} << 40;

/** An RLE run of kHuge copies of 10: tag, count, base, delta. */
Buffer
hugeRun()
{
    Buffer out{0x00};
    putVarint(out, kHuge);
    putSignedVarint(out, 10);
    putSignedVarint(out, 0);
    return out;
}

/** A file of `rows` rows, each holding sparse feature 200 with a
 * 1-20 value list. */
Buffer
sparseFile(WriterOptions wo, uint32_t rows, FileFooter &footer)
{
    FileWriter writer(wo);
    for (uint32_t r = 0; r < rows; ++r) {
        Row row;
        SparseFeature f;
        f.id = 200;
        for (uint32_t k = 0; k <= r % 20; ++k)
            f.values.push_back(1000000 + k);
        row.sparse.push_back(std::move(f));
        writer.append(row);
    }
    Buffer file = writer.finish();
    footer = writer.footer();
    return file;
}

/**
 * Overwrite stream `s`'s stored bytes with `stored` (zero-padded to
 * the stream's length) and re-stamp its CRC in the footer, so the
 * checksum passes and only the decoder can object. A CRC is fixed
 * width, so the footer keeps its size and place.
 */
void
forgeStream(Buffer &file, FileFooter &footer, StreamInfo &s,
            const Buffer &stored)
{
    ASSERT_LE(stored.size(), s.length);
    uint8_t *at = file.data() + s.offset;
    std::fill(at, at + s.length, 0);
    std::memcpy(at, stored.data(), stored.size());
    s.checksum = crc32(ByteSpan(at, s.length));
    Buffer bytes = footer.serialize();
    std::memcpy(file.data() + file.size() - kTailBytes - bytes.size(),
                bytes.data(), bytes.size());
}

StreamInfo &
firstStream(FileFooter &footer, StreamKind kind)
{
    for (auto &s : footer.stripes[0].streams)
        if (s.kind == kind)
            return s;
    ADD_FAILURE() << "no stream of kind " << static_cast<int>(kind);
    return footer.stripes[0].streams[0];
}

ReadStatus
readFirstStripe(Buffer file)
{
    MemorySource src(std::move(file));
    ReadOptions ro;
    ro.max_stripe_retries = 0;
    FileReader reader(src, ro);
    EXPECT_TRUE(reader.valid());
    if (!reader.valid())
        return ReadStatus::IoError;
    RowBatch batch;
    return reader.readStripe(0, batch);
}

/** A tail-terminated file holding only `footer_bytes`. */
Buffer
footerOnlyFile(const Buffer &footer_bytes)
{
    Buffer file = footer_bytes;
    putU64(file, footer_bytes.size());
    putU32(file, kFileMagic);
    return file;
}

TEST(DecoderBounds, RleRunPastLimitIsRejected)
{
    Buffer run = hugeRun();
    std::vector<int64_t> bulk, scalar;
    EXPECT_FALSE(rleDecode(run, bulk, 4096));
    EXPECT_FALSE(rleDecodeScalar(run, scalar, 4096));
    EXPECT_TRUE(bulk.empty());
    EXPECT_TRUE(scalar.empty());

    // The limit counts what is already in the output too.
    Buffer three;
    rleEncode({7, 7, 7}, three);
    std::vector<int64_t> values = {1, 2};
    EXPECT_FALSE(rleDecode(three, values, 4));
    values = {1, 2};
    EXPECT_TRUE(rleDecode(three, values, 5));
    EXPECT_EQ(values.size(), 5u);
}

TEST(DecoderBounds, LzSizeHeaderMustMatchRawLength)
{
    Buffer block;
    putVarint(block, kHuge);
    block.insert(block.end(), {0x01, 0x41});
    Buffer scratch;
    EXPECT_FALSE(decompress(Codec::Lz, block, 16, scratch).has_value());
    EXPECT_FALSE(
        decompress(Codec::None, block, 16, scratch).has_value());
    EXPECT_EQ(scratch.capacity(), 0u);
}

TEST(DecoderBounds, ForgedSparseLengthRunIsDecodeError)
{
    WriterOptions wo;
    wo.codec = Codec::None;
    wo.rows_per_stripe = 64;
    FileFooter footer;
    Buffer file = sparseFile(wo, 64, footer);
    StreamInfo &lengths = firstStream(footer, StreamKind::SparseLengths);
    Buffer stored;
    putVarint(stored, lengths.raw_length);
    Buffer run = hugeRun();
    ASSERT_LE(run.size(), lengths.raw_length);
    stored.insert(stored.end(), run.begin(), run.end());
    forgeStream(file, footer, lengths, stored);
    EXPECT_EQ(readFirstStripe(std::move(file)), ReadStatus::DecodeError);
}

TEST(DecoderBounds, ForgedLzSizeHeaderIsDecodeError)
{
    WriterOptions wo;
    wo.codec = Codec::Lz;
    wo.rows_per_stripe = 64;
    FileFooter footer;
    Buffer file = sparseFile(wo, 64, footer);
    StreamInfo &values = firstStream(footer, StreamKind::SparseValues);
    Buffer stored;
    putVarint(stored, kHuge);
    forgeStream(file, footer, values, stored);
    EXPECT_EQ(readFirstStripe(std::move(file)), ReadStatus::DecodeError);
}

TEST(DecoderBounds, ForgedMapBlobListLengthIsDecodeError)
{
    WriterOptions wo;
    wo.codec = Codec::None;
    wo.flatten = false;
    FileFooter footer;
    Buffer file = sparseFile(wo, 20, footer);
    StreamInfo &blob = firstStream(footer, StreamKind::MapBlob);
    // label, no dense, one sparse feature 200 claiming kHuge values.
    Buffer raw;
    putFloat(raw, 0.0f);
    putVarint(raw, 0);
    putVarint(raw, 1);
    putVarint(raw, 200);
    putVarint(raw, kHuge);
    ASSERT_LE(raw.size(), blob.raw_length);
    Buffer stored;
    putVarint(stored, blob.raw_length);
    stored.insert(stored.end(), raw.begin(), raw.end());
    forgeStream(file, footer, blob, stored);
    EXPECT_EQ(readFirstStripe(std::move(file)), ReadStatus::DecodeError);
}

TEST(DecoderBounds, ForgedDictionaryCountsAreRejected)
{
    // Shared dictionary claiming kHuge entries.
    Buffer dict;
    putVarint(dict, kHuge);
    dict.push_back(0);
    Buffer run = hugeRun();
    putVarint(dict, run.size());
    dict.insert(dict.end(), run.begin(), run.end());
    DecodedListDict decoded;
    EXPECT_FALSE(decodeSharedListDict(dict, decoded));

    // A plausible entry count whose lengths block runs past it.
    Buffer small;
    putVarint(small, 4);
    small.push_back(0);
    putVarint(small, run.size());
    small.insert(small.end(), run.begin(), run.end());
    EXPECT_FALSE(decodeSharedListDict(small, decoded));

    // A stripe column whose inline lengths run past its inline count.
    Buffer column;
    putVarint(column, 4); // rows
    column.push_back(0);  // unscored
    putVarint(column, 4); // inline lists
    putVarint(column, run.size());
    column.insert(column.end(), run.begin(), run.end());
    SparseColumn col;
    EXPECT_FALSE(decodeListDictColumn(column, 4, nullptr, col));
}

TEST(FooterBounds, HugeStripeCountLeavesReaderInvalid)
{
    Buffer footer;
    putVarint(footer, 0); // total rows
    footer.insert(footer.end(), {1, 0, 1}); // Lz, plain, flattened
    putVarint(footer, kHuge);
    EXPECT_FALSE(FileFooter::deserialize(footer).has_value());

    MemorySource src(footerOnlyFile(footer));
    FileReader reader(src, ReadOptions{});
    EXPECT_FALSE(reader.valid());
    EXPECT_EQ(reader.stripeCount(), 0u);
}

TEST(FooterBounds, HugeStreamAndDictCountsAreRejected)
{
    Buffer streams;
    putVarint(streams, 0);
    streams.insert(streams.end(), {1, 0, 1});
    putVarint(streams, 1); // one stripe...
    for (int field = 0; field < 4; ++field)
        putVarint(streams, 0);
    putVarint(streams, kHuge); // ...claiming kHuge streams
    EXPECT_FALSE(FileFooter::deserialize(streams).has_value());

    Buffer dicts;
    putVarint(dicts, 0);
    dicts.insert(dicts.end(), {1, 0, 1});
    putVarint(dicts, 0);     // no stripes
    putVarint(dicts, kHuge); // kHuge shared dictionaries
    EXPECT_FALSE(FileFooter::deserialize(dicts).has_value());
}

TEST(FooterBounds, UnknownCodecLeavesReaderInvalid)
{
    Buffer footer;
    putVarint(footer, 0);
    footer.insert(footer.end(), {9, 0, 1});
    putVarint(footer, 0);
    putVarint(footer, 0);
    MemorySource src(footerOnlyFile(footer));
    FileReader reader(src, ReadOptions{});
    EXPECT_FALSE(reader.valid());

    // The same footer with a known codec parses.
    footer[1] = 1;
    EXPECT_TRUE(FileFooter::deserialize(footer).has_value());
}

} // namespace
} // namespace dsi::dwrf
