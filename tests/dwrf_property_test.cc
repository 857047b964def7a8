/**
 * @file
 * Property tests for the DWRF format over generated, realistic data:
 * projection/coalescing equivalence, accounting invariants, and
 * write-option sweeps.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "dwrf/reader.h"
#include "dwrf/writer.h"
#include "warehouse/datagen.h"

namespace dsi::dwrf {
namespace {

using warehouse::SchemaParams;
using warehouse::TableSchema;

struct Generated
{
    TableSchema schema;
    Buffer file;
    std::vector<FeatureId> projection;
};

Generated
generate(uint64_t seed, uint32_t rows_per_stripe, Codec codec,
         bool encrypt)
{
    SchemaParams p;
    p.float_features = 24;
    p.sparse_features = 16;
    p.coverage_u = 0.4;
    p.avg_length = 7;
    p.seed = seed;
    Generated g;
    g.schema = warehouse::makeSchema(p);
    warehouse::RowGenerator gen(g.schema, seed ^ 0xabc);

    WriterOptions wo;
    wo.rows_per_stripe = rows_per_stripe;
    wo.codec = codec;
    wo.encrypt = encrypt;
    FileWriter writer(wo);
    writer.appendRows(gen.batch(3000));
    g.file = writer.finish();

    auto pop = warehouse::featurePopularity(g.schema, 1.0, seed);
    g.projection =
        warehouse::chooseProjection(g.schema, pop, 8, 6, seed ^ 0x55);
    return g;
}

void
expectBatchesEqual(const RowBatch &a, const RowBatch &b)
{
    ASSERT_EQ(a.rows, b.rows);
    ASSERT_EQ(a.labels, b.labels);
    ASSERT_EQ(a.dense.size(), b.dense.size());
    for (size_t i = 0; i < a.dense.size(); ++i) {
        EXPECT_EQ(a.dense[i].id, b.dense[i].id);
        EXPECT_EQ(a.dense[i].present, b.dense[i].present);
        EXPECT_EQ(a.dense[i].values, b.dense[i].values);
    }
    ASSERT_EQ(a.sparse.size(), b.sparse.size());
    for (size_t i = 0; i < a.sparse.size(); ++i) {
        EXPECT_EQ(a.sparse[i].id, b.sparse[i].id);
        EXPECT_EQ(a.sparse[i].offsets, b.sparse[i].offsets);
        EXPECT_EQ(a.sparse[i].values, b.sparse[i].values);
        EXPECT_EQ(a.sparse[i].scores, b.sparse[i].scores);
    }
}

using Param = std::tuple<uint64_t, uint32_t, Codec, bool>;

class DwrfProperty : public ::testing::TestWithParam<Param>
{
  protected:
    Generated
    make() const
    {
        auto [seed, rps, codec, encrypt] = GetParam();
        return generate(seed, rps, codec, encrypt);
    }
};

TEST_P(DwrfProperty, CoalescedEqualsUncoalesced)
{
    auto g = make();
    ReadOptions ro;
    ro.projection = g.projection;
    MemorySource a_src(g.file);
    FileReader a(a_src, ro);
    ro.coalesce = true;
    MemorySource b_src(g.file);
    FileReader b(b_src, ro);
    ASSERT_TRUE(a.valid() && b.valid());
    ASSERT_EQ(a.stripeCount(), b.stripeCount());
    for (size_t s = 0; s < a.stripeCount(); ++s) {
        RowBatch ba, bb;
        ASSERT_EQ(a.readStripe(s, ba), ReadStatus::Ok);
        ASSERT_EQ(b.readStripe(s, bb), ReadStatus::Ok);
        expectBatchesEqual(ba, bb);
    }
    // Coalescing never issues more IOs and never reads fewer bytes.
    EXPECT_LE(b.stats().ios, a.stats().ios);
    EXPECT_GE(b.stats().bytes_read, a.stats().bytes_read);
}

TEST_P(DwrfProperty, ProjectionMatchesFilteredFullRead)
{
    auto g = make();
    MemorySource full_src(g.file);
    FileReader full(full_src, ReadOptions{});
    ReadOptions ro;
    ro.projection = g.projection;
    MemorySource proj_src(g.file);
    FileReader proj(proj_src, ro);
    ASSERT_TRUE(full.valid() && proj.valid());

    std::set<FeatureId> keep(g.projection.begin(),
                             g.projection.end());
    for (size_t s = 0; s < full.stripeCount(); ++s) {
        RowBatch f, p;
        ASSERT_EQ(full.readStripe(s, f), ReadStatus::Ok);
        ASSERT_EQ(proj.readStripe(s, p), ReadStatus::Ok);
        // Filter the full batch down to the projection.
        RowBatch filtered;
        filtered.rows = f.rows;
        filtered.labels = f.labels;
        for (auto &c : f.dense)
            if (keep.count(c.id))
                filtered.dense.push_back(std::move(c));
        for (auto &c : f.sparse)
            if (keep.count(c.id))
                filtered.sparse.push_back(std::move(c));
        expectBatchesEqual(filtered, p);
    }
}

TEST_P(DwrfProperty, AccountingInvariants)
{
    auto g = make();
    ReadOptions ro;
    ro.projection = g.projection;
    ro.coalesce = true;
    MemorySource src(g.file);
    FileReader reader(src, ro);
    ASSERT_TRUE(reader.valid());
    RowBatch batch;
    for (size_t s = 0; s < reader.stripeCount(); ++s)
        ASSERT_EQ(reader.readStripe(s, batch), ReadStatus::Ok);
    const auto &st = reader.stats();
    EXPECT_GE(st.bytes_read, st.bytes_needed);
    EXPECT_EQ(st.overRead(), st.bytes_read - st.bytes_needed);
    EXPECT_GE(st.bytes_decompressed, st.bytes_needed / 4);
    EXPECT_GT(st.streams_decoded, 0u);
    auto [seed, rps, codec, encrypt] = GetParam();
    if (encrypt)
        EXPECT_EQ(st.bytes_decrypted, st.bytes_needed);
    else
        EXPECT_EQ(st.bytes_decrypted, 0u);
}

TEST_P(DwrfProperty, FooterConsistent)
{
    auto g = make();
    MemorySource src(g.file);
    FileReader reader(src, ReadOptions{});
    ASSERT_TRUE(reader.valid());
    const auto &footer = reader.footer();
    EXPECT_EQ(footer.total_rows, 3000u);
    uint64_t rows = 0;
    Bytes prev_end = 0;
    for (const auto &stripe : footer.stripes) {
        EXPECT_EQ(stripe.first_row, rows);
        rows += stripe.rows;
        EXPECT_EQ(stripe.offset, prev_end);
        prev_end = stripe.offset + stripe.length;
        Bytes stream_end = stripe.offset;
        for (const auto &s : stripe.streams) {
            EXPECT_EQ(s.offset, stream_end); // streams are contiguous
            stream_end += s.length;
        }
        EXPECT_EQ(stream_end, stripe.offset + stripe.length);
    }
    EXPECT_EQ(rows, footer.total_rows);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DwrfProperty,
    ::testing::Values(Param{1, 512, Codec::Lz, false},
                      Param{2, 512, Codec::Lz, true},
                      Param{3, 1024, Codec::None, false},
                      Param{4, 3000, Codec::Lz, false},
                      Param{5, 700, Codec::Lz, true},
                      Param{6, 128, Codec::None, true}));

} // namespace
} // namespace dsi::dwrf
