/**
 * @file
 * End-to-end tests of the DWRF writer/reader: round trips across
 * option combinations, projection, coalesced-read planning, map-blob
 * baseline, and IO-trace accounting.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "common/fault.h"
#include "common/rng.h"
#include "dwrf/reader.h"
#include "dwrf/writer.h"

namespace dsi::dwrf {
namespace {

std::vector<Row>
makeRows(uint32_t n, uint64_t seed, uint32_t dense_feats = 8,
         uint32_t sparse_feats = 4)
{
    Rng rng(seed);
    std::vector<Row> rows;
    rows.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        Row r;
        r.label = rng.nextBool(0.03) ? 1.0f : 0.0f;
        for (FeatureId f = 0; f < dense_feats; ++f) {
            if (rng.nextBool(0.7))
                r.dense.push_back(
                    {100 + f, static_cast<float>(rng.nextDouble())});
        }
        for (FeatureId f = 0; f < sparse_feats; ++f) {
            if (!rng.nextBool(0.5))
                continue;
            SparseFeature s;
            s.id = 200 + f;
            uint64_t len = 1 + rng.nextUint(20);
            for (uint64_t k = 0; k < len; ++k)
                s.values.push_back(
                    static_cast<int64_t>(rng.nextUint(1u << 20)));
            if (f % 2 == 0) {
                for (uint64_t k = 0; k < len; ++k)
                    s.scores.push_back(
                        static_cast<float>(rng.nextDouble()));
            }
            r.sparse.push_back(std::move(s));
        }
        rows.push_back(std::move(r));
    }
    return rows;
}

void
expectRowsEqual(const std::vector<Row> &a, const std::vector<Row> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_FLOAT_EQ(a[i].label, b[i].label) << "row " << i;
        ASSERT_EQ(a[i].dense.size(), b[i].dense.size()) << "row " << i;
        for (size_t d = 0; d < a[i].dense.size(); ++d) {
            EXPECT_EQ(a[i].dense[d].id, b[i].dense[d].id);
            EXPECT_FLOAT_EQ(a[i].dense[d].value, b[i].dense[d].value);
        }
        ASSERT_EQ(a[i].sparse.size(), b[i].sparse.size()) << "row " << i;
        for (size_t s = 0; s < a[i].sparse.size(); ++s) {
            EXPECT_EQ(a[i].sparse[s].id, b[i].sparse[s].id);
            EXPECT_EQ(a[i].sparse[s].values, b[i].sparse[s].values);
            ASSERT_EQ(a[i].sparse[s].scores.size(),
                      b[i].sparse[s].scores.size());
            for (size_t k = 0; k < a[i].sparse[s].scores.size(); ++k)
                EXPECT_FLOAT_EQ(a[i].sparse[s].scores[k],
                                b[i].sparse[s].scores[k]);
        }
    }
}

struct FileOptions
{
    bool flatten;
    Codec codec;
    bool encrypt;
};

class FileRoundTrip : public ::testing::TestWithParam<FileOptions>
{
};

TEST_P(FileRoundTrip, AllFeaturesAllRows)
{
    auto rows = makeRows(700, 42);
    WriterOptions wo;
    wo.rows_per_stripe = 256;
    wo.flatten = GetParam().flatten;
    wo.codec = GetParam().codec;
    wo.encrypt = GetParam().encrypt;
    FileWriter writer(wo);
    writer.appendRows(rows);
    MemorySource src(writer.finish());

    FileReader reader(src, ReadOptions{});
    ASSERT_TRUE(reader.valid());
    EXPECT_EQ(reader.totalRows(), 700u);
    EXPECT_EQ(reader.stripeCount(), 3u); // 256+256+188

    std::vector<Row> got;
    RowBatch batch;
    for (size_t s = 0; s < reader.stripeCount(); ++s) {
        ASSERT_EQ(reader.readStripe(s, batch), ReadStatus::Ok);
        auto part = batch.toRows();
        got.insert(got.end(), part.begin(), part.end());
    }
    expectRowsEqual(rows, got);
}

INSTANTIATE_TEST_SUITE_P(
    Options, FileRoundTrip,
    ::testing::Values(FileOptions{true, Codec::Lz, false},
                      FileOptions{true, Codec::Lz, true},
                      FileOptions{true, Codec::None, false},
                      FileOptions{false, Codec::Lz, false},
                      FileOptions{false, Codec::Lz, true},
                      FileOptions{false, Codec::None, true}));

TEST(FileReader, ReusedBatchKeepsColumnCapacityAcrossStripes)
{
    // Callers that decode every stripe into one batch (QueryEngine::
    // scan, the benches) rely on the reader stripping the batch and
    // reusing its column buffers instead of reallocating them.
    auto rows = makeRows(512, 7);
    WriterOptions wo;
    wo.rows_per_stripe = 256;
    FileWriter writer(wo);
    writer.appendRows(rows);
    MemorySource src(writer.finish());
    FileReader reader(src, ReadOptions{});
    ASSERT_TRUE(reader.valid());
    ASSERT_EQ(reader.stripeCount(), 2u);

    RowBatch batch;
    ASSERT_EQ(reader.readStripe(0, batch), ReadStatus::Ok);
    std::set<const void *> first;
    for (const auto &c : batch.dense)
        first.insert(c.values.data());
    for (const auto &c : batch.sparse)
        first.insert(c.offsets.data());
    ASSERT_FALSE(batch.dense.empty());
    ASSERT_FALSE(batch.sparse.empty());

    // Equal-sized stripes: every dense value and sparse offset column
    // fits in a recycled buffer, so none is reallocated.
    ASSERT_EQ(reader.readStripe(1, batch), ReadStatus::Ok);
    for (const auto &c : batch.dense)
        EXPECT_TRUE(first.count(c.values.data())) << "dense " << c.id;
    for (const auto &c : batch.sparse)
        EXPECT_TRUE(first.count(c.offsets.data())) << "sparse " << c.id;

    RowBatch fresh;
    ASSERT_EQ(reader.readStripe(1, fresh), ReadStatus::Ok);
    expectRowsEqual(fresh.toRows(), batch.toRows());
}

TEST(FileReader, ProjectionReturnsOnlyRequestedFeatures)
{
    auto rows = makeRows(300, 7);
    WriterOptions wo;
    wo.rows_per_stripe = 300;
    FileWriter writer(wo);
    writer.appendRows(rows);
    MemorySource src(writer.finish());

    ReadOptions ro;
    ro.projection = {101, 200}; // one dense, one sparse
    FileReader reader(src, ro);
    ASSERT_TRUE(reader.valid());
    RowBatch batch;
    ASSERT_EQ(reader.readStripe(0, batch), ReadStatus::Ok);
    ASSERT_EQ(batch.dense.size(), 1u);
    EXPECT_EQ(batch.dense[0].id, 101u);
    ASSERT_EQ(batch.sparse.size(), 1u);
    EXPECT_EQ(batch.sparse[0].id, 200u);
    EXPECT_EQ(batch.labels.size(), 300u);
}

TEST(FileReader, ProjectionReadsFewerBytesWhenFlattened)
{
    auto rows = makeRows(2000, 11, 64, 32);
    WriterOptions wo;
    wo.rows_per_stripe = 1000;
    FileWriter writer(wo);
    writer.appendRows(rows);
    Buffer file = writer.finish();

    MemorySource full_src(file);
    FileReader full(full_src, ReadOptions{});
    RowBatch batch;
    ASSERT_EQ(full.readStripe(0, batch), ReadStatus::Ok);

    MemorySource proj_src(file);
    ReadOptions ro;
    ro.projection = {105, 210};
    FileReader proj(proj_src, ro);
    ASSERT_EQ(proj.readStripe(0, batch), ReadStatus::Ok);

    EXPECT_LT(proj.stats().bytes_read, full.stats().bytes_read / 10);
}

TEST(FileReader, MapBlobReadsEverythingRegardlessOfProjection)
{
    auto rows = makeRows(500, 13, 64, 32);
    WriterOptions wo;
    wo.rows_per_stripe = 500;
    wo.flatten = false;
    FileWriter writer(wo);
    writer.appendRows(rows);
    Buffer file = writer.finish();

    MemorySource full_src(file);
    FileReader full(full_src, ReadOptions{});
    RowBatch batch;
    ASSERT_EQ(full.readStripe(0, batch), ReadStatus::Ok);

    MemorySource proj_src(file);
    ReadOptions ro;
    ro.projection = {105};
    FileReader proj(proj_src, ro);
    ASSERT_EQ(proj.readStripe(0, batch), ReadStatus::Ok);

    // Same stored bytes fetched, but only the projection materialized.
    EXPECT_EQ(proj.stats().bytes_read, full.stats().bytes_read);
    ASSERT_EQ(batch.dense.size(), 1u);
    EXPECT_EQ(batch.dense[0].id, 105u);
}

TEST(Planner, UncoalescedHasOneIoPerStream)
{
    StripeInfo stripe;
    for (int i = 0; i < 5; ++i)
        stripe.streams.push_back({static_cast<FeatureId>(i),
                                  StreamKind::DenseValues,
                                  static_cast<Bytes>(i) * 1000, 100,
                                  100});
    std::vector<size_t> wanted{0, 2, 4};
    auto plan = planStripeReads(stripe, wanted, false, 0);
    ASSERT_EQ(plan.size(), 3u);
    for (const auto &io : plan)
        EXPECT_EQ(io.stream_indices.size(), 1u);
}

TEST(Planner, CoalescingMergesNearbyStreams)
{
    StripeInfo stripe;
    // Streams at 0, 1000, 2000 with 100-byte lengths; gaps of 900.
    for (int i = 0; i < 3; ++i)
        stripe.streams.push_back({static_cast<FeatureId>(i),
                                  StreamKind::DenseValues,
                                  static_cast<Bytes>(i) * 1000, 100,
                                  100});
    std::vector<size_t> wanted{0, 1, 2};
    auto plan = planStripeReads(stripe, wanted, true, 1000);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].offset, 0u);
    EXPECT_EQ(plan[0].length, 2100u);
    EXPECT_EQ(plan[0].stream_indices.size(), 3u);
}

TEST(Planner, GapLargerThanThresholdSplits)
{
    StripeInfo stripe;
    stripe.streams.push_back({0, StreamKind::DenseValues, 0, 100, 100});
    stripe.streams.push_back(
        {1, StreamKind::DenseValues, 5000, 100, 100});
    auto plan = planStripeReads(stripe, {0, 1}, true, 1000);
    EXPECT_EQ(plan.size(), 2u);
}

TEST(Planner, UnsortedWantedStillPlansByOffset)
{
    StripeInfo stripe;
    for (int i = 0; i < 4; ++i)
        stripe.streams.push_back({static_cast<FeatureId>(i),
                                  StreamKind::DenseValues,
                                  static_cast<Bytes>(i) * 50, 50, 50});
    auto plan = planStripeReads(stripe, {3, 0, 2, 1}, true, 0);
    ASSERT_EQ(plan.size(), 1u); // contiguous streams merge at gap 0
    EXPECT_EQ(plan[0].length, 200u);
}

TEST(FileReader, CoalescingReducesIosButOverReads)
{
    auto rows = makeRows(2000, 17, 64, 32);
    WriterOptions wo;
    wo.rows_per_stripe = 2000;
    FileWriter writer(wo);
    writer.appendRows(rows);
    Buffer file = writer.finish();

    ReadOptions proj;
    // A scattered projection across the feature space.
    for (FeatureId f = 100; f < 164; f += 8)
        proj.projection.push_back(f);
    for (FeatureId f = 200; f < 232; f += 8)
        proj.projection.push_back(f);

    MemorySource src_a(file);
    FileReader separate(src_a, proj);
    RowBatch batch;
    ASSERT_EQ(separate.readStripe(0, batch), ReadStatus::Ok);

    ReadOptions proj_co = proj;
    proj_co.coalesce = true;
    MemorySource src_b(file);
    FileReader coalesced(src_b, proj_co);
    ASSERT_EQ(coalesced.readStripe(0, batch), ReadStatus::Ok);

    EXPECT_LT(coalesced.stats().ios, separate.stats().ios);
    EXPECT_GE(coalesced.stats().bytes_read,
              separate.stats().bytes_read);
    EXPECT_GT(coalesced.stats().overRead(), 0u);
    EXPECT_EQ(separate.stats().overRead(), 0u);
}

TEST(FileWriter, PopularityOrderPlacesPopularStreamsFirst)
{
    auto rows = makeRows(200, 23, 16, 8);
    WriterOptions wo;
    wo.rows_per_stripe = 200;
    // Declare feature 205 (sparse) and 110 (dense) most popular.
    wo.popularity_order = {205, 110};
    FileWriter writer(wo);
    writer.appendRows(rows);
    Buffer file = writer.finish();
    const auto &stripe = writer.footer().stripes.at(0);

    // After the label stream, the first dense streams belong to 110
    // and the first sparse streams to 210.
    FeatureId first_dense = kNoFeature, first_sparse = kNoFeature;
    for (const auto &s : stripe.streams) {
        if (first_dense == kNoFeature &&
            s.kind == StreamKind::DenseValues) {
            first_dense = s.feature;
        }
        if (first_sparse == kNoFeature &&
            s.kind == StreamKind::SparseValues) {
            first_sparse = s.feature;
        }
    }
    EXPECT_EQ(first_dense, 110u);
    EXPECT_EQ(first_sparse, 205u);
}

TEST(FileWriter, StripeSizingControlsStripeCount)
{
    auto rows = makeRows(1000, 29);
    for (uint32_t rps : {100u, 250u, 1000u, 4000u}) {
        WriterOptions wo;
        wo.rows_per_stripe = rps;
        FileWriter writer(wo);
        writer.appendRows(rows);
        MemorySource src(writer.finish());
        FileReader reader(src, ReadOptions{});
        ASSERT_TRUE(reader.valid());
        EXPECT_EQ(reader.stripeCount(), (1000 + rps - 1) / rps);
    }
}

TEST(FileReader, InvalidFileRejected)
{
    MemorySource src(Buffer{1, 2, 3});
    FileReader reader(src, ReadOptions{});
    EXPECT_FALSE(reader.valid());

    Buffer junk(1000, 0xab);
    MemorySource src2(std::move(junk));
    FileReader reader2(src2, ReadOptions{});
    EXPECT_FALSE(reader2.valid());
}

TEST(FileReader, WrongKeyFailsToDecodeCleanly)
{
    auto rows = makeRows(100, 31);
    WriterOptions wo;
    wo.encrypt = true;
    wo.cipher_key = 0xaaaa;
    FileWriter writer(wo);
    writer.appendRows(rows);
    MemorySource src(writer.finish());

    ReadOptions ro;
    ro.cipher_key = 0xbbbb;
    FileReader reader(src, ro);
    // Footer is stored unencrypted, so the reader opens; decoding the
    // garbled streams must fail rather than return corrupt data.
    ASSERT_TRUE(reader.valid());
    RowBatch batch;
    EXPECT_NE(reader.readStripe(0, batch), ReadStatus::Ok);
}

TEST(IoTrace, RecordsAllReads)
{
    auto rows = makeRows(100, 37);
    FileWriter writer(WriterOptions{});
    writer.appendRows(rows);
    MemorySource src(writer.finish());
    FileReader reader(src, ReadOptions{});
    ASSERT_TRUE(reader.valid());
    src.clearTrace(); // drop footer reads
    RowBatch batch;
    ASSERT_EQ(reader.readStripe(0, batch), ReadStatus::Ok);
    EXPECT_EQ(src.trace().count(), reader.stats().ios);
    EXPECT_EQ(src.trace().totalBytes(), reader.stats().bytes_read);
}

TEST(Checksum, MismatchIsRecoverableViaCheckedRead)
{
    // A byte flipped in the middle of the first stripe's data: the
    // mismatch is counted and reported, never fatal. The stored
    // bytes are persistently corrupt, so every per-stripe retry hits
    // the same mismatch and the final status is ChecksumMismatch.
    auto rows = makeRows(200, 51);
    FileWriter writer(WriterOptions{});
    writer.appendRows(rows);
    Buffer file = writer.finish();
    file[file.size() / 4] ^= 0xff;
    MemorySource src(std::move(file));
    ReadOptions ro;
    ro.max_stripe_retries = 2;
    ro.retry_backoff_us = 0;
    FileReader reader(src, ro);
    ASSERT_TRUE(reader.valid());
    RowBatch out;
    EXPECT_EQ(reader.readStripe(0, out),
              ReadStatus::ChecksumMismatch);
    // Initial attempt + 2 retries, each catching the corruption.
    EXPECT_EQ(reader.stats().stripe_retries, 2u);
    EXPECT_EQ(reader.stats().checksum_mismatches, 3u);
}

TEST(Checksum, TransientCorruptionIsHealedByRetry)
{
    // A corrupt read that does NOT repeat (one-shot injected fault)
    // is healed transparently: the retry re-reads clean bytes and
    // the stripe decodes.
    auto rows = makeRows(150, 77);
    FileWriter writer(WriterOptions{});
    writer.appendRows(rows);
    MemorySource src(writer.finish());
    FileReader reader(src, ReadOptions{});
    ASSERT_TRUE(reader.valid());

    dsi::FaultInjector::instance().reset();
    // Corrupt the next source read once (the first stripe IO).
    dsi::ScopedFault corrupt(dsi::faults::kSourceReadCorrupt,
                             dsi::FaultSpec{.max_fires = 1});
    RowBatch out;
    EXPECT_EQ(reader.readStripe(0, out), ReadStatus::Ok);
    EXPECT_EQ(out.rows, 150u);
    EXPECT_EQ(reader.stats().checksum_mismatches, 1u);
    EXPECT_EQ(reader.stats().stripe_retries, 1u);
    dsi::FaultInjector::instance().reset();
}

TEST(Checksum, TransientIoErrorIsHealedByRetry)
{
    auto rows = makeRows(150, 78);
    FileWriter writer(WriterOptions{});
    writer.appendRows(rows);
    MemorySource src(writer.finish());
    FileReader reader(src, ReadOptions{});
    ASSERT_TRUE(reader.valid());

    dsi::FaultInjector::instance().reset();
    // The next source read fails once; the stripe retry succeeds.
    dsi::ScopedFault err(dsi::faults::kSourceReadError,
                         dsi::FaultSpec{.max_fires = 1});
    RowBatch out;
    EXPECT_EQ(reader.readStripe(0, out), ReadStatus::Ok);
    EXPECT_EQ(out.rows, 150u);
    EXPECT_EQ(reader.stats().io_errors, 1u);
    EXPECT_EQ(reader.stats().stripe_retries, 1u);
    dsi::FaultInjector::instance().reset();
}

TEST(Checksum, PersistentIoErrorSurfacesStatus)
{
    auto rows = makeRows(80, 79);
    FileWriter writer(WriterOptions{});
    writer.appendRows(rows);
    MemorySource src(writer.finish());
    FileReader reader(src, ReadOptions{}); // valid before arming
    ASSERT_TRUE(reader.valid());

    dsi::FaultInjector::instance().reset();
    dsi::ScopedFault err(dsi::faults::kSourceReadError,
                         dsi::FaultSpec{.probability = 1.0});
    RowBatch out;
    EXPECT_EQ(reader.readStripe(0, out), ReadStatus::IoError);
    EXPECT_GE(reader.stats().io_errors, 1u);
    EXPECT_EQ(reader.stats().stripe_retries, 2u); // default budget
    dsi::FaultInjector::instance().reset();
}

TEST(Checksum, VerificationCanBeDisabled)
{
    // Without verification a corrupt *uncompressed* region decodes
    // to garbage instead of dying at the CRC; corrupting stored
    // bytes under Codec::None changes values silently.
    auto rows = makeRows(50, 53);
    WriterOptions wo;
    wo.codec = Codec::None;
    FileWriter writer(wo);
    writer.appendRows(rows);
    Buffer file = writer.finish();
    const auto &label_stream = writer.footer().stripes[0].streams[0];
    // Flip one byte inside the label stream payload.
    file[label_stream.offset + 6] ^= 0x01;
    MemorySource src(std::move(file));
    ReadOptions ro;
    ro.verify_checksums = false;
    FileReader reader(src, ro);
    ASSERT_TRUE(reader.valid());
    RowBatch batch;
    ASSERT_EQ(reader.readStripe(0, batch), ReadStatus::Ok);
    EXPECT_EQ(batch.rows, 50u);
}

TEST(Footer, ValueCountsRecorded)
{
    auto rows = makeRows(300, 57);
    FileWriter writer(WriterOptions{});
    writer.appendRows(rows);
    MemorySource src(writer.finish());
    FileReader reader(src, ReadOptions{});
    ASSERT_TRUE(reader.valid());
    const auto &stripe = reader.footer().stripes.at(0);
    uint64_t sparse_values = 0;
    for (const auto &s : stripe.streams) {
        switch (s.kind) {
          case StreamKind::Labels:
          case StreamKind::DensePresent:
          case StreamKind::SparseLengths:
            EXPECT_EQ(s.value_count, 300u);
            break;
          case StreamKind::DenseValues:
            EXPECT_LE(s.value_count, 300u);
            EXPECT_GT(s.value_count, 0u);
            break;
          case StreamKind::SparseValues:
            sparse_values += s.value_count;
            break;
          default:
            break;
        }
    }
    // Value counts match what actually decodes.
    RowBatch batch;
    ASSERT_EQ(reader.readStripe(0, batch), ReadStatus::Ok);
    uint64_t decoded = 0;
    for (const auto &c : batch.sparse)
        decoded += c.values.size();
    EXPECT_EQ(sparse_values, decoded);
}

TEST(RowBatch, PayloadBytesPositive)
{
    auto rows = makeRows(50, 41);
    auto batch = batchFromRows(rows);
    EXPECT_GT(batch.payloadBytes(), 50u * sizeof(float));
    EXPECT_EQ(batch.rows, 50u);
}

TEST(RowBatch, FindHelpers)
{
    auto rows = makeRows(50, 43);
    auto batch = batchFromRows(rows);
    ASSERT_FALSE(batch.dense.empty());
    EXPECT_NE(batch.findDense(batch.dense[0].id), nullptr);
    EXPECT_EQ(batch.findDense(9999), nullptr);
    ASSERT_FALSE(batch.sparse.empty());
    EXPECT_NE(batch.findSparse(batch.sparse[0].id), nullptr);
    EXPECT_EQ(batch.findSparse(9999), nullptr);
}

} // namespace
} // namespace dsi::dwrf
