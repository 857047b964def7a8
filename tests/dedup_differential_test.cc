/**
 * @file
 * Differential-testing harness proving end-to-end dedup lossless.
 *
 * Two sessions run over the *same seeded duplicated corpus*: the
 * baseline stores plain DWRF and transforms every row; the dedup
 * session stores list-dictionary DWRF (WriterOptions::dedup) and
 * collapses duplicate rows before the transform stage
 * (WorkerOptions::dedup_enabled). Every delivered batch — keyed by
 * its replay-stable (split_id, first_row) identity — must be
 * byte-identical between the two, including under worker-crash and
 * corrupt-replica fault injection. Unit tests cover the batch-dedup
 * plan/gather/expand primitives and the Sampling bypass gate.
 *
 * The same comparer pins Sampling's determinism: a Sampling graph must
 * deliver the same bytes per (split_id, first_row) whatever the worker
 * thread count, across a worker crash and replay, and in the streaming
 * worker inline and with its transform pool.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "dpp/session.h"
#include "dpp/stream_session.h"
#include "etl/entries.h"
#include "test_fixtures.h"
#include "transforms/dedup.h"

namespace dsi::dpp {
namespace {

// ---------------------------------------------------------------------
// Plan / gather / expand unit tests.

dwrf::RowBatch
twoColumnBatch(const std::vector<float> &labels,
               const std::vector<float> &dense_values,
               const std::vector<std::vector<int64_t>> &lists)
{
    dwrf::RowBatch batch;
    batch.rows = static_cast<uint32_t>(labels.size());
    batch.labels = labels;

    dwrf::DenseColumn d;
    d.id = 1;
    d.present.assign((batch.rows + 7) / 8, 0);
    d.values = dense_values;
    for (uint32_t r = 0; r < batch.rows; ++r)
        d.setPresent(r);
    batch.dense.push_back(std::move(d));

    dwrf::SparseColumn s;
    s.id = 2;
    s.offsets.assign(batch.rows + 1, 0);
    for (uint32_t r = 0; r < batch.rows; ++r) {
        s.values.insert(s.values.end(), lists[r].begin(),
                        lists[r].end());
        s.offsets[r + 1] = static_cast<uint32_t>(s.values.size());
    }
    batch.sparse.push_back(std::move(s));
    return batch;
}

TEST(BatchDedupPlan, GroupsByFeatureContentNotLabel)
{
    // Rows 0/2/4 share a payload (distinct labels); rows 1/3 share
    // another. Labels must not split the groups.
    auto batch = twoColumnBatch({0.f, 1.f, 1.f, 0.f, 1.f},
                                {2.f, 3.f, 2.f, 3.f, 2.f},
                                {{7, 8}, {9}, {7, 8}, {9}, {7, 8}});
    auto plan = transforms::planBatchDedup(batch);
    ASSERT_EQ(plan.unique_rows.size(), 2u);
    EXPECT_TRUE(plan.collapsed());
    EXPECT_EQ(plan.unique_rows[0], 0u);
    EXPECT_EQ(plan.unique_rows[1], 1u);
    EXPECT_EQ(plan.inverse,
              (std::vector<uint32_t>{0, 1, 0, 1, 0}));
}

TEST(BatchDedupPlan, NearDuplicatesStayDistinct)
{
    // Same dense values but list tails differ; same lists but dense
    // differs; -0.0f vs 0.0f and NaN-vs-NaN bit patterns.
    float nan1 = std::nanf("1");
    auto batch = twoColumnBatch(
        {0.f, 0.f, 0.f, 0.f, 0.f, 0.f},
        {1.f, 1.f, 2.f, -0.f, 0.f, nan1},
        {{5, 6}, {5, 7}, {5, 6}, {}, {}, {}});
    auto plan = transforms::planBatchDedup(batch);
    EXPECT_EQ(plan.unique_rows.size(), 6u);
    EXPECT_FALSE(plan.collapsed());

    // Two bitwise-equal NaN rows DO collapse (exact bit identity).
    auto nan_batch = twoColumnBatch({0.f, 1.f}, {nan1, nan1},
                                    {{3}, {3}});
    EXPECT_TRUE(transforms::planBatchDedup(nan_batch).collapsed());
}

TEST(BatchDedupPlan, ExpandRestoresLabelsAndContent)
{
    auto batch = twoColumnBatch({.5f, .25f, .125f, .0625f},
                                {1.f, 2.f, 1.f, 2.f},
                                {{4, 4}, {8}, {4, 4}, {8}});
    auto plan = transforms::planBatchDedup(batch);
    ASSERT_EQ(plan.unique_rows.size(), 2u);

    std::vector<float> labels = batch.labels;
    auto unique = transforms::gatherRows(batch, plan.unique_rows);
    EXPECT_EQ(unique.rows, 2u);
    auto expanded = transforms::expandBatch(unique, plan, labels);

    ASSERT_EQ(expanded.rows, batch.rows);
    EXPECT_EQ(expanded.labels, batch.labels);
    ASSERT_EQ(expanded.dense.size(), 1u);
    EXPECT_EQ(expanded.dense[0].values, batch.dense[0].values);
    EXPECT_EQ(expanded.dense[0].present, batch.dense[0].present);
    ASSERT_EQ(expanded.sparse.size(), 1u);
    EXPECT_EQ(expanded.sparse[0].offsets, batch.sparse[0].offsets);
    EXPECT_EQ(expanded.sparse[0].values, batch.sparse[0].values);
}

TEST(BatchDedupPlan, SamplingGraphsAreNotRowLocal)
{
    transforms::TransformGraph graph;
    transforms::TransformSpec clamp;
    clamp.kind = transforms::OpKind::Clamp;
    clamp.inputs = {1};
    clamp.output = 1;
    clamp.p0 = 0.0;
    clamp.p1 = 1.0;
    graph.add(clamp);
    EXPECT_TRUE(transforms::rowLocal(graph));

    transforms::TransformSpec sampling;
    sampling.kind = transforms::OpKind::Sampling;
    sampling.p0 = 1.0;
    graph.add(sampling);
    EXPECT_FALSE(transforms::rowLocal(graph));
    transforms::CompiledGraph compiled(graph);
    EXPECT_FALSE(transforms::rowLocal(compiled));
}

// ---------------------------------------------------------------------
// End-to-end differential sessions.

warehouse::SchemaParams
diffParams()
{
    warehouse::SchemaParams p;
    p.name = "dedup_diff";
    p.float_features = 12;
    p.sparse_features = 8;
    p.avg_length = 6;
    p.coverage_u = 0.5;
    p.seed = 47;
    return p;
}

warehouse::DupParams
diffDup()
{
    warehouse::DupParams dp;
    dp.pool_size = 96; // small pool => heavy within-batch duplication
    dp.alpha = 1.1;
    dp.seed = 29;
    return dp;
}

SessionSpec
diffSpec(const testing::MiniWarehouse &mw)
{
    SessionSpec spec;
    spec.table = mw.name;
    spec.partitions = {0, 1};
    spec.projection = warehouse::chooseProjection(
        mw.schema, mw.popularity, 6, 4, 7);
    transforms::ModelGraphParams gp;
    gp.derived_features = 2;
    spec.setTransforms(
        transforms::makeModelGraph(mw.schema, spec.projection, gp));
    spec.batch_size = 256;
    spec.rows_per_split = 1024;
    return spec;
}

/** Captures every delivered batch by replay-stable identity. */
struct BatchLog
{
    std::map<std::pair<uint64_t, RowId>, dwrf::RowBatch> batches;
    uint64_t rows = 0;

    InProcessSession::TensorSink sink()
    {
        return [this](ClientId, const TensorBatch &t) {
            auto [it, inserted] =
                batches.emplace(std::pair{t.split_id, t.first_row},
                                t.data);
            EXPECT_TRUE(inserted)
                << "batch (split " << t.split_id << ", row "
                << t.first_row << ") delivered twice";
            rows += t.data.rows;
        };
    }
};

/** Bitwise float compare (memcmp on an empty vector's null data() is
 * undefined, so empty vectors compare by size alone). */
bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void
expectBatchEqual(const dwrf::RowBatch &a, const dwrf::RowBatch &b,
                 uint64_t split, RowId first_row)
{
    auto ctx = [&](const char *what) {
        return ::testing::Message()
               << what << " differs in batch (split " << split
               << ", row " << first_row << ")";
    };
    ASSERT_EQ(a.rows, b.rows) << ctx("row count");
    // Bitwise float compares throughout: dedup must not normalize
    // NaN payloads or signed zeros anywhere in the pipeline.
    EXPECT_TRUE(sameBits(a.labels, b.labels)) << ctx("labels");
    ASSERT_EQ(a.dense.size(), b.dense.size()) << ctx("dense count");
    for (size_t c = 0; c < a.dense.size(); ++c) {
        EXPECT_EQ(a.dense[c].id, b.dense[c].id) << ctx("dense id");
        EXPECT_EQ(a.dense[c].present, b.dense[c].present)
            << ctx("presence");
        EXPECT_TRUE(sameBits(a.dense[c].values, b.dense[c].values))
            << ctx("dense values");
    }
    ASSERT_EQ(a.sparse.size(), b.sparse.size()) << ctx("sparse count");
    for (size_t c = 0; c < a.sparse.size(); ++c) {
        EXPECT_EQ(a.sparse[c].id, b.sparse[c].id) << ctx("sparse id");
        EXPECT_EQ(a.sparse[c].offsets, b.sparse[c].offsets)
            << ctx("offsets");
        EXPECT_EQ(a.sparse[c].values, b.sparse[c].values)
            << ctx("sparse values");
        EXPECT_TRUE(sameBits(a.sparse[c].scores, b.sparse[c].scores))
            << ctx("scores");
    }
}

void
expectLogsIdentical(const BatchLog &baseline, const BatchLog &other)
{
    EXPECT_EQ(baseline.rows, other.rows);
    ASSERT_EQ(baseline.batches.size(), other.batches.size());
    for (const auto &[key, batch] : baseline.batches) {
        auto it = other.batches.find(key);
        ASSERT_NE(it, other.batches.end())
            << "batch (split " << key.first << ", row " << key.second
            << ") missing from the compared run";
        expectBatchEqual(batch, it->second, key.first, key.second);
    }
}

/** `diffSpec` with a Sampling op (keep rate `p0`) appended. */
SessionSpec
withSampling(const testing::MiniWarehouse &mw, double p0)
{
    SessionSpec spec = diffSpec(mw);
    auto graph = *transforms::TransformGraph::deserialize(
        spec.serialized_transforms);
    transforms::TransformSpec sampling;
    sampling.kind = transforms::OpKind::Sampling;
    sampling.p0 = p0;
    graph.add(sampling);
    spec.setTransforms(graph);
    return spec;
}

class DedupDifferentialTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kTotalRows = 2 * 4096;

    static dwrf::WriterOptions
    writerOptions(bool dedup)
    {
        dwrf::WriterOptions wo;
        wo.rows_per_stripe = 1024;
        wo.dedup = dedup;
        return wo;
    }

    DedupDifferentialTest()
        : plain_(testing::makeDupMiniWarehouse(diffParams(), diffDup(),
                                               2, 4096, 2048,
                                               writerOptions(false))),
          dedup_(testing::makeDupMiniWarehouse(diffParams(), diffDup(),
                                               2, 4096, 2048,
                                               writerOptions(true)))
    {
        FaultInjector::instance().reset();
        FaultInjector::instance().seed(0xDED0BULL);
    }

    ~DedupDifferentialTest() override
    {
        FaultInjector::instance().reset();
    }

    /** Run the baseline (plain storage, dedup off). Fault-free. */
    BatchLog
    runBaseline()
    {
        SessionOptions so;
        so.workers = 2;
        so.clients = 1;
        InProcessSession session(*plain_.warehouse, diffSpec(plain_),
                                 so);
        BatchLog log;
        auto result = session.run(log.sink());
        EXPECT_EQ(result.rows_delivered, kTotalRows);
        EXPECT_EQ(result.splits_failed, 0u);
        return log;
    }

    /** Run the dedup session (dict storage, batch dedup on). */
    BatchLog
    runDedup(SessionOptions so, SessionResult *result_out = nullptr,
             Metrics *metrics_out = nullptr)
    {
        so.worker.dedup_enabled = true;
        InProcessSession session(*dedup_.warehouse, diffSpec(dedup_),
                                 so);
        BatchLog log;
        auto result = session.run(log.sink());
        EXPECT_EQ(result.splits_failed, 0u);
        if (result_out != nullptr)
            *result_out = result;
        if (metrics_out != nullptr)
            *metrics_out = session.collectMetrics();
        return log;
    }

    testing::MiniWarehouse plain_;
    testing::MiniWarehouse dedup_;
};

TEST_F(DedupDifferentialTest, DeliveriesAreByteIdentical)
{
    BatchLog baseline = runBaseline();
    ASSERT_EQ(baseline.rows, kTotalRows);

    SessionOptions so;
    so.workers = 2;
    so.clients = 1;
    SessionResult result;
    Metrics metrics;
    BatchLog dedup = runDedup(so, &result, &metrics);

    expectLogsIdentical(baseline, dedup);

    // Both dedup layers actually fired — this was not a trivial pass.
    EXPECT_GT(metrics.counter("worker.dedup_batches_collapsed"), 0.0);
    EXPECT_GT(metrics.counter("worker.dedup_rows_in"),
              metrics.counter("worker.dedup_rows_unique"));
    EXPECT_GT(metrics.counter("dwrf.dict_streams"), 0.0);
    EXPECT_GT(result.read_stats.dict_list_refs, 0u);

    // The duplicated corpus stores smaller with dedup on.
    EXPECT_LT(dedup_.table().partitions()[0].stored_bytes,
              plain_.table().partitions()[0].stored_bytes);
}

TEST_F(DedupDifferentialTest, ByteIdenticalUnderWorkerCrash)
{
    BatchLog baseline = runBaseline();

    SessionOptions so;
    so.workers = 2;
    so.clients = 2;
    so.lease_timeout = 0.05;
    // Kill a dedup worker mid-split: the replayed split must
    // reproduce exactly the same bytes (slicing, storage decode, and
    // batch dedup are all deterministic functions of the split).
    ScopedFault crash(faults::kWorkerCrash,
                      FaultSpec{.trigger_hit = 6});
    SessionResult result;
    BatchLog dedup = runDedup(so, &result);

    EXPECT_GE(result.worker_failures, 1u);
    expectLogsIdentical(baseline, dedup);
}

TEST_F(DedupDifferentialTest, ByteIdenticalUnderReplicaCorruption)
{
    // Storage-level verification off: a rotted replica serves its
    // damaged bytes, so detection falls to the DWRF stream checksums
    // (reportCorruption quarantines the replica and the stripe retry
    // rotates to a healthy copy). This is the path a corrupt shared
    // dictionary heals through.
    storage::StorageOptions so_storage;
    so_storage.block_size = 4_MiB;
    so_storage.hdd_nodes = 4;
    so_storage.verify_reads = false;
    auto plain = warehouse::buildDupMiniCorpus(
        diffParams(), diffDup(), 2, 4096, 2048, writerOptions(false),
        so_storage);
    auto dedup_mw = warehouse::buildDupMiniCorpus(
        diffParams(), diffDup(), 2, 4096, 2048, writerOptions(true),
        so_storage);

    SessionOptions so;
    so.workers = 2;
    so.clients = 1;
    InProcessSession base_session(*plain.warehouse, diffSpec(plain),
                                  so);
    BatchLog baseline;
    auto base_result = base_session.run(baseline.sink());
    EXPECT_EQ(base_result.rows_delivered, kTotalRows);

    // Rot up to two replicas mid-run: shared-dict and stripe reads
    // alike must catch the damage via CRC and heal through
    // replica-rotating retries — never deliver wrong bytes.
    ScopedFault corrupt(faults::kTectonicReplicaCorrupt,
                        FaultSpec{.probability = 0.05, .max_fires = 2});
    so.worker.dedup_enabled = true;
    InProcessSession dedup_session(*dedup_mw.warehouse,
                                   diffSpec(dedup_mw), so);
    BatchLog dedup;
    auto result = dedup_session.run(dedup.sink());

    EXPECT_EQ(result.splits_failed, 0u);
    EXPECT_GE(result.read_stats.checksum_mismatches, 1u);
    EXPECT_GE(result.read_stats.stripe_retries, 1u);
    expectLogsIdentical(baseline, dedup);
}

TEST_F(DedupDifferentialTest, SamplingGraphBypassesBatchDedup)
{
    // A graph ending in keep-all Sampling is not row-local: the
    // worker must bypass batch dedup (counted) and still deliver
    // exactly the baseline bytes (keep-all sampling is an identity).
    SessionOptions so;
    so.workers = 2;
    so.clients = 1;
    InProcessSession base_session(*plain_.warehouse,
                                  withSampling(plain_, 1.0), so);
    BatchLog baseline;
    base_session.run(baseline.sink());

    so.worker.dedup_enabled = true;
    InProcessSession dedup_session(*dedup_.warehouse,
                                   withSampling(dedup_, 1.0), so);
    BatchLog dedup;
    dedup_session.run(dedup.sink());
    Metrics metrics = dedup_session.collectMetrics();

    expectLogsIdentical(baseline, dedup);
    EXPECT_GT(metrics.counter("worker.dedup_bypassed_batches"), 0.0);
    EXPECT_EQ(metrics.counter("worker.dedup_batches_collapsed"), 0.0);
}

TEST_F(DedupDifferentialTest, ParallelPipelineStaysByteIdentical)
{
    BatchLog baseline = runBaseline();

    SessionOptions so;
    so.workers = 2;
    so.clients = 2;
    so.worker.num_extract_threads = 2;
    so.worker.num_transform_threads = 2;
    BatchLog dedup = runDedup(so);
    expectLogsIdentical(baseline, dedup);
}

// ---------------------------------------------------------------------
// Sampling determinism.

TEST_F(DedupDifferentialTest, SamplingIsIndependentOfThreadsAndReplay)
{
    // Sampling keeps a row by hashing its identity, so which rows
    // survive cannot depend on how many transform threads ran, which
    // thread took a stripe, or whether the split is a replay.
    auto run = [&](SessionOptions so, SessionResult *result_out) {
        InProcessSession session(*plain_.warehouse,
                                 withSampling(plain_, 0.5), so);
        BatchLog log;
        SessionResult result = session.run(log.sink());
        EXPECT_EQ(result.splits_failed, 0u);
        if (result_out != nullptr)
            *result_out = result;
        return log;
    };

    SessionOptions sync;
    sync.workers = 1;
    sync.clients = 1;
    BatchLog baseline = run(sync, nullptr);
    // A real sample: neither every row nor none.
    EXPECT_GT(baseline.rows, kTotalRows / 4);
    EXPECT_LT(baseline.rows, kTotalRows * 3 / 4);

    for (uint32_t transform : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "1+" << transform
                                          << " threads");
        SessionOptions so = sync;
        so.worker.num_extract_threads = 1;
        so.worker.num_transform_threads = transform;
        expectLogsIdentical(baseline, run(so, nullptr));
    }

    SCOPED_TRACE("worker crash and replay");
    SessionOptions so;
    so.workers = 2;
    so.clients = 2;
    so.lease_timeout = 0.05;
    ScopedFault crash(faults::kWorkerCrash, FaultSpec{.trigger_hit = 6});
    SessionResult result;
    BatchLog replayed = run(so, &result);
    EXPECT_GE(result.worker_failures, 1u);
    expectLogsIdentical(baseline, replayed);
}

TEST(StreamSampling, PooledTransformKeepsTheInlineRows)
{
    // The streaming worker keys Sampling on each row's stream
    // position, so its transform pool delivers what the inline path
    // does, batch for batch.
    constexpr FeatureId kDense = 1, kIds = 2;
    scribe::LogDevice dev;
    for (uint32_t i = 0; i < 1000; ++i) {
        dwrf::Row row;
        row.label = static_cast<float>(i % 2);
        row.dense.push_back({kDense, 0.25f * static_cast<float>(i % 13)});
        row.sparse.push_back(
            {kIds, {static_cast<int64_t>(i), int64_t{i} * 7}, {}});
        dwrf::Buffer payload;
        payload.push_back(i % 2);
        etl::encodeFeatures(row, payload);
        dev.append("labeled", static_cast<SimTime>(i), i, payload);
    }
    transforms::TransformGraph graph;
    transforms::TransformSpec hash;
    hash.kind = transforms::OpKind::SigridHash;
    hash.inputs = {kIds};
    hash.output = 100;
    hash.u0 = 5;
    hash.u1 = 1u << 16;
    graph.add(hash);
    transforms::TransformSpec sampling;
    sampling.kind = transforms::OpKind::Sampling;
    sampling.p0 = 0.5;
    graph.add(sampling);

    auto run = [&](uint32_t threads) {
        StreamSessionSpec spec;
        spec.batch_size = 64;
        spec.num_transform_threads = threads;
        spec.setTransforms(graph);
        StreamWorker worker(dev, spec);
        worker.pump();
        worker.flush();
        BatchLog log;
        auto sink = log.sink();
        while (auto tensor = worker.popTensor())
            sink(0, *tensor);
        return log;
    };
    BatchLog inline_log = run(0);
    EXPECT_GT(inline_log.rows, 250u);
    EXPECT_LT(inline_log.rows, 750u);
    expectLogsIdentical(inline_log, run(4));
}

} // namespace
} // namespace dsi::dpp
