/**
 * @file
 * The trainer contract of CompiledGraph: a delivered batch holds the
 * raw columns plus the graph's sinks, and every intermediate (a graph
 * output a later op reads) is dropped after its last reader.
 *
 * The reference runs the same ops one by one with nothing dropped;
 * the delivered columns must equal its raw and sink columns byte for
 * byte, in order, through each path that applies a graph: the plain
 * apply, batch dedup (drop, then expand), and the streaming worker
 * (inline and with its transform pool).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "dpp/stream_session.h"
#include "etl/entries.h"
#include "transforms/dedup.h"
#include "transforms/graph.h"

namespace dsi::transforms {
namespace {

constexpr FeatureId kDense = 1, kA = 10, kB = 11;

TransformSpec
op(OpKind kind, std::vector<FeatureId> inputs, FeatureId out,
   uint64_t u0 = 0, uint64_t u1 = 0)
{
    TransformSpec s;
    s.kind = kind;
    s.inputs = std::move(inputs);
    s.output = out;
    s.u0 = u0;
    s.u1 = u1;
    return s;
}

/**
 * A chain 100 -> 101 -> 102, an output (103) read by two later ops,
 * a dense intermediate (106), raw columns read directly, and a pair
 * of ops over a column no batch carries (they write nothing).
 */
TransformGraph
livenessGraph()
{
    TransformGraph g;
    g.add(op(OpKind::SigridHash, {kA}, 100, 7, 1u << 16));
    g.add(op(OpKind::MapId, {100}, 101, 1u << 15, 1));
    g.add(op(OpKind::Enumerate, {101}, 102));
    g.add(op(OpKind::PositiveModulus, {kB}, 103, 50));
    g.add(op(OpKind::IdListTransform, {103, kA}, 104));
    g.add(op(OpKind::Cartesian, {103, kB}, 105, 16, 3));
    TransformSpec clamp = op(OpKind::Clamp, {kDense}, 106);
    clamp.p0 = 0.0;
    clamp.p1 = 1.0;
    g.add(clamp);
    g.add(op(OpKind::Logit, {106}, 107));
    g.add(op(OpKind::FirstX, {999}, 108, 2));
    g.add(op(OpKind::NGram, {108}, 109, 2));
    return g;
}

const std::set<FeatureId> kRaw = {kDense, kA, kB};
const std::set<FeatureId> kSinks = {102, 104, 105, 107, 109};
const std::set<FeatureId> kIntermediates = {100, 101, 103, 106, 108};

/** Rows with repeats, so batch dedup has rows to collapse. */
std::vector<dwrf::Row>
makeRows(uint32_t n)
{
    std::vector<dwrf::Row> rows(n);
    for (uint32_t i = 0; i < n; ++i) {
        dwrf::Row &r = rows[i];
        uint32_t k = i % 7 < 4 ? i % 3 : i; // ~half repeat a template
        r.label = static_cast<float>(i % 2);
        if (k % 5 != 4)
            r.dense.push_back({kDense, 0.1f * static_cast<float>(k % 13)});
        std::vector<int64_t> a, b;
        for (uint32_t j = 0; j < k % 9; ++j)
            a.push_back(static_cast<int64_t>((k * 31 + j * 17) % 23) - 5);
        for (uint32_t j = 0; j < (k + 3) % 6; ++j)
            b.push_back(static_cast<int64_t>((k * 7 + j * 5) % 60));
        r.sparse.push_back({kA, a, {}});
        r.sparse.push_back({kB, b, {}});
    }
    return rows;
}

/** The graph run op by op with nothing dropped. */
dwrf::RowBatch
applyKeepingAll(const TransformGraph &graph, dwrf::RowBatch batch)
{
    TransformStats stats;
    for (const auto &spec : graph.specs())
        compileTransform(spec)->apply(batch, stats);
    return batch;
}

/** The columns of `batch` named in `keep`, in order. */
dwrf::RowBatch
onlyColumns(dwrf::RowBatch batch, const std::set<FeatureId> &keep)
{
    std::erase_if(batch.dense,
                  [&](const auto &c) { return !keep.count(c.id); });
    std::erase_if(batch.sparse,
                  [&](const auto &c) { return !keep.count(c.id); });
    return batch;
}

/** Byte identity of two batches, column by column. */
void
expectSameBatch(const dwrf::RowBatch &got, const dwrf::RowBatch &want)
{
    ASSERT_EQ(got.rows, want.rows);
    ASSERT_EQ(got.labels.size(), want.labels.size());
    EXPECT_EQ(std::memcmp(got.labels.data(), want.labels.data(),
                          got.labels.size() * sizeof(float)),
              0);
    ASSERT_EQ(got.dense.size(), want.dense.size());
    for (size_t i = 0; i < got.dense.size(); ++i) {
        EXPECT_EQ(got.dense[i].id, want.dense[i].id);
        EXPECT_EQ(got.dense[i].present, want.dense[i].present);
        ASSERT_EQ(got.dense[i].values.size(),
                  want.dense[i].values.size());
        EXPECT_EQ(std::memcmp(got.dense[i].values.data(),
                              want.dense[i].values.data(),
                              got.dense[i].values.size() * sizeof(float)),
                  0);
    }
    ASSERT_EQ(got.sparse.size(), want.sparse.size());
    for (size_t i = 0; i < got.sparse.size(); ++i) {
        EXPECT_EQ(got.sparse[i].id, want.sparse[i].id);
        EXPECT_EQ(got.sparse[i].offsets, want.sparse[i].offsets);
        EXPECT_EQ(got.sparse[i].values, want.sparse[i].values);
        EXPECT_EQ(got.sparse[i].scores, want.sparse[i].scores);
    }
}

/** Column ids a batch carries. */
std::set<FeatureId>
columnIds(const dwrf::RowBatch &batch)
{
    std::set<FeatureId> ids;
    for (const auto &c : batch.dense)
        ids.insert(c.id);
    for (const auto &c : batch.sparse)
        ids.insert(c.id);
    return ids;
}

/** The raw and sink columns the reference run leaves. */
dwrf::RowBatch
expectedDelivery(const TransformGraph &graph, const dwrf::RowBatch &raw)
{
    dwrf::RowBatch all = applyKeepingAll(graph, raw);
    // The reference really does carry the intermediates.
    for (FeatureId id : {100u, 101u, 103u, 106u})
        EXPECT_TRUE(columnIds(all).count(id)) << id;
    std::set<FeatureId> keep = kRaw;
    keep.insert(kSinks.begin(), kSinks.end());
    return onlyColumns(std::move(all), keep);
}

void
expectRawAndSinksOnly(const dwrf::RowBatch &batch)
{
    for (FeatureId id : columnIds(batch)) {
        EXPECT_TRUE(kRaw.count(id) || kSinks.count(id)) << id;
        EXPECT_FALSE(kIntermediates.count(id)) << id;
    }
    for (FeatureId id : {kDense, kA, kB, 102u, 104u, 105u, 107u})
        EXPECT_TRUE(columnIds(batch).count(id)) << id;
}

TEST(GraphLiveness, PlainApplyDeliversRawColumnsAndSinks)
{
    TransformGraph graph = livenessGraph();
    dwrf::RowBatch batch = dwrf::batchFromRows(makeRows(96));
    dwrf::RowBatch want = expectedDelivery(graph, batch);
    CompiledGraph compiled(graph);
    TransformStats stats = compiled.apply(batch);
    expectRawAndSinksOnly(batch);
    expectSameBatch(batch, want);
    // Dropping changes what is delivered, not what was computed.
    TransformStats all_stats;
    dwrf::RowBatch again = dwrf::batchFromRows(makeRows(96));
    for (const auto &spec : graph.specs())
        compileTransform(spec)->apply(again, all_stats);
    EXPECT_EQ(stats.values_produced, all_stats.values_produced);
    EXPECT_EQ(stats.values_consumed, all_stats.values_consumed);
}

TEST(GraphLiveness, SerializedGraphDropsTheSameColumns)
{
    TransformGraph graph = livenessGraph();
    auto wire = TransformGraph::deserialize(graph.serialize());
    ASSERT_TRUE(wire.has_value());
    dwrf::RowBatch a = dwrf::batchFromRows(makeRows(40));
    dwrf::RowBatch b = a;
    CompiledGraph(graph).apply(a);
    CompiledGraph(*wire).apply(b);
    expectRawAndSinksOnly(b);
    expectSameBatch(b, a);
}

TEST(GraphLiveness, BatchDedupDropsThenExpands)
{
    TransformGraph graph = livenessGraph();
    dwrf::RowBatch batch = dwrf::batchFromRows(makeRows(128));
    dwrf::RowBatch want = expectedDelivery(graph, batch);

    BatchDedupPlan plan = planBatchDedup(batch);
    ASSERT_TRUE(plan.collapsed());
    dwrf::RowBatch unique = gatherRows(batch, plan.unique_rows);
    CompiledGraph(graph).apply(unique);
    expectRawAndSinksOnly(unique);
    dwrf::RowBatch expanded = expandBatch(unique, plan, batch.labels);
    expectRawAndSinksOnly(expanded);
    expectSameBatch(expanded, want);
}

TEST(GraphLiveness, StreamWorkerDeliversRawColumnsAndSinks)
{
    TransformGraph graph = livenessGraph();
    std::vector<dwrf::Row> rows = makeRows(250);
    scribe::LogDevice dev;
    for (size_t i = 0; i < rows.size(); ++i) {
        dwrf::Buffer payload;
        payload.push_back(rows[i].label != 0.0f ? 1 : 0);
        etl::encodeFeatures(rows[i], payload);
        dev.append("labeled", static_cast<SimTime>(i), i, payload);
    }
    constexpr uint32_t kBatch = 64;
    for (uint32_t threads : {0u, 2u}) {
        SCOPED_TRACE(threads);
        dpp::StreamSessionSpec spec;
        spec.batch_size = kBatch;
        spec.num_transform_threads = threads;
        spec.setTransforms(graph);
        dpp::StreamWorker worker(dev, spec);
        EXPECT_EQ(worker.pump(), rows.size());
        worker.flush();
        size_t first = 0;
        while (auto tensor = worker.popTensor()) {
            size_t n = tensor->data.rows;
            std::vector<dwrf::Row> chunk(rows.begin() + first,
                                         rows.begin() + first + n);
            expectRawAndSinksOnly(tensor->data);
            expectSameBatch(tensor->data,
                            expectedDelivery(graph,
                                             dwrf::batchFromRows(chunk)));
            EXPECT_EQ(tensor->bytes, tensor->data.payloadBytes());
            first += n;
        }
        EXPECT_EQ(first, rows.size());
    }
}

} // namespace
} // namespace dsi::transforms
