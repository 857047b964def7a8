/**
 * @file
 * Unit tests for every Table XI transformation, spec serialization,
 * and graph compilation.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "common/rng.h"
#include "transforms/graph.h"
#include "transforms/ops.h"
#include "warehouse/datagen.h"

namespace dsi::transforms {
namespace {

/** Batch with one dense feature (id 1) and two sparse (ids 10, 11). */
dwrf::RowBatch
testBatch()
{
    std::vector<dwrf::Row> rows(3);
    rows[0].label = 1;
    rows[0].dense = {{1, 0.25f}};
    rows[0].sparse.push_back({10, {5, 7, 9}, {}});
    rows[0].sparse.push_back({11, {7, 8}, {}});
    rows[1].label = 0;
    rows[1].dense = {{1, 0.75f}};
    rows[1].sparse.push_back({10, {-3, 5}, {}});
    rows[1].sparse.push_back({11, {2}, {}});
    rows[2].label = 0; // row with nothing but dense
    rows[2].dense = {{1, 42.0f}};
    return dwrf::batchFromRows(rows);
}

TransformSpec
spec(OpKind kind, std::vector<FeatureId> inputs, FeatureId out)
{
    TransformSpec s;
    s.kind = kind;
    s.inputs = std::move(inputs);
    s.output = out;
    return s;
}

TEST(Ops, ClampBoundsValues)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Clamp, {1}, 100);
    s.p0 = 0.3;
    s.p1 = 1.0;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findDense(100);
    ASSERT_NE(out, nullptr);
    EXPECT_FLOAT_EQ(out->values[0], 0.3f);
    EXPECT_FLOAT_EQ(out->values[1], 0.75f);
    EXPECT_FLOAT_EQ(out->values[2], 1.0f);
    EXPECT_EQ(stats.values_consumed, 3u);
}

TEST(Ops, LogitMapsUnitInterval)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Logit, {1}, 100);
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findDense(100);
    ASSERT_NE(out, nullptr);
    EXPECT_NEAR(out->values[0], std::log(0.25 / 0.75), 1e-5);
    EXPECT_NEAR(out->values[1], std::log(0.75 / 0.25), 1e-5);
    // 42 clamps to 1 - eps -> large positive.
    EXPECT_GT(out->values[2], 10.0f);
}

TEST(Ops, BoxCoxLambdaZeroIsLog)
{
    auto batch = testBatch();
    auto s = spec(OpKind::BoxCox, {1}, 100);
    s.p0 = 0.0;
    s.p1 = 1.0;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    EXPECT_NEAR(batch.findDense(100)->values[0], std::log(1.25), 1e-5);
}

TEST(Ops, BucketizeProducesBucketIndices)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Bucketize, {1}, 100);
    s.p0 = 0.0;
    s.p1 = 0.5;
    s.u0 = 4;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findDense(100);
    EXPECT_FLOAT_EQ(out->values[0], 0.0f); // 0.25 -> bucket 0
    EXPECT_FLOAT_EQ(out->values[1], 1.0f); // 0.75 -> bucket 1
    EXPECT_FLOAT_EQ(out->values[2], 3.0f); // 42 clamps to last
}

TEST(Ops, OnehotEmitsSingleCategorical)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Onehot, {1}, 100);
    s.p0 = 0.0;
    s.p1 = 0.5;
    s.u0 = 8;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->length(0), 1u);
    EXPECT_EQ(out->values[out->offsets[1]], 1); // 0.75 / 0.5 -> 1
}

TEST(Ops, GetLocalHourWrapsDay)
{
    auto batch = testBatch();
    // Treat dense value 42 as a timestamp; offset 3 hours.
    auto s = spec(OpKind::GetLocalHour, {1}, 100);
    s.u0 = 3;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findDense(100);
    EXPECT_FLOAT_EQ(out->values[2], 3.0f); // 42s + 3h -> hour 3
    for (float v : out->values) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, 24.0f);
    }
}

TEST(Ops, SigridHashBoundsAndDeterminism)
{
    auto batch = testBatch();
    auto s = spec(OpKind::SigridHash, {10}, 100);
    s.u0 = 77;
    s.u1 = 1000;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->values.size(), 5u); // 3 + 2 + 0
    for (int64_t v : out->values) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 1000);
    }
    // Same input id twice hashes identically.
    EXPECT_EQ(sigridHash64(5, 77), sigridHash64(5, 77));
    EXPECT_NE(sigridHash64(5, 77), sigridHash64(5, 78));
}

TEST(Ops, FirstXTruncates)
{
    auto batch = testBatch();
    auto s = spec(OpKind::FirstX, {10}, 100);
    s.u0 = 2;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    EXPECT_EQ(out->length(0), 2u);
    EXPECT_EQ(out->length(1), 2u);
    EXPECT_EQ(out->values[0], 5);
    EXPECT_EQ(out->values[1], 7);
}

TEST(Ops, PositiveModulusAlwaysNonNegative)
{
    auto batch = testBatch();
    auto s = spec(OpKind::PositiveModulus, {10}, 100);
    s.u0 = 7;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    for (int64_t v : out->values) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 7);
    }
    // -3 mod 7 -> 4
    EXPECT_EQ(out->values[out->offsets[1]], 4);
}

TEST(Ops, MapIdRemapsDictionary)
{
    auto batch = testBatch();
    auto s = spec(OpKind::MapId, {10}, 100);
    s.u0 = 8; // ids < 8 remap to id+1, others to default
    s.u1 = 0;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    EXPECT_EQ(out->values[0], 6); // 5 -> 6
    EXPECT_EQ(out->values[2], 0); // 9 -> default
}

TEST(Ops, EnumerateAddsPositionScores)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Enumerate, {10}, 100);
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    ASSERT_EQ(out->scores.size(), out->values.size());
    EXPECT_FLOAT_EQ(out->scores[0], 0.0f);
    EXPECT_FLOAT_EQ(out->scores[2], 2.0f);
}

TEST(Ops, ComputeScoreAffine)
{
    std::vector<dwrf::Row> rows(1);
    rows[0].sparse.push_back({10, {1, 2}, {0.5f, 1.5f}});
    auto batch = dwrf::batchFromRows(rows);
    auto s = spec(OpKind::ComputeScore, {10}, 100);
    s.p0 = 2.0;
    s.p1 = 1.0;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    EXPECT_FLOAT_EQ(out->scores[0], 2.0f);
    EXPECT_FLOAT_EQ(out->scores[1], 4.0f);
}

TEST(Ops, CartesianCrossesListsWithCap)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Cartesian, {10, 11}, 100);
    s.u0 = 4; // cap
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    EXPECT_EQ(out->length(0), 4u); // 3x2 capped to 4
    EXPECT_EQ(out->length(1), 2u); // 2x1
    EXPECT_EQ(out->length(2), 0u);
}

TEST(Ops, IdListTransformIntersects)
{
    auto batch = testBatch();
    auto s = spec(OpKind::IdListTransform, {10, 11}, 100);
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    ASSERT_EQ(out->length(0), 1u);
    EXPECT_EQ(out->values[0], 7); // {5,7,9} n {7,8}
    EXPECT_EQ(out->length(1), 0u);
}

TEST(Ops, NGramEmitsWindows)
{
    auto batch = testBatch();
    auto s = spec(OpKind::NGram, {10}, 100);
    s.u0 = 2;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    EXPECT_EQ(out->length(0), 2u); // 3 ids -> 2 bigrams
    EXPECT_EQ(out->length(1), 1u);
    for (int64_t v : out->values)
        EXPECT_GE(v, 0);
}

TEST(Ops, SamplingKeepsApproxFraction)
{
    std::vector<dwrf::Row> rows(4000);
    for (size_t i = 0; i < rows.size(); ++i)
        rows[i].dense = {{1, static_cast<float>(i)}};
    auto batch = dwrf::batchFromRows(rows);
    auto s = spec(OpKind::Sampling, {}, 0);
    s.p0 = 0.25;
    s.u0 = 9;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    EXPECT_NEAR(batch.rows, 1000u, 120u);
    EXPECT_EQ(stats.rows_in, 4000u);
    EXPECT_EQ(stats.rows_out, batch.rows);
    // Columns stay consistent.
    ASSERT_EQ(batch.dense.size(), 1u);
    EXPECT_EQ(batch.dense[0].values.size(), batch.rows);
}

TEST(Ops, MissingInputIsTolerated)
{
    auto batch = testBatch();
    auto s = spec(OpKind::SigridHash, {999}, 100);
    s.u1 = 10;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    EXPECT_EQ(batch.findSparse(100), nullptr);
    EXPECT_EQ(stats.values_consumed, 0u);
}

TEST(Ops, WrongArityDies)
{
    auto s = spec(OpKind::Cartesian, {10}, 100);
    EXPECT_DEATH(compileTransform(s), "expects 2 inputs");
}

TEST(Ops, PositiveModulusAboveInt64MaxDies)
{
    // A modulus of 2^63 or more has no int64 form: `v + m` would
    // overflow for a negative id.
    auto s = spec(OpKind::PositiveModulus, {10}, 100);
    s.u0 = uint64_t{1} << 63;
    EXPECT_DEATH(compileTransform(s), "exceeds INT64_MAX");
    s.u0 = ~uint64_t{0};
    EXPECT_DEATH(compileTransform(s), "exceeds INT64_MAX");
    s.u0 = uint64_t{INT64_MAX};
    EXPECT_NE(compileTransform(s), nullptr);
}

TEST(Ops, ClassesMatchPaperCatalog)
{
    EXPECT_EQ(opClassOf(OpKind::Bucketize),
              OpClass::FeatureGeneration);
    EXPECT_EQ(opClassOf(OpKind::NGram), OpClass::FeatureGeneration);
    EXPECT_EQ(opClassOf(OpKind::MapId), OpClass::FeatureGeneration);
    EXPECT_EQ(opClassOf(OpKind::SigridHash),
              OpClass::SparseNormalization);
    EXPECT_EQ(opClassOf(OpKind::FirstX),
              OpClass::SparseNormalization);
    EXPECT_EQ(opClassOf(OpKind::Logit), OpClass::DenseNormalization);
    EXPECT_EQ(opClassOf(OpKind::BoxCox), OpClass::DenseNormalization);
    EXPECT_EQ(opClassOf(OpKind::Onehot), OpClass::DenseNormalization);
    EXPECT_EQ(opClassOf(OpKind::Sampling), OpClass::Sampling);
}

TEST(Graph, CompiledGraphIsDeterministic)
{
    warehouse::SchemaParams p;
    p.float_features = 12;
    p.sparse_features = 8;
    p.avg_length = 6;
    auto schema = warehouse::makeSchema(p);
    auto pop = warehouse::featurePopularity(schema, 1.0, 4);
    auto proj = warehouse::chooseProjection(schema, pop, 6, 4, 4);
    transforms::ModelGraphParams gp;
    gp.derived_features = 4;
    auto graph = makeModelGraph(schema, proj, gp);

    warehouse::RowGenerator gen(schema, 9);
    auto base = dwrf::batchFromRows(gen.batch(64));

    auto run = [&]() {
        CompiledGraph compiled(graph);
        dwrf::RowBatch batch = base;
        compiled.apply(batch);
        uint64_t fingerprint = batch.rows;
        for (const auto &c : batch.sparse)
            for (int64_t v : c.values)
                fingerprint =
                    sigridHash64(fingerprint, static_cast<uint64_t>(v));
        return fingerprint;
    };
    EXPECT_EQ(run(), run());
}

TEST(Graph, SameGraphAfterSerializationProducesSameOutput)
{
    warehouse::SchemaParams p;
    p.float_features = 8;
    p.sparse_features = 6;
    p.avg_length = 5;
    auto schema = warehouse::makeSchema(p);
    auto pop = warehouse::featurePopularity(schema, 1.0, 4);
    auto proj = warehouse::chooseProjection(schema, pop, 4, 3, 4);
    transforms::ModelGraphParams gp;
    gp.derived_features = 2;
    auto graph = makeModelGraph(schema, proj, gp);
    auto wire = TransformGraph::deserialize(graph.serialize());
    ASSERT_TRUE(wire.has_value());

    warehouse::RowGenerator gen(schema, 3);
    auto batch_a = dwrf::batchFromRows(gen.batch(32));
    auto batch_b = batch_a;
    CompiledGraph(graph).apply(batch_a);
    CompiledGraph(*wire).apply(batch_b);
    ASSERT_EQ(batch_a.sparse.size(), batch_b.sparse.size());
    for (size_t i = 0; i < batch_a.sparse.size(); ++i)
        EXPECT_EQ(batch_a.sparse[i].values, batch_b.sparse[i].values);
}

TEST(Spec, SerializeRoundTrip)
{
    TransformSpec s;
    s.kind = OpKind::Cartesian;
    s.output = 12345;
    s.inputs = {7, 9};
    s.p0 = 1.5;
    s.p1 = -2.0;
    s.u0 = 64;
    s.u1 = 0xabcdef;
    dwrf::Buffer buf;
    s.serialize(buf);
    TransformSpec back;
    size_t pos = 0;
    ASSERT_TRUE(TransformSpec::deserialize(buf, pos, back));
    EXPECT_EQ(back.kind, s.kind);
    EXPECT_EQ(back.output, s.output);
    EXPECT_EQ(back.inputs, s.inputs);
    EXPECT_FLOAT_EQ(back.p0, 1.5f);
    EXPECT_EQ(back.u1, s.u1);
    EXPECT_EQ(pos, buf.size());
}

TEST(Graph, SerializeRoundTripAndCompile)
{
    TransformGraph graph;
    auto s1 = spec(OpKind::SigridHash, {10}, 100);
    s1.u1 = 64;
    graph.add(s1);
    auto s2 = spec(OpKind::FirstX, {100}, 101);
    s2.u0 = 2;
    graph.add(s2);

    auto bytes = graph.serialize();
    auto back = TransformGraph::deserialize(bytes);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), 2u);

    CompiledGraph compiled(*back);
    auto batch = testBatch();
    auto stats = compiled.apply(batch);
    // Chained: output of hash feeds FirstX.
    const auto *out = batch.findSparse(101);
    ASSERT_NE(out, nullptr);
    EXPECT_LE(out->length(0), 2u);
    EXPECT_GT(stats.values_consumed, 0u);
}

TEST(Graph, MalformedBytesRejected)
{
    dwrf::Buffer junk{0x02, 0xff};
    EXPECT_FALSE(TransformGraph::deserialize(junk).has_value());
}

TEST(Graph, MakeModelGraphShape)
{
    warehouse::SchemaParams p;
    p.float_features = 30;
    p.sparse_features = 20;
    p.avg_length = 8;
    auto schema = warehouse::makeSchema(p);
    auto pop = warehouse::featurePopularity(schema, 1.0, 5);
    auto proj = warehouse::chooseProjection(schema, pop, 10, 8, 77);

    ModelGraphParams gp;
    gp.derived_features = 6;
    auto graph = makeModelGraph(schema, proj, gp);
    EXPECT_GT(graph.size(), 6u * gp.min_chain);
    EXPECT_GT(graph.countClass(OpClass::FeatureGeneration), 0u);
    EXPECT_GT(graph.countClass(OpClass::SparseNormalization), 0u);
    EXPECT_GT(graph.countClass(OpClass::DenseNormalization), 0u);

    // Graph must execute cleanly on generated data.
    warehouse::RowGenerator gen(schema, 3);
    auto batch = dwrf::batchFromRows(gen.batch(64));
    CompiledGraph compiled(graph);
    auto stats = compiled.apply(batch);
    EXPECT_GT(stats.values_produced, 0u);
    // Feature generation should dominate consumed values.
    EXPECT_GT(stats.classShare(OpClass::FeatureGeneration), 0.4);
}

// ---------------------------------------------------------------
// Reference kernels for the differential tests: the plain per-row
// form of every list op (a virtual mapList per row, push_back
// output, two unordered_sets per IdListTransform row). The flat
// kernels in ops.cc must match them bit for bit. Test code only.
// ---------------------------------------------------------------
namespace oracle {

/** Shared base: holds the spec and stats plumbing. */
class TransformBase : public Transform
{
  public:
    explicit TransformBase(TransformSpec spec) : spec_(std::move(spec))
    {
    }
    const TransformSpec &spec() const override { return spec_; }

  protected:
    void
    account(TransformStats &stats, uint64_t consumed,
            uint64_t produced) const
    {
        stats.values_consumed += consumed;
        stats.values_produced += produced;
        stats.class_values[static_cast<int>(opClass())] += consumed;
    }

    TransformSpec spec_;
};

/** Base for ops mapping one sparse input to one sparse output. */
class SparseUnaryOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    /** Transform one row's list into the output list. */
    virtual void mapList(const int64_t *values, const float *scores,
                         uint32_t len, dwrf::SparseColumn &out) const
        = 0;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats,
          uint64_t) const override
    {
        const dwrf::SparseColumn *in =
            batch.findSparse(spec_.inputs[0]);
        if (!in)
            return;
        dwrf::SparseColumn out;
        out.id = spec_.output;
        out.offsets.assign(batch.rows + 1, 0);
        // Most unary list ops emit at most one value per input value.
        out.values.reserve(in->values.size());
        if (!in->scores.empty())
            out.scores.reserve(in->scores.size());
        uint64_t consumed = 0;
        for (uint32_t r = 0; r < batch.rows; ++r) {
            uint32_t lo = in->offsets[r];
            uint32_t len = in->offsets[r + 1] - lo;
            consumed += len;
            mapList(in->values.data() + lo,
                    in->scores.empty() ? nullptr
                                       : in->scores.data() + lo,
                    len, out);
            out.offsets[r + 1] =
                static_cast<uint32_t>(out.values.size());
        }
        account(stats, consumed, out.values.size());
        batch.sparse.push_back(std::move(out));
    }
};

class SigridHashOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

    void
    mapList(const int64_t *values, const float *, uint32_t len,
            dwrf::SparseColumn &out) const override
    {
        uint64_t max_value = spec_.u1 > 0 ? spec_.u1 : (1ULL << 31);
        for (uint32_t i = 0; i < len; ++i) {
            uint64_t h = sigridHash64(
                static_cast<uint64_t>(values[i]), spec_.u0);
            out.values.push_back(static_cast<int64_t>(h % max_value));
        }
    }
};

class PositiveModulusOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

    void
    mapList(const int64_t *values, const float *, uint32_t len,
            dwrf::SparseColumn &out) const override
    {
        int64_t m = spec_.u0 > 0 ? static_cast<int64_t>(spec_.u0)
                                 : 1000000;
        for (uint32_t i = 0; i < len; ++i) {
            int64_t v = values[i] % m;
            out.values.push_back(v < 0 ? v + m : v);
        }
    }
};

class FirstXOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

    void
    mapList(const int64_t *values, const float *scores, uint32_t len,
            dwrf::SparseColumn &out) const override
    {
        uint32_t keep = std::min<uint32_t>(
            len, spec_.u0 > 0 ? static_cast<uint32_t>(spec_.u0) : 1);
        for (uint32_t i = 0; i < keep; ++i) {
            out.values.push_back(values[i]);
            if (scores)
                out.scores.push_back(scores[i]);
        }
    }
};

class MapIdOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

    void
    mapList(const int64_t *values, const float *, uint32_t len,
            dwrf::SparseColumn &out) const override
    {
        // Fixed mapping: ids below u0 keep a remapped identity; all
        // others collapse to the default id u1.
        int64_t dict = static_cast<int64_t>(spec_.u0);
        for (uint32_t i = 0; i < len; ++i) {
            out.values.push_back(values[i] < dict
                                     ? values[i] + 1
                                     : static_cast<int64_t>(spec_.u1));
        }
    }
};

class NGramOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

    void
    mapList(const int64_t *values, const float *, uint32_t len,
            dwrf::SparseColumn &out) const override
    {
        uint32_t n = spec_.u0 >= 2 ? static_cast<uint32_t>(spec_.u0)
                                   : 2;
        if (len < n)
            return;
        for (uint32_t i = 0; i + n <= len; ++i) {
            uint64_t h = spec_.u1; // salt
            for (uint32_t k = 0; k < n; ++k)
                h = sigridHash64(static_cast<uint64_t>(values[i + k]),
                                 h);
            out.values.push_back(
                static_cast<int64_t>(h >> 1)); // keep positive
        }
    }
};

class EnumerateOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

    void
    mapList(const int64_t *values, const float *, uint32_t len,
            dwrf::SparseColumn &out) const override
    {
        for (uint32_t i = 0; i < len; ++i) {
            out.values.push_back(values[i]);
            out.scores.push_back(static_cast<float>(i));
        }
    }
};

class ComputeScoreOp : public SparseUnaryOp
{
  public:
    using SparseUnaryOp::SparseUnaryOp;

    void
    mapList(const int64_t *values, const float *scores, uint32_t len,
            dwrf::SparseColumn &out) const override
    {
        // score' = score * p0 + p1 (score defaults to 1 if absent)
        for (uint32_t i = 0; i < len; ++i) {
            out.values.push_back(values[i]);
            double s = scores ? scores[i] : 1.0;
            out.scores.push_back(
                static_cast<float>(s * spec_.p0 + spec_.p1));
        }
    }
};

/** Base for ops combining two sparse inputs. */
class SparseBinaryOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    virtual void mapLists(const int64_t *a, uint32_t alen,
                          const int64_t *b, uint32_t blen,
                          dwrf::SparseColumn &out) const = 0;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats,
          uint64_t) const override
    {
        const dwrf::SparseColumn *a = batch.findSparse(spec_.inputs[0]);
        const dwrf::SparseColumn *b = batch.findSparse(spec_.inputs[1]);
        if (!a || !b)
            return;
        dwrf::SparseColumn out;
        out.id = spec_.output;
        out.offsets.assign(batch.rows + 1, 0);
        out.values.reserve(a->values.size());
        uint64_t consumed = 0;
        for (uint32_t r = 0; r < batch.rows; ++r) {
            uint32_t alo = a->offsets[r];
            uint32_t alen = a->offsets[r + 1] - alo;
            uint32_t blo = b->offsets[r];
            uint32_t blen = b->offsets[r + 1] - blo;
            consumed += alen + blen;
            mapLists(a->values.data() + alo, alen,
                     b->values.data() + blo, blen, out);
            out.offsets[r + 1] =
                static_cast<uint32_t>(out.values.size());
        }
        account(stats, consumed, out.values.size());
        batch.sparse.push_back(std::move(out));
    }
};

class CartesianOp : public SparseBinaryOp
{
  public:
    using SparseBinaryOp::SparseBinaryOp;

    void
    mapLists(const int64_t *a, uint32_t alen, const int64_t *b,
             uint32_t blen, dwrf::SparseColumn &out) const override
    {
        uint64_t cap = spec_.u0 > 0 ? spec_.u0 : 128;
        uint64_t emitted = 0;
        for (uint32_t i = 0; i < alen && emitted < cap; ++i) {
            for (uint32_t j = 0; j < blen && emitted < cap; ++j) {
                uint64_t h = sigridHash64(
                    static_cast<uint64_t>(a[i]),
                    static_cast<uint64_t>(b[j]) ^ spec_.u1);
                out.values.push_back(static_cast<int64_t>(h >> 1));
                ++emitted;
            }
        }
    }
};

class IdListTransformOp : public SparseBinaryOp
{
  public:
    using SparseBinaryOp::SparseBinaryOp;

    void
    mapLists(const int64_t *a, uint32_t alen, const int64_t *b,
             uint32_t blen, dwrf::SparseColumn &out) const override
    {
        // Intersection of the two id lists, preserving a's order.
        std::unordered_set<int64_t> bset(b, b + blen);
        std::unordered_set<int64_t> emitted;
        for (uint32_t i = 0; i < alen; ++i) {
            if (bset.count(a[i]) && emitted.insert(a[i]).second)
                out.values.push_back(a[i]);
        }
    }
};

/** The reference op for `spec`, or null for a kind not rewritten. */
std::unique_ptr<Transform>
compile(const TransformSpec &spec)
{
    switch (spec.kind) {
      case OpKind::SigridHash:
        return std::make_unique<SigridHashOp>(spec);
      case OpKind::PositiveModulus:
        return std::make_unique<PositiveModulusOp>(spec);
      case OpKind::FirstX:
        return std::make_unique<FirstXOp>(spec);
      case OpKind::MapId:
        return std::make_unique<MapIdOp>(spec);
      case OpKind::NGram:
        return std::make_unique<NGramOp>(spec);
      case OpKind::Enumerate:
        return std::make_unique<EnumerateOp>(spec);
      case OpKind::ComputeScore:
        return std::make_unique<ComputeScoreOp>(spec);
      case OpKind::Cartesian:
        return std::make_unique<CartesianOp>(spec);
      case OpKind::IdListTransform:
        return std::make_unique<IdListTransformOp>(spec);
      default:
        return nullptr;
    }
}

} // namespace oracle

// --- Per-op differential tests: flat kernels vs the reference ---

constexpr FeatureId kA = 10, kB = 11;

using Lists = std::vector<std::vector<int64_t>>;

/**
 * A batch holding two sparse columns, `a` (id 10) and `b` (id 11),
 * one list per row. Scored columns get a score per value, with
 * negative, fractional and signed-zero scores among them.
 */
dwrf::RowBatch
listBatch(const Lists &a, const Lists &b, bool scored)
{
    dwrf::RowBatch batch;
    batch.rows = static_cast<uint32_t>(a.size());
    batch.labels.assign(batch.rows, 0.0f);
    for (const auto *lists : {&a, &b}) {
        dwrf::SparseColumn c;
        c.id = lists == &a ? kA : kB;
        c.offsets.push_back(0);
        for (const auto &list : *lists) {
            c.values.insert(c.values.end(), list.begin(), list.end());
            c.offsets.push_back(static_cast<uint32_t>(c.values.size()));
        }
        if (scored) {
            for (size_t i = 0; i < c.values.size(); ++i)
                c.scores.push_back(i % 5 == 0 ? -0.0f
                                              : static_cast<float>(
                                                    c.values[i] % 9) *
                                                    0.37f);
        }
        batch.sparse.push_back(std::move(c));
    }
    return batch;
}

/** Adversarial list batches, each as a pair of per-row lists. */
std::vector<std::pair<std::string, std::pair<Lists, Lists>>>
adversarialLists()
{
    const int64_t lo = INT64_MIN, hi = INT64_MAX;
    std::vector<std::pair<std::string, std::pair<Lists, Lists>>> out;
    out.push_back({"repeats",
                   {{{5, 5, 7, 5, 9, 7}, {1, 2, 2, 1}, {3, 3, 3}},
                    {{7, 7, 5, 3, 5}, {2, 2, 1, 1}, {3}}}});
    out.push_back({"empty_a_or_b",
                   {{{}, {4, 5}, {}, {6}, {}},
                    {{4, 5}, {}, {}, {6, 6}, {1}}}});
    out.push_back({"zero_rows", {{}, {}}});
    {
        // One row of 1,500 ids among empty rows; its b list is long
        // too and overlaps a with repeats on both sides.
        Lists a(9), b(9);
        for (int64_t i = 0; i < 1500; ++i)
            a[4].push_back((i * 7919) % 1009 - 500);
        for (int64_t i = 0; i < 1200; ++i)
            b[4].push_back((i * 104729) % 1013 - 480);
        out.push_back({"one_long_row", {a, b}});
    }
    out.push_back({"extremes",
                   {{{lo, hi, -1, 0, lo, hi, -7},
                     {hi, hi},
                     {lo},
                     {-1, -2, -3, -2}},
                    {{hi, 0, lo, lo},
                     {lo, hi, hi},
                     {lo, hi},
                     {-2, -2, -4}}}});
    {
        Rng rng(77);
        const int64_t domain[] = {lo, hi, lo + 1, hi - 1, -1, 0, 1};
        Lists a(64), b(64);
        for (auto *lists : {&a, &b}) {
            for (auto &list : *lists) {
                uint64_t len = rng.nextUint(41);
                for (uint64_t i = 0; i < len; ++i) {
                    list.push_back(
                        rng.nextBool(0.1)
                            ? domain[rng.nextUint(7)]
                            : static_cast<int64_t>(rng.nextUint(41)) - 20);
                }
            }
        }
        out.push_back({"random", {a, b}});
    }
    {
        // `b` lists of 4,096 distinct ids (the id table's largest
        // 8-slots-per-id size) and of 40,000 (2 slots per id), between
        // short rows that probe a prefix of the same table. `a` holds
        // members, repeats and ids that are not in `b`.
        Lists a(5), b(5);
        a[0] = {3, 1, 3};
        b[0] = {1, 2, 3};
        for (int64_t i = 0; i < 4096; ++i)
            b[1].push_back(i * 2654435761 - 3000000000LL);
        for (int64_t i = 0; i < 600; ++i)
            a[1].push_back(b[1][(i * 37) % 4096] + (i % 3 == 0 ? 1 : 0));
        a[2] = {7, 7};
        b[2] = {7};
        for (int64_t i = 0; i < 40000; ++i)
            b[3].push_back((i * 7919) ^ (i << 40));
        for (int64_t i = 0; i < 900; ++i)
            a[3].push_back(b[3][(i * 101) % 40000] - (i % 4 == 0));
        a[4] = {lo, hi};
        b[4] = {hi};
        out.push_back({"long_b", {a, b}});
    }
    {
        Lists same = {{4, 4, 9, 4, 9, 1}, {lo, lo, hi, lo}, {}, {2}};
        out.push_back({"a_equals_b", {same, same}});
    }
    return out;
}

/** The rewritten ops, each with parameters that hit its edges. */
std::vector<TransformSpec>
rewrittenOpSpecs()
{
    std::vector<TransformSpec> specs;
    auto add = [&](OpKind kind, std::vector<FeatureId> in, uint64_t u0,
                   uint64_t u1, double p0 = 0.0, double p1 = 0.0) {
        TransformSpec s = spec(kind, std::move(in), 100);
        s.u0 = u0;
        s.u1 = u1;
        s.p0 = p0;
        s.p1 = p1;
        specs.push_back(s);
    };
    // SigridHash: power-of-two moduli, others, and the default.
    for (uint64_t m : {uint64_t{1} << 22, uint64_t{1}, uint64_t{0},
                       uint64_t{1000003}, uint64_t{3},
                       ~uint64_t{0}}) {
        add(OpKind::SigridHash, {kA}, 0x1234abcd, m);
    }
    add(OpKind::SigridHash, {kA}, 0x1234abcd, uint64_t{1} << 63);
    for (uint64_t m : {uint64_t{1} << 20, uint64_t{1}, uint64_t{0},
                       uint64_t{1000}, uint64_t{7}, uint64_t{1} << 62}) {
        add(OpKind::PositiveModulus, {kA}, m, 0);
    }
    for (uint64_t x : {0, 1, 3, 2000})
        add(OpKind::FirstX, {kA}, x, 0);
    add(OpKind::MapId, {kA}, 1u << 18, 1);
    add(OpKind::MapId, {kA}, 0, ~uint64_t{0});
    add(OpKind::MapId, {kA}, uint64_t{1} << 63, 5);
    for (uint64_t n : {0, 2, 3, 5})
        add(OpKind::NGram, {kA}, n, 0x5eed);
    add(OpKind::Enumerate, {kA}, 0, 0);
    add(OpKind::ComputeScore, {kA}, 0, 0, 1.7, 0.3);
    add(OpKind::ComputeScore, {kA}, 0, 0, -0.5, -2.25);
    for (uint64_t cap : {0, 1, 5, 64, 100000}) {
        add(OpKind::Cartesian, {kA, kB}, cap, 0xfeed);
        add(OpKind::Cartesian, {kB, kA}, cap, 0xfeed);
    }
    add(OpKind::IdListTransform, {kA, kB}, 0, 0);
    add(OpKind::IdListTransform, {kB, kA}, 0, 0);
    add(OpKind::IdListTransform, {kA, kA}, 0, 0);
    return specs;
}

/** Bitwise equality of two batches' sparse columns and stats. */
void
expectSameOutput(const dwrf::RowBatch &got, const TransformStats &got_st,
                 const dwrf::RowBatch &want,
                 const TransformStats &want_st)
{
    ASSERT_EQ(got.sparse.size(), want.sparse.size());
    for (size_t i = 0; i < got.sparse.size(); ++i) {
        const auto &g = got.sparse[i];
        const auto &w = want.sparse[i];
        EXPECT_EQ(g.id, w.id);
        EXPECT_EQ(g.offsets, w.offsets);
        EXPECT_EQ(g.values, w.values);
        ASSERT_EQ(g.scores.size(), w.scores.size());
        if (!g.scores.empty()) { // bitwise: -0.0f must stay -0.0f
            EXPECT_EQ(std::memcmp(g.scores.data(), w.scores.data(),
                                  g.scores.size() * sizeof(float)),
                      0);
        }
    }
    EXPECT_EQ(got_st.values_consumed, want_st.values_consumed);
    EXPECT_EQ(got_st.values_produced, want_st.values_produced);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(got_st.class_values[c], want_st.class_values[c]);
}

TEST(OpsDifferential, FlatKernelsMatchReferenceOnAdversarialLists)
{
    auto cases = adversarialLists();
    for (const TransformSpec &s : rewrittenOpSpecs()) {
        auto flat = compileTransform(s);
        auto ref = oracle::compile(s);
        ASSERT_NE(ref, nullptr);
        for (const auto &[name, lists] : cases) {
            for (bool scored : {false, true}) {
                SCOPED_TRACE(std::string(opKindName(s.kind)) + " u0=" +
                             std::to_string(s.u0) + " u1=" +
                             std::to_string(s.u1) + " on " + name +
                             (scored ? " (scored)" : " (unscored)"));
                auto got = listBatch(lists.first, lists.second, scored);
                auto want = got;
                TransformStats got_st, want_st;
                flat->apply(got, got_st);
                ref->apply(want, want_st);
                expectSameOutput(got, got_st, want, want_st);
            }
        }
    }
}

TEST(OpsDifferential, IdListTransformKeepsOrderAndDropsRepeats)
{
    auto batch = listBatch({{9, 4, 9, 2, 4, 7}}, {{4, 9, 4, 2}}, false);
    TransformStats stats;
    compileTransform(spec(OpKind::IdListTransform, {kA, kB}, 100))
        ->apply(batch, stats);
    EXPECT_EQ(batch.findSparse(100)->values,
              (std::vector<int64_t>{9, 4, 2}));
}

TEST(OpsDifferential, FlatKernelsMatchReferenceOnModelGraphRows)
{
    // Every rewritten op over generated rows of a real schema,
    // reading real (and scored) list columns.
    warehouse::SchemaParams p;
    p.float_features = 4;
    p.sparse_features = 6;
    p.avg_length = 12;
    auto schema = warehouse::makeSchema(p);
    warehouse::RowGenerator gen(schema, 41);
    auto base = dwrf::batchFromRows(gen.batch(256));
    ASSERT_GE(base.sparse.size(), 2u);
    for (TransformSpec s : rewrittenOpSpecs()) {
        for (auto &in : s.inputs)
            in = base.sparse[in == kA ? 0 : 1].id;
        SCOPED_TRACE(opKindName(s.kind));
        auto got = base, want = base;
        TransformStats got_st, want_st;
        compileTransform(s)->apply(got, got_st);
        oracle::compile(s)->apply(want, want_st);
        expectSameOutput(got, got_st, want, want_st);
    }
}

TEST(OpsDifferential, ModelGraphSinksMatchReferenceOpsInOrder)
{
    // The 16-derived-feature graph over a narrow schema with every
    // feature projected: the compiled graph (flat kernels, dead
    // intermediates dropped) against the reference list ops, and
    // compileTransform for the rest, applied one by one in order.
    warehouse::SchemaParams p;
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 20.0;
    p.seed = 0x4e41;
    auto schema = warehouse::makeSchema(p);
    std::vector<FeatureId> projection;
    for (const auto &f : schema.features)
        projection.push_back(f.id);
    ModelGraphParams gp;
    gp.derived_features = 16;
    TransformGraph graph = makeModelGraph(schema, projection, gp);

    warehouse::RowGenerator gen(schema, 5);
    auto got = dwrf::batchFromRows(gen.batch(512));
    auto want = got;
    CompiledGraph(graph).apply(got, 0);
    for (const TransformSpec &s : graph.specs()) {
        auto op = oracle::compile(s);
        if (!op)
            op = compileTransform(s);
        TransformStats stats;
        op->apply(want, stats);
    }

    // A sink is an output no later op reads; each must be delivered.
    std::unordered_set<FeatureId> read_later;
    size_t sinks = 0;
    for (auto it = graph.specs().rbegin(); it != graph.specs().rend();
         ++it) {
        if (!read_later.count(it->output)) {
            ++sinks;
            EXPECT_TRUE(got.findSparse(it->output) ||
                        got.findDense(it->output))
                << "sink " << it->output;
        }
        read_later.insert(it->inputs.begin(), it->inputs.end());
    }
    EXPECT_GE(sinks, 16u);
    for (const auto &g : got.sparse) {
        SCOPED_TRACE("sparse " + std::to_string(g.id));
        const dwrf::SparseColumn *w = want.findSparse(g.id);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(g.offsets, w->offsets);
        EXPECT_EQ(g.values, w->values);
        ASSERT_EQ(g.scores.size(), w->scores.size());
        if (!g.scores.empty()) {
            EXPECT_EQ(std::memcmp(g.scores.data(), w->scores.data(),
                                  g.scores.size() * sizeof(float)),
                      0);
        }
    }
    for (const auto &g : got.dense) {
        SCOPED_TRACE("dense " + std::to_string(g.id));
        const dwrf::DenseColumn *w = want.findDense(g.id);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(g.present, w->present);
        ASSERT_EQ(g.values.size(), w->values.size());
        if (!g.values.empty()) {
            EXPECT_EQ(std::memcmp(g.values.data(), w->values.data(),
                                  g.values.size() * sizeof(float)),
                      0);
        }
    }
}

} // namespace
} // namespace dsi::transforms
