/**
 * @file
 * Unit tests for statistics utilities, the metric registry, and the
 * table printer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/types.h"

namespace dsi {
namespace {

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001); // sample stddev
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeEqualsCombined)
{
    Rng rng(3);
    RunningStats a, b, all;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.nextGaussian() * 3 + 1;
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(PercentileSampler, ExactQuantiles)
{
    PercentileSampler p;
    for (int i = 1; i <= 100; ++i)
        p.add(i);
    EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 100.0);
    EXPECT_NEAR(p.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(p.percentile(25), 25.75, 1e-9);
    EXPECT_NEAR(p.percentile(95), 95.05, 1e-9);
}

TEST(PercentileSampler, InterleavedAddAndQuery)
{
    PercentileSampler p;
    p.add(10);
    EXPECT_DOUBLE_EQ(p.percentile(50), 10.0);
    p.add(20);
    p.add(30);
    EXPECT_DOUBLE_EQ(p.percentile(50), 20.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 30.0);
}

TEST(LogHistogram, BucketsCoverValues)
{
    LogHistogram h;
    h.add(0.5);
    h.add(1.0);
    h.add(3.0);
    h.add(1024.0);
    h.add(1500.0, 2);
    auto buckets = h.buckets();
    EXPECT_EQ(h.total(), 6u);
    uint64_t sum = 0;
    for (const auto &b : buckets) {
        EXPECT_LT(b.lo, b.hi);
        sum += b.count;
    }
    EXPECT_EQ(sum, 6u);
    // 1024 and 1500 share the [1024, 2048) bucket with weight 3.
    bool found = false;
    for (const auto &b : buckets)
        if (b.lo == 1024.0)
            found = b.count == 3;
    EXPECT_TRUE(found);
}

// LogLinearHistogram, checked against PercentileSampler as the exact
// reference: never below it, and at most 1/kSubBuckets above.
using Hist = LogLinearHistogram;
constexpr double kHistBound = 1.0 / Hist::kSubBuckets;

void
expectWithinBound(const Hist &h, const PercentileSampler &exact)
{
    EXPECT_EQ(h.count(), exact.count());
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
        double want = exact.percentile(p);
        double got = h.percentile(p);
        EXPECT_GE(got, want) << "p" << p;
        EXPECT_LE(got, want * (1.0 + kHistBound)) << "p" << p;
    }
}

TEST(LogLinearHistogram, LogNormalLatenciesWithinBound)
{
    Rng rng(11);
    Hist h;
    PercentileSampler exact;
    for (int i = 0; i < 20000; ++i) {
        // Median 100 us, a decade of spread either side.
        double x = 100e-6 * std::exp(rng.nextGaussian());
        h.add(x);
        exact.add(x);
    }
    expectWithinBound(h, exact);
}

TEST(LogLinearHistogram, StragglerMixWithinBound)
{
    // 85% fast reads near 20 us, 15% stragglers near 3 ms: p90 and up
    // land in the straggler mode, p50 in the fast one.
    Rng rng(12);
    Hist h;
    PercentileSampler exact;
    for (int i = 0; i < 20000; ++i) {
        double median = rng.nextDouble() < 0.15 ? 3e-3 : 20e-6;
        double x = median * std::exp(0.3 * rng.nextGaussian());
        h.add(x);
        exact.add(x);
    }
    expectWithinBound(h, exact);
    EXPECT_LT(h.percentile(50), 100e-6);
    EXPECT_GT(h.percentile(90), 1e-3);
}

TEST(LogLinearHistogram, BucketEdgesReadBackWithinBound)
{
    // Exact bucket lower edges are the worst case for the bound.
    for (int octave = 0; octave < Hist::kOctaves; ++octave) {
        for (int sub = 0; sub < Hist::kSubBuckets; ++sub) {
            double x = std::ldexp(
                Hist::kLowest * (1.0 + sub * kHistBound), octave);
            Hist h;
            h.add(x);
            EXPECT_GE(h.percentile(50), x);
            EXPECT_LE(h.percentile(50), x * (1.0 + kHistBound));
        }
    }
}

TEST(LogLinearHistogram, ZeroSubResolutionAndOverflowClamp)
{
    Hist h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50), 0.0);

    // Zero and sub-resolution values read back as the floor.
    h.add(0.0);
    h.add(Hist::kLowest / 4);
    EXPECT_EQ(h.percentile(0), Hist::kLowest);
    EXPECT_EQ(h.percentile(100), Hist::kLowest);

    // Values past the top bucket are clamped to the top edge.
    h.add(Hist::kHighest);
    h.add(Hist::kHighest * 1e6);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.percentile(0), Hist::kLowest);
    EXPECT_EQ(h.percentile(100), Hist::kHighest);

    // The floor itself is resolvable: it lands in the first octave.
    Hist floor;
    floor.add(Hist::kLowest);
    EXPECT_DOUBLE_EQ(floor.percentile(50),
                     Hist::kLowest * (1.0 + kHistBound));
}

TEST(WeightedCdf, UniformWeightsAreLinear)
{
    WeightedCdf cdf;
    for (int i = 0; i < 100; ++i)
        cdf.add(1.0);
    auto curve = cdf.build(11);
    ASSERT_EQ(curve.size(), 11u);
    for (const auto &pt : curve)
        EXPECT_NEAR(pt.y, pt.x, 1e-9);
}

TEST(WeightedCdf, SkewedWeightsFrontload)
{
    // One item holds ~91% of the weight (90 of 99 total).
    WeightedCdf cdf;
    cdf.add(90.0);
    for (int i = 0; i < 9; ++i)
        cdf.add(1.0);
    EXPECT_NEAR(cdf.fractionForShare(0.9), 0.1, 1e-9);
    auto curve = cdf.build(11);
    EXPECT_NEAR(curve[1].y, 90.0 / 99.0, 1e-9);
}

TEST(WeightedCdf, FractionForShareMonotone)
{
    Rng rng(5);
    WeightedCdf cdf;
    for (int i = 0; i < 500; ++i)
        cdf.add(rng.nextExp(1.0));
    double last = 0;
    for (double share : {0.1, 0.3, 0.5, 0.8, 0.95}) {
        double f = cdf.fractionForShare(share);
        EXPECT_GE(f, last);
        last = f;
    }
}

TEST(Metrics, CountersAccumulate)
{
    Metrics m;
    m.inc("bytes", 10);
    m.inc("bytes", 5);
    m.inc("ios");
    EXPECT_DOUBLE_EQ(m.counter("bytes"), 15.0);
    EXPECT_DOUBLE_EQ(m.counter("ios"), 1.0);
    EXPECT_DOUBLE_EQ(m.counter("missing"), 0.0);
    EXPECT_TRUE(m.hasCounter("bytes"));
    EXPECT_FALSE(m.hasCounter("missing"));
}

TEST(Metrics, MergeAddsCountersMaxesGauges)
{
    Metrics a, b;
    a.inc("x", 1);
    b.inc("x", 2);
    a.set("g", 5);
    b.set("g", 3);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.counter("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.gauge("g"), 5.0);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"Model", "GB/s"});
    t.addRow({"RM1", "16.50"});
    t.addRow({"RM2", "4.69"});
    std::string out = t.render();
    EXPECT_NE(out.find("Model"), std::string::npos);
    EXPECT_NE(out.find("RM1"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Types, ByteLiteralsAndConversions)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(2_GiB, 2ull << 30);
    EXPECT_NEAR(toGB(1000000000ull), 1.0, 1e-12);
    EXPECT_NEAR(toPB(13.45e15), 13.45, 1e-9);
}

TEST(Types, FormatBytes)
{
    EXPECT_EQ(formatBytes(18), "18");
    EXPECT_EQ(formatBytes(1240), "1.24K");
    EXPECT_EQ(formatBytes(97700), "97.7K");
    EXPECT_EQ(formatBytes(23200), "23.2K");
}

} // namespace
} // namespace dsi
