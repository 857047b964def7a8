/**
 * @file
 * Tests for the fault-injection registry: determinism under a fixed
 * seed, one-shot triggers, fire caps, delay faults, and scoped
 * arming.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/fault.h"

namespace dsi {
namespace {

class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(FaultTest, UnarmedPointNeverFires)
{
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(faultPoint("nobody.armed.this"));
    EXPECT_EQ(FaultInjector::instance().hits("nobody.armed.this"), 0u);
}

TEST_F(FaultTest, ProbabilityStreamIsSeedDeterministic)
{
    auto draw = [](uint64_t seed) {
        auto &inj = FaultInjector::instance();
        inj.reset();
        inj.seed(seed);
        FaultSpec spec;
        spec.probability = 0.3;
        inj.arm("p", spec);
        std::vector<bool> fires;
        for (int i = 0; i < 200; ++i)
            fires.push_back(inj.shouldFail("p"));
        return fires;
    };
    auto a = draw(42);
    EXPECT_EQ(a, draw(42)); // bit-stable replay
    EXPECT_NE(a, draw(43)); // and seed-sensitive
    // Roughly the requested rate.
    int n = 0;
    for (bool f : a)
        n += f;
    EXPECT_GT(n, 30);
    EXPECT_LT(n, 90);
}

TEST_F(FaultTest, TriggerHitFiresExactlyOnNthHit)
{
    auto &inj = FaultInjector::instance();
    FaultSpec spec;
    spec.trigger_hit = 3;
    inj.arm("t", spec);
    EXPECT_FALSE(inj.shouldFail("t"));
    EXPECT_FALSE(inj.shouldFail("t"));
    EXPECT_TRUE(inj.shouldFail("t")); // the 3rd hit
    EXPECT_FALSE(inj.shouldFail("t"));
    EXPECT_EQ(inj.hits("t"), 4u);
    EXPECT_EQ(inj.fires("t"), 1u);
}

TEST_F(FaultTest, MaxFiresCapsTotalFires)
{
    auto &inj = FaultInjector::instance();
    FaultSpec spec;
    spec.probability = 1.0;
    spec.max_fires = 2;
    inj.arm("cap", spec);
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        fired += inj.shouldFail("cap");
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(inj.fires("cap"), 2u);
}

TEST_F(FaultTest, RearmResetsCounters)
{
    auto &inj = FaultInjector::instance();
    FaultSpec spec;
    spec.trigger_hit = 1;
    inj.arm("r", spec);
    EXPECT_TRUE(inj.shouldFail("r"));
    inj.arm("r", spec); // re-arm: hit counter restarts
    EXPECT_TRUE(inj.shouldFail("r"));
    EXPECT_EQ(inj.hits("r"), 1u);
}

TEST_F(FaultTest, LatencyFaultReportsStallButDoesNotFail)
{
    auto &inj = FaultInjector::instance();
    FaultSpec spec;
    spec.probability = 1.0;
    spec.latency_seconds = 0.02;
    spec.max_fires = 2;
    inj.arm("slow", spec);
    // The stall is reported, never slept, and never an error.
    EXPECT_EQ(inj.stallSeconds("slow"), 0.02);
    EXPECT_FALSE(inj.shouldFail("slow")); // fires as a delay
    EXPECT_EQ(inj.fires("slow"), 2u);
    // Capped: later hits report no stall.
    EXPECT_EQ(inj.stallSeconds("slow"), 0.0);
    EXPECT_FALSE(inj.shouldFail("slow"));
    EXPECT_EQ(inj.hits("slow"), 4u);
    EXPECT_EQ(inj.fires("slow"), 2u);
}

TEST_F(FaultTest, ScopedFaultDisarmsOnExit)
{
    auto &inj = FaultInjector::instance();
    {
        ScopedFault guard("scoped", FaultSpec{});
        EXPECT_TRUE(inj.armed("scoped"));
        EXPECT_TRUE(faultPoint("scoped"));
    }
    EXPECT_FALSE(inj.armed("scoped"));
    EXPECT_FALSE(faultPoint("scoped"));
}

} // namespace
} // namespace dsi
