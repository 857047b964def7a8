/**
 * @file
 * Unit tests for the dsi::trace tracer core and the TraceQuery
 * span-tree helper: emission gating, RAII spans, cross-thread
 * collection, clear/generation semantics, forest reconstruction,
 * canonical topologies, and the Table VII stall rollup.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "common/trace_query.h"

namespace dsi::trace {
namespace {

/** Fresh, enabled log for each test; disabled again on exit. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        TraceLog::instance().clear();
        TraceLog::instance().enable();
        if (!on())
            GTEST_SKIP() << "tracing compiled out "
                            "(DSI_DISABLE_TRACING)";
    }
    void TearDown() override
    {
        TraceLog::instance().disable();
        TraceLog::instance().clear();
    }
};

TEST_F(TraceTest, DisabledEmissionIsDropped)
{
    TraceLog::instance().disable();
    EXPECT_FALSE(on());
    EXPECT_EQ(beginSpan("x", kNoSpan), kNoSpan);
    endSpan(7, "x"); // ids from an enabled era are ignored when off
    instant("x");
    {
        Span s("x", kNoSpan);
        EXPECT_EQ(s.id(), kNoSpan);
    }
    Timer t;
    t.complete("x", kNoSpan);
    EXPECT_EQ(TraceLog::instance().eventCount(), 0u);
}

TEST_F(TraceTest, BeginEndPairRoundTrips)
{
    SpanId id = beginSpan("work", kNoSpan, 11, 22);
    ASSERT_NE(id, kNoSpan);
    endSpan(id, "work");
    auto events = TraceLog::instance().snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type, TraceEvent::Type::Begin);
    EXPECT_EQ(events[0].id, id);
    EXPECT_EQ(events[0].a0, 11u);
    EXPECT_EQ(events[0].a1, 22u);
    EXPECT_EQ(events[1].type, TraceEvent::Type::End);
    EXPECT_EQ(events[1].id, id);
    EXPECT_GE(events[1].ts, events[0].ts);
}

TEST_F(TraceTest, RaiiSpanEndsOnceEvenWithExplicitEnd)
{
    {
        Span s("scoped", kNoSpan);
        ASSERT_NE(s.id(), kNoSpan);
        s.end();
        s.end(); // idempotent
    }            // destructor must not emit a second End
    auto events = TraceLog::instance().snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type, TraceEvent::Type::Begin);
    EXPECT_EQ(events[1].type, TraceEvent::Type::End);
}

TEST_F(TraceTest, ScopedParentNestsAndRestores)
{
    EXPECT_EQ(currentParent(), kNoSpan);
    {
        ScopedParent outer(41);
        EXPECT_EQ(currentParent(), 41u);
        {
            ScopedParent inner(42);
            EXPECT_EQ(currentParent(), 42u);
        }
        EXPECT_EQ(currentParent(), 41u);
    }
    EXPECT_EQ(currentParent(), kNoSpan);
}

TEST_F(TraceTest, ClearRestartsSpanIdsAndDropsEvents)
{
    SpanId first = beginSpan("a", kNoSpan);
    endSpan(first, "a");
    TraceLog::instance().clear();
    EXPECT_EQ(TraceLog::instance().eventCount(), 0u);
    TraceLog::instance().enable();
    SpanId second = beginSpan("b", kNoSpan);
    EXPECT_EQ(second, first); // allocation restarted
    EXPECT_EQ(TraceLog::instance().eventCount(), 1u);
}

TEST_F(TraceTest, ConcurrentEmittersLoseNothing)
{
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 500;
    std::vector<std::thread> threads;
    std::atomic<bool> go{false};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kSpansPerThread; ++i) {
                Span s("stress", kNoSpan,
                       static_cast<uint64_t>(i));
                instant("tick", s.id());
            }
        });
    }
    go = true;
    for (auto &t : threads)
        t.join();
    auto events = TraceLog::instance().snapshot();
    constexpr size_t kExpected = kThreads * kSpansPerThread * 3u;
    ASSERT_EQ(events.size(), kExpected);
    // Span ids must be unique across threads.
    std::vector<SpanId> ids;
    for (const auto &ev : events)
        if (ev.type == TraceEvent::Type::Begin)
            ids.push_back(ev.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

    TraceQuery q(events);
    EXPECT_EQ(q.count("stress"), kThreads * kSpansPerThread);
    EXPECT_EQ(q.instantsNamed("tick").size(),
              kThreads * kSpansPerThread);
}

TEST_F(TraceTest, QueryBuildsForestWithAncestryAndInstants)
{
    SpanId root = beginSpan(spans::kMasterGrant, kNoSpan, 3);
    SpanId mid = beginSpan(spans::kExtractStripe, root, 3, 0);
    SpanId leaf = beginSpan(spans::kStorageRead, mid, 0, 64);
    instant(events::kReaderRetry, mid, 3, 1);
    endSpan(leaf, spans::kStorageRead);
    endSpan(mid, spans::kExtractStripe);
    Timer t;
    t.complete(spans::kClientDeliver, mid, 3, 0);
    endSpan(root, spans::kMasterGrant);

    TraceQuery q(TraceLog::instance().snapshot());
    ASSERT_EQ(q.roots().size(), 1u);
    EXPECT_EQ(q.roots()[0]->name, spans::kMasterGrant);
    ASSERT_EQ(q.count(spans::kClientDeliver), 1u);
    const SpanNode *deliver = q.byName(spans::kClientDeliver)[0];
    EXPECT_TRUE(deliver->closed);
    const SpanNode *grant = q.ancestor(*deliver, spans::kMasterGrant);
    ASSERT_NE(grant, nullptr);
    EXPECT_EQ(grant->id, root);
    EXPECT_TRUE(q.hasDescendant(*grant, spans::kStorageRead));
    EXPECT_FALSE(q.hasDescendant(*deliver, spans::kStorageRead));
    ASSERT_EQ(q.instantsNamed(events::kReaderRetry).size(), 1u);
    EXPECT_EQ(q.span(mid)->instants.size(), 1u);
    EXPECT_DOUBLE_EQ(q.lineageCompleteFraction(), 1.0);
}

TEST_F(TraceTest, UnclosedSpanIsMarkedOpen)
{
    SpanId id = beginSpan("orphan", kNoSpan);
    (void)id;
    TraceQuery q(TraceLog::instance().snapshot());
    ASSERT_EQ(q.count("orphan"), 1u);
    EXPECT_FALSE(q.byName("orphan")[0]->closed);
    EXPECT_EQ(q.totalDuration("orphan"), 0.0);
}

TEST_F(TraceTest, TopologyIsOrderInvariant)
{
    // Two structurally identical trees built in different child
    // orders must canonicalize identically.
    auto build = [](bool flip) {
        SpanId root = beginSpan("r", kNoSpan);
        const char *first = flip ? "b" : "a";
        const char *second = flip ? "a" : "b";
        SpanId c1 = beginSpan(first, root);
        endSpan(c1, first);
        SpanId c2 = beginSpan(second, root);
        endSpan(c2, second);
        endSpan(root, "r");
    };
    build(false);
    TraceQuery q1(TraceLog::instance().snapshot());
    TraceLog::instance().clear();
    TraceLog::instance().enable();
    build(true);
    TraceQuery q2(TraceLog::instance().snapshot());
    EXPECT_EQ(q1.topology(), q2.topology());
    EXPECT_EQ(q1.topology(), "r(a,b)\n");

    // Repeated shapes collapse with run-length counts.
    TraceLog::instance().clear();
    TraceLog::instance().enable();
    build(false);
    build(false);
    TraceQuery q3(TraceLog::instance().snapshot());
    EXPECT_EQ(q3.topology(), "r(a,b) x2\n");
}

TEST_F(TraceTest, StallReportPartitionsWallClock)
{
    double t0 = nowSeconds();
    // Synthesized durations — read: 2s; transform span: 3s of which
    // 1s was a buffer wait; client delivery: 1s. The rollup must
    // report read 2s, transform 2s, deliver 2s (wait + delivery).
    emitComplete(spans::kExtractStripe, kNoSpan, t0, t0 + 2.0, 0, 0);
    emitComplete(spans::kTransformStripe, kNoSpan, t0, t0 + 3.0, 0,
                 0);
    emitComplete(spans::kBufferWait, kNoSpan, t0, t0 + 1.0, 0, 0);
    emitComplete(spans::kClientDeliver, kNoSpan, t0, t0 + 1.0, 0, 0);

    TraceQuery q(TraceLog::instance().snapshot());
    StallReport report = q.stallReport();
    EXPECT_NEAR(report.read_s, 2.0, 1e-9);
    EXPECT_NEAR(report.transform_s, 2.0, 1e-9);
    EXPECT_NEAR(report.deliver_s, 2.0, 1e-9);
    double pct_sum = report.readPct() + report.transformPct() +
                     report.deliverPct();
    EXPECT_NEAR(pct_sum, 100.0, 1e-9);
    std::string table = report.render();
    EXPECT_NE(table.find("read"), std::string::npos);
    EXPECT_NE(table.find("transform"), std::string::npos);
    EXPECT_NE(table.find("deliver"), std::string::npos);
}

TEST_F(TraceTest, StallReportSplitsReadByReaderStep)
{
    // A stripe read inside an extract span, its steps synthesized as
    // Complete children; the extract span lasts at least 2 ms, longer
    // than the steps together. A second read outside any extract span
    // must not be counted.
    SpanId extract = beginSpan(spans::kExtractStripe, kNoSpan);
    SpanId read = beginSpan(spans::kReaderStripe, extract);
    double t0 = nowSeconds();
    emitComplete(spans::kReaderChecksum, read, t0, t0 + 1e-4, 0, 0);
    emitComplete(spans::kReaderDecrypt, read, t0, t0 + 2e-4, 0, 0);
    emitComplete(spans::kReaderDecompress, read, t0, t0 + 3e-4, 0, 0);
    emitComplete(spans::kReaderDecode, read, t0, t0 + 4e-4, 0, 0);
    emitComplete(spans::kReaderDictGather, read, t0, t0 + 5e-4, 0, 0);
    while (nowSeconds() < t0 + 2e-3) {
    }
    endSpan(read, spans::kReaderStripe);
    endSpan(extract, spans::kExtractStripe);
    SpanId stray = beginSpan(spans::kReaderStripe, kNoSpan);
    emitComplete(spans::kReaderDecode, stray, t0, t0 + 5.0, 0, 0);
    endSpan(stray, spans::kReaderStripe);

    StallReport report =
        TraceQuery(TraceLog::instance().snapshot()).stallReport();
    EXPECT_NEAR(report.checksum_s, 1e-4, 1e-9);
    EXPECT_NEAR(report.decrypt_s, 2e-4, 1e-9);
    EXPECT_NEAR(report.decompress_s, 3e-4, 1e-9);
    EXPECT_NEAR(report.decode_s, 4e-4, 1e-9);
    EXPECT_NEAR(report.dict_gather_s, 5e-4, 1e-9);
    EXPECT_GE(report.read_s, 2e-3);
    EXPECT_NEAR(report.readStepsS() + report.readOtherS(), report.read_s,
                1e-12);
    EXPECT_GT(report.readOtherS(), 0.0);
    std::string table = report.render();
    EXPECT_NE(table.find("decompress"), std::string::npos);
    EXPECT_NE(table.find("dict_gather"), std::string::npos);
}

TEST_F(TraceTest, EnvEnabledParsesDsiTrace)
{
    ::setenv("DSI_TRACE", "1", 1);
    EXPECT_TRUE(envEnabled());
    ::setenv("DSI_TRACE", "0", 1);
    EXPECT_FALSE(envEnabled());
    ::unsetenv("DSI_TRACE");
    EXPECT_FALSE(envEnabled());
}

} // namespace
} // namespace dsi::trace
