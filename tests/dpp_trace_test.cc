/**
 * @file
 * Trace-asserting end-to-end suite: live InProcessSessions run with
 * tracing on, and the assertions are made against the span forest —
 * batch lineage (grant -> extract -> transform -> deliver), hedge and
 * shed events appearing exactly when their triggers are armed, trace
 * topology determinism across identically-seeded runs, and the
 * Table VII stall-attribution rollup.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/table_printer.h"
#include "common/trace.h"
#include "common/trace_query.h"
#include "dpp/session.h"
#include "test_fixtures.h"

namespace dsi::dpp {
namespace {

warehouse::SchemaParams
traceParams()
{
    warehouse::SchemaParams p;
    p.name = "traced";
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 6;
    p.coverage_u = 0.5;
    p.seed = 47;
    return p;
}

SessionSpec
traceSpec(const testing::MiniWarehouse &mw)
{
    SessionSpec spec;
    spec.table = mw.name;
    spec.partitions = {0, 1};
    spec.projection = warehouse::chooseProjection(
        mw.schema, mw.popularity, 8, 4, 7);
    transforms::ModelGraphParams gp;
    gp.derived_features = 2;
    spec.setTransforms(
        transforms::makeModelGraph(mw.schema, spec.projection, gp));
    spec.batch_size = 256;
    spec.rows_per_split = 1024;
    return spec;
}

/**
 * Render "shape | run A count | run B count" for every root shape
 * where the two runs disagree — the actionable artifact a determinism
 * failure prints.
 */
std::string
topologyDiff(const trace::TraceQuery &a, const trace::TraceQuery &b)
{
    auto parse = [](const std::vector<std::string> &lines) {
        std::map<std::string, uint64_t> shapes;
        for (const auto &line : lines) {
            size_t pos = line.rfind(" x");
            uint64_t n = 1;
            std::string shape = line;
            if (pos != std::string::npos &&
                line.find_first_not_of("0123456789", pos + 2) ==
                    std::string::npos) {
                n = std::stoull(line.substr(pos + 2));
                shape = line.substr(0, pos);
            }
            shapes[shape] += n;
        }
        return shapes;
    };
    auto sa = parse(a.topologyLines());
    auto sb = parse(b.topologyLines());
    TablePrinter table({"shape", "run_a", "run_b"});
    for (const auto &[shape, n] : sa) {
        uint64_t other = sb.count(shape) ? sb[shape] : 0;
        if (n != other)
            table.addRow({shape, std::to_string(n),
                          std::to_string(other)});
    }
    for (const auto &[shape, n] : sb) {
        if (!sa.count(shape))
            table.addRow({shape, "0", std::to_string(n)});
    }
    return table.render();
}

class DppTraceTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kTotalRows = 2 * 4096;

    static dwrf::WriterOptions
    stripeOptions()
    {
        dwrf::WriterOptions wo;
        wo.rows_per_stripe = 1024;
        return wo;
    }

    DppTraceTest()
        : mw_(testing::makeMiniWarehouse(traceParams(), 2, 4096, 2048,
                                         stripeOptions()))
    {
        FaultInjector::instance().reset();
        FaultInjector::instance().seed(0x7ACEDULL);
    }

    ~DppTraceTest() override { FaultInjector::instance().reset(); }

    void SetUp() override
    {
        trace::TraceLog::instance().enable();
        bool compiled_in = trace::on();
        trace::TraceLog::instance().disable();
        if (!compiled_in)
            GTEST_SKIP() << "tracing compiled out "
                            "(DSI_DISABLE_TRACING)";
    }

    SessionOptions
    tracedOptions(uint32_t workers = 2, uint32_t clients = 1) const
    {
        SessionOptions so;
        so.workers = workers;
        so.clients = clients;
        so.trace.enabled = true;
        return so;
    }

    testing::MiniWarehouse mw_;
};

TEST_F(DppTraceTest, EveryBatchHasCompleteLineage)
{
    InProcessSession session(*mw_.warehouse, traceSpec(mw_),
                             tracedOptions());
    uint64_t delivered = 0;
    auto result = session.run(
        [&](ClientId, const TensorBatch &) { ++delivered; });

    ASSERT_GT(delivered, 0u);
    EXPECT_EQ(result.rows_delivered, kTotalRows);

    trace::TraceQuery q(session.traceEvents());
    // One delivery span per delivered batch, each rooted in a Master
    // grant whose subtree did real extraction work.
    EXPECT_EQ(q.count(trace::spans::kClientDeliver), delivered);
    EXPECT_GE(q.lineageCompleteFraction(), 0.99);
    EXPECT_EQ(q.count(trace::spans::kMasterGrant),
              session.master().totalSplits());
    // Every grant reached a terminal state, so every span closed.
    for (const auto *grant :
         q.byName(trace::spans::kMasterGrant)) {
        EXPECT_TRUE(grant->closed);
        EXPECT_TRUE(
            q.hasDescendant(*grant, trace::spans::kStorageRead));
    }
    // A clean, unloaded run: no hedges, no sheds, no faults.
    EXPECT_TRUE(q.instantsNamed(trace::events::kHedgeIssued).empty());
    EXPECT_TRUE(q.instantsNamed(trace::events::kOverloaded).empty());
    EXPECT_TRUE(
        q.instantsNamed(trace::events::kFaultWorkerCrash).empty());
}

TEST_F(DppTraceTest, ParallelPipelineKeepsLineage)
{
    SessionOptions so = tracedOptions(2, 2);
    so.worker.num_extract_threads = 2;
    so.worker.num_transform_threads = 2;
    InProcessSession session(*mw_.warehouse, traceSpec(mw_), so);
    uint64_t delivered = 0;
    auto result = session.run(
        [&](ClientId, const TensorBatch &) { ++delivered; });

    EXPECT_EQ(result.rows_delivered, kTotalRows);
    trace::TraceQuery q(session.traceEvents());
    EXPECT_EQ(q.count(trace::spans::kClientDeliver), delivered);
    EXPECT_GE(q.lineageCompleteFraction(), 0.99);
    // The threaded hand-off points emit their wait spans.
    EXPECT_GT(q.count(trace::spans::kQueuePushWait), 0u);
    EXPECT_GT(q.count(trace::spans::kBufferWait), 0u);
}

TEST_F(DppTraceTest, HedgesAppearOnlyUnderInjectedStraggler)
{
    storage::HedgeOptions hedge;
    hedge.enabled = true;
    hedge.min_delay_s = 0.0001;
    hedge.min_samples = 1u << 30; // pin the trigger to min_delay_s
    mw_.cluster->setHedging(hedge);

    InProcessSession session(*mw_.warehouse, traceSpec(mw_),
                             tracedOptions());
    // The cluster counter is cumulative and the Master's (untraced)
    // enumeration reads can hedge under a loaded machine; only the
    // traced run's delta must match the instant count.
    double baseline =
        mw_.cluster->metrics().counter("tectonic.hedges_issued");
    // Every block read stalls 5 ms — far past the hedge delay — so
    // backup reads must be issued. Armed after construction so the
    // Master's enumeration reads don't consume the fire budget.
    ScopedFault slow(faults::kTectonicReadDelay,
                     FaultSpec{.probability = 1.0,
                               .max_fires = 8,
                               .latency_seconds = 0.005});
    auto result = session.run();
    EXPECT_EQ(result.rows_delivered, kTotalRows);

    trace::TraceQuery q(session.traceEvents());
    auto issued = q.instantsNamed(trace::events::kHedgeIssued);
    ASSERT_FALSE(issued.empty());
    EXPECT_EQ(static_cast<double>(issued.size()),
              mw_.cluster->metrics().counter(
                  "tectonic.hedges_issued") -
                  baseline);
    // Each hedge fired inside a read that belongs to a grant lineage.
    for (const auto &ev : issued) {
        const trace::SpanNode *parent = q.span(ev.parent);
        ASSERT_NE(parent, nullptr);
        EXPECT_NE(
            q.ancestor(*parent, trace::spans::kMasterGrant),
            nullptr);
    }
    mw_.cluster->setHedging(storage::HedgeOptions{});
}

TEST_F(DppTraceTest, ShedSplitsEmitOverloadedWithoutReadWork)
{
    // Four extract threads racing for splits with a one-in-flight cap
    // per worker: the over-eager acquisitions must be shed.
    SessionOptions so = tracedOptions(2, 1);
    so.worker.num_extract_threads = 4;
    so.worker.num_transform_threads = 1;
    so.admission.max_inflight_per_worker = 1;
    InProcessSession session(*mw_.warehouse, traceSpec(mw_), so);
    auto result = session.run();
    EXPECT_EQ(result.rows_delivered, kTotalRows);

    trace::TraceQuery q(session.traceEvents());
    auto shed = q.instantsNamed(trace::events::kOverloaded);
    ASSERT_FALSE(shed.empty());
    EXPECT_EQ(static_cast<double>(shed.size()),
              session.master().metrics().counter(
                  "master.splits_shed"));
    // A shed is a refusal: it opens no grant span, so nothing can
    // parent read work on it.
    for (const auto &ev : shed)
        EXPECT_EQ(ev.parent, trace::kNoSpan);
    // Shedding never costs delivery completeness.
    EXPECT_GE(q.lineageCompleteFraction(), 0.99);
}

TEST_F(DppTraceTest, WorkerCrashLeavesEventAndLineageSurvives)
{
    SessionOptions so = tracedOptions(2, 2);
    so.lease_timeout = 0.05;
    InProcessSession session(*mw_.warehouse, traceSpec(mw_), so);

    ScopedFault crash(faults::kWorkerCrash,
                      FaultSpec{.trigger_hit = 6});
    auto result = session.run();

    EXPECT_GE(result.worker_failures, 1u);
    EXPECT_EQ(result.rows_delivered, kTotalRows);
    trace::TraceQuery q(session.traceEvents());
    EXPECT_FALSE(
        q.instantsNamed(trace::events::kFaultWorkerCrash).empty());
    // Requeued splits re-extract under fresh grants; delivered
    // batches still trace back to one.
    EXPECT_GE(q.lineageCompleteFraction(), 0.99);
}

TEST_F(DppTraceTest, IdenticalSeedsProduceIdenticalTopology)
{
    // Synchronous mode: split assignment and stripe order are fully
    // deterministic, so two runs with the same injector seed and the
    // same fault spec must produce structurally identical forests
    // (timestamps and span ids excluded by construction).
    auto runOnce = [&] {
        FaultInjector::instance().reset();
        FaultInjector::instance().seed(0xDE7E12ULL);
        SessionOptions so = tracedOptions(1, 1);
        InProcessSession session(*mw_.warehouse, traceSpec(mw_), so);
        // Armed after construction: hit 3 is deterministically the
        // first stripe IO (tail and footer reads are hits 1-2).
        ScopedFault corrupt(faults::kTectonicReadCorrupt,
                            FaultSpec{.trigger_hit = 3});
        auto result = session.run();
        EXPECT_EQ(result.rows_delivered, kTotalRows);
        return session.traceEvents();
    };
    trace::TraceQuery a(runOnce());
    trace::TraceQuery b(runOnce());
    // The injected corruption must be visible in both traces.
    EXPECT_FALSE(
        a.instantsNamed(trace::events::kFaultCorrupt).empty());
    EXPECT_EQ(a.topology(), b.topology())
        << "trace topology diverged between identically-seeded "
           "runs:\n"
        << topologyDiff(a, b);
}

TEST_F(DppTraceTest, StallReportPartitionsLiveSession)
{
    SessionOptions so = tracedOptions(2, 1);
    so.worker.num_extract_threads = 2;
    so.worker.num_transform_threads = 1;
    InProcessSession session(*mw_.warehouse, traceSpec(mw_), so);
    auto result = session.run();
    EXPECT_EQ(result.rows_delivered, kTotalRows);

    trace::TraceQuery q(session.traceEvents());
    trace::StallReport report = q.stallReport();
    ASSERT_GT(report.total(), 0.0);
    EXPECT_GT(report.read_s, 0.0);
    double pct_sum = report.readPct() + report.transformPct() +
                     report.deliverPct();
    EXPECT_NEAR(pct_sum, 100.0, 1.0);
    std::string table = report.render();
    EXPECT_NE(table.find("read"), std::string::npos);
    EXPECT_NE(table.find("deliver"), std::string::npos);
}

TEST_F(DppTraceTest, ReaderStepsNestUnderEveryStripeRead)
{
    // Encrypted, Lz-compressed, dictionary-encoded files, so every
    // reader step runs; one injected corrupt block read forces a
    // checksum mismatch and a stripe retry on the way.
    dwrf::WriterOptions wo = stripeOptions();
    wo.codec = dwrf::Codec::Lz;
    wo.encrypt = true;
    wo.dedup = true;
    testing::MiniWarehouse mw =
        testing::makeMiniWarehouse(traceParams(), 2, 4096, 2048, wo);
    InProcessSession session(*mw.warehouse, traceSpec(mw),
                             tracedOptions(1, 1));
    // Armed after construction: hit 3 is the first stripe IO (tail
    // and footer reads are hits 1-2).
    ScopedFault corrupt(faults::kTectonicReadCorrupt,
                        FaultSpec{.trigger_hit = 3});
    auto result = session.run();
    EXPECT_EQ(result.rows_delivered, kTotalRows);

    trace::TraceQuery q(session.traceEvents());
    EXPECT_FALSE(q.instantsNamed(trace::events::kReaderRetry).empty());
    auto reads = q.byName(trace::spans::kReaderStripe);
    ASSERT_FALSE(reads.empty());
    const char *steps[] = {
        trace::spans::kReaderChecksum, trace::spans::kReaderDecrypt,
        trace::spans::kReaderDecompress, trace::spans::kReaderDecode,
        trace::spans::kReaderDictGather};
    for (const auto *read : reads) {
        ASSERT_TRUE(read->closed);
        std::map<std::string, size_t> seen;
        double child_s = 0.0;
        for (const auto *child : read->children) {
            ++seen[child->name];
            child_s += child->duration();
        }
        for (const char *step : steps)
            EXPECT_GT(seen[step], 0u) << step << " missing under a read";
        // The steps run one after another inside the read.
        EXPECT_LE(child_s, read->duration() + 1e-9);
    }

    trace::StallReport report = q.stallReport();
    EXPECT_GT(report.checksum_s, 0.0);
    EXPECT_GT(report.decrypt_s, 0.0);
    EXPECT_GT(report.decompress_s, 0.0);
    EXPECT_GT(report.decode_s, 0.0);
    EXPECT_GT(report.dict_gather_s, 0.0);
    EXPECT_LE(report.readStepsS(), report.read_s + 1e-9);
}

TEST_F(DppTraceTest, LiveTraceExportsToChromeJson)
{
    InProcessSession session(*mw_.warehouse, traceSpec(mw_),
                             tracedOptions(1, 1));
    session.run();
    ASSERT_FALSE(session.traceEvents().empty());

    std::string json = trace::chromeTraceJson(session.traceEvents());
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find(trace::spans::kMasterGrant),
              std::string::npos);
    EXPECT_NE(json.find(trace::spans::kClientDeliver),
              std::string::npos);

    std::string path =
        ::testing::TempDir() + "dpp_trace_test_trace.json";
    EXPECT_TRUE(trace::writeChromeTrace(path, session.traceEvents()));
    std::remove(path.c_str());
}

TEST_F(DppTraceTest, UntracedSessionCollectsNothing)
{
    // CI's tracing job runs this suite with DSI_TRACE=1; neutralize
    // the ambient opt-in so this test really runs untraced.
    const char *ambient = ::getenv("DSI_TRACE");
    std::string saved = ambient ? ambient : "";
    ::unsetenv("DSI_TRACE");

    SessionOptions so;
    so.workers = 1;
    InProcessSession session(*mw_.warehouse, traceSpec(mw_), so);
    auto result = session.run();
    EXPECT_EQ(result.rows_delivered, kTotalRows);
    EXPECT_TRUE(session.traceEvents().empty());

    if (ambient)
        ::setenv("DSI_TRACE", saved.c_str(), 1);
}

} // namespace
} // namespace dsi::dpp
