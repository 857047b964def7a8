/**
 * @file
 * Tests for the DPP control and data planes: split enumeration and
 * distribution, checkpoint/restore, worker pipelines, client routing,
 * fault injection, the auto-scaler, and the analytic worker model.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "dpp/autoscaler.h"
#include "dpp/session.h"
#include "dpp/worker_model.h"
#include "test_fixtures.h"

namespace dsi::dpp {
namespace {

warehouse::SchemaParams
smallParams()
{
    warehouse::SchemaParams p;
    p.name = "tbl";
    p.float_features = 24;
    p.sparse_features = 12;
    p.avg_length = 8;
    p.coverage_u = 0.5;
    p.seed = 9;
    return p;
}

SessionSpec
makeSpec(const testing::MiniWarehouse &mw,
         std::vector<PartitionId> partitions, uint32_t dense_used = 8,
         uint32_t sparse_used = 6)
{
    SessionSpec spec;
    spec.table = mw.name;
    spec.partitions = std::move(partitions);
    spec.projection = warehouse::chooseProjection(
        mw.schema, mw.popularity, dense_used, sparse_used, 77);
    transforms::ModelGraphParams gp;
    gp.derived_features = 3;
    spec.setTransforms(
        transforms::makeModelGraph(mw.schema, spec.projection, gp));
    spec.batch_size = 256;
    spec.rows_per_split = 1024;
    return spec;
}

class DppTest : public ::testing::Test
{
  protected:
    static dwrf::WriterOptions
    stripeOptions()
    {
        dwrf::WriterOptions wo;
        wo.rows_per_stripe = 1024; // splits align with rows_per_split
        return wo;
    }

    DppTest()
        : mw_(testing::makeMiniWarehouse(smallParams(), 2, 4096, 2048,
                                         stripeOptions()))
    {
    }
    testing::MiniWarehouse mw_;
};

TEST_F(DppTest, MasterEnumeratesSplitsCoveringAllRows)
{
    Master master(*mw_.warehouse, makeSpec(mw_, {0, 1}));
    // 2 partitions x 4096 rows at 1024 rows/split.
    EXPECT_EQ(master.totalSplits(), 8u);
    auto progress = master.progress();
    EXPECT_EQ(progress.pending_splits, 8u);
    EXPECT_FALSE(progress.done());
}

TEST_F(DppTest, PartitionFilterLimitsSplits)
{
    Master master(*mw_.warehouse, makeSpec(mw_, {1}));
    EXPECT_EQ(master.totalSplits(), 4u);
}

TEST_F(DppTest, SplitLifecycle)
{
    Master master(*mw_.warehouse, makeSpec(mw_, {0}));
    WorkerId w = master.registerWorker();
    auto grant = master.acquireSplit(w, {});
    ASSERT_EQ(grant.status, GrantStatus::Granted);
    auto split = grant.split;
    ASSERT_TRUE(split.has_value());
    EXPECT_EQ(grant.tenant, 0u); // a Master is single-tenant
    EXPECT_EQ(master.progress().inflight_splits, 1u);
    master.completeSplit(w, split->id);
    EXPECT_EQ(master.progress().completed_splits, 1u);
    // Completing twice is a stale (replayed) completion: tolerated,
    // counted, and without effect on progress.
    master.completeSplit(w, split->id);
    EXPECT_EQ(master.progress().completed_splits, 1u);
    EXPECT_EQ(master.metrics().counter("master.stale_completions"),
              1.0);
}

TEST_F(DppTest, FailedWorkerSplitsRequeue)
{
    Master master(*mw_.warehouse, makeSpec(mw_, {0}));
    WorkerId a = master.registerWorker();
    WorkerId b = master.registerWorker();
    auto s1 = master.acquireSplit(a, {}).split;
    ASSERT_TRUE(s1.has_value());
    master.failWorker(a);
    EXPECT_EQ(master.progress().inflight_splits, 0u);
    // b eventually receives the requeued split (it is at the front).
    auto s2 = master.acquireSplit(b, {}).split;
    ASSERT_TRUE(s2.has_value());
    EXPECT_EQ(s2->id, s1->id);
    // A request from a dead (zombie) worker is refused, not fatal —
    // its process may still be mid-RPC when the monitor declares it.
    EXPECT_EQ(master.acquireSplit(a, {}).status, GrantStatus::Rejected);
    EXPECT_EQ(master.metrics().counter("master.stale_requests"), 1.0);
}

TEST_F(DppTest, FullBufferLoadShedsOnTheOnlyRequestPath)
{
    // Regression for the retired no-load requestSplit() wrapper: it
    // always passed an empty WorkerLoad, so a worker reporting a full
    // output buffer was still granted work through it and overload
    // went uncounted. acquireSplit(worker, load) is now the only
    // request path, and the load it carries actually sheds.
    Master master(*mw_.warehouse, makeSpec(mw_, {0}));
    WorkerId w = master.registerWorker();
    WorkerLoad full;
    full.buffer_full = true;
    EXPECT_EQ(master.acquireSplit(w, full).status,
              GrantStatus::Overloaded);
    EXPECT_EQ(master.metrics().counter("master.splits_shed"), 1.0);
    // The shed split stayed queued for a less-loaded request.
    EXPECT_EQ(master.acquireSplit(w, {}).status, GrantStatus::Granted);
}

TEST_F(DppTest, CheckpointRestoreResumesWithoutRedoingWork)
{
    auto spec = makeSpec(mw_, {0, 1});
    Master master(*mw_.warehouse, spec);
    WorkerId w = master.registerWorker();
    for (int i = 0; i < 3; ++i) {
        auto s = master.acquireSplit(w, {}).split;
        master.completeSplit(w, s->id);
    }
    auto in_flight = master.acquireSplit(w, {}).split; // in flight
    ASSERT_TRUE(in_flight.has_value());

    auto bytes = master.checkpoint().serialize();
    auto cp = MasterCheckpoint::deserialize(bytes);
    ASSERT_TRUE(cp.has_value());

    // A replica takes over from the checkpoint.
    Master replica(*mw_.warehouse, spec);
    replica.restore(*cp);
    auto progress = replica.progress();
    EXPECT_EQ(progress.completed_splits, 3u);
    EXPECT_EQ(progress.pending_splits, 5u); // in-flight became pending

    // Draining the replica touches each remaining split exactly once.
    WorkerId rw = replica.registerWorker();
    std::set<uint64_t> seen;
    while (auto s = replica.acquireSplit(rw, {}).split) {
        EXPECT_TRUE(seen.insert(s->id).second);
        replica.completeSplit(rw, s->id);
    }
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_TRUE(replica.progress().done());
}

TEST_F(DppTest, CorruptCheckpointRejected)
{
    dwrf::Buffer junk{0xff, 0xff, 0xff};
    EXPECT_FALSE(MasterCheckpoint::deserialize(junk).has_value());
}

TEST_F(DppTest, WorkerProducesProjectedTensors)
{
    auto spec = makeSpec(mw_, {0});
    std::set<FeatureId> raw_proj(spec.projection.begin(),
                                 spec.projection.end());
    Master master(*mw_.warehouse, spec);
    WorkerOptions wo;
    wo.buffer_capacity = 1024; // large enough to never backpressure
    Worker worker(master, *mw_.warehouse, wo);
    while (worker.pump()) {
    }
    ASSERT_GT(worker.buffered(), 0u);
    uint64_t rows = 0;
    while (auto tensor = worker.popTensor()) {
        rows += tensor->data.rows;
        EXPECT_LE(tensor->data.rows, spec.batch_size);
        // Raw columns in the tensor only come from the projection
        // (derived outputs have ids above kDerivedFeatureBase).
        for (const auto &c : tensor->data.dense) {
            if (c.id < transforms::kDerivedFeatureBase)
                EXPECT_TRUE(raw_proj.count(c.id)) << c.id;
        }
    }
    EXPECT_EQ(rows, 4096u);
    EXPECT_GT(worker.readStats().bytes_read, 0u);
    EXPECT_GT(worker.transformStats().values_produced, 0u);
}

TEST_F(DppTest, ByteCapBoundsWorkerMemory)
{
    auto spec = makeSpec(mw_, {0, 1});
    Master master(*mw_.warehouse, spec);
    WorkerOptions wo;
    wo.buffer_capacity = 10000;       // count cap out of the way
    wo.buffer_bytes_capacity = 64_KiB; // tight byte cap
    Worker worker(master, *mw_.warehouse, wo);
    while (!worker.bufferFull())
        ASSERT_TRUE(worker.pump());
    // One stripe can overshoot the cap, but not by more than the
    // tensors of a single pump.
    EXPECT_GE(worker.bufferedBytes(), 64_KiB);
    auto assigned = master.metrics().counter("master.splits_assigned");
    EXPECT_TRUE(worker.pump()); // backpressured
    EXPECT_EQ(master.metrics().counter("master.splits_assigned"),
              assigned);
    // Draining below the cap resumes work.
    while (worker.bufferFull())
        ASSERT_TRUE(worker.popTensor().has_value());
    worker.pump();
    EXPECT_GT(worker.buffered(), 0u);
}

TEST_F(DppTest, InjectedBetaFeaturesAppearInTensors)
{
    auto spec = makeSpec(mw_, {0});
    warehouse::FeatureSpec beta_dense;
    beta_dense.id = 900001;
    beta_dense.kind = warehouse::FeatureKind::Dense;
    beta_dense.coverage = 0.5;
    warehouse::FeatureSpec beta_sparse;
    beta_sparse.id = 900002;
    beta_sparse.kind = warehouse::FeatureKind::Sparse;
    beta_sparse.coverage = 0.8;
    beta_sparse.avg_length = 4;
    beta_sparse.cardinality = 1000;
    spec.injected = {beta_dense, beta_sparse};

    Master master(*mw_.warehouse, spec);
    WorkerOptions wo;
    wo.buffer_capacity = 1024;
    Worker worker(master, *mw_.warehouse, wo);
    while (worker.pump()) {
    }
    uint64_t rows = 0, dense_present = 0, sparse_present = 0;
    while (auto tensor = worker.popTensor()) {
        rows += tensor->data.rows;
        const auto *d = tensor->data.findDense(900001);
        ASSERT_NE(d, nullptr);
        for (uint32_t r = 0; r < tensor->data.rows; ++r)
            dense_present += d->isPresent(r);
        const auto *sp = tensor->data.findSparse(900002);
        ASSERT_NE(sp, nullptr);
        for (uint32_t r = 0; r < tensor->data.rows; ++r) {
            if (sp->length(r) > 0) {
                ++sparse_present;
                for (uint32_t k = sp->offsets[r];
                     k < sp->offsets[r + 1]; ++k) {
                    EXPECT_GE(sp->values[k], 0);
                    EXPECT_LT(sp->values[k], 1000);
                }
            }
        }
    }
    ASSERT_EQ(rows, 4096u);
    // Coverage statistics hold.
    EXPECT_NEAR(static_cast<double>(dense_present) / rows, 0.5, 0.05);
    EXPECT_NEAR(static_cast<double>(sparse_present) / rows, 0.8,
                0.05);
}

TEST_F(DppTest, InjectionIsDeterministicAcrossWorkers)
{
    auto spec = makeSpec(mw_, {0});
    warehouse::FeatureSpec beta;
    beta.id = 900003;
    beta.kind = warehouse::FeatureKind::Sparse;
    beta.coverage = 0.7;
    beta.avg_length = 3;
    spec.injected = {beta};

    auto run = [&]() {
        Master master(*mw_.warehouse, spec);
        WorkerOptions wo;
        wo.buffer_capacity = 1024;
        Worker worker(master, *mw_.warehouse, wo);
        while (worker.pump()) {
        }
        std::vector<int64_t> values;
        while (auto tensor = worker.popTensor()) {
            const auto *sp = tensor->data.findSparse(900003);
            values.insert(values.end(), sp->values.begin(),
                          sp->values.end());
        }
        return values;
    };
    EXPECT_EQ(run(), run());
}

TEST_F(DppTest, BufferBackpressureStopsPumping)
{
    auto spec = makeSpec(mw_, {0, 1});
    Master master(*mw_.warehouse, spec);
    WorkerOptions wo;
    wo.buffer_capacity = 2;
    Worker worker(master, *mw_.warehouse, wo);
    // Pump to the cap: with full buffer pump() returns true but does
    // not take more splits.
    while (!worker.bufferFull())
        ASSERT_TRUE(worker.pump());
    auto assigned = master.metrics().counter("master.splits_assigned");
    EXPECT_TRUE(worker.pump());
    EXPECT_EQ(master.metrics().counter("master.splits_assigned"),
              assigned);
    // Draining one tensor lets it resume.
    worker.popTensor();
    worker.pump();
    EXPECT_GE(master.metrics().counter("master.splits_assigned"),
              assigned);
}

TEST(PartitionedRoundRobin, CoversAllWorkersWithBoundedFanout)
{
    // 4 clients x cap 4 over 16 workers: perfect tiling.
    std::set<uint32_t> covered;
    for (uint32_t c = 0; c < 4; ++c) {
        auto picks = partitionedRoundRobin(c, 4, 16, 4);
        EXPECT_EQ(picks.size(), 4u);
        std::set<uint32_t> uniq(picks.begin(), picks.end());
        EXPECT_EQ(uniq.size(), picks.size()); // no duplicates
        covered.insert(picks.begin(), picks.end());
    }
    EXPECT_EQ(covered.size(), 16u);
}

TEST(PartitionedRoundRobin, CapBelowWorkersStillDistinct)
{
    for (uint32_t clients : {1u, 2u, 3u, 5u}) {
        for (uint32_t c = 0; c < clients; ++c) {
            auto picks = partitionedRoundRobin(c, clients, 7, 3);
            std::set<uint32_t> uniq(picks.begin(), picks.end());
            EXPECT_EQ(uniq.size(), picks.size());
            for (uint32_t w : picks)
                EXPECT_LT(w, 7u);
        }
    }
}

TEST(PartitionedRoundRobin, FanInBalancedWithinOneEverywhere)
{
    // Property: for every (clients, workers, cap) combination, the
    // per-worker fan-in (number of clients connected to it) deviates
    // from perfect uniformity by at most 1 — consecutive client arcs
    // tile the worker ring, so no worker becomes a hotspot.
    for (uint32_t clients : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u}) {
        for (uint32_t workers : {1u, 2u, 3u, 5u, 7u, 8u, 16u, 33u}) {
            for (uint32_t cap : {1u, 2u, 3u, 4u, 8u, 64u}) {
                std::vector<uint32_t> fan_in(workers, 0);
                uint64_t total = 0;
                for (uint32_t c = 0; c < clients; ++c) {
                    auto picks = partitionedRoundRobin(c, clients,
                                                       workers, cap);
                    // Per-client fan-out respects the cap.
                    EXPECT_LE(picks.size(), cap);
                    for (uint32_t w : picks) {
                        ASSERT_LT(w, workers);
                        ++fan_in[w];
                        ++total;
                    }
                }
                // Every worker's fan-in is within +-1 of uniform.
                uint32_t lo = static_cast<uint32_t>(total / workers);
                uint32_t hi = lo + (total % workers ? 1u : 0u);
                for (uint32_t w = 0; w < workers; ++w) {
                    EXPECT_GE(fan_in[w], lo)
                        << clients << "c/" << workers << "w/" << cap;
                    EXPECT_LE(fan_in[w], hi)
                        << clients << "c/" << workers << "w/" << cap;
                }
            }
        }
    }
}

TEST_F(DppTest, SessionDeliversEveryRowOnce)
{
    SessionOptions so;
    so.workers = 3;
    so.clients = 2;
    InProcessSession session(*mw_.warehouse, makeSpec(mw_, {0, 1}),
                             so);
    auto result = session.run();
    EXPECT_EQ(result.rows_delivered, 8192u);
    EXPECT_GT(result.tensors_delivered, 0u);
    EXPECT_GT(result.tensor_bytes, 0u);
    EXPECT_EQ(result.worker_failures, 0u);
}

TEST_F(DppTest, SessionSurvivesWorkerFailure)
{
    SessionOptions so;
    so.workers = 3;
    so.clients = 1;
    InProcessSession session(*mw_.warehouse, makeSpec(mw_, {0, 1}),
                             so);
    auto result = session.run(nullptr, /*fail_after_splits=*/2);
    EXPECT_EQ(result.worker_failures, 1u);
    // Exactly-once delivery survives the failure: the dead worker's
    // undelivered tensors are lost with it, but completion is
    // delivery-gated, so those splits requeue and are replayed; the
    // session ledger suppresses any batch some client already
    // received. Net: every row exactly once.
    EXPECT_EQ(result.rows_delivered, 8192u);
    EXPECT_EQ(result.splits_failed, 0u);
}

TEST_F(DppTest, ClientMetricsSurviveWorkerFailure)
{
    // The replacement worker changes the pool's membership, so the
    // session reconnects its clients; the replaced clients' counters
    // must still reach collectMetrics().
    SessionOptions so;
    so.workers = 3;
    so.clients = 1;
    InProcessSession session(*mw_.warehouse, makeSpec(mw_, {0, 1}),
                             so);
    auto result = session.run(nullptr, /*fail_after_splits=*/2);
    EXPECT_EQ(result.worker_failures, 1u);
    EXPECT_EQ(session.collectMetrics().counter("client.tensors"),
              static_cast<double>(result.tensors_delivered));
}

TEST_F(DppTest, ClientsSeeDisjointTensors)
{
    // Without failures, each row is delivered to exactly one client.
    SessionOptions so;
    so.workers = 4;
    so.clients = 2;
    so.client.max_connections = 2; // strict partition of the pool
    InProcessSession session(*mw_.warehouse, makeSpec(mw_, {0, 1}),
                             so);
    std::map<ClientId, uint64_t> rows_by_client;
    auto result = session.run(
        [&](ClientId c, const TensorBatch &t) {
            rows_by_client[c] += t.data.rows;
        });
    EXPECT_EQ(result.rows_delivered, 8192u);
    uint64_t sum = 0;
    for (const auto &[c, n] : rows_by_client) {
        EXPECT_GT(n, 0u) << "client " << c << " starved";
        sum += n;
    }
    EXPECT_EQ(sum, 8192u);
}

TEST_F(DppTest, ClientExhaustedAfterDrain)
{
    auto spec = makeSpec(mw_, {0});
    Master master(*mw_.warehouse, spec);
    WorkerOptions wo;
    wo.buffer_capacity = 1024;
    Worker worker(master, *mw_.warehouse, wo);
    while (worker.pump()) {
    }
    Client client(0, 1, {&worker});
    EXPECT_FALSE(client.exhausted()); // buffer still holds tensors
    while (client.next()) {
    }
    EXPECT_TRUE(client.exhausted());
    EXPECT_GT(client.metrics().counter("client.tensors"), 0.0);
}

TEST_F(DppTest, ClientCoversAPoolLargerThanItsCap)
{
    // 9 workers, 1 client, default cap of 8: the client raises its
    // cap so no worker is left unconnected.
    Master master(*mw_.warehouse, makeSpec(mw_, {0}));
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<Worker *> pool;
    for (int i = 0; i < 9; ++i) {
        workers.push_back(
            std::make_unique<Worker>(master, *mw_.warehouse));
        pool.push_back(workers.back().get());
    }
    Client client(0, 1, pool);
    std::set<Worker *> connected(client.connections().begin(),
                                 client.connections().end());
    EXPECT_EQ(connected.size(), 9u);
}

TEST(SessionCoverage, PoolLargerThanClientCapsDeliversEveryRowOnce)
{
    // An unconnected worker's tensors would never be popped, so its
    // split would never complete and the session would hang. 32
    // single-stripe splits make sure the ninth worker is granted one.
    dwrf::WriterOptions wo;
    wo.rows_per_stripe = 256;
    auto mw = testing::makeMiniWarehouse(smallParams(), 2, 4096, 2048,
                                         wo);
    auto spec = makeSpec(mw, {0, 1});
    spec.rows_per_split = 256;
    SessionOptions so;
    so.workers = 9;
    so.clients = 1;
    InProcessSession session(*mw.warehouse, spec, so);

    // Watchdog: halt a hung run so the test fails instead of timing
    // out.
    std::promise<void> finished;
    std::thread watchdog([&, done = finished.get_future()] {
        if (done.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready)
            session.requestHalt();
    });
    std::map<std::pair<uint64_t, RowId>, int> seen;
    auto result = session.run([&](ClientId, const TensorBatch &t) {
        ++seen[{t.split_id, t.first_row}];
    });
    finished.set_value();
    watchdog.join();

    ASSERT_FALSE(session.halted()) << "session hung";
    EXPECT_EQ(result.rows_delivered, 8192u);
    for (const auto &[key, n] : seen)
        EXPECT_EQ(n, 1) << "split " << key.first << " row " << key.second;
}

TEST(AutoScaler, ScalesUpWhenStarving)
{
    AutoScaler scaler(AutoScalerConfig{});
    std::vector<WorkerReport> reports(4);
    for (auto &r : reports)
        r.buffered_tensors = 0; // everyone starving
    auto d = scaler.evaluate(reports, 100.0, 40.0);
    EXPECT_GT(d.target_workers, 4u);
    EXPECT_TRUE(d.starving);
}

TEST(AutoScaler, DrainsWhenOversupplied)
{
    AutoScaler scaler(AutoScalerConfig{});
    std::vector<WorkerReport> reports(16);
    for (auto &r : reports)
        r.buffered_tensors = 10;
    // 16 workers supply 160/s but trainers only need 40/s.
    auto d = scaler.evaluate(reports, 40.0, 160.0);
    EXPECT_LT(d.target_workers, 16u);
    EXPECT_FALSE(d.starving);
}

TEST(AutoScaler, DeadbandSuppressesSmallChanges)
{
    AutoScaler scaler(AutoScalerConfig{});
    std::vector<WorkerReport> reports(10);
    for (auto &r : reports)
        r.buffered_tensors = 3;
    // Demand implies ~10.3 workers: within the 10% deadband.
    auto d = scaler.evaluate(reports, 87.5, 100.0);
    EXPECT_EQ(d.target_workers, 10u);
    EXPECT_EQ(d.delta, 0);
}

TEST(AutoScaler, RespectsBounds)
{
    AutoScalerConfig cfg;
    cfg.min_workers = 2;
    cfg.max_workers = 12;
    AutoScaler scaler(cfg);
    std::vector<WorkerReport> reports(12);
    for (auto &r : reports)
        r.buffered_tensors = 0;
    auto up = scaler.evaluate(reports, 1000.0, 10.0);
    EXPECT_LE(up.target_workers, 12u);
    std::vector<WorkerReport> few(3);
    for (auto &r : few)
        r.buffered_tensors = 50;
    auto down = scaler.evaluate(few, 0.001, 100.0);
    EXPECT_GE(down.target_workers, 2u);
}

TEST(WorkerModel, Rm1IsMemBwBoundNearPaperQps)
{
    auto s = saturateWorker(warehouse::rm1(), sim::computeNodeV1());
    EXPECT_EQ(s.bottleneck, "membw");
    EXPECT_NEAR(s.qps / 1000.0, 11.623, 1.0);
    EXPECT_GT(s.cpu_util, 0.80); // CPU also hot (Fig. 9)
}

TEST(WorkerModel, Rm2IsNicBoundNearPaperQps)
{
    auto s = saturateWorker(warehouse::rm2(), sim::computeNodeV1());
    EXPECT_EQ(s.bottleneck, "nic-in");
    EXPECT_NEAR(s.qps / 1000.0, 7.995, 0.7);
}

TEST(WorkerModel, Rm3IsMemoryCapacityBoundNearPaperQps)
{
    auto s = saturateWorker(warehouse::rm3(), sim::computeNodeV1());
    EXPECT_EQ(s.bottleneck, "memory-capacity");
    EXPECT_NEAR(s.qps / 1000.0, 36.921, 3.0);
    EXPECT_LT(s.threads, sim::computeNodeV1().cores);
}

TEST(WorkerModel, NodesRequiredMatchTableIX)
{
    struct Case
    {
        warehouse::RmSpec rm;
        double expected;
    };
    for (const auto &[rm, expected] :
         {Case{warehouse::rm1(), 24.16}, Case{warehouse::rm2(), 9.44},
          Case{warehouse::rm3(), 55.22}}) {
        auto s = saturateWorker(rm, sim::computeNodeV1());
        EXPECT_NEAR(workersPerTrainer(rm, s), expected,
                    expected * 0.10)
            << rm.name;
    }
}

TEST(WorkerModel, Rm2OnCv2ShiftsToMemBw)
{
    // Section VI-C: on C-v2 (2x NIC) RM2's bottleneck moves from the
    // network to memory bandwidth.
    auto s = saturateWorker(warehouse::rm2(), sim::computeNodeV2());
    EXPECT_EQ(s.bottleneck, "membw");
    EXPECT_GT(s.qps,
              saturateWorker(warehouse::rm2(), sim::computeNodeV1())
                  .qps);
}

} // namespace
} // namespace dsi::dpp
