/**
 * @file
 * Whole-control-plane crash/recovery suite.
 *
 * Kills the Master (a halted session) and the whole FleetScheduler
 * mid-epoch — under concurrent worker crashes and checkpoint-write
 * faults — then rebuilds the control plane from the durable journal
 * and asserts the contracts recovery must keep:
 *
 *  - exactly-once delivery across incarnations (the restored
 *    DeliveryLedger suppresses replays of batches trainers already
 *    received, and nothing is lost),
 *  - no attempt double-charging (a split's failure budget survives),
 *  - re-granted splits resume past their delivered-stripe watermark
 *    instead of re-extracting finished stripes,
 *  - trace lineage stays complete on the recovered incarnation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/trace_query.h"
#include "dpp/session.h"
#include "sched/dpp_fleet.h"
#include "test_fixtures.h"

namespace dsi::dpp {
namespace {

warehouse::SchemaParams
recoveryParams()
{
    warehouse::SchemaParams p;
    p.name = "recovery";
    p.float_features = 12;
    p.sparse_features = 6;
    p.avg_length = 5;
    p.coverage_u = 0.5;
    p.seed = 77;
    return p;
}

/** Multi-stripe splits so stripe resume has room to matter: 4 stripes
 * of 256 rows per 1024-row split, two 128-row batches per stripe. */
SessionSpec
recoverySpec(const testing::MiniWarehouse &mw,
             std::vector<uint32_t> partitions = {0, 1})
{
    SessionSpec spec;
    spec.table = mw.name;
    spec.partitions = std::move(partitions);
    spec.projection = warehouse::chooseProjection(
        mw.schema, mw.popularity, 6, 3, 7);
    transforms::ModelGraphParams gp;
    gp.derived_features = 2;
    spec.setTransforms(
        transforms::makeModelGraph(mw.schema, spec.projection, gp));
    spec.batch_size = 128;
    spec.rows_per_split = 1024;
    return spec;
}

/** Batch deliveries keyed by replay-stable identity, unioned across
 * control-plane incarnations. */
struct UnionLog
{
    std::map<std::pair<uint64_t, RowId>, uint64_t> count;
    std::map<std::pair<uint64_t, RowId>, uint64_t> rows_of;
    uint64_t batches = 0;

    void add(const TensorBatch &t)
    {
        ++count[{t.split_id, t.first_row}];
        rows_of[{t.split_id, t.first_row}] = t.data.rows;
        ++batches;
    }

    uint64_t uniqueRows() const
    {
        uint64_t rows = 0;
        for (const auto &[key, r] : rows_of)
            rows += r;
        return rows;
    }

    /** Strict: every key delivered exactly once across the union. */
    void expectExactlyOnce(uint64_t expected_rows) const
    {
        for (const auto &[key, n] : count)
            EXPECT_EQ(n, 1u)
                << "batch (split " << key.first << ", row "
                << key.second << ") delivered " << n << " times";
        EXPECT_EQ(uniqueRows(), expected_rows);
    }

    /** Weak (stale-checkpoint tolerant): nothing lost; at-least-once
     * per key, with the exact unique-row total. */
    void expectNothingLost(uint64_t expected_rows) const
    {
        for (const auto &[key, n] : count)
            EXPECT_GE(n, 1u);
        EXPECT_EQ(uniqueRows(), expected_rows);
    }
};

class RecoveryTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kTotalRows = 2 * 2048;

    static dwrf::WriterOptions stripeOptions()
    {
        dwrf::WriterOptions wo;
        wo.rows_per_stripe = 256;
        return wo;
    }

    RecoveryTest()
        : mw_(testing::makeMiniWarehouse(recoveryParams(), 2, 2048,
                                         1024, stripeOptions()))
    {
        FaultInjector::instance().reset();
        FaultInjector::instance().seed(0x52EC0E5ULL);
    }

    ~RecoveryTest() override { FaultInjector::instance().reset(); }

    RecoveryOptions recovery(bool recover) const
    {
        RecoveryOptions r;
        r.cluster = mw_.cluster.get();
        r.journal_base = "dpp/journal";
        // Strict cadence: the ledger is durable per delivered batch,
        // so exactly-once holds across any crash point.
        r.policy.every_n_deliveries = 1;
        r.recover = recover;
        return r;
    }

    testing::MiniWarehouse mw_;
};

TEST_F(RecoveryTest, MasterDeathMidEpochResumesExactlyOnce)
{
    SessionOptions so;
    so.workers = 1;
    so.clients = 1;
    so.recovery = recovery(false);

    UnionLog log;
    uint64_t first_run_batches = 0;
    {
        InProcessSession session(*mw_.warehouse, recoverySpec(mw_),
                                 so);
        // Kill the control plane after 6 delivered batches (3 full
        // stripes) — mid-split, mid-epoch.
        session.run([&](ClientId, const TensorBatch &t) {
            log.add(t);
            if (++first_run_batches == 6)
                session.requestHalt();
        });
        EXPECT_TRUE(session.halted());
        EXPECT_FALSE(session.master().progress().done());
    }

    ASSERT_EQ(first_run_batches, 6u);

    SessionOptions so2 = so;
    so2.recovery = recovery(true);
    InProcessSession successor(*mw_.warehouse, recoverySpec(mw_),
                               so2);
    EXPECT_EQ(successor.master().epoch(), 1u);
    auto result = successor.run(
        [&](ClientId, const TensorBatch &t) { log.add(t); });

    EXPECT_TRUE(successor.master().progress().done());
    EXPECT_EQ(result.splits_failed, 0u);
    log.expectExactlyOnce(kTotalRows);

    auto metrics = successor.collectMetrics();
    EXPECT_GE(metrics.counter("master.checkpoint.restored"), 1.0);
    // The in-flight split of the dead incarnation had fully-delivered
    // stripes: its re-grant must resume past them, on both sides.
    EXPECT_GE(metrics.counter("master.splits_resumed"), 1.0);
    EXPECT_GE(metrics.counter("worker.splits_resumed"), 1.0);
}

TEST_F(RecoveryTest, RecoverOnEmptyJournalIsCleanColdStart)
{
    SessionOptions so;
    so.workers = 2;
    so.clients = 1;
    so.recovery = recovery(true); // nothing to recover from

    InProcessSession session(*mw_.warehouse, recoverySpec(mw_), so);
    EXPECT_EQ(session.master().epoch(), 0u);
    UnionLog log;
    auto result = session.run(
        [&](ClientId, const TensorBatch &t) { log.add(t); });
    EXPECT_EQ(result.splits_failed, 0u);
    log.expectExactlyOnce(kTotalRows);
}

TEST_F(RecoveryTest, MasterDeathUnderWorkerCrashAndCheckpointFaults)
{
    SessionOptions so;
    so.workers = 2;
    so.clients = 2;
    so.lease_timeout = 0.05;
    so.trace.enabled = true;
    so.recovery = recovery(false);

    // Concurrent chaos on both planes: a worker dies mid-split and a
    // slice of checkpoint publishes is corrupted, so recovery may have
    // to fall back past torn records (at-least-once is the contract
    // under stale checkpoints; nothing may be lost).
    ScopedFault crash(faults::kWorkerCrash,
                      FaultSpec{.trigger_hit = 5});
    ScopedFault corrupt(faults::kCheckpointWriteCorrupt,
                        FaultSpec{.probability = 0.25});

    UnionLog log;
    uint64_t first_run_batches = 0;
    {
        InProcessSession session(*mw_.warehouse, recoverySpec(mw_),
                                 so);
        session.run([&](ClientId, const TensorBatch &t) {
            log.add(t);
            if (++first_run_batches == 10)
                session.requestHalt();
        });
        EXPECT_TRUE(session.halted());
        EXPECT_GE(session.collectMetrics().counter(
                      "master.checkpoint.written"),
                  1.0);
    }

    SessionOptions so2 = so;
    so2.recovery = recovery(true);
    // Recovery runs in the constructor, before run() scopes the trace
    // log to the run — collect its master.recover span separately.
    trace::TraceLog::instance().clear();
    trace::TraceLog::instance().enable();
    InProcessSession successor(*mw_.warehouse, recoverySpec(mw_),
                               so2);
    trace::TraceQuery recovered(trace::TraceLog::instance().snapshot());
    EXPECT_GE(recovered.count(trace::spans::kMasterRecover), 1u);

    auto result = successor.run(
        [&](ClientId, const TensorBatch &t) { log.add(t); });

    EXPECT_TRUE(successor.master().progress().done());
    EXPECT_EQ(result.splits_failed, 0u);
    log.expectNothingLost(kTotalRows);

    // Lineage on the recovered incarnation: every delivered batch
    // traces back to a grant with real extract reads under it.
    trace::TraceQuery q(successor.traceEvents());
    EXPECT_GE(q.lineageCompleteFraction(), 0.99);
}

TEST_F(RecoveryTest, AttemptCountsAreNotDoubleCharged)
{
    auto spec = recoverySpec(mw_);

    Master first(*mw_.warehouse, spec);
    first.setMaxSplitAttempts(2);
    first.enableJournal(*mw_.cluster, "dpp/attempts",
                        CheckpointPolicy{});
    WorkerId w = first.registerWorker();
    auto grant = first.acquireSplit(w, {});
    ASSERT_EQ(grant.status, GrantStatus::Granted);
    uint64_t split = grant.split->id;
    first.failSplit(w, split); // attempt 1 of 2 — requeued
    first.checkpointNow();

    Master successor(*mw_.warehouse, spec);
    successor.setMaxSplitAttempts(2);
    successor.enableJournal(*mw_.cluster, "dpp/attempts",
                            CheckpointPolicy{});
    ASSERT_TRUE(successor.recoverFromJournal());
    EXPECT_EQ(successor.epoch(), 1u);
    EXPECT_EQ(successor.progress().failed_splits, 0u);

    // The restored Master remembers the failed attempt: one more
    // failure exhausts the budget. A Master that double-charged (or
    // forgot) attempts would need zero (or two) further failures.
    WorkerId w2 = successor.registerWorker();
    for (;;) {
        auto g = successor.acquireSplit(w2, {});
        ASSERT_EQ(g.status, GrantStatus::Granted);
        if (g.split->id == split)
            break;
        // Hold non-target grants in flight so the queue advances.
    }
    successor.failSplit(w2, split);
    EXPECT_EQ(successor.progress().failed_splits, 1u);
}

TEST_F(RecoveryTest, SessionWritesPeriodicCheckpoints)
{
    // One split (one 1024-row file) of 8 batches, 2 ms per delivery:
    // a 1 ms interval must write records before the terminal one.
    auto mw = testing::makeMiniWarehouse(recoveryParams(), 1, 1024, 1024,
                                         stripeOptions());
    SessionOptions so;
    so.workers = 1;
    so.clients = 1;
    so.recovery.cluster = mw.cluster.get();
    so.recovery.journal_base = "dpp/periodic";
    so.recovery.policy.interval_s = 0.001;
    InProcessSession session(*mw.warehouse, recoverySpec(mw, {0}), so);
    uint64_t batches = 0;
    session.run([&](ClientId, const TensorBatch &) {
        ++batches;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    ASSERT_EQ(batches, 8u);
    EXPECT_GE(session.collectMetrics().counter(
                  "master.checkpoint.written"),
              2.0);
}

TEST_F(RecoveryTest, JournalOmitsLedgerKeysOfFinishedSplits)
{
    // A finished split is never granted again, so its delivered keys
    // can suppress nothing after recovery; an unfinished split's keys
    // must survive.
    auto recoveredKeys = [&] {
        Master successor(*mw_.warehouse, recoverySpec(mw_));
        DeliveryLedger ledger;
        successor.setLedger(&ledger);
        successor.enableJournal(*mw_.cluster, "dpp/journal",
                                CheckpointPolicy{});
        EXPECT_TRUE(successor.recoverFromJournal());
        return ledger.delivered();
    };
    SessionOptions so;
    so.workers = 1;
    so.clients = 1;
    so.recovery = recovery(false);

    // Halted after 6 of the first split's 8 batches: all 6 keys stay.
    {
        InProcessSession session(*mw_.warehouse, recoverySpec(mw_), so);
        uint64_t batches = 0;
        session.run([&](ClientId, const TensorBatch &) {
            if (++batches == 6)
                session.requestHalt();
        });
        ASSERT_EQ(session.master().progress().completed_splits, 0u);
    }
    EXPECT_EQ(recoveredKeys(), 6u);

    // Run to the end: the newest record carries no key.
    so.recovery = recovery(true);
    {
        InProcessSession session(*mw_.warehouse, recoverySpec(mw_), so);
        session.run();
        ASSERT_TRUE(session.master().progress().done());
    }
    EXPECT_EQ(recoveredKeys(), 0u);
}

TEST_F(RecoveryTest, FleetSchedulerDeathRebuildsEveryTenant)
{
    auto addTenants = [&](sched::FleetScheduler &fleet) {
        sched::TenantOptions rc;
        rc.name = "rc";
        rc.job_class = sched::JobClass::RC;
        sched::TenantOptions explore;
        explore.name = "explore";
        explore.job_class = sched::JobClass::Explore;
        // Re-admission order fixes tenant ids, which name the
        // journals — the successor must mirror it.
        fleet.addTenant(recoverySpec(mw_, {0}), rc);
        fleet.addTenant(recoverySpec(mw_, {1}), explore);
    };

    sched::FleetOptions fo;
    fo.initial_workers = 2;
    fo.lease_timeout = 0.05;
    fo.recovery = recovery(false);
    fo.recovery.journal_base = "dpp/fleet";

    std::map<TenantId, UnionLog> logs;
    uint64_t delivered = 0;
    {
        // A worker crash runs concurrently with the fleet's death.
        ScopedFault crash(faults::kWorkerCrash,
                          FaultSpec{.trigger_hit = 4});
        sched::FleetScheduler fleet(*mw_.warehouse, fo);
        addTenants(fleet);
        // Drive the fleet mid-epoch, then destroy it with tenants
        // unfinished — buffered tensors die with the pool, exactly as
        // a control-plane crash loses them.
        for (int ticks = 0; ticks < 10000 && delivered < 8; ++ticks)
            fleet.tick([&](TenantId tenant, const TensorBatch &t) {
                logs[tenant].add(t);
                ++delivered;
            });
        ASSERT_GE(delivered, 8u);
        EXPECT_FALSE(fleet.finished());
    }

    sched::FleetOptions fo2 = fo;
    fo2.recovery.recover = true;
    sched::FleetScheduler successor(*mw_.warehouse, fo2);
    addTenants(successor);
    auto result = successor.run(
        [&](TenantId tenant, const TensorBatch &t) {
            logs[tenant].add(t);
        });

    ASSERT_EQ(logs.size(), 2u);
    for (auto &[tenant, log] : logs)
        log.expectExactlyOnce(2048); // one partition per tenant
    for (const auto &[tenant, stats] : result.tenants) {
        EXPECT_TRUE(stats.done);
        EXPECT_EQ(stats.splits_failed, 0u);
    }

    auto metrics = successor.collectMetrics();
    // Every tenant Master restored from its own journal.
    EXPECT_GE(metrics.counter("master.checkpoint.restored"), 2.0);
}

} // namespace
} // namespace dsi::dpp
