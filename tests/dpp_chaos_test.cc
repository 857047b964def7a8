/**
 * @file
 * Chaos suite: end-to-end DPP sessions under injected faults.
 *
 * Each scenario arms fault points (worker crashes, corrupt Tectonic
 * reads, dead storage nodes, replica IO errors, slow replicas) with a
 * fixed injector seed and drives a full session, asserting the
 * exactly-once delivery contract: every (split_id, first_row) batch
 * key is delivered to exactly one client exactly once, the row total
 * is exact, and no process-killing assert fires anywhere.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "dpp/session.h"
#include "test_fixtures.h"

namespace dsi::dpp {
namespace {

warehouse::SchemaParams
chaosParams()
{
    warehouse::SchemaParams p;
    p.name = "chaos";
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 6;
    p.coverage_u = 0.5;
    p.seed = 31;
    return p;
}

SessionSpec
chaosSpec(const testing::MiniWarehouse &mw)
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

/** Counts every delivered batch by its replay-stable identity. */
struct DeliveryLog
{
    std::map<std::pair<uint64_t, RowId>, uint64_t> count;
    uint64_t rows = 0;

    void sinkBatch(const TensorBatch &t)
    {
        ++count[{t.split_id, t.first_row}];
        rows += t.data.rows;
    }

    InProcessSession::TensorSink sink()
    {
        return
            [this](ClientId, const TensorBatch &t) { sinkBatch(t); };
    }

    /** Every key exactly once — no duplicates, no gaps in totals. */
    void expectExactlyOnce(uint64_t expected_rows) const
    {
        for (const auto &[key, n] : count) {
            EXPECT_EQ(n, 1u) << "batch (split " << key.first
                             << ", row " << key.second
                             << ") delivered " << n << " times";
        }
        EXPECT_EQ(rows, expected_rows);
    }
};

class ChaosTest : public ::testing::Test
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

    ChaosTest()
        : mw_(testing::makeMiniWarehouse(chaosParams(), 2, 4096, 2048,
                                         stripeOptions()))
    {
        FaultInjector::instance().reset();
        FaultInjector::instance().seed(0xC4A05ULL);
    }

    ~ChaosTest() override { FaultInjector::instance().reset(); }

    /**
     * With leases off, a crashed worker never lets go of its split by
     * itself: the pool must recycle it (fail the split back to the
     * Master and start a replacement) or the session never finishes.
     */
    void crashWithoutLeaseFinishes(uint32_t threads)
    {
        SessionOptions so;
        so.workers = 2;
        so.clients = 1;
        so.lease_timeout = 0.0;
        so.worker.num_extract_threads = threads;
        so.worker.num_transform_threads = threads;
        InProcessSession session(*mw_.warehouse, chaosSpec(mw_), so);

        ScopedFault crash(faults::kWorkerCrash,
                          FaultSpec{.trigger_hit = 6});
        DeliveryLog log;
        auto result = session.run(log.sink());

        EXPECT_GE(result.worker_failures, 1u);
        EXPECT_EQ(result.splits_failed, 0u);
        log.expectExactlyOnce(kTotalRows);
        EXPECT_EQ(result.rows_delivered, kTotalRows);
    }

    testing::MiniWarehouse mw_;
};

TEST_F(ChaosTest, WorkerCrashMidSplitRecoversExactlyOnce)
{
    SessionOptions so;
    so.workers = 2;
    so.clients = 2;
    so.lease_timeout = 0.05;
    InProcessSession session(*mw_.warehouse, chaosSpec(mw_), so);

    // The 6th crash-point hit (checked per stripe, split in hand)
    // kills a worker mid-split. Its pool lease expires (it no longer
    // beats), the Master requeues its splits, and the session
    // starts a stateless replacement. Armed after construction so the
    // Master's split enumeration is not in scope.
    ScopedFault crash(faults::kWorkerCrash, FaultSpec{.trigger_hit = 6});
    DeliveryLog log;
    auto result = session.run(log.sink());

    EXPECT_GE(result.worker_failures, 1u);
    EXPECT_EQ(result.splits_failed, 0u);
    log.expectExactlyOnce(kTotalRows);
    EXPECT_EQ(result.rows_delivered, kTotalRows);
    EXPECT_GE(session.collectMetrics().counter("pool.leases_expired"),
              1.0);
}

TEST_F(ChaosTest, WorkerCrashWithoutLeaseIsRecycledSynchronous)
{
    crashWithoutLeaseFinishes(0);
}

TEST_F(ChaosTest, WorkerCrashWithoutLeaseIsRecycledThreaded)
{
    crashWithoutLeaseFinishes(1);
}

TEST_F(ChaosTest, CorruptChunkIsCaughtAndRetried)
{
    SessionOptions so;
    so.workers = 1;
    so.clients = 1;
    InProcessSession session(*mw_.warehouse, chaosSpec(mw_), so);

    // One worker, synchronous, armed after the Master's enumeration
    // reads: the hit sequence is deterministic — hit 1 is the first
    // file's tail, hit 2 its footer, hit 3 the first stripe IO.
    // Corrupting hit 3 flips a byte in stream data; the reader's CRC
    // check catches it and the per-stripe retry re-reads clean bytes.
    ScopedFault corrupt(faults::kTectonicReadCorrupt,
                        FaultSpec{.trigger_hit = 3});
    DeliveryLog log;
    auto result = session.run(log.sink());

    EXPECT_GE(result.read_stats.checksum_mismatches, 1u);
    EXPECT_GE(result.read_stats.stripe_retries, 1u);
    EXPECT_EQ(result.splits_failed, 0u);
    log.expectExactlyOnce(kTotalRows);
    EXPECT_GE(mw_.cluster->metrics().counter("tectonic.corrupt_reads"),
              1.0);
}

TEST_F(ChaosTest, DeadStorageNodeFailsOverToReplicas)
{
    // RS/replicated placement keeps every block readable with one
    // node down; reads route around the dead node transparently.
    mw_.cluster->failNode(0);

    SessionOptions so;
    so.workers = 2;
    so.clients = 1;
    InProcessSession session(*mw_.warehouse, chaosSpec(mw_), so);
    DeliveryLog log;
    auto result = session.run(log.sink());

    EXPECT_EQ(result.splits_failed, 0u);
    EXPECT_EQ(result.read_stats.io_errors, 0u); // failover is silent
    log.expectExactlyOnce(kTotalRows);
    mw_.cluster->recoverNode(0);
}

TEST_F(ChaosTest, FlakyReplicasAreRoutedAround)
{
    SessionOptions so;
    so.workers = 2;
    so.clients = 1;
    InProcessSession session(*mw_.warehouse, chaosSpec(mw_), so);

    // Individual replica IOs fail with 20% probability; each block
    // has healthy replicas, so reads succeed by routing around the
    // failures (seeded: deterministic failure pattern).
    ScopedFault flaky(faults::kTectonicReplicaError,
                      FaultSpec{.probability = 0.2});
    DeliveryLog log;
    auto result = session.run(log.sink());

    EXPECT_EQ(result.splits_failed, 0u);
    log.expectExactlyOnce(kTotalRows);
    EXPECT_GE(mw_.cluster->metrics().counter(
                  "tectonic.replica_read_errors"),
              1.0);
}

TEST_F(ChaosTest, SlowReplicaDelaysButDelivers)
{
    SessionOptions so;
    so.workers = 2;
    so.clients = 1;
    InProcessSession session(*mw_.warehouse, chaosSpec(mw_), so);

    ScopedFault slow(faults::kTectonicReadDelay,
                     FaultSpec{.probability = 0.1,
                               .max_fires = 4,
                               .latency_seconds = 0.005});
    DeliveryLog log;
    auto result = session.run(log.sink());

    EXPECT_EQ(result.splits_failed, 0u);
    log.expectExactlyOnce(kTotalRows);
    EXPECT_GE(FaultInjector::instance().fires(
                  faults::kTectonicReadDelay),
              1u);
}

TEST_F(ChaosTest, AllReplicasDownFailsSplitsBoundedlyWithoutAbort)
{
    SessionOptions so;
    so.workers = 2;
    so.clients = 1;
    so.max_split_attempts = 2;
    InProcessSession session(*mw_.warehouse, chaosSpec(mw_), so);

    // Every replica IO fails from here on: no read can be served.
    // Splits exhaust their attempt budget and are marked failed — the
    // session ends cleanly (no rows, no abort) instead of dying on an
    // assert.
    ScopedFault dead(faults::kTectonicReplicaError,
                     FaultSpec{.probability = 1.0});
    DeliveryLog log;
    auto result = session.run(log.sink());

    EXPECT_EQ(result.rows_delivered, 0u);
    EXPECT_EQ(result.splits_failed,
              session.master().totalSplits());
    EXPECT_EQ(log.rows, 0u);
}

TEST_F(ChaosTest, CombinedChaosParallelPipelineExactlyOnce)
{
    SessionOptions so;
    so.workers = 3;
    so.clients = 2;
    so.lease_timeout = 0.1;
    so.worker.num_extract_threads = 2;
    so.worker.num_transform_threads = 2;
    InProcessSession session(*mw_.warehouse, chaosSpec(mw_), so);

    // Everything at once, on the threaded data plane: a worker crash,
    // sporadic corrupt reads, flaky replicas, and a slow replica.
    ScopedFault crash(faults::kWorkerCrash,
                      FaultSpec{.trigger_hit = 9});
    ScopedFault corrupt(faults::kTectonicReadCorrupt,
                        FaultSpec{.probability = 0.03,
                                  .max_fires = 3});
    ScopedFault flaky(faults::kTectonicReplicaError,
                      FaultSpec{.probability = 0.05});
    ScopedFault slow(faults::kTectonicReadDelay,
                     FaultSpec{.probability = 0.05,
                               .max_fires = 2,
                               .latency_seconds = 0.002});
    DeliveryLog log;
    auto result = session.run(log.sink());

    EXPECT_EQ(result.splits_failed, 0u);
    log.expectExactlyOnce(kTotalRows);
    EXPECT_EQ(result.rows_delivered, kTotalRows);
}

/**
 * Property tests for the DeliveryLedger itself: the exactly-once
 * invariant must hold for *any* delivery schedule a chaotic session
 * could produce — replays, reorders, interleaved epochs of different
 * splits — not just the schedules the end-to-end scenarios happen to
 * generate.
 */

/** Batch keys for `splits` splits of `batches` batches each. */
std::vector<std::pair<uint64_t, RowId>>
ledgerKeys(uint64_t splits, uint64_t batches)
{
    std::vector<std::pair<uint64_t, RowId>> keys;
    for (uint64_t s = 0; s < splits; ++s) {
        for (uint64_t b = 0; b < batches; ++b)
            keys.emplace_back(s, static_cast<RowId>(b * 256));
    }
    return keys;
}

TEST(DeliveryLedgerFuzz, RandomReplaysAndReordersClaimExactlyOnce)
{
    // 20 rounds of: every key delivered 1..4 times (replayed split
    // attempts), the whole schedule shuffled (arbitrary interleaving
    // of splits and attempt epochs). The ledger must admit each key
    // exactly once and count every extra copy as a duplicate.
    for (uint64_t round = 0; round < 20; ++round) {
        Rng rng(0xF00DULL + round);
        auto keys = ledgerKeys(40, 16);
        std::vector<std::pair<uint64_t, RowId>> schedule;
        for (const auto &k : keys) {
            uint64_t copies = 1 + rng.nextUint(4);
            for (uint64_t c = 0; c < copies; ++c)
                schedule.push_back(k);
        }
        for (size_t i = schedule.size(); i > 1; --i)
            std::swap(schedule[i - 1], schedule[rng.nextUint(i)]);

        DeliveryLedger ledger;
        std::map<std::pair<uint64_t, RowId>, uint64_t> admitted;
        for (const auto &k : schedule) {
            if (ledger.claim(k.first, k.second))
                ++admitted[k];
        }
        ASSERT_EQ(admitted.size(), keys.size());
        for (const auto &[key, n] : admitted)
            ASSERT_EQ(n, 1u);
        EXPECT_EQ(ledger.delivered(), keys.size());
        EXPECT_EQ(ledger.duplicates(),
                  schedule.size() - keys.size());
    }
}

TEST(DeliveryLedgerFuzz, ConcurrentClaimsAdmitEachKeyOnce)
{
    // Eight "clients" race full replays of the same key set (each in
    // its own shuffle order): across all threads every key must be
    // claimed exactly once.
    auto keys = ledgerKeys(32, 8);
    DeliveryLedger ledger;
    std::atomic<uint64_t> admitted{0};
    std::vector<std::thread> clients;
    for (uint64_t t = 0; t < 8; ++t) {
        clients.emplace_back([&, t] {
            Rng rng(0xC1AE77ULL * (t + 1));
            auto order = keys;
            for (size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.nextUint(i)]);
            for (const auto &k : order) {
                if (ledger.claim(k.first, k.second))
                    admitted.fetch_add(1);
            }
        });
    }
    for (auto &c : clients)
        c.join();
    EXPECT_EQ(admitted.load(), keys.size());
    EXPECT_EQ(ledger.delivered(), keys.size());
    EXPECT_EQ(ledger.duplicates(), keys.size() * 7);
}

} // namespace
} // namespace dsi::dpp
