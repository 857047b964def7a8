/**
 * @file
 * Self-healing storage plane tests: per-replica health, block CRC
 * stamping, read-repair, the anti-entropy scrubber, re-replication
 * after permanent node death, graceful decommission, the background
 * healer thread, and the end-to-end durability invariant under chaos
 * (no data loss while concurrent permanent failures stay below the
 * replication factor).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/fault.h"
#include "dpp/session.h"
#include "dwrf/reader.h"
#include "dwrf/writer.h"
#include "storage/tectonic.h"
#include "test_fixtures.h"
#include "warehouse/datagen.h"

namespace dsi::storage {
namespace {

dwrf::Buffer
bytesOf(size_t n, uint8_t fill = 0x5a)
{
    return dwrf::Buffer(n, fill);
}

StorageOptions
healCluster(uint32_t nodes = 6)
{
    StorageOptions o;
    o.block_size = 1_MiB;
    o.replication = 3;
    o.hdd_nodes = nodes;
    return o;
}

/** Replicas of one block in a given health state. */
uint32_t
replicasIn(const TectonicCluster &cluster, const std::string &file,
           uint64_t block, ReplicaHealth health, uint32_t replication)
{
    uint32_t n = 0;
    for (uint32_t r = 0; r < replication; ++r)
        n += cluster.replicaHealth(file, block, r) == health;
    return n;
}

class StorageHealTest : public ::testing::Test
{
  protected:
    StorageHealTest()
    {
        FaultInjector::instance().reset();
        FaultInjector::instance().seed(0x5EA1ULL);
    }
    ~StorageHealTest() override { FaultInjector::instance().reset(); }
};

// --- satellite: physicalBytes reports actual per-replica bytes ---

TEST_F(StorageHealTest, PhysicalBytesTracksActualReplicas)
{
    TectonicCluster cluster(healCluster());
    cluster.put("f", bytesOf(1_MiB + 300)); // 2 blocks
    EXPECT_EQ(cluster.physicalBytes(), 3 * (1_MiB + 300));

    // A permanent node death loses that node's replicas: physical
    // bytes drop by exactly the lost copies, not a derived estimate.
    NodeId victim = 0;
    for (const auto &n : cluster.nodes()) {
        if (cluster.nodeBlockCount(n.id()) > 0) {
            victim = n.id();
            break;
        }
    }
    ASSERT_GT(cluster.nodeBlockCount(victim), 0u);
    cluster.dieNode(victim);
    EXPECT_EQ(cluster.nodeBlockCount(victim), 0u);
    EXPECT_LT(cluster.physicalBytes(), 3 * (1_MiB + 300));

    // Re-replication restores full physical footprint.
    cluster.drainRepairQueue();
    EXPECT_EQ(cluster.physicalBytes(), 3 * (1_MiB + 300));
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);
}

// --- placement: node spread ---

TEST_F(StorageHealTest, PlacementSpreadsReplicasAcrossDistinctNodes)
{
    TectonicCluster cluster(healCluster());
    cluster.put("f", bytesOf(512)); // one block, three replicas
    uint64_t total = 0;
    uint64_t max_per_node = 0;
    for (const auto &n : cluster.nodes()) {
        uint64_t c = cluster.nodeBlockCount(n.id());
        total += c;
        max_per_node = std::max(max_per_node, c);
    }
    EXPECT_EQ(total, 3u);
    EXPECT_EQ(max_per_node, 1u); // three distinct nodes
}

// --- read-repair ---

TEST_F(StorageHealTest, ReadRepairQuarantinesCorruptReplicaAndServes)
{
    TectonicCluster cluster(healCluster());
    dwrf::Buffer data = bytesOf(4096, 0x7e);
    cluster.put("f", data);
    cluster.corruptReplica("f", 0, 1); // latent bit-rot
    EXPECT_EQ(cluster.replicaHealth("f", 0, 1),
              ReplicaHealth::Corrupt);
    // Latent rot is not yet under-replication: the system doesn't
    // know the copy is bad.
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);

    // Enough reads to rotate across every replica: the read that
    // lands on the corrupt copy detects it, quarantines it, and is
    // served from a healthy replica — the caller never sees rot.
    auto src = cluster.open("f");
    dwrf::Buffer out;
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(src->readChecked(0, data.size(), out),
                  dwrf::IoStatus::Ok);
        EXPECT_EQ(out, data);
    }
    EXPECT_EQ(cluster.replicaHealth("f", 0, 1),
              ReplicaHealth::Quarantined);
    EXPECT_GE(cluster.metrics().counter("storage.read_repair"), 1.0);
    EXPECT_GE(cluster.metrics().counter("storage.replicas_quarantined"),
              1.0);
    EXPECT_EQ(cluster.underReplicatedBlocks(), 1u);
    EXPECT_GE(cluster.repairQueueDepth(), 1u);

    // Read-repair completes through the repair queue.
    EXPECT_EQ(cluster.drainRepairQueue(), 1u);
    EXPECT_EQ(cluster.replicaHealth("f", 0, 1), ReplicaHealth::Healthy);
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);
    EXPECT_GE(cluster.metrics().counter("storage.repair.completed"),
              1.0);
    EXPECT_GE(cluster.metrics().counter("storage.repair.bytes"),
              4096.0);
}

TEST_F(StorageHealTest, ReplicaCorruptFaultRotsTheChosenReplica)
{
    TectonicCluster cluster(healCluster());
    dwrf::Buffer data = bytesOf(2048, 0x3c);
    cluster.put("f", data);
    auto src = cluster.open("f");
    dwrf::Buffer out;

    // The fault rots the replica the router chose; with verified
    // reads the same read detects it and fails over.
    ScopedFault rot(faults::kTectonicReplicaCorrupt,
                    FaultSpec{.trigger_hit = 1});
    ASSERT_EQ(src->readChecked(0, data.size(), out),
              dwrf::IoStatus::Ok);
    EXPECT_EQ(out, data);
    EXPECT_EQ(replicasIn(cluster, "f", 0, ReplicaHealth::Quarantined, 3),
              1u);
    EXPECT_GE(cluster.metrics().counter("storage.replicas_corrupted"),
              1.0);
    cluster.drainRepairQueue();
    EXPECT_EQ(replicasIn(cluster, "f", 0, ReplicaHealth::Healthy, 3),
              3u);
}

// --- scrubber ---

TEST_F(StorageHealTest, ScrubDetectsEveryInjectedCorruptReplica)
{
    TectonicCluster cluster(healCluster());
    cluster.put("a", bytesOf(2 * 1_MiB + 100)); // 3 blocks
    cluster.put("b", bytesOf(1_MiB));           // 1 block
    cluster.corruptReplica("a", 0, 0);
    cluster.corruptReplica("a", 2, 1);
    cluster.corruptReplica("b", 0, 2);

    cluster.resetAccounting();
    double busy_before = 0.0;
    for (const auto &n : cluster.nodes())
        busy_before += n.busySeconds();

    ScrubReport report = cluster.scrubOnce();
    EXPECT_EQ(report.blocks_scanned, 4u);
    EXPECT_EQ(report.corrupt_found, 3u); // 100% in one scan
    EXPECT_GT(report.replicas_verified, 0u);
    EXPECT_GT(report.bytes_verified, 0u);

    // Scrub IO is real device work: it shows up in node utilization
    // (and therefore in the power/HDD-gap accounting built on it).
    double busy_after = 0.0;
    for (const auto &n : cluster.nodes())
        busy_after += n.busySeconds();
    EXPECT_GT(busy_after, busy_before);
    EXPECT_GE(cluster.metrics().counter("storage.scrub.blocks"), 4.0);
    EXPECT_GE(cluster.metrics().counter("storage.scrub.repairs"), 3.0);
    EXPECT_EQ(cluster.underReplicatedBlocks(), 3u);

    // Repairs drain; a second scan comes back clean.
    cluster.drainRepairQueue();
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);
    EXPECT_EQ(cluster.scrubOnce().corrupt_found, 0u);
}

// --- permanent death / re-replication ---

TEST_F(StorageHealTest, DieNodeReReplicatesEverythingWithSpread)
{
    TectonicCluster cluster(healCluster());
    cluster.put("f", bytesOf(3 * 1_MiB)); // 3 blocks x 3 replicas
    // Find a node hosting at least one replica and kill it.
    NodeId victim = 0;
    for (const auto &n : cluster.nodes()) {
        if (cluster.nodeBlockCount(n.id()) > 0) {
            victim = n.id();
            break;
        }
    }
    uint64_t hosted = cluster.nodeBlockCount(victim);
    ASSERT_GT(hosted, 0u);

    cluster.dieNode(victim);
    EXPECT_EQ(cluster.nodeBlockCount(victim), 0u);
    EXPECT_EQ(cluster.underReplicatedBlocks(), hosted);
    EXPECT_GE(cluster.metrics().counter("storage.replicas_lost"),
              static_cast<double>(hosted));
    EXPECT_EQ(cluster.liveNodes(), 5u);

    // Reads keep working off the surviving replicas meanwhile.
    auto src = cluster.open("f");
    dwrf::Buffer out;
    EXPECT_EQ(src->readChecked(0, 4096, out), dwrf::IoStatus::Ok);

    EXPECT_EQ(cluster.drainRepairQueue(), hosted);
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);
    EXPECT_EQ(cluster.nodeBlockCount(victim), 0u); // dead stays empty
    // Node spread held: no block doubled up on a node (3 blocks x 3
    // replicas over 5 live nodes means no node exceeds one replica
    // per block, i.e. at most 3 total).
    for (const auto &n : cluster.nodes())
        EXPECT_LE(cluster.nodeBlockCount(n.id()), 3u);
    uint64_t total = 0;
    for (const auto &n : cluster.nodes())
        total += cluster.nodeBlockCount(n.id());
    EXPECT_EQ(total, 9u);
}

TEST_F(StorageHealTest, NodeDieFaultKillsServingNodeMidRead)
{
    TectonicCluster cluster(healCluster());
    dwrf::Buffer data = bytesOf(8192, 0x11);
    cluster.put("f", data);
    auto src = cluster.open("f");
    dwrf::Buffer out;

    // The node serving the chosen replica dies permanently mid-read;
    // the read itself survives by rotating to another replica, and
    // the death sweep enqueues re-replication.
    ScopedFault die(faults::kTectonicNodeDie,
                    FaultSpec{.trigger_hit = 1});
    ASSERT_EQ(src->readChecked(0, data.size(), out),
              dwrf::IoStatus::Ok);
    EXPECT_EQ(out, data);
    EXPECT_EQ(cluster.liveNodes(), 5u);
    EXPECT_GE(cluster.metrics().counter("storage.node_deaths"), 1.0);
    EXPECT_EQ(cluster.underReplicatedBlocks(), 1u);
    cluster.drainRepairQueue();
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);
    EXPECT_EQ(replicasIn(cluster, "f", 0, ReplicaHealth::Healthy, 3),
              3u);
}

TEST_F(StorageHealTest, RepairStallsWithoutTargetsThenRecovers)
{
    // 3 nodes at replication 3: a death leaves nowhere to re-home the
    // lost replicas (spread forbids doubling up), so repair parks.
    TectonicCluster cluster(healCluster(3));
    cluster.put("f", bytesOf(1024));
    cluster.dieNode(2);
    EXPECT_EQ(cluster.drainRepairQueue(), 0u);
    EXPECT_GE(cluster.metrics().counter("storage.repair.stalled"),
              1.0);
    EXPECT_EQ(cluster.underReplicatedBlocks(), 1u);
    EXPECT_GE(cluster.repairQueueDepth(), 1u); // parked, not dropped

    // A replacement chassis joins (the dead node's slot recovers
    // empty); the parked task completes on the next drain.
    cluster.recoverNode(2);
    EXPECT_EQ(cluster.drainRepairQueue(), 1u);
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);
    EXPECT_EQ(cluster.repairQueueDepth(), 0u);
}

// --- graceful decommission ---

TEST_F(StorageHealTest, DecommissionDrainsNodeThenRetiresIt)
{
    TectonicCluster cluster(healCluster());
    cluster.put("f", bytesOf(2 * 1_MiB + 7)); // 3 blocks
    NodeId victim = 0;
    for (const auto &n : cluster.nodes()) {
        if (cluster.nodeBlockCount(n.id()) > 0) {
            victim = n.id();
            break;
        }
    }
    uint64_t hosted = cluster.nodeBlockCount(victim);
    ASSERT_GT(hosted, 0u);

    cluster.decommissionNode(victim);
    EXPECT_TRUE(cluster.nodeDraining(victim));
    // Draining is not data loss: nothing is under-replicated and the
    // node keeps serving reads while its replicas move off.
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);
    EXPECT_EQ(cluster.liveNodes(), 6u);

    EXPECT_EQ(cluster.drainRepairQueue(), hosted);
    EXPECT_EQ(cluster.nodeBlockCount(victim), 0u);
    EXPECT_EQ(cluster.liveNodes(), 5u); // retired after last replica
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);

    auto src = cluster.open("f");
    dwrf::Buffer out;
    EXPECT_EQ(src->readChecked(0, 1_MiB, out), dwrf::IoStatus::Ok);
}

// --- satellite: recoverNode resets breaker + rotation bias ---

TEST_F(StorageHealTest, RecoverNodeResetsBreakerState)
{
    StorageOptions o;
    o.block_size = 1_MiB;
    o.replication = 1;
    o.hdd_nodes = 1;
    TectonicCluster cluster(o);
    cluster.put("f", bytesOf(512));
    auto src = cluster.open("f");
    dwrf::Buffer out;
    {
        // Every replica IO fails until the node's breaker opens.
        ScopedFault err(faults::kTectonicReplicaError,
                        FaultSpec{.probability = 1.0});
        for (int i = 0; i < 6; ++i)
            src->readChecked(0, 512, out);
    }
    ASSERT_EQ(cluster.breakerState(0), CircuitBreaker::State::Open);

    // Recovery must clear the breaker: a recovered node is healthy
    // now, whatever its pre-failure history said.
    cluster.recoverNode(0);
    EXPECT_EQ(cluster.breakerState(0), CircuitBreaker::State::Closed);
    EXPECT_EQ(src->readChecked(0, 512, out), dwrf::IoStatus::Ok);
    EXPECT_EQ(cluster.breakerState(0), CircuitBreaker::State::Closed);
}

// --- satellite: accounting getters are synchronized ---

TEST_F(StorageHealTest, CacheCountersReadCleanlyUnderConcurrentReads)
{
    StorageOptions o = healCluster(4);
    o.cache_blocks = 4;
    TectonicCluster cluster(o);
    dwrf::Buffer data = bytesOf(2 * 1_MiB);
    cluster.put("f", data);

    // Writer threads hammer the cache while reader threads poll the
    // accounting getters — TSan-clean requires the getters to take
    // io_mutex_ like the updates they observe.
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            auto src = cluster.open("f");
            dwrf::Buffer out;
            while (!stop.load(std::memory_order_relaxed))
                src->readChecked((t % 2) * 1_MiB, 4096, out);
        });
    }
    uint64_t observations = 0;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                uint64_t hits = cluster.cacheHits();
                uint64_t misses = cluster.cacheMisses();
                double rate = cluster.cacheHitRate();
                (void)hits;
                (void)misses;
                EXPECT_GE(rate, 0.0);
                EXPECT_LE(rate, 1.0);
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(true);
    for (auto &th : threads)
        th.join();
    (void)observations;
    EXPECT_GT(cluster.cacheHits() + cluster.cacheMisses(), 0u);
}

// --- background healer thread ---

TEST_F(StorageHealTest, HealerThreadScrubsAndRepairsInBackground)
{
    TectonicCluster cluster(healCluster());
    cluster.put("f", bytesOf(2 * 1_MiB));
    cluster.corruptReplica("f", 0, 0);
    cluster.corruptReplica("f", 1, 2);

    HealOptions heal;
    heal.scrub_bytes_per_sec = 1024.0 * 1024.0 * 1024.0;
    heal.idle_wait_s = 0.001;
    cluster.startHealer(heal);
    EXPECT_TRUE(cluster.healerRunning());
    cluster.startHealer(heal); // idempotent

    // The healer finds the rot by scrubbing and repairs it — no
    // foreground read ever touched the corrupt copies.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
        if (cluster.underReplicatedBlocks() == 0 &&
            replicasIn(cluster, "f", 0, ReplicaHealth::Healthy, 3) ==
                3 &&
            replicasIn(cluster, "f", 1, ReplicaHealth::Healthy, 3) ==
                3 &&
            cluster.metrics().counter("storage.scrub.repairs") >= 2.0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cluster.stopHealer();
    EXPECT_FALSE(cluster.healerRunning());
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);
    EXPECT_EQ(replicasIn(cluster, "f", 0, ReplicaHealth::Healthy, 3),
              3u);
    EXPECT_EQ(replicasIn(cluster, "f", 1, ReplicaHealth::Healthy, 3),
              3u);
    EXPECT_GE(cluster.metrics().counter("storage.scrub.repairs"), 2.0);
}

// --- satellite: DWRF checksum-mismatch retry path end to end ---

TEST_F(StorageHealTest, ChecksumRetryRotatesOffCorruptReplicaAndHeals)
{
    // verify_reads off: the cluster serves whatever the replica has,
    // and integrity falls to the DWRF stream checksums — whose
    // reportCorruption feedback must still quarantine the bad copy.
    StorageOptions so = healCluster(4);
    so.verify_reads = false;
    TectonicCluster cluster(so);

    warehouse::SchemaParams p;
    p.name = "heal";
    p.float_features = 8;
    p.sparse_features = 4;
    p.avg_length = 4;
    p.seed = 7;
    auto schema = warehouse::makeSchema(p);
    warehouse::RowGenerator gen(schema, 99);
    dwrf::WriterOptions wo;
    wo.rows_per_stripe = 512;
    dwrf::FileWriter writer(wo);
    writer.appendRows(gen.batch(512)); // single stripe, single block
    dwrf::Buffer bytes = writer.finish();
    cluster.put("heal/f0", bytes);

    // Reference decode through a plain in-memory source.
    dwrf::MemorySource mem(bytes);
    dwrf::ReadOptions ro;
    dwrf::FileReader reference(mem, ro);
    ASSERT_TRUE(reference.valid());
    dwrf::RowBatch expected;
    ASSERT_EQ(reference.readStripe(0, expected), dwrf::ReadStatus::Ok);

    auto src = cluster.open("heal/f0");
    dwrf::FileReader reader(*src, ro); // footer reads happen clean
    ASSERT_TRUE(reader.valid());

    // The next replica IO rots its own replica and serves the rotten
    // bytes (trigger_hit fires exactly once). The stream CRC catches
    // it, reportCorruption quarantines the replica, and the stripe
    // retry rotates onto a healthy copy.
    ScopedFault rot(faults::kTectonicReplicaCorrupt,
                    FaultSpec{.trigger_hit = 1});
    dwrf::RowBatch got;
    ASSERT_EQ(reader.readStripe(0, got), dwrf::ReadStatus::Ok);

    EXPECT_EQ(reader.stats().checksum_mismatches, 1u);
    EXPECT_EQ(reader.stats().stripe_retries, 1u);
    EXPECT_EQ(got.rows, expected.rows);
    EXPECT_EQ(got.labels, expected.labels);

    // The feedback loop fired: the rotten replica is out of rotation
    // with a repair queued, and the repair restores full health.
    EXPECT_EQ(replicasIn(cluster, "heal/f0", 0,
                         ReplicaHealth::Quarantined, 3),
              1u);
    EXPECT_GE(cluster.metrics().counter("storage.read_repair"), 1.0);
    EXPECT_GE(cluster.repairQueueDepth(), 1u);
    cluster.drainRepairQueue();
    EXPECT_EQ(replicasIn(cluster, "heal/f0", 0, ReplicaHealth::Healthy,
                         3),
              3u);
    EXPECT_EQ(cluster.underReplicatedBlocks(), 0u);
}

} // namespace
} // namespace dsi::storage

// --- end-to-end chaos: durability invariant under training load ---

namespace dsi::dpp {
namespace {

warehouse::SchemaParams
healChaosParams()
{
    warehouse::SchemaParams p;
    p.name = "healchaos";
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 6;
    p.coverage_u = 0.5;
    p.seed = 33;
    return p;
}

SessionSpec
healChaosSpec(const warehouse::MiniCorpus &mc)
{
    SessionSpec spec;
    spec.table = mc.name;
    spec.partitions = {0, 1};
    spec.projection = warehouse::chooseProjection(
        mc.schema, mc.popularity, 8, 4, 7);
    transforms::ModelGraphParams gp;
    gp.derived_features = 2;
    spec.setTransforms(
        transforms::makeModelGraph(mc.schema, spec.projection, gp));
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

    void expectExactlyOnce(uint64_t expected_rows) const
    {
        for (const auto &[key, n] : count) {
            EXPECT_EQ(n, 1u)
                << "batch (split " << key.first << ", row "
                << key.second << ") delivered " << n << " times";
        }
        EXPECT_EQ(rows, expected_rows);
    }
};

TEST(StorageHealChaos, TrainingSurvivesDeathsAndRotThenFullyHeals)
{
    constexpr uint64_t kTotalRows = 2 * 4096;
    FaultInjector::instance().reset();
    FaultInjector::instance().seed(0x0DDF00DULL);

    // Six nodes at replication 3: two overlapping permanent deaths
    // still leave every block one healthy replica (node spread), and
    // four survivors are enough to restore full replication.
    storage::StorageOptions so;
    so.block_size = 256_KiB;
    so.replication = 3;
    so.hdd_nodes = 6;
    dwrf::WriterOptions wo;
    wo.rows_per_stripe = 1024;
    auto mc = warehouse::buildMiniCorpus(healChaosParams(), 2, 4096,
                                         2048, wo, so);

    SessionOptions opts;
    opts.workers = 2;
    opts.clients = 2;
    InProcessSession session(*mc.warehouse, healChaosSpec(mc), opts);

    auto files = mc.cluster->listFiles();
    ASSERT_GE(files.size(), 3u);

    // Chaos script, driven off training progress: latent bit-rot on
    // three replicas early, then — once the healer has scrubbed the
    // rot away — two overlapping permanent node deaths mid-training.
    DeliveryLog log;
    uint64_t rows_seen = 0;
    bool corrupted = false;
    bool killed = false;
    auto sink = [&](ClientId, const TensorBatch &t) {
        log.sinkBatch(t);
        rows_seen += t.data.rows;
        if (!corrupted && rows_seen >= kTotalRows / 4) {
            corrupted = true;
            mc.cluster->corruptReplica(files[0], 0, 0);
            mc.cluster->corruptReplica(files[1], 0, 1);
            mc.cluster->corruptReplica(files[2], 0, 2);
        }
        if (corrupted && !killed && rows_seen >= kTotalRows / 2) {
            // Wait for the healer to finish with the rot so the two
            // deaths never overlap a still-quarantined third copy —
            // the invariant only promises no loss while concurrent
            // failures stay below the replication factor.
            auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::seconds(10);
            while (std::chrono::steady_clock::now() < deadline &&
                   (mc.cluster->underReplicatedBlocks() > 0 ||
                    mc.cluster->repairQueueDepth() > 0))
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            killed = true;
            mc.cluster->dieNode(4);
            mc.cluster->dieNode(5); // overlapping: before re-replication
        }
    };
    // The cluster's background healer runs for the whole session.
    storage::HealOptions heal;
    heal.scrub_bytes_per_sec = 1024.0 * 1024.0 * 1024.0;
    heal.idle_wait_s = 0.001;
    mc.cluster->startHealer(heal);
    auto result = session.run(sink);
    mc.cluster->stopHealer();

    EXPECT_TRUE(corrupted);
    EXPECT_TRUE(killed);
    // Zero terminal Unavailable reads: every split delivered.
    EXPECT_EQ(result.splits_failed, 0u);
    log.expectExactlyOnce(kTotalRows);
    EXPECT_EQ(result.rows_delivered, kTotalRows);

    // The plane returns to full replication: drain whatever the
    // healer had not finished when run() stopped it.
    mc.cluster->drainRepairQueue();
    EXPECT_EQ(mc.cluster->underReplicatedBlocks(), 0u);
    EXPECT_EQ(mc.cluster->repairQueueDepth(), 0u);
    EXPECT_EQ(mc.cluster->liveNodes(), 4u);
    EXPECT_EQ(mc.cluster->nodeBlockCount(4), 0u);
    EXPECT_EQ(mc.cluster->nodeBlockCount(5), 0u);

    const auto &m = mc.cluster->metrics();
    EXPECT_GE(m.counter("storage.replicas_lost"), 1.0);
    EXPECT_GE(m.counter("storage.repair.completed"), 1.0);
    EXPECT_GE(m.counter("storage.scrub.blocks"), 1.0); // healer ran
    EXPECT_EQ(m.gauge("storage.under_replicated_blocks"), 0.0);
    FaultInjector::instance().reset();
}

} // namespace
} // namespace dsi::dpp
