/**
 * @file
 * Tests for the Tectonic-like storage cluster: placement, replication
 * accounting, read routing, SSD cache, and provisioning math.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/fault.h"
#include "dwrf/reader.h"
#include "dwrf/writer.h"
#include "storage/provisioning.h"
#include "storage/tectonic.h"

namespace dsi::storage {
namespace {

dwrf::Buffer
bytesOf(size_t n, uint8_t fill = 0x5a)
{
    return dwrf::Buffer(n, fill);
}

StorageOptions
smallCluster()
{
    StorageOptions o;
    o.block_size = 1_MiB;
    o.replication = 3;
    o.hdd_nodes = 4;
    return o;
}

TEST(Tectonic, PutAndReadBack)
{
    TectonicCluster cluster(smallCluster());
    dwrf::Buffer data(3u * 1_MiB + 123);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 7);
    cluster.put("a/file", data);

    EXPECT_TRUE(cluster.exists("a/file"));
    EXPECT_EQ(cluster.fileSize("a/file"), data.size());

    auto src = cluster.open("a/file");
    dwrf::Buffer out;
    src->read(1_MiB - 10, 100, out);
    ASSERT_EQ(out.size(), 100u);
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(out[i], data[1_MiB - 10 + i]);
}

TEST(Tectonic, AppendExtendsFile)
{
    TectonicCluster cluster(smallCluster());
    cluster.create("f");
    cluster.append("f", bytesOf(100));
    cluster.append("f", bytesOf(200));
    EXPECT_EQ(cluster.fileSize("f"), 300u);
    EXPECT_EQ(cluster.logicalBytes(), 300u);
    EXPECT_EQ(cluster.physicalBytes(), 900u); // triplicate
}

TEST(Tectonic, CreateTruncatesExisting)
{
    TectonicCluster cluster(smallCluster());
    cluster.put("f", bytesOf(500));
    cluster.put("f", bytesOf(100));
    EXPECT_EQ(cluster.fileSize("f"), 100u);
    EXPECT_EQ(cluster.logicalBytes(), 100u);
}

TEST(Tectonic, ReadSpanningBlocksFansOutIos)
{
    TectonicCluster cluster(smallCluster());
    cluster.put("f", bytesOf(4u * 1_MiB));
    auto src = cluster.open("f");
    dwrf::Buffer out;
    // Read across 3 blocks: [1MiB-100, 3MiB-100).
    src->read(1_MiB - 100, 2u * 1_MiB, out);
    uint64_t node_ios = 0;
    for (const auto &n : cluster.nodes())
        node_ios += n.ioCount();
    EXPECT_EQ(node_ios, 3u);
    // But the logical trace records one IO.
    EXPECT_EQ(src->trace().count(), 1u);
}

TEST(Tectonic, NodeAccountingAccumulates)
{
    TectonicCluster cluster(smallCluster());
    cluster.put("f", bytesOf(2u * 1_MiB));
    auto src = cluster.open("f");
    dwrf::Buffer out;
    for (int i = 0; i < 50; ++i)
        src->read(0, 4096, out);
    uint64_t ios = 0;
    Bytes served = 0;
    double busy = 0;
    for (const auto &n : cluster.nodes()) {
        ios += n.ioCount();
        served += n.bytesServed();
        busy += n.busySeconds();
    }
    EXPECT_EQ(ios, 50u);
    EXPECT_EQ(served, 50u * 4096u);
    EXPECT_GT(busy, 0.0);
    cluster.resetAccounting();
    for (const auto &n : cluster.nodes())
        EXPECT_EQ(n.ioCount(), 0u);
}

TEST(Tectonic, CacheAbsorbsRepeatedReads)
{
    StorageOptions o = smallCluster();
    o.cache_blocks = 8;
    TectonicCluster cluster(o);
    cluster.put("f", bytesOf(2u * 1_MiB));
    auto src = cluster.open("f");
    dwrf::Buffer out;
    for (int i = 0; i < 20; ++i)
        src->read(0, 4096, out);
    EXPECT_EQ(cluster.cacheMisses(), 1u);
    EXPECT_EQ(cluster.cacheHits(), 19u);
    // HDD nodes only saw the miss.
    uint64_t hdd_ios = 0;
    for (const auto &n : cluster.nodes())
        hdd_ios += n.ioCount();
    EXPECT_EQ(hdd_ios, 1u);
}

TEST(Tectonic, CacheEvictsLru)
{
    StorageOptions o = smallCluster();
    o.cache_blocks = 2;
    TectonicCluster cluster(o);
    cluster.put("f", bytesOf(4u * 1_MiB)); // 4 blocks
    auto src = cluster.open("f");
    dwrf::Buffer out;
    src->read(0, 16, out);            // block 0 -> miss, cached
    src->read(1_MiB, 16, out);        // block 1 -> miss, cached
    src->read(0, 16, out);            // hit (block 0 now MRU)
    src->read(2u * 1_MiB, 16, out);   // miss, evicts block 1
    src->read(1_MiB, 16, out);        // miss again
    EXPECT_EQ(cluster.cacheHits(), 1u);
    EXPECT_EQ(cluster.cacheMisses(), 4u);
}

TEST(Tectonic, ReplicationCappedByNodeCount)
{
    StorageOptions o;
    o.block_size = 1_MiB;
    o.replication = 5;
    o.hdd_nodes = 2;
    TectonicCluster cluster(o);
    cluster.put("f", bytesOf(1_MiB));
    auto src = cluster.open("f");
    dwrf::Buffer out;
    src->read(0, 16, out); // must not crash routing
    SUCCEED();
}

TEST(Tectonic, ReadsSurviveReplicaFailures)
{
    TectonicCluster cluster(smallCluster()); // 4 nodes, 3 replicas
    cluster.put("f", bytesOf(1_MiB));
    cluster.failNode(0);
    cluster.failNode(1);
    EXPECT_EQ(cluster.liveNodes(), 2u);
    auto src = cluster.open("f");
    dwrf::Buffer out;
    for (int i = 0; i < 20; ++i)
        src->read(0, 4096, out); // must route around dead replicas
    // Only live nodes served IO.
    EXPECT_EQ(cluster.nodes()[0].ioCount() +
                  cluster.nodes()[1].ioCount(),
              0u);
    cluster.recoverNode(0);
    EXPECT_EQ(cluster.liveNodes(), 3u);
}

TEST(Tectonic, AllReplicasDownIsFatal)
{
    StorageOptions o;
    o.block_size = 1_MiB;
    o.replication = 2;
    o.hdd_nodes = 2;
    TectonicCluster cluster(o);
    cluster.put("f", bytesOf(1000));
    cluster.failNode(0);
    cluster.failNode(1);
    auto src = cluster.open("f");
    dwrf::Buffer out;
    EXPECT_DEATH(src->read(0, 16, out), "read \\[0, \\+16\\) unavailable");
}

TEST(Tectonic, AllReplicasDownIsRecoverableViaCheckedRead)
{
    // The checked read path reports the loss as a status instead of
    // dying, so callers (the DWRF reader, the Master's checkpoint
    // restore) can retry or fail over.
    StorageOptions o;
    o.block_size = 1_MiB;
    o.replication = 2;
    o.hdd_nodes = 2;
    TectonicCluster cluster(o);
    cluster.put("f", bytesOf(1000));
    cluster.failNode(0);
    cluster.failNode(1);
    auto src = cluster.open("f");
    dwrf::Buffer out;
    EXPECT_EQ(src->readChecked(0, 16, out),
              dwrf::IoStatus::Unavailable);
    EXPECT_TRUE(out.empty());
    EXPECT_GE(cluster.metrics().counter("tectonic.failed_reads"), 1.0);
    // Recovery makes the same read succeed.
    cluster.recoverNode(0);
    EXPECT_EQ(src->readChecked(0, 16, out), dwrf::IoStatus::Ok);
    EXPECT_EQ(out.size(), 16u);
}

TEST(Tectonic, HedgeTriggerFollowsReadLatencyHistogram)
{
    // The hedge trigger is the p99 of every read the cluster has
    // served, from a fixed-size histogram: min_delay_s while cold,
    // then the percentile clamped to [min_delay_s, max_delay_s].
    TectonicCluster cluster(smallCluster());
    cluster.put("f", bytesOf(4096));
    HedgeOptions hedge; // enabled = false: plain reads, still recorded
    hedge.min_samples = 8;
    hedge.min_delay_s = 0.0002;
    hedge.max_delay_s = 0.001;
    cluster.setHedging(hedge);
    EXPECT_EQ(cluster.hedgeDelaySeconds(), hedge.min_delay_s);

    // Every read is held 3 ms by a slow replica.
    constexpr double kHeld = 0.003;
    ScopedFault slow(faults::kTectonicReadDelay,
                     FaultSpec{.latency_seconds = kHeld});
    auto src = cluster.open("f");
    double slowest = 0.0;
    for (uint64_t i = 0; i < hedge.min_samples; ++i) {
        EXPECT_EQ(cluster.hedgeDelaySeconds(), hedge.min_delay_s)
            << "cold after " << i << " reads";
        dwrf::Buffer out;
        auto start = std::chrono::steady_clock::now();
        ASSERT_EQ(src->readChecked(0, 512, out), dwrf::IoStatus::Ok);
        slowest = std::max(
            slowest, std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    }

    // Warm: p99 is at least 3 ms, so a 1 ms cap wins.
    EXPECT_EQ(cluster.hedgeDelaySeconds(), hedge.max_delay_s);

    // Uncapped: the p99 itself, never below the held time and within
    // the histogram's 1/16 bound of the slowest read seen.
    hedge.max_delay_s = 0.05;
    cluster.setHedging(hedge);
    double delay = cluster.hedgeDelaySeconds();
    EXPECT_GE(delay, kHeld);
    EXPECT_LE(delay,
              slowest * (1.0 + 1.0 / LogLinearHistogram::kSubBuckets));
}

TEST(Tectonic, HedgedBackupWinLeavesNoLaggardBehind)
{
    // A primary stalled for 1 s loses to its backup. The read returns
    // with the backup's bytes, and the stall it raced leaves nothing
    // running that tearing the cluster down would have to wait for.
    double teardown_s = 0.0;
    {
        auto cluster = std::make_unique<TectonicCluster>(smallCluster());
        cluster->put("f", bytesOf(4096));
        HedgeOptions hedge;
        hedge.enabled = true;
        hedge.max_delay_s = 0.001;
        cluster->setHedging(hedge);
        auto src = cluster->open("f");
        dwrf::Buffer out;
        {
            ScopedFault slow(faults::kTectonicReadDelay,
                             FaultSpec{.trigger_hit = 1,
                                       .latency_seconds = 1.0});
            auto start = std::chrono::steady_clock::now();
            ASSERT_EQ(src->readChecked(0, 512, out), dwrf::IoStatus::Ok);
            EXPECT_LT(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count(),
                      0.5);
        }
        EXPECT_EQ(out, bytesOf(512));
        EXPECT_EQ(cluster->metrics().counter("tectonic.hedge_wins"), 1.0);
        auto start = std::chrono::steady_clock::now();
        src.reset();
        cluster.reset();
        teardown_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    }
    EXPECT_LT(teardown_s, 0.5);
}

TEST(Tectonic, HedgedReadOutcomes)
{
    // A hedged read whose primary fails issues its backup at once; the
    // backup serves unless it fails too. The trigger sits far above a
    // clean read, so a fast primary never hedges.
    HedgeOptions hedge;
    hedge.enabled = true;
    hedge.min_delay_s = 0.05;
    hedge.max_delay_s = 0.05;
    auto counter = [](const TectonicCluster &c, const char *name) {
        return c.metrics().counter(name);
    };
    auto read = [](const TectonicCluster &c, dwrf::Buffer &out) {
        return c.open("f")->readChecked(0, 512, out);
    };

    {
        // Primary fails on all three replicas; the backup serves.
        TectonicCluster cluster(smallCluster());
        cluster.put("f", bytesOf(4096));
        cluster.setHedging(hedge);
        ScopedFault err(faults::kTectonicReplicaError,
                        FaultSpec{.max_fires = 3});
        dwrf::Buffer out;
        EXPECT_EQ(read(cluster, out), dwrf::IoStatus::Ok);
        EXPECT_EQ(out, bytesOf(512));
        EXPECT_EQ(counter(cluster, "tectonic.hedges_issued"), 1.0);
        EXPECT_EQ(counter(cluster, "tectonic.hedge_wins"), 0.0);
        EXPECT_EQ(counter(cluster, "tectonic.failed_reads"), 1.0);
    }
    {
        // Both attempts fail: the primary's Unavailable stands.
        TectonicCluster cluster(smallCluster());
        cluster.put("f", bytesOf(4096));
        cluster.setHedging(hedge);
        ScopedFault err(faults::kTectonicReplicaError, FaultSpec{});
        dwrf::Buffer out;
        EXPECT_EQ(read(cluster, out), dwrf::IoStatus::Unavailable);
        EXPECT_TRUE(out.empty());
        EXPECT_EQ(counter(cluster, "tectonic.hedges_issued"), 1.0);
        EXPECT_EQ(counter(cluster, "tectonic.failed_reads"), 2.0);
    }
    {
        // A fast primary: no backup.
        TectonicCluster cluster(smallCluster());
        cluster.put("f", bytesOf(4096));
        cluster.setHedging(hedge);
        dwrf::Buffer out;
        EXPECT_EQ(read(cluster, out), dwrf::IoStatus::Ok);
        EXPECT_EQ(counter(cluster, "tectonic.hedges_issued"), 0.0);
    }
}

TEST(Tectonic, DwrfReaderWorksOverTectonic)
{
    // Integration: a DWRF file stored in the cluster decodes through
    // a TectonicSource exactly as from memory.
    TectonicCluster cluster(smallCluster());
    dwrf::FileWriter writer(dwrf::WriterOptions{});
    for (int i = 0; i < 100; ++i) {
        dwrf::Row row;
        row.label = static_cast<float>(i % 2);
        row.dense.push_back({7, static_cast<float>(i)});
        writer.append(row);
    }
    cluster.put("t/f.dwrf", writer.finish());

    auto src = cluster.open("t/f.dwrf");
    dwrf::FileReader reader(*src, dwrf::ReadOptions{});
    ASSERT_TRUE(reader.valid());
    dwrf::RowBatch batch;
    ASSERT_EQ(reader.readStripe(0, batch), dwrf::ReadStatus::Ok);
    EXPECT_EQ(batch.rows, 100u);
    ASSERT_EQ(batch.dense.size(), 1u);
    EXPECT_FLOAT_EQ(batch.dense[0].values[42], 42.0f);
}

TEST(Provisioning, HddGapMatchesPaperScale)
{
    // Section VII: given PB datasets and small IOs, the HDD
    // throughput-to-storage gap exceeds 8x even with 3x replication.
    ProvisioningDemand d;
    d.dataset_bytes = static_cast<Bytes>(11.95e15); // RM1 used PB
    d.replication = 3;
    // Aggregate storage read throughput for a large combo wave.
    d.read_throughput_bps = 3.0e12;
    d.avg_io_bytes = 23200; // Table VI mean IO size
    auto plan = provisionHdd(d);
    EXPECT_GT(plan.gap, 8.0);
    EXPECT_GT(plan.nodes_for_iops, plan.nodes_for_capacity);
    EXPECT_DOUBLE_EQ(plan.nodes_required, plan.nodes_for_iops);
}

TEST(Provisioning, SsdFlipsTheGap)
{
    ProvisioningDemand d;
    d.dataset_bytes = static_cast<Bytes>(11.95e15);
    d.replication = 3;
    d.read_throughput_bps = 0.5e12;
    d.avg_io_bytes = 700000; // post-coalescing IO size
    auto ssd = provisionSsd(d);
    // SSDs are capacity-bound on PB datasets: an unfavorable
    // storage-to-throughput direction (Section VII).
    EXPECT_LT(ssd.gap, 1.0);
    EXPECT_DOUBLE_EQ(ssd.nodes_required, ssd.nodes_for_capacity);
}

TEST(Provisioning, TieringBeatsBothPureOptions)
{
    ProvisioningDemand d;
    d.dataset_bytes = static_cast<Bytes>(11.95e15);
    d.replication = 3;
    d.read_throughput_bps = 0.5e12;
    d.avg_io_bytes = 700000;
    auto hdd = provisionHdd(d);
    auto ssd = provisionSsd(d);
    // Fig. 7: RM1's hottest 39% of bytes serve 80% of traffic.
    auto tiered = provisionTiered(d, 0.80, 0.39);
    EXPECT_LT(tiered.power_watts, hdd.power_watts);
    EXPECT_LT(tiered.power_watts, ssd.power_watts);
}

} // namespace
} // namespace dsi::storage
