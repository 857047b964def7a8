/**
 * @file
 * Self-healing storage plane: MTTR and scrub overhead.
 *
 * Part 1 kills one storage node of a populated cluster and measures
 * mean-time-to-repair — how long the background healer takes to bring
 * the plane back to full replication — across repair-bandwidth
 * budgets, reporting blocks re-replicated, bytes moved, and effective
 * repair rate.
 *
 * Part 2 runs an identical training session with the healer off and
 * then at several scrub budgets, reporting wall time, delivered rows,
 * scrubbed bytes, and the overhead relative to no scrubbing. The
 * acceptance intuition: scrubbing is a background tax that buys rot
 * detection and stays small when its budget is sane relative to the
 * training read rate. Everything is seeded.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "common/table_printer.h"
#include "dpp/session.h"
#include "test_fixtures_bench.h"
#include "transforms/graph.h"
#include "warehouse/datagen.h"

using namespace dsi;

namespace {

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
fmt(double v, const char *pattern = "%.3f")
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), pattern, v);
    return buf;
}

// --- Part 1: MTTR after a permanent node death ---

void
benchMttr()
{
    std::printf("MTTR after one permanent node death "
                "(6 HDD nodes, 3x replication, 32 MiB logical)\n\n");

    struct Budget
    {
        const char *name;
        double repair_bytes_per_sec;
    };
    const Budget budgets[] = {
        {"unthrottled", 0.0},
        {"256 MiB/s", 256.0 * 1024 * 1024},
        {"64 MiB/s", 64.0 * 1024 * 1024},
    };

    TablePrinter table({"repair budget", "MTTR s", "blocks", "MiB",
                        "effective MiB/s"});
    for (const auto &b : budgets) {
        // Fresh cluster per budget: same seed, same placement.
        storage::StorageOptions so;
        so.block_size = 1_MiB;
        so.replication = 3;
        so.hdd_nodes = 6;
        so.seed = 0x4EA1;
        storage::TectonicCluster cluster(so);
        for (int f = 0; f < 8; ++f)
            cluster.put("bench/f" + std::to_string(f),
                        dwrf::Buffer(4_MiB, 0x5a));

        // Kill the node hosting the most replicas (worst case).
        NodeId victim = 0;
        uint64_t hosted = 0;
        for (const auto &n : cluster.nodes()) {
            if (cluster.nodeBlockCount(n.id()) > hosted) {
                hosted = cluster.nodeBlockCount(n.id());
                victim = n.id();
            }
        }

        storage::HealOptions heal;
        heal.repair_bytes_per_sec = b.repair_bytes_per_sec;
        heal.scrub_bytes_per_sec = 0.0; // isolate repair cost
        heal.idle_wait_s = 0.0005;
        cluster.startHealer(heal);

        double t0 = steadySeconds();
        cluster.dieNode(victim);
        while (cluster.underReplicatedBlocks() > 0 ||
               cluster.repairQueueDepth() > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        double mttr = steadySeconds() - t0;
        cluster.stopHealer();

        double bytes =
            cluster.metrics().counter("storage.repair.bytes");
        double blocks =
            cluster.metrics().counter("storage.repair.completed");
        table.addRow({b.name, fmt(mttr), fmt(blocks, "%.0f"),
                      fmt(bytes / (1024.0 * 1024.0), "%.1f"),
                      fmt(bytes / (1024.0 * 1024.0) / mttr, "%.0f")});
    }
    std::printf("%s\n", table.render().c_str());
}

// --- Part 2: scrub overhead on a live training session ---

warehouse::SchemaParams
benchParams()
{
    warehouse::SchemaParams p;
    p.name = "healbench";
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 6;
    p.coverage_u = 0.5;
    p.seed = 61;
    return p;
}

dpp::SessionSpec
makeSpec(const benchfix::MiniWarehouse &mw)
{
    dpp::SessionSpec spec;
    spec.table = mw.name;
    spec.partitions = {0, 1};
    spec.projection = warehouse::chooseProjection(
        mw.schema, mw.popularity, 8, 4, 7);
    transforms::ModelGraphParams gp;
    gp.derived_features = 2;
    spec.setTransforms(
        transforms::makeModelGraph(mw.schema, spec.projection, gp));
    spec.batch_size = 128;
    spec.rows_per_split = 1024;
    return spec;
}

struct ScrubResult
{
    double wall_s = 0;
    uint64_t rows = 0;
    double scrub_bytes = 0;
    double scrub_blocks = 0;
};

ScrubResult
runWithScrub(double scrub_bytes_per_sec, bool healer)
{
    // A fresh warehouse per mode keeps block-cache state independent.
    dwrf::WriterOptions wo;
    wo.rows_per_stripe = 256;
    storage::StorageOptions so;
    so.block_size = 1_MiB;
    so.replication = 3;
    so.hdd_nodes = 6;
    auto mw = benchfix::makeMiniWarehouse(benchParams(), 2, 4096,
                                          2048, wo, so);
    dpp::SessionOptions opts;
    opts.workers = 2;
    dpp::InProcessSession session(*mw.warehouse, makeSpec(mw), opts);

    ScrubResult r;
    double start = steadySeconds();
    if (healer) {
        storage::HealOptions heal;
        heal.scrub_bytes_per_sec = scrub_bytes_per_sec;
        heal.idle_wait_s = 0.001;
        mw.cluster->startHealer(heal);
    }
    auto result = session.run();
    mw.cluster->stopHealer();
    r.wall_s = steadySeconds() - start;
    r.rows = result.rows_delivered;
    const auto &m = mw.cluster->metrics();
    r.scrub_bytes = m.counter("storage.scrub.bytes");
    r.scrub_blocks = m.counter("storage.scrub.blocks");
    return r;
}

void
benchScrubOverhead()
{
    std::printf("\nScrub overhead on a live session "
                "(2 workers, one epoch, healer on for the run)\n\n");

    struct Mode
    {
        const char *name;
        bool healer;
        double budget;
    };
    const Mode modes[] = {
        {"healer off", false, 0.0},
        {"scrub 64 MiB/s", true, 64.0 * 1024 * 1024},
        {"scrub 512 MiB/s", true, 512.0 * 1024 * 1024},
        {"scrub unthrottled", true, 0.0},
    };

    double baseline = 0;
    TablePrinter table({"mode", "wall s", "rows", "scrubbed MiB",
                        "scrub blocks", "overhead %"});
    for (const auto &mode : modes) {
        auto r = runWithScrub(mode.budget, mode.healer);
        if (!mode.healer)
            baseline = r.wall_s;
        double overhead =
            baseline > 0 ? (r.wall_s / baseline - 1.0) * 100 : 0;
        table.addRow(
            {mode.name, fmt(r.wall_s), std::to_string(r.rows),
             fmt(r.scrub_bytes / (1024.0 * 1024.0), "%.1f"),
             fmt(r.scrub_blocks, "%.0f"), fmt(overhead, "%+.1f")});
    }
    std::printf("%s\n", table.render().c_str());
}

} // namespace

int
main()
{
    benchMttr();
    benchScrubOverhead();
    return 0;
}
