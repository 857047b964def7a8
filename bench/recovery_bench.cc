/**
 * @file
 * Cost of durable control-plane checkpointing, and time-to-recover.
 *
 * Part 1 drives an identical session under four checkpoint policies —
 * off, terminal-state only, periodic, and strict per-delivery — and
 * reports wall time, journal records written, journal bytes, and the
 * overhead relative to checkpointing off. The acceptance intuition:
 * terminal-state checkpointing is near-free, per-delivery (the strict
 * exactly-once-across-crash setting) pays a visible but bounded tax.
 *
 * Part 2 kills a session mid-epoch (requestHalt) and measures the
 * whole-Master recovery path of the successor: journal scan + restore
 * (construction) and the remaining time to finish the epoch, versus a
 * cold session that redoes everything. Everything is seeded.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "common/table_printer.h"
#include "dpp/session.h"
#include "test_fixtures_bench.h"
#include "transforms/graph.h"
#include "warehouse/datagen.h"

using namespace dsi;

namespace {

warehouse::SchemaParams
benchParams()
{
    warehouse::SchemaParams p;
    p.name = "recbench";
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 6;
    p.coverage_u = 0.5;
    p.seed = 59;
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

benchfix::MiniWarehouse
makeCorpus()
{
    dwrf::WriterOptions wo;
    wo.rows_per_stripe = 256;
    return benchfix::makeMiniWarehouse(benchParams(), 2, 4096, 2048,
                                       wo);
}

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct ModeResult
{
    double wall_s = 0;
    uint64_t batches = 0;
    uint64_t records = 0;
    uint64_t bytes = 0;
};

ModeResult
runMode(bool journal, dpp::CheckpointPolicy policy)
{
    // A fresh warehouse per mode keeps block-cache state independent.
    auto mw = makeCorpus();
    dpp::SessionOptions so;
    so.workers = 2;
    if (journal) {
        so.recovery.cluster = mw.cluster.get();
        so.recovery.journal_base = "bench/journal";
        so.recovery.policy = policy;
    }
    dpp::InProcessSession session(*mw.warehouse, makeSpec(mw), so);

    ModeResult r;
    double start = steadySeconds();
    session.run(
        [&](ClientId, const dpp::TensorBatch &) { ++r.batches; });
    r.wall_s = steadySeconds() - start;

    auto metrics = session.collectMetrics();
    r.records = static_cast<uint64_t>(
        metrics.counter("master.checkpoint.written"));
    r.bytes = static_cast<uint64_t>(
        metrics.counter("master.checkpoint.bytes"));
    return r;
}

std::string
fmt(double v, const char *pattern = "%.3f")
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), pattern, v);
    return buf;
}

void
benchOverhead()
{
    std::printf("Checkpoint overhead by policy "
                "(same epoch, fresh corpus per mode)\n\n");

    dpp::CheckpointPolicy off;            // unused when journal=false
    dpp::CheckpointPolicy terminal;       // defaults: terminal records only
    dpp::CheckpointPolicy periodic;
    periodic.interval_s = 0.005;
    dpp::CheckpointPolicy strict;
    strict.every_n_deliveries = 1;

    struct Mode
    {
        const char *name;
        bool journal;
        dpp::CheckpointPolicy policy;
    };
    const Mode modes[] = {
        {"off", false, off},
        {"terminal", true, terminal},
        {"periodic 5ms", true, periodic},
        {"per-delivery", true, strict},
    };

    double baseline = 0;
    TablePrinter table({"policy", "wall s", "batches", "records",
                        "journal KiB", "overhead %"});
    for (const auto &mode : modes) {
        auto r = runMode(mode.journal, mode.policy);
        if (!mode.journal)
            baseline = r.wall_s;
        double overhead =
            baseline > 0 ? (r.wall_s / baseline - 1.0) * 100 : 0;
        table.addRow({mode.name, fmt(r.wall_s),
                      std::to_string(r.batches),
                      std::to_string(r.records),
                      fmt(static_cast<double>(r.bytes) / 1024.0,
                          "%.1f"),
                      fmt(overhead, "%+.1f")});
    }
    std::printf("%s\n", table.render().c_str());
}

void
benchTimeToRecover()
{
    std::printf("\nTime to recover a dead Master mid-epoch "
                "(strict per-delivery journal)\n\n");

    auto mw = makeCorpus();
    dpp::SessionOptions so;
    so.workers = 2;
    so.recovery.cluster = mw.cluster.get();
    so.recovery.journal_base = "bench/journal";
    so.recovery.policy.every_n_deliveries = 1;

    uint64_t first_batches = 0;
    double first_wall = 0;
    {
        dpp::InProcessSession session(*mw.warehouse, makeSpec(mw),
                                      so);
        double start = steadySeconds();
        session.run([&](ClientId, const dpp::TensorBatch &t) {
            (void)t;
            // Die two thirds of the way through the epoch.
            if (++first_batches == 42)
                session.requestHalt();
        });
        first_wall = steadySeconds() - start;
    }

    so.recovery.recover = true;
    double t0 = steadySeconds();
    dpp::InProcessSession successor(*mw.warehouse, makeSpec(mw), so);
    double recover_s = steadySeconds() - t0; // scan + restore + enum
    uint64_t resumed_batches = 0;
    double t1 = steadySeconds();
    successor.run([&](ClientId, const dpp::TensorBatch &) {
        ++resumed_batches;
    });
    double resume_s = steadySeconds() - t1;

    auto metrics = successor.collectMetrics();
    TablePrinter table({"phase", "wall s", "batches"});
    table.addRow({"first incarnation (halted)", fmt(first_wall),
                  std::to_string(first_batches)});
    table.addRow({"recover (journal scan + restore)",
                  fmt(recover_s), "-"});
    table.addRow({"resumed epoch remainder", fmt(resume_s),
                  std::to_string(resumed_batches)});
    std::printf("%s\n", table.render().c_str());
    std::printf("\nsplits resumed past delivered stripes: %.0f "
                "(worker-side %.0f), checkpoints restored: %.0f\n",
                metrics.counter("master.splits_resumed"),
                metrics.counter("worker.splits_resumed"),
                metrics.counter("master.checkpoint.restored"));
}

} // namespace

int
main()
{
    benchOverhead();
    benchTimeToRecover();
    return 0;
}
