/**
 * @file
 * Section VII co-design ablation: feature flattening, coalesced
 * reads, popularity-ordered stream placement + bigger stripes, and
 * in-memory flatmaps — cumulative, as deployed.
 *
 * Functional study over a real RM1-statistics (3% scale) table in
 * Tectonic. For each configuration it measures extraction wall time,
 * storage IOs/bytes, and HDD device-seconds, then derives:
 *   - DPP throughput    = rows / extract wall time,
 *   - storage throughput = needed bytes / HDD busy-seconds,
 *   - DSI power factor   = provisioned power per unit throughput,
 * normalized to the un-flattened baseline. Paper: 2.94x DPP, 2.41x
 * storage, 2.59x power reduction.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "common/table_printer.h"
#include "dwrf/reader.h"
#include "dwrf/writer.h"
#include "storage/tectonic.h"
#include "warehouse/datagen.h"
#include "warehouse/model_zoo.h"

using namespace dsi;
using namespace dsi::warehouse;

namespace {

struct Config
{
    const char *name;
    bool flatten;
    bool coalesce;
    bool reorder;       ///< popularity-ordered streams
    uint32_t rows_per_stripe;
    bool row_pivot;     ///< decode via row materialization (no flatmap)
};

struct Outcome
{
    double rows_per_sec = 0;     ///< decode throughput (wall clock)
    double storage_rows_ps = 0;  ///< rows served per HDD-busy-second
    double ios = 0;
    double read_mb = 0;
    double file_mb = 0; ///< stored size (flattening overhead)
};

Outcome
runConfig(const Config &cfg, const TableSchema &schema,
          const std::vector<double> &pop,
          const std::vector<dwrf::Row> &rows,
          const std::vector<FeatureId> &projection)
{
    storage::StorageOptions so;
    so.hdd_nodes = 4;
    storage::TectonicCluster cluster(so);

    dwrf::WriterOptions wo;
    wo.flatten = cfg.flatten;
    wo.rows_per_stripe = cfg.rows_per_stripe;
    if (cfg.reorder) {
        // Popular features first: order by popularity weight.
        std::vector<size_t> order(schema.features.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) { return pop[a] > pop[b]; });
        for (size_t i : order)
            wo.popularity_order.push_back(schema.features[i].id);
    }
    dwrf::FileWriter writer(wo);
    writer.appendRows(rows);
    {
        auto bytes = writer.finish();
        cluster.put("t/f.dwrf", bytes);
    }

    auto src = cluster.open("t/f.dwrf");
    dwrf::ReadOptions ro;
    ro.projection = projection;
    ro.coalesce = cfg.coalesce;
    dwrf::FileReader reader(*src, ro);
    src->clearTrace();
    cluster.resetAccounting();

    auto t0 = std::chrono::steady_clock::now();
    uint64_t decoded_rows = 0;
    for (size_t s = 0; s < reader.stripeCount(); ++s) {
        dwrf::RowBatch batch;
        if (reader.readStripe(s, batch) != dwrf::ReadStatus::Ok) {
            std::fprintf(stderr, "ablation_codesign: stripe %zu "
                                 "read failed\n", s);
            std::exit(1);
        }
        if (cfg.row_pivot) {
            // The pre-flatmap path: pivot to rows and back, paying
            // the format-conversion memory traffic.
            auto pivoted = dwrf::batchFromRows(batch.toRows());
            decoded_rows += pivoted.rows;
        } else {
            decoded_rows += batch.rows;
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();

    double busy = 0;
    for (const auto &n : cluster.nodes())
        busy += n.busySeconds();

    Outcome out;
    out.rows_per_sec = decoded_rows / secs;
    // Storage efficiency: training rows served per device-busy
    // second. Reading fewer (and larger) byte ranges for the same
    // rows means more jobs per disk (the paper's storage-throughput
    // gain).
    out.storage_rows_ps =
        static_cast<double>(decoded_rows) / std::max(1e-9, busy);
    out.ios = static_cast<double>(reader.stats().ios);
    out.read_mb = reader.stats().bytes_read / 1e6;
    out.file_mb = cluster.fileSize("t/f.dwrf") / 1e6;
    return out;
}

} // namespace

int
main()
{
    std::printf("=== Section VII ablation: co-designed optimizations "
                "===\n");
    auto rm = rm1();
    auto schema = makeSchema(rm.scaledSchemaParams(0.03));
    auto pop = featurePopularity(schema, rm.popularity_alpha, 5);
    RowGenerator gen(schema, 21);
    auto rows = gen.batch(6144);
    auto projection = chooseProjection(
        schema, pop, static_cast<uint32_t>(rm.dense_used * 0.03),
        static_cast<uint32_t>(rm.sparse_used * 0.03), 9);

    const Config configs[] = {
        {"map-blob baseline", false, false, false, 2048, true},
        {"+flatten", true, false, false, 2048, true},
        {"+coalesce", true, true, false, 2048, true},
        {"+reorder+stripes", true, true, true, 6144, true},
        {"+flatmap (full)", true, true, true, 6144, false},
    };

    Outcome base;
    TablePrinter table({"Config", "DPP xput", "Storage xput", "IOs",
                        "MB read", "MB stored", "DSI power"});
    for (const auto &cfg : configs) {
        auto out = runConfig(cfg, schema, pop, rows, projection);
        if (std::string(cfg.name) == "map-blob baseline")
            base = out;
        double dpp_speedup = out.rows_per_sec / base.rows_per_sec;
        double storage_speedup =
            out.storage_rows_ps / base.storage_rows_ps;
        // Power per unit throughput, weighted by provisioned DPP vs
        // storage power (~60/40 in the Fig. 1 deployments).
        double power = 0.6 / dpp_speedup + 0.4 / storage_speedup;
        char dpps[32], sts[32], pws[32];
        std::snprintf(dpps, sizeof(dpps), "%.2fx", dpp_speedup);
        std::snprintf(sts, sizeof(sts), "%.2fx", storage_speedup);
        std::snprintf(pws, sizeof(pws), "%.2fx less", 1.0 / power);
        table.addRow({cfg.name, dpps, sts,
                      TablePrinter::num(out.ios, 0),
                      TablePrinter::num(out.read_mb, 1),
                      TablePrinter::num(out.file_mb, 1), pws});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\npaper: flattening + coalescing + write-path "
                "reordering + flatmaps gave 2.94x DPP and 2.41x "
                "storage throughput, a 2.59x DSI power reduction; "
                "flattening cost ~12%% extra storage capacity.\n");
    return 0;
}
