/**
 * @file
 * Table VI: distribution of IO sizes issued against storage by an
 * RM1 training job's feature reads.
 *
 * Functional reproduction at 3% feature scale: an RM1-statistics
 * table is written through the real DWRF writer into Tectonic, read
 * back with an 11%-of-features projection and NO coalescing, and the
 * per-stream IO trace is reported. The long-tailed, kilobyte-scale
 * distribution (tiny p5, ~1 KB median, ~100 KB p95) is the paper's
 * HDD-IOPS problem; the coalesced plan is shown for contrast.
 */

#include <cstdio>
#include <cstdlib>

#include "common/table_printer.h"
#include "dwrf/reader.h"
#include "dwrf/writer.h"
#include "storage/tectonic.h"
#include "warehouse/datagen.h"
#include "warehouse/model_zoo.h"

using namespace dsi;
using namespace dsi::warehouse;

int
main()
{
    std::printf("=== Table VI: feature-read IO sizes (RM1 job) ===\n");
    auto rm = rm1();
    auto schema = makeSchema(rm.scaledSchemaParams(0.03));
    auto pop = featurePopularity(schema, rm.popularity_alpha, 5);

    storage::StorageOptions so;
    so.hdd_nodes = 4;
    storage::TectonicCluster cluster(so);

    RowGenerator gen(schema, 21);
    dwrf::WriterOptions wo;
    wo.rows_per_stripe = 2048;
    dwrf::FileWriter writer(wo);
    writer.appendRows(gen.batch(4096));
    cluster.put("rm1/f0.dwrf", writer.finish());

    auto projection = chooseProjection(
        schema, pop, static_cast<uint32_t>(rm.dense_used * 0.03),
        static_cast<uint32_t>(rm.sparse_used * 0.03), 9);

    auto run = [&](bool coalesce) {
        auto src = cluster.open("rm1/f0.dwrf");
        dwrf::ReadOptions ro;
        ro.projection = projection;
        ro.coalesce = coalesce;
        dwrf::FileReader reader(*src, ro);
        src->clearTrace(); // drop footer IOs
        dwrf::RowBatch batch;
        for (size_t s = 0; s < reader.stripeCount(); ++s) {
            if (reader.readStripe(s, batch) != dwrf::ReadStatus::Ok) {
                std::fprintf(stderr,
                             "tab06_io_sizes: stripe %zu read failed\n",
                             s);
                std::exit(1);
            }
        }
        return src->trace().sizeDistribution();
    };

    auto separate = run(false);
    auto coalesced = run(true);

    TablePrinter table({"", "Mean", "Std", "p5", "p25", "p50", "p75",
                        "p95", "# IOs"});
    auto row = [&](const char *name, const PercentileSampler &p) {
        table.addRow({name, formatBytes(p.mean()),
                      formatBytes(p.stddev()),
                      formatBytes(p.percentile(5)),
                      formatBytes(p.percentile(25)),
                      formatBytes(p.percentile(50)),
                      formatBytes(p.percentile(75)),
                      formatBytes(p.percentile(95)),
                      std::to_string(p.count())});
    };
    row("per-stream", separate);
    row("coalesced", coalesced);
    table.addRow({"paper", "23.2K", "117K", "18", "451", "1.24K",
                  "3.92K", "97.7K", "-"});
    std::printf("%s", table.render().c_str());
    std::printf("\ntakeaway: heavy feature filtering over columnar "
                "files makes storage IOs small and seek-bound on "
                "HDDs; coalescing (1.25 MiB gap) trades over-read for "
                "far fewer, larger IOs.\n");
    return 0;
}
