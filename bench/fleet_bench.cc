/**
 * @file
 * Fleet-scheduler bench: a seeded multi-tenant arrival process over
 * one shared DPP worker pool (Sections IV-B, VI-C).
 *
 * Training jobs arrive by a Poisson process (exponential
 * inter-arrival gaps) with Zipfian job sizes — a few big refresh jobs
 * and a long tail of small exploratory ones — and mixed scheduling
 * classes (RC / combo / explore). The fleet multiplexes them over a
 * fixed shared pool on a deterministic virtual clock; the bench
 * reports per-tenant grant counts, preemptions, ledger-suppressed
 * replays, and grant-latency percentiles, then the fleet-wide tally.
 *
 * Everything is seeded: two runs print identical tables.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table_printer.h"
#include "sched/dpp_fleet.h"
#include "warehouse/corpus.h"

using namespace dsi;
using sched::FleetScheduler;
using sched::JobClass;

namespace {

warehouse::SchemaParams
benchParams()
{
    warehouse::SchemaParams p;
    p.name = "fleet_bench";
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 6;
    p.coverage_u = 0.5;
    p.seed = 91;
    return p;
}

dpp::SessionSpec
jobSpec(const warehouse::MiniCorpus &mw,
        std::vector<uint32_t> partitions, uint64_t rows_per_split)
{
    dpp::SessionSpec spec;
    spec.table = mw.name;
    spec.partitions = std::move(partitions);
    spec.projection = warehouse::chooseProjection(
        mw.schema, mw.popularity, 8, 4, 7);
    transforms::ModelGraphParams gp;
    gp.derived_features = 2;
    spec.setTransforms(
        transforms::makeModelGraph(mw.schema, spec.projection, gp));
    spec.batch_size = 256;
    spec.rows_per_split = rows_per_split;
    return spec;
}

} // namespace

int
main()
{
    std::printf("=== Fleet scheduler: shared worker pool under a "
                "multi-tenant arrival process ===\n\n");

    dwrf::WriterOptions wo;
    wo.rows_per_stripe = 512;
    storage::StorageOptions so;
    so.block_size = 4_MiB;
    so.hdd_nodes = 4;
    auto mw = warehouse::buildMiniCorpus(benchParams(), 2, 4096, 2048,
                                         wo, so);

    sched::FleetOptions fo;
    fo.initial_workers = 3;
    FleetScheduler fleet(*mw.warehouse, fo);
    double now = 0.0;
    fleet.setClock([&now] { return now; });

    // 10 mixed-class tenants arrive by a Poisson process (mean gap
    // 4ms of virtual time). Job size is Zipfian over 4 shapes: rank 0
    // (most popular) is the small exploratory probe, the rare high
    // ranks are the big full-table refreshes.
    constexpr int kTenants = 10;
    Rng rng(42);
    ZipfSampler size_dist(4, 1.2);
    struct Shape
    {
        std::vector<uint32_t> partitions;
        uint64_t rows_per_split;
        const char *label;
    };
    const Shape shapes[] = {
        {{0}, 512, "small"},
        {{1}, 1024, "medium"},
        {{0, 1}, 1024, "large"},
        {{0, 1}, 2048, "xl"},
    };

    std::vector<TenantId> ids;
    std::vector<const char *> shape_of;
    std::vector<uint64_t> expected_rows;
    std::vector<double> weights;
    double next_arrival = 0.0;
    int arrived = 0;
    uint64_t ticks = 0;
    while (fleet.tick() || arrived < kTenants) {
        now += 0.0005;
        ++ticks;
        while (arrived < kTenants && now >= next_arrival) {
            // Class mix: 1 in 5 RC (reserved quota), 1 in 5 combo
            // at double weight, the rest best-effort explore.
            sched::TenantOptions to;
            uint64_t cls = rng.nextUint(5);
            if (cls == 0) {
                to.job_class = JobClass::RC;
                to.min_quota = 2;
            } else if (cls == 1) {
                to.job_class = JobClass::Combo;
                to.weight = 2.0;
            }
            const Shape &shape = shapes[size_dist.sample(rng)];
            to.name = std::string(sched::jobClassName(to.job_class)) +
                      std::to_string(arrived);
            TenantId id = fleet.addTenant(
                jobSpec(mw, shape.partitions, shape.rows_per_split),
                to);
            ids.push_back(id);
            shape_of.push_back(shape.label);
            weights.push_back(to.weight);
            expected_rows.push_back(4096 *
                                    shape.partitions.size());
            ++arrived;
            next_arrival = now + rng.nextExp(1.0 / 0.002);
            if (arrived == kTenants)
                fleet.close();
        }
    }

    TablePrinter table({"Tenant", "Class", "Size", "Weight", "Rows",
                        "Granted", "Shed", "Preempted", "Dups",
                        "Grant p50 ms", "Grant p99 ms"});
    uint64_t total_rows = 0;
    bool exact = true;
    for (size_t i = 0; i < ids.size(); ++i) {
        auto s = fleet.tenantStats(ids[i]);
        total_rows += s.rows_delivered;
        exact = exact && s.rows_delivered == expected_rows[i] &&
                s.done;
        table.addRow(
            {s.name, sched::jobClassName(s.job_class), shape_of[i],
             TablePrinter::num(weights[i], 1),
             std::to_string(s.rows_delivered),
             std::to_string(s.granted), std::to_string(s.shed),
             std::to_string(s.preempted),
             std::to_string(s.duplicates_suppressed),
             TablePrinter::num(1e3 * s.grant_latency_p50, 3),
             TablePrinter::num(1e3 * s.grant_latency_p99, 3)});
    }
    std::printf("%s\n", table.render().c_str());

    const Metrics m = fleet.collectMetrics();
    std::printf("tenants %d  workers %zu  rows %llu (%s)  "
                "virtual time %.1f ms  ticks %llu\n",
                kTenants, fleet.workerCount(),
                static_cast<unsigned long long>(total_rows),
                exact ? "exactly-once" : "MISMATCH",
                1e3 * now, static_cast<unsigned long long>(ticks));
    std::printf("launched %.0f  replacements %.0f  preemptions %.0f  "
                "lease expirations %.0f\n",
                m.counter("pool.workers_launched"),
                m.counter("pool.worker_replacements"),
                m.counter("fleet.preemptions"),
                m.counter("pool.leases_expired"));
    std::printf("\npaper: fleet-scoped DPP provisioning shares one "
                "auto-scaled worker pool across jobs, prioritizing "
                "RC over combo and exploratory runs (Section IV-B).\n");
    return exact ? 0 : 1;
}
