/**
 * @file
 * FleetScheduler suite: many tenant sessions over one shared pool.
 *
 * Covers the fleet contract end to end: weighted fair-share grant
 * counts, reserved-quota priority for RC tenants (grant-latency SLO
 * under an explore flood), class-priority preemption with graceful
 * handback, exactly-once delivery per tenant under injected worker
 * crashes and blown split deadlines, failed workers rejected on every
 * tenant, per-worker program caches that stay bounded as tenants come
 * and go, tenant-labeled trace lineage, metrics-doc drift, and
 * shared-pool auto-scaling (replayed through a fresh policy).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/metrics_export.h"
#include "common/trace_query.h"
#include "sched/dpp_fleet.h"
#include "test_fixtures.h"

namespace dsi::sched {
namespace {

warehouse::SchemaParams
fleetParams()
{
    warehouse::SchemaParams p;
    p.name = "fleet";
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 6;
    p.coverage_u = 0.5;
    p.seed = 47;
    return p;
}

/** One session spec over the shared table; split size is the knob the
 * scenarios tune (512-row stripes => rows_per_split/512 stripes). */
dpp::SessionSpec
tenantSpec(const testing::MiniWarehouse &mw,
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

/** Per-tenant delivery log keyed by replay-stable batch identity. */
struct TenantLog
{
    std::map<TenantId, std::map<std::pair<uint64_t, RowId>, uint64_t>>
        count;
    std::map<TenantId, uint64_t> rows;

    FleetScheduler::TensorSink sink()
    {
        return [this](TenantId tenant, const dpp::TensorBatch &t) {
            ++count[tenant][{t.split_id, t.first_row}];
            rows[tenant] += t.data.rows;
        };
    }

    /** The tenant saw every batch key exactly once, totals exact. */
    void expectExactlyOnce(TenantId tenant,
                           uint64_t expected_rows) const
    {
        auto it = count.find(tenant);
        ASSERT_NE(it, count.end()) << "tenant " << tenant
                                   << " received nothing";
        for (const auto &[key, n] : it->second) {
            EXPECT_EQ(n, 1u)
                << "tenant " << tenant << " batch (split " << key.first
                << ", row " << key.second << ") delivered " << n
                << " times";
        }
        auto rit = rows.find(tenant);
        ASSERT_NE(rit, rows.end());
        EXPECT_EQ(rit->second, expected_rows)
            << "tenant " << tenant << " row total";
    }
};

class FleetTest : public ::testing::Test
{
  protected:
    /** 2 partitions x 4096 rows in 2048-row files of 512-row stripes:
     * 16 stripes per {0,1} tenant, 8 per single-partition tenant. */
    static constexpr uint64_t kRowsBoth = 2 * 4096;
    static constexpr uint64_t kRowsOne = 4096;

    static dwrf::WriterOptions
    stripeOptions()
    {
        dwrf::WriterOptions wo;
        wo.rows_per_stripe = 512;
        return wo;
    }

    FleetTest()
        : mw_(testing::makeMiniWarehouse(fleetParams(), 2, 4096, 2048,
                                         stripeOptions()))
    {
        FaultInjector::instance().reset();
        FaultInjector::instance().seed(0xF1EE7ULL);
    }

    ~FleetTest() override { FaultInjector::instance().reset(); }

    testing::MiniWarehouse mw_;
};

// ---------------------------------------------------------------------
// Fairness.

TEST_F(FleetTest, EqualWeightTenantsShareGrantsFairly)
{
    FleetOptions fo;
    fo.initial_workers = 4;
    FleetScheduler fleet(*mw_.warehouse, fo);

    std::vector<TenantId> ids;
    for (int i = 0; i < 4; ++i) {
        TenantOptions to;
        to.name = "eq" + std::to_string(i);
        ids.push_back(
            fleet.addTenant(tenantSpec(mw_, {0, 1}, 512), to));
    }

    // Sample fairness mid-run (at completion everyone trivially holds
    // all of their own splits): tick until ~
    // 24 of the 64 one-stripe splits have been granted.
    TenantLog log;
    uint64_t total = 0;
    for (int guard = 0; total < 24 && guard < 200; ++guard) {
        fleet.tick(log.sink());
        total = 0;
        for (TenantId id : ids)
            total += fleet.tenantStats(id).granted;
    }
    ASSERT_GE(total, 24u);
    double mean = static_cast<double>(total) / 4.0;
    for (TenantId id : ids) {
        auto s = fleet.tenantStats(id);
        EXPECT_NEAR(static_cast<double>(s.granted), mean,
                    mean * 0.10 + 1.0)
            << "tenant " << s.name << " granted " << s.granted
            << " of " << total;
        EXPECT_EQ(s.shed, 0u);
    }

    fleet.close();
    while (fleet.tick(log.sink())) {
    }
    for (TenantId id : ids) {
        log.expectExactlyOnce(id, kRowsBoth);
        EXPECT_TRUE(fleet.tenantStats(id).done);
    }
}

TEST_F(FleetTest, WeightedFairShareConvergesToWeightRatio)
{
    FleetOptions fo;
    fo.initial_workers = 8;
    FleetScheduler fleet(*mw_.warehouse, fo);

    TenantOptions heavy;
    heavy.name = "heavy";
    heavy.weight = 3.0;
    TenantOptions light;
    light.name = "light";
    light.weight = 1.0;
    TenantId h = fleet.addTenant(tenantSpec(mw_, {0, 1}, 512), heavy);
    TenantId l = fleet.addTenant(tenantSpec(mw_, {0, 1}, 512), light);

    TenantLog log;
    uint64_t total = 0;
    for (int guard = 0; total < 8 && guard < 100; ++guard) {
        fleet.tick(log.sink());
        total = fleet.tenantStats(h).granted +
                fleet.tenantStats(l).granted;
    }
    ASSERT_GE(total, 8u);
    double share = static_cast<double>(fleet.tenantStats(h).granted) /
                   static_cast<double>(total);
    // 3:1 weights => the heavy tenant holds ~75% of in-flight grants.
    EXPECT_NEAR(share, 0.75, 0.10);

    fleet.close();
    while (fleet.tick(log.sink())) {
    }
    log.expectExactlyOnce(h, kRowsBoth);
    log.expectExactlyOnce(l, kRowsBoth);
}

// ---------------------------------------------------------------------
// RC grant-latency SLO.

/** Drive a closed fleet on a fake millisecond clock and report the RC
 * tenant's p99 grant latency (seconds of pending-but-ungranted time
 * before each grant). */
double
rcGrantP99(const testing::MiniWarehouse &mw, int explore_tenants)
{
    FleetOptions fo;
    fo.initial_workers = 4;
    fo.preemption = false; // isolate the reserved-quota pass
    FleetScheduler fleet(*mw.warehouse, fo);
    double now = 0.0;
    fleet.setClock([&now] { return now; });

    TenantOptions rc;
    rc.name = "rc";
    rc.job_class = JobClass::RC;
    rc.min_quota = 2;
    TenantId rcid = fleet.addTenant(tenantSpec(mw, {0}, 512), rc);
    for (int i = 0; i < explore_tenants; ++i) {
        TenantOptions ex;
        ex.name = "explore" + std::to_string(i);
        ex.job_class = JobClass::Explore;
        fleet.addTenant(
            tenantSpec(mw, {i % 2 == 0 ? 0u : 1u}, 512), ex);
    }

    fleet.close();
    while (fleet.tick())
        now += 0.001;
    EXPECT_EQ(fleet.tenantStats(rcid).rows_delivered, 4096u);
    return fleet.tenantStats(rcid).grant_latency_p99;
}

TEST_F(FleetTest, RcGrantLatencySloHoldsUnderExploreFlood)
{
    // Tripling best-effort demand (2 -> 6 explore tenants) must not
    // degrade the RC tenant's p99 grant latency by more than 20%: its
    // reserved quota is served ahead of every fair-share grant. The
    // additive 2ms slack absorbs tick quantization when the baseline
    // p99 is at or near zero.
    double base = rcGrantP99(mw_, 2);
    double flood = rcGrantP99(mw_, 6);
    EXPECT_LE(flood, base * 1.20 + 0.002)
        << "RC p99 " << base << "s -> " << flood
        << "s when explore demand tripled";
}

// ---------------------------------------------------------------------
// Preemption.

TEST_F(FleetTest, RcStarvationPreemptsLowerClassWorker)
{
    FleetOptions fo;
    fo.initial_workers = 2;
    FleetScheduler fleet(*mw_.warehouse, fo);

    TenantLog log;
    TenantOptions ex;
    ex.name = "explore";
    // 4-stripe splits keep both workers busy across several ticks.
    TenantId e = fleet.addTenant(tenantSpec(mw_, {0, 1}, 2048), ex);
    fleet.tick(log.sink());
    EXPECT_EQ(fleet.tenantStats(e).granted, 2u);

    // An RC job arrives with a reservation while the whole pool is
    // held by explore splits: the fleet drains one victim (graceful
    // handback) and launches a replacement for the RC work.
    TenantOptions rc;
    rc.name = "rc";
    rc.job_class = JobClass::RC;
    rc.min_quota = 1;
    TenantId r = fleet.addTenant(tenantSpec(mw_, {0}, 2048), rc);
    fleet.tick(log.sink());

    EXPECT_EQ(fleet.workerCount(), 3u);
    EXPECT_GE(fleet.tenantStats(e).preempted, 1u);
    EXPECT_GE(fleet.metrics().counter("fleet.preemptions"), 1.0);

    fleet.close();
    while (fleet.tick(log.sink())) {
    }
    EXPECT_GE(fleet.tenantStats(r).granted, 1u);
    // The handed-back split replays on another worker; the tenant
    // ledger absorbs the overlap — totals stay exact.
    log.expectExactlyOnce(e, kRowsBoth);
    log.expectExactlyOnce(r, kRowsOne);
    auto merged = fleet.collectMetrics();
    EXPECT_GE(merged.counter("worker.splits_preempted"), 1.0);
    EXPECT_GE(merged.counter("pool.workers_launched"), 3.0);
}

// ---------------------------------------------------------------------
// Fault tolerance (parallel workers; the suite's TSan target).

TEST_F(FleetTest, WorkerCrashPreservesExactlyOncePerTenant)
{
    FleetOptions fo;
    fo.initial_workers = 2;
    fo.lease_timeout = 0.05;
    fo.worker.num_extract_threads = 2;
    fo.worker.num_transform_threads = 2;
    FleetScheduler fleet(*mw_.warehouse, fo);

    TenantOptions rc;
    rc.name = "rc";
    rc.job_class = JobClass::RC;
    rc.min_quota = 1;
    TenantOptions combo;
    combo.name = "combo";
    combo.job_class = JobClass::Combo;
    TenantOptions ex0;
    ex0.name = "explore0";
    TenantOptions ex1;
    ex1.name = "explore1";
    TenantId t0 = fleet.addTenant(tenantSpec(mw_, {0, 1}, 1024), rc);
    TenantId t1 = fleet.addTenant(tenantSpec(mw_, {0}, 1024), combo);
    TenantId t2 = fleet.addTenant(tenantSpec(mw_, {1}, 1024), ex0);
    TenantId t3 = fleet.addTenant(tenantSpec(mw_, {0, 1}, 1024), ex1);

    // The 6th crash-point hit (checked per stripe, split in hand)
    // kills one worker mid-split. Its fleet lease expires, every
    // tenant Master it served requeues its splits, and a stateless
    // replacement joins the pool.
    ScopedFault crash(faults::kWorkerCrash,
                      FaultSpec{.trigger_hit = 6});
    TenantLog log;
    auto result = fleet.run(log.sink());

    EXPECT_GE(result.worker_failures, 1u);
    log.expectExactlyOnce(t0, kRowsBoth);
    log.expectExactlyOnce(t1, kRowsOne);
    log.expectExactlyOnce(t2, kRowsOne);
    log.expectExactlyOnce(t3, kRowsBoth);
    EXPECT_EQ(result.rows_delivered,
              2 * kRowsBoth + 2 * kRowsOne);
    for (TenantId id : {t0, t1, t2, t3}) {
        auto s = fleet.tenantStats(id);
        EXPECT_TRUE(s.done) << s.name;
        EXPECT_EQ(s.splits_failed, 0u) << s.name;
    }
    auto merged = fleet.collectMetrics();
    EXPECT_GE(merged.counter("pool.leases_expired"), 1.0);
    EXPECT_GE(merged.counter("pool.worker_replacements"), 1.0);
}

TEST_F(FleetTest, FailedWorkerStaysRejectedOnEveryTenant)
{
    // The WorkSource contract holds under a fleet: once failWorker
    // declares a worker dead, every request it makes is Rejected,
    // whichever tenant it would reach — tenants admitted after the
    // failure included.
    FleetOptions fo;
    fo.initial_workers = 1; // never ticked: the test drives by hand
    FleetScheduler fleet(*mw_.warehouse, fo);
    TenantId t0 = fleet.addTenant(tenantSpec(mw_, {0}, 1024));
    WorkerId zombie = fleet.registerWorker();
    WorkerId live = fleet.registerWorker();

    auto held = fleet.acquireSplit(zombie, {});
    ASSERT_EQ(held.status, dpp::GrantStatus::Granted);
    EXPECT_EQ(held.tenant, t0);
    fleet.failWorker(zombie);
    EXPECT_EQ(fleet.tenantProgress(t0).inflight_splits, 0u);
    EXPECT_EQ(fleet.acquireSplit(zombie, {}).status,
              dpp::GrantStatus::Rejected);

    TenantId t1 = fleet.addTenant(tenantSpec(mw_, {1}, 1024));
    while (fleet.tenantProgress(t0).pending_splits > 0) {
        auto g = fleet.acquireSplit(live, {});
        ASSERT_EQ(g.status, dpp::GrantStatus::Granted);
        fleet.completeSplit(live, g.tenant, g.split->id);
    }
    EXPECT_TRUE(fleet.tenantProgress(t0).done());
    EXPECT_GT(fleet.tenantProgress(t1).pending_splits, 0u);
    EXPECT_EQ(fleet.acquireSplit(zombie, {}).status,
              dpp::GrantStatus::Rejected);
    // The zombie's late report of its old split is stale, not fatal.
    fleet.completeSplit(zombie, t0, held.split->id);
    auto merged = fleet.collectMetrics();
    EXPECT_EQ(merged.counter("fleet.stale_requests"), 2.0);
    EXPECT_EQ(merged.counter("master.stale_completions"), 1.0);
}

TEST_F(FleetTest, TicksReapBlownSplitDeadlinesOnEveryTenant)
{
    // Admission applies to every tenant Master, deadline reaping
    // included: the first two storage reads stall past the split
    // budget, and the fleet's ticks requeue those splits at their
    // Masters while the stalled workers are still inside the read.
    FleetOptions fo;
    fo.initial_workers = 2;
    fo.admission.split_deadline_s = 0.2;
    fo.worker.num_extract_threads = 1;
    fo.worker.num_transform_threads = 1;
    FleetScheduler fleet(*mw_.warehouse, fo);
    TenantOptions a;
    a.name = "a";
    TenantOptions b;
    b.name = "b";
    TenantId t0 = fleet.addTenant(tenantSpec(mw_, {0}, 1024), a);
    TenantId t1 = fleet.addTenant(tenantSpec(mw_, {1}, 1024), b);

    ScopedFault slow(faults::kTectonicReadDelay,
                     FaultSpec{.max_fires = 2, .latency_seconds = 0.6});
    TenantLog log;
    fleet.run(log.sink());

    log.expectExactlyOnce(t0, kRowsOne);
    log.expectExactlyOnce(t1, kRowsOne);
    EXPECT_GE(fleet.collectMetrics().counter("master.deadline_expired"),
              1.0);
    for (TenantId id : {t0, t1})
        EXPECT_EQ(fleet.tenantStats(id).splits_failed, 0u);
}

// ---------------------------------------------------------------------
// Resident-service memory.

TEST_F(FleetTest, WorkersReleaseProgramsOfFinishedTenants)
{
    // A resident fleet serves tenant after tenant. A worker keeps a
    // tenant's compiled transform program only while it tracks one of
    // that tenant's splits, and tenants here run one at a time, so no
    // worker may ever hold more than one program — however many
    // tenants have passed through it, and however many transform
    // threads share it.
    constexpr int kTenants = 16;
    for (auto [extract, transform] :
         {std::pair{0u, 0u}, std::pair{1u, 1u}, std::pair{1u, 2u}}) {
        SCOPED_TRACE(::testing::Message()
                     << extract << "+" << transform << " threads");
        FleetOptions fo;
        fo.initial_workers = 2;
        fo.worker.num_extract_threads = extract;
        fo.worker.num_transform_threads = transform;
        FleetScheduler fleet(*mw_.warehouse, fo);
        TenantLog log;
        double peak = 0.0;
        for (int k = 0; k < kTenants; ++k) {
            TenantOptions opts;
            opts.name = "t" + std::to_string(k);
            TenantId t = fleet.addTenant(
                tenantSpec(mw_, {static_cast<uint32_t>(k % 2)}, 1024),
                opts);
            auto admitted = std::chrono::steady_clock::now();
            while (!fleet.tenantStats(t).done) {
                std::chrono::duration<double> waited =
                    std::chrono::steady_clock::now() - admitted;
                ASSERT_LT(waited.count(), 60.0)
                    << "tenant " << k << " never finished";
                fleet.tick(log.sink());
                double cached = fleet.collectMetrics().gauge(
                    "worker.cached_programs");
                ASSERT_LE(cached, 1.0) << "tenant " << k;
                peak = std::max(peak, cached);
                std::this_thread::yield();
            }
            log.expectExactlyOnce(t, kRowsOne);
        }
        fleet.close();
        while (fleet.tick(log.sink()))
            std::this_thread::yield();
        EXPECT_EQ(peak, 1.0) << "worker.cached_programs never published";
    }
}

// ---------------------------------------------------------------------
// Tenant-labeled tracing.

TEST_F(FleetTest, SpansAttributeWorkAndDeliveryToTenants)
{
    FleetOptions fo;
    fo.initial_workers = 2;
    fo.trace = true;
    FleetScheduler fleet(*mw_.warehouse, fo);

    TenantOptions rc;
    rc.name = "rc";
    rc.job_class = JobClass::RC;
    TenantOptions ex;
    ex.name = "explore";
    TenantId t0 = fleet.addTenant(tenantSpec(mw_, {0}, 1024), rc);
    TenantId t1 = fleet.addTenant(tenantSpec(mw_, {1}, 1024), ex);

    TenantLog log;
    fleet.run(log.sink());
    log.expectExactlyOnce(t0, kRowsOne);
    log.expectExactlyOnce(t1, kRowsOne);

    trace::TraceQuery q(fleet.traceEvents());
    // One lifetime span per tenant, each carrying its tenant id.
    auto tenant_spans = q.byName(trace::spans::kFleetTenant);
    ASSERT_EQ(tenant_spans.size(), fleet.tenantCount());
    std::set<uint64_t> labeled;
    for (const auto *ts : tenant_spans)
        labeled.insert(ts->a0);
    EXPECT_EQ(labeled, (std::set<uint64_t>{t0, t1}));

    // Every grant the fleet made is attributable to its tenant…
    auto grants = q.byName(trace::spans::kMasterGrant);
    ASSERT_GT(grants.size(), 0u);
    for (const auto *g : grants)
        EXPECT_NE(q.ancestor(*g, trace::spans::kFleetTenant), nullptr)
            << "master.grant span without a fleet.tenant ancestor";

    // …and every delivered batch's lineage agrees with its label.
    auto delivers = q.byName(trace::spans::kFleetDeliver);
    ASSERT_GT(delivers.size(), 0u);
    for (const auto *d : delivers) {
        const auto *owner =
            q.ancestor(*d, trace::spans::kFleetTenant);
        ASSERT_NE(owner, nullptr);
        EXPECT_EQ(d->a0, owner->a0)
            << "fleet.deliver labeled tenant " << d->a0
            << " under tenant span " << owner->a0;
    }
}

// ---------------------------------------------------------------------
// Metrics-doc drift.

/** All `component.noun` names backticked in docs/METRICS.md tables
 * (same parse as trace_export_test's documentedMetricNames). */
std::set<std::string>
documentedMetricNames()
{
    std::ifstream in(std::string(DSI_SOURCE_DIR) + "/docs/METRICS.md");
    std::set<std::string> names;
    std::string line;
    while (std::getline(in, line)) {
        size_t pos = 0;
        while ((pos = line.find('`', pos)) != std::string::npos) {
            size_t end = line.find('`', pos + 1);
            if (end == std::string::npos)
                break;
            std::string token = line.substr(pos + 1, end - pos - 1);
            if (token.find('.') != std::string::npos &&
                token.find(' ') == std::string::npos &&
                token.find('(') == std::string::npos &&
                token.find('/') == std::string::npos) {
                names.insert(token);
            }
            pos = end + 1;
        }
    }
    return names;
}

/** Fold the per-tenant id out of fleet.tenant.<N>.* names so they
 * match the documented `fleet.tenant.<id>.*` placeholders. */
std::string
canonicalMetricName(const std::string &name)
{
    const std::string prefix = "fleet.tenant.";
    if (name.rfind(prefix, 0) == 0) {
        size_t dot = name.find('.', prefix.size());
        if (dot != std::string::npos)
            return prefix + "<id>" + name.substr(dot);
    }
    return name;
}

TEST_F(FleetTest, EveryFleetMetricIsDocumented)
{
    auto documented = documentedMetricNames();
    ASSERT_GT(documented.size(), 20u)
        << "docs/METRICS.md parse came up nearly empty — did the "
           "table format change?";

    // Exercise the fleet paths that emit metrics: grants, shed at a
    // max_inflight cap, preemption, replacement-free completion.
    FleetOptions fo;
    fo.initial_workers = 2;
    FleetScheduler fleet(*mw_.warehouse, fo);
    TenantLog log;
    TenantOptions ex;
    ex.name = "explore";
    ex.max_inflight = 1; // force shed rounds
    TenantId e = fleet.addTenant(tenantSpec(mw_, {0, 1}, 2048), ex);
    fleet.tick(log.sink());
    TenantOptions rc;
    rc.name = "rc";
    rc.job_class = JobClass::RC;
    rc.min_quota = 1;
    fleet.addTenant(tenantSpec(mw_, {0}, 2048), rc);
    fleet.close();
    while (fleet.tick(log.sink())) {
    }
    EXPECT_GE(fleet.tenantStats(e).shed, 1u);
    // A failed worker's request (fleet.stale_requests).
    WorkerId zombie = fleet.registerWorker();
    fleet.failWorker(zombie);
    EXPECT_EQ(fleet.acquireSplit(zombie, {}).status,
              dpp::GrantStatus::Rejected);

    std::string dump =
        MetricsExporter::prometheusText(fleet.collectMetrics());
    for (const auto &name : MetricsExporter::namesInDump(dump)) {
        EXPECT_TRUE(documented.count(canonicalMetricName(name)))
            << "metric '" << name
            << "' is emitted but missing from docs/METRICS.md";
    }
}

// ---------------------------------------------------------------------
// Shared-pool auto-scaling.

TEST_F(FleetTest, StarvedPoolAutoscalesUpToCap)
{
    FleetOptions fo;
    fo.initial_workers = 1;
    fo.autoscale.enabled = true;
    fo.autoscale.interval_s = 0.01;
    fo.autoscale.scaler.min_workers = 1;
    fo.autoscale.scaler.max_workers = 4;
    FleetScheduler fleet(*mw_.warehouse, fo);
    double now = 0.0;
    fleet.setClock([&now] { return now; });

    TenantOptions ex;
    ex.name = "explore";
    TenantId e = fleet.addTenant(tenantSpec(mw_, {0, 1}, 512), ex);

    // Every round drains the single worker dry — the controller sees
    // a starving pool and grows it (capped at 4).
    TenantLog log;
    size_t peak = fleet.workerCount();
    for (int i = 0; i < 20; ++i) {
        now += 0.02;
        fleet.tick(log.sink());
        peak = std::max(peak, fleet.workerCount());
    }
    EXPECT_GE(peak, 2u);
    EXPECT_LE(fleet.workerCount(), 4u);
    EXPECT_GE(fleet.collectMetrics().counter("pool.workers_launched"),
              2.0);

    fleet.close();
    while (fleet.tick(log.sink())) {
        now += 0.02;
    }
    log.expectExactlyOnce(e, kRowsBoth);

    // Anti-drift, as for sessions (dpp_overload_test): the exact
    // WorkerReport stream the pool saw, replayed through a fresh
    // AutoScaler, yields identical decisions.
    ASSERT_FALSE(fleet.scalingLog().empty());
    dpp::AutoScaler replay(fo.autoscale.scaler);
    for (const auto &ev : fleet.scalingLog()) {
        auto d = replay.evaluate(ev.reports, ev.demand_rate,
                                 ev.supply_rate);
        EXPECT_EQ(d.target_workers, ev.decision.target_workers);
        EXPECT_EQ(d.delta, ev.decision.delta);
        EXPECT_EQ(d.starving, ev.decision.starving);
    }
}

} // namespace
} // namespace dsi::sched
