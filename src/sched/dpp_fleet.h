/**
 * @file
 * Multi-tenant DPP fleet scheduler (Sections IV-B, VI-C).
 *
 * Production DPP is provisioned at *fleet* scope: hundreds of
 * concurrent training jobs share one pool of preprocessing workers,
 * with release-candidate (RC) jobs prioritized over combo and
 * exploratory ones. FleetScheduler is that control plane in miniature:
 * it multiplexes many concurrent sessions — each with its own Master,
 * exactly-once DeliveryLedger, and transform program — over a single
 * shared, auto-scaled dpp::WorkerPool (the same pool manager an
 * InProcessSession uses), behind the same WorkSource interface a
 * single-session Master implements.
 *
 * Scheduling policy (per acquireSplit call, two passes):
 *
 *  1. **Reserved quota, by class priority.** Tenants with pending work
 *     holding fewer in-flight splits than their `min_quota` are served
 *     first, highest JobClass first — an RC job always reclaims its
 *     reserved share before any best-effort grant.
 *  2. **Weighted fair share.** Among the rest, the tenant minimizing
 *     inflight / weight wins (ties: higher class, then lower id), so
 *     long-run grant counts converge to the weight ratio. Tenants at
 *     their `max_inflight` cap are skipped and counted as shed
 *     (fleet.tenant.<id>.shed).
 *
 * When no tenant has pending work the fleet answers Standby — workers
 * stay alive through arrival gaps — and NoWork only once close() was
 * called and every tenant is done.
 *
 * **Preemption.** When a tenant is starved below its reserved quota
 * and no worker is idle, the fleet picks a worker holding a
 * lower-class tenant's split, beginDrain(release_held=true)s it (the
 * split is handed back at the next stripe boundary with no attempt
 * penalty; buffered tensors still deliver, the ledger dedupes any
 * replay overlap), and launches a replacement worker whose first polls
 * the quota pass routes to the starved tenant.
 *
 * **Who holds what.** The tenant Masters are the only record of which
 * worker holds which split: fleet worker ids pass straight through to
 * them, and preemption and failWorker() read the holders back
 * (Master::holders()).
 *
 * **Fault tolerance.** The pool's heartbeat lease (on the fleet's
 * injectable clock) declares a silent worker holding splits dead, and
 * a crashed worker is recycled; either way the pool calls the fleet's
 * failWorker(), which requeues the worker's splits on every tenant
 * Master where it holds some and Rejects its later requests whatever
 * the tenant (fleet.stale_requests). A replacement joins the pool: a
 * fresh process, but the requeued splits carry each Master's
 * delivered-stripe watermark, so it re-extracts only undelivered
 * tails. Every tick also reaps blown split deadlines on every tenant
 * Master. Exactly-once delivery is preserved per tenant by each
 * tenant's DeliveryLedger.
 *
 * **Whole-fleet recovery.** With FleetOptions::recovery attached,
 * every tenant Master journals durable checkpoints (its state + its
 * ledger) to the storage cluster at `<journal_base>.t<tenant_id>`.
 * After control-plane death, a successor fleet built with
 * `recovery.recover` restores each tenant as it is re-admitted:
 * in-flight splits of the dead incarnation requeue (resuming past
 * delivered stripes), attempts are not double-charged, and replayed
 * batches are suppressed by the restored ledger. Tenants must be
 * re-admitted in their original order (ids — and thus journal names —
 * are assigned sequentially). The storage healer is not the fleet's:
 * it belongs to the cluster (TectonicCluster::startHealer), whose
 * metrics() carry the storage.* counters.
 *
 * **Observability.** Per-tenant counters fleet.tenant.<id>.granted /
 * .shed / .preempted; grant-latency percentiles per tenant; a
 * fleet.tenant span per tenant that every master.grant made on its
 * behalf parents on (so TraceQuery can attribute any worker span to
 * its tenant); fleet.deliver spans per delivered batch; and a
 * fleet.preempted instant per preemption.
 *
 * Thread safety: the WorkSource surface accepts concurrent calls from
 * every worker thread (guarded by one fleet mutex; lock order is
 * always fleet -> master, never the reverse). The pool-management
 * surface (tick, run, addTenant) is single-threaded: exactly one
 * thread, the same one that constructed the fleet.
 */

#ifndef DSI_SCHED_DPP_FLEET_H
#define DSI_SCHED_DPP_FLEET_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "dpp/client.h"
#include "dpp/master.h"
#include "dpp/session.h"
#include "dpp/worker.h"
#include "dpp/worker_pool.h"

namespace dsi::sched {

/** Training-job class, in ascending scheduling priority (Fig. 4). */
enum class JobClass : uint8_t
{
    Explore = 0, ///< exploratory variants; best-effort
    Combo = 1,   ///< combination/refresh runs
    RC = 2,      ///< release candidates; strict priority + quota
};

const char *jobClassName(JobClass c);

/** Per-tenant scheduling parameters. */
struct TenantOptions
{
    std::string name;        ///< label for logs / benches
    JobClass job_class = JobClass::Explore;

    /** Fair-share weight (grants converge to the weight ratio). */
    double weight = 1.0;

    /**
     * In-flight splits reserved for this tenant: while it holds fewer,
     * the priority pass serves it before any fair-share grant (and
     * starvation below it triggers preemption). 0 = no reservation.
     */
    uint32_t min_quota = 0;

    /**
     * Cap on this tenant's concurrent in-flight splits (0 = uncapped).
     * Requests its work would exceed are shed to other tenants and
     * counted as fleet.tenant.<id>.shed.
     */
    uint32_t max_inflight = 0;
};

/** Fleet configuration. */
struct FleetOptions
{
    uint32_t initial_workers = 4;
    dpp::WorkerOptions worker;

    /**
     * Pool heartbeat lease (seconds; 0 disables): a worker holding
     * splits whose beats stop for longer is declared dead, its splits
     * requeue on every tenant it served, and a stateless replacement
     * joins the pool.
     */
    double lease_timeout = 0.0;

    /** Attempts a split gets before its Master marks it failed. */
    uint32_t max_split_attempts = 3;

    /** Admission control applied to every tenant Master (split
     * deadlines are reaped on each tick). */
    dpp::AdmissionOptions admission;

    /** Class-priority preemption of over-share workers (see file doc). */
    bool preemption = true;

    /** Shared-pool auto-scaling (off by default). */
    dpp::AutoScaleOptions autoscale;

    /** Pipeline-wide span tracing for run() (off by default). */
    bool trace = false;

    /**
     * Durable per-tenant checkpointing / whole-fleet crash recovery
     * (off by default; see the file doc). Each tenant journals to
     * `<recovery.journal_base>.t<tenant_id>` on `recovery.cluster`.
     */
    dpp::RecoveryOptions recovery;
};

/** One tenant's aggregate outcome / live accounting. */
struct TenantStats
{
    std::string name;
    JobClass job_class = JobClass::Explore;
    uint64_t granted = 0;   ///< splits granted to workers
    uint64_t shed = 0;      ///< selection rounds skipped at cap
    uint64_t preempted = 0; ///< preemption events against this tenant
    uint64_t tensors_delivered = 0;
    uint64_t rows_delivered = 0;
    uint64_t duplicates_suppressed = 0; ///< ledger-deduped replays
    uint64_t splits_failed = 0;
    double grant_latency_p50 = 0.0; ///< clock seconds pending->grant
    double grant_latency_p99 = 0.0;
    bool done = false;
};

/** Aggregate outcome of a completed fleet run. */
struct FleetResult
{
    uint64_t tensors_delivered = 0;
    uint64_t rows_delivered = 0;
    uint64_t worker_failures = 0; ///< lease-expired / crashed
    uint64_t workers_launched = 0;
    uint64_t workers_drained = 0;
    uint64_t preemptions = 0;
    std::map<TenantId, TenantStats> tenants;
};

/** The shared-pool, multi-session DPP control plane. */
class FleetScheduler : public dpp::WorkSource
{
  public:
    /** Observes every delivered (deduped) tensor, per tenant. */
    using TensorSink =
        std::function<void(TenantId, const dpp::TensorBatch &)>;

    /** All tenants' data must live in `warehouse` (shared, as in
     * production). Launches `initial_workers` immediately. */
    FleetScheduler(const warehouse::Warehouse &warehouse,
                   FleetOptions options = {});
    ~FleetScheduler();

    FleetScheduler(const FleetScheduler &) = delete;
    FleetScheduler &operator=(const FleetScheduler &) = delete;

    /**
     * Admit a session mid-run (a training job arrived): builds its
     * Master over the shared warehouse and makes its splits grantable
     * on the next selection round. Returns the tenant id.
     */
    TenantId addTenant(dpp::SessionSpec spec, TenantOptions opts = {});

    /** No further tenants will arrive: once every admitted tenant is
     * done, workers see NoWork instead of Standby and idle out. */
    void close();

    // --- WorkSource (called concurrently by every worker thread) ---
    WorkerId registerWorker() override;
    dpp::SplitGrant acquireSplit(WorkerId worker,
                                 const dpp::WorkerLoad &load) override;
    void completeSplit(WorkerId worker, TenantId tenant,
                       uint64_t split_id) override;
    void failSplit(WorkerId worker, TenantId tenant,
                   uint64_t split_id) override;
    void releaseSplit(WorkerId worker, TenantId tenant,
                      uint64_t split_id) override;
    void failWorker(WorkerId worker) override;
    const dpp::SessionSpec &tenantSpec(TenantId tenant) const override;
    const dwrf::Buffer &tenantProgram(TenantId tenant) const override;

    // --- driver surface (single-threaded) ---

    /**
     * One cooperative scheduling round: pump every worker (sync mode;
     * in parallel mode the first round starts every worker's
     * pipeline), run housekeeping (split deadlines, the pool's
     * maintenance pass, preemption), and drain delivered tensors
     * through the per-tenant ledgers into `sink`. Returns false once
     * close()d, every tenant is done, and every worker drained.
     * Benches drive tick() directly so they can admit tenants between
     * rounds.
     */
    bool tick(const TensorSink &sink = nullptr);

    /**
     * Drive the fleet to completion (calls close() if the caller has
     * not): loops tick() until nothing remains, stops the pipelines,
     * then reports.
     */
    FleetResult run(TensorSink sink = nullptr);

    /** Injectable clock for leases / latency / autoscale (tests). Set
     * before the first tick; seconds, monotonic. */
    void setClock(std::function<double()> clock);

    bool finished() const;

    dpp::SessionProgress tenantProgress(TenantId tenant) const;
    TenantStats tenantStats(TenantId tenant) const;
    size_t tenantCount() const;

    size_t workerCount() const { return pool_->size(); }

    /** Recent scaling evaluations of the pool's controller (bounded). */
    const std::deque<dpp::ScalingEvent> &scalingLog() const
    {
        return pool_->scalingLog();
    }

    /** Fleet-level registry (fleet.tenant.<id>.granted/shed/preempted,
     * fleet.preemptions, ...). Pool counters live in collectMetrics. */
    const Metrics &metrics() const { return metrics_; }

    /** Fleet + every Master + the pool (retired workers included). */
    Metrics collectMetrics() const;

    /** The trace collected by the last run() (with options.trace). */
    const std::vector<trace::TraceEvent> &traceEvents() const
    {
        return trace_events_;
    }

  private:
    struct TenantState
    {
        TenantId id = 0;
        TenantOptions opts;
        std::unique_ptr<dpp::Master> master;
        dpp::DeliveryLedger ledger; ///< per-tenant exactly-once
        PercentileSampler grant_latency;
        /** clock_() when the tenant last became pending-but-ungranted;
         * < 0 while it has no ungranted demand. */
        double waiting_since = -1.0;
        /** Lazily-opened fleet.tenant span (a0 = tenant id). */
        trace::SpanId span = trace::kNoSpan;
        uint64_t granted = 0;
        uint64_t shed = 0;
        uint64_t preempted = 0;
        uint64_t tensors_delivered = 0;
        uint64_t rows_delivered = 0;
    };

    const TenantState &tenantLocked(TenantId tenant) const;
    using SplitReport = void (dpp::WorkSource::*)(WorkerId, TenantId,
                                                  uint64_t);
    /** Route a worker's split report to its tenant's Master. */
    void reportSplit(SplitReport report, WorkerId worker,
                     TenantId tenant, uint64_t split_id);
    TenantStats tenantStatsLocked(const TenantState &st) const;

    // Housekeeping (driver thread).
    bool maybePreempt();
    uint64_t drainOnce(const TensorSink &sink);

    const warehouse::Warehouse &warehouse_;
    FleetOptions options_;

    mutable std::mutex mutex_; ///< guards all scheduler state below
    std::map<TenantId, std::unique_ptr<TenantState>> tenants_;
    TenantId next_tenant_ = 0;
    WorkerId next_worker_ = 0;
    /** Workers failWorker() declared dead: Rejected on every tenant. */
    std::set<WorkerId> failed_workers_;
    bool closed_ = false;
    uint64_t tensors_delivered_ = 0;
    uint64_t rows_delivered_ = 0;
    uint64_t preemptions_ = 0;
    Metrics metrics_;

    /**
     * The shared pool (ticking thread only: workers reach the fleet
     * exclusively through the WorkSource surface above). Its clock is
     * the fleet's clock; acquireSplit reads it under mutex_.
     */
    std::unique_ptr<dpp::WorkerPool> pool_;
    std::vector<trace::TraceEvent> trace_events_;
};

} // namespace dsi::sched

#endif // DSI_SCHED_DPP_FLEET_H
