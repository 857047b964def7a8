#include "dpp_fleet.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"

namespace dsi::sched {

namespace {

std::string
tenantMetric(TenantId tenant, const char *field)
{
    return "fleet.tenant." + std::to_string(tenant) + "." + field;
}

} // namespace

const char *
jobClassName(JobClass c)
{
    switch (c) {
    case JobClass::Explore:
        return "explore";
    case JobClass::Combo:
        return "combo";
    case JobClass::RC:
        return "rc";
    }
    return "?";
}

FleetScheduler::FleetScheduler(const warehouse::Warehouse &warehouse,
                               FleetOptions options)
    : warehouse_(warehouse), options_(options)
{
    dsi_assert(options_.initial_workers >= 1,
               "fleet needs >= 1 worker");
    // Built last: each worker registers with this fleet on creation.
    pool_ = std::make_unique<dpp::WorkerPool>(
        *this, warehouse_, options_.worker, options_.initial_workers,
        options_.lease_timeout, options_.autoscale);
}

FleetScheduler::~FleetScheduler()
{
    pool_->stop();
}

TenantId
FleetScheduler::addTenant(dpp::SessionSpec spec, TenantOptions opts)
{
    // Split enumeration can touch storage; do it outside the lock so
    // admitting a large tenant never stalls the grant path.
    auto master =
        std::make_unique<dpp::Master>(warehouse_, std::move(spec));
    master->setMaxSplitAttempts(options_.max_split_attempts);
    master->setAdmission(options_.admission);

    std::scoped_lock lock(mutex_);
    dsi_assert(!closed_, "fleet is closed to new tenants");
    auto st = std::make_unique<TenantState>();
    st->id = next_tenant_++;
    st->opts = std::move(opts);
    st->master = std::move(master);
    if (options_.recovery.cluster != nullptr) {
        // Journal names derive from the sequentially-assigned tenant
        // id, so a successor fleet re-admitting tenants in the same
        // order reattaches each one to its predecessor's journal.
        // TenantState is heap-allocated, so the ledger address the
        // Master snapshots through stays stable across map moves.
        st->master->setLedger(&st->ledger);
        st->master->enableJournal(*options_.recovery.cluster,
                                  options_.recovery.journal_base +
                                      ".t" + std::to_string(st->id),
                                  options_.recovery.policy);
        if (options_.recovery.recover)
            st->master->recoverFromJournal();
    }
    TenantId id = st->id;
    tenants_.emplace(id, std::move(st));
    metrics_.inc("fleet.tenants_admitted");
    return id;
}

void
FleetScheduler::close()
{
    std::scoped_lock lock(mutex_);
    closed_ = true;
}

// ---------------------------------------------------------------------
// WorkSource surface (called concurrently by every worker thread).

WorkerId
FleetScheduler::registerWorker()
{
    std::scoped_lock lock(mutex_);
    return next_worker_++;
}

dpp::SplitGrant
FleetScheduler::acquireSplit(WorkerId worker,
                             const dpp::WorkerLoad &load)
{
    std::scoped_lock lock(mutex_);
    if (failed_workers_.count(worker)) {
        // A zombie: its splits were requeued on every tenant Master,
        // and whichever tenant it would reach next must not feed it.
        metrics_.inc("fleet.stale_requests");
        trace::instant(trace::events::kRejected, trace::kNoSpan, worker);
        dpp::SplitGrant g;
        g.status = dpp::GrantStatus::Rejected;
        return g;
    }
    double now = pool_->now();

    struct Cand
    {
        TenantState *st;
        uint64_t inflight;
    };
    std::vector<Cand> ready;
    bool all_done = true;
    for (auto &[id, st] : tenants_) {
        auto p = st->master->progress();
        if (!p.done())
            all_done = false;
        if (p.pending_splits == 0)
            continue;
        // Pending-but-ungranted demand starts the latency clock.
        if (st->waiting_since < 0)
            st->waiting_since = now;
        if (st->opts.max_inflight > 0 &&
            p.inflight_splits >= st->opts.max_inflight) {
            ++st->shed;
            metrics_.inc(tenantMetric(st->id, "shed"));
            continue;
        }
        ready.push_back({st.get(), p.inflight_splits});
    }
    if (ready.empty()) {
        // Standby keeps the pool alive through arrival gaps; NoWork
        // (workers idle out) only once the fleet is closed and every
        // tenant reached a terminal state.
        dpp::SplitGrant g;
        g.status = (closed_ && all_done) ? dpp::GrantStatus::NoWork
                                         : dpp::GrantStatus::Standby;
        return g;
    }

    auto share = [](const Cand &c) {
        double w = c.st->opts.weight > 0 ? c.st->opts.weight : 1e-9;
        return static_cast<double>(c.inflight) / w;
    };
    auto better = [&](const Cand &a, const Cand &b) {
        double sa = share(a), sb = share(b);
        if (sa != sb)
            return sa < sb;
        if (a.st->opts.job_class != b.st->opts.job_class)
            return a.st->opts.job_class > b.st->opts.job_class;
        return a.st->id < b.st->id;
    };

    // Pass 1: reserved quota, highest class first — an RC tenant
    // under its reservation is served before any best-effort grant.
    const Cand *pick = nullptr;
    for (const auto &c : ready) {
        if (c.st->opts.min_quota == 0 ||
            c.inflight >= c.st->opts.min_quota)
            continue;
        if (!pick || c.st->opts.job_class > pick->st->opts.job_class ||
            (c.st->opts.job_class == pick->st->opts.job_class &&
             better(c, *pick)))
            pick = &c;
    }
    // Pass 2: weighted fair share (min inflight / weight).
    if (!pick) {
        for (const auto &c : ready)
            if (!pick || better(c, *pick))
                pick = &c;
    }

    TenantState &st = *pick->st;
    // Every master.grant made on this tenant's behalf parents on its
    // fleet.tenant span (opened lazily on first grant), labeling the
    // split's whole lineage with the tenant.
    if (trace::on() && st.span == trace::kNoSpan)
        st.span = trace::beginSpan(trace::spans::kFleetTenant,
                                   trace::kNoSpan, st.id);
    trace::ScopedParent tenant_parent(st.span);
    dpp::SplitGrant g = st.master->acquireSplit(worker, load);
    if (g.status != dpp::GrantStatus::Granted) {
        // Overloaded (this worker is over the tenant's admission
        // caps) passes through so the worker backs off; anything else
        // becomes Standby — other tenants may still feed it later.
        if (g.status != dpp::GrantStatus::Overloaded)
            g.status = dpp::GrantStatus::Standby;
        return g;
    }
    g.tenant = st.id;
    ++st.granted;
    metrics_.inc(tenantMetric(st.id, "granted"));
    if (st.waiting_since >= 0) {
        st.grant_latency.add(now - st.waiting_since);
        st.waiting_since = -1.0; // re-armed on the next ungranted poll
    }
    return g;
}

void
FleetScheduler::reportSplit(SplitReport report, WorkerId worker,
                            TenantId tenant, uint64_t split_id)
{
    std::scoped_lock lock(mutex_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        return;
    TenantState &st = *it->second;
    (st.master.get()->*report)(worker, tenant, split_id);
    // The tenant's lifetime span closes with its last split.
    if (st.span != trace::kNoSpan && st.master->progress().done()) {
        trace::endSpan(st.span, trace::spans::kFleetTenant);
        st.span = trace::kNoSpan;
    }
}

void
FleetScheduler::completeSplit(WorkerId worker, TenantId tenant,
                              uint64_t split_id)
{
    reportSplit(&dpp::WorkSource::completeSplit, worker, tenant,
                split_id);
}

void
FleetScheduler::failSplit(WorkerId worker, TenantId tenant,
                          uint64_t split_id)
{
    reportSplit(&dpp::WorkSource::failSplit, worker, tenant, split_id);
}

void
FleetScheduler::releaseSplit(WorkerId worker, TenantId tenant,
                             uint64_t split_id)
{
    reportSplit(&dpp::WorkSource::releaseSplit, worker, tenant,
                split_id);
}

void
FleetScheduler::failWorker(WorkerId worker)
{
    std::scoped_lock lock(mutex_);
    failed_workers_.insert(worker);
    // Requeue everything the dead worker held, on each tenant Master
    // where it holds splits.
    for (auto &[id, st] : tenants_) {
        auto held = st->master->holders();
        if (std::find(held.begin(), held.end(), worker) != held.end())
            st->master->failWorker(worker);
    }
}

const FleetScheduler::TenantState &
FleetScheduler::tenantLocked(TenantId tenant) const
{
    auto it = tenants_.find(tenant);
    dsi_assert(it != tenants_.end(), "unknown tenant %u", tenant);
    return *it->second;
}

const dpp::SessionSpec &
FleetScheduler::tenantSpec(TenantId tenant) const
{
    std::scoped_lock lock(mutex_);
    return tenantLocked(tenant).master->spec();
}

const dwrf::Buffer &
FleetScheduler::tenantProgram(TenantId tenant) const
{
    std::scoped_lock lock(mutex_);
    return tenantLocked(tenant).master->transformProgram();
}

// ---------------------------------------------------------------------
// Housekeeping (the ticking thread only).

bool
FleetScheduler::maybePreempt()
{
    if (!options_.preemption)
        return false;
    dpp::Worker *victim = nullptr;
    TenantId victim_tenant = 0;
    {
        std::scoped_lock lock(mutex_);
        // Most important tenant starved below its reservation.
        TenantState *starved = nullptr;
        for (auto &[id, st] : tenants_) {
            if (st->opts.min_quota == 0)
                continue;
            auto p = st->master->progress();
            if (p.pending_splits == 0 ||
                p.inflight_splits >= st->opts.min_quota)
                continue;
            if (!starved ||
                st->opts.job_class > starved->opts.job_class)
                starved = st.get();
        }
        if (!starved)
            return false;

        // Who holds which tenant's splits, from the tenant Masters.
        std::vector<std::pair<TenantState *, std::vector<WorkerId>>> held;
        std::set<WorkerId> busy;
        for (auto &[id, st] : tenants_) {
            held.emplace_back(st.get(), st->master->holders());
            busy.insert(held.back().second.begin(),
                        held.back().second.end());
        }
        // Idle capacity present: the starved tenant's reservation will
        // be honored by a natural grant; preempting would only thrash.
        for (const auto &w : pool_->workers())
            if (!w->crashed() && !w->draining() && !busy.count(w->id()))
                return false;

        // Victim: a live worker holding a strictly-lower-class
        // tenant's split; the lowest class pays first.
        JobClass victim_class = starved->opts.job_class;
        for (const auto &[vt, workers] : held) {
            for (WorkerId wid : workers) {
                if (vt->opts.job_class >= victim_class)
                    break;
                for (const auto &w : pool_->workers()) {
                    if (w->id() != wid)
                        continue;
                    if (!w->draining() && !w->crashed()) {
                        victim = w.get();
                        victim_tenant = vt->id;
                        victim_class = vt->opts.job_class;
                    }
                    break;
                }
            }
        }
        if (!victim)
            return false;
        ++tenants_.at(victim_tenant)->preempted;
        metrics_.inc(tenantMetric(victim_tenant, "preempted"));
        metrics_.inc("fleet.preemptions");
        ++preemptions_;
    }
    // Graceful handback: the victim releases its splits at the next
    // stripe boundary (no attempt penalty; buffered tensors still
    // deliver and the tenant ledger dedupes replay overlap), then
    // retires. The replacement's first polls land on the starved
    // tenant via the quota pass.
    victim->beginDrain(/*release_held=*/true);
    trace::instant(trace::events::kFleetPreempt, trace::kNoSpan,
                   victim_tenant, victim->id());
    pool_->launch();
    return true;
}

uint64_t
FleetScheduler::drainOnce(const TensorSink &sink)
{
    uint64_t delivered = 0;
    for (const auto &w : pool_->workers()) {
        // popTensor routes completion back through the fleet (it
        // locks mutex_ internally) — never hold the lock across it.
        while (auto t = w->popTensor()) {
            bool fresh;
            {
                std::scoped_lock lock(mutex_);
                auto it = tenants_.find(t->tenant);
                if (it == tenants_.end())
                    continue;
                TenantState &st = *it->second;
                fresh = st.ledger.claim(t->split_id, t->first_row);
                if (fresh) {
                    ++st.tensors_delivered;
                    st.rows_delivered += t->data.rows;
                    ++tensors_delivered_;
                    rows_delivered_ += t->data.rows;
                    // Feed the tenant Master's delivered-stripe
                    // watermark and checkpoint cadence (fleet ->
                    // master lock order, legal under mutex_).
                    if (t->last_in_stripe)
                        st.master->noteStripeDelivered(t->split_id,
                                                       t->stripe);
                    st.master->noteDelivery();
                }
            }
            if (!fresh) {
                // Replay overlap (preemption / crash recovery): the
                // tenant's ledger already accepted this batch.
                trace::instant(trace::events::kDuplicateSuppressed,
                               t->trace, t->split_id);
                continue;
            }
            trace::Span span(trace::spans::kFleetDeliver, t->trace,
                             t->tenant, t->split_id);
            if (sink)
                sink(t->tenant, *t);
            ++delivered;
        }
    }
    return delivered;
}

// ---------------------------------------------------------------------
// Driving.

void
FleetScheduler::setClock(std::function<double()> clock)
{
    std::scoped_lock lock(mutex_);
    pool_->setClock(std::move(clock));
}

bool
FleetScheduler::finished() const
{
    {
        std::scoped_lock lock(mutex_);
        if (!closed_)
            return false;
        for (const auto &[id, st] : tenants_)
            if (!st->master->progress().done())
                return false;
    }
    return pool_->drained();
}

bool
FleetScheduler::tick(const TensorSink &sink)
{
    pool_->start(); // parallel mode: once; then a no-op
    pool_->pump();
    uint64_t delivered;
    {
        // Split budgets apply to every tenant: requeue blown ones.
        std::scoped_lock lock(mutex_);
        for (auto &[id, st] : tenants_)
            st->master->expireDeadlines();
        delivered = tensors_delivered_;
    }
    pool_->maintain(delivered);
    maybePreempt();
    drainOnce(sink);
    if (options_.recovery.cluster != nullptr) {
        // Periodic checkpoint cadence, one tenant journal at a time
        // (no-op unless CheckpointPolicy::interval_s elapsed).
        std::scoped_lock lock(mutex_);
        for (auto &[id, st] : tenants_)
            st->master->maybeCheckpoint();
    }
    return !finished();
}

FleetResult
FleetScheduler::run(TensorSink sink)
{
    close();
    bool tracing = options_.trace || trace::envEnabled();
    if (tracing) {
        trace::TraceLog::instance().clear();
        trace::TraceLog::instance().enable();
    }
    while (!finished()) {
        tick(sink);
        if (pool_->parallel())
            std::this_thread::yield();
    }
    pool_->stop();

    FleetResult r;
    {
        std::scoped_lock lock(mutex_);
        for (auto &[id, st] : tenants_) {
            // Tenants that ended in failure never closed their span.
            if (st->span != trace::kNoSpan) {
                trace::endSpan(st->span, trace::spans::kFleetTenant);
                st->span = trace::kNoSpan;
            }
            r.tenants[id] = tenantStatsLocked(*st);
        }
        r.tensors_delivered = tensors_delivered_;
        r.rows_delivered = rows_delivered_;
        r.worker_failures = pool_->failures();
        r.workers_launched = pool_->launched();
        r.workers_drained = pool_->retired();
        r.preemptions = preemptions_;
    }
    if (tracing) {
        trace::TraceLog::instance().disable();
        trace_events_ = trace::TraceLog::instance().snapshot();
    }
    return r;
}

// ---------------------------------------------------------------------
// Introspection.

TenantStats
FleetScheduler::tenantStatsLocked(const TenantState &st) const
{
    TenantStats s;
    s.name = st.opts.name;
    s.job_class = st.opts.job_class;
    s.granted = st.granted;
    s.shed = st.shed;
    s.preempted = st.preempted;
    s.tensors_delivered = st.tensors_delivered;
    s.rows_delivered = st.rows_delivered;
    s.duplicates_suppressed = st.ledger.duplicates();
    auto p = st.master->progress();
    s.splits_failed = p.failed_splits;
    s.done = p.done();
    if (st.grant_latency.count() > 0) {
        s.grant_latency_p50 = st.grant_latency.percentile(50);
        s.grant_latency_p99 = st.grant_latency.percentile(99);
    }
    return s;
}

dpp::SessionProgress
FleetScheduler::tenantProgress(TenantId tenant) const
{
    std::scoped_lock lock(mutex_);
    return tenantLocked(tenant).master->progress();
}

TenantStats
FleetScheduler::tenantStats(TenantId tenant) const
{
    std::scoped_lock lock(mutex_);
    return tenantStatsLocked(tenantLocked(tenant));
}

size_t
FleetScheduler::tenantCount() const
{
    std::scoped_lock lock(mutex_);
    return tenants_.size();
}

Metrics
FleetScheduler::collectMetrics() const
{
    Metrics merged;
    merged.merge(metrics_);
    merged.merge(pool_->collectMetrics());
    {
        std::scoped_lock lock(mutex_);
        for (const auto &[id, st] : tenants_)
            merged.merge(st->master->metrics());
    }
    return merged;
}

} // namespace dsi::sched
