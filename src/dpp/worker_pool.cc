#include "worker_pool.h"

#include "common/logging.h"

namespace dsi::dpp {

WorkerPool::WorkerPool(WorkSource &source,
                       const warehouse::Warehouse &warehouse,
                       WorkerOptions worker, uint32_t initial_workers,
                       double lease_timeout, AutoScaleOptions autoscale)
    : source_(source), warehouse_(warehouse), worker_(worker),
      lease_timeout_(lease_timeout), autoscale_(autoscale),
      clock_(trace::nowSeconds)
{
    if (autoscale_.enabled)
        scaler_ = std::make_unique<AutoScaler>(autoscale_.scaler);
    last_eval_ = clock_();
    for (uint32_t i = 0; i < initial_workers; ++i) {
        workers_.push_back(makeWorker());
        metrics_.inc("pool.workers_launched");
    }
}

WorkerPool::~WorkerPool()
{
    stop();
}

std::unique_ptr<Worker>
WorkerPool::makeWorker()
{
    // Worker construction registers with the source (which takes its
    // own lock) — never call this while holding a source lock.
    auto w = std::make_unique<Worker>(source_, warehouse_, worker_);
    leases_[w->id()] = Lease{w->beats(), clock_()};
    if (started_)
        w->start();
    return w;
}

void
WorkerPool::start()
{
    if (!parallel() || started_)
        return;
    started_ = true;
    for (auto &w : workers_)
        w->start();
}

void
WorkerPool::stop()
{
    started_ = false;
    for (auto &w : workers_)
        w->stop();
}

bool
WorkerPool::pump()
{
    if (parallel())
        return false;
    bool progressed = false;
    for (auto &w : workers_)
        progressed = w->pump() || progressed;
    return progressed;
}

void
WorkerPool::launch(uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i) {
        workers_.push_back(makeWorker());
        ++launched_;
        metrics_.inc("pool.workers_launched");
    }
    ++generation_;
}

void
WorkerPool::fold(const Worker &w)
{
    retired_metrics_.merge(w.metrics());
    retired_read_stats_.merge(w.readStats());
    retired_transform_stats_.merge(w.transformStats());
    leases_.erase(w.id());
}

void
WorkerPool::fail(size_t i)
{
    dsi_assert(i < workers_.size(), "no worker at index %zu", i);
    Worker &victim = *workers_[i];
    // Stop the victim's threads first so none of them calls into the
    // control plane after it is declared dead. (Idempotent — a
    // crashed worker's threads already quiesced.)
    victim.stop();
    source_.failWorker(victim.id());
    fold(victim);
    ++failures_;
    metrics_.inc("pool.worker_replacements");
    // The replacement is a fresh process, but the requeued splits are
    // not re-extracted from scratch: each Master re-grants them with
    // resume_stripe past its delivered-stripe watermark.
    workers_[i] = makeWorker();
    ++generation_;
}

bool
WorkerPool::dead(const Worker &w, double now)
{
    if (lease_timeout_ <= 0)
        return w.crashed(); // nothing else would ever fail its splits
    Lease &lease = leases_[w.id()];
    uint64_t beats = w.beats();
    if (beats != lease.beats) {
        lease.beats = beats;
        lease.moved_at = now;
    }
    // Only a worker holding splits can lose its lease: an idle one has
    // nothing to recover, and drained workers legitimately go quiet.
    bool holds = w.holdsSplits();
    if (holds && now - lease.moved_at > lease_timeout_) {
        dsi_warn("worker %u lease expired; failing its splits", w.id());
        metrics_.inc("pool.leases_expired");
        return true;
    }
    // A crashed worker still holding splits waits for its lease, so
    // lease expiry stays the one detector while leases are on.
    return w.crashed() && !holds;
}

bool
WorkerPool::maintain(uint64_t delivered)
{
    bool changed = false;
    double now = clock_();
    for (size_t i = 0; i < workers_.size();) {
        Worker &w = *workers_[i];
        if (dead(w, now)) {
            fail(i);
            changed = true;
        } else if (w.draining() && w.drained() && workers_.size() > 1) {
            fold(w);
            w.stop();
            workers_.erase(workers_.begin() + static_cast<ptrdiff_t>(i));
            ++retired_;
            ++generation_;
            changed = true;
            continue;
        }
        ++i;
    }
    autoscale(delivered);
    return changed;
}

void
WorkerPool::autoscale(uint64_t delivered)
{
    if (!scaler_)
        return;
    double now = clock_();
    double dt = now - last_eval_;
    if (dt < autoscale_.interval_s)
        return;
    last_eval_ = now;

    ScalingEvent ev;
    // Retired workers' output stays in the total, so supply never
    // runs backwards when the pool shrinks or a worker is replaced.
    double supplied = retired_metrics_.counter("worker.tensors");
    for (auto &w : workers_) {
        supplied += w->metrics().counter("worker.tensors");
        // Draining victims are leaving the pool; they are not part of
        // the capacity the controller reasons about.
        if (!w->draining() && !w->crashed())
            ev.reports.push_back(w->report());
    }
    ev.demand_rate = (static_cast<double>(delivered) -
                      static_cast<double>(last_delivered_)) /
                     dt;
    ev.supply_rate = (supplied - last_supplied_) / dt;
    last_delivered_ = delivered;
    last_supplied_ = supplied;
    ev.decision =
        scaler_->evaluate(ev.reports, ev.demand_rate, ev.supply_rate);

    if (ev.decision.delta > 0) {
        // Launch: stateless workers join the split pool immediately.
        launch(static_cast<uint32_t>(ev.decision.delta));
    } else if (ev.decision.delta < 0) {
        // Graceful drain: victims stop acquiring splits, finish and
        // deliver everything held, and retire once drained. Nothing
        // is abandoned.
        int64_t to_drain = -ev.decision.delta;
        for (auto it = workers_.rbegin();
             it != workers_.rend() && to_drain > 0; ++it) {
            if ((*it)->draining() || (*it)->crashed())
                continue;
            (*it)->beginDrain();
            --to_drain;
        }
    }
    scaling_log_.push_back(std::move(ev));
    if (scaling_log_.size() > kScalingLogCap)
        scaling_log_.pop_front();
}

bool
WorkerPool::drained() const
{
    for (const auto &w : workers_)
        if (!w->drained())
            return false;
    return true;
}

void
WorkerPool::setClock(std::function<double()> clock)
{
    clock_ = std::move(clock);
    last_eval_ = clock_();
    for (auto &[id, lease] : leases_)
        lease.moved_at = last_eval_;
}

Metrics
WorkerPool::collectMetrics() const
{
    Metrics merged;
    merged.merge(metrics_);
    merged.merge(retired_metrics_);
    for (const auto &w : workers_)
        merged.merge(w->metrics());
    return merged;
}

dwrf::ReadStats
WorkerPool::readStats() const
{
    dwrf::ReadStats total = retired_read_stats_;
    for (const auto &w : workers_)
        total.merge(w->readStats());
    return total;
}

transforms::TransformStats
WorkerPool::transformStats() const
{
    transforms::TransformStats total = retired_transform_stats_;
    for (const auto &w : workers_)
        total.merge(w->transformStats());
    return total;
}

} // namespace dsi::dpp
