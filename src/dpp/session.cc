#include "session.h"

#include <thread>

#include "common/logging.h"

namespace dsi::dpp {

InProcessSession::InProcessSession(const warehouse::Warehouse &warehouse,
                                   SessionSpec spec,
                                   SessionOptions options)
    : warehouse_(warehouse), options_(options)
{
    dsi_assert(options_.workers >= 1, "session needs >= 1 worker");
    dsi_assert(options_.clients >= 1, "session needs >= 1 client");
    master_ = std::make_unique<Master>(warehouse_, std::move(spec));
    master_->setMaxSplitAttempts(options_.max_split_attempts);
    master_->setAdmission(options_.admission);
    if (options_.recovery.cluster != nullptr) {
        // The ledger snapshot rides in every journal record, so
        // exactly-once delivery survives whole-control-plane death.
        master_->setLedger(&ledger_);
        master_->enableJournal(*options_.recovery.cluster,
                               options_.recovery.journal_base,
                               options_.recovery.policy);
        if (options_.recovery.recover)
            master_->recoverFromJournal();
    }
    pool_ = std::make_unique<WorkerPool>(
        *master_, warehouse_, options_.worker, options_.workers,
        options_.lease_timeout, options_.autoscale);
    syncClients();
}

void
InProcessSession::syncClients()
{
    if (!clients_.empty() && clients_generation_ == pool_->generation())
        return;
    clients_generation_ = pool_->generation();
    for (const auto &c : clients_)
        retired_client_metrics_.merge(c->metrics());
    clients_.clear();
    std::vector<Worker *> workers;
    workers.reserve(pool_->size());
    for (const auto &w : pool_->workers())
        workers.push_back(w.get());
    for (uint32_t c = 0; c < options_.clients; ++c) {
        clients_.push_back(std::make_unique<Client>(
            c, options_.clients, workers, options_.client, &ledger_));
    }
}

uint64_t
InProcessSession::drainClients(SessionResult &result, TensorSink &sink)
{
    uint64_t delivered = 0;
    for (auto &c : clients_) {
        for (;;) {
            auto tensor = c->next();
            if (!tensor)
                break;
            ++delivered;
            ++result.tensors_delivered;
            result.rows_delivered += tensor->data.rows;
            result.tensor_bytes += tensor->bytes;
            // Feed the Master's resume watermark and the
            // per-delivery checkpoint trigger. The claim is already
            // durable in the ledger snapshot of the *next* record.
            if (tensor->last_in_stripe)
                master_->noteStripeDelivered(tensor->split_id,
                                             tensor->stripe);
            master_->noteDelivery();
            if (sink)
                sink(c->id(), *tensor);
        }
    }
    return delivered;
}

SessionResult
InProcessSession::run(TensorSink sink, uint64_t fail_after_splits)
{
    bool tracing = options_.trace.enabled || trace::envEnabled();
    if (tracing) {
        // The log is process-wide; clearing at run start scopes this
        // run's snapshot to its own events (and drops any buffered
        // stragglers from a previous session's pool threads).
        trace::TraceLog::instance().clear();
        trace::TraceLog::instance().enable();
    }
    SessionResult result;
    bool failure_pending = fail_after_splits > 0;
    pool_->start();
    // The calling thread is the control plane and the trainer side:
    // each round mirrors FleetScheduler::tick.
    while (!halt_requested_) {
        // Data plane: every synchronous worker makes one unit of
        // progress (threaded workers run on their own).
        bool progressed = pool_->pump();

        // Fault injection, once, after enough splits completed.
        if (failure_pending &&
            master_->progress().completed_splits >= fail_after_splits) {
            injectWorkerFailure(0);
            failure_pending = false;
            progressed = true;
        }

        // Control plane: requeue splits that blew their deadline,
        // replace dead workers, retire drained ones, and evaluate the
        // scaling policy.
        uint64_t expired = master_->expireDeadlines();
        result.deadline_expirations += expired;
        progressed = expired > 0 || progressed;
        progressed = pool_->maintain(result.tensors_delivered) ||
                     progressed;

        // Trainers: each client drains what is available.
        syncClients();
        progressed = drainClients(result, sink) > 0 || progressed;

        // Periodic checkpoint cadence (no-op unless
        // CheckpointPolicy::interval_s elapsed).
        master_->maybeCheckpoint();

        if (!progressed) {
            if (pool_->drained())
                break;
            if (pool_->parallel())
                std::this_thread::yield();
        }
    }
    // On halt this aborts the pipelines (their buffered tensors die
    // with them, like a real fleet losing its processes); otherwise
    // they already quiesced and stop() just joins their threads.
    pool_->stop();

    if (tracing) {
        trace::TraceLog::instance().disable();
        trace_events_ = trace::TraceLog::instance().snapshot();
    }

    dsi_assert(halt_requested_ || master_->progress().done(),
               "session ended with incomplete splits");
    result.worker_failures = pool_->failures();
    // The ledger is the authoritative session-wide suppression count.
    result.duplicates_suppressed = ledger_.duplicates();
    result.splits_failed = master_->progress().failed_splits;
    result.workers_launched = pool_->launched();
    result.workers_drained = pool_->retired();
    result.read_stats = pool_->readStats();
    result.transform_stats = pool_->transformStats();
    return result;
}

Metrics
InProcessSession::collectMetrics() const
{
    Metrics merged;
    merged.merge(master_->metrics());
    merged.merge(pool_->collectMetrics());
    merged.merge(retired_client_metrics_);
    for (const auto &c : clients_)
        merged.merge(c->metrics());
    return merged;
}

} // namespace dsi::dpp
