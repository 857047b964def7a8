/**
 * @file
 * In-process DPP session orchestrator.
 *
 * Wires a Master, a WorkerPool, and per-trainer Clients into one
 * runnable pipeline over the warehouse — the functional counterpart
 * of a production DPP deployment, used by examples, tests, and the
 * functional benches. The pool is the health monitor (Section
 * III-B1): a worker that crashes or whose heartbeat lease expires is
 * failed at the Master (its in-flight splits requeue) and replaced by
 * a stateless worker; injectWorkerFailure() does the same on demand.
 *
 * Durability and healing are not the session's: the Master persists
 * through its checkpoint journal (SessionOptions::recovery), and the
 * storage healer belongs to the cluster — a caller that wants it
 * during training wraps run() in TectonicCluster::startHealer() /
 * stopHealer() and reads storage.* from the cluster's metrics().
 *
 * run() is one loop, the same shape as sched::FleetScheduler::tick:
 * pump the pool (synchronous workers only), fail a worker if asked,
 * reap blown split deadlines, run the pool's maintenance pass, and
 * drain the clients. Execution follows the Workers' mode
 * (WorkerOptions in SessionOptions::worker):
 *
 *  - Synchronous (default): each round pumps every worker once —
 *    deterministic, no threads.
 *  - Parallel (`num_extract_threads`/`num_transform_threads` > 0):
 *    run() starts every Worker's pipeline threads and the calling
 *    thread becomes the trainer side, draining Clients until all
 *    Workers quiesce.
 */

#ifndef DSI_DPP_SESSION_H
#define DSI_DPP_SESSION_H

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dpp/client.h"
#include "dpp/master.h"
#include "dpp/worker.h"
#include "dpp/worker_pool.h"

namespace dsi::dpp {

/**
 * Session tracing knobs. Tracing also turns on when the DSI_TRACE
 * environment variable is set (any value but "0").
 */
struct TraceOptions
{
    bool enabled = false;
};

/** Session-level configuration. */
struct SessionOptions
{
    uint32_t workers = 4;
    uint32_t clients = 1;
    WorkerOptions worker;
    ClientOptions client;

    /** Pipeline-wide span tracing for this run (off by default). */
    TraceOptions trace;

    /**
     * Heartbeat lease timeout (seconds). > 0 enables the pool's lease:
     * a silent worker holding in-flight splits is declared dead, its
     * splits requeue, and a stateless replacement starts. With 0 only
     * crashes (replaced on the next pass) and injectWorkerFailure are
     * detected.
     */
    double lease_timeout = 0.0;

    /** Attempts a split gets before the Master marks it failed. */
    uint32_t max_split_attempts = 3;

    /** Overload protection (shedding, per-split deadlines). */
    AdmissionOptions admission;

    /** Live auto-scaling (off by default). */
    AutoScaleOptions autoscale;

    /** Durable checkpointing / crash recovery (off by default). */
    RecoveryOptions recovery;
};

/** Aggregate outcome of a completed session. */
struct SessionResult
{
    uint64_t tensors_delivered = 0;
    uint64_t rows_delivered = 0;
    Bytes tensor_bytes = 0;
    uint64_t worker_failures = 0; ///< injected + lease-expired
    uint64_t duplicates_suppressed = 0; ///< replayed batches dropped
    uint64_t splits_failed = 0; ///< splits that exhausted attempts
    uint64_t deadline_expirations = 0; ///< splits requeued on budget
    uint64_t workers_launched = 0; ///< added by live auto-scaling
    uint64_t workers_drained = 0;  ///< retired by live auto-scaling
    dwrf::ReadStats read_stats;
    transforms::TransformStats transform_stats;
};

/** A runnable, fault-injectable DPP session. */
class InProcessSession
{
  public:
    /** Called for every tensor a client receives. */
    using TensorSink =
        std::function<void(ClientId, const TensorBatch &)>;

    InProcessSession(const warehouse::Warehouse &warehouse,
                     SessionSpec spec, SessionOptions options = {});

    Master &master() { return *master_; }

    /** The session-wide exactly-once ledger (tests inspect it). */
    DeliveryLedger &ledger() { return ledger_; }

    /**
     * Simulate whole-control-plane death: the next run() loop
     * iteration stops pumping/draining and returns without completing
     * the session (in-flight splits stay incomplete; buffered tensors
     * are lost exactly as a real crash loses them). A successor
     * session built with RecoveryOptions::recover picks the stream
     * back up from the journal. Safe from the sink callback.
     */
    void requestHalt() { halt_requested_ = true; }

    /** True when the last run() exited via requestHalt(). */
    bool halted() const { return halt_requested_; }

    /**
     * Kill worker at pool index `i` (its pipeline threads are
     * stopped, its buffer is lost, in-flight splits requeue) and
     * start a stateless replacement. If the session is mid-run in
     * parallel mode, the replacement's pipeline starts immediately.
     */
    void injectWorkerFailure(size_t i) { pool_->fail(i); }

    /**
     * Drive the pipeline to completion: workers produce (pumped
     * cooperatively, or on their own threads in parallel mode) while
     * clients drain. `sink` (optional) observes every delivered
     * tensor — called only from the run() caller's thread.
     * `fail_after_splits`, if nonzero, kills one worker after that
     * many splits complete (fault-tolerance exercise).
     */
    SessionResult run(TensorSink sink = nullptr,
                      uint64_t fail_after_splits = 0);

    /** Recent scaling evaluations of the live controller (bounded). */
    const std::deque<ScalingEvent> &scalingLog() const
    {
        return pool_->scalingLog();
    }

    /**
     * The trace collected by the last run() (empty unless tracing was
     * enabled via SessionOptions::trace or DSI_TRACE). Feed it to
     * trace::TraceQuery for assertions or trace::writeChromeTrace for
     * a trace-viewer file.
     */
    const std::vector<trace::TraceEvent> &traceEvents() const
    {
        return trace_events_;
    }

    /**
     * Merged metrics registry across the Master, the worker pool
     * (retired workers included) and the clients (those replaced on
     * a pool membership change included) — the bag MetricsExporter
     * renders.
     */
    Metrics collectMetrics() const;

    /** Current worker-pool size (drained victims already retired). */
    size_t workerCount() const { return pool_->size(); }

  private:
    /** Reconnect the clients if the pool's membership changed. */
    void syncClients();
    /** Drain every client once; returns tensors delivered. */
    uint64_t drainClients(SessionResult &result, TensorSink &sink);

    const warehouse::Warehouse &warehouse_;
    SessionOptions options_;
    std::unique_ptr<Master> master_;
    std::unique_ptr<WorkerPool> pool_;
    std::vector<std::unique_ptr<Client>> clients_;
    uint64_t clients_generation_ = 0; ///< pool generation clients see
    Metrics retired_client_metrics_; ///< totals of replaced clients
    DeliveryLedger ledger_; ///< session-wide exactly-once dedup
    std::atomic<bool> halt_requested_{false};
    std::vector<trace::TraceEvent> trace_events_; ///< last run's trace
};

} // namespace dsi::dpp

#endif // DSI_DPP_SESSION_H
