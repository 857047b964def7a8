/**
 * @file
 * The DPP worker pool: the one manager of a set of stateless Workers
 * (Section III-B1), shared by InProcessSession (one Master) and
 * sched::FleetScheduler (many Masters behind one WorkSource).
 *
 * The pool owns the worker vector and every action the paper's Master
 * takes on its pool:
 *
 *  - launch, start and stop, and one synchronous pump() round;
 *  - the heartbeat lease table: each Worker counts liveness beats
 *    (per pump, per stripe, per grant request, per served tensor);
 *    every maintain() pass samples the counts on the pool's clock, and
 *    a worker holding splits whose count has not moved for
 *    `lease_timeout` seconds is declared dead;
 *  - crash replacement: a dead or crashed worker is stopped, its splits
 *    are failed back through WorkSource::failWorker (requeued on every
 *    Master it served), and a stateless replacement takes its slot. A
 *    crashed worker still holding splits waits for its lease when
 *    leases are on, so lease expiry stays the detector; with leases
 *    off it is recycled on the next pass;
 *  - retiring drained scale-down victims;
 *  - the auto-scaling window: demand (tensors delivered, supplied by
 *    the owner) and supply (tensors produced, retired workers
 *    included) rates go through the shared AutoScaler policy; the
 *    bounded scalingLog() keeps every recent evaluation so tests can
 *    replay it through a fresh policy;
 *  - folding the stats and metrics of every removed worker, so totals
 *    still account for the work it did.
 *
 * Thread safety: the owner's thread only. Workers reach the control
 * plane exclusively through their WorkSource, never through the pool.
 */

#ifndef DSI_DPP_WORKER_POOL_H
#define DSI_DPP_WORKER_POOL_H

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "dpp/autoscaler.h"
#include "dpp/work_source.h"
#include "dpp/worker.h"

namespace dsi::dpp {

/**
 * Live auto-scaling knobs. When enabled, the pool periodically
 * collects WorkerReports from the live workers, computes demand
 * (tensors delivered to trainers) and supply (tensors produced) rates
 * over the period, and applies the shared AutoScaler policy: positive
 * deltas launch stateless workers, negative deltas gracefully drain
 * victims (they finish and deliver everything held, then retire) —
 * the same controller sim_session simulates.
 */
struct AutoScaleOptions
{
    bool enabled = false;
    AutoScalerConfig scaler;

    /** Clock seconds between scaling evaluations. */
    double interval_s = 0.02;
};

/**
 * One live scaling evaluation: exactly what the controller saw and
 * what it decided. The log lets tests replay the same input stream
 * through a fresh AutoScaler (the sim_session path) and assert the
 * live pool did not drift from the shared policy.
 */
struct ScalingEvent
{
    std::vector<WorkerReport> reports;
    double demand_rate = 0.0;
    double supply_rate = 0.0;
    ScalingDecision decision;
};

/** A driven pool of Workers over one WorkSource. */
class WorkerPool
{
  public:
    /** Evaluations kept by scalingLog() (oldest dropped first). */
    static constexpr size_t kScalingLogCap = 1024;

    /**
     * Builds `initial_workers` workers at once (baseline capacity, not
     * counted by launched()). `lease_timeout` 0 disables leases.
     */
    WorkerPool(WorkSource &source, const warehouse::Warehouse &warehouse,
               WorkerOptions worker, uint32_t initial_workers,
               double lease_timeout, AutoScaleOptions autoscale);

    /** Joins every worker's pipeline threads. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** True when the workers run the threaded data plane. */
    bool parallel() const
    {
        return worker_.num_extract_threads > 0 ||
               worker_.num_transform_threads > 0;
    }

    /**
     * Parallel mode: start every worker's pipeline threads; workers
     * launched or replaced until stop() start at once. No-op in
     * synchronous mode.
     */
    void start();

    /** Stop (join) every worker's pipeline. Idempotent. */
    void stop();

    /**
     * Synchronous mode: pump every worker once. True when any worker
     * made progress. Always false in parallel mode.
     */
    bool pump();

    /**
     * One maintenance pass: expire silent leases and replace dead or
     * crashed workers, retire drained scale-down victims, and run the
     * auto-scaling window against `delivered`, the owner's running
     * count of tensors delivered to trainers. True when a worker was
     * replaced or retired.
     */
    bool maintain(uint64_t delivered);

    /** Scale up (or replace a preempted worker): add `n` workers. */
    void launch(uint32_t n = 1);

    /**
     * Declare worker `i` dead: stop it, fail its splits back through
     * the WorkSource, and put a stateless replacement in its slot.
     */
    void fail(size_t i);

    /** Every worker drained (no work left, buffers empty). */
    bool drained() const;

    size_t size() const { return workers_.size(); }
    const std::vector<std::unique_ptr<Worker>> &workers() const
    {
        return workers_;
    }

    /**
     * Bumped whenever pool membership changes (launch, replacement,
     * retirement), so owners can rebuild client connections lazily.
     */
    uint64_t generation() const { return generation_; }

    /** Injectable clock for leases and the scaling window (tests). */
    void setClock(std::function<double()> clock);
    double now() const { return clock_(); }

    uint64_t launched() const { return launched_; } ///< beyond baseline
    uint64_t failures() const { return failures_; } ///< replacements
    uint64_t retired() const { return retired_; }   ///< drained victims

    /** Recent scaling evaluations, oldest first (bounded). */
    const std::deque<ScalingEvent> &scalingLog() const
    {
        return scaling_log_;
    }

    /** Pool counters + removed workers + every live worker, merged. */
    Metrics collectMetrics() const;

    /** Extraction / transform totals over every worker ever pooled. */
    dwrf::ReadStats readStats() const;
    transforms::TransformStats transformStats() const;

  private:
    /** Last sampled beat count of a worker, and when it last moved. */
    struct Lease
    {
        uint64_t beats = 0;
        double moved_at = 0.0;
    };

    std::unique_ptr<Worker> makeWorker();
    /** Sample `w`'s lease; true when it must be failed and replaced. */
    bool dead(const Worker &w, double now);
    /** Fold a departing worker's totals and drop its lease. */
    void fold(const Worker &w);
    void autoscale(uint64_t delivered);

    WorkSource &source_;
    const warehouse::Warehouse &warehouse_;
    WorkerOptions worker_;
    double lease_timeout_;
    AutoScaleOptions autoscale_;
    std::function<double()> clock_;
    bool started_ = false;

    std::vector<std::unique_ptr<Worker>> workers_;
    std::map<WorkerId, Lease> leases_;
    uint64_t generation_ = 0;
    uint64_t launched_ = 0;
    uint64_t failures_ = 0;
    uint64_t retired_ = 0;
    Metrics metrics_; ///< pool.* counters

    // Totals of replaced and retired workers.
    Metrics retired_metrics_;
    dwrf::ReadStats retired_read_stats_;
    transforms::TransformStats retired_transform_stats_;

    // Auto-scaling window.
    std::unique_ptr<AutoScaler> scaler_;
    std::deque<ScalingEvent> scaling_log_;
    double last_eval_ = 0.0;
    uint64_t last_delivered_ = 0;
    double last_supplied_ = 0.0;
};

} // namespace dsi::dpp

#endif // DSI_DPP_WORKER_POOL_H
