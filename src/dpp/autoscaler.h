/**
 * @file
 * DPP auto-scaling controller (Section III-B1).
 *
 * The Master's controller collects per-Worker utilization and
 * buffered-tensor counts, and periodically computes how many Workers
 * to launch or drain. Goals: a non-zero buffer everywhere (trainer
 * demand met — no data stalls) at maximum utilization (no wasted
 * capacity). Right-sizing matters because extra workers do NOT make
 * training faster (throughput is trainer-driven); they only waste
 * power (Section VI-C).
 */

#ifndef DSI_DPP_AUTOSCALER_H
#define DSI_DPP_AUTOSCALER_H

#include <cstdint>
#include <vector>

namespace dsi::dpp {

/** One Worker's periodic report to the controller. */
struct WorkerReport
{
    double cpu_util = 0;
    double mem_util = 0;
    double net_util = 0;
    uint64_t buffered_tensors = 0;
};

/** Controller configuration. */
struct AutoScalerConfig
{
    uint32_t min_workers = 1;
    uint32_t max_workers = 4096;
    /** Desired utilization of each worker's binding resource. */
    double target_util = 0.85;
    /** A worker with <= this many buffered tensors is "starving". */
    uint64_t starving_buffer = 0;
    /** Relative change below this is ignored (hysteresis). */
    double deadband = 0.10;
    /** Cap on relative growth per evaluation (avoid thundering herd). */
    double max_step_up = 0.50;
};

/** The scaling decision for one evaluation period. */
struct ScalingDecision
{
    uint32_t target_workers = 0;
    int64_t delta = 0; ///< positive: launch, negative: drain
    bool starving = false;
};

/** Periodic scaling evaluator. */
class AutoScaler
{
  public:
    explicit AutoScaler(AutoScalerConfig config) : config_(config) {}

    /**
     * Evaluate one period. `reports` carries the live Workers' state;
     * `demand_rate` and `supply_rate` are tensors/s consumed by
     * trainers vs. produced by the current pool over the period.
     */
    ScalingDecision evaluate(const std::vector<WorkerReport> &reports,
                             double demand_rate, double supply_rate);

    const AutoScalerConfig &config() const { return config_; }

  private:
    AutoScalerConfig config_;
};

} // namespace dsi::dpp

#endif // DSI_DPP_AUTOSCALER_H
