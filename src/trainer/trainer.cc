#include "trainer.h"

#include <algorithm>

#include "common/logging.h"

namespace dsi::trainer {

LoadingUtilization
loadingUtilization(const sim::TrainerHostSpec &host,
                   const sim::DatacenterTax &tax, double rate_bps)
{
    LoadingUtilization u;
    u.cpu = std::min(1.0, tax.cpuLoad(rate_bps) / host.cyclesPerSec());
    u.membw = std::min(1.0, tax.memBwLoad(rate_bps) /
                                host.memBwBytesPerSec());
    u.nic = std::min(1.0, rate_bps / host.nicBytesPerSec());
    return u;
}

OnHostResult
onHostPreprocessing(const warehouse::RmSpec &rm,
                    const sim::TrainerHostSpec &host,
                    const sim::DatacenterTax &tax)
{
    OnHostResult r;
    r.demand_qps = rm.trainerSamplesPerSec();

    // Per-sample host costs: scaled preprocessing + the loading tax
    // on the raw bytes pulled from storage.
    double cycles = rm.cyclesPerSample() * kOnHostCycleFactor +
                    tax.cyclesPerByte() *
                        static_cast<double>(rm.storage_rx_per_sample);
    double membw = rm.membw_bytes_per_sample * kOnHostMemBwFactor +
                   tax.memBwPerByte() *
                       static_cast<double>(rm.storage_rx_per_sample);

    double cpu_budget = host.cyclesPerSec() * kOnHostCpuCeiling;
    double membw_budget =
        host.memBwBytesPerSec() * sim::kMemBwSaturation;

    double cpu_rate = cpu_budget / cycles;
    double membw_rate = membw_budget / membw;
    double nic_rate =
        host.nicBytesPerSec() * sim::kNicEfficiency /
        static_cast<double>(rm.storage_rx_per_sample);

    r.supply_qps = std::min({cpu_rate, membw_rate, nic_rate});
    double served = std::min(r.supply_qps, r.demand_qps);
    r.stall_fraction = 1.0 - served / r.demand_qps;
    r.cpu_util = served * cycles / host.cyclesPerSec();
    r.membw_util = served * membw / host.memBwBytesPerSec();
    return r;
}

StallProbeResult
measureStallRounds(const warehouse::Warehouse &warehouse,
                   dpp::SessionSpec spec, uint32_t workers,
                   uint32_t tensors_per_round)
{
    dsi_assert(workers >= 1, "need at least one worker");
    dsi_assert(tensors_per_round >= 1, "need positive demand");

    dpp::Master master(warehouse, std::move(spec));
    // A fixed synchronous pool: no leases, no autoscaling.
    dpp::WorkerPool pool(master, warehouse, dpp::WorkerOptions{},
                         workers, /*lease_timeout=*/0.0,
                         dpp::AutoScaleOptions{});
    std::vector<dpp::Worker *> raw;
    for (const auto &w : pool.workers())
        raw.push_back(w.get());
    dpp::Client client(0, 1, raw, dpp::ClientOptions{workers});

    StallProbeResult result;
    for (;;) {
        bool any_work = pool.pump();

        uint32_t got = 0;
        while (got < tensors_per_round) {
            auto tensor = client.next();
            if (!tensor)
                break;
            ++got;
            ++result.tensors;
        }
        bool drained = pool.drained();
        if (!any_work && got == 0 && drained)
            break;
        ++result.rounds;
        if (got < tensors_per_round && !drained)
            ++result.stalled_rounds;
    }
    return result;
}

} // namespace dsi::trainer
