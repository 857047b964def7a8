/**
 * @file
 * What one benchmark run produces, and the helpers the timed run
 * (measure.cc) and the layer replay (replay.cc) share.
 */

#ifndef DSI_E2EBENCH_BENCH_H
#define DSI_E2EBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "dwrf/row.h"
#include "sched/dpp_fleet.h"
#include "workloads.h"

namespace dsi::e2e {

using trace::nowSeconds;

/** Command-line settings of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 12.0;
    bool trace = false;
    bool smoke = false;
    /** Where the replay writes trace_<workload>.json. */
    std::string out_dir = ".";
    /** When set, the timed run writes every batch gap (ms) here. */
    std::string gaps_path;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** The run's verdict and metrics (the last line run.py reads). */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems; ///< one line per failed check
    std::vector<Metric> metrics;

    void add(std::string name, std::string unit, double value)
    {
        metrics.push_back({std::move(name), std::move(unit), value});
    }
    /** Count one checked item; a false `ok` is a failure. */
    void check(bool ok, const std::string &what);
};

/**
 * Heap bytes the process holds in live allocations, MB: every malloc
 * arena's in-use bytes plus mmapped chunks. Unlike the resident set it
 * excludes freed memory the allocator keeps, whose amount depends on
 * which arena each pipeline thread happened to get.
 */
double heapInUseMb();

/**
 * What one epoch (or one fleet tenant) delivered: rows, batches,
 * duplicate keys and the order-independent content digest.
 */
struct Tally
{
    uint64_t rows = 0;
    uint64_t batches = 0;
    uint64_t duplicates = 0;
    uint64_t digest = 0;
    std::set<std::pair<uint64_t, RowId>> keys;

    void add(uint64_t split_id, RowId first_row,
             const dwrf::RowBatch &batch);

    /** True when this tally delivered exactly what `ref` did. */
    bool matches(const Tally &ref) const
    {
        return duplicates == 0 && rows == ref.rows &&
               batches == ref.batches && digest == ref.digest;
    }
};

/**
 * One synchronous single-thread InProcessSession epoch: the reference
 * a threaded epoch or a replay must match batch for batch.
 */
Tally referenceEpoch(const Workload &w, const Corpus &corpus,
                     const std::vector<PartitionId> &partitions);

/**
 * Abort the run (exit code 3, no result) when the default seed's
 * generated rows or transform graph differ from the pinned digests.
 */
void checkPinnedInputs(const Workload &w, const RunOptions &opts,
                       const Corpus &corpus);

/** The timed, untraced run: every end-to-end metric. */
RunResult measureEndToEnd(const Workload &w, const RunOptions &opts);

/** The traced layer replay plus its untraced reference: every
 * per-layer metric. */
RunResult measureLayers(const Workload &w, const RunOptions &opts);

// --- the fleet workload's closed loop, shared by both kinds of run ---

/** Fleet options: `workers` pooled workers journaling every delivery
 * to the corpus's own cluster. */
sched::FleetOptions fleetOptions(storage::TectonicCluster &cluster,
                                 uint32_t workers,
                                 const std::string &journal_base);

/** One admitted tenant: the k-th of the run, and what it received. */
struct TenantRun
{
    uint64_t k = 0;
    PartitionId partition = 0;
    Tally tally;
    double last_batch = -1.0; ///< for per-tenant batch gaps
};

/**
 * The closed loop of tenant slots: tenant k reads partition
 * k mod partitions, every 4th tenant is RC with min_quota 2, and a
 * finished tenant's slot is refilled with the next one until `limit`
 * tenants were admitted.
 */
class TenantLoop
{
  public:
    TenantLoop(const Workload &w, const Corpus &corpus,
               sched::FleetScheduler &fleet,
               uint64_t limit = UINT64_MAX);

    /** Move done tenants to finished(), then refill empty slots.
     * Returns false once every admitted tenant is done and the limit
     * is reached. */
    bool step();

    /** Admit no tenant past the first `n`. */
    void limitTo(uint64_t n) { limit_ = n; }

    /** The active tenant `t` (nullptr when unknown). */
    TenantRun *active(TenantId t);
    const std::vector<TenantRun> &finished() const { return finished_; }
    const std::map<TenantId, TenantRun> &activeTenants() const
    {
        return active_;
    }
    uint64_t admitted() const { return next_k_; }

  private:
    const Workload &w_;
    const Corpus &corpus_;
    sched::FleetScheduler &fleet_;
    uint64_t limit_;
    uint64_t next_k_ = 0;
    std::map<TenantId, TenantRun> active_;
    std::vector<TenantRun> finished_;
};

/** Check every finished tenant against its partition's reference and
 * every unfinished one for duplicates. */
void checkTenants(RunResult &r, const Workload &w, const Corpus &corpus,
                  const TenantLoop &loop);

} // namespace dsi::e2e

#endif // DSI_E2EBENCH_BENCH_H
