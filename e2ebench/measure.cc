/**
 * @file
 * The timed run (--trace 0): set up three times, then measure the
 * trainer-visible throughput, batch gaps and memory of the workload
 * with the program's tracing off, and check every delivered batch.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "bench.h"

namespace dsi::e2e {

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/** Heap samples are taken every this many batches or ticks. */
constexpr uint64_t kHeapEvery = 32;

/** batch_gap_p99_ms cuts the gaps into at most this many parts, each of
 * at least kGapsPerPart gaps (ten beyond the part's 99th percentile). */
constexpr size_t kMaxGapParts = 5;
constexpr size_t kGapsPerPart = 1000;

/** Observations of the measured phase. */
struct Phase
{
    std::vector<double> gaps_ms; ///< in arrival order
    double peak_heap_mb = 0.0;
    uint64_t rows = 0;
    double seconds = 0.0;

    void sampleHeap()
    {
        peak_heap_mb = std::max(peak_heap_mb, heapInUseMb());
    }
};

/** The session workloads' pipeline: one worker, 1+1 threads. */
dpp::SessionOptions
threadedOptions(const Workload &w)
{
    dpp::SessionOptions so;
    so.workers = 1;
    so.clients = 1;
    so.worker = w.worker;
    return so;
}

/**
 * One epoch through a fresh threaded session (a session runs once).
 * With `phase`, the gaps between batches reaching the trainer are
 * recorded; the first batch of the epoch starts the clock.
 */
Tally
threadedEpoch(const Workload &w, const Corpus &corpus,
              const dpp::SessionSpec &spec, Phase *phase)
{
    dpp::InProcessSession session(*corpus.mc.warehouse, spec,
                                  threadedOptions(w));
    Tally tally;
    double last = -1.0;
    session.run([&](ClientId, const dpp::TensorBatch &b) {
        if (phase != nullptr) {
            double now = nowSeconds();
            if (last >= 0)
                phase->gaps_ms.push_back((now - last) * 1e3);
            last = now;
            if (tally.batches % kHeapEvery == 0)
                phase->sampleHeap();
            phase->rows += b.data.rows;
        }
        tally.add(b.split_id, b.first_row, b.data);
    });
    return tally;
}

using GapIt = std::vector<double>::const_iterator;

double
percentileOf(GapIt first, GapIt last, double p)
{
    PercentileSampler s;
    for (; first != last; ++first)
        s.add(*first);
    return s.percentile(p);
}

/**
 * The 99th percentile of a typical stretch of the run: the gaps, in
 * arrival order, are cut into 3-5 equal parts of at least kGapsPerPart
 * gaps, and the median of the parts' 99th percentiles is reported. A
 * stall of the shared host that spans fewer than half the parts does
 * not move it. (On a shared 4-vCPU host, in 3 of 20 runs of wide_read,
 * stalls of a few seconds lifted the 99th percentile of all gaps to
 * 1.2-7 times its usual value.) With fewer than three parts' worth of
 * gaps it is the 99th percentile of all of them.
 */
double
typicalP99(const std::vector<double> &gaps)
{
    size_t parts = std::min(kMaxGapParts, gaps.size() / kGapsPerPart);
    if (parts < 3)
        return percentileOf(gaps.begin(), gaps.end(), 99);
    PercentileSampler p99s;
    for (size_t i = 0; i < parts; ++i) {
        p99s.add(percentileOf(gaps.begin() + i * gaps.size() / parts,
                              gaps.begin() + (i + 1) * gaps.size() / parts,
                              99));
    }
    return p99s.percentile(50);
}

void
addEndToEnd(RunResult &r, const Phase &ph, const PercentileSampler &setups,
            const Corpus &corpus)
{
    r.add("rows_per_s", "rows/s",
          static_cast<double>(ph.rows) / ph.seconds);
    r.add("batch_gap_p50_ms", "ms",
          percentileOf(ph.gaps_ms.begin(), ph.gaps_ms.end(), 50));
    r.add("batch_gap_p99_ms", "ms", typicalP99(ph.gaps_ms));
    r.add("setup_s", "s", setups.percentile(50));
    r.add("peak_heap_mb", "MB", ph.peak_heap_mb);
    r.add("stored_bytes_per_row", "B/row",
          static_cast<double>(corpus.physical_bytes) /
              static_cast<double>(corpus.rows));
}

/** Every gap (ms) to --gaps, for run.py to pool across runs. */
void
writeGaps(const RunOptions &opts, const Phase &ph)
{
    if (opts.gaps_path.empty())
        return;
    std::ofstream out(opts.gaps_path);
    for (double g : ph.gaps_ms)
        out << g << '\n';
}

RunResult
measureSession(const Workload &w, const RunOptions &opts)
{
    RunResult r;
    const auto parts = allPartitions(w);
    PercentileSampler setups;
    Corpus corpus;
    dpp::SessionSpec spec;
    Tally ref;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        corpus = Corpus{}; // free the last set-up's corpus first
        corpus = buildCorpus(w, opts.seed);
        double t0 = nowSeconds();
        spec = makeSpec(w, corpus, parts);
        Tally warm = threadedEpoch(w, corpus, spec, nullptr);
        setups.add(corpus.encode_s + nowSeconds() - t0);
        if (rep == 0) {
            checkPinnedInputs(w, opts, corpus);
            ref = referenceEpoch(w, corpus, parts);
            r.check(ref.rows == corpus.rows && ref.duplicates == 0,
                    "the reference session did not deliver the corpus "
                    "once");
        }
        r.check(warm.matches(ref), "the warm-up epoch of set-up " +
                                       std::to_string(rep) +
                                       " differs from the reference");
    }
    Phase ph;
    ph.sampleHeap();
    uint64_t epochs = 0;
    double start = nowSeconds();
    do {
        // Checked at once, so no epoch's bookkeeping outlives it.
        r.check(threadedEpoch(w, corpus, spec, &ph).matches(ref),
                "measured epoch " + std::to_string(epochs) +
                    " differs from the reference");
        ++epochs;
    } while (nowSeconds() - start < opts.seconds);
    ph.seconds = nowSeconds() - start;
    ph.sampleHeap();

    addEndToEnd(r, ph, setups, corpus);
    std::printf("%s: %llu measured epochs, %zu batch gaps\n",
                w.name.c_str(), static_cast<unsigned long long>(epochs),
                ph.gaps_ms.size());
    writeGaps(opts, ph);
    return r;
}

RunResult
measureFleet(const Workload &w, const RunOptions &opts)
{
    RunResult r;
    PercentileSampler setups;
    Corpus corpus;
    std::unique_ptr<sched::FleetScheduler> fleet;
    std::unique_ptr<TenantLoop> loop;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        loop.reset();
        fleet.reset();
        corpus = Corpus{}; // free the last set-up's corpus first
        corpus = buildCorpus(w, opts.seed);
        if (rep == 0)
            checkPinnedInputs(w, opts, corpus);
        double t0 = nowSeconds();
        fleet = std::make_unique<sched::FleetScheduler>(
            *corpus.mc.warehouse,
            fleetOptions(*corpus.mc.cluster, w.fleet_workers,
                         "e2e/journal"));
        loop = std::make_unique<TenantLoop>(w, corpus, *fleet);
        loop->step();
        setups.add(corpus.encode_s + nowSeconds() - t0);
    }

    Phase ph;
    ph.sampleHeap();
    auto sink = [&](TenantId t, const dpp::TensorBatch &b) {
        TenantRun *run = loop->active(t);
        if (run == nullptr)
            return;
        double now = nowSeconds();
        if (run->last_batch >= 0)
            ph.gaps_ms.push_back((now - run->last_batch) * 1e3);
        run->last_batch = now;
        ph.rows += b.data.rows;
        run->tally.add(b.split_id, b.first_row, b.data);
    };
    double start = nowSeconds();
    for (uint64_t tick = 0; nowSeconds() - start < opts.seconds; ++tick) {
        fleet->tick(sink);
        loop->step();
        if (tick % kHeapEvery == 0)
            ph.sampleHeap();
    }
    ph.seconds = nowSeconds() - start;
    ph.sampleHeap();

    checkTenants(r, w, corpus, *loop);
    addEndToEnd(r, ph, setups, corpus);
    std::printf("%s: %zu tenants finished, %llu admitted, %zu batch "
                "gaps\n",
                w.name.c_str(), loop->finished().size(),
                static_cast<unsigned long long>(loop->admitted()),
                ph.gaps_ms.size());
    writeGaps(opts, ph);
    return r;
}

} // namespace

void
RunResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        problems.push_back(what);
    }
}

double
heapInUseMb()
{
    struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

void
Tally::add(uint64_t split_id, RowId first_row, const dwrf::RowBatch &batch)
{
    ++batches;
    rows += batch.rows;
    if (!keys.emplace(split_id, first_row).second)
        ++duplicates;
    digest += batchDigest(split_id, first_row, batch);
}

Tally
referenceEpoch(const Workload &w, const Corpus &corpus,
               const std::vector<PartitionId> &partitions)
{
    dpp::SessionOptions so;
    so.workers = 1;
    so.worker.dedup_enabled = w.worker.dedup_enabled;
    dpp::InProcessSession session(*corpus.mc.warehouse,
                                  makeSpec(w, corpus, partitions), so);
    Tally tally;
    session.run([&](ClientId, const dpp::TensorBatch &b) {
        tally.add(b.split_id, b.first_row, b.data);
    });
    return tally;
}

sched::FleetOptions
fleetOptions(storage::TectonicCluster &cluster, uint32_t workers,
             const std::string &journal_base)
{
    sched::FleetOptions fo;
    fo.initial_workers = workers;
    fo.recovery.cluster = &cluster;
    fo.recovery.journal_base = journal_base;
    fo.recovery.policy.every_n_deliveries = 1;
    return fo;
}

TenantLoop::TenantLoop(const Workload &w, const Corpus &corpus,
                       sched::FleetScheduler &fleet, uint64_t limit)
    : w_(w), corpus_(corpus), fleet_(fleet), limit_(limit)
{
}

bool
TenantLoop::step()
{
    for (auto it = active_.begin(); it != active_.end();) {
        if (fleet_.tenantProgress(it->first).done()) {
            finished_.push_back(std::move(it->second));
            it = active_.erase(it);
        } else {
            ++it;
        }
    }
    while (active_.size() < w_.tenant_slots && next_k_ < limit_) {
        TenantRun run;
        run.k = next_k_++;
        run.partition = static_cast<PartitionId>(run.k % w_.partitions);
        sched::TenantOptions to;
        to.name = std::to_string(run.k);
        if (run.k % 4 == 3) {
            to.job_class = sched::JobClass::RC;
            to.min_quota = 2;
        }
        TenantId id = fleet_.addTenant(
            makeSpec(w_, corpus_, {run.partition}), to);
        active_.emplace(id, std::move(run));
    }
    return !active_.empty();
}

TenantRun *
TenantLoop::active(TenantId t)
{
    auto it = active_.find(t);
    return it == active_.end() ? nullptr : &it->second;
}

void
checkTenants(RunResult &r, const Workload &w, const Corpus &corpus,
             const TenantLoop &loop)
{
    // The reference sessions read the same, by now aged, cluster; they
    // only need its bytes, so they read without hedging (every hedged
    // read sorts all latency samples the run has gathered).
    corpus.mc.cluster->setHedging({});
    std::map<PartitionId, Tally> refs;
    auto ref = [&](PartitionId p) -> const Tally & {
        auto it = refs.find(p);
        if (it == refs.end())
            it = refs.emplace(p, referenceEpoch(w, corpus, {p})).first;
        return it->second;
    };
    r.check(!loop.finished().empty(), "no fleet tenant finished");
    for (const TenantRun &run : loop.finished()) {
        r.check(run.tally.matches(ref(run.partition)),
                "tenant " + std::to_string(run.k) +
                    " did not receive exactly its partition once");
    }
    for (const auto &[id, run] : loop.activeTenants()) {
        r.check(run.tally.duplicates == 0 &&
                    run.tally.rows <= ref(run.partition).rows,
                "unfinished tenant " + std::to_string(run.k) +
                    " received duplicates or extra rows");
    }
}

RunResult
measureEndToEnd(const Workload &w, const RunOptions &opts)
{
    return w.kind == Kind::Fleet ? measureFleet(w, opts)
                                 : measureSession(w, opts);
}

} // namespace dsi::e2e
