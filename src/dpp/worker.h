/**
 * @file
 * DPP data plane: the Worker (Section III-B1).
 *
 * Stateless and *tenant-agnostic*: a Worker only talks to its
 * WorkSource — a single session's Master, or a fleet scheduler
 * multiplexing many sessions — to fetch splits and per-tenant
 * transform programs, and to Clients (to serve tensors). Every grant
 * names the tenant it belongs to; the Worker keys its split progress
 * by (tenant, split), compiles and caches one transform graph per
 * tenant per thread, and echoes the tenant on every lifecycle call,
 * so one worker can interleave splits from many sessions. Per split
 * it runs the full online ETL: extract (read + decrypt + decompress +
 * decode + feature-filter the stored stripes), transform (apply the
 * compiled graph per mini-batch), and partially load (batch rows into
 * ready-to-load tensors buffered in memory).
 *
 * Two execution modes share one Worker and one split state machine,
 * written as stage functions: acquire a grant (handling shed and
 * standby), open the held split, gate each stripe (crash, preemption
 * handback, liveness beat, deadline), extract it, and finish the split
 * as complete, released or abandoned.
 *
 *  - **Synchronous** (`num_extract_threads == num_transform_threads
 *    == 0`, the default): each pump() pushes one stripe through those
 *    stages and transforms it inline. Used by deterministic tests and
 *    single-threaded callers.
 *
 *  - **Parallel** (either knob > 0): start() launches the pipelined
 *    data plane the paper describes — production workers run *many*
 *    extract/transform threads per node (Sections III-B1, VI-C). N
 *    extract threads drive the same stages and push decoded stripes
 *    into a bounded queue; M transform threads pop stripes, apply a
 *    per-thread compiled graph per mini-batch, and append to the
 *    byte-capped tensor buffer, blocking when trainers fall behind
 *    (backpressure instead of OOM). stop() aborts and joins cleanly;
 *    natural end-of-work drains and quiesces on its own.
 *
 * Liveness is a beat counter (beats()) that the owning WorkerPool
 * samples for its heartbeat lease; the worker never reports it to the
 * control plane itself.
 *
 * Thread safety: popTensor(), drained(), buffered(), bufferedBytes(),
 * bufferFull(), and the stats/metrics accessors are safe to call from
 * any thread concurrently with a running pipeline (stats totals are
 * accumulated per thread and folded in as splits/threads finish, so
 * read them for exact values only after drained()). pump() is NOT
 * thread-safe and must not be mixed with start().
 */

#ifndef DSI_DPP_WORKER_H
#define DSI_DPP_WORKER_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/bounded_queue.h"
#include "common/deadline.h"
#include "common/metrics.h"
#include "common/pool.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "dpp/autoscaler.h"
#include "dpp/spec.h"
#include "dpp/work_source.h"
#include "transforms/graph.h"
#include "warehouse/table.h"

namespace dsi::dpp {

/** A preprocessed, ready-to-load tensor batch. */
struct TensorBatch
{
    dwrf::RowBatch data;
    Bytes bytes = 0; ///< materialized tensor payload size

    // Provenance, for exactly-once delivery: per tenant,
    // (split_id, first_row) identifies a batch across replays,
    // because batch slicing is a deterministic function of the
    // split's stripes and batch_size.
    TenantId tenant = 0;
    uint64_t split_id = 0;
    RowId first_row = 0;

    /** Relative stripe (0-based within the split) this batch is from. */
    uint32_t stripe = 0;

    /**
     * True on the final batch sliced from its stripe. Delivery of
     * this batch means the whole stripe reached a trainer (slicing is
     * deterministic and per-worker delivery is FIFO), which is what
     * advances the Master's resume watermark
     * (Master::noteStripeDelivered).
     */
    bool last_in_stripe = false;

    /** Worker-local split attempt number (internal bookkeeping). */
    uint64_t epoch = 0;

    /**
     * Lineage: the transform-stripe span this batch was sliced in
     * (itself a child of the split's master.grant span). The client's
     * delivery span parents on it. kNoSpan when tracing is off.
     */
    trace::SpanId trace = trace::kNoSpan;
};

/** Worker tuning knobs. */
struct WorkerOptions
{
    /** Target depth of the in-memory tensor buffer. */
    size_t buffer_capacity = 16;

    /**
     * Byte cap on buffered tensors (0 = unlimited). Production
     * workers bound memory to avoid OOM — the reason RM3's thread
     * pool is limited (Section VI-C).
     */
    Bytes buffer_bytes_capacity = 0;

    /** Verify stream checksums during extraction. */
    bool verify_checksums = true;

    /**
     * Extract (read+decrypt+decompress+decode) threads. 0 with
     * num_transform_threads == 0 selects the synchronous pump() mode;
     * otherwise both stages get at least one thread.
     */
    uint32_t num_extract_threads = 0;

    /** Transform (compiled graph per mini-batch) threads. */
    uint32_t num_transform_threads = 0;

    /**
     * Capacity (in stripes) of the extract -> transform hand-off
     * queue; the second backpressure point of the pipeline.
     */
    size_t stripe_queue_capacity = 8;

    /**
     * Max idle stripe batches retained for reuse. Recycled batches
     * keep their columns' heap capacity across stripes (the reader
     * reuses it), cutting per-stripe allocation churn. Sized to cover
     * the queue plus every in-flight stage by default.
     */
    size_t stripe_pool_max_idle = 16;

    /**
     * Cap on heap bytes the idle stripe pool may pin (0 = unbounded).
     * Pooled batches keep the column capacity of the largest stripe
     * they ever carried, so without a cap one huge stripe inflates
     * the worker's footprint forever; over the cap the pool evicts
     * idle batches oldest-first (shrink-on-release). Published as the
     * worker.stripe_pool_retained_bytes gauge.
     */
    Bytes stripe_pool_retained_bytes = 256_MiB;

    /**
     * RecD-style batch dedup: before transforming each mini-batch,
     * collapse rows with identical feature payloads (labels excluded)
     * to their unique representatives, run the transform graph once
     * per unique row, and expand back via the inverse index with the
     * original labels restored. Byte-identical output (the dedup
     * differential test proves it), applied only when every op in the
     * tenant's graph is row-local — graphs containing Sampling are
     * bypassed and counted in worker.dedup_bypassed_batches.
     */
    bool dedup_enabled = false;
};

/** One DPP worker process. */
class Worker
{
  public:
    /**
     * `control` is the control plane this worker pulls splits from: a
     * Master (single session) or a FleetScheduler (many sessions).
     * All tenants' data must live in `warehouse` (a fleet shares one
     * warehouse across its sessions, as production DPP does).
     */
    Worker(WorkSource &control, const warehouse::Warehouse &warehouse,
           WorkerOptions options = {});

    /** Joins pipeline threads (equivalent to stop()). */
    ~Worker();

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    WorkerId id() const { return id_; }

    /** True when the options request the threaded data plane. */
    bool parallel() const
    {
        return options_.num_extract_threads > 0 ||
               options_.num_transform_threads > 0;
    }

    /**
     * Launch the pipeline threads (parallel mode only; call once).
     * Returns immediately; progress is observable through popTensor()
     * and drained().
     */
    void start();

    /**
     * Abort and join the pipeline: closes the stripe queue, wakes
     * blocked producers, and joins every thread. In-flight splits are
     * NOT completed (the Master requeues them via failWorker, exactly
     * as when a production worker dies). Idempotent; safe on a
     * never-started or already-quiesced worker.
     */
    void stop();

    /**
     * Synchronous mode only: make one unit of progress — if the
     * buffer has room, process one *stripe* of the current split
     * (fetching a new split from the Master when needed); the split
     * completes when its last stripe is done. Returns false when the
     * session has no more work for this worker (the buffer may still
     * hold tensors).
     */
    bool pump();

    /**
     * True when no work remains and the buffer is empty. In parallel
     * mode this additionally means every pipeline thread has
     * quiesced (all stripes transformed, stats folded in).
     */
    bool drained() const;

    /**
     * Graceful scale-down: stop acquiring new splits, finish (and
     * deliver) everything already held, then quiesce. The pool
     * retires the worker once drained() turns true — no split is
     * abandoned and no delivered row is lost, unlike stop(). Safe in
     * both modes; idempotent.
     *
     * With `release_held` (preemption): instead of finishing held
     * splits, hand them back to the control plane at the next stripe
     * boundary (releaseSplit — requeued with no attempt penalty).
     * Tensors already buffered are still delivered, and the epoch /
     * ledger machinery dedupes any overlap when another worker
     * replays the split — so preempting a worker frees its capacity
     * quickly without breaking exactly-once.
     */
    void beginDrain(bool release_held = false);
    bool draining() const { return draining_; }

    /**
     * Load snapshot for the auto-scaler (what a production worker
     * piggybacks on its periodic report RPC).
     */
    WorkerReport report() const;

    /**
     * True once the worker.crash fault point fired on this worker.
     * A crashed worker stops producing, serves no tensors (its
     * buffered batches are lost), and stops beating — so its pool
     * lease expires and its splits requeue.
     */
    bool crashed() const { return crashed_; }

    /**
     * Liveness beats so far: one per pump(), grant request, stripe
     * gate and served (or empty) tensor poll. A crashed worker stops
     * counting. The pool samples this for its heartbeat lease.
     */
    uint64_t beats() const { return beats_; }

    /** True while any split is held (granted and not yet finished). */
    bool holdsSplits() const;

    /**
     * Clients pop tensors over (simulated) RPC. Thread-safe. Returns
     * nullopt when empty or crashed. A split is reported complete to
     * the Master only after its *last buffered tensor is delivered* —
     * so a worker dying with undelivered tensors loses nothing: the
     * split stays in flight and is replayed elsewhere.
     */
    std::optional<TensorBatch> popTensor();

    size_t buffered() const;
    Bytes bufferedBytes() const;
    bool bufferFull() const;

    /** Cumulative extraction stats across processed splits. */
    const dwrf::ReadStats &readStats() const { return read_stats_; }
    const transforms::TransformStats &transformStats() const
    {
        return transform_stats_;
    }
    const Metrics &metrics() const { return metrics_; }

    // Ground-truth stripe-pool counters (tests compare these against
    // the published worker.stripe_pool_* gauges, which must stay
    // consistent even on crash/abandon exits).
    uint64_t stripePoolAllocated() const
    {
        return stripe_pool_.allocated();
    }
    uint64_t stripePoolReused() const { return stripe_pool_.reused(); }
    Bytes stripePoolRetainedBytes() const
    {
        return stripe_pool_.retainedBytes();
    }

  private:
    /**
     * One decoded stripe handed from extract to transform. The batch
     * is held by pointer so the queue hand-off moves one word — never
     * the column data — and so the transform stage can recycle the
     * batch through stripe_pool_ when it is done.
     */
    struct ExtractedStripe
    {
        std::unique_ptr<dwrf::RowBatch> rows;
        TenantId tenant = 0;
        uint64_t split_id = 0;
        RowId first_row = 0;
        uint32_t stripe = 0; ///< relative stripe within the split
        uint64_t epoch = 0;
        trace::SpanId trace = trace::kNoSpan; ///< grant span
    };

    /** Splits are tracked per tenant: ids collide across sessions. */
    using SplitKey = std::pair<TenantId, uint64_t>;

    /**
     * Per-split delivery tracking (guarded by progress_mutex_). A
     * split completes at the Master only when extraction finished,
     * every stripe was transformed, and every buffered tensor was
     * popped by a client. `epoch` distinguishes attempts, so leftover
     * tensors of an abandoned earlier attempt cannot corrupt the
     * accounting of a retry.
     */
    struct SplitProgress
    {
        uint32_t stripes_total = 0;
        uint32_t stripes_transformed = 0;
        uint64_t tensors_buffered = 0;
        uint64_t epoch = 0;
        bool extraction_done = false;
    };

    /**
     * A split held by one extract stage — an extract thread's local,
     * or pump()'s member between calls — from grant to finish.
     */
    struct HeldSplit
    {
        SplitGrant grant;
        uint64_t epoch = 0;
        uint32_t next = 0; ///< next relative stripe to extract
        std::unique_ptr<dwrf::RandomAccessSource> source;
        std::unique_ptr<dwrf::FileReader> reader;
        Metrics metrics; ///< folded in once, at finish

        const Split &split() const { return *grant.split; }
        SplitKey key() const { return {grant.tenant, grant.split->id}; }
    };

    /** What acquireGrant() tells its caller to do next. */
    enum class GrantStep
    {
        Granted, ///< a split is held: open it
        Retry,   ///< shed or standby: ask again later
        Stop,    ///< no work will come (NoWork) or zombie (Rejected)
    };

    /** How the held split leaves the extract stage. */
    enum class SplitEnd
    {
        None,    ///< still held: keep extracting
        Done,    ///< every stripe extracted; completes on delivery
        Release, ///< hand back, no attempt penalty (deadline, preempt)
        Abandon, ///< unreadable: fail it back to the control plane
        Abort,   ///< stopped or crashed: leave it in flight
    };

    /**
     * Per-thread transform state: compiled ops hold per-instance state
     * (e.g. the Sampling counter), so each transform thread — and
     * pump() — compiles its own copy per tenant, and accumulates stats
     * privately until foldLane().
     */
    struct TransformLane
    {
        std::map<TenantId, std::unique_ptr<transforms::CompiledGraph>>
            graphs;
        transforms::TransformStats stats;
        Metrics metrics;
    };

    // The split state machine, shared by pump() and the threads.
    GrantStep acquireGrant(std::optional<HeldSplit> &held);
    SplitEnd openGrant(HeldSplit &held);
    /** Gate, then extract the next stripe into `out`. */
    SplitEnd nextStripe(HeldSplit &held, ExtractedStripe &out);
    void finishGrant(HeldSplit &held, SplitEnd end);
    /** Transform one extracted stripe and recycle its batch. */
    void transformExtracted(ExtractedStripe &work, TransformLane &lane,
                            bool blocking);
    void foldLane(TransformLane &lane);
    void beat() { ++beats_; }
    /** No further splits will be acquired (both modes). */
    void endProduction();

    /** Events that move a split's delivery tracker. */
    enum class Progress
    {
        TensorEnqueued,
        TensorUnqueued, ///< push failed: stopped or crashed
        TensorDelivered,
        StripeTransformed,
        ExtractionDone,
    };

    // Split-progress bookkeeping (both modes). Neither holds
    // progress_mutex_ while calling into the control plane or the
    // buffer.
    uint64_t beginSplit(SplitKey key, uint32_t stripes_total);
    /** Apply `event` to this attempt's tracker; complete the split
     * at the control plane once it is fully delivered. */
    void noteProgress(SplitKey key, uint64_t epoch, Progress event);

    /** Simulate this worker process dying (worker.crash fault). */
    void crash();

    // Parallel pipeline stages.
    void extractLoop();
    void transformLoop();

    /**
     * Extract+inject one stripe into `out` (both modes), under
     * `tenant`'s spec. False when the stripe is unreadable after the
     * reader's own retries, or when the read budget expired
     * mid-stripe — `status` (optional) tells the caller which, so it
     * can abandon vs. release the split. `out` may hold a recycled
     * batch; the reader strips and reuses its capacity.
     */
    bool extractStripe(dwrf::FileReader &reader, TenantId tenant,
                       uint32_t stripe_index, dwrf::RowBatch &out,
                       Metrics &metrics,
                       dwrf::ReadStatus *status = nullptr) const;

    /**
     * Publish stripe-pool counters as worker gauges. Called at every
     * split terminal state (complete, abandon, return) and at crash /
     * pipeline exit, so the gauges never go stale on failure paths.
     */
    void publishPoolMetrics();

    /**
     * `tenant`'s deserialized transform program, fetched from the
     * control plane and cached on first use (thread-safe).
     */
    const transforms::TransformGraph &programFor(TenantId tenant);

    /**
     * Slice a stripe into mini-batch tensors via `graph`, under
     * `tenant`'s spec. True when the whole stripe was enqueued
     * (false: stopped/crashed mid-way).
     */
    bool transformStripe(dwrf::RowBatch &stripe, TenantId tenant,
                         uint64_t split_id, uint64_t epoch,
                         RowId first_row, uint32_t stripe_index,
                         transforms::CompiledGraph &graph,
                         transforms::TransformStats &stats,
                         Metrics &metrics, bool blocking,
                         trace::SpanId grant_span = trace::kNoSpan);

    bool bufferFullLocked() const;
    /**
     * Append to the buffer; `blocking` waits for room under the caps
     * (the synchronous pump path appends at once). False if stopped.
     */
    bool pushTensor(TensorBatch tensor, bool blocking);
    void mergeReadStats(const dwrf::ReadStats &rs);

    WorkSource &control_;
    const warehouse::Warehouse &warehouse_;
    WorkerOptions options_;
    WorkerId id_;

    // Per-tenant transform programs, deserialized lazily on first
    // grant from that tenant (a fleet worker cannot know its tenants
    // up front). Map nodes are stable, so references returned by
    // programFor() stay valid while threads compile private copies.
    mutable std::mutex program_mutex_;
    std::map<TenantId, transforms::TransformGraph> programs_;

    // Tensor buffer (the partial-load stage). Guarded by buffer_mutex_.
    mutable std::mutex buffer_mutex_;
    std::condition_variable space_available_;
    std::deque<TensorBatch> buffer_;
    Bytes buffered_bytes_ = 0;
    bool no_more_work_ = false; ///< production finished (both modes)

    // Parallel pipeline state.
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<BoundedQueue<ExtractedStripe>> stripe_queue_;
    ObjectPool<dwrf::RowBatch> stripe_pool_;
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> draining_{false}; ///< graceful scale-down
    std::atomic<bool> handback_{false}; ///< preempted: release held
    std::atomic<bool> crashed_{false};
    std::atomic<uint32_t> active_extractors_{0};
    std::atomic<uint32_t> active_transformers_{0};
    std::atomic<uint64_t> beats_{0};

    // Delivery-tracked split progress (exactly-once completion).
    mutable std::mutex progress_mutex_;
    std::map<SplitKey, SplitProgress> split_progress_;
    uint64_t next_epoch_ = 1; ///< guarded by progress_mutex_

    // Synchronous mode: the split and transform lane pump() carries
    // from one call to the next.
    std::optional<HeldSplit> held_;
    TransformLane pump_lane_;

    // Cumulative stats; pipeline threads fold in under stats_mutex_.
    mutable std::mutex stats_mutex_;
    dwrf::ReadStats read_stats_;
    transforms::TransformStats transform_stats_;
    Metrics metrics_;
};

} // namespace dsi::dpp

#endif // DSI_DPP_WORKER_H
