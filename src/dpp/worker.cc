#include "worker.h"

#include <algorithm>

#include "common/backoff.h"
#include "common/fault.h"
#include "common/logging.h"
#include "dwrf/reader.h"
#include "transforms/dedup.h"

namespace dsi::dpp {

Worker::Worker(WorkSource &control,
               const warehouse::Warehouse &warehouse,
               WorkerOptions options)
    : control_(control), warehouse_(warehouse), options_(options),
      stripe_pool_(options.stripe_pool_max_idle,
                   options.stripe_pool_retained_bytes,
                   [](const dwrf::RowBatch &b) {
                       return static_cast<size_t>(b.heapBytes());
                   })
{
    id_ = control_.registerWorker();
    // The transform program (the "serialized and compiled PyTorch
    // module") is pulled lazily per tenant on the first grant from
    // that tenant — a fleet worker cannot know up front which
    // sessions it will serve. See programFor().
}

const transforms::TransformGraph &
Worker::programFor(TenantId tenant)
{
    {
        std::scoped_lock lock(program_mutex_);
        auto it = programs_.find(tenant);
        if (it != programs_.end())
            return it->second;
    }
    // Deserialize outside the lock (a compile-heavy tenant must not
    // stall siblings already cached). Two threads racing on the same
    // tenant both deserialize; try_emplace keeps exactly one copy.
    auto graph = transforms::TransformGraph::deserialize(
        control_.tenantProgram(tenant));
    dsi_assert(graph.has_value(),
               "worker %u received malformed transform program "
               "for tenant %u",
               id_, tenant);
    std::scoped_lock lock(program_mutex_);
    auto [it, inserted] =
        programs_.try_emplace(tenant, std::move(*graph));
    (void)inserted;
    return it->second;
}

Worker::~Worker()
{
    stop();
}

void
Worker::start()
{
    dsi_assert(parallel(),
               "worker %u: start() requires num_extract_threads or "
               "num_transform_threads > 0",
               id_);
    dsi_assert(!pool_, "worker %u already started", id_);
    // Both stages get at least one thread.
    uint32_t extracters = std::max(1u, options_.num_extract_threads);
    uint32_t transformers = std::max(1u, options_.num_transform_threads);
    stripe_queue_ = std::make_unique<BoundedQueue<ExtractedStripe>>(
        options_.stripe_queue_capacity);
    active_extractors_ = extracters;
    active_transformers_ = transformers;
    metrics_.set("worker.extract_threads", extracters);
    metrics_.set("worker.transform_threads", transformers);
    pool_ = std::make_unique<ThreadPool>(extracters + transformers);
    for (uint32_t i = 0; i < extracters; ++i)
        pool_->submit([this] { extractLoop(); });
    for (uint32_t i = 0; i < transformers; ++i)
        pool_->submit([this] { transformLoop(); });
}

void
Worker::stop()
{
    if (!pool_)
        return;
    {
        std::scoped_lock lock(buffer_mutex_);
        stop_requested_ = true;
    }
    space_available_.notify_all();
    stripe_queue_->close();
    pool_.reset(); // joins every pipeline thread
}

// ---------------------------------------------------------------------
// Shared extract/transform stages.

namespace {

/**
 * Synthesize an injected (beta) feature column for a stripe. Values
 * are a pure function of (feature id, absolute row) so every worker
 * — and every retry — joins identical data, as a feature-store
 * lookup would.
 */
void
injectFeature(dwrf::RowBatch &batch, const warehouse::FeatureSpec &f,
              RowId first_row)
{
    auto unit = [&](uint64_t row, uint64_t salt) {
        uint64_t h = transforms::sigridHash64(first_row + row,
                                              f.id * 1315423911u + salt);
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    };
    if (f.kind == warehouse::FeatureKind::Dense) {
        dwrf::DenseColumn col;
        col.id = f.id;
        col.present.assign((batch.rows + 7) / 8, 0);
        col.values.assign(batch.rows, 0.0f);
        for (uint32_t r = 0; r < batch.rows; ++r) {
            if (unit(r, 0) < f.coverage) {
                col.setPresent(r);
                col.values[r] = static_cast<float>(unit(r, 1));
            }
        }
        batch.dense.push_back(std::move(col));
        return;
    }
    dwrf::SparseColumn col;
    col.id = f.id;
    col.offsets.assign(batch.rows + 1, 0);
    for (uint32_t r = 0; r < batch.rows; ++r) {
        col.offsets[r + 1] = col.offsets[r];
        if (unit(r, 0) >= f.coverage)
            continue;
        uint32_t len = 1 + static_cast<uint32_t>(
                               unit(r, 2) * 2.0 * f.avg_length);
        for (uint32_t k = 0; k < len; ++k) {
            col.values.push_back(static_cast<int64_t>(
                transforms::sigridHash64(first_row + r, k) %
                f.cardinality));
        }
        col.offsets[r + 1] += len;
    }
    if (f.kind == warehouse::FeatureKind::ScoredSparse) {
        col.scores.resize(col.values.size());
        for (size_t i = 0; i < col.scores.size(); ++i)
            col.scores[i] = static_cast<float>(
                (transforms::sigridHash64(i, f.id) >> 40) / 16777216.0);
    }
    batch.sparse.push_back(std::move(col));
}

} // namespace

bool
Worker::extractStripe(dwrf::FileReader &reader, TenantId tenant,
                      uint32_t stripe_index, dwrf::RowBatch &out,
                      Metrics &metrics,
                      dwrf::ReadStatus *status_out) const
{
    const SessionSpec &spec = control_.tenantSpec(tenant);
    dwrf::ReadStatus status = reader.readStripe(stripe_index, out);
    if (status_out != nullptr)
        *status_out = status;
    if (status == dwrf::ReadStatus::DeadlineExpired) {
        // The read budget ran out: nothing is wrong with the data.
        // The caller releases the split so a fresh grant (elsewhere,
        // with a fresh budget) can finish it.
        return false;
    }
    if (status != dwrf::ReadStatus::Ok) {
        // Reader-level retries (replica rotation) already ran; this
        // stripe is unreadable from here. The caller abandons the
        // split so the Master can retry it elsewhere or fail it.
        metrics.inc("worker.stripe_read_failures");
        return false;
    }
    metrics.inc("worker.rows_extracted", out.rows);

    // --- Inject beta features (dynamic join, Section IV-C) ---
    if (!spec.injected.empty()) {
        RowId first_row =
            reader.footer().stripes[stripe_index].first_row;
        for (const auto &f : spec.injected) {
            injectFeature(out, f, first_row);
            metrics.inc("worker.features_injected");
        }
    }
    return true;
}

bool
Worker::transformStripe(dwrf::RowBatch &stripe, TenantId tenant,
                        uint64_t split_id, uint64_t epoch,
                        RowId first_row, uint32_t stripe_index,
                        transforms::CompiledGraph &graph,
                        transforms::TransformStats &stats,
                        Metrics &metrics, bool blocking,
                        trace::SpanId grant_span)
{
    const SessionSpec &spec = control_.tenantSpec(tenant);
    // One transform span covers the whole stripe; buffer waits inside
    // it get their own Complete spans so stall attribution can credit
    // them to the delivery stage instead of transform compute.
    trace::Span span(trace::spans::kTransformStripe, grant_span,
                     split_id, first_row);
    // Batch dedup is gated on the graph being row-local (every Table
    // XI op except Sampling): only then is transform-once-per-unique-
    // row byte-identical to transforming the full batch.
    const bool dedup_row_local =
        options_.dedup_enabled && transforms::rowLocal(graph);
    // Transform + partial load, one mini-batch at a time (transforms
    // are localized to each mini-batch).
    for (uint32_t start = 0; start < stripe.rows;
         start += spec.batch_size) {
        if (blocking && (stop_requested_ || crashed_))
            return false;
        dwrf::RowBatch batch =
            dwrf::sliceBatch(stripe, start, spec.batch_size);
        if (options_.dedup_enabled && !dedup_row_local)
            metrics.inc("worker.dedup_bypassed_batches");
        if (dedup_row_local) {
            trace::Span dspan(trace::spans::kWorkerDedup, span.id(),
                              split_id, batch.rows);
            transforms::BatchDedupPlan plan =
                transforms::planBatchDedup(batch);
            metrics.inc("worker.dedup_rows_in",
                        static_cast<double>(batch.rows));
            metrics.inc(
                "worker.dedup_rows_unique",
                static_cast<double>(plan.unique_rows.size()));
            if (plan.collapsed()) {
                metrics.inc("worker.dedup_batches_collapsed");
                // Transform the unique rows only; expansion restores
                // every duplicate row with its own label.
                std::vector<float> labels = std::move(batch.labels);
                dwrf::RowBatch unique =
                    transforms::gatherRows(batch, plan.unique_rows);
                stats.merge(graph.apply(unique));
                batch = labels.empty()
                    ? transforms::gatherRows(unique, plan.inverse)
                    : transforms::expandBatch(unique, plan, labels);
            } else {
                stats.merge(graph.apply(batch));
            }
        } else {
            stats.merge(graph.apply(batch));
        }

        TensorBatch tensor;
        tensor.bytes = batch.payloadBytes();
        tensor.data = std::move(batch);
        tensor.tenant = tenant;
        tensor.split_id = split_id;
        tensor.first_row = first_row + start;
        tensor.stripe = stripe_index;
        tensor.last_in_stripe = start + spec.batch_size >= stripe.rows;
        tensor.epoch = epoch;
        tensor.trace = span.id();
        metrics.inc("worker.tensor_bytes",
                    static_cast<double>(tensor.bytes));
        metrics.inc("worker.tensors");
        // Count the tensor against the split *before* it becomes
        // visible in the buffer, so a concurrent pop can never
        // observe a delivery the tracker has not heard of.
        noteProgress({tenant, split_id}, epoch, Progress::TensorEnqueued);
        trace::Timer wait;
        if (!pushTensor(std::move(tensor), blocking)) {
            // Stopped/crashed while waiting for buffer space; the
            // tensor never entered the buffer.
            noteProgress({tenant, split_id}, epoch,
                         Progress::TensorUnqueued);
            return false;
        }
        if (blocking)
            wait.complete(trace::spans::kBufferWait, span.id(), split_id);
    }
    return true;
}

// ---------------------------------------------------------------------
// The split state machine (both modes).

Worker::GrantStep
Worker::acquireGrant(std::optional<HeldSplit> &held)
{
    beat(); // asking for work is proof of life
    WorkerLoad load;
    load.buffered_tensors = buffered();
    load.buffer_full = bufferFull();
    SplitGrant grant = control_.acquireSplit(id_, load);
    switch (grant.status) {
    case GrantStatus::Granted:
        held.emplace();
        held->grant = std::move(grant);
        return GrantStep::Granted;
    case GrantStatus::Overloaded:
        metrics_.inc("worker.requests_shed");
        return GrantStep::Retry;
    case GrantStatus::Standby:
        // The source has tenants coming or splits in flight
        // elsewhere, just nothing for us *now*. Stay alive and
        // re-poll — this is not overload, so no shed count.
        metrics_.inc("worker.standby_polls");
        return GrantStep::Retry;
    default:
        return GrantStep::Stop; // NoWork (idle out) or Rejected
    }
}

Worker::SplitEnd
Worker::openGrant(HeldSplit &held)
{
    const Split &split = held.split();
    const SessionSpec &spec = control_.tenantSpec(held.grant.tenant);
    // A resumed grant skips stripes already delivered to trainers in
    // a previous attempt; this attempt owes only the tail.
    if (split.resume_stripe > 0)
        held.metrics.inc("worker.splits_resumed");
    held.next = split.resume_stripe;
    held.epoch = beginSplit(held.key(),
                            split.stripe_count - split.resume_stripe);
    held.source = warehouse_.cluster().open(split.file);
    dwrf::ReadOptions read = spec.read;
    read.projection = spec.projection;
    read.verify_checksums = options_.verify_checksums;
    // The open reads (file tail + footer) happen outside any stripe
    // span; parent them on the grant so they keep lineage.
    trace::ScopedParent open_ambient(held.grant.trace);
    held.reader = std::make_unique<dwrf::FileReader>(*held.source, read);
    if (!held.reader->valid()) {
        dsi_warn("worker %u: unreadable file '%s'", id_,
                 split.file.c_str());
        return SplitEnd::Abandon;
    }
    held.reader->setDeadline(held.grant.deadline);
    return SplitEnd::None;
}

Worker::SplitEnd
Worker::nextStripe(HeldSplit &held, ExtractedStripe &out)
{
    const Split &split = held.split();
    // A fully-delivered resume (every stripe reached trainers before
    // the previous attempt died) has nothing left to read.
    if (held.next >= split.stripe_count)
        return SplitEnd::Done;
    // The per-stripe gate, checked while the split is held — so an
    // injected crash always leaves an in-flight split to recover.
    if (stop_requested_ || crashed_)
        return SplitEnd::Abort;
    if (faultPoint(faults::kWorkerCrash)) {
        crash();
        return SplitEnd::Abort;
    }
    if (handback_) {
        // Preempted: a higher-priority tenant needs this worker's
        // capacity. Hand the split back at the stripe boundary.
        held.metrics.inc("worker.splits_preempted");
        return SplitEnd::Release;
    }
    beat();
    if (held.grant.deadline.expired()) {
        held.metrics.inc("worker.deadline_expired");
        return SplitEnd::Release;
    }

    uint32_t stripe_index = split.first_stripe + held.next;
    dwrf::ReadStatus status = dwrf::ReadStatus::Ok;
    auto rows = stripe_pool_.acquire();
    bool ok;
    {
        // The extract span closes before any terminal control-plane
        // call or queue push, keeping per-thread span nesting
        // strictly LIFO (the Chrome exporter relies on it).
        trace::Span espan(trace::spans::kExtractStripe, held.grant.trace,
                          split.id, stripe_index);
        trace::ScopedParent ambient(espan.id());
        ok = extractStripe(*held.reader, held.grant.tenant, stripe_index,
                           *rows, held.metrics, &status);
    }
    if (!ok) {
        stripe_pool_.release(std::move(rows));
        if (status != dwrf::ReadStatus::DeadlineExpired)
            return SplitEnd::Abandon;
        held.metrics.inc("worker.deadline_expired");
        return SplitEnd::Release;
    }
    out.tenant = held.grant.tenant;
    out.split_id = split.id;
    out.first_row = held.reader->footer().stripes[stripe_index].first_row;
    out.stripe = held.next++;
    out.epoch = held.epoch;
    out.trace = held.grant.trace;
    out.rows = std::move(rows);
    return SplitEnd::None;
}

void
Worker::finishGrant(HeldSplit &held, SplitEnd end)
{
    if (held.reader)
        mergeReadStats(held.reader->stats());
    metrics_.merge(held.metrics);
    if (end == SplitEnd::Done) {
        // Extraction done; completion waits for the last delivery.
        noteProgress(held.key(), held.epoch, Progress::ExtractionDone);
        return;
    }
    if (end != SplitEnd::Release && end != SplitEnd::Abandon)
        return; // aborted: the split stays in flight and is requeued
    // Leftover tensors of this attempt are filtered by epoch here and
    // deduplicated by the client ledger.
    auto [tenant, split_id] = held.key();
    {
        std::scoped_lock lock(progress_mutex_);
        split_progress_.erase(held.key());
    }
    if (end == SplitEnd::Release) {
        // Requeued with no attempt penalty.
        control_.releaseSplit(id_, tenant, split_id);
        metrics_.inc("worker.splits_released");
    } else {
        control_.failSplit(id_, tenant, split_id);
        metrics_.inc("worker.splits_abandoned");
    }
    // Pool gauges must reflect terminal states too, not just clean
    // completions — otherwise a crashy run reports stale reuse
    // numbers until the next report interval.
    publishPoolMetrics();
}

void
Worker::transformExtracted(ExtractedStripe &work, TransformLane &lane,
                           bool blocking)
{
    auto &graph = lane.graphs[work.tenant];
    if (!graph) {
        graph = std::make_unique<transforms::CompiledGraph>(
            programFor(work.tenant));
    }
    bool whole = transformStripe(*work.rows, work.tenant, work.split_id,
                                 work.epoch, work.first_row, work.stripe,
                                 *graph, lane.stats, lane.metrics,
                                 blocking, work.trace);
    // The stripe's columns are no longer needed (mini-batches own
    // copies); recycle the batch so the next extract reuses its heap
    // capacity.
    stripe_pool_.release(std::move(work.rows));
    if (whole) {
        noteProgress({work.tenant, work.split_id}, work.epoch,
                     Progress::StripeTransformed);
    }
}

void
Worker::foldLane(TransformLane &lane)
{
    {
        std::scoped_lock lock(stats_mutex_);
        transform_stats_.merge(lane.stats);
    }
    metrics_.merge(lane.metrics);
    lane.stats = {};
    lane.metrics = {};
}

void
Worker::endProduction()
{
    std::scoped_lock lock(buffer_mutex_);
    no_more_work_ = true;
}

// ---------------------------------------------------------------------
// Parallel pipeline.

void
Worker::extractLoop()
{
    // Shed-retry pacing: decorrelated jitter with a tight cap keeps a
    // shed worker responsive without hammering the control plane in
    // lockstep with its sibling threads.
    Backoff shed_backoff(
        BackoffOptions{.base_us = 200, .cap_us = 2000},
        0xb0ffULL + id_);
    while (!stop_requested_ && !crashed_ && !draining_) {
        std::optional<HeldSplit> held;
        GrantStep step = acquireGrant(held);
        if (step == GrantStep::Retry) {
            shed_backoff.sleep(Deadline::unbounded());
            continue;
        }
        if (step == GrantStep::Stop)
            break;
        shed_backoff.reset();
        SplitEnd end = openGrant(*held);
        while (end == SplitEnd::None) {
            ExtractedStripe work;
            end = nextStripe(*held, work);
            if (end != SplitEnd::None)
                break;
            // Backpressure observes the split budget: a stalled
            // transform stage must not pin an expired split forever.
            trace::Timer wait;
            uint32_t stripe_index = held->split().first_stripe + work.stripe;
            if (!stripe_queue_->push(std::move(work),
                                     held->grant.deadline)) {
                if (stripe_queue_->closed()) {
                    end = SplitEnd::Abort; // shutting down
                } else {
                    held->metrics.inc("worker.deadline_expired");
                    end = SplitEnd::Release;
                }
                break;
            }
            wait.complete(trace::spans::kQueuePushWait, held->grant.trace,
                          held->split().id, stripe_index);
        }
        finishGrant(*held, end);
        if (end == SplitEnd::Abort)
            break;
    }
    // Last extractor out ends the stripe stream so transformers can
    // drain and quiesce.
    if (active_extractors_.fetch_sub(1) == 1)
        stripe_queue_->close();
}

void
Worker::transformLoop()
{
    // Totals are folded in once on exit (drain) rather than per
    // mini-batch.
    TransformLane lane;
    while (auto work = stripe_queue_->pop()) {
        if (crashed_)
            break;
        transformExtracted(*work, lane, /*blocking=*/true);
        if (stop_requested_ || crashed_)
            break;
    }
    foldLane(lane);
    publishPoolMetrics();
    // Last transformer out marks production finished: drained() can
    // only become true after every pipeline thread has quiesced.
    if (active_transformers_.fetch_sub(1) == 1)
        endProduction();
}

// ---------------------------------------------------------------------
// Synchronous (pump) mode: one stripe through the same stages.

bool
Worker::pump()
{
    dsi_assert(!pool_, "worker %u: pump() cannot drive a started "
                       "parallel pipeline",
               id_);
    if (crashed_)
        return false;
    beat();
    {
        std::scoped_lock lock(buffer_mutex_);
        if (no_more_work_)
            return false;
        if (bufferFullLocked())
            return true; // backpressure: trainers are behind
    }
    SplitEnd end = SplitEnd::None;
    if (!held_) {
        GrantStep step =
            draining_ ? GrantStep::Stop : acquireGrant(held_);
        if (step == GrantStep::Retry)
            return true; // shed or standby; ask again next pump
        if (step == GrantStep::Stop) {
            endProduction();
            return false;
        }
        end = openGrant(*held_);
    }
    if (end == SplitEnd::None) {
        ExtractedStripe work;
        end = nextStripe(*held_, work);
        if (end == SplitEnd::None) {
            transformExtracted(work, pump_lane_, /*blocking=*/false);
            foldLane(pump_lane_);
            if (held_->next < held_->split().stripe_count)
                return true;
            end = SplitEnd::Done;
        }
    }
    finishGrant(*held_, end);
    held_.reset();
    return end != SplitEnd::Abort;
}

void
Worker::beginDrain(bool release_held)
{
    if (release_held)
        handback_ = true;
    if (!draining_.exchange(true))
        metrics_.inc("worker.drains_begun");
}

WorkerReport
Worker::report() const
{
    WorkerReport r;
    r.buffered_tensors = buffered();
    return r;
}

// ---------------------------------------------------------------------
// Tensor buffer (shared by both modes).

bool
Worker::bufferFullLocked() const
{
    if (buffer_.size() >= options_.buffer_capacity)
        return true;
    return options_.buffer_bytes_capacity > 0 &&
           buffered_bytes_ >= options_.buffer_bytes_capacity;
}

bool
Worker::bufferFull() const
{
    std::scoped_lock lock(buffer_mutex_);
    return bufferFullLocked();
}

size_t
Worker::buffered() const
{
    std::scoped_lock lock(buffer_mutex_);
    return buffer_.size();
}

Bytes
Worker::bufferedBytes() const
{
    std::scoped_lock lock(buffer_mutex_);
    return buffered_bytes_;
}

bool
Worker::pushTensor(TensorBatch tensor, bool blocking)
{
    std::unique_lock lock(buffer_mutex_);
    if (blocking) {
        space_available_.wait(lock, [this] {
            return stop_requested_ || crashed_ || !bufferFullLocked();
        });
    }
    if (stop_requested_ || crashed_)
        return false;
    buffered_bytes_ += tensor.bytes;
    buffer_.push_back(std::move(tensor));
    return true;
}

bool
Worker::holdsSplits() const
{
    std::scoped_lock lock(progress_mutex_);
    return !split_progress_.empty();
}

bool
Worker::drained() const
{
    if (crashed_) {
        // A crashed worker is "drained" once nothing depends on it:
        // its progress trackers empty exactly when every split it
        // touched completed or was handed back to the Master. A
        // non-empty tracker means an in-flight split, which the pool
        // fails back when it replaces the worker.
        std::scoped_lock lock(progress_mutex_);
        return split_progress_.empty();
    }
    std::scoped_lock lock(buffer_mutex_);
    return no_more_work_ && buffer_.empty();
}

std::optional<TensorBatch>
Worker::popTensor()
{
    // A crashed worker is unreachable: its buffered tensors are lost
    // with the process. Because completion is delivery-gated, those
    // splits stay in flight and the Master replays them elsewhere.
    if (crashed_)
        return std::nullopt;
    std::unique_lock lock(buffer_mutex_);
    if (buffer_.empty()) {
        lock.unlock();
        // Answering an (empty) RPC is still proof of life.
        beat();
        return std::nullopt;
    }
    TensorBatch t = std::move(buffer_.front());
    buffer_.pop_front();
    buffered_bytes_ -= t.bytes;
    lock.unlock();
    space_available_.notify_one();
    metrics_.inc("worker.tensors_served");
    beat();
    noteProgress({t.tenant, t.split_id}, t.epoch,
                 Progress::TensorDelivered);
    return t;
}

void
Worker::mergeReadStats(const dwrf::ReadStats &rs)
{
    std::scoped_lock lock(stats_mutex_);
    read_stats_.merge(rs);
    if (rs.dict_streams != 0) {
        metrics_.inc("dwrf.dict_streams",
                     static_cast<double>(rs.dict_streams));
    }
    if (rs.dict_list_refs != 0) {
        metrics_.inc("dwrf.dict_list_refs",
                     static_cast<double>(rs.dict_list_refs));
    }
    if (rs.dict_lists_inline != 0) {
        metrics_.inc("dwrf.dict_lists_inline",
                     static_cast<double>(rs.dict_lists_inline));
    }
}

// ---------------------------------------------------------------------
// Delivery-gated split completion.

uint64_t
Worker::beginSplit(SplitKey key, uint32_t stripes_total)
{
    std::scoped_lock lock(progress_mutex_);
    uint64_t epoch = next_epoch_++;
    SplitProgress p;
    p.stripes_total = stripes_total;
    p.epoch = epoch;
    split_progress_[key] = p;
    return epoch;
}

void
Worker::noteProgress(SplitKey key, uint64_t epoch, Progress event)
{
    {
        std::scoped_lock lock(progress_mutex_);
        auto it = split_progress_.find(key);
        // Epoch mismatch: a leftover of an earlier, abandoned attempt —
        // it must not touch the current attempt's counts.
        if (it == split_progress_.end() || it->second.epoch != epoch)
            return;
        SplitProgress &p = it->second;
        switch (event) {
        case Progress::TensorEnqueued:
            ++p.tensors_buffered;
            break;
        case Progress::TensorUnqueued:
        case Progress::TensorDelivered:
            if (p.tensors_buffered > 0)
                --p.tensors_buffered;
            break;
        case Progress::StripeTransformed:
            ++p.stripes_transformed;
            break;
        case Progress::ExtractionDone:
            p.extraction_done = true;
            break;
        }
        if (!p.extraction_done || p.stripes_transformed != p.stripes_total ||
            p.tensors_buffered != 0)
            return;
        split_progress_.erase(it);
    }
    // Control-plane call happens outside every lock (lock-order
    // hygiene: WorkSource implementations take their own mutexes).
    control_.completeSplit(id_, key.first, key.second);
    metrics_.inc("worker.splits_completed");
    publishPoolMetrics();
}

void
Worker::publishPoolMetrics()
{
    metrics_.set("worker.stripe_pool_allocated",
                 static_cast<double>(stripe_pool_.allocated()));
    metrics_.set("worker.stripe_pool_reused",
                 static_cast<double>(stripe_pool_.reused()));
    metrics_.set("worker.stripe_pool_retained_bytes",
                 static_cast<double>(stripe_pool_.retainedBytes()));
}

void
Worker::crash()
{
    {
        std::scoped_lock lock(buffer_mutex_);
        crashed_ = true;
    }
    space_available_.notify_all();
    if (stripe_queue_)
        stripe_queue_->close();
    metrics_.inc("worker.crashes");
    publishPoolMetrics();
    trace::instant(trace::events::kFaultWorkerCrash, trace::kNoSpan,
                   id_);
    dsi_warn("worker %u: injected crash", id_);
}

} // namespace dsi::dpp
