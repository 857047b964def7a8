#include "master.h"

#include <algorithm>

#include "common/logging.h"
#include "dwrf/reader.h"

namespace dsi::dpp {

dwrf::Buffer
MasterCheckpoint::serialize() const
{
    dwrf::Buffer out;
    dwrf::putVarint(out, kFormatVersion);
    dwrf::putVarint(out, epoch);
    dwrf::putVarint(out, next_split_cursor);
    dwrf::putVarint(out, completed.size());
    for (uint64_t id : completed)
        dwrf::putVarint(out, id);
    dwrf::putVarint(out, failed.size());
    for (uint64_t id : failed)
        dwrf::putVarint(out, id);
    dwrf::putVarint(out, attempts.size());
    for (const auto &[id, count] : attempts) {
        dwrf::putVarint(out, id);
        dwrf::putVarint(out, count);
    }
    dwrf::putVarint(out, delivered_stripes.size());
    for (const auto &[id, stripe] : delivered_stripes) {
        dwrf::putVarint(out, id);
        dwrf::putVarint(out, stripe);
    }
    return out;
}

namespace {

/** Read `count` varints guarded against fuzz-sized allocations. */
bool
getIdList(dwrf::ByteSpan data, size_t &pos,
          std::vector<uint64_t> &out)
{
    uint64_t n;
    // Every entry costs at least one byte, so a count beyond the
    // remaining bytes is garbage — reject before resize() turns a
    // flipped bit into a giant allocation.
    if (!dwrf::getVarint(data, pos, n) || n > data.size() - pos)
        return false;
    out.resize(n);
    for (auto &id : out) {
        if (!dwrf::getVarint(data, pos, id))
            return false;
    }
    return true;
}

bool
getPairList(dwrf::ByteSpan data, size_t &pos,
            std::vector<std::pair<uint64_t, uint32_t>> &out)
{
    uint64_t n;
    if (!dwrf::getVarint(data, pos, n) ||
        n > (data.size() - pos) / 2)
        return false;
    out.resize(n);
    for (auto &[id, value] : out) {
        uint64_t v;
        if (!dwrf::getVarint(data, pos, id) ||
            !dwrf::getVarint(data, pos, v) || v > UINT32_MAX)
            return false;
        value = static_cast<uint32_t>(v);
    }
    return true;
}

} // namespace

std::optional<MasterCheckpoint>
MasterCheckpoint::deserialize(dwrf::ByteSpan data)
{
    MasterCheckpoint cp;
    size_t pos = 0;
    uint64_t version;
    // An unknown version is rejected whole: guessing at a future
    // layout risks silently resurrecting wrong state, the one thing a
    // recovery path must never do.
    if (!dwrf::getVarint(data, pos, version) ||
        version != kFormatVersion ||
        !dwrf::getVarint(data, pos, cp.epoch) ||
        !dwrf::getVarint(data, pos, cp.next_split_cursor)) {
        return std::nullopt;
    }
    if (!getIdList(data, pos, cp.completed) ||
        !getIdList(data, pos, cp.failed) ||
        !getPairList(data, pos, cp.attempts) ||
        !getPairList(data, pos, cp.delivered_stripes)) {
        return std::nullopt;
    }
    if (pos != data.size())
        return std::nullopt;
    return cp;
}

Master::Master(const warehouse::Warehouse &warehouse, SessionSpec spec)
    : spec_(std::move(spec))
{
    enumerateSplits(warehouse);
    records_.resize(splits_.size());
    for (uint64_t i = 0; i < splits_.size(); ++i)
        pending_.push_back(i);
}

void
Master::enumerateSplits(const warehouse::Warehouse &warehouse)
{
    const warehouse::Table *table = warehouse.findTable(spec_.table);
    dsi_assert(table != nullptr, "session table '%s' not found",
               spec_.table.c_str());

    for (PartitionId pid : spec_.partitions) {
        const warehouse::Partition *partition =
            table->findPartition(pid);
        dsi_assert(partition != nullptr,
                   "partition %u missing from '%s'", pid,
                   spec_.table.c_str());
        for (const auto &file : partition->files) {
            auto source = warehouse.cluster().open(file);
            dwrf::FileReader reader(*source, dwrf::ReadOptions{});
            dsi_assert(reader.valid(), "unreadable file '%s'",
                       file.c_str());
            const auto &stripes = reader.footer().stripes;
            // Pack successive stripes into ~rows_per_split splits.
            uint32_t begin = 0;
            uint64_t rows = 0;
            for (uint32_t s = 0; s < stripes.size(); ++s) {
                rows += stripes[s].rows;
                bool last = s + 1 == stripes.size();
                if (rows >= spec_.rows_per_split || last) {
                    Split split;
                    split.id = splits_.size();
                    split.file = file;
                    split.first_stripe = begin;
                    split.stripe_count = s - begin + 1;
                    split.rows = rows;
                    splits_.push_back(std::move(split));
                    begin = s + 1;
                    rows = 0;
                }
            }
        }
    }
    metrics_.set("master.total_splits",
                 static_cast<double>(splits_.size()));
}

WorkerId
Master::registerWorker()
{
    std::scoped_lock lock(mutex_);
    WorkerId id = next_worker_++;
    metrics_.inc("master.workers_registered");
    return id;
}

SplitGrant
Master::acquireSplit(WorkerId worker, const WorkerLoad &load)
{
    std::scoped_lock lock(mutex_);
    SplitGrant grant;
    if (failed_workers_.count(worker)) {
        // A zombie (lease-expired or manually failed) asking for more
        // work: its old splits are already requeued, so feeding it
        // would double-process rows. Starve it instead.
        metrics_.inc("master.stale_requests");
        trace::instant(trace::events::kRejected, trace::kNoSpan,
                       worker);
        grant.status = GrantStatus::Rejected;
        return grant;
    }
    if (pending_.empty()) {
        // Checked before admission so a saturated worker still
        // observes end-of-work and can finish its drain.
        grant.status = GrantStatus::NoWork;
        return grant;
    }
    // Admission control: shed rather than pile work onto a worker
    // that cannot absorb it (full buffer means trainers are the
    // bottleneck; more extraction only grows memory).
    bool shed = load.buffer_full;
    if (!shed && admission_.max_inflight_per_worker > 0) {
        uint32_t held = 0;
        for (const auto &[split_id, g] : inflight_)
            held += g.worker == worker;
        shed = held >= admission_.max_inflight_per_worker;
    }
    if (shed) {
        metrics_.inc("master.splits_shed");
        trace::instant(trace::events::kOverloaded, trace::kNoSpan,
                       worker);
        grant.status = GrantStatus::Overloaded;
        return grant;
    }
    uint64_t split_id = pending_.front();
    pending_.pop_front();
    Grant &entry = inflight_[split_id];
    entry.worker = worker;
    if (admission_.split_deadline_s > 0.0) {
        entry.deadline_at =
            trace::nowSeconds() + admission_.split_deadline_s;
        grant.deadline = Deadline::after(admission_.split_deadline_s);
    }
    metrics_.inc("master.splits_assigned");
    grant.status = GrantStatus::Granted;
    grant.split = splits_[split_id];
    // Re-grant of a partially delivered split: resume extraction past
    // the contiguous prefix of stripes trainers already received, so
    // a replacement worker (or a recovered control plane) re-reads
    // only the undelivered tail.
    if (uint32_t watermark = records_[split_id].watermark) {
        grant.split->resume_stripe =
            std::min(watermark, grant.split->stripe_count);
        metrics_.inc("master.splits_resumed");
    }
    if (trace::on()) {
        // Lineage root: everything that happens to this split —
        // extraction, storage reads, transformation, delivery —
        // parents on this span, which stays open until the split
        // reaches a terminal state at this Master. The ambient parent
        // is kNoSpan for a plain session (grants are forest roots, as
        // before) and the tenant's fleet.tenant span under a fleet,
        // which is how every span in a split's lineage becomes
        // attributable to one tenant.
        grant.trace = trace::beginSpan(trace::spans::kMasterGrant,
                                       trace::currentParent(),
                                       split_id, worker);
        entry.span = grant.trace;
    }
    return grant;
}

bool
Master::takeGrantLocked(WorkerId worker, uint64_t split_id,
                        const char *stale_metric)
{
    auto it = inflight_.find(split_id);
    if (it == inflight_.end() || it->second.worker != worker) {
        // Stale: the split was requeued (its holder was failed or blew
        // its deadline) or finished by its new owner. The delivery
        // ledger deduplicates any rows the zombie already delivered.
        metrics_.inc(stale_metric);
        return false;
    }
    trace::endSpan(it->second.span, trace::spans::kMasterGrant);
    inflight_.erase(it);
    return true;
}

void
Master::chargeAttemptLocked(uint64_t split_id)
{
    // Bounded attempts: a split that keeps failing (or blowing its
    // budget) still reaches a terminal state instead of cycling.
    uint32_t failures = ++records_[split_id].attempts;
    if (failures < max_split_attempts_) {
        pending_.push_front(split_id);
        metrics_.inc("master.splits_requeued");
        return;
    }
    finishLocked(split_id, SplitRecord::Failed);
    writeCheckpointLocked();
    metrics_.inc("master.splits_failed");
    dsi_warn("split %llu failed after %u attempts; giving up",
             static_cast<unsigned long long>(split_id), failures);
}

void
Master::releaseSplit(WorkerId worker, uint64_t split_id)
{
    std::scoped_lock lock(mutex_);
    if (!takeGrantLocked(worker, split_id, "master.stale_releases"))
        return;
    // No attempt penalty: the data is fine, the worker's timing
    // (or drain) is not.
    pending_.push_front(split_id);
    metrics_.inc("master.splits_released");
}

uint64_t
Master::expireDeadlines()
{
    std::scoped_lock lock(mutex_);
    if (admission_.split_deadline_s <= 0.0)
        return 0;
    double now = trace::nowSeconds();
    uint64_t expired = 0;
    for (auto it = inflight_.begin(); it != inflight_.end();) {
        if (it->second.deadline_at > now) {
            ++it;
            continue;
        }
        uint64_t split_id = it->first;
        ++expired;
        metrics_.inc("master.deadline_expired");
        trace::instant(trace::events::kDeadlineExpired, it->second.span,
                       split_id);
        trace::endSpan(it->second.span, trace::spans::kMasterGrant);
        it = inflight_.erase(it);
        chargeAttemptLocked(split_id);
    }
    return expired;
}

void
Master::setAdmission(AdmissionOptions admission)
{
    std::scoped_lock lock(mutex_);
    admission_ = admission;
}

void
Master::completeSplit(WorkerId worker, uint64_t split_id)
{
    std::scoped_lock lock(mutex_);
    if (!takeGrantLocked(worker, split_id, "master.stale_completions"))
        return;
    finishLocked(split_id, SplitRecord::Completed);
    metrics_.inc("master.splits_completed");
    writeCheckpointLocked();
}

void
Master::failSplit(WorkerId worker, uint64_t split_id)
{
    std::scoped_lock lock(mutex_);
    if (takeGrantLocked(worker, split_id, "master.stale_failures"))
        chargeAttemptLocked(split_id);
}

void
Master::failWorker(WorkerId worker)
{
    std::scoped_lock lock(mutex_);
    failed_workers_.insert(worker);
    // Stateless Workers: just requeue whatever they were processing.
    for (auto it = inflight_.begin(); it != inflight_.end();) {
        if (it->second.worker == worker) {
            pending_.push_front(it->first);
            trace::endSpan(it->second.span, trace::spans::kMasterGrant);
            metrics_.inc("master.splits_requeued");
            it = inflight_.erase(it);
        } else {
            ++it;
        }
    }
    metrics_.inc("master.workers_failed");
}

std::vector<WorkerId>
Master::holders() const
{
    std::scoped_lock lock(mutex_);
    std::vector<WorkerId> out;
    out.reserve(inflight_.size());
    for (const auto &[split_id, g] : inflight_)
        out.push_back(g.worker);
    return out;
}

void
Master::setMaxSplitAttempts(uint32_t attempts)
{
    dsi_assert(attempts >= 1, "need at least one attempt");
    std::scoped_lock lock(mutex_);
    max_split_attempts_ = attempts;
}

SessionProgress
Master::progress() const
{
    std::scoped_lock lock(mutex_);
    SessionProgress p;
    p.total_splits = splits_.size();
    p.completed_splits = completed_;
    p.inflight_splits = inflight_.size();
    p.pending_splits = pending_.size();
    p.failed_splits = failed_;
    return p;
}

MasterCheckpoint
Master::checkpoint() const
{
    std::scoped_lock lock(mutex_);
    return checkpointLocked();
}

MasterCheckpoint
Master::checkpointLocked() const
{
    MasterCheckpoint cp;
    cp.epoch = epoch_;
    cp.next_split_cursor = splits_.size();
    for (uint64_t id = 0; id < records_.size(); ++id) {
        const SplitRecord &r = records_[id];
        if (r.state == SplitRecord::Completed)
            cp.completed.push_back(id);
        else if (r.state == SplitRecord::Failed)
            cp.failed.push_back(id);
        if (r.attempts > 0)
            cp.attempts.emplace_back(id, r.attempts);
        if (r.watermark > 0)
            cp.delivered_stripes.emplace_back(id, r.watermark);
    }
    return cp;
}

void
Master::enableJournal(storage::TectonicCluster &cluster,
                      std::string base, CheckpointPolicy policy)
{
    std::scoped_lock lock(mutex_);
    journal_ = std::make_unique<CheckpointJournal>(cluster,
                                                   std::move(base));
    policy_ = policy;
    last_checkpoint_at_ = trace::nowSeconds();
    deliveries_since_checkpoint_ = 0;
}

void
Master::setLedger(DeliveryLedger *ledger)
{
    std::scoped_lock lock(mutex_);
    ledger_ = ledger;
}

uint64_t
Master::epoch() const
{
    std::scoped_lock lock(mutex_);
    return epoch_;
}

void
Master::writeCheckpointLocked()
{
    if (!journal_)
        return;
    // Payload: [master_len][master bytes][ledger_len][ledger bytes].
    // The ledger snapshot is taken *after* the master snapshot — a
    // claim that races in between is recorded as delivered without
    // its split being completed, which recovery resolves safely (the
    // replay is suppressed; the opposite order could drop a batch).
    dwrf::Buffer master_bytes = checkpointLocked().serialize();
    dwrf::Buffer payload;
    dwrf::putVarint(payload, master_bytes.size());
    payload.insert(payload.end(), master_bytes.begin(),
                   master_bytes.end());
    // A finished split is never granted again, so after recovery its
    // ledger keys could suppress nothing: leave them out, keeping the
    // record proportional to unfinished work.
    dwrf::Buffer ledger_bytes;
    if (ledger_) {
        LedgerCheckpoint cp = ledger_->checkpoint();
        std::erase_if(cp.delivered, [this](const auto &key) {
            return key.first < records_.size() &&
                   records_[key.first].state != SplitRecord::Open;
        });
        ledger_bytes = cp.serialize();
    }
    dwrf::putVarint(payload, ledger_bytes.size());
    payload.insert(payload.end(), ledger_bytes.begin(),
                   ledger_bytes.end());

    auto result = journal_->append(payload);
    last_checkpoint_at_ = trace::nowSeconds();
    deliveries_since_checkpoint_ = 0;
    metrics_.inc("master.checkpoint.written");
    metrics_.inc("master.checkpoint.bytes",
                 static_cast<double>(result.bytes));
    if (trace::on()) {
        trace::SpanId span =
            trace::beginSpan(trace::spans::kMasterCheckpoint,
                             trace::kNoSpan, result.seq, result.bytes);
        trace::endSpan(span, trace::spans::kMasterCheckpoint);
    }
}

void
Master::checkpointNow()
{
    std::scoped_lock lock(mutex_);
    writeCheckpointLocked();
}

void
Master::maybeCheckpoint()
{
    std::scoped_lock lock(mutex_);
    if (!journal_ || policy_.interval_s <= 0.0)
        return;
    if (trace::nowSeconds() - last_checkpoint_at_ >= policy_.interval_s)
        writeCheckpointLocked();
}

void
Master::noteDelivery()
{
    std::scoped_lock lock(mutex_);
    if (!journal_ || policy_.every_n_deliveries == 0)
        return;
    if (++deliveries_since_checkpoint_ >= policy_.every_n_deliveries)
        writeCheckpointLocked();
}

void
Master::noteStripeDelivered(uint64_t split_id, uint32_t stripe)
{
    std::scoped_lock lock(mutex_);
    if (split_id >= records_.size())
        return;
    SplitRecord &r = records_[split_id];
    if (r.state != SplitRecord::Open || stripe < r.watermark)
        return; // terminal, or a replayed stripe inside the prefix
    // Batches of one split normally arrive in stripe order (one
    // worker, FIFO queues), but a replay racing the original attempt
    // can interleave; fold strays into the prefix as gaps close.
    r.stray.insert(stripe);
    while (r.stray.erase(r.watermark))
        ++r.watermark;
}

void
Master::finishLocked(uint64_t split_id, SplitRecord::State state)
{
    SplitRecord &r = records_[split_id];
    r.state = state;
    r.watermark = 0;
    r.stray.clear();
    ++(state == SplitRecord::Completed ? completed_ : failed_);
}

bool
Master::recoverFromJournal()
{
    dsi_assert(journal_ != nullptr,
               "recoverFromJournal needs enableJournal first");
    JournalRecovery rec = journal_->recover();
    if (rec.corrupt_skipped > 0)
        metrics_.inc("master.checkpoint.corrupt_skipped",
                     static_cast<double>(rec.corrupt_skipped));
    if (!rec.found) {
        dsi_warn("journal '%s' has no valid record; cold-starting",
                 journal_->base().c_str());
        return false;
    }
    // Unwrap [master_len][master][ledger_len][ledger].
    dwrf::ByteSpan payload(rec.payload);
    size_t pos = 0;
    uint64_t master_len = 0;
    if (!dwrf::getVarint(payload, pos, master_len) ||
        master_len > payload.size() - pos) {
        metrics_.inc("master.checkpoint_restore_failed");
        return false;
    }
    dwrf::ByteSpan master_bytes = payload.subspan(pos, master_len);
    pos += master_len;
    uint64_t ledger_len = 0;
    if (!dwrf::getVarint(payload, pos, ledger_len) ||
        ledger_len != payload.size() - pos) {
        metrics_.inc("master.checkpoint_restore_failed");
        return false;
    }
    auto cp = MasterCheckpoint::deserialize(master_bytes);
    if (!cp.has_value()) {
        metrics_.inc("master.checkpoint_restore_failed");
        return false;
    }
    std::optional<LedgerCheckpoint> lcp;
    if (ledger_len > 0) {
        lcp = LedgerCheckpoint::deserialize(
            payload.subspan(pos, ledger_len));
        if (!lcp.has_value()) {
            metrics_.inc("master.checkpoint_restore_failed");
            return false;
        }
    }

    trace::SpanId span = trace::kNoSpan;
    if (trace::on())
        span = trace::beginSpan(trace::spans::kMasterRecover,
                                trace::kNoSpan, rec.seq,
                                rec.corrupt_skipped);
    bool ok = restore(*cp);
    if (ok && lcp.has_value() && ledger_ != nullptr)
        ledger_->restore(*lcp);
    if (ok)
        metrics_.inc("master.checkpoint.restored");
    if (trace::on())
        trace::endSpan(span, trace::spans::kMasterRecover);
    return ok;
}

bool
Master::restore(const MasterCheckpoint &checkpoint)
{
    std::scoped_lock lock(mutex_);
    // Validate before mutating so a bad checkpoint leaves the session
    // in its current (still usable) state.
    auto known = [&](uint64_t id) { return id < splits_.size(); };
    auto counted = [&](const auto &a) {
        return known(a.first) && a.second > 0;
    };
    auto resumable = [&](const auto &d) {
        return known(d.first) && d.second <= splits_[d.first].stripe_count;
    };
    if (!std::ranges::all_of(checkpoint.completed, known) ||
        !std::ranges::all_of(checkpoint.failed, known) ||
        !std::ranges::all_of(checkpoint.attempts, counted) ||
        !std::ranges::all_of(checkpoint.delivered_stripes, resumable)) {
        dsi_warn("checkpoint does not match this session's splits");
        metrics_.inc("master.checkpoint_restore_failed");
        return false;
    }
    records_.assign(splits_.size(), SplitRecord{});
    for (uint64_t id : checkpoint.completed)
        records_[id].state = SplitRecord::Completed;
    for (uint64_t id : checkpoint.failed)
        records_[id].state = SplitRecord::Failed;
    // Failed splits and attempt counts survive the restart: a split
    // that burned two of its three attempts before the control plane
    // died gets exactly one more — never a fresh budget (no attempt
    // double-charging in either direction).
    for (const auto &[id, count] : checkpoint.attempts)
        records_[id].attempts = count;
    for (const auto &[id, stripe] : checkpoint.delivered_stripes) {
        if (records_[id].state == SplitRecord::Open)
            records_[id].watermark = stripe;
    }
    for (const auto &[split_id, g] : inflight_)
        trace::endSpan(g.span, trace::spans::kMasterGrant);
    inflight_.clear();
    pending_.clear();
    completed_ = failed_ = 0;
    for (uint64_t i = 0; i < splits_.size(); ++i) {
        auto state = records_[i].state;
        if (state == SplitRecord::Open)
            pending_.push_back(i);
        completed_ += state == SplitRecord::Completed;
        failed_ += state == SplitRecord::Failed;
    }
    // The restored Master is a new incarnation of the control plane;
    // workers of the old one are zombies by construction (inflight_
    // was cleared), and their late completions land as stale.
    epoch_ = checkpoint.epoch + 1;
    metrics_.inc("master.restores");
    return true;
}

} // namespace dsi::dpp
