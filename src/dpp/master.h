/**
 * @file
 * DPP control plane: the Master (Section III-B1).
 *
 * The Master turns the session's petabyte-scale workload into
 * independent, self-contained *splits* (successive row ranges of the
 * dataset), serves them to Workers on request, tracks completion,
 * checkpoints reader state for fault tolerance, restarts failed
 * Workers' splits (Workers are stateless, so no Worker checkpoint is
 * needed), and is itself replicable via checkpoint/restore.
 *
 * Thread safety: the split-distribution API (registerWorker,
 * acquireSplit, completeSplit, failWorker, progress, checkpoint,
 * restore) is mutex-guarded so many parallel Workers — and the many
 * extract threads inside each one — can call in concurrently, as the
 * RPC server of a production Master would.
 *
 * A Master is a single-tenant WorkSource (work_source.h): Workers
 * wired straight to a Master see every grant tagged tenant 0. Fleet
 * deployments put a sched::FleetScheduler in front of many Masters
 * instead.
 */

#ifndef DSI_DPP_MASTER_H
#define DSI_DPP_MASTER_H

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dpp/checkpoint_journal.h"
#include "dpp/ledger.h"
#include "dpp/spec.h"
#include "dpp/work_source.h"
#include "warehouse/table.h"

namespace dsi::dpp {

/**
 * Serializable Master state for fault tolerance / replication.
 *
 * Versioned wire format: serialize() stamps kFormatVersion first and
 * deserialize() rejects any other version outright (a Master from the
 * future can read our checkpoints only by carrying the old decoder —
 * we never guess at unknown layouts). Beyond the v1 cursor +
 * completed set, v2 carries everything a cold replacement needs to
 * resume *without* redoing or double-charging work: failed splits,
 * per-split attempt counts, the delivered-stripe resume watermarks,
 * and the control-plane incarnation epoch.
 */
struct MasterCheckpoint
{
    /** Bumped when the wire format changes shape. */
    static constexpr uint64_t kFormatVersion = 2;

    /** Incarnation of the Master that wrote this (restore bumps it). */
    uint64_t epoch = 0;
    uint64_t next_split_cursor = 0;   ///< first unenumerated split
    std::vector<uint64_t> completed;  ///< completed split ids
    std::vector<uint64_t> failed;     ///< attempts-exhausted split ids

    /** (split id, failed attempts so far) for non-zero counts. */
    std::vector<std::pair<uint64_t, uint32_t>> attempts;

    /**
     * (split id, contiguous delivered-stripe prefix) for unfinished
     * splits: a re-granted split resumes extraction past stripes the
     * trainers already received (Split::resume_stripe).
     */
    std::vector<std::pair<uint64_t, uint32_t>> delivered_stripes;

    dwrf::Buffer serialize() const;
    static std::optional<MasterCheckpoint> deserialize(
        dwrf::ByteSpan data);
};

/**
 * When the Master writes durable checkpoints to its journal. All
 * triggers compose; each trigger is off at its zero value.
 */
struct CheckpointPolicy
{
    /** Periodic: maybeCheckpoint() writes if this much clock passed. */
    double interval_s = 0.0;

    /**
     * Event-driven: write whenever a split reaches a terminal state
     * (completed, or failed for good). On by default — terminal
     * transitions are exactly the state a replacement must not lose.
     */
    bool on_terminal = true;

    /**
     * Write every N delivered batches (noteDelivery). 1 makes the
     * ledger durable per delivery — the strict exactly-once-across-
     * crash setting; 0 disables the trigger.
     */
    uint64_t every_n_deliveries = 0;

    /** Journal retention (CheckpointJournal keep_records). */
    uint32_t keep_records = 4;
};

/**
 * Durable control-plane checkpointing + crash recovery (off by
 * default), consumed by InProcessSession and sched::FleetScheduler.
 * With a cluster attached, each Master journals versioned checkpoints
 * (its own state + its delivery ledger) per the policy; with
 * `recover` set, a freshly built control plane restores Master and
 * ledger from the newest valid journal record before any worker
 * starts — in-flight splits of the dead incarnation requeue (resuming
 * past delivered stripes) and already-delivered batches are
 * suppressed.
 */
struct RecoveryOptions
{
    /** Cluster the journal lives on (null = checkpointing off). Must
     * outlive the control plane. */
    storage::TectonicCluster *cluster = nullptr;

    /** Journal base name (records are `<base>.<seq>` files; a fleet
     * appends a per-tenant suffix). */
    std::string journal_base = "dpp/journal";

    CheckpointPolicy policy;

    /** Restore Master + ledger from the journal at construction. */
    bool recover = false;
};

/** Progress summary exposed to the trainer master / auto-scaler. */
struct SessionProgress
{
    uint64_t total_splits = 0;
    uint64_t completed_splits = 0;
    uint64_t inflight_splits = 0;
    uint64_t pending_splits = 0;
    uint64_t failed_splits = 0; ///< gave up after repeated attempts

    /** Every split reached a terminal state (completed or failed). */
    bool done() const
    {
        return completed_splits + failed_splits == total_splits;
    }
};

/**
 * Overload-protection knobs. Defaults keep every behaviour off so
 * existing callers see the old unconditional-grant semantics.
 */
struct AdmissionOptions
{
    /**
     * Splits one worker may hold concurrently; 0 = unlimited. A
     * worker at the cap is shed (Overloaded) instead of granted.
     */
    uint32_t max_inflight_per_worker = 0;

    /** Shed requests from workers reporting a full output buffer. */
    bool shed_on_full_buffer = true;

    /**
     * Per-split completion budget in seconds; 0 disables deadlines.
     * expireDeadlines() requeues splits that blow the budget, and the
     * grant carries the Deadline so the worker bounds its own reads.
     */
    double split_deadline_s = 0.0;
};

/** The DPP control-plane master for one session. */
class Master : public WorkSource
{
  public:
    Master(const warehouse::Warehouse &warehouse, SessionSpec spec);

    const SessionSpec &spec() const { return spec_; }

    /** Total splits the session will process. */
    uint64_t totalSplits() const { return splits_.size(); }

    /** Serialized transform graph Workers pull on startup. */
    const dwrf::Buffer &transformProgram() const
    {
        return spec_.serialized_transforms;
    }

    /** Register a Worker (returns its id). */
    WorkerId registerWorker() override;

    /**
     * The admission-controlled request path — the ONLY way to get a
     * split. (The old no-load requestSplit() wrapper is gone: it
     * reported an empty WorkerLoad, so full-buffer shedding silently
     * never applied to its callers and overload undercounted.)
     * Zombies are Rejected; an empty queue is NoWork; a caller over
     * the in-flight cap or reporting a full buffer is shed with
     * Overloaded (the split stays queued for a less-loaded worker —
     * Section VI-C overload protection); otherwise the split is
     * Granted with the session's per-split deadline attached.
     *
     * When tracing is on, the grant's lineage-root span parents on
     * the caller's ambient trace::currentParent() — kNoSpan for a
     * plain session, the tenant's fleet.tenant span under a fleet.
     */
    SplitGrant acquireSplit(WorkerId worker,
                            const WorkerLoad &load) override;

    /**
     * A Worker voluntarily returns an unfinished split (its deadline
     * expired mid-read, or it is draining for scale-down). The split
     * is requeued with no attempt penalty — nothing is wrong with the
     * data, only with this worker's timing.
     */
    void releaseSplit(WorkerId worker, uint64_t split_id);

    /**
     * Requeue in-flight splits whose completion deadline has passed
     * (the holding worker may be stuck in a storage stall; its late
     * completion will be dropped as stale and its duplicate rows
     * deduplicated by the client ledger). Returns how many expired.
     * No-op unless AdmissionOptions::split_deadline_s > 0.
     */
    uint64_t expireDeadlines();

    /** Configure overload protection (default: everything off). */
    void setAdmission(AdmissionOptions admission);

    /**
     * A Worker reports a split finished. Stale reports — from a
     * zombie whose lease expired, or for a split already requeued to
     * someone else — are counted and ignored, never fatal.
     */
    void completeSplit(WorkerId worker, uint64_t split_id);

    /**
     * A Worker reports a split it could not process (unreadable data
     * after reader-level retries). The split is requeued for another
     * attempt until the per-split attempt cap is hit, then marked
     * failed so the session can still terminate.
     */
    void failSplit(WorkerId worker, uint64_t split_id);

    // WorkSource overrides: a Master is a single-tenant source, so
    // the tenant id is ignored (a fleet routes per tenant instead).
    void completeSplit(WorkerId worker, TenantId,
                       uint64_t split_id) override
    {
        completeSplit(worker, split_id);
    }
    void failSplit(WorkerId worker, TenantId,
                   uint64_t split_id) override
    {
        failSplit(worker, split_id);
    }
    void releaseSplit(WorkerId worker, TenantId,
                      uint64_t split_id) override
    {
        releaseSplit(worker, split_id);
    }
    const SessionSpec &tenantSpec(TenantId) const override
    {
        return spec_;
    }
    const dwrf::Buffer &tenantProgram(TenantId) const override
    {
        return transformProgram();
    }

    /**
     * The health monitor (the worker pool's lease, or a manual
     * injection) declares a Worker dead: its in-flight splits return
     * to the pending queue for other Workers.
     */
    void failWorker(WorkerId worker) override;

    /** Total attempts a split gets before it is marked failed. */
    void setMaxSplitAttempts(uint32_t attempts);

    SessionProgress progress() const;

    // --- durable control-plane checkpointing ---

    /**
     * Attach a write-ahead checkpoint journal at `base` on `cluster`
     * and start writing per `policy`. The cluster must outlive the
     * Master. Idempotent re-attachment replaces the policy; the
     * journal resumes its sequence numbers past surviving records.
     */
    void enableJournal(storage::TectonicCluster &cluster,
                       std::string base, CheckpointPolicy policy = {});

    /**
     * Attach the session's delivery ledger: its snapshot rides inside
     * every journal record, and recoverFromJournal() restores it, so
     * exactly-once delivery survives control-plane death. Null
     * detaches. The ledger must outlive the Master.
     */
    void setLedger(DeliveryLedger *ledger);

    /**
     * Whole-Master recovery: scan the journal for the newest valid
     * record, restore Master state (and the attached ledger) from it,
     * and requeue previously in-flight splits without double-charging
     * attempts. False = cold start (no valid record, or its payload
     * did not validate) with state untouched. Emits a master.recover
     * span; torn/corrupt records skipped by the scan are counted as
     * master.checkpoint.corrupt_skipped.
     */
    bool recoverFromJournal();

    /**
     * A batch reached a trainer (called by the session / fleet drain
     * after the ledger claim). Drives the every_n_deliveries trigger.
     */
    void noteDelivery();

    /**
     * All batches of relative stripe `stripe` of `split_id` reached
     * trainers. Advances the contiguous delivered-stripe watermark
     * that re-grants resume from (Split::resume_stripe).
     */
    void noteStripeDelivered(uint64_t split_id, uint32_t stripe);

    /** Periodic tick: write a checkpoint if the interval elapsed. */
    void maybeCheckpoint();

    /** Force one durable checkpoint now (no-op without a journal). */
    void checkpointNow();

    /** Control-plane incarnation (0 until a restore bumps it). */
    uint64_t epoch() const;

    /** Checkpoint of reader state (Section III-B1). */
    MasterCheckpoint checkpoint() const;

    /**
     * Persist the checkpoint durably as a Tectonic file (production
     * masters checkpoint periodically so a replica can take over).
     */
    void checkpointToStorage(storage::TectonicCluster &cluster,
                             const std::string &name) const;

    /**
     * Restore from a checkpoint file. False (with
     * master.checkpoint_restore_failed counted) when the file is
     * missing, unreadable, or corrupt — the caller cold-starts from
     * the full split enumeration instead of aborting.
     */
    bool restoreFromStorage(const storage::TectonicCluster &cluster,
                            const std::string &name);

    /**
     * Restore from a checkpoint: completed splits stay completed,
     * everything else (including previously in-flight) is re-pending.
     * Models both Master fail-over and replicated-Master catch-up.
     * False (state unchanged) if the checkpoint references splits
     * this session does not have.
     */
    bool restore(const MasterCheckpoint &checkpoint);

    const Metrics &metrics() const { return metrics_; }

  private:
    void enumerateSplits(const warehouse::Warehouse &warehouse);
    /** Close the split's master.grant span, if one is open. */
    void endGrantSpanLocked(uint64_t split_id);
    /**
     * End `worker`'s grant of `split_id`; false (counting
     * `stale_metric`) when the worker no longer holds it.
     */
    bool takeGrantLocked(WorkerId worker, uint64_t split_id,
                         const char *stale_metric);
    /** Charge a failed attempt: requeue, or fail the split for good. */
    void chargeAttemptLocked(uint64_t split_id);
    MasterCheckpoint checkpointLocked() const;
    /** Append one journal record (master + ledger snapshot). */
    void writeCheckpointLocked();
    /** Drop resume-tracking state for a split gone terminal. */
    void clearWatermarkLocked(uint64_t split_id);

    mutable std::mutex mutex_; ///< guards split-distribution state
    SessionSpec spec_;
    std::vector<Split> splits_;
    std::deque<uint64_t> pending_;              ///< split ids
    std::map<uint64_t, WorkerId> inflight_;     ///< split -> worker
    std::set<uint64_t> completed_;
    std::set<uint64_t> failed_;                 ///< attempts exhausted
    std::map<uint64_t, uint32_t> attempts_;     ///< split -> failures
    std::map<uint64_t, double> deadline_at_;    ///< split -> nowSeconds()
    std::map<uint64_t, trace::SpanId> grant_spans_; ///< open grants
    AdmissionOptions admission_;
    uint32_t max_split_attempts_ = 3;
    WorkerId next_worker_ = 0;
    std::set<WorkerId> live_workers_;

    // Durable checkpointing (all guarded by mutex_; the journal is
    // not thread-safe and is serialized here). Lock order:
    // mutex_ -> {ledger, Tectonic} — both are leaves.
    std::unique_ptr<CheckpointJournal> journal_;
    CheckpointPolicy policy_;
    DeliveryLedger *ledger_ = nullptr;
    uint64_t epoch_ = 0; ///< incarnation; restore sets prior + 1
    double last_checkpoint_at_ = 0.0;
    uint64_t deliveries_since_checkpoint_ = 0;
    /** split -> contiguous delivered-stripe prefix (resume point). */
    std::map<uint64_t, uint32_t> resume_watermark_;
    /** Out-of-order stripe deliveries not yet folded into the prefix. */
    std::map<uint64_t, std::set<uint32_t>> stray_stripes_;

    Metrics metrics_;
};

} // namespace dsi::dpp

#endif // DSI_DPP_MASTER_H
