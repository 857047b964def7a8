/**
 * @file
 * WorkSource: the control-plane interface a Worker pulls splits from.
 *
 * The paper provisions DPP at *fleet* scope — hundreds of concurrent
 * training jobs share preprocessing workers, with RC jobs prioritized
 * over exploratory ones (Figures 4-6). That requires workers to be
 * tenant-agnostic: a worker does not belong to one session's Master,
 * it asks "the control plane" for work and may be granted a split
 * from any session. WorkSource is that seam:
 *
 *  - A single-session deployment hands the Worker its Master directly
 *    (Master implements WorkSource with every tenant id = 0), so the
 *    classic InProcessSession wiring is unchanged.
 *  - A fleet deployment hands the Worker a sched::FleetScheduler,
 *    which multiplexes many Masters behind one WorkSource and tags
 *    each grant with the tenant it came from. The Worker routes every
 *    split-lifecycle call (complete / fail / release) back through
 *    the tenant id the grant carried, and fetches the per-tenant
 *    transform program / spec on demand.
 *
 * Thread safety: implementations must accept concurrent calls from
 * many workers and the many extract threads inside each one, exactly
 * like the Master's RPC surface.
 */

#ifndef DSI_DPP_WORK_SOURCE_H
#define DSI_DPP_WORK_SOURCE_H

#include <optional>

#include "common/deadline.h"
#include "common/trace.h"
#include "dpp/spec.h"

namespace dsi::dpp {

/** Outcome of a split request under admission control. */
enum class GrantStatus
{
    Granted,    ///< a split was leased to the caller
    NoWork,     ///< no pending work will ever arrive — idle or drain
    Standby,    ///< nothing *right now*; stay alive and ask again
    Overloaded, ///< request shed: back off, then ask again
    Rejected,   ///< caller is a zombie; it must stop working
};

/**
 * Worker-side load snapshot attached to a split request, the signal
 * admission control sheds on. A production Worker piggybacks this on
 * its getWork RPC.
 */
struct WorkerLoad
{
    uint64_t buffered_tensors = 0; ///< output buffer occupancy
    bool buffer_full = false;      ///< trainers are not keeping up
};

/** A granted split plus the time budget it must complete within. */
struct SplitGrant
{
    GrantStatus status = GrantStatus::NoWork;
    std::optional<Split> split;
    Deadline deadline; ///< unbounded when deadlines are disabled

    /**
     * Which tenant's session this split belongs to. Every lifecycle
     * call the worker makes for the split must echo it back. Always 0
     * when the WorkSource is a single-session Master.
     */
    TenantId tenant = 0;

    /**
     * Root span of the split's lineage (master.grant), opened when
     * the split is Granted and closed when it reaches a terminal
     * state at the Master. Everything the worker does with the split
     * parents on this id. kNoSpan when tracing is off.
     */
    trace::SpanId trace = trace::kNoSpan;
};

/** The control plane a tenant-agnostic Worker pulls work from. */
class WorkSource
{
  public:
    virtual ~WorkSource() = default;

    /** Register a Worker (returns its id in this source's space). */
    virtual WorkerId registerWorker() = 0;

    /**
     * The admission-controlled request path. Zombies are Rejected; an
     * exhausted source is NoWork; a source that is merely between
     * arrivals answers Standby (the worker stays alive and re-polls);
     * an overloaded caller is shed with Overloaded. A Granted split
     * carries the tenant it must be accounted against.
     */
    virtual SplitGrant acquireSplit(WorkerId worker,
                                    const WorkerLoad &load) = 0;

    /** A Worker reports a tenant's split finished (delivery-gated). */
    virtual void completeSplit(WorkerId worker, TenantId tenant,
                               uint64_t split_id) = 0;

    /** A Worker gives up on a tenant's split (unreadable data). */
    virtual void failSplit(WorkerId worker, TenantId tenant,
                           uint64_t split_id) = 0;

    /**
     * A Worker voluntarily hands a tenant's split back unfinished
     * (deadline blown, drain, or preemption) — requeued, no attempt
     * penalty.
     */
    virtual void releaseSplit(WorkerId worker, TenantId tenant,
                              uint64_t split_id) = 0;

    /**
     * The worker pool declares `worker` dead (lease expired or
     * crashed): every split it holds requeues for other workers, and
     * its later calls are treated as a zombie's — every acquireSplit
     * is Rejected, under a fleet whichever tenant it would reach, and
     * its split reports are stale.
     */
    virtual void failWorker(WorkerId worker) = 0;

    /** The session spec a tenant's splits are processed under. */
    virtual const SessionSpec &tenantSpec(TenantId tenant) const = 0;

    /** Serialized transform program for a tenant (pulled lazily). */
    virtual const dwrf::Buffer &
    tenantProgram(TenantId tenant) const = 0;
};

} // namespace dsi::dpp

#endif // DSI_DPP_WORK_SOURCE_H
