/**
 * @file
 * Low-overhead pipeline tracer: monotonic-clock spans and instant
 * events with explicit parent IDs, collected into per-thread buffers
 * and drained into the process-wide TraceLog.
 *
 * The paper diagnoses DSI bottlenecks by *measuring* the production
 * pipeline — per-stage data-stall attribution (Table VII), worker
 * utilization (Figure 9), IO-size distributions (Table VI). This
 * tracer is the reproduction's equivalent substrate: every delivered
 * batch carries a lineage (which split grant, which stripe reads,
 * which replica retries, where its wall-clock went) that tests and
 * benches assert over via TraceQuery (trace_query.h).
 *
 * Model:
 *
 *  - A *span* is a named [begin, end] interval with a parent SpanId
 *    (kNoSpan for roots). Begin/end may happen on different threads
 *    (e.g. a Master grant begins on the extract thread that acquired
 *    it and ends wherever the split completes).
 *  - An *instant* is a point event attached to a parent span
 *    (overload sheds, retries, hedge firings, injected faults).
 *  - A *complete* span is emitted in one shot once its duration is
 *    known (queue waits, batch delivery) — begin-time is sampled by a
 *    trace::Timer, so a span id never has to exist before its end.
 *
 * Propagation rules (see docs/OBSERVABILITY.md):
 *
 *  - Across components, the parent travels *explicitly*: SplitGrant,
 *    ExtractedStripe, and TensorBatch carry a SpanId.
 *  - Across abstraction boundaries whose signatures cannot carry it
 *    (RandomAccessSource::readChecked), the parent travels via the
 *    thread-local ScopedParent/currentParent() ambient context.
 *
 * Cost: every emission point is gated on one relaxed atomic load
 * (trace::on()); disabled tracing is a dead branch. Defining
 * DSI_TRACE_COMPILED_OUT (cmake -DDSI_DISABLE_TRACING=ON) turns
 * on() into a constant false and the compiler deletes the calls
 * entirely. Enabled emission appends to a per-thread shard under an
 * uncontended mutex (contended only by snapshot()).
 *
 * Thread safety: all of TraceLog, and every emit helper, are safe
 * from any thread. Event `name` pointers must have static storage
 * duration (string literals / the constants below).
 */

#ifndef DSI_COMMON_TRACE_H
#define DSI_COMMON_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dsi::trace {

using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = 0;

/** Canonical span names emitted by the live DPP path. */
namespace spans {
/** Split leased to a worker; ends when the split reaches a terminal
 * state at the Master (complete / fail / release / deadline-reap). */
inline constexpr const char *kMasterGrant = "master.grant";
/** One stripe extracted (read + decrypt + decompress + decode). */
inline constexpr const char *kExtractStripe = "worker.extract_stripe";
/** Backpressure wait pushing a stripe into the transform queue. */
inline constexpr const char *kQueuePushWait = "worker.queue_push_wait";
/** One stripe transformed and sliced into tensors. */
inline constexpr const char *kTransformStripe =
    "worker.transform_stripe";
/** Backpressure wait appending a tensor to the output buffer. */
inline constexpr const char *kBufferWait = "worker.buffer_wait";
/** One mini-batch run through the RecD batch-dedup pass: plan +
 * gather + transform-once-per-unique-row + inverse-index expand
 * (a0 = split id, a1 = rows in the batch). */
inline constexpr const char *kWorkerDedup = "worker.dedup";
/** One checked stripe read inside the DWRF reader (incl. retries). */
inline constexpr const char *kReaderStripe = "reader.read_stripe";
/** The reader's per-stream steps: Complete spans under the stripe
 * read (a0 = stream file offset, a1 = bytes the step consumed). CRC
 * verify of the stored bytes: */
inline constexpr const char *kReaderChecksum = "reader.checksum";
/** In-place decryption of the stored bytes. */
inline constexpr const char *kReaderDecrypt = "reader.decrypt";
/** Decompression into the reader's scratch. */
inline constexpr const char *kReaderDecompress = "reader.decompress";
/** Decoding raw stream bytes into batch columns (or a dictionary). */
inline constexpr const char *kReaderDecode = "reader.decode";
/** Decoding a dedup-encoded column: codes gather shared-dictionary
 * lists, the inline residue decodes as usual. */
inline constexpr const char *kReaderDictGather = "reader.dict_gather";
/** One logical read against a RandomAccessSource / Tectonic file. */
inline constexpr const char *kStorageRead = "storage.read";
/** One batch handed to a trainer by Client::next. */
inline constexpr const char *kClientDeliver = "client.deliver";
/** A tenant's lifetime inside a fleet scheduler: every master.grant
 * made on the tenant's behalf parents on this span, labeling the
 * whole lineage with the tenant (a0 = tenant id). */
inline constexpr const char *kFleetTenant = "fleet.tenant";
/** One tensor delivered to a tenant's ledger by the fleet drain. */
inline constexpr const char *kFleetDeliver = "fleet.deliver";
/** One durable control-plane checkpoint written to the journal
 * (a0 = record sequence number, a1 = record bytes). */
inline constexpr const char *kMasterCheckpoint = "master.checkpoint";
/** Whole-Master recovery from the journal (a0 = recovered record
 * sequence, a1 = splits requeued as pending). */
inline constexpr const char *kMasterRecover = "master.recover";
/** One anti-entropy scrub pass over every stored block replica;
 * per-replica results land on kReplicaQuarantine child instants. */
inline constexpr const char *kStorageScrub = "storage.scrub";
/** One repair-queue task executed: re-replicate lost replicas and
 * rewrite quarantined ones (a0 = block index, a1 = bytes written). */
inline constexpr const char *kStorageRepair = "storage.repair";
} // namespace spans

/** Canonical instant-event names. */
namespace events {
/** acquireSplit shed a request (admission control). */
inline constexpr const char *kOverloaded = "master.overloaded";
/** acquireSplit refused a zombie worker. */
inline constexpr const char *kRejected = "master.rejected";
/** The Master's sweep reaped an in-flight split's deadline. */
inline constexpr const char *kDeadlineExpired =
    "master.deadline_expired";
/** The reader re-fetched a stripe after a failed attempt. */
inline constexpr const char *kReaderRetry = "reader.retry";
/** A backup read was launched against another replica. */
inline constexpr const char *kHedgeIssued = "storage.hedge_issued";
/** The backup finished before the hedged primary. */
inline constexpr const char *kHedgeWin = "storage.hedge_win";
/** A replica was skipped because its circuit breaker was open. */
inline constexpr const char *kBreakerSkip = "storage.breaker_skip";
/** One replica block IO failed (read routes around it). */
inline constexpr const char *kReplicaError = "storage.replica_error";
/** The tectonic.read.corrupt fault point fired on a read. */
inline constexpr const char *kFaultCorrupt =
    "fault.tectonic.read.corrupt";
/** The worker.crash fault point fired on a worker. */
inline constexpr const char *kFaultWorkerCrash = "fault.worker.crash";
/** The client suppressed a replayed (already-delivered) batch. */
inline constexpr const char *kDuplicateSuppressed =
    "client.duplicate_suppressed";
/** The fleet preempted a worker's split for a higher class (a0 =
 * victim tenant, a1 = worker). */
inline constexpr const char *kFleetPreempt = "fleet.preempted";
/** A corrupt replica was detected and pulled from rotation, repair
 * enqueued (a0 = node hosting it, a1 = block index). */
inline constexpr const char *kReplicaQuarantine =
    "storage.replica_quarantined";
/** A storage node died permanently; its replicas are Lost and will
 * be re-replicated (a0 = node id). */
inline constexpr const char *kNodeDied = "storage.node_died";
} // namespace events

/** One recorded trace event. */
struct TraceEvent
{
    enum class Type : uint8_t
    {
        Begin,    ///< span opened (id, parent, ts)
        End,      ///< span closed (id, ts)
        Complete, ///< whole span in one event (id, parent, ts..end_ts)
        Instant,  ///< point event attached to `parent`
    };

    Type type = Type::Instant;
    SpanId id = kNoSpan;     ///< span id (unused for Instant)
    SpanId parent = kNoSpan; ///< parent span (Begin/Complete/Instant)
    const char *name = "";   ///< static-storage name
    double ts = 0.0;         ///< monotonic seconds (begin / instant)
    double end_ts = 0.0;     ///< Complete only
    uint64_t a0 = 0;         ///< per-name numeric args (split id,
    uint64_t a1 = 0;         ///< stripe index, offset, length, ...)
    uint32_t tid = 0;        ///< small per-thread ordinal
};

/**
 * The process-wide collection point. A never-destroyed singleton (the
 * FaultInjector idiom) so emitters on stray threads — e.g. hedge-pool
 * laggards outliving a session — can never touch a dead object.
 * Sessions clear() it at run start and snapshot() at run end.
 */
class TraceLog
{
  public:
    static TraceLog &instance();

    /** Start collecting (idempotent). */
    void enable();
    /** Stop collecting; buffered events stay snapshottable. */
    void disable();
    bool enabled() const;

    /** Drop every buffered event and restart span-id allocation. */
    void clear();

    /** Copy of every event so far, sorted by (ts, id). */
    std::vector<TraceEvent> snapshot() const;

    /** Events currently buffered (approximate while threads emit). */
    size_t eventCount() const;

  private:
    friend SpanId emitBegin(const char *, SpanId, uint64_t, uint64_t);
    friend void emitEnd(SpanId, const char *);
    friend void emitComplete(const char *, SpanId, double, double,
                             uint64_t, uint64_t);
    friend void emitInstant(const char *, SpanId, uint64_t, uint64_t);

    /** One thread's buffer; the mutex is contended only by snapshot. */
    struct Shard
    {
        std::mutex mutex;
        std::vector<TraceEvent> events;
    };

    TraceLog() = default;

    /** This thread's shard for the current generation. */
    Shard *shard();
    void append(TraceEvent ev);
    SpanId nextSpanId();

    mutable std::mutex registry_mutex_;
    std::vector<std::shared_ptr<Shard>> shards_;
    uint64_t generation_ = 1;
    std::atomic<uint64_t> next_span_{1};
};

namespace detail {
/** The one flag every emission point loads (relaxed). */
extern std::atomic<bool> g_enabled;
} // namespace detail

/** True when tracing is collecting events. */
inline bool
on()
{
#ifdef DSI_TRACE_COMPILED_OUT
    return false;
#else
    return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

/** True when the DSI_TRACE environment variable asks for tracing. */
bool envEnabled();

/** Monotonic wall clock, seconds. */
double nowSeconds();

// Out-of-line emission (called only when on()).
SpanId emitBegin(const char *name, SpanId parent, uint64_t a0,
                 uint64_t a1);
void emitEnd(SpanId id, const char *name);
void emitComplete(const char *name, SpanId parent, double begin_ts,
                  double end_ts, uint64_t a0, uint64_t a1);
void emitInstant(const char *name, SpanId parent, uint64_t a0,
                 uint64_t a1);

/** Open a span; kNoSpan when tracing is off. */
inline SpanId
beginSpan(const char *name, SpanId parent, uint64_t a0 = 0,
          uint64_t a1 = 0)
{
    return on() ? emitBegin(name, parent, a0, a1) : kNoSpan;
}

/** Close a span opened by beginSpan (no-op for kNoSpan). */
inline void
endSpan(SpanId id, const char *name)
{
    if (id != kNoSpan && on())
        emitEnd(id, name);
}

/** Record a point event under `parent`. */
inline void
instant(const char *name, SpanId parent = kNoSpan, uint64_t a0 = 0,
        uint64_t a1 = 0)
{
    if (on())
        emitInstant(name, parent, a0, a1);
}

/** RAII span: begins at construction, ends at destruction (or end()). */
class Span
{
  public:
    Span(const char *name, SpanId parent, uint64_t a0 = 0,
         uint64_t a1 = 0)
        : name_(name), id_(beginSpan(name, parent, a0, a1))
    {
    }
    ~Span() { end(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    SpanId id() const { return id_; }

    /** Close early (idempotent). */
    void end()
    {
        endSpan(id_, name_);
        id_ = kNoSpan;
    }

  private:
    const char *name_;
    SpanId id_;
};

/**
 * One-shot span timer: samples begin-time at construction (only when
 * tracing is on) and emits a Complete span when the duration is
 * known. Used where the parent is only known at the end (a delivered
 * batch) or where a Begin/End pair would double the event volume
 * (queue waits).
 */
class Timer
{
  public:
    Timer() : begin_(on() ? nowSeconds() : 0.0) {}

    /** Emit the Complete span ending now (no-op if tracing was off). */
    void complete(const char *name, SpanId parent, uint64_t a0 = 0,
                  uint64_t a1 = 0)
    {
        if (begin_ != 0.0 && on())
            emitComplete(name, parent, begin_, nowSeconds(), a0, a1);
    }

  private:
    double begin_;
};

/**
 * Ambient (thread-local) parent for layers whose signatures cannot
 * carry a TraceContext — e.g. RandomAccessSource::readChecked picks
 * up the reader's stripe span through here.
 */
SpanId currentParent();

/** Sets the ambient parent for a scope; restores on destruction. */
class ScopedParent
{
  public:
    explicit ScopedParent(SpanId parent);
    ~ScopedParent();

    ScopedParent(const ScopedParent &) = delete;
    ScopedParent &operator=(const ScopedParent &) = delete;

  private:
    SpanId prev_;
};

/**
 * Render events in Chrome trace-viewer JSON (load via
 * chrome://tracing or ui.perfetto.dev). Same-thread spans become
 * "B"/"E" duration events, cross-thread spans become "b"/"e" async
 * pairs keyed by span id, Complete spans become "X", instants "i".
 * Timestamps are microseconds relative to the first event.
 */
std::string chromeTraceJson(const std::vector<TraceEvent> &events);

/** Write chromeTraceJson(events) to `path`; false on IO failure. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<TraceEvent> &events);

} // namespace dsi::trace

#endif // DSI_COMMON_TRACE_H
