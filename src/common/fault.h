/**
 * @file
 * Named fault-injection points for fault-tolerance testing.
 *
 * Production ingestion treats partial failure as the steady state:
 * workers die mid-split, replicas serve corrupt bytes, storage nodes
 * go away, and slow disks stall reads. The chaos suite exercises the
 * recovery paths by arming named *fault points* that the storage /
 * DWRF / DPP stack consults at its failure seams.
 *
 * A fault point is identified by a stable string (see dsi::faults).
 * Arming a point attaches a FaultSpec that decides, per hit, whether
 * the point *fires*:
 *
 *  - `trigger_hit` fires deterministically on exactly the Nth hit
 *    (one-shot triggers — "the third stripe read is corrupt");
 *  - otherwise `probability` draws from the injector's seeded Rng, so
 *    chaos runs are bit-stable under a fixed seed;
 *  - `max_fires` bounds total fires (1 = probabilistic one-shot);
 *  - `latency_seconds > 0` turns the point into a *delay* fault: when
 *    it fires the caller is stalled instead of failing (slow
 *    replicas). The injector never sleeps: stallSeconds() reports the
 *    stall and the seam decides how to spend it.
 *
 * Unarmed points cost one relaxed atomic load, so fault points can sit
 * on hot paths permanently.
 */

#ifndef DSI_COMMON_FAULT_H
#define DSI_COMMON_FAULT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/rng.h"

namespace dsi {

/** Fault points wired through the storage -> DWRF -> DPP stack. */
namespace faults {

/** A DPP worker dies mid-split (stops producing and heartbeating). */
inline constexpr const char *kWorkerCrash = "worker.crash";

/** One logical Tectonic read returns corrupted bytes. */
inline constexpr const char *kTectonicReadCorrupt =
    "tectonic.read.corrupt";

/** One replica fails to serve a block IO (read routes around it). */
inline constexpr const char *kTectonicReplicaError =
    "tectonic.replica.error";

/**
 * Bit-rot lands on one *specific* replica: the replica the router
 * chose is marked Corrupt in the cluster's health map and stays
 * corrupt until read-repair or the scrubber heals it — unlike
 * tectonic.read.corrupt, which damages only the returned buffer.
 */
inline constexpr const char *kTectonicReplicaCorrupt =
    "tectonic.replica.corrupt";

/**
 * The node serving the chosen replica dies *permanently*: every
 * replica it hosted becomes Lost and must be re-replicated elsewhere
 * (unlike failNode, which only removes the node from routing).
 */
inline constexpr const char *kTectonicNodeDie = "tectonic.node.die";

/** A slow replica: the read stalls for `latency_seconds`. */
inline constexpr const char *kTectonicReadDelay = "tectonic.read.delay";

/** Any RandomAccessSource: the checked read fails (IO error). */
inline constexpr const char *kSourceReadError = "source.read.error";

/** Any RandomAccessSource: the checked read returns flipped bytes. */
inline constexpr const char *kSourceReadCorrupt = "source.read.corrupt";

/**
 * Control plane dies between staging and publishing a checkpoint
 * record: the record never becomes visible to recovery.
 */
inline constexpr const char *kCheckpointWriteCrash =
    "checkpoint.write.crash";

/** A published checkpoint record loses its tail (torn write). */
inline constexpr const char *kCheckpointWriteTorn =
    "checkpoint.write.torn";

/** A published checkpoint record has a bit flipped mid-record. */
inline constexpr const char *kCheckpointWriteCorrupt =
    "checkpoint.write.corrupt";

} // namespace faults

/** How an armed fault point decides to fire. */
struct FaultSpec
{
    /** Chance a hit fires (used when trigger_hit == 0). */
    double probability = 1.0;

    /** If > 0, fire deterministically on exactly this (1-based) hit. */
    uint64_t trigger_hit = 0;

    /** Cap on total fires; 0 = unlimited. */
    uint64_t max_fires = 0;

    /**
     * If > 0 this is a *delay* fault: a firing hit stalls its caller
     * this long and then succeeds instead of failing. The stall is
     * reported by stallSeconds(), not slept by the injector.
     */
    double latency_seconds = 0.0;
};

/**
 * Process-wide registry of armed fault points. Thread-safe: hits can
 * arrive from every pipeline thread concurrently; arming/disarming is
 * expected from the test driver.
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** Arm (or re-arm, resetting counters) a point. */
    void arm(const std::string &point, FaultSpec spec);

    void disarm(const std::string &point);

    /** Disarm everything and clear all counters. */
    void reset();

    /** Reseed the probability stream (chaos runs fix this). */
    void seed(uint64_t s);

    /**
     * Record a hit at `point`; true if the point fires as an *error*
     * fault. A firing delay fault returns false.
     */
    bool shouldFail(const std::string &point);

    /**
     * Record a hit at `point`; the `latency_seconds` of a firing
     * delay fault, else 0. Never sleeps.
     */
    double stallSeconds(const std::string &point);

    bool armed(const std::string &point) const;
    uint64_t hits(const std::string &point) const;
    uint64_t fires(const std::string &point) const;

  private:
    FaultInjector() = default;

    /** Count one hit; true if it fires, with the spec's latency. */
    bool hit(const std::string &point, double &latency_seconds);

    struct PointState
    {
        FaultSpec spec;
        uint64_t hits = 0;
        uint64_t fires = 0;
    };

    mutable std::mutex mutex_;
    std::map<std::string, PointState> points_;
    Rng rng_{0x5eed5eedULL};
    std::atomic<uint64_t> armed_count_{0};
};

/** Check a fault point (the one-liner used at injection seams). */
inline bool
faultPoint(const char *point)
{
    return FaultInjector::instance().shouldFail(point);
}

/** Arms a fault point for a scope; disarms on destruction. */
class ScopedFault
{
  public:
    ScopedFault(std::string point, FaultSpec spec)
        : point_(std::move(point))
    {
        FaultInjector::instance().arm(point_, spec);
    }
    ~ScopedFault() { FaultInjector::instance().disarm(point_); }

    ScopedFault(const ScopedFault &) = delete;
    ScopedFault &operator=(const ScopedFault &) = delete;

  private:
    std::string point_;
};

} // namespace dsi

#endif // DSI_COMMON_FAULT_H
