/**
 * @file
 * Tectonic-like distributed append-only filesystem simulator with a
 * self-healing durability plane.
 *
 * Files are split into fixed-size blocks placed (with replication and
 * node spread) across storage nodes. Each node models an HDD or SSD
 * device (sim/device.h) and accounts every IO's service time, so
 * experiments can report node IOPS, utilization and the HDD
 * throughput-to-storage gap (Section VII).
 *
 * File bytes are held once in cluster memory; block placement is
 * metadata used for routing and accounting. On top of the placement
 * metadata the cluster tracks *per-replica health* — every
 * (block, replica) is Healthy, Corrupt (latent bit-rot), Quarantined
 * (detected corrupt, out of rotation), or Lost (its node died
 * permanently) — plus a CRC32-C per block stamped at placement.
 * Three healing paths cooperate through a repair queue prioritized by
 * remaining-replica count:
 *
 *  - read-repair: a verified read that lands on a corrupt replica
 *    quarantines it, serves from a healthy copy, and enqueues repair;
 *  - a background scrubber (startHealer) anti-entropy-scans block
 *    replicas at a bytes/sec budget, with the verify IO accounted
 *    against the node device models;
 *  - automatic re-replication after permanent node death (dieNode)
 *    and graceful decommission draining (decommissionNode).
 *
 * An optional SSD cache tier absorbs reads of popular blocks (the
 * Section VII heterogeneous-storage opportunity).
 */

#ifndef DSI_STORAGE_TECTONIC_H
#define DSI_STORAGE_TECTONIC_H

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "dwrf/source.h"
#include "sim/device.h"

namespace dsi::storage {

/** Storage media tier of a node. */
enum class Tier
{
    Hdd,
    Ssd,
};

/** One storage node: a device model plus cumulative IO accounting. */
class StorageNode
{
  public:
    StorageNode(NodeId id, Tier tier);

    NodeId id() const { return id_; }
    Tier tier() const { return tier_; }

    /** Account one IO of `bytes` against this node's device. */
    void recordIo(Bytes bytes);

    uint64_t ioCount() const { return io_count_; }
    Bytes bytesServed() const { return bytes_served_; }

    /** Total device-busy seconds implied by the recorded IOs. */
    double busySeconds() const { return busy_seconds_; }

    void resetAccounting();

  private:
    NodeId id_;
    Tier tier_;
    sim::HddNodeModel hdd_;
    sim::SsdNodeModel ssd_;
    uint64_t io_count_ = 0;
    Bytes bytes_served_ = 0;
    double busy_seconds_ = 0.0;
};

/** Percentile of observed read latency that arms a hedged read. */
inline constexpr double kHedgeDelayPercentile = 99.0;

/**
 * Hedged-read (tail-tolerance) configuration. When a read has taken
 * longer than the kHedgeDelayPercentile of recent reads, a backup
 * read is issued against another replica and the first success wins
 * — the "hedged requests" technique of The Tail at Scale. Until enough
 * latency samples accumulate, `min_delay_s` is the hedge trigger.
 */
struct HedgeOptions
{
    bool enabled = false;

    /** Floor (and cold-start value) of the hedge delay. */
    double min_delay_s = 0.0002;

    /** Cap on the hedge delay, whatever the percentile says. */
    double max_delay_s = 0.05;

    /** Latency samples needed before the percentile is trusted. */
    uint64_t min_samples = 32;
};

/** Health of one placed replica of one block. */
enum class ReplicaHealth : uint8_t
{
    Healthy,     ///< a verified, servable copy
    Corrupt,     ///< latent bit-rot: undetected, still in rotation
    Quarantined, ///< detected corrupt: out of rotation, repair pending
    Lost,        ///< its node died permanently / was decommissioned
};

const char *replicaHealthName(ReplicaHealth h);

/** Background healer (scrubber + repair executor) pacing. */
struct HealOptions
{
    /**
     * Anti-entropy scan budget: bytes of replica data verified per
     * second. The verify IO is accounted against the node device
     * models, so scrub cost shows up in busySeconds()/power.
     */
    double scrub_bytes_per_sec = 64.0 * 1024 * 1024;

    /** Repair/re-replication budget (bytes/sec written); 0 = unpaced. */
    double repair_bytes_per_sec = 0.0;

    /** Sleep between healer passes when there is nothing to do. */
    double idle_wait_s = 0.002;
};

/** Cluster-wide configuration. */
struct StorageOptions
{
    Bytes block_size = 8_MiB;
    uint32_t replication = 3;
    uint32_t hdd_nodes = 8;

    /** Blocks the SSD cache can hold; 0 disables the cache. */
    uint64_t cache_blocks = 0;
    uint64_t seed = 1;

    /**
     * Verify reads against per-replica health (production storage
     * checksums every read): a read landing on a corrupt replica is
     * detected at the cluster, the replica is quarantined and
     * repair-enqueued, and the bytes are re-served from a healthy
     * copy. When false, corrupt replicas serve damaged bytes and
     * detection falls to the DWRF stream checksums downstream (whose
     * reportCorruption feedback still triggers quarantine + repair).
     */
    bool verify_reads = true;

    /** Hedged stripe reads (off by default; benches/sessions opt in). */
    HedgeOptions hedge;

    /**
     * Per-storage-node circuit breaker: a node with this many
     * consecutive failed block IOs is ejected from replica rotation
     * until a half-open probe succeeds. failure_threshold = 0
     * disables breakers entirely.
     */
    CircuitBreakerOptions breaker;
};

/** Outcome of one anti-entropy scrub pass. */
struct ScrubReport
{
    uint64_t blocks_scanned = 0;   ///< blocks visited
    uint64_t replicas_verified = 0;///< per-replica CRC verifications
    Bytes bytes_verified = 0;      ///< replica bytes read for verify
    uint64_t corrupt_found = 0;    ///< replicas quarantined this pass
};

class TectonicCluster;

/**
 * Read adapter exposing one stored file as a dwrf::RandomAccessSource.
 * Reads are routed to block replicas (and the cache) with full
 * accounting; a logical IO spanning blocks fans out to each node.
 *
 * readChecked() is the failure-aware entry point: a read whose blocks
 * cannot all be served by live replicas returns IoStatus::Unavailable
 * instead of aborting, and armed fault points (tectonic.read.*,
 * tectonic.replica.*, tectonic.node.die) can inject corruption,
 * replica errors, permanent node death, and latency. It is the one
 * read path: hedged and unhedged reads both run inline on the calling
 * thread. The inherited read() is its fail-stop wrapper for callers
 * without a recovery path.
 *
 * reportCorruption() closes the loop with the DWRF reader: a stream
 * failing its footer CRC audits the replicas of the covered blocks,
 * quarantining any corrupt copy and enqueueing read-repair.
 */
class TectonicSource : public dwrf::RandomAccessSource
{
  public:
    TectonicSource(const TectonicCluster &cluster, std::string name);

    Bytes size() const override;
    dwrf::IoStatus readChecked(Bytes offset, Bytes len,
                               dwrf::Buffer &out) const override;
    void reportCorruption(Bytes offset, Bytes len) const override;
    const dwrf::IoTrace &trace() const override { return trace_; }
    void clearTrace() override { trace_.clear(); }

  private:
    const TectonicCluster &cluster_;
    std::string name_;
    mutable dwrf::IoTrace trace_;
};

/** The distributed filesystem: files, placement, nodes, cache. */
class TectonicCluster
{
  public:
    explicit TectonicCluster(StorageOptions options);
    ~TectonicCluster();

    TectonicCluster(const TectonicCluster &) = delete;
    TectonicCluster &operator=(const TectonicCluster &) = delete;

    /** Create (or truncate) an append-only file. */
    void create(const std::string &name);

    /** Append bytes; blocks are placed (and CRC-stamped) as they fill. */
    void append(const std::string &name, dwrf::ByteSpan data);

    /** Store a whole file in one call. */
    void put(const std::string &name, dwrf::ByteSpan data)
    {
        create(name);
        append(name, data);
    }

    bool exists(const std::string &name) const
    {
        std::scoped_lock lock(meta_mutex_);
        return files_.count(name) != 0;
    }

    /**
     * Delete a file (retention / reaping). Frees logical bytes and
     * invalidates any open TectonicSource for it.
     */
    void remove(const std::string &name);
    Bytes fileSize(const std::string &name) const;
    std::vector<std::string> listFiles() const;
    /** Files whose names start with `prefix` (journal scans). */
    std::vector<std::string> listFiles(const std::string &prefix) const;

    /** Open a file for reading. */
    std::unique_ptr<TectonicSource> open(const std::string &name) const;

    // --- accounting ---
    /** Logical bytes stored (pre-replication). */
    Bytes logicalBytes() const
    {
        std::scoped_lock lock(meta_mutex_);
        return logical_bytes_;
    }
    /**
     * Physical bytes actually materialized on nodes: per block, the
     * block's bytes times its replicas that still exist (any health
     * but Lost). Under-replicated or mid-repair blocks therefore
     * report fewer bytes than logical * replication.
     */
    Bytes physicalBytes() const;

    const std::vector<StorageNode> &nodes() const { return nodes_; }
    std::vector<StorageNode> &nodes() { return nodes_; }

    uint64_t cacheHits() const
    {
        std::scoped_lock lock(io_mutex_);
        return cache_hits_;
    }
    uint64_t cacheMisses() const
    {
        std::scoped_lock lock(io_mutex_);
        return cache_misses_;
    }
    double cacheHitRate() const
    {
        std::scoped_lock lock(io_mutex_);
        uint64_t total = cache_hits_ + cache_misses_;
        return total ? static_cast<double>(cache_hits_) / total : 0.0;
    }

    /**
     * Mark a storage node dead (transient maintenance / failure).
     * Reads route to surviving replicas; checked reads report
     * Unavailable only if every replica of a needed block is
     * unservable. Replica health is untouched — the node's copies
     * come back with recoverNode(). Safe to call while reads are in
     * flight — chaos tests kill nodes mid-session.
     */
    void failNode(NodeId id);

    /**
     * Bring a node back from failNode (or give a permanently dead
     * node's chassis a second life as an empty placement target).
     * Resets the node's circuit breaker and the replica-rotation
     * cursor so the recovered node is neither skipped for pre-failure
     * history nor hammered to catch up.
     */
    void recoverNode(NodeId id);
    uint32_t liveNodes() const;

    /**
     * Permanent node death: the node leaves routing forever and every
     * replica it hosted becomes Lost. Affected blocks are enqueued
     * for re-replication, prioritized by how few replicas they have
     * left. No data is lost while concurrent permanent failures stay
     * below the replication factor.
     */
    void dieNode(NodeId id);

    /**
     * Graceful decommission: the node stops receiving placements and
     * its replicas are drained (moved) to other nodes through the
     * repair queue while it keeps serving reads. Once the last
     * replica has moved off, the node retires from routing.
     */
    void decommissionNode(NodeId id);

    /** True once a node is draining (or already drained). */
    bool nodeDraining(NodeId id) const;

    /** Block replicas currently hosted by a node. */
    uint64_t nodeBlockCount(NodeId id) const;

    // --- self-healing surface ---

    /**
     * Test hook: silently rot one replica of one block (what the
     * tectonic.replica.corrupt fault does to the replica the router
     * chose, but deterministic).
     */
    void corruptReplica(const std::string &name, uint64_t block_index,
                        uint32_t replica_index);

    /** Health of one placed replica (tests / observability). */
    ReplicaHealth replicaHealth(const std::string &name,
                                uint64_t block_index,
                                uint32_t replica_index) const;

    /**
     * Blocks with fewer intact (non-quarantined, non-lost) replicas
     * than placed. Also refreshes the storage.under_replicated_blocks
     * gauge.
     */
    uint64_t underReplicatedBlocks() const;

    /**
     * One full anti-entropy pass, synchronously: verify every
     * non-lost replica of every block against the stamped block CRC,
     * quarantine corrupt copies, and enqueue their repair. Verify IO
     * is accounted against each replica's node. The background healer
     * runs exactly this scan, paced by HealOptions.
     */
    ScrubReport scrubOnce() const;

    /**
     * Run queued repairs until the queue is empty or nothing can make
     * progress (no healthy source or no placement target — such tasks
     * are parked and retried on the next call). Returns replicas
     * repaired. The background healer drains the same queue paced by
     * HealOptions::repair_bytes_per_sec.
     */
    uint64_t drainRepairQueue() const;

    /** Repair tasks currently queued (including parked ones). */
    size_t repairQueueDepth() const;

    /**
     * Start the background healer thread: drains the repair queue and
     * scrubs continuously at the configured budgets. Idempotent;
     * stopHealer() (or destruction) joins it.
     */
    void startHealer(HealOptions options = {}) const;
    void stopHealer() const;
    bool healerRunning() const;

    /**
     * Fault-path counters (tectonic.replica_read_errors,
     * tectonic.failed_reads, tectonic.corrupt_reads), tail-path
     * counters (tectonic.hedges_issued, tectonic.hedge_wins,
     * tectonic.breaker_skips, breaker.*), and the self-healing
     * family (storage.under_replicated_blocks, storage.scrub.*,
     * storage.repair.*, storage.read_repair, storage.replicas_*).
     */
    const Metrics &metrics() const { return metrics_; }

    // --- overload protection / tail tolerance ---

    /** Enable or reconfigure hedged reads on a live cluster. */
    void setHedging(HedgeOptions hedge);

    /**
     * Current hedge trigger: the kHedgeDelayPercentile of observed
     * read latency (clamped to [min_delay_s, max_delay_s]), or
     * min_delay_s until min_samples reads have been observed. The
     * percentile comes from a fixed-size LogLinearHistogram: never
     * below the exact value, at most 1/16 above it (before the clamp).
     */
    double hedgeDelaySeconds() const;

    /** Breaker state of one storage node (tests/observability). */
    CircuitBreaker::State breakerState(NodeId id) const;

    void resetAccounting();

    const StorageOptions &options() const { return options_; }

  private:
    friend class TectonicSource;

    struct Replica
    {
        NodeId node = 0;
        ReplicaHealth health = ReplicaHealth::Healthy;
    };
    struct BlockLocation
    {
        /** Mutable: health transitions happen on const read paths
         * (quarantine under io_mutex_), like the rest of the routing
         * state. */
        mutable std::vector<Replica> replicas;
        uint32_t crc = 0;          ///< CRC32-C stamped at placement
        mutable bool queued = false; ///< already in the repair queue
    };
    struct FileState
    {
        dwrf::Buffer data;
        std::vector<BlockLocation> blocks;
    };
    struct RepairTask
    {
        std::string file;
        uint64_t block = 0;
    };
    /** Outcome of one replica IO attempt inside routeBlockRead. */
    enum class ReplicaIo
    {
        Served,        ///< clean bytes, accounted
        ServedCorrupt, ///< rotten bytes served (verify_reads off)
        Failed,        ///< error / died / quarantined-on-detect
    };

    /**
     * Route one intra-block read, handling cache, replica health, and
     * replica choice. Returns false when no servable replica could
     * serve the block (the recoverable all-replicas-down case); sets
     * `served_corrupt` when a latent-corrupt replica's bytes were
     * returned (verify_reads off). Mutex-guarded: many DPP extract
     * threads read concurrently through their own TectonicSources,
     * but cache state, replica rotation and health, node liveness,
     * the repair queue, and per-node accounting are cluster-wide.
     * The file namespace (create/append/remove/list) is guarded by
     * meta_mutex_ so control-plane checkpoint journaling can write
     * while training reads; concurrent reads of a file *being
     * appended to* remain undefined — no caller reads a file before
     * its writer publishes it whole.
     */
    bool routeBlockRead(const std::string &name, const FileState &file,
                        uint64_t block_index, Bytes bytes,
                        bool &served_corrupt) const;

    /**
     * One full logical read attempt of a stored file range: delay
     * fault, byte copy, corruption fault, block fan-out with replica
     * routing. An injected delay is not slept: `latency_s` is set to
     * the attempt's elapsed time plus the stall, which is also what
     * read_latency_ records, and the caller decides when to wait it
     * out.
     */
    dwrf::IoStatus readFileRange(const std::string &name, Bytes offset,
                                 Bytes len, dwrf::Buffer &out,
                                 double &latency_s) const;

    /** The hedge trigger under `hedge` (lock-free). */
    double hedgeDelaySeconds(const HedgeOptions &hedge) const;

    /** One replica IO attempt; breaker-, health- and fault-aware.
     * Caller holds io_mutex_. */
    ReplicaIo tryReplicaIo(const std::string &name,
                           const FileState &file, uint64_t block_index,
                           const BlockLocation &loc,
                           uint32_t replica_index, Bytes bytes,
                           double now) const;

    /** Quarantine one latent-corrupt replica and enqueue its repair.
     * Caller holds io_mutex_. */
    void quarantineLocked(const std::string &name,
                          const BlockLocation &loc,
                          uint32_t replica_index,
                          uint64_t block_index) const;

    /** Put a block on the repair queue (dedup via loc.queued).
     * Caller holds io_mutex_. */
    void enqueueRepairLocked(const std::string &name,
                             const BlockLocation &loc,
                             uint64_t block_index) const;

    /** Transition one replica's health, keeping the under-replication
     * count and gauge consistent. Caller holds io_mutex_. */
    void setReplicaHealthLocked(const BlockLocation &loc,
                                uint32_t replica_index,
                                ReplicaHealth health) const;

    /** Audit the replicas of the blocks covering [offset, offset+len):
     * quarantine any corrupt copy and enqueue read-repair (the
     * reportCorruption feedback path from the DWRF reader). */
    void auditRange(const std::string &name, Bytes offset,
                    Bytes len) const;

    /** Drop a dying file's replicas from node/under-replication/
     * repair-queue bookkeeping. Caller holds meta_mutex_ + io_mutex_. */
    void forgetFileLocked(const std::string &name,
                          const FileState &file);

    /** Intact (Healthy or latent-Corrupt) replicas of a block. */
    static uint32_t intactReplicas(const BlockLocation &loc);

    /** Mark every replica on `id` Lost and enqueue re-replication.
     * Caller holds meta_mutex_ then io_mutex_. */
    void loseNodeReplicasLocked(NodeId id) const;

    /** Apply deaths recorded by the tectonic.node.die fault (which
     * fires under io_mutex_ and cannot walk the namespace there). */
    void processPendingDeaths() const;

    /**
     * Execute one repair task end to end: rewrite quarantined
     * replicas in place, re-home lost ones and replicas stranded on
     * draining/dead nodes, all copied from a healthy source with IO
     * accounted on both ends. Returns replicas repaired; sets
     * `stalled` if some replica could not be repaired yet.
     */
    uint64_t executeRepair(const RepairTask &task, bool &stalled,
                           Bytes &bytes_written) const;

    /** Pop the most-urgent repair task (fewest intact replicas).
     * Caller holds meta_mutex_ + io_mutex_. */
    bool popRepairLocked(RepairTask &task) const;

    /** Choose a live, non-draining node not hosting `loc`, preferring
     * the emptiest (node spread). Caller holds io_mutex_. */
    bool pickTargetNodeLocked(const BlockLocation &loc,
                              NodeId &target) const;

    void placeBlocks(FileState &file);

    /** Bytes of block `index` of a file of `file_bytes` bytes. */
    Bytes blockBytes(Bytes file_bytes, uint64_t index) const;

    /**
     * The one repair routine of drainRepairQueue() and the healer:
     * apply pending node deaths, unpark parked tasks, then pop and
     * execute tasks until the queue is empty or `after_task` (given
     * the bytes the task wrote) returns false. Returns blocks fully
     * repaired.
     */
    uint64_t runRepairs(
        const std::function<bool(Bytes)> &after_task) const;

    void healerLoop(HealOptions options) const;

    StorageOptions options_;
    mutable std::mutex io_mutex_; ///< guards read routing/accounting
    /** Guards the file namespace (files_ map structure) and
     * logical_bytes_, so journal writes can interleave with reads of
     * other files. Never held across device simulation or IO routing
     * (lock order: meta_mutex_ before io_mutex_, when both). */
    mutable std::mutex meta_mutex_;
    mutable Rng rng_;
    std::map<std::string, FileState> files_;
    std::vector<StorageNode> nodes_;
    mutable std::vector<bool> node_down_; ///< transient (failNode)
    mutable std::vector<bool> node_dead_;     ///< permanent death
    mutable std::vector<bool> node_draining_; ///< decommissioning
    mutable std::vector<uint64_t> node_blocks_; ///< replicas hosted
    Bytes logical_bytes_ = 0;

    // Self-healing state (guarded by io_mutex_ unless noted).
    mutable std::deque<RepairTask> repair_queue_;
    mutable std::vector<RepairTask> repair_parked_; ///< no progress yet
    mutable uint64_t under_replicated_ = 0;
    mutable std::vector<NodeId> pending_deaths_; ///< fault-fired
    mutable std::atomic<bool> deaths_pending_{false};

    // SSD cache over (file, block) keys with LRU eviction.
    mutable std::map<std::string, uint64_t> cache_index_; // key -> tick
    mutable uint64_t cache_tick_ = 0;
    mutable uint64_t cache_hits_ = 0;
    mutable uint64_t cache_misses_ = 0;
    mutable std::unique_ptr<StorageNode> cache_node_;
    mutable uint32_t next_replica_ = 0;
    mutable Metrics metrics_; ///< fault-path counters (thread-safe)

    // Tail tolerance. Breakers are guarded by io_mutex_ (accessed
    // only inside routeBlockRead/tryReplicaIo and accessors);
    // read_latency_ is lock-free and fixed-size, so neither recording
    // a read nor arming a hedge slows down as the cluster ages.
    mutable std::vector<CircuitBreaker> breakers_;
    mutable LogLinearHistogram read_latency_;
    mutable std::mutex hedge_mutex_; ///< guards hedge_
    HedgeOptions hedge_;

    // Background healer lifecycle (guarded by healer_mutex_).
    mutable std::mutex healer_mutex_;
    mutable std::unique_ptr<std::thread> healer_;
    mutable std::atomic<bool> healer_stop_{false};
};

} // namespace dsi::storage

#endif // DSI_STORAGE_TECTONIC_H
