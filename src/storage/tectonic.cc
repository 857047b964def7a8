#include "tectonic.h"

#include <algorithm>
#include <chrono>

#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"
#include "dwrf/checksum.h"

namespace dsi::storage {

namespace {

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Drop every cache entry whose key starts with `prefix`. */
void
evictPrefix(std::map<std::string, uint64_t> &cache,
            const std::string &prefix)
{
    for (auto c = cache.begin(); c != cache.end();) {
        if (c->first.compare(0, prefix.size(), prefix) == 0)
            c = cache.erase(c);
        else
            ++c;
    }
}

} // namespace

const char *
replicaHealthName(ReplicaHealth h)
{
    switch (h) {
    case ReplicaHealth::Healthy:
        return "healthy";
    case ReplicaHealth::Corrupt:
        return "corrupt";
    case ReplicaHealth::Quarantined:
        return "quarantined";
    case ReplicaHealth::Lost:
        return "lost";
    }
    return "unknown";
}

StorageNode::StorageNode(NodeId id, Tier tier) : id_(id), tier_(tier)
{
}

void
StorageNode::recordIo(Bytes bytes)
{
    ++io_count_;
    bytes_served_ += bytes;
    busy_seconds_ +=
        tier_ == Tier::Hdd ? hdd_.ioTime(bytes) / hdd_.spindles
                           : ssd_.ioTime(bytes);
}

void
StorageNode::resetAccounting()
{
    io_count_ = 0;
    bytes_served_ = 0;
    busy_seconds_ = 0.0;
}

TectonicCluster::TectonicCluster(StorageOptions options)
    : options_(options), rng_(options.seed)
{
    dsi_assert(options_.block_size > 0, "block size must be positive");
    dsi_assert(options_.hdd_nodes > 0,
               "cluster needs at least one node");
    dsi_assert(options_.replication >= 1, "replication must be >= 1");
    NodeId id = 0;
    for (uint32_t i = 0; i < options_.hdd_nodes; ++i)
        nodes_.emplace_back(id++, Tier::Hdd);
    if (options_.cache_blocks > 0) {
        cache_node_ = std::make_unique<StorageNode>(id++, Tier::Ssd);
    }
    node_down_.assign(nodes_.size(), false);
    node_dead_.assign(nodes_.size(), false);
    node_draining_.assign(nodes_.size(), false);
    node_blocks_.assign(nodes_.size(), 0);
    breakers_.assign(nodes_.size(),
                     CircuitBreaker(options_.breaker));
    hedge_ = options_.hedge;
}

TectonicCluster::~TectonicCluster()
{
    stopHealer();
}

void
TectonicCluster::setHedging(HedgeOptions hedge)
{
    std::scoped_lock lock(hedge_mutex_);
    hedge_ = hedge;
}

double
TectonicCluster::hedgeDelaySeconds() const
{
    HedgeOptions h;
    {
        std::scoped_lock lock(hedge_mutex_);
        h = hedge_;
    }
    return hedgeDelaySeconds(h);
}

double
TectonicCluster::hedgeDelaySeconds(const HedgeOptions &h) const
{
    if (read_latency_.count() < h.min_samples)
        return h.min_delay_s;
    double p = read_latency_.percentile(kHedgeDelayPercentile);
    return std::clamp(p, h.min_delay_s, h.max_delay_s);
}

CircuitBreaker::State
TectonicCluster::breakerState(NodeId id) const
{
    dsi_assert(id < breakers_.size(), "no node %u", id);
    std::scoped_lock lock(io_mutex_);
    return breakers_[id].state();
}

void
TectonicCluster::failNode(NodeId id)
{
    dsi_assert(id < nodes_.size(), "no node %u", id);
    std::scoped_lock lock(io_mutex_);
    node_down_[id] = true;
}

void
TectonicCluster::recoverNode(NodeId id)
{
    dsi_assert(id < nodes_.size(), "no node %u", id);
    std::scoped_lock lock(io_mutex_);
    node_down_[id] = false;
    node_dead_[id] = false;
    node_draining_[id] = false;
    // The node must not be ejected for pre-failure breaker history,
    // nor should the rotation cursor resume mid-cycle and hammer
    // whichever replica it happens to point at: start both fresh.
    breakers_[id] = CircuitBreaker(options_.breaker);
    next_replica_ = 0;
}

uint32_t
TectonicCluster::liveNodes() const
{
    std::scoped_lock lock(io_mutex_);
    uint32_t n = 0;
    for (bool down : node_down_)
        n += !down;
    return n;
}

void
TectonicCluster::dieNode(NodeId id)
{
    dsi_assert(id < nodes_.size(), "no node %u", id);
    std::scoped_lock lock(meta_mutex_, io_mutex_);
    if (node_dead_[id])
        return;
    node_down_[id] = true;
    node_dead_[id] = true;
    metrics_.inc("storage.node_deaths");
    trace::instant(trace::events::kNodeDied, trace::currentParent(),
                   id);
    loseNodeReplicasLocked(id);
}

void
TectonicCluster::decommissionNode(NodeId id)
{
    dsi_assert(id < nodes_.size(), "no node %u", id);
    std::scoped_lock lock(meta_mutex_, io_mutex_);
    if (node_draining_[id] || node_dead_[id])
        return;
    node_draining_[id] = true;
    metrics_.inc("storage.decommissions");
    // Every replica the node hosts drains through the repair queue;
    // the node keeps serving reads until its last replica has moved.
    for (const auto &[name, file] : files_) {
        for (uint64_t b = 0; b < file.blocks.size(); ++b) {
            const BlockLocation &loc = file.blocks[b];
            for (const Replica &rep : loc.replicas) {
                if (rep.node == id &&
                    rep.health != ReplicaHealth::Lost) {
                    enqueueRepairLocked(name, loc, b);
                    break;
                }
            }
        }
    }
}

bool
TectonicCluster::nodeDraining(NodeId id) const
{
    dsi_assert(id < nodes_.size(), "no node %u", id);
    std::scoped_lock lock(io_mutex_);
    return node_draining_[id];
}

uint64_t
TectonicCluster::nodeBlockCount(NodeId id) const
{
    dsi_assert(id < nodes_.size(), "no node %u", id);
    std::scoped_lock lock(io_mutex_);
    return node_blocks_[id];
}

void
TectonicCluster::loseNodeReplicasLocked(NodeId id) const
{
    for (const auto &[name, file] : files_) {
        for (uint64_t b = 0; b < file.blocks.size(); ++b) {
            const BlockLocation &loc = file.blocks[b];
            for (uint32_t r = 0;
                 r < static_cast<uint32_t>(loc.replicas.size()); ++r) {
                Replica &rep = loc.replicas[r];
                if (rep.node != id ||
                    rep.health == ReplicaHealth::Lost)
                    continue;
                --node_blocks_[id];
                setReplicaHealthLocked(loc, r, ReplicaHealth::Lost);
                metrics_.inc("storage.replicas_lost");
                enqueueRepairLocked(name, loc, b);
            }
        }
    }
}

void
TectonicCluster::processPendingDeaths() const
{
    if (!deaths_pending_.load(std::memory_order_acquire))
        return;
    std::scoped_lock lock(meta_mutex_, io_mutex_);
    for (NodeId id : pending_deaths_)
        loseNodeReplicasLocked(id);
    pending_deaths_.clear();
    deaths_pending_.store(false, std::memory_order_release);
}

void
TectonicCluster::create(const std::string &name)
{
    std::scoped_lock lock(meta_mutex_, io_mutex_);
    auto it = files_.find(name);
    if (it != files_.end()) {
        logical_bytes_ -= it->second.data.size();
        forgetFileLocked(name, it->second);
        evictPrefix(cache_index_, name + "#");
        files_.erase(it);
    }
    files_.emplace(name, FileState{});
}

void
TectonicCluster::placeBlocks(FileState &file)
{
    uint64_t blocks_needed =
        (file.data.size() + options_.block_size - 1) /
        options_.block_size;
    if (file.blocks.size() >= blocks_needed)
        return;
    // Caller holds meta_mutex_; placement reads node liveness and
    // load, which live behind io_mutex_ (lock order: meta before io).
    std::scoped_lock lock(io_mutex_);
    std::vector<NodeId> candidates;
    for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
        if (!node_down_[id] && !node_dead_[id] && !node_draining_[id])
            candidates.push_back(id);
    }
    dsi_assert(!candidates.empty(), "no placeable storage nodes");
    uint32_t replicas = std::min<uint32_t>(
        options_.replication, static_cast<uint32_t>(candidates.size()));
    while (file.blocks.size() < blocks_needed) {
        // Node spread: distinct nodes, emptiest first; the seeded
        // rotation breaks ties so equally loaded nodes share traffic.
        std::rotate(candidates.begin(),
                    candidates.begin() +
                        static_cast<ptrdiff_t>(
                            rng_.nextUint(candidates.size())),
                    candidates.end());
        std::stable_sort(candidates.begin(), candidates.end(),
                         [&](NodeId a, NodeId b) {
                             return node_blocks_[a] < node_blocks_[b];
                         });
        BlockLocation loc;
        for (uint32_t r = 0; r < replicas; ++r) {
            loc.replicas.push_back(
                {candidates[r], ReplicaHealth::Healthy});
            ++node_blocks_[candidates[r]];
        }
        file.blocks.push_back(std::move(loc));
    }
}

void
TectonicCluster::append(const std::string &name, dwrf::ByteSpan data)
{
    // meta_mutex_ also serializes placeBlocks' rng_ draws against
    // concurrent appends (reads never touch rng_).
    std::scoped_lock lock(meta_mutex_);
    auto it = files_.find(name);
    dsi_assert(it != files_.end(), "append to missing file '%s'",
               name.c_str());
    FileState &file = it->second;
    Bytes old_size = file.data.size();
    file.data.insert(file.data.end(), data.begin(), data.end());
    logical_bytes_ += data.size();
    placeBlocks(file);
    // Stamp block CRCs: the block containing the old EOF grew, and
    // any block after it is new.
    Bytes bs = options_.block_size;
    for (uint64_t b = old_size / bs; b < file.blocks.size(); ++b) {
        Bytes bb = blockBytes(file.data.size(), b);
        file.blocks[b].crc = dwrf::crc32(
            dwrf::ByteSpan(file.data.data() + b * bs, bb));
    }
}

void
TectonicCluster::forgetFileLocked(const std::string &name,
                                  const FileState &file)
{
    for (const BlockLocation &loc : file.blocks) {
        if (intactReplicas(loc) <
            static_cast<uint32_t>(loc.replicas.size())) {
            --under_replicated_;
            metrics_.set("storage.under_replicated_blocks",
                         static_cast<double>(under_replicated_));
        }
        for (const Replica &rep : loc.replicas)
            if (rep.health != ReplicaHealth::Lost)
                --node_blocks_[rep.node];
    }
    auto is_mine = [&](const RepairTask &t) { return t.file == name; };
    repair_queue_.erase(std::remove_if(repair_queue_.begin(),
                                       repair_queue_.end(), is_mine),
                        repair_queue_.end());
    repair_parked_.erase(std::remove_if(repair_parked_.begin(),
                                        repair_parked_.end(), is_mine),
                         repair_parked_.end());
}

void
TectonicCluster::remove(const std::string &name)
{
    std::scoped_lock lock(meta_mutex_, io_mutex_);
    auto it = files_.find(name);
    dsi_assert(it != files_.end(), "remove of missing file '%s'",
               name.c_str());
    logical_bytes_ -= it->second.data.size();
    forgetFileLocked(name, it->second);
    evictPrefix(cache_index_, name + "#");
    files_.erase(it);
}

Bytes
TectonicCluster::fileSize(const std::string &name) const
{
    std::scoped_lock lock(meta_mutex_);
    auto it = files_.find(name);
    dsi_assert(it != files_.end(), "missing file '%s'", name.c_str());
    return it->second.data.size();
}

std::vector<std::string>
TectonicCluster::listFiles() const
{
    std::scoped_lock lock(meta_mutex_);
    std::vector<std::string> out;
    out.reserve(files_.size());
    for (const auto &[name, _] : files_)
        out.push_back(name);
    return out;
}

std::vector<std::string>
TectonicCluster::listFiles(const std::string &prefix) const
{
    std::scoped_lock lock(meta_mutex_);
    std::vector<std::string> out;
    for (auto it = files_.lower_bound(prefix); it != files_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        out.push_back(it->first);
    }
    return out;
}

std::unique_ptr<TectonicSource>
TectonicCluster::open(const std::string &name) const
{
    dsi_assert(exists(name), "missing file '%s'", name.c_str());
    return std::make_unique<TectonicSource>(*this, name);
}

Bytes
TectonicCluster::blockBytes(Bytes file_bytes, uint64_t index) const
{
    Bytes start = index * options_.block_size;
    return std::min<Bytes>(options_.block_size, file_bytes - start);
}

Bytes
TectonicCluster::physicalBytes() const
{
    std::scoped_lock lock(meta_mutex_, io_mutex_);
    Bytes total = 0;
    for (const auto &[name, file] : files_) {
        for (uint64_t b = 0; b < file.blocks.size(); ++b) {
            const BlockLocation &loc = file.blocks[b];
            Bytes bb = blockBytes(file.data.size(), b);
            for (const Replica &rep : loc.replicas)
                if (rep.health != ReplicaHealth::Lost)
                    total += bb;
        }
    }
    return total;
}

void
TectonicCluster::resetAccounting()
{
    for (auto &n : nodes_)
        n.resetAccounting();
    if (cache_node_)
        cache_node_->resetAccounting();
    std::scoped_lock lock(io_mutex_);
    cache_hits_ = 0;
    cache_misses_ = 0;
}

uint32_t
TectonicCluster::intactReplicas(const BlockLocation &loc)
{
    uint32_t n = 0;
    for (const Replica &rep : loc.replicas) {
        // A latent-corrupt replica counts: the system does not know
        // it is bad yet, so it still "has" that copy.
        if (rep.health == ReplicaHealth::Healthy ||
            rep.health == ReplicaHealth::Corrupt)
            ++n;
    }
    return n;
}

void
TectonicCluster::setReplicaHealthLocked(const BlockLocation &loc,
                                        uint32_t replica_index,
                                        ReplicaHealth health) const
{
    uint32_t desired = static_cast<uint32_t>(loc.replicas.size());
    bool was_under = intactReplicas(loc) < desired;
    loc.replicas[replica_index].health = health;
    bool now_under = intactReplicas(loc) < desired;
    if (was_under != now_under) {
        under_replicated_ += now_under ? 1 : -1;
        metrics_.set("storage.under_replicated_blocks",
                     static_cast<double>(under_replicated_));
    }
}

void
TectonicCluster::quarantineLocked(const std::string &name,
                                  const BlockLocation &loc,
                                  uint32_t replica_index,
                                  uint64_t block_index) const
{
    setReplicaHealthLocked(loc, replica_index,
                           ReplicaHealth::Quarantined);
    metrics_.inc("storage.replicas_quarantined");
    trace::instant(trace::events::kReplicaQuarantine,
                   trace::currentParent(),
                   loc.replicas[replica_index].node, block_index);
    enqueueRepairLocked(name, loc, block_index);
}

void
TectonicCluster::enqueueRepairLocked(const std::string &name,
                                     const BlockLocation &loc,
                                     uint64_t block_index) const
{
    if (loc.queued)
        return;
    loc.queued = true;
    repair_queue_.push_back({name, block_index});
    metrics_.inc("storage.repair.enqueued");
}

bool
TectonicCluster::popRepairLocked(RepairTask &task) const
{
    if (repair_queue_.empty())
        return false;
    // Fewest intact replicas first: the block closest to data loss
    // repairs first.
    auto urgency = [&](const RepairTask &t) -> uint32_t {
        auto it = files_.find(t.file);
        if (it == files_.end())
            return 0; // file gone: drains as a no-op, cheapest first
        return intactReplicas(it->second.blocks.at(t.block));
    };
    auto best = repair_queue_.begin();
    uint32_t best_urgency = urgency(*best);
    for (auto q = std::next(repair_queue_.begin());
         q != repair_queue_.end(); ++q) {
        uint32_t u = urgency(*q);
        if (u < best_urgency) {
            best = q;
            best_urgency = u;
        }
    }
    task = *best;
    repair_queue_.erase(best);
    return true;
}

bool
TectonicCluster::pickTargetNodeLocked(const BlockLocation &loc,
                                      NodeId &target) const
{
    bool found = false;
    for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
        if (node_down_[id] || node_dead_[id] || node_draining_[id])
            continue;
        bool hosts = false;
        for (const Replica &rep : loc.replicas) {
            if (rep.health != ReplicaHealth::Lost && rep.node == id) {
                hosts = true;
                break;
            }
        }
        if (hosts)
            continue; // node spread: one replica per node
        if (!found || node_blocks_[id] < node_blocks_[target]) {
            target = id;
            found = true;
        }
    }
    return found;
}

uint64_t
TectonicCluster::executeRepair(const RepairTask &task, bool &stalled,
                               Bytes &bytes_written) const
{
    std::scoped_lock lock(meta_mutex_, io_mutex_);
    auto it = files_.find(task.file);
    if (it == files_.end())
        return 0; // file removed while the task waited
    const FileState &file = it->second;
    const BlockLocation &loc = file.blocks.at(task.block);
    loc.queued = false;
    Bytes bb = blockBytes(file.data.size(), task.block);

    // A trustworthy source to copy from. Latent-corrupt replicas are
    // excluded: repairing from one would propagate the rot.
    int source = -1;
    for (uint32_t r = 0;
         r < static_cast<uint32_t>(loc.replicas.size()); ++r) {
        const Replica &rep = loc.replicas[r];
        if (rep.health == ReplicaHealth::Healthy &&
            !node_down_[rep.node] && !node_dead_[rep.node]) {
            source = static_cast<int>(r);
            break;
        }
    }
    if (source < 0) {
        // No healthy copy reachable right now (every one corrupt,
        // lost, or behind a down node). Park the task: a scrub or
        // node recovery may restore a source later.
        stalled = true;
        loc.queued = true;
        repair_parked_.push_back(task);
        metrics_.inc("storage.repair.stalled");
        return 0;
    }
    NodeId source_node =
        loc.replicas[static_cast<uint32_t>(source)].node;

    trace::Span span(trace::spans::kStorageRepair,
                     trace::currentParent(), task.block, bb);
    trace::ScopedParent ambient(span.id());
    uint64_t repaired = 0;
    Bytes wrote = 0;
    bool partial = false;
    for (uint32_t r = 0;
         r < static_cast<uint32_t>(loc.replicas.size()); ++r) {
        Replica &rep = loc.replicas[r];
        switch (rep.health) {
        case ReplicaHealth::Healthy:
            // Fine where it is — unless stranded on a draining node,
            // in which case the replica moves to a new home.
            if (node_draining_[rep.node]) {
                NodeId target;
                if (!pickTargetNodeLocked(loc, target)) {
                    partial = true;
                    break;
                }
                const_cast<StorageNode &>(nodes_.at(rep.node))
                    .recordIo(bb); // drain read
                const_cast<StorageNode &>(nodes_.at(target))
                    .recordIo(bb); // re-home write
                NodeId drained = rep.node;
                --node_blocks_[drained];
                rep.node = target;
                ++node_blocks_[target];
                wrote += bb;
                ++repaired;
                // Last replica moved off: the node retires.
                if (node_blocks_[drained] == 0)
                    node_down_[drained] = true;
            }
            break;
        case ReplicaHealth::Corrupt:     // rot found while repairing
        case ReplicaHealth::Quarantined: // detected earlier
            // Rewrite in place from the healthy source.
            const_cast<StorageNode &>(nodes_.at(source_node))
                .recordIo(bb); // repair read
            const_cast<StorageNode &>(nodes_.at(rep.node))
                .recordIo(bb); // repair write
            setReplicaHealthLocked(loc, r, ReplicaHealth::Healthy);
            wrote += bb;
            ++repaired;
            break;
        case ReplicaHealth::Lost: {
            // Re-replicate onto a fresh node.
            NodeId target;
            if (!pickTargetNodeLocked(loc, target)) {
                partial = true;
                break;
            }
            const_cast<StorageNode &>(nodes_.at(source_node))
                .recordIo(bb); // re-replication read
            const_cast<StorageNode &>(nodes_.at(target))
                .recordIo(bb); // re-replication write
            rep.node = target;
            ++node_blocks_[target];
            setReplicaHealthLocked(loc, r, ReplicaHealth::Healthy);
            wrote += bb;
            ++repaired;
            break;
        }
        }
    }
    if (partial) {
        // Some replica could not be placed (not enough live nodes).
        stalled = true;
        loc.queued = true;
        repair_parked_.push_back(task);
        metrics_.inc("storage.repair.stalled");
    } else {
        metrics_.inc("storage.repair.completed");
    }
    if (wrote > 0)
        metrics_.inc("storage.repair.bytes",
                     static_cast<double>(wrote));
    bytes_written += wrote;
    return repaired;
}

uint64_t
TectonicCluster::drainRepairQueue() const
{
    return runRepairs([](Bytes) { return true; });
}

uint64_t
TectonicCluster::runRepairs(
    const std::function<bool(Bytes)> &after_task) const
{
    processPendingDeaths();
    {
        // Give parked (previously unprogressable) tasks another shot.
        std::scoped_lock lock(meta_mutex_, io_mutex_);
        for (RepairTask &t : repair_parked_)
            repair_queue_.push_back(std::move(t));
        repair_parked_.clear();
    }
    uint64_t repaired = 0;
    while (true) {
        RepairTask task;
        {
            std::scoped_lock lock(meta_mutex_, io_mutex_);
            if (!popRepairLocked(task))
                break;
        }
        bool stalled = false;
        Bytes wrote = 0;
        repaired += executeRepair(task, stalled, wrote);
        // Stalled tasks park (not requeue), so the loop terminates.
        if (!after_task(wrote))
            break;
    }
    return repaired;
}

size_t
TectonicCluster::repairQueueDepth() const
{
    std::scoped_lock lock(io_mutex_);
    return repair_queue_.size() + repair_parked_.size();
}

uint64_t
TectonicCluster::underReplicatedBlocks() const
{
    std::scoped_lock lock(io_mutex_);
    metrics_.set("storage.under_replicated_blocks",
                 static_cast<double>(under_replicated_));
    return under_replicated_;
}

void
TectonicCluster::corruptReplica(const std::string &name,
                                uint64_t block_index,
                                uint32_t replica_index)
{
    std::scoped_lock lock(meta_mutex_, io_mutex_);
    auto it = files_.find(name);
    dsi_assert(it != files_.end(), "missing file '%s'", name.c_str());
    const BlockLocation &loc = it->second.blocks.at(block_index);
    Replica &rep = loc.replicas.at(replica_index);
    if (rep.health != ReplicaHealth::Healthy)
        return; // already rotten, detected, or lost
    // Latent: still counts as intact until something verifies it.
    rep.health = ReplicaHealth::Corrupt;
    metrics_.inc("storage.replicas_corrupted");
}

ReplicaHealth
TectonicCluster::replicaHealth(const std::string &name,
                               uint64_t block_index,
                               uint32_t replica_index) const
{
    std::scoped_lock lock(meta_mutex_, io_mutex_);
    auto it = files_.find(name);
    dsi_assert(it != files_.end(), "missing file '%s'", name.c_str());
    return it->second.blocks.at(block_index)
        .replicas.at(replica_index)
        .health;
}

void
TectonicCluster::auditRange(const std::string &name, Bytes offset,
                            Bytes len) const
{
    if (len == 0)
        return;
    std::scoped_lock lock(meta_mutex_, io_mutex_);
    auto it = files_.find(name);
    if (it == files_.end())
        return;
    const FileState &file = it->second;
    if (file.data.empty())
        return;
    Bytes bs = options_.block_size;
    Bytes end = std::min<Bytes>(offset + len, file.data.size());
    if (offset >= end)
        return;
    for (uint64_t b = offset / bs; b <= (end - 1) / bs; ++b) {
        const BlockLocation &loc = file.blocks.at(b);
        for (uint32_t r = 0;
             r < static_cast<uint32_t>(loc.replicas.size()); ++r) {
            if (loc.replicas[r].health == ReplicaHealth::Corrupt) {
                metrics_.inc("storage.read_repair");
                quarantineLocked(name, loc, r, b);
            }
        }
    }
}

ScrubReport
TectonicCluster::scrubOnce() const
{
    processPendingDeaths();
    ScrubReport report;
    trace::Span span(trace::spans::kStorageScrub,
                     trace::currentParent());
    trace::ScopedParent ambient(span.id());
    // One lock scope per file keeps the scan from freezing the whole
    // cluster: reads of other files interleave between files.
    for (const std::string &name : listFiles()) {
        std::scoped_lock lock(meta_mutex_, io_mutex_);
        auto it = files_.find(name);
        if (it == files_.end())
            continue; // removed mid-scan
        const FileState &file = it->second;
        Bytes bs = options_.block_size;
        for (uint64_t b = 0; b < file.blocks.size(); ++b) {
            const BlockLocation &loc = file.blocks[b];
            Bytes bb = blockBytes(file.data.size(), b);
            // The logical bytes are ground truth: their CRC must
            // match the stamp, or placement/stamping is broken.
            uint32_t actual = dwrf::crc32(
                dwrf::ByteSpan(file.data.data() + b * bs, bb));
            dsi_assert(actual == loc.crc,
                       "stale CRC stamp on '%s' block %llu",
                       name.c_str(),
                       static_cast<unsigned long long>(b));
            ++report.blocks_scanned;
            for (uint32_t r = 0;
                 r < static_cast<uint32_t>(loc.replicas.size());
                 ++r) {
                Replica &rep = loc.replicas[r];
                // Lost copies have nothing to verify; quarantined
                // ones are already known bad and repair-queued;
                // unreachable nodes cannot serve the verify read.
                if (rep.health == ReplicaHealth::Lost ||
                    rep.health == ReplicaHealth::Quarantined ||
                    node_down_[rep.node] || node_dead_[rep.node])
                    continue;
                // The verify read costs real device time.
                const_cast<StorageNode &>(nodes_.at(rep.node))
                    .recordIo(bb);
                ++report.replicas_verified;
                report.bytes_verified += bb;
                if (rep.health == ReplicaHealth::Corrupt) {
                    quarantineLocked(name, loc, r, b);
                    ++report.corrupt_found;
                    metrics_.inc("storage.scrub.repairs");
                }
            }
        }
    }
    metrics_.inc("storage.scrub.blocks",
                 static_cast<double>(report.blocks_scanned));
    metrics_.inc("storage.scrub.bytes",
                 static_cast<double>(report.bytes_verified));
    return report;
}

void
TectonicCluster::healerLoop(HealOptions options) const
{
    // Budget pacing: after doing `bytes` of work, sleep long enough
    // that the average rate honors bytes/sec — chopped into short
    // slices so stopHealer() stays responsive.
    auto paced = [&](Bytes bytes, double rate) {
        if (rate <= 0.0 || bytes == 0)
            return;
        auto end = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(bytes) / rate));
        while (!healer_stop_.load(std::memory_order_relaxed) &&
               std::chrono::steady_clock::now() < end)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    while (!healer_stop_.load(std::memory_order_relaxed)) {
        // Repair slice: drain queued tasks, paced per task.
        runRepairs([&](Bytes wrote) {
            paced(wrote, options.repair_bytes_per_sec);
            return !healer_stop_.load(std::memory_order_relaxed);
        });
        if (healer_stop_.load(std::memory_order_relaxed))
            break;
        // Scrub slice: one full anti-entropy pass, then sleep off
        // its bytes against the scrub budget.
        ScrubReport report = scrubOnce();
        paced(report.bytes_verified, options.scrub_bytes_per_sec);
        // Idle wait before looking again.
        auto end = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           options.idle_wait_s));
        while (!healer_stop_.load(std::memory_order_relaxed) &&
               std::chrono::steady_clock::now() < end)
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
    }
}

void
TectonicCluster::startHealer(HealOptions options) const
{
    std::scoped_lock lock(healer_mutex_);
    if (healer_)
        return;
    healer_stop_.store(false, std::memory_order_relaxed);
    healer_ = std::make_unique<std::thread>(
        [this, options] { healerLoop(options); });
}

void
TectonicCluster::stopHealer() const
{
    std::unique_ptr<std::thread> t;
    {
        std::scoped_lock lock(healer_mutex_);
        t = std::move(healer_);
    }
    if (!t)
        return;
    healer_stop_.store(true, std::memory_order_relaxed);
    t->join();
}

bool
TectonicCluster::healerRunning() const
{
    std::scoped_lock lock(healer_mutex_);
    return healer_ != nullptr;
}

bool
TectonicCluster::routeBlockRead(const std::string &name,
                                const FileState &file,
                                uint64_t block_index, Bytes bytes,
                                bool &served_corrupt) const
{
    std::scoped_lock lock(io_mutex_);
    if (cache_node_) {
        std::string key = name + "#" + std::to_string(block_index);
        auto it = cache_index_.find(key);
        if (it != cache_index_.end()) {
            it->second = ++cache_tick_;
            ++cache_hits_;
            cache_node_->recordIo(bytes);
            return true;
        }
        ++cache_misses_;
        // Admit with LRU eviction.
        if (cache_index_.size() >= options_.cache_blocks) {
            auto victim = cache_index_.begin();
            for (auto v = cache_index_.begin(); v != cache_index_.end();
                 ++v) {
                if (v->second < victim->second)
                    victim = v;
            }
            cache_index_.erase(victim);
        }
        cache_index_.emplace(key, ++cache_tick_);
    }
    const auto &loc = file.blocks.at(block_index);
    double now = steadySeconds();
    size_t nrep = loc.replicas.size();
    // Pass 1: rotate across replicas, skipping quarantined/lost
    // copies, dead nodes, and any replica whose breaker is open.
    std::vector<uint32_t> skipped;
    for (size_t attempt = 0; attempt < nrep; ++attempt) {
        uint32_t ri =
            static_cast<uint32_t>(next_replica_++ % nrep);
        const Replica &rep = loc.replicas[ri];
        if (rep.health == ReplicaHealth::Quarantined ||
            rep.health == ReplicaHealth::Lost)
            continue;
        if (node_down_[rep.node] || node_dead_[rep.node])
            continue;
        CircuitBreaker::State before = breakers_[rep.node].state();
        if (!breakers_[rep.node].allowRequest(now)) {
            metrics_.inc("tectonic.breaker_skips");
            trace::instant(trace::events::kBreakerSkip,
                           trace::currentParent(), rep.node);
            skipped.push_back(ri);
            continue;
        }
        if (before == CircuitBreaker::State::Open)
            metrics_.inc("breaker.half_open_probes");
        ReplicaIo r = tryReplicaIo(name, file, block_index, loc, ri,
                                   bytes, now);
        if (r == ReplicaIo::Served)
            return true;
        if (r == ReplicaIo::ServedCorrupt) {
            served_corrupt = true;
            return true;
        }
    }
    // Pass 2 (fail-open): a breaker must never turn a still-readable
    // block into data loss, so when every admitted replica failed the
    // ejected ones get one more chance before the read is declared
    // unservable.
    for (uint32_t ri : skipped) {
        const Replica &rep = loc.replicas[ri];
        // Pass 1 may have quarantined the replica or killed its node.
        if (rep.health == ReplicaHealth::Quarantined ||
            rep.health == ReplicaHealth::Lost ||
            node_down_[rep.node] || node_dead_[rep.node])
            continue;
        ReplicaIo r = tryReplicaIo(name, file, block_index, loc, ri,
                                   bytes, now);
        if (r == ReplicaIo::Served)
            return true;
        if (r == ReplicaIo::ServedCorrupt) {
            served_corrupt = true;
            return true;
        }
    }
    return false;
}

TectonicCluster::ReplicaIo
TectonicCluster::tryReplicaIo(const std::string &name,
                              const FileState &file,
                              uint64_t block_index,
                              const BlockLocation &loc,
                              uint32_t replica_index, Bytes bytes,
                              double now) const
{
    (void)file;
    // Caller holds io_mutex_, which also guards breakers_ and health.
    Replica &rep = loc.replicas[replica_index];
    NodeId node = rep.node;
    CircuitBreaker &breaker = breakers_[node];
    if (faultPoint(faults::kTectonicNodeDie)) {
        // The serving node dies permanently, mid-read. The namespace
        // sweep that marks its replicas Lost needs meta_mutex_, which
        // is not held here: record the death and let the next
        // unlocked seam (readFileRange tail, healer, drain) sweep it.
        node_down_[node] = true;
        node_dead_[node] = true;
        pending_deaths_.push_back(node);
        deaths_pending_.store(true, std::memory_order_release);
        metrics_.inc("storage.node_deaths");
        trace::instant(trace::events::kNodeDied,
                       trace::currentParent(), node);
        return ReplicaIo::Failed;
    }
    if (faultPoint(faults::kTectonicReplicaError)) {
        metrics_.inc("tectonic.replica_read_errors");
        trace::instant(trace::events::kReplicaError,
                       trace::currentParent(), node);
        CircuitBreaker::State before = breaker.state();
        breaker.recordFailure(now);
        if (breaker.state() == CircuitBreaker::State::Open &&
            before != CircuitBreaker::State::Open)
            metrics_.inc("breaker.open");
        return ReplicaIo::Failed;
    }
    if (rep.health == ReplicaHealth::Healthy &&
        faultPoint(faults::kTectonicReplicaCorrupt)) {
        // Bit-rot lands on this specific replica; it stays corrupt
        // until read-repair or the scrubber heals it.
        rep.health = ReplicaHealth::Corrupt;
        metrics_.inc("storage.replicas_corrupted");
    }
    if (rep.health == ReplicaHealth::Corrupt) {
        // The device does the IO either way; what differs is whether
        // the cluster verifies what it got.
        const_cast<StorageNode &>(nodes_.at(node)).recordIo(bytes);
        if (options_.verify_reads) {
            // Read-repair: detected here, quarantined, repair
            // enqueued; the caller rotates to a healthy copy.
            metrics_.inc("storage.read_repair");
            quarantineLocked(name, loc, replica_index, block_index);
            return ReplicaIo::Failed;
        }
        return ReplicaIo::ServedCorrupt;
    }
    if (breaker.state() != CircuitBreaker::State::Closed)
        metrics_.inc("breaker.closed");
    breaker.recordSuccess();
    const_cast<StorageNode &>(nodes_.at(node)).recordIo(bytes);
    return ReplicaIo::Served;
}

TectonicSource::TectonicSource(const TectonicCluster &cluster,
                               std::string name)
    : cluster_(cluster), name_(std::move(name))
{
}

Bytes
TectonicSource::size() const
{
    return cluster_.fileSize(name_);
}

dwrf::IoStatus
TectonicSource::readChecked(Bytes offset, Bytes len,
                            dwrf::Buffer &out) const
{
    // Trace exactly once per logical read — a hedge backup is a
    // tail-tolerance retry, not a second logical IO.
    trace_.record(offset, len);
    // The parent (the reader's stripe span) arrives through the
    // ambient context: this virtual signature cannot carry one.
    trace::Span span(trace::spans::kStorageRead,
                     trace::currentParent(), offset, len);
    trace::ScopedParent ambient(span.id());
    HedgeOptions hedge;
    {
        std::scoped_lock lock(cluster_.hedge_mutex_);
        hedge = cluster_.hedge_;
    }

    // Both attempts run inline and report when they would finish
    // (t = 0 at read start, injected stalls included), so the hedge
    // race is arithmetic: the thread sleeps once, until the attempt
    // it returns would finish.
    double start = steadySeconds();
    auto sleepUntil = [start](double t) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(start + t - steadySeconds()));
    };
    double trigger = hedge.enabled ? cluster_.hedgeDelaySeconds(hedge)
                                   : 0.0;
    double primary_s = 0.0;
    dwrf::IoStatus primary =
        cluster_.readFileRange(name_, offset, len, out, primary_s);
    if (!hedge.enabled ||
        (primary == dwrf::IoStatus::Ok && primary_s <= trigger)) {
        sleepUntil(primary_s);
        return primary;
    }

    // The primary outlived the trigger or failed: a backup to another
    // replica starts at whichever came first. First success wins.
    cluster_.metrics_.inc("tectonic.hedges_issued");
    trace::instant(trace::events::kHedgeIssued, span.id(), offset, len);
    dwrf::Buffer backup;
    double backup_s = 0.0;
    dwrf::IoStatus backup_status =
        cluster_.readFileRange(name_, offset, len, backup, backup_s);
    backup_s += std::min(trigger, primary_s);
    if (backup_status == dwrf::IoStatus::Ok &&
        (primary != dwrf::IoStatus::Ok || backup_s < primary_s)) {
        if (backup_s < primary_s) {
            cluster_.metrics_.inc("tectonic.hedge_wins");
            trace::instant(trace::events::kHedgeWin, span.id(), offset,
                           len);
        }
        sleepUntil(backup_s);
        out = std::move(backup);
        return dwrf::IoStatus::Ok;
    }

    // The backup failed or lost: the primary's verdict stands.
    sleepUntil(primary_s);
    return primary;
}

void
TectonicSource::reportCorruption(Bytes offset, Bytes len) const
{
    // The DWRF reader verified a stream against its footer CRC and it
    // failed: some replica under [offset, offset+len) served rotten
    // bytes. Audit those blocks — quarantine corrupt copies and
    // enqueue read-repair — so the retry rotates onto a clean one.
    cluster_.auditRange(name_, offset, len);
}

dwrf::IoStatus
TectonicCluster::readFileRange(const std::string &name, Bytes offset,
                               Bytes len, dwrf::Buffer &out,
                               double &latency_s) const
{
    double start = steadySeconds();
    // Slow-replica fault: the attempt finishes this much later.
    double stall =
        FaultInjector::instance().stallSeconds(faults::kTectonicReadDelay);

    // The namespace lookup runs under meta_mutex_; the reference
    // stays valid after release because map nodes are pointer-stable
    // and published files are immutable (reading a file while its
    // writer is still appending is out of contract).
    const FileState *file_ptr;
    {
        std::scoped_lock lock(meta_mutex_);
        auto it = files_.find(name);
        dsi_assert(it != files_.end(), "file vanished: '%s'",
                   name.c_str());
        file_ptr = &it->second;
        dsi_assert(offset + len <= file_ptr->data.size(),
                   "read past EOF in '%s'", name.c_str());
    }
    const auto &file = *file_ptr;

    out.assign(file.data.begin() + static_cast<ptrdiff_t>(offset),
               file.data.begin() + static_cast<ptrdiff_t>(offset + len));

    // Corruption fault: a replica served bad bytes. Flip one byte so
    // the DWRF checksum catches it downstream; a retried read draws a
    // fresh (clean, unless re-fired) copy.
    if (len > 0 && faultPoint(faults::kTectonicReadCorrupt)) {
        out[out.size() / 2] ^= 0xff;
        metrics_.inc("tectonic.corrupt_reads");
        trace::instant(trace::events::kFaultCorrupt,
                       trace::currentParent(), offset, len);
    }

    // Fan the logical IO out to the blocks it touches.
    Bytes bs = options_.block_size;
    Bytes pos = offset;
    Bytes remaining = len;
    bool ok = true;
    bool any_corrupt = false;
    while (remaining > 0) {
        uint64_t block = pos / bs;
        Bytes within = pos % bs;
        Bytes chunk = std::min(remaining, bs - within);
        bool chunk_corrupt = false;
        ok &= routeBlockRead(name, file, block, chunk, chunk_corrupt);
        if (chunk_corrupt) {
            // verify_reads is off and a latent-corrupt replica served
            // this chunk: damage the returned bytes so the DWRF
            // stream checksum catches it downstream (whose
            // reportCorruption then closes the read-repair loop).
            out[(pos - offset) + chunk / 2] ^= 0xff;
            any_corrupt = true;
        }
        pos += chunk;
        remaining -= chunk;
    }
    if (any_corrupt)
        metrics_.inc("storage.corrupt_served");
    latency_s = steadySeconds() - start + stall;
    read_latency_.add(latency_s);
    // Deaths injected mid-routing (io_mutex_ held there) sweep here,
    // where no locks are held.
    if (deaths_pending_.load(std::memory_order_acquire))
        processPendingDeaths();
    if (!ok) {
        metrics_.inc("tectonic.failed_reads");
        out.clear();
        return dwrf::IoStatus::Unavailable;
    }
    return dwrf::IoStatus::Ok;
}

} // namespace dsi::storage
