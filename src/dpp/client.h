/**
 * @file
 * DPP data plane: the Client (Section III-B1).
 *
 * One Client runs on each trainer node, exposing the hook the PyTorch
 * runtime calls to obtain preprocessed tensors. To keep connection
 * counts bounded, each Client talks to a capped subset of Workers
 * chosen by *partitioned round-robin routing* and rotates among them
 * per request.
 */

#ifndef DSI_DPP_CLIENT_H
#define DSI_DPP_CLIENT_H

#include <optional>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "dpp/ledger.h"
#include "dpp/worker.h"

namespace dsi::dpp {

/** Client routing configuration. */
struct ClientOptions
{
    /**
     * Maximum Worker connections per Client. A pool larger than
     * clients × cap raises each client's cap to
     * ceil(workers / clients), so every worker is connected.
     */
    uint32_t max_connections = 8;
};

/** The per-trainer tensor-fetch endpoint. */
class Client
{
  public:
    /**
     * Build client `index` of `total_clients`, partitioned over the
     * given Worker pool (raising the connection cap when needed so
     * the clients together cover every worker). `ledger` (optional,
     * session-owned) enables exactly-once suppression of replayed
     * batches.
     */
    Client(ClientId index, uint32_t total_clients,
           std::vector<Worker *> workers, ClientOptions options = {},
           DeliveryLedger *ledger = nullptr);

    ClientId id() const { return id_; }

    /** Workers this client is connected to. */
    const std::vector<Worker *> &connections() const
    {
        return connections_;
    }

    /**
     * Fetch the next tensor (the PyTorch hook). Rotates round-robin
     * over connected Workers; returns nullopt when every connected
     * Worker is drained.
     */
    std::optional<TensorBatch> next();

    /**
     * Deadline-bounded fetch: poll connected Workers until a tensor
     * arrives, every Worker is drained, or the budget runs out —
     * whichever first. A trainer batch-fetch RPC with a timeout:
     * nullopt on expiry (client.deadline_expired counted) instead of
     * an unbounded wait on a stalled pipeline.
     */
    std::optional<TensorBatch> next(const Deadline &deadline);

    /** True when all connected workers are drained. */
    bool exhausted() const;

    const Metrics &metrics() const { return metrics_; }

  private:
    ClientId id_;
    std::vector<Worker *> connections_;
    size_t cursor_ = 0;
    DeliveryLedger *ledger_ = nullptr;
    Metrics metrics_;
};

/**
 * Compute the partitioned round-robin connection set: client `index`
 * of `total_clients` connects to at most `max_connections` workers,
 * spread so that (a) every worker has at least one client when
 * clients * cap >= workers and (b) load is balanced.
 */
std::vector<uint32_t> partitionedRoundRobin(uint32_t index,
                                            uint32_t total_clients,
                                            uint32_t total_workers,
                                            uint32_t max_connections);

} // namespace dsi::dpp

#endif // DSI_DPP_CLIENT_H
