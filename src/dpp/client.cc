#include "client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"

namespace dsi::dpp {

std::vector<uint32_t>
partitionedRoundRobin(uint32_t index, uint32_t total_clients,
                      uint32_t total_workers, uint32_t max_connections)
{
    dsi_assert(index < total_clients, "client index out of range");
    std::vector<uint32_t> out;
    if (total_workers == 0)
        return out;
    uint32_t connections = std::min(max_connections, total_workers);
    // Client c takes the contiguous arc starting at c * connections on
    // the worker ring: consecutive ids are distinct (cap <= workers),
    // arcs tile the ring, and both per-client and per-worker
    // connection counts stay bounded.
    for (uint32_t k = 0; k < connections; ++k) {
        uint32_t w =
            (index * connections + k) % total_workers;
        out.push_back(w);
    }
    return out;
}

Client::Client(ClientId index, uint32_t total_clients,
               std::vector<Worker *> workers, ClientOptions options,
               DeliveryLedger *ledger)
    : id_(index), ledger_(ledger)
{
    // Every worker needs a client: an unconnected worker's buffer is
    // never popped, and completion waits for delivery, so its split
    // would never finish. Raise the cap until the arcs cover the pool.
    auto total_workers = static_cast<uint32_t>(workers.size());
    uint32_t cover = (total_workers + total_clients - 1) / total_clients;
    auto picks = partitionedRoundRobin(
        index, total_clients, total_workers,
        std::max(options.max_connections, cover));
    for (uint32_t w : picks)
        connections_.push_back(workers[w]);
}

std::optional<TensorBatch>
Client::next()
{
    if (connections_.empty())
        return std::nullopt;
    // The delivery span's parent (the batch's transform span) is only
    // known once a batch is claimed, so it is emitted one-shot at the
    // end — the timer also covers the polling sweep that found it.
    trace::Timer timer;
    size_t tries = 0;
    while (tries < connections_.size()) {
        Worker *w = connections_[cursor_];
        auto tensor = w->popTensor();
        if (!tensor) {
            cursor_ = (cursor_ + 1) % connections_.size();
            ++tries;
            continue;
        }
        if (ledger_ &&
            !ledger_->claim(tensor->split_id, tensor->first_row)) {
            // Replay of a batch some client already delivered
            // (requeued split): suppress it, and keep polling this
            // worker — the pop made progress, so reset the cursor
            // sweep.
            metrics_.inc("client.duplicates_suppressed");
            trace::instant(trace::events::kDuplicateSuppressed,
                           tensor->trace, tensor->split_id,
                           tensor->first_row);
            tries = 0;
            continue;
        }
        cursor_ = (cursor_ + 1) % connections_.size();
        metrics_.inc("client.tensors");
        metrics_.inc("client.bytes",
                     static_cast<double>(tensor->bytes));
        timer.complete(trace::spans::kClientDeliver, tensor->trace,
                       tensor->split_id, tensor->first_row);
        return tensor;
    }
    metrics_.inc("client.empty_polls");
    return std::nullopt;
}

std::optional<TensorBatch>
Client::next(const Deadline &deadline)
{
    for (;;) {
        auto tensor = next();
        if (tensor)
            return tensor;
        if (exhausted())
            return std::nullopt;
        if (deadline.expired()) {
            metrics_.inc("client.deadline_expired");
            return std::nullopt;
        }
        // Workers are producing but nothing is buffered yet; yield
        // briefly instead of hammering their buffer locks.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

bool
Client::exhausted() const
{
    for (Worker *w : connections_) {
        if (!w->drained())
            return false;
    }
    return true;
}

} // namespace dsi::dpp
