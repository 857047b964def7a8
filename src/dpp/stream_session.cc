#include "stream_session.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "etl/entries.h"

namespace dsi::dpp {

StreamWorker::StreamWorker(scribe::LogDevice &device,
                           StreamSessionSpec spec)
    : device_(device), spec_(std::move(spec)),
      reader_(device, spec_.labeled_stream)
{
    dsi_assert(spec_.batch_size > 0, "batch size must be positive");
    auto graph = transforms::TransformGraph::deserialize(
        spec_.serialized_transforms);
    dsi_assert(graph.has_value(),
               "stream worker received malformed transform program");
    graph_ = std::make_unique<const transforms::CompiledGraph>(*graph);
    if (spec_.num_transform_threads > 0)
        pool_ = std::make_unique<ThreadPool>(
            spec_.num_transform_threads);
}

uint64_t
StreamWorker::pump(uint64_t max_records)
{
    std::unordered_set<FeatureId> keep(spec_.projection.begin(),
                                       spec_.projection.end());
    uint64_t consumed = 0;
    while (consumed < max_records) {
        auto records = reader_.poll(
            std::min<uint64_t>(max_records - consumed, 512));
        if (records.empty())
            break;
        for (const auto &rec : records) {
            ++consumed;
            if (rec.payload.empty()) {
                metrics_.inc("stream.malformed");
                continue;
            }
            auto row = etl::decodeFeatures(dwrf::ByteSpan(
                rec.payload.data() + 1, rec.payload.size() - 1));
            if (!row) {
                metrics_.inc("stream.malformed");
                continue;
            }
            row->label = rec.payload[0] ? 1.0f : 0.0f;
            // Column filter: the stream is row-oriented, so the
            // projection drops features post-decode.
            if (!keep.empty()) {
                std::erase_if(row->dense, [&](const auto &d) {
                    return !keep.count(d.id);
                });
                std::erase_if(row->sparse, [&](const auto &s) {
                    return !keep.count(s.id);
                });
            }
            pending_.push_back(std::move(*row));
            metrics_.inc("stream.rows");
            if (pending_.size() >= spec_.batch_size)
                emitBatch();
        }
    }
    transformReady();
    return consumed;
}

void
StreamWorker::emitBatch()
{
    if (pending_.empty())
        return;
    TensorBatch tensor;
    tensor.data = dwrf::batchFromRows(pending_);
    tensor.first_row = next_row_;
    next_row_ += pending_.size();
    pending_.clear();
    if (pool_) {
        // Parallel mode: collect; transformReady() fans out.
        ready_.push_back(std::move(tensor));
        return;
    }
    transform_stats_.merge(graph_->apply(tensor.data, tensor.first_row));
    tensor.bytes = tensor.data.payloadBytes();
    metrics_.inc("stream.tensors");
    buffer_.push_back(std::move(tensor));
}

void
StreamWorker::transformReady()
{
    if (!pool_ || ready_.empty())
        return;
    // Fan the collected batches out over the shared graph; emission
    // preserves arrival order.
    std::vector<transforms::TransformStats> stats(ready_.size());
    for (size_t i = 0; i < ready_.size(); ++i) {
        pool_->submit([this, i, &stats] {
            TensorBatch &tensor = ready_[i];
            stats[i] = graph_->apply(tensor.data, tensor.first_row);
            tensor.bytes = tensor.data.payloadBytes();
        });
    }
    pool_->wait();
    for (size_t i = 0; i < ready_.size(); ++i) {
        transform_stats_.merge(stats[i]);
        metrics_.inc("stream.tensors");
        buffer_.push_back(std::move(ready_[i]));
    }
    ready_.clear();
}

void
StreamWorker::flush()
{
    emitBatch();
    transformReady();
}

std::optional<TensorBatch>
StreamWorker::popTensor()
{
    if (buffer_.empty())
        return std::nullopt;
    TensorBatch t = std::move(buffer_.front());
    buffer_.pop_front();
    return t;
}

void
StreamWorker::trimConsumed()
{
    device_.trim(spec_.labeled_stream, reader_.position());
}

} // namespace dsi::dpp
