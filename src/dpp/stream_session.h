/**
 * @file
 * Recurring-training (online) preprocessing: DPP over a Scribe
 * stream.
 *
 * Production models are *updated* from fresh labeled samples that the
 * streaming join publishes to Scribe (Section III-A1), without
 * waiting for daily batch partitions. A StreamWorker tails the
 * labeled stream, decodes rows, applies the feature projection (by
 * dropping columns after decode — row-oriented streams cannot be read
 * selectively; that is the cost of freshness), runs the transform
 * graph per mini-batch, and buffers ready-to-load tensors exactly
 * like a batch-mode Worker.
 *
 * With `num_transform_threads > 0` the transform stage fans each
 * pump()'s full batches out to a thread pool that shares the one
 * immutable compiled graph, and tensors are emitted in arrival order.
 * A tensor's `first_row` is its stream position (rows accepted before
 * it), the row identity Sampling draws on, so both modes deliver the
 * same bytes. Decode stays on the calling thread: the stream is a
 * strictly ordered log. pump()/flush()/popTensor() themselves must be
 * called from one thread.
 */

#ifndef DSI_DPP_STREAM_SESSION_H
#define DSI_DPP_STREAM_SESSION_H

#include <deque>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "dpp/worker.h"
#include "scribe/scribe.h"
#include "transforms/graph.h"

namespace dsi::dpp {

/** What a recurring-training job asks for. */
struct StreamSessionSpec
{
    std::string labeled_stream = "labeled";
    /** Features to keep; empty keeps everything. */
    std::vector<FeatureId> projection;
    dwrf::Buffer serialized_transforms;
    uint32_t batch_size = 256;

    /**
     * Transform fan-out threads (0 = transform inline on the pump()
     * caller's thread).
     */
    uint32_t num_transform_threads = 0;

    void
    setTransforms(const transforms::TransformGraph &graph)
    {
        serialized_transforms = graph.serialize();
    }
};

/** Tails a labeled stream and produces preprocessed tensors. */
class StreamWorker
{
  public:
    StreamWorker(scribe::LogDevice &device, StreamSessionSpec spec);

    /**
     * Consume up to `max_records` new labeled records; full batches
     * become tensors immediately. Returns records consumed.
     */
    uint64_t pump(uint64_t max_records = 1024);

    /**
     * Force the current partial batch out as a (short) tensor — used
     * at the end of a training window.
     */
    void flush();

    std::optional<TensorBatch> popTensor();
    size_t buffered() const { return buffer_.size(); }

    /** Trim the consumed prefix of the stream (bounds LogDevice). */
    void trimConsumed();

    const transforms::TransformStats &transformStats() const
    {
        return transform_stats_;
    }
    const Metrics &metrics() const { return metrics_; }

  private:
    void emitBatch();
    /** Transform collected batches (parallel mode) into tensors. */
    void transformReady();

    scribe::LogDevice &device_;
    StreamSessionSpec spec_;
    scribe::StreamReader reader_;
    std::unique_ptr<const transforms::CompiledGraph> graph_;
    std::unique_ptr<ThreadPool> pool_;
    std::vector<dwrf::Row> pending_;
    RowId next_row_ = 0; ///< stream position of pending_'s first row
    std::vector<TensorBatch> ready_; ///< awaiting parallel transform
    std::deque<TensorBatch> buffer_;
    transforms::TransformStats transform_stats_;
    Metrics metrics_;
};

} // namespace dsi::dpp

#endif // DSI_DPP_STREAM_SESSION_H
