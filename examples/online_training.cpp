/**
 * @file
 * The streaming (recurring-training) path of Figure 3: in-production
 * models are updated from *fresh* labeled samples published to Scribe
 * streams by the streaming join, without waiting for daily batch
 * partitions.
 *
 * Loop: serving logs features+events -> streaming joiner labels them
 * into the "labeled" stream -> a dpp::StreamWorker tails the stream,
 * projects/batches/transforms, and the trainer pops tensors for
 * mini-batch updates. Stream trimming keeps LogDevice bounded.
 */

#include <cstdio>

#include "dpp/stream_session.h"
#include "etl/pipeline.h"
#include "transforms/graph.h"
#include "warehouse/datagen.h"

using namespace dsi;

int
main()
{
    warehouse::SchemaParams params;
    params.name = "online";
    params.float_features = 20;
    params.sparse_features = 10;
    params.avg_length = 8.0;
    auto schema = warehouse::makeSchema(params);
    scribe::LogDevice logdevice;

    etl::ServingOptions so;
    so.positive_rate = 0.05;
    etl::ServingSimulator serving(logdevice, schema, so);
    etl::JoinOptions jo;
    jo.join_window = 45.0;
    etl::StreamingJoiner joiner(logdevice, jo);

    // The online trainer's session: a 13-feature projection and a
    // small transform graph, served straight from the stream.
    auto pop = warehouse::featurePopularity(schema, 1.0, 3);
    dpp::StreamSessionSpec spec;
    spec.projection =
        warehouse::chooseProjection(schema, pop, 8, 5, 3);
    transforms::ModelGraphParams gp;
    gp.derived_features = 2;
    spec.setTransforms(
        transforms::makeModelGraph(schema, spec.projection, gp));
    spec.batch_size = 256;
    dpp::StreamWorker worker(logdevice, spec);

    uint64_t model_updates = 0, samples_trained = 0;
    double freshness = 0;

    // Ten minutes of simulated time in 30-second pumps.
    for (int step = 0; step < 20; ++step) {
        double now = step * 30.0;
        serving.serve(600, now);
        serving.flush();
        joiner.pump(now + 60.0); // events arrive within the minute
        joiner.trimConsumed();

        worker.pump();
        while (auto tensor = worker.popTensor()) {
            // The trainer applies one SGD update per tensor.
            ++model_updates;
            samples_trained += tensor->data.rows;
        }
        // End-to-end freshness: serving happened at `now`, the
        // sample reached a tensor right after the join closed.
        freshness = (now + 60.0) - now;
        worker.trimConsumed();
    }
    worker.flush();
    while (auto tensor = worker.popTensor()) {
        ++model_updates;
        samples_trained += tensor->data.rows;
    }

    std::printf("online training: %llu mini-batch updates over %llu "
                "fresh samples\n",
                (unsigned long long)model_updates,
                (unsigned long long)samples_trained);
    std::printf("sample freshness at the last update: ~%.0f s from "
                "serving to gradient (bounded by the join window)\n",
                freshness);
    std::printf("logdevice bounded by trimming: %llu records left in "
                "'labeled', %llu in 'features'\n",
                (unsigned long long)logdevice.recordCount("labeled"),
                (unsigned long long)
                    logdevice.recordCount("features"));
    std::printf("join health: %.0f joined, %.0f expired to "
                "negatives; transform cycle split %.0f%% generation\n",
                joiner.metrics().counter("join.events_in"),
                joiner.metrics().counter("join.window_expired"),
                100 * worker.transformStats().classShare(
                          transforms::OpClass::FeatureGeneration));
    return 0;
}
