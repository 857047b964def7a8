/**
 * @file
 * The benchmark's four workloads, the corpora they read, and the
 * digests its correctness checks compare.
 *
 * A workload is a fixed schema, corpus shape, write options, session
 * spec and worker configuration. Only the generated rows depend on the
 * run's --seed; the schema, projection and transform graph are part of
 * the workload's definition, so their digests are pinned (see
 * fingerprints.h) and a change in the generators or the graph builder
 * cannot silently change what the benchmark measures.
 */

#ifndef DSI_E2EBENCH_WORKLOADS_H
#define DSI_E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dpp/session.h"
#include "warehouse/corpus.h"

namespace dsi::e2e {

/** How the workload's load is driven. */
enum class Kind
{
    /** One threaded InProcessSession per epoch, one trainer. */
    Session,
    /** A synchronous FleetScheduler serving a closed loop of tenants. */
    Fleet,
};

/** Everything that defines one workload except its row seed. */
struct Workload
{
    std::string name;
    Kind kind = Kind::Session;

    warehouse::SchemaParams schema;
    /** Rows come from DupRowGenerator (RecD corpus) when set. */
    bool duplicated = false;
    warehouse::DupParams dup;
    uint32_t partitions = 2;
    uint64_t rows_per_partition = 32768;
    uint64_t rows_per_file = 8192;
    dwrf::WriterOptions writer;
    storage::StorageOptions storage;

    /** Projection size; 0 and 0 project every stored feature. */
    uint32_t dense_used = 0;
    uint32_t sparse_used = 0;
    uint32_t derived_features = 2;
    uint32_t batch_size = 256;
    uint64_t rows_per_split = 4096;
    bool coalesce = false;

    /** Session workloads: the pool's one worker. */
    dpp::WorkerOptions worker;

    /** Fleet workload: pooled workers and concurrent tenant slots. */
    uint32_t fleet_workers = 3;
    uint32_t tenant_slots = 4;
};

/** The workload names, in the order run.py interleaves them. */
const std::vector<std::string> &workloadNames();

/** The named workload (tiny corpora with `smoke`); nullopt if unknown. */
std::optional<Workload> makeWorkload(const std::string &name, bool smoke);

/** A corpus written through the real DWRF writer into Tectonic. */
struct Corpus
{
    warehouse::MiniCorpus mc;
    uint64_t rows = 0;
    /** DWRF encode + Tectonic placement; row generation excluded. */
    double encode_s = 0.0;
    /** Digest of the generated rows, in generation order. */
    uint64_t rows_digest = 0;
    /** Replicated Tectonic bytes of the corpus files. */
    Bytes physical_bytes = 0;
};

/** Generate `w`'s rows from `seed` and store them. */
Corpus buildCorpus(const Workload &w, uint64_t seed);

/** `w`'s session spec over `partitions` of `corpus`. */
dpp::SessionSpec makeSpec(const Workload &w, const Corpus &corpus,
                          std::vector<PartitionId> partitions);

/** Every partition of the corpus (the session workloads' row filter). */
std::vector<PartitionId> allPartitions(const Workload &w);

/**
 * Digest of one delivered batch keyed by (split, first_row): the
 * content and the key together, so an epoch's digest is the
 * order-independent sum of its batch digests.
 */
uint64_t batchDigest(uint64_t split_id, RowId first_row,
                     const dwrf::RowBatch &batch);

/** Digest of a serialized transform graph. */
uint64_t graphDigest(const dwrf::Buffer &serialized);

} // namespace dsi::e2e

#endif // DSI_E2EBENCH_WORKLOADS_H
