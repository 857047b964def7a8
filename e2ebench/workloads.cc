#include "workloads.h"

#include <algorithm>
#include <cstring>

#include "common/trace.h"
#include "transforms/graph.h"

namespace dsi::e2e {

namespace {

using trace::nowSeconds;

uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Word-wise 64-bit hash; stable across runs and builds. */
class Hasher
{
  public:
    void add(uint64_t v)
    {
        h_ = (h_ ^ mix64(v + 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;
    }

    void addBytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (; n >= 8; n -= 8, p += 8) {
            uint64_t w;
            std::memcpy(&w, p, 8);
            h_ = (h_ ^ w) * 0x9fb21c651e98df25ULL;
            h_ ^= h_ >> 29;
        }
        uint64_t tail = 0;
        if (n > 0)
            std::memcpy(&tail, p, n);
        add(tail ^ (uint64_t{n} << 56));
    }

    template <typename T>
    void addVector(const std::vector<T> &v)
    {
        add(v.size());
        addBytes(v.data(), v.size() * sizeof(T));
    }

    uint64_t digest() const { return mix64(h_); }

  private:
    uint64_t h_ = 0x6a09e667f3bcc908ULL;
};

uint32_t
floatBits(float f)
{
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    return bits;
}

void
hashRow(Hasher &h, const dwrf::Row &row)
{
    h.add(floatBits(row.label));
    h.add(row.dense.size());
    for (const auto &d : row.dense)
        h.add((uint64_t{d.id} << 32) | floatBits(d.value));
    h.add(row.sparse.size());
    for (const auto &s : row.sparse) {
        h.add(s.id);
        h.addVector(s.values);
        h.addVector(s.scores);
    }
}

/** The narrow schema shared by heavy_transform, dup_dedup and the fleet. */
warehouse::SchemaParams
narrowSchema(const std::string &name)
{
    warehouse::SchemaParams p;
    p.name = name;
    p.float_features = 16;
    p.sparse_features = 8;
    p.avg_length = 20.0;
    p.seed = 0x4e41;
    return p;
}

/**
 * Generate rows file by file, timing only the encode + placement.
 * Generation is the benchmark's own work, not the system's.
 */
template <typename Gen>
void
writeCorpus(const Workload &w, Gen &gen, Corpus &c)
{
    auto &table = c.mc.warehouse->createTable(w.schema.name, c.mc.schema);
    Hasher rows_hash;
    for (uint32_t p = 0; p < w.partitions; ++p) {
        warehouse::Partition partition;
        partition.id = p;
        uint32_t file_idx = 0;
        for (uint64_t left = w.rows_per_partition; left > 0;) {
            uint64_t n = std::min(left, w.rows_per_file);
            std::vector<dwrf::Row> rows =
                gen.batch(static_cast<uint32_t>(n));
            for (const auto &row : rows)
                hashRow(rows_hash, row);
            std::string fname = w.schema.name + "/p" + std::to_string(p) +
                                "/f" + std::to_string(file_idx++) +
                                ".dwrf";
            double t0 = nowSeconds();
            dwrf::FileWriter writer(w.writer);
            writer.appendRows(rows);
            dwrf::Buffer bytes = writer.finish();
            c.mc.cluster->put(fname, bytes);
            c.encode_s += nowSeconds() - t0;
            partition.stored_bytes += bytes.size();
            partition.files.push_back(fname);
            partition.rows += n;
            left -= n;
        }
        c.rows += partition.rows;
        table.addPartition(std::move(partition));
    }
    c.rows_digest = rows_hash.digest();
}

} // namespace

uint64_t
batchDigest(uint64_t split_id, RowId first_row,
            const dwrf::RowBatch &batch)
{
    Hasher h;
    h.add(split_id);
    h.add(first_row);
    h.add(batch.rows);
    h.addVector(batch.labels);
    for (const auto &c : batch.dense) {
        h.add(c.id);
        h.addVector(c.present);
        h.addVector(c.values);
    }
    for (const auto &c : batch.sparse) {
        h.add(c.id);
        h.addVector(c.offsets);
        h.addVector(c.values);
        h.addVector(c.scores);
    }
    return h.digest();
}

uint64_t
graphDigest(const dwrf::Buffer &serialized)
{
    Hasher h;
    h.addVector(serialized);
    return h.digest();
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "wide_read", "heavy_transform", "dup_dedup", "fleet_service"};
    return names;
}

std::optional<Workload>
makeWorkload(const std::string &name, bool smoke)
{
    Workload w;
    w.name = name;
    if (name == "wide_read") {
        // Extraction-bound: ~11% of 180 stored features, encrypted and
        // compressed, read with coalesced IO.
        w.schema.name = "wide";
        w.schema.float_features = 120;
        w.schema.sparse_features = 60;
        w.schema.avg_length = 12.0;
        w.schema.seed = 0x57d3;
        // Encoding a wide row costs ~60 us. A run sets up three times,
        // and its set-ups are time in which the host can drift between
        // runs; a quarter of dup_dedup's rows keeps them short.
        w.rows_per_partition = 8192;
        w.writer.codec = dwrf::Codec::Lz;
        w.writer.encrypt = true;
        // One batch per stripe. With 8 batches per stripe the gaps split
        // into a fast mode inside a stripe and a slow one between
        // stripes, and their p99 swung by 20% between runs.
        w.writer.rows_per_stripe = 256;
        w.dense_used = 12;
        w.sparse_used = 8;
        w.derived_features = 2;
        w.coalesce = true;
    } else if (name == "heavy_transform") {
        // Transform-bound: every stored feature projected and 16
        // derived features built from 3-5 op chains.
        w.schema = narrowSchema("narrow");
        // Half dup_dedup's rows: a warm-up epoch here takes ~0.4 s, and
        // every set-up runs one.
        w.rows_per_partition = 16384;
        w.writer.rows_per_stripe = 2048;
        w.derived_features = 16;
    } else if (name == "dup_dedup") {
        // heavy_transform's layers on the RecD corpus, with list
        // dictionaries in the files and batch dedup in the worker.
        w.schema = narrowSchema("dup");
        w.duplicated = true;
        w.dup.pool_size = 384;
        w.dup.alpha = 1.05;
        w.writer.rows_per_stripe = 2048;
        w.writer.dedup = true;
        w.worker.dedup_enabled = true;
        w.derived_features = 16;
    } else if (name == "fleet_service") {
        // The resident service: scheduling, per-delivery journal,
        // hedged reads and the SSD block cache, all on one driver
        // thread (the fleet is synchronous) plus the hedge pool.
        w.kind = Kind::Fleet;
        w.schema = narrowSchema("fleet");
        w.partitions = 8;
        w.rows_per_partition = 8192;
        w.rows_per_file = 2048;
        // One batch per stripe: each worker pump yields one batch, so a
        // tenant's gaps are ticks, not bursts sliced from one stripe.
        w.writer.rows_per_stripe = 256;
        w.rows_per_split = 2048;
        w.dense_used = 8;
        w.sparse_used = 4;
        w.derived_features = 2;
        w.storage.block_size = 1_MiB;
        w.storage.hedge.enabled = true;
    } else {
        return std::nullopt;
    }
    if (smoke) {
        w.rows_per_partition = w.kind == Kind::Fleet ? 1024 : 2048;
        w.rows_per_file = std::min<uint64_t>(w.rows_per_file, 1024);
        w.writer.rows_per_stripe =
            std::min<uint32_t>(w.writer.rows_per_stripe, 512);
        w.rows_per_split = std::min<uint64_t>(w.rows_per_split, 512);
    }
    if (w.kind == Kind::Session) {
        // One extract and one transform thread: with the trainer thread
        // that is three busy threads, leaving one core of a 4-core host
        // free so single runs do not fight the OS for cycles.
        w.worker.num_extract_threads = 1;
        w.worker.num_transform_threads = 1;
    } else {
        // Files are smaller than a block, so the tenants' live working
        // set is one block per file; the cache holds about half of it.
        uint64_t files = (w.rows_per_partition + w.rows_per_file - 1) /
                         w.rows_per_file;
        w.storage.cache_blocks = w.tenant_slots * files / 2;
    }
    return w;
}

Corpus
buildCorpus(const Workload &w, uint64_t seed)
{
    Corpus c;
    c.mc.name = w.schema.name;
    double t0 = nowSeconds();
    c.mc.cluster = std::make_unique<storage::TectonicCluster>(w.storage);
    c.mc.warehouse = std::make_unique<warehouse::Warehouse>(*c.mc.cluster);
    c.encode_s += nowSeconds() - t0;
    c.mc.schema = warehouse::makeSchema(w.schema);
    c.mc.popularity = warehouse::featurePopularity(
        c.mc.schema, w.schema.popularity_alpha, w.schema.seed ^ 0x9999);
    uint64_t row_seed = mix64(seed ^ mix64(w.schema.seed));
    if (w.duplicated) {
        warehouse::DupParams dup = w.dup;
        dup.seed = row_seed;
        warehouse::DupRowGenerator gen(c.mc.schema, dup);
        writeCorpus(w, gen, c);
    } else {
        warehouse::RowGenerator gen(c.mc.schema, row_seed);
        writeCorpus(w, gen, c);
    }
    c.physical_bytes = c.mc.cluster->physicalBytes();
    return c;
}

std::vector<PartitionId>
allPartitions(const Workload &w)
{
    std::vector<PartitionId> parts;
    for (uint32_t p = 0; p < w.partitions; ++p)
        parts.push_back(p);
    return parts;
}

dpp::SessionSpec
makeSpec(const Workload &w, const Corpus &corpus,
         std::vector<PartitionId> partitions)
{
    dpp::SessionSpec spec;
    spec.table = w.schema.name;
    spec.partitions = std::move(partitions);
    if (w.dense_used + w.sparse_used == 0) {
        for (const auto &f : corpus.mc.schema.features)
            spec.projection.push_back(f.id);
    } else {
        spec.projection = warehouse::chooseProjection(
            corpus.mc.schema, corpus.mc.popularity, w.dense_used,
            w.sparse_used, 7);
    }
    transforms::ModelGraphParams gp;
    gp.derived_features = w.derived_features;
    spec.setTransforms(transforms::makeModelGraph(corpus.mc.schema,
                                                  spec.projection, gp));
    spec.batch_size = w.batch_size;
    spec.rows_per_split = w.rows_per_split;
    spec.read.coalesce = w.coalesce;
    spec.read.cipher_key = w.writer.cipher_key;
    return spec;
}

} // namespace dsi::e2e
