#include "query.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "dwrf/reader.h"

namespace dsi::warehouse {

namespace {

/**
 * Feature ids start at 1, so projecting {0} matches no feature
 * stream: only always-read streams (labels) are fetched.
 */
constexpr FeatureId kLabelOnlyProjection = 0;

} // namespace

template <typename Fn>
void
QueryEngine::scan(const std::vector<PartitionId> &partitions,
                  const std::vector<FeatureId> &projection,
                  Fn &&fn) const
{
    for (PartitionId pid : partitions) {
        const Partition *partition = table_.findPartition(pid);
        dsi_assert(partition != nullptr, "partition %u missing", pid);
        for (const auto &file : partition->files) {
            auto source = warehouse_.cluster().open(file);
            dwrf::ReadOptions ro;
            ro.projection = projection;
            dwrf::FileReader reader(*source, ro);
            dsi_assert(reader.valid(), "unreadable file '%s'",
                       file.c_str());
            dwrf::RowBatch batch;
            for (size_t s = 0; s < reader.stripeCount(); ++s) {
                // No recovery path here: an unreadable stripe is fatal.
                dwrf::ReadStatus status = reader.readStripe(s, batch);
                dsi_assert(status == dwrf::ReadStatus::Ok,
                           "stripe %zu of '%s' unreadable", s,
                           file.c_str());
                fn(batch);
            }
            bytes_read_ += reader.stats().bytes_read;
        }
    }
}

uint64_t
QueryEngine::countRows(const std::vector<PartitionId> &partitions) const
{
    // The footer already knows; use the cheap metadata path like a
    // real engine would.
    uint64_t rows = 0;
    for (PartitionId pid : partitions) {
        const Partition *partition = table_.findPartition(pid);
        dsi_assert(partition != nullptr, "partition %u missing", pid);
        rows += partition->rows;
    }
    return rows;
}

double
QueryEngine::labelRate(const std::vector<PartitionId> &partitions) const
{
    // Project zero features: only the label stream is read.
    uint64_t rows = 0, positives = 0;
    scan(partitions, {kLabelOnlyProjection},
         [&](const dwrf::RowBatch &batch) {
             rows += batch.rows;
             for (float label : batch.labels)
                 positives += label > 0.5f;
         });
    return rows ? static_cast<double>(positives) / rows : 0.0;
}

std::optional<DenseFeatureStats>
QueryEngine::denseStats(FeatureId feature,
                        const std::vector<PartitionId> &partitions)
    const
{
    const FeatureSpec *spec = table_.schema().find(feature);
    if (!spec || spec->isSparse())
        return std::nullopt;
    DenseFeatureStats stats;
    scan(partitions, {feature}, [&](const dwrf::RowBatch &batch) {
        stats.rows_scanned += batch.rows;
        const auto *col = batch.findDense(feature);
        if (!col)
            return;
        for (uint32_t r = 0; r < batch.rows; ++r) {
            if (col->isPresent(r)) {
                ++stats.present;
                stats.values.add(col->values[r]);
            }
        }
    });
    return stats;
}

std::optional<SparseFeatureStats>
QueryEngine::sparseStats(FeatureId feature,
                         const std::vector<PartitionId> &partitions)
    const
{
    const FeatureSpec *spec = table_.schema().find(feature);
    if (!spec || !spec->isSparse())
        return std::nullopt;
    SparseFeatureStats stats;
    scan(partitions, {feature}, [&](const dwrf::RowBatch &batch) {
        stats.rows_scanned += batch.rows;
        const auto *col = batch.findSparse(feature);
        if (!col)
            return;
        for (uint32_t r = 0; r < batch.rows; ++r) {
            uint32_t len = col->length(r);
            if (len > 0) {
                ++stats.present;
                stats.total_values += len;
            }
        }
    });
    return stats;
}

std::vector<ValueCount>
QueryEngine::topValues(FeatureId feature, size_t k,
                       const std::vector<PartitionId> &partitions)
    const
{
    std::unordered_map<int64_t, uint64_t> counts;
    scan(partitions, {feature}, [&](const dwrf::RowBatch &batch) {
        const auto *col = batch.findSparse(feature);
        if (!col)
            return;
        for (int64_t v : col->values)
            ++counts[v];
    });
    std::vector<ValueCount> out;
    out.reserve(counts.size());
    for (const auto &[value, count] : counts)
        out.push_back({value, count});
    std::sort(out.begin(), out.end(),
              [](const ValueCount &a, const ValueCount &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.value < b.value;
              });
    if (out.size() > k)
        out.resize(k);
    return out;
}

} // namespace dsi::warehouse
