/**
 * @file
 * Training-sample data model.
 *
 * A sample (table row) is a label plus dense features (feature id ->
 * float) and sparse features (feature id -> variable-length list of
 * categorical ids, optionally with parallel float scores), exactly the
 * map-column schema of Section III-A2.
 *
 * RowBatch is the columnar in-memory "flatmap" representation
 * (Section VII): per-feature contiguous values across rows, matching
 * both the on-disk flattened layout and the tensor layout so that
 * extract and load avoid per-row format conversions.
 */

#ifndef DSI_DWRF_ROW_H
#define DSI_DWRF_ROW_H

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace dsi::dwrf {

/** One sparse feature of a row. */
struct SparseFeature
{
    FeatureId id = 0;
    std::vector<int64_t> values;
    std::vector<float> scores; ///< empty, or parallel to `values`

    bool scored() const { return !scores.empty(); }
};

/** One dense feature of a row. */
struct DenseFeature
{
    FeatureId id = 0;
    float value = 0.0f;
};

/** A training sample in row (write-path) form. */
struct Row
{
    float label = 0.0f;
    std::vector<DenseFeature> dense;
    std::vector<SparseFeature> sparse;

    /** Approximate in-memory payload size of the row. */
    Bytes payloadBytes() const
    {
        Bytes b = sizeof(float);
        b += dense.size() * (sizeof(FeatureId) + sizeof(float));
        for (const auto &s : sparse) {
            b += sizeof(FeatureId);
            b += s.values.size() * sizeof(int64_t);
            b += s.scores.size() * sizeof(float);
        }
        return b;
    }
};

/** Columnar dense feature: one value slot per row plus a present bitmap. */
struct DenseColumn
{
    FeatureId id = 0;
    std::vector<uint8_t> present; ///< bitmap, (rows+7)/8 bytes
    std::vector<float> values;    ///< size == rows; 0.0f where absent

    bool isPresent(uint32_t row) const
    {
        return (present[row >> 3] >> (row & 7)) & 1;
    }
    void setPresent(uint32_t row)
    {
        present[row >> 3] |= static_cast<uint8_t>(1u << (row & 7));
    }
};

/** Columnar sparse feature: CSR-style offsets into flat value arrays. */
struct SparseColumn
{
    FeatureId id = 0;
    std::vector<uint32_t> offsets; ///< size == rows + 1
    std::vector<int64_t> values;
    std::vector<float> scores;     ///< empty or parallel to `values`

    uint32_t length(uint32_t row) const
    {
        return offsets[row + 1] - offsets[row];
    }
};

/** A decoded mini-batch in flatmap (columnar) form. */
struct RowBatch
{
    uint32_t rows = 0;
    std::vector<float> labels;
    std::vector<DenseColumn> dense;
    std::vector<SparseColumn> sparse;

    const DenseColumn *findDense(FeatureId id) const
    {
        for (const auto &c : dense)
            if (c.id == id)
                return &c;
        return nullptr;
    }
    const SparseColumn *findSparse(FeatureId id) const
    {
        for (const auto &c : sparse)
            if (c.id == id)
                return &c;
        return nullptr;
    }

    /** Payload bytes held by the batch (uncompressed). */
    Bytes payloadBytes() const
    {
        Bytes b = labels.size() * sizeof(float);
        for (const auto &c : dense)
            b += c.values.size() * sizeof(float) + c.present.size();
        for (const auto &c : sparse) {
            b += c.offsets.size() * sizeof(uint32_t);
            b += c.values.size() * sizeof(int64_t);
            b += c.scores.size() * sizeof(float);
        }
        return b;
    }

    /** Convert back to row form (used by tests and the row baseline). */
    std::vector<Row> toRows() const;
};

/** Build a columnar batch from rows (the write path's pivot). */
RowBatch batchFromRows(const std::vector<Row> &rows);

/** Columnar slice of `count` rows starting at `start`. */
RowBatch sliceBatch(const RowBatch &batch, uint32_t start,
                    uint32_t count);

} // namespace dsi::dwrf

#endif // DSI_DWRF_ROW_H
