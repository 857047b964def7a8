#include "dedup.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"

namespace dsi::transforms {

bool
rowLocal(OpKind kind)
{
    return kind != OpKind::Sampling;
}

bool
rowLocal(const TransformGraph &graph)
{
    for (const auto &spec : graph.specs()) {
        if (!rowLocal(spec.kind))
            return false;
    }
    return true;
}

bool
rowLocal(const CompiledGraph &graph)
{
    for (size_t i = 0; i < graph.size(); ++i) {
        if (!rowLocal(graph.op(i).kind()))
            return false;
    }
    return true;
}

namespace {

/**
 * Row hash mixed 8 bytes at a time (a short tail is zero-padded and
 * tagged with its length). It only picks the probe sequence:
 * rowsEqual() decides every grouping.
 */
struct RowHasher
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void mixU64(uint64_t w)
    {
        h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
    }
    void mix(const void *data, size_t len)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (; len >= sizeof(uint64_t); p += 8, len -= 8) {
            uint64_t w;
            std::memcpy(&w, p, sizeof(w));
            mixU64(w);
        }
        if (len > 0) {
            uint64_t w = 0;
            std::memcpy(&w, p, len);
            mixU64(w ^ (static_cast<uint64_t>(len) << 56));
        }
    }
};

uint64_t
hashRow(const dwrf::RowBatch &batch, uint32_t r)
{
    RowHasher hasher;
    for (const auto &c : batch.dense) {
        // One word per dense column: presence bit plus value bits.
        uint32_t bits = 0;
        bool present = c.isPresent(r);
        if (present)
            std::memcpy(&bits, &c.values[r], sizeof(bits));
        hasher.mixU64(present ? (uint64_t{1} << 32) | bits : 0);
    }
    for (const auto &c : batch.sparse) {
        uint32_t begin = c.offsets[r], end = c.offsets[r + 1];
        hasher.mixU64(end - begin);
        hasher.mix(c.values.data() + begin,
                   (end - begin) * sizeof(int64_t));
        if (!c.scores.empty()) {
            hasher.mix(c.scores.data() + begin,
                       (end - begin) * sizeof(float));
        }
    }
    return hasher.h;
}

/** Exact feature-content equality of two rows (labels excluded). */
bool
rowsEqual(const dwrf::RowBatch &batch, uint32_t a, uint32_t b)
{
    for (const auto &c : batch.dense) {
        if (c.isPresent(a) != c.isPresent(b))
            return false;
        // Compare value bits, not floats: NaN payloads and -0.0f must
        // round-trip through dedup unchanged.
        if (c.isPresent(a) &&
            std::memcmp(&c.values[a], &c.values[b], sizeof(float)) !=
                0) {
            return false;
        }
    }
    for (const auto &c : batch.sparse) {
        uint32_t abegin = c.offsets[a], alen = c.offsets[a + 1] - abegin;
        uint32_t bbegin = c.offsets[b], blen = c.offsets[b + 1] - bbegin;
        if (alen != blen)
            return false;
        if (alen != 0 &&
            std::memcmp(c.values.data() + abegin,
                        c.values.data() + bbegin,
                        alen * sizeof(int64_t)) != 0) {
            return false;
        }
        if (!c.scores.empty() && alen != 0 &&
            std::memcmp(c.scores.data() + abegin,
                        c.scores.data() + bbegin,
                        alen * sizeof(float)) != 0) {
            return false;
        }
    }
    return true;
}

} // namespace

BatchDedupPlan
planBatchDedup(const dwrf::RowBatch &batch)
{
    BatchDedupPlan plan;
    plan.inverse.resize(batch.rows);
    plan.unique_rows.reserve(batch.rows);

    // Open addressing over row hashes, sized once per batch (load
    // factor <= 1/2): a probe that meets an equal hash confirms it
    // with the exact compare, so a collision only costs a step.
    struct Entry
    {
        uint64_t hash = 0;
        uint32_t slot = UINT32_MAX; ///< UINT32_MAX: empty
    };
    std::vector<Entry> table(
        std::bit_ceil(std::max<size_t>(8, 2 * size_t{batch.rows})));
    const size_t mask = table.size() - 1;
    for (uint32_t r = 0; r < batch.rows; ++r) {
        uint64_t h = hashRow(batch, r);
        size_t i = (h ^ (h >> 32)) & mask;
        while (table[i].slot != UINT32_MAX &&
               !(table[i].hash == h &&
                 rowsEqual(batch, plan.unique_rows[table[i].slot], r))) {
            i = (i + 1) & mask;
        }
        if (table[i].slot == UINT32_MAX) {
            table[i] = {h, static_cast<uint32_t>(plan.unique_rows.size())};
            plan.unique_rows.push_back(r);
        }
        plan.inverse[r] = table[i].slot;
    }
    return plan;
}

namespace {

/** Gather `rows` of `src` into a fresh batch (shared by both paths). */
dwrf::RowBatch
gatherImpl(const dwrf::RowBatch &src,
           const std::vector<uint32_t> &rows,
           const std::vector<float> *labels_override)
{
    dwrf::RowBatch out;
    out.rows = static_cast<uint32_t>(rows.size());

    if (labels_override != nullptr) {
        out.labels = *labels_override;
    } else if (!src.labels.empty()) {
        out.labels.reserve(rows.size());
        for (uint32_t r : rows)
            out.labels.push_back(src.labels[r]);
    }

    out.dense.reserve(src.dense.size());
    for (const auto &c : src.dense) {
        dwrf::DenseColumn col;
        col.id = c.id;
        col.present.assign((out.rows + 7) / 8, 0);
        col.values.assign(out.rows, 0.0f);
        for (uint32_t i = 0; i < out.rows; ++i) {
            uint32_t r = rows[i];
            if (c.isPresent(r)) {
                col.setPresent(i);
                col.values[i] = c.values[r];
            }
        }
        out.dense.push_back(std::move(col));
    }

    out.sparse.reserve(src.sparse.size());
    for (const auto &c : src.sparse) {
        dwrf::SparseColumn col;
        col.id = c.id;
        col.offsets.assign(out.rows + 1, 0);
        uint32_t total = 0;
        for (uint32_t i = 0; i < out.rows; ++i) {
            total += c.length(rows[i]);
            col.offsets[i + 1] = total;
        }
        col.values.resize(total);
        bool scored = !c.scores.empty();
        if (scored)
            col.scores.resize(total);
        for (uint32_t i = 0; i < out.rows; ++i) {
            uint32_t begin = c.offsets[rows[i]];
            uint32_t len = col.offsets[i + 1] - col.offsets[i];
            if (len == 0)
                continue;
            std::memcpy(col.values.data() + col.offsets[i],
                        c.values.data() + begin,
                        len * sizeof(int64_t));
            if (scored) {
                std::memcpy(col.scores.data() + col.offsets[i],
                            c.scores.data() + begin,
                            len * sizeof(float));
            }
        }
        out.sparse.push_back(std::move(col));
    }
    return out;
}

} // namespace

dwrf::RowBatch
gatherRows(const dwrf::RowBatch &batch,
           const std::vector<uint32_t> &rows)
{
    return gatherImpl(batch, rows, nullptr);
}

dwrf::RowBatch
expandBatch(const dwrf::RowBatch &unique, const BatchDedupPlan &plan,
            const std::vector<float> &labels)
{
    dsi_assert(labels.size() == plan.inverse.size(),
               "label count %zu != batch rows %zu", labels.size(),
               plan.inverse.size());
    return gatherImpl(unique, plan.inverse, &labels);
}

} // namespace dsi::transforms
