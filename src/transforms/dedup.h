/**
 * @file
 * RecD-style batch dedup for the DPP transform stage.
 *
 * Duplicate rows dominate recommendation batches (Table V; RecD):
 * many samples in one mini-batch carry identical feature payloads and
 * differ only in their labels. Since every Table XI op except
 * Sampling is *row-local* — a row's transformed output is a pure
 * function of that row's feature content — the transform graph needs
 * to run only once per distinct payload:
 *
 *   plan   ->  group identical rows (hash bucket + exact compare;
 *              labels excluded from the identity),
 *   gather ->  a unique-rows batch in first-occurrence order,
 *   apply  ->  the compiled graph, once per unique row,
 *   expand ->  inverse-index gather back to full batch size, with
 *              each row's original label restored.
 *
 * The expansion is byte-identical to running the graph on the full
 * batch (tests/dedup_differential_test.cc proves it end to end):
 * exact row comparison means no hash collision can alias two
 * different rows, and row-local ops compute bitwise-equal outputs on
 * the gathered copy. Graphs containing Sampling (which keeps or drops
 * each row by its row identity, not its content) must be bypassed —
 * rowLocal() is the gate.
 */

#ifndef DSI_TRANSFORMS_DEDUP_H
#define DSI_TRANSFORMS_DEDUP_H

#include <vector>

#include "dwrf/row.h"
#include "transforms/graph.h"

namespace dsi::transforms {

/**
 * True when the op's per-row output depends only on that row's
 * feature content (every Table XI op except Sampling, which rewrites
 * the batch as a function of each row's identity `first_row + r`).
 */
bool rowLocal(OpKind kind);

/** True when every op in the graph is row-local. */
bool rowLocal(const TransformGraph &graph);
bool rowLocal(const CompiledGraph &graph);

/** Duplicate-row structure of one batch. */
struct BatchDedupPlan
{
    /** Representative row indices, in first-occurrence order. */
    std::vector<uint32_t> unique_rows;

    /** Per original row: its slot in unique_rows. */
    std::vector<uint32_t> inverse;

    /** True when the batch actually holds duplicates. */
    bool collapsed() const
    {
        return unique_rows.size() < inverse.size();
    }
};

/**
 * Group identical rows of `batch`. Row identity covers every dense
 * (presence + value) and sparse (values + scores) column but NOT the
 * label: duplicated samples keep their own labels, and no row-local
 * op reads or writes labels. Exact: hash buckets are confirmed by
 * full row comparison.
 */
BatchDedupPlan planBatchDedup(const dwrf::RowBatch &batch);

/** Gather `rows` of `batch` into a new batch (labels included). */
dwrf::RowBatch gatherRows(const dwrf::RowBatch &batch,
                          const std::vector<uint32_t> &rows);

/**
 * Expand a transformed unique-rows batch back to full size via the
 * plan's inverse index, restoring the original per-row `labels`
 * (size == plan.inverse.size()).
 */
dwrf::RowBatch expandBatch(const dwrf::RowBatch &unique,
                           const BatchDedupPlan &plan,
                           const std::vector<float> &labels);

} // namespace dsi::transforms

#endif // DSI_TRANSFORMS_DEDUP_H
