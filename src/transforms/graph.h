/**
 * @file
 * Transform graphs: the per-model preprocessing program a DPP session
 * carries.
 *
 * A graph is an ordered list of TransformSpecs. The DPP Master
 * serializes it ("a serialized and compiled PyTorch module",
 * Section III-B1); Workers deserialize and compile it into executable
 * Transform objects applied to each mini-batch.
 *
 * makeModelGraph() builds realistic per-model graphs: every projected
 * feature gets a normalization op, and each derived feature is a
 * chain of 3-5 generation ops (Section VII notes 3-5 kernels per
 * derived feature).
 */

#ifndef DSI_TRANSFORMS_GRAPH_H
#define DSI_TRANSFORMS_GRAPH_H

#include <optional>
#include <vector>

#include "common/rng.h"
#include "transforms/ops.h"
#include "warehouse/schema.h"

namespace dsi::transforms {

/** An ordered preprocessing program. */
class TransformGraph
{
  public:
    TransformGraph() = default;
    explicit TransformGraph(std::vector<TransformSpec> specs)
        : specs_(std::move(specs))
    {
    }

    void add(TransformSpec spec) { specs_.push_back(std::move(spec)); }

    const std::vector<TransformSpec> &specs() const { return specs_; }
    size_t size() const { return specs_.size(); }
    bool empty() const { return specs_.empty(); }

    /** Count ops of a given class. */
    size_t countClass(OpClass cls) const;

    dwrf::Buffer serialize() const;
    static std::optional<TransformGraph> deserialize(
        dwrf::ByteSpan data);

  private:
    std::vector<TransformSpec> specs_;
};

/**
 * Executable form of a graph. Immutable once built: apply() reads
 * nothing but its arguments, so one instance may serve any number of
 * threads at once.
 *
 * Liveness is worked out once, at construction: a graph output that a
 * later op reads is an intermediate and is dropped from the batch
 * right after its last reader. apply() therefore leaves exactly the
 * raw columns plus the sinks (outputs no later op reads), in their
 * original order: the trainer contract.
 */
class CompiledGraph
{
  public:
    explicit CompiledGraph(const TransformGraph &graph);

    /**
     * Apply every op in order, dropping each intermediate after its
     * last reader; returns per-call stats. `first_row` is the stable
     * identity of the batch's row 0 (see Transform::apply).
     */
    TransformStats apply(dwrf::RowBatch &batch,
                         uint64_t first_row = 0) const;

    size_t size() const { return ops_.size(); }
    const Transform &op(size_t i) const { return *ops_[i]; }

  private:
    std::vector<std::unique_ptr<Transform>> ops_;
    /** Per op: the ops whose outputs die once it has run. */
    std::vector<std::vector<uint32_t>> dead_after_;
};

/** Knobs of the synthetic model-graph builder. */
struct ModelGraphParams
{
    uint32_t derived_features = 10;  ///< Table IV derived count
    /** Chain length range per derived feature (Section VII: 3-5). */
    uint32_t min_chain = 3;
    uint32_t max_chain = 5;
    /** Fraction of projected features receiving normalization. */
    double normalize_fraction = 0.9;
    uint64_t seed = 33;
};

/**
 * Build a per-model graph over the projected features of `schema`:
 * sparse projections get SigridHash/FirstX normalization, dense get
 * Logit/BoxCox/Clamp/Onehot, and `derived_features` new features are
 * derived through generation-op chains.
 */
TransformGraph makeModelGraph(const warehouse::TableSchema &schema,
                              const std::vector<FeatureId> &projection,
                              const ModelGraphParams &params);

/** First feature id used for transform outputs (above raw ids). */
inline constexpr FeatureId kDerivedFeatureBase = 1u << 24;

} // namespace dsi::transforms

#endif // DSI_TRANSFORMS_GRAPH_H
