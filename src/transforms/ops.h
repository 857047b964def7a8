/**
 * @file
 * DLRM online-preprocessing transformations (Table XI).
 *
 * All sixteen operations of the paper's catalog, implemented over the
 * columnar RowBatch representation. Ops fall into three classes
 * (Section VI-D): *feature generation* (deriving new features, ~75% of
 * transform cycles), *sparse normalization* (~20%), and *dense
 * normalization* (~5%), plus batch-level sampling.
 *
 * An op is described by a declarative TransformSpec (serializable, so
 * a DPP Master can ship the "compiled PyTorch module" to Workers) and
 * executed through the Transform interface.
 */

#ifndef DSI_TRANSFORMS_OPS_H
#define DSI_TRANSFORMS_OPS_H

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "dwrf/encoding.h"
#include "dwrf/row.h"

namespace dsi::transforms {

/** The Table XI operation catalog. */
enum class OpKind : uint8_t
{
    Cartesian = 0,
    Bucketize,
    ComputeScore,
    Enumerate,
    PositiveModulus,
    IdListTransform,
    BoxCox,
    Logit,
    MapId,
    FirstX,
    GetLocalHour,
    SigridHash,
    NGram,
    Onehot,
    Clamp,
    Sampling,
};

/** Cost class of an operation (Section VI-D split). */
enum class OpClass : uint8_t
{
    FeatureGeneration,
    SparseNormalization,
    DenseNormalization,
    Sampling,
};

const char *opKindName(OpKind kind);
OpClass opClassOf(OpKind kind);
const char *opClassName(OpClass cls);

/** Declarative description of one transform instance. */
struct TransformSpec
{
    OpKind kind = OpKind::Clamp;
    FeatureId output = 0;            ///< id of the produced feature
    std::vector<FeatureId> inputs;   ///< consumed features, in order
    double p0 = 0.0;                 ///< op-specific scalar params
    double p1 = 0.0;
    uint64_t u0 = 0;                 ///< op-specific integer params
    uint64_t u1 = 0;

    void serialize(dwrf::Buffer &out) const;
    static bool deserialize(dwrf::ByteSpan data, size_t &pos,
                            TransformSpec &spec);
};

/** Execution statistics accumulated by apply(). */
struct TransformStats
{
    uint64_t values_produced = 0;
    uint64_t values_consumed = 0;
    uint64_t rows_in = 0;
    uint64_t rows_out = 0;
    /** Per-class consumed-value counts (proxy for cycle split). */
    uint64_t class_values[4] = {0, 0, 0, 0};

    void merge(const TransformStats &other);
    double classShare(OpClass cls) const;
};

/** A compiled, executable transform. */
class Transform
{
  public:
    virtual ~Transform() = default;

    virtual const TransformSpec &spec() const = 0;

    /**
     * Apply in place: reads input columns of `batch`, appends (or for
     * Sampling, rewrites) output. Missing inputs are tolerated (the
     * op contributes nothing for rows lacking them). `first_row` is
     * the stable identity of the batch's row 0 (row r is
     * `first_row + r`); only Sampling reads it, so an op's output
     * never depends on which thread ran it or how often.
     */
    virtual void apply(dwrf::RowBatch &batch, TransformStats &stats,
                       uint64_t first_row = 0) const = 0;

    OpKind kind() const { return spec().kind; }
    OpClass opClass() const { return opClassOf(spec().kind); }
};

/**
 * Compile one spec. Dies on malformed specs: wrong input arity, or a
 * PositiveModulus modulus above INT64_MAX.
 */
std::unique_ptr<Transform> compileTransform(const TransformSpec &spec);

/** What `salt` adds to the value in sigridHash64. */
inline uint64_t
sigridSalt(uint64_t salt)
{
    return salt * 0x9e3779b97f4a7c15ULL + 0x9e3779b97f4a7c15ULL;
}

/** sigridHash64's finalizer over value + sigridSalt(salt). */
inline uint64_t
sigridMix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Deterministic 64-bit hash used by SigridHash / NGram / Cartesian. */
inline uint64_t
sigridHash64(uint64_t value, uint64_t salt)
{
    return sigridMix(value + sigridSalt(salt));
}

} // namespace dsi::transforms

#endif // DSI_TRANSFORMS_OPS_H
