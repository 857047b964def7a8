#include "ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace dsi::transforms {

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Cartesian:
        return "Cartesian";
      case OpKind::Bucketize:
        return "Bucketize";
      case OpKind::ComputeScore:
        return "ComputeScore";
      case OpKind::Enumerate:
        return "Enumerate";
      case OpKind::PositiveModulus:
        return "PositiveModulus";
      case OpKind::IdListTransform:
        return "IdListTransform";
      case OpKind::BoxCox:
        return "BoxCox";
      case OpKind::Logit:
        return "Logit";
      case OpKind::MapId:
        return "MapId";
      case OpKind::FirstX:
        return "FirstX";
      case OpKind::GetLocalHour:
        return "GetLocalHour";
      case OpKind::SigridHash:
        return "SigridHash";
      case OpKind::NGram:
        return "NGram";
      case OpKind::Onehot:
        return "Onehot";
      case OpKind::Clamp:
        return "Clamp";
      case OpKind::Sampling:
        return "Sampling";
    }
    return "?";
}

OpClass
opClassOf(OpKind kind)
{
    switch (kind) {
      case OpKind::Cartesian:
      case OpKind::Bucketize:
      case OpKind::ComputeScore:
      case OpKind::Enumerate:
      case OpKind::IdListTransform:
      case OpKind::MapId:
      case OpKind::GetLocalHour:
      case OpKind::NGram:
        return OpClass::FeatureGeneration;
      case OpKind::PositiveModulus:
      case OpKind::FirstX:
      case OpKind::SigridHash:
        return OpClass::SparseNormalization;
      case OpKind::BoxCox:
      case OpKind::Logit:
      case OpKind::Onehot:
      case OpKind::Clamp:
        return OpClass::DenseNormalization;
      case OpKind::Sampling:
        return OpClass::Sampling;
    }
    return OpClass::Sampling;
}

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::FeatureGeneration:
        return "feature-generation";
      case OpClass::SparseNormalization:
        return "sparse-normalization";
      case OpClass::DenseNormalization:
        return "dense-normalization";
      case OpClass::Sampling:
        return "sampling";
    }
    return "?";
}

void
TransformSpec::serialize(dwrf::Buffer &out) const
{
    out.push_back(static_cast<uint8_t>(kind));
    dwrf::putVarint(out, output);
    dwrf::putVarint(out, inputs.size());
    for (FeatureId f : inputs)
        dwrf::putVarint(out, f);
    dwrf::putFloat(out, static_cast<float>(p0));
    dwrf::putFloat(out, static_cast<float>(p1));
    dwrf::putVarint(out, u0);
    dwrf::putVarint(out, u1);
}

bool
TransformSpec::deserialize(dwrf::ByteSpan data, size_t &pos,
                           TransformSpec &spec)
{
    if (pos >= data.size())
        return false;
    spec.kind = static_cast<OpKind>(data[pos++]);
    uint64_t out_id, n;
    if (!dwrf::getVarint(data, pos, out_id) ||
        !dwrf::getVarint(data, pos, n)) {
        return false;
    }
    spec.output = static_cast<FeatureId>(out_id);
    spec.inputs.resize(n);
    for (auto &f : spec.inputs) {
        uint64_t id;
        if (!dwrf::getVarint(data, pos, id))
            return false;
        f = static_cast<FeatureId>(id);
    }
    float a, b;
    if (!dwrf::getFloat(data, pos, a) || !dwrf::getFloat(data, pos, b))
        return false;
    spec.p0 = a;
    spec.p1 = b;
    if (!dwrf::getVarint(data, pos, spec.u0) ||
        !dwrf::getVarint(data, pos, spec.u1)) {
        return false;
    }
    return true;
}

void
TransformStats::merge(const TransformStats &other)
{
    values_produced += other.values_produced;
    values_consumed += other.values_consumed;
    rows_in += other.rows_in;
    rows_out += other.rows_out;
    for (int i = 0; i < 4; ++i)
        class_values[i] += other.class_values[i];
}

double
TransformStats::classShare(OpClass cls) const
{
    uint64_t total = 0;
    for (int i = 0; i < 4; ++i)
        total += class_values[i];
    if (total == 0)
        return 0.0;
    return static_cast<double>(class_values[static_cast<int>(cls)]) /
           static_cast<double>(total);
}

namespace {

/** Shared base: holds the spec and stats plumbing. */
class TransformBase : public Transform
{
  public:
    explicit TransformBase(TransformSpec spec) : spec_(std::move(spec))
    {
    }
    const TransformSpec &spec() const override { return spec_; }

  protected:
    void
    account(TransformStats &stats, uint64_t consumed,
            uint64_t produced) const
    {
        stats.values_consumed += consumed;
        stats.values_produced += produced;
        stats.class_values[static_cast<int>(opClass())] += consumed;
    }

    /**
     * Append the sparse output laid out from per-row lengths:
     * out.offsets gets rows + 1 entries and out.values is sized to
     * the total before `fill(out)` writes every value by index, so no
     * row allocates. `consumed` is the input value count.
     */
    template <class RowLength, class Fill>
    void
    emitSparse(dwrf::RowBatch &batch, TransformStats &stats,
               uint64_t consumed, RowLength length, Fill fill) const
    {
        dwrf::SparseColumn out;
        out.id = spec_.output;
        out.offsets.resize(batch.rows + 1);
        out.offsets[0] = 0;
        for (uint32_t r = 0; r < batch.rows; ++r)
            out.offsets[r + 1] = out.offsets[r] + length(r);
        out.values.resize(out.offsets[batch.rows]);
        fill(out);
        account(stats, consumed, out.values.size());
        batch.sparse.push_back(std::move(out));
    }

    TransformSpec spec_;
};

/** Base for ops mapping one dense input to one dense output. */
class DenseUnaryOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    virtual float map(float x) const = 0;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats,
          uint64_t) const override
    {
        const dwrf::DenseColumn *in = batch.findDense(spec_.inputs[0]);
        if (!in)
            return;
        dwrf::DenseColumn out;
        out.id = spec_.output;
        out.present = in->present;
        out.values.assign(batch.rows, 0.0f);
        uint64_t n = 0;
        for (uint32_t r = 0; r < batch.rows; ++r) {
            if (in->isPresent(r)) {
                out.values[r] = map(in->values[r]);
                ++n;
            }
        }
        account(stats, n, n);
        batch.dense.push_back(std::move(out));
    }
};

class BucketizeOp : public DenseUnaryOp
{
  public:
    using DenseUnaryOp::DenseUnaryOp;

    float
    map(float x) const override
    {
        // Borders start at p0 with width p1, u0 buckets total.
        double width = spec_.p1 > 0 ? spec_.p1 : 1.0;
        double idx = std::floor((x - spec_.p0) / width);
        double hi = static_cast<double>(
            spec_.u0 > 0 ? spec_.u0 - 1 : 0);
        return static_cast<float>(std::clamp(idx, 0.0, hi));
    }
};

class BoxCoxOp : public DenseUnaryOp
{
  public:
    using DenseUnaryOp::DenseUnaryOp;

    float
    map(float x) const override
    {
        // lambda = p0, shift = p1 keeps the argument positive.
        double v = std::max(1e-9, static_cast<double>(x) + spec_.p1);
        if (std::abs(spec_.p0) < 1e-9)
            return static_cast<float>(std::log(v));
        return static_cast<float>(
            (std::pow(v, spec_.p0) - 1.0) / spec_.p0);
    }
};

class LogitOp : public DenseUnaryOp
{
  public:
    using DenseUnaryOp::DenseUnaryOp;

    float
    map(float x) const override
    {
        double eps = spec_.p0 > 0 ? spec_.p0 : 1e-6;
        double p = std::clamp(static_cast<double>(x), eps, 1.0 - eps);
        return static_cast<float>(std::log(p / (1.0 - p)));
    }
};

class ClampOp : public DenseUnaryOp
{
  public:
    using DenseUnaryOp::DenseUnaryOp;

    float
    map(float x) const override
    {
        return std::clamp(x, static_cast<float>(spec_.p0),
                          static_cast<float>(spec_.p1));
    }
};

class GetLocalHourOp : public DenseUnaryOp
{
  public:
    using DenseUnaryOp::DenseUnaryOp;

    float
    map(float x) const override
    {
        // x is a unix timestamp; u0 is the timezone offset in hours.
        double shifted =
            static_cast<double>(x) + static_cast<double>(spec_.u0) *
                                         3600.0;
        double seconds = std::fmod(shifted, 86400.0);
        if (seconds < 0)
            seconds += 86400.0;
        return static_cast<float>(std::floor(seconds / 3600.0));
    }
};

/** Onehot: dense value -> single categorical id (bucket index). */
class OnehotOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats,
          uint64_t) const override
    {
        const dwrf::DenseColumn *in = batch.findDense(spec_.inputs[0]);
        if (!in)
            return;
        dwrf::SparseColumn out;
        out.id = spec_.output;
        out.offsets.assign(batch.rows + 1, 0);
        out.values.reserve(batch.rows);
        uint64_t buckets = spec_.u0 > 0 ? spec_.u0 : 2;
        double width = spec_.p1 > 0 ? spec_.p1 : 1.0;
        uint64_t n = 0;
        for (uint32_t r = 0; r < batch.rows; ++r) {
            out.offsets[r + 1] = out.offsets[r];
            if (!in->isPresent(r))
                continue;
            double idx =
                std::floor((in->values[r] - spec_.p0) / width);
            int64_t bucket = static_cast<int64_t>(std::clamp(
                idx, 0.0, static_cast<double>(buckets - 1)));
            out.values.push_back(bucket);
            ++out.offsets[r + 1];
            ++n;
        }
        account(stats, n, n);
        batch.sparse.push_back(std::move(out));
    }
};

/** Number of list values in the first `rows` rows of `c`. */
uint32_t
listValues(const dwrf::SparseColumn &c, uint32_t rows)
{
    return rows > 0 ? c.offsets[rows] - c.offsets[0] : 0;
}

/**
 * Base for the one-in-one-out list ops: the output has the input's
 * offsets (rebased to 0) and one value per input value. `Op::fill`
 * writes the whole flat array at once, so there is no per-row virtual
 * call and no push_back.
 */
template <class Op>
class ListMapOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats,
          uint64_t) const override
    {
        const dwrf::SparseColumn *in =
            batch.findSparse(spec_.inputs[0]);
        if (!in)
            return;
        uint32_t lo = batch.rows > 0 ? in->offsets[0] : 0;
        uint32_t n = listValues(*in, batch.rows);
        const float *scores =
            in->scores.empty() ? nullptr : in->scores.data() + lo;
        emitSparse(
            batch, stats, n, [&](uint32_t r) { return in->length(r); },
            [&](dwrf::SparseColumn &out) {
                static_cast<const Op *>(this)->fill(
                    in->values.data() + lo, scores, n, out);
            });
    }
};

/**
 * SigridHash and PositiveModulus check once whether their modulus `m`
 * is a power of two. If it is, they mask: in two's complement `v & (m -
 * 1)` is the Euclidean `v mod m` of every uint64 and int64, so the
 * 64-bit divide is skipped. Any other modulus keeps the `%` loop.
 */
class SigridHashOp : public ListMapOp<SigridHashOp>
{
  public:
    explicit SigridHashOp(TransformSpec spec)
        : ListMapOp(std::move(spec)),
          max_value_(spec_.u1 > 0 ? spec_.u1 : (1ULL << 31)),
          masked_(std::has_single_bit(max_value_))
    {
    }

    void
    fill(const int64_t *values, const float *, uint32_t n,
         dwrf::SparseColumn &out) const
    {
        const uint64_t salt = sigridSalt(spec_.u0);
        int64_t *dst = out.values.data();
        if (masked_) {
            const uint64_t mask = max_value_ - 1;
            for (uint32_t i = 0; i < n; ++i)
                dst[i] = static_cast<int64_t>(
                    sigridMix(static_cast<uint64_t>(values[i]) + salt) &
                    mask);
            return;
        }
        for (uint32_t i = 0; i < n; ++i) {
            uint64_t h =
                sigridMix(static_cast<uint64_t>(values[i]) + salt);
            dst[i] = static_cast<int64_t>(h % max_value_);
        }
    }

  private:
    uint64_t max_value_;
    bool masked_;
};

class PositiveModulusOp : public ListMapOp<PositiveModulusOp>
{
  public:
    explicit PositiveModulusOp(TransformSpec spec)
        : ListMapOp(std::move(spec)),
          m_(spec_.u0 > 0 ? static_cast<int64_t>(spec_.u0) : 1000000),
          masked_(std::has_single_bit(static_cast<uint64_t>(m_)))
    {
    }

    void
    fill(const int64_t *values, const float *, uint32_t n,
         dwrf::SparseColumn &out) const
    {
        int64_t *dst = out.values.data();
        if (masked_) {
            const int64_t mask = m_ - 1;
            for (uint32_t i = 0; i < n; ++i)
                dst[i] = values[i] & mask;
            return;
        }
        for (uint32_t i = 0; i < n; ++i) {
            int64_t v = values[i] % m_;
            dst[i] = v < 0 ? v + m_ : v;
        }
    }

  private:
    int64_t m_; ///< in [1, INT64_MAX]: compileTransform checks u0
    bool masked_;
};

class MapIdOp : public ListMapOp<MapIdOp>
{
  public:
    using ListMapOp::ListMapOp;

    void
    fill(const int64_t *values, const float *, uint32_t n,
         dwrf::SparseColumn &out) const
    {
        // Fixed mapping: ids below u0 keep a remapped identity; all
        // others collapse to the default id u1.
        int64_t dict = static_cast<int64_t>(spec_.u0);
        int64_t fallback = static_cast<int64_t>(spec_.u1);
        int64_t *dst = out.values.data();
        for (uint32_t i = 0; i < n; ++i)
            dst[i] = values[i] < dict ? values[i] + 1 : fallback;
    }
};

class EnumerateOp : public ListMapOp<EnumerateOp>
{
  public:
    using ListMapOp::ListMapOp;

    void
    fill(const int64_t *values, const float *, uint32_t n,
         dwrf::SparseColumn &out) const
    {
        std::copy_n(values, n, out.values.data());
        out.scores.resize(n);
        for (size_t r = 0; r + 1 < out.offsets.size(); ++r) {
            for (uint32_t i = out.offsets[r]; i < out.offsets[r + 1]; ++i)
                out.scores[i] = static_cast<float>(i - out.offsets[r]);
        }
    }
};

class ComputeScoreOp : public ListMapOp<ComputeScoreOp>
{
  public:
    using ListMapOp::ListMapOp;

    void
    fill(const int64_t *values, const float *scores, uint32_t n,
         dwrf::SparseColumn &out) const
    {
        // score' = score * p0 + p1 (score defaults to 1 if absent)
        std::copy_n(values, n, out.values.data());
        out.scores.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
            double s = scores ? scores[i] : 1.0;
            out.scores[i] = static_cast<float>(s * spec_.p0 + spec_.p1);
        }
    }
};

class FirstXOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats,
          uint64_t) const override
    {
        const dwrf::SparseColumn *in =
            batch.findSparse(spec_.inputs[0]);
        if (!in)
            return;
        uint32_t x = spec_.u0 > 0 ? static_cast<uint32_t>(spec_.u0) : 1;
        emitSparse(
            batch, stats, listValues(*in, batch.rows),
            [&](uint32_t r) { return std::min(in->length(r), x); },
            [&](dwrf::SparseColumn &out) {
                bool scored = !in->scores.empty();
                if (scored)
                    out.scores.resize(out.values.size());
                for (uint32_t r = 0; r < batch.rows; ++r) {
                    uint32_t lo = in->offsets[r];
                    uint32_t dst = out.offsets[r];
                    uint32_t keep = out.offsets[r + 1] - dst;
                    std::copy_n(in->values.data() + lo, keep,
                                out.values.data() + dst);
                    if (scored)
                        std::copy_n(in->scores.data() + lo, keep,
                                    out.scores.data() + dst);
                }
            });
    }
};

class NGramOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats,
          uint64_t) const override
    {
        const dwrf::SparseColumn *in =
            batch.findSparse(spec_.inputs[0]);
        if (!in)
            return;
        uint32_t gram = spec_.u0 >= 2 ? static_cast<uint32_t>(spec_.u0)
                                      : 2;
        // Every window's first hash takes the op's salt.
        const uint64_t salt0 = sigridSalt(spec_.u1);
        emitSparse(
            batch, stats, listValues(*in, batch.rows),
            [&](uint32_t r) {
                uint32_t len = in->length(r);
                return len < gram ? 0 : len - gram + 1;
            },
            [&](dwrf::SparseColumn &out) {
                for (uint32_t r = 0; r < batch.rows; ++r) {
                    const int64_t *values =
                        in->values.data() + in->offsets[r];
                    for (uint32_t o = out.offsets[r], i = 0;
                         o < out.offsets[r + 1]; ++o, ++i) {
                        uint64_t h = sigridMix(
                            static_cast<uint64_t>(values[i]) + salt0);
                        for (uint32_t k = 1; k < gram; ++k)
                            h = sigridHash64(
                                static_cast<uint64_t>(values[i + k]), h);
                        // keep positive
                        out.values[o] = static_cast<int64_t>(h >> 1);
                    }
                }
            });
    }
};

class CartesianOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats,
          uint64_t) const override
    {
        const dwrf::SparseColumn *a = batch.findSparse(spec_.inputs[0]);
        const dwrf::SparseColumn *b = batch.findSparse(spec_.inputs[1]);
        if (!a || !b)
            return;
        uint64_t cap = spec_.u0 > 0 ? spec_.u0 : 128;
        emitSparse(
            batch, stats,
            uint64_t{listValues(*a, batch.rows)} +
                listValues(*b, batch.rows),
            [&](uint32_t r) {
                return static_cast<uint32_t>(std::min<uint64_t>(
                    cap, static_cast<uint64_t>(a->length(r)) *
                             b->length(r)));
            },
            [&](dwrf::SparseColumn &out) {
                // Row-major over (a, b) pairs, cut at `cap`. A pair
                // hashes to sigridHash64(a[i], b[j] ^ u1), and the
                // salt term of b[j] is computed once per row.
                uint32_t max_b = 0;
                for (uint32_t r = 0; r < batch.rows; ++r)
                    max_b = std::max(max_b, b->length(r));
                std::vector<uint64_t> salts(
                    std::min<uint64_t>(max_b, cap));
                for (uint32_t r = 0; r < batch.rows; ++r) {
                    const int64_t *av = a->values.data() + a->offsets[r];
                    const int64_t *bv = b->values.data() + b->offsets[r];
                    uint32_t o = out.offsets[r], end = out.offsets[r + 1];
                    uint32_t blen = std::min(b->length(r), end - o);
                    for (uint32_t j = 0; j < blen; ++j)
                        salts[j] = sigridSalt(
                            static_cast<uint64_t>(bv[j]) ^ spec_.u1);
                    for (uint32_t i = 0; o < end; ++i) {
                        uint64_t ai = static_cast<uint64_t>(av[i]);
                        uint32_t take = std::min(blen, end - o);
                        int64_t *dst = out.values.data() + o;
                        for (uint32_t j = 0; j < take; ++j)
                            dst[j] = static_cast<int64_t>(
                                sigridMix(ai + salts[j]) >> 1);
                        o += take;
                    }
                }
            });
    }
};

/**
 * Open-addressing id set for IdListTransform, built once per apply()
 * call for the longest `b` list and reused row after row. A per-row
 * generation stamp empties it in O(1), and each row probes only the
 * power-of-two prefix its own list needs. At 8 slots per id (load <=
 * 1/8) an id that is not in `b`, the common case, almost always stops
 * at its first slot.
 */
class RowIdSet
{
  public:
    explicit RowIdSet(uint32_t max_len) : slots_(capacityFor(max_len))
    {
    }

    /** Start a row whose `b` list has `len` ids. */
    void
    reset(uint32_t len)
    {
        ++gen_;
        size_t cap = capacityFor(len);
        mask_ = cap - 1;
        shift_ = 64 - std::countr_zero(cap);
    }

    void
    insert(int64_t id)
    {
        Slot &s = find(id);
        s.key = id;
        s.member = gen_;
    }

    /** True the first time a member `id` is taken in this row. */
    bool
    take(int64_t id)
    {
        Slot &s = find(id);
        if (s.member != gen_ || s.taken == gen_)
            return false;
        s.taken = gen_;
        return true;
    }

  private:
    struct Slot
    {
        int64_t key = 0;
        uint32_t member = 0; ///< == gen_: `key` is in this row's set
        uint32_t taken = 0;  ///< == gen_: `key` was emitted this row
    };

    /**
     * 8 slots per id up to kMaxSparseSlots (4,096 ids); a longer list
     * gets 2 slots per id (load <= 1/2), so a huge list does not cost
     * 16 table bytes per list byte.
     */
    static size_t
    capacityFor(uint32_t len)
    {
        size_t sparse = std::min(8 * size_t{len}, kMaxSparseSlots);
        return std::bit_ceil(
            std::max({size_t{8}, sparse, 2 * size_t{len}}));
    }

    static constexpr size_t kMaxSparseSlots = size_t{1} << 15;

    /** The slot holding `id`, or the empty slot where it would go. */
    Slot &
    find(int64_t id)
    {
        size_t i = (static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL) >>
                   shift_;
        while (slots_[i].member == gen_ && slots_[i].key != id)
            i = (i + 1) & mask_;
        return slots_[i];
    }

    std::vector<Slot> slots_;
    uint32_t gen_ = 0;
    size_t mask_ = 0;
    int shift_ = 64;
};

class IdListTransformOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats,
          uint64_t) const override
    {
        const dwrf::SparseColumn *a = batch.findSparse(spec_.inputs[0]);
        const dwrf::SparseColumn *b = batch.findSparse(spec_.inputs[1]);
        if (!a || !b)
            return;
        // Intersection of the two id lists, in a's order, each id
        // once. The output is at most `a`, so it is sized once and
        // trimmed at the end.
        uint32_t max_b = 0;
        for (uint32_t r = 0; r < batch.rows; ++r)
            max_b = std::max(max_b, b->length(r));
        RowIdSet set(max_b);
        dwrf::SparseColumn out;
        out.id = spec_.output;
        out.offsets.assign(batch.rows + 1, 0);
        out.values.resize(listValues(*a, batch.rows));
        uint32_t n = 0;
        for (uint32_t r = 0; r < batch.rows; ++r) {
            uint32_t alen = a->length(r), blen = b->length(r);
            if (alen > 0 && blen > 0) {
                const int64_t *av = a->values.data() + a->offsets[r];
                const int64_t *bv = b->values.data() + b->offsets[r];
                set.reset(blen);
                for (uint32_t j = 0; j < blen; ++j)
                    set.insert(bv[j]);
                for (uint32_t i = 0; i < alen; ++i) {
                    if (set.take(av[i]))
                        out.values[n++] = av[i];
                }
            }
            out.offsets[r + 1] = n;
        }
        out.values.resize(n);
        account(stats,
                uint64_t{listValues(*a, batch.rows)} +
                    listValues(*b, batch.rows),
                n);
        batch.sparse.push_back(std::move(out));
    }
};

/**
 * Batch-level random row sampling (keep rate p0, salt u0). Each row's
 * draw is a hash of its identity `first_row + r`, so a row is kept or
 * dropped the same way on every worker, thread and replay.
 */
class SamplingOp : public TransformBase
{
  public:
    using TransformBase::TransformBase;

    void
    apply(dwrf::RowBatch &batch, TransformStats &stats,
          uint64_t first_row) const override
    {
        stats.rows_in += batch.rows;
        std::vector<uint32_t> keep;
        keep.reserve(batch.rows);
        for (uint32_t r = 0; r < batch.rows; ++r) {
            uint64_t h = sigridHash64(first_row + r, spec_.u0);
            double u = static_cast<double>(h >> 11) * 0x1.0p-53;
            if (u < spec_.p0)
                keep.push_back(r);
        }

        dwrf::RowBatch out;
        out.rows = static_cast<uint32_t>(keep.size());
        out.labels.reserve(keep.size());
        for (uint32_t r : keep)
            out.labels.push_back(batch.labels.empty() ? 0.0f
                                                      : batch.labels[r]);
        for (const auto &col : batch.dense) {
            dwrf::DenseColumn c;
            c.id = col.id;
            c.present.assign((out.rows + 7) / 8, 0);
            c.values.assign(out.rows, 0.0f);
            for (uint32_t i = 0; i < out.rows; ++i) {
                if (col.isPresent(keep[i])) {
                    c.setPresent(i);
                    c.values[i] = col.values[keep[i]];
                }
            }
            out.dense.push_back(std::move(c));
        }
        for (const auto &col : batch.sparse) {
            dwrf::SparseColumn c;
            c.id = col.id;
            c.offsets.assign(out.rows + 1, 0);
            uint32_t kept_values = 0;
            for (uint32_t i = 0; i < out.rows; ++i)
                kept_values += col.offsets[keep[i] + 1] -
                               col.offsets[keep[i]];
            c.values.reserve(kept_values);
            if (!col.scores.empty())
                c.scores.reserve(kept_values);
            for (uint32_t i = 0; i < out.rows; ++i) {
                uint32_t lo = col.offsets[keep[i]];
                uint32_t hi = col.offsets[keep[i] + 1];
                c.values.insert(c.values.end(),
                                col.values.begin() + lo,
                                col.values.begin() + hi);
                if (!col.scores.empty()) {
                    c.scores.insert(c.scores.end(),
                                    col.scores.begin() + lo,
                                    col.scores.begin() + hi);
                }
                c.offsets[i + 1] =
                    static_cast<uint32_t>(c.values.size());
            }
            out.sparse.push_back(std::move(c));
        }
        account(stats, batch.rows, out.rows);
        stats.rows_out += out.rows;
        batch = std::move(out);
    }
};

void
requireInputs(const TransformSpec &spec, size_t n)
{
    dsi_assert(spec.inputs.size() == n,
               "%s expects %zu inputs, got %zu",
               opKindName(spec.kind), n, spec.inputs.size());
}

} // namespace

std::unique_ptr<Transform>
compileTransform(const TransformSpec &spec)
{
    switch (spec.kind) {
      case OpKind::Cartesian:
        requireInputs(spec, 2);
        return std::make_unique<CartesianOp>(spec);
      case OpKind::Bucketize:
        requireInputs(spec, 1);
        return std::make_unique<BucketizeOp>(spec);
      case OpKind::ComputeScore:
        requireInputs(spec, 1);
        return std::make_unique<ComputeScoreOp>(spec);
      case OpKind::Enumerate:
        requireInputs(spec, 1);
        return std::make_unique<EnumerateOp>(spec);
      case OpKind::PositiveModulus:
        requireInputs(spec, 1);
        dsi_assert(spec.u0 <= uint64_t{INT64_MAX},
                   "PositiveModulus modulus %llu exceeds INT64_MAX",
                   static_cast<unsigned long long>(spec.u0));
        return std::make_unique<PositiveModulusOp>(spec);
      case OpKind::IdListTransform:
        requireInputs(spec, 2);
        return std::make_unique<IdListTransformOp>(spec);
      case OpKind::BoxCox:
        requireInputs(spec, 1);
        return std::make_unique<BoxCoxOp>(spec);
      case OpKind::Logit:
        requireInputs(spec, 1);
        return std::make_unique<LogitOp>(spec);
      case OpKind::MapId:
        requireInputs(spec, 1);
        return std::make_unique<MapIdOp>(spec);
      case OpKind::FirstX:
        requireInputs(spec, 1);
        return std::make_unique<FirstXOp>(spec);
      case OpKind::GetLocalHour:
        requireInputs(spec, 1);
        return std::make_unique<GetLocalHourOp>(spec);
      case OpKind::SigridHash:
        requireInputs(spec, 1);
        return std::make_unique<SigridHashOp>(spec);
      case OpKind::NGram:
        requireInputs(spec, 1);
        return std::make_unique<NGramOp>(spec);
      case OpKind::Onehot:
        requireInputs(spec, 1);
        return std::make_unique<OnehotOp>(spec);
      case OpKind::Clamp:
        requireInputs(spec, 1);
        return std::make_unique<ClampOp>(spec);
      case OpKind::Sampling:
        requireInputs(spec, 0);
        return std::make_unique<SamplingOp>(spec);
    }
    dsi_panic("unknown op kind %d", static_cast<int>(spec.kind));
}

} // namespace dsi::transforms
