#include "graph.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"

namespace dsi::transforms {

size_t
TransformGraph::countClass(OpClass cls) const
{
    size_t n = 0;
    for (const auto &s : specs_)
        n += opClassOf(s.kind) == cls;
    return n;
}

dwrf::Buffer
TransformGraph::serialize() const
{
    dwrf::Buffer out;
    dwrf::putVarint(out, specs_.size());
    for (const auto &s : specs_)
        s.serialize(out);
    return out;
}

std::optional<TransformGraph>
TransformGraph::deserialize(dwrf::ByteSpan data)
{
    size_t pos = 0;
    uint64_t n;
    if (!dwrf::getVarint(data, pos, n))
        return std::nullopt;
    std::vector<TransformSpec> specs(n);
    for (auto &s : specs) {
        if (!TransformSpec::deserialize(data, pos, s))
            return std::nullopt;
    }
    if (pos != data.size())
        return std::nullopt;
    return TransformGraph(std::move(specs));
}

CompiledGraph::CompiledGraph(const TransformGraph &graph)
    : dead_after_(graph.size())
{
    const auto &specs = graph.specs();
    ops_.reserve(specs.size());
    for (const auto &spec : specs)
        ops_.push_back(compileTransform(spec));
    // last_reader[i]: the last op reading op i's output (0 = none; a
    // reader always comes after op 0). Sampling writes no column.
    std::vector<uint32_t> last_reader(specs.size(), 0);
    std::unordered_map<FeatureId, std::vector<uint32_t>> producers;
    for (uint32_t j = 0; j < specs.size(); ++j) {
        for (FeatureId id : specs[j].inputs) {
            auto it = producers.find(id);
            if (it == producers.end())
                continue;
            for (uint32_t i : it->second)
                last_reader[i] = j;
        }
        if (specs[j].kind != OpKind::Sampling)
            producers[specs[j].output].push_back(j);
    }
    for (uint32_t i = 0; i < specs.size(); ++i) {
        if (last_reader[i] != 0)
            dead_after_[last_reader[i]].push_back(i);
    }
}

namespace {

/** Erase the newest column named `id` from `columns`. */
template <class Column>
void
eraseNewest(std::vector<Column> &columns, FeatureId id)
{
    auto it = std::find_if(columns.rbegin(), columns.rend(),
                           [&](const Column &c) { return c.id == id; });
    if (it != columns.rend())
        columns.erase(std::next(it).base());
}

} // namespace

TransformStats
CompiledGraph::apply(dwrf::RowBatch &batch, uint64_t first_row) const
{
    enum class Wrote : uint8_t { Nothing, Dense, Sparse };
    TransformStats stats;
    // Which column each op appended in this call: an op whose input
    // is missing writes nothing, so there is nothing of its to drop.
    std::vector<Wrote> wrote(ops_.size(), Wrote::Nothing);
    for (size_t j = 0; j < ops_.size(); ++j) {
        size_t dense = batch.dense.size(), sparse = batch.sparse.size();
        ops_[j]->apply(batch, stats, first_row);
        if (batch.dense.size() > dense)
            wrote[j] = Wrote::Dense;
        else if (batch.sparse.size() > sparse)
            wrote[j] = Wrote::Sparse;
        for (uint32_t i : dead_after_[j]) {
            FeatureId id = ops_[i]->spec().output;
            if (wrote[i] == Wrote::Dense)
                eraseNewest(batch.dense, id);
            else if (wrote[i] == Wrote::Sparse)
                eraseNewest(batch.sparse, id);
        }
    }
    return stats;
}

TransformGraph
makeModelGraph(const warehouse::TableSchema &schema,
               const std::vector<FeatureId> &projection,
               const ModelGraphParams &params)
{
    Rng rng(params.seed);
    TransformGraph graph;
    FeatureId next_out = kDerivedFeatureBase;

    std::vector<FeatureId> dense_in, sparse_in;
    for (FeatureId id : projection) {
        const warehouse::FeatureSpec *f = schema.find(id);
        dsi_assert(f != nullptr, "projected feature %u not in schema",
                   id);
        (f->isSparse() ? sparse_in : dense_in).push_back(id);
    }

    // --- Normalization of raw projected features ---
    for (FeatureId id : dense_in) {
        if (!rng.nextBool(params.normalize_fraction))
            continue;
        TransformSpec s;
        s.inputs = {id};
        s.output = next_out++;
        switch (rng.nextUint(4)) {
          case 0:
            s.kind = OpKind::Logit;
            s.p0 = 1e-6;
            break;
          case 1:
            s.kind = OpKind::BoxCox;
            s.p0 = 0.5;
            s.p1 = 1.0;
            break;
          case 2:
            s.kind = OpKind::Clamp;
            s.p0 = 0.0;
            s.p1 = 1000.0;
            break;
          default:
            s.kind = OpKind::Onehot;
            s.p0 = 0.0;
            s.p1 = 10.0;
            s.u0 = 64;
            break;
        }
        graph.add(std::move(s));
    }
    for (FeatureId id : sparse_in) {
        if (!rng.nextBool(params.normalize_fraction))
            continue;
        TransformSpec s;
        s.inputs = {id};
        s.output = next_out++;
        switch (rng.nextUint(3)) {
          case 0:
            s.kind = OpKind::SigridHash;
            s.u0 = rng.next();
            s.u1 = 1u << 22;
            break;
          case 1:
            s.kind = OpKind::FirstX;
            s.u0 = 1 + rng.nextUint(50);
            break;
          default:
            s.kind = OpKind::PositiveModulus;
            s.u0 = 1u << 20;
            break;
        }
        graph.add(std::move(s));
    }

    // --- Derived features: chains of generation ops ---
    for (uint32_t d = 0; d < params.derived_features; ++d) {
        uint32_t chain =
            params.min_chain +
            static_cast<uint32_t>(rng.nextUint(
                params.max_chain - params.min_chain + 1));
        // Chain starts from one or two raw sparse features (or dense
        // for GetLocalHour-style derivations when no sparse exists).
        FeatureId current = 0;
        bool current_sparse = !sparse_in.empty();
        if (current_sparse) {
            current = sparse_in[rng.nextUint(sparse_in.size())];
        } else if (!dense_in.empty()) {
            current = dense_in[rng.nextUint(dense_in.size())];
        } else {
            break;
        }
        for (uint32_t step = 0; step < chain; ++step) {
            TransformSpec s;
            s.output = next_out++;
            if (current_sparse) {
                switch (rng.nextUint(5)) {
                  case 0:
                    s.kind = OpKind::Cartesian;
                    s.inputs = {current,
                                sparse_in[rng.nextUint(
                                    sparse_in.size())]};
                    s.u0 = 64;
                    s.u1 = rng.next();
                    break;
                  case 1:
                    s.kind = OpKind::NGram;
                    s.inputs = {current};
                    s.u0 = 2 + rng.nextUint(2);
                    s.u1 = rng.next();
                    break;
                  case 2:
                    s.kind = OpKind::MapId;
                    s.inputs = {current};
                    s.u0 = 1u << 18;
                    s.u1 = 1;
                    break;
                  case 3:
                    s.kind = OpKind::IdListTransform;
                    s.inputs = {current,
                                sparse_in[rng.nextUint(
                                    sparse_in.size())]};
                    break;
                  default:
                    s.kind = OpKind::Enumerate;
                    s.inputs = {current};
                    break;
                }
            } else {
                s.kind = OpKind::GetLocalHour;
                s.inputs = {current};
                s.u0 = rng.nextUint(24);
            }
            current = s.output;
            graph.add(std::move(s));
        }
        // Derived sparse features end with a normalization hash so
        // ids land in the embedding-table domain.
        if (current_sparse) {
            TransformSpec s;
            s.kind = OpKind::SigridHash;
            s.inputs = {current};
            s.output = next_out++;
            s.u0 = rng.next();
            s.u1 = 1u << 22;
            graph.add(std::move(s));
        }
    }
    return graph;
}

} // namespace dsi::transforms
