/**
 * @file
 * Span-tree reconstruction and assertions over a TraceLog snapshot.
 *
 * TraceQuery turns the flat event stream into a forest of SpanNodes
 * (Begin/End pairs and Complete spans become nodes; instants attach
 * to their parent node) so tests can assert *causal* pipeline
 * behavior — span parentage, retry counts, shed decisions — instead
 * of eventual counters, and so benches can reproduce the paper's
 * Table VII per-stage data-stall attribution from a live session.
 */

#ifndef DSI_COMMON_TRACE_QUERY_H
#define DSI_COMMON_TRACE_QUERY_H

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.h"

namespace dsi::trace {

/** One reconstructed span and its place in the forest. */
struct SpanNode
{
    SpanId id = kNoSpan;
    SpanId parent_id = kNoSpan;
    std::string name;
    double begin = 0.0;
    double end = 0.0;
    uint64_t a0 = 0;
    uint64_t a1 = 0;
    uint32_t tid = 0;
    bool closed = false; ///< saw an End (or is a Complete span)

    const SpanNode *parent = nullptr;  ///< nullptr for roots
    std::vector<const SpanNode *> children;
    std::vector<TraceEvent> instants; ///< events attached to this span

    double duration() const { return end - begin; }
};

/**
 * Per-stage wall-clock attribution of a traced session — the live
 * counterpart of Table VII's read/transform/deliver stall breakdown.
 * Stage seconds sum the corresponding span durations across all
 * pipeline threads; percentages are shares of the three-stage total,
 * so they sum to 100 by construction.
 */
struct StallReport
{
    double read_s = 0.0;      ///< extract: storage read+decode time
    double transform_s = 0.0; ///< transform minus buffer waits
    double deliver_s = 0.0;   ///< buffer waits + client delivery

    // read_s split by reader step: the reader.* child spans that sit
    // inside extract spans. They never overlap one another, so they
    // sum to at most read_s; readOtherS() is the rest (storage IO,
    // read planning, retry backoff).
    double checksum_s = 0.0;
    double decrypt_s = 0.0;
    double decompress_s = 0.0;
    double decode_s = 0.0;
    double dict_gather_s = 0.0;

    double total() const { return read_s + transform_s + deliver_s; }
    double readStepsS() const
    {
        return checksum_s + decrypt_s + decompress_s + decode_s +
               dict_gather_s;
    }
    double readOtherS() const { return read_s - readStepsS(); }
    double readPct() const;
    double transformPct() const;
    double deliverPct() const;

    /** Table VII-style rendering via TablePrinter, with the read
     * stage's steps on indented rows under it. */
    std::string render() const;
};

/** Query/assertion helper over one trace snapshot. */
class TraceQuery
{
  public:
    explicit TraceQuery(std::vector<TraceEvent> events);

    /** Every reconstructed span, in begin-time order. */
    const std::vector<const SpanNode *> &spans() const
    {
        return all_;
    }

    /** Spans with no (known) parent. */
    const std::vector<const SpanNode *> &roots() const
    {
        return roots_;
    }

    std::vector<const SpanNode *> byName(std::string_view name) const;
    size_t count(std::string_view name) const;

    /** Node for a span id; nullptr if unknown. */
    const SpanNode *span(SpanId id) const;

    /** Nearest proper ancestor named `name`; nullptr if none. */
    const SpanNode *ancestor(const SpanNode &node,
                             std::string_view name) const;

    /** True when `node` has a descendant (any depth) named `name`. */
    bool hasDescendant(const SpanNode &node,
                       std::string_view name) const;

    /** All instant events named `name` (attached or dangling). */
    std::vector<TraceEvent> instantsNamed(std::string_view name) const;

    /** Sum of durations over spans named `name` (closed spans). */
    double totalDuration(std::string_view name) const;

    /**
     * Canonical, timestamp- and id-free shape of the forest: one line
     * per distinct root subtree, "<canonical form> xN", sorted. Two
     * runs with identical causal structure produce identical lines,
     * whatever the thread interleaving — the determinism tests diff
     * exactly this.
     */
    std::vector<std::string> topologyLines() const;
    std::string topology() const; ///< topologyLines joined with '\n'

    /**
     * Fraction of delivery spans with complete lineage: an ancestry
     * that reaches a master.grant whose subtree contains at least one
     * extract-stripe read span. 1.0 for a clean traced run.
     */
    double lineageCompleteFraction() const;

    /** Table VII rollup over this trace. */
    StallReport stallReport() const;

  private:
    std::string canonical(const SpanNode &node) const;

    // Nodes keep stable addresses in a deque-like arena.
    std::vector<std::unique_ptr<SpanNode>> arena_;
    std::map<SpanId, SpanNode *> by_id_;
    std::vector<const SpanNode *> all_;
    std::vector<const SpanNode *> roots_;
    std::vector<TraceEvent> dangling_instants_; ///< unknown parent
};

} // namespace dsi::trace

#endif // DSI_COMMON_TRACE_QUERY_H
