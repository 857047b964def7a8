#include "trace_query.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/table_printer.h"

namespace dsi::trace {

double
StallReport::readPct() const
{
    double t = total();
    return t > 0.0 ? 100.0 * read_s / t : 0.0;
}

double
StallReport::transformPct() const
{
    double t = total();
    return t > 0.0 ? 100.0 * transform_s / t : 0.0;
}

double
StallReport::deliverPct() const
{
    double t = total();
    return t > 0.0 ? 100.0 * deliver_s / t : 0.0;
}

std::string
StallReport::render() const
{
    TablePrinter table({"stage", "seconds", "share_pct"});
    table.addRow({"read", TablePrinter::num(read_s, 4),
                  TablePrinter::num(readPct(), 1)});
    double t = total();
    auto step = [&](const char *name, double seconds) {
        table.addRow({name, TablePrinter::num(seconds, 4),
                      TablePrinter::num(
                          t > 0.0 ? 100.0 * seconds / t : 0.0, 1)});
    };
    step("  checksum", checksum_s);
    step("  decrypt", decrypt_s);
    step("  decompress", decompress_s);
    step("  decode", decode_s);
    step("  dict_gather", dict_gather_s);
    step("  other", readOtherS());
    table.addRow({"transform", TablePrinter::num(transform_s, 4),
                  TablePrinter::num(transformPct(), 1)});
    table.addRow({"deliver", TablePrinter::num(deliver_s, 4),
                  TablePrinter::num(deliverPct(), 1)});
    table.addRow({"total", TablePrinter::num(total(), 4),
                  TablePrinter::num(
                      readPct() + transformPct() + deliverPct(), 1)});
    return table.render();
}

TraceQuery::TraceQuery(std::vector<TraceEvent> events)
{
    // Pass 1: materialize a node per span (Begin or Complete).
    for (const auto &ev : events) {
        if (ev.type != TraceEvent::Type::Begin &&
            ev.type != TraceEvent::Type::Complete)
            continue;
        auto node = std::make_unique<SpanNode>();
        node->id = ev.id;
        node->parent_id = ev.parent;
        node->name = ev.name;
        node->begin = ev.ts;
        node->a0 = ev.a0;
        node->a1 = ev.a1;
        node->tid = ev.tid;
        if (ev.type == TraceEvent::Type::Complete) {
            node->end = ev.end_ts;
            node->closed = true;
        }
        by_id_.emplace(ev.id, node.get());
        arena_.push_back(std::move(node));
    }

    // Pass 2: close spans and attach instants.
    for (const auto &ev : events) {
        if (ev.type == TraceEvent::Type::End) {
            auto it = by_id_.find(ev.id);
            if (it != by_id_.end()) {
                it->second->end = ev.ts;
                it->second->closed = true;
            }
        } else if (ev.type == TraceEvent::Type::Instant) {
            auto it = by_id_.find(ev.parent);
            if (it != by_id_.end())
                it->second->instants.push_back(ev);
            else
                dangling_instants_.push_back(ev);
        }
    }

    // Pass 3: link the forest. Events arrive (ts, id)-sorted, so
    // all_/children retain begin-time order.
    for (const auto &node : arena_) {
        all_.push_back(node.get());
        auto it = node->parent_id != kNoSpan
                      ? by_id_.find(node->parent_id)
                      : by_id_.end();
        if (it != by_id_.end()) {
            node->parent = it->second;
            it->second->children.push_back(node.get());
        } else {
            roots_.push_back(node.get());
        }
    }
}

std::vector<const SpanNode *>
TraceQuery::byName(std::string_view name) const
{
    std::vector<const SpanNode *> out;
    for (const SpanNode *node : all_)
        if (node->name == name)
            out.push_back(node);
    return out;
}

size_t
TraceQuery::count(std::string_view name) const
{
    size_t n = 0;
    for (const SpanNode *node : all_)
        if (node->name == name)
            ++n;
    return n;
}

const SpanNode *
TraceQuery::span(SpanId id) const
{
    auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
}

const SpanNode *
TraceQuery::ancestor(const SpanNode &node, std::string_view name) const
{
    for (const SpanNode *up = node.parent; up != nullptr;
         up = up->parent)
        if (up->name == name)
            return up;
    return nullptr;
}

bool
TraceQuery::hasDescendant(const SpanNode &node,
                          std::string_view name) const
{
    for (const SpanNode *child : node.children) {
        if (child->name == name || hasDescendant(*child, name))
            return true;
    }
    return false;
}

std::vector<TraceEvent>
TraceQuery::instantsNamed(std::string_view name) const
{
    std::vector<TraceEvent> out;
    for (const SpanNode *node : all_)
        for (const auto &ev : node->instants)
            if (name == ev.name)
                out.push_back(ev);
    for (const auto &ev : dangling_instants_)
        if (name == ev.name)
            out.push_back(ev);
    return out;
}

double
TraceQuery::totalDuration(std::string_view name) const
{
    double sum = 0.0;
    for (const SpanNode *node : all_)
        if (node->closed && node->name == name)
            sum += node->duration();
    return sum;
}

std::string
TraceQuery::canonical(const SpanNode &node) const
{
    // Children and instants as a sorted multiset with xN run-length
    // counts: identical causal structure canonicalizes identically no
    // matter what order threads appended events in.
    std::vector<std::string> parts;
    parts.reserve(node.children.size() + node.instants.size());
    for (const SpanNode *child : node.children)
        parts.push_back(canonical(*child));
    for (const auto &ev : node.instants)
        parts.push_back("!" + std::string(ev.name));
    std::sort(parts.begin(), parts.end());

    std::string out = node.name;
    if (parts.empty())
        return out;
    out += "(";
    for (size_t i = 0; i < parts.size();) {
        size_t j = i;
        while (j < parts.size() && parts[j] == parts[i])
            ++j;
        if (i > 0)
            out += ",";
        out += parts[i];
        if (j - i > 1)
            out += " x" + std::to_string(j - i);
        i = j;
    }
    out += ")";
    return out;
}

std::vector<std::string>
TraceQuery::topologyLines() const
{
    std::map<std::string, size_t> shapes;
    for (const SpanNode *root : roots_)
        ++shapes[canonical(*root)];
    for (const auto &ev : dangling_instants_)
        ++shapes["!" + std::string(ev.name)];
    std::vector<std::string> lines;
    lines.reserve(shapes.size());
    for (const auto &[shape, n] : shapes)
        lines.push_back(n > 1 ? shape + " x" + std::to_string(n)
                              : shape);
    return lines;
}

std::string
TraceQuery::topology() const
{
    std::string out;
    for (const auto &line : topologyLines()) {
        out += line;
        out += '\n';
    }
    return out;
}

double
TraceQuery::lineageCompleteFraction() const
{
    auto delivers = byName(spans::kClientDeliver);
    if (delivers.empty())
        return 0.0;
    size_t complete = 0;
    for (const SpanNode *d : delivers) {
        // Delivery parents on the transform-stripe span; lineage is
        // complete when that chain reaches a grant whose subtree did
        // real storage work.
        const SpanNode *grant = ancestor(*d, spans::kMasterGrant);
        if (grant != nullptr &&
            hasDescendant(*grant, spans::kExtractStripe))
            ++complete;
    }
    return static_cast<double>(complete) /
           static_cast<double>(delivers.size());
}

StallReport
TraceQuery::stallReport() const
{
    // Table VII partitions batch wall-clock into the stage it was
    // spent in. Extract spans are pure read+decode. Transform spans
    // *contain* their output-buffer waits, which are delivery-side
    // backpressure, so waits are subtracted from transform and
    // credited to deliver alongside the client's own delivery time.
    StallReport report;
    report.read_s = totalDuration(spans::kExtractStripe);
    double buffer_wait = totalDuration(spans::kBufferWait);
    report.transform_s = std::max(
        0.0, totalDuration(spans::kTransformStripe) - buffer_wait);
    report.deliver_s =
        buffer_wait + totalDuration(spans::kClientDeliver);

    // Reader steps count only inside extract spans, so the split never
    // claims time read_s does not hold (a reader used outside a
    // worker's extract loop is left out).
    const std::pair<const char *, double StallReport::*> steps[] = {
        {spans::kReaderChecksum, &StallReport::checksum_s},
        {spans::kReaderDecrypt, &StallReport::decrypt_s},
        {spans::kReaderDecompress, &StallReport::decompress_s},
        {spans::kReaderDecode, &StallReport::decode_s},
        {spans::kReaderDictGather, &StallReport::dict_gather_s},
    };
    for (const auto &[name, field] : steps) {
        for (const SpanNode *node : byName(name)) {
            if (node->closed &&
                ancestor(*node, spans::kExtractStripe) != nullptr)
                report.*field += node->duration();
        }
    }
    return report;
}

} // namespace dsi::trace
