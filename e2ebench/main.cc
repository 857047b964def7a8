/**
 * @file
 * dsi_bench: one run of one workload of the end-to-end benchmark.
 *
 *   dsi_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--smoke] [--out-dir DIR] [--gaps FILE]
 *   dsi_bench --print-fingerprints
 *
 * --trace 0 is the timed run and reports the end-to-end metrics;
 * --trace 1 is the layer replay and reports the per-layer metrics
 * (and writes DIR/trace_NAME.json). Every metric is printed by name
 * with its unit; the last line of standard output is one JSON object
 * {"correct", "attempted", "failed", "metrics"}. run.py drives it.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "fingerprints.h"

using namespace dsi;
using namespace dsi::e2e;

namespace dsi::e2e {

void
checkPinnedInputs(const Workload &w, const RunOptions &opts,
                  const Corpus &corpus)
{
    if (opts.smoke || opts.seed != kPinnedSeed)
        return;
    uint64_t graph = graphDigest(
        makeSpec(w, corpus, allPartitions(w)).serialized_transforms);
    for (const PinnedInputs &p : kPinnedInputs) {
        if (w.name != p.workload)
            continue;
        if (corpus.rows_digest == p.rows && graph == p.graph)
            return;
        std::fprintf(stderr,
                     "dsi_bench: %s inputs changed for seed %llu: rows "
                     "%016llx (pinned %016llx), graph %016llx (pinned "
                     "%016llx). The workload is no longer the one the "
                     "baseline measured.\n",
                     w.name.c_str(),
                     static_cast<unsigned long long>(opts.seed),
                     static_cast<unsigned long long>(corpus.rows_digest),
                     static_cast<unsigned long long>(p.rows),
                     static_cast<unsigned long long>(graph),
                     static_cast<unsigned long long>(p.graph));
        std::exit(3);
    }
    std::fprintf(stderr, "dsi_bench: no pinned inputs for %s\n",
                 w.name.c_str());
    std::exit(3);
}

} // namespace dsi::e2e

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: dsi_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke]\n"
                 "                 [--out-dir DIR] [--gaps FILE]\n"
                 "       dsi_bench --print-fingerprints\n");
    return 2;
}

/** The pinned-input table for fingerprints.h, from the current code. */
int
printFingerprints()
{
    for (const std::string &name : workloadNames()) {
        Workload w = *makeWorkload(name, false);
        Corpus corpus = buildCorpus(w, kPinnedSeed);
        uint64_t graph = graphDigest(
            makeSpec(w, corpus, allPartitions(w)).serialized_transforms);
        std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n",
                    name.c_str(),
                    static_cast<unsigned long long>(corpus.rows_digest),
                    static_cast<unsigned long long>(graph));
    }
    return 0;
}

void
printResult(RunResult &r)
{
    for (const Metric &m : r.metrics) {
        r.check(std::isfinite(m.value), m.name + " is not finite");
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    for (const std::string &p : r.problems)
        std::printf("FAILED: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--print-fingerprints") {
            return printFingerprints();
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if ((v = value()) == nullptr) {
            return usage();
        } else if (arg == "--workload") {
            opts.workload = v;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(v, nullptr);
        } else if (arg == "--trace") {
            opts.trace = std::string(v) == "1";
            if (!opts.trace && std::string(v) != "0")
                return usage();
        } else if (arg == "--out-dir") {
            opts.out_dir = v;
        } else if (arg == "--gaps") {
            opts.gaps_path = v;
        } else {
            return usage();
        }
    }
    auto workload = makeWorkload(opts.workload, opts.smoke);
    if (!workload || !(opts.seconds > 0 && opts.seconds <= 600))
        return usage();

    std::printf("dsi_bench %s seed %llu, %.3g s, %s\n",
                workload->name.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? "layer replay" : "timed run");
    RunResult r = opts.trace ? measureLayers(*workload, opts)
                             : measureEndToEnd(*workload, opts);
    printResult(r);
    return 0;
}
