/**
 * @file
 * The repeatable perf baseline harness (the repo's benchmark book is
 * docs/BENCHMARKS.md; the numbers it explains come from here).
 *
 * Emits schema-versioned BENCH_decode.json and BENCH_dpp.json
 * (src/common/bench_report.h defines the schema):
 *
 *  - decode suite: MB/s per stream encoding, scalar reference vs
 *    bulk kernel, on pinned-seed synthetic corpora (incl. the Zipfian
 *    dictionary corpus — the paper's categorical-id shape), and the
 *    stream CRC32-C, portable kernel vs the dispatched one;
 *  - dpp suite: per-op transform throughput over a realistic
 *    mini-batch (Table XI). End-to-end session throughput and batch
 *    latency are e2ebench's (`rows_per_s`, `batch_gap_p99_ms`).
 *
 * Every corpus derives from pinned seeds; trials are split into
 * discarded warmups and measured runs (median reported). `--quick`
 * shrinks corpora and trial counts for CI smoke (numbers are NOT
 * comparable to full mode); `--validate FILE...` schema-checks
 * existing documents and exits.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_report.h"
#include "common/rng.h"
#include "dwrf/checksum.h"
#include "dwrf/checksum_internal.h"
#include "dwrf/encoding.h"
#include "transforms/graph.h"
#include "warehouse/datagen.h"

using namespace dsi;

namespace {

/** Every corpus below derives from this seed (documented in JSON). */
constexpr uint64_t kSeed = 42;

struct SuiteConfig
{
    bool quick = false;
    uint32_t warmup_trials = 2;
    uint32_t measure_trials = 5;
    size_t decode_values = 1u << 20;  ///< values per decode corpus
    uint32_t transform_reps = 20;     ///< op applies per trial
};

SuiteConfig
makeConfig(bool quick)
{
    SuiteConfig cfg;
    cfg.quick = quick;
    if (quick) {
        cfg.warmup_trials = 1;
        cfg.measure_trials = 2;
        cfg.decode_values = 1u << 16;
        cfg.transform_reps = 3;
    }
    return cfg;
}

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Keeps decode results observable so loops are not optimized away. */
volatile uint64_t g_sink = 0;

/**
 * Warmups, then the fastest of `measure` timed runs of `fn`; `setup`,
 * if given, runs untimed before each run. Minimum
 * (not mean/median) is the right statistic on a shared host: every
 * trial runs identical work, so the fastest run is the one with the
 * least outside interference.
 */
double
bestTrialSeconds(const SuiteConfig &cfg,
                 const std::function<void()> &fn,
                 const std::function<void()> &setup = {})
{
    for (uint32_t i = 0; i < cfg.warmup_trials; ++i) {
        if (setup)
            setup();
        fn();
    }
    double best = 1e300;
    for (uint32_t i = 0; i < cfg.measure_trials; ++i) {
        if (setup)
            setup();
        double t0 = steadySeconds();
        fn();
        best = std::min(best, steadySeconds() - t0);
    }
    return best;
}

// ---------------------------------------------------------------------
// Decode suite: scalar reference vs bulk kernel, MB/s per encoding.

/** Zipf-ranked hashed categorical ids (the dictionary-friendly shape,
 * shared with the encoding tests and dedup bench). */
std::vector<int64_t>
zipfIds(size_t n, uint64_t seed)
{
    return warehouse::zipfSkewedIds(n, seed);
}

/** Sparse-length-like stream: mostly zeros, occasional short lists. */
std::vector<int64_t>
lengthStream(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int64_t> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        bool present = rng.nextUint(100) < 15;
        values.push_back(
            present ? static_cast<int64_t>(1 + rng.nextUint(24)) : 0);
    }
    return values;
}

void
addPair(bench::BenchReport &report, const SuiteConfig &cfg,
        const std::string &stem, const dwrf::Buffer &encoded,
        const std::function<void()> &scalar,
        const std::function<void()> &bulk)
{
    double scalar_s = bestTrialSeconds(cfg, scalar);
    double bulk_s = bestTrialSeconds(cfg, bulk);
    double bytes = static_cast<double>(encoded.size());
    report.metrics.push_back({"decode." + stem + "_scalar_mbps",
                              "MB/s", bytes / scalar_s / 1e6});
    report.metrics.push_back({"decode." + stem + "_bulk_mbps", "MB/s",
                              bytes / bulk_s / 1e6});
}

bench::BenchReport
runDecodeSuite(const SuiteConfig &cfg)
{
    bench::BenchReport report;
    report.suite = "decode";
    report.mode = cfg.quick ? "quick" : "full";
    report.seed = kSeed;
    report.warmup_trials = cfg.warmup_trials;
    report.measure_trials = cfg.measure_trials;

    size_t n = cfg.decode_values;

    // --- raw varints (unsigned LEB128; counts/lengths/indices are
    //     what raw varints carry in DWRF, so values are Zipf ranks) ---
    {
        Rng rng(kSeed);
        ZipfSampler zipf(4000, 1.2);
        dwrf::Buffer encoded;
        for (size_t i = 0; i < n; ++i)
            dwrf::putVarint(encoded, zipf.sample(rng));
        std::vector<uint64_t> out(n);
        addPair(report, cfg, "varint", encoded,
                [&] {
                    size_t pos = 0;
                    uint64_t acc = 0;
                    for (size_t i = 0; i < n; ++i) {
                        uint64_t v;
                        dwrf::getVarint(encoded, pos, v);
                        acc ^= v;
                    }
                    g_sink = g_sink + acc;
                },
                [&] {
                    size_t pos = 0;
                    dwrf::getVarintBlock(encoded, pos, out);
                    g_sink = g_sink + static_cast<uint64_t>(out[n - 1]);
                });
    }

    // --- raw little-endian floats ---
    {
        Rng rng(kSeed ^ 0xf10a7);
        dwrf::Buffer encoded;
        for (size_t i = 0; i < n; ++i)
            dwrf::putFloat(encoded,
                           static_cast<float>(rng.nextUint(1 << 20)));
        std::vector<float> out(n);
        addPair(report, cfg, "float", encoded,
                [&] {
                    size_t pos = 0;
                    float acc = 0;
                    for (size_t i = 0; i < n; ++i) {
                        float v;
                        dwrf::getFloat(encoded, pos, v);
                        acc += v;
                    }
                    g_sink = g_sink + static_cast<uint64_t>(acc);
                },
                [&] {
                    size_t pos = 0;
                    dwrf::getFloatBlock(encoded, pos, out);
                    g_sink = g_sink + static_cast<uint64_t>(out[n - 1]);
                });
    }

    // --- RLE (sparse-length shape: zero-dominated) ---
    {
        auto lengths = lengthStream(n, kSeed ^ 0x51e);
        dwrf::Buffer encoded;
        dwrf::rleEncode(lengths, encoded);
        std::vector<int64_t> out;
        addPair(report, cfg, "rle", encoded,
                [&] {
                    out.clear();
                    dwrf::rleDecodeScalar(encoded, out, n);
                    g_sink = g_sink + static_cast<uint64_t>(out.size());
                },
                [&] {
                    out.clear();
                    dwrf::rleDecode(encoded, out, n);
                    g_sink = g_sink + static_cast<uint64_t>(out.size());
                });
    }

    // --- value streams: direct (high-cardinality) ---
    {
        std::vector<int64_t> values;
        values.reserve(n);
        for (size_t i = 0; i < n; ++i)
            values.push_back(static_cast<int64_t>(i) * 7919);
        dwrf::Buffer encoded;
        dwrf::encodeValues(values, encoded);
        std::vector<int64_t> out;
        addPair(report, cfg, "values_direct", encoded,
                [&] {
                    dwrf::decodeValuesScalar(encoded, out);
                    g_sink = g_sink + static_cast<uint64_t>(out.size());
                },
                [&] {
                    dwrf::decodeValues(encoded, out);
                    g_sink = g_sink + static_cast<uint64_t>(out.size());
                });
    }

    // --- value streams: Zipfian dictionary corpus (acceptance bar:
    //     bulk >= 1.5x scalar) ---
    {
        auto values = zipfIds(n, kSeed ^ 0x21bf);
        dwrf::Buffer encoded;
        dwrf::encodeValues(values, encoded);
        std::vector<int64_t> out;
        addPair(report, cfg, "values_zipf", encoded,
                [&] {
                    dwrf::decodeValuesScalar(encoded, out);
                    g_sink = g_sink + static_cast<uint64_t>(out.size());
                },
                [&] {
                    dwrf::decodeValues(encoded, out);
                    g_sink = g_sink + static_cast<uint64_t>(out.size());
                });
        double scalar =
            report.metrics[report.metrics.size() - 2].value;
        double bulk = report.metrics.back().value;
        report.metrics.push_back({"decode.values_zipf_bulk_speedup",
                                  "x", bulk / scalar});
    }

    // --- CRC32-C over stream-sized (16 KiB) chunks: the portable
    //     slicing-by-8 kernel vs the dispatched one (SSE4.2 where the
    //     CPU has it) ---
    {
        Rng rng(kSeed ^ 0xc3c);
        dwrf::Buffer data(4 * n);
        for (auto &b : data)
            b = static_cast<uint8_t>(rng.next());
        constexpr size_t kChunk = 16 * 1024;
        auto sweep = [&](uint32_t (*crc)(dwrf::ByteSpan)) {
            uint32_t acc = 0;
            for (size_t off = 0; off < data.size(); off += kChunk) {
                size_t len = std::min(kChunk, data.size() - off);
                acc ^= crc(dwrf::ByteSpan(data.data() + off, len));
            }
            g_sink = g_sink + acc;
        };
        addPair(report, cfg, "crc32", data,
                [&] { sweep(dwrf::detail::crc32Portable); },
                [&] { sweep(dwrf::crc32); });
    }
    return report;
}

// ---------------------------------------------------------------------
// DPP suite: per-op transform throughput.

/** A realistic 512-row batch (dense ids 1..8, sparse 9..16). */
dwrf::RowBatch
makeTransformBatch()
{
    warehouse::SchemaParams p;
    p.float_features = 8;
    p.sparse_features = 8;
    p.coverage_u = 0.6;
    p.avg_length = 20.0;
    p.seed = 77;
    static auto schema = warehouse::makeSchema(p);
    warehouse::RowGenerator gen(schema, 13);
    return dwrf::batchFromRows(gen.batch(512));
}

transforms::TransformSpec
specFor(transforms::OpKind kind)
{
    using transforms::OpKind;
    transforms::TransformSpec s;
    s.kind = kind;
    s.output = 1u << 20;
    switch (kind) {
      case OpKind::Cartesian:
      case OpKind::IdListTransform:
        s.inputs = {9, 10};
        s.u0 = 64;
        break;
      case OpKind::Bucketize:
      case OpKind::Onehot:
        s.inputs = {1};
        s.p1 = 10.0;
        s.u0 = 64;
        break;
      case OpKind::BoxCox:
        s.inputs = {1};
        s.p0 = 0.5;
        s.p1 = 1.0;
        break;
      case OpKind::Logit:
      case OpKind::Clamp:
      case OpKind::GetLocalHour:
        s.inputs = {1};
        s.p1 = 1.0;
        break;
      case OpKind::ComputeScore:
        s.inputs = {9};
        s.p0 = 2.0;
        break;
      case OpKind::Enumerate:
      case OpKind::PositiveModulus:
      case OpKind::MapId:
      case OpKind::SigridHash:
      case OpKind::NGram:
      case OpKind::FirstX:
        s.inputs = {9};
        s.u0 = kind == OpKind::NGram ? 3 : 1u << 16;
        s.u1 = 1u << 20;
        break;
      case OpKind::Sampling:
        s.p0 = 0.5;
        break;
    }
    return s;
}

std::string
lowerName(transforms::OpKind kind)
{
    std::string name = transforms::opKindName(kind);
    for (char &c : name)
        c = static_cast<char>(std::tolower(
            static_cast<unsigned char>(c)));
    return name;
}

bench::BenchReport
runDppSuite(const SuiteConfig &cfg)
{
    bench::BenchReport report;
    report.suite = "dpp";
    report.mode = cfg.quick ? "quick" : "full";
    report.seed = kSeed;
    report.warmup_trials = cfg.warmup_trials;
    report.measure_trials = cfg.measure_trials;

    // --- Table XI: per-op throughput over a realistic mini-batch ---
    using transforms::OpKind;
    const OpKind kOps[] = {
        OpKind::Cartesian,       OpKind::Bucketize,
        OpKind::ComputeScore,    OpKind::Enumerate,
        OpKind::PositiveModulus, OpKind::IdListTransform,
        OpKind::BoxCox,          OpKind::Logit,
        OpKind::MapId,           OpKind::FirstX,
        OpKind::GetLocalHour,    OpKind::SigridHash,
        OpKind::NGram,           OpKind::Onehot,
        OpKind::Clamp,           OpKind::Sampling,
    };
    dwrf::RowBatch base = makeTransformBatch();
    // An op appends a column, so every rep needs a fresh batch: the
    // copies are made before the clock starts, and only apply() is
    // timed.
    std::vector<dwrf::RowBatch> batches;
    for (OpKind kind : kOps) {
        auto op = transforms::compileTransform(specFor(kind));
        double seconds = bestTrialSeconds(
            cfg,
            [&] {
                for (dwrf::RowBatch &batch : batches) {
                    transforms::TransformStats stats;
                    op->apply(batch, stats);
                    g_sink = g_sink + stats.values_produced + batch.rows;
                }
            },
            [&] { batches.assign(cfg.transform_reps, base); });
        double rows = static_cast<double>(base.rows) *
                      cfg.transform_reps;
        report.metrics.push_back(
            {"dpp.transform." + lowerName(kind) + "_rows_per_sec",
             "rows/s", rows / seconds});
    }

    return report;
}

// ---------------------------------------------------------------------
// Driver.

bool
writeReport(const bench::BenchReport &report, const std::string &dir)
{
    std::string text = bench::writeBenchJson(report);
    std::string error;
    if (!bench::validateBenchJson(text, &error)) {
        std::fprintf(stderr,
                     "perf_suite: emitted %s report fails its own "
                     "schema: %s\n",
                     report.suite.c_str(), error.c_str());
        return false;
    }
    std::string path = dir + "/BENCH_" + report.suite + ".json";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perf_suite: cannot write %s\n",
                     path.c_str());
        return false;
    }
    out << text;
    out.close();
    std::printf("wrote %s (%zu metrics)\n", path.c_str(),
                report.metrics.size());
    for (const auto &m : report.metrics)
        std::printf("  %-42s %14.2f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    return true;
}

int
validateFiles(const std::vector<std::string> &paths)
{
    int rc = 0;
    for (const std::string &path : paths) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "%s: cannot open\n", path.c_str());
            rc = 1;
            continue;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        std::string error;
        if (bench::validateBenchJson(buf.str(), &error)) {
            std::printf("%s: OK\n", path.c_str());
        } else {
            std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                         error.c_str());
            rc = 1;
        }
    }
    return rc;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--quick] [--out-dir DIR] [--suite decode|dpp|all]\n"
        "       %s --validate FILE...\n",
        argv0, argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out_dir = ".";
    std::string suite = "all";
    std::vector<std::string> validate;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out-dir" && i + 1 < argc) {
            out_dir = argv[++i];
        } else if (arg == "--suite" && i + 1 < argc) {
            suite = argv[++i];
        } else if (arg == "--validate") {
            for (++i; i < argc; ++i)
                validate.push_back(argv[i]);
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (!validate.empty())
        return validateFiles(validate);
    if (suite != "all" && suite != "decode" && suite != "dpp") {
        usage(argv[0]);
        return 2;
    }

    SuiteConfig cfg = makeConfig(quick);
    bool ok = true;
    if (suite == "all" || suite == "decode")
        ok = writeReport(runDecodeSuite(cfg), out_dir) && ok;
    if (suite == "all" || suite == "dpp")
        ok = writeReport(runDppSuite(cfg), out_dir) && ok;
    return ok ? 0 : 1;
}
