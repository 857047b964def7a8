/**
 * @file
 * Statistics utilities: running moments, exact percentile samples,
 * logarithmic histograms, a fixed-size log-linear latency histogram,
 * and CDF construction.
 *
 * The paper reports results as means/stds with percentiles (Table VI),
 * CDFs (Fig. 7), and utilization time series (Figs. 8, 9); these types
 * back all of those outputs.
 */

#ifndef DSI_COMMON_STATS_H
#define DSI_COMMON_STATS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dsi {

/** Streaming mean/variance/min/max via Welford's algorithm. */
class RunningStats
{
  public:
    void add(double x);
    void merge(const RunningStats &other);

    uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Exact percentile computation over retained samples. Suitable for the
 * sample counts our experiments produce (millions); sorts lazily so
 * repeated queries after a sort are cheap.
 *
 * Thread safety: every accessor is mutex-guarded — percentile() sorts
 * the sample vector behind `const`, so even two concurrent *readers*
 * would race without the lock. samples() returns an unguarded
 * reference and is only stable once writers and sorters have
 * quiesced.
 */
class PercentileSampler
{
  public:
    PercentileSampler() = default;
    PercentileSampler(const PercentileSampler &other);
    PercentileSampler &operator=(const PercentileSampler &other);

    void add(double x)
    {
        std::scoped_lock lock(mutex_);
        samples_.push_back(x);
        dirty_ = true;
    }
    void reserve(size_t n)
    {
        std::scoped_lock lock(mutex_);
        samples_.reserve(n);
    }

    uint64_t count() const
    {
        std::scoped_lock lock(mutex_);
        return samples_.size();
    }
    double mean() const;
    double stddev() const;

    /** p in [0, 100]. Linear interpolation between closest ranks. */
    double percentile(double p) const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    /** Sort if needed; callers must hold mutex_. */
    void ensureSortedLocked() const;

    mutable std::mutex mutex_; ///< guards samples_ and dirty_
    mutable std::vector<double> samples_;
    mutable bool dirty_ = false;
};

/**
 * Fixed-size log-linear histogram of non-negative values (latencies in
 * seconds), in the style of HdrHistogram and DDSketch, for live paths
 * that must not slow down as the process ages.
 *
 * Layout: one catch-all bucket for values below kLowest (zero,
 * negatives and sub-resolution values), then kOctaves octaves
 * [kLowest * 2^k, kLowest * 2^(k+1)), each cut into kSubBuckets
 * linear sub-buckets. Values at or past kHighest are clamped into the
 * last bucket.
 *
 * Error bound: percentile() reports bucket upper edges, interpolated
 * between closest ranks exactly as PercentileSampler interpolates
 * samples. For values in [kLowest, kHighest) the answer is never
 * below the exact percentile and exceeds it by at most 1/kSubBuckets
 * (6.25%) relative. Below kLowest the answer is at most kLowest
 * (absolute error); past the top it is clamped to kHighest.
 *
 * Memory is a fixed array of counters; add() is lock-free O(1) (two
 * relaxed atomic increments) and percentile() is one scan of the
 * buckets. Both are safe to call concurrently: a percentile() racing
 * add()s reads each bucket once and answers for the adds it saw.
 */
class LogLinearHistogram
{
  public:
    static constexpr int kSubBuckets = 16;
    static constexpr int kOctaves = 24;
    static constexpr size_t kBuckets = 1 + kOctaves * kSubBuckets;
    /** Resolution floor: 2^-20 s, about 1 us. A power of two, so the
     * scaling into octaves is exact. */
    static constexpr double kLowest = 0x1p-20;
    /** Top edge (16 s): larger values are clamped to it. */
    static constexpr double kHighest = kLowest * (1 << kOctaves);

    void add(double x);

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** p in [0, 100]; 0 when empty. See the class doc for the bound. */
    double percentile(double p) const;

  private:
    static size_t bucketOf(double x);
    static double upperEdge(size_t bucket);

    std::array<std::atomic<uint64_t>, kBuckets> counts_{};
    std::atomic<uint64_t> count_{0};
};

/** One bucket of a histogram: [lo, hi) with a count. */
struct HistogramBucket
{
    double lo;
    double hi;
    uint64_t count;
};

/**
 * Log2-bucketed histogram for long-tailed quantities (IO sizes,
 * durations). Bucket k covers [2^k, 2^(k+1)).
 */
class LogHistogram
{
  public:
    void add(double x, uint64_t weight = 1);

    uint64_t total() const { return total_; }
    std::vector<HistogramBucket> buckets() const;

    /** Render as an ASCII table with normalized bar widths. */
    std::string render(const std::string &label, int width = 40) const;

  private:
    static constexpr int kMinExp = -1; // [0,1) catch-all bucket
    static constexpr int kMaxExp = 50;
    uint64_t counts_[kMaxExp - kMinExp + 1] = {};
    uint64_t total_ = 0;
};

/** A single (x, y) point of a CDF. */
struct CdfPoint
{
    double x;
    double y;
};

/**
 * Weighted CDF: given (value, weight) pairs, reports what fraction of
 * total weight the top-x fraction of values absorbs. This is exactly
 * the "popular bytes → throughput absorbed" curve of Fig. 7.
 */
class WeightedCdf
{
  public:
    void add(double weight) { weights_.push_back(weight); }

    /**
     * Build the Lorenz-style curve: x = fraction of items (most popular
     * first), y = fraction of cumulative weight.
     */
    std::vector<CdfPoint> build(size_t points = 101) const;

    /** Smallest item-fraction whose weight share reaches `target`. */
    double fractionForShare(double target) const;

  private:
    std::vector<double> sortedDesc() const;

    std::vector<double> weights_;
};

} // namespace dsi

#endif // DSI_COMMON_STATS_H
