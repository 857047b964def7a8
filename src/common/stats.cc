#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "logging.h"

namespace dsi {

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    double delta = other.mean_ - mean_;
    uint64_t total = n_ + other.n_;
    double nf = static_cast<double>(n_);
    double of = static_cast<double>(other.n_);
    double tf = static_cast<double>(total);
    m2_ += other.m2_ + delta * delta * nf * of / tf;
    mean_ = (nf * mean_ + of * other.mean_) / tf;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    n_ = total;
}

double
RunningStats::variance() const
{
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::min() const
{
    return n_ ? min_ : 0.0;
}

double
RunningStats::max() const
{
    return n_ ? max_ : 0.0;
}

PercentileSampler::PercentileSampler(const PercentileSampler &other)
{
    std::scoped_lock lock(other.mutex_);
    samples_ = other.samples_;
    dirty_ = other.dirty_;
}

PercentileSampler &
PercentileSampler::operator=(const PercentileSampler &other)
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(mutex_, other.mutex_);
    samples_ = other.samples_;
    dirty_ = other.dirty_;
    return *this;
}

double
PercentileSampler::mean() const
{
    std::scoped_lock lock(mutex_);
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

double
PercentileSampler::stddev() const
{
    std::scoped_lock lock(mutex_);
    if (samples_.size() < 2)
        return 0.0;
    double m = 0.0;
    for (double x : samples_)
        m += x;
    m /= static_cast<double>(samples_.size());
    double s = 0.0;
    for (double x : samples_)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

void
PercentileSampler::ensureSortedLocked() const
{
    if (dirty_) {
        std::sort(samples_.begin(), samples_.end());
        dirty_ = false;
    }
}

double
PercentileSampler::percentile(double p) const
{
    dsi_assert(p >= 0.0 && p <= 100.0, "percentile out of range: %f", p);
    std::scoped_lock lock(mutex_);
    if (samples_.empty())
        return 0.0;
    ensureSortedLocked();
    if (samples_.size() == 1)
        return samples_[0];
    double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

size_t
LogLinearHistogram::bucketOf(double x)
{
    if (!(x >= kLowest)) // zero, negative, sub-resolution, NaN
        return 0;
    if (x >= kHighest)
        return kBuckets - 1;
    // x / kLowest = m * 2^exp with m in [0.5, 1); the scaling by a
    // power of two is exact, so bucket edges are exact too.
    int exp = 0;
    double m = std::frexp(x / kLowest, &exp);
    auto octave = static_cast<size_t>(exp - 1);
    auto sub = static_cast<size_t>((2.0 * m - 1.0) * kSubBuckets);
    return 1 + octave * kSubBuckets + sub;
}

double
LogLinearHistogram::upperEdge(size_t bucket)
{
    if (bucket == 0)
        return kLowest;
    size_t octave = (bucket - 1) / kSubBuckets;
    size_t sub = (bucket - 1) % kSubBuckets;
    return std::ldexp(kLowest * (1.0 + static_cast<double>(sub + 1) /
                                           kSubBuckets),
                      static_cast<int>(octave));
}

void
LogLinearHistogram::add(double x)
{
    counts_[bucketOf(x)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
}

double
LogLinearHistogram::percentile(double p) const
{
    dsi_assert(p >= 0.0 && p <= 100.0, "percentile out of range: %f", p);
    // Snapshot first, so concurrent add()s cannot move the ranks
    // mid-scan.
    std::array<uint64_t, kBuckets> snap{};
    uint64_t n = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        snap[i] = counts_[i].load(std::memory_order_relaxed);
        n += snap[i];
    }
    if (n == 0)
        return 0.0;
    // The closest ranks PercentileSampler interpolates between, each
    // replaced by its bucket's upper edge.
    double rank = p / 100.0 * static_cast<double>(n - 1);
    auto lo = static_cast<uint64_t>(rank);
    uint64_t hi = std::min(lo + 1, n - 1);
    double frac = rank - static_cast<double>(lo);
    double lo_edge = 0.0;
    double hi_edge = 0.0;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        if (seen <= lo && seen + snap[i] > lo)
            lo_edge = upperEdge(i);
        seen += snap[i];
        if (seen > hi) {
            hi_edge = upperEdge(i);
            break;
        }
    }
    return lo_edge * (1.0 - frac) + hi_edge * frac;
}

void
LogHistogram::add(double x, uint64_t weight)
{
    int exp = kMinExp;
    if (x >= 1.0) {
        exp = static_cast<int>(std::floor(std::log2(x)));
        exp = std::clamp(exp, kMinExp, kMaxExp);
    }
    counts_[exp - kMinExp] += weight;
    total_ += weight;
}

std::vector<HistogramBucket>
LogHistogram::buckets() const
{
    std::vector<HistogramBucket> out;
    for (int e = kMinExp; e <= kMaxExp; ++e) {
        uint64_t c = counts_[e - kMinExp];
        if (c == 0)
            continue;
        double lo = e == kMinExp ? 0.0 : std::pow(2.0, e);
        double hi = std::pow(2.0, e + 1);
        out.push_back({lo, hi, c});
    }
    return out;
}

std::string
LogHistogram::render(const std::string &label, int width) const
{
    std::string out = label + " (n=" + std::to_string(total_) + ")\n";
    auto bks = buckets();
    uint64_t peak = 0;
    for (const auto &b : bks)
        peak = std::max(peak, b.count);
    for (const auto &b : bks) {
        char line[160];
        int bar = peak ? static_cast<int>(
            static_cast<double>(b.count) / static_cast<double>(peak) *
            width) : 0;
        std::snprintf(line, sizeof(line), "  [%12.0f, %12.0f) %10lu ",
                      b.lo, b.hi, static_cast<unsigned long>(b.count));
        out += line;
        out.append(static_cast<size_t>(bar), '#');
        out += '\n';
    }
    return out;
}

std::vector<double>
WeightedCdf::sortedDesc() const
{
    std::vector<double> w = weights_;
    std::sort(w.begin(), w.end(), std::greater<>());
    return w;
}

std::vector<CdfPoint>
WeightedCdf::build(size_t points) const
{
    std::vector<CdfPoint> curve;
    if (weights_.empty() || points < 2)
        return curve;
    auto w = sortedDesc();
    double total = 0.0;
    for (double x : w)
        total += x;
    if (total <= 0.0)
        return curve;

    std::vector<double> prefix(w.size() + 1, 0.0);
    for (size_t i = 0; i < w.size(); ++i)
        prefix[i + 1] = prefix[i] + w[i];

    curve.reserve(points);
    for (size_t p = 0; p < points; ++p) {
        double frac = static_cast<double>(p) /
                      static_cast<double>(points - 1);
        size_t k = static_cast<size_t>(
            std::round(frac * static_cast<double>(w.size())));
        curve.push_back({frac, prefix[k] / total});
    }
    return curve;
}

double
WeightedCdf::fractionForShare(double target) const
{
    dsi_assert(target >= 0.0 && target <= 1.0, "share must be in [0,1]");
    if (weights_.empty())
        return 0.0;
    auto w = sortedDesc();
    double total = 0.0;
    for (double x : w)
        total += x;
    if (total <= 0.0)
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < w.size(); ++i) {
        acc += w[i];
        if (acc / total >= target)
            return static_cast<double>(i + 1) /
                   static_cast<double>(w.size());
    }
    return 1.0;
}

} // namespace dsi
