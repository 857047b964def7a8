#include "fault.h"

namespace dsi {

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::arm(const std::string &point, FaultSpec spec)
{
    std::scoped_lock lock(mutex_);
    auto [it, inserted] = points_.insert_or_assign(point,
                                                   PointState{spec});
    (void)it;
    if (inserted)
        armed_count_.fetch_add(1, std::memory_order_relaxed);
}

void
FaultInjector::disarm(const std::string &point)
{
    std::scoped_lock lock(mutex_);
    if (points_.erase(point))
        armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void
FaultInjector::reset()
{
    std::scoped_lock lock(mutex_);
    points_.clear();
    armed_count_.store(0, std::memory_order_relaxed);
}

void
FaultInjector::seed(uint64_t s)
{
    std::scoped_lock lock(mutex_);
    rng_ = Rng(s);
}

bool
FaultInjector::shouldFail(const std::string &point)
{
    double latency = 0.0;
    return hit(point, latency) && latency <= 0.0;
}

double
FaultInjector::stallSeconds(const std::string &point)
{
    double latency = 0.0;
    return hit(point, latency) ? latency : 0.0;
}

bool
FaultInjector::hit(const std::string &point, double &latency_seconds)
{
    // Fast path: nothing armed anywhere (the production configuration).
    if (armed_count_.load(std::memory_order_relaxed) == 0)
        return false;

    std::scoped_lock lock(mutex_);
    auto it = points_.find(point);
    if (it == points_.end())
        return false;
    PointState &st = it->second;
    ++st.hits;
    bool fired = st.spec.trigger_hit > 0
                     ? st.hits == st.spec.trigger_hit
                     : rng_.nextBool(st.spec.probability);
    if (fired && st.spec.max_fires > 0 && st.fires >= st.spec.max_fires)
        fired = false;
    if (!fired)
        return false;
    ++st.fires;
    latency_seconds = st.spec.latency_seconds;
    return true;
}

bool
FaultInjector::armed(const std::string &point) const
{
    std::scoped_lock lock(mutex_);
    return points_.count(point) != 0;
}

uint64_t
FaultInjector::hits(const std::string &point) const
{
    std::scoped_lock lock(mutex_);
    auto it = points_.find(point);
    return it == points_.end() ? 0 : it->second.hits;
}

uint64_t
FaultInjector::fires(const std::string &point) const
{
    std::scoped_lock lock(mutex_);
    auto it = points_.find(point);
    return it == points_.end() ? 0 : it->second.fires;
}

} // namespace dsi
